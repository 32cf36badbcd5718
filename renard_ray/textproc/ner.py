"""NER: BIO-tag decoding + a deterministic rule tagger.

- ``bio_to_entities`` re-implements the reference's BIO span decoder
  semantics (``renard/ner_utils.py:126-180``) including resolution of
  ``I-`` tags with no preceding ``B-``.
- ``rule_ner_tags`` is the engine's default offline NER model: a
  capitalization + title-pattern tagger over token streams.  On a real
  cluster a BERT token-classification actor (see
  ``renard_ray.stages.nlp.NerStage``) drops in by producing the same
  BIO tags; everything downstream is model-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from renard_ray.resources.lexicons import ALL_TITLES, STOPWORDS


@dataclass(frozen=True)
class Entity:
    """Token-index span [start, end) + NER class without BIO prefix
    (reference analog: ``renard/pipeline/ner/ner.py:32-49``)."""

    start: int
    end: int
    tag: str

    def surface(self, tokens: list[str]) -> str:
        return " ".join(tokens[self.start : self.end])


def bio_to_entities(
    bio_tags: list[str], resolve_inconsistencies: bool = True
) -> list[Entity]:
    """Decode a BIO tag sequence into entity spans, in apparition order.

    Semantics of ``renard/ner_utils.py:126-180``: a ``B-X`` starts a
    span; ``I-X`` continues the current span regardless of class; an
    ``I-X`` with no open span starts one iff ``resolve_inconsistencies``;
    any other tag closes the open span.
    """
    entities: list[Entity] = []
    cur_tag: str | None = None
    cur_start = 0
    for i, tag in enumerate(bio_tags):
        if cur_tag is not None and not tag.startswith("I-"):
            entities.append(Entity(cur_start, i, cur_tag))
            cur_tag = None
        if tag.startswith("B-"):
            cur_tag = tag[2:]
            cur_start = i
        elif tag.startswith("I-") and cur_tag is None and resolve_inconsistencies:
            cur_tag = tag[2:]
            cur_start = i
    if cur_tag is not None:
        entities.append(Entity(cur_start, len(bio_tags), cur_tag))
    return entities


def _is_capitalized_word(tok: str) -> bool:
    return len(tok) > 1 and tok[0].isupper() and tok[1:].islower() and tok.isalpha()


def rule_ner_tags(
    tokens: list[str],
    sent_bounds: list[int],
    lang: str = "eng",
) -> list[str]:
    """Deterministic rule NER producing BIO tags (class ``PER``).

    Rules (two passes over the document):
    1. Collect an in-document gazetteer of capitalized words seen at a
       non-sentence-initial position (these are proper-noun evidence).
    2. Tag runs: a title token (``Mr.`` …) followed by a capitalized
       word starts a PER span including the title; a capitalized word
       that is (a) not sentence-initial, or (b) sentence-initial but in
       the in-doc gazetteer, starts/continues a PER span.  Stopwords
       never start a span.
    """
    titles = ALL_TITLES.get(lang, frozenset())
    sent_starts = {0, *sent_bounds[:-1]}

    # each distinct token classified once per document: (capitalized
    # word, capitalized non-stopword, capitalized non-stopword
    # non-title, title)
    kinds: dict[str, tuple[bool, bool, bool, bool]] = {}
    for tok in set(tokens):
        low = tok.lower()
        cap = _is_capitalized_word(tok)
        name = cap and low not in STOPWORDS
        title = low in titles
        kinds[tok] = (cap, name, name and not title, title)
    at = [kinds[tok] for tok in tokens]

    # pass 1: in-doc proper-noun gazetteer
    evidence = {tokens[i] for i, k in enumerate(at) if k[2] and i not in sent_starts}

    tags = ["O"] * len(tokens)
    i = 0
    n = len(tokens)
    while i < n:
        _, _, plain, title = at[i]

        if title and i + 1 < n and at[i + 1][0]:
            tags[i] = "B-PER"
            j = i + 1
            while j < n and at[j][1]:
                tags[j] = "I-PER"
                j += 1
            i = j
            continue

        if plain and (i not in sent_starts or tokens[i] in evidence):
            tags[i] = "B-PER"
            j = i + 1
            while j < n and at[j][2]:
                tags[j] = "I-PER"
                j += 1
            i = j
            continue

        i += 1
    return tags


def extract_entities(
    tokens: list[str], sent_bounds: list[int], lang: str = "eng"
) -> list[Entity]:
    """Default NER: rule tagger + BIO decode."""
    return bio_to_entities(rule_ner_tags(tokens, sent_bounds, lang))
