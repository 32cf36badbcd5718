"""Rule-based typed relation extraction (per sentence).

Interface parity with the reference's ``GenerativeRelationExtractor``
(``renard/pipeline/relation_extraction.py:138-246``): produce
``sentence_relations`` — for each sentence, a list of
``(subj_key, relation, obj_key)`` triples over unified characters
(the reference maps generated names back to characters at ``:228-237``).
The T5 model is unavailable offline; this deterministic pattern
extractor is the default producer of the same schema (the actor-pool
stage accepts a seq2seq drop-in).

Rule: within a sentence, for each pair of character mentions separated
by a relation verb from the lexicon (possibly with an object/preposition
in between), emit (subject, verb-lemma, object).
"""

from __future__ import annotations

from renard_ray.textproc.tokenize import Tokenized
from renard_ray.textproc.unify import Character

# surface form -> relation lemma
RELATION_VERBS: dict[str, str] = {
    "loves": "loves",
    "loved": "loves",
    "hates": "hates",
    "hated": "hates",
    "marries": "marries",
    "married": "marries",
    "meets": "meets",
    "met": "meets",
    "visits": "visits",
    "visited": "visits",
    "knows": "knows",
    "knew": "knows",
    "admires": "admires",
    "admired": "admires",
    "trusts": "trusts",
    "trusted": "trusts",
    "helps": "helps",
    "helped": "helps",
}

MAX_GAP = 6  # max tokens between mention end and verb / verb and mention


def extract_sentence_relations(
    tokens: list[str],
    tok: Tokenized,
    characters: list[Character],
) -> list[list[tuple[str, str, str]]]:
    from renard_ray.textproc.graph import _char_key

    # mention start -> (end, char key), only named mentions
    mention_spans: list[tuple[int, int, str]] = []
    for c in characters:
        key = _char_key(c)
        for m in c.mentions:
            if m.surface in c.names:
                mention_spans.append((m.start, m.end, key))
    mention_spans.sort()

    n_sents = len(tok.sent_bounds)
    out: list[list[tuple[str, str, str]]] = [[] for _ in range(n_sents)]
    from bisect import bisect_right

    # one sweep over the sorted mentions: a mention is in the sentence
    # holding its first token if it ends inside it, else in none
    bounds = tok.sent_bounds
    by_sent: dict[int, list[tuple[int, int, str]]] = {}
    for a, b, k in mention_spans:
        s_i = bisect_right(bounds, a)
        if s_i < n_sents and b <= bounds[s_i]:
            by_sent.setdefault(s_i, []).append((a, b, k))

    for s_i, sent_mentions in by_sent.items():
        if len(sent_mentions) < 2:
            continue
        rels: list[tuple[str, str, str]] = []
        for i, (_, a_end, a_key) in enumerate(sent_mentions):
            # relation verbs within MAX_GAP tokens after this mention
            verbs = [
                (t, RELATION_VERBS[tokens[t].lower()])
                for t in range(a_end, min(len(tokens), a_end + MAX_GAP))
                if tokens[t].lower() in RELATION_VERBS
            ]
            if not verbs:
                continue
            for b_start, _, b_key in sent_mentions[i + 1 :]:
                if a_key == b_key:
                    continue
                # the first verb between the two mentions, near enough
                # to the second
                for t, lemma in verbs:
                    if t < b_start and b_start - t <= MAX_GAP:
                        rels.append((a_key, lemma, b_key))
                        break
        out[s_i] = rels
    return out
