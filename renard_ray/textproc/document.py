"""Per-document pipeline driver: text -> edges/aliases for ONE document.

This is the single code path shared by the fused Ray Data kernel
(``renard_ray.stages.doc_stages.doc_kernel_batch``), the granular
per-step stages (``renard_ray.stages.granular``, which call the same
step functions) and the single-process golden oracle
(``renard_ray.oracle.golden``), so per-document semantics are
identical by construction (SURVEY.md §7.0).

Capability parity: the reference's preconfigured pipelines
(``renard/pipeline/preconfigured.py:6-149``) — tokenize -> NER ->
(coref) -> character unification -> graph extraction — with the
conversational and relational chains as optional extras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from renard_ray.textproc.coref import resolve_corefs
from renard_ray.textproc.graph import (
    EdgeDict,
    co_occurrence_edges,
    conversation_edges,
    dynamic_co_occurrence_edges,
    quote_mention_edges,
    relational_edges,
    _char_key,
)
from renard_ray.textproc.ner import Entity, extract_entities
from renard_ray.textproc.quotes import Quote, detect_quotes
from renard_ray.textproc.relation import extract_sentence_relations
from renard_ray.textproc.sentiment import sentence_polarities
from renard_ray.textproc.speaker import attribute_speakers
from renard_ray.textproc.tokenize import Tokenized, tokenize
from renard_ray.textproc.unify import Character, graph_rules_unify, naive_unify

# pseudo-predicates used on the unified stage-output edge table
ALIAS_OF = "alias_of"  # subj = alias name, obj = per-doc character key
NAME_COUNT = "name_count"  # subj = name, weight = #named mentions in doc
METRIC = "_metric"  # subj = metric name, weight = value (per-batch counters)


@dataclass
class DocConfig:
    """Configuration of the per-document chain (reference analogs:
    ``co_occurrence_pipeline`` / ``conversational_pipeline`` /
    ``relational_pipeline``, ``preconfigured.py:6-149``)."""

    unifier: str = "graph_rules"  # or "naive"
    min_appearances: int = 1
    with_corefs: bool = True
    with_sentiment: bool = False
    with_conversations: bool = False  # quotes + speakers + talks_with edges
    with_quote_mentions: bool = False  # speaker -> mentioned char edges
    with_relations: bool = False  # typed relation edges
    co_occurrences_dist: tuple[int, str] = (1, "sentences")
    conversation_dist: tuple[int, str] = (1, "sentences")
    dynamic_window: Optional[int] = None  # mentions per dynamic window
    dynamic_overlap: int = 0
    # "paragraphs": user-block-bounds dynamic graphs, one block per
    # text paragraph (reference: caller-supplied ``dynamic_blocks`` +
    # charbb2tokenbb, ``graph_extraction.py:207-215,411-448``)
    dynamic_blocks_unit: Optional[str] = None
    # per-edge url provenance: a repeated long-string column that adds
    # ~40% to the stage-row payload at scale — off unless debugging
    emit_url: bool = False
    min_rel_occurrences: int = 1
    character_tag: str = "PER"


@dataclass
class DocResult:
    """Everything the chain computed for one document."""

    tok: Tokenized
    tokens: list[str]
    entities: list[Entity]
    corefs: list[list[tuple[int, int]]]
    characters: list[Character]
    quotes: list[Quote] = field(default_factory=list)
    speakers: list[Optional[str]] = field(default_factory=list)
    polarities: Optional[list[float]] = None
    sentence_relations: list[list[tuple[str, str, str]]] = field(default_factory=list)
    # static edges, or one dict per dynamic block (block_id = index)
    edge_blocks: list[EdgeDict] = field(default_factory=list)
    is_dynamic: bool = False


def process_document(text: str, cfg: DocConfig, lang: str = "eng") -> DocResult:
    """Run the full per-document chain on one text."""
    tok = tokenize(text)
    tokens = tok.tokens(text)
    entities = extract_entities(tokens, tok.sent_bounds, lang)
    corefs = doc_corefs(tokens, entities, cfg, lang)
    characters = doc_characters(tokens, entities, corefs, cfg, lang)

    (
        edge_blocks,
        is_dynamic,
        quotes,
        speakers,
        polarities,
        sentence_relations,
    ) = build_edge_blocks(text, tok, tokens, characters, cfg)

    return DocResult(
        tok=tok,
        tokens=tokens,
        entities=entities,
        corefs=corefs,
        characters=characters,
        quotes=quotes,
        speakers=speakers,
        polarities=polarities,
        sentence_relations=sentence_relations,
        edge_blocks=edge_blocks,
        is_dynamic=is_dynamic,
    )


def doc_corefs(
    tokens: list[str], entities: list[Entity], cfg: DocConfig, lang: str
) -> list[list[tuple[int, int]]]:
    """The coreference step: rule-based chains when ``cfg.with_corefs``,
    otherwise none."""
    if not cfg.with_corefs:
        return []
    return resolve_corefs(tokens, entities, lang, character_tag=cfg.character_tag)


def doc_characters(
    tokens: list[str],
    entities: list[Entity],
    corefs: list[list[tuple[int, int]]],
    cfg: DocConfig,
    lang: str,
) -> list[Character]:
    """The character-unification step, by ``cfg.unifier`` (``naive`` or
    ``graph_rules``); coreference chains are used only when
    ``cfg.with_corefs``."""
    chains = corefs if cfg.with_corefs else None
    if cfg.unifier == "naive":
        return naive_unify(
            tokens,
            entities,
            chains,
            min_appearances=cfg.min_appearances,
            character_tag=cfg.character_tag,
        )
    return graph_rules_unify(
        tokens,
        entities,
        chains,
        lang=lang,
        min_appearances=cfg.min_appearances,
        character_tag=cfg.character_tag,
    )


def build_edge_blocks(
    text: str,
    tok: Tokenized,
    tokens: list,
    characters: list,
    cfg: DocConfig,
):
    """Config-driven edge extraction from unified characters — the tail
    of the per-document chain, SHARED between the fused kernel
    (``process_document``) and the granular terminal stage
    (``stages/granular.py::edges_batch``), so both paths implement every
    DocConfig knob by construction.

    Returns (edge_blocks, is_dynamic, quotes, speakers, polarities,
    sentence_relations).
    """
    polarities = None
    if cfg.with_sentiment:
        bounds = tok.sent_bounds
        polarities = sentence_polarities(
            [tokens[a:b] for a, b in zip([0, *bounds], bounds)]
        )

    quotes: list[Quote] = []
    speakers: list[Optional[str]] = []
    if cfg.with_conversations or cfg.with_quote_mentions:
        quotes = detect_quotes(tokens)
        speakers = attribute_speakers(tokens, quotes, characters)

    sentence_relations: list[list[tuple[str, str, str]]] = []
    if cfg.with_relations:
        sentence_relations = extract_sentence_relations(tokens, tok, characters)

    # edges
    if cfg.dynamic_window is not None:
        edge_blocks = dynamic_co_occurrence_edges(
            characters,
            tok,
            cfg.co_occurrences_dist,
            dynamic_window=cfg.dynamic_window,
            dynamic_overlap=cfg.dynamic_overlap,
            sentence_polarities=polarities,
        )
        is_dynamic = True
    elif cfg.dynamic_blocks_unit == "paragraphs":
        edge_blocks = dynamic_co_occurrence_edges(
            characters,
            tok,
            cfg.co_occurrences_dist,
            dynamic_blocks=_paragraph_token_blocks(text, tok),
            sentence_polarities=polarities,
        )
        is_dynamic = True
    else:
        edge_blocks = [
            co_occurrence_edges(
                characters,
                tok,
                cfg.co_occurrences_dist,
                sentence_polarities=polarities,
            )
        ]
        is_dynamic = False

    extra: EdgeDict = {}
    if cfg.with_conversations:
        _merge(extra, conversation_edges(quotes, speakers, tok, cfg.conversation_dist))
    if cfg.with_quote_mentions:
        _merge(extra, quote_mention_edges(quotes, speakers, characters))
    if cfg.with_relations:
        _merge(extra, relational_edges(sentence_relations, cfg.min_rel_occurrences))
    if extra:
        if not edge_blocks:
            edge_blocks = [{}]
        _merge(edge_blocks[0] if not is_dynamic else edge_blocks[-1], extra)

    return edge_blocks, is_dynamic, quotes, speakers, polarities, sentence_relations


def _paragraph_token_blocks(text: str, tok: Tokenized) -> list[tuple[int, int]]:
    """Char spans of ``\\n\\n``-separated paragraphs -> token-index
    blocks [start, end) (reference ``charbb2tokenbb`` semantics:
    ``renard/utils.py:120-134``)."""
    import bisect

    blocks: list[tuple[int, int]] = []
    pos = 0
    for para in text.split("\n\n"):
        start, end = pos, pos + len(para)
        pos = end + 2
        t0 = bisect.bisect_left(tok.token_starts, start)
        t1 = bisect.bisect_right(tok.token_starts, end - 1) if end > start else t0
        blocks.append((t0, t1))
    return blocks


def _merge(into: EdgeDict, other: EdgeDict) -> None:
    for k, (w, p) in other.items():
        if k not in into:
            into[k] = [0.0, 0.0]
        into[k][0] += w
        into[k][1] += p


def emit_rows(res: DocResult, url: str, include_url: bool = False) -> dict[str, list]:
    """Explode one document's result into columnar edge/alias rows.

    Output columns: subj, pred, obj, weight, polarity, block_id, url.
    Edge rows carry the graph predicates; ``alias_of`` rows link each of
    a character's names to its per-doc key (for the cross-document
    canonicalization shuffle); ``name_count`` rows carry per-name named-
    mention counts (for the global most-frequent-name choice).
    """
    subj: list[str] = []
    pred: list[str] = []
    obj: list[str] = []
    weight: list[float] = []
    polarity: list[float] = []
    block_id: list[int] = []

    for bi, edges in enumerate(res.edge_blocks):
        b = bi if res.is_dynamic else -1
        for (s, p, o), (w, pol) in edges.items():
            subj.append(s)
            pred.append(p)
            obj.append(o)
            weight.append(w)
            polarity.append(pol)
            block_id.append(b)

    for c in res.characters:
        key = _char_key(c)
        named_counts: dict[str, int] = {}
        for m in c.mentions:
            if m.surface in c.names:
                named_counts[m.surface] = named_counts.get(m.surface, 0) + 1
        for name in sorted(c.names):
            subj.append(name)
            pred.append(ALIAS_OF)
            obj.append(key)
            weight.append(1.0)
            polarity.append(0.0)
            block_id.append(-1)
            if named_counts.get(name):
                subj.append(name)
                pred.append(NAME_COUNT)
                obj.append("")
                weight.append(float(named_counts[name]))
                polarity.append(0.0)
                block_id.append(-1)

    n = len(subj)
    return {
        "subj": subj,
        "pred": pred,
        "obj": obj,
        "weight": weight,
        "polarity": polarity,
        "block_id": block_id,
        "url": [url] * n if include_url else [""] * n,
    }
