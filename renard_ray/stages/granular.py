"""Granular (non-fused) stage pipeline with explicit Arrow columns.

The fused ``doc_kernel_batch`` is the production path; this module
exposes the same chain as SEPARATE ``map_batches`` stages whose
intermediate state lives in typed Arrow columns — the SURVEY §1.3
schema mapping made concrete, and the composition surface for users
who swap or extend individual steps (reference analog: assembling a ``Pipeline`` from
``PipelineStep`` objects, ``renard/pipeline/core.py:583-606``):

    tokens:      token_starts/token_ends list<int32> (offsets into
                 ``text`` — strings are never materialized twice),
                 sent_bounds list<int32>
    entities:    list<struct<start,end int32, tag string>>
    corefs:      list<list<struct<start,end int32>>>
    characters:  list<struct<names list<string>, gender int8,
                 mentions list<struct<start,end int32, surface string>>>>

Each stage declares needs/produces through ``stages.core.Stage`` so
``check_valid`` guards composition.  Every step calls the same
per-document function the fused kernel runs (``textproc.document``:
``doc_corefs``, ``doc_characters``, ``build_edge_blocks``, ``emit_rows``),
and the terminal stage emits the same edge-row schema, so the
distributed tail (canonicalize + aggregate) is shared.
"""

from __future__ import annotations

import pyarrow as pa

from renard_ray.stages.core import Stage
from renard_ray.stages.doc_stages import EDGES_SCHEMA, batch_langs, edges_table
from renard_ray.textproc.document import (
    DocConfig,
    DocResult,
    doc_characters,
    doc_corefs,
    emit_rows,
)
from renard_ray.textproc.ner import Entity, extract_entities
from renard_ray.textproc.tokenize import Tokenized, tokenize

_ENT_T = pa.list_(
    pa.struct([("start", pa.int32()), ("end", pa.int32()), ("tag", pa.string())])
)
_SPAN_T = pa.struct([("start", pa.int32()), ("end", pa.int32())])
_COREF_T = pa.list_(pa.list_(_SPAN_T))
_MENTION_T = pa.struct(
    [("start", pa.int32()), ("end", pa.int32()), ("surface", pa.string())]
)
_CHAR_T = pa.list_(
    pa.struct(
        [
            ("names", pa.list_(pa.string())),
            ("gender", pa.int8()),
            ("mentions", pa.list_(_MENTION_T)),
        ]
    )
)


def tokenize_batch(batch: pa.Table) -> pa.Table:
    starts, ends, bounds = [], [], []
    for t in batch.column("text").to_pylist():
        tok = tokenize(t or "")
        starts.append(tok.token_starts)
        ends.append(tok.token_ends)
        bounds.append(tok.sent_bounds)
    return (
        batch.append_column("token_starts", pa.array(starts, pa.list_(pa.int32())))
        .append_column("token_ends", pa.array(ends, pa.list_(pa.int32())))
        .append_column("sent_bounds", pa.array(bounds, pa.list_(pa.int32())))
    )


def _row_tokens(text: str, starts: list[int], ends: list[int]) -> list[str]:
    return [text[s:e] for s, e in zip(starts, ends)]


def ner_batch(batch: pa.Table) -> pa.Table:
    out = []
    for text, starts, ends, bounds, lang in zip(
        batch.column("text").to_pylist(),
        batch.column("token_starts").to_pylist(),
        batch.column("token_ends").to_pylist(),
        batch.column("sent_bounds").to_pylist(),
        batch_langs(batch),
    ):
        tokens = _row_tokens(text or "", starts, ends)
        ents = extract_entities(tokens, bounds, lang)
        out.append([{"start": e.start, "end": e.end, "tag": e.tag} for e in ents])
    return batch.append_column("entities", pa.array(out, _ENT_T))


def coref_batch(batch: pa.Table, cfg: DocConfig | None = None) -> pa.Table:
    cfg = cfg or DocConfig()
    out = []
    for text, starts, ends, ents, lang in zip(
        batch.column("text").to_pylist(),
        batch.column("token_starts").to_pylist(),
        batch.column("token_ends").to_pylist(),
        batch.column("entities").to_pylist(),
        batch_langs(batch),
    ):
        tokens = _row_tokens(text or "", starts, ends)
        entities = [Entity(e["start"], e["end"], e["tag"]) for e in ents]
        chains = doc_corefs(tokens, entities, cfg, lang)
        out.append([[{"start": s, "end": e} for s, e in ch] for ch in chains])
    return batch.append_column("corefs", pa.array(out, _COREF_T))


def unify_batch(batch: pa.Table, cfg: DocConfig | None = None) -> pa.Table:
    cfg = cfg or DocConfig()
    out = []
    for text, starts, ends, ents, chains, lang in zip(
        batch.column("text").to_pylist(),
        batch.column("token_starts").to_pylist(),
        batch.column("token_ends").to_pylist(),
        batch.column("entities").to_pylist(),
        batch.column("corefs").to_pylist(),
        batch_langs(batch),
    ):
        tokens = _row_tokens(text or "", starts, ends)
        entities = [Entity(e["start"], e["end"], e["tag"]) for e in ents]
        corefs = [[(m["start"], m["end"]) for m in ch] for ch in chains]
        chars = doc_characters(tokens, entities, corefs, cfg, lang)
        out.append(
            [
                {
                    "names": sorted(c.names),
                    "gender": int(c.gender),
                    "mentions": [
                        {"start": m.start, "end": m.end, "surface": m.surface}
                        for m in c.mentions
                    ],
                }
                for c in chars
            ]
        )
    return batch.append_column("characters", pa.array(out, _CHAR_T))


def edges_batch(batch: pa.Table, cfg: DocConfig | None = None) -> pa.Table:
    """Terminal stage: per-doc edges + alias/name-count rows in the
    shared stage-row schema.  Edge extraction goes through
    ``document.build_edge_blocks`` — the SAME config-driven code the
    fused kernel runs, so every DocConfig knob (sentiment,
    conversations, relations, dynamic windows, paragraphs) behaves
    identically on the granular path."""
    from renard_ray.textproc.document import build_edge_blocks
    from renard_ray.textproc.unify import Character, Mention
    from renard_ray.resources.lexicons import Gender

    cfg = cfg or DocConfig()
    out: dict[str, list] = {name: [] for name in EDGES_SCHEMA.names}
    for url, text, starts, ends, bounds, chars in zip(
        batch.column("url").to_pylist(),
        batch.column("text").to_pylist(),
        batch.column("token_starts").to_pylist(),
        batch.column("token_ends").to_pylist(),
        batch.column("sent_bounds").to_pylist(),
        batch.column("characters").to_pylist(),
    ):
        tok = Tokenized(list(starts), list(ends), list(bounds))
        characters = [
            Character(
                frozenset(c["names"]),
                [Mention(m["start"], m["end"], m["surface"]) for m in c["mentions"]],
                Gender(c["gender"]),
            )
            for c in chars
        ]
        tokens = _row_tokens(text or "", starts, ends)
        edge_blocks, is_dynamic, *_ = build_edge_blocks(
            text or "", tok, tokens, characters, cfg
        )
        res = DocResult(
            tok=tok,
            tokens=[],
            entities=[],
            corefs=[],
            characters=characters,
            edge_blocks=edge_blocks,
            is_dynamic=is_dynamic,
        )
        rows = emit_rows(res, url, include_url=cfg.emit_url)
        for k in out:
            out[k].extend(rows[k])
    return edges_table(out)


def granular_stages(cfg: DocConfig | None = None) -> list[Stage]:
    """The per-step chain parameterized by DocConfig — the same knobs
    the fused kernel honors, threaded to each stage via fn_kwargs."""
    cfg = cfg or DocConfig()
    return [
        Stage(
            "tokenize",
            tokenize_batch,
            needs=frozenset({"text"}),
            produces=frozenset({"token_starts", "token_ends", "sent_bounds"}),
        ),
        Stage(
            "ner",
            ner_batch,
            needs=frozenset({"text", "token_starts", "token_ends", "sent_bounds"}),
            optional_needs=frozenset({"lang"}),
            produces=frozenset({"entities"}),
        ),
        Stage(
            "coref",
            coref_batch,
            needs=frozenset({"text", "token_starts", "token_ends", "entities"}),
            optional_needs=frozenset({"lang"}),
            produces=frozenset({"corefs"}),
            fn_kwargs={"cfg": cfg},
        ),
        Stage(
            "unify",
            unify_batch,
            needs=frozenset({"text", "token_starts", "token_ends", "entities", "corefs"}),
            optional_needs=frozenset({"lang"}),
            produces=frozenset({"characters"}),
            fn_kwargs={"cfg": cfg},
        ),
        Stage(
            "edges",
            edges_batch,
            needs=frozenset(
                {"url", "text", "token_starts", "token_ends", "sent_bounds", "characters"}
            ),
            produces=frozenset(
                {"subj", "pred", "obj", "weight", "polarity", "block_id"}
            ),
            removes=frozenset(
                {
                    "url", "warc_ts", "text", "lang", "text_ok", "token_starts",
                    "token_ends", "sent_bounds", "entities", "corefs", "characters",
                }
            ),
            fn_kwargs={"cfg": cfg},
        ),
    ]


# default-config chain (back-compat name)
GRANULAR_STAGES: list[Stage] = granular_stages()


def granular_stage_rows(pages, cfg: DocConfig | None = None):
    """pages Dataset -> stage-row Dataset through the granular chain
    (validated composition; the fused kernel gives identical rows)."""
    from renard_ray.stages.core import run_stages

    ds = pages.filter(expr="lang == 'eng'")
    return run_stages(ds, granular_stages(cfg))
