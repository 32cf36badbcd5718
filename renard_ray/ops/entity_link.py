"""Entity linking: surface mentions -> knowledge-base entities.

The north rule's KG-construction chain is "triple extraction, entity
linking, canonicalization, graph materialize".  Canonicalization
(``pipelines/kg.py``) unifies names WITHIN the processed corpus; this
stage links NEW surface mentions against an existing KB — the lookup a
growing 100 TB crawl needs for every increment after the first.

Design (mirrors the canonicalization scale argument):
- the KB is vocabulary-sized (canonical entities + alias table), so it
  broadcasts once via ``ray.put`` as sorted parallel arrays;
- linking is a chain of per-batch passes, cheapest first, each only
  touching the residual unmatched rows:
    1. exact alias match   — vectorized ``pc.index_in`` (C++);
    2. case/space-normalized match — vectorized over a normalized key
       table built once per KB;
    3. hypocorism + token-subset match (Lizzy -> Elizabeth Bennet) —
       Python, but only for the residual (typically a tiny fraction);
- output: (mention, kb_id, canonical, method) with method in
  {"exact", "normalized", "hypocorism", "token", null}.

The KB itself can be built from a KG run's alias/name-count rows
(``kb_from_stage_rows``) — the bootstrap path — or supplied.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

_WS = re.compile(r"\s+")


def _norm(s: str) -> str:
    return _WS.sub(" ", s.strip().lower())


class KnowledgeBase:
    """In-memory KB: kb_id -> canonical name + alias set.  Bounded by
    the entity vocabulary (the same size class the canonicalization
    broadcast already assumes); serialized once into the object store."""

    def __init__(self, entities: list[tuple[str, list[str]]]):
        # entities: [(canonical, [aliases...])], kb_id = position
        self.canonicals: list[str] = []
        self.alias2id: dict[str, int] = {}
        self.norm2id: dict[str, int] = {}
        for canonical, aliases in entities:
            kb_id = len(self.canonicals)
            self.canonicals.append(canonical)
            for a in [canonical, *aliases]:
                self.alias2id.setdefault(a, kb_id)
                self.norm2id.setdefault(_norm(a), kb_id)

    def sorted_alias_arrays(self) -> tuple[pa.Array, pa.Array]:
        items = sorted(self.alias2id.items())
        return (
            pa.array([k for k, _ in items], pa.string()),
            pa.array([v for _, v in items], pa.int64()),
        )

    def sorted_norm_arrays(self) -> tuple[pa.Array, pa.Array]:
        items = sorted(self.norm2id.items())
        return (
            pa.array([k for k, _ in items], pa.string()),
            pa.array([v for _, v in items], pa.int64()),
        )


def kb_from_stage_rows(stage_rows: Dataset) -> KnowledgeBase:
    """Bootstrap a KB from a KG run: canonical display names (the
    driver canonicalization result) with every observed name variant
    as an alias."""
    from renard_ray.pipelines.kg import _driver_alias_summary, _driver_cc_and_names

    pairs, counts = _driver_alias_summary(stage_rows)
    name2canon = _driver_cc_and_names(pairs, counts)
    groups: dict[str, list[str]] = {}
    for name, canon in name2canon.items():
        groups.setdefault(canon, [])
        if name != canon:
            groups[canon].append(name)
    return KnowledgeBase(sorted((c, sorted(a)) for c, a in groups.items()))


def link_mentions(
    mentions: Dataset,
    kb: KnowledgeBase,
    column: str = "mention",
    lang: str = "eng",
) -> Dataset:
    """Link a mention column against the KB.  Output adds
    (kb_id int64 nullable, canonical string nullable, method string
    nullable) columns."""
    from renard_ray.resources.hypocorisms import shared_gazetteer

    alias_k, alias_v = kb.sorted_alias_arrays()
    norm_k, norm_v = kb.sorted_norm_arrays()
    canon_arr = pa.array(kb.canonicals, pa.string())
    # token index for the fallback passes: last-resort Python matching
    # only ever sees the residual, so a plain dict is fine
    token_index: dict[str, list[int]] = {}
    for kb_id, canonical in enumerate(kb.canonicals):
        for tok in _norm(canonical).split():
            token_index.setdefault(tok, []).append(kb_id)
    ref = ray.put((alias_k, alias_v, norm_k, norm_v, canon_arr, token_index))

    def link(batch: pa.Table) -> pa.Table:
        ak, av, nk, nv, canon, tidx = ray.get(ref)
        gaz = shared_gazetteer(lang)
        col = batch.column(column).combine_chunks()

        # pass 1: exact alias (vectorized)
        ids = pc.take(av, pc.index_in(col, value_set=ak))
        method = pc.if_else(
            pc.is_valid(ids), pa.scalar("exact"), pa.scalar(None, pa.string())
        )

        # pass 2: normalized (vectorized, residual only — but index_in
        # over the full column is cheap; merge with if_else)
        normed = pc.replace_substring_regex(
            pc.utf8_lower(pc.utf8_trim_whitespace(col)), r"\s+", " "
        )
        n_ids = pc.take(nv, pc.index_in(normed, value_set=nk))
        use2 = pc.and_(pc.is_null(ids), pc.is_valid(n_ids))
        ids = pc.if_else(use2, n_ids, ids)
        method = pc.if_else(use2, pa.scalar("normalized"), method)

        # pass 3: hypocorism + token subset (Python residual).  The KB
        # views are hoisted ONCE per batch — converting the canonical
        # array per residual mention would be O(residual x |KB|)
        ids_list = ids.to_pylist()
        meth_list = method.to_pylist()
        canon_list: list[str] | None = None
        first_toks: list[str] | None = None
        for i, (kb_id, m) in enumerate(zip(ids_list, meth_list)):
            if kb_id is not None:
                continue
            mention = col[i].as_py()
            if not mention:
                continue
            if canon_list is None:
                canon_list = canon.to_pylist()
                first_toks = [
                    (_norm(cname).split()[0] if cname else "") for cname in canon_list
                ]
            toks = _norm(mention).split()
            cands: set[int] = set()
            for t in toks:
                cands.update(tidx.get(t, ()))
            # token-subset: every mention token appears in the canonical
            best = None
            for c in sorted(cands):
                ctoks = set(_norm(canon_list[c]).split())
                if set(toks) <= ctoks:
                    best = (c, "token")
                    break
            if best is None and len(toks) == 1:
                # hypocorism: nickname of any first token of a canonical
                # (first tokens are lower-cased by _norm)
                related = gaz.related_names(toks[0])
                for c, first in enumerate(first_toks):
                    if first in related:
                        best = (c, "hypocorism")
                        break
            if best is not None:
                ids_list[i] = best[0]
                meth_list[i] = best[1]

        ids_arr = pa.array(ids_list, pa.int64())
        canon_out = pc.take(canon, ids_arr)
        return (
            batch.append_column("kb_id", ids_arr)
            .append_column("canonical", canon_out)
            .append_column("method", pa.array(meth_list, pa.string()))
        )

    return mentions.map_batches(link, batch_format="pyarrow")
