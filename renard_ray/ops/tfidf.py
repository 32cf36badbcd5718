"""Corpus TF-IDF: distributed document frequencies + per-document
top-k salient terms.

Two streaming passes over the ``documents`` table:

1. **df**: tokenize per batch (lowercase, whitespace split — the same
   normalization as ``textstats``/its SQL forms), emit one (word, 1)
   row per distinct (doc, word) with a per-batch combine, and reduce
   with a single ``groupby(word)`` — the only shuffle, keyed on short
   tokens.  The resulting df table is vocabulary-bounded (Heaps' law:
   ~millions of distinct tokens at web scale, not corpus-sized).
2. **score**: broadcast the df table once (``ray.put`` + ``index_in``)
   and re-tokenize per batch; every document's term rows exist inside
   its own batch, so the per-document top-k is computed entirely
   batch-locally — no doc-keyed shuffle, no per-doc ``map_groups``.
   Past the broadcast budget (the realistic regime at web scale) the
   fallback joins df onto the term rows and resolves per-doc top-k
   with ``sorted_run_scan`` (``ops/runscan.py``): one sort, block-local top-k
   for interior docs, O(k * #blocks) edge-doc candidates to the
   driver — no per-doc ``map_groups``.

Scoring uses the rational idf variant ``score = tf * N / df`` (no
logarithm): int64 products are exact and the single float division is
IEEE-identical in numpy and DuckDB, so the distributed answer and the
SQL oracle are bit-for-bit comparable.  Ranking ties break on the
term, ascending.

No counterpart in the reference; sibling of ``ops/textstats.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Sum

from .runscan import sorted_run_scan

from .relational import _collect_small
from .textstats import _WS_RE, _read_documents

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

_DF_LIMIT = 20_000_000  # df-table broadcast budget (rows)


def _doc_terms(batch: pa.Table) -> list[tuple[int, dict[str, int]]]:
    out = []
    for did, t in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        if not t or not t.strip():
            continue
        counts: dict[str, int] = {}
        for w in _WS_RE.split(t.strip().lower()):
            if w:
                counts[w] = counts.get(w, 0) + 1
        if counts:
            out.append((did, counts))
    return out


def document_frequencies(docs: Dataset) -> Dataset:
    """(word, df) over the corpus — one shuffle keyed on the token."""

    def partial(batch: pa.Table) -> pa.Table:
        agg: dict[str, int] = {}
        for _did, counts in _doc_terms(batch):
            for w in counts:
                agg[w] = agg.get(w, 0) + 1
        return pa.table(
            {
                "word": pa.array(list(agg.keys()), pa.string()),
                "df_p": pa.array(list(agg.values()), pa.int64()),
            }
        )

    return (
        _hagg_auto(docs.map_batches(partial, batch_format="pyarrow"), "word", [('df_p', 'sum', 'df')])
    )


def tfidf_topk(
    sf_dir: str,
    k: int = 3,
    *,
    broadcast_limit: int | None = None,
) -> "Dataset | pa.Table":
    """Top-k terms per document by ``tf * N / df`` (ties -> term asc):
    (doc_id, word, tf, df, rank, score); an empty table when there
    are no documents."""
    limit = _DF_LIMIT if broadcast_limit is None else broadcast_limit
    docs = _read_documents(sf_dir, ["doc_id", "text"]).materialize()
    n_docs = docs.count()
    if n_docs == 0:
        # the output columns, which no map over empty blocks would build
        return _empty()
    df_ds = document_frequencies(docs)

    df_tab = _collect_small(df_ds, limit)
    if df_tab is not None:
        ref = ray.put(df_tab.combine_chunks())

        def score(batch: pa.Table) -> pa.Table:
            dft = ray.get(ref)
            ids, words, tfs = [], [], []
            bounds = []  # (start, end) per doc in the flat arrays
            for did, counts in _doc_terms(batch):
                s = len(words)
                for w, c in sorted(counts.items()):
                    ids.append(did)
                    words.append(w)
                    tfs.append(c)
                bounds.append((s, len(words)))
            if not words:
                return _empty()
            word_arr = pa.array(words, pa.string())
            idx = pc.index_in(word_arr, value_set=dft.column("word"))
            dfs = np.asarray(pc.take(dft.column("df"), idx), dtype=np.int64)
            tf_arr = np.asarray(tfs, dtype=np.int64)
            scores = (tf_arr * np.int64(n_docs)).astype(np.float64) / dfs
            out_i: list[int] = []
            ranks: list[int] = []
            for s, e in bounds:
                # words within a doc are sorted asc -> stable argsort on
                # -score yields (score desc, word asc)
                order = np.argsort(-scores[s:e], kind="stable")[:k]
                out_i.extend(s + order)
                ranks.extend(range(1, len(order) + 1))
            sel = np.asarray(out_i, dtype=np.int64)
            return pa.table(
                {
                    "doc_id": pa.array(np.asarray(ids, dtype=np.int64)[sel]),
                    "word": word_arr.take(pa.array(sel)),
                    "tf": pa.array(tf_arr[sel]),
                    "df": pa.array(dfs[sel]),
                    "rank": pa.array(np.asarray(ranks, dtype=np.int64)),
                    "score": pa.array(np.round(scores[sel], 6)),
                }
            )

        return docs.map_batches(score, batch_format="pyarrow")

    # fallback past the broadcast budget (the realistic regime at web
    # scale — Heaps' law outgrows any broadcast): join df onto the term
    # rows, then resolve per-doc top-k with ``sorted_run_scan`` (one
    # sort; interior docs of a block are complete, only the
    # block-EDGE docs' candidate rows — O(k * #blocks) — reach the
    # driver).  No per-doc map_groups.

    def emit_tf(batch: pa.Table) -> pa.Table:
        ids, words, tfs = [], [], []
        for did, counts in _doc_terms(batch):
            for w, c in sorted(counts.items()):
                ids.append(did)
                words.append(w)
                tfs.append(c)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "word": pa.array(words, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    tf_rows = docs.map_batches(emit_tf, batch_format="pyarrow")
    df_r = df_ds.map_batches(
        lambda b: b.rename_columns(["word_", "df"]), batch_format="pyarrow"
    )
    joined = hash_join(tf_rows, df_r, "word", "word_")

    def add_score(batch: pa.Table) -> pa.Table:
        tf_arr = np.asarray(batch.column("tf"), dtype=np.int64)
        dfs = np.asarray(batch.column("df"), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "word": batch.column("word"),
                "tf": batch.column("tf"),
                "df": batch.column("df"),
                "score": pa.array(
                    (tf_arr * np.int64(n_docs)).astype(np.float64) / dfs
                ),
            }
        )

    def scan(t: pa.Table):
        df_blk = t.to_pandas()
        pos = df_blk.groupby("doc_id", sort=False).cumcount()
        top = df_blk[pos < k].copy()
        top["rank"] = pos[pos < k] + 1
        edge = top["doc_id"].isin([df_blk["doc_id"].iloc[0], df_blk["doc_id"].iloc[-1]])
        # interior docs are complete; the edge docs' candidates (at
        # most 2k rows) are the summary
        return _rows(top[~edge]), top[edge]

    # O(k * #blocks) edge-doc candidates, in block order and so in
    # (doc_id, score desc, word) order.  Each edge doc's resolved rows
    # ride to the first block holding it.
    def stitch(edges: list) -> list:
        for i, e in enumerate(edges):
            e["blk"] = i
        pend = pd.concat(edges, ignore_index=True)
        pos = pend.groupby("doc_id", sort=False).cumcount()
        pend = pend[pos < k].copy()
        pend["rank"] = (pos[pos < k] + 1).astype("int64")
        home = pend.groupby("doc_id")["blk"].transform("min")
        return [_rows(pend[home == i]) for i in range(len(edges))]

    def finish(part, resolved) -> pa.Table:
        if part is None:
            return _empty()
        return _round_score(pa.concat_tables([part, resolved]))

    return sorted_run_scan(
        joined.map_batches(add_score, batch_format="pyarrow"),
        ["doc_id", "score", "word"],
        scan,
        stitch,
        finish,
        descending=[False, True, False],
    )


def _rows(top) -> pa.Table:
    """The output columns of a pandas frame of ranked term rows."""
    return pa.table(
        {
            "doc_id": pa.array(top["doc_id"].astype("int64"), pa.int64()),
            "word": pa.array(top["word"], pa.string()),
            "tf": pa.array(top["tf"].astype("int64"), pa.int64()),
            "df": pa.array(top["df"].astype("int64"), pa.int64()),
            "rank": pa.array(top["rank"].astype("int64"), pa.int64()),
            "score": pa.array(top["score"].astype("float64"), pa.float64()),
        }
    )


def _round_score(batch: pa.Table) -> pa.Table:
    idx = batch.column_names.index("score")
    return batch.set_column(
        idx, "score",
        pa.array(np.round(np.asarray(batch.column("score"), dtype=np.float64), 6)),
    )


def _empty() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "word": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )
