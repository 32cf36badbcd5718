"""Bigram language-model perplexity scoring over the ``documents``
table — the CCNet/KenLM-style quality-filter shape (Wenzek et al.
2020, arXiv:1911.00359), with the n-gram model trained distributively
on the corpus itself.

Model: add-alpha-smoothed bigram LM over lowercase whitespace tokens,

    p(w2 | w1) = (c(w1 w2) + a) / (c1(w1) + a * V)

where ``c1(w)`` counts w as a bigram LEFT context and ``V`` is the
distinct-token vocabulary.  A document's perplexity is
``exp(-mean ln p)`` over its bigram transitions; documents with fewer
than two tokens score null.

Scale shape:

- **train**: one tokenize pass emits per-batch-combined (w1, w2)
  partial counts; a single groupby-sum each for bigrams and contexts.
  Counts are token-vocabulary-bounded (Heaps' law), far below corpus
  size.
- **score, broadcast path**: the count tables ship once via
  ``ray.put``; one pass over the documents computes every transition
  probability batch-locally (packed-key ``index_in`` lookups).
- **score, join path** (past the broadcast budget): emit (doc_id,
  w1\\x1fw2) transition rows, LEFT-join the bigram counts on the packed
  key and the context counts on w1, then one ``groupby(doc_id)`` sums
  the log-probs — fully distributed, nothing model-sized anywhere.

No counterpart in the reference; sibling of ``ops/textstats.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Sum

from .relational import _collect_small
from .textstats import _WS_RE, _read_documents

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

_MODEL_LIMIT = 20_000_000  # bigram-table broadcast budget (rows)
_SEP = "\x1f"


def _tokens(t: str | None) -> list[str]:
    if not t or not t.strip():
        return []
    return [w for w in _WS_RE.split(t.strip().lower()) if w]


def train_bigram_model(docs: Dataset) -> tuple[Dataset, Dataset, int]:
    """(bigram counts ``(key, c)`` with key = w1\\x1fw2, context counts
    ``(w1, c1)``, vocabulary size V)."""

    def partial(batch: pa.Table) -> pa.Table:
        # ONE tokenize pass emits both bigram count partials (kind 'b')
        # and per-batch-distinct unigrams for the vocabulary (kind 'u')
        big: dict[str, int] = {}
        vs: set[str] = set()
        for t in batch.column("text").to_pylist():
            ws = _tokens(t)
            vs.update(ws)
            for a, b in zip(ws, ws[1:]):
                k = a + _SEP + b
                big[k] = big.get(k, 0) + 1
        uni = sorted(vs)
        return pa.table(
            {
                "key": pa.array(list(big.keys()) + uni, pa.string()),
                "c_p": pa.array(
                    list(big.values()) + [1] * len(uni), pa.int64()
                ),
                "kind": pa.array(
                    ["b"] * len(big) + ["u"] * len(uni), pa.string()
                ),
            }
        )

    partials = docs.map_batches(partial, batch_format="pyarrow").materialize()
    bigrams = (
        _hagg_auto(partials.filter(expr="kind == 'b'")
        .select_columns(["key", "c_p"]), "key", [('c_p', 'sum', 'c')])
        .materialize()
    )

    def ctx(batch: pa.Table) -> pa.Table:
        w1 = pc.list_element(
            pc.split_pattern(batch.column("key"), _SEP, max_splits=1), 0
        )
        t = pa.table({"w1": w1, "c": batch.column("c")})
        g = t.group_by(["w1"]).aggregate([("c", "sum")])
        return g.rename_columns(["w1", "c1_p"])

    contexts = (
        _hagg_auto(bigrams.map_batches(ctx, batch_format="pyarrow"), "w1", [('c1_p', 'sum', 'c1')])
        .materialize()
    )

    V = (
        _hagg_auto(partials.filter(expr="kind == 'u'")
        .select_columns(["key"]), "key", [('', 'count_all', 'count()')])
        .count()
    )
    return bigrams, contexts, V


def perplexity_scores(
    sf_dir: str,
    alpha: float = 0.5,
    *,
    broadcast_limit: int | None = None,
) -> Dataset:
    """(doc_id, n_tokens, ppl) — add-alpha bigram perplexity, rounded
    to 4 digits; null for documents with fewer than two tokens."""
    limit = _MODEL_LIMIT if broadcast_limit is None else broadcast_limit
    docs = _read_documents(sf_dir, ["doc_id", "text"]).materialize()
    bigrams, contexts, V = train_bigram_model(docs)

    if bigrams.count() == 0:
        # degenerate corpus: NO document has two tokens, so there is
        # no model — every doc scores null with its token count (the
        # schema-less empty bigram table would otherwise crash the
        # join path's key reference; surfaced by the all-empty-corpus
        # twin fixture)
        def score_empty(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": batch.column("doc_id"),
                    "n_tokens": pa.array(
                        [
                            len(_tokens(t))
                            for t in batch.column("text").to_pylist()
                        ],
                        pa.int64(),
                    ),
                    "ppl": pa.array(
                        [None] * batch.num_rows, pa.float64()
                    ),
                }
            )

        return docs.map_batches(score_empty, batch_format="pyarrow")

    big_tab = _collect_small(bigrams, limit)
    ctx_tab = _collect_small(contexts, limit) if big_tab is not None else None
    if big_tab is not None and ctx_tab is not None:
        big_ref = ray.put(big_tab.combine_chunks())
        ctx_ref = ray.put(ctx_tab.combine_chunks())

        def score(batch: pa.Table) -> pa.Table:
            bt, ct = ray.get(big_ref), ray.get(ctx_ref)
            ids, keys, w1s, bounds = [], [], [], []
            toks = []
            for did, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            ):
                ws = _tokens(t)
                s = len(keys)
                keys.extend(a + _SEP + b for a, b in zip(ws, ws[1:]))
                w1s.extend(ws[:-1])
                ids.append(did)
                toks.append(len(ws))
                bounds.append((s, len(keys)))
            if keys:
                ki = pc.index_in(
                    pa.array(keys, pa.string()), value_set=bt.column("key")
                )
                cb = np.asarray(
                    pc.fill_null(pc.take(bt.column("c"), ki), 0), dtype=np.int64
                )
                wi = pc.index_in(
                    pa.array(w1s, pa.string()), value_set=ct.column("w1")
                )
                c1 = np.asarray(
                    pc.fill_null(pc.take(ct.column("c1"), wi), 0), dtype=np.int64
                )
                logp = np.log(cb + alpha) - np.log(c1 + alpha * V)
            ppl, ntok = [], []
            for (s, e), m in zip(bounds, toks):
                ntok.append(m)
                if e > s:
                    ppl.append(round(float(np.exp(-logp[s:e].mean())), 4))
                else:
                    ppl.append(None)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_tokens": pa.array(ntok, pa.int64()),
                    "ppl": pa.array(ppl, pa.float64()),
                }
            )

        return docs.map_batches(score, batch_format="pyarrow")

    # join path: transition rows x count tables, one groupby(doc_id)

    def emit(batch: pa.Table) -> pa.Table:
        ids, keys, w1s = [], [], []
        short_ids, short_n = [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            ws = _tokens(t)
            if len(ws) < 2:
                short_ids.append(did)
                short_n.append(len(ws))
                continue
            keys.extend(a + _SEP + b for a, b in zip(ws, ws[1:]))
            w1s.extend(ws[:-1])
            ids.extend([did] * (len(ws) - 1))
        return pa.table(
            {
                "doc_id": pa.array(ids + short_ids, pa.int64()),
                "key": pa.array(keys + [None] * len(short_ids), pa.string()),
                "w1": pa.array(w1s + [None] * len(short_ids), pa.string()),
                "n_tok_first": pa.array(
                    [None] * len(ids) + short_n, pa.int64()
                ),
                "short": pa.array(
                    [False] * len(ids) + [True] * len(short_ids), pa.bool_()
                ),
            }
        )

    # materialized: consumed by BOTH filters below (otherwise the
    # corpus-wide tokenize+emit pass would execute twice)
    trans = docs.map_batches(emit, batch_format="pyarrow").materialize()
    short = trans.filter(expr="short == True")
    real = trans.filter(expr="short == False").drop_columns(
        ["n_tok_first", "short"]
    )

    j1 = hash_join(
        real,
        bigrams.map_batches(
            lambda b: b.rename_columns(["key_", "c"]), batch_format="pyarrow"
        ),
        "key",
        "key_",
        how="left outer",
    )
    j2 = hash_join(
        j1,
        contexts.map_batches(
            lambda b: b.rename_columns(["w1_", "c1"]), batch_format="pyarrow"
        ),
        "w1",
        "w1_",
        how="left outer",
    )

    def logp_rows(batch: pa.Table) -> pa.Table:
        cb = np.asarray(
            pc.fill_null(batch.column("c"), 0), dtype=np.int64
        )
        c1 = np.asarray(
            pc.fill_null(batch.column("c1"), 0), dtype=np.int64
        )
        lp = np.log(cb + alpha) - np.log(c1 + alpha * V)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lp": pa.array(lp),
                "m": pa.array(np.ones(len(lp), dtype=np.int64)),
            }
        )

    scored = (
        _hagg_auto(j2.map_batches(logp_rows, batch_format="pyarrow"), "doc_id", [('lp', 'sum', 'lp_sum'), ('m', 'sum', 'm')])
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "n_tokens": pc.add(b.column("m"), 1),
                    "ppl": pa.array(
                        np.round(
                            np.exp(
                                -np.asarray(b.column("lp_sum"))
                                / np.asarray(b.column("m"))
                            ),
                            4,
                        )
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    short_out = short.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_tokens": b.column("n_tok_first"),
                "ppl": pa.array([None] * b.num_rows, pa.float64()),
            }
        ),
        batch_format="pyarrow",
    )
    return scored.union(short_out)
