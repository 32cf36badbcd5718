"""HyperANF-style neighborhood function and effective diameter
(Boldi, Rosa & Vigna, "HyperANF: approximating the neighbourhood
function of very large graphs on a budget", WWW 2011 — public
reference; HLL estimator per Flajolet et al. 2007).

N(t) = sum over nodes of |ball(node, t)| — the number of (ordered)
pairs within distance t, self included.  Exact all-pairs BFS is
O(V·E); HyperANF keeps ONE HyperLogLog counter per node and replaces
each BFS round with "merge my neighbours' counters into mine", so the
whole computation is a handful of linear passes per round.

Ray-Data-native representation: a node's HLL is SPARSE ROWS
``(node, reg, rank)`` — one row per non-zero register — so the merge
is a built-in ``groupby(node, reg).max(rank)``: no binary blobs, no
custom aggregate, no per-row Python, and max-merge of ints is
deterministic under any partitioning.  Per round:

- fan the current rows over the adjacency (size-adaptive broadcast /
  hash join — the same plan family as BFS/centrality), union the
  node's own rows, ONE ``groupby(node, reg).max`` — rows moved are
  (|V|+|E|) x (non-zero registers ≤ 2^p);
- estimate: ``groupby(node)`` of two built-in aggregates (exact-int
  power-of-two sums + register count), then the HLL alpha/linear-
  counting formula vectorized per batch, per-node estimates rounded
  to fixed-point int64 and summed exactly — N(t) is deterministic;
- stop at the register fixpoint, detected EXACTLY from two monotone
  scalars (row count and total rank sum: max-merge can only grow
  them; both static => no register changed).

Driver state: the N(t) series (one float per round) — never
node-sized.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Sum

from renard_ray.ops.graphstats import _distinct_adjacency
from renard_ray.ops.walks import _node_id_u64

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

__all__ = ["neighborhood_function_dataset"]


def neighborhood_function_dataset(
    triples: Dataset,
    p: int = 8,
    max_hops: int = 16,
    broadcast_limit: int | None = None,
    eff_quantile: float = 0.9,
) -> Dataset:
    """Neighborhood function N(t) of the undirected KG plus the
    effective diameter (smallest t with N(t) >= quantile * N(inf)).

    Output (one row per executed round, sorted by hops):
    (hops, est_pairs, frac_of_final, effective_diameter) — the last
    column is constant, attached to every row like the spectral
    ``lam`` columns so downstream use needs no side channel.

    ``p``: HLL precision (2^p registers per node; relative error
    ~1.04/sqrt(2^p) — 6.5% at p=8).  Registers are capped so the
    exact-int estimator sums fit int64 at any p <= 12."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import _collect_small

    assert 4 <= p <= 12, "p outside the supported precision range"
    m = 1 << p
    scale_shift = 61 - p  # (m * 2^shift) <= 2^61: per-node sums fit
    alpha = 0.7213 / (1 + 1.079 / m)
    limit = 5_000_000 if broadcast_limit is None else broadcast_limit

    out_schema = pa.schema(
        [
            ("hops", pa.int64()),
            ("est_pairs", pa.float64()),
            ("frac_of_final", pa.float64()),
            ("effective_diameter", pa.int64()),
        ]
    )

    edges = _distinct_adjacency(triples, directed=False)
    if edges is None:
        return ray.data.from_arrow(out_schema.empty_table())
    edges = edges.materialize()

    # ---- round 0: each node's own hash as one sparse register row ----
    def init_regs(batch: pa.Table) -> pa.Table:
        names = batch.column("src").to_pylist()
        h = np.array([_node_id_u64(n) for n in names], dtype=np.uint64)
        reg = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = h << np.uint64(p)
        # rank = leading zeros of the remaining bits + 1
        rank = np.ones(len(h), dtype=np.int64)
        live = np.ones(len(h), dtype=bool)
        mask = np.uint64(1) << np.uint64(63)
        rem = rest.copy()
        out = np.full(len(h), 64 - p + 1, dtype=np.int64)
        for _ in range(64 - p):
            top = (rem & mask) != 0
            done = live & top
            out[done] = rank[done]
            live &= ~top
            if not live.any():
                break
            rem = rem << np.uint64(1)
            rank += 1
        return pa.table(
            {
                "node": batch.column("src"),
                "reg": pa.array(reg, pa.int64()),
                "rank": pa.array(out, pa.int64()),
            }
        )

    R = (
        _hagg_auto(edges, "src", [('', 'count_all', '_n')])
        .map_batches(init_regs, batch_format="pyarrow")
        .materialize()
    )

    small_edges = _collect_small(edges, limit)
    edges_ref = (
        ray.put(small_edges.combine_chunks())
        if small_edges is not None
        else None
    )
    def fan_out(rds: Dataset) -> Dataset:
        if edges_ref is not None:

            def bcast(batch: pa.Table) -> pa.Table:
                et = ray.get(edges_ref)
                j = batch.join(
                    et, keys=["node"], right_keys=["src"], join_type="inner"
                )
                return pa.table(
                    {
                        "node": j.column("dst"),
                        "reg": j.column("reg"),
                        "rank": j.column("rank"),
                    }
                )

            return rds.map_batches(bcast, batch_format="pyarrow")
        rds = rds.materialize()
        if rds.schema() is None:
            return ray.data.from_arrow(
                pa.table(
                    {"node": pa.array([], pa.string()),
                     "reg": pa.array([], pa.int64()),
                     "rank": pa.array([], pa.int64())}
                )
            )
        return hash_join(rds, edges, "node", "src").map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("dst"),
                    "reg": b.column("reg"),
                    "rank": b.column("rank"),
                }
            ),
            batch_format="pyarrow",
        )

    def estimate(rds: Dataset) -> tuple[float, int, int]:
        """(N_t, total rows, total rank sum) — the last two are the
        exact fixpoint-detection scalars."""

        def pw(batch: pa.Table) -> pa.Table:
            r = np.asarray(batch.column("rank"), dtype=np.int64)
            v = np.where(
                r <= scale_shift, np.int64(1) << np.maximum(scale_shift - r, 0), 0
            )
            return pa.table(
                {
                    "node": batch.column("node"),
                    "pw": pa.array(v, pa.int64()),
                    "rank": batch.column("rank"),
                }
            )

        per_node = (
            _hagg_auto(rds.map_batches(pw, batch_format="pyarrow"), "node", [('pw', 'sum', 'pwsum'), ('', 'count_all', 'nreg'), ('rank', 'sum', 'ranksum')])
        )

        def node_est(batch: pa.Table) -> pa.Table:
            pws = np.asarray(batch.column("pwsum"), dtype=np.float64)
            nreg = np.asarray(batch.column("nreg"), dtype=np.float64)
            rs = np.asarray(batch.column("ranksum"), dtype=np.int64)
            s = np.float64(1 << scale_shift)
            sum2neg = ((m - nreg) * s + pws) / s
            est = alpha * m * m / sum2neg
            zeros = m - nreg
            lin = np.where(
                zeros > 0, m * np.log(np.maximum(m / np.maximum(zeros, 1e-12), 1e-300)), est
            )
            est = np.where((est <= 2.5 * m) & (zeros > 0), lin, est)
            return pa.table(
                {
                    "efp": pa.array(
                        np.rint(est * 1000.0).astype(np.int64), pa.int64()
                    ),
                    "nrows": batch.column("nreg"),
                    "rsum": pa.array(rs, pa.int64()),
                }
            )

        tot = (
            per_node.map_batches(node_est, batch_format="pyarrow")
            .aggregate(
                Sum("efp", alias_name="efp"),
                Sum("nrows", alias_name="nrows"),
                Sum("rsum", alias_name="rsum"),
            )
        )
        return (
            float(tot["efp"]) / 1000.0,
            int(tot["nrows"]),
            int(tot["rsum"]),
        )

    series: list[float] = []
    n0, rows0, rsum0 = estimate(R)
    series.append(n0)
    for _t in range(1, max_hops + 1):
        merged = (
            _hagg_auto(fan_out(R)
            .union(R), ["node", "reg"], [('rank', 'max', 'rank')])
            .select_columns(["node", "reg", "rank"])
            .materialize()
        )
        nt, rows_t, rsum_t = estimate(merged)
        R = merged
        if rows_t == rows0 and rsum_t == rsum0:
            break  # exact register fixpoint: every ball is complete
        series.append(nt)
        rows0, rsum0 = rows_t, rsum_t
    else:
        import logging

        logging.getLogger(__name__).warning(
            "neighborhood_function_dataset: registers not at fixpoint "
            "after max_hops=%d — N(t) and the effective diameter are "
            "truncated estimates",
            max_hops,
        )

    final = series[-1]
    eff = next(
        (t for t, v in enumerate(series) if v >= eff_quantile * final),
        len(series) - 1,
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "hops": pa.array(list(range(len(series))), pa.int64()),
                "est_pairs": pa.array(
                    [round(v, 3) for v in series], pa.float64()
                ),
                "frac_of_final": pa.array(
                    [round(v / final, 6) if final > 0 else 0.0 for v in series],
                    pa.float64(),
                ),
                "effective_diameter": pa.array(
                    [eff] * len(series), pa.int64()
                ),
            }
        )
    )
