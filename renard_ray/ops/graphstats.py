"""Analytics over the CONSTRUCTED knowledge graph — distributed.

The aggregated triple table of a 100 TB corpus is 10^8-10^9 rows, so
these never materialize it on the driver:

- ``degree_dataset`` / ``top_degree_dataset``: one edge->endpoint
  fan-out with per-batch partial aggregation, then a single
  ``groupby(node)`` — the degree shuffle carries (node, weight)
  pairs only.
- ``pagerank_dataset``: power iteration on the EDGE LIST (the public
  edge-centric PageRank formulation).  Per iteration: broadcast the
  rank vector (bounded by the canonical-entity vocabulary — the same
  broadcast-limit argument as ``pipelines.kg`` canonicalization), one
  streaming pass over the edges with per-batch combine, tiny driver
  merge of the per-node contributions.  Edges stream every iteration;
  nothing edge-sized ever lands on the driver.

``degree_table`` / ``pagerank`` (pandas) remain as the small-graph
ORACLES used by the tests; production queries use the Dataset forms.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Min, Sum

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

_EDGE_COLS = ["subj", "obj", "weight"]


def degree_dataset(triples: Dataset) -> Dataset:
    """Weighted degree per node: (node, weighted_degree, n_edges).
    Pure shuffle-side aggregation; no driver materialization."""

    def endpoints(batch: pa.Table) -> pa.Table:
        both = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("subj").combine_chunks(),
                        batch.column("obj").combine_chunks(),
                    ]
                ),
                "weight": pa.concat_arrays(
                    [
                        batch.column("weight").combine_chunks(),
                        batch.column("weight").combine_chunks(),
                    ]
                ),
            }
        )
        # per-batch combine before the shuffle (hub nodes repeat a lot)
        g = both.group_by(["node"]).aggregate([("weight", "sum"), ("node", "count")])
        return g.select(["node", "weight_sum", "node_count"]).rename_columns(
            ["node", "weight", "n"]
        )

    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        triples.map_batches(endpoints, batch_format="pyarrow", batch_size=None),
        "node",
        [("weight", "sum", "weighted_degree"), ("n", "sum", "n_edges")],
    )


def top_degree_dataset(triples: Dataset, k: int = 25) -> Dataset:
    """Top-k nodes by weighted degree (degree desc, node asc)."""
    return (
        degree_dataset(triples)
        .sort(["weighted_degree", "node"], descending=[True, False])
        .limit(k)
    )


_PR_SCALE = 10**17  # contribution fixed-point scale; total mass ≈ 1 → sum ≤ 1e17 < int64
_KATZ_SCALE = 10**12  # katz acc ~ x·weighted_degree, not mass-conserving


def _collect_indexed_edges(edges: Dataset, nodes_arr: pa.Array):
    """Collect the (small) edge Dataset onto the driver as index-encoded
    numpy arrays (si, oi, w) against the sorted node vocabulary, with
    the accumulation order CANONICALIZED by one (si, oi, w) lexsort:
    ``np.add.at`` sums in edge-row order, so without the sort the float
    result (at ~1e-16) — and, exactly at rounding boundaries, the
    round(8) output — would depend on how blocks happened to concat.
    Layout independence is the house determinism convention; the
    driver-merge iteration paths lexsort per iteration for the same
    reason.  Shared by the pagerank / HITS local fast paths."""
    import pyarrow.compute as pc

    et = pa.concat_tables(
        [ray.get(r) for r in edges.to_arrow_refs()]
    ).combine_chunks()
    si = pc.index_in(
        et.column("subj").combine_chunks(), value_set=nodes_arr
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    oi = pc.index_in(
        et.column("obj").combine_chunks(), value_set=nodes_arr
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    w = et.column("weight").to_numpy(zero_copy_only=False).astype(np.float64)
    eo = np.lexsort((w, oi, si))
    return si[eo], oi[eo], w[eo]


def pagerank_dataset(
    triples: Dataset,
    damping: float = 0.85,
    iters: int = 30,
    k: int | None = None,
    broadcast_limit: int = 50_000_000,
    driver_merge_limit: int = 1_000_000,
    seeds: "list[str] | None" = None,
    driver_edge_limit: int = 2_000_000,
) -> Dataset:
    """Deterministic power iteration over the undirected weighted edge
    list.

    Three regimes, picked by vocabulary size:

    - ``n <= driver_merge_limit``: rank vector broadcast per iteration;
      contributions merged on the driver with a vectorized
      lexsort + ``np.add.reduceat`` (order-independent, no Python loop).
    - ``n <= broadcast_limit``: rank vector still broadcast, but the
      per-iteration contribution merge is a distributed
      ``groupby(i).sum`` over fixed-point int64 contributions (integer
      sums are order-independent, so the result stays deterministic);
      the driver only ever holds the dense rank vector.
    - past ``broadcast_limit``: join-based rank exchange
      (``_pagerank_join``) — rank state is a Dataset joined to the edge
      list each iteration; nothing node-sized lands on the driver.

    ``seeds`` switches to PERSONALIZED PageRank: the (1 - damping)
    teleport mass restarts uniformly over the seed set instead of over
    all nodes (and the iteration starts from the seed distribution) —
    proximity-to-seeds scoring for entity recommendation.  Seeds absent
    from the graph are dropped with a logged count; all-absent raises.
    The seed set must stay small (it rides every teleport step as a
    broadcast list), which is its semantic regime anyway."""
    import pyarrow.compute as pc

    edges = triples.select_columns(_EDGE_COLS).materialize()

    # out-weight per node (one shuffle)
    deg = degree_dataset(edges).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.string()), "rank": pa.array([], pa.float64())})
        )
    if seeds is not None:
        seeds = _validate_seeds(deg, seeds)
    if n_nodes > broadcast_limit:
        return _pagerank_join(edges, deg, n_nodes, damping, iters, k, seeds)

    # dense driver state, sorted node order (vectorized, no per-row loop)
    dt = pa.concat_tables(
        [
            b
            for b in deg.select_columns(["node", "weighted_degree"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ]
    ).combine_chunks()
    dt = dt.take(pc.sort_indices(dt, sort_keys=[("node", "ascending")]))
    nodes_arr = dt.column("node").combine_chunks()
    ow = dt.column("weighted_degree").to_numpy(zero_copy_only=False).astype(np.float64)
    ow = np.maximum(ow, 1e-300)
    if seeds is None:
        pr = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
        tele = np.full(n_nodes, (1.0 - damping) / n_nodes, dtype=np.float64)
    else:
        sidx = (
            pc.index_in(pa.array(seeds, pa.string()), value_set=nodes_arr)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        pr = np.zeros(n_nodes, dtype=np.float64)
        pr[sidx] = 1.0 / len(seeds)
        tele = np.zeros(n_nodes, dtype=np.float64)
        tele[sidx] = (1.0 - damping) / len(seeds)
    keys_ref = ray.put(nodes_arr)

    def contrib_batch(batch: pa.Table, pr_ref) -> pa.Table:
        import pyarrow.compute as _pc

        keys = ray.get(keys_ref)
        rank, outw = ray.get(pr_ref)
        si = _pc.index_in(
            batch.column("subj").combine_chunks(), value_set=keys
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        oi = _pc.index_in(
            batch.column("obj").combine_chunks(), value_set=keys
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column("weight").to_numpy(zero_copy_only=False).astype(np.float64)
        acc = np.zeros(len(rank), dtype=np.float64)
        # undirected: each edge pushes rank both ways
        np.add.at(acc, oi, rank[si] * w / outw[si])
        np.add.at(acc, si, rank[oi] * w / outw[oi])
        nz = np.nonzero(acc)[0]
        return pa.table(
            {
                "i": pa.array(nz, pa.int64()),
                "c": pa.array(acc[nz], pa.float64()),
            }
        )

    def to_fixed(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "i": batch.column("i"),
                "ci": pa.array(np.rint(c * _PR_SCALE).astype(np.int64), pa.int64()),
            }
        )

    small = n_nodes <= driver_merge_limit
    # size-adaptive fast path (house convention): when the EDGE list
    # also fits the driver budget, the whole power iteration runs as a
    # local numpy loop over the collected (si, oi, w) arrays — the
    # per-iteration distributed contrib pass is ~0.1 s of scheduling
    # x iters for zero parallel benefit on a small graph.  Same
    # arithmetic to float tolerance (summation order differs; the
    # regime tests compare at atol=1e-6 and outputs round to 8
    # decimals).  ``driver_edge_limit=0`` forces the distributed
    # per-iteration pass.
    n_edge_rows = edges.count()
    if small and n_edge_rows <= driver_edge_limit:
        si, oi, w = _collect_indexed_edges(edges, nodes_arr)
        for _ in range(iters):
            acc = np.zeros(n_nodes, dtype=np.float64)
            np.add.at(acc, oi, pr[si] * w / ow[si])
            np.add.at(acc, si, pr[oi] * w / ow[oi])
            pr = tele + damping * acc
        out = pa.table(
            {
                "node": nodes_arr,
                "rank": pa.array(np.round(pr, 8), pa.float64()),
            }
        )
        out = out.take(
            pc.sort_indices(
                out,
                sort_keys=[("rank", "descending"), ("node", "ascending")],
            )
        )
        if k is not None:
            out = out.slice(0, k)
        return ray.data.from_arrow(out)

    for _ in range(iters):
        pr_ref = ray.put((pr, ow))
        contrib = edges.map_batches(
            contrib_batch, fn_kwargs={"pr_ref": pr_ref}, batch_format="pyarrow"
        )
        nxt = tele.copy()
        if small:
            # driver merge: lexsort (i, then c) + reduceat — identical
            # result for any block arrival order
            tabs = [
                b
                for b in contrib.iter_batches(batch_format="pyarrow", batch_size=None)
                if b.num_rows
            ]
            if tabs:
                ct = pa.concat_tables(tabs)
                i_all = ct.column("i").to_numpy(zero_copy_only=False).astype(np.int64)
                c_all = ct.column("c").to_numpy(zero_copy_only=False)
                o = np.lexsort((c_all, i_all))
                i_s, c_s = i_all[o], c_all[o]
                starts = np.flatnonzero(
                    np.concatenate(([True], i_s[1:] != i_s[:-1]))
                )
                nxt[i_s[starts]] += damping * np.add.reduceat(c_s, starts)
        else:
            # distributed merge: fixed-point int sums are associative +
            # commutative exactly, so the shuffle order can't change the
            # result; the driver pull is ≤ n_nodes (i, sum) rows.
            from renard_ray.ops.hashagg import hash_aggregate

            merged = hash_aggregate(
                contrib.map_batches(to_fixed, batch_format="pyarrow"),
                "i",
                [("ci", "sum", "sum(ci)")],
            )
            for b in merged.iter_batches(batch_format="pyarrow", batch_size=None):
                ii = b.column("i").to_numpy(zero_copy_only=False).astype(np.int64)
                ss = b.column("sum(ci)").to_numpy(zero_copy_only=False).astype(np.float64)
                nxt[ii] += damping * (ss / _PR_SCALE)
        pr = nxt

    out = pa.table(
        {
            "node": nodes_arr,
            "rank": pa.array(np.round(pr, 8), pa.float64()),
        }
    )
    out = out.take(
        pc.sort_indices(
            out, sort_keys=[("rank", "descending"), ("node", "ascending")]
        )
    )
    if k is not None:
        out = out.slice(0, k)
    return ray.data.from_arrow(out)


def _validate_seeds(deg: Dataset, seeds: "list[str]") -> "list[str]":
    """Intersect the (small) seed list with the graph's node set —
    one streaming membership filter over the degree table, never a
    node-sized driver pull.  Absent seeds are dropped with a logged
    count; an all-absent seed set raises."""
    import logging

    import pyarrow.compute as pc

    sset = sorted(set(seeds))
    sarr = pa.array(sset, pa.string())

    def member(batch: pa.Table) -> pa.Table:
        m = pc.is_valid(pc.index_in(batch.column("node"), value_set=sarr))
        return batch.filter(m).select(["node"])

    present: set = set()
    for b in deg.map_batches(member, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        present.update(b.column("node").to_pylist())
    kept = [s for s in sset if s in present]
    if len(kept) < len(sset):
        logging.getLogger(__name__).warning(
            "personalized pagerank: dropping %d seed(s) not in the graph",
            len(sset) - len(kept),
        )
    if not kept:
        raise ValueError("personalized pagerank: no seed present in the graph")
    return kept


def _pagerank_join(
    edges: Dataset,
    deg: Dataset,
    n_nodes: int,
    damping: float,
    iters: int,
    k: int | None,
    seeds: "list[str] | None" = None,
) -> Dataset:
    """Join-based rank exchange for vocabularies past the broadcast
    limit (10^8-10^9 entities).  Rank state lives in a (node, rank)
    Dataset; each iteration is one hash join (edges ⋈ ranks on src) and
    one ``groupby(dst).sum`` over fixed-point contributions.  Per-EDGE
    fixed-point rounding makes every contribution a pure function of the
    previous ranks — block boundaries can't perturb the result — and
    int64 sums are exactly associative, so the output is deterministic
    across runs and partitionings."""
    import pyarrow.compute as pc

    def both_dirs(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        w = batch.column("weight").combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([s, o]),
                "dst": pa.concat_arrays([o, s]),
                "w": pa.concat_arrays([w, w]),
            }
        )

    def rename_deg(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "out_w": pc.max_element_wise(
                    pc.cast(batch.column("weighted_degree"), pa.float64()), 1e-300
                ),
            }
        )

    ow = deg.map_batches(rename_deg, batch_format="pyarrow")
    ed = (
        hash_join(
            edges.map_batches(both_dirs, batch_format="pyarrow"),
            ow,
            "src",
            "node",
        )
        .select_columns(["src", "dst", "w", "out_w"])
        .materialize()
    )

    seed_arr = pa.array(seeds, pa.string()) if seeds is not None else None
    n_seeds = len(seeds) if seeds is not None else 0

    def init_rank(batch: pa.Table) -> pa.Table:
        if seed_arr is None:
            r = np.full(batch.num_rows, 1.0 / n_nodes)
        else:
            m = pc.is_valid(
                pc.index_in(batch.column("node"), value_set=seed_arr)
            ).to_numpy(zero_copy_only=False)
            r = np.where(m, 1.0 / n_seeds, 0.0)
        return pa.table(
            {
                "node": batch.column("node"),
                "rank": pa.array(r, pa.float64()),
            }
        )

    ranks = deg.map_batches(init_rank, batch_format="pyarrow").materialize()

    def edge_contrib(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy(zero_copy_only=False)
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
        o = batch.column("out_w").to_numpy(zero_copy_only=False)
        ci = np.rint(r * w / o * _PR_SCALE).astype(np.int64)
        t = pa.table({"dst": batch.column("dst"), "ci": pa.array(ci, pa.int64())})
        # map-side combine before the shuffle (hub dst keys repeat)
        if t.num_rows:
            t = (
                t.group_by(["dst"])
                .aggregate([("ci", "sum")])
                .rename_columns(["dst", "ci"])
            )
        return t

    teleport = (1.0 - damping) / n_nodes

    def finish_rank(batch: pa.Table) -> pa.Table:
        s = batch.column("sum(ci)").to_numpy(zero_copy_only=False).astype(np.float64)
        if seed_arr is None:
            t = teleport
        else:
            m = pc.is_valid(
                pc.index_in(batch.column("dst"), value_set=seed_arr)
            ).to_numpy(zero_copy_only=False)
            t = np.where(m, (1.0 - damping) / n_seeds, 0.0)
        return pa.table(
            {
                "node": batch.column("dst"),
                "rank": pa.array(t + damping * (s / _PR_SCALE), pa.float64()),
            }
        )

    for _ in range(iters):
        # every node has ≥1 undirected edge (deg comes from the edge
        # list), so every node appears as dst — no union-with-zeros pass
        ranks = (
            hash_join(ed, ranks, "src", "node")
            .map_batches(edge_contrib, batch_format="pyarrow", batch_size=None)
        )
        from renard_ray.ops.hashagg import hash_aggregate

        ranks = (
            hash_aggregate(ranks, "dst", [("ci", "sum", "sum(ci)")])
            .map_batches(finish_rank, batch_format="pyarrow")
            .materialize()
        )

    def round_rank(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": batch.column("node"),
                "rank": pa.array(np.round(r, 8), pa.float64()),
            }
        )

    out = ranks.map_batches(round_rank, batch_format="pyarrow").sort(
        ["rank", "node"], descending=[True, False]
    )
    if k is not None:
        out = out.limit(k)
    return out


def _reduce_dense(
    contrib: Dataset, n: int, small: bool, scale: float
) -> np.ndarray:
    """Deterministically reduce (i, c) contribution rows into a dense
    length-``n`` float vector.

    ``small``: driver merge via lexsort + ``np.add.reduceat`` — result
    independent of block arrival order.  Else: distributed
    ``groupby(i).sum`` over fixed-point int64 contributions (integer
    sums are exactly associative); the driver pull is ≤ n rows."""
    out = np.zeros(n, dtype=np.float64)
    if small:
        tabs = [
            b
            for b in contrib.iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
        if tabs:
            ct = pa.concat_tables(tabs)
            i_all = ct.column("i").to_numpy(zero_copy_only=False).astype(np.int64)
            c_all = ct.column("c").to_numpy(zero_copy_only=False)
            o = np.lexsort((c_all, i_all))
            i_s, c_s = i_all[o], c_all[o]
            starts = np.flatnonzero(np.concatenate(([True], i_s[1:] != i_s[:-1])))
            out[i_s[starts]] = np.add.reduceat(c_s, starts)
        return out

    def to_fixed(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "i": batch.column("i"),
                "ci": pa.array(np.rint(c * scale).astype(np.int64), pa.int64()),
            }
        )

    from renard_ray.ops.hashagg import hash_aggregate

    merged = hash_aggregate(
        contrib.map_batches(to_fixed, batch_format="pyarrow"),
        "i",
        [("ci", "sum", "sum(ci)")],
    )
    for b in merged.iter_batches(batch_format="pyarrow", batch_size=None):
        ii = b.column("i").to_numpy(zero_copy_only=False).astype(np.int64)
        ss = b.column("sum(ci)").to_numpy(zero_copy_only=False).astype(np.float64)
        out[ii] = ss / scale
    return out


def hits_dataset(
    triples: Dataset,
    iters: int = 20,
    k: int | None = None,
    broadcast_limit: int = 50_000_000,
    driver_merge_limit: int = 1_000_000,
    driver_edge_limit: int = 2_000_000,
) -> Dataset:
    """HITS hubs & authorities (Kleinberg 1999) over the DIRECTED
    weighted edge list (subj -> obj): per iteration
    ``a = norm1(Aᵀ h)`` then ``h = norm1(A a)`` (L1 normalization).

    Same three regimes as ``pagerank_dataset``, same determinism
    arguments: driver lexsort merge below ``driver_merge_limit``
    nodes, distributed fixed-point groupby merge below
    ``broadcast_limit`` (scale adapted to the max weighted degree so
    int64 can't overflow), join-based score exchange past it (two hash
    joins + two groupby-sums per iteration; nothing node-sized on the
    driver).  Output: (node, hub, authority), authority desc."""
    import pyarrow.compute as pc

    edges = triples.select_columns(_EDGE_COLS).materialize()
    deg = degree_dataset(edges).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "hub": pa.array([], pa.float64()),
                    "authority": pa.array([], pa.float64()),
                }
            )
        )
    # fixed-point scale: contributions per node are bounded by the max
    # weighted degree (scores are L1-normalized, entries <= 1), so
    # D_max * scale must stay inside int64
    max_deg = float(deg.max("weighted_degree") or 1.0)
    fp_scale = 10.0**17 / max(max_deg, 1.0)
    if n_nodes > broadcast_limit:
        return _hits_join(edges, deg, n_nodes, iters, k, fp_scale)

    dt = pa.concat_tables(
        [
            b
            for b in deg.select_columns(["node"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ]
    ).combine_chunks()
    dt = dt.take(pc.sort_indices(dt, sort_keys=[("node", "ascending")]))
    nodes_arr = dt.column("node").combine_chunks()

    # local numpy loop over the collected edge arrays — the same
    # size-adaptive fast path as pagerank_dataset: each half-iteration
    # of the driver-merge regime is a full distributed execution
    # (~0.05-0.1 s of scheduling), 2 x iters of them for zero parallel
    # benefit on a small graph.  Accumulation order is canonicalized
    # by one edge lexsort (layout independence, the house determinism
    # convention); ``driver_edge_limit=0`` forces the distributed
    # per-iteration pass (regime tests).
    small = n_nodes <= driver_merge_limit
    n_edge_rows = edges.count()
    if small and n_edge_rows <= driver_edge_limit:
        si, oi, w = _collect_indexed_edges(edges, nodes_arr)
        h = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
        a = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
        for _ in range(iters):
            # degenerate-sum break mirrors the distributed loop: the
            # raw (zero) reduce is kept, not the previous vector
            a = np.zeros(n_nodes, dtype=np.float64)
            np.add.at(a, oi, h[si] * w)
            s = a.sum()
            if s <= 0:
                break
            a /= s
            h = np.zeros(n_nodes, dtype=np.float64)
            np.add.at(h, si, a[oi] * w)
            s = h.sum()
            if s <= 0:
                break
            h /= s
        out = pa.table(
            {
                "node": nodes_arr,
                "hub": pa.array(np.round(h, 8), pa.float64()),
                "authority": pa.array(np.round(a, 8), pa.float64()),
            }
        )
        out = out.take(
            pc.sort_indices(
                out,
                sort_keys=[
                    ("authority", "descending"),
                    ("node", "ascending"),
                ],
            )
        )
        if k is not None:
            out = out.slice(0, k)
        return ray.data.from_arrow(out)

    keys_ref = ray.put(nodes_arr)

    def push(batch: pa.Table, vec_ref, src_col: str, dst_col: str) -> pa.Table:
        import pyarrow.compute as _pc

        keys = ray.get(keys_ref)
        vec = ray.get(vec_ref)
        si = _pc.index_in(
            batch.column(src_col).combine_chunks(), value_set=keys
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        di = _pc.index_in(
            batch.column(dst_col).combine_chunks(), value_set=keys
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column("weight").to_numpy(zero_copy_only=False).astype(np.float64)
        acc = np.zeros(len(vec), dtype=np.float64)
        np.add.at(acc, di, vec[si] * w)
        nz = np.nonzero(acc)[0]
        return pa.table(
            {"i": pa.array(nz, pa.int64()), "c": pa.array(acc[nz], pa.float64())}
        )

    small = n_nodes <= driver_merge_limit
    h = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
    a = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
    for _ in range(iters):
        # authority half: a <- norm1(Aᵀ h)
        contrib = edges.map_batches(
            push,
            fn_kwargs={"vec_ref": ray.put(h), "src_col": "subj", "dst_col": "obj"},
            batch_format="pyarrow",
        )
        a = _reduce_dense(contrib, n_nodes, small, fp_scale)
        s = a.sum()
        if s <= 0:
            break
        a /= s
        # hub half: h <- norm1(A a)
        contrib = edges.map_batches(
            push,
            fn_kwargs={"vec_ref": ray.put(a), "src_col": "obj", "dst_col": "subj"},
            batch_format="pyarrow",
        )
        h = _reduce_dense(contrib, n_nodes, small, fp_scale)
        s = h.sum()
        if s <= 0:
            break
        h /= s

    out = pa.table(
        {
            "node": nodes_arr,
            "hub": pa.array(np.round(h, 8), pa.float64()),
            "authority": pa.array(np.round(a, 8), pa.float64()),
        }
    )
    out = out.take(
        pc.sort_indices(
            out, sort_keys=[("authority", "descending"), ("node", "ascending")]
        )
    )
    if k is not None:
        out = out.slice(0, k)
    return ray.data.from_arrow(out)


def _hits_join(
    edges: Dataset,
    deg: Dataset,
    n_nodes: int,
    iters: int,
    k: int | None,
    fp_scale: float,
) -> Dataset:
    """Join-based HITS for vocabularies past the broadcast limit.
    Score state lives in (node, val) Datasets; each half-iteration is
    one hash join (edges ⋈ state on the pushing endpoint) and one
    ``groupby`` over fixed-point contributions, then a scalar-norm
    rescale.  Per-edge fixed-point rounding + exact int64 sums keep
    the result deterministic across runs and partitionings."""
    from ray.data.aggregate import Sum as _Sum

    def orient(src: str, dst: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src": batch.column(src),
                    "dst": batch.column(dst),
                    "w": batch.column("weight"),
                }
            )

        return fn

    fwd = edges.map_batches(orient("subj", "obj"), batch_format="pyarrow").materialize()
    rev = edges.map_batches(orient("obj", "subj"), batch_format="pyarrow").materialize()

    def init_state(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "val": pa.array(np.full(batch.num_rows, 1.0 / n_nodes), pa.float64()),
            }
        )

    nodes = deg.select_columns(["node"]).materialize()
    h = nodes.map_batches(init_state, batch_format="pyarrow").materialize()
    a = h

    def edge_contrib(batch: pa.Table) -> pa.Table:
        v = batch.column("val").to_numpy(zero_copy_only=False)
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
        ci = np.rint(v * w * fp_scale).astype(np.int64)
        t = pa.table({"dst": batch.column("dst"), "ci": pa.array(ci, pa.int64())})
        if t.num_rows:
            t = (
                t.group_by(["dst"])
                .aggregate([("ci", "sum")])
                .rename_columns(["dst", "ci"])
            )
        return t

    def half(ed: Dataset, state: Dataset) -> Dataset | None:
        pushed = (
            hash_join(ed, state, "src", "node")
            .map_batches(edge_contrib, batch_format="pyarrow", batch_size=None)
        )
        from renard_ray.ops.hashagg import hash_aggregate

        pushed = hash_aggregate(
            pushed, "dst", [("ci", "sum", "sum(ci)")]
        ).materialize()
        tot = pushed.aggregate(_Sum("sum(ci)", alias_name="t"))["t"]
        if not tot:
            return None
        inv = 1.0 / (float(tot) / fp_scale)

        def finish(batch: pa.Table) -> pa.Table:
            s = batch.column("sum(ci)").to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.table(
                {
                    "node": batch.column("dst"),
                    "val": pa.array(s / fp_scale * inv, pa.float64()),
                }
            )

        return pushed.map_batches(finish, batch_format="pyarrow").materialize()

    for _ in range(iters):
        nxt_a = half(fwd, h)
        if nxt_a is None:
            break
        a = nxt_a
        nxt_h = half(rev, a)
        if nxt_h is None:
            break
        h = nxt_h

    # zero-score nodes dropped by the inner joins come back with 0.0
    def rename(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"node": batch.column("node"), col: batch.column("val")}
            )

        return fn

    with_hub = hash_join(
        nodes,
        h.map_batches(rename("hub"), batch_format="pyarrow"),
        "node",
        how="left outer",
    )
    out = hash_join(
        with_hub,
        a.map_batches(rename("authority"), batch_format="pyarrow"),
        "node",
        how="left outer",
    )

    def fill_round(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        hv = _pc.coalesce(batch.column("hub"), pa.scalar(0.0, pa.float64()))
        av = _pc.coalesce(batch.column("authority"), pa.scalar(0.0, pa.float64()))
        return pa.table(
            {
                "node": batch.column("node"),
                "hub": _pc.round(hv, 8),
                "authority": _pc.round(av, 8),
            }
        )

    res = out.map_batches(fill_round, batch_format="pyarrow").sort(
        ["authority", "node"], descending=[True, False]
    )
    if k is not None:
        res = res.limit(k)
    return res


# ---------------------------------------------------- small-graph oracles


def degree_table(triples: pd.DataFrame) -> pd.DataFrame:
    deg: dict[str, float] = {}
    n_edges: dict[str, int] = {}
    for r in triples.itertuples():
        for node in (r.subj, r.obj):
            deg[node] = deg.get(node, 0.0) + float(r.weight)
            n_edges[node] = n_edges.get(node, 0) + 1
    rows = sorted(deg.items(), key=lambda kv: (-kv[1], kv[0]))
    return pd.DataFrame(
        {
            "node": [n for n, _ in rows],
            "weighted_degree": [w for _, w in rows],
            "n_edges": [n_edges[n] for n, _ in rows],
        }
    )


def pagerank(
    triples: pd.DataFrame, damping: float = 0.85, iters: int = 30
) -> pd.DataFrame:
    nodes = sorted(set(triples["subj"]) | set(triples["obj"]))
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": [], "rank": []})
    out_w = [0.0] * n
    edges: list[tuple[int, int, float]] = []
    for r in triples.itertuples():
        i, j, w = idx[r.subj], idx[r.obj], float(r.weight)
        edges.append((i, j, w))
        edges.append((j, i, w))
        out_w[i] += w
        out_w[j] += w
    pr = [1.0 / n] * n
    for _ in range(iters):
        nxt = [(1.0 - damping) / n] * n
        for i, j, w in edges:
            if out_w[i] > 0:
                nxt[j] += damping * pr[i] * (w / out_w[i])
        pr = nxt
    rows = sorted(zip(nodes, pr), key=lambda kv: (-kv[1], kv[0]))
    return pd.DataFrame(
        {
            "node": [a for a, _ in rows],
            "rank": [round(b, 8) for _, b in rows],
        }
    )


def hits_table(triples: pd.DataFrame, iters: int = 20) -> pd.DataFrame:
    """Dense-numpy HITS oracle mirroring ``hits_dataset`` exactly
    (directed subj->obj, L1 normalization, a-half then h-half)."""
    nodes = sorted(set(triples["subj"]) | set(triples["obj"]))
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": [], "hub": [], "authority": []})
    si = np.array([idx[s] for s in triples["subj"]], dtype=np.int64)
    oi = np.array([idx[o] for o in triples["obj"]], dtype=np.int64)
    w = triples["weight"].to_numpy(dtype=np.float64)
    h = np.full(n, 1.0 / n)
    a = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = np.zeros(n)
        np.add.at(nxt, oi, h[si] * w)
        s = nxt.sum()
        if s <= 0:
            break
        a = nxt / s
        nxt = np.zeros(n)
        np.add.at(nxt, si, a[oi] * w)
        s = nxt.sum()
        if s <= 0:
            break
        h = nxt / s
    df = pd.DataFrame(
        {"node": nodes, "hub": np.round(h, 8), "authority": np.round(a, 8)}
    )
    return df.sort_values(
        ["authority", "node"], ascending=[False, True]
    ).reset_index(drop=True)


def kcore_dataset(
    triples: Dataset,
    k: int = 3,
    max_rounds: int = 100,
    broadcast_limit: int | None = None,
) -> Dataset:
    """k-core decomposition by distributed iterative peeling: repeat
    {degree reduce -> drop nodes with degree < k} until fixpoint.  The
    result (nodes of the maximal subgraph where every node has >= k
    neighbors) is unique, so peeling order doesn't matter and the
    operator is exactly checkable against a single-machine peel.

    Per round: one endpoint fan-out + ``groupby(node)`` degree reduce,
    then the dead-node set is removed from the edge list via the
    size-adaptive semi machinery (broadcast ``index_in`` mask under
    the row budget — the set shrinks every round — or two hash ANTI
    joins past it).  Edges are re-materialized per round so the loop
    never re-executes the whole prefix; everything node- or edge-sized
    stays in the object store.

    Multi-edges (same pair under several predicates) and self-loops
    are removed up front (one distinct-pair groupby), so degree =
    distinct-neighbor count, the standard k-core definition.

    Output: (node, n_neighbors) for every node of the k-core."""
    import logging

    import pyarrow.compute as pc

    from renard_ray.ops.relational import broadcast_semi_join

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit

    def norm(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        t = pa.table(
            {
                "u": pc.min_element_wise(s, o),
                "v": pc.max_element_wise(s, o),
            }
        )
        t = t.filter(pc.not_equal(t.column("u"), t.column("v")))
        # per-batch distinct before the pair shuffle
        return t.group_by(["u", "v"]).aggregate([]).select(["u", "v"])

    from renard_ray.ops.hashagg import hash_aggregate

    edges = hash_aggregate(
        triples.select_columns(["subj", "obj"]).map_batches(
            norm, batch_format="pyarrow", batch_size=None
        ),
        ["u", "v"],
        [],
    ).materialize()

    def degrees(eds: Dataset) -> Dataset:
        def endpoints(batch: pa.Table) -> pa.Table:
            both = pa.table(
                {
                    "node": pa.concat_arrays(
                        [
                            batch.column("u").combine_chunks(),
                            batch.column("v").combine_chunks(),
                        ]
                    )
                }
            )
            g = both.group_by(["node"]).aggregate([("node", "count")])
            return g.rename_columns(["node", "n"])

        return hash_aggregate(
            eds.map_batches(endpoints, batch_format="pyarrow", batch_size=None),
            "node",
            [("n", "sum", "n_neighbors")],
        )

    empty = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([], pa.string()),
                "n_neighbors": pa.array([], pa.int64()),
            }
        )
    )

    for _ in range(max_rounds):
        if edges.count() == 0:
            return empty
        deg = degrees(edges).materialize()
        dead = deg.filter(expr=f"n_neighbors < {k}").materialize()
        if dead.count() == 0:
            return deg
        dead_nodes = dead.select_columns(["node"])
        # size-adaptive removal (broadcast mask / hash anti join): one
        # pass per endpoint column
        edges = broadcast_semi_join(
            edges, dead_nodes, on="u", right_on="node", anti=True, limit=limit
        )
        edges = broadcast_semi_join(
            edges, dead_nodes, on="v", right_on="node", anti=True, limit=limit
        ).materialize()

    logging.getLogger(__name__).warning(
        "kcore_dataset: stopped after max_rounds=%d without reaching the "
        "fixpoint — returning the (supergraph) degrees at that point",
        max_rounds,
    )
    return degrees(edges)


def _distinct_adjacency(triples: Dataset, directed: bool = False) -> Dataset | None:
    """Distinct adjacency list from a triple table: (src, dst) rows,
    self-loops and multi-edges (several preds on one pair) removed by
    one pair-keyed groupby; undirected mode emits both directions so
    expansion / degree are single src-keyed operations.  Returns None
    when the graph has no surviving edge (empty input or self-loops
    only)."""
    import pyarrow.compute as pc

    def adjacency(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        if directed:
            t = pa.table({"src": s, "dst": o})
        else:
            t = pa.table(
                {
                    "src": pa.concat_arrays([s, o]),
                    "dst": pa.concat_arrays([o, s]),
                }
            )
        t = t.filter(pc.not_equal(t.column("src"), t.column("dst")))
        return t.group_by(["src", "dst"]).aggregate([]).select(["src", "dst"])

    from renard_ray.ops.hashagg import hash_aggregate

    combined = triples.select_columns(["subj", "obj"]).map_batches(
        adjacency, batch_format="pyarrow", batch_size=None
    ).materialize()
    if combined.count() == 0:
        return None
    return hash_aggregate(combined, ["src", "dst"], [])


def bfs_hops_dataset(
    triples: Dataset,
    seeds: list[str] | None = None,
    n_seeds: int = 3,
    max_hops: int = 25,
    broadcast_limit: int | None = None,
    directed: bool = False,
) -> Dataset:
    """Multi-source BFS over the KG (undirected by default; pass
    ``directed=True`` to follow subj->obj edges only — forward
    reachability): shortest hop distance from the seed set to every
    reachable entity.  The iterative-frontier
    graph shape (each round touches only the new frontier, not the
    whole distance table).

    Seeds default to the ``n_seeds`` highest-degree entities
    (deterministic: degree desc, name asc) — the "distance from the
    hubs" view; pass ``seeds`` explicitly for ego-style queries.

    Per round: directed adjacency SEMI-joined on the frontier (the
    size-adaptive broadcast/hash plan — the frontier is usually small),
    one ``groupby(dst)`` distinct, then an ANTI join against the
    visited set (broadcast while it fits, hash join past it).  The
    distance table is unioned + materialized per round so the loop
    never re-executes its prefix.  Multi-edges/self-loops removed up
    front by one distinct-pair groupby; in undirected mode both
    directions are emitted (directed mode keeps subj->obj only) so
    expansion is a single src-keyed semi join either way.

    Output: (node, hops) for every node reachable from the seeds
    (seeds at 0).  Unreachable nodes are absent by design."""
    from renard_ray.ops.relational import broadcast_semi_join

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit

    edges = _distinct_adjacency(triples, directed=directed)
    if edges is None:  # no surviving edge: explicit seeds sit at hop 0
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(sorted(set(seeds or [])), pa.string()),
                    "hops": pa.array([0] * len(set(seeds or [])), pa.int64()),
                }
            )
        )
    edges = edges.materialize()

    if seeds is None:
        # degree = distinct-(out-)neighbor count (edges already
        # distinct); top-k with (degree desc, name asc) tie-break —
        # tiny driver fetch of exactly n_seeds rows
        from renard_ray.ops.hashagg import hash_aggregate as _hagg

        deg = _hagg(edges, "src", [("", "count_all", "deg")])
        top = deg.sort(["deg", "src"], descending=[True, False]).limit(n_seeds)
        seeds = [r["src"] for r in top.take_all()]
    if not seeds:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()),
                 "hops": pa.array([], pa.int64())}
            )
        )

    dist = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(sorted(set(seeds)), pa.string()),
                "hops": pa.array([0] * len(set(seeds)), pa.int64()),
            }
        )
    ).materialize()
    frontier = dist.select_columns(["node"])

    for h in range(1, max_hops + 1):
        reached = broadcast_semi_join(
            edges, frontier, on="src", right_on="node", limit=limit
        )
        from renard_ray.ops.hashagg import hash_aggregate as _hagg2

        cand = _hagg2(reached.select_columns(["dst"]), "dst", []).map_batches(
            lambda b: pa.table({"node": b.column("dst")}),
            batch_format="pyarrow",
        )
        new = broadcast_semi_join(
            cand, dist.select_columns(["node"]), on="node", right_on="node",
            anti=True, limit=limit,
        ).materialize()
        if new.count() == 0:
            break
        tagged = new.map_batches(
            lambda b, _h=h: pa.table(
                {
                    "node": b.column("node"),
                    "hops": pa.array(
                        np.full(b.num_rows, _h, dtype=np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        dist = dist.union(tagged).materialize()
        frontier = new
    else:
        import logging

        logging.getLogger(__name__).warning(
            "bfs_hops_dataset: frontier still non-empty after "
            "max_hops=%d — nodes beyond that distance are absent from "
            "the output (raise max_hops for high-eccentricity graphs)",
            max_hops,
        )
    return dist


def seed_centrality_dataset(
    triples: Dataset,
    seeds: "list[str] | None" = None,
    n_seeds: int = 3,
    max_hops: int = 25,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Closeness + harmonic centrality of a SEED set: per seed, a
    tagged BFS measures the hop distance to every reachable node, then
    one bounded reduce yields ``closeness = (n_reachable) / sum(d)``
    and ``harmonic = sum(1/d)`` — the exact all-pairs definitions
    restricted to the seeds (all-pairs itself is O(V·E); centrality of
    a chosen/top-degree seed set is the tractable production shape,
    cf. sampled-seed estimators).

    Per round, over ALL seeds at once: the (seed, node) frontier joins
    the adjacency on node (size-adaptive broadcast/hash), one
    ``groupby(seed, dst)`` distinct, one packed-key ANTI join against
    the visited set, union + materialize — identical machinery to
    ``bfs_hops_dataset`` with the seed riding every row, so seeds
    don't multiply rounds, only row counts.

    Output: (seed, n_reachable, sum_hops, closeness, harmonic) —
    closeness/harmonic rounded to 6; seeds with no reachable node
    emit (seed, 0, 0, 0.0, 0.0)."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import broadcast_semi_join

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit
    out_schema = pa.schema(
        [
            ("seed", pa.string()),
            ("n_reachable", pa.int64()),
            ("sum_hops", pa.int64()),
            ("closeness", pa.float64()),
            ("harmonic", pa.float64()),
        ]
    )

    def _finish(dist: Dataset) -> Dataset:
        def per_seed(batch: pa.Table) -> pa.Table:
            h = np.asarray(batch.column("hops"), dtype=np.float64)
            return pa.table(
                {
                    "seed": batch.column("seed"),
                    "n": pa.array(
                        np.ones(batch.num_rows, dtype=np.int64)
                    ),
                    "s": batch.column("hops"),
                    "inv": pa.array(1.0 / h),
                }
            )

        from renard_ray.ops.hashagg import hash_aggregate as _hagg3

        agg = _hagg3(
            dist.filter(expr="hops > 0").map_batches(
                per_seed, batch_format="pyarrow"
            ),
            "seed",
            [
                ("n", "sum", "n_reachable"),
                ("s", "sum", "sum_hops"),
                ("inv", "sum", "harmonic_raw"),
            ],
        )

        def finalize(batch: pa.Table) -> pa.Table:
            n = np.asarray(batch.column("n_reachable"), dtype=np.float64)
            s = np.asarray(batch.column("sum_hops"), dtype=np.float64)
            return pa.table(
                {
                    "seed": batch.column("seed"),
                    "n_reachable": batch.column("n_reachable"),
                    "sum_hops": batch.column("sum_hops"),
                    "closeness": pa.array(
                        np.round(np.where(s > 0, n / np.maximum(s, 1.0), 0.0), 6)
                    ),
                    "harmonic": pa.array(
                        np.round(
                            np.asarray(
                                batch.column("harmonic_raw"), dtype=np.float64
                            ),
                            6,
                        )
                    ),
                }
            )

        got = {}
        for b in agg.map_batches(finalize, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            for r in b.to_pylist():
                got[r["seed"]] = r
        rows = []
        for s in sorted(set(seeds)):
            rows.append(
                got.get(
                    s,
                    {
                        "seed": s, "n_reachable": 0, "sum_hops": 0,
                        "closeness": 0.0, "harmonic": 0.0,
                    },
                )
            )
        return ray.data.from_arrow(
            pa.Table.from_pylist(rows, schema=out_schema)
        )

    edges = _distinct_adjacency(triples, directed=False)
    if edges is None:
        if not seeds:
            return ray.data.from_arrow(out_schema.empty_table())
        return _finish(
            ray.data.from_arrow(
                pa.table(
                    {"seed": pa.array([], pa.string()),
                     "node": pa.array([], pa.string()),
                     "hops": pa.array([], pa.int64())}
                )
            )
        )
    edges = edges.materialize()

    if seeds is None:
        from renard_ray.ops.hashagg import hash_aggregate as _hagg

        deg = _hagg(edges, "src", [("", "count_all", "deg")])
        top = deg.sort(["deg", "src"], descending=[True, False]).limit(n_seeds)
        seeds = [r["src"] for r in top.take_all()]
    seeds = sorted(set(seeds))
    if not seeds:
        return ray.data.from_arrow(out_schema.empty_table())

    def _packed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "sk",
            pc.binary_join_element_wise(
                batch.column("seed"), batch.column("node"), "\x1f"
            ),
        )

    dist = ray.data.from_arrow(
        pa.table(
            {
                "seed": pa.array(seeds, pa.string()),
                "node": pa.array(seeds, pa.string()),
                "hops": pa.array([0] * len(seeds), pa.int64()),
            }
        )
    ).materialize()
    frontier = dist.select_columns(["seed", "node"])

    from renard_ray.ops.relational import _collect_small

    small_edges = _collect_small(edges, limit)
    edges_ref = (
        ray.put(small_edges.combine_chunks())
        if small_edges is not None
        else None
    )

    for h in range(1, max_hops + 1):
        if edges_ref is not None:

            def expand(batch: pa.Table) -> pa.Table:
                et = ray.get(edges_ref)
                j = batch.join(
                    et, keys=["node"], right_keys=["src"], join_type="inner"
                )
                return pa.table(
                    {"seed": j.column("seed"), "node": j.column("dst")}
                )

            expanded = frontier.map_batches(expand, batch_format="pyarrow")
        else:
            expanded = hash_join(frontier, edges, "node", "src").map_batches(
                lambda b: pa.table(
                    {"seed": b.column("seed"), "node": b.column("dst")}
                ),
                batch_format="pyarrow",
            )
        from renard_ray.ops.hashagg import hash_aggregate as _hagg4

        cand = _hagg4(expanded, ["seed", "node"], [])
        new = broadcast_semi_join(
            cand.map_batches(_packed, batch_format="pyarrow"),
            dist.map_batches(_packed, batch_format="pyarrow").select_columns(
                ["sk"]
            ),
            on="sk", right_on="sk", anti=True, limit=limit,
        ).materialize()
        if new.count() == 0:
            break
        tagged = new.map_batches(
            lambda b, _h=h: pa.table(
                {
                    "seed": b.column("seed"),
                    "node": b.column("node"),
                    "hops": pa.array(
                        np.full(b.num_rows, _h, dtype=np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        dist = dist.union(tagged).materialize()
        frontier = new.select_columns(["seed", "node"])

    return _finish(dist)


def neighborhood_stats_dataset(
    triples: Dataset, broadcast_limit: int | None = None
) -> Dataset:
    """One round of GNN-style neighbor aggregation over the undirected
    KG: for every node, the count / sum / max of its DISTINCT
    neighbors' degrees — the 2-hop structural feature (a node next to
    hubs scores high even at degree 1).

    Scale shape: distinct directed adjacency (one groupby), degree =
    ``groupby(src).count`` over it, each edge's dst-degree attached via
    the size-adaptive lookup join (degree table broadcast while the
    vocabulary fits, hash join past it), one final ``groupby(src)``.
    Feature aggregation is exactly the attach-then-reduce shape every
    message-passing round uses; nothing node- or edge-sized lands on
    the driver.

    Output: (node, n_neighbors, sum_nbr_deg, max_nbr_deg)."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import broadcast_lookup_join

    from ray.data.aggregate import Max

    edges = _distinct_adjacency(triples)
    if edges is None:  # empty graph (or self-loops only)
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "n_neighbors": pa.array([], pa.int64()),
                    "sum_nbr_deg": pa.array([], pa.int64()),
                    "max_nbr_deg": pa.array([], pa.int64()),
                }
            )
        )
    edges = edges.materialize()
    from renard_ray.ops.hashagg import hash_aggregate

    deg = hash_aggregate(edges, "src", [("", "count_all", "deg")]).map_batches(
        lambda b: pa.table({"node": b.column("src"), "deg": b.column("deg")}),
        batch_format="pyarrow",
    )
    kwargs = {} if broadcast_limit is None else {"limit": broadcast_limit}
    attached = broadcast_lookup_join(
        edges, deg, on="dst", right_on="node", payload=["deg"], **kwargs
    )
    stats = hash_aggregate(
        attached.map_batches(
            lambda b: pa.table(
                {"src": b.column("src"), "deg": b.column("deg")}
            ),
            batch_format="pyarrow",
        ),
        "src",
        [
            ("", "count_all", "n_neighbors"),
            ("deg", "sum", "sum_nbr_deg"),
            ("deg", "max", "max_nbr_deg"),
        ],
    )
    return stats.map_batches(
        lambda b: pa.table(
            {
                "node": b.column("src"),
                "n_neighbors": pc.cast(b.column("n_neighbors"), pa.int64()),
                "sum_nbr_deg": pc.cast(b.column("sum_nbr_deg"), pa.int64()),
                "max_nbr_deg": pc.cast(b.column("max_nbr_deg"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def scc_dataset(
    triples: Dataset,
    max_outer: int = 30,
    max_prop: int = 60,
    broadcast_limit: int | None = None,
    driver_limit: int = 2_000_000,
) -> Dataset:
    """Strongly connected components of the DIRECTED KG (subj -> obj),
    by trim + forward coloring + backward collection (Orzan-style —
    the standard iterative distributed SCC):

    1. TRIM: repeatedly peel nodes with in-degree 0 or out-degree 0 —
       each is a singleton SCC (resolves all DAG-shaped regions in
       O(longest chain) rounds of two degree reduces).
    2. COLOR: every remaining node starts with its own color (its
       name); colors propagate along FORWARD edges to fixpoint via a
       per-round edge pass + ``groupby(node).max`` — at fixpoint, color
       c marks nodes reachable from root c not yet claimed by a larger
       root.
    3. COLLECT: the SCC of root c = nodes of color c that reach c
       BACKWARD inside color-c edges — one multi-source reverse BFS
       over the color-consistent edge subset (all roots advance
       together: (node, color) frontier keyed on the packed pair).
    4. Remove found SCCs, repeat from 1.

    Every step is an edge pass + a bounded groupby or a size-adaptive
    semi join (the kcore/BFS machinery); per-round materialize keeps
    the loop from re-executing its prefix.  Nothing node- or edge-sized
    lands on the driver.

    Output: (node, scc, scc_size) for every node incident to an edge
    (singleton SCCs included)."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import broadcast_semi_join

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit

    def directed(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "src": batch.column("subj").combine_chunks(),
                "dst": batch.column("obj").combine_chunks(),
            }
        )
        t = t.filter(pc.not_equal(t.column("src"), t.column("dst")))
        return t.group_by(["src", "dst"]).aggregate([]).select(["src", "dst"])

    from renard_ray.ops.hashagg import hash_aggregate

    edges = triples.select_columns(["subj", "obj"]).map_batches(
        directed, batch_format="pyarrow", batch_size=None
    ).materialize()
    edges = hash_aggregate(edges, ["src", "dst"], []) if edges.count() else None

    # size-adaptive fast path (house convention, cf. connected
    # components' driver union-find): the distributed trim/color/
    # collect loop costs ~60 bounded executions — correct at any
    # scale but pure overhead when the DISTINCT edge list fits the
    # driver budget.  Under ``driver_limit`` edges, collect and run
    # iterative Tarjan; labels = the MAX member name, which is exactly
    # what the distributed color fixpoint yields (within one SCC every
    # node reaches every other, so the surviving color is the max
    # name; trim singletons carry their own name = their max).  Tests
    # force ``driver_limit=0`` to exercise the distributed path.
    if edges is not None:
        edges = edges.materialize()
        n_edges = edges.count()
        if n_edges == 0:
            edges = None
        elif n_edges <= driver_limit:
            # index-encoded adjacency (not string dicts): np.unique
            # maps every node to an int code ONCE (and, being
            # lexicographic, max-code-in-comp == max-name-in-comp, so
            # the label convention falls out for free); edges become
            # two int arrays in CSR layout.  Near the 2M-edge budget
            # this holds a handful of numpy arrays instead of millions
            # of driver-side Python strings in dict-of-list adjacency.
            tab = pa.concat_tables(
                [ray.get(r) for r in edges.to_arrow_refs()]
            ).combine_chunks()
            s = tab.column("src").to_numpy(zero_copy_only=False)
            d = tab.column("dst").to_numpy(zero_copy_only=False)
            names, codes = np.unique(np.concatenate([s, d]), return_inverse=True)
            n_nodes_l = len(names)
            si = codes[: len(s)].astype(np.int64)
            di = codes[len(s):].astype(np.int64)
            eo = np.argsort(si, kind="stable")
            di_s = di[eo]
            starts = np.searchsorted(si[eo], np.arange(n_nodes_l + 1))
            # iterative Tarjan over int codes
            NIL = -1
            index = np.full(n_nodes_l, NIL, dtype=np.int64)
            low = np.zeros(n_nodes_l, dtype=np.int64)
            on_stack = np.zeros(n_nodes_l, dtype=bool)
            comp_of = np.full(n_nodes_l, NIL, dtype=np.int64)
            comp_max = []  # per-comp max code
            comp_size = []
            stack: list = []
            counter = 0
            for root in range(n_nodes_l):
                if index[root] != NIL:
                    continue
                work = [(root, starts[root])]
                index[root] = low[root] = counter
                counter += 1
                stack.append(root)
                on_stack[root] = True
                while work:
                    v, pi = work[-1]
                    recurse = False
                    end = starts[v + 1]
                    while pi < end:
                        w = di_s[pi]
                        pi += 1
                        if index[w] == NIL:
                            work[-1] = (v, pi)
                            index[w] = low[w] = counter
                            counter += 1
                            stack.append(w)
                            on_stack[w] = True
                            work.append((w, starts[w]))
                            recurse = True
                            break
                        if on_stack[w] and index[w] < low[v]:
                            low[v] = index[w]
                    if recurse:
                        continue
                    if low[v] == index[v]:
                        cid = len(comp_max)
                        mx = -1
                        size = 0
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp_of[w] = cid
                            if w > mx:
                                mx = w
                            size += 1
                            if w == v:
                                break
                        comp_max.append(mx)
                        comp_size.append(size)
                    work.pop()
                    if work:
                        u, _ = work[-1]
                        if low[v] < low[u]:
                            low[u] = low[v]
            comp_max_a = np.asarray(comp_max, dtype=np.int64)
            comp_size_a = np.asarray(comp_size, dtype=np.int64)
            return ray.data.from_arrow(
                pa.table(
                    {
                        "node": pa.array(names),
                        "scc": pa.array(names[comp_max_a[comp_of]]),
                        "scc_size": pa.array(comp_size_a[comp_of], pa.int64()),
                    }
                )
            )

    done_parts: list[Dataset] = []  # (node, scc) fragments

    def label_rows(nodes: Dataset, col: str) -> Dataset:
        """(node, scc=node) singletons from a single-column Dataset."""
        return nodes.map_batches(
            lambda b: pa.table(
                {"node": b.column(col), "scc": b.column(col)}
            ),
            batch_format="pyarrow",
        )

    empty_out = pa.table(
        {
            "node": pa.array([], pa.string()),
            "scc": pa.array([], pa.string()),
            "scc_size": pa.array([], pa.int64()),
        }
    )

    for _ in range(max_outer):
        if edges is None:
            break
        edges = edges.materialize()
        if edges.count() == 0:
            break
        # ---- 1. TRIM singleton SCCs (in-degree 0 or out-degree 0)
        while True:
            srcs = hash_aggregate(edges, "src", [])
            dsts = hash_aggregate(edges, "dst", [])
            # nodes with no outgoing edge (appear as dst only)
            no_out = broadcast_semi_join(
                dsts, srcs, on="dst", right_on="src", anti=True, limit=limit
            ).materialize()
            no_in = broadcast_semi_join(
                srcs, dsts, on="src", right_on="dst", anti=True, limit=limit
            ).materialize()
            n_trim = no_out.count() + no_in.count()
            if n_trim == 0:
                break
            if no_out.count():
                done_parts.append(label_rows(no_out, "dst"))
                edges = broadcast_semi_join(
                    edges, no_out, on="dst", right_on="dst", anti=True,
                    limit=limit,
                )
            if no_in.count():
                done_parts.append(label_rows(no_in, "src"))
                edges = broadcast_semi_join(
                    edges, no_in, on="src", right_on="src", anti=True,
                    limit=limit,
                )
            edges = edges.materialize()
            if edges.count() == 0:
                edges = None
                break
        if edges is None:
            break

        # ---- 2. forward COLOR propagation to fixpoint
        nodes = (
            edges.map_batches(
                lambda b: pa.table(
                    {
                        "node": pa.concat_arrays(
                            [
                                b.column("src").combine_chunks(),
                                b.column("dst").combine_chunks(),
                            ]
                        )
                    }
                ),
                batch_format="pyarrow",
            )
        )
        nodes = hash_aggregate(nodes, "node", [])
        color = nodes.map_batches(
            lambda b: pa.table(
                {"node": b.column("node"), "color": b.column("node")}
            ),
            batch_format="pyarrow",
        ).materialize()
        for _p in range(max_prop):
            # push src color along each edge, take max per dst,
            # then max with the current color
            from renard_ray.ops.relational import broadcast_lookup_join

            pushed = (
                broadcast_lookup_join(
                    edges, color, on="src", right_on="node",
                    payload=["color"], limit=limit,
                )
                .map_batches(
                    lambda b: pa.table(
                        {"node": b.column("dst"), "color": b.column("color")}
                    ),
                    batch_format="pyarrow",
                )
                .union(color)
            )
            pushed = hash_aggregate(
                pushed, "node", [("color", "max", "color")]
            )
            # fixpoint check: count rows whose color changed — join-free
            # via a packed (node, color) semi join
            def packed(ds_: Dataset) -> Dataset:
                return ds_.map_batches(
                    lambda b: pa.table(
                        {
                            "k": pc.binary_join_element_wise(
                                b.column("node"), b.column("color"), "\x00"
                            )
                        }
                    ),
                    batch_format="pyarrow",
                )

            changed = broadcast_semi_join(
                packed(pushed), packed(color), on="k", right_on="k",
                anti=True, limit=limit,
            )
            color = pushed
            if changed.count() == 0:
                break

        # ---- 3. backward COLLECT inside color classes
        # color-consistent reverse adjacency: edge src <- dst where
        # both endpoints share a color
        from renard_ray.ops.relational import broadcast_lookup_join

        e_col = broadcast_lookup_join(
            edges, color, on="src", right_on="node",
            payload=["color"], limit=limit,
        )
        e_col = broadcast_lookup_join(
            e_col.map_batches(
                lambda b: pa.table(
                    {
                        "src": b.column("src"),
                        "dst": b.column("dst"),
                        "c_src": b.column("color"),
                    }
                ),
                batch_format="pyarrow",
            ),
            color, on="dst", right_on="node", payload=["color"], limit=limit,
        ).map_batches(
            lambda b: b.filter(
                pc.equal(b.column("c_src"), b.column("color"))
            ).select(["src", "dst", "color"]),
            batch_format="pyarrow",
        ).materialize()

        # multi-source reverse BFS: frontier = the roots (node == color)
        def pk(ds_: Dataset) -> Dataset:
            """(node, color) -> packed key rows (k, node, color)."""
            return ds_.map_batches(
                lambda b: pa.table(
                    {
                        "k": pc.binary_join_element_wise(
                            b.column("node"), b.column("color"), "\x00"
                        ),
                        "node": b.column("node"),
                        "color": b.column("color"),
                    }
                ),
                batch_format="pyarrow",
            )

        member = color.map_batches(
            lambda b: b.filter(
                pc.equal(b.column("node"), b.column("color"))
            ),
            batch_format="pyarrow",
        ).materialize()  # (node, color): root belongs to its own SCC
        frontier = member
        # reverse adjacency rows keyed by the DOWNSTREAM endpoint:
        # k = (dst, color), payload node = src (the admitted node)
        rev = e_col.map_batches(
            lambda b: pa.table(
                {
                    "k": pc.binary_join_element_wise(
                        b.column("dst"), b.column("color"), "\x00"
                    ),
                    "node": b.column("src"),
                    "color": b.column("color"),
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        while True:
            # step backward: edges whose (dst, color) is in the frontier
            # admit their src into the SCC candidate set
            hits = (
                broadcast_semi_join(
                    rev, pk(frontier), on="k", right_on="k", limit=limit
                )
                .select_columns(["node", "color"])
            )
            hits = hash_aggregate(hits, ["node", "color"], [])
            new = broadcast_semi_join(
                pk(hits), pk(member), on="k", right_on="k",
                anti=True, limit=limit,
            ).select_columns(["node", "color"]).materialize()
            if new.count() == 0:
                break
            member = member.union(new).materialize()
            frontier = new

        done_parts.append(
            member.map_batches(
                lambda b: pa.table(
                    {"node": b.column("node"), "scc": b.column("color")}
                ),
                batch_format="pyarrow",
            )
        )
        # remove found SCC members from the graph and loop
        mem_nodes = member.select_columns(["node"])
        edges = broadcast_semi_join(
            edges, mem_nodes, on="src", right_on="node", anti=True, limit=limit
        )
        edges = broadcast_semi_join(
            edges, mem_nodes, on="dst", right_on="node", anti=True, limit=limit
        )

    if edges is not None:
        leftover = edges.materialize()
        if leftover.count() > 0:
            import logging

            logging.getLogger(__name__).warning(
                "scc_dataset: %d edges unresolved after max_outer=%d "
                "rounds — their nodes are absent from the output "
                "(raise max_outer)", leftover.count(), max_outer,
            )
    if not done_parts:
        return ray.data.from_arrow(empty_out)
    labels = done_parts[0]
    for p in done_parts[1:]:
        labels = labels.union(p)
    labels = hash_aggregate(labels, "node", [("scc", "max", "scc")])
    sizes = hash_aggregate(labels, "scc", [("", "count_all", "scc_size")])
    from renard_ray.ops.relational import broadcast_lookup_join

    return broadcast_lookup_join(
        labels, sizes, on="scc", right_on="scc", payload=["scc_size"],
        limit=limit,
    )


_BC_SCALE = 10**9  # fixed-point scale for the dependency exchange


def betweenness_dataset(
    triples: Dataset,
    seeds: "list[str] | None" = None,
    n_seeds: int = 4,
    max_hops: int = 25,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Source-sampled betweenness centrality (Brandes 2001, the
    sampled estimator of Brandes/Pich 2007 — public references): the
    exact single-source dependency accumulation run from a SEED set,
    summed over seeds.  With ``seeds`` = all nodes this is exact
    unnormalized undirected betweenness; with a sample it is the
    standard unbiased estimator up to the n/|S| factor (left to the
    caller, documented, so the output is an exact function of the
    seed set).

    Forward (per round, all seeds at once — the seed-tagged BFS of
    ``seed_centrality_dataset`` carrying shortest-path counts): the
    (seed, node, sigma) frontier joins the adjacency (size-adaptive
    broadcast/hash), ``groupby(seed, dst).sum(sigma)`` computes each
    new node's path count (sum over its BFS-DAG predecessors — exact
    int64), a packed-key ANTI join vs the visited set keeps only the
    new level.  Levels are kept as separate materialized Datasets so
    the backward pass never rescans the union.

    Backward (per level, deepest first): each (seed, w) row emits the
    per-edge credit ``round(SCALE*(1+delta_w)/sigma_w)`` — rounded
    ONCE per row, summed exactly in int64 — through the same
    adjacency join; an inner join against the level-(d) table keeps
    true BFS-DAG predecessors and attaches sigma_v, giving
    ``delta_v = sigma_v * credit_sum / SCALE``.  Every per-node value
    is a pure function of exact ints, so the result is deterministic
    under any partitioning.

    Output: (node, betweenness) for every node reached by any seed
    BFS, betweenness = sum of dependencies / 2 (undirected pair
    symmetry), rounded to 6.  Driver state: per-round row counts and
    one max-sigma guard scalar — never node-sized."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import (
        _collect_small,
        _schemaful,
        broadcast_semi_join,
    )

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit
    out_schema = pa.schema(
        [("node", pa.string()), ("betweenness", pa.float64())]
    )

    edges = _distinct_adjacency(triples, directed=False)
    if edges is None:
        return ray.data.from_arrow(out_schema.empty_table())
    edges = edges.materialize()

    if seeds is None:
        from renard_ray.ops.hashagg import hash_aggregate as _hagg

        deg = _hagg(edges, "src", [("", "count_all", "deg")])
        top = deg.sort(["deg", "src"], descending=[True, False]).limit(n_seeds)
        seeds = [r["src"] for r in top.take_all()]
    seeds = sorted(set(seeds))
    if not seeds:
        return ray.data.from_arrow(out_schema.empty_table())

    def _packed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "sk",
            pc.binary_join_element_wise(
                batch.column("seed"), batch.column("node"), "\x1f"
            ),
        )

    small_edges = _collect_small(edges, limit)
    edges_ref = (
        ray.put(small_edges.combine_chunks())
        if small_edges is not None
        else None
    )

    def expand(ds: Dataset, payload: str) -> Dataset:
        """(seed, node, <payload>) x adjacency -> (seed, node=dst,
        <payload>) neighbor fan-out, size-adaptive."""
        if edges_ref is not None:

            def bcast(batch: pa.Table) -> pa.Table:
                et = ray.get(edges_ref)
                j = batch.join(
                    et, keys=["node"], right_keys=["src"], join_type="inner"
                )
                return pa.table(
                    {
                        "seed": j.column("seed"),
                        "node": j.column("dst"),
                        payload: j.column(payload),
                    }
                )

            return ds.map_batches(bcast, batch_format="pyarrow")
        dsne = _schemaful(ds)
        if dsne is None:
            return ray.data.from_arrow(
                pa.table(
                    {"seed": pa.array([], pa.string()),
                     "node": pa.array([], pa.string()),
                     payload: pa.array([], pa.int64())}
                )
            )
        return hash_join(dsne, edges, "node", "src").map_batches(
            lambda b: pa.table(
                {
                    "seed": b.column("seed"),
                    "node": b.column("dst"),
                    payload: b.column(payload),
                }
            ),
            batch_format="pyarrow",
        )

    # ---- forward: levels[d] = (seed, node, sigma), materialized ----
    lev0 = ray.data.from_arrow(
        pa.table(
            {
                "seed": pa.array(seeds, pa.string()),
                "node": pa.array(seeds, pa.string()),
                "sigma": pa.array([1] * len(seeds), pa.int64()),
            }
        )
    ).materialize()
    levels = [lev0]
    visited = lev0.map_batches(_packed, batch_format="pyarrow").select_columns(
        ["sk"]
    ).materialize()

    for _h in range(1, max_hops + 1):
        cand = (
            _hagg_auto(expand(levels[-1], "sigma"), ["seed", "node"], [('sigma', 'sum', 'sigma')])
        )
        new = broadcast_semi_join(
            cand.map_batches(_packed, batch_format="pyarrow"),
            visited, on="sk", right_on="sk", anti=True, limit=limit,
        ).select_columns(["seed", "node", "sigma"]).materialize()
        if new.count() == 0:
            break
        # sigma rides exact int64 sums; a path-count blowup past the
        # float53 regime the backward division assumes fails LOUDLY
        smax = int(new.max("sigma"))
        if smax >= 2**53:
            raise ValueError(
                f"betweenness_dataset: path-count sigma={smax} exceeds "
                "2^53 — shortest-path counts on this graph overflow the "
                "dependency division's exact-float regime"
            )
        levels.append(new)
        visited = visited.union(
            new.map_batches(_packed, batch_format="pyarrow").select_columns(
                ["sk"]
            )
        ).materialize()
    else:
        import logging

        logging.getLogger(__name__).warning(
            "betweenness_dataset: frontier still non-empty after "
            "max_hops=%d — dependencies beyond that depth are dropped",
            max_hops,
        )

    # ---- backward: dependency accumulation, deepest level first ----
    def with_delta0(ds: Dataset) -> Dataset:
        return ds.map_batches(
            lambda b: b.append_column(
                "delta", pa.array(np.zeros(b.num_rows), pa.float64())
            ),
            batch_format="pyarrow",
        )

    acc: Dataset | None = None  # (seed, node, delta) for levels >= 1
    cur = with_delta0(levels[-1]).materialize()
    for d in range(len(levels) - 2, -1, -1):
        # cur is level d+1 (levels dmax..1 over the loop): accumulate
        contrib = cur.select_columns(["seed", "node", "delta"])
        acc = contrib if acc is None else acc.union(contrib)

        def credit(batch: pa.Table) -> pa.Table:
            s = np.asarray(batch.column("sigma"), dtype=np.float64)
            dl = np.asarray(batch.column("delta"), dtype=np.float64)
            cf = (1.0 + dl) / s * _BC_SCALE
            # loud, like the forward sigma guard: a silent int64 wrap
            # would corrupt every downstream dependency sum
            if cf.size and float(np.max(cf)) >= 2.0**62:
                raise ValueError(
                    "betweenness_dataset: dependency credit "
                    f"{float(np.max(cf)):.3g} exceeds the int64 "
                    "fixed-point range — lower _BC_SCALE for graphs "
                    "with dependencies this large"
                )
            c = np.rint(cf).astype(np.int64)
            return pa.table(
                {
                    "seed": batch.column("seed"),
                    "node": batch.column("node"),
                    "c": pa.array(c, pa.int64()),
                }
            )

        sums = _schemaful(
            _hagg_auto(expand(cur.map_batches(credit, batch_format="pyarrow"), "c"), ["seed", "node"], [('c', 'sum', 'csum')])
            .map_batches(_packed, batch_format="pyarrow")
            .select_columns(["sk", "csum"])
        )
        if sums is None:
            sums = ray.data.from_arrow(
                pa.table(
                    {"sk": pa.array([], pa.string()),
                     "csum": pa.array([], pa.int64())}
                )
            )
        ld = levels[d].map_batches(_packed, batch_format="pyarrow")
        small_sums = _collect_small(sums, limit)
        if small_sums is not None:
            sref = ray.put(small_sums.combine_chunks())

            def attach(batch: pa.Table) -> pa.Table:
                st = ray.get(sref)
                j = batch.join(st, keys=["sk"], join_type="inner")
                return j.select(["seed", "node", "sigma", "csum"])

            joined = ld.map_batches(attach, batch_format="pyarrow")
        else:
            ldne = _schemaful(ld)
            joined = (
                hash_join(ldne, sums, "sk").select_columns(
                    ["seed", "node", "sigma", "csum"]
                )
                if ldne is not None
                else ray.data.from_arrow(
                    pa.table(
                        {"seed": pa.array([], pa.string()),
                         "node": pa.array([], pa.string()),
                         "sigma": pa.array([], pa.int64()),
                         "csum": pa.array([], pa.int64())}
                    )
                )
            )

        def to_delta(batch: pa.Table) -> pa.Table:
            sg = np.asarray(batch.column("sigma"), dtype=np.float64)
            cs = np.asarray(batch.column("csum"), dtype=np.float64)
            return pa.table(
                {
                    "seed": batch.column("seed"),
                    "node": batch.column("node"),
                    "sigma": batch.column("sigma"),
                    "delta": pa.array(sg * cs / _BC_SCALE, pa.float64()),
                }
            )

        # materialize once: got (below) and the union both consume nxt
        nxt = joined.map_batches(
            to_delta, batch_format="pyarrow"
        ).materialize()
        # BFS-DAG leaves at level d (no successors) carry delta 0 but
        # must still flow downward as (1+0)/sigma sources next round
        got = nxt.select_columns(["seed", "node"]).map_batches(
            _packed, batch_format="pyarrow"
        ).select_columns(["sk"])
        rest = with_delta0(
            broadcast_semi_join(
                levels[d].map_batches(_packed, batch_format="pyarrow"),
                got, on="sk", right_on="sk", anti=True, limit=limit,
            ).select_columns(["seed", "node", "sigma"])
        )
        cur = nxt.union(rest).materialize()

    # level 0 rows are each seed itself — dependency not accumulated
    if acc is None:
        return ray.data.from_arrow(out_schema.empty_table())

    def fixed(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("delta"), dtype=np.float64)
        return pa.table(
            {
                "node": batch.column("node"),
                "dfp": pa.array(
                    np.rint(d * 1_000_000).astype(np.int64), pa.int64()
                ),
            }
        )

    total = (
        _hagg_auto(acc.map_batches(fixed, batch_format="pyarrow"), "node", [('dfp', 'sum', 'dfp')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("dfp"), dtype=np.float64) / 1_000_000.0
        return pa.table(
            {
                "node": batch.column("node"),
                "betweenness": pa.array(np.round(v / 2.0, 6), pa.float64()),
            }
        )

    return total.map_batches(finalize, batch_format="pyarrow").sort("node")


def ego_subgraph_dataset(
    triples: Dataset,
    seeds: "list[str] | None" = None,
    n_seeds: int = 3,
    hops: int = 2,
    broadcast_limit: int | None = None,
) -> Dataset:
    """k-hop ego network of a seed set: every aggregated triple whose
    BOTH endpoints lie within ``hops`` of the seeds (undirected
    reachability) — the "show me the neighborhood of these entities"
    query, and the standard subgraph-sampling primitive for GNN-style
    training.

    Shape: one multi-source BFS (``bfs_hops_dataset`` machinery —
    per-round semi joins, never node-sized on the driver) to get the
    member set, then TWO packed-key SEMI joins of the triple table
    against it (subj then obj) — broadcast while the member set fits
    the row budget, hash join past it.  The triple payload streams;
    only (node) keys ride the membership exchange.

    Output: (subj, pred, obj, weight) of the induced subgraph,
    sorted."""
    from renard_ray.ops.relational import broadcast_semi_join

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit
    members = bfs_hops_dataset(
        triples, seeds=seeds, n_seeds=n_seeds, max_hops=hops,
        broadcast_limit=limit,
    ).select_columns(["node"]).materialize()
    out_schema = pa.schema(
        [
            ("subj", pa.string()), ("pred", pa.string()),
            ("obj", pa.string()), ("weight", pa.float64()),
        ]
    )
    if members.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    kept = broadcast_semi_join(
        triples.select_columns(["subj", "pred", "obj", "weight"]),
        members, on="subj", right_on="node", limit=limit,
    )
    kept = broadcast_semi_join(
        kept, members, on="obj", right_on="node", limit=limit,
    )
    return kept.sort(["subj", "pred", "obj"])


def shortest_path_dataset(
    triples: Dataset,
    src: str,
    dst: str,
    max_hops: int = 25,
    broadcast_limit: int | None = None,
) -> Dataset:
    """ONE shortest path between two entities (undirected, unweighted
    BFS) with deterministic tie-breaks: when several predecessors
    reach a node in the same round, the lexicographically smallest
    parent wins (one ``groupby(node).min(parent)`` — exact, partition-
    independent).

    Forward: the standard per-round frontier expansion (size-adaptive
    adjacency join + groupby + packed... ANTI vs visited), keeping one
    small (node, parent) Dataset PER LEVEL; stops as soon as ``dst``
    appears.  Backtrack: <= path-length driver steps, each a filter of
    one level table for a single node — the driver only ever holds the
    path itself.

    Output: (step, node) from src (step 0) to dst, or an EMPTY table
    when dst is unreachable within ``max_hops``."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import (
        _collect_small,
        _schemaful,
        broadcast_semi_join,
    )

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit
    out_schema = pa.schema([("step", pa.int64()), ("node", pa.string())])
    if src == dst:
        return ray.data.from_arrow(
            pa.table({"step": pa.array([0], pa.int64()),
                      "node": pa.array([src], pa.string())})
        )

    edges = _distinct_adjacency(triples, directed=False)
    if edges is None:
        return ray.data.from_arrow(out_schema.empty_table())
    edges = edges.materialize()

    small_edges = _collect_small(edges, limit)
    edges_ref = (
        ray.put(small_edges.combine_chunks())
        if small_edges is not None
        else None
    )

    frontier = ray.data.from_arrow(
        pa.table({"node": pa.array([src], pa.string())})
    ).materialize()
    visited = frontier
    levels: list[Dataset] = []  # levels[i] = (node, parent) at hops i+1
    found_at = -1

    for h in range(1, max_hops + 1):
        if edges_ref is not None:

            def expand(batch: pa.Table) -> pa.Table:
                et = ray.get(edges_ref)
                j = batch.join(
                    et, keys=["node"], right_keys=["src"], join_type="inner"
                )
                return pa.table(
                    {"node": j.column("dst"), "parent": j.column("node")}
                )

            cand = frontier.map_batches(expand, batch_format="pyarrow")
        else:
            fne = _schemaful(frontier)
            cand = (
                hash_join(fne, edges, "node", "src").map_batches(
                    lambda b: pa.table(
                        {"node": b.column("dst"), "parent": b.column("node")}
                    ),
                    batch_format="pyarrow",
                )
                if fne is not None
                else ray.data.from_arrow(
                    pa.table({"node": pa.array([], pa.string()),
                              "parent": pa.array([], pa.string())})
                )
            )
        picked = _hagg_auto(cand, "node", [('parent', 'min', 'parent')])
        new = broadcast_semi_join(
            picked, visited.select_columns(["node"]),
            on="node", right_on="node", anti=True, limit=limit,
        ).materialize()
        if new.count() == 0:
            return ray.data.from_arrow(out_schema.empty_table())
        levels.append(new)
        hit = new.map_batches(
            lambda b, _d=dst: b.filter(pc.equal(b.column("node"), _d)),
            batch_format="pyarrow",
        )
        if hit.count() > 0:
            found_at = h
            break
        visited = visited.union(new.select_columns(["node"])).materialize()
        frontier = new.select_columns(["node"])
    if found_at < 0:
        return ray.data.from_arrow(out_schema.empty_table())

    # backtrack: <= path-length tiny filters, driver holds the path only
    path = [dst]
    cur = dst
    for lvl in range(found_at - 1, -1, -1):
        rows = levels[lvl].map_batches(
            lambda b, _c=cur: b.filter(pc.equal(b.column("node"), _c)),
            batch_format="pyarrow",
        ).take_all()
        cur = rows[0]["parent"]
        path.append(cur)
    path.reverse()
    assert path[0] == src
    return ray.data.from_arrow(
        pa.table(
            {
                "step": pa.array(list(range(len(path))), pa.int64()),
                "node": pa.array(path, pa.string()),
            }
        )
    )


def label_spreading_dataset(
    triples: Dataset,
    seed_labels: "list[tuple[str, str]]",
    max_rounds: int = 15,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Semi-supervised label propagation from a SEED set (Zhu &
    Ghahramani 2002 — public reference), the classification sibling of
    the community-detection LP: seeds are CLAMPED, every other node
    synchronously takes the weighted-majority label of its labeled
    neighbors each round (edge weights as exact centi-integers; ties
    broken lexicographically on the label), until no label changes or
    ``max_rounds``.

    Per round: ONE adjacency⋈labels hash/broadcast join, ONE
    ``groupby(dst, label).sum`` of int64 centi-weights, ONE
    ``groupby(dst).min`` over the packed (inverted-weight, label) key
    (the repo's deterministic argmax encoding), a seed-clamp ANTI
    join, and ONE packed-key ANTI join for change detection — driver
    state is a changed-row count per round.

    Output: (node, label, hops-free) — every node that acquired a
    label; unreachable nodes are absent."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import (
        _collect_small,
        _schemaful,
        broadcast_semi_join,
    )

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit
    out_schema = pa.schema([("node", pa.string()), ("label", pa.string())])
    if not seed_labels:
        return ray.data.from_arrow(out_schema.empty_table())
    by_node: dict[str, str] = {}
    for n, l in seed_labels:
        if by_node.setdefault(n, l) != l:
            raise ValueError(
                f"label_spreading_dataset: node {n!r} seeded with "
                f"conflicting labels {by_node[n]!r} and {l!r}"
            )

    # weighted both-direction adjacency with exact centi-weights
    def both(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        w = pc.cast(
            pc.round(
                pc.multiply(pc.cast(batch.column("weight"), pa.float64()), 100.0)
            ),
            pa.int64(),
        ).combine_chunks()
        t = pa.table(
            {
                "src": pa.concat_arrays([s, o]),
                "dst": pa.concat_arrays([o, s]),
                "w": pa.concat_arrays([w, w]),
            }
        )
        return t.filter(pc.not_equal(t.column("src"), t.column("dst")))

    edges = (
        _hagg_auto(triples.select_columns(["subj", "obj", "weight"])
        .map_batches(both, batch_format="pyarrow"), ["src", "dst"], [('w', 'sum', 'w')])
        .materialize()
    )
    if edges.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(
                        [n for n, _l in sorted(set(seed_labels))], pa.string()
                    ),
                    "label": pa.array(
                        [l for _n, l in sorted(set(seed_labels))], pa.string()
                    ),
                }
            )
        )

    seed_tab = pa.table(
        {
            "node": pa.array([n for n, _l in sorted(set(seed_labels))]),
            "label": pa.array([l for _n, l in sorted(set(seed_labels))]),
        }
    )
    seeds_ds = ray.data.from_arrow(seed_tab).materialize()

    small_edges = _collect_small(edges, limit)
    edges_ref = (
        ray.put(small_edges.combine_chunks())
        if small_edges is not None
        else None
    )

    def argmax_label(batch: pa.Table) -> pa.Table:
        """Pack (inverted weight, label) so groupby-Min = (max weight,
        then lexicographically smallest label)."""
        w = np.asarray(batch.column("wsum"), dtype=np.int64)
        assert (w < 10**16).all() and (w >= 0).all(), (
            "label_spreading: weight sum outside the packed-key range"
        )
        inv = pc.utf8_lpad(
            pc.cast(pa.array(10**16 - 1 - w, pa.int64()), pa.string()),
            16, "0",
        )
        key = pc.binary_join_element_wise(inv, batch.column("label"), "\x1f")
        return pa.table({"node": batch.column("dst"), "pk": key})

    labels = seeds_ds
    for _round in range(max_rounds):
        lab = labels
        if edges_ref is not None:

            def msg(batch: pa.Table) -> pa.Table:
                et = ray.get(edges_ref)
                j = batch.join(
                    et, keys=["node"], right_keys=["src"], join_type="inner"
                )
                return pa.table(
                    {
                        "dst": j.column("dst"),
                        "label": j.column("label"),
                        "w": j.column("w"),
                    }
                )

            msgs = lab.map_batches(msg, batch_format="pyarrow")
        else:
            lne = _schemaful(lab)
            msgs = (
                hash_join(lne, edges, "node", "src").map_batches(
                    lambda b: pa.table(
                        {
                            "dst": b.column("dst"),
                            "label": b.column("label"),
                            "w": b.column("w"),
                        }
                    ),
                    batch_format="pyarrow",
                )
                if lne is not None
                else ray.data.from_arrow(
                    pa.table(
                        {"dst": pa.array([], pa.string()),
                         "label": pa.array([], pa.string()),
                         "w": pa.array([], pa.int64())}
                    )
                )
            )
        best = _hagg_auto(
            _hagg_auto(msgs, ["dst", "label"], [("w", "sum", "wsum")])
            .map_batches(argmax_label, batch_format="pyarrow"),
            "node",
            [("pk", "min", "pk")],
        )

        def decode(batch: pa.Table) -> pa.Table:
            lab_arr = pc.utf8_slice_codeunits(
                batch.column("pk"), 17, 2**31 - 1
            )
            return pa.table({"node": batch.column("node"), "label": lab_arr})

        prop = best.map_batches(decode, batch_format="pyarrow")
        # seeds stay clamped: drop propagated rows for seed nodes
        prop = broadcast_semi_join(
            prop, seeds_ds.select_columns(["node"]),
            on="node", right_on="node", anti=True, limit=limit,
        )
        new_labels = seeds_ds.union(prop).materialize()

        # change detection: any (node, label) in new not in old?
        def packed_nl(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "k": pc.binary_join_element_wise(
                        batch.column("node"), batch.column("label"), "\x1f"
                    )
                }
            )

        changed = broadcast_semi_join(
            new_labels.map_batches(packed_nl, batch_format="pyarrow"),
            labels.map_batches(packed_nl, batch_format="pyarrow"),
            on="k", right_on="k", anti=True, limit=limit,
        ).count()
        labels = new_labels
        if changed == 0:
            break
    else:
        import logging

        logging.getLogger(__name__).warning(
            "label_spreading_dataset: labels not stable after "
            "max_rounds=%d (synchronous LP can oscillate) — returning "
            "the last assignment",
            max_rounds,
        )
    return labels.sort(["node"])


def weighted_distances_dataset(
    triples: Dataset,
    seeds: "list[str] | None" = None,
    n_seeds: int = 3,
    max_rounds: int = 50,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Single-source-set WEIGHTED shortest distances (non-negative
    weights) by frontier-based Bellman-Ford — the Pregel SSSP shape:
    only nodes whose distance improved last round send messages, so a
    round touches the active frontier x its edges, not the whole
    graph; the fixpoint (empty frontier) is exact SSSP.

    Edge length = the triple weight in exact centi-integers (parallel
    edges collapse to their MINIMUM — the shortest-path-relevant one —
    in the same distinct-pair groupby that drops self-loops).  All
    arithmetic is int64 mins/sums: deterministic under any
    partitioning, no float accumulation.

    Per round: ONE frontier⋈adjacency join (size-adaptive broadcast /
    hash), ONE ``groupby(node).min`` of candidate distances, ONE
    lookup join against the current distance table + filter to the
    strict improvements, ONE ANTI join to splice the improved rows in.
    Driver state: the improved-row count.

    Output: (node, dist_centi, dist) for every reachable node (seeds
    at 0)."""
    import pyarrow.compute as pc

    from renard_ray.ops.relational import (
        _collect_small,
        _schemaful,
        broadcast_semi_join,
    )

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit
    out_schema = pa.schema(
        [
            ("node", pa.string()),
            ("dist_centi", pa.int64()),
            ("dist", pa.float64()),
        ]
    )

    def both(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        w = pc.cast(
            pc.round(
                pc.multiply(pc.cast(batch.column("weight"), pa.float64()), 100.0)
            ),
            pa.int64(),
        ).combine_chunks()
        t = pa.table(
            {
                "src": pa.concat_arrays([s, o]),
                "dst": pa.concat_arrays([o, s]),
                "w": pa.concat_arrays([w, w]),
            }
        )
        t = t.filter(pc.not_equal(t.column("src"), t.column("dst")))
        if t.num_rows and pc.min(t.column("w")).as_py() < 0:
            raise ValueError(
                "weighted_distances_dataset: negative edge weight — "
                "Bellman-Ford over non-negative lengths only (fix the "
                "input, don't let it be silently edited)"
            )
        return t

    edges = (
        _hagg_auto(triples.select_columns(["subj", "obj", "weight"])
        .map_batches(both, batch_format="pyarrow"), ["src", "dst"], [('w', 'min', 'w')])  # parallel edges: shortest
        .materialize()
    )
    if edges.count() == 0:
        rows = sorted(set(seeds or []))
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(rows, pa.string()),
                    "dist_centi": pa.array([0] * len(rows), pa.int64()),
                    "dist": pa.array([0.0] * len(rows), pa.float64()),
                }
            )
        )

    if seeds is None:
        from renard_ray.ops.hashagg import hash_aggregate as _hagg

        deg = _hagg(edges, "src", [("", "count_all", "deg")])
        top = deg.sort(["deg", "src"], descending=[True, False]).limit(n_seeds)
        seeds = [r["src"] for r in top.take_all()]
    seeds = sorted(set(seeds))
    if not seeds:
        return ray.data.from_arrow(out_schema.empty_table())

    small_edges = _collect_small(edges, limit)
    edges_ref = (
        ray.put(small_edges.combine_chunks())
        if small_edges is not None
        else None
    )

    dist = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(seeds, pa.string()),
                "d": pa.array([0] * len(seeds), pa.int64()),
            }
        )
    ).materialize()
    frontier = dist

    for _round in range(max_rounds):
        if edges_ref is not None:

            def relax(batch: pa.Table) -> pa.Table:
                et = ray.get(edges_ref)
                j = batch.join(
                    et, keys=["node"], right_keys=["src"], join_type="inner"
                )
                return pa.table(
                    {
                        "node": j.column("dst"),
                        "cand": pc.add(j.column("d"), j.column("w")),
                    }
                )

            cands = frontier.map_batches(relax, batch_format="pyarrow")
        else:
            fne = _schemaful(frontier)
            cands = (
                hash_join(fne, edges, "node", "src").map_batches(
                    lambda b: pa.table(
                        {
                            "node": b.column("dst"),
                            "cand": pc.add(b.column("d"), b.column("w")),
                        }
                    ),
                    batch_format="pyarrow",
                )
                if fne is not None
                else ray.data.from_arrow(
                    pa.table(
                        {"node": pa.array([], pa.string()),
                         "cand": pa.array([], pa.int64())}
                    )
                )
            )
        best = _hagg_auto(cands, "node", [('cand', 'min', 'cand')])

        # keep strict improvements: LEFT-attach the current distance
        cur_small = _collect_small(dist, limit)
        if cur_small is not None:
            dref = ray.put(cur_small.combine_chunks())

            def improved_f(batch: pa.Table) -> pa.Table:
                dt = ray.get(dref)
                idx = pc.index_in(
                    batch.column("node"), value_set=dt.column("node")
                )
                old = pc.take(dt.column("d"), idx)  # null when absent
                keep = pc.fill_null(
                    pc.less(batch.column("cand"), old), True
                )
                kept = batch.filter(keep)
                return pa.table(
                    {"node": kept.column("node"), "d": kept.column("cand")}
                )

            improved = best.map_batches(
                improved_f, batch_format="pyarrow"
            ).materialize()
        else:
            bne = _schemaful(best)
            dne = _schemaful(dist)
            if bne is None or dne is None:  # no candidates this round
                break
            joined = hash_join(
                bne,
                dne.map_batches(
                    lambda b: pa.table(
                        {"node": b.column("node"), "old": b.column("d")}
                    ),
                    batch_format="pyarrow",
                ),
                "node",
                how="left outer",
            )
            improved = joined.map_batches(
                lambda b: (
                    lambda kept: pa.table(
                        {
                            "node": kept.column("node"),
                            "d": kept.column("cand"),
                        }
                    )
                )(
                    b.filter(
                        pc.fill_null(
                            pc.less(b.column("cand"), b.column("old")), True
                        )
                    )
                ),
                batch_format="pyarrow",
            ).materialize()
        if improved.count() == 0:
            break
        stale = broadcast_semi_join(
            dist, improved.select_columns(["node"]),
            on="node", right_on="node", anti=True, limit=limit,
        )
        dist = stale.union(improved).materialize()
        frontier = improved
    else:
        import logging

        logging.getLogger(__name__).warning(
            "weighted_distances_dataset: frontier still active after "
            "max_rounds=%d — distances may not be final on "
            "high-diameter / tiny-weight graphs", max_rounds,
        )

    def finish(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("d"), dtype=np.int64)
        return pa.table(
            {
                "node": batch.column("node"),
                "dist_centi": batch.column("d"),
                "dist": pa.array(d / 100.0, pa.float64()),
            }
        )

    return dist.map_batches(finish, batch_format="pyarrow").sort("node")


def assortativity_dataset(triples: Dataset) -> Dataset:
    """Newman degree assortativity (Newman 2002): the Pearson
    correlation of endpoint degrees over the symmetrized edge list —
    r < 0 is the hub-to-leaf wiring real web/entity graphs show,
    r > 0 the core-periphery social shape; a one-row corpus-health
    readout for the KG.

    Shape: one ``degree_dataset`` reduce, TWO size-adaptive lookup
    joins attaching the endpoint degrees to the edge stream (broadcast
    under the row budget, hash join past it), then exact mergeable
    moment sums per batch.  Degrees reach graph order (~1e9) so their
    squares are ~1e18 per row and any plain int64 sum would wrap
    almost immediately — all three quadratic sums ride as normalized
    base-2^31 limb pairs (``_limb_sums``), recombined into Python
    bignums for the closed form.  For the symmetrized pair set
    Sx == Sy and Sxx == Syy, so r = (m*Sxy - Sx^2) / (m*Sxx - Sx^2)
    exactly, with one float division at the end (9 dp).
    """
    from renard_ray.ops.relational import (
        _limb_sums,
        broadcast_lookup_join,
    )

    deg = degree_dataset(triples)

    def as_deg(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": batch.column("node"),
                    col: pc.cast(batch.column("n_edges"), pa.int64()),
                }
            )

        return fn

    edges = triples.select_columns(["subj", "obj"])
    e1 = broadcast_lookup_join(
        edges,
        deg.map_batches(as_deg("deg_x"), batch_format="pyarrow"),
        on="subj",
        right_on="node",
        payload=["deg_x"],
    )
    e2 = broadcast_lookup_join(
        e1,
        deg.map_batches(as_deg("deg_y"), batch_format="pyarrow"),
        on="obj",
        right_on="node",
        payload=["deg_y"],
    )

    def moments(batch: pa.Table) -> pa.Table:
        dx = batch.column("deg_x").to_numpy().astype(np.int64)
        dy = batch.column("deg_y").to_numpy().astype(np.int64)
        m = 2 * len(dx)
        s_hi, s_lo = _limb_sums(dx + dy)  # Sx == Sy over the symmetrized set
        q_hi, q_lo = _limb_sums(dx * dx + dy * dy)
        p_hi, p_lo = _limb_sums(2 * dx * dy)
        return pa.table(
            {
                "m": pa.array([m], pa.int64()),
                "s_hi": pa.array([s_hi], pa.int64()),
                "s_lo": pa.array([s_lo], pa.int64()),
                "q_hi": pa.array([q_hi], pa.int64()),
                "q_lo": pa.array([q_lo], pa.int64()),
                "p_hi": pa.array([p_hi], pa.int64()),
                "p_lo": pa.array([p_lo], pa.int64()),
            }
        )

    agg = e2.map_batches(moments, batch_format="pyarrow").aggregate(
        *[Sum(c, alias_name=c) for c in ("m s_hi s_lo q_hi q_lo p_hi p_lo".split())]
    )

    shift = 31
    # Ray's whole-dataset aggregate returns None (not a dict) when the
    # input has no rows at all
    m = int(agg["m"] or 0) if agg else 0
    if m == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_edges": pa.array([0], pa.int64()),
                    "assortativity": pa.array([float("nan")], pa.float64()),
                }
            )
        )
    s = (int(agg["s_hi"]) << shift) + int(agg["s_lo"])
    q = (int(agg["q_hi"]) << shift) + int(agg["q_lo"])
    p = (int(agg["p_hi"]) << shift) + int(agg["p_lo"])
    num = m * p - s * s
    den = m * q - s * s
    r = float("nan") if den == 0 else round(float(num) / float(den), 9)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([m // 2], pa.int64()),
                "assortativity": pa.array([r], pa.float64()),
            }
        )
    )


def events_bipartite_assortativity(sf_dir: str) -> Dataset:
    """Degree assortativity of the user <-> event-type bipartite graph
    (distinct incidence edges, node ids namespaced so the two sides
    can't collide) — the oracle-checkable instantiation of
    :func:`assortativity_dataset`: unlike the KG fixture (a complete
    closed-cast clique, degree-regular, honest NaN), the bipartite
    incidence graph has real degree variance, so the exact limb-sum
    moment path is value-hashed against a DuckDB HUGEINT mirror of
    the same closed form."""
    from renard_ray.ops.relational import _read

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def edges(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "subj": pc.binary_join_element_wise(
                    "u:", pc.cast(batch.column("user_id"), pa.string()), ""
                ),
                "obj": pc.binary_join_element_wise(
                    "t:", batch.column("event_type"), ""
                ),
            }
        )
        # per-batch dedup combiner ahead of the global distinct
        return t.group_by(["subj", "obj"]).aggregate([])

    from renard_ray.ops.hashagg import hash_aggregate

    distinct = hash_aggregate(
        ds.map_batches(edges, batch_format="pyarrow", batch_size=None),
        ["subj", "obj"],
        [],
    )

    def shape(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "subj": batch.column("subj"),
                "pred": pa.array(["uses"] * n, pa.string()),
                "obj": batch.column("obj"),
                "weight": pa.array([1.0] * n, pa.float64()),
            }
        )

    return assortativity_dataset(
        distinct.map_batches(shape, batch_format="pyarrow")
    )


def reciprocity_dataset(triples: Dataset) -> Dataset:
    """Directed-graph reciprocity: the fraction of distinct (subj, obj)
    edges whose reverse (obj, subj) is also present — near 1 on mutual
    graphs (conversation networks), near 0 on hierarchy/citation
    shapes; a one-row directionality readout for the relation layer.

    Shape: ONE distinct groupby over packed edge keys (per-batch dedup
    combiner first), then the size-adaptive semi join of the key set
    against its own reversed copy (broadcast under the row budget,
    hash join past it) and two O(1)-row counts.  Self-loops count as
    reciprocal by construction (their reverse is themselves), matching
    the common definition.  Output ppm is the exact half-away integer
    recipe, so the row is reproducible bit-for-bit."""
    from renard_ray.ops.relational import broadcast_semi_join

    SEP = "\x1f"

    def keys(batch: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            batch.column("subj"), batch.column("obj"), SEP
        )
        rk = pc.binary_join_element_wise(
            batch.column("obj"), batch.column("subj"), SEP
        )
        t = pa.table({"k": k, "rk": rk})
        return t.group_by(["k", "rk"]).aggregate([])  # per-batch dedup

    from renard_ray.ops.hashagg import hash_aggregate

    distinct = hash_aggregate(
        triples.map_batches(keys, batch_format="pyarrow", batch_size=None),
        ["k", "rk"],
        [],
    ).materialize()
    n_edges = distinct.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_edges": pa.array([0], pa.int64()),
                    "n_reciprocal": pa.array([0], pa.int64()),
                    "reciprocity_ppm": pa.array([0], pa.int64()),
                }
            )
        )
    mutual = broadcast_semi_join(
        distinct.select_columns(["k"]),
        distinct.select_columns(["rk"]),
        on="k",
        right_on="rk",
    )
    n_rec = mutual.count()
    ppm = (2_000_000 * n_rec + n_edges) // (2 * n_edges)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_reciprocal": pa.array([n_rec], pa.int64()),
                "reciprocity_ppm": pa.array([ppm], pa.int64()),
            }
        )
    )


def graph_summary_dataset(triples: Dataset) -> Dataset:
    """One-row graph health summary: nodes, edges, density ppm, max /
    total degree, self-loop and parallel-edge counts — the first
    dashboard readout any KG build publishes.

    Shape: ONE distinct groupby over packed edge keys (counts parallel
    edges en route) + the existing degree reduce; every scalar comes
    off a bounded aggregate, nothing graph-sized reaches the driver.
    Density is the exact half-away ppm of m / (n*(n-1)/2) over
    DISTINCT undirected pairs."""
    SEP = "\x1f"

    def keys(batch: pa.Table) -> pa.Table:
        s = batch.column("subj")
        o = batch.column("obj")
        lo = pc.min_element_wise(s, o)
        hi = pc.max_element_wise(s, o)
        t = pa.table(
            {
                "k": pc.binary_join_element_wise(lo, hi, SEP),
                "self": pc.cast(pc.equal(s, o), pa.int64()),
                "n": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return (
            t.group_by(["k", "self"]).aggregate([("n", "sum")])
        ).rename_columns(["k", "self", "n"])

    per_key = (
        _hagg_auto(triples.map_batches(keys, batch_format="pyarrow", batch_size=None), ["k", "self"], [('n', 'sum', 'n')])
        .materialize()
    )
    n_rows_total = int(per_key.sum("n") or 0)
    if n_rows_total == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_nodes": pa.array([0], pa.int64()),
                    "n_edges": pa.array([0], pa.int64()),
                    "n_distinct_pairs": pa.array([0], pa.int64()),
                    "n_self_loops": pa.array([0], pa.int64()),
                    "n_parallel_extra": pa.array([0], pa.int64()),
                    "max_degree": pa.array([0], pa.int64()),
                    "density_ppm": pa.array([0], pa.int64()),
                }
            )
        )
    n_pairs = per_key.count()
    loops = per_key.filter(expr="self == 1").materialize()
    n_loop_rows = int(loops.sum("n") or 0)
    n_loop_pairs = loops.count()

    # materialize: max() and count() would otherwise each re-run the
    # whole degree reduce AND the upstream triples build
    deg = degree_dataset(triples).materialize()
    max_deg = int(deg.max("n_edges") or 0)
    n_nodes = deg.count()

    possible = n_nodes * (n_nodes - 1) // 2
    simple_pairs = n_pairs - n_loop_pairs  # distinct non-loop pairs
    density = (
        0
        if possible == 0
        else (2_000_000 * simple_pairs + possible) // (2 * possible)
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "n_nodes": pa.array([n_nodes], pa.int64()),
                "n_edges": pa.array([n_rows_total], pa.int64()),
                "n_distinct_pairs": pa.array([n_pairs], pa.int64()),
                "n_self_loops": pa.array([n_loop_rows], pa.int64()),
                "n_parallel_extra": pa.array(
                    [n_rows_total - n_pairs], pa.int64()
                ),
                "max_degree": pa.array([max_deg], pa.int64()),
                "density_ppm": pa.array([density], pa.int64()),
            }
        )
    )


def rich_club_dataset(
    triples: Dataset,
    ks: "tuple[int, ...]" = (1, 2, 4, 8, 16, 32),
    hub_budget: int = 4_000_000,
) -> Dataset:
    """Rich-club coefficient phi(k) (Colizza et al. 2006): among nodes
    with degree > k, the realized fraction of possible edges — rising
    phi(k) means hubs preferentially wire to each other (the oligarchy
    shape of web graphs), flat means hub links are incidental.

    Shape: ONE distinct-pair groupby over packed edge keys (self-loops
    and parallel edges collapse first), a SIMPLE-degree reduce over
    that same pair table (so hub selection and phi's numerator share
    one definition), then per k a broadcast hub membership mask over
    the pair table (hubs shrink as k grows, so the mask is the SMALL
    side by construction; a loud budget guards the k=min case).
    Exact half-away ppm."""
    SEP = "\x1f"

    def keys(batch: pa.Table) -> pa.Table:
        s, o = batch.column("subj"), batch.column("obj")
        keep = pc.invert(pc.equal(s, o))
        s, o = s.filter(keep), o.filter(keep)
        lo = pc.min_element_wise(s, o)
        hi = pc.max_element_wise(s, o)
        t = pa.table({"a": lo, "b": hi})
        return t.group_by(["a", "b"]).aggregate([])

    pairs = (
        _hagg_auto(triples.map_batches(keys, batch_format="pyarrow", batch_size=None), ["a", "b"], [('', 'count_all', '_n')])
        .drop_columns(["_n"])
        .materialize()
    )

    # SIMPLE degree (distinct non-loop neighbors) from the SAME pair
    # table phi's numerator counts — degree_dataset would inflate hub
    # selection with self-loops (+2) and parallel edges, contradicting
    # the Colizza definition
    def endpoints(batch: pa.Table) -> pa.Table:
        both = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks(),
                        batch.column("b").combine_chunks(),
                    ]
                )
            }
        )
        return (
            both.group_by(["node"]).aggregate([("node", "count")])
        ).rename_columns(["node", "n"])

    deg = (
        _hagg_auto(pairs.map_batches(endpoints, batch_format="pyarrow", batch_size=None), "node", [('n', 'sum', 'n_edges')])
        .materialize()
    )

    out = {"k": [], "n_hubs": [], "n_edges": [], "phi_ppm": []}
    for k in sorted(ks):
        hubs = deg.filter(expr=f"n_edges > {k}").materialize()
        n_hubs = hubs.count()
        if n_hubs > hub_budget:
            raise ValueError(
                f"rich_club: {n_hubs} hubs at k={k} exceed the broadcast "
                "budget — raise the smallest k for this graph"
            )
        if n_hubs < 2:
            out["k"].append(k)
            out["n_hubs"].append(n_hubs)
            out["n_edges"].append(0)
            out["phi_ppm"].append(0)
            continue
        hub_arr = pa.array(
            sorted(r["node"] for r in hubs.select_columns(["node"]).take_all()),
            pa.string(),
        )
        ref = ray.put(hub_arr)

        def both_hubs(batch: pa.Table) -> pa.Table:
            hs = ray.get(ref)
            ina = pc.is_valid(pc.index_in(batch.column("a"), value_set=hs))
            inb = pc.is_valid(pc.index_in(batch.column("b"), value_set=hs))
            return batch.filter(pc.and_(ina, inb))

        e_k = pairs.map_batches(both_hubs, batch_format="pyarrow").count()
        possible = n_hubs * (n_hubs - 1) // 2
        out["k"].append(k)
        out["n_hubs"].append(n_hubs)
        out["n_edges"].append(e_k)
        out["phi_ppm"].append((2_000_000 * e_k + possible) // (2 * possible))
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(out["k"], pa.int64()),
                "n_hubs": pa.array(out["n_hubs"], pa.int64()),
                "n_edges": pa.array(out["n_edges"], pa.int64()),
                "phi_ppm": pa.array(out["phi_ppm"], pa.int64()),
            }
        )
    )


def _attributed_bfs(
    triples: Dataset,
    sources: "list[str] | None",
    directed: bool,
    max_hops: "int | None",
    broadcast_limit: "int | None",
    source_limit: int,
):
    """Multi-source ATTRIBUTED BFS core shared by
    ``distance_stats_dataset`` and
    ``exact_neighborhood_function_dataset``: builds the visited pair
    table (s, v, h, hinv, pk) with the size-adaptive expansion + the
    fixpoint hop cap (see distance_stats' docstring for the full scale
    contract).  Returns (visited Dataset, names pa.Array, n_nodes), or
    None when the graph/source set is empty."""
    from renard_ray.ops.relational import (
        _collect_small,
        broadcast_semi_join,
    )

    limit = 5_000_000 if broadcast_limit is None else broadcast_limit

    # ---- bounded node vocabulary -> dense ids (broadcast once) ----
    def node_part(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("subj").combine_chunks(),
                        batch.column("obj").combine_chunks(),
                    ]
                )
            }
        )
        return t.group_by("node").aggregate([]).select(["node"])

    nodes_ds = _hagg_auto(
        triples.select_columns(["subj", "obj"]).map_batches(
            node_part, batch_format="pyarrow", batch_size=None
        ),
        "node",
        [],
    )
    if nodes_ds.count() == 0:
        return None
    # the vocabulary collection is needed for dense-id ENCODING in both
    # modes, so it is capped by the ppm arithmetic bound (2.1M), not by
    # source_limit — source_limit gates only the all-sources pair-table
    # blow-up, so the landmark escape hatch actually works on graphs
    # bigger than source_limit
    nodes_tab = _collect_small(nodes_ds, 2_100_000)
    assert nodes_tab is not None, (
        "distance_stats: node vocabulary exceeds 2.1M — closeness ppm "
        "arithmetic needs n^2 * 2e6 inside int64; use "
        "neighborhood_function_dataset (ANF) at corpus scale"
    )
    names = np.sort(
        np.asarray(nodes_tab.column("node").to_pylist(), dtype=object)
    )
    n_nodes = len(names)
    assert sources is not None or n_nodes <= source_limit, (
        "distance_stats: %d nodes exceeds source_limit=%d for exact "
        "ALL-sources BFS (the visited table is |sources| x |reachable| "
        "pairs) — pass landmark sources, or use "
        "neighborhood_function_dataset (ANF) for the whole-graph "
        "distance distribution" % (n_nodes, source_limit)
    )
    names_arr = pa.array(names, pa.string())
    names_ref = ray.put(names_arr)

    if sources is None:
        src_ids = np.arange(n_nodes, dtype=np.int64)
    else:
        want = sorted(set(sources))
        idx = pc.index_in(pa.array(want, pa.string()), value_set=names_arr)
        assert pc.count(idx, mode="only_null").as_py() == 0, (
            "distance_stats: unknown source node(s): %r"
            % [w for w, i in zip(want, idx.to_pylist()) if i is None]
        )
        src_ids = np.asarray(idx.to_pylist(), dtype=np.int64)
    if len(src_ids) == 0:
        return None

    NN = np.int64(n_nodes)

    def _pk(s: np.ndarray, v: np.ndarray) -> np.ndarray:
        return s * NN + v

    visited = ray.data.from_arrow(
        pa.table(
            {
                "s": pa.array(src_ids, pa.int64()),
                "v": pa.array(src_ids, pa.int64()),
                "h": pa.array(np.zeros(len(src_ids), np.int64)),
                "hinv": pa.array(np.zeros(len(src_ids), np.int64)),
                "pk": pa.array(_pk(src_ids, src_ids), pa.int64()),
            }
        )
    ).materialize()
    frontier = visited.select_columns(["s", "v"])

    edges = _distinct_adjacency(triples, directed=directed)
    _pair_schema = pa.schema(
        [("pk", pa.int64()), ("s", pa.int64()), ("v", pa.int64())]
    )

    if edges is not None:
        # int-encode the edge list (vocab broadcast; edges stay a Dataset)
        def encode(batch: pa.Table) -> pa.Table:
            nm = ray.get(names_ref)
            return pa.table(
                {
                    "esrc": pc.cast(
                        pc.index_in(batch.column("src"), value_set=nm),
                        pa.int64(),
                    ),
                    "edst": pc.cast(
                        pc.index_in(batch.column("dst"), value_set=nm),
                        pa.int64(),
                    ),
                }
            )

        edges_int = edges.map_batches(
            encode, batch_format="pyarrow", batch_size=None
        ).materialize()
        etab = _collect_small(edges_int, limit)
    else:
        edges_int, etab = None, None

    if edges_int is not None and etab is not None:
        # CSR broadcast path: adjacency sorted by (src, dst) once
        es = etab.column("esrc").to_numpy()
        ed = etab.column("edst").to_numpy()
        order = np.lexsort((ed, es))
        adj_ref = ray.put((es[order], ed[order]))

        def expand(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _pair_schema.empty_table()
            aes, aed = ray.get(adj_ref)
            s = batch.column("s").to_numpy()
            v = batch.column("v").to_numpy()
            lo = np.searchsorted(aes, v, side="left")
            hi = np.searchsorted(aes, v, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total == 0:
                return _pair_schema.empty_table()
            off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            take = np.repeat(lo - off, cnt) + np.arange(total, dtype=np.int64)
            ns = np.repeat(s, cnt)
            nv = aed[take]
            t = pa.table(
                {
                    "pk": pa.array(_pk(ns, nv), pa.int64()),
                    "s": pa.array(ns, pa.int64()),
                    "v": pa.array(nv, pa.int64()),
                }
            )
            return t.group_by("pk").aggregate(
                [("s", "min"), ("v", "min")]
            ).rename_columns(["pk", "s", "v"])

        def expand_frontier(fr: Dataset) -> Dataset:
            return fr.map_batches(
                expand, batch_format="pyarrow", batch_size=None
            )

    elif edges_int is not None:
        # at-scale path: ONE hash join per round, frontier x adjacency

        def expand_frontier(fr: Dataset) -> Dataset:
            joined = hash_join(fr, edges_int, "v", "esrc")

            def pair(batch: pa.Table) -> pa.Table:
                if batch.num_rows == 0:
                    return _pair_schema.empty_table()
                ns = batch.column("s").to_numpy()
                nv = batch.column("edst").to_numpy()
                t = pa.table(
                    {
                        "pk": pa.array(_pk(ns, nv), pa.int64()),
                        "s": pa.array(ns, pa.int64()),
                        "v": pa.array(nv, pa.int64()),
                    }
                )
                return t.group_by("pk").aggregate(
                    [("s", "min"), ("v", "min")]
                ).rename_columns(["pk", "s", "v"])

            return joined.map_batches(
                pair, batch_format="pyarrow", batch_size=None
            )

    else:
        expand_frontier = None

    # a shortest hop distance is < n_nodes, so n_nodes rounds always
    # reach the fixpoint (the loop breaks earlier on an empty frontier)
    # — max_hops=None therefore can NEVER truncate silently; an
    # explicit smaller max_hops is the caller opting into truncation
    hop_cap = n_nodes if max_hops is None else max_hops

    if expand_frontier is not None:
        for h in range(1, hop_cap + 1):
            reached = expand_frontier(frontier).materialize()
            if reached.count() == 0:
                break
            cand = _hagg_auto(
                reached, "pk", [("s", "min", "s"), ("v", "min", "v")]
            )
            new = broadcast_semi_join(
                cand,
                visited.select_columns(["pk"]),
                on="pk",
                anti=True,
                limit=limit,
            ).materialize()
            if new.count() == 0:
                break
            tagged = new.map_batches(
                lambda b, _h=h: pa.table(
                    {
                        "s": b.column("s"),
                        "v": b.column("v"),
                        "h": pa.array(
                            np.full(b.num_rows, _h, np.int64), pa.int64()
                        ),
                        # exact-integer harmonic term (1e6 // d): a
                        # deterministic variant both engines floor
                        # identically — no float 1/d anywhere
                        "hinv": pa.array(
                            np.full(
                                b.num_rows, 1_000_000 // _h, np.int64
                            ),
                            pa.int64(),
                        ),
                        "pk": b.column("pk"),
                    }
                ),
                batch_format="pyarrow",
            )
            visited = visited.union(tagged).materialize()
            frontier = new.select_columns(["s", "v"])
        else:
            import logging

            logging.getLogger(__name__).warning(
                "distance_stats_dataset: frontier non-empty after "
                "explicit max_hops=%d — distances beyond that are "
                "absent (only reachable with a caller-supplied cap: "
                "the default runs to the fixpoint)",
                hop_cap,
            )

    return visited, names_arr, n_nodes


def distance_stats_dataset(
    triples: Dataset,
    sources: "list[str] | None" = None,
    directed: bool = True,
    max_hops: int | None = None,
    broadcast_limit: int | None = None,
    source_limit: int = 100_000,
) -> Dataset:
    """Exact per-source BFS distance statistics — the closeness /
    eccentricity readout: for every source, the count of reachable
    nodes, the sum of shortest-hop distances, the eccentricity (max
    distance reached) and the Wasserman-Faust normalized closeness in
    exact half-away ppm ``(r/(n-1)) * (r/S)`` with r = n_reachable,
    S = dist_sum, n = |nodes|.

    Scale contract (the pair-table honesty note): the visited set is
    |sources| x |reachable| PAIRS — exact all-sources mode is for
    vocabulary-bounded graphs (<= ``source_limit`` nodes, asserted
    loudly) or an explicit landmark ``sources`` list; the whole-graph
    distance DISTRIBUTION at corpus scale is
    ``neighborhood_function_dataset`` (ANF sketch), and single-seed
    questions are ``bfs_hops_dataset``.  Everything here is int-id
    encoded: nodes get dense ids from the bounded node table ONCE
    (broadcast), pairs pack as one int64 ``s * n + v`` key (no string
    separators anywhere), and the per-round exchanges carry int64
    triples only.

    Per round, frontier expansion is size-adaptive: the distinct
    adjacency is collected ONCE into a sorted CSR and broadcast while
    it fits ``broadcast_limit`` edges (expansion is then a vectorized
    searchsorted + np.repeat inside ``map_batches`` — no shuffle at
    all); past the limit each round runs one hash join of the frontier
    against the edge Dataset (the at-scale path, force-tested via
    ``broadcast_limit=0``).  New-pair discovery is a pk-keyed distinct
    + ANTI semi-join against the visited set, and the distance table
    is unioned + materialized per round so the loop never re-executes
    its prefix (the ``bfs_hops_dataset`` convention, generalized to
    attributed multi-source).

    Output: (node, n_reachable, dist_sum, ecc, closeness_wf_ppm), one
    row per source; unreachable-from sources keep zeros."""
    out_schema = pa.schema(
        [
            ("node", pa.string()),
            ("n_reachable", pa.int64()),
            ("dist_sum", pa.int64()),
            ("ecc", pa.int64()),
            ("closeness_wf_ppm", pa.int64()),
            ("harmonic_ppm", pa.int64()),
        ]
    )

    bfs = _attributed_bfs(
        triples, sources, directed, max_hops, broadcast_limit,
        source_limit,
    )
    if bfs is None:
        return ray.data.from_arrow(out_schema.empty_table())
    visited, names_arr, n_nodes = bfs
    names_ref = ray.put(names_arr)
    NN = np.int64(n_nodes)

    stats = _hagg_auto(
        visited,
        "s",
        [
            ("h", "sum", "dist_sum"),
            ("h", "max", "ecc"),
            ("hinv", "sum", "harmonic_ppm"),
            ("", "count_all", "cnt"),
        ],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        nm = ray.get(names_ref)
        s = batch.column("s")
        r = pc.subtract(batch.column("cnt"), pa.scalar(1, pa.int64())).to_numpy()
        S = batch.column("dist_sum").to_numpy()
        ecc = batch.column("ecc").to_numpy()
        # half-away ppm of (r/(n-1)) * (r/S); den = (n-1)*S bounded by
        # the asserted vocab window: r < 2.1e6 keeps 2e6*r^2 in int64,
        # and S <= r*max_hops keeps 2*(n-1)*S well inside too
        num = 2_000_000 * r * r + (NN - 1) * S
        den = 2 * (NN - 1) * S
        ok = (r > 0) & (S > 0)
        ppm = np.zeros(len(r), np.int64)
        ppm[ok] = num[ok] // den[ok]
        return pa.table(
            {
                "node": pc.take(nm, s),
                "n_reachable": pa.array(r, pa.int64()),
                "dist_sum": batch.column("dist_sum"),
                "ecc": batch.column("ecc"),
                "closeness_wf_ppm": pa.array(ppm, pa.int64()),
                "harmonic_ppm": batch.column("harmonic_ppm"),
            }
        )

    return stats.map_batches(finalize, batch_format="pyarrow")


def katz_dataset(
    triples: Dataset,
    beta: float = 0.5,
    iters: int = 20,
    broadcast_limit: int = 50_000_000,
    driver_merge_limit: int = 1_000_000,
    driver_edge_limit: int = 2_000_000,
) -> Dataset:
    """Katz centrality ``x = sum_k beta^k (A x) + 1`` by fixed-count
    iteration ``x' = 1 + beta * (A x)`` over the undirected weighted
    edge list (each edge pushes both ways; self-loops push twice —
    the pagerank push convention).  ``beta`` is RELATIVE: the effective
    attenuation is ``beta / max(weighted_degree)`` — the weighted
    degree (self-loops counted twice) bounds the push matrix's row
    sums and hence its spectral radius, so any ``beta < 1`` converges
    at ANY scale (an absolute beta diverged on the dense sf0.1 trade
    graph, where 1e12-magnitude iterates amplified float noise past
    the round-8 gate).  ``max(weighted_degree)`` is an exact
    integer-valued float on both engines, so the division is
    bit-identical in the SQL twin.

    Two regimes, the pagerank/HITS size-adaptive convention:

    - local fast path (vocab AND edge list within the driver budgets):
      canonical-order numpy loop over ``_collect_indexed_edges``
      (layout-independent by the shared lexsort);
    - broadcast + fixed-point merge: x broadcasts per iteration, the
      per-batch contributions round to fixed-point int64 and merge in
      ONE bounded hash aggregate (integer sums are order-independent
      => deterministic under any partitioning); the driver holds only
      the dense vector.  Past ``broadcast_limit`` nodes the rank
      exchange must become join-based — ``_pagerank_join``'s plan
      applies verbatim; asserted loudly rather than silently slow."""
    import pyarrow.compute as pc

    edges = triples.select_columns(_EDGE_COLS).materialize()
    deg = degree_dataset(edges).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()),
                 "katz": pa.array([], pa.float64())}
            )
        )
    assert n_nodes <= broadcast_limit, (
        "katz: vocabulary exceeds the broadcast budget — the "
        "join-exchange regime (_pagerank_join's plan) applies; raise "
        "broadcast_limit consciously or pre-aggregate the graph"
    )
    from ray.data.aggregate import Max as _Max

    maxwd = float(
        deg.aggregate(_Max("weighted_degree", alias_name="m"))["m"]
    )
    beta = beta / max(maxwd, 1.0)

    dt = pa.concat_tables(
        [
            b
            for b in deg.select_columns(["node"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ]
    ).combine_chunks()
    dt = dt.take(pc.sort_indices(dt, sort_keys=[("node", "ascending")]))
    nodes_arr = dt.column("node").combine_chunks()

    if (
        n_nodes <= driver_merge_limit
        and edges.count() <= driver_edge_limit
    ):
        si, oi, w = _collect_indexed_edges(edges, nodes_arr)
        x = np.zeros(n_nodes, dtype=np.float64)
        for _ in range(iters):
            acc = np.zeros(n_nodes, dtype=np.float64)
            np.add.at(acc, oi, x[si] * w)
            np.add.at(acc, si, x[oi] * w)
            x = 1.0 + beta * acc
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": nodes_arr,
                    "katz": pa.array(np.round(x, 8), pa.float64()),
                }
            )
        )

    keys_ref = ray.put(nodes_arr)
    x = np.zeros(n_nodes, dtype=np.float64)
    for _ in range(iters):
        x_ref = ray.put(x)

        def contrib(batch: pa.Table, _xr=x_ref) -> pa.Table:
            import pyarrow.compute as _pc

            keys = ray.get(keys_ref)
            xv = ray.get(_xr)
            si = _pc.index_in(
                batch.column("subj").combine_chunks(), value_set=keys
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            oi = _pc.index_in(
                batch.column("obj").combine_chunks(), value_set=keys
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            w = batch.column("weight").to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            acc = np.zeros(len(xv), dtype=np.float64)
            np.add.at(acc, oi, xv[si] * w)
            np.add.at(acc, si, xv[oi] * w)
            nz = np.nonzero(acc)[0]
            # per-batch overflow must trip HERE: a wrapped int64 cast
            # would feed the merge garbage the post-merge assert (which
            # only sees the already-wrapped sum) cannot detect
            assert acc.max(initial=0.0) * _KATZ_SCALE < 2**63, (
                "katz: per-batch fixed-point overflow (acc max %.3g)"
                % acc.max(initial=0.0)
            )
            return pa.table(
                {
                    "i": pa.array(nz, pa.int64()),
                    # Katz contributions are not mass-conserving like
                    # pagerank's (acc ~ x * weighted_degree), so the
                    # fixed-point scale is 1e12, not _PR_SCALE
                    "ci": pa.array(
                        np.rint(acc[nz] * _KATZ_SCALE).astype(np.int64),
                        pa.int64(),
                    ),
                }
            )

        merged = _hagg_auto(
            edges.map_batches(contrib, batch_format="pyarrow"),
            "i",
            [("ci", "sum", "ci")],
        )
        acc = np.zeros(n_nodes, dtype=np.float64)
        for b in merged.iter_batches(batch_format="pyarrow", batch_size=None):
            if b.num_rows == 0 or "i" not in b.column_names:
                continue
            acc[b.column("i").to_numpy(zero_copy_only=False)] = (
                b.column("ci").to_numpy(zero_copy_only=False) / _KATZ_SCALE
            )
        # contributions are all non-negative, so every per-partition
        # partial sum is a prefix of the total — if the TOTAL fits
        # int64, no intermediate wrapped either; checked here, loudly
        assert acc.max(initial=0.0) * _KATZ_SCALE < 4e18, (
            "katz: fixed-point window exceeded — lower beta or the "
            "edge weights (acc max %.3g)" % acc.max(initial=0.0)
        )
        x = 1.0 + beta * acc
    return ray.data.from_arrow(
        pa.table(
            {
                "node": nodes_arr,
                "katz": pa.array(np.round(x, 8), pa.float64()),
            }
        )
    )


def eigenvector_centrality_dataset(
    triples: Dataset,
    iters: int = 30,
    broadcast_limit: int = 50_000_000,
    driver_merge_limit: int = 1_000_000,
    driver_edge_limit: int = 2_000_000,
) -> Dataset:
    """Eigenvector centrality by L1-normalized power iteration over
    the undirected weighted push (self-loops twice — the katz/pagerank
    convention): ``x' = normalize_1(A x)`` from the uniform vector,
    fixed ``iters``, round 8.  The L1 normalization keeps every
    iterate a distribution, so the fixed-point window is bounded by
    ``max(weighted_degree)`` per round (asserted loudly in the
    distributed merge like katz).

    Same two regimes as ``katz_dataset``: local canonical-order loop
    under the driver budgets, else broadcast + fixed-point int64
    merge; past ``broadcast_limit`` the join-exchange plan
    (``_pagerank_join``) applies — asserted, not silently slow."""
    import pyarrow.compute as pc

    edges = triples.select_columns(_EDGE_COLS).materialize()
    deg = degree_dataset(edges).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()),
                 "centrality": pa.array([], pa.float64())}
            )
        )
    assert n_nodes <= broadcast_limit, (
        "eigenvector: vocabulary exceeds the broadcast budget — the "
        "join-exchange regime (_pagerank_join's plan) applies"
    )

    dt = pa.concat_tables(
        [
            b
            for b in deg.select_columns(["node"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ]
    ).combine_chunks()
    dt = dt.take(pc.sort_indices(dt, sort_keys=[("node", "ascending")]))
    nodes_arr = dt.column("node").combine_chunks()

    if (
        n_nodes <= driver_merge_limit
        and edges.count() <= driver_edge_limit
    ):
        si, oi, w = _collect_indexed_edges(edges, nodes_arr)
        x = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
        for _ in range(iters):
            acc = np.zeros(n_nodes, dtype=np.float64)
            np.add.at(acc, oi, x[si] * w)
            np.add.at(acc, si, x[oi] * w)
            t = acc.sum()
            if t <= 0.0:  # no edges touch any weight: stay uniform
                break
            x = acc / t
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": nodes_arr,
                    "centrality": pa.array(np.round(x, 8), pa.float64()),
                }
            )
        )

    keys_ref = ray.put(nodes_arr)
    x = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
    for _ in range(iters):
        x_ref = ray.put(x)

        def contrib(batch: pa.Table, _xr=x_ref) -> pa.Table:
            import pyarrow.compute as _pc

            keys = ray.get(keys_ref)
            xv = ray.get(_xr)
            si = _pc.index_in(
                batch.column("subj").combine_chunks(), value_set=keys
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            oi = _pc.index_in(
                batch.column("obj").combine_chunks(), value_set=keys
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            w = batch.column("weight").to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            acc = np.zeros(len(xv), dtype=np.float64)
            np.add.at(acc, oi, xv[si] * w)
            np.add.at(acc, si, xv[oi] * w)
            nz = np.nonzero(acc)[0]
            # per-batch overflow trips deterministically before the
            # int64 cast (see the katz contrib note above)
            assert acc.max(initial=0.0) * _KATZ_SCALE < 2**63, (
                "eigenvector: per-batch fixed-point overflow (acc max %.3g)"
                % acc.max(initial=0.0)
            )
            return pa.table(
                {
                    "i": pa.array(nz, pa.int64()),
                    "ci": pa.array(
                        np.rint(acc[nz] * _KATZ_SCALE).astype(np.int64),
                        pa.int64(),
                    ),
                }
            )

        merged = _hagg_auto(
            edges.map_batches(contrib, batch_format="pyarrow"),
            "i",
            [("ci", "sum", "ci")],
        )
        acc = np.zeros(n_nodes, dtype=np.float64)
        for b in merged.iter_batches(batch_format="pyarrow", batch_size=None):
            if b.num_rows == 0 or "i" not in b.column_names:
                continue
            acc[b.column("i").to_numpy(zero_copy_only=False)] = (
                b.column("ci").to_numpy(zero_copy_only=False) / _KATZ_SCALE
            )
        assert acc.max(initial=0.0) * _KATZ_SCALE < 4e18, (
            "eigenvector: fixed-point window exceeded (acc max %.3g)"
            % acc.max(initial=0.0)
        )
        t = acc.sum()
        if t <= 0.0:
            break
        x = acc / t
    return ray.data.from_arrow(
        pa.table(
            {
                "node": nodes_arr,
                "centrality": pa.array(np.round(x, 8), pa.float64()),
            }
        )
    )


def exact_neighborhood_function_dataset(
    triples: Dataset,
    sources: "list[str] | None" = None,
    directed: bool = False,
    max_hops: int | None = None,
    broadcast_limit: int | None = None,
    source_limit: int = 100_000,
) -> Dataset:
    """EXACT neighborhood function N(t) = number of (source, node)
    pairs within distance <= t (self included) — the ground truth the
    HyperANF sketch (``ops/anf.py``) approximates, over the same
    attributed-BFS core as ``distance_stats_dataset`` (and under its
    scale contract: all-sources mode is for vocabulary-bounded graphs
    or landmark source sets; whole-corpus graphs use the ANF sketch).

    Output: (hops, n_pairs) for t = 0..eccentricity-max — n_pairs is
    CUMULATIVE, so the t=0 row is |sources| and the last row is total
    reachability; the per-t reduce is one bounded hash aggregate on h
    plus an O(diameter) driver cumsum."""
    out_schema = pa.schema([("hops", pa.int64()), ("n_pairs", pa.int64())])
    bfs = _attributed_bfs(
        triples, sources, directed, max_hops, broadcast_limit,
        source_limit,
    )
    if bfs is None:
        return ray.data.from_arrow(out_schema.empty_table())
    visited, _names, _n = bfs
    per_h = _hagg_auto(visited, "h", [("", "count_all", "c")])
    rows = sorted(
        (r["h"], r["c"])
        for b in per_h.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows and "h" in b.column_names
        for r in b.to_pylist()
    )
    hops, cum, total = [], [], 0
    for h, c in rows:
        total += c
        hops.append(h)
        cum.append(total)
    return ray.data.from_arrow(
        pa.table(
            {
                "hops": pa.array(hops, pa.int64()),
                "n_pairs": pa.array(cum, pa.int64()),
            }
        )
    )
