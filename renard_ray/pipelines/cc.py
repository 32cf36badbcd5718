"""Distributed connected components over an edge Dataset.

Used for cross-document alias canonicalization (SURVEY.md §2.4/§7.1.8):
nodes are distinct mention/name strings, edges are alias links; each
connected component is one global entity.

Two execution paths:

- ``driver`` — union-find on the driver over the *distinct* edge set
  (distinct-ed distributively first).  Distinct person-name pairs are
  orders of magnitude smaller than the corpus; up to ~10M pairs this is
  the fastest and simplest path.
- ``distributed`` — alternating large-star / small-star groupby rounds
  (Kiveris et al., "Connected Components in MapReduce and Beyond",
  SoCC'14 — public algorithm), all in Ray Data ``groupby``; converges in
  O(log n) rounds.  This is the 100 TB path: no single machine ever
  holds the full edge set.

``connected_components`` picks the path by the distinct-edge count
unless forced.
"""

from __future__ import annotations

from typing import Iterable

import pyarrow as pa

import ray
from ray.data import Dataset

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join


def _distinct_edges(edges: Dataset, u: str = "u", v: str = "v") -> Dataset:
    """Normalize (min,max) order, drop self loops, distinct."""

    def norm(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a = batch.column(u)
        b = batch.column(v)
        lo = pc.min_element_wise(a, b)
        hi = pc.max_element_wise(a, b)
        keep = pc.not_equal(lo, hi)
        t = pa.table({"u": pc.filter(lo, keep), "v": pc.filter(hi, keep)})
        # map-side dedup before the global distinct shuffle
        if t.num_rows:
            t = t.group_by(["u", "v"]).aggregate([]).select(["u", "v"])
        return t

    return (
        _hagg_auto(edges.map_batches(norm, batch_format="pyarrow"), ["u", "v"], [('', 'count_all', 'count()')])
        .select_columns(["u", "v"])
    )


def union_find(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Driver union-find: every node of a non-self-loop pair -> its
    component's label, the component's lexicographic minimum (whatever
    order the pairs come in)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
            parent.setdefault(lo, lo)
    return {x: find(x) for x in list(parent)}


def _driver_cc(edges: Dataset) -> dict[str, str]:
    """Union-find over the distinct edge list pulled to the driver."""
    return union_find(
        pair
        for batch in edges.iter_batches(batch_format="pyarrow", batch_size=65536)
        for pair in zip(batch.column("u").to_pylist(), batch.column("v").to_pylist())
    )


def _star_round(edges: Dataset, large: bool) -> Dataset:
    """One large-star or small-star round.

    Fully vectorized: per-node minimum via a stock ``groupby.min``
    (strings compare lexicographically), attached back to the edge rows
    with ONE hash join, then per-batch compute filters — no per-node
    Python calls (a ``map_groups`` over millions of tiny neighbor
    groups is framework-overhead-bound, and this is the >2M-entity
    scale path)."""
    import pyarrow.compute as pc

    def expand(batch: pa.Table) -> pa.Table:
        # emit both directions so each node sees its full neighborhood
        u = batch.column("u")
        v = batch.column("v")
        return pa.table(
            {
                "node": pa.chunked_array([u, v]).combine_chunks(),
                "nbr": pa.chunked_array([v, u]).combine_chunks(),
            }
        )

    # materialized once: the min aggregate and the join both read it
    both = edges.map_batches(expand, batch_format="pyarrow").materialize()

    def with_m(batch: pa.Table) -> pa.Table:
        # m(u) = min(N(u) ∪ {u})
        m = pc.min_element_wise(
            batch.column("node").combine_chunks(),
            batch.column("min(nbr)").combine_chunks(),
        )
        return pa.table({"node_": batch.column("node"), "m": m})

    mins_m = _hagg_auto(both, "node", [('nbr', 'min', 'min(nbr)')]).map_batches(
        with_m, batch_format="pyarrow"
    )
    joined = hash_join(both, mins_m, "node", "node_")

    def emit(batch: pa.Table) -> pa.Table:
        node = batch.column("node").combine_chunks()
        nbr = batch.column("nbr").combine_chunks()
        m = batch.column("m").combine_chunks()
        if large:
            # attach strictly-greater neighbors to the minimum
            keep = pc.greater(nbr, node)
        else:
            # attach <=-neighbors to the minimum
            keep = pc.and_(pc.less_equal(nbr, node), pc.not_equal(nbr, m))
        t = pa.table({"u": pc.filter(m, keep), "v": pc.filter(nbr, keep)})
        if t.num_rows:  # map-side dedup before the distinct shuffle
            t = t.group_by(["u", "v"]).aggregate([]).select(["u", "v"])
        return t

    out = joined.map_batches(emit, batch_format="pyarrow")
    if not large:
        # small-star also links every non-minimum node itself to m —
        # one row per node, straight from the per-node min table
        def self_rows(batch: pa.Table) -> pa.Table:
            node = batch.column("node_").combine_chunks()
            m = batch.column("m").combine_chunks()
            keep = pc.not_equal(node, m)
            return pa.table({"u": pc.filter(m, keep), "v": pc.filter(node, keep)})

        out = out.union(mins_m.map_batches(self_rows, batch_format="pyarrow"))
    return out


def _distributed_cc(edges: Dataset, max_rounds: int = 25) -> Dataset:
    """Alternating star rounds until the edge set is stable.

    Returns a (node, label) Dataset.  Each round is two groupby
    shuffles + one convergence check (count + checksum aggregate).
    """
    cur = edges
    prev_sig: tuple[int, int] | None = None
    for _ in range(max_rounds):
        cur = _star_round(cur, large=True)
        cur = _star_round(cur, large=False)
        cur = _distinct_edges(cur, "u", "v").materialize()

        def sig_batch(batch: pa.Table) -> pa.Table:
            # vectorized order-insensitive signature: polars hash_rows
            # is stable across workers within a session (same library
            # version + seed), which is all the round-over-round
            # comparison needs — and it replaces what used to be a
            # per-ROW python crc loop on the at-scale path
            import polars as pl

            h = pl.from_arrow(batch.select(["u", "v"])).hash_rows(seed=0)
            s = int(h.cast(pl.UInt64).sum() or 0) & ((1 << 61) - 1)
            return pa.table({"n": [batch.num_rows], "s": [s]})

        parts = cur.map_batches(sig_batch, batch_format="pyarrow").to_pandas()
        sig = (int(parts["n"].sum()), int(parts["s"].sum()) & ((1 << 61) - 1))
        if sig == prev_sig:
            break
        prev_sig = sig

    # after convergence every edge is (component_min, member)
    def to_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("v"), "label": batch.column("u")})

    members = cur.map_batches(to_labels, batch_format="pyarrow")

    def root_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("u"), "label": batch.column("u")})

    roots = cur.map_batches(root_rows, batch_format="pyarrow")
    return (
        _hagg_auto(members.union(roots), "node", [('label', 'min', 'min(label)')])
        .map_batches(
            lambda b: pa.table({"node": b.column("node"), "label": b.column("min(label)")}),
            batch_format="pyarrow",
        )
    )


def connected_components(
    edges: Dataset,
    u: str = "u",
    v: str = "v",
    mode: str = "auto",
    driver_limit: int = 5_000_000,
) -> tuple[dict[str, str] | None, Dataset | None]:
    """Label connected components of the (string-keyed) edge Dataset.

    Returns ``(label_map, label_ds)`` — exactly one is non-None:
    the driver path returns a plain dict (broadcastable via
    ``ray.put``); the distributed path returns a (node, label) Dataset.
    """
    dedup = _distinct_edges(edges, u, v).materialize()
    if mode == "auto":
        mode = "driver" if dedup.count() <= driver_limit else "distributed"
    if mode == "driver":
        return _driver_cc(dedup), None
    return None, _distributed_cc(dedup)
