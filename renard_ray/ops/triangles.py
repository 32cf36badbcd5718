"""Distributed triangle counting over the constructed KG edge list.

Standard degree-ordered orientation (the MapReduce/GraphX formulation):

1. distinct undirected edges (lo, hi) from the triple table;
2. per-node degree (one groupby over an endpoint fan-out);
3. orient every edge from the LOWER-ranked endpoint to the higher,
   rank = (degree, name) — a total order, so each triangle has exactly
   one "pivot" node with two out-edges and the wedge count is bounded
   by sum(out_deg^2) = O(m^1.5) instead of sum(deg^2), which a hub
   node would otherwise blow up;
4. wedges = oriented self-join on the pivot; a wedge (a, b) closes
   iff (a, b) is itself an oriented edge — a semi-join on the packed
   pair key.  Each triangle is counted exactly once.

Scale shape: two joins + two groupbys; nothing graph-sized on the
driver.  Degrees are vocabulary-bounded (canonical entities), so the
degree attach rides the size-adaptive broadcast-lookup helper and
falls back to a hash join past the budget — the same planning policy
as ``pipelines.kg`` canonicalization.  The wedge self-join broadcasts
the oriented edge table while it fits a row budget (per-batch Arrow
hash join, no exchange) and uses ``hash_join`` past it.

No counterpart in the reference (no graph analytics at all); sibling
of ``ops/graphstats.py`` degree/PageRank.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Sum

from renard_ray.ops.hashagg import hash_join

from .relational import (
    _collect_small,
    broadcast_lookup_join,
    broadcast_semi_join,
)

_SEP = "\x1f"  # unit separator: cannot appear in extracted entity names
_EDGE_LIMIT = 4_000_000  # oriented edges broadcast budget (rows)


def _distinct_edges(triples: Dataset) -> Dataset:
    """Distinct undirected (lo, hi) node pairs, self-loops dropped."""

    def norm(batch: pa.Table) -> pa.Table:
        s, o = batch.column("subj"), batch.column("obj")
        lo = pc.min_element_wise(s, o)
        hi = pc.max_element_wise(s, o)
        t = pa.table({"lo": lo, "hi": hi}).filter(pc.not_equal(lo, hi))
        # per-batch distinct before the shuffle (hub pairs repeat a lot)
        return t.group_by(["lo", "hi"]).aggregate([]).select(["lo", "hi"])

    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        triples.map_batches(norm, batch_format="pyarrow"), ["lo", "hi"], []
    )


def _degrees(edges: Dataset) -> Dataset:
    def endpoints(batch: pa.Table) -> pa.Table:
        both = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("lo").combine_chunks(),
                        batch.column("hi").combine_chunks(),
                    ]
                )
            }
        )
        g = both.group_by(["node"]).aggregate([("node", "count")])
        return g.select(["node", "node_count"]).rename_columns(["node", "n"])

    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        [("n", "sum", "deg")],
    )


def directed_edges(
    edges: Dataset, node_col: str = "node", nbr_col: str = "nbr"
) -> Dataset:
    """Both directions of the undirected (lo, hi) edge list."""

    def both(batch: pa.Table) -> pa.Table:
        lo = batch.column("lo").combine_chunks()
        hi = batch.column("hi").combine_chunks()
        return pa.table(
            {
                node_col: pa.concat_arrays([lo, hi]),
                nbr_col: pa.concat_arrays([hi, lo]),
            }
        )

    return edges.map_batches(both, batch_format="pyarrow")


def _orient(edges: Dataset, degrees: Dataset) -> Dataset:
    """(src, dst) with rank(src) < rank(dst), rank = (deg, name)."""
    with_lo = broadcast_lookup_join(
        edges, degrees, on="lo", right_on="node", payload=["deg"],
    ).map_batches(
        lambda b: b.rename_columns(
            [{"deg": "deg_lo"}.get(c, c) for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
    both = broadcast_lookup_join(
        with_lo, degrees, on="hi", right_on="node", payload=["deg"],
    )

    def orient(batch: pa.Table) -> pa.Table:
        lo, hi = batch.column("lo"), batch.column("hi")
        dlo = batch.column("deg_lo")
        dhi = batch.column("deg")
        # lo-first iff (deg_lo, lo) < (deg_hi, hi); names break deg ties
        lo_first = pc.or_(
            pc.less(dlo, dhi),
            pc.and_(pc.equal(dlo, dhi), pc.less(lo, hi)),
        )
        return pa.table(
            {
                "src": pc.if_else(lo_first, lo, hi),
                "dst": pc.if_else(lo_first, hi, lo),
                "deg_dst": pc.if_else(lo_first, dhi, dlo),
            }
        )

    return both.map_batches(orient, batch_format="pyarrow")


def _pack(a: pa.ChunkedArray, b: pa.ChunkedArray) -> pa.ChunkedArray:
    return pc.binary_join_element_wise(a, b, _SEP)


def _closed_wedges(
    triples: Dataset,
    *,
    broadcast_limit: int | None = None,
) -> tuple[Dataset, Dataset, Dataset, int]:
    """(edges, degrees, closed wedges (pivot, wa, wb), n_edges).

    A closed wedge is one triangle, seen from its unique pivot."""
    limit = _EDGE_LIMIT if broadcast_limit is None else broadcast_limit
    edges = _distinct_edges(triples).materialize()  # consumed 3x below
    n_edges = edges.count()
    degrees = _degrees(edges)
    oriented = _orient(edges, degrees).materialize()

    # wedge generation: self-join oriented edges on the pivot node.
    # Both out-edges of a pivot meet; keep one order per pair via the
    # (deg, name) rank so each wedge emits once.
    def emit_wedges(batch: pa.Table, rt: pa.Table) -> pa.Table:
        joined = batch.rename_columns(["src", "b_dst", "b_deg"]).join(
            rt, keys=["src"], right_keys=["src"], join_type="inner"
        )
        a, b = joined.column("b_dst"), joined.column("dst")
        da, db = joined.column("b_deg"), joined.column("deg_dst")
        keep = pc.or_(
            pc.less(da, db), pc.and_(pc.equal(da, db), pc.less(a, b))
        )
        w = joined.filter(keep)
        return pa.table(
            {
                "pivot": w.column("src"),
                "wa": w.column("b_dst"),
                "wb": w.column("dst"),
            }
        )

    small = _collect_small(oriented, limit)
    if small is not None:
        rt_ref = ray.put(small.combine_chunks())

        def wedges_bcast(batch: pa.Table) -> pa.Table:
            return emit_wedges(batch, ray.get(rt_ref))

        wedges = oriented.map_batches(wedges_bcast, batch_format="pyarrow")
    else:
        rhs = oriented.map_batches(
            lambda b: b.rename_columns(["src", "b_dst", "b_deg"]),
            batch_format="pyarrow",
        )
        joined = hash_join(oriented, rhs, "src")

        def keep_ordered(batch: pa.Table) -> pa.Table:
            a, b = batch.column("b_dst"), batch.column("dst")
            da, db = batch.column("b_deg"), batch.column("deg_dst")
            keep = pc.or_(
                pc.less(da, db), pc.and_(pc.equal(da, db), pc.less(a, b))
            )
            w = batch.filter(keep)
            return pa.table(
                {
                    "pivot": w.column("src"),
                    "wa": w.column("b_dst"),
                    "wb": w.column("dst"),
                }
            )

        wedges = joined.map_batches(keep_ordered, batch_format="pyarrow")

    packed_wedges = wedges.map_batches(
        lambda b: b.append_column("key", _pack(b.column("wa"), b.column("wb"))),
        batch_format="pyarrow",
    )
    packed_edges = oriented.map_batches(
        lambda b: pa.table({"key": _pack(b.column("src"), b.column("dst"))}),
        batch_format="pyarrow",
    )
    closed = broadcast_semi_join(
        packed_wedges, packed_edges, on="key",
        limit=limit,
    ).map_batches(
        lambda b: b.drop_columns(["key"]), batch_format="pyarrow"
    )
    return edges, degrees, closed, n_edges


def triangle_count(
    triples: Dataset,
    *,
    broadcast_limit: int | None = None,
) -> Dataset:
    """One-row Dataset {n_triangles, n_edges} for the graph of the
    given triple table (edges = distinct undirected pairs)."""
    _edges, _deg, closed, n_edges = _closed_wedges(
        triples, broadcast_limit=broadcast_limit
    )
    n_tri = closed.count()
    return ray.data.from_arrow(
        pa.table(
            {
                "n_triangles": pa.array([n_tri], pa.int64()),
                "n_edges": pa.array([n_edges], pa.int64()),
            }
        )
    )


def clustering_coefficient(
    triples: Dataset,
    *,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Per-node local clustering coefficient:
    ``cc = 2*T(v) / (deg(v) * (deg(v)-1))`` (0 when deg < 2), with the
    per-node triangle count T(v).  Every node of the graph appears,
    zero-triangle nodes included.

    Closed wedges fan out to their three corners with a per-batch
    combine; one groupby sums T(v); the (vocabulary-bounded) count
    table attaches to the degree table via the size-adaptive lookup
    join.  Output: (node, deg, n_triangles, cc) — cc as an exact
    ratio-rounded double (6 digits)."""
    _edges, degrees, closed, _n = _closed_wedges(
        triples, broadcast_limit=broadcast_limit
    )

    def corners(batch: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [
                batch.column(c).combine_chunks()
                for c in ("pivot", "wa", "wb")
            ]
        )
        t = pa.table({"node": node})
        g = t.group_by(["node"]).aggregate([("node", "count")])
        return g.select(["node", "node_count"]).rename_columns(["node", "t"])

    from renard_ray.ops.hashagg import hash_aggregate

    tri_per_node = hash_aggregate(
        closed.map_batches(corners, batch_format="pyarrow"),
        "node",
        [("t", "sum", "n_triangles")],
    )

    # LEFT-attach counts onto degrees so zero-triangle nodes survive:
    # broadcast the count table (bounded by nodes-in-triangles) and
    # index_in from the degree side.
    limit = _EDGE_LIMIT if broadcast_limit is None else broadcast_limit
    counts_tab = _collect_small(tri_per_node, limit)
    if counts_tab is not None:
        ref = ray.put(counts_tab.combine_chunks())

        def attach(batch: pa.Table) -> pa.Table:
            ct = ray.get(ref)
            idx = pc.index_in(batch.column("node"), value_set=ct.column("node"))
            t = pc.fill_null(
                pc.take(ct.column("n_triangles"), idx), pa.scalar(0, pa.int64())
            )
            return batch.append_column("n_triangles", t)

        with_t = degrees.map_batches(attach, batch_format="pyarrow")
    else:
        joined = hash_join(degrees, tri_per_node, "node", how="left outer")
        with_t = joined.map_batches(
            lambda b: b.set_column(
                b.column_names.index("n_triangles"),
                "n_triangles",
                pc.fill_null(b.column("n_triangles"), pa.scalar(0, pa.int64())),
            ),
            batch_format="pyarrow",
        )

    def finalize(batch: pa.Table) -> pa.Table:
        d = pc.cast(batch.column("deg"), pa.float64())
        t = pc.cast(batch.column("n_triangles"), pa.float64())
        denom = pc.multiply(d, pc.subtract(d, pa.scalar(1.0)))
        cc = pc.if_else(
            pc.greater(denom, pa.scalar(0.0)),
            pc.divide(pc.multiply(t, pa.scalar(2.0)), denom),
            pa.scalar(0.0),
        )
        return pa.table(
            {
                "node": batch.column("node"),
                "deg": batch.column("deg"),
                "n_triangles": pc.cast(batch.column("n_triangles"), pa.int64()),
                "cc": pc.round(cc, ndigits=6),
            }
        )

    return with_t.map_batches(finalize, batch_format="pyarrow")


def triangle_count_bruteforce(edges: list[tuple[str, str]]) -> int:
    """Small-graph oracle: count triangles by adjacency-set intersection."""
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    count = 0
    for u, nbrs in adj.items():
        for v in nbrs:
            if v <= u:
                continue
            count += sum(1 for w in adj[v] if w > v and w in nbrs)
    return count


def link_prediction(
    triples: Dataset,
    k: int = 25,
    *,
    max_center_degree: int | None = None,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Common-neighbor link prediction over the KG: rank NON-adjacent
    node pairs by their number of shared neighbors — the classic
    missing-edge suggester for a constructed KG.

    Exact common-neighbor counting is inherently sum(deg^2): every
    pair of a center's neighbors witnesses it, and hub centers
    dominate.  ``max_center_degree`` bounds that by EXCLUDING centers
    above the cap (with a logged count) — the Adamic-Adar observation
    that hub-mediated common neighbors carry little signal anyway;
    ``None`` counts everything (small/moderate graphs).

    Shape: one self-join of the directed edge list on the center node
    (size-adaptive: broadcast + per-batch Arrow join under the row
    budget, ``hash_join`` past it), one ``groupby(a, b).sum``, a
    packed-key ANTI join against the edge list, top-k sort.  Pairs are
    normalized lexicographically (a < b).

    Output: (a, b, common_neighbors, aa_score, jaccard) — top-k by
    count desc, (a, b) asc; ``aa_score`` is the Adamic-Adar sum
    ``sum over common neighbors x of 1/ln(deg(x))`` (rounded to 6),
    the hub-downweighted variant of the same signal; ``jaccard`` is the
    neighborhood overlap ``common / (deg(a) + deg(b) - common)``
    (degrees from the FULL graph even under the hub cap).
    """
    limit = _EDGE_LIMIT if broadcast_limit is None else broadcast_limit
    edges = _distinct_edges(triples).materialize()

    directed = directed_edges(edges, node_col="ctr", nbr_col="nbr")
    # three consumers (hub cap, AA weight attach, Jaccard degree attach)
    # — materialize the vocabulary-bounded reduce once
    degrees = _degrees(edges).materialize()

    if max_center_degree is not None:
        import logging

        deg_tab = _collect_small(degrees, limit)
        if deg_tab is not None:
            hot = deg_tab.filter(
                pc.greater(deg_tab.column("deg"), max_center_degree)
            )
            if hot.num_rows:
                logging.getLogger(__name__).warning(
                    "link_prediction: excluding %d centers above degree "
                    "cap %d", hot.num_rows, max_center_degree,
                )
                hot_ref = ray.put(
                    hot.column("node").combine_chunks()
                )

                def drop_hot(batch: pa.Table) -> pa.Table:
                    hs = ray.get(hot_ref)
                    m = pc.is_valid(
                        pc.index_in(batch.column("ctr"), value_set=hs)
                    )
                    return batch.filter(pc.invert(m))

                directed = directed.map_batches(
                    drop_hot, batch_format="pyarrow"
                )
        else:
            directed = broadcast_semi_join(
                directed,
                degrees.filter(
                    expr=f"deg <= {int(max_center_degree)}"
                ),
                on="ctr", right_on="node",
                limit=limit,
            )

    # attach the center's Adamic-Adar weight 1/ln(deg) once (degree
    # table is vocabulary-bounded; size-adaptive lookup join)
    with_deg = broadcast_lookup_join(
        directed, degrees, on="ctr", right_on="node", payload=["deg"],
        limit=limit,
    )

    def add_wd(batch: pa.Table) -> pa.Table:
        import numpy as np

        d = np.asarray(batch.column("deg"), dtype=np.float64)
        wd = np.where(d > 1.0, 1.0 / np.log(np.maximum(d, 2.0)), 0.0)
        return pa.table(
            {
                "ctr": batch.column("ctr"),
                "nbr": batch.column("nbr"),
                "wd": pa.array(wd),
            }
        )

    directed = with_deg.map_batches(
        add_wd, batch_format="pyarrow"
    ).materialize()

    def emit_pairs(batch: pa.Table, rt: pa.Table) -> pa.Table:
        joined = batch.select(["ctr", "nbr"]).rename_columns(
            ["ctr", "b_nbr"]
        ).join(rt, keys=["ctr"], right_keys=["ctr"], join_type="inner")
        a, b = joined.column("b_nbr"), joined.column("nbr")
        keep = pc.less(a, b)  # one order per pair, self-pairs dropped
        w = joined.filter(keep)
        t = pa.table(
            {
                "a": w.column("b_nbr"),
                "b": w.column("nbr"),
                "aa": w.column("wd"),
            }
        )
        g = t.group_by(["a", "b"]).aggregate([("a", "count"), ("aa", "sum")])
        return g.rename_columns(["a", "b", "n", "aa"])

    small = _collect_small(directed, limit)
    if small is not None:
        rt_ref = ray.put(small.combine_chunks())

        def pairs_bcast(batch: pa.Table) -> pa.Table:
            return emit_pairs(batch, ray.get(rt_ref))

        pair_partials = directed.map_batches(
            pairs_bcast, batch_format="pyarrow"
        )
    else:
        rhs = directed.map_batches(
            lambda b: b.select(["ctr", "nbr"]).rename_columns(
                ["ctr", "b_nbr"]
            ),
            batch_format="pyarrow",
        )
        joined = hash_join(directed, rhs, "ctr")

        def keep_pairs(batch: pa.Table) -> pa.Table:
            keep = pc.less(batch.column("b_nbr"), batch.column("nbr"))
            w = batch.filter(keep)
            t = pa.table(
                {
                    "a": w.column("b_nbr"),
                    "b": w.column("nbr"),
                    "aa": w.column("wd"),
                }
            )
            g = t.group_by(["a", "b"]).aggregate([("a", "count"), ("aa", "sum")])
            return g.rename_columns(["a", "b", "n", "aa"])

        pair_partials = joined.map_batches(keep_pairs, batch_format="pyarrow")

    from renard_ray.ops.hashagg import hash_aggregate

    counts = hash_aggregate(
        pair_partials,
        ["a", "b"],
        [("n", "sum", "common_neighbors"), ("aa", "sum", "aa_raw")],
    )

    # neighborhood Jaccard |N(a)&N(b)| / |N(a)|N(b)| needs both endpoint
    # degrees on the AGGREGATED pair table (far smaller than the
    # neighbor-pair fan-out); the degree table is vocabulary-bounded so
    # both attaches ride the size-adaptive lookup join
    def _renamed(new: str) -> Dataset:
        return degrees.map_batches(
            lambda b, n=new: b.rename_columns(["node", n]),
            batch_format="pyarrow",
        )

    counts = broadcast_lookup_join(
        counts, _renamed("deg_a"), on="a", right_on="node",
        payload=["deg_a"], limit=limit,
    )
    counts = broadcast_lookup_join(
        counts, _renamed("deg_b"), on="b", right_on="node",
        payload=["deg_b"], limit=limit,
    )

    def round_aa(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = np.asarray(batch.column("common_neighbors"), dtype=np.float64)
        da = np.asarray(batch.column("deg_a"), dtype=np.float64)
        db = np.asarray(batch.column("deg_b"), dtype=np.float64)
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "common_neighbors": batch.column("common_neighbors"),
                "aa_score": pa.array(
                    np.round(
                        np.asarray(batch.column("aa_raw"), dtype=np.float64), 6
                    )
                ),
                "jaccard": pa.array(np.round(n / (da + db - n), 6)),
            }
        )

    packed_pairs = counts.map_batches(
        round_aa, batch_format="pyarrow"
    ).map_batches(
        lambda b: b.append_column("key", _pack(b.column("a"), b.column("b"))),
        batch_format="pyarrow",
    )
    # edges are (lo, hi) with lo < hi — same normalization as the pairs
    packed_edges = edges.map_batches(
        lambda b: pa.table({"key": _pack(b.column("lo"), b.column("hi"))}),
        batch_format="pyarrow",
    )
    non_edges = broadcast_semi_join(
        packed_pairs, packed_edges, on="key", anti=True,
        limit=limit,
    ).map_batches(lambda b: b.drop_columns(["key"]), batch_format="pyarrow")

    out = non_edges.sort(
        ["common_neighbors", "a", "b"], descending=[True, False, False]
    ).limit(k).materialize()
    if out.count() == 0:
        # a COMPLETE graph has no candidate non-edges: return a TYPED
        # empty (sort/limit over zero blocks yields a schema-less
        # Dataset, which downstream column compares would misread)
        return ray.data.from_arrow(
            pa.schema(
                [
                    ("a", pa.string()),
                    ("b", pa.string()),
                    ("common_neighbors", pa.int64()),
                    ("aa_score", pa.float64()),
                    ("jaccard", pa.float64()),
                ]
            ).empty_table()
        )
    return out


def link_prediction_bruteforce(
    edges: list[tuple[str, str]], k: int = 25
) -> list[tuple[str, str, int, float]]:
    """Small-graph oracle: common-neighbor counts, Adamic-Adar sums and
    neighborhood Jaccard for all non-adjacent pairs by adjacency-set
    intersection."""
    import math

    adj: dict[str, set[str]] = {}
    for u, v in edges:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = {}
    nodes = sorted(adj)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if v in adj[u]:
                continue
            common = adj[u] & adj[v]
            if common:
                aa = sum(
                    1.0 / math.log(len(adj[x]))
                    for x in common
                    if len(adj[x]) > 1
                )
                jac = len(common) / (len(adj[u]) + len(adj[v]) - len(common))
                out[(u, v)] = (len(common), aa, jac)  # u < v lexicographically
    ranked = sorted(out.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [(a, b, c, aa, j) for (a, b), (c, aa, j) in ranked[:k]]


def ktruss_dataset(
    triples: Dataset,
    k: int = 4,
    *,
    broadcast_limit: int | None = None,
    max_rounds: int = 64,
) -> Dataset:
    """k-truss subgraph (Cohen 2008 — public reference): the maximal
    subgraph in which every edge lies on at least ``k-2`` triangles of
    the SUBGRAPH.  The standard iterative peel — compute per-edge
    triangle support, drop under-supported edges, repeat on the
    shrunken graph until no edge is dropped — with every round built
    from the existing degree-oriented wedge machinery:

    - support: each closed wedge fans to its THREE normalized edge
      keys with a per-batch combine, then ONE ``groupby(key).sum`` —
      the same bounded exchange as the triangle count;
    - peel: one packed-key SEMI join of the edge list against the
      ``support >= k-2`` key set (size-adaptive broadcast/hash);
    - the surviving (lo, hi) table re-enters ``_closed_wedges`` as a
      (subj, obj) triple table — degrees/orientation recompute on the
      shrunken graph, as the algorithm requires.

    Driver state: one edge-count scalar per round.  Rounds are
    data-dependent (the peel cascade depth), bounded by
    ``max_rounds`` with a loud warning on truncation.

    Output: (src, dst, support) for the k-truss edges, sorted —
    support measured IN the final subgraph."""
    assert k >= 3, "k-truss is defined for k >= 3"
    limit = _EDGE_LIMIT if broadcast_limit is None else broadcast_limit

    out_schema = pa.schema(
        [("src", pa.string()), ("dst", pa.string()), ("support", pa.int64())]
    )

    def tri_edge_keys(batch: pa.Table) -> pa.Table:
        """Fan each triangle to its three normalized edge keys, with a
        per-batch combine (dense subgraphs repeat keys a lot)."""
        p = batch.column("pivot").combine_chunks()
        a = batch.column("wa").combine_chunks()
        b = batch.column("wb").combine_chunks()
        los, his = [], []
        for x, y in ((p, a), (p, b), (a, b)):
            lo = pc.min_element_wise(x, y)
            hi = pc.max_element_wise(x, y)
            if isinstance(lo, pa.ChunkedArray):
                lo = lo.combine_chunks()
            if isinstance(hi, pa.ChunkedArray):
                hi = hi.combine_chunks()
            los.append(lo)
            his.append(hi)
        t = pa.table(
            {
                "key": _pack(
                    pa.concat_arrays(los), pa.concat_arrays(his)
                ),
            }
        )
        t = t.append_column(
            "n", pa.array([1] * t.num_rows, pa.int64())
        )
        return (
            t.group_by(["key"]).aggregate([("n", "sum")])
            .rename_columns(["key", "n"])
        )

    cur = triples
    n_prev = -1
    for _round in range(max_rounds):
        edges, _deg, closed, n_edges = _closed_wedges(
            cur, broadcast_limit=broadcast_limit
        )
        if n_edges == 0:
            return ray.data.from_arrow(out_schema.empty_table())
        from renard_ray.ops.hashagg import hash_aggregate

        supp = hash_aggregate(
            closed.map_batches(tri_edge_keys, batch_format="pyarrow"),
            "key",
            [("n", "sum", "support")],
        ).materialize()
        if supp.count() == 0:  # no triangles at all: nothing survives
            return ray.data.from_arrow(out_schema.empty_table())
        enough = supp.filter(expr=f"support >= {k - 2}").select_columns(
            ["key", "support"]
        )
        packed = edges.map_batches(
            lambda b: pa.table(
                {
                    "src": b.column("lo"),
                    "dst": b.column("hi"),
                    "key": _pack(b.column("lo"), b.column("hi")),
                }
            ),
            batch_format="pyarrow",
        )
        survivors = broadcast_lookup_join(
            packed, enough, on="key", right_on="key",
            payload=["support"], limit=limit,
        ).materialize()
        n_new = survivors.count()
        if n_new == n_edges:
            # fixpoint: every remaining edge has enough support
            return survivors.map_batches(
                lambda b: pa.table(
                    {
                        "src": b.column("src"),
                        "dst": b.column("dst"),
                        "support": b.column("support"),
                    }
                ),
                batch_format="pyarrow",
            ).sort(["src", "dst"])
        if n_new == 0:
            return ray.data.from_arrow(out_schema.empty_table())
        n_prev = n_new
        cur = survivors.map_batches(
            lambda b: pa.table(
                {"subj": b.column("src"), "obj": b.column("dst")}
            ),
            batch_format="pyarrow",
        )
    import logging

    logging.getLogger(__name__).warning(
        "ktruss_dataset: peel not at fixpoint after max_rounds=%d "
        "(last edge count %d) — returning the truncated peel",
        max_rounds, n_prev,
    )
    return survivors.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src"),
                "dst": b.column("dst"),
                "support": b.column("support"),
            }
        ),
        batch_format="pyarrow",
    ).sort(["src", "dst"])


def _distinct_directed(triples: Dataset) -> Dataset:
    """Distinct DIRECTED (src, dst) pairs, self-loops dropped (the
    simple digraph underlying the triple table)."""

    def norm(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"src": batch.column("subj"), "dst": batch.column("obj")}
        ).filter(pc.not_equal(batch.column("subj"), batch.column("obj")))
        return t.group_by(["src", "dst"]).aggregate([]).select(["src", "dst"])

    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        triples.map_batches(norm, batch_format="pyarrow"), ["src", "dst"], []
    )


def motif_census_dataset(
    triples: Dataset,
    *,
    broadcast_limit: int | None = None,
) -> Dataset:
    """Directed 3-node motif census over the simple digraph (Milo et
    al., "Network motifs", Science 2002 — public reference): one-row
    Dataset with

    - ``n_edges``            distinct directed non-loop edges,
    - ``n_reciprocal_pairs`` unordered pairs with BOTH directions,
    - ``n_transitive_ffl``   feed-forward instances (a->b, b->c, a->c,
                             nodes distinct) — each ordered instance
                             counted once via its unique wedge,
    - ``n_cyclic``           directed 3-cycles a->b->c->a, each counted
                             once via its minimum-named rotation head
                             (a < b AND a < c).

    Scale shape: ONE wedge self-join of the distinct directed edge
    list on the middle node (broadcast per-batch Arrow join under the
    row budget, the ``hash_join`` exchange past it) and TWO
    packed-key semi joins for the closures — the directed sibling of
    ``triangle_count``'s plan; nothing graph-sized on the driver."""
    limit = _EDGE_LIMIT if broadcast_limit is None else broadcast_limit

    edges = _distinct_directed(triples).materialize()
    n_edges = edges.count()
    empty = pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_reciprocal_pairs": pa.array([0], pa.int64()),
            "n_transitive_ffl": pa.array([0], pa.int64()),
            "n_cyclic": pa.array([0], pa.int64()),
        }
    )
    if n_edges == 0:
        return ray.data.from_arrow(empty)

    keys = edges.map_batches(
        lambda b: pa.table({"k": _pack(b.column("src"), b.column("dst"))}),
        batch_format="pyarrow",
    ).materialize()

    # reciprocal pairs: edges whose reverse key also exists, / 2
    rev_hits = broadcast_semi_join(
        edges.map_batches(
            lambda b: pa.table(
                {"k": _pack(b.column("dst"), b.column("src"))}
            ),
            batch_format="pyarrow",
        ),
        keys, on="k", right_on="k", limit=limit,
    ).count()
    n_recip = rev_hits // 2

    # wedges a->b->c (a != c): self-join on the middle node b
    def emit_wedges(batch: pa.Table, rt: pa.Table) -> pa.Table:
        j = batch.rename_columns(["a", "mid"]).join(
            rt, keys=["mid"], right_keys=["src"], join_type="inner"
        )
        j = j.filter(pc.not_equal(j.column("a"), j.column("dst")))
        return pa.table(
            {
                "a": j.column("a"),
                "b": j.column("mid"),
                "c": j.column("dst"),
            }
        )

    small = _collect_small(edges, limit)
    if small is not None:
        rt_ref = ray.put(small.combine_chunks())
        wedges = edges.map_batches(
            lambda b: emit_wedges(b, ray.get(rt_ref)),
            batch_format="pyarrow",
        )
    else:
        mid = edges.map_batches(
            lambda b: b.rename_columns(["a", "mid"]), batch_format="pyarrow"
        )
        wedges = hash_join(mid, edges, "mid", "src").map_batches(
            lambda b: pa.table(
                {
                    "a": b.column("a"),
                    "b": b.column("mid"),
                    "c": b.column("dst"),
                }
            ).filter(pc.not_equal(b.column("a"), b.column("dst"))),
            batch_format="pyarrow",
        )
    wedges = wedges.materialize()  # consumed by both closure checks

    n_ffl = broadcast_semi_join(
        wedges.map_batches(
            lambda b: pa.table({"k": _pack(b.column("a"), b.column("c"))}),
            batch_format="pyarrow",
        ),
        keys, on="k", right_on="k", limit=limit,
    ).count()

    def cyc_key(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.less(batch.column("a"), batch.column("b")),
            pc.less(batch.column("a"), batch.column("c")),
        )
        t = batch.filter(keep)
        return pa.table({"k": _pack(t.column("c"), t.column("a"))})

    n_cyc = broadcast_semi_join(
        wedges.map_batches(cyc_key, batch_format="pyarrow"),
        keys, on="k", right_on="k", limit=limit,
    ).count()

    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_reciprocal_pairs": pa.array([n_recip], pa.int64()),
                "n_transitive_ffl": pa.array([n_ffl], pa.int64()),
                "n_cyclic": pa.array([n_cyc], pa.int64()),
            }
        )
    )


def motif_census_bruteforce(edges: list[tuple[str, str]]) -> dict:
    """O(n^3) python oracle for tests: same four counts over the
    simple digraph of ``edges``."""
    d = {(a, b) for a, b in edges if a != b}
    nodes = sorted({x for e in d for x in e})
    recip = sum(1 for (a, b) in d if (b, a) in d) // 2
    ffl = cyc = 0
    for a in nodes:
        for b in nodes:
            if a == b or (a, b) not in d:
                continue
            for c in nodes:
                if c == a or c == b or (b, c) not in d:
                    continue
                if (a, c) in d:
                    ffl += 1
                if (c, a) in d and a < b and a < c:
                    cyc += 1
    return {
        "n_edges": len(d),
        "n_reciprocal_pairs": recip,
        "n_transitive_ffl": ffl,
        "n_cyclic": cyc,
    }
