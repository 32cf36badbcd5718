"""Oracle-checkable trade graph: a deterministic, SQL-derivable edge
table over the TPC-H-ish views (customer nation -> supplier nation per
qualifying lineitem), feeding the SAME graph-analytics operators the
KG pipeline uses (``ops/graphstats.py``, ``ops/triangles.py``,
``pipelines/cc.py``).

Why it exists: the kg_* analytics run over triples extracted from text
(NER -> coref -> unification), which DuckDB cannot reproduce, so their
driver gate is rows-only (their exactness lives in pytest fixtures vs
independent single-process oracles).  This module is the
``events_bipartite_assortativity`` pattern generalized: every operator
below gets a DRIVER-VISIBLE value-hash-exact oracle because the input
graph itself is one SQL query over the registered views — same engine
code, SQL-checkable instantiation.

Graph: 25 nation nodes; a directed edge (cust_nation -> supp_nation,
weight = qualifying-lineitem count) for every lineitem with
``l_quantity >= 48 AND l_discount >= 0.09`` (sparsifies the otherwise
complete nation-pair matrix; at sf0.01: 349 edges, 12 self-loops,
weights 1-5).  Self-loops are kept in the edge table — half the
operators define explicit loop semantics worth gating.

No counterpart in the reference (Renard has no graph analytics).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .relational import (
    _collect_small,
    _read,
    broadcast_lookup_join,
)
from renard_ray.ops.hashagg import hash_aggregate

MIN_QTY = 48.0
MIN_DISC = 0.09

# build-once-analyze-many, same convention (and same bounded-LRU shape)
# as __ray_entry__._KG_TRIPLES_MEMO: ~20 trade_graph_* analytics all
# consume the identical <=625-row edge table, but deriving it costs a
# full lineitem scan + 3 dimension joins (~2 s at sf0.1).  The memo
# pins only the tiny MATERIALIZED edge Dataset per sf_dir, evicting
# oldest-first; trade_graph_* timings therefore measure the ANALYTIC,
# while the derivation itself stays benchmarked via trade_graph_degree
# on a cold memo and the q7 family (same star-join shape).
_TRADE_EDGES_MEMO: dict = {}
_TRADE_MEMO_MAX = 4


def trade_edges_memo_clear() -> None:
    """Drop every memoized edge table (frees the pinned blocks)."""
    _TRADE_EDGES_MEMO.clear()


def trade_edges(sf_dir: str) -> Dataset:
    """(subj, pred, obj, weight) directed nation-trade edge table,
    memoized MATERIALIZED per sf_dir (see _TRADE_EDGES_MEMO note).

    Plan (the q7 star shape): the qualifying-lineitem filter runs AT
    THE SCAN (only 3 fact columns leave storage, ~1% of rows survive);
    the orders->customer nation chain and the supplier nation chain
    attach via size-adaptive broadcast lookup joins (both dimension
    payloads are key->nationkey maps); nation names decode from the
    25-row driver table; ONE bounded hash aggregate (625 keys max)
    produces the weighted edge list."""
    cached = _TRADE_EDGES_MEMO.get(sf_dir)
    if cached is not None:
        _TRADE_EDGES_MEMO[sf_dir] = _TRADE_EDGES_MEMO.pop(sf_dir)  # LRU
        return cached
    nt = _collect_small(_read(sf_dir, "nation", ["n_nationkey", "n_name"]), 1000)
    nk = nt.column("n_nationkey").combine_chunks()
    nv = nt.column("n_name").combine_chunks()

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_quantity", "l_discount"])

    def qualify(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("l_quantity"), pa.scalar(MIN_QTY)),
            pc.greater_equal(batch.column("l_discount"), pa.scalar(MIN_DISC)),
        )
        return batch.filter(keep).select(["l_orderkey", "l_suppkey"])

    fact = li.map_batches(qualify, batch_format="pyarrow")

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    fact = broadcast_lookup_join(
        fact, supp, on="l_suppkey", right_on="s_suppkey",
        payload=["s_nationkey"],
    )

    # attach the customer nation via fact -> orders -> customer, in
    # that order: the qualifying fact is ~0.1% of lineitems, so both
    # lookups keep the TINY side on the left — the previous plan built
    # the full orders x customer map (|orders| rows through a join +
    # a batch pass) before the fact ever filtered it
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    fact = broadcast_lookup_join(
        fact, orders, on="l_orderkey", right_on="o_orderkey",
        payload=["o_custkey"],
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    fact = broadcast_lookup_join(
        fact, cust, on="o_custkey", right_on="c_custkey",
        payload=["c_nationkey"],
    )

    def name_pair(batch: pa.Table) -> pa.Table:
        subj = pc.take(nv, pc.index_in(batch.column("c_nationkey"), value_set=nk))
        obj = pc.take(nv, pc.index_in(batch.column("s_nationkey"), value_set=nk))
        t = pa.table({"subj": subj, "obj": obj})
        # per-batch combine before the (<=625-key) exchange
        g = t.group_by(["subj", "obj"]).aggregate([("subj", "count")])
        return g.select(["subj", "obj", "subj_count"]).rename_columns(
            ["subj", "obj", "n"]
        )

    agg = hash_aggregate(
        fact.map_batches(name_pair, batch_format="pyarrow", batch_size=None),
        ["subj", "obj"],
        [("n", "sum", "n")],
    )

    def shape(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "subj": batch.column("subj"),
                "pred": pa.array(["trades_with"] * n, pa.string()),
                "obj": batch.column("obj"),
                "weight": pc.cast(batch.column("n"), pa.float64()),
            }
        )

    edges = agg.map_batches(shape, batch_format="pyarrow").materialize()
    while len(_TRADE_EDGES_MEMO) >= _TRADE_MEMO_MAX:
        _TRADE_EDGES_MEMO.pop(next(iter(_TRADE_EDGES_MEMO)))
    _TRADE_EDGES_MEMO[sf_dir] = edges
    return edges

# ------------------------------------------------- query-surface wrappers
#
# Each wrapper pairs with a value-hash-exact DuckDB oracle in
# ``__ray_entry__.oracle_sql`` (the whole point of the trade graph);
# parameters pinned there must stay in sync here.


def trade_graph_degree(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import degree_dataset

    return degree_dataset(trade_edges(sf_dir))


def trade_graph_top_degree(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import top_degree_dataset

    return top_degree_dataset(trade_edges(sf_dir), k=10)


def trade_graph_pagerank(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import pagerank_dataset

    return pagerank_dataset(trade_edges(sf_dir))


def trade_graph_reciprocity(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import reciprocity_dataset

    return reciprocity_dataset(trade_edges(sf_dir))


def trade_graph_summary(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import graph_summary_dataset

    return graph_summary_dataset(trade_edges(sf_dir))


def trade_graph_triangles(sf_dir: str) -> Dataset:
    from renard_ray.ops.triangles import triangle_count

    return triangle_count(trade_edges(sf_dir))


def trade_graph_clustering(sf_dir: str) -> Dataset:
    from renard_ray.ops.triangles import clustering_coefficient

    return clustering_coefficient(trade_edges(sf_dir))


def trade_graph_neighborhood_stats(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import neighborhood_stats_dataset

    return neighborhood_stats_dataset(trade_edges(sf_dir))


def trade_graph_rich_club(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import rich_club_dataset

    return rich_club_dataset(trade_edges(sf_dir))


def trade_graph_bfs_hops(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import bfs_hops_dataset

    return bfs_hops_dataset(trade_edges(sf_dir), seeds=["NATION_0"])


def trade_graph_components(sf_dir: str) -> Dataset:
    """Distributed star-CC FORCED (``mode="distributed"``): this is the
    one driver-gate entry that exercises the large-graph CC loop
    end-to-end (every other small-graph caller rides the driver
    union-find fast path), so its bench time is dominated by the
    loop's bounded per-round scheduling — intentional coverage cost,
    not a missing fast path."""
    from renard_ray.pipelines.cc import connected_components

    edges = trade_edges(sf_dir).map_batches(
        lambda b: b.select(["subj", "obj"]).rename_columns(["u", "v"]),
        batch_format="pyarrow",
    )
    _m, lab = connected_components(edges, mode="distributed")
    return lab


def trade_graph_scc(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import scc_dataset

    return scc_dataset(trade_edges(sf_dir))


def trade_graph_kcore(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import kcore_dataset

    return kcore_dataset(trade_edges(sf_dir), k=3)


def trade_graph_link_prediction(sf_dir: str) -> Dataset:
    from renard_ray.ops.triangles import link_prediction

    return link_prediction(trade_edges(sf_dir), k=25)


def trade_graph_assortativity(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import assortativity_dataset

    return assortativity_dataset(trade_edges(sf_dir))


def trade_graph_hits(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import hits_dataset

    return hits_dataset(trade_edges(sf_dir))


def trade_graph_ppr(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import pagerank_dataset

    return pagerank_dataset(
        trade_edges(sf_dir), seeds=["NATION_0", "NATION_1"]
    )


def trade_graph_ktruss(sf_dir: str) -> Dataset:
    from renard_ray.ops.triangles import ktruss_dataset

    return ktruss_dataset(trade_edges(sf_dir), k=4)


def trade_graph_mis(sf_dir: str) -> Dataset:
    from renard_ray.ops.mis import mis_dataset

    return mis_dataset(trade_edges(sf_dir), seed=42)


def trade_graph_centrality(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import seed_centrality_dataset

    return seed_centrality_dataset(
        trade_edges(sf_dir), seeds=["NATION_0", "NATION_5", "NATION_12"]
    )


def trade_graph_ego(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import ego_subgraph_dataset

    return ego_subgraph_dataset(trade_edges(sf_dir), seeds=["NATION_3"], hops=1)


def trade_graph_weighted_distances(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import weighted_distances_dataset

    return weighted_distances_dataset(trade_edges(sf_dir), seeds=["NATION_0"])


def trade_graph_shortest_path(sf_dir: str) -> Dataset:
    from renard_ray.ops.graphstats import shortest_path_dataset

    return shortest_path_dataset(
        trade_edges(sf_dir), src="NATION_0", dst="NATION_24"
    )


def trade_graph_densest(sf_dir: str) -> Dataset:
    from renard_ray.ops.densest import densest_subgraph_dataset

    return densest_subgraph_dataset(trade_edges(sf_dir))


def trade_graph_communities(sf_dir: str) -> Dataset:
    from renard_ray.ops.communities import community_sizes

    return community_sizes(trade_edges(sf_dir), n_iter=6, weight_col="weight")


def trade_graph_modularity(sf_dir: str) -> Dataset:
    """Q of a FIXED 3-way partition (numeric suffix mod 3) rather than
    the LPA labels: the dense trade graph propagates to ONE community,
    whose Q is identically 0 — a trivial oracle.  The synthetic
    partition keeps every term of the exact half-away ppm arithmetic
    (4m*L_in - sum d_c^2 over 4m^2) non-degenerate and SQL-pinnable."""
    import ray

    from renard_ray.ops.communities import modularity_dataset
    from renard_ray.ops.hashagg import hash_aggregate

    edges = trade_edges(sf_dir).materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("subj").combine_chunks(),
                        batch.column("obj").combine_chunks(),
                    ]
                )
            }
        )

    nodes = hash_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"), "node", []
    )

    def label(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as _pc

        suffix = _pc.cast(
            _pc.utf8_slice_codeunits(batch.column("node"), 7), pa.int64()
        ).to_numpy(zero_copy_only=False)
        grp = ["G" + str(int(s) % 3) for s in suffix]
        return pa.table(
            {
                "node": batch.column("node"),
                "community": pa.array(grp, pa.string()),
            }
        )

    return modularity_dataset(
        edges, nodes.map_batches(label, batch_format="pyarrow")
    )

def trade_graph_pmi(sf_dir: str) -> Dataset:
    """PMI rescore of the trade edges: which nation pairs trade more
    than their hub-ness predicts.  Integer floor-ratio output
    (ops/pmi.py) so the DuckDB twin hashes identically."""
    from renard_ray.ops.pmi import pmi_dataset

    return pmi_dataset(trade_edges(sf_dir), "subj", "obj", n_col="weight")


BETWEENNESS_SEEDS = ["NATION_0", "NATION_7", "NATION_14", "NATION_21"]


def trade_graph_betweenness(sf_dir: str) -> Dataset:
    """Seed-sampled Brandes dependency accumulation from a PINNED seed
    set (the SQL twin unrolls the same BFS levels + fixed-point credit
    rounding, so the seeds must stay in sync with the oracle)."""
    from renard_ray.ops.graphstats import betweenness_dataset

    return betweenness_dataset(trade_edges(sf_dir), seeds=BETWEENNESS_SEEDS)


def trade_graph_max_spanning_forest(sf_dir: str) -> Dataset:
    """Strongest-ties backbone of the trade graph.  The SQL twin uses
    the cycle property: with the packed (eff_weight, a, b) total order
    all keys are distinct, so the forest is unique and an edge belongs
    iff its endpoints are NOT connected via strictly-smaller-key edges
    (one recursive CTE over (edge_key, reachable_node) pairs)."""
    from renard_ray.ops.mst import mst_dataset

    return mst_dataset(trade_edges(sf_dir), maximum=True)


LABEL_SPREADING_SEEDS = [
    ("NATION_0", "alpha"),
    ("NATION_13", "beta"),
    ("NATION_24", "gamma"),
]


def trade_graph_label_spreading(sf_dir: str) -> Dataset:
    """Seeded semi-supervised label propagation (seeds clamped,
    weighted-majority rounds, ties -> min label).  The SQL twin
    unrolls the full max_rounds=15 synchronous schedule — rounds past
    the fixpoint are no-ops, and an oscillating run ends at the same
    round-15 state in both plans."""
    from renard_ray.ops.graphstats import label_spreading_dataset

    return label_spreading_dataset(
        trade_edges(sf_dir), seed_labels=LABEL_SPREADING_SEEDS
    )


def trade_graph_motifs(sf_dir: str) -> Dataset:
    """Directed 3-node motif census (reciprocal pairs, feed-forward,
    min-rotation 3-cycles) — exact-join SQL twin."""
    from renard_ray.ops.triangles import motif_census_dataset

    return motif_census_dataset(trade_edges(sf_dir))


def trade_graph_distance_stats(sf_dir: str) -> Dataset:
    """Exact per-node directed BFS distance stats (n_reachable /
    dist_sum / eccentricity / Wasserman-Faust closeness ppm) — the
    SQL twin is a min-plus DOUBLING closure (6 levels cover 64 hops)
    so the oracle needs log(diameter) unrolled joins, not
    diameter-many."""
    from renard_ray.ops.graphstats import distance_stats_dataset

    return distance_stats_dataset(trade_edges(sf_dir), directed=True)


def trade_graph_katz(sf_dir: str) -> Dataset:
    """Katz centrality over the trade digraph's undirected weighted
    view (20 fixed iterations, RELATIVE attenuation 0.5/max weighted
    degree) — the oracle is the pagerank-style unrolled-CTE twin."""
    from renard_ray.ops.graphstats import katz_dataset

    return katz_dataset(trade_edges(sf_dir))


def trade_graph_eigenvector(sf_dir: str) -> Dataset:
    """Eigenvector centrality (30 L1-normalized power iterations over
    the undirected weighted view) — unrolled-CTE twin."""
    from renard_ray.ops.graphstats import eigenvector_centrality_dataset

    return eigenvector_centrality_dataset(trade_edges(sf_dir))


def trade_graph_neighborhood_exact(sf_dir: str) -> Dataset:
    """Exact neighborhood function over the DIRECTED trade graph —
    the doubling-closure twin derives per-distance pair counts and a
    window cumsum."""
    from renard_ray.ops.graphstats import exact_neighborhood_function_dataset

    return exact_neighborhood_function_dataset(
        trade_edges(sf_dir), directed=True
    )
