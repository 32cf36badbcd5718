"""Minimum / maximum spanning forest by distributed Borůvka rounds.

Reference semantics analog: the reference has no graph analytics at
all (its graphs are per-novel networkx objects,
``renard/pipeline/graph_utils.py``); this is the KG-scale backbone
extractor — the maximum spanning forest of the co-occurrence graph is
the classic "strongest-ties skeleton" used to sparsify an affinity
graph before layout/visualization or downstream path analytics.

Algorithm (Borůvka 1926, the textbook distributed MST): every
component picks its minimum outgoing edge (all of which are MSF edges
by the cut property), the picked edges contract their components, and
the process repeats — components at least HALVE per round, so the
loop is O(log V) rounds regardless of graph size.

Uniqueness / determinism: edges are totally ordered by the packed key
``(effective_weight, u, v)`` (zero-padded centi-int + name fields,
``\\x1f``-separated so concatenation order equals tuple order).  With
all keys distinct the MSF is UNIQUE, every pick is a string ``Min``
aggregate, and the contraction labels come from the deterministic CC —
output is a pure function of the input under any partitioning.

Scale shape, per round: TWO size-adaptive lookup joins attach the
current component labels to the live edges (labels are node-bounded:
broadcast under the row budget, hash join past it), ONE vectorized
filter drops now-intra-component edges (the live edge set only
shrinks), ONE ``groupby(comp).Min(key)`` picks the per-component
winner, ONE semi join recovers the winning edge rows, and the
contraction runs :func:`renard_ray.pipelines.cc.connected_components`
over a pair table bounded by the CURRENT component count (geometric
decay).  Driver state: scalar counts and the round index only.
"""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Min

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

logger = logging.getLogger(__name__)

_SEP = "\x1f"
_W_CAP = 10**13  # centi-weights must fit the 13-char zero-pad field


def _edge_table(triples: Dataset, maximum: bool) -> Dataset:
    """Distinct undirected (a < b) edges with exact centi-int weights;
    parallel edges collapse to the EXTREME one for the chosen mode
    (min weight for MST, max for the maximum spanning forest) and
    self-loops drop.  Adds the packed total-order key."""

    def normalize(batch: pa.Table) -> pa.Table:
        from renard_ray.ops.relational import _cents

        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        # the repo-wide half-away centi recipe (_cents), NOT pc.round's
        # default half-to-even — a 1.005 weight must pack as 101 like
        # every oracle-checked operator and DuckDB's ROUND
        w = _cents(pc.cast(batch.column("weight"), pa.float64()))
        lt = pc.less(s, o)
        t = pa.table(
            {
                "a": pc.if_else(lt, s, o),
                "b": pc.if_else(lt, o, s),
                "w": w,
            }
        )
        t = t.filter(pc.not_equal(t.column("a"), t.column("b")))
        if t.num_rows:
            lo = pc.min(t.column("w")).as_py()
            hi = pc.max(t.column("w")).as_py()
            if lo < 0 or hi >= _W_CAP:
                raise ValueError(
                    f"mst: centi-weight out of the packable range "
                    f"[0, {_W_CAP}) (saw [{lo}, {hi}]) — the zero-padded "
                    "key field would mis-order; rescale the weights"
                )
        return t

    edges = _hagg_auto(
        triples.select_columns(["subj", "obj", "weight"]).map_batches(
            normalize, batch_format="pyarrow"
        ),
        ["a", "b"],
        [("w", "min" if not maximum else "max", "w")],
    )

    def key(batch: pa.Table) -> pa.Table:
        w = batch.column("w")
        eff = w if not maximum else pc.subtract(pa.scalar(_W_CAP - 1, pa.int64()), w)
        k = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(eff, pa.string()), 13, "0"),
            batch.column("a"),
            batch.column("b"),
            _SEP,
        )
        return pa.table(
            {"a": batch.column("a"), "b": batch.column("b"), "w": w, "key": k}
        )

    return edges.map_batches(key, batch_format="pyarrow")


def mst_dataset(
    triples: Dataset,
    maximum: bool = False,
    max_rounds: int = 64,
    broadcast_limit: int | None = None,
    cc_driver_limit: int = 5_000_000,
) -> Dataset:
    """Minimum (or, ``maximum=True``, maximum) spanning FOREST of the
    undirected weighted graph in ``triples`` (subj, obj, weight) —
    one tree per connected component, n_nodes − n_components edges.

    Output: (u, v, w_centi, weight) sorted by (u, v), with u < v.
    Ties across equal weights resolve by the (weight, u, v) total
    order, making the forest unique and partition-independent.

    ``broadcast_limit`` bounds the label/keyset broadcasts (size-
    adaptive joins past it); ``cc_driver_limit`` bounds the driver-CC
    path of each round's contraction (distributed large/small-star CC
    past it).  Tests force both to 0 to exercise the hash plans.
    """
    from renard_ray.ops.relational import (
        _collect_small,
        broadcast_lookup_join,
        broadcast_semi_join,
    )
    from renard_ray.pipelines.cc import connected_components

    out_schema = pa.schema(
        [
            ("u", pa.string()),
            ("v", pa.string()),
            ("w_centi", pa.int64()),
            ("weight", pa.float64()),
        ]
    )
    limit = 5_000_000 if broadcast_limit is None else broadcast_limit

    edges = _edge_table(triples, maximum).materialize()
    if edges.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    # labels: node -> component (initially itself); node-bounded
    def endpoints(batch: pa.Table) -> pa.Table:
        n = pa.concat_arrays(
            [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
        )
        return pa.table({"node": n})

    labels = (
        _hagg_auto(edges.map_batches(endpoints, batch_format="pyarrow"), "node", [('', 'count_all', '_n')])
        .map_batches(
            lambda b: pa.table({"node": b.column("node"), "comp": b.column("node")}),
            batch_format="pyarrow",
        )
        .materialize()
    )

    live = edges
    picked: list[Dataset] = []

    for rnd in range(max_rounds):
        # attach both component labels (labels are node-bounded)
        la = labels.map_batches(
            lambda b: pa.table({"node": b.column("node"), "comp_a": b.column("comp")}),
            batch_format="pyarrow",
        )
        lb = labels.map_batches(
            lambda b: pa.table({"node": b.column("node"), "comp_b": b.column("comp")}),
            batch_format="pyarrow",
        )
        attached = broadcast_lookup_join(
            broadcast_lookup_join(live, la, on="a", right_on="node",
                                  payload=["comp_a"], limit=limit),
            lb, on="b", right_on="node", payload=["comp_b"], limit=limit,
        )
        inter = attached.map_batches(
            lambda b: b.filter(
                pc.not_equal(b.column("comp_a"), b.column("comp_b"))
            ),
            batch_format="pyarrow",
        ).materialize()
        n_inter = inter.count()
        logger.info("mst round %d: %d inter-component edges", rnd, n_inter)
        if n_inter == 0:
            break

        # per-component minimum outgoing edge via the packed-key Min
        def fan(batch: pa.Table) -> pa.Table:
            k = batch.column("key").combine_chunks()
            return pa.table(
                {
                    "comp": pa.concat_arrays(
                        [
                            batch.column("comp_a").combine_chunks(),
                            batch.column("comp_b").combine_chunks(),
                        ]
                    ),
                    "key": pa.concat_arrays([k, k]),
                }
            )

        chosen_keys = (
            _hagg_auto(
                _hagg_auto(
                    inter.map_batches(fan, batch_format="pyarrow"),
                    "comp",
                    [("key", "min", "key")],
                ),
                "key",
                [],
            )
            .materialize()
        )
        sel = broadcast_semi_join(
            inter, chosen_keys, on="key", limit=limit
        ).materialize()
        picked.append(sel.select_columns(["a", "b", "w", "key"]))

        # contract: CC over the picked (comp_a, comp_b) pair graph —
        # bounded by the current component count, shrinking geometrically
        pairs = sel.select_columns(["comp_a", "comp_b"])
        label_map, label_ds = connected_components(
            pairs, u="comp_a", v="comp_b", driver_limit=cc_driver_limit
        )
        if label_map is not None:
            mref = ray.put(
                pa.table(
                    {
                        "k": pa.array(list(label_map.keys()), pa.string()),
                        "v": pa.array(list(label_map.values()), pa.string()),
                    }
                )
            )

            def relabel(batch: pa.Table) -> pa.Table:
                mt = ray.get(mref)
                idx = pc.index_in(batch.column("comp"), value_set=mt.column("k"))
                new = pc.take(mt.column("v"), idx)  # null when unmapped
                return pa.table(
                    {
                        "node": batch.column("node"),
                        "comp": pc.fill_null(new, batch.column("comp")),
                    }
                )

            labels = labels.map_batches(relabel, batch_format="pyarrow").materialize()
        else:
            ren = label_ds.map_batches(
                lambda b: pa.table(
                    {"comp": b.column("node"), "newcomp": b.column("label")}
                ),
                batch_format="pyarrow",
            )
            joined = hash_join(labels, ren, "comp", how="left outer")
            labels = joined.map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("node"),
                        "comp": pc.fill_null(b.column("newcomp"), b.column("comp")),
                    }
                ),
                batch_format="pyarrow",
            ).materialize()

        # the live set only shrinks: intra-component edges never return
        live = inter.select_columns(["a", "b", "w", "key"]).materialize()
    else:
        raise RuntimeError(
            f"mst: not converged after {max_rounds} rounds — components "
            "must at least halve per round, so this indicates a bug, "
            "not an input property"
        )

    if not picked:
        return ray.data.from_arrow(out_schema.empty_table())
    forest = picked[0]
    for p in picked[1:]:
        forest = forest.union(p)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch.column("a"),
                "v": batch.column("b"),
                "w_centi": batch.column("w"),
                "weight": pc.divide(
                    pc.cast(batch.column("w"), pa.float64()), 100.0
                ),
            }
        )

    return forest.map_batches(finish, batch_format="pyarrow").sort(["u", "v"])
