"""Community detection over the constructed KG: synchronous label
propagation (Raghavan et al. 2007, the standard LPA formulation).

Semantics (fully deterministic):

- every node starts with its own name as label;
- each iteration, every node adopts the MOST FREQUENT label among its
  neighbors, ties broken by the lexicographically smallest label;
- updates are synchronous (all nodes vote on the previous round's
  labels) and the iteration count is fixed, so runs are reproducible.
  Synchronous LPA can oscillate on bipartite-ish structures — a fixed
  ``n_iter`` bounds that by construction; callers wanting convergence
  diagnostics can compare consecutive label tables.

Scale shape, per iteration: one streaming pass over the directed edge
list + one ``groupby`` shuffle keyed on (node, label).  The label
table is vocabulary-bounded (canonical entities), so it rides the same
size-adaptive policy as PageRank's rank vector: broadcast via
``ray.put`` + ``index_in`` while it fits the row budget, and a
``hash_join`` label exchange past it (nothing vocabulary-sized on
the driver in that regime).  The per-node argmax-with-tie reduce is a
single ``Min`` aggregate over an encoded (inverted count, label) sort
key — the same trick as the canonical-display-name pick in
``pipelines.kg``.

No counterpart in the reference (no graph analytics); sibling of
``ops/graphstats.py`` and ``ops/triangles.py``.
"""

from __future__ import annotations

import pyarrow as pa
import numpy as np
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Min, Sum

from renard_ray.ops.hashagg import hash_join

from .relational import _collect_small
from .triangles import _distinct_edges

_LABEL_LIMIT = 5_000_000  # label-table broadcast budget (rows)
_SEP = "\x1f"  # cannot appear in extracted entity names
_CNT_W = 13  # count field width; asserts below keep overflow loud


def _weighted_edges(triples: Dataset, weight_col: str | None) -> Dataset:
    """Undirected edge list (lo, hi, wi): wi = per-pair sum of
    round(weight * 100) as EXACT int64 centi-weights (order-independent
    sums -> deterministic votes), or 1 per distinct edge when
    ``weight_col`` is None."""
    if weight_col is None:
        return _distinct_edges(triples).map_batches(
            lambda b: b.append_column(
                "wi", pa.array([1] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )

    def norm(batch: pa.Table) -> pa.Table:
        s, o = batch.column("subj"), batch.column("obj")
        lo = pc.min_element_wise(s, o)
        hi = pc.max_element_wise(s, o)
        wi = pc.cast(
            pc.round(
                pc.multiply(
                    pc.cast(batch.column(weight_col), pa.float64()),
                    pa.scalar(100.0),
                ),
                ndigits=0, round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        t = pa.table({"lo": lo, "hi": hi, "wi": wi}).filter(
            pc.not_equal(lo, hi)
        )
        return (
            t.group_by(["lo", "hi"]).aggregate([("wi", "sum")])
            .rename_columns(["lo", "hi", "wi"])
        )

    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        triples.map_batches(norm, batch_format="pyarrow"),
        ["lo", "hi"],
        [("wi", "sum", "wi")],
    )


def _pick_label(votes: Dataset) -> Dataset:
    """(node, lab) with lab = argmax count, ties -> min label.

    Encodes (10^13 - count, label) into one lexicographic key so a
    single ``Min`` aggregate resolves the argmax."""

    def encode(batch: pa.Table) -> pa.Table:
        cnt = batch.column("n")
        if pc.max(cnt).as_py() is not None and pc.max(cnt).as_py() >= 10**_CNT_W - 1:
            raise ValueError("label vote count overflows the encoded key")
        inv = pc.subtract(pa.scalar(10**_CNT_W - 1, pa.int64()), cnt)
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(inv, pa.string()), _CNT_W, "0"),
            batch.column("lab"),
            _SEP,
        )
        return pa.table({"node": batch.column("node"), "key": key})

    def decode(batch: pa.Table) -> pa.Table:
        lab = pc.utf8_slice_codeunits(
            batch.column("key"), _CNT_W + 1, 2**31 - 1
        )
        return pa.table({"node": batch.column("node"), "lab": lab})

    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        votes.map_batches(encode, batch_format="pyarrow"),
        "node",
        [("key", "min", "key")],
    ).map_batches(decode, batch_format="pyarrow")


def label_propagation(
    triples: Dataset,
    n_iter: int = 10,
    *,
    weight_col: str | None = None,
    broadcast_limit: int | None = None,
    driver_limit: int = 200_000,
) -> Dataset:
    """(node, community) after ``n_iter`` synchronous LPA rounds over
    the undirected graph of the triple table.  With ``weight_col``,
    votes are weighted by the summed edge weight (exact integer
    centi-weights), the standard weighted-LPA variant — co-occurrence
    strength decides contested nodes instead of raw neighbor counts.

    Size-adaptive (house convention): when the REDUCED weighted edge
    list fits ``driver_limit`` rows, the synchronous rounds run as a
    plain driver loop over the collected pairs — the distributed loop
    costs ~4 bounded executions per round, pure scheduling overhead on
    a small graph.  Identical semantics (same reduced centi-weights,
    ties -> min label, fixpoint early exit); tests force
    ``driver_limit=0`` to exercise the distributed rounds."""
    limit = _LABEL_LIMIT if broadcast_limit is None else broadcast_limit
    edges = _weighted_edges(triples, weight_col).materialize()

    if edges.count() <= driver_limit:
        lo: list = []
        hi: list = []
        wi: list = []
        for b in edges.iter_batches(batch_format="pyarrow", batch_size=None):
            lo.extend(b.column("lo").to_pylist())
            hi.extend(b.column("hi").to_pylist())
            wi.extend(b.column("wi").to_pylist())
        adj: dict = {}
        for u, v, w in zip(lo, hi, wi):
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
        lab = {v: v for v in adj}
        for _ in range(n_iter):
            new_lab = {}
            for v, nbrs in adj.items():
                counts: dict = {}
                for u, w in nbrs.items():
                    counts[lab[u]] = counts.get(lab[u], 0) + w
                top = max(counts.values())
                new_lab[v] = min(l for l, c in counts.items() if c == top)
            if new_lab == lab:  # fixpoint: further rounds are no-ops
                break
            lab = new_lab
        nodes_sorted = sorted(lab)
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes_sorted, pa.string()),
                    "community": pa.array(
                        [lab[v] for v in nodes_sorted], pa.string()
                    ),
                }
            )
        )

    def both(batch: pa.Table) -> pa.Table:
        lo = batch.column("lo").combine_chunks()
        hi = batch.column("hi").combine_chunks()
        wi = batch.column("wi").combine_chunks()
        return pa.table(
            {
                "node": pa.concat_arrays([lo, hi]),
                "nbr": pa.concat_arrays([hi, lo]),
                "wi": pa.concat_arrays([wi, wi]),
            }
        )

    directed = edges.map_batches(
        both, batch_format="pyarrow"
    ).materialize()  # scanned every round

    # round 0: label(v) = v
    from renard_ray.ops.hashagg import hash_aggregate

    labels = hash_aggregate(directed, "node", []).map_batches(
        lambda b: pa.table(
            {"node": b.column("node"), "lab": b.column("node")}
        ),
        batch_format="pyarrow",
    ).materialize()

    prev_pairs = None
    for _ in range(n_iter):
        lab_tab = _collect_small(labels, limit)
        if lab_tab is not None:
            # fixpoint early-exit, free on this path: the round's label
            # table is ALREADY collected for the broadcast — once no
            # label changed, every further synchronous round is a
            # provable no-op (same votes -> same argmax), so the result
            # equals the full n_iter run
            cur_pairs = lab_tab.sort_by("node").combine_chunks()
            if (
                prev_pairs is not None
                and cur_pairs.num_rows == prev_pairs.num_rows
                and pc.all(
                    pc.and_(
                        pc.equal(
                            cur_pairs.column("node"), prev_pairs.column("node")
                        ),
                        pc.equal(
                            cur_pairs.column("lab"), prev_pairs.column("lab")
                        ),
                    )
                ).as_py()
            ):
                break
            prev_pairs = cur_pairs
            ref = ray.put(lab_tab.combine_chunks())

            def vote(batch: pa.Table) -> pa.Table:
                lt = ray.get(ref)
                idx = pc.index_in(batch.column("nbr"), value_set=lt.column("node"))
                t = pa.table(
                    {
                        "node": batch.column("node"),
                        "lab": pc.take(lt.column("lab"), idx),
                        "wi": batch.column("wi"),
                    }
                )
                # per-batch combine before the shuffle
                return (
                    t.group_by(["node", "lab"])
                    .aggregate([("wi", "sum")])
                    .rename_columns(["node", "lab", "n"])
                )

            votes = directed.map_batches(vote, batch_format="pyarrow")
        else:
            lab_r = labels.map_batches(
                lambda b: b.rename_columns(["node_", "lab"]),
                batch_format="pyarrow",
            )
            nbr_lab = hash_join(directed, lab_r, "nbr", "node_")
            votes = nbr_lab.map_batches(
                lambda b: (
                    b.select(["node", "lab", "wi"])
                    .group_by(["node", "lab"])
                    .aggregate([("wi", "sum")])
                    .rename_columns(["node", "lab", "n"])
                ),
                batch_format="pyarrow",
            )

        summed = hash_aggregate(votes, ["node", "lab"], [("n", "sum", "n")])
        labels = _pick_label(summed).materialize()

    return labels.map_batches(
        lambda b: b.rename_columns(["node", "community"]),
        batch_format="pyarrow",
    )


def community_sizes(
    triples: Dataset, n_iter: int = 10, **kwargs
) -> Dataset:
    """Query surface: one row per community — (community, n_members),
    sorted by size desc then community asc."""
    labels = label_propagation(triples, n_iter, **kwargs)
    from renard_ray.ops.hashagg import hash_aggregate

    return (
        hash_aggregate(labels, "community", [("", "count_all", "n_members")])
        .sort(["n_members", "community"], descending=[True, False])
    )


def label_propagation_oracle(
    edges: list[tuple[str, str]] | list[tuple[str, str, float]],
    n_iter: int = 10,
) -> dict[str, str]:
    """Small-graph oracle: the identical synchronous LPA in plain
    Python (independent of the distributed machinery).  Edges may
    carry a weight as a third element (centi-weight vote semantics)."""
    adj: dict[str, dict[str, int]] = {}
    for e in edges:
        u, v = e[0], e[1]
        if u == v:
            continue
        if len(e) > 2:  # weighted: per-pair centi-weight sums
            wi = int(round(float(e[2]) * 100))
            adj.setdefault(u, {})[v] = adj.setdefault(u, {}).get(v, 0) + wi
            adj.setdefault(v, {})[u] = adj.setdefault(v, {}).get(u, 0) + wi
        else:  # unweighted: distinct edges vote 1 (duplicates ignored)
            adj.setdefault(u, {})[v] = 1
            adj.setdefault(v, {})[u] = 1
    lab = {v: v for v in adj}
    for _ in range(n_iter):
        new = {}
        for v, nbrs in adj.items():
            counts: dict[str, int] = {}
            for u, wi in nbrs.items():
                counts[lab[u]] = counts.get(lab[u], 0) + wi
            # ties -> min label: (count desc, label asc)
            top = max(counts.values())
            best_lab = min(l for l, c in counts.items() if c == top)
            new[v] = best_lab
        lab = new
    return lab


def _sq_limbs(vals: "np.ndarray") -> tuple[int, int, int, int, int, int]:
    """Exact sum of SQUARES of int64 values whose squares may exceed
    int64 (community degree sums reach ~2m ~ 2e12; squares ~4e24):
    split d = dh*2^31 + dl, accumulate the three component sums
    (dh^2, 2*dh*dl, dl^2) as limb pairs each — every per-row component
    fits int64 for d < 2^62.  Recombine:
    sum(d^2) = S(dh^2)*2^62 + S(2 dh dl)*2^31 + S(dl^2)."""
    from renard_ray.ops.relational import _LIMB_MASK, _LIMB_SHIFT, _limb_sums

    dh = vals >> _LIMB_SHIFT
    dl = vals & _LIMB_MASK
    a = _limb_sums(dh * dh)
    b = _limb_sums(2 * dh * dl)
    c = _limb_sums(dl * dl)
    return (*a, *b, *c)


def modularity_dataset(
    triples: Dataset,
    labels: Dataset,
    label_limit: int = 4_000_000,
    driver_limit: int = 2_000_000,
) -> Dataset:
    """Exact Newman modularity Q of a community assignment over the
    undirected multigraph (self-loops dropped, parallel edges counted)
    — THE quality score for community detection: Q > 0 means more
    intra-community edges than a degree-preserving random graph.

    Q = (4m * L_in - sum_c d_c^2) / (4 m^2), with L_in = intra-
    community edge rows, d_c = summed degree per community, m = edge
    rows.  Everything derives from TWO size-adaptive label-attach
    lookup joins on the edge list plus per-community degree sums; the
    d_c^2 reduction rides the split-square limb encoding
    (``_sq_limbs``) because community degrees square past int64 at web
    scale.  Output is a one-row exact half-away ppm (Q in [-0.5, 1]).
    """
    from fractions import Fraction

    from renard_ray.ops.relational import (
        _LIMB_SHIFT,
        broadcast_lookup_join,
    )

    def edges_only(batch: pa.Table) -> pa.Table:
        s, o = batch.column("subj"), batch.column("obj")
        keep = pc.invert(pc.equal(s, o))
        return pa.table({"src": s.filter(keep), "dst": o.filter(keep)})

    edges = triples.map_batches(edges_only, batch_format="pyarrow").materialize()
    m = edges.count()
    if m == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_edges": pa.array([0], pa.int64()),
                    "n_communities": pa.array([0], pa.int64()),
                    "modularity_ppm": pa.array([0], pa.int64()),
                }
            )
        )

    lab = labels.materialize()

    # size-adaptive fast path (house convention): Q is a pure function
    # of the collected (src, dst) edge rows and the label map — under
    # ``driver_limit`` edge rows both fit the driver comfortably and
    # the 8-execution distributed plan is pure scheduling overhead.
    # EXACT same integer arithmetic (counts + Fraction ppm); tests
    # force ``driver_limit=0`` to exercise the distributed plan.
    if m <= driver_limit and lab.count() <= driver_limit:
        # skip schema-less EMPTY blocks (an empty reduce partition
        # upstream carries no columns and would fail the concat)
        et = pa.concat_tables(
            [t for t in (ray.get(r) for r in edges.to_arrow_refs()) if t.num_rows]
        )
        lts = [
            t for t in (ray.get(r) for r in lab.to_arrow_refs()) if t.num_rows
        ]
        lmap = (
            dict(
                zip(
                    pa.concat_tables(lts).column("node").to_pylist(),
                    pa.concat_tables(lts).column("community").to_pylist(),
                )
            )
            if lts
            else {}
        )
        src = et.column("src").to_pylist()
        dst = et.column("dst").to_pylist()
        l_in = 0
        deg: dict = {}
        for u, v in zip(src, dst):
            if lmap.get(u) == lmap.get(v) and u in lmap:
                l_in += 1
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        # unlabeled endpoints drop from d_c exactly as the distributed
        # plan's inner lookup join drops them
        dc: dict = {}
        for n, d in deg.items():
            if n in lmap:
                c = lmap[n]
                dc[c] = dc.get(c, 0) + d
        sum_d2 = sum(d * d for d in dc.values())
        num = 4 * m * l_in - sum_d2
        den = 4 * m * m
        f = Fraction(1_000_000 * num, den)
        ppm = (
            (f.numerator * 2 + f.denominator) // (2 * f.denominator)
            if f >= 0
            else -((-f.numerator * 2 + f.denominator) // (2 * f.denominator))
        )
        ppm = int(ppm)
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_edges": pa.array([m], pa.int64()),
                    "n_communities": pa.array([len(dc)], pa.int64()),
                    "modularity_ppm": pa.array([ppm], pa.int64()),
                }
            )
        )

    e1 = broadcast_lookup_join(
        edges, lab, on="src", right_on="node", payload=["community"],
        limit=label_limit,
    )

    def rename_a(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dst": batch.column("dst"),
                "ca": batch.column("community"),
            }
        )

    e2 = broadcast_lookup_join(
        e1.map_batches(rename_a, batch_format="pyarrow"),
        lab, on="dst", right_on="node", payload=["community"],
        limit=label_limit,
    )

    def intra(batch: pa.Table) -> pa.Table:
        same = pc.equal(batch.column("ca"), batch.column("community"))
        return pa.table(
            {"n": pa.array([int(pc.sum(pc.cast(same, pa.int64())).as_py() or 0)],
                           pa.int64())}
        )

    l_in = int(
        e2.map_batches(intra, batch_format="pyarrow").sum("n") or 0
    )

    # d_c: degree per node (edge-row endpoints) -> label -> sum
    def endpoints(batch: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [
                batch.column("src").combine_chunks(),
                batch.column("dst").combine_chunks(),
            ]
        )
        t = pa.table({"node": both})
        return (
            t.group_by(["node"]).aggregate([("node", "count")])
        ).rename_columns(["node", "d"])

    from renard_ray.ops.hashagg import hash_aggregate

    deg = hash_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        [("d", "sum", "d")],
    )
    degl = broadcast_lookup_join(
        deg, lab, on="node", right_on="node", payload=["community"],
        limit=label_limit,
    )
    dc = hash_aggregate(degl, "community", [("d", "sum", "d_c")])

    def sq_partial(batch: pa.Table) -> pa.Table:
        d = batch.column("d_c").to_numpy().astype(np.int64)
        cols = _sq_limbs(d)
        names = ["a_hi", "a_lo", "b_hi", "b_lo", "c_hi", "c_lo"]
        return pa.table(
            {n: pa.array([v], pa.int64()) for n, v in zip(names, cols)}
        )

    agg = dc.map_batches(sq_partial, batch_format="pyarrow").aggregate(
        *[Sum(c, alias_name=c) for c in
          ("a_hi a_lo b_hi b_lo c_hi c_lo".split())]
    )
    n_comms = dc.count()
    sh = _LIMB_SHIFT
    sum_d2 = (
        (((int(agg["a_hi"]) << sh) + int(agg["a_lo"])) << (2 * sh))
        + (((int(agg["b_hi"]) << sh) + int(agg["b_lo"])) << sh)
        + ((int(agg["c_hi"]) << sh) + int(agg["c_lo"]))
    )
    num = 4 * m * l_in - sum_d2
    den = 4 * m * m
    f = Fraction(1_000_000 * num, den)
    ppm = (f.numerator * 2 + f.denominator) // (2 * f.denominator) if f >= 0 \
        else -((-f.numerator * 2 + f.denominator) // (2 * f.denominator))
    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([m], pa.int64()),
                "n_communities": pa.array([n_comms], pa.int64()),
                "modularity_ppm": pa.array([int(ppm)], pa.int64()),
            }
        )
    )
