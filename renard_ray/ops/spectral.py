"""Distributed spectral graph embedding: top-k eigenvectors of the
weighted adjacency by subspace (simultaneous/orthogonal) iteration.

The classic spectral embedding (cf. orthogonal iteration, Golub & Van
Loan; spectral clustering per Ng-Jordan-Weiss 2001 — public
references) re-expressed so NOTHING node-sized ever lands on the
driver, at any graph size:

- the k-column iterate X lives in a (node, x0..x{k-1}) Dataset;
- Y = A·X is one hash join (edges ⋈ X on src) + one ``groupby(dst)``
  of k fixed-point int64 sums — exactly the PageRank join-regime
  exchange widened to k columns; per-edge fixed-point rounding +
  exact int sums keep it deterministic under any partitioning;
- orthonormalization never forms Y on the driver: the k×k Gram
  G = YᵀY is reduced from per-batch partials (rows sorted by node
  inside each batch, partials summed in sorted-tag order — a fixed
  float summation order), Cholesky-inverted on the driver (k×k), and
  X = Y·R⁻¹ is applied per batch;
- eigenvalues come from the same machinery (Rayleigh k×k), and each
  column's sign is canonicalized (first entry in node order whose
  |value| is within 1e-9 of the column max is made positive).

Scale: per iteration ONE join + ONE groupby + two streaming passes;
driver state is k×k matrices only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Max, Sum

from renard_ray.ops.hashagg import hash_join

from renard_ray.ops.walks import _node_id_u64, _splitmix64

__all__ = ["spectral_embedding_dataset"]

_U64 = np.uint64


def _init_x(names: list, dim: int) -> np.ndarray:
    """Deterministic per-node init in (-1, 1): splitmix64 of
    (md5(node) ^ column)."""
    nid = np.array([_node_id_u64(n) for n in names], dtype=_U64)
    cols = []
    for j in range(dim):
        # mask to 64 bits in python-int space: the raw product exceeds
        # 2^64 for j >= 2 and np.uint64() refuses oversized ints
        salt = _U64((0x5851F42D4C957F2D * (j + 1)) & 0xFFFFFFFFFFFFFFFF)
        h = _splitmix64(nid ^ salt)
        cols.append((h.astype(np.float64) / 2.0**63) - 1.0)
    return np.stack(cols, axis=1)


def spectral_embedding_dataset(
    triples: Dataset,
    dim: int = 4,
    iters: int = 25,
    tol: float = 1e-7,
    broadcast_limit: int = 5_000_000,
    driver_node_limit: int = 200_000,
    driver_edge_limit: int = 2_000_000,
) -> Dataset:
    """Top-``dim`` eigenvector embedding of the undirected weighted
    co-occurrence adjacency.  Output: (node, x0..x{dim-1},
    lam0..lam{dim-1}) sorted by node — the lam columns carry the
    per-column |eigenvalue| estimates (constant per column; attached
    to every row so downstream filters need no side channel).

    Per round the distributed work is ONE edges⋈Y hash join + ONE
    k-column fixed-point groupby + one materialize + the k×k Gram
    reduce: the orthonormalization X = Y·R⁻¹ is FOLDED into the next
    round's contribution map (R⁻¹ is k×k, applied per batch), so the
    iterate X never materializes mid-loop.  ``tol``: stop early once
    every |eigenvalue| estimate changes by less than ``tol`` relative
    between consecutive rounds.  The Gram partials are float sums
    grouped by the aggregate's output blocks, so lam can differ in the
    last ulps between partitionings — in practice the groupby's
    hash-partitioned output keeps the series (and stop round) stable,
    but only ``tol=0`` (exactly ``iters`` rounds) carries the repo's
    byte-determinism guarantee."""
    from renard_ray.ops.graphstats import degree_dataset
    from renard_ray.ops.relational import _collect_small

    xcols = [f"x{j}" for j in range(dim)]
    ycols = [f"y{j}" for j in range(dim)]

    edges = triples.select_columns(["subj", "obj", "weight"]).materialize()
    deg = degree_dataset(edges).materialize()
    n_nodes = deg.count()
    empty = pa.table(
        {"node": pa.array([], pa.string()),
         **{c: pa.array([], pa.float64()) for c in xcols},
         **{f"lam{j}": pa.array([], pa.float64()) for j in range(dim)}}
    )
    if n_nodes == 0:
        return ray.data.from_arrow(empty)

    # fixed-point scale for the contribution exchange, adapted to the
    # max weighted degree so per-dst int64 sums cannot overflow (same
    # argument as HITS)
    wmax = max(
        1.0,
        float(
            deg.aggregate(Max("weighted_degree", alias_name="m"))["m"]
        ),
    )
    scale = float(2**61) / (wmax * 4.0)

    def both_dirs(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").combine_chunks()
        o = batch.column("obj").combine_chunks()
        w = pc.cast(batch.column("weight"), pa.float64()).combine_chunks()
        t = pa.table(
            {
                "src": pa.concat_arrays([s, o]),
                "dst": pa.concat_arrays([o, s]),
                "w": pa.concat_arrays([w, w]),
            }
        )
        # self-loops out, matching _distinct_adjacency's convention —
        # a reflexive pair would otherwise put 2w on the diagonal and
        # shift the spectrum
        return t.filter(pc.not_equal(t.column("src"), t.column("dst")))

    ed = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()

    # size-adaptive fast path (house convention, cf. pagerank/LPA/SCC):
    # the iterate is vocabulary-bounded, so when BOTH the node vector
    # and the directed edge list fit their driver budgets the whole
    # subspace iteration runs as a local numpy loop — the distributed
    # loop costs ~4 bounded executions (broadcast attach, k-column
    # fixed-point hash aggregate, materialize, Gram reduce) x iters of
    # pure scheduling for zero parallel benefit on a small graph.  The
    # per-edge fixed-point contributions and int64 sums are IDENTICAL
    # (order-independent by construction); only the k x k Gram's float
    # summation order differs (global node order here vs per-batch
    # partials there), which perturbs R⁻¹ at ~1e-15 — inside the
    # round(8) output convention except exactly at rounding
    # boundaries, same caveat as every regime pair in the repo.
    # ``driver_edge_limit=0`` forces the distributed loop (tests do).
    if n_nodes <= driver_node_limit and ed.count() <= driver_edge_limit:
        et = pa.concat_tables(
            [ray.get(r) for r in ed.to_arrow_refs()]
        ).combine_chunks()
        nt = pa.concat_tables(
            [ray.get(r) for r in deg.to_arrow_refs()]
        ).combine_chunks().column("node")
        nt = nt.take(pc.sort_indices(nt)).combine_chunks()
        names = nt.to_pylist()
        si = pc.index_in(
            et.column("src").combine_chunks(), value_set=nt
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        di = pc.index_in(
            et.column("dst").combine_chunks(), value_set=nt
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        w = et.column("w").to_numpy(zero_copy_only=False).astype(np.float64)

        y = _init_x(names, dim)
        lam_l = np.zeros(dim)
        rinv = np.eye(dim)
        for it in range(iters):
            x = y @ rinv
            ysum = np.zeros((n_nodes, dim), dtype=np.int64)
            for j in range(dim):
                np.add.at(
                    ysum[:, j], di, np.rint(w * x[si, j] * scale).astype(np.int64)
                )
            y = ysum.astype(np.float64) / scale
            G = y.T @ y  # global node order (names sorted)
            lam_new = np.sqrt(np.maximum(np.diag(G), 0.0))
            try:
                R = np.linalg.cholesky(
                    G + np.eye(dim) * (1e-12 * max(1.0, G.max()))
                ).T
            except np.linalg.LinAlgError:
                R = np.linalg.cholesky(G + np.eye(dim) * 1e-6).T
            rinv = np.linalg.inv(R)
            settled = (
                tol > 0.0
                and it > 0
                and float(
                    np.max(
                        np.abs(lam_new - lam_l) / np.maximum(lam_new, 1e-300)
                    )
                ) < tol
            )
            lam_l = lam_new
            if settled:
                break

        Xm = y @ rinv
        out = {"node": nt}
        lam_r = np.round(lam_l, 6)
        for j in range(dim):
            v = Xm[:, j]
            near = np.flatnonzero(np.abs(v) >= np.max(np.abs(v)) - 1e-9)
            # names are sorted, so the first near-max row has the
            # smallest node name — same canonical-sign rule
            if len(near) and v[near[0]] < 0:
                v = -v
            out[xcols[j]] = pa.array(np.round(v, 8), pa.float64())
        for j in range(dim):
            out[f"lam{j}"] = pa.array(
                np.full(n_nodes, lam_r[j], dtype=np.float64)
            )
        return ray.data.from_arrow(pa.table(out))

    def init_rows(batch: pa.Table) -> pa.Table:
        names = batch.column("node").to_pylist()
        x = _init_x(names, dim)
        return pa.table(
            {"node": batch.column("node"),
             **{c: pa.array(x[:, j]) for j, c in enumerate(ycols)}}
        )

    cur = deg.select_columns(["node"]).map_batches(
        init_rows, batch_format="pyarrow"
    ).materialize()

    def gram_partials(batch: pa.Table, cols: list) -> pa.Table:
        """k×k partial Gram of a batch, rows sorted by node for a
        fixed float summation order; tagged with the min node."""
        if batch.num_rows == 0:
            return pa.table(
                {"tag": pa.array([], pa.string()),
                 "g": pa.array([], pa.list_(pa.float64()))}
            )
        idx = pc.sort_indices(batch.column("node"))
        m = np.stack(
            [
                np.asarray(batch.column(c).take(idx), dtype=np.float64)
                for c in cols
            ],
            axis=1,
        )
        g = m.T @ m
        return pa.table(
            {
                "tag": pa.array([batch.column("node")[idx[0].as_py()].as_py()]),
                "g": pa.array([g.reshape(-1).tolist()], pa.list_(pa.float64())),
            }
        )

    def reduce_gram(ds: Dataset, cols: list) -> np.ndarray:
        parts = ds.map_batches(
            lambda b, _c=tuple(cols): gram_partials(b, list(_c)),
            batch_format="pyarrow",
        ).take_all()
        parts.sort(key=lambda r: r["tag"])
        g = np.zeros((dim, dim))
        for r in parts:
            g += np.array(r["g"], dtype=np.float64).reshape(dim, dim)
        return g

    lam = np.zeros(dim)
    rinv_prev = np.eye(dim)
    for it in range(iters):
        rprev_ref = ray.put(rinv_prev)

        # Y = A·(Y_prev·R⁻¹): the orthonormalization rides the
        # contribution map (k×k matmul per batch) — X never
        # materializes mid-loop
        def contrib(batch: pa.Table) -> pa.Table:
            ri = ray.get(rprev_ref)
            w = np.asarray(batch.column("w"), dtype=np.float64)
            ym = np.stack(
                [np.asarray(batch.column(c), dtype=np.float64) for c in ycols],
                axis=1,
            )
            x = ym @ ri
            out = {"dst": batch.column("dst")}
            for j in range(dim):
                out[f"c{j}"] = pa.array(
                    np.rint(w * x[:, j] * scale).astype(np.int64), pa.int64()
                )
            t = pa.table(out)
            # map-side combine (hub dst keys repeat within a batch)
            return (
                t.group_by(["dst"])
                .aggregate([(f"c{j}", "sum") for j in range(dim)])
                .rename_columns(["dst"] + [f"c{j}" for j in range(dim)])
            )

        # size-adaptive attach: the iterate is vocabulary-bounded
        # (one row per node), so broadcast it while it fits the row
        # budget — the per-round exchange is then ONLY the dst groupby;
        # hash join past the budget (same plan family as the rest of
        # the repo)
        cur_small = _collect_small(cur, broadcast_limit)
        if cur_small is not None:
            cref = ray.put(cur_small.combine_chunks())

            def attach_bcast(batch: pa.Table) -> pa.Table:
                ct = ray.get(cref)
                return batch.join(
                    ct, keys=["src"], right_keys=["node"], join_type="inner"
                )

            joined = ed.map_batches(attach_bcast, batch_format="pyarrow")
        else:
            joined = hash_join(ed, cur, "src", "node")
        from renard_ray.ops.hashagg import hash_aggregate

        Ysum = hash_aggregate(
            joined.map_batches(contrib, batch_format="pyarrow"),
            "dst",
            [(f"c{j}", "sum", f"s{j}") for j in range(dim)],
        )

        def to_float(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"node": batch.column("dst"),
                 **{
                     ycols[j]: pa.array(
                         np.asarray(
                             batch.column(f"s{j}"), dtype=np.float64
                         ) / scale
                     )
                     for j in range(dim)
                 }}
            )

        cur = Ysum.map_batches(to_float, batch_format="pyarrow").materialize()

        G = reduce_gram(cur, ycols)
        # G = Yᵀ Y = Xᵀ A² X with Xᵀ X = I, so sqrt(diag(G)) estimates
        # the top |eigenvalues| once the columns settle
        lam_new = np.sqrt(np.maximum(np.diag(G), 0.0))
        # orthonormalize: X = Y R⁻¹ with G = Rᵀ R (Cholesky)
        # jitter the diagonal if a column collapsed (rank-deficient G)
        try:
            R = np.linalg.cholesky(
                G + np.eye(dim) * (1e-12 * max(1.0, G.max()))
            ).T
        except np.linalg.LinAlgError:
            R = np.linalg.cholesky(G + np.eye(dim) * 1e-6).T
        rinv_prev = np.linalg.inv(R)
        settled = (
            tol > 0.0
            and it > 0
            and float(
                np.max(np.abs(lam_new - lam) / np.maximum(lam_new, 1e-300))
            ) < tol
        )
        lam = lam_new
        if settled:
            break

    rref = ray.put(rinv_prev)

    def apply_rinv(batch: pa.Table) -> pa.Table:
        ri = ray.get(rref)
        m = np.stack(
            [np.asarray(batch.column(c), dtype=np.float64) for c in ycols],
            axis=1,
        )
        nx = m @ ri
        return pa.table(
            {"node": batch.column("node"),
             **{xcols[j]: pa.array(nx[:, j]) for j in range(dim)}}
        )

    X = cur.map_batches(apply_rinv, batch_format="pyarrow").materialize()

    # canonical signs: per column, flip so the entry at the smallest
    # node name among near-max-|value| rows is positive — two bounded
    # passes (k maxima, then k sign rows), no node-sized pull
    def absmax_partial(batch: pa.Table) -> pa.Table:
        out = {}
        for j, c in enumerate(xcols):
            v = np.asarray(batch.column(c), dtype=np.float64)
            out[f"m{j}"] = pa.array([float(np.max(np.abs(v))) if len(v) else 0.0])
        return pa.table(out)

    maxima = np.zeros(dim)
    for b in X.map_batches(absmax_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for j in range(dim):
            maxima[j] = max(maxima[j], b.column(f"m{j}")[0].as_py())

    def sign_rows(batch: pa.Table) -> pa.Table:
        rows = {"j": [], "node": [], "val": []}
        for j, c in enumerate(xcols):
            v = np.asarray(batch.column(c), dtype=np.float64)
            near = np.abs(v) >= maxima[j] - 1e-9
            if near.any():
                names = [
                    str(x)
                    for x in np.asarray(batch.column("node"))[near]
                ]
                k = min(range(len(names)), key=names.__getitem__)
                rows["j"].append(j)
                rows["node"].append(names[k])
                rows["val"].append(float(v[near][k]))
        return pa.table(
            {"j": pa.array(rows["j"], pa.int64()),
             "node": pa.array(rows["node"], pa.string()),
             "val": pa.array(rows["val"], pa.float64())}
        )

    best: dict[int, tuple[str, float]] = {}
    for b in X.map_batches(sign_rows, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for r in b.to_pylist():
            j = r["j"]
            if j not in best or r["node"] < best[j][0]:
                best[j] = (r["node"], r["val"])
    flips = np.array(
        [-1.0 if best.get(j, ("", 1.0))[1] < 0 else 1.0 for j in range(dim)]
    )
    flips_ref = ray.put((flips, np.round(lam, 6)))

    def finalize(batch: pa.Table) -> pa.Table:
        fl, lv = ray.get(flips_ref)
        out = {"node": batch.column("node")}
        for j, c in enumerate(xcols):
            v = np.asarray(batch.column(c), dtype=np.float64) * fl[j]
            out[c] = pa.array(np.round(v, 8))
        for j in range(dim):
            out[f"lam{j}"] = pa.array(
                np.full(batch.num_rows, lv[j], dtype=np.float64)
            )
        return pa.table(out)

    return X.map_batches(finalize, batch_format="pyarrow").sort("node")
