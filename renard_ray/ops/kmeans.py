"""Distributed k-means over the ``embeddings`` table and SemDeDup-style
semantic deduplication built on it.

Lloyd's iteration over an input materialized once (one Ray Data
execution); the rounds are plain Ray tasks over its blocks:

- **init**: one task per block quantizes it, keeps the ppm matrix in
  the object store and returns the block's k smallest-id rows; the
  driver merges those, so init is deterministic and never shuffles or
  sorts the table;
- **assign + reduce**: per round the centroids go out once via
  ``ray.put`` (k x d, tiny) and at most ``combine_parts`` tasks run,
  each over a fixed group of block refs passed as top-level args (so
  Ray resolves them in the worker); each returns exact int64 (k, d)
  coordinate sums and (k,) counts, which the driver adds up — nothing
  data-sized ever lands on the driver;
- **update**: new centroid = partial-sum / count; empty clusters keep
  their previous centroid.  Fixed ``n_iter`` keeps runs deterministic.

**Fixed-point arithmetic** (the house exact-integer recipe): every
vector L2-normalizes then quantizes to ppm int64 (``rint(x/|x| *
1e6)``); assignment is the argmin EXACT INTEGER squared distance
(``_assign_q``: exact in float64 up to d ~ 2000, so BLAS summation
order cannot move a result; ties break to the lowest cluster); the
update step sums int64 coordinates exactly, computes the
renormalization norm from an arbitrary-precision python-int sum of
squares, and re-quantizes.  Per-vector squared distances are exact
int64 in 1e-12 units.  Every step is therefore partition- and
order-independent, and the whole fit re-derives term-for-term in SQL —
``embedding_kmeans`` carries a full DuckDB twin (the unrolled-Lloyd
recipe, like the minhash permutation constants).

``semantic_dedup_pairs`` is the SemDeDup recipe (Abbas et al. 2023,
arXiv:2303.09540): cluster on normalized vectors (spherical k-means),
then inside each cluster greedily keep the lowest id and drop any
member whose cosine to an already-kept member is >= the threshold.
Pairwise work is cluster-local — O(sum m_c^2) instead of O(n^2) — and
each cluster is processed in one ``map_groups`` task with chunked
numpy matmuls, so memory stays bounded even for hot clusters.  An
explicit per-cluster row cap drops (and logs) pathological clusters
instead of silently stalling, mirroring the minhash/simhash bucket
policy in ``ops.dedup``.

No counterpart in the reference (no embedding ops at all); sibling of
``ops/similarity.py`` / ``ops/dedup.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from .similarity import _matrix, _read_embeddings  # shared decode/read

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto

_COMBINE_PARTS = 16  # tasks per Lloyd round = fan-in of the driver merge
_Q = 1_000_000  # ppm fixed-point scale shared with the SQL twin


def _quantize_rows(X: np.ndarray, normalize: bool = True) -> np.ndarray:
    """ppm-quantized rows: ``rint(x / |x| * 1e6)`` as int64.  The norm
    folds sequentially in index order (np.add.reduce stays sequential
    under numpy's 128-element pairwise threshold) — the same fold order
    as the SQL twin's list_aggregate, so a boundary-exact rint can't
    disagree."""
    X = np.asarray(X, dtype=np.float64)
    if normalize:
        norm = np.maximum(np.sqrt(np.add.reduce(X * X, axis=1)), 1e-12)
        X = X / norm[:, None]
    return np.rint(X * _Q).astype(np.int64)


def _assign_q(Xq: np.ndarray, Cq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster, squared distance in 1e-12 units) per quantized row:
    argmin of the EXACT integer squared L2 distance (|x|^2 - 2x.c +
    |c|^2, every term an exact integer in float64 while 4*d*m^2 stays
    under 2^53, m the largest coordinate magnitude — d <= ~2000 for
    normalized ppm rows — so BLAS summation order cannot move a result;
    ties break to the lowest cluster via argmin)."""
    d = Xq.shape[1]
    m = max(int(np.abs(Xq).max(initial=0)), int(np.abs(Cq).max(initial=0)))
    assert 4 * d * m * m < 2**53, "distances would leave exact float range"
    Xf = Xq.astype(np.float64)
    Cf = Cq.astype(np.float64)
    d2 = (
        (Xf * Xf).sum(axis=1, keepdims=True)
        - 2.0 * (Xf @ Cf.T)
        + (Cf * Cf).sum(axis=1)[None, :]
    )
    a = np.argmin(d2, axis=1)
    return a, d2[np.arange(len(Xf)), a].astype(np.int64)


def _renorm_q(sv: np.ndarray, normalize: bool, cnt: int) -> np.ndarray:
    """Quantized centroid from an exact int64 coordinate-sum vector.
    Spherical: rint(sv * 1e6 / sqrt(sum sv^2)) — the count cancels
    under renormalization, and the sum of squares is an
    arbitrary-precision python int, so the only float ops are one
    int->double conversion, one sqrt, one multiply, one divide and one
    rint, each bit-identical to the SQL twin's.  Non-spherical:
    rint(sv / cnt) (the plain mean, still in ppm units)."""
    if not normalize:
        return np.rint(sv.astype(np.float64) / cnt).astype(np.int64)
    ss = int(sum(int(v) * int(v) for v in sv))
    if ss == 0:
        return None  # degenerate zero-sum: caller keeps previous centroid
    nrm = math.sqrt(float(ss))
    return np.rint(sv.astype(np.float64) * float(_Q) / nrm).astype(np.int64)


@ray.remote(num_returns=2)
def _quantize_block(block: pa.Table, k: int, id_col: str, vec_col: str, normalize: bool):
    """One materialized block -> (its ppm int64 matrix, which stays in
    the object store for the Lloyd rounds; its k smallest-id rows as
    (ids, matrix), the block's share of the centroid seeds)."""
    Xq = _quantize_rows(_matrix(block.column(vec_col)), normalize)
    ids = np.asarray(block.column(id_col), dtype=np.int64)
    sel = np.argsort(ids, kind="stable")[:k]
    return Xq, (ids[sel], Xq[sel])


@ray.remote
def _lloyd_partial(Cq: np.ndarray, *blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 (k, d) coordinate sums and (k,) counts of one group
    of quantized blocks under the nearest-centroid assignment."""
    sums = np.zeros_like(Cq)
    cnt = np.zeros(len(Cq), dtype=np.int64)
    for Xq in blocks:
        if len(Xq):
            a, _ = _assign_q(Xq, Cq)
            np.add.at(sums, a, Xq)
            cnt += np.bincount(a, minlength=len(Cq))
    return sums, cnt


def kmeans_fit(
    embs: Dataset,
    k: int = 8,
    n_iter: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    normalize: bool = True,
    combine_parts: int = _COMBINE_PARTS,
) -> np.ndarray:
    """Fit k centroids with Lloyd's iteration; returns the (k, d)
    centroid matrix in ppm int64 fixed point.  ``normalize=True``
    L2-normalizes rows before quantization (spherical k-means).  All
    arithmetic is exact-integer (module docstring), so the result is
    independent of partitioning, batch order and retries — and
    SQL-reproducible."""
    # one execution materializes the input; every later step is plain
    # tasks over its blocks, whose quantized matrices stay in the
    # object store (they spill when the table outgrows memory)
    blocks, seeds = [], []
    for ref in embs.to_arrow_refs():
        xq, seed = _quantize_block.remote(ref, k, id_col, vec_col, normalize)
        blocks.append(xq)
        seeds.append(seed)
    seeds = [s for s in ray.get(seeds) if len(s[0])]
    if not seeds:
        return np.zeros((0, 0), dtype=np.int64)
    ids = np.concatenate([s[0] for s in seeds])
    C = np.concatenate([s[1] for s in seeds])[np.argsort(ids, kind="stable")[:k]]
    k = len(C)  # fewer rows than k: degenerate but well-defined
    groups = [g for g in np.array_split(np.arange(len(blocks)), combine_parts) if len(g)]

    for _ in range(n_iter):
        ref = ray.put(C)
        sums = np.zeros_like(C)
        tot = np.zeros(k, dtype=np.int64)
        for s, cnt in ray.get(
            [_lloyd_partial.remote(ref, *(blocks[i] for i in g)) for g in groups]
        ):
            sums += s
            tot += cnt
        C = C.copy()
        for c in range(k):
            if tot[c] > 0:
                nc = _renorm_q(sums[c], normalize, int(tot[c]))
                if nc is not None:
                    C[c] = nc
    return C


def kmeans_assign(
    embs: Dataset,
    centroids: np.ndarray,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    normalize: bool = True,
) -> Dataset:
    """(id, cluster, sq_dist_q) — cluster is the exact-integer argmin
    assignment against the ppm centroid matrix; ``sq_dist_q`` is the
    EXACT int64 squared L2 distance in 1e-12 units (order-independent,
    SQL-reproducible)."""
    ref = ray.put(np.asarray(centroids, dtype=np.int64))

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "sq_dist_q": pa.array([], pa.int64()),
                }
            )
        X = _matrix(batch.column(vec_col))
        Xq = _quantize_rows(X, normalize)
        a, d2 = _assign_q(Xq, ray.get(ref))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "cluster": pa.array(a.astype(np.int64)),
                "sq_dist_q": pa.array(d2),
            }
        )

    return embs.map_batches(assign, batch_format="pyarrow")


def kmeans_cluster_stats(
    sf_dir: str, k: int = 8, n_iter: int = 10
) -> Dataset:
    """Query surface: per-cluster (cluster, n_vecs, sum_sq_dist_q,
    avg_sq_dist) over the ``embeddings`` table, sorted by cluster id.
    ``sum_sq_dist_q`` is an exact int64 sum of 1e-12-unit squared
    distances; ``avg_sq_dist`` derives from it by one division chain
    computed identically in the SQL twin."""
    embs = _read_embeddings(sf_dir).materialize()
    C = kmeans_fit(embs, k, n_iter)
    assigned = kmeans_assign(embs, C)

    def stats(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["cluster"]).aggregate(
            [("cluster", "count"), ("sq_dist_q", "sum")]
        )
        return t.rename_columns(["cluster", "n_vecs", "d2_sum"])

    return (
        _hagg_auto(
            assigned.map_batches(stats, batch_format="pyarrow"),
            "cluster",
            [("n_vecs", "sum", "n_vecs"), ("d2_sum", "sum", "d2_sum")],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "cluster": b.column("cluster"),
                    "n_vecs": b.column("n_vecs"),
                    "sum_sq_dist_q": b.column("d2_sum"),
                    "avg_sq_dist": pa.array(
                        np.asarray(b.column("d2_sum"), dtype=np.float64)
                        / np.asarray(b.column("n_vecs"), dtype=np.float64)
                        / 1e12
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .sort("cluster")
    )


def semantic_dedup_pairs(
    sf_dir: str,
    threshold: float = 0.45,
    k: int = 8,
    n_iter: int = 10,
    *,
    cluster_cap: int = 100_000,
) -> Dataset:
    """SemDeDup: spherical k-means then greedy within-cluster dedup.
    Returns the dropped pairs (vec_id, dup_of, cosine_sim) — ``dup_of``
    is the kept (lowest-id) member the vector matched, sorted by
    vec_id.  Every returned pair is a true global near-dup (cosine is
    the exact integer dot of the ppm-quantized normalized vectors, in
    1e-12 units — deterministic, BLAS-order-free, SQL-reproducible; the
    quantization shifts a cosine by at most ~2e-6), so the answer is a
    subset of the exact pair join restricted to co-clustered vectors.

    Scale sizing (``k`` x ``cluster_cap``): the per-cluster greedy IS
    the published SemDeDup algorithm (O(m^2) within a cluster), so a
    cluster's rows must fit one task — ``cluster_cap`` bounds that
    loudly (warn + keep lowest ids) rather than OOMing.  The k=8
    default is fixture-sized; at corpus scale size ``k`` so the MEAN
    cluster is well under the cap, i.e. k ≈ n / (cluster_cap / a few)
    — e.g. 1e9 vectors at cap 100k wants k ≈ 20k-50k, matching the
    paper's 'many small clusters' regime.  The map_groups here stays
    deliberately: within-cluster order-dependent greedy is inherently
    sequential per group; parallelism comes from #clusters."""
    embs = _read_embeddings(sf_dir).materialize()
    C = kmeans_fit(embs, k, n_iter)
    ref = ray.put(np.asarray(C, dtype=np.int64))

    def tag(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "vec": pa.array([], pa.list_(pa.int64())),
                }
            )
        # membership AND the greedy both run on the ppm-quantized
        # normalized rows — one representation end to end
        Xq = _quantize_rows(_matrix(batch.column("embedding")), True)
        a, _ = _assign_q(Xq, ray.get(ref))
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cluster": pa.array(a.astype(np.int64)),
                "vec": pa.array(list(Xq), pa.list_(pa.int64())),
            }
        )

    tagged = embs.map_batches(tag, batch_format="pyarrow")

    def dedup_cluster(group):
        m = len(group)
        if m > cluster_cap:
            import logging

            logging.getLogger(__name__).warning(
                "semantic_dedup: cluster of %d rows exceeds cap %d; "
                "keeping the %d lowest ids only",
                m, cluster_cap, cluster_cap,
            )
            group = group.nsmallest(cluster_cap, "vec_id")
            m = len(group)
        g = group.sort_values("vec_id").reset_index(drop=True)
        # exact integer dots of ppm rows (<= d * 1e12 — inside float64's
        # exact range); threshold compares in the same 1e-12 units
        X = np.asarray(g["vec"].tolist(), dtype=np.int64).astype(np.float64)
        thr_q = float(int(round(threshold * 1e12)))
        ids = g["vec_id"].to_numpy()
        kept: list[int] = []
        out_id, out_of, out_sim = [], [], []
        for i in range(m):
            if kept:
                sims = X[kept] @ X[i]
                j = int(np.argmax(sims))
                if sims[j] >= thr_q:
                    out_id.append(int(ids[i]))
                    out_of.append(int(ids[kept[j]]))
                    out_sim.append(round(float(sims[j]) / 1e12, 4))
                    continue
            kept.append(i)
        return pa.table(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "dup_of": pa.array(out_of, pa.int64()),
                "cosine_sim": pa.array(out_sim, pa.float64()),
            }
        )

    return (
        tagged.groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pandas")
        .sort("vec_id")
    )
