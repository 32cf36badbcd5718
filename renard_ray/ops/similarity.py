"""Similarity search over the ``embeddings`` table.

- ``knn_bruteforce``: exact cosine top-k — broadcast query matrix
  (``ray.put`` once), per-batch numpy matmul + per-batch top-k, global
  top-k reduce per query.  The baseline at any scale.
- ``knn_lsh``: sign-random-projection LSH buckets as the approximate
  scale path (candidates only from matching buckets, multi-probe via
  several hash tables).
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.runscan import sorted_run_scan


def _read_embeddings(sf_dir: str) -> Dataset:
    from renard_ray.ops.relational import read_table

    return read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])



def _matrix(col: "pa.ChunkedArray") -> np.ndarray:
    """Zero-copy list<float> -> (n, d) float64 matrix (flatten the Arrow
    list buffer and reshape); falls back to to_pylist when nulls exist.
    A 0-row column gives a (0, 0) matrix."""
    c = col.combine_chunks()
    if len(c) == 0:
        return np.zeros((0, 0))
    if c.null_count:
        return np.array(c.to_pylist(), dtype=np.float64)
    return np.asarray(c.flatten(), dtype=np.float64).reshape(len(c), -1)

def _norm_rows(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def _merge_topk(partials: Dataset, k: int) -> Dataset:
    """Global top-k reduce over tiny (query_id, neighbor_id, sim)
    partials via the candidates-only ``hash_topk`` exchange (per-block
    prune to k per query, hash split, one vectorized reduce per
    partition) — no sort-shuffle map_groups, no per-group Python.
    (sim desc, neighbor_id asc) is a total order (neighbor unique per
    query), so rank is a pure function of the data."""
    from renard_ray.ops.hashagg import hash_topk

    top = hash_topk(
        partials,
        keys="query_id",
        order=[("sim", False), ("neighbor_id", True)],
        k=k,
        num_partitions=4,
    )

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "query_id": pc.cast(batch.column("query_id"), pa.int64()),
                "neighbor_id": pc.cast(batch.column("neighbor_id"), pa.int64()),
                "rank": batch.column("rank"),
                "cosine_sim": pc.round(batch.column("sim"), 4),
            }
        )

    return top.map_batches(finalize, batch_format="pyarrow")


def knn_bruteforce(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 5,
) -> Dataset:
    """Exact cosine top-k for each query vector (default: vec_id 0..4),
    excluding self.  Output: (query_id, neighbor_id, rank, cosine_sim),
    deterministic order (sim desc, neighbor_id asc)."""
    query_ids = query_ids if query_ids is not None else [0, 1, 2, 3, 4]
    emb = _read_embeddings(sf_dir)
    q_rows = emb.filter(expr=f"vec_id in {query_ids!r}").take_all()
    qids = [r["vec_id"] for r in q_rows]
    Q = _norm_rows(np.array([r["embedding"] for r in q_rows], dtype=np.float64))
    q_ref = ray.put((qids, Q))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids_, Q_ = ray.get(q_ref)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        M = _norm_rows(_matrix(batch.column("embedding")))
        sims = Q_ @ M.T  # (n_query, n_batch)
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids_):
            row = sims[qi]
            mask = ids != qid
            cand_idx = np.where(mask)[0]
            if len(cand_idx) == 0:
                continue
            top = cand_idx[np.argsort(-row[cand_idx], kind="stable")[:k]]
            for t in top:
                out_q.append(qid)
                out_n.append(int(ids[t]))
                out_s.append(float(row[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    partials = emb.map_batches(partial_topk, batch_format="pyarrow")
    # global reduce: tiny (n_query * k * n_blocks rows) — groupby query
    return _merge_topk(partials, k)


def _srp_planes(
    dim: int, n_tables: int, n_bits: int, seed: int
) -> np.ndarray:
    """SRP projection planes as md5-derived SIGNED INTEGERS (symmetric
    24-bit: md5-le-8 >> 40, minus 2^23): sign tests against
    ppm-quantized vectors are exact integer comparisons — dots stay
    under 2^53 for d <= ~1000 — so bucketing is bit-deterministic AND
    SQL-reproducible (``md5_number_upper`` rebuilds every coefficient).
    A symmetric non-normal distribution is a standard SRP variant
    (Rademacher-style); the planted-pair / recall tests gate quality."""
    import hashlib
    import struct

    out = np.empty((n_tables, n_bits, dim), dtype=np.int64)
    for t in range(n_tables):
        for b in range(n_bits):
            for j in range(dim):
                h = struct.unpack(
                    "<Q",
                    hashlib.md5(f"srp:{seed}:{t}:{b}:{j}".encode()).digest()[:8],
                )[0]
                out[t, b, j] = (h >> 40) - (1 << 23)
    return out


class SrpIndexStage:
    """Sign-random-projection bucketing: vec -> (table, bucket) keys.
    Projection planes generated once per actor from a fixed seed
    (md5-derived integers — see ``_srp_planes``); vectors quantize to
    ppm before the sign test so every dot is an exact integer."""

    def __init__(self, dim: int = 64, n_tables: int = 16, n_bits: int = 6, seed: int = 7):
        self.planes = _srp_planes(dim, n_tables, n_bits, seed).astype(np.float64)
        self.n_tables = n_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        from renard_ray.ops.kmeans import _quantize_rows

        ids = batch.column("vec_id").to_pylist()
        M = _quantize_rows(_matrix(batch.column("embedding"))).astype(np.float64)
        out_id, out_t, out_b = [], [], []
        for t in range(self.n_tables):
            bits = (M @ self.planes[t].T) > 0  # (n, n_bits), exact ints
            keys = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))
            out_id.extend(ids)
            out_t.extend([t] * len(ids))
            out_b.extend(int(x) for x in keys)
        return pa.table(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "table": pa.array(out_t, pa.int32()),
                "bucket": pa.array(out_b, pa.int64()),
            }
        )


def knn_lsh(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 5,
    n_tables: int = 16,
    n_bits: int = 6,
) -> Dataset:
    """Approximate cosine top-k: only vectors sharing an SRP bucket with
    the query (in any table) are scored.  Same output schema as
    ``knn_bruteforce``."""
    query_ids = query_ids if query_ids is not None else [0, 1, 2, 3, 4]
    emb = _read_embeddings(sf_dir)
    first = emb.take(1)[0]
    dim = len(first["embedding"])

    buckets = emb.map_batches(
        SrpIndexStage,
        fn_constructor_kwargs={"dim": dim, "n_tables": n_tables, "n_bits": n_bits},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    qset = set(query_ids)
    q_buckets: dict[tuple[int, int], set[int]] = {}
    for row in buckets.filter(expr=f"vec_id in {query_ids!r}").iter_rows():
        q_buckets.setdefault((row["table"], row["bucket"]), set()).add(row["vec_id"])
    qb_ref = ray.put(q_buckets)

    def match(batch: pa.Table) -> pa.Table:
        qb = ray.get(qb_ref)
        vids = batch.column("vec_id").to_pylist()
        tabs = batch.column("table").to_pylist()
        bks = batch.column("bucket").to_pylist()
        out_q, out_v = [], []
        for v, t, b in zip(vids, tabs, bks):
            for q in qb.get((t, b), ()):  # queries sharing this bucket
                if q != v:
                    out_q.append(q)
                    out_v.append(v)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
            }
        )

    cand = (
        _hagg_auto(buckets.map_batches(match, batch_format="pyarrow"), ["query_id", "vec_id"], [('', 'count_all', 'count()')])
        .select_columns(["query_id", "vec_id"])
    )

    # score candidates: the candidate-pair table is per-query and small
    # by construction (bucket collisions only), so broadcast it as a
    # cand_id -> [query_ids] map and score inside a second pass over the
    # embeddings — no shuffle, one streaming scan.
    from renard_ray.ops.kmeans import _quantize_rows

    q_rows = emb.filter(expr=f"vec_id in {query_ids!r}").take_all()
    qm = _quantize_rows(
        np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    ).astype(np.float64)
    qvec = {r["vec_id"]: qm[i] for i, r in enumerate(q_rows)}
    cand_map: dict[int, list[int]] = {}
    for row in cand.iter_rows():
        cand_map.setdefault(row["vec_id"], []).append(row["query_id"])
    pair_ref = ray.put((qvec, cand_map))

    def score(batch: pa.Table) -> pa.Table:
        qv, cm = ray.get(pair_ref)
        out_q, out_n, out_s = [], [], []
        # exact integer ppm dots / 1e12 — deterministic, SQL-twinned
        M = _quantize_rows(_matrix(batch.column("embedding"))).astype(np.float64)
        for i, v in enumerate(batch.column("vec_id").to_pylist()):
            qids_for_v = cm.get(v)
            if not qids_for_v:
                continue
            vec = M[i]
            for q in qids_for_v:
                out_q.append(q)
                out_n.append(v)
                out_s.append(float(qv[q] @ vec) / 1e12)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    scored = emb.map_batches(score, batch_format="pyarrow")
    return _merge_topk(scored, k)


def knn_recall_vs_bruteforce(sf_dir: str, k: int = 5) -> float:
    """Recall@k of the LSH path vs the exact path (quality metric)."""
    exact = knn_bruteforce(sf_dir, k=k).to_pandas()
    approx = knn_lsh(sf_dir, k=k).to_pandas()
    exact_sets = exact.groupby("query_id")["neighbor_id"].apply(set)
    approx_sets = approx.groupby("query_id")["neighbor_id"].apply(set)
    recalls = []
    for q, want in exact_sets.items():
        got = approx_sets.get(q, set())
        recalls.append(len(got & want) / len(want) if want else 1.0)
    return float(np.mean(recalls)) if recalls else 0.0


def _kmeans(X: np.ndarray, k: int, iters: int = 10, seed: int = 3) -> np.ndarray:
    """Tiny deterministic Lloyd's k-means for the IVF coarse quantizer
    (numpy only; the quantizer trains on a driver-side sample — the
    standard IVF recipe)."""
    rng = np.random.RandomState(seed)
    C = X[rng.choice(len(X), size=min(k, len(X)), replace=False)].copy()
    for _ in range(iters):
        d = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for j in range(len(C)):
            m = assign == j
            if m.any():
                C[j] = X[m].mean(0)
    return C


def knn_ivf(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 5,
    n_lists: int = 16,
    n_probe: int = 4,
    train_sample: int = 2048,
) -> Dataset:
    """IVF (inverted-file) approximate top-k: k-means coarse quantizer
    trained on a sample, vectors assigned to their nearest centroid
    list in one streaming pass, queries probe the ``n_probe`` nearest
    lists.  Same output schema as ``knn_bruteforce``; the scale path
    for clustered embedding spaces.
    """
    query_ids = query_ids if query_ids is not None else [0, 1, 2, 3, 4]
    emb = _read_embeddings(sf_dir)

    # train the quantizer on a driver-side sample (IVF-standard)
    sample = emb.limit(train_sample).take_all()
    X = _norm_rows(np.array([r["embedding"] for r in sample], dtype=np.float64))
    C = _kmeans(X, n_lists)
    C = _norm_rows(C)
    c_ref = ray.put(C)

    q_rows = emb.filter(expr=f"vec_id in {query_ids!r}").take_all()
    qids = [r["vec_id"] for r in q_rows]
    Q = _norm_rows(np.array([r["embedding"] for r in q_rows], dtype=np.float64))
    probe_lists = {
        qid: set(np.argsort(-(Q[i] @ C.T))[:n_probe].tolist())
        for i, qid in enumerate(qids)
    }
    q_ref = ray.put((qids, Q, probe_lists))

    def scan(batch: pa.Table) -> pa.Table:
        C_ = ray.get(c_ref)
        qids_, Q_, probes = ray.get(q_ref)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        M = _norm_rows(_matrix(batch.column("embedding")))
        assign = (M @ C_.T).argmax(1)  # list id per vector
        sims = Q_ @ M.T
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids_):
            lists = probes[qid]
            mask = np.isin(assign, np.fromiter(lists, dtype=np.int64)) & (ids != qid)
            idx = np.where(mask)[0]
            if len(idx) == 0:
                continue
            top = idx[np.argsort(-sims[qi][idx], kind="stable")[:k]]
            for t in top:
                out_q.append(qid)
                out_n.append(int(ids[t]))
                out_s.append(float(sims[qi, t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    partials = emb.map_batches(scan, batch_format="pyarrow")
    return _merge_topk(partials, k)


def _kmeans_q(X: np.ndarray, k: int, iters: int = 10) -> np.ndarray:
    """Exact fixed-point local Lloyd for the PQ codebooks (ppm int64
    subvectors): init = first k rows (the sample arrives vec_id
    ascending), then ``ops.kmeans``'s exact-integer assignment and
    plain-mean update (``_renorm_q(normalize=False)``); empty codes
    keep their previous centroid.  Deterministic and bit-reproducible
    in SQL (no RNG, no float accumulation)."""
    from renard_ray.ops.kmeans import _assign_q, _renorm_q

    C = X[: min(k, len(X))].astype(np.int64).copy()
    for _ in range(iters):
        a, _ = _assign_q(X, C)
        for j in range(len(C)):
            mem = a == j
            if mem.any():
                C[j] = _renorm_q(X[mem].sum(axis=0), False, int(mem.sum()))
    return C


def knn_pq(
    sf_dir: str,
    query_ids: list[int] | None = None,
    k: int = 5,
    m_subspaces: int = 4,
    n_codes: int = 16,
    train_sample: int = 2048,
    n_iter: int = 10,
) -> Dataset:
    """Product-quantization approximate top-k (Jegou et al. 2011): the
    memory-bounded ANN path — vectors are compressed to ``m_subspaces``
    uint8 codes (one per subspace codebook) in ONE pass over the raw
    embeddings, and queries scan only the CODES via asymmetric distance
    computation (per-query LUT of subspace distances, summed by code
    lookup).  At 100 TB the raw vectors never need to be re-read: the
    code table is ~m bytes/vector and the ADC scan is a numpy take.

    Codebooks train on a driver-side sample — the ``train_sample``
    SMALLEST vec_ids (partition-stable, unlike ``.limit`` on a
    distributed read) — with the exact fixed-point Lloyd
    (``_kmeans_q``): vectors L2-normalize then quantize to ppm int64
    (the ``ops.kmeans`` recipe), so codebooks, codes, LUTs and ADC sums
    are all exact integers in 1e-12 units.  ADC L2^2 and cosine rank
    identically on normalized vectors (d^2 = 2 - 2 cos); the emitted
    ``cosine_sim`` is ``1 - adc/2e12``.  Deterministic and
    SQL-reproducible end to end — ``knn_pq`` carries a full DuckDB twin.

    Output: (query_id, neighbor_id, rank, cosine_sim) with cosine_sim
    the PQ ESTIMATE (recall-gated in tests, not exact by design)."""
    from renard_ray.ops.kmeans import _assign_q, _quantize_rows

    query_ids = query_ids if query_ids is not None else [0, 1, 2, 3, 4]
    emb = _read_embeddings(sf_dir)

    assert 1 <= n_codes <= 256, "uint8 codes: n_codes must be <= 256"

    def smallest(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.array_sort_indices(batch.column("vec_id"))[:train_sample]
        return batch.select(["vec_id", "embedding"]).take(idx)

    sample = emb.map_batches(smallest, batch_format="pyarrow").take_all()
    sample.sort(key=lambda r: r["vec_id"])
    sample = sample[:train_sample]
    Xq = _quantize_rows(
        np.array([r["embedding"] for r in sample], dtype=np.float64)
    )
    d = Xq.shape[1]
    assert d % m_subspaces == 0, "dim must divide evenly into subspaces"
    sub = d // m_subspaces
    books = [
        _kmeans_q(Xq[:, j * sub : (j + 1) * sub], n_codes, n_iter)
        for j in range(m_subspaces)
    ]
    books_ref = ray.put(books)

    def encode(batch: pa.Table) -> pa.Table:
        bks = ray.get(books_ref)
        ids = batch.column("vec_id")
        M = _quantize_rows(_matrix(batch.column("embedding")))
        cols = {"vec_id": ids}
        for j, C in enumerate(bks):
            # argmin of the EXACT integer squared distances
            a, _ = _assign_q(M[:, j * sub : (j + 1) * sub], C)
            cols[f"code_{j}"] = pa.array(a.astype(np.uint8), pa.uint8())
        return pa.table(cols)

    codes = emb.map_batches(encode, batch_format="pyarrow").materialize()

    q_rows = emb.filter(expr=f"vec_id in {query_ids!r}").take_all()
    qids = [r["vec_id"] for r in q_rows]
    Qq = _quantize_rows(
        np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    )
    # per-query per-subspace LUT: exact int ||q_j - C_j[c]||^2 (1e-12)
    luts = np.stack(
        [
            np.stack(
                [
                    (
                        (
                            Qq[i, j * sub : (j + 1) * sub].astype(np.float64)
                            - books[j].astype(np.float64)
                        )
                        ** 2
                    ).sum(-1)
                    for j in range(m_subspaces)
                ]
            )
            for i in range(len(qids))
        ]
    )  # (n_query, m, n_codes) — exact integers in float64
    q_ref = ray.put((qids, luts))

    def adc_scan(batch: pa.Table) -> pa.Table:
        qids_, luts_ = ray.get(q_ref)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        code_mat = np.stack(
            [
                np.asarray(batch.column(f"code_{j}"), dtype=np.int64)
                for j in range(m_subspaces)
            ]
        )  # (m, n_batch)
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids_):
            # ADC: sum LUT lookups over subspaces — pure numpy take;
            # every term an exact integer, so the sum is too
            d2 = np.zeros(len(ids), dtype=np.float64)
            for j in range(m_subspaces):
                d2 += luts_[qi, j][code_mat[j]]
            sims = 1.0 - d2 / 2.0e12
            mask = ids != qid
            idx = np.where(mask)[0]
            if len(idx) == 0:
                continue
            top = idx[np.argsort(-sims[idx], kind="stable")[:k]]
            for t in top:
                out_q.append(qid)
                out_n.append(int(ids[t]))
                out_s.append(float(sims[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    partials = codes.map_batches(adc_scan, batch_format="pyarrow")
    return _merge_topk(partials, k)


def knn_graph_dataset(
    emb: Dataset, k: int = 5, n_chunks: int = 8
) -> Dataset:
    """EXACT k-nearest-neighbor GRAPH over the whole embedding table —
    every vector's top-k cosine neighbors (the SemDeDup / clustering /
    graph-building primitive; unlike :func:`knn_bruteforce` there is
    no small query set: all n rows are queries).

    Plan: the block-pair tile fan-out of
    ``dedup.embedding_near_dup_pairs`` (every vector rides to its
    B(B+1)/2 chunk-pair groups; O(n^2/B^2) numpy matmul per tile —
    exact all-pairs compute is inherent to an exact kNN graph), but
    each tile emits only its PER-ROW TOP-K (global top-k is a subset
    of the union of tile top-ks), so the merge input is n·B·k rows,
    not n^2.  The merge is ``sorted_run_scan`` (``ops/runscan.py``): ONE
    global sort on (src, inv_sim_ppm, dst), vectorized block-local row
    numbers, and an O(#blocks) driver carry scan that offsets the
    single straddling src run per block — no per-group map_groups at any
    scale.  Similarities are quantized to ppm ints BEFORE ranking
    (ties break on dst asc), so the graph is deterministic.

    Output: (src, dst, rank, sim_ppm, cosine_sim), rank 0-based."""
    B = max(2, n_chunks)

    def fanout(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        c = ids % B
        parts = []
        for j in range(B):
            pk = np.minimum(c, j) * B + np.maximum(c, j)
            parts.append(batch.append_column("pk", pa.array(pk, pa.int64())))
        return pa.concat_tables(parts)

    def tile_topk(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        M = _norm_rows(_matrix(group.column("embedding")))
        pk = int(group.column("pk")[0].as_py())
        gi, gj = pk // B, pk % B
        c = ids % B
        src_out: list[np.ndarray] = []
        dst_out: list[np.ndarray] = []
        ppm_out: list[np.ndarray] = []

        # self-pairs get a sentinel BELOW any valid ppm (>= -1e6) that
        # still fits the packed key: |sent|*1e12 + dst must stay in
        # int64, so dst ids are asserted < 1e12
        _SENT = -(8 * 10**6)

        def emit(ids_l, ids_r, sims):
            # per-LEFT-row top-k of this tile (sims: |L| x |R| ppm ints)
            kk = min(k, sims.shape[1])
            if kk == 0:
                return
            assert ids_r.min() >= 0 and ids_r.max() < 10**12, (
                "knn_graph: vec_id outside [0, 1e12) breaks the packed "
                "tie-break key"
            )
            # order by (-sim, dst): argsort a packed key, take k
            key = sims.astype(np.int64) * -(10**12) + ids_r[None, :]
            idx = np.argsort(key, axis=1, kind="stable")[:, :kk]
            src_out.append(np.repeat(ids_l, kk))
            dst_out.append(ids_r[idx].ravel())
            ppm_out.append(np.take_along_axis(sims, idx, axis=1).ravel())

        if gi == gj:
            sims = np.rint((M @ M.T) * 1e6).astype(np.int64)
            np.fill_diagonal(sims, _SENT)  # no self-pairs
            emit(ids, ids, sims)
        else:
            li, lj = c == gi, c == gj
            if li.any() and lj.any():
                sims = np.rint((M[li] @ M[lj].T) * 1e6).astype(np.int64)
                emit(ids[li], ids[lj], sims)
                emit(ids[lj], ids[li], sims.T)
        if not src_out:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "dst": pa.array([], pa.int64()),
                    "ppm": pa.array([], pa.int64()),
                }
            )
        t = pa.table(
            {
                "src": pa.array(np.concatenate(src_out), pa.int64()),
                "dst": pa.array(np.concatenate(dst_out), pa.int64()),
                "ppm": pa.array(np.concatenate(ppm_out), pa.int64()),
            }
        )
        # sentinel self-rows from the diagonal fill (only possible in
        # the gi == gj branch when a row's chunk has <= k members);
        # every valid ppm is >= -1e6
        return t.filter(
            pc.greater_equal(t.column("ppm"), pa.scalar(-(10**6), pa.int64()))
        )

    cands = (
        emb.map_batches(fanout, batch_format="pyarrow")
        .groupby("pk")
        .map_groups(tile_topk, batch_format="pyarrow")
    )

    def inv(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("src"),
                "dst": batch.column("dst"),
                "iv": pc.subtract(
                    pa.scalar(10**6, pa.int64()), batch.column("ppm")
                ),
            }
        )

    def scan(batch: pa.Table):
        n = batch.num_rows
        src = np.asarray(batch.column("src"), dtype=np.int64)
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = src[1:] != src[:-1]
        gs = np.maximum.accumulate(
            np.where(new_grp, np.arange(n, dtype=np.int64), -1)
        )
        local = np.arange(n, dtype=np.int64) - gs  # 0-based row number
        first_run = src == src[0]
        # summary: (first_src, first_run_rows, last_src, last_run_rows)
        summary = (int(src[0]), int(first_run.sum()), int(src[-1]), int(n - gs[-1]))
        return (batch, local, first_run), summary

    # O(#blocks) carry scan: offset for each block's FIRST src run
    def stitch(summaries: list) -> list[int]:
        offs = []
        carry_src: int | None = None
        carry_n = 0
        for f_src, f_n, l_src, l_n in summaries:
            o = carry_n if f_src == carry_src else 0
            offs.append(o)
            if l_src == f_src:  # the whole block is one src run
                carry_src, carry_n = l_src, o + f_n
            else:
                carry_src, carry_n = l_src, l_n
        return offs

    def finish(part, off) -> pa.Table:
        if part is None:
            return _KNN_GRAPH_SCHEMA.empty_table()
        t, local, first_run = part
        if off:
            local = local + np.where(first_run, off, 0)
        keep = local < k
        t = t.filter(pa.array(keep))
        rank = local[keep]
        ppm = pc.subtract(pa.scalar(10**6, pa.int64()), t.column("iv"))
        return pa.table(
            {
                "src": t.column("src"),
                "dst": t.column("dst"),
                "rank": pa.array(rank),
                "sim_ppm": ppm,
                "cosine_sim": pc.divide(pc.cast(ppm, pa.float64()), 1e6),
            }
        )

    return sorted_run_scan(
        cands.map_batches(inv, batch_format="pyarrow"),
        ["src", "iv", "dst"],
        scan,
        stitch,
        finish,
    )


_KNN_GRAPH_SCHEMA = pa.schema(
    [
        ("src", pa.int64()),
        ("dst", pa.int64()),
        ("rank", pa.int64()),
        ("sim_ppm", pa.int64()),
        ("cosine_sim", pa.float64()),
    ]
)


def knn_graph(sf_dir: str, k: int = 5) -> Dataset:
    """Exact top-k cosine neighbor graph over the embeddings table."""
    return knn_graph_dataset(_read_embeddings(sf_dir), k=k).sort(
        ["src", "rank"]
    )
