"""Deduplication operators over the ``documents`` table.

Five families, each a Ray-Data-native pipeline (SURVEY-mandated
training-data operators):

- exact: md5 of normalized text -> hash-partitioned groupby -> keep the
  min doc_id per hash (the classic hash-partition + per-group-first).
- minhash + LSH: word-shingle minhash signatures -> band buckets ->
  groupby(band, bucket) -> candidate pairs -> union-find components.
- simhash: 64-bit simhash over word features; near-dups = same value
  after masking k rotations (banding on bit chunks).
- n-gram Jaccard: verification kernel used on LSH candidates (exact
  Jaccard over shingle sets, computed per candidate pair).
- embedding cosine: near-dup pairs over the ``embeddings`` table via
  LSH-free blockwise cosine (delegates to ``ops.similarity``).

At 100 TB scale the shuffles are all keyed on short hashes (no text
moves after the signature stage), and signatures are computed in one
streaming pass.
"""

from __future__ import annotations

import hashlib
import re
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Min, Sum

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

_WS_RE = re.compile(r"\s+")


def _bb_key(band_col: pa.ChunkedArray, bucket_col: pa.ChunkedArray) -> pa.Array:
    """Composite (band/chunk, bucket/key) -> single int64 key for
    vectorized ``is_in`` filtering; the driver side builds the same
    ``(hi << 32) + lo`` encoding."""
    b64 = pc.cast(band_col, pa.int64())
    return pc.add(pc.multiply(b64, pa.scalar(1 << 32, pa.int64())), bucket_col)


def _read_documents(sf_dir: str, columns: list[str]) -> Dataset:
    from renard_ray.ops.relational import read_table

    return read_table(f"{sf_dir}/documents.parquet", columns)


def _normalize(t: str | None) -> str:
    return " ".join(_WS_RE.split((t or "").strip().lower()))


# ---------------------------------------------------------------- exact


def exact_dedup_groups(sf_dir: str) -> Dataset:
    """One row per distinct text hash: (text_md5, keeper_doc_id,
    n_copies).  SQL-oracle-checkable.

    Scale callout (the hashagg docstring's corpus-cardinality case):
    the md5 key is ~unique per document, so the map-side combine
    cannot shrink the exchange — this groupby ships ~every row and is
    an irreducible full shuffle in ANY engine.  At raw-100 TB block
    counts (~10^5-10^6 blocks) the N x P object metadata of a single-
    level exchange dominates; pre-coalesce the (text_md5, doc_id) key
    table first (``repartition(target_num_rows_per_block=...)`` — the
    payload is 48 bytes/row, so millions of rows per block are cheap)
    or route through a tree combine so N stays in the thousands."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def sig(batch: pa.Table) -> pa.Table:
        md5s = [
            hashlib.md5(_normalize(t).encode()).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "text_md5": pa.array(md5s, pa.string()),
                "doc_id": batch.column("doc_id"),
            }
        )

    return (
        _hagg_auto(ds.map_batches(sig, batch_format="pyarrow"), "text_md5", [('doc_id', 'min', 'keeper_doc_id'), ('', 'count_all', 'n_copies')])
    )


def exact_dedup_keep(sf_dir: str) -> Dataset:
    """The surviving documents after exact dedup (keeper rows only)."""
    groups = exact_dedup_groups(sf_dir).select_columns(["keeper_doc_id"])
    # no "text": the output is metadata-only, so the document payload
    # must not ride the join exchange
    docs = _read_documents(sf_dir, ["doc_id", "lang", "source", "n_chars"])
    return hash_join(docs, groups, "doc_id", "keeper_doc_id").select_columns(
        ["doc_id", "lang", "source", "n_chars"]
    )


# -------------------------------------------------------------- minhash


def _shingles(text: str, k: int = 5) -> set[bytes]:
    words = _normalize(text).split()
    if len(words) < k:
        return {(" ".join(words)).encode()} if words else set()
    return {(" ".join(words[i : i + k])).encode() for i in range(len(words) - k + 1)}


_MERSENNE = (1 << 61) - 1


def _minhash_params(n_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.uint64)
    return a, b


def minhash_signature(
    text: str, a: np.ndarray, b: np.ndarray, k: int = 5
) -> np.ndarray:
    """Base hash = little-endian first-8-bytes of md5 (==  DuckDB's
    ``md5_number_upper``) so the WHOLE signature — including the
    deliberate uint64 wrap of ``a*h+b`` before the Mersenne mod — is
    reproducible in the SQL oracle (crc32, the previous base hash, has
    no SQL twin).  All-integer, so the oracle match is exact, not
    float-rounded."""
    sh = _shingles(text, k)
    if not sh:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    hv = np.array(
        [struct.unpack("<Q", hashlib.md5(s).digest()[:8])[0] for s in sh],
        dtype=np.uint64,
    )  # base hashes
    # (a * h + b) mod 2^64 (numpy wrap, mirrored by the oracle's
    # % 2^64) then mod p, vectorized over permutations x shingles
    prod = (a[:, None] * hv[None, :] + b[:, None]) % _MERSENNE
    return prod.min(axis=1)


class MinHashStage:
    """Actor-pool stage: per-doc minhash signature + LSH band keys.

    Permutation params are built once per actor (``__init__``), the
    per-batch work is vectorized numpy.
    """

    def __init__(self, n_perm: int = 128, n_bands: int = 32, shingle_k: int = 5):
        assert n_perm % n_bands == 0
        self.a, self.b = _minhash_params(n_perm)
        self.n_bands = n_bands
        self.rows_per_band = n_perm // n_bands
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: list[int] = []
        bands: list[int] = []
        buckets: list[int] = []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            sig = minhash_signature(t, self.a, self.b, self.k)
            for band in range(self.n_bands):
                chunk = sig[band * self.rows_per_band : (band + 1) * self.rows_per_band]
                # md5 of the comma-joined DECIMAL band values — the
                # SQL twin re-derives it as md5_number_upper(
                # string_agg(v, ',' ORDER BY perm)).  Masked to 31
                # bits (like the crc32 bucket it replaced): the
                # (band << 32) + bucket composite key in _bb_key and
                # the oversized-drop pack MUST fit int64, which a
                # 63-bit bucket breaks (review-caught overflow)
                bucket = struct.unpack(
                    "<Q",
                    hashlib.md5(
                        ",".join(str(v) for v in chunk).encode()
                    ).digest()[:8],
                )[0] & 0x7FFFFFFF
                doc_ids.append(doc_id)
                bands.append(band)
                buckets.append(bucket)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band": pa.array(bands, pa.int32()),
                "bucket": pa.array(buckets, pa.int64()),
            }
        )


# budgets for the local candidate-pair fast path: collision-bucket key
# count (broadcast + driver loop bound), pairable signature rows
# (driver collect bound), worst-case emitted pairs (driver memory bound)
_DUP_BUCKET_LIMIT = 200_000
_DUP_SIG_ROW_LIMIT = 2_000_000
_LOCAL_PAIR_LIMIT = 2_000_000


def _collect_sig_table(sigs: Dataset) -> pa.Table | None:
    tabs = [t for t in ray.get(sigs.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return None
    return pa.concat_tables(tabs).combine_chunks()


def _pairs_local_from_table(
    tab: pa.Table | None, max_bucket: int, log_drops: bool
) -> Dataset | None:
    """Distinct (a, b) pairs from collected (band, bucket, doc_id) int
    rows, grouped with numpy on the driver — handles the oversized-
    bucket drop itself.  None when the dup-group or worst-case pair
    budgets are exceeded (caller runs the distributed plan instead)."""
    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
    )
    if tab is None or tab.num_rows == 0:
        return ray.data.from_arrow(empty)
    key = _bb_key(tab.column("band"), tab.column("bucket")).to_numpy(
        zero_copy_only=False
    )
    doc = tab.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, key))
    k_s, d_s = key[order], doc[order]
    starts = np.flatnonzero(np.r_[True, k_s[1:] != k_s[:-1]])
    ends = np.r_[starts[1:], len(k_s)]
    sizes = ends - starts
    big = sizes > max_bucket
    if log_drops and big.any():
        import logging

        logging.getLogger(__name__).warning(
            "minhash LSH: dropping %d oversized (band, bucket) groups "
            "(> %d members, %d signature rows) — boilerplate/empty-text "
            "collisions; near-dup pairs inside them are still found via "
            "their other bands",
            int(big.sum()), max_bucket, int(sizes[big].sum()),
        )
    dup_idx = np.flatnonzero((sizes >= 2) & ~big)
    if len(dup_idx) > _DUP_BUCKET_LIMIT:
        return None
    s_dup = sizes[dup_idx]
    if int((s_dup * (s_dup - 1) // 2).sum()) > _LOCAL_PAIR_LIMIT:
        return None
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for gi in dup_idx:
        g = d_s[starts[gi] : ends[gi]]
        ia, ib = np.triu_indices(len(g), k=1)
        out_a.append(g[ia])  # g sorted asc -> a < b holds per pair
        out_b.append(g[ib])
    if not out_a:
        return ray.data.from_arrow(empty)
    pairs = np.unique(
        np.stack([np.concatenate(out_a), np.concatenate(out_b)], axis=1), axis=0
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array(pairs[:, 0], pa.int64()),
                "b": pa.array(pairs[:, 1], pa.int64()),
            }
        )
    )


def minhash_candidate_pairs(
    sf_dir: str,
    n_perm: int = 128,
    n_bands: int = 32,
    shingle_k: int = 5,
    max_bucket: int = 200,
) -> Dataset:
    """LSH candidate pairs: documents sharing any (band, bucket).

    Implemented as a vectorized SELF-JOIN on (band, bucket) — one hash
    shuffle, no per-group Python calls (a ``map_groups`` over the ~#docs
    x bands tiny groups is framework-overhead-bound).  Buckets larger
    than ``max_bucket`` (boilerplate/empty-text collisions) are dropped
    before the join to cap the pair blowup — standard LSH practice; the
    drop is logged via the returned pair counts being bounded.
    Output: distinct (a, b) with a < b.

    Planning refinements on top of the join shape (all fall back to it
    unchanged past explicit budgets):

    - FULL-LOCAL: when the whole (band, bucket, doc_id) signature table
      fits the row budget, bucket sizing, the oversized drop and pair
      emission are one driver numpy pass — no shuffle at all.
    - only COLLISION buckets (2 <= n <= max_bucket) can produce pairs;
      when their key set fits a broadcast budget the signature table is
      semi-filtered to them before the self-join (one vectorized pass,
      no exchange) — at CC-like dup rates most signature rows sit in
      singleton buckets and would ride the exchange for nothing.
    - when additionally the FILTERED signature rows and the worst-case
      pair count fit row budgets, pairs are emitted directly from the
      collected (key, doc) arrays — no join, no pair-dedup shuffle.
    """
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    sigs = ds.map_batches(
        MinHashStage,
        fn_constructor_kwargs={
            "n_perm": n_perm,
            "n_bands": n_bands,
            "shingle_k": shingle_k,
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    ).materialize()

    # FULL-LOCAL plan: the signature table is (band, bucket, doc_id)
    # int rows — when it fits the row budget, bucket sizes, the
    # oversized-bucket drop and pair emission are one driver numpy pass
    # (no sizes shuffle, no self-join, no pair-dedup shuffle).
    if sigs.count() <= _DUP_SIG_ROW_LIMIT:
        local = _pairs_local_from_table(
            _collect_sig_table(sigs), max_bucket, log_drops=True
        )
        if local is not None:
            return local

    # DISTRIBUTED plan.  Oversized buckets out (their membership set is
    # small: one row per oversized (band, bucket)); the drop is explicit
    # and logged (no silent caps).
    import logging

    from ray.data.aggregate import Count

    sizes = _hagg_auto(sigs, ["band", "bucket"], [('', 'count_all', 'n')])
    # one pass over the size table serves both the oversized-bucket drop
    # and the collision-bucket planning below
    coll = sizes.filter(expr="n >= 2").materialize()
    coll_tab: pa.Table | None = None
    if coll.count() <= _DUP_BUCKET_LIMIT:
        tabs = [t for t in ray.get(coll.to_arrow_refs()) if t.num_rows]
        coll_tab = (
            pa.concat_tables(tabs).combine_chunks() if tabs
            else pa.table({"band": pa.array([], pa.int32()),
                           "bucket": pa.array([], pa.int64()),
                           "n": pa.array([], pa.int64())})
        )
        big_mask = pc.greater(coll_tab.column("n"), pa.scalar(max_bucket, pa.int64()))
        big_tab = coll_tab.filter(big_mask)
        big = big_tab.to_pylist()
    else:
        big = coll.filter(expr=f"n > {max_bucket}").take_all()
    if big:
        n_dropped_rows = sum(r["n"] for r in big)
        logging.getLogger(__name__).warning(
            "minhash LSH: dropping %d oversized (band, bucket) groups "
            "(> %d members, %d signature rows) — boilerplate/empty-text "
            "collisions; near-dup pairs inside them are still found via "
            "their other bands",
            len(big), max_bucket, n_dropped_rows,
        )

    if coll_tab is not None:
        # semi-filter signatures to PAIRABLE buckets (collision, not
        # oversized) in one vectorized pass: replaces the oversized-only
        # drop AND keeps singleton-bucket rows out of the self-join
        dup_tab = coll_tab.filter(
            pc.less_equal(coll_tab.column("n"), pa.scalar(max_bucket, pa.int64()))
        )
        dup_ref = ray.put(
            _bb_key(dup_tab.column("band"), dup_tab.column("bucket"))
        )

        def keep_pairable(batch: pa.Table) -> pa.Table:
            dk = ray.get(dup_ref)
            key = _bb_key(batch.column("band"), batch.column("bucket"))
            return batch.filter(pc.is_valid(pc.index_in(key, value_set=dk)))

        sigs = sigs.map_batches(keep_pairable, batch_format="pyarrow")

        n_arr = dup_tab.column("n").to_numpy(zero_copy_only=False)
        sig_rows = int(n_arr.sum())
        pairs_est = int((n_arr * (n_arr - 1) // 2).sum())
        if sig_rows <= _DUP_SIG_ROW_LIMIT and pairs_est <= _LOCAL_PAIR_LIMIT:
            # budgets verified from the size table: collect only the
            # PAIRABLE rows and emit locally (drop already logged above)
            local = _pairs_local_from_table(
                _collect_sig_table(sigs), max_bucket, log_drops=False
            )
            if local is not None:
                return local
    elif big:
        big_keys = pa.array(
            sorted((r["band"] << 32) + r["bucket"] for r in big), pa.int64()
        )
        big_ref = ray.put(big_keys)

        def drop_big(batch: pa.Table) -> pa.Table:
            bk = ray.get(big_ref)
            key = _bb_key(batch.column("band"), batch.column("bucket"))
            return batch.filter(pc.invert(pc.is_valid(pc.index_in(key, value_set=bk))))

        sigs = sigs.map_batches(drop_big, batch_format="pyarrow")

    rhs = sigs.map_batches(
        lambda b: pa.table(
            {"band": b.column("band"), "bucket": b.column("bucket"), "b_id": b.column("doc_id")}
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(sigs, rhs, ["band", "bucket"])

    def ordered(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a = batch.column("doc_id")
        b = batch.column("b_id")
        keep = pc.less(a, b)
        t = pa.table({"a": pc.filter(a, keep), "b": pc.filter(b, keep)})
        if t.num_rows:
            t = t.group_by(["a", "b"]).aggregate([]).select(["a", "b"])
        return t

    cand = joined.map_batches(ordered, batch_format="pyarrow", batch_size=None)
    return _hagg_auto(cand, ["a", "b"], [('', 'count_all', 'count()')]).select_columns(["a", "b"])


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    sa, sb = _shingles(text_a, k), _shingles(text_b, k)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _empty_pairs() -> Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "jaccard_sim": pa.array([], pa.float64()),
            }
        )
    )


_PAIR_BCAST_LIMIT = 500_000  # candidate pairs
_TEXT_BCAST_BYTES = 256 << 20  # candidate-text plasma budget


def _text_bytes_per_row(sf_dir: str) -> float:
    """Average uncompressed ``text`` bytes per document, read from the
    parquet footers only (no data scan).  0.0 when unavailable."""
    import pyarrow.parquet as pq

    try:
        pf = pq.ParquetFile(f"{sf_dir}/documents.parquet")
        meta = pf.metadata
        rows = meta.num_rows or 0
        if rows == 0:
            return 0.0
        total = 0
        for rg in range(meta.num_row_groups):
            g = meta.row_group(rg)
            for ci in range(g.num_columns):
                col = g.column(ci)
                if col.path_in_schema == "text":
                    total += col.total_uncompressed_size
        return total / rows
    except Exception:
        return 0.0


def _verify_pairs_broadcast(
    cand: Dataset,
    n_pairs: int,
    docs: Dataset,
    threshold: float,
    shingle_k: int,
    sf_dir: str | None = None,
) -> Dataset | None:
    """Join-free verification fast path: broadcast the id->text table
    of the candidate DOCS (streaming semi-filter of ``docs`` by the
    pair id set) and verify Jaccard in one pass over the pair list.
    None when the pair count or the candidate-text bytes exceed the
    budgets — the caller's two-hash-join scale path runs instead."""
    if n_pairs > _PAIR_BCAST_LIMIT:
        return None
    ids: set[int] = set()
    for t in ray.get(cand.to_arrow_refs()):
        ids.update(t.column("a").to_pylist())
        ids.update(t.column("b").to_pylist())
    # footer-only pre-check: when the candidate texts are CLEARLY over
    # the byte budget (2x margin for estimate error), skip the fast
    # path before paying a full corpus scan + plasma materialization
    # whose only outcome would be "too big, fall back".  The exact
    # size check below stays authoritative for the borderline cases.
    if sf_dir is not None:
        est = len(ids) * _text_bytes_per_row(sf_dir)
        if est > 2 * _TEXT_BCAST_BYTES:
            return None
    id_ref = ray.put(pa.array(sorted(ids), pa.int64()))

    def keep_cand(batch: pa.Table) -> pa.Table:
        want = ray.get(id_ref)
        return batch.filter(
            pc.is_valid(pc.index_in(batch.column("doc_id"), value_set=want))
        )

    cand_docs = docs.map_batches(keep_cand, batch_format="pyarrow").materialize()
    if (cand_docs.size_bytes() or 0) > _TEXT_BCAST_BYTES:
        return None
    tabs = [t for t in ray.get(cand_docs.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return _empty_pairs()
    text_tab = pa.concat_tables(tabs).combine_chunks()
    text_ref = ray.put(text_tab)

    def verify(batch: pa.Table) -> pa.Table:
        tt = ray.get(text_ref)
        keys = tt.column("doc_id")
        ia = pc.cast(pc.index_in(batch.column("a"), value_set=keys), pa.int64())
        ib = pc.cast(pc.index_in(batch.column("b"), value_set=keys), pa.int64())
        texts = tt.column("text")
        keep_a, keep_b, sims = [], [], []
        for a, b, xa, xb in zip(
            batch.column("a").to_pylist(),
            batch.column("b").to_pylist(),
            ia.to_pylist(),
            ib.to_pylist(),
        ):
            if xa is None or xb is None:
                continue
            s = jaccard(texts[xa].as_py() or "", texts[xb].as_py() or "", shingle_k)
            if s >= threshold:
                keep_a.append(a)
                keep_b.append(b)
                sims.append(round(s, 4))
        return pa.table(
            {
                "a": pa.array(keep_a, pa.int64()),
                "b": pa.array(keep_b, pa.int64()),
                "jaccard_sim": pa.array(sims, pa.float64()),
            }
        )

    return cand.map_batches(verify, batch_format="pyarrow", batch_size=None)


def minhash_dedup_pairs(
    sf_dir: str,
    threshold: float = 0.8,
    n_perm: int = 128,
    n_bands: int = 32,
    shingle_k: int = 5,
) -> Dataset:
    """Verified near-dup pairs: LSH candidates filtered by exact n-gram
    Jaccard >= threshold.

    Scale path: candidate texts are attached via two hash joins
    (pairs x documents on ``a``, then on ``b``) and Jaccard is verified
    per batch — no driver-side text materialization, each text moves at
    most once per side through a keyed exchange.  At CC-scale dup rates
    (30-50%) the candidate set is a large fraction of the corpus, so a
    broadcast of candidate texts would not fit any single node.

    Size-adaptive fast path: when the pair count is small AND the
    candidate texts (streaming semi-filter of documents by the
    candidate id set) fit an explicit BYTE budget, the id->text table
    is broadcast once and verification is a single streaming pass over
    the pair list — no join operators at all.  Both guards are checked
    against the actual materialized sizes, and past either one the
    join path above runs unchanged (tested: forced-fallback parity)."""
    cand = minhash_candidate_pairs(sf_dir, n_perm, n_bands, shingle_k).materialize()
    n_pairs = cand.count()
    if n_pairs == 0:
        return _empty_pairs()
    docs = _read_documents(sf_dir, ["doc_id", "text"])

    fast = _verify_pairs_broadcast(
        cand, n_pairs, docs, threshold, shingle_k, sf_dir=sf_dir
    )
    if fast is not None:
        return fast

    j1 = hash_join(cand, docs, "a", "doc_id")

    def rename_a(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "text_a": batch.column("text"),
            }
        )

    j2 = hash_join(
        j1.map_batches(rename_a, batch_format="pyarrow"),
        docs,
        "b",
        "doc_id",
    )

    def verify(batch: pa.Table) -> pa.Table:
        a_col = batch.column("a").to_pylist()
        b_col = batch.column("b").to_pylist()
        ta_col = batch.column("text_a").to_pylist()
        tb_col = batch.column("text").to_pylist()
        keep_a, keep_b, sims = [], [], []
        for a, b, ta, tb in zip(a_col, b_col, ta_col, tb_col):
            s = jaccard(ta or "", tb or "", shingle_k)
            if s >= threshold:
                keep_a.append(a)
                keep_b.append(b)
                sims.append(round(s, 4))
        return pa.table(
            {
                "a": pa.array(keep_a, pa.int64()),
                "b": pa.array(keep_b, pa.int64()),
                "jaccard_sim": pa.array(sims, pa.float64()),
            }
        )

    return j2.map_batches(verify, batch_format="pyarrow", batch_size=None)


# ------------------------------------------------- exact n-gram Jaccard


def ngram_jaccard_pairs(
    sf_dir: str,
    threshold: float = 0.8,
    shingle_k: int = 5,
    max_df: int = 0,
) -> Dataset:
    """EXACT all-pairs n-gram Jaccard near-dup (no LSH approximation):
    every pair of documents whose word-``shingle_k``-gram Jaccard
    similarity is >= ``threshold``, with the exact similarity.

    Shape (the set-similarity inverted-index join): one streaming pass
    emits distinct (shingle-hash, doc, n_shingles) rows; a vectorized
    SELF-JOIN on the 16-byte shingle hash produces co-occurrence rows;
    per-batch Arrow group_by pre-aggregates the intersection counts
    before ONE global (a, b) groupby; union sizes ride along as
    constant columns (no second join back to per-doc sizes).  No text
    leaves the shingle stage and no driver materialization — the only
    exchanges are keyed on the hash and on (a, b).

    ``max_df=0`` (default) keeps the answer exact.  ``max_df > 0``
    drops shingles shared by more than ``max_df`` documents WITH a
    logged count — at corpus scale a boilerplate shingle shared by k
    docs emits k^2 join rows, so capping document frequency is the
    standard scale guard.  Per-doc set sizes are RECOMPUTED after the
    drop, so the reported value is the exact Jaccard over the capped
    (non-boilerplate) shingle space — a well-defined restriction, not
    a silent underestimate; docs consisting entirely of dropped
    shingles leave the candidate space.
    """
    import logging

    from ray.data.aggregate import Min, Sum

    docs = _read_documents(sf_dir, ["doc_id", "text"])

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_sh: list[bytes] = []
        out_id: list[int] = []
        out_n: list[int] = []
        for i, t in zip(ids, texts):
            sh = _shingles(t or "", shingle_k)
            n = len(sh)
            for s in sh:
                out_sh.append(hashlib.md5(s).digest())
                out_id.append(i)
                out_n.append(n)
        return pa.table(
            {
                "sh": pa.array(out_sh, pa.binary()),
                "doc": pa.array(out_id, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    sigs = docs.map_batches(shingle_rows, batch_format="pyarrow").materialize()

    if max_df > 0:
        from ray.data.aggregate import Count

        hot = (
            _hagg_auto(sigs, "sh", [('', 'count_all', 'df')])
            .filter(expr=f"df > {max_df}")
            .select_columns(["sh"])
            .take_all()
        )
        if hot:
            logging.getLogger(__name__).warning(
                "ngram_jaccard: dropping %d shingles with document "
                "frequency > %d — similarities become exact Jaccard "
                "over the remaining (non-boilerplate) shingle space",
                len(hot), max_df,
            )
            hot_arr = pa.array(sorted(r["sh"] for r in hot), pa.binary())
            hot_ref = ray.put(hot_arr)

            def drop_hot(batch: pa.Table) -> pa.Table:
                hs = ray.get(hot_ref)
                mask = pc.is_valid(pc.index_in(batch.column("sh"), value_set=hs))
                return batch.filter(pc.invert(mask))

            # materialize: `kept` feeds both the sizes groupby and the
            # join left side below — unmaterialized, the hot-shingle
            # filter would re-execute once per consumer
            kept = sigs.map_batches(drop_hot, batch_format="pyarrow").materialize()
            # set sizes changed: recompute n over the capped space so
            # the emitted value is a true Jaccard there (one int-keyed
            # join; the sizes side is 1 row per doc)
            sizes = _hagg_auto(kept, "doc", [('', 'count_all', 'n_capped')])
            sigs = (
                hash_join(kept.select_columns(["sh", "doc"]), sizes, "doc")
                .map_batches(
                    lambda b: pa.table(
                        {
                            "sh": b.column("sh"),
                            "doc": b.column("doc"),
                            "n": b.column("n_capped"),
                        }
                    ),
                    batch_format="pyarrow",
                )
                # consumed twice below (self-join left + rhs) — pin the
                # capped pipeline's result like the uncapped `sigs`
                .materialize()
            )

    rhs = sigs.map_batches(
        lambda b: pa.table(
            {
                "sh": b.column("sh"),
                "b_doc": b.column("doc"),
                "b_n": b.column("n"),
            }
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(sigs, rhs, "sh")

    def pair_partials(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("doc"), batch.column("b_doc"))
        t = batch.filter(keep)
        if t.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "ic": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        return (
            pa.table(
                {
                    "a": t.column("doc"),
                    "b": t.column("b_doc"),
                    "n_a": t.column("n"),
                    "n_b": t.column("b_n"),
                }
            )
            .group_by(["a", "b"])
            .aggregate([("n_a", "count"), ("n_a", "min"), ("n_b", "min")])
            .select(["a", "b", "n_a_count", "n_a_min", "n_b_min"])
            .rename_columns(["a", "b", "ic", "n_a", "n_b"])
        )

    agg = (
        _hagg_auto(joined.map_batches(pair_partials, batch_format="pyarrow", batch_size=None), ["a", "b"], [('ic', 'sum', 'ic'), ('n_a', 'min', 'n_a'), ('n_b', 'min', 'n_b')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        ic = batch.column("ic").to_numpy(zero_copy_only=False).astype(np.float64)
        n_a = batch.column("n_a").to_numpy(zero_copy_only=False).astype(np.float64)
        n_b = batch.column("n_b").to_numpy(zero_copy_only=False).astype(np.float64)
        sim = ic / (n_a + n_b - ic)
        ok = sim >= threshold
        return pa.table(
            {
                "a": batch.column("a").filter(pa.array(ok)),
                "b": batch.column("b").filter(pa.array(ok)),
                "jaccard_sim": pa.array(sim[ok], pa.float64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


# -------------------------------------------------------------- simhash


def simhash64(text: str) -> int:
    """64-bit simhash over word features (crc-based, deterministic)."""
    v = np.zeros(64, dtype=np.int64)
    words = _normalize(text).split()
    if not words:
        return 0
    for w in words:
        h = struct.unpack(
            "<Q", hashlib.md5(w.encode()).digest()[:8]
        )[0]
        bits = np.unpackbits(
            np.frombuffer(struct.pack("<Q", h), dtype=np.uint8)
        ).astype(np.int64)
        v += 2 * bits - 1
    out = np.packbits((v > 0).astype(np.uint8))
    # signed so the value fits pyarrow int64 columns
    return int(struct.unpack("<q", out.tobytes())[0])


class SimHashStage:
    def __init__(self, n_chunks: int = 4):
        self.n_chunks = n_chunks

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, chunks, keys, fps = [], [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            fp = simhash64(t)
            for c in range(self.n_chunks):
                ids.append(doc_id)
                chunks.append(c)
                keys.append((fp >> (c * 16)) & 0xFFFF)
                fps.append(fp)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk": pa.array(chunks, pa.int32()),
                "key": pa.array(keys, pa.int64()),
                "fp": pa.array(fps, pa.int64()),
            }
        )


def simhash_near_dup_pairs(
    sf_dir: str, max_hamming: int = 3, max_bucket: int = 2000
) -> Dataset:
    """Near-dup pairs by simhash banding: docs sharing any 16-bit chunk
    are candidates; verified by Hamming distance <= max_hamming.

    Shape: vectorized SELF-JOIN on (chunk, key) — the fingerprints ride
    along both join sides, so verification is a per-batch numpy popcount
    with no second data pass (the previous ``map_groups`` over ~#docs x
    chunks tiny groups was framework-overhead-bound).  Buckets larger
    than ``max_bucket`` (identical-boilerplate collisions whose pair
    list is inherently quadratic) are EXPLICITLY dropped and logged with
    a count — no silent caps; for mass-identical content use
    ``minhash_dedup_clusters`` (clusters, linear output) instead."""
    import logging

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    sigs = ds.map_batches(
        SimHashStage, batch_format="pyarrow", concurrency=(1, 8)
    ).materialize()

    from ray.data.aggregate import Count

    sizes = _hagg_auto(sigs, ["chunk", "key"], [('', 'count_all', 'n')])
    big = sizes.filter(expr=f"n > {max_bucket}").take_all()
    if big:
        logging.getLogger(__name__).warning(
            "simhash: dropping %d oversized (chunk, key) buckets "
            "(> %d members, %d rows) — near-identical mass content; "
            "pairs in them are recovered via their other chunks when "
            "those buckets are small, else use minhash_dedup_clusters",
            len(big), max_bucket, sum(r["n"] for r in big),
        )
        big_keys = pa.array(
            sorted((r["chunk"] << 32) + r["key"] for r in big), pa.int64()
        )
        big_ref = ray.put(big_keys)

        def drop_big(batch: pa.Table) -> pa.Table:
            bk = ray.get(big_ref)
            key = _bb_key(batch.column("chunk"), batch.column("key"))
            return batch.filter(pc.invert(pc.is_valid(pc.index_in(key, value_set=bk))))

        sigs = sigs.map_batches(drop_big, batch_format="pyarrow")

    rhs = sigs.map_batches(
        lambda b: pa.table(
            {
                "chunk": b.column("chunk"),
                "key": b.column("key"),
                "b_id": b.column("doc_id"),
                "b_fp": b.column("fp"),
            }
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(sigs, rhs, ["chunk", "key"])

    hmax = max_hamming

    def verify(batch: pa.Table) -> pa.Table:
        a_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b_id = batch.column("b_id").to_numpy(zero_copy_only=False)
        fa = batch.column("fp").to_numpy(zero_copy_only=False).astype(np.uint64)
        fb = batch.column("b_fp").to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = a_id < b_id
        a_id, b_id, fa, fb = a_id[keep], b_id[keep], fa[keep], fb[keep]
        x = fa ^ fb
        # vectorized 64-bit popcount via the 8-bit lookup on the byte view
        hd = np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8).sum(axis=1) if len(x) else np.array([], dtype=np.int64)
        ok = hd <= hmax
        t = pa.table(
            {
                "a": pa.array(a_id[ok], pa.int64()),
                "b": pa.array(b_id[ok], pa.int64()),
                "hamming": pa.array(hd[ok].astype(np.int64), pa.int64()),
            }
        )
        if t.num_rows:  # batch-local dedup before the global aggregate
            t = (
                t.group_by(["a", "b"])
                .aggregate([("hamming", "min")])
                .select(["a", "b", "hamming_min"])
                .rename_columns(["a", "b", "hamming"])
            )
        return t

    cand = joined.map_batches(verify, batch_format="pyarrow", batch_size=None)
    return _hagg_auto(cand, ["a", "b"], [('hamming', 'min', 'hamming')])


# ---------------------------------------------------- embedding near-dup


def embedding_near_dup_pairs(
    sf_dir: str,
    threshold: float = 0.98,
    mode: str = "exact",
    n_chunks: int | None = None,
) -> Dataset:
    """Near-dup vector pairs with cosine >= threshold.

    ``mode="exact"`` (default, oracle-checkable): distributed block-pair
    all-pairs — every vector is fanned out to its chunk-PAIR groups and
    each of the B(B+1)/2 groups scores one chunk x chunk tile with a
    numpy matmul.  No driver materialization and no whole-table
    broadcast (the r1 version held the full matrix on the driver); the
    price is xB shuffle amplification and inherently O(n^2) compute —
    the only way to be exact at a moderate threshold.

    ``mode="srp"`` (the scale path for HIGH thresholds, e.g. >= 0.9):
    sign-random-projection buckets (re-using ``SrpIndexStage``) generate
    candidates, cosine verifies them — linear shuffle volume, recall <
    1.  At a threshold like 0.45 SRP needs more tables than brute force
    costs, which is why it is not the default here."""
    from renard_ray.ops.relational import read_table

    emb = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])
    if mode == "srp":
        return _embedding_near_dup_srp(emb, threshold)

    import os

    try:
        nbytes = os.path.getsize(f"{sf_dir}/embeddings.parquet")
    except OSError:
        nbytes = 1 << 30
    # each group holds ~2 chunks; target <= ~256 MB of vectors per chunk
    B = n_chunks or max(2, min(64, nbytes // (256 << 20) + 2))

    def fanout(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        c = ids % B
        parts = []
        for k in range(B):
            pk = np.minimum(c, k) * B + np.maximum(c, k)
            parts.append(batch.append_column("pk", pa.array(pk, pa.int64())))
        return pa.concat_tables(parts)

    def score(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        M = np.array(group.column("embedding").to_pylist(), dtype=np.float64)
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        c = ids % B
        # the pair identity comes from the GROUP KEY, never from which
        # residues happen to be non-empty: an empty chunk j must not
        # turn the (i, j) cross group into a duplicate diagonal emit
        pk = int(group.column("pk")[0].as_py())
        gi, gj = pk // B, pk % B
        a_out: list[int] = []
        b_out: list[int] = []
        s_out: list[float] = []

        def emit(ids_l, ids_r, sims, upper_tri):
            hit_r, hit_c = np.where(
                np.triu(sims >= threshold, k=1) if upper_tri else (sims >= threshold)
            )
            for r, cc in zip(hit_r, hit_c):
                x, y = int(ids_l[r]), int(ids_r[cc])
                if x == y:
                    continue
                a_out.append(min(x, y))
                b_out.append(max(x, y))
                s_out.append(round(float(sims[r, cc]), 4))

        if gi == gj:
            emit(ids, ids, M @ M.T, True)
        else:
            li, lj = c == gi, c == gj
            if li.any() and lj.any():
                emit(ids[li], ids[lj], M[li] @ M[lj].T, False)
        return pa.table(
            {
                "a": pa.array(a_out, pa.int64()),
                "b": pa.array(b_out, pa.int64()),
                "cosine_sim": pa.array(s_out, pa.float64()),
            }
        )

    return (
        emb.map_batches(fanout, batch_format="pyarrow")
        .groupby("pk")
        .map_groups(score, batch_format="pyarrow")
    )


def _embedding_near_dup_srp(
    emb: Dataset, threshold: float, n_tables: int = 24, n_bits: int = 10
) -> Dataset:
    """Approximate near-dup pairs: SRP bucket self-join for candidates,
    per-batch cosine verification.  Linear-ish shuffle volume; recall
    depends on (threshold, n_tables, n_bits) — at cos >= 0.9 with the
    defaults the per-pair miss probability is < 1e-4."""
    from renard_ray.ops.similarity import SrpIndexStage

    first = emb.take(1)
    if not first:
        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "cosine_sim": pa.array([], pa.float64()),
                }
            )
        )
    dim = len(first[0]["embedding"])
    buckets = emb.map_batches(
        SrpIndexStage,
        fn_constructor_kwargs={"dim": dim, "n_tables": n_tables, "n_bits": n_bits},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    rhs = buckets.map_batches(
        lambda b: pa.table(
            {
                "table": b.column("table"),
                "bucket": b.column("bucket"),
                "b_id": b.column("vec_id"),
            }
        ),
        batch_format="pyarrow",
    )
    cand = (
        _hagg_auto(hash_join(buckets, rhs, ["table", "bucket"])
        .map_batches(
            lambda b: pa.table(
                {
                    "a": pc.min_element_wise(b.column("vec_id"), b.column("b_id")),
                    "b": pc.max_element_wise(b.column("vec_id"), b.column("b_id")),
                }
            ).filter(pc.less(b.column("vec_id"), b.column("b_id"))),
            batch_format="pyarrow",
        ), ["a", "b"], [('', 'count_all', 'count()')])
        .select_columns(["a", "b"])
    )
    # attach vectors via two hash joins, verify cosine per batch.
    # Acero hash joins cannot carry list<float> payload columns, so the
    # vector rides through the join as fixed-width binary and is decoded
    # with a zero-copy np.frombuffer in the verify batch.
    def pack(batch: pa.Table) -> pa.Table:
        M = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "ebin": pa.array([row.tobytes() for row in M], pa.binary()),
            }
        )

    emb_bin = emb.map_batches(pack, batch_format="pyarrow")
    j1 = hash_join(cand, emb_bin, "a", "vec_id").map_batches(
        lambda b: pa.table(
            {"a": b.column("a"), "b": b.column("b"), "ebin_a": b.column("ebin")}
        ),
        batch_format="pyarrow",
    )
    j2 = hash_join(j1, emb_bin, "b", "vec_id")

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "cosine_sim": pa.array([], pa.float64()),
                }
            )
        A = np.stack(
            [np.frombuffer(x, dtype=np.float64) for x in batch.column("ebin_a").to_pylist()]
        )
        Bv = np.stack(
            [np.frombuffer(x, dtype=np.float64) for x in batch.column("ebin").to_pylist()]
        )
        A = A / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-12)
        Bv = Bv / np.maximum(np.linalg.norm(Bv, axis=1, keepdims=True), 1e-12)
        sims = (A * Bv).sum(axis=1)
        ok = sims >= threshold
        return pa.table(
            {
                "a": batch.column("a").filter(pa.array(ok)),
                "b": batch.column("b").filter(pa.array(ok)),
                "cosine_sim": pa.array(np.round(sims[ok], 4), pa.float64()),
            }
        )

    return j2.map_batches(verify, batch_format="pyarrow", batch_size=None)


def minhash_dedup_clusters(
    sf_dir: str, threshold: float = 0.8, driver_limit: int = 5_000_000
) -> Dataset:
    """Near-duplicate CLUSTERS: connected components over the verified
    near-dup pair graph (re-uses the engine's distributed CC), keeper =
    min doc_id per component.  Output: (doc_id, keeper_doc_id) for every
    clustered document.

    Fully dataset-shaped: labels come back as a (node, label) Dataset
    (the driver union-find path, when chosen by ``mode="auto"``, is
    bounded by ``driver_limit`` distinct edges and converted to a single
    Arrow block), the numeric keeper is a ``groupby(label).min(doc_id)``
    over that Dataset, and (doc_id, keeper) is a label join — no
    driver-side dict of every clustered document, no ``from_items``."""
    import pyarrow.compute as pc

    from renard_ray.pipelines.cc import connected_components

    pairs = minhash_dedup_pairs(sf_dir, threshold).materialize()
    n_pairs = pairs.count()
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "keeper_doc_id": pa.array([], pa.int64()),
        }
    )
    if n_pairs == 0:
        return ray.data.from_arrow(empty)

    def as_str(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pc.cast(batch.column("a"), pa.string()),
                "v": pc.cast(batch.column("b"), pa.string()),
            }
        )

    edges = pairs.map_batches(as_str, batch_format="pyarrow")
    label_map, label_ds = connected_components(
        edges, mode="auto", driver_limit=driver_limit
    )
    if label_map is not None:
        # driver path: bounded by driver_limit distinct edges; one Arrow
        # block, then the same dataset-shaped keeper derivation below.
        nodes = list(label_map.keys())
        label_ds = ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.string()),
                    "label": pa.array([label_map[n] for n in nodes], pa.string()),
                }
            )
        )

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("node"), pa.int64()),
                "label": batch.column("label"),
            }
        )

    lab = label_ds.map_batches(to_int, batch_format="pyarrow").materialize()

    def rename_keeper(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": batch.column("label"),
                "keeper_doc_id": batch.column("min(doc_id)"),
            }
        )

    keepers = _hagg_auto(lab, "label", [('doc_id', 'min', 'min(doc_id)')]).map_batches(
        rename_keeper, batch_format="pyarrow"
    )
    out = hash_join(lab, keepers, "label")
    return out.select_columns(["doc_id", "keeper_doc_id"]).sort("doc_id")


_SPAN_IDX_BITS = 20  # span_idx < 2^20 (a 10M-word doc still fits)


def span_dedup(sf_dir: str, span_words: int = 10) -> Dataset:
    """Paragraph-level exact dedup (RefinedWeb-style), adapted to the
    corpus's unstructured text: the dedup unit is a fixed-width SPAN of
    ``span_words`` consecutive lowercased whitespace tokens
    (non-overlapping; the sub-span tail is ignored).  Corpus-wide, the
    FIRST occurrence of each distinct span (min (doc_id, span_idx))
    is the keeper; every later occurrence is a removal.

    Scale shape: ONE read+tokenize pass emits a tagged union of span
    rows (md5-hex span key + packed (doc_id, span_idx) order key) and
    zero-span doc rows; the only all-to-all is the span-keyed
    ``groupby(h).min(packed)`` winner reduce; winners re-attach via the
    size-adaptive lookup join (broadcast while the distinct-span table
    fits, hash join past it); the per-doc rollup is one bounded
    ``groupby(doc_id)``.  Span text never rides an exchange — only its
    16-byte hash.

    Output: (doc_id, n_spans, n_removed) for EVERY document
    (zero-span docs included with (0, 0))."""
    from renard_ray.ops.relational import broadcast_lookup_join

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    W = span_words

    def emit(batch: pa.Table) -> pa.Table:
        doc_ids: list[int] = []
        hs: list[str] = []
        packed: list[int] = []
        zero_docs: list[int] = []
        for did, txt in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            ws = [w for w in _WS_RE.split((txt or "").strip().lower()) if w]
            n = len(ws) // W
            if n == 0:
                zero_docs.append(did)
                continue
            assert n < (1 << _SPAN_IDX_BITS), "span_idx overflow"
            # packed key must stay in int64 (and match the SQL oracle's
            # doc_id*2^20 + idx): doc_id < 2^43
            assert did < (1 << 43), "doc_id too large for the packed order key"
            base = did << _SPAN_IDX_BITS
            for i in range(n):
                span = " ".join(ws[i * W : (i + 1) * W])
                doc_ids.append(did)
                hs.append(hashlib.md5(span.encode()).hexdigest())
                packed.append(base | i)
        spans = pa.table(
            {
                "kind": pa.array(["s"] * len(doc_ids), pa.string()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "h": pa.array(hs, pa.string()),
                "packed": pa.array(packed, pa.int64()),
            }
        )
        zeros = pa.table(
            {
                "kind": pa.array(["d"] * len(zero_docs), pa.string()),
                "doc_id": pa.array(zero_docs, pa.int64()),
                "h": pa.array([""] * len(zero_docs), pa.string()),
                "packed": pa.array([0] * len(zero_docs), pa.int64()),
            }
        )
        return pa.concat_tables([spans, zeros])

    tagged = ds.map_batches(emit, batch_format="pyarrow").materialize()
    spans = tagged.filter(expr="kind == 's'").select_columns(
        ["doc_id", "h", "packed"]
    )
    spans = spans.materialize()
    zero_rows = tagged.filter(expr="kind == 'd'").map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_spans": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "n_removed": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    if spans.count() == 0:
        return zero_rows

    winners = _hagg_auto(spans, "h", [('packed', 'min', 'w')])
    flagged = broadcast_lookup_join(
        spans, winners, on="h", right_on="h", payload=["w"]
    )

    def mark(batch: pa.Table) -> pa.Table:
        rem = pc.cast(
            pc.not_equal(batch.column("packed"), batch.column("w")), pa.int64()
        )
        return pa.table({"doc_id": batch.column("doc_id"), "rem": rem})

    per_doc = (
        _hagg_auto(flagged.map_batches(mark, batch_format="pyarrow"), "doc_id", [('', 'count_all', 'n_spans'), ('rem', 'sum', 'n_removed')])
    )
    return per_doc.union(zero_rows)


def dup_cluster_sizes(sf_dir: str) -> "Dataset | pa.Table":
    """Distribution of exact-duplicate cluster sizes (how many text
    hashes have exactly k copies) — the dedup-health histogram that
    tells you whether duplication is a long boilerplate tail or a few
    monster clusters; the count-of-counts shape over
    :func:`exact_dedup_groups`.

    Shape notes: one md5 groupby (the dedup exchange, text never
    ships past the per-batch hash), then a combiner-fed groupby over
    the |hashes|-bounded group table whose output is bounded by the
    distinct cluster sizes."""
    import numpy as np

    out_schema = pa.schema(
        [("n_copies", pa.int64()), ("n_clusters", pa.int64())]
    )
    g = exact_dedup_groups(sf_dir)

    _h_schema = pa.schema([("n_copies", pa.int64()), ("n", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _h_schema.empty_table()
        t = pa.table(
            {
                "n_copies": pc.cast(batch.column("n_copies"), pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by("n_copies").aggregate([("n", "sum")]).rename_columns(
            ["n_copies", "n"]
        )

    from renard_ray.ops.relational import Sum, _scrub_schemaless

    red = _scrub_schemaless(
        _hagg_auto(g.map_batches(combine, batch_format="pyarrow", batch_size=None), "n_copies", [('n', 'sum', 'n_clusters')])
    )
    if red is None:
        return out_schema.empty_table()
    return red
