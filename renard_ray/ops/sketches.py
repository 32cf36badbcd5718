"""Approximate/sketch aggregates — mergeable, one streaming pass.

The scale path for statistics a 100 TB corpus can't compute exactly in
memory.  All are public algorithms implemented from scratch; each
sketch is computed per batch and MERGED (map-side partial -> small
driver/reduce merge), never holding raw data:

- ``hll_distinct``      — HyperLogLog (Flajolet et al. 2007) distinct
  count, here over corpus words.
- ``reservoir_sample``  — Algorithm-R-style deterministic seeded
  per-batch reservoirs merged by weighted draw.
- ``quantile_sketch``   — fixed-bin histogram sketch over a value
  column (mergeable; quantiles interpolated from bin counts).
"""

from __future__ import annotations

import hashlib
import math
import re
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto

def _read_tbl(sf_dir: str, table: str, columns: list[str]) -> Dataset:
    """Scrubbed-schema scan — delegates to the ONE house implementation
    (relational._read) so the pandas-metadata-scrub convention lives in
    a single place."""
    from renard_ray.ops.relational import _read

    return _read(sf_dir, table, columns)


_WS_RE = re.compile(r"\s+")


# ------------------------------------------------------------------ HLL


def _hll_new(p: int = 12) -> np.ndarray:
    return np.zeros(1 << p, dtype=np.uint8)


def _hll_add_hashes(reg: np.ndarray, hashes: np.ndarray, p: int = 12) -> None:
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes << np.uint64(p)
    # rank = leading zeros of remaining bits + 1 (capped)
    ranks = np.zeros(len(hashes), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    rem = rest.copy()
    rank = np.ones(len(hashes), dtype=np.uint8)
    live = np.ones(len(hashes), dtype=bool)
    for _ in range(64 - p):
        top = (rem & mask) != 0
        done = live & top
        ranks[done] = rank[done]
        live &= ~top
        rem = rem << np.uint64(1)
        rank += 1
        if not live.any():
            break
    ranks[live] = 64 - p + 1
    np.maximum.at(reg, idx, ranks)


def _hll_count(reg: np.ndarray, p: int = 12) -> float:
    m = float(len(reg))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -reg.astype(np.float64))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)  # small-range correction
    return est


def _word_hashes(text: str) -> np.ndarray:
    words = {w for w in _WS_RE.split((text or "").lower()) if w}
    if not words:
        return np.empty(0, dtype=np.uint64)
    return np.array(
        [
            struct.unpack("<Q", hashlib.md5(w.encode()).digest()[:8])[0]
            for w in words
        ],
        dtype=np.uint64,
    )


def hll_distinct_words(sf_dir: str, p: int = 12) -> Dataset:
    """Approximate distinct-word count over the documents corpus.
    Per-batch HLL registers merged by elementwise max (one tiny final
    reduce)."""
    ds = _read_tbl(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        reg = _hll_new(p)
        for t in batch.column("text").to_pylist():
            h = _word_hashes(t)
            if len(h):
                _hll_add_hashes(reg, h, p)
        return pa.table({"registers": pa.array([reg.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    merged = _hll_new(p)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for blob in b.column("registers").to_pylist():
            merged = np.maximum(merged, np.frombuffer(blob, dtype=np.uint8))
    est = int(round(_hll_count(merged, p)))
    return ray.data.from_items([{"metric": "distinct_words_hll", "estimate": est}])


def exact_distinct_words(sf_dir: str) -> int:
    """Exact baseline for the HLL error test (groupby distinct)."""
    ds = _read_tbl(sf_dir, "documents", ["text"])

    def words(batch: pa.Table) -> pa.Table:
        out = set()
        for t in batch.column("text").to_pylist():
            out.update(w for w in _WS_RE.split((t or "").lower()) if w)
        ws = sorted(out)
        return pa.table({"word": pa.array(ws, pa.string())})

    return (
        _hagg_auto(ds.map_batches(words, batch_format="pyarrow"), "word", [('', 'count_all', 'count()')])
        .count()
    )


# ------------------------------------------------------------ reservoir


def reservoir_sample(
    ds: Dataset, k: int = 100, seed: int = 7, key_col: str | None = None
) -> list[dict]:
    """Deterministic weighted reservoir (Efraimidis–Spirakis style):
    each row gets a seeded priority from its content hash; global top-k
    by priority = a uniform sample, reproducible under retries and
    independent of partitioning."""

    def partial(batch: pa.Table) -> pa.Table:
        import json

        rows = batch.to_pylist()
        pri, keep = [], []
        for r in rows:
            blob = json.dumps(r, sort_keys=True, default=str).encode()
            h = struct.unpack("<Q", hashlib.md5(blob + str(seed).encode()).digest()[:8])[0]
            pri.append(h)
            keep.append(json.dumps(r, sort_keys=True, default=str))
        order = np.argsort(np.array(pri, dtype=np.uint64), kind="stable")[:k]
        return pa.table(
            {
                "priority": pa.array([pri[i] for i in order], pa.uint64()),
                "row_json": pa.array([keep[i] for i in order], pa.string()),
            }
        )

    import heapq
    import json

    best: list[tuple[int, str]] = []
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for p_, r in zip(b.column("priority").to_pylist(), b.column("row_json").to_pylist()):
            if len(best) < k:
                heapq.heappush(best, (-p_, r))
            elif -best[0][0] > p_:
                heapq.heapreplace(best, (-p_, r))
    return [json.loads(r) for _, r in sorted(best, key=lambda t: -t[0])]


def weighted_reservoir_sample(
    ds: Dataset, k: int, weight_col: str, seed: int = 7
) -> list[dict]:
    """Deterministic WEIGHTED reservoir (Efraimidis–Spirakis A-ES):
    each row draws u in (0,1) from its seeded content hash and races
    with key ``-ln(u) / w`` — global k SMALLEST keys are a sample where
    inclusion probability is proportional to ``weight_col``.  Same
    md5-priority recipe as the uniform reservoir: reproducible under
    retries and independent of partitioning; per-batch top-k partials,
    O(k x #blocks) driver merge."""
    import heapq
    import json
    import math

    def partial(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        keys, keep = [], []
        for r in rows:
            w = float(r.get(weight_col) or 0.0)
            if w <= 0.0:  # zero/negative/null weight: never sampled
                continue
            blob = json.dumps(r, sort_keys=True, default=str).encode()
            h = struct.unpack(
                "<Q", hashlib.md5(blob + str(seed).encode()).digest()[:8]
            )[0]
            u = (h + 1) / (2.0**64 + 2)  # strictly inside (0, 1)
            keys.append(-math.log(u) / w)
            keep.append(json.dumps(r, sort_keys=True, default=str))
        order = np.argsort(np.array(keys, dtype=np.float64), kind="stable")[:k]
        return pa.table(
            {
                "key": pa.array([keys[i] for i in order], pa.float64()),
                "row_json": pa.array([keep[i] for i in order], pa.string()),
            }
        )

    best: list[tuple[float, str]] = []
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for k_, r in zip(
            b.column("key").to_pylist(), b.column("row_json").to_pylist()
        ):
            if len(best) < k:
                heapq.heappush(best, (-k_, r))
            elif -best[0][0] > k_:
                heapq.heapreplace(best, (-k_, r))
    return [json.loads(r) for _, r in sorted(best, key=lambda t: -t[0])]


# ------------------------------------------------------- quantile sketch


def quantile_sketch(
    sf_dir: str,
    table: str = "lineitem",
    column: str = "l_extendedprice",
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
    n_bins: int = 4096,
) -> Dataset:
    """Histogram-sketch quantiles of a numeric column: one pass for
    min/max (parquet stats would do at scale), one pass building
    mergeable fixed-bin counts, quantiles interpolated from the bins."""
    ds = _read_tbl(sf_dir, table, [column])
    import pyarrow.compute as pc

    stats = ds.aggregate(
        ray.data.aggregate.Min(column, alias_name="lo"),
        ray.data.aggregate.Max(column, alias_name="hi"),
    )
    lo, hi = float(stats["lo"]), float(stats["hi"])
    width = (hi - lo) / n_bins or 1.0

    def partial(batch: pa.Table) -> pa.Table:
        v = np.array(batch.column(column).to_pylist(), dtype=np.float64)
        bins = np.clip(((v - lo) / width).astype(np.int64), 0, n_bins - 1)
        counts = np.bincount(bins, minlength=n_bins)
        return pa.table({"counts": pa.array([counts.tobytes()], pa.binary())})

    merged = np.zeros(n_bins, dtype=np.int64)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for blob in b.column("counts").to_pylist():
            merged += np.frombuffer(blob, dtype=np.int64)
    total = int(merged.sum())
    cum = np.cumsum(merged)
    rows = []
    for q in quantiles:
        target = q * total
        bin_i = int(np.searchsorted(cum, target))
        rows.append(
            {
                "quantile": q,
                "estimate": round(lo + (bin_i + 0.5) * width, 2),
            }
        )
    return ray.data.from_items(rows)


# --------------------------------------------------- stratified sampling


def stratified_sample(sf_dir: str, key: str = "source", n: int = 5) -> Dataset:
    """Deterministic stratified sample: n documents per ``key`` group,
    chosen by md5(doc_id) priority — reproducible under retries,
    independent of partitioning, and exactly SQL-expressible
    (``ROW_NUMBER() OVER (PARTITION BY key ORDER BY md5(doc_id),
    doc_id)``), so the DuckDB oracle checks it bit-for-bit.

    Rides the candidates-only ``hash_topk`` exchange (per-block top-n
    prune before the shuffle, vectorized reduce-side pick) — no
    per-group ``map_groups`` Python, so many tiny groups pay no
    per-group framework cost."""
    from renard_ray.ops.hashagg import hash_topk
    from renard_ray.ops.relational import read_table

    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", key, "n_chars"])

    def add_priority(batch: pa.Table) -> pa.Table:
        pri = [
            hashlib.md5(str(d).encode()).hexdigest()
            for d in batch.column("doc_id").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                key: pc.cast(batch.column(key), pa.string()),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
                "priority": pa.array(pri, pa.string()),
            }
        )

    picked = hash_topk(
        ds.map_batches(add_priority, batch_format="pyarrow"),
        keys=key,
        order=[("priority", True), ("doc_id", True)],
        k=n,
        rank_col="sample_rank",
    )
    return picked.map_batches(
        lambda b: b.select(["doc_id", key, "n_chars", "sample_rank"]),
        batch_format="pyarrow",
    )


def domain_mix_sample(
    sf_dir: str,
    n_total: int = 1000,
    weight_fn=None,
) -> Dataset:
    """Target-domain-mix sampler (the DoReMi/data-mixture shape): given
    per-source target WEIGHTS, apportion an ``n_total`` document budget
    across sources by exact largest-remainder (integer floor shares;
    +1 to the largest remainders, ties -> source asc; capped at each
    source's availability, shortfall NOT redistributed — the caller
    sees it via quota < share), then pick each source's quota by
    md5(doc_id) priority — deterministic under retries and
    partitioning, and exactly SQL-expressible.

    ``weight_fn(source) -> int`` defaults to ``len(source) % 3 + 1`` (a
    pure function of the name, so the DuckDB twin needs no literals).

    Scale shape: ONE combiner count groupby (vocabulary-sized), integer
    apportionment driver-side over #sources rows, and the
    candidates-only ``hash_topk`` pick — the wire never carries more
    than max-quota rows per source per block.

    Output: (doc_id, source, sample_rank, quota), quota attached to
    every row like the spectral ``lam`` columns."""
    import ray as _ray

    from renard_ray.ops.hashagg import hash_aggregate, hash_topk
    from renard_ray.ops.relational import read_table

    weight_fn = weight_fn or (lambda s: len(s) % 3 + 1)
    ds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "source"])

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": batch.column("source"),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    counts = {
        r["source"]: int(r["n"])
        for r in hash_aggregate(
            ds.map_batches(ones, batch_format="pyarrow"),
            "source",
            [("n", "sum", "n")],
        ).take_all()
    }
    sources = sorted(counts)
    weights = {s: int(weight_fn(s)) for s in sources}
    W = sum(weights.values())
    # exact integer largest-remainder apportionment
    base = {s: (n_total * weights[s]) // W for s in sources}
    rem = {s: (n_total * weights[s]) % W for s in sources}
    extra = n_total - sum(base.values())
    order = sorted(sources, key=lambda s: (-rem[s], s))
    quota = {
        s: min(counts[s], base[s] + (1 if i < extra else 0))
        for i, s in enumerate(order)
    }
    max_q = max(quota.values(), default=0)
    if max_q == 0:
        return _ray.data.from_arrow(
            pa.schema(
                [("doc_id", pa.int64()), ("source", pa.string()),
                 ("sample_rank", pa.int64()), ("quota", pa.int64())]
            ).empty_table()
        )

    def add_priority(batch: pa.Table) -> pa.Table:
        pri = [
            hashlib.md5(str(d).encode()).hexdigest()
            for d in batch.column("doc_id").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "source": pc.cast(batch.column("source"), pa.string()),
                "priority": pa.array(pri, pa.string()),
            }
        )

    picked = hash_topk(
        ds.map_batches(add_priority, batch_format="pyarrow"),
        keys="source",
        order=[("priority", True), ("doc_id", True)],
        k=max_q,
        rank_col="sample_rank",
    )

    qk = pa.array(sorted(quota), pa.string())
    qv = pa.array([quota[s] for s in sorted(quota)], pa.int64())
    q_ref = ray.put((qk, qv))

    def cut(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(q_ref)
        idx = pc.index_in(batch.column("source"), value_set=keys)
        q = pc.take(vals, idx)
        t = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "sample_rank": batch.column("sample_rank"),
                "quota": q,
            }
        )
        return t.filter(pc.less_equal(t.column("sample_rank"), t.column("quota")))

    return picked.map_batches(cut, batch_format="pyarrow")


# --------------------------------------------------------- bloom filter


def _bloom_params(n_expected: int, fpr: float = 0.01) -> tuple[int, int]:
    """Optimal (m bits, k hashes) for an expected item count and target
    false-positive rate (standard Bloom formulas)."""
    import math

    m = max(64, int(-n_expected * math.log(fpr) / (math.log(2) ** 2)))
    m = 1 << (m - 1).bit_length()  # power of two -> mask instead of mod
    k = max(1, round(m / max(1, n_expected) * math.log(2)))
    return m, min(k, 16)


def _bloom_add(bits: np.ndarray, values: list[bytes], k: int) -> None:
    mask = len(bits) * 8 - 1
    for v in values:
        h = hashlib.md5(v).digest()
        h1 = struct.unpack("<Q", h[:8])[0]
        h2 = struct.unpack("<Q", h[8:])[0] | 1
        for i in range(k):
            pos = (h1 + i * h2) & mask
            bits[pos >> 3] |= 1 << (pos & 7)


def _bloom_contains(bits: np.ndarray, v: bytes, k: int) -> bool:
    mask = len(bits) * 8 - 1
    h = hashlib.md5(v).digest()
    h1 = struct.unpack("<Q", h[:8])[0]
    h2 = struct.unpack("<Q", h[8:])[0] | 1
    for i in range(k):
        pos = (h1 + i * h2) & mask
        if not bits[pos >> 3] & (1 << (pos & 7)):
            return False
    return True


def build_bloom_filter(
    ds: Dataset, column: str, n_expected: int, fpr: float = 0.01
) -> tuple[np.ndarray, int]:
    """Distributed Bloom filter over a column: each batch sets its bits
    into a partial filter, partials OR-merge (associative/commutative —
    the same mergeable-sketch shape as the HLL above).  The classic
    seen-URL set for a 100 TB crawl: the filter is a few GB where the
    key set would be hundreds, and membership is O(k) with zero I/O.

    Returns (bit array, k)."""
    m, k = _bloom_params(n_expected, fpr)
    nbytes = m // 8

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(nbytes, dtype=np.uint8)
        _bloom_add(
            bits,
            [str(v).encode() for v in batch.column(column).to_pylist()],
            k,
        )
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    merged = np.zeros(nbytes, dtype=np.uint8)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for blob in b.column("bits").to_pylist():
            merged |= np.frombuffer(blob, dtype=np.uint8)
    return merged, k


def bloom_contains(bits: np.ndarray, k: int, value) -> bool:
    return _bloom_contains(bits, str(value).encode(), k)


def source_distinct_words_hll(sf_dir: str, p: int = 12) -> Dataset:
    """Per-SOURCE approximate distinct-word counts: one tokenize pass
    emits a (source, registers) HLL partial per batch-and-source, a
    bounded groupby (one group per source — the grouping vocabulary,
    not the corpus) merges registers by elementwise max.  The
    mergeable-sketch-per-group pattern: at 100 TB the shuffle carries
    #blocks x #sources fixed-size register rows, never token rows."""
    ds = _read_tbl(sf_dir, "documents", ["source", "text"])
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)

    def partial(batch: pa.Table) -> pa.Table:
        regs: dict[str, np.ndarray] = {}
        for src, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            h = _word_hashes(t)
            if len(h):
                reg = regs.setdefault(src, _hll_new(p))
                _hll_add_hashes(reg, h, p)
        # SPARSE register rows (source, reg, rank): zero registers stay
        # implicit, so the exchange carries set registers only and the
        # merge is a stock (source, reg) groupby-Max — the ANF shape,
        # no binary blobs, no per-source map_groups
        srcs: list[str] = []
        idxs: list[np.ndarray] = []
        ranks: list[np.ndarray] = []
        for s in sorted(regs):
            nz = np.flatnonzero(regs[s])
            srcs.extend([s] * len(nz))
            idxs.append(nz.astype(np.int64))
            ranks.append(regs[s][nz].astype(np.int64))
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "reg": pa.array(
                    np.concatenate(idxs) if idxs else np.array([], np.int64)
                ),
                "rank": pa.array(
                    np.concatenate(ranks) if ranks else np.array([], np.int64)
                ),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").materialize()
    if parts.count() == 0:
        # a wordless corpus leaves only schema-less empty partials —
        # return a TYPED empty so downstream column compares see the
        # real names (the link_prediction convention)
        return ray.data.from_arrow(
            pa.schema(
                [("source", pa.string()),
                 ("distinct_words_est", pa.int64())]
            ).empty_table()
        )
    merged = _hagg_auto(parts, ["source", "reg"], [("rank", "max", "rank")])

    def contrib(batch: pa.Table) -> pa.Table:
        r = np.asarray(batch.column("rank"), dtype=np.float64)
        return pa.table(
            {
                "source": batch.column("source"),
                "sp": pa.array(np.power(2.0, -r)),
            }
        )

    agg = _hagg_auto(
        merged.map_batches(contrib, batch_format="pyarrow"),
        "source",
        [("sp", "sum", "sp"), ("sp", "count", "nb")],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        # each 2^-r term is an exact power of two, but a float64 sum of
        # them is exact, and so free of the partition order, only while
        # the span of the term exponents plus log2(m) fits in the 53-bit
        # significand; past that, rounding can move the estimate (the
        # SQL twin's sp + (m - nb) decomposition, term for term)
        sp = np.asarray(batch.column("sp"), dtype=np.float64)
        nb = np.asarray(batch.column("nb"), dtype=np.int64)
        zeros = m - nb
        est = alpha * m * m / (sp + zeros)
        small = (est <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            est = np.where(small, m * np.log(m / np.maximum(zeros, 1)), est)
        out = np.array([int(round(float(e))) for e in est], dtype=np.int64)
        return pa.table(
            {
                "source": batch.column("source"),
                "distinct_words_est": pa.array(out),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow").sort("source")


def source_distinct_words_exact(sf_dir: str) -> Dataset:
    """Exact per-source distinct-word counts (the SQL-checkable
    baseline for the HLL variant): per-batch distinct (source, word)
    pairs, one dedup groupby, one count groupby."""
    from ray.data.aggregate import Count

    ds = _read_tbl(sf_dir, "documents", ["source", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        seen: set[tuple[str, str]] = set()
        for src, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            for w in _WS_RE.split((t or "").lower()):
                if w:
                    seen.add((src, w))
            # (empty docs contribute nothing)
        srcs = [s for s, _ in seen]
        ws = [w for _, w in seen]
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "word": pa.array(ws, pa.string()),
            }
        )

    return (
        _hagg_auto(
            _hagg_auto(
                ds.map_batches(pairs, batch_format="pyarrow"),
                ["source", "word"],
                [],
            ),
            "source",
            [("", "count_all", "distinct_words")],
        )
        .sort("source")
    )


# -------------------------------------------------------- count-min

def _cms_rows(words: list[str], counts: np.ndarray, width: int, depth: int) -> np.ndarray:
    """depth x width count-min table for (word, count) pairs: row d uses
    the d-th 16-bit slice of each word's md5 (independent-enough hash
    family, deterministic across workers)."""
    table = np.zeros((depth, width), dtype=np.int64)
    if not words:
        return table
    digs = np.array(
        [
            struct.unpack("<QQ", hashlib.md5(w.encode()).digest())
            for w in words
        ],
        dtype=np.uint64,
    )
    for d in range(depth):
        half = digs[:, d % 2]
        sl = (half >> np.uint64(16 * (d // 2))).astype(np.uint64)
        idx = (sl % np.uint64(width)).astype(np.int64)
        np.add.at(table[d], idx, counts)
    return table


def _cms_query(table: np.ndarray, words: list[str], width: int, depth: int) -> np.ndarray:
    if not words:
        return np.empty(0, dtype=np.int64)
    digs = np.array(
        [
            struct.unpack("<QQ", hashlib.md5(w.encode()).digest())
            for w in words
        ],
        dtype=np.uint64,
    )
    est = np.full(len(words), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(depth):
        half = digs[:, d % 2]
        sl = (half >> np.uint64(16 * (d // 2))).astype(np.uint64)
        idx = (sl % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, table[d][idx])
    return est


def word_heavy_hitters_cms(
    sf_dir: str,
    k: int = 20,
    width: int = 16384,
    depth: int = 4,
    candidates_per_batch: int = 64,
) -> Dataset:
    """Count-min-sketch heavy hitters (Cormode & Muthukrishnan 2005)
    over corpus word occurrences — the fixed-memory alternative to the
    exact ``word_topk`` when the vocabulary itself doesn't fit a
    reduce.  One streaming pass; the shuffle carries per-batch sketch
    rows (depth x width int64, constant size) plus a bounded candidate
    stream — never the vocabulary:

    1. per batch: local occurrence counts fold into a count-min table;
       the batch's top ``candidates_per_batch`` words are emitted as
       candidate rows (a true global heavy hitter is a local heavy
       hitter in at least one batch at this skew — the standard
       candidate heuristic, error-bound-tested against the exact
       top-k);
    2. sketch rows merge by elementwise SUM (count-min is linear), the
       candidate union dedups through one small groupby;
    3. the merged table scores the candidates (min over rows); top-k
       by (estimate desc, word asc).

    Output: (word, n_est) — n_est >= the true count (one-sided CMS
    error <= 2N/width per row with prob 1 - 2^-depth)."""
    ds = _read_tbl(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            if t and t.strip():
                c.update(w for w in _WS_RE.split(t.strip().lower()) if w)
        words = sorted(c)
        counts = np.array([c[w] for w in words], dtype=np.int64)
        table = _cms_rows(words, counts, width, depth)
        top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[
            :candidates_per_batch
        ]
        return pa.table(
            {
                "kind": pa.array(
                    ["sketch"] + ["cand"] * len(top), pa.string()
                ),
                "word": pa.array([""] + [w for w, _ in top], pa.string()),
                "payload": pa.array(
                    [table.tobytes()] + [b""] * len(top), pa.binary()
                ),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").materialize()

    # halving-tree merge (CMS is linear, so partial sums are
    # associative): each pass folds up to 64 per-block sketches into
    # one, so no task ever holds more than 64 depth x width payloads —
    # the previous single-group map_groups pulled ALL O(#blocks)
    # sketches into ONE reducer, GBs in one task at 10^5 blocks
    def fold_sketches(batch: pa.Table) -> pa.Table:
        merged = np.zeros((depth, width), dtype=np.int64)
        for blob in batch.column("payload").to_pylist():
            merged += np.frombuffer(blob, dtype=np.int64).reshape(depth, width)
        return pa.table({"payload": pa.array([merged.tobytes()], pa.binary())})

    sk = rows.filter(expr="kind == 'sketch'").select_columns(["payload"]).materialize()
    n_sk = sk.count()
    while n_sk > 1:
        sk = sk.map_batches(
            fold_sketches, batch_format="pyarrow", batch_size=64
        ).materialize()
        n_now = sk.count()
        if n_now >= n_sk:  # coalescing stalled: finish in one fold
            sk = sk.repartition(1).map_batches(
                fold_sketches, batch_format="pyarrow", batch_size=None
            ).materialize()
            n_now = sk.count()
        n_sk = n_now
    table = np.frombuffer(
        sk.take_all()[0]["payload"], dtype=np.int64
    ).reshape(depth, width)

    cand_words = sorted(
        {
            w
            for b in rows.filter(expr="kind == 'cand'")
            .select_columns(["word"])
            .iter_batches(batch_format="pyarrow", batch_size=None)
            for w in b.column("word").to_pylist()
        }
    )
    est = _cms_query(table, cand_words, width, depth)
    order = sorted(range(len(cand_words)), key=lambda i: (-est[i], cand_words[i]))[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                "word": pa.array([cand_words[i] for i in order], pa.string()),
                "n_est": pa.array([int(est[i]) for i in order], pa.int64()),
            }
        )
    )
