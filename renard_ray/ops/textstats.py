"""Text-analysis operators over the ``documents`` table.

Training-data-pipeline staples: token counting, quality scoring,
language ID (n-gram/stopword heuristic), document fingerprinting.
All vectorized-per-batch ``map_batches`` stages; the lang-ID profiles
are built once per worker process (module-level singleton).
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join
from renard_ray.ops.runscan import sorted_run_scan

_WS_RE = re.compile(r"\s+")
_WORD_RE = re.compile(r"[a-zA-Z']+|[0-9]+|[^\sa-zA-Z0-9']")

# tiny per-language stopword profiles (public knowledge, hand-written)
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the a of and to in is it that for on with as was at by".split()),
    "fr": frozenset("le la les de des un une et en du est que pour dans au".split()),
    "es": frozenset("el la los las de un una y en es que por para con del".split()),
    "de": frozenset("der die das ein eine und in ist von mit den dem zu für".split()),
    "zh": frozenset(),  # no-latin heuristic below
}


def _read_documents(sf_dir: str, columns: list[str] | None = None) -> Dataset:
    from renard_ray.ops.relational import read_table

    cols = columns or ["doc_id", "text", "lang", "source", "n_chars"]
    return read_table(f"{sf_dir}/documents.parquet", cols)


def token_stats(sf_dir: str) -> Dataset:
    """Per-document token counts: whitespace tokens + a word-level
    regex tokenization (BPE-ish pre-tokenizer granularity)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_ws = [len(_WS_RE.split(t.strip())) if t and t.strip() else 0 for t in texts]
        n_words = [len(_WORD_RE.findall(t)) if t else 0 for t in texts]
        n_chars = [len(t) if t else 0 for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_ws_tokens": pa.array(n_ws, pa.int64()),
                "n_word_tokens": pa.array(n_words, pa.int64()),
                "text_chars": pa.array(n_chars, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def corpus_token_summary(sf_dir: str) -> Dataset:
    """Corpus-level token totals per source (partial counts per batch,
    tiny final groupby — the pre-aggregation pattern)."""
    ds = _read_documents(sf_dir, ["text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        # combine inside the batch: one output row per source per batch
        counts: dict[str, list[int]] = {}
        for src, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            c = counts.setdefault(src, [0, 0])
            c[0] += len(_WS_RE.split(t.strip())) if t and t.strip() else 0
            c[1] += 1
        srcs = sorted(counts)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "tok": pa.array([counts[s][0] for s in srcs], pa.int64()),
                "docs": pa.array([counts[s][1] for s in srcs], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        _hagg_auto(ds.map_batches(partial, batch_format="pyarrow"), "source", [('tok', 'sum', 'n_tokens'), ('docs', 'sum', 'n_docs')])
    )


_PUNCT_RE = re.compile(r"[^a-zA-Z0-9\s]")
_UPPER_RE = re.compile(r"[A-Z]")
_NONWS_RE = re.compile(r"\S")


def _ppm(num: int, den: int) -> int:
    # half-away-from-zero on the same single division the SQL oracle
    # performs (python round() is half-to-even and would diverge)
    import math

    return int(math.floor(1e6 * num / den + 0.5)) if den else 0


def _quality_batch(batch: pa.Table, passthrough: tuple[str, ...] = ()) -> pa.Table:
    """Per-batch quality-signal kernel (shared by ``quality_scores``
    and ``training_filter``); ``passthrough`` columns ride along."""
    en_stop = _LANG_PROFILES["en"]
    out = {
        "doc_id": batch.column("doc_id"),
        "n_chars": [],
        "n_words": [],
        "punct_ppm": [],
        "stopword_ppm": [],
        "upper_ppm": [],
        "mean_word_len_ppm": [],
    }
    for t in batch.column("text").to_pylist():
        t = t or ""
        n = len(t)
        words = [w for w in _WS_RE.split(t.strip()) if w] if t.strip() else []
        n_punct = len(_PUNCT_RE.findall(t))
        n_upper = len(_UPPER_RE.findall(t))
        n_nonws = len(_NONWS_RE.findall(t))
        n_stop = sum(1 for w in words if w.lower() in en_stop)
        out["n_chars"].append(n)
        out["n_words"].append(len(words))
        out["punct_ppm"].append(_ppm(n_punct, n))
        out["stopword_ppm"].append(_ppm(n_stop, len(words)))
        out["upper_ppm"].append(_ppm(n_upper, n))
        out["mean_word_len_ppm"].append(_ppm(n_nonws, len(words)))
    cols = {
        "doc_id": out["doc_id"],
        "n_chars": pa.array(out["n_chars"], pa.int64()),
        "n_words": pa.array(out["n_words"], pa.int64()),
        "punct_ppm": pa.array(out["punct_ppm"], pa.int64()),
        "stopword_ppm": pa.array(out["stopword_ppm"], pa.int64()),
        "upper_ppm": pa.array(out["upper_ppm"], pa.int64()),
        "mean_word_len_ppm": pa.array(out["mean_word_len_ppm"], pa.int64()),
    }
    for c in passthrough:
        cols[c] = batch.column(c)
    return pa.table(cols)


def quality_scores(sf_dir: str) -> Dataset:
    """Heuristic quality signals per document.

    Ratios are emitted as exact integer parts-per-million computed from
    integer counts with a single round(1e6 * num / den) — deterministic
    and oracle-checkable (ASCII character classes, mirrored in the SQL
    oracle).
    """
    ds = _read_documents(sf_dir, ["doc_id", "text"])
    return ds.map_batches(_quality_batch, batch_format="pyarrow")


def training_filter(sf_dir: str) -> Dataset:
    """C4-style composed training-data filter: keep/drop verdict per
    document with the FIRST failing rule as the reason.  Rule cascade
    (fixed order, all thresholds on the exact integer ppm signals):

    1. n_words < 50            -> 'too_short'
    2. n_words > 20000         -> 'too_long'
    3. punct_ppm > 300000      -> 'high_punct'
    4. upper_ppm > 300000      -> 'high_upper'
    5. lang = 'en' and stopword_ppm < 10000 -> 'low_stopword'
    else keep, reason 'ok'.

    One streaming pass (the quality kernel with ``lang`` passed
    through); exact SQL oracle over the same CTE as
    ``doc_quality_scores``."""
    ds = _read_documents(sf_dir, ["doc_id", "text", "lang"])
    sig = ds.map_batches(
        lambda b: _quality_batch(b, passthrough=("lang",)),
        batch_format="pyarrow",
    )

    def verdict(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_words")
        reason = pa.array(["ok"] * batch.num_rows, pa.string())
        rules = [
            (pc.less(nw, 50), "too_short"),
            (pc.greater(nw, 20000), "too_long"),
            (pc.greater(batch.column("punct_ppm"), 300_000), "high_punct"),
            (pc.greater(batch.column("upper_ppm"), 300_000), "high_upper"),
            (
                # fill_null: a NULL lang must fall through to 'ok' like
                # the SQL CASE (non-Kleene and_ would poison if_else)
                pc.and_(
                    pc.equal(
                        pc.fill_null(batch.column("lang"), ""), "en"
                    ),
                    pc.less(batch.column("stopword_ppm"), 10_000),
                ),
                "low_stopword",
            ),
        ]
        # apply in REVERSE so the first rule in the cascade wins
        for mask, tag in reversed(rules):
            reason = pc.if_else(mask, pa.scalar(tag, pa.string()), reason)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "n_words": nw,
                "keep": pc.equal(reason, "ok"),
                "reason": reason,
            }
        )

    return sig.map_batches(verdict, batch_format="pyarrow")


def detect_language(text: str) -> str:
    """Stopword-profile language ID (deterministic heuristic)."""
    if not text:
        return "und"
    # CJK check first
    n_cjk = sum(1 for ch in text[:2000] if "一" <= ch <= "鿿")
    if n_cjk > len(text[:2000]) * 0.05:
        return "zh"
    words = _WS_RE.split(text.lower())
    scores = {
        lang: sum(1 for w in words if w in prof)
        for lang, prof in _LANG_PROFILES.items()
        if prof
    }
    best = max(scores, key=lambda k: (scores[k], k))
    return best if scores[best] > 0 else "und"


def language_id(sf_dir: str) -> Dataset:
    """Predicted language per document + agreement with the labeled
    ``lang`` column."""
    ds = _read_documents(sf_dir, ["doc_id", "text", "lang"])

    def f(batch: pa.Table) -> pa.Table:
        preds = [detect_language(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "pred_lang": pa.array(preds, pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def fingerprints(sf_dir: str) -> Dataset:
    """Document fingerprints: 63-bit md5 of the normalized text + an
    xor-folded sketch of every 8-word shingle — both md5-le-8 based
    (== DuckDB ``md5_number_upper``; the previous crc32 had no SQL
    twin), masked to int64-positive so the oracle's BIGINT bit_xor
    matches bit-for-bit.  Duplicate shingles cancel pairwise under
    xor on BOTH sides (multiset semantics)."""
    import hashlib
    import struct

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    _M63 = 0x7FFFFFFFFFFFFFFF

    def _h64(b: bytes) -> int:
        return struct.unpack("<Q", hashlib.md5(b).digest()[:8])[0]

    def f(batch: pa.Table) -> pa.Table:
        fps, rolls = [], []
        for t in batch.column("text").to_pylist():
            norm = " ".join(_WS_RE.split((t or "").strip().lower()))
            fps.append(_h64(norm.encode()) & _M63)
            # xor-folded hash over 8-grams of words
            words = norm.split()
            h = 0
            for i in range(max(0, len(words) - 7)):
                g = " ".join(words[i : i + 8])
                h ^= _h64(g.encode()) & _M63
            rolls.append(h)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text_fp": pa.array(fps, pa.int64()),
                "rolling_fp": pa.array(rolls, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def word_topk(sf_dir: str, k: int = 30) -> Dataset:
    """Corpus-wide top-k words by frequency: per-batch partial counts
    (the combiner), then a small global groupby — the canonical
    vocabulary-aggregation shape."""
    ds = _read_documents(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            if t and t.strip():
                c.update(_WS_RE.split(t.strip()))
        words = sorted(c)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n": pa.array([c[w] for w in words], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        _hagg_auto(ds.map_batches(partial, batch_format="pyarrow", batch_size=None), "word", [('n', 'sum', 'n_occurrences')])
    )
    return agg.sort(["n_occurrences", "word"], descending=[True, False]).limit(k)


_NUM_RE = re.compile(r"[0-9]+")
_EMAIL_RE = re.compile(r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}")
_URL_RE = re.compile(r"https?://[^\s]+")


def redact(text: str) -> str:
    """Training-data scrubbing: emails -> <EMAIL>, urls -> <URL>,
    digit runs -> <NUM> (applied in that order)."""
    t = _EMAIL_RE.sub("<EMAIL>", text or "")
    t = _URL_RE.sub("<URL>", t)
    return _NUM_RE.sub("<NUM>", t)


def redact_documents(sf_dir: str) -> Dataset:
    """Redacted copy of the documents table (emails/urls/numbers
    replaced by placeholder tokens) — compiled patterns, one column
    sweep per batch."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        out = [redact(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "redacted_text": pa.array(out, pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def repetition_stats(sf_dir: str) -> Dataset:
    """Gopher/MassiveText-style within-document repetition signals:
    fraction of duplicate lines and duplicate word trigrams (exact
    integer ppm, same rounding recipe as ``quality_scores``).

    One streaming pass; no shuffle.  Output: (doc_id, n_lines,
    dup_line_ppm, n_trigrams, dup_trigram_ppm)."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {
            "n_lines": [], "dup_line_ppm": [],
            "n_trigrams": [], "dup_trigram_ppm": [],
        }
        for t in batch.column("text").to_pylist():
            t = t or ""
            lines = [x.strip() for x in t.split("\n")]
            lines = [x for x in lines if x]
            nl = len(lines)
            dup_l = nl - len(set(lines))
            words = [w for w in _WS_RE.split(t.strip().lower()) if w] if t.strip() else []
            tris = [
                " ".join(words[i : i + 3]) for i in range(len(words) - 2)
            ]
            nt = len(tris)
            dup_t = nt - len(set(tris))
            out["n_lines"].append(nl)
            out["dup_line_ppm"].append(_ppm(dup_l, nl))
            out["n_trigrams"].append(nt)
            out["dup_trigram_ppm"].append(_ppm(dup_t, nt))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_lines": pa.array(out["n_lines"], pa.int64()),
                "dup_line_ppm": pa.array(out["dup_line_ppm"], pa.int64()),
                "n_trigrams": pa.array(out["n_trigrams"], pa.int64()),
                "dup_trigram_ppm": pa.array(out["dup_trigram_ppm"], pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _is_train(doc_id: int, threshold_hex: str = "f3", salt: str = "") -> bool:
    """THE reproducible split predicate — md5-priority hex compare,
    shared by ``train_val_split``, ``decontaminate`` and their SQL
    oracles; change it here and nowhere else."""
    import hashlib

    return hashlib.md5((salt + str(doc_id)).encode()).hexdigest() < threshold_hex


def train_val_split(
    sf_dir: str, threshold_hex: str = "f3", salt: str = ""
) -> Dataset:
    """Deterministic hash-based train/val split: a document lands in
    'val' iff ``md5(salt + doc_id)`` (hex string) >= ``threshold_hex``
    as a string prefix compare — the md5-priority recipe
    ``stratified_sample`` already uses, so the assignment is
    reproducible under retries, re-partitioning and re-runs, and
    exactly mirrored in SQL ('f3' ~ 94.9% train).  One streaming pass,
    no shuffle."""
    ds = _read_documents(sf_dir, ["doc_id"])

    def f(batch: pa.Table) -> pa.Table:
        splits = [
            "train" if _is_train(d, threshold_hex, salt) else "val"
            for d in batch.column("doc_id").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "split": pa.array(splits, pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def cross_doc_dup_ngrams(
    sf_dir: str, n: int = 3, broadcast_limit: int | None = None
) -> Dataset:
    """Cross-document duplicate n-gram stats — the exact-substring-
    dedup signal (Lee et al. 2022, "Deduplicating Training Data Makes
    Language Models Better", at n-gram granularity): for each document,
    how many of its DISTINCT word n-grams also occur in at least one
    OTHER document.

    Scale shape (no driver materialization of anything corpus-sized):

    1. one tokenize pass emits per-doc DISTINCT ``(doc_id, ngram)``
       pairs — the within-doc dedup happens batch-locally, so repeated
       boilerplate inside a page rides the shuffle at most once per
       doc; docs with < ``n`` words short-circuit here and never touch
       a shuffle;
    2. the only all-to-all exchange is the document-frequency reduce
       keyed on the ngram string (the canonical exact-substring-dedup
       shuffle), with Ray's hash aggregate combining per-batch;
    3. ngrams seen in >= 2 docs — a much smaller set than the pair
       table — flow back size-adaptively: broadcast ``index_in`` mark
       under the row budget, left hash join past it;
    4. one ``groupby(doc_id)`` finalizes the counts.

    Output: (doc_id, n_ngrams, n_dup, dup_ppm) — all integers, exact
    (ppm via the shared half-away rounding)."""
    from ray.data.aggregate import Count, Sum

    from renard_ray.ops.relational import _BCAST_ROW_LIMIT, _collect_small

    limit = _BCAST_ROW_LIMIT if broadcast_limit is None else broadcast_limit
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    pair_schema = pa.schema([("doc_id", pa.int64()), ("ngram", pa.string())])
    short_schema = pa.schema([("doc_id", pa.int64())])

    def to_pairs(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        grams: list[str] = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            t = t or ""
            words = (
                [w for w in _WS_RE.split(t.strip().lower()) if w]
                if t.strip()
                else []
            )
            if len(words) < n:
                continue
            seen = {
                " ".join(words[i : i + n]) for i in range(len(words) - n + 1)
            }
            ids.extend([d] * len(seen))
            grams.extend(seen)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "ngram": pa.array(grams, pa.string())},
            schema=pair_schema,
        )

    def short_docs(batch: pa.Table) -> pa.Table:
        keep: list[int] = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            t = t or ""
            words = (
                [w for w in _WS_RE.split(t.strip().lower()) if w]
                if t.strip()
                else []
            )
            if len(words) < n:
                keep.append(d)
        return pa.table({"doc_id": pa.array(keep, pa.int64())}, schema=short_schema)

    pairs = ds.map_batches(to_pairs, batch_format="pyarrow").materialize()

    # document-frequency reduce on the ngram key; only the >=2-doc
    # subset leaves this stage
    dup_grams = (
        _hagg_auto(pairs, "ngram", [('', 'count_all', 'ndocs')])
        .filter(expr="ndocs >= 2")
        .select_columns(["ngram"])
    )

    dup_tab = _collect_small(dup_grams, limit)
    if dup_tab is not None:
        dup_ref = ray.put(pc.drop_null(dup_tab.column("ngram")).combine_chunks())

        def mark(batch: pa.Table) -> pa.Table:
            vs = ray.get(dup_ref)
            hit = pc.is_valid(pc.index_in(batch.column("ngram"), value_set=vs))
            return pa.table(
                {
                    "doc_id": batch.column("doc_id"),
                    "is_dup": pc.cast(hit, pa.int64()),
                }
            )

        marked = pairs.map_batches(mark, batch_format="pyarrow")
    else:
        flagged = dup_grams.map_batches(
            lambda b: pa.table(
                {
                    "ngram": b.column("ngram"),
                    "__dup": pa.array([1] * b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        flagged = flagged.materialize()
        if flagged.count() == 0:  # no cross-doc duplicate ngram at all
            marked = pairs.map_batches(
                lambda b: pa.table(
                    {
                        "doc_id": b.column("doc_id"),
                        "is_dup": pa.array([0] * b.num_rows, pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
        else:
            joined = hash_join(pairs, flagged, "ngram", how="left outer")
            marked = joined.map_batches(
                lambda b: pa.table(
                    {
                        "doc_id": b.column("doc_id"),
                        "is_dup": pc.fill_null(
                            pc.cast(b.column("__dup"), pa.int64()), 0
                        ),
                    }
                ),
                batch_format="pyarrow",
            )

    stats = (
        _hagg_auto(marked, "doc_id", [('', 'count_all', 'n_ngrams'), ('is_dup', 'sum', 'n_dup')])
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "n_ngrams": pc.cast(b.column("n_ngrams"), pa.int64()),
                    "n_dup": pc.fill_null(pc.cast(b.column("n_dup"), pa.int64()), 0),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        num = batch.column("n_dup").to_numpy(zero_copy_only=False).astype("int64")
        den = batch.column("n_ngrams").to_numpy(zero_copy_only=False).astype("int64")
        import numpy as np

        with np.errstate(divide="ignore", invalid="ignore"):
            ppm = np.where(
                den > 0, np.floor(1e6 * num / den + 0.5).astype("int64"), 0
            )
        return batch.append_column("dup_ppm", pa.array(ppm, pa.int64()))

    zeros = ds.map_batches(short_docs, batch_format="pyarrow").map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_ngrams": pa.array([0] * b.num_rows, pa.int64()),
                "n_dup": pa.array([0] * b.num_rows, pa.int64()),
                "dup_ppm": pa.array([0] * b.num_rows, pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return stats.map_batches(finalize, batch_format="pyarrow").union(zeros)


def decontaminate(
    sf_dir: str,
    n: int = 5,
    threshold_hex: str = "f3",
    salt: str = "",
    broadcast_limit: int | None = None,
) -> Dataset:
    """Benchmark decontamination (the GPT-3/PaLM training-data step):
    flag TRAIN documents that share any word ``n``-gram with a held-out
    benchmark set — here the 'val' side of the reproducible
    ``train_val_split`` recipe, so the composition "split, then scrub
    train against val" is exercised end-to-end and stays
    SQL-oracle-checkable.

    Scale shape: ONE tokenize pass emits per-doc DISTINCT n-gram rows
    tagged with the hash-derived split (plus zero-gram train docs as
    summary rows); the benchmark gram set is a ``groupby(ngram)``
    distinct over the val rows only (the benchmark side is a small
    fraction of the corpus by construction); train grams are marked
    size-adaptively (broadcast ``index_in`` under the row budget, LEFT
    hash join past it — the cross_doc_dup_ngrams plan); one
    ``groupby(doc_id)`` finalizes.  Gram text rides the df exchange
    once per (doc, gram); nothing corpus-sized lands on the driver.

    Output: (doc_id, n_grams, n_hits, contaminated) for every TRAIN
    document — contaminated = 1 iff any of its distinct n-grams occurs
    in any val document."""
    from ray.data.aggregate import Count, Sum

    from renard_ray.ops.relational import _BCAST_ROW_LIMIT, _collect_small

    limit = _BCAST_ROW_LIMIT if broadcast_limit is None else broadcast_limit
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    schema = pa.schema(
        [("kind", pa.string()), ("doc_id", pa.int64()), ("ngram", pa.string())]
    )

    def emit(batch: pa.Table) -> pa.Table:
        kinds: list[str] = []
        ids: list[int] = []
        grams: list[str] = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            is_train = _is_train(d, threshold_hex, salt)
            t = t or ""
            words = (
                [w for w in _WS_RE.split(t.strip().lower()) if w]
                if t.strip()
                else []
            )
            if len(words) < n:
                if is_train:  # zero-gram train doc: summary row
                    kinds.append("z")
                    ids.append(d)
                    grams.append("")
                continue
            seen = {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}
            tag = "t" if is_train else "v"
            kinds.extend([tag] * len(seen))
            ids.extend([d] * len(seen))
            grams.extend(seen)
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "ngram": pa.array(grams, pa.string()),
            },
            schema=schema,
        )

    tagged = ds.map_batches(emit, batch_format="pyarrow").materialize()
    train_pairs = tagged.filter(expr="kind == 't'").select_columns(
        ["doc_id", "ngram"]
    )
    zero_rows = tagged.filter(expr="kind == 'z'").map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_grams": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "n_hits": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "contaminated": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    bench_grams = (
        _hagg_auto(tagged.filter(expr="kind == 'v'")
        .select_columns(["ngram"]), "ngram", [('', 'count_all', 'count()')])
        .select_columns(["ngram"])
    )

    train_pairs = train_pairs.materialize()
    if train_pairs.count() == 0:
        return zero_rows

    def zero_hit_marks() -> Dataset:
        return train_pairs.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "hit": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )

    bench_tab = _collect_small(bench_grams, limit)
    if bench_tab is not None and (
        "ngram" not in bench_tab.column_names or bench_tab.num_rows == 0
    ):
        # an all-short (or absent) val split leaves only schema-less
        # empty blocks in the aggregate: empty benchmark, zero hits
        marked = zero_hit_marks()
    elif bench_tab is not None:
        bench_ref = ray.put(
            pc.drop_null(bench_tab.column("ngram")).combine_chunks()
        )

        def mark(batch: pa.Table) -> pa.Table:
            vs = ray.get(bench_ref)
            hit = pc.is_valid(pc.index_in(batch.column("ngram"), value_set=vs))
            return pa.table(
                {
                    "doc_id": batch.column("doc_id"),
                    "hit": pc.cast(hit, pa.int64()),
                }
            )

        marked = train_pairs.map_batches(mark, batch_format="pyarrow")
    else:
        flagged = bench_grams.map_batches(
            lambda b: pa.table(
                {
                    "ngram": b.column("ngram"),
                    "__hit": pa.array([1] * b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        flagged = flagged.materialize()
        if flagged.count() == 0:  # empty benchmark side: nothing to scrub
            marked = zero_hit_marks()
        else:
            joined = hash_join(train_pairs, flagged, "ngram", how="left outer")
            marked = joined.map_batches(
                lambda b: pa.table(
                    {
                        "doc_id": b.column("doc_id"),
                        "hit": pc.fill_null(
                            pc.cast(b.column("__hit"), pa.int64()), 0
                        ),
                    }
                ),
                batch_format="pyarrow",
            )

    per_doc = (
        _hagg_auto(marked, "doc_id", [('', 'count_all', 'n_grams'), ('hit', 'sum', 'n_hits')])
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "n_grams": pc.cast(b.column("n_grams"), pa.int64()),
                    "n_hits": pc.cast(
                        pc.fill_null(b.column("n_hits"), 0), pa.int64()
                    ),
                    "contaminated": pc.cast(
                        pc.greater(
                            pc.fill_null(b.column("n_hits"), 0),
                            pa.scalar(0, pa.int64()),
                        ),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return per_doc.union(zero_rows)


def domain_cap(sf_dir: str, cap: int = 10) -> Dataset:
    """RefinedWeb-style per-domain document cap (Penedo et al. 2023
    §3.1 keep-at-most-N-per-domain): every ``source`` keeps its ``cap``
    best documents under the deterministic md5(doc_id) priority — the
    standard anti-boilerplate / anti-SEO-farm downsampler, reproducible
    under retries and partitioning (same md5-priority recipe as the
    train/val split and the reservoir samples).

    Plan (``sorted_run_scan`` row number — no per-group map_groups at
    any domain count): ONE pass derives the packed sort key
    ``source\\x1f md5(doc_id)\\x1f doc_id``; ONE global sort on it;
    each block assigns vectorized per-source row numbers; only the
    single straddling source run per block needs the O(#blocks)
    driver carry offset.  Output (source, doc_id, rk) with 1-based
    ``rk <= cap``, value-hash-exact against the ROW_NUMBER SQL oracle
    (DuckDB's md5 of the decimal doc_id string matches hashlib's).
    """
    import hashlib

    ds = _read_documents(sf_dir, ["doc_id", "source"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        sk = [
            f"{s}\x1f{hashlib.md5(str(i).encode()).hexdigest()}\x1f{i:020d}"
            for s, i in zip(srcs, ids)
        ]
        return pa.table(
            {
                "sk": pa.array(sk, pa.string()),
                "source": batch.column("source"),
                "doc_id": batch.column("doc_id"),
            }
        )

    def scan(batch: pa.Table):
        n = batch.num_rows
        src = np.asarray(batch.column("source"), dtype=object)
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = src[1:] != src[:-1]
        gs = np.maximum.accumulate(
            np.where(new_grp, np.arange(n, dtype=np.int64), -1)
        )
        local = np.arange(n, dtype=np.int64) - gs
        first_run = src == src[0]
        # (first source, first-run rows, last source, last-run rows)
        summary = (str(src[0]), int(first_run.sum()), str(src[-1]), int(n - gs[-1]))
        return (batch, local, first_run), summary

    def stitch(summaries: list) -> list[int]:
        offs = []
        carry_src: str | None = None
        carry_n = 0
        for f_src, f_n, l_src, l_n in summaries:
            o = carry_n if f_src == carry_src else 0
            offs.append(o)
            if l_src == f_src:
                carry_src, carry_n = l_src, o + f_n
            else:
                carry_src, carry_n = l_src, l_n
        return offs

    def finish(part, off) -> pa.Table:
        if part is None:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "rk": pa.array([], pa.int64()),
                }
            )
        t, local, first_run = part
        if off:
            local = local + np.where(first_run, off, 0)
        keep = local < cap
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "source": t.column("source"),
                "doc_id": t.column("doc_id"),
                "rk": pa.array(local[keep] + 1),
            }
        )

    kept = sorted_run_scan(
        ds.map_batches(derive, batch_format="pyarrow"), "sk", scan, stitch, finish
    )
    # a sort of no rows would lose the columns
    return kept.sort(["source", "rk"]) if kept.count() else kept


def zipf_spectrum(sf_dir: str) -> Dataset:
    """Corpus frequency-of-frequencies (the Zipf/Good-Turing spectrum):
    for every occurrence count, how many distinct words have it.  The
    classic corpus-health readout — a boilerplate-heavy crawl shows a
    bulge at high counts, an OCR-noisy one a bloated hapax (n=1) bin.

    Shape: the word_topk combiner (per-batch Counter partials) -> one
    vocabulary groupby-sum -> a per-batch count-of-counts re-combine ->
    one TINY groupby over distinct occurrence counts (O(sqrt(corpus))
    rows by Heaps'/Zipf's law).  The second exchange carries count
    values, never words."""
    ds = _read_documents(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            if t and t.strip():
                c.update(_WS_RE.split(t.strip()))
        words = sorted(c)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n": pa.array([c[w] for w in words], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    counts = (
        _hagg_auto(ds.map_batches(partial, batch_format="pyarrow"), "word", [('n', 'sum', 'n_occurrences')])
    )

    def count_of_counts(batch: pa.Table) -> pa.Table:
        vals, ns = np.unique(
            batch.column("n_occurrences").to_numpy(), return_counts=True
        )
        return pa.table(
            {
                "n_occurrences": pa.array(vals, pa.int64()),
                "n_words": pa.array(ns, pa.int64()),
            }
        )

    spectrum = (
        _hagg_auto(counts.map_batches(count_of_counts, batch_format="pyarrow"), "n_occurrences", [('n_words', 'sum', 'n_words')])
    )
    if spectrum.count() == 0:  # empty corpus
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_occurrences": pa.array([], pa.int64()),
                    "n_words": pa.array([], pa.int64()),
                }
            )
        )
    return spectrum.sort("n_occurrences")


def compression_ratio(sf_dir: str, level: int = 6) -> Dataset:
    """Per-document zlib compression ratio in exact ppm — the
    Gopher/MassiveText-family redundancy signal: highly repetitive
    boilerplate compresses far below natural prose (low ratio), while
    random/encrypted junk refuses to compress (ratio near or above
    1e6).  Complements :func:`repetition_stats` (which counts explicit
    dup lines/trigrams) with a model-free whole-document measure.

    zlib output is deterministic for a fixed level/strategy, so the
    result is a pure function of the input.  Stateless one-pass
    map_batches; no shuffle."""
    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        raw_len, comp_len, ratio = [], [], []
        for t in batch.column("text").to_pylist():
            b = (t or "").encode("utf-8")
            c = zlib.compress(b, level)
            raw_len.append(len(b))
            comp_len.append(len(c))
            # half-away integer ppm; empty docs get the sentinel -1
            ratio.append(
                -1
                if not b
                else (2_000_000 * len(c) + len(b)) // (2 * len(b))
            )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "raw_bytes": pa.array(raw_len, pa.int64()),
                "compressed_bytes": pa.array(comp_len, pa.int64()),
                "compression_ppm": pa.array(ratio, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def source_quality_rollup(sf_dir: str) -> Dataset:
    """Per-source quality league table (the RefinedWeb per-domain
    triage view): document/word totals plus mean quality signals per
    source, all exact integers — sums of the per-doc integer ppm
    signals, means via the single-division half-away recipe the SQL
    oracle mirrors.

    One streaming pass of the shared quality kernel (source rides as a
    passthrough column) -> ONE small groupby(source); the league table
    is |sources| rows."""
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    ds = _read_documents(sf_dir, ["doc_id", "text", "source"])
    sig = ds.map_batches(
        lambda b: _quality_batch(b, passthrough=("source",)),
        batch_format="pyarrow",
    )
    agg = sig.groupby("source").aggregate(
        _Count(alias_name="n_docs"),
        _Sum("n_words", alias_name="n_words"),
        _Sum("stopword_ppm", alias_name="_sw"),
        _Sum("punct_ppm", alias_name="_pu"),
        _Sum("upper_ppm", alias_name="_up"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        from renard_ray.ops.relational import _ratio_round

        n = batch.column("n_docs")
        return pa.table(
            {
                "source": batch.column("source"),
                "n_docs": n,
                "n_words": batch.column("n_words"),
                "avg_stopword_ppm": _ratio_round(batch.column("_sw"), n),
                "avg_punct_ppm": _ratio_round(batch.column("_pu"), n),
                "avg_upper_ppm": _ratio_round(batch.column("_up"), n),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow").sort("source")


def heaps_law_curve(sf_dir: str, n_buckets: int = 10) -> "Dataset | pa.Table":
    """Heaps-law vocabulary-growth curve: cumulative distinct-word
    count after each of ``n_buckets`` equal doc_id ranges of the corpus
    — the sublinearity (V ~ N^beta, beta < 1) is the corpus-health
    readout: a LINEAR tail means unbounded novel tokens (OCR noise,
    serial numbers), a flat early curve means boilerplate.

    Shape notes (100 TB-safe): a word's bucket is the bucket of its
    FIRST occurrence, so the heavy exchange is ONE ``groupby(word).min
    (doc_id)`` over per-batch (word, min doc_id) combiner rows — the
    inverted-index shuffle, inherent to an exact first-occurrence
    answer; the bucket mapping is exact integer arithmetic
    ``first_doc * B // (max_doc + 1)`` (uneven only if doc_ids are
    sparse — documented), the per-bucket count-of-first-occurrences is
    a second exchange of O(vocabulary) rows, and the cumulative sum
    runs over <= ``n_buckets`` driver rows."""
    from ray.data.aggregate import Max, Min

    ds = _read_documents(sf_dir, ["doc_id", "text"])
    mx = (ds.aggregate(Max("doc_id")) or {}).get("max(doc_id)")
    out_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("new_words", pa.int64()),
            ("cum_vocab", pa.int64()),
        ]
    )
    if mx is None:
        return out_schema.empty_table()
    denom = int(mx) + 1

    def first_seen(batch: pa.Table) -> pa.Table:
        seen: dict = {}
        ids = batch.column("doc_id").to_pylist()
        for did, t in zip(ids, batch.column("text").to_pylist()):
            if not t or not t.strip():
                continue
            for w in _WS_RE.split(t.strip()):
                prev = seen.get(w)
                if prev is None or did < prev:
                    seen[w] = did
        words = sorted(seen)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "fd": pa.array([seen[w] for w in words], pa.int64()),
            }
        )

    firsts = (
        _hagg_auto(ds.map_batches(first_seen, batch_format="pyarrow"), "word", [('fd', 'min', 'fd')])
    )

    def to_bucket(batch: pa.Table) -> pa.Table:
        fd = batch.column("fd").to_numpy()
        return pa.table(
            {"bucket": pa.array(fd * n_buckets // denom, pa.int64())}
        )

    from ray.data.aggregate import Count

    per_bucket = _hagg_auto(firsts.map_batches(to_bucket, batch_format="pyarrow"), "bucket", [('', 'count_all', 'new_words')])
    # <= n_buckets rows by construction
    tab = None
    rows = per_bucket.take_all()
    if rows:
        rows.sort(key=lambda r: r["bucket"])
        cum = 0
        out = {"bucket": [], "new_words": [], "cum_vocab": []}
        for r in rows:
            cum += int(r["new_words"])
            out["bucket"].append(int(r["bucket"]))
            out["new_words"].append(int(r["new_words"]))
            out["cum_vocab"].append(cum)
        tab = pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})
    if tab is None:
        return out_schema.empty_table()
    return ray.data.from_arrow(tab)


def global_row_number(sf_dir: str) -> "Dataset | pa.Table":
    """Stable global row numbers (1-based) for the corpus ordered by
    (n_chars DESC, doc_id) — the distributed zipWithIndex primitive
    behind stable shard assignment, curriculum ordering (longest-first
    packing) and reproducible id minting.

    Shape (``sorted_run_scan``, ``ops/runscan.py``): ONE global sort;
    each block's summary is its row count; the driver scans the
    #blocks counts in block order to hand each block its global
    offset; the finish pass adds offset + local index — nothing
    corpus-sized ever reaches the driver."""
    ds = _read_documents(sf_dir, ["doc_id", "n_chars"])
    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_chars", pa.int64()),
            ("rn", pa.int64()),
        ]
    )
    if ds.count() == 0:
        return out_schema.empty_table()
    from renard_ray.ops.relational import _attach_global_rank

    # delegate to the generic rank primitive (relational.py):
    # value = n_chars DESC, id = doc_id — it returns the input columns
    # plus rn, which is exactly this op's output shape
    return _attach_global_rank(ds, "n_chars", "doc_id", descending=True)


def bigram_topk(sf_dir: str, k: int = 20) -> Dataset:
    """Corpus-wide top-k word bigrams (adjacent pairs WITHIN a
    document, whitespace tokens, case preserved like ``word_topk``)
    with the (count desc, bigram asc) tie-break — the collocation
    readout one step up from the unigram top-k.

    Shape: per-batch partial bigram counts (the combiner — the
    exchange carries distinct bigrams per batch, never token
    positions), one vocabulary-bounded groupby, top-k sort-limit."""
    ds = _read_documents(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            if t and t.strip():
                ws = _WS_RE.split(t.strip())
                c.update(a + " " + b for a, b in zip(ws, ws[1:]))
        grams = sorted(c)
        return pa.table(
            {
                "bigram": pa.array(grams, pa.string()),
                "n": pa.array([c[g] for g in grams], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        _hagg_auto(ds.map_batches(partial, batch_format="pyarrow", batch_size=None), "bigram", [('n', 'sum', 'n_occurrences')])
    )
    return agg.sort(["n_occurrences", "bigram"], descending=[True, False]).limit(k)


def vocab_overlap_by_lang(sf_dir: str) -> "Dataset | pa.Table":
    """Vocabulary overlap between languages: for every co-occurring
    language pair (a < b), how many distinct words appear in BOTH
    languages' documents, and the exact Jaccard of the two
    vocabularies in ppm — the contamination / code-switching readout
    a language-ID filter is sanity-checked against.

    Shape notes: ONE distinct (word, lang-bit) reduce (combiner-fed —
    vocabulary-bounded by Heaps' law), per-word language BITMASK via
    a plain groupby-Sum (distinct bits make Sum the OR), pair counts
    from per-batch vectorized bit tests over the |vocab|-bounded mask
    table; <= 62 languages asserted (int64 bit budget)."""
    from renard_ray.ops.relational import (
        Count,
        Sum,
        _collect_small,
        _scrub_schemaless,
    )

    out_schema = pa.schema(
        [
            ("lang_a", pa.string()),
            ("lang_b", pa.string()),
            ("n_shared", pa.int64()),
            ("jaccard_ppm", pa.int64()),
        ]
    )
    ds = _read_documents(sf_dir, ["lang", "text"])
    if ds.count() == 0:
        return out_schema.empty_table()
    lset = _collect_small(
        _hagg_auto(ds.map_batches(
            lambda b: pa.table({"lang": b.column("lang")})
            .group_by("lang")
            .aggregate([]),
            batch_format="pyarrow",
            batch_size=None,
        ), "lang", [('', 'count_all', 'count()')]),
        1_000_000,
    )
    if lset is None:
        raise ValueError("vocab_overlap: lang table over budget")
    langs_sorted = sorted(x for x in lset.column("lang").to_pylist())
    assert len(langs_sorted) <= 62, (
        "vocab_overlap: more than 62 languages — widen to multi-word "
        "bitmasks"
    )
    lid = {x: i for i, x in enumerate(langs_sorted)}
    lid_ref = ray.put(lid)

    _wb_schema = pa.schema([("word", pa.string()), ("bit", pa.int64())])

    def to_bits(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _wb_schema.empty_table()
        m = ray.get(lid_ref)
        words, bits = [], []
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            if not (t and t.strip()):
                continue
            bit = 1 << m[lang]
            for w in set(_WS_RE.split(t.strip())):
                words.append(w)
                bits.append(bit)
        t2 = pa.table(
            {"word": pa.array(words, pa.string()), "bit": pa.array(bits, pa.int64())}
        )
        return t2.group_by(["word", "bit"]).aggregate([])

    dist = _scrub_schemaless(
        _hagg_auto(ds.map_batches(to_bits, batch_format="pyarrow", batch_size=None), ["word", "bit"], [('', 'count_all', '_n')])
    )
    if dist is None:
        return out_schema.empty_table()
    masks = _hagg_auto(dist, "word", [('bit', 'sum', 'mask')])
    from renard_ray.ops.relational import _bitmask_pair_overlap

    out = _bitmask_pair_overlap(
        masks,
        langs_sorted,
        ctx="vocab_overlap",
        label_a="lang_a",
        label_b="lang_b",
        n_name="n_shared",
    )
    if out is None:
        return out_schema.empty_table()
    return out
