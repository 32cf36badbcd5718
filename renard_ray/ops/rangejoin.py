"""Distributed range (interval) join.

Ray Data has no range/interval join (``left.ts BETWEEN right.start AND
right.end``, optionally under an equi-key).  A naive theta-join is a
cross product; this module builds the standard scale-safe form out of
Ray Data primitives:

1. pick a bucket width ``W`` >= the longest right-side interval (one
   bounded aggregate over (start, end) only, no payload columns);
2. every LEFT row registers in exactly ONE time bucket (``ts // W``);
   every RIGHT interval registers in every bucket it overlaps — at
   most 2 by construction of ``W`` (``ceil(len/W)+1`` in general,
   vectorized numpy repeat inside ``map_batches``);
3. an EQUI-join on (key..., bucket) co-locates every possibly-matching
   pair — followed by one vectorized exact-predicate filter.  Because
   the left row owns a single bucket, each (left, right) pair meets
   exactly once: no dedup pass.

Size-adaptive planning (same policy as ``ops/relational.py``): when the
exploded right side fits a row budget it is ``ray.put`` once and every
left batch resolves matches with a per-batch *Arrow* hash join
(``pa.Table.join``) — no exchange.  Past the budget both sides go
through ``hash_join`` on (key, bucket): one all-to-all exchange,
the 100 TB design path.

Skew: a hot (key, bucket) cell — e.g. every interval of a hub key in
one hour — lands in one join partition; ``W`` bounds the fan-out per
right row but not the per-cell row count.  Callers with known hub keys
should pre-split them (``ops/skew.py``) before the join; documented
rather than auto-salted because salting the bucketed join would break
the meets-exactly-once invariant that lets us skip the dedup pass.

No counterpart in the reference (CompNet/Renard has no relational
layer); the operator exists because a web-scale KG constructor needs
time-window enrichment (crawl snapshot vs validity interval) and the
brief's custom-operator list names range joins explicitly.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Sum

from .relational import _cents, _collect_small, _read

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join

logger = logging.getLogger(__name__)

_BUCKET = "__rj_bucket"
_BUCKET_R = "__rj_bucket_r"
_BCAST_ROW_LIMIT = 2_000_000  # exploded right rows held in plasma


def _to_i64(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """int64 view of an int / timestamp column (us since epoch)."""
    return pc.cast(col, pa.int64())


def _explode_right(
    batch: pa.Table, *, start: str, end: str, width: int, bucket_col: str
) -> pa.Table:
    """One output row per (interval, overlapped bucket)."""
    tab = batch.filter(
        pc.and_(pc.is_valid(batch.column(start)), pc.is_valid(batch.column(end)))
    )
    if tab.num_rows == 0:
        return tab.append_column(bucket_col, pa.array([], pa.int64()))
    s = _to_i64(tab.column(start)).to_numpy(zero_copy_only=False)
    e = _to_i64(tab.column(end)).to_numpy(zero_copy_only=False)
    b0 = np.floor_divide(s, width)
    b1 = np.floor_divide(e, width)  # last bucket the interval touches
    reps = np.maximum(b1 - b0 + 1, 1).astype(np.int64)
    idx = np.repeat(np.arange(tab.num_rows, dtype=np.int64), reps)
    # bucket id = interval's first bucket + offset within its repeat run
    offs = np.arange(len(idx), dtype=np.int64) - np.repeat(
        np.cumsum(reps) - reps, reps
    )
    buckets = np.repeat(b0, reps) + offs
    out = tab.take(pa.array(idx))
    return out.append_column(bucket_col, pa.array(buckets, pa.int64()))


def _left_bucket(batch: pa.Table, *, ts_col: str, width: int) -> pa.Table:
    """Left rows own exactly one bucket; null-ts rows drop (SQL inner)."""
    tab = batch.filter(pc.is_valid(batch.column(ts_col)))
    ts = _to_i64(tab.column(ts_col)).to_numpy(zero_copy_only=False)
    b = np.floor_divide(ts, width)
    return tab.append_column(_BUCKET, pa.array(b, pa.int64()))


def _max_interval_width(right: Dataset, start: str, end: str) -> int:
    """Longest right interval (one aggregate over two columns only)."""

    def span(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"span": pc.subtract(_to_i64(batch.column(end)), _to_i64(batch.column(start)))}
        )

    row = (
        right.select_columns([start, end])
        .map_batches(span, batch_format="pyarrow")
        .aggregate(Max("span", alias_name="m"))
    )
    m = row.get("m") if isinstance(row, dict) else None
    if m is None or m <= 0:
        return 1
    return int(m)


def range_join(
    left: Dataset,
    right: Dataset,
    *,
    left_ts: str,
    right_start: str,
    right_end: str,
    on: str | None = None,
    right_on: str | None = None,
    closed: str = "left",
    bucket_width: int | None = None,
    broadcast_limit: int | None = None,
) -> Dataset:
    """INNER range join: keep (left, right) pairs with
    ``right_start <= left.ts < right_end`` (``closed='left'``) or
    ``... <= right_end`` (``closed='both'``), AND ``left[on] ==
    right[right_on]`` when an equi-key is given.

    Output schema = all left columns + all non-key right columns; the
    two sides must not share column names (rename before joining).
    Timestamp columns compare as int64 microseconds.
    """
    if closed not in ("left", "both"):
        raise ValueError(f"closed must be 'left' or 'both', got {closed!r}")
    right_on = right_on or on
    overlap = set(left.schema().names) & set(right.schema().names)
    if overlap:
        raise ValueError(
            f"range_join requires disjoint schemas; shared columns: {sorted(overlap)}"
        )
    width = int(bucket_width or _max_interval_width(right, right_start, right_end))
    limit = _BCAST_ROW_LIMIT if broadcast_limit is None else broadcast_limit
    cmp_end = pc.less if closed == "left" else pc.less_equal

    def exact_filter(batch: pa.Table) -> pa.Table:
        ts = _to_i64(batch.column(left_ts))
        ok = pc.and_(
            pc.greater_equal(ts, _to_i64(batch.column(right_start))),
            cmp_end(ts, _to_i64(batch.column(right_end))),
        )
        out = batch.filter(ok)
        drop = [c for c in out.column_names if c.startswith(_BUCKET)]
        return out.drop_columns(drop) if drop else out

    # ---- size-adaptive broadcast plan: Arrow hash join per left batch.
    # Explosion multiplies rows by <= 2 given width >= max span, so the
    # pre-explosion row budget bounds the exploded table too (re-checked
    # post-explosion for caller-supplied narrow widths).
    if limit > 0:
        base = _collect_small(right, limit)
        if base is not None:
            exploded = _explode_right(
                base, start=right_start, end=right_end, width=width,
                bucket_col=_BUCKET,
            )
            if exploded.num_rows <= 2 * limit:
                right_ref = ray.put(exploded.combine_chunks())
                jk = [_BUCKET] if on is None else [on, _BUCKET]
                rk = [_BUCKET] if right_on is None else [right_on, _BUCKET]

                def probe(batch: pa.Table) -> pa.Table:
                    rt = ray.get(right_ref)
                    tab = _left_bucket(batch, ts_col=left_ts, width=width)
                    joined = tab.join(
                        rt, keys=jk, right_keys=rk, join_type="inner"
                    )
                    return exact_filter(joined)

                return left.map_batches(probe, batch_format="pyarrow")
            logger.warning(
                "range_join: exploded right side (%d rows) exceeds the "
                "broadcast budget — taking the distributed plan",
                exploded.num_rows,
            )

    # ---- distributed plan: one exchange on (key, bucket).  The right
    # bucket column gets its own name so the joined schema never holds
    # two identically-named columns regardless of Ray's key handling.
    r_exp = right.map_batches(
        _explode_right,
        fn_kwargs={
            "start": right_start, "end": right_end, "width": width,
            "bucket_col": _BUCKET_R,
        },
        batch_format="pyarrow",
    )
    l_b = left.map_batches(
        _left_bucket, fn_kwargs={"ts_col": left_ts, "width": width},
        batch_format="pyarrow",
    )
    on_keys = (_BUCKET,) if on is None else (on, _BUCKET)
    ron_keys = (_BUCKET_R,) if right_on is None else (right_on, _BUCKET_R)
    joined = hash_join(l_b, r_exp, on_keys, ron_keys)
    return joined.map_batches(exact_filter, batch_format="pyarrow")


def events_promo_window_stats(
    sf_dir: str, window_minutes: int = 10, **rj_kwargs
) -> Dataset:
    """Per-purchase 'promo window' stats: every event of the same user
    within [purchase_ts, purchase_ts + window) joins to that purchase
    via :func:`range_join`; count + value cents aggregate per window.

    The purchase event itself falls inside its own window (ts >= start)
    — kept, matching the SQL oracle.
    """
    win_us = window_minutes * 60 * 1_000_000

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def as_left(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "value_c": _cents(batch.column("value")),
            }
        )

    left = ev.map_batches(as_left, batch_format="pyarrow")

    promo = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type"]
    ).filter(expr="event_type == 'purchase'")

    def as_windows(batch: pa.Table) -> pa.Table:
        start = pc.cast(batch.column("ts"), pa.int64())
        return pa.table(
            {
                "promo_id": batch.column("event_id"),
                "p_user_id": batch.column("user_id"),
                "win_start": start,
                "win_end": pc.add(start, pa.scalar(win_us, pa.int64())),
            }
        )

    windows = promo.map_batches(as_windows, batch_format="pyarrow")

    joined = range_join(
        left,
        windows,
        left_ts="ts",
        right_start="win_start",
        right_end="win_end",
        on="user_id",
        right_on="p_user_id",
        **rj_kwargs,
    )
    return _hagg_auto(joined, "promo_id", [('', 'count_all', 'n_events'), ('value_c', 'sum', 'total_value_cents')])
