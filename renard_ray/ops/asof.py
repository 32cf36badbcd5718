"""Distributed AS-OF join (point-in-time enrichment).

Ray Data has no as-of join; this builds one on ``sorted_run_scan``
(``ops/runscan.py``) — a sort, a vectorized per-block forward-fill and
an O(#blocks) driver stitch:

1. the RIGHT side (enrichment events) is pre-aggregated to one row per
   (key, ts) carrying the max id — the deterministic tie rule;
2. both sides union into one table tagged ``side`` (0 = right,
   1 = left) and go through ONE global ``sort(key, ts, side)`` — at
   equal timestamps the right row sorts first, giving at-or-before
   (``<=``) semantics;
3. the scan forward-fills the right id within each key of a sorted
   block (pandas grouped ffill).  Rows of keys INTERIOR to the block
   finalize locally.  Only rows of the block's FIRST key that precede
   any in-block right row need a carry-in from earlier blocks — they
   are flagged ``pending`` and stay in the block's part (object store,
   not driver state: a hub key's pending rows stream through Ray);
4. the block summaries (first key, last key, last filled id) go to
   the driver, which scans them in block order into each block's
   carry-in; the finish pass emits every row, pending rows taking
   their block's carry-in.

Scale: the data moves through exactly one sort shuffle; driver state is
O(#blocks); skew (a hub key spanning many blocks) degrades to streaming
re-passes over that key's leading rows, never to driver materialization.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset

from .runscan import sorted_run_scan

_OUT_SCHEMA = pa.schema(
    [
        ("user_id", pa.int64()),
        ("event_id", pa.int64()),
        ("last_id", pa.float64()),
    ]
)


def _block_fill(t: pa.Table):
    """(part, summary) of one sorted block: the left rows with their
    in-block forward-filled right id and a pending flag, and the
    block's (first key, last key, last filled id of the last key)."""
    df = t.to_pandas()
    # df is sorted by (k, t, side); right rows carry rid, left rows NaN
    filled = df.groupby("k", sort=False)["rid"].ffill()
    left = df["side"] == 1
    first_k = int(df["k"].iloc[0])
    pending = left & (df["k"] == first_k) & filled.isna()
    part = pd.DataFrame(
        {
            "pending": pending[left].values,
            "user_id": df["k"][left].astype("int64"),
            "event_id": df["row_id"][left].astype("int64"),
            "last_id": filled[left],
        }
    )
    last_k = int(df["k"].iloc[-1])
    end_fill = filled[df["k"] == last_k]
    end_id = end_fill.iloc[-1] if len(end_fill) else float("nan")
    end_id = float(end_id) if pd.notna(end_id) else float("nan")
    return part, (first_k, last_k, end_id)


def _stitch_last_ids(summaries: list) -> list[float]:
    """Carry-in per block: the last right id of its first key over all
    earlier blocks (NaN when there is none)."""
    carries = []
    last_id_by_key: dict[int, float] = {}
    for first_k, last_k, end_id in summaries:
        carries.append(last_id_by_key.get(first_k, float("nan")))
        if pd.notna(end_id):
            last_id_by_key[last_k] = end_id
        elif last_k != first_k:
            last_id_by_key[last_k] = float("nan")
        # last_k == first_k with no in-block right row: carry passes through
    return carries


def _resolve(part, carry) -> pa.Table:
    """Pending rows take their block's carry-in; the rest pass."""
    if part is None:
        return _OUT_SCHEMA.empty_table()
    last = part["last_id"].where(~part["pending"], carry)
    return pa.table(
        {
            "user_id": pa.array(part["user_id"], pa.int64()),
            "event_id": pa.array(part["event_id"], pa.int64()),
            "last_id": pa.array(last.astype("float64"), pa.float64()),
        }
    )


def asof_join_events(
    left: Dataset,
    right: Dataset,
) -> Dataset:
    """Generic core: ``left`` (k, t, row_id) enriched with the max
    ``row_id`` of the ``right`` (k, t, row_id) row at-or-before each
    left row's t within the same k.  Output: (user_id, event_id,
    last_id nullable)."""
    def tag_right(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # batch-level combine only: the global max-per-(k, t) tie rule
        # falls out of sorting by row_id — the LAST right row of a tie
        # group is the max, and forward-fill takes the last.  This
        # saves a whole pre-aggregation shuffle
        if b.num_rows:
            b = (
                b.group_by(["k", "t"])
                .aggregate([("row_id", "max")])
                .select(["k", "t", "row_id_max"])
                .rename_columns(["k", "t", "row_id"])
            )
        return pa.table(
            {
                "k": b.column("k"),
                "t": b.column("t"),
                "side": pa.array([0] * b.num_rows, pa.int8()),
                "row_id": b.column("row_id"),
                "rid": pc.cast(b.column("row_id"), pa.float64()),
            }
        )

    def tag_left(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": b.column("k"),
                "t": b.column("t"),
                "side": pa.array([1] * b.num_rows, pa.int8()),
                "row_id": b.column("row_id"),
                "rid": pa.array([None] * b.num_rows, pa.float64()),
            }
        )

    return sorted_run_scan(
        right.map_batches(tag_right, batch_format="pyarrow").union(
            left.map_batches(tag_left, batch_format="pyarrow")
        ),
        ["k", "t", "side", "row_id"],
        _block_fill,
        _stitch_last_ids,
        _resolve,
    )


def events_last_purchase(sf_dir: str, right_type: str = "purchase") -> Dataset:
    """For every event: the same user's latest ``right_type`` event at
    or before its timestamp (max event_id on timestamp ties) — the
    point-in-time attribution join, exactly DuckDB-oracle-checkable.
    Output: (user_id, event_id, last_purchase_id nullable)."""
    from renard_ray.ops.relational import _read

    # materialize once: both the left (all events) and right (purchase
    # events) sides derive from this scan
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]).materialize()
    if ev.count() == 0:
        # the finalize map below never runs on an empty block
        return ray.data.from_arrow(
            pa.schema(
                [(c, pa.int64()) for c in ("user_id", "event_id", "last_purchase_id")]
            ).empty_table()
        )

    def as_left(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "k": b.column("user_id"),
                "t": pc.cast(b.column("ts"), pa.int64()),
                "row_id": b.column("event_id"),
            }
        )

    def as_right(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = b.filter(pc.equal(b.column("event_type"), pa.scalar(right_type)))
        return pa.table(
            {
                "k": t.column("user_id"),
                "t": pc.cast(t.column("ts"), pa.int64()),
                "row_id": t.column("event_id"),
            }
        )

    left = ev.map_batches(as_left, batch_format="pyarrow")
    right = ev.map_batches(as_right, batch_format="pyarrow")
    out = asof_join_events(left, right)

    def finalize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = b.column("last_id").combine_chunks()
        # NaN (no right row at-or-before) -> SQL NULL, then exact int
        col = pc.if_else(
            pc.is_null(col, nan_is_null=True), pa.scalar(None, pa.float64()), col
        )
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "event_id": b.column("event_id"),
                "last_purchase_id": pc.cast(col, pa.int64()),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")
