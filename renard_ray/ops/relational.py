"""Relational query pipelines over the TPC-H-ish test tables.

Each function takes ``sf_dir`` and returns a Ray ``Dataset`` whose
column names match the paired oracle SQL in ``__ray_entry__.oracle_sql``
exactly (the driver hash-compares values after sorting columns by
name).

Scale design notes (these run on 100 TB inputs unchanged):
- reads go through ``read_table``: columns pruned at the scan, and a
  single one-row-group file read by one Ray task, not an execution;
- joins put the SMALL side on the right / broadcast it via ``ray.put``
  when it fits (nation/region), and use the house ``hash_join``
  (``ops/hashagg.py``, the same Ray-task exchange as the aggregates)
  for big-big joins;
- aggregates go through the house two-phase ``hash_aggregate``
  (``ops/hashagg.py``: Ray tasks over the input's blocks);
- money/quantity aggregates are computed in EXACT integer cents
  (per-row ``round(x*100)`` then integer sums), so results are
  bit-identical regardless of summation order — float sums over
  different partition orders would differ from the oracle in the last
  ulp and break value-hash comparison.

Portability note: the per-batch combiners positionally
``rename_columns`` the output of ``pa.Table.group_by().aggregate()``,
relying on pyarrow >= 14 placing the key columns FIRST (pyarrow <= 13
placed them last, which would silently mislabel).  The floor is pinned
in ``pyproject.toml`` (``pyarrow>=14``).
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Min, Sum

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join
from renard_ray.ops.runscan import sorted_run_scan

_HALF_AWAY = "half_towards_infinity"  # = DuckDB ROUND(double) tie-break


@ray.remote
def _read_small_file(path: str, columns: list[str] | None) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(path, columns=columns).replace_schema_metadata(None)


def read_table(path: str, columns: list[str] | None = None) -> Dataset:
    """Read a Parquet file or directory, pruned to ``columns`` and
    planned from the (first) file's footer.  One file of one row group
    of at most ``target_max_block_size`` bytes is one Ray task and one
    block, as ``read_parquet`` would cut it, but with no Ray Data
    execution and no driver-side fragment sampling; anything else goes
    through ``read_parquet``.  The schema drops its metadata: a pandas
    blob would ride into every block and defeat Ray's schema dedup.
    Raises ``KeyError`` for a column the file lacks."""
    import os

    import pyarrow.parquet as pq

    f = path
    if os.path.isdir(path):
        cands = sorted(x for x in os.listdir(path) if x.endswith(".parquet"))
        f = os.path.join(path, cands[0]) if cands else None
    try:
        pf = pq.ParquetFile(f) if f else None
    except OSError:
        pf = None
    if pf is None:
        return ray.data.read_parquet(path, columns=columns)
    sch = pf.schema_arrow.remove_metadata()
    if columns:
        sch = pa.schema([sch.field(c) for c in columns])
    meta = pf.metadata
    if (
        f == path
        and meta.num_row_groups == 1
        and meta.row_group(0).total_byte_size
        <= ray.data.DataContext.get_current().target_max_block_size
    ):
        return ray.data.from_arrow_refs([_read_small_file.remote(path, columns)])
    return ray.data.read_parquet(path, columns=columns, schema=sch)


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> Dataset:
    return read_table(f"{sf_dir}/{table}.parquet", columns)


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Exact integer cents from a 2-decimal money double."""
    return pc.cast(
        pc.round(pc.multiply(col, pa.scalar(100.0)), ndigits=0, round_mode=_HALF_AWAY),
        pa.int64(),
    )


def _int(col: pa.ChunkedArray) -> pa.ChunkedArray:
    return pc.cast(pc.round(col, ndigits=0, round_mode=_HALF_AWAY), pa.int64())


def _ts_us(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Epoch microseconds (int64) from any-resolution timestamp.
    Arrow's safe cast REFUSES ns -> us when sub-us digits are nonzero;
    time-bucketing ops truncate by definition, so allow it."""
    opts = pc.CastOptions(
        target_type=pa.timestamp("us"), allow_time_truncate=True
    )
    return pc.cast(pc.cast(col, options=opts), pa.int64())


def _ratio_round(num: pa.ChunkedArray, den: pa.ChunkedArray) -> pa.ChunkedArray:
    """round(num / den) with the same single-division fp sequence the
    oracle uses: CAST(ROUND(num * 1.0 / den, 0) AS BIGINT)."""
    q = pc.divide(pc.cast(num, pa.float64()), pc.cast(den, pa.float64()))
    return pc.cast(pc.round(q, ndigits=0, round_mode=_HALF_AWAY), pa.int64())


# ---------------------------------------- size-adaptive broadcast joins
#
# A hash join materializes BOTH sides and moves them through an
# all-to-all exchange (``hashagg.hash_join``).  When the build side fits
# a row budget, a semi/anti/lookup join is one `ray.put` of the key
# (+payload) arrays and a vectorized `pc.index_in` per batch: no
# exchange, and the probe side streams.  Past the budget (fact-fact
# joins at the 100 TB design point) every helper falls back to
# ``hash_join`` with the same join semantics — the adaptive pick is a
# per-run planning decision, not a semantics change.

_BCAST_ROW_LIMIT = 4_000_000  # ~32 MB of int64 keys in plasma


@ray.remote(num_cpus=0)
def _block_shape(t: pa.Table) -> tuple[int, int]:
    """(rows, columns) of one block, probed where the block lives."""
    return t.num_rows, t.num_columns


def _collect_small(
    ds: Dataset, limit: int, columns: list[str] | None = None
) -> pa.Table | None:
    """Materialize ``ds`` into one Arrow table iff it has <= ``limit``
    rows; None past the budget (caller takes the shuffle path).
    ``columns`` are selected on the fetched blocks, so an already
    materialized ``ds`` (a small-file ``read_table``, a probed side)
    is not run through a Project execution first."""
    mat = ds.materialize()
    if mat.count() > limit:
        return None
    tabs = ray.get(mat.to_arrow_refs())
    if columns is not None:
        # an empty block may carry a stale or 0-column schema; it holds
        # no rows, so it is dropped rather than projected
        tabs = [
            t.select(columns)
            for t in tabs
            if t.num_rows or set(columns) <= set(t.column_names)
        ]
    nonempty = [t for t in tabs if t.num_rows]
    if nonempty:
        return pa.concat_tables(nonempty).combine_chunks()
    for t in tabs:
        # prefer a block WITH columns: Ray's hash aggregate emits
        # SCHEMA-LESS (0-column) blocks for empty partitions, and a
        # 0-column table here would crash key lookups downstream
        if t.num_columns:
            return t  # 0 rows, schema intact
    return None  # no schema anywhere — shuffle path


_LOOKUP_KEY_CACHE: dict = {}  # per-WORKER-process; see _lookup_sorted_keys


def _lookup_sorted_keys(ref, keys):
    """Per-worker-process cache of (sorted int64 key array, argsort
    permutation) for a broadcast-lookup right side: built once per
    worker, probed with O(log m) searchsorted per batch.  Without it,
    ``pc.index_in`` re-builds its hash set of the FULL right side on
    every batch — which dominated fused scan->lookup pipelines (the
    10x trade-edge build spent 19.6s of 23.5s there).  None for
    non-int64-safe or nullable keys (callers keep the index_in path).
    Bounded LRU keyed on the broadcast ObjectRef's id bytes, never on
    the ref itself: a worker holding the ref is a borrower, and would
    keep a finished query's broadcast table in the object store until
    newer entries evicted it."""
    import numpy as np

    if (
        not pa.types.is_integer(keys.type)
        or pa.types.is_uint64(keys.type)  # int64 cast would wrap
        or keys.null_count
    ):
        return None
    # a hit moves to the end, so eviction from the front drops the
    # least recently used ref
    key = ref.binary()
    hit = _LOOKUP_KEY_CACHE.pop(key, None)
    if hit is not None:
        _LOOKUP_KEY_CACHE[key] = hit
    else:
        kv = (
            keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(kv, kind="stable").astype(np.int64)
        hit = (kv[order], order)
        _LOOKUP_KEY_CACHE[key] = hit
        while len(_LOOKUP_KEY_CACHE) > 8:
            _LOOKUP_KEY_CACHE.pop(next(iter(_LOOKUP_KEY_CACHE)))
    return hit


def _scrub_schemaless(ds: Dataset) -> Dataset | None:
    """Normalize a result's blocks: drop every EMPTY block whenever at
    least one non-empty block exists.  Empty blocks are schema hazards
    twice over — a 0-row input leaves SCHEMA-LESS (0-column) blocks, and
    map_batches/Project SKIP empty blocks without applying the UDF, so
    an empty block can carry a STALE pre-projection schema (extra
    columns) into the result.  Probes per-block
    (rows, cols) with tiny remote tasks (no driver fetch of data).
    When EVERY block is empty, keeps one schema-ful block so the
    result keeps its columns; returns None only when no block has a
    schema at all."""
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    metas = ray.get([_block_shape.remote(r) for r in refs])
    nonempty = [r for r, (n, _c) in zip(refs, metas) if n > 0]
    if nonempty:
        if len(nonempty) == len(refs):
            return mat
        return ray.data.from_arrow_refs(nonempty)
    for r, (_n, c) in zip(refs, metas):
        if c > 0:
            return ray.data.from_arrow_refs([r])
    return None


def _schemaful(ds: Dataset) -> Dataset | None:
    """``ds`` materialized, or None when it has no schema at all (zero
    rows through 0-column blocks), where a caller returns its typed
    empty result instead."""
    ds = ds.materialize()
    return ds if ds.schema() is not None else None


def broadcast_semi_join(
    left: Dataset,
    right: Dataset,
    on: str,
    right_on: str | None = None,
    anti: bool = False,
    limit: int | None = None,
) -> Dataset:
    """SEMI (keep left rows whose key appears in right) or ANTI
    (keep rows whose key does not) join; broadcast the right-side key
    set when it fits ``limit`` rows, else ``hash_join``'s left semi/anti."""
    right_on = right_on or on
    limit = _BCAST_ROW_LIMIT if limit is None else limit
    keys_tab = _collect_small(right, limit, [right_on])
    if keys_tab is not None:
        # drop null keys: index_in(null, set containing null) returns a
        # VALID index, which would keep null-key left rows in semi mode
        # (and drop them in anti) — the opposite of the hash join's SQL
        # semantics.  With nulls out of the value set a
        # null probe maps to null -> semi drops, anti keeps: identical
        # to the fallback.
        key_ref = ray.put(
            pc.drop_null(keys_tab.column(right_on)).combine_chunks()
        )

        def semi(batch: pa.Table) -> pa.Table:
            ks = ray.get(key_ref)
            mask = pc.is_valid(pc.index_in(batch.column(on), value_set=ks))
            return batch.filter(pc.invert(mask) if anti else mask)

        return left.map_batches(semi, batch_format="pyarrow")

    return hash_join(
        left, right.select_columns([right_on]), on, right_on,
        "left anti" if anti else "left semi",
    )


def broadcast_lookup_join(
    left: Dataset,
    right: Dataset,
    on: str,
    right_on: str,
    payload: list[str],
    limit: int | None = None,
) -> Dataset:
    """INNER lookup join for a UNIQUE-keyed right side: attach
    ``payload`` columns to matching left rows (unmatched rows drop).
    Broadcasts (key, payload) arrays when right fits ``limit`` rows;
    hash-join fallback past it, or when the key turns out non-unique
    (a lookup against duplicate keys would silently under-multiply)."""
    import logging

    limit = _BCAST_ROW_LIMIT if limit is None else limit
    right_tab = _collect_small(right, limit, [right_on] + payload)
    if right_tab is not None:
        # a null right KEY never matches under SQL inner-join semantics
        # but WOULD match null probes via index_in — drop such rows
        # (null payloads stay, as in the fallback) so both paths agree.
        right_tab = right_tab.filter(pc.is_valid(right_tab.column(right_on)))
        keys = right_tab.column(right_on).combine_chunks()
        if pc.count_distinct(keys).as_py() == len(keys):
            ref = ray.put(right_tab.combine_chunks())

            def lookup(batch: pa.Table) -> pa.Table:
                rt = ray.get(ref)
                probe = batch.column(on)
                if isinstance(probe, pa.ChunkedArray):
                    probe = probe.combine_chunks()
                srt = (
                    _lookup_sorted_keys(ref, rt.column(right_on))
                    if pa.types.is_integer(probe.type)
                    and not pa.types.is_uint64(probe.type)
                    and not probe.null_count
                    else None
                )
                if srt is not None and len(srt[0]):
                    # integer keys: probe a per-worker CACHED sorted
                    # copy with searchsorted (see _lookup_sorted_keys)
                    skeys, order = srt
                    import numpy as np

                    pv = probe.to_numpy(zero_copy_only=False).astype(np.int64)
                    pos = np.searchsorted(skeys, pv)
                    pos[pos >= len(skeys)] = 0
                    ok = skeys[pos] == pv
                    batch = batch.filter(pa.array(ok))
                    idx = pa.array(order[pos[ok]], pa.int64())
                else:
                    idx = pc.index_in(probe, value_set=rt.column(right_on))
                    ok = pc.is_valid(idx)
                    batch = batch.filter(ok)
                    idx = pc.cast(idx.filter(ok), pa.int64())
                for p in payload:
                    batch = batch.append_column(p, pc.take(rt.column(p), idx))
                return batch

            return left.map_batches(lookup, batch_format="pyarrow")
        logging.getLogger(__name__).warning(
            "broadcast_lookup_join: right key %r not unique — falling "
            "back to the hash join", right_on,
        )
    return hash_join(
        left, right.select_columns([right_on] + payload), on, right_on
    )


def q1_pricing_summary(sf_dir: str) -> Dataset:
    """TPC-H Q1-style pricing summary over lineitem (integer-cents)."""
    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    cutoff = _dt.datetime(1998, 9, 2)

    def derive(batch: pa.Table) -> pa.Table:
        keep = pc.less_equal(batch.column("l_shipdate"), pa.scalar(cutoff))
        batch = batch.filter(keep)
        qty_i = _int(batch.column("l_quantity"))
        price_c = _cents(batch.column("l_extendedprice"))
        disc_pct = _cents(batch.column("l_discount"))  # 0..100 (2-dec frac)
        disc_price_c4 = pc.multiply(
            price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct)
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty_i": qty_i,
                "price_c": price_c,
                "disc_pct": disc_pct,
                "disc_price_c4": disc_price_c4,
            }
        )

    agg = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), ["l_returnflag", "l_linestatus"], [('qty_i', 'sum', 'sum_qty'), ('price_c', 'sum', 'sum_base_price_cents'), ('disc_price_c4', 'sum', 'sum_disc_price_c4'), ('disc_pct', 'sum', '_sum_disc_pct'), ('', 'count_all', 'count_order')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        avg_qty_c2 = _ratio_round(
            pc.multiply(batch.column("sum_qty"), pa.scalar(100, pa.int64())),
            batch.column("count_order"),
        )
        avg_disc_bp = _ratio_round(
            pc.multiply(batch.column("_sum_disc_pct"), pa.scalar(100, pa.int64())),
            batch.column("count_order"),
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": batch.column("sum_qty"),
                "sum_base_price_cents": batch.column("sum_base_price_cents"),
                "sum_disc_price_c4": batch.column("sum_disc_price_c4"),
                "avg_qty_c2": avg_qty_c2,
                "avg_disc_bp": avg_disc_bp,
                "count_order": batch.column("count_order"),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def _lineitem_revenue_c4(sf_dir: str) -> Dataset:
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch.column("l_extendedprice"))
        disc_pct = _cents(batch.column("l_discount"))
        revenue_c4 = pc.multiply(
            price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct)
        )
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "revenue_c4": revenue_c4,
            }
        )

    return li.map_batches(rev, batch_format="pyarrow")


def q3_top_unshipped_orders(sf_dir: str) -> Dataset:
    """Revenue of the top 10 BUILDING-segment orders (Q3-style)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr="c_mktsegment == 'BUILDING'"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    # both joins are SEMI joins (only the survivor set is used), so the
    # size-adaptive broadcast path applies; past _BCAST_ROW_LIMIT each
    # falls back to the measured-width hash join
    o = broadcast_semi_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
    )
    joined = broadcast_semi_join(
        _lineitem_revenue_c4(sf_dir),
        o.select_columns(["o_orderkey"]),
        on="l_orderkey", right_on="o_orderkey",
    )
    agg = _hagg_auto(joined, "l_orderkey", [('revenue_c4', 'sum', 'revenue_c4')])
    return agg.sort(["revenue_c4", "l_orderkey"], descending=[True, False]).limit(10)


def q5_nation_revenue(sf_dir: str) -> Dataset:
    """Revenue per customer nation: lineitem -> orders -> customer ->
    nation, with the 25-row nation map broadcast via ``ray.put``."""
    nation_tab = _collect_small(
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]), 1000
    )
    nation_ref = ray.put(nation_tab.combine_chunks())
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    # unique-keyed LOOKUP joins (custkey -> nationkey, then orderkey ->
    # nationkey): broadcast the (key, payload) arrays while they fit,
    # hash join past the row budget (orders IS fact-scale at 100 TB —
    # the fallback is the design path there, the broadcast the
    # single-node/testing win)
    oc = broadcast_lookup_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
        payload=["c_nationkey"],
    )
    joined = broadcast_lookup_join(
        _lineitem_revenue_c4(sf_dir),
        oc.select_columns(["o_orderkey", "c_nationkey"]),
        on="l_orderkey", right_on="o_orderkey",
        payload=["c_nationkey"],
    )

    def label(batch: pa.Table) -> pa.Table:
        m = ray.get(nation_ref)
        idx = pc.index_in(batch.column("c_nationkey"), value_set=m.column("n_nationkey"))
        return pa.table(
            {
                "n_name": pc.take(m.column("n_name"), idx),
                "revenue_c4": batch.column("revenue_c4"),
            }
        )

    return (
        _hagg_auto(joined.map_batches(label, batch_format="pyarrow", batch_size=None), "n_name", [('revenue_c4', 'sum', 'revenue_c4')])
    )


def top_customers_by_balance(sf_dir: str, k: int = 20) -> Dataset:
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    return ds.sort(["c_acctbal", "c_custkey"], descending=[True, False]).limit(k)


def part_type_stats(sf_dir: str) -> Dataset:
    """Filter + groupby over part: brand stats for large parts."""
    ds = _read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"]).filter(
        expr="p_size >= 25"
    )

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "price_c": _cents(batch.column("p_retailprice")),
            }
        )

    agg = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "p_brand", [('', 'count_all', 'n_parts'), ('price_c', 'sum', '_sum_price_c')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "n_parts": batch.column("n_parts"),
                "avg_price_cents": _ratio_round(
                    batch.column("_sum_price_c"), batch.column("n_parts")
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def order_priority_counts(sf_dir: str) -> Dataset:
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
    return _hagg_auto(ds, ["o_orderpriority", "o_orderstatus"], [('', 'count_all', 'n_orders')])


def events_type_stats(sf_dir: str) -> Dataset:
    """Per event-type counts + value stats over the events table."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "value_c": _cents(batch.column("value")),
            }
        )

    agg = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "event_type", [('', 'count_all', 'n_events'), ('value_c', 'sum', 'total_value_cents')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_events": batch.column("n_events"),
                "total_value_cents": batch.column("total_value_cents"),
                "avg_value_cents": _ratio_round(
                    batch.column("total_value_cents"), batch.column("n_events")
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def events_top_users(sf_dir: str, k: int = 25) -> Dataset:
    """Heaviest users by event count (groupby + top-k)."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "value_c": _cents(batch.column("value")),
            }
        )

    agg = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "user_id", [('', 'count_all', 'n_events'), ('value_c', 'sum', 'total_value_cents')])
    )
    return agg.sort(["n_events", "user_id"], descending=[True, False]).limit(k)


def events_hourly_activity(sf_dir: str) -> Dataset:
    """Tumbling-window count over event time (hour buckets)."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def bucket(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        return pa.table({"hour": hour, "event_type": batch.column("event_type")})

    return (
        _hagg_auto(ds.map_batches(bucket, batch_format="pyarrow"), ["hour", "event_type"], [('', 'count_all', 'n_events')])
    )


def supplier_nation_join(sf_dir: str) -> Dataset:
    """Broadcast join: supplier x nation x region -> stats per region."""
    nation = _read(sf_dir, "nation").take_all()
    region = {r["r_regionkey"]: r["r_name"] for r in _read(sf_dir, "region").take_all()}
    # 25-row driver map, shipped once as an Arrow lookup table
    n2r = pa.table(
        {
            "key": pa.array([n["n_nationkey"] for n in nation], pa.int64()),
            "r_name": pa.array(
                [region[n["n_regionkey"]] for n in nation], pa.string()
            ),
        }
    )
    ref = ray.put(n2r)
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"])

    def label(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        idx = pc.index_in(batch.column("s_nationkey"), value_set=m.column("key"))
        return pa.table(
            {
                "r_name": pc.take(m.column("r_name"), idx),
                "acctbal_c": _cents(batch.column("s_acctbal")),
            }
        )

    return (
        _hagg_auto(sup.map_batches(label, batch_format="pyarrow", batch_size=None), "r_name", [('', 'count_all', 'n_suppliers'), ('acctbal_c', 'sum', 'total_acctbal_cents')])
    )


def lineitem_distinct_shipmodes(sf_dir: str) -> Dataset:
    """Distinct (returnflag, linestatus) pairs via groupby — never a
    driver-side set."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    return (
        _hagg_auto(ds, ["l_returnflag", "l_linestatus"], [('', 'count_all', 'count()')])
        .select_columns(["l_returnflag", "l_linestatus"])
    )


def q6_forecast_revenue(sf_dir: str) -> Dataset:
    """TPC-H Q6-style: single-scan filtered revenue sum (predicate
    combo pushed into one vectorized pass; exact cents)."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"])
    lo = _dt.datetime(1994, 1, 1)
    hi = _dt.datetime(1997, 1, 1)

    def f(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(batch.column("l_shipdate"), pa.scalar(lo)),
                pc.less(batch.column("l_shipdate"), pa.scalar(hi)),
            ),
            pc.and_(
                pc.greater_equal(batch.column("l_discount"), pa.scalar(0.02)),
                pc.less(batch.column("l_quantity"), pa.scalar(24.0)),
            ),
        )
        t = batch.filter(keep)
        rev = pc.multiply(_cents(t.column("l_extendedprice")), _cents(t.column("l_discount")))
        # map-side partial: one row per batch
        total = pc.sum(rev).as_py() or 0
        return pa.table({"partial": pa.array([int(total)], pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    parts = ds.map_batches(f, batch_format="pyarrow")

    def final(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "revenue_c4": pa.array([int(pc.sum(batch.column("partial")).as_py() or 0)], pa.int64()),
                "n_items": pa.array([int(pc.sum(batch.column("n")).as_py() or 0)], pa.int64()),
            }
        )

    return parts.repartition(1).map_batches(final, batch_format="pyarrow", batch_size=None)


def orders_monthly_counts(sf_dir: str) -> Dataset:
    """Orders per month + total value (time-bucketed rollup)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        month = pc.floor_temporal(batch.column("o_orderdate"), unit="month")
        return pa.table(
            {"month": month, "price_c": _cents(batch.column("o_totalprice"))}
        )

    agg = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "month", [('', 'count_all', 'n_orders'), ('price_c', 'sum', 'total_price_cents')])
    )
    return agg


def events_sessionize(sf_dir: str, gap_minutes: int = 30) -> Dataset:
    """Session counts per user: a session breaks after a
    ``gap_minutes`` silence.  Output: (user_id, session_id, n_events),
    session_id 0-based per user in time order.

    ``sorted_run_scan`` formulation (no per-group calls —
    ``map_groups`` pays ~ms of framework cost per user, which dominated
    the bench at 1.5k users):

    1. one global ``sort(user_id, ts)`` — blocks become contiguous
       slices of the (user, time) order;
    2. one vectorized scan per block: pandas diff/cumsum finds the
       session runs; users strictly INTERIOR to a block (not the
       block's first or last user) have all their events local, so
       their sessions finalize in-block;
    3. only the runs of block-EDGE users (<= 2 users per block, runs
       not events) go to the driver, which merges runs across adjacent
       blocks and assigns their ordinals — O(#blocks) work at any
       scale.
    """
    import pandas as pd

    gap_sec = gap_minutes * 60.0
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    out_schema = pa.schema(
        [("user_id", pa.int64()), ("session_id", pa.int64()), ("n_events", pa.int64())]
    )

    def scan(t: pa.Table):
        df = t.to_pandas()
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = df["ts"].diff().dt.total_seconds() > gap_sec
        rid = (new_user | gap).cumsum()
        ts_us = df["ts"].astype("int64")  # us since epoch (tz-naive)
        runs = pd.DataFrame(
            {"user_id": df["user_id"], "rid": rid, "ts_us": ts_us}
        ).groupby("rid", sort=True).agg(
            user_id=("user_id", "first"),
            start_us=("ts_us", "first"),
            end_us=("ts_us", "last"),
            n_events=("ts_us", "size"),
        ).reset_index(drop=True)
        edge_users = {df["user_id"].iloc[0], df["user_id"].iloc[-1]}
        is_edge = runs["user_id"].isin(edge_users)
        interior = runs[~is_edge]
        part = pa.table(
            {
                "user_id": pa.array(interior["user_id"], pa.int64()),
                "session_id": pa.array(interior.groupby("user_id").cumcount(), pa.int64()),
                "n_events": pa.array(interior["n_events"], pa.int64()),
            }
        )
        return part, runs[is_edge][["user_id", "start_us", "end_us", "n_events"]]

    # boundary runs: <= 2 edge users per block, counted in RUNS — tiny
    # at any scale (O(#blocks)), so the stitch is driver-side by design;
    # each edge user's sessions ride to the block of its first run
    def stitch(edges: list) -> list:
        for i, e in enumerate(edges):
            e["blk"] = i
        # block order is (user, time) order
        edge_df = pd.concat(edges, ignore_index=True)
        rows: list[list] = [[] for _ in edges]  # (user_id, session_id, n_events)
        cur_user = None
        cur_end = 0
        cur_n = 0
        cur_blk = 0
        sid = 0
        gap_us = int(gap_sec * 1_000_000)

        def flush():
            if cur_user is not None:
                rows[cur_blk].append((int(cur_user), sid, int(cur_n)))

        for r in edge_df.itertuples(index=False):
            if r.user_id != cur_user:
                flush()
                cur_user, cur_end, cur_n, sid = r.user_id, r.end_us, r.n_events, 0
                cur_blk = r.blk
            elif r.start_us - cur_end > gap_us:
                flush()
                sid += 1
                cur_end, cur_n = r.end_us, r.n_events
            else:  # merge the adjacent runs into one session
                cur_end = max(cur_end, r.end_us)
                cur_n += r.n_events
        flush()
        return [
            pa.Table.from_pylist(
                [dict(zip(out_schema.names, r)) for r in rs], schema=out_schema
            )
            for rs in rows
        ]

    def finish(part, stitched) -> pa.Table:
        if part is None:
            return out_schema.empty_table()
        return pa.concat_tables([part, stitched])

    return sorted_run_scan(ds, ["user_id", "ts"], scan, stitch, finish)


def part_topk_per_brand(sf_dir: str, k: int = 3) -> Dataset:
    """Top-k most expensive parts per brand (window ``row_number() <= k``
    equivalent) via the candidates-only ``hash_topk`` exchange: each map
    task prunes its block to <= k rows per brand it contains BEFORE the
    shuffle, so the wire carries k x |brands| candidates per block
    instead of the whole part table through a sort-shuffle map_groups;
    (price_cents desc, p_partkey asc) is a total order, rank attached
    reduce-side."""
    from renard_ray.ops.hashagg import hash_topk

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": pc.cast(batch.column("p_brand"), pa.string()),
                "p_partkey": pc.cast(batch.column("p_partkey"), pa.int64()),
                "price_cents": pc.cast(
                    pc.round(
                        pc.multiply(batch.column("p_retailprice"), pa.scalar(100.0))
                    ),
                    pa.int64(),
                ),
            }
        )

    return hash_topk(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys="p_brand",
        order=[("price_cents", False), ("p_partkey", True)],
        k=k,
    )


def events_props_stats(sf_dir: str) -> Dataset:
    """Semi-structured extraction: parse the JSON ``props`` column and
    aggregate the extracted field per event type (per-batch vectorized
    JSON parse; no Python row loop outside the batch)."""
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        ks = []
        for p in batch.column("props").to_pylist():
            try:
                ks.append(int(json.loads(p).get("k")) if p else None)
            except (ValueError, TypeError):
                ks.append(None)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "k": pa.array(ks, pa.int64()),
            }
        )

    agg = (
        _hagg_auto(ds.map_batches(parse, batch_format="pyarrow"), "event_type", [('k', 'count', 'n_with_k'), ('k', 'sum', 'sum_k')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_with_k": batch.column("n_with_k"),
                "sum_k": batch.column("sum_k"),
                "avg_k_c2": _ratio_round(
                    pc.multiply(batch.column("sum_k"), pa.scalar(100, pa.int64())),
                    batch.column("n_with_k"),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def events_sliding_window(
    sf_dir: str, size_minutes: int = 60, hop_minutes: int = 30
) -> Dataset:
    """Sliding (hopping) event-time window counts: each event lands in
    ``size/hop`` windows; implemented by fanning each row out to its
    windows inside the batch then one groupby — the streaming-window
    shape expressed as a batch transform.  (The in-batch fan-out is
    combined per block by the hash-aggregate map phase, so the
    exchange carries distinct (window, type) rows either way; sibling
    ``events_hopping_window_counts`` is the count-only variant that
    pre-reduces to an hourly table before fanning out.)"""
    assert size_minutes % hop_minutes == 0
    n_windows = size_minutes // hop_minutes
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    hop_us = hop_minutes * 60 * 1_000_000

    def fanout(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64())  # us since epoch
        base = pc.multiply(
            pc.divide(ts, pa.scalar(hop_us, pa.int64())), pa.scalar(hop_us, pa.int64())
        )  # integer floor division then re-scale
        tables = []
        for w in range(n_windows):
            start = pc.subtract(base, pa.scalar(w * hop_us, pa.int64()))
            tables.append(
                pa.table(
                    {
                        "window_start": pc.cast(start, pa.timestamp("us")),
                        "event_type": batch.column("event_type"),
                        "value_c": _cents(batch.column("value")),
                    }
                )
            )
        return pa.concat_tables(tables)

    agg = (
        _hagg_auto(ds.map_batches(fanout, batch_format="pyarrow"), ["window_start", "event_type"], [('', 'count_all', 'n_events'), ('value_c', 'sum', 'total_value_cents')])
    )
    return agg


def q4_order_priority(sf_dir: str) -> Dataset:
    """TPC-H Q4-style: orders (in a date range) having at least one
    late lineitem, counted per priority — the SEMI-JOIN shape: distinct
    qualifying orderkeys, then an inner join used as a filter."""
    lo = _dt.datetime(1995, 1, 1)
    hi = _dt.datetime(1996, 7, 1)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def in_range(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), pa.scalar(lo)),
            pc.less(batch.column("o_orderdate"), pa.scalar(hi)),
        )
        return batch.filter(keep).select(["o_orderkey", "o_orderpriority"])

    orders_f = orders.map_batches(in_range, batch_format="pyarrow")
    # qualifying lineitems -> distinct orderkeys (semi-join side)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qualify(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch.column("l_quantity"), pa.scalar(45.0))
        t = batch.filter(keep).select(["l_orderkey"])
        if t.num_rows:
            t = t.group_by(["l_orderkey"]).aggregate([]).select(["l_orderkey"])
        return t

    qual = (
        _hagg_auto(li.map_batches(qualify, batch_format="pyarrow", batch_size=None), "l_orderkey", [('', 'count_all', 'count()')])
        .select_columns(["l_orderkey"])
    )
    # SEMI join (qual is already distinct orderkeys) — size-adaptive
    joined = broadcast_semi_join(
        orders_f, qual, on="o_orderkey", right_on="l_orderkey",
    )
    return _hagg_auto(joined, "o_orderpriority", [('', 'count_all', 'n_orders')])


def customers_without_orders(sf_dir: str, min_totalprice: float = 300000.0) -> Dataset:
    """ANTI-JOIN shape: customers having no order above a price
    threshold (left outer join, keep null matches)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    big = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).filter(
        expr=f"o_totalprice > {min_totalprice}"
    )
    # ANTI join — size-adaptive broadcast of the big-spender key set;
    # the fallback inside the helper is the left_outer + null-marker
    # shape this query shipped with
    return broadcast_semi_join(
        cust, big.select_columns(["o_custkey"]),
        on="c_custkey", right_on="o_custkey", anti=True,
    )


def customer_order_history(sf_dir: str, segment: str = "AUTOMOBILE") -> Dataset:
    """Ordered collect-list per group: each customer's order keys as a
    comma-joined string in (date, key) order — the string_agg /
    collect_list aggregation shape."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr=f"c_mktsegment == '{segment}'"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    # SEMI join: only orders columns survive — size-adaptive broadcast
    # of the segment's customer keys
    joined = broadcast_semi_join(
        orders, cust.select_columns(["c_custkey"]),
        on="o_custkey", right_on="c_custkey",
    )

    # Sorted-run collect: string concat is ASSOCIATIVE, so per-block
    # fragments of block-EDGE customers stitch on the driver in block
    # order (O(#blocks) fragments) while interior customers finalize
    # locally — no per-customer map_groups (framework cost per tiny
    # group dominates with millions of customers).
    def scan(t: pa.Table):
        df = t.to_pandas()
        agg = df.groupby("o_custkey", sort=True).agg(
            order_keys=("o_orderkey", lambda s: ",".join(str(k) for k in s)),
            n_orders=("o_orderkey", "size"),
        ).reset_index()
        first_k, last_k = int(df["o_custkey"].iloc[0]), int(df["o_custkey"].iloc[-1])
        edge = agg["o_custkey"].isin([first_k, last_k])
        return agg[~edge], agg[edge]

    out_schema = pa.schema(
        [("o_custkey", pa.int64()), ("order_keys", pa.string()), ("n_orders", pa.int64())]
    )

    # concat each edge customer's fragments in block order; the whole
    # list rides to the block of the customer's first fragment
    def stitch(frags: list) -> list:
        acc: dict[int, tuple[list[str], int]] = {}
        home: dict[int, int] = {}
        for i, f in enumerate(frags):
            for r in f.itertuples(index=False):
                parts, n = acc.get(int(r.o_custkey), ([], 0))
                acc[int(r.o_custkey)] = (parts + [r.order_keys], n + int(r.n_orders))
                home.setdefault(int(r.o_custkey), i)
        mine: list[list[int]] = [[] for _ in frags]
        for k in sorted(acc):
            mine[home[k]].append(k)
        return [
            pa.table(
                {
                    "o_custkey": pa.array(ks, pa.int64()),
                    "order_keys": pa.array([",".join(acc[k][0]) for k in ks], pa.string()),
                    "n_orders": pa.array([acc[k][1] for k in ks], pa.int64()),
                },
                schema=out_schema,
            )
            for ks in mine
        ]

    def finish(part, stitched) -> pa.Table:
        if part is None:
            return out_schema.empty_table()
        t = pa.Table.from_pandas(part, schema=out_schema, preserve_index=False)
        return pa.concat_tables([t, stitched])

    return sorted_run_scan(
        joined.select_columns(["o_custkey", "o_orderdate", "o_orderkey"]),
        ["o_custkey", "o_orderdate", "o_orderkey"],
        scan,
        stitch,
        finish,
    )


def doc_embedding_join(sf_dir: str) -> Dataset:
    """Cross-modal join: documents x embeddings (doc_id = vec_id) ->
    per-label doc stats.  The embeddings table is the small side here;
    still a hash join (both sides grow with the corpus)."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    emb = _read(sf_dir, "embeddings", ["vec_id", "label"])
    joined = hash_join(docs, emb, "doc_id", "vec_id")
    agg = _hagg_auto(joined, "label", [('', 'count_all', 'n_docs'), ('n_chars', 'sum', 'total_chars')])

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": batch.column("label"),
                "n_docs": batch.column("n_docs"),
                "total_chars": pc.cast(batch.column("total_chars"), pa.int64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def prolific_sources(sf_dir: str, min_docs: int = 20, min_avg_chars: int = 200) -> Dataset:
    """Groupby + HAVING: sources with enough docs and long-enough
    average documents (post-aggregation predicate)."""
    docs = _read(sf_dir, "documents", ["source", "n_chars"])
    agg = _hagg_auto(docs, "source", [('', 'count_all', 'n_docs'), ('n_chars', 'sum', '_total_chars')])

    def having(batch: pa.Table) -> pa.Table:
        avg_chars = _ratio_round(batch.column("_total_chars"), batch.column("n_docs"))
        t = pa.table(
            {
                "source": batch.column("source"),
                "n_docs": batch.column("n_docs"),
                "avg_chars": avg_chars,
            }
        )
        keep = pc.and_(
            pc.greater_equal(t.column("n_docs"), pa.scalar(min_docs, pa.int64())),
            pc.greater_equal(t.column("avg_chars"), pa.scalar(min_avg_chars, pa.int64())),
        )
        return t.filter(keep)

    return agg.map_batches(having, batch_format="pyarrow")


def priority_or_big_customers(sf_dir: str, min_balance: float = 9000.0) -> Dataset:
    """Set op: customers in the BUILDING segment UNION customers above
    a balance — distinct via the standard union + groupby pattern."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal", "c_mktsegment"])
    a = cust.filter(expr="c_mktsegment == 'BUILDING'")
    b = cust.filter(expr=f"c_acctbal > {min_balance}")
    both = a.union(b).select_columns(["c_custkey", "c_name"])
    return (
        _hagg_auto(both, ["c_custkey", "c_name"], [('', 'count_all', 'count()')])
        .select_columns(["c_custkey", "c_name"])
    )


def events_running_total(sf_dir: str) -> Dataset:
    """Per-event running total of the user's value (integer cents),
    ordered by (ts, event_id) — the cumulative window aggregate
    (``SUM ... OVER (PARTITION BY user ORDER BY ts ROWS UNBOUNDED
    PRECEDING)``), computed with ``sorted_run_scan``: one sort, one
    vectorized per-block grouped cumsum, additive carries for each
    block's first user via an O(#blocks) driver prefix-scan, and one
    finish pass.  No per-group calls, no driver data materialization."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "event_id": batch.column("event_id"),
                "value_c": _cents(batch.column("value")),
            }
        )

    def scan(t: pa.Table):
        df = t.to_pandas()
        cum = df.groupby("user_id", sort=False)["value_c"].cumsum()
        first_k = int(df["user_id"].iloc[0])
        last_k = int(df["user_id"].iloc[-1])
        is_first = df["user_id"] == first_k
        part = (df["user_id"], df["event_id"], cum, is_first)
        # (first user, its total here, last user, its total here)
        summary = (
            first_k,
            int(df.loc[is_first, "value_c"].sum()),
            last_k,
            int(df.loc[df["user_id"] == last_k, "value_c"].sum()),
        )
        return part, summary

    def stitch(summaries: list) -> list[int]:
        carries = []
        running: dict[int, int] = {}
        for first_k, first_sum, last_k, last_sum in summaries:
            carry = running.get(first_k, 0)
            carries.append(carry)
            running[first_k] = carry + first_sum
            if last_k != first_k:
                running[last_k] = last_sum
        return carries

    # pending (first-user) rows add their block's carry-in, final rows
    # pass through
    def finish(part, carry) -> pa.Table:
        if part is None:
            return pa.schema(
                [(c, pa.int64()) for c in ("user_id", "event_id", "running_cents")]
            ).empty_table()
        user_id, event_id, cum, pend = part
        return pa.table(
            {
                "user_id": pa.array(user_id.astype("int64"), pa.int64()),
                "event_id": pa.array(event_id.astype("int64"), pa.int64()),
                "running_cents": pa.array(
                    (cum + np.where(pend, carry, 0)).astype("int64"), pa.int64()
                ),
            }
        )

    return sorted_run_scan(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        ["user_id", "ts", "event_id"],
        scan,
        stitch,
        finish,
    )


def q17_small_quantity_revenue(sf_dir: str) -> Dataset:
    """TPC-H Q17-style: revenue from lineitems whose quantity is below
    20% of their part's average quantity — the JOIN-BACK-TO-AGGREGATE
    shape (per-group aggregate re-joined against the fact table).

    The threshold test is EXACT integer arithmetic on both sides
    (``5 * qty * n < sum_qty`` instead of ``qty < 0.2 * avg``), so no
    float-boundary row can diverge from the oracle."""
    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    )

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "qty_i": _int(batch.column("l_quantity")),
                "price_c": _cents(batch.column("l_extendedprice")),
            }
        )

    # materialize once: BOTH the per-part aggregate and the join probe
    # side consume this — without it the lineitem scan runs twice
    rows = li.map_batches(derive, batch_format="pyarrow", batch_size=None).materialize()
    per_part = _hagg_auto(rows, "l_partkey", [('qty_i', 'sum', 'sum_qty'), ('', 'count_all', 'n_li')])
    joined = hash_join(rows, per_part, "l_partkey")

    def keep_small(batch: pa.Table) -> pa.Table:
        lhs = pc.multiply(
            pc.multiply(batch.column("qty_i"), pa.scalar(5, pa.int64())),
            batch.column("n_li"),
        )
        small = pc.less(lhs, batch.column("sum_qty"))
        t = batch.filter(small)
        return pa.table(
            {
                "price_c": t.column("price_c"),
                "one": pa.array([1] * t.num_rows, pa.int64()),
            }
        )

    # single global aggregate (map-side partials via the Sum aggregate)
    out = (
        joined.map_batches(keep_small, batch_format="pyarrow")
        .aggregate(
            Sum("price_c", alias_name="total_cents"),
            Sum("one", alias_name="n_rows"),
        )
    )
    import ray as _ray

    return _ray.data.from_items(
        [{"total_cents": int(out["total_cents"] or 0), "n_rows": int(out["n_rows"] or 0)}]
    )


def lineitem_qty_percentiles(sf_dir: str, ps: tuple = (0.25, 0.5, 0.75, 0.95)) -> Dataset:
    """EXACT discrete percentiles of lineitem quantity via value counts:
    one ``groupby(qty)`` over the (low-cardinality) integer column, then
    a driver-side cumulative scan of the <=50-row histogram — the scale
    path for exact quantiles of discrete columns (the t-digest-style
    sketch in ``ops.sketches`` covers continuous ones).  Matches DuckDB
    ``quantile_disc`` semantics: value at index ceil(p*N) - 1."""
    import math

    import ray as _ray

    ds = _read(sf_dir, "lineitem", ["l_quantity"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"qty_i": _int(batch.column("l_quantity"))})

    counts = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "qty_i", [('', 'count_all', 'n')])
        .take_all()
    )
    hist = sorted((r["qty_i"], r["n"]) for r in counts)
    total = sum(n for _, n in hist)
    out_p, out_q = [], []
    for p in ps:
        target = max(1, math.ceil(p * total))
        cum = 0
        val = hist[-1][0] if hist else 0
        for v, n in hist:
            cum += n
            if cum >= target:
                val = v
                break
        out_p.append(int(round(p * 100)))
        out_q.append(int(val))
    return _ray.data.from_arrow(
        pa.table(
            {
                "p_pct": pa.array(out_p, pa.int64()),
                "qty": pa.array(out_q, pa.int64()),
            }
        )
    )


def orders_rollup(sf_dir: str) -> Dataset:
    """ROLLUP-style aggregate: order counts + totals by (year, month),
    by (year), and the grand total in one result — computed as a
    cascade of RE-AGGREGATIONS of the finest level (each coarser level
    reduces the previous one, never rescans the fact table).  NULL
    grouping keys are encoded as -1 (DuckDB ROLLUP emits NULLs; the
    oracle casts the same way so the hash comparison is well-defined)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        y = pc.year(batch.column("o_orderdate"))
        m = pc.month(batch.column("o_orderdate"))
        return pa.table(
            {
                "y": pc.cast(y, pa.int64()),
                "m": pc.cast(m, pa.int64()),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    fine = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), ["y", "m"], [('', 'count_all', 'n_orders'), ('price_c', 'sum', 'total_cents')])
        .materialize()  # the coarser levels re-aggregate THIS, not the scan
    )
    by_year = _hagg_auto(fine, "y", [('n_orders', 'sum', 'n_orders'), ('total_cents', 'sum', 'total_cents')])
    grand = fine.aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("total_cents", alias_name="total_cents"),
    )

    def tag_fine(b: pa.Table) -> pa.Table:
        return b.select(["y", "m", "n_orders", "total_cents"])

    def tag_year(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "y": b.column("y"),
                "m": pa.array([-1] * b.num_rows, pa.int64()),
                "n_orders": b.column("n_orders"),
                "total_cents": b.column("total_cents"),
            }
        )

    import ray as _ray

    grand_ds = _ray.data.from_arrow(
        pa.table(
            {
                "y": pa.array([-1], pa.int64()),
                "m": pa.array([-1], pa.int64()),
                "n_orders": pa.array([int(grand["n_orders"] or 0)], pa.int64()),
                "total_cents": pa.array([int(grand["total_cents"] or 0)], pa.int64()),
            }
        )
    )
    return (
        fine.map_batches(tag_fine, batch_format="pyarrow")
        .union(by_year.map_batches(tag_year, batch_format="pyarrow"))
        .union(grand_ds)
    )


def events_funnel(
    sf_dir: str,
    first_type: str = "view",
    then_type: str = "purchase",
) -> Dataset:
    """Two-step funnel: per user, the first ``first_type`` event and
    the first STRICTLY LATER ``then_type`` event — the sequential
    conversion join (EXISTS-after pattern), expressed with aggregates
    only: one groupby-min for step 1, a size-adaptive lookup join to
    attach it to step-2 candidates (user table is bounded), a filtered
    groupby-min for step 2.  No per-user map_groups, no sort.  Output
    (converted users only): (user_id, first_view_us, first_purchase_us,
    delay_s), epoch microseconds."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": pc.cast(batch.column("ts"), pa.int64()),
                "event_type": batch.column("event_type"),
            }
        ).filter(pc.is_valid(batch.column("ts")))

    ev = ev.map_batches(derive, batch_format="pyarrow", batch_size=None).materialize()

    firsts = (
        _hagg_auto(ev.filter(expr=f"event_type == '{first_type}'"), "user_id", [('ts_us', 'min', 'ta')])
    ).materialize()

    step2 = ev.filter(expr=f"event_type == '{then_type}'")
    with_ta = broadcast_lookup_join(
        step2, firsts, on="user_id", right_on="user_id", payload=["ta"],
    )
    conv = (
        _hagg_auto(with_ta.map_batches(
            lambda b: b.filter(
                pc.greater(b.column("ts_us"), b.column("ta"))
            ),
            batch_format="pyarrow",
        ), "user_id", [('ts_us', 'min', 'tb'), ('ta', 'min', 'ta')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        ta, tb = batch.column("ta"), batch.column("tb")
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "first_view_us": ta,
                "first_purchase_us": tb,
                "delay_s": pc.divide(pc.subtract(tb, ta), pa.scalar(1_000_000, pa.int64())),
            }
        )

    return conv.map_batches(finalize, batch_format="pyarrow")


def orders_cube(sf_dir: str) -> Dataset:
    """CUBE-style aggregate over (order year, order priority): all four
    grouping sets — (y, p), (y), (p), () — as re-aggregations of the
    finest level, same cascade shape as ``orders_rollup`` (the fact
    table is scanned once).  NULL keys encode as -1 / 'ALL'."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "y": pc.cast(pc.year(batch.column("o_orderdate")), pa.int64()),
                "priority": batch.column("o_orderpriority"),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    fine = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), ["y", "priority"], [('', 'count_all', 'n_orders'), ('price_c', 'sum', 'total_cents')])
        .materialize()
    )
    by_y = _hagg_auto(fine, "y", [('n_orders', 'sum', 'n_orders'), ('total_cents', 'sum', 'total_cents')])
    by_p = _hagg_auto(fine, "priority", [('n_orders', 'sum', 'n_orders'), ('total_cents', 'sum', 'total_cents')])
    grand = fine.aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("total_cents", alias_name="total_cents"),
    )

    def tag(y_col, p_col):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "y": y_col(b),
                    "priority": p_col(b),
                    "n_orders": b.column("n_orders"),
                    "total_cents": b.column("total_cents"),
                }
            )

        return f

    all_y = lambda b: pa.array([-1] * b.num_rows, pa.int64())  # noqa: E731
    all_p = lambda b: pa.array(["ALL"] * b.num_rows, pa.string())  # noqa: E731

    import ray as _ray

    grand_ds = _ray.data.from_arrow(
        pa.table(
            {
                "y": pa.array([-1], pa.int64()),
                "priority": pa.array(["ALL"], pa.string()),
                "n_orders": pa.array([int(grand["n_orders"] or 0)], pa.int64()),
                "total_cents": pa.array([int(grand["total_cents"] or 0)], pa.int64()),
            }
        )
    )
    return (
        fine.map_batches(
            tag(lambda b: b.column("y"), lambda b: b.column("priority")),
            batch_format="pyarrow",
        )
        .union(
            by_y.map_batches(
                tag(lambda b: b.column("y"), all_p), batch_format="pyarrow"
            )
        )
        .union(
            by_p.map_batches(
                tag(all_y, lambda b: b.column("priority")), batch_format="pyarrow"
            )
        )
        .union(grand_ds)
    )


def events_lag_delta(sf_dir: str) -> Dataset:
    """Per-user inter-event gap stats — the LAG window function
    (``ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)``)
    aggregated per user.  Output: (user_id, n_gaps, sum_gap_us,
    max_gap_us) for every user with >= 2 events; integer microsecond
    arithmetic, exact.

    Gap values depend only on the sorted multiset of a user's
    timestamps (consecutive differences of equal values are 0 under
    any tie order), so no tie-break column is needed.

    ``sorted_run_scan`` shape, one global sort and no per-group calls:

    1. ``sort(user_id, ts)`` — each block is a contiguous slice;
    2. per block, one vectorized diff computes every in-block gap
       (pairs fully inside the block), masked at user changes;
    3. the ONLY gaps a block can't see are the ones that straddle a
       block boundary.  Each block's summary holds at most two
       (user, min_ts, max_ts) records — its first and last user — and
       the driver stitches consecutive same-user records in block
       order: gap = next.min_ts - cur.max_ts.  O(#blocks) driver work
       at any scale;
    4. one ``groupby(user_id)`` reduce finalizes count/sum/max.
    """
    gap_schema = pa.schema([("user_id", pa.int64()), ("gap_us", pa.int64())])
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def block_gaps(t: pa.Table):
        df = t.to_pandas()
        ts_us = df["ts"].astype("int64")
        same_user = df["user_id"].eq(df["user_id"].shift())
        gaps = ts_us.diff()
        keep = same_user.to_numpy()
        out_gap = pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy()[keep], pa.int64()),
                "gap_us": pa.array(
                    gaps.to_numpy()[keep].astype("int64"), pa.int64()
                ),
            }
        )
        # boundary summaries: (user, min_us, max_us) of the block's
        # first and last user
        edge = []
        for u in sorted({df["user_id"].iloc[0], df["user_id"].iloc[-1]}):
            m = df["user_id"].eq(u)
            edge.append((int(u), int(ts_us[m].min()), int(ts_us[m].max())))
        return out_gap, edge

    # O(#blocks) boundary stitch: <= 2 summaries per block, walked in
    # block order; each straddling gap rides to the later block
    def stitch(edges: list) -> list[list[dict]]:
        extra: list[list[dict]] = [[] for _ in edges]
        prev_user = None
        prev_max = 0
        for i, edge in enumerate(edges):
            for user, min_us, max_us in edge:
                if user == prev_user:
                    extra[i].append({"user_id": user, "gap_us": min_us - prev_max})
                prev_user, prev_max = user, max_us
        return extra

    def finish(gaps, extra) -> pa.Table:
        if gaps is None:
            return gap_schema.empty_table()
        return pa.concat_tables([gaps, pa.Table.from_pylist(extra, schema=gap_schema)])

    gaps = sorted_run_scan(ds, ["user_id", "ts"], block_gaps, stitch, finish)
    return _hagg_auto(gaps, "user_id", [('', 'count_all', 'n_gaps'), ('gap_us', 'sum', 'sum_gap_us'), ('gap_us', 'max', 'max_gap_us')])


_PIVOT_PRIORITIES = (
    ("1-URGENT", "n_urgent"),
    ("2-HIGH", "n_high"),
    ("3-MEDIUM", "n_medium"),
    ("4-NOT SPECIFIED", "n_notspec"),
    ("5-LOW", "n_low"),
)


def orders_pivot(sf_dir: str) -> Dataset:
    """PIVOT as conditional aggregation: order counts per year, spread
    wide over the five priority classes.  The pivot spine is the KNOWN
    priority domain, so the whole operator is one fact-table scan —
    per-batch 0/1 indicator columns (vectorized ``pc.equal``) followed
    by a single ``groupby(y)`` of Sums; no second pass to discover the
    columns and no driver-side reshaping.  Output: (y, n_urgent,
    n_high, n_medium, n_notspec, n_low, n_total) — integers, exact."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def derive(batch: pa.Table) -> pa.Table:
        pri = batch.column("o_orderpriority")
        cols: dict[str, object] = {
            "y": pc.cast(pc.year(batch.column("o_orderdate")), pa.int64())
        }
        for value, col in _PIVOT_PRIORITIES:
            cols[col] = pc.cast(pc.equal(pri, value), pa.int64())
        cols["n_total"] = pa.array([1] * batch.num_rows, pa.int64())
        return pa.table(cols)

    spec = [(col, "sum", col) for _, col in _PIVOT_PRIORITIES]
    spec.append(("n_total", "sum", "n_total"))
    return _hagg_auto(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        "y",
        spec,
    )


def customer_year_setops(
    sf_dir: str, year_a: int = 1996, year_b: int = 1997
) -> Dataset:
    """INTERSECT / EXCEPT set semantics over distinct order-customer
    keys of two years, expressed as ONE fact-table scan + one groupby
    (no self-join, no two-pass distinct): per batch, rows outside the
    two years are dropped and 0/1 membership indicators derived; a
    ``groupby(custkey).max`` reduces them to per-key membership flags;
    a final vectorized pass emits INTERSECT (in both) and EXCEPT
    (in ``year_a`` only) rows.  Output: (o_custkey, set_op)."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def derive(batch: pa.Table) -> pa.Table:
        y = pc.year(batch.column("o_orderdate"))
        in_a = pc.equal(y, year_a)
        in_b = pc.equal(y, year_b)
        keep = pc.or_(in_a, in_b)
        batch = pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "in_a": pc.cast(in_a, pa.int64()),
                "in_b": pc.cast(in_b, pa.int64()),
            }
        ).filter(keep)
        return batch

    from ray.data.aggregate import Max

    flags = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "o_custkey", [('in_a', 'max', 'in_a'), ('in_b', 'max', 'in_b')])
    )

    out_schema = pa.schema([("o_custkey", pa.int64()), ("set_op", pa.string())])

    def emit(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_custkey")
        in_a = batch.column("in_a")
        in_b = batch.column("in_b")
        both = pc.and_(pc.equal(in_a, 1), pc.equal(in_b, 1))
        only_a = pc.and_(pc.equal(in_a, 1), pc.equal(in_b, 0))
        parts = []
        for mask, tag in ((both, "INTERSECT"), (only_a, "EXCEPT")):
            k = keys.filter(mask)
            parts.append(
                pa.table(
                    {
                        "o_custkey": pc.cast(k, pa.int64()),
                        "set_op": pa.array([tag] * len(k), pa.string()),
                    },
                    schema=out_schema,
                )
            )
        return pa.concat_tables(parts)

    return flags.map_batches(emit, batch_format="pyarrow")


def lineitem_qty_median_by_flag(
    sf_dir: str, ps: tuple = (0.25, 0.5, 0.75)
) -> Dataset:
    """Exact per-group discrete percentiles (``quantile_disc``
    semantics: the element at 1-based rank ``ceil(p*n)``) of lineitem
    quantity per return flag, via the value-HISTOGRAM plan: quantities
    live in a small integer domain, so the only shuffle is a
    ``groupby(flag, qty)`` count whose output is bounded by
    |flags| x |domain| — constant-size regardless of row count.  The
    percentile walk over cumulative counts happens on that tiny table.
    (For unbounded/continuous domains use the sort-based
    ``lineitem_qty_percentiles`` plan instead; this is the
    low-cardinality fast path.)

    Output: (l_returnflag, n_rows, p25, p50, p75) — integers, exact."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def derive(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "flag": batch.column("l_returnflag"),
                "qty": _int(batch.column("l_quantity")),
            }
        )
        g = t.group_by(["flag", "qty"]).aggregate([("qty", "count")])
        return g.rename_columns(["flag", "qty", "n"])

    hist = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), ["flag", "qty"], [('n', 'sum', 'n')])
        .materialize()
    )
    # bounded: |flags| x |qty domain| rows
    htab = pa.concat_tables(
        [b for b in hist.iter_batches(batch_format="pyarrow", batch_size=None)]
    ).combine_chunks()
    import math
    from collections import defaultdict

    by_flag: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for f, q, n in zip(
        htab.column("flag").to_pylist(),
        htab.column("qty").to_pylist(),
        htab.column("n").to_pylist(),
    ):
        by_flag[f].append((int(q), int(n)))

    out = {"l_returnflag": [], "n_rows": []}
    pcols = [f"p{int(p * 100)}" for p in ps]
    for c in pcols:
        out[c] = []
    for f in sorted(by_flag):
        vals = sorted(by_flag[f])
        total = sum(n for _, n in vals)
        out["l_returnflag"].append(f)
        out["n_rows"].append(total)
        for p, c in zip(ps, pcols):
            rank = math.ceil(p * total)  # 1-based, quantile_disc
            cum = 0
            pick = vals[-1][0]
            for q, n in vals:
                cum += n
                if cum >= rank:
                    pick = q
                    break
            out[c].append(pick)
    return ray.data.from_arrow(
        pa.table(
            {
                "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
                "n_rows": pa.array(out["n_rows"], pa.int64()),
                **{c: pa.array(out[c], pa.int64()) for c in pcols},
            }
        )
    )


def orders_price_ntile(sf_dir: str, k: int = 10) -> Dataset:
    """Global NTILE(k) over orders by (totalprice, orderkey): every
    order gets a decile of the corpus-wide price ranking, then the
    buckets are summarized (count / sum / min / max, integer cents).

    The global-rank window shape (rank depends on EVERY other row, not
    just a group): ``sorted_run_scan`` by (price_c, o_orderkey) — per
    block a row count, an O(#blocks) driver carry scan over the counts
    (no per-row driver work), then a block-local NTILE formula and one
    bounded ``groupby(bucket)``.

    Output: (bucket, n_orders, sum_price_cents, min_price_cents,
    max_price_cents) — NTILE semantics identical to SQL (first n%k
    buckets get one extra row)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "price_c": _cents(batch.column("o_totalprice")),
                "o_orderkey": batch.column("o_orderkey"),
            }
        )

    def scan(batch: pa.Table):
        return batch.column("price_c"), batch.num_rows

    # O(#blocks) driver scan: block start offsets + global row count
    def stitch(counts: list[int]) -> list[tuple[int, int]]:
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        total = int(sum(counts))
        return [(int(o), total) for o in offs]

    def finish(price_c, carry) -> pa.Table:
        if price_c is None:
            return pa.table(
                {"bucket": pa.array([], pa.int64()),
                 "price_c": pa.array([], pa.int64())}
            )
        off, total = carry
        rank = np.arange(len(price_c), dtype=np.int64) + off
        # SQL NTILE: first (total % k) buckets hold (total // k) + 1
        size, big = divmod(total, k)
        if size == 0:
            bucket = rank + 1
        else:
            cut = big * (size + 1)
            bucket = np.where(
                rank < cut,
                rank // (size + 1) + 1,
                big + (rank - cut) // size + 1,
            )
        return pa.table(
            {
                "bucket": pa.array(bucket.astype(np.int64)),
                "price_c": price_c,
            }
        )

    ranked = sorted_run_scan(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        ["price_c", "o_orderkey"],
        scan,
        stitch,
        finish,
    )
    return (
        _hagg_auto(ranked, "bucket", [('', 'count_all', 'n_orders'), ('price_c', 'sum', 'sum_price_cents'), ('price_c', 'min', 'min_price_cents'), ('price_c', 'max', 'max_price_cents')])
    )


def orders_rank_in_customer(sf_dir: str) -> Dataset:
    """Per-group DENSE_RANK window: every order's dense price rank
    within its customer (``DENSE_RANK() OVER (PARTITION BY o_custkey
    ORDER BY price_cents DESC)``) — the partitioned ranking window
    shape, complementing the GLOBAL ranking of ``orders_price_ntile``.

    Plan (``sorted_run_scan``, no per-group calls, no window scan):
    sort by (custkey asc, price desc); each block computes its rows'
    dense ranks with one vectorized cumsum over new-value flags reset
    at customer changes.  The only rows a block can mis-rank are its
    FIRST customer run when that customer straddles from an earlier
    block, so each block's summary holds its first/last customer, the
    boundary prices and the distinct-price count of its last run, and
    an O(#blocks) driver carry scan derives the additive rank offset
    per block.  Ties (equal cents within a customer) share a rank with
    no gap, exactly as SQL.

    Output: (o_custkey, o_orderkey, price_rank) for every order."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cust": batch.column("o_custkey"),
                "okey": batch.column("o_orderkey"),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    def scan(batch: pa.Table):
        n = batch.num_rows
        cust = np.asarray(batch.column("cust"), dtype=np.int64)
        price = np.asarray(batch.column("price_c"), dtype=np.int64)
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = cust[1:] != cust[:-1]
        new_val = new_grp.copy()
        new_val[1:] |= price[1:] != price[:-1]
        c = np.cumsum(new_val)
        gs = np.maximum.accumulate(
            np.where(new_grp, np.arange(n, dtype=np.int64), -1)
        )
        local = c - c[gs] + 1
        first_run = cust == cust[0]  # sorted => the first run is a prefix
        # (first_cust, first_price, last_cust, last_price, distinct-price
        # count of the last customer run)
        summary = (
            int(cust[0]), int(price[0]), int(cust[-1]), int(price[-1]),
            int(c[-1] - c[gs[-1]] + 1),
        )
        return (batch, local, first_run), summary

    # O(#blocks) carry scan: additive offset for each block's first run
    def stitch(summaries: list) -> list[int]:
        offs = []
        carry_cust: int | None = None
        carry_price = 0
        carry_n = 0
        for f_cust, f_price, l_cust, l_price, n_dist_last in summaries:
            if f_cust == carry_cust:
                o = carry_n - (1 if f_price == carry_price else 0)
            else:
                o = 0
            offs.append(o)
            if f_cust == l_cust and f_cust == carry_cust:
                carry_n = o + n_dist_last  # block continues one customer
            else:
                carry_n = n_dist_last
            carry_cust, carry_price = l_cust, l_price
        return offs

    def finish(part, off) -> pa.Table:
        if part is None:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "price_rank": pa.array([], pa.int64()),
                }
            )
        batch, local, first_run = part
        rank = local + np.where(first_run, off, 0)
        return pa.table(
            {
                "o_custkey": batch.column("cust"),
                "o_orderkey": batch.column("okey"),
                "price_rank": pa.array(rank.astype(np.int64)),
            }
        )

    return sorted_run_scan(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        ["cust", "price_c", "okey"],
        scan,
        stitch,
        finish,
        descending=[False, True, False],
    )


def monthly_orders_vs_events(sf_dir: str) -> Dataset:
    """FULL OUTER JOIN demo over two independently-aggregated fact
    tables: per-month order volume vs per-month event activity, months
    present on either side kept (orders span 1995-2001, events 2024 —
    both one-sided regions are exercised, not just the overlap).

    Scale shape: each side collapses to a bounded per-month aggregate
    (partial per-batch combine inside the groupby) BEFORE the join, so
    the full-outer exchange moves |months| rows, not facts; the join
    itself is Ray's native hash ``full_outer`` (key column merged,
    missing sides null -> filled to 0 in one vectorized pass).

    Output: (month, n_orders, order_price_cents, n_events,
    event_value_cents), ints, exact."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    events = _read(sf_dir, "events", ["ts", "value"])

    def o_derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "month": pc.strftime(batch.column("o_orderdate"), format="%Y-%m"),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    def e_derive(batch: pa.Table) -> pa.Table:
        val = pc.fill_null(batch.column("value"), 0.0)
        return pa.table(
            {
                "month": pc.strftime(batch.column("ts"), format="%Y-%m"),
                "value_c": _cents(val),
            }
        )

    om = (
        _hagg_auto(orders.map_batches(o_derive, batch_format="pyarrow"), "month", [('', 'count_all', 'n_orders'), ('price_c', 'sum', 'order_price_cents')])
    )
    em = (
        _hagg_auto(events.map_batches(e_derive, batch_format="pyarrow"), "month", [('', 'count_all', 'n_events'), ('value_c', 'sum', 'event_value_cents')])
    )
    # a schema-less side (no rows at all) joins as its key column only;
    # its count columns then read as zeros
    joined = hash_join(om, em, "month", how="full outer")
    if joined.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "month": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                    "order_price_cents": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "event_value_cents": pa.array([], pa.int64()),
                }
            )
        )

    def fill(batch: pa.Table) -> pa.Table:
        z = pa.scalar(0, pa.int64())
        zeros = pa.array(np.zeros(batch.num_rows, dtype=np.int64))
        cols = ["n_orders", "order_price_cents", "n_events", "event_value_cents"]
        return pa.table(
            {"month": batch.column("month")}
            | {
                c: pc.fill_null(batch.column(c), z)
                if c in batch.column_names else zeros
                for c in cols
            }
        )

    return joined.map_batches(fill, batch_format="pyarrow")


_FL_PACK = 1 << 40  # (day << 40) | orderkey — day < 2^22, key < 2^40


def orders_above_customer_avg(sf_dir: str) -> Dataset:
    """Correlated-scalar-subquery shape, decorrelated: per customer,
    how many of their orders are STRICTLY above their own average
    order value (``WHERE o_totalprice > (SELECT AVG(...) ... same
    customer)``).

    Plan: aggregate-before-join — one ``groupby(custkey)`` collapses
    the fact table to (sum_cents, n) per customer (customer-bounded),
    attached back via the size-adaptive lookup join; the comparison is
    the exact integer cross-multiply ``price_c * n > sum_c`` (no float
    division anywhere), then one bounded ``groupby(custkey).count``.
    Customers whose orders are all equal have no strict-above rows and
    are absent, matching the SQL.

    Output: (o_custkey, n_above) — exact."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    facts = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    per_cust = _hagg_auto(facts, "o_custkey", [('price_c', 'sum', 'sum_c'), ('', 'count_all', 'n')])
    joined = broadcast_lookup_join(
        facts,
        per_cust.map_batches(
            lambda b: b.rename_columns(["ck", "sum_c", "n"]),
            batch_format="pyarrow",
        ),
        on="o_custkey", right_on="ck", payload=["sum_c", "n"],
    )

    def above(batch: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(
                pc.cast(batch.column("price_c"), pa.int64()),
                batch.column("n"),
            ),
            batch.column("sum_c"),
        )
        return batch.filter(keep).select(["o_custkey"])

    return (
        _hagg_auto(joined.map_batches(above, batch_format="pyarrow"), "o_custkey", [('', 'count_all', 'n_above')])
    )


def lineitem_price_percentiles_exact(
    sf_dir: str,
    quantiles_ppm: "tuple[int, ...]" = (250_000, 500_000, 750_000, 950_000),
) -> Dataset:
    """EXACT interpolated percentiles (the PERCENTILE_CONT /
    ``quantile_cont`` shape) over an unbounded money column — the
    exact complement to the mergeable ``quantile_sketch``.

    All arithmetic is integer: quantiles come in as parts-per-million,
    the continuous rank ``q * (N - 1)`` is the exact int ``q_ppm *
    (N - 1)`` split into a floor index and a ppm remainder, and the
    output carries (lo_cents, hi_cents, frac_ppm) — the caller (or
    SQL) interpolates; nothing floats, so the oracle hashes exactly.

    Scale shape: ``sorted_run_scan`` — ONE global sort, a per-block
    row count as the summary, an O(#blocks) driver offset scan that
    maps each of the <= 2|q| target global indexes to a (block, local
    index) pair, and a finish pass over the SAME sorted blocks that
    emits only the targeted rows.  The sort keys (price, orderkey,
    linenumber) are unique, so the targeted rows are content-determined.
    Row selection is O(|q|) rows to the driver at any data size —
    never a percentile-bucket scan."""
    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"]
    )

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "price_c": _cents(batch.column("l_extendedprice")),
                "okey": batch.column("l_orderkey"),
                "ln": pc.cast(batch.column("l_linenumber"), pa.int64()),
            }
        )

    def scan(batch: pa.Table):
        return batch.column("price_c"), batch.num_rows

    # target global indexes -> (block, local) via the offset scan
    targets: dict[int, tuple[int, int]] = {}  # q_ppm -> (lo_gidx, hi_gidx)
    totals: list[int] = []

    def stitch(counts: list[int]) -> list[list[tuple[int, int]]]:
        total = int(sum(counts))
        totals.append(total)
        need: set[int] = set()
        for q in quantiles_ppm:
            pos = q * (total - 1)
            lo_g, rem = divmod(pos, 1_000_000)
            hi_g = lo_g + (1 if rem else 0)
            targets[q] = (lo_g, hi_g)
            need.update((lo_g, hi_g))
        wanted: list[list[tuple[int, int]]] = []
        acc = 0
        for nb in counts:
            wanted.append([(g, g - acc) for g in need if acc <= g < acc + nb])
            acc += nb
        return wanted

    def pick(price, w) -> pa.Table:
        w = w or []
        return pa.table(
            {
                "gidx": pa.array([g for g, _loc in w], pa.int64()),
                "cents": pa.array(
                    [price[loc].as_py() for _g, loc in w], pa.int64()
                ),
            }
        )

    picked = sorted_run_scan(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        ["price_c", "okey", "ln"],
        scan,
        stitch,
        pick,
    ).take_all()
    got = {int(r["gidx"]): int(r["cents"]) for r in picked}
    total = totals[0] if totals else 0
    rows = {
        "q_ppm": [], "n": [], "lo_cents": [], "hi_cents": [], "frac_ppm": []
    }
    for q in quantiles_ppm if total else ():  # no rows, no percentiles
        lo_g, hi_g = targets[q]
        rows["q_ppm"].append(q)
        rows["n"].append(total)
        rows["lo_cents"].append(got[lo_g])
        rows["hi_cents"].append(got[hi_g])
        rows["frac_ppm"].append((q * (total - 1)) % 1_000_000)
    return ray.data.from_arrow(
        pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})
    )


def events_peak_moving_sum(sf_dir: str, w: int = 3) -> Dataset:
    """Bounded window FRAME (``SUM(value) OVER (PARTITION BY user
    ORDER BY ts, event_id ROWS BETWEEN w-1 PRECEDING AND CURRENT
    ROW)``), aggregated to each user's PEAK — burst detection: the
    largest w-event spend run per user.  Completes the window-family
    coverage: LAG (events_lag_delta), cumulative (running totals),
    global rank (NTILE), per-group rank (DENSE_RANK), and now the
    bounded-frame rolling aggregate.

    ``sorted_run_scan`` plan: one (user, ts, event_id) sort; each block
    computes every in-block moving sum with one cumsum + clamped
    window-start indexes (no per-group loop).  Only a block's FIRST
    user run can need rows from earlier blocks — at most w-1 of them
    — so each block's summary is its LAST run's tail (<= w-1 rows) and
    an O(#blocks * w) driver scan hands each block its carry values; a
    <= w-1-row fix-up inside the block applies them.  Exact integer
    cents.

    Output: (user_id, peak_sum_cents) for every user with >= 1
    event."""
    assert w >= 1
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch.column("user_id"),
                "t": pc.cast(batch.column("ts"), pa.int64()),
                "e": batch.column("event_id"),
                "v": _cents(batch.column("value")),
            }
        )

    def scan(batch: pa.Table):
        u = np.asarray(batch.column("u"), dtype=np.int64)
        v = np.asarray(batch.column("v"), dtype=np.int64)
        n = len(u)
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = u[1:] != u[:-1]
        gs = np.maximum.accumulate(
            np.where(new_grp, np.arange(n, dtype=np.int64), -1)
        )
        cs = np.concatenate(([0], np.cumsum(v)))
        idx = np.arange(n, dtype=np.int64)
        start = np.maximum(idx - (w - 1), gs)
        ms = cs[idx + 1] - cs[start]
        # tail of the LAST user run: up to w-1 newest values, oldest first
        changes = np.flatnonzero(u != u[-1])
        run_start = int(changes[-1]) + 1 if len(changes) else 0
        tail = v[max(run_start, len(u) - (w - 1)) :] if w > 1 else v[:0]
        summary = (int(u[0]), int(u[-1]), [int(x) for x in tail])
        return (batch.column("u"), ms, int(np.sum(u == u[0]))), summary

    # O(#blocks * w) carry scan: the <= w-1 values preceding each
    # block's first row WITHIN that row's user partition
    def stitch(summaries: list) -> list[list[int]]:
        carries = []
        buf_user: int | None = None
        buf: list[int] = []
        for first_u, last_u, tail in summaries:
            carries.append(list(buf) if first_u == buf_user else [])
            if first_u == last_u and first_u == buf_user:
                buf = (buf + tail)[-(w - 1) :] if w > 1 else []
            else:
                buf = tail
            buf_user = last_u
        return carries

    def moving(part, carry) -> pa.Table:
        if part is None:
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "ms": pa.array([], pa.int64())}
            )
        u, ms, run_len = part
        # fix-up: the first run's first <= w-1 rows may extend into the
        # carry from earlier blocks (constant work per block)
        if carry:
            ms = ms.copy()  # the part arrives read-only from the object store
            for j in range(min(w - 1, run_len)):
                need = w - 1 - j  # values still missing before row j
                ms[j] += sum(carry[len(carry) - min(need, len(carry)) :])
        return pa.table(
            {
                "user_id": u,
                "ms": pa.array(ms.astype(np.int64)),
            }
        )

    moving_sums = sorted_run_scan(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        ["u", "t", "e"],
        scan,
        stitch,
        moving,
    )
    return _hagg_auto(moving_sums, "user_id", [('ms', 'max', 'peak_sum_cents')])


def customer_first_last_order(sf_dir: str) -> Dataset:
    """FIRST_VALUE / LAST_VALUE window semantics without a window scan:
    per customer, the (orderkey, epoch-day) of the chronologically
    first and last order, tie-broken on orderkey.

    The argmin/argmax rides ONE ``groupby(custkey)`` as Min/Max over
    the packed int64 key ``day * 2^40 + orderkey`` — no global sort,
    no per-group map_groups, and the exchange carries three int64
    aggregates per customer.  Packing bounds are asserted (a key past
    2^40 or a day past 2^22 fails loudly instead of reordering); the
    SQL oracle packs identically, so the match is bit-exact."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def pack(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = ts // 86_400_000_000  # timestamp[us] -> whole epoch days
        key = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        if len(key):
            assert key.max() < _FL_PACK and key.min() >= 0, "orderkey > 2^40"
            assert 0 <= day.min() and day.max() < (1 << 22), "day out of range"
        return pa.table(
            {
                "custkey": batch.column("o_custkey"),
                "packed": pa.array(day * _FL_PACK + key, pa.int64()),
            }
        )

    agg = (
        _hagg_auto(ds.map_batches(pack, batch_format="pyarrow"), "custkey", [('', 'count_all', 'n_orders'), ('packed', 'min', 'fk'), ('packed', 'max', 'lk')])
    )

    def unpack(batch: pa.Table) -> pa.Table:
        fk = batch.column("fk").to_numpy(zero_copy_only=False)
        lk = batch.column("lk").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "custkey": batch.column("custkey"),
                "n_orders": batch.column("n_orders"),
                "first_orderkey": pa.array(fk % _FL_PACK, pa.int64()),
                "first_day": pa.array(fk // _FL_PACK, pa.int64()),
                "last_orderkey": pa.array(lk % _FL_PACK, pa.int64()),
                "last_day": pa.array(lk // _FL_PACK, pa.int64()),
            }
        )

    return agg.map_batches(unpack, batch_format="pyarrow")


def events_spend_outliers(sf_dir: str) -> Dataset:
    """Per-user 3-sigma outlier detection on event values — the
    anomaly-flagging shape — with an ALL-INTEGER decision so the
    result hashes exactly against the SQL oracle:

    ``x - mu > 3*sigma``  (population moments over the user's events)
    is cross-multiplied to  ``(n*x - S) > 0  AND
    (n*x - S)^2 > 9*(n*Q - S^2)``  with S = sum(cents), Q =
    sum(cents^2) — no float division, no sqrt, no float comparison
    anywhere.  Single-event users have n*Q == S^2 and (n*x - S) == 0,
    so they emit nothing, matching the SQL.

    Plan: aggregate-before-join — ONE ``groupby(user_id)`` collapses
    the facts to (S, Q, n) (user-bounded), attached back via the
    size-adaptive lookup join; the squared terms are guarded against
    the int64 range LOUDLY (they grow as (n*x)^2 — at ~2^31 cents x
    events-per-user the decision needs a wider type).

    Output: (user_id, event_id, value_cents) of the outlier events."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        c = _cents(batch.column("value"))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "value_cents": c,
                "sq": pc.multiply(
                    pc.cast(c, pa.int64()), pc.cast(c, pa.int64())
                ),
            }
        )

    facts = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    per_user = _hagg_auto(facts, "user_id", [('value_cents', 'sum', 's_c'), ('sq', 'sum', 'q_c'), ('', 'count_all', 'n')])
    joined = broadcast_lookup_join(
        facts.drop_columns(["sq"]),
        per_user.map_batches(
            lambda b: b.rename_columns(["uk", "s_c", "q_c", "n"]),
            batch_format="pyarrow",
        ),
        on="user_id", right_on="uk", payload=["s_c", "q_c", "n"],
    )

    def outlier(batch: pa.Table) -> pa.Table:
        import numpy as np

        x = np.asarray(batch.column("value_cents"), dtype=np.int64)
        s = np.asarray(batch.column("s_c"), dtype=np.int64)
        q = np.asarray(batch.column("q_c"), dtype=np.int64)
        n = np.asarray(batch.column("n"), dtype=np.int64)
        dev = n * x - s
        var9 = 9 * (n * q - s * s)
        # loud int64-range guard on the squared terms (object-free
        # check in float is exact enough as a BOUND test at 2^62)
        if len(x) and (
            float(np.max(np.abs(dev))) >= 2.0**31
            or float(np.max(n * np.abs(q).astype(np.float64))) >= 2.0**62
        ):
            raise ValueError(
                "events_spend_outliers: moment terms exceed the exact "
                "int64 decision range — rescale the cents unit"
            )
        keep = (dev > 0) & (dev * dev > var9)
        kept = batch.filter(pa.array(keep))
        return pa.table(
            {
                "user_id": kept.column("user_id"),
                "event_id": kept.column("event_id"),
                "value_cents": kept.column("value_cents"),
            }
        )

    return joined.map_batches(outlier, batch_format="pyarrow").sort(
        ["user_id", "event_id"]
    )


def events_type_runs(sf_dir: str) -> Dataset:
    """Gaps-and-islands run collapse: each user's event stream, ordered
    by (ts, event_id), is compressed into maximal runs of CONSECUTIVE
    equal ``event_type`` — the SCD2 / run-length-encoding shape (the
    change-point dual of :func:`events_sessionize`, which splits on
    time gaps instead of value changes).

    Output: (user_id, event_type, run_id, n_events, start_us, end_us)
    with ``run_id`` 0-based per user in time order and the bounds as
    exact int64 microseconds — every column integral or categorical,
    so the result value-hashes against the LAG/SUM-OVER SQL oracle.

    Plan (``sorted_run_scan``, same family as sessionize): ONE
    global sort on (user_id, ts, event_id); per block a vectorized
    pandas change-point pass finalizes every run of users strictly
    interior to the block; only block-EDGE users' RUNS (<= 2 users per
    block) reach the driver, which merges same-type runs adjacent
    across a block boundary and assigns their ordinals — O(#blocks +
    edge-user runs) driver work at any scale, no per-group map_groups.
    """
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("event_type", pa.string()),
            ("run_id", pa.int64()),
            ("n_events", pa.int64()),
            ("start_us", pa.int64()),
            ("end_us", pa.int64()),
        ]
    )

    def block_runs(t: pa.Table):
        df = t.to_pandas()
        new_user = df["user_id"].ne(df["user_id"].shift())
        new_type = df["event_type"].ne(df["event_type"].shift())
        rid = (new_user | new_type).cumsum()
        ts_us = df["ts"].astype("int64")
        runs = (
            pd.DataFrame(
                {
                    "user_id": df["user_id"],
                    "event_type": df["event_type"],
                    "rid": rid,
                    "ts_us": ts_us,
                }
            )
            .groupby("rid", sort=True)
            .agg(
                user_id=("user_id", "first"),
                event_type=("event_type", "first"),
                start_us=("ts_us", "first"),
                end_us=("ts_us", "last"),
                n_events=("ts_us", "size"),
            )
            .reset_index(drop=True)
        )
        edge_users = {df["user_id"].iloc[0], df["user_id"].iloc[-1]}
        is_edge = runs["user_id"].isin(edge_users)
        interior = runs[~is_edge]
        out_int = pd.DataFrame(
            {
                "user_id": interior["user_id"],
                "event_type": interior["event_type"],
                "run_id": interior.groupby("user_id").cumcount(),
                "n_events": interior["n_events"],
                "start_us": interior["start_us"],
                "end_us": interior["end_us"],
            }
        )
        part = pa.Table.from_pandas(out_int, schema=out_schema, preserve_index=False)
        return part, runs[is_edge][
            ["user_id", "event_type", "n_events", "start_us", "end_us"]
        ]

    # the edge runs of all blocks, in block order, are in event order;
    # in-block maximality guarantees in-block-adjacent runs differ in
    # type, so "merge adjacent runs of equal type" merges exactly the
    # runs split by a block boundary.  Each edge user's runs ride to
    # the block of its first run.
    def stitch(edges: list) -> list[pa.Table]:
        for i, e in enumerate(edges):
            e["blk"] = i
        edge_df = pd.concat(edges, ignore_index=True)
        rows: list[list[tuple]] = [[] for _ in edges]
        cur = None  # [user_id, event_type, n, start_us, end_us]
        home = 0
        rid = 0

        def flush():
            if cur is not None:
                rows[home].append((int(cur[0]), cur[1], rid, int(cur[2]), int(cur[3]), int(cur[4])))

        for r in edge_df.itertuples(index=False):
            if cur is None or r.user_id != cur[0]:
                flush()
                cur, rid = [r.user_id, r.event_type, r.n_events, r.start_us, r.end_us], 0
                home = r.blk
            elif r.event_type != cur[1]:
                flush()
                rid += 1
                cur = [r.user_id, r.event_type, r.n_events, r.start_us, r.end_us]
            else:  # same type across a block boundary: one run
                cur[2] += r.n_events
                cur[4] = max(cur[4], r.end_us)
        flush()
        return [
            pa.Table.from_pylist(
                [dict(zip(out_schema.names, r)) for r in rs], schema=out_schema
            )
            for rs in rows
        ]

    def finish(part, stitched) -> pa.Table:
        if part is None:
            return out_schema.empty_table()
        return pa.concat_tables([part, stitched])

    return sorted_run_scan(ds, ["user_id", "ts", "event_id"], block_runs, stitch, finish)


_MAD_HIST_LIMIT = 5_000_000


def events_value_mad(sf_dir: str, hist_limit: int = _MAD_HIST_LIMIT) -> Dataset:
    """Exact per-group robust statistics — interpolated MEDIAN and MAD
    (median absolute deviation) of event value per event_type — with
    every output an exact integer: ``med2 = 2*median(cents)`` and
    ``mad4 = 2*median(|2*cents - med2|)`` = 4 x MAD in cents (one
    factor 2 from the doubled deviations, one from the even-count
    midpoint trick) — integral by construction, so the result
    value-hashes against the SQL oracle; no float statistics
    anywhere.

    Plan (value-HISTOGRAM — the low-cardinality exact path): the ONLY
    corpus-scale exchange is a ``groupby(event_type, cents)`` count
    with per-batch combine, whose output is bounded by
    |groups| x |cent domain| — a fixed-resolution bounded metric's
    domain does not grow with row count, so the histogram is
    constant-size at any scale.  BOTH statistics then derive from the
    histogram alone on the driver (the deviation multiset
    |2c - med2| is a re-keying of the same counts — no second corpus
    pass).  A histogram larger than ``hist_limit`` raises LOUDLY with
    a pointer to the sort-based percentile plan (the right tool for
    unbounded/continuous domains).

    Output: (event_type, n_rows, med2_cents, mad4_cents)."""
    from collections import defaultdict

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "g": batch.column("event_type"),
                "c": _cents(batch.column("value")),
            }
        )
        out = t.group_by(["g", "c"]).aggregate([("c", "count")])
        return out.rename_columns(["g", "c", "n"])

    hist = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), ["g", "c"], [('n', 'sum', 'n')])
        .materialize()
    )
    n_hist = hist.count()
    if n_hist > hist_limit:
        raise ValueError(
            f"events_value_mad: histogram has {n_hist} (group, value) rows "
            f"> hist_limit={hist_limit} — the value domain is not "
            "low-cardinality; use the sort-based exact-percentile plan "
            "(lineitem_price_percentiles_exact shape) instead"
        )

    htab = pa.concat_tables(
        [b for b in hist.iter_batches(batch_format="pyarrow", batch_size=None)]
    ).combine_chunks()
    by_g: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for g, c, n in zip(
        htab.column("g").to_pylist(),
        htab.column("c").to_pylist(),
        htab.column("n").to_pylist(),
    ):
        by_g[g].append((int(c), int(n)))

    def med2_of(pairs: "list[tuple[int, int]]", total: int) -> int:
        """2 x interpolated median of the multiset given as sorted
        (value, count) pairs — lower rank (n+1)//2, upper n//2 + 1
        (1-based), summed (PERCENTILE_CONT(0.5) x 2, exactly)."""
        k_lo, k_hi = (total + 1) // 2, total // 2 + 1
        lo = hi = None
        cum = 0
        for v, n in pairs:
            cum += n
            if lo is None and cum >= k_lo:
                lo = v
            if cum >= k_hi:
                hi = v
                break
        return lo + hi

    out = {"event_type": [], "n_rows": [], "med2_cents": [], "mad4_cents": []}
    for g in sorted(by_g):
        pairs = sorted(by_g[g])
        total = sum(n for _, n in pairs)
        med2 = med2_of(pairs, total)
        dev: dict[int, int] = defaultdict(int)
        for v, n in pairs:  # re-key the SAME counts: |2v - med2|
            dev[abs(2 * v - med2)] += n
        mad4 = med2_of(sorted(dev.items()), total)
        out["event_type"].append(g)
        out["n_rows"].append(total)
        out["med2_cents"].append(med2)
        out["mad4_cents"].append(mad4)
    return ray.data.from_arrow(
        pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_rows": pa.array(out["n_rows"], pa.int64()),
                "med2_cents": pa.array(out["med2_cents"], pa.int64()),
                "mad4_cents": pa.array(out["mad4_cents"], pa.int64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# cohort retention and exact streaming correlation
# ---------------------------------------------------------------------------

_WEEK_US = 7 * 86_400 * 1_000_000  # epoch-week bucket, microseconds


def events_retention(sf_dir: str) -> "Dataset | pa.Table":
    """Cohort retention matrix: users bucketed by their FIRST active
    epoch-week (the cohort), then distinct active users counted per
    (cohort_week, week_offset) cell — the standard product-analytics
    retention triangle.

    Scale shape: one groupby-min over (user, week) pairs for the
    cohort map (its input is per-batch deduped first, so the shuffle
    carries at most |users|x|weeks| rows, not |events|), the cohort
    attach is the size-adaptive ``broadcast_lookup_join`` (broadcast
    under ~4M users, hash join past it), and the distinct-user count
    is a (cohort, offset, user) groupby whose input is per-batch
    deduped too — nothing event-sized crosses a second exchange.
    """
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    if ds.count() == 0:  # map_batches skips empty blocks: guard early
        return pa.schema(
            [
                ("cohort_week", pa.int64()),
                ("week_offset", pa.int64()),
                ("n_users", pa.int64()),
            ]
        ).empty_table()

    def weeks(batch: pa.Table) -> pa.Table:
        # normalize to us first: a ns-sourced table (pandas default)
        # would otherwise bucket 1000x too fine
        us = _ts_us(batch.column("ts"))
        # integer division truncates toward zero, not -inf: a pre-epoch
        # timestamp would silently land in the wrong week (guards the
        # derived events_retention_cohorts too — review-restored)
        assert batch.num_rows == 0 or pc.min(us).as_py() >= 0, (
            "retention: pre-epoch timestamp"
        )
        w = pc.divide(us, _WEEK_US)
        t = pa.table({"user_id": batch.column("user_id"), "week": w})
        # per-batch dedup (the combiner): shuffles downstream see
        # distinct (user, week) pairs only
        return t.group_by(["user_id", "week"]).aggregate([])

    uw = ds.map_batches(weeks, batch_format="pyarrow", batch_size=None)
    # distinct (user, week) pairs globally — both downstream reductions
    # (cohort min and the offset-cell distinct count) read this once
    uw = _hagg_auto(uw, ["user_id", "week"], [('', 'count_all', '_n')])
    uw = uw.drop_columns(["_n"]).materialize()

    cohort = _hagg_auto(uw, "user_id", [('week', 'min', 'cohort_week')])
    joined = broadcast_lookup_join(
        uw, cohort, on="user_id", right_on="user_id", payload=["cohort_week"]
    )

    def offset(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_week": batch.column("cohort_week"),
                "week_offset": pc.subtract(
                    batch.column("week"), batch.column("cohort_week")
                ),
            }
        )

    return (
        _hagg_auto(joined.map_batches(offset, batch_format="pyarrow"), ["cohort_week", "week_offset"], [('', 'count_all', 'n_users')])
        .sort(["cohort_week", "week_offset"])
    )


_LIMB_SHIFT = 31
_LIMB_MASK = (1 << _LIMB_SHIFT) - 1


def _limb_sums(vals: "np.ndarray") -> tuple[int, int]:
    """Exact sum of an int64 array as normalized (hi, lo) base-2^31
    limbs.  Per-row values must fit int64 (callers square <= ~1e7
    magnitudes); the row-wise shift/mask never overflows and the two
    partial sums stay far below int64 even for billion-row batches,
    so the full reduction is exact at any corpus size where a plain
    int64 ``Sum`` of squares would silently wrap."""
    hi = int((vals >> _LIMB_SHIFT).sum(dtype=np.int64))
    lo = int((vals & _LIMB_MASK).sum(dtype=np.int64))
    hi += lo >> _LIMB_SHIFT  # re-normalize: keep lo inside one limb
    lo &= _LIMB_MASK
    return hi, lo


def lineitem_corr_qty_price(sf_dir: str) -> Dataset:
    """Exact Pearson correlation between quantity and extended price
    (cents) per returnflag, from EXACT integer moment sums — the
    single-pass mergeable-moments shape (n, Sx, Sy, Sxy, Sxx, Syy).

    Sums whose per-row terms reach ~1e14 (price-cents squared) would
    wrap an int64 ``groupby().sum()`` near 1e12 rows, so Sy, Sxy and
    Syy travel as normalized base-2^31 limb pairs (``_limb_sums``)
    and are recombined into Python bignums on the 3-row final table.
    The correlation itself is then one deterministic float expression
    — num / (sqrt(A) * sqrt(B)) — mirrored verbatim by the DuckDB
    oracle over HUGEINT sums, so the 9-dp result value-hashes exactly.
    """
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        flags = batch.column("l_returnflag").to_numpy(zero_copy_only=False)
        # half-AWAY like the oracle's ROUND (pc.round defaults to
        # half-to-even, which diverges on *.5 quantities)
        x = _int(batch.column("l_quantity").combine_chunks()).to_numpy()
        y = _cents(batch.column("l_extendedprice").combine_chunks()).to_numpy()
        order = np.argsort(flags, kind="stable")
        fs, xs, ys = flags[order], x[order], y[order]
        uniq, starts = np.unique(fs, return_index=True)
        ends = np.r_[starts[1:], len(fs)]
        cols: dict[str, list] = {
            k: []
            for k in (
                "l_returnflag n sx sxx sy_hi sy_lo sxy_hi sxy_lo syy_hi syy_lo"
            ).split()
        }
        for f, s, e in zip(uniq, starts, ends):
            gx, gy = xs[s:e], ys[s:e]
            cols["l_returnflag"].append(str(f))
            cols["n"].append(int(e - s))
            cols["sx"].append(int(gx.sum(dtype=np.int64)))
            cols["sxx"].append(int((gx * gx).sum(dtype=np.int64)))
            for name, vals in (("sy", gy), ("sxy", gx * gy), ("syy", gy * gy)):
                hi, lo = _limb_sums(vals)
                cols[f"{name}_hi"].append(hi)
                cols[f"{name}_lo"].append(lo)
        return pa.table(
            {
                "l_returnflag": pa.array(cols["l_returnflag"], pa.string()),
                **{
                    k: pa.array(cols[k], pa.int64())
                    for k in cols
                    if k != "l_returnflag"
                },
            }
        )

    merged = _hagg_auto(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        "l_returnflag",
        [
            (c, "sum", c)
            for c in "n sx sxx sy_hi sy_lo sxy_hi sxy_lo syy_hi syy_lo".split()
        ],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        import math

        rows = batch.to_pylist()
        out = {"l_returnflag": [], "n_rows": [], "corr_qty_price": []}
        for r in rows:
            n = int(r["n"])
            sx, sxx = int(r["sx"]), int(r["sxx"])
            sy = (int(r["sy_hi"]) << _LIMB_SHIFT) + int(r["sy_lo"])
            sxy = (int(r["sxy_hi"]) << _LIMB_SHIFT) + int(r["sxy_lo"])
            syy = (int(r["syy_hi"]) << _LIMB_SHIFT) + int(r["syy_lo"])
            num = n * sxy - sx * sy
            a = n * sxx - sx * sx
            b = n * syy - sy * sy
            corr = (
                float("nan")
                if a == 0 or b == 0
                else float(num) / (math.sqrt(float(a)) * math.sqrt(float(b)))
            )
            out["l_returnflag"].append(r["l_returnflag"])
            out["n_rows"].append(n)
            out["corr_qty_price"].append(round(corr, 9))
        return pa.table(
            {
                "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
                "n_rows": pa.array(out["n_rows"], pa.int64()),
                "corr_qty_price": pa.array(out["corr_qty_price"], pa.float64()),
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow").sort("l_returnflag")


_MARKOV_EMPTY = pa.schema(
    [
        ("prev_type", pa.string()),
        ("next_type", pa.string()),
        ("n_transitions", pa.int64()),
        ("p_ppm", pa.int64()),
    ]
)


def events_markov_transitions(sf_dir: str) -> "Dataset | pa.Table":
    """First-order Markov transition matrix of event types: for every
    (prev_type, next_type) pair of CONSECUTIVE events of the same user
    (ordered by ts, event_id), the transition count and the row-
    normalized probability in exact integer ppm — the sequence-mining
    readout behind next-action prediction and bot detection.

    Plan (``sorted_run_scan``, the sessionize/type-runs family): ONE
    global sort on (user_id, ts, event_id); per block a vectorized
    pandas shift pass counts every within-block transition and keeps
    the block's FIRST and LAST (user, type) as its summary; the driver
    walks the O(#blocks) summaries in block order and adds the one
    straddling transition per block boundary where the user continues.
    The transition matrix itself is |types|^2 rows — small by
    definition — so the final ppm normalization runs in one block.
    p_ppm uses the half-away-from-zero integer recipe
    ``(2_000_000 n + s) // (2 s)`` mirrored verbatim by the SQL oracle,
    so the result value-hashes exactly.
    """
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    if ds.count() == 0:  # map_batches skips empty blocks: guard early
        return _MARKOV_EMPTY.empty_table()

    def to_us(batch: pa.Table) -> pa.Table:
        # normalize to us BEFORE the sort: the SQL oracle orders by the
        # same us precision, so a ns-resolution source cannot order
        # sub-us ties differently on the two sides
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": _ts_us(batch.column("ts")),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    count_schema = pa.schema(
        [("prev_type", pa.string()), ("next_type", pa.string()), ("n", pa.int64())]
    )

    def scan(t: pa.Table):
        df = t.to_pandas()
        same = df["user_id"].eq(df["user_id"].shift())
        prev = df["event_type"].shift()
        pairs = (
            pd.DataFrame(
                {"prev_type": prev[same], "next_type": df["event_type"][same]}
            )
            .groupby(["prev_type", "next_type"], sort=True)
            .size()
            .rename("n")
            .reset_index()
        )
        # the block's head and tail (user, type)
        edge = tuple(
            (int(df["user_id"].iloc[i]), str(df["event_type"].iloc[i]))
            for i in (0, -1)
        )
        return pa.Table.from_pandas(pairs, schema=count_schema, preserve_index=False), edge

    # driver stitch: a block tail followed by the NEXT block's head of
    # the same user is the one straddling transition at that boundary;
    # it rides to the later block
    def stitch(edges: list) -> list[list[tuple[str, str]]]:
        extra: list[list[tuple[str, str]]] = [[]]
        for (_, (u_a, t_a)), ((u_b, t_b), _) in zip(edges, edges[1:]):
            extra.append([(t_a, t_b)] if u_a == u_b else [])
        return extra

    def finish(pairs, extra) -> pa.Table:
        if pairs is None:
            return count_schema.empty_table()
        crossing = pa.Table.from_pylist(
            [{"prev_type": p, "next_type": q, "n": 1} for p, q in extra],
            schema=count_schema,
        )
        return pa.concat_tables([pairs, crossing])

    counts = sorted_run_scan(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["user_id", "ts_us", "event_id"],
        scan,
        stitch,
        finish,
    )
    merged = (
        _hagg_auto(counts, ["prev_type", "next_type"], [('n', 'sum', 'n_transitions')])
    )
    merged = _scrub_schemaless(merged)
    if merged is None:  # < 2 events: no transitions at all
        # pa.Table, not an empty Dataset: Dataset.to_pandas drops the
        # schema of all-empty datasets (0-column frame)
        return _MARKOV_EMPTY.empty_table()

    def normalize(batch: pa.Table) -> pa.Table:
        import pandas as pd  # noqa: F811

        df = batch.to_pandas()
        tot = df.groupby("prev_type")["n_transitions"].transform("sum")
        df["p_ppm"] = (2_000_000 * df["n_transitions"] + tot) // (2 * tot)
        df = df.sort_values(["prev_type", "next_type"]).reset_index(drop=True)
        return pa.table(
            {
                "prev_type": pa.array(df["prev_type"], pa.string()),
                "next_type": pa.array(df["next_type"], pa.string()),
                "n_transitions": pa.array(df["n_transitions"], pa.int64()),
                "p_ppm": pa.array(df["p_ppm"], pa.int64()),
            }
        )

    # the matrix is |types|^2 rows — one block is the right plan
    return merged.repartition(1).map_batches(normalize, batch_format="pyarrow")


def q7_nation_volume(
    sf_dir: str,
    nation_a: str = "NATION_1",
    nation_b: str = "NATION_2",
    y0: int = 1996,
    y1: int = 1997,
) -> "Dataset | pa.Table":
    """TPC-H Q7-style bilateral shipping volume: revenue shipped
    between two nations per (supplier nation, customer nation, year)
    — the canonical multi-dimension STAR join (fact ⋈ two independent
    dimension chains) the suite didn't yet exercise.

    Plan: the 25-row nation map rides as a driver-filtered key set; the
    supplier chain is a size-adaptive lookup join (suppkey ->
    s_nationkey), the customer chain the q5 orders->customer lookup
    composition; both nation filters are APPLIED BEFORE the fact joins
    (semi-filter on the qualifying supp/cust keys) so only qualifying
    fact rows ride any exchange.  Revenue uses the house exact-cents
    recipe (price_cents x (100 - disc_pct), c4 units)."""
    nt = _collect_small(_read(sf_dir, "nation", ["n_nationkey", "n_name"]), 1000)
    name_of = dict(
        zip(nt.column("n_nationkey").to_pylist(), nt.column("n_name").to_pylist())
    )
    keys_ab = [k for k, v in name_of.items() if v in (nation_a, nation_b)]
    if len(keys_ab) < 2:
        raise ValueError(f"q7: nations {nation_a!r}/{nation_b!r} not found")

    keys_arr = pa.array(sorted(keys_ab), pa.int64())

    def keep_ab(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.is_valid(pc.index_in(batch.column(col), value_set=keys_arr))
            )

        return fn

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        keep_ab("s_nationkey"), batch_format="pyarrow"
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        keep_ab("c_nationkey"), batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    oc = broadcast_lookup_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
        payload=["c_nationkey"],
    )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("l_shipdate"))
        keep = pc.and_(
            pc.greater_equal(yr, pa.scalar(y0, pa.int64())),
            pc.less_equal(yr, pa.scalar(y1, pa.int64())),
        )
        l_year = pc.cast(yr.filter(keep), pa.int64())
        batch = batch.filter(keep)
        price_c = _cents(batch.column("l_extendedprice"))
        disc_pct = _cents(batch.column("l_discount"))
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "l_year": l_year,
                "revenue_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct)
                ),
            }
        )

    fact = li.map_batches(rev, batch_format="pyarrow")
    fact = broadcast_lookup_join(
        fact, supp, on="l_suppkey", right_on="s_suppkey",
        payload=["s_nationkey"],
    )
    fact = broadcast_lookup_join(
        fact, oc.select_columns(["o_orderkey", "c_nationkey"]),
        on="l_orderkey", right_on="o_orderkey",
        payload=["c_nationkey"],
    )

    a_key = [k for k in keys_ab if name_of[k] == nation_a][0]
    b_key = [k for k in keys_ab if name_of[k] == nation_b][0]

    def pair_label(batch: pa.Table) -> pa.Table:
        s, c = batch.column("s_nationkey"), batch.column("c_nationkey")
        ab = pc.and_(pc.equal(s, a_key), pc.equal(c, b_key))
        ba = pc.and_(pc.equal(s, b_key), pc.equal(c, a_key))
        batch = batch.filter(pc.or_(ab, ba))
        s = batch.column("s_nationkey")
        supp_nation = pc.if_else(
            pc.equal(s, a_key), pa.scalar(nation_a), pa.scalar(nation_b)
        )
        cust_nation = pc.if_else(
            pc.equal(s, a_key), pa.scalar(nation_b), pa.scalar(nation_a)
        )
        return pa.table(
            {
                "supp_nation": supp_nation,
                "cust_nation": cust_nation,
                "l_year": batch.column("l_year"),
                "revenue_c4": batch.column("revenue_c4"),
            }
        )

    out = (
        _hagg_auto(fact.map_batches(pair_label, batch_format="pyarrow"), ["supp_nation", "cust_nation", "l_year"], [('revenue_c4', 'sum', 'revenue_c4')])
    )
    out = _scrub_schemaless(out)
    if out is None or out.count() == 0:
        # Dataset.to_pandas silently DROPS the schema of an all-empty
        # dataset (0-column frame) — return the schema-ful empty Arrow
        # table itself, which the driver contract explicitly allows
        return pa.schema(
            [
                ("supp_nation", pa.string()),
                ("cust_nation", pa.string()),
                ("l_year", pa.int64()),
                ("revenue_c4", pa.int64()),
            ]
        ).empty_table()
    return out.sort(["supp_nation", "cust_nation", "l_year"])


_DAY_US = 86_400 * 1_000_000


def events_active_users(sf_dir: str, window_days: int = 7) -> "Dataset | pa.Table":
    """DAU / WAU per active day: distinct daily active users, plus the
    trailing ``window_days`` distinct count (users active in
    [day - w + 1, day]) for every day that has events — the standard
    product-analytics activity rollup and the canonical EXACT
    distinct-count-over-sliding-window shape.

    Plan: per-batch (user, day) dedup combiner -> ONE global distinct
    groupby (the pair set is |users| x |active days|, far below event
    count); DAU is a groupby-count over it.  WAU fans each pair out to
    the w window-END days it participates in (bounded x w, the price
    of exactness — the approximate path is the per-day HLL in
    ops/sketches.py), semi-filters window ends to ACTIVE days via the
    broadcast day set (days are calendar-bounded: decades fit in KBs),
    dedups (end, user) per batch, and counts per end day.  The final
    DAU⋈WAU attach is a lookup join on the tiny per-day table."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    if ds.count() == 0:  # map_batches skips empty blocks: guard early
        return pa.schema(
            [("day", pa.int64()), ("n_dau", pa.int64()), ("n_wau", pa.int64())]
        ).empty_table()

    def days(batch: pa.Table) -> pa.Table:
        d = pc.divide(_ts_us(batch.column("ts")), _DAY_US)
        t = pa.table({"user_id": batch.column("user_id"), "day": d})
        return t.group_by(["user_id", "day"]).aggregate([])

    ud = (
        _hagg_auto(ds.map_batches(days, batch_format="pyarrow", batch_size=None), ["user_id", "day"], [('', 'count_all', '_n')])
        .drop_columns(["_n"])
        .materialize()
    )

    # ONE per-day aggregate feeds both DAU and the active-day set (a
    # second groupby over the corpus-pair-sized ud would be a wasted
    # full exchange); the per-day table is calendar-bounded (KBs)
    dau = _hagg_auto(ud, "day", [('', 'count_all', 'n_dau')]).materialize()
    n_days = dau.count()
    if n_days == 0:
        # empty events: Dataset.to_pandas drops all-empty schemas, so
        # return the schema-ful Arrow table (driver contract allows it)
        return pa.schema(
            [
                ("day", pa.int64()),
                ("n_dau", pa.int64()),
                ("n_wau", pa.int64()),
            ]
        ).empty_table()
    if n_days > 10_000_000:  # > ~27k years of days: corrupt timestamps
        raise ValueError(
            f"events_active_users: {n_days} distinct days exceeds the "
            "calendar-bounded broadcast budget — timestamps look corrupt"
        )
    dau_tab = _collect_small(_scrub_schemaless(dau), 10_000_000)
    active_days = pc.unique(dau_tab.column("day").combine_chunks())
    days_ref = ray.put(pc.cast(active_days, pa.int64()))

    def fan_out(batch: pa.Table) -> pa.Table:
        import numpy as np  # noqa: F811

        u = batch.column("user_id").to_numpy()
        d = batch.column("day").to_numpy()
        w = window_days
        end = (d[:, None] + np.arange(w)[None, :]).ravel()
        uu = np.repeat(u, w)
        keep = np.isin(end, ray.get(days_ref).to_numpy())
        t = pa.table(
            {
                "end_day": pa.array(end[keep], pa.int64()),
                "user_id": pa.array(uu[keep], pa.int64()),
            }
        )
        return t.group_by(["end_day", "user_id"]).aggregate([])

    # fan_out is numpy-heavy (w-way outer product + isin): re-widen the
    # few-block aggregate output to ~cluster width first so the compute
    # parallelizes, then ONE distinct reduce and the per-day count
    fan_width = max(8, int(ray.cluster_resources().get("CPU", 8)))
    fanned = ud.repartition(fan_width).map_batches(
        fan_out, batch_format="pyarrow", batch_size=None
    )
    wau = _hagg_auto(
        _hagg_auto(fanned, ["end_day", "user_id"], []),
        "end_day",
        [("", "count_all", "n_wau")],
    )

    out = broadcast_lookup_join(
        dau, wau, on="day", right_on="end_day", payload=["n_wau"]
    )
    return out.sort("day")


def events_weekly_churn(sf_dir: str) -> "Dataset | pa.Table":
    """Weekly churn: per active week, how many active users do NOT
    return the following week (mechanical definition — the final week
    churns everyone, matching the SQL LEFT-anti oracle), with the
    exact half-away ppm rate.

    Shape: the distinct (user, week) pair set (per-batch combiner +
    one groupby, same as retention), then ONE size-adaptive ANTI semi
    join of each pair's (user, week+1) probe key against the pair-key
    set itself — churn is pure key algebra, nothing event-sized moves
    after the first distinct."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    if ds.count() == 0:  # map_batches skips empty blocks: guard early
        return pa.schema(
            [
                ("week", pa.int64()),
                ("n_active", pa.int64()),
                ("n_churned", pa.int64()),
                ("churn_ppm", pa.int64()),
            ]
        ).empty_table()
    SEP = "\x1f"

    def weeks(batch: pa.Table) -> pa.Table:
        w = pc.divide(_ts_us(batch.column("ts")), _WEEK_US)
        t = pa.table({"user_id": batch.column("user_id"), "week": w})
        return t.group_by(["user_id", "week"]).aggregate([])

    uw = (
        _hagg_auto(ds.map_batches(weeks, batch_format="pyarrow", batch_size=None), ["user_id", "week"], [('', 'count_all', '_n')])
        .drop_columns(["_n"])
        .materialize()
    )

    def keyed(batch: pa.Table) -> pa.Table:
        u = pc.cast(batch.column("user_id"), pa.string())
        w = pc.cast(batch.column("week"), pa.string())
        wn = pc.cast(
            pc.add(batch.column("week"), pa.scalar(1, pa.int64())), pa.string()
        )
        return pa.table(
            {
                "week": batch.column("week"),
                "k": pc.binary_join_element_wise(u, w, SEP),
                "next_k": pc.binary_join_element_wise(u, wn, SEP),
            }
        )

    pairs = uw.map_batches(keyed, batch_format="pyarrow").materialize()
    churned = broadcast_semi_join(
        pairs.select_columns(["week", "next_k"]),
        pairs.select_columns(["k"]),
        on="next_k",
        right_on="k",
        anti=True,
    )

    active = _hagg_auto(uw, "week", [('', 'count_all', 'n_active')])
    churn = _hagg_auto(churned, "week", [('', 'count_all', 'n_churned')])
    # weeks are calendar-bounded (decades fit in KBs): broadcast the
    # churn counts and 0-fill weeks where everyone returned — an inner
    # lookup would silently DROP zero-churn weeks.  Distinguish the
    # genuinely-empty churn set from an over-budget collect: the
    # latter must FAIL LOUDLY, not report zero churn everywhere.
    churn_clean = _scrub_schemaless(churn.materialize())
    if churn_clean is None or churn_clean.count() == 0:
        churn_tab = None  # nobody churned anywhere (all users return)
    else:
        churn_tab = _collect_small(churn_clean, 10_000_000)
        if churn_tab is None:
            raise ValueError(
                "events_weekly_churn: distinct weeks exceed the "
                "calendar-bounded broadcast budget — timestamps look corrupt"
            )
    churn_ref = ray.put(
        churn_tab.combine_chunks() if churn_tab is not None else None
    )

    def rate(batch: pa.Table) -> pa.Table:
        ct = ray.get(churn_ref)
        a = batch.column("n_active").to_numpy()
        if ct is not None and ct.num_rows:
            idx = pc.index_in(batch.column("week"), value_set=ct.column("week"))
            c = np.where(
                pc.is_valid(idx).to_numpy(zero_copy_only=False),
                pc.take(
                    ct.column("n_churned"), pc.fill_null(pc.cast(idx, pa.int64()), 0)
                ).to_numpy(zero_copy_only=False),
                0,
            ).astype(np.int64)
        else:
            c = np.zeros(len(a), np.int64)
        ppm = (2_000_000 * c + a) // (2 * a)
        return pa.table(
            {
                "week": batch.column("week"),
                "n_active": batch.column("n_active"),
                "n_churned": pa.array(c, pa.int64()),
                "churn_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return active.map_batches(rate, batch_format="pyarrow").sort("week")


_PATHS_EMPTY = pa.schema(
    [
        ("t0", pa.string()),
        ("t1", pa.string()),
        ("t2", pa.string()),
        ("n_paths", pa.int64()),
    ]
)


def events_top_paths(sf_dir: str, k: int = 25) -> "Dataset | pa.Table":
    """Top-k second-order paths: the most frequent (t0, t1, t2)
    CONSECUTIVE event-type trigrams per user stream (ordered by ts_us,
    event_id) — the order-2 extension of the Markov matrix, the
    sequence-mining readout behind funnel discovery.

    Plan: the markov ``sorted_run_scan`` shape extended for a trio's
    3-block worst case.  Per block a vectorized double-shift pass
    counts every trigram fully INSIDE the block; each block's summary
    is its first 2 and last 2 (user, type) rows (ALL rows when the
    block has <= 4, so tiny blocks stay seamless) and an interior-gap
    flag.  The O(#blocks) driver walk rebuilds the gap-marked edge
    sequence in block order and counts exactly the trios that are
    pairwise-ADJACENT in global order (consecutive emitted positions
    with no gap between them, or a block tail meeting the next head),
    same-user, and NOT fully inside one block (those were counted
    distributedly).  The matrix is <= |types|^3 rows; top-k by
    (n desc, path asc) with the SQL tie order."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    if ds.count() == 0:  # map_batches skips empty blocks: guard early
        return _PATHS_EMPTY.empty_table()

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": _ts_us(batch.column("ts")),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    count_schema = pa.schema(
        [("t0", pa.string()), ("t1", pa.string()), ("t2", pa.string()), ("n", pa.int64())]
    )

    def scan(t: pa.Table):
        df = t.to_pandas()
        same1 = df["user_id"].eq(df["user_id"].shift())
        ok = same1 & df["user_id"].eq(df["user_id"].shift(2))
        trios = (
            pd.DataFrame(
                {
                    "t0": df["event_type"].shift(2)[ok],
                    "t1": df["event_type"].shift(1)[ok],
                    "t2": df["event_type"][ok],
                }
            )
            .groupby(["t0", "t1", "t2"], sort=True)
            .size()
            .rename("n")
            .reset_index()
        )
        n = len(df)
        idx = list(range(n)) if n <= 4 else [0, 1, n - 2, n - 1]
        # (user, type) of the emitted edge rows, and whether interior
        # rows sit between positions 1 and 2
        edge = (
            list(zip(df["user_id"].iloc[idx].tolist(), df["event_type"].iloc[idx].tolist())),
            n > 4,
        )
        return pa.Table.from_pandas(trios, schema=count_schema, preserve_index=False), edge

    # rebuild the gap-marked global edge sequence; each trio crossing a
    # block boundary rides to the block of its last row
    def stitch(edges: list) -> list[list[tuple[str, str, str]]]:
        seq = [
            (u, t, b, pos, gap)
            for b, (rows, gap) in enumerate(edges)
            for pos, (u, t) in enumerate(rows)
        ]
        # adj[i] = True iff row i+1 is the IMMEDIATE global successor
        # of row i: a block tail always meets the next block's head;
        # inside a block consecutive emitted positions are neighbors
        # unless the interior gap sits between 1 and 2
        adj = [
            b_next != b or not (gap and pos == 1 and pos_next == 2)
            for (_, _, b, pos, gap), (_, _, b_next, pos_next, _) in zip(seq, seq[1:])
        ]
        extra: list[list[tuple[str, str, str]]] = [[] for _ in edges]
        for i in range(len(seq) - 2):
            if not (adj[i] and adj[i + 1]):
                continue
            (u0, t0, b0, _, _), (u1, t1, b1, _, _), (u2, t2, b2, _, _) = seq[i : i + 3]
            if b0 == b1 == b2:
                continue  # fully in-block: already counted distributedly
            if u0 == u1 == u2:
                extra[b2].append((str(t0), str(t1), str(t2)))
        return extra

    def finish(trios, extra) -> pa.Table:
        if trios is None:
            return count_schema.empty_table()
        crossing = pa.Table.from_pylist(
            [{"t0": a, "t1": b, "t2": c, "n": 1} for a, b, c in extra],
            schema=count_schema,
        )
        return pa.concat_tables([trios, crossing])

    counts = sorted_run_scan(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["user_id", "ts_us", "event_id"],
        scan,
        stitch,
        finish,
    )
    merged = (
        _hagg_auto(counts, ["t0", "t1", "t2"], [('n', 'sum', 'n_paths')])
    )
    merged = _scrub_schemaless(merged)
    if merged is None:
        return _PATHS_EMPTY.empty_table()
    return merged.sort(
        ["n_paths", "t0", "t1", "t2"], descending=[True, False, False, False]
    ).limit(k)


def top_customers_with_ties(sf_dir: str, k: int = 20) -> Dataset:
    """Top-k by balance WITH TIES (``RANK() <= k``) — the rank-window
    semantic the plain limit-k queries don't cover: every row tying
    the k-th value survives.

    Distributed form: keep rows with ``value >= v_k`` where ``v_k`` is
    the k-th largest value INCLUDING duplicates — provably the same
    set as RANK() <= k (a row ties or beats the k-th row iff fewer
    than k rows are strictly greater).  One sort-limit pass finds the
    k-row threshold (k rows to the driver), one vectorized filter
    streams the survivors — no full-table rank materialization."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    def cents(batch: pa.Table) -> pa.Table:
        return batch.append_column("bal_c", _cents(batch.column("c_acctbal")))

    with_c = ds.map_batches(cents, batch_format="pyarrow")
    topk = with_c.select_columns(["bal_c"]).sort("bal_c", descending=True).limit(k)
    vals = topk.to_pandas()["bal_c"]
    if len(vals) == 0:
        return pa.schema(
            [
                ("c_custkey", pa.int64()),
                ("c_name", pa.string()),
                ("c_acctbal", pa.float64()),
            ]
        ).empty_table()
    v_k = int(vals.iloc[-1])

    def keep(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.greater_equal(batch.column("bal_c"), pa.scalar(v_k, pa.int64()))
        )
        return b.select(["c_custkey", "c_name", "c_acctbal"])

    return (
        with_c.map_batches(keep, batch_format="pyarrow")
        .sort(["c_acctbal", "c_custkey"], descending=[True, False])
    )


def _basket_items(sf_dir: str) -> "Dataset | None":
    """Distinct (basket, etype) items over (user, day) baskets —
    shared by the basket-pair and association-rule ops so the
    corpus-scale distinct exchange runs ONCE (materialized)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    if ds.count() == 0:
        return None
    SEP = "\x1f"

    def items(batch: pa.Table) -> pa.Table:
        d = pc.divide(_ts_us(batch.column("ts")), _DAY_US)
        bk = pc.binary_join_element_wise(
            pc.cast(batch.column("user_id"), pa.string()),
            pc.cast(d, pa.string()),
            SEP,
        )
        t = pa.table({"basket": bk, "etype": batch.column("event_type")})
        return t.group_by(["basket", "etype"]).aggregate([])

    return (
        _hagg_auto(ds.map_batches(items, batch_format="pyarrow", batch_size=None), ["basket", "etype"], [('', 'count_all', '_n')])
        .drop_columns(["_n"])
        .materialize()
    )


def events_basket_pairs(
    sf_dir: str, min_support: int = 2, items_ds: "Dataset | None" = None
) -> "Dataset | pa.Table":
    """Market-basket co-occurrence (A-priori level 2): support counts
    of event-type PAIRS across (user, day) baskets — how many baskets
    contain BOTH types, the association-rule-mining primitive.

    Shape: distinct (user, day, type) items (per-batch combiner, one
    groupby), then ONE self equi-join on the packed basket key — the
    fan-out is bounded by |types| per basket (small by schema), so the
    join is linear in items, not quadratic in events — an a < b filter
    keeps each unordered pair once, and a tiny |types|^2 groupby
    counts support.  ``min_support`` prunes the tail exactly like the
    SQL HAVING."""
    distinct = _basket_items(sf_dir) if items_ds is None else items_ds
    if distinct is None:
        return pa.schema(
            [
                ("type_a", pa.string()),
                ("type_b", pa.string()),
                ("n_baskets", pa.int64()),
            ]
        ).empty_table()

    rhs = distinct.map_batches(
        lambda b: pa.table(
            {"basket": b.column("basket"), "etype_b": b.column("etype")}
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(distinct, rhs, "basket")

    def keep_pairs(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.less(batch.column("etype"), batch.column("etype_b"))
        )
        t = pa.table({"type_a": b.column("etype"), "type_b": b.column("etype_b")})
        # per-batch combine ahead of the tiny pair groupby
        return t.group_by(["type_a", "type_b"]).aggregate([("type_a", "count")])

    pairs = (
        _hagg_auto(joined.map_batches(keep_pairs, batch_format="pyarrow", batch_size=None)
        .map_batches(
            lambda b: b.rename_columns(["type_a", "type_b", "n"]),
            batch_format="pyarrow",
        ), ["type_a", "type_b"], [('n', 'sum', 'n_baskets')])
        .filter(expr=f"n_baskets >= {min_support}")
    )
    pairs = _scrub_schemaless(pairs)
    if pairs is None:
        return pa.schema(
            [
                ("type_a", pa.string()),
                ("type_b", pa.string()),
                ("n_baskets", pa.int64()),
            ]
        ).empty_table()
    return pairs.sort(
        ["n_baskets", "type_a", "type_b"], descending=[True, False, False]
    )


def events_association_rules(
    sf_dir: str, min_support: int = 2
) -> "Dataset | pa.Table":
    """Association rules over the basket pairs: for every DIRECTED
    rule a -> b, support (baskets with both), confidence ppm
    (n_ab / n_a) and lift in ppm-of-ratio (confidence / P(b)) — the
    A-priori readout with every ratio an exact half-away integer so
    the row value-hashes against the SQL oracle.

    Shape: the basket_pairs machinery for n_ab plus ONE tiny
    per-type basket-count groupby (|types| rows, broadcast); both
    directions are emitted from the unordered pair table by a
    vectorized flip — no second join."""
    distinct = _basket_items(sf_dir)
    if distinct is None:  # empty events
        return pa.schema(
            [
                ("antecedent", pa.string()),
                ("consequent", pa.string()),
                ("n_baskets", pa.int64()),
                ("confidence_ppm", pa.int64()),
                ("lift_milli", pa.int64()),
            ]
        ).empty_table()
    # ONE distinct-items build feeds the pair join, the singleton
    # supports and the basket total — no duplicated corpus exchange
    pairs = events_basket_pairs(sf_dir, min_support=min_support, items_ds=distinct)
    _RULES_EMPTY = pa.schema(
        [
            ("antecedent", pa.string()),
            ("consequent", pa.string()),
            ("n_baskets", pa.int64()),
            ("confidence_ppm", pa.int64()),
            ("lift_milli", pa.int64()),
        ]
    )
    # no pair met min_support: basket_pairs returns a pa.Table (its
    # scrub-None branch) or an all-empty Dataset whose blocks
    # map_batches would pass through schema-less
    if isinstance(pairs, pa.Table):
        if pairs.num_rows == 0:
            return _RULES_EMPTY.empty_table()
        pairs = ray.data.from_arrow(pairs)
    elif pairs.count() == 0:
        return _RULES_EMPTY.empty_table()
    singles = (
        _hagg_auto(distinct, "etype", [('', 'count_all', 'n')])
    ).to_pandas()
    n_of = dict(zip(singles["etype"], singles["n"]))
    n_baskets_total = int(
        _hagg_auto(distinct.map_batches(
            lambda b: b.group_by(["basket"]).aggregate([]),
            batch_format="pyarrow",
        ), "basket", [('', 'count_all', '_c')])
        .count()
    )
    n_ref = ray.put((n_of, n_baskets_total))

    def rules(batch: pa.Table) -> pa.Table:
        # the rule table is <= |types|^2 rows — Python bignums here so
        # the lift numerator (2000 * n * total, ~1e21 at 1e9-basket
        # scale) can never wrap the way an int64 numpy product would
        n_of, total = ray.get(n_ref)
        a = batch.column("type_a").to_pylist()
        b = batch.column("type_b").to_pylist()
        n = batch.column("n_baskets").to_pylist()
        ant = a + b
        con = b + a
        nn = [int(x) for x in n] * 2
        conf, lift = [], []
        for x, aa, cc in zip(nn, ant, con):
            na, nc = int(n_of[aa]), int(n_of[cc])
            conf.append((2_000_000 * x + na) // (2 * na))
            # lift = confidence / (n_con / total) in exact milli units
            lift.append((2_000 * x * total + na * nc) // (2 * na * nc))
        return pa.table(
            {
                "antecedent": pa.array(ant, pa.string()),
                "consequent": pa.array(con, pa.string()),
                "n_baskets": pa.array(nn, pa.int64()),
                "confidence_ppm": pa.array(conf, pa.int64()),
                "lift_milli": pa.array(lift, pa.int64()),
            }
        )

    return (
        pairs.map_batches(rules, batch_format="pyarrow")
        .sort(["n_baskets", "antecedent", "consequent"],
              descending=[True, False, False])
    )


def events_value_winsorized(
    sf_dir: str,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
    hist_limit: int = _MAD_HIST_LIMIT,
) -> "Dataset | pa.Table":
    """Per-group winsorization: clip event values to their group's
    exact [p_lo, p_hi] PERCENTILE_DISC bounds — the outlier-taming
    transform that precedes any mean-based statistic on heavy-tailed
    spend data.

    Plan: the value-histogram path (one bounded
    ``groupby(event_type, cents)`` exchange with per-batch combine —
    same machinery and loud ``hist_limit`` guard as
    ``events_value_mad``); the per-group bounds are derived from the
    histogram alone (PERCENTILE_DISC(p) = the smallest value whose
    running count reaches ``ceil(p * n)``, computed in exact integer
    arithmetic with the fraction held as a rational), then broadcast,
    and ONE streaming pass clips.  Output per group: n_rows,
    n_clipped_lo/hi, lo/hi cents bounds, and the clipped-sum cents —
    every column an exact integer."""
    from fractions import Fraction

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"g": batch.column("event_type"), "c": _cents(batch.column("value"))}
        )
        out = t.group_by(["g", "c"]).aggregate([("c", "count")])
        return out.rename_columns(["g", "c", "n"])

    hist = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), ["g", "c"], [('n', 'sum', 'n')])
        .materialize()
    )
    # count FIRST so an empty input reaches the empty branch instead
    # of masquerading as an over-budget collect (the value_mad guard
    # discipline)
    n_hist = hist.count()
    if n_hist > hist_limit:
        raise ValueError(
            f"events_value_winsorized: histogram has {n_hist} rows "
            f"(> {hist_limit}) — use the sort-based percentile plan for "
            "unbounded domains"
        )
    hist_tab = (
        None if n_hist == 0 else _collect_small(_scrub_schemaless(hist), hist_limit)
    )
    if hist_tab is None or hist_tab.num_rows == 0:
        return pa.schema(
            [
                ("event_type", pa.string()),
                ("n_rows", pa.int64()),
                ("lo_cents", pa.int64()),
                ("hi_cents", pa.int64()),
                ("n_clipped_lo", pa.int64()),
                ("n_clipped_hi", pa.int64()),
                ("winsorized_sum_cents", pa.int64()),
            ]
        ).empty_table()

    from collections import defaultdict

    by_g: dict[str, list] = defaultdict(list)
    for g, c, n in zip(
        hist_tab.column("g").to_pylist(),
        hist_tab.column("c").to_pylist(),
        hist_tab.column("n").to_pylist(),
    ):
        by_g[str(g)].append((int(c), int(n)))

    flo, fhi = Fraction(p_lo).limit_denominator(10**6), Fraction(
        p_hi
    ).limit_denominator(10**6)
    out = {
        "event_type": [], "n_rows": [], "lo_cents": [], "hi_cents": [],
        "n_clipped_lo": [], "n_clipped_hi": [], "winsorized_sum_cents": [],
    }
    for g in sorted(by_g):
        pairs = sorted(by_g[g])
        total = sum(n for _, n in pairs)
        # PERCENTILE_DISC(p): smallest value whose cumulative count
        # reaches ceil(p * total) — exact rational arithmetic
        k_lo = max(1, -((-flo.numerator * total) // flo.denominator))
        k_hi = max(1, -((-fhi.numerator * total) // fhi.denominator))
        lo = hi = None
        cum = 0
        for v, n in pairs:
            cum += n
            if lo is None and cum >= k_lo:
                lo = v
            if cum >= k_hi:
                hi = v
                break
        n_lo = sum(n for v, n in pairs if v < lo)
        n_hi = sum(n for v, n in pairs if v > hi)
        wsum = sum(n * min(max(v, lo), hi) for v, n in pairs)
        out["event_type"].append(g)
        out["n_rows"].append(total)
        out["lo_cents"].append(lo)
        out["hi_cents"].append(hi)
        out["n_clipped_lo"].append(n_lo)
        out["n_clipped_hi"].append(n_hi)
        out["winsorized_sum_cents"].append(wsum)
    return ray.data.from_arrow(
        pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_rows": pa.array(out["n_rows"], pa.int64()),
                "lo_cents": pa.array(out["lo_cents"], pa.int64()),
                "hi_cents": pa.array(out["hi_cents"], pa.int64()),
                "n_clipped_lo": pa.array(out["n_clipped_lo"], pa.int64()),
                "n_clipped_hi": pa.array(out["n_clipped_hi"], pa.int64()),
                "winsorized_sum_cents": pa.array(
                    out["winsorized_sum_cents"], pa.int64()
                ),
            }
        )
    )


def events_conversion_latency(sf_dir: str) -> "Dataset | pa.Table":
    """Per-user conversion latency: seconds from a user's FIRST view
    to their FIRST purchase (users whose first purchase follows a
    first view) — the funnel-latency readout behind activation
    dashboards.

    Shape: one conditional-min pass (per-batch masked mins as the
    combiner) -> ONE groupby(user) with two Min aggregates -> a
    vectorized filter/derive.  Nothing event-sized moves twice."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    if ds.count() == 0:
        return pa.schema(
            [
                ("user_id", pa.int64()),
                ("first_view_us", pa.int64()),
                ("first_purchase_us", pa.int64()),
                ("latency_s", pa.int64()),
            ]
        ).empty_table()
    BIG = 2**62  # null-surrogate: Min ignores it unless no real value

    def masked(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch.column("ts"))
        et = batch.column("event_type")
        view = pc.if_else(pc.equal(et, "view"), us, pa.scalar(BIG, pa.int64()))
        purch = pc.if_else(
            pc.equal(et, "purchase"), us, pa.scalar(BIG, pa.int64())
        )
        t = pa.table(
            {"user_id": batch.column("user_id"), "v": view, "p": purch}
        )
        return t.group_by(["user_id"]).aggregate([("v", "min"), ("p", "min")])

    agg = (
        _hagg_auto(ds.map_batches(
            lambda b: masked(b).rename_columns(["user_id", "v", "p"]),
            batch_format="pyarrow",
        ), "user_id", [('v', 'min', 'v'), ('p', 'min', 'p')])
    )

    def finish(batch: pa.Table) -> pa.Table:
        v, p = batch.column("v"), batch.column("p")
        ok = pc.and_(
            pc.and_(pc.less(v, pa.scalar(BIG, pa.int64())),
                    pc.less(p, pa.scalar(BIG, pa.int64()))),
            pc.greater(p, v),
        )
        b = batch.filter(ok)
        lat = pc.divide(
            pc.subtract(b.column("p"), b.column("v")),
            pa.scalar(1_000_000, pa.int64()),
        )
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "first_view_us": b.column("v"),
                "first_purchase_us": b.column("p"),
                "latency_s": lat,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("user_id")


def q14_promo_revenue(
    sf_dir: str, year: int = 1996, month: int = 5
) -> "Dataset | pa.Table":
    """TPC-H Q14-style promo revenue share: the fraction (exact ppm)
    of one month's discounted revenue coming from PROMO-type parts —
    the conditional-aggregation-over-a-dimension-join classic.

    Shape: month filter + revenue derive in the fact pass, ONE
    size-adaptive lookup join attaching p_type, then mergeable limb
    sums (revenue c4 per row reaches ~1e9, so a plain int64 Sum wraps
    near 1e10 rows) recombined on the driver for the exact half-away
    ppm.  Sums are asserted back into int64 for the output row —
    loudly, not by silent wrap."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def is_promo(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "promo": pc.cast(
                    pc.equal(batch.column("p_type"), "PROMO"), pa.int64()
                ),
            }
        )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("l_shipdate"))
        mo = pc.month(batch.column("l_shipdate"))
        keep = pc.and_(pc.equal(yr, year), pc.equal(mo, month))
        batch = batch.filter(keep)
        price_c = _cents(batch.column("l_extendedprice"))
        disc = _cents(batch.column("l_discount"))
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "rev_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc)
                ),
            }
        )

    fact = broadcast_lookup_join(
        li.map_batches(rev, batch_format="pyarrow"),
        part.map_batches(is_promo, batch_format="pyarrow"),
        on="l_partkey",
        right_on="p_partkey",
        payload=["promo"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        r = batch.column("rev_c4").to_numpy()
        p = batch.column("promo").to_numpy()
        t_hi, t_lo = _limb_sums(r)
        p_hi, p_lo = _limb_sums(r * p)
        return pa.table(
            {
                "n": pa.array([len(r)], pa.int64()),
                "t_hi": pa.array([t_hi], pa.int64()),
                "t_lo": pa.array([t_lo], pa.int64()),
                "p_hi": pa.array([p_hi], pa.int64()),
                "p_lo": pa.array([p_lo], pa.int64()),
            }
        )

    agg = fact.map_batches(partial, batch_format="pyarrow", batch_size=None).aggregate(
        *[Sum(c, alias_name=c) for c in ("n t_hi t_lo p_hi p_lo".split())]
    )
    if not agg or not agg.get("n"):
        return pa.schema(
            [
                ("n_rows", pa.int64()),
                ("total_rev_c4", pa.int64()),
                ("promo_rev_c4", pa.int64()),
                ("promo_ppm", pa.int64()),
            ]
        ).empty_table()
    shift = 31
    total = (int(agg["t_hi"]) << shift) + int(agg["t_lo"])
    promo = (int(agg["p_hi"]) << shift) + int(agg["p_lo"])
    assert total < 2**63 and promo < 2**63, "q14: sums exceed int64 output"
    ppm = 0 if total == 0 else (2_000_000 * promo + total) // (2 * total)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_rows": pa.array([int(agg["n"])], pa.int64()),
                "total_rev_c4": pa.array([total], pa.int64()),
                "promo_rev_c4": pa.array([promo], pa.int64()),
                "promo_ppm": pa.array([ppm], pa.int64()),
            }
        )
    )


def events_similar_users(
    sf_dir: str, k: int = 3, profile_budget: int = 4_000_000
) -> "Dataset | pa.Table":
    """Collaborative-filtering user similarity: each user's top-k
    cosine-nearest users by event-type PROFILE (integer count
    vectors) — the user-user neighborhood primitive behind
    recommend-people-like-you.

    Shape: ONE (user, type) count groupby (per-batch combine) builds
    the profile matrix; it is broadcast once (|users| x |types| ints —
    a loud guard trips past ``profile_budget`` users, where the
    LSH/IVF paths in ops/similarity.py are the right tool) and each
    batch scores its users against the matrix with one numpy matmul.
    Dots and norms are EXACT int64 (counts), so ranking is bit-stable;
    the reported cosine uses the cast-each-then-multiply float recipe
    ``dot / sqrt(float(na) * float(nb))`` mirrored VERBATIM by the SQL
    oracle (casting the na*nb PRODUCT would round differently).
    Zero-overlap pairs are excluded (they are not neighbors, matching
    the SQL inner dot join)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def counts(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"user_id": batch.column("user_id"), "etype": batch.column("event_type")}
        )
        out = t.group_by(["user_id", "etype"]).aggregate([("etype", "count")])
        return out.rename_columns(["user_id", "etype", "n"])

    prof = (
        _hagg_auto(ds.map_batches(counts, batch_format="pyarrow", batch_size=None), ["user_id", "etype"], [('n', 'sum', 'n')])
        .materialize()
    )
    n_users_types = prof.count()
    if n_users_types == 0:
        return pa.schema(
            [
                ("src", pa.int64()),
                ("dst", pa.int64()),
                ("rank", pa.int64()),
                ("cosine_sim", pa.float64()),
            ]
        ).empty_table()
    if n_users_types > profile_budget:
        raise ValueError(
            f"events_similar_users: {n_users_types} profile rows exceed the "
            "broadcast budget — use the LSH/IVF ANN paths for this scale"
        )
    pdf = prof.to_pandas()
    types = sorted(pdf["etype"].unique())
    t_ix = {t: i for i, t in enumerate(types)}
    users = np.sort(pdf["user_id"].unique())
    u_ix = {u: i for i, u in enumerate(users)}
    M = np.zeros((len(users), len(types)), np.int64)
    for u, t, n in zip(pdf["user_id"], pdf["etype"], pdf["n"]):
        M[u_ix[u], t_ix[t]] = n
    nn = (M * M).sum(axis=1)  # exact squared norms
    mat_ref = ray.put((users, M, nn))

    def topk(batch: pa.Table) -> pa.Table:
        users_, M_, nn_ = ray.get(mat_ref)
        out = {"src": [], "dst": [], "rank": [], "cosine_sim": []}
        src_ids = batch.column("user_id").to_numpy()
        rows = np.searchsorted(users_, src_ids)
        dots = M_[rows] @ M_.T  # exact int64 (counts are small vs 2^63)
        for r, src in enumerate(src_ids):
            d = dots[r]
            mask = (d > 0) & (users_ != src)
            cand = np.flatnonzero(mask)
            if not len(cand):
                continue
            sim = d[cand] / np.sqrt(
                nn_[rows[r]].astype(np.float64) * nn_[cand].astype(np.float64)
            )
            order = np.lexsort((users_[cand], -sim))[:k]
            for j, o in enumerate(order):
                out["src"].append(int(src))
                out["dst"].append(int(users_[cand[o]]))
                out["rank"].append(j)
                out["cosine_sim"].append(round(float(sim[o]), 6))
        return pa.table(
            {
                "src": pa.array(out["src"], pa.int64()),
                "dst": pa.array(out["dst"], pa.int64()),
                "rank": pa.array(out["rank"], pa.int64()),
                "cosine_sim": pa.array(out["cosine_sim"], pa.float64()),
            }
        )

    # the sorted user array is ALREADY on the driver — feed it back as
    # the query set instead of launching another distinct exchange
    srcs = ray.data.from_arrow(pa.table({"user_id": pa.array(users, pa.int64())}))
    return srcs.map_batches(topk, batch_format="pyarrow").sort(["src", "rank"])


def events_user_gini(sf_dir: str) -> "Dataset | pa.Table":
    """Exact Gini coefficient of per-user activity (how unequal is the
    event distribution across users — the 80/20 readout behind
    whale-user analysis), in exact half-away ppm.

    G = (2 * sum(i * x_i) - (n + 1) * sum(x)) / (n * sum(x)) over the
    ascending-sorted per-user counts (rank-weighted sum form; ties can
    take any order among equal x without changing the sum, so the
    result is partition-independent).

    Shape: ONE per-user count groupby, then ``sorted_run_scan`` on the
    count: per block a single vectorized pass gives the summary (rows,
    sum_x, sum_local_rank_x) — the O(#blocks) driver carry scan
    converts local ranks to global via offset * sum_x per block, and
    the closed form is evaluated in Python bignums.  This is the
    sorted-run prefix shape of doc_pack_blocks applied to a
    scalar reduction: nothing user-sized reaches the driver."""
    ds = _read(sf_dir, "events", ["user_id"])
    out_schema = pa.schema(
        [("n_users", pa.int64()), ("n_events", pa.int64()), ("gini_ppm", pa.int64())]
    )
    if ds.count() == 0:
        return out_schema.empty_table()

    counts = (
        _hagg_auto(ds.map_batches(
            lambda b: (
                b.group_by(["user_id"]).aggregate([("user_id", "count")])
            ).rename_columns(["user_id", "x"]),
            batch_format="pyarrow",
        ), "user_id", [('x', 'sum', 'x')])
    )

    def scan(batch: pa.Table):
        n = batch.num_rows
        x = batch.column("x").to_numpy()
        # local ranks are 1-based within the block; j * x stays well
        # below int64 per row but the SUM rides as limb pairs (rank ~
        # 1e9 x count ~ 1e9 = 1e18/row at whale scale)
        j = np.arange(1, n + 1, dtype=np.int64)
        hi, lo = _limb_sums(j * x)
        return None, (n, int(x.sum(dtype=np.int64)), hi, lo)

    # the closed form over all blocks; its one row rides to block 0
    def stitch(parts: list) -> list:
        n_total = sum(rows for rows, _, _, _ in parts)
        sx = sum(sum_x for _, sum_x, _, _ in parts)
        six = 0
        offset = 0
        for rows, sum_x, hi, lo in parts:
            six += (hi << _LIMB_SHIFT) + lo + offset * sum_x
            offset += rows
        num = 2 * six - (n_total + 1) * sx
        den = n_total * sx
        ppm = 0 if den == 0 else (2_000_000 * num + den) // (2 * den)
        return [[(n_total, sx, ppm)]] + [[]] * (len(parts) - 1)

    def finish(_, rows) -> pa.Table:
        return pa.Table.from_pylist(
            [dict(zip(out_schema.names, r)) for r in rows or []],
            schema=out_schema,
        )

    return sorted_run_scan(counts, ["x", "user_id"], scan, stitch, finish)


def events_burstiness(sf_dir: str, min_gaps: int = 5) -> "Dataset | pa.Table":
    """Per-user burstiness B = (sigma - mu) / (sigma + mu) of the
    inter-event gaps (Goh & Barabasi 2008): B -> -1 for metronome
    users, ~0 for Poisson arrivals, -> +1 for extreme burst-and-
    silence — the temporal-dynamics readout behind bot detection.

    Shape: the sessionize/markov ``sorted_run_scan`` family — ONE
    global (user, ts_us, event_id) sort, per-block vectorized gap
    moments (n, sum, sum-of-squares as limb pairs: gap^2 in us^2
    reaches ~1e22 only past 40-day gaps, but limbs make the reduction
    exact regardless) with the block's head and tail as its summary;
    the O(#blocks) driver stitch adds the one straddling gap per
    boundary; the per-user moment table is user-sized, so the final
    reduce is ONE groupby.  sigma uses the population variance from
    exact integer sums; B is ONE float expression mirrored verbatim by
    the SQL oracle (9 dp)."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    if ds.count() == 0:
        return pa.schema(
            [
                ("user_id", pa.int64()),
                ("n_gaps", pa.int64()),
                ("burstiness", pa.float64()),
            ]
        ).empty_table()

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": _ts_us(batch.column("ts")),
                "event_id": batch.column("event_id"),
            }
        )

    _Q = "qa_hi qa_lo qb_hi qb_lo qc_hi qc_lo".split()
    mom_schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "n", "s", *_Q)]
    )
    from renard_ray.ops.communities import _sq_limbs

    def scan(tab: pa.Table):
        df = tab.to_pandas()
        u = df["user_id"].to_numpy()
        t = df["ts_us"].to_numpy()
        same = u[1:] == u[:-1]
        gaps = (t[1:] - t[:-1])[same]
        gu = u[1:][same]
        order = np.argsort(gu, kind="stable")
        gu_s, g_s = gu[order], gaps[order]
        uniq, starts = np.unique(gu_s, return_index=True)
        ends = np.r_[starts[1:], len(gu_s)]

        rows = {k: [] for k in ("user_id", "n", "s", *_Q)}
        for uu, st, en in zip(uniq, starts, ends):
            g = g_s[st:en]
            # gap^2 in us^2 wraps int64 past ~50-minute gaps — the
            # split-square encoding keeps every per-row component in
            # range for any gap < 2^62 us (146k years)
            sq = _sq_limbs(g)
            rows["user_id"].append(int(uu))
            rows["n"].append(int(en - st))
            rows["s"].append(int(g.sum(dtype=np.int64)))
            for c, v in zip(_Q, sq):
                rows[c].append(v)
        mom = pa.Table.from_pandas(pd.DataFrame(rows), schema=mom_schema, preserve_index=False)
        # the block's head and tail (user, ts_us)
        edge = tuple((int(u[i]), int(t[i])) for i in (0, -1))
        return mom, edge

    # the one straddling gap per block boundary where the user
    # continues rides to the later block
    def stitch(edges: list) -> list[list[tuple]]:
        extra: list[list[tuple]] = [[]]
        for (_, (u_a, t_a)), ((u_b, t_b), _) in zip(edges, edges[1:]):
            gap = t_b - t_a
            extra.append(
                [(u_a, 1, gap, *_sq_limbs(np.array([gap], np.int64)))] if u_a == u_b else []
            )
        return extra

    def with_crossing(mom, extra) -> pa.Table:
        if mom is None:
            return mom_schema.empty_table()
        crossing = pa.Table.from_pylist(
            [dict(zip(mom_schema.names, r)) for r in extra], schema=mom_schema
        )
        return pa.concat_tables([mom, crossing])

    moments = sorted_run_scan(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["user_id", "ts_us", "event_id"],
        scan,
        stitch,
        with_crossing,
    )

    agg = _hagg_auto(
        moments, "user_id", [(c, "sum", c) for c in ("n", "s", *_Q)]
    )

    def finish(batch: pa.Table) -> pa.Table:
        import math

        out = {"user_id": [], "n_gaps": [], "burstiness": []}
        for r in batch.to_pylist():
            n = int(r["n"])
            if n < min_gaps:
                continue
            s = int(r["s"])
            sh = _LIMB_SHIFT
            q = (
                ((((int(r["qa_hi"]) << sh) + int(r["qa_lo"]))) << (2 * sh))
                + ((((int(r["qb_hi"]) << sh) + int(r["qb_lo"]))) << sh)
                + ((int(r["qc_hi"]) << sh) + int(r["qc_lo"]))
            )
            # population variance * n^2 = n*q - s^2 (exact int)
            var_n2 = n * q - s * s
            sigma = math.sqrt(float(var_n2)) / n
            mu = s / n
            if sigma + mu == 0:
                continue
            out["user_id"].append(int(r["user_id"]))
            out["n_gaps"].append(n)
            out["burstiness"].append(round((sigma - mu) / (sigma + mu), 9))
        return pa.table(
            {
                "user_id": pa.array(out["user_id"], pa.int64()),
                "n_gaps": pa.array(out["n_gaps"], pa.int64()),
                "burstiness": pa.array(out["burstiness"], pa.float64()),
            }
        )

    res = _scrub_schemaless(agg.map_batches(finish, batch_format="pyarrow"))
    if res is None:
        return pa.schema(
            [
                ("user_id", pa.int64()),
                ("n_gaps", pa.int64()),
                ("burstiness", pa.float64()),
            ]
        ).empty_table()
    return res.sort("user_id")


def q10_returned_revenue(
    sf_dir: str,
    date_lo: str = "1996-01-01",
    date_hi: str = "1996-04-01",
    k: int = 20,
) -> "Dataset | pa.Table":
    """TPC-H Q10-style returned-item report: the top-``k`` customers by
    exact revenue from RETURNED lineitems of one quarter's orders, with
    customer and nation detail attached AFTER the top-k.

    Shape notes (100 TB-safe): the quarter filter prunes orders in the
    scan pass before anything rides a join; returned lineitems attach
    ``o_custkey`` via the size-adaptive lookup join (orders keyed UNIQUE
    on o_orderkey — broadcast under the row budget, hash join past it);
    ONE per-customer groupby-sum; top-k = sort-limit with the
    (revenue desc, custkey asc) tie-break mirrored in the oracle; and
    the customer/nation detail attach is a streaming semi-filter over
    customer against the k driver-held keys — the corpus-scale customer
    table never crosses a shuffle for a k-row answer."""
    lo = _dt.datetime.fromisoformat(date_lo)
    hi = _dt.datetime.fromisoformat(date_hi)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def in_window(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        keep = pc.and_(
            pc.greater_equal(d, pa.scalar(lo)), pc.less(d, pa.scalar(hi))
        )
        t = batch.filter(keep)
        return pa.table(
            {"o_orderkey": t.column("o_orderkey"), "o_custkey": t.column("o_custkey")}
        )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def returned_rev(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        price_c = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "rev_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc)
                ),
            }
        )

    fact = broadcast_lookup_join(
        li.map_batches(returned_rev, batch_format="pyarrow"),
        orders.map_batches(in_window, batch_format="pyarrow"),
        on="l_orderkey",
        right_on="o_orderkey",
        payload=["o_custkey"],
    )
    per_cust = _scrub_schemaless(
        _hagg_auto(fact, "o_custkey", [('rev_c4', 'sum', 'revenue_c4')])
    )
    out_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("c_name", pa.string()),
            ("revenue_c4", pa.int64()),
            ("acctbal_c", pa.int64()),
            ("n_name", pa.string()),
        ]
    )
    if per_cust is None:
        return out_schema.empty_table()
    top = _collect_small(
        per_cust.sort(
            ["revenue_c4", "o_custkey"], descending=[True, False]
        ).limit(k),
        k,
    )
    if top is None or top.num_rows == 0:
        return out_schema.empty_table()

    # detail attach: k keys broadcast into ONE streaming pass over
    # customer (semi filter), then a driver-side k-row assembly — the
    # only rows ever held on the driver are the k winners.  drop_null:
    # a null key in the value set would match null-keyed customer rows
    # via index_in, where SQL inner-join semantics drop them
    key_ref = ray.put(pc.drop_null(top.column("o_custkey")).combine_chunks())

    def pick_customers(batch: pa.Table) -> pa.Table:
        ks = ray.get(key_ref)
        return batch.filter(pc.is_valid(pc.index_in(batch.column("c_custkey"), value_set=ks)))

    cust = _collect_small(
        _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
        .map_batches(pick_customers, batch_format="pyarrow"),
        max(k, 64),
    )
    if cust is None:
        raise ValueError("q10: detail attach exceeded the k-row budget")
    nat = _collect_small(_read(sf_dir, "nation", ["n_nationkey", "n_name"]), 1_000_000)
    if nat is None:
        raise ValueError("q10: nation table exceeded the broadcast budget")
    # k-row assembly (driver): revenue order from `top`, detail by key
    ci = pc.index_in(top.column("o_custkey"), value_set=cust.column("c_custkey"))
    # FK holds in TPC-H data; a missing customer would surface as null
    ni = pc.index_in(
        pc.take(cust.column("c_nationkey"), ci), value_set=nat.column("n_nationkey")
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "c_custkey": pc.cast(top.column("o_custkey"), pa.int64()),
                "c_name": pc.take(cust.column("c_name"), ci),
                "revenue_c4": pc.cast(top.column("revenue_c4"), pa.int64()),
                "acctbal_c": _cents(pc.take(cust.column("c_acctbal"), ci)),
                "n_name": pc.take(nat.column("n_name"), ni),
            }
        )
    )


def q13_customer_distribution(sf_dir: str) -> "Dataset | pa.Table":
    """TPC-H Q13-style customer order-count distribution ("custdist"):
    how many customers placed exactly N orders, INCLUDING the N=0 row
    that the textbook LEFT JOIN produces.

    Shape notes: per-customer counts come from ONE groupby over the
    pruned (o_custkey) scan; the LEFT JOIN is decomposed scale-safely —
    counts are semi-filtered against customer keys (size-adaptive:
    broadcast under the budget, hash join past it) instead of dragging
    the corpus-scale customer table through an outer join, and the N=0
    bucket is recovered arithmetically as count(customer) minus the
    matched-customer total from the (tiny, #distinct-counts-sized)
    count-of-counts table.  Second exchange is O(distinct counts), the
    zipf-spectrum re-combine shape."""
    counts = _hagg_auto(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey", [('', 'count_all', 'count()')])
    counts = _scrub_schemaless(counts)
    n_customers = _read(sf_dir, "customer", ["c_custkey"]).count()
    out_schema = pa.schema([("c_count", pa.int64()), ("custdist", pa.int64())])
    if counts is None:
        if n_customers == 0:
            return out_schema.empty_table()
        return pa.table(
            {"c_count": pa.array([0], pa.int64()),
             "custdist": pa.array([n_customers], pa.int64())},
        )
    matched = broadcast_semi_join(
        counts,
        _read(sf_dir, "customer", ["c_custkey"]),
        on="o_custkey",
        right_on="c_custkey",
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"c_count": pc.cast(batch.column("count()"), pa.int64())})

    dist = _scrub_schemaless(
        _hagg_auto(matched.map_batches(rename, batch_format="pyarrow"), "c_count", [('', 'count_all', 'custdist')])
    )
    # distinct order-counts per customer is a tiny domain at any corpus
    # size (bounded by the max orders one customer ever placed)
    tab = _collect_small(dist, 1_000_000) if dist is not None else None
    if dist is not None and tab is None:
        raise ValueError("q13: count-of-counts exceeded the driver budget")
    if tab is None:
        tab = out_schema.empty_table()
    tab = pa.table(
        {
            "c_count": pc.cast(tab.column("c_count"), pa.int64()),
            "custdist": pc.cast(tab.column("custdist"), pa.int64()),
        }
    )
    n_matched = int(pc.sum(tab.column("custdist")).as_py() or 0)
    n_zero = n_customers - n_matched
    if n_zero > 0:
        tab = pa.concat_tables(
            [
                pa.table(
                    {"c_count": pa.array([0], pa.int64()),
                     "custdist": pa.array([n_zero], pa.int64())}
                ),
                tab,
            ]
        )
    if tab.num_rows == 0:
        return out_schema.empty_table()
    return ray.data.from_arrow(tab)


def q18_large_volume_customers(
    sf_dir: str, min_qty: int = 250
) -> "Dataset | pa.Table":
    """TPC-H Q18-style large-volume-customer report: every order whose
    total lineitem quantity exceeds ``min_qty``, with order and customer
    detail attached — the HAVING-subquery + double join-back shape.

    Shape notes: ONE groupby-sum over the pruned (l_orderkey, qty)
    scan, fed by a per-batch group_by combiner (lineitem is clustered
    by orderkey, so the exchange carries roughly one row per order per
    batch instead of one per line), a streaming HAVING filter (the
    qualifying-order table is a
    tiny fraction of orders by construction — the threshold selects the
    tail), then orders rows survive a size-adaptive SEMI join against
    the qualifying keys and pick up ``sum_qty`` via the size-adaptive
    lookup join; customer names attach the same way.  Neither the
    corpus-scale orders nor customer table is ever collected."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def derive(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "qty_i": _int(batch.column("l_quantity")),
            }
        )
        return (
            t.group_by(["l_orderkey"])
            .aggregate([("qty_i", "sum")])
            .rename_columns(["l_orderkey", "qty_i"])
        )

    from renard_ray.ops.hashagg import hash_aggregate

    per_order = _scrub_schemaless(
        hash_aggregate(
            li.map_batches(derive, batch_format="pyarrow", batch_size=None),
            "l_orderkey",
            [("qty_i", "sum", "sum_qty")],
        )
    )
    out_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("c_name", pa.string()),
            ("o_orderkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("totalprice_c", pa.int64()),
            ("sum_qty", pa.int64()),
        ]
    )
    if per_order is None:
        return out_schema.empty_table()
    big = per_order.filter(expr=f"sum_qty > {int(min_qty)}")

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    qualified = broadcast_lookup_join(
        orders,
        big,
        on="o_orderkey",
        right_on="l_orderkey",
        payload=["sum_qty"],
    )
    named = broadcast_lookup_join(
        qualified,
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
        on="o_custkey",
        right_on="c_custkey",
        payload=["c_name"],
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
                "c_name": batch.column("c_name"),
                "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
                "o_orderdate": batch.column("o_orderdate"),
                "totalprice_c": _cents(batch.column("o_totalprice")),
                "sum_qty": pc.cast(batch.column("sum_qty"), pa.int64()),
            }
        )

    res = _scrub_schemaless(named.map_batches(project, batch_format="pyarrow"))
    if res is None:
        return out_schema.empty_table()
    return res


# Q19's disjunctive branches, adapted to the synthetic part domain:
# (brand, size_lo, size_hi, qty_lo, qty_hi) — brands are disjoint, so a
# part qualifies for at most ONE branch and the per-part quantity
# window can ride the lookup join as two payload columns.
_Q19_BRANCHES: tuple = (
    ("Brand#1", 1, 15, 1, 20),
    ("Brand#2", 1, 25, 10, 30),
    ("Brand#3", 1, 35, 20, 40),
)


def q19_disjunctive_revenue(sf_dir: str) -> "Dataset | pa.Table":
    """TPC-H Q19-style disjunctive-predicate revenue: exact revenue
    from lineitems matching any of three (brand, size-range,
    quantity-range) OR-branches — the multi-branch pushdown shape.

    Shape notes: the part-side predicate of EVERY branch is evaluated
    in one vectorized pass over the (tiny-by-selectivity) part table,
    which collapses the disjunction into per-part (qty_lo, qty_hi)
    payload columns; non-qualifying parts never enter the join, so the
    lineitem side sees a plain size-adaptive lookup join plus ONE
    vectorized range filter.  Revenue rides as base-2^31 limb pairs
    (rev_c4 is ~1e9/row; a plain int64 Sum wraps near 1e10 rows) and
    is recombined exactly on the driver."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def qualify(batch: pa.Table) -> pa.Table:
        brand = batch.column("p_brand")
        size = pc.cast(batch.column("p_size"), pa.int64())
        keep = pa.array([False] * batch.num_rows, pa.bool_())
        qlo = np.zeros(batch.num_rows, np.int64)
        qhi = np.zeros(batch.num_rows, np.int64)
        for b, slo, shi, lo, hi in _Q19_BRANCHES:
            m = pc.and_(
                pc.equal(brand, b),
                pc.and_(
                    pc.greater_equal(size, pa.scalar(slo, pa.int64())),
                    pc.less_equal(size, pa.scalar(shi, pa.int64())),
                ),
            )
            mnp = m.to_numpy(zero_copy_only=False)
            qlo[mnp] = lo
            qhi[mnp] = hi
            keep = pc.or_(keep, m)
        t = pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "qty_lo": pa.array(qlo, pa.int64()),
                "qty_hi": pa.array(qhi, pa.int64()),
            }
        )
        return t.filter(keep)

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    )

    def rev(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch.column("l_extendedprice"))
        disc = _cents(batch.column("l_discount"))
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "qty_i": _int(batch.column("l_quantity")),
                "rev_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc)
                ),
            }
        )

    fact = broadcast_lookup_join(
        li.map_batches(rev, batch_format="pyarrow"),
        part.map_batches(qualify, batch_format="pyarrow", batch_size=None),
        on="l_partkey",
        right_on="p_partkey",
        payload=["qty_lo", "qty_hi"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        q = batch.column("qty_i")
        keep = pc.and_(
            pc.greater_equal(q, batch.column("qty_lo")),
            pc.less_equal(q, batch.column("qty_hi")),
        )
        r = batch.filter(keep).column("rev_c4").to_numpy()
        hi, lo = _limb_sums(r)
        return pa.table(
            {
                "n": pa.array([len(r)], pa.int64()),
                "r_hi": pa.array([hi], pa.int64()),
                "r_lo": pa.array([lo], pa.int64()),
            }
        )

    agg = fact.map_batches(partial, batch_format="pyarrow", batch_size=None).aggregate(
        Sum("n", alias_name="n"),
        Sum("r_hi", alias_name="r_hi"),
        Sum("r_lo", alias_name="r_lo"),
    ) or {}
    n = int(agg.get("n") or 0)
    total = ((int(agg.get("r_hi") or 0)) << _LIMB_SHIFT) + int(agg.get("r_lo") or 0)
    assert total < 2**63, "q19: revenue exceeds int64 output"
    return ray.data.from_arrow(
        pa.table(
            {
                "n_rows": pa.array([n], pa.int64()),
                "revenue_c4": pa.array([total], pa.int64()),
            }
        )
    )


def q15_top_supplier(
    sf_dir: str, date_lo: str = "1996-01-01", date_hi: str = "1996-04-01"
) -> "Dataset | pa.Table":
    """TPC-H Q15-style top supplier: the supplier(s) whose 3-month
    revenue equals the MAXIMUM over all suppliers — the
    max-over-aggregate (view + scalar subquery) shape, WITH ties.

    Shape notes: one window-pruned scan + ONE per-supplier groupby-sum;
    the global max is a driver scalar from a Max aggregate; winners
    come out of a streaming equality filter (ties all survive, as in
    the spec) and their detail attaches via a k-row semi-filter over
    supplier — nothing supplier-scale is ever collected beyond the
    (provably tiny) winner set."""
    lo = _dt.datetime.fromisoformat(date_lo)
    hi = _dt.datetime.fromisoformat(date_hi)
    li = _read(
        sf_dir, "lineitem",
        ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev(batch: pa.Table) -> pa.Table:
        d = batch.column("l_shipdate")
        t = batch.filter(
            pc.and_(pc.greater_equal(d, pa.scalar(lo)), pc.less(d, pa.scalar(hi)))
        )
        price_c = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        return pa.table(
            {
                "l_suppkey": t.column("l_suppkey"),
                "rev_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc)
                ),
            }
        )

    per_supp = _scrub_schemaless(
        _hagg_auto(li.map_batches(rev, batch_format="pyarrow"), "l_suppkey", [('rev_c4', 'sum', 'total_revenue_c4')])
    )
    out_schema = pa.schema(
        [
            ("s_suppkey", pa.int64()),
            ("s_name", pa.string()),
            ("total_revenue_c4", pa.int64()),
        ]
    )
    if per_supp is None:
        return out_schema.empty_table()
    best = (per_supp.aggregate(Max("total_revenue_c4")) or {}).get(
        "max(total_revenue_c4)"
    )
    if best is None:
        return out_schema.empty_table()
    winners = _collect_small(
        per_supp.filter(expr=f"total_revenue_c4 == {int(best)}"), 100_000
    )
    if winners is None:
        raise ValueError("q15: winner set exceeded the driver budget")
    # drop_null for the same index_in null-matching hazard as q10
    key_ref = ray.put(pc.drop_null(winners.column("l_suppkey")).combine_chunks())

    def pick(batch: pa.Table) -> pa.Table:
        ks = ray.get(key_ref)
        return batch.filter(
            pc.is_valid(pc.index_in(batch.column("s_suppkey"), value_set=ks))
        )

    supp = _collect_small(
        _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).map_batches(
            pick, batch_format="pyarrow"
        ),
        max(winners.num_rows, 64),
    )
    if supp is None:
        raise ValueError("q15: supplier detail attach exceeded the winner budget")
    si = pc.index_in(winners.column("l_suppkey"), value_set=supp.column("s_suppkey"))
    return ray.data.from_arrow(
        pa.table(
            {
                "s_suppkey": pc.cast(winners.column("l_suppkey"), pa.int64()),
                "s_name": pc.take(supp.column("s_name"), si),
                "total_revenue_c4": pc.cast(
                    winners.column("total_revenue_c4"), pa.int64()
                ),
            }
        )
    )


def q22_dormant_high_balance(
    sf_dir: str, max_orders: int = 8
) -> "Dataset | pa.Table":
    """TPC-H Q22-style sales-opportunity report, adapted to the
    synthetic schema (no phone country codes; "dormant" = fewer than
    ``max_orders`` orders instead of none, since the dense synthetic
    orders table leaves no order-less above-average customer): per
    nation, how many above-average-balance dormant customers exist and
    their total balance.

    Exactness: the average-balance threshold is the EXACT rational test
    ``bal_c * n_pos > sum_pos_c`` (never a float division); the global
    (n, sum) pair reduces via limb pairs.  Shape notes: ONE customer
    scan feeds the global aggregate, a second streaming pass applies
    the threshold; per-customer order counts are ONE orders groupby
    attached LEFT-style size-adaptively (broadcast count-map under the
    row budget, left_outer hash join past it) so no-order customers
    keep count 0; the nation attach is a 25-row broadcast."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(batch: pa.Table) -> pa.Table:
        bal = _cents(batch.column("c_acctbal"))
        pos = bal.filter(pc.greater(bal, pa.scalar(0, pa.int64()))).to_numpy()
        hi, lo = _limb_sums(pos)
        return pa.table(
            {
                "n": pa.array([len(pos)], pa.int64()),
                "s_hi": pa.array([hi], pa.int64()),
                "s_lo": pa.array([lo], pa.int64()),
            }
        )

    g = cust.map_batches(bal_partial, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("s_hi", alias_name="s_hi"),
        Sum("s_lo", alias_name="s_lo"),
    ) or {}
    n_pos = int(g.get("n") or 0)
    sum_pos = ((int(g.get("s_hi") or 0)) << _LIMB_SHIFT) + int(g.get("s_lo") or 0)
    out_schema = pa.schema(
        [
            ("n_name", pa.string()),
            ("numcust", pa.int64()),
            ("totacctbal_c", pa.int64()),
        ]
    )
    if n_pos == 0:
        return out_schema.empty_table()

    def above_avg(batch: pa.Table) -> pa.Table:
        bal = _cents(batch.column("c_acctbal"))
        # exact rational threshold: bal > sum/n  <=>  bal * n > sum.
        # bal*n stays far inside int64 for any plausible n (bal_c ~1e7
        # cents x n up to ~9e11) — assert rather than silently wrap.
        assert n_pos < 9e11, "q22: customer count overflows the exact threshold test"
        keep = pc.greater(
            pc.multiply(bal, pa.scalar(n_pos, pa.int64())),
            pa.scalar(sum_pos, pa.int64()),
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "c_custkey": t.column("c_custkey"),
                "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int64()),
                "bal_c": bal.filter(keep),
            }
        )

    rich = cust.map_batches(above_avg, batch_format="pyarrow")
    counts = _scrub_schemaless(
        _hagg_auto(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey", [('', 'count_all', 'count()')])
    )
    if counts is not None:
        cnt_tab = _collect_small(counts, _BCAST_ROW_LIMIT)
        if cnt_tab is not None:
            # a null o_custkey count group would otherwise MATCH a
            # null c_custkey probe via index_in — the opposite of the
            # left_outer fallback's (and the oracle's) null-never-
            # equals-null semantics
            cnt_tab = cnt_tab.filter(pc.is_valid(cnt_tab.column("o_custkey")))
            ref = ray.put(cnt_tab.combine_chunks())

            def attach(batch: pa.Table) -> pa.Table:
                ct = ray.get(ref)
                idx = pc.index_in(batch.column("c_custkey"), value_set=ct.column("o_custkey"))
                n_ord = pc.fill_null(
                    pc.take(pc.cast(ct.column("count()"), pa.int64()), idx), 0
                )
                return batch.filter(
                    pc.less(n_ord, pa.scalar(int(max_orders), pa.int64()))
                )

            dormant = rich.map_batches(attach, batch_format="pyarrow")
        else:
            rich_clean = _schemaful(rich)
            if rich_clean is None:
                return out_schema.empty_table()
            joined = hash_join(
                rich_clean,
                counts,
                "c_custkey",
                "o_custkey",
                how="left outer",
            )

            def keep_dormant(batch: pa.Table) -> pa.Table:
                n_ord = pc.fill_null(pc.cast(batch.column("count()"), pa.int64()), 0)
                t = batch.filter(
                    pc.less(n_ord, pa.scalar(int(max_orders), pa.int64()))
                )
                return t.select(["c_custkey", "c_nationkey", "bal_c"])

            dormant = joined.map_batches(keep_dormant, batch_format="pyarrow")
    else:
        dormant = rich  # no orders at all: every rich customer is dormant

    agg = _scrub_schemaless(
        _hagg_auto(dormant, "c_nationkey", [('', 'count_all', 'numcust'), ('bal_c', 'sum', 'totacctbal_c')])
    )
    if agg is None:
        return out_schema.empty_table()
    nat = _collect_small(_read(sf_dir, "nation", ["n_nationkey", "n_name"]), 1_000_000)
    if nat is None:
        raise ValueError("q22: nation table exceeded the broadcast budget")
    nat_ref = ray.put(nat.combine_chunks())

    def name(batch: pa.Table) -> pa.Table:
        nt = ray.get(nat_ref)
        ni = pc.index_in(
            batch.column("c_nationkey"),
            value_set=pc.cast(nt.column("n_nationkey"), pa.int64()),
        )
        return pa.table(
            {
                "n_name": pc.take(nt.column("n_name"), ni),
                "numcust": pc.cast(batch.column("numcust"), pa.int64()),
                "totacctbal_c": pc.cast(batch.column("totacctbal_c"), pa.int64()),
            }
        )

    return agg.map_batches(name, batch_format="pyarrow")


def q8_market_share(
    sf_dir: str,
    target_nation: str = "NATION_3",
    region: str = "ASIA",
    p_type: str = "STANDARD",
    date_lo: str = "1996-01-01",
    date_hi: str = "1998-01-01",
) -> "Dataset | pa.Table":
    """TPC-H Q8-style national market share: per order-year, the exact
    ppm share of ``region``'s ``p_type`` import revenue supplied by
    ``target_nation`` — the deepest star join in the suite (lineitem
    against part, orders->customer->nation->region on one arm and
    supplier->nation on the other) finished by a two-level conditional
    aggregate.

    Shape notes (100 TB-safe): every dimension filter is applied BEFORE
    the fact table sees a join — part keys carrying ``p_type`` arrive
    as a size-adaptive SEMI join, window+region-filtered orders attach
    o_year via the size-adaptive lookup join (customer membership in
    the region is itself a semi join against a nation->region broadcast
    pass), and the supplier nation flag rides a supplier-sized lookup
    join.  Per-year revenue reduces as base-2^31 limb pairs keyed by
    the handful of distinct years; the final share is the exact
    half-away ppm recipe in Python bignums."""
    lo = _dt.datetime.fromisoformat(date_lo)
    hi = _dt.datetime.fromisoformat(date_hi)

    nat = _collect_small(
        _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]), 1_000_000
    )
    reg = _collect_small(_read(sf_dir, "region", ["r_regionkey", "r_name"]), 1_000_000)
    if nat is None or reg is None:
        raise ValueError("q8: nation/region tables exceeded the broadcast budget")
    region_keys = reg.filter(pc.equal(reg.column("r_name"), region)).column(
        "r_regionkey"
    )
    region_nations = nat.filter(
        pc.is_valid(pc.index_in(nat.column("n_regionkey"), value_set=region_keys))
    ).column("n_nationkey")
    target_keys = nat.filter(pc.equal(nat.column("n_name"), target_nation)).column(
        "n_nationkey"
    )
    rn_ref = ray.put(region_nations.combine_chunks())
    tk_ref = ray.put(target_keys.combine_chunks())

    # region-side custkeys: ONE streaming pass over customer
    def in_region(batch: pa.Table) -> pa.Table:
        ks = ray.get(rn_ref)
        keep = pc.is_valid(pc.index_in(batch.column("c_nationkey"), value_set=ks))
        return pa.table({"c_custkey": batch.filter(keep).column("c_custkey")})

    region_custs = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        in_region, batch_format="pyarrow"
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def in_window(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        t = batch.filter(
            pc.and_(pc.greater_equal(d, pa.scalar(lo)), pc.less(d, pa.scalar(hi)))
        )
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "o_year": pc.cast(pc.year(t.column("o_orderdate")), pa.int64()),
            }
        )

    orders_f = broadcast_semi_join(
        orders.map_batches(in_window, batch_format="pyarrow"),
        region_custs,
        on="o_custkey",
        right_on="c_custkey",
    )

    # part-side semi filter: only p_type parts enter the fact join
    part_keys = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda b: pa.table(
            {"p_partkey": b.filter(pc.equal(b.column("p_type"), p_type)).column("p_partkey")}
        ),
        batch_format="pyarrow",
    )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def rev(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch.column("l_extendedprice"))
        disc = _cents(batch.column("l_discount"))
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_partkey": batch.column("l_partkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "rev_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc)
                ),
            }
        )

    fact = broadcast_semi_join(
        li.map_batches(rev, batch_format="pyarrow"),
        part_keys,
        on="l_partkey",
        right_on="p_partkey",
    )
    fact = broadcast_lookup_join(
        fact,
        orders_f,
        on="l_orderkey",
        right_on="o_orderkey",
        payload=["o_year"],
    )

    def supp_flag(batch: pa.Table) -> pa.Table:
        ks = ray.get(tk_ref)
        return pa.table(
            {
                "s_suppkey": batch.column("s_suppkey"),
                "is_nat": pc.cast(
                    pc.is_valid(pc.index_in(batch.column("s_nationkey"), value_set=ks)),
                    pa.int64(),
                ),
            }
        )

    fact = broadcast_lookup_join(
        fact,
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
            supp_flag, batch_format="pyarrow"
        ),
        on="l_suppkey",
        right_on="s_suppkey",
        payload=["is_nat"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        yr = batch.column("o_year").to_numpy()
        r = batch.column("rev_c4").to_numpy()
        flag = batch.column("is_nat").to_numpy()
        out = {"o_year": [], "n": [], "t_hi": [], "t_lo": [], "s_hi": [], "s_lo": []}
        for y in np.unique(yr):
            m = yr == y
            t_hi, t_lo = _limb_sums(r[m])
            s_hi, s_lo = _limb_sums(r[m] * flag[m])
            out["o_year"].append(int(y))
            out["n"].append(int(m.sum()))
            out["t_hi"].append(t_hi)
            out["t_lo"].append(t_lo)
            out["s_hi"].append(s_hi)
            out["s_lo"].append(s_lo)
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    agg = _scrub_schemaless(
        _hagg_auto(
            fact.map_batches(partial, batch_format="pyarrow", batch_size=None),
            "o_year",
            [(c, "sum", c) for c in ("n", "t_hi", "t_lo", "s_hi", "s_lo")],
        )
    )
    out_schema = pa.schema(
        [
            ("o_year", pa.int64()),
            ("n_rows", pa.int64()),
            ("total_rev_c4", pa.int64()),
            ("nation_rev_c4", pa.int64()),
            ("share_ppm", pa.int64()),
        ]
    )
    if agg is None:
        return out_schema.empty_table()
    tab = _collect_small(agg, 100_000)  # one row per distinct year
    if tab is None:
        raise ValueError("q8: per-year table exceeded the driver budget")
    rows = {k: [] for k in ("o_year", "n_rows", "total_rev_c4", "nation_rev_c4", "share_ppm")}
    for i in range(tab.num_rows):
        total = (int(tab.column("t_hi")[i].as_py()) << _LIMB_SHIFT) + int(
            tab.column("t_lo")[i].as_py()
        )
        natv = (int(tab.column("s_hi")[i].as_py()) << _LIMB_SHIFT) + int(
            tab.column("s_lo")[i].as_py()
        )
        assert total < 2**63 and natv < 2**63, "q8: revenue exceeds int64 output"
        rows["o_year"].append(int(tab.column("o_year")[i].as_py()))
        rows["n_rows"].append(int(tab.column("n")[i].as_py()))
        rows["total_rev_c4"].append(total)
        rows["nation_rev_c4"].append(natv)
        rows["share_ppm"].append(
            0 if total == 0 else (2_000_000 * natv + total) // (2 * total)
        )
    return ray.data.from_arrow(
        pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})
    )


def events_daily_anomaly(
    sf_dir: str, z: int = 2, min_days: int = 5
) -> "Dataset | pa.Table":
    """Spike-day detection: per event type, the calendar days whose
    event count exceeds the type's mean by more than ``z`` population
    standard deviations — the volume-anomaly readout behind incident
    and bot-wave triage.

    Exactness: the z-test is the EXACT integer inequality
    ``n*c > s  AND  (n*c - s)^2 > z^2 * (n*ss - s^2)`` (both sides in
    Python bignums — (n*c-s)^2 reaches ~1e30 at web scale, past any
    machine int), so no float sqrt can flip a boundary day.  Shape
    notes: ONE (type, day) groupby over the pruned scan builds the
    bounded day table (one row per type-day — calendar-bounded, NOT
    corpus-sized); per-type moments reduce from per-batch partials
    with ``ss`` as base-2^31 limb pairs (day counts square past int64
    at ~3e9 events/day); the per-type (n, s, ss) map broadcasts into
    one vectorized-prefilter + exact-boundary pass over the day table.
    Types below ``min_days`` observed days are skipped (no meaningful
    variance)."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def to_day(batch: pa.Table) -> pa.Table:
        us = pc.cast(_ts_us(batch.column("ts")), pa.int64())
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "day": pc.divide(us, pa.scalar(86_400_000_000, pa.int64())),
            }
        )

    day_counts = _scrub_schemaless(
        _hagg_auto(ev.map_batches(to_day, batch_format="pyarrow"), ["event_type", "day"], [('', 'count_all', 'n_events')])
    )
    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.int64()),
            ("n_events", pa.int64()),
        ]
    )
    if day_counts is None:
        return out_schema.empty_table()
    day_counts = day_counts.materialize()  # feeds moments AND the filter pass

    _SS = ("ss_a_hi", "ss_a_lo", "ss_b_hi", "ss_b_lo", "ss_c_hi", "ss_c_lo")

    def moment_partial(batch: pa.Table) -> pa.Table:
        # split-square limbs: a plain cv*cv wraps int64 past ~3e9
        # events on one (type, day) — the overflow class the
        # burstiness fix established _sq_limbs for
        from renard_ray.ops.communities import _sq_limbs

        types = batch.column("event_type").to_pylist()
        c = batch.column("n_events").to_numpy()
        out: dict = {"event_type": [], "n": [], "s": []}
        for k in _SS:
            out[k] = []
        order: dict = {}
        for i, t in enumerate(types):
            order.setdefault(t, []).append(i)
        for t in sorted(order):
            idx = np.array(order[t], np.int64)
            cv = c[idx]
            sq = _sq_limbs(cv)
            out["event_type"].append(t)
            out["n"].append(len(cv))
            out["s"].append(int(cv.sum(dtype=np.int64)))
            for k, v in zip(_SS, sq):
                out[k].append(v)
        return pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                **{
                    k: pa.array(out[k], pa.int64())
                    for k in ("n", "s", *_SS)
                },
            }
        )

    moments = _scrub_schemaless(
        _hagg_auto(
            day_counts.map_batches(moment_partial, batch_format="pyarrow"),
            "event_type",
            [(k, "sum", k) for k in ("n", "s", *_SS)],
        )
    )
    if moments is None:
        return out_schema.empty_table()
    # one row per event type: a bounded metric domain, broadcastable
    mom_tab = _collect_small(moments, 1_000_000)
    if mom_tab is None:
        raise ValueError("events_daily_anomaly: type-moment table over budget")
    def _pair(name: str, i: int) -> int:
        return (int(mom_tab.column(name + "_hi")[i].as_py()) << _LIMB_SHIFT) + int(
            mom_tab.column(name + "_lo")[i].as_py()
        )

    mom = {
        mom_tab.column("event_type")[i].as_py(): (
            int(mom_tab.column("n")[i].as_py()),
            int(mom_tab.column("s")[i].as_py()),
            # sum(c^2) = A*2^62 + B*2^31 + C (split-square recombine)
            (_pair("ss_a", i) << (2 * _LIMB_SHIFT))
            + (_pair("ss_b", i) << _LIMB_SHIFT)
            + _pair("ss_c", i),
        )
        for i in range(mom_tab.num_rows)
    }
    mom_ref = ray.put(mom)
    z2 = int(z) * int(z)
    floor = int(min_days)

    def spikes(batch: pa.Table) -> pa.Table:
        m = ray.get(mom_ref)
        types = batch.column("event_type").to_pylist()
        days = batch.column("day").to_numpy()
        c = batch.column("n_events").to_numpy()
        keep = []
        for i, t in enumerate(types):
            n, s, ss = m[t]
            if n < floor:
                continue
            lhs = n * int(c[i]) - s  # exact python ints: no wrap at any scale
            if lhs <= 0:
                continue
            if lhs * lhs > z2 * (n * ss - s * s):
                keep.append(i)
        idx = pa.array(keep, pa.int32())
        return pa.table(
            {
                "event_type": pc.take(batch.column("event_type"), idx),
                "day": pc.take(batch.column("day"), idx),
                "n_events": pc.take(pc.cast(batch.column("n_events"), pa.int64()), idx),
            }
        )

    res = _scrub_schemaless(day_counts.map_batches(spikes, batch_format="pyarrow"))
    if res is None:
        return out_schema.empty_table()
    return res.sort(["event_type", "day"])


def events_cohort_ltv(sf_dir: str) -> "Dataset | pa.Table":
    """Cohort lifetime-value triangle: total spend (exact cents) per
    (cohort week, week offset) cell, where a user's cohort is their
    FIRST active epoch-week — the revenue companion to the retention
    matrix (cell [c][k] = what cohort c spent in its k-th week).

    Scale shape (mirrors :func:`events_retention`): the per-batch
    combiner pre-sums spend per (user, week), so the ONE heavy groupby
    carries at most |users|x|weeks| rows — never |events|; the cohort
    map is a groupby-min over that same materialized table; the attach
    is the size-adaptive lookup join; the final (cohort, offset) sum
    is an O(cells) exchange."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out_schema = pa.schema(
        [
            ("cohort_week", pa.int64()),
            ("week_offset", pa.int64()),
            ("spend_c", pa.int64()),
        ]
    )
    if ds.count() == 0:  # map_batches skips empty blocks: guard early
        return out_schema.empty_table()

    def weeks(batch: pa.Table) -> pa.Table:
        w = pc.divide(_ts_us(batch.column("ts")), _WEEK_US)
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "week": w,
                "spend_c": _cents(batch.column("value")),
            }
        )
        # combiner: pre-sum per (user, week) inside the batch
        return (
            t.group_by(["user_id", "week"])
            .aggregate([("spend_c", "sum")])
            .rename_columns(["user_id", "week", "spend_c"])
        )

    uw = _scrub_schemaless(
        _hagg_auto(ds.map_batches(weeks, batch_format="pyarrow", batch_size=None), ["user_id", "week"], [('spend_c', 'sum', 'spend_c')])
    )
    if uw is None:
        return out_schema.empty_table()
    uw = uw.materialize()  # feeds the cohort min AND the cell sum
    cohort = _hagg_auto(uw, "user_id", [('week', 'min', 'cohort_week')])
    joined = broadcast_lookup_join(
        uw, cohort, on="user_id", right_on="user_id", payload=["cohort_week"]
    )

    def cell(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_week": pc.cast(batch.column("cohort_week"), pa.int64()),
                "week_offset": pc.cast(
                    pc.subtract(batch.column("week"), batch.column("cohort_week")),
                    pa.int64(),
                ),
                "spend_c": pc.cast(batch.column("spend_c"), pa.int64()),
            }
        )

    res = _scrub_schemaless(
        _hagg_auto(joined.map_batches(cell, batch_format="pyarrow"), ["cohort_week", "week_offset"], [('spend_c', 'sum', 'spend_c')])
    )
    if res is None:
        return out_schema.empty_table()
    return res.sort(["cohort_week", "week_offset"])


def q12_late_shipments(sf_dir: str, grace_days: int = 90) -> "Dataset | pa.Table":
    """TPC-H Q12-style shipping-delay audit (adapted: the synthetic
    lineitem has no commit/receipt dates or ship modes, so "late" =
    shipped more than ``grace_days`` after the order date, reported
    per order priority): the date-arithmetic predicate JOIN shape —
    the predicate spans columns of BOTH join sides, so it can only be
    evaluated after the attach.

    Shape notes: lineitem attaches (o_orderdate, o_orderpriority) via
    the size-adaptive lookup join (orders keyed UNIQUE); the lateness
    test is one vectorized integer comparison in epoch-us; per-batch
    combiner rows (priority, n_late, n_lines) keep the final exchange
    O(|priorities|)."""
    out_schema = pa.schema(
        [
            ("o_orderpriority", pa.string()),
            ("n_late", pa.int64()),
            ("n_lines", pa.int64()),
        ]
    )
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    # map_batches SKIPS empty blocks: an empty lineitem would feed the
    # raw pre-join schema into groupby (the round-3 empty-data hazard)
    if li.count() == 0:
        return out_schema.empty_table()
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    fact = broadcast_lookup_join(
        li,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        payload=["o_orderdate", "o_orderpriority"],
    )
    grace_us = int(grace_days) * 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ship = _ts_us(batch.column("l_shipdate"))
        ordd = _ts_us(batch.column("o_orderdate"))
        late = pc.cast(
            pc.greater(ship, pc.add(ordd, pa.scalar(grace_us, pa.int64()))),
            pa.int64(),
        )
        t = pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "late": late,
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return (
            t.group_by(["o_orderpriority"])
            .aggregate([("late", "sum"), ("one", "sum")])
            .rename_columns(["o_orderpriority", "n_late", "n_lines"])
        )

    res = _scrub_schemaless(
        _hagg_auto(fact.map_batches(partial, batch_format="pyarrow", batch_size=None), "o_orderpriority", [('n_late', 'sum', 'n_late'), ('n_lines', 'sum', 'n_lines')])
    )
    if res is None:
        return out_schema.empty_table()
    return res.sort("o_orderpriority")


def part_cheapest_per_brand(sf_dir: str) -> "Dataset | pa.Table":
    """Argmin-per-group WITH ties (TPC-H Q2's inner correlated-min
    shape on the available columns): every part whose retail price
    equals its brand's minimum.

    Shape notes: ONE groupby-min over exact cents builds the
    |brands|-sized minimum map; the join-back is the size-adaptive
    lookup join and the equality filter is vectorized — ties all
    survive, exactly as the correlated ``= (SELECT MIN ...)`` does."""
    out_schema = pa.schema(
        [
            ("p_brand", pa.string()),
            ("p_partkey", pa.int64()),
            ("retailprice_c", pa.int64()),
        ]
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"])
    # entry guard: with 0 rows, derive is skipped on the empty blocks
    # and the groupby would see the raw parquet schema
    if part.count() == 0:
        return out_schema.empty_table()

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "p_brand": batch.column("p_brand"),
                "retailprice_c": _cents(batch.column("p_retailprice")),
            }
        )

    rows = part.map_batches(derive, batch_format="pyarrow", batch_size=None).materialize()
    mins = _scrub_schemaless(
        _hagg_auto(rows, "p_brand", [('retailprice_c', 'min', 'min_c')])
    )
    if mins is None:
        return out_schema.empty_table()
    joined = broadcast_lookup_join(
        rows,
        mins,
        on="p_brand",
        right_on="p_brand",
        payload=["min_c"],
    )

    def keep_min(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.equal(batch.column("retailprice_c"), batch.column("min_c"))
        )
        return pa.table(
            {
                "p_brand": t.column("p_brand"),
                "p_partkey": pc.cast(t.column("p_partkey"), pa.int64()),
                "retailprice_c": pc.cast(t.column("retailprice_c"), pa.int64()),
            }
        )

    res = _scrub_schemaless(joined.map_batches(keep_min, batch_format="pyarrow"))
    if res is None:
        return out_schema.empty_table()
    return res.sort(["p_brand", "p_partkey"])


def _attach_global_rank(
    ds: Dataset, value_col: str, id_col: str, descending: bool
) -> Dataset:
    """1-based global rank of every row by (value_col, id_col) with
    ``descending`` applying to the value (ids always break ties
    ascending) — ``sorted_run_scan`` with row counts as the summaries
    and their exclusive prefix sums as the carries.

    Returns the input columns plus ``rn`` (only ``rn`` on a 0-row
    input, whose columns the scan never sees)."""

    def scan(batch: pa.Table):
        return batch, batch.num_rows

    def stitch(rows: list[int]) -> list[int]:
        return np.concatenate(([0], np.cumsum(rows)[:-1])).tolist()

    def attach(batch, start) -> pa.Table:
        if batch is None:
            return pa.table({"rn": pa.array([], pa.int64())})
        return batch.append_column(
            "rn",
            pa.array(
                np.arange(start + 1, start + 1 + batch.num_rows, dtype=np.int64)
            ),
        )

    return sorted_run_scan(
        ds, [value_col, id_col], scan, stitch, attach, descending=[descending, False]
    )


def _sql_ntile(rank: "np.ndarray", n: int, k: int) -> "np.ndarray":
    """EXACT SQL NTILE(k) from a 1-based unique rank: the first n%k
    tiles take ceil(n/k) rows, the rest floor(n/k).  ((rank-1)*k//n+1
    looks equivalent but spreads the remainder EVENLY — it agreed on a
    15-row fixture and diverged at 150 rows, caught by the sf0.01
    oracle.)  Shared by ``events_rfm_segments`` / ``customer_rfm_scores``."""
    q, rem = divmod(n, k)
    if q == 0:  # fewer rows than tiles: row r sits alone in tile r
        return rank.astype(np.int64, copy=True)
    cut = rem * (q + 1)
    return np.where(
        rank <= cut,
        (rank - 1) // (q + 1) + 1,
        rem + (rank - 1 - cut) // q + 1,
    ).astype(np.int64)


def events_rfm_segments(sf_dir: str, k: int = 4) -> "Dataset | pa.Table":
    """RFM segmentation summary: every user scored into NTILE(``k``)
    quartiles on Recency (latest event, most recent = quartile 1),
    Frequency (event count, highest = 1) and Monetary (total spend
    cents, highest = 1), then the (r, f, m) segments summarized — the
    classic CRM/product-analytics readout (a '111' is a whale, a
    '444' is churned).

    Shape notes: ONE |users|-bounded groupby builds the (last_us, n,
    spend_c) profile table; each dimension's NTILE comes from the
    generic ``sorted_run_scan`` rank attach (``_attach_global_rank`` —
    O(#blocks) driver carry, nothing user-sized on the driver) and the
    shared SQL-exact ``_sql_ntile`` formula (first n%k tiles take one
    extra row — NOT the even-spread ``(rn-1)*k//n + 1``); the three rank
    tables re-join the profile via size-adaptive lookup joins; the
    final segment groupby is O(k^3)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out_schema = pa.schema(
        [
            ("r_quartile", pa.int64()),
            ("f_quartile", pa.int64()),
            ("m_quartile", pa.int64()),
            ("n_users", pa.int64()),
            ("spend_c", pa.int64()),
        ]
    )
    if ds.count() == 0:
        return out_schema.empty_table()

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": _ts_us(batch.column("ts")),
                "spend_c": _cents(batch.column("value")),
            }
        )

    prof = (
        _hagg_auto(ds.map_batches(derive, batch_format="pyarrow", batch_size=None), "user_id", [('us', 'max', 'last_us'), ('', 'count_all', 'n_events'), ('spend_c', 'sum', 'spend_c')])
        .materialize()
    )
    n_users = prof.count()
    if n_users == 0:
        return out_schema.empty_table()

    ranked = prof
    for col, alias in (
        ("last_us", "r_quartile"),
        ("n_events", "f_quartile"),
        ("spend_c", "m_quartile"),
    ):
        rk = _attach_global_rank(
            prof.select_columns(["user_id", col]), col, "user_id", descending=True
        )

        def tile(batch: pa.Table, _a=alias) -> pa.Table:
            buckets = _sql_ntile(
                batch.column("rn").to_numpy(), n_users, k
            )
            return pa.table(
                {
                    "user_id": batch.column("user_id"),
                    _a: pa.array(buckets, pa.int64()),
                }
            )

        ranked = broadcast_lookup_join(
            ranked,
            rk.map_batches(tile, batch_format="pyarrow"),
            on="user_id",
            right_on="user_id",
            payload=[alias],
        )

    res = _scrub_schemaless(
        _hagg_auto(ranked, ["r_quartile", "f_quartile", "m_quartile"], [('', 'count_all', 'n_users'), ('spend_c', 'sum', 'spend_c')])
    )
    if res is None:
        return out_schema.empty_table()
    return res.sort(["r_quartile", "f_quartile", "m_quartile"])


def events_first_touch_attribution(sf_dir: str) -> "Dataset | pa.Table":
    """First-touch attribution: every purchase credits the user's
    FIRST-ever event type (the marketing-attribution counterpart of
    the as-of last-touch join) — per first-touch channel, how many
    purchasing users and purchases it "acquired".

    Shape notes: the per-user first event is ONE argmin groupby — the
    encoded-key Min pattern (zero-padded (ts_us, event_id) prefix +
    the type, so the Min aggregate IS the (ts, event_id) tie-broken
    argmin, no sort, no window); purchases reduce per user in the same
    scan family; a size-adaptive lookup join glues the two
    user-bounded tables; final groupby is O(|types|)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    out_schema = pa.schema(
        [
            ("first_touch", pa.string()),
            ("n_users", pa.int64()),
            ("n_purchases", pa.int64()),
        ]
    )
    if ds.count() == 0:
        return out_schema.empty_table()

    def enc(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch.column("ts"))
        assert pc.min(us).as_py() is None or pc.min(us).as_py() >= 0, (
            "first_touch: pre-epoch ts breaks the zero-padded argmin key"
        )
        eid_min = pc.min(batch.column("event_id")).as_py()
        assert eid_min is None or eid_min >= 0, (
            "first_touch: negative event_id breaks the zero-padded key "
            "(the '-' exceeds the 19-char field and shifts the decode)"
        )
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(us, pa.string()), 19, padding="0"),
            pc.utf8_lpad(pc.cast(batch.column("event_id"), pa.string()), 19, padding="0"),
            batch.column("event_type"),
            "",
        )
        return pa.table({"user_id": batch.column("user_id"), "k": key})

    first = (
        _hagg_auto(ds.map_batches(enc, batch_format="pyarrow"), "user_id", [('k', 'min', 'k')])
    )

    def decode(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "first_touch": pc.utf8_slice_codeunits(batch.column("k"), 38),
            }
        )

    first = first.map_batches(decode, batch_format="pyarrow")

    def purchases(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("event_type"), "purchase"))
        g = t.select(["user_id"]).group_by(["user_id"]).aggregate([("user_id", "count")])
        return g.rename_columns(["user_id", "n"])

    per_user = _scrub_schemaless(
        _hagg_auto(ds.map_batches(purchases, batch_format="pyarrow", batch_size=None), "user_id", [('n', 'sum', 'n_purchases')])
    )
    if per_user is None:
        return out_schema.empty_table()
    joined = broadcast_lookup_join(
        per_user, first, on="user_id", right_on="user_id", payload=["first_touch"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "first_touch": batch.column("first_touch"),
                "u": pa.array(np.ones(batch.num_rows, np.int64)),
                "p": pc.cast(batch.column("n_purchases"), pa.int64()),
            }
        )
        return (
            t.group_by(["first_touch"])
            .aggregate([("u", "sum"), ("p", "sum")])
            .rename_columns(["first_touch", "u", "p"])
        )

    res = _scrub_schemaless(
        _hagg_auto(joined.map_batches(partial, batch_format="pyarrow", batch_size=None), "first_touch", [('u', 'sum', 'n_users'), ('p', 'sum', 'n_purchases')])
    )
    if res is None:
        return out_schema.empty_table()
    return res.sort("first_touch")


def _session_boundary_deltas(sf_dir: str, gap_us: int) -> "Dataset | None":
    """(t, d=+1/-1, eid) sweep rows — one +1 at each session's first
    event and one -1 at its last — WITHOUT materializing session ids:
    after ONE (user, ts, event_id) sort, a row opens a session iff its
    previous same-user gap exceeds the threshold and closes one iff
    its next same-user gap does (``sorted_run_scan``).  Interior rows
    decide locally; each block defers only its FIRST row's
    open-decision and LAST row's close-decision to an O(#blocks)
    driver stitch over block-edge records.  Returns None on an empty
    events table.  Shared by the sweep-line peak and the
    session-duration statistics."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    if ds.count() == 0:
        return None

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": _ts_us(batch.column("ts")),
                "event_id": batch.column("event_id"),
            }
        )

    delta_schema = pa.schema([("t", pa.int64()), ("d", pa.int64()), ("eid", pa.int64())])

    def deltas(batch: pa.Table):
        u = batch.column("user_id").to_numpy()
        t = batch.column("us").to_numpy()
        eids = batch.column("event_id").to_numpy()
        n = len(u)
        same_prev = np.zeros(n, bool)
        same_prev[1:] = u[1:] == u[:-1]
        gap_prev = np.zeros(n, np.int64)
        gap_prev[1:] = t[1:] - t[:-1]
        opens = ~same_prev | (gap_prev > gap_us)  # valid except row 0
        same_next = np.zeros(n, bool)
        same_next[:-1] = same_prev[1:]
        gap_next = np.zeros(n, np.int64)
        gap_next[:-1] = gap_prev[1:]
        closes = ~same_next | (gap_next > gap_us)  # valid except row n-1
        # interior decisions (row 0's open and row n-1's close defer)
        oi = np.nonzero(opens)[0]
        oi = oi[oi > 0]
        ci = np.nonzero(closes)[0]
        ci = ci[ci < n - 1]
        rows = pa.table(
            {
                "t": pa.array(np.concatenate([t[oi], t[ci]]), pa.int64()),
                "d": pa.array(
                    np.concatenate(
                        [np.ones(len(oi), np.int64), -np.ones(len(ci), np.int64)]
                    )
                ),
                "eid": pa.array(np.concatenate([eids[oi], eids[ci]]), pa.int64()),
            }
        )
        # (user, t, eid) of the block's first and last rows
        edges = tuple((int(u[i]), int(t[i]), int(eids[i])) for i in (0, -1))
        return rows, edges

    # O(#blocks) stitch: decide each block's first-row open and
    # last-row close using the neighbouring block's edge record
    def stitch(edges: list) -> list[pa.Table]:
        extra = []
        nb = len(edges)
        for i, ((fu, ft, fe), (lu, lt, le)) in enumerate(edges):
            rows = []
            # first row of block i: previous row is last row of block i-1
            if i == 0 or edges[i - 1][1][0] != fu or ft - edges[i - 1][1][1] > gap_us:
                rows.append({"t": ft, "d": 1, "eid": fe})
            # last row of block i: next row is first row of block i+1
            if i == nb - 1 or edges[i + 1][0][0] != lu or edges[i + 1][0][1] - lt > gap_us:
                rows.append({"t": lt, "d": -1, "eid": le})
            extra.append(pa.Table.from_pylist(rows, schema=delta_schema))
        return extra

    def finish(rows, extra) -> pa.Table:
        if rows is None:
            return delta_schema.empty_table()
        return pa.concat_tables([rows, extra])

    return sorted_run_scan(
        ds.map_batches(norm, batch_format="pyarrow"),
        ["user_id", "us", "event_id"],
        deltas,
        stitch,
        finish,
    )


def events_peak_concurrency(
    sf_dir: str, gap_minutes: int = 30
) -> "Dataset | pa.Table":
    """Peak concurrent sessions (sweep line): the maximum number of
    30-minute-gap sessions active at one instant, plus the earliest
    microsecond that peak is reached — the capacity-planning readout.

    Shape notes: session-boundary (+1/-1) rows come from the shared
    ``_session_boundary_deltas``; the sweep is a second
    ``sorted_run_scan`` by (t, +1-before--1) so touching sessions count
    as concurrent (inclusive intervals), each block reduces to
    (total_delta, best_prefix, earliest t at best) and the O(#blocks)
    driver carry adds running offsets — the sorted-run carry applied
    to a prefix-MAX instead of a prefix sum.  Within a block the prefix is
    vectorized cumsum/argmax."""
    out_schema = pa.schema([("peak", pa.int64()), ("at_us", pa.int64())])
    sweep = _session_boundary_deltas(sf_dir, int(gap_minutes) * 60_000_000)
    if sweep is None:
        return out_schema.empty_table()

    def order_key(batch: pa.Table) -> pa.Table:
        # +1 sorts before -1 at equal t: inclusive intervals — a
        # session ending at t overlaps one starting at t.  eid makes
        # the sort key UNIQUE ((event, d) is unique), so the earliest
        # t at the peak does not depend on the block boundaries.
        return pa.table(
            {
                "t": batch.column("t"),
                "nd": pc.subtract(pa.scalar(0, pa.int64()), batch.column("d")),
                "eid": batch.column("eid"),
                "d": batch.column("d"),
            }
        )

    def scan(batch: pa.Table):
        t = batch.column("t").to_numpy()
        c = np.cumsum(batch.column("d").to_numpy())
        j = int(np.argmax(c))  # earliest index at the block max
        return None, (int(c[-1]), int(c[j]), int(t[j]))

    # prefix-MAX over the blocks; the one result row rides to block 0
    def stitch(parts: list) -> list:
        peak = None
        at = None
        offset = 0
        for total, best, best_t in parts:
            cand = offset + best
            if peak is None or cand > peak:
                peak = cand
                at = best_t
            offset += total
        return [[(peak, at)]] + [[]] * (len(parts) - 1)

    def finish(_, rows) -> pa.Table:
        return pa.Table.from_pylist(
            [dict(zip(out_schema.names, r)) for r in rows or []], schema=out_schema
        )

    return sorted_run_scan(
        sweep.map_batches(order_key, batch_format="pyarrow"),
        ["t", "nd", "eid"],
        scan,
        stitch,
        finish,
    )


_PROFILE_COLS = ("o_orderstatus", "o_orderpriority", "o_custkey")


def orders_profile(sf_dir: str) -> "Dataset | pa.Table":
    """Per-column data profile of the orders table (the Deequ-style
    quality report): null count, exact distinct count, and the modal
    value with its frequency (ties -> smallest value, so the row is a
    pure function of the data) for each profiled column.

    Shape notes: ALL columns profile in ONE scan — the per-batch
    combiner emits each column's distinct values under a
    column-prefixed key ("col|v:" + value, plus a "col|n:" marker row
    carrying the batch's null total losslessly even when the batch
    holds no real values), so a single groupby exchange carries
    distinct-values-per-batch rows for every column at once (the r2
    shape ran one scan + one exchange PER column, serially).  The
    distinct count, null total and modal argmax all reduce from that
    one counts table — the mode is an encoded-key Min aggregate
    ((inverted count, value) packed fixed-width, the house argmax
    pattern) grouped by column, so nothing value-domain-sized reaches
    the driver beyond one row per column.  Values profile as their
    VARCHAR rendering (exactly DuckDB's CAST(x AS VARCHAR) for
    ints/strings — the profiled columns are chosen to be exactly
    renderable; floats would not be).  Keys prefix-encode ("v:"/"n:")
    because Ray's hash groupby cannot sort None among string keys."""
    ds = _read(sf_dir, "orders", list(_PROFILE_COLS))
    out_schema = pa.schema(
        [
            ("column", pa.string()),
            ("n_nulls", pa.int64()),
            ("n_distinct", pa.int64()),
            ("top_value", pa.string()),
            ("top_freq", pa.int64()),
        ]
    )
    if ds.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "column": pa.array(list(_PROFILE_COLS), pa.string()),
                    "n_nulls": pa.array([0] * len(_PROFILE_COLS), pa.int64()),
                    "n_distinct": pa.array([0] * len(_PROFILE_COLS), pa.int64()),
                    "top_value": pa.array([None] * len(_PROFILE_COLS), pa.string()),
                    "top_freq": pa.array([0] * len(_PROFILE_COLS), pa.int64()),
                }
            )
        )

    def combiner(batch: pa.Table) -> pa.Table:
        parts = []
        for col in _PROFILE_COLS:
            s = pc.cast(batch.column(col), pa.string())
            nulls = batch.num_rows - int(pc.count(s).as_py())
            t = pa.table({"v": s}).filter(pc.is_valid(s))
            g = (
                t.group_by(["v"])
                .aggregate([("v", "count")])
                .rename_columns(["v", "n"])
            )
            parts.append(
                pa.table(
                    {
                        "k": pc.binary_join_element_wise(
                            col + "|v:", g.column("v"), ""
                        ),
                        "n": pc.cast(g.column("n"), pa.int64()),
                        "nulls": pa.array([0] * g.num_rows, pa.int64()),
                    }
                )
            )
            parts.append(
                pa.table(
                    {
                        "k": pa.array([col + "|n:"], pa.string()),
                        "n": pa.array([0], pa.int64()),
                        "nulls": pa.array([nulls], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    counts = _scrub_schemaless(
        _hagg_auto(ds.map_batches(combiner, batch_format="pyarrow", batch_size=None), "k", [('n', 'sum', 'n'), ('nulls', 'sum', 'nulls')])
    )
    if counts is None:
        # unreachable for non-empty input (every called batch emits
        # marker rows) — but mirror the oracle's UNION-ALL semantics,
        # which always yields one row per profiled column
        return ray.data.from_arrow(
            pa.table(
                {
                    "column": pa.array(list(_PROFILE_COLS), pa.string()),
                    "n_nulls": pa.array([0] * len(_PROFILE_COLS), pa.int64()),
                    "n_distinct": pa.array([0] * len(_PROFILE_COLS), pa.int64()),
                    "top_value": pa.array([None] * len(_PROFILE_COLS), pa.string()),
                    "top_freq": pa.array([0] * len(_PROFILE_COLS), pa.int64()),
                }
            )
        )

    def enc(batch: pa.Table) -> pa.Table:
        # argmax with ties -> min value: Min over the packed
        # (inverted count, value) key; count < 1e18 asserted.  Marker
        # rows keep key NULL (Min skips nulls) but carry the column
        # and null totals so all-null columns still emit a group row.
        ks = batch.column("k").to_pylist()
        ns = batch.column("n").to_numpy()
        nulls = batch.column("nulls").to_numpy()
        cols_out, keys, ones, nl = [], [], [], []
        for i, k in enumerate(ks):
            col, _, rest = k.partition("|")
            cols_out.append(col)
            if rest.startswith("v:") and ns[i] > 0:
                assert ns[i] < 10**18, "orders_profile: count pack range"
                keys.append("%019d" % (10**18 - int(ns[i])) + "\x1f" + rest[2:])
                ones.append(1)
            else:
                keys.append(None)
                ones.append(0)
            nl.append(int(nulls[i]))
        return pa.table(
            {
                "column": pa.array(cols_out, pa.string()),
                "key": pa.array(keys, pa.string()),
                "one": pa.array(ones, pa.int64()),
                "nulls": pa.array(nl, pa.int64()),
            }
        )

    agg = _scrub_schemaless(
        _hagg_auto(counts.map_batches(enc, batch_format="pyarrow", batch_size=None), "column", [('key', 'min', 'best'), ('one', 'sum', 'n_distinct'), ('nulls', 'sum', 'n_nulls')])
    )
    if agg is None:
        return out_schema.empty_table()
    tab = _collect_small(agg, 1_000_000)
    if tab is None:
        raise ValueError("orders_profile: per-column table over budget")
    got = {}
    for i in range(tab.num_rows):
        col = tab.column("column")[i].as_py()
        best = tab.column("best")[i].as_py()
        nn = int(tab.column("n_nulls")[i].as_py() or 0)
        nd = int(tab.column("n_distinct")[i].as_py() or 0)
        if best is None:
            got[col] = (col, nn, 0, None, 0)
        else:
            inv_s, _, val = best.partition("\x1f")
            got[col] = (col, nn, nd, val, 10**18 - int(inv_s))
    rows = [got[c] for c in _PROFILE_COLS]
    return ray.data.from_arrow(
        pa.table(
            {
                "column": pa.array([r[0] for r in rows], pa.string()),
                "n_nulls": pa.array([r[1] for r in rows], pa.int64()),
                "n_distinct": pa.array([r[2] for r in rows], pa.int64()),
                "top_value": pa.array([r[3] for r in rows], pa.string()),
                "top_freq": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


def events_session_stats(
    sf_dir: str, gap_minutes: int = 30
) -> "Dataset | pa.Table":
    """Session-duration summary: session count, total duration and
    exact average duration of the 30-minute-gap sessions — the
    engagement-depth readout next to the sessionize counts.

    The trick: durations need NO start/end pairing — over the shared
    boundary deltas (``_session_boundary_deltas``), sum(t at ends) -
    sum(t at starts) IS the total duration because every session
    contributes exactly one of each (sessions never overlap within a
    user).  Both sums ride as base-2^31 limb pairs (epoch-us ~1.7e15
    per row wraps a plain int64 sum past ~5e3 sessions) and the count
    is the +1 total; the average is the exact half-away recipe in
    Python bignums.  No sort, no pairing, ONE aggregate over the
    delta rows."""
    out_schema = pa.schema(
        [
            ("n_sessions", pa.int64()),
            ("total_duration_s", pa.int64()),
            ("avg_duration_ms", pa.int64()),
        ]
    )
    sweep = _session_boundary_deltas(sf_dir, int(gap_minutes) * 60_000_000)
    if sweep is None:
        return out_schema.empty_table()

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("t").to_numpy()
        d = batch.column("d").to_numpy()
        st_hi, st_lo = _limb_sums(t[d == 1])
        en_hi, en_lo = _limb_sums(t[d == -1])
        return pa.table(
            {
                "n": pa.array([int((d == 1).sum())], pa.int64()),
                "st_hi": pa.array([st_hi], pa.int64()),
                "st_lo": pa.array([st_lo], pa.int64()),
                "en_hi": pa.array([en_hi], pa.int64()),
                "en_lo": pa.array([en_lo], pa.int64()),
            }
        )

    agg = sweep.map_batches(partial, batch_format="pyarrow", batch_size=None).aggregate(
        *[Sum(c, alias_name=c) for c in ("n", "st_hi", "st_lo", "en_hi", "en_lo")]
    ) or {}
    n = int(agg.get("n") or 0)
    if n == 0:
        return out_schema.empty_table()
    start_sum = ((int(agg.get("st_hi") or 0)) << _LIMB_SHIFT) + int(agg.get("st_lo") or 0)
    end_sum = ((int(agg.get("en_hi") or 0)) << _LIMB_SHIFT) + int(agg.get("en_lo") or 0)
    dur_us = end_sum - start_sum
    total_s = dur_us // 1_000_000
    avg_ms = (2 * dur_us + n * 1000) // (2 * n * 1000)
    assert total_s < 2**63 and avg_ms < 2**63
    return ray.data.from_arrow(
        pa.table(
            {
                "n_sessions": pa.array([n], pa.int64()),
                "total_duration_s": pa.array([total_s], pa.int64()),
                "avg_duration_ms": pa.array([avg_ms], pa.int64()),
            }
        )
    )


def q21_sole_late_supplier(
    sf_dir: str, late_days: int = 60, k: int = 100
) -> "Dataset | pa.Table":
    """TPC-H Q21 shape (the EXISTS + NOT-EXISTS lineitem
    self-correlation) re-expressed with this corpus's columns:
    suppliers who were the SOLE late shipper (l_shipdate more than
    ``late_days`` past o_orderdate) on a multi-supplier finalized
    ('F') order, ranked by how many orders they alone kept waiting.

    Shape notes: the correlated EXISTS pair needs NO self-join —
    after ONE (order, supplier) distinct-with-late-flag reduce
    (per-batch group_by combiner feeds the groupby, so the exchange
    carries one row per (order, supplier) per batch), the per-order
    supplier count and late-supplier count come from a second groupby
    over that ALREADY-reduced table, join back by order key
    (size-adaptive: broadcast under the row budget, hash join past
    it), and the EXISTS ("another supplier") / NOT-EXISTS ("no other
    late supplier") pair becomes the vectorized filter
    ``late == 1 AND n_supp > 1 AND n_late == 1``.  The final
    per-supplier count is O(|suppliers|)."""
    out_schema = pa.schema([("s_name", pa.string()), ("numwait", pa.int64())])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderstatus"])

    def f_orders(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("o_orderstatus"), "F"))
        return batch.select(["o_orderkey", "o_orderdate"])

    of = orders.map_batches(f_orders, batch_format="pyarrow")
    if li.count() == 0 or of.count() == 0:
        return out_schema.empty_table()
    joined = broadcast_lookup_join(
        li, of, on="l_orderkey", right_on="o_orderkey",
        payload=["o_orderdate"],
    )
    late_us = int(late_days) * 86_400_000_000

    def combine(batch: pa.Table) -> pa.Table:
        late = pc.cast(
            pc.greater(
                pc.subtract(
                    _ts_us(batch.column("l_shipdate")),
                    _ts_us(batch.column("o_orderdate")),
                ),
                pa.scalar(late_us, pa.int64()),
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                "ok": batch.column("l_orderkey"),
                "sk": batch.column("l_suppkey"),
                "late": late,
            }
        )
        return t.group_by(["ok", "sk"]).aggregate([("late", "max")]).rename_columns(
            ["ok", "sk", "late"]
        )

    # one row per (order, supplier): bounded by the lineitem row count,
    # materialized once because BOTH the per-order counts and the
    # join-back consume it
    from renard_ray.ops.hashagg import hash_aggregate

    ls = hash_aggregate(
        joined.map_batches(combine, batch_format="pyarrow", batch_size=None),
        ["ok", "sk"],
        [("late", "max", "late")],
    )
    oc = hash_aggregate(
        ls, "ok", [("", "count_all", "n_supp"), ("late", "sum", "n_late")]
    )
    back = broadcast_lookup_join(
        ls, oc, on="ok", right_on="ok",
        payload=["n_supp", "n_late"],
    )

    def qualify(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.equal(batch.column("late"), 1),
                pc.greater(batch.column("n_supp"), 1),
            ),
            pc.equal(batch.column("n_late"), 1),
        )
        return batch.filter(keep).select(["sk"])

    back_s = _scrub_schemaless(back)
    if back_s is None:
        return out_schema.empty_table()
    waits = hash_aggregate(
        back_s.map_batches(qualify, batch_format="pyarrow", batch_size=None),
        "sk",
        [("", "count_all", "numwait")],
    )
    named = broadcast_lookup_join(
        waits,
        _read(sf_dir, "supplier", ["s_suppkey", "s_name"]),
        on="sk", right_on="s_suppkey", payload=["s_name"],
    ).select_columns(["s_name", "numwait"])
    scrubbed = _scrub_schemaless(named)
    if scrubbed is None or scrubbed.count() == 0:
        return out_schema.empty_table()
    return scrubbed.sort(["numwait", "s_name"], descending=[True, False]).limit(k)


def q9_widget_revenue(sf_dir: str, name_part: str = "widget") -> "Dataset | pa.Table":
    """TPC-H Q9 shape (product-line profit by supplier nation and
    order year) minus the partsupp cost term this corpus lacks:
    discounted revenue of lineitems whose PART NAME contains
    ``name_part``, grouped by the supplier's nation and the order
    year.

    Shape notes: the part-name predicate reduces to a key SET that
    semi-joins lineitem (broadcast under the row budget, hash join
    past it — parts are vocabulary-bounded relative to lineitem), a
    per-batch (orderkey, suppkey) revenue combiner shrinks the only
    fact-scale exchange, the order year attaches via ONE
    size-adaptive lookup join, and nation labels ride two tiny
    broadcast lookups; the final groupby is O(|nations| x |years|)."""
    out_schema = pa.schema(
        [
            ("nation", pa.string()),
            ("o_year", pa.int64()),
            ("revenue_c4", pa.int64()),
        ]
    )
    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    if li.count() == 0 or part.count() == 0:
        return out_schema.empty_table()

    def f_parts(batch: pa.Table) -> pa.Table:
        keep = pc.match_substring(batch.column("p_name"), name_part)
        return batch.filter(keep).select(["p_partkey"])

    wparts = part.map_batches(f_parts, batch_format="pyarrow")
    li_w = broadcast_semi_join(
        li, wparts, on="l_partkey", right_on="p_partkey"
    )

    def combine(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch.column("l_extendedprice"))
        disc_pct = _cents(batch.column("l_discount"))
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))
        t = pa.table(
            {
                "ok": batch.column("l_orderkey"),
                "sk": batch.column("l_suppkey"),
                "revenue_c4": rev,
            }
        )
        return t.group_by(["ok", "sk"]).aggregate([("revenue_c4", "sum")]).rename_columns(
            ["ok", "sk", "revenue_c4"]
        )

    from renard_ray.ops.hashagg import hash_aggregate

    li_w_s = _scrub_schemaless(li_w)
    osk = (
        hash_aggregate(
            li_w_s.map_batches(combine, batch_format="pyarrow", batch_size=None),
            ["ok", "sk"],
            [("revenue_c4", "sum", "revenue_c4")],
        )
        if li_w_s is not None
        else None
    )
    if osk is None or osk.count() == 0:
        return out_schema.empty_table()
    dated = broadcast_lookup_join(
        osk,
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]),
        on="ok", right_on="o_orderkey",
        payload=["o_orderdate"],
    )
    supp_tab = _collect_small(
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]), 10_000_000
    )
    nation_tab = _collect_small(
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]), 1000
    )
    if supp_tab is None or nation_tab is None:
        raise ValueError("q9: supplier/nation exceeded the broadcast budget")
    supp_ref = ray.put(supp_tab.combine_chunks())
    nation_ref = ray.put(nation_tab.combine_chunks())

    def label(batch: pa.Table) -> pa.Table:
        st = ray.get(supp_ref)
        nt = ray.get(nation_ref)
        nk = pc.take(
            st.column("s_nationkey"),
            pc.index_in(batch.column("sk"), value_set=st.column("s_suppkey")),
        )
        t = pa.table(
            {
                "nation": pc.take(
                    nt.column("n_name"),
                    pc.index_in(nk, value_set=nt.column("n_nationkey")),
                ),
                "o_year": pc.cast(pc.year(batch.column("o_orderdate")), pa.int64()),
                "revenue_c4": batch.column("revenue_c4"),
            }
        )
        return t.group_by(["nation", "o_year"]).aggregate(
            [("revenue_c4", "sum")]
        ).rename_columns(["nation", "o_year", "revenue_c4"])

    return hash_aggregate(
        dated.map_batches(label, batch_format="pyarrow", batch_size=None),
        ["nation", "o_year"],
        [("revenue_c4", "sum", "revenue_c4")],
    )


def q11_important_parts(sf_dir: str) -> "Dataset | pa.Table":
    """TPC-H Q11 shape (HAVING against a GLOBAL scalar subquery):
    parts whose discounted revenue exceeds 6/5 of the mean per-part
    revenue — the "important stock" readout without the partsupp
    table this corpus lacks.

    Shape notes: per-part revenue is one combiner-fed groupby
    (bounded by |parts|, materialized once because the global total
    and the filter both consume it); the global total and part count
    reduce from THAT table via base-2^31 limb partials (a 100 TB
    revenue total wraps int64), and the HAVING comparison
    ``5 * n * v > 6 * total`` folds to an exact int64 threshold
    ``v > (6 * total) // (5 * n)`` computed once in Python bignums —
    nothing part-scale ever reaches the driver."""
    out_schema = pa.schema([("l_partkey", pa.int64()), ("value_c4", pa.int64())])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
    if li.count() == 0:
        return out_schema.empty_table()

    def combine(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch.column("l_extendedprice"))
        disc_pct = _cents(batch.column("l_discount"))
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))
        t = pa.table({"l_partkey": batch.column("l_partkey"), "value_c4": rev})
        return t.group_by(["l_partkey"]).aggregate([("value_c4", "sum")]).rename_columns(
            ["l_partkey", "value_c4"]
        )

    pv = (
        _hagg_auto(li.map_batches(combine, batch_format="pyarrow", batch_size=None), "l_partkey", [('value_c4', 'sum', 'value_c4')])
        .materialize()
    )

    def partial(batch: pa.Table) -> pa.Table:
        hi, lo = _limb_sums(batch.column("value_c4").to_numpy())
        return pa.table(
            {
                "n": pa.array([batch.num_rows], pa.int64()),
                "hi": pa.array([hi], pa.int64()),
                "lo": pa.array([lo], pa.int64()),
            }
        )

    agg = pv.map_batches(partial, batch_format="pyarrow", batch_size=None).aggregate(
        Sum("n", alias_name="n"), Sum("hi", alias_name="hi"), Sum("lo", alias_name="lo")
    ) or {}
    n = int(agg.get("n") or 0)
    if n == 0:
        return out_schema.empty_table()
    total = ((int(agg.get("hi") or 0)) << _LIMB_SHIFT) + int(agg.get("lo") or 0)
    # 5*n*v > 6*total  <=>  v > (6*total) // (5*n)   (exact: see the
    # integer-division argument in the module's ratio helpers)
    thr = (6 * total) // (5 * n)
    assert thr < 2**63, "q11: per-part threshold exceeds int64"

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch.column("value_c4"), pa.scalar(thr, pa.int64()))
        )

    return pv.map_batches(keep, batch_format="pyarrow")


def q16_supplier_part_counts(
    sf_dir: str,
    excl_brand: str = "Brand#13",
    sizes: tuple = (1, 9, 16, 24, 29, 35, 42, 47),
    excl_nationkey: int = 3,
) -> "Dataset | pa.Table":
    """TPC-H Q16 shape (COUNT DISTINCT + NOT IN): distinct suppliers
    that SHIPPED each qualifying (brand, type, size) part group,
    excluding suppliers from one nation (the complaints NOT-IN
    analog over the columns this corpus has).

    Shape notes: the qualifying-part key set (brand/size predicate,
    ~|sizes|/|size domain| of all parts) semi-filters lineitem AT THE
    SCAN EDGE so the fact-scale exchange shrinks by the part
    selectivity before any shuffle, the exclusion set broadcasts as
    an anti semi-join mask, the exchange carries only DISTINCT
    (partkey, suppkey) pairs (per-batch group_by combiner keeps the
    in-flight rows distinct too), part attributes attach to that
    already-reduced table via a size-adaptive lookup join, and the
    two remaining distinct/count groupbys are
    O(|groups| x |suppliers|)."""
    out_schema = pa.schema(
        [
            ("p_brand", pa.string()),
            ("p_type", pa.string()),
            ("p_size", pa.int64()),
            ("supplier_cnt", pa.int64()),
        ]
    )
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"])
    if li.count() == 0 or part.count() == 0:
        return out_schema.empty_table()

    def f_parts(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.invert(pc.equal(batch.column("p_brand"), excl_brand)),
            pc.is_in(
                batch.column("p_size"),
                value_set=pa.array(list(sizes), batch.column("p_size").type),
            ),
        )
        return batch.filter(keep)

    parts_f = part.map_batches(f_parts, batch_format="pyarrow")
    excl = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: b.filter(
            pc.equal(b.column("s_nationkey"), excl_nationkey)
        ).select(["s_suppkey"]),
        batch_format="pyarrow",
    )
    li = broadcast_semi_join(
        li,
        parts_f.map_batches(
            lambda b: b.select(["p_partkey"]), batch_format="pyarrow"
        ),
        on="l_partkey",
        right_on="p_partkey",
    )
    li_ok = broadcast_semi_join(li, excl, on="l_suppkey", right_on="s_suppkey", anti=True)

    def distinct_pair(batch: pa.Table) -> pa.Table:
        return batch.select(["l_partkey", "l_suppkey"]).group_by(
            ["l_partkey", "l_suppkey"]
        ).aggregate([])

    from renard_ray.ops.hashagg import hash_aggregate

    li_ok_s = _scrub_schemaless(li_ok)
    if li_ok_s is None:
        return out_schema.empty_table()
    ps = hash_aggregate(
        li_ok_s.map_batches(distinct_pair, batch_format="pyarrow", batch_size=None),
        ["l_partkey", "l_suppkey"],
        [],
    )
    if ps.count() == 0:
        return out_schema.empty_table()
    attached = broadcast_lookup_join(
        ps,
        parts_f,
        on="l_partkey", right_on="p_partkey",
        payload=["p_brand", "p_type", "p_size"],
    )
    attached_s = _scrub_schemaless(attached)
    if attached_s is None:
        return out_schema.empty_table()
    dist2 = hash_aggregate(
        attached_s, ["p_brand", "p_type", "p_size", "l_suppkey"], []
    )
    if dist2.count() == 0:
        return out_schema.empty_table()
    out = hash_aggregate(
        dist2.select_columns(["p_brand", "p_type", "p_size"]),
        ["p_brand", "p_type", "p_size"],
        [("", "count_all", "supplier_cnt")],
    )

    def widen(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "p_type": batch.column("p_type"),
                "p_size": pc.cast(batch.column("p_size"), pa.int64()),
                "supplier_cnt": batch.column("supplier_cnt"),
            }
        )

    return out.map_batches(widen, batch_format="pyarrow")


def q20_heavy_suppliers(
    sf_dir: str,
    name_part: str = "widget",
    since: "_dt.datetime" = _dt.datetime(1996, 1, 1),
) -> "Dataset | pa.Table":
    """TPC-H Q20 shape (nested semi-join chain): suppliers that
    shipped MORE THAN A QUARTER of the recent total shipped quantity
    of some ``name_part`` part — the excess-stock holder readout over
    the columns this corpus has (share-of-shipments for the missing
    partsupp availqty term).

    Shape notes: part-name predicate -> key-set semi-join (broadcast
    under the budget), per-batch (partkey, suppkey) quantity combiner
    feeds the ONE fact-scale groupby (materialized once: the
    per-part totals and the share filter both consume it), per-part
    totals are a second groupby over that bounded table, totals join
    back size-adaptively, and the share test ``4 * q > total`` is a
    vectorized int64 filter; the distinct-supplier reduce and the
    name attach are O(|suppliers|)."""
    out_schema = pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string())])
    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    if li.count() == 0 or part.count() == 0:
        return out_schema.empty_table()

    def f_parts(batch: pa.Table) -> pa.Table:
        keep = pc.match_substring(batch.column("p_name"), name_part)
        return batch.filter(keep).select(["p_partkey"])

    wparts = part.map_batches(f_parts, batch_format="pyarrow")
    li_w = broadcast_semi_join(
        li, wparts, on="l_partkey", right_on="p_partkey"
    )

    def combine(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater_equal(batch.column("l_shipdate"), pa.scalar(since))
        )
        t = pa.table(
            {
                "pk": batch.column("l_partkey"),
                "sk": batch.column("l_suppkey"),
                "q": _int(batch.column("l_quantity")),
            }
        )
        return t.group_by(["pk", "sk"]).aggregate([("q", "sum")]).rename_columns(
            ["pk", "sk", "q"]
        )

    sq = (
        _hagg_auto(li_w.map_batches(combine, batch_format="pyarrow", batch_size=None), ["pk", "sk"], [('q', 'sum', 'q')])
        .materialize()
    )
    sq_clean = _scrub_schemaless(sq)
    if sq_clean is None or sq_clean.count() == 0:
        return out_schema.empty_table()
    sq = sq_clean
    pt = _hagg_auto(sq, "pk", [('q', 'sum', 'tq')])
    back = broadcast_lookup_join(
        sq, pt, on="pk", right_on="pk", payload=["tq"]
    )

    def share(batch: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(batch.column("q"), pa.scalar(4, pa.int64())),
            batch.column("tq"),
        )
        return batch.filter(keep).select(["sk"])

    heavy = (
        _hagg_auto(back.map_batches(share, batch_format="pyarrow"), "sk", [('', 'count_all', 'count()')])
    )
    heavy = _scrub_schemaless(heavy)
    if heavy is None:
        return out_schema.empty_table()
    named = broadcast_lookup_join(
        heavy.select_columns(["sk"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_name"]),
        on="sk", right_on="s_suppkey", payload=["s_name"],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": pc.cast(batch.column("sk"), pa.int64()),
                "s_name": batch.column("s_name"),
            }
        )

    res = named.map_batches(finalize, batch_format="pyarrow")
    scrubbed = _scrub_schemaless(res)
    if scrubbed is None or scrubbed.count() == 0:
        return out_schema.empty_table()
    return scrubbed


def events_hourly_gapfill(sf_dir: str) -> "Dataset | pa.Table":
    """Calendar-spine gap fill: per-hour event count and value total
    with every MISSING hour between the corpus's first and last hour
    materialized as an explicit zero row — the dense time series a
    downstream forecaster/anomaly scorer expects (the LEFT JOIN +
    COALESCE against a generated calendar, as one operator).

    Shape notes: ONE combiner-fed groupby by absolute epoch-hour
    whose output is bounded by the CALENDAR, not the data (a decade
    is 87.6k rows no matter how many events), so the dense spine fill
    is a legitimate O(#hours) driver numpy pass over that
    calendar-bounded table; the bound is asserted loudly."""
    out_schema = pa.schema(
        [
            ("hour", pa.int64()),
            ("n_events", pa.int64()),
            ("value_c", pa.int64()),
        ]
    )
    ds = _read(sf_dir, "events", ["ts", "value"])
    if ds.count() == 0:
        return out_schema.empty_table()

    _comb_schema = pa.schema(
        [("hour", pa.int64()), ("n", pa.int64()), ("value_c", pa.int64())]
    )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _comb_schema.empty_table()
        us = _ts_us(batch.column("ts"))
        assert pc.min(us).as_py() >= 0, (
            "hourly_gapfill: pre-epoch timestamp (integer division "
            "would floor toward zero, not -inf)"
        )
        t = pa.table(
            {
                "hour": pc.divide(us, pa.scalar(3_600_000_000, pa.int64())),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
                "value_c": pc.fill_null(_cents(batch.column("value")), 0),
            }
        )
        return t.group_by("hour").aggregate(
            [("n", "sum"), ("value_c", "sum")]
        ).rename_columns(["hour", "n", "value_c"])

    hourly = (
        _hagg_auto(ds.map_batches(combine, batch_format="pyarrow", batch_size=None), "hour", [('n', 'sum', 'n'), ('value_c', 'sum', 'value_c')])
    )
    tab = _collect_small(hourly, 2_000_000)
    if tab is None:
        raise ValueError(
            "hourly_gapfill: hour spine exceeded 2M rows — the input "
            "spans >228 years of calendar; widen the bucket instead"
        )
    if tab.num_rows == 0:
        return out_schema.empty_table()
    hours = tab.column("hour").to_numpy()
    lo, hi = int(hours.min()), int(hours.max())
    span = hi - lo + 1
    assert span <= 2_000_000, "hourly_gapfill: calendar span bound"
    n_full = np.zeros(span, np.int64)
    v_full = np.zeros(span, np.int64)
    n_full[hours - lo] = tab.column("n").to_numpy()
    v_full[hours - lo] = tab.column("value_c").to_numpy()
    return ray.data.from_arrow(
        pa.table(
            {
                "hour": pa.array(lo + np.arange(span, dtype=np.int64)),
                "n_events": pa.array(n_full),
                "value_c": pa.array(v_full),
            }
        )
    )


def _grouped_prefix_counts(od: Dataset) -> tuple[Dataset, Dataset]:
    """Distinct-value prefix counts within each group: from (cust,
    price_c, ...) rows, the DISTINCT (cust, price_c) count table with
    per-row (below = rows strictly cheaper within my cust, upto =
    below + my multiplicity) plus the per-cust totals (cust, n).

    Any order-statistic window over (PARTITION BY cust ORDER BY
    price_c) is a pure function of these three integers, so
    PERCENT_RANK / CUME_DIST / median / arbitrary exact quantile
    selection all ride this one plan: combiner-fed distinct groupby,
    then ``sorted_run_scan`` of the reduced table — ONE sort, in-block
    weighted prefix sums and an O(#blocks) driver stitch carrying
    per-cust running totals across block edges."""

    def pair_combine(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "cust": batch.column("cust"),
                "price_c": batch.column("price_c"),
                "cnt": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by(["cust", "price_c"]).aggregate(
            [("cnt", "sum")]
        ).rename_columns(["cust", "price_c", "cnt"])

    from renard_ray.ops.hashagg import hash_aggregate

    reduced = hash_aggregate(
        od.map_batches(pair_combine, batch_format="pyarrow", batch_size=None),
        ["cust", "price_c"],
        [("cnt", "sum", "cnt")],
    )
    ncust = hash_aggregate(reduced, "cust", [("cnt", "sum", "n")])

    def scan(batch: pa.Table):
        cust = np.asarray(batch.column("cust"), dtype=np.int64)
        cnt = np.asarray(batch.column("cnt"), dtype=np.int64)
        n = batch.num_rows
        cum = np.cumsum(cnt)
        new_grp = np.ones(n, dtype=bool)
        new_grp[1:] = cust[1:] != cust[:-1]
        gs = np.maximum.accumulate(
            np.where(new_grp, np.arange(n, dtype=np.int64), -1)
        )
        # rows strictly below mine within my customer, block-local
        below = (cum - cnt) - (cum[gs] - cnt[gs])
        last_run = cust == cust[-1]
        summary = (int(cust[0]), int(cust[-1]), int(cnt[last_run].sum()))
        return (batch, below, cust == cust[0]), summary

    # O(#blocks) stitch: offset for a block's FIRST customer run =
    # that customer's total count in all earlier blocks
    def stitch(summaries: list) -> list[int]:
        offsets = []
        carry = 0
        prev_lc = None
        for fc, lc, s_last in summaries:
            off = carry if fc == prev_lc else 0
            offsets.append(off)
            carry = s_last + (off if fc == lc else 0)
            prev_lc = lc
        return offsets

    def finish(part, off) -> pa.Table:
        if part is None:
            return pa.schema(
                [(c, pa.int64()) for c in ("cust", "price_c", "below", "upto")]
            ).empty_table()
        batch, below, first_run = part
        below = below + np.where(first_run, off, 0)
        cnt = np.asarray(batch.column("cnt"), dtype=np.int64)
        return pa.table(
            {
                "cust": batch.column("cust"),
                "price_c": batch.column("price_c"),
                "below": pa.array(below),
                "upto": pa.array(below + cnt),
            }
        )

    ranks = sorted_run_scan(reduced, ["cust", "price_c"], scan, stitch, finish)
    return ranks, ncust


def orders_percent_rank(sf_dir: str) -> "Dataset | pa.Table":
    """PERCENT_RANK + CUME_DIST per order within its customer (price
    ascending), in exact parts-per-million — the remaining two
    members of the ranking-window family (next to the DENSE_RANK,
    NTILE, ROW_NUMBER, LAG, cumulative and bounded-frame ops).

    Shape notes (nothing order-scale on the driver, ONE sort over a
    REDUCED table): both functions are pure functions of (rows
    strictly below mine, rows at-or-below mine, partition size), so
    the window collapses to the DISTINCT (customer, price) count
    table — a combiner-fed groupby.  That reduced table is sorted
    once; each block computes in-block weighted prefix sums and the
    O(#blocks) driver stitch carries per-customer running totals
    across block edges (``sorted_run_scan``, as the dense-rank /
    moving-sum ops, applied to counts instead of rows).  Ranks join
    back to orders by the (customer, price) MULTI-COLUMN hash join
    and the partition size attaches via a size-adaptive single-key
    lookup; the ppm fields use the house exact half-away recipe in
    int64 (bounds asserted)."""
    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("o_orderkey", pa.int64()),
            ("pr_ppm", pa.int64()),
            ("cd_ppm", pa.int64()),
        ]
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    if orders.count() == 0:
        return out_schema.empty_table()

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cust": batch.column("o_custkey"),
                "okey": batch.column("o_orderkey"),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    od = orders.map_batches(derive, batch_format="pyarrow", batch_size=None)
    ranks, ncust = _grouped_prefix_counts(od)
    od_s = _schemaful(od)
    ranks_s = _schemaful(ranks)
    if od_s is None or ranks_s is None:
        return out_schema.empty_table()
    joined = hash_join(od_s, ranks_s, ["cust", "price_c"])
    withn = broadcast_lookup_join(
        joined, ncust, on="cust", right_on="cust",
        payload=["n"],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        below = np.asarray(batch.column("below"), dtype=np.int64)
        upto = np.asarray(batch.column("upto"), dtype=np.int64)
        nn = np.asarray(batch.column("n"), dtype=np.int64)
        assert nn.size == 0 or int(nn.max()) < 4 * 10**12, (
            "percent_rank: ppm numerator would overflow int64"
        )
        den = 2 * np.maximum(nn - 1, 1)
        pr = (2_000_000 * below + (nn - 1)) // den
        pr[nn == 1] = 0
        cd = (2_000_000 * upto + nn) // (2 * nn)
        return pa.table(
            {
                "o_custkey": batch.column("cust"),
                "o_orderkey": batch.column("okey"),
                "pr_ppm": pa.array(pr),
                "cd_ppm": pa.array(cd),
            }
        )

    return withn.map_batches(finalize, batch_format="pyarrow")


def q2_min_cost_supplier(sf_dir: str) -> "Dataset | pa.Table":
    """TPC-H Q2 shape — the min-cost supplier per part within a
    region — adapted to this corpus (no partsupp table: a supplier's
    cost for a part is its MINIMUM extended-price cents across that
    pair's lineitems).  For every STANDARD-type part of size <= 25,
    pick the EUROPE supplier with the lowest cost (ties to the
    smallest supplier key) and attach part/supplier/nation names.
    Completes the TPC-H query-shape family (Q1..Q22) next to the
    correlated-minimum Q17 and per-brand argmin.

    Shape notes: region/nation are fixed 5/25-row dimensions
    (asserted) — their EUROPE key set broadcasts as a mask; the
    supplier side narrows to that mask and rides the size-adaptive
    semi-join against lineitem (hash fallback past the broadcast
    limit), as does the filtered part key set, so the only fact-scale
    table is filtered by both key sets at the scan edge; a per-batch
    (part, supplier) group_by-min combiner reduces the exchange to
    one row per pair per batch before the ONE fact-scale groupby; the
    per-part winner is the house encoded-key Min argmin ((cost,
    suppkey) zero-padded pack — the Min aggregate IS the tie-broken
    argmin, no sort); names attach to the #parts-bounded result via
    size-adaptive lookup joins."""
    out_schema = pa.schema(
        [
            ("p_partkey", pa.int64()),
            ("p_name", pa.string()),
            ("s_suppkey", pa.int64()),
            ("s_name", pa.string()),
            ("n_name", pa.string()),
            ("cost_c", pa.int64()),
        ]
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_type", "p_size"])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    if part.count() == 0 or li.count() == 0:
        return out_schema.empty_table()

    def f_part(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch.column("p_type"), pa.scalar("STANDARD")),
            pc.less_equal(batch.column("p_size"), pa.scalar(25, pa.int32())),
        )
        return batch.filter(keep).select(["p_partkey", "p_name"])

    parts = part.map_batches(f_part, batch_format="pyarrow").materialize()

    nation = _collect_small(
        _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]), 10_000
    )
    region = _collect_small(_read(sf_dir, "region", ["r_regionkey", "r_name"]), 10_000)
    if nation is None or region is None:
        raise ValueError("q2: nation/region exceeded the 10k dimension bound")
    rkeys = region.filter(
        pc.equal(region.column("r_name"), pa.scalar("EUROPE"))
    ).column("r_regionkey").combine_chunks()
    nat_eu = nation.filter(
        pc.is_valid(pc.index_in(nation.column("n_regionkey"), value_set=rkeys))
    )
    nkey_ref = ray.put(nat_eu.column("n_nationkey").combine_chunks())

    def f_supp(batch: pa.Table) -> pa.Table:
        m = pc.is_valid(
            pc.index_in(batch.column("s_nationkey"), value_set=ray.get(nkey_ref))
        )
        return batch.filter(m).select(["s_suppkey", "s_name"])

    supp_eu = (
        _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"])
        .map_batches(f_supp, batch_format="pyarrow")
        .materialize()
    )

    li = broadcast_semi_join(
        li, parts, on="l_partkey", right_on="p_partkey",
    )
    li = broadcast_semi_join(
        li, supp_eu, on="l_suppkey", right_on="s_suppkey",
    )

    _pair_schema = pa.schema(
        [("pk", pa.int64()), ("sk", pa.int64()), ("cost_c", pa.int64())]
    )

    def pair_min(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _pair_schema.empty_table()
        t = pa.table(
            {
                "pk": batch.column("l_partkey"),
                "sk": batch.column("l_suppkey"),
                "cost_c": _cents(batch.column("l_extendedprice")),
            }
        )
        return t.group_by(["pk", "sk"]).aggregate([("cost_c", "min")]).rename_columns(
            ["pk", "sk", "cost_c"]
        )

    pair = _scrub_schemaless(
        _hagg_auto(li.map_batches(pair_min, batch_format="pyarrow", batch_size=None), ["pk", "sk"], [('cost_c', 'min', 'cost_c')])
    )
    if pair is None:
        return out_schema.empty_table()

    def enc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"pk": pa.array([], pa.int64()), "k": pa.array([], pa.string())}
            )
        cmin = pc.min(batch.column("cost_c")).as_py()
        smin = pc.min(batch.column("sk")).as_py()
        assert cmin is not None and cmin >= 0, (
            "q2: negative cost breaks the zero-padded argmin key"
        )
        assert smin is not None and smin >= 0, (
            "q2: negative suppkey breaks the zero-padded argmin key"
        )
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(batch.column("cost_c"), pa.string()), 19, padding="0"),
            pc.utf8_lpad(pc.cast(batch.column("sk"), pa.string()), 19, padding="0"),
            "",
        )
        return pa.table({"pk": batch.column("pk"), "k": key})

    best = (
        _hagg_auto(pair.map_batches(enc, batch_format="pyarrow"), "pk", [('k', 'min', 'k')])
    )

    def decode(batch: pa.Table) -> pa.Table:
        cost = pc.cast(pc.utf8_slice_codeunits(batch.column("k"), 0, 19), pa.int64())
        sk = pc.cast(pc.utf8_slice_codeunits(batch.column("k"), 19, 38), pa.int64())
        return pa.table(
            {"p_partkey": batch.column("pk"), "s_suppkey": sk, "cost_c": cost}
        )

    won = best.map_batches(decode, batch_format="pyarrow")
    won = broadcast_lookup_join(
        won, parts, on="p_partkey", right_on="p_partkey", payload=["p_name"]
    )
    won = broadcast_lookup_join(
        won, supp_eu, on="s_suppkey", right_on="s_suppkey", payload=["s_name"]
    )
    # nation name: the supplier -> nation hop needs s_nationkey, which
    # the semi-narrowed supplier table dropped — re-read just the two
    # key columns (dimension-bounded) and chain two lookups
    supp_nat = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    won = broadcast_lookup_join(
        won, supp_nat, on="s_suppkey", right_on="s_suppkey", payload=["s_nationkey"]
    )
    nat_ref = ray.put(nat_eu.combine_chunks())

    def add_nation(batch: pa.Table) -> pa.Table:
        nt = ray.get(nat_ref)
        idx = pc.cast(
            pc.index_in(batch.column("s_nationkey"), value_set=nt.column("n_nationkey")),
            pa.int64(),
        )
        batch = batch.append_column("n_name", pc.take(nt.column("n_name"), idx))
        return batch.select(
            ["p_partkey", "p_name", "s_suppkey", "s_name", "n_name", "cost_c"]
        )

    return won.map_batches(add_nation, batch_format="pyarrow")


def orders_median_by_customer(sf_dir: str) -> "Dataset | pa.Table":
    """Exact per-customer median order price, in DOUBLED cents
    (``median_c2 = lo_mid_cents + hi_mid_cents``, so the even-count
    average stays an exact integer) — grouped exact selection at
    many-partitions scale, the grouped counterpart of the global
    exact-percentile ops.

    Shape notes: rides the shared ``_grouped_prefix_counts`` plan
    (combiner-fed distinct (customer, price) reduce, ONE sort of the
    reduced table, O(#blocks) offset stitch); a distinct-value row
    covering positions [below, upto) contains the k-th order statistic
    iff below <= k < upto, so each middle position selects exactly one
    row per customer — the median is a vectorized covering filter plus
    one |customers|-bounded groupby-sum, no per-group work anywhere."""
    out_schema = pa.schema([("o_custkey", pa.int64()), ("median_c2", pa.int64())])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    if orders.count() == 0:
        return out_schema.empty_table()

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cust": batch.column("o_custkey"),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )

    od = orders.map_batches(derive, batch_format="pyarrow", batch_size=None)
    ranks, ncust = _grouped_prefix_counts(od)
    withn = broadcast_lookup_join(ranks, ncust, on="cust", right_on="cust", payload=["n"])

    _mid_schema = pa.schema([("cust", pa.int64()), ("part", pa.int64())])

    def pick(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _mid_schema.empty_table()
        below = np.asarray(batch.column("below"), dtype=np.int64)
        upto = np.asarray(batch.column("upto"), dtype=np.int64)
        nn = np.asarray(batch.column("n"), dtype=np.int64)
        price = np.asarray(batch.column("price_c"), dtype=np.int64)
        m1 = (nn - 1) // 2
        m2 = nn // 2
        c1 = (below <= m1) & (m1 < upto)
        c2 = (below <= m2) & (m2 < upto)
        keep = c1 | c2
        part = price * (c1.astype(np.int64) + c2.astype(np.int64))
        mask = pa.array(keep)
        return pa.table(
            {
                "cust": batch.column("cust").filter(mask),
                "part": pa.array(part[keep]),
            }
        )

    mids = _scrub_schemaless(
        _hagg_auto(withn.map_batches(pick, batch_format="pyarrow"), "cust", [('part', 'sum', 'median_c2')])
    )
    if mids is None:
        return out_schema.empty_table()
    return mids.map_batches(
        lambda b: pa.table(
            {"o_custkey": b.column("cust"), "median_c2": b.column("median_c2")}
        ),
        batch_format="pyarrow",
    )


def orders_constraints(sf_dir: str) -> "Dataset | pa.Table":
    """Deequ-style constraint validation over the orders table — one
    result row per declared check: key uniqueness, FK containment in
    customer, null/domain/range/positivity — (check_name, n_rows,
    n_violations, passed).  The per-COLUMN profile is
    ``orders_profile``; this is the assertion suite a production
    ingest would gate a 100 TB load on.

    Shape notes: all scalar checks ride ONE column-pruned pass as a
    per-batch one-row partial (map_batches skips empty blocks, so the
    partial schema is fixed up front) reduced by a single tiny
    aggregate; key uniqueness is a distinct groupby whose COUNT is the
    only thing collected; the FK check is the size-adaptive ANTI
    semi-join (broadcast customer keys under the limit, hash join past
    it) reduced to a count — nothing row-scale reaches the driver."""
    out_schema = pa.schema(
        [
            ("check_name", pa.string()),
            ("n_rows", pa.int64()),
            ("n_violations", pa.int64()),
            ("passed", pa.int64()),
        ]
    )
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus", "o_orderdate"]
    ds = _read(sf_dir, "orders", cols)
    n_rows = ds.count()
    if n_rows == 0:
        return out_schema.empty_table()
    lo = _dt.datetime(1995, 1, 1)
    hi = _dt.datetime(2000, 1, 1)

    _part_schema = pa.schema(
        [
            ("ck_null", pa.int64()),
            ("tp_bad", pa.int64()),
            ("dom_bad", pa.int64()),
            ("rng_bad", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _part_schema.empty_table()

        def nviol(ok: pa.ChunkedArray) -> int:
            # a null predicate value is a violation (SQL CHECK passes
            # only on TRUE; these gates want definite validity)
            bad = pc.sum(pc.invert(pc.fill_null(ok, False))).as_py()
            return int(bad or 0)

        dom = pc.is_in(
            batch.column("o_orderstatus"),
            value_set=pa.array(["O", "F", "P"], pa.string()),
        )
        rng = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), pa.scalar(lo)),
            pc.less(batch.column("o_orderdate"), pa.scalar(hi)),
        )
        pos = pc.greater(batch.column("o_totalprice"), pa.scalar(0.0))
        nulls = pc.sum(pc.is_null(batch.column("o_custkey"))).as_py()
        return pa.table(
            {
                "ck_null": pa.array([int(nulls or 0)], pa.int64()),
                "tp_bad": pa.array([nviol(pos)], pa.int64()),
                "dom_bad": pa.array([nviol(dom)], pa.int64()),
                "rng_bad": pa.array([nviol(rng)], pa.int64()),
            }
        )

    # Dataset.aggregate on the per-batch one-row partials returns the
    # single global row as a dict
    sums = ds.map_batches(partial, batch_format="pyarrow", batch_size=None).aggregate(
        Sum("ck_null", alias_name="ck_null"),
        Sum("tp_bad", alias_name="tp_bad"),
        Sum("dom_bad", alias_name="dom_bad"),
        Sum("rng_bad", alias_name="rng_bad"),
    )
    # key uniqueness: distinct non-null count vs row count
    keyed = ds.select_columns(["o_orderkey"])
    n_valid_keys = keyed.map_batches(
        lambda b: b.filter(pc.is_valid(b.column("o_orderkey"))),
        batch_format="pyarrow",
    )
    n_distinct = _hagg_auto(n_valid_keys, "o_orderkey", [('', 'count_all', 'count()')]).count()
    # FK containment: non-null custkeys absent from customer
    cust_rows = ds.select_columns(["o_custkey"]).map_batches(
        lambda b: b.filter(pc.is_valid(b.column("o_custkey"))),
        batch_format="pyarrow",
    )
    fk_bad = broadcast_semi_join(
        cust_rows,
        _read(sf_dir, "customer", ["c_custkey"]),
        on="o_custkey",
        right_on="c_custkey",
        anti=True,
    ).count()

    checks = [
        ("orderkey_unique", n_rows - n_distinct),
        ("custkey_not_null", int(sums["ck_null"])),
        ("custkey_in_customer", fk_bad),
        ("totalprice_positive", int(sums["tp_bad"])),
        ("status_in_domain", int(sums["dom_bad"])),
        ("orderdate_in_range", int(sums["rng_bad"])),
    ]
    names = [c[0] for c in checks]
    viols = [int(c[1]) for c in checks]
    return ray.data.from_arrow(
        pa.table(
            {
                "check_name": pa.array(names, pa.string()),
                "n_rows": pa.array([n_rows] * len(names), pa.int64()),
                "n_violations": pa.array(viols, pa.int64()),
                "passed": pa.array([int(v == 0) for v in viols], pa.int64()),
            }
        )
    )


def part_skyline(sf_dir: str) -> "Dataset | pa.Table":
    """Skyline (Pareto frontier) over parts: every part not dominated
    on (retail price LOW, size HIGH) — A dominates B iff A is no more
    expensive AND no smaller, strictly better on at least one.  The
    multi-objective shortlist query (cheapest-per-capability), a shape
    none of the classic aggregates cover.

    Shape notes: the frontier depends only on (price, size) pairs and
    within one price only the max size can survive, so the candidate
    set collapses to the per-price MAX table — a combiner-fed groupby
    bounded by |distinct prices|, never row count.  Frontier
    membership over that reduced table is "size strictly above every
    cheaper price's max" — a ``sorted_run_scan`` prefix-MAX with the
    O(#blocks) carry (block summaries collect block max; the stitch
    hands each block the running max of all earlier blocks).  Surviving (price,
    max-size) pairs join back to part by the multi-column hash join,
    recovering ALL parts on frontier points (ties share the
    frontier)."""
    out_schema = pa.schema(
        [("p_partkey", pa.int64()), ("price_c", pa.int64()), ("p_size", pa.int64())]
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    if part.count() == 0:
        return out_schema.empty_table()

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "price_c": _cents(batch.column("p_retailprice")),
                "p_size": pc.cast(batch.column("p_size"), pa.int64()),
            }
        )

    d = part.map_batches(derive, batch_format="pyarrow", batch_size=None)

    _g_schema = pa.schema([("price_c", pa.int64()), ("ms", pa.int64())])

    def per_price_max(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _g_schema.empty_table()
        t = pa.table(
            {"price_c": batch.column("price_c"), "ms": batch.column("p_size")}
        )
        return t.group_by("price_c").aggregate([("ms", "max")]).rename_columns(
            ["price_c", "ms"]
        )

    g = _hagg_auto(
        d.map_batches(per_price_max, batch_format="pyarrow", batch_size=None),
        "price_c",
        [("ms", "max", "ms")],
    )

    def scan(batch: pa.Table):
        return batch, int(np.asarray(batch.column("ms"), dtype=np.int64).max())

    # exclusive running max of the block maxima
    def stitch(bmaxes: list[int]) -> list[int]:
        carries = []
        run = -(10**18)
        for bmax in bmaxes:
            carries.append(run)
            run = max(run, bmax)
        return carries

    def frontier(batch, carry) -> pa.Table:
        if batch is None:
            return _g_schema.empty_table()
        ms = np.asarray(batch.column("ms"), dtype=np.int64)
        # prefix max of all STRICTLY cheaper prices: within the sorted
        # per-price table that is the running max shifted by one row
        prev = np.empty(len(ms), np.int64)
        prev[0] = carry
        np.maximum.accumulate(ms[:-1], out=prev[1:])
        prev[1:] = np.maximum(prev[1:], carry)
        keep = ms > prev
        return pa.table(
            {
                "price_c": batch.column("price_c").filter(pa.array(keep)),
                "ms": batch.column("ms").filter(pa.array(keep)),
            }
        )

    f = sorted_run_scan(g, "price_c", scan, stitch, frontier)
    d_s = _schemaful(d)
    if d_s is None:
        return out_schema.empty_table()
    joined = hash_join(d_s, f, ["price_c", "p_size"], ["price_c", "ms"])
    return joined.select_columns(["p_partkey", "price_c", "p_size"])


def events_time_weighted_value(sf_dir: str) -> "Dataset | pa.Table":
    """Exact time-weighted average event value per user, in cents-ppm
    (``twa_c_ppm = round_half_away(1e6 * sum(v_i * dt_i) / span)``
    where ``dt_i`` is the gap to the user's NEXT event and ``span`` is
    last-minus-first) — the telemetry/pricing integral a plain AVG
    misrepresents whenever sampling is irregular.  Users with zero
    span (single event, or all events at one instant) drop, as a
    zero-length integral is undefined.

    Shape notes: consecutive-pair products ride ``sorted_run_scan`` —
    ONE (user, ts, event_id) sort, each block multiplies its interior
    pairs vectorized and defers only its edge rows to the O(#blocks)
    driver stitch (the cross-block pair is last-row-of-i ×
    first-row-of-i+1).  A cents × microseconds product reaches ~1e19
    and wraps int64, so every product is limb-split per ROW (hi = v *
    dt_hi + carry, lo in [0, 2^31)) and per-user partials renormalize
    per batch; the cross-batch groupby sums stay exact because
    sum(v * dt_hi) is bounded by v_max * total-span / 2^31 — a
    CALENDAR bound, not a row-count bound (asserted).  The finalize
    recombines Python bignums on the |users|-bounded table, exactly
    mirroring the oracle's HUGEINT arithmetic."""
    out_schema = pa.schema([("user_id", pa.int64()), ("twa_c_ppm", pa.int64())])
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    if ds.count() == 0:
        return out_schema.empty_table()

    def norm(batch: pa.Table) -> pa.Table:
        v = pc.fill_null(_cents(batch.column("value")), 0)
        vmin = pc.min(v).as_py()
        vmax = pc.max(v).as_py()
        assert vmin is None or vmin >= 0, (
            "time_weighted_value: negative value cents — the floor-division "
            "ppm recipe and the oracle's // disagree below zero"
        )
        assert vmax is None or vmax < 10**9, (
            "time_weighted_value: value cents >= 1e9 break the limb bound"
        )
        us = _ts_us(batch.column("ts"))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": us,
                "event_id": batch.column("event_id"),
                "v": v,
            }
        )

    normed = ds.map_batches(norm, batch_format="pyarrow").materialize()
    _MASK = (1 << 31) - 1
    num_schema = pa.schema([("user", pa.int64()), ("a", pa.int64()), ("b", pa.int64())])

    def pair_partials(batch: pa.Table):
        u = batch.column("user_id").to_numpy()
        t = batch.column("us").to_numpy()
        v = batch.column("v").to_numpy()
        n = len(u)
        rows: dict[str, list] = {k: [] for k in ("user", "a", "b")}
        if n > 1:
            same = u[:-1] == u[1:]
            dt = t[1:] - t[:-1]
            dt_hi = dt >> 31
            q = v[:-1] * (dt & _MASK)
            hi = v[:-1] * dt_hi + (q >> 31)
            lo = q & _MASK
            hi = np.where(same, hi, 0)
            lo = np.where(same, lo, 0)
            # per-user segment sums within the (already user-sorted)
            # block, renormalized so lo stays inside one limb
            uu, starts = np.unique(u[:-1], return_index=True)
            ends = np.r_[starts[1:], n - 1]
            for uk, s, e in zip(uu, starts, ends):
                a = int(hi[s:e].sum())
                b = int(lo[s:e].sum())
                a += b >> 31
                b &= _MASK
                # zero sums still emit: a user whose integral is 0 but
                # whose span is positive must reach the output with
                # twa = 0, not vanish from the inner join
                rows["user"].append(int(uk))
                rows["a"].append(a)
                rows["b"].append(b)
        interior = pa.table(rows, schema=num_schema)
        # (user, t) of the first row, (user, t, v) of the last
        edges = ((int(u[0]), int(t[0])), (int(u[-1]), int(t[-1]), int(v[-1])))
        return interior, edges

    # cross-block pair: last row of block i x first row of block i+1,
    # riding to block i+1
    def stitch(edges: list) -> list[list[dict]]:
        extra: list[list[dict]] = [[]]
        for (_, (lu, lt, lv)), ((fu, ft), _) in zip(edges, edges[1:]):
            p = lv * (ft - lt)  # exact Python int
            extra.append([{"user": lu, "a": p >> 31, "b": p & _MASK}] if lu == fu else [])
        return extra

    def finish(interior, extra) -> pa.Table:
        if interior is None:
            return num_schema.empty_table()
        return pa.concat_tables([interior, pa.Table.from_pylist(extra, schema=num_schema)])

    partials = sorted_run_scan(
        normed, ["user_id", "us", "event_id"], pair_partials, stitch, finish
    )
    num = _hagg_auto(partials, "user", [('a', 'sum', 'a'), ('b', 'sum', 'b')])
    span = _hagg_auto(normed, "user_id", [('us', 'min', 't0'), ('us', 'max', 't1')])
    num_s = _scrub_schemaless(num)
    if num_s is None:
        return out_schema.empty_table()
    withspan = broadcast_lookup_join(
        num_s, span, on="user", right_on="user_id", payload=["t0", "t1"]
    )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        users: list[int] = []
        ppm: list[int] = []
        for user, a, b, t0, t1 in zip(
            batch.column("user").to_pylist(),
            batch.column("a").to_pylist(),
            batch.column("b").to_pylist(),
            batch.column("t0").to_pylist(),
            batch.column("t1").to_pylist(),
        ):
            den = t1 - t0
            if den <= 0:
                continue
            total = (a << 31) + b  # Python bignum: exact past int64
            users.append(user)
            ppm.append((2_000_000 * total + den) // (2 * den))
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "twa_c_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return withspan.map_batches(finalize, batch_format="pyarrow")


def lineitem_abc_classes(sf_dir: str) -> "Dataset | pa.Table":
    """ABC / Pareto classification of parts by revenue: sort parts by
    revenue descending and classify by CUMULATIVE share — 'A' while
    the share before a part is under 80%, 'B' under 95%, 'C' past it
    (the inventory-analysis cut of the Lorenz curve; the part that
    CROSSES a boundary belongs to the richer class).

    Shape notes: per-part revenue is a combiner-fed groupby (the only
    fact-scale exchange); the cumulative sum rides
    ``sorted_run_scan`` — ONE sort of the |parts|-bounded revenue table by
    (rev desc, partkey), per-block cumsum, O(#blocks) driver carry of
    block totals.  Class predicates are exact integer inequalities
    (5*(cum-rev) < 4*total etc.), no ppm rounding anywhere; the
    cumulative total is asserted < 4e17 cents so the 20x products
    stay inside int64 (a corpus past that needs the q11-style limb
    widening, loudly)."""
    out_schema = pa.schema(
        [
            ("l_partkey", pa.int64()),
            ("rev_c", pa.int64()),
            ("abc_class", pa.string()),
        ]
    )
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])
    if li.count() == 0:
        return out_schema.empty_table()

    _pr_schema = pa.schema([("pk", pa.int64()), ("rev_c", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _pr_schema.empty_table()
        t = pa.table(
            {
                "pk": batch.column("l_partkey"),
                "rev_c": _cents(batch.column("l_extendedprice")),
            }
        )
        return t.group_by("pk").aggregate([("rev_c", "sum")]).rename_columns(
            ["pk", "rev_c"]
        )

    pr = (
        _hagg_auto(li.map_batches(combine, batch_format="pyarrow", batch_size=None), "pk", [('rev_c', 'sum', 'rev_c')])
    )

    def order_key(batch: pa.Table) -> pa.Table:
        rmax = pc.max(batch.column("rev_c")).as_py()
        assert rmax is None or rmax < 4 * 10**17, (
            "abc: per-part revenue exceeds the int64 predicate bound — "
            "widen to limb arithmetic"
        )
        return pa.table(
            {
                "pk": batch.column("pk"),
                "rev_c": batch.column("rev_c"),
                "neg_rev": pc.subtract(pa.scalar(0, pa.int64()), batch.column("rev_c")),
            }
        )

    def scan(batch: pa.Table):
        rev = np.asarray(batch.column("rev_c"), dtype=np.int64)
        return batch, int(rev.sum())

    def stitch(btotals: list[int]) -> list[tuple[int, int]]:
        offsets = []
        run = 0
        for btotal in btotals:
            offsets.append(run)
            run += btotal
        total = run
        assert total < 4 * 10**17, (
            "abc: corpus revenue exceeds the int64 predicate bound — widen "
            "to limb arithmetic"
        )
        return [(off, total) for off in offsets]

    def classify(batch, carry) -> pa.Table:
        if batch is None:
            return out_schema.empty_table()
        off, total = carry
        rev = np.asarray(batch.column("rev_c"), dtype=np.int64)
        before = off + np.cumsum(rev) - rev  # cumulative share BEFORE me
        cls = np.where(
            5 * before < 4 * total, "A", np.where(20 * before < 19 * total, "B", "C")
        )
        return pa.table(
            {
                "l_partkey": batch.column("pk"),
                "rev_c": batch.column("rev_c"),
                "abc_class": pa.array(cls.tolist(), pa.string()),
            }
        )

    return sorted_run_scan(
        pr.map_batches(order_key, batch_format="pyarrow"),
        ["neg_rev", "pk"],
        scan,
        stitch,
        classify,
    )


def events_modal_type_per_user(sf_dir: str) -> "Dataset | pa.Table":
    """Grouped mode: each user's most frequent event type with its
    count, ties to the LEXICOGRAPHICALLY SMALLEST type so the answer
    is a pure function of the data — the per-group counterpart of the
    per-column modal value in ``orders_profile``.

    Shape notes: (user, type) counts reduce through a per-batch
    combiner groupby; the per-user winner is ONE encoded-key Min
    aggregate ((10^18 - count) zero-padded + the type string — the
    Min IS the (count desc, type asc) argmax, no sort, no window);
    the decode pass is |users|-bounded."""
    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("modal_type", pa.string()),
            ("n", pa.int64()),
        ]
    )
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    if ds.count() == 0:
        return out_schema.empty_table()

    _cnt_schema = pa.schema(
        [("user_id", pa.int64()), ("event_type", pa.string()), ("cnt", pa.int64())]
    )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _cnt_schema.empty_table()
        assert batch.column("event_type").null_count == 0, (
            "modal_type: null event_type — Ray 2.49's hash groupby "
            "crashes sorting None among string keys; prefix-encode "
            "like orders_profile if this corpus gains null types"
        )
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "cnt": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by(["user_id", "event_type"]).aggregate(
            [("cnt", "sum")]
        ).rename_columns(["user_id", "event_type", "cnt"])

    counts = (
        _hagg_auto(ds.map_batches(combine, batch_format="pyarrow", batch_size=None), ["user_id", "event_type"], [('cnt', 'sum', 'cnt')])
    )

    def enc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"user_id": pa.array([], pa.int64()), "k": pa.array([], pa.string())}
            )
        cmax = pc.max(batch.column("cnt")).as_py()
        assert cmax is None or cmax < 10**18, "modal_type: count pack range"
        inv = pc.subtract(pa.scalar(10**18, pa.int64()), batch.column("cnt"))
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(inv, pa.string()), 19, padding="0"),
            batch.column("event_type"),
            "",
        )
        return pa.table({"user_id": batch.column("user_id"), "k": key})

    best = (
        _hagg_auto(counts.map_batches(enc, batch_format="pyarrow"), "user_id", [('k', 'min', 'k')])
    )

    def decode(batch: pa.Table) -> pa.Table:
        inv = pc.cast(pc.utf8_slice_codeunits(batch.column("k"), 0, 19), pa.int64())
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "modal_type": pc.utf8_slice_codeunits(batch.column("k"), 19),
                "n": pc.subtract(pa.scalar(10**18, pa.int64()), inv),
            }
        )

    return best.map_batches(decode, batch_format="pyarrow")


def events_type_diversity(sf_dir: str) -> "Dataset | pa.Table":
    """Per-user Gini-Simpson diversity of event types — the exact
    behavioral-diversity readout (1 - sum of squared type shares):
    0 = every event the same type, -> 1 = spread over many types.
    Unlike Shannon entropy this needs NO logarithm, so the answer is
    an exact rational of integer counts and value-hashes against SQL
    with no libm-parity risk.

    Shape notes: (user, type) counts reduce through the combiner-fed
    groupby (the one fact-scale exchange); n and sum(c^2) reduce from
    that |users| x |types|-bounded table in a second groupby; the
    ppm finalize runs DISTRIBUTED over the |users|-bounded result in
    per-row Python bignums (2e6 * n^2 exceeds int64).  Per-user n is
    asserted < 3.034e9 so every c^2 and sum(c^2) <= n^2 stays inside
    int64 during the exchange — past that the split-square limb
    widening (``_sq_limbs``) applies, loudly."""
    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n", pa.int64()),
            ("diversity_ppm", pa.int64()),
        ]
    )
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    if ds.count() == 0:
        return out_schema.empty_table()

    _cnt_schema = pa.schema(
        [("user_id", pa.int64()), ("event_type", pa.string()), ("cnt", pa.int64())]
    )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _cnt_schema.empty_table()
        assert batch.column("event_type").null_count == 0, (
            "type_diversity: null event_type — prefix-encode like "
            "orders_profile if this corpus gains null types"
        )
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "cnt": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by(["user_id", "event_type"]).aggregate(
            [("cnt", "sum")]
        ).rename_columns(["user_id", "event_type", "cnt"])

    counts = (
        _hagg_auto(ds.map_batches(combine, batch_format="pyarrow", batch_size=None), ["user_id", "event_type"], [('cnt', 'sum', 'cnt')])
    )

    _mo_schema = pa.schema(
        [("user_id", pa.int64()), ("n", pa.int64()), ("s2", pa.int64())]
    )

    def moments(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _mo_schema.empty_table()
        c = batch.column("cnt").to_numpy()
        assert int(c.max()) < 3_034_000_000, (
            "type_diversity: per-(user,type) count squares past int64 "
            "— widen s2 to the split-square limb encoding"
        )
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "n": batch.column("cnt"),
                "s2": pa.array(c * c, pa.int64()),
            }
        )
        return t.group_by("user_id").aggregate(
            [("n", "sum"), ("s2", "sum")]
        ).rename_columns(["user_id", "n", "s2"])

    per_user = (
        _hagg_auto(counts.map_batches(moments, batch_format="pyarrow", batch_size=None), "user_id", [('n', 'sum', 'n'), ('s2', 'sum', 's2')])
    )

    def finalize(batch: pa.Table) -> pa.Table:
        users = batch.column("user_id").to_pylist()
        ns = batch.column("n").to_pylist()
        s2s = batch.column("s2").to_pylist()
        ppm = []
        for n, s2 in zip(ns, s2s):
            # n < 3.034e9 asserted upstream => n*n < 9.21e18 fits the
            # int64 column; 2e6 * (n*n - s2) does NOT — Python bignums
            assert n < 3_034_000_000, "type_diversity: n^2 past int64"
            nn = n * n
            ppm.append((2_000_000 * (nn - s2) + nn) // (2 * nn))
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "diversity_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return per_user.map_batches(finalize, batch_format="pyarrow")


def events_trend_slope(sf_dir: str) -> "Dataset | pa.Table":
    """Per-type OLS trend of daily event volume: the least-squares
    slope of (epoch-day, daily count) over each type's OBSERVED days
    (no gap fill — a day with zero events contributes no point,
    mirroring the SQL GROUP BY), in exact half-away ppm events/day.
    Positive = growing volume, negative = decaying; the trend-triage
    companion of the spike detector ``events_daily_anomaly``.

    Exactness: slope = (m*Sxy - Sx*Sy) / (m*Sxx - Sx^2) evaluated in
    Python bignums from exact integer sums — num/den reach ~1e30 at
    web scale, past any float's integer range, and the sign-aware
    half-away ppm rounding can't be flipped by a float division.
    Shape notes: ONE (type, day) groupby over the pruned scan builds
    the calendar-bounded day table; per-type moment partials reduce
    per batch with Sxy as base-2^31 limb pairs (day*count reaches
    ~5e17/row — the per-ROW product is asserted inside int64, the SUM
    would wrap); the final moment table is |types|-sized and the
    bignum finalize is a driver pass over it.  Types with fewer than
    two observed days have no slope and drop (den would be 0)."""
    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_days", pa.int64()),
            ("slope_ppm", pa.int64()),
        ]
    )
    ev = _read(sf_dir, "events", ["event_type", "ts"])
    if ev.count() == 0:
        return out_schema.empty_table()

    _td_schema = pa.schema(
        [("event_type", pa.string()), ("day", pa.int64()), ("c", pa.int64())]
    )

    def to_day(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _td_schema.empty_table()
        us = pc.cast(_ts_us(batch.column("ts")), pa.int64())
        assert pc.min(us).as_py() >= 0, (
            "trend_slope: pre-epoch timestamp — integer division "
            "floors toward zero, not -inf"
        )
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "day": pc.divide(us, pa.scalar(86_400_000_000, pa.int64())),
                "c": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        # per-batch combiner: the exchange carries (type, day) partials,
        # never one row per event
        return t.group_by(["event_type", "day"]).aggregate(
            [("c", "sum")]
        ).rename_columns(["event_type", "day", "c"])

    day_counts = _scrub_schemaless(
        _hagg_auto(ev.map_batches(to_day, batch_format="pyarrow", batch_size=None), ["event_type", "day"], [('c', 'sum', 'c')])
    )
    if day_counts is None:
        return out_schema.empty_table()

    _MOM = ("m", "sx", "sxx", "sy", "sxy_hi", "sxy_lo")

    def moment_partial(batch: pa.Table) -> pa.Table:
        types = batch.column("event_type").to_pylist()
        d = batch.column("day").to_numpy()
        c = pc.cast(batch.column("c"), pa.int64()).to_numpy()
        if len(d):
            assert int(d.max()) < 3_000_000 and int(c.max()) < 3 * 10**12, (
                "trend_slope: day*count product leaves int64 — widen "
                "sxy to the split-square limb encoding"
            )
        out: dict = {"event_type": []}
        for k in _MOM:
            out[k] = []
        order: dict = {}
        for i, t in enumerate(types):
            order.setdefault(t, []).append(i)
        for t in sorted(order):
            idx = np.array(order[t], np.int64)
            dv, cv = d[idx], c[idx]
            hi, lo = _limb_sums(dv * cv)
            out["event_type"].append(t)
            out["m"].append(len(dv))
            out["sx"].append(int(dv.sum(dtype=np.int64)))
            out["sxx"].append(int((dv * dv).sum(dtype=np.int64)))
            out["sy"].append(int(cv.sum(dtype=np.int64)))
            out["sxy_hi"].append(hi)
            out["sxy_lo"].append(lo)
        return pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                **{k: pa.array(out[k], pa.int64()) for k in _MOM},
            }
        )

    moments = _scrub_schemaless(
        _hagg_auto(
            day_counts.map_batches(
                moment_partial, batch_format="pyarrow", batch_size=None
            ),
            "event_type",
            [(k, "sum", k) for k in _MOM],
        )
    )
    if moments is None:
        return out_schema.empty_table()
    # one row per event type: a bounded metric domain
    mom_tab = _collect_small(moments, 1_000_000)
    if mom_tab is None:
        raise ValueError("events_trend_slope: type-moment table over budget")

    types_out, ndays_out, slope_out = [], [], []
    rows = sorted(
        (
            mom_tab.column("event_type")[i].as_py(),
            int(mom_tab.column("m")[i].as_py()),
            int(mom_tab.column("sx")[i].as_py()),
            int(mom_tab.column("sxx")[i].as_py()),
            int(mom_tab.column("sy")[i].as_py()),
            (int(mom_tab.column("sxy_hi")[i].as_py()) << _LIMB_SHIFT)
            + int(mom_tab.column("sxy_lo")[i].as_py()),
        )
        for i in range(mom_tab.num_rows)
    )
    for t, m, sx, sxx, sy, sxy in rows:
        if m < 2:
            continue
        num = m * sxy - sx * sy  # Python bignums: exact at any scale
        den = m * sxx - sx * sx  # > 0 for >= 2 DISTINCT days
        assert den > 0, "trend_slope: zero variance over distinct days"
        if num >= 0:
            s = (2_000_000 * num + den) // (2 * den)
        else:
            s = -((2_000_000 * (-num) + den) // (2 * den))
        types_out.append(t)
        ndays_out.append(m)
        slope_out.append(s)
    return pa.table(
        {
            "event_type": pa.array(types_out, pa.string()),
            "n_days": pa.array(ndays_out, pa.int64()),
            "slope_ppm": pa.array(slope_out, pa.int64()),
        }
    )


def supplier_hhi(sf_dir: str) -> "Dataset | pa.Table":
    """Per-nation Herfindahl-Hirschman concentration of supplier
    revenue — the market-concentration readout (ppm of sum of squared
    revenue shares): 1e6/n = perfectly even across n suppliers,
    1e6 = one supplier owns the nation's whole revenue.

    Exactness: HHI = sum(r_i^2) / (sum r_i)^2 in exact integer cents
    — r^2 reaches ~1e28 at web scale, so the squared sums ride the
    split-square limb encoding (``_sq_limbs``) and the finalize
    recombines Python bignums; no float share can flip the half-away
    ppm rounding.  Shape notes: per-supplier revenue is the ONE
    fact-scale combiner-fed groupby; nation keys attach to that
    |suppliers|-bounded table via the size-adaptive lookup join; the
    per-nation moment reduce and the <= |nations|-row finalize are
    exchange-bounded by dimension tables."""
    out_schema = pa.schema(
        [
            ("s_nationkey", pa.int64()),
            ("n_suppliers", pa.int64()),
            ("hhi_ppm", pa.int64()),
        ]
    )
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    if li.count() == 0 or supp.count() == 0:
        return out_schema.empty_table()

    _sr_schema = pa.schema([("sk", pa.int64()), ("r", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _sr_schema.empty_table()
        t = pa.table(
            {
                "sk": batch.column("l_suppkey"),
                "r": _cents(batch.column("l_extendedprice")),
            }
        )
        return t.group_by("sk").aggregate([("r", "sum")]).rename_columns(
            ["sk", "r"]
        )

    sr = (
        _hagg_auto(li.map_batches(combine, batch_format="pyarrow", batch_size=None), "sk", [('r', 'sum', 'r')])
    )
    sr = _scrub_schemaless(sr)
    if sr is None:
        return out_schema.empty_table()
    withnat = broadcast_lookup_join(
        sr,
        supp,
        on="sk",
        right_on="s_suppkey",
        payload=["s_nationkey"],
    )

    _SQ = ("s2_a_hi", "s2_a_lo", "s2_b_hi", "s2_b_lo", "s2_c_hi", "s2_c_lo")
    _NM = ("n", "s_hi", "s_lo", *_SQ)

    def nation_partial(batch: pa.Table) -> pa.Table:
        from renard_ray.ops.communities import _sq_limbs

        nk = batch.column("s_nationkey").to_pylist()
        r = batch.column("r").to_numpy()
        if len(r):
            assert int(r.max()) < 2**62, (
                "supplier_hhi: per-supplier revenue past the "
                "split-square domain — widen the limb encoding"
            )
        out: dict = {"s_nationkey": []}
        for k in _NM:
            out[k] = []
        order: dict = {}
        for i, n in enumerate(nk):
            order.setdefault(n, []).append(i)
        for n in sorted(order):
            idx = np.array(order[n], np.int64)
            rv = r[idx]
            s_hi, s_lo = _limb_sums(rv)
            sq = _sq_limbs(rv)
            out["s_nationkey"].append(n)
            out["n"].append(len(rv))
            out["s_hi"].append(s_hi)
            out["s_lo"].append(s_lo)
            for k, v in zip(_SQ, sq):
                out[k].append(v)
        return pa.table(
            {
                "s_nationkey": pa.array(out["s_nationkey"], pa.int64()),
                **{k: pa.array(out[k], pa.int64()) for k in _NM},
            }
        )

    nat = _scrub_schemaless(
        _hagg_auto(
            withnat.map_batches(
                nation_partial, batch_format="pyarrow", batch_size=None
            ),
            "s_nationkey",
            [(k, "sum", k) for k in _NM],
        )
    )
    if nat is None:
        return out_schema.empty_table()
    nat_tab = _collect_small(nat, 1_000_000)
    if nat_tab is None:
        raise ValueError("supplier_hhi: nation-moment table over budget")

    def _pair(name: str, i: int) -> int:
        return (int(nat_tab.column(name + "_hi")[i].as_py()) << _LIMB_SHIFT) + int(
            nat_tab.column(name + "_lo")[i].as_py()
        )

    nks, nsup, hhi = [], [], []
    order = sorted(range(nat_tab.num_rows), key=lambda i: nat_tab.column("s_nationkey")[i].as_py())
    for i in order:
        s = _pair("s", i)
        if s <= 0:
            continue
        s2 = (
            (_pair("s2_a", i) << (2 * _LIMB_SHIFT))
            + (_pair("s2_b", i) << _LIMB_SHIFT)
            + _pair("s2_c", i)
        )
        nks.append(int(nat_tab.column("s_nationkey")[i].as_py()))
        nsup.append(int(nat_tab.column("n")[i].as_py()))
        hhi.append((2_000_000 * s2 + s * s) // (2 * s * s))
    return pa.table(
        {
            "s_nationkey": pa.array(nks, pa.int64()),
            "n_suppliers": pa.array(nsup, pa.int64()),
            "hhi_ppm": pa.array(hhi, pa.int64()),
        }
    )


def orders_lineitem_reconcile(sf_dir: str) -> "Dataset | pa.Table":
    """Cross-table reconciliation (the ingest-audit staple): per order
    status, how many orders' header ``o_totalprice`` disagrees with
    the SUM of their lineitem extended prices, and by how much in
    exact absolute cents — the fact-vs-rollup consistency gate a
    warehouse load runs after every batch.  (This corpus's headers
    are synthesized independently of lineitems, so most orders
    legitimately mismatch; the op reports, it does not assert.)

    Shape notes: per-order lineitem cents reduce through the
    combiner-fed groupby (the one fact-scale exchange); order status
    + header price attach to that |orders|-bounded table via the
    size-adaptive lookup join; the per-status reduce is per-batch
    one-row partials with the abs-diff sum as base-2^31 limb pairs
    (|diff| sums wrap int64 near 1e12 orders) into an O(|statuses|)
    aggregate.  Orders with no lineitems never enter (INNER join,
    mirroring the SQL); their count is ``orders_constraints``
    territory."""
    out_schema = pa.schema(
        [
            ("o_orderstatus", pa.string()),
            ("n_orders", pa.int64()),
            ("n_mismatch", pa.int64()),
            ("abs_diff_c", pa.int64()),
        ]
    )
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])
    if li.count() == 0 or orders.count() == 0:
        return out_schema.empty_table()

    _os_schema = pa.schema([("ok", pa.int64()), ("s", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _os_schema.empty_table()
        t = pa.table(
            {
                "ok": batch.column("l_orderkey"),
                "s": _cents(batch.column("l_extendedprice")),
            }
        )
        return t.group_by("ok").aggregate([("s", "sum")]).rename_columns(["ok", "s"])

    per_order = _scrub_schemaless(
        _hagg_auto(li.map_batches(combine, batch_format="pyarrow", batch_size=None), "ok", [('s', 'sum', 's')])
    )
    if per_order is None:
        return out_schema.empty_table()
    withhdr = broadcast_lookup_join(
        per_order,
        orders,
        on="ok",
        right_on="o_orderkey",
        payload=["o_orderstatus", "o_totalprice"],
    )

    _P = ("n", "mm", "d_hi", "d_lo")
    _pp_schema = pa.schema(
        [("st", pa.string()), *[(k, pa.int64()) for k in _P]]
    )

    def status_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _pp_schema.empty_table()
        st = batch.column("o_orderstatus").to_pylist()
        s = batch.column("s").to_numpy()
        t = _cents(batch.column("o_totalprice").combine_chunks()).to_numpy()
        d = np.abs(t - s)
        out: dict = {"st": []}
        for k in _P:
            out[k] = []
        order: dict = {}
        for i, v in enumerate(st):
            order.setdefault(v, []).append(i)
        for v in sorted(order):
            idx = np.array(order[v], np.int64)
            dv = d[idx]
            hi, lo = _limb_sums(dv)
            out["st"].append(v)
            out["n"].append(len(idx))
            out["mm"].append(int((dv != 0).sum()))
            out["d_hi"].append(hi)
            out["d_lo"].append(lo)
        return pa.table(
            {
                "st": pa.array(out["st"], pa.string()),
                **{k: pa.array(out[k], pa.int64()) for k in _P},
            }
        )

    red = _scrub_schemaless(
        _hagg_auto(
            withhdr.map_batches(
                status_partial, batch_format="pyarrow", batch_size=None
            ),
            "st",
            [(k, "sum", k) for k in _P],
        )
    )
    if red is None:
        return out_schema.empty_table()

    def finalize(batch: pa.Table) -> pa.Table:
        sts = batch.column("st").to_pylist()
        rows: dict = {k: [] for k in ("st", "n", "mm", "d")}
        for i, v in enumerate(sts):
            d = (int(batch.column("d_hi")[i].as_py()) << _LIMB_SHIFT) + int(
                batch.column("d_lo")[i].as_py()
            )
            assert d < 2**63, (
                "reconcile: abs-diff total past int64 — return limb "
                "columns instead"
            )
            rows["st"].append(v)
            rows["n"].append(int(batch.column("n")[i].as_py()))
            rows["mm"].append(int(batch.column("mm")[i].as_py()))
            rows["d"].append(d)
        return pa.table(
            {
                "o_orderstatus": pa.array(rows["st"], pa.string()),
                "n_orders": pa.array(rows["n"], pa.int64()),
                "n_mismatch": pa.array(rows["mm"], pa.int64()),
                "abs_diff_c": pa.array(rows["d"], pa.int64()),
            }
        )

    return red.map_batches(finalize, batch_format="pyarrow")


def events_value_histogram(sf_dir: str, n_bins: int = 20) -> "Dataset | pa.Table":
    """Equi-width histogram of event value cents over the observed
    [min, max] — the distribution-profile readout behind dashboards
    and drift monitors, with EXACT integer bin assignment
    (``bin = (c - mn) * n_bins // (mx - mn + 1)``: every value lands
    in [0, n_bins), no float edge can misplace a boundary cent).
    Null values are excluded (they carry no magnitude).

    Shape notes: one tiny min/max aggregate over the pruned scan,
    then ONE combiner-fed groupby keyed on the bin — the exchange
    carries at most ``n_bins`` rows per batch and the result is
    O(n_bins); per-bin actual min/max ride the same reduce.  The
    ``(c - mn) * n_bins`` product is asserted inside int64 (a value
    RANGE past ~4.6e17 cents needs the limb widening, loudly)."""
    out_schema = pa.schema(
        [
            ("bin", pa.int64()),
            ("n_events", pa.int64()),
            ("lo_c", pa.int64()),
            ("hi_c", pa.int64()),
        ]
    )
    ev = _read(sf_dir, "events", ["value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        c = _cents(batch.column("value"))
        t = pa.table({"c": c})
        return t.filter(pc.is_valid(t.column("c")))

    cents = ev.map_batches(to_cents, batch_format="pyarrow").materialize()
    if cents.count() == 0:
        return out_schema.empty_table()
    mm = cents.aggregate(Min("c"), Max("c"))
    mn, mx = int(mm["min(c)"]), int(mm["max(c)"])
    width = mx - mn + 1
    assert width * int(n_bins) < 2**62, (
        "value_histogram: value range * n_bins past int64 — widen"
    )

    _b_schema = pa.schema(
        [("bin", pa.int64()), ("n", pa.int64()), ("lo", pa.int64()), ("hi", pa.int64())]
    )

    def binit(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _b_schema.empty_table()
        c = batch.column("c")
        b = pc.divide(
            pc.multiply(
                pc.subtract(c, pa.scalar(mn, pa.int64())),
                pa.scalar(int(n_bins), pa.int64()),
            ),
            pa.scalar(width, pa.int64()),
        )
        t = pa.table({"bin": b, "n": pa.array(np.ones(batch.num_rows, np.int64)), "lo": c, "hi": c})
        return t.group_by("bin").aggregate(
            [("n", "sum"), ("lo", "min"), ("hi", "max")]
        ).rename_columns(["bin", "n", "lo", "hi"])

    red = _scrub_schemaless(
        _hagg_auto(cents.map_batches(binit, batch_format="pyarrow", batch_size=None), "bin", [('n', 'sum', 'n_events'), ('lo', 'min', 'lo_c'), ('hi', 'max', 'hi_c')])
    )
    if red is None:
        return out_schema.empty_table()
    return red


def _bitmask_pair_overlap(
    masks: Dataset,
    labels: "list[str]",
    ctx: str,
    label_a: str,
    label_b: str,
    n_name: str,
) -> "pa.Table | None":
    """Shared bitmask-Jaccard reduce: from a Dataset of ``mask``
    columns (int64 OR of ``1 << dense-id`` over a <= 62-label domain),
    count every co-occurring label pair and each label's singleton
    total with per-batch vectorized bit tests (<= C(|labels|, 2) rows
    per batch cross the exchange — never one row per entity), then
    decode to exact half-away Jaccard ppm on the driver.  Pairs ride
    id ``a*64 + b``; singletons ride ``-1 - id`` on the same partial.
    Returns None when the mask table is empty (caller returns its
    schema-ful empty table)."""
    k = len(labels)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    _pp_schema = pa.schema([("pair", pa.int64()), ("n", pa.int64())])

    def pair_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _pp_schema.empty_table()
        mk = batch.column("mask").to_numpy()
        pids, ns = [], []
        for a, b in pairs:
            want = (1 << a) | (1 << b)
            n = int(((mk & want) == want).sum())
            if n:
                pids.append(a * 64 + b)
                ns.append(n)
        for t in range(k):
            n = int(((mk >> t) & 1).sum())
            if n:
                pids.append(-1 - t)
                ns.append(n)
        return pa.table(
            {"pair": pa.array(pids, pa.int64()), "n": pa.array(ns, pa.int64())}
        )

    red = _scrub_schemaless(
        _hagg_auto(masks.map_batches(pair_partial, batch_format="pyarrow", batch_size=None), "pair", [('n', 'sum', 'n')])
    )
    if red is None:
        return None
    tab = _collect_small(red, 1_000_000)
    if tab is None:
        raise ValueError(f"{ctx}: pair table over budget")
    single, both = {}, {}
    for i in range(tab.num_rows):
        pid = int(tab.column("pair")[i].as_py())
        n = int(tab.column("n")[i].as_py())
        if pid < 0:
            single[-1 - pid] = n
        else:
            both[(pid // 64, pid % 64)] = n
    rows: dict = {"a": [], "b": [], "n": [], "j": []}
    for (a, b), nab in sorted(both.items()):
        union = single[a] + single[b] - nab
        rows["a"].append(labels[a])
        rows["b"].append(labels[b])
        rows["n"].append(nab)
        rows["j"].append((2_000_000 * nab + union) // (2 * union))
    return pa.table(
        {
            label_a: pa.array(rows["a"], pa.string()),
            label_b: pa.array(rows["b"], pa.string()),
            n_name: pa.array(rows["n"], pa.int64()),
            "jaccard_ppm": pa.array(rows["j"], pa.int64()),
        }
    )


def _grouped_disc_percentiles(
    od: Dataset,
    percentiles: "tuple[tuple[str, int], ...]",
    n_alias: str,
    label_col: str,
    labels: "list[str]",
) -> "Dataset | None":
    """Shared grouped DISC-percentile selection (rank = ceil(p*n),
    ``quantile_disc`` parity) over (cust, price_c) rows with dense-int
    groups: rides ``_grouped_prefix_counts``, picks every requested
    percentile with ONE vectorized covering-filter pass (a distinct-
    value row spanning [below, upto) holds rank k iff below <= k <
    upto — each percentile selects exactly one row per group), reduces
    with one O(|groups|) groupby, and decodes group ids back to their
    labels with a vectorized take.  Returns None when the selection is
    empty (caller returns its schema-ful empty table)."""
    ranks, ncust = _grouped_prefix_counts(od)
    withn = broadcast_lookup_join(
        ranks, ncust, on="cust", right_on="cust", payload=["n"]
    )
    names = [name for name, _ in percentiles]
    _pk_schema = pa.schema(
        [("cust", pa.int64()), ("n", pa.int64())]
        + [(name, pa.int64()) for name in names]
    )

    def pick(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _pk_schema.empty_table()
        below = np.asarray(batch.column("below"), dtype=np.int64)
        upto = np.asarray(batch.column("upto"), dtype=np.int64)
        nn = np.asarray(batch.column("n"), dtype=np.int64)
        val = np.asarray(batch.column("price_c"), dtype=np.int64)
        keep = np.zeros(len(below), bool)
        parts = {}
        for name, p in percentiles:
            k = (p * nn + 99) // 100 - 1  # 0-based rank of ceil(p*n)
            sel = (below <= k) & (k < upto)
            parts[name] = val * sel.astype(np.int64)
            keep |= sel
        mask = pa.array(keep)
        return pa.table(
            {
                "cust": batch.column("cust").filter(mask),
                "n": batch.column("n").filter(mask),
                **{name: pa.array(parts[name][keep]) for name in names},
            }
        )

    sel = _scrub_schemaless(
        _hagg_auto(
            withn.map_batches(pick, batch_format="pyarrow"),
            "cust",
            [("n", "max", n_alias)] + [(name, "sum", name) for name in names],
        )
    )
    if sel is None:
        return None
    labels_ref = ray.put(pa.array(labels, pa.string()))

    def name_back(batch: pa.Table) -> pa.Table:
        lab = ray.get(labels_ref)
        return pa.table(
            {
                label_col: pc.take(lab, batch.column("cust")),
                n_alias: batch.column(n_alias),
                **{name: batch.column(name) for name in names},
            }
        )

    return sel.map_batches(name_back, batch_format="pyarrow")


def events_gap_percentiles(sf_dir: str) -> "Dataset | pa.Table":
    """Exact p50/p90/p99 of inter-event gaps per event type — the
    latency-SLO readout (each gap is ``ts - previous ts of the SAME
    user``, attributed to the LATER event's type, exactly SQL's LAG
    over (PARTITION BY user ORDER BY ts, event_id)).  Percentile
    semantics are DISC (rank = ceil(p*n), the value actually present)
    matching ``quantile_disc``.

    Shape notes: gaps ride ``sorted_run_scan`` — ONE (user, ts,
    event_id) sort, interior consecutive pairs vectorized per block,
    the cross-block pair recovered by the O(#blocks) edge stitch
    (block i's last row x block i+1's first row, same-user only);
    event types map to dense ints via the bounded type table so the
    grouped selection rides the shared ``_grouped_prefix_counts``
    plan (combiner-fed distinct (type, gap) reduce, ONE sort of the
    reduced table, per-block weighted prefix sums + offset stitch);
    each percentile is a vectorized covering filter (a distinct-gap
    row spanning [below, upto) holds rank k iff below <= k < upto)
    plus one O(|types|) groupby — no per-group work anywhere."""
    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_gaps", pa.int64()),
            ("p50_us", pa.int64()),
            ("p90_us", pa.int64()),
            ("p99_us", pa.int64()),
        ]
    )
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    if ds.count() == 0:
        return out_schema.empty_table()

    # bounded type id map (lexicographic ids: pure function of data)
    tset = _collect_small(
        _hagg_auto(ds.map_batches(
            lambda b: pa.table({"t": b.column("event_type")})
            .group_by("t")
            .aggregate([]),
            batch_format="pyarrow",
            batch_size=None,
        ), "t", [('', 'count_all', 'count()')]),
        1_000_000,
    )
    if tset is None:
        raise ValueError("gap_percentiles: event-type table over budget")
    types_sorted = sorted(t for t in tset.column("t").to_pylist())
    tid_ref = ray.put(pa.array(types_sorted, pa.string()))

    def norm(batch: pa.Table) -> pa.Table:
        tids = ray.get(tid_ref)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": _ts_us(batch.column("ts")),
                "event_id": batch.column("event_id"),
                # dense id = position in the sorted type list (Arrow-
                # vectorized; the bounded list is broadcast once)
                "tid": pc.cast(
                    pc.index_in(batch.column("event_type"), value_set=tids),
                    pa.int64(),
                ),
            }
        )

    gap_schema = pa.schema([("cust", pa.int64()), ("price_c", pa.int64())])

    def block_pass(batch: pa.Table):
        u = np.asarray(batch.column("user_id"), dtype=np.int64)
        us = np.asarray(batch.column("us"), dtype=np.int64)
        t = np.asarray(batch.column("tid"), dtype=np.int64)
        same = u[1:] == u[:-1]
        # (tid, gap) pairs in the shared prefix-count plan's columns
        gaps = pa.table(
            {"cust": pa.array(t[1:][same]), "price_c": pa.array((us[1:] - us[:-1])[same])},
            schema=gap_schema,
        )
        # (user, us, tid) of the first row, (user, us) of the last
        edges = ((int(u[0]), int(us[0]), int(t[0])), (int(u[-1]), int(us[-1])))
        return gaps, edges

    # O(#blocks) stitch: pair block i's last row with block i+1's
    # first, riding to block i+1
    def stitch(edges: list) -> list[list[dict]]:
        extra: list[list[dict]] = [[]]
        for (_, (l_user, l_us)), ((f_user, f_us, f_tid), _) in zip(edges, edges[1:]):
            extra.append(
                [{"cust": f_tid, "price_c": f_us - l_us}] if f_user == l_user else []
            )
        return extra

    def finish(gaps, extra) -> pa.Table:
        if gaps is None:
            return gap_schema.empty_table()
        return pa.concat_tables([gaps, pa.Table.from_pylist(extra, schema=gap_schema)])

    gaps_ds = sorted_run_scan(
        ds.map_batches(norm, batch_format="pyarrow"),
        ["user_id", "us", "event_id"],
        block_pass,
        stitch,
        finish,
    )
    if gaps_ds.count() == 0:
        return out_schema.empty_table()

    out = _grouped_disc_percentiles(
        gaps_ds,
        (("p50_us", 50), ("p90_us", 90), ("p99_us", 99)),
        n_alias="n_gaps",
        label_col="event_type",
        labels=types_sorted,
    )
    if out is None:
        return out_schema.empty_table()
    return out


def lineitem_weighted_percentiles(sf_dir: str) -> "Dataset | pa.Table":
    """Quantity-weighted price percentiles (lower weighted p25/median/
    p75 of extended price, each unit of quantity counting once) — the
    volume-weighted distribution readout a plain row percentile
    misstates whenever line sizes vary.  Lower weighted quantile
    semantics: the smallest price p with ``k * cumweight(<= p) >=
    p_num * W`` (k=4,2,4/3 thresholds as exact integer inequalities
    — no float share).

    Shape notes: distinct (price, weight-sum) reduce through the
    combiner-fed groupby (the one fact-scale exchange, bounded by
    |distinct prices|); ``sorted_run_scan`` of the reduced table —
    ONE sort, block weights as the summaries, the O(#blocks) driver
    scan hands each block its exclusive weight offset, and the finish
    pass finds each threshold's crossing row with a vectorized filter
    — each threshold selects EXACTLY one row globally, so the final
    reduce is a 3-value sum over the O(#blocks) pick rows."""
    out_schema = pa.schema(
        [
            ("wp25_c", pa.int64()),
            ("wp50_c", pa.int64()),
            ("wp75_c", pa.int64()),
            ("total_w", pa.int64()),
        ]
    )
    li = _read(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"])
    if li.count() == 0:
        return out_schema.empty_table()

    _pw_schema = pa.schema([("p", pa.int64()), ("w", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _pw_schema.empty_table()
        t = pa.table(
            {
                "p": _cents(batch.column("l_extendedprice")),
                "w": _int(batch.column("l_quantity")),
            }
        )
        return t.group_by("p").aggregate([("w", "sum")]).rename_columns(["p", "w"])

    pw = _scrub_schemaless(
        _hagg_auto(li.map_batches(combine, batch_format="pyarrow", batch_size=None), "p", [('w', 'sum', 'w')])
    )
    if pw is None:
        return out_schema.empty_table()
    # threshold numerators: k*cum >= num  <=>  cum >= p*W (exact ints)
    # p25: 4*cum >= W ; p50: 2*cum >= W ; p75: 4*cum >= 3*W
    thresholds = (("wp25_c", 4, 1), ("wp50_c", 2, 1), ("wp75_c", 4, 3))
    pick_schema = pa.schema([(n, pa.int64()) for n in ("bw", *(n for n, _, _ in thresholds))])

    def scan(batch: pa.Table):
        w = np.asarray(batch.column("w"), dtype=np.int64)
        return batch, int(w.sum(dtype=np.int64))

    def stitch(bws: list[int]) -> list[tuple[int, int]]:
        total_w = int(sum(bws))
        assert total_w < 2**61, (
            "weighted_percentiles: 4*cum would wrap int64 — widen the "
            "threshold arithmetic to limb pairs"
        )
        offsets = np.concatenate(([0], np.cumsum(bws)[:-1]))
        return [(int(off), total_w) for off in offsets]

    # one row per block: its weight and the prices of the thresholds it
    # crosses — each threshold selects EXACTLY one row globally
    def pick(batch, carry) -> pa.Table:
        if batch is None:
            return pick_schema.empty_table()
        off, total_w = carry
        p = np.asarray(batch.column("p"), dtype=np.int64)
        w = np.asarray(batch.column("w"), dtype=np.int64)
        cum = off + np.cumsum(w)
        before = cum - w
        cols = {"bw": pa.array([int(w.sum(dtype=np.int64))], pa.int64())}
        for name, k, mult in thresholds:
            hit = (k * cum >= mult * total_w) & (k * before < mult * total_w)
            cols[name] = pa.array([int(p[hit].sum())], pa.int64())
        return pa.table(cols)

    picks = sorted_run_scan(pw, "p", scan, stitch, pick).to_pandas()
    total_w = int(picks["bw"].sum())
    if total_w <= 0:
        return out_schema.empty_table()
    return pa.table(
        {
            "wp25_c": pa.array([int(picks["wp25_c"].sum())], pa.int64()),
            "wp50_c": pa.array([int(picks["wp50_c"].sum())], pa.int64()),
            "wp75_c": pa.array([int(picks["wp75_c"].sum())], pa.int64()),
            "total_w": pa.array([total_w], pa.int64()),
        }
    )


def events_type_audience_overlap(sf_dir: str) -> "Dataset | pa.Table":
    """Audience overlap between event types: for every co-occurring
    type pair (a < b), how many users did BOTH, and the exact Jaccard
    of the two audiences in ppm — the cross-sell / cannibalization
    readout over the user-type incidence.

    Shape notes: ONE distinct (user, type-id) reduce (combiner-fed),
    then each user's type set folds to a BITMASK via a plain
    groupby-sum (each (user, bit) row is distinct, so Sum(1 << tid)
    IS the OR — no custom aggregate); pair counts reduce from
    per-batch vectorized bit tests over the |users|-bounded mask
    table (<= |types| choose 2 rows per batch), so nothing user-scale
    crosses the second exchange.  Type count is asserted <= 62 (the
    int64 bit budget); a wider domain needs multi-word masks."""
    out_schema = pa.schema(
        [
            ("type_a", pa.string()),
            ("type_b", pa.string()),
            ("n_both", pa.int64()),
            ("jaccard_ppm", pa.int64()),
        ]
    )
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    if ds.count() == 0:
        return out_schema.empty_table()
    tset = _collect_small(
        _hagg_auto(ds.map_batches(
            lambda b: pa.table({"t": b.column("event_type")})
            .group_by("t")
            .aggregate([]),
            batch_format="pyarrow",
            batch_size=None,
        ), "t", [('', 'count_all', 'count()')]),
        1_000_000,
    )
    if tset is None:
        raise ValueError("audience_overlap: event-type table over budget")
    types_sorted = sorted(t for t in tset.column("t").to_pylist())
    assert len(types_sorted) <= 62, (
        "audience_overlap: more than 62 event types — widen to "
        "multi-word bitmasks"
    )
    tid = {t: i for i, t in enumerate(types_sorted)}
    tid_ref = ray.put(pa.array(types_sorted, pa.string()))

    _ub_schema = pa.schema([("user_id", pa.int64()), ("bit", pa.int64())])

    def to_bits(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _ub_schema.empty_table()
        tids = ray.get(tid_ref)
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                # 1 << dense-id, Arrow-vectorized via index_in
                "bit": pc.shift_left(
                    pa.scalar(1, pa.int64()),
                    pc.cast(
                        pc.index_in(batch.column("event_type"), value_set=tids),
                        pa.int64(),
                    ),
                ),
            }
        )
        # per-batch distinct so the exchange carries (user, bit) once
        return t.group_by(["user_id", "bit"]).aggregate([])

    # distinct (user, bit) globally, then Sum(bit) == OR == type mask
    dist = _scrub_schemaless(
        _hagg_auto(ds.map_batches(to_bits, batch_format="pyarrow", batch_size=None), ["user_id", "bit"], [('', 'count_all', '_n')])
    )
    if dist is None:
        return out_schema.empty_table()
    masks = _hagg_auto(dist, "user_id", [('bit', 'sum', 'mask')])
    out = _bitmask_pair_overlap(
        masks,
        types_sorted,
        ctx="audience_overlap",
        label_a="type_a",
        label_b="type_b",
        n_name="n_both",
    )
    if out is None:
        return out_schema.empty_table()
    return out


def orders_yoy_growth(sf_dir: str) -> "Dataset | pa.Table":
    """Year-over-year revenue growth per calendar month — the
    seasonality-aware growth readout (this January vs last January),
    in exact half-away ppm of the prior year's revenue.

    Shape notes: ONE (year, month) combiner-fed groupby over the
    pruned scan — the output is CALENDAR-bounded (12 rows/year no
    matter how many orders), so the prior-year lookup is a legitimate
    driver dict pass in Python bignums (2e6 * rev wraps int64 near
    5e12 revenue cents)."""
    out_schema = pa.schema(
        [
            ("o_year", pa.int64()),
            ("o_month", pa.int64()),
            ("rev_c", pa.int64()),
            ("prev_rev_c", pa.int64()),
            ("yoy_ppm", pa.int64()),
        ]
    )
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    if orders.count() == 0:
        return out_schema.empty_table()

    _ym_schema = pa.schema(
        [("y", pa.int64()), ("m", pa.int64()), ("rev", pa.int64())]
    )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _ym_schema.empty_table()
        d = batch.column("o_orderdate")
        t = pa.table(
            {
                "y": pc.cast(pc.year(d), pa.int64()),
                "m": pc.cast(pc.month(d), pa.int64()),
                "rev": _cents(batch.column("o_totalprice")),
            }
        )
        return t.group_by(["y", "m"]).aggregate([("rev", "sum")]).rename_columns(
            ["y", "m", "rev"]
        )

    red = _scrub_schemaless(
        _hagg_auto(orders.map_batches(combine, batch_format="pyarrow", batch_size=None), ["y", "m"], [('rev', 'sum', 'rev')])
    )
    if red is None:
        return out_schema.empty_table()
    tab = _collect_small(red, 2_000_000)  # calendar-bounded
    if tab is None:
        raise ValueError("yoy_growth: (year, month) table over budget")
    rev = {
        (int(tab.column("y")[i].as_py()), int(tab.column("m")[i].as_py())): int(
            tab.column("rev")[i].as_py()
        )
        for i in range(tab.num_rows)
    }
    rows = {k: [] for k in ("y", "m", "rev", "prev", "ppm")}
    for (y, m), r in sorted(rev.items()):
        p = rev.get((y - 1, m))
        if p is None or p <= 0:
            continue
        rows["y"].append(y)
        rows["m"].append(m)
        rows["rev"].append(r)
        rows["prev"].append(p)
        rows["ppm"].append((2_000_000 * r + p) // (2 * p))
    return pa.table(
        {
            "o_year": pa.array(rows["y"], pa.int64()),
            "o_month": pa.array(rows["m"], pa.int64()),
            "rev_c": pa.array(rows["rev"], pa.int64()),
            "prev_rev_c": pa.array(rows["prev"], pa.int64()),
            "yoy_ppm": pa.array(rows["ppm"], pa.int64()),
        }
    )


def doc_length_percentiles_by_lang(sf_dir: str) -> "Dataset | pa.Table":
    """Exact p50/p90 document length (n_chars) per language — the
    corpus-shape readout a length-filter threshold is tuned against,
    with DISC semantics (rank = ceil(p*n), quantile_disc parity).

    Shape notes: languages map to dense ints via the bounded lang
    table, then the grouped selection rides the shared
    ``_grouped_prefix_counts`` plan (combiner-fed distinct
    (lang, n_chars) reduce, ONE sort of the reduced table, O(#blocks)
    offset stitch) and each percentile is a vectorized covering
    filter plus one O(|langs|) groupby."""
    from renard_ray.ops.textstats import _read_documents

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n_docs", pa.int64()),
            ("p50_chars", pa.int64()),
            ("p90_chars", pa.int64()),
        ]
    )
    ds = _read_documents(sf_dir, ["lang", "n_chars"])
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
        raise ValueError("length_percentiles: lang table over budget")
    langs_sorted = sorted(x for x in lset.column("lang").to_pylist())
    lid_ref = ray.put(pa.array(langs_sorted, pa.string()))

    def derive(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_chars")
        assert batch.num_rows == 0 or pc.min(nc).as_py() >= 0, (
            "length_percentiles: negative n_chars breaks the pack"
        )
        langs = ray.get(lid_ref)
        return pa.table(
            {
                # dense id = position in the sorted lang list (Arrow-
                # vectorized)
                "cust": pc.cast(
                    pc.index_in(batch.column("lang"), value_set=langs),
                    pa.int64(),
                ),
                "price_c": pc.cast(nc, pa.int64()),
            }
        )

    od = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    out = _grouped_disc_percentiles(
        od,
        (("p50_chars", 50), ("p90_chars", 90)),
        n_alias="n_docs",
        label_col="lang",
        labels=langs_sorted,
    )
    if out is None:
        return out_schema.empty_table()
    return out


def events_session_size_hist(
    sf_dir: str, gap_minutes: int = 30
) -> "Dataset | pa.Table":
    """Distribution of session sizes (how many sessions have exactly
    k events) — the engagement-depth histogram over the 30-minute-gap
    sessions; the count-of-counts shape applied to the sessionize
    output.

    Shape notes: rides ``events_sessionize`` (ONE sort + vectorized
    block runs + O(#blocks) edge-user stitch), then a combiner-fed
    groupby over the |sessions|-bounded run table whose output is
    bounded by the distinct session sizes."""
    out_schema = pa.schema(
        [("session_size", pa.int64()), ("n_sessions", pa.int64())]
    )
    s = events_sessionize(sf_dir, gap_minutes)

    _h_schema = pa.schema([("session_size", pa.int64()), ("n", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _h_schema.empty_table()
        t = pa.table(
            {
                "session_size": pc.cast(batch.column("n_events"), pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by("session_size").aggregate([("n", "sum")]).rename_columns(
            ["session_size", "n"]
        )

    red = _scrub_schemaless(
        _hagg_auto(s.map_batches(combine, batch_format="pyarrow", batch_size=None), "session_size", [('n', 'sum', 'n_sessions')])
    )
    if red is None:
        return out_schema.empty_table()
    return red


def events_dau_mau(sf_dir: str) -> "Dataset | pa.Table":
    """DAU/MAU stickiness per calendar month — average daily active
    users over the month's ACTIVE days divided by monthly active
    users, in exact half-away ppm (the product-engagement headline
    number).

    Shape notes: ONE distinct (day, user) reduce (combiner-fed — the
    only fact-scale exchange); DAU per day is a groupby over that
    |days| x |users|-bounded table, MAU folds the same table through
    a distinct (month, user) reduce; the per-month finalize joins two
    CALENDAR-bounded tables on the driver in Python bignums
    (sum-of-DAU * 1e6 wraps int64 near 9e12 user-days)."""
    out_schema = pa.schema(
        [
            ("month", pa.string()),
            ("n_days", pa.int64()),
            ("mau", pa.int64()),
            ("avg_dau_ppm", pa.int64()),
            ("stickiness_ppm", pa.int64()),
        ]
    )
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    if ev.count() == 0:
        return out_schema.empty_table()

    _du_schema = pa.schema([("day", pa.int64()), ("user_id", pa.int64())])

    def to_day_user(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _du_schema.empty_table()
        us = pc.cast(_ts_us(batch.column("ts")), pa.int64())
        assert pc.min(us).as_py() >= 0, (
            "dau_mau: pre-epoch timestamp — integer division floors "
            "toward zero, not -inf"
        )
        t = pa.table(
            {
                "day": pc.divide(us, pa.scalar(86_400_000_000, pa.int64())),
                "user_id": batch.column("user_id"),
            }
        )
        return t.group_by(["day", "user_id"]).aggregate([])

    du = (
        _hagg_auto(ev.map_batches(to_day_user, batch_format="pyarrow", batch_size=None), ["day", "user_id"], [('', 'count_all', '_n')])
    )
    du = _scrub_schemaless(du)
    if du is None:
        return out_schema.empty_table()
    du = du.materialize()  # feeds BOTH the DAU and the MAU reduce
    dau = _hagg_auto(du, "day", [('', 'count_all', 'dau')])

    _mu_schema = pa.schema([("month", pa.string()), ("user_id", pa.int64())])

    def to_month_user(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _mu_schema.empty_table()
        d = batch.column("day").to_numpy()
        # day -> (year, month) via the epoch-day calendar (numpy
        # datetime arithmetic is exact integer days)
        dt = d.astype("datetime64[D]")
        months = np.datetime_as_string(dt, unit="M")
        t = pa.table(
            {
                "month": pa.array(months.tolist(), pa.string()),
                "user_id": batch.column("user_id"),
            }
        )
        return t.group_by(["month", "user_id"]).aggregate([])

    mau = _hagg_auto(
        _hagg_auto(
            du.map_batches(
                to_month_user, batch_format="pyarrow", batch_size=None
            ),
            ["month", "user_id"],
            [],
        ),
        "month",
        [("", "count_all", "mau")],
    )
    dau_tab = _collect_small(dau, 2_000_000)  # calendar-bounded
    mau_tab = _collect_small(mau, 2_000_000)
    if dau_tab is None or mau_tab is None:
        raise ValueError("dau_mau: calendar table over budget")
    per_month: dict = {}
    for i in range(dau_tab.num_rows):
        d = int(dau_tab.column("day")[i].as_py())
        m = str(np.datetime64(d, "D").astype("datetime64[M]"))
        n, s = per_month.get(m, (0, 0))
        per_month[m] = (n + 1, s + int(dau_tab.column("dau")[i].as_py()))
    maus = {
        str(mau_tab.column("month")[i].as_py()): int(
            mau_tab.column("mau")[i].as_py()
        )
        for i in range(mau_tab.num_rows)
    }
    rows = {k: [] for k in ("month", "n_days", "mau", "avg", "stick")}
    for m in sorted(per_month):
        n_days, dau_sum = per_month[m]
        mau_n = maus[m]
        rows["month"].append(m)
        rows["n_days"].append(n_days)
        rows["mau"].append(mau_n)
        # exact ppm in Python bignums
        rows["avg"].append((2_000_000 * dau_sum + n_days) // (2 * n_days))
        den = n_days * mau_n
        rows["stick"].append((2_000_000 * dau_sum + den) // (2 * den))
    return pa.table(
        {
            "month": pa.array(rows["month"], pa.string()),
            "n_days": pa.array(rows["n_days"], pa.int64()),
            "mau": pa.array(rows["mau"], pa.int64()),
            "avg_dau_ppm": pa.array(rows["avg"], pa.int64()),
            "stickiness_ppm": pa.array(rows["stick"], pa.int64()),
        }
    )


def events_new_users_weekly(sf_dir: str) -> "Dataset | pa.Table":
    """Weekly new-user acquisition: how many users had their FIRST
    EVER event in each epoch week — the growth-funnel top line next
    to the retention matrix.

    Shape notes: per-user first timestamp is ONE combiner-fed
    groupby-Min (the only fact-scale exchange), the week histogram is
    a second groupby over the |users|-bounded table whose output is
    CALENDAR-bounded."""
    out_schema = pa.schema([("week", pa.int64()), ("n_new_users", pa.int64())])
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    if ev.count() == 0:
        return out_schema.empty_table()

    _fu_schema = pa.schema([("user_id", pa.int64()), ("first_us", pa.int64())])

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _fu_schema.empty_table()
        us = pc.cast(_ts_us(batch.column("ts")), pa.int64())
        assert pc.min(us).as_py() >= 0, "new_users: pre-epoch timestamp"
        t = pa.table({"user_id": batch.column("user_id"), "first_us": us})
        return t.group_by("user_id").aggregate([("first_us", "min")]).rename_columns(
            ["user_id", "first_us"]
        )

    firsts = (
        _hagg_auto(ev.map_batches(combine, batch_format="pyarrow", batch_size=None), "user_id", [('first_us', 'min', 'first_us')])
    )

    _wk_schema = pa.schema([("week", pa.int64()), ("n", pa.int64())])

    def weeks(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _wk_schema.empty_table()
        t = pa.table(
            {
                "week": pc.divide(
                    batch.column("first_us"),
                    pa.scalar(7 * 86_400_000_000, pa.int64()),
                ),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by("week").aggregate([("n", "sum")]).rename_columns(
            ["week", "n"]
        )

    red = _scrub_schemaless(
        _hagg_auto(firsts.map_batches(weeks, batch_format="pyarrow", batch_size=None), "week", [('n', 'sum', 'n_new_users')])
    )
    if red is None:
        return out_schema.empty_table()
    return red


def events_weekday_hour_heatmap(sf_dir: str) -> "Dataset | pa.Table":
    """Activity heatmap by (ISO weekday, hour-of-day) — the
    capacity-planning / anomaly-context readout behind every ops
    dashboard, as exact integer arithmetic on epoch microseconds
    (1970-01-01 was a Thursday: ``dow = (epoch_day + 3) % 7 + 1``
    gives ISO 1=Monday..7=Sunday with no timezone or locale library
    in the path).

    Shape notes: ONE combiner-fed groupby whose key domain is
    CONSTANT (168 cells) — the exchange carries at most 168 rows per
    batch at any corpus size."""
    out_schema = pa.schema(
        [("iso_dow", pa.int64()), ("hour", pa.int64()), ("n_events", pa.int64())]
    )
    ev = _read(sf_dir, "events", ["ts"])
    if ev.count() == 0:
        return out_schema.empty_table()

    _hm_schema = pa.schema(
        [("iso_dow", pa.int64()), ("hour", pa.int64()), ("n", pa.int64())]
    )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _hm_schema.empty_table()
        us = pc.cast(_ts_us(batch.column("ts")), pa.int64()).to_numpy()
        assert us.min() >= 0, "heatmap: pre-epoch timestamp"
        day = us // 86_400_000_000
        t = pa.table(
            {
                "iso_dow": pa.array((day + 3) % 7 + 1, pa.int64()),
                "hour": pa.array(us // 3_600_000_000 % 24, pa.int64()),
                "n": pa.array(np.ones(len(us), np.int64)),
            }
        )
        return t.group_by(["iso_dow", "hour"]).aggregate([("n", "sum")]).rename_columns(
            ["iso_dow", "hour", "n"]
        )

    red = _scrub_schemaless(
        _hagg_auto(ev.map_batches(combine, batch_format="pyarrow", batch_size=None), ["iso_dow", "hour"], [('n', 'sum', 'n_events')])
    )
    if red is None:
        return out_schema.empty_table()
    return red


def events_retention_cohorts(sf_dir: str) -> "Dataset | pa.Table":
    """Retention triangle enriched with cohort sizes and the exact
    half-away retention ppm — the rate readout next to
    ``events_retention``'s raw counts.

    Deliberately DERIVED, not recomputed: a user is by definition
    active in their own first week, so the cohort size is exactly the
    offset-0 cell of the triangle — this op therefore shares
    ``events_retention``'s whole pipeline (one distinct (user, week)
    exchange, one cohort map) and adds only a CALENDAR-bounded
    size-row broadcast plus one vectorized ppm pass.  ``2e6 *
    n_active`` must fit int64 — asserted loudly."""
    out_schema = pa.schema(
        [
            ("cohort_week", pa.int64()),
            ("week_offset", pa.int64()),
            ("n_cohort", pa.int64()),
            ("n_active", pa.int64()),
            ("retention_ppm", pa.int64()),
        ]
    )
    cells = events_retention(sf_dir)
    if isinstance(cells, pa.Table):  # empty corpus
        return out_schema.empty_table()
    cells = cells.materialize()

    sizes_tab = _collect_small(
        cells.filter(expr="week_offset == 0"), 2_000_000
    )
    assert sizes_tab is not None, (
        "retention_cohorts: cohort-week domain exceeds 2M rows — the "
        "size table is CALENDAR-bounded, so this indicates corrupt "
        "timestamps, not scale"
    )
    sz_ref = ray.put(
        (
            sizes_tab.column("cohort_week").combine_chunks(),
            sizes_tab.column("n_users").combine_chunks(),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        wk, nc_arr = ray.get(sz_ref)
        idx = pc.index_in(batch.column("cohort_week"), value_set=wk)
        assert pc.count(idx, mode="only_null").as_py() == 0, (
            "retention_cohorts: cohort week missing its offset-0 cell"
        )
        nc = pc.take(nc_arr, pc.cast(idx, pa.int64())).to_numpy()
        na = batch.column("n_users").to_numpy()
        assert na.max() < 4 * 10**12, "retention: 2e6*n_active wraps int64"
        ppm = (2_000_000 * na + nc) // (2 * nc)  # half-away, n_active>=0
        return pa.table(
            {
                "cohort_week": batch.column("cohort_week"),
                "week_offset": batch.column("week_offset"),
                "n_cohort": pa.array(nc, pa.int64()),
                "n_active": pa.array(na, pa.int64()),
                "retention_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return cells.map_batches(finalize, batch_format="pyarrow")


def events_hopping_window_counts(
    sf_dir: str, window_hours: int = 6
) -> "Dataset | pa.Table":
    """Hopping event-time window: per event type, the event count in
    every ``window_hours``-hour window hopping hourly — the streaming
    rate / alerting readout (`§2.8` shape) computed batch: a window
    position appears iff it contains >= 1 event (zero windows are
    gap-fill's job; the alerting consumer only looks at non-empty
    ones).

    Shape notes: hourly per-type counts are ONE combiner-fed groupby
    whose key domain is CALENDAR x |types| bounded; each hourly cell
    then fans out to its ``window_hours`` containing window starts
    VECTORIZED (np.repeat/tile over the bounded hourly table — the
    fan-out multiplies a calendar-bounded table, never the event
    stream), and the window reduce is a second calendar-bounded
    groupby."""
    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("window_start_hour", pa.int64()),
            ("n_events", pa.int64()),
        ]
    )
    assert 1 <= window_hours <= 10_000, "hopping_window: hop fan-out bound"
    ev = _read(sf_dir, "events", ["event_type", "ts"])
    if ev.count() == 0:
        return out_schema.empty_table()

    _h_schema = pa.schema(
        [("event_type", pa.string()), ("hour", pa.int64()), ("n", pa.int64())]
    )

    def hourly(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _h_schema.empty_table()
        us = pc.cast(_ts_us(batch.column("ts")), pa.int64())
        assert pc.min(us).as_py() >= 0, "hopping_window: pre-epoch timestamp"
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour": pc.divide(us, pa.scalar(3_600_000_000, pa.int64())),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by(["event_type", "hour"]).aggregate(
            [("n", "sum")]
        ).rename_columns(["event_type", "hour", "n"])

    hourly_red = _scrub_schemaless(
        _hagg_auto(
            ev.map_batches(hourly, batch_format="pyarrow", batch_size=None),
            ["event_type", "hour"],
            [("n", "sum", "n")],
        )
    )
    if hourly_red is None:
        return out_schema.empty_table()

    def fan_out(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _h_schema.empty_table().rename_columns(
                ["event_type", "window_start_hour", "n"]
            )
        w = window_hours
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        hr = batch.column("hour").to_numpy()
        n = batch.column("n").to_numpy()
        # hour h lies in windows starting at h-w+1 .. h
        starts = np.repeat(hr, w) - np.tile(np.arange(w, dtype=np.int64), len(hr))
        t = pa.table(
            {
                "event_type": pa.array(np.repeat(et, w)),
                "window_start_hour": pa.array(starts, pa.int64()),
                "n": pa.array(np.repeat(n, w), pa.int64()),
            }
        )
        return t.group_by(["event_type", "window_start_hour"]).aggregate(
            [("n", "sum")]
        ).rename_columns(["event_type", "window_start_hour", "n"])

    red = _scrub_schemaless(
        _hagg_auto(
            hourly_red.map_batches(
                fan_out, batch_format="pyarrow", batch_size=None
            ),
            ["event_type", "window_start_hour"],
            [("n", "sum", "n_events")],
        )
    )
    if red is None:
        return out_schema.empty_table()
    return red


def customer_rfm_scores(sf_dir: str, k: int = 5) -> "Dataset | pa.Table":
    """RFM segmentation over customers WITH orders: per customer the
    last order day (R), order count (F) and lifetime cents (M), each
    scored 1..k by global NTILE over (metric best-first, custkey) —
    score 1 is the best quintile on every axis, ``rfm`` packs the
    three digits.  Deterministic: the custkey tie-break makes every
    NTILE assignment unique, so the oracle window agrees bit-for-bit.

    Shape notes: per-customer metrics are ONE fact-scale combiner
    exchange over orders; the three global ranks each ride the
    ``_attach_global_rank`` ``sorted_run_scan`` (sorts of the
    |customers|-bounded metric table, never of orders); the NTILE
    formula is vectorized batch arithmetic from (rank, n_customers).
    """
    out_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("last_order_day", pa.int64()),
            ("n_orders", pa.int64()),
            ("monetary_cents", pa.int64()),
            ("r_score", pa.int64()),
            ("f_score", pa.int64()),
            ("m_score", pa.int64()),
            ("rfm", pa.int64()),
        ]
    )
    ods = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
    if ods.count() == 0:
        return out_schema.empty_table()

    _m_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("last_day", pa.int64()),
            ("n1", pa.int64()),
            ("price_c", pa.int64()),
        ]
    )

    def derive(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _m_schema.empty_table()
        us = pc.cast(_ts_us(batch.column("o_orderdate")), pa.int64())
        assert pc.min(us).as_py() >= 0, "rfm: pre-epoch order date"
        t = pa.table(
            {
                "c_custkey": batch.column("o_custkey"),
                "last_day": pc.divide(us, pa.scalar(86_400_000_000, pa.int64())),
                "n1": pa.array(np.ones(batch.num_rows, np.int64)),
                "price_c": _cents(batch.column("o_totalprice")),
            }
        )
        return t.group_by("c_custkey").aggregate(
            [("last_day", "max"), ("n1", "sum"), ("price_c", "sum")]
        ).rename_columns(["c_custkey", "last_day", "n1", "price_c"])

    metrics = _scrub_schemaless(
        _hagg_auto(
            ods.map_batches(derive, batch_format="pyarrow", batch_size=None),
            "c_custkey",
            [
                ("last_day", "max", "last_order_day"),
                ("n1", "sum", "n_orders"),
                ("price_c", "sum", "monetary_cents"),
            ],
        )
    )
    if metrics is None:
        return out_schema.empty_table()
    metrics = metrics.materialize()
    n_total = metrics.count()

    def rename_rn(ds: Dataset, name: str) -> Dataset:
        return ds.map_batches(
            lambda b, _n=name: b.rename_columns(
                [c if c != "rn" else _n for c in b.schema.names]
            ),
            batch_format="pyarrow",
        )

    ranked = rename_rn(
        _attach_global_rank(metrics, "last_order_day", "c_custkey", descending=True),
        "r_rank",
    )
    ranked = rename_rn(
        _attach_global_rank(ranked, "n_orders", "c_custkey", descending=True),
        "f_rank",
    )
    ranked = rename_rn(
        _attach_global_rank(ranked, "monetary_cents", "c_custkey", descending=True),
        "m_rank",
    )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        r = _sql_ntile(batch.column("r_rank").to_numpy(), n_total, k)
        f = _sql_ntile(batch.column("f_rank").to_numpy(), n_total, k)
        m = _sql_ntile(batch.column("m_rank").to_numpy(), n_total, k)
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "last_order_day": batch.column("last_order_day"),
                "n_orders": batch.column("n_orders"),
                "monetary_cents": batch.column("monetary_cents"),
                "r_score": pa.array(r, pa.int64()),
                "f_score": pa.array(f, pa.int64()),
                "m_score": pa.array(m, pa.int64()),
                "rfm": pa.array(100 * r + 10 * f + m, pa.int64()),
            }
        )

    return ranked.map_batches(finalize, batch_format="pyarrow")
