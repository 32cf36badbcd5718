"""Skew-aware (salted) aggregation.

North-rule requirement: "skewed entities (hub mentions) are handled
with salted groupby keys and explicit repartitioning".  Two layers in
this engine:

1. **Map-side partial aggregation** (``pipelines/kg.py::_partial_agg``)
   — every batch combines its rows per key before the shuffle, so a hub
   key contributes at most one row per block.  This alone removes most
   hot-key pressure and is always on.
2. **Salted two-phase aggregate** (here) — for the residual case where
   even one-row-per-block per key overloads a single reducer (millions
   of blocks, one global hub key): phase 1 groups on
   ``(key, hash(row) % n_salts)`` spreading the hub across ``n_salts``
   reducers; phase 2 re-groups the (tiny) salted partials on the bare
   key.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset
from ray.data.aggregate import Sum

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto
from renard_ray.ops.hashagg import hash_join


def salted_groupby_sum(
    ds: Dataset,
    key_cols: list[str],
    value_cols: list[str],
    n_salts: int = 16,
) -> Dataset:
    """Two-phase salted ``groupby(key_cols).sum(value_cols)``.

    Result is identical to the unsalted groupby (sums are associative);
    the shuffle distributes each hot key over ``n_salts`` partitions.
    """

    def add_salt(batch: pa.Table) -> pa.Table:
        # deterministic per-row salt: spread rows of the same key
        n = batch.num_rows
        salt = pc.cast(
            pc.bit_wise_and(
                pa.array(range(n), pa.int64()), pa.scalar(n_salts - 1, pa.int64())
            ),
            pa.int32(),
        )
        return batch.append_column("_salt", salt)

    spec = [(v, "sum", v) for v in value_cols]
    phase1 = _hagg_auto(
        ds.map_batches(add_salt, batch_format="pyarrow"),
        list(key_cols) + ["_salt"],
        spec,
    )
    return _hagg_auto(phase1, list(key_cols), spec)


def skew_aware_join(
    left: Dataset,
    right: Dataset,
    on: str,
    right_on: str | None = None,
    hot_threshold: int = 100_000,
    broadcast_row_cap: int = 2_000_000,
) -> Dataset:
    """Hash join that survives hot keys ("salt hot keys" at 100 TB).

    A plain hash join sends every row of a key to ONE partition; a hub
    key (a celebrity entity, a null-ish default value) turns that
    partition into the straggler.  Plan:

    1. one key-column pass over EACH side counts per-key rows; keys over
       ``hot_threshold`` on either side form the (small — by definition
       there can be few keys that big) hot-candidate set;
    2. each hot key picks the strategy that broadcasts its SMALLER side:
       rows of that side are collected and shipped once via ``ray.put``,
       the bigger side streams through a vectorized per-batch join — no
       shuffle, perfectly spread.  The total collected rows are capped
       at ``broadcast_row_cap`` (worst hubs first); keys heavy on BOTH
       sides or past the budget stay in the hash join (bounded driver
       memory beats an unbounded broadcast — a fact×fact hub needs a
       salted replicate join, which ``salted_groupby_sum`` callers
       avoid by pre-aggregating instead);
    3. cold rows of both sides go through the ordinary hash join;
    4. union.  Row-identical to the plain join (inner semantics).
    """
    import logging

    import ray
    from ray.data.aggregate import Count

    right_on = right_on or on

    # output schema is column-name-sorted on EVERY path, so the result
    # shape never depends on whether hot keys existed in the data
    out_cols = sorted(set(left.schema().names) | (set(right.schema().names) - {right_on}))

    def order_cols(batch: pa.Table) -> pa.Table:
        return batch.select([c for c in out_cols if c in batch.column_names])

    def plain() -> Dataset:
        return hash_join(left, right, on, right_on).map_batches(
            order_cols, batch_format="pyarrow"
        )

    # per-key counts, one key-column pass per side (distinct-key sized,
    # distributed); materialized because each is scanned twice below
    lcounts = (
        _hagg_auto(left.select_columns([on]), on, [('', 'count_all', 'n')]).materialize()
    )
    rcounts = (
        _hagg_auto(right.select_columns([right_on]), right_on, [('', 'count_all', 'n')]).materialize()
    )
    lhot = {r[on]: r["n"] for r in lcounts.filter(expr=f"n > {hot_threshold}").take_all()}
    rhot = {
        r[right_on]: r["n"]
        for r in rcounts.filter(expr=f"n > {hot_threshold}").take_all()
    }
    cand = sorted(set(lhot) | set(rhot))
    if not cand:
        return plain()

    # counterpart counts for the candidate keys only (bounded: |cand|)
    cand_arr = pa.array(cand)

    def restrict(batch: pa.Table, col: str) -> pa.Table:
        hit = pc.is_valid(
            pc.index_in(batch.column(col).combine_chunks(), value_set=cand_arr)
        )
        return batch.filter(hit)

    ln = {r[on]: r["n"] for r in lcounts.map_batches(
        restrict, fn_kwargs={"col": on}, batch_format="pyarrow").take_all()}
    rn = {r[right_on]: r["n"] for r in rcounts.map_batches(
        restrict, fn_kwargs={"col": right_on}, batch_format="pyarrow").take_all()}

    # strategy per key, worst hubs first, within the broadcast budget:
    # broadcast the smaller side, stream the bigger one
    bcast_right_keys: list = []  # collect right rows, stream left
    bcast_left_keys: list = []  # collect left rows, stream right
    budget = broadcast_row_cap
    deferred = 0
    for k in sorted(cand, key=lambda k: -max(ln.get(k, 0), rn.get(k, 0))):
        l_n, r_n = ln.get(k, 0), rn.get(k, 0)
        small = min(l_n, r_n)
        if small > budget:
            deferred += 1  # heavy on both sides, or budget exhausted
            continue
        budget -= small
        (bcast_right_keys if r_n <= l_n else bcast_left_keys).append(k)
    if deferred:
        logging.getLogger(__name__).warning(
            "skew_aware_join: %d hot key(s) left in the hash join — their "
            "smaller side exceeds the remaining broadcast budget "
            "(broadcast_row_cap=%d; heavy on both sides, or budget consumed "
            "by bigger hubs). Straggler risk, bounded memory; raising the "
            "cap may fix budget-crowded keys.", deferred, broadcast_row_cap,
        )
    if not bcast_right_keys and not bcast_left_keys:
        return plain()

    handled = pa.array(sorted(bcast_right_keys + bcast_left_keys))
    handled_ref = ray.put(handled)
    bR = ray.put(pa.array(sorted(bcast_right_keys))) if bcast_right_keys else None
    bL = ray.put(pa.array(sorted(bcast_left_keys))) if bcast_left_keys else None

    def split(batch: pa.Table, col: str, keep: bool, keys_ref=None) -> pa.Table:
        ks = ray.get(keys_ref if keys_ref is not None else handled_ref)
        hit = pc.is_valid(pc.index_in(batch.column(col).combine_chunks(), value_set=ks))
        return batch.filter(hit if keep else pc.invert(hit))

    cold = hash_join(
        left.map_batches(
            split, fn_kwargs={"col": on, "keep": False}, batch_format="pyarrow"
        ),
        right.map_batches(
            split, fn_kwargs={"col": right_on, "keep": False},
            batch_format="pyarrow",
        ),
        on,
        right_on,
    )
    branches = [cold.map_batches(order_cols, batch_format="pyarrow")]

    def collect(ds: Dataset, col: str, keys_ref) -> pa.Table | None:
        batches = [
            b
            for b in ds.map_batches(
                split, fn_kwargs={"col": col, "keep": True, "keys_ref": keys_ref},
                batch_format="pyarrow",
            ).iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
        return pa.concat_tables(batches) if batches else None

    if bR is not None:
        hot_right = collect(right, right_on, bR)
        if hot_right is not None:  # inner join: no right match -> no rows
            hr_ref = ray.put(hot_right)

            def join_right_bcast(batch: pa.Table) -> pa.Table:
                hr = ray.get(hr_ref)
                return batch.join(hr, keys=[on], right_keys=[right_on], join_type="inner")

            branches.append(
                left.map_batches(
                    split, fn_kwargs={"col": on, "keep": True, "keys_ref": bR},
                    batch_format="pyarrow",
                )
                .map_batches(join_right_bcast, batch_format="pyarrow")
                .map_batches(order_cols, batch_format="pyarrow")
            )
    if bL is not None:
        hot_left = collect(left, on, bL)
        if hot_left is not None:
            hl_ref = ray.put(hot_left)

            def join_left_bcast(batch: pa.Table) -> pa.Table:
                # broadcast side on the LEFT keeps the `on` key column in
                # the output (streamed `right_on` is the dropped key)
                hl = ray.get(hl_ref)
                return hl.join(batch, keys=[on], right_keys=[right_on], join_type="inner")

            branches.append(
                right.map_batches(
                    split, fn_kwargs={"col": right_on, "keep": True, "keys_ref": bL},
                    batch_format="pyarrow",
                )
                .map_batches(join_left_bcast, batch_format="pyarrow")
                .map_batches(order_cols, batch_format="pyarrow")
            )

    out = branches[0]
    for b in branches[1:]:
        out = out.union(b)
    return out
