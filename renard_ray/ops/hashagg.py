"""One Ray-task hash exchange for aggregate, top-k and join.

Why this exists: Ray 2.49's built-in sort-shuffle ``Dataset.groupby().
aggregate()`` combines PER GROUP in interpreted Python on both the map
and the reduce side (``ray/data/_internal/planner/exchange/
aggregate_task_spec.py`` — each block is sorted, then the AggregateFn
state machine advances group by group).  Measured when this was written: a
581k-row / 147k-group int64 sum costs **3.6 s** through the built-in
aggregate and **0.10 s** through this helper — the per-group Python
dispatch is ~50-100 µs × #groups × 2 sides, while the identical
combine is one vectorized ``pyarrow.Table.group_by`` call per block.
Ray's ``Dataset.join`` is a hash split plus one ``pa.Table.join`` per
partition, run through aggregator actors: about 1.3 s of fixed cost per
call on a 1-vCPU host (Ray at 2 logical CPUs, 200 x 100 int rows), where
``hash_join`` below takes about 0.04 s.

Shape (the textbook hash exchange; ``hash_aggregate``, ``hash_topk``
and ``hash_join`` differ only in what map and reduce run):

  map    — one task per input block: an optional vectorized combine
           (Arrow ``group_by`` partials, or top-k pruning), a row-hash
           of the key columns (polars ``hash_rows`` — C-speed, handles
           strings/nulls/multi-key) after casting them to one type,
           argsort + slice into ``num_partitions`` contiguous zero-copy
           slices (one object each; ``_split``);
  reduce — one task per partition: concat a zero-row seed of the
           input's schema with its slice from every map task
           (``_concat_seeded``), then ONE final merge — Arrow
           ``group_by``, top-k re-prune, or ``pa.Table.join``.

The seed is what keeps a partition that received no rows (or only
Ray's schema-less empty blocks) typed: every reduce output has the full
output schema and every join partition has its key columns.

Exchange volume equals the built-in's (combined partials ride the
wire, never raw rows — callers typically feed an already-combined
table, and the map-side combine re-collapses whatever the caller
didn't).  Task count is N maps + P reduces, N×P objects — the same
all-to-all the built-in runs, minus the per-group Python.

Scale notes (100 TB honest): the partition count defaults from the
materialized input bytes (one reduce partition per ~64 MB, floor 2 and
the CPU count up to 8, cap 1024; ``_num_parts``), so the reduce fan
tracks DATA volume, not the upstream block count — a bounded combined
table gets a handful of reducers instead of inheriting hundreds of
fact-scale read blocks (the built-in hardcodes ``num_outputs =
num_mappers``: planner/aggregate.py:69).  Skewed keys concentrate a
partition exactly as they do in any hash exchange; salt upstream where
a single key's group is itself huge (``ops/skew.py`` does for joins).

Raw ``@ray.remote`` tasks are used here deliberately — the Dataset API
cannot express "split each block into P addressed slices and route
slice p of every block to reduce task p" without going through the
same built-in exchange this helper replaces.  Input blocks come from
``Dataset.to_arrow_refs()`` (zero-copy for Arrow-backed blocks);
output is ``ray.data.from_arrow_refs`` over the P reduce outputs, so
nothing corpus-scale ever touches the driver.

Determinism: all house aggregates are exact-integer (sums/counts/
min/max over int64/string), so results are independent of partition
and arrival order; output ROW order depends on the partitioning like
any shuffle — callers sort downstream when order matters.

Extreme block counts (100 TB honest): the exchange is N input blocks
× P partitions objects, same as Ray's own pull-based shuffle.  At
~10^5-10^6 input blocks (a raw 100 TB scan) N×P object metadata
dominates ANY single-level exchange — Ray's builtin included (its
N×N is strictly worse).  ``hash_aggregate`` guards that regime itself:
past ``precombine_threshold`` input blocks a TREE LEVEL
(``_ha_precombine``) folds every ``precombine_fanin`` raw blocks into
one partial table before the all-to-all, so the exchange sees
N/fanin inputs (10^6 → ~31k at fanin 32) while the fold stays linear.
For corpus-cardinality keys (exact dedup's md5 pass — see the
call-site note in ``dedup.exact_dedup_groups``) the fold cannot
shrink ROWS, but it still collapses the object count, which is the
part that breaks first; the shuffle bytes are irreducible in any
engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

# how partial results of each supported aggregate merge in the reduce
_MERGE_FN = {
    "sum": "sum",
    "count": "sum",
    "count_all": "sum",
    "min": "min",
    "max": "max",
}


def _combine_spec(
    spec: list[tuple[str, str, str]],
) -> tuple[list[tuple[str, str]], list[tuple[str, str]], list[str]]:
    """(map-side arrow spec, reduce-side merge spec, output aliases)."""
    map_spec: list[tuple[str, str]] = []
    merge_spec: list[tuple[str, str]] = []
    aliases: list[str] = []
    for col, fn, alias in spec:
        if fn not in _MERGE_FN:
            raise ValueError(f"unsupported aggregate fn {fn!r}")
        # arrow spells "count rows" as ([], "count_all") and names the
        # partial column "count_all"; every other fn is (col, fn) named
        # f"{col}_{fn}"
        if fn == "count_all":
            map_spec.append(([], fn))
            merge_spec.append(("count_all", "sum"))
        else:
            map_spec.append((col, fn))
            merge_spec.append((f"{col}_{fn}", _MERGE_FN[fn]))
        aliases.append(alias)
    return map_spec, merge_spec, aliases


def _canon_keys(t: pa.Table, keys: list[str], key_types) -> pa.Table:
    """Cast key columns to the seed schema's types before hashing.

    Partition routing hashes keys AS-TYPED: if divergent map_batches
    branches emit the same logical key as e.g. int32 in one block and
    int64 in another, ``hash_rows`` routes equal keys to different
    partitions and the group silently splits (the reduce-side concat
    promotes types, so nothing fails loudly).  Pinning every block to
    the driver-derived key types makes the route a function of the
    VALUE only."""
    if key_types is None:
        return t
    import pyarrow.compute as pc

    for k, want in zip(keys, key_types):
        i = t.schema.get_field_index(k)
        if i >= 0 and t.schema.field(i).type != want:
            t = t.set_column(i, k, pc.cast(t.column(k), want))
    return t


def _split(t: pa.Table, keys: list[str], nparts: int):
    """Hash-split ``t`` on its (canonical-typed) ``keys`` into ``nparts``
    contiguous zero-copy slices; a bare table when ``nparts == 1``, as
    a one-return task must return."""
    import polars as pl

    if t.num_rows == 0:
        out = (t.slice(0, 0),) * nparts
    else:
        h = pl.from_arrow(t.select(keys)).hash_rows(seed=0).to_numpy() % nparts
        order = np.argsort(h, kind="stable")
        t = t.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(nparts + 1))
        out = tuple(
            t.slice(bounds[p], bounds[p + 1] - bounds[p]) for p in range(nparts)
        )
    return out if nparts > 1 else out[0]


def _no_slices(nparts: int):
    """A map's "nothing to route" answer: the reduce skips None slices
    and falls back on the driver-built schema seed."""
    return (None,) * nparts if nparts > 1 else None


def _keyless_empty(block: pa.Table | None, keys: list[str]) -> bool:
    """True for blocks that carry nothing: Ray's row-lambda filters and
    empty map outputs produce 0-row blocks with NO columns at all (the
    documented schema-less hazard)."""
    return block is None or (
        block.num_rows == 0 and not set(keys) <= set(block.column_names)
    )


def _concat_seeded(seed: pa.Table, slices) -> pa.Table:
    """One partition's input: the zero-row schema seed, then every
    non-None slice routed to it."""
    return pa.concat_tables(
        [seed, *(s for s in slices if s is not None)],
        promote_options="permissive",
    )


def _seed(ds: Dataset) -> pa.Table | None:
    """Zero-row Arrow table of a materialized ``ds``'s schema (Ray
    unifies it over the non-empty blocks); None when the dataset is
    schema-less, i.e. zero rows through blocks with no columns."""
    sch = ds.schema(fetch_if_missing=False)
    base = getattr(sch, "base_schema", None) if sch is not None else None
    if base is None:
        return None
    if isinstance(base, pa.Schema):
        return base.empty_table()
    # pandas-backed blocks expose a PandasBlockSchema (names + pandas
    # dtypes) — build the zero-row Arrow table through an empty
    # DataFrame so dtype conversion matches what to_arrow_refs does to
    # the real blocks
    import pandas as pd

    return pa.Table.from_pandas(
        pd.DataFrame(
            {n: pd.Series(dtype=t) for n, t in zip(base.names, base.types)}
        ),
        preserve_index=False,
    )


def _num_parts(*mats: Dataset) -> int:
    """Reduce width from the materialized inputs' bytes, with a small
    CPU-aware floor: the output block count IS the downstream
    parallelism, and a 2-block result starves any compute-heavy
    map_batches that consumes it (extra tiny reduce tasks are
    near-free — measured 8 vs 4 partitions identical at 0.10 s on a
    581k-row reduce)."""
    size = 0
    for ds in mats:
        try:
            size += ds.size_bytes() or 0
        except Exception:
            pass
    cpu_floor = min(8, int(ray.cluster_resources().get("CPU", 8)))
    return max(2, cpu_floor, min(1024, size // (64 << 20) + 2))


def _exchange(map_task, refs, args: tuple, nparts: int) -> list[list]:
    """One ``map_task(block, *args)`` per block ref, each returning
    ``nparts`` slices; returns the slice refs grouped by partition."""
    splits = [
        map_task.options(num_returns=nparts).remote(r, *args) for r in refs
    ]
    if nparts == 1:
        splits = [[s] for s in splits]
    return [[s[p] for s in splits] for p in range(nparts)]


@ray.remote
def _ha_precombine(
    keys: list[str],
    map_spec: list[tuple[str, str]],
    merge_spec: list[tuple[str, str]],
    partial_names: list[str],
    key_types,
    *blocks: pa.Table,
):
    """First tree level for extreme block counts: fold ``fanin`` raw
    blocks into ONE partial table (combine each, concat, re-merge) so
    the all-to-all exchange sees N/fanin inputs instead of N — the
    N x P object-metadata blowup guard for corpus-cardinality keys."""
    parts = [
        _canon_keys(b.group_by(keys).aggregate(map_spec), keys, key_types)
        for b in blocks
        if not _keyless_empty(b, keys)
    ]
    if not parts:
        return None
    t = pa.concat_tables(parts, promote_options="default")
    m = t.group_by(keys).aggregate(merge_spec)
    return m.rename_columns(list(keys) + list(partial_names))


@ray.remote
def _ha_map(
    block: pa.Table,
    keys: list[str],
    map_spec: list[tuple[str, str]],
    nparts: int,
    key_types=None,
    pre_combined: bool = False,
):
    """Partial combine + hash-split one block into ``nparts`` slices."""
    if _keyless_empty(block, keys):
        return _no_slices(nparts)
    if pre_combined:
        # block came from _ha_precombine: already a canonical-keyed
        # partial table — split only, no re-aggregate
        t = block
    else:
        t = _canon_keys(
            block.group_by(keys).aggregate(map_spec), keys, key_types
        )
    return _split(t, keys, nparts)


@ray.remote
def _ha_reduce(
    keys: list[str],
    merge_spec: list[tuple[str, str]],
    out_names: list[str],
    seed: pa.Table,
    *slices: pa.Table,
) -> pa.Table:
    r = _concat_seeded(seed, slices).group_by(keys).aggregate(merge_spec)
    return r.rename_columns(list(keys) + list(out_names))


def hash_aggregate(
    ds: Dataset,
    keys: str | list[str],
    spec: list[tuple[str, str, str]],
    num_partitions: int | None = None,
    precombine_threshold: int = 256,
    precombine_fanin: int = 32,
) -> Dataset:
    """``ds.groupby(keys).aggregate(...)`` without the per-group Python.

    ``spec`` entries are ``(column, fn, alias)`` with ``fn`` one of
    ``sum | count | count_all | min | max`` (``count`` = non-null
    values of ``column``, ``count_all`` = rows, pass ``column=""``).
    Returns a Dataset with columns ``keys + [alias, ...]``.  An empty
    ``spec`` yields the DISTINCT key combinations.

    Semantics match the built-in exactly for the house usage (exact
    integer aggregates over non-float columns); null keys form their
    own group exactly like SQL ``GROUP BY``.
    """
    if isinstance(keys, str):
        keys = [keys]
    map_spec, merge_spec, aliases = _combine_spec(spec)

    # materialize ONCE: both the byte-sizing and the block refs read the
    # same materialized blocks (to_arrow_refs / size_bytes would each
    # re-execute a lazy pipeline otherwise)
    ds = ds.materialize()

    # schema seed: a zero-row PARTIAL table — every reduce concats it
    # first, so the output schema survives fully-empty inputs
    empty = _seed(ds)
    if empty is None:
        # schema-less input: the built-in aggregate yields a schema-less
        # empty result here and callers scrub it — mirror that exactly
        # so this stays a drop-in replacement.
        return ray.data.from_arrow(pa.table({}))
    seed = empty.group_by(keys).aggregate(map_spec)

    refs = ds.to_arrow_refs()
    if not refs:
        out = seed.group_by(keys).aggregate(merge_spec)
        return ray.data.from_arrow(
            out.rename_columns(list(keys) + list(aliases))
        )
    nparts = int(num_partitions or _num_parts(ds))

    key_types = [seed.schema.field(k).type for k in keys]

    # tree level for extreme block counts: past the threshold, fold
    # every ``precombine_fanin`` raw blocks into one partial table
    # BEFORE the all-to-all, so the exchange is (N/fanin) x P objects
    # instead of N x P — the metadata blowup the module docstring
    # names for corpus-cardinality keys (exact dedup's md5 pass) at
    # raw-100 TB block counts.  One level suffices to pull N from
    # ~10^6 into the tens of thousands; the fold itself is linear.
    pre = len(refs) > precombine_threshold
    if pre:
        partial_names = [
            "count_all" if fn == "count_all" else f"{c}_{fn}"
            for (c, fn) in map_spec
        ]
        refs = [
            _ha_precombine.remote(
                keys,
                map_spec,
                merge_spec,
                partial_names,
                key_types,
                *refs[i : i + precombine_fanin],
            )
            for i in range(0, len(refs), precombine_fanin)
        ]

    by_part = _exchange(
        _ha_map, refs, (keys, map_spec, nparts, key_types, pre), nparts
    )
    seed_ref = ray.put(seed)
    parts = [
        _ha_reduce.remote(keys, merge_spec, aliases, seed_ref, *slices)
        for slices in by_part
    ]
    return ray.data.from_arrow_refs(parts)


# --------------------------------------------------------- grouped top-k
#
# Same two-phase exchange as ``hash_aggregate`` but the combine is
# "k smallest rows per key under a composite order" instead of an
# Arrow group_by: map tasks prune each block to <= k rows per key it
# contains (so only candidates ride the wire), the hash split
# co-locates each key's candidates, and one reduce pass per partition
# re-prunes and attaches the 1-based rank.  This replaces the
# sort-shuffle ``groupby().map_groups`` per-group-Python pattern for
# every "top-k per group / window row_number() <= k" query.


def _topk_block(
    t: pa.Table,
    keys: list[str],
    order: list[tuple[str, bool]],
    k: int,
    rank_col: str | None = None,
) -> pa.Table:
    """<= k rows per key group of one table, vectorized (no group loop).

    ``order`` is ``[(col, ascending), ...]`` — must be a TOTAL order
    within every group (tie-break on a unique column) so results are
    a pure function of the data.  Descending needs a numeric column
    (negation trick); null order values are rejected loudly.
    """
    if t.num_rows == 0:
        if rank_col is not None:
            t = t.append_column(rank_col, pa.array([], pa.int64()))
        return t
    t = t.combine_chunks()

    if len(keys) == 1:
        kc = t.column(keys[0])
    else:
        import pyarrow.compute as pc

        # loud guard: the packed key joins with \x1f, so a key value
        # containing the separator would collapse distinct tuples into
        # one group (and disagree with the hash_rows routing)
        casted = [pc.cast(t.column(c), pa.string()) for c in keys]
        for c, arr in zip(keys, casted):
            if pc.any(pc.match_substring(arr, "\x1f")).as_py():
                raise ValueError(
                    f"hash_topk: key column {c!r} contains the \\x1f "
                    "separator — packed multi-key grouping would merge "
                    "distinct key tuples"
                )
        kc = pc.binary_join_element_wise(*casted, "\x1f")
    if isinstance(kc, pa.ChunkedArray):
        kc = kc.combine_chunks()
    if kc.null_count:
        # null keys must not ride the NaN->int64 cast (undefined code,
        # platform-dependent): reject loudly like null order columns
        raise ValueError(
            f"hash_topk: null values in key column(s) {keys!r}"
        )
    enc = kc.dictionary_encode() if not pa.types.is_dictionary(kc.type) else kc
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    sort_cols = []
    for col, asc in reversed(order):
        a = t.column(col)
        if a.null_count:
            raise ValueError(f"hash_topk: null values in order column {col!r}")
        arr = a.to_numpy(zero_copy_only=False)
        if not asc:
            if arr.dtype.kind not in "if":
                raise ValueError(
                    f"hash_topk: descending needs a signed numeric column, "
                    f"got {arr.dtype} for {col!r}"
                )
            arr = -arr
        sort_cols.append(arr)
    sort_cols.append(codes)  # group code = primary key (last in lexsort)

    idx = np.lexsort(sort_cols)
    cs = codes[idx]
    new_grp = np.empty(len(cs), dtype=bool)
    new_grp[0] = True
    np.not_equal(cs[1:], cs[:-1], out=new_grp[1:])
    starts = np.flatnonzero(new_grp)
    gid = np.cumsum(new_grp) - 1
    rank = np.arange(len(cs), dtype=np.int64) - starts[gid]
    keep = rank < k
    out = t.take(pa.array(idx[keep]))
    if rank_col is not None:
        out = out.append_column(rank_col, pa.array(rank[keep] + 1, pa.int64()))
    return out


@ray.remote
def _tk_map(
    block: pa.Table,
    keys: list[str],
    order: list[tuple[str, bool]],
    k: int,
    nparts: int,
    key_types=None,
):
    if _keyless_empty(block, keys):
        return _no_slices(nparts)
    t = _topk_block(_canon_keys(block, keys, key_types), keys, order, k)
    return _split(t, keys, nparts)


@ray.remote
def _tk_reduce(
    keys: list[str],
    order: list[tuple[str, bool]],
    k: int,
    rank_col: str,
    seed: pa.Table,
    *slices: pa.Table,
) -> pa.Table:
    return _topk_block(
        _concat_seeded(seed, slices), keys, order, k, rank_col=rank_col
    )


def hash_topk(
    ds: Dataset,
    keys: str | list[str],
    order: list[tuple[str, bool]],
    k: int,
    rank_col: str = "rank",
    num_partitions: int | None = None,
) -> Dataset:
    """Top-k rows per key group under a total ``order``, with a 1-based
    ``rank_col`` attached — the window ``row_number() <= k`` shape
    without a sort-shuffle or per-group Python.

    Exchange volume is <= k x (keys present in block) rows per map
    task — the wire carries candidates only, never the fact table.
    """
    if isinstance(keys, str):
        keys = [keys]
    ds = ds.materialize()
    seed = _seed(ds)
    if seed is None:
        return ray.data.from_arrow(pa.table({}))

    refs = ds.to_arrow_refs()
    if not refs:
        return ray.data.from_arrow(
            _topk_block(seed, keys, order, k, rank_col=rank_col)
        )
    nparts = int(num_partitions or _num_parts(ds))

    key_types = [seed.schema.field(k).type for k in keys]
    by_part = _exchange(
        _tk_map, refs, (keys, order, k, nparts, key_types), nparts
    )
    seed_ref = ray.put(seed)
    parts = [
        _tk_reduce.remote(keys, order, k, rank_col, seed_ref, *slices)
        for slices in by_part
    ]
    return ray.data.from_arrow_refs(parts)


# -------------------------------------------------------------- hash join
#
# The same exchange with no map-side combine: both sides are split on
# their key columns (cast to one common type, so an int32 key meets an
# int64 one), and reduce p runs exactly the ``pa.Table.join`` that Ray's
# ``JoiningShuffleAggregation.finalize`` runs on partition p
# (``ray/data/_internal/execution/operators/join.py``) — same output
# names, column order and types — after seeding each side with its
# zero-row schema, so no partition lacks its key columns.


@ray.remote
def _hj_map(block: pa.Table, keys: list[str], key_types, nparts: int):
    # a 0-row block routes no row; its schema may be 0-column or stale
    # (map_batches passes empty blocks through without the UDF), so it
    # is skipped, and the side's seed carries the schema
    if block is None or block.num_rows == 0:
        return _no_slices(nparts)
    return _split(_canon_keys(block, keys, key_types), keys, nparts)


@ray.remote
def _hj_reduce(
    how: str,
    keys: list[str],
    right_keys: list[str],
    seeds: tuple[pa.Table, pa.Table],
    n_left: int,
    *slices: pa.Table,
) -> pa.Table:
    left = _concat_seeded(seeds[0], slices[:n_left])
    right = _concat_seeded(seeds[1], slices[n_left:])
    return left.join(right, keys=keys, right_keys=right_keys, join_type=how)


def _common_type(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    if a == b:
        return a
    return pa.unify_schemas(
        [pa.schema([("k", a)]), pa.schema([("k", b)])],
        promote_options="permissive",
    ).field("k").type


def hash_join(
    left: Dataset,
    right: Dataset,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
) -> Dataset:
    """Hash join of two Datasets on ``on`` = ``right_on`` (column name
    or list; ``right_on`` defaults to ``on``).  ``how`` is an Arrow join
    type: ``inner``, ``left outer``, ``right outer``, ``full outer``,
    ``left semi``, ``left anti``, ``right semi`` or ``right anti``.

    Output is what one ``pa.Table.join`` over the concatenated sides
    gives (key columns coalesced, right-side key columns dropped; null
    keys never match), with both sides' key columns cast to their
    common type.  A schema-less side (zero rows through 0-column
    blocks) joins as a zero-row table of just its key columns; when
    both are schema-less the result is schema-less too.
    """
    on = [on] if isinstance(on, str) else list(on)
    right_on = (
        on if right_on is None
        else [right_on] if isinstance(right_on, str) else list(right_on)
    )
    left, right = left.materialize(), right.materialize()
    lseed, rseed = _seed(left), _seed(right)
    if lseed is None and rseed is None:
        return ray.data.from_arrow(pa.table({}))
    if lseed is None:
        lseed = pa.schema(
            [(k, rseed.schema.field(r).type) for k, r in zip(on, right_on)]
        ).empty_table()
    if rseed is None:
        rseed = pa.schema(
            [(r, lseed.schema.field(k).type) for k, r in zip(on, right_on)]
        ).empty_table()
    key_types = [
        _common_type(lseed.schema.field(k).type, rseed.schema.field(r).type)
        for k, r in zip(on, right_on)
    ]
    seeds = ray.put(
        (
            _canon_keys(lseed, on, key_types),
            _canon_keys(rseed, right_on, key_types),
        )
    )
    nparts = _num_parts(left, right)
    lparts = _exchange(
        _hj_map, left.to_arrow_refs(), (on, key_types, nparts), nparts
    )
    rparts = _exchange(
        _hj_map, right.to_arrow_refs(), (right_on, key_types, nparts), nparts
    )
    parts = [
        _hj_reduce.remote(how, on, right_on, seeds, len(lp), *lp, *rp)
        for lp, rp in zip(lparts, rparts)
    ]
    return ray.data.from_arrow_refs(parts)
