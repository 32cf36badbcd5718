"""One sorted-run scan: sort once, scan every block, stitch the block
summaries on the driver, finish every block with its carry-in.

The classic parallel prefix scan (Blelloch, "Prefix Sums and Their
Applications", 1990) over a globally sorted Dataset:

  1. ``ds.sort(keys)`` is materialized once; a materialized sort
     holds its blocks in global sort order, so the ref list IS the
     block order (no block keys are packed or sorted);
  2. one Ray task per block runs ``scan(block) -> (part, summary)``
     (``num_returns=2``: the part stays in the object store);
  3. the driver ``ray.get``s only the O(#blocks) summaries and
     ``stitch(summaries)`` returns one carry-in per block — the
     exclusive scan over the block summaries;
  4. one Ray task per block runs ``finish(part, carry) -> pa.Table``;
  5. the finished blocks come back through ``from_arrow_refs``.

Empty blocks are skipped: they hold no rows to scan, summarize or
finish.  A 0-row input (no blocks, only empty ones, or a schema-less
one) gets one ``finish(None, None)`` call instead, which must return
``finish``'s zero-row output, so the result always carries
``finish``'s columns.

Scale: the data moves through one sort shuffle; the driver sees the
summaries only, so its state is O(#blocks) whatever the skew — a key
spanning many blocks costs summary rows, never driver data.  The whole
call is one Ray Data execution (the sort); the rest are plain tasks.
"""

from __future__ import annotations

from typing import Any, Callable

import pyarrow as pa

import ray
from ray.data import Dataset


@ray.remote
def _rs_scan(scan, block):
    """(part, (summary,)) for a block with rows; (None, None) for an
    empty one."""
    from ray.data.block import BlockAccessor

    block = BlockAccessor.for_block(block).to_arrow()
    if block.num_rows == 0:
        return None, None
    part, summary = scan(block)
    return part, (summary,)


@ray.remote
def _rs_finish(finish, part, carry) -> pa.Table:
    return finish(part, carry)


def sorted_run_scan(
    ds: Dataset,
    keys: str | list[str],
    scan: Callable[[pa.Table], tuple[Any, Any]],
    stitch: Callable[[list], list],
    finish: Callable[[Any, Any], pa.Table],
    descending: bool | list[bool] = False,
) -> Dataset:
    """Sort ``ds`` by ``keys`` and run the three-phase block scan.

    ``scan(block)`` sees every non-empty sorted block as an Arrow table
    and returns ``(part, summary)``; ``stitch(summaries)`` gets the
    summaries of those blocks in global sort order (it is not called
    when there are none) and returns one carry per summary;
    ``finish(part, carry)`` returns each of those blocks' output table,
    and ``finish(None, None)`` the zero-row output of a 0-row input."""
    # the materialized bundles' block refs, in order, and not
    # ``to_arrow_refs()``, whose schema probe runs a Ray Data execution
    # of its own when every block is empty
    sorted_ds = ds.sort(keys, descending=descending).materialize()
    refs = [r for b in sorted_ds.iter_internal_ref_bundles() for r in b.block_refs]
    scanned = [_rs_scan.options(num_returns=2).remote(scan, r) for r in refs]
    summaries = ray.get([s for _, s in scanned])
    live = [s[0] for s in summaries if s is not None]
    carries = iter(stitch(live) if live else ())
    out = [
        _rs_finish.remote(finish, part, next(carries))
        for (part, _), s in zip(scanned, summaries)
        if s is not None
    ]
    if not out:
        out = [_rs_finish.remote(finish, None, None)]
    return ray.data.from_arrow_refs(out)
