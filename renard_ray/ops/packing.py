"""Sequence packing for LLM training data: assign documents to
fixed-size token blocks by position in the global token stream.

The GPT-style "concatenate everything, chunk every ``block_tokens``"
recipe, expressed over the corpus in doc-id order: a document whose
preceding documents total P tokens starts at stream offset P, so it
belongs to block ``P // block_tokens`` at offset ``P % block_tokens``
(long documents straddle into following blocks; the consumer slices).

Deterministic and SQL-checkable — the answer is exactly

    SUM(n_tokens) OVER (ORDER BY doc_id
                        ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)

divided/mod'd by the cap, which makes this the one packing formulation
with an exact DuckDB oracle (greedy bin-packing variants are
partition-order-dependent and can't be oracle-checked).

Scale shape: ``sorted_run_scan`` (``ops/runscan.py``) by doc_id — one
vectorized per-block exclusive prefix sum, an O(#blocks) driver scan
over per-block token totals (the carries), and one finish pass.
Token counts are whitespace tokens, byte-identical to
``token_stats.n_ws_tokens`` and its SQL form.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from .runscan import sorted_run_scan
from .textstats import _WS_RE, _read_documents

_OUT = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("block_id", pa.int64()),
        ("offset_in_block", pa.int64()),
    ]
)


def pack_blocks(sf_dir: str, block_tokens: int = 512) -> Dataset:
    """(doc_id, n_tokens, block_id, offset_in_block) for every
    document, doc-id stream order, blocks of ``block_tokens``."""

    def derive(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = [
            len(_WS_RE.split(t.strip())) if t and t.strip() else 0
            for t in texts
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n, pa.int64()),
            }
        )

    docs = _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        derive, batch_format="pyarrow"
    )

    # per block: exclusive local prefix; summary = the block's token total
    def scan(batch: pa.Table):
        n = np.asarray(batch.column("n_tokens"), dtype=np.int64)
        prev = np.concatenate(([0], np.cumsum(n)[:-1]))
        return (batch, prev), int(n.sum())

    # O(#blocks) driver prefix-scan over the block totals
    def stitch(totals: list[int]) -> list[int]:
        carries = []
        acc = 0
        for t in totals:
            carries.append(acc)
            acc += t
        return carries

    def finish(part, carry) -> pa.Table:
        if part is None:
            return _OUT.empty_table()
        batch, prev = part
        prev = prev + carry
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": batch.column("n_tokens"),
                "block_id": pa.array(prev // block_tokens),
                "offset_in_block": pa.array(prev % block_tokens),
            }
        )

    return sorted_run_scan(docs, "doc_id", scan, stitch, finish)
