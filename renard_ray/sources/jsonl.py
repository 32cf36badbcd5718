"""JSONL(.gz) source and sink for the documents corpus.

Gzipped JSON-lines is THE interchange format web-text corpora actually
ship in (Common Crawl derivative dumps, RedPajama/Dolma-style document
sets are all ``*.jsonl.gz`` shards), so an engine that claims to ingest
webtext needs this path next to Parquet and the WARC-like archives
(``renard_ray/sources/warclike.py``).

Both directions are Ray-Data native and file-parallel:

* the sink is ``Dataset.write_json`` with a gzip-compressed output
  stream — one shard per block, written by the task that owns the
  block, no driver funnel;
* the source is ``ray.data.read_json`` with stream decompression —
  the FILE is the unit of parallelism, exactly how ~0.5-1 GB corpus
  shards are consumed on a real cluster, and Arrow's JSON parser does
  the per-shard work off the driver.

Column pruning caveat (documented, inherent to the format): unlike
Parquet, JSONL cannot prune columns or rows at the read — every byte
of a shard is decompressed and parsed before projection.  That is a
property of the format, not of this reader; pipelines that only need
two columns of a wide corpus should convert to Parquet once and read
that (``documents.parquet`` path) — this module exists for the
interchange boundary, not as the steady-state storage layer.
"""

from __future__ import annotations

import ray
from ray.data import Dataset
from ray.data.datasource import FilenameProvider


class _JsonlShardNames(FilenameProvider):
    """``part-<task>-<block>.jsonl.gz`` shard names: the extension
    tells downstream tooling (and humans) the framing AND the codec,
    unlike write_json's default bare ``.json``."""

    def __init__(self, suffix: str) -> None:
        self._suffix = suffix

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"part-{write_uuid}-{task_index:06}-{block_index:06}{self._suffix}"


def write_documents_jsonl(
    ds: Dataset, out_dir: str, *, compression: str | None = "gzip"
) -> None:
    """Write ``ds`` as JSONL shards under ``out_dir`` (gzip by default,
    ``compression=None`` for plain text).  One shard per block — block
    size upstream controls shard size, so a repartition before the
    write is the shard-sizing knob."""
    suffix = ".jsonl.gz" if compression else ".jsonl"
    kwargs = {}
    if compression:
        kwargs["arrow_open_stream_args"] = {"compression": compression}
    ds.write_json(
        out_dir, filename_provider=_JsonlShardNames(suffix), **kwargs
    )


def read_documents_jsonl(
    path: str, *, compression: str | None = "gzip"
) -> Dataset:
    """Distributed JSONL read: one Arrow JSON-parse task per shard,
    stream-decompressed.  Types are inferred by Arrow's JSON reader
    (int64 / double / string / null), which round-trips the documents
    schema exactly."""
    kwargs = {}
    if compression:
        kwargs["arrow_open_stream_args"] = {"compression": compression}
    return ray.data.read_json(
        path, file_extensions=None, **kwargs
    )


def documents_jsonl_roundtrip(sf_dir: str, out_dir: str | None = None) -> Dataset:
    """The ``doc_jsonl_roundtrip`` query: export the documents table as
    gzipped JSONL shards and read them back — proves the interchange
    boundary is lossless (the DuckDB oracle is simply the original
    table, so the value hash pins byte parity of every column)."""
    import hashlib
    import shutil

    if out_dir is None:
        tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
        out_dir = f"/tmp/renard_jsonl_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    # the house documents read (strips the pandas schema-metadata blob
    # at the READ operator — relational.read_table rationale)
    from renard_ray.ops.textstats import _read_documents

    write_documents_jsonl(_read_documents(sf_dir), out_dir)
    return read_documents_jsonl(out_dir)
