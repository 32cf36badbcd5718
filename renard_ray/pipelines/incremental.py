"""Incremental KG ingest: merge a new crawl snapshot into an existing
partitioned edge-list graph, rewriting ONLY the buckets the delta
touches.

Semantics (delta ingest + periodic compaction, the shape continuous
web-crawl KG systems run):

* a snapshot's pages run the SAME flagship pipeline
  (``pipelines.kg.build_kg``) to an aggregated triple table — the
  delta;
* the delta merges into the existing graph by
  ``groupby(subj, pred, obj, block_id).sum(weight, polarity)``,
  reading and rewriting only the ``bucket=`` partitions that contain a
  delta subject (partition pruning at the file listing — untouched
  buckets are never opened, let alone rewritten);
* canonicalization is snapshot-local: each snapshot's alias
  unification sees that snapshot's corpus.  Cross-snapshot alias
  drift ("Liz" in snapshot 1 vs "Elizabeth Bennet" in snapshot 2
  surfacing as two nodes) is NOT resolved incrementally — a periodic
  full rebuild over the union corpus (``build_kg`` + ``write_graph``)
  is the compaction that restores the global optimum.  This is the
  documented trade: O(delta) work per snapshot vs a research-grade
  incremental union-find.

Crash safety (two-phase swap, resumable like ``pipelines.checkpoint``):
merged buckets are staged under ``_staging_<token>/``, an intent row
is appended to ``_ingest_log.jsonl``, then each staged bucket swaps in
(remove old dir, rename staged dir — idempotent: a bucket whose staged
dir is gone was already swapped), and a commit row seals the snapshot.
A killed run re-drives ``finish_pending`` from the intent row without
recomputing the merge; a run killed before the intent row left the
graph untouched (staging is invisible to readers).

At 100 TB scale the delta is small relative to the graph, so pruning
is the difference between an O(graph) and an O(delta) rewrite; the
merge itself is one groupby shuffle over (touched old rows + delta).

No counterpart in the reference (single-document, in-memory); the
north rule's "resumable from checkpoint with per-partition lineage"
is the requirement this materializes for the *continuous ingest* case.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow as pa

import ray
from ray.data import Dataset

from renard_ray.pipelines.kg import KGConfig, bucket_of, build_kg

from renard_ray.ops.hashagg import hash_aggregate as _hagg_auto

_LOG = "_ingest_log.jsonl"
TRIPLE_KEYS = ["subj", "pred", "obj", "block_id"]
TRIPLE_VALS = ["weight", "polarity"]


def _add_bucket(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    if "bucket" in batch.column_names:
        batch = batch.drop_columns(["bucket"])
    return batch.append_column("bucket", bucket_of(batch.column("subj"), num_buckets))


def _merge(ds: Dataset) -> Dataset:
    from renard_ray.ops.hashagg import hash_aggregate

    return hash_aggregate(
        ds,
        list(TRIPLE_KEYS),
        [("weight", "sum", "weight"), ("polarity", "sum", "polarity")],
    )


def _log_append(graph_dir: str, row: dict) -> None:
    with open(os.path.join(graph_dir, _LOG), "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


def _log_rows(graph_dir: str) -> list[dict]:
    p = os.path.join(graph_dir, _LOG)
    if not os.path.exists(p):
        return []
    with open(p) as f:
        return [json.loads(line) for line in f if line.strip()]


def finish_pending(graph_dir: str) -> bool:
    """Re-drive any staged-but-uncommitted swap (call before reads or a
    new ingest).  Returns True if a pending snapshot was completed."""
    rows = _log_rows(graph_dir)
    intents = {r["token"]: r for r in rows if r["phase"] == "staged"}
    commits = {r["token"] for r in rows if r["phase"] == "committed"}
    done = False
    for token, intent in intents.items():
        if token in commits:
            # committed — clear any leftover empty staging dir
            shutil.rmtree(
                os.path.join(graph_dir, f"_staging_{token}"), ignore_errors=True
            )
            continue
        _swap(graph_dir, token, intent["buckets"])
        _log_append(graph_dir, {"phase": "committed", "token": token})
        done = True
    return done


def _swap(graph_dir: str, token: str, buckets: list[int]) -> None:
    staging = os.path.join(graph_dir, f"_staging_{token}")
    for b in buckets:
        staged = os.path.join(staging, f"bucket={b}")
        live = os.path.join(graph_dir, f"bucket={b}")
        if not os.path.isdir(staged):
            continue  # this bucket already swapped by a killed run
        shutil.rmtree(live, ignore_errors=True)
        os.replace(staged, live)
    shutil.rmtree(staging, ignore_errors=True)


def ingest_snapshot(
    graph_dir: str,
    pages: Dataset,
    *,
    num_buckets: int = 64,
    cfg: KGConfig | None = None,
    snapshot_id: str | None = None,
) -> dict:
    """Merge one crawl snapshot into the graph at ``graph_dir``.

    Returns the lineage row written to ``_ingest_log.jsonl`` (snapshot
    id, touched buckets, delta/merged row counters)."""
    finish_pending(graph_dir)
    os.makedirs(graph_dir, exist_ok=True)
    token = snapshot_id or f"snap{int(time.time() * 1000):x}"

    delta = (
        build_kg(pages, cfg)
        .map_batches(_add_bucket, fn_kwargs={"num_buckets": num_buckets},
                     batch_format="pyarrow")
        .materialize()
    )
    n_delta = delta.count()
    if n_delta == 0:
        row = {
            "phase": "committed", "token": token, "buckets": [],
            "n_delta": 0, "n_merged": 0, "ts": time.time(),
        }
        _log_append(graph_dir, row)
        return row
    touched = sorted(
        r["bucket"] for r in _hagg_auto(delta, "bucket", [('', 'count_all', 'count()')]).take_all()
    )

    # prune at the listing: only touched bucket dirs are read
    old_paths = _bucket_files(
        graph_dir,
        [b for b in touched if os.path.isdir(os.path.join(graph_dir, f"bucket={b}"))],
    )
    union = delta.select_columns(TRIPLE_KEYS + TRIPLE_VALS)
    if old_paths:
        old = ray.data.read_parquet(old_paths, columns=TRIPLE_KEYS + TRIPLE_VALS)
        union = union.union(old)

    merged = _merge(union).map_batches(
        _add_bucket, fn_kwargs={"num_buckets": num_buckets},
        batch_format="pyarrow",
    )
    staging = os.path.join(graph_dir, f"_staging_{token}")
    shutil.rmtree(staging, ignore_errors=True)
    merged.write_parquet(staging, partition_cols=["bucket"])
    # merged row counter from the staged files' footers (no data re-scan)
    import pyarrow.parquet as pq

    n_merged = 0
    for root, _dirs, files in os.walk(staging):
        for fn in files:
            if fn.endswith(".parquet"):
                n_merged += pq.ParquetFile(os.path.join(root, fn)).metadata.num_rows

    intent = {
        "phase": "staged", "token": token, "buckets": touched,
        "n_delta": n_delta, "n_merged": n_merged, "ts": time.time(),
    }
    _log_append(graph_dir, intent)
    _swap(graph_dir, token, touched)
    _log_append(graph_dir, {"phase": "committed", "token": token})
    return intent


def _bucket_files(graph_dir: str, buckets: list[int]) -> list[str]:
    """Parquet files of the given live buckets (a list of FILE paths —
    Ray's read_parquet path list does not expand directories)."""
    out: list[str] = []
    for b in buckets:
        d = os.path.join(graph_dir, f"bucket={b}")
        out.extend(
            os.path.join(d, fn)
            for fn in sorted(os.listdir(d))
            if fn.endswith(".parquet")
        )
    return out


def read_graph(graph_dir: str) -> Dataset:
    """All live bucket partitions of a graph dir (hive layout)."""
    buckets = sorted(
        int(d.split("=", 1)[1])
        for d in os.listdir(graph_dir)
        if d.startswith("bucket=")
    )
    return ray.data.read_parquet(
        _bucket_files(graph_dir, buckets), columns=TRIPLE_KEYS + TRIPLE_VALS
    )
