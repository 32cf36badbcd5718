"""Per-partition checkpointing with lineage + counters, and resume.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics — a killed ``ray job submit`` run resumes without
recompute."  The reference's only incremental facility is the in-memory
``Pipeline.rerun_from`` (``renard/pipeline/core.py:737-780``); this is
its distributed replacement.

Design
------
The pages input is split into ``n_shards`` deterministic shards (hash
of url ranges is not needed — the input file list is the natural
lineage unit).  Each shard runs the doc-kernel stage independently —
one Ray Data execution, materialized — then one Ray task per
materialized block writes it as ``part-<j>.parquet`` under
``<ckpt>/stage_rows/shard=<i>/`` and returns its row count and summed
``METRIC`` rows, from which the driver builds ``manifest-<i>.json``:
lineage (input files, ``n_pages`` — the rows of those files, read from
their Parquet footers — row counts, config fingerprint, wall time) plus
the shard's counters (docs, truncated, text_mismatch).  The counters
come from the kernel, which only sees pages in ``cfg.langs``:
``metrics.docs`` counts those pages, and a shard with none of them
records ``metrics: {}``; ``n_pages`` counts every page read.  A resumed
run skips every shard whose manifest matches the current config
fingerprint, then the (cheap, global) canonicalization + aggregation
re-runs over all shard outputs, read by one task per file — no further
Ray Data execution on the driver canonicalization path.

This makes the expensive stage (NLP kernel over raw text — >95% of
compute) resumable at shard granularity while keeping the cheap wide
ops always-fresh.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
from ray.data import Dataset

from renard_ray.pipelines.kg import KGConfig, pages_to_stage_rows, relabel_and_aggregate
from renard_ray.textproc.document import METRIC


def _config_fingerprint(cfg: KGConfig) -> str:
    blob = json.dumps(
        {"doc": asdict(cfg.doc), "langs": list(cfg.langs)}, sort_keys=True, default=str
    )
    return hashlib.md5(blob.encode()).hexdigest()


def _shard_files(input_files: list[str], n_shards: int) -> list[list[str]]:
    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for i, f in enumerate(sorted(input_files)):
        shards[i % n_shards].append(f)
    return [s for s in shards if s]


def run_kg_checkpointed(
    pages_path: str,
    ckpt_dir: str,
    cfg: KGConfig | None = None,
    n_shards: int = 8,
) -> tuple[Dataset, dict]:
    """Run (or resume) the KG pipeline with per-shard checkpoints.

    Returns (triples Dataset, run report).  Call again after a kill:
    finished shards are skipped via their manifests.
    """
    cfg = cfg or KGConfig()
    fp = _config_fingerprint(cfg)
    os.makedirs(f"{ckpt_dir}/stage_rows", exist_ok=True)

    files = [
        f"{pages_path}/{f}"
        for f in os.listdir(pages_path)
        if f.endswith(".parquet")
    ]
    shards = _shard_files(files, n_shards)

    report = {"shards_total": len(shards), "shards_skipped": 0, "shards_run": 0}
    for i, shard_files in enumerate(shards):
        man_path = f"{ckpt_dir}/manifest-{i:04d}.json"
        out_dir = f"{ckpt_dir}/stage_rows/shard={i}"
        if os.path.exists(man_path):
            man = json.load(open(man_path))
            # a shard is only reusable if the SAME input files went into
            # it — files added/removed under pages_path (or a changed
            # n_shards) re-deal the shards, and a stale manifest would
            # silently drop the new files
            if (
                man.get("config_fp") == fp
                and man.get("complete")
                and sorted(man.get("input_files", [])) == sorted(shard_files)
            ):
                report["shards_skipped"] += 1
                continue
        t0 = time.time()
        # clear partial outputs from a killed attempt, then write
        os.makedirs(out_dir, exist_ok=True)
        for old in os.listdir(out_dir):
            os.remove(f"{out_dir}/{old}")
        rows = pages_to_stage_rows(ray.data.read_parquet(shard_files), cfg).materialize()
        written = ray.get(
            [
                _write_shard_block.remote(r, f"{out_dir}/part-{j:05d}.parquet")
                for j, r in enumerate(rows.to_arrow_refs())
            ]
        )
        metrics: dict[str, float] = {}
        for _, block_metrics in written:
            for name, val in block_metrics.items():
                metrics[name] = metrics.get(name, 0.0) + val
        manifest = {
            "shard": i,
            "config_fp": fp,
            "input_files": shard_files,
            "n_pages": sum(pq.ParquetFile(f).metadata.num_rows for f in shard_files),
            "n_edge_rows": sum(n for n, _ in written),
            "metrics": metrics,
            "wall_sec": round(time.time() - t0, 3),
            "complete": True,
        }
        # atomic manifest write: the shard only counts as done once the
        # manifest is fully on disk
        tmp = man_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, man_path)
        report["shards_run"] += 1

    # read ONLY this run's shard dirs: leftover shard=<i> dirs beyond
    # the current shard count (e.g. after lowering n_shards) must not
    # leak stale rows into the aggregate
    out_files: list[str] = []
    for i in range(len(shards)):
        d = f"{ckpt_dir}/stage_rows/shard={i}"
        if os.path.isdir(d):
            out_files += _dir_parquet_files(d)
    triples = relabel_and_aggregate(_read_stage_rows(out_files), cfg)
    return triples, report


@ray.remote
def _write_shard_block(block: pa.Table, path: str) -> tuple[int, dict[str, float]]:
    """One stage-row block -> one Parquet file at ``path``; returns its
    row count and the sums of its ``METRIC`` rows (name -> value), the
    shard manifest's counters.  A block without rows writes nothing."""
    if not block.num_rows:
        return 0, {}
    pq.write_table(block, path)
    sums = (
        block.filter(pc.equal(block.column("pred"), METRIC))
        .group_by(["subj"])
        .aggregate([("weight", "sum")])
    )
    return block.num_rows, dict(
        zip(sums.column("subj").to_pylist(), sums.column("weight_sum").to_pylist())
    )


@ray.remote
def _read_stage_file(path: str) -> pa.Table:
    return pq.read_table(path)


def _read_stage_rows(files: list[str]) -> Dataset:
    """Checkpointed stage rows as a Dataset over one read task per file
    (no Ray Data execution)."""
    return ray.data.from_arrow_refs([_read_stage_file.remote(f) for f in files])


def _dir_parquet_files(d: str) -> list[str]:
    return [f"{d}/{f}" for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def run_kg_checkpointed_granular(
    pages_path: str,
    ckpt_dir: str,
    cfg: KGConfig | None = None,
    n_shards: int = 4,
) -> tuple[Dataset, dict]:
    """Per-STEP checkpointing through the granular stage chain — the
    distributed analog of the reference's ``Pipeline.rerun_from``
    (``renard/pipeline/core.py:737-780``), which can resume from any
    pipeline step, not just the fused-kernel boundary.

    Every (stage, shard) writes its typed-Arrow intermediate columns to
    ``<ckpt>/stages/<stage>/shard=<i>/`` plus a manifest carrying the
    config fingerprint, the input-file lineage, and an ``upstream_token``
    that chains to the producing stage's run token — so re-running any
    stage (or changing its input) cascades invalidation to every later
    stage, while untouched prefixes are skipped wholesale.

    Returns (triples Dataset, report with per-stage run/skip counts).
    """
    import uuid

    from renard_ray.stages.granular import granular_stages

    cfg = cfg or KGConfig()
    stages = granular_stages(cfg.doc)  # every DocConfig knob honored
    fp = _config_fingerprint(cfg)
    files = [
        f"{pages_path}/{f}" for f in os.listdir(pages_path) if f.endswith(".parquet")
    ]
    shards = _shard_files(files, n_shards)
    stage_names = [s.name for s in stages]
    report: dict = {
        "shards_total": len(shards),
        "stages": {n: {"run": 0, "skipped": 0} for n in stage_names},
    }

    edge_files: list[str] = []
    for i, shard_files in enumerate(shards):
        upstream_token = hashlib.md5(
            json.dumps(sorted(shard_files)).encode()
        ).hexdigest()
        prev_out: list[str] | None = None
        for stage in stages:
            sdir = f"{ckpt_dir}/stages/{stage.name}"
            out_dir = f"{sdir}/shard={i}"
            man_path = f"{sdir}/manifest-{i:04d}.json"
            man = json.load(open(man_path)) if os.path.exists(man_path) else {}
            if (
                man.get("complete")
                and man.get("config_fp") == fp
                and man.get("upstream_token") == upstream_token
                and os.path.isdir(out_dir)
            ):
                report["stages"][stage.name]["skipped"] += 1
                upstream_token = man["token"]
                prev_out = _dir_parquet_files(out_dir)
                continue
            t0 = time.time()
            if prev_out is None:
                langs = list(cfg.langs)
                ds = ray.data.read_parquet(shard_files).filter(
                    expr=f"lang in {langs!r}"
                )
            else:
                ds = ray.data.read_parquet(prev_out)
            out = stage.apply(ds)  # honors per-stage batch/actor knobs
            # invalidate BEFORE touching out_dir: a crash between the
            # rewrite below and the manifest replace must re-run this
            # stage on resume, never skip on the stale 'complete'
            # manifest + now-partial out_dir
            if os.path.exists(man_path):
                os.remove(man_path)
            os.makedirs(out_dir, exist_ok=True)
            for old in os.listdir(out_dir):
                os.remove(f"{out_dir}/{old}")
            out.write_parquet(out_dir)
            token = uuid.uuid4().hex
            manifest = {
                "stage": stage.name,
                "shard": i,
                "config_fp": fp,
                "input_files": shard_files,
                "upstream_token": upstream_token,
                "token": token,
                "wall_sec": round(time.time() - t0, 3),
                "complete": True,
            }
            tmp = man_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(manifest, f)
            os.replace(tmp, man_path)
            report["stages"][stage.name]["run"] += 1
            upstream_token = token
            prev_out = _dir_parquet_files(out_dir)
        edge_files += prev_out or []

    triples = relabel_and_aggregate(_read_stage_rows(edge_files), cfg)
    return triples, report
