"""Kill/resume semantics of the per-shard checkpoint runner."""

from __future__ import annotations

import json
import os
import shutil

from renard_ray.oracle.golden import oracle_triples, triple_precision_recall
from renard_ray.pipelines.checkpoint import run_kg_checkpointed
from renard_ray.pipelines.kg import KGConfig
from renard_ray.sources.pages import generate_pages_table, write_pages_parquet


def _triples_set(ds):
    df = ds.to_pandas()
    return {
        (r.subj, r.pred, r.obj, int(r.block_id), float(r.weight))
        for r in df.itertuples()
    }


def test_checkpoint_run_and_resume(ray_session, tmp_path):
    pages_path = str(tmp_path / "pages")
    ckpt = str(tmp_path / "ckpt")
    write_pages_parquet(pages_path, 60, seed=11, rows_per_file=10)
    cfg = KGConfig()

    triples1, rep1 = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=3)
    got1 = _triples_set(triples1)
    assert rep1["shards_run"] == 3 and rep1["shards_skipped"] == 0

    # parity with the oracle on the same corpus
    want = set(oracle_triples(generate_pages_table(60, seed=11), cfg))
    p, r = triple_precision_recall(sorted(got1), sorted(want))
    assert p == 1.0 and r == 1.0

    # simulate a kill after shard 0+1: drop shard 2's manifest + output
    os.remove(f"{ckpt}/manifest-0002.json")
    shutil.rmtree(f"{ckpt}/stage_rows/shard=2")

    triples2, rep2 = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=3)
    assert rep2["shards_skipped"] == 2 and rep2["shards_run"] == 1
    assert _triples_set(triples2) == got1

    # a config change invalidates all manifests (lineage fingerprint)
    cfg2 = KGConfig()
    cfg2.doc.with_sentiment = True
    _, rep3 = run_kg_checkpointed(pages_path, ckpt, cfg2, n_shards=3)
    assert rep3["shards_run"] == 3

    # manifests carry lineage + counters
    man = json.load(open(f"{ckpt}/manifest-0000.json"))
    assert man["complete"] and man["n_edge_rows"] > 0 and man["input_files"]


def test_checkpoint_input_change_invalidates(ray_session, tmp_path):
    """Adding input files or changing n_shards re-deals the shards; the
    resume must NOT silently reuse stale shard outputs (the skip check
    compares the manifest's input-file list, not just the config)."""
    pages_path = str(tmp_path / "pages")
    ckpt = str(tmp_path / "ckpt")
    write_pages_parquet(pages_path, 40, seed=5, rows_per_file=10)
    cfg = KGConfig()

    _, rep1 = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=2)
    assert rep1["shards_run"] == 2

    # new files land under pages_path -> every shard's file list changes
    import pyarrow.parquet as pq

    from renard_ray.sources.pages import generate_pages_table

    extra = generate_pages_table(10, seed=99)
    pq.write_table(extra, f"{pages_path}/zz-extra.parquet")
    triples2, rep2 = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=2)
    assert rep2["shards_run"] >= 1  # changed shards re-ran
    assert rep2["shards_run"] + rep2["shards_skipped"] == 2

    # full-corpus parity after the resume (new files are included)
    all_pages = pa_concat([generate_pages_table(40, seed=5), extra])
    want = set(oracle_triples(all_pages, cfg))
    got2 = _triples_set(triples2)  # consume BEFORE run3 rewrites shards
    p, r = triple_precision_recall(sorted(got2), sorted(want))
    assert p == 1.0 and r == 1.0

    # shrinking n_shards must not read leftover shard dirs
    triples3, _ = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=1)
    assert _triples_set(triples3) == got2


def pa_concat(tables):
    import pyarrow as pa

    return pa.concat_tables(tables)


def test_granular_checkpoint_midchain_resume(ray_session, tmp_path):
    """Per-STEP resume (reference rerun_from analog): killing a
    mid-chain stage re-runs it and everything after, while the stages
    before it are skipped from their checkpoints."""
    import shutil as sh

    from renard_ray.pipelines.checkpoint import run_kg_checkpointed_granular

    pages_path = str(tmp_path / "pages")
    ckpt = str(tmp_path / "ckpt")
    write_pages_parquet(pages_path, 30, seed=7, rows_per_file=10)
    cfg = KGConfig()

    triples1, rep1 = run_kg_checkpointed_granular(pages_path, ckpt, cfg, n_shards=2)
    got1 = _triples_set(triples1)
    assert all(v["run"] == 2 and v["skipped"] == 0 for v in rep1["stages"].values())
    assert got1  # produced triples

    # parity with the fused path on the same corpus
    from renard_ray.pipelines.kg import build_kg

    import ray

    fused = build_kg(
        ray.data.from_arrow(generate_pages_table(30, seed=7)), cfg
    )
    assert got1 == _triples_set(fused)

    # simulate a kill during 'coref' of shard 1: drop its output+manifest
    os.remove(f"{ckpt}/stages/coref/manifest-0001.json")
    sh.rmtree(f"{ckpt}/stages/coref/shard=1")

    triples2, rep2 = run_kg_checkpointed_granular(pages_path, ckpt, cfg, n_shards=2)
    st = rep2["stages"]
    # stages before the kill point: fully skipped
    assert st["tokenize"]["skipped"] == 2 and st["ner"]["skipped"] == 2
    # the killed stage and everything after: re-run for that shard only
    assert st["coref"]["run"] == 1 and st["coref"]["skipped"] == 1
    assert st["unify"]["run"] == 1 and st["edges"]["run"] == 1
    assert _triples_set(triples2) == got1


def test_incremental_ingest(ray_session, tmp_path):
    """Two-snapshot delta ingest equals the groupby-sum of the two
    snapshots' own triple tables; untouched buckets keep their files
    (inode-level pruning proof); a killed swap resumes from the log."""
    import os

    import pandas as pd
    import ray as _ray

    from renard_ray.pipelines import incremental as inc
    from renard_ray.pipelines.kg import KGConfig, build_kg, read_pages, write_graph
    from renard_ray.sources.pages import write_pages_parquet

    nb = 16
    p1 = str(tmp_path / "pages1")
    p2 = str(tmp_path / "pages2")
    write_pages_parquet(p1, 120, seed=11, rows_per_file=40)
    write_pages_parquet(p2, 60, seed=22, rows_per_file=30)
    g = str(tmp_path / "graph")

    # snapshot 1 bootstraps the graph via the plain sink
    t1 = build_kg(read_pages(p1), KGConfig()).materialize()
    write_graph(t1, g, num_buckets=nb)
    files_before = {}
    for d in os.listdir(g):
        if d.startswith("bucket="):
            for fn in os.listdir(os.path.join(g, d)):
                path = os.path.join(g, d, fn)
                files_before[path] = os.stat(path).st_mtime_ns

    t2 = build_kg(read_pages(p2), KGConfig()).materialize()
    row = inc.ingest_snapshot(g, read_pages(p2), num_buckets=nb, snapshot_id="s2")
    assert row["phase"] in ("staged", "committed") and row["n_delta"] > 0

    # oracle: delta-merge semantics over the two snapshot triple tables
    keys = inc.TRIPLE_KEYS
    both = pd.concat([t1.to_pandas(), t2.to_pandas()])
    want = (
        both.groupby(keys, as_index=False)[["weight", "polarity"]]
        .sum()
        .sort_values(keys)
        .reset_index(drop=True)
    )
    got = (
        inc.read_graph(g)
        .to_pandas()
        .sort_values(keys)
        .reset_index(drop=True)[want.columns]
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # pruning: buckets outside the delta's touched set were not rewritten
    touched = set(row["buckets"])
    untouched_files = [
        p for p in files_before
        if int(p.split("bucket=")[1].split("/")[0]) not in touched
    ]
    assert untouched_files, "test needs at least one untouched bucket"
    for p in untouched_files:
        assert os.stat(p).st_mtime_ns == files_before[p], p

    # crash-resume: stage a third snapshot's merge, kill before the swap
    t3_pages = str(tmp_path / "pages3")
    write_pages_parquet(t3_pages, 40, seed=33, rows_per_file=20)
    pre = inc.read_graph(g).to_pandas().sort_values(keys).reset_index(drop=True)
    orig_swap = inc._swap
    try:
        inc._swap = lambda *a, **k: (_ for _ in ()).throw(RuntimeError("killed"))
        try:
            inc.ingest_snapshot(g, read_pages(t3_pages), num_buckets=nb,
                                snapshot_id="s3")
        except RuntimeError:
            pass
    finally:
        inc._swap = orig_swap
    # graph unchanged until commit (staging invisible to readers)
    mid = inc.read_graph(g).to_pandas().sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(mid, pre, check_dtype=False)
    # finish_pending completes the swap from the intent row
    assert inc.finish_pending(g) is True
    t3 = build_kg(read_pages(t3_pages), KGConfig()).to_pandas()
    want3 = (
        pd.concat([pre, t3])
        .groupby(keys, as_index=False)[["weight", "polarity"]]
        .sum()
        .sort_values(keys)
        .reset_index(drop=True)
    )
    got3 = (
        inc.read_graph(g)
        .to_pandas()
        .sort_values(keys)
        .reset_index(drop=True)[want3.columns]
    )
    pd.testing.assert_frame_equal(got3, want3, check_dtype=False)
    # ingest is sealed in the lineage log
    tokens = {(r["token"], r["phase"]) for r in inc._log_rows(g)}
    assert ("s2", "committed") in tokens and ("s3", "committed") in tokens


def _graph_table(path):
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet", partitioning="hive").to_table()


def test_build_and_sink_start_one_execution(ray_session, tmp_path, executions):
    """build_kg then write_graph on an unmaterialized pages dataset runs
    the kernel as the only Ray Data execution; the hive-read graph
    equals the triples, each row under its subject's bucket."""
    import pyarrow as pa

    from renard_ray.pipelines.kg import bucket_of, build_kg, read_pages, write_graph

    pages_path = str(tmp_path / "pages")
    graph = str(tmp_path / "graph")
    write_pages_parquet(pages_path, 60, seed=13, rows_per_file=20)
    with executions() as ex:
        triples = build_kg(read_pages(pages_path), KGConfig())
        write_graph(triples, graph, num_buckets=8)
    assert ex.n == 1

    got = _graph_table(graph)
    cols = ["subj", "pred", "obj", "block_id", "weight", "polarity"]
    want = triples.to_pandas()[cols].sort_values(cols[:4]).reset_index(drop=True)
    assert len(want) > 0
    assert got.select(cols).to_pandas().sort_values(cols[:4]).reset_index(
        drop=True
    ).equals(want)
    assert got.column("bucket").to_pylist() == bucket_of(
        got.column("subj"), 8
    ).to_pylist()
    assert bucket_of(pa.chunked_array([["Elizabeth"]]), 8).type == pa.int32()


def test_checkpoint_update_one_execution_and_manifest_metrics(
    ray_session, tmp_path, executions
):
    """An update that lands 1 new shard of 3 starts exactly one Ray Data
    execution (the new shard's kernel), and every manifest's metrics
    equal the sums of the METRIC rows in its shard's Parquet files."""
    import pyarrow.parquet as pq

    from renard_ray.pipelines.kg import write_graph
    from renard_ray.textproc.document import METRIC

    pages_path = str(tmp_path / "pages")
    ckpt = str(tmp_path / "ckpt")
    write_pages_parquet(pages_path, 90, seed=17, rows_per_file=30)
    landing = str(tmp_path / "part-00002.parquet")
    os.rename(f"{pages_path}/part-00002.parquet", landing)
    cfg = KGConfig()
    _, rep = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=3)
    assert (rep["shards_run"], rep["shards_skipped"]) == (2, 0)

    shutil.move(landing, pages_path)
    with executions() as ex:
        triples, rep = run_kg_checkpointed(pages_path, ckpt, cfg, n_shards=3)
        write_graph(triples, str(tmp_path / "graph"), num_buckets=8)
    assert ex.n == 1
    assert (rep["shards_run"], rep["shards_skipped"]) == (1, 2)
    want = set(oracle_triples(generate_pages_table(90, seed=17), cfg))
    assert _triples_set(triples) == want

    docs = 0.0
    n_pages = 0
    for i in range(3):
        man = json.load(open(f"{ckpt}/manifest-{i:04d}.json"))
        n_pages += man["n_pages"]
        d = f"{ckpt}/stage_rows/shard={i}"
        rows = pa_concat([pq.read_table(f"{d}/{f}") for f in sorted(os.listdir(d))])
        sums: dict = {}
        for name, pred, w in zip(
            rows.column("subj").to_pylist(),
            rows.column("pred").to_pylist(),
            rows.column("weight").to_pylist(),
        ):
            if pred == METRIC:
                sums[name] = sums.get(name, 0.0) + w
        assert set(sums) == {"docs", "truncated", "text_mismatch"}
        assert man["metrics"] == sums
        assert man["n_edge_rows"] == rows.num_rows
        docs += sums["docs"]
    langs = generate_pages_table(90, seed=17).column("lang").to_pylist()
    assert docs == langs.count("eng")
    assert n_pages == 90


def test_non_eng_corpus_gives_empty_graph(ray_session, tmp_path):
    """A corpus with no page in the configured languages builds an empty
    graph, through build_kg + write_graph and through the checkpoint
    runner alike (the kernel emits no block with rows)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from renard_ray.pipelines.kg import build_kg, write_graph

    pages = generate_pages_table(20, seed=3)
    pages = pages.set_column(
        pages.schema.get_field_index("lang"), "lang", pa.array(["fra"] * 20)
    )
    pages_path = str(tmp_path / "pages")
    os.makedirs(pages_path)
    for j in range(2):
        pq.write_table(pages.slice(10 * j, 10), f"{pages_path}/part-{j:05d}.parquet")

    triples = build_kg(ray.data.from_arrow(pages), KGConfig())
    assert triples.count() == 0
    write_graph(triples, str(tmp_path / "g1"), num_buckets=8)
    assert _graph_table(str(tmp_path / "g1")).num_rows == 0

    triples, rep = run_kg_checkpointed(pages_path, str(tmp_path / "ckpt"), KGConfig(), n_shards=2)
    assert rep["shards_run"] == 2 and triples.count() == 0
    # the manifests count the pages read, though the kernel kept none
    for i in range(2):
        man = json.load(open(f"{tmp_path}/ckpt/manifest-{i:04d}.json"))
        assert man["n_pages"] == 10
    write_graph(triples, str(tmp_path / "g2"), num_buckets=8)
    assert _graph_table(str(tmp_path / "g2")).num_rows == 0
