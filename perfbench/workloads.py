"""The three workloads.

Each drives the engine only through its public entry points:
``read_pages``, ``pages_to_stage_rows``, ``relabel_and_aggregate``,
``build_kg`` and ``write_graph`` (``pipelines/kg.py``),
``run_kg_checkpointed`` (``pipelines/checkpoint.py``), the ``textproc``
step functions, and ``__ray_entry__.queries()``.

A workload has six phases:

- ``inputs(dir)``: make the inputs from the seed and write them under
  ``dir``; untimed.
- ``setup_times(n)``: run the engine's set-up step ``n`` times and
  return the CPU seconds of each (``setup_s`` is their median), leaving the
  engine in the state the timed operation starts from.
- ``warm(seconds)``: untimed repetitions after set-up.
- ``reset()`` then ``op()``: one repetition of the timed operation;
  ``reset`` is untimed and puts the state back.
- ``check()``: correctness, outside the timed region.
- ``layers(tracer)``: the traced run's per-layer metrics.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import textwrap
import time

import pyarrow.parquet as pq

import checks
import gen_pages
import gen_tables
from procs import cpu_s_since, cpu_ticks
from spans import ExecutionCounter, Tracer

# one timed round: a relational, a windowed, a document and an iterative
# entry, about 3.5 s on 2 logical CPUs
QUERIES = [
    "q5_nation_revenue",
    "events_funnel",
    "doc_exact_dedup",
    "embedding_kmeans",
]
# run only in the traced run, where one call of each is enough
TRACED_QUERIES = [
    "q1_pricing_summary",
    "q18_large_volume",
    "q21_sole_late_supplier",
    "events_sessionize",
    "events_asof_last_purchase",
    "orders_rank_in_customer",
    "doc_span_dedup",
    "trade_graph_components",
    "trade_graph_max_spanning_forest",
]

TEXTPROC_STEPS = ("tokenize", "ner", "coref", "unify", "edges")
TEXTPROC_SAMPLE = 40

# every per-layer metric, with its unit; a layer a workload does not
# exercise reports 0
PER_LAYER_UNITS = {
    "sources.read_s": "s",
    "stages.kernel_s": "s",
    "stages.rows": "count",
    **{f"textproc.{s}_us": "us" for s in TEXTPROC_STEPS},
    "kg.canon_agg_s": "s",
    "kg.distinct_names": "count",
    "kg.triples": "count",
    "build.docs_per_s": "docs/s",
    "sinks.write_s": "s",
    "sinks.mb": "MB",
    "checkpoint.run_s": "s",
    "checkpoint.shards_run": "count",
    "checkpoint.shards_skipped": "count",
    "checkpoint.mb": "MB",
    "ray.executions": "count",
    "op.wall_s": "s",
    "golden.docs_per_s": "docs/s",
    **{f"query.{q}.s": "s" for q in QUERIES + TRACED_QUERIES},
    **{f"query.{q}.executions": "count" for q in QUERIES + TRACED_QUERIES},
}


def cold_starts(code: str, n: int) -> list[float]:
    """CPU seconds that ``code``, which starts the engine, takes in each
    of ``n`` fresh processes, as a fresh Ray worker runs it before its
    first batch. A helper process imports Ray Data, pyarrow and pandas, the
    engine's dependencies, untimed, then forks one child per sample. Its
    only other thread then is pyarrow's jemalloc background thread,
    which jemalloc's own fork handlers make safe to fork over."""
    prog = f"""
import os, sys, time, ray.data, pyarrow, pandas
for _ in range({n}):
    pid = os.fork()
    if pid == 0:
        t0 = time.process_time()
{textwrap.indent(code, " " * 8)}
        print(time.process_time() - t0, flush=True)
        os._exit(0)
    if os.waitpid(pid, 0)[1]:
        sys.exit(1)
"""
    done = subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True, timeout=120, check=True
    )
    return [float(x) for x in done.stdout.split()]


def dir_mb(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 1e6


def write_files(table, out_dir: str, n_files: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    paths = []
    for i in range(n_files):
        paths.append(f"{out_dir}/part-{i:05d}.parquet")
        pq.write_table(table.slice(i * per, per), paths[-1])
    return paths


def textproc_layers(corpus: gen_pages.Corpus, cfg, seed: int) -> dict[str, float]:
    """Per-doc cost of each kernel step, single-process, on a seeded sample
    of the workload's pages; and the golden oracle's docs/s on the same
    sample, the single-threaded baseline."""
    from renard_ray.oracle.golden import oracle_triples
    from renard_ray.textproc.coref import resolve_corefs
    from renard_ray.textproc.document import build_edge_blocks
    from renard_ray.textproc.ner import extract_entities
    from renard_ray.textproc.tokenize import tokenize
    from renard_ray.textproc.unify import graph_rules_unify

    doc = cfg.doc
    rows = sorted(random.Random(seed).sample(range(corpus.table.num_rows), TEXTPROC_SAMPLE))
    sample = corpus.table.take(rows)
    spent = dict.fromkeys(TEXTPROC_STEPS, 0.0)
    clock = time.perf_counter
    for text in sample.column("text").to_pylist():
        t0 = clock()
        tok = tokenize(text)
        tokens = tok.tokens(text)
        t1 = clock()
        entities = extract_entities(tokens, tok.sent_bounds, "eng")
        t2 = clock()
        corefs = resolve_corefs(tokens, entities, "eng", character_tag=doc.character_tag)
        t3 = clock()
        characters = graph_rules_unify(
            tokens, entities, corefs, lang="eng",
            min_appearances=doc.min_appearances, character_tag=doc.character_tag,
        )
        t4 = clock()
        build_edge_blocks(text, tok, tokens, characters, doc)
        t5 = clock()
        for step, dt in zip(TEXTPROC_STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            spent[step] += dt
    out = {f"textproc.{s}_us": spent[s] / TEXTPROC_SAMPLE * 1e6 for s in TEXTPROC_STEPS}
    t0 = clock()
    oracle_triples(sample, cfg)
    out["golden.docs_per_s"] = TEXTPROC_SAMPLE / (clock() - t0)
    return out


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, d: str) -> None:
        raise NotImplementedError

    def setup_times(self, n: int) -> list[float]:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    def warm(self, seconds: float) -> None:
        """Untimed repetitions until ``seconds`` have passed, at least one:
        the first repetitions in a session run slower, paying one-time
        costs that a long-running pipeline pays once."""
        deadline = time.perf_counter() + seconds
        while True:
            self.reset()
            self.op()
            if time.perf_counter() >= deadline:
                return

    def op(self) -> tuple[int, int]:
        """One repetition; returns (operations attempted, operations failed)."""
        raise NotImplementedError

    def check(self) -> bool:
        raise NotImplementedError

    def layers(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics; sets ``self.counts`` from its one ``op()``."""
        raise NotImplementedError

    def _pages_ok(self, corpus: gen_pages.Corpus) -> bool:
        from renard_ray.textproc.html import extract_text

        t = corpus.table
        bad = sum(
            extract_text(h) != x
            for h, x in zip(t.column("html").to_pylist(), t.column("text").to_pylist())
        )
        return bad == 0 or checks.fail(f"{bad} pages whose html does not extract to their text")


class LongPages(Workload):
    """Several-KB pages, ``full`` preset, ``build_kg`` then ``write_graph``."""

    N_PAGES = 160
    N_FILES = 8

    def inputs(self, d: str) -> None:
        from renard_ray.pipelines.preconfigured import full_config

        self.cfg = full_config()
        self.corpus = gen_pages.long_pages(self.seed, self.N_PAGES)
        self.pages_dir = f"{d}/pages"
        self.graph_dir = f"{d}/graph"
        write_files(self.corpus.table, self.pages_dir, self.N_FILES)

    def setup_times(self, n: int) -> list[float]:
        # the engine's set-up for a build: import the kernel, make the
        # preset and load the gazetteer
        return cold_starts(
            "import renard_ray.pipelines.kg\n"
            "from renard_ray.pipelines.preconfigured import full_config\n"
            "from renard_ray.resources.hypocorisms import shared_gazetteer\n"
            "full_config()\n"
            "shared_gazetteer('eng')",
            n,
        )

    def op(self) -> tuple[int, int]:
        from renard_ray.pipelines.kg import build_kg, read_pages, write_graph

        write_graph(build_kg(read_pages(self.pages_dir), self.cfg), self.graph_dir)
        return 1, 0

    def check(self) -> bool:
        from renard_ray.oracle.golden import oracle_triples

        graph = checks.read_graph(self.graph_dir)
        return (
            self._pages_ok(self.corpus)
            and checks.matches_oracle(graph, oracle_triples(self.corpus.table, self.cfg))
            and checks.placement_properties(graph, self.corpus)
        )

    def layers(self, tracer: Tracer) -> dict[str, float]:
        from renard_ray.pipelines.kg import (
            pages_to_stage_rows,
            read_pages,
            relabel_and_aggregate,
            write_graph,
        )

        out: dict[str, float] = {}
        with ExecutionCounter() as ex, tracer.span("op"):
            self.counts = self.op()
        out["ray.executions"] = ex.count
        out["build.docs_per_s"] = self.N_PAGES / tracer.seconds["op"]
        out["op.wall_s"] = tracer.seconds["op"]
        with tracer.span("sources.read"):
            pages = read_pages(self.pages_dir).materialize()
        with tracer.span("stages.kernel"):
            rows = pages_to_stage_rows(pages, self.cfg).materialize()
        out["stages.rows"] = rows.count()
        with tracer.span("kg.canon_agg"):
            triples = relabel_and_aggregate(rows, self.cfg).materialize()
        with tracer.span("sinks.write"):
            write_graph(triples, self.graph_dir)
        graph = checks.read_graph(self.graph_dir)
        out["kg.triples"] = graph.num_rows
        out["kg.distinct_names"] = len(
            set(graph.column("subj").to_pylist()) | set(graph.column("obj").to_pylist())
        )
        out["sinks.mb"] = dir_mb(self.graph_dir)
        out.update(textproc_layers(self.corpus, self.cfg, self.seed))
        return out


class CrawlUpdate(Workload):
    """Short Zipf-named web pages, ``co_occurrence`` preset. Set-up crawls
    every file but the last through ``run_kg_checkpointed``; a repetition
    lands the last file, reruns it and writes the graph."""

    N_PAGES = 2_400
    N_FILES = 3
    N_CHARACTERS = 7_200

    def inputs(self, d: str) -> None:
        from renard_ray.pipelines.preconfigured import co_occurrence_config

        self.cfg = co_occurrence_config()
        self.corpus = gen_pages.web_pages(self.seed, self.N_PAGES, self.N_CHARACTERS)
        self.pages_dir = f"{d}/pages"
        self.ckpt_dir = f"{d}/ckpt"
        self.graph_dir = f"{d}/graph"
        files = write_files(self.corpus.table, f"{d}/landing", self.N_FILES)
        os.makedirs(self.pages_dir)
        for f in files[:-1]:
            os.rename(f, f"{self.pages_dir}/{os.path.basename(f)}")
        self.landing = files[-1]
        self.reports: list[dict] = []

    def setup_times(self, n: int) -> list[float]:
        from renard_ray.pipelines.checkpoint import run_kg_checkpointed

        times = []
        for _ in range(n):
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)
            c0 = cpu_ticks()
            run_kg_checkpointed(self.pages_dir, self.ckpt_dir, self.cfg, n_shards=self.N_FILES)
            times.append(cpu_s_since(c0))
        # the crawled state each repetition starts from, restored as a
        # whole so the reset does not depend on the checkpoint's layout
        shutil.copytree(self.ckpt_dir, f"{self.ckpt_dir}.crawled")
        return times

    def reset(self) -> None:
        landed = f"{self.pages_dir}/{os.path.basename(self.landing)}"
        if os.path.exists(landed):
            os.remove(landed)
        shutil.rmtree(self.ckpt_dir)
        shutil.copytree(f"{self.ckpt_dir}.crawled", self.ckpt_dir)

    def op(self) -> tuple[int, int]:
        from renard_ray.pipelines.checkpoint import run_kg_checkpointed
        from renard_ray.pipelines.kg import write_graph

        shutil.copy(self.landing, self.pages_dir)
        triples, report = run_kg_checkpointed(
            self.pages_dir, self.ckpt_dir, self.cfg, n_shards=self.N_FILES
        )
        write_graph(triples, self.graph_dir)
        self.reports.append(report)
        return 1, 0

    def check(self) -> bool:
        from renard_ray.oracle.golden import oracle_triples

        for r in self.reports:
            if (r["shards_run"], r["shards_skipped"]) != (1, self.N_FILES - 1):
                return checks.fail(f"update ran {r['shards_run']} shards, skipped {r['shards_skipped']}")
        graph = checks.read_graph(self.graph_dir)
        return (
            self._pages_ok(self.corpus)
            and checks.matches_oracle(graph, oracle_triples(self.corpus.table, self.cfg))
            and checks.placement_properties(graph, self.corpus)
        )

    def layers(self, tracer: Tracer) -> dict[str, float]:
        from renard_ray.pipelines.checkpoint import run_kg_checkpointed
        from renard_ray.pipelines.kg import (
            pages_to_stage_rows,
            read_pages,
            relabel_and_aggregate,
            write_graph,
        )

        out: dict[str, float] = {}
        with ExecutionCounter() as ex, tracer.span("op"):
            self.counts = self.op()
        out["ray.executions"] = ex.count
        out["build.docs_per_s"] = self.N_PAGES / self.N_FILES / tracer.seconds["op"]
        out["op.wall_s"] = tracer.seconds["op"]
        self.reset()
        shutil.copy(self.landing, self.pages_dir)
        with tracer.span("checkpoint.run"):
            triples, report = run_kg_checkpointed(
                self.pages_dir, self.ckpt_dir, self.cfg, n_shards=self.N_FILES
            )
        self.reports.append(report)
        out["checkpoint.shards_run"] = report["shards_run"]
        out["checkpoint.shards_skipped"] = report["shards_skipped"]
        out["checkpoint.mb"] = dir_mb(self.ckpt_dir)
        triples = triples.materialize()
        with tracer.span("sinks.write"):
            write_graph(triples, self.graph_dir)
        graph = checks.read_graph(self.graph_dir)
        out["kg.triples"] = graph.num_rows
        out["kg.distinct_names"] = len(
            set(graph.column("subj").to_pylist()) | set(graph.column("obj").to_pylist())
        )
        out["sinks.mb"] = dir_mb(self.graph_dir)
        with tracer.span("sources.read"):
            pages = read_pages(self.pages_dir).materialize()
        # run_kg_checkpointed canonicalizes inside its call; time the same
        # relabel and aggregate alone, on the whole corpus's stage rows
        rows = pages_to_stage_rows(pages, self.cfg).materialize()
        with tracer.span("kg.canon_agg"):
            relabel_and_aggregate(rows, self.cfg).materialize()
        landed = read_pages(self.landing).materialize()
        with tracer.span("stages.kernel"):
            rows = pages_to_stage_rows(landed, self.cfg).materialize()
        out["stages.rows"] = rows.count()
        out.update(textproc_layers(self.corpus, self.cfg, self.seed))
        return out


class QueryMix(Workload):
    """A round of the ``QUERIES`` entries, run cold, each consumed to
    pandas; the traced run adds ``TRACED_QUERIES``."""

    def inputs(self, d: str) -> None:
        self.table_dir = f"{d}/tables"
        gen_tables.write_tables(gen_tables.make_tables(self.seed), self.table_dir)
        self.results: dict = {}

    def setup_times(self, n: int) -> list[float]:
        # the engine's set-up for the queries: import the entry module
        # and build its query table
        return cold_starts("import __ray_entry__\n__ray_entry__.queries()", n)

    def reset(self) -> None:
        import __ray_entry__ as entry
        from renard_ray.ops.tradegraph import trade_edges_memo_clear

        entry.kg_triples_memo_clear()
        trade_edges_memo_clear()

    def _query(self, fns: dict, name: str) -> int:
        """Runs one entry into ``self.results``; returns 1 if it raised."""
        try:
            self.results[name] = checks.to_pandas(fns[name](self.table_dir))
            return 0
        except Exception as e:  # noqa: BLE001 - counted, reported, run continues
            checks.fail(f"{name} raised {type(e).__name__}: {e}")
            self.results[name] = None
            return 1

    def op(self) -> tuple[int, int]:
        import __ray_entry__ as entry

        fns = entry.queries()
        return len(QUERIES), sum(self._query(fns, q) for q in QUERIES)

    def check(self) -> bool:
        import __ray_entry__ as entry

        sql = entry.oracle_sql()
        ran = [q for q, r in self.results.items() if r is not None]
        twins = checks.duckdb_twins(self.table_dir, gen_tables.TABLES, {q: sql[q] for q in ran})
        return all([checks.twin_matches(q, self.results[q], twins[q]) for q in ran])

    def layers(self, tracer: Tracer) -> dict[str, float]:
        import __ray_entry__ as entry

        fns = entry.queries()
        out: dict[str, float] = {"ray.executions": 0}
        failed = 0
        for q in QUERIES + TRACED_QUERIES:
            with ExecutionCounter() as ex:
                t0 = time.perf_counter()
                failed += self._query(fns, q)
                out[f"query.{q}.s"] = time.perf_counter() - t0
            out[f"query.{q}.executions"] = ex.count
            out["ray.executions"] += ex.count
        out["op.wall_s"] = sum(out[f"query.{q}.s"] for q in QUERIES)
        self.counts = (len(QUERIES + TRACED_QUERIES), failed)
        return out


WORKLOADS = {"long_pages": LongPages, "crawl_update": CrawlUpdate, "query_mix": QueryMix}
