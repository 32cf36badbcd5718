"""Benchmark command for the renard_ray engine.

    python3 perfbench/run.py --workload {long_pages,crawl_update,query_mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The command starts its own local
Ray with 2 logical CPUs, makes the workload's inputs from ``--seed``
under a fresh temporary directory, runs the workload's engine set-up
step ``SETUP_ROUNDS`` times (the median CPU seconds reported as
``setup_s``), warms up for ``WARM_SECONDS``, repeats the timed operation
until ``--seconds`` have passed and at least ``MIN_REPETITIONS`` have run
(the interquartile mean of their CPU seconds reported as ``run_cpu_s``),
checks the outputs, removes the temporary directory and prints one JSON
object as its last line of standard output.

``--trace 1`` instead runs the operation once with spans around each
engine layer and prints the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

from procs import alive, cpu_s_since, cpu_ticks, descendants

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# 1 logical CPU stalls the engine's distributed connected components: the
# Ray Data join's hash-shuffle aggregator holds 0.1 CPU, so the 1-CPU map
# task feeding it is never scheduled. 2 stay below a 4-core host.
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SETUP_ROUNDS = 3
# the first timed repetitions after a single warm one still ran up to
# 1.5x slower than the rest; and an interquartile mean of fewer than 4
# drops nothing
WARM_SECONDS = 3
MIN_REPETITIONS = 4

# (phase, seconds), printed to standard error at the end of a run
PHASES: list[tuple[str, float]] = []
_since = time.perf_counter()


def phase_done(name: str) -> None:
    global _since
    now = time.perf_counter()
    PHASES.append((name, now - _since))
    _since = now


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: drops the lowest and the highest quarter
    (at least 0 each) and averages the rest."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k : len(v) - k])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["long_pages", "crawl_update", "query_mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def start_ray(ray_tmp: str) -> None:
    import ray

    # workers import the engine through PYTHONPATH; a sys.path entry in
    # this process (the Ray driver) does not reach them
    pythonpath = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONPATH"] = pythonpath
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
        _temp_dir=ray_tmp,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended;
    Ray's workers outlive the raylet briefly, so they are waited for too."""
    import ray

    procs = descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + 20
    while any(alive(*p) for p in procs.items()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid, start in procs.items():
        if alive(pid, start):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    while any(alive(*p) for p in procs.items()) and time.monotonic() < deadline + 5:
        time.sleep(0.1)


ENGINE_MODULES = (
    "__ray_entry__",
    "renard_ray.oracle.golden",
    "renard_ray.ops.dedup",
    "renard_ray.ops.kmeans",
    "renard_ray.ops.similarity",
    "renard_ray.ops.tradegraph",
    "renard_ray.pipelines.checkpoint",
    "renard_ray.pipelines.preconfigured",
)


def warm_up() -> None:
    """Import the engine in this process, and start both workers and
    import it there, so the first timed repetition pays for neither."""
    import ray

    modules = ENGINE_MODULES

    # nested, so that Ray ships it by value: workers cannot import this file
    def load(batch):
        import importlib

        from renard_ray.resources.hypocorisms import shared_gazetteer

        for m in modules:
            importlib.import_module(m)
        shared_gazetteer("eng")
        return batch

    load(None)
    ray.data.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS * 2).map_batches(load).materialize()


def run(args: argparse.Namespace, tmp: str) -> dict:
    import workloads
    from spans import Tracer

    w = workloads.WORKLOADS[args.workload](args.seed)
    warm_up()
    phase_done("ray start")
    w.inputs(tmp)
    phase_done("inputs")
    setup_times = w.setup_times(SETUP_ROUNDS)
    phase_done("setup")
    w.warm(WARM_SECONDS)
    phase_done("warm")

    attempted = failed = 0
    if args.trace:
        w.reset()
        tracer = Tracer()
        layer = w.layers(tracer)
        for name, secs in tracer.seconds.items():
            layer.setdefault(f"{name}_s", secs)
        attempted, failed = w.counts
        metrics = {
            k: {"value": float(layer.get(k, 0.0)), "unit": unit}
            for k, unit in workloads.PER_LAYER_UNITS.items()
        }
    else:
        walls, cpus = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            w.reset()
            c0 = cpu_ticks()
            t0 = time.perf_counter()
            a, f = w.op()
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_s_since(c0))
            attempted += a
            failed += f
            if time.perf_counter() >= deadline and len(cpus) >= MIN_REPETITIONS:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"perfbench: {len(cpus)} repetitions, CPU s {[round(t, 3) for t in cpus]},"
            f" wall s {[round(t, 3) for t in walls]}",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_cpu_s": {"value": interquartile_mean(cpus), "unit": "s"},
            "driver_peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    phase_done("timed" if not args.trace else "traced")
    correct = w.check()
    phase_done("check")
    print(f"perfbench: setup CPU s {[round(t, 3) for t in setup_times]}", file=sys.stderr)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (os.path.isdir(f"{ROOT}/renard_ray") and os.path.isfile(f"{ROOT}/__ray_entry__.py")):
        print(f"perfbench: no engine sources (renard_ray/, __ray_entry__.py) in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    tmp = tempfile.mkdtemp(prefix="pb")
    try:
        try:
            start_ray(f"{tmp}/r")
            result = run(args, f"{tmp}/w")
        finally:
            stop_ray()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        phase_done("stop")
        print("perfbench: wall s per phase", {k: round(v, 2) for k, v in PHASES}, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
