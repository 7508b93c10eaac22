#!/usr/bin/env python3
"""Benchmark of the ttpool command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client calls ``ttpool.cli.main`` in-process, one command
at a time, on inputs made from ``--seed``, until the commands have run
for ``--seconds``.  Each command's output is checked (see
``workloads.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` reports per-layer metrics: half the time runs untraced,
half with spans around ttpool's public functions (``spans.py``); then
campaign replicates are replayed under spans, the Gram build's memory
is measured, and the ROADMAP layer table is measured again.

The package is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
Outputs go to ``perfbench/_out/``.  No thread or BLAS variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path("perfbench") / "_out"
WORKLOAD_NAMES = ("rate_table", "large_analysis", "classic_parallel", "null_study")
#: Reserved for confirming a later claim; never used while tuning the benchmark.
HELD_OUT_SEED = 424242
#: Set-up is measured in this process and in this many fresh processes.
SETUP_PROBES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name: str, seed: int, outdir: Path):
    """Import ttpool, make the inputs and run one warm-up item; returns (workload, seconds)."""
    start = time.perf_counter()
    import ttpool.cli  # noqa: F401  (timed: importing is part of set-up)
    import workloads

    wl = workloads.WORKLOADS[name](name, seed, outdir)
    wl.prepare()
    rc, _ = wl.run(0)
    if rc != 0:
        raise RuntimeError(f"warm-up item exited with status {rc}")
    return wl, time.perf_counter() - start


class Loop:
    """Closed-loop client: items 0, 1, ... until their summed time reaches ``seconds``."""

    def __init__(self, wl, tracer) -> None:
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []

    def run(self, seconds: float, traced: bool = False) -> list[float]:
        durations: list[float] = []
        i = 0
        give_up = time.perf_counter() + 3 * seconds  # items that fail add no time
        while sum(durations) < seconds and time.perf_counter() < give_up:
            dt = self.item(i, traced)
            if dt is not None:
                durations.append(dt)
            i += 1
        return durations

    def item(self, i: int, traced: bool):
        """Run and check item ``i``; returns its seconds, or None if it failed."""
        self.attempted += 1
        self.tracer.item = i
        self.tracer.active = traced
        try:
            with self.tracer.span("cli.main"):
                rc, dt = self.wl.run(i)
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            self.tracer.active = False
        problems = [f"exit status {rc}"] if rc != 0 else []
        if not problems:
            try:
                found, record = self.wl.check(i)
                problems += found
                self.records.append({"item": i, "seconds": dt, **record})
            except Exception as exc:
                traceback.print_exc()
                problems.append(f"check raised {exc!r}")
        if problems:
            self.fail(f"item {i}", problems)
            return None
        return dt

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAILED {self.wl.name} {what}: {p}", file=sys.stderr)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered)
    if k <= 10:
        return ordered[-1], 100.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def machine_reference_ms() -> float:
    """Median time of a fixed NumPy loop that uses no ttpool code.

    Recorded with each run so that a change in the machine's own speed
    between runs can be told apart from a change in the program.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((150, 150)), rng.standard_normal((1000, 150))
    p = np.full(50, 1 / 50)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(5):
            (b @ a).sum()
            rng.multinomial(50, p, size=1000)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def run_record(args) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.__config__.CONFIG),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine_reference_ms": machine_reference_ms(),
    }


def setup_probe(args) -> list[float]:
    """Set-up seconds measured in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb(wl) -> float:
    """High-water RSS of this process plus, for a pool, workers x the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if wl.workers == 1:
        return own
    return own + wl.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, loop, durations, setup_s) -> dict:
    if wl.workers > 1:
        _, problems = wl.compare_worker_counts([0], wl.outdir / "workers1")
        if problems:
            loop.fail("item 0", problems)
    rss = peak_rss_mb(wl)
    setups = [setup_s] + setup_probe(args)
    tail_s, tail_pct = tail(durations)
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"command_ms.tail is the p{tail_pct:.1f} of {len(durations)} commands")
    print(f"error_rate = {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4f}")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "work_per_s": metric(len(durations) * wl.work / sum(durations), "1/s"),
        "command_ms.p50": metric(1e3 * statistics.median(durations), "ms"),
        "command_ms.tail": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ttpool" / "__init__.py").is_file():
        print(f"error: no ttpool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, OUT / f"{args.workload}-probe")
        print(seconds)
        return 0

    wl, setup_s = setup(args.workload, args.seed, OUT / args.workload)
    import spans

    record = run_record(args)
    print("run record: " + json.dumps(record))
    wl.prepare_checks()
    tracer = spans.Tracer()
    loop = Loop(wl, tracer)
    loop.attempted = 1  # the warm-up item

    if args.trace:
        import layers

        values = layers.traced_run(args, wl, loop, tracer)
        metrics = {}
        for declared in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            value, _ = values.get(declared["name"], (None, None))
            if value is None:
                print(f"warning: no value for {declared['name']} on {wl.name}", file=sys.stderr)
                value = 0.0
            metrics[declared["name"]] = metric(value, declared["unit"])
    else:
        metrics = end_to_end(args, wl, loop, loop.run(args.seconds), setup_s)

    for r in loop.records[:1] + loop.records[-1:]:
        print(f"output item {r['item']}: " + json.dumps({k: v for k, v in r.items() if k != "item"}))
    (wl.outdir / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run": record, "outputs": loop.records}, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
