"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, names the
``ttpool`` command line that one item runs, and checks each item's
output.  Item ``i`` passes ``--seed`` derived from (workload seed, i), so
the same workload seed gives the same sequence of items.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import ttpool.causality
import ttpool.fusion
import ttpool.kernels
import ttpool.simulate
from ttpool import cli
from ttpool.causality import Method
from ttpool.estimators import mmd2_v
from ttpool.fusion import FusionMode
from ttpool.kernels import Arm

import oracle

PAPER_SHAPE = {"sizes.n": 100, "sizes.m": 50, "sizes.l": 100}
RESAMPLES = {"fusion.num_bootstrap": 1000, "causality.num_resamples": 1000}
#: Replicates replayed through the public functions in a traced campaign run.
REPLAY_REPLICATES = 32
#: Items whose TSV bytes are kept for the worker-count comparison and pool speed-up.
KEEP_TSVS = 4


def call(argv: list[str]) -> tuple[int, float]:
    """One in-process ``ttpool`` command; returns (exit status, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - start


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_table(path: Path) -> tuple[bytes, list[dict]]:
    """A ``write_table`` TSV: raw bytes and one dict per data row."""
    data = path.read_bytes()
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    header = lines[0].split("\t")
    return data, [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


class Workload:
    command: str
    config: dict
    workers = 1
    unit = "replicates"

    def __init__(self, name: str, seed: int, outdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.outdir = outdir
        self.config_path = outdir / "config.json"
        self.out = outdir / "report"

    def prepare(self) -> None:
        """Make the inputs (part of set-up)."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")

    def prepare_checks(self) -> None:
        """Precompute what the checks need (outside set-up and timing)."""

    def item_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def argv(self, i: int, workers: int | None = None, out: Path | None = None) -> list[str]:
        return [
            self.command,
            "--config", str(self.config_path),
            "--out", str(out or self.out),
            "--seed", str(self.item_seed(i)),
            "--workers", str(workers or self.workers),
        ]

    def run(self, i: int, **argv_options) -> tuple[int, float]:
        return call(self.argv(i, **argv_options))

    @property
    def work(self) -> int:
        """Units of work (replicates or analyses) in one item."""
        return int(self.config["replicates"]) * len(self.cells(0))

    def cells(self, i: int) -> list[dict]:
        cfg = cli.load_config(self.command, self.config_path, [])
        cfg["seed"] = self.item_seed(i)
        return cli.expand_sweeps(cfg)

    def check(self, i: int) -> tuple[list[str], dict]:
        """Problems found in item ``i``'s output, and the output record."""
        raise NotImplementedError

    def sample_arms(self) -> tuple:
        """(kernel spec, arms) of the first replicate of the first item."""
        cell = self.cells(0)[0]
        return cli.build_kernel_spec(cell), ttpool.simulate.draw_arms(cli.build_scenario(cell), 0)

    def oracle_problems(self, cell: dict, reps) -> list[str]:
        """Gram entries and mmd2_v of the first replicates' arms against the oracle."""
        scn = cli.build_scenario(cell)
        problems = []
        for rep in reps:
            arms = ttpool.simulate.draw_arms(scn, rep)
            gram = ttpool.kernels.build_gram(scn.ttp.kernel, *arms)
            mmd2_ch = mmd2_v(gram, gram.current, gram.historical).squared
            problems += [
                f"replicate {rep}: {p}"
                for p in oracle.gram_mismatches(gram, mmd2_ch, *(a.points for a in arms))
            ]
        return problems


class Campaign(Workload):
    """``ttpool simulate``; output is a rate table, one row per sweep cell."""

    command = "simulate"

    def __init__(self, name, seed, outdir):
        super().__init__(name, seed, outdir)
        self.tsvs: dict[int, bytes] = {}

    def check(self, i):
        data, rows = read_table(Path(f"{self.out}.tsv"))
        cells = self.cells(i)
        problems = [] if len(rows) == len(cells) else [f"{len(rows)} rows for {len(cells)} cells"]
        rate_cols = [c for c in rows[0] if c == "merge_rate" or c.startswith("reject_rate.")]
        merged = 0
        for row in rows:
            reps = int(row["replicates"])
            merged += round(float(row["merge_rate"]) * reps)
            for col in rate_cols:
                count = float(row[col]) * reps
                if not 0.0 <= float(row[col]) <= 1.0 or abs(count - round(count)) > 1e-9:
                    problems.append(f"{col}={row[col]} is not k/{reps} in [0, 1]")
        # One cell per item keeps the check cheap; successive items cycle through the cells.
        problems += self.oracle_problems(cells[i % len(cells)], reps=(0,))
        record = {
            "sha256": _sha256(data),
            "rates": [[row[c] for c in rate_cols] for row in rows],
            "merged": merged,
        }
        if i < KEEP_TSVS:
            self.tsvs[i] = data
        return problems, record

    def compare_worker_counts(self, items, out: Path) -> tuple[list[float], list[str]]:
        """Re-run items with one worker; each TSV must equal the pooled one byte for byte."""
        durations, problems = [], []
        for i in items:
            rc, dt = self.run(i, workers=1, out=out)
            if rc != 0 or Path(f"{out}.tsv").read_bytes() != self.tsvs.get(i):
                problems.append(f"item {i}: workers=1 TSV differs from workers={self.workers} TSV")
            durations.append(dt)
        return durations, problems

    def replay(self, i: int, tracer) -> tuple[int, int]:
        """Run item ``i``'s replicates through the public functions, under spans.

        Mirrors one campaign replicate: the same ``draw_arms`` inputs and
        per-replicate seed sequences (master seed, replicate, stage).
        Returns (merged, replicates).
        """
        merged = total = 0
        for cell in self.cells(i):
            scn = cli.build_scenario(cell)
            methods = (scn.ttp.merged_method, *scn.compare_methods)
            fuse = (
                ttpool.fusion.equivalence_fusion
                if scn.ttp.fusion.mode is FusionMode.EQUIVALENCE
                else ttpool.fusion.classic_fusion
            )
            for rep in range(scn.replicates):
                with tracer.span("pipeline.replicate"):
                    arms = ttpool.simulate.draw_arms(scn, rep)
                    gram = ttpool.kernels.build_gram(scn.ttp.kernel, *arms)
                    fusion_seed = np.random.SeedSequence([scn.master_seed, rep, 1])
                    causality_seeds = np.random.SeedSequence(
                        [scn.master_seed, rep, 2]
                    ).spawn(len(methods))
                    outcome = fuse(gram, replace(scn.ttp.fusion, seed=fusion_seed))
                    if outcome.merged:
                        for method, seed in zip(methods, causality_seeds):
                            cfg = replace(scn.ttp.causality, method=method, seed=seed)
                            ttpool.causality.run_causality(gram, cfg)
                    else:
                        cfg = replace(
                            scn.ttp.causality,
                            method=Method.STANDARD_PERMUTATION,
                            seed=causality_seeds[0],
                        )
                        ttpool.causality.standard_permutation_test(gram, cfg)
                    ttpool.causality.consistency_diagnostics(gram)
                merged += outcome.merged
                total += 1
        return merged, total


class RateTable(Campaign):
    config = {
        **PAPER_SHAPE,
        **RESAMPLES,
        "fusion.mode": "equivalence",
        "scenario.generator": "mean_shift",
        "scenario.mu_h_minus_mu_c": [0.0, 0.2, 0.4, 0.8],
        "scenario.mu_c_minus_mu_t": [0.0, 0.4],
        "compare_methods": ["partial_permutation", "normal_approx"],
        "replicates": 2,
    }


class ClassicParallel(Campaign):
    config = {
        **PAPER_SHAPE,
        **RESAMPLES,
        "fusion.mode": "classic",
        "scenario.generator": "mean_shift",
        "scenario.mu_h_minus_mu_c": 0.2,
        "replicates": 16,
    }
    workers = 2


class NullStudy(Workload):
    command = "null-study"
    config = {**PAPER_SHAPE, **RESAMPLES, "nullstudy.ref_draws": 20, "replicates": 100}

    def check(self, i):
        data, rows = read_table(Path(f"{self.out}.tsv"))
        cell = self.cells(i)[0]
        expected = 3 * len(cell["nullstudy.probe_levels"])
        problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
        for row in rows:
            if not 0.0 <= float(row["ks_distance"]) <= 1.0:
                problems.append(f"ks_distance {row['ks_distance']} outside [0, 1]")
            for col in ("reference_quantile", "true_quantile"):
                if not math.isfinite(float(row[col])):
                    problems.append(f"{col} {row[col]} is not finite")
        problems += self.oracle_problems(cell, reps=(0, 1))
        cols = ("method", "level", "reference_quantile", "true_quantile", "ks_distance")
        record = {"sha256": _sha256(data), "rows": [[row[c] for c in cols] for row in rows]}
        return problems, record


class LargeAnalysis(Workload):
    """``ttpool test`` on one CSV at the ROADMAP large shape, d = 1."""

    command = "test"
    unit = "analyses"
    sizes = (("current", 500, 0.0), ("historical", 1000, 0.1), ("treatment", 1000, 0.25))

    def __init__(self, name, seed, outdir):
        super().__init__(name, seed, outdir)
        self.data_path = outdir / "data.csv"
        self.config = {**RESAMPLES, "data": str(self.data_path)}

    def prepare(self):
        super().prepare()
        rng = np.random.default_rng(self.seed)
        lines = ["arm,y"]
        for arm, size, shift in self.sizes:
            lines += [f"{arm},{float(v)!r}" for v in shift + rng.standard_normal(size)]
        self.data_path.write_text("\n".join(lines) + "\n")

    def prepare_checks(self):
        arms = {arm: [] for arm, _, _ in self.sizes}
        with self.data_path.open(newline="") as fh:
            for label, value in list(csv.reader(fh))[1:]:
                arms[label].append([float(value)])
        theta = float(cli.load_config("test", self.config_path, [])["fusion.theta"])
        self.expected = oracle.analysis(
            *(np.array(arms[a]) for a in ("current", "historical", "treatment")), theta
        )

    @property
    def work(self):
        return 1

    def sample_arms(self):
        arms = cli.load_dataset(self.data_path)
        return cli.build_kernel_spec(self.cells(0)[0]), tuple(arms[a] for a in Arm)

    def check(self, i):
        data = Path(f"{self.out}.json").read_bytes()
        report = json.loads(data)
        fusion, causality, diag = report["fusion"], report["causality"], report["diagnostics"]
        want = self.expected
        stat_key = "delta" if fusion["merged"] else "nomerge_statistic"
        problems = [
            f"{label} {got!r} != oracle {exp!r}"
            for label, got, exp in (
                ("bandwidth_pooled3", report["bandwidth_pooled3"], want["bandwidth_pooled3"]),
                ("bandwidth_pooled2", report["bandwidth_pooled2"], want["bandwidth_pooled2"]),
                ("d_hat_ch", diag["d_hat_ch"], want["d_hat_ch"]),
                ("d_hat_ct", diag["d_hat_ct"], want["d_hat_ct"]),
                ("fusion statistic", fusion["statistic"], want["fusion_statistic"]),
                ("causality statistic", causality["statistic"], want[stat_key]),
            )
            if not oracle.close(got, exp)
        ]
        if fusion["merged"] is not (fusion["statistic"] > fusion["critical_value"]):
            problems.append("merged != (fusion statistic > critical value)")
        if causality["reject"] is not (causality["statistic"] > causality["critical_value"]):
            problems.append("reject != (causality statistic > critical value)")
        keys = ("statistic", "critical_value")
        record = {
            "sha256": _sha256(data),
            "merged": int(fusion["merged"]),
            "fusion": [fusion[k] for k in keys],
            "causality": [causality[k] for k in keys] + [causality["method"]],
        }
        return problems, record


WORKLOADS = {
    "rate_table": RateTable,
    "large_analysis": LargeAnalysis,
    "classic_parallel": ClassicParallel,
    "null_study": NullStudy,
}
