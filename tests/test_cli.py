"""CLI surface: config handling, dataset ingestion, exit codes, round-trips."""

import itertools
import json
import logging
import os
import platform
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ttpool import blas, cli, simulate
from ttpool.causality import CausalityOutcome, DiagnosticsReport
from ttpool.cli import (
    _KEYS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_STATISTICAL,
    build_ttp_config,
    expand_sweeps,
    load_config,
    load_dataset,
    main,
)
from ttpool.errors import ConfigError, DataError, DegenerateSample
from ttpool.fusion import FusionOutcome
from ttpool.kernels import Arm
from ttpool.pipeline import run_report

SRC = Path(__file__).resolve().parent.parent / "src"


def write_csv(path, current, historical, treatment, header=False):
    lines = ["arm,v1"] if header else []
    for label, values in (
        ("current", current),
        ("historical", historical),
        ("treatment", treatment),
    ):
        lines += [f"{label},{v}" for v in values]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "arms.csv"
    write_csv(
        path,
        rng.normal(size=12).round(4),
        rng.normal(size=14).round(4),
        rng.normal(size=16).round(4),
        header=True,
    )
    return path


FAST = [
    "--set", "fusion.num_bootstrap=80",
    "--set", "causality.num_resamples=80",
]

#: The key columns every campaign TSV starts with, swept or not.
KEY_COLUMNS = [
    "kernel.bandwidth",
    "fusion.theta",
    "fusion.mode",
    "scenario.mu_c_minus_mu_t",
    "scenario.mu_h_minus_mu_c",
    "scenario.var_c_over_var_t",
    "scenario.var_h_over_var_c",
    "sizes.n",
]

SMALL_CAMPAIGN = [
    "--set", "replicates=2", "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
]


class TestConfigLoading:
    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"fusion.thata": 0.4}))
        with pytest.raises(ConfigError):
            load_config("test", cfg, [])

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config("test", cfg, [])

    def test_set_overrides_apply_after_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"fusion.theta": 0.2}))
        merged = load_config("test", cfg, ["fusion.theta=0.9"])
        assert merged["fusion.theta"] == 0.9

    def test_set_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            load_config("test", None, ["does.not.exist=1"])

    def test_defaults_materialized(self):
        cfg = load_config("simulate", None, [])
        assert cfg["kernel.family"] == "rbf"
        assert cfg["sizes.m"] == 50

    def test_comma_list_becomes_sweep(self):
        cfg = load_config("simulate", None, ["fusion.theta=0.2,0.4,0.6"])
        assert cfg["fusion.theta"] == [0.2, 0.4, 0.6]

    def test_bandwidth_sweep_mixes_median_and_fixed(self):
        cfg = load_config("simulate", None, ["kernel.bandwidth=median,0.5,1.5"])
        assert cfg["kernel.bandwidth"] == ["median", 0.5, 1.5]

    def test_config_file_comma_string_means_what_set_means(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"scenario.mu_c_minus_mu_t": "0,0.4", "sizes.n": "20,40"})
        )
        from_file = load_config("simulate", cfg, [])
        from_set = load_config(
            "simulate", None, ["scenario.mu_c_minus_mu_t=0,0.4", "sizes.n=20,40"]
        )
        assert from_file["scenario.mu_c_minus_mu_t"] == [0.0, 0.4]
        assert from_file["sizes.n"] == [20, 40]
        assert from_file == from_set

    def test_config_file_list_strings_mean_what_set_means(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "fusion.theta": ["0.2", 0.6],
                    "kernel.bandwidth": ["median", "0.5"],
                    "compare_methods": ["partial_permutation"],
                }
            )
        )
        from_file = load_config("simulate", cfg, [])
        from_set = load_config(
            "simulate",
            None,
            [
                "fusion.theta=0.2,0.6",
                "kernel.bandwidth=median,0.5",
                "compare_methods=partial_permutation",
            ],
        )
        assert from_file["fusion.theta"] == [0.2, 0.6]
        assert from_file == from_set


    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for key, entry in _KEYS.items() for command in entry.commands],
    )
    def test_default_round_trips(self, tmp_path, command, key):
        # Written into a config file and given as --set text, a default loads
        # as itself, of its own type.  No --set text stands for None.
        default = _KEYS[key].default

        def typed(value):
            items = value if isinstance(value, list) else [value]
            return value, type(value), [type(item) for item in items]

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: default}))
        assert typed(load_config(command, cfg, [])[key]) == typed(default)
        if default is not None:
            text = ",".join(map(str, default)) if isinstance(default, list) else str(default)
            assert typed(load_config(command, None, [f"{key}={text}"])[key]) == typed(default)

    def test_config_file_null_only_where_the_default_is_null(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nullstudy.probe_mu_c_minus_mu_t": None}))
        assert load_config("null-study", cfg, [])["nullstudy.probe_mu_c_minus_mu_t"] is None
        cfg.write_text(json.dumps({"sizes.m": None}))
        with pytest.raises(ConfigError, match="sizes.m"):
            load_config("null-study", cfg, [])


class TestSweepExpansion:
    def test_cartesian_product(self):
        cfg = load_config(
            "simulate",
            None,
            ["fusion.theta=0.2,0.4", "scenario.mu_h_minus_mu_c=0,0.3,0.6"],
        )
        cells = expand_sweeps(cfg)
        assert len(cells) == 6
        combos = {(c["fusion.theta"], c["scenario.mu_h_minus_mu_c"]) for c in cells}
        assert len(combos) == 6

    def test_no_sweep_single_cell(self):
        cfg = load_config("simulate", None, [])
        assert len(expand_sweeps(cfg)) == 1


class TestDatasetIngestion:
    def test_valid_with_and_without_header(self, tmp_path):
        for header in (True, False):
            path = tmp_path / f"d{header}.csv"
            write_csv(path, [0.1, 0.2], [0.3, 0.4], [0.5, 0.6], header=header)
            arms = load_dataset(path)
            assert arms[Arm.CURRENT].size == 2
            assert arms[Arm.TREATMENT].points[1, 0] == 0.6

    def test_unknown_arm_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("current,1.0\nplacebo,2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("current,1.0,2.0\nhistorical,1.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("current,1.0\nhistorical,abc\ntreatment,2.0\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_dataset(path)

    def test_nan_and_inf_rejected(self, tmp_path):
        for bad in ("nan", "inf"):
            path = tmp_path / "d.csv"
            path.write_text(f"current,1.0\nhistorical,{bad}\ntreatment,2.0\n")
            with pytest.raises(DataError, match="non-finite"):
                load_dataset(path)

    def test_missing_arm(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("current,1.0\nhistorical,2.0\n")
        with pytest.raises(DataError, match="treatment"):
            load_dataset(path)

    def test_labels_are_stripped_and_case_blind_and_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(" Current ,1.5\n\n , \nHISTORICAL,-2.0\n,,\ntreatment,3e-3\n")
        arms = load_dataset(path)
        assert [arms[arm].points.tolist() for arm in Arm] == [[[1.5]], [[-2.0]], [[0.003]]]
        path.write_text("current,1.0\n\nplacebo ,2.0\n")
        with pytest.raises(DataError, match="row 3: unknown arm label 'placebo '"):
            load_dataset(path)
        path.write_text("current,1.0\ntreatment,-inf\n")
        with pytest.raises(DataError, match="row 2, column 2: non-finite value '-inf'"):
            load_dataset(path)

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path):
        # Spreadsheet programs save "UTF-8 CSV" with a byte-order mark.
        path = tmp_path / "d.csv"
        write_csv(path, [0.1, 0.2], [0.3, 0.4], [0.5, 0.6], header=True)
        plain = load_dataset(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        arms = load_dataset(path)
        assert [arms[arm].points.tolist() for arm in Arm] == [
            plain[arm].points.tolist() for arm in Arm
        ]


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, dataset):
        out = tmp_path / "r.txt"
        rc = main(
            ["test", "--out", str(out), "--set", "bogus.key=1"]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "entry",
        [
            {"scenario.mu_c_minus_mu_t": "0,abc"},
            {"replicates": "abc"},
            {"fusion.theta": ["a"]},
            {"kernel.bandwidth": ["median", "abc"]},
            {"sizes.n": 20.7},
            {"replicates": True},
            {"fusion.theta": []},
            {"fusion.theta": {"a": 1}},
            # A list for a key that does not sweep, checked before the seed's sign.
            {"seed": [1]},
        ],
    )
    def test_unparsable_config_file_string_exit_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(entry))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.txt")])
        assert rc == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "simulate", "null-study"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(
        self, tmp_path, capsys, monkeypatch, dataset, command, workers
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was opened or an analysis ran")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(cli, "run_report", refuse)
        data = ["--set", f"data={dataset}"] if command == "test" else []
        rc = main([command, "--out", str(tmp_path / "s.txt"), *data, "--workers", workers])
        assert rc == EXIT_CONFIG
        assert "config error: workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            # An infinite bandwidth makes every kernel entry 1: nothing differs.
            (["kernel.bandwidth=inf"], "fixed bandwidth must be finite and > 0, got inf"),
            # An infinite RBF weight makes the statistics NaN: nothing merges or rejects.
            (["kernel.family=linear+rbf", "kernel.epsilon=inf"], "epsilon must be finite"),
            # No statistic exceeds a NaN margin: nothing merges.
            (["fusion.theta=nan"], "theta must be a number"),
        ],
        ids=["bandwidth-inf", "epsilon-inf", "theta-nan"],
    )
    def test_non_finite_setting_exit_2(self, tmp_path, capsys, monkeypatch, settings, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        sets = [arg for item in settings for arg in ("--set", item)]
        rc = main(
            ["simulate", "--out", str(tmp_path / "s.txt"), "--set", "replicates=4",
             "--set", "scenario.mu_c_minus_mu_t=1.0", *sets]
        )
        assert rc == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["scenario.mu_c_minus_mu_t=nan"], "mu_c_minus_mu_t must be finite, got nan"),
            (["scenario.mu_h_minus_mu_c=inf"], "mu_h_minus_mu_c must be finite, got inf"),
            (
                ["scenario.generator=var_shift", "scenario.var_c_over_var_t=-1"],
                "var_c_over_var_t must be finite and > 0, got -1.0",
            ),
            (
                ["scenario.generator=var_shift", "scenario.var_h_over_var_c=inf"],
                "var_h_over_var_c must be finite and > 0, got inf",
            ),
            (
                ["scenario.mu_h_minus_mu_c=1e308", "scenario.mu_c_minus_mu_t=1e308"],
                "mu_h_minus_mu_c + mu_c_minus_mu_t must be finite, got inf",
            ),
            (
                ["scenario.generator=var_shift", "scenario.var_h_over_var_c=1e300",
                 "scenario.var_c_over_var_t=1e10"],
                "var_h_over_var_c * var_c_over_var_t must be finite and > 0, got inf",
            ),
            (
                ["scenario.var_h_over_var_c=4"],
                "scenario.var_h_over_var_c needs scenario.generator=var_shift; "
                "mean_shift ignores it",
            ),
            (
                ["scenario.generator=var_shift", "scenario.mu_h_minus_mu_c=0.2"],
                "scenario.mu_h_minus_mu_c needs scenario.generator=mean_shift; "
                "var_shift ignores it",
            ),
        ],
        ids=[
            "mean-shift-nan", "historical-shift-inf", "variance-ratio-negative",
            "variance-ratio-inf", "historical-mean-overflows", "historical-variance-overflows",
            "mean-shift-ignores-variance", "var-shift-ignores-mean",
        ],
    )
    def test_bad_scenario_setting_exit_2(self, tmp_path, capsys, monkeypatch, settings, message):
        # Before the check the first four ran replicate 0 and exited 4 on NaN
        # distances, the next two exited 3 on a non-finite historical point, and
        # the last two exited 0 and wrote a key no arm was drawn with.
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        sets = [arg for item in settings for arg in ("--set", item)]
        rc = main(["simulate", "--out", str(tmp_path / "s.txt"), "--set", "replicates=2", *sets])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["test", "simulate", "null-study"])
    @pytest.mark.parametrize("spelling", [["--set", "seed=-1"], ["--seed", "-1"]])
    def test_negative_seed_exit_2(self, tmp_path, capsys, monkeypatch, dataset, command, spelling):
        def refuse(*args, **kwargs):
            raise AssertionError("an analysis or replicate ran")

        for name in ("run_report", "run_sweep", "null_study_sweep"):
            monkeypatch.setattr(cli, name, refuse)
        data = ["--set", f"data={dataset}"] if command == "test" else []
        rc = main([command, "--out", str(tmp_path / "r.txt"), *data, *spelling])
        assert rc == EXIT_CONFIG
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, methods",
        [
            ("test", ["merged_method=partial_bootstrap"]),
            ("simulate", ["merged_method=partial_bootstrap"]),
            (
                "simulate",
                ["merged_method=partial_permutation", "compare_methods=normal_approx,partial_bootstrap"],
            ),
        ],
    )
    def test_partial_bootstrap_without_resamples_exit_2(
        self, tmp_path, capsys, monkeypatch, dataset, command, methods
    ):
        # Its reference set would be empty once a merge ran it.
        def refuse(*args, **kwargs):
            raise AssertionError("an analysis or replicate ran")

        for name in ("run_report", "run_sweep"):
            monkeypatch.setattr(cli, name, refuse)
        data = ["--set", f"data={dataset}"] if command == "test" else []
        sets = [arg for method in methods for arg in ("--set", method)]
        rc = main(
            [command, "--out", str(tmp_path / "r.txt"), *data, *sets,
             "--set", "causality.num_resamples=0"]
        )
        assert rc == EXIT_CONFIG
        assert (
            "config error: the partial bootstrap needs at least one resample"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command, sets",
        [
            ("test", ["fusion.mode=classic"]),
            ("simulate", ["merged_method=partial_permutation", "compare_methods=normal_approx"]),
        ],
    )
    def test_permutation_tests_accept_zero_resamples(self, tmp_path, dataset, command, sets):
        # Their B + 1 reference set always holds the observed statistic.
        data = ["--set", f"data={dataset}"] if command == "test" else SMALL_CAMPAIGN
        args = [arg for item in sets for arg in ("--set", item)]
        rc = main(
            [command, "--out", str(tmp_path / "r.txt"), *data, *args,
             "--set", "fusion.num_bootstrap=80", "--set", "causality.num_resamples=0"]
        )
        assert rc == EXIT_OK

    def test_null_study_accepts_zero_causality_resamples(self, tmp_path):
        # The study draws nullstudy.ref_draws references per replicate; the
        # causality resample count does not enter it.
        args = ["null-study", "--set", "nullstudy.ref_draws=5", *SMALL_CAMPAIGN]

        def rows(name, resamples):
            out = tmp_path / name
            sets = ["--set", f"causality.num_resamples={resamples}"]
            assert main(args + sets + ["--out", str(out)]) == EXIT_OK
            lines = Path(f"{out}.tsv").read_text().splitlines()
            return [ln for ln in lines if not ln.startswith("# ")]

        assert rows("zero.txt", 0) == rows("some.txt", 80)

    def test_unparsable_set_value_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "s.txt"), "--set", "sizes.n=abc"])
        assert rc == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_test_command_rejects_a_sweep_exit_2(self, tmp_path, dataset, capsys):
        rc = main(
            [
                "test", "--out", str(tmp_path / "r.txt"),
                "--set", f"data={dataset}", "--set", "fusion.theta=0.3,0.4",
            ]
        )
        assert rc == EXIT_CONFIG
        assert "does not accept a list" in capsys.readouterr().err

    def test_missing_data_key_exit_2(self, tmp_path):
        rc = main(["test", "--out", str(tmp_path / "r.txt")])
        assert rc == EXIT_CONFIG

    def test_data_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("current,1.0\nwrong,2.0\n")
        rc = main(
            ["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={bad}"]
        )
        assert rc == EXIT_DATA

    def test_non_utf8_csv_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"arm,y\ncurrent,1.0\xff\n")
        rc = main(["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={bad}"])
        assert rc == EXIT_DATA
        assert f"data error: dataset {bad} is not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"fusion.mode": "classic\xe9"}')
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.txt")])
        assert rc == EXIT_CONFIG
        assert f"config error: config file {cfg} is not UTF-8 text" in capsys.readouterr().err

    def test_config_with_byte_order_mark_is_read(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"fusion.theta": 0.3}).encode())
        assert load_config("simulate", cfg, [])["fusion.theta"] == 0.3

    def test_degenerate_data_exit_4(self, tmp_path):
        const = tmp_path / "const.csv"
        write_csv(const, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        rc = main(
            ["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={const}"]
        )
        assert rc == EXIT_STATISTICAL

    def test_overflowing_median_bandwidth_exit_4(self, tmp_path, capsys):
        # Finite values whose squared distances overflow: the run once exited
        # 0 with an infinite bandwidth, NaN statistics and no merge or reject.
        rng = np.random.default_rng(4)
        path = tmp_path / "huge.csv"
        write_csv(path, *(1e200 * rng.normal(size=size) for size in (30, 40, 30)))
        rc = main(["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={path}", *FAST])
        assert rc == EXIT_STATISTICAL
        assert "median pairwise distance overflows the float range" in capsys.readouterr().err
        assert not (tmp_path / "r.txt.json").exists()

    @pytest.mark.parametrize(
        "case,hint", [("overflow", False), ("constant", True), ("tiny-arm", True)]
    )
    def test_hint_only_for_constant_or_tiny_arms(self, tmp_path, capsys, case, hint):
        # The hint names constant arms and arm sizes; an overflowing median
        # distance has neither cause.
        rng = np.random.default_rng(4)
        arms = {
            "overflow": [1e200 * rng.normal(size=size) for size in (30, 40, 30)],
            "constant": [[1.0, 1.0]] * 3,
            "tiny-arm": [[0.3], rng.normal(size=6), rng.normal(size=6)],
        }[case]
        path = tmp_path / "arms.csv"
        write_csv(path, *arms)
        rc = main(["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={path}", *FAST])
        err = capsys.readouterr().err
        assert rc == EXIT_STATISTICAL
        assert err.startswith("statistical precondition failure: ")
        assert ("hint: check for constant-valued arms" in err) is hint

    def test_test_command_leaves_no_thread_and_the_blas_count_as_it_was(self, tmp_path, dataset):
        # The command opens its helper thread and pins OpenBLAS for itself;
        # both are undone before it returns.
        lib = blas.numpy_openblas()
        count = lib.scipy_openblas_get_num_threads64_() if lib is not None else None
        threads = threading.enumerate()
        for merge in ("0", "inf"):
            args = ["--set", f"data={dataset}", "--set", f"fusion.theta={merge}", *FAST]
            assert main(["test", "--out", str(tmp_path / "r.txt"), *args]) == EXIT_OK
            assert threading.enumerate() == threads
            if lib is not None:
                assert lib.scipy_openblas_get_num_threads64_() == count

    @pytest.mark.parametrize("theta", ["0", "inf"], ids=["no-merge", "merge"])
    def test_constant_two_arm_pool_exit_4(self, tmp_path, capsys, theta):
        # Current and treatment are one value, the historical arm varies: the
        # three-arm median is positive and the two-arm one is zero.  The
        # two-arm side is built on first read, and the report reads both
        # bandwidths, so a merged run fails as the unmerged one does.
        path = tmp_path / "two_arm_constant.csv"
        write_csv(path, [2.0] * 3, np.random.default_rng(3).normal(size=20).round(4), [2.0] * 3)
        rc = main(
            ["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={path}",
             "--set", f"fusion.theta={theta}", *FAST]
        )
        assert rc == EXIT_STATISTICAL
        assert (
            "statistical precondition failure: median pairwise distance is zero"
            in capsys.readouterr().err
        )

    def test_failing_replicate_in_the_pool_exit_4(self, tmp_path, capsys, monkeypatch):
        # Replicate 1 of three fails.  Two workers report it as one does, and
        # no pool thread outlives the command.
        seen = threading.local()
        draw_arms, build_gram = simulate.draw_arms, simulate.build_gram

        def recording_draw(scn, rep):
            seen.rep = rep
            return draw_arms(scn, rep)

        def failing_gram(*args):
            if seen.rep == 1:
                raise DegenerateSample("no spread")
            return build_gram(*args)

        monkeypatch.setattr(simulate, "draw_arms", recording_draw)
        monkeypatch.setattr(simulate, "build_gram", failing_gram)
        threads = threading.active_count()
        errors = []
        for workers in ("1", "2"):
            rc = main(
                ["simulate", "--out", str(tmp_path / f"w{workers}.txt"), "--workers", workers,
                 *SMALL_CAMPAIGN, "--set", "replicates=3", "--seed", "7", *FAST]
            )
            assert rc == EXIT_STATISTICAL
            assert threading.active_count() == threads
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "replicate 1 (master_seed=7) failed: no spread" in errors[0]

    def test_statistical_decision_does_not_affect_exit(self, tmp_path, dataset):
        # theta = 0 forces no-merge; exit must still be 0.
        rc = main(
            [
                "test", "--out", str(tmp_path / "r.txt"),
                "--set", f"data={dataset}", "--set", "fusion.theta=0",
                *FAST,
            ]
        )
        assert rc == EXIT_OK


@pytest.mark.parametrize("command", ["test", "simulate", "null-study"])
def test_non_characteristic_kernel_warns_once(tmp_path, capsys, dataset, command):
    args = ["--set", f"data={dataset}"] if command == "test" else SMALL_CAMPAIGN
    stderr = {}
    for family in ("rbf", "linear"):
        out = tmp_path / f"{family}.txt"
        rc = main([command, "--out", str(out), *args, "--set", f"kernel.family={family}", *FAST])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == out.read_text()
        stderr[family] = captured.err
    assert stderr == {
        "rbf": "",
        "linear": "warning: kernel family 'linear' is not characteristic; "
        "its MMD only detects mean differences\n",
    }


@pytest.mark.parametrize("command", ["simulate", "null-study"])
def test_swept_non_characteristic_kernel_warns_once(tmp_path, capsys, command):
    # Two of the four cells, neither of them the first, use the linear kernel.
    draws = ["--set", "nullstudy.ref_draws=5"] if command == "null-study" else []
    rc = main(
        [
            command, "--out", str(tmp_path / "r.txt"), *SMALL_CAMPAIGN, *draws, *FAST,
            "--set", "kernel.family=rbf,linear", "--set", "scenario.mu_h_minus_mu_c=0,1",
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: kernel family 'linear' is not characteristic; "
        "its MMD only detects mean differences\n"
    )


class TestCmdTest:
    def test_report_files_and_round_trip(self, tmp_path, dataset, capsys):
        out = tmp_path / "report.txt"
        rc = main(
            ["test", "--out", str(out), "--set", f"data={dataset}", "--seed", "5", *FAST]
        )
        assert rc == EXIT_OK
        assert out.exists()
        payload = json.loads((tmp_path / "report.txt.json").read_text())
        # The JSON sections rebuild the library's outcomes for the same config.
        cfg = payload["config"]
        assert cfg["seed"] == 5
        arms = load_dataset(dataset)
        report = run_report(*(arms[arm] for arm in Arm), build_ttp_config(cfg), master_seed=5)
        assert FusionOutcome(**payload["fusion"]) == report.fusion
        assert CausalityOutcome(**payload["causality"]) == report.causality
        assert DiagnosticsReport(**payload["diagnostics"]) == report.diagnostics
        text = out.read_text()
        assert "fusion statistic" in text
        assert "effective config" in text
        assert capsys.readouterr().out == text

    def test_deterministic_given_seed(self, tmp_path, dataset):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.txt"
            rc = main(
                ["test", "--out", str(out), "--set", f"data={dataset}", "--seed", "9", *FAST]
            )
            assert rc == EXIT_OK
            outs.append((tmp_path / f"{name}.txt.json").read_text())
        assert outs[0] == outs[1]

    def test_always_merge_json_is_strict_and_reruns(self, tmp_path, dataset):
        # theta = inf makes the fusion statistic and a config value infinite.
        def strict(text):
            raise ValueError(f"non-standard JSON constant {text}")

        first = tmp_path / "a.txt"
        rc = main(
            ["test", "--out", str(first), "--set", f"data={dataset}",
             "--set", "fusion.theta=inf", *FAST]
        )
        assert rc == EXIT_OK
        text = (tmp_path / "a.txt.json").read_text()
        payload = json.loads(text, parse_constant=strict)
        assert payload["fusion"]["statistic"] == "inf"
        assert payload["config"]["fusion.theta"] == "inf"
        assert payload["fusion"]["merged"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload["config"]))
        rc = main(["test", "--out", str(tmp_path / "b.txt"), "--config", str(cfg)])
        assert rc == EXIT_OK
        assert (tmp_path / "b.txt.json").read_text() == text

    def test_enrollment_shaped_smoke(self, tmp_path):
        # Arm sizes and outcome range shaped like a school-enrollment
        # application: 200 treatment, 50 current, 50 historical in [0, 1].
        rng = np.random.default_rng(55)
        path = tmp_path / "enroll.csv"
        write_csv(
            path,
            np.clip(rng.normal(0.9, 0.08, 50), 0, 1).round(4),
            np.clip(rng.normal(0.9, 0.08, 50), 0, 1).round(4),
            np.clip(rng.normal(0.92, 0.07, 200), 0, 1).round(4),
            header=True,
        )
        out = tmp_path / "enroll.txt"
        rc = main(
            [
                "test", "--out", str(out), "--set", f"data={path}",
                "--set", "fusion.theta=0.5", *FAST,
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "enroll.txt.json").read_text())
        assert payload["fusion"]["merged"]  # similar control arms pool


class TestCmdSimulate:
    def test_sweep_rows_and_header(self, tmp_path):
        out = tmp_path / "sim.txt"
        rc = main(
            [
                "simulate", "--out", str(out),
                "--set", "replicates=3",
                "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
                "--set", "fusion.theta=0.2,0.6",
                *FAST,
            ]
        )
        assert rc == EXIT_OK
        lines = (tmp_path / "sim.txt.tsv").read_text().splitlines()
        config_lines = [ln for ln in lines if ln.startswith("# ")]
        table = [ln for ln in lines if not ln.startswith("# ")]
        assert any(ln.startswith("# fusion.theta=") for ln in config_lines)
        header = table[0].split("\t")
        assert "merge_rate" in header
        assert len(table) == 3  # header + two sweep cells

    def test_machine_output_bitwise_deterministic(self, tmp_path):
        args = [
            "simulate",
            "--set", "replicates=4",
            "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
            "--seed", "3",
            *FAST,
        ]
        rc1 = main(args + ["--out", str(tmp_path / "a.txt"), "--workers", "1"])
        rc2 = main(args + ["--out", str(tmp_path / "b.txt"), "--workers", "2"])
        assert rc1 == rc2 == EXIT_OK
        assert (tmp_path / "a.txt.tsv").read_bytes() == (tmp_path / "b.txt.tsv").read_bytes()


    def test_every_cell_reports_a_nonzero_time(self, tmp_path):
        # The rate_table shape: 8 paper-shape cells of 2 replicates each.
        out = tmp_path / "sim.txt"
        rc = main(
            [
                "simulate", "--out", str(out),
                "--set", "replicates=2",
                "--set", "scenario.mu_c_minus_mu_t=0,0.4",
                "--set", "scenario.mu_h_minus_mu_c=0,0.2,0.4,0.6",
                "--set", "compare_methods=partial_permutation,normal_approx",
            ]
        )
        assert rc == EXIT_OK
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 8
        times = [re.fullmatch(r".* \((\d+\.\d) ms\)", row) for row in rows]
        assert all(times), rows
        assert all(float(t.group(1)) > 0 for t in times), rows

    def test_fusion_mode_sweep_equals_single_mode_runs(self, tmp_path):
        args = [
            "simulate",
            "--set", "replicates=4",
            "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
            "--set", "scenario.mu_c_minus_mu_t=0,0.4",
            "--seed", "3",
            *FAST,
        ]

        def rows(name, mode):
            out = ["--out", str(tmp_path / name), "--set", f"fusion.mode={mode}"]
            assert main(args + out) == EXIT_OK
            lines = (tmp_path / f"{name}.tsv").read_text().splitlines()
            return [ln for ln in lines if not ln.startswith("# ")]

        swept = rows("both.txt", "equivalence,classic")
        equivalence = rows("eq.txt", "equivalence")
        classic = rows("cl.txt", "classic")
        assert swept[0] == equivalence[0] == classic[0]
        assert "fusion.mode" in swept[0].split("\t")
        assert swept[1:] == equivalence[1:] + classic[1:]
        assert len(swept) == 1 + 4


class TestCmdNullStudy:
    def test_requires_null_scenario(self, tmp_path):
        rc = main(
            [
                "null-study", "--out", str(tmp_path / "n.txt"),
                "--set", "scenario.mu_c_minus_mu_t=0.4",
            ]
        )
        assert rc == EXIT_CONFIG

    def test_requires_null_variance_scenario(self, tmp_path, capsys):
        rc = main(
            [
                "null-study", "--out", str(tmp_path / "n.txt"),
                "--set", "scenario.generator=var_shift", "--set", "scenario.var_c_over_var_t=2",
            ]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: null-study requires Qc = Qt (scenario.var_c_over_var_t = 1)\n"
        )

    def test_sweep_with_a_non_null_cell_exit_2(self, tmp_path):
        rc = main(
            [
                "null-study", "--out", str(tmp_path / "n.txt"),
                "--set", "scenario.mu_c_minus_mu_t=0,0.4",
            ]
        )
        assert rc == EXIT_CONFIG

    def test_small_run_well_formed(self, tmp_path):
        out = tmp_path / "n.txt"
        rc = main(
            [
                "null-study", "--out", str(out),
                "--set", "replicates=3",
                "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
                "--set", "nullstudy.ref_draws=5",
                *FAST,
            ]
        )
        assert rc == EXIT_OK
        lines = (tmp_path / "n.txt.tsv").read_text().splitlines()
        table = [ln for ln in lines if not ln.startswith("# ")]
        header = table[0].split("\t")
        assert header == [
            *KEY_COLUMNS, "method", "level", "reference_quantile", "true_quantile", "ks_distance"
        ]
        # three methods x two default probe levels
        assert len(table) == 1 + 6

    @pytest.mark.parametrize(
        "setting",
        ["nullstudy.ref_draws=0", "nullstudy.ref_draws=-2", "nullstudy.probe_levels=1.5"],
    )
    def test_bad_settings_exit_2(self, tmp_path, capsys, setting):
        rc = main(
            [
                "null-study", "--out", str(tmp_path / "n.txt"),
                "--set", "replicates=2", "--set", setting, *FAST,
            ]
        )
        assert rc == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_rows_carry_every_swept_key(self, tmp_path):
        rc = main(
            [
                "null-study", "--out", str(tmp_path / "n.txt"),
                "--set", "replicates=3",
                "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
                "--set", "nullstudy.ref_draws=5",
                "--set", "scenario.mu_h_minus_mu_c=0,2",
                *FAST,
            ]
        )
        assert rc == EXIT_OK
        lines = (tmp_path / "n.txt.tsv").read_text().splitlines()
        header, *rows = [ln.split("\t") for ln in lines if not ln.startswith("# ")]
        shift = header.index("scenario.mu_h_minus_mu_c")
        assert [row[shift] for row in rows] == ["0.0"] * 6 + ["2.0"] * 6
        labels = (tmp_path / "n.txt").read_text().splitlines()[2:]
        assert len(set(labels)) == 12
        assert all(" scenario.mu_h_minus_mu_c=" in ln for ln in labels)

    def test_probe_on_a_variance_scenario_exit_2(self, tmp_path, capsys, monkeypatch):
        # The probe shifts means only; it once dropped both variance ratios.
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulate, "draw_arms", refuse)
        rc = main(
            [
                "null-study", "--out", str(tmp_path / "n.txt"), *SMALL_CAMPAIGN,
                "--set", "scenario.generator=var_shift", "--set", "scenario.var_h_over_var_c=4",
                "--set", "nullstudy.probe_mu_c_minus_mu_t=0.0",
            ]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: nullstudy.probe_mu_c_minus_mu_t needs scenario.generator=mean_shift\n"
        )

    def test_probe_checks_the_generator_of_each_cell(self, tmp_path, capsys):
        # A config-file list of one generator is a sweep of one mean_shift
        # cell, which the probe accepts; a var_shift cell is refused.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario.generator": ["mean_shift"]}))
        args = [
            "null-study", "--config", str(cfg), *SMALL_CAMPAIGN,
            "--set", "nullstudy.ref_draws=5", "--set", "nullstudy.probe_mu_c_minus_mu_t=0.5",
        ]
        assert main([*args, "--out", str(tmp_path / "one.txt")]) == EXIT_OK
        sweep = ["--set", "scenario.generator=mean_shift,var_shift"]
        assert main([*args, *sweep, "--out", str(tmp_path / "two.txt")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: nullstudy.probe_mu_c_minus_mu_t needs scenario.generator=mean_shift\n"
        )

    def test_probe_at_no_shift_keeps_the_historical_shift(self, tmp_path):
        # A probe at mu_c - mu_t = 0 redraws the scenario's own arms.
        args = [
            "null-study", *SMALL_CAMPAIGN, "--set", "nullstudy.ref_draws=5",
            "--set", "scenario.mu_h_minus_mu_c=0.7",
        ]

        def rows(name, sets):
            out = tmp_path / name
            assert main(args + sets + ["--out", str(out)]) == EXIT_OK
            lines = Path(f"{out}.tsv").read_text().splitlines()
            return [ln for ln in lines if not ln.startswith("# ")]

        probed = rows("probe.txt", ["--set", "nullstudy.probe_mu_c_minus_mu_t=0.0"])
        assert probed == rows("base.txt", [])


@pytest.mark.parametrize("command", ["simulate", "null-study"])
def test_two_cell_sweep_opens_one_pool(tmp_path, monkeypatch, command):
    sizes = []

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers, **kwargs)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording)
    monkeypatch.setattr(simulate, "_cpus", lambda: 4)  # the pool size holds on any CPU count
    draws = ["--set", "nullstudy.ref_draws=5"] if command == "null-study" else []
    rc = main(
        [
            command, "--out", str(tmp_path / "r.txt"), "--workers", "2", *SMALL_CAMPAIGN,
            "--set", "scenario.mu_h_minus_mu_c=0,2", *draws, *FAST,
        ]
    )
    assert rc == EXIT_OK
    assert sizes == [2]


@pytest.mark.parametrize(
    "command, sweep",
    [
        ("simulate", ["--set", "fusion.theta=0.2,0.6", "--set", "compare_methods=partial_permutation"]),
        ("null-study", ["--set", "scenario.mu_h_minus_mu_c=0,2", "--set", "nullstudy.ref_draws=5"]),
    ],
)
def test_sweep_tsv_bitwise_identical_for_workers_1_2_3(tmp_path, command, sweep):
    # Five replicates split unevenly over two and over three workers.
    args = [
        command,
        "--set", "replicates=5",
        "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
        "--seed", "4",
        *sweep,
        *FAST,
    ]
    tables = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}.txt"
        assert main(args + ["--out", str(out), "--workers", workers]) == EXIT_OK
        tables.append((tmp_path / f"w{workers}.txt.tsv").read_bytes())
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.skipif(
    blas.numpy_openblas() is None,
    reason="NumPy's bundled OpenBLAS (scipy_openblas64_) was not found",
)
def test_null_study_tsv_bitwise_identical_above_inner_dimension_400(tmp_path):
    # OpenBLAS rounds the 200 x 400 by 400 x 400 reference products on one
    # and on two threads apart, so a serial run must pin BLAS as the pool does.
    args = [
        "null-study", "--seed", "3", "--set", "replicates=2",
        "--set", "sizes.n=20", "--set", "sizes.m=20", "--set", "sizes.l=400",
        "--set", "nullstudy.ref_draws=200",
    ]
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.txt"
        assert main(args + ["--out", str(out), "--workers", workers]) == EXIT_OK
        tables.append((tmp_path / f"w{workers}.txt.tsv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize(
    "sweep",
    [
        # The two fusion modes share a fusion seed but draw different plans.
        (
            "simulate",
            {"fusion.mode": ["equivalence", "classic"], "scenario.mu_c_minus_mu_t": ["0", "0.4"]},
        ),
        # Each arm size draws weights of another shape.
        ("simulate", {"sizes.n": ["10", "16", "21"]}),
        # Null-study cells draw from generators of their own, in one map.
        ("null-study", {"scenario.mu_h_minus_mu_c": ["0", "1"], "sizes.n": ["10", "16"]}),
        # Cells of other sizes draw counts and masks of other plans.
        ("simulate", {"causality.estimator": ["v", "u"], "sizes.m": ["10", "12"]}),
        ("simulate", {"causality.alpha": ["0.05", "0.2"], "sizes.l": ["10", "14"]}),
        ("null-study", {"sizes.l": ["10", "14"]}),
    ],
)
def test_sweep_rows_equal_each_cell_run_alone(tmp_path, sweep, workers):
    # A sweep's cells share each replicate's resampling draws.  The keys of
    # the sweep are in key-column order, so the cells come in this order.
    # A swept key outside the eight key columns has a column after them.
    command, sweep = sweep
    added = [key for key in sweep if key not in KEY_COLUMNS]
    extra = {
        "simulate": [
            "--set", "scenario.mu_h_minus_mu_c=0.2",
            "--set", "compare_methods=partial_permutation,normal_approx",
        ],
        "null-study": ["--set", "nullstudy.ref_draws=5"],
    }
    args = [
        command,
        "--set", "replicates=5",
        "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
        *extra[command],
        "--seed", "6",
        *FAST,
    ]

    def rows(name, sets, run_workers="1"):
        out = tmp_path / name
        assert main(args + sets + ["--out", str(out), "--workers", run_workers]) == EXIT_OK
        lines = Path(f"{out}.tsv").read_text().splitlines()
        return [ln for ln in lines if not ln.startswith("# ")]

    def sets(pairs):
        return [arg for key, value in pairs for arg in ("--set", f"{key}={value}")]

    def with_added(line, fields):
        cells = line.split("\t")
        fixed = len(KEY_COLUMNS)
        return "\t".join([*cells[:fixed], *fields, *cells[fixed:]])

    swept = rows("sweep.txt", sets((k, ",".join(v)) for k, v in sweep.items()), workers)
    alone = []
    for i, combo in enumerate(itertools.product(*sweep.values())):
        header, *cell_rows = rows(f"cell{i}.txt", sets(zip(sweep, combo)))
        values = [value for key, value in zip(sweep, combo) if key in added]
        alone += [with_added(row, values) for row in cell_rows]
    assert swept == [with_added(header, added), *alone]


# Run a two-replicate campaign through the CLI on one and on two workers,
# then measure how much RSS freeing a touched 16 MiB array gives back in a
# pool thread, and then in the main thread.  The pool thread measures
# first: once glibc's default dynamic threshold has seen a mapped 16 MiB
# block freed, it keeps the next one on the heap in every thread.
_HEAP_PROBE = """
import os, sys
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from ttpool import cli

PAGE = os.sysconf("SC_PAGE_SIZE")

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE

def rss_drop():
    block = np.ones(16 << 20, dtype=np.uint8)
    before = rss()
    del block
    return before - rss()

args = ["simulate", "--out", sys.argv[1], "--set", "replicates=2"]
assert cli.main(args) == 0
assert cli.main([*args, "--workers", "2"]) == 0
with ThreadPoolExecutor(2) as pool:
    print(pool.submit(rss_drop).result(timeout=120))
print(rss_drop())
"""


class TestFreedHeap:
    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="the heap setting applies to glibc only"
    )
    def test_cli_process_and_its_workers_keep_freed_pages(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _HEAP_PROBE, str(tmp_path / "s.txt")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        drops = [int(line) for line in proc.stdout.splitlines()[-2:]]
        assert all(drop < 1 << 20 for drop in drops), drops

    def test_no_mallopt_changes_nothing(self, caplog, monkeypatch):
        monkeypatch.setattr(simulate.ctypes, "CDLL", lambda name: object())
        with caplog.at_level(logging.DEBUG, logger="ttpool.simulate"):
            assert simulate.keep_freed_heap() is False
        assert [r.getMessage() for r in caplog.records] == [
            "no C library mallopt found; freed heap pages go back to the system"
        ]


_IMPORT_PROBE = """
import sys
from pathlib import Path

from ttpool import cli

out = Path(sys.argv[1])
data = out / "arms.csv"
data.write_text("".join(
    f"{arm},{0.37 * i % 1.9}\\n"
    for arm in ("current", "historical", "treatment")
    for i in range(9)
))
small = [
    "--set", "fusion.num_bootstrap=20",
    "--set", "causality.num_resamples=20",
]
assert cli.main(["test", "--out", str(out / "t.txt"), "--set", f"data={data}", *small]) == 0
assert cli.main([
    "simulate", "--out", str(out / "s.txt"),
    "--set", "replicates=2",
    "--set", "sizes.n=16", "--set", "sizes.m=12", "--set", "sizes.l=14",
    "--workers", "2",
    *small,
    "--set", "compare_methods=normal_approx",
]) == 0
print(" ".join(sorted(sys.modules)))
"""


def test_cli_runs_load_no_scipy(tmp_path):
    # The package runs on NumPy alone, and its pool on threads: a fresh
    # process that imports the CLI and runs a test and a two-worker
    # simulation with the normal approximation loads no SciPy module and no
    # process pool.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"ttpool.causality", "ttpool.kernels"} <= loaded
    assert sorted(name for name in loaded if name.split(".")[0] == "scipy") == []
    assert sorted(name for name in loaded if name.split(".")[0] == "multiprocessing") == []
    assert "concurrent.futures.process" not in loaded


def test_non_finite_config_writes_strict_json_headers(tmp_path):
    def refuse(text):
        raise ValueError(f"non-standard JSON constant {text}")

    out = tmp_path / "inf.txt"
    args = ["simulate", "--out", str(out), *SMALL_CAMPAIGN, "--set", "fusion.theta=inf", *FAST]
    assert main(args) == EXIT_OK
    header = [ln[2:] for ln in Path(f"{out}.tsv").read_text().splitlines() if ln.startswith("# ")]
    values = {}
    for line in header:
        key, _, text = line.partition("=")
        values[key] = json.loads(text, parse_constant=refuse)
    assert values["fusion.theta"] == "inf"
    config = tmp_path / "back.json"
    config.write_text(json.dumps({"fusion.theta": values["fusion.theta"]}))
    assert cli.load_config("simulate", config, [])["fusion.theta"] == float("inf")


def test_non_finite_config_writes_strict_json_report_lines(tmp_path, dataset):
    def refuse(text):
        raise ValueError(f"non-standard JSON constant {text}")

    out = tmp_path / "report.txt"
    args = ["test", "--out", str(out), "--set", f"data={dataset}", "--set", "fusion.theta=inf", *FAST]
    assert main(args) == EXIT_OK
    lines = out.read_text().splitlines()
    config = lines[lines.index("effective config    :") + 1 :]
    values = {}
    for line in config:
        key, _, text = line.strip().partition(" = ")
        values[key] = json.loads(text, parse_constant=refuse)
    assert values["fusion.theta"] == "inf"
