"""CLI surface: config handling, dataset ingestion, exit codes, round-trips."""

import json

import numpy as np
import pytest

from ttpool import cli, simulate
from ttpool.cli import (
    _SWEEP_KEYS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_STATISTICAL,
    expand_sweeps,
    load_config,
    load_dataset,
    main,
    report_from_dict,
)
from ttpool.errors import ConfigError, DataError
from ttpool.kernels import Arm


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
        ],
    )
    def test_unparsable_config_file_string_exit_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(entry))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.txt")])
        assert rc == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "null-study"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, monkeypatch, command, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was opened")

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", refuse)
        rc = main([command, "--out", str(tmp_path / "s.txt"), "--workers", workers])
        assert rc == EXIT_CONFIG
        assert "config error: workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "simulate", "null-study"])
    @pytest.mark.parametrize("spelling", [["--set", "seed=-1"], ["--seed", "-1"]])
    def test_negative_seed_exit_2(self, tmp_path, capsys, monkeypatch, dataset, command, spelling):
        def refuse(*args, **kwargs):
            raise AssertionError("an analysis or replicate ran")

        for name in ("run_equivalence_ttp", "run_campaign", "null_distribution_study"):
            monkeypatch.setattr(cli, name, refuse)
        data = ["--set", f"data={dataset}"] if command == "test" else []
        rc = main([command, "--out", str(tmp_path / "r.txt"), *data, *spelling])
        assert rc == EXIT_CONFIG
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

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

    def test_degenerate_data_exit_4(self, tmp_path):
        const = tmp_path / "const.csv"
        write_csv(const, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        rc = main(
            ["test", "--out", str(tmp_path / "r.txt"), "--set", f"data={const}"]
        )
        assert rc == EXIT_STATISTICAL

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


class TestCmdTest:
    def test_report_files_and_round_trip(self, tmp_path, dataset, capsys):
        out = tmp_path / "report.txt"
        rc = main(
            ["test", "--out", str(out), "--set", f"data={dataset}", "--seed", "5", *FAST]
        )
        assert rc == EXIT_OK
        assert out.exists()
        payload = json.loads((tmp_path / "report.txt.json").read_text())
        fusion, causality, diagnostics, cfg = report_from_dict(payload)
        assert fusion.merged == payload["fusion"]["merged"]
        assert causality.reject == payload["causality"]["reject"]
        assert cfg["seed"] == 5
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
            *_SWEEP_KEYS, "method", "level", "reference_quantile", "true_quantile", "ks_distance"
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
