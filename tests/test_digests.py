"""Output digests of eight small fixed-seed runs.

A change that claims to leave every output bitwise equal (a speed-up that
reorders no floating-point operation and moves no random stream) must
keep these SHA-256 digests.  A change that moves the outputs on purpose
updates them and says so.  The runs are at the paper shape (m=50, l=100,
n=100) or smaller, where the outputs are the same under one and two BLAS
threads.  Every path handed to the CLI is relative to the test's working
directory, so no absolute path enters an output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ttpool.cli import EXIT_OK, main

PAPER_SIZES = ["--set", "sizes.m=50", "--set", "sizes.l=100", "--set", "sizes.n=100"]

DIGESTS = {
    "test": "9809beb6da7c90f6eafaa4aec5366e11b8acac63c0da2088da1249330efea83b",
    "test-merged": "160028afdeec77fc90e82c2ccd0645eec571c612dc6a8605e73e651fb738cc92",
    "simulate": "dbc6b8723d6297bbd2393b6cd33be28dbd0476d861b6eaf7c164716df09e395d",
    "simulate-classic": "7a7fad06c1f992f17802539fffa34d9e5e66790d830a95ef0b95f16059fa48f4",
    "null-study": "c6e20cee2171a8917a38ccc31dd4b97dc8ec2ac56d56e64120f43adbaa35f2fd",
    "null-study-sweep": "eaab10c109f00e3ba5e8dff60938dfd1f004d24e163f4d558563dbfc651ff2b3",
    "test-normal": "2385891eceaf220ea7309e89315d2dc41feedab451bc1bd533b04e4278efa549",
    "simulate-modes": "bab2e459f511393ab9572da90ec4735cb3fafcc27f1943581fea2fe96a5145d5",
}


def _write_arms(path: Path, historical_shift: float = 1.0) -> None:
    """A paper-shape CSV; the default historical shift is far enough not to merge."""
    rng = np.random.default_rng(20260418)
    arms = (
        ("current", rng.normal(size=50)),
        ("historical", historical_shift + rng.normal(size=100)),
        ("treatment", 0.3 + rng.normal(size=100)),
    )
    lines = [f"{label},{value!r}" for label, values in arms for value in values.tolist()]
    path.write_text("arm,y\n" + "\n".join(lines) + "\n")


def _run(tmp_path, monkeypatch, capsys, args) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(args) == EXIT_OK
    capsys.readouterr()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", list(DIGESTS))
def test_output_digest(tmp_path, monkeypatch, capsys, command):
    if command == "test":
        _write_arms(tmp_path / "arms.csv")
        _run(tmp_path, monkeypatch, capsys, ["test", "--out", "r.txt", "--set", "data=arms.csv"])
        output = tmp_path / "r.txt.json"
    elif command == "test-merged":
        _write_arms(tmp_path / "arms.csv", historical_shift=0.0)
        _run(tmp_path, monkeypatch, capsys, ["test", "--out", "r.txt", "--set", "data=arms.csv"])
        output = tmp_path / "r.txt.json"
        assert json.loads(output.read_text())["fusion"]["merged"]
    elif command == "test-normal":
        # The only digest that holds a normal-approximation critical value.
        _write_arms(tmp_path / "arms.csv", historical_shift=0.0)
        _run(
            tmp_path, monkeypatch, capsys,
            ["test", "--out", "r.txt", "--set", "data=arms.csv",
             "--set", "merged_method=normal_approx"],
        )
        output = tmp_path / "r.txt.json"
        report = json.loads(output.read_text())
        assert report["fusion"]["merged"] and report["causality"]["method"] == "normal_approx"
    elif command == "simulate":
        _run(
            tmp_path, monkeypatch, capsys,
            ["simulate", "--out", "s.txt", *PAPER_SIZES, "--seed", "7",
             "--set", "replicates=6", "--set", "scenario.mu_h_minus_mu_c=0,0.6",
             "--set", "compare_methods=partial_permutation,normal_approx",
             "--set", "fusion.num_bootstrap=300", "--set", "causality.num_resamples=300"],
        )
        output = tmp_path / "s.txt.tsv"
    elif command == "simulate-classic":
        _run(
            tmp_path, monkeypatch, capsys,
            ["simulate", "--out", "s.txt", *PAPER_SIZES, "--seed", "5", "--workers", "2",
             "--set", "replicates=6", "--set", "fusion.mode=classic",
             "--set", "scenario.mu_c_minus_mu_t=0.4", "--set", "scenario.mu_h_minus_mu_c=0.4",
             "--set", "fusion.num_bootstrap=300", "--set", "causality.num_resamples=300"],
        )
        output = tmp_path / "s.txt.tsv"
    elif command == "simulate-modes":
        # Both fusion modes over two historical shifts: every cell of a
        # replicate has the same current and treatment arms, so the
        # unmerged cells of both modes run the same no-borrowing test.
        _run(
            tmp_path, monkeypatch, capsys,
            ["simulate", "--out", "s.txt", *PAPER_SIZES, "--seed", "3",
             "--set", "replicates=8", "--set", "fusion.mode=equivalence,classic",
             "--set", "scenario.mu_c_minus_mu_t=0.3", "--set", "scenario.mu_h_minus_mu_c=0,0.6",
             "--set", "fusion.num_bootstrap=300", "--set", "causality.num_resamples=300"],
        )
        output = tmp_path / "s.txt.tsv"
    elif command == "null-study":
        _run(
            tmp_path, monkeypatch, capsys,
            ["null-study", "--out", "n.txt", *PAPER_SIZES, "--seed", "11",
             "--set", "replicates=8", "--set", "scenario.mu_h_minus_mu_c=0.3"],
        )
        output = tmp_path / "n.txt.tsv"
    else:
        _run(
            tmp_path, monkeypatch, capsys,
            ["null-study", "--out", "n.txt", *PAPER_SIZES, "--seed", "11", "--workers", "2",
             "--set", "replicates=8", "--set", "scenario.mu_h_minus_mu_c=0,0.3"],
        )
        output = tmp_path / "n.txt.tsv"
    assert _sha256(output) == DIGESTS[command]
