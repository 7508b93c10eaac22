"""The README's library quick start and experiment commands run as written."""

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

from ttpool.cli import _KEYS, _build_parser, expand_sweeps, load_config

ROOT = Path(__file__).resolve().parent.parent
QUICK_START = re.compile(r"## Quick start \(library\)\n.*?```python\n(.*?)```", re.S)


def test_quick_start_block_runs(tmp_path):
    match = QUICK_START.search((ROOT / "README.md").read_text())
    assert match, "README has no ```python block under 'Quick start (library)'"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", match.group(1)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


EXPERIMENTS = re.compile(r"## Experiment configs\n.*?```sh\n(.*?)```", re.S)
SMALL = [
    "--set", "replicates=2",
    "--set", "fusion.num_bootstrap=20",
    "--set", "causality.num_resamples=20",
]


def test_experiment_commands_run(tmp_path):
    match = EXPERIMENTS.search((ROOT / "README.md").read_text())
    assert match, "README has no ```sh block under 'Experiment configs'"
    commands = [shlex.split(line) for line in match.group(1).splitlines() if line.strip()]
    assert len(commands) == 5
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands:
        assert argv[0] == "ttpool", argv
        args = argv[1:] + SMALL
        proc = subprocess.run(
            [sys.executable, "-m", "ttpool.cli", *args],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        command = args[0]
        config = tmp_path / args[args.index("--config") + 1]
        sets = [args[i + 1] for i, a in enumerate(args) if a == "--set"]
        cfg = load_config(command, config, sets)
        cells = expand_sweeps(cfg)
        # null-study writes one row per method (three) and probe level per cell.
        per_cell = 1 if command == "simulate" else 3 * len(cfg["nullstudy.probe_levels"])
        tsv = tmp_path / (args[args.index("--out") + 1] + ".tsv")
        table = [ln for ln in tsv.read_text().splitlines() if not ln.startswith("#")]
        assert len(table) == 1 + per_cell * len(cells), argv


SYNOPSIS = re.compile(r"## Command-line interface\n.*?```\n(.*?)```", re.S)


def test_cli_synopsis_brackets_exactly_the_optional_flags():
    match = SYNOPSIS.search((ROOT / "README.md").read_text())
    assert match, "README has no ``` block under 'Command-line interface'"
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    lines = {line.split()[1]: line for line in match.group(1).splitlines() if line.strip()}
    assert sorted(lines) == sorted(subparsers.choices)
    for command, parser in subparsers.choices.items():
        # The flags left once every [...] group is cut out are the unbracketed ones.
        bare = set(re.findall(r"--[\w-]+", re.sub(r"\[[^\]]*\]", "", lines[command])))
        required = {a.option_strings[0] for a in parser._actions if a.option_strings and a.required}
        assert bare == required, (command, bare, required)


KEY_ROW = re.compile(r"^\| `([\w.]+)` \| `(.*)` \| ([\w, -]+) \| (yes|no) \|$", re.M)


def test_key_table_states_every_key_as_the_cli_reads_it():
    rows = KEY_ROW.findall((ROOT / "README.md").read_text())
    assert [key for key, *_ in rows] == list(_KEYS)
    for key, default, commands, sweeps in rows:
        entry = _KEYS[key]
        assert default == json.dumps(entry.default), key
        assert commands.split(", ") == list(entry.commands), key
        assert (sweeps == "yes") == entry.sweeps, key


LADDER = re.compile(r"So a ladder of historical-arm sizes.*?```sh\n(.*?)```", re.S)


def test_ladder_command_runs_as_one_sweep(tmp_path):
    match = LADDER.search((ROOT / "README.md").read_text())
    assert match, "README has no size-ladder command"
    (argv,) = [shlex.split(line) for line in match.group(1).splitlines() if line.strip()]
    assert argv[:2] == ["ttpool", "simulate"], argv
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ttpool.cli", *argv[1:], *SMALL],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    tsv = tmp_path / (argv[argv.index("--out") + 1] + ".tsv")
    header, *rows = [ln for ln in tsv.read_text().splitlines() if not ln.startswith("#")]
    assert header.split("\t")[8:10] == ["causality.alpha", "sizes.m"]
    assert len(rows) == 6
