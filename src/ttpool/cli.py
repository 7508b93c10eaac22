"""Batch command-line interface: `ttpool test | simulate | null-study`.

Configuration is a flat JSON object of dotted key paths; selected keys
accept lists and expand into a Cartesian sweep.  Every output embeds the
fully-resolved effective configuration so each row is reproducible from
its own metadata plus the recorded seeds.

Exit codes: 0 success, 2 config error, 3 data error, 4 statistical
precondition failure.  Statistical reject/accept decisions never affect
exit codes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

from .causality import CausalityConfig, Method
from .errors import (
    ConfigError,
    DataError,
    DegenerateSample,
    DimensionMismatch,
    IndexOutOfRange,
    SampleTooSmall,
    TTPoolError,
)
from .estimators import Estimator
from .fusion import FusionConfig, FusionMode
from .kernels import Arm, KernelFamily, KernelSpec, Sample
from .pipeline import TTPConfig, TTPReport, run_report
from .simulate import (
    MeanShift,
    Scenario,
    VarShift,
    check_workers,
    keep_freed_heap,
    null_study_sweep,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STATISTICAL = 4

_STATISTICAL_ERRORS = (
    DegenerateSample,
    SampleTooSmall,
    DimensionMismatch,
    IndexOutOfRange,
)

# ---------------------------------------------------------------------------
# Configuration schema.
# ---------------------------------------------------------------------------

_COMMON_DEFAULTS = {
    "kernel.family": "rbf",
    "kernel.bandwidth": "median",
    "kernel.epsilon": 0.0,
    "fusion.mode": "equivalence",
    "fusion.theta": 0.4,
    "fusion.alpha": 0.05,
    "fusion.num_bootstrap": 1000,
    "causality.alpha": 0.05,
    "causality.num_resamples": 1000,
    "causality.estimator": "v",
    "merged_method": "partial_bootstrap",
    "seed": 0,
}

#: Synthetic-scenario keys shared by ``simulate`` and ``null-study``.
_SCENARIO_DEFAULTS = {
    "scenario.generator": "mean_shift",
    "scenario.mu_c_minus_mu_t": 0.0,
    "scenario.mu_h_minus_mu_c": 0.0,
    "scenario.var_c_over_var_t": 1.0,
    "scenario.var_h_over_var_c": 1.0,
    "sizes.n": 100,
    "sizes.m": 50,
    "sizes.l": 100,
    "replicates": 1000,
}

_DEFAULTS = {
    "test": {**_COMMON_DEFAULTS, "data": ""},
    "simulate": {**_COMMON_DEFAULTS, **_SCENARIO_DEFAULTS, "compare_methods": []},
    "null-study": {
        **_COMMON_DEFAULTS,
        **_SCENARIO_DEFAULTS,
        "nullstudy.probe_levels": [0.9, 0.95],
        "nullstudy.probe_mu_c_minus_mu_t": None,
        "nullstudy.ref_draws": 20,
    },
}

#: Keys whose value may be a list, expanding into a Cartesian sweep
#: (``simulate`` and ``null-study`` only; ``test`` analyses one config).
_SWEEP_KEYS = (
    "kernel.bandwidth",
    "fusion.theta",
    "fusion.mode",
    "scenario.mu_c_minus_mu_t",
    "scenario.mu_h_minus_mu_c",
    "scenario.var_c_over_var_t",
    "scenario.var_h_over_var_c",
    "sizes.n",
)

#: Keys that are legitimately list-valued (not sweeps).
_LIST_KEYS = ("compare_methods", "nullstudy.probe_levels")


def load_config(command: str, config_path, overrides, seed=None) -> dict:
    """Merge file config, --set overrides and a --seed override over the command defaults."""
    defaults = _DEFAULTS[command]
    cfg = dict(defaults)
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in raw.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            cfg[key] = _coerce_file_value(key, value, defaults[key])
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        cfg[key] = _coerce_override(key, text, defaults[key])
    if seed is not None:
        cfg["seed"] = seed
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    _validate_types(command, cfg)
    return cfg


def _coerce_file_value(key: str, value, default):
    """Parse a config-file value as the ``--set`` text it stands for.

    A string is that text and any other JSON value its JSON text; a list
    stands for its items joined by commas, and stays a list.  ``null`` is
    kept for a key whose default is ``None``.
    """
    if value is None and default is None:
        return None
    items = value if isinstance(value, list) else [value]
    text = ",".join(item if isinstance(item, str) else json.dumps(item) for item in items)
    parsed = _coerce_override(key, text, default)
    return [parsed] if isinstance(value, list) and not isinstance(parsed, list) else parsed


def _coerce_scalar(text: str, template):
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    return text


def _coerce_override(key: str, text: str, default):
    """Parse a ``--set`` value or a config-file string into the key's type."""
    try:
        return _coerce_text(key, text, default)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}: {exc}") from exc


def _coerce_text(key: str, text: str, default):
    if key in _SWEEP_KEYS or key in _LIST_KEYS:
        if key == "kernel.bandwidth":
            items = [t if t == "median" else float(t) for t in text.split(",")]
        elif key == "compare_methods":
            items = text.split(",") if text else []
        else:
            template = default[0] if isinstance(default, list) else default
            items = [_coerce_scalar(t, template) for t in text.split(",")]
        return items if (len(items) > 1 or key in _LIST_KEYS) else items[0]
    if default is None:
        return float(text)
    return _coerce_scalar(text, default)


def _validate_types(command: str, cfg: dict) -> None:
    sweeps = () if command == "test" else _SWEEP_KEYS
    for key, value in cfg.items():
        if isinstance(value, list) and key not in sweeps and key not in _LIST_KEYS:
            raise ConfigError(
                f"config key {key!r} does not accept a list for command {command!r}"
            )


def expand_sweeps(cfg: dict) -> list[dict]:
    """Cartesian product over every sweep key holding a list."""
    sweeps = [(k, cfg[k]) for k in _SWEEP_KEYS if k in cfg and isinstance(cfg[k], list)]
    if not sweeps:
        return [dict(cfg)]
    cells = []
    keys = [k for k, _ in sweeps]
    for combo in itertools.product(*(v for _, v in sweeps)):
        cell = dict(cfg)
        cell.update(zip(keys, combo))
        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# Config -> domain objects.
# ---------------------------------------------------------------------------

def _parse_enum(enum_cls, value: str, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        expected = sorted(member.value for member in enum_cls)
        raise ConfigError(f"unknown {what} {value!r}; expected one of {expected}")


def build_kernel_spec(cfg: dict) -> KernelSpec:
    family = _parse_enum(KernelFamily, cfg["kernel.family"], "kernel family")
    bw = cfg["kernel.bandwidth"]
    bandwidth = None if bw == "median" else bw
    return KernelSpec(family=family, bandwidth=bandwidth, epsilon=cfg["kernel.epsilon"])


def build_ttp_config(cfg: dict) -> TTPConfig:
    mode = _parse_enum(FusionMode, cfg["fusion.mode"], "fusion mode")
    estimator = _parse_enum(Estimator, cfg["causality.estimator"], "estimator")
    return TTPConfig(
        kernel=build_kernel_spec(cfg),
        fusion=FusionConfig(
            theta=cfg["fusion.theta"],
            alpha_f=cfg["fusion.alpha"],
            num_bootstrap=cfg["fusion.num_bootstrap"],
            mode=mode,
        ),
        causality=CausalityConfig(
            alpha=cfg["causality.alpha"],
            num_resamples=cfg["causality.num_resamples"],
            estimator=estimator,
        ),
        merged_method=_parse_enum(Method, cfg["merged_method"], "merged method"),
    )


def _warn_if_not_characteristic(spec: KernelSpec) -> None:
    """One stderr line when the kernel's MMD cannot tell every two laws apart."""
    if not spec.characteristic:
        print(
            f"warning: kernel family {spec.family.value!r} is not characteristic; "
            "its MMD only detects mean differences",
            file=sys.stderr,
        )


#: The scenario generators by name; each reads ``scenario.<field>`` for its fields only.
_GENERATORS = {"mean_shift": MeanShift, "var_shift": VarShift}


def build_generator(cfg: dict):
    """The cell's generator; a key of another generator off its default is a ``ConfigError``."""
    kind = cfg["scenario.generator"]
    if kind not in _GENERATORS:
        raise ConfigError(f"unknown scenario generator {kind!r}")
    for other, generator in _GENERATORS.items():
        if other == kind:
            continue
        for f in dataclasses.fields(generator):
            key = f"scenario.{f.name}"
            if cfg[key] != _SCENARIO_DEFAULTS[key]:
                raise ConfigError(f"{key} needs scenario.generator={other}; {kind} ignores it")
    generator = _GENERATORS[kind]
    return generator(**{f.name: cfg[f"scenario.{f.name}"] for f in dataclasses.fields(generator)})


def build_scenario(cfg: dict) -> Scenario:
    compare = tuple(
        _parse_enum(Method, name, "compare method") for name in cfg.get("compare_methods", [])
    )
    return Scenario(
        generator=build_generator(cfg),
        n=cfg["sizes.n"],
        m=cfg["sizes.m"],
        l=cfg["sizes.l"],
        ttp=build_ttp_config(cfg),
        replicates=cfg["replicates"],
        master_seed=cfg["seed"],
        compare_methods=compare,
    )


# ---------------------------------------------------------------------------
# Dataset ingestion.
# ---------------------------------------------------------------------------

def load_dataset(path) -> dict:
    """Parse the arm-labelled CSV into one (size, d) array per arm."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise DataError(f"dataset {path} is empty")
    start = 0
    if rows[0] and rows[0][0].strip().lower() == "arm":
        start = 1
    arms: dict = {a: [] for a in Arm}
    width = None
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            arm = Arm(row[0].strip().lower())
        except ValueError:
            raise DataError(f"row {lineno}: unknown arm label {row[0]!r}")
        if width is None:
            width = len(row)
            if width < 2:
                raise DataError(f"row {lineno}: expected at least one value column")
        elif len(row) != width:
            raise DataError(f"row {lineno}: expected {width} columns, found {len(row)}")
        values = []
        for col, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"row {lineno}, column {col}: not a number: {cell!r}")
            if math.isnan(value) or math.isinf(value):
                raise DataError(f"row {lineno}, column {col}: non-finite value {cell!r}")
            values.append(value)
        arms[arm].append(values)
    for arm, pts in arms.items():
        if not pts:
            raise DataError(f"dataset {path} has no rows for arm {arm.value!r}")
    return {arm: Sample(pts, arm) for arm, pts in arms.items()}


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def report_to_dict(report: TTPReport, effective_config: dict) -> dict:
    return {
        "fusion": dataclasses.asdict(report.fusion),
        "causality": dataclasses.asdict(report.causality),
        "diagnostics": dataclasses.asdict(report.diagnostics),
        "bandwidth_pooled3": report.bandwidth_pooled3,
        "bandwidth_pooled2": report.bandwidth_pooled2,
        "bandwidth_used": report.bandwidth_used,
        "seeds": report.seeds,
        "config": effective_config,
    }


def format_table(cfg: dict, header: list[str], rows: list[list]) -> str:
    lines = [f"# {key}={json.dumps(cfg[key])}" for key in sorted(cfg)]
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(_format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_outputs(out, lines: list[str], suffix: str, companion: str) -> int:
    """Write the report ``lines`` to ``out`` and ``companion`` to ``out + suffix``, then print."""
    text = "\n".join(lines) + "\n"
    Path(out).write_text(text)
    Path(f"{out}{suffix}").write_text(companion)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_test(args) -> int:
    cfg = load_config("test", args.config, args.set, args.seed)
    check_workers(args.workers)
    if not cfg["data"]:
        raise ConfigError("the test command requires a 'data' config key (CSV path)")
    arms = load_dataset(cfg["data"])
    ttp = build_ttp_config(cfg)
    _warn_if_not_characteristic(ttp.kernel)
    report = run_report(
        arms[Arm.CURRENT],
        arms[Arm.HISTORICAL],
        arms[Arm.TREATMENT],
        ttp,
        master_seed=cfg["seed"],
    )
    payload = json.dumps(report_to_dict(report, cfg), indent=2) + "\n"
    return _write_outputs(args.out, _report_lines(report, cfg), ".json", payload)


def _report_lines(report: TTPReport, cfg: dict) -> list[str]:
    d = report.diagnostics
    lines = [
        "ttpool test report",
        "==================",
        f"fusion mode         : {report.fusion.mode.value}",
        f"fusion statistic    : {report.fusion.statistic:.6g}",
        f"fusion critical     : {report.fusion.critical_value:.6g}",
        f"merged              : {report.fusion.merged}",
        f"causality method    : {report.causality.method.value}",
        f"causality statistic : {report.causality.statistic:.6g}",
        f"causality critical  : {report.causality.critical_value:.6g}",
        f"reject H0 (Qc = Qt) : {report.causality.reject}",
        f"D_hat(Qc, Qh)       : {d.d_hat_ch:.6g}",
        f"D_hat(Qc, Qt)       : {d.d_hat_ct:.6g}",
        f"gamma, lambda       : {d.gamma:.6g}, {d.lam:.6g}",
        f"sufficient consist. : {d.sufficient_consistency}",
        f"bandwidth (3-arm)   : {report.bandwidth_pooled3}",
        f"bandwidth (2-arm)   : {report.bandwidth_pooled2}",
        f"bandwidth used      : {report.bandwidth_used}",
        f"seeds               : {json.dumps(report.seeds)}",
        "effective config    :",
    ]
    return lines + [f"  {k} = {json.dumps(cfg[k])}" for k in sorted(cfg)]


def cmd_simulate(args) -> int:
    cfg = load_config("simulate", args.config, args.set, args.seed)
    cells = expand_sweeps(cfg)
    scenarios = [build_scenario(cell) for cell in cells]
    _warn_if_not_characteristic(scenarios[0].ttp.kernel)
    method_names = [cfg["merged_method"], *cfg.get("compare_methods", [])]
    header = list(_SWEEP_KEYS) + [
        "merge_rate",
        "stderr_merge",
        *[f"reject_rate.{name}" for name in method_names],
        "stderr_reject",
        "replicates",
    ]
    swept = [c for c in _SWEEP_KEYS if isinstance(cfg[c], list)]
    rows, lines = [], ["ttpool simulate report", "======================"]
    for cell, res in zip(cells, run_sweep(scenarios, workers=args.workers)):
        rows.append(
            [cell[c] for c in _SWEEP_KEYS]
            + [res.merge_rate, res.stderr_merge]
            + [res.per_method_rates[name] for name in method_names]
            + [res.stderr_reject, res.scenario.replicates]
        )
        sweep = ", ".join(f"{c}={cell[c]}" for c in swept)
        lines.append(
            f"[{sweep or 'single cell'}] merge={res.merge_rate:.3f} "
            + " ".join(
                f"reject[{name}]={res.per_method_rates[name]:.3f}" for name in method_names
            )
            + f" ({res.seconds * 1e3:.1f} ms)"
        )
    return _write_outputs(args.out, lines, ".tsv", format_table(cfg, header, rows))


def cmd_null_study(args) -> int:
    cfg = load_config("null-study", args.config, args.set, args.seed)
    cells = expand_sweeps(cfg)
    # The study draws nullstudy.ref_draws references and never reads
    # causality.num_resamples; one resample passes the scenario check.
    scenarios = [build_scenario({**cell, "causality.num_resamples": 1}) for cell in cells]
    _warn_if_not_characteristic(scenarios[0].ttp.kernel)
    probe_mu = cfg["nullstudy.probe_mu_c_minus_mu_t"]
    if probe_mu is not None and cfg["scenario.generator"] != "mean_shift":
        raise ConfigError("nullstudy.probe_mu_c_minus_mu_t needs scenario.generator=mean_shift")
    probes = [
        None if probe_mu is None else dataclasses.replace(scn.generator, mu_c_minus_mu_t=probe_mu)
        for scn in scenarios
    ]
    studies = null_study_sweep(
        zip(scenarios, probes),
        probe_levels=tuple(cfg["nullstudy.probe_levels"]),
        ref_draws=cfg["nullstudy.ref_draws"],
        workers=args.workers,
    )
    header = [
        *_SWEEP_KEYS, "method", "level", "reference_quantile", "true_quantile", "ks_distance"
    ]
    swept = [c for c in _SWEEP_KEYS if c != "sizes.n" and isinstance(cfg[c], list)]
    rows, lines = [], ["ttpool null-study report", "========================"]
    for cell, study in zip(cells, studies):
        label = "".join(f" {c}={cell[c]}" for c in swept)
        for row in study:
            rows.append(
                [cell[c] for c in _SWEEP_KEYS]
                + [row.method, row.level]
                + [row.reference_quantile, row.true_quantile, row.ks_distance]
            )
            lines.append(
                f"n={cell['sizes.n']}{label} method={row.method} level={row.level} "
                f"ref_q={row.reference_quantile:.4g} true_q={row.true_quantile:.4g} "
                f"ks={row.ks_distance:.4f}"
            )
    return _write_outputs(args.out, lines, ".tsv", format_table(cfg, header, rows))


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpool",
        description="Equivalence test-then-pool with kernel MMD two-sample tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("test", cmd_test), ("simulate", cmd_simulate), ("null-study", cmd_null_study)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file (flat key paths)")
        p.add_argument("--out", required=True, help="output path for the text report")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable; comma-separated values sweep)",
        )
        p.add_argument(
            "--workers", type=int, default=1, help="parallel workers for simulate and null-study"
        )
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    keep_freed_heap()
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _STATISTICAL_ERRORS as exc:
        print(
            f"statistical precondition failure: {exc}\n"
            "hint: check for constant-valued arms (median heuristic needs spread) "
            "and minimum arm sizes",
            file=sys.stderr,
        )
        return EXIT_STATISTICAL
    except TTPoolError as exc:
        cause = exc.__cause__
        if isinstance(cause, _STATISTICAL_ERRORS):
            print(f"statistical precondition failure: {exc}", file=sys.stderr)
            return EXIT_STATISTICAL
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
