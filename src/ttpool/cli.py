"""Batch command-line interface: `ttpool test | simulate | null-study`.

Configuration is a flat JSON object of dotted key paths.  One table,
``_KEYS``, gives each key its default, the parser of its ``--set`` text,
the commands that have it and whether a sweep cell reads it.  In
``simulate`` and ``null-study`` a list value of such a key expands into a
Cartesian sweep; every key a cell reads sweeps except ``replicates``,
``seed``, ``merged_method`` and ``compare_methods``.  A campaign table
starts with eight fixed key columns, then one column per other swept key.
Every output embeds the fully-resolved effective configuration so each row
is reproducible from its own metadata plus the recorded seeds.

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
from typing import Callable, Optional

from .causality import CausalityConfig, Method
from .errors import (
    ConfigError,
    DataError,
    DegenerateSample,
    DimensionMismatch,
    IndexOutOfRange,
    SampleTooSmall,
    ZeroBandwidth,
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

_ALL = ("test", "simulate", "null-study")
_STUDIES = ("simulate", "null-study")


def _bandwidth(text: str):
    return text if text == "median" else float(text)


def _names(text: str) -> list[str]:
    return text.split(",") if text else []


def _levels(text: str) -> list[float]:
    return [float(item) for item in text.split(",")]


@dataclasses.dataclass(frozen=True)
class _Key:
    """One config key: its default, its parser, its commands, and whether it sweeps.

    ``parse`` turns ``--set`` text into a value and raises ``ValueError``
    on bad text.  A key that ``sweeps`` is read by each sweep cell: in
    ``simulate`` and ``null-study`` its text is split on commas and each
    item parsed, and more than one item sweeps it.  Other keys parse
    their whole text.  ``column`` places one of the key columns that
    every campaign table starts with.
    """

    default: object
    parse: Callable[[str], object]
    commands: tuple = _ALL
    sweeps: bool = True
    column: Optional[int] = None


#: Every config key, in the order of each command's effective config.  A
#: sweep needs one seed and one replicate count, and the merged and compare
#: methods name the rate columns, so those four keys do not sweep.
_KEYS = {
    "kernel.family": _Key("rbf", str),
    "kernel.bandwidth": _Key("median", _bandwidth, column=0),
    "kernel.epsilon": _Key(0.0, float),
    "fusion.mode": _Key("equivalence", str, column=2),
    "fusion.theta": _Key(0.4, float, column=1),
    "fusion.alpha": _Key(0.05, float),
    "fusion.num_bootstrap": _Key(1000, int),
    "causality.alpha": _Key(0.05, float),
    "causality.num_resamples": _Key(1000, int),
    "causality.estimator": _Key("v", str),
    "merged_method": _Key("partial_bootstrap", str, sweeps=False),
    "seed": _Key(0, int, sweeps=False),
    "data": _Key("", str, ("test",), sweeps=False),
    "scenario.generator": _Key("mean_shift", str, _STUDIES),
    "scenario.mu_c_minus_mu_t": _Key(0.0, float, _STUDIES, column=3),
    "scenario.mu_h_minus_mu_c": _Key(0.0, float, _STUDIES, column=4),
    "scenario.var_c_over_var_t": _Key(1.0, float, _STUDIES, column=5),
    "scenario.var_h_over_var_c": _Key(1.0, float, _STUDIES, column=6),
    "sizes.n": _Key(100, int, _STUDIES, column=7),
    "sizes.m": _Key(50, int, _STUDIES),
    "sizes.l": _Key(100, int, _STUDIES),
    "replicates": _Key(1000, int, _STUDIES, sweeps=False),
    "compare_methods": _Key([], _names, ("simulate",), sweeps=False),
    "nullstudy.probe_levels": _Key([0.9, 0.95], _levels, ("null-study",), sweeps=False),
    "nullstudy.probe_mu_c_minus_mu_t": _Key(None, float, ("null-study",), sweeps=False),
    "nullstudy.ref_draws": _Key(20, int, ("null-study",), sweeps=False),
}

def load_config(command: str, config_path, overrides, seed=None) -> dict:
    """Merge file config, --set overrides and a --seed override over the command defaults."""
    cfg = {key: entry.default for key, entry in _KEYS.items() if command in entry.commands}
    settings = []
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
        settings += [(key, value, _parse_file_value) for key, value in raw.items()]
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        settings.append((key, text, _parse_text))
    for key, value, parse in settings:
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        cfg[key] = parse(key, value)
    if seed is not None:
        cfg["seed"] = seed
    for key, value in cfg.items():
        entry = _KEYS[key]
        sweeps = entry.sweeps and command in _STUDIES
        if isinstance(value, list) and not (sweeps or isinstance(entry.default, list)):
            raise ConfigError(f"config key {key!r} does not accept a list for command {command!r}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _parse_text(key: str, text: str):
    """The value ``--set key=text`` gives; a sweeping key's comma items give a list."""
    entry = _KEYS[key]
    try:
        if not entry.sweeps:
            return entry.parse(text)
        items = [entry.parse(item) for item in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}: {exc}") from exc
    return items if len(items) > 1 else items[0]


def _parse_file_value(key: str, value):
    """Parse a config-file value as the ``--set`` text it stands for.

    A string is that text and any other JSON value its JSON text; a list
    stands for its items joined by commas, and stays a list.  ``null`` is
    kept for a key whose default is ``None``.
    """
    if value is None and _KEYS[key].default is None:
        return None
    items = value if isinstance(value, list) else [value]
    parsed = _parse_text(key, ",".join(i if isinstance(i, str) else json.dumps(i) for i in items))
    return [parsed] if isinstance(value, list) and not isinstance(parsed, list) else parsed


def _key_columns(cfg: dict) -> list[str]:
    """The fixed key columns in their order, then each other key that ``cfg`` sweeps."""
    fixed = sorted((e.column, k) for k, e in _KEYS.items() if e.column is not None)
    swept = [k for k, e in _KEYS.items() if e.column is None and e.sweeps]
    return [k for _, k in fixed] + [k for k in swept if isinstance(cfg.get(k), list)]


def expand_sweeps(cfg: dict) -> list[dict]:
    """Cartesian product over every sweep key holding a list, in key-column order."""
    keys = [key for key in _key_columns(cfg) if isinstance(cfg.get(key), list)]
    return [
        {**cfg, **dict(zip(keys, combo))} for combo in itertools.product(*(cfg[k] for k in keys))
    ]


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


def _warn_if_not_characteristic(specs) -> None:
    """One stderr line per kernel family of ``specs`` whose MMD cannot tell every two laws apart."""
    for family in dict.fromkeys(spec.family for spec in specs if not spec.characteristic):
        print(
            f"warning: kernel family {family.value!r} is not characteristic; "
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
            if cfg[key] != _KEYS[key].default:
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

#: Arm by CSV label (stripped and lower-cased), built once rather than per row.
_ARM_LABELS = {arm.value: arm for arm in Arm}


def load_dataset(path) -> dict:
    """Parse the arm-labelled CSV into one (size, d) array per arm.

    The file is UTF-8 text, with or without the byte-order mark that
    spreadsheet programs write.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset {path} is not UTF-8 text: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise DataError(f"dataset {path} is empty")
    start = 0
    if rows[0] and rows[0][0].strip().lower() == "arm":
        start = 1
    arms: dict = {a: [] for a in Arm}
    width = None
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if not "".join(row).strip():  # no cells, or only blank ones
            continue
        arm = _ARM_LABELS.get(row[0].strip().lower())
        if arm is None:
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
            if not math.isfinite(value):
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
    """The ``ttpool test`` JSON companion, which strict JSON parsers read.

    A non-finite float, such as the statistic and theta of
    ``fusion.theta=inf``, is written as the text ``"inf"``, ``"-inf"`` or
    ``"nan"``, which the config loader parses back.
    """
    return _finite_json(
        {
            "fusion": dataclasses.asdict(report.fusion),
            "causality": dataclasses.asdict(report.causality),
            "diagnostics": dataclasses.asdict(report.diagnostics),
            "bandwidth_pooled3": report.bandwidth_pooled3,
            "bandwidth_pooled2": report.bandwidth_pooled2,
            "bandwidth_used": report.bandwidth_used,
            "seeds": report.seeds,
            "config": effective_config,
        }
    )


def _finite_json(value):
    """``value`` with every non-finite float in it replaced by its text."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def format_table(cfg: dict, header: list[str], rows: list[list]) -> str:
    strict = _finite_json(cfg)
    lines = [f"# {key}={json.dumps(strict[key], allow_nan=False)}" for key in sorted(cfg)]
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
    _warn_if_not_characteristic([ttp.kernel])
    report = run_report(
        arms[Arm.CURRENT],
        arms[Arm.HISTORICAL],
        arms[Arm.TREATMENT],
        ttp,
        master_seed=cfg["seed"],
    )
    payload = json.dumps(report_to_dict(report, cfg), indent=2, allow_nan=False) + "\n"
    return _write_outputs(args.out, _report_lines(report, cfg), ".json", payload)


def _report_lines(report: TTPReport, cfg: dict) -> list[str]:
    d = report.diagnostics
    lines = [
        "ttpool test report",
        "==================",
        f"fusion mode         : {report.fusion.mode.value}",
        f"fusion statistic    : {report.fusion.statistic:.6g}",
        f"fusion critical     : {report.fusion.critical_value:.6g}",
        f"fusion p-value      : {report.fusion.p_value:.6g}",
        f"merged              : {report.fusion.merged}",
        f"causality method    : {report.causality.method.value}",
        f"causality statistic : {report.causality.statistic:.6g}",
        f"causality critical  : {report.causality.critical_value:.6g}",
        f"causality p-value   : {report.causality.p_value:.6g}",
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
    strict = _finite_json(cfg)
    return lines + [f"  {k} = {json.dumps(strict[k], allow_nan=False)}" for k in sorted(cfg)]


def cmd_simulate(args) -> int:
    cfg = load_config("simulate", args.config, args.set, args.seed)
    cells = expand_sweeps(cfg)
    scenarios = [build_scenario(cell) for cell in cells]
    _warn_if_not_characteristic(scn.ttp.kernel for scn in scenarios)
    method_names = [cfg["merged_method"], *cfg["compare_methods"]]
    columns = _key_columns(cfg)
    header = columns + [
        "merge_rate",
        "stderr_merge",
        *[f"reject_rate.{name}" for name in method_names],
        "stderr_reject",
        "replicates",
    ]
    swept = [c for c in columns if isinstance(cfg[c], list)]
    rows, lines = [], ["ttpool simulate report", "======================"]
    for cell, res in zip(cells, run_sweep(scenarios, workers=args.workers)):
        rows.append(
            [cell[c] for c in columns]
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
    _warn_if_not_characteristic(scn.ttp.kernel for scn in scenarios)
    probe_mu = cfg["nullstudy.probe_mu_c_minus_mu_t"]
    if probe_mu is not None and not all(isinstance(s.generator, MeanShift) for s in scenarios):
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
    columns = _key_columns(cfg)
    header = [*columns, "method", "level", "reference_quantile", "true_quantile", "ks_distance"]
    swept = [c for c in columns if c != "sizes.n" and isinstance(cfg[c], list)]
    rows, lines = [], ["ttpool null-study report", "========================"]
    for cell, study in zip(cells, studies):
        label = "".join(f" {c}={cell[c]}" for c in swept)
        for row in study:
            rows.append(
                [cell[c] for c in columns]
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
        print(f"statistical precondition failure: {exc}", file=sys.stderr)
        if isinstance(exc, (ZeroBandwidth, SampleTooSmall)):
            print(
                "hint: check for constant-valued arms (median heuristic needs spread) "
                "and minimum arm sizes",
                file=sys.stderr,
            )
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
