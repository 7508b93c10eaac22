"""In-memory spans around calls into ttpool's public functions.

A traced run replaces every binding of a wrapped public function in the
loaded ``ttpool`` modules (``from .kernels import build_gram`` makes one
binding per importing module) with a wrapper that records a span: name,
start, end, parent span, the benchmark item it belongs to, and counts
taken from the call's arguments or result.  Nothing inside the package
is timed by the package itself.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("cli", "simulate", "pipeline", "kernels", "fusion", "causality", "estimators")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: object
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def _rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _quad_flops(args, kwargs, result):
    k_block, u = args[0], args[1]
    return {"flops": 2 * u.shape[0] * k_block.shape[0] * k_block.shape[1]}


def _merged(args, kwargs, result):
    return {"merged": bool(result.merged)}


def _replicates(args, kwargs, result):
    scn = args[0] if args else kwargs["scn"]
    return {"replicates": scn.replicates}


def _method_name(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return f"causality.{cfg.method.value}"


#: (module, public function, span name or name(args, kwargs), attrs(args, kwargs, result)).
#: ``fusion.bootstrap_weight_draws`` is the fusion stage's copy of the
#: multinomial count draw, so it is counted as ``estimators.bootstrap_counts``.
TARGETS = (
    ("ttpool.cli", "load_dataset", "cli.load_dataset", None),
    ("ttpool.simulate", "run_campaign", "simulate.run_campaign", _replicates),
    ("ttpool.simulate", "null_distribution_study", "simulate.null_study", _replicates),
    ("ttpool.simulate", "draw_arms", "simulate.draw_arms", None),
    ("ttpool.pipeline", "run_equivalence_ttp", "pipeline.replicate", None),
    ("ttpool.pipeline", "run_classic_ttp", "pipeline.replicate", None),
    ("ttpool.kernels", "build_gram", "kernels.build_gram", None),
    ("ttpool.kernels", "resolve_bandwidth", "kernels.resolve_bandwidth", None),
    ("ttpool.kernels", "kernel_matrix", "kernels.kernel_matrix", None),
    ("ttpool.fusion", "equivalence_fusion", "fusion.equivalence", _merged),
    ("ttpool.fusion", "classic_fusion", "fusion.classic", _merged),
    ("ttpool.fusion", "bootstrap_weight_draws", "estimators.bootstrap_counts", _rows),
    ("ttpool.causality", "run_causality", _method_name, None),
    ("ttpool.causality", "standard_permutation_test", "causality.standard_permutation", None),
    ("ttpool.causality", "consistency_diagnostics", "causality.consistency_diagnostics", None),
    ("ttpool.causality", "partial_bootstrap_draws", "causality.partial_bootstrap_draws", None),
    ("ttpool.causality", "partial_permutation_draws", "causality.partial_permutation_draws", None),
    ("ttpool.causality", "estimate_sigma_c_squared", "causality.estimate_sigma_c_squared", None),
    ("ttpool.causality", "delta_statistic", "causality.delta_statistic", None),
    ("ttpool.estimators", "bootstrap_counts", "estimators.bootstrap_counts", _rows),
    ("ttpool.estimators", "permutation_masks", "estimators.permutation_masks", _rows),
    ("ttpool.estimators", "batched_quad", "estimators.batched_quad", _quad_flops),
)


class Tracer:
    """Span recorder; wrappers record only while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: object = None
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield attrs
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.item, attrs)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name, attrs_fn) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as attrs:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs.update(attrs_fn(args, kwargs, result))
                return result

        return wrapper

    def install(self) -> None:
        """Patch every ttpool binding of each target; absent targets are skipped."""
        modules = [m for k, m in list(sys.modules.items()) if k == "ttpool" or k.startswith("ttpool.")]
        for module_name, attr, name, attrs_fn in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ms(spans: list[Span]) -> list[float]:
    """Per-span duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.ms - 1e3 * _union_length(children.get(i, [])) for i, s in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict:
    """name -> {calls, median_ms, total_ms, self_median_ms}."""
    selfs = self_times_ms(spans)
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.name, []).append(i)
    return {
        name: {
            "calls": len(idx),
            "median_ms": statistics.median(spans[i].ms for i in idx),
            "total_ms": sum(spans[i].ms for i in idx),
            "self_median_ms": statistics.median(selfs[i] for i in idx),
        }
        for name, idx in sorted(groups.items())
    }


def layer_shares(spans: list[Span], traced_wall_s: float) -> dict:
    """Share of traced wall time covered by the union of each layer's spans."""
    return {
        layer: _union_length(
            (s.start, s.end) for s in spans if s.name.startswith(layer + ".")
        )
        / traced_wall_s
        for layer in LAYERS
    }
