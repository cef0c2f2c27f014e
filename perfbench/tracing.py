"""Span tracer for the per-layer run.

The tracer wraps public functions of each nilcalc module from outside
and records one span (name, start, end, parent) per call in memory.
Modules import each other's functions by name (`from .lp import
maximize` in newton, `from .newton import critical_scale` in ideals,
...), so a wrapper replaces the binding in every module that holds the
function, and each expected call-site binding is checked first: a name
that no longer resolves raises instead of silently reporting 0.

Self time of a span is its duration minus the durations of its direct
children.  Work counts that are not spans (membership tests issued by
the generator enumeration, computed oracle grid sizes, LP optimum bit
sizes, garbage collections) are collected by the same wrappers.
"""

from __future__ import annotations

import gc
import importlib
import inspect
from collections import defaultdict
from math import log
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("lp", "newton", "toric", "ideals", "oracle", "parsing", "cli")

# (home module, function, modules that must hold the same binding)
TRACED: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("lp", "maximize", ("newton",)),
    ("newton", "build", ("ideals", "toric")),
    ("newton", "classify", ("toric",)),
    ("newton", "critical_scale", ("ideals",)),
    ("toric", "classify_in_body", ("ideals",)),
    ("toric", "valuative_membership", ()),
    ("ideals", "multiplier_ideal", ()),
    ("ideals", "adjoint_ideal", ()),
    ("ideals", "jumping_numbers", ()),
    ("ideals", "openness_margin", ()),
    ("ideals", "adjunction_report", ()),
    ("ideals", "box_audit", ()),
    ("ideals", "lct", ()),
    ("ideals", "multiplier_ideal_toric", ()),
    ("ideals", "adj0_power_membership", ()),
    ("oracle", "orthant_exp_integral", ()),
    ("oracle", "adjoint_weighted_integral", ()),
    ("oracle", "polydisk_mc", ()),
    ("oracle", "radial_power_integral", ()),
    ("parsing", "parse_ideal", ()),
    ("parsing", "parse_rational", ()),
    ("parsing", "parse_toric", ()),
    ("parsing", "format_ideal", ()),
    ("parsing", "format_monomial", ()),
    ("parsing", "format_rational", ()),
    ("cli", "run", ()),
)
# the generator enumeration is counted, not timed as a span, so that the
# box scan's own cost stays in the self time of the operation calling it
ENUMERATION = ("ideals", "_enumerate_minimal")
# the oracles' own decomposition of each truncation shell into boxes,
# from which the grid points and samples of a call are computed
SHELL_BOXES = ("oracle", "_shell_boxes")

STAIRCASE_OPS = ("multiplier_ideal", "adjoint_ideal", "jumping_numbers",
                 "openness_margin", "adjunction_report", "box_audit")
ORACLES = ("orthant_exp_integral", "adjoint_weighted_integral",
           "polydisk_mc", "radial_power_integral")

# every per-layer metric the traced run reports, with its unit
PER_LAYER: Dict[str, str] = {
    "lp.maximize.calls": "count",
    "lp.maximize.self_s": "s",
    "lp.maximize.mean_us": "us",
    "lp.optimum_bits.max": "bits",
    "newton.critical_scale.calls": "count",
    "newton.critical_scale.self_s": "s",
    "newton.critical_scale.hit_ratio": "ratio",
    "newton.classify.calls": "count",
    "newton.classify.self_s": "s",
    "newton.build.calls": "count",
    "newton.build.self_s": "s",
    "ideals.points_tested": "count",
    "ideals.generators_found": "count",
    "ideals.yield_ratio": "ratio",
    **{f"ideals.{op}.self_s": "s" for op in STAIRCASE_OPS},
    "toric.classify_in_body.calls": "count",
    "toric.classify_in_body.self_s": "s",
    "toric.valuative_membership.calls": "count",
    "toric.valuative_membership.self_s": "s",
    **{f"oracle.{fn}.{k}": u for fn in ORACLES
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "oracle.grid_points": "pts_computed",
    "oracle.mc_samples": "samples_computed",
    "oracle.ns_per_point": "ns",
    "parsing.calls": "count",
    "parsing.self_s": "s",
    "cli.run.calls": "count",
    "cli.self_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead_s": "s",
}


class TraceError(RuntimeError):
    """A name the tracer must patch does not resolve."""


def _module(name: str):
    return importlib.import_module(f"nilcalc.{name}")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, int, int, int]]] = []
        self.stack: List[int] = []
        self.points_tested = 0
        self.generators_found = 0
        self.optimum_bits = 0
        self.grid_points = 0
        self.mc_samples = 0
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0
        self._shell_boxes: Optional[Callable] = None
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = {name: _module(name) for name in MODULES}
        modules["nilcalc"] = importlib.import_module("nilcalc")
        try:
            for home, fn, callers in TRACED:
                original = self._resolve(modules, home, fn, callers)
                self._patch_all(modules, original,
                                self._wrap(f"{home}.{fn}", original))
            home, fn = ENUMERATION
            original = self._resolve(modules, home, fn, ())
            self._patch_all(modules, original, self._counting(original))
            self._shell_boxes = self._resolve(modules, *SHELL_BOXES, ())
        except TraceError:
            self.uninstall()
            raise
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    @staticmethod
    def _resolve(modules, home: str, fn: str, callers) -> Callable:
        original = getattr(modules[home], fn, None)
        if not callable(original):
            raise TraceError(f"nilcalc.{home}.{fn} does not resolve")
        for caller in callers:
            if getattr(modules[caller], fn, None) is not original:
                raise TraceError(f"nilcalc.{caller}.{fn} is not the "
                                 f"binding of nilcalc.{home}.{fn}")
        return original

    def _patch_all(self, modules, original, wrapper) -> None:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        after = self._after_hooks(name, fn)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn: Callable) -> Callable:
        def enumerate_counted(dimension, caps, member):
            def counted(beta):
                self.points_tested += 1
                return member(beta)
            result = fn(dimension, caps, counted)
            self.generators_found += len(result)
            return result

        enumerate_counted.__wrapped__ = fn
        return enumerate_counted

    def _after_hooks(self, name: str, fn: Callable):
        if name == "lp.maximize":
            def after(args, kwargs, out):
                if out.optimum is not None:
                    bits = (out.optimum.numerator.bit_length()
                            + out.optimum.denominator.bit_length())
                    self.optimum_bits = max(self.optimum_bits, bits)
            return after
        if name == "ideals.jumping_numbers":
            def after(args, kwargs, jumps):
                self.generators_found += len(jumps)
            return after
        if name.startswith("oracle."):
            signature = inspect.signature(fn)

            def after(args, kwargs, verdict):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count_oracle(name, bound.arguments)
            return after
        return None

    def _boxes(self, lows, schedule) -> int:
        """Boxes the oracle integrates over along the whole schedule."""
        boxes, prev = 0, None
        for t in schedule:
            boxes += len(self._shell_boxes(lows, prev, t))
            prev = t
        return boxes

    def _count_oracle(self, name: str, arguments) -> None:
        cfg = arguments["cfg"]
        schedule = cfg.truncation_schedule
        m = cfg.quadrature_points_per_axis
        if name == "oracle.radial_power_integral":
            self.grid_points += len(schedule) * m
            return
        n = arguments["g"].dimension
        if name == "oracle.polydisk_mc":
            boxes = self._boxes([log(2.0)] * n, schedule)
            self.mc_samples += max(1, cfg.mc_samples // boxes) * boxes
            return
        lows = [0.0] * n
        if name == "oracle.adjoint_weighted_integral":
            lows[0] = 1.0
        self.grid_points += self._boxes(lows, schedule) * m ** n

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += perf_counter_ns() - self._gc_start

    # -- aggregation ----------------------------------------------------
    def layer_metrics(self, overhead_s: float) -> Dict[str, float]:
        names = self.names
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        lp_children = defaultdict(int)
        jump_points = 0
        spans = self.spans
        for idx, (name_id, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[idx]
            if parent >= 0:
                parent_name = names[spans[parent][0]]
                if name == "lp.maximize" and \
                        parent_name == "newton.critical_scale":
                    lp_children[parent] += 1
                if name == "newton.critical_scale" and \
                        parent_name == "ideals.jumping_numbers":
                    jump_points += 1

        def secs(name):
            return self_ns[name] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        lp_calls = calls["lp.maximize"]
        cs_calls = calls["newton.critical_scale"]
        points = self.points_tested + jump_points
        oracle_ns = sum(self_ns[f"oracle.{fn}"] for fn in ORACLES)
        parsing = [n for n in calls if n.startswith("parsing.")]
        m = {
            "lp.maximize.calls": lp_calls,
            "lp.maximize.self_s": secs("lp.maximize"),
            "lp.maximize.mean_us": ratio(self_ns["lp.maximize"] / 1e3,
                                         lp_calls),
            "lp.optimum_bits.max": self.optimum_bits,
            "newton.critical_scale.calls": cs_calls,
            "newton.critical_scale.self_s": secs("newton.critical_scale"),
            "newton.critical_scale.hit_ratio": ratio(
                cs_calls - len(lp_children), cs_calls),
            "newton.classify.calls": calls["newton.classify"],
            "newton.classify.self_s": secs("newton.classify"),
            "newton.build.calls": calls["newton.build"],
            "newton.build.self_s": secs("newton.build"),
            "ideals.points_tested": points,
            "ideals.generators_found": self.generators_found,
            "ideals.yield_ratio": ratio(self.generators_found, points),
            **{f"ideals.{op}.self_s": secs(f"ideals.{op}")
               for op in STAIRCASE_OPS},
            "toric.classify_in_body.calls": calls["toric.classify_in_body"],
            "toric.classify_in_body.self_s": secs("toric.classify_in_body"),
            "toric.valuative_membership.calls":
                calls["toric.valuative_membership"],
            "toric.valuative_membership.self_s":
                secs("toric.valuative_membership"),
            **{f"oracle.{fn}.calls": calls[f"oracle.{fn}"] for fn in ORACLES},
            **{f"oracle.{fn}.self_s": secs(f"oracle.{fn}") for fn in ORACLES},
            "oracle.grid_points": self.grid_points,
            "oracle.mc_samples": self.mc_samples,
            "oracle.ns_per_point": ratio(
                oracle_ns, self.grid_points + self.mc_samples),
            "parsing.calls": sum(calls[n] for n in parsing),
            "parsing.self_s": sum(self_ns[n] for n in parsing) / 1e9,
            "cli.run.calls": calls["cli.run"],
            "cli.self_s": secs("cli.run"),
            "gc.collections": self.gc_collections,
            "gc.pause_s": self.gc_pause_ns / 1e9,
            "trace.overhead_s": overhead_s,
        }
        assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
        return m

    def write_spans(self, path) -> None:
        """One line per span: name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\n")
