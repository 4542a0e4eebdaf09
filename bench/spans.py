"""Spans around the public functions of the program's layers, set from outside.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span: name, start, end and the span that called it.
The replacement is made wherever the function object is bound, so a name
that one layer imported from another with ``from .trees import leaning_tree``
is charged to the layer that defines it (``trees``), not to the caller.
Functions called through a private table, such as the CLI's ``_HANDLERS``,
are not seen; their time is charged to the calling span.

A layer's busy time is the sum over its spans of their self time: the span's
duration less the time of the spans it called directly.  Aggregates are kept
per pass; spans of the first traced pass are kept for the trace file.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import ModuleType

LAYERS = ("series", "asymptotics", "trees", "bijection", "spectral", "ulam_harris", "verify", "cli")
VERIFY_SCOPES = ("series", "bijection", "roots", "spectral", "uh")

#: per-layer metrics and their units, in the order they are reported
PER_LAYER = (
    ("series.busy_s", "s"),
    ("series.few_labels_ms", "ms"),
    ("series.many_labels_ms", "ms"),
    ("series.compositions_ms", "ms"),
    ("series.coeff_bits", "bits"),
    ("asymptotics.busy_s", "s"),
    ("asymptotics.zstar_ms", "ms"),
    ("asymptotics.eval_sk_calls", "count"),
    ("trees.busy_s", "s"),
    ("trees.enumerate_s", "s"),
    ("trees.trees_enumerated", "count"),
    ("trees.enumerate_peak_mb", "MB"),
    ("trees.parse_ms", "ms"),
    ("bijection.busy_s", "s"),
    ("bijection.walks_enumerated", "count"),
    ("bijection.conversions", "count"),
    ("bijection.conversion_us", "us"),
    ("spectral.busy_s", "s"),
    ("spectral.power_iteration_ms", "ms"),
    ("spectral.power_iteration_calls", "count"),
    ("spectral.leaning_bisect_ms", "ms"),
    ("spectral.walk_count_ms", "ms"),
    ("spectral.max_err_over_tol", "ratio"),
    ("ulam_harris.busy_s", "s"),
    ("ulam_harris.uh_min_ms", "ms"),
    ("verify.series_s", "s"),
    ("verify.bijection_s", "s"),
    ("verify.roots_s", "s"),
    ("verify.spectral_s", "s"),
    ("verify.uh_s", "s"),
    ("verify.triple_agreement_budget_share", "ratio"),
    ("cli.self_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self, pkg: ModuleType):
        self.pkg = pkg
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.stack: list[list] = []
        self.keep_spans = True
        #: (tree, tol, result) of each power-iteration call in the first pass
        self.power_calls: list[tuple] = []
        #: (args, kwargs, size) of the enumeration that returned most trees
        self.largest_enumeration: tuple | None = None
        self.new_pass()

    def new_pass(self) -> None:
        if not self.keep_spans:
            for column in (self.start, self.end, self.name, self.parent):
                del column[:]
        self.busy: dict[str, float] = defaultdict(float)
        self.incl: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)

    def end_pass(self) -> None:
        self.keep_spans = False

    # ----------------------------------------------------------- install --

    def install(self) -> None:
        modules = [getattr(self.pkg, layer) for layer in LAYERS] + [self.pkg]
        for layer in LAYERS:
            module = getattr(self.pkg, layer)
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, fname, fn)
                for bound_in in modules:
                    for attr, value in list(vars(bound_in).items()):
                        if value is fn:
                            setattr(bound_in, attr, wrapper)

    def _wrap(self, layer: str, fname: str, fn):
        qualname = f"{layer}.{fname}"
        nid = len(self.names)
        self.names.append(qualname)
        hooks = [h for key, h in _HOOKS if key in (qualname, layer)]
        signature = inspect.signature(fn)
        start, end, names, parents, stack = self.start, self.end, self.name, self.parent, self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            index = len(start)
            names.append(nid)
            parents.append(caller[0] if caller else -1)
            frame = [index, 0.0, layer]
            stack.append(frame)
            result = None
            t0 = perf()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                end[index] = t1
                duration = t1 - t0
                tracer.busy[layer] += duration - frame[1]
                tracer.incl[qualname] += duration
                tracer.calls[qualname] += 1
                if caller is not None:
                    caller[1] += duration
                entry = caller is None or caller[2] != layer
                for hook in hooks:
                    hook(tracer, signature.bind(*args, **kwargs).arguments, result, duration, entry)

        return traced

    # ----------------------------------------------------------- metrics --

    def pass_metrics(self) -> dict[str, float]:
        incl, calls, extra = self.incl, self.calls, self.extra
        m = {f"{layer}.busy_s": self.busy.get(layer, 0.0) for layer in LAYERS[:6]}
        m["series.few_labels_ms"] = extra["few_labels_s"] * 1e3
        m["series.many_labels_ms"] = extra["many_labels_s"] * 1e3
        m["series.compositions_ms"] = incl["series.count_trees_by_compositions"] * 1e3
        m["series.coeff_bits"] = extra["coeff_bits"]
        m["asymptotics.zstar_ms"] = incl["asymptotics.zstar"] * 1e3
        m["asymptotics.eval_sk_calls"] = calls["asymptotics.eval_sk"]
        m["trees.enumerate_s"] = incl["trees.enumerate_decreasing_trees"]
        m["trees.trees_enumerated"] = extra["trees_enumerated"]
        m["trees.parse_ms"] = incl["trees.parse_tree"] * 1e3
        m["bijection.walks_enumerated"] = extra["walks_enumerated"]
        conversion_names = ("bijection.build_tree_from_walk", "bijection.build_walk_from_tree")
        conversions = sum(calls[n] for n in conversion_names)
        m["bijection.conversions"] = conversions
        m["bijection.conversion_us"] = (
            sum(incl[n] for n in conversion_names) / conversions * 1e6 if conversions else 0.0
        )
        m["spectral.power_iteration_ms"] = incl["spectral.lambda1_power_iteration"] * 1e3
        m["spectral.power_iteration_calls"] = calls["spectral.lambda1_power_iteration"]
        m["spectral.leaning_bisect_ms"] = incl["spectral.leaning_lambda1_bracket"] * 1e3
        m["spectral.walk_count_ms"] = 1e3 * sum(
            incl[f"spectral.{n}"] for n in ("closed_walk_count", "walk_count_table", "walk_count_profile")
        )
        m["ulam_harris.uh_min_ms"] = incl["ulam_harris.uh_min"] * 1e3
        for scope in VERIFY_SCOPES:
            m[f"verify.{scope}_s"] = extra[f"verify_{scope}_s"]
        budget = getattr(self.pkg.verify, "COUNT_SWEEP_BUDGET_S", 10.0)
        m["verify.triple_agreement_budget_share"] = incl["verify.check_count_triple_agreement"] / budget
        m["cli.self_ms"] = self.busy.get("cli", 0.0) * 1e3
        return m

    def write(self, path: Path, threshold_s: float = 1e-3) -> None:
        """Spans of the first traced pass lasting at least ``threshold_s``, as
        JSON lines with times relative to the first span.  A kept span's
        parent always lasts longer, so parent links stay inside the file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with path.open("w") as f:
            for i in range(len(self.start)):
                if self.end[i] - self.start[i] >= threshold_s:
                    f.write(
                        json.dumps(
                            {
                                "span": i,
                                "name": self.names[self.name[i]],
                                "start": round(self.start[i] - origin, 6),
                                "end": round(self.end[i] - origin, 6),
                                "parent": self.parent[i],
                            }
                        )
                        + "\n"
                    )


# ------------------------------------------------------------------ hooks --


def _labels(tracer, arguments, result, duration, entry) -> None:
    k = arguments.get("k")
    if entry and k is not None:
        if k <= 10:
            tracer.extra["few_labels_s"] += duration
        elif k >= 16:
            tracer.extra["many_labels_s"] += duration


def _coeff_bits(tracer, arguments, result, duration, entry) -> None:
    if result is not None:
        bits = max(abs(c).bit_length() for c in result.coeffs)
        tracer.extra["coeff_bits"] = max(tracer.extra["coeff_bits"], bits)


def _enumerated(tracer, arguments, result, duration, entry) -> None:
    if result is not None:
        tracer.extra["trees_enumerated"] += len(result)
        largest = tracer.largest_enumeration
        if largest is None or len(result) > largest[1]:
            tracer.largest_enumeration = (dict(arguments), len(result))


def _walks(tracer, arguments, result, duration, entry) -> None:
    if result is not None:
        tracer.extra["walks_enumerated"] += len(result)


def _power(tracer, arguments, result, duration, entry) -> None:
    if result is not None and tracer.keep_spans:
        tracer.power_calls.append((arguments["t"], arguments.get("tol", 1e-10), result))


def _scope(tracer, arguments, result, duration, entry) -> None:
    tracer.extra[f"verify_{arguments.get('scope', 'all')}_s"] += duration


_HOOKS = (
    ("series", _labels),
    ("series.gk_series", _coeff_bits),
    ("series.sk_series", _coeff_bits),
    ("trees.enumerate_decreasing_trees", _enumerated),
    ("bijection.enumerate_closed_walks", _walks),
    ("spectral.lambda1_power_iteration", _power),
    ("verify.run_checks", _scope),
)
