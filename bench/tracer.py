"""Outside-in span recorder for one `gdms` process.

`install()` wraps every public function of the `gdms` modules, at every
module binding that refers to it (``kernel``, ``skew``, ``walks`` and
``cli`` each ``from ... import`` what they call, so patching only the
defining module would miss those call sites), plus a few hot methods.  The
program itself is not modified.  Spans are kept in memory; ``op.py`` writes
them once, at exit.

A span is ``[name, start, end, parent, self_s, attrs, error]``; times come
from ``time.perf_counter`` and ``self_s`` is the span minus the time its
child spans cover.  ``layer_metrics`` folds the spans of a pass into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import types

MODULES = (
    "gdms",
    "gdms.groups",
    "gdms.kernel",
    "gdms.linalg",
    "gdms.pressure",
    "gdms.render",
    "gdms.reports",
    "gdms.skew",
    "gdms.walks",
    "gdms.cli",
)

# (module, class, method) wrapped on the class so every instance sees it.
METHODS = (
    ("gdms.groups", "Ball", "letter_moves"),
    ("gdms.groups", "Ball", "inverse_index"),
    ("gdms.skew", "SkewOperator", "matvec"),
    ("gdms.reports", "RunReport", "write"),
)


def _write_csv_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


# Counters taken from a call's bound arguments ``a`` and result ``r``.
ATTRS = {
    "groups.ball": lambda a, r: {
        "elements": len(r), "radius": a["radius"], "group": id(a["G"])
    },
    "kernel.forward_word_step": lambda a, r: {"cells": int(a["X"].size)},
    "kernel.delta_kernel": lambda a, r: {"evals": len(r.evaluations)},
    "kernel.induced_loops": lambda a, r: {"loops": len(r)},
    "linalg.perron_value": lambda a, r: {"iterations": int(r.iterations)},
    "skew.build_skew_operator": lambda a, r: {"states": int(r.n_states)},
    "render.attractor_points": lambda a, r: {"points": len(r)},
    "reports.write_csv": _write_csv_bytes,
}


class Recorder:
    """In-memory span stack; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def wrap(self, fn, name: str):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        spans, stack, child_s = self.spans, self._stack, self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, 0.0, None, None]
            spans.append(span)
            stack.append(idx)
            child_s.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = attrs(bound.arguments, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                inner = child_s.pop()
                dur = span[2] - span[1]
                span[4] = dur - inner
                if child_s:
                    child_s[-1] += dur

        return traced


def install(recorder: Recorder) -> None:
    """Wrap the public gdms functions at every binding, and ``METHODS``."""
    modules = [importlib.import_module(m) for m in MODULES]
    wrappers: dict[int, types.FunctionType] = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__.startswith("gdms.")
                and id(obj) not in wrappers
            ):
                short = obj.__module__.split(".", 1)[1]
                wrappers[id(obj)] = recorder.wrap(obj, f"{short}.{obj.__qualname__}")
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    cli = importlib.import_module("gdms.cli")
    for key, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[key] = wrappers.get(id(fn), fn)
    for modname, clsname, meth in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        short = modname.split(".", 1)[1]
        setattr(cls, meth, recorder.wrap(getattr(cls, meth), f"{short}.{clsname}.{meth}"))


# ---------------------------------------------------------------------------
# Folding spans into per-layer metrics
# ---------------------------------------------------------------------------

class _Fold:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.attr: dict[tuple[str, str], float] = {}
        self.attr_max: dict[tuple[str, str], float] = {}
        self.errors: dict[str, int] = {}
        self.ball_keys: set = set()

    def add(self, op: int, spans: list) -> None:
        for name, t0, t1, _parent, self_s, attrs, error in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (t1 - t0)
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            if error:
                self.errors[name] = self.errors.get(name, 0) + 1
            for key, val in (attrs or {}).items():
                k = (name, key)
                self.attr[k] = self.attr.get(k, 0) + val
                self.attr_max[k] = max(self.attr_max.get(k, val), val)
            if name == "groups.ball" and attrs:
                self.ball_keys.add((op, attrs["group"], attrs["radius"]))

    def prefix_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _metrics(f: _Fold, import_s: float, overhead_s: float) -> dict:
    """``{name: (value, unit, better)}`` for every per-layer metric."""
    c, t, s, a = f.calls.get, f.total.get, f.self_s.get, f.attr.get
    ball_calls = c("groups.ball", 0)
    fws_s = t("kernel.forward_word_step", 0.0)
    cells = a(("kernel.forward_word_step", "cells"), 0)
    return {
        "groups.ball_calls": (ball_calls, "count", "lower"),
        "groups.ball_s": (t("groups.ball", 0.0), "s", "lower"),
        "groups.ball_elements": (a(("groups.ball", "elements"), 0), "count", "lower"),
        "groups.ball_distinct_ratio": (
            len(f.ball_keys) / ball_calls if ball_calls else 0.0, "ratio", "higher"
        ),
        "groups.letter_moves_calls": (c("groups.Ball.letter_moves", 0), "count", "lower"),
        "groups.letter_moves_s": (t("groups.Ball.letter_moves", 0.0), "s", "lower"),
        "kernel.kernel_counts_calls": (c("kernel.kernel_counts", 0), "count", "lower"),
        "kernel.kernel_counts_self_s": (s("kernel.kernel_counts", 0.0), "s", "lower"),
        "kernel.forward_word_step_calls": (
            c("kernel.forward_word_step", 0), "count", "lower"
        ),
        "kernel.forward_word_step_s": (fws_s, "s", "lower"),
        "kernel.dp_cells": (cells, "count", "lower"),
        "kernel.dp_cells_per_s": (cells / fws_s if fws_s else 0.0, "cells/s", "higher"),
        "kernel.delta_kernel_evals": (a(("kernel.delta_kernel", "evals"), 0), "count", "lower"),
        "kernel.induced_loops_s": (t("kernel.induced_loops", 0.0), "s", "lower"),
        "kernel.loops": (a(("kernel.induced_loops", "loops"), 0), "count", "lower"),
        "linalg.perron_calls": (c("linalg.perron_value", 0), "count", "lower"),
        "linalg.perron_iterations": (
            a(("linalg.perron_value", "iterations"), 0), "count", "lower"
        ),
        "linalg.perron_self_s": (s("linalg.perron_value", 0.0), "s", "lower"),
        "linalg.perron_failures": (f.errors.get("linalg.perron_value", 0), "count", "lower"),
        "skew.build_s": (t("skew.build_skew_operator", 0.0), "s", "lower"),
        "skew.matvec_calls": (c("skew.SkewOperator.matvec", 0), "count", "lower"),
        "skew.matvec_s": (t("skew.SkewOperator.matvec", 0.0), "s", "lower"),
        "skew.max_states": (
            f.attr_max.get(("skew.build_skew_operator", "states"), 0), "count", "lower"
        ),
        "walks.cayley_ball_s": (t("walks.cayley_ball", 0.0), "s", "lower"),
        "walks.srw_s": (t("walks.srw_spectral_radius", 0.0), "s", "lower"),
        "walks.isoperimetric_s": (t("walks.isoperimetric_scan", 0.0), "s", "lower"),
        "render.attractor_points_s": (t("render.attractor_points", 0.0), "s", "lower"),
        "render.points": (a(("render.attractor_points", "points"), 0), "count", "lower"),
        "render.box_counting_s": (t("render.box_counting", 0.0), "s", "lower"),
        "render.render_image_s": (t("render.render_image", 0.0), "s", "lower"),
        "reports.write_csv_calls": (c("reports.write_csv", 0), "count", "lower"),
        "reports.write_csv_s": (t("reports.write_csv", 0.0), "s", "lower"),
        "reports.write_csv_bytes": (a(("reports.write_csv", "bytes"), 0), "bytes", "lower"),
        "reports.report_write_s": (t("reports.RunReport.write", 0.0), "s", "lower"),
        "cli.command_self_s": (f.prefix_self("cli.cmd_"), "s", "lower"),
        "cli.import_s": (import_s, "s", "lower"),
        "cli.load_config_s": (t("cli.load_config", 0.0), "s", "lower"),
        "pressure.bowen_root_calls": (c("pressure.bowen_root", 0), "count", "lower"),
        "pressure.bowen_root_s": (t("pressure.bowen_root", 0.0), "s", "lower"),
        "trace.overhead_s": (overhead_s, "s", "lower"),
    }


def layer_metrics(op_traces: list[dict], overhead_s: float = 0.0) -> dict:
    """Per-layer metrics of one pass: ``{name: (value, unit, better)}``.

    ``op_traces`` holds one dumped trace per op of the pass, in run order.
    """
    fold = _Fold()
    for op, trace in enumerate(op_traces):
        fold.add(op, trace["spans"])
    import_s = sum(trace["import_s"] for trace in op_traces)
    return _metrics(fold, import_s, overhead_s)
