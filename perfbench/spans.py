"""Spans around the program's public entry points, for the traced run only.

``Tracer.install`` replaces each entry point at the name its caller looks it
up by (``analytic.propagate_converged`` is the name the sweep calls) with a
wrapper that records a span: name, call site, start, end and the index of the
enclosing span.  Spans stay in memory until ``layer_metrics`` reduces them
and the caller writes them out.  A name that no longer exists is skipped, so
the traced run keeps working after the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module looked up in, attribute, span name)
ENTRY_POINTS = (
    ("squeezesim.evolution", "eval_omega", "frequency.eval_omega"),
    ("squeezesim.cli", "propagate_converged", "evolution.propagate_converged"),
    ("squeezesim.analytic", "propagate_converged", "evolution.propagate_converged"),
    ("squeezesim.cli", "post_transition_summary", "evolution.post_transition_summary"),
    ("squeezesim.analytic", "post_transition_summary", "evolution.post_transition_summary"),
    ("squeezesim.analytic", "reference_sweep_data", "analytic.reference_sweep_data"),
    ("squeezesim.analytic", "fit_ansatz", "analytic.fit_ansatz"),
    ("squeezesim.output", "trajectory_csv", "output.trajectory_csv"),
    ("squeezesim.output", "summary_text", "output.summary_text"),
    ("squeezesim.output", "sweep_csv", "output.sweep_csv"),
    ("squeezesim.output", "fit_text", "output.fit_text"),
    ("squeezesim.output", "write_text", "output.write_text"),
)
MAIN_SPAN = "cli.main"
# every per-layer metric of the traced run with its unit; the last two are
# measured by run.py, the rest by layer_metrics
UNITS = {
    "cli.main_self_s": "s", "frequency.eval_s": "s", "frequency.points": "count",
    "evolution.propagate_s": "s", "evolution.steps": "count", "evolution.levels": "count",
    "evolution.ns_per_step": "ns", "evolution.cell_max_s": "s", "evolution.records": "count",
    "evolution.summary_s": "s", "analytic.cells": "count", "analytic.sweep_self_s": "s",
    "analytic.fit_s": "s", "output.format_s": "s", "output.write_s": "s",
    "output.bytes": "B", "output.rows": "count",
    "cli.import_scipy_s": "s", "trace.overhead_s": "s",
}
FORMATTERS = ("output.trajectory_csv", "output.summary_text", "output.sweep_csv", "output.fit_text")
ANSWER_TEXTS = ("output.trajectory_csv", "output.sweep_csv", "output.fit_text")


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, site, parent):
        self.name, self.site, self.parent = name, site, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"name": self.name, "site": self.site, "start": self.start, "end": self.end,
                "parent": self.parent, "self_s": self.self_s, "counts": self.counts}


def _counts(name: str, args, result) -> dict[str, int]:
    """Work counts read from a call's arguments and result; {} when unreadable."""
    try:
        if name == "frequency.eval_omega":
            t = args[1]
            return {"points": len(t) if hasattr(t, "__len__") else 1}
        if name == "evolution.propagate_converged":
            levels = len(result.delta_history) + 1
            first = result.n_slices >> (levels - 1)
            return {"levels": levels, "steps": first * ((1 << levels) - 1), "records": len(result)}
        if name in ANSWER_TEXTS:
            return {"bytes": len(result.encode()), "rows": result.count("\n")}
    except (AttributeError, IndexError, TypeError):
        pass
    return {}


class Tracer:
    """Records spans around wrapped entry points; one instance per traced answer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name: str, site: str, fn, *args, **kwargs):
        span = Span(name, site, self._stack[-1] if self._stack else None)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent is not None:
                self.spans[span.parent].child_s += span.duration
        span.counts = _counts(name, args, result)
        return result

    def _wrap(self, name: str, site: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, site, fn, *args, **kwargs)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every entry point that exists; return the ones that were found."""
        found = []
        for module_name, attr, name in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, module_name.rsplit(".", 1)[-1], fn))
            found.append(f"{module_name}.{attr}")
        return found

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()


def layer_metrics(spans: list[Span], speed: float = 1.0) -> dict[str, float]:
    """Per-layer times and counts of one traced answer (its spans only).

    Times are multiplied by ``speed``, the answer's measured speed relative
    to the reference (see speed.py), so that they compare across runs as
    ``answer_s`` does.
    """
    def named(name):
        return [s for s in spans if s.name == name]

    def total(names, attr="duration"):
        return sum(getattr(s, attr) for s in spans if s.name in names)

    def count(names, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    props = named("evolution.propagate_converged")
    prop = ("evolution.propagate_converged",)
    propagate_s = total(prop, "self_s")
    steps = count(prop, "steps")
    metrics = {
        "cli.main_self_s": total((MAIN_SPAN,), "self_s"),
        "frequency.eval_s": total(("frequency.eval_omega",)),
        "frequency.points": count(("frequency.eval_omega",), "points"),
        "evolution.propagate_s": propagate_s,
        "evolution.steps": steps,
        "evolution.levels": count(prop, "levels"),
        "evolution.ns_per_step": 1e9 * propagate_s / steps if steps else 0.0,
        "evolution.cell_max_s": max((s.duration for s in props), default=0.0),
        "evolution.records": count(prop, "records"),
        "evolution.summary_s": total(("evolution.post_transition_summary",)),
        "analytic.cells": sum(1 for s in props if s.site == "analytic"),
        "analytic.sweep_self_s": total(("analytic.reference_sweep_data",), "self_s"),
        "analytic.fit_s": total(("analytic.fit_ansatz",)),
        "output.format_s": total(FORMATTERS),
        "output.write_s": total(("output.write_text",)),
        "output.bytes": count(ANSWER_TEXTS, "bytes"),
        "output.rows": count(ANSWER_TEXTS, "rows"),
    }
    return {k: v * speed if UNITS[k] in ("s", "ns") else v for k, v in metrics.items()}

