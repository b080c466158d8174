"""Outside-in span recorder for the qwalk layers.

The recorder wraps public functions of the package from outside it and
changes nothing under ``src/``.  A function imported with ``from .x
import f`` has one binding per importing module (``qwalk.cli``,
``qwalk.analysis`` and the ``qwalk`` package each hold their own
``evolve``), so every module-level binding of the original object is
replaced; patching only the home module would miss the CLI's calls.
Methods are patched once, on their class.

Each call records a span ``(layer, op, start, end, parent, counts)``.
Spans stay in memory; :meth:`SpanRecorder.layer_totals` folds them into
per-layer calls, self time (span minus child spans) and work counts.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _evolve_counts(args, kwargs, result):
    t = _arg(args, kwargs, 2, "t_final")
    key = (_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "schedule"), t)
    return {"site_steps": t * t, "input": key}


def _spectral_counts(args, kwargs, result):
    t = _arg(args, kwargs, 2, "t_final")
    n = _arg(args, kwargs, 3, "n_grid") or 2 * t + 2
    return {"grid_steps": n * t}


def _emit_counts(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    path = _arg(args, kwargs, 2, "path")
    counts = {"rows": len(data) if isinstance(data, list) else 1}
    if path is not None:
        counts["bytes"] = os.path.getsize(path)
    return counts


#: Traced layers: (module, attribute path, work counter).  A counter maps
#: a call's arguments and result to the work it did.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("qwalk.dynamics", "evolve", _evolve_counts),
    ("qwalk.dynamics", "step", None),
    ("qwalk.dynamics", "distribution",
     lambda a, k, r: {"sites": len(_arg(a, k, 0, "state").amps)}),
    ("qwalk.spectral", "spectral_evolve", _spectral_counts),
    ("qwalk.spectral", "eigensystem",
     lambda a, k, r: {"ks": int(np.size(_arg(a, k, 1, "k")))}),
    ("qwalk.limits", "LimitDensity.cdf",
     lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "x")))}),
    ("qwalk.limits", "LimitDensity.density", None),
    ("qwalk.limits", "LimitDensity.moment", None),
    ("qwalk.limits", "limit_masses", lambda a, k, r: {"positions": len(r)}),
    ("qwalk.analysis", "mass_trace", lambda a, k, r: {"taus": len(r.taus)}),
    ("qwalk.analysis", "rescaled_cdf_distance", None),
    ("qwalk.analysis", "moment", None),
    ("qwalk.analysis", "localized_mass", None),
    ("qwalk.cli", "emit", _emit_counts),
    ("qwalk.cli", "main", None),
)


def layer_name(module: str, path: str) -> str:
    """Metric prefix of a traced layer, e.g. ``limits.LimitDensity.cdf``."""
    return f"{module.removeprefix('qwalk.')}.{path}"


class Span(NamedTuple):
    layer: str
    op: object
    start: float
    end: float
    parent: int
    counts: dict | None


class SpanRecorder:
    """Context manager that traces :data:`TARGETS` while it is open.

    Set :attr:`op` before each CLI call; spans record it, so the spans
    of one op share that identifier.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op: object = None
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qwalk" or name.startswith("qwalk."))]
        for module, path, counter in TARGETS:
            layer = layer_name(module, path)
            owner = sys.modules[module]
            cls_name, _, method = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(layer, original, counter))
                self.bindings[layer] = 1
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(layer, original, counter)
            count = 0
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)
                        count += 1
            self.bindings[layer] = count
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(layer, self.op, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans[index] = Span(layer, self.op, start, end, parent, counts)
            return result

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and summed work counts.

        ``distinct`` counts distinct ``evolve`` inputs within each op,
        summed over ops, so a command that evolves the same walk twice
        shows it.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        inputs = defaultdict(set)
        for i, span in enumerate(self.spans):
            layer = totals[span.layer]
            layer["calls"] += 1
            layer["self_s"] += span.end - span.start - child[i]
            for key, value in (span.counts or {}).items():
                if key == "input":
                    inputs[span.op].add(value)
                else:
                    layer[key] += value
        if inputs:
            totals["dynamics.evolve"]["distinct"] = sum(len(v) for v in inputs.values())
        return {name: dict(values) for name, values in totals.items()}

    def span_log(self) -> list[list]:
        """Spans as JSON-ready rows ``[layer, op, start, end, parent, counts]``."""
        return [[s.layer, s.op, s.start, s.end, s.parent,
                 {k: v for k, v in (s.counts or {}).items() if k != "input"}]
                for s in self.spans]
