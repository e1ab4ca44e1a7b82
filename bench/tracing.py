"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the mumbounds modules from outside
the package: each name is replaced at every mumbounds module that holds
it, so calls that go through ``from .x import f`` are caught too.
``numpy.linalg.svd`` and ``numpy.linalg.eigvalsh`` are recorded only as
children of ``criteria.build_correlation_matrix``, so that its self time
is the contraction and the density check; elsewhere (t-interval, state
validation) the eigensolver stays part of the caller's self time.

Spans are kept in memory as [name, start, end, parent, attrs] and
written out by ``write`` once the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> public functions wrapped; the span name is "<module>.<function>"
TRACED = {
    "basis": ("gellmann_generators", "partition_basis"),
    "mums": (
        "build_f_blocks",
        "t_interval",
        "build_mums",
        "verify_mum_relations",
        "two_design_residual",
    ),
    "states": ("load_state", "validate_density", "save_state"),
    "criteria": ("build_correlation_matrix", "concurrence_lower_bound"),
    "threshold": ("find_threshold",),
    "cli": ("run_sweep", "run_threshold", "render_csv", "main"),
}
FACTORISATIONS = ("svd", "eigvalsh")
FACTORISATION_PARENT = "criteria.build_correlation_matrix"
SPAN_NAMES = [f"{module}.{fname}" for module, names in TRACED.items() for fname in names] + [
    f"criteria.{fname}" for fname in FACTORISATIONS
]
# spans whose call count is reported (the rest report self time only)
COUNTED = (
    "basis.gellmann_generators",
    "basis.partition_basis",
    "mums.t_interval",
    "mums.build_mums",
    "states.load_state",
    "states.validate_density",
    "states.save_state",
    "criteria.svd",
    "criteria.concurrence_lower_bound",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _note_partition(attrs, args, kwargs, result):
    attrs["d"] = int(_arg(args, kwargs, 1, "d"))


def _note_file(attrs, args, kwargs, result, index):
    path = os.fspath(_arg(args, kwargs, index, "path"))
    attrs["path"] = path
    attrs["bytes"] = os.path.getsize(path)


def _note_correlation(attrs, args, kwargs, result):
    attrs["convention"] = _arg(args, kwargs, 3, "convention", "P")


def _note_threshold(attrs, args, kwargs, result):
    attrs["evaluations"] = result.evaluations


NOTES = {
    "basis.partition_basis": _note_partition,
    "states.load_state": lambda *a: _note_file(*a, index=0),
    "states.save_state": lambda *a: _note_file(*a, index=1),
    "criteria.build_correlation_matrix": _note_correlation,
    "threshold.find_threshold": _note_threshold,
}


class Tracer:
    """Records nested spans around the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else None, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                note(span[4], args, kwargs, result)
            return result

        return traced

    def _wrap_factorisation(self, name, fn):
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def maybe_traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]][0] == FACTORISATION_PARENT:
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return maybe_traced

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import mumbounds.cli  # noqa: F401  (loads every module below)

        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"mumbounds.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                wrappers[id(original)] = self._wrap(f"{module}.{fname}", original)
        for modname, mod in list(sys.modules.items()):
            if modname != "mumbounds" and not modname.startswith("mumbounds."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        for fname in FACTORISATIONS:
            original = getattr(np.linalg, fname)
            self._patch(np.linalg, fname, self._wrap_factorisation(f"criteria.{fname}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                record.update(attrs)
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as name -> (value, unit)."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        children_s: defaultdict = defaultdict(float)
        for name, start, end, parent, attrs in self.spans:
            if parent is not None:
                children_s[parent] += end - start
        for index, (name, start, end, parent, attrs) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - children_s[index]

        def spans_of(name):
            return [span[4] for span in self.spans if span[0] == name]

        def per_pass(value):
            return value / passes

        def ratio(distinct, calls):
            # distinct inputs over calls in one pass; every pass repeats the
            # same inputs, and no calls means no wasted work
            return distinct / per_pass(calls) if calls else 1.0

        out: dict[str, tuple[float, str]] = {}
        for name in COUNTED:
            out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = (per_pass(self_s[name]) * 1e3, "ms")

        correlation = Counter(a["convention"] for a in spans_of(FACTORISATION_PARENT))
        out["criteria.build_correlation_matrix.P.calls"] = (per_pass(correlation["P"]), "count")
        out["criteria.build_correlation_matrix.F.calls"] = (per_pass(correlation["F"]), "count")

        dims = [a["d"] for a in spans_of("basis.partition_basis")]
        out["basis.partition_basis.useful_ratio"] = (ratio(len(set(dims)), len(dims)), "ratio")

        loads = spans_of("states.load_state")
        out["states.load_state.bytes"] = (per_pass(sum(a["bytes"] for a in loads)), "bytes")
        out["states.load_state.useful_ratio"] = (
            ratio(len({a["path"] for a in loads}), len(loads)),
            "ratio",
        )
        saves = spans_of("states.save_state")
        out["states.save_state.bytes"] = (per_pass(sum(a["bytes"] for a in saves)), "bytes")

        evaluations = sum(a["evaluations"] for a in spans_of("threshold.find_threshold"))
        out["threshold.find_threshold.evaluations"] = (per_pass(evaluations), "count")
        return out
