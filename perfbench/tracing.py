"""In-memory spans around calls into spinquad's public functions.

``Tracer.installed()`` wraps each function named in ``TRACED`` and rebinds
the wrapper in every ``spinquad`` module that holds the original object, so
``from .odmr import odmr_spectrum`` in ``cli`` is traced as well as calls
inside ``odmr``.  A span is (name, start, end, parent index); spans are kept
in memory and written out by the caller.  Self time is a span's duration
minus the time covered by its child spans.

Spans made in ``--jobs`` worker processes are lost when the workers exit, so
traced passes must run their sweeps in-process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("spin_algebra", "hamiltonian", "kinetics", "odmr", "rate_model",
          "multipoles", "config", "cli")

TRACED = (
    "spin_algebra.hermitian_eig",
    "hamiltonian.eigensystem",
    "hamiltonian.transition_table",
    "kinetics.build_generator",
    "kinetics.steady_state",
    "kinetics.level_report",
    "odmr.drive_superoperator",
    "odmr.mw_response",
    "odmr.odmr_spectrum",
    "rate_model.transfer_matrices",
    "rate_model.odmr_line_intensity",
    "multipoles.husimi",
    "multipoles.model_peak_areas",
    "multipoles.extract_from_peak_areas",
    "config.load_config",
    "cli.write_csv",
    "cli.write_json",
    "cli.main",
)

# Functions whose distinct argument tuples are counted: distinct / calls is
# the share of calls that did not repeat an earlier call's work.
DISTINCT = ("kinetics.build_generator", "odmr.drive_superoperator")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.keys: dict = defaultdict(set)
        self._stack: list = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in DISTINCT else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                self.keys[name].add(tuple(bound.arguments.values()))
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx] = (name, start, perf_counter(), parent)
                self._stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced function in all loaded spinquad modules."""
        originals = {}
        for name in TRACED:
            module, attr = name.split(".")
            originals[name] = getattr(importlib.import_module(f"spinquad.{module}"), attr)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        rebound = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinquad" and not mod_name.startswith("spinquad."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def summary(self) -> dict:
        """Per function: calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["total_s"] += end - start
            out[name]["self_s"] += end - start - child[i]
        for name in DISTINCT:
            calls = out[name]["calls"]
            out[name]["distinct_frac"] = len(self.keys[name]) / calls if calls else 0.0
        return out
