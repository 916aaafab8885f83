"""Spans around rotvac's public functions, for the traced run only.

``patch_everywhere`` replaces a function under every name rotvac's modules
hold it by: functions imported by name (``from .numerics import
integrate_sphere``) are separate module attributes, and patching only the
defining module would miss their callers.  The untraced run never calls it.

Spans are kept in memory and written out when the run ends.  A span records
its name, start, end, parent span and the id of the value (operation) it
belongs to.  Worker threads of the Monte Carlo pool have no open span of their
own; their spans take the operation's span as parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) pairs that get spans; numerics first so that the
# per-layer names are stable
TRACED = (
    ("numerics", "integrate_sphere"),
    ("numerics", "integrate_1d"),
    ("numerics", "abel_sum"),
    ("cf_continuous", "em_cf_continuous"),
    ("cf_continuous", "em_cf_tensor_quadrature"),
    ("cf_continuous", "scalar_cf_quadrature"),
    ("cf_discrete", "em_cf_discrete"),
    ("cf_discrete", "scalar_cf_discrete"),
    ("cf_discrete", "thermal_ladder_integral"),
    ("cf_discrete", "cubic_ladder_split"),
    ("cf_discrete", "linear_ladder_split"),
    ("thermo", "em_energy_density"),
    ("thermo", "scalar_thermal_density_quadrature"),
    ("montecarlo", "build_mode_set"),
    ("montecarlo", "draw_phases"),
    ("montecarlo", "eval_lab_fields"),
    ("montecarlo", "empirical_cf"),
    ("montecarlo", "empirical_energy_density"),
)


def patch_everywhere(package: str, module: str, name: str,
                     make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace package.module.name, and every other module attribute of the
    package that is the same function object, by make_wrapper(function).

    Returns a function that restores every replaced attribute.
    """
    original = getattr(sys.modules[f"{package}.{module}"], name)
    wrapper = make_wrapper(original)
    replaced = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                replaced.append((mod, attr))

    def restore():
        for mod, attr in replaced:
            setattr(mod, attr, original)
    return restore


class Tracer:
    """Collects spans from any thread; install() and uninstall() add and
    remove the wrappers."""

    FIELDS = ("id", "parent", "name", "start", "end", "value", "thread", "ok", "modes")

    def __init__(self):
        self.spans: List[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []
        self.value_id: Optional[int] = None       # set by the runner per operation
        self.value_span: Optional[int] = None

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        parent = stack[-1] if stack else self.value_span
        sid = self._next_id()
        stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            modes = 0
            if name.endswith("eval_lab_fields") and args:
                modes = int(args[0].mode_count)
            self._record((sid, parent, name, start, end, self.value_id,
                          threading.get_ident(), ok, modes))

    def _make_wrapper(self, label: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(label, fn, *args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        for module, name in TRACED:
            self._restore.append(patch_everywhere("rotvac", module, name,
                                                  self._make_wrapper(f"{module}.{name}")))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def op(self, value_id: int, key: str, fn: Callable):
        """Run one operation as the root span of its value."""
        self.value_id = value_id
        stack = self._stack()
        sid = self._next_id()
        self.value_span = sid
        stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn()
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record((sid, None, f"op:{key}", start, end, value_id,
                          threading.get_ident(), ok, 0))
            self.value_id = self.value_span = None

    def layer_metrics(self, rounds: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: calls and inclusive busy ms per traced round."""
        by_name: Dict[str, list] = {}
        for s in self.spans:
            by_name.setdefault(s[2], []).append(s)

        def calls(name):
            return len(by_name.get(name, ())) / rounds

        def ms(name, per_call=False):
            spans = by_name.get(name, ())
            total = sum(s[4] - s[3] for s in spans) * 1e3
            if per_call:
                return total / len(spans) if spans else 0.0
            return total / rounds

        out: Dict[str, Tuple[float, str]] = {}
        for module, name in TRACED:
            full = f"{module}.{name}"
            if name == "build_mode_set":
                out[f"{full}.ms"] = (ms(full, per_call=True), "ms")
                continue
            out[f"{full}.ms"] = (ms(full), "ms")
            if name in ("integrate_sphere", "integrate_1d", "abel_sum", "thermal_ladder_integral",
                        "draw_phases", "eval_lab_fields"):
                out[f"{full}.calls"] = (calls(full), "count")
        failed = sum(1 for s in by_name.get("numerics.integrate_sphere", ()) if not s[7])
        out["numerics.integrate_sphere.failed"] = (failed / rounds, "count")

        evals = by_name.get("montecarlo.eval_lab_fields", ())
        eval_s = sum(s[4] - s[3] for s in evals)
        mode_evals = sum(s[8] for s in evals)
        out["montecarlo.mode_evals_per_s"] = (mode_evals / eval_s if eval_s > 0 else 0.0, "1/s")
        energy = by_name.get("montecarlo.empirical_energy_density", ())
        energy_values = {s[5] for s in energy}
        energy_s = sum(s[4] - s[3] for s in energy)
        energy_eval_s = sum(s[4] - s[3] for s in evals if s[5] in energy_values)
        out["montecarlo.eval_parallelism"] = (
            energy_eval_s / energy_s if energy_s > 0 else 0.0, "ratio")
        return out

    def write(self, path, values: Dict[int, str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": self.FIELDS, "values": values, "spans": self.spans}, fh)
            fh.write("\n")
