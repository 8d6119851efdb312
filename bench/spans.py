"""Spans and counts for the traced run.

The tracer wraps the public functions of rqbm's compute modules, and
`Grid1D.deriv`, wherever a module looks them up, so calls made inside the
package are recorded too.  Each call becomes one span: name, start, end,
parent span and a few attributes of its arguments or result.  Spans stay in
memory; `layer_metrics` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("dispersion", "evolve", "madelung", "grid", "spectrum")

# name, unit: every per-layer metric the traced run prints
METRICS = (
    ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.row_us", "us"),
    ("cli.rows_written", "count"), ("cli.bytes_written", "bytes"),
    ("startup.import_s", "s"),
    ("dispersion.solve_roots_calls", "count"), ("dispersion.solve_roots_s", "s"),
    ("dispersion.solve_roots_us", "us"), ("dispersion.track_branches_s", "s"),
    ("dispersion.match_us", "us"), ("dispersion.build_polynomial_calls", "count"),
    ("evolve.field_s", "s"), ("evolve.field_snapshots", "count"),
    ("evolve.exact_snapshot_us", "us"), ("evolve.stepper_step_us", "us"),
    ("evolve.retained_mb", "MB"),
    ("evolve.density_calls", "count"), ("evolve.density_s", "s"),
    ("evolve.density_self_s", "s"),
    ("madelung.decompose_calls", "count"), ("madelung.decompose_s", "s"),
    ("madelung.residuals_s", "s"), ("madelung.quantum_potential_s", "s"),
    ("madelung.window_us", "us"),
    ("grid.deriv_calls", "count"), ("grid.deriv_s", "s"),
    ("spectrum.nonrel_eigen_calls", "count"), ("spectrum.nonrel_eigen_s", "s"),
    ("spectrum.richardson_s", "s"),
    ("trace.overhead_s", "s"),
)


def _nbytes(obj, seen: set) -> int:
    """Bytes of every distinct numpy array reachable through tuples, lists
    and dataclass fields."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o, seen) for o in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f), seen) for f in obj.__dataclass_fields__)
    return 0


def _field_attrs(args, kwargs, result) -> dict:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    snaps = result[0] if isinstance(result, tuple) else result
    # a lazily evaluated result has no length and retains nothing yet
    return {"method": config.method, "steps": int(config.steps),
            "snapshots": len(snaps) if isinstance(snaps, list) else 0,
            "bytes": _nbytes(result, set())}


def _track_attrs(args, kwargs, result) -> dict:
    return {"k_points": len(result.k_grid)}


ATTRS = {"evolve.evolve_field": _field_attrs, "dispersion.track_branches": _track_attrs}


class Tracer:
    """Records spans as [id, parent, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(),
                None, None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        attrs = ATTRS.get(name)
        if attrs is not None:
            span[5] = attrs(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every public function of MODULES in every rqbm module that
        holds a reference to it, plus the Grid1D.deriv method."""
        import rqbm.cli  # noqa: F401  (loads every module the CLI uses)
        from rqbm.grid import Grid1D

        loaded = [m for n, m in sys.modules.items() if n == "rqbm" or n.startswith("rqbm.")]
        for short in MODULES:
            mod = sys.modules[f"rqbm.{short}"]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for holder in loaded:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._patch(holder, attr, wrapper)
        self._patch(Grid1D, "deriv", self._wrap("grid.deriv", Grid1D.deriv))

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches.clear()


def layer_metrics(spans: list[list], rows: int, nbytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but startup and overhead)."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += dur[s[0]]
    total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        total[s[2]] += dur[s[0]]
        self_t[s[2]] += dur[s[0]] - child[s[0]]
        calls[s[2]] += 1

    def per(num: float, den: float, scale: float = 1e6) -> float:
        return num / den * scale if den else 0.0

    fields = [s for s in spans if s[2] == "evolve.evolve_field"]
    exact = [s for s in fields if s[5]["method"] == "exact_mode"]
    stepper = [s for s in fields if s[5]["method"] == "stepper"]
    k_steps = sum(s[5]["k_points"] - 1 for s in spans if s[2] == "dispersion.track_branches")
    windows = calls["madelung.residuals"]
    return {
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_t["cli.main"],
        "cli.row_us": per(self_t["cli.main"], rows),
        "cli.rows_written": rows,
        "cli.bytes_written": nbytes,
        "dispersion.solve_roots_calls": calls["dispersion.solve_roots"],
        "dispersion.solve_roots_s": total["dispersion.solve_roots"],
        "dispersion.solve_roots_us": per(total["dispersion.solve_roots"],
                                         calls["dispersion.solve_roots"]),
        "dispersion.track_branches_s": total["dispersion.track_branches"],
        "dispersion.match_us": per(self_t["dispersion.track_branches"], k_steps),
        "dispersion.build_polynomial_calls": calls["dispersion.build_polynomial"],
        "evolve.field_s": total["evolve.evolve_field"],
        "evolve.field_snapshots": sum(s[5]["snapshots"] for s in fields),
        "evolve.exact_snapshot_us": per(sum(dur[s[0]] for s in exact),
                                        sum(s[5]["snapshots"] for s in exact)),
        "evolve.stepper_step_us": per(sum(dur[s[0]] for s in stepper),
                                      sum(s[5]["steps"] for s in stepper)),
        "evolve.retained_mb": max((s[5]["bytes"] for s in fields), default=0) / 2**20,
        "evolve.density_calls": calls["evolve.evolve_density"],
        "evolve.density_s": total["evolve.evolve_density"],
        "evolve.density_self_s": self_t["evolve.evolve_density"],
        "madelung.decompose_calls": calls["madelung.decompose"],
        "madelung.decompose_s": total["madelung.decompose"],
        "madelung.residuals_s": total["madelung.residuals"],
        "madelung.quantum_potential_s": total["madelung.quantum_potential"],
        "madelung.window_us": per(total["madelung.decompose"] + total["madelung.residuals"],
                                  windows),
        "grid.deriv_calls": calls["grid.deriv"],
        "grid.deriv_s": total["grid.deriv"],
        "spectrum.nonrel_eigen_calls": calls["spectrum.nonrel_eigen"],
        "spectrum.nonrel_eigen_s": total["spectrum.nonrel_eigen"],
        "spectrum.richardson_s": total["spectrum.nonrel_eigen_richardson"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
