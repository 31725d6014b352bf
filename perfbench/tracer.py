"""Per-layer tracing of the cdspool modules, installed from outside ``src/``.

The package imports functions by name (``from .exposure import
exposure_limit``), so a wrapper is installed at every module attribute that
is bound to the original function object. Each wrapped call is a span; a
span's self time is its duration minus the durations of the wrapped calls
it made. Spans live on one stack, which is correct because the benchmark
runs every experiment with ``--workers 1``.

Wrappers return exactly what the wrapped function returns and pass the
arguments through unchanged (``simpson_adaptive`` gets a counting shim
around its integrand that returns the integrand's own values), so traced
outputs are byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np


def _pathset_work(stats: dict, args, kwargs, result) -> None:
    n_steps = int(round(result.horizon / result.dt))
    stats["entity_steps"] += result.n_paths * result.n_entities * n_steps
    stored = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    stats["stored_bytes"] = max(stats["stored_bytes"], stored)


def _bve_draws(stats: dict, args, kwargs, result) -> None:
    stats["draws"] += int(np.size(result[0]))


def _written_bytes(stats: dict, args, kwargs, result) -> None:
    out_dir = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    stats["bytes"] += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


# accumulators of one layer; a layer the run never entered reads as EMPTY
EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "evals": 0, "draws": 0,
         "entity_steps": 0, "stored_bytes": 0, "bytes": 0}

# (module, function, layer key, work recorder called with args, kwargs, result)
TARGETS = [
    ("simulation", "simulate_paths", "simulation.simulate_paths", _pathset_work),
    ("simulation", "mc_exposure", "simulation.mc_exposure", None),
    ("simulation", "mc_h1_oracle", "simulation.mc_kernel_oracles", None),
    ("simulation", "mc_h2_oracle", "simulation.mc_kernel_oracles", None),
    ("simulation", "mc_joint_survival_oracle", "simulation.mc_kernel_oracles", None),
    ("simulation", "mc_limit_transform", "simulation.mc_limit_transform", None),
    ("exposure", "exposure_limit", "exposure.exposure_limit", None),
    ("exposure", "survival_fhat", "exposure.survival_fhat", None),
    ("kernels", "bcva", "kernels.bcva", None),
    ("kernels", "build_kernel_coeffs", "kernels.build_kernel_coeffs", None),
    ("quadrature", "simpson_adaptive", "quadrature.simpson_adaptive", None),
    ("riccati", "riccati_b", "riccati.riccati_b", None),
    ("riccati", "rk4_solve", "riccati.rk4_solve", None),
    ("jumps", "sample_bve", "jumps.sample_bve", _bve_draws),
    ("harness", "write_run", "harness.write_run", _written_bytes),
    ("cli", "build_spec", "cli.build_spec", None),
]


class Tracer:
    """Span stack plus per-layer accumulators (calls, total, self time, counts)."""

    def __init__(self) -> None:
        self.layers: dict[str, dict] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def _stats(self, key: str) -> dict:
        return self.layers.setdefault(key, dict(EMPTY))

    def span(self, key: str, fn, args, kwargs, record=None):
        stats = self._stats(key)
        child = [0.0]
        self._stack.append(child)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            stats["calls"] += 1
            stats["total_s"] += dt
            stats["self_s"] += dt - child[0]
            if self._stack:
                self._stack[-1][0] += dt
        if record is not None:
            record(stats, args, kwargs, result)
        return result

    def _wrap(self, key: str, original, record):
        if key == "quadrature.simpson_adaptive":
            stats = self._stats(key)

            @functools.wraps(original)
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    stats["evals"] += int(np.size(x))
                    return f(x)
                return self.span(key, original, (counted,) + args, kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self.span(key, original, args, kwargs, record)
        return wrapper

    def install(self) -> None:
        """Wrap every target at each ``cdspool`` module attribute bound to it,
        and each validation check in the gate's check table."""

        importlib.import_module("cdspool")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cdspool" or name.startswith("cdspool.")]
        for mod_name, fn_name, key, record in TARGETS:
            module = sys.modules.get(f"cdspool.{mod_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(key, original, record)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

        harness = sys.modules["cdspool.harness"]
        checks = getattr(harness, "_CHECKS", None)
        if checks is None:
            self.missing.append("harness._CHECKS")
            return
        for i, (name, fn) in enumerate(checks):
            def timed(offset, _fn=fn, _key=f"harness.check.{name}"):
                return self.span(_key, _fn, (offset,), {})
            checks[i] = (name, timed)
