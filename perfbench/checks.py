"""Output checks, one per workload, using only the accuracy cdspool promises.

Each check reads the files one operation wrote and returns a list of
problems; an empty list means the operation's output is correct.

- convergence: acceptance criterion 5 for the jump panels (the tail gap
  between Monte-Carlo and limit exposure is non-increasing within
  3 stderr, and exactly zero at maturity), plus the ``limit_exposure``
  column equal, as written, to a fresh ``exposure_limit`` evaluation.
- sweeps: acceptance criterion 7 monotonicity, plus every CVA/DVA value
  within ``bcva``'s own relative tolerance (1e-6) of the seed code's values
  stored in ``reference/bcva_sweeps.json``.
- gate: every one of the 20 validation checks reports PASS.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "bcva_sweeps.json"

# bcva's quadrature tolerance; the absolute floor covers its abs_tol of 1e-14
# per integration piece on points whose CVA or DVA is zero
SWEEP_REL_TOL = 1e-6
SWEEP_ABS_TOL = 1e-12

GATE_CHECKS = (
    "riccati_b_vs_rk4", "riccati_beta_vs_rk4", "riccati_beta_general_vs_rk4",
    "integral_b_vs_simpson", "integral_b_phi_identity", "beta_flow_property",
    "integral_beta_vs_simpson", "mgf_exp_vs_mc", "mgf_bve_vs_mc",
    "mgf_bve_partials_vs_fd", "bve_sampler_moments", "bve_empirical_mgf",
    "fhat_cir_reduction", "fhat_vs_limit_sde_mc", "exposure_limit_vs_simpson",
    "h1_vs_mc", "h2_vs_mc", "joint_survival_vs_mc", "kernel_ode_residuals",
    "cva_vs_nested_mc",
)


def build_spec(config: Path, experiment: str, seed: int | None, sets: tuple[str, ...]):
    """The ExperimentSpec the CLI builds for this invocation."""

    from cdspool import cli

    text = config.read_text(encoding="utf-8")
    mapping = cli.parse_config(text)
    for pair in sets:
        key, value = pair.split("=", 1)
        mapping[key] = value
    return cli.build_spec(mapping, experiment, seed, 1, text)


def _read_curve(out: Path, label: str) -> tuple[list[str], list[list[str]]]:
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    with open(out / manifest["curves"][label], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(rows: list[list[str]], j: int) -> np.ndarray:
    return np.array([float(r[j]) for r in rows])


def check_convergence(runs: list[tuple[Path, object]]) -> list[str]:
    return [p for out, spec in runs for p in _check_convergence_run(out, spec)]


def _check_convergence_run(out: Path, spec) -> list[str]:
    from cdspool.exposure import exposure_limit
    from cdspool.harness import grid_for_samples

    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    if manifest["provenance"]["seed"] != spec.seed:
        return [f"manifest seed {manifest['provenance']['seed']} != {spec.seed}"]
    _, times = grid_for_samples(spec.horizon, spec.n_times, spec.dt)
    limit = ["%.10e" % exposure_limit(float(t), spec.horizon, spec.limit) for t in times]
    problems = []
    for K in spec.k_values:
        header, rows = _read_curve(out, f"exposure-K{K}")
        tag = f"K={K}"
        if header != ["t", "mc_exposure", "mc_stderr", "limit_exposure"]:
            problems.append(f"{tag}: unexpected header {header}")
            continue
        if [r[0] for r in rows] != ["%.10e" % t for t in times]:
            problems.append(f"{tag}: sample times differ from the configured grid")
            continue
        if [r[3] for r in rows] != limit:
            problems.append(f"{tag}: limit_exposure differs from a fresh exposure_limit")
        mc, se, lim = (_column(rows, j) for j in (1, 2, 3))
        if not (np.all(np.isfinite(mc)) and np.all(se >= 0.0)):
            problems.append(f"{tag}: non-finite exposure or negative stderr")
            continue
        gap = np.abs(mc - lim)
        n = len(gap)
        tail = slice(3 * n // 4, n)
        allow = 3.0 * (se[tail][1:] + se[tail][:-1])
        if not np.all(np.diff(gap[tail]) <= allow):
            problems.append(f"{tag}: tail gap increases beyond 3 stderr")
        if gap[-1] != 0.0:
            problems.append(f"{tag}: gap at maturity is {gap[-1]:.3e}, not 0")
    return problems


def check_sweeps(runs: list[tuple[Path, object]]) -> list[str]:
    problems, cols = [], {}
    for out, spec in runs:
        found, columns = _check_sweep(out, spec)
        problems += found
        if columns:
            cols[spec.sweep] = columns
    return problems + _sweep_monotonicity(cols)


def _check_sweep(out: Path, spec) -> tuple[list[str], dict]:
    """Check one sweep against the stored values; returns problems and columns."""

    header, rows = _read_curve(out, f"bcva-{spec.sweep}")
    if header != [spec.sweep, "cva", "dva", "bcva"]:
        return [f"{spec.sweep}: unexpected header {header}"], {}
    if [r[0] for r in rows] != ["%.10e" % v for v in spec.sweep_values]:
        return [f"{spec.sweep}: sweep values differ from the config"], {}
    ref = next((r for k, r in json.loads(REFERENCE.read_text()).items()
                if k != "note" and r["sweep"] == spec.sweep), None)
    if ref is None:
        return [f"{spec.sweep}: no stored reference values"], {}
    ref_at = {v: (c, d) for v, c, d in zip(ref["values"], ref["cva"], ref["dva"])}
    cols = {name: _column(rows, j) for j, name in enumerate(("x", "cva", "dva", "bcva"))}
    problems = []
    for i, v in enumerate(cols["x"]):
        if v not in ref_at:
            problems.append(f"{spec.sweep}={v}: no stored reference value")
            continue
        for name, want in zip(("cva", "dva"), ref_at[v]):
            got = float(cols[name][i])
            if not abs(got - want) <= SWEEP_REL_TOL * abs(want) + SWEEP_ABS_TOL:
                problems.append(f"{spec.sweep}={v}: {name}={got!r}, stored {want!r}")
    if not np.allclose(cols["bcva"], cols["dva"] - cols["cva"], rtol=1e-9, atol=1e-15):
        problems.append(f"{spec.sweep}: bcva != dva - cva")
    return problems, cols


def _sweep_monotonicity(cols: dict[str, dict]) -> list[str]:
    """Acceptance criterion 7 on whichever of fig2/fig4/fig5 were run."""

    problems = []
    if "sigma_star" in cols and not np.all(np.diff(cols["sigma_star"]["cva"]) >= -1e-12):
        problems.append("CVA not nondecreasing in the pool volatility")
    if "lambda_c" in cols and not np.all(np.diff(cols["lambda_c"]["dva"]) >= -1e-12):
        problems.append("DVA not nondecreasing in the common-jump rate")
    if ("sigma_star" in cols and "lambda_c" in cols
            and not cols["lambda_c"]["cva"][-1] <= 0.05 * cols["sigma_star"]["cva"].max()):
        problems.append("CVA does not fall below 5% of its volatility-sweep peak")
    if "c_star" in cols and not (np.all(cols["c_star"]["cva"] <= 1e-8)
                                 and np.all(np.diff(cols["c_star"]["dva"]) <= 1e-12)):
        problems.append("high-risk pool: CVA not ~0 or DVA not nonincreasing in c")
    return problems


def read_gate_report(out: Path) -> dict[str, tuple[str, float, float]]:
    """``validation_report.txt`` as {check: (status, err, tol)}."""

    report = {}
    for line in (out / "validation_report.txt").read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2].startswith("err=") and parts[3].startswith("tol="):
            report[parts[1]] = (parts[0], float(parts[2][4:]), float(parts[3][4:]))
    return report


def check_gate(runs: list[tuple[Path, object]]) -> list[str]:
    return [p for out, _ in runs for p in _check_gate_run(out)]


def _check_gate_run(out: Path) -> list[str]:
    report = read_gate_report(out)
    problems = [f"{name}: missing from the report" for name in GATE_CHECKS
                if name not in report]
    problems += [f"{name}: {status} err={err:.6e} tol={tol:.1e}"
                 for name, (status, err, tol) in report.items()
                 if status != "PASS" or not (math.isfinite(err) and err <= tol)]
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    if manifest.get("validation", {}).get("passed") is not True:
        problems.append("manifest does not record a passing gate")
    return problems
