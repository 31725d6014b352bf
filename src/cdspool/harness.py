"""Experiment orchestration: convergence studies, sensitivity sweeps, the
closed-form-vs-oracle validation gate, and result persistence.

Every experiment is pure given (spec, seed): outputs carry no timestamps
and reductions happen in fixed order, so re-running with the same spec and
any worker count reproduces the files byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import kernels
from . import __version__
from .errors import ConfigError
from .exposure import (LimitConfig, build_name_sequence, empirical_measure_eval,
                       exposure_limit, limit_exp_test, survival_fhat)
from .jumps import BveParams, mgf_bve, mgf_bve_partials, mgf_exp, sample_bve
from .quadrature import composite_simpson
from .riccati import (exp_phi, integral_b, integral_beta, riccati_b, riccati_beta,
                      riccati_beta_general, rk4_riccati)
from .simulation import (CounterpartyParams, CounterpartySide, Pool, _euler_blocks,
                         _pair_stderr, _richardson, _stderr, exact_book_values, map_ordered,
                         mc_kernel_oracles, mc_limit_transform)

__all__ = [
    "CurveTable",
    "EXPERIMENTS",
    "ExperimentSpec",
    "CheckResult",
    "ValidationReport",
    "run_convergence",
    "run_measure_convergence",
    "run_bcva_sweeps",
    "run_validation",
    "run_experiment",
    "write_run",
    "grid_for_samples",
    "default_counterparties",
    "VALIDATION_SEED",
]

EXPERIMENTS = ("convergence", "bcva-sweep", "validate", "measure-convergence")
VALIDATION_SEED = 20240901
# paths of the gate's limit-SDE oracle: twelve 4096-path narrow blocks
_LIMIT_ORACLE_PATHS = 49_152
# fine Euler step of the gate's one pair simulation, whose estimates are
# Richardson-extrapolated against its coupled coarse path of step 1/84: 504
# fine and 252 coarse steps to the CVA maturity 3, with the kernels' lag
# u = 1 on both grids (fine step 168, coarse step 84)
_PAIR_DT = 1.0 / 168


@dataclass
class CurveTable:
    """One labeled result curve: abscissa plus named value columns.

    Columns keep insertion order; stderr columns are suffixed "_stderr".
    """

    label: str
    abscissa_name: str
    abscissa: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = len(self.abscissa)
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"Column {name!r} length differs from abscissa.")
            if name.endswith("_stderr") and not np.all(np.asarray(col) >= 0.0):
                raise ValueError(f"stderr column {name!r} has negative or NaN entries.")

    def write_csv(self, path: Path) -> None:
        """CSV with a header row, floats as %.10e, LF line endings, UTF-8."""

        names = [self.abscissa_name] + list(self.columns)
        cols = [self.abscissa] + [self.columns[c] for c in self.columns]
        lines = [",".join(names)]
        for i in range(len(self.abscissa)):
            lines.append(",".join("%.10e" % float(c[i]) for c in cols))
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs, resolved from config + CLI;
    construction checks that the kind's required inputs are set."""

    kind: str
    limit: LimitConfig | None = None
    cps: CounterpartyParams | None = None
    horizon: float = 1.0
    k_values: tuple[int, ...] = (300,)
    n_paths: int = 2000
    dt: float | None = None          # Euler step; None: target horizon / 1000
    n_times: int = 61
    seed: int | None = None
    repeats: int = 3
    sweep: str | None = None
    sweep_values: tuple[float, ...] = ()
    workers: int = 1
    perturb: dict[str, float] = field(default_factory=dict)
    config_text: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.kind!r}; "
                              f"expected one of {EXPERIMENTS}")
        if self.seed is None and self.kind in ("convergence", "measure-convergence"):
            raise ConfigError(f"experiment {self.kind!r} requires a seed")
        if self.limit is None and self.kind != "validate":
            raise ConfigError(f"experiment {self.kind!r} requires a limit section")
        if self.kind == "bcva-sweep" and (self.cps is None or self.sweep is None
                                          or not self.sweep_values):
            raise ConfigError("bcva-sweep requires a counterparty section, "
                              "a sweep parameter and sweep values")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigError(
                f"experiment horizon must be finite and > 0, got {self.horizon}.")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"experiment dt must be finite and > 0, got {self.dt}.")
        if self.dt is not None and self.kind == "convergence":
            raise ConfigError("experiment dt has no effect on convergence runs, which "
                              "draw the book exactly at the sample times; remove it.")
        if not self.k_values or min(self.k_values) < 1:
            raise ConfigError("experiment k_values must list pool sizes >= 1, "
                              f"got {list(self.k_values)}.")
        if self.repeats < 1:
            raise ConfigError(f"experiment repeats must be >= 1, got {self.repeats}.")

    def config_hash(self) -> str:
        return hashlib.sha256((self.config_text or "").encode("utf-8")).hexdigest()

    def provenance(self) -> dict:
        return {
            "experiment": self.kind,
            "seed": self.seed,
            "config_hash": self.config_hash(),
            "package": "cdspool",
            "version": __version__,
            "n_paths": self.n_paths,
            "k_values": list(self.k_values),
            "dt": self.dt,
            "workers_note": "worker count never affects values",
        }


def default_counterparties() -> CounterpartyParams:
    """Symmetric counterparty pair used by the sensitivity studies."""

    side = CounterpartySide(alpha=0.4, kappa=0.6, sigma=0.3, c=0.3, d=0.3,
                            lambda_hat=0.4, xi0=0.2)
    return CounterpartyParams(side_a=side, side_b=side,
                              common_jump=BveParams(1.5, 1.5, 0.0),
                              idio_jump=BveParams(1.5, 1.5, 0.0),
                              loss_a=0.4, loss_b=0.4)


def grid_for_samples(horizon: float, n_times: int, dt_target: float | None):
    """Euler step and sample grid such that the samples sit on grid nodes.

    Rounds the step down from the target so each inter-sample interval is
    an integer number of steps.
    """

    if n_times < 2:
        raise ConfigError("n_times must be >= 2.")
    if dt_target is None:
        dt_target = horizon / 1000.0
    interval = horizon / (n_times - 1)
    per = max(1, math.ceil(interval / dt_target - 1e-12))
    dt = interval / per
    times = np.linspace(0.0, horizon, n_times)
    return dt, times


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_convergence(spec: ExperimentSpec) -> list[CurveTable]:
    """Monte-Carlo exposure curves against the limit exposure, per pool size.

    The book is drawn by the exact engine, exactly at the sample times, so
    the curves carry no discretization bias, and priced at each sample time
    while each block's state is in hand
    (:func:`~cdspool.simulation.exact_book_values`): the run holds
    O(block x K) state plus one value per path and time, never the paths.
    Each time's mean and plain stderr are reduced from its per-path values.
    """

    cfg = spec.limit
    _, times = grid_for_samples(spec.horizon, spec.n_times, None)
    limit_curve = exposure_limit(times, spec.horizon, cfg)
    tables = []
    for K in spec.k_values:
        values = exact_book_values(build_name_sequence(cfg, K), sample_times=times,
                                   maturity=spec.horizon, r=cfg.r, n_paths=spec.n_paths,
                                   seed=spec.seed, workers=spec.workers)
        tables.append(CurveTable(
            label=f"exposure-K{K}", abscissa_name="t", abscissa=times,
            columns={"mc_exposure": np.array([v.mean() for v in values]),
                     "mc_stderr": np.array([_stderr(v) for v in values]),
                     "limit_exposure": limit_curve}))
    return tables


def run_measure_convergence(spec: ExperimentSpec) -> list[CurveTable]:
    """Surviving-mass and exponential-transform curves of the empirical
    measure against the limit measure, with a per-K sup-error summary
    (median over repeats).

    The Euler engine's visitor writes each path's statistics
    (:func:`empirical_measure_eval` at theta = 0 and -1) into arrays
    allocated before the run, so the run holds O(block x K) state plus two
    values per path and time, never the paths.
    """

    cfg = spec.limit
    theta = -1.0
    dt, times = grid_for_samples(spec.horizon, spec.n_times, spec.dt)
    lim_mass = survival_fhat(times, cfg)
    lim_exp = limit_exp_test(theta, times, cfg)
    tables = []
    sup_one = np.empty((len(spec.k_values), spec.repeats))
    sup_exp = np.empty((len(spec.k_values), spec.repeats))
    for ki, K in enumerate(spec.k_values):
        pool = build_name_sequence(cfg, K)
        for rep in range(spec.repeats):
            # stats[j, i, m]: path m's statistic at times[i], theta = 0 then theta
            stats = np.empty((2, len(times), spec.n_paths))

            def fold(level, i, r0, r1, xp, integ, tau):
                for j, th in enumerate((0.0, theta)):
                    stats[j, i, r0:r1] = empirical_measure_eval(
                        xp[:r1 - r0], tau[:r1 - r0], th, float(times[i]))

            _euler_blocks(pool, None, horizon=spec.horizon, n_paths=spec.n_paths,
                          seed=spec.seed + rep, dt=dt, sample_times=times,
                          workers=spec.workers, visit=fold)
            one, ee = (np.array([(v.mean(), _pair_stderr(v)) for v in rows]) for rows in stats)
            sup_one[ki, rep] = np.max(np.abs(one[:, 0] - lim_mass))
            sup_exp[ki, rep] = np.max(np.abs(ee[:, 0] - lim_exp))
            if rep == 0:
                tables.append(CurveTable(
                    label=f"measure-K{K}", abscissa_name="t", abscissa=times,
                    columns={"empirical_mass": one[:, 0],
                             "empirical_mass_stderr": one[:, 1],
                             "limit_mass": lim_mass,
                             "empirical_exp": ee[:, 0],
                             "empirical_exp_stderr": ee[:, 1],
                             "limit_exp": lim_exp}))
    tables.append(CurveTable(
        label="measure-sup-error", abscissa_name="K",
        abscissa=np.array(spec.k_values, dtype=float),
        columns={"sup_err_mass_median": np.median(sup_one, axis=1),
                 "sup_err_exp_median": np.median(sup_exp, axis=1)}))
    return tables


def run_bcva_sweeps(spec: ExperimentSpec) -> list[CurveTable]:
    """CVA/DVA curves over the configured parameter sweep (per-name values)."""

    res = kernels.sensitivity_sweep(spec.sweep, spec.sweep_values, spec.limit,
                                    spec.cps, maturity=spec.horizon,
                                    workers=spec.workers)
    return [CurveTable(
        label=f"bcva-{spec.sweep}", abscissa_name=spec.sweep, abscissa=res.values,
        columns={"cva": res.cva, "dva": res.dva, "bcva": res.bcva})]


# ---------------------------------------------------------------------------
# validation gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.err <= self.tol


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name:<34s} err={c.err:.6e} tol={c.tol:.1e}")
        n_fail = len(self.failures())
        lines.append(f"{'OK' if n_fail == 0 else 'FAILED'}: "
                     f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _validation_baseline():
    """Shared configurations for the oracle checks."""

    cfg_jumpy = LimitConfig(alpha=0.01, kappa=0.5, sigma=0.3, c=0.1, d=0.1,
                            lambda_hat=0.2, x0=0.02, gamma1=2.0, gamma2=2.0,
                            lambda_c=0.25, s_z=0.02, l_z=0.4, r=0.03)
    cfg_nojump = LimitConfig(alpha=0.75, kappa=1.5, sigma=0.2, c=0.0, d=0.0,
                             lambda_hat=0.5, x0=0.5, gamma1=1.5, gamma2=1.5,
                             lambda_c=2.5, s_z=0.02, l_z=0.4, r=0.03)
    return cfg_jumpy, cfg_nojump, default_counterparties()


def run_validation(perturb: dict[str, float] | None = None,
                   workers: int = 1) -> ValidationReport:
    """Run every closed-form-vs-oracle comparison and report margins.

    Every check is held to one rule (:func:`_judge`): its err is the largest
    |closed + offset − oracle| / scale over its cases, so a NaN in any case
    fails it. ``perturb`` gives a named check its offset (0 otherwise); it
    exists so the report's sensitivity can itself be exercised. Seeds are
    fixed constants: the report is byte-reproducible for any ``workers``.
    """

    perturb = perturb or {}
    unknown = set(perturb) - {name for name, _ in _CHECKS}
    if unknown:
        raise ConfigError(f"perturb references unknown checks: {sorted(unknown)}")
    checks = map_ordered(lambda item: item[1](perturb.get(item[0], 0.0)), _CHECKS, workers)
    return ValidationReport(checks=list(checks))


# one case of a check: (closed form, oracle, scale); scale is 1 for an
# absolute bound, |oracle| for a relative one and the oracle's stderr for a
# z-score
_Case = tuple[float, float, float]


def _judge(name: str, cases: Callable[[], Iterator[_Case]], tol: float,
           offset: float) -> CheckResult:
    """The gate's one comparison rule; np.max keeps a NaN, which fails."""

    closed, oracle, scale = np.array(list(cases()), dtype=float).T
    return CheckResult(name, float(np.max(np.abs(closed + offset - oracle) / scale)), tol)


def _check_riccati_b_rk4() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED)
    lags = (0.5, 2.0, 7.0)  # one step of 2e-4 serves all three lags
    for _ in range(10):
        k, s = rng.uniform(0.1, 3.0, 2)
        for u, (y, _) in zip(lags, rk4_riccati(k, s, 1.0, 0.0, lags, 2e-4)):
            yield riccati_b(k, s, u), y, 1.0


def _check_riccati_beta_rk4() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 1)
    for _ in range(8):
        k, s = rng.uniform(0.1, 3.0, 2)
        b0 = -rng.uniform(0.01, 2.0)
        # 0.7 and 3.0 round to steps an ulp apart, so each lag runs alone
        for u in (0.7, 3.0):
            ((y, _),) = rk4_riccati(k, s, 1.0, b0, (u,), 2e-4)
            yield riccati_beta(k, s, b0, u), y, 1.0


def _check_riccati_beta_general_rk4() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 2)
    for _ in range(8):
        k, s = rng.uniform(0.1, 3.0, 2)
        a = rng.uniform(0.3, 3.0)
        b0 = -rng.uniform(0.0, 1.0)
        ((y, _),) = rk4_riccati(k, s, a, b0, (1.5,), 2e-4)
        yield riccati_beta_general(k, s, a, b0, 1.5), y, 1.0


def _check_integral_b_simpson() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 3)
    for _ in range(10):
        k, s = rng.uniform(0.1, 3.0, 2)
        u = rng.uniform(0.5, 8.0)
        yield (integral_b(k, s, u),
               composite_simpson(lambda v: riccati_b(k, s, v), 0.0, u, 10_000), 1.0)


def _check_integral_b_phi() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 4)
    for _ in range(10):
        k, s = rng.uniform(0.1, 3.0, 2)
        u = rng.uniform(0.2, 6.0)
        yield integral_b(k, s, u), (math.log(exp_phi(k, s, u)) + k * u) / (s * s), 1.0


def _check_beta_flow() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 5)
    for _ in range(10):
        k, s = rng.uniform(0.1, 3.0, 2)
        b0 = -rng.uniform(0.01, 1.5)
        t1, t2 = rng.uniform(0.1, 2.0, 2)
        yield (riccati_beta(k, s, riccati_beta(k, s, b0, t1), t2),
               riccati_beta(k, s, b0, t1 + t2), 1.0)


def _check_integral_beta_simpson() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 6)
    for _ in range(8):
        k, s = rng.uniform(0.1, 3.0, 2)
        b0 = -rng.uniform(0.01, 1.5)
        u = rng.uniform(0.3, 5.0)
        yield (integral_beta(k, s, b0, u),
               composite_simpson(lambda v: riccati_beta(k, s, b0, v), 0.0, u, 10_000), 1.0)


def _check_mgf_exp_mc() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 7)
    theta, gamma = -0.5, 1.5
    draws = np.exp(theta * rng.standard_exponential(1_000_000) / gamma)
    yield mgf_exp(theta, gamma), draws.mean(), _stderr(draws)


def _check_mgf_bve_mc() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 8)
    p = BveParams(1.5, 1.5, 0.5)
    ya, yb = sample_bve(p, rng, size=1_000_000)
    vals = np.exp(-0.7 * ya - 0.3 * yb)
    yield mgf_bve(-0.7, -0.3, p), vals.mean(), _stderr(vals)


def _check_mgf_bve_partials_fd() -> Iterator[_Case]:
    p = BveParams(1.5, 1.5, 0.5)
    h = 1e-6
    for ta, tb in ((-0.7, -0.3), (-0.05, -1.4), (-2.0, -0.9)):
        da, db = mgf_bve_partials(ta, tb, p)
        fd_a = (mgf_bve(ta + h, tb, p) - mgf_bve(ta - h, tb, p)) / (2 * h)
        fd_b = (mgf_bve(ta, tb + h, p) - mgf_bve(ta, tb - h, p)) / (2 * h)
        yield da, fd_a, abs(fd_a)
        yield db, fd_b, abs(fd_b)


def _check_bve_moments() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 9)
    p = BveParams(1.5, 1.5, 0.5)
    n = 1_000_000
    ya, yb = sample_bve(p, rng, size=n)
    for y, rate in ((ya, p.marginal_rate_a), (yb, p.marginal_rate_b)):
        yield 1.0 / rate, y.mean(), _stderr(y)
    corr = np.corrcoef(ya, yb)[0, 1]
    # correlation stderr via the asymptotic normal approximation
    yield p.correlation, corr, (1.0 - corr * corr) / math.sqrt(n)


def _check_bve_empirical_mgf() -> Iterator[_Case]:
    rng = np.random.default_rng(VALIDATION_SEED + 10)
    p = BveParams(1.5, 1.5, 0.5)
    ya, yb = sample_bve(p, rng, size=1_000_000)
    for ta, tb in ((-0.2, -0.2), (-1.0, -0.1), (-0.1, -1.0), (-0.5, -1.5), (-2.0, -2.0)):
        vals = np.exp(ta * ya + tb * yb)
        yield mgf_bve(ta, tb, p), vals.mean(), _stderr(vals)


def _check_fhat_cir() -> Iterator[_Case]:
    _, cfg, _ = _validation_baseline()
    # independent route: RK4 on the coupled (transform exponent, integral)
    lags = (0.5, 1.0, 2.0)
    for u, (b, ib) in zip(lags, rk4_riccati(cfg.kappa, cfg.sigma, 1.0, 0.0, lags, 1e-4)):
        yield survival_fhat(u, cfg), math.exp(cfg.x0 * b + cfg.alpha * ib), 1.0


def _check_fhat_limit_sde() -> Iterator[_Case]:
    """``survival_fhat(1.5, cfg)`` against ``mc_limit_transform(1.5, cfg,
    ...)``, an exact simulation of the same config's limit diffusion, as a
    z-score with bound 3. At _LIMIT_ORACLE_PATHS the oracle's relative
    stderr is 1.9e-4 (independent paths), so the check flags a relative
    offset above about 5.7e-4. The sampler's only bias is the truncation of
    its gamma expansion: on 4.1e7 paths the estimate sits -2.8e-6 relative
    from the closed form, 0.4 of that run's stderr and 0.015 of the
    check's."""

    cfg, _, _ = _validation_baseline()
    u = 1.5
    yield survival_fhat(u, cfg), *mc_limit_transform(
        u, cfg, n_paths=_LIMIT_ORACLE_PATHS, seed=VALIDATION_SEED + 11)


def _check_exposure_quadrature() -> Iterator[_Case]:
    _, cfg, _ = _validation_baseline()
    integral = composite_simpson(
        lambda u: np.exp(-cfg.r * u) * survival_fhat(u, cfg), 0.0, 1.0, 10_000)
    yield (exposure_limit(0.0, 1.0, cfg),
           cfg.l_z * (math.exp(-cfg.r) * survival_fhat(1.0, cfg) - 1.0)
           + (cfg.s_z + cfg.r * cfg.l_z) * integral, 1.0)


# the h1, h2, joint-survival and nested-CVA checks share one set of values;
# the lock keeps checks running on parallel workers from computing it twice
_PAIR_LOCK = threading.Lock()


@functools.cache
def _pair_values() -> dict[str, tuple[float, tuple[float, float]]]:
    """Closed-form value and MC (estimate, stderr) of each counterparty
    kernel at u = 1 and of CVA at maturity 3, the pair started at (0.2,
    0.2); every MC value reads one simulation of the pair, whose visitor
    folds each level's per-path values as it runs."""

    cfg, _, cps = _validation_baseline()
    u, maturity, n_paths = 1.0, 3.0, 20_000
    x_a, x_b = cps.side_a.xi0, cps.side_b.xi0
    # vals[level, j, m]: path m's h1, h2 and joint survival at u (j = 0..2)
    # and discounted loss at maturity (j = 3), on the fine then coarse level
    vals = np.empty((2, 4, n_paths))

    def fold(level, i, r0, r1, xp, integ, tau):
        nb = r1 - r0
        if i == 0:
            vals[level, :3, r0:r1] = mc_kernel_oracles(xp[:nb], integ[:nb])
        else:
            vals[level, 3, r0:r1] = nested_mc_cva(tau[:nb], cfg, cps.loss_b, maturity)

    _euler_blocks(Pool((), cfg.lambda_c), cps, horizon=maturity, n_paths=n_paths,
                  seed=VALIDATION_SEED + 12, dt=_PAIR_DT, sample_times=[u, maturity],
                  workers=1, visit=fold)
    mc_h1, mc_h2, mc_joint, mc_cva = (_richardson(fine, coarse) for fine, coarse in zip(*vals))
    return {"h1": (kernels.kernel(u, x_a, x_b, cps, cfg.lambda_c, "B"), mc_h1),
            "h2": (kernels.kernel(u, x_a, x_b, cps, cfg.lambda_c, "A"), mc_h2),
            "joint_survival": (kernels.joint_survival(u, x_a, x_b, cps, cfg.lambda_c),
                               mc_joint),
            "cva": (kernels.bcva(maturity, cfg, cps).cva, mc_cva)}


def _pair_check(which: str) -> Iterator[_Case]:
    """One of the four pair checks (h1, h2, joint survival, CVA) as a
    z-score with bound 3, read from :func:`_pair_values`. Each estimate is
    Richardson-extrapolated (steps 1/168 and 1/84 on the same draws), so its
    Euler bias is second order. Coupled step doubling of the extrapolated
    estimator on 401,408 paths (steps 1/336, 1/168 and 1/84 driven by the
    same normals, jumps and thresholds) puts its residual bias at 1/168,
    R(1/168) - R(1/336), at -0.005, -0.001, -0.005 and +0.004 of the gate's
    20,000-path pair-clustered stderr on h1, h2, joint survival and CVA
    (probe stderr 0.008, 0.008, 0.008 and 0.03). Plain Euler's bias is
    first order: Y(1/168) - Y(1/336) is +0.08, +0.08, -0.24 and +0.06 of
    that stderr, so the fine estimate alone would be off by about twice
    that at 1/168."""

    with _PAIR_LOCK:
        closed, (est, se) = _pair_values()[which]
    yield closed, est, se


def _check_kernel_residuals() -> Iterator[_Case]:
    cfg, _, cps = _validation_baseline()
    for side in ("B", "A"):
        for residual in kernels.kernel_ode_residuals(cps, cfg.lambda_c, side, 3.0).values():
            yield residual, 0.0, 1.0


def nested_mc_cva(tau: np.ndarray, cfg: LimitConfig, loss_b: float,
                  maturity: float) -> np.ndarray:
    """Per-path values of the nested Monte-Carlo CVA oracle at ``maturity``:
    read side B's default time from tau, the pair alone's default times at
    maturity (paths by sides A, B), apply the limit exposure there, weight
    by pool survival.

    The pool's limit default time is conditionally independent of the
    counterparties, so the indicator of the pool outliving tau_B integrates
    to the survival function evaluated there. Read from both levels of the
    pair run and combined by :func:`~cdspool.simulation._richardson`.
    """

    tau_a, tau_b = tau[:, 0], tau[:, 1]
    hit = (tau_b <= np.minimum(tau_a, maturity)) & (tau_b > 0)
    vals = np.zeros(len(tau))
    tb = tau_b[hit]
    vals[hit] = (np.exp(-cfg.r * tb) * survival_fhat(tb, cfg)
                 * np.maximum(exposure_limit(tb, maturity, cfg), 0.0))
    return vals * loss_b


# (name, run) in report order, built from each check's (name, cases, bound);
# run(offset) judges the cases, and perfbench's tracer times each run
_CHECKS: list[tuple[str, Callable[[float], CheckResult]]] = [
    (name, functools.partial(_judge, name, cases, tol)) for name, cases, tol in (
        ("riccati_b_vs_rk4", _check_riccati_b_rk4, 1e-8),
        ("riccati_beta_vs_rk4", _check_riccati_beta_rk4, 1e-8),
        ("riccati_beta_general_vs_rk4", _check_riccati_beta_general_rk4, 1e-8),
        ("integral_b_vs_simpson", _check_integral_b_simpson, 1e-8),
        ("integral_b_phi_identity", _check_integral_b_phi, 1e-8),
        ("beta_flow_property", _check_beta_flow, 1e-8),
        ("integral_beta_vs_simpson", _check_integral_beta_simpson, 1e-8),
        ("mgf_exp_vs_mc", _check_mgf_exp_mc, 3.0),
        ("mgf_bve_vs_mc", _check_mgf_bve_mc, 3.0),
        ("mgf_bve_partials_vs_fd", _check_mgf_bve_partials_fd, 1e-6),
        ("bve_sampler_moments", _check_bve_moments, 4.0),
        ("bve_empirical_mgf", _check_bve_empirical_mgf, 4.0),
        ("fhat_cir_reduction", _check_fhat_cir, 1e-10),
        ("fhat_vs_limit_sde_mc", _check_fhat_limit_sde, 3.0),
        ("exposure_limit_vs_simpson", _check_exposure_quadrature, 1e-7),
        ("h1_vs_mc", functools.partial(_pair_check, "h1"), 3.0),
        ("h2_vs_mc", functools.partial(_pair_check, "h2"), 3.0),
        ("joint_survival_vs_mc", functools.partial(_pair_check, "joint_survival"), 3.0),
        ("kernel_ode_residuals", _check_kernel_residuals, 1e-5),
        ("cva_vs_nested_mc", functools.partial(_pair_check, "cva"), 3.0),
    )]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _safe_name(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in label)


def write_run(tables: list[CurveTable], spec: ExperimentSpec, out_dir: Path,
              report: ValidationReport | None = None) -> dict:
    """Write curve CSVs plus a JSON run manifest; returns the manifest dict."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve_files = {}
    for table in tables:
        fname = f"curve-{_safe_name(table.label)}.csv"
        table.write_csv(out / fname)
        curve_files[table.label] = fname
    manifest = {
        "experiment": spec.kind,
        "provenance": spec.provenance(),
        "curves": curve_files,
    }
    if report is not None:
        (out / "validation_report.txt").write_bytes(report.render().encode("utf-8"))
        manifest["validation"] = {
            "passed": report.passed,
            "failures": report.failures(),
            "report": "validation_report.txt",
        }
    if spec.config_text is not None:
        (out / "config_echo.cfg").write_bytes(spec.config_text.encode("utf-8"))
        manifest["config_echo"] = "config_echo.cfg"
    (out / "run_manifest.json").write_bytes(
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    return manifest


def run_experiment(spec: ExperimentSpec, out_dir: Path | None = None):
    """Dispatch one experiment; optionally persist outputs."""

    if spec.kind == "convergence":
        tables, report = run_convergence(spec), None
    elif spec.kind == "measure-convergence":
        tables, report = run_measure_convergence(spec), None
    elif spec.kind == "bcva-sweep":
        tables, report = run_bcva_sweeps(spec), None
    else:  # validate: ExperimentSpec admits no other kind
        tables, report = [], run_validation(spec.perturb, spec.workers)
    if out_dir is not None:
        write_run(tables, spec, out_dir, report)
    return tables, report
