"""Monte-Carlo engines for the K-name + two-counterparty default system.

Intensities follow mean-reverting square-root (CIR) dynamics with two jump
layers: a common Poisson process hitting every entity simultaneously
(exponential sizes for names, a Marshall-Olkin pair for the counterparties)
and per-entity idiosyncratic Poisson jumps.

Two engines simulate this system:

- :func:`simulate_paths` runs Euler with full truncation (positive part in
  both drift and diffusion) on a fine grid; stored intensities are the
  truncated, non-negative values. Default times are doubly stochastic:
  unit-mean exponential thresholds drawn up front, crossed by the
  trapezoidal integral of the simulated intensity on the fine grid. Each
  block allocates its step buffers once and runs every step in place: the
  normals are drawn into one buffer (``standard_normal(out=...)``, the same
  values as a fresh draw) and mirrored onto the partner paths (below), and
  the positive part of the state is carried from the end of one step,
  where the trapezoid integral needs it, to the start of the next, where
  drift and diffusion read it. The per-entity parameters are rows at block
  shape, so a block of the narrow pair runs each operation as one flat
  loop. The measure-convergence study, the counterparty-kernel oracles
  and the nested-MC CVA oracle read default times or running integrals,
  and use this engine.
- :func:`simulate_exact_paths` draws the names only at the sample times,
  from the exact square-root transition law (Broadie and Kaya 2006): a
  scaled noncentral chi-square between consecutive events, where the
  events are the sample times and the jump times. It resolves no default
  times and stores no integrals, so it serves the exposure convergence
  study, whose estimator reads the intensities at the sample times alone.
  Its one block loop hands each block's state at each sample time to a
  visitor: :func:`simulate_exact_paths` stores it, and
  :func:`exact_book_values` prices the book from it.

Reproducibility contract: paths are generated in fixed-width blocks, each
block owning a counter-based RNG stream derived from (seed, stream tag,
block index). The tags keep the engines' streams disjoint: 0 for
:func:`simulate_paths`, 1 for the limit diffusion, 2 for
:func:`simulate_exact_paths`. The width is 256 paths for systems with
names, and 4096 for the counterparty pair alone and for the limit
diffusion, whose narrow state stays in cache at that width. The Euler
loops pair their paths antithetically (Glasserman 2004, section 4.2): each
step fills half a block's rows with fresh normals, one per pair, and path
2k + 1 diffuses on the negation of path 2k's normals. Every other draw
stays per path: the default thresholds, both jump layers and the limit
diffusion's marks. Estimators on Euler paths therefore keep the plain mean
but cluster their standard error by pair (:meth:`PathSet.stderr`). Every
block draws at full width, its half-width normal fill included, so a
path's draws depend only on the seed, the system's shape and the path's
own index, never on the total path count or on how many workers process
the blocks.

Estimators: :func:`mc_exposure` prices the CDS book on stored paths at
one time, with the standard error that :meth:`PathSet.stderr` picks for
the engine that drew them. The convergence study instead prices it with
:func:`exact_book_values` at each sample time while a block's state is in
hand, so it holds O(block x K) state plus one value per path and time,
never the paths; the per-path values are ``mc_exposure``'s.
:func:`mc_kernel_oracles` reads the three counterparty kernels at a stored
lag of a simulation of the pair alone (validation gate).
``mc_limit_transform(u, cfg, n_paths, seed)`` runs its own Euler loop, on
the same in-place step updates, for the large-pool limit diffusion of a
:class:`~cdspool.exposure.LimitConfig`, whose drift is a per-path frozen
mark; it takes the inputs of ``survival_fhat(u, cfg)``, the closed form it
checks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError
from .jumps import BveParams, sample_bve
from .quadrature import gauss_legendre_panels
from .riccati import survival_exponents

if TYPE_CHECKING:
    from .exposure import LimitConfig

__all__ = [
    "NameParams",
    "CounterpartySide",
    "CounterpartyParams",
    "PathSet",
    "simulate_paths",
    "simulate_exact_paths",
    "exact_book_values",
    "sample_defaults",
    "mc_exposure",
    "mc_kernel_oracles",
    "mc_limit_transform",
    "map_ordered",
]

_BLOCK_PATHS = 0  # stream tags: keep per-purpose streams disjoint
_BLOCK_LIMIT = 1
_BLOCK_EXACT = 2
# paths per block: systems with names, then the pair alone and the limit diffusion
_NAME_BLOCK_SIZE = 256
_NARROW_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class NameParams:
    """Credit and contract parameters of one reference name.

    alpha/kappa/sigma are the mean-reverting diffusion parameters, c and d
    the common/idiosyncratic jump loadings, lambda_hat the idiosyncratic
    Poisson rate, xi0 the initial intensity. spread and loss are the CDS
    premium and loss-given-default; z = +1 if the investor is long
    (receives spread), -1 if short.
    """

    alpha: float
    kappa: float
    sigma: float
    c: float
    d: float
    lambda_hat: float
    xi0: float
    spread: float
    loss: float
    z: int = 1

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.kappa, self.sigma, self.c,
                                       self.d, self.lambda_hat, self.xi0,
                                       self.spread, self.loss))):
            raise ConfigError("NameParams fields must be finite.")
        if self.alpha < 0 or self.kappa <= 0 or self.sigma < 0:
            raise ConfigError("Require alpha >= 0, kappa > 0, sigma >= 0.")
        if self.c < 0 or self.d < 0 or self.lambda_hat < 0:
            raise ConfigError("Jump loadings and rates must be non-negative.")
        if self.xi0 < 0:
            raise ConfigError("xi0 must be non-negative.")
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError("loss must lie in [0, 1].")
        if self.z not in (-1, 1):
            raise ConfigError("z must be +1 or -1.")


@dataclass(frozen=True)
class CounterpartySide:
    """Intensity parameters of one counterparty (same fields as a name)."""

    alpha: float
    kappa: float
    sigma: float
    c: float
    d: float
    lambda_hat: float
    xi0: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.kappa, self.sigma, self.c,
                                       self.d, self.lambda_hat, self.xi0))):
            raise ConfigError("CounterpartySide fields must be finite.")
        if self.alpha < 0 or self.kappa <= 0 or self.sigma < 0:
            raise ConfigError("Require alpha >= 0, kappa > 0, sigma >= 0.")
        if self.c < 0 or self.d < 0 or self.lambda_hat < 0 or self.xi0 < 0:
            raise ConfigError("Jump fields and xi0 must be non-negative.")


@dataclass(frozen=True)
class CounterpartyParams:
    """Both counterparties plus their joint jump-size laws.

    common_jump is the law of the size pair applied at common Poisson
    events; idio_jump holds the idiosyncratic size laws, of which only the
    marginals enter the dynamics (each side's idiosyncratic clock is its
    own).
    """

    side_a: CounterpartySide
    side_b: CounterpartySide
    common_jump: BveParams
    idio_jump: BveParams
    loss_a: float = 0.4
    loss_b: float = 0.4

    def __post_init__(self) -> None:
        if not (0.0 < self.loss_a <= 1.0 and 0.0 < self.loss_b <= 1.0):
            raise ConfigError("Counterparty losses must lie in (0, 1].")

    def with_initial(self, x_a: float, x_b: float) -> "CounterpartyParams":
        return replace(self, side_a=replace(self.side_a, xi0=x_a),
                       side_b=replace(self.side_b, xi0=x_b))


@dataclass
class PathSet:
    """Simulated intensity paths at a set of sample times.

    intensities[m, i, j] is the (non-negative) intensity of entity j at
    times[i] on path m. For the counterparty pair alone, integrated holds
    the running fine-grid trapezoid integral at the same nodes; systems with
    names leave it None. Entities are ordered names first, then
    counterparties A and B when present. default_times are resolved at
    fine-grid resolution against the stored unit-exponential thresholds.
    The exact engine has no step and resolves no defaults: dt, thresholds
    and default_times are None.
    """

    times: np.ndarray
    dt: float | None
    horizon: float
    n_names: int
    intensities: np.ndarray
    thresholds: np.ndarray | None
    default_times: np.ndarray | None
    lambda_c: float
    gamma1: float
    gamma2: float
    integrated: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.intensities.shape[0]

    @property
    def n_entities(self) -> int:
        return self.intensities.shape[2]

    def stderr(self, vals: np.ndarray) -> float:
        """Standard error of the mean of per-path values read from these
        paths: clustered by antithetic pair on Euler paths
        (:func:`_pair_stderr`), plain on the exact engine's independent ones
        (:func:`_stderr`)."""

        return (_stderr if self.dt is None else _pair_stderr)(vals)

    def time_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[idx] - t) <= 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"t={t} is not a stored sample time.")
        return idx


def _philox_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _block_generator(key: np.ndarray, tag: int, block: int) -> Generator:
    counter = np.array([0, 0, block, tag], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


def _entity_vectors(names: Sequence[NameParams], cps: CounterpartyParams | None):
    ent = list(names)
    if cps is not None:
        ent.extend([cps.side_a, cps.side_b])
    get = lambda attr: np.array([getattr(e, attr) for e in ent], dtype=float)
    return {a: get(a) for a in ("alpha", "kappa", "sigma", "c", "d", "lambda_hat", "xi0")}


def _stderr(vals: np.ndarray) -> float:
    """Standard error of the mean of per-path values; 0.0 for one path."""

    n = len(vals)
    return float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _pair_stderr(vals: np.ndarray) -> float:
    """Standard error of the mean of per-path values read from the Euler
    engine, clustered by antithetic pair: paths 2k and 2k + 1 share their
    normals, so each pair (and an odd last path alone) is one independent
    cluster. With G clusters and S_g the sum of vals - mean over cluster g,
    it is sqrt(G / (G - 1) sum of S_g^2) / n, which for clusters of one
    path would be :func:`_stderr`; 0.0 for one cluster (one or two paths).
    """

    n = len(vals)
    g = (n + 1) // 2
    if g < 2:
        return 0.0
    sums = np.add.reduceat(vals - vals.mean(), np.arange(0, n, 2))
    return float(math.sqrt(g / (g - 1) * (sums @ sums)) / n)


def _sorted_events(step, *cols):
    order = np.argsort(step, kind="stable")
    return (step[order],) + tuple(c[order] for c in cols)


def _diffuse(rng: Generator, x, xp, alpha, kappa, sigma, dt: float, sqrt_dt: float,
             z, a, v) -> None:
    """Euler diffusion update x += (alpha - kappa xp) dt + sigma sqrt(xp)
    (sqrt_dt z), in place; a and v are scratch buffers of x's shape. Fresh
    normals are drawn for half the rows only, into v's first half, and
    written to the even rows of z; each odd row 2k + 1 gets the negation of
    row 2k, its antithetic partner's."""

    half = v[:len(v) // 2]
    rng.standard_normal(out=half)
    half *= sqrt_dt
    pairs = z.reshape(len(half), 2, *z.shape[1:])
    pairs[:, 0] = half
    np.negative(half, out=pairs[:, 1])
    np.multiply(kappa, xp, out=a)
    np.subtract(alpha, a, out=a)
    a *= dt
    np.sqrt(xp, out=v)
    v *= sigma
    v *= z
    a += v
    x += a


def _truncate_and_integrate(x, xp, xnew, integ, dt: float, a) -> None:
    """Write the positive part of x to xnew and add the trapezoid of
    (xp, xnew) over one step to integ, in place; a is a scratch buffer. The
    caller then swaps xp and xnew."""

    np.maximum(x, 0.0, out=xnew)
    np.add(xp, xnew, out=a)
    a *= 0.5 * dt
    integ += a


def map_ordered(fn: Callable, items: Sequence, workers: int) -> list:
    """Apply fn to items, on a thread pool when workers > 1; results in item order."""

    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def simulate_paths(names: Sequence[NameParams], cps: CounterpartyParams | None = None, *,
                   lambda_c: float = 0.0, gamma1: float = 1.0, gamma2: float = 1.0,
                   horizon: float, n_paths: int, seed: int, dt: float | None = None,
                   sample_times=None, workers: int = 1) -> PathSet:
    """Simulate the joint intensity system and resolve default times.

    Parameters
    ----------
    names, cps
        Reference names and (optionally) the two counterparties.
    lambda_c, gamma1, gamma2
        Common Poisson rate and the exponential rates of the names' common
        and idiosyncratic jump sizes.
    horizon, n_paths, seed
        Simulation horizon, path count, and RNG seed.
    dt
        Euler step; defaults to horizon / 1000. Must divide the horizon.
    sample_times
        Grid times at which paths are stored (default: every node). Must
        lie on the Euler grid.
    workers
        Thread count for the block loop; never changes the output values.

    The running intensity integrals are stored only for the counterparty
    pair alone, the system whose kernel oracle reads them. Paths run in
    blocks of 256 when the system has names and of 4096 for the
    counterparty pair alone (see the module docstring).
    """

    if cps is None and len(names) == 0:
        raise ConfigError("Need at least one name or the counterparty pair.")
    for v in (lambda_c, gamma1, gamma2, horizon):
        if not (math.isfinite(v)):
            raise ConfigError("lambda_c, gamma1, gamma2, horizon must be finite.")
    if lambda_c < 0 or gamma1 <= 0 or gamma2 <= 0:
        raise ConfigError("Require lambda_c >= 0 and gamma1, gamma2 > 0.")
    if dt is None:
        dt = horizon / 1000.0
    if not dt > 0 or horizon < dt:
        raise ConfigError("Require dt > 0 and horizon >= dt.")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1.")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-8 * horizon:
        raise ConfigError("dt must divide the horizon.")

    key = _philox_key(seed)

    K = len(names)
    E = K + (2 if cps is not None else 0)
    vec = _entity_vectors(names, cps)
    grid = np.arange(n_steps + 1) * dt
    if sample_times is None:
        sample_idx = np.arange(n_steps + 1)
    else:
        sample_times = np.asarray(sample_times, dtype=float)
        if not np.all(np.isfinite(sample_times)):
            raise ConfigError("sample_times must be finite.")
        sample_idx = np.rint(sample_times / dt).astype(int)
        if np.any(np.abs(sample_idx * dt - sample_times) > 1e-9 * max(1.0, horizon)):
            raise ConfigError("sample_times must lie on the Euler grid.")
        if np.any((sample_idx < 0) | (sample_idx > n_steps)):
            raise ConfigError("sample_times must lie in [0, horizon].")
    n_s = len(sample_idx)
    store_slot = np.full(n_steps + 1, -1, dtype=int)
    store_slot[sample_idx] = np.arange(n_s)

    intensities = np.empty((n_paths, n_s, E))
    record_integrated = K == 0
    integrated = np.empty((n_paths, n_s, E)) if record_integrated else None
    thresholds = np.empty((n_paths, E))
    default_times = np.empty((n_paths, E))

    sqrt_dt = math.sqrt(dt)
    # idiosyncratic size rates: names use gamma2, counterparties their BVE marginals
    idio_rate = np.full(E, gamma2)
    if cps is not None:
        idio_rate[K] = cps.idio_jump.marginal_rate_a
        idio_rate[K + 1] = cps.idio_jump.marginal_rate_b
    block_size = _NAME_BLOCK_SIZE if K else _NARROW_BLOCK_SIZE
    n_blocks = (n_paths + block_size - 1) // block_size
    # per-entity rows at block shape, read-only and shared by the blocks:
    # with contiguous operands numpy runs each step's ufunc as one flat loop
    # instead of one short loop per path
    alpha, kappa, sigma = (np.tile(vec[f], (block_size, 1))
                           for f in ("alpha", "kappa", "sigma"))

    def run_block(b: int) -> None:
        rng = _block_generator(key, _BLOCK_PATHS, b)
        r0 = b * block_size
        r1 = min(n_paths, r0 + block_size)
        nb = r1 - r0
        bf = block_size  # draw at full width so paths are invariant to n_paths

        thr = rng.standard_exponential((bf, E))

        # common-jump schedule: one Poisson clock shared by every entity
        if lambda_c > 0.0:
            ncom = rng.poisson(lambda_c * horizon, bf)
            tot = int(ncom.sum())
            ev_step = (rng.random(tot) * horizon / dt).astype(np.int64)
            ev_row = np.repeat(np.arange(bf), ncom)
            csize = np.empty((tot, E))
            if K:
                csize[:, :K] = (rng.standard_exponential((tot, K)) / gamma1
                                * vec["c"][None, :K])
            if cps is not None:
                ya, yb = sample_bve(cps.common_jump, rng, size=tot)
                csize[:, K] = vec["c"][K] * ya
                csize[:, K + 1] = vec["c"][K + 1] * yb
            ev_step, ev_row, csize = _sorted_events(ev_step, ev_row, csize)
            cptr = np.searchsorted(ev_step, np.arange(n_steps + 1))
        else:
            cptr = np.zeros(n_steps + 1, dtype=np.int64)

        # idiosyncratic schedules, one Poisson clock per entity
        nidio = rng.poisson(vec["lambda_hat"] * horizon, (bf, E))
        flat = nidio.reshape(-1)
        tot2 = int(flat.sum())
        irow = np.repeat(np.arange(bf), nidio.sum(axis=1))
        icol = np.repeat(np.tile(np.arange(E), bf), flat)
        it = rng.random(tot2) * horizon
        isize = rng.standard_exponential(tot2) / idio_rate[icol] * vec["d"][icol]
        istep, irow, icol, isize = _sorted_events((it / dt).astype(np.int64),
                                                  irow, icol, isize)
        iptr = np.searchsorted(istep, np.arange(n_steps + 1))

        # step buffers, local to the block so worker threads never share them;
        # xp carries the positive part of x from one step to the next
        x = np.tile(vec["xi0"], (bf, 1))
        xp = np.maximum(x, 0.0)
        xnew, z, a, v = (np.empty((bf, E)) for _ in range(4))
        newly = np.empty((bf, E), dtype=bool)
        integ = np.zeros((bf, E))
        tau = np.full((bf, E), np.inf)
        alive = np.ones((bf, E), dtype=bool)
        if store_slot[0] >= 0:
            intensities[r0:r1, store_slot[0]] = xp[:nb]
            if record_integrated:
                integrated[r0:r1, store_slot[0]] = 0.0

        for i in range(n_steps):
            _diffuse(rng, x, xp, alpha, kappa, sigma, dt, sqrt_dt, z, a, v)
            lo, hi = cptr[i], cptr[i + 1]
            if hi > lo:
                np.add.at(x, ev_row[lo:hi], csize[lo:hi])
            lo, hi = iptr[i], iptr[i + 1]
            if hi > lo:
                np.add.at(x, (irow[lo:hi], icol[lo:hi]), isize[lo:hi])
            _truncate_and_integrate(x, xp, xnew, integ, dt, a)
            xp, xnew = xnew, xp
            np.greater_equal(integ, thr, out=newly)
            newly &= alive
            if newly.any():
                tau[newly] = (i + 1) * dt
                alive &= ~newly
            slot = store_slot[i + 1]
            if slot >= 0:
                intensities[r0:r1, slot] = xp[:nb]
                if record_integrated:
                    integrated[r0:r1, slot] = integ[:nb]

        thresholds[r0:r1] = thr[:nb]
        default_times[r0:r1] = tau[:nb]

    map_ordered(run_block, range(n_blocks), workers)
    return PathSet(times=grid[sample_idx], dt=dt, horizon=horizon, n_names=K,
                   intensities=intensities, thresholds=thresholds,
                   default_times=default_times, lambda_c=lambda_c,
                   gamma1=gamma1, gamma2=gamma2, integrated=integrated)


def _by_interval(times: np.ndarray, event_times: np.ndarray):
    """Group events in (0, times[-1]] by sample interval (s_i, s_{i+1}]:
    interval i holds events order[ptr[i]:ptr[i + 1]]."""

    interval = np.searchsorted(times, event_times, side="left") - 1
    order = np.argsort(interval, kind="stable")
    return np.searchsorted(interval[order], np.arange(len(times))), order


def _cir_law(dt, alpha, kappa, sigma):
    """Coefficients (decay, c, shift) of the exact square-root transition
    over dt > 0: decay = e^{-kappa dt}, c = sigma^2 (1 - decay) / (4 kappa)
    and shift = alpha (1 - decay) / kappa, the mean's constant part.
    Every argument broadcasts."""

    grow = -np.expm1(-kappa * dt)
    return np.exp(-kappa * dt), sigma * sigma * grow / (4.0 * kappa), alpha * grow / kappa


def _cir_transition(rng: Generator, x, decay, c, shift) -> np.ndarray:
    """One exact square-root transition per element, from :func:`_cir_law`'s
    coefficients (arrays of x's shape).

    x_{s+dt} = c chi'^2_df(x decay / c) with df = shift / c = 4 alpha /
    sigma^2 (Broadie and Kaya 2006). numpy's sampler needs df > 0, so
    alpha = 0 draws the Poisson-gamma mixture 2 Gamma(N), N ~
    Poisson(nonc / 2); c = 0 (sigma = 0) follows the deterministic flow
    x decay + shift.
    """

    noisy = c > 0.0
    if not noisy.all():
        out = x * decay + shift
        out[noisy] = _cir_transition(rng, *(v[noisy] for v in (x, decay, c, shift)))
        return out
    df, nonc = shift / c, x * decay / c
    if np.all(df > 0.0):
        return c * rng.noncentral_chisquare(df, nonc)
    draw = np.empty_like(c)
    pos = df > 0.0
    draw[pos] = rng.noncentral_chisquare(df[pos], nonc[pos])
    draw[~pos] = 2.0 * rng.standard_gamma(rng.poisson(0.5 * nonc[~pos]))
    return c * draw


def _exact_times(names: Sequence[NameParams], lambda_c: float, gamma1: float,
                 gamma2: float, sample_times, n_paths: int) -> np.ndarray:
    """Check the exact engine's inputs; returns the sample times as floats."""

    if len(names) == 0:
        raise ConfigError("Need at least one name.")
    if not all(map(math.isfinite, (lambda_c, gamma1, gamma2))):
        raise ConfigError("lambda_c, gamma1, gamma2 must be finite.")
    if lambda_c < 0 or gamma1 <= 0 or gamma2 <= 0:
        raise ConfigError("Require lambda_c >= 0 and gamma1, gamma2 > 0.")
    times = np.asarray(sample_times, dtype=float)
    if (times.ndim != 1 or len(times) < 2 or times[0] != 0.0
            or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0)):
        raise ConfigError("sample_times must start at 0 and increase strictly.")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1.")
    return times


def _exact_blocks(names: Sequence[NameParams], times: np.ndarray, lambda_c: float,
                  gamma1: float, gamma2: float, n_paths: int, seed: int, workers: int,
                  visit: Callable[[int, int, int, np.ndarray], None]) -> None:
    """The exact engine's block loop over inputs checked by :func:`_exact_times`.

    Each (path, name) moves between consecutive events by
    :func:`_cir_transition`; the events are the sample times, the path's
    common-jump times and the name's idiosyncratic jump times, all in
    (0, horizon], where the jump is added. Each sample interval runs one
    full-width draw, to every element's first event or the interval's end,
    then one round per event rank, drawing only for the elements that
    jumped. Jump sizes follow :func:`simulate_paths`: c Exp(gamma1) per name
    at each common event, d Exp(gamma2) at idiosyncratic ones. Blocks of 256
    paths run on stream tag 2 (see the module docstring). At each sample
    time i, including 0, ``visit(i, r0, r1, x)`` reads the state x (paths
    r0:r1 by names) of one block; blocks run on ``workers`` threads, so a
    visit writes only to its own paths.
    """

    K = len(names)
    key = _philox_key(seed)
    horizon = float(times[-1])
    n_s = len(times)
    vec = _entity_vectors(names, None)
    bf = _NAME_BLOCK_SIZE
    n_blocks = (n_paths + bf - 1) // bf
    law = lambda dt, col: _cir_law(dt, vec["alpha"][col], vec["kappa"][col],
                                   vec["sigma"][col])

    def run_block(b: int) -> None:
        rng = _block_generator(key, _BLOCK_EXACT, b)
        r0 = b * bf
        r1 = min(n_paths, r0 + bf)

        # common-jump clock, one per path; each name draws its own size at each event
        ncom = rng.poisson(lambda_c * horizon, bf)
        crow = np.repeat(np.arange(bf), ncom)
        ctime = (1.0 - rng.random(len(crow))) * horizon
        csize = rng.standard_exponential((len(crow), K)) / gamma1 * vec["c"]
        # idiosyncratic clocks, one per element = path * K + name
        nidio = rng.poisson(vec["lambda_hat"] * horizon, (bf, K)).reshape(-1)
        ielem = np.repeat(np.arange(bf * K), nidio)
        itime = (1.0 - rng.random(len(ielem))) * horizon
        isize = rng.standard_exponential(len(ielem)) / gamma2 * vec["d"][ielem % K]
        # each clock's events grouped by sample interval, (s_i, s_{i+1}]
        cptr, corder = _by_interval(times, ctime)
        iptr, iorder = _by_interval(times, itime)

        x = np.tile(vec["xi0"], (bf, 1))
        flat = x.reshape(-1)
        coef = np.empty((3, bf, K))
        visit(0, r0, r1, x[:r1 - r0])
        for i in range(n_s - 1):
            ce = corder[cptr[i]:cptr[i + 1]]
            ie = iorder[iptr[i]:iptr[i + 1]]
            el = np.concatenate([(crow[ce][:, None] * K + np.arange(K)).reshape(-1),
                                 ielem[ie]])
            t = np.concatenate([np.repeat(ctime[ce], K), itime[ie]])
            size = np.concatenate([csize[ce].reshape(-1), isize[ie]])
            keep = size > 0.0  # a zero-size jump (zero loading) need not split the path
            order = np.lexsort((t[keep], el[keep]))
            el, t, size = el[keep][order], t[keep][order], size[keep][order]
            n = len(el)
            first = np.ones(n, dtype=bool)
            first[1:] = el[1:] != el[:-1]
            # every element moves to its first event, or through the interval:
            # the per-name law of the whole interval, patched where events fall
            coef[:] = np.array(law(times[i + 1] - times[i], slice(None)))[:, None, :]
            e = el[first]
            coef.reshape(3, -1)[:, e] = law(t[first] - times[i], e % K)
            x[...] = _cir_transition(rng, x, *coef)
            # then event rank by rank: jump, move to the next event or the end
            nxt = np.append(t[1:], times[i + 1])
            nxt[np.append(first[1:], True)] = times[i + 1]
            rank = np.arange(n) - np.maximum.accumulate(np.where(first, np.arange(n), 0))
            for r in range(int(rank.max()) + 1 if n else 0):
                sel = rank == r
                e = el[sel]
                flat[e] += size[sel]
                step = nxt[sel] - t[sel]
                move = step > 0.0
                e, step = e[move], step[move]
                flat[e] = _cir_transition(rng, flat[e], *law(step, e % K))
            visit(i + 1, r0, r1, x[:r1 - r0])

    map_ordered(run_block, range(n_blocks), workers)


def simulate_exact_paths(names: Sequence[NameParams], *, lambda_c: float, gamma1: float,
                         gamma2: float, sample_times, n_paths: int, seed: int,
                         workers: int = 1) -> PathSet:
    """Simulate the names' intensities at the sample times only, exactly.

    ``sample_times`` start at 0 and increase strictly; the last one is the
    horizon. The paths come from :func:`_exact_blocks`, stored whole: the
    result has no default times (see :class:`PathSet`).
    """

    times = _exact_times(names, lambda_c, gamma1, gamma2, sample_times, n_paths)
    intensities = np.empty((n_paths, len(times), len(names)))

    def store(i: int, r0: int, r1: int, x: np.ndarray) -> None:
        intensities[r0:r1, i] = x

    _exact_blocks(names, times, lambda_c, gamma1, gamma2, n_paths, seed, workers, store)
    return PathSet(times=times, dt=None, horizon=float(times[-1]), n_names=len(names),
                   intensities=intensities, thresholds=None, default_times=None,
                   lambda_c=lambda_c, gamma1=gamma1, gamma2=gamma2)


def exact_book_values(names: Sequence[NameParams], *, lambda_c: float, gamma1: float,
                      gamma2: float, sample_times, maturity: float, r: float,
                      n_paths: int, seed: int, workers: int = 1) -> np.ndarray:
    """Per-path book values of the exact engine's paths at each sample time.

    Takes :func:`simulate_exact_paths`' arguments plus the book's maturity
    and rate, and returns values[i, m] = the per-name book value that
    :func:`mc_exposure` prices on path m at sample time i (0 where the
    time is the maturity), by the same arithmetic (:func:`_book_values`).
    No path is stored: each block's state is priced at each sample time
    while it is in hand, so memory is O(block x names) plus the
    (times x paths) values. The matrix-vector product runs per block, so
    a value can differ in its last bits from ``mc_exposure``'s wherever
    the BLAS groups a block's rows unlike the whole set's (seen at 513
    paths); each row's mean and :func:`_stderr` equal ``mc_exposure``'s
    bit for bit at 300 and 2000 paths.
    """

    times = _exact_times(names, lambda_c, gamma1, gamma2, sample_times, n_paths)
    if not maturity >= times[-1]:
        raise ValueError("Require every sample time <= maturity.")
    spans = [maturity - float(t) for t in times]
    books = [_book_rows(names, lambda_c, gamma1, gamma2, span, r) if span != 0.0 else None
             for span in spans]
    values = np.zeros((len(times), n_paths))

    def price(i: int, r0: int, r1: int, x: np.ndarray) -> None:
        if books[i] is not None:
            values[i, r0:r1] = _book_values(x, *books[i])

    _exact_blocks(names, times, lambda_c, gamma1, gamma2, n_paths, seed, workers, price)
    return values


def sample_defaults(pathset: PathSet, rng: Generator | None = None,
                    thresholds=None) -> np.ndarray:
    """Default times: first grid time where the integrated intensity crosses
    the unit-exponential threshold.

    With no arguments this returns the fine-grid default times resolved
    during simulation. Passing ``rng`` (fresh thresholds) or ``thresholds``
    re-derives default times on the stored sample grid, which lets tests
    redraw the doubly stochastic layer on the pair's frozen paths.
    """

    if rng is None and thresholds is None:
        if pathset.default_times is None:
            raise ValueError("The exact sample-time engine resolves no default times.")
        return pathset.default_times.copy()
    if pathset.integrated is None:
        raise ValueError("Redrawing default times needs the stored intensity integrals, "
                         "which only the counterparty pair alone records.")
    m, _, e = pathset.integrated.shape
    if thresholds is None:
        thresholds = rng.standard_exponential((m, e))
    thr = np.broadcast_to(np.asarray(thresholds, dtype=float), (m, e))
    crossed = pathset.integrated >= thr[:, None, :]
    any_cross = crossed.any(axis=1)
    first = np.argmax(crossed, axis=1)
    return np.where(any_cross, pathset.times[first], np.inf)


def _book_rows(names: Sequence[NameParams], lambda_c: float, gamma1: float,
               gamma2: float, span: float, r: float):
    """The book's per-name value with ``span`` to maturity as an affine
    function of the names' intensities: (const, rows, b0) such that
    const + sum over j of exp(b0[j] * x) @ rows[j] prices intensities x.

    Row j is a premium-leg Gauss-Legendre node on [0, span], then the last
    row maturity for the loss leg; each weights name k's survival exp(B0 x)
    at its node, with exp(A0) folded in.
    """

    K = len(names)
    get = lambda attr: np.array([getattr(n, attr) for n in names], dtype=float)
    z, spread, loss = get("z"), get("spread"), get("loss")
    gl_nodes, gl_weights = map(np.concatenate, zip(*gauss_legendre_panels(span)))
    u = np.append(gl_nodes, span)
    a0, b0 = survival_exponents(
        get("kappa"), get("sigma"), get("alpha"),
        [(lambda_c, get("c"), gamma1), (get("lambda_hat"), get("d"), gamma2)], u[:, None])
    disc = np.exp(-r * u)
    coeff_loss = z * loss / K
    rows = np.empty((len(u), K))
    rows[:-1] = (gl_weights * disc[:-1])[:, None] * (z * (spread + r * loss) / K)
    rows[-1] = disc[-1] * coeff_loss
    rows *= np.exp(a0)
    return -coeff_loss.sum(), rows, b0


def _book_values(x: np.ndarray, const: float, rows: np.ndarray,
                 b0: np.ndarray) -> np.ndarray:
    """Per-path book values const + sum over j of exp(b0[j] * x) @ rows[j]
    of intensities x (paths by names), from :func:`_book_rows`."""

    eps = np.full(len(x), const)
    buf = np.empty_like(x)
    for j in range(len(rows)):
        np.multiply(x, b0[j], out=buf)
        np.exp(buf, out=buf)
        eps += buf @ rows[j]
    return eps


def mc_exposure(pathset: PathSet, names: Sequence[NameParams], t: float, maturity: float,
                r: float) -> tuple[float, float]:
    """Monte-Carlo estimate of the per-name portfolio exposure at time t.

    Each path prices its CDS book from the simulated intensity state at t
    through the name-level affine survival transform
    exp(A0(s - t) + B0(s - t) xi_t). The exponents are closed forms
    (:func:`~cdspool.riccati.survival_exponents`, the basic affine
    jump-diffusion transform with exponential jump sizes), evaluated for all
    names at once, so no quadrature error enters them. The premium-leg time
    integral runs over :func:`~cdspool.quadrature.gauss_legendre_panels` on
    [0, maturity - t]; the loss leg reads the transform at maturity. Returns
    (estimate, stderr) of the per-name (divided by K) exposure of the
    investor at time t for contracts maturing at ``maturity``; short names
    (z = -1) enter with negative sign; the stderr is
    :meth:`PathSet.stderr`'s.
    """

    if t > maturity:
        raise ValueError("Require t <= maturity.")
    K = pathset.n_names
    if K == 0 or len(names) != K:
        raise ValueError("names must match the simulated reference pool.")
    x_t = pathset.intensities[:, pathset.time_index(t), :K]
    span = maturity - t
    if span == 0.0:
        return 0.0, 0.0

    eps = _book_values(x_t, *_book_rows(names, pathset.lambda_c, pathset.gamma1,
                                         pathset.gamma2, span, r))
    return float(eps.mean()), pathset.stderr(eps)


def mc_kernel_oracles(pathset: PathSet, u: float):
    """MC estimates of the three counterparty kernels at lag u, read from a
    simulation of the counterparty pair alone started at the kernels' (x_a,
    x_b), with u a stored sample time. With S(u) = exp(-integral of xi_A +
    xi_B on [0,u]), they are

    - h1 = E[S(u) xi_B(u)], the default-density kernel of side B,
    - h2 = E[S(u) xi_A(u)], its mirror for side A,
    - the joint survival factor E[S(u)].

    Returns ((h1, stderr), (h2, stderr), (joint, stderr)) as floats, each
    stderr clustered by antithetic pair (:func:`_pair_stderr`).
    Raises ValueError for a PathSet without running integrals (a system with
    names, or the exact engine) or for a lag that is not stored. Validation
    oracle for the closed-form kernels.
    """

    if pathset.integrated is None:
        raise ValueError("The kernel oracles read the running integrals, which only "
                         "a simulation of the counterparty pair alone records.")
    i = pathset.time_index(u)
    surv = np.exp(-(pathset.integrated[:, i, 0] + pathset.integrated[:, i, 1]))
    return tuple((float(vals.mean()), pathset.stderr(vals))
                 for vals in (surv * pathset.intensities[:, i, 1],
                              surv * pathset.intensities[:, i, 0], surv))


def mc_limit_transform(u: float, cfg: LimitConfig, n_paths: int,
                       seed: int) -> tuple[float, float]:
    """MC estimate of E[exp(-integral of X on [0,u])] for the limit
    killing-rate diffusion of ``cfg``, on 1000 Euler steps with antithetic
    path pairs; returns (estimate, stderr), the stderr clustered by pair
    (:func:`_pair_stderr`).

    X is a square-root diffusion from x0 with per-path constant drift shift
    c lambda_c Y + d lambda_hat Ytilde, Y ~ Exp(gamma1), Ytilde ~ Exp(gamma2)
    (the frozen-mark drift of the large-pool limit). Used as the independent
    oracle for the closed form ``survival_fhat(u, cfg)``.
    """

    u = float(u)
    if not (math.isfinite(u) and u > 0.0):
        raise ConfigError(f"u must be finite and > 0, got {u}.")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1.")
    drift_c, drift_d = cfg.c * cfg.lambda_c, cfg.d * cfg.lambda_hat
    n_steps = 1000
    dt = u / n_steps
    key = _philox_key(seed)
    sqrt_dt = math.sqrt(dt)
    vals = np.empty(n_paths)
    bf = _NARROW_BLOCK_SIZE
    n_blocks = (n_paths + bf - 1) // bf

    for b in range(n_blocks):
        rng = _block_generator(key, _BLOCK_LIMIT, b)
        r0 = b * bf
        r1 = min(n_paths, r0 + bf)
        y1 = rng.standard_exponential(bf) / cfg.gamma1
        y2 = rng.standard_exponential(bf) / cfg.gamma2
        drift0 = cfg.alpha + drift_c * y1 + drift_d * y2
        x = np.full(bf, cfg.x0, dtype=float)
        xp = np.maximum(x, 0.0)
        xnew, z, a, v = (np.empty(bf) for _ in range(4))
        integ = np.zeros(bf)
        for _ in range(n_steps):
            _diffuse(rng, x, xp, drift0, cfg.kappa, cfg.sigma, dt, sqrt_dt, z, a, v)
            _truncate_and_integrate(x, xp, xnew, integ, dt, a)
            xp, xnew = xnew, xp
        vals[r0:r1] = np.exp(-integ[:r1 - r0])

    return float(vals.mean()), _pair_stderr(vals)
