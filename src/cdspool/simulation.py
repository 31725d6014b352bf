"""Monte-Carlo engines for the K-name + two-counterparty default system.

Intensities follow mean-reverting square-root (CIR) dynamics with two jump
layers: a common Poisson process hitting every entity simultaneously
(exponential sizes for names, a Marshall-Olkin pair for the counterparties)
and per-entity idiosyncratic Poisson jumps.

The names and their jump law form one :class:`Pool`, the only way either
engine takes that law. Both lay the entities out in one table
(:class:`_Entities`) and draw each block's jump events from one sampler
(:func:`_jump_events`). Two engines simulate this system:

- :func:`_euler_blocks` runs Euler with full truncation (positive part in
  both drift and diffusion) on a fine grid. Defaults are doubly
  stochastic: an entity survives to a node while the trapezoidal integral
  of its simulated intensity there is below its unit-mean exponential
  threshold, drawn up front. The engine resolves no default time.
  Each block allocates its step buffers once and runs every step in place:
  the normals are drawn into one buffer (``standard_normal(out=...)``, the
  same values as a fresh draw) and mirrored onto the partner paths (below),
  and the positive part of the state is carried from the end of one step,
  where the trapezoid integral needs it, to the start of the next, where
  drift and diffusion read it. The per-entity parameters are rows at block
  shape, so a block of the narrow pair runs each operation as one flat
  loop. Like the exact engine it stores no path: at each sample time it
  hands a block's state (truncated intensities, running integrals and the
  thresholds) to a visitor that folds it into per-path values, the
  empirical-measure statistics of the measure-convergence study or the
  kernel and conditional-CVA oracles of the gate's pair runs. For the
  counterparty pair alone it also steps a coupled coarse path of step 2 dt
  on the same draws, so that estimators on the pair are
  Richardson-extrapolated (:func:`_richardson`).
- :func:`exact_book_values` draws the names only at the sample times,
  by the exact square-root transition (:func:`_cir_transition`) between
  consecutive events, where the events are the sample times and the jump
  times. It resolves no default times and stores no integrals, so it
  serves the exposure convergence study, whose estimator reads the
  intensities at the sample times alone: it prices the CDS book at each
  sample time while a block's state is in hand, so the study holds
  O(block x K) state plus one value per path and time, never the paths.

Reproducibility contract: paths are generated in fixed-width blocks by one
block driver, :func:`_run_blocks`, each block owning a counter-based RNG
stream derived from (seed, stream tag, block index). The tags keep the
engines' streams disjoint: 0 for :func:`_euler_blocks`, 1 for the limit
diffusion of :func:`mc_limit_transform`, 2 for :func:`exact_book_values`.
The width is 256 paths for systems with names, and 4096 for the
counterparty pair alone and for the limit diffusion, whose narrow state
stays in cache at that width. The Euler loop pairs its paths antithetically
(Glasserman 2004, section 4.2): each step fills half a block's rows with
fresh normals, one per pair, and path 2k + 1 diffuses on the negation of
path 2k's normals. Every other draw stays per path: the default thresholds
and both jump layers. Estimators on Euler paths therefore keep the plain
mean but cluster their standard error by pair (:func:`_pair_stderr`). Every
block draws at full width, its half-width normal fill included, so a path's
draws depend only on the seed, the system's shape and the path's own index,
never on the total path count or on how many workers process the blocks.

Oracles: :func:`mc_kernel_oracles` reads the three counterparty kernels'
per-path values from the pair alone's state at a lag (validation gate).
``mc_limit_transform(u, cfg, n_paths, seed)`` draws the large-pool limit
diffusion of a :class:`~cdspool.exposure.LimitConfig`, whose drift is a
per-path frozen mark, exactly at the one lag u: the endpoint by the same
transition and the integral given both endpoints from the gamma expansion
of Glasserman and Kim (2011) (:func:`_integrated_cir`).
Its paths are independent. It takes the inputs of ``survival_fhat(u,
cfg)``, the closed form it checks.
"""

from __future__ import annotations

import contextvars
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
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
    "Pool",
    "exact_book_values",
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
# the largest exponent whose exp is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the gamma expansion of the integrated square-root diffusion: series terms
# kept before each moment-matched tail; zeta(2j) / pi^(2j) for j = 1..8, the
# Taylor coefficients of its sums; the largest Poisson mean any engine draws
_GK_TERMS = 2
_ZETA_PI = (1 / 6, 1 / 90, 1 / 945, 1 / 9450, 1 / 93555, 691 / 638512875, 2 / 18243225,
            3617 / 325641566250)
_POISSON_MAX = 1e15


@dataclass(frozen=True)
class CounterpartySide:
    """Intensity parameters of one counterparty.

    alpha/kappa/sigma are the mean-reverting diffusion parameters, c and d
    the common/idiosyncratic jump loadings, lambda_hat the idiosyncratic
    Poisson rate, xi0 the initial intensity.
    """

    alpha: float
    kappa: float
    sigma: float
    c: float
    d: float
    lambda_hat: float
    xi0: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ConfigError(f"{type(self).__name__} fields must be finite.")
        if self.alpha < 0 or self.kappa <= 0 or self.sigma < 0:
            raise ConfigError("Require alpha >= 0, kappa > 0, sigma >= 0.")
        if not math.isfinite(self.kappa * self.kappa + 2.0 * self.sigma * self.sigma):
            raise ConfigError("kappa^2 + 2 sigma^2 must be a finite float.")
        if self.c < 0 or self.d < 0 or self.lambda_hat < 0 or self.xi0 < 0:
            raise ConfigError("Jump fields and xi0 must be non-negative.")


@dataclass(frozen=True)
class NameParams(CounterpartySide):
    """Credit and contract parameters of one reference name: the intensity
    fields of a :class:`CounterpartySide`, then the CDS premium spread and
    loss-given-default loss; z = +1 if the investor is long (receives
    spread), -1 if short.
    """

    spread: float
    loss: float
    z: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError("loss must lie in [0, 1].")
        if self.z not in (-1, 1):
            raise ConfigError("z must be +1 or -1.")


@dataclass(frozen=True)
class Pool:
    """The finite-name law: the reference names, a common Poisson clock of
    rate lambda_c at whose events every name k jumps by c_k Exp(gamma1),
    and each name's own Poisson clock (rate lambda_hat_k) of d_k Exp(gamma2)
    jumps.

    Building it checks the jump parameters and lays each
    :class:`NameParams` field out once as a float array over the names
    (``pool.kappa``, ``pool.xi0``, ...). A pool with no names,
    ``Pool((), lambda_c)``, carries only the common clock, for a
    simulation of the counterparty pair alone.
    """

    names: Sequence[NameParams]
    lambda_c: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.lambda_c, self.gamma1, self.gamma2))):
            raise ConfigError("lambda_c, gamma1, gamma2 must be finite.")
        if self.lambda_c < 0 or self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ConfigError("Require lambda_c >= 0 and gamma1, gamma2 > 0.")
        object.__setattr__(self, "names", tuple(self.names))
        for f in fields(NameParams):
            object.__setattr__(self, f.name, np.array([getattr(n, f.name) for n in self.names],
                                                      dtype=float))

    @property
    def layers(self) -> list:
        """The jump layers (rate, loading, size rate) of the names' affine
        transforms: the common clock, then the idiosyncratic clocks."""

        return [(self.lambda_c, self.c, self.gamma1), (self.lambda_hat, self.d, self.gamma2)]


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


class _Level:
    """One Euler level's in-place state in a block: x; its positive part xp,
    carried from the end of one step (the trapezoid) to the start of the
    next (drift and diffusion), with the buffer xnew for the next one; and
    the running trapezoid integral."""

    def __init__(self, x0: np.ndarray) -> None:
        self.x = x0.copy()
        self.xp = np.maximum(x0, 0.0)
        self.xnew = np.empty_like(x0)
        self.integ = np.zeros_like(x0)


def _check_discount(r: float, span: float) -> None:
    """Raise ConfigError unless r * span and the discount factor exp(-r
    span) are finite floats: a finite rate far below 0 overflows the factor
    over a long span, and one of huge size overflows the exponent. The
    pricing functions check it once, on their longest span."""

    exponent = -float(r) * float(span)  # a Python float: overflow gives inf, no warning
    if not (math.isfinite(exponent) and exponent <= _LOG_FLOAT_MAX):
        raise ConfigError(f"The discount factor exp(-r * {span:g}) overflows at r = {r:g}; "
                          f"need r * span finite and >= -{_LOG_FLOAT_MAX:.6g}.")


def _block_generator(key: np.ndarray, tag: int, block: int) -> Generator:
    counter = np.array([0, 0, block, tag], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


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


def _grouped(bucket: np.ndarray, n_buckets: int):
    """Events in a stable order by bucket, and ptr: bucket i holds the
    events order[ptr[i]:ptr[i + 1]]."""

    order = np.argsort(bucket, kind="stable")
    return np.searchsorted(bucket[order], np.arange(n_buckets)), order


def _draw_pairs(rng: Generator, z, v, sqrt_dt: float) -> None:
    """Fill z with antithetic Euler increments sqrt_dt N, in place; v is a
    scratch buffer of z's shape. Fresh normals are drawn for half the rows
    only, into v's first half, and written to the even rows of z; each odd
    row 2k + 1 gets the negation of row 2k, its antithetic partner's."""

    half = v[:len(v) // 2]
    rng.standard_normal(out=half)
    half *= sqrt_dt
    pairs = z.reshape(len(half), 2, *z.shape[1:])
    pairs[:, 0] = half
    np.negative(half, out=pairs[:, 1])


def _euler(x, xp, alpha, kappa, sigma, dt: float, z, a, v) -> None:
    """Euler diffusion update x += (alpha - kappa xp) dt + sigma sqrt(xp) z
    on the Brownian increments z, in place; a and v are scratch buffers of
    x's shape."""

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
    """Apply fn to items, on a thread pool when workers > 1; results in item order.
    Each pooled call runs in a copy of the caller's context (numpy's error state)."""

    if workers > 1 and len(items) > 1:
        contexts = [contextvars.copy_context() for _ in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda ctx, x: ctx.run(fn, x), contexts, items))
    return [fn(x) for x in items]


def _run_blocks(seed: int, tag: int, n_paths: int, width: int, workers: int,
                body: Callable[[Generator, int, int], None]) -> None:
    """The engines' block driver: ``body(rng, r0, r1)`` runs block b, paths
    r0:r1 of ``width``, on ``workers`` threads, with Philox keyed by ``seed``
    at counter (0, 0, b, tag)."""

    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)

    def run(b: int) -> None:
        r0 = b * width
        body(_block_generator(key, tag, b), r0, min(n_paths, r0 + width))

    map_ordered(run, range((n_paths + width - 1) // width), workers)


class _Entities:
    """The pool's names, then sides A and B when the pair is given, on clocks
    run to ``horizon``: each :class:`CounterpartySide` field as one array
    over them, and ``idio_rate``, gamma2 for a name and the idiosyncratic
    BVE marginals for a side. Building it raises ConfigError when a Poisson
    mean, rate * horizon, exceeds _POISSON_MAX."""

    def __init__(self, pool: Pool, cps: CounterpartyParams | None, horizon: float) -> None:
        self.pool, self.cps, self.horizon = pool, cps, horizon
        sides = () if cps is None else (cps.side_a, cps.side_b)
        for f in fields(CounterpartySide):
            setattr(self, f.name, np.append(getattr(pool, f.name),
                                            [getattr(s, f.name) for s in sides]))
        self.idio_rate = np.append(np.full(len(pool.names), pool.gamma2),
                                   [] if cps is None else [cps.idio_jump.marginal_rate_a,
                                                           cps.idio_jump.marginal_rate_b])
        mean = max(pool.lambda_c, float(self.lambda_hat.max())) * horizon
        if mean > _POISSON_MAX:
            raise ConfigError(f"A jump clock's Poisson mean, rate * horizon = {mean:g}, "
                              f"exceeds {_POISSON_MAX:g}.")


def _jump_events(rng: Generator, ent: _Entities, rows: int):
    """One block's jump events, ``rows`` paths wide, in this stream order:
    the common clock's counts per path (Poisson, mean lambda_c horizon), a
    uniform per event, the names' sizes c Exp(gamma1) and the sides' c times
    a Marshall-Olkin pair; then each element's (path * E + entity) counts
    (mean lambda_hat horizon), uniforms and sizes d Exp(idio_rate). A clock
    of rate 0 draws nothing. Returns (crow, cu, csize, elem, iu, isize), the
    common events' paths, uniforms and sizes (events by entities) and the
    idiosyncratic events' elements, uniforms and sizes."""

    pool, cps, horizon = ent.pool, ent.cps, ent.horizon
    K, E = len(pool.names), len(ent.c)
    crow = np.repeat(np.arange(rows), rng.poisson(pool.lambda_c * horizon, rows))
    cu = rng.random(len(crow))
    csize = rng.standard_exponential((len(crow), K)) / pool.gamma1 * ent.c[:K]
    if cps is not None:
        pair = np.column_stack(sample_bve(cps.common_jump, rng, len(crow))) * ent.c[K:]
        csize = np.hstack([csize, pair])
    elem = np.repeat(np.arange(rows * E),
                     rng.poisson(ent.lambda_hat * horizon, (rows, E)).reshape(-1))
    iu = rng.random(len(elem))
    col = elem % E
    isize = rng.standard_exponential(len(elem)) / ent.idio_rate[col] * ent.d[col]
    return crow, cu, csize, elem, iu, isize


def _euler_blocks(pool: Pool, cps: CounterpartyParams | None, *, horizon: float, n_paths: int,
                  seed: int, dt: float, sample_times, workers: int,
                  visit: Callable[..., None]) -> None:
    """The Euler engine's block loop: simulate the joint intensity system,
    handing each block's state and default thresholds to ``visit``.

    Parameters
    ----------
    pool, cps
        The reference names with their jump law, and (optionally) the two
        counterparties (entities in :class:`_Entities` order). The pair
        alone runs on ``Pool((), lambda_c)``, whose common clock it shares.
    horizon, n_paths, seed
        Simulation horizon, path count, and RNG seed.
    dt
        Euler step. Must divide the horizon.
    sample_times
        Distinct grid times at which the state is visited.
    workers
        Thread count for the block loop; never changes the values visited.

    Each block draws its unit-exponential default thresholds, then its jump
    events (:func:`_jump_events`), each at the step its uniform falls in.
    At each sample time i, ``visit(level, i, r0, r1, xp, integ, thr)``
    reads one level of one block: the truncated, non-negative intensities
    xp, the running trapezoid integrals integ and the thresholds thr, each
    full width (block rows by entities), whose first r1 - r0 rows are paths
    r0:r1. The integral never decreases, so integ < thr means no crossing
    at any node up to the sample time. These are the block's live buffers,
    so a visit copies what it keeps; blocks run on ``workers`` threads, so a
    visit writes only to its own paths. Level 0 is the fine path. The
    counterparty pair alone also steps a coupled coarse path of step 2 dt,
    level 1, visited with the same thresholds at the sample times on its
    grid: its Brownian increment is the sum of the two fine ones, and it
    adds both fine steps' jumps at the end of its step. It draws nothing,
    so the fine path is unchanged by it. The pair alone needs an even step
    count, so that its coarse grid ends at the horizon. Every check runs
    before the first allocation: the step count must fit a numpy array and
    each Poisson mean of the jump clocks must stay below ``_POISSON_MAX``.
    """

    K = len(pool.names)
    if cps is None and K == 0:
        raise ConfigError("Need at least one name or the counterparty pair.")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1.")
    if not math.isfinite(horizon):
        raise ConfigError("horizon must be finite.")
    if not dt > 0 or horizon < dt:
        raise ConfigError("Require dt > 0 and horizon >= dt.")
    steps = horizon / dt
    if not steps < sys.maxsize // 8:
        raise ConfigError(f"horizon / dt = {steps:.3g} Euler steps, more than an array of "
                          f"step pointers can index.")
    n_steps = int(round(steps))
    if abs(n_steps * dt - horizon) > 1e-8 * horizon:
        raise ConfigError("dt must divide the horizon.")
    ent = _Entities(pool, cps, horizon)
    pair = K == 0  # the pair alone: the coupled coarse path
    if pair and n_steps % 2:
        raise ConfigError(f"The counterparty pair alone needs an even step count for its "
                          f"coarse path of step 2 dt, got {n_steps} steps.")
    sample_times = np.asarray(sample_times, dtype=float)
    if not np.all(np.isfinite(sample_times)):
        raise ConfigError("sample_times must be finite.")
    sample_idx = np.rint(sample_times / dt).astype(int)
    if np.any(np.abs(sample_idx * dt - sample_times) > 1e-9 * max(1.0, horizon)):
        raise ConfigError("sample_times must lie on the Euler grid.")
    if np.any((sample_idx < 0) | (sample_idx > n_steps)):
        raise ConfigError("sample_times must lie in [0, horizon].")
    if not 0 < len(sample_idx) == len(np.unique(sample_idx)):
        raise ConfigError("sample_times must be one or more distinct grid times.")

    E = len(ent.c)
    slot = np.full(n_steps + 1, -1)  # the sample index of each grid node, -1 elsewhere
    slot[sample_idx] = np.arange(len(sample_idx))
    sqrt_dt = math.sqrt(dt)
    bf = _NAME_BLOCK_SIZE if K else _NARROW_BLOCK_SIZE  # every block draws at full width
    # per-entity rows at block shape, read-only and shared by the blocks:
    # with contiguous operands numpy runs each step's ufunc as one flat loop
    # instead of one short loop per path
    alpha, kappa, sigma = (np.tile(v, (bf, 1)) for v in (ent.alpha, ent.kappa, ent.sigma))

    def run_block(rng: Generator, r0: int, r1: int) -> None:
        thr = rng.standard_exponential((bf, E))
        crow, cu, csize, elem, iu, isize = _jump_events(rng, ent, bf)
        cptr, order = _grouped((cu * horizon / dt).astype(np.int64), n_steps + 1)
        crow, csize = crow[order], csize[order]
        iptr, order = _grouped((iu * horizon / dt).astype(np.int64), n_steps + 1)
        elem, isize = elem[order], isize[order]

        # step buffers, local to the block so worker threads never share them;
        # z holds a fine step's increments, and for the pair alone z_odd the
        # second fine step's of each coarse step
        x0 = np.tile(ent.xi0, (bf, 1))
        levels = [_Level(x0) for _ in range(1 + pair)]
        fine, coarse = levels[0], levels[-1]
        z, z_odd, a, v = (np.empty((bf, E)) for _ in range(4))

        def reach(level: int, node: int) -> None:
            if slot[node] >= 0:
                lv = levels[level]
                visit(level, slot[node], r0, r1, lv.xp, lv.integ, thr)

        def close(level: int, i0: int, i1: int, h: float) -> None:
            """Finish a step of length h that covers fine steps i0 to i1 - 1,
            after its diffusion update: add those steps' jumps, truncate,
            integrate and visit node i1 if it is a sample node."""

            lv = levels[level]
            lo, hi = cptr[i0], cptr[i1]
            if hi > lo:
                np.add.at(lv.x, crow[lo:hi], csize[lo:hi])
            lo, hi = iptr[i0], iptr[i1]
            if hi > lo:
                np.add.at(lv.x.reshape(-1), elem[lo:hi], isize[lo:hi])
            _truncate_and_integrate(lv.x, lv.xp, lv.xnew, lv.integ, h, a)
            lv.xp, lv.xnew = lv.xnew, lv.xp
            reach(level, i1)

        for level in range(len(levels)):
            reach(level, 0)
        for i in range(n_steps):
            zi = z_odd if pair and i % 2 else z
            _draw_pairs(rng, zi, v, sqrt_dt)
            _euler(fine.x, fine.xp, alpha, kappa, sigma, dt, zi, a, v)
            close(0, i, i + 1, dt)
            if pair and i % 2:
                # the coarse step over fine steps i - 1 and i
                z += z_odd
                _euler(coarse.x, coarse.xp, alpha, kappa, sigma, 2.0 * dt, z, a, v)
                close(1, i - 1, i + 1, 2.0 * dt)

    _run_blocks(seed, _BLOCK_PATHS, n_paths, bf, workers, run_block)


def _cir_law(dt, alpha, kappa, sigma):
    """Coefficients (decay, c, shift) of the exact square-root transition
    over dt > 0: decay = e^{-kappa dt}, c = sigma^2 (1 - decay) / (4 kappa)
    and shift = alpha (1 - decay) / kappa, the mean's constant part.
    Every argument broadcasts."""

    grow = -np.expm1(-kappa * dt)
    return np.exp(-kappa * dt), sigma * sigma * grow / (4.0 * kappa), alpha * grow / kappa


def _cir_transition(rng: Generator, x, decay, c, shift) -> tuple[np.ndarray, np.ndarray]:
    """One exact square-root transition per element, from :func:`_cir_law`'s
    coefficients (broadcast together), and its Poisson count: (x_next, N) with
    N ~ Poisson(x decay / (2 c)) and x_next = 2 c Gamma(shift / (2 c) + N), where
    shift / (2 c) = 2 alpha / sigma^2 (Broadie and Kaya 2006). An element with
    c = 0 (sigma = 0), or whose N has a mean above _POISSON_MAX (relative noise
    below 1 / sqrt(_POISSON_MAX); numpy rejects means above about 9e18),
    follows its flow x decay + shift, with count -1."""

    x, decay, c, shift = np.broadcast_arrays(x, decay, c, shift)
    out = x * decay
    flow = ~(out < c * (2.0 * _POISSON_MAX))
    if flow.any():
        out += shift
        count = np.full(out.shape, -1)
        keep = ~flow
        out[keep], count[keep] = _cir_transition(rng, *(v[keep] for v in (x, decay, c, shift)))
        return out, count
    out /= 2.0 * c  # in place, as below: three block-sized arrays at the peak
    count = rng.poisson(out)
    np.divide(shift, 2.0 * c, out=out)
    out += count
    out = rng.standard_gamma(out)
    out *= 2.0 * c
    return out, count


def _exact_blocks(ent: _Entities, times: np.ndarray, n_paths: int, seed: int, workers: int,
                  visit: Callable[[int, int, int, np.ndarray], None]) -> None:
    """The exact engine's block loop on inputs checked by :func:`exact_book_values`.

    Each (path, name) moves between consecutive events by
    :func:`_cir_transition`; the events are the sample times, the path's
    common-jump times and the name's idiosyncratic jump times
    (:func:`_jump_events`, each uniform u at time (1 - u) horizon), all in
    (0, horizon], where the jump is added. Each sample interval runs one
    full-width draw, to every element's first event or the interval's end,
    then one round per event rank, drawing only for the elements that
    jumped. At each sample time i, including 0, ``visit(i, r0, r1, x)``
    reads the full-width state x (block rows by names) of one block, whose
    first r1 - r0 rows are paths r0:r1; blocks run on ``workers`` threads,
    so a visit writes only to its own paths. A visit that computes on all
    rows does the same arithmetic on every block, so a path's result never
    depends on the path count.
    """

    pool, horizon = ent.pool, ent.horizon
    K, n_s = len(pool.names), len(times)
    bf = _NAME_BLOCK_SIZE
    law = lambda dt, col: _cir_law(dt, pool.alpha[col], pool.kappa[col], pool.sigma[col])

    def run_block(rng: Generator, r0: int, r1: int) -> None:
        # the common sizes stay one row per event; an element is path * K + name
        crow, cu, csize, ielem, iu, isize = _jump_events(rng, ent, bf)
        ctime = (1.0 - cu) * horizon
        itime = (1.0 - iu) * horizon
        # each clock's events grouped by sample interval, (s_i, s_{i+1}]
        cptr, corder = _grouped(np.searchsorted(times, ctime, side="left") - 1, n_s)
        iptr, iorder = _grouped(np.searchsorted(times, itime, side="left") - 1, n_s)

        x = np.tile(pool.xi0, (bf, 1))
        flat = x.reshape(-1)
        coef = np.empty((3, bf, K))
        visit(0, r0, r1, x)
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
            x[...] = _cir_transition(rng, x, *coef)[0]
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
                flat[e] = _cir_transition(rng, flat[e], *law(step, e % K))[0]
            visit(i + 1, r0, r1, x)

    _run_blocks(seed, _BLOCK_EXACT, n_paths, bf, workers, run_block)


def exact_book_values(pool: Pool, *, sample_times, maturity: float, r: float, n_paths: int,
                      seed: int, workers: int = 1) -> np.ndarray:
    """Per-path book values of the exact engine's paths at each sample time.

    ``sample_times`` start at 0 and increase strictly, up to the horizon
    <= ``maturity``; ``r`` and ``maturity`` are finite, and so is the
    discount factor exp(-r maturity); each jump clock's Poisson mean, rate *
    horizon, stays within ``_POISSON_MAX``. values[i, m] is the per-name
    value at sample time i (0 at maturity) of the investor's CDS book on path m,
    priced from the names' state through their closed-form affine survival
    transforms (:func:`_book_rows`, :func:`_book_values`); short names
    (z = -1) enter with negative sign. The paths are independent, so a row's stderr is
    the plain :func:`_stderr`. No path is stored: each block's state is
    priced at each sample time while it is in hand, so memory is
    O(block x names) plus the (times x paths) values.
    """

    if len(pool.names) == 0:
        raise ConfigError("Need at least one name.")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1.")
    if not (math.isfinite(r) and math.isfinite(maturity)):
        raise ConfigError("r and maturity must be finite.")
    times = np.asarray(sample_times, dtype=float)
    if (times.ndim != 1 or len(times) < 2 or times[0] != 0.0
            or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0)):
        raise ConfigError("sample_times must start at 0 and increase strictly.")
    if not maturity >= times[-1]:
        raise ValueError("Require every sample time <= maturity.")
    _check_discount(r, maturity)
    ent = _Entities(pool, None, float(times[-1]))
    spans = [maturity - float(t) for t in times]
    books = [_book_rows(pool, span, r) if span != 0.0 else None for span in spans]
    values = np.zeros((len(times), n_paths))

    def price(i: int, r0: int, r1: int, x: np.ndarray) -> None:
        if books[i] is not None:
            values[i, r0:r1] = _book_values(x, *books[i])[:r1 - r0]

    _exact_blocks(ent, times, n_paths, seed, workers, price)
    return values


def _book_rows(pool: Pool, span: float, r: float):
    """The book's per-name value with ``span`` to maturity as an affine
    function of the names' intensities: (const, rows, b0) such that
    const + sum over j of exp(b0[j] * x) @ rows[j] prices intensities x.

    Row j is a premium-leg Gauss-Legendre node on [0, span], then the last
    row maturity for the loss leg; each weights name k's survival exp(B0 x)
    at its node, with exp(A0) folded in.
    """

    K = len(pool.names)
    z, spread, loss = pool.z, pool.spread, pool.loss
    gl_nodes, gl_weights = map(np.concatenate, zip(*gauss_legendre_panels(span)))
    u = np.append(gl_nodes, span)
    a0, b0 = survival_exponents(pool.kappa, pool.sigma, pool.alpha, pool.layers, u[:, None])
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


def mc_kernel_oracles(xp: np.ndarray, integ: np.ndarray):
    """Per-path MC values of the three counterparty kernels at lag u, read
    from the pair alone started at the kernels' (x_a, x_b): xp holds the
    intensities and integ the running integrals at u (paths by sides A,
    B). With S(u) = exp(-integral of xi_A + xi_B on [0,u]), their means are

    - h1 = E[S(u) xi_B(u)], the default-density kernel of side B,
    - h2 = E[S(u) xi_A(u)], its mirror for side A,
    - the joint survival factor E[S(u)].

    Returns the (h1, h2, joint) value arrays. Read from both levels of
    :func:`_euler_blocks` and combined by :func:`_richardson`, each is a
    validation oracle for a closed-form kernel.
    """

    surv = np.exp(-(integ[:, 0] + integ[:, 1]))
    return surv * xp[:, 1], surv * xp[:, 0], surv


def _richardson(fine: np.ndarray, coarse: np.ndarray) -> tuple[float, float]:
    """(mean, stderr) of 2 fine - coarse, per-path values read from the
    pair's fine path and its coupled coarse path, the stderr clustered by
    antithetic pair. On one set of draws this cancels Euler's first-order
    weak error (Talay and Tubaro 1990; Glasserman 2004, section 6.2)."""

    vals = 2.0 * fine - coarse
    return float(vals.mean()), _pair_stderr(vals)


def _expansion_sums(h: float) -> tuple[float, float, float, float]:
    """The full sums over n >= 1 that set the moments of the gamma expansion
    (:func:`_integrated_cir`) at h = kappa u / 2. With d_n = h^2 + pi^2 n^2
    they are sum 1/d_n, sum 1/d_n^2, sum pi^2 n^2/d_n^2 and sum pi^2 n^2/d_n^3,
    in closed form through coth h and csch h. Those forms cancel like 1/h^4 as
    h -> 0, so below h = 0.3 their Taylor series in h^2 is used, whose
    coefficients are zeta(2j)/pi^(2j); both agree to about 3e-13 there."""

    if h < 0.3:
        t1 = t2 = a = b = 0.0
        for j in range(len(_ZETA_PI) - 1):
            p, z, z1 = (-h * h) ** j, _ZETA_PI[j], _ZETA_PI[j + 1]
            t1 += p * z
            t2 += (j + 1) * p * z1
            a += (j + 1) * p * z
            b += (j + 1) * (j + 2) / 2 * p * z1
        return t1, t2, a, b
    coth, csch = 1.0 / math.tanh(h), 1.0 / math.sinh(h)  # csch * csch underflows to 0
    csch2, h2 = csch * csch, h * h
    return ((h * coth - 1.0) / (2.0 * h2), (h2 * csch2 + h * coth - 2.0) / (4.0 * h2 * h2),
            coth / (4.0 * h) - csch2 / 4.0,
            coth / (16.0 * h2 * h) + csch2 / (16.0 * h2) - coth * csch2 / (8.0 * h))


def _integrated_cir(rng: Generator, x0: float, alpha: np.ndarray, kappa: float, sigma: float,
                    u: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of (X_u, integral of X on [0, u]) of the square-root
    diffusion dX = (alpha - kappa X) dt + sigma sqrt(X) dW from x0 > 0, one
    per entry of the drift array alpha >= 0; u > 0, sigma > 0.

    The endpoint X_u and its Poisson count N come from the exact transition
    (:func:`_cir_transition`). Given X_u, N has the Bessel law of the count
    eta in the gamma expansion of the integral (Glasserman and Kim 2011), so
    no Bessel function is evaluated. With delta = 4 alpha / sigma^2 and the
    expansion's gamma_n and lambda_n, the integral is the sum over n of
    (Gamma(P_n) + Gamma(delta / 2 + 2 N)) / gamma_n, P_n ~ Poisson(lambda_n
    (x0 + X_u)): X1, then X2 + X3 in one gamma per term. Each series keeps
    _GK_TERMS terms, and its tail is one gamma with the tail's mean and
    variance (:func:`_expansion_sums`). Every draw has alpha's length, so an
    entry depends only on the stream and its index. Where the transition
    follows its flow (tiny u or sigma; N's mean is one scalar, so every
    entry alike), the integral is the flow's, and a P_n whose mean exceeds
    _POISSON_MAX (a tiny sigma with x0 near 0) is taken at its mean.
    """

    decay, c, shift = _cir_law(u, alpha, kappa, sigma)
    x_u, eta = _cir_transition(rng, x0, decay, c, shift)
    if eta[0] < 0:
        grow = -math.expm1(-kappa * u)
        ramp = max(u - grow / kappa, 0.0) / kappa  # the drift's integral per unit alpha
        return x_u, x0 * grow / kappa + alpha * ramp

    h = 0.5 * kappa * u
    # with d_n = h^2 + pi^2 n^2: 1 / gamma_n = sigma^2 u^2 / (2 d_n) and
    # lambda_n = 4 pi^2 n^2 / (sigma^2 u d_n)
    d = h * h + (math.pi * np.arange(1, _GK_TERMS + 1)) ** 2
    q = d - h * h
    s2u = sigma * sigma * u
    inv_gamma = s2u * u / (2.0 * d)
    lam = 4.0 * q / (s2u * d)
    t1, t2, a, b = (full - kept.sum() for full, kept in
                    zip(_expansion_sums(h), (1.0 / d, 1.0 / d ** 2, q / d ** 2, q / d ** 3)))
    v = x0 + x_u
    shape = 2.0 * alpha / (sigma * sigma) + 2.0 * eta  # delta / 2 + 2 N
    mean = lam[:, None] * v  # a count above _POISSON_MAX is taken at its mean
    count = np.where(mean > _POISSON_MAX, mean, rng.poisson(np.minimum(mean, _POISSON_MAX)))
    terms = (rng.standard_gamma(count)
             + rng.standard_gamma(np.broadcast_to(shape, (_GK_TERMS, len(alpha)))))
    integ = (inv_gamma[:, None] * terms).sum(axis=0)
    # the tails: X1's has mean 2 u a v and variance 2 sigma^2 u^3 b v, the
    # other's mean sigma^2 u^2 t1 shape / 2 and variance sigma^4 u^4 t2 shape / 4
    integ += s2u * u * b / a * rng.standard_gamma(2.0 * a * a / (s2u * b) * v)
    integ += s2u * u * t2 / (2.0 * t1) * rng.standard_gamma(t1 * t1 / t2 * shape)
    return x_u, integ


def mc_limit_transform(u: float, cfg: LimitConfig, n_paths: int,
                       seed: int) -> tuple[float, float]:
    """MC estimate of E[exp(-integral of X on [0,u])] for the limit
    killing-rate diffusion of ``cfg``, drawn exactly at u; returns
    (estimate, stderr), the plain :func:`_stderr` of independent paths.

    X is a square-root diffusion from x0 with per-path constant drift shift
    c lambda_c Y + d lambda_hat Ytilde, Y ~ Exp(gamma1), Ytilde ~ Exp(gamma2)
    (the frozen-mark drift of the large-pool limit). With the marks drawn,
    each path is a plain square-root diffusion, whose integral over [0, u]
    :func:`_integrated_cir` draws in one interval. Used as the independent
    oracle for the closed form ``survival_fhat(u, cfg)``. The lag must lie
    in (0, 1000 / kappa]: the expansion's sums read sinh(kappa u / 2),
    which overflows past about 1420 / kappa.
    """

    u = float(u)
    if not (math.isfinite(u) and u > 0.0):
        raise ConfigError(f"u must be finite and > 0, got {u}.")
    if not u <= 1000.0 / cfg.kappa:
        raise ConfigError(f"u must be at most 1000 / kappa = {1000.0 / cfg.kappa:g} "
                          f"(sinh(kappa u / 2) overflows past about 1420 / kappa), got {u:g}.")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1.")
    drift_c, drift_d = cfg.c * cfg.lambda_c, cfg.d * cfg.lambda_hat
    vals = np.empty(n_paths)
    bf = _NARROW_BLOCK_SIZE

    def run_block(rng: Generator, r0: int, r1: int) -> None:
        y1 = rng.standard_exponential(bf) / cfg.gamma1
        y2 = rng.standard_exponential(bf) / cfg.gamma2
        drift0 = cfg.alpha + drift_c * y1 + drift_d * y2
        _, integ = _integrated_cir(rng, cfg.x0, drift0, cfg.kappa, cfg.sigma, u)
        vals[r0:r1] = np.exp(-integ[:r1 - r0])

    _run_blocks(seed, _BLOCK_LIMIT, n_paths, bf, 1, run_block)
    return float(vals.mean()), _stderr(vals)
