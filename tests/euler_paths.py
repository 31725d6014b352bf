"""The Euler engine's block states stored as whole paths, for the tests that
read them.

The pipelines fold each block's state into per-path values while it is in
hand (``_euler_blocks``); :func:`stored_paths` keeps a copy of every visit
instead and assembles the intensities, running integrals, default times and
thresholds of every path, with the pair alone's coupled coarse path beside
them. :func:`kernel_oracles` reads the gate's three kernel oracles from such
a store.
"""

from dataclasses import dataclass

import numpy as np

from cdspool.simulation import (_BLOCK_PATHS, _NAME_BLOCK_SIZE, _NARROW_BLOCK_SIZE,
                                _block_generator, _euler_blocks, _philox_key, _richardson,
                                mc_kernel_oracles)


@dataclass
class Paths:
    """One level of an Euler run at its visited sample times.

    intensities[m, i, j] is the truncated intensity of entity j at times[i]
    on path m and integrated[m, i, j] its running trapezoid integral;
    default_times are resolved through the horizon. coarse is the
    pair alone's coupled path of step 2 dt, at the sample times on its
    grid, sharing the thresholds; None for a system with names.
    """

    times: np.ndarray
    dt: float
    n_names: int
    intensities: np.ndarray
    integrated: np.ndarray
    default_times: np.ndarray
    thresholds: np.ndarray
    coarse: "Paths | None" = None

    @property
    def n_paths(self) -> int:
        return self.intensities.shape[0]

    @property
    def n_entities(self) -> int:
        return self.intensities.shape[2]


def stored_paths(pool, cps=None, *, horizon, n_paths, seed, dt=None, sample_times=None,
                 workers=1) -> Paths:
    """Every path of an ``_euler_blocks`` run, stored. dt defaults to
    horizon / 1000 and sample_times to every grid node; the engine checks
    the arguments, and the store allocates nothing before it does. The run
    always visits the horizon too, so default times are resolved through
    it whichever sample times are stored."""

    if dt is None:
        dt = horizon / 1000.0
    visits = {}

    def store(level, i, r0, r1, xp, integ, tau):
        visits[level, i, r0] = tuple(a[:r1 - r0].copy() for a in (xp, integ, tau))

    if sample_times is None:
        _euler_blocks(pool, cps, horizon=horizon, n_paths=n_paths, seed=seed, dt=dt,
                      sample_times=None, workers=workers, visit=store)
        times = np.arange(int(round(horizon / dt)) + 1) * dt
        end = len(times) - 1
    else:
        times = np.asarray(sample_times, dtype=float)
        # the index of the horizon's grid node among the visited times,
        # appended if absent
        near = np.flatnonzero(np.abs(times - horizon) < 0.5 * dt)
        end = int(near[0]) if near.size else len(times)
        _euler_blocks(pool, cps, horizon=horizon, n_paths=n_paths, seed=seed, dt=dt,
                      sample_times=np.append(times, horizon) if end == len(times) else times,
                      workers=workers, visit=store)

    K = len(pool.names)
    E = K + (0 if cps is None else 2)
    width = _NAME_BLOCK_SIZE if K else _NARROW_BLOCK_SIZE
    starts = range(0, n_paths, width)
    key = _philox_key(seed)
    # each block's stream draws its thresholds first, at full width
    thresholds = np.concatenate([
        _block_generator(key, _BLOCK_PATHS, r0 // width).standard_exponential((width, E))
        [:min(width, n_paths - r0)] for r0 in starts])

    def level(lv, step):
        idx = sorted({i for (v, i, _) in visits if v == lv and i < len(times)})
        # state[k, m, j]: intensities, integrals (k = 0, 1) and default times
        # so far (k = 2) of path m at times[idx[j]]
        state = np.empty((3, n_paths, len(idx), E))
        tau = np.empty((n_paths, E))
        for (v, i, r0), visited in visits.items():
            if v != lv:
                continue
            if i < len(times):
                state[:, r0:r0 + len(visited[0]), idx.index(i)] = visited
            if i == end:
                tau[r0:r0 + len(visited[2])] = visited[2]
        return Paths(times=times[idx], dt=step, n_names=K, intensities=state[0],
                     integrated=state[1], default_times=tau, thresholds=thresholds)

    fine = level(0, dt)
    if K == 0:
        fine.coarse = level(1, 2.0 * dt)
    return fine


def kernel_oracles(ps: Paths, u: float):
    """((h1, stderr), (h2, stderr), (joint, stderr)) at the stored lag u of
    a pair-alone run, each Richardson-extrapolated from its fine and coarse
    paths like the gate's."""

    fine, coarse = (mc_kernel_oracles(p.intensities[:, k], p.integrated[:, k])
                    for p in (ps, ps.coarse) for k in [list(p.times).index(u)])
    return tuple(_richardson(f, c) for f, c in zip(fine, coarse))


def conditional_cva(p: Paths, g) -> np.ndarray:
    """Per-path conditional CVA of one stored level of a pair-alone run whose
    times are the nodes of the weights g (``harness._cva_node_weights``):
    the sum over nodes of g_j xi_B(s_j) S_AB(s_j), with S_AB the joint
    survival exp(-integral of xi_A + xi_B)."""

    return (p.intensities[:, :, 1] * np.exp(-p.integrated.sum(axis=2))) @ g
