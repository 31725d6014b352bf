"""The Euler engine's block states stored as whole paths, for the tests that
read them.

The pipelines fold each block's state into per-path values while it is in
hand (``_euler_blocks``); :func:`stored_paths` writes every visit into
arrays of every path instead: the intensities, running integrals and
default thresholds, with the pair alone's coupled coarse path beside them.
A name survives to a stored time while its integral there is below its
threshold; :func:`default_times` reads the crossing times from a store of
every node. :func:`kernel_oracles` reads the gate's three kernel oracles
from such a store.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from cdspool.simulation import _euler_blocks, _richardson, mc_kernel_oracles


@dataclass
class Paths:
    """One level of an Euler run at its visited sample times.

    intensities[m, i, j] is the truncated intensity of entity j at times[i]
    on path m and integrated[m, i, j] its running trapezoid integral;
    thresholds[m, j] is its unit-exponential default threshold. coarse is
    the pair alone's coupled path of step 2 dt, at the sample times on its
    grid, sharing the thresholds; None for a system with names.
    """

    times: np.ndarray
    dt: float
    n_names: int
    intensities: np.ndarray
    integrated: np.ndarray
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
    horizon / 1000 and sample_times to every grid node. The engine checks
    the arguments before its first visit, and the store allocates its
    arrays at that visit, so a bad argument raises the engine's error."""

    if dt is None:
        dt = horizon / 1000.0
    if sample_times is None:
        # every node; a grid the engine rejects gets the node 0 alone
        n_steps = round(horizon / dt) if dt > 0 and 0 <= horizon < math.inf else 0
        sample_times = np.arange(n_steps + 1) * dt if n_steps > 0 else [0.0]
    K = len(pool.names)
    E = K + (0 if cps is None else 2)
    state = {}
    lock = threading.Lock()

    def store(level, i, r0, r1, xp, integ, thr):
        with lock:
            if not state:
                times = np.asarray(sample_times, dtype=float)
                # the pair alone's coarse level visits the times on its grid
                on_coarse = np.rint(times / dt).astype(int) % 2 == 0
                state["times"] = (times, times[on_coarse])
                state["slots"] = (np.arange(len(times)), np.cumsum(on_coarse) - 1)
                state["thresholds"] = np.empty((n_paths, E))
                # [intensities, integrals] of each level, paths by times by entities
                state["levels"] = [np.empty((2, n_paths, len(t), E))
                                   for t in state["times"][:1 + (K == 0)]]
        n = r1 - r0
        j = state["slots"][level][i]
        out = state["levels"][level]
        out[0, r0:r1, j] = xp[:n]
        out[1, r0:r1, j] = integ[:n]
        state["thresholds"][r0:r1] = thr[:n]

    _euler_blocks(pool, cps, horizon=horizon, n_paths=n_paths, seed=seed, dt=dt,
                  sample_times=sample_times, workers=workers, visit=store)
    thresholds = state["thresholds"]
    fine, *coarse = (Paths(times=times, dt=step, n_names=K, intensities=lv[0],
                           integrated=lv[1], thresholds=thresholds)
                     for lv, times, step in zip(state["levels"], state["times"],
                                                (dt, 2.0 * dt)))
    fine.coarse = coarse[0] if coarse else None
    return fine


def default_times(p: Paths, thresholds=None) -> np.ndarray:
    """Default times (paths by entities) read from one stored level: the
    first stored time at which the running integral reaches the threshold,
    the run's own or the given ``thresholds`` (broadcast to paths by
    entities); inf if it never does. On a store of every node of the
    level's grid these are the crossing times the engine's own grid gives,
    node index times dt, bit for bit."""

    thr = p.thresholds if thresholds is None else thresholds
    thr = np.broadcast_to(np.asarray(thr, dtype=float), p.thresholds.shape)
    crossed = p.integrated >= thr[:, None, :]
    return np.where(crossed.any(axis=1), p.times[np.argmax(crossed, axis=1)], np.inf)


def kernel_oracles(ps: Paths, u: float):
    """((h1, stderr), (h2, stderr), (joint, stderr)) at the stored lag u of
    a pair-alone run, each Richardson-extrapolated from its fine and coarse
    paths like the gate's."""

    fine, coarse = (mc_kernel_oracles(p.intensities[:, k], p.integrated[:, k])
                    for p in (ps, ps.coarse) for k in [list(p.times).index(u)])
    return tuple(_richardson(f, c) for f, c in zip(fine, coarse))


def conditional_cva(p: Paths, g, every: int = 1) -> np.ndarray:
    """Per-path conditional CVA of one stored level of a pair-alone run
    whose every ``every``-th stored time is a node of the weights g
    (``harness._cva_node_weights``): the sum over nodes of g_j xi_B(s_j)
    S_AB(s_j), with S_AB the joint survival exp(-integral of xi_A + xi_B)."""

    x, integ = p.intensities[:, ::every], p.integrated[:, ::every]
    return (x[:, :, 1] * np.exp(-integ.sum(axis=2))) @ g
