"""Measure the bias and the z-score spread of the gate's four pair checks.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python tests/pair_bias_sweep.py [n_seeds] [n_blocks]

It prints three measurements:

1. **Seed sweep.** The four pair checks of ``harness._pair_values`` at
   ``n_seeds`` seeds (default 200), the kernel run at VALIDATION_SEED +
   1000 + 2k and the CVA run at the next seed: mean z, its standard error,
   the sd of z, max |z| and the count of |z| > 3 per check, and CVA's pooled
   offset from ``bcva``.
2. **Coupled step doubling.** ``n_blocks`` 4096-path blocks (default 100) of
   the pair on three coupled Euler levels, steps 1/336, 1/168 and 1/84,
   driven by the same normals and jumps (the engine's coupling, one level
   deeper); no estimator here reads a default time. The residual bias of
   the Richardson estimator at the gate's step is estimated per path by
   R(1/168) - R(1/336) = 3 Y(1/168) - 2 Y(1/336) - Y(1/84), for the three
   kernels at u = 1 and the conditional CVA, each as a share of the gate's
   stderr.
3. **Node rule.** On the same draws, the conditional CVA on the trapezoid
   minus on Simpson's rule over the same 253 nodes of step 1/84, both
   Richardson-extrapolated at 1/168.
"""

import math
import sys

import numpy as np

from cdspool import harness
from cdspool.simulation import (_NARROW_BLOCK_SIZE, Pool, _draw_pairs, _Entities, _euler,
                                _grouped, _jump_events, _pair_stderr,
                                _truncate_and_integrate, mc_kernel_oracles)

CHECKS = ("h1", "h2", "joint_survival", "cva")


def seed_sweep(n_seeds: int) -> None:
    z = {k: [] for k in CHECKS}
    offsets = []
    for k in range(n_seeds):
        values = harness._pair_values(harness.VALIDATION_SEED + 1000 + 2 * k)
        for name, ((closed, est, se),) in values.items():
            z[name].append((est - closed) / se)
        ((closed, est, _),) = values["cva"]
        offsets.append(est - closed)
    print(f"seed sweep, {n_seeds} seeds (z = (MC - closed form) / stderr):")
    for name in CHECKS:
        v = np.array(z[name])
        print(f"  {name:<15s} mean z {v.mean():+.3f} (SE {v.std(ddof=1) / math.sqrt(len(v)):.3f})"
              f"  sd {v.std(ddof=1):.3f}  max |z| {np.abs(v).max():.2f}"
              f"  |z| > 3: {int(np.sum(np.abs(v) > 3))}")
    off = np.array(offsets)
    print(f"  cva pooled offset from bcva {off.mean():+.2e} +- "
          f"{off.std(ddof=1) / math.sqrt(len(off)):.1e}")


def three_level_block(rng, cps, lambda_c, g_rules, node_every, u_node):
    """One 4096-path block of the pair on fine steps of 1/336 and coupled
    levels of 2 and 4 fine steps. Returns vals[level, q, m]: the three
    kernels at the fine node u_node (q = 0..2) and the conditional CVA on
    each rule of g_rules (q = 3, ...), read at every node_every-th fine node."""

    T, dt = 3.0, harness._PAIR_DT / 2.0
    n_steps = int(round(T / dt))
    bf, E = _NARROW_BLOCK_SIZE, 2
    ent = _Entities(Pool((), lambda_c), cps, T)
    alpha, kappa, sigma = (np.tile(v, (bf, 1)) for v in (ent.alpha, ent.kappa, ent.sigma))
    crow, cu, csize, elem, iu, isize = _jump_events(rng, ent, bf)
    cptr, order = _grouped((cu * T / dt).astype(np.int64), n_steps + 1)
    ev_row, csize = crow[order], csize[order]
    iptr, order = _grouped((iu * T / dt).astype(np.int64), n_steps + 1)
    elem, isize = elem[order], isize[order]

    x0 = np.tile(ent.xi0, (bf, 1))
    x = [x0.copy() for _ in range(3)]
    xp = [np.maximum(x0, 0.0) for _ in range(3)]
    xnew = [np.empty_like(x0) for _ in range(3)]
    integ = [np.zeros_like(x0) for _ in range(3)]
    acc = [np.zeros_like(x0) for _ in range(3)]
    z, a, v = (np.empty((bf, E)) for _ in range(3))
    vals = np.zeros((3, 3 + len(g_rules), bf))

    def node(level, j):
        h1, h2, joint = mc_kernel_oracles(xp[level], integ[level])
        if j * node_every == u_node:
            vals[level, :3] = h1, h2, joint
        for q, g in enumerate(g_rules):
            vals[level, 3 + q] += g[j] * h1

    for level in range(3):
        node(level, 0)
    for i in range(n_steps):
        _draw_pairs(rng, z, v, math.sqrt(dt))
        for level in range(3):
            acc[level] += z
            span = 1 << level
            if (i + 1) % span:
                continue
            h = span * dt
            _euler(x[level], xp[level], alpha, kappa, sigma, h, acc[level], a, v)
            acc[level][:] = 0.0
            i0, i1 = i + 1 - span, i + 1
            lo, hi = cptr[i0], cptr[i1]
            if hi > lo:
                np.add.at(x[level], ev_row[lo:hi], csize[lo:hi])
            lo, hi = iptr[i0], iptr[i1]
            if hi > lo:
                np.add.at(x[level].reshape(-1), elem[lo:hi], isize[lo:hi])
            _truncate_and_integrate(x[level], xp[level], xnew[level], integ[level], h, a)
            xp[level], xnew[level] = xnew[level], xp[level]
            if i1 % node_every == 0:
                node(level, i1 // node_every)
    return vals


def step_doubling(n_blocks: int) -> None:
    cfg, _, cps = harness._validation_baseline()
    nodes, trap = harness._cva_node_weights(cfg, cps.loss_b, 3.0)
    # Simpson's weights on the same nodes: g_j / w_j times h/3 (1, 4, 2, ..., 4, 1)
    w = np.full(len(nodes), nodes[1])
    w[[0, -1]] *= 0.5
    simpson = np.where(np.arange(len(nodes)) % 2, 4.0, 2.0)
    simpson[[0, -1]] = 1.0
    simpson = trap / w * simpson * nodes[1] / 3.0
    node_every = 4  # fine steps of 1/336 per node of 1/84
    u_node = int(round(1.0 / (harness._PAIR_DT / 2.0)))
    key = np.random.SeedSequence(harness.VALIDATION_SEED + 3000)
    vals = np.concatenate([
        three_level_block(np.random.default_rng(s), cps, cfg.lambda_c, (trap, simpson),
                          node_every, u_node)
        for s in key.spawn(n_blocks)], axis=2)
    y336, y168, y84 = vals
    gate_se = {name: se for name, ((_, _, se),) in harness._pair_values().items()}
    print(f"coupled step doubling, {vals.shape[2]} paths (steps 1/336, 1/168, 1/84 on the "
          "same draws), R(1/168) - R(1/336) as a share of the gate's stderr:")
    for q, name in enumerate(CHECKS):
        diff = 3.0 * y168[q] - 2.0 * y336[q] - y84[q]
        print(f"  {name:<15s} {diff.mean() / gate_se[name]:+.4f} "
              f"(probe stderr {_pair_stderr(diff) / gate_se[name]:.4f})"
              f"  [{diff.mean():+.2e} +- {_pair_stderr(diff):.1e}]")
    rule = (2.0 * y168[3] - y84[3]) - (2.0 * y168[4] - y84[4])
    print(f"node rule, trapezoid minus Simpson at 1/168: {rule.mean():+.2e} "
          f"+- {_pair_stderr(rule):.1e}, {rule.mean() / gate_se['cva']:+.4f} of the gate's "
          "CVA stderr")


if __name__ == "__main__":
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    n_blocks = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    seed_sweep(n_seeds)
    step_doubling(n_blocks)
