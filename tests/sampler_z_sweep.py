"""Measure the z-score spread of the gate's four sampler checks.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python tests/sampler_z_sweep.py [n_seeds]

It runs the cases of ``mgf_exp_vs_mc`` (``harness._check_mgf_exp_mc``) and
of ``mgf_bve_vs_mc``, ``bve_sampler_moments`` and ``bve_empirical_mgf``
(``harness._bve_cases``) at ``n_seeds`` seeds (default 200), the
Marshall-Olkin draw at VALIDATION_SEED + 2000 + 2k and the exponential
draw at the next seed, each of ``harness._SAMPLER_DRAWS``. Per case it
prints the mean z, its standard error, the sd of z, max |z| and the count
of |z| > 3, with z = (MC - closed form) / stderr. A calibrated stderr gives
an sd of z near 1 (within about 0.1 at 200 seeds).
"""

import math
import sys

import numpy as np

from cdspool import harness

# (check, key of _bve_cases or None for mgf_exp_vs_mc, label of each case)
CASES = (
    ("mgf_exp_vs_mc", None, ("(-0.5)",)),
    ("mgf_bve_vs_mc", "mgf", ("(-0.7, -0.3)",)),
    ("bve_sampler_moments", "moments", ("mean a", "mean b", "tie")),
    ("bve_empirical_mgf", "empirical", ("(-0.2, -0.2)", "(-1.0, -0.1)", "(-0.1, -1.0)",
                                        "(-0.5, -1.5)", "(-2.0, -2.0)")),
)


def seed_sweep(n_seeds: int) -> None:
    z = {(check, label): [] for check, _, labels in CASES for label in labels}
    for k in range(n_seeds):
        seed = harness.VALIDATION_SEED + 2000 + 2 * k
        bve = harness._bve_cases.__wrapped__(seed)
        for check, key, labels in CASES:
            cases = harness._check_mgf_exp_mc(seed + 1) if key is None else bve[key]
            for label, (closed, est, se) in zip(labels, cases):
                z[check, label].append((est - closed) / se)
    print(f"seed sweep, {n_seeds} seeds of {harness._SAMPLER_DRAWS} draws "
          "(z = (MC - closed form) / stderr):")
    for (check, label), values in z.items():
        v = np.array(values)
        print(f"  {check:<20s} {label:<13s} mean z {v.mean():+.3f} "
              f"(SE {v.std(ddof=1) / math.sqrt(len(v)):.3f})  sd {v.std(ddof=1):.3f}"
              f"  max |z| {np.abs(v).max():.2f}  |z| > 3: {int(np.sum(np.abs(v) > 3))}")


if __name__ == "__main__":
    seed_sweep(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
