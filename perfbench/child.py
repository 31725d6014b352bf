"""One benchmark operation in a fresh process.

Usage: ``python3 child.py JOB.json`` where the job file holds the CLI
invocations of one operation. The process times its set-up (importing
cdspool, then ``parse_config`` + ``build_spec`` for every invocation) and,
unless the job is set-up only, the operation itself: every invocation
through ``cdspool.cli.main``, back to back, including writing the output
files. It writes its measurements as JSON to the job's ``result`` path.

Both timed regions run under a :class:`SpeedProbe`, because the speed of a
shared machine's CPU drifts by up to about 1.8x from one minute to the next.
"""

import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_EVERY_S = 0.1
PROBE_EDGE_RUNS = 3
# the probe kernel's duration on the reference CPU (about the quiet speed of
# the 2-core x86 machine the benchmark was written on)
PROBE_REFERENCE_S = 1e-3


def _probe_kernel() -> float:
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(6000):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    return time.perf_counter() - t0


class SpeedProbe:
    """Time a region and rescale it to the reference CPU speed.

    A fixed pure-Python kernel runs 3 times before the region, every 100 ms
    inside it (from SIGALRM, between bytecodes of the timed code) and 3 times
    after. ``scaled_s`` is the region's wall time, less the kernel runs inside
    it, times ``PROBE_REFERENCE_S`` over the kernel's mean duration: the
    region's wall time on a CPU running at the reference speed. The kernel
    costs about 1% of the region and touches nothing the region uses.
    """

    def __init__(self) -> None:
        self.inside: list[float] = []
        self.edges: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.inside.append(_probe_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.edges += [_probe_kernel() for _ in range(PROBE_EDGE_RUNS)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.edges += [_probe_kernel() for _ in range(PROBE_EDGE_RUNS)]

    @property
    def scaled_s(self) -> float:
        speed = PROBE_REFERENCE_S / statistics.fmean(self.inside + self.edges)
        return (self.wall_s - sum(self.inside)) * speed


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    invocations = job["invocations"]

    with SpeedProbe() as setup:
        from cdspool import cli
        from checks import build_spec  # this script's directory is sys.path[0]

        for inv in invocations:
            build_spec(Path(inv["config"]), inv["experiment"], inv["seed"], tuple(inv["sets"]))
    result = {"setup_s": setup.scaled_s, "setup_wall_s": setup.wall_s}

    if job["run"]:
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        with SpeedProbe() as op:
            codes = [cli.main(inv["argv"]) for inv in invocations]
        result.update(run_s=op.scaled_s, run_wall_s=op.wall_s, exit_codes=codes,
                      # Linux reports ru_maxrss in KiB
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.layers
            result["missing_layers"] = tracer.missing

    import numpy
    import scipy

    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
