"""cdspool benchmark: end-to-end and per-layer metrics on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs the public pipeline (``cdspool.cli.main``) in a fresh
single-threaded process with ``--workers 1`` and writes its files to a
temporary directory inside the checkout; every output is checked
(``checks.py``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, as medians over the
operations of the run (at least two, then more until ``--seconds`` have
passed), with set-up time measured in separate fresh processes as well:

- ``run_s``: time of one operation after import, writing included;
- ``setup_s``: importing cdspool, then ``parse_config`` + ``build_spec``;
- ``peak_rss_mb``: peak resident memory of the operation's process;
- ``success_rate``: share of operations whose exit codes and outputs pass.

Both times are wall seconds rescaled to a reference CPU speed that a probe
kernel measures during the timed region (``child.SpeedProbe``); the raw wall
times are printed beside them as ``run_wall_s`` and ``setup_wall_s``.

``--trace 1`` runs one operation untraced and one traced, checks that their
output files are byte-identical, and reports the per-layer metrics
``<module>.<function>.<stat>`` gathered by ``tracer.py`` (counts are exact;
layer times are raw wall seconds in the traced process), plus the tracing
overhead (traced minus untraced ``run_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
SCRATCH = ROOT / ".perfbench_tmp"

# one 256-path block of the K=300 fig1-c system: about 7 s per operation on
# 2 cores, so a 25 s run holds three or four operations
CONVERGENCE_PATHS = 256
MIN_OPS = 2
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Invocation:
    """One ``cdspool`` CLI call: experiment, config stem under configs/, overrides."""

    experiment: str
    config: str
    seeded: bool = False
    sets: tuple[str, ...] = ()

    def seed_for(self, seed: int) -> int | None:
        return seed if self.seeded else None

    def job(self, seed: int, out_root: Path) -> dict:
        cfg = CONFIGS / f"{self.config}.cfg"
        argv = ["--experiment", self.experiment, "--config", str(cfg),
                "--workers", "1", "--out", str(out_root / self.config)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        for pair in self.sets:
            argv += ["--set", pair]
        return {"experiment": self.experiment, "config": str(cfg),
                "seed": self.seed_for(seed), "sets": list(self.sets), "argv": argv}

    def spec(self, seed: int):
        return checks.build_spec(CONFIGS / f"{self.config}.cfg", self.experiment,
                                 self.seed_for(seed), self.sets)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    check: Callable[[list], list[str]]


WORKLOADS = {w.name: w for w in (
    # wide Euler loop (K=300, 61 sample times, both jump layers) plus
    # mc_exposure; its stored path array sets peak memory
    Workload("convergence-fig1c",
             (Invocation("convergence", "fig1-c", seeded=True,
                         sets=(f"experiment.n_paths={CONVERGENCE_PATHS}",)),),
             checks.check_convergence),
    # closed-form pricing only: limit exposure inside bcva's nested
    # adaptive Simpson, kernel builds; no simulation at all
    Workload("bcva-sweeps",
             tuple(Invocation("bcva-sweep", f) for f in ("fig2", "fig3", "fig4", "fig5")),
             checks.check_sweeps),
    # the narrow simulation shape (2 entities, 20k-100k paths in
    # 32768-path blocks, integrated intensities and default times), the
    # BVE sampler, RK4 oracles and the 20-check gate
    Workload("validate-gate", (Invocation("validate", "validate"),), checks.check_gate),
)}


@dataclass
class Op:
    work: Path
    out: Path
    result: dict | None
    problems: list[str]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CDSPOOL_SET", None)  # an inherited override would change the workload
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(workload: Workload, seed: int, tmp: Path, *, run: bool,
              trace: bool = False) -> Op:
    """Run set-up (and the operation, if ``run``) in a fresh process, then
    check its outputs."""

    work = Path(tempfile.mkdtemp(dir=tmp))
    out_root = work / "out"
    job = {"invocations": [inv.job(seed, out_root) for inv in workload.invocations],
           "run": run, "trace": trace, "result": str(work / "result.json")}
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    with open(work / "stderr.txt", "wb") as err:
        try:
            rc = subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "job.json")],
                                env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = f"timeout after {CHILD_TIMEOUT_S} s"
    if rc != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        return Op(work, out_root, None, [f"process exited {rc}: {' | '.join(tail)}"])
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    problems = []
    if run:
        if any(result["exit_codes"]):
            problems.append(f"cdspool exit codes {result['exit_codes']}")
        try:
            problems += workload.check([(out_root / inv.config, inv.spec(seed))
                                        for inv in workload.invocations])
        except (OSError, KeyError, IndexError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return Op(work, out_root, result, problems)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


TIMED_LAYERS = (
    "simulation.simulate_paths", "simulation.mc_exposure",
    "simulation.mc_kernel_oracles", "simulation.mc_limit_transform",
    "exposure.exposure_limit", "exposure.survival_fhat",
    "kernels.bcva", "kernels.build_kernel_coeffs", "quadrature.simpson_adaptive",
    "riccati.riccati_b", "riccati.rk4_solve", "jumps.sample_bve",
)


def layer_metrics(layers: dict, gate: dict, overhead_s: float) -> dict:
    """Per-layer metrics from the tracer's accumulators and the gate report.

    Every metric is always present; a layer the workload never enters reads 0.
    """

    def get(key: str) -> dict:
        return {**tracer.EMPTY, **layers.get(key, {})}

    m = {}
    for key in TIMED_LAYERS:
        m[f"{key}.calls"] = _metric(get(key)["calls"], "count")
        m[f"{key}.self_s"] = _metric(get(key)["self_s"], "s")
    sim = get("simulation.simulate_paths")
    m["simulation.simulate_paths.ns_per_entity_step"] = _metric(
        1e9 * sim["self_s"] / sim["entity_steps"] if sim["entity_steps"] else 0.0, "ns")
    m["simulation.simulate_paths.stored_mb"] = _metric(sim["stored_bytes"] / 2**20, "MB")
    point = get("kernels.bcva")
    m["kernels.bcva.ms_per_point"] = _metric(
        1e3 * point["total_s"] / point["calls"] if point["calls"] else 0.0, "ms")
    m["quadrature.simpson_adaptive.evals"] = _metric(
        get("quadrature.simpson_adaptive")["evals"], "count")
    m["jumps.sample_bve.draws"] = _metric(get("jumps.sample_bve")["draws"], "count")
    for name in checks.GATE_CHECKS:
        m[f"harness.check.{name}.s"] = _metric(get(f"harness.check.{name}")["total_s"], "s")
        _, err, tol = gate.get(name, ("", 0.0, 1.0))
        m[f"harness.check.{name}.err_over_tol"] = _metric(err / tol, "ratio")
    written = get("harness.write_run")
    m["harness.write_run.s"] = _metric(written["total_s"], "s")
    m["harness.write_run.bytes"] = _metric(written["bytes"], "bytes")
    m["cli.build_spec.s"] = _metric(get("cli.build_spec")["total_s"], "s")
    m["tracing.overhead_s"] = _metric(overhead_s, "s")
    return m


def _say(line: str) -> None:
    print(f"perfbench: {line}", flush=True)


def _summary(name: str, values: list[float], unit: str) -> None:
    _say(f"{name} median={statistics.median(values):.6g} min={min(values):.6g} "
         f"max={max(values):.6g} n={len(values)} [{unit}]")


def _report_problems(kind: str, ops: list[Op]) -> None:
    for i, op in enumerate(ops):
        for p in op.problems:
            _say(f"{kind} {i} FAILED: {p}")


def measure(workload: Workload, seed: int, seconds: int, tmp: Path) -> dict | None:
    """End-to-end metrics over the operations of one run."""

    run_child(workload, seed, tmp, run=False)  # untimed: compiles bytecode, warms caches
    probes = [run_child(workload, seed, tmp, run=False) for _ in range(SETUP_PROBES)]
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        op = run_child(workload, seed, tmp, run=True)
        shutil.rmtree(op.work)
        ops.append(op)
    _report_problems("set-up probe", probes)
    _report_problems("operation", ops)
    timed = [op.result for op in ops if op.result is not None]
    setups = [r.result for r in probes + ops if r.result is not None]
    if not timed:
        return None
    failed = sum(1 for op in ops if op.problems)
    _say(f"operations={len(ops)} failed={failed} error_rate={failed / len(ops):.6g} "
         f"setup_samples={len(setups)}")
    values = {}
    for name, rows, unit in (("run_s", timed, "s"), ("run_wall_s", timed, "s"),
                             ("setup_s", setups, "s"), ("setup_wall_s", setups, "s"),
                             ("peak_rss_mb", timed, "MB")):
        values[name] = [r[name] for r in rows]
        _summary(name, values[name], unit)
    return {"correct": failed == 0 and all(not p.problems for p in probes),
            "attempted": len(ops), "failed": failed,
            "versions": timed[0]["versions"],
            "metrics": {"run_s": _metric(statistics.median(values["run_s"]), "s"),
                        "setup_s": _metric(statistics.median(values["setup_s"]), "s"),
                        "peak_rss_mb": _metric(statistics.median(values["peak_rss_mb"]), "MB"),
                        "success_rate": _metric((len(ops) - failed) / len(ops), "ratio")}}


def trace(workload: Workload, seed: int, tmp: Path) -> dict | None:
    """Per-layer metrics from one traced operation, checked against an untraced one."""

    run_child(workload, seed, tmp, run=False)  # untimed: compiles bytecode, warms caches
    plain = run_child(workload, seed, tmp, run=True)
    traced = run_child(workload, seed, tmp, run=True, trace=True)
    if plain.result is None or traced.result is None:
        _report_problems("untraced/traced operation", [plain, traced])
        return None
    if _tree_bytes(plain.out) != _tree_bytes(traced.out):
        traced.problems.append("traced output files differ from the untraced run's")
    _report_problems("untraced/traced operation", [plain, traced])
    missing = traced.result["missing_layers"]
    if missing:
        _say(f"layers not found in this cdspool, reported as 0: {', '.join(missing)}")
    reports = list(traced.out.rglob("validation_report.txt"))
    gate = checks.read_gate_report(reports[0].parent) if reports else {}
    overhead = traced.result["run_s"] - plain.result["run_s"]
    _say(f"run_s untraced={plain.result['run_s']:.6g} traced={traced.result['run_s']:.6g} "
         f"overhead={overhead:.6g} [s]; wall untraced={plain.result['run_wall_s']:.6g} "
         f"traced={traced.result['run_wall_s']:.6g} [s]")
    failed = sum(1 for op in (plain, traced) if op.problems)
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "versions": traced.result["versions"],
            "metrics": layer_metrics(traced.result["layers"], gate, overhead)}


def main(argv: list[str] | None = None, workloads: dict[str, Workload] | None = None) -> int:
    load_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cdspool" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"perfbench: no cdspool sources under {ROOT}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        print("perfbench: need 0 <= seed < 2**64 and seconds >= 1", file=sys.stderr)
        return 2
    workloads = workloads if workloads is not None else WORKLOADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the checks evaluate this checkout's cdspool
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.trace:
            result = trace(workload, args.seed, tmp)
        else:
            result = measure(workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        print("perfbench: no operation produced a result", file=sys.stderr)
        return 1

    _say("context " + json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "loadavg_start": load_start,
        "platform": platform.platform(), **result.pop("versions"),
        "git_sha": _git_sha()}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
