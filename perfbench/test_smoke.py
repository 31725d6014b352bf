"""Smoke test of the benchmark itself at tiny size.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``
(about half a minute). It checks that every metric named in BENCHMARK.json
is printed with its unit, that a traced run keeps outputs byte-identical,
that corrupted outputs fail their checks, and that the benchmark refuses to
run without the cdspool sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_convergence, check_gate, check_sweeps, GATE_CHECKS  # noqa: E402

sys.path.insert(0, str(run.SRC))

from cdspool import cli  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_CONVERGENCE = run.Invocation(
    "convergence", "fig1-c", seeded=True,
    sets=("experiment.k_values=10", "experiment.n_paths=256", "experiment.n_times=5"))
TINY_SWEEP = run.Invocation("bcva-sweep", "fig2", sets=("experiment.sweep_values=0.3",))
TINY = {
    "convergence-tiny": run.Workload("convergence-tiny", (TINY_CONVERGENCE,),
                                     check_convergence),
    "sweep-point": run.Workload("sweep-point", (TINY_SWEEP,), check_sweeps),
}


def bench(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def units(metrics: dict) -> dict:
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    metrics = bench(capsys, workload, 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert metrics["run_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0


def test_traced_run_prints_every_layer_metric(capsys):
    metrics = bench(capsys, "convergence-tiny", 1)  # correct includes byte identity
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert metrics["simulation.simulate_paths.calls"]["value"] == 1
    assert metrics["simulation.mc_exposure.calls"]["value"] == 5
    assert metrics["simulation.simulate_paths.ns_per_entity_step"]["value"] > 0
    assert metrics["kernels.bcva.calls"]["value"] == 0


def produce(inv: run.Invocation, tmp_path: Path) -> list:
    assert cli.main(inv.job(3, tmp_path)["argv"]) == 0
    return [(tmp_path / inv.config, inv.spec(3))]


def edit_csv(out: Path, row: int, col: int, edit) -> None:
    (path,) = out.glob("curve-*.csv")
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = "%.10e" % edit(float(fields[col]))
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_convergence_output_fails(tmp_path):
    runs = produce(TINY_CONVERGENCE, tmp_path)
    assert check_convergence(runs) == []
    edit_csv(runs[0][0], 2, 3, lambda v: v * (1 + 1e-9))  # limit_exposure, one digit
    assert check_convergence(runs)


def test_corrupted_sweep_output_fails(tmp_path):
    runs = produce(TINY_SWEEP, tmp_path)
    assert check_sweeps(runs) == []
    edit_csv(runs[0][0], 1, 1, lambda v: v * (1 + 1e-5))  # cva, beyond rel_tol 1e-6
    assert check_sweeps(runs)


def test_failing_gate_report_fails(tmp_path):
    out = tmp_path / "validate"
    out.mkdir()
    (out / "run_manifest.json").write_text(json.dumps({"validation": {"passed": True}}))
    lines = [f"PASS {name:<34s} err=1.000000e-01 tol=1.0e+00" for name in GATE_CHECKS]
    report = out / "validation_report.txt"
    report.write_text("\n".join(lines + ["OK: 20/20 checks passed"]) + "\n")
    assert check_gate([(out, None)]) == []
    report.write_text("\n".join(lines[1:]) + "\n")
    assert check_gate([(out, None)])
    lines[5] = lines[5].replace("PASS", "FAIL").replace("err=1.0", "err=2.0")
    report.write_text("\n".join(lines) + "\n")
    assert check_gate([(out, None)])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "bcva-sweeps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
