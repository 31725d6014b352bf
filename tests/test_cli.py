import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cdspool import harness
from cdspool.cli import (EXIT_ACCURACY, EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION,
                         build_spec, main, parse_config)
from cdspool.errors import AccuracyError, ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL = ["--set", "experiment.n_paths=64", "--set", "experiment.k_values=5",
         "--set", "experiment.n_times=5", "--set", "experiment.horizon=0.5"]


def run_cli(args):
    return main([str(a) for a in args])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(root).rglob("*"))
            if p.is_file()}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("limit.kappa 0.5")
    with pytest.raises(ConfigError):
        parse_config("limit.nonsense = 1")
    assert parse_config("# comment only\n\nlimit.kappa = 0.5") == {"limit.kappa": "0.5"}


def test_build_spec_seed_policy():
    mapping = parse_config((CONFIGS / "fig1-a.cfg").read_text())
    with pytest.raises(ConfigError):
        build_spec(mapping, "convergence", None, 1, None)
    spec = build_spec(mapping, "convergence", 5, 2, None)
    assert spec.seed == 5 and spec.workers == 2
    # sweeps are quadrature only: no seed needed
    sweep_map = parse_config((CONFIGS / "fig2.cfg").read_text())
    assert build_spec(sweep_map, "bcva-sweep", None, 1, None).seed is None


def test_build_spec_kind_mismatch():
    mapping = parse_config((CONFIGS / "fig1-a.cfg").read_text())
    with pytest.raises(ConfigError):
        build_spec(mapping, "measure-convergence", 5, 1, None)


def test_build_spec_leaves_unset_experiment_keys_to_the_spec_defaults():
    mapping = {key: value for key, value in parse_config((CONFIGS / "fig2.cfg").read_text())
               .items() if key.startswith("limit.")}
    spec = build_spec(mapping, "convergence", 1, 1, None)
    default = harness.ExperimentSpec(kind="convergence", limit=spec.limit, seed=1)
    for f in fields(harness.ExperimentSpec):
        assert getattr(spec, f.name) == getattr(default, f.name), f.name


def test_convergence_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
                    "--seed", "42", "--out", out] + SMALL)
    assert code == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["provenance"]["seed"] == 42
    assert (out / "curve-exposure-K5.csv").exists()
    assert (out / "config_echo.cfg").exists()


def test_repeat_invocations_are_byte_identical(tmp_path):
    args = ["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
            "--seed", "42"] + SMALL
    assert run_cli(args + ["--out", tmp_path / "a"]) == EXIT_OK
    assert run_cli(args + ["--out", tmp_path / "b"]) == EXIT_OK
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


@pytest.mark.parametrize("args", [
    ["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
     "--seed", "42"] + SMALL,
    # two 256-path blocks, so the workers split the simulation too
    ["--experiment", "measure-convergence", "--config", CONFIGS / "measure.cfg",
     "--seed", "7"] + SMALL + ["--set", "experiment.n_paths=300",
                               "--set", "experiment.k_values=5,10",
                               "--set", "experiment.repeats=2"],
    ["--experiment", "bcva-sweep", "--config", CONFIGS / "fig2.cfg",
     "--set", "experiment.sweep_values=0.1,0.3,0.5"],
], ids=["convergence", "measure-convergence", "bcva-sweep"])
def test_worker_count_never_changes_output(tmp_path, args):
    trees = {}
    for w in (1, 4, 8):
        assert run_cli(args + ["--workers", w, "--out", tmp_path / f"w{w}"]) == EXIT_OK
        trees[w] = tree_bytes(tmp_path / f"w{w}")
    assert trees[1] == trees[4] == trees[8]


def test_set_overrides_apply(tmp_path):
    out = tmp_path / "set"
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
                    "--seed", "1", "--set", "experiment.n_paths=32",
                    "--set", "experiment.n_times=3", "--set", "experiment.k_values=4",
                    "--out", out, "--set", "experiment.horizon=0.5"])
    assert code == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["provenance"]["n_paths"] == 32
    assert manifest["provenance"]["k_values"] == [4]


def test_validate_manifest_does_not_depend_on_workers(tmp_path):
    # no --config: the hash is of the empty text; the worker count is no input
    for w in (1, 2):
        assert run_cli(["--experiment", "validate", "--workers", w,
                        "--out", tmp_path / f"w{w}"]) == EXIT_OK
    assert tree_bytes(tmp_path / "w1") == tree_bytes(tmp_path / "w2")


@pytest.mark.parametrize("ending", ["\n", ""], ids=["newline", "no-newline"])
def test_set_overrides_are_part_of_the_provenance(tmp_path, ending):
    body = (CONFIGS / "fig2.cfg").read_text().rstrip("\n")
    config = tmp_path / "fig2.cfg"
    config.write_text(body + ending)
    sweep = ["--experiment", "bcva-sweep", "--config"]
    assert run_cli(sweep + [config, "--out", tmp_path / "plain"]) == EXIT_OK
    assert run_cli(sweep + [config, "--set", "limit.kappa=0.9",
                            "--out", tmp_path / "set"]) == EXIT_OK
    plain, overridden = tree_bytes(tmp_path / "plain"), tree_bytes(tmp_path / "set")
    curve = "curve-bcva-sigma_star.csv"
    assert plain[curve] != overridden[curve]
    hashes = [json.loads(tree["run_manifest.json"])["provenance"]["config_hash"]
              for tree in (plain, overridden)]
    assert hashes[0] != hashes[1]
    echo = tmp_path / "set" / "config_echo.cfg"
    assert echo.read_text() == body + "\nlimit.kappa = 0.9\n"
    # the echo alone reproduces the run, provenance included
    assert run_cli(sweep + [echo, "--out", tmp_path / "again"]) == EXIT_OK
    assert tree_bytes(tmp_path / "again") == overridden


def test_config_error_exit_codes(tmp_path, capsys):
    # missing seed for a Monte-Carlo experiment
    assert run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
                    "--out", tmp_path]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == EXIT_CONFIG
    # unknown experiment
    assert run_cli(["--experiment", "nope", "--config", CONFIGS / "fig1-a.cfg",
                    "--seed", "1", "--out", tmp_path]) == EXIT_CONFIG
    # override touching an unknown key
    assert run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
                    "--seed", "1", "--set", "limit.nope=1",
                    "--out", tmp_path]) == EXIT_CONFIG
    # malformed config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment.kind convergence\n")
    assert run_cli(["--experiment", "convergence", "--config", bad, "--seed", "1",
                    "--out", tmp_path]) == EXIT_CONFIG
    # unreadable config path
    assert run_cli(["--experiment", "convergence", "--config", tmp_path / "nope.cfg",
                    "--seed", "1", "--out", tmp_path]) == EXIT_CONFIG
    # config file that is not UTF-8
    capsys.readouterr()
    bad.write_bytes(b"experiment.kind = validate\n\xff\n")
    assert run_cli(["--experiment", "validate", "--config", bad,
                    "--out", tmp_path]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == EXIT_CONFIG
    # a run whose per-path statistics would take 89 TiB, two values per path
    # and sample time for 10^11 paths: the spec caps them before any
    # allocation
    assert run_cli(["--experiment", "measure-convergence", "--config",
                    CONFIGS / "measure.cfg", "--seed", "1",
                    "--set", "experiment.n_paths=100000000000",
                    "--set", "experiment.k_values=10", "--out", tmp_path]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == EXIT_CONFIG and err["error"]["kind"] == "config"
    # a run the machine cannot allocate: 10^12 Euler steps fit the engine's
    # step check, and their 7 TiB of step pointers fail at once
    assert run_cli(["--experiment", "measure-convergence", "--config",
                    CONFIGS / "measure.cfg", "--seed", "1",
                    "--set", "experiment.dt=1e-12", "--set", "experiment.n_paths=4",
                    "--set", "experiment.k_values=10", "--out", tmp_path]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == EXIT_CONFIG and err["error"]["kind"] == "memory"


# the experiment and config that read the override, or else its key
BAD_INPUT_RUNS = {"experiment.sweep": ("bcva-sweep", "fig2"),
                  "experiment.repeats": ("measure-convergence", "measure"),
                  "counterparty.gamma_a": ("bcva-sweep", "fig2"),
                  "limit.sigma": ("bcva-sweep", "fig2"),
                  # the Euler grid's step count and the jump clocks' Poisson means
                  "experiment.dt=1e-300": ("measure-convergence", "measure"),
                  "experiment.horizon=1e300": ("measure-convergence", "measure")}


@pytest.mark.parametrize("override", ["experiment.horizon=nan", "experiment.horizon=inf",
                                      "experiment.horizon=-1", "experiment.dt=0",
                                      "experiment.k_values=0", "experiment.sweep=kappa_star",
                                      "experiment.repeats=0", "experiment.repeats=-2",
                                      "counterparty.gamma_a=-1", "counterparty.gamma_a=inf",
                                      "limit.sigma=0", "experiment.n_paths=many",
                                      "experiment.k_values=10,x", "limit.sigma=abc",
                                      "experiment.dt=1e-300", "experiment.horizon=1e300"])
def test_bad_experiment_input_is_a_config_error(tmp_path, capsys, override):
    kind, config = BAD_INPUT_RUNS.get(override, BAD_INPUT_RUNS.get(override.split("=")[0],
                                                                   ("convergence", "fig1-c")))
    seed = [] if kind == "bcva-sweep" else ["--seed", "1"]
    code = run_cli(["--experiment", kind, "--config", CONFIGS / f"{config}.cfg",
                    "--set", override, "--out", tmp_path] + seed)
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["code"] == EXIT_CONFIG and err["error"]["kind"] == "config"


@pytest.mark.parametrize("kind, config, override", [
    ("bcva-sweep", "fig4", "limit.kappa=1e300"), ("bcva-sweep", "fig4", "limit.sigma=1e200"),
    ("convergence", "fig1-c", "limit.sigma=1e200"),
    ("convergence", "fig1-c", "limit.kappa=1e300"),
    ("measure-convergence", "measure", "limit.sigma=1e200")])
def test_an_overflowing_varpi_is_a_config_error(tmp_path, capsys, kind, config, override):
    # kappa^2 + 2 sigma^2 past the largest float: the Riccati closed forms
    # would read an infinite varpi, and the sweeps printed all-zero CVA
    paths = [] if kind == "bcva-sweep" else ["--seed", "1", "--set", "experiment.n_paths=8"]
    code = run_cli(["--experiment", kind, "--config", CONFIGS / f"{config}.cfg",
                    "--set", override, "--out", tmp_path] + paths)
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["code"] == EXIT_CONFIG and err["error"]["kind"] == "config"


@pytest.mark.parametrize("override", [
    # the limit exposure's quadrature panels, then the exact engine's jump clocks
    "experiment.horizon=1e300", "limit.lambda_c=1e16"])
def test_out_of_range_convergence_run_is_a_config_error(tmp_path, capsys, override):
    # each would need an array past numpy's reach: checked before any allocation
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-c.cfg",
                    "--seed", "1", "--set", override, "--set", "experiment.n_paths=4",
                    "--out", tmp_path])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["code"] == EXIT_CONFIG and err["error"]["kind"] == "config"


def test_oversized_time_grid_is_a_config_error(tmp_path, capsys):
    # 10^15 sample times: the spec's cap on held values rejects the run
    # before its time grid is allocated
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-c.cfg",
                    "--seed", "1", "--set", "experiment.n_times=1000000000000000",
                    "--out", tmp_path])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["kind"] == "config" and "cap" in err["error"]["message"]


def test_step_on_a_convergence_run_is_a_config_error(tmp_path, capsys):
    # the convergence book is drawn exactly at the sample times, the sweeps
    # are closed forms and the gate fixes its own steps, so a step would do
    # nothing there (and the manifest would record it); the measure study
    # still runs its Euler grid on it
    for kind, config in (("convergence", "fig1-a"), ("bcva-sweep", "fig4"),
                         ("validate", "validate")):
        out = tmp_path / kind
        code = run_cli(["--experiment", kind, "--config", CONFIGS / f"{config}.cfg",
                        "--seed", "1", "--set", "experiment.dt=0.001", "--out", out] + SMALL)
        assert code == EXIT_CONFIG, kind
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["kind"] == "config" and "dt" in err["error"]["message"]
        assert not out.exists()
    assert run_cli(["--experiment", "measure-convergence", "--config",
                    CONFIGS / "measure.cfg", "--seed", "1", "--set", "experiment.dt=0.05",
                    "--out", tmp_path / "measure"] + SMALL[:4]) == EXIT_OK


# each kind with its config, and a run choice it never reads
UNREAD_CHOICES = ([(kind, config, choice) for kind, config in (("bcva-sweep", "fig2"),
                                                              ("validate", "validate"))
                   for choice in ("experiment.n_paths=8", "experiment.k_values=5",
                                  "experiment.n_times=5", "experiment.repeats=2", "--seed=1")]
                  + [(kind, config, choice) for kind, config in (("convergence", "fig1-a"),
                                                                 ("measure-convergence",
                                                                  "measure"))
                     for choice in ("experiment.sweep=sigma_star",
                                    "experiment.sweep_values=0.1")]
                  + [("convergence", "fig1-a", "experiment.repeats=2"),
                     ("validate", "validate", "experiment.horizon=2"),
                     ("validate", "validate", "limit"), ("validate", "validate", "counterparty"),
                     ("convergence", "fig1-a", "counterparty"),
                     ("measure-convergence", "measure", "counterparty")])
# a model section is set whole, with fig2's values
SECTION_NAMES = {"limit": "the limit section", "counterparty": "the counterparty section"}


@pytest.mark.parametrize("kind, config, choice", UNREAD_CHOICES)
def test_a_run_choice_the_kind_never_reads_is_a_config_error(tmp_path, capsys, kind, config,
                                                             choice):
    # the run would ignore the value and its manifest would record it
    key, _, value = choice.partition("=")
    if key in SECTION_NAMES:
        fig2 = parse_config((CONFIGS / "fig2.cfg").read_text())
        extra = [a for k, v in fig2.items() if k.startswith(f"{key}.")
                 for a in ("--set", f"{k}={v}")]
        key = SECTION_NAMES[key]
    else:
        extra = [key, value] if key == "--seed" else ["--set", choice]
    if kind in ("convergence", "measure-convergence"):
        extra += ["--seed", "1"]
    out = tmp_path / "out"
    code = run_cli(["--experiment", kind, "--config", CONFIGS / f"{config}.cfg",
                    "--out", out] + extra)
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["kind"] == "config"
    assert err["error"]["message"] == f"experiment {kind!r} does not read {key}."
    assert not out.exists()


@pytest.mark.parametrize("config, override", [("fig3", "experiment.sweep_values=0"),
                                              ("fig2", "counterparty.sigma_a=0")])
def test_zero_sigma_counterparty_is_a_config_error(tmp_path, capsys, config, override):
    # the kernels read both sides' Riccati solutions, which need sigma > 0
    code = run_cli(["--experiment", "bcva-sweep", "--config", CONFIGS / f"{config}.cfg",
                    "--set", override, "--out", tmp_path])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["kind"] == "config"
    assert "sigma" in err["error"]["message"]


def test_mixed_sign_book_is_a_config_error(tmp_path, capsys):
    # a long spread with a short loss leg needs a mixed long/short book
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-a.cfg",
                    "--seed", "1", "--set", "limit.l_z=-0.4", "--out", tmp_path]
                   + SMALL)
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == EXIT_CONFIG
    assert "mixed-sign" in err["error"]["message"]


def test_validate_passes_and_perturbation_fails(tmp_path, capsys):
    out = tmp_path / "ok"
    assert run_cli(["--experiment", "validate", "--config", CONFIGS / "validate.cfg",
                    "--workers", "4", "--out", out]) == EXIT_OK
    report = (out / "validation_report.txt").read_text()
    assert "OK: 20/20 checks passed" in report
    capsys.readouterr()

    bad = tmp_path / "bad"
    code = run_cli(["--experiment", "validate", "--config", CONFIGS / "validate.cfg",
                    "--set", "validate.perturb=mgf_bve_partials_vs_fd:0.01;riccati_b_vs_rk4:nan",
                    "--workers", "4", "--out", bad])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "FAIL mgf_bve_partials_vs_fd" in captured.out
    assert "FAIL riccati_b_vs_rk4" in captured.out
    err = json.loads(captured.err.strip())
    assert err["error"]["code"] == EXIT_VALIDATION
    manifest = json.loads((bad / "run_manifest.json").read_text())
    assert manifest["validation"]["failures"] == ["riccati_b_vs_rk4", "mgf_bve_partials_vs_fd"]


def test_accuracy_error_exit_code(tmp_path, capsys, monkeypatch):
    # no shipped input trips a numerical guard, so the sweep raises one
    def inaccurate(spec):
        raise AccuracyError("quadrature did not converge")

    monkeypatch.setattr(harness, "run_bcva_sweeps", inaccurate)
    code = run_cli(["--experiment", "bcva-sweep", "--config", CONFIGS / "fig2.cfg",
                    "--set", "experiment.sweep_values=0.3", "--out", tmp_path])
    assert code == EXIT_ACCURACY
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == EXIT_ACCURACY


@pytest.mark.parametrize("workers", [1, 2])
def test_a_floating_point_exception_is_an_accuracy_error(tmp_path, capsys, workers):
    # alpha = 1e300 with sigma = 1e-5 passes every config check, then
    # 2 alpha / sigma^2 overflows in the exact transition. 512 paths are two
    # blocks, so at two workers the overflow happens on a pool thread, which
    # must keep the run's raising error state; a thread that dropped it let
    # the run exit 0
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-c.cfg",
                    "--seed", "1", "--set", "limit.alpha=1e300", "--set", "limit.sigma=1e-5",
                    "--set", "experiment.n_paths=512", "--workers", workers,
                    "--out", tmp_path])
    assert code == EXIT_ACCURACY
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["kind"] == "accuracy" and "overflow" in err["error"]["message"]
    assert not (tmp_path / "run_manifest.json").exists()


def test_a_run_past_the_poisson_range_ends_cleanly(tmp_path):
    # sigma = 1e-9 puts N's mean x decay / (2 c) near 1e18 and beyond: the
    # names follow their flow; numpy's Poisson used to raise "lam value too large"
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-c.cfg",
                    "--seed", "1", "--set", "limit.alpha=0", "--set", "limit.sigma=1e-9",
                    "--set", "experiment.n_paths=8", "--out", tmp_path])
    assert code == EXIT_OK
    curve = np.loadtxt(tmp_path / "curve-exposure-K300.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(curve))


def test_a_huge_drift_follows_the_flow_to_the_limit_curve(tmp_path):
    # alpha = 1e300: after the first transition N's mean is far past the
    # Poisson cap, every name follows its flow, and the book equals the
    # limit curve, -0.4 until maturity
    code = run_cli(["--experiment", "convergence", "--config", CONFIGS / "fig1-c.cfg",
                    "--seed", "1", "--set", "limit.alpha=1e300",
                    "--set", "experiment.n_paths=8", "--out", tmp_path])
    assert code == EXIT_OK
    t, mc, _, lim = np.loadtxt(tmp_path / "curve-exposure-K300.csv", delimiter=",",
                               skiprows=1, unpack=True)
    np.testing.assert_array_equal(mc, lim)
    np.testing.assert_array_equal(mc, np.where(t < 1.0, -0.4, 0.0))


def test_console_entry_point(tmp_path):
    # one subprocess pass through the installed script path
    result = subprocess.run(
        [sys.executable, "-m", "cdspool.cli", "--experiment", "convergence",
         "--config", str(CONFIGS / "fig1-a.cfg"), "--seed", "2", "--out",
         str(tmp_path)] + [str(a) for a in SMALL],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "run_manifest.json" in result.stdout


def test_a_pricing_run_imports_neither_scipy_nor_numpy_polynomial(tmp_path):
    # scipy is a test oracle only; importing scipy.optimize cost each run
    # about 0.45 s and 42 MB, and numpy.polynomial loads lazily on first use
    script = ("import sys\n"
              "from cdspool.cli import main\n"
              f"code = main(['--experiment', 'bcva-sweep', '--config', "
              f"{str(CONFIGS / 'fig4.cfg')!r}, '--out', {str(tmp_path)!r}])\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
              " or m.startswith('numpy.polynomial')))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_a_long_horizon_sweep_keeps_memory_bounded(tmp_path):
    # a 1000-year horizon takes 100 quadrature panels; building them one at
    # a time keeps peak RSS near 40 MB, where all at once reached 313 MB.
    # The child reads its own VmHWM: Linux carries the spawning process's
    # peak, here the whole test session's, into ru_maxrss across exec.
    script = ("from pathlib import Path\n"
              "from cdspool.cli import main\n"
              f"code = main(['--experiment', 'bcva-sweep', '--config', "
              f"{str(CONFIGS / 'fig4.cfg')!r}, '--out', {str(tmp_path)!r}, "
              "'--set', 'experiment.horizon=1000', '--set', 'experiment.sweep_values=0.5'])\n"
              "status = Path('/proc/self/status').read_text().splitlines()\n"
              "print(code, *[line.split()[1] for line in status if line.startswith('VmHWM:')])\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    code, peak_rss_kb = result.stdout.splitlines()[-1].split()
    assert int(code) == EXIT_OK
    assert int(peak_rss_kb) < 100 * 1024


def test_a_convergence_run_keeps_memory_bounded(tmp_path):
    # fig1-c at K = 1000: the book is priced at each sample time from one
    # block's state, so peak RSS stays near 80 MB, where storing the
    # 256 x 61 x 1000 paths before pricing them reached 184 MB
    script = ("from pathlib import Path\n"
              "from cdspool.cli import main\n"
              f"code = main(['--experiment', 'convergence', '--config', "
              f"{str(CONFIGS / 'fig1-c.cfg')!r}, '--out', {str(tmp_path)!r}, '--seed', '1', "
              "'--set', 'experiment.n_paths=256', '--set', 'experiment.k_values=1000'])\n"
              "status = Path('/proc/self/status').read_text().splitlines()\n"
              "print(code, *[line.split()[1] for line in status if line.startswith('VmHWM:')])\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    code, peak_rss_kb = result.stdout.splitlines()[-1].split()
    assert int(code) == EXIT_OK
    assert int(peak_rss_kb) < 120 * 1024


def test_a_measure_run_keeps_memory_bounded(tmp_path):
    # measure.cfg at K = 1000 on 60 Euler steps: each block's state is
    # folded into two statistics per path and sample time while it is in
    # hand, so peak RSS stays near 85 MB, where storing the 256 x 61 x 1000
    # paths before reducing them reached 205 MB
    script = ("from pathlib import Path\n"
              "from cdspool.cli import main\n"
              f"code = main(['--experiment', 'measure-convergence', '--config', "
              f"{str(CONFIGS / 'measure.cfg')!r}, '--out', {str(tmp_path)!r}, '--seed', '1', "
              "'--set', 'experiment.n_paths=256', '--set', 'experiment.k_values=1000', "
              "'--set', 'experiment.dt=0.016666666666666666', "
              "'--set', 'experiment.repeats=1'])\n"
              "status = Path('/proc/self/status').read_text().splitlines()\n"
              "print(code, *[line.split()[1] for line in status if line.startswith('VmHWM:')])\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    code, peak_rss_kb = result.stdout.splitlines()[-1].split()
    assert int(code) == EXIT_OK
    assert int(peak_rss_kb) < 100 * 1024


def test_shipped_configs_parse_and_declare_kinds():
    kinds = {"fig1-a": "convergence", "fig1-b": "convergence",
             "fig1-c": "convergence", "fig1-d": "convergence",
             "measure": "measure-convergence", "fig2": "bcva-sweep",
             "fig3": "bcva-sweep", "fig4": "bcva-sweep", "fig5": "bcva-sweep",
             "validate": "validate"}
    for stem, kind in kinds.items():
        mapping = parse_config((CONFIGS / f"{stem}.cfg").read_text())
        assert mapping["experiment.kind"] == kind, stem
        seed = 1 if kind in ("convergence", "measure-convergence") else None
        assert build_spec(mapping, kind, seed, 1, None).kind == kind, stem
