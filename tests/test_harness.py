import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cdspool import harness, simulation
from cdspool.cli import build_spec, parse_config
from cdspool.errors import ConfigError
from cdspool.exposure import LimitConfig, build_name_sequence, exposure_limit
from cdspool.harness import (CurveTable, ExperimentSpec, default_counterparties,
                             grid_for_samples, run_bcva_sweeps, run_convergence,
                             run_measure_convergence, run_validation, write_run)
from cdspool.simulation import Pool, _richardson

from euler_paths import stored_paths
from finite_k import exact_states


def small_limit(**overrides):
    base = dict(alpha=0.75, kappa=1.5, sigma=0.2, c=0.0, d=0.0, lambda_hat=0.5,
                x0=0.5, gamma1=1.5, gamma2=1.5, lambda_c=2.5, s_z=0.02, l_z=0.4,
                r=0.03)
    base.update(overrides)
    return LimitConfig(**base)


def small_spec(**overrides):
    fields = dict(kind="convergence", limit=small_limit(), horizon=0.5,
                  k_values=(5,), n_paths=64, n_times=5, seed=7,
                  config_text="test-config")
    fields.update(overrides)
    return ExperimentSpec(**fields)


SWEEP = dict(kind="bcva-sweep", cps=default_counterparties(), seed=None,
             sweep="sigma_star", sweep_values=(0.2,))


@pytest.mark.parametrize("overrides", [
    dict(kind="frobnicate"), dict(seed=None), dict(kind="measure-convergence", seed=None),
    dict(limit=None), dict(SWEEP, limit=None), dict(SWEEP, cps=None),
    dict(SWEEP, sweep=None), dict(SWEEP, sweep_values=()),
], ids=["kind", "seed", "measure-seed", "limit", "sweep-limit", "sweep-cps",
        "sweep-name", "sweep-values"])
def test_spec_rejects_a_kind_without_its_inputs(overrides):
    with pytest.raises(ConfigError):
        small_spec(**overrides)


def test_spec_accepts_each_kind_with_its_inputs():
    assert small_spec(**SWEEP).kind == "bcva-sweep"
    assert small_spec(kind="measure-convergence").kind == "measure-convergence"
    # the gate reads neither a limit config nor a seed, and a run without a
    # config hashes no text, whatever its worker count
    bare = [ExperimentSpec(kind="validate", workers=w) for w in (1, 2)]
    assert bare[0].config_hash() == bare[1].config_hash() == hashlib.sha256(b"").hexdigest()


def test_grid_for_samples_lands_on_nodes():
    dt, times = grid_for_samples(1.0, 61, 1e-3)
    assert len(times) == 61
    steps = times / dt
    np.testing.assert_allclose(steps, np.rint(steps), atol=1e-9)
    assert dt <= 1e-3 + 1e-12


def test_run_convergence_outputs():
    tables = run_convergence(small_spec(k_values=(3, 5)))
    assert [t.label for t in tables] == ["exposure-K3", "exposure-K5"]
    for table in tables:
        assert list(table.columns) == ["mc_exposure", "mc_stderr", "limit_exposure"]
        assert len(table.abscissa) == 5
        # exposure curves terminate at zero by construction
        assert table.columns["mc_exposure"][-1] == 0.0
        assert table.columns["limit_exposure"][-1] == 0.0


def test_run_convergence_worker_invariance():
    t1 = run_convergence(small_spec())
    t2 = run_convergence(small_spec(workers=4))
    np.testing.assert_array_equal(t1[0].columns["mc_exposure"],
                                  t2[0].columns["mc_exposure"])
    np.testing.assert_array_equal(t1[0].columns["mc_stderr"],
                                  t2[0].columns["mc_stderr"])


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_curve_equals_the_stored_path_estimator(workers):
    # 300 paths: one full 256-path block and a partial one of 44
    spec = shipped_spec("fig1-c", seed=5)
    spec.k_values, spec.n_paths, spec.n_times, spec.workers = (40,), 300, 21, workers
    table, = run_convergence(spec)
    cfg = spec.limit
    pool = build_name_sequence(cfg, 40)
    states = exact_states(pool, sample_times=table.abscissa, n_paths=300, seed=5)
    stored = np.zeros((len(table.abscissa), 2))
    for i, t in enumerate(table.abscissa):
        span = spec.horizon - float(t)
        if span != 0.0:  # the book at maturity is worth 0
            vals = simulation._book_values(states[:, i],
                                           *simulation._book_rows(pool, span, cfg.r))
            stored[i] = vals.mean(), simulation._stderr(vals)
    np.testing.assert_array_equal(table.columns["mc_exposure"], stored[:, 0])
    np.testing.assert_array_equal(table.columns["mc_stderr"], stored[:, 1])


def test_run_measure_convergence_summary():
    spec = small_spec(kind="measure-convergence", k_values=(3, 6), n_paths=128,
                      repeats=2)
    tables = run_measure_convergence(spec)
    labels = [t.label for t in tables]
    assert labels == ["measure-K3", "measure-K6", "measure-sup-error"]
    summary = tables[-1]
    assert summary.abscissa.tolist() == [3.0, 6.0]
    assert set(summary.columns) == {"sup_err_mass_median", "sup_err_exp_median"}
    curve = tables[0]
    assert curve.columns["empirical_mass"][0] == 1.0  # nobody defaults at t = 0


def test_run_bcva_sweeps():
    spec = small_spec(kind="bcva-sweep", cps=default_counterparties(), horizon=3.0,
                      seed=None, sweep="sigma_star", sweep_values=(0.2, 0.4),
                      limit=small_limit(c=0.1, d=0.1, lambda_c=0.1, alpha=0.01,
                                        sigma=0.3, kappa=0.5, x0=0.02, gamma1=2.0,
                                        gamma2=2.0, lambda_hat=0.2))
    tables = run_bcva_sweeps(spec)
    assert tables[0].label == "bcva-sigma_star"
    assert list(tables[0].columns) == ["cva", "dva", "bcva"]
    np.testing.assert_allclose(tables[0].columns["bcva"],
                               tables[0].columns["dva"] - tables[0].columns["cva"])


ROOT = Path(__file__).resolve().parents[1]


def shipped_spec(stem, seed=None):
    mapping = parse_config((ROOT / "configs" / f"{stem}.cfg").read_text())
    return build_spec(mapping, mapping["experiment.kind"], seed, 1, None)


# The two tests below hold the output contracts that perfbench/checks.py
# enforces on the benchmark's runs, so a change that breaks them fails here.

def test_convergence_limit_column_equals_fresh_scalar_calls():
    spec = shipped_spec("fig1-c", seed=11)
    # the limit column does not depend on the simulation, so a small one will do
    spec.n_paths = 16
    table, = run_convergence(spec)
    written = ["%.10e" % v for v in table.columns["limit_exposure"]]
    fresh = ["%.10e" % exposure_limit(float(t), spec.horizon, spec.limit)
             for t in table.abscissa]
    assert written == fresh


def test_bcva_sweeps_match_stored_reference():
    stored = json.loads((ROOT / "perfbench" / "reference" / "bcva_sweeps.json")
                        .read_text(encoding="utf-8"))
    for stem in ("fig2", "fig3", "fig4", "fig5"):
        ref = stored[stem]
        table, = run_bcva_sweeps(shipped_spec(stem))
        assert table.abscissa.tolist() == ref["values"]
        for name in ("cva", "dva"):
            got, want = table.columns[name], np.array(ref[name])
            assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want) + 1e-12), (stem, name)


def test_validation_gate_passes_and_is_reproducible():
    rep1 = run_validation(workers=4)
    rep2 = run_validation(workers=1)
    assert rep1.passed
    assert rep1.render() == rep2.render()
    assert len(rep1.checks) == 20


def test_validation_gate_simulates_the_kernel_pair_once(monkeypatch):
    # h1, h2, joint survival and nested_mc_cva all read one pair simulation
    calls, n_paths, blocks = [], [], []
    block_generator = simulation._block_generator

    euler_blocks = simulation._euler_blocks

    def counting(*args, **kwargs):
        calls.append(kwargs["horizon"])
        n_paths.append(kwargs["n_paths"])
        return euler_blocks(*args, **kwargs)

    def counting_blocks(key, tag, block):
        blocks.append(tag)
        return block_generator(key, tag, block)

    monkeypatch.setattr(simulation, "_euler_blocks", counting)
    monkeypatch.setattr(harness, "_euler_blocks", counting)
    monkeypatch.setattr(simulation, "_block_generator", counting_blocks)
    harness._pair_values.cache_clear()
    # the shared values still take each check's own perturbation
    assert run_validation(workers=1, perturb={"h2_vs_mc": 1e-2}).failures() == ["h2_vs_mc"]
    assert calls == [3.0] and n_paths == [20_000]
    # the pair and limit-diffusion simulations run narrow blocks, so each
    # steps at most 5% more paths than it asks for
    width = simulation._NARROW_BLOCK_SIZE
    blocks_for = lambda n: math.ceil(n / width)
    assert blocks.count(simulation._BLOCK_PATHS) == blocks_for(20_000)
    assert blocks.count(simulation._BLOCK_LIMIT) == blocks_for(harness._LIMIT_ORACLE_PATHS)
    for n in n_paths + [harness._LIMIT_ORACLE_PATHS]:
        assert blocks_for(n) * width <= 1.05 * n


def test_validation_fault_injection_flags_only_the_perturbed_check():
    # a NaN offset makes every case of its check NaN, which fails any bound
    nan_everywhere = dict.fromkeys((name for name, _ in harness._CHECKS), math.nan)
    for perturb in ({"integral_b_vs_simpson": 1e-3}, nan_everywhere):
        assert run_validation(workers=4, perturb=perturb).failures() == list(perturb)
    with pytest.raises(ConfigError):
        run_validation(perturb={"no_such_check": 1.0})


@pytest.mark.parametrize("check", ["riccati_b_vs_rk4", "riccati_beta_vs_rk4",
                                   "riccati_beta_general_vs_rk4", "fhat_cir_reduction"])
def test_rk4_checks_flag_an_offset_of_twice_their_bound(check):
    # each check's own run, without the rest of the gate
    run = dict(harness._CHECKS)[check]
    tol = run.args[2]
    assert run(0.0).passed
    assert not run(2.0 * tol).passed and not run(-2.0 * tol).passed


@pytest.mark.parametrize("offset", [2e-3, -2e-3])
def test_limit_sde_check_flags_a_small_offset(offset):
    # 2e-3 is about 2.1e-3 relative to F-hat(1.5): about 11 oracle stderrs
    rep = run_validation(perturb={"fhat_vs_limit_sde_mc": offset}, workers=2)
    assert rep.failures() == ["fhat_vs_limit_sde_mc"]


@pytest.mark.parametrize("check, which", [("h1_vs_mc", "h1"),
                                          ("cva_vs_nested_mc", "cva")])
def test_pair_checks_fail_alone_under_a_five_stderr_offset(check, which):
    # the four pair checks read one simulation, yet each verdict is its own
    _, (_, se) = harness._pair_values()[which]
    assert run_validation(perturb={check: 5 * se}, workers=2).failures() == [check]


def test_nested_mc_cva_one_path_has_zero_stderr():
    cfg, _, cps = harness._validation_baseline()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = stored_paths(Pool((), cfg.lambda_c), cps, horizon=3.0, n_paths=1, seed=5)
        est, se = _richardson(*(harness.nested_mc_cva(p.default_times, cfg, cps.loss_b, 3.0)
                                for p in (ps, ps.coarse)))
    assert math.isfinite(est) and se == 0.0


def test_curve_table_csv_format(tmp_path):
    table = CurveTable(label="demo", abscissa_name="t",
                       abscissa=np.array([0.0, 0.5]),
                       columns={"value": np.array([1.0, -2.5e-7]),
                                "value_stderr": np.array([0.0, 1e-9])})
    path = tmp_path / "demo.csv"
    table.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "t,value,value_stderr"
    assert lines[1] == "0.0000000000e+00,1.0000000000e+00,0.0000000000e+00"
    assert lines[2].split(",")[1] == "-2.5000000000e-07"


def test_curve_table_validation():
    with pytest.raises(ValueError):
        CurveTable(label="bad", abscissa_name="t", abscissa=np.array([0.0, 1.0]),
                   columns={"v": np.array([1.0])})
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="negative or NaN"):
            CurveTable(label="bad", abscissa_name="t", abscissa=np.array([0.0, 1.0]),
                       columns={"v_stderr": np.array([0.5, bad])})


def test_write_run_manifest(tmp_path):
    spec = small_spec()
    tables = run_convergence(spec)
    manifest = write_run(tables, spec, tmp_path)
    data = json.loads((tmp_path / "run_manifest.json").read_text())
    assert data == manifest
    assert data["experiment"] == "convergence"
    assert data["provenance"]["seed"] == 7
    assert data["provenance"]["config_hash"]
    assert data["curves"] == {"exposure-K5": "curve-exposure-K5.csv"}
    assert (tmp_path / "curve-exposure-K5.csv").exists()
    assert (tmp_path / "config_echo.cfg").read_text() == "test-config"


def test_write_run_is_byte_stable(tmp_path):
    spec = small_spec()
    for sub in ("one", "two"):
        write_run(run_convergence(spec), spec, tmp_path / sub)
    for name in ("run_manifest.json", "curve-exposure-K5.csv"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())
