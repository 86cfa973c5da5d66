import json
from pathlib import Path

import numpy as np
import pytest

import groupfuse.simulation as sim
from groupfuse.simulation import (ConfigError, McReport,
                                  ScenarioSpec, draw_errors,
                                  generate_instance, load_scenario_grid,
                                  run_monte_carlo, write_report_csv,
                                  write_report_json)


def test_zero_changes_gives_constant_blocks():
    spec = ScenarioSpec(p=2, g=5, changes=0, seed=1, M=1)
    design, beta0, truth = generate_instance(spec, np.random.default_rng(0))
    assert truth == []
    stacked = beta0.stacked()
    assert np.all(stacked == stacked[0])


def test_jump_magnitudes_inside_range():
    magnitudes = []
    for m in range(250):
        spec = ScenarioSpec(p=2, g=10, changes=2, seed=5, M=1)
        rng = np.random.default_rng((5, m))
        _, beta0, truth = generate_instance(spec, rng)
        diffs = beta0.successive_differences()
        for j in truth:
            magnitudes.extend(np.abs(diffs[j - 2]))
    magnitudes = np.asarray(magnitudes)
    assert magnitudes.size == 1000
    assert np.all((magnitudes >= 0.5) & (magnitudes <= 2.0))


def test_non_change_pairs_are_exactly_constant():
    spec = ScenarioSpec(p=1, g=30, changes=4, seed=9, M=1)
    _, beta0, truth = generate_instance(spec, np.random.default_rng(2))
    diffs = beta0.successive_differences()
    for j in range(2, 31):
        if j not in truth:
            assert np.all(diffs[j - 2] == 0.0)


def test_change_locations_valid_and_non_adjacent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = ScenarioSpec(p=1, g=40, changes=5, seed=0, M=1)
        _, _, truth = generate_instance(spec, rng)
        assert len(truth) == 5
        assert all(2 <= j <= 40 for j in truth)
        # g >= 4 * changes, so adjacent changes are rejected
        assert np.all(np.diff(truth) > 1)


def test_dense_non_adjacent_changes_are_drawn():
    # 40 non-adjacent changes in g = 200: almost every rejection draw fails
    grid = Path(__file__).resolve().parent.parent / "scripts/full_grid.conf"
    cell = [spec for spec in load_scenario_grid(grid)
            if spec.p == 1 and spec.g == 200 and spec.changes == 0.2][0]
    for m in range(5):
        rng = np.random.default_rng((cell.seed, m))
        _, _, truth = generate_instance(cell, rng)
        assert len(truth) == cell.n_changes == 40
        assert truth == sorted(truth)
        assert all(2 <= j <= 200 for j in truth)
        assert np.all(np.diff(truth) >= 2)


def test_gaussian_errors_unit_variance():
    rng = np.random.default_rng(11)
    eps = draw_errors("gaussian", 10_000, rng)
    assert 0.94 <= float(np.var(eps)) <= 1.06


def test_cauchy_errors_have_median_near_zero_and_heavy_tails():
    rng = np.random.default_rng(13)
    eps = draw_errors("cauchy", 10_000, rng)
    assert abs(float(np.median(eps))) < 0.05
    assert float(np.max(np.abs(eps))) > 100.0


def test_design_is_standard_normal():
    spec = ScenarioSpec(p=1, g=60, changes=2, seed=21, M=1)
    design, _, _ = generate_instance(spec, np.random.default_rng(4))
    assert abs(float(design.X.mean())) < 0.05
    assert 0.9 < float(design.X.std()) < 1.1


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(p=1, g=5, changes=7)
    with pytest.raises(ValueError):
        ScenarioSpec(error_dist="laplace")
    with pytest.raises(ValueError):
        ScenarioSpec(changes=2.5)
    with pytest.raises(ValueError):
        ScenarioSpec(M=0)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            ScenarioSpec(gamma=gamma)


def test_fraction_changes_resolve_against_n():
    spec = ScenarioSpec(p=1, g=20, changes=0.2)
    assert spec.n_changes == 4
    spec3 = ScenarioSpec(p=3, g=20, changes=0.2)
    assert spec3.n_changes == 12


TINY = ScenarioSpec(p=1, g=12, error_dist="gaussian", changes=2,
                    seed=123, M=3)


def test_monte_carlo_reproducible_and_worker_independent():
    first = run_monte_carlo(TINY, workers=1)
    second = run_monte_carlo(TINY, workers=2)
    assert first == second
    assert first.estimators == second.estimators
    assert first.runs == second.runs


def test_monte_carlo_single_run_equals_aggregate():
    spec = ScenarioSpec(p=1, g=12, changes=2, seed=7, M=1)
    report = run_monte_carlo(spec, workers=1)
    for name, summary in report.estimators.items():
        run = report.runs[name][0]
        assert summary.med == run.med
        assert summary.mad == run.mad
        assert summary.recovery == run.recovery
        assert summary.overestimation == run.overestimation
        assert summary.misscls == run.misscls


def test_monte_carlo_requires_a_true_change():
    with pytest.raises(ValueError, match="change"):
        run_monte_carlo(ScenarioSpec(p=1, g=10, changes=0, M=1))


def test_monte_carlo_wraps_solver_failures(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(sim, "fit", boom)
    with pytest.raises(RuntimeError, match=r"replication 0 with seed 123"):
        run_monte_carlo(TINY, workers=1)


def test_load_scenario_grid_cross_product(tmp_path):
    cfg = tmp_path / "grid.conf"
    cfg.write_text(
        "# comment line\n"
        "p = 1, 3\n"
        "g = 20, 100\n"
        "errors = gaussian, cauchy\n"
        "changes = 2, 0.2\n"
        "M = 7\n"
        "seed = 99\n"
        "tau = 0.5\n"
        "gamma = 1.0\n"
        "q = 2\n"
    )
    specs = load_scenario_grid(cfg)
    assert len(specs) == 16
    assert {s.p for s in specs} == {1, 3}
    assert {s.error_dist for s in specs} == {"gaussian", "cauchy"}
    assert all(s.M == 7 and s.seed == 99 for s in specs)
    fractional = [s for s in specs if s.changes == 0.2]
    assert fractional and all(s.n_changes == round(0.2 * s.n)
                              for s in fractional)


def test_load_scenario_grid_errors(tmp_path):
    bad_key = tmp_path / "a.conf"
    bad_key.write_text("p = 1\nwhat = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario_grid(bad_key)

    bad_num = tmp_path / "b.conf"
    bad_num.write_text("g = twenty\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario_grid(bad_num)

    bad_dist = tmp_path / "c.conf"
    bad_dist.write_text("errors = laplace\n")
    with pytest.raises(ConfigError, match="laplace"):
        load_scenario_grid(bad_dist)

    # an exponent without a point still reads as an integer
    exponent = tmp_path / "e.conf"
    exponent.write_text("g = 20\nchanges = 1e1\n")
    (spec,) = load_scenario_grid(exponent)
    assert spec.changes == 10 and isinstance(spec.changes, int)

    impossible = tmp_path / "d.conf"
    impossible.write_text("g = 4\nchanges = 9\n")
    with pytest.raises(ConfigError, match="invalid scenario"):
        load_scenario_grid(impossible)


def test_report_writers_round_trip(tmp_path):
    report = run_monte_carlo(TINY, workers=1)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv([report], csv_path)
    write_report_json([report], json_path)

    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + one row per estimator
    assert lines[0] == ("scenario,p,g,n,errors,changes,tau,gamma,q,M,"
                        "estimator,med,mad,recovery,overestimation,misscls,"
                        "converged_fraction")

    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 1
    est = payload["scenarios"][0]["estimators"]
    assert list(est) == list(sim.ESTIMATORS)
    for name in sim.ESTIMATORS:
        assert list(est[name]) == ["med", "mad", "recovery", "overestimation",
                                   "misscls", "converged_fraction"]
    assert est["fused_ls"]["recovery"] == report.estimators["fused_ls"].recovery

    # timing must never leak into the files: rewriting a copied report with
    # a different wall time produces identical bytes
    clone = McReport(scenario=report.scenario, M=report.M,
                     estimators=report.estimators, runs=report.runs,
                     wall_time=report.wall_time + 123.0)
    csv2 = tmp_path / "report2.csv"
    json2 = tmp_path / "report2.json"
    write_report_csv([clone], csv2)
    write_report_json([clone], json2)
    assert csv2.read_bytes() == csv_path.read_bytes()
    assert json2.read_bytes() == json_path.read_bytes()


def test_estimator_summary_is_plain_mean():
    report = run_monte_carlo(TINY, workers=1)
    for name in sim.ESTIMATORS:
        rs = report.runs[name]
        summary = report.estimators[name]
        assert summary.med == float(np.mean([r.med for r in rs]))
        assert summary.mad == float(np.mean([r.mad for r in rs]))
        assert summary.recovery == float(np.mean([r.recovery for r in rs]))
        assert summary.overestimation == float(
            np.mean([r.overestimation for r in rs]))
        assert summary.misscls == float(np.mean([r.misscls for r in rs]))
        assert summary.converged_fraction == float(
            np.mean([r.converged for r in rs]))
