import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupfuse
from groupfuse.cli import main
from groupfuse.datasets import (DatasetError, infer_groups, load_dataset,
                                load_group_map, standardize_columns,
                                write_hourly_profile_csv)
from groupfuse.detection import detect_differences
from groupfuse.model import GroupedCoefficients


@pytest.fixture(scope="module")
def hourly_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "air.csv"
    changes = write_hourly_profile_csv(path, n_days=120, seed=7)
    return path, changes


def small_csv(tmp_path, name="small.csv", g=4, n=40, seed=5, jump=3.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, g))
    beta = np.repeat([0.0, jump], [g // 2, g - g // 2])
    y = X @ beta + 0.2 * rng.standard_normal(n)
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x_{j}" for j in range(1, g + 1)])
        for i in range(n):
            writer.writerow([y[i]] + list(X[i]))
    return path


def test_dataset_name_convention_roundtrip(hourly_csv):
    path, _ = hourly_csv
    design, groups = load_dataset(path, response="benzene_max")
    assert design.g == 24 and design.p == 2 and design.n == 120
    assert groups[0] == ["temp_1", "hum_1"]
    assert groups[23] == ["temp_24", "hum_24"]


def test_dataset_group_map(tmp_path, hourly_csv):
    path, _ = hourly_csv
    # groups listed explicitly, humidity first
    gmap = [[f"hum_{j}", f"temp_{j}"] for j in range(1, 25)]
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(gmap))
    design, groups = load_dataset(path, response="benzene_max",
                                  group_map_path=map_path)
    assert groups[0] == ["hum_1", "temp_1"]
    assert design.p == 2


def test_dataset_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x_1,x_2\n1.0,2.0,3.0\n1.0,oops,3.0\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_dataset(bad, response="y")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,x_1,x_2\n1.0,2.0\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(ragged, response="y")

    with pytest.raises(DatasetError, match="response"):
        load_dataset(bad, response="z")


def test_infer_groups_rejects_ragged_names():
    with pytest.raises(DatasetError, match="missing"):
        infer_groups(["y", "a_1", "b_1", "a_2"], response="y")
    with pytest.raises(DatasetError, match="convention"):
        infer_groups(["y", "a_1", "other"], response="y")


def test_group_map_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["a", "b"], ["c"]]))
    with pytest.raises(DatasetError, match="same size"):
        load_group_map(bad)
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([["a"], ["a"]]))
    with pytest.raises(DatasetError, match="repeats"):
        load_group_map(dup)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(DatasetError, match="JSON"):
        load_group_map(broken)


def test_standardize_columns_constant_column_safe():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    Xs, mean, scale = standardize_columns(X)
    assert scale[0] == 1.0
    np.testing.assert_allclose(Xs[:, 1].mean(), 0.0, atol=1e-12)


def test_cmd_fit_writes_result_and_segments(tmp_path, hourly_csv):
    path, _ = hourly_csv
    out = tmp_path / "fit.json"
    code = main(["fit", str(path), "--response", "benzene_max",
                 "--loss", "quantile", "--tau", "0.5", "--adaptive",
                 "--auto-lambda", "--standardize", "--out", str(out)])
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 2
    assert payload["g"] == 24 and payload["p"] == 2
    assert payload["estimator"]["loss"] == "quantile"
    assert payload["standardize"] is not None
    # segments partition hours 1..24 into contiguous runs
    segs = payload["segments"]
    assert segs[0]["start"] == 1 and segs[-1]["end"] == 24
    for left, right in zip(segs, segs[1:]):
        assert right["start"] == left["end"] + 1
    assert all(len(s["coefficients"]) == 2 for s in segs)


def test_cmd_fit_lambda_zero_detects_all_unequal_pairs(tmp_path):
    data = small_csv(tmp_path)
    out = tmp_path / "fit0.json"
    code = main(["fit", str(data), "--response", "y", "--lambda", "0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    beta = GroupedCoefficients(tuple(np.asarray(b)
                                     for b in payload["coefficients"]))
    assert payload["detected"] == detect_differences(
        beta, payload["estimator"]["fusion_tol"])
    assert payload["detected"] == [2, 3, 4]  # unpenalized fit never fuses


def test_cmd_fit_huge_lambda_fuses_everything(tmp_path):
    data = small_csv(tmp_path)
    out = tmp_path / "fit_inf.json"
    code = main(["fit", str(data), "--response", "y", "--lambda", "1e6",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["detected"] == []
    assert [(s["start"], s["end"]) for s in payload["segments"]] == [(1, 4)]


@pytest.mark.parametrize("q", [1, 2])
def test_cmd_fit_q_is_plumbed(tmp_path, q):
    data = small_csv(tmp_path, name=f"q{q}.csv")
    out = tmp_path / f"fit_q{q}.json"
    code = main(["fit", str(data), "--response", "y", "--q", str(q),
                 "--auto-lambda", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["estimator"]["q"] == q


def test_cmd_fit_input_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x_1\n1.0,nope\n")
    out = tmp_path / "never.json"
    assert main(["fit", str(bad), "--response", "y", "--lambda", "0",
                 "--out", str(out)]) == 1
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()

    data = small_csv(tmp_path)
    assert main(["fit", str(data), "--response", "y",
                 "--out", str(out)]) == 1  # no lambda selected
    assert main(["fit", str(data), "--response", "y", "--lambda", "1",
                 "--auto-lambda", "--out", str(out)]) == 1
    assert main(["fit", str(data), "--response", "y", "--auto-lambda",
                 "--max-iter", "0", "--out", str(out)]) == 1
    assert "max_iter" in capsys.readouterr().err
    assert main(["fit", str(data), "--response", "y", "--auto-lambda",
                 "--fusion-tol", "-1", "--out", str(out)]) == 1
    assert "fusion_tol" in capsys.readouterr().err
    assert not out.exists()

    # finite entries whose X'X overflows: the solver's error, not a traceback
    huge = tmp_path / "huge.csv"
    rng = np.random.default_rng(3)
    rows = 1e160 * rng.uniform(1.0, 2.0, (6, 3))
    huge.write_text("y,x_1,x_2\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    for loss in ("ls", "quantile"):
        assert main(["fit", str(huge), "--response", "y", "--lambda", "0.1",
                     "--loss", loss, "--out", str(out)]) == 1
        assert "error: non-finite iterate at iteration 1" in \
            capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, name", [
    (["--auto-lambda", "--fusion-tol", "nan"], "fusion_tol"),
    (["--auto-lambda", "--adaptive", "--gamma", "inf"], "gamma"),
    (["--lambda", "nan"], "lam"),
    (["--lambda", "inf"], "lam"),
], ids=["fusion_tol_nan", "gamma_inf", "lambda_nan", "lambda_inf"])
def test_cmd_fit_rejects_non_finite_input(tmp_path, capsys, extra, name):
    out = tmp_path / "never.json"
    assert main(["fit", str(small_csv(tmp_path)), "--response", "y", *extra,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "iteration" not in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--standardize"], ["--adaptive"]],
                         ids=["q1", "q1_std", "q1_adaptive"])
def test_cmd_fit_air_quantile_q1_converges(tmp_path, extra):
    # the air-profile CSV (g = 24, p = 2) at default settings: a q = 1
    # quantile fit is a linear program, solved and certified by the
    # interior-point route (ADMM stopped at max_iter here, exit 2)
    path = tmp_path / "air.csv"
    write_hourly_profile_csv(path, n_days=357, seed=7)
    out = tmp_path / "fit.json"
    code = main(["fit", str(path), "--response", "benzene_max", "--loss",
                 "quantile", "--q", "1", "--auto-lambda", *extra,
                 "--out", str(out)])
    assert code == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["converged"] and diag["route"] == "ipm"
    assert diag["duality_gap"] <= 1e-6


def test_cmd_fit_nonconvergence_exit_2(tmp_path):
    data = small_csv(tmp_path)
    out = tmp_path / "fit_short.json"
    code = main(["fit", str(data), "--response", "y", "--loss", "quantile",
                 "--auto-lambda", "--max-iter", "2", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["diagnostics"]["converged"] is False
    assert payload["diagnostics"]["iterations"] == 2


def test_cmd_fit_reports_adaptive_pilot(tmp_path):
    data = small_csv(tmp_path)
    out = tmp_path / "fit_pilot.json"
    code = main(["fit", str(data), "--response", "y", "--loss", "quantile",
                 "--adaptive", "--auto-lambda", "--max-iter", "2",
                 "--out", str(out)])
    assert code == 2
    pilot = json.loads(out.read_text())["diagnostics"]["pilot"]
    assert pilot["converged"] is False
    assert pilot["iterations"] == 2
    assert np.isfinite(pilot["objective"])

    plain = tmp_path / "fit_plain.json"
    assert main(["fit", str(data), "--response", "y", "--auto-lambda",
                 "--out", str(plain)]) == 0
    assert json.loads(plain.read_text())["diagnostics"]["pilot"] is None


def test_cmd_plotdata_round_trip(tmp_path):
    data = small_csv(tmp_path)
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(data), "--response", "y", "--auto-lambda",
                 "--out", str(fit_out)]) == 0
    plot_out = tmp_path / "plot.csv"
    assert main(["plotdata", str(fit_out), "--out", str(plot_out)]) == 0

    with open(plot_out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group_index", "coordinate_index", "estimate"]
    assert len(rows) == 1 + 4  # g*p data rows
    payload = json.loads(fit_out.read_text())
    boundaries = tmp_path / "plot_boundaries.csv"
    with open(boundaries) as fh:
        brows = list(csv.reader(fh))
    assert brows[0] == ["boundary_pair"]
    assert [int(r[0]) for r in brows[1:]] == payload["detected"]


def test_cmd_plotdata_fused_result_has_empty_boundaries(tmp_path):
    data = small_csv(tmp_path)
    fit_out = tmp_path / "fit.json"
    main(["fit", str(data), "--response", "y", "--lambda", "1e6",
          "--out", str(fit_out)])
    plot_out = tmp_path / "plot.csv"
    assert main(["plotdata", str(fit_out), "--out", str(plot_out)]) == 0
    brows = (tmp_path / "plot_boundaries.csv").read_text().splitlines()
    assert brows == ["boundary_pair"]


def test_cmd_plotdata_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["plotdata", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    notfit = tmp_path / "notfit.json"
    notfit.write_text(json.dumps({"hello": 1}))
    assert main(["plotdata", str(notfit),
                 "--out", str(tmp_path / "x.csv")]) == 1


SIM_CONF = ("p = 1\ng = 12\nerrors = gaussian\nchanges = 2\n"
            "M = 2\nseed = 3\n")


def test_cmd_simulate_outputs_and_determinism(tmp_path, capsys):
    conf = tmp_path / "grid.conf"
    conf.write_text(SIM_CONF)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", str(conf), "--out", str(out1),
                 "--workers", "1"]) == 0
    table = capsys.readouterr().out
    assert "Recovery" in table and "/" in table
    assert main(["simulate", str(conf), "--out", str(out2),
                 "--workers", "2"]) == 0
    assert (out1 / "report.csv").read_bytes() == \
        (out2 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_cmd_simulate_runs_override(tmp_path):
    conf = tmp_path / "grid.conf"
    conf.write_text(SIM_CONF)
    out = tmp_path / "one"
    assert main(["simulate", str(conf), "--out", str(out),
                 "--runs", "1", "--workers", "1"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["scenarios"][0]["M"] == 1


def test_cmd_simulate_bad_config_exit_1(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense = 42\n")
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 1
    assert "line 1" in capsys.readouterr().err

    conf.write_text(SIM_CONF)
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o"),
                 "--workers", "0"]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["M = nan", "g = inf", "gamma = inf"])
def test_cmd_simulate_rejects_non_finite_config(tmp_path, capsys, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(SIM_CONF + line + "\n")
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 7: ") and "not finite" in err
    assert not (tmp_path / "o").exists()


def _run_fresh(code, *args):
    # a fresh interpreter, so modules the tests themselves load do not count
    src = str(Path(groupfuse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_import_loads_no_scipy_optimize_or_integrate():
    # nor any other scipy module: numpy is the only runtime dependency; and
    # no process pool, which only a parallel simulate run needs
    code = ("import sys, groupfuse, groupfuse.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy', 'multiprocessing', 'concurrent.futures.process'))))")
    assert _run_fresh(code).stdout.strip() == "[]"


RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
from groupfuse import GroupedDesign, ProblemSpec
from groupfuse.cli import main
from groupfuse.solver import fit

rng = np.random.default_rng(0)
design = GroupedDesign(X=rng.standard_normal((20, 4)),
                       y=rng.standard_normal(20), g=4, p=1)
for loss in ("ls", "quantile"):
    assert fit(design, ProblemSpec(loss=loss, q=2, lam=0.1)).converged
csv_path, conf, out = sys.argv[1:]
assert main(["fit", csv_path, "--response", "y", "--auto-lambda",
             "--out", out + "/fit.json"]) == 0
assert main(["simulate", conf, "--runs", "1", "--out", out + "/sim"]) == 0
print("ok")
"""


def test_runs_with_scipy_unimportable(tmp_path):
    conf = tmp_path / "grid.conf"
    conf.write_text(SIM_CONF)
    proc = _run_fresh(RUN_WITHOUT_SCIPY, small_csv(tmp_path), conf, tmp_path)
    assert proc.stdout.strip().endswith("ok")
    assert (tmp_path / "fit.json").exists()
    assert (tmp_path / "sim" / "report.json").exists()
