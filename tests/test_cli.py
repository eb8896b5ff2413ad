import contextlib
import csv
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import friedrichs as fr
from conftest import quadrature_twin
from friedrichs import cli
from friedrichs.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _schema(name):
    import jsonschema

    with open(SCHEMA_DIR / name) as fh:
        schema = json.load(fh)
    return lambda payload: jsonschema.validate(payload, schema)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_threshold_json(capsys):
    code, out, _ = _run(capsys, ["threshold", "--p", "0,0,0"])
    assert code == 0
    payload = json.loads(out)
    _schema("threshold_result.schema.json")(payload)
    assert payload["M"] == pytest.approx(12.0, abs=1e-10)
    assert payload["m"] == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(payload["q0"], [np.pi, np.pi, np.pi], atol=1e-10)
    assert payload["mu_threshold"] == pytest.approx(0.01595, abs=2e-5)


@pytest.mark.filterwarnings("error")
def test_non_finite_number_writes_no_artifact(capsys, tmp_path):
    # Omega(p) is subnormal here and mu(p) = 1 / Omega(p) overflows: the
    # run wrote "mu_threshold": Infinity, which is not JSON, and exited 0,
    # and later printed a numpy RuntimeWarning before the JSON writer
    # refused the infinity; coupling_threshold refuses it by name
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"family": "two_particle",
                                  "phi": {"constant": 1e-160}}))
    code, out, err = _run(capsys, [
        "threshold", "--config", str(config), "--p", "0.7,-0.3,1.1",
        "--out", str(tmp_path / "out")])
    assert code == 1 and out == ""
    assert err.startswith("friedrichs: mu(p) = 1 / Omega(p) = 1 / ")
    assert err.endswith(" is not a finite float\n")
    assert not (tmp_path / "out").exists()
    with pytest.raises(fr.FriedrichsError, match="^mu_threshold is not "
                       "finite, and a JSON artifact holds finite numbers"):
        cli._json({"mu_threshold": float("inf")})
    assert cli._non_finite({"a": [1.0, {"b": float("nan")}], "c": 2}) \
        == "a[1].b"
    assert cli._non_finite({"z": np.array([[0.0, -np.inf]])}) == "z[0][1]"
    assert cli._non_finite([np.array(np.nan), "nan", 1]) == "[0]"
    assert cli._non_finite({"x": np.float64(2.0), "y": (0, None)}) is None


def test_nan_fit_residual_fails_the_gate(capsys, monkeypatch):
    # a NaN residual passed the gate and was written as "rel_residual":
    # NaN; an infinite Omega difference, above every bar, fits to NaN
    real = fr.OmegaEvaluator.edge_samples.func

    def infinite(ev):
        deltas, data, bar = real(ev)
        data = data.copy()
        data[3] = np.inf
        return deltas, data, bar

    monkeypatch.setattr(fr.OmegaEvaluator, "edge_samples", property(infinite))
    code, out, err = _run(capsys, ["expansion", "--p", "0.7,-0.3,1.1"])
    assert code == 1 and out == ""
    assert err == "friedrichs: expansion fit failed: relative residual nan\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("constant", [8e152, 1e-150])
def test_phi_near_the_float_range_ends_fits_and_classifies(capsys, tmp_path,
                                                           constant):
    # phi = 8e152 overflowed the moments and the fit's norms (exit 1 with
    # "moments [inf, ...]" and "relative residual nan", after numpy
    # warnings), and phi = 1e-150 underflowed the norm of the data to 0;
    # the readers of the edge record scale it by a power of 2, so tau0 / c^2
    # and the growth exponent are the unit fibre's
    config = tmp_path / "phi.json"
    config.write_text(json.dumps({"family": "two_particle",
                                  "phi": {"constant": constant}}))
    got = []
    for argv in ([], ["--config", str(config)]):
        outs = []
        for cmd in (["expansion"], ["classify", "--mu", "x1"]):
            code, out, err = _run(capsys, cmd + ["--p", "0.7,-0.3,1.1"] + argv)
            assert code == 0 and err == "", err
            outs.append(json.loads(out))
        scale = constant ** 2 if argv else 1.0
        got.append((outs[0]["tau0_fit"] / scale, outs[1]["l2_growth_rate"]))
    assert np.max(np.abs(np.subtract(got[1], got[0]))) <= 1e-9, got


def test_threshold_degenerate_exit_2(capsys):
    code, _, err = _run(capsys, ["threshold", "--p", "%.17g,0,0" % np.pi])
    assert code == 2
    assert "degenerate maximum" in err


EDGE_P = "3.14159,0.1,-0.12"


def test_zone_edge_threshold_from_the_route(capsys):
    code, out, _ = _run(capsys, ["threshold", "--p", EDGE_P])
    assert code == 0
    omega = 1.0 / json.loads(out)["mu_threshold"]
    assert abs(omega / 336.018641028 - 1.0) <= 1e-9


def test_zone_edge_refused_on_the_twin(capsys, tmp_path, twin_one):
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(twin_one.config.to_dict()))
    code, _, err = _run(capsys, ["threshold", "--config", str(path),
                                 "--p", EDGE_P])
    assert code == 1
    assert err.startswith("friedrichs: quadrature not converged")


def test_oversized_grid_refused_on_the_twin(capsys, tmp_path, twin_one):
    # a level whose node arrays exceed quadrature.MAX_LEVEL_BYTES exits 1
    # before any array is allocated, not in a MemoryError traceback
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(twin_one.config.to_dict()))
    code, out, err = _run(capsys, ["threshold", "--config", str(path),
                                   "--grid", "1000000", "--p", "0.7,-0.3,1.1"])
    assert (code, out) == (1, "")
    assert err.startswith("friedrichs: level 0 would keep ")
    assert "(n_grid 1000000)" in err


def test_wrong_band_edge_refused_without_advice(capsys, tmp_path):
    # w = 3 - sum cos q_j + 0.1 cos(31 q_1): find_maximizer certifies an
    # M(p) about 0.036 below the maximum of w_p, so the ball about its q0
    # holds nodes above M(p), and no radius would help.  The refusal says
    # what that means, at once.  Locating the true maximum (ROADMAP item
    # 4) will turn this refusal into an answer
    table = _twin()["w_table"] + [{"index": [31, 0, 0], "value": 0.1}]
    path = tmp_path / "k31.json"
    path.write_text(json.dumps(_twin(w_table=table)))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["threshold", "--config", str(path),
                                   "--p", "0.7,-0.3,1.1"])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err.startswith("friedrichs: the near-field ball of radius 1.000 "
                          "about q0 has nodes where w_p - M(p) reaches ")
    assert "M(p) is not the maximum of w_p" in err
    assert "rho" not in err


def test_non_finite_p_exit_1(capsys, tmp_path):
    code, out, err = _run(capsys, ["threshold", "--p", "nan,0,0"])
    assert (code, out) == (1, "")
    assert err == "friedrichs: p = [nan, 0.0, 0.0] is not finite\n"
    # a sweep's manifest records its path, and JSON has no Infinity: the
    # waypoint is refused before any fibre (the manifest read "Infinity")
    code, out, err = _run(capsys, [
        "sweep", "--path", "0,0,0:inf,0,0", "--samples", "2", "--mu", "x2",
        "--outputs", "threshold", "--out", str(tmp_path / "inf")])
    assert (code, out) == (1, "")
    assert err == ("friedrichs: path[1][0] is not finite, and a JSON "
                   "artifact holds finite numbers only\n")
    assert not (tmp_path / "inf").exists()
    code, _, _ = _run(capsys, [
        "sweep", "--path", "0,0,0:7,0,0", "--samples", "2", "--mu", "x2",
        "--outputs", "threshold", "--out", str(tmp_path)])
    assert code == 0  # the first row succeeded
    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("error")] for row in rows] == [
        "", "p = [7.0, 0.0, 0.0] is outside [-2 pi, 2 pi]^3"]


def test_momentum_beyond_two_pi_exit_1(capsys):
    # at p1 = 1e17, p - q has lost q: mu(p) came out 49 % off with exit 0
    code, out, err = _run(capsys, ["threshold", "--p", "1e17,0.3,-0.2"])
    assert (code, out) == (1, "")
    assert err == "friedrichs: p = [1e+17, 0.3, -0.2] is outside [-2 pi, 2 pi]^3\n"


def test_missing_config_exit_1(capsys, tmp_path):
    code, _, err = _run(capsys, ["threshold", "--config",
                                 str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot read model config" in err


def test_bad_usage_exit_1(capsys):
    code, _, _ = _run(capsys, ["threshold", "--p", "1,2"])
    assert code == 1
    code, _, _ = _run(capsys, ["eigenvalue", "--mu", "huh"])
    assert code == 1


def _twin(**keys):
    """The config of the phi = 1 model as trig_poly tables, with keys
    replaced or added."""
    return dict(quadrature_twin(fr.two_particle_model()).config.to_dict(),
                **keys)


@pytest.mark.parametrize("config, field", [
    ({"family": "two_particle", "hopping": "abc"}, "hopping"),
    ([1, 2], "model config"),
    ({"family": "two_particle", "phi": {"cos1": [1]}}, "phi.cos1"),
    ({"family": "trig_poly", "w_table": [{"value": 3.0}],
      "phi_table": [{"index": [0, 0, 0], "value": 1.0}]}, "index"),
    # an index that is not an integer was truncated (0.9 -> 0, so phi = 1
    # and the run exited 0), overflowed (1e30, a traceback) or read true as
    # 1, and a key outside the schema was ignored
    (_twin(phi_table=[{"index": [0, 0, 0], "value": 0.5},
                      {"index": [0.9, 0, 0], "value": 0.5}]), "[0.9, 0, 0]"),
    (_twin(phi_table=[{"index": [1e30, 0, 0], "value": 1.0}]), "1e+30"),
    (_twin(phi_table=[{"index": [True, 0, 0], "value": 1.0}]), "True"),
    (_twin(phi_table=[{"index": [0, 0, 0], "value": 1.0},
                      {"index": [1, 0, 0], "valu": 0.5}]), "'valu'"),
    (_twin(phi_table=[{"index": [0, 0, 0], "value": 1.0, "cos": 1.0}]),
     "both"),
    (_twin(hopping=[1.0, 1.0, 1.0]), "'hopping'"),
    ({"family": "two_particle", "phi": {"constant": 1.0, "cos3": [1, 1, 1]}},
     "'cos3'"),
    ({"family": "two_particle", "hoping": [2.0, 1.0, 1.0]}, "'hoping'"),
    # JSON NaN and Infinity were taken as coefficients: a NaN phi value
    # ended in "quadrature not converged: estimate nan" after numpy
    # RuntimeWarnings, blaming the quadrature
    (_twin(phi_table=[{"index": [0, 0, 0], "value": float("nan")}]),
     "phi_table entry"),
    (_twin(phi_table=[{"index": [0, 0, 0], "value": 1.0},
                      {"index": [1, 0, 0], "value": 0.5,
                       "sin": float("inf")}]), "sin must be a finite"),
    (_twin(w_table=[{"index": [0, 0, 0], "value": float("inf")},
                    {"index": [1, 0, 0], "value": -1.0}]), "w_table entry"),
    ({"family": "two_particle", "hopping": [1.0, float("nan"), 1.0]},
     "hopping"),
    ({"family": "two_particle", "phi": {"constant": float("-inf")}},
     "phi.constant"),
    ({"family": "two_particle",
      "phi": {"constant": 1.0, "cos1": [0.0, float("nan"), 0.0]}},
     "phi.cos1"),
])
def test_malformed_config_exit_1(capsys, tmp_path, config, field):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, ["threshold", "--config", str(path)])
    assert code == 1
    assert err.startswith("friedrichs: ") and field in err


@pytest.mark.parametrize("config", [
    _twin(phi_table=[{"index": [0, 0, 0], "value": 1e300}]),
    {"family": "two_particle", "phi": {"constant": 1e300}}])
def test_overflowing_phi_at_q0_exit_1(capsys, tmp_path, config):
    # phi(q0)^2 beyond the float range ended in an OverflowError traceback;
    # the model now refuses any phi whose square can overflow
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, ["threshold", "--config", str(path),
                                   "--p", "0.7,-0.3,1.1"])
    assert (code, out) == (1, "")
    assert err == "friedrichs: %s: sum_k hypot(cos_k, sin_k) = 1.000e+300, " \
                  "and the bound (2 pi)^3 (sum)^2 on phi^2 overflows a " \
                  "float\n" % ("phi" if "phi" in config else "phi_table")


@pytest.mark.parametrize("mu", ["inf", "nan", "xinf"])
def test_non_finite_mu_exit_1(capsys, mu):
    code, _, err = _run(capsys, ["oracle", "--N", "16", "--mu", mu])
    assert code == 1
    assert err.startswith("friedrichs: ")


def test_eigenvalue_x2(capsys):
    code, out, _ = _run(capsys, ["eigenvalue", "--p", "0,0,0", "--mu", "x2"])
    assert code == 0
    payload = json.loads(out)
    _schema("spectral_report.schema.json")(payload)
    assert payload["classification"] == "BoundState"
    assert payload["E"] is not None and payload["E"] > payload["M"]
    root = fr.secular_root(fr.two_particle_model(), np.zeros(3),
                           payload["mu"], 64)
    assert abs(root - payload["E"]) / payload["E"] <= 3e-3


@pytest.mark.filterwarnings("error")
def test_eigenvalue_at_small_hopping_answers(capsys, tmp_path):
    # the root was right (E - M(p) = 1.9e-8), and eigenfunction's absolute
    # gate |det| > 1e-8 refused it: "energy is not an eigenvalue"
    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "family": "two_particle",
        "hopping": [2.3789261343218633e-08, 4.679952649926385e-07,
                    1.3428462062297157e-08]}))
    code, out, err = _run(capsys, [
        "eigenvalue", "--config", str(config), "--mu", "x2",
        "--p=-0.26008189183144337,2.927061045981604,-3.0583721075498813"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["E"] > payload["M"]


@pytest.mark.filterwarnings("error")
def test_large_phi_at_small_hopping_answers_or_refuses_by_name(capsys,
                                                               tmp_path):
    # the route's tail overflowed (numpy RuntimeWarnings) and threshold
    # printed mu_threshold 0.0 with exit 0; it now prints the unit fibre's
    # mu(p) times c / s^2, and the fit, whose coefficients are beyond the
    # float range, is refused by name
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"family": "two_particle",
                                  "hopping": [1e-5, 1e-5, 1e-5],
                                  "phi": {"constant": 1e150}}))
    p = "0.7,-0.3,1.1"
    code, out, err = _run(capsys, ["threshold", "--config", str(config),
                                   "--p", p])
    assert code == 0, err
    mu_p = json.loads(out)["mu_threshold"]
    _, out, _ = _run(capsys, ["threshold", "--p", p])
    unit = json.loads(out)["mu_threshold"]
    assert abs(mu_p / (unit * 1e-5 / 1e300) - 1.0) <= 1e-12
    code, out, err = _run(capsys, ["expansion", "--config", str(config),
                                   "--p", p])
    assert code == 1 and out == ""
    assert err.startswith("friedrichs: expansion fit failed: coefficients ")
    assert err.endswith(" overflow a float\n")


def test_eigenvalue_x05_regular(capsys):
    code, out, _ = _run(capsys, ["eigenvalue", "--p", "0,0,0", "--mu",
                                 "x0.5"])
    assert code == 0
    payload = json.loads(out)
    _schema("spectral_report.schema.json")(payload)
    assert payload["E"] is None
    assert payload["classification"] == "Regular"


def test_classify_at_threshold_resonance(capsys):
    code, out, _ = _run(capsys, ["classify", "--p", "0,0,0", "--mu", "x1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Resonance"
    assert 0.8 <= payload["l2_growth_rate"] <= 1.2


def test_classify_negative_mu_exit_1(capsys):
    code, out, err = _run(capsys, ["classify", "--mu=-1"])
    assert code == 1
    assert out == ""
    assert err.startswith("friedrichs: mu = -1.0 is not positive and finite")


def test_classify_vanishing_phi(capsys, tmp_path):
    cfg = tmp_path / "vanishing.json"
    cfg.write_text(json.dumps(fr.two_particle_model(
        phi={"constant": 3.0, "cos1": [1.0, 1.0, 1.0]}).config.to_dict()))
    code, out, _ = _run(capsys, ["classify", "--p", "0,0,0", "--mu", "x1",
                                 "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "ThresholdEigenvalue"
    assert payload["l2_growth_rate"] <= 0.1


def test_expansion_command(capsys):
    code, out, _ = _run(capsys, ["expansion", "--p", "0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert 0.99 <= payload["tau0_fit"] <= 1.01
    assert payload["tau0_closed"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("config", [None, "twin"])
def test_expansion_window_below_the_bars_exit_1(capsys, monkeypatch, tmp_path,
                                                config):
    # edge offsets of 1e-300 leave every Omega difference 0.0
    monkeypatch.setattr("friedrichs.quadrature.FIT_WINDOW", (1e-300, 1e-299))
    argv = ["expansion"]
    if config:
        cfg = tmp_path / "twin.json"
        cfg.write_text(json.dumps(quadrature_twin(
            fr.two_particle_model()).config.to_dict()))
        argv += ["--config", str(cfg)]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("friedrichs: expansion fit failed: Omega")


@pytest.mark.parametrize("option", ["--window=1e-4,1e-2", "--points=8"])
def test_expansion_window_and_points_are_gone(capsys, monkeypatch, tmp_path,
                                             option):
    # the edge offsets scale with the fibre's curvature: no option sets them
    monkeypatch.setattr(cli, "_fiber", _no_fiber)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, ["expansion", option, "--out",
                                   str(out_dir)])
    assert code == 1 and out == ""
    assert "unrecognized arguments: %s" % option in err
    assert not out_dir.exists()


def test_oracle_command(capsys, tmp_path):
    code, out, _ = _run(capsys, ["oracle", "--p", "0,0,0", "--mu", "x2",
                                 "--N", "16,32", "--dense", "10",
                                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["trend_ok"] is True
    assert payload["dense"]["count_above_max_diag"] == 1
    csv = (tmp_path / "oracle_convergence.csv").read_text().splitlines()
    assert csv[0] == "N,root,abs_dev,rel_dev"
    assert len(csv) == 3


def test_oracle_solves_each_secular_root_once(capsys, monkeypatch, tmp_path):
    from friedrichs import oracle

    calls = []
    solve = oracle.secular_root

    def counted(*args, **kwargs):
        calls.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "secular_root", counted)
    monkeypatch.setattr(cli, "secular_root", counted)
    code, out, _ = _run(capsys, ["oracle", "--p", "0.7,-0.3,1.1",
                                 "--out", str(tmp_path)])
    assert code == 0
    assert len(json.loads(out)["convergence"]) == 3
    assert sorted(calls) == [16, 32, 64]


def test_sweep_dichotomy_continuity_determinism(capsys, tmp_path,
                                                monkeypatch):
    half_pi = "%.17g" % (np.pi / 2)
    argv = ["sweep", "--path", "0,0,0:%s,0,0" % half_pi, "--samples", "9",
            "--mu", "x0.5,x1,x2",
            "--outputs", "threshold,eigenvalue,classify"]

    monkeypatch.setenv("FRIEDRICHS_THREADS", "2")
    out_a = tmp_path / "a"
    code, _, _ = _run(capsys, argv + ["--out", str(out_a)])
    assert code == 0

    monkeypatch.setenv("FRIEDRICHS_THREADS", "1")
    out_b = tmp_path / "b"
    code, _, _ = _run(capsys, argv + ["--out", str(out_b)])
    assert code == 0

    csv_a = (out_a / "sweep.csv").read_bytes()
    csv_b = (out_b / "sweep.csv").read_bytes()
    assert csv_a == csv_b  # byte-identical across reruns and thread counts

    lines = csv_a.decode().strip().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 28  # header + 9 p-samples x 3 couplings
    i_e = header.index("E")
    i_mu_thr = header.index("mu_threshold")
    i_cls = header.index("classification")
    i_err = header.index("error")
    rows = [ln.split(",") for ln in lines[1:]]
    # eigenvalue present exactly in every third (x2) row
    for j, row in enumerate(rows):
        assert row[i_err] == ""
        expect_e = j % 3 == 2
        assert (row[i_e] != "") == expect_e
        assert row[i_cls] == ("BoundState" if expect_e
                              else "Resonance" if j % 3 == 1 else "Regular")
    # threshold coupling continuous along the path
    mu_thr = [float(rows[j][i_mu_thr]) for j in range(0, len(rows), 3)]
    for a, b in zip(mu_thr, mu_thr[1:]):
        assert abs(b - a) / a <= 0.05

    manifest = json.loads((out_a / "manifest.json").read_text())
    _schema("sweep_manifest.schema.json")(manifest)
    assert manifest["rows"] == 27 and manifest["rows_succeeded"] == 27


def test_sweep_empty_path_exit_1(capsys, tmp_path):
    code, _, _ = _run(capsys, ["sweep", "--path", "", "--out",
                               str(tmp_path)])
    assert code == 1


def test_sweep_no_outputs_exit_1(capsys, tmp_path):
    code, _, _ = _run(capsys, ["sweep", "--path", "0,0,0:1,0,0",
                               "--outputs", "", "--out", str(tmp_path)])
    assert code == 1


def test_sweep_degenerate_rows_get_error_column(capsys, tmp_path):
    # path ending at the degenerate momentum: its rows fail, others succeed
    code, _, _ = _run(capsys, [
        "sweep", "--path", "0,0,0:%.17g,0,0" % np.pi, "--samples", "2",
        "--mu", "x2", "--outputs", "threshold,eigenvalue",
        "--out", str(tmp_path)])
    assert code == 0  # at least one row succeeded
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    i_err = lines[0].split(",").index("error")
    assert rows[0][i_err] == ""
    assert "degenerate" in rows[1][i_err]


def test_sweep_csv_quotes_an_error_text_with_a_comma(capsys, tmp_path,
                                                    monkeypatch):
    def fail(*args, **kwargs):
        raise fr.FriedrichsError("a, b")

    monkeypatch.setattr(cli, "solve_eigenvalue", fail)
    code, _, _ = _run(capsys, [
        "sweep", "--path", "0,0,0", "--samples", "1", "--mu", "x0.5,x2",
        "--outputs", "threshold,eigenvalue", "--out", str(tmp_path)])
    assert code == 2  # every row failed
    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert [row[header.index("error")] for row in rows] == ["a, b", "a, b"]


def _csv_rows(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize("argv", [
    ["eigenvalue", "--mu", "x1.00000001"],
    ["oracle", "--mu", "x1.00000001", "--N", "16"]])
def test_root_at_the_band_edge_exits_1(capsys, argv):
    # the root brentq returns is M(p) itself: neither "requires E > M(p)"
    # (the eigenfunction) nor a diverging second moment (the oracle's bar)
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("friedrichs: mu/mu(p) - 1 = 1e-08")
    assert "within the root tolerance of M(p)" in err
    assert "requires E > M(p)" not in err


def test_sweep_row_at_the_band_edge_keeps_the_threshold(capsys, tmp_path):
    code, _, _ = _run(capsys, [
        "sweep", "--path", "0,0,0", "--samples", "1",
        "--mu", "x2,x1.00000001", "--outputs", "threshold,eigenvalue,classify",
        "--out", str(tmp_path)])
    assert code == 0
    ok, edge = _csv_rows(tmp_path / "sweep.csv")
    assert ok["error"] == "" and ok["classification"] == "BoundState"
    assert edge["error"].startswith("mu/mu(p) - 1 = 1e-08")
    assert "within the root tolerance of M(p)" in edge["error"]
    assert edge["E"] == edge["classification"] == ""
    assert (edge["M"], edge["mu_threshold"]) == (ok["M"], ok["mu_threshold"])


@pytest.mark.parametrize("threads, workers", [("64", 3), ("2", 2), (None, 3)])
def test_sweep_workers_capped_at_the_cpu_count(capsys, monkeypatch, tmp_path,
                                               threads, workers):
    # a stand-in pool records max_workers and maps in this thread
    recorded = []

    def pool(max_workers):
        recorded.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(cli, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    if threads is None:
        monkeypatch.delenv("FRIEDRICHS_THREADS", raising=False)
    else:
        monkeypatch.setenv("FRIEDRICHS_THREADS", threads)
    code, _, _ = _run(capsys, ["sweep", "--path", "0,0,0", "--samples", "1",
                               "--mu", "x2", "--out", str(tmp_path)])
    assert code == 0
    assert recorded == [workers]


def test_sweep_and_convergence_csv_write_cells_alike(capsys, tmp_path):
    # one writer for both files: N as an integer, every number as the
    # exact float of the JSON, None as an empty cell
    p = "0.7,-0.3,1.1"
    code, out, _ = _run(capsys, ["oracle", "--p", p, "--mu", "x2",
                                 "--N", "16,32", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    conv = _csv_rows(tmp_path / "oracle_convergence.csv")
    assert len(conv) == len(payload["convergence"]) == 2
    for cells, entry in zip(conv, payload["convergence"]):
        assert cells["N"] == "%d" % entry["N"]
        for key in ("root", "abs_dev", "rel_dev"):
            assert float(cells[key]) == entry[key]
    code, _, _ = _run(capsys, [
        "sweep", "--path", p, "--samples", "1", "--mu", "x0.5,x2",
        "--outputs", "eigenvalue,oracle", "--oracle-n", "16",
        "--out", str(tmp_path)])
    assert code == 0
    below, above = _csv_rows(tmp_path / "sweep.csv")
    assert below["E"] == below["error"] == ""  # E is None below mu(p)
    assert float(above["E"]) == payload["E_continuum"]
    assert above["oracle_root"] == conv[0]["root"]  # N = 16, the same bytes
    assert float(above["mu"]) == payload["mu"]


def test_failed_expansion_fit_keeps_the_rows(capsys, tmp_path, monkeypatch):
    # at p1 = 3.14159 the fit fails (residual 7.8e-2), but the fibre, mu(p)
    # and E stand; the fit runs once for the point, not once per row
    fits = []
    fit = cli.expansion_fit

    def counted(*args, **kwargs):
        fits.append(args[1])
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "expansion_fit", counted)
    code, _, _ = _run(capsys, [
        "sweep", "--path", "3.14159,0.1,-0.12", "--samples", "1",
        "--mu", "x0.5,x2", "--outputs", "threshold,eigenvalue,expansion",
        "--out", str(tmp_path)])
    assert code == 2  # every row carries the fit's error
    rows = _csv_rows(tmp_path / "sweep.csv")
    assert len(rows) == 2 and len(fits) == 1
    for row in rows:
        assert row["error"].startswith(
            "expansion fit failed: relative residual")
        assert all(row[k] for k in ("M", "m", "mu_threshold", "mu"))
        assert row["tau0_fit"] == row["tau0_closed"] == ""
    assert rows[0]["E"] == ""
    assert float(rows[1]["E"]) > float(rows[1]["M"])


def test_manifest_keeps_every_digit_of_a_mu_spec(capsys, tmp_path):
    specs = ["x1.00000001", "x1.00000002", "x0.5", "x1", "x2", "0.25"]
    code, _, _ = _run(capsys, [
        "sweep", "--path", "0,0,0", "--samples", "1", "--mu",
        ",".join(specs), "--outputs", "threshold", "--out", str(tmp_path)])
    assert code == 0
    written = json.loads((tmp_path / "manifest.json").read_text())["mu_specs"]
    assert written[0] != written[1]
    assert [float(s.lstrip("x")) for s in written] == [
        float(s.lstrip("x")) for s in specs]
    assert written[2:] == specs[2:]


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "friedrichs", "--version"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == fr.__version__


def _fresh(code, cwd=None):
    """Run code in a fresh interpreter on this source tree: the test
    process itself has SciPy loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(fr.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd)


def test_cli_import_loads_no_scipy():
    out = _fresh("import sys, friedrichs.cli; print(sorted(m for m in "
                 "sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["threshold", "--p", "0.7,-0.3,1.1"],
    ["sweep", "--path", "0,0,0:1,0,0", "--samples", "3", "--mu", "x0.5,x2",
     "--outputs", "threshold,eigenvalue,classify", "--out", "out"],
], ids=["threshold", "sweep"])
def test_cli_output_is_the_same_with_scipy_blocked(tmp_path, argv):
    # None in sys.modules makes every import of scipy raise ImportError
    runs = []
    for block in ("", "sys.modules['scipy'] = None; "):
        cwd = tmp_path / ("blocked" if block else "open")
        cwd.mkdir()
        out = _fresh("import sys; %sfrom friedrichs.cli import main; "
                     "sys.exit(main(%r))" % (block, argv), cwd)
        assert out.returncode == 0, out.stderr
        runs.append((out.stdout, {f.name: f.read_bytes()
                                  for f in (cwd / "out").glob("*")}))
    assert runs[0] == runs[1]
    if argv[0] == "sweep":
        assert sorted(runs[0][1]) == ["manifest.json", "sweep.csv"]


@pytest.mark.parametrize("argv, fragment", [
    (["threshold", "--p", "1,2"], "3 comma-separated components"),
    (["threshold", "--p", "a,b,c"], "cannot parse torus point"),
    (["oracle", "--N", ","], "empty N list"),
    (["eigenvalue", "--mu", "huh"], "mu spec"),
    (["oracle", "--N", "16,abc"], "N list"),
    (["oracle", "--N", "16", "--dense", "-1"], "N >= 1"),
    (["threshold", "--grid", "0"], "n_grid"),
    (["threshold", "--tol", "0"], "rel_tol"),
    (["threshold", "--tol", "-1"], "rel_tol"),
    (["threshold", "--tol", "nan"], "rel_tol"),
])
def test_bad_argument_exit_1(capsys, argv, fragment):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err.startswith("friedrichs: ") and fragment in err


def test_rho_flag_is_a_usage_error(capsys):
    # the near-field ball's radius is quadrature.RHO_CAP; no flag sets it
    code, out, err = _run(capsys, ["threshold", "--rho", "0.5"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --rho 0.5" in err


def test_sweep_point_evaluates_the_threshold_at_most_twice(
        twin_one, threshold_evaluations):
    from friedrichs import cli

    mu_specs = [cli._parse_mu_spec(s) for s in ("x0.5", "x1", "x2")]
    rows = cli._sweep_point(twin_one, fr.QuadratureSpec(),
                            np.array([0.7, -0.3, 1.1]), mu_specs,
                            ["threshold", "eigenvalue", "classify"], 64)
    assert [r["error"] for r in rows] == ["", "", ""]
    assert len(threshold_evaluations) <= 2


def _no_fiber(model, spec, p):
    raise AssertionError("fibre built before the arguments were checked")


@pytest.mark.parametrize("argv, threads, fragment", [
    (["oracle", "--N", "16,7"], None, "even N >= 8"),
    (["oracle", "--N", "6"], None, "even N >= 8"),
    (["oracle", "--N", "16", "--dense", "13"], None, "N <= 12"),
    (["oracle", "--N", "16", "--dense", "-1"], None, "N >= 1"),
    (["sweep", "--path", "0,0,0", "--outputs", "threshold,oracle",
      "--oracle-n", "7"], None, "even N >= 8"),
    (["sweep", "--p-grid", "-1"], None, "p-grid size must be >= 1"),
    (["sweep", "--path", "0,0,0"], "abc", "FRIEDRICHS_THREADS"),
    (["sweep", "--path", "0,0,0"], "0", "FRIEDRICHS_THREADS"),
    (["sweep", "--path", "0,0,0"], "-2", "FRIEDRICHS_THREADS"),
    (["classify", "--mu", "abc"], None, "mu spec"),
    (["oracle", "--mu", "abc"], None, "mu spec"),
    (["threshold", "--p", "1,2"], None, "3 comma-separated components"),
    (["expansion", "--p", "a,b,c"], None, "cannot parse torus point"),
    (["oracle", "--N", ","], None, "empty N list"),
    (["oracle", "--N", "16,258"], None, "N <= 256"),
    (["sweep", "--path", "0,0,0", "--outputs", "threshold,oracle",
      "--oracle-n", "258"], None, "N <= 256"),
    (["sweep", "--path", "0,0,0:1,0,0:2,0,0", "--samples", "1"], None,
     "needs --samples >= 2"),
    (["sweep", "--path", "0,0,0", "--samples", "0"], None,
     "needs --samples >= 1"),
] + [
    # a coupling that is not positive, absolute or a multiple of mu(p) > 0
    ([command, "--mu=" + mu] + (["--path", "0,0,0"] if command == "sweep"
                                else []), None, "is not positive and finite")
    for command in ("classify", "eigenvalue", "oracle", "sweep")
    for mu in ("-1", "0", "x0", "x-2")
])
def test_bad_input_exits_before_the_fibre(capsys, monkeypatch, tmp_path, argv,
                                          threads, fragment):
    monkeypatch.setattr(cli, "_fiber", _no_fiber)
    if threads is None:
        monkeypatch.delenv("FRIEDRICHS_THREADS", raising=False)
    else:
        monkeypatch.setenv("FRIEDRICHS_THREADS", threads)
    out = tmp_path / "out"
    code, _, err = _run(capsys, argv + ["--out", str(out)])
    assert code == 1
    assert err.startswith("friedrichs: ") and fragment in err
    assert not out.exists()
