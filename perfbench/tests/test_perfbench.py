"""Tiny-size tests of the benchmark itself: every named metric is emitted,
the checks catch a corrupted result, and a checkout without sources fails.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_emitted(trace, key):
    proc = _run("--workload", "fresh_fibers", "--seed", "3", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fresh_fibers", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_fibre_result_is_counted_failed():
    wl = workloads.FreshFibers()
    state = wl.setup(None)
    inp = ("phi_one", np.array([0.4, -1.1, 2.0]))
    res = wl.op(state, inp)
    assert wl.check(state, inp, res)["failed"] == 0

    om = res["omega"]
    bad = dict(res, omega=dataclasses.replace(om, value=om.value * (1 + 1e-5)))
    grade = wl.check(state, inp, bad)
    assert grade["failed"] == 1 and "Bessel" in grade["problems"][0]

    # 1e-7 off the Bessel value: within rel_tol (1e-6), but ten times the
    # reported error bar, so a failed answer and not a wrong one
    ref = reference.bessel_omega(0.0, inp[1])[0]
    short = dataclasses.replace(om, value=ref * (1 + 1e-7),
                                estimated_error=ref * 1e-8)
    grade = wl.check(state, inp, dict(res, omega=short))
    assert grade["failed"] == 1 and not grade["problems"]
    assert "estimated_error" in grade["shortfalls"][0]

    res["report"].tau0_fit *= 1.05
    grade = wl.check(state, inp, res)
    assert grade["failed"] == 1 and "tau0" in grade["problems"][0]


def _bessel_sweep_csv(p2, p3):
    """A correct sweep.csv for the phi = 1 path, from the Bessel route."""
    lines = ["p1,p2,p3,M,m,mu_threshold,mu,E,classification,error"]
    for p1 in np.linspace(0.0, workloads.ZONE_EDGE, 9):
        p = np.array([p1, p2, p3])
        mu_t = 1.0 / reference.bessel_omega(0.0, p)[0]
        top = reference.band_top(p)
        for spec, label in zip(workloads.ZoneSweep.MU, ("Regular", "Resonance",
                                                        "BoundState")):
            mu = float(spec[1:]) * mu_t
            e = ""
            if spec == "x2":
                e = "%.17g" % brentq(lambda z: reference.bessel_det(mu, p, z)[0],
                                     top + 1e-9, top + 10.0, xtol=1e-13)
            lines.append("%.17g,%.17g,%.17g,%.17g,0,%.17g,%.17g,%s,%s,"
                         % (p1, p2, p3, top, mu_t, mu, e, label))
    return lines


def test_corrupted_sweep_rows_are_counted_failed(tmp_path):
    lines = _bessel_sweep_csv(0.1, -0.05)
    wl = workloads.ZoneSweep(str(ROOT), str(tmp_path))
    good = {"csv": ("\n".join(lines) + "\n").encode(), "returncode": 0}
    assert wl._grade(good)["failed"] == 0 and not wl._grade(good)["problems"]

    corrupt = list(lines)
    cells = corrupt[4].split(",")
    cells[5] = "%.17g" % (float(cells[5]) * (1 + 1e-4))   # mu_threshold
    corrupt[4] = ",".join(cells)
    corrupt[8] = corrupt[8].replace("Resonance", "BoundState")
    corrupt[27] = ",".join(corrupt[27].split(",")[:3]) + ",,,,,,,not converged"
    grade = wl._grade({"csv": ("\n".join(corrupt) + "\n").encode()})
    assert grade["failed"] == 3 and grade["rows_failed"] == 1
    assert len(grade["problems"]) == 2

    assert not wl.check(None, "", good)["problems"]
    grade = wl.check(None, "", {"csv": good["csv"] + b"\n"})
    assert "differs" in grade["problems"][-1] and grade["failed"] == 27


def test_tail_is_a_percentile_with_ten_samples_beyond():
    assert worker.tail(list(range(5)))[0] == 50
    q, value = worker.tail([float(i) for i in range(100)])
    assert q == 90 and value == pytest.approx(89.1)
