"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest

import friedrichs as fr
from conftest import residual_sup, scaled_phi

P0 = np.zeros(3)


def _report(num, name, ok, detail=""):
    print("[%s] criterion %d (%s)%s"
          % ("PASS" if ok else "FAIL", num, name,
             ": " + detail if detail else ""))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


def _random_two_particle(rng):
    hopping = tuple(rng.uniform(0.5, 2.0, 3))
    phi = {"constant": float(rng.uniform(0.6, 1.4)),
           "cos1": list(rng.uniform(-0.25, 0.25, 3)),
           "sin1": list(rng.uniform(-0.25, 0.25, 3))}
    return fr.two_particle_model(hopping, phi)


def _random_trig_poly(rng):
    c = rng.uniform(0.5, 2.0, 3)
    eps = float(rng.uniform(-0.1, 0.1))
    w_table = [{"index": [0, 0, 0], "value": float(np.sum(c))},
               {"index": [1, 0, 0], "value": float(-c[0])},
               {"index": [0, 1, 0], "value": float(-c[1])},
               {"index": [0, 0, 1], "value": float(-c[2])},
               {"index": [1, 1, 0], "value": eps}]
    phi_table = [{"index": [0, 0, 0], "value": float(rng.uniform(0.6, 1.4))},
                 {"index": [1, 0, 0], "value": float(rng.uniform(-0.2, 0.2)),
                  "sin": float(rng.uniform(-0.2, 0.2))}]
    return fr.DispersionModel(fr.ModelConfig(
        family="trig_poly", w_table=w_table, phi_table=phi_table))


def test_criterion_1_threshold_value(model_one, cp_one):
    t0 = time.perf_counter()
    _, _, rich = fr.richardson_omega_threshold(model_one, P0, cp_one.M,
                                               (64, 128))
    value = fr.OmegaEvaluator(model_one, P0, cp_one).threshold.value
    elapsed = time.perf_counter() - t0
    rel = abs(value - rich) / rich
    _report(1, "threshold value", rel <= 1e-4 and elapsed < 30.0,
            "rel dev %.2e vs extrapolated lattice sum, %.1fs" % (rel, elapsed))


def test_criterion_2_sign_bridge(model_one):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        p = rng.uniform(-1.2, 1.2, 3)
        cp = fr.find_maximizer(model_one, p)
        ev = fr.OmegaEvaluator(model_one, p, cp)
        mu_p = fr.coupling_threshold(model_one, p, cp, evaluator=ev)
        for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
            det = fr.fredholm_det(model_one, p, cp, ratio * mu_p, cp.M,
                                  evaluator=ev)
            worst = max(worst, abs(det - (1.0 - ratio)))
    _report(2, "sign bridge", worst <= 1e-8,
            "max |det - (1 - mu/mu(p))| = %.2e over 25 cases" % worst)


def test_criterion_3_eigenvalue_dichotomy(model_one):
    end = np.array([np.pi / 2, 0.0, 0.0])
    dichotomy_ok = True
    worst_rel = 0.0
    trends_ok = True
    for t in np.linspace(0.0, 1.0, 9):
        p = t * end
        cp = fr.find_maximizer(model_one, p)
        ev = fr.OmegaEvaluator(model_one, p, cp)
        mu_p = fr.coupling_threshold(model_one, p, cp, evaluator=ev)
        energies = {}
        for ratio in (0.5, 1.0, 2.0):
            e = fr.solve_eigenvalue(model_one, p, cp, ratio * mu_p,
                                    evaluator=ev)
            energies[ratio] = e
            if (e is not None) != (ratio > 1.0):
                dichotomy_ok = False
        e2 = energies[2.0]
        root64 = fr.secular_root(model_one, p, 2.0 * mu_p, 64)
        worst_rel = max(worst_rel, abs(root64 - e2) / e2)
        floor = fr.eigenvalue_error_estimate(model_one, p, cp, 2.0 * mu_p,
                                             e2, evaluator=ev)
        rep = fr.convergence_report(model_one, p, 2.0 * mu_p, [16, 32, 64],
                                    e2, floor=floor)
        trends_ok = trends_ok and rep.trend_ok
    _report(3, "eigenvalue dichotomy",
            dichotomy_ok and worst_rel <= 3e-3 and trends_ok,
            "existence iff mu > mu(p); max oracle dev %.2e; trends %s"
            % (worst_rel, trends_ok))


def test_criterion_4_classification_truth_table(model_one, cp_one, ev_one,
                                                mu_one, model_vanishing,
                                                cp_vanishing, ev_vanishing):
    res = fr.classify_threshold(model_one, P0, cp_one, mu_one,
                                evaluator=ev_one)
    ok_res = (res.label is fr.Classification.RESONANCE
              and 0.8 <= res.l2_growth_rate <= 1.2)

    mu_v = fr.coupling_threshold(model_vanishing, P0, cp_vanishing,
                                 evaluator=ev_vanishing)
    eig = fr.classify_threshold(model_vanishing, P0, cp_vanishing, mu_v,
                                evaluator=ev_vanishing)
    ok_eig = (eig.label is fr.Classification.THRESHOLD_EIGENVALUE
              and eig.l2_growth_rate <= 0.1)

    low = fr.classify_threshold(model_one, P0, cp_one, 0.5 * mu_one,
                                evaluator=ev_one)
    high = fr.classify_threshold(model_one, P0, cp_one, 2.0 * mu_one,
                                 evaluator=ev_one)
    ok_off = (low.label is fr.Classification.REGULAR
              and high.label is fr.Classification.BOUND_STATE)

    _report(4, "classification truth table", ok_res and ok_eig and ok_off,
            "resonance exponent %.3f, eigenvalue exponent %.3f"
            % (res.l2_growth_rate, eig.l2_growth_rate))


def test_criterion_5_expansion_coefficient(model_one, cp_one, ev_one,
                                           model_vanishing, cp_vanishing,
                                           ev_vanishing):
    fit = fr.expansion_fit(model_one, P0, cp_one, evaluator=ev_one)
    ok_fit = (0.99 <= fit.tau0_fit <= 1.01
              and abs(fit.tau0_closed - 1.0) <= 1e-12)
    fit_v = fr.expansion_fit(model_vanishing, P0, cp_vanishing,
                             evaluator=ev_vanishing)
    ok_collapse = fit_v.sqrt_term_fraction <= 1e-3
    _report(5, "expansion coefficient", ok_fit and ok_collapse,
            "tau0_fit %.5f; vanishing-phi sqrt fraction %.2e"
            % (fit.tau0_fit, fit_v.sqrt_term_fraction))


def test_criterion_6_monotonicity_suites():
    rng = np.random.default_rng(211)
    violations = 0
    for trial in range(20):
        model = (_random_two_particle(rng) if trial % 5 != 4
                 else _random_trig_poly(rng))
        p = rng.uniform(-1.0, 1.0, 3)
        cp = fr.find_maximizer(model, p)
        ev = fr.OmegaEvaluator(model, p, cp)
        mu_p = fr.coupling_threshold(model, p, cp, evaluator=ev)
        mu = 2.0 * mu_p
        e_star = fr.solve_eigenvalue(model, p, cp, mu, evaluator=ev)
        # 10-point geometric z-ladder through the eigenvalue
        zs = cp.M + (e_star - cp.M) * 2.0 ** np.arange(-3, 7)
        omegas = [ev.evaluate(z).value for z in zs]
        dets = [1.0 - mu * om for om in omegas]
        violations += sum(not b < a for a, b in zip(omegas, omegas[1:]))
        violations += sum(not b > a for a, b in zip(dets, dets[1:]))
        # 5-point mu-ladder
        es = [e_star if ratio == 2.0 else
              fr.solve_eigenvalue(model, p, cp, ratio * mu_p, evaluator=ev)
              for ratio in (1.5, 2.0, 3.0, 5.0, 8.0)]
        violations += sum(not b > a for a, b in zip(es, es[1:]))
    _report(6, "monotonicity suites", violations == 0,
            "%d violations over 20 random models" % violations)


def test_criterion_7_positivity_shadow(model_one):
    rng = np.random.default_rng(307)
    bad = 0
    for _ in range(50):
        p = rng.uniform(-np.pi, np.pi, 3)
        mu = float(10.0 ** rng.uniform(-2.5, -0.5))
        res = fr.dense_spectrum(model_one, p, mu, 10)
        below = (res.spectrum_summary["min_eig"]
                 < res.spectrum_summary["min_diag"] - 1e-10)
        multi = res.spectrum_summary["count_above_max_diag"] not in (0, 1)
        bad += int(below or multi)
    _report(7, "positivity shadow", bad == 0,
            "%d violations over 50 random (mu, p) at N=10" % bad)


def test_criterion_8_eigenfunction_residual(model_one):
    worst = 0.0
    for p in (P0, np.array([0.5, -0.4, 0.9])):
        cp = fr.find_maximizer(model_one, p)
        ev = fr.OmegaEvaluator(model_one, p, cp)
        mu_p = fr.coupling_threshold(model_one, p, cp, evaluator=ev)
        for ratio in np.geomspace(1.2, 10.0, 5):
            mu = ratio * mu_p
            e = fr.solve_eigenvalue(model_one, p, cp, mu, evaluator=ev)
            psi = fr.eigenfunction(model_one, p, cp, mu, e, evaluator=ev)
            worst = max(worst, residual_sup(psi))
    _report(8, "eigenfunction residual", worst <= 1e-8,
            "max sup-norm %.2e over 10 (mu, p) pairs" % worst)


def test_criterion_9_scaling_covariance(model_one, cp_one, ev_one, mu_one):
    mu = 2.0 * mu_one
    e_base = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    ok = True
    worst = 0.0
    for c in (2.0, 10.0):
        scaled = scaled_phi(model_one, c)
        cp_s = fr.find_maximizer(scaled, P0)
        ev_s = fr.OmegaEvaluator(scaled, P0, cp_s)
        mu_s = mu / c ** 2
        for z in (cp_one.M, cp_one.M + 0.3, e_base, e_base + 2.0):
            d1 = fr.fredholm_det(model_one, P0, cp_one, mu, z,
                                 evaluator=ev_one)
            d2 = fr.fredholm_det(scaled, P0, cp_s, mu_s, z, evaluator=ev_s)
            worst = max(worst, abs(d1 - d2))
        e_s = fr.solve_eigenvalue(scaled, P0, cp_s, mu_s, evaluator=ev_s)
        if abs(e_s - e_base) > 1e-9 * e_base:
            ok = False
        c1 = fr.classify_threshold(model_one, P0, cp_one, mu,
                                   evaluator=ev_one)
        c2 = fr.classify_threshold(scaled, P0, cp_s, mu_s, evaluator=ev_s)
        if c1.label is not c2.label:
            ok = False
    _report(9, "scaling covariance", ok and worst <= 1e-12,
            "max pointwise det shift %.2e" % worst)
