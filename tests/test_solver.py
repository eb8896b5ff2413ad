import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

import friedrichs as fr
from conftest import (bessel_omega, model_kinds, norm_on_grid, residual_sup,
                      scaled_phi)
from friedrichs.cli import _json
from friedrichs.quadrature import FIT_POINTS

P0 = np.zeros(3)


# -- coupling threshold ---------------------------------------------------


def test_threshold_against_lattice_extrapolation(model_one, cp_one, ev_one,
                                                 mu_one):
    _, _, rich = fr.richardson_omega_threshold(model_one, P0, cp_one.M)
    assert mu_one == pytest.approx(1.0 / rich, rel=1e-4)
    assert mu_one == pytest.approx(0.01595, abs=2e-5)


def test_threshold_scaling_quarter(model_one, cp_one, mu_one):
    doubled = scaled_phi(model_one, 2.0)
    cp = fr.find_maximizer(doubled, P0)
    mu_scaled = fr.coupling_threshold(doubled, P0, cp)
    assert mu_scaled == pytest.approx(mu_one / 4.0, rel=1e-12)


def test_threshold_positive_at_random_momenta(model_one):
    rng = np.random.default_rng(43)
    for _ in range(20):
        p = rng.uniform(-1.2, 1.2, 3)
        cp = fr.find_maximizer(model_one, p)
        assert fr.coupling_threshold(model_one, p, cp) > 0.0


# -- determinant ----------------------------------------------------------


def test_det_zero_at_threshold_coupling(model_one, cp_one, ev_one, mu_one):
    d = fr.fredholm_det(model_one, P0, cp_one, mu_one, cp_one.M,
                        evaluator=ev_one)
    assert abs(d) <= 2e-10


def test_det_tends_to_one(model_one, cp_one, ev_one, mu_one):
    d = fr.fredholm_det(model_one, P0, cp_one, 2.0 * mu_one, 1.0e6,
                        evaluator=ev_one)
    assert abs(d - 1.0) <= 1e-4


def test_det_minus_one_at_double_coupling(model_one, cp_one, ev_one, mu_one):
    d = fr.fredholm_det(model_one, P0, cp_one, 2.0 * mu_one, cp_one.M,
                        evaluator=ev_one)
    assert abs(d + 1.0) <= 1e-8


def test_det_sign_bridge(model_one, cp_one, ev_one, mu_one):
    rng = np.random.default_rng(47)
    for ratio in rng.uniform(0.1, 5.0, 10):
        mu = ratio * mu_one
        d = fr.fredholm_det(model_one, P0, cp_one, mu, cp_one.M,
                            evaluator=ev_one)
        assert abs(d - (1.0 - mu / mu_one)) <= 1e-8


def test_det_monotone_in_z(model_one, cp_one, ev_one, mu_one):
    mu = 2.0 * mu_one
    e = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    zs = cp_one.M + (e - cp_one.M) * 2.0 ** np.arange(-3, 7)
    vals = [fr.fredholm_det(model_one, P0, cp_one, mu, z, evaluator=ev_one)
            for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_det_requires_positive_mu(model_one, cp_one, ev_one):
    with pytest.raises(fr.InvalidInputError):
        fr.fredholm_det(model_one, P0, cp_one, -1.0, cp_one.M,
                        evaluator=ev_one)


# -- eigenvalue -----------------------------------------------------------


def test_no_eigenvalue_at_or_below_threshold(model_one, cp_one, ev_one,
                                             mu_one):
    assert fr.solve_eigenvalue(model_one, P0, cp_one, mu_one,
                               evaluator=ev_one) is None
    assert fr.solve_eigenvalue(model_one, P0, cp_one, 0.5 * mu_one,
                               evaluator=ev_one) is None


def test_eigenvalue_against_independent_reference(model_one, cp_one, ev_one,
                                                  mu_one):
    from scipy.optimize import brentq

    mu = 2.0 * mu_one
    e = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    assert e is not None and e > cp_one.M
    # root of 1 - mu * Omega via the Bessel-integral reference
    e_ref = cp_one.M + brentq(lambda d: 1.0 - mu * bessel_omega(d),
                              1e-8, 50.0, xtol=1e-12)
    assert e == pytest.approx(e_ref, abs=2e-6)
    assert e == pytest.approx(14.7127894, abs=1e-5)
    # residual of the determinant at the root
    assert abs(fr.fredholm_det(model_one, P0, cp_one, mu, e,
                               evaluator=ev_one)) <= 1e-12


def test_eigenvalue_matches_lattice_oracle(model_one, cp_one, ev_one, mu_one):
    mu = 2.0 * mu_one
    e = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    root = fr.secular_root(model_one, P0, mu, 64)
    assert abs(root - e) / e <= 3e-3


def test_eigenvalue_strong_coupling_asymptote(model_one, cp_one, ev_one):
    mu = 1.0e4
    e = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    ref = (2.0 * np.pi) ** 3
    assert abs(e / mu - ref) / ref <= 1e-3
    assert abs(fr.fredholm_det(model_one, P0, cp_one, mu, e,
                               evaluator=ev_one)) <= 1e-10


def test_bracket_safeguard_doubling(twin_one, monkeypatch):
    # at mu = 1e11 mu(p) the split quadrature's error exceeds the margin
    # 1 - mu Omega(z_hi) of the bound z_hi = M + mu ||phi||^2, so the
    # first bracket end fails and the one doubling brackets the root.  By
    # default the torus sum answers at z_hi, within rounding of the true
    # Omega < ||phi||^2 / (z_hi - M), and the bound holds; it is switched
    # off to reach the doubling
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(twin_one, p)
    ev = fr.OmegaEvaluator(twin_one, p, cp)
    mu = 1e11 * fr.coupling_threshold(twin_one, p, cp, evaluator=ev)
    gap = mu * twin_one.phi_l2_norm_sq()
    assert fr.fredholm_det(twin_one, p, cp, mu, cp.M + gap,
                           evaluator=ev) > 0.0
    monkeypatch.setattr(fr.OmegaEvaluator, "_torus_sum",
                        lambda self, z, delta, power: None)
    ev = fr.OmegaEvaluator(twin_one, p, cp)
    assert fr.fredholm_det(twin_one, p, cp, mu, cp.M + gap,
                           evaluator=ev) <= 0.0
    e = fr.solve_eigenvalue(twin_one, p, cp, mu, evaluator=ev)
    assert abs(e - (cp.M + gap)) <= 1e-6 * gap


@pytest.mark.parametrize("ratio", [1e12, 1e14])
def test_eigenvalue_far_above_the_band(twin_one, cp_twin_one, ev_twin_one,
                                       ratio):
    # Omega(z) ~ 1e-11 there: the near-field closed form must not cancel,
    # or the level differences never meet the relative tolerance
    mu = ratio / ev_twin_one.threshold.value
    gap = mu * twin_one.phi_l2_norm_sq()
    e = fr.solve_eigenvalue(twin_one, P0, cp_twin_one, mu,
                            evaluator=ev_twin_one)
    assert abs(e - (cp_twin_one.M + gap)) <= 1e-6 * gap


def test_eigenvalue_monotone_in_mu(model_one, cp_one, ev_one, mu_one):
    es = [fr.solve_eigenvalue(model_one, P0, cp_one, r * mu_one,
                              evaluator=ev_one)
          for r in (1.5, 2.0, 3.0, 5.0, 8.0)]
    assert all(b > a for a, b in zip(es, es[1:]))


# -- eigenfunction --------------------------------------------------------


def test_eigenfunction_normalized_with_small_residual(model_one, cp_one,
                                                      ev_one, mu_one):
    mu = 2.0 * mu_one
    e = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    psi = fr.eigenfunction(model_one, P0, cp_one, mu, e, evaluator=ev_one)
    assert psi.normalization > 0.0
    assert norm_on_grid(psi) == pytest.approx(1.0, abs=1e-7)
    assert residual_sup(psi) <= 1e-8
    # pointwise: finite everywhere, peak near q0
    vals = psi(np.array([[np.pi, np.pi, np.pi], [0.0, 0.0, 0.0]]))
    assert np.all(np.isfinite(vals))
    assert vals[0] > vals[1]


def test_eigenfunction_norm_stable_under_grid_doubling(twin_one, cp_twin_one,
                                                       ev_twin_one):
    mu = 2.0 / ev_twin_one.threshold.value
    ev_a = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, fr.QuadratureSpec())
    ev_b = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, fr.QuadratureSpec(
        n_grid=128, n_radial=96, n_angular=52))
    e = fr.solve_eigenvalue(twin_one, P0, cp_twin_one, mu, evaluator=ev_a)
    ca = fr.eigenfunction(twin_one, P0, cp_twin_one, mu, e, evaluator=ev_a)
    cb = fr.eigenfunction(twin_one, P0, cp_twin_one, mu, e, evaluator=ev_b)
    assert abs(ca.normalization - cb.normalization) <= 1e-8 * ca.normalization


def test_eigenfunction_requires_energy_above_edge(model_one, cp_one, ev_one,
                                                  mu_one):
    with pytest.raises(fr.InvalidInputError):
        fr.eigenfunction(model_one, P0, cp_one, 2.0 * mu_one, cp_one.M,
                         evaluator=ev_one)
    with pytest.raises(fr.InvalidInputError):
        # energy far from the determinant root is rejected
        fr.eigenfunction(model_one, P0, cp_one, 2.0 * mu_one, cp_one.M + 9.0,
                         evaluator=ev_one)


SMALL_HOPPING = (2.3789261343218633e-08, 4.679952649926385e-07,
                 1.3428462062297157e-08)
SMALL_HOPPING_P = np.array([-0.26008189183144337, 2.927061045981604,
                            -3.0583721075498813])


def test_eigenfunction_gate_is_relative_to_the_root_tolerance():
    # at this small hopping E - M(p) is 1.9e-8 and the true root left
    # |det| = 1.27e-8, which the absolute gate |det| > 1e-8 refused; the
    # gate is now mu (bar of Omega(E) + S2(E) x brentq's tolerance) plus
    # rounding, which true roots meet with a margin and an energy halfway
    # to M(p) misses by orders of magnitude
    model = fr.two_particle_model(hopping=SMALL_HOPPING)
    p = SMALL_HOPPING_P
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    mu = 2.0 * fr.coupling_threshold(model, p, cp, evaluator=ev)
    energy = fr.solve_eigenvalue(model, p, cp, mu, evaluator=ev)
    assert abs(fr.fredholm_det(model, p, cp, mu, energy, evaluator=ev)) > 1e-8
    psi = fr.eigenfunction(model, p, cp, mu, energy, evaluator=ev)
    assert psi.normalization > 0.0
    with pytest.raises(fr.InvalidInputError,
                       match=r"^energy is not an eigenvalue: \|determinant\| "
                             r"= .* above .*, mu \(bar of Omega\(E\) \+ "
                             r"second moment x root tolerance\) plus "
                             r"rounding$"):
        fr.eigenfunction(model, p, cp, mu, cp.M + 0.5 * (energy - cp.M),
                         evaluator=ev)


def test_scaling_covariance_of_states(model_one, cp_one, ev_one, mu_one):
    # (phi, mu) -> (2 phi, mu/4) leaves E and |psi| unchanged
    mu = 2.0 * mu_one
    e1 = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    scaled = scaled_phi(model_one, 2.0)
    cp2 = fr.find_maximizer(scaled, P0)
    ev2 = fr.OmegaEvaluator(scaled, P0, cp2)
    e2 = fr.solve_eigenvalue(scaled, P0, cp2, mu / 4.0, evaluator=ev2)
    assert e2 == pytest.approx(e1, rel=1e-10)
    psi1 = fr.eigenfunction(model_one, P0, cp_one, mu, e1, evaluator=ev_one)
    psi2 = fr.eigenfunction(scaled, P0, cp2, mu / 4.0, e2, evaluator=ev2)
    rng = np.random.default_rng(53)
    qs = rng.uniform(-np.pi, np.pi, (20, 3))
    assert np.allclose(np.abs(psi1(qs)), np.abs(psi2(qs)), rtol=1e-9)


# -- classification -------------------------------------------------------


def test_classification_truth_table(model_one, cp_one, ev_one, mu_one,
                                    model_vanishing, cp_vanishing,
                                    ev_vanishing):
    r = fr.classify_threshold(model_one, P0, cp_one, mu_one, evaluator=ev_one)
    assert r.label is fr.Classification.RESONANCE
    assert 0.8 <= r.l2_growth_rate <= 1.2

    mu_v = fr.coupling_threshold(model_vanishing, P0, cp_vanishing,
                                 evaluator=ev_vanishing)
    rv = fr.classify_threshold(model_vanishing, P0, cp_vanishing, mu_v,
                               evaluator=ev_vanishing)
    assert rv.label is fr.Classification.THRESHOLD_EIGENVALUE
    assert rv.l2_growth_rate <= 0.1

    rl = fr.classify_threshold(model_one, P0, cp_one, 0.5 * mu_one,
                               evaluator=ev_one)
    assert rl.label is fr.Classification.REGULAR and rl.l2_growth_rate is None

    rh = fr.classify_threshold(model_one, P0, cp_one, 2.0 * mu_one,
                               evaluator=ev_one)
    assert rh.label is fr.Classification.BOUND_STATE


def test_classification_trichotomy(model_one, cp_one, ev_one, mu_one):
    labels = set()
    for ratio in (0.3, 0.9, 1.0, 1.1, 3.0):
        r = fr.classify_threshold(model_one, P0, cp_one, ratio * mu_one,
                                  evaluator=ev_one)
        assert isinstance(r.label, fr.Classification)
        labels.add(r.label)
    assert labels == {fr.Classification.REGULAR, fr.Classification.RESONANCE,
                      fr.Classification.BOUND_STATE}


# -- edge expansion -------------------------------------------------------


def test_expansion_fit_recovers_closed_form(model_one, cp_one, ev_one):
    fit = fr.expansion_fit(model_one, P0, cp_one, evaluator=ev_one)
    assert fit.tau0_closed == pytest.approx(1.0, abs=1e-12)
    assert 0.99 <= fit.tau0_fit <= 1.01
    assert fit.rel_residual <= 1e-3


def test_expansion_sqrt_term_collapses_when_phi_vanishes(model_vanishing,
                                                         cp_vanishing,
                                                         ev_vanishing):
    fit = fr.expansion_fit(model_vanishing, P0, cp_vanishing,
                           evaluator=ev_vanishing)
    assert fit.tau0_closed == pytest.approx(0.0, abs=1e-12)
    assert fit.sqrt_term_fraction <= 1e-3


def test_expansion_tau0_scales_with_phi(model_one, cp_one):
    doubled = scaled_phi(model_one, 2.0)
    cp2 = fr.find_maximizer(doubled, P0)
    t1 = fr.tau0_closed_form(model_one, cp_one)
    t2 = fr.tau0_closed_form(doubled, cp2)
    assert t2 == pytest.approx(4.0 * t1, rel=1e-12)
    fit = fr.expansion_fit(doubled, P0, cp2)
    assert fit.tau0_fit == pytest.approx(t2, rel=1e-2)


def test_expansion_fit_at_nonzero_momentum(model_one):
    p = np.array([0.5, -0.3, 0.2])
    cp = fr.find_maximizer(model_one, p)
    fit = fr.expansion_fit(model_one, p, cp)
    assert fit.tau0_fit == pytest.approx(fit.tau0_closed, rel=1e-2)


@pytest.mark.parametrize("c", [1e-8, 1e-5, 1e-4, 1e4, 1e8])
def test_edge_samples_scale_with_the_hopping(c):
    # hopping c scales every energy by c, and the edge offsets scale with
    # the curvature: tau0 (~ c^-1.5) and the growth exponent follow
    # exactly.  An absolute window raised at c = 1e-8, 1e-5 and 1e-4, and
    # drifted by 6.6e-5 at 1e8
    p = np.array([0.7, -0.3, 1.1])
    got = []
    for hop in (1.0, c):
        model = fr.two_particle_model(hopping=(hop,) * 3)
        cp = fr.find_maximizer(model, p)
        ev = fr.OmegaEvaluator(model, p, cp)
        fit = fr.expansion_fit(model, p, cp, evaluator=ev)
        mu_p = fr.coupling_threshold(model, p, cp, evaluator=ev)
        rate = fr.classify_threshold(model, p, cp, mu_p,
                                     evaluator=ev).l2_growth_rate
        got.append((fit.tau0_fit * hop ** 1.5, rate))
    assert np.max(np.abs(np.subtract(got[1], got[0]))) <= 1e-11, got


def test_off_axis_fit_at_curvature_scaled_offsets():
    # fresh_fibers seed 12, op 134: the absolute window failed the residual
    # gate here; the curvature-scaled offsets answer within 1 %
    model = model_kinds()["off_axis"]
    p = np.array([2.65504105, 2.73523937, -2.71744118])
    cp = fr.find_maximizer(model, p)
    fit = fr.expansion_fit(model, p, cp)
    assert abs(fit.tau0_fit - fit.tau0_closed) <= 1e-2 * max(
        abs(fit.tau0_closed), 1.0)


@pytest.mark.parametrize("kind", ["one", "off_axis"])
def test_fit_and_classification_share_one_sample_set(kind, reductions):
    # the growth exponent at mu(p) reads the fit's samples: after the fit
    # it reduces nothing, and before it the fit reduces nothing
    p = np.array([0.7, -0.3, 1.1])
    model = model_kinds()[kind]
    cp = fr.find_maximizer(model, p)
    for fit_first in (True, False):
        ev = fr.OmegaEvaluator(model, p, cp)
        mu_p = fr.coupling_threshold(model, p, cp, evaluator=ev)
        calls = [(fr.expansion_fit, ()), (fr.classify_threshold, (mu_p,))]
        del reductions[:]
        for call, args in calls if fit_first else calls[::-1]:
            call(model, p, cp, *args, evaluator=ev)
            assert len(reductions) == FIT_POINTS, call.__name__


@pytest.mark.filterwarnings("error")
def test_subnormal_threshold_refused_naming_mu():
    # Omega(p) = 5.96e-319 here: 1 / Omega(p) overflowed with a numpy
    # RuntimeWarning, and the CLI refused the infinity only when it wrote
    model = fr.two_particle_model(phi={"constant": 1e-160})
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)
    with pytest.raises(fr.QuadratureError, match=r"mu\(p\) = 1 / Omega\(p\)"):
        fr.coupling_threshold(model, p, cp)


# -- report ---------------------------------------------------------------


def test_analyze_report_fields(model_one, cp_one, ev_one, mu_one):
    rep = fr.analyze(model_one, P0, cp_one, 2.0 * mu_one, evaluator=ev_one,
                     with_expansion=True)
    d = json.loads(_json(dataclasses.asdict(rep)))
    for key in ("mu_threshold", "E", "delta_at_threshold", "classification",
                "tau0_fit", "tau0_closed"):
        assert key in d
    assert d["classification"] == "BoundState"
    assert d["E"] > cp_one.M
    assert d["delta_at_threshold"] == pytest.approx(-1.0, abs=1e-9)
    assert d["eigenfunction_norm"] > 0.0

    rep_low = fr.analyze(model_one, P0, cp_one, 0.5 * mu_one,
                         evaluator=ev_one)
    assert rep_low.E is None
    assert rep_low.classification is fr.Classification.REGULAR
    assert json.loads(_json(dataclasses.asdict(rep_low)))["E"] is None


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_coupling_rejected(model_one, cp_one, ev_one, mu_one, mu):
    # an energy that solves the determinant at 2 mu(p): only mu is wrong
    energy = fr.solve_eigenvalue(model_one, P0, cp_one, 2.0 * mu_one,
                                 evaluator=ev_one)
    for call in (
            lambda: fr.solve_eigenvalue(model_one, P0, cp_one, mu,
                                        evaluator=ev_one),
            lambda: fr.secular_root(model_one, P0, mu, 16),
            lambda: fr.classify_threshold(model_one, P0, cp_one, mu,
                                          evaluator=ev_one),
            lambda: fr.eigenfunction(model_one, P0, cp_one, mu, energy,
                                     evaluator=ev_one)):
        with pytest.raises(fr.InvalidInputError,
                           match="is not positive and finite"):
            call()


@pytest.mark.parametrize("mu, error", [
    (1e114, None), (1e160, fr.QuadratureError), (1e200, fr.QuadratureError),
    (1e306, fr.BracketingError)])
def test_huge_coupling_answered_or_refused(model_one, cp_one, ev_one, mu,
                                           error):
    # from 1e114 x^k of the route's head moment overflowed, from 1e160 the
    # second moment underflows and from 3.6e305 the bracket overflows
    try:
        report = fr.analyze(model_one, P0, cp_one, mu, evaluator=ev_one)
    except fr.FriedrichsError as exc:
        assert type(exc) is error and "nan" not in str(exc)
        assert error is not fr.BracketingError or "mu = %r" % mu in str(exc)
        return
    assert error is None
    assert np.isfinite(report.E) and np.isfinite(report.eigenfunction_norm)
    assert report.E / (mu * model_one.phi_l2_norm_sq()) == pytest.approx(
        1.0, rel=1e-12)


def test_solved_evaluator_freed_without_cycle_collection(twin_one,
                                                         cp_twin_one,
                                                         ev_twin_one):
    mu = 2.0 / ev_twin_one.threshold.value
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-4)
    gc.collect()
    gc.disable()
    try:
        ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec)
        ref = weakref.ref(ev)
        energy = fr.solve_eigenvalue(twin_one, P0, cp_twin_one, mu,
                                     evaluator=ev)
        assert energy is not None
        del ev
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("fibre", ["one", "twin_one"])
def test_expansion_window_below_the_bars_refused(request, monkeypatch, fibre):
    # Omega(M) - Omega(M + d) is 0.0 in floating point for d <= 1e-299: a
    # fit of those zeros once returned tau0_fit = 0 against tau0 = 1.  A
    # fresh evaluator: the shared ones keep the samples of FIT_WINDOW
    monkeypatch.setattr("friedrichs.quadrature.FIT_WINDOW", (1e-300, 1e-299))
    model = request.getfixturevalue("model_one" if fibre == "one"
                                    else "twin_one")
    cp = request.getfixturevalue("cp_" + fibre)
    with pytest.raises(fr.ExpansionFitError, match="within their bars"):
        fr.expansion_fit(model, P0, cp)


@pytest.mark.filterwarnings("error")
def test_huge_coupling_on_the_twin_refused_without_a_warning(
        twin_one, cp_twin_one, ev_twin_one):
    # the power-2 reduction squares z - w ~ 2.5e162 past the float range
    with pytest.raises(fr.QuadratureError, match="second moment underflows"):
        fr.analyze(twin_one, P0, cp_twin_one, 1e160, evaluator=ev_twin_one)


def test_analyze_evaluates_the_threshold_at_most_twice(twin_one,
                                                       threshold_evaluations):
    # the cache fill, plus brentq's call at the bracket end z = M(p)
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(twin_one, p)
    ev = fr.OmegaEvaluator(twin_one, p, cp)
    mu = 2.0 * fr.coupling_threshold(twin_one, p, cp, evaluator=ev)
    rep = fr.analyze(twin_one, p, cp, mu, evaluator=ev, with_expansion=True)
    assert rep.classification is fr.Classification.BOUND_STATE
    assert len(threshold_evaluations) <= 2


@pytest.mark.parametrize("p", [P0, np.array([0.7, -0.3, 1.1])])
@pytest.mark.parametrize("eps", [2e-9, 1e-8])
def test_root_within_the_tolerance_of_the_band_edge_refused(model_one, p,
                                                           eps):
    # mu/mu(p) - 1 just outside MU_REL_TOL: E - M(p), about 1e-15, lies
    # below brentq's tolerance, which returned M(p) itself as the root
    cp = fr.find_maximizer(model_one, p)
    ev = fr.OmegaEvaluator(model_one, p, cp)
    mu_p = fr.coupling_threshold(model_one, p, cp, evaluator=ev)
    mu = (1.0 + eps) * mu_p
    with pytest.raises(fr.BracketingError) as info:
        fr.solve_eigenvalue(model_one, p, cp, mu, evaluator=ev)
    assert str(info.value) == (
        "mu/mu(p) - 1 = %.3g: the bound state lies within the root "
        "tolerance of M(p)" % (mu / mu_p - 1.0))


def test_vanishing_phi_answers_just_above_its_threshold(
        model_vanishing, cp_vanishing, ev_vanishing):
    # at phi(q0) = 0 the root leaves M(p) linearly: E - M = 6 eps
    mu = (1.0 + 2e-9) * fr.coupling_threshold(
        model_vanishing, P0, cp_vanishing, evaluator=ev_vanishing)
    energy = fr.solve_eigenvalue(model_vanishing, P0, cp_vanishing, mu,
                                 evaluator=ev_vanishing)
    assert energy - cp_vanishing.M == pytest.approx(1.2e-8, rel=1e-3)


def test_root_reads_the_cached_threshold_at_the_bracket_end(
        twin_one, threshold_evaluations):
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(twin_one, p)
    ev = fr.OmegaEvaluator(twin_one, p, cp)
    mu_p = 1.0 / ev.threshold.value
    threshold_evaluations.clear()
    energy = fr.solve_eigenvalue(twin_one, p, cp, 2.0 * mu_p, evaluator=ev)
    assert energy > cp.M
    assert threshold_evaluations == []


def test_evaluator_of_another_fibre_rejected(model_one, model_vanishing,
                                             cp_one, ev_one, mu_one):
    p = np.array([0.7, -0.3, 1.1])
    fibres = {
        "model": (model_vanishing, P0, cp_one),
        "cp": (model_one, P0, fr.find_maximizer(model_one, P0)),
        "p": (model_one, p, cp_one),
    }
    for name, (model, p, cp) in fibres.items():
        with pytest.raises(fr.InvalidInputError, match="its %s is" % name):
            fr.solve_eigenvalue(model, p, cp, 2.0 * mu_one, evaluator=ev_one)
