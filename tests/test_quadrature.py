import re

import mpmath
import numpy as np
import pytest

import friedrichs as fr
from friedrichs.quadrature import _radial_closed_form, bump_profile

P0 = np.zeros(3)

# Independent Bessel-integral reference for the builtin phi = 1 model at
# p = 0 (see conftest.bessel_omega), frozen for the regression guard.
OMEGA_THRESHOLD_REF = 62.68998093941696


def test_dominated_high_energy_limit(model_one, cp_one, ev_one):
    z = 1.0e6
    val = ev_one.evaluate(z).value
    ref = (2.0 * np.pi) ** 3 / z
    assert abs(val - ref) <= 2e-5 * ref


def test_threshold_value_against_bessel_reference(ev_one, cp_one, bessel_ref):
    got = ev_one.evaluate(cp_one.M)
    ref = bessel_ref(0.0)
    assert ref == pytest.approx(OMEGA_THRESHOLD_REF, abs=1e-9)
    assert got.value == pytest.approx(ref, rel=1e-6)
    assert got.estimated_error <= 1e-4 * got.value
    assert got.value == pytest.approx(got.near_field + got.far_field, rel=1e-14)


def test_values_off_threshold_against_bessel_reference(ev_one, cp_one,
                                                       bessel_ref):
    for delta in (1e-4, 1e-2, 1.0):
        got = ev_one.evaluate(cp_one.M + delta).value
        assert got == pytest.approx(bessel_ref(delta), rel=1e-6)


def test_omega_monotone_decreasing_in_z(ev_one, cp_one):
    zs = cp_one.M + np.array([0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0])
    vals = [ev_one.evaluate(z).value for z in zs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_scaling_in_phi(model_one, cp_one, ev_one):
    doubled = model_one.scaled_phi(2.0)
    cp2 = fr.find_maximizer(doubled, P0)
    v1 = fr.OmegaEvaluator(model_one, P0, cp_one).threshold
    v2 = fr.OmegaEvaluator(doubled, P0, cp2).threshold
    assert v2.value == pytest.approx(4.0 * v1.value, rel=1e-13)


def test_positivity(model_vanishing, cp_vanishing):
    v = fr.OmegaEvaluator(model_vanishing, P0, cp_vanishing).threshold
    assert v.value > 0.0


def test_below_threshold_rejected(model_one, cp_one, ev_one):
    with pytest.raises(fr.BelowThresholdError):
        ev_one.evaluate(cp_one.M - 1e-6)


def test_split_radius_robustness(model_one, cp_one):
    # changing rho by x1.5 moves the value by less than 5x the reported
    # refinement estimate
    a = fr.OmegaEvaluator(model_one, P0, cp_one,
                          fr.QuadratureSpec(rho=0.6)).threshold
    b = fr.OmegaEvaluator(model_one, P0, cp_one,
                          fr.QuadratureSpec(rho=0.9)).threshold
    assert abs(a.value - b.value) <= 5.0 * max(a.estimated_error,
                                               b.estimated_error)


def test_refinement_convergence_order(model_one, cp_one):
    # single-level values against a finer reference: error drops
    # monotonically under doubling with observed order >= 2
    ref_ev = fr.OmegaEvaluator(model_one, P0, cp_one,
                               fr.QuadratureSpec(n_grid=256, n_radial=96,
                                                 n_angular=40))
    ref = ref_ev.value_at_level(cp_one.M, 0)[0]
    errs = []
    for n_grid, n_rad, n_ang in ((16, 12, 7), (32, 24, 13), (64, 48, 26)):
        ev = fr.OmegaEvaluator(model_one, P0, cp_one,
                               fr.QuadratureSpec(n_grid=n_grid,
                                                 n_radial=n_rad,
                                                 n_angular=n_ang))
        errs.append(abs(ev.value_at_level(cp_one.M, 0)[0] - ref))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 2.0)


def test_not_converged_raises(model_one, cp_one):
    spec = fr.QuadratureSpec(n_grid=16, n_radial=6, n_angular=6,
                             rel_tol=1e-15)
    with pytest.raises(fr.QuadratureNotConvergedError):
        fr.OmegaEvaluator(model_one, P0, cp_one, spec).threshold


def test_momentum_reflection_symmetry(model_one):
    p = np.array([0.4, -0.3, 0.8])
    va = fr.OmegaEvaluator(model_one, p,
                           fr.find_maximizer(model_one, p)).threshold
    vb = fr.OmegaEvaluator(model_one, -p,
                           fr.find_maximizer(model_one, -p)).threshold
    assert va.value == pytest.approx(vb.value, rel=1e-10)


def test_omega_at_nonzero_momentum_against_bessel(model_one, bessel_ref):
    p = np.array([0.9, 0.2, -0.5])
    cp = fr.find_maximizer(model_one, p)
    got = fr.OmegaEvaluator(model_one, p, cp).threshold.value
    assert got == pytest.approx(bessel_ref(0.0, p=p), rel=1e-6)


def _radial_integral(delta, k, rho, power):
    """int_0^rho r^2 / (delta + k r^2)^power dr at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.quad(
            lambda r: r * r / (delta + k * r * r) ** power, [0, rho]))


@pytest.mark.parametrize("power", [1, 2])
def test_radial_closed_form_far_above_the_band(power):
    # delta >> k rho^2: the closed forms lose about 3 eps delta / (k rho^2)
    # relative (1.6e-3 at 4e12), the series taken below SERIES_X does not
    rho = 0.9
    k = np.array([1e-3, 0.37, 1.0, 2.5])
    for ratio in 10.0 ** np.arange(2, 15):
        for kk in k:
            delta = ratio * kk * rho * rho
            got = _radial_closed_form(delta, k, rho, power)[k == kk][0]
            ref = _radial_integral(delta, kk, rho, power)
            assert abs(got - ref) <= 1e-13 * ref, (ratio, kk)


def test_bump_profile_shape():
    t = np.linspace(0.0, 1.3, 200)
    b = bump_profile(t)
    assert np.all(b[t <= 0.5] == 1.0)
    assert np.all(b[t >= 1.0] == 0.0)
    assert np.all(np.diff(b) <= 1e-12)


def test_state_norm_diagnostics_off_threshold(cp_one, ev_one):
    d = fr.state_norm_diagnostics(ev_one, cp_one.M + 1.0)
    assert d.l2_growth_rate <= 0.1
    assert np.isfinite(d.l1) and np.isfinite(d.l2)


def test_state_norm_diagnostics_resonance(cp_one, ev_one):
    d = fr.state_norm_diagnostics(ev_one, cp_one.M)
    # |f|^2 ~ 1/r^4 near q0: excluded-ball L2 mass grows like 1/rho
    assert 0.8 <= d.l2_growth_rate <= 1.2
    assert np.isfinite(d.l1)
    assert np.all(np.diff(d.l2_outside) > 0.0)


def test_state_norm_diagnostics_square_integrable(cp_vanishing,
                                                  ev_vanishing):
    d = fr.state_norm_diagnostics(ev_vanishing, cp_vanishing.M)
    assert d.l2_growth_rate <= 0.1
    assert np.isfinite(d.l2)


def test_spec_validation():
    with pytest.raises(fr.QuadratureError):
        fr.QuadratureSpec(n_grid=8)
    with pytest.raises(fr.QuadratureError):
        fr.QuadratureSpec(rho=2.0)


def test_not_converged_message_states_the_last_estimate(model_one, cp_one):
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-15)
    ev = fr.OmegaEvaluator(model_one, P0, cp_one, spec)
    z = cp_one.M + 0.1
    cases = ((ev.evaluate, ev.value_at_level),
             (ev.second_moment, lambda z, level: ev._sums(z, level, 2)))
    for call, at_level in cases:
        _, near1, far1 = at_level(z, 1)
        _, near2, far2 = at_level(z, 2)
        est = abs(near2 - near1) + abs(far2 - far1)
        assert est > 0.0
        with pytest.raises(fr.QuadratureNotConvergedError,
                           match=re.escape("estimate %.3e above" % est)):
            call(z)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_rel_tol_outside_open_interval_rejected(rel_tol):
    with pytest.raises(fr.QuadratureError, match="rel_tol"):
        fr.QuadratureSpec(rel_tol=rel_tol)


def test_not_converged_message_states_the_absolute_bound(model_one, cp_one):
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-15)
    ev = fr.OmegaEvaluator(model_one, P0, cp_one, spec)
    z = cp_one.M + 0.1
    value = abs(ev.value_at_level(z, 2)[0])
    bound = "above %.3e (rel_tol 1.0e-15 x |value| %.3e)" % (1e-15 * value,
                                                             value)
    with pytest.raises(fr.QuadratureNotConvergedError,
                       match=re.escape(bound)):
        ev.evaluate(z)


def test_threshold_is_evaluated_once(model_one, cp_one,
                                     threshold_evaluations):
    ev = fr.OmegaEvaluator(model_one, P0, cp_one)
    first = ev.threshold
    assert ev.threshold is first
    assert first == ev.evaluate(cp_one.M)
    assert len(threshold_evaluations) == 2  # the fill and the direct call


@pytest.mark.parametrize("p", [(-0.488, -2.665, -0.192),
                               (0.798, -1.117, -2.749)])
def test_error_bar_bounds_the_error(model_one, bessel_ref, p):
    # the level-1 far field overshoots while the totals of levels 0 and 1
    # agree by chance: the change of the total alone understates the error
    p = np.array(p)
    got = fr.OmegaEvaluator(model_one, p,
                            fr.find_maximizer(model_one, p)).threshold
    assert abs(got.value - bessel_ref(0.0, p=p)) <= got.estimated_error
