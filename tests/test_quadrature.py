import dataclasses
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from conftest import (mixed_model, model_kinds, mp_laplace_omega,
                      quadrature_twin, scaled_phi)
from friedrichs import quadrature
from friedrichs.laplace import ROUNDING
from friedrichs.quadrature import (
    FIT_POINTS,
    FIT_WINDOW,
    MAX_CONTRACTION,
    MAX_LEVEL_BYTES,
    SUM_GRIDS,
    _radial_closed_form,
    bump_profile,
)

P0 = np.zeros(3)

# Independent Bessel-integral reference for the builtin phi = 1 model at
# p = 0 (see conftest.bessel_omega), frozen for the regression guard; the
# mpmath Laplace-Bessel value (conftest.mp_laplace_omega) at 17 digits.
OMEGA_THRESHOLD_REF = 62.68998093895429


@pytest.mark.parametrize("backend", ["route", "twin"])
@pytest.mark.parametrize("z", [float("nan"), float("inf")])
def test_non_finite_z_rejected(request, backend, z):
    ev = request.getfixturevalue({"route": "ev_one",
                                  "twin": "ev_twin_one"}[backend])
    for call in (ev.evaluate, ev.second_moment):
        with pytest.raises(fr.InvalidInputError,
                           match=r"^z = %s is not finite$" % z):
            call(z)
    with pytest.raises(fr.BelowThresholdError):
        ev.evaluate(-float("inf"))


def test_dominated_high_energy_limit(ev_twin_one):
    z = 1.0e6
    val = ev_twin_one.evaluate(z).value
    ref = (2.0 * np.pi) ** 3 / z
    assert abs(val - ref) <= 2e-5 * ref


def test_threshold_value_against_bessel_reference(ev_twin_one, cp_twin_one,
                                                  bessel_ref):
    got = ev_twin_one.evaluate(cp_twin_one.M)
    ref = bessel_ref(0.0)
    assert ref == pytest.approx(OMEGA_THRESHOLD_REF, rel=1e-13)
    assert got.value == pytest.approx(ref, rel=1e-6)
    assert got.estimated_error <= 1e-4 * got.value
    # the level that answered is the one of the value's far-field grid
    level = (got.n_grid // ev_twin_one.spec.n_grid).bit_length() - 1
    total, near, far = ev_twin_one.value_at_level(cp_twin_one.M, level)
    assert got.value == total
    assert total == pytest.approx(near + far, rel=1e-14)


def test_values_off_threshold_against_bessel_reference(ev_twin_one,
                                                       cp_twin_one,
                                                       bessel_ref):
    for delta in (1e-4, 1e-2, 1.0):
        got = ev_twin_one.evaluate(cp_twin_one.M + delta).value
        assert got == pytest.approx(bessel_ref(delta), rel=1e-6)


def test_omega_monotone_decreasing_in_z(ev_twin_one, cp_twin_one):
    zs = cp_twin_one.M + np.array([0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0])
    vals = [ev_twin_one.evaluate(z).value for z in zs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_scaling_in_phi(twin_one, cp_twin_one):
    doubled = scaled_phi(twin_one, 2.0)
    cp2 = fr.find_maximizer(doubled, P0)
    v1 = fr.OmegaEvaluator(twin_one, P0, cp_twin_one).threshold
    v2 = fr.OmegaEvaluator(doubled, P0, cp2).threshold
    assert v2.value == pytest.approx(4.0 * v1.value, rel=1e-13)


def test_positivity(twin_vanishing, cp_twin_vanishing):
    v = fr.OmegaEvaluator(twin_vanishing, P0, cp_twin_vanishing).threshold
    assert v.value > 0.0


def test_below_threshold_rejected(cp_twin_one, ev_twin_one):
    with pytest.raises(fr.BelowThresholdError):
        ev_twin_one.evaluate(cp_twin_one.M - 1e-6)


def test_split_radius_robustness(monkeypatch, twin_one, cp_twin_one):
    # changing the ball radius RHO_CAP by x1.5 moves the value by less than
    # 5x the reported refinement estimate
    values = []
    for rho in (0.6, 0.9):
        monkeypatch.setattr(quadrature, "RHO_CAP", rho)
        values.append(fr.OmegaEvaluator(twin_one, P0, cp_twin_one).threshold)
    a, b = values
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


def test_not_converged_raises(twin_one, cp_twin_one):
    spec = fr.QuadratureSpec(n_grid=16, n_radial=6, n_angular=6,
                             rel_tol=1e-15)
    with pytest.raises(fr.QuadratureNotConvergedError):
        fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec).threshold


def test_momentum_reflection_symmetry(twin_one):
    p = np.array([0.4, -0.3, 0.8])
    va = fr.OmegaEvaluator(twin_one, p,
                           fr.find_maximizer(twin_one, p)).threshold
    vb = fr.OmegaEvaluator(twin_one, -p,
                           fr.find_maximizer(twin_one, -p)).threshold
    assert va.value == pytest.approx(vb.value, rel=1e-10)


def test_omega_at_nonzero_momentum_against_bessel(twin_one, bessel_ref):
    p = np.array([0.9, 0.2, -0.5])
    cp = fr.find_maximizer(twin_one, p)
    got = fr.OmegaEvaluator(twin_one, p, cp).threshold.value
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


def _offsets(ev):
    """The edge offsets d_j = k x (log-spaced over FIT_WINDOW), k the
    largest eigenvalue of -A/2."""
    k = -0.5 * ev.cp.hessian_eigenvalues[0]
    return k * np.logspace(np.log10(FIT_WINDOW[0]), np.log10(FIT_WINDOW[1]),
                           FIT_POINTS)


def _ladder(ev):
    """The mean second moments (Omega(p) - Omega(p; M(p) + d_j)) / d_j
    that state_norm_diagnostics fits, from the fibre's edge samples."""
    deltas, data, _ = ev.edge_samples
    assert np.array_equal(deltas, _offsets(ev))
    return data / deltas


def test_state_norm_diagnostics_resonance(ev_one):
    rate = fr.state_norm_diagnostics(ev_one)
    moments = _ladder(ev_one)
    # |f|^2 ~ 1/r^4 near q0: the mean second moment over [M, M + k r^2]
    # grows like 1/r, as the L2 mass outside the ball of radius r does; the
    # offsets d = k r^2 increase, so the moments decrease
    assert 0.8 <= rate <= 1.2
    assert np.all(np.isfinite(moments))
    assert np.all(np.diff(moments) < 0.0)


def test_state_norm_diagnostics_square_integrable(ev_vanishing):
    assert fr.state_norm_diagnostics(ev_vanishing) <= 0.1
    assert np.all(np.isfinite(_ladder(ev_vanishing)))


@pytest.mark.parametrize("p", [P0, np.array([0.7, -0.3, 1.1])])
@pytest.mark.parametrize("kind", ["one", "vanishing"])
def test_state_norm_exponent_route_equals_twin(kind, p):
    # the Laplace-Bessel route and the split quadrature of the same fibre;
    # (0.7, -0.3, 1.1) is a crossover fibre of the vanishing phi
    model = model_kinds()[kind]
    rates = []
    for m in (model, quadrature_twin(model)):
        cp = fr.find_maximizer(m, p)
        ev = fr.OmegaEvaluator(m, p, cp)
        rates.append(fr.state_norm_diagnostics(ev))
    assert abs(rates[0] - rates[1]) <= 1e-6, rates


def test_state_norm_moments_within_their_bars(model_one, cp_one, ev_one):
    # truth from the mpmath Laplace-Bessel integral: the quad-based Bessel
    # reference is 3e-10 off at the threshold, which would exceed the bars
    # of the moments a hundredfold
    moments = _ladder(ev_one)
    bar0 = ev_one.evaluate(cp_one.M).estimated_error
    truth0 = mp_laplace_omega(model_one, P0, 0.0, dps=17)
    for delta, moment in zip(_offsets(ev_one), moments):
        truth = (truth0
                 - mp_laplace_omega(model_one, P0, delta, dps=17)) / delta
        bar = (bar0
               + ev_one.evaluate(cp_one.M + delta).estimated_error) / delta
        assert abs(moment - truth) <= bar, (delta, moment, truth, bar)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("dz", [1e117, 1e200])
def test_state_norm_diagnostics_refuse_vanishing_moments(twin, dz,
                                                         monkeypatch):
    # edge offsets dz times finer than k are lost next to M, so M + d_j
    # is M and the Omega differences are 0.0, whose log-log slope would be
    # nan; the route and the twin raise a typed error, and so does the
    # classification that reads the exponent
    monkeypatch.setattr("friedrichs.quadrature.FIT_WINDOW",
                        (1.0 / dz, 10.0 / dz))
    model = model_kinds()["one"]
    if twin:
        model = quadrature_twin(model)
    cp = fr.find_maximizer(model, P0)
    ev = fr.OmegaEvaluator(model, P0, cp)
    with pytest.raises(fr.QuadratureError, match=re.escape(
            "state norm diagnostics undefined: moments [0.0")):
        fr.state_norm_diagnostics(ev)
    with pytest.raises(fr.QuadratureError, match="not positive and finite"):
        fr.classify_threshold(model, P0, cp, 1.0 / ev.threshold.value,
                              evaluator=ev)


def test_state_norm_diagnostics_builds_no_level():
    # fresh_fibers seed 1, op 20: a ladder of second moments at the same
    # offsets builds level 2 here; the Omega differences answer on the
    # levels the threshold built
    model = model_kinds()["off_axis"]
    p = np.array([-1.26532902, -2.76028576, 0.81603702])
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    ev.threshold
    built = len(ev._levels)
    rate = fr.state_norm_diagnostics(ev)
    assert len(ev._levels) == built
    assert 0.8 <= rate <= 1.2


@pytest.mark.parametrize("p", [P0, np.array([0.7, -0.3, 1.1])])
def test_classification_exponent_ignores_rho_on_the_route(monkeypatch,
                                                         model_one, p):
    # the ball radius RHO_CAP and n_grid shape only the split quadrature:
    # the edge offsets follow the curvature alone
    cp = fr.find_maximizer(model_one, p)
    rates = []
    for rho, spec in ((1.0, fr.QuadratureSpec()),
                      (0.5, fr.QuadratureSpec(n_grid=32))):
        monkeypatch.setattr(quadrature, "RHO_CAP", rho)
        ev = fr.OmegaEvaluator(model_one, p, cp, spec)
        rates.append(fr.classify_threshold(
            model_one, p, cp, 1.0 / ev.threshold.value,
            evaluator=ev).l2_growth_rate)
    assert rates[0] == rates[1]


def test_route_fibre_builds_no_level(model_vanishing):
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model_vanishing, p)
    ev = fr.OmegaEvaluator(model_vanishing, p, cp)
    mu_p = fr.coupling_threshold(model_vanishing, p, cp, evaluator=ev)
    report = fr.analyze(model_vanishing, p, cp, 2.0 * mu_p, evaluator=ev,
                        with_expansion=True)
    assert report.E > cp.M and report.tau0_fit is not None
    cls = fr.classify_threshold(model_vanishing, p, cp, mu_p, evaluator=ev)
    assert cls.label is fr.Classification.RESONANCE
    assert np.isfinite(cls.l2_growth_rate)
    assert ev._levels == []


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(kind=st.sampled_from(["off_axis", "twin"]),
       sign=st.sampled_from([-1.0, 1.0]), log_gap=st.floats(-9.0, -1.0),
       p23=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2))
def test_certified_fibre_keeps_the_capped_ball_below_the_edge(kind, sign,
                                                              log_gap, p23):
    # on a certified maximum near the zone edge the default ball, of radius
    # RHO_CAP, stays below the band edge: _build_level's guard does not fire
    model = (model_kinds()["off_axis"] if kind == "off_axis"
             else quadrature_twin(fr.two_particle_model()))
    p = np.array([sign * (np.pi - 10.0 ** log_gap)] + p23)
    try:
        cp = fr.find_maximizer(model, p)
    except fr.ModelValidityError:
        return
    ev = fr.OmegaEvaluator(model, p, cp, fr.QuadratureSpec(n_grid=16))
    ev._build_level(0)


def test_ball_above_a_wrong_band_edge_names_it():
    # an M(p) below the maximum of w_p puts nodes of the ball above it: the
    # refusal says so, names M(p) and the radius, and gives no advice
    model = model_kinds()["off_axis"]
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)
    low = dataclasses.replace(cp, M=cp.M - 0.05)
    ev = fr.OmegaEvaluator(model, p, low, fr.QuadratureSpec(n_grid=16))
    with pytest.raises(fr.QuadratureError) as info:
        ev.threshold
    text = str(info.value)
    assert text.startswith("the near-field ball of radius 1.000 about q0 "
                           "has nodes where w_p - M(p) reaches 0.05")
    assert "(M(p) = %.12g): M(p) is not the maximum of w_p" % low.M in text
    assert "rho" not in text


@pytest.mark.parametrize("n_grid, level", [(10 ** 6, 0), (512, 0),
                                           (256, 1), (128, 2)])
def test_oversized_level_refused_before_allocation(twin_one, cp_twin_one,
                                                   n_grid, level):
    # the level's node arrays would exceed MAX_LEVEL_BYTES: refused before
    # any is allocated (tracemalloc sees less than a MiB)
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one,
                           fr.QuadratureSpec(n_grid=n_grid))
    tracemalloc.start()
    try:
        with pytest.raises(fr.QuadratureError,
                           match=r"^level %d would keep .* MiB of nodes "
                                 r"\(n_grid %d\), above the %d MiB bound"
                                 % (level, n_grid * 2 ** level,
                                    MAX_LEVEL_BYTES >> 20)):
            if level == 0:
                ev.threshold
            else:
                ev._build_level(level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_spec_validation():
    with pytest.raises(fr.QuadratureError):
        fr.QuadratureSpec(n_grid=8)


def test_not_converged_message_states_the_last_estimate(twin_one,
                                                        cp_twin_one):
    # rel_tol = 1e-15 lies beyond what the one doubling left can reach, so
    # the refinement stops at level 1 and states the estimate of levels 0, 1
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-15)
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec)
    z = cp_twin_one.M + 0.1
    cases = ((ev.evaluate, ev.value_at_level),
             (ev.second_moment, lambda z, level: ev._sums(z, level, 2)))
    for call, at_level in cases:
        _, near0, far0 = at_level(z, 0)
        _, near1, far1 = at_level(z, 1)
        est = abs(near1 - near0) + abs(far1 - far0)
        assert est > 0.0
        with pytest.raises(fr.QuadratureNotConvergedError,
                           match=re.escape("estimate %.3e above" % est)):
            call(z)
    assert len(ev._levels) == 2


def test_not_converged_message_at_the_last_level(twin_one, cp_twin_one):
    # rel_tol = 1e-5: both level-1 estimates lie within MAX_CONTRACTION of
    # their bounds, so level 2 is built, and its estimate misses the bound
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-5)
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec)
    z = cp_twin_one.M + 0.1
    cases = ((ev.evaluate, ev.value_at_level),
             (ev.second_moment, lambda z, level: ev._sums(z, level, 2)))
    for call, at_level in cases:
        (v0, n0, f0), (v1, n1, f1), (v2, n2, f2) = (at_level(z, level)
                                                    for level in range(3))
        est1 = abs(n1 - n0) + abs(f1 - f0)
        est2 = abs(n2 - n1) + abs(f2 - f1)
        assert 1e-5 * abs(v1) < est1 <= 1e-5 * abs(v1) * MAX_CONTRACTION
        message = ("estimate %.3e above %.3e (rel_tol 1.0e-05 x |value| "
                   "%.3e) at level 2" % (est2, 1e-5 * abs(v2), abs(v2)))
        with pytest.raises(fr.QuadratureNotConvergedError,
                           match=re.escape(message) + "$"):
            call(z)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_rel_tol_outside_open_interval_rejected(rel_tol):
    with pytest.raises(fr.QuadratureError, match="rel_tol"):
        fr.QuadratureSpec(rel_tol=rel_tol)


def test_not_converged_message_states_the_absolute_bound(twin_one,
                                                         cp_twin_one):
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-15)
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec)
    z = cp_twin_one.M + 0.1
    value = abs(ev.value_at_level(z, 1)[0])  # refused at level 1
    bound = "above %.3e (rel_tol 1.0e-15 x |value| %.3e)" % (1e-15 * value,
                                                             value)
    with pytest.raises(fr.QuadratureNotConvergedError,
                       match=re.escape(bound)):
        ev.evaluate(z)


def test_threshold_is_evaluated_once(twin_one, cp_twin_one,
                                     threshold_evaluations):
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one)
    first = ev.threshold
    assert ev.threshold is first
    assert ev.evaluate(cp_twin_one.M) is first  # read from the cache
    assert len(threshold_evaluations) == 1  # the fill


def test_evaluate_keeps_the_last_two_values(twin_one, cp_twin_one,
                                            monkeypatch):
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one)
    reduced = []
    value_at_level = fr.OmegaEvaluator.value_at_level

    def counting(self, z, level):
        reduced.append(z)
        return value_at_level(self, z, level)

    monkeypatch.setattr(fr.OmegaEvaluator, "value_at_level", counting)
    z1, z2, z3 = cp_twin_one.M + np.array([0.1, 0.2, 0.3])
    first = ev.evaluate(z1)
    second = ev.evaluate(z2)
    n = len(reduced)
    assert ev.evaluate(z1) is first and len(reduced) == n
    ev.evaluate(z3)  # the two last reduced are z2 and z3: z1 drops out
    n = len(reduced)
    assert ev.evaluate(z2) is second and len(reduced) == n
    again = ev.evaluate(z1)
    assert len(reduced) > n and again is not first and again == first


@pytest.mark.parametrize("p", [(-0.488, -2.665, -0.192),
                               (0.798, -1.117, -2.749)])
def test_error_bar_bounds_the_error(twin_one, bessel_ref, p):
    # the level-1 far field overshoots while the totals of levels 0 and 1
    # agree by chance: the change of the total alone understates the error
    p = np.array(p)
    got = fr.OmegaEvaluator(twin_one, p,
                            fr.find_maximizer(twin_one, p)).threshold
    assert abs(got.value - bessel_ref(0.0, p=p)) <= got.estimated_error


# p1 = 3.14159 is 2.7e-6 inside the zone boundary: the Hessian eigenvalue
# along p1 is -2.7e-6 and the level-1 estimate is of the order of Omega
EDGE = np.array([3.14159, 0.1, -0.12])


def test_degenerate_edge_refused_before_level_2(twin_one):
    cp = fr.find_maximizer(twin_one, EDGE)
    ev = fr.OmegaEvaluator(twin_one, EDGE, cp)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(fr.QuadratureNotConvergedError,
                           match=r"^quadrature not converged: .* at level 1; "
                                 r"1 more doubling"):
            ev.threshold
        seconds = time.perf_counter() - start
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ev._levels) == 2
    assert seconds < 1.0
    # levels 0 and 1 stay kept: the peak is one streamed block above them,
    # not the 351 MiB of a level-2 build
    assert peak - kept <= 8 * 2 ** 20


def _quadrature_kinds():
    """model_kinds() with each two_particle model replaced by its twin."""
    return {kind: (quadrature_twin(model)
                   if model.family == "two_particle" else model)
            for kind, model in model_kinds().items()}


@pytest.mark.parametrize("kind, p1", [
    ("one", 3.1), ("one", 3.12), ("vanishing", 3.1), ("vanishing", 3.12),
    ("off_axis", 3.1)])
def test_near_edge_threshold_still_converges_at_level_2(kind, p1):
    # level-1 estimates 0.7e-5 ... 2.5e-4 relative, far below the cut at
    # rel_tol * MAX_CONTRACTION = 8.2e-3
    model = _quadrature_kinds()[kind]
    p = np.array([p1, 0.1, -0.12])
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    got = ev.threshold
    assert got.n_grid == 4 * ev.spec.n_grid
    assert got.value == ev.value_at_level(cp.M, 2)[0]


@pytest.mark.parametrize("kind", ["one", "off_axis"])
def test_second_moment_still_converges_at_level_2(kind):
    model = _quadrature_kinds()[kind]
    p = np.array([-0.91, -0.23, 2.44])
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    z = cp.M + 0.013
    got = ev.second_moment(z)
    assert len(ev._levels) == 3
    assert got == ev._sums(z, 2, 2)[0]


def test_second_moment_at_the_edge_where_phi_vanishes(cp_twin_one,
                                                      ev_twin_one,
                                                      cp_twin_vanishing,
                                                      ev_twin_vanishing):
    # phi(q0) = 0 exactly: ||f0||^2 = int phi^2 / (M - w)^2 is finite and
    # is the limit of the second moment as z -> M(p) from above
    at_edge = ev_twin_vanishing.second_moment(cp_twin_vanishing.M)
    assert at_edge == pytest.approx(62.0126, abs=1e-4)
    gaps = [abs(ev_twin_vanishing.second_moment(cp_twin_vanishing.M + d)
                - at_edge)
            for d in (1e-6, 1e-8, 1e-10)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-9 * at_edge
    with pytest.raises(fr.BelowThresholdError, match="diverges"):
        ev_twin_one.second_moment(cp_twin_one.M)


@pytest.mark.parametrize("kind", ["one", "vanishing", "mixed"])
def test_torus_sum_within_its_bar_of_the_route(kind):
    # past each crossover the twin's moments come from the plain torus sum
    # on the next grid and no node level is built; the route's value is
    # exact to about 1e-14.  The sum reads w_p from the fibre table, the
    # oracle's lattice sum from model.w: the two are separate evaluations
    # and agree within the sum's own rounding term
    model = mixed_model() if kind == "mixed" else model_kinds()[kind]
    twin = quadrature_twin(model)
    rng = np.random.default_rng(24)
    for p in rng.uniform(-2.8, 2.8, (3, 3)):
        cp = fr.find_maximizer(twin, p)
        ev = fr.OmegaEvaluator(twin, p, cp)
        route = fr.OmegaEvaluator(model, p, fr.find_maximizer(model, p))
        for N, crossover in zip(SUM_GRIDS, ev._crossovers):
            # z - M rounds: 1.001 keeps delta past the crossover of N
            for delta in crossover * np.array([1.001, 1.5, 4.0]):
                for power in (1, 2):
                    value, bar, n = ev._moment(cp.M + delta, power, "")
                    want = route._moment(route.M + delta, power, "")[0]
                    assert n in SUM_GRIDS[:-1]
                    assert abs(value - want) <= bar
                    assert bar <= ev.spec.rel_tol * value
            z = cp.M + 1.001 * crossover
            got = ev.evaluate(z)
            nxt = SUM_GRIDS[SUM_GRIDS.index(N) + 1]
            assert got.n_grid == N
            lattice = fr.discrete_omega(twin, p, z, nxt)
            assert abs(got.value - lattice) <= ROUNDING * got.value
        assert ev._levels == [] and len(ev._grids) == 2


def test_torus_sum_keeps_only_the_grids_in_use(twin_one, cp_twin_one):
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one)
    for delta, kept in ((ev._crossovers[0], [16, 24]),
                        (ev._crossovers[3], [48, 64]),
                        (ev._crossovers[2], [32, 48])):
        ev.evaluate(cp_twin_one.M + delta)
        assert sorted(ev._grids) == kept
    # below every crossover the refinement loop answers
    got = ev.evaluate(cp_twin_one.M + 0.5 * ev._crossovers[-1])
    assert got.n_grid == 2 * ev.spec.n_grid and len(ev._levels) == 2


def test_torus_sum_bar_above_rel_tol_falls_back_to_the_loop(twin_one,
                                                           cp_twin_one):
    # the sum's bar includes 64 eps of its value: rel_tol 1e-15 refuses it,
    # and the split quadrature, which cannot reach 1e-15 either, answers
    spec = fr.QuadratureSpec(n_grid=16, n_radial=8, n_angular=8,
                             rel_tol=1e-15)
    ev = fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec)
    with pytest.raises(fr.QuadratureNotConvergedError, match="at level 1"):
        ev.evaluate(cp_twin_one.M + 2.0 * ev._crossovers[0])
    assert len(ev._levels) == 2


@pytest.mark.parametrize("kind", ["one", "vanishing", "off_axis"])
def test_torus_sum_reads_neither_model_w_nor_the_oracle(kind, monkeypatch):
    # the torus sum evaluates its grids from the fibre table, so the
    # oracle's lattice sum, which reads model.w, checks a separate
    # computation; find_maximizer reads model.w, so it runs first
    model = _quadrature_kinds()[kind]
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)

    def refuse(*args):
        raise AssertionError("the torus sum read model.w or the oracle")

    monkeypatch.setattr(fr.DispersionModel, "w", refuse)
    monkeypatch.setattr("friedrichs.oracle._lattice", refuse)
    ev = fr.OmegaEvaluator(model, p, cp)
    for power in (1, 2):
        value, bar, n = ev._moment(cp.M + 2.0 * ev._crossovers[0], power, "")
        assert n == SUM_GRIDS[0] and 0.0 < bar <= ev.spec.rel_tol * value
    assert ev._levels == [] and sorted(ev._grids) == list(SUM_GRIDS[:2])


# the off-axis fibres whose second moment at 2 mu(p) (E - M = 1.27 and
# 1.30) built level 2 (351 MiB) on the split quadrature
LEVEL_2_FIBRES = [(1.858, 1.287, -2.259), (-1.672, -2.048, 1.476)]


@pytest.mark.parametrize("p", LEVEL_2_FIBRES)
def test_far_second_moment_builds_no_level_2(p):
    model = model_kinds()["off_axis"]
    p = np.array(p)
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    report = fr.analyze(model, p, cp, 2.0 / ev.threshold.value,
                        evaluator=ev, with_expansion=True)
    assert report.E > cp.M and report.tau0_fit is not None
    assert len(ev._levels) == 2


# (mu(p), E, normalisation, tau0_fit, growth exponent) at p = (0.7, -0.3,
# 1.1): the route's bits, which no torus-sum change may move
ROUTE_OUTPUTS = {
    "one": ("0x1.e3e6d5c99dfd7p-7", "0x1.c23f8197512cbp+3",
            "0x1.da99596a44a5cp+3", "0x1.1fafb0f0c14e9p+0",
            "0x1.fd4472168848bp-1"),
    "vanishing": ("0x1.3c708f44a1536p-9", "0x1.16cde22fe85ebp+4",
                  "0x1.928c06ae12c68p+5", "0x1.b9ea42f4e0701p-5",
                  "0x1.3cbe052c8932cp-2"),
}


@pytest.mark.parametrize("kind", ["one", "vanishing"])
def test_route_fibre_keeps_no_torus_grid(kind, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a two_particle fibre evaluated a torus grid")

    monkeypatch.setattr("friedrichs.quadrature.harmonic_values", no_grid)
    model = model_kinds()[kind]
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    mu_p = fr.coupling_threshold(model, p, cp, evaluator=ev)
    report = fr.analyze(model, p, cp, 2.0 * mu_p, evaluator=ev,
                        with_expansion=True)
    cls = fr.classify_threshold(model, p, cp, mu_p, evaluator=ev)
    got = (mu_p, report.E, report.eigenfunction_norm, report.tau0_fit,
           cls.l2_growth_rate)
    assert tuple(float(v).hex() for v in got) == ROUTE_OUTPUTS[kind]
    assert ev._grids == {} and ev._levels == []


@pytest.mark.parametrize("kind", ["one", "vanishing", "off_axis"])
def test_edge_and_fit_window_stay_on_the_refinement_loop(kind):
    model = _quadrature_kinds()[kind]
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    deltas = _offsets(ev)
    assert deltas[-1] < min(ev._crossovers)
    for z in [cp.M] + list(cp.M + deltas):
        got = ev.evaluate(z)
        level = (got.n_grid // ev.spec.n_grid).bit_length() - 1
        assert got.n_grid == ev.spec.n_grid * 2 ** level
        assert got.value == ev.value_at_level(z, level)[0]
    assert ev._grids == {}


@pytest.mark.parametrize("kind", ["one", "vanishing", "off_axis", "twin"])
def test_edge_samples_equal_the_offsets_evaluated_one_by_one(kind):
    # edge_samples reduces each level once for all its offsets; each datum
    # and the bar are the bits of evaluate at M(p) + d_j, one z at a time
    model = (quadrature_twin(model_kinds()["one"]) if kind == "twin"
             else model_kinds()[kind])
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)
    got, ref = (fr.OmegaEvaluator(model, p, cp) for _ in range(2))
    deltas, data, bar = got.edge_samples
    omega = ref.threshold
    values = [ref.evaluate(cp.M + d) for d in deltas]
    k = -0.5 * cp.hessian_eigenvalues[0]
    assert np.array_equal(deltas, k * np.logspace(
        np.log10(FIT_WINDOW[0]), np.log10(FIT_WINDOW[1]), FIT_POINTS))
    assert np.array_equal(data, [omega.value - v.value for v in values])
    assert bar == omega.estimated_error + max(v.estimated_error
                                              for v in values)
    assert len(got._levels) == len(ref._levels)


@pytest.mark.parametrize("nodes, rel_tol, deltas", [
    # the first z fails at level 2, the second is refused at level 1
    ((16, 8, 8), 2.6e-7, (0.3, 0.1)),
    # the first is refused at level 1: level 2 is not built for the second
    ((16, 8, 8), 2.6e-7, (0.1, 0.3)),
    ((16, 8, 8), 1e-15, (0.3, 0.1, 0.3)),
    # the torus sum, then levels 1 and 2 answer
    ((32, 16, 16), 7e-5, (3.0, 1.0, 0.01, 0.3, 1e-4, 0.0)),
])
@pytest.mark.parametrize("power", [1, 2])
def test_batched_moments_equal_one_z_at_a_time(twin_one, cp_twin_one, nodes,
                                               rel_tol, deltas, power):
    # a batch of z: every triple is the one-z triple, and where a z is
    # refused the error is the one that taking the z one by one, in order,
    # raises first, with no level built that that order would not build
    if power == 2 and 0.0 in deltas:
        deltas = deltas[:-1]  # phi(q0) != 0: the second moment diverges
    spec = fr.QuadratureSpec(*nodes, rel_tol=rel_tol)
    zs = cp_twin_one.M + np.array(deltas)
    batch, single = (fr.OmegaEvaluator(twin_one, P0, cp_twin_one, spec)
                     for _ in range(2))
    want, error = [], None
    for z in zs:
        try:
            want.append(single._moment(z, power, "m"))
        except fr.QuadratureNotConvergedError as exc:
            error = str(exc)
            break
    if error is None:
        assert batch._moment(zs, power, "m") == want
    else:
        with pytest.raises(fr.QuadratureNotConvergedError,
                           match="^" + re.escape(error) + "$"):
            batch._moment(zs, power, "m")
    assert len(batch._levels) == len(single._levels)


def test_value_at_level_takes_an_array_of_z(ev_twin_one, cp_twin_one):
    zs = cp_twin_one.M + np.array([0.0, 1e-4, 0.3])
    for level in (0, 1):
        totals, nears, fars = ev_twin_one.value_at_level(zs, level)
        for j, z in enumerate(zs):
            one = ev_twin_one.value_at_level(z, level)
            assert all(type(x) is float for x in one)
            assert one == (totals[j], nears[j], fars[j])
