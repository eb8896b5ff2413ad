"""The Laplace-Bessel route for two_particle fibres, against truth.

Truth is the mpmath Laplace-Bessel integral at 30 digits
(conftest.mp_laplace_omega), the Bessel reference for phi = 1, pinned
zone-boundary values, and the split quadrature on the trig_poly twin of
the same model within its own error bar; mpmath's besseli and gammainc
for the package's own Bessel factors and head moments.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import i0e

import friedrichs as fr
from conftest import (bessel_omega, mixed_model, model_kinds,
                      mp_laplace_omega, quadrature_twin)
from friedrichs import laplace
from friedrichs.laplace import (HEAD_U, IVE_SWITCH, _head_moment, _ive_orders,
                                _ives, laplace_omega, laplace_table)
from friedrichs.torus import grid_axis, tensor_grid

P0 = np.zeros(3)


def _kinds():
    kinds = model_kinds()
    return {"one": kinds["one"], "vanishing": kinds["vanishing"],
            "mixed": mixed_model()}


@pytest.mark.parametrize("kind", ["one", "vanishing", "mixed"])
def test_twin_has_bitwise_equal_w_and_phi(kind):
    model = _kinds()[kind]
    twin = quadrature_twin(model)
    assert twin.family == "trig_poly"
    grid = tensor_grid(grid_axis(24))
    points = np.random.default_rng(3).uniform(-4.0, 4.0, (200, 3))
    for p in (P0, np.array([0.7, -0.3, 1.1]), np.array([3.1, -2.9, 0.4])):
        for q in (grid, points):
            assert np.array_equal(twin.w(p, q), model.w(p, q))
            assert np.array_equal(twin.phi(q), model.phi(q))


# (kind, p, delta, power): three points per kind, z = M, near and far
# from the edge, and one second moment
TRUTH_POINTS = [
    ((0.7, -0.3, 1.1), 0.0, 1),
    ((2.6, -0.9, -1.7), 0.5, 1),
    ((-2.0, 1.3, 0.4), 0.01, 2),
]


@pytest.mark.parametrize("kind", ["one", "vanishing", "mixed"])
def test_route_reads_the_closed_forms_of_the_critical_point(kind):
    # q0 and alpha come from critical.two_particle_closed_forms alone, which
    # wrap p first: Omega(p) and its bar are bitwise the same at p and at
    # p - 2 pi e_j
    model = _kinds()[kind]
    rng = np.random.default_rng(29)
    for i in range(40):
        p = rng.uniform(-2.8, 2.8, 3)
        j = i % 3
        p[j] = rng.uniform(np.pi, 2.0 * np.pi)
        shifted = p.copy()
        shifted[j] -= 2.0 * np.pi
        got = [fr.OmegaEvaluator(model, q, fr.find_maximizer(model, q))
               .threshold for q in (p, shifted)]
        assert got[0] == got[1]


@pytest.mark.parametrize("kind", ["one", "vanishing", "mixed"])
@pytest.mark.parametrize("p, delta, power", TRUTH_POINTS)
def test_route_within_its_bar_of_mpmath(kind, p, delta, power):
    model = _kinds()[kind]
    value, bar = laplace_omega(laplace_table(model, p), delta, power)
    truth = mp_laplace_omega(model, p, delta, power)
    assert abs(value - truth) <= bar
    assert bar <= 1e-12 * truth


@pytest.mark.parametrize("p, delta", [((0.0, 0.0, 0.0), 0.0),
                                      ((0.9, 0.2, -0.5), 1e-4),
                                      ((-0.488, -2.665, -0.192), 1.0)])
def test_phi_one_matches_the_bessel_reference(model_one, bessel_ref, p,
                                              delta):
    value, _ = laplace_omega(laplace_table(model_one, p), delta, 1)
    assert value == pytest.approx(bessel_ref(delta, p=p), rel=1e-9)


# Omega(p) of phi = 1 next to the zone boundary p1 = pi, with the digits
# of an independent adaptive-quad evaluation; the split quadrature
# answers the first at level 1 and refuses the last two
ZONE_COLUMN = [((3.0, 0.0, 0.0), 119.29907889736, 11),
               ((3.14159, 0.0, 0.0), 335.536453345, 9),
               ((3.14159, 0.1, -0.12), 336.018641028, 9)]


@pytest.mark.parametrize("p, pinned, decimals", ZONE_COLUMN)
def test_zone_boundary_column(model_one, p, pinned, decimals):
    p = np.array(p)
    cp = fr.find_maximizer(model_one, p)
    ev = fr.OmegaEvaluator(model_one, p, cp)
    got = ev.threshold
    assert abs(got.value - pinned) <= 0.5 * 10.0 ** -decimals + \
        got.estimated_error
    assert got.n_grid == ev.spec.n_grid
    assert ev._levels == []


def _fibres(rng, n):
    for _ in range(n):
        yield rng.uniform(-2.8, 2.8, 3), 10.0 ** rng.uniform(-9.0, 0.0)


@pytest.mark.parametrize("kind", ["one", "vanishing", "mixed"])
def test_route_within_the_twin_quadrature_bar(kind):
    # seeded fibres at z = M and M + delta, delta in 1e-9 .. 1: the
    # split quadrature on the twin is off the route by at most its
    # estimated_error (0.375 of it at most over 210 fibres per kind)
    model = _kinds()[kind]
    twin = quadrature_twin(model)
    for p, delta in _fibres(np.random.default_rng(12), 2):
        cp = fr.find_maximizer(model, p)
        ev = fr.OmegaEvaluator(model, p, cp)
        ev_twin = fr.OmegaEvaluator(twin, p, fr.find_maximizer(twin, p))
        for z in (cp.M, cp.M + delta):
            route, quad = ev.evaluate(z), ev_twin.evaluate(z)
            assert abs(route.value - quad.value) <= quad.estimated_error


def test_threshold_state_norm_against_the_twin_quadrature(model_vanishing,
                                                          cp_vanishing,
                                                          ev_vanishing,
                                                          cp_twin_vanishing,
                                                          ev_twin_vanishing):
    # ||f0||^2 = int phi^2 / (M - w)^2 at p = 0, where phi(q0) = 0
    route = ev_vanishing.second_moment(cp_vanishing.M)
    quad = ev_twin_vanishing.second_moment(cp_twin_vanishing.M)
    (_, near0, far0), (total1, near1, far1) = (
        ev_twin_vanishing._sums(cp_twin_vanishing.M, level, 2)
        for level in (0, 1))
    assert quad == total1  # answered at level 1
    bar = abs(near1 - near0) + abs(far1 - far0)
    assert abs(route - quad) <= bar
    assert route == pytest.approx(62.0125533606, abs=1e-10)


@pytest.mark.parametrize("kind", ["one", "vanishing", "mixed"])
def test_twice_the_nodes_per_panel_moves_no_value_by_a_tenth_of_its_bar(
        kind, monkeypatch):
    model = _kinds()[kind]
    rng = np.random.default_rng(7)
    ps = [P0, np.array([3.14159, 0.1, -0.12])] + [
        rng.uniform(-3.1, 3.1, 3) for _ in range(4)]
    rules = []
    for nodes in (laplace.PANEL_NODES, 2 * laplace.PANEL_NODES):
        monkeypatch.setattr(laplace, "PANEL_NODES", nodes)
        rules.append([laplace_table(model, p) for p in ps])
    for rule, fine in zip(*rules):
        for delta in (0.0, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e13, 1e16):
            for power in (1, 2):
                if power == 2 and delta == 0.0:
                    continue
                value, bar = laplace_omega(rule, delta, power)
                assert abs(laplace_omega(fine, delta, power)[0] - value) \
                    <= 0.1 * bar


def test_ive_above_the_series_cut_is_finite_and_right():
    # scipy's ive(0, 2e9) is nan; i0e(2e9) = 8.92e-6
    x = np.array([1e5, 1e6, 1.5e6, 2e9, 1e12])
    assert np.allclose(_ives((0,), x)[0], i0e(x), rtol=1e-15, atol=0.0)
    for n, got in enumerate(_ives(range(5), x)):
        with mpmath.workdps(30):
            want = [float(mpmath.besseli(n, v) * mpmath.exp(-v)) for v in x]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


IVE_POINTS = np.concatenate([
    np.logspace(-13.0, 12.0, 101),
    np.nextafter(IVE_SWITCH, [-np.inf, np.inf]), [IVE_SWITCH],
    IVE_SWITCH * np.array([0.9, 0.99, 1.01, 1.1])])


def _mp_ive(n, xs):
    with mpmath.workdps(30):
        return np.array([float(mpmath.besseli(n, v) * mpmath.exp(-v))
                         for v in map(mpmath.mpf, xs)])


@pytest.mark.parametrize("n", range(5))
def test_ive_within_2e15_of_mpmath(n):
    # log-spaced over [1e-13, 1e12], and next to the switch from the
    # power series to the Hankel series
    want = _mp_ive(n, IVE_POINTS)
    assert np.all(np.abs(_ives((n,), IVE_POINTS)[0] / want - 1.0) <= 2e-15)


def test_downward_recurrence_keeps_every_order():
    # laplace_table's orders: the top two from _ives, the rest recurred
    got = _ive_orders(4, IVE_POINTS)
    for n in range(5):
        assert np.all(np.abs(got[n] / _mp_ive(n, IVE_POINTS) - 1.0) <= 2e-15)


HEAD_X = [0.0, *np.logspace(-20.0, 3.0, 47),
          np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_head_moment_against_mpmath(k):
    # int_0^eps t^(k-1) e^{-t delta} dt at x = delta eps from 0 to 1e3,
    # both sides of the switch at x = 1
    eps = math.exp(HEAD_U)  # the head's end for alpha <= 1
    for x in HEAD_X:
        delta = float(x) / eps
        with mpmath.workdps(30):
            e, d = mpmath.mpf(eps), mpmath.mpf(delta)
            want = (e ** k / k if delta == 0.0
                    else mpmath.gammainc(k, 0, d * e) / d ** k)
            assert abs(_head_moment(k, delta, eps) / want - 1) <= 4e-15, x


@pytest.mark.parametrize("k", [1, 2, 3])
def test_head_moment_at_huge_delta(k):
    # x^k overflowed a float from delta = 6e115 (k = 3) and 1.4e167 (k = 2);
    # the moment itself is finite and underflows to 0 where it must
    eps = math.exp(HEAD_U)
    for delta in (1e13, 6e115, 1.4e167, 1e200, 1e300, np.finfo(float).max):
        with mpmath.workdps(30):
            d = mpmath.mpf(delta)
            want = float(mpmath.gammainc(k, 0, d * eps) / d ** k)
        got = _head_moment(k, delta, eps)
        if want >= np.finfo(float).tiny:
            assert abs(got / want - 1) <= 4e-15, delta
        else:
            assert 0.0 <= got < np.finfo(float).tiny, delta


@pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (0.7, -0.3, 1.1)])
def test_route_threshold_within_its_bar_of_the_bessel_reference(model_one,
                                                               p):
    p = np.array(p)
    ev = fr.OmegaEvaluator(model_one, p, fr.find_maximizer(model_one, p))
    got = ev.threshold
    ref = bessel_omega(0.0, p=p)
    assert abs(got.value - ref) <= got.estimated_error + 1e-13 * ref


def test_anisotropic_edge_fibre_on_the_route():
    # hopping 3 next to p1 = pi: 2 alpha_j t reaches 4.6e9 in the rule
    model = fr.two_particle_model(hopping=(1.0, 1.0, 3.0))
    p = np.array([3.14159, 0.1, -0.12])
    value, bar = laplace_omega(laplace_table(model, p), 0.0, 1)
    assert np.isfinite(value) and 0.0 < bar <= 1e-13 * value


def test_route_refuses_a_tolerance_below_its_bar(model_one, cp_one):
    ev = fr.OmegaEvaluator(model_one, P0, cp_one,
                           fr.QuadratureSpec(rel_tol=1e-15))
    with pytest.raises(fr.QuadratureNotConvergedError,
                       match=r"^quadrature not converged: estimate .* on the "
                             r"Laplace-Bessel route$"):
        ev.evaluate(cp_one.M)
    with pytest.raises(fr.QuadratureNotConvergedError,
                       match=r"^second moment not converged"):
        ev.second_moment(cp_one.M + 0.1)


def test_route_builds_no_level_and_keeps_the_memo(model_one):
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model_one, p)
    ev = fr.OmegaEvaluator(model_one, p, cp)
    mu = 2.0 / ev.threshold.value
    energy = fr.solve_eigenvalue(model_one, p, cp, mu, evaluator=ev)
    assert fr.eigenvalue_error_estimate(model_one, p, cp, mu, energy,
                                        evaluator=ev) > 0.0
    assert ev._levels == []
    first = ev.evaluate(cp.M + 0.1)
    assert ev.evaluate(cp.M + 0.1) is first
    assert ev.evaluate(cp.M) is ev.threshold


@pytest.mark.parametrize("ratio", [1e12, 1e14, 1e16])
def test_eigenvalue_far_above_the_band_on_the_route(model_one, cp_one, ev_one,
                                                    mu_one, ratio):
    # the head [0, e^-30] carries most of Omega once delta e^-30 >> 1; its
    # error bound must shrink with e^{-t delta} too
    mu = ratio * mu_one
    gap = mu * model_one.phi_l2_norm_sq()
    e = fr.solve_eigenvalue(model_one, P0, cp_one, mu, evaluator=ev_one)
    assert abs(e - (cp_one.M + gap)) <= 1e-6 * gap
    err = fr.eigenvalue_error_estimate(model_one, P0, cp_one, mu, e,
                                       evaluator=ev_one)
    assert 0.0 < err <= 1e-12 * gap


@pytest.mark.parametrize("kind", ["one", "vanishing"])
@pytest.mark.parametrize("ratio", [1.01, 2.0, 8.0])
def test_eigenvalue_error_estimate_brackets_the_root(kind, ratio):
    # with an exact Omega the root finder's own tolerance dominates: the
    # determinant must change sign within the estimate of E
    model = _kinds()[kind]
    p = np.array([0.7, -0.3, 1.1])
    cp = fr.find_maximizer(model, p)
    ev = fr.OmegaEvaluator(model, p, cp)
    mu = ratio / ev.threshold.value
    e = fr.solve_eigenvalue(model, p, cp, mu, evaluator=ev)
    err = fr.eigenvalue_error_estimate(model, p, cp, mu, e, evaluator=ev)
    assert fr.fredholm_det(model, p, cp, mu, e - err, evaluator=ev) <= 0.0
    assert fr.fredholm_det(model, p, cp, mu, e + err, evaluator=ev) >= 0.0
