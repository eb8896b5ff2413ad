import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import friedrichs as fr
from friedrichs import critical
from conftest import model_kinds, quadrature_twin
from friedrichs.critical import (
    GRID_N,
    NONDEG_TOL,
    _grad_tol,
    _grid_values,
    _local_maxima_mask,
    _scan_maximizer,
    two_particle_closed_forms,
)
from friedrichs.torus import wrap_angles

P0 = np.zeros(3)


@pytest.mark.parametrize("p", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0),
                               (0.0, 0.0, -np.inf)])
def test_non_finite_p_rejected(model_one, p):
    with pytest.raises(fr.InvalidInputError, match="is not finite"):
        fr.find_maximizer(model_one, np.array(p))


TWO_PI = 2.0 * np.pi


@pytest.mark.parametrize("p", [
    (0.7 + TWO_PI * 1e4, 0.3, -0.2), (0.7 + TWO_PI * 1e8, 0.3, -0.2),
    (1e17, 0.3, -0.2), (0.0, -1e308, 0.0),
    (np.nextafter(TWO_PI, np.inf), 0.0, 0.0)])
@pytest.mark.parametrize("kind", ["one", "off_axis"])
def test_momentum_beyond_two_pi_rejected(kind, p):
    # w_p evaluates p - q, which loses q once |p_i| is large: every entry
    # point that takes p refuses |p_i| > 2 pi rather than answer wrongly
    model = model_kinds()[kind]
    p = np.array(p)
    cp = fr.find_maximizer(model, P0)
    calls = [
        lambda: model.w(p, P0), lambda: model.w_derivatives(p, P0),
        lambda: fr.find_maximizer(model, p),
        lambda: fr.OmegaEvaluator(model, p, cp),
        lambda: fr.secular_root(model, p, 1.0, 16),
        lambda: fr.dense_spectrum(model, p, 1.0, 4),
        lambda: fr.discrete_omega(model, p, 20.0, 16),
        lambda: fr.richardson_omega_threshold(model, p, 20.0, (8, 16)),
        lambda: fr.convergence_report(model, p, 1.0, [16], 20.0)]
    for call in calls:
        with pytest.raises(fr.InvalidInputError,
                           match=r"is outside \[-2 pi, 2 pi\]\^3$"):
            call()


def test_momentum_at_two_pi_answers(model_one, cp_one):
    # w_p is 2 pi-periodic in p: the fibres at the ends of the range are
    # the fibre at p = 0
    cp = fr.find_maximizer(model_one, np.array([TWO_PI, -TWO_PI, 0.0]))
    assert cp.M == pytest.approx(cp_one.M, abs=1e-12)
    assert fr.torus_distance(cp.q0, cp_one.q0) <= 1e-10


def test_maximizer_at_p_zero(cp_one):
    assert np.allclose(cp_one.q0, [np.pi, np.pi, np.pi], atol=1e-10)
    assert cp_one.M == pytest.approx(12.0, abs=1e-10)
    assert cp_one.m == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(cp_one.hessian, np.diag([-2.0, -2.0, -2.0]), atol=1e-9)
    assert cp_one.det_negA == pytest.approx(8.0, rel=1e-9)
    assert cp_one.grad_norm <= 1e-12


def test_maximizer_verified_by_dense_scan(model_one):
    p = np.array([np.pi / 2, 0.0, 0.0])
    info = fr.find_maximizer(model_one, p)
    assert info.M == pytest.approx(10.0 + np.sqrt(2.0), abs=1e-10)
    # dense 64^3 scan: the certified maximum dominates every grid value
    # and the best grid cell is within one cell of q0
    n = 64
    ax = -np.pi + 2.0 * np.pi * np.arange(n) / n
    vals = model_one.w(p, (ax[:, None, None], ax[None, :, None],
                           ax[None, None, :]))
    assert info.M >= vals.max() - 1e-9
    assert info.M - vals.max() <= 0.02
    i, j, k = np.unravel_index(np.argmax(vals), vals.shape)
    assert fr.torus_distance([ax[i], ax[j], ax[k]],
                             info.q0) <= 2.0 * np.pi / n * 2.0


def test_degenerate_momentum_rejected(model_one):
    with pytest.raises(fr.DegenerateMaximumError):
        fr.find_maximizer(model_one, np.array([np.pi, 0.0, 0.0]))


def test_fully_degenerate_momentum_rejected(model_one):
    with pytest.raises(fr.DegenerateMaximumError):
        fr.find_maximizer(model_one, np.array([np.pi, np.pi, np.pi]))


def test_minimum_values(model_one):
    assert fr.find_maximizer(model_one, P0).m == pytest.approx(0.0, abs=1e-12)
    m = fr.find_maximizer(model_one, np.array([np.pi / 2, 0.0, 0.0])).m
    assert m == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-10)


def test_minimum_bounds_random_samples(model_one):
    rng = np.random.default_rng(31)
    p = rng.uniform(-1.0, 1.0, 3)
    m = fr.find_maximizer(model_one, p).m
    q = rng.uniform(-np.pi, np.pi, (1000, 3))
    assert np.all(model_one.w(p, q) >= m - 1e-12)


def test_closed_form_check(model_one):
    # the scan-and-Newton path, which find_maximizer takes for trig_poly,
    # against the closed-form fibre of the two_particle model
    for p in (P0, np.array([0.3, -0.7, 1.1])):
        cp = _scan_maximizer(model_one, p)
        q0, _, _ = two_particle_closed_forms(model_one.hopping, p)
        M = fr.find_maximizer(model_one, p).M
        assert fr.torus_distance(cp.q0, q0) <= 1e-10
        assert abs(cp.M - M) <= 1e-10
    with pytest.raises(fr.DegenerateMaximumError):
        _scan_maximizer(model_one, np.array([np.pi, np.pi, np.pi]))


def test_maximizer_continuity_along_path(model_one):
    # numerical shadow of the analytic maximizer map: the scan path is
    # Lipschitz along a sweep (the closed-form slope is 1/2)
    direction = np.array([0.3, -0.7, 1.1])
    ts = np.linspace(0.0, 1.0, 21)
    infos = [_scan_maximizer(model_one, t * direction) for t in ts]
    step = np.linalg.norm(direction) * (ts[1] - ts[0])
    for a, b in zip(infos, infos[1:]):
        d = fr.torus_distance(a.q0, b.q0)
        assert d <= 1.0 * step + 1e-9
    for info in infos:
        assert info.M >= info.m


def test_non_unique_maximum_detected():
    # T(x) = 1 - cos(2 x_1) + (1 - cos x_2) + (1 - cos x_3): at p = 0 the
    # doubled first harmonic produces two separated maximizer points in q_1
    m = fr.DispersionModel(fr.ModelConfig(
        family="trig_poly",
        w_table=[{"index": [0, 0, 0], "value": 3.0},
                 {"index": [2, 0, 0], "value": -1.0},
                 {"index": [0, 1, 0], "value": -1.0},
                 {"index": [0, 0, 1], "value": -1.0}],
        phi_table=[{"index": [0, 0, 0], "value": 1.0}]))
    with pytest.raises(fr.NonUniqueMaximumError):
        fr.find_maximizer(m, P0)


def test_closed_forms_match_direct_formulas():
    c = np.array([1.0, 2.0, 0.5])
    p = np.array([0.6, -1.0, 0.2])
    half = np.array([0.3, -0.5, 0.1])
    q0, q_min, alpha = two_particle_closed_forms(c, p)
    cp = fr.find_maximizer(fr.two_particle_model(hopping=c), p)
    assert cp.M == pytest.approx(float(np.sum(c * (2 + 2 * np.cos(half)))))
    assert cp.m == pytest.approx(float(np.sum(c * (2 - 2 * np.cos(half)))))
    assert np.allclose(cp.hessian, np.diag(-2 * c * np.cos(half)))
    assert np.allclose(2 * alpha, 2 * c * np.cos(half))
    assert np.allclose(q0, wrap_angles(half + np.pi))
    assert np.array_equal(cp.q0, q0)
    assert np.allclose(q_min, half)


# -- the closed-form fibre against the scan ----------------------------------

HOPPINGS = [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1e4, 1e4, 1e4)]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.floats(-3.0, 4.0), min_size=3, max_size=3),
       st.lists(st.floats(-2.8, 2.8), min_size=3, max_size=3))
@example([4.0, 4.0, 4.0], [0.7, -0.3, 1.1])
@example([-3.0, 4.0, 0.0], [0.7, -0.3, 1.1])
def test_closed_form_fibre_matches_the_scan(log_hopping, p):
    # hopping 1e-3 .. 1e4 per axis, p away from the degenerate set: q0 to
    # within a few times Newton's reach, _grad_tol over the smallest
    # |Hessian eigenvalue|; M, m within a few ulps of the bandwidth scale
    # and the Hessian within 1e-14 of its own
    c = 10.0 ** np.array(log_hopping)
    p = np.array(p)
    _, _, alpha = two_particle_closed_forms(c, p)
    assume(2.0 * alpha.min() > 10.0 * NONDEG_TOL * 4.0 * c.sum())
    model = fr.two_particle_model(hopping=c)
    closed = fr.find_maximizer(model, p)
    scan = _scan_maximizer(model, p)
    reach = _grad_tol(_grid_values(model, p)[1]) / np.abs(
        closed.hessian_eigenvalues).min()
    assert fr.torus_distance(closed.q0, scan.q0) <= 4.0 * reach + 1e-13
    scale = 4.0 * c.sum()
    assert abs(closed.M - scan.M) <= 8.0 * np.finfo(float).eps * scale
    assert abs(closed.m - scan.m) <= 8.0 * np.finfo(float).eps * scale
    assert np.abs(closed.hessian - scan.hessian).max() <= 1e-14 * 2.0 * c.max()


@pytest.mark.parametrize("hopping", HOPPINGS)
def test_two_particle_fibre_builds_no_scan(hopping, monkeypatch):
    # a two_particle find_maximizer reads the closed forms: no scan grid
    # and no Newton step
    def refuse(*args):
        raise AssertionError("scan or Newton step on a two_particle fibre")

    monkeypatch.setattr(critical, "_grid_values", refuse)
    monkeypatch.setattr(critical, "_polish", refuse)
    model = fr.two_particle_model(hopping=hopping)
    rng = np.random.default_rng(23)
    for p in [P0] + list(rng.uniform(-2.8, 2.8, (4, 3))):
        fr.find_maximizer(model, p)
    with pytest.raises(fr.DegenerateMaximumError):
        fr.find_maximizer(model, np.array([np.pi, 0.1, -0.12]))


@pytest.mark.parametrize("hopping", HOPPINGS)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_degenerate_edge_does_not_move(hopping, axis):
    # p_j = pi - 3.6e-9, pi, -pi on one axis and (pi, pi, pi) are
    # degenerate, pi - 1.5e-7 is not on unit hopping; every decision is the
    # scan's (which may call a flat axis non-unique), so the exit-2 edge
    # stays where the scan put it
    model = fr.two_particle_model(hopping=hopping)
    answered = []
    for edge in (np.pi - 3.6e-9, np.pi, -np.pi, np.pi - 1.5e-7, None):
        p = (np.full(3, np.pi) if edge is None
             else np.insert(np.array([0.1, -0.12]), axis, edge))
        try:
            fr.find_maximizer(model, p)
            answered.append(True)
        except fr.DegenerateMaximumError:
            answered.append(False)
        try:
            _scan_maximizer(model, p)
            assert answered[-1], p
        except fr.ModelValidityError:
            assert not answered[-1], p
    assert answered[:3] == [False] * 3 and answered[4] is False
    if len(set(hopping)) == 1:  # on (1, 2, 3) it depends on the axis
        assert answered[3] is True


# -- one scan per fibre ----------------------------------------------------


def _mask_26(vals):
    """The definition: nodes >= each of their 26 periodic neighbours."""
    mask = np.ones(vals.shape, dtype=bool)
    for d in itertools.product((-1, 0, 1), repeat=3):
        if d != (0, 0, 0):
            mask &= vals >= np.roll(vals, d, axis=(0, 1, 2))
    return mask


# few distinct values make ties and plateaus; nan and inf are kept too
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(arrays(np.float64, array_shapes(min_dims=3, max_dims=3, max_side=6),
              elements=st.sampled_from(
                  [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])))
def test_separable_mask_equals_the_26_neighbour_definition(vals):
    assert np.array_equal(_local_maxima_mask(vals), _mask_26(vals))


@pytest.mark.parametrize("name", ["one", "vanishing", "off_axis"])
def test_separable_mask_on_the_scan(name):
    model = model_kinds()[name]
    rng = np.random.default_rng(17)
    for p in [np.zeros(3), np.array([np.pi, 0.0, 0.0])] + list(
            rng.uniform(-np.pi, np.pi, (4, 3))):
        _, vals = _grid_values(model, p)
        assert np.array_equal(_local_maxima_mask(vals), _mask_26(vals))


@pytest.mark.parametrize("name", ["one", "vanishing", "off_axis"])
def test_find_maximizer_scans_the_grid_once(name, monkeypatch):
    # the minimum search is seeded from the maximizer's own scan, and
    # every other call of w is at a single Newton point (the scan path,
    # which a two_particle find_maximizer no longer takes)
    model = model_kinds()[name]
    w, shapes = model.w, []

    def counting_w(p, q):
        out = w(p, q)
        shapes.append(np.broadcast(*q).shape if isinstance(q, tuple)
                      else np.shape(q))
        return out

    monkeypatch.setattr(model, "w", counting_w)
    rng = np.random.default_rng(19)
    for p in [np.zeros(3)] + list(rng.uniform(-2.8, 2.8, (4, 3))):
        shapes.clear()
        _scan_maximizer(model, p)
        assert shapes.count((GRID_N,) * 3) == 1
        assert all(s == (3,) for s in shapes if s != (GRID_N,) * 3)


@pytest.mark.parametrize("p", [(0.7, -0.3, 1.1), (-1.3, 0.4, 2.2)])
@pytest.mark.parametrize("twin", [False, True])
def test_threshold_scales_with_the_hopping(twin, p):
    # w -> c w scales mu(p) by c: the gradient tolerance of the Newton
    # polish follows the scan's max - min, so a model with a bandwidth in
    # the thousands certifies like the unit one (an absolute 1e-12 lies
    # below the gradient's rounding floor from c = 1500 on).  On the route
    # the head [0, t0] shrinks with the hopping, whose head bound once
    # read 8.9e-10, 8.9e-6 and 8.3e-2 relative at c = 1e8, 1e10, 1e12
    p = np.array(p)

    def threshold(c):
        model = fr.two_particle_model(hopping=[c] * 3)
        model = quadrature_twin(model) if twin else model
        cp = fr.find_maximizer(model, p)
        return fr.OmegaEvaluator(model, p, cp).threshold

    unit = threshold(1.0)
    for c in (1e3, 3e3, 1e4, 1e6) + (() if twin else (1e8, 1e10, 1e12)):
        got = threshold(c)
        bar = max(got.estimated_error / got.value,
                  unit.estimated_error / unit.value)
        assert abs(unit.value / (c * got.value) - 1.0) <= 2.0 * bar
