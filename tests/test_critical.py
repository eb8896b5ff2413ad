import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import friedrichs as fr
from conftest import model_kinds
from friedrichs.critical import (
    GRID_N,
    _grid_values,
    _local_maxima_mask,
    two_particle_closed_forms,
)
from friedrichs.torus import wrap_angles

P0 = np.zeros(3)


@pytest.mark.parametrize("p", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0),
                               (0.0, 0.0, -np.inf)])
def test_non_finite_p_rejected(model_one, p):
    for call in (fr.find_maximizer, fr.find_minimum):
        with pytest.raises(fr.InvalidInputError, match="is not finite"):
            call(model_one, np.array(p))


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
    assert fr.find_minimum(model_one, P0) == pytest.approx(0.0, abs=1e-12)
    m = fr.find_minimum(model_one, np.array([np.pi / 2, 0.0, 0.0]))
    assert m == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-10)


def test_minimum_bounds_random_samples(model_one):
    rng = np.random.default_rng(31)
    p = rng.uniform(-1.0, 1.0, 3)
    m = fr.find_minimum(model_one, p)
    q = rng.uniform(-np.pi, np.pi, (1000, 3))
    assert np.all(model_one.w(p, q) >= m - 1e-12)


def test_closed_form_check(model_one):
    for p in (P0, np.array([0.3, -0.7, 1.1])):
        chk = fr.closed_form_check(model_one, p)
        assert chk.q0_delta <= 1e-10
        assert chk.M_delta <= 1e-10
    with pytest.raises(fr.DegenerateMaximumError):
        fr.closed_form_check(model_one, np.array([np.pi, np.pi, np.pi]))


def test_closed_form_check_family_mismatch():
    tp = fr.DispersionModel(fr.ModelConfig(
        family="trig_poly",
        w_table=[{"index": [0, 0, 0], "value": 3.0},
                 {"index": [1, 0, 0], "value": -1.0},
                 {"index": [0, 1, 0], "value": -1.0},
                 {"index": [0, 0, 1], "value": -1.0}],
        phi_table=[{"index": [0, 0, 0], "value": 1.0}]))
    with pytest.raises(fr.UnsupportedFamilyError):
        fr.closed_form_check(tp, P0)


def test_maximizer_continuity_along_path(model_one):
    # numerical shadow of the analytic maximizer map: Lipschitz along a
    # sweep (the closed-form slope is 1/2)
    direction = np.array([0.3, -0.7, 1.1])
    ts = np.linspace(0.0, 1.0, 21)
    infos = [fr.find_maximizer(model_one, t * direction) for t in ts]
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
    q0, M, m, A = two_particle_closed_forms((1.0, 2.0, 0.5),
                                            np.array([0.6, -1.0, 0.2]))
    c = np.array([1.0, 2.0, 0.5])
    half = np.array([0.3, -0.5, 0.1])
    assert M == pytest.approx(float(np.sum(c * (2 + 2 * np.cos(half)))))
    assert m == pytest.approx(float(np.sum(c * (2 - 2 * np.cos(half)))))
    assert np.allclose(np.diag(A), -2 * c * np.cos(half))
    assert np.allclose(q0, wrap_angles(half + np.pi))


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
    # every other call of w is at a single Newton point
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
        fr.find_maximizer(model, p)
        assert shapes.count((GRID_N,) * 3) == 1
        assert all(s == (3,) for s in shapes if s != (GRID_N,) * 3)
