import numpy as np
import pytest

import friedrichs as fr
from friedrichs.critical import two_particle_closed_forms
from friedrichs.torus import wrap_angles

P0 = np.zeros(3)


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
