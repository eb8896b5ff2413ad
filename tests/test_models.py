import json

import numpy as np
import pytest

import friedrichs as fr
from friedrichs.torus import wrap_angles

P0 = np.zeros(3)
QPI = np.array([np.pi, np.pi, np.pi])


def test_w_trivial_values(model_one):
    assert model_one.w(P0, P0) == pytest.approx(0.0, abs=1e-14)
    assert model_one.w(P0, QPI) == pytest.approx(12.0, abs=1e-12)


def test_w_cross_checked_against_symbolic_sum(model_one):
    # independent evaluation of eps(q) + eps(p-q) with sympy
    import sympy as sp

    p = [sp.pi / 2, 0, 0]
    q = [sp.pi / 2, 0, 0]
    eps = lambda v: sum(1 - sp.cos(x) for x in v)
    expected = float(eps(q) + eps([a - b for a, b in zip(p, q)]))
    assert expected == pytest.approx(1.0, abs=1e-15)
    got = model_one.w(np.array([np.pi / 2, 0, 0]),
                      np.array([np.pi / 2, 0, 0]))
    assert got == pytest.approx(expected, abs=1e-13)


def test_gradient_vanishes_at_symmetric_point(model_one):
    g = model_one.grad_w(P0, QPI)
    assert np.allclose(g, 0.0, atol=1e-13)


def test_hessian_at_maximizer(model_one):
    h = model_one.hess_w(P0, QPI)
    assert np.allclose(h, np.diag([-2.0, -2.0, -2.0]), atol=1e-12)
    # central finite differences of w, step 1e-4
    fd = np.zeros((3, 3))
    step = 1e-4
    for i in range(3):
        for j in range(3):
            ei = np.eye(3)[i] * step
            ej = np.eye(3)[j] * step
            fd[i, j] = (
                model_one.w(P0, QPI + ei + ej)
                - model_one.w(P0, QPI + ei - ej)
                - model_one.w(P0, QPI - ei + ej)
                + model_one.w(P0, QPI - ei - ej)
            ) / (4.0 * step * step)
    assert np.allclose(h, fd, atol=1e-6)


def _fd_gradient(model, p, q, h):
    g = np.zeros(3)
    for i in range(3):
        e = np.eye(3)[i] * h
        g[i] = (model.w(p, q + e) - model.w(p, q - e)) / (2.0 * h)
    return g


def test_derivatives_match_finite_differences_with_order(model_one):
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(-np.pi, np.pi, 3)
        q = rng.uniform(-np.pi, np.pi, 3)
        g = model_one.grad_w(p, q)
        errs = []
        for h in (1e-3, 1e-4):
            errs.append(np.linalg.norm(_fd_gradient(model_one, p, q, h) - g))
        if errs[0] > 1e-12:
            order = np.log10(errs[0] / max(errs[1], 1e-300))
            assert order >= 1.9
        # Hessian against finite differences of the gradient
        hess = model_one.hess_w(p, q)
        fd = np.zeros((3, 3))
        h = 1e-4
        for i in range(3):
            e = np.eye(3)[i] * h
            fd[:, i] = (model_one.grad_w(p, q + e)
                        - model_one.grad_w(p, q - e)) / (2.0 * h)
        scale = max(np.abs(hess).max(), 1.0)
        assert np.abs(hess - fd).max() <= 1e-6 * scale
        assert np.allclose(hess, hess.T, atol=1e-13)


def test_phi_values(model_one, model_vanishing):
    assert model_one.phi(np.array([0.3, -1.0, 2.0])) == pytest.approx(1.0)
    assert model_vanishing.phi(QPI) == pytest.approx(0.0, abs=1e-14)
    assert model_vanishing.phi(P0) == pytest.approx(6.0, abs=1e-14)


def test_periodicity(model_one):
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = rng.uniform(-np.pi, np.pi, 3)
        q = rng.uniform(-np.pi, np.pi, 3)
        k = rng.integers(-3, 4, 3)
        shifted = wrap_angles(q + 2.0 * np.pi * k)
        assert model_one.w(p, q) == pytest.approx(model_one.w(p, shifted),
                                                  abs=1e-11)


def test_exchange_symmetry(model_one):
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.uniform(-np.pi, np.pi, 3)
        q = rng.uniform(-np.pi, np.pi, 3)
        assert model_one.w(p, q) == pytest.approx(model_one.w(p, p - q),
                                                  abs=1e-12)


def test_zero_phi_rejected():
    with pytest.raises(fr.TrivialFormFactorError):
        fr.two_particle_model(phi={"constant": 0.0})
    with pytest.raises(fr.TrivialFormFactorError):
        fr.DispersionModel(fr.ModelConfig(
            family="trig_poly",
            w_table=[{"index": [0, 0, 0], "value": 3.0},
                     {"index": [1, 0, 0], "value": -1.0}],
            phi_table=[{"index": [0, 0, 0], "value": 0.0}]))


def test_nonpositive_hopping_rejected():
    with pytest.raises(fr.InvalidDispersionError):
        fr.two_particle_model(hopping=(1.0, -1.0, 1.0))
    with pytest.raises(fr.InvalidDispersionError):
        fr.two_particle_model(hopping=(1.0, 0.0, 1.0))


def test_trig_poly_matches_two_particle(model_one):
    # Fourier table equivalent of the c = (1,1,1) dispersion block
    table = [{"index": [0, 0, 0], "value": 3.0},
             {"index": [1, 0, 0], "value": -1.0},
             {"index": [0, 1, 0], "value": -1.0},
             {"index": [0, 0, 1], "value": -1.0}]
    tp = fr.DispersionModel(fr.ModelConfig(
        family="trig_poly", w_table=table,
        phi_table=[{"index": [0, 0, 0], "value": 1.0}]))
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = rng.uniform(-np.pi, np.pi, 3)
        q = rng.uniform(-np.pi, np.pi, 3)
        assert tp.w(p, q) == pytest.approx(model_one.w(p, q), abs=1e-12)
        assert tp.phi(q) == pytest.approx(model_one.phi(q), abs=1e-12)


def test_config_round_trip(tmp_path, model_vanishing):
    cfg = model_vanishing.config
    path = tmp_path / "model.json"
    cfg.save(path)
    loaded = fr.ModelConfig.load(path)
    assert loaded.to_dict() == cfg.to_dict()
    # identical evaluations after the round trip
    m2 = fr.DispersionModel(loaded)
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = rng.uniform(-np.pi, np.pi, 3)
        q = rng.uniform(-np.pi, np.pi, 3)
        assert m2.w(p, q) == model_vanishing.w(p, q)
        assert m2.phi(q) == model_vanishing.phi(q)
    # and the JSON text itself round-trips losslessly
    assert json.loads(path.read_text()) == cfg.to_dict()


def test_config_parse_failures(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(fr.ConfigError):
        fr.ModelConfig.load(bad)
    with pytest.raises(fr.ConfigError):
        fr.ModelConfig.from_dict({"family": "unknown"})


def test_phi_l2_norm_parseval(model_vanishing):
    # brute-force grid integral vs. the Parseval closed form
    n = 48
    ax = -np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    vals = model_vanishing.phi((ax[:, None, None], ax[None, :, None],
                                ax[None, None, :]))
    brute = (2.0 * np.pi / n) ** 3 * float(np.sum(vals ** 2))
    assert model_vanishing.phi_l2_norm_sq() == pytest.approx(brute, rel=1e-12)


def test_determinism(model_one):
    p = np.array([0.3, -0.7, 1.1])
    q = np.array([1.2, 0.1, -2.0])
    assert model_one.w(p, q) == model_one.w(p, q)
    cfg = fr.ModelConfig.from_dict(model_one.config.to_dict())
    m2 = fr.DispersionModel(cfg)
    assert m2.w(p, q) == model_one.w(p, q)
