import json
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs.models import HarmonicTable, _add_into, harmonic_values
from friedrichs.torus import grid_axis, tensor_grid, wrap_angles

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
    g, _ = model_one.w_derivatives(P0, QPI)
    assert np.allclose(g, 0.0, atol=1e-13)


def test_hessian_at_maximizer(model_one):
    _, h = model_one.w_derivatives(P0, QPI)
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
        g, hess = model_one.w_derivatives(p, q)
        errs = []
        for h in (1e-3, 1e-4):
            errs.append(np.linalg.norm(_fd_gradient(model_one, p, q, h) - g))
        if errs[0] > 1e-12:
            order = np.log10(errs[0] / max(errs[1], 1e-300))
            assert order >= 1.9
        # Hessian against finite differences of the gradient
        fd = np.zeros((3, 3))
        h = 1e-4
        for i in range(3):
            e = np.eye(3)[i] * h
            fd[:, i] = (model_one.w_derivatives(p, q + e)[0]
                        - model_one.w_derivatives(p, q - e)[0]) / (2.0 * h)
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


# the largest sum_k hypot(cos_k, sin_k) of a phi table whose bound
# (2 pi)^3 (sum)^2 on every phi(q)^2 and on ||phi||^2 is a finite float
PHI_AMP_MAX = np.sqrt(np.finfo(float).max / (2.0 * np.pi) ** 3)


@pytest.mark.parametrize("config, name", [
    # phi(q0) = 0 at p = 0: only a bound over all of phi catches it
    ({"family": "two_particle",
      "phi": {"constant": 1e200, "cos1": [1e200, 0.0, 0.0]}}, "phi"),
    ({"family": "two_particle", "phi": {"constant": 1e153}}, "phi"),
    ({"family": "two_particle", "phi": {"constant": 1e300}}, "phi"),
    # each coefficient below the bound, their hypot above it
    ({"family": "trig_poly",
      "w_table": [{"index": [0, 0, 0], "value": 3.0},
                  {"index": [1, 0, 0], "value": -1.0}],
      "phi_table": [{"index": [1, 0, 1], "value": 0.75 * PHI_AMP_MAX,
                     "sin": 0.75 * PHI_AMP_MAX}]}, "phi_table")])
def test_phi_whose_square_can_overflow_rejected(config, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fr.ConfigError,
                           match="^%s: .* on phi\\^2 overflows a float$"
                           % name):
            fr.DispersionModel(fr.ModelConfig.from_dict(config))


def test_phi_below_the_overflow_bound_keeps_finite_squares():
    model = fr.two_particle_model(phi={"constant": 0.5 * PHI_AMP_MAX,
                                       "cos1": [0.49 * PHI_AMP_MAX, 0.0, 0.0]})
    grid = tensor_grid(grid_axis(16))
    with np.errstate(over="raise"):
        assert np.isfinite(model.phi_l2_norm_sq())
        assert np.all(np.isfinite(np.square(model.phi(grid))))


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
    path.write_text(json.dumps(cfg.to_dict()))
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


# -- per-axis harmonics against the dense sum -----------------------------

PERFBENCH_CONFIGS = (
    {"family": "two_particle", "phi": {"constant": 1.0}},
    {"family": "two_particle", "phi": {"constant": 3.0, "cos1": [1, 1, 1]}},
    {"family": "trig_poly",
     "w_table": [{"index": [0, 0, 0], "value": 3.0},
                 {"index": [1, 0, 0], "value": -1.0},
                 {"index": [0, 1, 0], "value": -1.0},
                 {"index": [0, 0, 1], "value": -1.0},
                 {"index": [1, 1, 0], "value": 0.08},
                 {"index": [0, 1, 1], "value": -0.06}],
     "phi_table": [{"index": [0, 0, 0], "value": 1.0},
                   {"index": [1, 0, 1], "value": 0.2, "sin": 0.1}]},
)
MIXED_TABLE = HarmonicTable(
    [(0, 0, 0), (-1, 2, 0), (0, -1, 1), (1, 0, -3), (0, 0, 2), (2, 0, 0)],
    [0.5, -0.3, 0.0, 0.7, 0.25, 0.0], [0.0, 0.4, -0.2, 0.1, 0.0, 0.6])


def _dense_terms(table, x):
    """(k, c, s, phase) with the phase summed over every entry of k."""
    for k, c, s in zip(table.indices, table.cos, table.sin):
        yield k, c, s, k[0] * x[0] + k[1] * x[1] + k[2] * x[2]


def _dense_value(table, x):
    out = 0.0
    for _, c, s, phase in _dense_terms(table, x):
        term = c * np.cos(phase) if c != 0.0 else 0.0
        if s != 0.0:
            term = term + s * np.sin(phase)
        out = out + term
    return out


def _dense_derivatives(table, x):
    shape = np.broadcast(*x).shape
    grad, hess = np.zeros(shape + (3,)), np.zeros(shape + (3, 3))
    for k, c, s, phase in _dense_terms(table, x):
        if not k.any():
            continue
        radial = -c * np.sin(phase) + s * np.cos(phase)
        curv = -c * np.cos(phase) - s * np.sin(phase)
        for i in range(3):
            if k[i] != 0:
                grad[..., i] += k[i] * radial
            for j in range(3):
                if k[i] * k[j] != 0:
                    hess[..., i, j] += k[i] * k[j] * curv
    return grad, hess


def _value(table, x):
    (value,) = harmonic_values((table,), *x)
    return value


def _axis_harmonics(table):
    """True if every index has at most one nonzero component and no axis
    carries two entries: such a table sums in index order, bit for bit."""
    axes = [tuple(np.flatnonzero(k)) for k in table.indices]
    return all(len(a) <= 1 for a in axes) and len(set(axes)) == len(axes)


def _rounding_bound(table, power):
    """60 eps sum_k |k|^power (|c_k| + |s_k|), the bound of
    tests/test_properties.py with the factor |k|^power of a derivative."""
    norm = np.max(np.abs(table.indices), axis=1) ** power
    return 60 * np.finfo(float).eps * np.sum(
        norm * (np.abs(table.cos) + np.abs(table.sin)))


def _assert_close(got, want, bound, shape):
    diff = np.broadcast_to(got, shape) - np.broadcast_to(want, shape)
    assert np.all(np.abs(diff) <= bound)


def _inputs():
    rng = np.random.default_rng(41)
    yield tensor_grid(grid_axis(8))
    yield tuple(np.moveaxis(rng.uniform(-np.pi, np.pi, (5, 4, 3)), -1, 0))
    yield tuple(rng.uniform(-np.pi, np.pi, 3))


def _tables():
    for cfg in PERFBENCH_CONFIGS:
        model = fr.DispersionModel(fr.ModelConfig.from_dict(cfg))
        yield model._w_block
        yield model._phi
    yield MIXED_TABLE


@pytest.mark.parametrize("table", list(_tables()))
def test_sparse_phases_equal_the_dense_sum(table):
    # a table of axis harmonics, at most one per axis, keeps the bits of
    # the dense index-order sum; any other table is within its rounding
    # bound, with an exactly symmetric Hessian
    exact = _axis_harmonics(table)
    for x in _inputs():
        shape = np.broadcast(*x).shape
        ref = np.broadcast_to(_dense_value(table, x), shape)
        grad, hess = _dense_derivatives(table, x)
        got_grad, got_hess = table.derivatives(*x)
        got = np.broadcast_to(_value(table, x), shape)
        if exact:
            assert np.all(got == ref)
            assert np.all(got_grad == grad)
            assert np.all(got_hess == hess)
        else:
            _assert_close(got, ref, _rounding_bound(table, 0), shape)
            _assert_close(got_grad, grad, _rounding_bound(table, 1),
                          grad.shape)
            _assert_close(got_hess, hess, _rounding_bound(table, 2),
                          hess.shape)
        assert np.all(got_hess == np.swapaxes(got_hess, -1, -2))


# a table of axis harmonics: a constant and, per axis, no entry or one of
# order |n| <= 3 (either sign), with sin-only terms and -0.0 among them
_coeff = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
_axis_entry = st.one_of(st.none(), st.tuples(
    st.integers(1, 3), st.sampled_from([1, -1]), _coeff, _coeff))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(constant=_coeff, entries=st.lists(_axis_entry, min_size=3,
                                         max_size=3),
       point=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), min_size=3,
                      max_size=3))
def test_axis_harmonics_keep_the_bits_of_the_dense_sum(constant, entries,
                                                      point):
    idx, cos, sin = [(0, 0, 0)], [constant], [0.0]
    for axis, entry in enumerate(entries):
        if entry is not None:
            n, sign, c, s = entry
            idx.append(tuple(sign * n * np.eye(3, dtype=int)[axis]))
            cos.append(c)
            sin.append(s)
    table = HarmonicTable(idx, cos, sin)
    for x in list(_inputs()) + [tuple(point)]:
        shape = np.broadcast(*x).shape
        assert np.all(np.broadcast_to(_value(table, x), shape)
                      == np.broadcast_to(_dense_value(table, x), shape))
        grad, hess = _dense_derivatives(table, x)
        got_grad, got_hess = table.derivatives(*x)
        assert np.all(got_grad == grad) and np.all(got_hess == hess)


@pytest.mark.parametrize("cfg", PERFBENCH_CONFIGS)
def test_w_derivatives_equal_the_dense_sum(cfg):
    # one pass per table gives the bits of the dense gradient and Hessian
    # of w_p(q) = T(q) + T(p - q) for axis harmonics, and within the
    # rounding bound otherwise; the Hessian is exactly symmetric
    model = fr.DispersionModel(fr.ModelConfig.from_dict(cfg))
    table = model._w_block
    p = np.array([0.7, -0.3, 1.1])
    for x in _inputs():
        q = np.stack(np.broadcast_arrays(*x), axis=-1)
        grad, hess = model.w_derivatives(p, q)
        g, h = _dense_derivatives(table, x)
        g_m, h_m = _dense_derivatives(table, tuple(
            pi - xi for pi, xi in zip(p, x)))
        if _axis_harmonics(table):
            assert np.all(grad == g - g_m) and np.all(hess == h + h_m)
        else:
            _assert_close(grad, g - g_m, 2 * _rounding_bound(table, 1),
                          grad.shape)
            _assert_close(hess, h + h_m, 2 * _rounding_bound(table, 2),
                          hess.shape)
        assert np.all(hess == np.swapaxes(hess, -1, -2))


@pytest.mark.parametrize("table", list(_tables()))
def test_table_on_a_tensor_grid_spans_only_the_axes_it_reads(table):
    used = np.any(table.indices != 0, axis=0)
    expected = () if not used.any() else tuple(8 if u else 1 for u in used)
    assert np.shape(_value(table, tensor_grid(grid_axis(8)))) == expected


@pytest.mark.parametrize("cfg", PERFBENCH_CONFIGS)
def test_model_results_broadcast_to_the_reference(cfg):
    model = fr.DispersionModel(fr.ModelConfig.from_dict(cfg))
    p = np.array([0.7, -0.3, 1.1])
    rng = np.random.default_rng(43)
    for q in (tensor_grid(grid_axis(8)), rng.uniform(-np.pi, np.pi, (6, 3))):
        x = q if isinstance(q, tuple) else tuple(np.moveaxis(q, -1, 0))
        shape = np.broadcast(*x).shape
        phi_ref = _dense_value(model._phi, x)
        w_ref = (_dense_value(model._w_block, x)
                 + _dense_value(model._w_block, tuple(pi - xi for pi, xi
                                                      in zip(p, x))))
        for got, want, table, tables in (
                (model.phi(q), phi_ref, model._phi, 1),
                (model.w(p, q), w_ref, model._w_block, 2)):
            if _axis_harmonics(table):
                assert np.all(np.broadcast_to(got, shape) == want)
            else:
                _assert_close(got, want,
                              tables * _rounding_bound(table, 0), shape)


def test_add_into_writes_in_place_exactly_at_the_broadcast_shape():
    # the shape comparison against np.broadcast_shapes, over every pair of
    # shapes of up to 3 axes of length 1 to 3
    shapes = [s for n in range(4) for s in product((1, 2, 3), repeat=n)]
    for a, t in product(shapes[1:], shapes):
        acc, term = np.ones(a), np.full(t, 2.0)
        try:
            grows = np.broadcast_shapes(a, t) != a
        except ValueError:
            continue
        out = _add_into(acc, term)
        assert (out is acc) == (not grows), (a, t)
        assert np.array_equal(out, np.full(np.broadcast_shapes(a, t), 3.0))
    acc = np.ones(2)
    assert _add_into(acc, 1.5) is acc and _add_into(1.5, acc) is not acc
