"""Property tests: certification of random tables, the fibre table against
the model, and symmetries, monotonicity in z and phi-scaling of Omega."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import friedrichs as fr
from conftest import mixed_model, model_kinds, quadrature_twin, scaled_phi
from friedrichs.critical import GRAD_TOL
from friedrichs.models import harmonic_values
from friedrichs.quadrature import _polar_block, sphere_product_rule
from friedrichs.torus import grid_axis, tensor_grid

_settings = settings(derandomize=True, database=None, deadline=None)

_hopping = st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3)
_index = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
_harmonics = st.lists(
    st.tuples(_index, st.floats(-0.6, 0.6), st.floats(-0.3, 0.3)),
    max_size=3)
_momentum = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)
# keep the fibres off the zone boundary, where the maximum degenerates
_inner_momentum = st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3)
_axis_coeffs = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)
_kind = st.sampled_from(["one", "vanishing", "off_axis"])
# coefficients of random tables: sin-only terms and -0.0 among them
_coeff = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
_rows = st.lists(
    st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
              _coeff, _coeff), min_size=1, max_size=5)
_wide_momentum = st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi),
                          min_size=3, max_size=3)
# |harmonic_values - model.w or model.phi| <= C eps sum_k (|c_k| + |s_k|) of
# the model's table; 3,000 random tables of this strategy's kind, with p
# and q as here, reached C = 60 for w and 12 for phi
FIBRE_TABLE_C = 128


@_settings
@given(hopping=_hopping, harmonics=_harmonics, p=_momentum)
def test_random_trig_poly_certifies_or_raises(hopping, harmonics, p):
    table = [{"index": list(row), "value": -c}
             for row, c in zip(np.eye(3, dtype=int).tolist(), hopping)]
    table += [{"index": k, "value": a, "sin": b} for k, a, b in harmonics]
    model = fr.DispersionModel(fr.ModelConfig.from_dict({
        "family": "trig_poly", "w_table": table,
        "phi_table": [{"index": [0, 0, 0], "value": 1.0}]}))
    try:
        cp = fr.find_maximizer(model, p)
    except fr.ModelValidityError:
        return
    scan = np.max(model.w(p, tensor_grid(grid_axis(64))))
    assert cp.M >= scan - 1e-9 * max(1.0, cp.M - cp.m)
    assert cp.grad_norm <= GRAD_TOL


def _table_model(w_rows, phi_rows):
    def entries(rows):
        return [{"index": k, "value": c, "sin": s} for k, c, s in rows]
    try:
        return fr.DispersionModel(fr.ModelConfig.from_dict({
            "family": "trig_poly", "w_table": entries(w_rows),
            "phi_table": entries(phi_rows)}))
    except (fr.InvalidDispersionError, fr.TrivialFormFactorError):
        return None  # a table whose terms all vanish


@settings(_settings, max_examples=80)
@given(w_rows=_rows, phi_rows=_rows, mixed=st.booleans(), p=_wide_momentum,
       q=_momentum, radii=st.lists(st.floats(0.0, 1.0), min_size=2,
                                   max_size=2))
def test_fibre_table_matches_the_model(w_rows, phi_rows, mixed, p, q, radii):
    # the level build's evaluation (w_p from model.fibre_table, phi from its
    # table, both by harmonic_values) against model.w and model.phi, on a
    # tensor-grid slab, a near-field block of rays and a single point
    model = mixed_model() if mixed else _table_model(w_rows, phi_rows)
    assume(model is not None)
    p, q = np.array(p), np.array(q)
    tables = (model.fibre_table(p), model._phi)
    grid = tensor_grid(grid_axis(16))
    nu, _ = sphere_product_rule(4)
    blocks = ((grid[0][5:9],) + grid[1:],
              _polar_block(q, np.array(radii)[:, None], nu, (2, 4, 8)),
              tuple(q))
    eps = np.finfo(float).eps
    for x in blocks:
        shape = np.broadcast(*x).shape
        w, phi = harmonic_values(tables, *x)
        point = x if shape else q
        for got, want, table in ((w, model.w(p, point), model._w_block),
                                 (phi, model.phi(point), model._phi)):
            bound = FIBRE_TABLE_C * eps * np.sum(np.abs(table.cos)
                                                 + np.abs(table.sin))
            diff = np.broadcast_to(got, shape) - np.broadcast_to(want, shape)
            assert np.all(np.abs(diff) <= bound)


def _even_phi_model(hopping, constant, cos1, cos2):
    return fr.two_particle_model(hopping=hopping, phi={
        "constant": constant, "cos1": cos1, "cos2": cos2})


@settings(_settings, max_examples=25)
@given(hopping=_hopping, constant=st.floats(0.5, 2.0), cos1=_axis_coeffs,
       cos2=_axis_coeffs, p=_inner_momentum)
def test_omega_is_even_in_p(hopping, constant, cos1, cos2, p):
    model = _even_phi_model(hopping, constant, cos1, cos2)
    values = []
    for q in (np.array(p), -np.array(p)):
        cp = fr.find_maximizer(model, q)
        ev = fr.OmegaEvaluator(model, q, cp)
        values.append(ev.value_at_level(cp.M, 0)[0])
    assert abs(values[1] - values[0]) <= 1e-10 * abs(values[0])


@settings(_settings, max_examples=4)
@given(hopping=_hopping, constant=st.floats(0.5, 2.0), cos1=_axis_coeffs,
       cos2=_axis_coeffs, p=_inner_momentum,
       perm=st.permutations([0, 1, 2]))
def test_omega_is_invariant_under_axis_permutation(hopping, constant, cos1,
                                                   cos2, p, perm):
    thresholds = []
    for order in ([0, 1, 2], perm):
        def permuted(v):
            return [v[i] for i in order]
        model = quadrature_twin(_even_phi_model(
            permuted(hopping), constant, permuted(cos1), permuted(cos2)))
        q = np.array(permuted(p))
        cp = fr.find_maximizer(model, q)
        thresholds.append(fr.OmegaEvaluator(model, q, cp).threshold)
    a, b = thresholds
    assert abs(a.value - b.value) <= a.estimated_error + b.estimated_error


def _fibre(kind, p):
    model = model_kinds()[kind]
    p = np.array(p)
    cp = fr.find_maximizer(model, p)
    return model, p, cp, fr.OmegaEvaluator(model, p, cp)


@settings(_settings, max_examples=12)
@given(kind=_kind, p=_inner_momentum)
def test_omega_is_strictly_decreasing_in_z(kind, p):
    # delta doubles from 1e-6 to about 1e12, through the series branch of
    # the radial closed form
    _, _, cp, ev = _fibre(kind, p)
    deltas = np.concatenate([[0.0], 1e-6 * 2.0 ** np.arange(61)])
    values = [ev.value_at_level(cp.M + d, 0)[0] for d in deltas]
    assert all(b < a for a, b in zip(values, values[1:]))


@settings(_settings, max_examples=12)
@given(kind=_kind, p=_inner_momentum, a=st.floats(0.05, 20.0))
def test_scaled_phi_scales_omega_by_its_square(kind, p, a):
    model, p, cp, ev = _fibre(kind, p)
    scaled = fr.OmegaEvaluator(scaled_phi(model, a), p, cp)
    want = a * a * ev.value_at_level(cp.M, 0)[0]
    got = scaled.value_at_level(cp.M, 0)[0]
    assert abs(got - want) <= 1e-13 * abs(want)
