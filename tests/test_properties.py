"""Property tests: certification of random tables and symmetries of Omega."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs.critical import GRAD_TOL
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
        model = _even_phi_model(permuted(hopping), constant, permuted(cos1),
                                permuted(cos2))
        q = np.array(permuted(p))
        cp = fr.find_maximizer(model, q)
        thresholds.append(fr.OmegaEvaluator(model, q, cp).threshold)
    a, b = thresholds
    assert abs(a.value - b.value) <= a.estimated_error + b.estimated_error
