"""The streamed level build and blocked reductions against the full-grid
reference: every node array and every sum is bitwise equal, and the peak
memory of a build stays close to what the level keeps."""

import tracemalloc

import numpy as np
import pytest

import friedrichs as fr
from conftest import mixed_model, model_kinds, quadrature_twin
from friedrichs import quadrature
from friedrichs.models import harmonic_orders, harmonic_values
from friedrichs.quadrature import (
    BLOCK,
    _polar_block,
    _sum_over,
    bump_profile,
    sphere_product_rule,
)
from friedrichs.torus import grid_axis, tensor_grid, wrap_angles


def full_grid_level(ev, level):
    """The level build through full-grid temporaries: the reference.  w_p
    and phi are evaluated, as in the build, from the evaluator's fibre
    table and the model's phi table by harmonic_values, here on the whole
    far grid, with the bump on every node, and on all near nodes at once,
    with axes 1 and 2 from the half of the sphere rule (_polar_block).  The
    Hessian model is kept on that half with twice the weights."""
    s = ev.spec
    n_grid = s.n_grid * 2 ** level
    n_rad = s.n_radial * 2 ** level
    n_ang = s.n_angular * 2 ** level
    rho = quadrature.RHO_CAP

    ax = grid_axis(n_grid)
    grid = tensor_grid(ax)
    d1, d2, d3 = (wrap_angles(ax - c) ** 2 for c in ev.q0)
    dist = np.sqrt(d1[:, None, None] + d2[None, :, None] + d3[None, None, :])
    shell = dist < rho
    chi = np.zeros(dist.shape)
    chi[shell] = bump_profile(dist[shell] / rho)
    tables = (ev._w_fibre, ev.model._phi)
    w, phi = harmonic_values(tables, *grid)
    weight = (2.0 * np.pi / n_grid) ** 3 * (1.0 - chi)
    phi2 = np.broadcast_to(np.asarray(phi) ** 2, dist.shape)
    weight = weight * phi2
    keep = weight > 0.0
    far_weight = weight[keep]
    far_w = np.broadcast_to(w, dist.shape)[keep]

    xr, wr = np.polynomial.legendre.leggauss(n_rad)
    r = 0.5 * rho * (xr + 1.0)
    wr = 0.5 * rho * wr
    nu, wa = sphere_product_rule(n_ang)
    shape = (n_rad, n_ang, 2 * n_ang)
    half = nu.reshape(n_ang, 2 * n_ang, 3)[:, :n_ang]
    w, phi = harmonic_values(tables, *_polar_block(
        ev.q0, r[:, None, None], half,
        [harmonic_orders(tables, i) for i in (0, 1)]))
    u = (ev.M - np.broadcast_to(w, shape)).reshape(n_rad, -1)
    phi2_near = np.broadcast_to(np.asarray(phi) ** 2, shape).reshape(n_rad, -1)
    chi = bump_profile(r / rho)
    P = (wr * chi * r * r)[:, None] * wa[None, :] * phi2_near
    R2 = wr * r * r
    half = half.reshape(-1, 3)
    wa = 2.0 * wa.reshape(n_ang, 2 * n_ang)[:, :n_ang].ravel()
    k = 0.5 * np.einsum("ij,jk,ik->i", half, ev._negA, half)
    return {
        "far_weight": far_weight, "far_w": far_w,
        "P": P, "u": u, "k": k, "wa": wa,
        "kr2": k[None, :] * (r ** 2)[:, None],
        "R2wa": R2[:, None] * wa[None, :],
    }


def polar_coordinates(q0, r, half, orders):
    """The three axes of q0 + r nu for radii r in _polar_block's block
    shape, each as coordinates: axes 1 and 2 are q0_i + a, then q0_i - a,
    with a = r nu_i on the half of the sphere rule (orders is not read)."""
    x = [np.concatenate((q0[i] + r * half[:, :, i], q0[i] - r * half[:, :, i]),
                        axis=-1) for i in (0, 1)]
    return x + [q0[2] + r * half[:, :1, 2]]


def full_sum(num, d, power):
    """sum(num / d**power) through the full temporary d: the reference."""
    if power == 2:
        np.multiply(d, d, out=d)
    return float(np.divide(num, d, out=d).sum())


def _evaluator(name, p):
    model = model_kinds()[name]
    return fr.OmegaEvaluator(model, p, fr.find_maximizer(model, p))


def _assert_levels_equal(got, ref):
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].shape == ref[key].shape, key
        assert np.array_equal(got[key], ref[key]), key


@pytest.mark.parametrize("size", [1, 7, 8, 9, 15, 127, 128, 129, 1000,
                                  BLOCK - 1, BLOCK, BLOCK + 1,
                                  2 * BLOCK + 3, 3 * BLOCK + 17, 262143])
@pytest.mark.parametrize("power", [1, 2])
def test_blocked_sum_equals_full_temporary(size, power):
    rng = np.random.default_rng(size)
    num = rng.standard_normal(size) * np.exp(rng.uniform(-20.0, 20.0, size))
    b = rng.uniform(-3.0, 3.0, size)
    for c, op in ((5.0, np.subtract), (3.0, np.add)):
        assert _sum_over(num, c, op, b, power) == full_sum(num, op(c, b),
                                                           power)


@pytest.mark.filterwarnings("error")
def test_blocked_square_overflow_is_silent():
    # a square above the float range is inf and its term adds 0, without a
    # RuntimeWarning; every finite square keeps the full temporary's bits
    rng = np.random.default_rng(11)
    b = rng.uniform(-3.0, 3.0, 3 * BLOCK + 17)
    b[::1000] = -1e160                     # z - w = 1e160: the square is inf
    num = rng.standard_normal(b.size)
    assert _sum_over(num, 1e160, np.subtract, b, 2) == 0.0
    for c in (5.0, 1e150):
        with np.errstate(over="ignore"):
            ref = full_sum(num, c - b, 2)
        assert np.isfinite(ref)
        assert _sum_over(num, c, np.subtract, b, 2) == ref


@pytest.mark.parametrize("power", [1, 2])
def test_blocked_sum_on_level_nodes(ev_one, cp_one, power):
    z = cp_one.M + 0.3
    delta = z - cp_one.M
    for level in (0, 1):
        L = ev_one._level(level)
        assert L["far_weight"].size > BLOCK
        assert L["P"].ndim == 2
        cases = ((L["far_weight"], z, np.subtract, L["far_w"]),
                 (L["P"], delta, np.add, L["u"]),
                 (L["R2wa"], delta, np.add, L["kr2"]))
        for num, c, op, b in cases:
            assert _sum_over(num, c, op, b, power) == full_sum(
                num, op(c, b), power)


@pytest.mark.parametrize("name", ["one", "vanishing", "off_axis"])
def test_streamed_levels_equal_full_grid_build(name):
    ev = _evaluator(name, np.array([0.7, -0.3, 1.1]))
    for level in (0, 1):
        _assert_levels_equal(ev._level(level), full_grid_level(ev, level))


def _traced(call):
    """(result, bytes retained, peak bytes) of call under tracemalloc,
    which counts NumPy's buffers, so the numbers repeat exactly."""
    tracemalloc.start()
    try:
        out = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained, peak


def test_streamed_level_2_equals_full_grid_build():
    # the zone-boundary fibre of the sweeps; the build peaks at most a few
    # blocks above what it keeps (a full-grid temporary is 128 MiB here)
    ev = _evaluator("one", np.array([3.14159, 0.1, -0.2]))
    got, retained, peak = _traced(lambda: ev._build_level(2))
    assert retained >= 350 * 2 ** 20
    assert peak - retained <= 8 * 2 ** 20
    _assert_levels_equal(got, full_grid_level(ev, 2))
    z = ev.M + 1e-3
    for power in (1, 2):
        cases = ((got["far_weight"], z, np.subtract, got["far_w"]),
                 (got["P"], z - ev.M, np.add, got["u"]),
                 (got["R2wa"], z - ev.M, np.add, got["kr2"]))
        for num, c, op, b in cases:
            assert _sum_over(num, c, op, b, power) == full_sum(
                num, op(c, b), power)


def _node_bytes(level):
    """Bytes of the arrays a level keeps, a view counted by its buffer."""
    buffers = {}
    for a in level.values():
        base = a if a.base is None else a.base
        buffers[id(base)] = base.nbytes
    return sum(buffers.values())


@pytest.mark.parametrize("name", ["one", "off_axis"])
def test_level_1_build_peaks_near_what_it_keeps(name):
    # the full-grid build peaks 52-68 MiB above the 44 MiB it keeps, and
    # one full-grid temporary is 16 MiB; a build that leaves a reference
    # cycle keeps its last block's temporaries past the return
    ev = _evaluator(name, np.array([0.7, -0.3, 1.1]))
    got, retained, peak = _traced(lambda: ev._build_level(1))
    assert 40 * 2 ** 20 <= retained <= _node_bytes(got) + 2 ** 20
    assert peak - retained <= 8 * 2 ** 20


@pytest.mark.parametrize("name, p, levels", [
    ("off_axis", (0.7, -0.3, 1.1), (0, 1)),
    ("off_axis", (-2.2, 1.9, 0.4), (0,)),
    ("one", (0.7, -0.3, 1.1), (0,)),
    ("vanishing", (0.0, 0.0, 0.0), (0,)),
    ("mixed", (1.3, -0.6, 2.1), (0,)),
])
def test_fibre_table_levels_match_model_levels(monkeypatch, name, p, levels):
    # a level built through model.w and model.phi, term by term at every
    # node, against the build through the fibre table: the trig_poly
    # twins' and the off-axis model's values at a level move by rounding
    model = mixed_model() if name == "mixed" else model_kinds()[name]
    model = model if model.family == "trig_poly" else quadrature_twin(model)
    p = np.array(p)
    cp = fr.find_maximizer(model, p)
    ev, ref = (fr.OmegaEvaluator(model, p, cp) for _ in range(2))
    # the coordinates of every node reach the redirect: the near field's
    # blocks give axes 1 and 2 as coordinates, not as harmonics
    monkeypatch.setattr(quadrature, "_polar_block", polar_coordinates)
    monkeypatch.setattr(quadrature, "harmonic_values",
                        lambda tables, *x: (model.w(p, x), model.phi(x)))
    for level in levels:
        ref._level(level)
    monkeypatch.undo()
    for level in levels:
        for delta in (0.0, 1e-4, 1e-2, 0.3):
            got = ev.value_at_level(cp.M + delta, level)
            want = ref.value_at_level(cp.M + delta, level)
            assert all(abs(g - v) <= 1e-10 * abs(want[0])
                       for g, v in zip(got, want))


def test_warm_reduction_allocates_one_block():
    # the full temporaries of a level-1 reduction are 16 MiB
    ev = _evaluator("one", np.array([0.7, -0.3, 1.1]))
    ev._level(1)
    _, _, peak = _traced(lambda: ev.value_at_level(ev.M + 0.1, 1))
    assert peak <= 2 ** 20


@pytest.mark.parametrize("n", [4, 5, 26, 52, 104])
def test_sphere_rule_antipodes_are_nodes(n):
    # the antipode of direction (j, f) is (n - 1 - j, f + n mod 2n), bit for
    # bit and with the same weight, which the near field's half rests on
    nu, wa = sphere_product_rule(n)
    j, f = np.divmod(np.arange(2 * n * n), 2 * n)
    anti = (n - 1 - j) * 2 * n + (f + n) % (2 * n)
    assert np.array_equal(nu[anti], -nu)
    assert np.array_equal(wa[anti], wa)


@pytest.mark.parametrize("name", ["one", "vanishing", "off_axis", "mixed"])
def test_near_harmonics_by_angle_addition(name):
    # cos and sin of n (q0_i +- r nu_i) from the half of the rule, against
    # np.cos and np.sin at the node's coordinate: the mixed model's phi has
    # order 2, and at p = 0 the maximizer is q0 = (pi, pi, pi)
    model = mixed_model() if name == "mixed" else model_kinds()[name]
    eps = np.finfo(float).eps
    for p in (np.array([0.7, -0.3, 1.1]), np.zeros(3)):
        ev = fr.OmegaEvaluator(model, p, fr.find_maximizer(model, p))
        tables = (ev._w_fibre, model._phi)
        orders = [harmonic_orders(tables, i) for i in (0, 1)]
        assert 2 in orders[0] or name != "mixed"
        for level in (0, 1):
            n_rad = ev.spec.n_radial * 2 ** level
            n_ang = ev.spec.n_angular * 2 ** level
            xr, _ = np.polynomial.legendre.leggauss(n_rad)
            r = 0.5 * quadrature.RHO_CAP * (xr + 1.0)
            nu, _ = sphere_product_rule(n_ang)
            half = nu.reshape(n_ang, 2 * n_ang, 3)[:, :n_ang]
            x = polar_coordinates(ev.q0, r[:, None, None], half, orders)
            harmonics = _polar_block(ev.q0, r[:, None, None], half, orders)
            assert np.array_equal(harmonics[2], x[2])
            for i in (0, 1):
                assert np.array_equal(x[i].reshape(n_rad, -1),
                                      ev.q0[i] + r[:, None] * nu[:, i])
                assert sorted(harmonics[i]) == orders[i]
                for n, (cos, sin) in harmonics[i].items():
                    assert np.max(np.abs(cos - np.cos(n * x[i]))) <= 8 * eps
                    assert np.max(np.abs(sin - np.sin(n * x[i]))) <= 8 * eps


@pytest.mark.parametrize("name", ["one", "off_axis", "mixed"])
def test_near_blocks_form_no_axis_1_2_coordinates(monkeypatch, name):
    # a near-field block passes harmonic_values the harmonics of axes 1 and
    # 2, never their coordinates; the far field passes 1-D slab axes
    model = mixed_model() if name == "mixed" else model_kinds()[name]
    p = np.array([0.7, -0.3, 1.1])
    ev = fr.OmegaEvaluator(model, p, fr.find_maximizer(model, p))
    calls = []

    def spy(tables, *x):
        calls.append(x)
        return harmonic_values(tables, *x)

    monkeypatch.setattr(quadrature, "harmonic_values", spy)
    ev._level(0)
    near = [x for x in calls if isinstance(x[0], dict)]
    n_ang = ev.spec.n_angular
    rows = max(1, BLOCK // 2 // (2 * n_ang ** 2))
    assert len(near) == -(-ev.spec.n_radial // rows)
    for x in near:
        assert isinstance(x[1], dict)
        assert x[2].shape[1:] == (n_ang, 1)
    for x in calls:
        if not isinstance(x[0], dict):
            assert all(np.size(c) == max(np.shape(c)) for c in x)


@pytest.mark.parametrize("name", ["one", "off_axis"])
def test_half_rule_hessian_model_equals_full_rule(name):
    # the Hessian model's sum and closed form over half the directions with
    # twice the weights, against the same sums over the whole sphere rule
    ev = _evaluator(name, np.array([0.7, -0.3, 1.1]))
    for level in (0, 1):
        L = ev._level(level)
        n_rad = ev.spec.n_radial * 2 ** level
        xr, wr = np.polynomial.legendre.leggauss(n_rad)
        r = 0.5 * quadrature.RHO_CAP * (xr + 1.0)
        wr = 0.5 * quadrature.RHO_CAP * wr
        nu, wa = sphere_product_rule(ev.spec.n_angular * 2 ** level)
        k = 0.5 * np.einsum("ij,jk,ik->i", nu, ev._negA, nu)
        kr2, R2wa = np.outer(r * r, k), np.outer(wr * r * r, wa)
        assert 2 * L["k"].size == k.size and 2 * L["kr2"].size == kr2.size
        for delta in (0.0, 1e-4, 1e-2, 0.3):
            for power in (1, 2) if delta else (1,):
                pairs = ((_sum_over(L["R2wa"], delta, np.add, L["kr2"], power),
                          full_sum(R2wa, delta + kr2, power)),
                         (np.sum(L["wa"] * quadrature._radial_closed_form(
                             delta, L["k"], quadrature.RHO_CAP, power)),
                          np.sum(wa * quadrature._radial_closed_form(
                              delta, k, quadrature.RHO_CAP, power))))
                for half, full in pairs:
                    assert abs(half - full) <= 1e-14 * abs(full)


@pytest.mark.parametrize("name, p, rho", [
    ("one", (0.0, 0.0, 0.0), None),         # q0 = (pi, pi, pi): the box wraps
    ("off_axis", (2.9, -0.4, 0.3), None),
    ("vanishing", (0.7, -0.3, 1.1), 0.3),   # a box of a few nodes per axis
    ("vanishing", (0.7, -0.3, 1.1), 0.05),  # no node within rho on axis 1
])
def test_far_field_bump_in_box_equals_whole_grid(monkeypatch, name, p, rho):
    if rho is not None:
        monkeypatch.setattr(quadrature, "RHO_CAP", rho)
    model = model_kinds()[name]
    p = np.array(p)
    ev = fr.OmegaEvaluator(model, p, fr.find_maximizer(model, p),
                           fr.QuadratureSpec(n_grid=16))
    for level in (0, 1):
        got, ref = ev._level(level), full_grid_level(ev, level)
        for key in ("far_weight", "far_w"):
            assert np.array_equal(got[key], ref[key]), key
