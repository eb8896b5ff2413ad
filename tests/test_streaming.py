"""The streamed level build and blocked reductions against the full-grid
reference: every node array and every sum is bitwise equal, and the peak
memory of a build stays close to what the level keeps."""

import tracemalloc

import numpy as np
import pytest

import friedrichs as fr
from conftest import model_kinds
from friedrichs.quadrature import (
    BLOCK,
    _sum_over,
    bump_profile,
    sphere_product_rule,
)
from friedrichs.torus import grid_axis, tensor_grid, wrap_angles


def full_grid_level(ev, level):
    """The level build through full-grid temporaries: the reference."""
    s = ev.spec
    n_grid = s.n_grid * 2 ** level
    n_rad = s.n_radial * 2 ** level
    n_ang = s.n_angular * 2 ** level
    rho = ev.rho

    ax = grid_axis(n_grid)
    grid = tensor_grid(ax)
    d1, d2, d3 = (wrap_angles(ax - c) ** 2 for c in ev.q0)
    dist = np.sqrt(d1[:, None, None] + d2[None, :, None] + d3[None, None, :])
    shell = dist < rho
    chi = np.zeros(dist.shape)
    chi[shell] = bump_profile(dist[shell] / rho)
    weight = (2.0 * np.pi / n_grid) ** 3 * (1.0 - chi)
    phi2 = np.broadcast_to(np.asarray(ev.model.phi(grid)) ** 2, dist.shape)
    weight = weight * phi2
    keep = weight > 0.0
    far_weight = weight[keep]
    far_w = np.broadcast_to(ev.model.w(ev.p, grid), dist.shape)[keep]

    xr, wr = np.polynomial.legendre.leggauss(n_rad)
    r = 0.5 * rho * (xr + 1.0)
    wr = 0.5 * rho * wr
    nu, wa = sphere_product_rule(n_ang)
    pts = ev.q0[None, None, :] + r[:, None, None] * nu[None, :, :]
    u = ev.M - np.asarray(ev.model.w(ev.p, pts))
    phi2_near = np.asarray(ev.model.phi(pts)) ** 2
    chi = bump_profile(r / rho)
    P = (wr * chi * r * r)[:, None] * wa[None, :] * phi2_near
    R2 = wr * r * r
    k = 0.5 * np.einsum("ij,jk,ik->i", nu, ev._negA, nu)
    return {
        "far_weight": far_weight, "far_w": far_w,
        "P": P, "u": u, "k": k, "wa": wa,
        "kr2": k[None, :] * (r ** 2)[:, None],
        "R2wa": R2[:, None] * wa[None, :],
    }


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
    assert retained >= 380 * 2 ** 20
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


def test_level_1_build_peaks_near_what_it_keeps():
    # the full-grid build peaks 52-68 MiB above the 48 MiB it keeps, and
    # one full-grid temporary is 16 MiB
    ev = _evaluator("one", np.array([0.7, -0.3, 1.1]))
    _, retained, peak = _traced(lambda: ev._build_level(1))
    assert retained >= 40 * 2 ** 20
    assert peak - retained <= 8 * 2 ** 20


def test_warm_reduction_allocates_one_block():
    # the full temporaries of a level-1 reduction are 16 MiB
    ev = _evaluator("one", np.array([0.7, -0.3, 1.1]))
    ev._level(1)
    _, _, peak = _traced(lambda: ev.value_at_level(ev.M + 0.1, 1))
    assert peak <= 2 ** 20
