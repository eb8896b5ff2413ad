import numpy as np
import pytest

import friedrichs as fr
from friedrichs.torus import wrap_angles


def test_wrap_identity():
    v = fr.TorusVector((0.0, 0.0, 0.0))
    assert v.components == (0.0, 0.0, 0.0)


def test_wrap_single_period_shift():
    v = fr.TorusVector((1.5 * np.pi, 0.0, 0.0))
    assert np.allclose(v.as_array(), [-0.5 * np.pi, 0.0, 0.0], atol=1e-15)


def test_wrap_boundary_convention():
    # -pi is identified with +pi; the representative is +pi
    v = fr.TorusVector((-np.pi, -np.pi, -np.pi))
    assert np.allclose(v.as_array(), [np.pi, np.pi, np.pi], atol=0)
    assert fr.TorusVector((np.pi, np.pi, np.pi)).components == v.components


def test_wrap_periodicity_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-np.pi, np.pi, 3)
        k = rng.integers(-4, 5, 3)
        a = wrap_angles(x)
        b = wrap_angles(x + 2.0 * np.pi * k)
        assert np.allclose(a, b, atol=1e-12)
        # difference from the input is an integer multiple of 2*pi
        mult = (x - a) / (2.0 * np.pi)
        assert np.allclose(mult, np.round(mult), atol=1e-12)


def test_wrap_range_after_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = fr.TorusVector(rng.uniform(-10, 10, 3))
        b = fr.TorusVector(rng.uniform(-10, 10, 3))
        for v in (a + b, a - b, -a, 3.7 * a):
            arr = v.as_array()
            assert np.all(arr > -np.pi) and np.all(arr <= np.pi)


def test_non_finite_rejected():
    with pytest.raises(fr.InvalidInputError):
        fr.TorusVector((np.nan, 0.0, 0.0))
    with pytest.raises(fr.InvalidInputError):
        fr.TorusVector((np.inf, 0.0, 0.0))


def test_torus_distance_uses_wrapping():
    # points on opposite sides of the seam are close on the torus
    d = fr.torus_distance([np.pi - 0.01, 0, 0], [-np.pi + 0.01, 0, 0])
    assert d == pytest.approx(0.02, abs=1e-12)
