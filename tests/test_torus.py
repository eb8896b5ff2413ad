import numpy as np
import pytest

import friedrichs as fr
from friedrichs.torus import wrap_angles


def test_wrap_identity():
    v = wrap_angles((0.0, 0.0, 0.0))
    assert v.tolist() == [0.0, 0.0, 0.0]


def test_wrap_single_period_shift():
    v = wrap_angles((1.5 * np.pi, 0.0, 0.0))
    assert np.allclose(v, [-0.5 * np.pi, 0.0, 0.0], atol=1e-15)


def test_wrap_boundary_convention():
    # -pi is identified with +pi; the representative is +pi
    v = wrap_angles((-np.pi, -np.pi, -np.pi))
    assert np.allclose(v, [np.pi, np.pi, np.pi], atol=0)
    assert wrap_angles((np.pi, np.pi, np.pi)).tolist() == v.tolist()


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
        # every output lies in (-pi, pi]
        ab = np.array([a, b])
        assert np.all(ab > -np.pi) and np.all(ab <= np.pi)


def test_non_finite_rejected():
    with pytest.raises(fr.InvalidInputError):
        wrap_angles((np.nan, 0.0, 0.0))
    with pytest.raises(fr.InvalidInputError):
        wrap_angles((np.inf, 0.0, 0.0))


def test_torus_distance_uses_wrapping():
    # points on opposite sides of the seam are close on the torus
    d = fr.torus_distance([np.pi - 0.01, 0, 0], [-np.pi + 0.01, 0, 0])
    assert d == pytest.approx(0.02, abs=1e-12)
