"""Points and grids on the 3-torus (-pi, pi]^3.

A torus point is a float array of shape (..., 3) whose coordinates are
reduced modulo 2*pi into (-pi, pi] by wrap_angles, with the convention
that -pi wraps to +pi.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * np.pi


def wrap_angles(x):
    """Reduce an array of angles into (-pi, pi] coordinate-wise.

    The output differs from the input by an integer multiple of 2*pi in
    every coordinate.  Raises InvalidInputError on non-finite entries.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("non-finite torus coordinate")
    return arr - TWO_PI * np.ceil((arr - np.pi) / TWO_PI)


def check_momentum(p):
    """p as a float array; InvalidInputError unless every |p_i| <= 2 pi
    (nan and inf fail too): w_p evaluates p - q, which loses q to rounding
    once |p_i| is large."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.abs(p) <= TWO_PI):
        raise InvalidInputError("p = %s is %s" % (p.tolist(), (
            "outside [-2 pi, 2 pi]^3" if np.all(np.isfinite(p))
            else "not finite")))
    return p


def grid_axis(n, offset=0.5):
    """Nodes -pi + 2 pi (j + offset)/n; offset 0.5 is the midpoint grid."""
    return -np.pi + TWO_PI * (np.arange(n) + offset) / n


def tensor_grid(ax):
    """The n^3 tensor grid over one axis as three broadcastable arrays."""
    return ax[:, None, None], ax[None, :, None], ax[None, None, :]


def torus_distance(a, b):
    """Euclidean distance between torus points using wrapped differences."""
    d = wrap_angles(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(np.sqrt(np.sum(d * d, axis=-1)))
