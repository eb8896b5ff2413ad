"""Arithmetic on the 3-torus (-pi, pi]^3.

All momenta live on the torus; addition and scalar multiplication are the
real-vector operations reduced modulo 2*pi per coordinate, with the
convention that -pi wraps to +pi.
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


class TorusVector:
    """A point of (-pi, pi]^3 with wrap-around arithmetic."""

    __slots__ = ("_c",)

    def __init__(self, *components):
        if len(components) == 1:
            components = tuple(np.asarray(components[0], dtype=float).ravel())
        if len(components) != 3:
            raise InvalidInputError("a torus vector needs exactly 3 components")
        wrapped = wrap_angles(np.array(components, dtype=float))
        self._c = (float(wrapped[0]), float(wrapped[1]), float(wrapped[2]))

    @property
    def components(self):
        return self._c

    def as_array(self):
        return np.array(self._c, dtype=float)

    def __iter__(self):
        return iter(self._c)

    def __getitem__(self, i):
        return self._c[i]

    def __add__(self, other):
        o = np.asarray(other if not isinstance(other, TorusVector) else other._c, dtype=float)
        return TorusVector(self.as_array() + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = np.asarray(other if not isinstance(other, TorusVector) else other._c, dtype=float)
        return TorusVector(self.as_array() - o)

    def __rsub__(self, other):
        o = np.asarray(other, dtype=float)
        return TorusVector(o - self.as_array())

    def __neg__(self):
        return TorusVector(-self.as_array())

    def __mul__(self, scalar):
        return TorusVector(self.as_array() * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TorusVector):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return "TorusVector(%r, %r, %r)" % self._c
