"""Concrete dispersion / form-factor families on the 3-torus.

Both builtin families are finite trigonometric polynomials, so all
derivatives are exact and real-analyticity holds by construction.

* ``two_particle``: w_p(q) = eps(q) + eps(p - q) with
  eps(q) = sum_i c_i (1 - cos q_i), hopping weights c_i > 0, and a form
  factor phi given by a constant plus first (and optionally second)
  axis-aligned harmonics.

* ``trig_poly``: w_p(q) = T(q) + T(p - q) where T and phi are given by
  explicit Fourier tables, entries {index: 3 ints, value: cos coefficient,
  sin: optional sin coefficient}.

Internally every model is lowered to Fourier tables; the family tag is
kept so that ``two_particle`` fibres can take the Laplace-Bessel route.

One code forms a Fourier term: ``harmonic_values`` takes one np.cos and
one np.sin of n x_i per axis i and distinct n = |k_i|, forms each term by
angle addition (``_rotated``) and sums the terms per axis support, in the
order of the table's evaluation plan (built once, with the table).  On a
tensor grid those harmonics are 1-D, and a support sum spans its own axes
only.  ``DispersionModel.w`` is T(q) + T(p - q) from it, ``phi`` its phi
table, and ``HarmonicTable.derivatives`` takes each term's cos and sin
from the same harmonics.  The split quadrature's level build reads w_p
from ``fibre_table(p)``, the one table in q of T(q) + T(p - q), with phi
in one ``harmonic_values`` call; at the near field's polar nodes axis 3
takes one value per radius and cos(theta), so a node of the off-axis
benchmark model costs 4 full-size transcendental calls.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InvalidDispersionError,
    InvalidInputError,
    TrivialFormFactorError,
)
from .torus import check_momentum

MAX_INDEX = 2 ** 31  # |k_i| below it, so k_i k_j stays an int64


def _components(q):
    """Split a point/batch of torus points into coordinate arrays.

    Accepts an array of shape (..., 3) or a tuple/list of three
    broadcastable coordinate arrays (used for tensor grids).
    """
    if isinstance(q, (tuple, list)) and len(q) == 3 and any(
        np.ndim(c) > 0 for c in q
    ):
        return (np.asarray(q[0], float), np.asarray(q[1], float),
                np.asarray(q[2], float))
    arr = np.asarray(q, dtype=float)
    if arr.shape[-1:] != (3,):
        raise InvalidInputError("expected a torus point with 3 components")
    return arr[..., 0], arr[..., 1], arr[..., 2]


def _add_into(acc, term):
    """acc + term, written into acc when acc is an array that already has
    the broadcast shape (the same bits, one array fewer)."""
    if isinstance(acc, np.ndarray) and acc.shape == np.broadcast_shapes(
            acc.shape, np.shape(term)):
        return np.add(acc, term, out=acc)
    return acc + term


class HarmonicTable:
    """Real trigonometric polynomial sum_k [c_k cos(k.x) + s_k sin(k.x)].

    Indices are canonicalised so that -k entries are folded onto k (with the
    sine coefficient negated) and duplicates merged.  The evaluation plan
    is built once: ``supports`` holds the nonzero entries (k, c_k, s_k),
    in index order, grouped by axis support, and ``orders`` the distinct
    nonzero |k_i| of each axis.  The supports are ordered as the binary
    numbers (k_1 != 0, k_2 != 0, k_3 != 0): the constant, axis 3, axis 2,
    axes 2 and 3, axis 1, ...  For a table of axis harmonics that is index
    order, and on a tensor grid a running sum reaches the full grid only
    at the first support that reads axis 1.
    """

    __slots__ = ("indices", "cos", "sin", "supports", "orders")

    def __init__(self, indices, cos, sin=None):
        idx = np.atleast_2d(np.asarray(indices, dtype=int))
        c = np.asarray(cos, dtype=float).ravel()
        s = (np.zeros_like(c) if sin is None
             else np.asarray(sin, dtype=float).ravel())
        if idx.shape != (c.size, 3) or s.size != c.size:
            raise ConfigError("inconsistent Fourier table shapes")
        merged = {}
        for k, ck, sk in zip(idx, c, s):
            key = tuple(int(v) for v in k)
            if key < (0, 0, 0):
                key = tuple(-v for v in key)
                sk = -sk
            if key == (0, 0, 0):
                sk = 0.0  # sin(0) contributes nothing
            prev = merged.get(key, (0.0, 0.0))
            merged[key] = (prev[0] + ck, prev[1] + sk)
        keys = sorted(merged)
        self.indices = np.array(keys, dtype=int).reshape(-1, 3)
        self.cos = np.array([merged[k][0] for k in keys], dtype=float)
        self.sin = np.array([merged[k][1] for k in keys], dtype=float)
        groups = {}
        for k, ck, sk in zip(keys, self.cos, self.sin):
            if ck != 0.0 or sk != 0.0:
                axes = tuple(i for i in range(3) if k[i] != 0)
                groups.setdefault(axes, []).append((k, ck, sk))
        self.supports = sorted(groups.items(), key=lambda g: [
            i in g[0] for i in range(3)])
        self.orders = tuple(
            frozenset(abs(k[i]) for _, terms in self.supports
                      for k, _, _ in terms) - {0} for i in range(3))

    def is_zero(self):
        return not self.supports

    def derivatives(self, x1, x2, x3):
        """(gradient, Hessian) in one pass over the terms, each term's cos
        and sin by angle addition from the per-axis harmonics; a term adds
        k_i k_j times its curvature to both (i, j) and (j, i), so the
        Hessian is exactly symmetric."""
        shape = np.broadcast(x1, x2, x3).shape
        grad, hess = np.zeros(shape + (3,)), np.zeros(shape + (3, 3))
        harmonics = _harmonics((self,), (x1, x2, x3))
        for axes, terms in self.supports:
            if not axes:
                continue  # the constant term
            for k, c, s in terms:
                radial = _rotated(s, -c, k, axes, harmonics)
                curv = _rotated(-c, -s, k, axes, harmonics)
                for i in axes:
                    grad[..., i] += k[i] * radial
                    for j in axes:
                        hess[..., i, j] += k[i] * k[j] * curv
        return grad, hess

    def l2_norm_sq(self):
        """Exact integral of the square over the torus (Parseval)."""
        total = sum(0.5 * (c * c + s * s) if axes else c * c
                    for axes, terms in self.supports for _, c, s in terms)
        return (2.0 * np.pi) ** 3 * total


def _harmonics(tables, xs):
    """Per axis i, {n: (cos n x_i, sin n x_i)} for the distinct nonzero
    n = |k_i| of the tables."""
    harmonics = []
    for i, x in enumerate(xs):
        harmonics.append({})
        for n in frozenset().union(*(t.orders[i] for t in tables)):
            nx = x if n == 1 else n * x
            harmonics[i][n] = np.cos(nx), np.sin(nx)
    return harmonics


def _rotated(a, b, k, axes, harmonics):
    """a cos(k.x) + b sin(k.x), k.x summed over the given axes, by angle
    addition from the per-axis harmonics: with u = |k_i| x_i on the first
    axis i, sign sg of k_i, and v the rest of the phase,
    a cos(sg u + v) + b sin(sg u + v)
        = cos u (a cos v + b sin v) + sin u (sg b cos v - sg a sin v).
    A term is formed in the broadcast shape of its own axes only."""
    axis, rest = axes[0], axes[1:]
    cos_u, sin_u = harmonics[axis][abs(k[axis])]
    sg = 1.0 if k[axis] > 0 else -1.0
    if rest:
        out = cos_u * _rotated(a, b, k, rest, harmonics)
        return _add_into(out, sin_u * _rotated(sg * b, -sg * a, k, rest,
                                               harmonics))
    if b == 0.0:
        return a * cos_u
    if a == 0.0:
        return (sg * b) * sin_u
    return _add_into(a * cos_u, (sg * b) * sin_u)


def harmonic_values(tables, x1, x2, x3):
    """The value of each table at the broadcast of x1, x2, x3, from one
    np.cos and one np.sin of n x_i per axis i and distinct nonzero n =
    |k_i| of all the tables (the 1-D axes of a tensor grid cost next to
    nothing).  The terms of each axis support are summed in the support's
    own broadcast shape, and the support sums are added in plan order, so
    a value does not depend on the shape of the block it is evaluated in.
    A table of axis harmonics, at most one per axis, is summed in index
    order, with the bits of the plain term-by-term sum; at most two sums
    are alive besides the term being formed."""
    harmonics = _harmonics(tables, (x1, x2, x3))
    values = []
    for table in tables:
        out = None
        for axes, terms in table.supports:
            total = None
            for k, c, s in terms:
                term = _rotated(c, s, k, axes, harmonics) if axes else c
                total = term if total is None else _add_into(total, term)
                del term  # no term outlives its addition
            out = total if out is None else _add_into(out, total)
        values.append(0.0 if out is None else out)
    return values


def _real(value, name):
    """A finite float: JSON NaN, Infinity and integers beyond the float
    range are refused here, not left to surface as a quadrature that does
    not converge (the comparison is exact for an int and false for nan)."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError("%s must be a finite number, got %r" % (name, value))


def _reals(values, name):
    if isinstance(values, (list, tuple, np.ndarray)) and len(values) == 3:
        return [_real(v, name) for v in values]
    raise ConfigError("%s must be 3 numbers, got %r" % (name, values))


def _index(values, name):
    """A Fourier index: 3 integers of magnitude below MAX_INDEX; 0.9 is
    refused rather than truncated to 0."""
    k = _reals(values, name)
    if all(v.is_integer() and abs(v) < MAX_INDEX for v in k):
        return [int(v) for v in k]
    raise ConfigError("%s must be 3 integers of magnitude below 2^31, got %r"
                      % (name, values))


def _check_keys(d, allowed, name):
    unknown = [key for key in d if key not in allowed]
    if unknown:
        raise ConfigError("%s: unknown key %r (expected %s)" % (
            name, unknown[0], ", ".join(allowed)))


def _table_from_entries(entries, name):
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError("%s must be a non-empty list: %r" % (name, entries))
    idx, cos, sin = [], [], []
    for e in entries:
        if not isinstance(e, dict) or "index" not in e:
            raise ConfigError("%s entry without an \"index\": %r" % (name, e))
        entry = "%s entry %r" % (name, e)
        _check_keys(e, ("index", "value", "cos", "sin"), entry)
        if "value" in e and "cos" in e:
            raise ConfigError("%s gives both \"value\" and \"cos\"" % entry)
        idx.append(_index(e["index"], name + " index"))
        cos.append(_real(e.get("value", e.get("cos", 0.0)), entry + " value"))
        sin.append(_real(e.get("sin", 0.0), entry + " sin"))
    return HarmonicTable(idx, cos, sin)


FAMILY_KEYS = {"two_particle": ("family", "hopping", "phi"),
               "trig_poly": ("family", "w_table", "phi_table")}
PHI_KEYS = ("constant", "cos1", "sin1", "cos2", "sin2")


@dataclass
class ModelConfig:
    """Serialisable description of a model.

    For ``two_particle``: ``hopping`` are the weights c_i > 0 and ``phi``
    holds {"constant": a0, "cos1": [a_i], "sin1": [b_i], "cos2": ...,
    "sin2": ...} (harmonic blocks may be omitted).  For ``trig_poly``:
    ``w_table`` / ``phi_table`` are lists of Fourier entries.  A key that
    is not one of these is a ConfigError, not ignored.
    """

    family: str
    hopping: tuple = (1.0, 1.0, 1.0)
    phi: dict = field(default_factory=lambda: {"constant": 1.0})
    w_table: list | None = None
    phi_table: list | None = None

    def to_dict(self):
        d = {"family": self.family}
        if self.family == "two_particle":
            d["hopping"] = [float(c) for c in self.hopping]
            d["phi"] = {k: (list(map(float, v)) if isinstance(v, (list, tuple))
                            else float(v))
                        for k, v in self.phi.items()}
        else:
            d["w_table"] = self.w_table
            d["phi_table"] = self.phi_table
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("model config must be an object: %r" % (d,))
        family = d.get("family")
        if family in FAMILY_KEYS:
            _check_keys(d, FAMILY_KEYS[family], "%s config" % family)
        if family == "two_particle":
            return cls(family=family,
                       hopping=d.get("hopping", (1.0, 1.0, 1.0)),
                       phi=d.get("phi", {"constant": 1.0}))
        if family == "trig_poly":
            if "w_table" not in d or "phi_table" not in d:
                raise ConfigError("trig_poly config needs w_table and phi_table")
            return cls(family=family, w_table=d["w_table"],
                       phi_table=d["phi_table"])
        raise ConfigError("unknown model family: %r" % (family,))

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read model config %s: %s" % (path, exc))
        return cls.from_dict(d)


def _phi_table_from_coeffs(phi):
    """Lower the two_particle phi coefficient blocks to a Fourier table."""
    if not isinstance(phi, dict):
        raise ConfigError("phi must be an object, got %r" % (phi,))
    _check_keys(phi, PHI_KEYS, "phi")
    idx = [(0, 0, 0)]
    cos = [_real(phi.get("constant", 0.0), "phi.constant")]
    sin = [0.0]
    eye = np.eye(3, dtype=int)
    for order, (ck, sk) in enumerate((("cos1", "sin1"), ("cos2", "sin2")),
                                     start=1):
        a, b = ([0.0] * 3 if phi.get(k) is None else _reals(phi[k], "phi." + k)
                for k in (ck, sk))
        for i, (ai, bi) in enumerate(zip(a, b)):
            if ai != 0.0 or bi != 0.0:
                idx.append(tuple(order * eye[i]))
                cos.append(ai)
                sin.append(bi)
    return HarmonicTable(idx, cos, sin)


class DispersionModel:
    """Evaluator bundle for w(p, q), its q-derivatives and phi(q).

    Immutable after construction; all evaluators are pure functions, so a
    model instance can be shared freely between concurrent callers.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.family = config.family
        if config.family == "two_particle":
            c = np.array(_reals(config.hopping, "hopping"))
            if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
                raise InvalidDispersionError(
                    "invalid dispersion: hopping weights must be positive")
            self.hopping = tuple(float(v) for v in c)
            # eps(x) = sum_i c_i (1 - cos x_i)
            idx = [(0, 0, 0)] + [tuple(r) for r in np.eye(3, dtype=int)]
            self._w_block = HarmonicTable(idx, [float(np.sum(c))] + list(-c))
            self._phi = _phi_table_from_coeffs(config.phi)
        elif config.family == "trig_poly":
            self.hopping = None
            self._w_block = _table_from_entries(config.w_table, "w_table")
            if self._w_block.is_zero():
                raise InvalidDispersionError("invalid dispersion: empty w table")
            self._phi = _table_from_entries(config.phi_table, "phi_table")
        else:
            raise ConfigError("unknown model family: %r" % (config.family,))
        if self._phi.is_zero():
            raise TrivialFormFactorError("trivial form factor: phi is zero")

    # -- dispersion ---------------------------------------------------

    def w(self, p, q):
        """w_p(q); q may be a single point, an (..., 3) array or a
        3-tuple of broadcastable coordinate arrays.  The result broadcasts
        against q (on a tensor grid it spans the axes the table reads).
        p, here and in w_derivatives, passes torus.check_momentum."""
        p1, p2, p3 = _components(check_momentum(p))
        x1, x2, x3 = _components(q)
        (t_q,) = harmonic_values((self._w_block,), x1, x2, x3)
        (t_pq,) = harmonic_values((self._w_block,), p1 - x1, p2 - x2, p3 - x3)
        return _add_into(t_q, t_pq)

    def fibre_table(self, p):
        """w_p as one table in q: T(q) + T(p - q) = sum_k a_k cos(k.q) +
        b_k sin(k.q) with a_k = c_k (1 + cos k.p) + s_k sin k.p and
        b_k = s_k (1 - cos k.p) + c_k sin k.p, read by the level build.
        It equals w(p, .) up to rounding; w keeps the sum T(q) + T(p - q),
        which for a table of axis harmonics has the bits of the plain
        term-by-term sum."""
        t = self._w_block
        kp = t.indices @ check_momentum(p)
        cos_kp, sin_kp = np.cos(kp), np.sin(kp)
        return HarmonicTable(t.indices,
                             t.cos * (1.0 + cos_kp) + t.sin * sin_kp,
                             t.sin * (1.0 - cos_kp) + t.cos * sin_kp)

    def w_derivatives(self, p, q):
        """Exact q-gradient and exactly symmetric q-Hessian of w_p, shapes
        (..., 3) and (..., 3, 3): one table pass at q and one at p - q."""
        p1, p2, p3 = _components(check_momentum(p))
        x1, x2, x3 = _components(q)
        g, h = self._w_block.derivatives(x1, x2, x3)
        g_m, h_m = self._w_block.derivatives(p1 - x1, p2 - x2, p3 - x3)
        return g - g_m, h + h_m

    # -- form factor --------------------------------------------------

    def phi(self, q):
        """phi(q); broadcasts like w, so a constant phi is 0-d."""
        (phi,) = harmonic_values((self._phi,), *_components(q))
        return phi

    def phi_l2_norm_sq(self):
        """Exact L2(T^3) norm squared of phi."""
        return self._phi.l2_norm_sq()


def two_particle_model(hopping=(1.0, 1.0, 1.0), phi=None) -> DispersionModel:
    """Convenience constructor for the builtin simple-cubic family."""
    return DispersionModel(ModelConfig(
        family="two_particle", hopping=tuple(hopping),
        phi=dict(phi) if phi else {"constant": 1.0}))
