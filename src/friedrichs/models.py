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
kept so that ``two_particle`` fibres can take the Laplace-Bessel route.  One
pass over a table's terms gives both its gradient and its Hessian.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InvalidDispersionError,
    InvalidInputError,
    TrivialFormFactorError,
)
from .torus import check_momentum


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


def _phase(k, x1, x2, x3):
    """k.x summed over the nonzero components of k only: an axis harmonic
    on a tensor grid costs one axis, and the exact zeros left out change
    no rounding.  0.0 for k = 0."""
    terms = [ki * xi for ki, xi in zip(k, (x1, x2, x3)) if ki != 0]
    return sum(terms[1:], terms[0]) if terms else 0.0


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
    sine coefficient negated) and duplicates merged.
    """

    __slots__ = ("indices", "cos", "sin")

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

    def is_zero(self):
        return bool(np.all(self.cos == 0.0) and np.all(self.sin == 0.0))

    def value(self, x1, x2, x3):
        """The sum at the broadcast of x1, x2, x3, added term by term in
        index order; a term is added into the running sum once that sum
        spans the broadcast shape."""
        out = 0.0
        for k, c, s in zip(self.indices, self.cos, self.sin):
            phase = _phase(k, x1, x2, x3)
            term = 0.0
            if c != 0.0:
                term = c * np.cos(phase)
            if s != 0.0:
                term = _add_into(term, s * np.sin(phase))
            out = _add_into(out, term)
        return out

    def derivatives(self, x1, x2, x3):
        """(gradient, exactly symmetric Hessian) in one pass over the terms."""
        shape = np.broadcast(x1, x2, x3).shape
        grad, hess = np.zeros(shape + (3,)), np.zeros(shape + (3, 3))
        for k, c, s in zip(self.indices, self.cos, self.sin):
            if k[0] == 0 and k[1] == 0 and k[2] == 0:
                continue
            phase = _phase(k, x1, x2, x3)
            sin, cos = np.sin(phase), np.cos(phase)
            radial, curv = -c * sin + s * cos, -c * cos - s * sin
            for i in range(3):
                if k[i] != 0:
                    grad[..., i] += k[i] * radial
                for j in range(3):
                    if k[i] * k[j] != 0:
                        hess[..., i, j] += k[i] * k[j] * curv
        return grad, hess

    def l2_norm_sq(self):
        """Exact integral of the square over the torus (Parseval)."""
        total = 0.0
        for k, c, s in zip(self.indices, self.cos, self.sin):
            if k[0] == 0 and k[1] == 0 and k[2] == 0:
                total += c * c
            else:
                total += 0.5 * (c * c + s * s)
        return (2.0 * np.pi) ** 3 * total


def _real(value, name):
    if isinstance(value, numbers.Real):
        return float(value)
    raise ConfigError("%s must be a number, got %r" % (name, value))


def _reals(values, name):
    if isinstance(values, (list, tuple, np.ndarray)) and len(values) == 3:
        return [_real(v, name) for v in values]
    raise ConfigError("%s must be 3 numbers, got %r" % (name, values))


def _table_from_entries(entries, name):
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError("%s must be a non-empty list: %r" % (name, entries))
    idx, cos, sin = [], [], []
    for e in entries:
        if not isinstance(e, dict) or "index" not in e:
            raise ConfigError("%s entry without an \"index\": %r" % (name, e))
        idx.append(_reals(e["index"], name + " index"))
        cos.append(_real(e.get("value", e.get("cos", 0.0)), name + " value"))
        sin.append(_real(e.get("sin", 0.0), name + " sin"))
    return HarmonicTable(idx, cos, sin)


@dataclass
class ModelConfig:
    """Serialisable description of a model.

    For ``two_particle``: ``hopping`` are the weights c_i > 0 and ``phi``
    holds {"constant": a0, "cos1": [a_i], "sin1": [b_i], "cos2": ...,
    "sin2": ...} (harmonic blocks may be omitted).  For ``trig_poly``:
    ``w_table`` / ``phi_table`` are lists of Fourier entries.
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

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

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
        return _add_into(self._w_block.value(x1, x2, x3),
                         self._w_block.value(p1 - x1, p2 - x2, p3 - x3))

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
        x1, x2, x3 = _components(q)
        return self._phi.value(x1, x2, x3)

    def phi_l2_norm_sq(self):
        """Exact L2(T^3) norm squared of phi."""
        return self._phi.l2_norm_sq()

    def scaled_phi(self, factor):
        """A copy of the model with phi replaced by factor * phi."""
        cfg = ModelConfig.from_dict(self.config.to_dict())
        if cfg.family == "two_particle":
            cfg.phi = {
                k: ([factor * x for x in v] if isinstance(v, (list, tuple))
                    else factor * v)
                for k, v in cfg.phi.items()}
        else:
            cfg.phi_table = [
                {"index": e["index"],
                 "value": factor * e.get("value", e.get("cos", 0.0)),
                 "sin": factor * e.get("sin", 0.0)}
                for e in cfg.phi_table]
        return DispersionModel(cfg)


def two_particle_model(hopping=(1.0, 1.0, 1.0), phi=None) -> DispersionModel:
    """Convenience constructor for the builtin simple-cubic family."""
    return DispersionModel(ModelConfig(
        family="two_particle", hopping=tuple(hopping),
        phi=dict(phi) if phi else {"constant": 1.0}))
