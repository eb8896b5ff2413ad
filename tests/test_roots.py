import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize

import friedrichs as fr
from conftest import model_kinds
from friedrichs import oracle, solver
from friedrichs.roots import brentq

RTOL = 4.0 * np.finfo(float).eps
TOLERANCES = [(1e-14, RTOL), (1e-13, RTOL)]  # solver's and oracle's pairs
CASES_PER_KIND = 60


# each objective has its root at r; w is the bracket width and s in
# [0.01, 1000] sets the scale of its values and slopes
def _monotone(x, r, s, w):
    return (x - r) * (1.0 + s * ((x - r) / w) ** 2)


def _concave(x, r, s, w):
    return math.sqrt((1.0 + s) * w + x - r) - math.sqrt((1.0 + s) * w)


def _determinant(x, r, s, w):
    # 1 - c / (x - m) with the pole m just left of the bracket: steep at
    # the left end and flat towards the right, like 1 - mu Omega(p; z)
    return 1.0 - (1.0 + s) * w / (x - r + (1.0 + s) * w)


def _steep(x, r, s, w):
    return math.tanh(1e3 * s * (x - r) / w)


def _flat_ended(x, r, s, w):
    return min(1.0, max(-1.0, 1e2 * s * (r - x) / w))


def _decreasing(x, r, s, w):
    return math.exp(-min(s, 30.0) * (x - r) / w) - 1.0


def _underflowing(x, r, s, w):
    # products of slopes underflow to 0 in the inverse-quadratic step,
    # where C divides by zero and falls back to bisection
    return 1e-170 * _monotone(x, r, s, w)


KINDS = [_monotone, _concave, _determinant, _steep, _flat_ended, _decreasing,
         _underflowing]


def _brackets(kind, seed):
    """(a, b, args) with the root strictly inside [a, b], over many
    magnitudes of the root and bracket widths."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    for _ in range(CASES_PER_KIND):
        r = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
        w = float(10.0 ** rng.uniform(-6, 3))
        s = float(10.0 ** rng.uniform(-2, 3))
        lo, hi = rng.uniform(0.05, 1.0, size=2)
        yield r - float(lo) * w, r + float(hi) * w, (r, s, w)


def _bits(x):
    return type(x).__name__, float(x).hex()


def _traced(finder, f, a, b, args, xtol, rtol):
    """Type and bits of the root and of every point f was evaluated at."""
    xs = []

    def g(x, *fargs):
        xs.append(_bits(x))
        return f(x, *fargs)

    root = finder(g, a, b, args=args, xtol=xtol, rtol=rtol, maxiter=200)
    return _bits(root), xs


@pytest.mark.parametrize("xtol, rtol", TOLERANCES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__[1:])
def test_root_and_evaluations_match_scipy_bitwise(kind, xtol, rtol):
    for a, b, args in _brackets(kind, seed=11):
        ours = _traced(brentq, kind, a, b, args, xtol, rtol)
        ref = _traced(optimize.brentq, kind, a, b, args, xtol, rtol)
        assert ours == ref, (a, b, args)


@pytest.mark.parametrize("xtol, rtol", TOLERANCES)
def test_exact_zero_at_an_endpoint(xtol, rtol):
    for a, b in ((0.25, 3.0), (-3.0, 0.25)):
        for f in (lambda x: x - 0.25, lambda x: 0.25 - x):
            ours = _traced(brentq, f, a, b, (), xtol, rtol)
            assert ours == _traced(optimize.brentq, f, a, b, (), xtol, rtol)
            assert ours[0] == _bits(0.25)
            assert len(ours[1]) == 2


def _solve(f, maxiter=200):
    return brentq(f, 0.0, 1.0, args=(), xtol=1e-14, rtol=RTOL,
                  maxiter=maxiter)


def test_nan_objective_raises_typed_error():
    def f(x):
        return math.nan if 0.2 < x < 0.9 else x - 0.5

    with pytest.raises(fr.BracketingError, match="NaN at x = 0.5"):
        _solve(f)
    with pytest.raises(fr.BracketingError, match="NaN at x = 0.0"):
        _solve(lambda x: math.nan)


def test_missing_sign_change_raises_typed_error():
    with pytest.raises(fr.BracketingError, match="no sign change"):
        _solve(lambda x: x * x + 1.0)


def test_exhausted_iterations_raise_typed_error():
    with pytest.raises(fr.BracketingError,
                       match="no convergence after 3 iterations"):
        _solve(lambda x: math.tanh(1e6 * (x - 1.0 / 3.0)), maxiter=3)


def test_root_failures_are_friedrichs_errors():
    assert issubclass(fr.BracketingError, fr.FriedrichsError)


@pytest.mark.parametrize("p", [(0.7, -0.3, 1.1), (2.0, 0.4, -1.3)])
@pytest.mark.parametrize("kind", ["one", "vanishing", "off_axis"])
def test_package_roots_equal_scipy_brentq_roots(monkeypatch, kind, p):
    model = model_kinds()[kind]
    p = np.array(p)
    cp = fr.find_maximizer(model, p)

    def roots():
        ev = fr.OmegaEvaluator(model, p, cp)
        mu = 2.0 / ev.threshold.value
        energy = fr.solve_eigenvalue(model, p, cp, mu, evaluator=ev)
        lattice = [fr.secular_root(model, p, 3.0 * mu, n) for n in (16, 32)]
        return energy, lattice

    ours = roots()
    monkeypatch.setattr(solver, "brentq", optimize.brentq)
    monkeypatch.setattr(oracle, "brentq", optimize.brentq)
    ref = roots()
    assert ours[0] is not None and None not in ours[1]
    assert [_bits(v) for v in (ours[0], *ours[1])] \
        == [_bits(v) for v in (ref[0], *ref[1])]


def test_package_import_leaves_scipy_optimize_out():
    # a fresh interpreter: the test process has scipy.optimize loaded
    code = ("import sys, friedrichs, friedrichs.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fr.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
