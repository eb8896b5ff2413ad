"""Band-edge critical points of the dispersion w_p on the torus.

Locates the global maximizer q0(p) (coarse grid scan + torus-wrapped
Newton polish), certifies non-degeneracy of the Hessian and uniqueness of
the maximum, and computes the band edges M(p) = max w_p and m(p) = min w_p.
One GRID_N^3 scan seeds both the maximum and the minimum search, and each
Newton step reads the gradient and Hessian from one pass over the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMaximumError,
    InvalidInputError,
    NewtonConvergenceError,
    NonUniqueMaximumError,
    UnsupportedFamilyError,
)
from .torus import grid_axis, tensor_grid, torus_distance, wrap_angles

GRID_N = 24              # coarse scan nodes per axis
GRAD_TOL = 1e-12
MAX_NEWTON_ITERS = 50
NONDEG_TOL = 1e-8        # largest Hessian eigenvalue must be <= -tol*(M-m)
UNIQUENESS_GAP = 1e-9    # two maxima within gap*(M-m) => non-unique
_DISTINCT_DIST = 1e-5    # torus distance separating distinct maximizers
_CANDIDATE_WINDOW = 0.05  # grid local maxima within window*(M-m) get polished
_TRUST_RADIUS = 2.0 * np.pi / GRID_N  # longest Newton step: one grid cell


@dataclass(frozen=True, eq=False)
class CriticalPointInfo:
    """Band-edge data at a fixed quasi-momentum p.  find_maximizer builds
    it only for a certified unique non-degenerate maximum."""

    q0: np.ndarray               # wrapped into (-pi, pi]^3
    M: float
    m: float
    hessian: np.ndarray          # q-Hessian A(p) at q0, symmetric 3x3
    det_negA: float
    grad_norm: float
    hessian_eigenvalues: np.ndarray

    @property
    def spread(self):
        return self.M - self.m


def _grid_values(model, p):
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("p = %s is not finite"
                                % (np.asarray(p, dtype=float).tolist(),))
    ax = grid_axis(GRID_N, offset=0)
    return ax, np.broadcast_to(model.w(p, tensor_grid(ax)), (GRID_N,) * 3)


def _local_maxima_mask(vals):
    """Grid nodes that dominate their full 26-point periodic neighborhood,
    i.e. equal their periodic 3x3x3 maximum, taken one axis at a time."""
    peak = vals
    for axis in range(3):
        peak = np.maximum(peak, np.maximum(np.roll(peak, 1, axis),
                                           np.roll(peak, -1, axis)))
    return vals >= peak


def _polish(model, p, x, sign):
    """Newton iteration for a critical point of sign*w_p from x (not
    written), wrapped to the torus.  Returns (x, value, grad_norm, Hessian)."""
    for it in range(MAX_NEWTON_ITERS + 1):
        grad, hess = model.w_derivatives(p, x)
        g = sign * grad
        gn = float(np.linalg.norm(g))
        if gn <= GRAD_TOL:
            return x, float(model.w(p, x)), gn, hess
        if it == MAX_NEWTON_ITERS:
            raise NewtonConvergenceError(
                "no convergence: Newton polish exceeded %d iterations"
                % MAX_NEWTON_ITERS)
        h = sign * hess
        try:
            step = np.linalg.solve(h, -g)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = -np.linalg.pinv(h) @ g
        sn = float(np.linalg.norm(step))
        if sn > _TRUST_RADIUS:
            step *= _TRUST_RADIUS / sn
        x = wrap_angles(x + step)


def _minimum(model, p, ax, vals):
    """m(p) by Newton on -w_p from the lowest node of the scan vals."""
    i, j, k = np.unravel_index(np.argmin(vals), vals.shape)
    try:
        value = _polish(model, p, np.array([ax[i], ax[j], ax[k]]), -1.0)[1]
    except NewtonConvergenceError:
        value = float(vals.min())
    return min(value, float(vals.min()))


def find_minimum(model, p) -> float:
    """Global minimum m(p) of w_p by grid scan plus Newton on -w_p.

    Degeneracy of the minimizer is tolerated; only the value is reported.
    A p with a nan or infinite component raises InvalidInputError.
    """
    return _minimum(model, p, *_grid_values(model, p))


def find_maximizer(model, p) -> CriticalPointInfo:
    """Locate and certify the unique non-degenerate maximizer of w_p.

    A coarse grid scan picks candidate basins (all grid-local maxima close
    to the grid maximum), each is polished by torus-wrapped Newton
    iteration, and the best is certified:

    * gradient norm <= GRAD_TOL at q0,
    * Hessian negative definite (largest eigenvalue <= -NONDEG_TOL*(M-m)),
    * no second polished maximizer within UNIQUENESS_GAP*(M-m) of M at a
      separated torus point.

    Raises DegenerateMaximumError / NonUniqueMaximumError otherwise, and
    InvalidInputError for a p with a nan or infinite component.
    """
    ax, vals = _grid_values(model, p)
    window = _CANDIDATE_WINDOW * float(vals.max() - vals.min())
    mask = _local_maxima_mask(vals) & (vals >= vals.max() - window)
    ii, jj, kk = np.nonzero(mask)
    order = np.argsort(vals[ii, jj, kk])[::-1][:16]
    starts = [np.array([ax[ii[t]], ax[jj[t]], ax[kk[t]]]) for t in order]

    polished = []
    for x0 in starts:
        try:
            polished.append(_polish(model, p, x0, +1.0))
        except NewtonConvergenceError:
            if len(starts) == 1:
                raise
    if not polished:
        raise NewtonConvergenceError("no convergence for any candidate start")

    polished.sort(key=lambda t: t[1], reverse=True)
    x_best, M, grad_norm, hess = polished[0]
    m = _minimum(model, p, ax, vals)
    spread = max(M - m, 0.0)

    eigs = np.linalg.eigvalsh(hess)
    if not eigs[-1] <= -NONDEG_TOL * spread:
        raise DegenerateMaximumError(
            "degenerate maximum: largest Hessian eigenvalue %.3e exceeds "
            "-%.1e*(M-m)" % (eigs[-1], NONDEG_TOL))

    for x, value, _, _ in polished[1:]:
        if (torus_distance(x, x_best) > _DISTINCT_DIST
                and M - value < UNIQUENESS_GAP * spread):
            raise NonUniqueMaximumError(
                "non-unique maximum: second maximizer at torus distance "
                "%.3e with value gap %.3e" % (torus_distance(x, x_best),
                                              M - value))

    return CriticalPointInfo(
        q0=wrap_angles(x_best), M=M, m=m, hessian=hess,
        det_negA=float(np.linalg.det(-hess)), grad_norm=grad_norm,
        hessian_eigenvalues=eigs)


@dataclass(frozen=True)
class ClosedFormCheck:
    q0_delta: float
    M_delta: float


def two_particle_closed_forms(hopping, p):
    """Closed forms for the builtin family: maximizer p/2 + pi, band edge
    and Hessian diag(-2 c_i cos(p_i/2))."""
    c = np.asarray(hopping, dtype=float)
    half = 0.5 * wrap_angles(p)
    q0 = wrap_angles(half + np.pi)
    M = float(np.sum(c * (2.0 + 2.0 * np.abs(np.cos(half)))))
    m = float(np.sum(c * (2.0 - 2.0 * np.abs(np.cos(half)))))
    A = np.diag(-2.0 * c * np.abs(np.cos(half)))
    return q0, M, m, A


def closed_form_check(model, p) -> ClosedFormCheck:
    """Regression guard: numeric maximizer vs. the builtin closed form."""
    if model.family != "two_particle":
        raise UnsupportedFamilyError(
            "closed_form_check requires the two_particle family")
    info = find_maximizer(model, p)
    q0_cf, M_cf, _, _ = two_particle_closed_forms(model.hopping, p)
    return ClosedFormCheck(
        q0_delta=torus_distance(info.q0, q0_cf),
        M_delta=abs(info.M - M_cf))
