"""Band-edge critical points of the dispersion w_p on the torus.

find_maximizer locates the global maximizer q0(p), certifies that the
maximum is unique and non-degenerate, and computes the band edges
M(p) = max w_p and m(p) = min w_p.  A two_particle fibre takes q0, the
minimizer and the curvatures from closed forms, with no scan.  Any other
takes a GRID_N^3 scan, which seeds both the maximum and the minimum
search, and torus-wrapped Newton polish, each step reading the gradient
and Hessian from one pass over the model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMaximumError,
    NewtonConvergenceError,
    NonUniqueMaximumError,
)
from .torus import (
    check_momentum,
    grid_axis,
    tensor_grid,
    torus_distance,
    wrap_angles,
)

GRID_N = 24              # coarse scan nodes per axis
GRAD_TOL = 1e-12         # gradient bound, scaled by _grad_tol past spread 100
MAX_NEWTON_ITERS = 50
NONDEG_TOL = 1e-8        # largest Hessian eigenvalue must be <= -tol*(M-m)
SPREAD_FLOOR = 64.0 * np.finfo(float).eps  # times sum_j 4 c_j: rounding
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


def _grid_values(model, p):
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


def _grad_tol(vals):
    """GRAD_TOL, scaled by the scan's max - min beyond 100: the gradient's
    rounding floor grows with the magnitude of w_p."""
    return GRAD_TOL * max(1.0, float(vals.max() - vals.min()) / 100.0)


def _polish(model, p, x, sign, grad_tol):
    """Newton iteration for a critical point of sign*w_p from x (not
    written), wrapped to the torus.  Returns (x, value, grad_norm, Hessian)."""
    for it in range(MAX_NEWTON_ITERS + 1):
        grad, hess = model.w_derivatives(p, x)
        g = sign * grad
        gn = float(np.linalg.norm(g))
        if gn <= grad_tol:
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
        value = _polish(model, p, np.array([ax[i], ax[j], ax[k]]), -1.0,
                        _grad_tol(vals))[1]
    except NewtonConvergenceError:
        value = float(vals.min())
    return min(value, float(vals.min()))


def find_maximizer(model, p) -> CriticalPointInfo:
    """Locate and certify the unique non-degenerate maximizer of w_p.

    A two_particle fibre separates by axis: q0, the minimizer and alpha
    come from two_particle_closed_forms, M and m are w_p there, and the
    gradient and Hessian come from one w_derivatives call at q0.  It is
    degenerate when some curvature 2 alpha_j <= NONDEG_TOL*(M-m), or when
    M - m is at rounding level, SPREAD_FLOOR * sum_j 4 c_j (at
    p = (pi, pi, pi) every alpha_j vanishes).  Once every alpha_j > 0
    each axis term has one maximum, so the maximizer is unique by
    construction and NonUniqueMaximumError cannot arise.  Any other model
    goes through _scan_maximizer.

    Raises DegenerateMaximumError / NonUniqueMaximumError when the maximum
    is not certified, and InvalidInputError for a p with some
    |p_i| > 2 pi, nan or inf.
    """
    if model.family != "two_particle":
        return _scan_maximizer(model, p)
    q0, q_min, alpha = two_particle_closed_forms(model.hopping, p)
    M = float(model.w(p, q0))
    m = float(model.w(p, q_min))
    grad, hess = model.w_derivatives(p, q0)
    eigs = np.linalg.eigvalsh(hess)
    spread = max(M - m, 0.0)
    floor = SPREAD_FLOOR * 4.0 * sum(model.hopping)
    if not (2.0 * alpha.min() > NONDEG_TOL * spread and spread > floor):
        _degenerate(eigs)
    return CriticalPointInfo(
        q0=q0, M=M, m=m, hessian=hess, det_negA=float(np.linalg.det(-hess)),
        grad_norm=float(np.linalg.norm(grad)), hessian_eigenvalues=eigs)


def _degenerate(eigs):
    raise DegenerateMaximumError(
        "degenerate maximum: largest Hessian eigenvalue %.3e exceeds "
        "-%.1e*(M-m)" % (eigs[-1], NONDEG_TOL))


def _scan_maximizer(model, p) -> CriticalPointInfo:
    """find_maximizer for any model, from the grid scan.

    A coarse grid scan picks candidate basins (all grid-local maxima close
    to the grid maximum), each is polished by torus-wrapped Newton
    iteration, and the best is certified:

    * gradient norm <= _grad_tol at q0 (GRAD_TOL up to a scan spread 100),
    * Hessian negative definite (largest eigenvalue <= -NONDEG_TOL*(M-m)),
    * no second polished maximizer within UNIQUENESS_GAP*(M-m) of M at a
      separated torus point.
    """
    ax, vals = _grid_values(model, p)
    window = _CANDIDATE_WINDOW * float(vals.max() - vals.min())
    mask = _local_maxima_mask(vals) & (vals >= vals.max() - window)
    ii, jj, kk = np.nonzero(mask)
    order = np.argsort(vals[ii, jj, kk])[::-1][:16]
    starts = [np.array([ax[ii[t]], ax[jj[t]], ax[kk[t]]]) for t in order]

    grad_tol = _grad_tol(vals)
    polished = []
    for x0 in starts:
        try:
            polished.append(_polish(model, p, x0, +1.0, grad_tol))
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
        _degenerate(eigs)

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


def two_particle_closed_forms(hopping, p):
    """(q0, minimizer, alpha) of the builtin family at p, wrapped into
    (-pi, pi]^3: q0 = p/2 + pi, the minimizer p/2 and alpha_j =
    c_j |cos(p_j/2)|, so the Hessian at q0 is diag(-2 alpha_j) and
    M - m = sum_j 4 alpha_j."""
    half = 0.5 * wrap_angles(check_momentum(p))
    alpha = np.asarray(hopping, dtype=float) * np.abs(np.cos(half))
    return wrap_angles(half + np.pi), half, alpha
