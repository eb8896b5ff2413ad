"""Finite-lattice brute-force oracle.

Discretises the torus to an N^3 midpoint momentum grid and studies the
diagonal-plus-rank-one matrix H_N = diag(w_p(q_j)) + mu h^3 v v^T with
v_j = phi(q_j), h = 2 pi / N.  Eigenvalues of H_N above the discrete band
top solve the secular equation 1 = mu h^3 sum_j phi^2(q_j)/(z - w_p(q_j)),
which is monotone in z and solved by bracketing.  The midpoint grid keeps
q0(p) off the nodes for generic p, so threshold sums stay finite.

This module is deliberately independent of the production quadrature: it
provides the ground truth the solver is validated against, including
Richardson-extrapolated threshold sums.  It shares with the quadrature only
the summation primitive of friedrichs.sums: each lattice sum
sum phi^2/(z - w) is formed block by block in one scratch buffer along
NumPy's pairwise-summation split, so it is bitwise the sum of the full N^3
temporary while no N^3 temporary is made per evaluation.  One helper,
_lattice, evaluates w and phi on the grid for every routine.  phi (and
phi^2) stays a scalar when phi is constant, and model.w adds its axis
support sums and its p - q table in place, so secular_root peaks at 2.0
float64 N^3 arrays for phi = 1 and 2.3 for the vanishing phi and for an
off-axis trig_poly (tracemalloc at N = 64: w, phi^2 and the temporaries
of evaluating w); _lattice alone peaks at 2.0 at N = 128 for all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_coupling
from .roots import brentq
from .sums import _sum_over
from .torus import grid_axis, tensor_grid

DENSE_N_MAX = 12
SECULAR_N_MAX = 256      # secular_root peaks at 2.0-2.3 float64 N^3 arrays


def _secular_size(N):
    return N >= 8 and N % 2 == 0


def check_lattice_size(N, dense=False):
    """Raise InvalidInputError unless secular_root (even 8 <= N <=
    SECULAR_N_MAX) or, with dense=True, dense_spectrum
    (1 <= N <= DENSE_N_MAX) accepts N."""
    if not dense:
        if not _secular_size(N):
            raise InvalidInputError("secular_root requires even N >= 8")
        if N > SECULAR_N_MAX:
            raise InvalidInputError(
                "secular_root limited to N <= %d (N^3 grid)" % SECULAR_N_MAX)
    elif N < 1:
        raise InvalidInputError("dense_spectrum requires N >= 1, got %d" % N)
    elif N > DENSE_N_MAX:
        raise InvalidInputError(
            "dense_spectrum limited to N <= %d (matrix size N^3)" % DENSE_N_MAX)


def _lattice(model, p, N, offset=0.5):
    """(w, phi) over the N^3 grid: w flattened, phi 0-d when phi is
    constant and flattened otherwise.  w is evaluated first, so the
    evaluation of phi never overlaps its temporaries, and a phi that spans
    fewer axes is materialised once (the callers square it in place)."""
    grid = tensor_grid(grid_axis(N, offset))
    w = np.broadcast_to(model.w(p, grid), (N, N, N)).ravel()
    phi = np.asarray(model.phi(grid), dtype=float)
    if phi.size == 1:
        return w, phi.reshape(())
    if phi.shape != (N, N, N):
        phi = np.broadcast_to(phi, (N, N, N)).ravel()
    return w, phi.reshape(-1)


def discrete_omega(model, p, z, N, offset=0.5):
    """Plain lattice sum h^3 sum phi^2/(z - w); requires z - w > 0 at all
    nodes (z >= M(p) with the maximizer off the grid)."""
    w, phi = _lattice(model, p, N, offset)
    phi2 = np.multiply(phi, phi, out=phi)
    # rounding is monotone: min(z - w) is z - max(w)
    if z - np.max(w) <= 0.0:
        raise InvalidInputError(
            "discrete sum undefined: z - w_p <= 0 at a grid node")
    return (2.0 * np.pi / N) ** 3 * _sum_over(phi2, z, np.subtract, w, 1)


def richardson_omega_threshold(model, p, M, N_pair=(64, 128), offset=0.5):
    """Threshold sums at two grids plus 1/N Richardson extrapolation.

    The midpoint-sum error at the band edge is c/N + O(N^-2); for the pair
    (N, 2N) the extrapolant is 2 S_{2N} - S_N.  Returns (S_N, S_2N, R).
    """
    n1, n2 = N_pair
    if n2 != 2 * n1:
        raise InvalidInputError("Richardson pair must be (N, 2N)")
    s1 = discrete_omega(model, p, M, n1, offset)
    s2 = discrete_omega(model, p, M, n2, offset)
    return s1, s2, 2.0 * s2 - s1


EDGE_RESOLUTION_FRACTION = 0.01


def _secular_det(z, mu_h3, phi2, w, z_known=None, det_known=None):
    # module level, with the lattice arrays in brentq's args: nothing else
    # holds them, so reference counting frees them when secular_root
    # returns (test_secular_root_frees_its_arrays_without_cycle_collection).
    # brentq first asks for the bracket end z_known, already evaluated
    if z == z_known:
        return det_known
    return 1.0 - mu_h3 * _sum_over(phi2, z, np.subtract, w, 1)


def secular_root(model, p, mu, N, offset=0.5):
    """Root of 1 = mu h^3 sum phi^2/(z - w) above the discrete band top.

    Returns None when no root exists beyond the grid's own energy
    resolution.  For phi nonzero at the top grid node the exact discrete
    matrix always has a root above the band top, but for sub-threshold mu
    it hugs the edge at a distance ~ mu h^3 phi^2, far below the spacing
    of the discrete levels themselves; such artifacts are reported as
    None.  The bracket therefore starts EDGE_RESOLUTION_FRACTION of the
    top level spacing above the largest diagonal entry - small enough to
    keep genuine near-threshold roots (which clear the edge by a O(1)
    fraction of the spacing), large enough to reject the artifacts.
    brentq raises BracketingError for a NaN determinant or no convergence
    in 200 steps.
    """
    check_coupling(mu)
    check_lattice_size(N)
    w, phi = _lattice(model, p, N, offset)
    phi2 = np.multiply(phi, phi, out=phi)
    h3 = (2.0 * np.pi / N) ** 3
    w_max = float(np.max(w))
    # the largest level below the top one (ties within 1e-13 excluded);
    # max is exact, so this is the max of the gathered subset
    below = float(np.max(w, where=w < w_max - 1e-13 * max(1.0, abs(w_max)),
                         initial=-np.inf))
    gap = w_max - below if below > -np.inf else 0.0
    spread = float(w_max - np.min(w))
    z_lo = w_max + max(EDGE_RESOLUTION_FRACTION * gap,
                       64.0 * np.finfo(float).eps * max(1.0, abs(w_max)))

    args = (mu * h3, phi2, w)
    det_lo = _secular_det(z_lo, *args)
    if det_lo >= 0.0:
        return None
    # every z_hi - w_j exceeds mu h^3 sum phi^2, so the sum is below 1 and
    # the determinant is positive at z_hi
    # over the grid also for a 0-d phi^2: NumPy sums the stride-0 view by
    # the same pairwise split as a full array
    phi2_sum = float(np.sum(np.broadcast_to(phi2, w.shape)))
    z_hi = z_lo + mu * h3 * phi2_sum + max(spread, 1.0)
    return brentq(_secular_det, z_lo, z_hi, args=args + (z_lo, det_lo),
                  xtol=1e-13, rtol=4.0 * np.finfo(float).eps, maxiter=200)


@dataclass(frozen=True)
class OracleResult:
    """Summary of one finite-lattice solve."""

    N: int
    secular_root: float | None
    max_diag: float
    spectrum_summary: dict = field(default_factory=dict)


def dense_spectrum(model, p, mu, N) -> OracleResult:
    """Full symmetric eigendecomposition of H_N for N <= 12.

    Reports the extremal eigenvalues and the number of eigenvalues strictly
    above the top diagonal entry (0 or 1 by rank-one interlacing), and the
    secular root for the N that secular_root accepts (None otherwise).
    """
    check_coupling(mu)
    check_lattice_size(N, dense=True)
    w, phi = _lattice(model, p, N)
    phi = np.broadcast_to(phi, w.shape)
    h3 = (2.0 * np.pi / N) ** 3
    H = np.outer(phi, phi)  # one N^6 buffer: scaled and w added in place
    H *= mu * h3
    H[np.diag_indices_from(H)] += w
    eigs = np.linalg.eigvalsh(H)
    max_diag = float(np.max(w))
    tol = 1e-12 * max(1.0, abs(max_diag))
    count_above = int(np.sum(eigs > max_diag + tol))
    root = secular_root(model, p, mu, N) if _secular_size(N) else None
    return OracleResult(
        N=N,
        secular_root=root,
        max_diag=max_diag,
        spectrum_summary={
            "min_eig": float(eigs[0]),
            "max_eig": float(eigs[-1]),
            "min_diag": float(np.min(w)),
            "count_above_max_diag": count_above,
            "matrix_size": int(N ** 3),
        })


@dataclass(frozen=True)
class ConvergenceReport:
    """Secular-root deviations from a continuum eigenvalue over a grid ladder.

    trend_ok: deviations decrease monotonically until they reach the
    comparison floor (the accuracy of the continuum value itself); once a
    deviation is at or below the floor the sequence counts as converged.
    """

    columns = ("N", "root", "abs_dev", "rel_dev")  # the entries of a row

    mu: float
    E_continuum: float
    rows: tuple
    floor: float
    trend_ok: bool


def convergence_report(model, p, mu, N_list, E_continuum,
                       floor=0.0) -> ConvergenceReport:
    """Tabulate |secular root - E_continuum| over N_list and check the trend.

    floor should reflect the accuracy of E_continuum (e.g. propagated from
    the quadrature error estimate); deviations at or below it are treated
    as converged rather than required to keep shrinking.
    """
    return report_from_roots(mu, [(N, secular_root(model, p, mu, N))
                                  for N in N_list], E_continuum, floor)


def report_from_roots(mu, roots, E_continuum, floor=0.0) -> ConvergenceReport:
    """convergence_report from (N, secular root) pairs already solved."""
    rows = []
    for N, root in roots:
        if root is None:
            raise InvalidInputError(
                "no secular root at N=%d; convergence study needs mu above "
                "the discrete threshold" % N)
        adev = abs(root - E_continuum)
        rows.append((int(N), float(root), float(adev),
                     float(adev / abs(E_continuum))))
    floor = max(float(floor), 16.0 * np.finfo(float).eps * abs(E_continuum))
    trend_ok = True
    for (_, _, prev, _), (_, _, cur, _) in zip(rows, rows[1:]):
        if cur > prev and cur > floor:
            trend_ok = False
    return ConvergenceReport(mu=float(mu), E_continuum=float(E_continuum),
                             rows=tuple(rows), floor=floor, trend_ok=trend_ok)
