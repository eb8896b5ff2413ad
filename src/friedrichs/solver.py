"""Fredholm determinant, coupling threshold, bound states, classification.

The scalar determinant D(mu, p; z) = 1 - mu * Omega(p; z) is strictly
increasing in z on (M(p), inf) and tends to 1, so the unique bound-state
energy above the band is found by monotone bracketing.  The coupling
threshold mu(p) = 1 / Omega(p; M(p)) separates the no-eigenvalue regime
from the bound-state regime; at mu = mu(p) the band edge is either an
energy resonance or a threshold eigenvalue depending on whether the form
factor vanishes at the maximizer.

Every function takes the fibre as (model, p, cp) plus an optional
OmegaEvaluator; without one it builds an evaluator with the default
QuadratureSpec.  Pass `evaluator=OmegaEvaluator(model, p, cp, spec)` to
use another spec and to share node levels and the cached Omega(p) between
calls; an evaluator built from another model, cp or p raises
InvalidInputError.  The functions read p, M(p) and the model from the
evaluator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .critical import CriticalPointInfo
from .errors import (
    BracketingError,
    ExpansionFitError,
    InvalidInputError,
    check_coupling,
)
from .oracle import _lattice
from .quadrature import OmegaEvaluator, state_norm_diagnostics
from .roots import brentq

MU_REL_TOL = 1e-9        # relative band around mu(p) treated as "equal"
PHI_REL_TOL = 1e-8       # |phi(q0)| below this fraction of phi's RMS is zero
FIT_WINDOW = (1e-4, 1e-2)
FIT_POINTS = 8
FIT_MIN_POINTS = 4       # one more than the three fitted coefficients
FIT_RESIDUAL_GATE = 1e-3
CHECK_GRID = 64          # midpoint nodes per axis of the eigenfunction checks
_CHECK_H3 = (2.0 * np.pi / CHECK_GRID) ** 3  # volume of one check-grid cell
ROOT_XTOL = 1e-14        # brentq's absolute and relative root tolerances
ROOT_RTOL = 4.0 * np.finfo(float).eps
TWO_PI_SQ = 2.0 * np.pi ** 2


class Classification(str, enum.Enum):
    """Spectral situation at a given (mu, p)."""

    REGULAR = "Regular"                        # mu < mu(p): nothing anywhere
    BOUND_STATE = "BoundState"                 # mu > mu(p): eigenvalue above M
    RESONANCE = "Resonance"                    # mu = mu(p), phi(q0) != 0
    THRESHOLD_EIGENVALUE = "ThresholdEigenvalue"  # mu = mu(p), phi(q0) = 0


def _evaluator(model, p, cp, evaluator):
    if evaluator is None:
        return OmegaEvaluator(model, p, cp)
    for name, same in (
            ("model", evaluator.model is model),
            ("cp", evaluator.cp is cp),
            ("p", np.array_equal(evaluator.p, np.asarray(p, dtype=float)))):
        if not same:
            raise InvalidInputError(
                "evaluator belongs to another fibre: its %s is not the %s "
                "passed" % (name, name))
    return evaluator


def _det(z, ev, mu):
    # module level, with the evaluator in brentq's args: nothing else holds
    # it, so reference counting frees it once the caller drops it
    # (test_solved_evaluator_freed_without_cycle_collection)
    return 1.0 - mu * ev.evaluate(z).value


def coupling_threshold(model, p, cp: CriticalPointInfo,
                       evaluator: OmegaEvaluator | None = None) -> float:
    """mu(p) = 1 / Omega(p; M(p)); strictly positive."""
    return 1.0 / _evaluator(model, p, cp, evaluator).threshold.value


def fredholm_det(model, p, cp: CriticalPointInfo, mu, z,
                 evaluator: OmegaEvaluator | None = None) -> float:
    """Determinant 1 - mu * Omega(p; z) for z >= M(p)."""
    check_coupling(mu)
    return _det(z, _evaluator(model, p, cp, evaluator), mu)


def solve_eigenvalue(model, p, cp: CriticalPointInfo, mu,
                     evaluator: OmegaEvaluator | None = None):
    """The unique root E of the determinant above M(p), or None.

    Returns None for mu <= mu(p) (1 + MU_REL_TOL).  Otherwise the root is
    bracketed on (M(p), z_hi] and polished by Brent's method (bisection
    with secant / inverse-quadratic acceleration), brentq of
    friedrichs.roots: the in-package port of scipy.optimize.brentq, which
    returns the same bits.  Since w_p <= M(p), Omega(p; z) < ||phi||^2 /
    (z - M(p)), so the determinant is positive at z_hi = M(p) + mu
    ||phi||^2 and above 1/2 at M(p) + 2 mu ||phi||^2.
    The first bound can fail by the quadrature error when mu is many
    orders above mu(p); then the gap is doubled once, and if the
    determinant is still not positive BracketingError is raised.  brentq
    raises it too, for a NaN determinant or no convergence in 200 steps,
    and so does a coupling whose bracket M(p) + 2 mu ||phi||^2 is not
    finite (mu above about 9e307 / ||phi||^2), or whose root is not above
    M(p) (for phi = 1, mu/mu(p) - 1 up to about 1e-8, where E - M(p) is
    below brentq's tolerance).
    """
    check_coupling(mu)
    ev = _evaluator(model, p, cp, evaluator)
    mu_p = coupling_threshold(model, p, cp, evaluator=ev)
    if mu <= mu_p * (1.0 + MU_REL_TOL):
        return None

    with np.errstate(over="ignore"):
        gap = mu * ev.model.phi_l2_norm_sq()
    if not np.isfinite(ev.M + 2.0 * gap):
        raise BracketingError(
            "mu = %r: the bracket M(p) + 2 mu ||phi||^2 overflows"
            % (float(mu),))
    z_hi = ev.M + gap
    if not _det(z_hi, ev, mu) > 0.0:
        z_hi = ev.M + 2.0 * gap
        if not _det(z_hi, ev, mu) > 0.0:
            raise BracketingError(
                "failed to bracket the determinant root above the band edge")
    root = brentq(_det, ev.M, z_hi, args=(ev, mu), xtol=ROOT_XTOL,
                  rtol=ROOT_RTOL, maxiter=200)
    if not root > ev.M:
        raise BracketingError(
            "mu/mu(p) - 1 = %.3g: the bound state lies within the root "
            "tolerance of M(p)" % (mu / mu_p - 1.0))
    return root


def eigenvalue_error_estimate(model, p, cp: CriticalPointInfo, mu, energy,
                              evaluator: OmegaEvaluator | None = None) -> float:
    """A-posteriori accuracy estimate for a solved eigenvalue.

    The root shift caused by an error e in Omega is e / |dOmega/dz|, and
    -dOmega/dz is the second moment int phi^2/(E - w)^2; brentq's own
    tolerance ROOT_XTOL + ROOT_RTOL |E| is added (the brentq of
    friedrichs.roots, bitwise equal to scipy's), since an exact Omega
    (the Laplace-Bessel route) leaves it the larger part.  Used as the
    comparison floor when grading finite-lattice convergence against the
    continuum value.
    """
    ev = _evaluator(model, p, cp, evaluator)
    return (ev.evaluate(energy).estimated_error / ev.second_moment(energy)
            + ROOT_XTOL + ROOT_RTOL * abs(energy))


@dataclass(frozen=True)
class EigenfunctionEval:
    """Normalized bound-state eigenfunction psi(q) = C mu phi(q)/(E - w_p(q)).

    C > 0 is chosen so the L2(T^3) norm equals 1.
    """

    normalization: float
    mu: float
    energy: float
    model: object
    p: np.ndarray

    def __call__(self, q):
        return (self.normalization * self.mu * self.model.phi(q)
                / (self.energy - self.model.w(self.p, q)))

    def _on_check_grid(self):
        """(w, phi, psi) on the CHECK_GRID^3 midpoint grid, flattened (phi
        0-d when constant): the one model evaluation behind both checks."""
        w, phi = _lattice(self.model, self.p, CHECK_GRID)
        return w, phi, self.normalization * self.mu * phi / (self.energy - w)

    def norm_on_grid(self):
        """L2 norm via the plain midpoint rule (smooth integrand)."""
        psi = self._on_check_grid()[2]
        return float(np.sqrt(_CHECK_H3 * np.sum(psi * psi)))

    def residual_sup(self):
        """sup |(H_mu(p) - E) psi| with H applied on a midpoint grid.

        The rank-one term uses the grid inner product, so this is an
        independent discrete application of the operator, not a replay of
        the quadrature that produced E.
        """
        w, phi, psi = self._on_check_grid()
        inner = _CHECK_H3 * np.sum(phi * psi)
        resid = (w - self.energy) * psi + self.mu * phi * inner
        return float(np.max(np.abs(resid)))


def eigenfunction(model, p, cp: CriticalPointInfo, mu, energy,
                  evaluator: OmegaEvaluator | None = None) -> EigenfunctionEval:
    """Normalize the eigenfunction at a solved energy E > M(p).

    E = nan or +inf raises InvalidInputError.  The normalisation is
    1 / (mu sqrt(second moment)); a second moment that underflows (E - M(p)
    above about 7e153 ||phi||, mu above about 4e152 for phi = 1) raises
    QuadratureError rather than return an infinite constant.
    """
    check_coupling(mu)
    ev = _evaluator(model, p, cp, evaluator)
    if not energy > ev.M:
        raise InvalidInputError("eigenfunction requires E > M(p)")
    det = _det(energy, ev, mu)
    if abs(det) > 1e-8:
        raise InvalidInputError(
            "energy is not an eigenvalue: |determinant| = %.3e" % abs(det))
    norm_sq = ev.second_moment(energy)  # int phi^2/(E-w)^2
    c = 1.0 / (mu * np.sqrt(norm_sq))
    return EigenfunctionEval(normalization=float(c), mu=float(mu),
                             energy=float(energy), model=ev.model, p=ev.p)


@dataclass(frozen=True)
class ClassificationResult:
    label: Classification
    mu: float
    mu_threshold: float
    phi_at_q0: float
    l2_growth_rate: float | None


def classify_threshold(model, p, cp: CriticalPointInfo, mu,
                       evaluator: OmegaEvaluator | None = None
                       ) -> ClassificationResult:
    """Classify (mu, p): Regular / BoundState off the threshold coupling,
    Resonance / ThresholdEigenvalue at it, by |phi(q0)| against PHI_REL_TOL
    times the RMS of phi, sqrt(||phi||^2 / (2 pi)^3), exact by Parseval.

    For the two at-threshold classes the L2 growth exponent of the
    threshold state, from the evaluator's own Omega values
    (state_norm_diagnostics), is attached as corroboration.
    """
    check_coupling(mu)
    ev = _evaluator(model, p, cp, evaluator)
    mu_p = coupling_threshold(model, p, cp, evaluator=ev)
    phi_q0 = float(ev.model.phi(ev.q0))
    rate = None
    if abs(mu - mu_p) > MU_REL_TOL * mu_p:
        label = (Classification.BOUND_STATE if mu > mu_p
                 else Classification.REGULAR)
    else:
        phi_rms = np.sqrt(ev.model.phi_l2_norm_sq() / (2.0 * np.pi) ** 3)
        label = (Classification.RESONANCE
                 if abs(phi_q0) > PHI_REL_TOL * phi_rms
                 else Classification.THRESHOLD_EIGENVALUE)
        rate = state_norm_diagnostics(ev, ev.M)
    return ClassificationResult(
        label=label, mu=float(mu), mu_threshold=mu_p, phi_at_q0=phi_q0,
        l2_growth_rate=rate)


@dataclass(frozen=True)
class ExpansionFit:
    """Edge expansion Omega(p) - Omega(p; M+d) ~ a sqrt(d) + b d + c d^{3/2}.

    tau0_fit = a / (2 pi^2) recovers the leading Puiseux coefficient in the
    spherical-mean normalisation where the closed form is
    tau0 = phi^2(q0) * 2^{3/2} / sqrt(det(-A)).
    """

    tau0_fit: float
    tau0_closed: float
    rel_residual: float
    sqrt_coeff: float
    linear_coeff: float
    threehalf_coeff: float
    deltas: np.ndarray
    data: np.ndarray

    @property
    def sqrt_term_fraction(self):
        """Size of the fitted sqrt term at the window top relative to the
        largest data value (positive: expansion_fit refuses data within
        their bars); ~0 when the sqrt term is genuinely absent."""
        scale = float(np.max(np.abs(self.data)))
        return abs(self.sqrt_coeff) * float(np.sqrt(self.deltas[-1])) / scale


def tau0_closed_form(model, cp: CriticalPointInfo) -> float:
    """tau0 = phi^2(q0) * 2^{3/2} / sqrt(det(-A)) (Morse-chart Jacobian)."""
    phi_q0 = float(model.phi(cp.q0))
    return phi_q0 ** 2 * 2.0 ** 1.5 / np.sqrt(cp.det_negA)


def check_expansion_args(window, n_points):
    """Raise InvalidInputError unless expansion_fit accepts the window
    (lo, hi) and the point count."""
    if len(window) != 2 or not 0.0 < window[0] < window[1] < float("inf"):
        raise InvalidInputError(
            "expansion window must be lo,hi with 0 < lo < hi < inf: %r"
            % (window,))
    if not n_points >= FIT_MIN_POINTS:
        raise InvalidInputError(
            "expansion fit needs at least %d points, got %r"
            % (FIT_MIN_POINTS, n_points))


def expansion_fit(model, p, cp: CriticalPointInfo,
                  evaluator: OmegaEvaluator | None = None,
                  window=FIT_WINDOW, n_points=FIT_POINTS) -> ExpansionFit:
    """Least-squares fit of the square-root edge expansion of Omega.

    Samples Omega(p) - Omega(p; M + d_k) at n_points >= 4 log-spaced
    offsets d_k in the window (lo, hi), 0 < lo < hi < inf, all on identical
    quadrature nodes so systematic errors cancel in the differences.  Fewer
    points would determine the three coefficients exactly and leave the
    residual gate nothing to test.  ExpansionFitError: no difference above
    the bars of its Omega values, or a residual above FIT_RESIDUAL_GATE.
    """
    check_expansion_args(window, n_points)
    ev = _evaluator(model, p, cp, evaluator)
    deltas = np.logspace(np.log10(window[0]), np.log10(window[1]), n_points)
    omega0 = ev.threshold
    values = [ev.evaluate(ev.M + d) for d in deltas]
    data = np.array([omega0.value - v.value for v in values])
    bars = omega0.estimated_error + max(v.estimated_error for v in values)
    if not np.max(np.abs(data)) > bars:
        raise ExpansionFitError("expansion fit failed: Omega differences "
                                "up to %.3e are within their bars %.3e"
                                % (np.max(np.abs(data)), bars))
    design = np.column_stack([np.sqrt(deltas), deltas, deltas ** 1.5])
    coeffs, *_ = np.linalg.lstsq(design, data, rcond=None)
    resid = data - design @ coeffs
    rel_residual = float(np.linalg.norm(resid) / np.linalg.norm(data))
    fit = ExpansionFit(
        tau0_fit=float(coeffs[0] / TWO_PI_SQ),
        tau0_closed=tau0_closed_form(ev.model, ev.cp),
        rel_residual=rel_residual,
        sqrt_coeff=float(coeffs[0]), linear_coeff=float(coeffs[1]),
        threehalf_coeff=float(coeffs[2]), deltas=deltas, data=data)
    if rel_residual > FIT_RESIDUAL_GATE:
        raise ExpansionFitError(
            "expansion fit failed: relative residual %.3e" % rel_residual)
    return fit


@dataclass
class SpectralReport:
    """Bundle of spectral results at one (mu, p); JSON field names fixed."""

    mu_threshold: float
    mu: float
    E: float | None
    delta_at_threshold: float
    classification: Classification
    eigenfunction_norm: float | None  # normalization constant C (unit L2 norm)
    tau0_fit: float | None = None
    tau0_closed: float | None = None
    l2_growth_rate: float | None = None


def analyze(model, p, cp: CriticalPointInfo, mu,
            evaluator: OmegaEvaluator | None = None,
            with_expansion=False) -> SpectralReport:
    """Full single-point analysis: threshold, eigenvalue, classification."""
    ev = _evaluator(model, p, cp, evaluator)
    mu_p = coupling_threshold(model, p, cp, evaluator=ev)
    energy = solve_eigenvalue(model, p, cp, mu, evaluator=ev)
    norm_const = None
    if energy is not None:
        norm_const = eigenfunction(model, p, cp, mu, energy,
                                   evaluator=ev).normalization
    cls = classify_threshold(model, p, cp, mu, evaluator=ev)
    tau_fit = tau_closed = None
    if with_expansion:
        fit = expansion_fit(model, p, cp, evaluator=ev)
        tau_fit, tau_closed = fit.tau0_fit, fit.tau0_closed
    return SpectralReport(
        mu_threshold=mu_p, mu=float(mu), E=energy,
        delta_at_threshold=1.0 - mu / mu_p, classification=cls.label,
        eigenfunction_norm=norm_const, tau0_fit=tau_fit,
        tau0_closed=tau_closed, l2_growth_rate=cls.l2_growth_rate)
