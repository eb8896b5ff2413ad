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
    QuadratureError,
    check_coupling,
)
from .quadrature import OmegaEvaluator, edge_scaled, state_norm_diagnostics
from .roots import brentq

MU_REL_TOL = 1e-9        # relative band around mu(p) treated as "equal"
PHI_REL_TOL = 1e-8       # |phi(q0)| below this fraction of phi's RMS is zero
FIT_RESIDUAL_GATE = 1e-3
EPS = np.finfo(float).eps
ROOT_XTOL = 1e-14        # brentq's absolute and relative root tolerances
ROOT_RTOL = 4.0 * EPS
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
    """mu(p) = 1 / Omega(p; M(p)); strictly positive.  QuadratureError if it
    is not a finite float (a subnormal Omega(p), for phi of order 1e-160)."""
    omega = _evaluator(model, p, cp, evaluator).threshold.value
    with np.errstate(over="ignore", divide="ignore"):
        mu_p = 1.0 / omega
    if not mu_p < float("inf"):
        raise QuadratureError("mu(p) = 1 / Omega(p) = 1 / %.3e is not a "
                              "finite float" % omega)
    return mu_p


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
    The first bound can fail by rounding when mu is many orders above
    mu(p) (from about 1e14 mu(p)); then the gap is doubled once, and if
    the determinant is still not positive BracketingError is raised.  brentq
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
    # the margin 1 - mu Omega(z_hi) is about (M - <w>) / (mu ||phi||^2), so
    # the first bound fails by rounding only: over seeded fibres of the
    # three benchmark models and the trig_poly twins, every determinant
    # there read at least 1.1e-11 for mu/mu(p) from 1.0001 to 1e11, and 54
    # of 288 read 0.0 or -2.2e-16 for mu/mu(p) from 1e14 to 1e17
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


def eigenfunction(model, p, cp: CriticalPointInfo, mu, energy,
                  evaluator: OmegaEvaluator | None = None) -> EigenfunctionEval:
    """Normalize the eigenfunction at a solved energy E > M(p).

    E = nan or +inf raises InvalidInputError.  The normalisation is
    1 / (mu sqrt(second moment)); a second moment that underflows (E - M(p)
    above about 7e153 ||phi||, mu above about 4e152 for phi = 1) raises
    QuadratureError rather than return an infinite constant.

    E is refused (InvalidInputError) when |1 - mu Omega(E)| exceeds what a
    root within brentq's tolerance can leave: mu (bar of Omega(E) + S2(E)
    (ROOT_XTOL + ROOT_RTOL |E|)), S2 = -dOmega/dz the second moment, plus
    the rounding eps (1 + mu |Omega(E)|) of the determinant itself.  True
    roots read at most a tenth of that bound, from hopping 1e-8 to 1e8.
    """
    check_coupling(mu)
    ev = _evaluator(model, p, cp, evaluator)
    if not energy > ev.M:
        raise InvalidInputError("eigenfunction requires E > M(p)")
    norm_sq = ev.second_moment(energy)  # int phi^2/(E-w)^2
    omega = ev.evaluate(energy)
    det = 1.0 - mu * omega.value
    bound = (mu * (omega.estimated_error
                   + norm_sq * (ROOT_XTOL + ROOT_RTOL * abs(energy)))
             + EPS * (1.0 + mu * abs(omega.value)))
    if not abs(det) <= bound:
        raise InvalidInputError(
            "energy is not an eigenvalue: |determinant| = %.3e above %.3e, "
            "mu (bar of Omega(E) + second moment x root tolerance) plus "
            "rounding" % (abs(det), bound))
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
    threshold state (state_norm_diagnostics) is attached as corroboration.
    It reads the fibre's edge samples at M(p), the ones expansion_fit
    fits, so after a fit on the same evaluator it evaluates no Omega.
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
        rate = state_norm_diagnostics(ev)
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


def expansion_fit(model, p, cp: CriticalPointInfo,
                  evaluator: OmegaEvaluator | None = None) -> ExpansionFit:
    """Least-squares fit of the square-root edge expansion of Omega to the
    fibre's edge samples at M(p) (OmegaEvaluator.edge_samples, which
    classify_threshold reads too): more samples than the three
    coefficients, so the residual gate has something to test.  The fit
    runs on edge_scaled(data), and its coefficients are scaled back.
    ExpansionFitError: no difference above the bars of its Omega values,
    a residual above FIT_RESIDUAL_GATE or NaN, or a coefficient beyond the
    float range.
    """
    ev = _evaluator(model, p, cp, evaluator)
    deltas, data, bars = ev.edge_samples
    if not np.max(np.abs(data)) > bars:
        raise ExpansionFitError("expansion fit failed: Omega differences "
                                "up to %.3e are within their bars %.3e"
                                % (np.max(np.abs(data)), bars))
    scaled, k = edge_scaled(data)
    design = np.column_stack([np.sqrt(deltas), deltas, deltas ** 1.5])
    coeffs, *_ = np.linalg.lstsq(design, scaled, rcond=None)
    resid = scaled - design @ coeffs
    rel_residual = float(np.linalg.norm(resid) / np.linalg.norm(scaled))
    if not rel_residual <= FIT_RESIDUAL_GATE:
        raise ExpansionFitError(
            "expansion fit failed: relative residual %.3e" % rel_residual)
    with np.errstate(over="ignore"):
        unscaled = np.ldexp(coeffs, k)
    if not np.all(np.isfinite(unscaled)):
        raise ExpansionFitError(
            "expansion fit failed: coefficients %s x 2^%d overflow a float"
            % (coeffs.tolist(), k))
    return ExpansionFit(
        tau0_fit=float(unscaled[0] / TWO_PI_SQ),
        tau0_closed=tau0_closed_form(ev.model, ev.cp),
        rel_residual=rel_residual,
        sqrt_coeff=float(unscaled[0]), linear_coeff=float(unscaled[1]),
        threehalf_coeff=float(unscaled[2]), deltas=deltas, data=data)


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
