"""Quadrature for Omega(p; z) = int_{T^3} phi^2(s) / (z - w_p(s)) ds, z >= M(p).

At z = M(p) the integrand has an integrable |s - q0|^-2 singularity at the
band maximizer.  The integral is split by a smooth radial bump chi centered
at q0 with support radius rho:

* far field: (1 - chi) phi^2 / (z - w) is a smooth periodic function,
  integrated with the product midpoint (trapezoid) rule - spectrally
  accurate on the torus;

* near field: the chi part is integrated in polar coordinates about q0,
  where the volume-element factor r^2 cancels the singularity.  On each
  ray the quadratic Hessian model phi^2(q0) r^2 / (delta + k(nu) r^2),
  k(nu) = nu.(-A)nu / 2, is subtracted and re-added in closed form, so the
  sharp boundary layer of width sqrt(delta) near the edge never has to be
  resolved by the radial Gauss rule.  At delta = 0 the closed form reduces
  to the removable-singularity value rho/k(nu) per ray, i.e. the r -> 0
  limit 2 phi^2(q0) / (nu.(-A)nu).

An OmegaEvaluator is the fibre object of one (model, p, cp, spec): it
owns the bump radius, the node data per refinement level and the threshold
value Omega(p) = Omega(p; M(p)), computed once on first read.  Evaluating
at many spectral parameters z (root finding, expansion fits) costs one
vectorised reduction per z, and values at different z share identical
node sets.  Omega and the second moment int phi^2 / (z - w_p)^2 (the
power-2 integrand, -dOmega/dz) share that node cache and one refinement
loop.  The solver functions and state_norm_diagnostics take an evaluator
and read p, M(p), the spec and Omega(p) from it.

A level build evaluates the bump only on its shell dist < rho (it is 0
beyond); each per-z node reduction allocates one temporary, the
denominator, divided in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BelowThresholdError,
    QuadratureError,
    QuadratureNotConvergedError,
)
from .torus import grid_axis, tensor_grid, wrap_angles

RHO_CAP = 1.0  # ball radius cap (must stay below pi/2)
MAX_REFINEMENTS = 2  # node-count doublings of the refinement loop
N_SHELLS = 8   # nested annuli of state_norm_diagnostics


@dataclass(frozen=True)
class QuadratureSpec:
    """Base node counts and the tolerance of the split quadrature.

    n_grid     torus trapezoid nodes per axis (far field)
    rho        bump support radius; None selects it automatically
    n_radial   Gauss-Legendre nodes on [0, rho]
    n_angular  polar nodes in cos(theta); 2*n_angular azimuthal nodes
    rel_tol    target relative tolerance for the refinement loop, which
               doubles every node count up to MAX_REFINEMENTS times
    """

    n_grid: int = 64
    rho: float | None = None
    n_radial: int = 48
    n_angular: int = 26
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.n_grid < 16:
            raise QuadratureError("n_grid must be >= 16")
        if self.n_radial < 4 or self.n_angular < 4:
            raise QuadratureError("too few radial/angular nodes")
        if self.rho is not None and not 0.0 < self.rho < 0.5 * np.pi:
            raise QuadratureError("rho must lie in (0, pi/2)")
        if not 0.0 < self.rel_tol < float("inf"):
            raise QuadratureError("rel_tol must lie in (0, inf), got %r"
                                  % (self.rel_tol,))


@dataclass(frozen=True)
class OmegaValue:
    """Value of Omega with an a-posteriori refinement error estimate."""

    value: float
    estimated_error: float
    near_field: float
    far_field: float
    n_grid: int
    rho: float


def bump_profile(t):
    """Radial C-infinity bump: 1 on t <= 1/2, 0 on t >= 1, with the
    exp(-1/s) transition in between."""
    t = np.asarray(t, dtype=float)
    s = np.clip(2.0 * (t - 0.5), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        fa = np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)
        fb = np.where(s < 1.0,
                      np.exp(-1.0 / np.where(s < 1.0, 1.0 - s, 1.0)), 0.0)
    return fb / (fa + fb)


def sphere_product_rule(n):
    """Gauss-Legendre x trapezoid product rule on the unit sphere.

    n nodes in cos(theta), 2n equispaced azimuthal nodes; weights sum to
    4*pi.  Returns (directions (m, 3), weights (m,)).
    """
    xu, wu = np.polynomial.legendre.leggauss(n)
    nphi = 2 * n
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = 2.0 * np.pi / nphi
    st = np.sqrt(np.clip(1.0 - xu * xu, 0.0, None))
    nu = np.empty((n * nphi, 3))
    nu[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nu[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nu[:, 2] = np.outer(xu, np.ones(nphi)).ravel()
    return nu, np.outer(wu, np.full(nphi, wphi)).ravel()


def _radial_closed_form(delta, k, rho, power):
    """int_0^rho r^2 / (delta + k r^2)^power dr, vectorised over k > 0;
    power 2 needs delta > 0."""
    if power == 1 and delta == 0.0:
        return rho / k
    a = np.sqrt(delta / k)
    if power == 1:
        return (rho - a * np.arctan(rho / a)) / k
    return (np.arctan(rho / a) / (2.0 * a)
            - rho / (2.0 * (a * a + rho * rho))) / (k * k)


def _sum_over(num, d, power):
    """sum(num / d**power), computed in the buffer of the fresh temporary
    d, which it overwrites: one temporary per reduction."""
    if power == 2:
        np.multiply(d, d, out=d)
    return float(np.divide(num, d, out=d).sum())


def _dist2_to(ax, q0):
    """Squared wrapped distance from the tensor grid over ax to q0."""
    d1, d2, d3 = (wrap_angles(ax - c) ** 2 for c in q0)
    return d1[:, None, None] + d2[None, :, None] + d3[None, None, :]


def auto_rho(model, p, cp):
    """Bump support radius: the largest r <= RHO_CAP with M - w_p > 0 along
    a sampled bundle of rays from q0 (halved at the first sign dip)."""
    nu, _ = sphere_product_rule(8)
    radii = np.linspace(0.02, RHO_CAP, 50)
    pts = cp.q0[None, None, :] + radii[:, None, None] * nu[None, :, :]
    u = cp.M - model.w(p, pts)
    floor = 1e-12 * max(cp.spread, 1.0)
    bad = np.nonzero(np.min(u, axis=1) <= floor)[0]
    if bad.size == 0:
        return float(RHO_CAP)
    return float(max(0.5 * radii[bad[0]], 0.05))


class OmegaEvaluator:
    """Cached-node evaluator of Omega(p; .) for one (model, p, spec).

    Levels of node data are built lazily; level L uses node counts scaled
    by 2^L relative to the base spec.  evaluate() runs the refinement loop
    of the spec; values at a fixed level are deterministic functions of z
    (fixed-order reductions).  The threshold value Omega(p; M(p)) is
    evaluated on the first read of `threshold` and kept.  Lazy level
    construction is not synchronised: share an evaluator across threads
    only after its levels are built.
    """

    def __init__(self, model, p, cp, spec: QuadratureSpec | None = None):
        self.model = model
        self.p = np.asarray(p, dtype=float)
        self.cp = cp
        self.spec = spec if spec is not None else QuadratureSpec()
        self.rho = (self.spec.rho if self.spec.rho is not None
                    else auto_rho(model, self.p, cp))
        self.q0 = cp.q0
        self.M = cp.M
        self._phi0_sq = float(model.phi(self.q0)) ** 2
        self._negA = -cp.hessian
        self._levels = []
        self._below_tol = 1e-12 * max(1.0, abs(self.M))
        self._threshold = None

    @property
    def threshold(self) -> OmegaValue:
        """Omega(p) = Omega(p; M(p)), evaluated once."""
        if self._threshold is None:
            self._threshold = self.evaluate(self.M)
        return self._threshold

    # -- node data ------------------------------------------------------

    def _build_level(self, level):
        s = self.spec
        n_grid = s.n_grid * 2 ** level
        n_rad = s.n_radial * 2 ** level
        n_ang = s.n_angular * 2 ** level
        rho = self.rho

        # far field: midpoint torus grid, weight h^3 (1-chi) phi^2
        ax = grid_axis(n_grid)
        grid = tensor_grid(ax)
        dist = np.sqrt(_dist2_to(ax, self.q0))
        # the bump is exactly 0.0 at dist >= rho: evaluate it on its shell
        shell = dist < rho
        chi = np.zeros(dist.shape)
        chi[shell] = bump_profile(dist[shell] / rho)
        weight = (2.0 * np.pi / n_grid) ** 3 * (1.0 - chi)
        phi2 = np.broadcast_to(np.asarray(self.model.phi(grid)) ** 2,
                               dist.shape)
        weight = weight * phi2
        keep = weight > 0.0
        far_weight = weight[keep]
        far_w = np.broadcast_to(self.model.w(self.p, grid), dist.shape)[keep]
        del weight, phi2, dist, keep, shell, chi

        # near field: polar nodes about q0
        xr, wr = np.polynomial.legendre.leggauss(n_rad)
        r = 0.5 * rho * (xr + 1.0)
        wr = 0.5 * rho * wr
        nu, wa = sphere_product_rule(n_ang)
        pts = self.q0[None, None, :] + r[:, None, None] * nu[None, :, :]
        w_near = np.asarray(self.model.w(self.p, pts))
        u = self.M - w_near
        if np.min(u) <= 0.0:
            raise QuadratureError(
                "near-field ball of radius %.3f contains points at or above "
                "the band edge; decrease rho" % rho)
        phi2_near = np.asarray(self.model.phi(pts)) ** 2
        chi = bump_profile(r / rho)
        P = (wr * chi * r * r)[:, None] * wa[None, :] * phi2_near
        R2 = wr * r * r
        k = 0.5 * np.einsum("ij,jk,ik->i", nu, self._negA, nu)
        return {
            "far_weight": far_weight, "far_w": far_w,
            "P": P, "u": u, "k": k, "wa": wa,
            "kr2": k[None, :] * (r ** 2)[:, None],
            "R2wa": R2[:, None] * wa[None, :],
        }

    def _level(self, level):
        while len(self._levels) <= level:
            self._levels.append(self._build_level(len(self._levels)))
        return self._levels[level]

    # -- evaluation -----------------------------------------------------

    def _delta(self, z):
        if z < self.M - self._below_tol:
            raise BelowThresholdError(
                "below threshold: z = %.12g < M(p) = %.12g" % (z, self.M))
        return max(float(z) - self.M, 0.0)

    def _sums(self, z, level, power):
        """(total, near, far) of int phi^2 / (z - w_p)^power at one level."""
        delta = self._delta(z)
        L = self._level(level)
        far = _sum_over(L["far_weight"], z - L["far_w"], power)
        direct = _sum_over(L["P"], delta + L["u"], power)
        model_part = self._phi0_sq * _sum_over(L["R2wa"], delta + L["kr2"],
                                               power)
        closed = float(self._phi0_sq * np.sum(
            L["wa"] * _radial_closed_form(delta, L["k"], self.rho, power)))
        near = direct - model_part + closed
        return near + far, near, far

    def value_at_level(self, z, level):
        """(total, near, far) at a fixed refinement level."""
        return self._sums(z, level, 1)

    def _refine(self, sums_at_level, what):
        """Double all node counts until the estimate |dnear| + |dfar|
        between consecutive levels is within the spec's relative tolerance
        of the total.  Returns (level, estimate, sums).

        The far field is not monotone across levels, so the change of the
        total can cancel between the two fields and understate the error;
        the per-field sum cannot.
        """
        prev = None
        for level in range(MAX_REFINEMENTS + 1):
            sums = sums_at_level(level)
            if prev is not None:
                est = abs(sums[1] - prev[1]) + abs(sums[2] - prev[2])
                bound = self.spec.rel_tol * max(abs(sums[0]), 1e-300)
                if est <= bound:
                    return level, est, sums
            prev = sums
        raise QuadratureNotConvergedError(
            "%s not converged: estimate %.3e above %.3e (rel_tol %.1e x "
            "|value| %.3e)" % (what, est, bound, self.spec.rel_tol,
                               abs(sums[0])))

    def evaluate(self, z) -> OmegaValue:
        """Omega(p; z) with one-step refinement error estimation.

        Raises QuadratureNotConvergedError if MAX_REFINEMENTS doublings do
        not reach the spec's relative tolerance.
        """
        level, est, (total, near, far) = self._refine(
            lambda level: self.value_at_level(z, level), "quadrature")
        return OmegaValue(value=total, estimated_error=est, near_field=near,
                          far_field=far, n_grid=self.spec.n_grid * 2 ** level,
                          rho=self.rho)

    def second_moment(self, z):
        """int phi^2 / (z - w_p)^2 ds for z > M(p), same node reuse."""
        if self._delta(z) <= 0.0:
            raise BelowThresholdError(
                "second moment diverges at the band edge")
        _, _, (total, _, _) = self._refine(
            lambda level: self._sums(z, level, 2), "second moment")
        return total


@dataclass(frozen=True)
class NormDiagnostics:
    """L1/L2 behaviour of f = phi / (z - w_p) near the maximizer.

    l2_growth_rate is the fitted log-log slope of the L2 mass outside a
    shrinking excluded ball against 1/radius: ~1 for a resonance-type
    threshold state (f not in L2), ~0 when f is square integrable.
    """

    l1: float
    l2: float
    l2_growth_rate: float
    excluded_radii: np.ndarray
    l2_outside: np.ndarray


def state_norm_diagnostics(evaluator: OmegaEvaluator, z) -> NormDiagnostics:
    """Integrate |f| and |f|^2 outside balls of radius rho/2^k around q0.

    The region outside the largest ball uses the masked torus grid of the
    evaluator's base spec; the nested annuli use per-shell polar Gauss
    rules, which resolve radii far below the torus grid spacing.
    """
    ev = evaluator
    model, p, q0, rho0 = ev.model, ev.p, ev.q0, ev.rho
    delta = ev._delta(z)

    n_grid = ev.spec.n_grid
    ax = grid_axis(n_grid)
    grid = tensor_grid(ax)
    dist2 = _dist2_to(ax, q0)
    mask = dist2 > rho0 * rho0
    w_vals = np.broadcast_to(model.w(p, grid), dist2.shape)[mask]
    phi_vals = np.broadcast_to(model.phi(grid), dist2.shape)[mask]
    h3 = (2.0 * np.pi / n_grid) ** 3
    f = phi_vals / (delta + (ev.M - w_vals))
    l2_out = h3 * float(np.sum(f * f))
    l1_out = h3 * float(np.sum(np.abs(f)))

    nu, wa = sphere_product_rule(max(ev.spec.n_angular // 2, 10))
    xr, wr = np.polynomial.legendre.leggauss(16)
    radii = rho0 / 2.0 ** np.arange(N_SHELLS + 1)
    l2_cum = [l2_out]
    l1_cum = l1_out
    for kk in range(N_SHELLS):
        a, b = radii[kk + 1], radii[kk]
        r = 0.5 * (b - a) * (xr + 1.0) + a
        wrr = 0.5 * (b - a) * wr
        pts = q0[None, None, :] + r[:, None, None] * nu[None, :, :]
        w_sh = np.asarray(model.w(p, pts))
        phi_sh = np.asarray(model.phi(pts))
        fsh = phi_sh / (delta + (ev.M - w_sh))
        r2 = (r * r)[:, None]
        l2_cum.append(l2_cum[-1]
                      + float(np.einsum("i,j,ij->", wrr, wa, fsh * fsh * r2)))
        l1_cum += float(np.einsum("i,j,ij->", wrr, wa, np.abs(fsh) * r2))

    l2_arr = np.array(l2_cum)
    x = np.log(1.0 / radii[-4:])
    y = np.log(l2_arr[-4:])
    slope = float(np.polyfit(x, y, 1)[0])
    return NormDiagnostics(l1=l1_cum, l2=float(l2_arr[-1]),
                           l2_growth_rate=slope, excluded_radii=radii,
                           l2_outside=l2_arr)
