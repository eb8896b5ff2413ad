"""Quadrature for Omega(p; z) = int_{T^3} phi^2(s) / (z - w_p(s)) ds, z >= M(p).

At z = M(p) the integrand has an integrable |s - q0|^-2 singularity at the
band maximizer.  The integral is split by a smooth radial bump chi centered
at q0 with support radius rho = RHO_CAP:

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
  limit 2 phi^2(q0) / (nu.(-A)nu).  The sphere rule is exactly antipodal
  and k(-nu) = k(nu), so the model and its closed form are summed over
  half the directions with twice the weights.

For the two_particle family the denominator separates axis by axis and
Omega is the exact 1-D Laplace-Bessel integral of laplace.py.  evaluate and
second_moment share one moment path, the only place that chooses the
backend: it answers two_particle fibres from the route, with the route's
error bar and no node level, and trig_poly fibres from the plain torus sum
once delta = z - M(p) passes the fibre's first crossover, else from the
split quadrature.  value_at_level keeps the split quadrature for every family.

Torus sum: for delta of order one, phi^2 / (z - w_p)^power is analytic in
a strip about the real torus, and the midpoint sum h^3 sum phi^2 /
(z - w_p)^power on the N^3 grid (sums._sum_over) converges like
e^(-kappa N) (Trefethen and Weideman, SIAM Review 56, 2014).  It is the
sum of oracle.discrete_omega, but its grids are evaluated like a level,
from the fibre table, while the oracle reads model.w: the oracle checks a
separate computation, which agrees within 64 eps of the value.  Each
SUM_GRIDS grid N but the last has a crossover delta_c(N), a closed form
in the amplitudes of the w table (_crossovers) past which the strip is at
least ln(SUM_STRIP) / N wide.  At the first crossover delta meets, the
value is the sum on the next grid and the bar is its distance from the
sum on N, plus 64 eps of the value.  The split quadrature answers,
unchanged, where that bar exceeds rel_tol |value| and below every
crossover: at delta = 0 always, and across the edge samples for w tables
of order-one amplitudes.  The fibre keeps w and phi^2 of the two grids in
use only (at most 48^3 and 64^3 nodes, 5.7 MiB).

An OmegaEvaluator is the fibre object of one (model, p, cp, spec): it
owns the node data per refinement level and the threshold value
Omega(p) = Omega(p; M(p)), each computed on first read.  A certified
unique non-degenerate maximum keeps M - w_p > 0 on the ball of radius
RHO_CAP, so _build_level's refusal of a node at or above M(p) means that
M(p) is not the maximum of w_p, or that w_p is within rounding of it there.
Evaluating at many spectral parameters z (root finding, the edge record)
costs one vectorised reduction per z, and values at different z share
identical node sets, which the second moment int phi^2 / (z - w_p)^2
(-dOmega/dz) shares.  A batch of z (the edge record's offsets) reads each
level once for all of them, with the bits of one z at a time.  The solver
functions and state_norm_diagnostics take an evaluator and read p, M(p),
the spec and Omega(p) from it.

The edge behaviour Omega(p) - Omega(p; M(p) + d) ~ a sqrt(d) + b d + ...
is measured once per fibre, at M(p) only, by edge_samples at offsets that
scale with the curvature (hopping c scales them by c); solver.expansion_fit
and state_norm_diagnostics both read that record, scaled by edge_scaled.

Model evaluation: a level and a torus-sum grid read w_p from the
evaluator's fibre table (model.fibre_table, built once, on first use) and
phi from its table, both in one models.harmonic_values call, the
evaluator of every Fourier table.  On a far-field slab or a torus-sum
grid the per-axis harmonics are 1-D and each axis support costs one
broadcast add; a near-field block is (radii, n_ang, 2 n_ang), axis 3 is
kept at the n_ang distinct cos(theta) per radius, and axes 1 and 2 take
cos and sin of n (q0_i +- r nu_i), passed in place of coordinates, by
angle addition from one np.cos and one np.sin of n r nu_i over the half of
the azimuths whose antipodes are the other half, and over the half of the
polar rows that the other half mirrors (_polar_block): 1 call per node
for the off-axis benchmark model, whose tables have order 1.
The fibre table differs from model.w's T(q) + T(p - q) by rounding only;
find_maximizer and the oracle read model.w.

Memory: a level keeps its node arrays and nothing else, at most
MAX_LEVEL_BYTES, checked before any is allocated: w_p and the far weights
on the n_grid^3 grid, M - w_p and the near weights on all n_rad x 2 n_ang^2
polar nodes, and the Hessian model on half of them.  The build streams the
far field through slabs of torus planes, about BLOCK nodes each, and the
near field through blocks of radii of about BLOCK / 2 nodes, writing the
kept nodes straight into the level's arrays; the bump is evaluated only in
the tensor box of axis nodes within rho of q0 (it is 0 beyond), a slab's
far weights are formed in place in the level's array, and a slab whose
nodes are all kept copies its w_p without a mask.  A per-z
reduction forms and sums its integrand one block at a time, along NumPy's
pairwise-summation split (friedrichs.sums), so every node array and every
sum is bitwise the one of a full-grid pass.
The Gauss-Legendre and sphere rules are cached per node count and
returned read-only.

Refinement: the loop doubles every node count up to MAX_REFINEMENTS times
and stops once the estimate |dnear| + |dfar| between the last two levels
is within rel_tol of the value.  One doubling is assumed to shrink the
estimate by at most MAX_CONTRACTION (converging fibres shrank it at
most about 650x), so an estimate at level L above rel_tol |value|
MAX_CONTRACTION^(MAX_REFINEMENTS - L) is refused before level L + 1 is
built: near a degenerate maximum (p_i -> pi) the estimate at level 1 is
of the order of the value itself and no level can meet the tolerance.
The rule reads only the estimate, never which levels are already built,
so a value does not depend on call history.  The evaluator keeps its last
two (z, OmegaValue) pairs, so brentq's last iterate, re-read by the
callers of the root, is not evaluated again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BelowThresholdError,
    InvalidInputError,
    QuadratureError,
    QuadratureNotConvergedError,
)
from .laplace import ROUNDING, laplace_omega, laplace_table
from .models import harmonic_orders, harmonic_values
from .sums import BLOCK, _sum_over
from .torus import check_momentum, grid_axis, tensor_grid, wrap_angles

RHO_CAP = 1.0  # near-field ball radius about q0
MAX_REFINEMENTS = 2  # node-count doublings of the refinement loop
SERIES_X = 0.05  # rho / sqrt(delta / k) below which the radial series is used
MAX_CONTRACTION = 2 ** 13  # largest assumed estimate shrink per doubling
MAX_LEVEL_BYTES = 2 ** 30  # node arrays of a level (default level 2: 351 MiB)
FIT_WINDOW = (1e-4, 1e-2)  # range of the edge offsets, in units of k
FIT_POINTS = 8  # edge offsets, log-spaced over FIT_WINDOW
SUM_GRIDS = (16, 24, 32, 48, 64)  # torus-sum grids: N and the next one
SUM_STRIP = 1e6  # e^(kappa_N N) of the strip each crossover keeps


@dataclass(frozen=True)
class QuadratureSpec:
    """Base node counts and the tolerance of the split quadrature.

    n_grid     torus trapezoid nodes per axis (far field)
    n_radial   Gauss-Legendre nodes on [0, RHO_CAP]
    n_angular  polar nodes in cos(theta); 2*n_angular azimuthal nodes
    rel_tol    target relative tolerance for the refinement loop, which
               doubles every node count up to MAX_REFINEMENTS times, and
               the bound on the bar of the Laplace-Bessel route
    """

    n_grid: int = 64
    n_radial: int = 48
    n_angular: int = 26
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.n_grid < 16:
            raise QuadratureError("n_grid must be >= 16")
        if self.n_radial < 4 or self.n_angular < 4:
            raise QuadratureError("too few radial/angular nodes")
        if not 0.0 < self.rel_tol < float("inf"):
            raise QuadratureError("rel_tol must lie in (0, inf), got %r"
                                  % (self.rel_tol,))


@dataclass(frozen=True)
class OmegaValue:
    """Value of Omega with its error bar.

    estimated_error is the route's bar on a two_particle fibre,
    |dnear| + |dfar| between the last two levels on the split quadrature
    and the torus sum's bar; n_grid is the far-field grid of the level that
    answered (the spec's base grid on the route, which answers at level 0),
    and on the torus sum the grid N whose crossover was met (the value is
    the sum on the next SUM_GRIDS grid).
    """

    value: float
    estimated_error: float
    n_grid: int


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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _gauss_legendre(n):
    """n-point Gauss-Legendre (nodes, weights) on [-1, 1], cached and
    read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=32)
def sphere_product_rule(n):
    """Gauss-Legendre x trapezoid product rule on the unit sphere.

    n nodes in cos(theta), 2n equispaced azimuthal nodes; weights sum to
    4*pi.  The azimuths f >= n take (-cos, -sin) of azimuth f - n, and the
    Gauss-Legendre nodes and weights are symmetric, so the antipode of
    every direction is a node of the rule, bit for bit, with the same
    weight.  Returns (directions (m, 3), weights (m,)), polar-major (m =
    2n^2), cached and read-only.
    """
    xu, wu = _gauss_legendre(n)
    nphi = 2 * n
    phi = 2.0 * np.pi * np.arange(n) / nphi
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    wphi = 2.0 * np.pi / nphi
    st = np.sqrt(np.clip(1.0 - xu * xu, 0.0, None))
    nu = np.empty((n * nphi, 3))
    nu[:, 0] = np.outer(st, np.concatenate((cos_phi, -cos_phi))).ravel()
    nu[:, 1] = np.outer(st, np.concatenate((sin_phi, -sin_phi))).ravel()
    nu[:, 2] = np.outer(xu, np.ones(nphi)).ravel()
    return _read_only(nu, np.outer(wu, np.full(nphi, wphi)).ravel())


def _radial_closed_form(delta, k, rho, power):
    """int_0^rho r^2 / (delta + k r^2)^power dr, vectorised over k > 0;
    power 2 needs delta > 0.

    With a = sqrt(delta / k) and x = rho / a the closed forms subtract
    nearly equal terms once x is small (relative loss about 3 eps / x^2),
    so rays with x < SERIES_X take the odd series of x - arctan(x)
    (power 1) or arctan(x) - x / (1 + x^2) (power 2) instead.
    """
    if power == 1 and delta == 0.0:
        return rho / k
    a = np.sqrt(delta / k)
    x = rho / a
    if power == 1:
        out = (rho - a * np.arctan(x)) / k
    else:
        out = (np.arctan(x) / (2.0 * a)
               - rho / (2.0 * (a * a + rho * rho))) / (k * k)
    small = x < SERIES_X
    if np.any(small):
        # coefficients of x^3, x^5, ...: (-1)^(j+1) / (2j+1) for power 1,
        # times 2j for power 2; 8 terms reach 1e-20 relative at SERIES_X
        j = np.arange(1, 9)
        coeffs = (-1.0) ** (j + 1) / (2 * j + 1) * (1 if power == 1 else 2 * j)
        xs, a_s, ks = x[small], a[small], k[small]
        series = xs ** 3 * np.polynomial.polynomial.polyval(xs * xs, coeffs)
        out[small] = (a_s * series / ks if power == 1
                      else series / (2.0 * a_s * ks * ks))
    return out


def _antipodal(nc, na, rows):
    """(cos, sin) of nc + na, then of nc - na, along the last axis (twice
    the length of na), by angle addition from one np.cos and one np.sin
    of na and the scalars cos nc and sin nc.  na holds the first
    ceil(rows / 2) polar rows (axis 1) of a block of `rows`; row rows - 1
    - j of the block equals row j and is copied from it."""
    cos_na, sin_na = np.cos(na), np.sin(na)
    cos_c, sin_c = np.cos(nc), np.sin(nc)
    m, h = na.shape[1:]
    cos, sin = (np.empty((na.shape[0], rows, 2 * h)) for _ in range(2))
    a, b = cos_c * cos_na, sin_c * sin_na
    np.subtract(a, b, out=cos[:, :m, :h])
    np.add(a, b, out=cos[:, :m, h:])
    np.multiply(sin_c, cos_na, out=a)
    np.multiply(cos_c, sin_na, out=b)
    np.add(a, b, out=sin[:, :m, :h])
    np.subtract(a, b, out=sin[:, :m, h:])
    for x in (cos, sin):
        x[:, m:] = x[:, :rows - m][:, ::-1]
    return cos, sin


def _polar_block(q0, r, half, orders):
    """The three axes of q0 + r nu for radii r (shape (radii, 1, 1)), as
    harmonic_values takes them, in the block shape (radii, n_ang, 2 n_ang).
    half holds the directions f < n_ang of each polar row; the others are
    their antipodes, so with a = r nu_i on the half, axes 1 and 2 are q0_i
    + a, then q0_i - a, and are passed as the harmonics of their orders
    from _antipodal.  Their nu_i = sin(theta) (cos, sin)(phi) is equal bit
    for bit on polar rows j and n_ang - 1 - j (numpy's leggauss nodes are
    exactly antisymmetric), so the harmonics are formed on the first
    ceil(n_ang / 2) rows and mirrored.  Axis 3 is its coordinates, (radii,
    n_ang, 1), one value per cos(theta)."""
    n_ang = half.shape[0]
    top = half[:n_ang - n_ang // 2]
    axes = []
    for i in (0, 1):
        a = r * top[:, :, i]
        axes.append({n: _antipodal(n * q0[i], a if n == 1 else n * a, n_ang)
                     for n in orders[i]})
    return axes + [q0[2] + r * half[:, :1, 2]]


def _crossovers(table):
    """delta_c(N) of a trig_poly w table for each SUM_GRIDS grid N but the
    last: |w_p(q + i s e_j) - w_p(q)| <= sum_k 2 A_k (e^(s |k_j|) - 1),
    A_k = hypot(cos_k, sin_k) (the 2: the table at q and at p - q), so at
    z - M(p) >= delta_c(N) no z - w_p vanishes within kappa_N =
    ln(SUM_STRIP) / N of the real torus along any axis, and the midpoint
    sum on N^3 nodes converges like e^(-kappa_N N) = 1 / SUM_STRIP."""
    kappa = np.log(SUM_STRIP) / np.array(SUM_GRIDS[:-1], dtype=float)
    grow = np.expm1(kappa[:, None, None] * np.abs(table.indices))
    amp = 2.0 * np.hypot(table.cos, table.sin)
    return np.max(np.einsum("k,nkj->nj", amp, grow), axis=1)


class OmegaEvaluator:
    """Evaluator of Omega(p; .) for one (model, p, spec).

    evaluate() and second_moment() share one moment path: a two_particle
    fibre is answered from the z-independent table of the Laplace-Bessel
    route (built here, about 1-3 ms), any other by the plain torus sum
    past the crossovers computed here, else by the refinement loop of the
    spec.  The spec's rel_tol bounds the route's bar; on the route the
    node counts shape only value_at_level.  Levels of node data are
    built lazily; level L uses node counts scaled by 2^L relative to the
    base spec, and values at a fixed level are deterministic functions of
    z (fixed-order reductions).  The threshold value Omega(p; M(p)) is
    evaluated on the first read of `threshold` and kept; evaluate(M(p))
    returns it, and at either of the last two z it reduced, evaluate(z)
    returns the kept value without reducing again.  Lazy level
    construction is not synchronised: share an evaluator across threads
    only after its levels are built.  A reduction's scratch block is
    allocated per call and not stored on the evaluator, and the two recent
    values and the torus-sum grids in use are each replaced in a single
    assignment, so threads that share a built evaluator never share a
    buffer or see half an update.
    """

    def __init__(self, model, p, cp, spec: QuadratureSpec | None = None):
        self.model = model
        self.p = check_momentum(p)  # the route reads p without w_p
        self.cp = cp
        self.spec = spec if spec is not None else QuadratureSpec()
        self.q0 = cp.q0
        self.M = cp.M
        self._phi0_sq = float(model.phi(self.q0)) ** 2
        self._negA = -cp.hessian
        self._levels = []
        self._below_tol = 1e-12 * max(1.0, abs(self.M))
        self._threshold = None
        self._recent = ()  # the last two (z, OmegaValue), newest first
        self._laplace = (laplace_table(model, self.p)
                         if model.family == "two_particle" else None)
        self._crossovers = (None if self._laplace is not None
                            else _crossovers(model._w_block))
        self._grids = {}  # N -> (w, phi^2) of the torus-sum grids in use

    @cached_property
    def _w_fibre(self):
        """w_p as one table in q (model.fibre_table), read by the level
        builds and the torus-sum grids; a route fibre builds neither and
        never reads it."""
        return self.model.fibre_table(self.p)

    @property
    def threshold(self) -> OmegaValue:
        """Omega(p) = Omega(p; M(p)), evaluated once."""
        if self._threshold is None:
            self._threshold = self.evaluate(self.M)
        return self._threshold

    @cached_property
    def edge_samples(self):
        """(deltas, data, bar), data_j = Omega(p) - Omega(p; M(p) + d_j) at
        the FIT_POINTS offsets d_j = k x (x log-spaced over FIT_WINDOW, k
        the largest eigenvalue of -A/2) and bar the bar of Omega(p) plus the
        largest of the others; on identical nodes, so systematic errors
        cancel.  The offsets are one batch of _moment, the bits of evaluate
        at each, and do not enter the memo of recent values.  Computed
        once; the arrays are read-only."""
        k = -0.5 * self.cp.hessian_eigenvalues[0]
        deltas = k * np.logspace(np.log10(FIT_WINDOW[0]),
                                 np.log10(FIT_WINDOW[1]), FIT_POINTS)
        omega = self.threshold
        values = self._moment(self.M + deltas, 1, "quadrature")
        data = np.array([omega.value - v[0] for v in values])
        bar = omega.estimated_error + max(v[1] for v in values)
        return _read_only(deltas, data) + (bar,)

    # -- node data ------------------------------------------------------

    def _build_level(self, level):
        s = self.spec
        n_grid = s.n_grid * 2 ** level
        n_rad = s.n_radial * 2 ** level
        n_ang = s.n_angular * 2 ** level
        # 2 far arrays of n_grid^3; near: 2 of n_rad x 2 n_ang^2 over the
        # whole rule, 2 of n_rad x n_ang^2 and 2 of n_ang^2 over its half
        nbytes = 8 * (2 * n_grid ** 3 + (6 * n_rad + 2) * n_ang ** 2)
        if nbytes > MAX_LEVEL_BYTES:
            raise QuadratureError(
                "level %d would keep %.4g MiB of nodes (n_grid %d), above "
                "the %d MiB bound; decrease n_grid" % (
                    level, nbytes / 2 ** 20, n_grid, MAX_LEVEL_BYTES >> 20))
        rho = RHO_CAP

        # far field: midpoint torus grid, weight h^3 (1-chi) phi^2, built in
        # slabs of i-planes straight into n^3 arrays; the nodes kept
        # (weight > 0) are their leading slice, a view of the n^3 buffers.
        # The ball dist < rho lies in the tensor box of the axis nodes
        # within rho of q0 (dist >= sqrt(d_i) on every axis i): the bump is
        # evaluated there only, and elsewhere chi is 0.0 and the weight is
        # h^3 phi^2, the same bits as h^3 (1 - 0.0) phi^2
        ax = grid_axis(n_grid)
        grid = tensor_grid(ax)
        h3 = (2.0 * np.pi / n_grid) ** 3
        d2 = [wrap_angles(ax - c) ** 2 for c in self.q0]
        box = [np.flatnonzero(np.sqrt(d) < rho) for d in d2]
        far_weight = np.empty(n_grid ** 3)
        far_w = np.empty(n_grid ** 3)
        kept = 0
        tables = (self._w_fibre, self.model._phi)
        planes = max(1, BLOCK // n_grid ** 2)
        for i in range(0, n_grid, planes):
            slab = (grid[0][i:i + planes],) + grid[1:]
            shape = (len(slab[0]), n_grid, n_grid)
            w, phi = harmonic_values(tables, *slab)
            phi2 = np.asarray(phi) ** 2
            # formed in place in far_weight, where it stays if every node
            # is kept
            weight = np.multiply(h3, phi2, out=far_weight[
                kept:kept + shape[0] * n_grid ** 2].reshape(shape))
            inner = box[0][(box[0] >= i) & (box[0] < i + planes)]
            if inner.size and box[1].size and box[2].size:
                dist = np.sqrt(d2[0][inner, None, None]
                               + d2[1][None, box[1], None] + d2[2][box[2]])
                shell = dist < rho
                chi = np.zeros(dist.shape)
                chi[shell] = bump_profile(dist[shell] / rho)
                sub = np.ix_(inner - i, box[1], box[2])
                weight[sub] = (h3 * (1.0 - chi)
                               * np.broadcast_to(phi2, shape)[sub])
            if weight.min() > 0.0:  # every node kept: w copied whole
                n_keep = weight.size
                far_w[kept:kept + n_keep].reshape(shape)[...] = w
            else:
                keep = weight > 0.0
                n_keep = np.count_nonzero(keep)
                # weight[keep] is a copy, so overwriting the slice weight
                # views is safe
                far_weight[kept:kept + n_keep] = weight[keep]
                far_w[kept:kept + n_keep] = np.broadcast_to(w, shape)[keep]
            kept += n_keep
        far_weight, far_w = far_weight[:kept], far_w[:kept]

        # near field: polar nodes about q0, built in blocks of radii; a
        # block is (radii, n_ang polar, 2 n_ang azimuthal nodes), and axis 3
        # takes only the n_ang distinct cos(theta) of each radius.  The
        # azimuths f < n_ang hold one direction of each antipodal pair: axes
        # 1 and 2 take their harmonics from that half, and the Hessian
        # model, even in nu, is kept on it with twice the weights
        xr, wr = _gauss_legendre(n_rad)
        r = 0.5 * rho * (xr + 1.0)
        wr = 0.5 * rho * wr
        nu, wa = sphere_product_rule(n_ang)
        half = nu.reshape(n_ang, 2 * n_ang, 3)[:, :n_ang]
        orders = [harmonic_orders(tables, i) for i in (0, 1)]
        radial = wr * bump_profile(r / rho) * r * r
        u = np.empty((n_rad, nu.shape[0]))
        P = np.empty(u.shape)
        # half a BLOCK of nodes per block: harmonic_values keeps four
        # harmonics, two sums and a term of block size
        rows = max(1, BLOCK // 2 // nu.shape[0])
        for i in range(0, n_rad, rows):
            ri = r[i:i + rows, None, None]
            block = (len(ri), n_ang, 2 * n_ang)
            w, phi = harmonic_values(tables,
                                     *_polar_block(self.q0, ri, half, orders))
            weight = (radial[i:i + rows, None] * wa[None, :]).reshape(block)
            np.subtract(self.M, w, out=u[i:i + rows].reshape(block))
            np.multiply(weight, np.asarray(phi) ** 2,
                        out=P[i:i + rows].reshape(block))
        if np.min(u) <= 0.0:
            raise QuadratureError(
                "the near-field ball of radius %.3f about q0 has nodes where "
                "w_p - M(p) reaches %.3g (M(p) = %.12g): M(p) is not the "
                "maximum of w_p, or w_p is within rounding of it at a node"
                % (rho, 0.0 - np.min(u), self.M))
        half = half.reshape(-1, 3)
        wa = 2.0 * wa.reshape(n_ang, 2 * n_ang)[:, :n_ang].ravel()
        k = 0.5 * np.einsum("ij,jk,ik->i", half, self._negA, half)
        return {
            "far_weight": far_weight, "far_w": far_w,
            "P": P, "u": u, "k": k, "wa": wa,
            "kr2": k[None, :] * (r ** 2)[:, None],
            "R2wa": (wr * r * r)[:, None] * wa[None, :],
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
        if not z < float("inf"):
            raise InvalidInputError("z = %r is not finite" % (float(z),))
        return max(float(z) - self.M, 0.0)

    def _sums(self, z, level, power):
        """(total, near, far) of int phi^2 / (z - w_p)^power at one level:
        floats for one z, and for a 1-D array of z three arrays, from one
        pass over the level's nodes, each entry bitwise the one-z value."""
        z = np.asarray(z, dtype=float)
        delta = np.reshape([self._delta(x) for x in z.ravel()], z.shape)
        L = self._level(level)
        far = _sum_over(L["far_weight"], z, np.subtract, L["far_w"], power)
        near = _sum_over(L["P"], delta, np.add, L["u"], power)
        # the Hessian model and its closed form carry the factor phi(q0)^2;
        # when it is 0 they add exactly 0.0 (and the closed form of power 2
        # would divide by delta = 0), so they are skipped
        if self._phi0_sq != 0.0:
            model_part = self._phi0_sq * _sum_over(L["R2wa"], delta, np.add,
                                                   L["kr2"], power)
            closed = np.reshape([self._phi0_sq * np.sum(
                L["wa"] * _radial_closed_form(float(d), L["k"], RHO_CAP,
                                              power)) for d in delta.ravel()],
                delta.shape)
            near = near - model_part + closed
        if z.ndim:
            return near + far, near, far
        return float(near + far), float(near), float(far)

    def value_at_level(self, z, level):
        """(total, near, far) at a fixed refinement level, for one z or a
        1-D array of z (see _sums)."""
        return self._sums(z, level, 1)

    def _torus_sum(self, z, delta, power):
        """(value, bar, N) of the plain torus sum h^3 sum phi^2 / (z -
        w_p)^power, or None below every crossover: N is the first
        SUM_GRIDS grid whose crossover delta reaches, the value is the sum
        on the next grid, and the bar is its distance from the sum on N
        plus ROUNDING times the value (the terms are positive, and the two
        sums can agree to the last bit).  Only the two grids in use keep
        their w and phi^2."""
        met = np.flatnonzero(self._crossovers <= delta)
        if not (delta > 0.0 and met.size):
            return None
        pair = SUM_GRIDS[met[0]:met[0] + 2]
        grids = {N: g for N, g in self._grids.items() if N in pair}
        self._grids = dict(grids)  # grids out of use go before a build
        for N in pair:
            if N not in grids:
                w, phi = harmonic_values((self._w_fibre, self.model._phi),
                                         *tensor_grid(grid_axis(N)))
                # squared in place; a constant phi stays 0-d
                phi2 = np.square(phi, out=phi if np.ndim(phi) else None)
                full = (N,) * 3
                grids[N] = (np.broadcast_to(w, full).ravel(),
                            np.broadcast_to(phi2, full).ravel()
                            if phi2.ndim else phi2)
        self._grids = grids
        coarse, fine = ((2.0 * np.pi / N) ** 3
                        * _sum_over(grids[N][1], z, np.subtract, grids[N][0],
                                    power) for N in pair)
        return fine, abs(fine - coarse) + ROUNDING * fine, pair[0]

    def _moment(self, z, power, what):
        """(value, estimate, n_grid) of int phi^2 / (z - w_p)^power, the one
        place that chooses the backend: the Laplace-Bessel route, with its
        bar and the spec's n_grid, for a two_particle fibre; for a trig_poly
        fibre the plain torus sum past its first crossover, if its bar is
        within the spec's relative tolerance, else the refinement loop.

        The loop doubles all node counts until |dnear| + |dfar| between
        consecutive levels (the change of the total can cancel between the
        fields) is within the spec's relative tolerance of the total.  A bar
        above that bound, or an estimate that the doublings left cannot
        bring within it, each shrinking it at most MAX_CONTRACTION times,
        raises QuadratureNotConvergedError before the next level is built.

        A 1-D array of z gives the list of their triples, each bitwise the
        one-z triple.  The backend and convergence are decided per z, and
        each level is reduced once for all z the loop still holds.  The
        QuadratureNotConvergedError raised, and the levels built, are those
        of the z evaluated one by one in order: a z refused drops every z
        after it.  A z below M(p) or not finite is refused (_delta) before
        any level is reduced.
        """
        batch = isinstance(z, np.ndarray) and z.ndim > 0
        zs = z if batch else (z,)
        tol = self.spec.rel_tol
        out, pending = [], []
        for x in zs:
            delta = self._delta(x)
            if self._laplace is not None:
                value, est = laplace_omega(self._laplace, delta, power)
                if not est <= tol * abs(value):
                    raise self._refusal(what, value, est, tol * abs(value),
                                        "on the Laplace-Bessel route")
                out.append((value, est, self.spec.n_grid))
                continue
            summed = self._torus_sum(x, delta, power)
            if summed is None or not summed[1] <= tol * abs(summed[0]):
                pending.append(len(out))
                summed = None
            out.append(summed)
        if pending:
            self._refine(zs, pending, out, power, what)
        return out if batch else out[0]

    def _refine(self, zs, pending, out, power, what):
        """The refinement loop of _moment for zs[j], j in pending: each
        level is reduced once for the z it still holds, and each triple
        goes into out[j].  A refused z drops the z after it; the first
        refusal in the order of zs is raised once the z before it are
        settled."""
        tol = self.spec.rel_tol
        prev, failure = {}, None
        for level in range(MAX_REFINEMENTS + 1):
            if not pending:
                break
            held_z = np.array([zs[j] for j in pending], dtype=float)
            sums = zip(*(self.value_at_level(held_z, level) if power == 1
                         else self._sums(held_z, level, power)))
            held = []
            for j, (value, near, far) in zip(pending, sums):
                if level:
                    est = float(abs(near - prev[j][0])
                                + abs(far - prev[j][1]))
                    bound = tol * max(abs(value), 1e-300)
                    if est <= bound:
                        n_grid = self.spec.n_grid * 2 ** level
                        out[j] = float(value), est, n_grid
                        continue
                    left = MAX_REFINEMENTS - level
                    if not est <= bound * MAX_CONTRACTION ** left:
                        failure = (value, est, bound, "at level %d" % level + (
                            "; %d more doubling(s) cannot reach the bound if "
                            "each shrinks the estimate at most %dx"
                            % (left, MAX_CONTRACTION) if left else ""))
                        break
                prev[j] = near, far
                held.append(j)
            pending = held
        if failure is not None:
            raise self._refusal(what, *failure)

    def _refusal(self, what, value, est, bound, where):
        return QuadratureNotConvergedError(
            "%s not converged: estimate %.3e above %.3e (rel_tol %.1e x "
            "|value| %.3e) %s" % (what, est, bound, self.spec.rel_tol,
                                  abs(value), where))

    def evaluate(self, z) -> OmegaValue:
        """Omega(p; z) with its error bar, from the moment path.

        Raises QuadratureNotConvergedError if the route's bar exceeds the
        spec's relative tolerance, or if MAX_REFINEMENTS doublings do not
        reach it, or cannot be expected to; InvalidInputError for z = nan
        or +inf, BelowThresholdError below M(p).
        """
        if z == self.M and self._threshold is not None:
            return self._threshold
        recent = self._recent
        for z_seen, value in recent:
            if z_seen == z:
                return value
        value = OmegaValue(*self._moment(z, 1, "quadrature"))
        self._recent = ((z, value),) + recent[:1]
        return value

    def second_moment(self, z):
        """int phi^2 / (z - w_p)^2 ds for z > M(p), by the moment path of
        evaluate; an underflow (z - M > 7e153 ||phi||) is a QuadratureError.

        At z = M(p) it is finite only where phi(q0) = 0, and then it is the
        squared norm ||f0||^2 of the threshold state f0 = phi / (M - w_p).
        """
        if self._delta(z) <= 0.0 and self._phi0_sq != 0.0:
            raise BelowThresholdError(
                "second moment diverges at the band edge")
        value = self._moment(z, 2, "second moment")[0]
        if not value >= np.finfo(float).tiny:
            raise QuadratureError("second moment underflows: %.3e at z - M(p) "
                                  "= %.3e" % (value, z - self.M))
        return value


def edge_scaled(data):
    """(data 2^-k, k), k = e - clip(e, -500, 500), e the binary exponent of
    max |data|: what the edge record's readers square, divide and take norms
    of, which neither overflows nor underflows; k = 0 at ordinary scales."""
    e = int(np.frexp(np.max(np.abs(data)))[1])
    k = e - min(max(e, -500), 500)
    return np.ldexp(data, -k), k


def state_norm_diagnostics(evaluator: OmegaEvaluator) -> float:
    """The L2 growth exponent of the threshold state f = phi / (M - w_p)
    near the maximizer, ~1 for a resonance-type threshold state (f not in
    L2), ~0 when f is square integrable: the slope of log m_j against
    log(1/sqrt(d_j)).

    m_j = data_j / d_j of evaluator.edge_samples (expansion_fit's samples,
    scaled by edge_scaled) is the mean second moment int phi^2 / (s -
    w_p)^2 over s in [M, M + d_j].  With d_j = k r_j^2 it grows like 1/r_j
    exactly when phi(q0) != 0, as the L2 mass of f outside the ball of
    radius r_j does.  Moments not positive and finite raise QuadratureError.
    """
    deltas, data, _ = evaluator.edge_samples
    scaled, k = edge_scaled(data)
    moments = scaled / deltas
    if not np.all((moments > 0.0) & np.isfinite(moments)):
        raise QuadratureError(
            "state norm diagnostics undefined: moments %s x 2^%d are not "
            "positive and finite" % (moments.tolist(), k))
    return float(np.polyfit(-0.5 * np.log(deltas), np.log(moments), 1)[0])
