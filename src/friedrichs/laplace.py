"""Exact Laplace-Bessel route for Omega of the two_particle family.

For w_p(q) = eps(q) + eps(p - q), eps(q) = sum_j c_j (1 - cos q_j), the
band-edge denominator separates axis by axis about the maximizer q0:

    M(p) - w_p(q0 + s) = sum_j 2 alpha_j (1 - cos s_j),
    alpha_j = c_j |cos(p_j / 2)|.

q0 and alpha are read from critical.two_particle_closed_forms, the one
owner of the fibre's critical point (find_maximizer reads it too), so the
route and cp agree on q0 bit for bit, and p and p - 2 pi e_j give the same
table.

Write phi^2(q) = sum_m a_m e^{i m.q}; phi has order <= 2 per axis, so
|m_j| <= 4 and the sum is finite.  With 1/x = int_0^inf e^{-t x} dt,
1/x^2 = int_0^inf t e^{-t x} dt and
int_T e^{-2 alpha t (1 - cos s)} e^{i n s} ds = 2 pi ive(|n|, 2 alpha t),

    int_{T^3} phi^2 / (M + delta - w_p)^power
        = (2 pi)^3 int_0^inf t^(power - 1) e^{-t delta} G(t) dt,
    G(t) = sum_m Re[a_m e^{i m.q0}] prod_j ive(|m_j|, 2 alpha_j t).

The t-integral is split in three at t0 = e^HEAD_U / max(1, max_j alpha_j)
and T:

* head [0, t0]: G(t) is G(0) = a_0 (the mean of phi^2) up to
  t 2 sum_j alpha_j sum_m |a_m|, so the head is a_0 times the exact
  int t^(power-1) e^{-t delta}, and that slope times
  int t^power e^{-t delta} bounds its error.  G depends on t only
  through alpha_j t, so t0 shrinks with the largest alpha_j: the bound
  keeps its relative size as w -> c w scales Omega by 1/c, and t0 is
  e^HEAD_U exactly when every alpha_j <= 1;
* body [t0, T], T >= TAIL_X / min_j alpha_j: fixed Gauss-Legendre
  in u = log t, panels PANEL wide with PANEL_NODES nodes each;
* tail [T, inf): every x_j = 2 alpha_j t >= 2 TAIL_X, where
  ive(n, x) = (2 pi x)^(-1/2) sum_k s_k(n) x^-k, s_k(n) = (-1)^k
  prod_{i<=k} (4 n^2 - (2i - 1)^2) / (k! 8^k).  The product of the three
  series, cut at SERIES_TERMS terms in 1/t, is integrated in closed form
  against e^{-t delta} t^(-3/2-k) (erfc, then the upward recursion of
  the incomplete gamma function).

The bar is the first omitted term of that product (taken in absolute
value), plus the head bound, plus 64 eps times the sum of the magnitudes
that were added (mode by mode, so cancellation between modes cannot hide
rounding).  It does not include the discretisation error of the body
rule, which is below rounding: doubling the nodes per panel moves no value
by a tenth of its bar.

Everything but e^{-t delta} is independent of z, so laplace_table builds
the nodes, G and the tail coefficients of a fibre once, and
laplace_omega costs one exponential per node and two dot products.

The Bessel factors are numpy code (no SciPy).  _ives sums the power
series e^-x (x/2)^n sum_k (x^2/4)^k / (k! (k+n)!) by Horner in x^2/4 up
to x = IVE_SWITCH = 20 (POWER_TERMS terms, the next below 1e-18 of the
sum there), and the Hankel series above (HANKEL_TERMS terms of s_k(n),
the next below 5e-18 at x = 20); for n = 0..4 it is within 1.2e-15
relative of mpmath (40 digits) over x in [1e-13, 1e12].  laplace_table
takes the two highest orders of the fibre from _ives, for the three axes
in one array and with the split and prefactors formed once, and the
lower ones from the downward recurrence I_{n-1} = I_{n+1} + (2n/x) I_n,
which only adds positive terms.  The head moments are
eps^k gamma(k, x) / x^k from math alone, within 2e-15 relative of mpmath.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .critical import two_particle_closed_forms

HEAD_U = -30.0         # log t0, the head's end, when every alpha_j <= 1
PANEL = 0.5            # panel width in u = log t
PANEL_NODES = 32       # Gauss-Legendre nodes per panel
TAIL_X = 1e3           # the tail starts at T >= TAIL_X / min_j alpha_j
SERIES_TERMS = 4       # terms of the tail series in 1/t; the next is the bar
IVE_SWITCH = 20.0      # ive(n, x) from its power series up to this x
POWER_TERMS = 37       # terms of the power series in x^2 / 4
HANKEL_TERMS = 30      # terms of the Hankel series in 1 / x above it
ROUNDING = 64.0 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _series_coeffs(n, terms=SERIES_TERMS + 1):
    """s_0(n) ... s_{terms-1}(n) of ive(n, x) sqrt(2 pi x) in 1/x."""
    out = [1.0]
    for k in range(1, terms):
        out.append(-out[-1] * (4 * n * n - (2 * k - 1) ** 2) / (8.0 * k))
    return tuple(out)


@lru_cache(maxsize=None)
def _power_coeffs(n):
    """1 / (k! (k + n)!) for k < POWER_TERMS: I_n(x) (x/2)^-n in x^2 / 4."""
    return tuple(1.0 / (math.factorial(k) * math.factorial(k + n))
                 for k in range(POWER_TERMS))


def _horner(y, coeffs):
    """sum_k coeffs[k] y^k."""
    out = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= y
        out += c
    return out


def _ives(orders, x):
    """[ive(n, x) = I_n(x) e^-x for n in orders], 0 <= n <= 4, x > 0 an
    array: the two series split at IVE_SWITCH, with the factors that do not
    depend on n formed once."""
    low = x <= IVE_SWITCH
    high = ~low
    xs, xb = x[low], x[high]
    decay, half, y = np.exp(-xs), 0.5 * xs, 0.25 * xs * xs
    inv, root = 1.0 / xb, np.sqrt(2.0 * np.pi * xb)
    values = []
    for n in orders:
        out = np.empty_like(x)
        out[low] = decay * half ** n * _horner(y, _power_coeffs(n))
        out[high] = _horner(inv, _series_coeffs(n, HANKEL_TERMS)) / root
        values.append(out)
    return values


def _ive_orders(top, x):
    """[ive(0, x), ..., ive(top, x)]: the two highest orders from _ives,
    the others by the downward recurrence I_{n-1} = I_{n+1} + (2n/x) I_n,
    whose two terms are positive."""
    if top == 0:
        return _ives((0,), x)
    out = _ives((top - 1, top), x)
    two_over_x = 2.0 / x
    for n in range(top - 1, 0, -1):
        out.insert(0, out[1] + n * two_over_x * out[0])
    return out


@lru_cache(maxsize=32)
def _log_rule(u0, n_panels, nodes):
    """Gauss-Legendre in u = log t over n_panels panels from u0:
    (t, weights of dt), read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = u0 + PANEL * (np.arange(n_panels)[:, None] + 0.5 * (x + 1.0))
    t = np.exp(u).ravel()
    wt = np.broadcast_to(0.5 * PANEL * w, u.shape).ravel() * t
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


@lru_cache(maxsize=8)
def _phi_squared_modes(table):
    """{m: a_m} of phi^2 = sum_m a_m e^{i m.q} for a HarmonicTable phi, as
    (m, a_m) pairs: formed once per table (kept for the last few tables),
    not per fibre."""
    beta = {}
    for k, c, s in zip(table.indices, table.cos, table.sin):
        k = tuple(int(v) for v in k)
        if k == (0, 0, 0):
            beta[k] = beta.get(k, 0.0) + c
        else:
            neg = tuple(-v for v in k)
            beta[k] = beta.get(k, 0.0) + 0.5 * complex(c, -s)
            beta[neg] = beta.get(neg, 0.0) + 0.5 * complex(c, s)
    modes = {}
    for (k, bk), (l, bl) in itertools.product(beta.items(), repeat=2):
        m = (k[0] + l[0], k[1] + l[1], k[2] + l[2])
        modes[m] = modes.get(m, 0.0) + bk * bl
    return tuple(modes.items())


@dataclass(frozen=True)
class LaplaceTable:
    """The z-independent part of the route for one fibre.

    t, wg, wh    body nodes, weights times G(t), weights times the
                 mode-by-mode magnitude H(t) >= |G(t)|
    t0, T        end of the head, start of the tail
    a0, slope    G(0) and the bound 2 sum_j alpha_j sum_m |a_m| on |G'|
    tail         SERIES_TERMS coefficients of t^(-3/2-K) in G(t)
    omitted      the magnitude of the first omitted coefficient
    """

    t: np.ndarray
    wg: np.ndarray
    wh: np.ndarray
    t0: float
    T: float
    a0: float
    slope: float
    tail: np.ndarray
    omitted: float


def laplace_table(model, p) -> LaplaceTable:
    """Nodes, G(t) and tail coefficients of the fibre (model, p) for a
    two_particle model, at the closed-form q0 and alpha."""
    q0, _, alpha = two_particle_closed_forms(model.hopping, p)

    coef, size = {}, {}  # per (|m_1|, |m_2|, |m_3|): Re[a_m e^{i m.q0}], |a_m|
    for m, a in _phi_squared_modes(model._phi):
        key = tuple(abs(v) for v in m)
        coef[key] = coef.get(key, 0.0) + (a * np.exp(1j * np.dot(m, q0))).real
        size[key] = size.get(key, 0.0) + abs(a)

    # log t0: HEAD_U exactly when every alpha_j <= 1
    u0 = HEAD_U - math.log(max(1.0, float(alpha.max())))
    n_panels = max(1, math.ceil((math.log(TAIL_X / alpha.min()) - u0)
                                / PANEL))
    t, wt = _log_rule(u0, n_panels, PANEL_NODES)
    T = math.exp(u0 + PANEL * n_panels)
    orders = [{key[j] for key in coef} for j in range(3)]
    # per order and axis, factors[n][j]: ive at the body nodes, all three
    # axes in one array; per axis and order, the series coefficients of
    # t^-k, s_k(n) / (2 alpha_j)^k
    factors = _ive_orders(max(map(max, coef)), 2.0 * alpha[:, None] * t)
    k = np.arange(SERIES_TERMS + 1)
    series = [{n: np.array(_series_coeffs(n)) / (2.0 * a) ** k for n in ns}
              for a, ns in zip(alpha, orders)]
    power_of_t = k[:, None, None] + k[None, :, None] + k[None, None, :]
    G = np.zeros_like(t)
    H = np.zeros_like(t)
    tail = np.zeros(SERIES_TERMS)
    omitted = 0.0
    for key in coef:
        prod = factors[key[0]][0] * factors[key[1]][1] * factors[key[2]][2]
        G += coef[key] * prod
        H += size[key] * prod
        terms = np.einsum("i,j,k->ijk", *(series[j][key[j]] for j in range(3)))
        tail += coef[key] * np.bincount(
            power_of_t.ravel(), terms.ravel())[:SERIES_TERMS]
        omitted += size[key] * np.abs(terms[power_of_t == SERIES_TERMS]).sum()
    lead = (2.0 * np.pi) ** -1.5 / math.sqrt(8.0 * float(np.prod(alpha)))
    return LaplaceTable(
        t=t, wg=wt * G, wh=wt * H, t0=math.exp(u0), T=T,
        a0=coef.get((0, 0, 0), 0.0),
        slope=2.0 * float(np.sum(alpha)) * sum(size.values()),
        tail=lead * tail, omitted=lead * omitted)


def _tail_integrals(delta, T, n):
    """J_a = int_T^inf e^{-delta t} t^-a dt for a = 1/2, 3/2, ...,
    n - 1/2; J_{1/2} is inf at delta = 0."""
    e = math.exp(-delta * T)
    # delta J_{1/2}, 0.0 at delta = 0
    dj = math.sqrt(math.pi * delta) * math.erfc(math.sqrt(delta * T))
    J = [dj / delta if delta > 0.0 else math.inf]
    a = 0.5
    for _ in range(n - 1):
        J.append((T ** -a * e - dj) / a)
        dj = delta * J[-1]
        a += 1.0
    return J


def _head_moment(k, delta, eps):
    """int_0^eps t^(k-1) e^{-t delta} dt = eps^k gamma(k, x) / x^k for
    k = 1, 2, 3, the head's end eps and x = delta eps: the alternating series
    sum_j (-x)^j / (j! (k + j)) below x = 1, and
    gamma(k, x) = (k-1)! (1 - sum_{j<k} e^-x x^j / j!) above, with the
    terms formed as exp(j log x - x) and the prefactor as (eps / x)^k so
    that no intermediate overflows at any finite delta."""
    x = delta * eps
    if x < 1.0:
        # the sum is above 1/12, and the terms fall below x^j / j!
        total, term, j = 0.0, 1.0, 0
        while abs(term) > 1e-19:
            total += term / (k + j)
            j += 1
            term *= -x / j
        return eps ** k * total
    partial = sum(math.exp(j * math.log(x) - x) / math.factorial(j)
                  for j in range(k))
    return (eps / x) ** k * math.factorial(k - 1) * (1.0 - partial)


def laplace_omega(table: LaplaceTable, delta, power=1):
    """(value, bar) of int_{T^3} phi^2 / (M + delta - w_p)^power for
    delta >= 0 and power 1 or 2.  At delta = 0, power 2 is finite only
    where phi(q0) = 0; the tail term of coefficient phi(q0)^2 is then
    left out, so the caller must check phi(q0) first."""
    t = table.t
    e = np.exp(-delta * t)
    if power == 2:
        e *= t
    body = float(e @ table.wg)
    body_abs = float(e @ table.wh)
    # head: a_0 int_0^eps t^(power-1) e^{-t delta} dt, and the slope of G
    # times the next moment bounds its error
    head = table.a0 * _head_moment(power, delta, table.t0)
    head_bound = table.slope * _head_moment(power + 1, delta, table.t0)
    J = _tail_integrals(delta, table.T, SERIES_TERMS + 2)
    tail = sum(table.tail[K] * J[K + 2 - power]
               for K in range(SERIES_TERMS)
               if not (power == 2 and K == 0 and delta == 0.0))
    omitted = table.omitted * J[SERIES_TERMS + 2 - power]
    scale = (2.0 * np.pi) ** 3
    value = scale * (head + body + tail)
    bar = scale * (omitted + head_bound
                   + ROUNDING * (body_abs + abs(head) + abs(tail)))
    return value, bar
