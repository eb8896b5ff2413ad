"""Independent reference values for the builtin family with phi = 1.

This restates the Bessel integral of the test suite so that the benchmark
checks every phi = 1 answer against a route that shares no code with the
production quadrature.  The tolerances are tighter than the test suite's,
and for delta > 0 the t-range is split into decades up to 40 / delta:
the test suite's two pieces are off by up to a few percent once delta
drops below about 1e-6, where near-threshold roots land.
"""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import i0e

EPSREL = 1e-12


def bessel_omega(delta, p, hopping=(1.0, 1.0, 1.0)):
    """(Omega(p; M(p) + delta), its quadrature error bound) for
    w_p = eps(q) + eps(p - q), phi = 1.

    With alpha_i = c_i cos(p_i / 2) the band-edge denominator separates as
    M(p) - w_p = sum_i 2 alpha_i (1 - cos s_i), so

        int_{T^3} ds / (delta + M - w_p)
            = (2 pi)^3 int_0^inf e^{-t delta} prod_i i0e(2 alpha_i t) dt.
    """
    al = np.asarray(hopping, dtype=float) * np.cos(0.5 * np.asarray(p, dtype=float))

    def f(t):
        return np.exp(-t * delta) * i0e(2 * al[0] * t) * i0e(2 * al[1] * t) \
            * i0e(2 * al[2] * t)

    edges = [0.0, 60.0]
    while delta > 0.0 and edges[-1] < 40.0 / delta:
        edges.append(10.0 * edges[-1])
    edges.append(np.inf)
    value = error = 0.0
    with warnings.catch_warnings():
        # a piece that stops short of EPSREL says so in its error bound
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            v, e = quad(f, a, b, limit=400, epsabs=0.0, epsrel=EPSREL)
            value += v
            error += e
    return (2.0 * np.pi) ** 3 * value, (2.0 * np.pi) ** 3 * error


def band_top(p, hopping=(1.0, 1.0, 1.0)):
    """Closed-form M(p) = sum_i c_i (2 + 2 |cos(p_i / 2)|)."""
    c = np.asarray(hopping, dtype=float)
    return float(np.sum(c * (2.0 + 2.0 * np.abs(np.cos(0.5 * np.asarray(p))))))


def bessel_det(mu, p, z):
    """(1 - mu Omega(p; z), its error bound) from the Bessel route, z >= M(p)."""
    value, error = bessel_omega(max(z - band_top(p), 0.0), p)
    return 1.0 - mu * value, mu * error
