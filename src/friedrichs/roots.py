"""Brent's bracketing root finder.

A line-by-line port of brentq.c in scipy.optimize (Brent, Algorithms for
Minimization Without Derivatives, 1973, ch. 4): the same bracket swap,
tolerance delta = (xtol + rtol |x|) / 2, choice between secant and
inverse-quadratic steps, bisection test and minimum step.  It evaluates
f at the same points and returns the same root bits as
scipy.optimize.brentq (tests/test_roots.py compares the two), without
importing scipy.optimize.  A build of brentq.c that fuses xtol + rtol |x|
into one multiply-add could differ from it in the last bit of a step.
"""

from __future__ import annotations

import math

from .errors import BracketingError


def brentq(f, a, b, *, args, xtol, rtol, maxiter):
    """Root of f(x, *args) in [a, b], where f(a) and f(b) differ in sign.

    As in scipy, xtol > 0 and rtol >= 4 eps; a smaller step could leave x
    unchanged.  Raises BracketingError when f is NaN at an evaluated point,
    when f(a) and f(b) have the same sign, or when maxiter iterations do
    not reach the tolerance xtol + rtol |x|.
    """
    xtol, rtol = float(xtol), float(rtol)  # C doubles: x stays a float

    def value(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise BracketingError("objective is NaN at x = %r" % x)
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketingError(
            "no sign change on the bracket: f(%r) = %r, f(%r) = %r"
            % (xpre, fpre, xcur, fcur))
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:             # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf   # C gives inf or nan: the step test fails
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise BracketingError(
        "no convergence after %d iterations: last x = %r, f = %r"
        % (maxiter, xcur, fcur))
