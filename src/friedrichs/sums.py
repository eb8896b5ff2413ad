"""Streamed sums of num / op(c, b)**power over large node arrays.

The split quadrature's per-z reductions and the lattice oracle's secular
sums both add up sum_j num_j / op(c, b_j)**power over up to 2^21 nodes.
Forming the denominator as a full temporary costs one node-sized array per
call; here it is formed and summed block by block in one scratch buffer
of at most BLOCK elements.  The blocks follow NumPy's pairwise-summation
split, so every sum is bitwise the one of the full temporary (NumPy sums
a contiguous float64 array by that same split, down to 8-way unrolled
leaves of at most 128 elements).
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 16  # elements per streamed block of a level build or reduction


def _sum_over(num, c, op, b, power):
    """sum(num / op(c, b)**power) over all elements of b, bitwise equal to
    summing the full temporary: the blocks follow NumPy's pairwise
    summation split down to BLOCK elements, and each block is formed and
    summed in one scratch buffer allocated per call.  num has the shape of
    b, or is 0-d (a constant numerator)."""
    b = b.reshape(-1)
    num = np.asarray(num)
    if num.ndim:
        num = num.reshape(-1)
    buf = np.empty(min(b.size, BLOCK))
    return float(_pairwise_sum(num, c, op, b, power, buf))


def _pairwise_sum(num, c, op, b, power, buf):
    n = b.size
    if n <= BLOCK:
        d = op(c, b, out=buf[:n])
        if power == 2:
            with np.errstate(over="ignore"):  # num / inf adds 0 below
                np.multiply(d, d, out=d)
        return np.divide(num, d, out=d).sum()
    half = n // 2 - (n // 2) % 8  # numpy's pairwise_sum split
    lo, hi = (num, num) if num.ndim == 0 else (num[:half], num[half:])
    return (_pairwise_sum(lo, c, op, b[:half], power, buf)
            + _pairwise_sum(hi, c, op, b[half:], power, buf))
