"""Streamed sums of num / op(c, b)**power over large node arrays.

The split quadrature's per-z reductions and the lattice oracle's secular
sums both add up sum_j num_j / op(c, b_j)**power over up to 2^21 nodes.
Forming the denominator as a full temporary costs one node-sized array per
call; here it is formed and summed block by block in one scratch buffer
of at most BLOCK elements.  The blocks follow NumPy's pairwise-summation
split, so every sum is bitwise the one of the full temporary (NumPy sums
a contiguous float64 array by that same split, down to 8-way unrolled
leaves of at most 128 elements).  Several c are summed in one pass: each
block is read for all of them while it is in cache.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 16  # elements per streamed block of a level build or reduction


def _sum_over(num, c, op, b, power):
    """sum(num / op(c, b)**power) over all elements of b, bitwise equal to
    summing the full temporary: the blocks follow NumPy's pairwise
    summation split down to BLOCK elements, and each block is formed and
    summed in one scratch buffer allocated per call.  num has the shape of
    b, or is 0-d (a constant numerator).  A scalar c gives a float, a 1-D
    array of c the array of their sums, each bitwise the one-c sum."""
    b = b.reshape(-1)
    num = np.asarray(num)
    if num.ndim:
        num = num.reshape(-1)
    buf = np.empty(min(b.size, BLOCK))
    batch = isinstance(c, np.ndarray) and c.ndim > 0
    sums = _pairwise_sum(num, c.tolist() if batch else (c,), op, b, power,
                         buf)
    return np.array(sums) if batch else sums[0]


def _pairwise_sum(num, cs, op, b, power, buf):
    """The list of the sums for each c of cs, as floats (a float add is
    the float64 add of NumPy's pairwise sum)."""
    n = b.size
    if n <= BLOCK:
        d = buf[:n]
        sums = []
        for c in cs:
            op(c, b, out=d)
            if power == 2:
                with np.errstate(over="ignore"):  # num / inf adds 0 below
                    np.multiply(d, d, out=d)
            sums.append(float(np.divide(num, d, out=d).sum()))
        return sums
    half = n // 2 - (n // 2) % 8  # numpy's pairwise_sum split
    lo, hi = (num, num) if num.ndim == 0 else (num[:half], num[half:])
    return [x + y for x, y in zip(
        _pairwise_sum(lo, cs, op, b[:half], power, buf),
        _pairwise_sum(hi, cs, op, b[half:], power, buf))]
