"""Double-double (two-term binary64) arithmetic, vectorized over numpy arrays.

A value x is carried as a pair (hi, lo) of float64 with hi = fl(hi + lo) and
|lo| <= ulp(hi)/2, giving ~106 significant bits.  This is the precision layer
behind the Hardy and polynomial phases of the package: monomial phases
a*n^i are representable while n^i < 2^80.  The linear phase n*theta mod 1
takes the fixed-point route of Constant.turns instead.

The kernels (two_sum, two_prod via Dekker splitting, div, sqrt, log by a
Newton step) follow the classic QD library algorithms of Hida, Li and Bailey
(2001).  They assume round-to-nearest binary64 and no FMA contraction, which
CPython/numpy provide.  The transcendental layer on top:

- exp is table-driven (Tang, ACM TOMS 15, 1989): x = (1024 m + j) ln2/1024 + r
  with |r| <= ln2/2048, a 1024-entry dd table of 2^(j/1024), a short dd
  Horner polynomial for e^r - 1 and a scaling by 2^m.  The table is built
  on first use from exact integers, so it is the correctly rounded dd of
  each entry.  log, pow_dd and log_gamma all go through it.
- rational_pow is the root route for x^(u/v): a float seed for the v-th
  root, one dd Newton step (sqrt for v = 2), then binary powering.  No exp
  or log is involved, and x^u is never formed.
- log_gamma shifts arguments below 12 up by the recurrence and sums the
  Stirling series there: the terms 1/(12x), 1/(360x^3) and 1/(1260x^5) in
  dd, the five later ones as one float polynomial in 1/x^2.
- mul_into and frac_into write a dd product and a fractional part in
  place into buffers the caller passes; the polynomial phases
  (orthogonality.monomials_dd and polynomial_frac) run each block through
  them.  frac is frac_into on a copy of its input, so the fractional part
  has one body.  mul keeps its own three lines because exp, log and
  log_gamma also call it on numpy scalars, where out= buffers would cost
  more than the product; mul_into takes mul's steps in the same order, and
  tests/test_ddmath.py checks the two bit for bit.
- orthogonality.e_of, e(x) for float phases, is built from the same parts:
  a 256-entry table of cos and sin (Tang's reduction again), short float
  polynomials and blockwise().  It uses only +, -, *, rint and take, with
  no libm call, so its bits do not depend on the CPU numpy dispatches to.

Every kernel is elementwise, and each dd operation makes several temporaries
the size of its input.  Callers that map a long array through a whole phase
pipeline (t -> dd value -> fractional part or floor) run it through
blockwise(), which feeds the pipeline aligned slices of BLOCK entries
(128 KB per float64 array, so a block's temporaries stay in a core's L2
cache) and fills one output array.  Because every step is elementwise, the
output is bit-identical to a whole-array evaluation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
BLOCK = 1 << 14  # entries per blockwise() slice

# log(2*pi)/2 to double-double precision.
HALF_LOG_2PI = (0.9189385332046728, -3.8782941580672414e-17)


def blockwise(fn, x):
    """fn(x) for an elementwise fn, evaluated BLOCK entries at a time.

    fn takes an array slice and returns one array of the same length.  The
    output has x's shape and the dtype of fn's first result.  An error from
    any block propagates unchanged; checks whose message depends on the
    whole input (a maximum, an argmax) belong before or after the call.
    """
    x = np.asarray(x)
    if x.size <= BLOCK:
        return fn(x)
    flat = x.reshape(-1)
    first = fn(flat[:BLOCK])
    out = np.empty(flat.size, dtype=first.dtype)
    out[:BLOCK] = first
    for lo in range(BLOCK, flat.size, BLOCK):
        out[lo:lo + BLOCK] = fn(flat[lo:lo + BLOCK])
    return out.reshape(x.shape)


def two_sum(a, b):
    # Error-free transform: a + b = s + e exactly.
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    # Requires |a| >= |b| (or a == 0).
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    """Dekker's split of a into 26- and 27-bit halves: a = hi + lo exactly."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    # Error-free transform: a * b = p + e exactly (Dekker, no FMA).
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def from_float(a):
    return np.asarray(a, dtype=np.float64), np.zeros_like(np.asarray(a, dtype=np.float64))


def neg(x):
    return -x[0], -x[1]


def add(x, y):
    sh, se = two_sum(x[0], y[0])
    th, tl = two_sum(x[1], y[1])
    se = se + th
    sh, se = quick_two_sum(sh, se)
    se = se + tl
    return quick_two_sum(sh, se)


def sub(x, y):
    return add(x, neg(y))


def add_f(x, f):
    sh, se = two_sum(x[0], f)
    se = se + x[1]
    return quick_two_sum(sh, se)


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    e = e + (x[0] * y[1] + x[1] * y[0])
    return quick_two_sum(p, e)


def mul_f(x, f):
    p, e = two_prod(x[0], f)
    e = e + x[1] * f
    return quick_two_sum(p, e)


def div(x, y):
    q1 = x[0] / y[0]
    r = sub(x, mul_f(y, q1))
    q2 = r[0] / y[0]
    r = sub(r, mul_f(y, q2))
    q3 = r[0] / y[0]
    q = quick_two_sum(q1, q2)
    return add(q, (q3, np.zeros_like(q3)))


def sqr(x):
    return mul(x, x)


def sqrt(x):
    """dd square root (one Newton correction from the float64 seed)."""
    s = np.sqrt(x[0])
    d = sub(x, two_prod(s, s))
    corr = d[0] / (2.0 * s)
    return quick_two_sum(s, corr)


def floor(x):
    fh = np.floor(x[0])
    is_int = fh == x[0]
    fl = np.where(is_int, np.floor(x[1]), 0.0)
    return quick_two_sum(fh, fl)


def frac(x):
    """Fractional part of a dd value, returned as a float64 array in [0, 1)."""
    h, l = (np.array(a, dtype=np.float64) for a in np.broadcast_arrays(*x))
    return frac_into((h, l), [np.empty_like(h) for _ in range(4)])


def mul_into(x, y, out, work):
    """out = mul(x, y), bit for bit, written in place; returns out.

    x and out are dd pairs of arrays (out may be x), y a dd pair of arrays
    or scalars, and work four scratch arrays shaped like x.  The steps are
    mul's, in the same order.
    """
    p, a, b, e = work
    bhi, blo = _split(y[0])
    np.multiply(x[0], y[0], out=p)
    np.multiply(x[0], _SPLITTER, out=a)
    np.subtract(a, x[0], out=b)
    a -= b  # ahi
    np.subtract(x[0], a, out=b)  # alo
    np.multiply(a, bhi, out=e)
    e -= p
    a *= blo
    e += a
    np.multiply(b, bhi, out=a)
    e += a
    b *= blo
    e += b
    np.multiply(x[0], y[1], out=a)
    np.multiply(x[1], y[0], out=b)
    a += b
    e += a
    np.add(p, e, out=out[0])
    np.subtract(out[0], p, out=a)
    np.subtract(e, a, out=out[1])
    return out


def frac_into(x, work):
    """frac(x) written in place into x[0], which it returns.

    x is a dd pair of arrays, both of which this overwrites, and work four
    scratch arrays shaped like them.  The steps are those of floor(x), then
    add(x, neg(floor(x))), then the reduction of the sum to [0, 1).
    """
    h, l = x
    w1, w2, w3, w4 = work
    # (fh, fl) = floor(x) into (w3, w2), then negated
    np.floor(h, out=w1)
    np.floor(l, out=w2)
    np.copyto(w2, 0.0, where=w1 != h)  # l counts only where h is an integer
    np.add(w1, w2, out=w3)
    np.subtract(w3, w1, out=w1)
    w2 -= w1
    np.negative(w3, out=w3)
    np.negative(w2, out=w2)
    # add(x, (-fh, -fl)): two_sum(h, -fh) into (w1, w3) ...
    np.add(h, w3, out=w1)
    np.subtract(w1, h, out=w4)
    w3 -= w4
    np.subtract(w1, w4, out=w4)
    np.subtract(h, w4, out=w4)
    np.add(w4, w3, out=w3)
    # ... two_sum(l, -fl) into (h, w2) ...
    np.add(l, w2, out=h)
    np.subtract(h, l, out=w4)
    w2 -= w4
    np.subtract(h, w4, out=w4)
    np.subtract(l, w4, out=w4)
    np.add(w4, w2, out=w2)
    w3 += h
    # ... and the two quick_two_sums into (l, w3), then (w1, w3)
    np.add(w1, w3, out=l)
    np.subtract(l, w1, out=w4)
    w3 -= w4
    w3 += w2
    np.add(l, w3, out=w1)
    np.subtract(w1, l, out=w4)
    w3 -= w4
    np.add(w1, w3, out=h)
    h -= np.floor(h, out=w4)
    # rounding can land exactly on 1.0; wrap it
    np.subtract(h, 1.0, out=h, where=h >= 1.0)
    return h


# ln2/1024 in three parts (Cody-Waite).  The first two have 32 significant
# bits, so their products with an integer k below 2^21 in magnitude are exact.
_LN2_1024 = (0.0006769015433292225, 1.8634911414483108e-13, 4.1749761618629385e-23)
_INV_LN2_1024 = 1477.3197218702985  # 1024/ln2
# |x| past this gives 0 or inf anyway; clipping keeps k below 2^21
_EXP_CLIP = 1100.0
_TABLE_BITS = 10
_TABLE_SCALE = 140  # bits of the fixed-point integers behind exp2_table()
# 1/6 and 1/24 as two-term splits
_INV6 = (0.16666666666666666, 9.25185853854297e-18)
_INV24 = (0.041666666666666664, 2.3129646346357427e-18)


@functools.cache
def exp2_table():
    """2^(j/1024) for j < 1024 as dd arrays (hi, lo), each correctly rounded.

    Exact integers scaled by 2^140: ten integer square roots of 2 give
    2^(1/1024), and 1023 chained products the rest.  Each step truncates
    by under one unit, so the table is within 2^-127 of 2^(j/1024), far
    below the dd rounding; float() of an int rounds correctly.  Built on
    first use, in about a millisecond.
    """
    scale = _TABLE_SCALE
    root = 2 << scale
    for _ in range(_TABLE_BITS):
        root = math.isqrt(root << scale)
    fixed = [1 << scale]
    for _ in range((1 << _TABLE_BITS) - 1):
        fixed.append((fixed[-1] * root) >> scale)
    hi = [float(f) for f in fixed]
    lo = [float(f - int(h)) for f, h in zip(fixed, hi)]
    table = np.ldexp(hi, -scale), np.ldexp(lo, -scale)
    for part in table:
        part.flags.writeable = False  # shared by every later call
    return table


def exp(x):
    """dd exponential, table-driven (Tang 1989)."""
    y, m = _exp_scaled(x)
    return np.ldexp(y[0], m), np.ldexp(y[1], m)


def _exp_scaled(x):
    """(y, m) with e^x = y 2^m, y a dd in [2^(-1/2048), 2) and m an int64 array.

    x = (1024 m + j) ln2/1024 + r with |r| <= ln2/2048, so that
    y = 2^(j/1024) (1 + s) with s = e^r - 1 =
    r + r^2 (1/2 + r (1/6 + r (1/24 + q))).  The Horner steps run in dd;
    q = r/120 + r^2/720 + ... brings in the terms from r^5/120 (below
    2^-64) on, so it is a float polynomial in r's high word.
    """
    h = np.clip(np.asarray(x[0], dtype=np.float64), -_EXP_CLIP, _EXP_CLIP)
    k = np.rint(h * _INV_LN2_1024)
    c1, c2, c3 = _LN2_1024
    # h - k c1 is exact (Sterbenz); the rest carries x's low word
    a, b = two_sum(h - k * c1, -(k * c2))
    r = two_sum(a, b + (x[1] - k * c3))

    rh = r[0]
    q = rh * (1.0 / 120 + rh * (1.0 / 720 + rh * (1.0 / 5040 + rh * (1.0 / 40320))))
    w = add_f(_INV24, q)
    w = add(_INV6, mul(r, w))
    w = add_f(mul(r, w), 0.5)
    s = add(r, mul(sqr(r), w))

    ki = k.astype(np.int64)
    th, tl = exp2_table()
    j = ki & ((1 << _TABLE_BITS) - 1)
    t = (th[j], tl[j])
    return add(t, mul(t, s)), ki >> _TABLE_BITS


def log(x):
    """dd natural log: y + log(1 + c) for the float64 seed y and c = x exp(-y) - 1.

    log(1 + c) is taken as c - c^2/2: |c| is up to 2^-52 |y|, so the
    square matters once |y| is large, and the next term is below 2^-110.
    exp(-y) = e 2^m is applied as x 2^m times e, so its low word never
    drops into the subnormal range, even for x near 1e300.
    """
    if np.any(x[0] <= 0.0):
        raise ValueError("log requires positive arguments")
    y = np.log(x[0])
    e, m = _exp_scaled((-y, np.zeros_like(y)))
    c = add_f(mul((np.ldexp(x[0], m), np.ldexp(x[1], m)), e), -1.0)
    return add((y, np.zeros_like(y)), add_f(c, -0.5 * c[0] * c[0]))


def pow_dd(x, c):
    """x**c for dd x > 0 and dd exponent c."""
    return exp(mul(c, log(x)))


def _pow_int(x, k):
    """x**k for dd x and an integer k >= 1, by binary powering."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = sqr(x)


def root(x, v):
    """x**(1/v) for dd x > 0 and an integer v >= 1.

    v = 2 is sqrt.  Otherwise a float seed r, then one dd Newton step
    written as the series of (1 + rho)^(1/v) to second order, where
    x = r^v (1 + rho): the dropped terms are O(v rho^3), and the dd
    residual x - r^v fixes the low word.
    """
    if v == 1:
        return x
    if v == 2:
        return sqrt(x)
    r = x[0] ** (1.0 / v)
    # one float Newton step puts the seed within about an ulp, so the
    # float correction below loses nothing visible in the low word
    r = r - (r**v - x[0]) / (v * r ** (v - 1))
    p = _pow_int(from_float(r), v)
    rho = sub(x, p)[0] / p[0]
    return quick_two_sum(r, r * (rho / v) * (1.0 - (v - 1) / (2.0 * v) * rho))


def rational_pow(x, u, v):
    """x**(u/v) for dd x > 0 and integers u >= 1, v >= 1, with no exp or log.

    With u = q v + s (0 <= s < v) this is x^q root(x, v)^s: the root comes
    first and x^u is never formed, so only the s-th power multiplies the
    root's rounding error.
    """
    q, s = divmod(u, v)
    if not s:
        return _pow_int(x, q)
    out = _pow_int(root(x, v), s)
    return mul(_pow_int(x, q), out) if q else out


# log Gamma(x) ~ (x - 1/2) log x - x + log(2 pi)/2 + sum_j c_j / x^(2j - 1)
# with c_j = B_2j / (2j (2j - 1)).  c_1..c_3 are two-term splits of the
# exact rationals; c_4..c_8 enter as one float polynomial in 1/x^2, whose
# rounding (about 2^-53 c_4 / x^7) stays below the truncation remainder
# near x = 12 and below 2^-106 of the leading terms from x = 40 on.
_STIRLING = [
    (0.08333333333333333, 4.625929269271485e-18),
    (-0.002777777777777778, 1.0601087908747154e-19),
    (0.0007936507936507937, 6.883823317368282e-22),
]
_STIRLING_TAIL = (-1.0 / 1680, 1.0 / 1188, -691.0 / 360360, 1.0 / 156, -3617.0 / 122400)


def _log_gamma_stirling(x):
    # Valid for x >= 12: remainder below 1e-19 absolute there, far smaller for
    # the large arguments equidistribution actually uses.
    lx = log(x)
    s = mul(add_f(x, -0.5), lx)
    s = sub(s, x)
    s = add(s, HALF_LOG_2PI)
    inv = div(from_float(np.ones_like(x[0])), x)
    z = sqr(inv)
    f = 0.0
    for c in reversed(_STIRLING_TAIL):
        f = c + z[0] * f
    w = add_f(_STIRLING[2], z[0] * f)
    w = add(_STIRLING[1], mul(z, w))
    w = add(_STIRLING[0], mul(z, w))
    return add(s, mul(inv, w))


def log_gamma(x):
    """dd log-gamma for x >= 2 (vectorized); shifts x < 12 up by recurrence."""
    h = np.atleast_1d(np.asarray(x[0], dtype=np.float64))
    l = np.atleast_1d(np.asarray(x[1], dtype=np.float64)) * np.ones_like(h)
    if np.any(h < 2.0):
        raise ValueError("log_gamma requires arguments >= 2")
    # log_gamma(t) = log_gamma(t + k) - sum of log(t + j) for j < k, with the
    # least k that puts t + k at 12 or above
    th, tl = h.copy(), l
    ah, al = np.zeros_like(h), np.zeros_like(h)
    while (small := np.flatnonzero(th < 12.0)).size:
        t = (th[small], tl[small])
        ah[small], al[small] = add((ah[small], al[small]), log(t))
        th[small], tl[small] = add_f(t, 1.0)
    return sub(_log_gamma_stirling((th, tl)), (ah, al))
