"""Double-double (two-term binary64) arithmetic, vectorized over numpy arrays.

A value x is carried as a pair (hi, lo) of float64 with hi = fl(hi + lo) and
|lo| <= ulp(hi)/2, giving ~106 significant bits.  This is the precision layer
behind the Hardy and polynomial phases of the package: monomial phases
a*n^i are representable while n^i < 2^80.  The linear phase n*theta mod 1
takes the fixed-point route of Constant.turns instead.

The kernels (two_sum, two_prod via Dekker splitting, div, sqrt) follow the
classic QD library algorithms of Hida, Li and Bailey (2001).  They assume
round-to-nearest binary64 and no FMA contraction, which CPython/numpy
provide.  The transcendental layer on top:

- exp is table-driven (Tang, ACM TOMS 15, 1989): x = (1024 m + j) ln2/1024 + r
  with |r| <= ln2/2048, a 1024-entry dd table of 2^(j/1024), a short dd
  Horner polynomial for e^r - 1 and a scaling by 2^m.  The table is built
  on first use from exact integers, so it is the correctly rounded dd of
  each entry.  pow_dd goes through it.
- log runs Tang's reduction the other way (ACM TOMS 16, 1990), on the
  same table: x = 2^k m, a 4096-bucket index over m picks j and a float
  c near 2^(-j/1024), and log x = (1024 k + j) ln2/1024 + log1p(m c - 1)
  - log(c 2^(j/1024)), the last term once from the table's exact
  integers.  It takes no exp step and makes no libm call, so its bits do
  not depend on the libm build; log_gamma, pow_dd and the log-based Hardy
  phases go through it.  Its blocks run in per-thread scratch arrays.
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
  has one body.  mul keeps its own three lines because exp and
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
import threading

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
def _exp2_fixed():
    """2^(j/1024) 2^140 for j < 1024 as a tuple of truncated integers.

    Ten integer square roots of 2 give 2^(1/1024), and 1023 chained
    products the rest.  Each step truncates by under one unit, so entry j
    is within 2^-127 of 2^(j/1024) once scaled back.
    """
    scale = _TABLE_SCALE
    root = 2 << scale
    for _ in range(_TABLE_BITS):
        root = math.isqrt(root << scale)
    fixed = [1 << scale]
    for _ in range((1 << _TABLE_BITS) - 1):
        fixed.append((fixed[-1] * root) >> scale)
    return tuple(fixed)


@functools.cache
def exp2_table():
    """2^(j/1024) for j < 1024 as dd arrays (hi, lo), each correctly rounded.

    The integers of _exp2_fixed are within 2^-127 of 2^(j/1024), far below
    the dd rounding, and float() of an int rounds correctly.  Built on
    first use, in about a millisecond.
    """
    scale = _TABLE_SCALE
    fixed = _exp2_fixed()
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


_LOG_BUCKET_BITS = 12
_LOG_BLOCK = 1 << 13  # 17 scratch arrays of 64 KiB stay in a core's L2 cache
_SCRATCH = threading.local()
_MANTISSA = (1 << 52) - 1
_EXPONENT_ONE = 1023 << 52  # the bits of 1.0
_TINY = 2.0**-1022  # least normal float
_INV3 = (0.3333333333333333, 1.850371707708594e-17)  # 1/3 as a two-term split
_INV3_SPLIT = tuple(float(v) for v in _split(np.float64(_INV3[0])))


def _log_scratch():
    """The scratch arrays of _log_into, _LOG_BLOCK entries each, one set per
    thread: made once, so a call pays no allocation or page faults."""
    work = getattr(_SCRATCH, "log", None)
    if work is None:
        work = _SCRATCH.log = ([np.empty(_LOG_BLOCK) for _ in range(14)],
                               [np.empty(_LOG_BLOCK, dtype=np.int64) for _ in range(3)])
    return work


@functools.cache
def _log_table():
    """Per-bucket (c, delta, J) for log: 4096 buckets over m in [1, 2).

    Bucket b holds m in [1 + b/4096, 1 + (b + 1)/4096).  Its j is the one
    whose exp2_table entry is nearest the bucket's midpoint in ratio,
    found by comparing the midpoint with the table's hi words; j = 1024
    (2^1, c = 1/2) serves the last buckets.  c is the float nearest
    2^(-j/1024), which is half the correctly rounded hi word of
    2^((1024 - j)/1024).  delta = log(c 2^(j/1024)) is u - u^2/2 for
    u = c 2^(j/1024) - 1, |u| < 2^-52, taken from the integers of
    _exp2_fixed exactly and rounded once.  J = j - 1023 * 1024
    turns a float's biased exponent e into K = 1024 e + J = 1024 k + j.
    """
    size = 1 << _TABLE_BITS
    scale = _TABLE_SCALE
    hi = np.append(exp2_table()[0], 2.0)
    c = hi[::-1] / 2.0
    mid = 1.0 + (np.arange(1 << _LOG_BUCKET_BITS) + 0.5) / (1 << _LOG_BUCKET_BITS)
    j = np.searchsorted(hi, mid, side="right") - 1
    j += np.abs(mid * c[j + 1] - 1.0) < np.abs(mid * c[j] - 1.0)
    fixed = _exp2_fixed() + (2 << scale,)
    one = 1 << (53 + scale)
    delta = []
    for cj, fj in zip(c.tolist(), fixed):
        u = int(cj * 2.0**53) * fj - one  # u 2^(53 + scale)
        delta.append(math.ldexp(float((u << (54 + scale)) - u * u), -2 * (53 + scale) - 1))
    table = c[j], np.array(delta)[j], j - (1023 * size)
    for part in table:
        part.flags.writeable = False
    return table


def _split_into(a, hi, lo):
    np.multiply(a, _SPLITTER, out=hi)
    np.subtract(hi, a, out=lo)
    hi -= lo
    np.subtract(a, hi, out=lo)


def _two_prod_into(a, a_split, b, b_split, p, e, w):
    # two_prod(a, b) into (p, e) from the splits of a and b
    (ah, al), (bh, bl) = a_split, b_split
    np.multiply(a, b, out=p)
    np.multiply(ah, bh, out=e)
    e -= p
    np.multiply(ah, bl, out=w)
    e += w
    np.multiply(al, bh, out=w)
    e += w
    np.multiply(al, bl, out=w)
    e += w


def _quick_two_sum_into(a, b, s, e):
    # quick_two_sum(a, b) into (s, e); s is neither a nor b, and e is not b
    np.add(a, b, out=s)
    np.subtract(s, a, out=e)
    np.subtract(b, e, out=e)


def _log_into(h, l, shift, out, f, i):
    """One block of log: out = log((h, l)), in the scratch arrays f and i.

    h holds positive normal floats; K is lowered by shift where the
    caller scaled a subnormal up by 2^54 (shift may be None), and l is
    None for a zero low word.  f is 14 float64 arrays and i 3 int64
    arrays, all shaped like h.
    """
    C, D, J = _log_table()
    bits = h.view(np.int64)
    b, K, mb = i
    np.right_shift(bits, 52 - _LOG_BUCKET_BITS, out=b)
    b &= (1 << _LOG_BUCKET_BITS) - 1
    np.right_shift(bits, 52, out=K)
    K <<= _TABLE_BITS
    K += np.take(J, b, out=mb)
    if shift is not None:
        K -= shift
    k = f[0]
    np.copyto(k, K)
    np.bitwise_and(bits, _MANTISSA, out=mb)
    mb |= _EXPONENT_ONE
    m = mb.view(np.float64)  # h = 2^k' m with m in [1, 2)
    c = np.take(C, b, out=f[1])
    # r = m c - 1 exactly: p - 1 is exact, and (p - 1, e) is normalized
    p, e = f[6], f[7]
    _split_into(m, f[2], f[3])
    _split_into(c, f[4], f[5])
    _two_prod_into(m, f[2:4], c, f[4:6], p, e, f[8])
    p -= 1.0
    rh, rl = f[1], f[2]
    _quick_two_sum_into(p, e, rh, rl)
    # rh^2 = s2 + e2, rh^3 = p3 + f3, rh^4 = s4 + e4 and p3/3 = a3 + b3, exactly
    rh_split, s2_split = f[3:5], f[7:9]
    s2, e2, p3, f3, s4, e4, a3, b3 = f[5], f[6], f[9], f[10], f[11], f[12], f[3], f[4]
    _split_into(rh, *rh_split)
    _two_prod_into(rh, rh_split, rh, rh_split, s2, e2, f[13])
    _split_into(s2, *s2_split)
    _two_prod_into(s2, s2_split, rh, rh_split, p3, f3, f[13])
    _two_prod_into(s2, s2_split, s2, s2_split, s4, e4, f[13])
    _split_into(p3, f[7], f[8])
    _two_prod_into(p3, f[7:9], _INV3[0], _INV3_SPLIT, a3, b3, f[13])
    # the small terms of log1p(r), summed in float: r^5/5 - ... - r^10/10
    # by Horner in rh, then the low parts of r, r^2/2, r^3/3 and r^4/4
    acc, w = f[7], f[8]
    np.multiply(rh, 0.1, out=acc)
    for inv in (1.0 / 9, 1.0 / 8, 1.0 / 7, 1.0 / 6):
        np.subtract(inv, acc, out=acc)
        acc *= rh
    np.subtract(0.2, acc, out=acc)
    acc *= s4
    acc *= rh
    np.multiply(p3, rl, out=w)  # r^4/4 beyond s4/4: e4/4 + s2 e2/2 + rh^3 rl
    acc -= w
    np.multiply(s2, e2, out=w)
    w *= 0.5
    acc -= w
    np.multiply(e4, 0.25, out=w)
    acc -= w
    # r^3/3 beyond a3: b3 + p3 (1/3)_lo + (f3 + rh e2 + 3 s2 rl)/3
    np.multiply(s2, rl, out=w)
    w *= 3.0
    w += f3
    np.multiply(rh, e2, out=f3)
    w += f3
    w *= _INV3[0]
    w += b3
    acc += w
    np.multiply(p3, _INV3[1], out=w)
    acc += w
    np.multiply(rh, rl, out=w)  # r - r^2/2 beyond rh - s2/2: rl - e2/2 - rh rl
    acc -= w
    np.multiply(e2, 0.5, out=w)
    acc -= w
    acc += rl
    np.multiply(k, _LN2_1024[2], out=w)
    acc += w
    # rh - s2/2 + a3 - s4/4, each fast two-sum exact as |r| < 1; lows into acc
    s4 *= -0.25
    s2 *= -0.5
    u, v = f[9], f[10]
    _quick_two_sum_into(a3, s4, u, v)
    acc += v
    _quick_two_sum_into(s2, u, f[11], v)
    acc += v
    _quick_two_sum_into(rh, f[11], u, v)
    acc += v
    # K ln2/1024 - delta + (u, acc): K c2 - delta is a fast two-sum (delta is
    # 0 where K is), then one two_sum with u and one fast two-sum with K c1
    kc2, minus_delta, g, gq = f[3], f[1], f[4], f[2]
    np.multiply(k, _LN2_1024[1], out=kc2)
    np.take(D, b, out=minus_delta)
    np.negative(minus_delta, out=minus_delta)
    _quick_two_sum_into(kc2, minus_delta, g, gq)
    acc += gq
    s, t = f[5], f[6]
    np.add(g, u, out=s)  # two_sum(g, u) into (s, t)
    np.subtract(s, g, out=w)
    np.subtract(u, w, out=t)
    np.subtract(s, w, out=w)
    np.subtract(g, w, out=w)
    t += w
    acc += t
    k *= _LN2_1024[0]
    big, low = f[9], f[10]
    _quick_two_sum_into(k, s, big, low)
    if l is not None:
        np.divide(l, h, out=w)  # log(h + l) = log h + l/h + O(2^-107)
        low += w
    low += acc
    _quick_two_sum_into(big, low, *out)


def log(x):
    """dd natural log, table-driven (after Tang, ACM TOMS 16, 1990); no libm call.

    x = (h, l) with h = 2^k m, m in [1, 2).  The top 12 bits of m pick a
    bucket, and the bucket a table index j in [0, 1024], a float c
    nearest 2^(-j/1024) and delta = log(c 2^(j/1024)) (_log_table).  Then

        log x = K ln2/1024 + log1p(r) - delta + log1p(l/h),
        K = 1024 k + j,  r = m c - 1,  |r| < 2^-11.08 in every bucket.

    K ln2/1024 takes the Cody-Waite parts _LN2_1024: |K| < 2^21, so K c1
    and K c2 are exact.  r is exact as a dd (rh, rl): Dekker's product
    gives m c = p + e, and p - 1 is exact.  log1p(r) = r - r^2/2 + ...
    - r^10/10 (the rest is below 2^-125): rh^2, rh^3, rh^4 and rh^3/3 are
    exact dd products; their low words, the cross terms with rl and the
    terms from r^5/5 (below 2^-57.7) on, by Horner in rh, are summed in
    float.  The four leading words are joined by fast two-sums, exact as
    |r| < 1, and so are K c2 - delta (delta = 0 where K = 0) and the sum
    with K c1; the one two_sum adds log1p(r) to K c2 - delta.

    Error bound for a float x, in the style of Joldes, Muller and Popescu
    (ACM TOMS 44, 2017), with u = 2^-53:
      - delta, |delta| < 2^-52, is rounded once: at most 2^-106;
      - log1p(r): the float products and the Horner tail err by under
        2^-108, and the fourteen float additions of small terms into one
        sum below 2^-57 by under 2^-111 each;
      - K c3 and the split of ln2/1024 err by under 2^-115 |log x|;
      - the final low word is rounded once, by at most
        u^2 max(1/2, |log x|).
    So |err| <= 3 2^-106 max(1, |log x|) = 3.7e-32 max(1, |log x|).  These
    worst cases do not meet: the tests hold log to 2e-32 max(1, |log x|)
    over the float range, the integers to 2^53 and every bucket and
    binade edge, and read under 1e-32.  Where K = 0 (x within 2^-12 of 1)
    delta and K vanish and every term scales with r, so the error is
    relative, under 2^-100 |log x|; elsewhere |log x| > 2^-12.1.  A low
    word adds the quotient l/h (|l/h| <= u; its rounding and the dropped
    (l/h)^2/2 are 2^-107 each) and widens two roundings of the final low
    word: at most 2^-104.7 max(1, |log x|) more.
    """
    h, l = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in x))
    shape = h.shape
    h, l = (np.ascontiguousarray(a.reshape(-1)) for a in (h, l))
    least, low_words = h.min(initial=np.inf), (l.min(initial=0.0), l.max(initial=0.0))
    if not (least > 0.0 and h.max(initial=0.0) < np.inf
            and -np.inf < low_words[0] and low_words[1] < np.inf):
        raise ValueError("log requires positive finite arguments")
    shift = None
    if least < _TINY:  # scale subnormals up by 2^54, exactly
        tiny = h < _TINY
        h, l = h.copy(), l.copy()
        h[tiny] *= 2.0**54
        l[tiny] *= 2.0**54
        shift = np.where(tiny, 54 << _TABLE_BITS, 0)
    if low_words == (0.0, 0.0):
        l = None
    out = np.empty_like(h), np.empty_like(h)
    f, i = _log_scratch()
    for lo in range(0, h.size, _LOG_BLOCK):
        part = slice(lo, lo + _LOG_BLOCK)
        n = min(_LOG_BLOCK, h.size - lo)
        _log_into(h[part], None if l is None else l[part],
                  None if shift is None else shift[part],
                  (out[0][part], out[1][part]), [a[:n] for a in f], [a[:n] for a in i])
    return out[0].reshape(shape), out[1].reshape(shape)


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
    if not (h.min(initial=2.0) >= 2.0 and h.max(initial=2.0) < np.inf):
        raise ValueError("log_gamma requires finite arguments >= 2")
    # log_gamma(t) = log_gamma(t + k) - sum of log(t + j) for j < k, with the
    # least k that puts t + k at 12 or above
    th, tl = h.copy(), l
    ah, al = np.zeros_like(h), np.zeros_like(h)
    while (small := np.flatnonzero(th < 12.0)).size:
        t = (th[small], tl[small])
        ah[small], al[small] = add((ah[small], al[small]), log(t))
        th[small], tl[small] = add_f(t, 1.0)
    return sub(_log_gamma_stirling((th, tl)), (ah, al))
