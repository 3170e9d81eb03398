"""Double-double (two-term binary64) arithmetic, vectorized over numpy arrays.

A value x is carried as a pair (hi, lo) of float64 with hi = fl(hi + lo) and
|lo| <= ulp(hi)/2, giving ~106 significant bits.  This is the precision layer
behind every phase computation in the package: n*theta mod 1 stays accurate
to < 1e-12 for n up to 2^40, and monomial phases a*n^i are trustworthy while
n^i < 2^80.

The kernels (two_sum, two_prod via Dekker splitting, exp/log by argument
reduction plus Newton) follow the classic QD library algorithms.  They assume
round-to-nearest binary64 and no FMA contraction, which CPython/numpy provide.

Every kernel is elementwise, and each dd operation makes several temporaries
the size of its input.  Callers that map a long array through a whole phase
pipeline (t -> dd value -> fractional part or floor) run it through
blockwise(), which feeds the pipeline aligned slices of BLOCK entries
(128 KB per float64 array, so a block's temporaries stay in a core's L2
cache) and fills one output array.  Because every step is elementwise, the
output is bit-identical to a whole-array evaluation.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
BLOCK = 1 << 14  # entries per blockwise() slice

# log(2) to double-double precision.
LOG2 = (0.6931471805599453, 2.3190468138462996e-17)
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


def two_prod(a, b):
    # Error-free transform: a * b = p + e exactly (Dekker, no FMA).
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def from_float(a):
    return np.asarray(a, dtype=np.float64), np.zeros_like(np.asarray(a, dtype=np.float64))


def from_int(n):
    """Exact dd from integers (scalar Python int or int64 array) up to ~2^106."""
    if isinstance(n, (int, np.integer)):
        hi = float(n)
        lo = float(int(n) - int(hi))
        return hi, lo
    n = np.asarray(n)
    hi = n.astype(np.float64)
    lo = (n - hi.astype(np.int64)).astype(np.float64)
    return hi, lo


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


def mul_pow2(x, f):
    # f must be a power of two: exact scaling.
    return x[0] * f, x[1] * f


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
    fh, fl = floor(x)
    rh, rl = add(x, (-fh, -fl))
    out = rh + rl
    out = out - np.floor(out)
    # rounding can land exactly on 1.0; wrap it
    return np.where(out >= 1.0, out - 1.0, out)


def frac_int_mul(c, n):
    """{n * c} for a dd constant c and exact-integer-valued float/array n.

    n must be exactly representable in float64 (|n| <= 2^53); accuracy is
    ~2^-52 absolute plus n * 2^-106 from the dd representation of c, i.e.
    below 1e-12 for |n| <= 2^40.
    """
    n = np.asarray(n, dtype=np.float64)
    p, e = two_prod(n, c[0])
    f = p - np.floor(p)  # exact: p and floor(p) share high bits
    out = f + (e + n * c[1])
    out = out - np.floor(out)
    return np.where(out >= 1.0, out - 1.0, out)


# 1/k! for k = 3..11 as two-term splits (single floats would cost ~30 bits
# after the squaring loop re-amplifies the truncated coefficient error).
_INV_FACT = [
    (0.16666666666666666, 9.25185853854297e-18),
    (0.041666666666666664, 2.3129646346357427e-18),
    (0.008333333333333333, 1.1564823173178714e-19),
    (0.001388888888888889, -5.300543954373577e-20),
    (0.0001984126984126984, 1.7209558293420705e-22),
    (2.48015873015873e-05, 2.1511947866775882e-23),
    (2.7557319223985893e-06, -1.858393274046472e-22),
    (2.755731922398589e-07, 2.3767714622250297e-23),
    (2.505210838544172e-08, -1.448814070935912e-24),
]


def exp(x):
    """dd exponential via k*log2 reduction, scaled Taylor series, 9 squarings."""
    h = np.asarray(x[0], dtype=np.float64)
    m = np.floor(h / LOG2[0] + 0.5)
    r = sub(x, mul_f(LOG2, m))
    r = mul_pow2(r, 1.0 / 512.0)

    p = sqr(r)
    s = add(r, mul_pow2(p, 0.5))
    p = mul(p, r)
    t = mul(p, _INV_FACT[0])
    for k in range(1, len(_INV_FACT)):
        s = add(s, t)
        p = mul(p, r)
        t = mul(p, _INV_FACT[k])
    s = add(s, t)

    for _ in range(9):  # (1+s)^512 - 1, tracked without the leading 1
        s = add(mul_pow2(s, 2.0), sqr(s))
    s = add_f(s, 1.0)

    mi = m.astype(np.int64)
    return np.ldexp(s[0], mi), np.ldexp(s[1], mi)


def log(x):
    """dd natural log; one Newton step y += x*exp(-y) - 1 from the float64 seed."""
    if np.any(x[0] <= 0.0):
        raise ValueError("log requires positive arguments")
    y = np.log(x[0])
    e = exp((-y, np.zeros_like(y)))
    corr = add_f(mul(x, e), -1.0)
    return add((y, np.zeros_like(y)), corr)


def pow_dd(x, c):
    """x**c for dd x > 0 and dd exponent c."""
    return exp(mul(c, log(x)))


# Stirling coefficients B_{2j} / (2j * (2j-1)) as two-term splits of the
# exact rationals.
_STIRLING = [
    (0.08333333333333333, 4.625929269271485e-18),
    (-0.002777777777777778, 1.0601087908747154e-19),
    (0.0007936507936507937, 6.883823317368282e-22),
    (-0.0005952380952380953, 5.36938218754726e-20),
    (0.0008417508417508417, 3.6870174889237694e-20),
    (-0.0019175269175269176, 1.0675702776872475e-19),
    (0.00641025641025641, 2.2240044563805217e-19),
    (-0.029550653594771242, 4.861760957508855e-19),
]


def _log_gamma_stirling(x):
    # Valid for x >= 12: remainder below 1e-19 absolute there, far smaller for
    # the large arguments equidistribution actually uses.
    lx = log(x)
    s = mul(add_f(x, -0.5), lx)
    s = sub(s, x)
    s = add(s, HALF_LOG_2PI)
    inv = div(from_float(np.ones_like(x[0])), x)
    inv2 = sqr(inv)
    term = inv
    for c in _STIRLING:
        s = add(s, mul(term, c))
        term = mul(term, inv2)
    return s


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
