"""Double-double kernels checked against mpmath at 60 significant digits."""

import math
from fractions import Fraction

import mpmath
import numpy as np

from katailab import ddmath

mpmath.mp.dps = 60

RNG = np.random.default_rng(20260810)


def mp_rel_err(dd_val, mp_val):
    got = mpmath.mpf(dd_val[0]) + mpmath.mpf(dd_val[1])
    if mp_val == 0:
        return abs(got)
    return abs((got - mp_val) / mp_val)


def test_two_sum_and_two_prod_are_error_free():
    a = RNG.uniform(-1e10, 1e10, size=500)
    b = RNG.uniform(-1e-6, 1e6, size=500)
    s, e = ddmath.two_sum(a, b)
    p, f = ddmath.two_prod(a, b)
    for i in range(500):
        assert Fraction(s[i]) + Fraction(e[i]) == Fraction(a[i]) + Fraction(b[i])
        assert Fraction(p[i]) + Fraction(f[i]) == Fraction(a[i]) * Fraction(b[i])


def test_mul_div_sqrt_against_mpmath():
    xs = RNG.uniform(0.1, 1e8, size=200)
    ys = RNG.uniform(0.1, 1e8, size=200)
    prod = ddmath.mul(ddmath.from_float(xs), ddmath.from_float(ys))
    quot = ddmath.div(ddmath.from_float(xs), ddmath.from_float(ys))
    root = ddmath.sqrt(ddmath.from_float(xs))
    for i in range(200):
        mx, my = mpmath.mpf(xs[i]), mpmath.mpf(ys[i])
        assert mp_rel_err((prod[0][i], prod[1][i]), mx * my) < 1e-30
        assert mp_rel_err((quot[0][i], quot[1][i]), mx / my) < 1e-30
        assert mp_rel_err((root[0][i], root[1][i]), mpmath.sqrt(mx)) < 1e-30


def test_exp_log_against_mpmath():
    xs = np.concatenate([RNG.uniform(-40, 40, size=100), [0.0, 1.0, -1.0, 30.0]])
    eh, el = ddmath.exp(ddmath.from_float(xs))
    for i, x in enumerate(xs):
        assert mp_rel_err((eh[i], el[i]), mpmath.exp(mpmath.mpf(x))) < 1e-29
    ys = RNG.uniform(1e-6, 1e12, size=100)
    lh, ll = ddmath.log(ddmath.from_float(ys))
    for i, y in enumerate(ys):
        assert mp_rel_err((lh[i], ll[i]), mpmath.log(mpmath.mpf(y))) < 1e-29


def test_pow_matches_mpmath():
    base = ddmath.from_float(np.array([2.0, 3.0, 1000.0, 123456.0]))
    c = ddmath.from_float(np.array(1.5))
    ph, pl = ddmath.pow_dd(base, c)
    for i, b in enumerate([2.0, 3.0, 1000.0, 123456.0]):
        assert mp_rel_err((ph[i], pl[i]), mpmath.power(mpmath.mpf(b), mpmath.mpf(1.5))) < 1e-29


def test_frac_int_mul_accuracy_bound():
    # spec bound: n * alpha mod 1 accurate below 1e-12 up to n = 2^40
    sqrt2 = mpmath.sqrt(2)
    dd = (float(sqrt2), float(sqrt2 - mpmath.mpf(float(sqrt2))))
    ns = np.concatenate(
        [
            RNG.integers(1, 2**40, size=300),
            [1, 2, 6, 10**7, 2**40 - 1],
        ]
    ).astype(np.int64)
    got = ddmath.frac_int_mul(dd, ns.astype(np.float64))
    for i, n in enumerate(ns):
        want = mpmath.frac(int(n) * sqrt2)
        err = abs(mpmath.mpf(got[i]) - want)
        assert min(err, 1 - err) < 1e-12, (n, got[i], want)


def test_frac_mul_wide_integers_past_float_exactness():
    # floors can reach 2^62: past 2^53 the reduction goes through an exact
    # two-term split of the integer
    from katailab.constants import SQRT2

    sqrt2 = mpmath.sqrt(2)
    ms = np.array([2**61 + 123456789, 2**62 - 97, 2**53 + 1], dtype=np.int64)
    got = SQRT2.frac_mul(ms)
    for i, m in enumerate(ms):
        want = mpmath.frac(int(m) * sqrt2)
        err = abs(mpmath.mpf(got[i]) - want)
        assert min(err, 1 - err) < 1e-9, m


def test_frac_handles_carry_in_low_word():
    # hi integral, lo negative: frac must borrow correctly
    h = ddmath.frac((np.array(5.0), np.array(-1e-18)))
    assert 0.0 <= h < 1.0
    assert abs(h - (1 - 1e-18)) < 1e-15 or h == 0.0
    h2 = ddmath.frac((np.array(3.25), np.array(0.0)))
    assert abs(h2 - 0.25) < 1e-16


def test_floor_on_integral_hi_uses_low_word():
    fh, fl = ddmath.floor((np.array(7.0), np.array(-1e-20)))
    assert fh + fl == 6.0


def test_log_gamma_against_mpmath():
    ts = np.array([2.0, 3.0, 5.0, 9.5, 10.0, 17.3, 100.0, 12345.0, 1.0e6])
    gh, gl = ddmath.log_gamma(ddmath.from_float(ts))
    for i, t in enumerate(ts):
        want = mpmath.loggamma(mpmath.mpf(t))
        got = mpmath.mpf(gh[i]) + mpmath.mpf(gl[i])
        assert abs(got - want) < 1e-18, t


def _log_gamma_scalar_loop(x):
    """The per-element shift of arguments below 12, as log_gamma once ran it."""
    h = np.atleast_1d(np.asarray(x[0], dtype=np.float64))
    l = np.atleast_1d(np.asarray(x[1], dtype=np.float64)) * np.ones_like(h)
    rh, rl = ddmath._log_gamma_stirling((np.maximum(h, 12.0), np.where(h < 12.0, 0.0, l)))
    for i in np.nonzero(h < 12.0)[0]:
        t = (h[i], l[i])
        acc = (0.0, 0.0)
        while t[0] < 12.0:
            acc = ddmath.add(acc, ddmath.log(t))
            t = ddmath.add_f(t, 1.0)
        rh[i], rl[i] = ddmath.sub(ddmath._log_gamma_stirling(t), acc)
    return rh, rl


def test_log_gamma_recurrence_matches_scalar_loop():
    rng = np.random.default_rng(11)
    h = np.concatenate([rng.uniform(2.0, 14.0, 300), [2.0, 11.5, 12.0, 13.0]])
    l = h * rng.uniform(-1.0, 1.0, h.size) * 2.0**-54
    assert np.count_nonzero(l) == h.size
    got, want = ddmath.log_gamma((h, l)), _log_gamma_scalar_loop((h, l))
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_log_gamma_small_integers_match_factorials():
    for n in range(2, 10):
        gh, gl = ddmath.log_gamma(ddmath.from_float(np.array(float(n))))
        assert abs((gh + gl)[0] - math.log(math.factorial(n - 1))) < 1e-14
