"""Double-double kernels checked against mpmath at 60 significant digits."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from katailab import ddmath
from katailab.cli import parse_hardy

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


# Constant.frac_mul of a tagged irrational is turns(n) rounded to the nearest
# float: within 2^-54 + 3.001 2^-64 of {n c} below 2^53, 2^-54 + 2^-52 above
# (constants.Constant.turns and frac_mul).
def frac_mul_bound(n):
    return 2.0**-54 + (3.001 * 2.0**-64 if abs(n) < 2**53 else 2.0**-52)


def turns_bound(n):
    """Units of 2^-64 by which turns(n) may miss {n c} 2^64."""
    return 3.001 if abs(n) < 2**53 else 3074


def test_frac_mul_accuracy_bound():
    from katailab.constants import SQRT2

    sqrt2 = mpmath.sqrt(2)
    ns = np.concatenate(
        [
            RNG.integers(1, 2**40, size=300),
            [1, 2, 6, 10**7, 2**40 - 1],
        ]
    ).astype(np.int64)
    got = SQRT2.frac_mul(ns)
    for i, n in enumerate(ns):
        want = mpmath.frac(int(n) * sqrt2)
        err = abs(mpmath.mpf(got[i]) - want)
        assert min(err, 1 - err) <= frac_mul_bound(n), (n, got[i], want)


TURNS_N = [1, -1, 3, -3, 10**6 + 3, 2**36 + 5, 2**40 - 1, 2**46 + 7, 2**53 - 1, 2**53 + 1,
           2**62 + 9, -2**62, 2**63 - 1, -2**63]


@pytest.mark.parametrize("spelling", ["sqrt2", "sqrt3", "sqrt7", "golden", "e", "pi", "log2",
                                      "log3", "2/7", "-3/10", "1/1099511627777"])
def test_frac_mul_and_turns_against_mpmath(spelling):
    from katailab.constants import Constant

    c = Constant.parse(spelling)
    n = np.array(TURNS_N, dtype=np.int64)
    fracs, turns = c.frac_mul(n), c.turns(n)
    assert fracs.dtype == np.float64 and turns.dtype == np.uint64
    with mpmath.workdps(80):
        theta = c.mp(80)
        for m, f, t in zip(TURNS_N, fracs.tolist(), turns.tolist()):
            want = mpmath.frac(m * theta)
            err = abs(mpmath.mpf(f) - want)
            assert 0.0 <= f < 1.0 and min(err, 1 - err) <= frac_mul_bound(m), (m, f)
            units = abs(mpmath.mpf(t) - want * 2**64)
            units = min(units, 2**64 - units)
            assert units <= turns_bound(m), (m, float(units))


def test_turns_keep_shapes_and_wrap_without_warnings():
    import warnings

    from katailab.constants import GOLDEN, rational

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (GOLDEN, rational(Fraction(5, 3)), rational(7)):
            assert c.turns(np.int64(-2**63)).shape == ()
            assert c.frac_mul(np.array([[3, -5]])).shape == (1, 2)
            assert c.turns(np.array([], dtype=np.int64)).shape == (0,)
            n = np.arange(-50, 50)
            want = np.array([c.turns(np.array(m)) for m in n.tolist()], dtype=np.uint64)
            assert np.array_equal(c.turns(n), want)
    assert rational(7).turns(np.array([2**62])).tolist() == [0]


def _seeded_dd(rng, size):
    """dd pairs (hi, lo) with |lo| <= ulp(hi)/2: wide magnitudes, integers,
    halves and signed zeros in both words."""
    hi = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 30, size)
    hi[::7] = np.round(hi[::7])
    hi[::11] = rng.integers(-2**40, 2**40, hi[::11].size) + 0.5
    hi[:6] = [0.0, -0.0, 1.0, -1.0, 2.0**60, -(2.0**52)]
    lo = np.spacing(hi) * (rng.random(size) - 0.5)
    lo[::5] = 0.0
    lo[::13] = -0.0
    return ddmath.quick_two_sum(hi, lo)


def _bits(a):
    return np.asarray(a).view(np.int64)


def _frac_formula(x):
    """{x} with every dd step a fresh whole-array temporary."""
    fh, fl = ddmath.floor(x)
    rh, rl = ddmath.add(x, (-fh, -fl))
    out = rh + rl
    out = out - np.floor(out)
    return np.where(out >= 1.0, out - 1.0, out)


def test_in_place_mul_and_frac_are_the_formulas_bit_for_bit():
    from katailab.constants import SQRT2

    rng = np.random.default_rng(41)
    size = 5000
    x, y = _seeded_dd(rng, size), _seeded_dd(rng, size)
    work = [np.empty(size) for _ in range(4)]

    def fresh():
        return np.empty(size), np.empty(size)

    def aliased(y):  # out is x itself
        xc = (x[0].copy(), x[1].copy())
        return ddmath.mul_into(xc, y, xc, work)

    cases = [
        (ddmath.mul_into(x, y, fresh(), work), ddmath.mul(x, y)),
        (aliased(y), ddmath.mul(x, y)),
        (aliased((y[0], 0.0)), ddmath.mul(x, (y[0], np.zeros(size)))),
    ] + [(ddmath.mul_into(x, c, fresh(), work), ddmath.mul(x, c))
         for c in (SQRT2.dd, (-0.3, 1e-17), (3.0, 0.0))]
    for got, want in cases:
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))
    xc = (x[0].copy(), x[1].copy())
    assert np.array_equal(_bits(ddmath.frac(x)), _bits(_frac_formula(x)))
    assert np.array_equal(_bits(x[0]), _bits(xc[0]))  # frac leaves x alone
    assert np.array_equal(_bits(x[1]), _bits(xc[1]))
    got = ddmath.frac_into(xc, work)
    assert np.array_equal(_bits(got), _bits(_frac_formula(x)))
    scalar = ddmath.frac((np.float64(5.0), -1e-18))
    assert scalar.shape == () and scalar == _frac_formula((np.array(5.0), np.array(-1e-18)))


def test_constant_dd_is_computed_once():
    from katailab.constants import Constant

    c = Constant("sqrt", 7)
    assert c.dd is c.dd
    assert c == Constant("sqrt", 7) and hash(c) == hash(Constant("sqrt", 7))


def test_memoized_constants_ignore_the_global_mpmath_precision(monkeypatch):
    # dd, the fixed-point fraction and the e(x) table may first be built in a
    # worker thread, so none may read or set the precision every thread shares
    from katailab.constants import Constant
    from katailab.orthogonality import _e_table

    want = {tag: (Constant(*tag).dd, Constant(*tag).turns(np.array([1, 3, 2**40 + 1])))
            for tag in (("sqrt", 7), ("pi",), ("log", 5))}
    table = _e_table()
    monkeypatch.setattr(mpmath, "workdps", None)  # any call to it raises
    with mpmath.workprec(8):  # a global precision of 8 bits
        for tag, (dd, turns) in want.items():
            c = Constant(*tag)
            assert c.dd == dd and np.array_equal(c.turns(np.array([1, 3, 2**40 + 1])), turns)
        fresh = _e_table.__wrapped__()
    assert all(np.array_equal(a, b) for a, b in zip(fresh, table))


def test_frac_mul_wide_integers_past_float_exactness():
    # floors can reach 2^62: past 2^53 only the low limb's carry is rounded
    from katailab.constants import SQRT2

    sqrt2 = mpmath.sqrt(2)
    ms = np.array([2**61 + 123456789, 2**62 - 97, 2**53 + 1], dtype=np.int64)
    got = SQRT2.frac_mul(ms)
    for i, m in enumerate(ms):
        want = mpmath.frac(int(m) * sqrt2)
        err = abs(mpmath.mpf(got[i]) - want)
        assert min(err, 1 - err) < 1e-9, m


def test_sqrt_of_a_perfect_square_is_rejected():
    from katailab.constants import Constant

    with pytest.raises(ValueError, match=r"sqrt\(9\) is 3; use a rational constant"):
        Constant("sqrt", 9)
    with pytest.raises(ValueError, match=r"sqrt\(1\) is 1"):
        Constant.parse("sqrt1")
    assert Constant("sqrt", 8).is_irrational and Constant("log", 2).is_irrational
    assert not Constant.parse("3/4").is_irrational


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


# -- table-driven exp, root route, Stirling tail ------------------------------

# 1/k! for k = 3..11 as two-term splits: the Taylor exp below keeps them
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


LOG2 = (0.6931471805599453, 2.3190468138462996e-17)


def _taylor_exp(x):
    """The exp that ddmath once ran: k log2 reduction, Taylor series, 9 squarings."""
    h = np.asarray(x[0], dtype=np.float64)
    m = np.floor(h / LOG2[0] + 0.5)
    r = ddmath.sub(x, ddmath.mul_f(LOG2, m))
    r = (r[0] / 512.0, r[1] / 512.0)
    p = ddmath.sqr(r)
    s = ddmath.add(r, (p[0] * 0.5, p[1] * 0.5))
    p = ddmath.mul(p, r)
    t = ddmath.mul(p, _INV_FACT[0])
    for k in range(1, len(_INV_FACT)):
        s = ddmath.add(s, t)
        p = ddmath.mul(p, r)
        t = ddmath.mul(p, _INV_FACT[k])
    s = ddmath.add(s, t)
    for _ in range(9):  # (1+s)^512 - 1, tracked without the leading 1
        s = ddmath.add((s[0] * 2.0, s[1] * 2.0), ddmath.sqr(s))
    s = ddmath.add_f(s, 1.0)
    mi = m.astype(np.int64)
    return np.ldexp(s[0], mi), np.ldexp(s[1], mi)


def _taylor_log(x):
    """The log that ddmath once ran: one Newton step through _taylor_exp."""
    y = np.log(x[0])
    e = _taylor_exp((-y, np.zeros_like(y)))
    corr = ddmath.add_f(ddmath.mul(x, e), -1.0)
    return ddmath.add((y, np.zeros_like(y)), corr)


def _newton_log(x):
    """The log that ddmath ran before its table route: y + log(1 + c) for the
    libm seed y and c = x exp(-y) - 1, through the table-driven exp.

    log(1 + c) is taken as c - c^2/2; exp(-y) = e 2^m is applied as x 2^m
    times e, so its low word never drops into the subnormal range.
    """
    y = np.log(x[0])
    e, m = ddmath._exp_scaled((-y, np.zeros_like(y)))
    c = ddmath.add_f(ddmath.mul((np.ldexp(x[0], m), np.ldexp(x[1], m)), e), -1.0)
    return ddmath.add((y, np.zeros_like(y)), ddmath.add_f(c, -0.5 * c[0] * c[0]))


# the eight Stirling coefficients, all as two-term splits
_STIRLING_ALL_DD = [
    (0.08333333333333333, 4.625929269271485e-18),
    (-0.002777777777777778, 1.0601087908747154e-19),
    (0.0007936507936507937, 6.883823317368282e-22),
    (-0.0005952380952380953, 5.36938218754726e-20),
    (0.0008417508417508417, 3.6870174889237694e-20),
    (-0.0019175269175269176, 1.0675702776872475e-19),
    (0.00641025641025641, 2.2240044563805217e-19),
    (-0.029550653594771242, 4.861760957508855e-19),
]


def _stirling_all_dd(x):
    """The Stirling sum that ddmath once ran: every term in dd."""
    s = ddmath.mul(ddmath.add_f(x, -0.5), ddmath.log(x))
    s = ddmath.add(ddmath.sub(s, x), ddmath.HALF_LOG_2PI)
    inv = ddmath.div(ddmath.from_float(np.ones_like(x[0])), x)
    inv2 = ddmath.sqr(inv)
    term = inv
    for c in _STIRLING_ALL_DD:
        s = ddmath.add(s, ddmath.mul(term, c))
        term = ddmath.mul(term, inv2)
    return s


def _mp(dd, i):
    return mpmath.mpf(dd[0][i]) + mpmath.mpf(dd[1][i])


def test_exp2_table_is_the_rounded_dd_of_mpmath():
    hi, lo = ddmath.exp2_table()
    assert hi.size == lo.size == 1024
    with mpmath.workdps(40):
        for j in range(1024):
            want = mpmath.mpf(2) ** (mpmath.mpf(j) / 1024)
            assert hi[j] == float(want), j
            assert lo[j] == float(want - mpmath.mpf(hi[j])), j


def test_exp_at_table_boundaries():
    # k ln2/1024 is where r = 0; (k + 1/2) ln2/1024 is where rint flips k
    step = math.log(2) / 1024
    ks = np.concatenate([np.arange(-1100, 1100), RNG.integers(-1_000_000, 1_000_000, 300)])
    base = np.concatenate([ks * step, (ks + 0.5) * step])
    xs = np.concatenate([np.nextafter(base, -np.inf), base, np.nextafter(base, np.inf)])
    got = ddmath.exp(ddmath.from_float(xs))
    for i, x in enumerate(xs):
        want = mpmath.exp(mpmath.mpf(x))
        assert abs(_mp(got, i) / want - 1) < 4e-32 * max(1.0, abs(x)), x


def test_exp_tiny_and_extreme_arguments():
    tiny = np.array([0.0, -0.0, 2.0**-31, -(2.0**-31), 1e-12, -1e-12, 5e-324, 1e-300,
                     -1e-300, 2.0**-30 * 0.999])
    tiny = np.concatenate([tiny, RNG.uniform(-(2.0**-30), 2.0**-30, 200)])
    got = ddmath.exp(ddmath.from_float(tiny))
    for i, x in enumerate(tiny):
        assert abs(_mp(got, i) / mpmath.exp(mpmath.mpf(x)) - 1) < 1e-32, x
    # e^700 keeps every dd digit; e^-700 is about 1e-304, so its low word
    # is subnormal and carries only an absolute 2^-1075
    big = np.array([700.0, -700.0, 699.9, -699.9])
    got = ddmath.exp(ddmath.from_float(big))
    for i, x in enumerate(big):
        want = mpmath.exp(mpmath.mpf(x))
        assert abs(_mp(got, i) - want) < 1e-29 * want + mpmath.mpf(2) ** -1074, x


def test_exp_matches_taylor_exp():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-40.0, 40.0, 10**5)
    x = (xs, xs * rng.uniform(-1.0, 1.0, xs.size) * 2.0**-54)
    got, want = ddmath.exp(x), _taylor_exp(x)
    diff = ddmath.sub(got, want)
    assert np.max(np.abs((diff[0] + diff[1]) / want[0])) < 1e-30


def test_log_over_the_float_range():
    ys = np.exp(RNG.uniform(math.log(1e-300), math.log(1e300), 600))
    ys = np.concatenate([ys, [1e-300, 1e300, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.5, 2.0]])
    got = ddmath.log(ddmath.from_float(ys))
    for i, y in enumerate(ys):
        want = mpmath.log(mpmath.mpf(y))
        assert abs(_mp(got, i) - want) < 2e-32 * max(1, abs(want)), y


def _log_errors(x):
    """(|ddmath.log(x) - log x|, |log x|) per entry, against 40-digit mpmath."""
    got = ddmath.log(x)
    err, mag = [], []
    with mpmath.workdps(40):
        for i in range(got[0].size):
            want = mpmath.log(mpmath.mpf(x[0][i]) + mpmath.mpf(x[1][i]))
            err.append(float(abs(_mp(got, i) - want)))
            mag.append(float(abs(want)))
    return np.array(err), np.array(mag)


def _log_edge_points(rng):
    """Bucket edges and table points 2^(j/1024) in [1/2, 2] and at seeded
    exponents, powers of 2 (subnormal ones too), seeded subnormals and
    DBL_MAX, each with its two float neighbours; and 2^k (1 - 2^-52)."""
    m = np.concatenate([1.0 + np.arange(4097) / 4096, np.append(ddmath.exp2_table()[0], 2.0)])
    points = np.concatenate([m, m / 2, np.ldexp(m, rng.integers(-1022, 1023, m.size)),
                             np.ldexp(1.0, np.arange(-1074, 1024)),
                             rng.integers(1, 2**52, 200) * 2.0**-1074])
    points = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf),
                             np.ldexp(1.0 - 2.0**-52, np.arange(-1021, 1025)),
                             [np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0)]])
    return points[points > 0.0]


def test_log_accuracy_gate():
    # seeded points over the float range and the integers, then edge points;
    # all within the stated bound, 2e-32 max(1, |log x|)
    rng = np.random.default_rng(28)
    xs = np.concatenate([
        np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 10**4)),
        np.floor(np.exp(rng.uniform(math.log(2.0), math.log(2.0**53), 10**4))),
        [2.0, 3.0, 2.0**53 - 1, 2.0**53],
        _log_edge_points(rng),
    ])
    err, mag = _log_errors(ddmath.from_float(xs))
    bad = err >= 2e-32 * np.maximum(1.0, mag)
    assert not np.any(bad), xs[bad][:5]


def test_log_is_relatively_accurate_near_one():
    # where K = 0 (x within 2^-12 of 1) delta = 0 and the error is relative;
    # elsewhere |log x| > 2^-12.1, so the absolute bound gives under 1e-28
    rng = np.random.default_rng(29)
    steps = np.arange(1, 65)
    xs = np.concatenate([1.0 + rng.uniform(-(2.0**-8), 2.0**-8, 4000),
                         1.0 + steps * 2.0**-52, 1.0 - steps * 2.0**-53,
                         1.0 + rng.uniform(-(2.0**-12), 2.0**-12, 1000)])
    err, mag = _log_errors(ddmath.from_float(xs))
    assert np.all(err <= 1e-28 * mag)
    k_zero = np.abs(xs - 1.0) < 2.0**-12
    assert np.all(err[k_zero] <= 2.0**-100 * mag[k_zero])


def test_log_of_dd_arguments():
    # a low word l adds log1p(l/h) ~ l/h; the docstring bounds what that
    # costs by 2^-104.7 max(1, |log x|) on top of the float bound
    rng = np.random.default_rng(30)
    h = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 3000))
    h = np.concatenate([h, 1.0 + rng.uniform(-(2.0**-8), 2.0**-8, 500)])
    lo = np.spacing(h) * rng.uniform(-0.5, 0.5, h.size)
    lo[::3] = np.spacing(h[::3]) * np.where(rng.random(lo[::3].size) < 0.5, -0.5, 0.5)
    x = ddmath.quick_two_sum(h, lo)
    assert np.count_nonzero(x[1]) > h.size * 0.9
    err, mag = _log_errors(x)
    assert np.all(err <= (2e-32 + 2.0**-104.7) * np.maximum(1.0, mag))


def test_log_matches_newton_log():
    rng = np.random.default_rng(31)
    xs = np.concatenate([np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 5 * 10**4)),
                         np.floor(np.exp(rng.uniform(math.log(2.0), math.log(2.0**53), 5 * 10**4)))])
    x = ddmath.from_float(xs)
    got = ddmath.log(x)
    diff = ddmath.sub(got, _newton_log(x))
    # each is within 2e-32 max(1, |log x|) of log x
    assert np.all(np.abs(diff[0] + diff[1]) <= 4e-32 * np.maximum(1.0, np.abs(got[0])))


def test_log_table_buckets():
    from fractions import Fraction

    c, delta, J = ddmath._log_table()
    assert c.size == delta.size == J.size == 4096
    j = J + 1023 * 1024
    assert j.min() == 0 and j.max() == 1024
    with mpmath.workdps(60):
        for b in range(4096):
            cb = Fraction(c[b])
            for edge in (1 + Fraction(b, 4096), 1 + Fraction(b + 1, 4096)):
                assert float(abs(edge * cb - 1)) < 2.0**-11.08, b  # |r| over the bucket
            exact = mpmath.mpf(2) ** (mpmath.mpf(int(j[b])) / 1024)
            assert c[b] == float(1 / exact), b
            assert delta[b] == float(mpmath.log(mpmath.mpf(c[b]) * exact)), b


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_log_and_log_gamma_refuse_bad_arguments_without_warnings(bad):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="log requires positive finite arguments"):
            ddmath.log(ddmath.from_float(np.array([2.0, bad])))
        with pytest.raises(ValueError, match="log_gamma requires finite arguments >= 2"):
            ddmath.log_gamma(ddmath.from_float(np.array([3.0, bad])))
        if not np.isfinite(bad):  # a non-finite low word
            with pytest.raises(ValueError, match="log requires positive finite arguments"):
                ddmath.log((np.array([2.0, 3.0]), np.array([0.0, bad])))


def test_log_keeps_shapes():
    for shape in ((), (0,), (3,), (2, 3)):
        x = np.full(shape, 3.0)
        got = ddmath.log((x, 0.0))
        assert got[0].shape == got[1].shape == shape
    assert ddmath.log((np.float64(3.0), np.float64(1e-17)))[0].shape == ()


LOG_ROUTE_SPECS = ("logpow:2.5", "logpow:3", "tlogt", "toverlogt", "loggamma")


def test_log_routes_call_no_libm_log_exp_or_mpmath(monkeypatch):
    # log, log_gamma and the Hardy phases that use them reach no np.log, no
    # exp step and no mpmath; logpow:e is exp(e log t), so only its exp may run
    rng = np.random.default_rng(32)
    n = np.concatenate([np.arange(1, 3000), [10**6 + 3, 2**40 + 1]]).astype(np.int64)
    t = ddmath.from_float(np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 2000)))
    g = ddmath.from_float(rng.uniform(2.0, 1e6, 2000))
    hardy = {spec: parse_hardy(spec) for spec in LOG_ROUTE_SPECS + ("logpow:e",)}
    want = {spec: h.fractional_parts(n) for spec, h in hardy.items()}
    want_log, want_gamma = ddmath.log(t), ddmath.log_gamma(g)

    def refuse(*args, **kwargs):
        raise AssertionError("refused call")

    monkeypatch.setattr(np, "log", refuse)
    for name in ("MPContext", "mpf", "workdps", "workprec", "log", "loggamma", "exp", "power"):
        monkeypatch.setattr(mpmath, name, refuse)
    assert np.array_equal(hardy["logpow:e"].fractional_parts(n), want["logpow:e"])
    monkeypatch.setattr(ddmath, "_exp_scaled", refuse)
    fresh = ddmath._log_table.__wrapped__()  # the tables build without them too
    assert all(np.array_equal(a, b) for a, b in zip(fresh, ddmath._log_table()))
    assert ddmath._exp2_fixed.__wrapped__() == ddmath._exp2_fixed()
    for spec in LOG_ROUTE_SPECS:
        assert np.array_equal(hardy[spec].fractional_parts(n), want[spec]), spec
    for got, ref in ((ddmath.log(t), want_log), (ddmath.log_gamma(g), want_gamma)):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("c", ["1/2", "3/2", "5/2", "7/3", "355/113"])
def test_rational_pow_root_route(c):
    c = Fraction(c)
    ts = np.floor(np.exp(RNG.uniform(math.log(2.0), math.log(2.0**40), 300)))
    ts = np.concatenate([ts, [2.0, 3.0, 4.0, 1e6, 2.0**40 - 1, 2.0**40]])
    got = ddmath.rational_pow(ddmath.from_float(ts), c.numerator, c.denominator)
    exponent = mpmath.mpf(c.numerator) / c.denominator
    for i, t in enumerate(ts):
        want = mpmath.power(mpmath.mpf(t), exponent)
        assert abs(_mp(got, i) / want - 1) < 1e-29, t


def test_root_within_dd_rounding():
    # the float Newton step on the seed keeps the v-th root near 2^-104
    ts = np.floor(np.exp(RNG.uniform(math.log(2.0), math.log(2.0**52), 400)))
    for v in (3, 5, 7, 113):
        got = ddmath.root(ddmath.from_float(ts), v)
        for i, t in enumerate(ts):
            want = mpmath.root(mpmath.mpf(t), v)
            assert abs(_mp(got, i) / want - 1) < 1e-31, (v, t)


def test_rational_pow_of_dd_bases():
    # log_power feeds the root a dd base with a nonzero low word
    h = np.exp(RNG.uniform(0.0, 5.0, 200))
    x = (h, h * RNG.uniform(-1.0, 1.0, h.size) * 2.0**-54)
    for u, v in ((5, 2), (3, 1), (7, 3), (1, 5)):
        got = ddmath.rational_pow(x, u, v)
        exponent = mpmath.mpf(u) / v
        for i in range(h.size):
            want = mpmath.power(mpmath.mpf(x[0][i]) + mpmath.mpf(x[1][i]), exponent)
            assert abs(_mp(got, i) / want - 1) < 1e-30, (u, v, h[i])


def test_stirling_tail_against_mpmath():
    xs = np.exp(RNG.uniform(math.log(12.0), math.log(1e15), 400))
    xs = np.concatenate([xs, [12.0, 13.0, 20.0, 40.0, 50.0, 100.0, 1300.0, 1e15]])
    got = ddmath._log_gamma_stirling(ddmath.from_float(xs))
    for i, x in enumerate(xs):
        want = mpmath.loggamma(mpmath.mpf(x))
        # dd rounding, plus the series remainder, about 0.18 / x^17
        bound = 1e-31 * abs(want) + 0.25 / mpmath.mpf(x) ** 17
        assert abs(_mp(got, i) - want) < bound, x


HEAD_ROUTE_SPECS = ("power:1.5", "power:sqrt2", "logpow:2.5", "logpow:e", "tlogt",
                    "toverlogt", "loggamma")


def _frac_distance(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


@pytest.mark.parametrize("spec", HEAD_ROUTE_SPECS + ("power:7/3", "power:5/2"))
def test_fractional_parts_match_taylor_kernels(spec, monkeypatch):
    """The new kernels give the fractional parts of the Taylor-exp kernels.

    Bit for bit, except where either value lies within 1e-20 of an integer
    (t^(3/2) at a perfect square is now exactly 0).  For t^(7/3) and
    t^(5/2), h(n) reaches 2^55 at n = 2e5, so a dd carries fewer than 53
    bits below the point and the two routes may differ in the last bits;
    there they agree within one float64 unit plus 2^-98 h(n).
    """
    from katailab import equidist

    h = parse_hardy(spec)
    n = np.arange(1, 200_001, dtype=np.int64)
    got = h.fractional_parts(n)
    with monkeypatch.context() as m:
        m.setattr(ddmath, "exp", _taylor_exp)
        m.setattr(ddmath, "log", _taylor_log)
        m.setattr(ddmath, "_log_gamma_stirling", _stirling_all_dd)
        m.setattr(equidist, "_dd_power", lambda x, c: ddmath.pow_dd(x, c.dd))
        want = h.fractional_parts(n)
    if spec in HEAD_ROUTE_SPECS:
        differ = got.view(np.int64) != want.view(np.int64)
        near = (_frac_distance(got, 0.0) < 1e-20) | (_frac_distance(want, 0.0) < 1e-20)
        assert not np.any(differ & ~near), n[differ & ~near][:5]
    else:
        c = float(Fraction(spec.partition(":")[2]))
        assert np.all(_frac_distance(got, want) <= 2.0**-52 + 2.0**-98 * n.astype(float) ** c)


def test_rational_exponents_take_the_root_route(monkeypatch):
    def no_exp_route(x, c):
        raise AssertionError("exp(c log t) route taken")

    monkeypatch.setattr(ddmath, "pow_dd", no_exp_route)
    t = np.array([2.0, 10.0, 12345.0])
    for spec in ("power:1.5", "power:7/3", "power:355/113", "logpow:2.5", "logpow:3"):
        parse_hardy(spec)._dd_values(t)
    for spec in ("power:sqrt2", "power:1/129", "logpow:e"):
        with pytest.raises(AssertionError, match="exp"):
            parse_hardy(spec)._dd_values(t)


def test_named_constants_dd_are_the_correctly_rounded_pairs():
    # dd rounds mp() to two floats; these are the correctly rounded pairs
    from katailab.constants import Constant

    assert Constant("pi").dd == (3.141592653589793, 1.2246467991473532e-16)
    assert Constant("e").dd == (2.718281828459045, 1.4456468917292502e-16)
    assert Constant("golden").dd == (1.618033988749895, -5.432115203682506e-17)
