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


def _frac_int_mul_formula(c, n):
    # the whole-array formula the in-place frac_int_mul keeps, step for step
    n = np.asarray(n, dtype=np.float64)
    p, e = ddmath.two_prod(n, c[0])
    out = (p - np.floor(p)) + (e + n * c[1])
    out = out - np.floor(out)
    return np.where(out >= 1.0, out - 1.0, out)


def test_frac_int_mul_in_place_is_the_formula_bit_for_bit():
    from katailab.constants import GOLDEN, PI, SQRT2, Constant

    rng = np.random.default_rng(53)
    consts = [SQRT2.dd, GOLDEN.dd, PI.dd, Constant("log", 3).dd, (-0.3, 1e-17)]
    for c in consts:
        for top in (2**20, 2**40, 2**53):
            n = rng.integers(-top, top, 20_000).astype(np.float64)
            n[:4] = [0.0, 1.0, top, -top]
            got = ddmath.frac_int_mul(c, n)
            assert np.array_equal(got.view(np.int64),
                                  _frac_int_mul_formula(c, n).view(np.int64)), (c, top)
        for scalar in (7, 2.0**52 + 1, np.float64(123456789.0), np.array(2.0**50),
                       np.array([[3.0, 5.0]])):
            got, want = ddmath.frac_int_mul(c, scalar), _frac_int_mul_formula(c, scalar)
            assert type(got) is type(want) and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (c, scalar)


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
