"""Hardy catalog, Weyl sums, star discrepancy, dilation and ergodic tests."""

import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from katailab import ddmath, equidist
from katailab import functions as fns
from katailab.cli import parse_hardy
from katailab.constants import GOLDEN, SQRT2, BudgetError, rational
from katailab.equidist import (
    AdmissibilityError,
    Mod1Sequence,
    _int_root,
    ergodic_weyl_test,
    floor_sequence,
    fractional_parts_along,
    log_gamma,
    log_power,
    pq_dilation_check,
    polynomial,
    power,
    star_discrepancy,
    t_log_t,
    t_over_log_t,
    total_ergodicity_test,
    ud_test,
    weyl_sum,
    weyl_sums,
)
from katailab.levelsets import GenericLevel, OmegaMod, Squarefree, TruncationError
from katailab.orthogonality import e_of, polynomial_frac
from katailab.reports import render_csv, render_json

mpmath.mp.dps = 40


# -- catalog evaluation -------------------------------------------------------


def test_hardy_eval_examples():
    assert abs(power(rational("1.5")).eval(4.0) - 8.0) < 1e-12
    assert abs(log_gamma().eval(5.0) - math.log(24)) < 1e-14
    assert abs(t_log_t().eval(math.e) - math.e) < 1e-12


def test_hardy_eval_against_mpmath():
    cases = [
        (power(rational("1.5")), lambda t: t ** mpmath.mpf(1.5)),
        (power(SQRT2), lambda t: t ** mpmath.sqrt(2)),
        (log_power(rational("2.5")), lambda t: mpmath.log(t) ** mpmath.mpf(2.5)),
        (t_log_t(), lambda t: t * mpmath.log(t)),
        (t_over_log_t(), lambda t: t / mpmath.log(t)),
        (log_gamma(), lambda t: mpmath.loggamma(t)),
    ]
    for h, oracle in cases:
        for t in (2.0, 5.0, 17.5, 1234.0, 1.0e6):
            got = h.eval(t)
            want = float(oracle(mpmath.mpf(t)))
            assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (h.variant, t)


def test_admissibility_windows():
    with pytest.raises(AdmissibilityError, match="integer exponent"):
        power(rational(2))
    with pytest.raises(AdmissibilityError, match="positive"):
        power(rational("-0.5"))
    with pytest.raises(AdmissibilityError, match="log\\^2"):
        log_power(rational(2))
    with pytest.raises(AdmissibilityError, match="irrational coefficient"):
        polynomial([rational(0), rational(1)])
    # negative-control modes are constructible but flagged
    nc = log_power(rational("1.5"), negative_control=True)
    assert not nc.admissible
    ncp = polynomial([rational(0), rational(1)], negative_control=True)
    assert not ncp.admissible
    assert power(rational("1.5")).growth_window == "between t^1 and t^2"
    assert log_power(rational("2.5")).growth_window == "sublinear"
    assert t_log_t().growth_window == "between t^1 and t^2"


def test_fractional_parts_examples(sieve_small):
    seq = fractional_parts_along(polynomial([rational(0), SQRT2]), Squarefree(), 3, sieve_small)
    s2 = mpmath.sqrt(2)
    for got, n in zip(seq.values, (1, 2, 3)):
        want = float(mpmath.frac(n * s2))
        assert abs(got - want) < 1e-12

    seq = fractional_parts_along(power(rational("1.5")), Squarefree(), 3, sieve_small)
    w2 = float(mpmath.frac(mpmath.mpf(2) ** mpmath.mpf(1.5)))
    w3 = float(mpmath.frac(mpmath.mpf(3) ** mpmath.mpf(1.5)))
    assert seq.values[0] == 0.0  # h(1) = 1
    assert abs(seq.values[1] - w2) < 1e-12 and abs(w2 - 0.8284271) < 1e-7
    assert abs(seq.values[2] - w3) < 1e-12 and abs(w3 - 0.1961524) < 1e-7


def test_truncation_error_propagates(sieve_small):
    with pytest.raises(TruncationError):
        fractional_parts_along(power(rational("1.5")),
                               GenericLevel(fns.tau(), 2), 5000, sieve_small)


# -- Weyl sums and discrepancy ------------------------------------------------


def test_weyl_and_dstar_edge_cases():
    zeros = Mod1Sequence(np.zeros(10))
    assert weyl_sum(zeros, 3) == 1.0
    single = Mod1Sequence(np.array([0.5]))
    assert star_discrepancy(single) == 0.5
    n = 64
    roots = Mod1Sequence(np.arange(n) / n)
    assert abs(weyl_sum(roots, 1)) < 1e-13
    centered = Mod1Sequence((2 * np.arange(1, n + 1) - 1) / (2 * n))
    assert abs(star_discrepancy(centered) - 1 / (2 * n)) < 1e-15
    with pytest.raises(ValueError, match="nonzero"):
        weyl_sum(roots, 0)


def test_dstar_bounds_and_permutation_invariance():
    rng = np.random.default_rng(3)
    for size in (1, 10, 1000):
        pts = rng.random(size)
        seq = Mod1Sequence(pts)
        d = star_discrepancy(seq)
        assert 1 / (2 * size) <= d <= 1.0
        shuffled = Mod1Sequence(rng.permutation(pts))
        assert star_discrepancy(shuffled) == d
        assert weyl_sum(shuffled, 2) == pytest.approx(weyl_sum(seq, 2), abs=1e-12)


def test_linear_sequence_weyl_matches_closed_form():
    big = 1_000_000
    n = np.arange(1, big + 1, dtype=np.int64)
    seq = Mod1Sequence(SQRT2.frac_mul(n))
    s2 = mpmath.sqrt(2)
    for k in (1, 2, 5, 10):
        got = abs(weyl_sum(seq, k))
        want = float(abs(mpmath.sin(mpmath.pi * big * k * s2))
                     / (big * abs(mpmath.sin(mpmath.pi * k * s2))))
        assert abs(got - want) < 1e-9, k


def test_koksma_inequality_on_produced_sequences(sieve_small):
    # |W_N(k)| <= 4 sqrt(2) k D*_N + 1e-9 for k <= 10
    specs = [
        fractional_parts_along(power(rational("1.5")), Squarefree(), 2000, sieve_small),
        fractional_parts_along(polynomial([rational(0), SQRT2]), OmegaMod(2, 0), 2000, sieve_small),
        fractional_parts_along(t_log_t(), Squarefree(), 2000, sieve_small),
        fractional_parts_along(log_gamma(), OmegaMod(2, 1), 2000, sieve_small),
    ]
    for seq in specs:
        d = star_discrepancy(seq)
        for k in range(1, 11):
            assert abs(weyl_sum(seq, k)) <= 4 * math.sqrt(2) * k * d + 1e-9


def test_ud_test_golden_values(sieve_big):
    # true oracle values (longdouble + mpmath agree to 1e-12): the t^{3/2}
    # squarefree point sits at D* = 0.026885, decaying only like N^{-1/4}
    rep = ud_test(power(rational("1.5")), Squarefree(), 10**5, 5, sieve_big)
    assert abs(rep.dstar - 0.0268848) < 1e-5
    assert abs(rep.max_abs_weyl - 0.0277433) < 1e-5

    rep2 = ud_test(polynomial([rational(0), rational(1), SQRT2]), OmegaMod(2, 0),
                   10**5, 5, sieve_big)
    assert rep2.dstar < 0.01
    assert rep2.max_abs_weyl < 0.02

    rep3 = ud_test(polynomial([rational(0), SQRT2]), GenericLevel(fns.constant_one(), 1),
                   10**5, 3, sieve_big)
    assert rep3.dstar < 1e-3


def test_ud_test_single_point(sieve_small):
    rep = ud_test(power(rational("1.5")), Squarefree(), 1, 3, sieve_small)
    assert abs(rep.weyl[0]) == 1.0  # single point: |W| = 1
    assert rep.dstar == 1.0  # the single point is {h(1)} = 0


def test_pq_dilation_check(sieve_small):
    rep = pq_dilation_check(power(rational("1.5")), 2, 3, 10**5, 3)
    assert rep.dstar < 0.01  # oracle: 0.0025343

    # linear polynomial: the difference sequence is (p-q) sqrt2 n mod 1
    rep2 = pq_dilation_check(polynomial([rational(0), SQRT2]), 2, 3, 10**4, 2)
    n = np.arange(1, 10**4 + 1, dtype=np.int64)
    direct = np.exp(-2j * np.pi * SQRT2.frac_mul(n)).mean()  # (2-3) sqrt2 = -sqrt2
    assert abs(rep2.weyl[0] - direct) < 1e-12

    with pytest.raises(AdmissibilityError):
        pq_dilation_check(polynomial([rational(0), rational(1)]), 2, 3, 100, 2)
    with pytest.raises(ValueError, match="distinct"):
        pq_dilation_check(power(rational("1.5")), 3, 3, 100, 2)


def test_dilated_phases_match_mpmath():
    h = power(rational("1.5"))
    n = np.array([1, 7, 1000, 99_999], dtype=np.int64)
    got = h.dilated_difference_parts(2, 3, n)
    c = 2 * mpmath.sqrt(2) - 3 * mpmath.sqrt(3)
    for i, m in enumerate(n):
        want = mpmath.frac(c * mpmath.mpf(int(m)) ** mpmath.mpf(1.5))
        err = abs(mpmath.mpf(float(got[i])) - want)
        assert min(err, 1 - err) < 1e-10


def _hardy_mp(h, x):
    """h(x) at 80 digits."""
    with mpmath.workdps(80):
        x, v = mpmath.mpf(int(x)), h.variant
        if v == "power":
            return x ** h.c.mp(80)
        if v == "polynomial":
            return sum(c.mp(80) * x**i for i, c in enumerate(h.coefficients))
        if v == "log_power":
            return mpmath.log(x) ** h.r.mp(80)
        return {"t_log_t": lambda: x * mpmath.log(x), "t_over_log_t": lambda: x / mpmath.log(x),
                "log_gamma": lambda: mpmath.loggamma(x)}[v]()


def _phase_bound(h, args):
    """1e-12, plus for a polynomial 5 i u^2 |c_i| x^i per monomial of each
    argument x: each of the i dd products behind c_i x^i adds a relative
    error of at most 5 u^2 (Joldes, Muller and Popescu, ACM TOMS 44, 2017),
    and the `monomial` row bounds only what a dd pair can represent."""
    if h.variant != "polynomial":
        return 1e-12
    return 1e-12 + sum(5 * i * 2.0**-106 * abs(float(c)) * float(x) ** i
                       for x in args for i, c in enumerate(h.coefficients))


def _hardy_edge(h):
    """The largest n whose |h(n)| stays below 2^57.99, by bisection."""
    lo, hi = 2, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if abs(_hardy_mp(h, mid)) < mpmath.mpf(2) ** 57.99 else (lo, mid)
    return lo


ORACLE_SPECS = ("power:1.5", "power:2.7", "power:sqrt2", "power:golden", "poly:0,sqrt2",
                "poly:0,sqrt2,sqrt2", "logpow:3", "tlogt", "toverlogt", "loggamma")


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_every_phase_route_meets_its_bound_or_raises(spec):
    # at n and at q*n near 2^20, 2^36, 2^46, 2^53 and 2^62, and at the last
    # n the hardy row lets through: a phase within its bound, or BudgetError
    h = parse_hardy(spec)
    tops = [2**k for k in (20, 36, 46, 53, 62)]
    if h.variant != "polynomial":
        tops.append(_hardy_edge(h) + 1)
    returned = 0
    for top in tops:
        calls = [(h.fractional_parts, [], np.array([top - 1, top - 1_000_003]))]
        for p, q in ((2, 3), (2, top // 2**10 + 1)):
            m = np.array([(top - 1) // q, (top - 1_000_003) // q])
            calls.append((functools.partial(h.dilated_difference_parts, p, q), [p, q], m))
        for call, pq, m in calls:
            try:
                got = call(m.astype(np.int64))
            except BudgetError:
                assert top > 2**20, (spec, top)  # no budget refuses the smallest points
                continue
            returned += 1
            for g, x in zip(got, m):
                want = (_hardy_mp(h, pq[0] * x) - _hardy_mp(h, pq[1] * x) if pq
                        else _hardy_mp(h, x))
                err = abs(mpmath.mpf(float(g)) - mpmath.frac(want))
                bound = _phase_bound(h, [k * x for k in pq] if pq else [x])
                assert min(err, 1 - err) <= bound, (spec, top, pq, int(x), float(err))
    assert returned >= 6, spec


# -- floor sequences and ergodic tests ----------------------------------------


def test_floor_sequence_exact(sieve_small):
    floors = floor_sequence(power(rational("1.5")), Squarefree(), 100, sieve_small)
    from katailab.levelsets import first_members

    members = first_members(Squarefree(), 100, sieve_small)
    want = np.array([math.isqrt(int(m) ** 3) for m in members])
    assert np.array_equal(floors, want)


def test_floor_sequence_dd_variants_match_mpmath(sieve_small):
    floors = floor_sequence(t_log_t(), Squarefree(), 50, sieve_small)
    from katailab.levelsets import first_members

    members = first_members(Squarefree(), 50, sieve_small)
    for f, m in zip(floors, members):
        if m >= 2:
            assert f == int(mpmath.floor(m * mpmath.log(m)))


# n with h(n) within 1e-6 of an integer, found by scanning polynomial_frac
# over n < 2^24
@pytest.mark.parametrize("spec, near", [
    ("poly:0,1,sqrt2", [538_245, 826_561, 1_121_037]),
    ("poly:0.5,golden,1", [416_020, 1_762_289, 3_940_598]),
    ("poly:5,1,sqrt2", [538_245, 826_561, 1_121_037]),  # c_0 shifts h by an integer
])
def test_polynomial_floors_match_mpmath(spec, near):
    h = parse_hardy(spec)
    n = np.concatenate([[0, 1], np.random.default_rng(13).integers(1, 10**5 + 1, 2000), near])
    with mpmath.workdps(50):
        coeffs = [c.mp(50) for c in h.coefficients]

        def value(m):
            return sum(c * mpmath.mpf(m) ** i for i, c in enumerate(coeffs))

        assert all(abs(value(m) - mpmath.nint(value(m))) < 1e-6 for m in near)
        want = [int(mpmath.floor(value(int(m)))) for m in n]
    assert h.floor_values(n).tolist() == want


# floor(h(0)) and floor(h(1)): 0^c = 0 and 1^c = 1, c_0 and the sum of the
# coefficients for a polynomial, the germ value 0 for the log variants
@pytest.mark.parametrize("spec, want", [
    ("power:1.5", [0, 1]), ("power:sqrt2", [0, 1]), ("poly:-0.5,sqrt2", [-1, 0]),
    ("logpow:2.5", [0, 0]), ("tlogt", [0, 0]), ("toverlogt", [0, 0]), ("loggamma", [0, 0]),
])
def test_floor_values_at_0_and_1(spec, want):
    assert parse_hardy(spec).floor_values(np.array([0, 1])).tolist() == want


def test_floor_overflow_guard():
    hp = power(rational("15.5"))
    with pytest.raises(BudgetError, match="2\\^62"):
        hp.floor_values(np.array([10_000], dtype=np.int64))


# n where floor(h(n)) passes 2^53: the two dd words are added as int64
@pytest.mark.parametrize("spec, ns", [
    ("power:e", [2**20 + 1, 2**21 + 1, 3_000_001, 4_000_037]),
    ("power:sqrt2", [2**42 + 1]),
    ("tlogt", [2**53 - 2**45, 2**50 + 3]),
])
def test_floors_past_2_53_are_exact(spec, ns):
    h = parse_hardy(spec)
    with mpmath.workdps(60):
        want = [int(mpmath.floor(_hardy_mp(h, m))) for m in ns]
    assert h.floor_values(np.array(ns, dtype=np.int64)).tolist() == want


def test_floor_values_refuse_n_past_the_argument_budget():
    for spec in ("tlogt", "power:sqrt2", "poly:0,sqrt2"):
        with pytest.raises(BudgetError, match="n = 9007199254740993 exceeds the argument"):
            parse_hardy(spec).floor_values(np.array([5, 2**53 + 1], dtype=np.int64))
    # the exact rational-power route reads n as an integer
    assert power(rational("0.5")).floor_values(np.array([2**53 + 1])).tolist() == [
        math.isqrt(2**53 + 1)]


def test_negative_floor_past_the_guard_raises():
    # sqrt2 n - n^2 is -2^66 at n = 2^33: no int64 holds its floor
    h = parse_hardy("poly:0,sqrt2,-1")
    assert h.floor_values(np.array([5])).tolist() == [math.floor(5 * math.sqrt(2)) - 25]
    with pytest.raises(BudgetError, match="h\\(8589934592\\) exceeds the floor budget"):
        h.floor_values(np.array([5, 2**33]))


@pytest.mark.parametrize("spec", ["tlogt", "loggamma", "power:sqrt2"])
def test_dilation_checks_its_budgets_once(spec, monkeypatch):
    h = parse_hardy(spec)
    n = np.arange(1, 3 * ddmath.BLOCK + 8, dtype=np.int64)  # four slices
    want = h.dilated_difference_parts(2, 3, n)
    calls, evaluate = [], type(h).eval
    monkeypatch.setattr(type(h), "eval", lambda self, t: calls.append(t) or evaluate(self, t))
    got = h.dilated_difference_parts(2, 3, n)
    assert calls == [3 * int(n[-1])]  # the hardy row on max(p,q) max n, once
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_ergodic_weyl_integer_alpha_trivial():
    prof = ergodic_weyl_test(np.arange(1, 1001), rational(3))
    assert all(v == 1.0 for v in prof.values)


def test_ergodic_weyl_identity_alternating():
    n = 10**4
    prof = ergodic_weyl_test(np.arange(1, n + 1), rational("0.5"), grid=[n])
    assert prof.values[-1] <= 1.0 / n + 1e-15


def test_weyl_sum_matches_the_whole_array_mean():
    # one chunk, n < 2^16, sums exactly as .mean() does.  The chunks are
    # aligned to multiples of 2^16 in n = j + 1, so from N = 2^16 on the
    # first one holds 2^16 - 1 values and the sum is not bit-equal
    rng = np.random.default_rng(12)
    for n, exact in ((1, True), (7, True), (1000, True), (2**16 - 1, True),
                     (2**16, False), (3 * 2**16 + 123, False)):
        seq = Mod1Sequence(rng.random(n))
        for k in (1, 2, 5):
            want = complex(e_of(k * seq.values).mean())
            if exact:
                assert weyl_sum(seq, k) == want, (n, k)
            else:
                assert abs(weyl_sum(seq, k) - want) < 1e-13, (n, k)


def test_ergodic_weyl_matches_fresh_prefix_sums():
    m = np.random.default_rng(5).integers(1, 10**9, size=3 * 2**16 + 77)
    grid = [100, 70_000, 70_000, 2**16 - 1, 2**16, m.size]
    for alpha in (GOLDEN, SQRT2, rational("1/3")):
        z = e_of(alpha.frac_mul(m))
        prof = ergodic_weyl_test(m, alpha, grid)
        assert prof.checkpoints == sorted(grid)
        for g, v in zip(prof.checkpoints, prof.values):
            assert abs(v - abs(z[:g].sum()) / g) < 1e-13, (alpha, g)


def test_ergodic_weyl_default_grid():
    def old_grid(n):
        out, g = [], 100
        while g < n:
            out.append(g)
            g *= 10
        return out + [n]

    for n in (1, 2, 99, 100, 101, 999, 1000, 1001, 12_345, 10**5, 10**6, 10**6 + 1):
        prof = ergodic_weyl_test(np.arange(1, n + 1), SQRT2)
        assert prof.checkpoints == old_grid(n), n


def test_ergodic_weyl_rejects_bad_grids():
    m = np.arange(1, 1001)
    with pytest.raises(ValueError, match="empty"):
        ergodic_weyl_test(np.array([], dtype=np.int64), SQRT2)
    with pytest.raises(ValueError, match="empty grid"):
        ergodic_weyl_test(m, SQRT2, grid=[])
    for alpha in (rational(3), SQRT2):
        with pytest.raises(ValueError, match="<= N = 1000, got 5000"):
            ergodic_weyl_test(m, alpha, grid=[5000])
    with pytest.raises(ValueError, match="got 1001"):
        ergodic_weyl_test(m, SQRT2, grid=[10, 1001, 2000])
    with pytest.raises(ValueError, match=">= 1, got -5"):
        ergodic_weyl_test(m, SQRT2, grid=[-5, 1000])
    with pytest.raises(ValueError, match=">= 1, got 0"):
        ergodic_weyl_test(m, SQRT2, grid=[0, 1000])


def _traced_peak(call):
    call()  # build the e(x) table and the constant's dd first
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weyl_and_ergodic_peaks_stay_below_one_complex_array():
    n = 2**20
    seq = Mod1Sequence(np.random.default_rng(1).random(n))
    m = np.arange(1, n + 1, dtype=np.int64)
    whole = 16 * n  # the 16 MiB complex array of a whole-array sum
    # measured 2.9 MiB for each, against 25.4 MiB when every e(x) was
    # taken over the whole array at once
    assert _traced_peak(lambda: weyl_sum(seq, 3)) < whole
    assert _traced_peak(lambda: ergodic_weyl_test(m, SQRT2)) < whole


def test_floor_ergodic_golden_value(sieve_big):
    floors = floor_sequence(power(rational("1.5")), Squarefree(), 10**6, sieve_big)
    prof = ergodic_weyl_test(floors, rational("0.5"), grid=[10**4, 10**5, 10**6])
    assert prof.values[-1] < 0.02
    assert abs(prof.values[-1] - 0.008244) < 1e-6  # oracle golden value


def test_total_ergodicity_full_set_matches_geometric(sieve_small):
    prof = total_ergodicity_test(GenericLevel(fns.constant_one(), 1), SQRT2,
                                 10_000, sieve_small, grid=[100, 10_000])
    s2 = mpmath.sqrt(2)
    for g, v in zip(prof.checkpoints, prof.values):
        want = float(abs(mpmath.sin(mpmath.pi * g * s2)) / (g * abs(mpmath.sin(mpmath.pi * s2))))
        assert abs(v - want) < 1e-9


def test_total_ergodicity_golden_value(sieve_big):
    prof = total_ergodicity_test(OmegaMod(2, 0), GOLDEN, 10**6, sieve_big,
                                 grid=[10**4, 10**5, 10**6])
    assert prof.values[-1] < 0.01
    assert abs(prof.values[-1] - 0.0012578) < 1e-7  # oracle golden value


def test_total_ergodicity_rejects_rational_without_flag(sieve_small):
    with pytest.raises(ValueError, match="negative_control"):
        total_ergodicity_test(OmegaMod(2, 0), rational("0.5"), 100, sieve_small)


def test_total_ergodicity_negative_control_flag(sieve_big):
    # Omega-even members are parity-balanced: the rational-alpha average
    # vanishes (oracle 0.00115; the identity sum (-1)^n lambda(n) = o(x))
    prof = total_ergodicity_test(OmegaMod(2, 0), rational("0.5"), 10**6, sieve_big,
                                 grid=[10**6], negative_control=True)
    assert prof.values[-1] < 0.01
    # squarefree members are the genuinely biased rational-alpha control:
    # even:odd density ratio 1:2 gives |average| = 1/3 (oracle 0.33333)
    prof2 = total_ergodicity_test(Squarefree(), rational("0.5"), 10**6, sieve_big,
                                  grid=[10**6], negative_control=True)
    assert abs(prof2.values[-1] - 1 / 3) < 1e-3


def test_log_power_reports_without_bound(sieve_small):
    # slow equidistribution: the report is produced and sane, no bound asserted
    rep = ud_test(log_power(rational("2.5")), Squarefree(), 5000, 3, sieve_small)
    assert 1 / (2 * rep.n_points) <= rep.dstar <= 1.0
    assert all(abs(w) <= 1.0 for w in rep.weyl)


def test_hardy_json_roundtrip():
    for h in (power(SQRT2), power(rational("1.5")),
              polynomial([rational(0), rational(1), SQRT2]),
              log_power(rational("2.5")), t_log_t(), t_over_log_t(), log_gamma(),
              log_power(rational("1.5"), negative_control=True)):
        clone = equidist.from_json(h.to_json())
        assert clone.to_json() == h.to_json()


def test_counts_and_kmax_must_be_positive(sieve_small):
    h = power(rational("1.5"))
    calls = {
        "count": [lambda: ud_test(h, Squarefree(), 0, 3, sieve_small),
                  lambda: pq_dilation_check(h, 2, 3, 0, 3),
                  lambda: floor_sequence(h, Squarefree(), 0, sieve_small),
                  lambda: total_ergodicity_test(Squarefree(), SQRT2, 0, sieve_small)],
        "k_max": [lambda: ud_test(h, Squarefree(), 10, 0, sieve_small),
                  lambda: pq_dilation_check(h, 2, 3, 10, 0)],
    }
    for name, makers in calls.items():
        for call in makers:
            with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
                call()


@pytest.mark.parametrize("c", ["3/2", "7/3", "1/2", "5/4", "1/40"])
def test_rational_power_floors_match_int_root(c):
    u, v = Fraction(c).numerator, Fraction(c).denominator
    cut = _int_root(2**62 - 1, u)  # the largest m on the int64 route
    top = _int_root(2 ** (62 * v) - 1, u)  # the largest m under the 2^62 guard
    # m = k^v: m^(u/v) = k^u exactly
    perfect = np.array([k**v for k in range(1, 3000) if k**v < min(top, 2**62)])
    rng = np.random.default_rng(5)
    m = np.concatenate([
        [0, 1, 2], perfect - 1, perfect, perfect + 1,
        np.arange(cut - 3, cut + 4),
        rng.integers(0, min(4 * cut, top, 2**62), 2000),
    ]).astype(np.int64)
    got = power(rational(Fraction(c))).floor_values(m)
    want = np.array([_int_root(int(x) ** u, v) for x in m], dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", ["power:3/2", "power:7/3", "power:sqrt2", "tlogt",
                                  "poly:0,1,sqrt2"])
def test_floor_values_reject_negative_n(spec):
    h = parse_hardy(spec)
    with pytest.raises(ValueError, match="n >= 0, got n = -8$"):
        h.floor_values(np.array([5, 0, -8, 3, -2], dtype=np.int64))


# -- blocked evaluation -------------------------------------------------------

B = ddmath.BLOCK
HARDY_SPECS = ("power:1.5", "power:sqrt2", "poly:0,1,sqrt2", "logpow:2.5", "tlogt",
               "toverlogt", "loggamma")


def _phase_maps(h, n):
    return h.fractional_parts(n), h.dilated_difference_parts(2, 3, n), h.floor_values(n)


@pytest.mark.parametrize("spec", HARDY_SPECS)
def test_blocked_phase_maps_match_whole_array(spec, monkeypatch):
    h = parse_hardy(spec)
    rng = np.random.default_rng(11)
    for size in (0, 1, B - 1, B, B + 1, 3 * B + 7):
        n = rng.integers(1, 2_000_000, size)
        n[::997] = 1  # the germ convention's n = 1 entries
        blocked = _phase_maps(h, n)
        with monkeypatch.context() as m:
            m.setattr(ddmath, "BLOCK", 2**62)  # one block: the whole-array pipeline
            whole = _phase_maps(h, n)
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype and got.shape == (size,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (spec, size)


def test_blocked_guards_match_whole_array(monkeypatch):
    n = np.arange(1, 3 * B + 8, dtype=np.int64)
    past_budget = n.copy()
    past_budget[B + 5] = 2**41  # n^2 = 2^82
    past_guard = n.copy()
    past_guard[10], past_guard[2 * B + 3] = 2**45, 2**46  # h >= 2^62 in two blocks
    past_argument = n.copy()
    past_argument[2 * B + 3] = 2**52  # 3n = 3 * 2^52 in the last block
    poly = [rational(0), rational(1), SQRT2]
    cases = [
        (lambda: polynomial_frac(poly, past_budget), "n\\^2 exceeds .* at n=2199023255552"),
        (lambda: power(SQRT2).floor_values(past_guard), "h\\(70368744177664\\)"),
        (lambda: polynomial(poly).floor_values(past_guard), "h\\(70368744177664\\)"),
        (lambda: t_log_t().dilated_difference_parts(2, 3, past_argument),
         "n = 13510798882111488 exceeds the argument budget"),
    ]
    for call, match in cases:
        with pytest.raises(ValueError, match=match) as blocked:
            call()
        with monkeypatch.context() as m:
            m.setattr(ddmath, "BLOCK", 2**62)
            with pytest.raises(ValueError) as whole:
                call()
        assert type(whole.value) is type(blocked.value)
        assert str(whole.value) == str(blocked.value)


# -- one pass per discrepancy report ------------------------------------------

U = 2.0**-53
E1 = 1.125 * math.sqrt(2) * U  # e_of's error per term (orthogonality docstring)


def _power_bound(k):
    """The power route's error per term (equidist docstring)."""
    return k * (E1 + math.sqrt(5) * U) * (1 + 4 * U) ** k


def _sum_bound(n):
    """|error| of a normalized sum of n terms of modulus <= 1 + 1e-15, plus
    the rounding of the division by n.  Each component is added by a tree of
    depth d < 40 + log2(n): at most 26 levels in a 128-entry leaf of numpy's
    pairwise sum, one more per halving, 3 for a chunk's four blocks and one
    per level of checkpoint_sums' chunk tree."""
    d = 40 + math.ceil(math.log2(n))
    return math.sqrt(2) * d * U / (1 - d * U) * (1 + 1e-15) + 4 * U


def _old_star_discrepancy(v):
    pts = np.sort(v, kind="stable")
    n = pts.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max((i / n - pts).max(), (pts - (i - 1) / n).max()))


def test_dstar_is_the_whole_array_formula_bit_for_bit():
    rng = np.random.default_rng(14)
    for size in (1, 2, 7, B - 1, B, B + 1, 3 * B + 7):
        uniform = rng.random(size)
        ties = rng.integers(0, 50, size) / 50  # many equal values
        signed_zeros = np.where(rng.random(size) < 0.3, -0.0, ties)
        signed_zeros[::5] = 0.0
        clustered = np.sort(rng.random(size))[::-1] ** 9  # dense near 0, reversed
        for v in (uniform, ties, signed_zeros, clustered, np.zeros(size)):
            got = star_discrepancy(Mod1Sequence(v))
            assert got.hex() == _old_star_discrepancy(v).hex(), size


def test_mod1_sequence_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Mod1Sequence(np.array([0.5, bad, 0.25]))
    with pytest.raises(ValueError, match="finite"):
        Mod1Sequence(np.array([np.nan]))
    assert len(Mod1Sequence(np.array([-0.0, 0.5]))) == 2


def test_power_route_terms_meet_the_stated_bound():
    # one point per block: the block's sum is the power itself
    rng = np.random.default_rng(3)
    xs = np.concatenate([[0.0, 0.5, 0.25, 0.75, 2.0**-40, 1 - 2.0**-53, 1 / 3],
                         rng.random(13)])
    k_max = 200
    with mpmath.workdps(40):
        for x in xs.tolist():
            powers = equidist._power_sums(np.array([x]), k_max)
            for k in range(1, k_max + 1):
                exact = mpmath.mpc(mpmath.cospi(2 * k * mpmath.mpf(x)),
                                   mpmath.sinpi(2 * k * mpmath.mpf(x)))
                err = float(abs(mpmath.mpc(powers[k - 1]) - exact))
                assert err <= _power_bound(k), (x, k, err)


def test_weyl_rows_match_weyl_sum_and_mpmath():
    rng = np.random.default_rng(77)
    for n in (1, 5, 1000, B + 3, 3 * 2**16 + 123):
        seq = Mod1Sequence(rng.random(n))
        k_max = 12
        rows = weyl_sums(seq, k_max)
        assert len(rows) == k_max and all(type(w) is complex for w in rows)
        for k, w in enumerate(rows, start=1):
            single = 2 * math.pi * k * U + E1  # weyl_sum's error per term
            tol = _power_bound(k) + single + 2 * _sum_bound(n)
            assert abs(w - weyl_sum(seq, k)) <= tol, (n, k)
    seq = Mod1Sequence(rng.random(200))
    rows = weyl_sums(seq, 40)
    with mpmath.workdps(40):
        xs = [mpmath.mpf(x) for x in seq.values.tolist()]
        for k, w in enumerate(rows, start=1):
            exact = mpmath.fsum(mpmath.mpc(mpmath.cospi(2 * k * x), mpmath.sinpi(2 * k * x))
                                for x in xs) / len(xs)
            err = float(abs(mpmath.mpc(w) - exact))
            assert err <= _power_bound(k) + _sum_bound(len(xs)), (k, err)


def test_weyl_sums_validate_like_weyl_sum():
    with pytest.raises(ValueError, match="empty"):
        weyl_sums(Mod1Sequence(np.array([])), 3)
    with pytest.raises(ValueError, match="k_max must be >= 1, got 0"):
        weyl_sums(Mod1Sequence(np.array([0.5])), 0)


def test_discrepancy_reports_do_not_depend_on_the_thread_count(sieve_big):
    # with threads=2, checkpoint_sums sums the chunks in a pool
    def reports(threads):
        h = power(rational("1.5"))
        return [ud_test(h, Squarefree(), 3 * 2**16 + 5, 5, sieve_big, threads=threads),
                ud_test(log_gamma(), OmegaMod(2, 0), 2**16 + 1, 3, sieve_big,
                        threads=threads),
                pq_dilation_check(t_log_t(), 2, 3, 3 * 2**16 + 5, 5, threads=threads)]

    one, two = reports(1), reports(2)
    for a, b in zip(one, two):
        for render in (render_csv, render_json):
            assert render(a, {"case": "threads"}) == render(b, {"case": "threads"})


def test_discrepancy_peaks_do_not_grow_with_the_array_or_k_max():
    n = 2**20
    seq = Mod1Sequence(np.random.default_rng(8).random(n))
    # the sorted copy is 8 MiB; measured 8.38 MiB, against 32 MiB when
    # the terms were taken over whole-array temporaries
    assert _traced_peak(lambda: star_discrepancy(seq)) <= 8 * n + 4 * 8 * B
    # measured 1.13 MiB at k_max = 5 and 1.15 MiB at 64; a (k_max, chunk)
    # array of powers would add 64 MiB
    at5 = _traced_peak(lambda: weyl_sums(seq, 5))
    assert _traced_peak(lambda: weyl_sums(seq, 64)) <= at5 + (64 << 10)
    rep5 = _traced_peak(lambda: equidist._discrepancy_report(seq, 5))
    assert _traced_peak(lambda: equidist._discrepancy_report(seq, 64)) <= rep5 + (64 << 10)
