"""Correlation closed forms, decay over level sets, Turan-Kubilius variance."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import libmp

from katailab import ddmath
from katailab import functions as fns
from katailab.constants import GOLDEN, PI, SQRT2, BudgetError, Constant, rational
from katailab.levelsets import Abundant, GenericLevel, OmegaMod, Squarefree
from katailab.orthogonality import (
    ConstantSequence,
    LinearExponential,
    PolynomialExponential,
    TableSequence,
    _correlation_terms,
    _e_block,
    _e_table,
    _e_turns,
    e_of,
    katai_correlation,
    monomials_dd,
    orthogonality_sum,
    polynomial_frac,
    turan_kubilius_variance,
)
from katailab.reports import render_csv, render_json
from katailab.summation import CHUNK, checkpoint_sums

mpmath.mp.dps = 40


def geometric_modulus(theta_mp, x):
    """Oracle: |sum_{n<=x} e(n theta)| / x at 40 digits."""
    num = abs(mpmath.sin(mpmath.pi * x * theta_mp))
    den = x * abs(mpmath.sin(mpmath.pi * theta_mp))
    return float(num / den)


def test_constant_sequence_correlation_is_one():
    rep = katai_correlation(ConstantSequence(1.0), 3, 5, 1000, [10, 1000])
    assert all(c == 1.0 for c in rep.correlations)


def test_rational_theta_half_makes_correlation_one():
    # e((p-q) n / 2) = e(-n) = 1 for (p,q) = (3,5): hypothesis fails at rational theta
    rep = katai_correlation(LinearExponential(rational(Fraction(1, 2))), 3, 5, 10_000)
    assert abs(rep.correlations[-1] - 1.0) < 1e-15


def test_correlation_closed_form_sqrt2():
    rep = katai_correlation(LinearExponential(SQRT2), 2, 3, 10_000, [100, 1000, 10_000])
    for x, c, ref in zip(rep.checkpoints, rep.correlations, rep.references):
        oracle = geometric_modulus(-mpmath.sqrt(2), x)  # beta = (2-3) sqrt2
        assert abs(abs(c) - oracle) < 1e-9
        assert abs(ref - oracle) < 1e-9
    assert abs(rep.correlations[-1]) < 1e-3
    # a numpy grid is the same grid; an empty one is [x]
    arr = katai_correlation(LinearExponential(SQRT2), 2, 3, 10_000, np.array([10_000, 100, 1000]))
    assert (arr.checkpoints, arr.correlations) == (rep.checkpoints, rep.correlations)
    last = katai_correlation(LinearExponential(SQRT2), 2, 3, 10_000, [10_000])
    for empty in ([], np.array([], dtype=np.int64)):
        got = katai_correlation(LinearExponential(SQRT2), 2, 3, 10_000, empty)
        assert (got.checkpoints, got.correlations) == ([10_000], last.correlations)


def test_correlation_closed_form_many_pairs():
    for theta, theta_mp in ((SQRT2, mpmath.sqrt(2)), (GOLDEN, (1 + mpmath.sqrt(5)) / 2)):
        seq = LinearExponential(theta)
        for p, q in ((2, 3), (3, 7), (13, 11), (47, 2)):
            rep = katai_correlation(seq, p, q, 100_000)
            oracle = geometric_modulus((p - q) * theta_mp, 100_000)
            assert abs(abs(rep.correlations[-1]) - oracle) < 1e-9, (p, q)


def test_correlation_rejects_equal_primes():
    with pytest.raises(ValueError, match="distinct"):
        katai_correlation(LinearExponential(SQRT2), 5, 5, 100)


def test_correlation_phase_budget():
    with pytest.raises(BudgetError, match="phase budget"):
        katai_correlation(LinearExponential(SQRT2), 2, 10_000_019, 2**40, [2**40])


def test_orthogonality_empty_set(sieve_small):
    empty = GenericLevel(fns.constant_one(), 2.0)  # unattainable target
    prof = orthogonality_sum(empty, LinearExponential(SQRT2), 10_000,
                             [100, 1000, 10_000], sieve_small)
    assert prof.values == [0.0, 0.0, 0.0]
    assert prof.slope == 0.0  # defined finite on the empty profile


def test_orthogonality_full_set_matches_geometric(sieve_big):
    full = GenericLevel(fns.constant_one(), 1)
    grid = [10**4, 31623, 10**5, 316228, 10**6, 3162278, 10**7]
    prof = orthogonality_sum(full, LinearExponential(SQRT2), 10**7, grid, sieve_big)
    for x, v in zip(prof.checkpoints, prof.values):
        assert abs(v - geometric_modulus(mpmath.sqrt(2), x)) < 1e-9
    # |geometric sum|/x decays like 1/x; the half-decade grid averages the
    # sine oscillation enough to pin the exponent
    assert -1.1 < prof.slope < -0.9


def test_orthogonality_squarefree_decay(sieve_big):
    # golden values from the independent longdouble/mpmath oracle run:
    # 0.00385486 at 1e4 and 2.57743e-05 at 1e7
    prof = orthogonality_sum(Squarefree(), LinearExponential(SQRT2), 10**7,
                             [10**4, 10**5, 10**6, 10**7], sieve_big)
    assert abs(prof.values[0] - 0.00385486) < 1e-8
    assert abs(prof.values[-1] - 2.57743e-05) < 1e-9
    assert prof.values[-1] < 0.005
    assert prof.values[-1] < prof.values[0] / 3
    assert prof.slope <= -0.3


def test_negative_control_no_decay(sieve_big):
    # theta = 1/2 over squarefree: parity bias keeps the sum near 2/pi^2
    prof = orthogonality_sum(Squarefree(), LinearExponential(rational(Fraction(1, 2))),
                             10**6, [10**4, 10**5, 10**6], sieve_big)
    assert prof.values[-1] > 0.1
    assert abs(prof.values[-1] - 0.202646) < 1e-6  # oracle golden value


def test_hypothesis_conclusion_linkage(sieve_big):
    # correlations small at desk scale => decay profile slope clearly negative
    theta = SQRT2
    seq = LinearExponential(theta)
    for p, q in ((2, 3), (2, 5), (3, 5), (5, 7), (11, 13), (17, 19)):
        rep = katai_correlation(seq, p, q, 10**6)
        assert abs(rep.correlations[-1]) < 0.01, (p, q)
    grid = [10**4, 31623, 10**5, 316228, 10**6, 3162278, 10**7]
    for spec in (Squarefree(), OmegaMod(2, 0), Abundant()):
        prof = orthogonality_sum(spec, seq, 10**7, grid, sieve_big)
        assert prof.slope <= -0.3, spec.name


def test_polynomial_sequence_phases_match_mpmath():
    seq = PolynomialExponential([rational(0), rational(1, ), SQRT2])  # n + sqrt2 n^2
    n = np.array([1, 2, 3, 1000, 99_991], dtype=np.int64)
    got = polynomial_frac(seq.coefficients, n)
    s2 = mpmath.sqrt(2)
    for i, nn in enumerate(n):
        want = mpmath.frac(int(nn) + s2 * int(nn) ** 2)
        err = abs(mpmath.mpf(float(got[i])) - want)
        assert min(err, 1 - err) < 1e-12


def test_polynomial_budget_guard():
    seq = PolynomialExponential([rational(0), SQRT2])
    big = np.array([2**41], dtype=np.int64)
    with pytest.raises(BudgetError, match="budget"):
        polynomial_frac([rational(0)] * 3 + [SQRT2], big)  # n^3 at n=2^41
    # linear monomial at 2^39 stays inside the budget
    seq.eval_array(np.array([2**39], dtype=np.int64))


def test_table_sequence_and_json_roundtrip():
    tab = TableSequence([1, -1, 1, -1])
    assert np.allclose(tab.eval_array(np.array([1, 2, 3])), [1, -1, 1])


def test_correlation_modulus_bounded_by_one():
    # unit-bounded sequences keep |correlation| <= 1 at every checkpoint
    for seq in (LinearExponential(SQRT2), LinearExponential(rational(Fraction(1, 2))),
                ConstantSequence(1.0)):
        rep = katai_correlation(seq, 2, 7, 5000, [10, 100, 5000])
        assert all(abs(c) <= 1.0 + 1e-12 for c in rep.correlations)


def test_turan_kubilius_exact_examples(sieve_small):
    rep = turan_kubilius_variance([2], 100, sieve_small)
    assert rep.m == Fraction(1, 2)
    assert rep.variance == 25
    rep = turan_kubilius_variance([2, 3], 6, sieve_small)
    assert rep.m == Fraction(5, 6)
    assert rep.variance == Fraction(17, 6)


def test_turan_kubilius_brute_force_crosscheck(sieve_small):
    # oracle: direct expansion of sum (w(n) - m)^2 in exact arithmetic
    P = [2, 3, 5, 7]
    x = 500
    m = sum(Fraction(1, p) for p in P)
    direct = sum((sum(1 for p in P if n % p == 0) - m) ** 2 for n in range(1, x + 1))
    rep = turan_kubilius_variance(P, x, sieve_small)
    assert rep.variance == direct


def test_turan_kubilius_ratio_budget(sieve_big):
    P = [int(p) for p in sieve_big.primes(100)]
    assert len(P) == 25
    for x in (10**4, 10**5, 10**6):
        rep = turan_kubilius_variance(P, x, sieve_big)
        assert rep.ratio <= 2.0, (x, rep.ratio)


def test_turan_kubilius_validation(sieve_small):
    with pytest.raises(ValueError, match="nonempty"):
        turan_kubilius_variance([], 100, sieve_small)
    with pytest.raises(ValueError, match="exceeds x"):
        turan_kubilius_variance([101], 100, sieve_small)
    for bad, name in (([4], 4), ([0, 2], 0)):
        with pytest.raises(ValueError, match=f"^{name} is not prime$"):
            turan_kubilius_variance(bad, 100, sieve_small)


# -- the table-driven e(x) -----------------------------------------------------

# Per component, |e_of(x) - e(x)| <= u + u/8 with u = 2^-53: half an ulp from
# the final rounding, half an ulp from the table entry, under u/8 from the
# rest (the derivation is in orthogonality._e_block).
E_OF_BOUND = 2.0**-53 + 2.0**-56


def _e_of_errors(x):
    """Max |re - cos 2 pi x| and |im - sin 2 pi x| at 40 digits (136 bits)."""
    z = e_of(x)
    prec, rnd, mpf = 136, libmp.round_nearest, libmp.from_float
    worst = 0.0
    for xi, re, im in zip(x.tolist(), z.real.tolist(), z.imag.tolist()):
        c, s = libmp.mpf_cos_sin_pi(libmp.mpf_shift(mpf(xi), 1), prec)
        worst = max(worst, abs(libmp.to_float(libmp.mpf_sub(c, mpf(re), prec, rnd))),
                    abs(libmp.to_float(libmp.mpf_sub(s, mpf(im), prec, rnd))))
    return worst


def test_e_of_error_bound_on_seeded_phases():
    x = np.random.default_rng(2017).random(100_000)
    assert _e_of_errors(x) <= E_OF_BOUND


def test_e_of_error_bound_at_edge_points():
    j = np.arange(-256, 512, dtype=np.float64)
    grid = np.concatenate([j / 256, (j + 0.5) / 256])  # r = 0 and rint's tie points
    tiny = np.array([1 - 2.0**-53, 2.0**-53, -(2.0**-53), 5e-324, -0.0, 0.5 - 2.0**-54])
    far = np.array([-0.3, -1.75, 5.375, 1e6 + 0.1, 2.0**40 + 0.25, 2.0**52 + 0.5, 2.0**60,
                    -(2.0**57) - 2.0**5, 1e300])
    for x in (grid, tiny, far, -grid, grid + 1e-9):
        assert _e_of_errors(x) <= E_OF_BOUND


def test_e_of_quarter_points_are_exact():
    assert e_of(np.array([0.0, 0.25, 0.5, 0.75])).tolist() == [1, 1j, -1, -1j]
    assert e_of(np.array([-3.0, 7.25, -0.5, -0.25])).tolist() == [1, 1j, -1, -1j]
    cos_t, sin_t = _e_table()
    assert (cos_t.size, sin_t.size) == (256, 256)
    assert not cos_t.flags.writeable and not sin_t.flags.writeable
    with mpmath.workdps(60):
        for j in range(256):
            assert cos_t[j] == float(mpmath.cospi(mpmath.mpf(j) / 128)), j
            assert sin_t[j] == float(mpmath.sinpi(mpmath.mpf(j) / 128)), j


def test_e_of_reduces_integer_shifts_exactly():
    x = np.random.default_rng(7).random(3 * 2**14 + 5)
    for k in (1, 2, 3, 7, 10, 1000):
        got = e_of(k * x)
        assert np.array_equal(got.view(np.int64), e_of((k * x) % 1.0).view(np.int64)), k
    # and the kernel is odd in x: e(-x) is the conjugate, bit for bit
    assert np.array_equal(e_of(-x).view(np.int64), np.conj(e_of(x)).view(np.int64))


def test_e_of_keeps_shapes():
    assert e_of(0.25) == 1j and e_of(np.array(0.25)).shape == ()
    assert e_of(np.zeros((3, 4))).shape == (3, 4)
    assert e_of(np.array([])).shape == (0,)
    grid = np.arange(12, dtype=np.float64).reshape(3, 4) / 8
    assert np.array_equal(e_of(grid), e_of(grid.ravel()).reshape(3, 4))


# -- one e(x) per correlation term ---------------------------------------------

U = 2.0**-53
# 2 pi (2 eps + u/2) + (9/8) sqrt2 u (orthogonality module docstring), with
# eps <= u + 2^-60 for a linear phase and 3u + 2^-60 for a quadratic one
LINEAR_TERM_BOUND = 2 * math.pi * (2.5 * U + 2.0**-59) + 1.125 * math.sqrt(2) * U
QUADRATIC_TERM_BOUND = 2 * math.pi * (6.5 * U + 2.0**-59) + 1.125 * math.sqrt(2) * U


def _term_error(seq, phi, p, q, n):
    """Max |term - e(phi(pn) - phi(qn))| over n, phi exact at 60 digits."""
    worst = 0.0
    with mpmath.workdps(60):
        for m, z in zip(n.tolist(), _correlation_terms(seq, p, q, n).tolist()):
            d = 2 * (phi(p * m) - phi(q * m))
            worst = max(worst, float(abs(mpmath.mpc(z)
                                         - mpmath.mpc(mpmath.cospi(d), mpmath.sinpi(d)))))
    return worst


def _seeded_n(rng, top, near):
    # half near the top of the budget, half anywhere below it
    return np.concatenate([rng.integers(top - near, top, 500, endpoint=True),
                           rng.integers(1, top, 500, endpoint=True)])


def test_linear_phase_route_meets_bound_up_to_budget():
    rng = np.random.default_rng(2013)
    for theta in (SQRT2, GOLDEN, PI):
        t = theta.mp(60)
        for p, q in ((2, 3), (13, 7), (47, 2)):
            n = _seeded_n(rng, 2**40 // max(p, q), 2**20)  # 3,000 n per theta
            err = _term_error(LinearExponential(theta), lambda m: m * t, p, q, n)
            assert err <= LINEAR_TERM_BOUND, (theta, p, q, err)


def test_quadratic_phase_route_meets_bound_up_to_budget():
    rng = np.random.default_rng(1986)
    seq = PolynomialExponential([rational(0), GOLDEN, SQRT2])
    with mpmath.workdps(60):
        c1, c2 = GOLDEN.mp(60), SQRT2.mp(60)
    for p, q in ((2, 3), (13, 7), (5, 11)):
        n = _seeded_n(rng, 2**20 // max(p, q), 2**10)  # (pn)^2 <= 2^40
        err = _term_error(seq, lambda m: c1 * m + c2 * m * m, p, q, n)
        assert err <= QUADRATIC_TERM_BOUND, (p, q, err)


# The turn route (orthogonality module docstring): 2 pi (2 tau + 2) 2^-64 +
# (9/8) sqrt2 u, with tau < 3.001 units for a linear phase below 2^53 and
# tau = (3u + 2^-60) 2^64 + 1 for a quadratic one
TURN = 2.0**-64
LINEAR_TURN_BOUND = 2 * math.pi * 8.002 * TURN + 1.125 * math.sqrt(2) * U
QUADRATIC_TURN_BOUND = (2 * math.pi * (2 * ((3 * U + 2.0**-60) / TURN + 1) + 2) * TURN
                        + 1.125 * math.sqrt(2) * U)


def test_turn_bounds_are_the_documented_ones():
    assert LINEAR_TURN_BOUND < 1.62 * U < 1.8e-16
    assert QUADRATIC_TURN_BOUND < 39.5 * U < 4.4e-15


def test_linear_turn_terms_meet_the_tighter_bound():
    rng = np.random.default_rng(2027)
    for theta in (SQRT2, GOLDEN, PI, Constant("e"), Constant("log", 3)):
        t = theta.mp(60)
        for p, q in ((2, 3), (13, 7), (47, 2)):
            n = _seeded_n(rng, 2**40 // max(p, q), 2**20)
            err = _term_error(LinearExponential(theta), lambda m: m * t, p, q, n)
            assert err <= LINEAR_TURN_BOUND, (theta, p, q, err)
    # the bound rests on tau, not on the phase row: pn up to 2^53 as well
    t = SQRT2.mp(60)
    n = _seeded_n(rng, 2**53 // 7, 2**30)
    assert _term_error(LinearExponential(SQRT2), lambda m: m * t, 7, 5, n) <= LINEAR_TURN_BOUND


def test_quadratic_turn_terms_meet_the_tighter_bound():
    rng = np.random.default_rng(2028)
    seq = PolynomialExponential([rational(0), GOLDEN, SQRT2])
    with mpmath.workdps(60):
        c1, c2 = GOLDEN.mp(60), SQRT2.mp(60)
    for p, q in ((2, 3), (13, 7), (5, 11)):
        n = _seeded_n(rng, 2**20 // max(p, q), 2**10)  # (pn)^2 <= 2^40
        err = _term_error(seq, lambda m: c1 * m + c2 * m * m, p, q, n)
        assert err <= QUADRATIC_TURN_BOUND, (p, q, err)


def test_turn_front_end_is_e_block_bit_for_bit():
    rng = np.random.default_rng(64)
    x = np.concatenate([rng.uniform(2.0**-11, 1.0, 200_000),
                        np.arange(1, 256) / 256,  # r = 0
                        2.0**-11 * (1 + rng.random(1000)),
                        1 - 2.0**-53 * rng.integers(1, 2**20, 1000),
                        np.nextafter(np.arange(1, 512, 2) / 512, 0.0),
                        np.nextafter(np.arange(1, 512, 2) / 512, 1.0)])
    x = x[(x * 512) % 2 != 1]  # rint rounds the ties to even, the front-end up
    turns = (x * 2.0**64).astype(np.uint64)
    assert np.array_equal(turns.astype(np.float64) * TURN, x)  # x 2^64 is exact
    assert np.array_equal(_e_turns(turns).view(np.int64), _e_block(x).view(np.int64))
    assert np.array_equal(_e_turns(np.array([0, 2**62, 2**63, 3 * 2**62], dtype=np.uint64)),
                          [1, 1j, -1, -1j])


def test_polynomial_correlation_past_the_argument_budget():
    # polynomial_frac reads n as a float64, so p*n must stay below 2^53
    seq = PolynomialExponential([rational(0), SQRT2])
    with pytest.raises(BudgetError, match="n\\*max\\(p,q\\) = 1125899906842625000 exceeds "
                                          "the argument budget 2\\^53"):
        katai_correlation(seq, 2, 2**50 + 1, 1000)
    katai_correlation(seq, 2, 2**50 + 1, 7)  # 7 (2^50 + 1) < 2^53


def test_phase_route_sums_match_the_geometric_sum():
    # sum_{n<=c} e(n beta) = e(beta) (e(c beta) - 1) / (e(beta) - 1) for
    # beta = (p - q) theta, at 60 digits.  Besides the terms' own bound, the
    # float sums add at most 31 roundings per component: numpy's np.sum over
    # a ddmath.BLOCK slice (8 accumulators of 16 terms, then 3 + 7 pairwise
    # levels) and the few slice, chunk and checkpoint additions after it.
    seq, p, q = LinearExponential(GOLDEN), 5, 3
    x = 2 * CHUNK + 3 * ddmath.BLOCK + 11
    checkpoints = [100, CHUNK + 7, x]
    got = [katai_correlation(seq, p, q, x, checkpoints, threads=t).correlations for t in (1, 2)]
    assert np.array(got[0]).view(np.int64).tolist() == np.array(got[1]).view(np.int64).tolist()
    with mpmath.workdps(60):
        beta = (p - q) * GOLDEN.mp(60)
        eb = mpmath.expjpi(2 * beta)
        for c, corr in zip(checkpoints, got[0]):
            want = eb * (mpmath.expjpi(2 * c * beta) - 1) / (eb - 1) / c
            err = abs(mpmath.mpc(corr) - want)
            assert err <= LINEAR_TURN_BOUND + 31 * math.sqrt(2) * U, (c, float(err))


def test_product_route_bits_unchanged():
    # sequences without phases keep the whole-chunk product, bit for bit
    rng = np.random.default_rng(23)
    x = 3 * CHUNK + 123
    table = TableSequence(np.exp(2j * np.pi * rng.random(7 * x)) * rng.random(7 * x))
    checkpoints = [1000, CHUNK + 5, x]
    for seq in (table, ConstantSequence(0.3 + 0.4j)):
        def whole_chunk(lo, hi, seq=seq):
            n = np.arange(lo, hi, dtype=np.int64)
            return np.multiply(seq.eval_array(7 * n), np.conj(seq.eval_array(2 * n)))

        want = [s / c for s, c in zip(checkpoint_sums(whole_chunk, checkpoints), checkpoints)]
        got = katai_correlation(seq, 7, 2, x, checkpoints).correlations
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_correlation_report_bytes_match_across_threads():
    table = TableSequence(np.exp(2j * np.pi * np.random.default_rng(3).random(15 * CHUNK)))
    for seq in (LinearExponential(GOLDEN), PolynomialExponential([rational(0), SQRT2]),
                table):
        reps = [katai_correlation(seq, 3, 2, 5 * CHUNK, [100, 2 * CHUNK + 7, 5 * CHUNK],
                                  threads=t) for t in (1, 2)]
        for render in (render_csv, render_json):
            assert render(reps[0], {"p": 3, "q": 2}) == render(reps[1], {"p": 3, "q": 2})


def test_correlation_peak_leaves_out_chunk_temporaries():
    seq = LinearExponential(SQRT2)
    katai_correlation(seq, 2, 7, 1000)  # build the e(x) table and theta's dd first
    tracemalloc.start()
    try:
        katai_correlation(seq, 2, 7, 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's int64 n and complex terms take 1.5 MB; one block's
    # temporaries get 2.5 MB.  Measured 3.1 MB, against 5.1 MB when each
    # chunk made two e(x) arrays, a conjugate and their product.
    assert peak <= 4 << 20, peak


def _polynomial_frac_formula(coefficients, n):
    """polynomial_frac with every dd step a fresh whole-array temporary."""
    coeff_dd = [c if isinstance(c, tuple) else c.dd for c in coefficients]
    npow = ddmath.from_float(np.ones(n.shape))
    mf = ddmath.from_float(n.astype(np.float64))
    total = np.zeros(n.shape)
    for c in coeff_dd[1:]:
        npow = ddmath.mul(npow, mf)
        total += ddmath.frac(ddmath.mul(npow, c))
    total += (coeff_dd[0][0] + coeff_dd[0][1]) % 1.0
    total -= np.floor(total)
    return np.where(total >= 1.0, total - 1.0, total)


def test_polynomial_frac_in_place_is_the_formula_bit_for_bit():
    rng = np.random.default_rng(1729)
    polys = [[rational(0), SQRT2], [GOLDEN, SQRT2, PI, rational("1/3")],
             [rational("-2.5"), Constant("e"), rational(0), SQRT2],
             [rational(0), rational(0), rational(0), rational(0), GOLDEN],
             [(0.25, 0.0), ddmath.mul_f(SQRT2.dd, -5.0), ddmath.mul_f(GOLDEN.dd, 19.0)]]
    for coeffs in polys:
        top = min(int(2 ** (79 / (len(coeffs) - 1))), 2**62)
        n = np.concatenate([rng.integers(-top, top, 4000), rng.integers(1, 5000, 2000),
                            rng.integers(top - 2**20, top, 2000), np.arange(-50, 50)])
        got = polynomial_frac(coeffs, n)
        want = _polynomial_frac_formula(coeffs, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_polynomial_correlation_peak_writes_dd_steps_in_place():
    seq = PolynomialExponential([rational(0), GOLDEN, SQRT2])
    katai_correlation(seq, 2, 7, 1000)
    tracemalloc.start()
    try:
        katai_correlation(seq, 2, 7, 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 4.33 MB, against 4.46 MB when every dd step of the monomials
    # and their fractional parts made a fresh temporary
    assert peak < 4_460_000, peak


def test_monomials_are_fresh_pairs():
    coeffs = [SQRT2.dd, (-0.3, 1e-17), GOLDEN.dd, PI.dd]
    m = np.arange(-40, 2000, dtype=np.int64)
    got = list(monomials_dd(coeffs, m))
    npow = ddmath.from_float(np.ones(m.shape))
    mf = ddmath.from_float(m.astype(np.float64))
    for c, term in zip(coeffs, got, strict=True):
        npow = ddmath.mul(npow, mf)
        for g, w in zip(term, ddmath.mul(npow, c)):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_correlation_rejects_nonpositive_p_or_q():
    for p, q in ((-10**13, 3), (0, 3), (2, -1)):
        with pytest.raises(ValueError, match=">= 1"):
            katai_correlation(LinearExponential(SQRT2), p, q, 10**6)


def test_correlation_rejects_int64_overflow():
    # without the 2^40 phase budget, p*n must still fit in int64
    for seq, p, q, x in ((ConstantSequence(1.0), 2, 3, 2**62),
                         (PolynomialExponential([rational(0), SQRT2]), 5, 3, 2**61),
                         (TableSequence([1.0]), 2**62, 3, 2)):
        with pytest.raises(BudgetError, match="int64"):
            katai_correlation(seq, p, q, x)


def test_correlation_budget_counts_checkpoints_past_x():
    # the sum runs to the last checkpoint, so the budgets apply there too
    with pytest.raises(BudgetError, match="phase budget"):
        katai_correlation(LinearExponential(SQRT2), 2, 3, 1000, [10, 2**39])
    with pytest.raises(BudgetError, match="int64"):
        katai_correlation(ConstantSequence(1.0), 2, 3, 1000, [10, 2**62])


def test_orthogonality_sum_rejects_checkpoints_past_x(sieve_small):
    # past x the member table runs out and the term cannot broadcast
    with pytest.raises(ValueError, match="<= x = 10000, got 20000"):
        orthogonality_sum(Squarefree(), LinearExponential(SQRT2), 10_000,
                          [100, 20_000], sieve_small)
