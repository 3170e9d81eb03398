"""Empirical means vs Euler products, seminorms, criterion series, CDFs."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np

from katailab import functions as fns
from katailab.constants import Constant, rational
from katailab.meanvalues import (
    empirical_cdf,
    empirical_mean,
    euler_product_mean,
    halasz_series,
    mean_with_product,
    seminorm_l1,
    three_series,
)
import pytest

from katailab.meanvalues import LocalFactorError
from katailab.orthogonality import turan_kubilius_variance
from katailab.sieve import FactorSieve

mpmath.mp.dps = 30

GRID = [10**4, 10**5, 10**6, 10**7]
ZETA2_INV = float(6 / mpmath.pi**2)  # 0.6079271018...


def primes_upto(y):
    return [p for p in range(2, y + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def test_mean_of_one_is_exact(sieve_small):
    rep = empirical_mean(fns.constant_one(), 10_000, [10, 100, 10_000], sieve_small)
    assert all(m == 1.0 for m in rep.means)


def test_mean_phi_ratio_closed_form(sieve_big):
    rep = empirical_mean(fns.euler_phi_ratio(), 10**7, GRID, sieve_big)
    assert abs(rep.means[-1] - ZETA2_INV) < 1e-3


def test_mean_liouville_small(sieve_big):
    rep = empirical_mean(fns.liouville(), 10**7, GRID, sieve_big)
    assert abs(rep.means[-1]) < 0.01


def test_euler_product_trivial():
    value, tail = euler_product_mean(lambda p, m: 1, 10**4)
    assert value == 1.0
    assert tail == 2.0 / 10**4


def test_euler_product_phi_rule():
    value, tail = euler_product_mean(lambda p, m: 1 - 1 / p, 10**5)
    assert abs(value - ZETA2_INV) < 1e-5
    assert tail >= 0


def test_euler_product_squarefree_rule():
    # local factor (1 - 1/p)(1 + 1/p) = 1 - p^-2
    value, _ = euler_product_mean(lambda p, m: 1 if m == 1 else 0, 10**5)
    assert abs(value - ZETA2_INV) < 1e-5


def test_euler_product_rejects_unbounded_rule():
    with pytest.raises(LocalFactorError, match="modulus"):
        euler_product_mean(lambda p, m: 5.0, 100)


def _fraction_euler_products(g, primes, cutoffs):
    """The per-prime Fraction formula the integer-ratio local factors replaced,
    kept as the reference: the running product at each cutoff, or
    LocalFactorError once some |g(p^m)| exceeds 1."""
    out, product, primes = {}, complex(1.0), primes.tolist()
    for cutoff in sorted(cutoffs):
        while primes and primes[0] <= cutoff:
            p = primes.pop(0)
            terms = []
            weight, m = 1.0 / p, 1
            while weight >= 1e-18:
                terms.append((m, g(p, m)))
                weight /= p
                m += 1
            assert all(isinstance(v, (int, Fraction)) for _, v in terms)
            if any(abs(v) > 1 for _, v in terms):
                return {c: LocalFactorError for c in cutoffs}
            inner = 1 + sum(Fraction(v, p**m) for m, v in terms)
            product *= complex(float(Fraction(p - 1, p) * inner))
        out[cutoff] = product
    return out


def test_euler_product_matches_the_fraction_formula():
    sieve = FactorSieve.build(200_000)
    cutoffs = [2, 3, 97, 20_000, 100_000]
    primes = sieve.primes(max(cutoffs))
    rules = {name: make() for name, make in fns.CATALOG.items()}
    rules["fraction_rule"] = lambda p, m: Fraction(1, m + 1) - Fraction(1, p)
    raised = set()
    for name, fn in rules.items():
        g = fn.prime_power if isinstance(fn, fns.ArithmeticFunction) else fn
        if getattr(fn, "kind", None) == "additive":
            want = {c: LocalFactorError for c in cutoffs}
        else:
            want = _fraction_euler_products(g, primes, cutoffs)
        for cutoff in cutoffs:
            if want[cutoff] is LocalFactorError:
                raised.add(name)
                with pytest.raises(LocalFactorError, match="modulus|additive"):
                    euler_product_mean(fn, cutoff, sieve)
            else:
                assert euler_product_mean(fn, cutoff, sieve)[0] == want[cutoff], (name, cutoff)
    # sigma and tau break |g| <= 1 at p = 2, and the omegas are additive
    assert raised == {"sigma", "tau", "big_omega", "small_omega"}


def test_euler_product_names_the_first_prime_power_outside_the_unit_ball():
    rule = lambda p, m: Fraction(3, 2) if (p, m) == (5, 2) else 1  # noqa: E731
    with pytest.raises(LocalFactorError, match=r"g\(5\^2\) = 3/2 has modulus 1.5 > 1"):
        euler_product_mean(rule, 100)
    with pytest.raises(LocalFactorError, match=r"g\(3\^1\)"):
        euler_product_mean(lambda p, m: 1.01 if p == 3 else 0.5, 100)
    # a unit complex value may exceed 1 by rounding; it is not rejected
    value, _ = euler_product_mean(fns.archimedean(1.0), 1000)
    assert abs(value) < 2
    with pytest.raises(LocalFactorError, match="small_omega is additive"):
        euler_product_mean(fns.small_omega(), 100)


def _per_prime_euler_product(rule, prime_cutoff, sieve):
    """The Euler product as one loop over p, then m, with a memoized
    prime_power per term: the route euler_product_mean replaced."""
    from katailab.meanvalues import _UNIT_BALL_SLACK, _outside_unit_ball

    if isinstance(rule, fns.ArithmeticFunction) and rule.kind == "additive":
        raise LocalFactorError(f"{rule.name} is additive; the mean-value Euler "
                               f"product needs a multiplicative rule")
    g = rule.prime_power if isinstance(rule, fns.ArithmeticFunction) else rule
    product = complex(1.0)
    for p in sieve.primes(prime_cutoff).tolist():
        terms = []
        weight, m = 1.0 / p, 1
        while weight >= 1e-18:
            terms.append((m, g(p, m)))
            weight /= p
            m += 1
        if all(isinstance(v, (int, Fraction)) for _, v in terms):
            den = math.lcm(*[v.denominator for _, v in terms])
            inner = 0
            for m, v in terms:
                scaled = v.numerator * (den // v.denominator)
                if abs(scaled) > den:
                    raise _outside_unit_ball(p, m, v)
                inner = inner * p + scaled
            big = den * p ** len(terms)
            local = complex((p - 1) * (big + inner) / (p * big))
        else:
            bad = next((t for t in terms if abs(t[1]) > _UNIT_BALL_SLACK), None)
            if bad is not None:
                raise _outside_unit_ball(p, *bad)
            inner = complex(1.0)
            for m, v in reversed(terms):
                inner += complex(v) / p**m
            local = (1.0 - 1.0 / p) * inner
        product *= local
    return product, 2.0 / prime_cutoff


def _outcome(call):
    try:
        value, tail = call()
    except (LocalFactorError, fns.EvaluationError) as err:
        return type(err), str(err)
    return value.real.hex(), value.imag.hex(), tail


def _euler_rules():
    xi = [Constant("sqrt", 2), Constant("golden"), rational(Fraction(1, 3))]
    rules = {name: make for name, make in fns.CATALOG.items()}
    rules.update({f"{fam.__name__}({c})": (lambda fam=fam, c=c: fam(c))
                  for fam in (fns.lambda_xi, fns.kappa_xi, fns.mu_xi) for c in xi})
    rules.update({
        "chi_5": lambda: fns.dirichlet_character(5, [1]),
        "chi_8": lambda: fns.dirichlet_character(8, [1, 1]),
        "chi_7_real": lambda: fns.dirichlet_character(7, [3]),
        "archimedean": lambda: fns.archimedean(1.0),
        "int": lambda: lambda p, m: (-1) ** (p + m) if m < 3 else 0,
        "fraction": lambda: lambda p, m: Fraction(1, m + 1) - Fraction(1, p),
        "float": lambda: lambda p, m: math.cos(p * m) / (1 + m),
        "complex": lambda: lambda p, m: complex(math.cos(p), math.sin(m)) / 1.5,
        "custom_fn": lambda: fns.ArithmeticFunction(
            "custom", lambda p, m: complex(0.5, -0.25) ** m if p % 4 == 1 else 0.75),
    })
    return rules


def test_euler_product_by_exponent_is_the_per_prime_loop_bit_for_bit():
    sieve = FactorSieve.build(5_000)
    for name, make in _euler_rules().items():
        for cutoff in (2, 3, 97, 5_000):
            want = _outcome(lambda: _per_prime_euler_product(make(), cutoff, sieve))
            assert _outcome(lambda: euler_product_mean(make(), cutoff, sieve)) == want, (
                name, cutoff)


def test_euler_product_errors_name_the_same_first_prime_power():
    nan = float("nan")
    rules = {
        # non-finite at (7, 2), outside the ball at (5, 3): 5 comes first
        "ball_first": lambda p, m: nan if (p, m) == (7, 2) else 1.5 if (p, m) == (5, 3)
        else 0.5,
        # at one prime, every value is taken before the ball check
        "value_first": lambda p, m: nan if (p, m) == (5, 3) else 1.5 if (p, m) == (5, 1)
        else 0.5,
        # two non-finite values: the smaller p wins over the smaller m
        "smaller_p": lambda p, m: nan if (p, m) in ((3, 4), (11, 1)) else 0.5,
        "same_p": lambda p, m: nan if (p, m) in ((13, 3), (13, 2), (17, 1)) else 0.5,
        "exact_ball": lambda p, m: Fraction(3, 2) if (p, m) == (5, 2) else 1,
    }
    sieve = FactorSieve.build(200)
    seen = set()
    for name, rule in rules.items():
        for wrap in (True, False):
            make = (lambda: fns.ArithmeticFunction(name, rule)) if wrap else (lambda: rule)
            want = _outcome(lambda: _per_prime_euler_product(make(), 200, sieve))
            assert _outcome(lambda: euler_product_mean(make(), 200, sieve)) == want, name
            seen.add(want[0])
    assert seen >= {LocalFactorError, fns.EvaluationError}

def test_halasz_formula_consistency(sieve_big):
    # rules with a convergent series and nonzero mean: empirical vs product
    cases = [
        fns.euler_phi_ratio(),
        fns.squarefree_indicator(),
        fns.constant_one(),
        fns.custom(lambda p, m: 1 - 2 / p, name="one_minus_two_over_p", in_unit_ball=True),
    ]
    for f in cases:
        rep = mean_with_product(f, 10**7, GRID, sieve_big, prime_cutoff=10**5)
        assert rep.final_discrepancy < 2e-3, f.name
    # the custom rule has the classical product value prod_p (1 - 2/p^2)
    target = 1.0
    for p in primes_upto(10**5):
        target *= 1 - 2 / p**2
    rep = mean_with_product(cases[-1], 10**7, GRID, sieve_big, prime_cutoff=10**5)
    assert abs(rep.product - target) < 1e-9
    assert abs(target - 0.32263) < 1e-4  # Feller-Tornier-type constant


def test_wirsing_consistency_real_catalog(sieve_big):
    # real-valued bounded catalog entries: mean settles between 10^6 and 10^7
    for f in (fns.mobius(), fns.liouville(), fns.euler_phi_ratio(),
              fns.squarefree_indicator(), fns.constant_one()):
        rep = empirical_mean(f, 10**7, [10**6, 10**7], sieve_big)
        assert abs(rep.means[-1] - rep.means[-2]) < 5e-3, f.name


def test_seminorm_liouville_exact(sieve_small):
    rep = seminorm_l1(fns.liouville(), 10_000, [100, 1000, 10_000], sieve_small)
    assert all(m == 1.0 for m in rep.means)


def test_seminorm_zero_rule(sieve_small):
    # the all-zero prime-power rule leaves only f(1) = 1: averages die as 1/N
    zero = fns.custom(lambda p, m: 0, name="zero", in_unit_ball=True)
    rep = seminorm_l1(zero, 10_000, [100, 10_000], sieve_small)
    assert rep.means == [1 / 100, 1 / 10_000]


def test_seminorm_mobius(sieve_big):
    rep = seminorm_l1(fns.mobius(), 10**7, GRID, sieve_big)
    assert abs(rep.means[-1] - 0.6079) < 1e-3


def test_seminorm_split_by_prime_series(sieve_big):
    # convergent sum (1-|f(p)|)/p: seminorm stays large
    rep = seminorm_l1(fns.euler_phi_ratio(), 10**7, GRID, sieve_big)
    assert rep.means[-1] > 0.5
    # engineered sparse multiplicative restriction: divergent series, tiny seminorm.
    # golden value 0.0222461 fixed by an oracle run (independent sieve) at 10^7.
    def sparse_rule(p, m):
        if m > 1 or p % 8 != 1:
            return 0
        return fns.root_of_unity(1, 3)

    f = fns.custom(sparse_rule, name="mu_third_on_sparse", in_unit_ball=True)
    rep = seminorm_l1(f, 10**7, GRID, sieve_big)
    assert rep.means[-1] < 0.05
    assert abs(rep.means[-1] - 0.0222461) < 1e-6


def test_halasz_series_examples(sieve_small):
    rep = halasz_series(fns.constant_one(), 0.0, 10_000, [100, 1000, 10_000], sieve_small)
    assert all(abs(s) < 1e-12 for s in rep.partial_sums)

    rep = halasz_series(fns.liouville(), 0.0, 100, [100], sieve_small)
    oracle = sum(2.0 / p for p in primes_upto(100))
    assert abs(rep.partial_sums[-1] - oracle) < 1e-12
    assert abs(oracle - 3.6057) < 2e-3

    arch = fns.archimedean(1.0)
    rep = halasz_series(arch, -1.0, 10_000, [100, 1000, 10_000], sieve_small)
    assert all(abs(s) < 1e-9 for s in rep.partial_sums)


def test_torus_criterion_via_powers(sieve_small):
    # the torus uniform-distribution criterion runs the same series over the
    # k-th powers of the unit-modulus function; for e(Omega(n)/3) each power
    # is again a catalog entry
    from fractions import Fraction

    for k in (1, 2, 3):
        fk = fns.lambda_xi(Constant("rational", value_exact=Fraction(k, 3)))
        rep = halasz_series(fk, 0.0, 10_000, [10_000], sieve_small)
        if k == 3:
            assert abs(rep.partial_sums[-1]) < 1e-12  # f^3 = 1: series collapses
        else:
            assert rep.partial_sums[-1] > 1.0  # e(k/3) != 1: Mertens-type growth


def test_halasz_series_refuses_a_non_finite_t(sieve_small):
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"finite t, got (nan|inf)"):
            halasz_series(fns.mobius(), t, 1000, [1000], sieve_small)


def test_halasz_series_nondecreasing(sieve_small):
    rep = halasz_series(fns.lambda_xi(Constant("sqrt", 2)), 0.7, 10_000,
                        [10, 100, 1000, 10_000], sieve_small)
    assert all(a <= b + 1e-15 for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))
    assert all(s >= 0 for s in rep.partial_sums)


def test_three_series_examples(sieve_small):
    zero = three_series(lambda p: 0.0, 100, [100], sieve_small)
    assert [r.partial_sums[-1] for r in zero] == [0.0, 0.0, 0.0]

    logs = three_series(lambda p: math.log(1 - 1 / p), 100, [100], sieve_small)
    oracle2 = sum(math.log(1 - 1 / p) / p for p in primes_upto(100))
    assert logs[0].partial_sums[-1] == 0.0
    assert abs(logs[1].partial_sums[-1] - oracle2) < 1e-12
    assert abs(oracle2 + 0.575) < 5e-3

    twos = three_series(lambda p: 2.0, 100, [10, 100], sieve_small)
    assert abs(twos[0].partial_sums[-1] - sum(1.0 / p for p in primes_upto(100))) < 1e-12
    assert twos[1].partial_sums == [0.0, 0.0]
    assert twos[2].partial_sums == [0.0, 0.0]


def test_empirical_cdf_phi_ratio(sieve_big):
    values = fns.euler_phi_ratio().values_upto(10**6, sieve_big)[1:]
    table = dict(empirical_cdf(values, [0.0, 0.5, 1.0]))
    assert table[0.0] == 0.0
    assert table[1.0] == 1.0 - 1.0 / 10**6  # only n=1 attains phi(n)/n = 1
    # golden value v* = 5111904/10^7 fixed by an oracle run before the build
    values7 = fns.euler_phi_ratio().values_upto(10**7, sieve_big)[1:]
    table7 = dict(empirical_cdf(values7, [0.5]))
    assert table7[0.5] == 5111904 / 10**7


def test_empirical_cdf_monotone(sieve_small):
    values = fns.euler_phi_ratio().values_upto(10_000, sieve_small)[1:]
    cdf = empirical_cdf(values, np.linspace(0, 1, 21))
    ys = [y for _, y in cdf]
    assert all(a <= b for a, b in zip(ys, ys[1:]))


def _sorted_cdf(values, thresholds):
    """The sort-based formula empirical_cdf replaced, kept as the reference."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    counts = np.searchsorted(values, np.asarray(thresholds, dtype=np.float64), side="left")
    return [(float(t), int(c) / values.size) for t, c in zip(thresholds, counts)]


def test_empirical_cdf_matches_the_sorted_counts(monkeypatch):
    rng = np.random.default_rng(11)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 1.0]
    long = np.round(rng.normal(0.5, 0.4, size=3 * 2**16 + 123), 2)  # many duplicates
    long[rng.integers(0, long.size, size=500)] = rng.choice(special, size=500)
    samples = [np.array(special), np.array([np.nan]), np.array([2.0]), long,
               fns.euler_phi_ratio().values_upto(10_000, FactorSieve.build(10_000))[1:]]
    grids = [np.linspace(0, 1, 21),
             [0.5, 0.1, 0.5, 1.0, 0.0, -0.0, 0.1, 0.75],  # unsorted, duplicates
             [0.3, np.nan, -np.inf, np.inf, 0.3, np.nan],
             [np.nan], [], [2.0]]
    for block in (1 << 16, 7):  # one block and many
        monkeypatch.setattr("katailab.meanvalues.CHUNK", block)
        for values in samples:
            for grid in grids:
                assert repr(empirical_cdf(values, grid)) == repr(_sorted_cdf(values, grid))
    with pytest.raises(ValueError, match="at least one value"):
        empirical_cdf([], [0.5])


# -- traced peaks: each may hold the one full-length array it needs + 2 MB ----

MEM_X = 2**20
MEM_SLACK = 2 << 20


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phi_ratio_table_peak(sieve_big):
    sieve_big.table("phi", MEM_X)  # warm the memo
    peak = _traced_peak(lambda: fns.euler_phi_ratio().values_upto(MEM_X, sieve_big))
    assert peak <= 8 * (MEM_X + 1) + MEM_SLACK, peak  # its float64 result


def test_empirical_cdf_peak(sieve_big):
    values = fns.euler_phi_ratio().values_upto(MEM_X, sieve_big)[1:]
    peak = _traced_peak(lambda: empirical_cdf(values, np.linspace(0, 1, 101)))
    assert peak <= MEM_SLACK, peak  # nothing beyond its input


def test_turan_kubilius_variance_peak(sieve_big):
    primes = [int(p) for p in sieve_big.primes(100)]
    peak = _traced_peak(lambda: turan_kubilius_variance(primes, MEM_X, sieve_big))
    assert peak <= 2 * (MEM_X + 1) + MEM_SLACK, peak  # its int16 counter


def test_mean_deterministic_across_threads(sieve_big):
    a = empirical_mean(fns.euler_phi_ratio(), 10**6, [10**5, 10**6], sieve_big, threads=1)
    b = empirical_mean(fns.euler_phi_ratio(), 10**6, [10**5, 10**6], sieve_big, threads=4)
    assert a.means == b.means  # bit-identical, not just close


def test_means_reject_checkpoints_past_n(sieve_mid):
    # past N the sum would run off the end of the table and divide short sums
    for mean in (empirical_mean, seminorm_l1):
        with pytest.raises(ValueError, match="<= N = 100000, got 200000"):
            mean(fns.mobius(), 100_000, [50_000, 200_000, 300_000], sieve_mid)
    rep = empirical_mean(fns.mobius(), 100_000, [50_000, 100_000], sieve_mid)
    total = int(sieve_mid.table("mobius", 100_000).sum(dtype=np.int64))
    assert rep.checkpoints == [50_000, 100_000] and rep.means[-1] == total / 100_000
