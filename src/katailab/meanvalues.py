"""Empirical means, the averaged-modulus seminorm, and Euler products.

The empirical side averages f(n) over n <= N with the deterministic chunked
pairwise reduction; the product side evaluates the mean-value Euler product

    prod_p (1 - 1/p) * (1 + sum_m g(p^m) / p^m)

over primes up to a cutoff, truncating the inner sum once p^-m < 1e-18 and
reporting the tail budget 2/P alongside rather than dropping it silently.
Partial-sum reports for the convergence criteria (the averaged 1 - Re(g(p)p^it)
series and the three additive series) never decide divergence; they carry an
advisory slope only.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .functions import ArithmeticFunction, EvaluationError
from .reports import MeanValueReport, SeriesReport
from .sieve import FactorSieve
from .summation import (CHUNK, checkpoint_grid, checkpoint_sums, checkpoints_upto,
                        divergence_slope, prime_series)

POWER_CUTOFF = 1e-18


def empirical_mean(fn: ArithmeticFunction, n_max: int, checkpoints,
                   sieve: FactorSieve, threads: int = 1) -> MeanValueReport:
    """Running means (1/x) sum_{n<=x} f(n) at each checkpoint."""
    return _running_means(fn.reader, n_max, checkpoints, sieve, threads)


def seminorm_l1(fn: ArithmeticFunction, n_max: int, checkpoints,
                sieve: FactorSieve, threads: int = 1) -> MeanValueReport:
    """Running means of |f(n)| (the limsup of these is the averaged seminorm)."""
    def reader(x, s):
        read = fn.reader(x, s)
        return lambda lo, hi: np.abs(read(lo, hi))

    return _running_means(reader, n_max, checkpoints, sieve, threads)


def _running_means(reader, n_max, checkpoints, sieve, threads):
    """reader(x, sieve) -> read(lo, hi), the summands on a window; each
    window is summed as checkpoint_sums cuts it, with no whole table."""
    sieve.require_upto("N", n_max)
    checkpoints = checkpoints_upto(checkpoint_grid(checkpoints, n_max), n_max, "N")
    sums = checkpoint_sums(reader(n_max, sieve), checkpoints, threads=threads)
    return MeanValueReport(checkpoints, [s / c for s, c in zip(sums, checkpoints)])


# float and complex values may exceed modulus 1 by rounding (|e(t)| can be
# 1 + 2^-52); exact int and Fraction values may not exceed it at all
_UNIT_BALL_SLACK = 1.0 + 1e-12


class LocalFactorError(ValueError):
    """The rule has no mean-value Euler product: it is additive, or some
    |g(p^m)| exceeds 1."""


def _outside_unit_ball(p, m, v) -> LocalFactorError:
    return LocalFactorError(f"g({p}^{m}) = {v} has modulus {float(abs(v)):.6g} > 1; "
                            f"the rule violates |g| <= 1")


def euler_product_mean(rule, prime_cutoff: int, sieve: FactorSieve | None = None):
    """Mean-value Euler product for a multiplicative prime-power rule g with
    |g(p^m)| <= 1.

    Returns (value, tail_bound).  Without a sieve reaching prime_cutoff, the
    primes come from FactorSieve.build.  The inner sum over m stops once p^-m
    falls below 1e-18; the reported tail bound 2/P dominates sum_{p>P} 2/p^2.
    LocalFactorError names the first p^m, in the order evaluated, with
    |g(p^m)| > 1; the check rides on the sums below, so it costs nothing.
    """
    if prime_cutoff < 2:
        raise ValueError("prime cutoff must be >= 2")
    if isinstance(rule, ArithmeticFunction) and rule.kind == "additive":
        raise LocalFactorError(f"{rule.name} is additive; the mean-value Euler "
                               f"product needs a multiplicative rule")
    if sieve is None or prime_cutoff > sieve.limit:
        sieve = FactorSieve.build(prime_cutoff)
    primes = sieve.primes(prime_cutoff)
    values, depth, failed = _values_by_exponent(rule, primes)
    product = complex(1.0)
    for i, (p, count) in enumerate(zip(primes.tolist(), depth)):
        if failed is not None and p == failed.p:
            raise failed
        terms = [(m, values[m - 1][i]) for m in range(1, count + 1)]
        if all(isinstance(v, (int, Fraction)) for _, v in terms):
            # exact local factor (p - 1)/p * (1 + sum_m v_m / p^m) as one ratio
            # of integers over big = lcm(denominators) * p^M, the sum taken by
            # Horner in p; int / int rounds correctly, so rules with g = 1 give
            # exactly 1 - p^-(M+1)
            den = math.lcm(*[v.denominator for _, v in terms])
            inner = 0
            for m, v in terms:
                scaled = v.numerator * (den // v.denominator)  # v * den
                if abs(scaled) > den:
                    raise _outside_unit_ball(p, m, v)
                inner = inner * p + scaled
            big = den * p ** len(terms)
            local = complex((p - 1) * (big + inner) / (p * big))
        else:
            bad = next((t for t in terms if abs(t[1]) > _UNIT_BALL_SLACK), None)
            if bad is not None:
                raise _outside_unit_ball(p, *bad)
            # smallest terms first so the truncation budget dominates roundoff
            inner = complex(1.0)
            for m, v in reversed(terms):
                inner += complex(v) / p**m
            local = (1.0 - 1.0 / p) * inner
        product *= local
    tail = 2.0 / prime_cutoff
    return product, tail


def _values_by_exponent(rule, primes):
    """(values, depth, failed): g(p, m) for every prime power p^m with
    p^-m >= 1e-18, taken one exponent m at a time.

    values[m - 1] holds g(p, m) at a prefix of primes, and depth[i] is the
    number of exponents of primes[i]; p^-m comes from the same repeated
    division as a loop over m.  An ArithmeticFunction's values come from
    prime_values, which raises EvaluationError at a non-finite value; failed
    is the first such error in p-then-m order (or None), and the values below
    its prime are still returned, so the product raises it on reaching that
    prime, as a loop over p, then m, would.
    """
    if isinstance(rule, ArithmeticFunction):
        def row(ps, m):
            return rule.prime_values(ps, m)[0]
    else:
        def row(ps, m):
            return [rule(p, m) for p in ps.tolist()]
    values, depth, failed = [], np.zeros(primes.size, dtype=np.int64), None
    weight, m = 1.0 / primes, 1
    # p^-m falls with p, so the primes still inside the truncation are a prefix
    while (alive := int(np.count_nonzero(weight >= POWER_CUTOFF))):
        ps = primes[:alive]
        try:
            values.append(row(ps, m))
        except EvaluationError as err:
            values.append(row(ps[:int(np.searchsorted(ps, err.p))], m))
            if failed is None or err.p < failed.p:
                failed = err
        depth[:alive] += 1
        weight = weight[:alive] / ps
        m += 1
    return values, depth.tolist(), failed


def mean_with_product(fn: ArithmeticFunction, n_max: int, checkpoints,
                      sieve: FactorSieve, prime_cutoff: int = 100_000,
                      threads: int = 1) -> MeanValueReport:
    """Empirical means plus the Euler-product value and its discrepancy."""
    rep = empirical_mean(fn, n_max, checkpoints, sieve, threads=threads)
    product, tail = euler_product_mean(fn, prime_cutoff, sieve)
    rep.product = product
    rep.prime_cutoff = prime_cutoff
    rep.tail_bound = tail
    return rep


def halasz_series(fn: ArithmeticFunction, t: float, y: int, checkpoints,
                  sieve: FactorSieve) -> SeriesReport:
    """Partial sums of (1 - Re(g(p) p^{it})) / p over primes p <= y'.

    Terms lie in [0, 2/p], so the partial sums are nondecreasing.
    """
    if not math.isfinite(t):
        raise ValueError(f"halasz_series needs a finite t, got {t}")

    def term(p):
        gp = complex(fn.prime_power(p, 1))
        if abs(gp) > 1.0 + 1e-12:
            raise ValueError(f"|g({p})| = {abs(gp):.3f} > 1: series terms "
                             f"would leave [0, 2/p]")
        w = t * math.log(p)
        return (1.0 - (gp * complex(math.cos(w), math.sin(w))).real) / p

    checkpoints, sums = prime_series(sieve, y, checkpoints,
                                     lambda primes: [term(p) for p in primes.tolist()])
    return SeriesReport(
        name=f"halasz({fn.name},t={t})", cutoffs=checkpoints, partial_sums=sums.tolist(),
        slope=divergence_slope(checkpoints, sums),
    )


def three_series(a_of_p, y: int, checkpoints, sieve: FactorSieve):
    """The three convergence-criterion series of a real additive function.

    a_of_p is a(p) as a callable on one prime, or an ArithmeticFunction whose
    g(p, 1) is a(p) (evaluated over the primes at once by prime_values).
    Returns SeriesReports for sum 1/p over |a(p)|>1, sum a(p)/p and
    sum a(p)^2/p over |a(p)|<=1, split applied per prime.
    """
    def terms(primes):
        if isinstance(a_of_p, ArithmeticFunction):
            values = a_of_p.prime_values(primes)[0]
        else:
            values = [a_of_p(p) for p in primes.tolist()]
        a = np.array(list(map(float, values)), dtype=np.float64)
        if not np.isfinite(a).all():
            raise ValueError(f"a(p) not finite at p={primes[~np.isfinite(a)][0]}")
        large = np.abs(a) > 1.0
        return np.stack([np.where(large, 1.0 / primes, 0.0),
                         np.where(large, 0.0, a / primes),
                         np.where(large, 0.0, a * a / primes)], axis=1)

    checkpoints, sums = prime_series(sieve, y, checkpoints, terms)
    s1, s2, s3 = sums.T.tolist()
    return (
        SeriesReport("large_values", checkpoints, s1, divergence_slope(checkpoints, s1)),
        SeriesReport("first_moment", checkpoints, s2, divergence_slope(checkpoints, s2),
                     nonnegative_terms=False),
        SeriesReport("second_moment", checkpoints, s3, divergence_slope(checkpoints, s3)),
    )


def empirical_cdf(values, thresholds):
    """F_N(x) = (1/N) #{n <= N : value_n < x} on a threshold grid."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        raise ValueError("empirical_cdf needs at least one value")
    thresholds = list(thresholds)
    grid = np.asarray(thresholds, dtype=np.float64)
    order = np.argsort(grid, kind="stable")
    edges = grid[order]
    # bins[j] counts the values with exactly j sorted thresholds <= them, so the
    # cumulative sum up to j counts the values below the j-th threshold, in the
    # order of np.sort (NaN above +inf); no sorted copy of the values is made
    bins = np.zeros(grid.size + 1, dtype=np.int64)
    for lo in range(0, n, CHUNK):
        rank = np.searchsorted(edges, values[lo:lo + CHUNK], side="right")
        bins += np.bincount(rank, minlength=grid.size + 1)
    counts = np.empty(grid.size, dtype=np.int64)
    counts[order] = np.cumsum(bins[:-1])
    return [(float(t), int(c) / n) for t, c in zip(thresholds, counts)]
