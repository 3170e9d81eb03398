"""The two reduction paths: chunked sums over n and partial sums over primes."""

import numpy as np
import pytest

from katailab.sieve import FactorSieve
from katailab.summation import checkpoint_grid, geometric_checkpoints, prime_series


def scalar_walk(sieve, y, checkpoints, rows):
    """Reference: the one-prime-at-a-time loop the series used to run.

    rows maps each prime to a tuple of terms; None marks a term that the
    loop skips (the old branches added nothing there).
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    primes = sieve.primes(y)
    width = len(rows[int(primes[0])])
    sums, acc, i = [], [0.0] * width, 0
    for c in checkpoints:
        while i < primes.size and primes[i] <= c:
            for j, term in enumerate(rows[int(primes[i])]):
                if term is not None:
                    acc[j] += term
            i += 1
        sums.append(list(acc))
    return checkpoints, sums


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [1, 3])
def test_prime_series_matches_scalar_walk(seed, width):
    rng = np.random.default_rng(seed)
    sieve = FactorSieve.build(5000)
    y = int(rng.integers(2, 5001))

    def draw(p):
        u = rng.random()
        if u < 0.3:
            return None
        if u < 0.4:
            return -0.0
        return float(rng.normal()) / p * 10.0 ** int(rng.integers(-3, 4))

    rows = {int(p): tuple(draw(p) for _ in range(width)) for p in sieve.primes()}
    checkpoints = [int(c) for c in rng.integers(-3, 6000, size=12)]
    checkpoints += [checkpoints[0], 0, 1, 2, y, y + 7]  # duplicates, below 2, above y
    rng.shuffle(checkpoints)

    def terms(primes):
        out = [[0.0 if t is None else t for t in rows[p]] for p in primes.tolist()]
        return [row[0] for row in out] if width == 1 else out

    cps, sums = prime_series(sieve, y, checkpoints, terms)
    want_cps, want = scalar_walk(sieve, y, checkpoints, rows)
    got = sums.reshape(len(cps), width)
    assert cps == want_cps
    assert got.tolist() == want
    # == does not see the sign of a zero; the bits must agree too
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_prime_series_evaluates_no_term_past_the_last_checkpoint():
    sieve = FactorSieve.build(1000)
    seen = []

    def terms(primes):
        seen.append(int(primes.max()))
        return 1.0 / primes

    cps, sums = prime_series(sieve, 1000, [30, 10], terms)
    assert seen == [29] and cps == [10, 30]
    assert sums.tolist() == [1 / 2 + 1 / 3 + 1 / 5 + 1 / 7,
                             sum(1 / p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))]


def test_checkpoints_below_one_raise(sieve_small):
    from katailab.functions import mobius
    from katailab.levelsets import Squarefree, empirical_density
    from katailab.meanvalues import empirical_mean
    from katailab.summation import checkpoint_sums

    for checkpoints, first in (([0, 10], 0), ([50, -3, 0], -3), ([-5], -5)):
        message = f"checkpoints must be >= 1, got {first}"
        with pytest.raises(ValueError, match=message):
            checkpoint_sums(lambda lo, hi: np.ones(hi - lo), checkpoints)
        with pytest.raises(ValueError, match=message):
            empirical_density(Squarefree(), checkpoints, sieve_small)
        with pytest.raises(ValueError, match=message):
            empirical_mean(mobius(), 100, checkpoints, sieve_small)


def test_checkpoint_grid():
    assert checkpoint_grid(None, 10**5) == geometric_checkpoints(10**5)
    assert checkpoint_grid([], 500) == [500]
    # x is added, floats are truncated, duplicates go; nothing caps at x
    assert checkpoint_grid([300, 1e2, 300.7, 500], 400) == [100, 300, 400, 500]
    for bad, match in (([10, 0], ">= 1, got 0"), ([5, -3, -1], ">= 1, got -3"),
                       ([10, float("inf")], "finite"), ([-float("inf")], "finite"),
                       ([float("nan")], "NaN")):
        with pytest.raises(ValueError, match=match):
            checkpoint_grid(bad, 100)
