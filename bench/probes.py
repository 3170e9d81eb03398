"""Layer rates at fixed sizes, measured the same way on every workload.

The traced run calls these in a child of their own, after the workload's
traced batches, so every traced run reports them whatever layers its
workload exercises.  Each probe consumes its result inside the timed
region.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

POINTS = 10**6
BUILD_REPEATS = 3
EULER_CUTOFF = 100_000


def _timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def run(limit: int, seed: int) -> dict:
    from katailab import ddmath, equidist, functions, meanvalues, orthogonality
    from katailab.constants import Constant
    from katailab.sieve import FactorSieve

    out = {}
    one = [_timed(lambda: FactorSieve.build(limit, threads=1)) for _ in range(BUILD_REPEATS)]
    two = [_timed(lambda: FactorSieve.build(limit, threads=2)) for _ in range(BUILD_REPEATS)]
    out["sieve.build_1t_s"] = statistics.median(one)
    out["sieve.build_speedup"] = out["sieve.build_1t_s"] / statistics.median(two)

    rng = np.random.default_rng(seed)
    t = ddmath.from_float(rng.uniform(12.0, 1e6, POINTS))
    exponent = ddmath.from_float(rng.uniform(-20.0, 20.0, POINTS))
    per_pt = 1e9 / POINTS
    kernels = {
        "exp": lambda: ddmath.exp(exponent),
        "log": lambda: ddmath.log(t),
        "pow_dd": lambda: ddmath.pow_dd(t, (1.5, 0.0)),
        "log_gamma": lambda: ddmath.log_gamma(t),
        "sqrt": lambda: ddmath.sqrt(t),
    }
    for k, fn in kernels.items():
        out[f"ddmath.{k}_ns_per_pt"] = _timed(fn) * per_pt

    n = rng.integers(1, 2**40, POINTS)
    theta = Constant.parse("sqrt2")
    out["constants.frac_mul_ns_per_pt"] = _timed(lambda: theta.frac_mul(n)) * per_pt
    frac = rng.random(POINTS)
    out["orthogonality.e_of_ns_per_pt"] = _timed(lambda: orthogonality.e_of(frac)) * per_pt
    members = np.arange(1, POINTS + 1, dtype=np.int64)
    h = equidist.power(Constant.parse("1.5"))
    out["equidist.floor_values_ns_per_pt"] = _timed(lambda: h.floor_values(members)) * per_pt

    sieve = FactorSieve.build(POINTS, threads=1)
    rule = functions.custom(lambda p, m: 0.5 if (p + m) % 3 else -1.0)
    out["functions.bulk_values_ns_per_n"] = (
        _timed(lambda: functions.bulk_values(rule, POINTS, sieve)) * per_pt)
    primes = int(sieve.primes(EULER_CUTOFF).size)
    out["meanvalues.euler_product_us_per_prime"] = _timed(
        lambda: meanvalues.euler_product_mean(functions.euler_phi_ratio(), EULER_CUTOFF, sieve)
    ) * 1e6 / primes
    return out
