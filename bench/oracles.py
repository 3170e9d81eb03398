"""Reference values for the benchmark's output checks.

Nothing here imports katailab.  Each reference comes from a different
method than the library uses: trial division, a divide-out sieve over
numpy arrays, or mpmath at 40 significant digits.  A check that passes
therefore means two independent computations agree.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 40

CONSTANTS = {
    "sqrt2": lambda: mpmath.sqrt(2),
    "sqrt3": lambda: mpmath.sqrt(3),
    "golden": lambda: (1 + mpmath.sqrt(5)) / 2,
    "e": lambda: +mpmath.e,
    "pi": lambda: +mpmath.pi,
}


def constant(tag):
    with mpmath.workdps(DPS):
        return CONSTANTS[tag]()


def trial_factor(n: int):
    """[(p, e), ...] for n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def arithmetic_at(n: int) -> dict:
    """phi, mobius, big_omega, small_omega, tau, sigma and squarefree at n."""
    f = trial_factor(n)
    phi = tau = sigma = 1
    for p, e in f:
        phi *= p ** (e - 1) * (p - 1)
        tau *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    squarefree = all(e == 1 for _, e in f)
    return {
        "phi": phi,
        "mobius": (-1) ** len(f) if squarefree else 0,
        "big_omega": sum(e for _, e in f),
        "small_omega": len(f),
        "tau": tau,
        "sigma": sigma,
        "squarefree": squarefree,
    }


def primes_upto(x: int) -> np.ndarray:
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def arithmetic_tables(x: int) -> dict:
    """Whole tables for 0..x by dividing each prime p <= sqrt(x) out of n.

    What is left after the loop is 1 or a single prime above sqrt(x).
    """
    rest = np.arange(x + 1, dtype=np.int64)
    big = np.zeros(x + 1, dtype=np.int64)
    small = np.zeros(x + 1, dtype=np.int64)
    max_e = np.zeros(x + 1, dtype=np.int64)
    tau = np.ones(x + 1, dtype=np.int64)
    sigma = np.ones(x + 1, dtype=np.int64)
    phi = np.ones(x + 1, dtype=np.int64)
    for p in primes_upto(math.isqrt(x)):
        p = int(p)
        idx = np.arange(p, x + 1, p)
        r = rest[idx]
        e = np.zeros(idx.size, dtype=np.int64)
        pe = np.ones(idx.size, dtype=np.int64)
        hit = np.ones(idx.size, dtype=bool)
        while hit.any():
            hit = r % p == 0
            r = np.where(hit, r // p, r)
            e += hit
            pe = np.where(hit, pe * p, pe)
        rest[idx] = r
        big[idx] += e
        small[idx] += 1
        max_e[idx] = np.maximum(max_e[idx], e)
        tau[idx] *= e + 1
        sigma[idx] *= (pe * p - 1) // (p - 1)
        phi[idx] *= pe - pe // p
    left = rest > 1
    big += left
    small += left
    max_e = np.maximum(max_e, left)
    tau *= np.where(left, 2, 1)
    sigma *= np.where(left, rest + 1, 1)
    phi *= np.where(left, rest - 1, 1)
    n = np.arange(x + 1, dtype=np.int64)
    squarefree = max_e <= 1
    squarefree[0] = False
    return {
        "n": n, "big_omega": big, "small_omega": small, "max_e": max_e,
        "tau": tau, "sigma": sigma, "phi": phi, "squarefree": squarefree,
    }


def set_flags(tables: dict, spec: str) -> np.ndarray:
    """Membership flags (index 0 False) for the level-set specs the benchmark uses."""
    t = tables
    if spec == "squarefree":
        flags = t["squarefree"].copy()
    elif spec == "kfree:3":
        flags = t["max_e"] <= 2
    elif spec.startswith(("big_omega_mod:", "omega_mod:", "tau_mod:")):
        name, _, args = spec.partition(":")
        b, r = (int(a) for a in args.split(","))
        column = {"big_omega_mod": "big_omega", "omega_mod": "small_omega",
                  "tau_mod": "tau"}[name]
        flags = t[column] % b == r
    elif spec == "abundant":
        flags = t["sigma"] > 2 * t["n"]
    else:
        raise ValueError(f"no reference for set {spec!r}")
    flags = np.asarray(flags, dtype=bool)
    flags[0] = False
    return flags


def function_values(tables: dict, name: str) -> np.ndarray:
    """Values (index 0 is 0) of the catalog functions the benchmark averages."""
    t = tables
    sqf = t["squarefree"]
    if name == "mobius":
        v = np.where(sqf, np.where(t["small_omega"] % 2 == 0, 1.0, -1.0), 0.0)
    elif name == "liouville":
        v = np.where(t["big_omega"] % 2 == 0, 1.0, -1.0)
    elif name == "squarefree_indicator":
        v = sqf.astype(np.float64)
    elif name == "euler_phi_ratio":
        n = t["n"].astype(np.float64)
        n[0] = 1.0
        v = t["phi"].astype(np.float64) / n
    else:
        raise ValueError(f"no reference for function {name!r}")
    v[0] = 0.0
    return v


def frac_distance(a: float, b: float) -> float:
    """Distance between two points of the circle R/Z."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def hardy_value(spec: str, n):
    """h(n) at DPS digits for the Hardy specs the benchmark uses."""
    with mpmath.workdps(DPS):
        t = mpmath.mpf(n)
        if spec.startswith("power:"):
            return t ** mpmath.mpf(spec.partition(":")[2])
        if spec == "tlogt":
            return t * mpmath.log(t)
        if spec == "loggamma":
            return mpmath.loggamma(t)
        if spec.startswith("poly:"):
            coeffs = spec.partition(":")[2].split(",")
            return sum((_coefficient(c) * t**i for i, c in enumerate(coeffs)),
                       mpmath.mpf(0))
        raise ValueError(f"no reference for hardy spec {spec!r}")


def _coefficient(text):
    return constant(text) if text in CONSTANTS else mpmath.mpf(text)


def hardy_frac(spec: str, n) -> float:
    with mpmath.workdps(DPS):
        return float(mpmath.frac(hardy_value(spec, n)))


def dilated_frac(spec: str, p: int, q: int, n) -> float:
    with mpmath.workdps(DPS):
        return float(mpmath.frac(hardy_value(spec, p * n) - hardy_value(spec, q * n)))


def correlation_modulus(theta: str, p: int, q: int, x: int) -> float:
    """|(1/x) sum_{n<=x} e(n (p - q) theta)| from the geometric closed form."""
    with mpmath.workdps(DPS):
        beta = (p - q) * constant(theta)
        return float(abs(mpmath.sin(mpmath.pi * x * beta)
                         / (x * mpmath.sin(mpmath.pi * beta))))


def split_constant(theta: str):
    """theta = hi + lo with hi a multiple of 2^-26, so n*hi is exact for n < 2^26."""
    with mpmath.workdps(DPS):
        c = constant(theta)
        hi = float(mpmath.nint(c * 2**26)) / 2**26
        return hi, float(c - hi)


def decay_values(flags, split, checkpoints, chunk=1 << 18):
    """|sum_{n<=c, n in E} e(n theta)| / c at each checkpoint, in chunks."""
    hi, lo = split
    out, acc, start = [], 0j, 1
    for c in sorted(checkpoints):
        for a in range(start, c + 1, chunk):
            b = min(a + chunk, c + 1)
            n = np.arange(a, b, dtype=np.float64)
            phase = (n * hi) % 1.0 + n * lo
            keep = np.asarray(flags[a:b], dtype=bool)
            acc += np.exp(2j * np.pi * phase[keep]).sum()
        start = c + 1
        out.append(abs(acc) / c)
    return out
