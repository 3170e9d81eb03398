"""Smallest-prime-factor sieve, factorization, and bulk arithmetic tables.

The FactorSieve is the backbone of the package: a uint32 table spf[n] holding
the smallest prime factor of every n up to its limit, built segment-parallel
but byte-identical for any thread count.  Factorization is then an O(log n)
chase n -> n / spf[n].

A multiplicative (or additive) function is fixed by its values g(p^e) on
prime powers, so every bulk table (big_omega, small_omega, mobius, tau, phi,
sigma, and any prime-power rule through functions.bulk_values) comes from one
kernel,

    v(n) = v(n / p^e) * g(p, e)   (+ for additive tables),  p = spf[n], p^e || n,

run block by block over [lo, hi) with hi <= 2 lo: n / p^e <= n / 2 lies below
the block, so each block is one vectorized gather.  The cofactor n / p^e and
the exponent e are memoized once per sieve; tables are memoized on the sieve
instance.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .reports import _atomic_write

MAX_LIMIT = 2**31
CACHE_MAGIC = b"KATAISV1"
_SPOT_CHECK_SEED = 0x5EED
_SEGMENT = 1 << 22
_BLOCK = 1 << 16


class SieveRangeError(ValueError):
    """Requested index or limit outside the sieve's accepted range."""


@dataclass(frozen=True)
class Factorization:
    """Canonical p1^e1 * ... * pk^ek with strictly increasing primes."""

    pairs: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out


class FactorSieve:
    """Immutable smallest-prime-factor table for 0..limit (spf[0]=spf[1]=0)."""

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = int(limit)
        self.spf = spf
        self._tables: dict[str, np.ndarray] = {}
        self._rest_e: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(limit: int, threads: int = 1) -> "FactorSieve":
        """Sieve smallest prime factors up to limit (2 <= limit <= 2^31)."""
        if not (2 <= limit <= MAX_LIMIT):
            raise SieveRangeError(
                f"sieve limit must be in [2, {MAX_LIMIT}], got {limit}"
            )
        root = isqrt(limit)
        base = _simple_spf(max(root, 2))
        base_primes = FactorSieve(base.size - 1, base).primes(root)

        spf = np.zeros(limit + 1, dtype=np.uint32)
        if root >= 2:
            spf[2 : root + 1] = base[2 : root + 1]

        segments = [
            (lo, min(lo + _SEGMENT, limit + 1))
            for lo in range(root + 1, limit + 1, _SEGMENT)
        ]

        def mark(seg):
            lo, hi = seg
            block = spf[lo:hi]
            for p in base_primes:
                p = int(p)
                start = ((lo + p - 1) // p) * p
                if start < hi:
                    view = block[start - lo :: p]
                    view[view == 0] = p
            # untouched entries are primes
            idx = np.nonzero(block == 0)[0]
            block[idx] = (idx + lo).astype(np.uint32)

        if threads > 1 and segments:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(mark, segments))
        else:
            for seg in segments:
                mark(seg)
        return FactorSieve(limit, spf)

    # -- factorization -----------------------------------------------------

    def require_upto(self, label: str, x: int):
        """SieveRangeError unless x <= limit; label names x in the message."""
        if x > self.limit:
            raise SieveRangeError(f"{label}={x} exceeds sieve limit {self.limit}")

    def _check(self, n: int):
        if n < 1:
            raise SieveRangeError(f"n must be in [1, {self.limit}], got {n}")
        self.require_upto("n", n)

    def factorize(self, n: int) -> Factorization:
        """Canonical factorization of n (1 <= n <= limit); n=1 gives ()."""
        self._check(n)
        pairs = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        return Factorization(tuple(pairs))

    def primes(self, upto: int | None = None) -> np.ndarray:
        """All primes <= upto (default: the sieve limit), as int64."""
        upto = self.limit if upto is None else int(upto)
        if upto < 2:
            return np.empty(0, dtype=np.int64)
        self._check(upto)
        idx = np.arange(upto + 1, dtype=np.uint32)
        return np.nonzero(self.spf[: upto + 1] == idx)[0][1:].astype(np.int64)

    # -- bulk tables -------------------------------------------------------

    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """(rest, e) with n = spf[n]^e[n] * rest[n]; rest = 1, e = 0 at n < 2."""
        if self._rest_e is None:
            spf = self.spf
            rest = np.ones(self.limit + 1, dtype=np.uint32)
            e = np.zeros(self.limit + 1, dtype=np.int8)
            for lo, hi in _blocks(self.limit):
                p = spf[lo:hi]
                div32 = np.arange(lo, hi, dtype=np.uint32) // p
                div = div32.astype(np.intp)  # take() is fastest with intp indices
                same = spf.take(div) == p  # spf[1] = 0 never matches
                rest[lo:hi] = np.where(same, rest.take(div), div32)
                e[lo:hi] = e.take(div) * same + 1
            self._rest_e = rest, e
        return self._rest_e

    def _kernel(self, rule, dtype, additive: bool, upto: int) -> np.ndarray:
        """out[n] = out[n / p^e] (+ or *) rule(p, e) for 2 <= n <= upto.

        rule is vectorized over a block's (spf uint32, e int8) arrays; out[1]
        is the unit of the combination and out[0] = 0.
        """
        rest, e = self._split()
        spf = self.spf
        out = np.zeros(upto + 1, dtype=dtype)
        if not additive:
            out[1] = 1
        for lo, hi in _blocks(upto):
            head = out.take(rest[lo:hi].astype(np.intp))
            g = rule(spf[lo:hi], e[lo:hi])
            out[lo:hi] = head + g if additive else head * g
        return out

    def table(self, name: str) -> np.ndarray:
        """Memoized bulk table over 0..limit; entries at 0 (and 1) are padding."""
        if name not in self._tables:
            if name in _RULES:
                self._tables[name] = self._kernel(*_RULES[name], upto=self.limit)
            elif name == "squarefree":
                self._tables[name] = _kfree_mask(2, self.limit, self)
        return self._tables[name]

    # -- cache file --------------------------------------------------------

    def save(self, path: str | os.PathLike):
        """Write the cache file atomically (magic, LE limit, LE uint32 entries)."""
        _atomic_write(path, CACHE_MAGIC, struct.pack("<Q", self.limit),
                      self.spf.astype("<u4", copy=False))

    @staticmethod
    def load(path: str | os.PathLike) -> "FactorSieve":
        """Load and verify a cache file; spot-checks 1024 entries by trial division."""
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != CACHE_MAGIC:
                raise ValueError(f"bad sieve cache magic {magic!r} in {path}")
            (limit,) = struct.unpack("<Q", fh.read(8))
            if not (2 <= limit <= MAX_LIMIT):
                raise ValueError(f"sieve cache limit {limit} out of range")
            spf = np.fromfile(fh, dtype="<u4", count=limit + 1)
        if spf.size != limit + 1:
            raise ValueError(f"sieve cache truncated: {spf.size} of {limit + 1} entries")
        rng = np.random.default_rng(_SPOT_CHECK_SEED)
        sample = rng.integers(2, limit + 1, size=1024)
        for n in sample:
            if int(spf[n]) != _trial_spf(int(n)):
                raise ValueError(f"sieve cache failed spot check at n={int(n)}")
        return FactorSieve(int(limit), spf.astype(np.uint32, copy=False))


def _blocks(upto: int):
    # hi <= 2 * lo keeps n / p^e below the block; the cap keeps each block's
    # temporaries small enough to stay in cache
    lo = 2
    while lo <= upto:
        hi = min(2 * lo, lo + _BLOCK, upto + 1)
        yield lo, hi
        lo = hi


def _sigma_pp(p, e):
    p = np.int64(p)
    return (p ** (e + 1) - 1) // (p - 1)


def _phi_pp(p, e):
    p = np.int64(p)
    return p ** (e - 1) * (p - 1)


# name -> (rule g(p, e) on the prime power p^e, table dtype, additive)
_RULES = {
    "big_omega": (lambda p, e: e, np.int8, True),
    "small_omega": (lambda p, e: 1, np.int8, True),
    "mobius": (lambda p, e: (e == 1) * np.int8(-1), np.int8, False),
    "tau": (lambda p, e: e + 1, np.int32, False),
    "phi": (_phi_pp, np.int64, False),
    "sigma": (_sigma_pp, np.int64, False),
}


def _kfree_mask(k: int, x: int, sieve: FactorSieve) -> np.ndarray:
    """Bool table over 0..x: no p^k divides n (index 0 is False)."""
    out = np.ones(x + 1, dtype=bool)
    out[0] = False
    for p in sieve.primes(int(x ** (1.0 / k)) + 1):
        q = int(p) ** k
        if q <= x:
            out[q::q] = False
    return out


def _simple_spf(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    idx = np.nonzero(spf[2:] == 0)[0] + 2
    spf[idx] = idx.astype(np.uint32)
    return spf


def _trial_spf(n: int) -> int:
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def build_sieve(limit: int, threads: int = 1) -> FactorSieve:
    """Module-level convenience wrapper around FactorSieve.build."""
    return FactorSieve.build(limit, threads=threads)


def factorize(n: int, sieve: FactorSieve) -> Factorization:
    """Canonical factorization of n using the sieve (1 <= n <= sieve.limit)."""
    return sieve.factorize(n)
