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
the block, so each block is one vectorized gather.  Tables are sized to the
request: table(name, x) builds only 0..x, because entry n depends only on
entries below it.  The cofactor n / p^e, the exponent e and each table are
memoized on the sieve instance at the largest x asked for so far.

Each table has the narrowest dtype that holds it for every n <= 2^31: int8
for big_omega, small_omega and mobius, int16 for tau (at most 1600), int32
for phi (at most n - 1), int64 for sigma, bool for squarefree.  A consumer
that multiplies table entries widens them to int64 first.

A cache file is a 16-byte header (magic, limit) and the spf entries; load()
memory-maps them, so a request reads only the pages of the prefix it uses.
It then checks 1024 seeded entries against their true smallest prime factor,
found by one array trial division over the primes <= sqrt(limit) of an
independent small sieve: the same samples and the same exact answers as a
per-sample trial division, so the check is just as strong.
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
_HEADER = 16  # magic, then the limit as LE uint64
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
        # n is prime iff spf[n] == n; counting first sizes the output exactly,
        # so no whole-prefix temporary is made
        blocks = [(lo, min(lo + _BLOCK, upto + 1)) for lo in range(2, upto + 1, _BLOCK)]

        def prime_mask(lo, hi):
            return self.spf[lo:hi] == np.arange(lo, hi, dtype=np.uint32)

        out = np.empty(sum(np.count_nonzero(prime_mask(*b)) for b in blocks), np.int64)
        k = 0
        for lo, hi in blocks:
            idx = np.flatnonzero(prime_mask(lo, hi))
            np.add(idx, lo, out=out[k:k + idx.size])
            k += idx.size
        return out

    # -- bulk tables -------------------------------------------------------

    def _split(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """(rest, e) over 0..upto with n = spf[n]^e[n] * rest[n]; rest = 1, e = 0
        at n < 2.  Memoized; a larger upto rebuilds the pair."""
        if self._rest_e is None or self._rest_e[0].size <= upto:
            spf = self.spf
            rest = np.ones(upto + 1, dtype=np.uint32)
            e = np.zeros(upto + 1, dtype=np.int8)
            for lo, hi in _blocks(upto):
                p = spf[lo:hi]
                div32 = np.arange(lo, hi, dtype=np.uint32) // p
                div = div32.astype(np.intp)  # take() is fastest with intp indices
                same = spf.take(div) == p  # spf[1] = 0 never matches
                rest[lo:hi] = np.where(same, rest.take(div), div32)
                e[lo:hi] = e.take(div) * same + 1
            self._rest_e = rest, e
        rest, e = self._rest_e
        return rest[: upto + 1], e[: upto + 1]

    def _kernel(self, rule, dtype, additive: bool, upto: int) -> np.ndarray:
        """out[n] = out[n / p^e] (+ or *) rule(p, e) for 2 <= n <= upto.

        rule is vectorized over a block's (spf uint32, e int8) arrays; out[1]
        is the unit of the combination and out[0] = 0.
        """
        rest, e = self._split(upto)
        spf = self.spf
        out = np.zeros(upto + 1, dtype=dtype)
        if not additive and upto >= 1:
            out[1] = 1
        for lo, hi in _blocks(upto):
            head = out.take(rest[lo:hi].astype(np.intp))
            g = rule(spf[lo:hi], e[lo:hi])
            # a fixed operand order: numpy's SIMD complex multiply is not
            # bitwise commutative
            out[lo:hi] = np.add(head, g) if additive else np.multiply(head, g)
        return out

    def table(self, name: str, upto: int | None = None) -> np.ndarray:
        """Bulk table `name` over 0..upto (default: the limit); entries at 0
        (and 1) are padding.

        Only the requested prefix is built.  The memo keeps one array per name
        and rebuilds it when a larger upto is asked for; every table is a
        prefix-closed recurrence, so the entries are the same at any size.
        """
        upto = self.limit if upto is None else int(upto)
        self.require_upto("x", upto)
        memo = self._tables.get(name)
        if memo is None or memo.size <= upto:
            if name in _RULES:
                memo = self._kernel(*_RULES[name], upto=upto)
            elif name == "squarefree":
                memo = _kfree_mask(2, upto, self)
            else:
                raise ValueError(f"unknown sieve table {name!r}; tables are "
                                 f"{', '.join([*_RULES, 'squarefree'])}")
            self._tables[name] = memo
        return memo[: upto + 1]

    # -- cache file --------------------------------------------------------

    def save(self, path: str | os.PathLike):
        """Write the cache file atomically (magic, LE limit, LE uint32 entries)."""
        _atomic_write(path, CACHE_MAGIC, struct.pack("<Q", self.limit),
                      self.spf.astype("<u4", copy=False))

    @staticmethod
    def load(path: str | os.PathLike) -> "FactorSieve":
        """Map and verify a cache file; spot-checks 1024 seeded entries by trial
        division, run as one array pass (_spot_check_truth).

        The spf body is memory-mapped read-only, so a request reads from disk
        only the pages of the prefix it uses.
        """
        with open(path, "rb") as fh:
            header = fh.read(_HEADER)
            if header[:8] != CACHE_MAGIC:
                raise ValueError(f"bad sieve cache magic {header[:8]!r} in {path}")
            if len(header) < _HEADER:
                raise ValueError(f"sieve cache truncated: {len(header)}-byte header")
            (limit,) = struct.unpack("<Q", header[8:])
            if not (2 <= limit <= MAX_LIMIT):
                raise ValueError(f"sieve cache limit {limit} out of range")
            entries = (os.fstat(fh.fileno()).st_size - _HEADER) // 4
            if entries < limit + 1:
                raise ValueError(f"sieve cache truncated: {entries} of {limit + 1} entries")
            spf = np.memmap(fh, dtype="<u4", mode="r", offset=_HEADER, shape=(limit + 1,))
        spf = spf.view(np.ndarray)  # plain array ops; the view keeps the map open
        sample = _spot_check_sample(limit)
        bad = np.flatnonzero(spf[sample] != _spot_check_truth(sample, limit))
        if bad.size:
            raise ValueError(f"sieve cache failed spot check at n={int(sample[bad[0]])}")
        return FactorSieve(int(limit), spf)


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
    "tau": (lambda p, e: e + 1, np.int16, False),  # tau(n) <= 1600 below 2^31
    "phi": (_phi_pp, np.int32, False),  # phi(n) < 2^31 for n <= 2^31
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


def _spot_check_sample(limit: int) -> np.ndarray:
    """The 1024 seeded entries load() checks, in seeded order."""
    return np.random.default_rng(_SPOT_CHECK_SEED).integers(2, limit + 1, size=1024)


def _spot_check_truth(sample: np.ndarray, limit: int) -> np.ndarray:
    """Smallest prime factor of each n in sample (2 <= n <= limit).

    Trial division by the primes <= sqrt(limit) of _simple_spf, which does not
    read the cache under test, in blocks of 32, 64, 128, ... primes; a sample
    drops out at its first divisor, and one with none is prime.
    """
    root = isqrt(limit)
    base = _simple_spf(max(root, 2))
    primes = FactorSieve(base.size - 1, base).primes(root)
    truth = sample.astype(np.int64)
    left = np.arange(truth.size)  # positions still without a divisor
    lo, width = 0, 32
    while left.size and lo < primes.size:
        block = primes[lo:lo + width]
        hit = truth[left, None] % block == 0
        found = hit.any(axis=1)
        truth[left[found]] = block[hit[found].argmax(axis=1)]
        left = left[~found]
        lo, width = lo + width, 2 * width
    return truth


def build_sieve(limit: int, threads: int = 1) -> FactorSieve:
    """Module-level convenience wrapper around FactorSieve.build."""
    return FactorSieve.build(limit, threads=threads)


def factorize(n: int, sieve: FactorSieve) -> Factorization:
    """Canonical factorization of n using the sieve (1 <= n <= sieve.limit)."""
    return sieve.factorize(n)
