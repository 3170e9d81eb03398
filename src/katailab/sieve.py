"""Smallest-prime-factor sieve, factorization, and bulk arithmetic tables.

The FactorSieve is the backbone of the package: a table of the smallest prime
factor spf(n) of every n up to its limit, built segment-parallel but
byte-identical for any thread count.  Every composite n <= 2^31 has
spf(n) <= 46,340 < 2^16, so the table is uint16 with 0 marking the primes
(and n = 0, 1): half the bytes of a uint32 table of spf(n).  One accessor,
FactorSieve.spf, decodes it: spf[n], spf[lo:hi] and spf[index array] give
spf(n) as uint32, a prime decoded to itself and 0 at n < 2.  Factorization is
then an O(log n) chase n -> n / spf(n).

A multiplicative (or additive) function is fixed by its values g(p^e) on
prime powers, so every bulk table (big_omega, small_omega, mobius, tau, phi,
sigma, and any prime-power rule through functions.bulk_values) comes from one
kernel,

    v(n) = v(n / p^e) * g(p, e)   (+ for additive tables),  p = spf(n), p^e || n,

run block by block over [lo, hi) with hi <= 2 lo: n / p^e <= n / 2 lies below
the block, so each block is one vectorized gather.  The blocks run band by
band, a band being the blocks from some L up to 2 L: every block of a band
reads only entries below L, so a band of at least 8 blocks (from 2^19 up)
runs on the threads the sieve was built with, and each entry is written once
by the same code, whatever the thread count.  A sieve loaded from a cache
builds its tables on one thread.  Tables are sized to the request:
table(name, x) builds only 0..x, because entry n depends only on entries
below it.  The cofactor n / p^e, the exponent e and each table are
memoized on the sieve instance at the largest x asked for so far.

Each table has the narrowest dtype that holds it for every n <= 2^31: int8
for big_omega, small_omega and mobius, int16 for tau (at most 1600), int32
for phi (at most n - 1), int64 for sigma, bool for squarefree.  A consumer
that multiplies table entries widens them to int64 first.

A cache file (v2) is the magic KATAISV2, the limit (LE uint64), one crc32 per
2^16-entry segment of the table (LE uint32), then the table (LE uint16).
load() memory-maps the table, so a request reads only the pages of the
prefix it uses, and each segment is checked against its crc32 the first time
a read touches it.  load() also checks 1024 seeded raw entries, without
setting off those checks, against their true smallest prime factor, found by
one array trial division over the primes <= sqrt(limit) of an independent
small sieve.  A file with any other magic is refused; `katailab sieve`
rebuilds it.
"""

from __future__ import annotations

import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .reports import _atomic_write

MAX_LIMIT = 2**31
CACHE_MAGIC = b"KATAISV2"
_HEADER = 16  # magic, then the limit as LE uint64
_CRC_SEGMENT = 1 << 16  # table entries per crc32 in a cache file
_SPOT_CHECK_SEED = 0x5EED
_SEGMENT = 1 << 20  # build segment: its strided writes stay in cache
_BLOCK = 1 << 16
_POOL_BAND = 8  # blocks in a band worth a thread pool: bands from 2^19 up


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


def _decode(raw: np.ndarray, n: np.ndarray) -> np.ndarray:
    """spf from the raw entries at n, written over n, a fresh uint32 array of
    their indices: 0 marks a prime, its own spf.  In place, since a 2^16-entry
    temporary costs about as much as the arithmetic."""
    n *= raw == 0
    n += raw
    return n


class SpfTable:
    """The uint16 table of a FactorSieve behind its one accessor.

    raw[n] is spf(n) for composite n and 0 at primes and n < 2.  spf[n] (an
    int), spf[lo:hi] and spf[idx] (an integer array) decode it to uint32 with
    each prime decoded to itself and 0 at n < 2.  A table loaded from a cache
    carries one crc32 per 2^16-entry segment; a read through the accessor or
    block() first checks each segment it touches (check), and a mismatch
    raises ValueError naming the segment.
    """

    def __init__(self, raw: np.ndarray, crcs: np.ndarray | None = None):
        self.raw = raw
        self._crcs = crcs
        self._checked = None if crcs is None else np.zeros(crcs.size, dtype=bool)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """raw[lo:hi], its segments checked."""
        if hi > lo:
            self.check(range(lo // _CRC_SEGMENT, (hi - 1) // _CRC_SEGMENT + 1))
        return self.raw[lo:hi]

    def check(self, segments):
        """Check the segments k in segments that no read has checked yet; a
        table without checksums (a built one) checks nothing."""
        if self._crcs is None:
            return
        # two threads racing on one segment only check it twice
        for k in segments:
            if not self._checked[k]:
                lo = k * _CRC_SEGMENT
                if zlib.crc32(self.raw[lo:lo + _CRC_SEGMENT]) != self._crcs[k]:
                    hi = min(lo + _CRC_SEGMENT, self.raw.size) - 1
                    raise ValueError(f"sieve cache segment {k} (n = {lo}..{hi}) "
                                     f"fails its checksum")
                self._checked[k] = True

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):  # the factorization chase
            n = int(key)
            self.check((n // _CRC_SEGMENT,))
            p = int(self.raw[n])
            return p if p or n < 2 else n
        if isinstance(key, slice):
            lo, hi, step = key.indices(self.raw.size)
            if step != 1:
                raise ValueError("spf slices take no step")
            out = _decode(self.block(lo, hi), np.arange(lo, hi, dtype=np.uint32))
            out[: max(0, min(2, hi) - lo)] = 0
            return out
        n = np.asarray(key)
        self.check(np.unique(n // _CRC_SEGMENT).tolist())
        out = _decode(self.raw[n], n.astype(np.uint32))
        out[n < 2] = 0
        return out


class FactorSieve:
    """Immutable smallest-prime-factor table for 0..limit, read through spf."""

    def __init__(self, limit: int, raw: np.ndarray, crcs: np.ndarray | None = None):
        self.limit = int(limit)
        self.spf = SpfTable(raw, crcs)
        self.threads = 1  # workers for the table bands; build() sets its own
        self._tables: dict[str, np.ndarray] = {}
        self._rest_e: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(limit: int, threads: int = 1) -> "FactorSieve":
        """Sieve smallest prime factors up to limit (2 <= limit <= 2^31) on
        `threads` workers, which later build the large bands of its tables."""
        if not (2 <= limit <= MAX_LIMIT):
            raise SieveRangeError(
                f"sieve limit must be in [2, {MAX_LIMIT}], got {limit}"
            )
        root = isqrt(limit)
        base = _simple_spf(max(root, 2))
        # largest first: the last write at a composite is its smallest prime
        # factor, and primes are never written
        base_primes = FactorSieve(base.size - 1, base).primes(root).tolist()[::-1]

        raw = np.zeros(limit + 1, dtype=np.uint16)
        raw[2 : root + 1] = base[2 : root + 1]

        segments = [
            (lo, min(lo + _SEGMENT, limit + 1))
            for lo in range(root + 1, limit + 1, _SEGMENT)
        ]

        def mark(seg):
            lo, hi = seg
            block = raw[lo:hi]
            for p in base_primes:
                start = -(-lo // p) * p
                if start < hi:
                    block[start - lo :: p] = p

        if threads > 1 and segments:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(mark, segments))
        else:
            for seg in segments:
                mark(seg)
        sieve = FactorSieve(limit, raw)
        sieve.threads = threads
        return sieve

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
        """Canonical factorization of n (1 <= n <= limit); n=1 gives ().

        The chase n -> n / spf(n) reads raw entries; the segments it touched
        are checked once, before the result is returned.  A raw entry that is
        no prime factor of its n ends the chase, so a corrupt table fails its
        check (or, without checksums, raises ValueError) instead of looping.
        """
        self._check(n)
        raw, pairs, seen = self.spf.raw, [], []
        while n > 1:
            seen.append(n)
            p = raw.item(n) or n  # 0 marks a prime
            if p < 2 or n % p:
                break
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        self.spf.check(m // _CRC_SEGMENT for m in seen)  # lazy: no work without checksums
        if n > 1:
            raise ValueError(f"sieve table entry {p} at n={n} is no prime factor of it")
        return Factorization(tuple(pairs))

    def primes(self, upto: int | None = None) -> np.ndarray:
        """All primes <= upto (default: the sieve limit), as int64."""
        upto = self.limit if upto is None else int(upto)
        if upto < 2:
            return np.empty(0, dtype=np.int64)
        self._check(upto)
        # n >= 2 is prime iff its raw entry is 0; counting the nonzero entries
        # first sizes the output exactly, with no temporary
        blocks = [(lo, min(lo + _BLOCK, upto + 1)) for lo in range(2, upto + 1, _BLOCK)]
        block = self.spf.block
        out = np.empty(sum(hi - lo - np.count_nonzero(block(lo, hi)) for lo, hi in blocks),
                       np.int64)
        k = 0
        for lo, hi in blocks:
            idx = np.flatnonzero(block(lo, hi) == 0)
            np.add(idx, lo, out=out[k:k + idx.size])
            k += idx.size
        return out

    # -- bulk tables -------------------------------------------------------

    def _each_block(self, upto: int, body):
        """body(lo, hi) for every block of _blocks(upto), band by band.

        A band of at least _POOL_BAND blocks runs on a pool of self.threads
        workers when there are two or more; every other band runs on the
        calling thread, block by block in order.  A block reads only entries
        below its band, all written before the band starts.
        """
        pool = None
        try:
            for band in _bands(upto):
                if self.threads > 1 and len(band) >= _POOL_BAND:
                    pool = pool or ThreadPoolExecutor(max_workers=self.threads)
                    list(pool.map(lambda lohi: body(*lohi), band))
                else:
                    for lo, hi in band:
                        body(lo, hi)
        finally:
            if pool is not None:
                pool.shutdown()

    def _split(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """(rest, e) over 0..upto with n = spf(n)^e[n] * rest[n]; rest = 1, e = 0
        at n < 2.  Memoized; a larger upto rebuilds the pair."""
        if self._rest_e is None or self._rest_e[0].size <= upto:
            spf = self.spf
            raw = spf.raw  # a block reads below its band: read, so checked, first
            rest = np.ones(upto + 1, dtype=np.uint32)
            e = np.zeros(upto + 1, dtype=np.int8)

            def block(lo, hi):
                p = spf[lo:hi]
                div32 = np.arange(lo, hi, dtype=np.uint32) // p
                div = div32.astype(np.intp)  # take() is fastest with intp indices
                # raw[div] == p misses n = p^2, where div = p is a prime stored
                # as 0; raw[1] = 0 never matches
                same = (raw.take(div) == p) | (div32 == p)
                rest[lo:hi] = np.where(same, rest.take(div), div32)
                e[lo:hi] = e.take(div) * same + 1

            self._each_block(upto, block)
            self._rest_e = rest, e
        rest, e = self._rest_e
        return rest[: upto + 1], e[: upto + 1]

    def _kernel(self, rule, dtype, additive: bool, upto: int, reads_p: bool = True):
        """out[n] = out[n / p^e] (+ or *) rule(p, e) for 2 <= n <= upto.

        rule is vectorized over a block's (spf uint32, e int8) arrays; a rule
        of e alone takes reads_p=False and gets p=None, which spares decoding
        the table.  out[1] is the unit of the combination and out[0] = 0.
        """
        rest, e = self._split(upto)
        spf = self.spf
        out = np.zeros(upto + 1, dtype=dtype)
        if not additive and upto >= 1:
            out[1] = 1

        def block(lo, hi):
            head = out.take(rest[lo:hi].astype(np.intp))
            g = rule(spf[lo:hi] if reads_p else None, e[lo:hi])
            # a fixed operand order: numpy's SIMD complex multiply is not
            # bitwise commutative
            out[lo:hi] = np.add(head, g) if additive else np.multiply(head, g)

        self._each_block(upto, block)
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
                memo = self._kernel(*_RULES[name], upto=upto, reads_p=name not in _E_ONLY)
            elif name == "squarefree":
                memo = _kfree_windows(2, upto, self)(0, upto + 1)
            else:
                raise ValueError(f"unknown sieve table {name!r}; tables are "
                                 f"{', '.join([*_RULES, 'squarefree'])}")
            self._tables[name] = memo
        return memo[: upto + 1]

    # -- cache file --------------------------------------------------------

    def save(self, path: str | os.PathLike):
        """Write the v2 cache file atomically: magic, LE limit, one LE crc32 per
        2^16-entry segment, then the LE uint16 table."""
        body = self.spf.block(0, self.limit + 1).astype("<u2", copy=False)
        crcs = np.array([zlib.crc32(body[lo:lo + _CRC_SEGMENT])
                         for lo in range(0, body.size, _CRC_SEGMENT)], dtype="<u4")
        _atomic_write(path, CACHE_MAGIC, struct.pack("<Q", self.limit), crcs, body)

    @staticmethod
    def load(path: str | os.PathLike) -> "FactorSieve":
        """Map a cache file and spot-check 1024 seeded entries by trial
        division, run as one array pass (_spot_check_truth).

        The table is memory-mapped read-only, so a request reads from disk
        only the pages of the prefix it uses, and checks their segments'
        crc32 as it first reads them.  A file without the v2 magic is
        refused with a ValueError that names `katailab sieve` for the rebuild.
        """
        with open(path, "rb") as fh:
            header = fh.read(_HEADER)
            magic = header[:8]
            if magic != CACHE_MAGIC:
                raise ValueError(f"bad sieve cache magic {magic!r} in {path}; "
                                 f"rebuild it with `katailab sieve`")
            if len(header) < _HEADER:
                raise ValueError(f"sieve cache truncated: {len(header)}-byte header")
            (limit,) = struct.unpack("<Q", header[8:])
            if not (2 <= limit <= MAX_LIMIT):
                raise ValueError(f"sieve cache limit {limit} out of range")
            segments = -(-(limit + 1) // _CRC_SEGMENT)
            head = fh.read(4 * segments)
            if len(head) < 4 * segments:
                raise ValueError(f"sieve cache truncated: {len(head) // 4} of "
                                 f"{segments} checksums")
            crcs = np.frombuffer(head, dtype="<u4")
            offset = _HEADER + len(head)
            entries = (os.fstat(fh.fileno()).st_size - offset) // 2
            if entries < limit + 1:
                raise ValueError(f"sieve cache truncated: {entries} of "
                                 f"{limit + 1} entries")
            raw = np.memmap(fh, dtype="<u2", mode="r", offset=offset,
                            shape=(limit + 1,))
            raw = raw.view(np.ndarray)  # plain array ops; the view keeps the map open
        # raw entries: no crc32 is attached yet, so the scattered samples do
        # not set off a check of every segment
        sample = _spot_check_sample(limit)
        got = SpfTable(raw)[sample]
        bad = np.flatnonzero(got != _spot_check_truth(sample, limit))
        if bad.size:
            raise ValueError(f"sieve cache failed spot check at n={int(sample[bad[0]])}")
        return FactorSieve(int(limit), raw, crcs)


def _blocks(upto: int):
    # hi <= 2 * lo keeps n / p^e below the block; the cap keeps each block's
    # temporaries small enough to stay in cache
    lo = 2
    while lo <= upto:
        hi = min(2 * lo, lo + _BLOCK, upto + 1)
        yield lo, hi
        lo = hi


def _bands(upto: int):
    """_blocks(upto) as lists of consecutive blocks with hi <= 2 L, L the lo of
    the band's first block, so that n / p^e <= n / 2 < L for every n of it."""
    band = []
    for lo, hi in _blocks(upto):
        if band and hi > 2 * band[0][0]:
            yield band
            band = []
        band.append((lo, hi))
    if band:
        yield band


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
_E_ONLY = frozenset({"big_omega", "small_omega", "mobius", "tau"})  # rules that ignore p


def _kfree_windows(k: int, x: int, sieve: FactorSieve):
    """(lo, hi) -> bool window of 0..x: no p^k divides n (n = 0 is False),
    by striking the multiples of each p^k <= x inside the window."""
    primes = sieve.primes(int(x ** (1.0 / k)) + 1).tolist()
    qs = [p ** k for p in primes if p ** k <= x]

    def window(lo, hi):
        out = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            out[:1] = False  # n = 0
        for q in qs:
            out[-lo % q::q] = False
        return out

    return window


def _simple_spf(limit: int) -> np.ndarray:
    """The uint16 table of FactorSieve up to a small limit (< 2^32), sieved directly."""
    spf = np.zeros(limit + 1, dtype=np.uint16)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
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
