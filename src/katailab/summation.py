"""Checkpointed partial sums: the one reduction path of every empirical
mean, density, decay profile, correlation, Weyl sum, ergodic average,
Turan-Kubilius moment and prime series, plus the advisory slope fits.

checkpoint_sums (sums over n) cuts [1, c] at the checkpoints, then into
fixed chunks of 2^16 values.  Each chunk is summed independently (numpy's
pairwise kernel, along the last axis) and the chunk results are combined by
a fixed binary tree, so the result is bit-identical no matter how many
threads computed the chunks.  A chunk's summands may also come as rows, one
per sum: equidist.weyl_sums takes all W_N(k), k <= k_max, in one pass this
way, one column per ddmath.BLOCK slice of the chunk.
prime_series (sums over primes p <= y) adds the terms one prime at a time in
increasing order and reads the running sum off at each checkpoint.  The
slopes are centred least-squares fits in closed form over math.fsum sums
and math.log, with no LAPACK or numpy SIMD math, so their bits do not
depend on the CPU either.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 1 << 16


def pairwise_total(parts):
    """Fixed-shape binary-tree reduction of a list of scalars."""
    parts = list(parts)
    if not parts:
        return 0.0
    while len(parts) > 1:
        merged = [
            parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
        parts = merged
    return parts[0]


def _chunks(lo: int, hi: int):
    # chunk boundaries aligned to absolute multiples of CHUNK
    edges = [lo]
    first = (lo // CHUNK + 1) * CHUNK
    edges.extend(range(first, hi, CHUNK))
    edges.append(hi)
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i] < edges[i + 1]]


def sorted_checkpoints(checkpoints) -> list[int]:
    """The checkpoints as sorted ints; ValueError names the first one below 1."""
    checkpoints = [int(c) for c in checkpoints]
    bad = next((c for c in checkpoints if c < 1), None)
    if bad is not None:
        raise ValueError(f"checkpoints must be >= 1, got {bad}")
    return sorted(checkpoints)


def checkpoints_upto(checkpoints, x: int, label: str) -> list[int]:
    """sorted_checkpoints, and a ValueError naming the first one above label = x
    (a sum over n <= x has no value there)."""
    checkpoints = sorted_checkpoints(checkpoints)
    bad = next((c for c in checkpoints if c > x), None)
    if bad is not None:
        raise ValueError(f"checkpoints must be <= {label} = {x}, got {bad}")
    return checkpoints


def checkpoint_grid(checkpoints, x: int) -> list[int]:
    """geometric_checkpoints(x) for None, else the checkpoints and x as sorted
    distinct ints; ValueError names one that is below 1 or not finite.  A sum
    that stops at x composes this with checkpoints_upto; katai --correlation
    does not, since a correlation needs no sieve and may sum past x."""
    if checkpoints is None:
        return geometric_checkpoints(x)
    try:
        return sorted_checkpoints(sorted({int(c) for c in checkpoints} | {int(x)}))
    except OverflowError as err:  # int() of an infinity
        raise ValueError(f"checkpoints must be finite: {err}") from err


def checkpoint_sums(values_of, checkpoints, threads: int = 1):
    """Cumulative sums of values_of over [1, c] for each checkpoint c >= 1.

    values_of(lo, hi) must return the summand array for n in [lo, hi), a
    scalar that is already their sum, or a 2-d array whose rows are summed
    separately.  Returns a list of cumulative sums (or rows of sums), one per
    checkpoint, deterministic in the thread count.
    """
    def chunk_sum(ch):
        values = values_of(*ch)
        return np.sum(values, axis=-1 if np.ndim(values) else None)

    out, acc, lo = [], None, 1
    for c in sorted_checkpoints(checkpoints):
        if c + 1 > lo:  # a duplicate or contained checkpoint adds nothing
            chunks = _chunks(lo, c + 1)
            if threads > 1 and len(chunks) > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    parts = list(pool.map(chunk_sum, chunks))
            else:
                parts = [chunk_sum(ch) for ch in chunks]
            s = pairwise_total(parts)
            acc = s if acc is None else acc + s
            lo = c + 1
        out.append(0.0 if acc is None else acc)
    return out


def prime_series(sieve, y: int, checkpoints, terms):
    """Sorted checkpoints and the sums of terms over primes p <= min(y, c).

    terms(primes) gets the int64 primes up to min(y, last checkpoint) and
    returns one value (or one row of values) per prime; the result holds one
    sum (or row) per checkpoint, bit-equal to adding the terms one by one.
    """
    sieve.require_upto("y", y)
    checkpoints = sorted(int(c) for c in checkpoints)
    primes = sieve.primes(max(1, min(y, checkpoints[-1])))
    vals = np.asarray(terms(primes), dtype=np.float64)
    # the leading 0.0 also turns a first term of -0.0 into 0.0, as 0.0 + t does
    sums = np.cumsum(np.concatenate([np.zeros((1,) + vals.shape[1:]), vals]), axis=0)
    return checkpoints, sums[np.searchsorted(primes, checkpoints, side="right")]


def _least_squares_slope(us, vs) -> float:
    """Slope of the least-squares line through the points (u, v).

    The centred closed form sum (u - mean u)(v - mean v) / sum (u - mean u)^2,
    every sum taken by math.fsum, so the bits do not depend on numpy's CPU
    dispatch.  Returns 0.0 when all u coincide.
    """
    us, vs = [float(u) for u in us], [float(v) for v in vs]
    mu, mv = math.fsum(us) / len(us), math.fsum(vs) / len(vs)
    du = [u - mu for u in us]
    sxx = math.fsum(d * d for d in du)
    if sxx == 0.0:
        return 0.0
    return math.fsum(d * (v - mv) for d, v in zip(du, vs)) / sxx


def last_decade(xs) -> np.ndarray:
    """Mask of the xs within a factor of 10 of the largest."""
    xs = np.asarray(xs, dtype=np.float64)
    return xs >= xs.max() / 10.0


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log10(y) vs log10(x) over the last decade of xs.

    Zero y values are dropped; returns 0.0 when fewer than two usable points
    remain (the advisory slope must stay finite).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = last_decade(xs) & (ys > 0)
    if keep.sum() < 2:
        return 0.0
    return _least_squares_slope([math.log10(x) for x in xs[keep]],
                               [math.log10(y) for y in ys[keep]])


def divergence_slope(cutoffs, sums) -> float:
    """Advisory slope of the partial sum against log log y over the last decade.

    Slope near 1 suggests Mertens-type divergence; near 0 suggests convergence.
    Never a decision, only a report.
    """
    ys = np.asarray(cutoffs, dtype=np.float64)
    ss = np.asarray(sums, dtype=np.float64)
    keep = last_decade(ys) & (ys > math.e)
    if keep.sum() < 2:
        return 0.0
    return _least_squares_slope([math.log(math.log(y)) for y in ys[keep]], ss[keep])


def geometric_checkpoints(x: int, per_decade: int = 2, x_min: int = 10_000):
    """Default experiment grid: half-decade steps from x_min up to x."""
    if x <= x_min:
        return [int(x)]
    out = []
    k = 0
    while True:
        c = int(round(x_min * 10 ** (k / per_decade)))
        if c >= x:
            break
        out.append(c)
        k += 1
    out.append(int(x))
    return out
