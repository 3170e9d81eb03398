"""Deterministic chunked accumulation shared by all empirical averages.

Ranges are cut at checkpoint boundaries, then into fixed chunks of 2^16
values.  Each chunk is summed independently (numpy's pairwise kernel) and the
chunk results are combined by a fixed binary tree, so the result is
bit-identical no matter how many threads computed the chunks.
"""

from __future__ import annotations

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


def checkpoint_sums(values_of, checkpoints, threads: int = 1, start: int = 1):
    """Cumulative sums of values_of over [start, c] for each checkpoint c.

    values_of(lo, hi) must return the summand array for n in [lo, hi).
    Returns a list of cumulative sums, one per checkpoint, deterministic in
    the thread count.
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    segments = []
    prev = start
    for c in checkpoints:
        if c + 1 > prev:
            segments.append((prev, c + 1))
            prev = c + 1
        else:
            segments.append(None)  # duplicate/contained checkpoint

    def segment_sum(seg):
        lo, hi = seg
        chunks = _chunks(lo, hi)
        if threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(lambda c: np.sum(values_of(*c)), chunks))
        else:
            parts = [np.sum(values_of(*c)) for c in chunks]
        return pairwise_total(parts)

    out = []
    acc = None
    for seg in segments:
        if seg is not None:
            s = segment_sum(seg)
            acc = s if acc is None else acc + s
        out.append(acc if acc is not None else 0.0)
    return out


def fit_loglog_slope(xs, ys, decade: float = 10.0):
    """Least-squares slope of log10(y) vs log10(x) over the last decade of xs.

    Zero y values are dropped; returns 0.0 when fewer than two usable points
    remain (the advisory slope must stay finite).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = (xs >= xs.max() / decade) & (ys > 0)
    if keep.sum() < 2:
        return 0.0
    slope = np.polyfit(np.log10(xs[keep]), np.log10(ys[keep]), 1)[0]
    return float(slope)


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
