"""Report containers and their CSV / JSON serialization.

Every experiment emits a checkpointed numeric series.  CSV files carry a
``# config: {...}`` provenance comment followed by an RFC-4180 header row;
JSON files are a single object {config, series, summary}.  Writes are atomic
(temp file + rename) so an interrupted run never leaves a torn report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .summation import last_decade


@dataclass
class DensityReport:
    """|E cap [1,x]| / x along a checkpoint grid."""

    checkpoints: list
    densities: list

    @property
    def last_value(self) -> float:
        return float(self.densities[-1])

    @property
    def max_oscillation_last_decade(self) -> float:
        ds = np.asarray(self.densities, dtype=np.float64)
        keep = last_decade(self.checkpoints)
        return float(ds[keep].max() - ds[keep].min())

    def rows(self):
        return ("x", "count_ratio"), [
            (int(x), float(d)) for x, d in zip(self.checkpoints, self.densities)
        ]

    def summary(self):
        return {
            "last_value": self.last_value,
            "max_oscillation_last_decade": self.max_oscillation_last_decade,
        }


@dataclass
class MeanValueReport:
    """Running empirical means, optionally paired with an Euler-product value."""

    checkpoints: list
    means: list  # complex
    product: complex | None = None
    prime_cutoff: int | None = None
    tail_bound: float | None = None

    @property
    def final_discrepancy(self) -> float | None:
        if self.product is None:
            return None
        return abs(self.means[-1] - self.product)

    def rows(self):
        header = ("x", "re_mean", "im_mean", "abs_mean")
        body = [
            (int(x), complex(m).real, complex(m).imag, abs(complex(m)))
            for x, m in zip(self.checkpoints, self.means)
        ]
        return header, body

    def summary(self):
        out = {"final_mean": _cplx(self.means[-1])}
        if self.product is not None:
            out.update(
                product=_cplx(self.product),
                prime_cutoff=self.prime_cutoff,
                tail_bound=self.tail_bound,
                final_discrepancy=self.final_discrepancy,
            )
        return out


@dataclass
class SeriesReport:
    """Partial sums of a named prime series with an advisory divergence slope.

    Series built from nonnegative terms must have nondecreasing partial sums;
    this is asserted at construction (set nonnegative_terms=False for signed
    series like the additive first-moment sum).
    """

    name: str
    cutoffs: list
    partial_sums: list
    slope: float = 0.0
    nonnegative_terms: bool = True

    SLOPE_NOTE = "advisory: least-squares slope of partial sum vs log log y over the last decade"

    def __post_init__(self):
        if self.nonnegative_terms:
            for a, b in zip(self.partial_sums, self.partial_sums[1:]):
                if b < a - 1e-12:
                    raise ValueError(
                        f"series {self.name!r} declared nonnegative but its "
                        f"partial sums decrease ({a} -> {b})"
                    )

    def rows(self):
        return ("y", "partial_sum", "slope"), [
            (int(y), float(s), self.slope)
            for y, s in zip(self.cutoffs, self.partial_sums)
        ]

    def summary(self):
        return {"name": self.name, "final_sum": float(self.partial_sums[-1]),
                "slope": self.slope, "slope_note": self.SLOPE_NOTE}


@dataclass
class CorrelationReport:
    """Normalized dilated correlations (1/x) sum a(pn) conj(a(qn))."""

    p: int
    q: int
    checkpoints: list
    correlations: list  # complex
    references: list | None = None  # closed-form |value| when available

    def rows(self):
        header = ("x", "value", "reference", "slope")
        body = []
        for i, (x, c) in enumerate(zip(self.checkpoints, self.correlations)):
            ref = "" if self.references is None else float(self.references[i])
            body.append((int(x), abs(complex(c)), ref, ""))
        return header, body

    def summary(self):
        return {
            "p": self.p, "q": self.q,
            "final_abs_correlation": abs(complex(self.correlations[-1])),
        }


@dataclass
class DecayProfile:
    """|S(x)|/x along a geometric grid with the fitted log-log slope."""

    checkpoints: list
    values: list
    slope: float = 0.0

    def rows(self):
        # an empty reference column: the layout of CorrelationReport
        return ("x", "value", "reference", "slope"), [
            (int(x), float(v), "", self.slope) for x, v in zip(self.checkpoints, self.values)
        ]

    def summary(self):
        return {"final_value": float(self.values[-1]), "slope": self.slope}


@dataclass
class DiscrepancyReport:
    """Star discrepancy and Weyl sums W_N(k), k = 1..k_max, of a mod-1 sequence."""

    n_points: int
    dstar: float
    weyl: list  # complex, index k-1

    @property
    def max_abs_weyl(self) -> float:
        return max(abs(complex(w)) for w in self.weyl)

    def rows(self):
        header = ("N", "k", "re_W", "im_W", "abs_W", "Dstar")
        body = [
            (self.n_points, k + 1, complex(w).real, complex(w).imag,
             abs(complex(w)), self.dstar)
            for k, w in enumerate(self.weyl)
        ]
        return header, body

    def summary(self):
        return {"N": self.n_points, "dstar": self.dstar, "max_abs_weyl": self.max_abs_weyl}


@dataclass
class CdfReport:
    """Empirical distribution function on a fixed threshold grid."""

    thresholds: list
    cdf: list

    def rows(self):
        return ("threshold", "cdf"), [
            (float(t), float(y)) for t, y in zip(self.thresholds, self.cdf)
        ]

    def summary(self):
        return {"points": len(self.thresholds), "final": float(self.cdf[-1])}


@dataclass
class ThreeSeriesReport:
    """The three additive-function convergence series, side by side."""

    large_values: SeriesReport
    first_moment: SeriesReport
    second_moment: SeriesReport

    def series(self):
        return self.large_values, self.first_moment, self.second_moment

    def rows(self):
        header = ("y", "large_values", "first_moment", "second_moment")
        body = [
            (int(y), float(a), float(b), float(c))
            for y, a, b, c in zip(self.large_values.cutoffs,
                                  *(s.partial_sums for s in self.series()))
        ]
        return header, body

    def summary(self):
        return {
            "final": {s.name: float(s.partial_sums[-1]) for s in self.series()},
            "advisory_slopes": [s.slope for s in self.series()],
        }


@dataclass
class TuranKubiliusReport:
    """Exact variance of w(n) = #{p in P : p | n} against the x*m + |P|^2 budget."""

    x: int
    primes: list
    m: Fraction
    variance: Fraction

    @property
    def budget(self) -> Fraction:
        return self.x * self.m + Fraction(len(self.primes) ** 2)

    @property
    def ratio(self) -> float:
        return float(Fraction(self.variance) / self.budget)

    def rows(self):
        header = ("x", "num_primes", "m", "variance", "ratio")
        body = [(self.x, len(self.primes), float(self.m),
                 float(self.variance), self.ratio)]
        return header, body

    def summary(self):
        return {
            "x": self.x, "m": str(self.m), "variance": str(self.variance),
            "ratio": self.ratio,
        }


@dataclass
class TuranKubiliusTable:
    """One TuranKubiliusReport row per x, in order; the summary is the last x's,
    so a one-report table renders the bytes of that report."""

    reports: list

    def rows(self):
        header = self.reports[0].rows()[0]
        return header, [row for r in self.reports for row in r.rows()[1]]

    def summary(self):
        return self.reports[-1].summary()


def _cplx(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _atomic_write(path, *chunks):
    """Write the bytes-like chunks to path through a temp file and a rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(report, config: dict) -> bytes:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\r\n")
    header, body = report.rows()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue().encode()


def write_csv(report, config: dict, path):
    _atomic_write(path, render_csv(report, config))


def render_json(report, config: dict) -> bytes:
    header, body = report.rows()
    series = [dict(zip(header, row)) for row in body]
    obj = {"config": config, "series": series, "summary": report.summary()}
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


def write_json(report, config: dict, path):
    _atomic_write(path, render_json(report, config))
