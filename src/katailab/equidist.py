"""Hardy-function catalog, fractional parts along level sets, Weyl sums,
star discrepancy, and the ergodic-sequence tests.  Weyl sums and ergodic
averages go through summation.checkpoint_sums, the one reduction path.

The admissible catalog covers t^c (c > 0 non-integer), polynomials with an
irrational coefficient above degree 0, log^r t (r > 2), t log t, t / log t,
and log Gamma(t).  Admissibility is enforced by construction-time parameter
windows, not by symbolic growth analysis; the two falsification modes the
experiments need (log^r with r <= 2, all-rational polynomials) are
constructible only behind an explicit negative_control flag.

Fractional parts go through the double-double layer (monomials reduced
per-monomial, budget-guarded at n^i < 2^80), one ddmath.blockwise() slice at
a time from n to the final float; floors of rational powers go through exact
integer k-th roots.  A polynomial's phases and its floors take their dd
monomials c_i n^i from the one generator orthogonality.monomials_dd: the
phases reduce each monomial mod 1, the floors add them to c_0 in full.
Values at n = 1 follow the germ-at-infinity convention: every catalog
variant is assigned fractional part 0 and floor h(1) there, so sets
containing 1 stay usable.

A DiscrepancyReport makes one pass over its N points for all the Weyl sums
W_N(k) = (1/N) sum_j e(k x_j), k = 1..k_max (weyl_sums).  checkpoint_sums
hands out its 2^16-entry chunks, and each ddmath.BLOCK slice of a chunk
takes z = e_of(x) once.  The powers z^k = z^(k-1) z are then formed as
(a c - b d) + i (a d + b c) in float multiplies and adds, in that order,
with no complex np.multiply, so their bits do not depend on the CPU.  A
slice keeps one running power, and one partial sum per k, so the memory
does not grow with k_max.  Error per term, with u = 2^-53: e_of is within
e1 = (9/8) sqrt2 u of e(x) (orthogonality docstring), and a product spelled
so is within sqrt5 u |z^(k-1)| |z| of the exact product of its operands
(Brent, Percival and Zimmermann, Math. Comp. 76, 2007).  So the error e_k
of the k-th power obeys e_1 <= e1 and
e_k <= (1 + e1)(1 + sqrt5 u) e_(k-1) + e1 + sqrt5 u (1 + e1),
hence e_k <= k (e1 + sqrt5 u)(1 + 4u)^k, less than 3.83 k u e^(4ku):
below 4.3e-16 k for every k <= 2^40.  weyl_sum(seq, k), the route for one
frequency, takes e_of(k x) instead; k x rounds by at most k u, so its
terms are within 2 pi k u + e1 of e(k x).  Both then add their terms
through numpy's pairwise sums and checkpoint_sums' fixed tree.

D*_N (star_discrepancy) is max_i max(i/N - x_(i), x_(i) - (i-1)/N) over
the sorted points (Kuipers and Niederreiter, Uniform Distribution of
Sequences, 1974, ch. 2).  Any sort gives the same sorted values, so numpy's
default sort is used, and the terms are taken one ddmath.BLOCK slice of the
sorted copy at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ddmath
from .constants import Constant, as_constant
from .levelsets import LevelSet, first_members
from .orthogonality import e_of, monomials_dd, polynomial_frac
from .reports import DecayProfile, DiscrepancyReport
from .sieve import FactorSieve, SieveRangeError
from .specs import Family, Spelling, constant
from .summation import checkpoint_sums, checkpoints_upto, geometric_checkpoints


class AdmissibilityError(ValueError):
    """Hardy-function parameters violate the required growth window."""


class HardyFunction:
    """One member of the admissible catalog, with dd-accurate evaluation.

    growth_window records where the variant sits for the floor-sequence
    tests: "sublinear" (between log^2 t and t) or "between t^k and t^(k+1)";
    None when it grows like a power of t exactly (polynomials).  admissible
    says whether the separation from rational polynomials exceeds log^2, by
    construction; only a negative_control build can leave it False.
    """

    def __init__(self, variant, *, c=None, coefficients=None, r=None,
                 negative_control=False):
        self.variant = variant
        self.c = c if c is None else as_constant(c)
        self.r = r if r is None else as_constant(r)
        self.coefficients = (None if coefficients is None
                             else [as_constant(x) for x in coefficients])
        self.negative_control = bool(negative_control)
        self._validate()

    def _validate(self):
        v = self.variant
        self.admissible = True
        if v == "power":
            cf = float(self.c)
            if cf <= 0:
                raise AdmissibilityError("power exponent must be positive")
            if not self.c.is_irrational and self.c.value_exact.denominator == 1:
                raise AdmissibilityError(
                    "integer exponent: t^c is itself a rational polynomial, "
                    "violating the separation-from-polynomials condition"
                )
            self.growth_window = ("sublinear" if cf < 1
                                  else f"between t^{int(cf)} and t^{int(cf) + 1}")
        elif v == "polynomial":
            if self.coefficients is None or len(self.coefficients) < 2:
                raise AdmissibilityError("polynomial needs degree >= 1")
            self.admissible = any(c.is_irrational for c in self.coefficients[1:])
            if not self.admissible and not self.negative_control:
                raise AdmissibilityError(
                    "no irrational coefficient above degree 0: the phase "
                    "stays within O(1) of a rational polynomial; pass "
                    "negative_control=True to build the falsification mode"
                )
            self.growth_window = None
        elif v == "log_power":
            self.admissible = float(self.r) > 2
            if not self.admissible and not self.negative_control:
                raise AdmissibilityError(
                    "log^r t with r <= 2 does not dominate log^2 t; pass "
                    "negative_control=True to build the falsification mode"
                )
            self.growth_window = "sublinear"
        elif v in ("t_log_t", "log_gamma"):
            self.growth_window = "between t^1 and t^2"
        elif v == "t_over_log_t":
            self.growth_window = "sublinear"
        else:
            raise ValueError(f"unknown Hardy variant {v!r}")

    # -- evaluation ----------------------------------------------------------

    def _dd_values(self, t: np.ndarray):
        td = ddmath.from_float(t)
        v = self.variant
        if v == "power":
            return _dd_power(td, self.c)
        if v == "log_power":
            return _dd_power(ddmath.log(td), self.r)
        if v == "t_log_t":
            return ddmath.mul(td, ddmath.log(td))
        if v == "t_over_log_t":
            return ddmath.div(td, ddmath.log(td))
        if v == "log_gamma":
            return ddmath.log_gamma(td)
        raise AssertionError(v)

    def eval(self, t: float) -> float:
        """Point evaluation as float64; requires t >= 2 for the log variants."""
        t = float(t)
        if self.variant == "polynomial":
            return float(sum(float(c) * t**i for i, c in enumerate(self.coefficients)))
        if t < 2:
            raise ValueError("evaluate at t >= 2 (log singularities below)")
        if self.variant == "log_gamma" and t.is_integer() and t < 20:
            return math.log(math.factorial(int(t) - 1))  # exact route
        h, l = self._dd_values(np.asarray([t]))
        return float(h[0] + l[0])

    def fractional_parts(self, n: np.ndarray) -> np.ndarray:
        """{h(n)} for an int64 array; n = 1 contributes 0 by the germ convention."""
        n = np.asarray(n, dtype=np.int64)
        if self.variant == "polynomial":
            return polynomial_frac(self.coefficients, n)
        out = np.zeros(n.shape, dtype=np.float64)
        big = n >= 2
        if big.any():
            out[big] = ddmath.blockwise(lambda t: ddmath.frac(self._dd_values(t)),
                                        n[big].astype(np.float64))
        return out

    def dilated_difference_parts(self, p: int, q: int, n: np.ndarray) -> np.ndarray:
        """{h(pn) - h(qn)}: the sequence behind the dilation criterion."""
        n = np.asarray(n, dtype=np.int64)
        if self.variant == "polynomial":
            # a_i ((pn)^i - (qn)^i) = (a_i (p^i - q^i)) n^i: scale each
            # coefficient exactly in dd and reuse the monomial reduction
            scaled = [ddmath.mul_f(c.dd, float(p**i - q**i))
                      for i, c in enumerate(self.coefficients)]
            return polynomial_frac(scaled, n)

        def parts(m):
            hp = self._dd_values((p * m).astype(np.float64))
            hq = self._dd_values((q * m).astype(np.float64))
            return ddmath.frac(ddmath.sub(hp, hq))

        return ddmath.blockwise(parts, n)

    def floor_values(self, n: np.ndarray) -> np.ndarray:
        """floor(h(n)) as exact int64; overflow-guarded at 2^62.

        Rational power exponents go through exact integer k-th roots; the
        other variants use the double-double value (exact up to its ~2^-40
        worst-case margin near an integer).
        """
        n = np.asarray(n, dtype=np.int64)
        if np.any(n < 0):
            raise ValueError(f"floor_values needs n >= 0, got n = {int(n[n < 0][0])}")
        if self.variant == "power" and not self.c.is_irrational:
            return _rational_power_floors(n, self.c.value_exact.numerator,
                                          self.c.value_exact.denominator)
        vals = np.zeros(n.shape, dtype=np.int64)
        big = n >= 2
        if self.variant == "polynomial":
            big = n >= 1

        def floors(m):
            if self.variant == "polynomial":  # the full dd value, not reduced mod 1
                c0 = ddmath.from_float(np.full(m.shape, float(self.coefficients[0])))
                h, l = functools.reduce(ddmath.add, monomials_dd(
                    [c.dd for c in self.coefficients[1:]], m), c0)
            else:
                h, l = self._dd_values(m.astype(np.float64))
            fh, fl = ddmath.floor((h, l))
            # the floor of a normalized dd rounds to at most h, so keeping h
            # past the guard gives f >= 2^62 exactly where h is, same argmax
            return np.where(h >= float(2**62), h, fh + fl)

        if big.any():
            f = ddmath.blockwise(floors, n[big])
            if np.any(f >= float(2**62)):
                bad = int(n[big][int(np.argmax(f))])
                raise SieveRangeError(f"h({bad}) overflows the 2^62 floor guard")
            vals[big] = f.astype(np.int64)
        if self.variant == "power":
            vals[~big] = 1  # 1^c = 1
        return vals

    def to_json(self):
        out = {"hardy": self.variant}
        if self.c is not None:
            out["c"] = self.c.to_json()
        if self.r is not None:
            out["r"] = self.r.to_json()
        if self.coefficients is not None:
            out["coefficients"] = [c.to_json() for c in self.coefficients]
        if self.negative_control:
            out["negative_control"] = True
        return out


# The root route's s-th power multiplies the v-th root's rounding error by
# s < v; up to v = 128 that stays near the error of exp(c log t) at t = 2^40.
ROOT_MAX_DENOMINATOR = 128


def _dd_power(x, c: Constant):
    """x**c for dd x > 0: ddmath.rational_pow for a positive rational c with
    denominator up to ROOT_MAX_DENOMINATOR, exp(c log x) otherwise."""
    if c.kind == "rational" and c.value_exact > 0:
        u, v = c.value_exact.numerator, c.value_exact.denominator
        if v <= ROOT_MAX_DENOMINATOR:
            return ddmath.rational_pow(x, u, v)
    return ddmath.pow_dd(x, c.dd)


def _rational_power_floors(n: np.ndarray, u: int, v: int) -> np.ndarray:
    """floor(m^(u/v)) for an int64 array with m >= 0, exact; guarded at 2^62.

    Entries with m^u < 2^62 take the int64 route of _int64_roots; the
    rest go through exact Python integers, in order, so the guard names the
    same first m as an elementwise loop would.
    """
    flat = n.reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    fast = flat <= _int_root(2**62 - 1, u)
    out[fast] = _int64_roots(flat[fast] ** u, v)
    for i in np.flatnonzero(~fast):
        m = int(flat[i])
        root = _int_root(m**u, v)
        if root >= 2**62:
            raise SieveRangeError(f"floor(h({m})) = {root} overflows the 2^62 guard")
        out[i] = root
    return out.reshape(n.shape)


def _int64_roots(mu: np.ndarray, k: int) -> np.ndarray:
    """floor(mu^(1/k)) for an int64 array with 0 <= mu < 2^62, exact."""
    r = np.floor(mu.astype(np.float64) ** (1.0 / k)).astype(np.int64)
    # the float estimate is off by a unit or so; step it onto the root
    while (over := ~_pow_at_most(r, k, mu)).any():
        r[over] -= 1
    while (under := _pow_at_most(r + 1, k, mu)).any():
        r[under] += 1
    return r


def _pow_at_most(r: np.ndarray, k: int, mu: np.ndarray) -> np.ndarray:
    """r^k <= mu for int64 r >= 0 and mu < 2^62, with no int64 overflow."""
    fits = r.astype(np.float64) ** k < 2.0**62.5
    return fits & (np.where(fits, r, 0) ** k <= mu)


def _int_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for nonnegative integer m, exact."""
    if k == 1:
        return m
    if k == 2:
        return math.isqrt(m)
    r = int(round(m ** (1.0 / k)))
    while r > 0 and r**k > m:
        r -= 1
    while (r + 1) ** k <= m:
        r += 1
    return r


def power(c) -> HardyFunction:
    return HardyFunction("power", c=c)


def polynomial(coefficients, negative_control=False) -> HardyFunction:
    return HardyFunction("polynomial", coefficients=coefficients,
                         negative_control=negative_control)


def log_power(r, negative_control=False) -> HardyFunction:
    return HardyFunction("log_power", r=r, negative_control=negative_control)


def t_log_t() -> HardyFunction:
    return HardyFunction("t_log_t")


def t_over_log_t() -> HardyFunction:
    return HardyFunction("t_over_log_t")


def log_gamma() -> HardyFunction:
    return HardyFunction("log_gamma")


# negative_control is a JSON-only field: no shorthand builds a falsification mode
SPELLINGS = Family("hardy", "hardy", [
    Spelling("power", "power", {"c": constant}, lambda o: power(Constant.from_json(o["c"]))),
    Spelling("polynomial", "poly", {"coefficients": [constant]},
             lambda o: polynomial([Constant.from_json(c) for c in o["coefficients"]],
                                  o.get("negative_control", False))),
    Spelling("log_power", "logpow", {"r": constant},
             lambda o: log_power(Constant.from_json(o["r"]), o.get("negative_control", False))),
    Spelling("t_log_t", "tlogt", {}, lambda o: t_log_t()),
    Spelling("t_over_log_t", "toverlogt", {}, lambda o: t_over_log_t()),
    Spelling("log_gamma", "loggamma", {}, lambda o: log_gamma()),
])
from_json = SPELLINGS.from_json


# -- mod-1 sequences and their statistics ------------------------------------


@dataclass
class Mod1Sequence:
    """Fractional parts in [0,1)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        # min and max propagate NaN, and every comparison with NaN is False
        if v.size and not (v.min() >= 0.0 and v.max() < 1.0):
            raise ValueError("mod-1 sequence entries must be finite and lie in [0, 1)")
        self.values = v

    def __len__(self):
        return int(self.values.size)


def fractional_parts_along(h: HardyFunction, spec: LevelSet, count: int,
                           sieve: FactorSieve) -> Mod1Sequence:
    """{h(n_j)} over the first `count` members of the set."""
    return Mod1Sequence(h.fractional_parts(first_members(spec, count, sieve)))


def weyl_sum(seq: Mod1Sequence, k: int) -> complex:
    """W_N(k) = (1/N) sum_j e(k x_j); k a nonzero integer."""
    if k == 0:
        raise ValueError("Weyl sums need a nonzero frequency k")
    if len(seq) == 0:
        raise ValueError("empty sequence")
    x = seq.values
    # e_of reduces any real phase exactly, so k x goes in as it is
    total = checkpoint_sums(lambda lo, hi: e_of(k * x[lo - 1:hi - 1]), [x.size])[0]
    return complex(total / x.size)  # numpy scalars divide as .mean() does


def weyl_sums(seq: Mod1Sequence, k_max: int, threads: int = 1) -> list[complex]:
    """[W_N(1), ..., W_N(k_max)] from one pass over the points: one e(x)
    per point, and z^k = z^(k-1) z (module docstring); the same bits for
    any thread count."""
    _require_positive("k_max", k_max)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    x = seq.values

    def block_sums(lo, hi):  # one column per block, reduced by checkpoint_sums
        xs = x[lo - 1:hi - 1]
        return np.stack([_power_sums(xs[b:b + ddmath.BLOCK], k_max)
                         for b in range(0, xs.size, ddmath.BLOCK)], axis=-1)

    total = checkpoint_sums(block_sums, [x.size], threads=threads)[0]
    return [complex(w) for w in total / x.size]


def _power_sums(x: np.ndarray, k_max: int) -> np.ndarray:
    """sum_j z_j^k for k = 1..k_max over one block, z = e(x)."""
    z = e_of(x)
    zr, zi = z.real.copy(), z.imag.copy()
    re, im = zr.copy(), zi.copy()  # the running power z^k
    t, v = np.empty_like(zr), np.empty_like(zr)
    sums = np.empty(k_max, dtype=np.complex128)
    for k in range(k_max):
        if k:
            np.multiply(re, zi, out=t)
            np.multiply(im, zi, out=v)
            re *= zr
            re -= v  # a c - b d
            im *= zr
            im += t  # b c + a d
        sums[k] = complex(np.sum(re), np.sum(im))
    return sums


def star_discrepancy(seq: Mod1Sequence) -> float:
    """D*_N = max_i max(i/N - x_(i), x_(i) - (i-1)/N) over the sorted points."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    pts = np.sort(seq.values)
    n = pts.size
    worst = 0.0  # below D*_N: at i = 1 one of 1/N - x_(1) and x_(1) is positive
    for lo in range(0, n, ddmath.BLOCK):
        x = pts[lo:lo + ddmath.BLOCK]
        i = np.arange(lo + 1, lo + 1 + x.size, dtype=np.float64)
        t = np.divide(i, n)
        t -= x  # i/N - x_(i)
        worst = max(worst, t.max())
        i -= 1
        np.divide(i, n, out=t)
        np.subtract(x, t, out=t)  # x_(i) - (i-1)/N
        worst = max(worst, t.max())
    return float(worst)


def ud_test(h: HardyFunction, spec: LevelSet, count: int, k_max: int,
            sieve: FactorSieve, threads: int = 1) -> DiscrepancyReport:
    """Equidistribution report for {h(n_j)}: W_N(k) for k <= k_max, and D*."""
    _require_positive("count", count)
    _require_positive("k_max", k_max)
    return _discrepancy_report(fractional_parts_along(h, spec, count, sieve), k_max,
                               threads)


def pq_dilation_check(h: HardyFunction, p: int, q: int, count: int,
                      k_max: int, threads: int = 1) -> DiscrepancyReport:
    """Equidistribution report for {h(pn) - h(qn)}, n = 1..count."""
    if p == q:
        raise ValueError("dilation check needs distinct primes p != q")
    _require_positive("count", count)
    _require_positive("k_max", k_max)
    n = np.arange(1, count + 1, dtype=np.int64)
    return _discrepancy_report(Mod1Sequence(h.dilated_difference_parts(p, q, n)), k_max,
                               threads)


def _require_positive(name: str, value: int):
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _discrepancy_report(seq: Mod1Sequence, k_max: int, threads: int = 1) -> DiscrepancyReport:
    return DiscrepancyReport(len(seq), star_discrepancy(seq), weyl_sums(seq, k_max, threads))


def floor_sequence(h: HardyFunction, spec: LevelSet, count: int,
                   sieve: FactorSieve) -> np.ndarray:
    """floor(h(n_j)) over the first `count` members, exact int64."""
    _require_positive("count", count)
    members = first_members(spec, count, sieve)
    return h.floor_values(members)


def ergodic_weyl_test(integers, alpha, grid=None) -> DecayProfile:
    """(1/N)|sum_{j<=N} e(m_j alpha)| at each prefix N of the grid; the
    default grid is 100, 1000, ... below the sequence length, then the length."""
    integers = np.asarray(integers, dtype=np.int64)
    n = integers.size
    if n == 0:
        raise ValueError("empty sequence")
    alpha = as_constant(alpha)
    grid = checkpoints_upto(geometric_checkpoints(n, per_decade=1, x_min=100)
                            if grid is None else grid, n, "N")
    if not grid:
        raise ValueError("empty grid")
    sums = checkpoint_sums(lambda lo, hi: e_of(alpha.frac_mul(integers[lo - 1:hi - 1])),
                           grid)
    vals = [abs(s) / g for s, g in zip(sums, grid)]
    return DecayProfile(grid, vals)


def total_ergodicity_test(spec: LevelSet, alpha, count: int, sieve: FactorSieve,
                          grid=None, negative_control=False) -> DecayProfile:
    """(1/N)|sum_{j<=N} e(n_j alpha)| over prefixes of the member sequence.

    Rational alpha is rejected (the characterization quantifies over
    irrational frequencies) unless negative_control=True, the documented
    falsification mode.
    """
    alpha = as_constant(alpha)
    if not alpha.is_irrational and not negative_control:
        raise ValueError(
            "total ergodicity is characterized by Weyl averages at irrational "
            "frequencies; rational alpha needs negative_control=True"
        )
    _require_positive("count", count)
    return ergodic_weyl_test(first_members(spec, count, sieve), alpha, grid)

