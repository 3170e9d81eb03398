"""Dilated correlations, orthogonality decay over level sets, and the
finite-prime-set variance bound.

The correlation test computes (1/x) sum_{n<=x} a(pn) conj(a(qn)) for distinct
primes p, q; for linear exponential sequences the geometric closed form
|sin(pi x (p-q) theta) / (x sin(pi (p-q) theta))| is attached as a reference.
Decay of (1/x)|sum 1_E(n) a(n)| is reported on a geometric grid with a fitted
log-log slope; nothing here claims an asymptotic, the profiles reproduce fixed
desk-scale numbers.

Phases a(pn) are always evaluated at the integer pn through the double-double
path, never by scaling a(n): phase accuracy is what every downstream test
hangs on.  A polynomial phase takes its dd monomials c_i n^i from
monomials_dd, the generator that equidist's polynomial floors share.

A PhaseSequence is a(n) = e(phi(n)), so a correlation term a(pn) conj(a(qn))
is e(phi(pn) - phi(qn)): the float phases {phi(pn)} and {phi(qn)} are
subtracted and one e(x) is taken of the difference, not two e(x) and a
complex product.  With u = 2^-53: if each phase is within eps of its exact
value mod 1, the difference, in (-1, 1), rounds by at most u/2; e is
2 pi-Lipschitz, |e(a) - e(b)| = 2 |sin pi (a - b)|; and e_of adds at most
(9/8) sqrt2 u.  So a term is within 2 pi (2 eps + u/2) + (9/8) sqrt2 u of
e(phi(pn) - phi(qn)).  Constant.frac_mul has eps <= u + 2^-60 while
|n theta| <= 2^42: its last addition lands below 2, and its other roundings
act on numbers below 2^-10.  A LinearExponential term is then within
17.3 u < 1.93e-15 for pn up to PHASE_BUDGET.  polynomial_frac adds one
rounding per monomial, so a quadratic with no constant term has
eps <= 3u + 2^-60 and a term within 42.5 u < 4.8e-15 while (pn)^2 <= 2^40.
Other sequences keep np.multiply(a(pn), conj(a(qn))), bit for bit.  Both
summands run one ddmath.blockwise() slice at a time, so a 2^16-entry chunk
holds only its indices and its terms.

e(x) = cos 2 pi x + i sin 2 pi x is table-driven (Tang, ACM TOMS 15, 1989),
with no libm call, so its bits do not depend on the CPU numpy dispatches to.
x is first shifted by rint(x), exactly, so any finite phase is accepted.
Then y = 256 x splits as j + d with j = rint(y), and d = y - j is exact
with |d| <= 1/2.  Short Horner polynomials give 1 - cos r and sin r for
r = 2 pi d / 256, |r| <= pi/256, and one rotation by the correctly rounded
cos and sin of 2 pi j / 256 from a 256-entry table finishes the job: each
component is within 2^-53 + 2^-56 of the exact value (the derivation is in
_e_block).  The table is built on first use from mpmath cospi/sinpi, so
e(0), e(1/4), e(1/2) and e(3/4) come out exact, and the kernel runs one
ddmath.blockwise() slice at a time into a few reused buffers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np

from . import ddmath
from .constants import Constant, as_constant
from .levelsets import LevelSet
from .reports import CorrelationReport, DecayProfile, TuranKubiliusReport
from .sieve import FactorSieve, SieveRangeError
from .summation import checkpoint_grid, checkpoint_sums, checkpoints_upto, sorted_checkpoints

PHASE_BUDGET = 2**40


_E_TABLE_SIZE = 256
_E_STEP = math.pi / 128  # 2 pi / 256, correctly rounded: math.pi scaled by 2^-7


def e_of(frac: np.ndarray) -> np.ndarray:
    """e(x) = cos 2 pi x + i sin 2 pi x, elementwise, for any real phases x."""
    frac = np.asarray(frac, dtype=np.float64)
    return ddmath.blockwise(_e_block, frac.reshape(-1)).reshape(frac.shape)


@functools.cache
def _e_table():
    """cos and sin of 2 pi j / 256 for j < 256, each correctly rounded.

    mpmath's cospi and sinpi are exact at the multiples of 1/2, so the
    quarter points are exactly 0 and +-1.
    """
    with mpmath.workdps(40):
        turns = [mpmath.mpf(j) / (_E_TABLE_SIZE // 2) for j in range(_E_TABLE_SIZE)]
        table = (np.array([float(mpmath.cospi(t)) for t in turns]),
                 np.array([float(mpmath.sinpi(t)) for t in turns]))
    for part in table:
        part.flags.writeable = False  # shared by every later call
    return table


def _e_block(x):
    """e(x) for one 1-d block of float phases.

    With 2 pi x = 2 pi j / 256 + r, e(x) = (C + iS)(1 - m + i s) for the
    table entries C, S of j and m = 1 - cos r, s = sin r, that is
    C - (C m + S s) + i (S + (C s - S m)).

    Error per component, unit roundoff u = 2^-53, following the rounding
    model of Joldes, Muller and Popescu (ACM TOMS 44, 2017): the last
    subtraction or addition rounds by at most u/2 (its result lies below 1
    in magnitude unless it is exact), and the table entry by at most u/2.
    Everything else is summed into the correction term, of size at most
    |m| + |s| <= 0.0124: r carries 2u |r| <= 2.8e-18 from d times the
    rounded 2 pi / 256, s another u |s| <= 1.4e-18, the two products and
    their sum 2u 0.0124 <= 2.8e-18, the table's rounding times m and s
    7e-19, and the dropped series terms r^9/9! and r^8/8! below 2e-23.
    That is under 8e-18 < u/8, so each component is within u + u/8 =
    1.25e-16 of cos 2 pi x or sin 2 pi x, and the complex value within
    1.8e-16 of e(x).
    """
    cos_t, sin_t = _e_table()
    d = np.rint(x)
    np.subtract(x, d, out=d)  # exact: a multiple of ulp(x) of size <= 1/2
    d *= _E_TABLE_SIZE
    j = np.rint(d)
    d -= j  # exact again, |d| <= 1/2
    idx = j.astype(np.intp)
    idx &= _E_TABLE_SIZE - 1  # j mod 256; NaN phases stay NaN through r
    r = np.multiply(d, _E_STEP, out=d)
    r2 = np.multiply(r, r, out=j)
    # m = 1 - cos r = r^2 (1/2 - r^2 (1/24 - r^2/720))
    m = np.multiply(r2, 1.0 / 720)
    np.subtract(1.0 / 24, m, out=m)
    m *= r2
    np.subtract(0.5, m, out=m)
    m *= r2
    # s = sin r = r - r^3 (1/6 - r^2 (1/120 - r^2/5040))
    s = np.multiply(r2, 1.0 / 5040)
    np.subtract(1.0 / 120, s, out=s)
    s *= r2
    np.subtract(1.0 / 6, s, out=s)
    r2 *= r
    s *= r2
    np.subtract(r, s, out=s)
    c = cos_t.take(idx)
    sn = sin_t.take(idx)
    out = np.empty(x.shape, dtype=np.complex128)
    re, im = out.real, out.imag
    t = np.multiply(sn, s, out=r)
    np.multiply(c, m, out=re)
    re += t
    np.subtract(c, re, out=re)
    np.multiply(c, s, out=im)
    np.multiply(sn, m, out=t)
    im -= t
    im += sn
    return out


class BoundedSequence:
    """A bounded complex sequence a(n) evaluated on int64 index arrays."""

    name = "abstract"

    def eval_array(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PhaseSequence(BoundedSequence):
    """a(n) = e(phi(n)), given by its phases {phi(n)} in [0, 1).

    katai_correlation takes e(phi(pn) - phi(qn)) for such a sequence: one
    e(x) per term instead of two and a complex product.
    """

    def phase_array(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_array(self, n):
        return e_of(self.phase_array(n))


class LinearExponential(PhaseSequence):
    """a(n) = e(n * theta); theta a tagged constant or exact rational."""

    def __init__(self, theta):
        self.theta = as_constant(theta)
        self.name = f"e(n*{self.theta})"

    def phase_array(self, n):
        return self.theta.frac_mul(np.asarray(n, dtype=np.int64))

    def to_json(self):
        return {"sequence": "linear_exponential", "theta": self.theta.to_json()}


class PolynomialExponential(PhaseSequence):
    """a(n) = e(c_k n^k + ... + c_1 n + c_0), phases per-monomial in dd."""

    def __init__(self, coefficients):
        # coefficients[i] multiplies n^i
        self.coefficients = [as_constant(c) for c in coefficients]
        self.name = "e(poly deg %d)" % (len(self.coefficients) - 1)

    def phase_array(self, n):
        return polynomial_frac(self.coefficients, np.asarray(n, dtype=np.int64))


class ConstantSequence(BoundedSequence):
    def __init__(self, value):
        self.value = complex(value)
        self.name = f"const({value})"

    def eval_array(self, n):
        return np.full(np.asarray(n).shape, self.value, dtype=complex)


class TableSequence(BoundedSequence):
    """a(n) read from an explicit table (index 1-based)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)
        self.name = f"table({self.values.size})"

    def eval_array(self, n):
        n = np.asarray(n, dtype=np.int64)
        if int(n.max(initial=0)) > self.values.size:
            raise SieveRangeError("table sequence indexed past its length")
        return self.values[n - 1]


def monomials_dd(coeff_dd, m: np.ndarray):
    """Yield c_i m^i in dd for i = 1, 2, ...: m^i = ddmath.mul(m^(i-1), m),
    then ddmath.mul(m^i, c_i), both written in place by ddmath.mul_into.
    coeff_dd holds the (hi, lo) pairs c_1, c_2, ... of one polynomial;
    polynomial_frac and the polynomial floors both draw their monomials
    from here.  Each yielded pair is a fresh pair of arrays that the
    consumer owns."""
    mf = m.astype(np.float64)
    npow = (np.ones(m.shape), np.zeros(m.shape))  # m^0 = from_float(1)
    work = [np.empty(m.shape) for _ in range(4)]
    for c in coeff_dd:
        ddmath.mul_into(npow, (mf, 0.0), npow, work)
        yield ddmath.mul_into(npow, c, (np.empty(m.shape), np.empty(m.shape)), work)


def polynomial_frac(coefficients, n: np.ndarray) -> np.ndarray:
    """{sum_i c_i n^i} with each monomial (from monomials_dd) reduced
    separately in dd by ddmath.frac_into.

    Coefficients are Constants or raw (hi, lo) pairs.  Errors out once n^i
    reaches 2^80: past that the two-term representation cannot keep the
    fractional part meaningful.
    """
    n = np.asarray(n, dtype=np.int64)
    nmax = int(n.max(initial=0))
    coeff_dd = [c if isinstance(c, tuple) else c.dd for c in coefficients]
    for i in range(1, len(coeff_dd)):
        if nmax**i >= 2**80:
            raise SieveRangeError(
                f"monomial n^{i} exceeds the 2^80 phase-precision budget "
                f"at n={nmax}"
            )

    def frac_sum(m):
        total = np.zeros(m.shape, dtype=np.float64)
        work = [np.empty(m.shape) for _ in range(4)]
        for term in monomials_dd(coeff_dd[1:], m):
            total += ddmath.frac_into(term, work)
        # constant term shifts every phase identically; include it for fidelity
        if coeff_dd:
            total += (coeff_dd[0][0] + coeff_dd[0][1]) % 1.0
        total -= np.floor(total, out=work[0])
        np.subtract(total, 1.0, out=total, where=total >= 1.0)
        return total

    return ddmath.blockwise(frac_sum, n)


def correlation_reference(theta: Constant, p: int, q: int, x: int) -> float:
    """|sin(pi x (p-q) theta) / (x sin(pi (p-q) theta))| via dd phases."""
    beta_num = p - q
    bx = theta.frac_mul(np.array([beta_num * x], dtype=np.int64))[0]
    b1 = theta.frac_mul(np.array([beta_num], dtype=np.int64))[0]
    denom = x * abs(math.sin(math.pi * b1))
    if denom == 0.0:
        return 1.0
    return abs(math.sin(math.pi * bx)) / denom


def _blockwise_terms(term):
    """checkpoint_sums' values_of: term(n) on [lo, hi), by ddmath.blockwise()."""
    return lambda lo, hi: ddmath.blockwise(term, np.arange(lo, hi, dtype=np.int64))


def _correlation_terms(seq, p, q, n):
    """a(pn) conj(a(qn)) for one block of n; e(phi(pn) - phi(qn)) for phases."""
    if isinstance(seq, PhaseSequence):
        return _e_block(np.subtract(seq.phase_array(p * n), seq.phase_array(q * n)))
    return np.multiply(seq.eval_array(p * n), np.conj(seq.eval_array(q * n)))


def katai_correlation(seq: BoundedSequence, p: int, q: int, x: int,
                      checkpoints=None, threads: int = 1) -> CorrelationReport:
    """Normalized correlations (1/x') sum_{n<=x'} a(pn) conj(a(qn))."""
    if p == q:
        raise ValueError("correlation needs distinct primes p != q")
    if p < 1 or q < 1:
        raise ValueError(f"correlation needs p, q >= 1, got p={p} q={q}")
    checkpoints = sorted_checkpoints([] if checkpoints is None else checkpoints) or [int(x)]
    # the sum runs to the last checkpoint, which may lie past x
    top = max(int(x), checkpoints[-1]) * max(int(p), int(q))
    if isinstance(seq, LinearExponential) and top > PHASE_BUDGET:
        raise SieveRangeError(f"n*max(p,q) = {top} exceeds the 2^40 phase budget")
    if top >= 2**63:
        raise SieveRangeError(f"n*max(p,q) = {top} does not fit in int64")

    term = functools.partial(_correlation_terms, seq, p, q)
    sums = checkpoint_sums(_blockwise_terms(term), checkpoints, threads=threads)
    corr = [s / c for s, c in zip(sums, checkpoints)]
    refs = None
    if isinstance(seq, LinearExponential):
        refs = [correlation_reference(seq.theta, p, q, c) for c in checkpoints]
    return CorrelationReport(p, q, checkpoints, corr, refs)


def orthogonality_sum(spec: LevelSet, seq: BoundedSequence, x: int,
                      checkpoints, sieve: FactorSieve,
                      threads: int = 1) -> DecayProfile:
    """|sum_{n<=x'} 1_E(n) a(n)| / x' on the checkpoint grid, with slope."""
    sieve.require_upto("x", x)
    checkpoints = checkpoints_upto(checkpoint_grid(checkpoints, x), x, "x")
    members = spec.reader(x, sieve)

    def terms(lo, hi):
        member = members(lo, hi)
        return ddmath.blockwise(
            lambda n: np.multiply(seq.eval_array(n), member[n[0] - lo:n[-1] + 1 - lo]),
            np.arange(lo, hi, dtype=np.int64))

    sums = checkpoint_sums(terms, checkpoints, threads=threads)
    vals = [abs(s) / c for s, c in zip(sums, checkpoints)]
    return DecayProfile(checkpoints, vals)


def turan_kubilius_variance(prime_set, x: int, sieve: FactorSieve) -> TuranKubiliusReport:
    """Exact variance sum_{n<=x} (w(n) - m)^2 for w(n) = #{p in P : p | n}.

    m = sum 1/p and the variance are exact rationals, computed from the
    integer moment sums S1 = sum w, S2 = sum w^2 (int64-safe for every
    x <= 2^31 and |P| <= a few thousand).
    """
    primes = sorted(int(p) for p in set(prime_set))
    if not primes:
        raise ValueError("prime set must be nonempty")
    if max(primes) > x:
        raise ValueError(f"max(P) = {max(primes)} exceeds x = {x}")
    sieve.require_upto("x", x)
    if primes[0] < 2:
        raise ValueError(f"{primes[0]} is not prime")
    ps = np.array(primes, dtype=np.int64)
    composite = ps[sieve.spf[ps] != ps]
    if composite.size:
        raise ValueError(f"{int(composite[0])} is not prime")

    w = np.zeros(x + 1, dtype=np.int16)
    for p in primes:
        w[p::p] += 1
    s1 = int(w.sum(dtype=np.int64))  # w is indexed by n, and w[0] = 0
    s2 = int(checkpoint_sums(lambda lo, hi: np.dot(b := w[lo:hi].astype(np.int64), b),
                             [x])[0])
    m = sum(Fraction(1, p) for p in primes)
    variance = Fraction(s2) - 2 * m * s1 + x * m * m
    return TuranKubiliusReport(x=x, primes=primes, m=m, variance=variance)
