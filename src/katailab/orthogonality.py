"""Dilated correlations, orthogonality decay over level sets, and the
finite-prime-set variance bound.

The correlation test computes (1/x) sum_{n<=x} a(pn) conj(a(qn)) for distinct
primes p, q; for linear exponential sequences the geometric closed form
|sin(pi x (p-q) theta) / (x sin(pi (p-q) theta))| is attached as a reference.
Decay of (1/x)|sum 1_E(n) a(n)| is reported on a geometric grid with a fitted
log-log slope; nothing here claims an asymptotic, the profiles reproduce fixed
desk-scale numbers.

Phases a(pn) are always evaluated at the integer pn, through the fixed-point
turns of a linear phase or the double-double path, never by scaling a(n):
phase accuracy is what every downstream test hangs on.  A polynomial phase
takes its dd monomials c_i n^i from monomials_dd, the generator that
equidist's polynomial floors share.

A PhaseSequence is a(n) = e(phi(n)), so a correlation term a(pn) conj(a(qn))
is e(phi(pn) - phi(qn)).  Each phase comes as turns(n), {phi(n)} in units
of 2^-64 as a uint64, and the term is e of the difference turns(pn) -
turns(qn), exact mod 2^64, through _e_turns, the integer front-end of
e_of's kernel: one e(x) per term, not two and a complex product.  With
u = 2^-53: if each turns(n) is within tau units of {phi(n)} 2^64, the
difference is within 2 tau, _e_turns adds at most 2 units, e is
2 pi-Lipschitz, and the kernel adds at most (9/8) sqrt2 u.  So a term is
within 2 pi (2 tau + 2) 2^-64 + (9/8) sqrt2 u of e(phi(pn) - phi(qn)).
A LinearExponential takes theta.turns, with tau < 3.001 for pn below 2^53
(constants.Constant.turns), so its term is within 1.62 u < 1.8e-16: the
`phase` row of constants.BUDGETS limits the correlation's length, not its
accuracy.  Other phase sequences scale their float phases by 2^64, so
tau = eps 2^64 + 1 for phases within eps of exact mod 1.  polynomial_frac
adds one rounding per monomial, so a quadratic with no constant term has
eps <= 3u + 2^-60 and a term within 39.5 u < 4.4e-15 while (pn)^2 <= 2^40.
The phase route sums each ddmath.BLOCK slice on its own and hands
checkpoint_sums one sum per slice, as equidist.weyl_sums does.  Other
sequences keep np.multiply(a(pn), conj(a(qn))) over a whole 2^16-entry
chunk, bit for bit, one ddmath.blockwise() slice at a time.

e(x) = cos 2 pi x + i sin 2 pi x is table-driven (Tang, ACM TOMS 15, 1989),
with no libm call, so its bits do not depend on the CPU numpy dispatches to.
x is first shifted by rint(x), exactly, so any finite phase is accepted.
Then y = 256 x splits as j + d with j = rint(y), and d = y - j is exact
with |d| <= 1/2.  Short Horner polynomials give 1 - cos r and sin r for
r = 2 pi d / 256, |r| <= pi/256, and one rotation by the correctly rounded
cos and sin of 2 pi j / 256 from a 256-entry table finishes the job: each
component is within 2^-53 + 2^-56 of the exact value (the derivation is in
_e_rotate).  The table is built on first use from mpmath cospi/sinpi, so
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
from .constants import Constant, as_constant, require_below
from .levelsets import LevelSet
from .reports import CorrelationReport, DecayProfile, TuranKubiliusReport
from .sieve import FactorSieve
from .summation import checkpoint_grid, checkpoint_sums, checkpoints_upto, sorted_checkpoints


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
    ctx = mpmath.MPContext()  # its own 40 digits: the first call may be in a worker thread
    ctx.dps = 40
    turns = [ctx.mpf(j) / (_E_TABLE_SIZE // 2) for j in range(_E_TABLE_SIZE)]
    table = (np.array([float(ctx.cospi(t)) for t in turns]),
             np.array([float(ctx.sinpi(t)) for t in turns]))
    for part in table:
        part.flags.writeable = False  # shared by every later call
    return table


def _e_block(x):
    """e(x) for one 1-d block of float phases (the derivation is in _e_rotate).

    x is shifted by rint(x), exactly; then y = 256 x splits as j + d with
    j = rint(y), and d = y - j is exact with |d| <= 1/2.
    """
    d = np.rint(x)
    np.subtract(x, d, out=d)  # exact: a multiple of ulp(x) of size <= 1/2
    d *= _E_TABLE_SIZE
    j = np.rint(d)
    d -= j  # exact again, |d| <= 1/2
    idx = j.astype(np.intp)
    idx &= _E_TABLE_SIZE - 1  # j mod 256; NaN phases stay NaN through r
    return _e_rotate(np.multiply(d, _E_STEP, out=d), idx, j)


def _e_turns(t):
    """e(t 2^-64) for one 1-d block of uint64 turns: _e_block's integer front-end.

    t + 2^55 (mod 2^64) holds j, the top 8 bits of t rounded to nearest,
    in its top byte, and its low 56 bits less 2^55 are the signed
    remainder t - j 2^56, exactly, in [-2^55, 2^55).  That remainder is
    d 2^56 for _e_block's d; it converts to float64 within 2 units, and
    exactly when it has 53 significant bits or fewer, and r = d _E_STEP is
    one product by _E_STEP 2^-56.  So a float phase x in [2^-12, 1), whose
    x 2^64 is an integer, gives e_of(x) bit for bit, except at the ties
    256 x = j + 1/2, which this rounds up and rint rounds to even.
    """
    a = t + np.uint64(1 << 55)
    idx = (a >> np.uint64(56)).astype(np.intp)
    a &= np.uint64((1 << 56) - 1)
    rem = a.view(np.int64)
    rem -= 1 << 55
    r = rem.astype(np.float64)
    r *= _E_STEP * 2.0**-56
    return _e_rotate(r, idx, a.view(np.float64))  # a is spent: its buffer is the work


def _e_rotate(r, idx, work):
    """e(j/256 + r/(2 pi)) for |r| <= pi/256 and table indices idx = j mod 256;
    overwrites the float buffers r and work.

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
    r2 = np.multiply(r, r, out=work)
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
    out = np.empty(r.shape, dtype=np.complex128)
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

    def turns(self, n: np.ndarray) -> np.ndarray:
        """{phi(n)} in units of 2^-64, as uint64: the float phases times
        2^64, exact for phases >= 2^-12 and truncated by under a unit below."""
        return np.multiply(self.phase_array(n), 2.0**64).astype(np.uint64)

    def eval_array(self, n):
        return e_of(self.phase_array(n))


class LinearExponential(PhaseSequence):
    """a(n) = e(n * theta); theta a tagged constant or exact rational."""

    def __init__(self, theta):
        self.theta = as_constant(theta)
        self.name = f"e(n*{self.theta})"

    def phase_array(self, n):
        return self.theta.frac_mul(np.asarray(n, dtype=np.int64))

    def turns(self, n):
        return self.theta.turns(n)

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
            raise ValueError("table sequence indexed past its length")
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
    separately in dd by ddmath.frac_into; coefficients are Constants or
    raw (hi, lo) pairs.  Every n^i must pass the `monomial` row of
    constants.BUDGETS."""
    n = np.asarray(n, dtype=np.int64)
    coeff_dd = [c if isinstance(c, tuple) else c.dd for c in coefficients]
    nmax, deg = max(int(n.max(initial=0)), -int(n.min(initial=0))), len(coeff_dd) - 1
    require_below("monomial", nmax**deg, f"monomial n^{deg}", f" at n={nmax}")

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
    """a(pn) conj(a(qn)) for one block of n; for phases, e of the uint64
    turn difference turns(pn) - turns(qn), exact mod 2^64."""
    if isinstance(seq, PhaseSequence):
        d = seq.turns(p * n)
        d -= seq.turns(q * n)
        return _e_turns(d)
    return np.multiply(seq.eval_array(p * n), np.conj(seq.eval_array(q * n)))


def _block_sums(seq, p, q, lo, hi):
    """checkpoint_sums' values_of for a PhaseSequence: one sum of the terms
    per ddmath.BLOCK slice of [lo, hi), as equidist.weyl_sums does."""
    return np.array([np.sum(_correlation_terms(seq, p, q, np.arange(
        b, min(b + ddmath.BLOCK, hi), dtype=np.int64))) for b in range(lo, hi, ddmath.BLOCK)])


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
    if isinstance(seq, LinearExponential):
        require_below("phase", top, f"n*max(p,q) = {top}")
    require_below("int64", top, f"n*max(p,q) = {top}")
    if isinstance(seq, PolynomialExponential):  # polynomial_frac reads n as a float64
        require_below("argument", top, f"n*max(p,q) = {top}")

    if isinstance(seq, PhaseSequence):
        values_of = functools.partial(_block_sums, seq, p, q)
    else:
        values_of = _blockwise_terms(functools.partial(_correlation_terms, seq, p, q))
    sums = checkpoint_sums(values_of, checkpoints, threads=threads)
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
