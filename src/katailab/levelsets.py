"""Level sets of multiplicative functions: membership, enumeration, density.

Each set variant is one predicate on (f(n), n): contains(n) feeds it the
value from the factorization of n, reader(x) feeds it the sieve table of f
one 2^16-entry window at a time, so the two agree by construction.
members_upto(x) is the reader's window [0, x + 1), which first_members
scans; empirical_density, enumerate_members and orthogonality_sum reduce the
windows as they are made, with no whole-table bool copy.  A set's JSON spec
is {"variant": variant, **params}, params set once by its constructor, as an
ArithmeticFunction's are.
Rotation and real-threshold variants return a boundary flag when the decisive
quantity lands within eps_b of an interval endpoint or threshold (the verdict
itself is always by strict comparison).

Strict inequalities with rational thresholds (abundant numbers, phi(n) < x*n
with rational x) are decided in exact integer arithmetic, so e.g. perfect
numbers are excluded exactly.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import Constant, as_constant
from .functions import ArithmeticFunction, from_json as function_from_json
from .sieve import _RULES, FactorSieve, _kfree_windows
from .reports import DensityReport, SeriesReport
from .specs import Family, Spelling, constant
from .summation import CHUNK, checkpoint_sums, prime_series, sorted_checkpoints

BOUNDARY_EPS = 1e-12


class Verdict(NamedTuple):
    member: bool
    boundary: bool = False


class TruncationError(ValueError):
    """The sieve ran out before the requested member count was reached."""

    def __init__(self, requested, attained, limit):
        super().__init__(
            f"set has only {attained} members up to the sieve limit {limit}, "
            f"{requested} requested"
        )
        self.requested, self.attained = requested, attained


@dataclass(frozen=True)
class Interval:
    """One interval of [0,1] with open/closed end markers like "[)"."""

    lo: Constant
    hi: Constant
    closed: str = "[)"

    def __post_init__(self):
        if self.closed not in ("[)", "[]", "()", "(]"):
            raise ValueError(f"bad interval closure {self.closed!r}")
        if not (0.0 <= float(self.lo) <= 1.0 and 0.0 <= float(self.hi) <= 1.0):
            raise ValueError("interval endpoints must lie in [0, 1]")
        if float(self.lo) > float(self.hi):
            raise ValueError("interval endpoints out of order")

    def contains(self, x: np.ndarray) -> np.ndarray:
        lo, hi = float(self.lo), float(self.hi)
        left = x >= lo if self.closed[0] == "[" else x > lo
        right = x <= hi if self.closed[1] == "]" else x < hi
        return left & right

    def to_json(self):
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json(), "closed": self.closed}


class IntervalSetMod1:
    """Finite union of pairwise-disjoint intervals of the unit circle."""

    def __init__(self, intervals, eps=BOUNDARY_EPS):
        parts = []
        for iv in intervals:
            if isinstance(iv, Interval):
                parts.append(iv)
            else:
                lo, hi, *rest = iv
                closed = rest[0] if rest else "[)"
                parts.append(Interval(as_constant(lo), as_constant(hi), closed))
        parts.sort(key=lambda iv: float(iv.lo))
        for a, b in zip(parts, parts[1:]):
            if float(b.lo) < float(a.hi):
                raise ValueError("intervals overlap after normalization")
        total = sum(float(iv.hi) - float(iv.lo) for iv in parts)
        if total > 1.0 + 1e-15:
            raise ValueError("total interval length exceeds 1")
        if not (isinstance(eps, (int, float)) and not isinstance(eps, bool)
                and math.isfinite(eps) and eps >= 0):
            raise ValueError(f"window eps must be a finite number >= 0, got {eps!r}")
        self.intervals = parts
        self.eps = eps

    def contains(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape, dtype=bool)
        for iv in self.intervals:
            out |= iv.contains(x)
        return out

    def near_boundary(self, x: np.ndarray) -> np.ndarray:
        """Within eps of an endpoint, as a mod-1 distance."""
        out = np.zeros(x.shape, dtype=bool)
        for iv in self.intervals:
            for endpoint in (float(iv.lo), float(iv.hi)):
                d = np.abs(x - endpoint)
                d = np.minimum(d, 1.0 - d)
                out |= d < self.eps
        return out

    def to_json(self):
        return {"intervals": [iv.to_json() for iv in self.intervals], "eps": self.eps}

    @staticmethod
    def from_json(obj):
        ivs = [
            Interval(Constant.from_json(o["lo"]), Constant.from_json(o["hi"]), o["closed"])
            for o in obj["intervals"]
        ]
        return IntervalSetMod1(ivs, obj.get("eps", BOUNDARY_EPS))


# ---------------------------------------------------------------------------


class LevelSet:
    """Base: a membership predicate on (value, n), where value is f(n).

    contains(n) applies the predicate to the value from the factorization of
    n, reader(x) applies the same predicate to the sieve table of f, one
    window at a time.  A subclass names its JSON variant and its sieve table
    (or overrides _value / _values) and gives _holds, plus _boundary where the
    verdict can sit on a real endpoint.  A window passes _holds the int64 n of
    the window only if the predicate sets reads_n; otherwise n is None, which
    spares a window-sized temporary.
    """

    name = "abstract"
    params = {}
    is_multiplicative_set = False
    table = None  # sieve table holding f
    reads_n = False

    def _value(self, n, sieve):
        return _factor_value(self.table, n, sieve)

    def _values(self, x, sieve):
        """Window reader (lo, hi) -> f(n) for lo <= n < hi, tables built here."""
        table = sieve.table(self.table, x)
        return lambda lo, hi: table[lo:hi]

    def _windows(self, x, sieve):
        """(lo, hi) -> membership of lo <= n < hi, for windows of at most
        CHUNK entries; every table is built here."""
        values = self._values(x, sieve)
        if not self.reads_n:
            return lambda lo, hi: self._holds(values(lo, hi), None)
        return lambda lo, hi: self._holds(values(lo, hi), np.arange(lo, hi, dtype=np.int64))

    def _holds(self, v, n):
        raise NotImplementedError

    def _boundary(self, v, n):
        return False

    def contains(self, n: int, sieve: FactorSieve) -> Verdict:
        v = self._value(n, sieve)
        return Verdict(bool(self._holds(v, n)), bool(self._boundary(v, n)))

    def reader(self, x: int, sieve: FactorSieve):
        """read(lo, hi): membership of lo <= n < hi, 0 <= lo <= hi <= x + 1,
        as a fresh bool array (n = 0 is no member).

        Every sieve table the predicate needs is built here, on the calling
        thread, so read may run in checkpoint_sums' workers.  The predicate
        runs one CHUNK-entry window at a time, so its temporaries stay small
        at any window size.
        """
        sieve.require_upto("x", x)
        window = self._windows(x, sieve)

        def read(lo, hi):
            out = np.empty(hi - lo, dtype=bool)
            for a in range(lo, hi, CHUNK):
                b = min(a + CHUNK, hi)
                out[a - lo:b - lo] = window(a, b)
            if lo == 0 and hi > 0:
                out[0] = False
            return out

        return read

    def members_upto(self, x: int, sieve: FactorSieve) -> np.ndarray:
        return self.reader(x, sieve)(0, x + 1)

    def to_json(self):
        return {"variant": self.variant, **self.params}

    def __repr__(self):
        return f"LevelSet({json.dumps(self.to_json(), sort_keys=True)})"


def _factor_value(table, n, sieve):
    """table[n] from the factorization of n, by the sieve kernel's own rule."""
    rule, _, additive = _RULES[table]
    parts = [rule(p, e) for p, e in sieve.factorize(n)]
    return int(sum(parts) if additive else math.prod(parts))


class KFree(LevelSet):
    """No p^k divides n."""

    variant = "kfree"
    is_multiplicative_set = True

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("k-free needs k >= 2")
        self.k, self.name = int(k), f"{k}free"
        self.params = {"k": self.k}

    def _value(self, n, sieve):
        return all(e < self.k for _, e in sieve.factorize(n))

    def _values(self, x, sieve):
        return _kfree_windows(self.k, x, sieve)

    def _holds(self, v, n):
        return v


class Squarefree(KFree):
    """KFree(2), read from the sieve's memoized squarefree table."""

    variant = name = "squarefree"

    def __init__(self):
        self.k = 2  # no JSON fields: name and params stay the class's

    def _values(self, x, sieve):
        table = sieve.table("squarefree", x)
        return lambda lo, hi: table[lo:hi]


class _CountMod(LevelSet):
    """{n : f(n) = r mod b} for an integer-valued sieve table f."""

    def __init__(self, b: int, r: int, table: str, variant: str):
        self.b, self.r, self.table, self.variant = int(b), int(r) % int(b), table, variant
        self.name = f"{variant}({b},{r})"
        self.params = {"b": self.b, "r": self.r}

    def _holds(self, v, n):
        # a lookup over 0..max(v): v % b overflows the int8 tables for b >= 128
        return (np.arange(int(np.max(v)) + 1) % self.b == self.r).take(v)


# the prefix of an omega spelling's tag, by the sieve table it counts
_OMEGA_PREFIX = {"small_omega": "omega", "big_omega": "big_omega"}


def _omega_prefix(counted):
    if counted not in _OMEGA_PREFIX:
        raise ValueError("counted must be 'big_omega' or 'small_omega'")
    return _OMEGA_PREFIX[counted]


class OmegaMod(_CountMod):
    """Residue class of omega(n) or Omega(n) modulo b."""

    def __init__(self, b: int, r: int, counted="big_omega"):
        if b < 1:
            raise ValueError("modulus must be positive")
        super().__init__(b, r, counted, f"{_omega_prefix(counted)}_mod")


class TauMod(_CountMod):
    """{n : tau(n) = r mod b} with gcd(b, r) = 1."""

    def __init__(self, b: int, r: int):
        if b < 1 or math.gcd(b, r) != 1:
            raise ValueError("tau_mod needs b >= 1 and gcd(b, r) = 1")
        super().__init__(b, r, "tau", "tau_mod")


class OmegaRot(LevelSet):
    """{n : alpha * omega(n) mod 1 in J} (or with Omega)."""

    def __init__(self, alpha, window: IntervalSetMod1, counted="big_omega"):
        self.alpha, self.window = as_constant(alpha), window
        self.variant, self.table = f"{_omega_prefix(counted)}_rot", counted
        self.name = f"{self.variant}({self.alpha})"
        self.params = {"alpha": self.alpha.to_json(), "window": window.to_json()}

    def _fracs(self, k):
        return self.alpha.frac_mul(np.arange(int(np.max(k)) + 1, dtype=np.int64))

    def _holds(self, k, n):
        return self.window.contains(self._fracs(k))[k]

    def _boundary(self, k, n):
        return self.window.near_boundary(self._fracs(k))[k]


class _SigmaVersusDouble(LevelSet):
    """sigma(n) against 2n, strict: perfect numbers are in neither set."""

    table = "sigma"
    reads_n = True


class Abundant(_SigmaVersusDouble):
    """sigma(n) > 2n, strict (perfect numbers excluded exactly)."""

    variant = name = "abundant"

    def _holds(self, v, n):
        return v > 2 * n


class Deficient(_SigmaVersusDouble):
    """sigma(n) < 2n, strict."""

    variant = name = "deficient"

    def _holds(self, v, n):
        return v < 2 * n


class PhiRatioBelow(LevelSet):
    """{n : phi(n) < x * n}; exact for rational x, flagged near real x."""

    variant = "phi_ratio_below"
    table = "phi"
    reads_n = True

    def __init__(self, threshold):
        self.threshold = as_constant(threshold)
        t = float(self.threshold)
        if not (0.0 < t < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        if self.threshold.kind == "rational" and self.threshold.value_exact.denominator > 2**31:
            # keeps phi * den and num * n below 2^62 in int64 for n <= 2^31
            raise ValueError(f"threshold {self.threshold} has a denominator above "
                             f"2^31; give a shorter decimal or a fraction p/q")
        self.name = f"phi_ratio_below({self.threshold})"
        self.params = {"threshold": self.threshold.to_json()}

    def _holds(self, v, n):
        if self.threshold.kind == "rational":
            q = self.threshold.value_exact
            # int64 on both routes: the int32 phi table times den would wrap
            return np.int64(v) * q.denominator < q.numerator * n
        return v < float(self.threshold) * n

    def _boundary(self, v, n):
        return (self.threshold.kind != "rational"
                and abs(v / n - float(self.threshold)) < BOUNDARY_EPS)


class GenericLevel(LevelSet):
    """E(f, z): exact level set of an arithmetic function, with a tolerance.

    Default tolerance: 0 for integer-valued f (exact equality), 1e-9 in
    modulus otherwise.
    """

    variant = "generic_level"

    def __init__(self, fn: ArithmeticFunction, target, tolerance=None):
        self.fn, self.target = fn, target
        if tolerance is None:
            tolerance = 0.0 if fn.integer_valued else 1e-9
        self.tolerance = float(tolerance)
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ValueError(f"generic_level needs a finite tolerance >= 0, got {tolerance}")
        if not (isinstance(target, numbers.Number) and cmath.isfinite(target)):
            raise ValueError(f"generic_level needs a finite number as target, got {target!r}")
        self.name = f"level({fn.name},{target})"
        self.params = {"function": fn.to_json(), "tolerance": self.tolerance,
                       "target": {"re": complex(target).real, "im": complex(target).imag}}

    def _value(self, n, sieve):
        return self.fn.eval(n, sieve)

    def _values(self, x, sieve):
        return self.fn.reader(x, sieve)

    def _holds(self, v, n):
        if self.tolerance == 0.0:
            return v == self.target
        return np.abs(v - complex(self.target)) <= self.tolerance

    def _boundary(self, v, n):
        if self.tolerance == 0.0:
            return False
        dist = abs(complex(v) - complex(self.target))
        return abs(dist - self.tolerance) < BOUNDARY_EPS


class Intersection(LevelSet):
    """E cap M; intersecting with a multiplicative set preserves the classes."""

    variant = "intersection"

    def __init__(self, left: LevelSet, right: LevelSet):
        self.left, self.right = left, right
        self.is_multiplicative_set = left.is_multiplicative_set and right.is_multiplicative_set
        self.name = f"({left.name} & {right.name})"
        self.params = {"left": left.to_json(), "right": right.to_json()}

    def contains(self, n, sieve):
        a = self.left.contains(n, sieve)
        b = self.right.contains(n, sieve)
        return Verdict(a.member and b.member, a.boundary or b.boundary)

    def _windows(self, x, sieve):
        left, right = self.left._windows(x, sieve), self.right._windows(x, sieve)
        return lambda lo, hi: left(lo, hi) & right(lo, hi)


def _one_window(fields):
    """omega_rot:alpha,lo,hi: the window is the one interval [lo, hi)."""
    lo, hi = fields.pop("lo"), fields.pop("hi")
    return {**fields, "window": {"intervals": [{"lo": lo, "hi": hi, "closed": "[)"}]}}


def _generic_level(obj):
    t = obj["target"]
    target = t["re"] if t["im"] == 0 else complex(t["re"], t["im"])
    return GenericLevel(function_from_json(obj["function"]), target, obj["tolerance"])


SPELLINGS = Family("level-set", "variant", [
    Spelling("squarefree", "squarefree", {}, lambda o: Squarefree()),
    Spelling("kfree", "kfree", {"k": int}, lambda o: KFree(o["k"])),
    *(Spelling(f"{prefix}_mod", f"{prefix}_mod", {"b": int, "r": int},
               lambda o, c=counted: OmegaMod(o["b"], o["r"], c))
      for counted, prefix in _OMEGA_PREFIX.items()),
    Spelling("tau_mod", "tau_mod", {"b": int, "r": int}, lambda o: TauMod(o["b"], o["r"])),
    Spelling("abundant", "abundant", {}, lambda o: Abundant()),
    Spelling("deficient", "deficient", {}, lambda o: Deficient()),
    Spelling("phi_ratio_below", "phi_below", {"threshold": constant},
             lambda o: PhiRatioBelow(Constant.from_json(o["threshold"]))),
    *(Spelling(f"{prefix}_rot", f"{prefix}_rot",
               {"alpha": constant, "lo": constant, "hi": constant},
               lambda o, c=counted: OmegaRot(Constant.from_json(o["alpha"]),
                                             IntervalSetMod1.from_json(o["window"]), c),
               shape=_one_window)
      for counted, prefix in _OMEGA_PREFIX.items()),
    # all: the level set of the constant 1 at 1; the int target keeps its name level(one,1)
    Spelling("generic_level", "all", {}, _generic_level,
             shape=lambda _: {"function": {"function": "one"}, "target": {"re": 1, "im": 0},
                              "tolerance": 0.0}),
    Spelling("intersection", None, {},
             lambda o: Intersection(from_json(o["left"]), from_json(o["right"]))),
])
from_json = SPELLINGS.from_json


# -- operations --------------------------------------------------------------


def enumerate_members(spec: LevelSet, x: int, sieve: FactorSieve):
    """Stream the members of spec in [1, x] in increasing order, one
    CHUNK-entry window of its reader at a time."""
    read = spec.reader(x, sieve)
    for lo in range(0, x + 1, CHUNK):
        yield from (np.flatnonzero(read(lo, min(lo + CHUNK, x + 1))) + lo).tolist()


def first_members(spec: LevelSet, count: int, sieve: FactorSieve) -> np.ndarray:
    """First `count` members as an int64 array; TruncationError if too few."""
    x = min(sieve.limit, max(1024, 4 * count))
    while True:
        members = np.flatnonzero(spec.members_upto(x, sieve))
        if members.size >= count:
            return members[:count].astype(np.int64)
        if x >= sieve.limit:
            raise TruncationError(count, int(members.size), sieve.limit)
        x = min(sieve.limit, 4 * x)


def empirical_density(spec: LevelSet, checkpoints, sieve: FactorSieve) -> DensityReport:
    """|E cap [1,x]| / x at each checkpoint (exact integer counts)."""
    checkpoints = sorted_checkpoints(checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    read = spec.reader(checkpoints[-1], sieve)
    counts = checkpoint_sums(lambda lo, hi: np.count_nonzero(read(lo, hi)), checkpoints)
    densities = [int(k) / c for k, c in zip(counts, checkpoints)]
    return DensityReport(checkpoints, densities)


def concentration_scan(fn: ArithmeticFunction, target, y: int, checkpoints,
                       sieve: FactorSieve, tolerance: float = 0.0,
                       predicate=None) -> SeriesReport:
    """Partial sums of 1/p over primes p <= y' with f(p) = target.

    tolerance 0 means exact equality (for exactly representable values).  A
    custom predicate(value) -> bool generalizes the matching rule, which is
    how the torus-criteria series are probed.  The divergence slope is
    advisory only.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"concentration_scan needs a finite tolerance >= 0, got {tolerance}")
    if predicate is None and tolerance != 0.0:
        predicate = lambda v: abs(complex(v) - complex(target)) <= tolerance

    def terms(primes):
        values, arr = fn.prime_values(primes)
        if predicate is None:
            hit = _equal_to(values, arr, target)
        else:
            hit = [bool(predicate(v)) for v in values]
        return np.where(hit, 1.0 / primes, 0.0)

    checkpoints, sums = prime_series(sieve, y, checkpoints, terms)
    return SeriesReport(
        name=f"concentration({fn.name})", cutoffs=checkpoints, partial_sums=sums.tolist())


def _equal_to(values, arr, target):
    """[v == target for v in values], as one array compare where numpy gives
    Python's answer: float, complex or integer values below 2^53 in modulus
    (so none was rounded into arr) against a target that a complex double
    holds exactly."""
    try:
        t = complex(target)
    except (TypeError, ValueError, OverflowError):
        t = None
    if t is not None and t == target and arr.dtype.kind in "biufc":
        parts = (arr.real, arr.imag) if arr.dtype.kind == "c" else (arr,)
        if all(np.all(np.abs(a) < 2**53) for a in parts):
            return arr == (t.real if t.imag == 0 else t)
    return [v == target for v in values]
