"""Catalog of multiplicative and additive arithmetic functions.

Every function is described by its rule on prime powers; evaluation at a
single n goes through the sieve factorization, while reader(x) hands out the
values on any window [lo, hi) within [0, x + 1) through the window builder
passed as ``table=``, and values_upto(x) is the window [0, x + 1).  Catalog
entries with a sieve table of their own (mobius, sigma, tau, Omega, omega,
the squarefree indicator) read that table; liouville, phi(n)/n, the
Archimedean and Dirichlet characters, the e(xi * Omega) families and the
constant 1 have closed forms over those tables; a function built without a
table (any other prime-power rule) runs through the sieve's prime-power
kernel in bulk_values, and its reader slices that table.  Each window entry
comes from the same elementwise code at any window, so a window is bit-equal
to the same slice of the whole table.

Functions carry a ``kind`` tag (multiplicative / completely_multiplicative /
additive) and an ``in_unit_ball`` flag marking membership in the class of
multiplicative functions bounded by 1 in modulus.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .constants import Constant, as_constant
from .sieve import FactorSieve
from .specs import Family, Spelling, constant


class EvaluationError(ValueError):
    """A prime-power rule returned a non-finite value."""

    def __init__(self, p, m, value):
        super().__init__(f"rule returned non-finite value {value!r} at p={p}, m={m}")
        self.p, self.m = p, m


def root_of_unity(num: int, den: int):
    """e(num/den), exact for denominators 1, 2 and 4 after reduction."""
    num %= den
    if 4 * num % den == 0:
        return (1, 1j, -1, -1j)[4 * num // den]
    # int / int rounds correctly, so this is the float of the reduced fraction
    return cmath.exp(2j * cmath.pi * (num / den))


def _e_of(x: float) -> complex:
    return cmath.exp(2j * cmath.pi * (x % 1.0))


class ArithmeticFunction:
    """An arithmetic function given by its rule on prime powers.

    kind: "multiplicative", "completely_multiplicative" or "additive".
    table: window builder (x, sieve) -> read, where read(lo, hi) gives the
    values for lo <= n < hi within [0, x + 1); None means bulk_values.
    """

    def __init__(self, name, prime_power, kind="multiplicative",
                 in_unit_ball=False, integer_valued=False, params=None, table=None):
        self.name = name
        self._rule = prime_power
        self.kind = kind
        self.in_unit_ball = in_unit_ball
        self.integer_valued = integer_valued
        self.params = params or {}
        self._table = table
        self._memo = {}

    def prime_power(self, p: int, m: int):
        """Value on p^m (m >= 1); memoized, validated finite."""
        key = (p, m)
        v = self._memo.get(key)
        if v is None:
            v = self._rule(p, m)
            if isinstance(v, complex):
                finite = math.isfinite(v.real) and math.isfinite(v.imag)
            else:
                finite = math.isfinite(v)
            if not finite:
                raise EvaluationError(p, m, v)
            self._memo[key] = v
        return v

    def prime_values(self, primes: np.ndarray, m: int = 1):
        """(values, array): g(p, m) for each p in primes, as the rule returned
        it and as numpy's array of those values.

        The bulk form of prime_power: one rule call per prime, no memo, and
        one finiteness check on the whole array, so the EvaluationError names
        the first non-finite value in the order of primes.
        """
        ps = primes.tolist()
        rule = self._rule
        values = [rule(p, m) for p in ps]
        arr = np.array(values)  # integers past 64 bits give an object array
        if arr.dtype.kind in "fc":
            finite = np.isfinite(arr)
        elif arr.dtype.kind == "O":  # ints past 64 bits and Fractions are finite
            finite = np.array([isinstance(v, (int, Fraction)) or cmath.isfinite(v)
                               for v in values])
        else:
            return values, arr
        if not finite.all():
            i = int(np.argmin(finite))
            raise EvaluationError(ps[i], m, values[i])
        return values, arr

    def eval(self, n: int, sieve: FactorSieve):
        """Value at n, combined over the factorization per the function kind."""
        f = sieve.factorize(n)
        if self.kind == "additive":
            return sum(self.prime_power(p, m) for p, m in f)
        out = 1
        for p, m in f:
            out = out * self.prime_power(p, m)
        return out

    def reader(self, x: int, sieve: FactorSieve):
        """read(lo, hi): the values for lo <= n < hi, 0 <= lo <= hi <= x + 1
        (the entry of n = 0 is padding).

        Every sieve table the values need is built here, on the calling
        thread, so read may run in checkpoint_sums' workers.
        """
        sieve.require_upto("x", x)
        if self._table is None:
            values = bulk_values(self, x, sieve)
            return lambda lo, hi: values[lo:hi]
        return self._table(x, sieve)

    def values_upto(self, x: int, sieve: FactorSieve) -> np.ndarray:
        """Table of values for n = 0..x (index 0 is padding)."""
        return self.reader(x, sieve)(0, x + 1)

    def to_json(self):
        return {"function": self.name, **self.params}

    def __repr__(self):
        return f"ArithmeticFunction({self.name})"


# -- bulk evaluation of arbitrary prime-power rules -------------------------

def bulk_values(fn: ArithmeticFunction, x: int, sieve: FactorSieve) -> np.ndarray:
    """values[n] for n <= x through the sieve's prime-power kernel."""
    sieve.require_upto("x", x)
    # rule values on every prime power q = p^m <= x, placed densely at q, one
    # exponent m at a time
    ppval = np.zeros(x + 1, dtype=complex)
    primes = sieve.primes(x)
    q, m, errors = primes, 1, []
    while primes.size:
        try:
            ppval[q] = fn.prime_values(primes, m)[1]
        except EvaluationError as err:
            errors.append(err)
        q = q * primes  # below 2^62: q <= x <= 2^31 and p <= x
        keep = q <= x
        primes, q, m = primes[keep], q[keep], m + 1
    if errors:  # the first non-finite value in p-then-m order, as a loop over p, then m
        raise min(errors, key=lambda err: (err.p, err.m))
    if not ppval.imag.any():
        ppval = ppval.real  # keep real rules in float tables
    return sieve._kernel(lambda p, e: ppval[p.astype(np.int64) ** e], ppval.dtype,
                         fn.kind == "additive", x)


# -- catalog: window builders (x, sieve) -> read(lo, hi) --------------------

def _zero_at_0(out: np.ndarray, lo: int) -> np.ndarray:
    """out, the window from lo, with the padding entry of n = 0 set to 0."""
    if lo == 0 and out.size:
        out[0] = 0
    return out


def _sieve_table(name):
    """Window builder reading the sieve table `name` as float64."""
    def reader(x, s):
        table = s.table(name, x)
        return lambda lo, hi: table[lo:hi].astype(np.float64)
    return reader


def _liouville_table(x, s):
    big_omega = s.table("big_omega", x)
    return lambda lo, hi: np.where((big_omega[lo:hi] & 1) == 0, 1.0, -1.0)


def _phi_ratio_table(x, s):
    phi = s.table("phi", x)

    def read(lo, hi):
        # phi / n divided into the float n, the window's one array
        out = np.arange(lo, hi, dtype=np.float64)
        k = 1 if lo == 0 else 0  # no 0 / 0 at the padding entry
        np.divide(phi[lo + k:hi], out[k:], out=out[k:])
        return _zero_at_0(out, lo)

    return read


def mobius() -> ArithmeticFunction:
    return ArithmeticFunction("mobius", lambda p, m: -1 if m == 1 else 0, in_unit_ball=True,
                              integer_valued=True, table=_sieve_table("mobius"))


def liouville() -> ArithmeticFunction:
    return ArithmeticFunction(
        "liouville", lambda p, m: (-1) ** m,
        kind="completely_multiplicative", in_unit_ball=True, integer_valued=True,
        table=_liouville_table,
    )


def squarefree_indicator() -> ArithmeticFunction:
    return ArithmeticFunction("squarefree_indicator", lambda p, m: 1 if m == 1 else 0,
                              in_unit_ball=True, integer_valued=True,
                              table=_sieve_table("squarefree"))


def euler_phi_ratio() -> ArithmeticFunction:
    return ArithmeticFunction("euler_phi_ratio", lambda p, m: Fraction(p - 1, p),
                              in_unit_ball=True, table=_phi_ratio_table)


def sigma() -> ArithmeticFunction:
    return ArithmeticFunction("sigma", lambda p, m: (p ** (m + 1) - 1) // (p - 1),
                              integer_valued=True, table=_sieve_table("sigma"))


def tau() -> ArithmeticFunction:
    return ArithmeticFunction("tau", lambda p, m: m + 1, integer_valued=True,
                              table=_sieve_table("tau"))


def big_omega() -> ArithmeticFunction:
    return ArithmeticFunction("big_omega", lambda p, m: m, kind="additive",
                              integer_valued=True, table=_sieve_table("big_omega"))


def small_omega() -> ArithmeticFunction:
    return ArithmeticFunction("small_omega", lambda p, m: 1, kind="additive",
                              integer_valued=True, table=_sieve_table("small_omega"))


def archimedean(t: float) -> ArithmeticFunction:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"archimedean t must be finite, got {t}")

    def read(lo, hi):
        n = np.arange(lo, hi, dtype=np.float64)
        if lo == 0 and n.size:
            n[0] = 1.0
        return _zero_at_0(np.exp(1j * t * np.log(n)), lo)

    return ArithmeticFunction(
        "archimedean", lambda p, m: cmath.exp(1j * t * m * math.log(p)),
        kind="completely_multiplicative", in_unit_ball=True, params={"t": t},
        table=lambda x, s: read,
    )


def _omega_exponential(name, xi, weight_of_m, restrict_squarefree=False):
    xi = as_constant(xi)

    @functools.cache  # one phase per k, shared by the rule and the table
    def phase_at(k):
        if xi.kind == "rational":
            v = xi.value_exact * k
            return root_of_unity(v.numerator, v.denominator)
        return _e_of(float(xi.frac_mul(np.array(k))))

    def rule(p, m):
        if restrict_squarefree and m > 1:
            return 0
        return phase_at(weight_of_m(m))

    def table(x, s):
        counts = s.table("small_omega" if name == "kappa_xi" else "big_omega", x)
        squarefree = s.table("squarefree", x) if restrict_squarefree else None
        lut = np.array([complex(phase_at(k)) for k in range(int(counts.max(initial=0)) + 1)])

        def read(lo, hi):
            out = lut[counts[lo:hi]]
            if restrict_squarefree:
                out = out * squarefree[lo:hi]
            return _zero_at_0(out, lo)

        return read

    kind = "completely_multiplicative" if (name == "lambda_xi") else "multiplicative"
    return ArithmeticFunction(name, rule, kind=kind, in_unit_ball=True,
                              params={"xi": xi.to_json()}, table=table)


def lambda_xi(xi) -> ArithmeticFunction:
    """e(xi * Omega(n)); completely multiplicative, reduces to liouville at xi=1/2."""
    return _omega_exponential("lambda_xi", xi, lambda m: m)


def kappa_xi(xi) -> ArithmeticFunction:
    """e(xi * omega(n)); multiplicative but not completely."""
    return _omega_exponential("kappa_xi", xi, lambda m: 1)


def mu_xi(xi) -> ArithmeticFunction:
    """e(xi * Omega(n)) on squarefree n, 0 elsewhere."""
    return _omega_exponential("mu_xi", xi, lambda m: m, restrict_squarefree=True)


def constant_one() -> ArithmeticFunction:
    return ArithmeticFunction(
        "one", lambda p, m: 1, kind="completely_multiplicative",
        in_unit_ball=True, integer_valued=True,
        table=lambda x, s: lambda lo, hi: _zero_at_0(np.ones(hi - lo, dtype=np.float64), lo),
    )


def custom(rule, name="custom", **flags) -> ArithmeticFunction:
    """Wrap a user prime-power rule (p, m) -> value; g(p^0)=1 implied."""
    return ArithmeticFunction(name, rule, **flags)


# -- Dirichlet characters ----------------------------------------------------

class CharacterGroupError(ValueError):
    """Exponent tuple does not match the unit-group shape."""


def _factor_small(d: int):
    """[(p, e), ...] for d by trial division over 2 and the odd q."""
    out = []
    q = 2
    while q * q <= d:
        e = 0
        while d % q == 0:
            d //= q
            e += 1
        if e:
            out.append((q, e))
        q += 1 if q == 2 else 2
    if d > 1:
        out.append((d, 1))
    return out


def _order(a: int, mod: int, group_order: int) -> int:
    order = group_order
    for q, _ in _factor_small(group_order):
        while order % q == 0 and pow(a, order // q, mod) == 1:
            order //= q
    return order


def smallest_primitive_root(pe: int, p: int) -> int:
    """Smallest primitive root modulo the odd prime power pe = p^e."""
    phi = pe - pe // p
    for g in range(2, pe):
        if g % p == 0:
            continue
        if _order(g, pe, phi) == phi:
            return g
    raise ValueError(f"no primitive root modulo {pe}")  # unreachable for odd p^e


def unit_group_structure(d: int):
    """Cyclic decomposition of (Z/dZ)*: list of (modulus_part, generator, order).

    Odd prime powers contribute one factor generated by the smallest primitive
    root; 4 contributes (C2, generator -1); 2^k for k >= 3 contributes the pair
    {-1, 5}. The basis is fixed so character indexing is reproducible.
    """
    factors = []
    for p, e in _factor_small(d):
        pe = p**e
        if p == 2:  # (Z/2Z)* is trivial
            if e >= 2:
                factors.append((pe, pe - 1, 2))
            if e >= 3:
                factors.append((pe, 5, pe // 4))
        else:
            factors.append((pe, smallest_primitive_root(pe, p), pe - pe // p))
    return factors


def dirichlet_character(d: int, exponents) -> ArithmeticFunction:
    """Dirichlet character mod d selected by exponents on the fixed generators."""
    if d < 1:
        raise CharacterGroupError(f"modulus must be >= 1, got {d}")
    factors = unit_group_structure(d)
    exponents = tuple(int(k) for k in exponents)
    if len(exponents) != len(factors):
        shape = " x ".join(f"C{order}" for _, _, order in factors) or "trivial"
        raise CharacterGroupError(
            f"(Z/{d}Z)* has shape {shape}: expected {len(factors)} exponents, "
            f"got {len(exponents)}"
        )

    # walk the group from 1 along the generators, each lifted by CRT to 1
    # modulo the other prime-power parts of d; the phase of each residue is
    # an exact numerator over the common denominator den
    den = math.lcm(*(order for _, _, order in factors))
    residues, phases = [1 % d], [0]
    for (pe, g, order), k in zip(factors, exponents):
        rest = d // pe
        step = 1 + rest * ((g - 1) * pow(rest, -1, pe) % pe)
        residues = [r * pow(step, j, d) % d for r in residues for j in range(order)]
        phases = [(a + k * j * (den // order)) % den for a in phases for j in range(order)]
    # one root of unity per distinct phase, spread to the residues by index
    distinct, which = np.unique(phases, return_inverse=True)
    values = np.array([root_of_unity(int(a), den) for a in distinct], dtype=complex)
    table = np.zeros(d, dtype=complex)
    table[residues] = values[which]

    def rule(p, m):
        return table[pow(p, m, d)] if d > 1 else 1

    fn = ArithmeticFunction(
        "dirichlet", rule, kind="completely_multiplicative", in_unit_ball=True,
        params={"modulus": d, "exponents": list(exponents)},
        table=lambda x, s: lambda lo, hi: table[np.arange(lo, hi, dtype=np.int64) % d],
    )
    fn.character_table = table
    fn.is_principal = all(k % order == 0 for (_, _, order), k in zip(factors, exponents))
    return fn


def all_characters(d: int):
    """Every Dirichlet character mod d, in lexicographic exponent order."""
    factors = unit_group_structure(d)
    if not factors:
        yield dirichlet_character(d, ())
        return
    orders = [order for _, _, order in factors]
    total = math.prod(orders)
    for idx in range(total):
        exps = []
        rem = idx
        for o in orders:
            exps.append(rem % o)
            rem //= o
        yield dirichlet_character(d, exps)


CATALOG = {
    "mobius": mobius,
    "liouville": liouville,
    "euler_phi_ratio": euler_phi_ratio,
    "sigma": sigma,
    "tau": tau,
    "big_omega": big_omega,
    "small_omega": small_omega,
    "squarefree_indicator": squarefree_indicator,
    "one": constant_one,
}


SPELLINGS = Family("function", "function", [
    *(Spelling(name, name, {}, lambda o, make=make: make()) for name, make in CATALOG.items()),
    Spelling("archimedean", "archimedean", {"t": float}, lambda o: archimedean(o["t"])),
    Spelling("dirichlet", "dirichlet", {"modulus": int, "exponents": [int]},
             lambda o: dirichlet_character(o["modulus"], o["exponents"])),
    *(Spelling(name, name, {"xi": constant},
               lambda o, make=make: make(Constant.from_json(o["xi"])))
      for name, make in (("lambda_xi", lambda_xi), ("kappa_xi", kappa_xi), ("mu_xi", mu_xi))),
])
from_json = SPELLINGS.from_json
