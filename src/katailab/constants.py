"""Tagged real constants with double-double precision and JSON round-tripping.

Irrational parameters (rotation angles, polynomial coefficients, Weyl
frequencies) enter every experiment.  A plain float64 literal silently loses
the fractional part of n*alpha for large n, so constants are carried as a
tag plus a two-term binary64 representation accurate to ~2^-106.

Supported tags: sqrt(k), golden, e, pi, log(k), plus exact decimals and
rationals.  CLI spellings: ``sqrt2``, ``sqrt3``, ``golden``, ``e``, ``pi``,
``log2``, ``log3``, ... or any decimal literal.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from . import ddmath


class BudgetError(ValueError):
    """A value reached its row of BUDGETS; the CLI exits 3."""


BUDGETS = {  # every numeric limit of katailab: a checked value stays below its row
    "phase": 2**40,     # n*max(p,q) of a LinearExponential correlation (frac_mul)
    "argument": 2**53,  # a Hardy function's argument, exact in float64
    "hardy": 2**58,     # |h(n)| of a non-polynomial Hardy function, phase within 1e-12
    "floor": 2**62,     # floor(h(n)), an int64 with headroom
    "int64": 2**63,     # n*max(p,q), an int64 index
    "monomial": 2**80,  # n^i of a polynomial phase, still representable in dd
}


def require_below(name: str, value, subject: str, at: str = "") -> None:
    """BudgetError naming the row unless value is below BUDGETS[name] (NaN is not)."""
    if not value < BUDGETS[name]:
        raise BudgetError(f"{subject} exceeds the {name} budget "
                          f"2^{BUDGETS[name].bit_length() - 1}{at}")


def _dd_from_mp(x) -> tuple[float, float]:
    hi = float(x)
    lo = float(x - mpmath.mpf(hi))
    return hi, lo


@dataclass(frozen=True)
class Constant:
    """A tagged real number: irrational catalog entry or exact rational."""

    kind: str  # sqrt | golden | e | pi | log | rational
    arg: int | None = None
    value_exact: Fraction | None = None  # only for kind == "rational"

    def __post_init__(self):
        if self.kind in ("sqrt", "log"):
            if self.arg is None or self.arg < 1:
                raise ValueError(f"{self.kind} needs a positive integer argument")
            if self.kind == "log" and self.arg == 1:
                raise ValueError("log(1) is 0; use a rational constant")
            root = math.isqrt(self.arg)
            if self.kind == "sqrt" and root * root == self.arg:
                raise ValueError(f"sqrt({self.arg}) is {root}; use a rational constant")
        elif self.kind in ("golden", "e", "pi"):
            if self.arg is not None:
                raise ValueError(f"{self.kind} takes no argument")
        elif self.kind == "rational":
            if self.value_exact is None:
                raise ValueError("rational constant needs a value")
            if abs(self.value_exact) > sys.float_info.max:  # dd starts from its float
                raise ValueError("rational constant too large for a float")
        else:
            raise ValueError(f"unknown constant kind {self.kind!r}")

    @property
    def is_irrational(self) -> bool:
        # sqrt of a perfect square and log(1) are rejected at construction;
        # log k is irrational for every integer k >= 2
        return self.kind != "rational"

    @functools.cached_property
    def dd(self) -> tuple[float, float]:
        # memoized: the irrational entries take mpmath at 60 digits, and
        # every frac_mul call reads this
        if self.kind == "rational":
            num, den = self.value_exact.numerator, self.value_exact.denominator
            hi = num / den
            lo = float(Fraction(num, den) - Fraction(hi))
            return hi, lo
        return _dd_from_mp(self.mp())

    def __float__(self) -> float:
        return self.dd[0] + self.dd[1]

    def mp(self, dps: int = 60):
        """mpmath value at the requested precision (test/oracle helper)."""
        with mpmath.workdps(dps):
            if self.kind == "rational":
                return mpmath.mpf(self.value_exact.numerator) / self.value_exact.denominator
            if self.kind == "sqrt":
                return mpmath.sqrt(self.arg)
            if self.kind == "log":
                return mpmath.log(self.arg)
            if self.kind == "pi":
                return +mpmath.pi
            if self.kind == "e":
                return +mpmath.e
            return (1 + mpmath.sqrt(5)) / 2

    def frac_mul(self, n):
        """{n * self} for integer scalar/array n.

        Exact for rational constants with denominator < 2^30; for tagged
        irrationals the error stays below 1e-12 for n <= 2^40 and below
        ~2^-43 all the way up to the `floor` row of BUDGETS.
        """
        n = np.asarray(n)
        if self.kind == "rational" and 0 < self.value_exact.denominator < 2**30:
            num, den = self.value_exact.numerator, self.value_exact.denominator
            r = (n.astype(np.int64) % den) * (num % den) % den
            return r / den
        nmax = max(int(n.max()), -int(n.min())) if n.size else 0
        if nmax < 2**53:
            return ddmath.frac_int_mul(self.dd, n.astype(np.float64))
        return ddmath.frac(ddmath.mul(ddmath.from_int(n.astype(np.int64)), self.dd))

    def to_json(self):
        if self.kind == "rational":
            v = self.value_exact
            if v.denominator == 1:
                return {"kind": "decimal", "value": str(v.numerator)}
            return {"kind": "decimal", "value": f"{v.numerator}/{v.denominator}"}
        if self.arg is not None:
            return {"kind": self.kind, "arg": self.arg}
        return {"kind": self.kind}

    @staticmethod
    def from_json(obj) -> "Constant":
        """value is a JSON string (a number is a binary float), arg a JSON integer."""
        kind, arg = obj["kind"], obj.get("arg")
        if kind == "decimal":
            if not isinstance(obj["value"], str):
                raise ValueError(f"decimal value must be a JSON string, got {obj['value']!r}")
            return rational(_fraction(obj["value"]))
        if arg is not None and type(arg) is not int:
            raise ValueError(f"constant arg must be a JSON integer, got {arg!r}")
        return Constant(kind, arg)

    @staticmethod
    def parse(text: str) -> "Constant":
        """Parse a CLI spelling: sqrt2, golden, e, pi, log2, 0.25, 1/3, ..."""
        text = text.strip()
        if text in ("golden", "e", "pi"):
            return Constant(text)
        for prefix in ("sqrt", "log"):
            if text.startswith(prefix) and text[len(prefix):].isdigit():
                return Constant(prefix, int(text[len(prefix):]))
        return rational(_fraction(text))

    def __str__(self) -> str:
        if self.kind == "rational":
            return str(self.value_exact)
        if self.arg is not None:
            return f"{self.kind}{self.arg}"
        return self.kind


def _fraction(text: str) -> Fraction:
    """A decimal or rational literal as a Fraction; any other text, or a zero
    denominator, is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"constant {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"cannot parse constant {text!r}; use sqrt<k>, golden, e, pi, "
                         "log<k>, or a decimal/rational literal") from None


def rational(value) -> Constant:
    """Exact rational constant from Fraction/int/float/decimal string."""
    return Constant("rational", value_exact=Fraction(value))


def as_constant(value) -> Constant:
    """Coerce numbers/strings/Constant into a Constant."""
    if isinstance(value, Constant):
        return value
    if isinstance(value, str):
        return Constant.parse(value)
    return rational(value)


SQRT2 = Constant("sqrt", 2)
GOLDEN = Constant("golden")
PI = Constant("pi")
E = Constant("e")
