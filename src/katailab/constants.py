"""Tagged real constants with double-double precision and JSON round-tripping.

Irrational parameters (rotation angles, polynomial coefficients, Weyl
frequencies) enter every experiment.  A plain float64 literal silently loses
the fractional part of n*alpha for large n, so constants are carried as a
tag plus a two-term binary64 representation accurate to ~2^-106.

The linear phase {n theta} takes a second representation: {theta} as a
128-bit fixed-point fraction, round({theta} 2^128) split into two uint64
limbs (Theta1, Theta0), memoized like dd and taken from the same 60-digit
mpmath value.  turns(n) is {n theta} in units of 2^-64: n Theta1 wraps mod
2^64 exactly, and only the carry floor(n Theta0 / 2^64) of the low limb is
rounded, in float64.  frac_mul rounds turns(n) to the nearest float, so one
integer multiply, one float product and one conversion give {n theta}
within about 2^-54 for every int64 n.

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
    "phase": 2**40,     # n*max(p,q) of a LinearExponential correlation: limits its length
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


_TURN = 2.0**-64  # one unit of turns(): 2^-64 of a full turn


@functools.cache
def _mp60():
    """A private 60-digit mpmath context for dd and _fixed, which may first be
    read in a worker thread: mpmath.workdps sets the precision every thread
    shares."""
    ctx = mpmath.MPContext()
    ctx.dps = 60
    return ctx


def _dd_from_mp(x) -> tuple[float, float]:
    hi = float(x)
    lo = float(x - hi)  # exact in x's context: no global mpf is built
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
        # memoized: the irrational entries take mpmath at 60 digits
        if self.kind == "rational":
            num, den = self.value_exact.numerator, self.value_exact.denominator
            hi = num / den
            lo = float(Fraction(num, den) - Fraction(hi))
            return hi, lo
        return _dd_from_mp(self._mp_in(_mp60()))

    @functools.cached_property
    def _fixed(self) -> tuple[np.uint64, float]:
        """(Theta1, Theta0 2^-64): the high limb of round({self} 2^128) mod
        2^128 as a uint64, and the low limb as a fraction of 2^64, correctly
        rounded to float64.  Exact from the Fraction of a rational."""
        if self.kind == "rational":
            v = self.value_exact
            fixed = math.floor((v - math.floor(v)) * 2**128 + Fraction(1, 2))
        else:
            ctx = _mp60()
            x = self._mp_in(ctx)
            fixed = int(ctx.floor((x - ctx.floor(x)) * 2**128 + 0.5))
        fixed %= 2**128  # {self} within 2^-129 of 1 rounds to 0
        return np.uint64(fixed >> 64), float(fixed & (2**64 - 1)) * _TURN

    def turns(self, n):
        """{n self} in units of 2^-64, as uint64, for an int64 scalar or array n.

        n Theta1 + floor(n Theta0 / 2^64) mod 2^64 (module docstring).  Its
        carry is the floor of the float product n (Theta0 2^-64), within
        2u |n| (u = 2^-53) of n Theta0 / 2^64 for |n| < 2^53 and within
        3u |n| above, and the rounding of Theta adds |n| 2^-65 units.  So
        turns(n) is within 3.001 units of {n self} 2^64 (mod 2^64) for
        |n| < 2^53, and within 3074 units for every int64 n.
        """
        n = np.asarray(n, dtype=np.int64)
        flat = n.reshape(-1)  # 1-d, so the uint64 products wrap with no scalar warning
        hi, lo = self._fixed
        out = flat.view(np.uint64) * hi
        carry = np.multiply(flat, lo, dtype=np.float64)
        out += np.floor(carry, out=carry).astype(np.int64).view(np.uint64)
        return out.reshape(n.shape)

    def __float__(self) -> float:
        return self.dd[0] + self.dd[1]

    def mp(self, dps: int = 60):
        """mpmath value at the requested precision (test/oracle helper)."""
        with mpmath.workdps(dps):
            return self._mp_in(mpmath.mp)

    def _mp_in(self, ctx):
        """The value in the mpmath context ctx, at its precision."""
        if self.kind == "rational":
            return ctx.mpf(self.value_exact.numerator) / self.value_exact.denominator
        if self.kind == "sqrt":
            return ctx.sqrt(self.arg)
        if self.kind == "log":
            return ctx.log(self.arg)
        if self.kind == "pi":
            return +ctx.pi
        if self.kind == "e":
            return +ctx.e
        return (1 + ctx.sqrt(5)) / 2

    def frac_mul(self, n):
        """{n * self} in [0, 1) for an int64 scalar or array n.

        A rational with denominator below 2^30 gives r/den for the residue r,
        correctly rounded.  Any other constant gives turns(n) rounded to the
        nearest float, 1.0 wrapped to 0.0, one ddmath.blockwise() slice at a
        time: within 2^-54 + 3.001 2^-64 < 5.6e-17 of {n self} (on R/Z) for
        |n| < 2^53, and within 2^-54 + 2^-52 < 2.8e-16 for every int64 n.
        """
        n = np.asarray(n, dtype=np.int64)
        if self.kind == "rational" and self.value_exact.denominator < 2**30:
            num, den = self.value_exact.numerator, self.value_exact.denominator
            return n % den * (num % den) % den / den
        return ddmath.blockwise(lambda m: _float_turns(self.turns(m)), n)

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


def _float_turns(t: np.ndarray) -> np.ndarray:
    """uint64 turns as the nearest floats in [0, 1); from 2^64 - 2^10 on they
    round to 1.0, which wraps to 0.0."""
    f = t.astype(np.float64)
    f *= _TURN
    np.subtract(f, 1.0, out=f, where=f >= 1.0)
    return f


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
