"""Exact scalar arithmetic over the rationals or a prime field GF(p).

Rational scalars are plain ints when integral and `fractions.Fraction`
values (reduced, positive denominator) only once a denominator appears;
the two compare, hash and print identically, so containers and reports do
not depend on which one holds a value.  GF(p) scalars are plain ints in
[0, p).  Containers carry the field; scalars themselves stay lightweight.
"""

import operator
from fractions import Fraction

from .errors import (DivisionByZero, FieldMismatch, HopfloopError,
                     ParseError)

# Miller-Rabin on the prime bases 2..41 is exact for every n below this
# bound, the least strong pseudoprime to all of them (Sorenson & Webster
# 2015).  Bases 2..37 alone would pass 318665857834031151167461.  Larger
# moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality for p < _MR_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _exponent(text):
    """|int(text)|, or 0 when int() does not read text."""
    try:
        return abs(int(text))
    except ValueError:
        return 0


class RationalField:
    """The field of rational numbers: ints when integral, else Fractions."""

    zero = 0
    one = 1

    # ints and Fractions add, subtract, multiply and negate exactly as
    # they are, so these are the C operators themselves
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        q = Fraction(a) / b
        return q.numerator if q.denominator == 1 else q

    def from_int(self, k):
        return int(k)

    def format(self, a):
        try:
            return str(a)
        except ValueError:  # Python's limit on an int string's digits
            raise HopfloopError("a rational scalar has too many digits "
                                "to write") from None

    def parse(self, text, line=None):
        try:
            if text.isdecimal():  # what Fraction(text) reads as an int
                return int(text)
            if "_" in text:  # digit groups, which Fraction reads from 3.11
                raise ValueError(f"Invalid literal for Fraction: {text!r}")
            # Fraction(text) expands an exponent as a power of ten, for
            # seconds past 10**1000000: one beyond 4300, Python's limit on
            # an int string's digits, is refused first, in linear time
            cut = max(text.rfind("e"), text.rfind("E"))
            if cut >= 0 and _exponent(text[cut + 1:]) > 4300:
                raise ValueError("exponent beyond ±4300")
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational scalar {text!r}: {exc}", line)
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with residues stored as ints in [0, p)."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ParseError(
                f"modulus {p} is too large: primality is decided exactly "
                f"only below {_MR_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def from_int(self, k):
        return k % self.p

    def format(self, a):
        return str(a % self.p)

    def parse(self, text, line=None):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(text) % self.p
        except (ValueError, DivisionByZero) as exc:
            raise ParseError(f"bad GF({self.p}) scalar {text!r}: {exc}", line)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def check_same_field(f, g):
    if f != g:
        raise FieldMismatch(f"cannot mix {f!r} and {g!r}")
