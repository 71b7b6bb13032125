import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfloop import GF, QQ
from hopfloop.errors import DivisionByZero, FieldMismatch, ParseError
from hopfloop.fields import check_same_field


def test_rational_exact_arithmetic():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, b) == Fraction(1, 18)
    assert QQ.sub(QQ.one, a) == Fraction(2, 3)
    assert QQ.div(QQ.one, a) == 3
    assert QQ.neg(a) == Fraction(-1, 3)


def test_rational_parse_format_roundtrip():
    for text in ("0", "1", "-7", "2/3", "-5/4"):
        assert QQ.format(QQ.parse(text)) == text


def test_rational_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.div(QQ.one, QQ.zero)


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.add(f5.from_int(3), f5.from_int(4)) == 2
    assert f5.mul(f5.from_int(2), f5.from_int(3)) == 1
    assert f5.div(f5.one, f5.from_int(2)) == 3  # 2 * 3 = 1 mod 5
    assert f5.neg(f5.from_int(2)) == 3


def test_prime_field_parse_fraction_syntax():
    f5 = GF(5)
    # 2/3 = 2 * 3^{-1} = 2 * 2 = 4 mod 5
    assert f5.parse("2/3") == 4
    assert f5.parse("-1") == 4


def test_prime_field_division_by_zero():
    f5 = GF(5)
    with pytest.raises(DivisionByZero):
        f5.div(f5.one, f5.zero)
    with pytest.raises(ParseError):
        f5.parse("1/5")


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gf_large_prime_is_fast():
    t0 = time.perf_counter()
    f = GF(10**18 + 3)
    assert time.perf_counter() - t0 < 1.0
    assert f.mul(f.from_int(2), f.div(f.one, f.from_int(2))) == f.one


@pytest.mark.parametrize("n", [561, 2047, 3215031751,
                               318665857834031151167461])
def test_gf_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the smallest bases (the last one to every
    # prime base up to 37)
    with pytest.raises(ValueError):
        GF(n)


def test_gf_billion_and_seven():
    f = GF(1000000007)
    assert f.div(f.one, f.from_int(2)) == 500000004
    assert f.parse("-1") == 1000000006


def test_gf_modulus_beyond_exact_primality_bound():
    with pytest.raises(ParseError):
        GF(3317044064679887385961981)


def test_field_equality_and_mismatch():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    with pytest.raises(FieldMismatch):
        check_same_field(QQ, GF(5))
    check_same_field(GF(7), GF(7))


def _parse_via_fraction(text):
    """QQ.parse without its shortcut for digit strings.  Like QQ.parse, it
    refuses an underscore, as Fraction does before Python 3.11, and a
    text whose part after the last e or E reads by int() as an exponent
    beyond ±4300, which Fraction would expand as a power of ten."""
    if "_" in text:
        return ("error", f"bad rational scalar {text!r}: "
                f"Invalid literal for Fraction: {text!r}")
    _, e, exp = text.replace("E", "e").rpartition("e")
    try:
        huge = bool(e) and abs(int(exp)) > 4300
    except ValueError:
        huge = False
    if huge:
        return ("error",
                f"bad rational scalar {text!r}: exponent beyond ±4300")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return ("error", f"bad rational scalar {text!r}: {exc}")
    return ("ok", type(q.numerator if q.denominator == 1 else q), q)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(alphabet="0123456789-+/._eE ٣²x", max_size=8),
    st.integers(4290, 4310).map(lambda k: "7" * k),
    st.tuples(st.sampled_from(("1", "-2.5", "x", "1/2")),
              st.sampled_from("eE"), st.sampled_from(("", "+", "-", " ")),
              st.integers(4295, 4305) | st.integers(0, 10**12)).map(
                  lambda t: t[0] + t[1] + t[2] + str(t[3]))))
def test_rational_parse_matches_fraction(text):
    """Digit strings read as int give what Fraction(text) gives, errors
    included (an int string longer than Python's limit among them), and
    an exponent beyond ±4300 is refused before Fraction sees it."""
    try:
        q = QQ.parse(text)
    except ParseError as exc:
        got = ("error", str(exc))
    else:
        got = ("ok", type(q), q)
    assert got == _parse_via_fraction(text)


@pytest.mark.parametrize("text", ["1_000", "1_0/3", "1/1_0", "1e1_0",
                                  "1_0.5", "-1_2"])
def test_rational_parse_refuses_digit_groups(text):
    """An underscore is no part of a scalar on any supported Python, as
    Fraction refuses it before 3.11 and reads it as a digit group from
    3.11 on; GF(p) scalars go through int(), the same on every one."""
    with pytest.raises(ParseError, match=f"bad rational scalar {text!r}: "
                       "Invalid literal for Fraction"):
        QQ.parse(text)


def test_rational_huge_exponent_refused_quickly():
    """Fraction would spend seconds expanding 10**999999999."""
    t0 = time.perf_counter()
    for text in ("1e999999999", "1E-999999999", "2.5e4301"):
        with pytest.raises(ParseError, match="exponent beyond"):
            QQ.parse(text)
    assert time.perf_counter() - t0 < 0.5
    assert QQ.parse("1e4300") == 10 ** 4300
    assert QQ.parse("25e-4300") == Fraction(25, 10 ** 4300)
