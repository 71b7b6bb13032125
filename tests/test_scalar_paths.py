"""Differential test of the int-first rational scalars.

QQ keeps integral scalars as ints and makes a Fraction only once a
denominator appears.  FractionField below is the field as it was before:
every scalar a Fraction.  Both must give byte-identical reports and files.
"""

import json
import random
from fractions import Fraction

from conftest import s3_table, vector
from test_acceptance import (SWEEP_SEED, _dimodule_fixture_set,
                             _sweep_inputs)

from hopfloop import (CoactionData, CosmashInput, QQ,
                      build_smash_coproduct, build_smash_product,
                      check_d_equation, check_hopf_coquasigroup,
                      check_hopf_quasigroup, check_lemma_identities,
                      check_long_dimodule, d_map, dualize, loop_algebra,
                      theorem_cosmash_roundtrip, theorem_smash_roundtrip)
from hopfloop.errors import ParseError
from hopfloop.fields import RationalField
from hopfloop.fileio import serialize_structure
from hopfloop.tensors import Mat, Ten3


class FractionField(RationalField):
    """Q with every scalar a Fraction, integral or not."""

    zero = Fraction(0)
    one = Fraction(1)

    def div(self, a, b):
        return Fraction(super().div(a, b))

    def from_int(self, k):
        return Fraction(k)

    def parse(self, text, line=None):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational scalar {text!r}: {exc}", line)


FQ = FractionField()


def _doc(report):
    return json.dumps(report.to_dict())


def _sweep_texts(field):
    texts = []
    for inp in _sweep_inputs(random.Random(SWEEP_SEED), 100, field):
        texts.append(_doc(theorem_smash_roundtrip(inp)))
        texts.append(serialize_structure(build_smash_product(inp)))
        dual = CosmashInput(dualize(inp.H), dualize(inp.A),
                            CoactionData.dual_of_action(inp.act))
        texts.append(_doc(theorem_cosmash_roundtrip(dual)))
        texts.append(serialize_structure(build_smash_coproduct(dual)))
    return texts


def test_field_scalar_types():
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert type(QQ.one) is int and type(QQ.from_int(3)) is int
    assert QQ.div(1, 3) == Fraction(1, 3)
    assert not isinstance(QQ.div(1, 3), float)
    assert QQ.div(4, 2) == 2 and type(QQ.div(4, 2)) is int
    assert QQ.parse("4/2") == 2 and type(QQ.parse("4/2")) is int
    assert type(QQ.parse("1/2")) is Fraction
    assert type(FQ.parse("4/2")) is Fraction


def test_sweep_reports_and_candidates_identical():
    assert _sweep_texts(QQ) == _sweep_texts(FQ)


def test_d_equation_fixtures_identical():
    for D, Df in zip(_dimodule_fixture_set(), _dimodule_fixture_set(FQ)):
        assert Df.field is FQ
        for check in (check_long_dimodule, check_lemma_identities):
            assert _doc(check(D)) == _doc(check(Df))
        R, Rf = d_map(D), d_map(Df)
        assert _doc(check_d_equation(R)) == _doc(check_d_equation(Rf))
        assert ([(k, str(c)) for k, c in sorted(R.nz.items())]
                == [(k, str(c)) for k, c in sorted(Rf.nz.items())])


def _with_field(H, field, antipode_00):
    """H's tensors rebuilt over field, with S[0][0] replaced."""
    def conv(c):
        return field.parse(str(c))

    def entries(t):
        return [key + (conv(c),) for key, c in t.nz.items()]

    anti = [e for e in entries(H.antipode) if e[:2] != (0, 0)]
    anti.append((0, 0, field.parse(antipode_00)))
    return type(H)(
        Ten3(field, H.mu.dims, entries(H.mu)),
        vector(field, [conv(c) for c in H.unit.data]),
        Ten3(field, H.delta.dims, entries(H.delta)),
        vector(field, [conv(c) for c in H.counit.data]),
        Mat(field, H.antipode.dims, anti))


def test_nonintegral_witnesses_identical():
    HS3 = loop_algebra(s3_table())
    for value in ("1/2", "-3/4", "2"):
        H, Hf = _with_field(HS3, QQ, value), _with_field(HS3, FQ, value)
        rep = check_hopf_quasigroup(H)
        assert not rep.ok
        assert _doc(rep) == _doc(check_hopf_quasigroup(Hf))
        assert (_doc(check_hopf_coquasigroup(dualize(H)))
                == _doc(check_hopf_coquasigroup(dualize(Hf))))
        assert serialize_structure(H) == serialize_structure(Hf)
