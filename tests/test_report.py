import gc
import importlib.util
import sys
import weakref
from fractions import Fraction

import pytest

from hopfloop import QQ, VerificationReport, report
from hopfloop.report import Witness, slab_witness, witness_side


def _witness(prefix, lhs, rhs, inst_dims, out_dims):
    return slab_witness(QQ, prefix, lhs, rhs, inst_dims, out_dims)


def test_slab_witness_none_when_equal():
    assert _witness((0,), {0: QQ.one}, {0: QQ.one}, (), (1,)) is None


def test_slab_witness_is_least_differing_instance():
    # instances (j, k) over (2, 3), outputs over (3,): key (j*3 + k)*3 + y;
    # instances (1, 2), (0, 2) and (1, 0) differ, (0, 1) agrees
    lhs = {(1 * 3 + 2) * 3 + 0: 1, (0 * 3 + 2) * 3 + 1: 2,
           (1 * 3 + 0) * 3 + 2: 5, (0 * 3 + 1) * 3 + 1: 7}
    rhs = {(0 * 3 + 2) * 3 + 1: 3, (1 * 3 + 0) * 3 + 2: 5,
           (0 * 3 + 1) * 3 + 1: 7, (1 * 3 + 0) * 3 + 0: 4}
    witness = _witness((4,), lhs, rhs, (2, 3), (3,))
    assert witness.indices == (4, 0, 2)
    assert witness.lhs == (((1,), "2"),)
    assert witness.rhs == (((1,), "3"),)


def test_slab_zero_sums_pass():
    # terms that cancelled to 0 stay in a slab; they equal an absent entry
    lhs = {0: 2, 1: Fraction(1, 2) - Fraction(1, 2), 3: 0}
    assert _witness((), lhs, {0: 2, 2: 0}, (2,), (2,)) is None


def test_slab_zeros_dropped_from_witness():
    witness = _witness((0,), {0: 0, 1: 1}, {2: 0}, (2,), (2,))
    assert witness.indices == (0, 0)
    assert witness.lhs == (((1,), "1"),)
    assert witness.rhs == ()


def test_slab_one_side_empty():
    witness = _witness((3,), {}, {5: 1, 7: -1}, (3,), (2,))
    assert witness.indices == (3, 2)
    assert witness.lhs == ()
    assert witness.rhs == (((1,), "1"),)


def test_slab_key_shape_single():
    witness = _witness((2,), {4: 1}, {}, (), (5,))
    assert witness.to_dict() == {
        "indices": [2], "lhs": [[[4], "1"]], "rhs": []}


def test_slab_key_shape_pair():
    # out (y, b) over (3, 4): key y*4 + b
    witness = _witness((1,), {2 * 4 + 3: Fraction(-1, 3)}, {}, (), (3, 4))
    assert witness.to_dict() == {
        "indices": [1], "lhs": [[[2, 3], "-1/3"]], "rhs": []}


def test_slab_key_shape_triple():
    # out (a, b, k) over (2, 3, 4): key (a*3 + b)*4 + k
    witness = _witness((0,), {}, {(1 * 3 + 2) * 4 + 1: 1}, (), (2, 3, 4))
    assert witness.to_dict() == {
        "indices": [0], "lhs": [], "rhs": [[[1, 2, 1], "1"]]}


def test_slab_key_shape_scalar():
    # scalar outputs: out_dims () and the key is the instance alone
    witness = _witness((0,), {0: 1, 1: 2}, {0: 1, 1: 3}, (2,), ())
    assert witness.to_dict() == {
        "indices": [0, 1], "lhs": [[[], "2"]], "rhs": [[[], "3"]]}


def test_informational_entries_do_not_affect_verdict():
    rep = VerificationReport()
    rep.add("law.info", False, _witness((0,), {0: QQ.one}, {}, (), (1,)),
            informational=True)
    assert rep.ok
    assert not rep.law("law.info").passed
    assert rep.failing() == []
    assert rep.to_dict()["verdict"] == "pass"


def test_extend_and_to_dict_shape():
    r1 = VerificationReport()
    r1.add("a", True)
    r2 = VerificationReport()
    r2.add("b", False,
           Witness((1,), witness_side(QQ, {(0,): QQ.one}), ()))
    r1.extend(r2)
    d = r1.to_dict()
    assert d["verdict"] == "fail"
    assert [e["law"] for e in d["laws"]] == ["a", "b"]
    w = d["laws"][1]["witness"]
    assert w["indices"] == [1]
    assert w["lhs"] == [[[0], "1"]]


def test_law_lookup_missing():
    with pytest.raises(KeyError):
        VerificationReport().law("nope")


def test_module_copy_is_released():
    # a fresh copy of the module, as a re-import makes, must not be kept
    # alive by caches once nothing refers to it
    spec = importlib.util.spec_from_file_location("report_copy",
                                                  report.__file__)
    copy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = copy
    try:
        spec.loader.exec_module(copy)
    finally:
        del sys.modules[spec.name]
    ref = weakref.ref(copy.Witness)
    del copy, spec
    gc.collect()
    assert ref() is None
