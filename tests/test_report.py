import gc
import importlib.util
import sys
import weakref

import pytest

from hopfloop import QQ, VerificationReport, report
from hopfloop.report import LawAccumulator, Witness, witness_side


def test_accumulator_passes_when_all_equal():
    rep = VerificationReport()
    acc = LawAccumulator(rep, QQ, "law.x")
    acc.check((0,), {(0,): QQ.one}, {(0,): QQ.one})
    assert acc.finish()
    assert rep.ok
    entry = rep.law("law.x")
    assert entry.passed and entry.witness is None


def test_accumulator_records_first_witness_only():
    rep = VerificationReport()
    acc = LawAccumulator(rep, QQ, "law.y")
    acc.check((0, 1), {(0,): QQ.one}, {})
    acc.check((2, 3), {}, {(1,): QQ.one})
    acc.finish()
    entry = rep.law("law.y")
    assert not entry.passed
    assert entry.witness.indices == (0, 1)
    assert entry.witness.lhs == (((0,), "1"),)
    assert entry.witness.rhs == ()
    assert rep.failing() == [entry]
    assert not rep.ok


def test_informational_entries_do_not_affect_verdict():
    rep = VerificationReport()
    acc = LawAccumulator(rep, QQ, "law.info", informational=True)
    acc.check((0,), {(0,): QQ.one}, {})
    acc.finish()
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
