import os

import pytest

from conftest import NON_IP_ROWS, cyclic, klein, loop7, s3_table

from hopfloop import (GF, LoopTable, QQ, check_ip_loop, is_associative,
                      loop_algebra, search_ip_loops)
from hopfloop import _ipsearch_py
from hopfloop.errors import BudgetExceeded, MalformedTable, NotIPLoop


def test_table_validation():
    with pytest.raises(MalformedTable):
        LoopTable([[0, 1], [1]])
    with pytest.raises(MalformedTable):
        LoopTable([[0, 2], [2, 0]])
    with pytest.raises(MalformedTable):
        LoopTable([])


def test_groups_are_ip_loops():
    for table in (cyclic(2), cyclic(3), cyclic(5), klein(), s3_table()):
        rep = check_ip_loop(table)
        assert rep.ok, rep


def test_non_latin_table_fails():
    rep = check_ip_loop(LoopTable([[0, 1], [0, 1]]))
    assert not rep.ok
    assert not rep.law("latin.cols").passed
    assert rep.law("latin.cols").witness is not None


def test_non_ip_loop_detected():
    rep = check_ip_loop(LoopTable(NON_IP_ROWS))
    assert not rep.ok
    assert not rep.law("inverse.exists").passed


def test_loop7_is_nonassociative_ip_loop():
    table = loop7()
    assert check_ip_loop(table).ok
    ok, witness = is_associative(table)
    assert not ok
    a, b, c = witness
    assert table.mul(table.mul(a, b), c) != table.mul(a, table.mul(b, c))


def test_is_associative_on_group():
    ok, witness = is_associative(s3_table())
    assert ok and witness is None


def test_loop_algebra_rejects_non_ip():
    with pytest.raises(NotIPLoop):
        loop_algebra(LoopTable(NON_IP_ROWS))


def test_loop_algebra_grouplike_tensors():
    table = cyclic(3)
    H = loop_algebra(table)
    assert H.dim == 3
    for i in range(3):
        assert list(H.delta.split_pairs(i)) == [((i, i), QQ.one)]
        assert H.counit[i] == QQ.one
    # S(a) = a^{-1}
    assert list(H.antipode.column(1)) == [(2, QQ.one)]


def test_loop_algebra_gf5():
    H = loop_algebra(cyclic(3), field=GF(5))
    assert H.field == GF(5)
    assert H.mu[1, 1, 2] == 1


def test_search_counts_small_orders():
    # canonical class counts: verified against an independent brute-force
    # enumeration of reduced Latin squares with the IP filters
    assert len(search_ip_loops(1)) == 1
    assert len(search_ip_loops(2)) == 1
    assert len(search_ip_loops(3)) == 1
    assert len(search_ip_loops(4)) == 2
    assert len(search_ip_loops(5)) == 1
    assert len(search_ip_loops(6)) == 2
    assert len(search_ip_loops(4, want_nonassociative=True)) == 0
    assert len(search_ip_loops(6, want_nonassociative=True)) == 0


def test_search_results_are_ip_loops():
    for table in search_ip_loops(6):
        assert check_ip_loop(table).ok


def test_search_determinism_and_limit():
    a = search_ip_loops(6)
    b = search_ip_loops(6)
    assert [t.rows for t in a] == [t.rows for t in b]
    assert len(search_ip_loops(6, limit=1)) == 1


def test_search_budget():
    with pytest.raises(BudgetExceeded):
        search_ip_loops(9)


def test_backends_agree():
    # the pure kernel must reproduce whatever the active backend produced
    from hopfloop import _backend
    for n in range(1, 7):
        active = list(_backend.enumerate_ip_tables(n))
        pure = list(_ipsearch_py.enumerate_ip_tables(n))
        assert active == pure
        for t in pure:
            assert _backend.canonical_form(t) == _ipsearch_py.canonical_form(t)


def test_pure_backend_env_override():
    env = dict(os.environ, HOPFLOOP_PURE="1")
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-c",
         "from hopfloop._backend import BACKEND; print(BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "python"
