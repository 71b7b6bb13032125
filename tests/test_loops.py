import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LOOP7_ROWS, NON_IP_ROWS, cyclic, klein, loop7, s3_table
from ip_check_reference import check_ip_loop as reference_check_ip_loop
from ip_search_reference import canonical_form as reference_canonical_form
from ip_search_reference import enumerate_ip_tables

from hopfloop import (GF, LoopTable, QQ, check_ip_loop, is_associative,
                      loop_algebra, search_ip_loops)
from hopfloop.errors import BudgetExceeded, MalformedTable, NotIPLoop
from hopfloop.loops import canonical_form, inversion_maps, ip_tables

reference_tables = functools.cache(enumerate_ip_tables)


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
        assert H.counit[i,] == QQ.one
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
        search_ip_loops(10)


def test_search_bad_arguments():
    for n in (0, -3):
        with pytest.raises(ValueError):
            search_ip_loops(n)
    with pytest.raises(ValueError):
        search_ip_loops(3, limit=-1)
    assert search_ip_loops(4, limit=0) == []


def test_inversion_maps_one_per_involution_class():
    assert inversion_maps(1) == [(0,)]
    assert inversion_maps(2) == [(0, 1)]
    assert inversion_maps(7) == [(0, 2, 1, 4, 3, 6, 5),
                                 (0, 1, 2, 4, 3, 6, 5),
                                 (0, 1, 2, 3, 4, 6, 5),
                                 (0, 1, 2, 3, 4, 5, 6)]
    for n in range(1, 9):
        fixed = [sum(J[a] == a for a in range(1, n))
                 for J in inversion_maps(n)]
        assert fixed == list(range((n - 1) % 2, n, 2))


@pytest.mark.parametrize("n", range(1, 8))
def test_search_matches_full_enumeration(n):
    # the reference visits every labelled reduced table, whatever its
    # inversion; the search must give the same sorted canonical classes
    classes = sorted({reference_canonical_form(t)
                      for t in reference_tables(n)})
    assert [T.rows for T in search_ip_loops(n)] == classes
    nonassoc = [rows for rows in classes
                if not is_associative(LoopTable(rows))[0]]
    assert [T.rows for T in search_ip_loops(
        n, want_nonassociative=True)] == nonassoc


def relabel(rows, sigma):
    """The table of sigma(x)sigma(y) = sigma(xy)."""
    inv = [0] * len(sigma)
    for old, new in enumerate(sigma):
        inv[new] = old
    return tuple(tuple(sigma[rows[inv[i]][inv[j]]] for j in range(len(rows)))
                 for i in range(len(rows)))


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_form_matches_brute_force(n):
    for J in inversion_maps(n):
        for rows in ip_tables(J):
            assert canonical_form(rows) == reference_canonical_form(rows)


@pytest.mark.parametrize("n, count", [(7, 40), (8, 20)])
def test_canonical_form_of_relabelled_tables(n, count):
    rng = random.Random(1998 + n)
    tables = [rows for J in inversion_maps(n) for rows in ip_tables(J)]
    for _ in range(count):
        tail = list(range(1, n))
        rng.shuffle(tail)
        rows = relabel(rng.choice(tables), [0] + tail)
        assert canonical_form(rows) == reference_canonical_form(rows)


def random_loop(n, rng):
    """A reduced Latin square filled cell by cell with shuffled values."""
    rows = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]

    def fill(cell):
        if cell == n * n:
            return True
        r, c = divmod(cell, n)
        if r == 0 or c == 0:
            return fill(cell + 1)
        values = [v for v in range(n) if v not in rows[r][:c]
                  and all(rows[k][c] != v for k in range(r))]
        rng.shuffle(values)
        for v in values:
            rows[r][c] = v
            if fill(cell + 1):
                return True
        rows[r][c] = -1
        return False

    fill(0)
    return rows


def test_canonical_form_of_loops_without_inverse_property():
    # on the IP tables of order <= 8, cycles of x -> ax taken unsorted
    # happen to give the same forms; these loops need them by length
    rng = random.Random(2007)
    loops = [NON_IP_ROWS] + [random_loop(n, rng) for n in (5, 6, 7)
                             for _ in range(10)]
    for rows in loops:
        assert canonical_form(rows) == reference_canonical_form(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_ip_tables_are_the_reference_tables_with_that_inversion(n):
    reference = {}
    for rows in reference_tables(n):
        T = LoopTable(rows)
        J = tuple(T.inverse_of(a) for a in range(n))
        reference.setdefault(J, set()).add(rows)
    for J in inversion_maps(n):
        assert set(ip_tables(J)) == reference.get(J, set())


def test_ip_tables_yield_ip_loops_with_their_inversion():
    for n in range(1, 9):
        for J in inversion_maps(n):
            tables = ip_tables(J)
            assert len(set(tables)) == len(tables)
            for rows in tables:
                T = LoopTable(rows)
                assert check_ip_loop(T).ok
                assert tuple(T.inverse_of(a) for a in range(n)) == J


def test_search_order_7_is_loop7():
    assert [T.rows for T in search_ip_loops(7, want_nonassociative=True)] \
        == [tuple(map(tuple, LOOP7_ROWS))]


def test_search_order_8():
    tables = search_ip_loops(8)
    assert len(tables) == 8
    nonassoc = [T for T in tables if not is_associative(T)[0]]
    assert len(nonassoc) == 3
    for T in tables:
        assert check_ip_loop(T).ok


def test_search_order_9():
    tables = search_ip_loops(9)
    assert len(tables) == 7
    nonassoc = [T for T in tables if not is_associative(T)[0]]
    assert len(nonassoc) == 5
    for T in tables:
        assert check_ip_loop(T).ok


# --- row-reading check_ip_loop against the per-pair reference -------------

ip_loops = functools.cache(search_ip_loops)


def _random_loop(rng, n):
    """A random reduced Latin square of order n: a loop, seldom IP."""
    t = [[i if j == 0 else j if i == 0 else None for j in range(n)]
         for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        free = [v for v in range(n)
                if v not in t[i] and all(row[j] != v for row in t)]
        rng.shuffle(free)
        for v in free:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    fill(0)
    return t


@st.composite
def loop_tables(draw):
    """IP loops relabelled, loops that are seldom IP, IP loops with one
    cell changed (not Latin, maybe without inverses), and arbitrary
    tables."""
    n = draw(st.integers(1, 7))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("ip", "loop", "perturbed", "arbitrary")))
    if kind == "loop":
        return LoopTable(_random_loop(rng, n))
    if kind == "arbitrary":
        return LoopTable([[rng.randrange(n) for _ in range(n)]
                          for _ in range(n)])
    rows = rng.choice(ip_loops(n)).rows
    sigma = [0] + rng.sample(range(1, n), n - 1)
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    if kind == "perturbed":
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return LoopTable(table)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(loop_tables())
def test_check_ip_loop_matches_reference(T):
    assert (json.dumps(check_ip_loop(T).to_dict())
            == json.dumps(reference_check_ip_loop(T).to_dict()))


def first_nonassociative_triple(T):
    """The per-triple check is_associative had before it composed rows."""
    n = T.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if T.mul(T.mul(a, b), c) != T.mul(a, T.mul(b, c)):
                    return a, b, c
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(loop_tables())
def test_is_associative_matches_triple_loop(T):
    witness = first_nonassociative_triple(T)
    assert is_associative(T) == (witness is None, witness)
