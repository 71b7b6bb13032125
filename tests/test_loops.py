import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chein import chein_double, symmetric_group
from conftest import LOOP7_ROWS, NON_IP_ROWS, cyclic, klein, loop7, s3_table
from ip_check_reference import check_ip_loop as reference_check_ip_loop
from ip_search_reference import branch_and_bound_canonical_form
from ip_search_reference import canonical_form as reference_canonical_form
from ip_search_reference import enumerate_ip_tables
from ip_search_reference import ip_tables as reference_ip_tables

from hopfloop import (GF, LoopTable, QQ, check_ip_loop, is_associative,
                      loop_algebra, loops, search_ip_loops)
from hopfloop.errors import BudgetExceeded, MalformedTable, NotIPLoop
from hopfloop.loops import (SEARCH_MAX_ORDER, canonical_form, inversion_maps,
                            ip_tables)

reference_tables = functools.cache(enumerate_ip_tables)
reference_ip_tables_of = functools.cache(reference_ip_tables)
ip_tables_of = functools.cache(ip_tables)


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


def test_chein_double_of_s3():
    """M(S3, 2) is a Moufang loop of order 12, z(x(zy)) = ((zx)z)y, so an
    IP loop, and nonassociative."""
    T = chein_double(symmetric_group(3))
    assert T.n == 12
    assert check_ip_loop(T).ok
    assert not is_associative(T)[0]
    m = T.mul
    assert all(m(z, m(x, m(z, y))) == m(m(m(z, x), z), y)
               for x, y, z in itertools.product(range(12), repeat=3))


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
        assert list(H.delta._by_first[i]) == [((i, i), QQ.one)]
        assert H.counit[i,] == QQ.one
    # S(a) = a^{-1}
    assert list(H.antipode._by_second[1]) == [(2, QQ.one)]


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
    assert SEARCH_MAX_ORDER == 11
    with pytest.raises(BudgetExceeded):
        search_ip_loops(12)


def test_search_bad_arguments():
    for n in (0, -3):
        with pytest.raises(ValueError):
            search_ip_loops(n)
    with pytest.raises(ValueError):
        search_ip_loops(3, limit=-1)
    assert search_ip_loops(4, limit=0) == []


def test_search_limit_zero_searches_nothing(monkeypatch):
    def no_search(J):
        raise AssertionError("limit=0 ran the search")

    monkeypatch.setattr(loops, "ip_tables", no_search)
    assert search_ip_loops(SEARCH_MAX_ORDER, limit=0) == []
    assert search_ip_loops(9, want_nonassociative=True, limit=0) == []
    with pytest.raises(BudgetExceeded):
        search_ip_loops(SEARCH_MAX_ORDER + 1, limit=0)


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
        for rows in reference_ip_tables_of(J):
            assert canonical_form(rows) == reference_canonical_form(rows)


@pytest.mark.parametrize("n, count", [(7, 40), (8, 20)])
def test_canonical_form_of_relabelled_tables(n, count):
    rng = random.Random(1998 + n)
    tables = [rows for J in inversion_maps(n)
              for rows in reference_ip_tables_of(J)]
    for _ in range(count):
        tail = list(range(1, n))
        rng.shuffle(tail)
        rows = relabel(rng.choice(tables), [0] + tail)
        assert canonical_form(rows) == reference_canonical_form(rows)


@pytest.mark.parametrize("n", (9, 10, 11))
def test_canonical_form_matches_branch_and_bound_reference(n):
    # past order 8 brute force is out of reach; the reference is the branch
    # and bound without the row-2 bound on a partial relabelling
    for J in inversion_maps(n):
        for rows in ip_tables_of(J):
            assert canonical_form(rows) == branch_and_bound_canonical_form(rows)


def test_canonical_form_of_relabelled_order_10_tables():
    rng = random.Random(2010)
    tables = [rows for J in inversion_maps(10) for rows in ip_tables_of(J)]
    for _ in range(40):
        tail = list(range(1, 10))
        rng.shuffle(tail)
        rows = relabel(rng.choice(tables), [0] + tail)
        assert canonical_form(rows) == branch_and_bound_canonical_form(rows)


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
def test_reference_ip_tables_are_the_tables_with_that_inversion(n):
    reference = {}
    for rows in reference_tables(n):
        T = LoopTable(rows)
        J = tuple(T.inverse_of(a) for a in range(n))
        reference.setdefault(J, set()).add(rows)
    for J in inversion_maps(n):
        assert set(reference_ip_tables_of(J)) == reference.get(J, set())


def row1_stabiliser(J):
    """Every relabelling that fixes 0 and 1 and commutes with J."""
    n = len(J)
    return [sigma for sigma in ((0, 1) + p
                                for p in itertools.permutations(range(2, n)))
            if all(sigma[J[x]] == J[sigma[x]] for x in range(n))]


def row1_is_least(rows, stabiliser):
    row = rows[1]
    for sigma in stabiliser:
        inv = [0] * len(sigma)
        for old, new in enumerate(sigma):
            inv[new] = old
        if tuple(sigma[row[inv[y]]] for y in range(len(row))) < row:
            return False
    return True


@pytest.mark.parametrize("n", range(1, 10))
def test_ip_tables_are_the_reference_tables_with_that_inversion(n):
    # ip_tables keeps the reference tables whose row 1 is least under the
    # relabellings that fix 0 and 1 and commute with J, and loses no class
    for J in inversion_maps(n):
        reference = set(reference_ip_tables_of(J))
        kept = ip_tables(J)
        assert len(set(kept)) == len(kept)
        assert set(kept) <= reference
        assert ({canonical_form(rows) for rows in kept}
                == {canonical_form(rows) for rows in reference})
        if n > 1:
            stabiliser = row1_stabiliser(J)
            assert set(kept) == {rows for rows in reference
                                 if row1_is_least(rows, stabiliser)}


def test_ip_tables_yield_ip_loops_with_their_inversion():
    for n in range(1, 9):
        for J in inversion_maps(n):
            tables = ip_tables(J)
            assert len(set(tables)) == len(tables)
            for rows in tables:
                T = LoopTable(rows)
                assert check_ip_loop(T).ok
                assert tuple(T.inverse_of(a) for a in range(n)) == J


# per J in inversion_maps(n), the number of tables ip_tables(J) yields
IP_TABLE_COUNTS = {1: [1], 2: [1], 3: [1, 0], 4: [1, 1], 5: [1, 0, 0],
                   6: [2, 1, 0], 7: [2, 0, 0, 0], 8: [7, 8, 4, 2],
                   9: [18, 0, 0, 0, 0], 10: [166, 126, 64, 16, 8],
                   11: [424, 0, 0, 0, 0, 0]}

# sha256 of repr([ip_tables(J) for J in inversion_maps(n)]): the tables and
# their order, as the search made them before the mirror check
IP_TABLE_SHA256 = {
    10: "83dc53c79401e6bfea86e6bf5285063291fe0c9691c5801f24928df7cd519c9d",
    11: "951d4b482e9a3476152528866ceb3c4807bb58c81a35fe4b49d109765ff1685a"}


@pytest.mark.parametrize("n", range(1, 12))
def test_ip_table_counts_are_pinned(n):
    assert ([len(ip_tables_of(J)) for J in inversion_maps(n)]
            == IP_TABLE_COUNTS[n])


@pytest.mark.parametrize("n", sorted(IP_TABLE_SHA256))
def test_ip_tables_are_pinned(n):
    tables = repr([ip_tables_of(J) for J in inversion_maps(n)])
    assert hashlib.sha256(tables.encode()).hexdigest() == IP_TABLE_SHA256[n]


@pytest.mark.parametrize("n", (6, 7, 8))
def test_nonassociative_search_canonicalises_no_associative_table(
        n, monkeypatch):
    # associativity is an isomorphism invariant, so an associative table
    # is dropped before it is brought to its canonical form
    calls = []

    def counted(rows):
        calls.append(rows)
        return canonical_form(rows)

    nonassoc = [rows for J in inversion_maps(n) for rows in ip_tables_of(J)
                if not is_associative(LoopTable(rows))[0]]
    monkeypatch.setattr(loops, "canonical_form", counted)
    tables = search_ip_loops(n, want_nonassociative=True)
    assert calls == nonassoc
    assert [T.rows for T in tables] == sorted(set(map(canonical_form, calls)))


def test_search_order_7_is_loop7():
    assert [T.rows for T in search_ip_loops(7, want_nonassociative=True)] \
        == [tuple(map(tuple, LOOP7_ROWS))]


def pinned_classes():
    """Order -> the sorted canonical rows in tests/ip_loop_classes.txt."""
    classes = {}
    text = (Path(__file__).parent / "ip_loop_classes.txt").read_text()
    for line in text.splitlines():
        if not line.startswith("#"):
            n, *rows = line.split()
            classes.setdefault(int(n), []).append(
                tuple(tuple(int(v, 16) for v in row) for row in rows))
    return classes


PINNED = pinned_classes()


def assert_search_is_pinned(n, count, nonassoc_count):
    classes = PINNED[n]
    assert len(classes) == count
    nonassoc = [rows for rows in classes
                if not is_associative(LoopTable(rows))[0]]
    assert len(nonassoc) == nonassoc_count
    tables = search_ip_loops(n)
    assert [T.rows for T in tables] == classes
    assert [T.rows for T in search_ip_loops(
        n, want_nonassociative=True)] == nonassoc
    for T in tables:
        assert check_ip_loop(T).ok


def test_search_order_8():
    assert_search_is_pinned(8, 8, 3)
    assert [T.rows for T in search_ip_loops(8, limit=5)] == PINNED[8][:5]


def test_search_order_9():
    assert_search_is_pinned(9, 7, 5)
    assert [T.rows for T in search_ip_loops(
        9, want_nonassociative=True, limit=2)] == PINNED[9][2:4]


def test_search_order_10():
    assert_search_is_pinned(10, 47, 45)


def test_search_order_11():
    assert_search_is_pinned(11, 49, 48)


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
