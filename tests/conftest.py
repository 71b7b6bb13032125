"""Shared fixtures: small loop tables, actions, and automorphism tooling."""

from itertools import permutations

import pytest

from hopfloop import ActionData, LoopTable, QQ, SparseTensor, loop_algebra


def cyclic(n):
    return LoopTable([[(i + j) % n for j in range(n)] for i in range(n)])


def klein():
    return LoopTable([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                      [3, 2, 1, 0]])


def s3_table():
    """S3 as the lex-ordered permutations of {0,1,2}, (f o g)(x)=f(g(x))."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return LoopTable([[idx[tuple(f[g[x]] for x in range(3))]
                       for g in perms] for f in perms])


# The unique nonassociative IP loop of order 7 in canonical (lex-min) form,
# as produced by search_ip_loops(7, want_nonassociative=True); cross-checked
# against the search in the loops tests.
LOOP7_ROWS = [
    [0, 1, 2, 3, 4, 5, 6],
    [1, 2, 0, 4, 5, 6, 3],
    [2, 0, 1, 6, 3, 4, 5],
    [3, 6, 4, 5, 1, 0, 2],
    [4, 3, 5, 2, 6, 1, 0],
    [5, 4, 6, 0, 2, 3, 1],
    [6, 5, 3, 1, 0, 2, 4],
]

# A reduced order-5 loop that is not IP (no two-sided inverse for some
# element); used as the negative loop fixture.
NON_IP_ROWS = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def loop7():
    return LoopTable([row[:] for row in LOOP7_ROWS])


def automorphisms(table):
    """All permutations of the basis fixing 0 and preserving the table."""
    n = table.n
    auts = []
    for tail in permutations(range(1, n)):
        p = (0,) + tail
        if all(p[table.mul(i, j)] == table.mul(p[i], p[j])
               for i in range(n) for j in range(n)):
            auts.append(p)
    return auts


def vector(field, values):
    """The unit or counit, a tensor of dims (n,), with the n `values`,
    zeros included."""
    return SparseTensor(field, (len(values),), enumerate(values))


def perm_action(field, h_dim, perms):
    """ActionData where basis element h acts by the permutation perms[h]."""
    m_dim = len(perms[0])
    entries = [(h, m, perms[h][m], field.one)
               for h in range(h_dim) for m in range(m_dim)]
    return ActionData.from_entries(field, h_dim, m_dim, entries)


def inversion_action(field=QQ):
    """C2 acting on the C3 loop algebra basis by inversion."""
    return perm_action(field, 2, [(0, 1, 2), (0, 2, 1)])


@pytest.fixture
def H2():
    return loop_algebra(cyclic(2))


@pytest.fixture
def H3():
    return loop_algebra(cyclic(3))


@pytest.fixture
def HS3():
    return loop_algebra(s3_table())


@pytest.fixture
def H7():
    return loop_algebra(loop7())
