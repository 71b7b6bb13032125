"""Chein's doubling M(G, 2) of a group G, as a loop table.

M(G, 2) is a Moufang loop of order 2|G|, hence an IP loop, and it is
nonassociative exactly when G is nonabelian (Chein, "Moufang loops of
small order. I", Trans. AMS 1974).  On G x {0, 1}, with (g, s) at index
g + s|G|:

    (g,0)(h,0) = (gh,0)      (g,0)(h,1) = (hg,1)
    (g,1)(h,0) = (gh^-1,1)   (g,1)(h,1) = (h^-1 g,0)

M(S3, 2), of order 12, is the smallest nonassociative Moufang loop.
"""

from itertools import permutations

from hopfloop import LoopTable


def permutation_group(gens):
    """The Cayley table of the group of permutations generated by `gens`,
    its elements in lexicographic order (the identity first), with
    (f g)(x) = f(g(x))."""
    identity = tuple(range(len(gens[0])))
    elements, todo = {identity}, [identity]
    while todo:
        f = todo.pop()
        for g in gens:
            fg = tuple(f[x] for x in g)
            if fg not in elements:
                elements.add(fg)
                todo.append(fg)
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(f[x] for x in g)] for g in elements]
            for f in elements]


def symmetric_group(k):
    return permutation_group(list(permutations(range(k))))


def dihedral_group(k):
    """The symmetries of a k-gon, of order 2k."""
    return permutation_group([tuple((x + 1) % k for x in range(k)),
                              tuple(-x % k for x in range(k))])


def chein_double(group):
    """M(G, 2) for the Cayley table `group` of G, identity 0."""
    n = len(group)
    inv = [row.index(0) for row in group]

    def mul(x, y):
        (s, g), (t, h) = divmod(x, n), divmod(y, n)
        if not s:
            return group[g][h] if not t else n + group[h][g]
        return n + group[g][inv[h]] if not t else group[inv[h]][g]

    return LoopTable([[mul(x, y) for y in range(2 * n)]
                      for x in range(2 * n)])
