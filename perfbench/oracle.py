"""Verdict oracles that do not depend on hopfloop.

Everything here works on plain integers: Cayley tables are lists of rows with
element 0 as the identity, permutations are tuples, gradings are lists of
group elements.  The workloads build hopfloop inputs from the same integer
data and compare hopfloop's verdicts with the ones computed here.
"""

from itertools import permutations

# The unique nonassociative IP loop of order 7 in canonical (lex-min) form.
LOOP7_ROWS = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 2, 0, 4, 5, 6, 3),
    (2, 0, 1, 6, 3, 4, 5),
    (3, 6, 4, 5, 1, 0, 2),
    (4, 3, 5, 2, 6, 1, 0),
    (5, 4, 6, 0, 2, 3, 1),
    (6, 5, 3, 1, 0, 2, 4),
)

# Isomorphism classes of IP loops of orders 1..7, counted by hand: the
# groups of each order, plus the order-7 loop above.
IP_LOOP_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 2}
NONASSOC_CLASSES = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1}

# A reduced order-5 loop without two-sided inverses.
NON_IP_ROWS = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)

# Primes near 10**9 (GF(p) files) and small primes.
BIG_PRIMES = (999999937, 999999929, 999999893, 1000000007, 1000000009)
SMALL_PRIMES = (3, 5, 7, 11, 13)


# --- tables -----------------------------------------------------------------


def cyclic(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def klein():
    return direct(cyclic(2), cyclic(2))


def direct(a, b):
    """Direct product, element (x, y) at index x * |b| + y."""
    nb = len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * nb + b[i % nb][j % nb]
              for j in range(len(a) * nb))
        for i in range(len(a) * nb))


def s3():
    """S3 as the lex-ordered permutations of {0,1,2}, (f o g)(x) = f(g(x))."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(idx[tuple(f[g[x]] for x in range(3))] for g in perms)
                 for f in perms)


def dihedral(n):
    """Dihedral group of order 2n, r^i s^j at index i + n * j."""
    def mul(x, y):
        i, j = x % n, x // n
        k, l = y % n, y // n
        return ((i + (-k if j else k)) % n) + n * ((j + l) % 2)
    return tuple(tuple(mul(x, y) for y in range(2 * n))
                 for x in range(2 * n))


def relabel(table, perm):
    """The table with element x renamed perm[x]; perm must fix 0."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return tuple(tuple(r) for r in out)


def inverse(table, a):
    return table[a].index(0)


def invert_perm(p):
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def compose(p, q):
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def automorphisms(table):
    """All permutations fixing 0 that preserve the table."""
    n = len(table)
    out = []
    for tail in permutations(range(1, n)):
        p = (0,) + tail
        if all(p[table[i][j]] == table[p[i]][p[j]]
               for i in range(n) for j in range(n)):
            out.append(p)
    return out


def is_hom(table, perms):
    """pi_g o pi_h = pi_{gh} for all g, h."""
    n = len(table)
    return all(compose(perms[g], perms[h]) == perms[table[g][h]]
               for g in range(n) for h in range(n))


# --- permutation dimodules over a grouplike (loop) algebra -------------------
#
# H is spanned by a loop G; h acts on the carrier points by perms[h] and the
# coaction is the grading m -> m (x) grading[m].  Every law then compares
# single basis elements, so each verdict is a statement about integers.


def perm_dimodule_verdicts(table, perms, grading):
    """Verdicts of (ldm suite, lemma identities, D-equation), and whether the
    D-map is the identity."""
    n = len(table)
    pts = range(len(grading))
    inv = [inverse(table, h) for h in range(n)]
    ident = tuple(pts)
    quasimodule = perms[0] == ident and all(
        compose(perms[h], perms[inv[h]]) == ident
        and compose(perms[inv[h]], perms[h]) == ident for h in range(n))
    compatible = all(grading[perms[h][m]] == grading[m]
                     for h in range(n) for m in pts)
    ldm = quasimodule and compatible

    def plain(m):
        return perms[inv[grading[m]]][m]

    lemma = all(grading[plain(m)] == grading[m] for m in pts) and all(
        grading[perms[h][plain(m)]] == grading[m]
        for h in range(n) for m in pts)
    # R(m (x) n) = grading[n] . m (x) n
    eq_d = all(perms[grading[perms[grading[c]][b]]][a]
               == perms[grading[b]][a]
               for a in pts for b in pts for c in pts)
    r_identity = all(perms[grading[b]][a] == a for a in pts for b in pts)
    return {"ldm": ldm, "lemma": lemma, "eq_d": eq_d}, r_identity


def free_on_module(table, perms):
    """Points (m, k) of M (x) H at index m * |H| + k."""
    n = len(table)
    mdim = len(perms[0])
    new = [tuple(perms[h][i // n] * n + i % n for i in range(mdim * n))
           for h in range(n)]
    return new, [i % n for i in range(mdim * n)]


def tensor(table, perms1, grading1, perms2, grading2):
    """Diagonal action and multiplied grading, point (m, m2) at m*|M2| + m2."""
    d2 = len(grading2)
    d = len(grading1) * d2
    perms = [tuple(perms1[h][i // d2] * d2 + perms2[h][i % d2]
                   for i in range(d)) for h in range(len(table))]
    grading = [table[grading1[i // d2]][grading2[i % d2]] for i in range(d)]
    return perms, grading


def trivial_action_dual_verdicts(coaction, mdim):
    """Dimodule over the dual of a group algebra with h.m = eps(h) m and a
    coaction given as {(m, m2, h): c}, rho(e_m) = sum c e_m2 (x) e^h.

    eps(e^h) is 1 at the identity only, so R = id (x) C0 with C0 the h = 0
    slice: R12 and R23 act on different legs and always commute.  The
    counit law holds exactly when C0 is the identity, and both lemma
    identities reduce to rho(C0 e_m) = rho(e_m).  When the counit law holds
    the remaining laws are not decided here, so the ldm verdict is None.
    """
    c0 = {(m, m2): c for (m, m2, h), c in coaction.items() if h == 0 and c}
    c0_identity = c0 == {(m, m): 1 for m in range(mdim)}

    def rho(vec):
        out = {}
        for (m, m2, h), c in coaction.items():
            if vec.get(m):
                out[(m2, h)] = out.get((m2, h), 0) + vec[m] * c
        return {k: v for k, v in out.items() if v}

    lemma = all(rho({m2: c for (m, m2), c in c0.items() if m == m1})
                == rho({m1: 1}) for m1 in range(mdim))
    return {"ldm": None if c0_identity else False, "lemma": lemma,
            "eq_d": True}


# --- canonical text of grouplike structures ----------------------------------
#
# Written from the integer tables alone, in the sparse text format of
# hopfloop's files (fixed section order, entries in sorted index order).


def _field_line(p):
    return "field Q" if p is None else f"field F {p}"


def group_algebra_text(table, p=None):
    n = len(table)
    out = ["hopfqg", _field_line(p), f"dim {n}", "mu:"]
    out += [f"{i} {j} {table[i][j]} 1" for i in range(n) for j in range(n)]
    out.append("delta:")
    out += [f"{i} {i} {i} 1" for i in range(n)]
    out += ["unit:", "0 1", "counit:"]
    out += [f"{i} 1" for i in range(n)]
    out.append("antipode:")
    out += [f"{i} {inverse(table, i)} 1" for i in range(n)]
    return "\n".join(out) + "\n"


def dual_group_algebra_text(table, p=None):
    """The dual basis structure: e^i e^j = [i = j] e^i, Delta(e^i) =
    sum_{jk = i} e^j (x) e^k, unit and counit swapped, antipode transposed."""
    n = len(table)
    out = ["hopfcoqg", _field_line(p), f"dim {n}", "mu:"]
    out += [f"{i} {i} {i} 1" for i in range(n)]
    out.append("delta:")
    out += [f"{i} {j} {k} 1" for i, j, k in sorted(
        (table[j][k], j, k) for j in range(n) for k in range(n))]
    out += ["unit:"] + [f"{i} 1" for i in range(n)]
    out += ["counit:", "0 1", "antipode:"]
    out += [f"{i} {inverse(table, i)} 1" for i in range(n)]
    return "\n".join(out) + "\n"


def smash_product_text(th, ta, perms, p=None):
    """Smash product A (x) H of group algebras, (a, h) at index a*|H| + h:
    (a, h)(b, g) = (a pi_h(b), hg), grouplike coproduct,
    S(a, h) = (pi_{h^-1}(a^-1), h^-1)."""
    nh, na = len(th), len(ta)
    n = na * nh
    out = ["hopfqg", _field_line(p), f"dim {n}", "mu:"]
    for a in range(na):
        for h in range(nh):
            for b in range(na):
                for g in range(nh):
                    k = ta[a][perms[h][b]] * nh + th[h][g]
                    out.append(f"{a * nh + h} {b * nh + g} {k} 1")
    out.append("delta:")
    out += [f"{i} {i} {i} 1" for i in range(n)]
    out += ["unit:", "0 1", "counit:"] + [f"{i} 1" for i in range(n)]
    out.append("antipode:")
    entries = []
    for a in range(na):
        for h in range(nh):
            hi = inverse(th, h)
            k = perms[hi][inverse(ta, a)] * nh + hi
            entries.append((k, a * nh + h))
    out += [f"{k} {j} 1" for k, j in sorted(entries)]
    return "\n".join(out) + "\n"


def cayley_text(table):
    return f"loop {len(table)}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in table)


def action_text(perms):
    entries = sorted((h, m, pm[m]) for h, pm in enumerate(perms)
                     for m in range(len(pm)))
    return f"action {len(perms)} {len(perms[0])}\n" + "".join(
        f"{h} {m} {m2} 1\n" for h, m, m2 in entries)


def dual_coaction_text(perms):
    """The coaction m -> sum_h pi_h(m) (x) e^h dual to a permutation action."""
    entries = sorted((m, pm[m], h) for h, pm in enumerate(perms)
                     for m in range(len(pm)))
    return f"coaction {len(perms[0])} {len(perms)}\n" + "".join(
        f"{m} {m2} {h} 1\n" for m, m2, h in entries)


def grading_text(grading, h_dim):
    return f"coaction {len(grading)} {h_dim}\n" + "".join(
        f"{m} {m} {g} 1\n" for m, g in enumerate(grading))
