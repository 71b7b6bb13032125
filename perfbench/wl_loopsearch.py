"""loopsearch: exhaustive IP-loop search for orders 1 to 7.

The deck runs search_ip_loops(n) for n = 1..7, with and without
want_nonassociative, each unlimited and with limit=1, in a seeded order.
Every class found goes through check_ip_loop, is_associative and
loop_algebra.  This is integer backtracking plus canonicalization with no
field arithmetic, so a change to fields or structures should not move it.
Order 8 (about 500 s in pure Python) stays out until the search is faster.

Oracle: the class counts 1, 1, 1, 2, 1, 2, 2 for orders 1..7, one
nonassociative class at order 7 equal to LOOP7_ROWS, results sorted, and
every associativity verdict and witness re-checked on the rows.
"""

import random

import oracle


class Instance:
    __slots__ = ("kind", "label", "n", "nonassoc", "limit")

    def __init__(self, n, nonassoc, limit):
        self.kind, self.n = "search", n
        self.nonassoc, self.limit = nonassoc, limit
        self.label = f"n={n} nonassoc={nonassoc} limit={limit}"


def setup(ctx):
    deck = [Instance(n, flag, limit) for n in range(1, 8)
            for flag in (False, True) for limit in (None, 1)]
    random.Random(ctx.seed).shuffle(deck)
    return deck


def expected(inst):
    total = (oracle.NONASSOC_CLASSES if inst.nonassoc
             else oracle.IP_LOOP_CLASSES)[inst.n]
    found = total if inst.limit is None else min(total, inst.limit)
    nonassoc = oracle.NONASSOC_CLASSES[inst.n]
    if inst.limit is not None and not inst.nonassoc and nonassoc:
        nonassoc = None  # which class comes first is not claimed
    elif inst.nonassoc:
        nonassoc = found
    return {"classes": found, "nonassoc": nonassoc, "ip_ok": True,
            "sorted": True, "dims_ok": True,
            "loop7": (True if inst.nonassoc and inst.n == 7 else None)}


def _associative(rows):
    n = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def outcome(ctx, inst, raw):
    tables, checks, assoc, algebras = raw
    rows = [tuple(map(tuple, t.rows)) for t in tables]
    errors = []
    laws = []
    for r, (flag, witness) in zip(rows, assoc):
        if flag != _associative(r):
            errors.append(f"is_associative wrong on {r}")
        if witness is not None:
            a, b, c = witness
            if r[r[a][b]][c] == r[a][r[b][c]]:
                errors.append(f"associativity witness {witness} holds")
        laws.append({"law": "assoc", "pass": flag,
                     **({"witness": list(witness)} if witness else {})})
    return {"verdicts": {
                "classes": len(tables),
                "nonassoc": sum(not flag for flag, _ in assoc),
                "ip_ok": all(c.ok for c in checks),
                "sorted": rows == sorted(rows),
                "dims_ok": all(H.dim == len(r)
                               for H, r in zip(algebras, rows)),
                "loop7": bool(rows) and rows[0] == oracle.LOOP7_ROWS},
            "reports": list(checks) + laws, "errors": errors,
            "built": algebras, "counts": {"loops.classes": len(tables)}}


def run_plain(ctx, inst):
    hl = ctx.hl
    tables = hl.search_ip_loops(inst.n, want_nonassociative=inst.nonassoc,
                                limit=inst.limit)
    checks, assoc, algebras = [], [], []
    for T in tables:
        checks.append(hl.check_ip_loop(T))
        assoc.append(hl.is_associative(T))
        algebras.append(hl.loop_algebra(T, field=ctx.Q))
    return tables, checks, assoc, algebras


def run_traced(ctx, inst, tr):
    hl = ctx.hl
    tables = tr.call(f"loops.search.n{inst.n}", hl.search_ip_loops, inst.n,
                     want_nonassociative=inst.nonassoc, limit=inst.limit)
    checks, assoc, algebras = [], [], []
    for T in tables:
        checks.append(tr.call("loops.check_ip", hl.check_ip_loop, T))
        assoc.append(tr.call("loops.is_associative", hl.is_associative, T))
        algebras.append(tr.call("loops.loop_algebra", hl.loop_algebra, T,
                                field=ctx.Q))
    return tables, checks, assoc, algebras
