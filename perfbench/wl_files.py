"""files: the command-line front end on a seeded corpus.

At set-up the benchmark generates a corpus for a scratch directory inside
the checkout, from integer tables only: group and loop algebras over Q, over
GF(p) for small p and for p near 10**9, their duals, Cayley tables, and
smash, cosmash and dimodule bundles.  The runner writes it to disk once the
set-up clock has stopped (Ctx.write_files).  Each instance is one
subcommand run through cli.main in-process:

* verify on passing structure files (exit 0), law-failing ones (exit 1) and
  malformed ones (exit 2), and on Cayley files;
* loop-algebra on grouplike tables of orders 16 to 64, the dense-storage
  stress, and on a table that is not an IP loop (exit 1);
* dual applied twice (orders 32 and 48);
* smash and cosmash on valid bundles (exit 0) and on bundles whose action
  is not by automorphisms (exit 1);
* dequation on permutation dimodule bundles.

Oracle: each exit code is known from how the file was built; loop-algebra,
dual and smash outputs must equal the text written from the integer tables
alone; dual(dual(x)) must give x back byte for byte; small outputs must
survive serialize(parse(x)) and dualize twice unchanged; dequation's stdout
line follows from oracle.perm_dimodule_verdicts.

Inputs with unbounded run time today are left out: a prime near 10**18 in
a field line, dim 3000 with empty sections, and duplicate entries.
"""

import contextlib
import io
import json
import os
import random
from itertools import permutations

import oracle
from wl_sweep import random_action


class Instance:
    __slots__ = ("kind", "label", "calls", "expect", "inputs", "outputs",
                 "texts", "roundtrip", "prime")

    def __init__(self, sub, label, calls, expect, inputs, outputs=(),
                 texts=None, roundtrip=(), prime=None):
        self.kind, self.label = "cli.main." + sub, label
        self.calls, self.expect = calls, expect
        self.inputs, self.outputs = list(inputs), list(outputs)
        self.texts = texts or {}          # output path -> oracle text
        self.roundtrip = list(roundtrip)  # outputs small enough to re-check
        self.prime = prime                # p of a GF(p) input, if any


def _relabelled(rng, table):
    n = len(table)
    tail = list(range(1, n))
    rng.shuffle(tail)
    return oracle.relabel(table, [0] + tail)


def _groups(order):
    c, d, x = oracle.cyclic, oracle.dihedral, oracle.direct
    return {16: [c(16), x(c(4), c(4)), x(c(2), c(8)), d(8)],
            32: [c(32), x(c(2), c(16)), x(c(4), c(8)), d(16)],
            48: [c(48), x(c(4), c(12)), d(24), x(oracle.s3(), c(8))],
            64: [c(64), x(c(8), c(8)), d(32), x(c(4), c(16))]}[order]


SMALL = (("C2", oracle.cyclic(2)), ("C3", oracle.cyclic(3)),
         ("C4", oracle.cyclic(4)), ("V4", oracle.klein()),
         ("C5", oracle.cyclic(5)), ("C6", oracle.cyclic(6)),
         ("S3", oracle.s3()), ("C7", oracle.cyclic(7)),
         ("L7", oracle.LOOP7_ROWS))

MALFORMED = (
    ("entry arity", lambda t: t.replace("\nmu:\n", "\nmu:\nnonsense\n", 1)),
    ("header", lambda t: "hopfxx" + t[t.index("\n"):]),
    ("missing section", lambda t: t[:t.index("antipode:")]),
    ("index range", lambda t: t.replace("\nmu:\n", "\nmu:\n0 0 99 1\n", 1)),
    ("zero denominator", lambda t: t.replace("\nunit:\n0 1\n",
                                             "\nunit:\n0 1/0\n", 1)),
    ("composite field", lambda t: t.replace(t.split("\n")[1],
                                            "field F 999999938", 1)),
)


def setup(ctx):
    rng = random.Random(ctx.seed)
    base = os.path.join(ctx.workdir, "corpus")
    os.makedirs(base, exist_ok=True)
    deck = []

    def write(name, text):
        path = os.path.join(base, name)
        ctx.files[path] = text
        return path

    def out(name):
        return os.path.join(base, name)

    def prime(kind):
        return {"Q": None, "small": rng.choice(oracle.SMALL_PRIMES),
                "big": rng.choice(oracle.BIG_PRIMES)}[kind]

    tables = {name: _relabelled(rng, t) for name, t in SMALL}

    # verify: passing structures, duals included, over Q and GF(p)
    for name, fkind, dual in (("S3", "Q", False), ("L7", "Q", False),
                              ("C5", "small", False), ("V4", "big", False),
                              ("S3", "big", True), ("L7", "small", True),
                              ("C6", "Q", True), ("C7", "big", False)):
        p = prime(fkind)
        text = (oracle.dual_group_algebra_text if dual
                else oracle.group_algebra_text)(tables[name], p)
        path = write(f"ok-{name}-{fkind}-{int(dual)}.hq", text)
        deck.append(Instance(
            "verify", f"verify {name} {fkind} dual={dual}", [["verify", path]],
            {"exit": (0,), "verdict": "pass", "roundtrip": True}, [path],
            roundtrip=[path], prime=p))

    # verify: law-failing structures
    for name, fkind, how in (("S3", "Q", "antipode"), ("C5", "big", "counit"),
                             ("V4", "small", "mu"), ("C6", "Q", "dual")):
        t, p = tables[name], prime(fkind)
        n = len(t)
        if how == "dual":
            text = oracle.dual_group_algebra_text(t, p).replace(
                "\ncounit:\n0 1\n", "\ncounit:\n0 2\n")
        else:
            text = oracle.group_algebra_text(t, p)
            i = rng.randrange(1, n)
            if how == "antipode":
                j = rng.choice([j for j in range(n)
                                if j != oracle.inverse(t, i)])
                text = text.replace(f"\n{i} {oracle.inverse(t, i)} 1\n",
                                    f"\n{i} {j} 1\n")
            elif how == "counit":
                head, sep, rest = text.partition("\ncounit:")
                text = head + sep + rest.replace(f"\n{i} 1\n",
                                                 f"\n{i} 2\n", 1)
            else:
                j = rng.randrange(1, n)
                k = rng.choice([k for k in range(n) if k != t[i][j]])
                text = text.replace(f"\n{i} {j} {t[i][j]} 1\n",
                                    f"\n{i} {j} {k} 1\n", 1)
        path = write(f"bad-{name}-{how}.hq", text)
        deck.append(Instance(
            "verify", f"verify law-failing {name} {how}", [["verify", path]],
            {"exit": (1,), "verdict": "fail"}, [path], prime=p))

    # verify: malformed structures
    for what, corrupt in MALFORMED:
        name = rng.choice(("C3", "V4", "S3"))
        text = corrupt(oracle.group_algebra_text(
            tables[name], prime(rng.choice(("Q", "small", "big")))))
        path = write(f"junk-{what.replace(' ', '-')}.hq", text)
        deck.append(Instance("verify", f"verify malformed {what}",
                             [["verify", path]], {"exit": (2,)}, [path]))

    # verify: Cayley tables
    for label, text, code in (
            ("L7", oracle.cayley_text(tables["L7"]), 0),
            ("S3", oracle.cayley_text(tables["S3"]), 0),
            ("non-IP", oracle.cayley_text(oracle.NON_IP_ROWS), 1),
            ("ragged", oracle.cayley_text(tables["C4"]).replace(
                " 3\n", "\n", 1), 2)):
        path = write(f"loop-{label}.cayley", text)
        deck.append(Instance(
            "verify", f"verify cayley {label}", [["verify", path]],
            {"exit": (code,), "verdict": {0: "pass", 1: "fail"}.get(code)},
            [path]))

    # loop-algebra on grouplike tables up to order 64
    for order, fkind in ((16, "small"), (32, "Q"), (48, "big"), (64, "Q")):
        t = _relabelled(rng, rng.choice(_groups(order)))
        p = prime(fkind)
        src = write(f"g{order}.cayley", oracle.cayley_text(t))
        dst = out(f"g{order}.hq")
        flag = [] if p is None else ["--field", f"F{p}"]
        deck.append(Instance(
            "loop-algebra", f"loop-algebra order {order} {fkind}",
            [flag + ["loop-algebra", src, "-o", dst]],
            {"exit": (0,), "outputs": True}, [src], [dst],
            {dst: oracle.group_algebra_text(t, p)},
            roundtrip=[dst] if order <= 16 else [], prime=p))
    src = write("nonip.cayley", oracle.cayley_text(oracle.NON_IP_ROWS))
    deck.append(Instance("loop-algebra", "loop-algebra non-IP",
                         [["loop-algebra", src, "-o", out("nonip.hq")]],
                         {"exit": (1,)}, [src]))

    # dual, twice
    for order, fkind in ((32, "Q"), (48, "big")):
        t = _relabelled(rng, rng.choice(_groups(order)))
        p = prime(fkind)
        text = oracle.group_algebra_text(t, p)
        src = write(f"d{order}.hq", text)
        once, twice = out(f"d{order}.dual.hq"), out(f"d{order}.dual2.hq")
        deck.append(Instance(
            "dual", f"dual twice order {order} {fkind}",
            [["dual", src, "-o", once], ["dual", once, "-o", twice]],
            {"exit": (0, 0), "outputs": True}, [src], [once, twice],
            {once: oracle.dual_group_algebra_text(t, p), twice: text},
            prime=p))

    # smash and cosmash bundles
    for hname, aname, fkind in (("C2", "C5", "Q"), ("V4", "C4", "small")):
        th, ta = oracle.cyclic(2) if hname == "C2" else oracle.klein(), \
            oracle.cyclic(int(aname[1]))
        perms = random_action(rng, th, oracle.automorphisms(ta))
        p = prime(fkind)
        for sub in ("smash", "cosmash"):
            files = _bundle_files(write, sub, f"{sub}-{hname}-{aname}", th,
                                  ta, perms, p)
            dst = out(f"{sub}-{hname}-{aname}.hq")
            texts = ({dst: oracle.smash_product_text(th, ta, perms, p)}
                     if sub == "smash" else {})
            deck.append(Instance(
                sub, f"{sub} {hname} on {aname} {fkind}",
                [[sub, files[0], "-o", dst]],
                {"exit": (0,), "outputs": True if texts else None,
                 "roundtrip": True}, files, [dst], texts, [dst], p))
    not_aut = [(0, 1, 2, 3), (0, 1, 3, 2)]  # an involution, not a C4 map
    for sub in ("smash", "cosmash"):
        files = _bundle_files(write, sub, f"{sub}-bad", oracle.cyclic(2),
                              oracle.cyclic(4), not_aut, None)
        deck.append(Instance(
            sub, f"{sub} action not by automorphisms",
            [[sub, files[0], "-o", out(f"{sub}-bad.hq")]],
            {"exit": (1,)}, files))

    # dequation bundles of permutation dimodules
    c2, s3 = oracle.cyclic(2), oracle.s3()
    inv3 = [(0, 1, 2), (0, 2, 1)]
    sigma = rng.choice(sorted(permutations(range(3))))
    s3_pts = [oracle.compose(sigma, oracle.compose(f, oracle.invert_perm(
        sigma))) for f in sorted(permutations(range(3)))]
    bad = [rng.randrange(2)] + rng.sample((0, 1), 2)
    for label, table, (perms, grading) in (
            ("free C2.C3", c2, oracle.free_on_module(c2, inv3)),
            ("free S3.pts3", s3, oracle.free_on_module(s3, s3_pts)),
            ("trivial action C2", c2, ([(0, 1, 2)] * 2,
                                       [rng.randrange(2) for _ in range(3)])),
            ("bad grading C2.C3", c2, (inv3, bad))):
        verdicts, identity = oracle.perm_dimodule_verdicts(
            table, perms, grading)
        stem = "dq-" + label.replace(" ", "-").replace(".", "-")
        files = [write(f"{stem}.bundle",
                       f"dimodule quasigroup\n{stem}.hq\n{stem}.act\n"
                       f"{stem}.coact\n"),
                 write(f"{stem}.hq", oracle.group_algebra_text(table)),
                 write(f"{stem}.act", oracle.action_text(perms)),
                 write(f"{stem}.coact", oracle.grading_text(grading,
                                                            len(table)))]
        d = len(grading) ** 2
        shape = "R = identity" if identity else f"R: {d}x{d}"
        verdict = "pass" if verdicts["eq_d"] else "fail"
        deck.append(Instance(
            "dequation", f"dequation {label}", [["dequation", files[0]]],
            {"exit": (0 if verdicts["eq_d"] else 1,),
             "stdout": f"{shape}; D-equation: {verdict}\n"}, files))
    return deck


def _bundle_files(write, sub, stem, th, ta, perms, p):
    if sub == "smash":
        parts = (oracle.group_algebra_text(th, p),
                 oracle.group_algebra_text(ta, p), oracle.action_text(perms))
        ext = "act"
    else:
        parts = (oracle.dual_group_algebra_text(th, p),
                 oracle.dual_group_algebra_text(ta, p),
                 oracle.dual_coaction_text(perms))
        ext = "coact"
    names = [f"{stem}.h.hq", f"{stem}.a.hq", f"{stem}.{ext}"]
    paths = [write(n, t) for n, t in zip(names, parts)]
    return [write(f"{stem}.bundle",
                  f"{sub}\n" + "".join(n + "\n" for n in names))] + paths


def expected(inst):
    return inst.expect


def run_plain(ctx, inst):
    results = []
    for argv in inst.calls:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = ctx.hl.cli.main(argv)
        results.append((code, stdout.getvalue()))
    return results, []


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def outcome(ctx, inst, raw):
    raw, built = raw
    codes = tuple(code for code, _ in raw)
    stdout = raw[-1][1]
    verdicts = {"exit": codes, "stdout": stdout}
    errors = []
    reports = []
    if inst.kind == "cli.main.verify" and codes[0] in (0, 1):
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = {}
            errors.append("verify printed no JSON report")
        verdicts["verdict"] = doc.get("verdict")
        reports.append(doc)
    if inst.texts:
        verdicts["outputs"] = all(_read(path) == text
                                  for path, text in inst.texts.items())
    if inst.roundtrip:
        verdicts["roundtrip"] = all(_roundtrips(ctx, _read(path))
                                    for path in inst.roundtrip)
    size = sum(os.path.getsize(p) for p in inst.inputs + inst.outputs
               if os.path.exists(p))
    for path in inst.outputs:
        if os.path.exists(path):
            os.remove(path)
    return {"verdicts": verdicts, "reports": reports, "errors": errors,
            "built": built, "counts": {"fileio.bytes": size}}


def _roundtrips(ctx, text):
    """serialize(parse(text)) and two dualize calls give text back; a text
    checked once is not checked again."""
    if text is None:
        return False
    if text not in ctx.memo:
        fio = ctx.hl.fileio
        H = fio.parse_structure(text)
        ctx.memo[text] = (fio.serialize_structure(H) == text and
                          fio.serialize_structure(
                              ctx.hl.dualize(ctx.hl.dualize(H))) == text)
    return ctx.memo[text]


# --- traced replay: each subcommand through the same public calls -----------


def run_traced(ctx, inst, tr):
    hl = ctx.hl
    errors = hl.errors
    results, built = [], []
    for argv in inst.calls:
        stdout = []
        try:
            code = _replay(ctx, inst, tr, argv, stdout, built)
        except errors.ParseError:
            code = 2
        except (errors.NotIPLoop, errors.InvalidInput,
                errors.HypothesisNotMet):
            code = 1
        except (errors.HopfloopError, OSError):
            code = 2
        results.append((code, "".join(stdout)))
    return results, built


def _replay(ctx, inst, tr, argv, stdout, built):
    """One cli.main call through the public calls its subcommand makes.
    Structures and dimodules it parses or builds go to built."""
    hl = ctx.hl
    fio = hl.fileio
    field = None
    if argv[0] == "--field":
        field = tr.call("fields.prime_ctor", ctx.GF, int(argv[1][1:]))
        argv = argv[2:]
    elif inst.prime is not None:
        tr.call("fields.prime_ctor", hl.GF, inst.prime)
    sub, path = argv[0], argv[1]
    dst = argv[3] if len(argv) > 3 else None
    if sub == "verify":
        text = _read(path)
        kind = next((line.split()[0] for line in text.splitlines()
                     if line.strip() and not line.lstrip().startswith("#")),
                    None)
        if kind in ("hopfqg", "hopfcoqg"):
            H = tr.call("fileio.parse", fio.parse_structure, text)
            built.append(H)
            report = _check_structure(hl, tr, H)
        elif kind == "loop":
            T = tr.call("fileio.parse", fio.parse_cayley, text)
            report = tr.call("loops.check_ip", hl.check_ip_loop, T)
        else:
            raise hl.errors.ParseError(f"unrecognized file header {kind!r}")
        doc = report.to_dict()
        doc["kind"] = kind
        stdout.append(tr.call("report.to_json", json.dumps, doc, indent=2)
                      + "\n")
        return 0 if report.ok else 1
    if sub == "loop-algebra":
        T = tr.call("fileio.parse", fio.load_cayley, path)
        H = tr.call("loops.loop_algebra", hl.loop_algebra, T,
                    field=field or ctx.Q)
    elif sub == "dual":
        H = tr.call("structures.dualize", hl.dualize,
                    tr.call("fileio.parse", fio.load_structure, path))
    elif sub in ("smash", "cosmash"):
        inp = tr.call("fileio.parse", fio.load_smash_bundle, path)
        if sub == "smash":
            H = tr.call("smash.build_product", hl.build_smash_product, inp)
        else:
            H = tr.call("smash.build_coproduct", hl.build_smash_coproduct,
                        inp)
    else:
        D = tr.call("fileio.parse", fio.load_dimodule_bundle, path)
        built.append(D)
        R = tr.call("dimodules.d_map", hl.d_map, D)
        report = tr.call("dimodules.eq_d_small" if D.dim <= 8 else
                         "dimodules.eq_d_large", hl.check_d_equation, R)
        identity = tr.call("dimodules.is_identity", R.is_identity)
        shape = "R = identity" if identity else f"R: {R.dim}x{R.dim}"
        stdout.append(f"{shape}; D-equation: "
                      f"{'pass' if report.ok else 'fail'}\n")
        return 0 if report.ok else 1
    built.append(H)
    text = tr.call("fileio.serialize", fio.serialize_structure, H)
    fio.write_text(dst, text)
    return 0


def _check_structure(hl, tr, H):
    """check_hopf_quasigroup / check_hopf_coquasigroup, law family by law
    family."""
    st = hl.structures
    quasi = isinstance(H, hl.HopfQuasigroup)
    rep = hl.VerificationReport()
    rep.extend(tr.call("structures.unital_counital",
                       hl.check_unital_counital, H))
    rep.extend(tr.call("structures.bialg", hl.check_bialgebra_compat, H))
    if quasi:
        rep.extend(tr.call("structures.quasi", hl.check_quasi_identities, H))
    else:
        rep.extend(tr.call("structures.coq", hl.check_coq_identities, H))
    rep.extend(tr.call("structures.antipode", hl.check_antipode_basic, H))
    if quasi:
        rep.extend(tr.call("structures.assoc", st.check_associativity, H,
                           informational=True))
    else:
        rep.extend(tr.call("structures.coassoc", st.check_coassociativity, H,
                           informational=True))
    return rep
