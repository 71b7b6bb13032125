"""The golden CLI corpus: fixture input files, and the exit code, stdout,
stderr, --report JSON and -o output of every subcommand run on them.

    PYTHONPATH=src:tests python tests/golden_corpus.py tests/golden

writes the corpus.  test_golden.py rebuilds it in a temporary directory and
compares every file byte for byte, so a refactor that changes a verdict, a
witness, a report or a serialization shows up as a diff.

All paths are relative to the corpus root, which is the working directory
while the commands run, so nothing machine-specific reaches the records.
"""

import contextlib
import io
import os
import sys

from conftest import (NON_IP_ROWS, cyclic, inversion_action, loop7,
                      perm_action, s3_table)

from hopfloop import (ActionData, CoactionData, GF, LoopTable, QQ,
                      build_from_comodule, build_from_quasimodule, dualize,
                      loop_algebra)
from hopfloop import fileio
from hopfloop.cli import main


def _bad_mu(text):
    """An S3 structure whose product sends e_1 e_2 to the wrong element."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("1 2 "))
    k = int(lines[at].split()[2])
    lines[at] = f"1 2 {(k + 1) % 6} 1"
    return "\n".join(lines) + "\n"


def inputs():
    """Name (relative to the corpus root) -> text of every input file."""
    s = fileio.serialize_structure
    H2, H3 = loop_algebra(cyclic(2)), loop_algebra(cyclic(3))
    HS3, H7 = loop_algebra(s3_table()), loop_algebra(loop7())
    H2d, H3d = dualize(H2), dualize(H3)
    F7 = GF(7)
    inv = inversion_action()
    dual_inv = CoactionData.dual_of_action(inv)
    free = build_from_quasimodule(H2, inv)
    cofree = build_from_comodule(H2d, dual_inv)
    files = {
        "in/c2.cayley": fileio.serialize_cayley(cyclic(2)),
        "in/c3.cayley": fileio.serialize_cayley(cyclic(3)),
        "in/s3.cayley": fileio.serialize_cayley(s3_table()),
        "in/l7.cayley": fileio.serialize_cayley(loop7()),
        "in/nonip.cayley": fileio.serialize_cayley(LoopTable(NON_IP_ROWS)),
        "in/c2.hq": s(H2),
        "in/c3.hq": s(H3),
        "in/s3.hq": s(HS3),
        "in/l7.hq": s(H7),
        "in/c2d.hq": s(H2d),
        "in/c3d.hq": s(H3d),
        "in/s3d.hq": s(dualize(HS3)),
        "in/l7d.hq": s(dualize(H7)),
        "in/c2-f7.hq": s(loop_algebra(cyclic(2), field=F7)),
        "in/c3-f7.hq": s(loop_algebra(cyclic(3), field=F7)),
        "in/bad-antipode.hq": s(H2).replace(
            "antipode:\n0 0 1\n1 1 1", "antipode:\n0 0 1\n1 0 1"),
        "in/bad-mu.hq": _bad_mu(s(HS3)),
        "in/bad-counit.hq": s(dualize(HS3)).replace(
            "counit:\n0 1\n", "counit:\n0 2\n"),
        "in/junk.hq": "hopfqg\nfield Q\ndim 2\nmu:\nbroken\n",
        "in/dup.hq": s(H2).replace("unit:\n0 1\n", "unit:\n0 1\n0 5\n"),
        "in/inv.act": fileio.serialize_action(inv),
        "in/inv-f7.act": fileio.serialize_action(inversion_action(F7)),
        "in/triv.act": fileio.serialize_action(ActionData.trivial(H2, 3)),
        "in/swap.act": fileio.serialize_action(
            perm_action(QQ, 2, [(0, 1, 2, 3), (0, 1, 3, 2)])),
        "in/triv.coact": fileio.serialize_coaction(
            CoactionData.trivial(H2, 3)),
        "in/grade.coact": fileio.serialize_coaction(
            CoactionData.graded(H2, [0, 1, 1])),
        "in/badgrade.coact": fileio.serialize_coaction(
            CoactionData.graded(H2, [0, 1, 0])),
        "in/dual.coact": fileio.serialize_coaction(dual_inv),
        "in/free.act": fileio.serialize_action(free.act),
        "in/free.coact": fileio.serialize_coaction(free.coact),
        "in/cofree.act": fileio.serialize_action(cofree.act),
        "in/cofree.coact": fileio.serialize_coaction(cofree.coact),
        "in/c4.hq": s(loop_algebra(cyclic(4))),
        "in/smash.bundle": "smash\nc2.hq\nc3.hq\ninv.act\n",
        "in/smash-f7.bundle": "smash\nc2-f7.hq\nc3-f7.hq\ninv-f7.act\n",
        "in/smash-bad.bundle": "smash\nc2.hq\nc4.hq\nswap.act\n",
        "in/cosmash.bundle": "cosmash\nc2d.hq\nc3d.hq\ndual.coact\n",
        "in/dm-triv.bundle":
            "dimodule quasigroup\nc2.hq\ninv.act\ntriv.coact\n",
        "in/dm-grade.bundle":
            "dimodule quasigroup\nc2.hq\ntriv.act\ngrade.coact\n",
        "in/dm-bad.bundle":
            "dimodule quasigroup\nc2.hq\ninv.act\nbadgrade.coact\n",
        "in/dm-free.bundle":
            "dimodule quasigroup\nc2.hq\nfree.act\nfree.coact\n",
        "in/dm-cofree.bundle":
            "dimodule coquasigroup\nc2d.hq\ncofree.act\ncofree.coact\n",
    }
    return files


# (record name, argv) in run order; later runs may read earlier outputs.
RUNS = [
    # verify on structures, duals, failing structures and parse errors
    ("verify-c2", ["--report", "out/verify-c2.json", "verify", "in/c2.hq"]),
    ("verify-c3", ["verify", "in/c3.hq"]),
    ("verify-s3", ["verify", "in/s3.hq"]),
    ("verify-l7", ["--report", "out/verify-l7.json", "verify", "in/l7.hq"]),
    ("verify-c2d", ["verify", "in/c2d.hq"]),
    ("verify-s3d", ["verify", "in/s3d.hq"]),
    ("verify-l7d", ["verify", "in/l7d.hq"]),
    ("verify-bad-antipode", ["--report", "out/verify-bad-antipode.json",
                             "verify", "in/bad-antipode.hq"]),
    ("verify-bad-mu", ["verify", "in/bad-mu.hq"]),
    ("verify-bad-counit", ["verify", "in/bad-counit.hq"]),
    ("verify-junk", ["verify", "in/junk.hq"]),
    ("verify-dup", ["verify", "in/dup.hq"]),
    ("verify-missing", ["verify", "in/missing.hq"]),
    ("verify-kind-mismatch", ["verify", "--kind", "loop", "in/c2.hq"]),
    # Cayley tables
    ("verify-cayley-s3", ["verify", "in/s3.cayley"]),
    ("verify-cayley-l7", ["verify", "in/l7.cayley"]),
    ("verify-cayley-nonip", ["verify", "in/nonip.cayley"]),
    # bundles
    ("verify-smash", ["verify", "in/smash.bundle"]),
    ("verify-smash-bad", ["verify", "in/smash-bad.bundle"]),
    ("verify-cosmash", ["verify", "in/cosmash.bundle"]),
    ("verify-dm-free", ["verify", "in/dm-free.bundle"]),
    ("verify-dm-cofree", ["verify", "in/dm-cofree.bundle"]),
    ("verify-dm-bad", ["--report", "out/verify-dm-bad.json",
                       "verify", "in/dm-bad.bundle"]),
    # loop-algebra, over Q and GF(5)
    ("loop-algebra-c2", ["loop-algebra", "in/c2.cayley", "-o", "out/c2.hq"]),
    ("loop-algebra-s3", ["loop-algebra", "in/s3.cayley", "-o", "out/s3.hq"]),
    ("loop-algebra-l7", ["loop-algebra", "in/l7.cayley"]),
    ("loop-algebra-s3-f5", ["--field", "F5", "loop-algebra", "in/s3.cayley",
                            "-o", "out/s3-f5.hq"]),
    ("loop-algebra-nonip", ["loop-algebra", "in/nonip.cayley"]),
    ("loop-algebra-bad-field", ["--field", "F6", "loop-algebra",
                                "in/c2.cayley"]),
    ("verify-s3-f5", ["--report", "out/verify-s3-f5.json",
                      "verify", "out/s3-f5.hq"]),
    # dual, twice
    ("dual-c2", ["dual", "in/c2.hq", "-o", "out/c2d.hq"]),
    ("dual-c2d", ["dual", "out/c2d.hq", "-o", "out/c2dd.hq"]),
    ("dual-s3", ["dual", "in/s3.hq"]),
    ("dual-l7", ["dual", "in/l7.hq", "-o", "out/l7d.hq"]),
    ("dual-s3-f5", ["dual", "out/s3-f5.hq", "-o", "out/s3d-f5.hq"]),
    ("verify-l7d-out", ["verify", "out/l7d.hq"]),
    ("verify-s3d-f5", ["verify", "out/s3d-f5.hq"]),
    # smash and cosmash
    ("smash", ["smash", "in/smash.bundle", "-o", "out/smash.hq"]),
    ("smash-stdout", ["smash", "in/smash.bundle"]),
    ("smash-f7", ["smash", "in/smash-f7.bundle", "-o", "out/smash-f7.hq"]),
    ("smash-bad", ["smash", "in/smash-bad.bundle"]),
    ("smash-wrong-kind", ["smash", "in/cosmash.bundle"]),
    ("verify-smash-out", ["verify", "out/smash.hq"]),
    ("verify-smash-f7-out", ["verify", "out/smash-f7.hq"]),
    ("cosmash", ["cosmash", "in/cosmash.bundle", "-o", "out/cosmash.hq"]),
    ("cosmash-wrong-kind", ["cosmash", "in/smash.bundle"]),
    ("verify-cosmash-out", ["--report", "out/verify-cosmash-out.json",
                            "verify", "out/cosmash.hq"]),
    # D-equation
    ("dequation-triv", ["dequation", "in/dm-triv.bundle"]),
    ("dequation-grade", ["--report", "out/dequation-grade.json",
                         "dequation", "in/dm-grade.bundle"]),
    ("dequation-free", ["--report", "out/dequation-free.json",
                        "dequation", "in/dm-free.bundle"]),
    ("dequation-cofree", ["dequation", "in/dm-cofree.bundle"]),
    ("dequation-bad", ["--report", "out/dequation-bad.json",
                       "dequation", "in/dm-bad.bundle"]),
    # loop search
    ("search-loops-5", ["search-loops", "5", "--prefix", "out/"]),
    ("search-loops-6-limit", ["search-loops", "6", "--limit", "1",
                              "--prefix", "out/s6-"]),
    ("search-loops-6-nonassoc", ["search-loops", "6", "--nonassoc",
                                 "--prefix", "out/"]),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"$ hopfloop {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def build(root):
    """Write the inputs under root and run every command from root."""
    os.makedirs(os.path.join(root, "out"), exist_ok=True)
    os.makedirs(os.path.join(root, "runs"), exist_ok=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, text in inputs().items():
            os.makedirs(os.path.dirname(name), exist_ok=True)
            fileio.write_text(name, text)
        for name, argv in RUNS:
            fileio.write_text(f"runs/{name}.txt", _run(argv))
    finally:
        os.chdir(cwd)


def tree(root):
    """Relative path -> bytes of every file under root."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


if __name__ == "__main__":
    build(sys.argv[1])
