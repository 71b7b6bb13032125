"""Mutation fuzz of the CLI: byte-flipped copies of the golden inputs.

Every run of every subcommand that reads the mutated file must end in exit
0, 1 or 2 with at most one line on stderr, and must raise nothing.  The
mutants are drawn from a fixed seed, so a failure reproduces exactly.
"""

import contextlib
import io
import os
import random
import shutil
from pathlib import Path

from hopfloop.cli import main

GOLDEN_IN = os.path.join(os.path.dirname(__file__), "golden", "in")
SEED = 20261018
MUTANTS = 400


def _bundle_command(text):
    """The subcommand, besides verify, that builds or checks a bundle."""
    header = text.split("\n", 1)[0]
    return {"smash": "smash", "cosmash": "cosmash"}.get(header, "dequation")


def _plans(names):
    """File name -> the (subcommand, file argument) runs that read it."""
    bundles = {name: Path(GOLDEN_IN, name).read_text()
               for name in names if name.endswith(".bundle")}
    plans = {}
    for name in names:
        if name.endswith(".hq"):
            plans[name] = [("verify", name), ("dual", name)]
        elif name.endswith(".cayley"):
            plans[name] = [("verify", name), ("loop-algebra", name)]
        elif name.endswith(".bundle"):
            plans[name] = [(cmd, name) for cmd in
                           ("verify", "dequation", "smash", "cosmash")]
        else:  # an action or coaction file, read through its bundles
            plans[name] = [
                (cmd, bundle) for bundle, text in sorted(bundles.items())
                if name in text.split("\n")[1:]
                for cmd in ("verify", _bundle_command(text))]
    return plans


def _mutate(rng, data):
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data))
        if rng.random() < 0.5:
            data[at] ^= 1 << rng.randrange(8)
        else:
            data[at] = rng.randrange(256)
    return bytes(data)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_mutated_inputs_exit_cleanly(tmp_path):
    work = tmp_path / "in"
    shutil.copytree(GOLDEN_IN, work)
    names = sorted(os.listdir(GOLDEN_IN))
    plans = _plans(names)
    assert all(plans[name] for name in names)
    rng = random.Random(SEED)
    seen = set()
    for index in range(MUTANTS):
        name = rng.choice(names)
        original = (work / name).read_bytes()
        mutant = _mutate(rng, original)
        (work / name).write_bytes(mutant)
        try:
            for command, arg in plans[name]:
                argv = [command, str(work / arg)]
                if command not in ("verify", "dequation"):
                    argv += ["-o", str(tmp_path / "out")]
                code, err = _run(argv)
                context = (index, name, command, mutant)
                assert code in (0, 1, 2), context
                assert err.count("\n") <= 1, (context, err)
                assert "Traceback" not in err, context
                seen.add(code)
        finally:
            (work / name).write_bytes(original)
    assert seen == {0, 1, 2}
