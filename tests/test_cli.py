import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyclic, inversion_action, loop7

from hopfloop import ActionData, CoactionData, dualize, loop_algebra
from hopfloop import fileio
from hopfloop.cli import _json_text, build_parser, main


def write_fixture_tree(tmp_path, H2, H3):
    (tmp_path / "c2.cayley").write_text(fileio.serialize_cayley(cyclic(2)))
    (tmp_path / "h2.hq").write_text(fileio.serialize_structure(H2))
    (tmp_path / "h3.hq").write_text(fileio.serialize_structure(H3))
    (tmp_path / "inv.act").write_text(
        fileio.serialize_action(inversion_action()))
    (tmp_path / "triv.coact").write_text(
        fileio.serialize_coaction(CoactionData.trivial(H2, 3)))


def test_verify_structure_pass(tmp_path, capsys, H2):
    path = tmp_path / "c2.hq"
    path.write_text(fileio.serialize_structure(H2))
    assert main(["verify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["kind"] == "hopfqg"


def test_verify_corrupted_structure_exit_1(tmp_path, capsys, H2):
    text = fileio.serialize_structure(H2).replace(
        "antipode:\n0 0 1\n1 1 1", "antipode:\n0 0 1\n1 0 1")
    path = tmp_path / "bad.hq"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    failing = [l for l in doc["laws"] if not l["pass"]
               and not l.get("informational")]
    assert failing and all("witness" in l for l in failing)


def test_verify_loop7_informational_assoc(tmp_path, capsys):
    path = tmp_path / "l7.hq"
    path.write_text(fileio.serialize_structure(loop_algebra(loop7())))
    assert main(["verify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assoc = next(l for l in doc["laws"] if l["law"] == "assoc")
    assert assoc["informational"] and not assoc["pass"]


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.hq"
    path.write_text("hopfqg\nfield Q\ndim 2\nmu:\nbroken\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err
    assert main(["verify", str(tmp_path / "missing.hq")]) == 2


def test_verify_cayley_and_dimodule(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    assert main(["verify", str(tmp_path / "c2.cayley")]) == 0
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nh2.hq\ninv.act\ntriv.coact\n")
    assert main(["verify", str(bundle)]) == 0
    capsys.readouterr()


def test_loop_algebra_then_verify(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    out = tmp_path / "c2.hq"
    assert main(["loop-algebra", str(tmp_path / "c2.cayley"),
                 "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_loop_algebra_gf5_flag(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    out = tmp_path / "c2f5.hq"
    assert main(["--field", "F5", "loop-algebra",
                 str(tmp_path / "c2.cayley"), "-o", str(out)]) == 0
    assert "field F 5" in out.read_text()
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_loop_algebra_non_ip_exit_1(tmp_path, capsys):
    from conftest import NON_IP_ROWS
    path = tmp_path / "bad.cayley"
    path.write_text("loop 5\n" + "\n".join(
        " ".join(str(v) for v in row) for row in NON_IP_ROWS) + "\n")
    assert main(["loop-algebra", str(path)]) == 1
    capsys.readouterr()


def test_dual_roundtrip(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    d1 = tmp_path / "h2d.hq"
    d2 = tmp_path / "h2dd.hq"
    assert main(["dual", str(tmp_path / "h2.hq"), "-o", str(d1)]) == 0
    assert main(["dual", str(d1), "-o", str(d2)]) == 0
    assert d2.read_text() == (tmp_path / "h2.hq").read_text()
    assert main(["verify", str(d1)]) == 0
    capsys.readouterr()


def test_smash_build_and_verify(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    bundle = tmp_path / "s.bundle"
    bundle.write_text("smash\nh2.hq\nh3.hq\ninv.act\n")
    out = tmp_path / "s3.hq"
    assert main(["smash", str(bundle), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_cosmash_build_and_verify(tmp_path, capsys, H2, H3):
    (tmp_path / "h2d.hq").write_text(
        fileio.serialize_structure(dualize(H2)))
    (tmp_path / "h3d.hq").write_text(
        fileio.serialize_structure(dualize(H3)))
    (tmp_path / "dual.coact").write_text(fileio.serialize_coaction(
        CoactionData.dual_of_action(inversion_action())))
    bundle = tmp_path / "c.bundle"
    bundle.write_text("cosmash\nh2d.hq\nh3d.hq\ndual.coact\n")
    out = tmp_path / "c.hq"
    assert main(["cosmash", str(bundle), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_dequation_trivial_bundle(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nh2.hq\ninv.act\ntriv.coact\n")
    assert main(["dequation", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert out == "R = identity; D-equation: pass\n"


def test_dequation_zero_dim_carrier(tmp_path, capsys, H2):
    """The D-equation on the zero space holds: exit 0 and one line."""
    (tmp_path / "h2.hq").write_text(fileio.serialize_structure(H2))
    (tmp_path / "z.act").write_text("action 2 0\n")
    (tmp_path / "z.coact").write_text("coaction 0 2\n")
    bundle = tmp_path / "z.bundle"
    bundle.write_text("dimodule quasigroup\nh2.hq\nz.act\nz.coact\n")
    assert main(["dequation", str(bundle)]) == 0
    assert capsys.readouterr() == ("R = identity; D-equation: pass\n", "")


def test_search_loops_cli(tmp_path, capsys):
    prefix = str(tmp_path) + "/"
    assert main(["search-loops", "7", "--nonassoc", "--limit", "1",
                 "--prefix", prefix]) == 0
    out = capsys.readouterr().out
    assert "found 1" in out
    cayley = tmp_path / "loop7-0.cayley"
    assert cayley.exists()
    hq = tmp_path / "l7.hq"
    assert main(["loop-algebra", str(cayley), "-o", str(hq)]) == 0
    assert main(["verify", str(hq)]) == 0
    capsys.readouterr()


def test_report_flag_writes_identical_document(tmp_path, capsys, H2):
    path = tmp_path / "c2.hq"
    path.write_text(fileio.serialize_structure(H2))
    rpt = tmp_path / "r.json"
    assert main(["--report", str(rpt), "verify", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert rpt.read_text() == stdout


def test_report_determinism(tmp_path, capsys, H2):
    path = tmp_path / "c2.hq"
    path.write_text(fileio.serialize_structure(H2))
    main(["verify", str(path)])
    first = capsys.readouterr().out
    main(["verify", str(path)])
    assert capsys.readouterr().out == first


def _duplicate_entry(text, header):
    """Repeat the first entry after the header line with another scalar;
    return the new text and the line number of the repeat."""
    lines = text.splitlines()
    at = lines.index(header) + 1
    repeat = " ".join(lines[at].split()[:-1] + ["5"])
    lines.insert(at + 1, repeat)
    return "\n".join(lines) + "\n", at + 2


def _assert_one_line_error(capsys, line):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert f"line {line}: duplicate" in captured.err


@pytest.mark.parametrize("section",
                         ["mu", "delta", "unit", "counit", "antipode"])
def test_duplicate_structure_entry_exit_2(tmp_path, capsys, H2, section):
    text, line = _duplicate_entry(fileio.serialize_structure(H2),
                                  f"{section}:")
    path = tmp_path / "dup.hq"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys, line)


@pytest.mark.parametrize("kind", ["act", "coact"])
def test_duplicate_action_coaction_entry_exit_2(tmp_path, capsys, H2, H3,
                                                kind):
    write_fixture_tree(tmp_path, H2, H3)
    name = "inv.act" if kind == "act" else "triv.coact"
    target = tmp_path / name
    text = target.read_text()
    text, line = _duplicate_entry(text, text.splitlines()[0])
    target.write_text(text)
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nh2.hq\ninv.act\ntriv.coact\n")
    assert main(["verify", str(bundle)]) == 2
    _assert_one_line_error(capsys, line)


def test_huge_prime_field_accepted_quickly(tmp_path, capsys):
    path = tmp_path / "big.hq"
    path.write_text("hopfqg\nfield F 1000000000000000003\ndim 1\n"
                    "mu:\n0 0 0 1\ndelta:\n0 0 0 1\nunit:\n0 1\n"
                    "counit:\n0 1\nantipode:\n0 0 1\n")
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - t0 < 1.0
    capsys.readouterr()


def test_modulus_beyond_primality_bound_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.hq"
    path.write_text("hopfqg\nfield F 3317044064679887385961981\ndim 1\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "line 2" in err and "too large" in err


def _assert_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in captured.err


def test_declared_dim_beyond_budget_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.hq"
    path.write_text("hopfqg\nfield Q\ndim 3000\nmu:\ndelta:\nunit:\n"
                    "counit:\nantipode:\n")
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    _assert_error_line(capsys, "line 3:", "3000")


def test_rational_exponent_beyond_bound_exit_2(tmp_path, capsys, H2):
    # Fraction would expand 10**999999999 for minutes
    text = fileio.serialize_structure(H2)
    lines = text.splitlines()
    no = lines.index("antipode:") + 2
    lines[no - 1] = lines[no - 1].rsplit(" ", 1)[0] + " 1e999999999"
    path = tmp_path / "exp.hq"
    path.write_text("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    _assert_error_line(capsys, f"line {no}:", "1e999999999", "exponent")


def test_loop_order_beyond_budget_exit_2(tmp_path, capsys):
    # its loop algebra would be a structure file that verify refuses
    path = tmp_path / "c257.cayley"
    path.write_text(fileio.serialize_cayley(cyclic(257)))
    assert main(["loop-algebra", str(path), "-o", str(tmp_path / "o")]) == 2
    _assert_error_line(capsys, "line 1:", "257")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, header", [
    ("inv.act", "action 2 3000"), ("inv.act", "action 3000 3"),
    ("triv.coact", "coaction 3000 2"), ("triv.coact", "coaction 3 -1")])
def test_action_coaction_dims_beyond_budget_exit_2(tmp_path, capsys, H2, H3,
                                                   name, header):
    write_fixture_tree(tmp_path, H2, H3)
    target = tmp_path / name
    lines = target.read_text().splitlines()
    target.write_text("\n".join([header] + lines[1:]) + "\n")
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nh2.hq\ninv.act\ntriv.coact\n")
    assert main(["verify", str(bundle)]) == 2
    _assert_error_line(capsys, "line 1:", "outside the supported range")


@pytest.mark.parametrize("command, bundle", [
    ("verify", "dimodule quasigroup\nh2.hq\nh3.act\ntriv.coact\n"),
    ("dequation", "dimodule quasigroup\nh2.hq\nh3.act\ntriv.coact\n"),
    ("verify", "smash\nh2.hq\nh3.hq\nh3.act\n"),
    ("smash", "smash\nh2.hq\nh3.hq\nh3.act\n")])
def test_action_of_another_h_dim_exit_2(tmp_path, capsys, H2, H3, command,
                                        bundle):
    """A bundle whose action file declares H_dim 3 over the dim-2 H is
    refused where it is loaded, with one line naming the legs' dims."""
    write_fixture_tree(tmp_path, H2, H3)
    (tmp_path / "h3.act").write_text(
        fileio.serialize_action(ActionData.trivial(H3, 3)))
    path = tmp_path / "x.bundle"
    path.write_text(bundle)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: action, coaction or target dims do not match legs H, A, B "
        "of dims 2, 3, 0\n"))


def test_memory_error_exit_2(tmp_path, capsys, H2, monkeypatch):
    path = tmp_path / "c2.hq"
    path.write_text(fileio.serialize_structure(H2))

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(fileio, "parse_structure", exhausted)
    assert main(["verify", str(path)]) == 2
    _assert_error_line(capsys, "error: out of memory")


@pytest.mark.parametrize("field_line, bad", [
    ("field Q", "1/2/3"), ("field Q", "1/0"), ("field F 7", "x"),
    ("field F 7", "3/7")])
@pytest.mark.parametrize("kind", ["structure", "action", "coaction"])
def test_bad_scalar_names_its_line(tmp_path, capsys, kind, field_line, bad):
    h2 = fileio.serialize_structure(loop_algebra(cyclic(2))).replace(
        "field Q", field_line)
    files = {"h2.hq": h2, "a.act": "action 2 1\n0 0 0 1\n1 0 0 1\n",
             "c.coact": "coaction 1 2\n0 0 0 1\n"}
    name, line = {"structure": ("h2.hq", h2.splitlines().index("delta:") + 2),
                  "action": ("a.act", 3), "coaction": ("c.coact", 2)}[kind]
    lines = files[name].splitlines()
    lines[line - 1] = " ".join(lines[line - 1].split()[:-1] + [bad])
    files[name] = "\n".join(lines) + "\n"
    for n, text in files.items():
        (tmp_path / n).write_text(text)
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nh2.hq\na.act\nc.coact\n")
    assert main(["verify", str(bundle)]) == 2
    _assert_error_line(capsys, f"line {line}:", repr(bad))


@pytest.mark.parametrize("argv, message", [
    (["search-loops", "0"], "order must be positive, got 0"),
    (["search-loops", "-3"], "order must be positive, got -3"),
    (["search-loops", "3", "--limit", "-1"],
     "--limit must not be negative, got -1")])
def test_search_loops_bad_arguments_exit_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--prefix", str(tmp_path) + "/"]) == 2
    _assert_error_line(capsys, f"error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_search_loops_limit_zero_writes_nothing(tmp_path, capsys):
    assert main(["search-loops", "4", "--limit", "0",
                 "--prefix", str(tmp_path) + "/"]) == 0
    assert capsys.readouterr().out == "found 0 IP loops of order 4\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, name", [
    ("verify", "h2.hq"), ("dual", "h2.hq"), ("loop-algebra", "c2.cayley"),
    ("dequation", "inv.act"), ("dequation", "triv.coact"),
    ("dequation", "d.bundle"), ("smash", "s.bundle")])
def test_non_utf8_input_exit_2(tmp_path, capsys, H2, H3, command, name):
    write_fixture_tree(tmp_path, H2, H3)
    (tmp_path / "d.bundle").write_text(
        "dimodule quasigroup\nh2.hq\ninv.act\ntriv.coact\n")
    (tmp_path / "s.bundle").write_text("smash\nh2.hq\nh3.hq\ninv.act\n")
    target = tmp_path / name
    head, rest = target.read_bytes().split(b"\n", 1)
    target.write_bytes(head + b"\n\xff" + rest)
    arg = {"verify": "h2.hq", "dual": "h2.hq", "loop-algebra": "c2.cayley",
           "dequation": "d.bundle", "smash": "s.bundle"}[command]
    assert main([command, str(tmp_path / arg)]) == 2
    _assert_error_line(capsys, name, "not UTF-8 text")


def test_nul_byte_in_bundle_path_exit_2(tmp_path, capsys, H2, H3):
    write_fixture_tree(tmp_path, H2, H3)
    bundle = tmp_path / "s.bundle"
    bundle.write_text("smash\nh2.hq\nh\0.hq\ninv.act\n")
    assert main(["verify", str(bundle)]) == 2
    _assert_error_line(capsys, "line 3:", "NUL byte")


@pytest.mark.parametrize("extra, line", [("1 0", 4), ("foo bar", 4),
                                         ("# note\n\n1 0", 6)])
@pytest.mark.parametrize("command", ["verify", "loop-algebra"])
def test_cayley_trailing_content_exit_2(tmp_path, capsys, command, extra,
                                        line):
    path = tmp_path / "c2.cayley"
    path.write_text(fileio.serialize_cayley(cyclic(2)) + extra + "\n")
    out = tmp_path / "c2.hq"
    argv = {"verify": ["verify", str(path)],
            "loop-algebra": ["loop-algebra", str(path), "-o", str(out)]}
    assert main(argv[command]) == 2
    _assert_error_line(capsys, f"line {line}:", "trailing content")
    assert not out.exists()


def test_parser_built_once_and_reused(tmp_path, capsys, H2):
    """Several main() calls in one process share one parser; no option of
    one run leaks into the next, and usage errors print the same bytes."""
    assert build_parser() is build_parser()
    path = tmp_path / "c2.hq"
    path.write_text(fileio.serialize_structure(H2))
    cayley = tmp_path / "c3.cayley"
    cayley.write_text(fileio.serialize_cayley(cyclic(3)))
    rpt = tmp_path / "r.json"
    assert main(["--report", str(rpt), "--field", "F7", "verify",
                 str(path)]) == 0
    assert rpt.exists()
    rpt.unlink()
    out = tmp_path / "c3.hq"
    assert main(["loop-algebra", str(cayley), "-o", str(out)]) == 0
    assert out.read_text() == fileio.serialize_structure(
        loop_algebra(cyclic(3)))
    assert main(["verify", str(path)]) == 0
    assert not rpt.exists()
    capsys.readouterr()
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["dual"])
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and "usage: hopfloop dual" in errs[0]


json_docs = st.recursive(
    st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(json_docs)
def test_json_writer_matches_json_dumps(doc):
    """Empty containers, non-ASCII text and escapes included."""
    assert _json_text(doc) == json.dumps(doc, indent=2)
