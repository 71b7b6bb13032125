from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fileio_reference as reference
from conftest import cyclic, inversion_action, loop7, s3_table, vector

from hopfloop import (ActionData, CoactionData, CosmashInput, GF,
                      HopfCoquasigroup, HopfQuasigroup, LongDimodule,
                      LoopTable, QQ, SmashInput, SparseTensor, dualize,
                      loop_algebra)
from hopfloop import fileio
from hopfloop.errors import HopfloopError, MalformedTable, ParseError


def all_structures():
    yield loop_algebra(cyclic(2))
    yield loop_algebra(s3_table())
    yield loop_algebra(loop7())
    yield loop_algebra(cyclic(3), field=GF(5))
    yield dualize(loop_algebra(s3_table()))
    yield dualize(loop_algebra(loop7(), field=GF(7)))


def test_structure_roundtrip_byte_identical():
    for H in all_structures():
        text = fileio.serialize_structure(H)
        H2 = fileio.parse_structure(text)
        assert fileio.serialize_structure(H2) == text
        assert H2.same_tensors(H)
        assert type(H2) is type(H)
        assert H2.field == H.field


def test_cayley_roundtrip():
    for table in (cyclic(2), s3_table(), loop7()):
        text = fileio.serialize_cayley(table)
        assert fileio.serialize_cayley(fileio.parse_cayley(text)) == text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-1, n), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_parse_cayley_agrees_with_loop_table(rows):
    """The parser range-checks each cell once and builds the table
    unchecked; the result equals the checked LoopTable of the same rows."""
    n = len(rows)
    text = f"loop {n}\n" + "".join(" ".join(map(str, r)) + "\n"
                                    for r in rows)
    if all(0 <= v < n for r in rows for v in r):
        T = fileio.parse_cayley(text)
        assert T == LoopTable(rows) and T.n == n
        assert hash(T) == hash(LoopTable(rows))
    else:
        with pytest.raises(ParseError, match="out of range"):
            fileio.parse_cayley(text)
    with pytest.raises(MalformedTable, match="empty table"):
        fileio.parse_cayley("loop 0\n")


def test_action_coaction_roundtrip():
    act = inversion_action()
    text = fileio.serialize_action(act)
    assert fileio.serialize_action(fileio.parse_action(text, QQ)) == text
    co = CoactionData.dual_of_action(act)
    ctext = fileio.serialize_coaction(co)
    assert fileio.serialize_coaction(
        fileio.parse_coaction(ctext, QQ)) == ctext


def test_comments_and_blank_lines_tolerated():
    text = "# a loop\n\nloop 2\n# rows\n0 1\n\n1 0\n"
    table = fileio.parse_cayley(text)
    assert table.rows == ((0, 1), (1, 0))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        fileio.parse_structure("hopfqg\nfield Q\ndim 2\nmu:\n0 0 5 1\n")
    assert exc.value.line == 5
    with pytest.raises(ParseError) as exc:
        fileio.parse_structure("hopfqg\nfield Q\ndim 2\nmu:\n0 0 0 x\n")
    assert exc.value.line == 5
    with pytest.raises(ParseError) as exc:
        fileio.parse_cayley("loop 3\n0 1 2\n1 2 0\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        fileio.parse_structure("bogus\n")


def test_missing_and_duplicate_sections():
    base = "hopfqg\nfield Q\ndim 1\nmu:\n0 0 0 1\n"
    with pytest.raises(ParseError, match="missing sections"):
        fileio.parse_structure(base)
    dup = base + "mu:\n"
    with pytest.raises(ParseError, match="duplicate"):
        fileio.parse_structure(dup)


def test_gf_scalar_parse_in_structure():
    H = loop_algebra(cyclic(2), field=GF(5))
    text = fileio.serialize_structure(H).replace("dim 2", "dim 2")
    # inject a fraction-syntax scalar: 1 == 6/2 subtly => use 3/2 * 2 = 3
    text = text.replace("antipode:\n0 0 1", "antipode:\n0 0 2/2")
    H2 = fileio.parse_structure(text)
    assert H2.antipode.rows[0][0] == 1


def test_dimodule_bundle_roundtrip(tmp_path, H2):
    act = inversion_action()
    co = CoactionData.trivial(H2, 3)
    (tmp_path / "h.hq").write_text(fileio.serialize_structure(H2))
    (tmp_path / "a.act").write_text(fileio.serialize_action(act))
    (tmp_path / "c.coact").write_text(fileio.serialize_coaction(co))
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nh.hq\na.act\nc.coact\n")
    D = fileio.load_dimodule_bundle(str(bundle))
    assert isinstance(D, LongDimodule)
    assert D.dim == 3 and D.H.same_tensors(H2)


def test_smash_bundle_kinds(tmp_path, H2, H3):
    act = inversion_action()
    (tmp_path / "h2.hq").write_text(fileio.serialize_structure(H2))
    (tmp_path / "h3.hq").write_text(fileio.serialize_structure(H3))
    (tmp_path / "a.act").write_text(fileio.serialize_action(act))
    sb = tmp_path / "s.bundle"
    sb.write_text("smash\nh2.hq\nh3.hq\na.act\n")
    inp = fileio.load_smash_bundle(str(sb))
    assert isinstance(inp, SmashInput)

    (tmp_path / "h2d.hq").write_text(
        fileio.serialize_structure(dualize(H2)))
    (tmp_path / "h3d.hq").write_text(
        fileio.serialize_structure(dualize(H3)))
    (tmp_path / "c.coact").write_text(
        fileio.serialize_coaction(CoactionData.dual_of_action(act)))
    cb = tmp_path / "c.bundle"
    cb.write_text("cosmash\nh2d.hq\nh3d.hq\nc.coact\n")
    assert isinstance(fileio.load_smash_bundle(str(cb)), CosmashInput)

    bad = tmp_path / "bad.bundle"
    bad.write_text("smash\nh2d.hq\nh3.hq\na.act\n")
    with pytest.raises(ParseError):
        fileio.load_smash_bundle(str(bad))


def test_bundle_relative_path_resolution(tmp_path, H2):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "h.hq").write_text(fileio.serialize_structure(H2))
    (sub / "a.act").write_text(fileio.serialize_action(inversion_action()))
    (sub / "c.coact").write_text(
        fileio.serialize_coaction(CoactionData.trivial(H2, 3)))
    bundle = tmp_path / "d.bundle"
    bundle.write_text("dimodule quasigroup\nsub/h.hq\nsub/a.act\n"
                      "sub/c.coact\n")
    assert fileio.load_dimodule_bundle(str(bundle)).dim == 3


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        fileio.load_structure("/nonexistent/x.hq")


# --- the one-pass parser against the per-token reference ------------------

SCALARS = {QQ: (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)),
           GF(7): (0, 1, 2, 3, 6)}
BAD_TOKENS = ("x", "-1", "", "1.5", "1/0", "0", "1", "2", "3", "4", "5",
              "7", "99", "+2", "0x1", "1_0")


@st.composite
def structure_texts(draw):
    """(text,): a serialized structure of dim 1-4 over Q or GF(7)."""
    f = draw(st.sampled_from(list(SCALARS)))
    n = draw(st.integers(1, 4))
    scalar = st.sampled_from(SCALARS[f])
    idx = st.integers(0, n - 1)

    def entries(order):
        return draw(st.lists(st.tuples(*[idx] * order, scalar),
                             max_size=2 * n * n))

    def vec():
        return vector(f, draw(st.lists(scalar, min_size=n, max_size=n)))

    cls = draw(st.sampled_from((HopfQuasigroup, HopfCoquasigroup)))
    H = cls(SparseTensor(f, (n,) * 3, entries(3)), vec(),
            SparseTensor(f, (n,) * 3, entries(3)), vec(),
            SparseTensor(f, (n, n), entries(2)))
    return (reference.serialize_structure(H),)


@st.composite
def map_texts(draw):
    """(kind, field, text): a serialized action or coaction with dims 0-3
    over Q or GF(7)."""
    f = draw(st.sampled_from(list(SCALARS)))
    h_dim, m_dim = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("action", "coaction")))
    if kind == "action":
        dims, cls = (h_dim, m_dim, m_dim), ActionData
    else:
        dims, cls = (m_dim, m_dim, h_dim), CoactionData
    entries = [] if 0 in dims else draw(st.lists(st.tuples(
        *[st.integers(0, d - 1) for d in dims],
        st.sampled_from(SCALARS[f])), max_size=12))
    write = getattr(reference, "serialize_" + kind)
    return kind, f, write(cls(f, dims, entries))


@st.composite
def mutated(draw, texts):
    """A valid text from `texts`, then up to three line-level mutations:
    bad or out-of-range tokens, an index one larger, wrong arity, zero
    scalars, duplicated, dropped, swapped or renamed lines."""
    *extra, text = draw(texts)
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        entry_lines = [i for i, line in enumerate(lines) if line[:1].isdigit()]
        if entry_lines and draw(st.integers(0, 3)):
            i = draw(st.sampled_from(entry_lines))
        else:
            i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        op = draw(st.sampled_from(("token", "bump", "bump", "arity", "scalar",
                                   "dup", "drop", "swap", "rename",
                                   "spaces")))
        if op == "bump" and len(toks) > 1 and toks[0].isdigit():
            # one past the largest index in range, when it was the largest
            k = draw(st.integers(0, len(toks) - 2))
            toks[k] = str(int(toks[k]) + 1)
            lines[i] = " ".join(toks)
        elif op == "token" and toks:
            toks[draw(st.integers(0, len(toks) - 1))] = draw(
                st.sampled_from(BAD_TOKENS))
            lines[i] = " ".join(toks)
        elif op == "arity" and toks:
            lines[i] = " ".join(toks[:-1] if draw(st.booleans())
                                else toks + ["1"])
        elif op == "scalar" and toks:
            lines[i] = " ".join(toks[:-1] + [draw(st.sampled_from(
                ("0", "7", "14", "-0", "0/3", "x", "1/0", "2/7")))])
        elif op == "dup":
            # a repeated index tuple, its scalar maybe changed or bad
            if len(toks) > 1:
                toks[-1] = draw(st.sampled_from((toks[-1], "5", "x", "1/0")))
            at = draw(st.sampled_from((i + 1, draw(st.integers(
                0, len(lines))))))
            lines.insert(at, " ".join(toks))
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "rename":
            lines[i] = draw(st.sampled_from(
                ("foo:", "mu:", "unit:", "antipode:", "# comment", "",
                 ":")))
        elif op == "spaces":
            lines[i] = "  " + " \t ".join(toks) + " "
    return (*extra, "\n".join(lines) + "\n")


def _outcome(parse, *args):
    """What a parse gives: its error, or the parsed tensors, nonzeros in
    insertion order."""
    try:
        obj = parse(*args)
    except HopfloopError as exc:
        return ("error", type(exc).__name__, str(exc),
                getattr(exc, "line", None))
    parts = ((obj.mu, obj.delta, obj.antipode, obj.unit, obj.counit)
             if hasattr(obj, "mu") else (obj,))
    return ("ok", type(obj), obj.field,
            [(p, list(p.nz.items()) if hasattr(p, "nz") else None)
             for p in parts])


def _assert_structure_matches(text):
    got = _outcome(fileio.parse_structure, text)
    assert got == _outcome(reference.parse_structure, text)
    if got[0] == "ok":
        H = fileio.parse_structure(text)
        assert (fileio.serialize_structure(H)
                == reference.serialize_structure(H))


def _assert_map_matches(kind, f, text):
    parse = getattr(fileio, "parse_" + kind)
    got = _outcome(parse, text, f)
    assert got == _outcome(getattr(reference, "parse_" + kind), text, f)
    if got[0] == "ok":
        obj = parse(text, f)
        assert (getattr(fileio, "serialize_" + kind)(obj)
                == getattr(reference, "serialize_" + kind)(obj))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated(structure_texts()))
def test_parse_structure_matches_reference(args):
    (text,) = args
    _assert_structure_matches(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated(map_texts()))
def test_parse_action_coaction_match_reference(args):
    _assert_map_matches(*args)


# --- wider inputs: two-digit indices, a large prime, other spellings ------

GF_BIG = GF(999999929)
WIDE_SCALARS = {**SCALARS, GF_BIG: (0, 1, 2, 999999928, 500000000)}
# scalar tokens that are not in the writer's own spelling; over GF(p) the
# last two divide by zero
RESPELT_SCALARS = ("1/2", "-3/4", "2/4", "0/5", "7/7", "+3", "999999930/2",
                   "5/999999929", "1/7")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _respell_index(rng, token):
    """`token` as another string that int() reads as the same index."""
    how = rng.randrange(6)
    if how == 0:
        return "00" + token
    if how == 1:
        return "+" + token
    if how == 2 and len(token) > 1:
        return token[0] + "_" + token[1:]
    if how == 3:
        return token.translate(ARABIC_INDIC)
    return token


@st.composite
def respelt(draw, texts):
    """A text from `texts` with some entry lines written differently:
    index tokens int() reads but the index table does not know (007, +1,
    1_0, ٣), scalars as a/b, and fields separated by tabs."""
    *extra, text = draw(texts)
    rng = draw(st.randoms(use_true_random=False))
    rate = draw(st.sampled_from((0.0, 0.05, 0.3)))
    out = []
    for line in text.splitlines():
        toks = line.split()
        if len(toks) > 1 and toks[0].isdigit():
            toks[:-1] = [_respell_index(rng, t) if rng.random() < rate
                         else t for t in toks[:-1]]
            if rng.random() < rate:
                toks[-1] = rng.choice(RESPELT_SCALARS)
            line = rng.choice((" ", "\t", " \t")).join(toks)
        out.append(line)
    return (*extra, "\n".join(out) + "\n")


@st.composite
def wide_structure_texts(draw):
    """(text,): a serialized structure of dim 1-12 over Q, GF(7) or
    GF(999999929)."""
    f = draw(st.sampled_from(list(WIDE_SCALARS)))
    n = draw(st.sampled_from((1, 2, 10, 11, 12)) | st.integers(1, 12))
    scalar = st.sampled_from(WIDE_SCALARS[f])
    idx = st.integers(0, n - 1)

    def entries(order):
        return draw(st.lists(st.tuples(*[idx] * order, scalar),
                             max_size=3 * n))

    def vec():
        return vector(f, draw(st.lists(scalar, min_size=n, max_size=n)))

    cls = draw(st.sampled_from((HopfQuasigroup, HopfCoquasigroup)))
    H = cls(SparseTensor(f, (n,) * 3, entries(3)), vec(),
            SparseTensor(f, (n,) * 3, entries(3)), vec(),
            SparseTensor(f, (n, n), entries(2)))
    return (reference.serialize_structure(H),)


@st.composite
def wide_map_texts(draw):
    """(kind, field, text): a serialized action or coaction with dims 0-12
    over Q, GF(7) or GF(999999929)."""
    f = draw(st.sampled_from(list(WIDE_SCALARS)))
    h_dim, m_dim = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("action", "coaction")))
    if kind == "action":
        dims, cls = (h_dim, m_dim, m_dim), ActionData
    else:
        dims, cls = (m_dim, m_dim, h_dim), CoactionData
    entries = [] if 0 in dims else draw(st.lists(st.tuples(
        *[st.integers(0, d - 1) for d in dims],
        st.sampled_from(WIDE_SCALARS[f])), max_size=24))
    write = getattr(reference, "serialize_" + kind)
    return kind, f, write(cls(f, dims, entries))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated(respelt(wide_structure_texts())))
def test_parse_wide_structure_matches_reference(args):
    (text,) = args
    _assert_structure_matches(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated(respelt(wide_map_texts())))
def test_parse_wide_action_coaction_match_reference(args):
    _assert_map_matches(*args)


@pytest.mark.parametrize("field", [QQ, GF_BIG], ids=["Q", "F999999929"])
@pytest.mark.parametrize("order", [48, 64])
def test_large_structures_match_reference(order, field):
    """The loop algebras of C48 and C64 and their duals, the sizes the
    column-wise reader and writer are for: the same bytes and parses as
    the per-line reference."""
    H = loop_algebra(cyclic(order), field=field)
    for X in (H, dualize(H)):
        text = fileio.serialize_structure(X)
        assert text == reference.serialize_structure(X)
        assert (_outcome(fileio.parse_structure, text)
                == _outcome(reference.parse_structure, text))


def test_scalars_that_compare_equal_keep_their_text():
    """The writer formats each distinct int or Fraction once; True, 1.0
    and Decimal("1.00") equal 1 but print otherwise, and keep their text."""
    n = 4
    unit = SparseTensor(QQ, (n,), [(0, 1), (1, True), (2, 1.0),
                                   (3, Decimal("1.00"))])
    counit = SparseTensor(QQ, (n,), [(0, Decimal("1.0")), (1, 1),
                                     (2, Fraction(1)), (3, Fraction(2, 4))])
    anti = SparseTensor(QQ, (n, n), [(0, 0, Fraction(2)), (1, 1, 2),
                                     (2, 2, 2.0), (3, 3, Fraction(4, 2))])
    empty = SparseTensor(QQ, (n,) * 3, [])
    H = HopfQuasigroup(empty, unit, empty, counit, anti)
    text = fileio.serialize_structure(H)
    assert text == reference.serialize_structure(H)
    assert "\nunit:\n0 1\n1 True\n2 1.0\n3 1.00\ncounit:\n0 1.0\n" in text


def test_index_at_its_bound_matches_reference():
    """Every index of every entry set to its leg's dimension, one at a
    time: both parsers refuse it with the same message and line."""
    H, act = loop_algebra(s3_table()), inversion_action()
    coact = CoactionData.dual_of_action(act)
    cases = [(fileio.parse_structure, reference.parse_structure, (),
              fileio.serialize_structure(H), (H.dim,) * 3),
             (fileio.parse_action, reference.parse_action, (QQ,),
              fileio.serialize_action(act), act.dims),
             (fileio.parse_coaction, reference.parse_coaction, (QQ,),
              fileio.serialize_coaction(coact), coact.dims)]
    for parse, ref, extra, text, dims in cases:
        lines = text.splitlines()
        for i, line in enumerate(lines):
            toks = line.split()
            if not line[:1].isdigit():
                continue
            for k in range(len(toks) - 1):
                bad = toks[:k] + [str(dims[k])] + toks[k + 1:]
                bad = "\n".join(lines[:i] + [" ".join(bad)] + lines[i + 1:])
                got = _outcome(parse, bad, *extra)
                assert got[0] == "error"
                assert got == _outcome(ref, bad, *extra)
