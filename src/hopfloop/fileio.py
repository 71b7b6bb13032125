"""Line-oriented text formats for structures, Cayley tables, actions,
coactions, and the dimodule / smash bundles.

Formats are sparse (nonzero entries only) and hand-editable: `#` starts a
comment line and blank lines are skipped everywhere.  Serialization is
deterministic — section order is fixed and entries are emitted in sorted
index order — so serialize(parse(serialize(X))) is byte-identical.

Entry sections are read and written a column at a time, each column in one
C-level pass: a section's lines are split, its index columns read through
a table of index names, each distinct scalar token parsed once, and the
{index tuple: scalar} dict built in file order.  A section that does not
read cleanly that way is read again row by row, which reports the first
error in it, with its line.  The writer formats each index name and each
distinct scalar once and joins the columns into lines.
"""

import os
from fractions import Fraction
from itertools import compress, repeat
from operator import contains, itemgetter, not_

from .actions import ActionData, CoactionData
from .dimodules import OVER_COQUASIGROUP, OVER_QUASIGROUP, LongDimodule
from .errors import ParseError
from .fields import GF, QQ
from .loops import LoopTable
from .smash import CosmashInput, SmashInput
from .structures import HopfCoquasigroup, HopfQuasigroup
from .tensors import SparseTensor

_STRUCT_HEADERS = {"hopfqg": HopfQuasigroup, "hopfcoqg": HopfCoquasigroup}
_SECTIONS = ("mu", "delta", "unit", "counit", "antipode")

# Largest declared dimension a file may have; a loop order counts, since it
# is the dimension of the loop algebra.  The law checkers loop over up to
# dim^3 basis triples, so a short file declaring dim 3000 would start a
# ~10^10-step run.  Cyclic group algebras verify in 0.03 s at dim 64, the
# largest in the fixtures and benchmarks, and in 0.13 s at dim 128 (`verify`
# through `cli.main`, median of 3; 2-vCPU x86-64 host, Python 3.11).
MAX_DIM = 256


class _Lines:
    """Comment/blank-stripping line reader: kept lines and line numbers."""

    def __init__(self, text):
        lines = list(map(str.strip, text.splitlines()))
        # a blank line is false, and its "" is in "#" like a comment's "#"
        keep = lines if "#" not in text else list(map(not_, map(
            contains, repeat("#"), map(itemgetter(slice(1)), lines))))
        self.nos = list(compress(range(1, len(lines) + 1), keep))
        self.lines = list(compress(lines, keep))
        self.pos = 0

    def peek(self):
        if self.pos < len(self.lines):
            return self.nos[self.pos], self.lines[self.pos]

    def end(self):
        """Refuse any line left after the last one a format reads."""
        extra = self.peek()
        if extra is not None:
            raise ParseError(f"trailing content {extra[1]!r}", extra[0])

    def next(self, what):
        item = self.peek()
        if item is None:
            last = self.nos[-1] if self.nos else 0
            raise ParseError(f"unexpected end of file, expected {what}", last)
        self.pos += 1
        return item

    def rest(self):
        """(line numbers, lines) of every line not read yet."""
        return self.nos[self.pos:], self.lines[self.pos:]


def _check_dims(dims, line):
    for d in dims:
        if not 0 <= d <= MAX_DIM:
            raise ParseError(
                f"dimension {d} outside the supported range [0, {MAX_DIM}]",
                line)


def _index(token, bound, line):
    try:
        v = int(token)
    except ValueError as exc:
        raise ParseError(f"bad index {token!r}", line) from exc
    if not 0 <= v < bound:
        raise ParseError(f"index {v} out of range [0, {bound})", line)
    return v


def _parse_indices(tokens, count, bound, line):
    if len(tokens) != count + 1:
        raise ParseError(
            f"expected {count} indices and a scalar, got {len(tokens)} "
            "fields", line)
    return [_index(t, bound, line) for t in tokens[:count]]


def _whole_section(field, toks, dims):
    """A section's {index tuple: scalar} read column by column, or None
    when a row has the wrong arity, an index is out of range or not spelt
    as str() spells it (007, +1), a scalar is bad, or two rows have the
    same index tuple.  Each distinct scalar token is parsed once."""
    if not toks:
        return {}
    if set(map(len, toks)) != {len(dims) + 1}:
        return None
    *legs, scalars = zip(*toks)
    bound = max(dims)
    index = {str(i): i for i in range(bound)}.__getitem__
    try:
        cols = [list(map(index, leg)) for leg in legs]
        value = {t: field.parse(t) for t in set(scalars)}
    except (KeyError, ParseError):
        return None
    if any(max(c) >= d for c, d in zip(cols, dims) if d < bound):
        return None
    out = dict(zip(zip(*cols), map(value.__getitem__, scalars)))
    return out if len(out) == len(toks) else None


def _entries(field, rows, dims, section, slow_key):
    """{index tuple: scalar} of one section's (line numbers, lines) rows.

    A valid section is read whole.  Otherwise its rows are read one at a
    time, in order: slow_key(no, line, tokens), the per-token index parse,
    raises the row's first index error or returns its index tuple; then
    the scalar is parsed; then a repeated index tuple is refused.  So the
    error reported is the first one in the section.
    """
    nos, lines = rows
    toks = list(map(str.split, lines))
    out = _whole_section(field, toks, dims)
    if out is not None:
        return out
    out = {}
    for no, line, t in zip(nos, lines, toks):
        key = slow_key(no, line, t)
        c = field.parse(t[-1], no)
        if key in out:
            raise ParseError(
                f"duplicate {section} entry for indices "
                + " ".join(map(str, key)), no)
        out[key] = c
    return out


def _parse_field_line(lines):
    no, line = lines.next("field declaration")
    parts = line.split()
    if parts[:2] == ["field", "Q"] and len(parts) == 2:
        return QQ
    if len(parts) == 3 and parts[:2] == ["field", "F"]:
        try:
            return GF(int(parts[2]))
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad prime {parts[2]!r}: {exc}", no) from exc
    raise ParseError(f"expected 'field Q' or 'field F <p>', got {line!r}", no)


def parse_structure(text):
    lines = _Lines(text)
    no, header = lines.next("structure header")
    cls = _STRUCT_HEADERS.get(header)
    if cls is None:
        raise ParseError(
            f"expected 'hopfqg' or 'hopfcoqg', got {header!r}", no)
    field = _parse_field_line(lines)
    no, dim_line = lines.next("dim line")
    parts = dim_line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError(f"expected 'dim <n>', got {dim_line!r}", no)
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad dimension {parts[1]!r}", no) from exc
    if n <= 0:
        raise ParseError(f"dimension must be positive, got {n}", no)
    _check_dims((n,), no)

    nos, body = lines.rest()
    heads = list(compress(range(len(body)),
                          map(str.endswith, body, repeat(":"))))
    if body and heads[:1] != [0]:
        raise ParseError(f"entry before any section: {body[0]!r}", nos[0])
    sections = {}
    for k, end in zip(heads, heads[1:] + [len(body)]):
        name = body[k][:-1]
        if name not in _SECTIONS:
            raise ParseError(f"unknown section {name!r}", nos[k])
        if name in sections:
            raise ParseError(f"duplicate section {name!r}", nos[k])
        sections[name] = nos[k + 1:end], body[k + 1:end]
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise ParseError(
            "missing sections: " + ", ".join(missing),
            lines.nos[-1] if lines.nos else 0)

    # Sections are parsed in a fixed order (mu, unit, delta, counit,
    # antipode), not in file order, so a file with several bad entries
    # reports the same one whatever order its sections come in.
    def entries(name, count):
        return _entries(
            field, sections[name], (n,) * count, name,
            lambda no, line, toks: tuple(_parse_indices(toks, count, n, no)))

    def tensor(name, dims):
        return SparseTensor._from_nz(field, dims, entries(name, len(dims)))

    return cls(tensor("mu", (n, n, n)), tensor("unit", (n,)),
               tensor("delta", (n, n, n)), tensor("counit", (n,)),
               tensor("antipode", (n, n)))


def _field_line(field):
    return "field Q" if field == QQ else f"field F {field.p}"


def _entry_lines(tensors):
    """Per tensor, one `indices scalar` line per nonzero, in sorted index
    order, built column-wise: each index name and each distinct scalar is
    formatted once for all of `tensors`, which share a field.  Only ints
    and Fractions share a scalar's text, since equal values of those types
    print alike (True, 1.0 and 1 do not)."""
    form = tensors[0].field.format
    exact = [set(map(type, t.nz.values())) <= {int, Fraction}
             for t in tensors]
    memo = {v: form(v) for v in set().union(
        *[t.nz.values() for t, ok in zip(tensors, exact) if ok])}.__getitem__
    name = list(map(str, range(max(
        [d for t in tensors for d in t.dims], default=0)))).__getitem__
    lines = []
    for t, ok in zip(tensors, exact):
        nz = t.nz
        keys = sorted(nz)
        lines.append(list(map(" ".join, zip(
            *[map(name, leg) for leg in zip(*keys)],
            map(memo if ok else form, map(nz.__getitem__, keys))))))
    return lines


def serialize_structure(H):
    out = ["hopfqg" if isinstance(H, HopfQuasigroup) else "hopfcoqg",
           _field_line(H.field), f"dim {H.dim}"]
    sections = _entry_lines([getattr(H, name) for name in _SECTIONS])
    for name, lines in zip(_SECTIONS, sections):
        out.append(f"{name}:")
        out.extend(lines)
    return "\n".join(out) + "\n"


def parse_cayley(text):
    lines = _Lines(text)
    no, header = lines.next("loop header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "loop":
        raise ParseError(f"expected 'loop <n>', got {header!r}", no)
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad order {parts[1]!r}", no) from exc
    _check_dims((n,), no)
    rows = []
    for _ in range(n):
        no, line = lines.next("Cayley row")
        toks = line.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries, got {len(toks)}", no)
        try:
            row = tuple(map(int, toks))
        except ValueError as exc:
            raise ParseError(f"bad table entry in {line!r}", no) from exc
        for v in row:
            if not 0 <= v < n:
                raise ParseError(f"entry {v} out of range [0, {n})", no)
        rows.append(row)
    lines.end()
    # Every cell is checked above; only an empty table, refused by
    # LoopTable's own check, goes through it.
    return LoopTable._trusted(tuple(rows)) if rows else LoopTable(rows)


def serialize_cayley(table):
    out = [f"loop {table.n}"]
    out.extend(" ".join(str(v) for v in row) for row in table.rows)
    return "\n".join(out) + "\n"


# kind: (class, header usage, entry usage, dims from the header's two)
_MAPS = {
    "action": (ActionData, "<H_dim> <M_dim>", "h m m2",
               lambda h_dim, m_dim: (h_dim, m_dim, m_dim)),
    "coaction": (CoactionData, "<M_dim> <H_dim>", "m m2 h",
                 lambda m_dim, h_dim: (m_dim, m_dim, h_dim)),
}


def _parse_map(text, field, kind):
    cls, dims_usage, entry_usage, legs = _MAPS[kind]
    lines = _Lines(text)
    no, header = lines.next(f"{kind} header")
    parts = header.split()
    if len(parts) != 3 or parts[0] != kind:
        raise ParseError(
            f"expected '{kind} {dims_usage}', got {header!r}", no)
    try:
        d1, d2 = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad dimensions in {header!r}", no) from exc
    _check_dims((d1, d2), no)
    dims = legs(d1, d2)

    def slow_key(no, line, toks):
        if len(toks) != 4:
            raise ParseError(
                f"expected '{entry_usage} <scalar>', got {line!r}", no)
        return tuple(_index(t, d, no) for t, d in zip(toks, dims))

    return cls._from_nz(field, dims, _entries(
        field, lines.rest(), dims, kind, slow_key))


def parse_action(text, field):
    return _parse_map(text, field, "action")


def serialize_action(act):
    out = [f"action {act.h_dim} {act.m_dim}"] + _entry_lines([act])[0]
    return "\n".join(out) + "\n"


def parse_coaction(text, field):
    return _parse_map(text, field, "coaction")


def serialize_coaction(coact):
    out = [f"coaction {coact.m_dim} {coact.h_dim}"] + _entry_lines([coact])[0]
    return "\n".join(out) + "\n"


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_structure(path):
    return parse_structure(_read(path))


def load_cayley(path):
    return parse_cayley(_read(path))


def load_action(path, field):
    return parse_action(_read(path), field)


def load_coaction(path, field):
    return parse_coaction(_read(path), field)


def _bundle_paths(lines, base_dir, count):
    paths = []
    for _ in range(count):
        no, line = lines.next("bundle path line")
        if "\0" in line:
            raise ParseError("bundle path contains a NUL byte", no)
        paths.append(os.path.normpath(os.path.join(base_dir, line)))
    lines.end()
    return paths


_SIDES = {OVER_QUASIGROUP: "hopfqg", OVER_COQUASIGROUP: "hopfcoqg"}


def load_dimodule_bundle(path):
    """`dimodule <variant>` plus structure, action, coaction path lines;
    the structure must be of the variant's side."""
    lines = _Lines(_read(path))
    no, header = lines.next("dimodule header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dimodule" or parts[1] not in _SIDES:
        raise ParseError(
            "expected 'dimodule quasigroup' or 'dimodule coquasigroup', "
            f"got {header!r}", no)
    h_path, act_path, coact_path = _bundle_paths(
        lines, os.path.dirname(os.path.abspath(path)), 3)
    H, kind = load_structure(h_path), _SIDES[parts[1]]
    if not isinstance(H, _STRUCT_HEADERS[kind]):
        raise ParseError(
            f"dimodule {parts[1]} bundle requires a {kind} structure", no)
    return LongDimodule(H,
                        load_action(act_path, H.field),
                        load_coaction(coact_path, H.field))


def load_smash_bundle(path):
    """`smash` / `cosmash` plus H, A/C, action/coaction path lines."""
    lines = _Lines(_read(path))
    no, header = lines.next("smash header")
    if header not in ("smash", "cosmash"):
        raise ParseError(f"expected 'smash' or 'cosmash', got {header!r}", no)
    paths = _bundle_paths(lines, os.path.dirname(os.path.abspath(path)), 3)
    H = load_structure(paths[0])
    other = load_structure(paths[1])
    if header == "smash":
        if not (isinstance(H, HopfQuasigroup)
                and isinstance(other, HopfQuasigroup)):
            raise ParseError(
                "smash bundle requires two hopfqg structures", no)
        return SmashInput(H, other, load_action(paths[2], H.field))
    if not (isinstance(H, HopfCoquasigroup)
            and isinstance(other, HopfCoquasigroup)):
        raise ParseError(
            "cosmash bundle requires two hopfcoqg structures", no)
    return CosmashInput(H, other, load_coaction(paths[2], H.field))
