"""Line-oriented text formats for structures, Cayley tables, actions,
coactions, and the dimodule / smash bundles.

Formats are sparse (nonzero entries only) and hand-editable: `#` starts a
comment line and blank lines are skipped everywhere.  Serialization is
deterministic — section order is fixed and entries are emitted in sorted
index order — so serialize(parse(serialize(X))) is byte-identical.
"""

import os

from .actions import ActionData, CoactionData
from .dimodules import OVER_COQUASIGROUP, OVER_QUASIGROUP, LongDimodule
from .errors import ParseError
from .fields import GF, QQ
from .loops import LoopTable
from .smash import CosmashInput, SmashInput
from .structures import HopfCoquasigroup, HopfQuasigroup
from .tensors import Mat, SparseTensor, Ten3

_STRUCT_HEADERS = {"hopfqg": HopfQuasigroup, "hopfcoqg": HopfCoquasigroup}
_SECTIONS = ("mu", "delta", "unit", "counit", "antipode")

# Largest declared dimension a file may have; a loop order counts, since it
# is the dimension of the loop algebra.  The law checkers loop over up to
# dim^3 basis triples, so a short file declaring dim 3000 would start a
# ~10^10-step run.  Cyclic group algebras verify in 0.2 s at dim 64, the
# largest in the fixtures and benchmarks, and in 1.5 s at dim 128 (`verify`
# through the CLI, median of 3; 2-vCPU x86-64 host, Python 3.11).
MAX_DIM = 256


class _Lines:
    """Comment/blank-stripping line reader that remembers line numbers."""

    def __init__(self, text):
        self.items = [(no, line) for no, line in
                      enumerate(map(str.strip, text.splitlines()), start=1)
                      if line and line[0] != "#"]
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def end(self):
        """Refuse any line left after the last one a format reads."""
        extra = self.peek()
        if extra is not None:
            raise ParseError(f"trailing content {extra[1]!r}", extra[0])

    def next(self, what):
        item = self.peek()
        if item is None:
            last = self.items[-1][0] if self.items else 0
            raise ParseError(f"unexpected end of file, expected {what}", last)
        self.pos += 1
        return item


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


def _whole_section(field, rows, toks, dims):
    """A section's {index tuple: scalar} read in one pass, or None when a
    row has the wrong arity, a bad or out-of-range index or a bad scalar,
    or two rows have the same index tuple."""
    count = len(dims)
    if set(map(len, toks)) - {count + 1}:
        return None
    try:
        ints = list(map(int, [i for t in toks for i in t[:count]]))
        scalars = [field.parse(t[count], no) for (no, _), t in zip(rows, toks)]
    except (ValueError, ParseError):
        return None
    if ints and (min(ints) < 0 or any(
            max(ints[leg::count]) >= d for leg, d in enumerate(dims))):
        return None
    keys = list(zip(*[iter(ints)] * count))
    out = dict(zip(keys, scalars))
    return out if len(out) == len(keys) else None


def _entries(field, rows, dims, section, slow_key):
    """{index tuple: scalar} of one section's (line number, line) rows.

    A valid section is read whole.  Otherwise its rows are read one at a
    time, in order: slow_key(no, line, tokens), the per-token index parse,
    raises the row's first index error or returns its index tuple; then
    the scalar is parsed; then a repeated index tuple is refused.  So the
    error reported is the first one in the section.
    """
    toks = [line.split() for _, line in rows]
    out = _whole_section(field, rows, toks, dims)
    if out is not None:
        return out
    out = {}
    for (no, line), t in zip(rows, toks):
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

    body = lines.items[lines.pos:]
    heads = [k for k, (_, line) in enumerate(body) if line[-1] == ":"]
    if body and heads[:1] != [0]:
        no, line = body[0]
        raise ParseError(f"entry before any section: {line!r}", no)
    sections = {}
    for k, end in zip(heads, heads[1:] + [len(body)]):
        no, line = body[k]
        name = line[:-1]
        if name not in _SECTIONS:
            raise ParseError(f"unknown section {name!r}", no)
        if name in sections:
            raise ParseError(f"duplicate section {name!r}", no)
        sections[name] = body[k + 1:end]
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise ParseError(
            "missing sections: " + ", ".join(missing),
            lines.items[-1][0] if lines.items else 0)

    # Sections are parsed in a fixed order (mu, unit, delta, counit,
    # antipode), not in file order, so a file with several bad entries
    # reports the same one whatever order its sections come in.
    def entries(name, count):
        return _entries(
            field, sections[name], (n,) * count, name,
            lambda no, line, toks: tuple(_parse_indices(toks, count, n, no)))

    def tensor(kind, name, dims):
        return kind._from_nz(field, dims, entries(name, len(dims)))

    return cls(tensor(Ten3, "mu", (n, n, n)),
               tensor(SparseTensor, "unit", (n,)),
               tensor(Ten3, "delta", (n, n, n)),
               tensor(SparseTensor, "counit", (n,)),
               tensor(Mat, "antipode", (n, n)))


def _field_line(field):
    return "field Q" if field == QQ else f"field F {field.p}"


def _entry_lines(tensor):
    """One `indices scalar` line per nonzero, in sorted index order."""
    line, form = ("{} " * len(tensor.dims) + "{}").format, tensor.field.format
    return [line(*key, form(c)) for key, c in sorted(tensor.nz.items())]


def serialize_structure(H):
    out = ["hopfqg" if isinstance(H, HopfQuasigroup) else "hopfcoqg",
           _field_line(H.field), f"dim {H.dim}"]
    for name in _SECTIONS:
        out.append(f"{name}:")
        out.extend(_entry_lines(getattr(H, name)))
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
        field, lines.items[lines.pos:], dims, kind, slow_key))


def parse_action(text, field):
    return _parse_map(text, field, "action")


def serialize_action(act):
    out = [f"action {act.h_dim} {act.m_dim}"] + _entry_lines(act)
    return "\n".join(out) + "\n"


def parse_coaction(text, field):
    return _parse_map(text, field, "coaction")


def serialize_coaction(coact):
    out = [f"coaction {coact.m_dim} {coact.h_dim}"] + _entry_lines(coact)
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


_VARIANTS = {"quasigroup": OVER_QUASIGROUP, "coquasigroup": OVER_COQUASIGROUP}


def load_dimodule_bundle(path):
    """`dimodule <variant>` plus structure, action, coaction path lines."""
    lines = _Lines(_read(path))
    no, header = lines.next("dimodule header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dimodule" or parts[1] not in _VARIANTS:
        raise ParseError(
            "expected 'dimodule quasigroup' or 'dimodule coquasigroup', "
            f"got {header!r}", no)
    variant = _VARIANTS[parts[1]]
    h_path, act_path, coact_path = _bundle_paths(
        lines, os.path.dirname(os.path.abspath(path)), 3)
    H = load_structure(h_path)
    return LongDimodule(H,
                        load_action(act_path, H.field),
                        load_coaction(coact_path, H.field),
                        variant)


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
