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
from .structures import (AlgebraData, CoalgebraData, HopfCoquasigroup,
                         HopfQuasigroup)
from .tensors import Mat, Ten3, Vec

_STRUCT_HEADERS = {"hopfqg": HopfQuasigroup, "hopfcoqg": HopfCoquasigroup}
_SECTIONS = ("mu", "delta", "unit", "counit", "antipode")

# Largest declared dimension a file may have; a loop order counts, since it
# is the dimension of the loop algebra.  The law checkers loop over up to
# dim^3 basis triples, so a short file declaring dim 3000 would start a
# ~10^10-step run.  Cyclic group algebras verify in 0.4 s at dim 64, the
# largest in the fixtures and benchmarks, and in 3.8 s at dim 128 (2-vCPU
# x86-64 host, Python 3.11).
MAX_DIM = 256


class _Lines:
    """Comment/blank-stripping line reader that remembers line numbers."""

    def __init__(self, text):
        self.items = [(no, line.strip())
                      for no, line in enumerate(text.splitlines(), start=1)
                      if line.strip() and not line.strip().startswith("#")]
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

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


def _put(entries, key, value, section, line):
    """Store one parsed entry; an index tuple given twice is an error."""
    if key in entries:
        raise ParseError(
            f"duplicate {section} entry for indices "
            + " ".join(map(str, key)), line)
    entries[key] = value


def _parse_indices(tokens, count, bound, line):
    if len(tokens) != count + 1:
        raise ParseError(
            f"expected {count} indices and a scalar, got {len(tokens)} "
            "fields", line)
    return [_index(t, bound, line) for t in tokens[:count]]


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

    sections = {}
    current = None
    while lines.peek() is not None:
        no, line = lines.next("section or entry")
        if line.endswith(":"):
            name = line[:-1]
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {name!r}", no)
            if name in sections:
                raise ParseError(f"duplicate section {name!r}", no)
            current = sections[name] = []
            continue
        if current is None:
            raise ParseError(f"entry before any section: {line!r}", no)
        current.append((no, line.split()))
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise ParseError(
            "missing sections: " + ", ".join(missing),
            lines.items[-1][0] if lines.items else 0)

    def entries(name, count):
        out = {}
        for no, toks in sections[name]:
            key = tuple(_parse_indices(toks, count, n, no))
            _put(out, key, field.parse(toks[count], no), name, no)
        return out

    def tensor(kind, name, dims):
        return kind(field, dims, (key + (c,) for key, c in
                                  entries(name, len(dims)).items()))

    def vector(name):
        data = [field.zero] * n
        for (i,), c in entries(name, 1).items():
            data[i] = c
        return Vec(field, data)

    return cls(AlgebraData(tensor(Ten3, "mu", (n, n, n)), vector("unit")),
               CoalgebraData(tensor(Ten3, "delta", (n, n, n)),
                             vector("counit")),
               tensor(Mat, "antipode", (n, n)))


def _field_line(field):
    return "field Q" if field == QQ else f"field F {field.p}"


def _entry_lines(tensor):
    """One `indices scalar` line per nonzero, in sorted index order."""
    f = tensor.field
    return [" ".join(map(str, key)) + " " + f.format(c)
            for key, c in sorted(tensor.nz.items())]


def serialize_structure(H):
    f = H.field
    out = ["hopfqg" if isinstance(H, HopfQuasigroup) else "hopfcoqg",
           _field_line(f), f"dim {H.dim}"]
    for name, ten in (("mu", H.mu), ("delta", H.delta)):
        out.append(f"{name}:")
        out.extend(_entry_lines(ten))
    for name, vec in (("unit", H.unit), ("counit", H.counit)):
        out.append(f"{name}:")
        out.extend(f"{i} {f.format(c)}" for i, c in vec.nonzero())
    out.append("antipode:")
    out.extend(_entry_lines(H.antipode))
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
            row = [int(t) for t in toks]
        except ValueError as exc:
            raise ParseError(f"bad table entry in {line!r}", no) from exc
        for v in row:
            if not 0 <= v < n:
                raise ParseError(f"entry {v} out of range [0, {n})", no)
        rows.append(row)
    return LoopTable(rows)


def serialize_cayley(table):
    out = [f"loop {table.n}"]
    out.extend(" ".join(str(v) for v in row) for row in table.rows)
    return "\n".join(out) + "\n"


def parse_action(text, field):
    lines = _Lines(text)
    no, header = lines.next("action header")
    parts = header.split()
    if len(parts) != 3 or parts[0] != "action":
        raise ParseError(
            f"expected 'action <H_dim> <M_dim>', got {header!r}", no)
    try:
        h_dim, m_dim = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad dimensions in {header!r}", no) from exc
    _check_dims((h_dim, m_dim), no)
    entries = {}
    while lines.peek() is not None:
        no, line = lines.next("action entry")
        toks = line.split()
        if len(toks) != 4:
            raise ParseError(
                f"expected 'h m m2 <scalar>', got {line!r}", no)
        key = (_index(toks[0], h_dim, no), _index(toks[1], m_dim, no),
               _index(toks[2], m_dim, no))
        _put(entries, key, field.parse(toks[3], no), "action", no)
    return ActionData.from_entries(
        field, h_dim, m_dim, (key + (c,) for key, c in entries.items()))


def serialize_action(act):
    out = [f"action {act.h_dim} {act.m_dim}"] + _entry_lines(act)
    return "\n".join(out) + "\n"


def parse_coaction(text, field):
    lines = _Lines(text)
    no, header = lines.next("coaction header")
    parts = header.split()
    if len(parts) != 3 or parts[0] != "coaction":
        raise ParseError(
            f"expected 'coaction <M_dim> <H_dim>', got {header!r}", no)
    try:
        m_dim, h_dim = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad dimensions in {header!r}", no) from exc
    _check_dims((m_dim, h_dim), no)
    entries = {}
    while lines.peek() is not None:
        no, line = lines.next("coaction entry")
        toks = line.split()
        if len(toks) != 4:
            raise ParseError(
                f"expected 'm m2 h <scalar>', got {line!r}", no)
        key = (_index(toks[0], m_dim, no), _index(toks[1], m_dim, no),
               _index(toks[2], h_dim, no))
        _put(entries, key, field.parse(toks[3], no), "coaction", no)
    return CoactionData.from_entries(
        field, m_dim, h_dim, (key + (c,) for key, c in entries.items()))


def serialize_coaction(coact):
    out = [f"coaction {coact.m_dim} {coact.h_dim}"] + _entry_lines(coact)
    return "\n".join(out) + "\n"


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


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
        paths.append(os.path.normpath(os.path.join(base_dir, line)))
    extra = lines.peek()
    if extra is not None:
        raise ParseError(f"trailing content {extra[1]!r}", extra[0])
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
