"""The structure, action and coaction file formats, parsed and written
the way `hopfloop.fileio` did before its one-pass parser.

Each entry line here goes through `_Lines.peek`/`next`, `_parse_indices`,
`_index` and `_put`, and each tensor through the summing, range-checking
`SparseTensor` constructor.  Kept only as the reference of differential
tests: parses must give equal objects or the same `ParseError`, and
serializations the same bytes.
"""

from hopfloop.actions import ActionData, CoactionData
from hopfloop.errors import ParseError
from hopfloop.fileio import (_SECTIONS, _STRUCT_HEADERS, _check_dims,
                             _field_line, _parse_field_line)
from hopfloop.structures import HopfQuasigroup
from hopfloop.tensors import Mat, SparseTensor, Ten3


class _Lines:
    """Comment/blank-stripping line reader that remembers line numbers."""

    def __init__(self, text):
        self.items = [(no, line.strip())
                      for no, line in enumerate(text.splitlines(), start=1)
                      if line.strip() and not line.strip().startswith("#")]
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

    return cls(tensor(Ten3, "mu", (n, n, n)),
               tensor(SparseTensor, "unit", (n,)),
               tensor(Ten3, "delta", (n, n, n)),
               tensor(SparseTensor, "counit", (n,)),
               tensor(Mat, "antipode", (n, n)))


def _entry_lines(tensor):
    """One `indices scalar` line per nonzero, in sorted index order."""
    f = tensor.field
    return [" ".join(map(str, key)) + " " + f.format(c)
            for key, c in sorted(tensor.nz.items())]


def serialize_structure(H):
    f = H.field
    out = ["hopfqg" if isinstance(H, HopfQuasigroup) else "hopfcoqg",
           _field_line(f), f"dim {H.dim}"]
    for name, ten in (("mu", H.mu), ("delta", H.delta), ("unit", H.unit),
                      ("counit", H.counit), ("antipode", H.antipode)):
        out.append(f"{name}:")
        out.extend(_entry_lines(ten))
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
