"""Per-law verification reports with concrete basis-index witnesses.

Checkers never skip a law: every law is evaluated and recorded, one entry
each, so that reports for two structures can be diffed law by law.  Within
a law a checker stops at its first failing slab, the instances that share
a first input, and `slab_witness` reads the law's witness off that slab.
A failing entry always carries a witness (the basis indices plus both
evaluated sides) that reproduces the discrepancy when re-evaluated.
"""

# Annotations stay unevaluated: an Optional[Witness] built at class creation
# is kept in typing's cache, which then holds every re-imported copy of this
# module (its classes and functions) alive.
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import prod
from typing import Optional


@dataclass(frozen=True)
class Witness:
    indices: tuple
    lhs: tuple  # sorted ((index tuple), scalar string) pairs
    rhs: tuple

    def to_dict(self):
        return {
            "indices": list(self.indices),
            "lhs": [[list(k), s] for k, s in self.lhs],
            "rhs": [[list(k), s] for k, s in self.rhs],
        }


@dataclass(frozen=True)
class LawResult:
    law_id: str
    passed: bool
    witness: Optional[Witness] = None
    informational: bool = False

    def to_dict(self):
        d = {"law": self.law_id, "pass": self.passed}
        if self.informational:
            d["informational"] = True
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d


@dataclass
class VerificationReport:
    entries: list = dc_field(default_factory=list)

    def add(self, law_id, passed, witness=None, informational=False):
        self.entries.append(LawResult(law_id, passed, witness, informational))

    def extend(self, other):
        self.entries.extend(other.entries)

    @property
    def ok(self):
        """True when every non-informational law passed."""
        return all(e.passed for e in self.entries if not e.informational)

    def law(self, law_id):
        for e in self.entries:
            if e.law_id == law_id:
                return e
        raise KeyError(law_id)

    def failing(self):
        return [e for e in self.entries if not e.passed and not e.informational]

    def to_dict(self):
        return {
            "verdict": "pass" if self.ok else "fail",
            "laws": [e.to_dict() for e in self.entries],
        }

    def __repr__(self):
        bad = [e.law_id for e in self.entries if not e.passed]
        state = "ok" if self.ok else f"FAIL {bad}"
        return f"VerificationReport({len(self.entries)} laws, {state})"


def witness_side(field, sparse):
    """Freeze a sparse element into a canonical witness side."""
    return tuple(sorted(
        (tuple(k), field.format(c)) for k, c in sparse.items()))


def _unravel(flat, dims):
    """The index tuple of a row-major flat index over dims."""
    out = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        out.append(r)
    return tuple(reversed(out))


def _differing(lhs, rhs, zero):
    """The keys at which the dicts lhs and rhs differ, a missing key read
    as zero; lazy, and neither dict is copied."""
    yield from (k for k, c in lhs.items() if c != rhs.get(k, zero))
    yield from (k for k, c in rhs.items() if c != zero and k not in lhs)


def differ(lhs, rhs, zero):
    """Whether the dicts lhs and rhs differ once zero values are dropped."""
    return next(_differing(lhs, rhs, zero), None) is not None


def slab_witness(field, prefix, lhs, rhs, inst_dims, out_dims):
    """The witness of the least instance at which the slabs lhs and rhs
    differ, zero values ignored, or None if there is none.

    Both slabs map the flat int inst * prod(out_dims) + out to a scalar,
    inst and out row-major over inst_dims and out_dims.  The witness is
    prefix + that instance, with both sides of it keyed by out tuples.
    """
    zero = field.zero
    least = min(_differing(lhs, rhs, zero), default=None)
    if least is None:
        return None
    size = prod(out_dims)
    inst = least // size

    def side(slab):
        return witness_side(field, {
            _unravel(k % size, out_dims): c for k, c in slab.items()
            if k // size == inst and c != zero})

    return Witness(prefix + _unravel(inst, inst_dims), side(lhs), side(rhs))

