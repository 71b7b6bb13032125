"""Spans, counting fields and tensor statistics for the traced run.

Spans are recorded around the benchmark's own calls into hopfloop, kept in
memory and written out when the run ends.  Nothing here reaches into
hopfloop beyond its public names.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records one span per call: [name, start, end, parent, instance]."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.instance]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_times(spans, instances):
    """Inclusive and self seconds per span name, over the given instances,
    and the share of instance time covered by layer spans.

    Root spans (no parent) are instances; every other span is a layer span.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    inclusive, self_time = defaultdict(float), defaultdict(float)
    covered = total = 0.0
    for i, (name, start, end, parent, inst) in enumerate(spans):
        if inst not in instances:
            continue
        kids = _union((spans[k][1], spans[k][2]) for k in children[i])
        if parent is None:
            total += end - start
            covered += kids
        else:
            inclusive[name] += end - start
            self_time[name] += end - start - kids
    return inclusive, self_time, (covered / total if total else 0.0)


class Counter:
    """Field operation counts, shared by the counting fields of one run."""

    def __init__(self):
        self.add = self.mul = self.nonintegral = 0

    def snapshot(self):
        return (self.add, self.mul, self.nonintegral)


def counting_fields(hl, counter):
    """Subclasses of hopfloop's Q and GF(p) fields that count add and mul.

    A result is nonintegral when it has a denominator other than 1; GF(p)
    residues never do.
    """
    rational, prime = type(hl.QQ), type(hl.GF(2))

    def counted(cls):
        class Counting(cls):
            def add(self, a, b):
                r = super().add(a, b)
                counter.add += 1
                if getattr(r, "denominator", 1) != 1:
                    counter.nonintegral += 1
                return r

            def mul(self, a, b):
                r = super().mul(a, b)
                counter.mul += 1
                if getattr(r, "denominator", 1) != 1:
                    counter.nonintegral += 1
                return r

        Counting.__name__ = "Counting" + cls.__name__
        return Counting

    return counted(rational)(), counted(prime)


def _cells(data):
    """(cells, nonzeros) of a nested tuple of scalars."""
    if data and isinstance(data[0], (tuple, list)):
        cells = nnz = 0
        for x in data:
            c, z = _cells(x)
            cells += c
            nnz += z
        return cells, nnz
    return len(data), sum(1 for x in data if x)


def tensor_cells(hl, obj):
    """(dense cells, nonzeros) of a structure, action, coaction or dimodule,
    read from the public dense data of its tensors."""
    if hasattr(obj, "mu"):
        parts = (obj.mu.data, obj.delta.data, obj.unit.data, obj.counit.data,
                 obj.antipode.rows)
    elif isinstance(obj, hl.LongDimodule):
        parts = (obj.act.data, obj.coact.data)
    else:
        parts = (obj.data,)
    cells = nnz = 0
    for p in parts:
        c, z = _cells(p)
        cells += c
        nnz += z
    return cells, nnz
