"""Laws and maps as declarations: `evaluate` checks the structure,
action, coaction, smash-condition and dimodule laws, and `build` makes the
smash (co)product maps, the D-equation candidate and the action and
coaction of the free and tensor-product dimodules.

Every such law is an equation between two composites of structure maps,
declared by its id, its domain and output legs, and its two sides as
chains of steps; `evaluate` checks it over every basis tuple of the domain.
A leg is "H", a copy of the Hopf structure, or "A", a copy of the space
acted or coacted on (the module, or the algebra, coalgebra or Hopf structure
A whose own maps a law may use); a construction, not a law, may also read a
second such space "B", as the tensor product of two dimodules does.  A chain
is a space-separated string of steps `name@p`, applied left to right; each
applies one map to the legs p, p+1, ... of the current tensor and puts its
output legs in their place:

    mu    HH -> H     delta    H -> HH    S    H -> H
    mu_A  AA -> A     delta_A  A -> AA    S_A  A -> A
    eta      -> H     eps      H ->       act  HA -> A
    eta_A    -> A     eps_A    A ->       coact A -> AH
    act_B HB -> B     coact_B  B -> BH    swap  XY -> YX

so that the quasimodule law h_(1).(S(h_(2)).m) = eps(h) m is

    law("qm2.left", "HA", "A", "delta@0 S@1 act@1 act@0", "eps@0").

The empty chain is the identity.  A parenthesised group of legs, as in
"(AH)", is its legs to the chains and one row-major flat index in a
witness, as the free dimodule on M (x) H indexes its carrier.  A
declaration is checked when it is made, so a bad leg string, a malformed
step or a step on the wrong legs fails at import, whatever the dims.

`evaluate` walks the domain one slab at a time: a slab fixes the index of
the leg `slab`, 0 unless declared (ldmp2 walks the m of (h, m) outermost),
and a law of rank-0 domain is one slab.  A caller that knows which slabs
can fail names them, and only those are evaluated: the integer tables of
`hopfloop.structures` only pick the first failing slab, or none, and the
declaration decides it, so every verdict and witness comes from here.
Each side of a slab is one dict keyed by the flat int
inst * prod(out_dims) + out, inst the instance's other legs and out the
output basis tuple, both row-major.

Each law is compiled once into one function, `Law.check`, as `dataclasses`
compiles `__init__`.  It walks the slabs it is given, builds both sides'
dicts of each and compares them with one `==`; only when they differ does
it compare them again with zero values read as absent, copying neither,
and it returns the first slab that still differs, with both dicts.  Once a
law has failed, its later slabs are not evaluated.  `evaluate` makes one
call per law, with the law's slabs and dims memoized per (nH, nA), and
builds a witness only from the slab returned (`report.slab_witness`): the
first failing instance in walk order, its indices in domain order.

Each side is a loop nest emitted from its chain.  A step is one loop over
the image of its input legs, read from the cached fibres of its map, and a
swap only renames legs; the steps of both sides read one list of fibres,
the right side's after the left's.  A step sits outside the loops over the
instance legs it does not read, so that the (S (x) id)Delta(h) of qm2.left
is formed once per h, not once per (h, m), and the coefficients are
multiplied where a term is stored, or before an instance loop for the
steps outside it:

    for x0 in slabs:                                # the slab's h
        lhs = {}
        for (y0_0, y0_1), v0 in t[0][x0]:           # delta@0
            for y1_0, v1 in t[1][y0_1]:             # S@1
                c4 = mul(v0, v1)
                for x1 in range(nA):                # the instance m
                    for y2_0, v2 in t[2][y1_0][x1]:     # act@1
                        for y3_0, v3 in t[3][y0_0][y2_0]:   # act@0
                            key = (x1) * nA + y3_0
                            ...  # add mul(mul(c4, v2), v3) to lhs[key]
        rhs = {}
        ...  # eps@0 from t[4], into rhs
        if lhs != rhs and differ(lhs, rhs, zero):
            return x0, lhs, rhs

A construction declares one chain as a map, `construction(id, domain, out,
chain)`, checked as a law's chains are.  Its nest, `Construction.nest`,
walks every index of the first leg outermost and keys each term by the
tuple of its leg groups' flat indices, domain first, so that `build` only
hands the dict to a sparse tensor: "(AH)(AH)" -> "(AH)" is a product.
"""

import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from math import prod

from .errors import DimMismatch
from .report import VerificationReport, differ, slab_witness
from .tensors import SparseTensor

# name -> (input legs, output legs)
SIGNATURES = {
    "mu": ("HH", "H"), "delta": ("H", "HH"), "S": ("H", "H"),
    "eta": ("", "H"), "eps": ("H", ""),
    "mu_A": ("AA", "A"), "delta_A": ("A", "AA"), "S_A": ("A", "A"),
    "eta_A": ("", "A"), "eps_A": ("A", ""),
    "act": ("HA", "A"), "coact": ("A", "AH"),
    "act_B": ("HB", "B"), "coact_B": ("B", "BH"),
}

# The fibres of each map of a Hopf structure, (co)algebra or (co)action X by
# its input legs: (output legs, coeff) pairs, one leg an int, more a tuple.
_FIBRES = {
    "mu": lambda X: X.mu._by_first_two,
    "delta": lambda X: X.delta._by_first,
    "S": lambda X: X.antipode._by_second,
    "eta": lambda X: X.unit._nonzeros,
    "eps": lambda X: X.counit._by_first,
    "act": lambda X: X._by_first_two,
    "coact": lambda X: X._by_first,
}


@dataclass(frozen=True)
class Law:
    """A declared law; `law` builds one from the text of its chains."""
    law_id: str
    domain: str  # the legs, groups dissolved
    out: str
    lhs: tuple  # ((name, p), ...)
    rhs: tuple
    informational: bool = False
    slab: int = 0  # the domain leg walked outermost
    dom_sizes: tuple = None  # legs per witness index, if grouped
    out_sizes: tuple = None

    @cached_property
    def names(self):
        """The maps read by the steps of both chains, in order."""
        return tuple(name for name, _ in self.lhs + self.rhs)

    @cached_property
    def check(self):
        """The law compiled on first use: a function of the indices of the
        walked leg to evaluate, the fibres t of `names`, the dims nH and
        nA, and the field's one, mul, add and zero, that returns the first
        failing (index, lhs slab, rhs slab), or None."""
        s = self.slab
        spaces = self.domain[:s] + self.domain[s + 1:] + self.out

        def key(xs, ys):
            return _flat(xs[:s] + xs[s + 1:] + ys, spaces)

        return _function("check(slabs, t, nH, nA, one, mul, add, zero)", [
            f"    for x{s} in slabs:",
            "        lhs = {}",
            *_nest(self.lhs, self.domain, s, 0, "lhs", key, 2),
            "        rhs = {}",
            *_nest(self.rhs, self.domain, s, len(self.lhs), "rhs", key, 2),
            "        if lhs != rhs and differ(lhs, rhs, zero):",
            f"            return x{s}, lhs, rhs"])

    @cached_property
    def _dims(self):
        return {}

    def dims_at(self, nH, nA):
        """The indices of the walked leg, or (None,) for a rank-0 domain,
        and the instance and output dims, at the dims nH and nA."""
        shape = self._dims.get((nH, nA))
        if shape is None:
            dims, s = {"H": nH, "A": nA}, self.slab
            dom = [dims[leg] for leg in self.domain]
            out = tuple(dims[leg] for leg in self.out)
            if self.out_sizes:
                out = tuple(map(prod, _runs(out, self.out_sizes)))
            shape = self._dims[nH, nA] = (
                range(dom[s]) if dom else (None,),
                tuple(dom[:s] + dom[s + 1:]), out)
        return shape


_LEG = re.compile(r"[HAB]|\([HAB]+\)")  # one index of a witness


def _legs_after(law_id, legs, step):
    """The legs after `step`; ValueError if its input legs are not there."""
    name, p = step
    if name == "swap":
        ins = legs[p:p + 2]
        ins, outs = (ins, ins[::-1]) if len(ins) == 2 else ("two legs", "")
    else:
        ins, outs = SIGNATURES[name]
    if not 0 <= p <= len(legs) or legs[p:p + len(ins)] != ins:
        raise ValueError(f"{law_id}: {name}@{p} needs {ins!r} at leg {p} "
                         f"of {legs!r}")
    return legs[:p] + outs + legs[p + len(ins):]


def _chain(law_id, text):
    """The steps of the chain `text`; ValueError naming a malformed step."""
    chain = []
    for step in text.split():
        name, at, p = step.partition("@")
        if not (at and p.isdecimal()
                and (name in SIGNATURES or name == "swap")):
            raise ValueError(f"{law_id}: bad step {step!r}")
        chain.append((name, int(p)))
    return tuple(chain)


def _legs(law_id, text):
    """The legs of the leg string `text`, and if it has a group, the number
    of legs in each index of a witness: one, or a group's."""
    indices = _LEG.findall(text)
    if "".join(indices) != text:
        raise ValueError(f"{law_id}: bad leg string {text!r}")
    groups = [index.strip("()") for index in indices]
    return "".join(groups), tuple(map(len, groups)) if "(" in text else None


def _checked(law_id, text, domain, out):
    """The steps of the chain `text`, which must take `domain` to `out`."""
    chain, legs = _chain(law_id, text), domain
    for step in chain:
        legs = _legs_after(law_id, legs, step)
    if legs != out:
        raise ValueError(f"{law_id}: {text!r} ends in {legs!r}, not {out!r}")
    return chain


def law(law_id, domain, out, lhs, rhs, informational=False, slab=0):
    """Declare a law on legs H and A: both chains take `domain` to `out`."""
    (domain, dom_sizes), (out, out_sizes) = (
        _legs(law_id, domain), _legs(law_id, out))
    if "B" in domain + out:
        raise ValueError(f"{law_id}: leg B in a law, {domain!r} -> {out!r}")
    if not 0 <= slab < max(len(domain), 1):
        raise ValueError(f"{law_id}: no leg {slab} in {domain!r} to walk")
    return Law(law_id, domain, out, _checked(law_id, lhs, domain, out),
               _checked(law_id, rhs, domain, out), informational, slab,
               dom_sizes, out_sizes)


@dataclass(frozen=True, eq=False)
class Construction:
    """A declared map; `construction` builds one from its chain's text."""
    map_id: str
    domain: str  # the legs, groups dissolved
    out: str
    chain: tuple  # ((name, p), ...)
    names: frozenset  # the maps the chain reads
    groups: tuple  # the legs of each index of a built tensor, domain first

    @cached_property
    def nest(self):
        """The map compiled on first use: a function of the fibres t of
        its chain's steps, the dims nH, nA and nB, and the field's one, mul
        and add, that returns its terms keyed by the groups' indices."""
        sizes = [len(group) for group in self.groups]

        def key(xs, ys):
            return "(" + "".join(
                f"{_flat(names, group)}, "
                for names, group in zip(_runs(xs + ys, sizes), self.groups)
            ) + ")"

        # the first domain leg is walked outermost; a rank-0 domain has none
        walk = [f"    for x0 in range(n{leg}):" for leg in self.domain[:1]]
        return _function("nest(t, nH, nA, nB, one, mul, add)", [
            "    out = {}", *walk,
            *_nest(self.chain, self.domain, 0, 0, "out", key, 1 + len(walk)),
            "    return out"])


def construction(map_id, domain, out, chain):
    """Declare a map: `chain` must take `domain` to `out`."""
    (legs, _), (out_legs, _) = _legs(map_id, domain), _legs(map_id, out)
    steps = _checked(map_id, chain, legs, out_legs)
    groups = tuple(g.strip("()") for g in _LEG.findall(domain + out))
    return Construction(map_id, legs, out_legs, steps,
                        frozenset(name for name, _ in steps), groups)


def _flat(names, spaces):
    """The row-major flat index of the legs `names` as an expression."""
    expr = ""
    for name, space in zip(names, spaces):
        expr = f"({expr}) * n{space} + {name}" if expr else name
    return expr or "0"


def _runs(seq, sizes):
    """`seq` cut into consecutive runs of `sizes` entries."""
    return [seq[end - n:end] for n, end in zip(sizes, accumulate(sizes))]


def _ravel(index, dims):
    """The row-major flat index of the index tuple `index` over `dims`."""
    return sum(i * prod(dims[k + 1:]) for k, i in enumerate(index))


def _nest(chain, domain, walked, k0, slab, key, depth):
    """The lines, indented `depth` levels, of the loop nest of `chain` on
    the legs `domain`, named x0, x1, ..., with the leg `walked` bound
    outside it: each term is added to the dict `slab` under the key
    key(xs, ys), xs the domain legs' names and ys the output legs', and
    step k of the chain reads the fibres t[k0 + k]."""
    xs = [f"x{i}" for i in range(len(domain))]
    legs = list(xs)  # the current legs' names
    defined = set(xs[walked:walked + 1])
    waiting = [(x, space) for i, (x, space) in enumerate(zip(xs, domain))
               if i != walked]
    lines, coef = [], "one"

    def emit(line):
        nonlocal depth
        lines.append("    " * depth + line)
        depth += line.endswith(":")

    def loop(var, space):
        nonlocal coef
        if coef.startswith("mul("):
            emit(f"c{depth} = {coef}")
            coef = f"c{depth}"
        emit(f"for {var} in range(n{space}):")
        defined.add(var)

    for k, (name, p) in enumerate(chain, k0):
        if name == "swap":
            legs[p:p + 2] = legs[p + 1], legs[p]
            continue
        n_in, n_out = map(len, SIGNATURES[name])
        ins, new = legs[p:p + n_in], [f"y{k}_{i}" for i in range(n_out)]
        while not defined.issuperset(ins):
            loop(*waiting.pop(0))
        target = new[0] if n_out == 1 else f"({', '.join(new)})"
        emit(f"for {target}, v{k} in t[{k}]{''.join(f'[{a}]' for a in ins)}:")
        defined.update(new)
        coef = f"v{k}" if coef == "one" else f"mul({coef}, v{k})"
        legs[p:p + n_in] = new
    for var, space in waiting:
        loop(var, space)
    emit(f"key = {key(xs, legs)}")
    emit(f"{slab}[key] = add({slab}[key], {coef}) if key in {slab} else {coef}")
    return lines


def _function(head, lines):
    """The function `head` with the body `lines`, compiled."""
    namespace = {"differ": differ}
    exec("\n".join([f"def {head}:", *lines]), namespace)
    return namespace[head.partition("(")[0]]


def _inputs(names, H, A, act, coact, act_B=None, coact_B=None):
    """The dims of the legs H, A and B, and the fibres of the maps `names`:
    A is the carrier of `act` or `coact`, else the target A, and B that of
    `act_B` or `coact_B`.  DimMismatch unless every action and coaction
    has the dims of its legs, both carrier legs alike."""
    nH = H.dim
    carrier = act if act is not None else coact
    nA = (carrier.m_dim if carrier is not None
          else A.dim if A is not None else 0)
    carrier = act_B if act_B is not None else coact_B
    nB = carrier.m_dim if carrier is not None else 0
    if (act is not None and act.dims != (nH, nA, nA)
            or coact is not None and coact.dims != (nA, nA, nH)
            or act_B is not None and act_B.dims != (nH, nB, nB)
            or coact_B is not None and coact_B.dims != (nB, nB, nH)):
        raise DimMismatch("action or coaction dims do not match legs H, A, "
                          f"B of dims {nH}, {nA}, {nB}")
    maps = {"act": act, "coact": coact, "act_B": act_B, "coact_B": coact_B}
    fibres = {"swap": None}
    for name in names:
        if name != "swap":
            X = maps.get(name, A if name.endswith("_A") else H)
            fibres[name] = _FIBRES[name.partition("_")[0]](X)
    return {"H": nH, "A": nA, "B": nB}, fibres


def evaluate(laws, H, A=None, act=None, coact=None, firsts=None):
    """The report of `laws`, in order, over the Hopf structure H, the
    action `act` or coaction `coact`, whose carrier is the leg A, and the
    maps of the target A where a law uses them; a law of H alone needs
    none of them.  `firsts`, if given, holds per law the first indices of
    the only slabs to evaluate, the others taken to hold, or None for
    every slab.  A law with no slab to evaluate passes, and none of its
    maps is read.  Each law is one call of its compiled `check`, and a
    witness is built only for the slab it returns."""
    f = H.field
    if firsts is None:
        firsts = [None] * len(laws)
    names = {name for lw, chosen in zip(laws, firsts)
             if chosen is None or chosen for name in lw.names}
    dims, fibres = _inputs(names, H, A, act, coact)
    nH, nA = dims["H"], dims["A"]
    rep = VerificationReport()
    for lw, chosen in zip(laws, firsts):
        witness = None
        if chosen is None or chosen:
            slabs, inst_dims, out_dims = lw.dims_at(nH, nA)
            bad = lw.check(slabs if chosen is None else chosen,
                           [fibres[name] for name in lw.names],
                           nH, nA, f.one, f.mul, f.add, f.zero)
            if bad is not None:
                witness = _witness(lw, f, dims, bad, inst_dims, out_dims)
        rep.add(lw.law_id, witness is None, witness, lw.informational)
    return rep


def _witness(lw, field, dims, bad, inst_dims, out_dims):
    """The witness of `lw` at its first failing (index, lhs, rhs), the
    walked leg's index in its place and each leg group one index."""
    first, lhs, rhs = bad
    witness = slab_witness(field, () if first is None else (first,),
                           lhs, rhs, inst_dims, out_dims)
    s = lw.slab
    if s or lw.dom_sizes:
        # the walked leg's index, first in the witness, to its place
        index = witness.indices
        index = index[1:s + 1] + index[:1] + index[s + 1:]
        if lw.dom_sizes:
            dom = [dims[leg] for leg in lw.domain]
            index = tuple(map(_ravel, _runs(index, lw.dom_sizes),
                              _runs(dom, lw.dom_sizes)))
        witness = replace(witness, indices=index)
    return witness


def build(con, H, A=None, act=None, coact=None, cls=SparseTensor, *,
          act_B=None, coact_B=None):
    """The map `con` over the inputs of `evaluate` and those of the leg B,
    as a `cls` whose legs are its leg groups."""
    f = H.field
    dims, fibres = _inputs(con.names, H, A, act, coact, act_B, coact_B)
    sizes = tuple(prod(dims[leg] for leg in group) for group in con.groups)
    terms = con.nest([fibres[name] for name, _ in con.chain], dims["H"],
                     dims["A"], dims["B"], f.one, f.mul, f.add)
    return cls._from_nz(f, sizes, terms)
