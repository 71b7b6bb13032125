"""Laws and maps as declarations: `evaluate` checks the structure,
action, coaction, smash-condition and dimodule laws, and `build` makes the
smash (co)product maps and the D-equation candidate.

Every such law is an equation between two composites of structure maps,
declared by its id, its domain and output legs, and its two sides as
chains of steps; `evaluate` checks it over every basis tuple of the domain.
A leg is "H", a copy of the Hopf structure, or "A", a copy of the space
acted or coacted on (the module, or the algebra, coalgebra or Hopf structure
A whose own maps a law may use).  A chain is a space-separated string of
steps `name@p`, applied left to right; each applies one map to the legs
p, p+1, ... of the current tensor and puts its output legs in their place:

    mu    HH -> H     delta    H -> HH    S    H -> H
    mu_A  AA -> A     delta_A  A -> AA    S_A  A -> A
    eta      -> H     eps      H ->       act  HA -> A
    eta_A    -> A     eps_A    A ->       coact A -> AH
    swap  XY -> YX

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
output basis tuple, both row-major, and `LawAccumulator.check_slab`
compares the two: the witness is the first failing instance in walk order,
its indices in domain order.  Once a law has failed, its later slabs are
not evaluated.

Each side is a loop nest compiled once from its chain, as `dataclasses`
compiles `__init__`.  A step is one loop over the image of its input legs,
read from the cached fibres of its map, and a swap only renames legs.  A
step sits outside the loops over the instance legs it does not read, so
that the (S (x) id)Delta(h) of qm2.left is formed once per h, not once per
(h, m), and the coefficients are multiplied where a term is stored, or
before an instance loop for the steps outside it:

    for (y0_0, y0_1), v0 in t[0][x0]:           # delta@0, x0 the slab's h
        for y1_0, v1 in t[1][y0_1]:             # S@1
            c3 = mul(v0, v1)
            for x1 in range(nA):                # the instance m
                for y2_0, v2 in t[2][y1_0][x1]:     # act@1
                    for y3_0, v3 in t[3][y0_0][y2_0]:   # act@0
                        key = (x1) * nA + y3_0
                        ...  # add mul(mul(c3, v2), v3) to slab[key]

A construction declares one chain as a map, `construction(id, domain, out,
chain)`, checked as a law's chains are; `build` runs its loop nest over
each index of the first leg and returns a sparse tensor indexed by the
leg groups, domain first, so that "(AH)(AH)" -> "(AH)" is a product.
"""

import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from math import prod

from .report import LawAccumulator, VerificationReport
from .tensors import SparseTensor

# name -> (input legs, output legs)
SIGNATURES = {
    "mu": ("HH", "H"), "delta": ("H", "HH"), "S": ("H", "H"),
    "eta": ("", "H"), "eps": ("H", ""),
    "mu_A": ("AA", "A"), "delta_A": ("A", "AA"), "S_A": ("A", "A"),
    "eta_A": ("", "A"), "eps_A": ("A", ""),
    "act": ("HA", "A"), "coact": ("A", "AH"),
}

# The fibres of each map of a Hopf structure, algebra or coalgebra X by its
# input legs: (output legs, coeff) pairs, one leg an int, more a tuple.
_FIBRES = {
    "mu": lambda X: X.mu.mul_table,
    "delta": lambda X: X.delta._by_first,
    "S": lambda X: X.antipode._by_second,
    "eta": lambda X: X.unit.unit_fibre,
    "eps": lambda X: X.counit.counit_fibres,
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
    def sides(self):
        """The loop nests of both sides, compiled on first use."""
        return (_compile(self.lhs, self.domain, self.out, self.slab),
                _compile(self.rhs, self.domain, self.out, self.slab))


_LEG = re.compile(r"[HA]|\([HA]+\)")  # one index of a witness


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
    """Declare a law: both chains must take `domain` to `out`."""
    (domain, dom_sizes), (out, out_sizes) = (
        _legs(law_id, domain), _legs(law_id, out))
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
    def side(self):
        return _compile(self.chain, self.domain, self.out, 0)


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


def _compile(chain, domain, out, walked):
    """The loop nest of one side of a law declared by `law`: a function of
    the index of the slab's leg `walked`, the fibres t of each step's map,
    the dims nH and nA, and the field's one, mul and add, that returns the
    side's slab."""
    legs = [f"x{i}" for i in range(len(domain))]  # the current legs' names
    inst, inst_domain = (x[:walked] + x[walked + 1:] for x in (legs, domain))
    defined = set(legs[walked:walked + 1])
    waiting = list(zip(inst, inst_domain))
    lines, depth, coef = [], 1, "one"

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

    for k, (name, p) in enumerate(chain):
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
    emit(f"key = {_flat(inst + legs, inst_domain + out)}")
    emit(f"slab[key] = add(slab[key], {coef}) if key in slab else {coef}")
    namespace = {}
    exec("\n".join([f"def side(x{walked}, t, nH, nA, one, mul, add):",
                    "    slab = {}", *lines, "    return slab"]), namespace)
    return namespace["side"]


def _inputs(names, H, A, act, coact):
    """The dims of the legs H and A, and the fibres of the maps `names`."""
    carrier = act if act is not None else coact
    nA = (carrier.m_dim if carrier is not None
          else A.dim if A is not None else 0)
    fibres = {"swap": None}
    for name in names:
        if name == "act":
            fibres[name] = act._by_first_two
        elif name == "coact":
            fibres[name] = coact._by_first
        elif name != "swap":
            fibres[name] = _FIBRES[name.removesuffix("_A")](
                A if name.endswith("_A") else H)
    return {"H": H.dim, "A": nA}, fibres


def evaluate(laws, H, A=None, act=None, coact=None, firsts=None):
    """The report of `laws`, in order, over the Hopf structure H, the
    action `act` or coaction `coact`, whose carrier is the leg A, and the
    maps of the target A where a law uses them; a law of H alone needs
    none of them.  `firsts`, if given, holds per law the first indices of
    the only slabs to evaluate, the others taken to hold, or None for
    every slab.  A law with no slab to evaluate passes, and none of its
    maps is read."""
    f = H.field
    one, mul, add = f.one, f.mul, f.add
    if firsts is None:
        firsts = [None] * len(laws)
    names = {name for lw, chosen in zip(laws, firsts)
             if chosen is None or chosen for name, _ in lw.lhs + lw.rhs}
    dims, fibres = _inputs(names, H, A, act, coact)
    nH, nA = dims["H"], dims["A"]
    rep = VerificationReport()
    for lw, chosen in zip(laws, firsts):
        if chosen is not None and not chosen:
            rep.add(lw.law_id, True, informational=lw.informational)
            continue
        acc = LawAccumulator(rep, f, lw.law_id, lw.informational)
        lhs, rhs = lw.sides
        lhs_maps = [fibres[name] for name, _ in lw.lhs]
        rhs_maps = [fibres[name] for name, _ in lw.rhs]
        s = lw.slab
        dom = [dims[leg] for leg in lw.domain]
        inst_dims = tuple(dom[:s] + dom[s + 1:])
        out_dims = tuple(dims[leg] for leg in lw.out)
        if lw.out_sizes:
            out_dims = tuple(map(prod, _runs(out_dims, lw.out_sizes)))
        slabs = (chosen if chosen is not None
                 else range(dom[s]) if dom else (None,))
        for first in slabs:
            if acc.failed:
                break
            acc.check_slab(() if first is None else (first,),
                           lhs(first, lhs_maps, nH, nA, one, mul, add),
                           rhs(first, rhs_maps, nH, nA, one, mul, add),
                           inst_dims, out_dims)
        if acc.failed and (s or lw.dom_sizes):
            # the walked leg's index, first in the witness, to its place
            index = acc.witness.indices
            index = index[1:s + 1] + index[:1] + index[s + 1:]
            if lw.dom_sizes:
                index = tuple(map(_ravel, _runs(index, lw.dom_sizes),
                                  _runs(dom, lw.dom_sizes)))
            acc.witness = replace(acc.witness, indices=index)
        acc.finish()
    return rep


@lru_cache(maxsize=1024)
def _shape(con, nH, nA):
    """The indices of the first leg of `con` at the dims nH and nA, the
    number of index tuples of its other legs, and its groups' sizes and
    row-major strides."""
    dims = {"H": nH, "A": nA}
    legs = [dims[leg] for leg in con.domain + con.out]
    sizes = tuple(prod(dims[leg] for leg in group) for group in con.groups)
    return (range(legs[0]) if con.domain else (0,), prod(legs[1:]), sizes,
            tuple(prod(sizes[k + 1:]) for k in range(len(sizes))))


def build(con, H, A=None, act=None, coact=None, cls=SparseTensor):
    """The map `con` over the inputs of `evaluate`, as a `cls` whose legs
    are its leg groups: its chain run once per index of its first leg, and
    each term's flat int over all legs cut into the groups' indices."""
    f = H.field
    dims, fibres = _inputs(con.names, H, A, act, coact)
    maps = [fibres[name] for name, _ in con.chain]
    nH, nA = dims["H"], dims["A"]
    firsts, rest, sizes, strides = _shape(con, nH, nA)
    flats, coeffs = [], []
    for first in firsts:
        slab = con.side(first, maps, nH, nA, f.one, f.mul, f.add)
        flats += [first * rest + key for key in slab]
        coeffs += slab.values()
    keys = list(zip(*[[x // stride % size for x in flats]
                      for stride, size in zip(strides, sizes)]))
    # a map of no legs has one key, ()
    return cls._from_nz(f, sizes, dict(zip(keys or [()], coeffs)))
