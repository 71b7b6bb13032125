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
`hopfloop.structures` only pick the first failing slab, every slab or
none, and the declaration decides each slab picked, so every verdict and
witness comes from here.
Each side of a slab is one dict keyed by the flat int
inst * prod(out_dims) + out, inst the instance's other legs and out the
output basis tuple, both row-major.

Each law is compiled once into one function, `Law.check`, as `dataclasses`
compiles `__init__`.  It walks the slabs it is given, builds both sides'
dicts of each and compares them with one `==`; only when they differ does
it compare them again with zero values read as absent, copying neither,
and it returns the first slab that still differs, with both dicts.  Once a
law has failed, its later slabs are not evaluated.  `evaluate` makes one
call per law, which walks every index of its leg unless it is given slabs,
and builds a witness only from the slab returned (`report.slab_witness`),
computing its dims there: the first failing instance in walk order, its
indices in domain order.

Each side is a loop nest emitted from its chain.  A step is one loop over
the nonzeros of its map, and a swap only renames legs.  A step binds its
input legs not yet bound, the free instance legs it is the first to read,
from its map's nonzeros grouped by the input legs already bound
(`SparseTensor.fibres`); for mu or act, (i, j) -> k:

    bound legs      view                   pairs
    none            the items of nz        (i, j, k), coeff
    i               _by_first[i]           (j, k), coeff
    j               _by_second[j]          (i, k), coeff
    i and j         _by_first_two[i][j]    k, coeff

A map of one input leg is read through the items of nz, or `_nonzeros`
for a counit (and a unit, with no input), when the leg is free, and by
that leg when it is bound: `_by_first`, or `_by_second` for S.  So assoc
on a diagonal mu of dim n visits n terms per slab, not n^2 empty fibres.
Only a leg that no step reads, an identity leg, is bound by a range
loop, innermost.  Each compiled function records in its `views` the
(map, bound legs) that each of its steps reads, and `evaluate` and
`build` look each such view up once per call; the steps of both sides
read one list of views, the right side's after the left's.
A step sits outside the loops over the instance legs it does not read,
so that the (S (x) id)Delta(h) of qm2.left is formed once per h, not once
per (h, m), and the coefficients are multiplied where a term is stored,
or before a loop that binds a leg, for the steps outside it:

    for x0 in slabs:                                # the slab's h
        lhs = {}
        for (y0_0, y0_1), v0 in t[0][x0]:           # delta@0
            for y1_0, v1 in t[1][y0_1]:             # S@1
                c4 = mul(v0, v1)
                for (x1, y2_0), v2 in t[2][y1_0]:   # act@1 binds m
                    for y3_0, v3 in t[3][y0_0][y2_0]:   # act@0
                        key = (x1) * nA + y3_0
                        ...  # add mul(mul(c4, v2), v3) to lhs[key]
        rhs = {}
        for (), v4 in t[4][x0]:                     # eps@0
            for x1 in range(nA):                    # m, read by no step
                ...  # add v4 to rhs[(x1) * nA + x1]
        if lhs != rhs and differ(lhs, rhs, zero):
            return x0, lhs, rhs

`legs` is the one check of a (co)action, target or bundle against H's
field (FieldMismatch) and the dims of the legs H, A and B (DimMismatch):
every `evaluate` and `build` call runs it first, and the dimodule and
smash inputs run it when they are made.

A construction declares one chain as a map, `construction(id, domain, out,
chain)`, checked as a law's chains are.  Its nest, `Construction.nest`,
binds every domain leg as a law's nest binds an instance leg and keys
each term by the tuple of its leg groups' flat indices, domain first, so
that `build` only hands the dict to a sparse tensor: "(AH)(AH)" -> "(AH)"
is a product.  A map of one domain and one output index, "(AH)" ->
"(AH)" as an antipode or d_map is, is keyed output first, a matrix in
(out, in) order, so nothing built is transposed.

A construction whose output is one leg group also has a basis form,
`Construction.rows`: the same nest, reading the same views, that forms
no product and writes the flat output index of each domain tuple into a
list `row`, row-major over the domain legs.  `build` runs it when every
map the chain reads sends each input to one basis tuple with
coefficient one (`SparseTensor.is_forward`): then each domain tuple has
one term, with coefficient one, and the row is the map, handed
to `SparseTensor._from_basis_map`, which holds it as its basis map and
makes its nonzeros only when they are read.  Laws have no basis form:
one inside `evaluate` measured slower on the smash sweep and no faster on
the dimodules (ROADMAP item 10, under Settled).
"""

import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from math import prod

from .errors import DimMismatch
from .fields import check_same_field
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

# Each map's legs in its index order, i an input and o an output.
_LAYOUTS = {"mu": "iio", "delta": "ioo", "S": "oi", "eta": "o", "eps": "i",
            "act": "iio", "coact": "ioo"}

# Each map's input legs, by position.
_INS = {name: tuple(i for i, leg in enumerate(_LAYOUTS[name.partition("_")[0]])
                    if leg == "i") for name in SIGNATURES}

# The attribute of a Hopf structure, (co)algebra X holding each map; an
# action or coaction is its own map.
_MAPS = {"mu": "mu", "delta": "delta", "S": "antipode", "eta": "unit",
         "eps": "counit"}


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
    dom_groups: tuple = ()  # the legs of each index of a witness
    out_groups: tuple = ()

    @cached_property
    def check(self):
        """The law compiled on first use: a function of the indices of the
        walked leg to evaluate, None for all of them, the views t that its
        `views` name, the dims nH and nA, and the field's one, mul, add and
        zero, that returns the first failing (index, lhs slab, rhs slab),
        or None.  A law of rank-0 domain is one slab, of index None."""
        s, views = self.slab, []
        spaces = self.domain[:s] + self.domain[s + 1:] + self.out
        walk = (f"range(n{self.domain[s]}) if slabs is None else slabs"
                if self.domain else "(None,)")

        def key(xs, ys):
            return _flat(xs[:s] + xs[s + 1:] + ys, spaces)

        return _function("check(slabs, t, nH, nA, one, mul, add, zero)", [
            f"    for x{s} in {walk}:",
            "        lhs = {}",
            *_nest(self.lhs, self.domain, s, 0, _sum_into("lhs", key), 2,
                   views),
            "        rhs = {}",
            *_nest(self.rhs, self.domain, s, len(self.lhs),
                   _sum_into("rhs", key), 2, views),
            "        if lhs != rhs and differ(lhs, rhs, zero):",
            f"            return x{s}, lhs, rhs"], views)


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
    """The legs of the leg string `text` and the legs of each of its
    indices: one leg, or a group's."""
    indices = _LEG.findall(text)
    if "".join(indices) != text:
        raise ValueError(f"{law_id}: bad leg string {text!r}")
    groups = tuple(index.strip("()") for index in indices)
    return "".join(groups), groups


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
    (domain, dom_groups), (out, out_groups) = (
        _legs(law_id, domain), _legs(law_id, out))
    if "B" in domain + out:
        raise ValueError(f"{law_id}: leg B in a law, {domain!r} -> {out!r}")
    if not 0 <= slab < max(len(domain), 1):
        raise ValueError(f"{law_id}: no leg {slab} in {domain!r} to walk")
    return Law(law_id, domain, out, _checked(law_id, lhs, domain, out),
               _checked(law_id, rhs, domain, out), informational, slab,
               dom_groups, out_groups)


@dataclass(frozen=True, eq=False)
class Construction:
    """A declared map; `construction` builds one from its chain's text."""
    map_id: str
    domain: str  # the legs, groups dissolved
    out: str
    chain: tuple  # ((name, p), ...)
    groups: tuple  # the legs of each index of a built tensor, in its order
    out_index: int = None  # that of the output, if it is one group

    @cached_property
    def nest(self):
        """The map compiled on first use: a function of the views t that
        its `views` name, the dims nH, nA and nB, and the field's one, mul
        and add, that returns its terms keyed by the groups' indices."""
        sizes, views = [len(group) for group in self.groups], []

        def key(xs, ys):
            # the legs' names in the order of the built tensor's indices
            names = ys + xs if self.out_index == 0 else xs + ys
            return "(" + "".join(
                f"{_flat(run, group)}, "
                for run, group in zip(_runs(names, sizes), self.groups)) + ")"

        return _function("nest(t, nH, nA, nB, one, mul, add)", [
            "    out = {}",
            *_nest(self.chain, self.domain, None, 0, _sum_into("out", key),
                   1, views),
            "    return out"], views)

    @cached_property
    def rows(self):
        """The basis form of `nest`: a function of the same views and
        dims that returns a list `row` with one place per input, row-major
        over the domain legs, holding the flat index of each input's one
        output, row-major over the output legs.  It forms no product, so
        it is run only when every map it reads sends each input to one
        basis tuple, with coefficient one (`SparseTensor.is_forward`);
        then so does the map it builds."""

        def store(xs, ys, coef):
            return [f"row[{_flat(xs, self.domain)}] = {_flat(ys, self.out)}"]

        views, size = [], " * ".join(f"n{leg}" for leg in self.domain)
        return _function("rows(t, nH, nA, nB)", [
            f"    row = [None] * ({size or 1})",
            *_nest(self.chain, self.domain, None, 0, store, 1, views, False),
            "    return row"], views)


def construction(map_id, domain, out, chain):
    """Declare a map: `chain` must take `domain` to `out`.  A map of one
    domain and one output index is built as a matrix, in (out, in)
    order; any other keeps its domain indices first."""
    (legs, ins), (out_legs, outs) = _legs(map_id, domain), _legs(map_id, out)
    steps = _checked(map_id, chain, legs, out_legs)
    if len(ins) == len(outs) == 1:
        return Construction(map_id, legs, out_legs, steps, (*outs, *ins), 0)
    return Construction(map_id, legs, out_legs, steps, (*ins, *outs),
                        len(ins) if len(outs) == 1 else None)


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


def _sum_into(slab, key):
    """The store of a nest that adds each term to the dict `slab` under
    the key key(xs, ys)."""
    def store(xs, ys, coef):
        return [f"key = {key(xs, ys)}",
                f"{slab}[key] = add({slab}[key], {coef}) if key in {slab} "
                f"else {coef}"]
    return store


def _nest(chain, domain, walked, k0, store, depth, views, field=True):
    """The lines, indented `depth` levels, of the loop nest of `chain` on
    the legs `domain`, named x0, x1, ..., with the leg `walked`, if any,
    bound outside it: each term is stored by the lines store(xs, ys,
    coef), xs the domain legs' names, ys the output legs' and coef the
    term's coefficient, and step k of the chain reads t[k0 + k], the view
    of its map's nonzeros that it appends to `views`, None for a swap.
    Unless `field`, the coefficients are not multiplied, and coef is
    "one".

    A step binds its free input legs from its map's nonzeros grouped by
    its bound ones (`SparseTensor.fibres`), and only a leg that no step
    reads is bound by a range loop."""
    xs = [f"x{i}" for i in range(len(domain))]
    legs = list(xs)  # the current legs' names
    defined = set() if walked is None else set(xs[walked:walked + 1])
    lines, coef = [], "one"

    def emit(line):
        nonlocal depth
        lines.append("    " * depth + line)
        depth += line.endswith(":")

    def hoist():
        # the product so far, formed once before a loop of many terms
        nonlocal coef
        if field and coef.startswith("mul("):
            emit(f"c{depth} = {coef}")
            coef = f"c{depth}"

    for k, (name, p) in enumerate(chain, k0):
        if name == "swap":
            legs[p:p + 2] = legs[p + 1], legs[p]
            views.append(None)
            continue
        n_in, n_out = map(len, SIGNATURES[name])
        ins, new = legs[p:p + n_in], [f"y{k}_{i}" for i in range(n_out)]
        # the map's index, its legs named; `by` the positions bound
        order = iter(ins), iter(new)
        index = [next(order[leg == "o"])
                 for leg in _LAYOUTS[name.partition("_")[0]]]
        by = tuple(i for i, a in enumerate(index) if a in defined)
        rest = [a for a in index if a not in defined]
        if len(by) < n_in:
            hoist()
        target = rest[0] if len(rest) == 1 else f"({', '.join(rest)})"
        emit(f"for {target}, v{k} in t[{k}]"
             f"{''.join(f'[{index[i]}]' for i in by)}:")
        views.append((name, by))
        defined.update(ins + new)
        if field:
            coef = f"v{k}" if coef == "one" else f"mul({coef}, v{k})"
        legs[p:p + n_in] = new
    for var, space in zip(xs, domain):
        if var not in defined:
            hoist()
            emit(f"for {var} in range(n{space}):")
    for line in store(xs, legs, coef):
        emit(line)
    return lines


def _function(head, lines, views):
    """The function `head` with the body `lines`, compiled; its `views`
    name the view of its map's nonzeros that each step reads, and its
    `source` is its text."""
    namespace = {"differ": differ}
    source = "\n".join([f"def {head}:", *lines])
    exec(source, namespace)
    function = namespace[head.partition("(")[0]]
    function.views, function.source = tuple(views), source
    return function


def legs(H, A=None, act=None, coact=None, act_B=None, coact_B=None):
    """The dims nH, nA and nB of the legs H, A and B: A is the carrier of
    `act` or `coact`, else the target A, and B that of `act_B` or
    `coact_B`.  FieldMismatch unless every given map and the target A are
    over H's field; then DimMismatch unless every action and coaction has
    the dims of its legs, both carrier legs alike, and the target A has
    the carrier's dim.  Maps that fit cost one `or` chain; only a refusal
    loops over them."""
    f, nH = H.field, H.dim
    carrier = act if act is not None else coact
    nA = (carrier.m_dim if carrier is not None
          else A.dim if A is not None else 0)
    carrier = act_B if act_B is not None else coact_B
    nB = carrier.m_dim if carrier is not None else 0
    # a tuple compares its fields by identity first, without calling
    # the field's own __eq__ when the field is the same object
    if (act is not None and (act.field, act.dims) != (f, (nH, nA, nA))
            or coact is not None
            and (coact.field, coact.dims) != (f, (nA, nA, nH))
            or act_B is not None
            and (act_B.field, act_B.dims) != (f, (nH, nB, nB))
            or coact_B is not None
            and (coact_B.field, coact_B.dims) != (f, (nB, nB, nH))
            or A is not None and (A.field, A.dim) != (f, nA)):
        for X in (act, coact, act_B, coact_B, A):
            if X is not None:
                check_same_field(f, X.field)
        raise DimMismatch("action, coaction or target dims do not match "
                          f"legs H, A, B of dims {nH}, {nA}, {nB}")
    return nH, nA, nB


def _inputs(views, H, A, act, coact, act_B=None, coact_B=None):
    """The dims of the legs H, A and B, checked by `legs`, each of the
    `views` of its map's nonzeros, (name, bound legs) or None for a
    swap, and the map of each name that they read."""
    nH, nA, nB = legs(H, A, act, coact, act_B, coact_B)
    maps = {"act": act, "coact": coact, "act_B": act_B, "coact_B": coact_B}
    found, read = {None: None}, {}
    for step in views:
        if step not in found:
            name, by = step
            T = read.get(name)
            if T is None:
                X = maps.get(name, A if name.endswith("_A") else H)
                attr = _MAPS.get(name.partition("_")[0])
                T = read[name] = X if attr is None else getattr(X, attr)
            found[step] = T.fibres(by)
    return {"H": nH, "A": nA, "B": nB}, found, read


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
    views = {view for lw, chosen in zip(laws, firsts)
             if chosen is None or chosen for view in lw.check.views}
    dims, found, _ = _inputs(views, H, A, act, coact)
    nH, nA = dims["H"], dims["A"]
    rep = VerificationReport()
    for lw, chosen in zip(laws, firsts):
        bad = None
        if chosen is None or chosen:
            bad = lw.check(chosen, [found[view] for view in lw.check.views],
                           nH, nA, f.one, f.mul, f.add, f.zero)
        witness = None if bad is None else _witness(lw, f, dims, bad)
        rep.add(lw.law_id, witness is None, witness, lw.informational)
    return rep


def _witness(lw, field, dims, bad):
    """The witness of `lw` at its first failing (index, lhs, rhs), the
    walked leg's index in its place and each leg group one index."""
    first, lhs, rhs = bad
    s, dom = lw.slab, [dims[leg] for leg in lw.domain]
    witness = slab_witness(
        field, () if first is None else (first,), lhs, rhs,
        tuple(dom[:s] + dom[s + 1:]),
        tuple(prod(map(dims.get, group)) for group in lw.out_groups))
    grouped = len(lw.dom_groups) < len(dom)
    if s or grouped:
        # the walked leg's index, first in the witness, to its place
        index = witness.indices
        index = index[1:s + 1] + index[:1] + index[s + 1:]
        if grouped:
            sizes = list(map(len, lw.dom_groups))
            index = tuple(map(_ravel, _runs(index, sizes), _runs(dom, sizes)))
        witness = replace(witness, indices=index)
    return witness


def build(con, H, A=None, act=None, coact=None, cls=SparseTensor, *,
          act_B=None, coact_B=None):
    """The map `con` over the inputs of `evaluate` and those of the leg B,
    as a `cls` whose legs are its leg groups.  When its output is one
    group and every map it reads sends each input to one basis tuple,
    with coefficient one, it is built by `con.rows` with no field
    product, from the row of its basis map (`SparseTensor._from_basis_map`)."""
    f = H.field
    views = con.nest.views
    dims, found, read = _inputs(views, H, A, act, coact, act_B, coact_B)
    nH, nA, nB = dims["H"], dims["A"], dims["B"]
    sizes = tuple(prod(map(dims.get, group)) for group in con.groups)
    t = [found[view] for view in views]
    if con.out_index is not None and all(
            T.is_forward(_INS[name]) for name, T in read.items()):
        return cls._from_basis_map(f, sizes, con.out_index,
                                   con.rows(t, nH, nA, nB))
    return cls._from_nz(f, sizes, con.nest(t, nH, nA, nB, f.one, f.mul, f.add))
