"""Acceptance criteria, one test per criterion.

Every comparison is exact (zero tolerance) over Q or GF(p); runtimes are
asserted where the criterion carries a budget.
"""

import random
import time

from conftest import (automorphisms, cyclic, inversion_action, klein, loop7,
                      perm_action, s3_table)

from hopfloop import (ActionData, CoactionData, CosmashInput, GF, LongDimodule,
                      QQ, SmashInput, build_from_comodule,
                      build_from_quasimodule,
                      build_smash_product, check_antipode_basic,
                      check_antipode_colinear, check_antipode_linear,
                      check_d_equation, check_hopf_coquasigroup,
                      check_hopf_quasigroup, check_lemma_identities,
                      check_quasi_identities, d_map, dualize, is_associative,
                      loop_algebra, search_ip_loops, tensor_dimodule,
                      theorem_cosmash_roundtrip, theorem_smash_roundtrip,
                      trivial_action_dimodule, trivial_coaction_dimodule,
                      unit_dimodule)
from hopfloop import cli, fileio

SWEEP_SEED = 20260826


def test_criterion_1_group_algebra_sanity():
    t0 = time.perf_counter()
    fixtures = [loop_algebra(cyclic(2)), loop_algebra(cyclic(3)),
                loop_algebra(s3_table()),
                loop_algebra(s3_table(), field=GF(5))]
    for H in fixtures:
        assert check_hopf_quasigroup(H).ok
        assert check_hopf_coquasigroup(dualize(H)).ok
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_nonassociative_witness():
    t0 = time.perf_counter()
    found = search_ip_loops(7, want_nonassociative=True)
    assert len(found) >= 1
    table = found[0]
    H = loop_algebra(table)
    rep = check_quasi_identities(H)
    for law in ("quasi1.left", "quasi1.right", "quasi2.left", "quasi2.right"):
        assert rep.law(law).passed
    assert check_antipode_basic(H).ok
    ok, witness = is_associative(table)
    assert not ok and witness is not None
    a, b, c = witness
    assert table.mul(table.mul(a, b), c) != table.mul(a, table.mul(b, c))
    assert time.perf_counter() - t0 < 60.0


def _dimodule_fixture_set(field=QQ):
    H2 = loop_algebra(cyclic(2), field=field)
    HS3 = loop_algebra(s3_table(), field=field)
    H7 = loop_algebra(loop7(), field=field)
    H2d, HS3d = dualize(H2), dualize(HS3)
    inv = inversion_action(field)
    dual_inv = CoactionData.dual_of_action(inv)
    d6 = trivial_coaction_dimodule(H2, inv)
    d7 = trivial_action_dimodule(H2, CoactionData.graded(H2, [0, 1, 1]))
    return [
        # free dimodules on M (x) H over three base structures
        build_from_quasimodule(H2, inv),                                # 6
        build_from_quasimodule(HS3, ActionData.from_mu(HS3)),           # 36
        build_from_quasimodule(H7, ActionData.from_mu(H7)),             # 49
        # free dimodules on H (x) M, coquasigroup variant
        build_from_comodule(H2d, dual_inv),                             # 6
        build_from_comodule(
            HS3d, CoactionData.dual_of_action(ActionData.from_mu(HS3))),  # 36
        # trivial coaction / trivial action degeneracies
        d6, d7,
        trivial_coaction_dimodule(H7, ActionData.from_mu(H7)),          # 7
        trivial_action_dimodule(H2d, dual_inv),                         # 3
        # tensor product and the unit dimodule
        tensor_dimodule(d6, d7),                                        # 9
        unit_dimodule(HS3),                                             # 1
    ]


def test_criterion_3_d_equation_master_property():
    t0 = time.perf_counter()
    fixtures = _dimodule_fixture_set()
    assert len(fixtures) >= 10
    assert max(D.dim for D in fixtures) == 49
    variants = {D.variant for D in fixtures}
    assert len(variants) == 2
    for D in fixtures:
        assert check_d_equation(d_map(D)).ok, D
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_trivial_dimodule_degeneracy():
    H2 = loop_algebra(cyclic(2))
    H7 = loop_algebra(loop7())
    H2d = dualize(H2)
    cases = [
        trivial_coaction_dimodule(H2, inversion_action()),
        trivial_coaction_dimodule(H7, ActionData.from_mu(H7)),
        trivial_action_dimodule(H2, CoactionData.graded(H2, [0, 1, 1])),
        trivial_action_dimodule(
            H2d, CoactionData.dual_of_action(inversion_action())),
    ]
    for D in cases:
        R = d_map(D)
        assert R.is_identity()
        assert R.nz == {(j, j): D.field.one for j in range(R.dim)}


def test_criterion_5_classical_recovery():
    H2 = loop_algebra(cyclic(2))
    H3 = loop_algebra(cyclic(3))
    cand = build_smash_product(SmashInput(H2, H3, inversion_action()))
    HS3 = loop_algebra(s3_table())
    # documented reindex: smash basis 2a+h corresponds to the permutation
    # r^a s^h with r = [1,2,0], s = [0,2,1], giving lex indices:
    sigma = [0, 1, 3, 2, 4, 5]
    f = QQ
    n = 6
    for i in range(n):
        assert cand.unit[i,] == HS3.unit[sigma[i],]
        assert cand.counit[i,] == HS3.counit[sigma[i],]
        for j in range(n):
            assert cand.antipode[i, j] == \
                HS3.antipode[sigma[i], sigma[j]]
            for k in range(n):
                assert cand.mu[i, j, k] == \
                    HS3.mu[sigma[i], sigma[j], sigma[k]]
                assert cand.delta[i, j, k] == \
                    HS3.delta[sigma[i], sigma[j], sigma[k]]
    assert check_hopf_quasigroup(cand).ok


def _sweep_inputs(rng, count, field=QQ):
    h_tables = [cyclic(2), klein(), cyclic(4)]
    a_tables = [cyclic(3), cyclic(4), cyclic(5), klein()]
    auts = {id(t): automorphisms(t) for t in a_tables}
    algebras = {}

    def alg(table):
        if id(table) not in algebras:
            algebras[id(table)] = loop_algebra(table, field=field)
        return algebras[id(table)]

    def invert(p):
        q = [0] * len(p)
        for i, v in enumerate(p):
            q[v] = i
        return tuple(q)

    out = []
    for _ in range(count):
        ht = rng.choice(h_tables)
        at = rng.choice(a_tables)
        pool = auts[id(at)]
        assign = {0: tuple(range(at.n))}
        for h in range(1, ht.n):
            if h in assign:
                continue
            hinv = ht.inverse_of(h)
            if hinv == h:
                # self-inverse basis elements need involutive automorphisms
                p = rng.choice([p for p in pool if invert(p) == p])
                assign[h] = p
            else:
                p = rng.choice(pool)
                assign[h] = p
                assign[hinv] = invert(p)
        act = perm_action(field, ht.n, [assign[h] for h in range(ht.n)])
        out.append(SmashInput(alg(ht), alg(at), act))
    return out


def test_criterion_6_theorem_soundness_sweeps():
    rng = random.Random(SWEEP_SEED)
    inputs = _sweep_inputs(rng, 100)
    assert len(inputs) >= 100
    q_values = set()
    for inp in inputs:
        rt = theorem_smash_roundtrip(inp)
        assert rt.equivalent, rt.to_dict()
        q_values.add(rt.condition_ok)
    assert q_values == {True, False}

    q_values = set()
    for inp in inputs:
        dual = CosmashInput(dualize(inp.H), dualize(inp.A),
                            CoactionData.dual_of_action(inp.act))
        rt = theorem_cosmash_roundtrip(dual)
        assert rt.equivalent, rt.to_dict()
        q_values.add(rt.condition_ok)
    assert q_values == {True, False}


def test_criterion_7_lemma_coverage():
    H2 = loop_algebra(cyclic(2))
    H3 = loop_algebra(cyclic(3))
    H2d, H3d = dualize(H2), dualize(H3)
    inv = inversion_action()
    dual_inv = CoactionData.dual_of_action(inv)

    # positive coverage over the whole valid dimodule fixture set
    seen = set()
    for D in _dimodule_fixture_set():
        rep = check_lemma_identities(D)
        assert rep.ok, D
        seen |= {e.law_id for e in rep.entries}
    assert seen == {"ldmp1", "ldmp2", "ldmcp1", "ldmcp2"}
    assert check_antipode_linear(H2, H3, inv).ok
    assert check_antipode_colinear(H2d, H3d, dual_inv).ok

    # falsification fixtures, one per law id, each with a witness
    bad_q = LongDimodule(H2, inv, CoactionData.graded(H2, [0, 1, 0]))
    rep = check_lemma_identities(bad_q)
    for law in ("ldmp1", "ldmp2"):
        assert not rep.law(law).passed and rep.law(law).witness is not None

    f = QQ
    entries = [(m, m2, h, dual_inv.data[m][m2][h])
               for m in range(3) for m2 in range(3) for h in range(2)
               if dual_inv.data[m][m2][h] != f.zero]
    m, m2, h, _ = entries[0]
    entries[0] = (m, m2, h, f.from_int(2))
    bad_co = CoactionData.from_entries(f, 3, 2, entries)
    bad_c = LongDimodule(H2d, ActionData.trivial(H2d, 3), bad_co)
    rep = check_lemma_identities(bad_c)
    for law in ("ldmcp1", "ldmcp2"):
        assert not rep.law(law).passed and rep.law(law).witness is not None

    one = f.one
    non_bij = ActionData.from_entries(f, 2, 3, [
        (0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one),
        (1, 0, 0, one), (1, 1, 1, one), (1, 2, 1, one)])
    rep = check_antipode_linear(H2, H3, non_bij)
    assert not rep.law("antipode.linear").passed
    assert rep.law("antipode.linear").witness is not None
    rep = check_antipode_colinear(H2d, H3d,
                                  CoactionData.dual_of_action(non_bij))
    assert not rep.law("antipode.colinear").passed
    assert rep.law("antipode.colinear").witness is not None


def test_criterion_8_antipode_properties():
    fixtures = [loop_algebra(cyclic(2)), loop_algebra(cyclic(3)),
                loop_algebra(s3_table()), loop_algebra(loop7()),
                loop_algebra(s3_table(), field=GF(5))]
    for H in fixtures:
        rep = check_antipode_basic(H)
        for law in ("antipode.conv_left", "antipode.conv_right",
                    "antipode.antimult", "antipode.anticomult"):
            assert rep.law(law).passed, (H, law)
        rep_d = check_antipode_basic(dualize(H))
        for law in ("antipode.conv_left", "antipode.conv_right",
                    "antipode.antimult", "antipode.anticomult"):
            assert rep_d.law(law).passed


def test_criterion_9_cli_roundtrip_and_exit_codes(tmp_path, capsys):
    H2 = loop_algebra(cyclic(2))
    fixtures = {
        "c2.hq": fileio.serialize_structure(H2),
        "hs3f5.hq": fileio.serialize_structure(
            loop_algebra(s3_table(), field=GF(5))),
        "l7d.hq": fileio.serialize_structure(dualize(loop_algebra(loop7()))),
        "s3.cayley": fileio.serialize_cayley(s3_table()),
        "l7.cayley": fileio.serialize_cayley(loop7()),
        "inv.act": fileio.serialize_action(inversion_action()),
        "dual.coact": fileio.serialize_coaction(
            CoactionData.dual_of_action(inversion_action())),
    }
    parsers = {
        ".hq": (fileio.parse_structure, fileio.serialize_structure),
        ".cayley": (fileio.parse_cayley, fileio.serialize_cayley),
        ".act": (lambda t: fileio.parse_action(t, QQ),
                 fileio.serialize_action),
        ".coact": (lambda t: fileio.parse_coaction(t, QQ),
                   fileio.serialize_coaction),
    }
    for name, text in fixtures.items():
        parse, dump = parsers[name[name.index("."):]]
        assert dump(parse(text)) == text, name

    # exit codes: 0 pass, 1 law failure, 2 parse error
    ok_path = tmp_path / "c2.hq"
    ok_path.write_text(fixtures["c2.hq"])
    assert cli.main(["verify", str(ok_path)]) == 0
    bad_path = tmp_path / "bad.hq"
    bad_path.write_text(fixtures["c2.hq"].replace(
        "antipode:\n0 0 1\n1 1 1", "antipode:\n0 0 1\n1 0 1"))
    assert cli.main(["verify", str(bad_path)]) == 1
    junk_path = tmp_path / "junk.hq"
    junk_path.write_text("hopfqg\nfield Q\ndim 2\nmu:\nnonsense\n")
    assert cli.main(["verify", str(junk_path)]) == 2
    capsys.readouterr()
