"""Finite denotational and relational semantics."""

import os
import pathlib
import random
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import cache
from itertools import islice, permutations, product
from math import prod

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from polyeff import cli
from polyeff import encodings as enc
from polyeff import finmodel as fm
from polyeff import interp as ip
from polyeff import paramlab as pl
from polyeff import typecheck as tc
from polyeff.randterms import TermGenerator
from polyeff.kernel import (
    CSORT,
    VSORT,
    Arrow,
    Forall,
    Judgment,
    Kind,
    Lolli,
    TyVar,
    Var,
    binder_signs,
    classify_type,
    free_type_var_keys,
    free_type_vars,
    free_type_vars_term,
)
from polyeff.surface import parse_term, parse_type


EXC = fm.MonadSpec("exception", ("e",))
POW = fm.MonadSpec("powerset")
# the two pointed sets on 2 points, named by their tables: isomorphic, so a
# model registers the first only
PT0, PT1 = fm.Alg(EXC, 2, ((0,),)), fm.Alg(EXC, 2, ((1,),))


@pytest.fixture(scope="module")
def model():
    return ip.Model(EXC, 2)


@pytest.fixture(scope="module")
def free_model():
    return ip.Model(EXC, 2, range(3))


def test_a_model_registers_the_free_algebras_it_is_built_with():
    model = ip.Model(EXC, 2, (2,))
    idx, alg, eta = model.free_algebra(2)
    assert (alg, eta) == fm.free_algebra(EXC, 2)
    assert model.algebras[idx] is alg
    with pytest.raises(ip.OutOfBoundError, match="free algebra on a 1-element set is not registered"):
        model.free_algebra(1)


def test_variable_lookup(model):
    env = ip.type_env({"X": fm.FinSet(2)})
    assert model.interp_vtype(env, TyVar(VSORT, "X")).size == 2


def test_function_space_cardinality(model):
    env = ip.type_env({"B": fm.FinSet(2), "C": fm.FinSet(3)})
    assert model.interp_vtype(env, parse_type("B -> C")).size == 9


def test_nested_function_spaces_saturate_their_size():
    # D -> D -> X with D = (Y -> ^Q) -> (Y -> ^Q) -> X, at |X| = |Y| = |^Q| = 2,
    # has (2^65536)^65536 elements: sized exactly, that int alone exhausted
    # memory, so it is built in a child with 1 GB of address space and a time
    # limit, and must come out past ITER_CAP
    code = (
        "from polyeff import finmodel as fm, interp as ip\n"
        "from polyeff.surface import parse_type\n"
        "m = ip.Model(fm.MonadSpec('exception', ('e',)), 2)\n"
        "env = ip.type_env({'X': m.sets[2], 'Y': m.sets[2]}, {'Q': m.algebras[1]})\n"
        "d = '((Y -> ^Q) -> (Y -> ^Q) -> X)'\n"
        "print(m.interp_vtype(env, parse_type(f'{d} -> {d} -> X')).size > ip.ITER_CAP)\n"
    )

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(pathlib.Path(ip.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         preexec_fn=limit, env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, "True\n"), out.stderr[-2000:]


def test_an_abstraction_past_iter_cap_arguments_is_out_of_bound():
    # at bound 3, (X -> X) -> X has 3**27 elements: the abstraction raises before it tabulates any
    model = ip.Model(EXC, 3)
    _, run = model._compile(parse_term("fun f:(X -> X) -> X => g"), (("g", TyVar(VSORT, "X")),), None)
    with pytest.raises(ip.OutOfBoundError, match=r"^abstraction over \(X -> X\) -> X tabulates 7625597484987 arguments,"
                                                 r" more than ITER_CAP \(400000\)$"):
        run(ip.type_env({"X": fm.FinSet(3)}, {}), {"g": 0})


def test_saturated_sizes_print_as_a_bound():
    # a space of exactly 2**64 elements keeps its size; one past it saturates,
    # and a message then states the bound, not the saturated value
    two = fm.FinSet(2)
    exact, past = ip.fun_sem(fm.FinSet(64), two), ip.fun_sem(fm.FinSet(65), two)
    assert exact.size == 2**64
    with pytest.raises(ip.OutOfBoundError, match=f"component 0 has {2**64} candidates"):
        ip.pairwise_search([exact.size], lambda *a: True)
    with pytest.raises(ip.OutOfBoundError, match=r"component 0 has more than 2\*\*64 candidates"):
        ip.pairwise_search([past.size], lambda *a: True)


def test_applying_a_value_of_a_saturated_space_computes_one_power():
    # a space of 3**65536 functions saturates; applying one of them at its
    # last argument reads one digit, with no table of the 65537 powers of 3,
    # which would take about 425 MB
    space = ip.fun_sem(fm.FinSet(1 << 16), fm.FinSet(3))
    assert space.size == 2**64 + 1
    f = 2 * 3 ** ((1 << 16) - 1) + 1
    tracemalloc.start()
    try:
        digits = [space.apply(f, x) for x in (0, 1, (1 << 16) - 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digits == [1, 0, 2]
    assert peak < 10 << 20


# suites cheap enough at bound 3 under every monad to run here, in CLI order;
# between them they build about 2 500 function spaces
ROUND_TRIP_SUITES = ("abstraction", "free-algebra", "bang-cardinality", "algop", "handler", "encoding-props",
                     "parametric-counts")


@pytest.mark.parametrize("monad", ["exception", "identity", "powerset"])
def test_every_function_space_the_suites_build_reads_back_what_it_encodes(monkeypatch, monad):
    # apply(encode(t), x) == t[x] on each space the suites build at bound 3,
    # for its least and greatest tables and a few seeded ones; a space over a
    # saturated codomain has no radix, so it raises instead of reading back
    # a value reduced modulo the saturated size
    built = []
    fun_sem = ip.fun_sem
    monkeypatch.setattr(ip, "fun_sem", lambda *args: built.append(fun_sem(*args)) or built[-1])
    for suite in ROUND_TRIP_SUITES:
        cli.run_suite(suite, fm.ModelConfig(monad=monad, bound=3), 2024)
    monkeypatch.undo()
    rng = random.Random(monad)
    unindexed = too_long = 0
    for sem in built:
        if isinstance(sem, ip.UnindexedFunSem):
            unindexed += 1
            for call in (lambda: sem.apply(0, 0), lambda: sem.encode([0] * sem.dom.size), lambda: sem.table(0)):
                with pytest.raises(ip.OutOfBoundError, match=r"^values of .* are not indexed: its codomain has"
                                                             r" more than 2\*\*64 elements$"):
                    call()
            continue
        n, c = sem.dom.size, sem.cod.size
        if n and not c:  # no table at all
            continue
        if n > 4096:  # too long to tabulate here
            too_long += 1
            continue
        for t in [[0] * n, [c - 1] * n, *([rng.randrange(c) for _ in range(n)] for _ in range(3))]:
            f = sem.encode(t)
            assert f < sem.size or sem.size > 1 << 64
            assert [sem.apply(f, x) for x in range(n)] == t and sem.table(f) == tuple(t), sem
    assert too_long < 0.01 * len(built), too_long
    assert unindexed == (monad == "powerset")  # the sum of ROADMAP item 13, below


def _check_saturated_sum(model):
    """The encoded sum of algebra 0 (empty) and algebra 4 (3 elements): the
    family search finds its families, whose component at the free algebra on
    3 points (7 elements) has no radix to be read by, and the sum's algebra
    is out of bound, naming that component's type."""
    env = ip.type_env({}, {"A": model.algebras[0], "B": model.algebras[4]})
    ty = enc.sum_type(CSORT, TyVar(CSORT, "A"), TyVar(CSORT, "B"))
    poly = model.interp_vtype(env, ty)
    k, _, _ = model.free_algebra(3)
    comp = poly.comps[k]
    assert poly.size > 0 and comp.cod.size > 2**64
    for fam in poly.fams:
        try:
            read = comp.apply(fam[k], 0)
        except ip.OutOfBoundError:
            read = None
        assert read is None, f"{fam[k]} read as {read}"
    try:
        model.interp_ctype(env, ty)
    except ip.OutOfBoundError as exc:
        assert str(exc) == ("values of (^A -o ^X) -> (^B -o ^X) -> ^X, with ^A an algebra on 0 elements, ^B an"
                            " algebra on 3 elements, ^X an algebra on 7 elements, are not indexed: its codomain"
                            " has more than 2**64 elements")
    else:
        raise AssertionError("the sum's algebra was built")


@pytest.mark.parametrize("defect", [None, "apply reduces modulo the saturated size"])
def test_a_sum_whose_values_pass_2_64_is_out_of_bound_not_a_counterexample(monkeypatch, defect):
    # ROADMAP item 13.  Under the powerset monad at bound 3 the sum above has
    # the component (^A -o ^X) -> (^B -o ^X) -> ^X at the 7-element algebra,
    # whose codomain has more than 2**64 elements.  The family search builds
    # its values exactly; read modulo the saturated size they matched no
    # family, and encoding-props reported "family is not parametric", a
    # false counterexample
    model = pl.build_model(fm.ModelConfig(monad="powerset", bound=3), range(4))
    assert (model.algebras[0].size, model.algebras[4].size) == (0, 3)
    if defect is None:
        _check_saturated_sum(model)
        return
    monkeypatch.setattr(ip.UnindexedFunSem, "apply", ip.FunSem.apply)
    with pytest.raises(AssertionError, match="read as"):
        _check_saturated_sum(model)


def test_polymorphic_endomap_cardinality(model):
    # exhaustive family enumeration filtered by all admissible relations
    ty = parse_type("forall ^X. ^X -> ^X")
    poly = model.interp_vtype(ip.TypeEnv(), ty)
    assert poly.size == 2
    assert model.enumerate_families_naive(ip.TypeEnv(), ty) == poly.fams


def test_hom_space_matches_enumeration(model):
    alg_a = PT0
    alg_b = PT1
    env = ip.type_env({}, {"A": alg_a, "B": alg_b})
    sem = model.interp_vtype(env, parse_type("^A -o ^B"))
    assert sem.tables == tuple(fm.enumerate_homs(alg_a, alg_b, ip.ITER_CAP))


@pytest.mark.parametrize("monad", [EXC, fm.MonadSpec("exception", ("e1", "e2")), fm.MonadSpec("identity"), POW],
                         ids=["E={e}", "E={e1,e2}", "identity", "powerset"])
def test_the_model_owns_one_hom_space_per_algebra_pair(monad):
    model = ip.Model(monad, 2, range(3))
    for a in model.algebras:
        for b in model.algebras:
            tables = model._hom_tables(a, b)
            assert tables == tuple(fm.enumerate_homs(a, b, ip.ITER_CAP))
            assert model._hom_tables(a, b) is tables
            # the isomorphisms, by permutations whose inverse is a homomorphism too
            isos = [p for p in permutations(range(a.size)) if b.size == a.size
                    and fm.is_homomorphism(p, a, b)
                    and fm.is_homomorphism(tuple(p.index(y) for y in range(len(p))), b, a)]
            if isos:  # one registered algebra per class, so only from a to itself
                assert model.representative(b) == (model.alg_index(a), isos)
    # a carrier past the cap: 7^7, 8^7, 9^7 and 7^7 candidate tables
    big = fm.free_algebra(monad, 3 if monad.key == "powerset" else 7)[0]
    for _ in range(2):
        with pytest.raises(ip.OutOfBoundError, match="hom space too large"):
            model._hom_tables(big, big)


def test_an_out_of_bound_hom_space_names_what_its_free_variables_stand_for(monkeypatch):
    model = ip.Model(EXC, 2)  # built first: its algebra listing is capped at ITER_CAP too
    monkeypatch.setattr(ip, "ITER_CAP", 1)
    alg = model.algebras[-1]
    env = ip.type_env({"B": fm.FinSet(2)}, {"P": alg, "Q": alg})
    with pytest.raises(ip.OutOfBoundError) as err:
        model.interp_vtype(env, parse_type("^P -o B -> ^Q"))
    assert str(err.value) == ("homomorphisms for ^P -o B -> ^Q, with ^P an algebra on 2 elements,"
                              " ^Q an algebra on 2 elements, B a set on 2 elements,"
                              " from the algebra on 2 elements to the algebra on 4: hom space too large: 4^1")


def test_a_lolli_past_the_cap_fails_before_any_structure_table(monkeypatch):
    # with no constants in the signature (powerset, identity) every table is a
    # candidate, so the two carriers alone put (2 -> !X) -o !X at |X| = 3, with
    # 7^49 candidate tables, out of bound before either algebra's structure
    # table is built; the message is the one recorded for the powerset
    # `--bound 3 eval` of this type, since a bound-2 model with the free
    # algebra on 3 points gives the same carriers with a smaller search of !X
    model = ip.Model(POW, 2, (3,))
    calls = []
    pointwise = model._pointwise
    monkeypatch.setattr(model, "_pointwise", lambda *args: calls.append(args) or pointwise(*args))
    bang = enc.encode_bang(TyVar(VSORT, "X"))
    with pytest.raises(ip.OutOfBoundError) as err:
        model.interp_vtype(ip.type_env({"X": fm.FinSet(3)}), Lolli(Arrow(enc.encode_num(2), bang), bang))
    recorded = (pathlib.Path(__file__).parent / "data" / "eval_powerset_lolli_out_of_bound.err").read_text()
    assert f"out of bound: {err.value}\n" == recorded
    assert calls == []


@pytest.mark.parametrize("monad", [EXC, POW, fm.MonadSpec("identity")], ids=["exception", "powerset", "identity"])
def test_preimages_match_their_definition(monad):
    # the one preimage builder, on the -> domain between every two registered
    # sets and the -o domain between every two registered algebras of a
    # bound-2 model, an empty domain and an empty codomain among them
    model = ip.Model(monad, 2)
    sems = [model.interp_vtype(ip.type_env({"A": a, "B": b}), parse_type("A -> B")) for a in model.sets for b in model.sets]
    sems += [model.interp_vtype(ip.type_env({}, {"P": p, "Q": q}), parse_type("^P -o ^Q"))
             for p in model.algebras for q in model.algebras]
    assert any(sem.dom.size == 0 for sem in sems) and any(sem.cod.size == 0 < sem.dom.size for sem in sems)
    assert any(isinstance(sem, ip.HomSem) for sem in sems)
    for sem in sems:
        assert ip.preimages(sem) == [
            [fm.mask_of((h for h in range(sem.size) if sem.table(h)[y] == c), sem.size) for c in range(sem.cod.size)]
            for y in range(sem.dom.size)
        ]


def test_carrier_agrees_with_set_interpretation(model):
    env = ip.type_env({"B": fm.FinSet(2)}, {"P": PT0, "Q": PT1})
    battery = [
        parse_type("^P"),
        parse_type("B -> ^P"),
        parse_type("B -> B -> ^Q"),
        parse_type("forall X. ^P"),
        parse_type("forall ^X. ^X -> ^X"),
        enc.encode_bang(TyVar(VSORT, "B")),
        enc.sum_type(CSORT, TyVar(CSORT, "P"), TyVar(CSORT, "Q")),
    ]
    for ty in battery:
        alg = model.interp_ctype(env, ty)
        sem = model.interp_vtype(env, ty)
        assert alg.size == sem.size


def test_pointwise_exception_structure(model):
    env = ip.type_env({"B": fm.FinSet(2)}, {"P": PT1})
    ty = parse_type("B -> ^P")
    alg = model.interp_ctype(env, ty)
    sem = model.interp_vtype(env, ty)
    raise_table = sem.table(alg.ops[0][0])
    assert raise_table == (1, 1)  # constantly the codomain's distinguished point


def test_pointwise_powerset_structure():
    pmodel = ip.Model(POW, 2)
    lattice = [a for a in pmodel.algebras if a.size == 2][0]
    env = ip.type_env({"B": fm.FinSet(2)}, {"P": lattice})
    for src in ("B -> ^P", "forall X. X -> ^P"):
        alg = pmodel.interp_ctype(env, parse_type(src))
        sem = pmodel.interp_vtype(env, parse_type(src))

        def tables(f):  # the table of f at every registered set
            if isinstance(sem, ip.PolySem):
                return [comp.table(c) for comp, c in zip(sem.comps, sem.fams[f])]
            return [sem.table(f)]

        for f in range(sem.size):
            for g in range(sem.size):
                assert tables(alg.op(0, (f, g))) == [
                    tuple(lattice.op(0, (x, y)) for x, y in zip(tf, tg))
                    for tf, tg in zip(tables(f), tables(g))
                ]


def test_relation_clause_for_variables(model):
    r = (0b10, 0)  # {(0, 1)}
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(
        ip.VSORT, "X", fm.FinSet(2), fm.FinSet(2), r
    )
    view = model.interp_rel(rho, TyVar(VSORT, "X"))
    assert view.rows() == r
    assert view.pairs() == [(0, 1)]
    assert ip.AtomRel(TyVar(VSORT, "X"), view.left, view.right, r).rows() is r  # stored as given


def test_identity_extension_on_sample_types(model):
    env = ip.type_env({"B": fm.FinSet(2)}, {"P": model.algebras[1]})
    for src in ["B -> B", "B -> ^P", "^P -o ^P", "forall X. X -> X", "forall ^X. ^X -> ^X"]:
        ty = parse_type(src)
        view = model.interp_rel(ip.diag_relenv(env), ty)
        n = model.interp_vtype(env, ty).size
        assert view.rows() == fm.diagonal(n)


def test_graph_relation_on_endomaps(model):
    # (g1, g2) related in [[X -> X]] at Graph(f) iff g2 . f = f . g1,
    # checked against the direct unfolding
    a = fm.FinSet(2)
    for f in product(range(2), repeat=2):
        graph = fm.rows_of(((x, f[x]) for x in range(2)), 2)
        rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(ip.VSORT, "X", a, a, graph)
        view = model.interp_rel(rho, parse_type("X -> X"))
        sem = model.interp_vtype(ip.type_env({"X": a}), parse_type("X -> X"))
        for g1 in range(sem.size):
            for g2 in range(sem.size):
                want = all(
                    sem.apply(g2, f[x]) == f[sem.apply(g1, x)] for x in range(2)
                )
                assert view.contains(g1, g2) == want


def test_materialized_relation_matches_view(model):
    env = ip.type_env({"B": fm.FinSet(2)})
    view = model.interp_rel(ip.diag_relenv(env), parse_type("B -> B"))
    assert view.pairs() == [(i, i) for i in range(4)]
    assert all(view.contains(f, g) == (f == g) for f in range(4) for g in range(4))


def test_identity_function_denotation(model):
    env = ip.type_env({"B": fm.FinSet(3)})
    sem, val = model._eval(parse_term("fun x:B => x"))(env, {})
    assert sem is model.interp_vtype(env, parse_type("B -> B"))
    assert sem.table(val) == (0, 1, 2)


def test_an_evaluator_synthesizes_once_however_often_it_runs(free_model, monkeypatch):
    gamma = (("t", TyVar(VSORT, "A")),)
    bang = enc.elaborate_term(parse_term("bang t"), gamma=gamma)
    synth, calls = tc.synth, []
    monkeypatch.setattr(tc, "synth", lambda *args: calls.append(args) or synth(*args))
    run = free_model._eval(bang, gamma)
    assert len(calls) == 1
    for size in (1, 2):
        for t in range(size):
            run(ip.type_env({"A": fm.FinSet(size)}), {"t": t})
    assert len(calls) == 1


def test_thunk_applies_the_continuation(free_model):
    # [[bang t]](B)(f) = f([[t]])
    model = free_model
    gamma = (("t", TyVar(VSORT, "A")),)
    bang = enc.elaborate_term(parse_term("bang t"), gamma=gamma)
    env = ip.type_env({"A": fm.FinSet(2)})
    poly = model.interp_vtype(env, enc.encode_bang(TyVar(VSORT, "A")))
    for tval in range(2):
        _, fam = model._eval(bang, gamma)(env, {"t": tval})
        for k, alg in enumerate(model.algebras):
            comp = poly.comps[k]
            for f in range(comp.dom.size):
                assert comp.apply(poly.fams[fam][k], f) == comp.dom.apply(f, tval)


def test_the_handler_family_is_parametric_by_definition_iff_the_search_lists_it():
    # related to itself under the diagonal, the check verify_handler runs,
    # against membership in the searched families (on a model of its own), for
    # the handler's family and for every tuple that differs from it in one
    # component
    searched, defined = ip.Model(EXC, 2, range(3)), ip.Model(EXC, 2, range(3))
    scheme = defined.constants["handle^e"]
    listed = set(searched.interp_vtype(ip.TypeEnv(), scheme).fams)
    assert len(listed) == 12
    comps, fam = defined.constant_family("handle^e")
    parametric = defined.related_families(ip.diag_relenv(ip.TypeEnv()), scheme)
    tuples = [fam] + [fam[:i] + (c,) + fam[i + 1:]
                      for i, comp in enumerate(comps) for c in range(comp.size) if c != fam[i]]
    assert len(tuples) == 1 + 6567
    assert [parametric(t, t) for t in tuples] == [t in listed for t in tuples]
    assert fam in listed


def test_handler_case_split(free_model):
    model = free_model
    val = model.constant_value("handle^e")
    scheme = model.constants["handle^e"]
    poly = model.interp_vtype(ip.TypeEnv(), scheme)
    i0, i1 = model.two_values()
    for a in (0, 1, 2):
        comp = poly.comps[a]
        to_t, from_t = model.bang_bridge(a)
        ta = a + 1
        for p in range(ta):
            for q in range(ta):
                table = [0, 0]
                table[i0], table[i1] = from_t[p], from_t[q]
                u = comp.dom.encode(table)
                got = to_t[comp.apply(poly.fams[val][a], u)]
                assert got == (q if p == a else p)  # index a is the raised exception


def test_raise_constant_is_the_raise_family(free_model):
    model = free_model
    val = model.constant_value("raise^e")
    scheme = model.constants["raise^e"]
    poly = model.interp_vtype(ip.TypeEnv(), scheme)
    assert poly.fams[val] == tuple(alg.ops[0][0] for alg in model.algebras)


def test_or_constant_is_the_join_family():
    pmodel = ip.Model(POW, 2, range(3))
    val = pmodel.constant_value("or")
    scheme = pmodel.constants["or"]
    poly = pmodel.interp_vtype(ip.TypeEnv(), scheme)
    for k, alg in enumerate(pmodel.algebras):
        comp = poly.comps[k]
        for x in range(alg.size):
            inner = comp.apply(poly.fams[val][k], x)
            for y in range(alg.size):
                assert comp.cod.apply(inner, y) == alg.op(0, (x, y))


# -- transport and projection ------------------------------------------------


def test_transport_identity_is_identity(model):
    env = ip.type_env({"X": fm.FinSet(2)})
    mover = model.transport(parse_type("X -> X"), (ip.VSORT, "X"), env, env, (0, 1))
    for v in range(4):
        assert mover(v) == v


def test_transport_composes(model):
    a = fm.FinSet(2)
    env = ip.type_env({"X": a})
    i = (1, 0)
    j = (1, 0)
    ty = parse_type("X -> X")
    mv_i = model.transport(ty, (ip.VSORT, "X"), env, env, i)
    mv_j = model.transport(ty, (ip.VSORT, "X"), env, env, j)
    composed = tuple(j[i[x]] for x in range(2))
    mv_ji = model.transport(ty, (ip.VSORT, "X"), env, env, composed)
    for v in range(4):
        assert mv_ji(v) == mv_j(mv_i(v))


def test_transport_on_arrows_is_conjugation(model):
    a = fm.FinSet(2)
    env = ip.type_env({"X": a})
    swap = (1, 0)
    ty = parse_type("X -> X")
    sem = model.interp_vtype(env, ty)
    mover = model.transport(ty, (ip.VSORT, "X"), env, env, swap)
    for v in range(4):
        table = sem.table(v)
        conj = tuple(swap[table[swap[y]]] for y in range(2))  # i . f . i^-1
        assert sem.table(mover(v)) == conj


def test_transport_preserves_structure_on_homs(model):
    alg1, alg2 = PT0, PT1
    env1 = ip.type_env({}, {"P": alg1})
    env2 = ip.type_env({}, {"P": alg2})
    iso = (1, 0)  # swaps the distinguished points
    ty = parse_type("^P -o ^P")
    mover = model.transport(ty, (ip.CSORT, "P"), env1, env2, iso)
    src = model.interp_vtype(env1, ty)
    dst = model.interp_vtype(env2, ty)
    for h in range(src.size):
        assert dst.table(mover(h)) == tuple(
            iso[src.table(h)[iso[x]]] for x in range(2)
        )


def test_projection_at_registered_object_is_direct(free_model):
    model = free_model
    term = parse_term("Fun ^X => fun x:^X => x")
    j = Judgment((), None, term)
    poly, fam = model._eval(term)(ip.TypeEnv(), {})
    assert poly is model.interp_vtype(ip.TypeEnv(), tc.typecheck(j))
    for k, alg in enumerate(model.algebras):
        got = model.project_poly(poly, fam, alg, "X", parse_type("^X -> ^X"), ip.TypeEnv())
        assert got == poly.fams[fam][k]


def test_projection_independent_of_isomorphism(free_model):
    # a copy of the registered free algebra on 2 points with its point moved
    # is isomorphic, but not equal, to it, along two isomorphisms; both must
    # give the same result
    model = free_model
    copy = fm.Alg(EXC, 3, ((0,),))
    assert model.alg_index(copy) is None
    idx, isos = model.representative(copy)
    assert idx == model.free_algebra(2)[0] and len(isos) == 2
    con = model.constant_value("raise^e")
    scheme = model.constants["raise^e"]
    poly = model.interp_vtype(ip.TypeEnv(), scheme)
    got = model.project_poly(poly, con, copy, "X", TyVar(CSORT, "X"), ip.TypeEnv())
    assert got == copy.ops[0][0]


def test_projection_out_of_bound(model):
    term = parse_term("Fun X => fun x:X => x")
    j = Judgment((), None, term)
    poly, fam = model._eval(term)(ip.TypeEnv(), {})
    assert poly is model.interp_vtype(ip.TypeEnv(), tc.typecheck(j))
    with pytest.raises(ip.OutOfBoundError):
        model.project_poly(poly, fam, 7, "X", parse_type("X -> X"), ip.TypeEnv())


def test_projection_from_polymorphic_computation_is_homomorphism(free_model):
    model = free_model
    ty = parse_type("forall X. X -> ^P")
    env = ip.type_env({}, {"P": model.algebras[1]})
    alg = model.interp_ctype(env, ty)
    sem = model.interp_vtype(env, ty)
    for k, target in enumerate(model.sets):
        comp_alg = model.interp_ctype(
            env.set(ip.VSORT, "X", target), parse_type("X -> ^P")
        )
        table = [sem.fams[f][k] for f in range(sem.size)]
        assert fm.is_homomorphism(table, alg, comp_alg)


# -- semantic substitution and opposite-relation properties -------------------


def test_semantic_substitution(model):
    from polyeff.kernel import subst_type

    env = ip.type_env({"B": fm.FinSet(2)}, {"P": model.algebras[1]})
    cases = [
        (parse_type("X -> X"), TyVar(VSORT, "X"), parse_type("B -> B")),
        (parse_type("X -> ^P"), TyVar(VSORT, "X"), parse_type("B -> B")),
        (parse_type("forall Y. Y -> X"), TyVar(VSORT, "X"), TyVar(VSORT, "B")),
        (parse_type("^Q -o ^P"), TyVar(CSORT, "Q"), parse_type("B -> ^P")),
        (parse_type("forall ^Z. ^Z -> ^Q"), TyVar(CSORT, "Q"), parse_type("B -> ^P")),
    ]
    for body, var, arg in cases:
        direct = model.interp_vtype(env, subst_type(body, var, arg))
        if var.sort == VSORT:
            inner = env.set(ip.VSORT, var.name, fm.FinSet(model.interp_vtype(env, arg).size))
        else:
            inner = env.set(ip.CSORT, var.name, model.interp_ctype(env, arg))
        indirect = model.interp_vtype(inner, body)
        assert direct.size == indirect.size
        # and the relational layer agrees
        rho = ip.diag_relenv(env)
        arg_rel = model.interp_rel(rho, arg)
        sort = var.sort
        left = model.interp_ctype(env, arg) if sort == ip.CSORT else fm.FinSet(arg_rel.left.size)
        rho_inner = rho.set(sort, var.name, left, left, arg_rel.rows())
        assert (
            model.interp_rel(rho, subst_type(body, var, arg)).rows()
            == model.interp_rel(rho_inner, body).rows()
        )


def test_opposite_relation_property(model):
    env = ip.type_env({"B": fm.FinSet(2)}, {"P": PT0})
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    rho = rho.set(ip.VSORT, "B", fm.FinSet(2), fm.FinSet(2), (0b10, 0b10))  # {(0, 1), (1, 1)}
    rho = rho.set(ip.CSORT, "P", PT0, PT1, (0b10, 0b01))
    op = ip.RelEnv(
        rho.rho2, rho.rho1,
        tuple((k, fm.rows_of(((y, x) for x, y in fm.rel_pairs(r)), 2)) for k, r in rho.rels),
    )
    for src in ["B -> B", "B -> ^P", "^P -o ^P", "forall X. X -> B"]:
        ty = parse_type(src)
        direct = model.interp_rel(op, ty).pairs()
        flipped = sorted((y, x) for x, y in model.interp_rel(rho, ty).pairs())
        assert direct == flipped


def test_env_must_cover_variables(model):
    with pytest.raises(ip.InterpError, match="no value for 'x'"):
        model._eval(Var("x"), (("x", TyVar(VSORT, "B")),))(ip.type_env({"B": fm.FinSet(2)}), {})


def test_linear_lambda_must_be_homomorphism(free_model):
    # interpreting a linear lambda checks membership among structure maps;
    # a stoup-typed body always passes
    model = free_model
    j = Judgment((), None, parse_term("lfun x:^A => x"))
    env = ip.type_env({}, {"A": model.algebras[1]})
    sem, val = model._eval(j.subject)(env, {})
    assert sem is model.interp_vtype(env, tc.typecheck(j))
    assert sem.table(val) == (0, 1)


def test_value_dump_shapes(free_model):
    model = free_model
    j = Judgment((), None, parse_term("fun x:B => x"))
    ty = tc.typecheck(j)
    env = ip.type_env({"B": fm.FinSet(2)})
    sem, val = model._eval(j.subject)(env, {})
    assert sem is model.interp_vtype(env, ty)
    assert ip.decode_value(model, sem, val) == [0, 1]
    assert ip.semset_to_json(model, sem) == {
        "kind": "functions", "size": 4,
        "dom": {"kind": "set", "size": 2}, "cod": {"kind": "set", "size": 2},
    }


def test_transport_graph_is_the_graph_relation(model):
    # the canonical bijection induced by an environment isomorphism is the
    # unique function whose graph is the relational interpretation at the
    # graph environment; where X is not free, under a binder that shadows it
    # too, the mover is the identity
    a = fm.FinSet(2)
    for iso in [(0, 1), (1, 0)]:
        for src in ["X -> X", "X -> (X -> X)", "forall Y. Y -> X", "forall Y. Y -> Y", "X -> forall X. X -> X"]:
            ty = parse_type(src)
            env = ip.type_env({"X": a})
            mover = model.transport(ty, (ip.VSORT, "X"), env, env, iso)
            graph = fm.rows_of(((x, iso[x]) for x in range(2)), 2)
            rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(ip.VSORT, "X", a, a, graph)
            view = model.interp_rel(rho, ty)
            n = model.interp_vtype(env, ty).size
            assert view.pairs() == [(v, mover(v)) for v in range(n)]
            if src == "forall Y. Y -> Y":
                assert all(mover(v) == v for v in range(n))


def test_transport_graph_on_algebra_isomorphisms(model):
    alg1, alg2 = PT0, PT1
    iso = (1, 0)
    for src in ["^P -o ^P", "B -> ^P"]:
        ty = parse_type(src)
        env1 = ip.type_env({"B": fm.FinSet(2)}, {"P": alg1})
        env2 = ip.type_env({"B": fm.FinSet(2)}, {"P": alg2})
        mover = model.transport(ty, (ip.CSORT, "P"), env1, env2, iso)
        graph = fm.rows_of(((x, iso[x]) for x in range(2)), 2)
        rho = ip.RelEnv(env1, env2, ())
        rho = rho.set(ip.VSORT, "B", fm.FinSet(2), fm.FinSet(2), fm.diagonal(2))
        rho = rho.set(ip.CSORT, "P", alg1, alg2, graph)
        view = model.interp_rel(rho, ty)
        n = model.interp_vtype(env1, ty).size
        assert view.pairs() == [(v, mover(v)) for v in range(n)]


def test_non_parametric_families_are_rejected(model):
    poly = model.interp_vtype(ip.TypeEnv(), parse_type("forall ^X. ^X -> ^X"))
    junk = None
    for candidate in product(*(range(c.size) for c in poly.comps)):
        if candidate not in poly.fams:
            junk = candidate
            break
    assert junk is not None
    with pytest.raises(ip.InterpError):
        poly.encode(junk)


def test_hom_encoding_rejects_non_homomorphisms(model):
    env = ip.type_env({}, {"P": PT0, "Q": PT1})
    sem = model.interp_vtype(env, parse_type("^P -o ^Q"))
    non_hom = (0, 0)  # must send the point of P (0) to the point of Q (1)
    assert non_hom not in sem.tables
    with pytest.raises(ip.InterpError):
        sem.encode(non_hom)


# -- the family search --------------------------------------------------------


@given(
    st.lists(st.integers(0, 3), max_size=4),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
            max_size=24),
)
def test_pairwise_search_matches_product_filter(sizes, unrelated):
    def ok(i, j, u, v):
        return (i, j, u, v) not in unrelated

    k = len(sizes)
    brute = tuple(t for t in product(*(range(n) for n in sizes))
                  if all(ok(i, j, t[i], t[j]) for i in range(k) for j in range(k)))
    assert ip.pairwise_search(sizes, ok) == brute
    # a candidate source is re-tested, so one that returns too much is harmless
    assert ip.pairwise_search(sizes, ok, lambda i: range(sizes[i])) == brute


def test_pairwise_search_ends_where_the_partial_assignments_run_out():
    # every value is related to itself, but no value of position 0 to one of
    # position 1: the search ends there with no tuple, so a third position
    # set aside past the cap decides nothing
    def ok(i, j, u, v):
        return {i, j} != {0, 1}

    sizes = [2, 3, 4]
    brute = tuple(t for t in product(*(range(n) for n in sizes))
                  if all(ok(i, j, t[i], t[j]) for i in range(3) for j in range(3)))
    assert ip.pairwise_search(sizes, ok) == brute == ()
    assert ip.pairwise_search([2, 3, ip.ITER_CAP + 1], ok) == ()


def test_pairwise_search_raises_only_at_a_reached_position():
    def ok(i, j, u, v):
        return True

    with pytest.raises(ip.OutOfBoundError):
        ip.pairwise_search([2, ip.ITER_CAP + 1], ok)
    # an empty domain ends the search before the oversized one is reached
    assert ip.pairwise_search([0, ip.ITER_CAP + 1], ok) == ()
    assert ip.pairwise_search([], ok) == ((),)
    # a position listed past the cap is set aside: a larger position
    # generated with no candidate still decides the search
    sizes = [ip.ITER_CAP + 1, ip.ITER_CAP + 2]
    assert ip.pairwise_search(sizes, ok, lambda i: [] if i == 1 else None) == ()
    with pytest.raises(ip.OutOfBoundError, match="component 0 has"):
        ip.pairwise_search(sizes, ok, lambda i: [0] if i == 1 else None)

    # and so is a position whose source raises
    def source(i, rest):
        if i == 0:
            raise ip.OutOfBoundError("too many tables")
        return rest

    assert ip.pairwise_search([2, 3], ok, lambda i: source(i, [])) == ()
    with pytest.raises(ip.OutOfBoundError, match="too many tables"):
        ip.pairwise_search([2, 3], ok, lambda i: source(i, [1]))


def test_structure_table_past_the_cap_names_type_operation_and_size():
    model = ip.Model(POW, 3)
    alg = next(a for a in model.algebras if a.size == 3)
    env = ip.type_env({"A": fm.FinSet(3)}, {"X": alg})
    with pytest.raises(ip.OutOfBoundError) as exc:
        model.interp_ctype(env, parse_type("A -> A -> ^X"))
    assert str(exc.value) == ("structure table of A -> A -> ^X too large: operation or of arity 2"
                              " needs 19683^2 entries, more than 262144")


def test_naive_oracle_with_an_empty_component_lists_no_other():
    # components of sizes 0, 1 and 2^64: no family, and the 2^64 values of
    # the last component are never listed
    model = ip.Model(EXC, 2)
    env = ip.type_env({"Y": fm.FinSet(2)})
    ty = parse_type("forall X. ((X -> Y) -> Y) -> (X -> Y) -> X")
    assert model.enumerate_families_naive(env, ty) == () == model.interp_vtype(env, ty).fams


def product_filter(model, env, ty):
    """The reference oracle: list the whole component product, then keep
    the tuples whose every pair is related under every admissible relation."""
    sort = ty.sort
    comps = [model.interp_vtype(env.set(sort, ty.binder, o), ty.body) for o in model.objects(sort)]
    related = cache(model.every_relation(ip.diag_relenv(env), sort, ty.binder, ty.body))
    k = len(comps)
    return tuple(fam for fam in product(*(range(c.size) for c in comps))
                 if all(related(i, j, fam[i], fam[j]) for i in range(k) for j in range(k)))


@pytest.mark.parametrize("monad, bound, arities", [
    (EXC, 2, (0, 1, 2)),
    (fm.MonadSpec("exception", ("e1", "e2")), 2, (0, 1, 2)),
    (POW, 2, (0, 1, 2)),
    (fm.MonadSpec("identity"), 2, (0, 1, 2)),
    (fm.MonadSpec("exception", ("e1", "e2", "e3")), 2, (0, 1)),
    (EXC, 3, (0, 1)),
], ids=["E={e}", "E={e1,e2}", "powerset", "identity", "E={e1,e2,e3}", "E={e},bound=3"])
def test_naive_oracle_keeps_the_product_filters_families_in_order(monad, bound, arities):
    # testing each pair once both of its positions are fixed keeps exactly
    # the tuples the full product filter keeps, in lexicographic order
    model = ip.Model(monad, bound)
    for n in arities:
        ty = enc.nary_op_type(n)
        assert model.enumerate_families_naive(ip.TypeEnv(), ty) == product_filter(model, ip.TypeEnv(), ty), n


def test_naive_oracle_tests_each_pair_both_ways():
    # a planted rule that rejects one (i, j, u, v) with i > j only: the oracle
    # meets it only through the converse test of the pair (j, i), and must
    # drop the same families as the full filter
    model = ip.Model(fm.MonadSpec("exception", ("e1", "e2")), 2)
    ty = enc.nary_op_type(2)
    fams = model.enumerate_families_naive(ip.TypeEnv(), ty)
    u, v = fams[-1][1], fams[-1][0]
    decide = model.every_relation

    def every_relation(*args):
        related = decide(*args)
        return lambda i, j, x, y: (i, j, x, y) != (1, 0, u, v) and related(i, j, x, y)

    model.every_relation = every_relation
    kept = tuple(fam for fam in fams if (fam[1], fam[0]) != (u, v))
    assert len(fams) > len(kept) > 0
    assert model.enumerate_families_naive(ip.TypeEnv(), ty) == kept == product_filter(model, ip.TypeEnv(), ty)


def test_naive_oracle_cap_is_on_the_product_size():
    # at bound 4, over one algebra per size 1 to 4, the 2-ary operations have
    # 1352605460594688 candidate tuples
    model = ip.Model(EXC, 4)
    with pytest.raises(ip.OutOfBoundError) as exc:
        model.enumerate_families_naive(ip.TypeEnv(), enc.nary_op_type(2))
    assert str(exc.value) == "naive family space too large: 1352605460594688"


def test_naive_oracle_on_the_identity_extension_battery():
    # the naive product filter (every admissible relation), the search with
    # generated self-related tables and the search that lists every table
    # agree on every quantified type of the battery, in every environment of
    # the suite; the encoded products and sums at |X| = 2 filter 65536
    # tuples each
    gen, listing = ip.Model(EXC, 2), ip.Model(EXC, 2)
    calls = []  # (whether the body is positive, size of the generated component or None, whether least links fed it)
    decide, least, listed = gen.relatedness, gen.least_links, listing.relatedness

    def relatedness(rho, sort, binder, body):
        related, tables = decide(rho, sort, binder, body)

        def generate(i):
            fed = []
            gen.least_links = lambda *args: fed.append(least(*args)) or fed[-1]
            try:
                got = tables(i)
            finally:
                gen.least_links = least
            size = None if got is None else gen.interp_vtype(rho.rho1.set(sort, binder, gen.objects(sort)[i]), body).size
            calls.append((ip.positive_args(sort, binder, body) is not None, size, bool(fed) and fed[-1] is not None))
            return got

        return related, generate

    gen.relatedness = relatedness
    listing.relatedness = lambda *args: (listed(*args)[0], lambda i: None)
    envs = [ip.type_env({"X": x, "Y": fm.FinSet(2)}, {"P": p, "Q": gen.algebras[0]})
            for x in gen.sets[1:3] for p in gen.algebras[:2]]
    compared = 0
    for ty in pl.identity_extension_battery():
        if not isinstance(ty, Forall):
            continue
        for env in envs:
            fams = gen.interp_vtype(env, ty).fams
            assert gen.enumerate_families_naive(env, ty) == fams == listing.interp_vtype(env, ty).fams, ty
            compared += 1
    assert compared == 56
    # every generated component comes from least links, the 2^16-table
    # components of the encoded product and sum at |X| = 2 among them, and
    # exactly the positive bodies' components are generated
    assert [size for _, size, _ in calls].count(65536) == 2
    assert all(from_least for _, size, from_least in calls if size is not None)
    assert {(positive, size is not None) for positive, size, _ in calls} == {(True, True), (False, False)}


@pytest.mark.parametrize("sort, binder, src, chains", [
    (CSORT, "X", "^X", []),
    (CSORT, "X", "^X -> ^X -> ^X", [[], []]),
    (CSORT, "X", "(A -> ^X) -> ^X", [["A"]]),
    (VSORT, "X1", "(X -> Y -> X1) -> X1", [["X", "Y"]]),
    (VSORT, "X", "A -> (B -> X) -> X", [None, ["B"]]),
    (VSORT, "X", "(X -> A) -> X", None),
    (VSORT, "X", "(X -> X) -> X", None),
    (CSORT, "X", "(^X -> ^X) -> ^X", None),
    (CSORT, "X", "(^X -o ^X) -> ^X", None),
    (VSORT, "X", "X -> A", None),
    (CSORT, "X", "(^A -o ^X) -> ^X", [["^A"]]),
    (CSORT, "X", "(Y -> ^A -o ^X) -> ^X", [["Y", "^A"]]),
    (CSORT, "X", "^A -o ^X", None),
])
def test_positivity_classifier(sort, binder, src, chains):
    # a positive body ends in its binder, and each argument is binder-free
    # (None) or a chain of binder-free types ending in the binder, through
    # -> and -o alike; the body's own chain is -> only
    args = ip.positive_args(sort, binder, parse_type(src))
    if chains is None:
        assert args is None
        return
    assert [None if es is None else [str(e) for e in es] for _, es in args] == chains


def _positive_bodies(x):
    """``D1 -> ... -> Dn -> x`` with 1 <= n <= 2, each ``Dk`` binder-free over
    ``Y`` and ``^Q`` or a chain of at most two such types ending in ``x``,
    whose links may be ``-o`` where both sides are computation types."""
    def chain(links):
        ty = x
        for d, linear in reversed(links):
            lolli = linear and classify_type(d) is classify_type(ty) is Kind.COMPUTATION
            ty = (Lolli if lolli else Arrow)(d, ty)
        return ty

    y, q = TyVar(VSORT, "Y"), TyVar(CSORT, "Q")
    free = st.sampled_from([y, q, Arrow(y, q), Arrow(q, y)])
    link = st.one_of(st.tuples(free, st.just(False)), st.tuples(st.sampled_from([q, Arrow(y, q)]), st.just(True)))
    arg = st.one_of(free, st.lists(link, max_size=2).map(chain))
    return st.lists(arg, min_size=1, max_size=2).map(lambda doms: chain([(d, False) for d in doms]))


@pytest.fixture(scope="module")
def three_models():
    return [ip.Model(EXC, 2), ip.Model(POW, 2), ip.Model(fm.MonadSpec("identity"), 2)]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_least_relations_match_every_relation(three_models, data):
    # on random positive bodies, with random relations on the other
    # variables, the least-relation source and the all-relations source give
    # the same relatedness between any two objects and the same self-related
    # tables
    m = data.draw(st.sampled_from(three_models))
    sort, binder = data.draw(st.sampled_from([(VSORT, "X"), (CSORT, "P")]))
    body = data.draw(_positive_bodies(TyVar(VSORT, binder) if sort == VSORT else TyVar(CSORT, binder)))
    same = data.draw(st.booleans())  # both sides bind Y and ^Q to the same objects
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    for other, name in ((VSORT, "Y"), (CSORT, "Q")):
        objs = m.objects(other)
        k = data.draw(st.integers(0, len(objs) - 1))
        l = k if same else data.draw(st.integers(0, len(objs) - 1))
        rho = rho.set(other, name, objs[k], objs[l], data.draw(st.sampled_from(m.rels_for_pair(other, k, l))))
    objs = m.objects(sort)
    i, j = data.draw(st.integers(0, len(objs) - 1)), data.draw(st.integers(0, len(objs) - 1))
    try:
        left = m.interp_vtype(rho.rho1.set(sort, binder, objs[i]), body)
        right = m.interp_vtype(rho.rho2.set(sort, binder, objs[j]), body)
    except ip.OutOfBoundError:
        assume(False)
    assume(left.size <= 4096 and right.size <= 4096)
    args = ip.positive_args(sort, binder, body)
    assert m.least_links(rho, sort, binder, args, i, j) is not None
    event(f"{len(args)} arguments, {sum(es is not None for _, es in args)} chains,"
          f" {sum('-o' in str(d) for d, _ in args)} through -o")
    least, tables = m.relatedness(rho, sort, binder, body)
    every = m.every_relation(rho, sort, binder, body)
    us = data.draw(st.lists(st.integers(0, left.size - 1), min_size=1, max_size=6)) if left.size else []
    vs = data.draw(st.lists(st.integers(0, right.size - 1), min_size=1, max_size=6)) if right.size else []
    for u in us:
        for v in vs:
            assert least(i, j, u, v) == every(i, j, u, v), (u, v)
    if same and left.size <= 512:
        assert tables(i) == [c for c in range(left.size) if every(i, i, c, c)]


@pytest.mark.parametrize("sort, binder, src, signs", [
    (VSORT, "X", "(X -> Y) -> Y", {1}),  # two flips
    (VSORT, "X", "X -> Y", {-1}),
    (CSORT, "X", "^X -o ^X", {1, -1}),
    (VSORT, "X", "forall X. X", set()),  # shadowed
    (VSORT, "X", "forall Y. (forall Z. (Z -> X) -> Y) -> Y", {1}),
    (VSORT, "Z", "(Z -> X) -> Y", {1}),
    (CSORT, "X", "X -> ^X", {1}),  # the set variable X is another variable
])
def test_binder_signs(sort, binder, src, signs):
    # -> and -o flip their domain's polarity, forall keeps its body's, and a
    # forall that binds the binder again hides what it binds
    assert ip.binder_signs(sort, binder, parse_type(src)) == signs


def _polar_bodies(x):
    """``(polarity, body)``: a body in which the binder ``x`` occurs not at
    all (0), only covariantly (1), only contravariantly (-1) or both ways (2).
    Bodies are built from binder-free types over ``Y`` and ``^Q`` (one of
    them a ``forall`` that binds ``x`` again), ``->`` and ``-o``, and a nested
    ``forall ^Z`` or ``forall Z``."""
    y, q = TyVar(VSORT, "Y"), TyVar(CSORT, "Q")
    shadow = Forall(x.sort, x.name, Arrow(x, q))
    free = st.sampled_from([y, q, Arrow(y, q), shadow])

    def fn(dom, cod, linear):
        lolli = linear and classify_type(dom) is classify_type(cod) is Kind.COMPUTATION
        return (Lolli if lolli else Arrow)(dom, cod)

    def arrows(dom, cod):
        return st.builds(fn, dom, cod, st.booleans())

    def at(sign, depth):  # x occurs, and only at ``sign``
        leaf = st.just(x) if sign == 1 else arrows(st.just(x), free)
        if depth == 0:
            return leaf
        same, flip = at(sign, depth - 1), at(-sign, depth - 1)
        return st.one_of(
            leaf, arrows(free, same), arrows(flip, free), arrows(flip, same),
            flip.map(lambda b: Forall(CSORT, "Z", Arrow(b, TyVar(CSORT, "Z")))),  # forall ^Z. b -> ^Z
            same.map(lambda b: Forall(VSORT, "Z", Arrow(TyVar(VSORT, "Z"), b))),  # forall Z. Z -> b
        )

    return st.one_of(
        st.tuples(st.just(0), st.one_of(free, arrows(free, free))),
        st.tuples(st.just(1), at(1, 2)),
        st.tuples(st.just(-1), at(-1, 2)),
        st.tuples(st.just(2), st.one_of(arrows(at(1, 1), at(1, 1)), arrows(at(-1, 1), at(-1, 1)))),
    )


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_one_extreme_relation_matches_every_relation(three_models, data):
    # on random bodies of each polarity, with random relations on the other
    # variables, the least-relation search (one extreme relation, least
    # links or every relation) and the every-relation oracle give the same
    # relatedness between any two objects, and the same families
    m = data.draw(st.sampled_from(three_models))
    sort, binder = data.draw(st.sampled_from([(VSORT, "X"), (CSORT, "P")]))
    polarity, body = data.draw(_polar_bodies(TyVar(VSORT, binder) if sort == VSORT else TyVar(CSORT, binder)))
    assert ip.binder_signs(sort, binder, body) == {0: set(), 1: {1}, -1: {-1}, 2: {1, -1}}[polarity]
    event({0: "vacuous", 1: "covariant", -1: "contravariant", 2: "mixed"}[polarity])
    same = data.draw(st.booleans())  # both sides bind Y and ^Q to the same objects
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    for other, name in ((VSORT, "Y"), (CSORT, "Q")):
        objs = m.objects(other)
        k = data.draw(st.integers(0, len(objs) - 1))
        l = k if same else data.draw(st.integers(0, len(objs) - 1))
        rho = rho.set(other, name, objs[k], objs[l], data.draw(st.sampled_from(m.rels_for_pair(other, k, l))))
    objs = m.objects(sort)
    i, j = data.draw(st.integers(0, len(objs) - 1)), data.draw(st.integers(0, len(objs) - 1))
    try:
        left = m.interp_vtype(rho.rho1.set(sort, binder, objs[i]), body)
        right = m.interp_vtype(rho.rho2.set(sort, binder, objs[j]), body)
    except ip.OutOfBoundError:
        assume(False)
    assume(left.size <= 4096 and right.size <= 4096)
    least, _ = m.relatedness(rho, sort, binder, body)
    every = m.every_relation(rho, sort, binder, body)

    def some(n):  # every component of a small side, a few of a large one
        return range(n) if n <= 8 else data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))

    for u, v in product(some(left.size), some(right.size)):
        assert least(i, j, u, v) == every(i, j, u, v), (u, v)
    ty = Forall(sort, binder, body)
    try:
        comps = [m.interp_vtype(rho.rho1.set(sort, binder, o), body).size for o in objs]
    except ip.OutOfBoundError:
        return
    if prod(comps) <= 4096:
        try:  # small components can still hide a relation too large to build
            naive = m.enumerate_families_naive(rho.rho1, ty)
            fams = m.interp_vtype(rho.rho1, ty).fams
        except ip.OutOfBoundError:
            return
        assert naive == fams


def test_one_element_components_can_hide_an_out_of_bound_relation():
    # every component of this family has one element, and the codomain's
    # relation relates every pair, so the relation at (X -> Y -> ^Q) -> X,
    # whose sides have 65536 elements, is never needed
    m = ip.Model(EXC, 2)
    ty = parse_type("forall X. ((X -> Y -> ^Q) -> X) -> forall ^Z. (X -> Y) -> ^Z")
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    rho = rho.set(VSORT, "Y", m.sets[2], m.sets[0], (0, 0)).set(CSORT, "Q", m.algebras[1], m.algebras[0], (1, 0))
    assert [m.interp_vtype(rho.rho1.set(VSORT, "X", o), ty.body).size for o in m.sets] == [1, 1, 1]
    assert m.enumerate_families_naive(rho.rho1, ty) == m.interp_vtype(rho.rho1, ty).fams == ((0, 0, 0),)


def test_a_codomain_that_is_not_full_needs_the_domain_relation():
    # the same domain into a one-element W: the two functions are related
    # iff W's relation is full or the domain relation is empty, which only
    # its rows can tell
    m = ip.Model(EXC, 2)
    ty = parse_type("((X -> Y -> ^Q) -> X) -> W")
    env = ip.type_env({"X": m.sets[2], "Y": m.sets[2], "W": m.sets[1]}, {"Q": m.algebras[1]})
    full, empty = (m.interp_rel(ip.diag_relenv(env).set(VSORT, "W", m.sets[1], m.sets[1], w), ty) for w in ((1,), (0,)))
    assert (empty.left.size, empty.right.size) == (1, 1)
    assert full.contains(0, 0)
    with pytest.raises(ip.OutOfBoundError, match=r"relation at \(X -> Y -> \^Q\) -> X is too large"):
        empty.contains(0, 0)


@pytest.mark.parametrize("sort, binder, src", [
    (VSORT, "X", "Y -> ^Q"),  # vacuous
    (VSORT, "X", "Y -> X"),  # covariant only
    (VSORT, "X", "(Y -> X) -> ^Q"),  # contravariant only
    (CSORT, "P", "Y"),
    (CSORT, "P", "(^P -> Y) -> ^P"),
    (CSORT, "P", "^P -o ^Q"),
])
def test_a_one_polarity_body_never_lists_relations(monkeypatch, sort, binder, src):
    # the family search and every pair of components are decided by one
    # extreme relation, so a fall-back to every relation shows as a call
    model = ip.Model(EXC, 2)
    calls = []
    listed = model.rels_for_pair
    monkeypatch.setattr(model, "rels_for_pair", lambda *args: calls.append(args) or listed(*args))
    body = parse_type(src)
    env = ip.type_env({"Y": fm.FinSet(2)}, {"Q": model.algebras[1]})
    model.interp_vtype(env, Forall(sort, binder, body))
    rho, objs = ip.diag_relenv(env), model.objects(sort)
    related, _ = model.relatedness(rho, sort, binder, body)
    got = {}
    for i, j in product(range(len(objs)), repeat=2):
        left = model.interp_vtype(env.set(sort, binder, objs[i]), body).size
        right = model.interp_vtype(env.set(sort, binder, objs[j]), body).size
        for u, v in islice(product(range(left), range(right)), 64):
            got[i, j, u, v] = bool(related(i, j, u, v))
    assert calls == []
    # and the extreme relation is the right one
    every = model.every_relation(rho, sort, binder, body)
    assert got == {key: bool(every(*key)) for key in got}
    # a mixed body that is not positive does list them
    calls.clear()
    model.interp_vtype(env, Forall(sort, binder, parse_type(
        "(X -> X) -> Y" if sort == VSORT else "(^P -> ^P) -> Y")))
    assert calls


@pytest.mark.parametrize("sort, binder, src", [
    (VSORT, "X", "X -> (Y -> X) -> X"),
    (CSORT, "P", "^P -> ^P -> ^P"),
])
def test_each_pair_s_least_links_are_computed_once(monkeypatch, sort, binder, src):
    # a mixed positive body: the family search generates each component's
    # tables from the (i, i) links and tests every pair of components by the
    # same links, so each object pair's links are computed once
    model = ip.Model(EXC, 2)
    calls = Counter()
    least = model.least_links
    monkeypatch.setattr(model, "least_links", lambda *args: calls.update([args[-2:]]) or least(*args))
    body, env = parse_type(src), ip.type_env({"Y": fm.FinSet(2)})
    k = len(model.objects(sort))
    model.interp_vtype(env, Forall(sort, binder, body))
    assert set(calls.values()) == {1}
    assert {(i, i) for i in range(k)} <= set(calls)
    # and so does each call of relatedness, however often each pair is asked
    calls.clear()
    related, tables = model.relatedness(ip.diag_relenv(env), sort, binder, body)
    for _ in range(2):
        for i, j in product(range(k), repeat=2):
            assert tables(i) is not None
            related(i, j, 0, 0)
    assert calls == Counter(product(range(k), repeat=2))


@pytest.mark.parametrize("src", ["(^Q -o ^P) -> ^P", "(Y -> ^Q -o ^P) -> ^P", "(^Q -o Y -> ^P) -> ^Q -> ^P"])
def test_least_relations_of_lolli_arguments_match_every_relation(full_enumeration, src):
    # homomorphism arguments are read through their domain's tables, not as
    # mixed-radix digits: every pair of small components of every pair of
    # algebras is related alike by both sources, under every monad; every
    # enumerated algebra is registered, so isomorphic copies meet too
    body = parse_type(src)
    for m in [ip.Model(EXC, 2), ip.Model(POW, 2), ip.Model(fm.MonadSpec("identity"), 2)]:
        compared = 0
        for q in m.algebras:
            rho = ip.diag_relenv(ip.type_env({"Y": fm.FinSet(2)}, {"Q": q}))
            least, _ = m.relatedness(rho, CSORT, "P", body)
            every = m.every_relation(rho, CSORT, "P", body)
            for i, a in enumerate(m.algebras):
                for j, b in enumerate(m.algebras):
                    left = m.interp_vtype(rho.rho1.set(CSORT, "P", a), body).size
                    right = m.interp_vtype(rho.rho2.set(CSORT, "P", b), body).size
                    if left * right > 4096:
                        continue
                    assert m.least_links(rho, CSORT, "P", ip.positive_args(CSORT, "P", body), i, j) is not None
                    for u, v in product(range(left), range(right)):
                        assert least(i, j, u, v) == every(i, j, u, v), (m.monad, q, i, j, u, v)
                    compared += left * right
        assert compared > 100, m.monad


@pytest.mark.parametrize("src", [
    "(Y -> Y) -> X -> X",  # an argument free of X whose 4 x 4 view does not fit
    "X -> (Y -> X) -> X",  # a chain argument with 4 x 4 functions at the 2-element sets
    "X -> X -> X",  # 4 x 4 argument-tuple pairs at the 2-element sets
])
def test_least_links_past_a_lowered_cap_fall_back_to_every_relation(monkeypatch, src):
    # past a cap of 15, each mixed positive body has no least links at the
    # pair of 2-element sets, for a different reason each, so relatedness
    # tests every relation there: wherever every_relation decides a pair of
    # components, relatedness agrees with it, and wherever it is out of bound
    # so is relatedness
    body = parse_type(src)
    rho = ip.diag_relenv(ip.type_env({"Y": fm.FinSet(2)}))
    args = ip.positive_args(VSORT, "X", body)
    assert ip.Model(EXC, 2).least_links(rho, VSORT, "X", args, 2, 2) is not None
    monkeypatch.setattr(ip, "ITER_CAP", 15)
    m = ip.Model(EXC, 2)
    assert m.least_links(rho, VSORT, "X", args, 2, 2) is None
    related, _ = m.relatedness(rho, VSORT, "X", body)
    every = m.every_relation(rho, VSORT, "X", body)
    sizes = [m.interp_vtype(rho.rho1.set(VSORT, "X", s), body).size for s in m.sets]
    sample = [sorted({k for k in (0, 1, n // 2, n - 1) if 0 <= k < n}) for n in sizes]
    decided = 0
    for i, j in product(range(len(sizes)), repeat=2):
        for u, v in product(sample[i], sample[j]):
            try:
                want = every(i, j, u, v)
            except ip.OutOfBoundError:
                with pytest.raises(ip.OutOfBoundError):
                    related(i, j, u, v)
                continue
            assert bool(related(i, j, u, v)) == bool(want), (i, j, u, v)
            decided += 1
    assert decided > 0


def test_the_naive_oracle_calls_no_link_rule_and_no_memo(monkeypatch):
    # every_relation and enumerate_families_naive decide each body under
    # every relation, never through relatedness, the least links, their
    # memos or a vacuous binder's closed form, which the family search
    # reaches on the same bodies; the bodies hold no nested quantifier,
    # whose views the two searches share
    m = ip.Model(EXC, 2)
    reached = []
    for name in ("relatedness", "least_links", "_leaves", "_closure"):
        monkeypatch.setattr(m, name, lambda *args, name=name, real=getattr(m, name): reached.append(name) or real(*args))
    for name in ("_is_diagonal", "constant_families"):
        monkeypatch.setattr(ip, name, lambda *args, name=name, real=getattr(ip, name): reached.append(name) or real(*args))
    env = ip.type_env({"Y": m.sets[2]})
    types = [parse_type(src) for src in ("forall Z. (Z -> Z) -> Z", "forall ^X. ^X -> ^X -> ^X",
                                         "forall ^X. (^X -o ^X) -> ^X", "forall X. (X -> X) -> X -> X",
                                         "forall X. Y -> Y")]
    for ty in types:
        rho, objs = ip.diag_relenv(env), m.objects(ty.sort)
        every = m.every_relation(rho, ty.sort, ty.binder, ty.body)
        sizes = [m.interp_vtype(rho.rho1.set(ty.sort, ty.binder, o), ty.body).size for o in objs]
        for i, j in product(range(len(objs)), repeat=2):
            for u, v in product(range(min(sizes[i], 4)), range(min(sizes[j], 4))):
                every(i, j, u, v)
        m.enumerate_families_naive(env, ty)
    assert reached == []
    for ty in types:
        m.interp_vtype(env, ty)
    assert set(reached) == {"relatedness", "least_links", "_leaves", "_closure", "_is_diagonal", "constant_families"}


@pytest.mark.parametrize("sort, binder, src", [
    (CSORT, "X", "(^X -> ^X) -> ^X"),
    (CSORT, "X", "^X -o ^X"),
    (VSORT, "X", "(X -> X) -> X"),
    (VSORT, "X", "X -> Y"),
])
def test_self_related_tables_only_for_positive_bodies(model, sort, binder, src):
    # the one source of generated tables is the least relations of a positive
    # body; every other body's components are listed by the family search
    rho = ip.diag_relenv(ip.type_env({"Y": fm.FinSet(2)}))
    assert ip.positive_args(sort, binder, parse_type(src)) is None
    _, tables = model.relatedness(rho, sort, binder, parse_type(src))
    for i in range(len(model.objects(sort))):
        assert tables(i) is None


# -- bit-row relations against the per-pair definition -------------------------


def _related_by_definition(model, rho, ty, a, b, memo):
    """The clauses of the relational interpretation, one pair at a time:
    variables look up their relation, related functions map every related
    argument pair to related results, and related families have related
    components under every admissible relation between every two objects."""
    key = (ty, rho, a, b)
    if key not in memo:
        if isinstance(ty, TyVar):
            out = bool(rho.rel(ty.sort, ty.name)[a] >> b & 1)
        elif isinstance(ty, (Arrow, Lolli)):
            left, right = model.interp_vtype(rho.rho1, ty), model.interp_vtype(rho.rho2, ty)
            out = all(
                _related_by_definition(model, rho, ty.cod, left.apply(a, x), right.apply(b, y), memo)
                for x in range(left.dom.size) for y in range(right.dom.size)
                if _related_by_definition(model, rho, ty.dom, x, y, memo)
            )
        else:
            sort = ty.sort
            objs = model.objects(sort)
            fam_a = model.interp_vtype(rho.rho1, ty).fams[a]
            fam_b = model.interp_vtype(rho.rho2, ty).fams[b]
            out = all(
                _related_by_definition(model, rho.set(sort, ty.binder, objs[i], objs[j], q),
                                       ty.body, fam_a[i], fam_b[j], memo)
                for i in range(len(objs)) for j in range(len(objs))
                for q in model.rels_for_pair(sort, i, j)
            )
        memo[key] = out
    return memo[key]


def _value_types(depth):
    """Types over the set variables X, Y and the algebra variables ^P, ^Q."""
    atoms = st.sampled_from([TyVar(VSORT, "X"), TyVar(CSORT, "P")])
    if depth == 0:
        return atoms
    sub, comp = _value_types(depth - 1), _comp_types(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Arrow, sub, sub),
        st.builds(Lolli, comp, comp),
        st.builds(Forall, st.just(VSORT), st.just("Y"), st.builds(Arrow, st.just(TyVar(VSORT, "Y")), sub)),
        st.builds(Forall, st.just(CSORT), st.just("Q"), st.builds(Arrow, sub, st.just(TyVar(CSORT, "Q")))),
    )


def _comp_types(depth):
    atoms = st.just(TyVar(CSORT, "P"))
    if depth == 0:
        return atoms
    sub, comp = _value_types(depth - 1), _comp_types(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Arrow, sub, comp),
        st.builds(Forall, st.just(VSORT), st.just("Y"), st.builds(Arrow, st.just(TyVar(VSORT, "Y")), comp)),
    )


@st.composite
def _relenvs(draw, model):
    """X and ^P bound to a drawn pair of objects and an admissible relation."""
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    for sort, name, objs in ((VSORT, "X", model.sets[1:]), (CSORT, "P", model.algebras)):
        i = draw(st.integers(0, len(objs) - 1))
        j = draw(st.integers(0, len(objs) - 1))
        ii, jj = model.objects(sort).index(objs[i]), model.objects(sort).index(objs[j])
        rels = model.rels_for_pair(sort, ii, jj)
        rho = rho.set(sort, name, objs[i], objs[j], draw(st.sampled_from(rels)))
    return rho


def _check_view_against_definition(model, rho, ty):
    view = model._interp_rel(rho, ty)  # a fresh view, past the cache
    n, m = view.left.size, view.right.size
    memo: dict = {}
    want = frozenset((a, b) for a in range(n) for b in range(m)
                     if _related_by_definition(model, rho, ty, a, b, memo))
    if not isinstance(view, ip.AtomRel):
        assert view._rows is None
    assert frozenset((a, b) for a in range(n) for b in range(m) if view.contains(a, b)) == want
    if isinstance(view, ip.FunRel):
        assert view._rows is None  # contains read the codomain, not this view
    rows = view.rows()
    assert len(rows) == n and all(0 <= row < 1 << m for row in rows)
    assert all(bool(rows[a] >> b & 1) == ((a, b) in want) for a in range(n) for b in range(m))
    assert view.pairs() == sorted(want)


@settings(deadline=None)  # an example may run a family search on first use of its type
@given(st.data())
def test_bit_rows_match_the_per_pair_definition(model, data):
    ty = data.draw(_value_types(2))
    rho = data.draw(_relenvs(model))
    try:
        left = model.interp_vtype(rho.rho1, ty)
        right = model.interp_vtype(rho.rho2, ty)
    except ip.OutOfBoundError:
        assume(False)
    assume(left.size * right.size <= 256)
    event(type(ty).__name__)
    _check_view_against_definition(model, rho, ty)


def test_contains_reads_past_a_codomain_too_large_to_materialize(model):
    # the codomain relates 2^16-element function spaces (2^32 pairs), so
    # contains recurses into it instead of reading its rows
    ty = parse_type("X -> ((X -> X) -> X) -> X")
    a = model.sets[2]
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(VSORT, "X", a, a, (0b10, 0b10))  # {(0, 1), (1, 1)}
    view = model._interp_rel(rho, ty)
    assert not view.cod_rel.fits()
    sem = model.interp_vtype(rho.rho1, ty)
    inner = sem.cod
    memo: dict = {}
    samples = [0, 1, inner.size - 1, 12345, 40000]
    for u in samples:
        for v in samples:
            f = sem.encode([u, u])
            g = sem.encode([v, v])
            assert bool(view.contains(f, g)) == _related_by_definition(model, rho, ty, f, g, memo)
    assert view._rows is None
    with pytest.raises(ip.OutOfBoundError) as err:
        view.rows()
    assert str(err.value) == (
        "relation at X -> ((X -> X) -> X) -> X is too large to materialize:"
        " 4294967296 x 4294967296 pairs, more than ITER_CAP (400000)"
    )


@pytest.mark.parametrize("cap, src", [
    (3, "forall Y. Y -> X"),  # two families each side: 4 cells
    (3, "^P -o (X -> ^Q)"),  # 1 cell, but 16 in its codomain
    (16, "X -> (X -> X) -> X"),  # 16 x 16 cells in its codomain
])
def test_lazy_paths_under_a_lowered_cap(model, monkeypatch, cap, src):
    # past a lowered cap, views are answered pair by pair; a view that fits
    # over a codomain that does not builds its rows through contains
    monkeypatch.setattr(ip, "ITER_CAP", cap)
    a = model.sets[2]
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    rho = rho.set(VSORT, "X", a, a, (0b01, 0b11))  # {(0, 0), (1, 0), (1, 1)}
    rho = rho.set(CSORT, "P", model.algebras[0], model.algebras[0], (0b1,))
    rho = rho.set(CSORT, "Q", PT1, PT1, fm.diagonal(2))
    ty = parse_type(src)
    view = model._interp_rel(rho, ty)
    if view.fits():
        assert not view.cod_rel.fits()
        _check_view_against_definition(model, rho, ty)
        return
    memo: dict = {}
    for x in range(min(view.left.size, 6)):
        for y in range(min(view.right.size, 6)):
            assert bool(view.contains(x, y)) == _related_by_definition(model, rho, ty, x, y, memo)
    with pytest.raises(ip.OutOfBoundError):
        view.pairs()


def test_family_search_names_the_type_and_the_object_past_the_cap(free_model):
    with pytest.raises(ip.OutOfBoundError) as err:
        free_model.interp_vtype(ip.TypeEnv(), parse_type("forall ^X. (^X -> ^X) -> ^X"))
    assert str(err.value) == (
        "family search for forall ^X. (^X -> ^X) -> ^X over the registered algebras:"
        " component 2 has 7625597484987 candidates, more than ITER_CAP (400000)"
    )


# ---------------------------------------------------------------------------
# vacuous quantifiers in closed form

# vacuous quantified types, each with free variables the type environments
# range over; the last has a diagonal domain and a codomain that is not
# diagonal once the environment binds Y to more than the diagonal
VACUOUS_BATTERY = ("forall X. Y", "forall X. Y -> Y", "forall ^X. ^P", "forall X. forall Z. Z -> Z",
                   "forall X. ^P -o ^P", "forall ^X. (^P -o ^Q) -> Y", "forall X. (forall Z. Z -> Z -> Z) -> Y")


def _free_names(ty):
    return pl.env_names(free_type_vars(ty))


def _check_vacuous_families(monkeypatch, model, env, ty):
    """``_families`` on a vacuous ``ty`` against ``pairwise_search`` over
    ``relatedness`` and the naive oracle, and every view ``_is_diagonal``
    accepts on the way has diagonal rows wherever they fit."""
    accepted = []
    is_diagonal = ip._is_diagonal  # the module's, so its recursion is recorded too
    monkeypatch.setattr(ip, "_is_diagonal", lambda view: is_diagonal(view) and (accepted.append(view) or True))
    objs = model.objects(ty.sort)
    comps = [model.interp_vtype(env.set(ty.sort, ty.binder, o), ty.body) for o in objs]
    fams = model._families(env, ty, comps)
    search = ip.pairwise_search([c.size for c in comps],
                                *model.relatedness(ip.diag_relenv(env), ty.sort, ty.binder, ty.body))
    assert fams == search == model.enumerate_families_naive(env, ty), (str(ty), env)
    for view in accepted:
        if view.fits():
            assert view.rows() == fm.diagonal(view.left.size), str(view.ty)
    monkeypatch.setattr(ip, "_is_diagonal", is_diagonal)
    return fams


def _check_forall_rows(model, ty):
    """The rows of ``ty``'s ``ForallRel`` equal the k * k-test rows under every
    relation environment ``paramlab.rel_envs`` yields for its free variables."""
    for rho in islice(pl.rel_envs(model, _free_names(ty)), 40):
        view = model._interp_rel(rho, ty)  # a fresh view, past the cache
        if not view.fits():
            continue
        related = model.related_families(rho, ty)
        want = tuple(fm.mask_of((b for b, fam_b in enumerate(view.right.fams) if related(fam_a, fam_b)),
                                view.right.size) for fam_a in view.left.fams)
        assert view.rows() == want, (str(ty), rho)


def _battery_cases(model):
    for src in VACUOUS_BATTERY:
        ty = parse_type(src)
        for env in pl.type_envs(model, _free_names(ty)):
            yield env, ty


def _nested_vacuous(model, env, ty, met):
    """Into ``met``: each vacuous quantified type in ``ty``, under the environment an
    interpretation of ``ty`` in ``env`` meets it in, restricted to its free variables."""
    if isinstance(ty, (Arrow, Lolli)):
        _nested_vacuous(model, env, ty.dom, met)
        _nested_vacuous(model, env, ty.cod, met)
    elif isinstance(ty, Forall):
        if not binder_signs(ty.sort, ty.binder, ty.body):
            met.setdefault((env.restrict(free_type_var_keys(ty)), ty), None)
        for obj in model.objects(ty.sort):
            _nested_vacuous(model, env.set(ty.sort, ty.binder, obj), ty.body, met)


@pytest.mark.parametrize("monad", ["exception", "identity", "powerset"])
def test_vacuous_quantifiers_in_closed_form_match_both_oracles(monkeypatch, monad):
    # every vacuous quantified type the seed-2024 abstraction corpus meets, and
    # the battery under every type environment.  The cases are read off the
    # requests to the three interpreters, each spelling of the binders apart,
    # with the quantifiers nested in each type under every binding, since the
    # model's caches share one family search per alpha-class
    model = pl.build_model(fm.ModelConfig(monad=monad), ())
    requests = {}

    def spy(name, env_of):
        interp = getattr(model, name)

        def record(env, ty):
            for env1 in env_of(env):
                requests.setdefault((env1.restrict(free_type_var_keys(ty)), ty), None)
            return interp(env, ty)

        monkeypatch.setattr(model, name, record)

    spy("interp_vtype", lambda env: (env,))
    spy("interp_ctype", lambda env: (env,))
    spy("interp_rel", lambda rho: (rho.rho1, rho.rho2))
    assert pl.verify_abstraction(model, seed=2024).status == "verified"
    monkeypatch.undo()
    met = {}
    for env, ty in requests:
        _nested_vacuous(model, env, ty, met)
    assert len(met) > 200
    closed, rows_shared = 0, 0
    for env, ty in [*met, *_battery_cases(model)]:
        fams = _check_vacuous_families(monkeypatch, model, env, ty)
        k = len(model.objects(ty.sort))
        closed += fams == ip.constant_families(k, model.interp_vtype(env, ty.body).size)
        rho = ip.diag_relenv(env)
        view = model._interp_rel(rho, ty)
        rows_shared += view.fits() and view.rows() is model.interp_rel(rho, ty.body).rows()
    # identity extension: at the diagonal every one is closed, and its
    # ForallRel reads its body's rows
    assert closed == rows_shared == len(met) + sum(1 for _ in _battery_cases(model))
    for ty in {ty for _, ty in met} | {parse_type(src) for src in VACUOUS_BATTERY}:
        _check_forall_rows(model, ty)


def _full_relenv(env):
    # a planted relation environment that binds every variable to the full
    # relation, so a vacuous body's view need not be the diagonal
    return ip.RelEnv(env, env, tuple(sorted((key, ((1 << v.size) - 1,) * v.size) for key, v in env.items)))


@pytest.mark.parametrize("defect", [None, "ignore the codomain", "skip the diagonal test"])
def test_planted_closed_form_defects_fail_the_oracle_check(monkeypatch, defect):
    # with every atom bound to the full relation the closed form must fall
    # through to the search, which gives the oracle's families; a closed form
    # that ignores a FunRel's codomain, or skips the diagonal test, does not
    monkeypatch.setattr(ip, "diag_relenv", _full_relenv)
    model = ip.Model(EXC, 2)
    real = ip._is_diagonal
    if defect == "ignore the codomain":
        monkeypatch.setattr(ip, "_is_diagonal",
                            lambda view: ip._is_diagonal(view.dom_rel) if isinstance(view, ip.FunRel) else real(view))
    elif defect == "skip the diagonal test":
        monkeypatch.setattr(ip, "_is_diagonal", lambda view: True)
    failed = set()
    for env, ty in _battery_cases(model):
        try:
            _check_vacuous_families(monkeypatch, model, env, ty)
        except AssertionError:
            failed.add(str(ty))
    if defect is None:  # and a ForallRel between domains of other families takes the k * k tests
        assert failed == set()
        for src in ("forall X. Y", "forall ^X. ^P"):
            _check_forall_rows(model, parse_type(src))
    elif defect == "ignore the codomain":  # caught where a domain stays diagonal and Y does not
        assert "forall X. (forall Z. Z -> Z -> Z) -> Y" in failed and "forall X. Y -> Y" not in failed
    else:
        assert {"forall X. Y", "forall X. Y -> Y", "forall X. (forall Z. Z -> Z -> Z) -> Y"} <= failed


@pytest.mark.parametrize("src, count", [("forall X. ((Y -> Y) -> Y) -> Y -> Y", "4294967296"),
                                        ("forall X. (((Y -> Y) -> Y) -> Y) -> Y", "more than 2**64")])
def test_a_vacuous_binder_past_iter_cap_values_raises_the_search_message(src, count):
    # the body's relation is the diagonal at any size, but the closed form
    # lists its values only up to ITER_CAP; past it the search raises as for
    # any other body.  Listing 2**32 (or a saturated count of) constant
    # families would exhaust memory, so the type is built in a child with
    # 1 GB of address space and a time limit
    code = (
        "from polyeff import finmodel as fm, interp as ip\n"
        "from polyeff.surface import parse_type\n"
        "m = ip.Model(fm.MonadSpec('exception', ('e',)), 2)\n"
        "try:\n"
        f"    m.interp_vtype(ip.type_env({{'Y': m.sets[2]}}, {{}}), parse_type({src!r}))\n"
        "except ip.OutOfBoundError as exc:\n"
        "    print(exc)\n"
    )

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, preexec_fn=limit,
                         env={**os.environ, "PYTHONPATH": str(pathlib.Path(ip.__file__).parents[1])})
    assert (out.returncode, out.stdout) == (0, f"family search for {src} over the registered sets:"
                                               f" component 0 has {count} candidates, more than ITER_CAP (400000)\n"
                                            ), out.stderr[-2000:]


# ---------------------------------------------------------------------------
# the compiled evaluator


@pytest.fixture(scope="module")
def abstraction_model():
    return pl.build_model(fm.ModelConfig(), ())


def abstraction_environments(model, j, relenvs=40, value_envs=3, tyenvs=4, hom_envs=6):
    """``(tyenv, tmenv)`` pairs built as ``verify_abstraction`` builds them
    (with fewer value environments per relation environment): both sides
    of related value environments under each relation environment, then
    the value environments of its homomorphism check."""
    names = pl.env_names(tc._ctx_ftv(j.gamma, j.delta) | free_type_vars_term(j.subject) | free_type_vars(j.ascription))
    bindings = list(j.gamma) + ([j.delta] if j.delta is not None else [])
    out = []
    for rho in islice(pl.rel_envs(model, names), relenvs):
        try:
            pair_lists = [model.interp_rel(rho, ty).pairs() for _, ty in bindings]
        except ip.OutOfBoundError:
            continue
        for values in islice(product(*pair_lists), value_envs):
            for side, tyenv in enumerate((rho.rho1, rho.rho2)):
                out.append((tyenv, {name: v[side] for (name, _), v in zip(bindings, values)}))
    if j.delta is not None:
        for tyenv in islice(pl.type_envs(model, names), tyenvs):
            sizes = [model.interp_vtype(tyenv, ty).size for _, ty in bindings]
            for values in islice(product(*map(range, sizes)), hom_envs):
                out.append((tyenv, {name: v for (name, _), v in zip(bindings, values)}))
    return out


def _outcome(run, tyenv, tmenv):
    # any error but out-of-bound fails the test: the judgments are well typed
    try:
        return run(tyenv, dict(tmenv))
    except ip.OutOfBoundError:
        return "out-of-bound"


def test_a_compiled_judgment_runs_without_synthesizing_types(abstraction_model, monkeypatch):
    # a compile typechecks its term once, at the root, and reads every other
    # node's type off its subterms'; the closure typechecks nothing
    model = abstraction_model
    synth, calls = tc.synth, []
    monkeypatch.setattr(tc, "synth", lambda *args: calls.append(args) or synth(*args))
    gen = TermGenerator(2024, interp_safe=True)
    checked = 0
    for _ in range(30):
        j = gen.random_judgment()
        envs = abstraction_environments(model, j)
        if not envs:  # verify_abstraction evaluates nothing here either
            continue
        calls.clear()
        _, run = model._compile(j.subject, j.gamma, j.delta)
        assert len(calls) == 1
        for env in envs:
            _outcome(run, *env)
        assert len(calls) == 1
        checked += len(envs) > 1
    assert checked >= 10


@pytest.mark.parametrize("options, count", [({}, 200), ({"interp_safe": True}, 100)],
                         ids=["metatheory-corpus", "abstraction-corpus"])
def test_a_compile_returns_the_checked_type(abstraction_model, options, count):
    # built from the subterms' types, the type is the checker's own (hash-consed) object
    gen = TermGenerator(2024, **options)
    for _ in range(count):
        j = gen.random_judgment()
        ty, _ = abstraction_model._compile(j.subject, j.gamma, j.delta)
        assert ty is tc.typecheck(j, abstraction_model.constants), str(j.subject)


@pytest.mark.parametrize("term, renamed", [
    ("fun x:A => x", "fun y:A => y"),
    ("fun x:A => g x", "fun y:A => g y"),
    ("lfun x:^Q => x", "lfun y:^Q => y"),
    ("lfun x:^Q => h x", "lfun y:^Q => h y"),
])
def test_a_binder_that_shadows_a_context_variable_evaluates_as_its_renaming(free_model, term, renamed):
    model = free_model
    gamma = (("x", TyVar(VSORT, "B")), ("g", parse_type("A -> B")), ("h", parse_type("^Q -o ^Q")))
    (ty, run), (ty2, run2) = (model._compile(parse_term(t), gamma, None) for t in (term, renamed))
    assert ty is ty2
    for tyenv in islice(pl.type_envs(model, [(VSORT, "A"), (VSORT, "B"), (CSORT, "Q")]), 30):
        sizes = [model.interp_vtype(tyenv, t).size for _, t in gamma]
        for values in product(*map(range, sizes)):
            tmenv = {n: v for (n, _), v in zip(gamma, values)}
            assert run(tyenv, dict(tmenv)) == run2(tyenv, dict(tmenv))


@settings(deadline=None, max_examples=60)  # an example may interpret new types on first use
@given(seed=st.integers(0, 2**32), order=st.randoms(use_true_random=False))
def test_one_compiled_closure_matches_a_fresh_evaluation_per_environment(abstraction_model, seed, order):
    # state leaking from one run into the next (a shared table, a stale
    # type environment) shows as a difference in some order of the runs
    model = abstraction_model
    j = TermGenerator(seed, interp_safe=True).random_judgment()
    envs = abstraction_environments(model, j)
    assume(len(envs) > 1)
    fresh = [_outcome(lambda e, m: model._eval(j.subject, j.gamma, j.delta)(e, m)[1], *env) for env in envs]
    _, run = model._compile(j.subject, j.gamma, j.delta)
    at = list(range(len(envs)))
    order.shuffle(at)
    event(f"{len(set(map(id, (e for e, _ in envs))))} type environments")
    assert [_outcome(run, *envs[i]) for i in at] == [fresh[i] for i in at]


# spellings of one alpha-class at both sorts, with nested and shadowing
# binders, each with a decoy: a type of another class that a planted
# canonical form confuses with the first spelling
ALPHA_SPELLINGS = (
    ("forall X. X -> X", "forall Y. Y -> Y", "forall X. X -> Y"),
    ("forall ^X. ^X -> ^X", "forall ^Y. ^Y -> ^Y", "forall ^X. ^X -> ^P"),
    ("forall X. forall ^Y. X -> ^Y", "forall A. forall ^B. A -> ^B", "forall X. forall ^Y. ^Y -> ^Y"),
    ("forall X. forall X. X -> X", "forall Y. forall X. X -> X", "forall X. forall Y. X -> X"),
    ("forall X. (forall X. X) -> X", "forall Z. (forall Y. Y) -> Z", "forall X. (forall Y. X) -> X"),
    # a value and a computation binder of one name
    ("forall X. forall ^X. X -> ^X", "forall Y. forall ^Z. Y -> ^Z", "forall X. forall ^Y. ^Y -> ^Y"),
    # a free variable named like a canonical binder
    ("(forall X. X -> b0) -> b0", "(forall Y. Y -> b0) -> b0", "(forall X. X -> X) -> b0"),
)


def _planted_canonical(defect):
    """``kernel.alpha_canonical`` with one defect: binders keyed by name
    alone, or the canonical names not skipping the free ones."""
    def canonical(t):
        free = {name for _, name in free_type_var_keys(t)}
        names = (n for n in (f"b{i}" for i in range(100)) if defect == "capture a free b0" or n not in free)
        key = (lambda sort, name: name) if defect == "ignore the binder's sort" else (lambda sort, name: (sort, name))

        def go(t, env):
            if isinstance(t, TyVar):
                return env.get(key(t.sort, t.name), t)
            if isinstance(t, (Arrow, Lolli)):
                return type(t)(go(t.dom, env), go(t.cod, env))
            name = next(names)
            return Forall(t.sort, name, go(t.body, {**env, key(t.sort, t.binder): TyVar(t.sort, name)}))

        return go(t, {})

    return canonical


def _alpha_failures(monad, spellings):
    """The spelling triples on which a model that interprets the decoy, then
    both spellings, shares no one domain between the spellings, or gives a
    domain, algebra or relation other than a fresh model's for each type."""
    failed = set()
    for triple in spellings:
        decoy, first, second = (parse_type(src) for src in (triple[2], *triple[:2]))
        model = ip.Model(monad, 2)
        names = pl.env_names(free_type_vars(decoy) | free_type_vars(first))
        for rho in islice(pl.rel_envs(model, names), 12):
            env = rho.rho1
            sems = [model.interp_vtype(env, ty) for ty in (decoy, first, second)]
            views = [model.interp_rel(rho, ty) for ty in (decoy, first, second)]
            fresh = [ip.Model(monad, 2) for _ in range(3)]
            want = [m.interp_vtype(env, ty) for m, ty in zip(fresh, (decoy, second, first))]
            wviews = [m.interp_rel(rho, ty) for m, ty in zip(fresh, (decoy, second, first))]
            same = sems[1] is sems[2] and views[1] is views[2]
            for sem, view, w, wview in zip(sems, views, want, wviews):
                same &= sem.size == w.size and getattr(sem, "fams", None) == getattr(w, "fams", None)
                same &= (view.rows() == wview.rows()) if wview.fits() else not view.fits()
            if classify_type(first) is Kind.COMPUTATION:
                algs = [model.interp_ctype(env, ty) for ty in (first, second)]
                same &= algs[0] is algs[1] is ip.Model(monad, 2).interp_ctype(env, second)
            if not same:
                failed.add(triple[0])
                break
    return failed


@pytest.mark.parametrize("monad", [EXC, POW])
def test_alpha_equal_spellings_share_one_interpretation(monad):
    assert _alpha_failures(monad, ALPHA_SPELLINGS) == set()


@pytest.mark.parametrize("defect, caught", [
    ("ignore the binder's sort", {"forall X. forall ^X. X -> ^X"}),
    ("capture a free b0", {"(forall X. X -> b0) -> b0"}),
])
def test_planted_canonical_forms_fail_the_alpha_key_check(monkeypatch, defect, caught):
    monkeypatch.setattr(ip, "alpha_canonical", _planted_canonical(defect))
    assert _alpha_failures(EXC, ALPHA_SPELLINGS) == caught


# bodies X -> C with X not free in C, at both sorts; every registered object
# pair is tested, the empty set and the empty algebra included
FROM_BINDER_BODIES = ("forall X. X -> Y", "forall ^X. ^X -> ^Q", "forall X. X -> ^P -o ^P", "forall X. X -> forall Y. ^P")


def _from_binder_failures(monad):
    """The types on which ``relatedness`` disagrees, at some relation
    environment, object pair and component pair, with the full relation's
    view or with ``every_relation``."""
    model = ip.Model(monad, 2)
    failed = set()
    for src in FROM_BINDER_BODIES:
        ty = parse_type(src)
        sort, binder, body = ty.sort, ty.binder, ty.body
        objs = model.objects(sort)
        for rho in islice(pl.rel_envs(model, _free_names(ty)), 40):
            related, _ = model.relatedness(rho, sort, binder, body)
            every = model.every_relation(rho, sort, binder, body)
            for (i, a), (j, b) in product(enumerate(objs), repeat=2):
                full = model.interp_rel(rho.set(sort, binder, a, b, ((1 << b.size) - 1,) * a.size), body)
                if any(related(i, j, u, v) != full.contains(u, v) or every(i, j, u, v) != full.contains(u, v)
                       for u in range(full.left.size) for v in range(full.right.size)):
                    failed.add(src)
    return failed


@pytest.mark.parametrize("monad", [EXC, fm.MonadSpec("identity"), POW])
def test_a_binder_that_is_a_whole_arrow_domain_is_decided_by_the_codomain(monad):
    assert _from_binder_failures(monad) == set()


@pytest.mark.parametrize("defect", ["test only x == y", "drop the codomain's relation"])
def test_planted_arrow_domain_reads_fail_the_full_relation_check(monkeypatch, defect):
    def planted(cod, left, right):
        if defect == "drop the codomain's relation":
            return lambda u, v: True
        xs = range(min(left.dom.size, right.dom.size))
        return lambda u, v: all(cod.contains(left.apply(u, x), right.apply(v, x)) for x in xs)

    monkeypatch.setattr(ip, "every_value_related", planted)
    assert _from_binder_failures(EXC) == set(FROM_BINDER_BODIES)
