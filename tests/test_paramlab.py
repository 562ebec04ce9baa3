"""Theorem verifiers: statuses, counts, witnesses, oracle agreement."""

import itertools
import json
from collections import Counter
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest

from polyeff import cli
from polyeff import finmodel as fm
from polyeff import interp as ip
from polyeff import encodings as enc
from polyeff import paramlab as pl
from polyeff import typecheck as tc
from polyeff.kernel import CSORT, VSORT, Arrow, Judgment, LinLam, TyVar, Var, free_type_vars, free_type_vars_term
from polyeff.randterms import TermGenerator
from polyeff.surface import parse_term, parse_type

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def exc_free():
    return pl.build_model(fm.ModelConfig("exception", ("e",), 2), range(3))


@pytest.fixture(scope="module")
def exc_plain():
    return pl.build_model(fm.ModelConfig("exception", ("e",), 2), ())


def test_bang_laws(exc_free):
    rep = pl.verify_bang_laws(exc_free)
    assert rep.status == "verified", rep.witness


def test_bang_laws_catch_a_projection_that_skips_transport(monkeypatch):
    # projecting a family at an algebra the model does not register (here the
    # structure of !A) must move the component along an isomorphism; reading
    # the registered algebra's component as it is breaks the eta law. With
    # one exception every such structure is a registered representative, so
    # bang-laws projects by transport only with two
    model = pl.build_model(fm.ModelConfig(exceptions=("e1", "e2")), range(3))
    project, moved = model.project_poly, []

    def skipping(poly, target, binder, body, env):
        if poly.sort == CSORT and model.alg_index(target) is None:
            moved.append(target)
            k = next(k for k, a in enumerate(model.algebras) if a.size == target.size)
            return lambda fam: poly.fams[fam][k]
        return project(poly, target, binder, body, env)

    monkeypatch.setattr(model, "project_poly", skipping)
    rep = pl.verify_bang_laws(model)
    assert rep.status == "counterexample" and moved
    assert rep.witness["law"] == "eta"
    # the eta law alone fails with the same witness, and holds without the defect
    bang_a = enc.encode_bang(TyVar(VSORT, "A"))
    eta = ((), ("y", bang_a), Var("y"), enc.elaborate_term(parse_term("let x <= y in bang x"), delta=("y", bang_a)),
           ("A",), ())
    assert {**pl.semantically_equal(model, *eta), "law": "eta"} == rep.witness
    monkeypatch.undo()
    assert pl.semantically_equal(model, *eta) is None


def test_bang_laws_require_free_algebras(exc_plain):
    with pytest.raises(ip.OutOfBoundError, match="free algebra on a 0-element set"):
        pl.verify_bang_laws(exc_plain)


def test_free_algebra_universal_property(exc_free):
    rep = pl.verify_free_algebra(exc_free)
    assert rep.status == "verified", rep.witness
    assert rep.counts["instances"] > 0


def test_free_algebra_catches_a_second_mediating_homomorphism(exc_free, monkeypatch):
    # a hom listing that repeats its first mediator breaks uniqueness at the
    # first instance: |A| = 0, into algebra 0, along the empty map
    mediating = pl._mediating_homs
    monkeypatch.setattr(pl, "_mediating_homs", lambda *args: (lambda homs: homs[:1] + homs)(mediating(*args)))
    rep = pl.verify_free_algebra(exc_free)
    assert rep.status == "counterexample"
    assert rep.witness == {"a": 0, "algebra": 0, "f": [], "mediators": 2}
    monkeypatch.undo()
    assert pl.verify_free_algebra(exc_free).status == "verified"


def test_free_algebra_catches_a_term_mediator_that_differs(exc_free, monkeypatch):
    # a bridge T A -> [[!A]] that swaps the two unit points at |A| = 2 reads
    # the let-based term's mediator at the wrong families, so it differs from
    # the unique homomorphism
    bridge = exc_free.bang_bridge

    def swapped(size):
        to_t, from_t = bridge(size)
        return (to_t, (from_t[1], from_t[0]) + from_t[2:]) if size == 2 else (to_t, from_t)

    monkeypatch.setattr(exc_free, "bang_bridge", swapped)
    rep = pl.verify_free_algebra(exc_free)
    assert rep.status == "counterexample"
    assert rep.witness == {"a": 2, "algebra": 1, "f": [0, 1], "detail": "term mediator differs"}
    monkeypatch.undo()
    assert pl.verify_free_algebra(exc_free).status == "verified"


def test_negative_control_produces_replayable_witness(exc_free):
    rep = pl.free_algebra_negative_control(exc_free)
    assert rep.status == "counterexample"
    assert pl.replay_negative_control(exc_free, rep)


def test_bang_cardinality_counts(exc_free):
    rep = pl.verify_bang_cardinality(exc_free)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"|A|=0": 1, "|A|=1": 2, "|A|=2": 3}


def test_bang_cardinality_shares_the_bridge_s_family_search(monkeypatch):
    # the count and the bijection read one [[!X]] per size, searched once
    calls = Counter()
    search = ip.Model._families
    monkeypatch.setattr(ip.Model, "_families",
                        lambda self, env, ty, comps: calls.update([(env, ty)]) or search(self, env, ty, comps))
    rep = pl.verify_bang_cardinality(pl.build_model(fm.ModelConfig(), range(3)))
    assert rep.status == "verified"
    assert list(calls.values()) == [1, 1, 1]


def test_bang_cardinality_identity_monad():
    model = pl.build_model(fm.ModelConfig("identity", (), 2), range(3))
    rep = pl.verify_bang_cardinality(model, sizes=(1, 2))
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"|A|=1": 1, "|A|=2": 2}


def test_rel_lifting_characterisations(exc_free):
    rep = pl.verify_rel_lifting(exc_free)
    assert rep.status == "verified", rep.witness


def _recorded_failures(monkeypatch, suite, model):
    """The report of ``suite`` on ``model`` and every failure it recorded, in order."""
    seen = []
    report = pl._model_report
    monkeypatch.setattr(pl, "_model_report", lambda theorem, model, t0, failures, counts=None:
                        seen.extend(failures) or report(theorem, model, t0, failures, counts))
    return suite(model), seen


def _unclosed_lifting(model, r, a, b):
    """The eta-pairs of R, without the admissible closure."""
    _, fa, eta_a = model.free_algebra(a)
    _, fb, eta_b = model.free_algebra(b)
    return fm.rows_of(((eta_a[x], eta_b[y]) for x, y in fm.rel_pairs(r)), fa.size)


def _full_lifting(model, r, a, b):
    """Every pair of T A x T B, whatever R is."""
    _, fa, _ = model.free_algebra(a)
    _, fb, _ = model.free_algebra(b)
    return ((1 << fb.size) - 1,) * fa.size


def _adjoint_reference(model):
    """rel-lifting's adjoint failures, one pairwise test of both sides per instance."""
    failures = []
    bounded = [i for i, alg in enumerate(model.algebras) if alg.size <= model.bound]
    for a, b in itertools.product(pl.CHECKED_SIZES, repeat=2):
        _, fa, eta_a = model.free_algebra(a)
        _, fb, eta_b = model.free_algebra(b)
        for r in model.rels_for_pair(ip.VSORT, a, b):
            rl, bang_r = fm.rel_pairs(r), fm.rel_pairs(pl.lifted_rel(model, r, a, b))
            for i, j in itertools.product(bounded, repeat=2):
                for q in model.rels_for_pair(ip.CSORT, i, j):
                    for f in model._hom_tables(fa, model.algebras[i]):
                        for g in model._hom_tables(fb, model.algebras[j]):
                            lhs = all(q[f[z]] >> g[w] & 1 for z, w in bang_r)
                            rhs = all(q[f[eta_a[x]]] >> g[eta_b[y]] & 1 for x, y in rl)
                            if lhs != rhs:
                                failures.append({"a": a, "b": b, "R": rl, "Q": fm.rel_pairs(q),
                                                 "algs": [i, j], "f": list(f), "g": list(g)})
    return failures


@pytest.mark.parametrize("lifting, adjoint_failures", [(_unclosed_lifting, 0), (_full_lifting, 638)],
                         ids=["unclosed", "full"])
def test_rel_lifting_catches_a_wrong_lifting(monkeypatch, lifting, adjoint_failures):
    # without the closure the adjoint's two sides test the same pairs, so only
    # the characterisations disagree; a lifting that relates every pair fails
    # the adjoint too, at the same instances and in the same order as a
    # pairwise loop
    model = pl.build_model(fm.ModelConfig("exception", ("e",), 2), range(3))
    monkeypatch.setattr(pl, "lifted_rel", lifting)
    rep, failures = _recorded_failures(monkeypatch, pl.verify_rel_lifting, model)
    assert rep.status == "counterexample"
    assert {"a", "b", "R"} <= rep.witness.keys()
    adjoint = [f for f in failures if "Q" in f]
    assert len(adjoint) == adjoint_failures
    assert adjoint == _adjoint_reference(model)


def test_lifting_of_empty_relation_is_the_raise_pair(exc_free):
    lifted = pl.lifted_rel(exc_free, (0,), 1, 1)
    assert lifted == (0, 0b10)  # {(1, 1)}


def test_lifting_of_diagonal_is_diagonal(exc_free):
    assert pl.lifted_rel(exc_free, fm.diagonal(2), 2, 2) == fm.diagonal(3)


def test_lifting_of_graph_is_graph_of_tmap(exc_free):
    f = (1, 0)
    graph = fm.rows_of(((x, f[x]) for x in range(2)), 2)
    tf = exc_free.monad.tmap(f, 2, 2)
    want = fm.rows_of(((z, tf[z]) for z in range(3)), 3)
    assert pl.lifted_rel(exc_free, graph, 2, 2) == want


def test_algop_correspondence_counts(exc_free):
    for n, count in [(0, 1), (1, 2), (2, 3)]:
        rep = pl.verify_algop_correspondence(exc_free, n)
        assert rep.status == "verified", rep.witness
        assert rep.counts["natural-transformations"] == count
        assert rep.counts["generic-effects"] == count
        assert rep.counts["parametric-elements"] == count


def test_algop_powerset_bound_three():
    model = pl.build_model(fm.ModelConfig("powerset", (), 3), (2,))
    rep = pl.verify_algop_correspondence(model, 2)
    assert rep.status == "verified", rep.witness
    assert rep.counts["parametric-elements"] == 3


def test_algop_out_of_bound_names_the_algebra_pair():
    # under powerset the free algebra on 3 points (model index 3) has 7
    # elements, and its endomorphisms have 7^7 candidate tables
    model = pl.build_model(fm.ModelConfig("powerset", (), 2), (3,))
    with pytest.raises(ip.OutOfBoundError) as exc:
        pl.verify_algop_correspondence(model, 3)
    assert str(exc.value) == ("homomorphisms from algebra 3 on 7 elements to algebra 3 on 7:"
                              " hom space too large: 7^7")


@pytest.mark.parametrize("monad", [fm.MonadSpec("exception", ("e1", "e2")), fm.MonadSpec("powerset")],
                         ids=lambda m: m.key)
def test_every_operation_is_natural_and_a_moved_component_is_not(monad):
    # the family of each operation's tables is one of the natural
    # transformations of its arity, so algop's check of it can pass; moving
    # one component to a value that no natural transformation takes there
    # must leave that set, so it can fail
    model = ip.Model(monad, 2)
    for k, (name, arity) in enumerate(monad.operations):
        body = enc.nary_op_type(arity).body
        comps = [model.interp_vtype(ip.type_env({}, {"X": alg}), body) for alg in model.algebras]
        fam = tuple(ip.op_index(comp, arity, lambda args: alg.op(k, args))
                    for alg, comp in zip(model.algebras, comps))
        nts = pl.enumerate_natural_transformations(model, arity)
        assert fam in nts, name
        i, v = next((i, v) for i, comp in enumerate(comps) for v in range(comp.size)
                    if all(nt[i] != v for nt in nts))
        moved = fam[:i] + (v,) + fam[i + 1:]
        assert moved not in nts, name


def _config_id(value):
    return "E=" + ",".join(value) if isinstance(value, tuple) else None


def _natural_by_application(model, n):
    """The natural transformations by applying every homomorphism to every
    argument tuple, each component listed in full: the oracle that the
    homomorphism-graph links must reproduce."""
    algs = model.algebras
    body = enc.nary_op_type(n).body
    comps = [model.interp_vtype(ip.type_env({}, {"X": alg}), body) for alg in algs]
    args_of = [list(itertools.product(range(a.size), repeat=n)) for a in algs]
    homs = {(i, j): model._hom_tables(a, b) for i, a in enumerate(algs) for j, b in enumerate(algs)}

    def apply_op(sem, f, args):
        for x in args:
            f, sem = sem.apply(f, x), sem.cod
        return f

    def natural(i, j, u, v):
        return all(h[apply_op(comps[i], u, args)] == apply_op(comps[j], v, [h[x] for x in args])
                   for h in homs[(i, j)] for args in args_of[i])

    return ip.pairwise_search([c.size for c in comps], natural)


@pytest.mark.parametrize("monad, exceptions, bound, n", [
    (monad, exceptions, bound, n)
    for monad, exceptions, bounds, arities in [
        ("exception", ("e",), (1, 2, 3), (0, 1, 2)),
        ("exception", ("e1", "e2"), (2,), (0, 1)),
        ("identity", (), (2, 3), (0, 1, 2)),
        ("powerset", (), (2, 3), (0, 1, 2)),
    ]
    for bound in bounds for n in arities
], ids=_config_id)
def test_natural_transformations_match_the_application_oracle(monad, exceptions, bound, n):
    # every (config, arity) at which the listing oracle fits
    model = pl.build_model(fm.ModelConfig(monad, exceptions, bound), (n,))
    nts = pl.enumerate_natural_transformations(model, n)
    assert nts == _natural_by_application(model, n)
    assert len(nts) == model.free_algebra(n)[1].size


@pytest.mark.parametrize("bound", [2, 3])
def test_algop_two_exceptions(bound):
    # the free algebra on 2 points has 4 elements, so its component has 4^16
    # tables: too many to list, generated from its endomorphisms' links
    model = pl.build_model(fm.ModelConfig("exception", ("e1", "e2"), bound), (2,))
    rep = pl.verify_algop_correspondence(model, 2)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"natural-transformations": 4, "generic-effects": 4, "parametric-elements": 4}


def test_algop_three_exceptions_fixes_the_fewest_candidates_first(monkeypatch):
    # the free algebra on 2 points (5 elements) has few candidates, and its
    # homomorphisms prune every other algebra's: fixed by domain size it would
    # come last, after the eight 2-element algebras' candidates had multiplied
    calls = [0]
    search = ip.pairwise_search

    def counted(i, j, u, v, ok):
        calls[0] += 1
        return ok(i, j, u, v)

    monkeypatch.setattr(ip, "pairwise_search", lambda sizes, ok, *source: search(
        sizes, lambda i, j, u, v: counted(i, j, u, v, ok), *source))
    model = pl.build_model(fm.ModelConfig("exception", ("e1", "e2", "e3"), 2), (2,))
    rep = pl.verify_algop_correspondence(model, 2)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"natural-transformations": 5, "generic-effects": 5, "parametric-elements": 5}
    assert calls[0] < 100_000


@pytest.mark.parametrize("monad, exceptions, n", [
    ("exception", ("e",), 1), ("exception", ("e",), 2), ("exception", ("e1", "e2"), 2), ("powerset", (), 2),
], ids=_config_id)
def test_algop_catches_naturality_skipped_across_algebras(request, monkeypatch, monad, exceptions, n):
    # families natural in each algebra's endomorphisms alone are too many, so
    # algop's counts differ. Under one exception at arity 1 the representatives
    # (the 1-point algebra and the free algebra on 1 point) admit no more
    # families than that, so the defect shows only on the full enumeration,
    # where the free algebra's copy with its point moved is registered too
    if (monad, exceptions, n) == ("exception", ("e",), 1):
        request.getfixturevalue("full_enumeration")
    model = pl.build_model(fm.ModelConfig(monad, exceptions, 2), (n,))
    model.interp_vtype(ip.TypeEnv(), enc.nary_op_type(n))  # the parametric elements, before the plant
    search = ip.pairwise_search
    monkeypatch.setattr(ip, "pairwise_search", lambda sizes, ok, *source: search(
        sizes, lambda i, j, u, v: i != j or ok(i, j, u, v), *source))
    rep = pl.verify_algop_correspondence(model, n)
    assert rep.status == "counterexample"
    assert rep.witness["detail"] == "cardinalities differ"


@pytest.mark.parametrize("monad, exceptions", [("exception", ("e",)), ("powerset", ())], ids=_config_id)
def test_algop_catches_a_roundtrip_that_swaps_two_generic_effects(monkeypatch, monad, exceptions):
    # generic effects 0 and 1 swapped still induce natural transformations, so
    # all three counts agree and only the roundtrip gen -> theta -> gen fails
    model = pl.build_model(fm.ModelConfig(monad, exceptions, 2), (2,))
    to_nt = pl._generic_to_nt
    monkeypatch.setattr(pl, "_generic_to_nt",
                        lambda model, comps, gen, n: to_nt(model, comps, {0: 1, 1: 0}.get(gen, gen), n))
    rep = pl.verify_algop_correspondence(model, 2)
    assert rep.status == "counterexample"
    assert rep.counts == {"natural-transformations": 3, "generic-effects": 3, "parametric-elements": 3}
    assert rep.witness == {"detail": "roundtrip differs", "gen": 0, "back": 1}
    monkeypatch.undo()
    assert pl.verify_algop_correspondence(model, 2).status == "verified"


def test_handler(exc_free):
    rep = pl.verify_handler(exc_free)
    assert rep.status == "verified", rep.witness


def test_handler_two_exceptions():
    model = pl.build_model(fm.ModelConfig("exception", ("e1", "e2"), 2), range(3))
    rep = pl.verify_handler(model)
    assert rep.status == "verified", rep.witness


def test_handler_catches_a_raise_index_off_by_one(exc_free, monkeypatch):
    # the case split is checked against the free algebra's own raise point,
    # so a table built from the wrong one is a counterexample
    def planted(model, a, e_idx):
        ta = model.monad.apply(a)
        return {(p, q): (q if p == a + e_idx + 1 else p) for p in range(ta) for q in range(ta)}

    monkeypatch.setattr(pl, "_handle_table", planted)
    rep = pl.verify_handler(exc_free)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "case-split"


def test_handler_catches_a_squared_algebra_whose_raise_is_moved(exc_free, monkeypatch):
    # the handler is a homomorphism out of T A x T A; a product whose raise
    # constant is not the pair of raise points breaks that law alone, as the
    # case split reads no product
    real = fm.product_alg

    def planted(a, b):
        prod = real(a, b)
        return fm.Alg(prod.monad, prod.size, tuple(((t[0] + 1) % prod.size,) for t in prod.ops))

    monkeypatch.setattr(fm, "product_alg", planted)
    rep = pl.verify_handler(exc_free)
    assert rep.status == "counterexample"
    assert rep.witness == {"law": "homomorphism", "e": "e", "a": 1}


def test_handler_catches_a_functor_action_that_is_not_natural(exc_free, monkeypatch):
    # T f reversed still maps T A into T B, but the handler no longer commutes
    # with it; the case split and the homomorphism law read no T f
    real = fm.MonadSpec.tmap
    monkeypatch.setattr(fm.MonadSpec, "tmap", lambda self, f, a, b: real(self, f, a, b)[::-1])
    rep = pl.verify_handler(exc_free)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "naturality"
    a, b, f, p, q = (rep.witness[k] for k in ("a", "b", "f", "p", "q"))
    ha, hb = pl._handle_table(exc_free, a, 0), pl._handle_table(exc_free, b, 0)
    tf = real(exc_free.monad, f, a, b)[::-1]
    assert hb[(tf[p], tf[q])] != tf[ha[(p, q)]]


def test_handler_catches_a_lifted_relation_that_relates_a_raise_to_a_unit(exc_free, monkeypatch):
    # the handler's result is always one of its two argument pairs, so a
    # lifted relation with a pair dropped still holds it; one that relates the
    # raise point of T A to the first unit of T B splits the cases apart
    real = pl.lifted_rel

    def planted(model, r, a, b):
        rows = list(real(model, r, a, b))
        if b:
            rows[a] |= 1
        return tuple(rows)

    monkeypatch.setattr(pl, "lifted_rel", planted)
    rep = pl.verify_handler(exc_free)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "parametricity"
    assert rep.witness["b"] > 0


def test_handler_searches_no_family_of_its_scheme(monkeypatch):
    # membership is checked by the definition of a parametric family, so the
    # handler's scheme is never searched; the components' own quantifiers are
    searched, real = [], ip.Model._families
    monkeypatch.setattr(ip.Model, "_families",
                        lambda self, env, ty, comps: searched.append(ty) or real(self, env, ty, comps))
    model = pl.build_model(fm.ModelConfig("exception", ("e",), 2), range(3))
    rep = pl.verify_handler(model)
    assert rep.status == "verified", rep.witness
    assert searched and model.constants["handle^e"] not in searched


def test_handler_catches_a_family_that_is_not_parametric(monkeypatch):
    # the handler's family with one component moved to a value that the
    # family search (on a model of its own) lists in no family
    cfg = fm.ModelConfig("exception", ("e",), 2)
    oracle, model = pl.build_model(cfg, range(3)), pl.build_model(cfg, range(3))
    listed = set(oracle.interp_vtype(ip.TypeEnv(), oracle.constants["handle^e"]).fams)
    comps, fam = oracle.constant_family("handle^e")
    moved = (fam[:i] + (c,) + fam[i + 1:] for i, comp in enumerate(comps) for c in range(comp.size))
    planted = next(t for t in moved if t not in listed)
    real = model.constant_family
    monkeypatch.setattr(model, "constant_family", lambda name: (real(name)[0], planted))
    rep = pl.verify_handler(model)
    assert rep.status == "counterexample"
    assert rep.witness == {"law": "membership", "e": "e", "detail": "family is not parametric"}


def test_handler_needs_exception_monad():
    model = pl.build_model(fm.ModelConfig("powerset", (), 2), range(3))
    assert pl.verify_handler(model).status == "out-of-bound"


def test_handler_without_exceptions_is_out_of_bound():
    # with E empty there is no handler to check, so nothing may read "verified"
    model = pl.build_model(fm.ModelConfig("exception", (), 2), range(3))
    rep = pl.verify_handler(model)
    assert rep.status == "out-of-bound"
    assert rep.witness == {"detail": "handler verification needs a non-empty exception set (E = {})"}


def test_encoding_props(exc_free):
    rep = pl.verify_encoding_props(exc_free)
    assert rep.status == "verified", rep.witness


def _wrap_iso_failures(model, k):
    """The wrapping-isomorphism laws that fail at algebra ``k``, checked alone."""
    compiled = [model._compile(t, (), None) for t in enc.comp_iso_terms(TyVar(CSORT, "A"))]
    tyenv = ip.type_env({}, {"A": model.algebras[k]})
    (fsem, fv), (bsem, bv) = ((model.interp_vtype(tyenv, ty), stage(tyenv)({})) for ty, stage in compiled)
    left = all(bsem.apply(bv, fsem.apply(fv, x)) == x for x in range(model.algebras[k].size))
    right = all(fsem.apply(fv, bsem.apply(bv, w)) == w for w in range(bsem.dom.size))
    return [law for law, holds in (("wrap-iso-left", left), ("wrap-iso-right", right)) if not holds]


def test_encoding_props_catch_a_wrap_iso_backward_map_that_is_not_the_inverse(monkeypatch):
    # every closed term of the backward map's type denotes the inverse, by
    # parametricity, so the defect is planted in its denotation: another
    # homomorphism of the same hom space, wherever there is one
    model = pl.build_model(fm.ModelConfig(), range(3))
    _moved_denotation(monkeypatch, model, enc.comp_iso_terms(TyVar(CSORT, "A"))[1])
    rep = pl.verify_encoding_props(model)
    assert rep.status == "counterexample"
    witness = json.loads(rep.to_json())["witness"]
    assert witness["law"] in ("wrap-iso-left", "wrap-iso-right")
    # the witness re-checks alone: its law fails at its algebra under the
    # defect, and holds there without it
    assert witness["law"] in _wrap_iso_failures(model, witness["algebra"])
    monkeypatch.undo()
    assert _wrap_iso_failures(model, witness["algebra"]) == []
    assert pl.verify_encoding_props(model).status == "verified"


def test_encoding_props_catch_a_zero_type_that_is_not_initial(monkeypatch):
    # forall ^X. ^X -> ^X is the free algebra on one point, which has one
    # homomorphism per element into each algebra
    model = pl.build_model(fm.ModelConfig(), range(3))
    monkeypatch.setattr(enc, "zero_type", lambda sort: parse_type("forall ^X. ^X -> ^X"))
    rep = pl.verify_encoding_props(model)
    assert rep.status == "counterexample"
    k = rep.witness["algebra"]
    assert rep.witness == {"law": "initiality", "algebra": k, "homs": model.algebras[k].size}
    assert model.algebras[k].size != 1


def _moved_denotation(monkeypatch, model, term):
    """Compile ``term`` to another value of its space, and every other term as it is."""
    compile_term = model._compile

    def planted(t, gamma, delta):
        ty, stage = compile_term(t, gamma, delta)
        if t != term:
            return ty, stage

        def another(tyenv):
            sem, run = model.interp_vtype(tyenv, ty), stage(tyenv)

            def moved(tmenv):
                v = run(tmenv)
                return next((w for w in range(sem.size) if w != v), v)
            return moved
        return ty, another

    monkeypatch.setattr(model, "_compile", planted)


def test_encoding_props_catch_a_left_injection_that_is_not_the_encoded_one(monkeypatch):
    model = pl.build_model(fm.ModelConfig(), range(3))
    a, b = TyVar(CSORT, "A"), TyVar(CSORT, "B")
    _moved_denotation(monkeypatch, model, LinLam("a", a, enc.injection(0, a, b, Var("a"), CSORT)))
    rep = pl.verify_encoding_props(model)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "coproduct" and rep.witness["mediators"] != 1


def test_encoding_props_catch_a_decomposition_that_is_not_an_isomorphism(monkeypatch):
    # the two spaces have one size, so a forward map is a left inverse of the
    # backward one iff it is a right inverse: both laws fail at one algebra,
    # and the witness names the left one
    model = pl.build_model(fm.ModelConfig(), range(3))
    _moved_denotation(monkeypatch, model, enc.girard_iso_terms(TyVar(VSORT, "A"), TyVar(CSORT, "B"))[0])
    failures, report = [], pl._model_report
    monkeypatch.setattr(pl, "_model_report", lambda *args, **kw: failures.extend(args[3]) or report(*args, **kw))
    rep = pl.verify_encoding_props(model)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "decomposition-left"
    assert {"law": "decomposition-right", "carrier": rep.witness["carrier"]} in failures
    assert {f["law"] for f in failures} == {"decomposition-left", "decomposition-right"}


def test_encoding_props_sum_outside_the_bound_is_out_of_bound():
    # identity monad at bound 2: the encoded sum of the 1- and 2-element
    # algebras has 4 elements, and no registered algebra is that large
    model = pl.build_model(fm.ModelConfig("identity", (), 2), range(3))
    rep = pl.verify_encoding_props(model)
    assert rep.status == "out-of-bound"
    assert rep.witness == {
        "detail": "the encoded sum of algebras 1 and 2 has 4 elements"
        " and is isomorphic to no registered algebra"
    }


def test_identity_extension(exc_plain):
    rep = pl.verify_identity_extension(exc_plain)
    assert rep.status == "verified", rep.witness
    assert rep.counts["types"] >= 20


def _replay_identity_extension(model, witness):
    """The pairs of the witness's type at the diagonal of its environment, and
    the diagonal itself."""
    named = witness["env"]
    env = ip.type_env({x: fm.FinSet(named[x]) for x in ("X", "Y")},
                      {p: model.algebras[named["^" + p]] for p in ("P", "Q")})
    ty = parse_type(witness["type"])
    rows = model.interp_rel(ip.diag_relenv(env), ty).rows()
    return set(fm.rel_pairs(rows)), set(fm.rel_pairs(fm.diagonal(model.interp_vtype(env, ty).size)))


def test_identity_extension_catches_a_flipped_polarity_rule_with_a_witness_that_replays(monkeypatch):
    # a covariant binder tested at the full relation, a contravariant one at
    # the least: the family search then keeps families that are not
    # parametric, and their relation is more than the diagonal
    signs = ip.binder_signs
    monkeypatch.setattr(ip, "binder_signs", lambda *args: frozenset(-s for s in signs(*args)))
    config = fm.ModelConfig("exception", ("e",), 2)
    rep = pl.verify_identity_extension(pl.build_model(config, ()))
    assert rep.status == "counterexample"
    witness = json.loads(rep.to_json())["witness"]
    assert witness["type"] == "forall Z. Z -> X"
    extra, missing = ({tuple(pair) for pair in witness[key]} for key in ("extra", "missing"))
    assert extra
    # the witness alone rebuilds the relation, in a new model under the planted rule
    got, diagonal = _replay_identity_extension(pl.build_model(config, ()), witness)
    assert (got - diagonal, diagonal - got) == (extra, missing)
    # and under the real rule the same type and environment give the diagonal
    monkeypatch.undo()
    got, diagonal = _replay_identity_extension(pl.build_model(config, ()), witness)
    assert got == diagonal


def test_abstraction_theorem(exc_plain):
    rep = pl.verify_abstraction(exc_plain, seed=17, n_terms=25)
    assert rep.status == "verified", rep.witness
    assert rep.counts["hom-instances"] > 0


def test_abstraction_counts_evaluations_past_the_bound_as_skips(monkeypatch):
    # at bound 3 the -o space from the algebra on 27 elements (^Q -> ^Q) to
    # the one on 3 (^Q) has 3^26 candidate tables, so every evaluation of
    # the lfun is out of bound: each is skipped and counted, none fails
    j = Judgment((("g", parse_type("^Q")),), None, parse_term("lfun v:^Q -> ^Q => v g"),
                 parse_type("(^Q -> ^Q) -o ^Q"))
    monkeypatch.setattr(pl, "TermGenerator", lambda seed, interp_safe: SimpleNamespace(random_judgment=lambda: j))
    rep = pl.verify_abstraction(pl.build_model(fm.ModelConfig(bound=3), ()), n_terms=1)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"terms": 1, "hom-instances": 0, "out-of-bound-skips": 77}


def test_abstraction_runs_each_closure_once_per_distinct_environment(monkeypatch):
    # a judgment is staged once per type environment and run once per (type
    # environment, binding values); a compile builds its subterms' stages
    # itself, so every one counted is a judgment's
    model = pl.build_model(fm.ModelConfig(), ())
    compile_, judgments, stages, runs = model._compile, itertools.count(), [], []

    def counting(t, gamma, delta):
        ty, stage = compile_(t, gamma, delta)
        k, names = next(judgments), [n for n, _ in gamma] + ([delta[0]] if delta else [])

        def staging(tyenv):
            stages.append((k, tyenv))
            run = stage(tyenv)
            return lambda tmenv: runs.append((k, tyenv, tuple(tmenv[n] for n in names))) or run(tmenv)
        return ty, staging

    monkeypatch.setattr(model, "_compile", counting)
    rep = pl.verify_abstraction(model, seed=2024)
    assert len(runs) == len(set(runs)) > 100
    assert len(stages) == len(set(stages)) > 100 and len(stages) < len(runs)
    recorded = (DATA / "verify_all.jsonl").read_text().splitlines()
    assert rep.to_json(include_runtime=False) in recorded  # the recorded abstraction line


@pytest.mark.parametrize("check, compiles", [(pl.verify_free_algebra, 1), (pl.verify_encoding_props, 6)],
                         ids=["free-algebra", "encoding-props"])
def test_a_suite_compiles_each_of_its_terms_once(monkeypatch, check, compiles):
    # the mediator, the injections and the two isomorphism pairs do not depend
    # on the algebras they run at, so each is compiled before the loops
    model = pl.build_model(fm.ModelConfig(), range(3))
    compile_, calls = model._compile, []
    monkeypatch.setattr(model, "_compile", lambda t, gamma, delta: calls.append(t) or compile_(t, gamma, delta))
    rep = check(model)
    assert len(calls) == compiles
    recorded = (DATA / "verify_all.jsonl").read_text().splitlines()
    assert rep.to_json(include_runtime=False) in recorded


@pytest.mark.parametrize("bound", [2, 3])
def test_the_environment_walk_is_the_product_and_lists_only_the_pairs_it_binds(monkeypatch, bound):
    # the abstraction suite's walks for the seed-2024 judgments, on a model
    # that has interpreted nothing yet: no walk lists the relations of an
    # object pair that none of its environments binds; its first 40 relation
    # environments are those of a product over full listings, and its type
    # environments those of a product over the objects
    model = pl.build_model(fm.ModelConfig(bound=bound), ())
    gen = TermGenerator(2024, interp_safe=True)
    judgments = [gen.random_judgment() for _ in range(100)]
    names = [pl.env_names(tc._ctx_ftv(j.gamma, j.delta) | free_type_vars_term(j.subject)
                          | free_type_vars(j.ascription)) for j in judgments]
    listed, rels_for_pair, walks = set(), model.rels_for_pair, []
    monkeypatch.setattr(model, "rels_for_pair", lambda sort, i, k: listed.add((sort, i, k)) or rels_for_pair(sort, i, k))
    for ns in names:
        listed.clear()
        walks.append(list(itertools.islice(pl.rel_envs(model, ns), 40)))
        bound_pairs = {(sort, model.objects(sort).index(rho.rho1.get(sort, name)),
                        model.objects(sort).index(rho.rho2.get(sort, name)))
                       for rho in walks[-1] for (sort, name), _ in rho.rels}
        assert listed <= bound_pairs, (ns, sorted(listed - bound_pairs))
    monkeypatch.undo()
    for ns, rhos in zip(names, walks):
        full = [[(sort, name, a, b, r) for i, a in enumerate(model.objects(sort))
                 for k, b in enumerate(model.objects(sort)) for r in model.rels_for_pair(sort, i, k)]
                for sort, name in ns]
        want = [reduce(lambda rho, c: rho.set(*c), combo, ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()))
                for combo in itertools.islice(itertools.product(*full), 40)]
        assert rhos == want, ns
        want = [ip.type_env({n: o for (s, n), o in zip(ns, objs) if s == ip.VSORT},
                            {n: o for (s, n), o in zip(ns, objs) if s == ip.CSORT})
                for objs in itertools.product(*(model.objects(sort) for sort, _ in ns))]
        assert list(pl.type_envs(model, ns)) == want, ns
    assert sum(len(ns) > 1 for ns in names) > 10  # walks of more than one variable


def test_abstraction_catches_an_evaluator_that_depends_on_the_object(monkeypatch):
    # x:X |- x : X run as "the last element of X" is not relationally
    # parametric: 0 in the 1-element set and 0 in the 2-element one are
    # related by {(0, 0)}, and the results 0 and 1 are not
    j = Judgment((("x", parse_type("X")),), None, parse_term("x"), parse_type("X"))
    monkeypatch.setattr(pl, "TermGenerator", lambda seed, interp_safe: SimpleNamespace(random_judgment=lambda: j))
    model = pl.build_model(fm.ModelConfig(), ())
    monkeypatch.setattr(model, "_compile", lambda t, gamma, delta: (
        parse_type("X"), lambda tyenv: lambda tmenv: tyenv.get(ip.VSORT, "X").size - 1))
    rep = pl.verify_abstraction(model, n_terms=1)
    assert rep.status == "counterexample"
    assert rep.witness == {"term": "x", "type": "X", "lhs": 0, "rhs": 1}


def test_abstraction_catches_a_stoup_map_that_leaves_the_carrier(monkeypatch):
    # s89 g90 with the stoup s89 : X -> ^P is one of the seed-2024 stoup
    # judgments whose relational walk tests nothing: its first 40 relation
    # environments relate no pair at X.  The first type environment whose
    # homomorphism check runs gives X and ^P one element each, where every
    # map is a homomorphism, so an evaluator off by one, out of the carrier,
    # is the defect that check alone can see
    j = Judgment((("g90", TyVar(VSORT, "X")),), ("s89", parse_type("X -> ^P")), parse_term("s89 g90"), TyVar(CSORT, "P"))
    monkeypatch.setattr(pl, "TermGenerator", lambda seed, interp_safe: SimpleNamespace(random_judgment=lambda: j))
    model = pl.build_model(fm.ModelConfig(), ())
    rhos = list(itertools.islice(pl.rel_envs(model, [(ip.VSORT, "X"), (ip.CSORT, "P")]), 40))
    assert len(rhos) == 40 and not any(model.interp_rel(rho, TyVar(VSORT, "X")).pairs() for rho in rhos)
    rep = pl.verify_abstraction(model, n_terms=1)
    assert (rep.status, rep.counts["hom-instances"]) == ("verified", 2), rep.witness
    compile_ = model._compile

    def off_by_one(t, gamma, delta):
        ty, stage = compile_(t, gamma, delta)

        def staging(tyenv):
            run = stage(tyenv)
            return lambda tmenv: run(tmenv) + 1
        return ty, staging

    monkeypatch.setattr(model, "_compile", off_by_one)
    rep = pl.verify_abstraction(model, n_terms=1)
    assert rep.status == "counterexample"
    assert rep.witness == {"term": "s89 g90", "law": "homomorphism"}


def test_relation_axioms_powerset():
    model = pl.build_model(fm.ModelConfig("powerset", (), 2), ())
    rep = pl.verify_rel_axioms(model)
    assert rep.status == "verified", rep.witness


# the pointed sets on 1 and 2 points, named by their tables and id'd by
# size and point: the model registers both, at indices 0 and 1
EXC = fm.MonadSpec("exception", ("e",))
PT1_0, PT2_0 = fm.Alg(EXC, 1, ((0,),)), fm.Alg(EXC, 2, ((0,),))


def _object(model, sort, obj):
    """The index in ``model`` of a set, given by its size, or of an algebra."""
    return model.objects(sort).index(fm.FinSet(obj) if sort == ip.VSORT else obj)


@pytest.mark.parametrize("sort, a, b, drop, axiom", [
    pytest.param(ip.VSORT, 2, 2, "diagonal", {"axiom": "R1", "object": "set:2"}, id="v-2-2-diagonal-axiom0"),
    pytest.param(ip.CSORT, PT2_0, PT2_0, "diagonal", {"axiom": "R1", "object": "alg:1"}, id="c-2:0-2:0-diagonal"),
    pytest.param(ip.VSORT, 1, 2, "full", {"axiom": "R3", "kind": "set-full", "objects": [1, 2]},
                 id="v-1-2-full-axiom2"),
    pytest.param(ip.CSORT, PT1_0, PT2_0, "full", {"axiom": "R3", "kind": "alg-full", "objects": [0, 1]},
                 id="c-1:0-2:0-full"),
])
def test_relation_axioms_check_the_model_listing(monkeypatch, sort, a, b, drop, axiom):
    # a listing that misses one pair's diagonal or full relation is caught
    model = pl.build_model(fm.ModelConfig(), ())
    i, j = _object(model, sort, a), _object(model, sort, b)
    m, n = (model.objects(sort)[k].size for k in (i, j))
    missing = fm.diagonal(m) if drop == "diagonal" else ((1 << n) - 1,) * m
    listed = model.rels_for_pair
    monkeypatch.setattr(model, "rels_for_pair", lambda *key: [
        r for r in listed(*key) if key != (sort, i, j) or r != missing])
    rep = pl.verify_rel_axioms(model)
    assert rep.status == "counterexample"
    assert rep.witness == axiom


def _listing(model, sort):
    """rel-axioms' objects within the bound, their relation spaces and their maps."""
    objs = model.objects(sort)
    size = {k: o.size for k, o in enumerate(objs) if o.size <= model.bound}
    rels = {(i, j): model.rels_for_pair(sort, i, j) for i in size for j in size}
    maps = {(i, j): model._hom_tables(objs[i], objs[j]) if sort == ip.CSORT
            else list(itertools.product(range(size[j]), repeat=size[i])) for i, j in rels}
    return size, rels, maps


def _definition_preimage(f, g, r, m, n):
    """{(x, y) | (f x, g y) in R}, one pair at a time, on carriers of sizes m and n."""
    return fm.rows_of(((x, y) for x in range(m) for y in range(n) if r[f[x]] >> g[y] & 1), m)


def _preimage_mismatches(model, preimage_table):
    """Each listed R and pair of maps (f, g) of rel-axioms at which the preimage
    read from ``preimage_table`` differs from the definition over pairs."""
    bad = []
    for sort in (ip.VSORT, ip.CSORT):
        size, rels, maps = _listing(model, sort)
        for (a1, a2), fs in maps.items():
            for (b1, b2), gs in maps.items():
                tables = [preimage_table(g, size[b2]) for g in gs]
                for r in rels[a2, b2]:
                    for f in fs:
                        for g, table in zip(gs, tables):
                            if tuple(table[r[x]] for x in f) != _definition_preimage(f, g, r, size[a1], size[b1]):
                                bad.append((sort, r, f, g))
    return bad


@pytest.mark.parametrize("monad, excs", [("exception", ("e",)), ("identity", ()), ("powerset", ())])
def test_preimage_tables_match_the_definition_over_the_listing(monad, excs):
    model = pl.build_model(fm.ModelConfig(monad, excs, 2), ())
    assert _preimage_mismatches(model, fm.preimage_table) == []
    # a preimage that ignores R and returns the full relation passes
    # rel-axioms, whose listings all hold the full relation; the definition
    # check catches it
    full = lambda g, n: ((1 << len(g)) - 1,) * (1 << n)  # noqa: E731
    assert _preimage_mismatches(model, full)


def _r2_reference(model):
    """rel-axioms' R2 failures, each preimage built pair by pair from its definition."""
    failures = []
    for sort in (ip.VSORT, ip.CSORT):
        size, rels, maps = _listing(model, sort)
        listed = {ij: set(rs) for ij, rs in rels.items()}
        for (a1, a2), fs in maps.items():
            for (b1, b2), gs in maps.items():
                for r in rels[a2, b2]:
                    for f in fs:
                        for g in gs:
                            if _definition_preimage(f, g, r, size[a1], size[b1]) not in listed[a1, b1]:
                                failures.append({"axiom": "R2", "kind": "set" if sort == ip.VSORT else "alg",
                                                 "objects": [a1, a2, b1, b2], "R": fm.rel_pairs(r),
                                                 "f": list(f), "g": list(g)})
    return failures


@pytest.mark.parametrize("sort, obj, drop, full", [
    pytest.param(ip.VSORT, 2, -2, False, id="v-2--2"),
    pytest.param(ip.CSORT, PT2_0, -2, True, id="c-2:0--2-full-enumeration"),
    pytest.param(ip.VSORT, 2, 5, False, id="v-2-5"),
    pytest.param(ip.CSORT, PT2_0, 1, False, id="c-2:0-1"),
])
def test_relation_axioms_catch_a_dropped_relation_by_r2(request, monkeypatch, sort, obj, drop, full):
    # dropping one relation that is neither empty, full nor diagonal from a
    # listing fails R2 (and R3 too when the relation is an intersection of two
    # others); R2 records the failures of a pairwise loop, in its order. The
    # last two drops fail R2 along several pairs of maps for one R. A co-atom
    # of an algebra's listing is the preimage of another listed relation only
    # along an isomorphism from a copy of the algebra, which the full
    # enumeration registers and the representatives model does not
    if full:
        request.getfixturevalue("full_enumeration")
    model = pl.build_model(fm.ModelConfig(), ())
    k = _object(model, sort, obj)
    listed = model.rels_for_pair
    missing = listed(sort, k, k)[drop]
    assert missing not in (fm.diagonal(2), (0, 0), (3, 3))
    monkeypatch.setattr(model, "rels_for_pair", lambda *key: [
        r for r in listed(*key) if key != (sort, k, k) or r != missing])
    rep, failures = _recorded_failures(monkeypatch, pl.verify_rel_axioms, model)
    assert rep.status == "counterexample"
    r2 = [f for f in failures if f["axiom"] == "R2"]
    assert r2 and r2 == _r2_reference(model)
    if drop == -2:  # a co-atom is no intersection of two other relations
        assert rep.witness == r2[0]
    else:  # the other drops are, and R3 meets each of those pairs once
        assert any(f["axiom"] == "R3" for f in failures)


def test_monad_laws_report():
    rep = pl.verify_monad_laws(3)
    assert rep.status == "verified", rep.witness


def _full_subset_to_b0(out):
    # a wrong value in T B, seen only by the union-split test
    return out[:-1] + (0,)


def _singleton_out_of_range(out):
    # a value outside T B, where the union-split test looks up a join
    return (99,) + out[1:]


# the distinct failure messages of the powerset check, by planted defect:
# at size 2 the direct associativity cross-check also sees the defect
DISTINCT_FAILURES = {
    (4, _full_subset_to_b0): 1, (4, _singleton_out_of_range): 1, (2, _singleton_out_of_range): 3,
}


@pytest.mark.parametrize("size, defect", list(DISTINCT_FAILURES))
def test_monad_laws_catch_a_planted_powerset_extend_defect(monkeypatch, size, defect):
    # planted for every injective table other than the unit at |A| = |B| = size,
    # in the extensions the sweep's blocks and extend's one-table case read
    extend_columns = fm.MonadSpec.extend_columns

    def planted(self, cols, n, a, b):
        out = extend_columns(self, cols, n, a, b)
        if self.key != "powerset" or not a == b == size:
            return out
        tb = self.apply(b)
        rows = [defect(row) if len(set(f)) == size and tuple(f) != self.unit(a) else row
                for f, row in zip(fm._rows(cols, n, tb), fm._rows(out, n, tb))]
        return fm._columns(rows, len(out), tb)

    monkeypatch.setattr(fm.MonadSpec, "extend_columns", planted)
    laws = []
    check = fm.check_monad_laws
    monkeypatch.setattr(fm, "check_monad_laws", lambda m, n: laws.append(check(m, n)) or laws[-1])
    rep = pl.verify_monad_laws(4)
    assert rep.status == "counterexample"
    assert rep.witness["monad"] == "powerset"
    # each failure is recorded once, however many tables repeat it
    failures = laws[-1].failures
    assert len(failures) == len(set(failures)) == DISTINCT_FAILURES[size, defect]
    assert rep.witness["detail"] == failures[0]


def test_parametric_counts_and_oracle_agreement(exc_free, exc_plain):
    rep = pl.verify_parametric_counts(exc_free, exc_plain)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"n=0": 1, "n=1": 2, "n=2": 3}


def test_two_exception_reach_of_the_least_relation_search():
    # at E = {e1, e2} each bang type and n-ary operation type has a 4^16 =
    # 2^32-table component at the free algebra on 2 points; the least
    # relations decide them, and the naive oracle (every admissible
    # relation) agrees wherever it can filter the component product: the
    # counts cross-check the n-ary types on the plain model, and below the
    # bang types are checked on both models
    cfg = fm.ModelConfig("exception", ("e1", "e2"), 2)
    free, plain = pl.build_model(cfg, range(3)), pl.build_model(cfg, ())
    rep = pl.verify_parametric_counts(free, plain)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"n=0": 2, "n=1": 3, "n=2": 4}
    rep = pl.verify_bang_cardinality(free)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"|A|=0": 2, "|A|=1": 3, "|A|=2": 4}
    compared = 0
    for model in (free, plain):
        for a in range(3):
            env = ip.TypeEnv().set(ip.VSORT, "A", fm.FinSet(a))
            ty = enc.encode_bang(TyVar(VSORT, "A"))
            try:
                naive = model.enumerate_families_naive(env, ty)
            except ip.OutOfBoundError:
                continue
            assert naive == model.interp_vtype(env, ty).fams, (model, a)
            compared += 1
    assert compared == 5  # |A| = 0, 1, 2 on the plain model, |A| = 0, 1 on the free one


def test_naive_oracle_matches_propagation(exc_plain):
    # at the plain bound, both tiers must produce identical element sets
    for n in (1, 2):
        ty = enc.nary_op_type(n)
        naive = exc_plain.enumerate_families_naive(ip.TypeEnv(), ty)
        poly = exc_plain.interp_vtype(ip.TypeEnv(), ty)
        assert naive == poly.fams


def test_parametric_counts_report_an_oracle_disagreement(monkeypatch):
    # a family search that drops its last family where it finds more than
    # one, planted after the counted model has its families, so only the
    # oracle's model meets it: the naive oracle keeps the dropped family
    cfg = fm.ModelConfig("exception", ("e",), 2)
    free, plain = pl.build_model(cfg, range(3)), pl.build_model(cfg, ())
    assert pl.verify_parametric_counts(free).status == "verified"
    search = ip.pairwise_search

    def dropping(*args, **kw):
        fams = search(*args, **kw)
        return fams[:-1] if len(fams) > 1 else fams

    monkeypatch.setattr(ip, "pairwise_search", dropping)
    rep = pl.verify_parametric_counts(free, plain)
    assert rep.status == "counterexample"
    assert rep.witness == {"n": 1, "detail": "oracle disagreement", "naive": 2, "propagated": 1}


def test_an_oracle_disagreement_is_the_witness_over_a_miscount(monkeypatch):
    # the same dropping search planted before either model has its families:
    # the counts now fail too, and the witness still names the disagreement
    cfg = fm.ModelConfig("exception", ("e",), 2)
    search = ip.pairwise_search

    def dropping(*args, **kw):
        fams = search(*args, **kw)
        return fams[:-1] if len(fams) > 1 else fams

    monkeypatch.setattr(ip, "pairwise_search", dropping)
    free, plain = pl.build_model(cfg, range(3)), pl.build_model(cfg, ())
    rep = pl.verify_parametric_counts(free, plain)
    assert rep.status == "counterexample"
    assert rep.counts == {"n=0": 1, "n=1": 1, "n=2": 2}
    assert rep.witness == {"n": 1, "detail": "oracle disagreement", "naive": 2, "propagated": 1}


def test_typing_corpus_sizes():
    positives, negatives, _ = pl.typing_corpus()
    assert len(positives) >= 30
    assert len(negatives) >= 15
    rep = pl.verify_typing_corpus()
    assert rep.status == "verified", rep.witness


def test_typing_catches_a_stoup_always_routed_to_the_head(monkeypatch):
    # h x with x in the stoup and h : ^A -o ^B must hand the stoup to the argument
    positives, _, consts = pl.typing_corpus()
    monkeypatch.setattr(tc, "route_stoup", lambda delta, fn, arg: "none" if delta is None else "fn")
    rep = pl.verify_typing_corpus()
    assert rep.status == "counterexample"
    assert rep.witness["case"] == "pos-7"
    j, want = positives[7]
    with pytest.raises(tc.TypingError):
        tc.typecheck(j, consts)
    monkeypatch.undo()
    assert tc.typecheck(j, consts) is want


def test_metatheory_catches_an_oracle_lfun_rule_that_returns_an_arrow(monkeypatch):
    # the unicity oracle, derive_all_types, typing lfun x:A => t as A -> B
    # disagrees with the checker on a generated linear abstraction
    derive = tc.derive_all_types

    def planted(gamma, delta, t, constants={}):
        out = derive(gamma, delta, t, constants)
        return {Arrow(ty.dom, ty.cod) for ty in out} if isinstance(t, LinLam) else out

    monkeypatch.setattr(tc, "derive_all_types", planted)
    rep = pl.verify_metatheory(seed=2024)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "unicity"
    # the judgment the witness names fails unicity alone, and passes without the defect
    gen = TermGenerator(2024)
    j = next(j for j in (gen.random_judgment() for _ in range(200)) if rep.witness["detail"].startswith(f"{j.subject}:"))
    assert tc.check_unicity([j]).failures
    monkeypatch.undo()
    assert tc.check_unicity([j]).ok


def test_metatheory_catches_a_substitution_that_drops_the_replacement(monkeypatch):
    # a subst_term that returns the body unchanged leaves the substituted
    # variable free, so the checker rejects the result
    monkeypatch.setattr(tc, "subst_term", lambda body, var, replacement: body)
    rep = pl.verify_metatheory(seed=2024)
    assert rep.status == "counterexample"
    assert rep.witness["law"] == "substitution"
    assert rep.witness["detail"].startswith("substituted term rejected: UnboundVar")
    monkeypatch.undo()
    assert pl.verify_metatheory(seed=2024).status == "verified"


def test_cbpv_catches_u_translated_to_bang(monkeypatch):
    # U is erased: U(F 1) is F 1, which is !1, never !!1
    translate = enc.cbpv_translate_type

    def planted(t):
        return enc.encode_bang(planted(t.comp)) if isinstance(t, enc.CbpvU) else translate(t)

    monkeypatch.setattr(enc, "cbpv_translate_type", planted)
    rep = pl.verify_cbpv()
    assert rep.status == "counterexample"
    src, want = enc.CbpvU(enc.CbpvF(enc.CbpvUnit())), enc.encode_bang(enc.unit_type())
    assert (rep.witness["case"], rep.witness["want"]) == (1, str(want))
    assert enc.cbpv_translate_type(src) is not want
    monkeypatch.undo()
    assert enc.cbpv_translate_type(src) is want


def test_cbpv_report():
    rep = pl.verify_cbpv()
    assert rep.status == "verified", rep.witness
    assert rep.counts["types"] == 10


def test_report_json_shape(exc_free):
    rep = pl.verify_bang_cardinality(exc_free)
    data = json.loads(rep.to_json())
    assert data["theorem-id"] == "bang-cardinality"
    assert data["status"] == "verified"
    assert "runtime-ms" in data
    stable = json.loads(rep.to_json(include_runtime=False))
    assert "runtime-ms" not in stable


def test_verified_reports_are_reproducible(exc_free):
    a = pl.verify_bang_cardinality(exc_free).to_json(include_runtime=False)
    b = pl.verify_bang_cardinality(exc_free).to_json(include_runtime=False)
    assert a == b


def test_parametric_elements_decode(exc_free):
    poly = exc_free.interp_vtype(ip.TypeEnv(), enc.nary_op_type(0))
    vals = [ip.decode_value(exc_free, poly, i) for i in range(poly.size)]
    assert len(vals) == 1
    assert isinstance(vals[0], dict)  # a family, keyed by object id


@pytest.fixture(scope="module")
def pow_free():
    return pl.build_model(fm.ModelConfig("powerset", (), 2), range(3))


def test_bang_laws_hold_for_nondeterminism(pow_free):
    rep = pl.verify_bang_laws(pow_free)
    assert rep.status == "verified", rep.witness


def test_bang_cardinality_nondeterminism(pow_free):
    # |T A| counts the nonempty subsets: 0, 1, 3
    rep = pl.verify_bang_cardinality(pow_free, sizes=(0, 1, 2))
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"|A|=0": 0, "|A|=1": 1, "|A|=2": 3}


def test_free_algebra_nondeterminism(pow_free):
    rep = pl.verify_free_algebra(pow_free)
    assert rep.status == "verified", rep.witness


def test_free_algebra_identity_monad():
    model = pl.build_model(fm.ModelConfig("identity", (), 2), range(3))
    rep = pl.verify_free_algebra(model)
    assert rep.status == "verified", rep.witness


def test_powerset_monadic_count_at_bound_three():
    from polyeff import encodings as enc
    from polyeff import interp as ip
    from polyeff.kernel import VSORT, TyVar

    model = pl.build_model(fm.ModelConfig("powerset", (), 3), (2,))
    env = ip.TypeEnv().set(ip.VSORT, "A", fm.FinSet(2))
    poly = model.interp_vtype(env, enc.encode_bang(TyVar(VSORT, "A")))
    assert poly.size == 3


def test_parametric_counts_nondeterminism(pow_free):
    # |T(n)| for the nonempty-powerset monad: 0, 1, 3
    plain = pl.build_model(fm.ModelConfig("powerset", (), 2), ())
    rep = pl.verify_parametric_counts(pow_free, plain)
    assert rep.status == "verified", rep.witness
    assert rep.counts == {"n=0": 0, "n=1": 1, "n=2": 3}


def test_algop_nondeterminism_all_arities():
    for n, count in ((0, 0), (1, 1), (2, 3)):
        model = pl.build_model(fm.ModelConfig("powerset", (), 2), (n,))
        rep = pl.verify_algop_correspondence(model, n)
        assert rep.status == "verified", rep.witness
        assert rep.counts["parametric-elements"] == count


@pytest.mark.parametrize("suite", [pl.verify_rel_lifting, pl.verify_encoding_props],
                         ids=["rel-lifting", "encoding-props"])
def test_a_suite_lists_each_hom_space_once(monkeypatch, suite):
    calls = {}
    enumerate_homs = fm.enumerate_homs

    def counted(dom, cod, *cap):
        calls[dom, cod] = calls.get((dom, cod), 0) + 1
        return enumerate_homs(dom, cod, *cap)

    monkeypatch.setattr(fm, "enumerate_homs", counted)
    rep = suite(pl.build_model(fm.ModelConfig("exception", ("e",), 2), range(3)))
    assert rep.status == "verified", rep.witness
    assert calls
    assert max(calls.values()) == 1, f"{sum(calls.values())} listings of {len(calls)} hom spaces"


@pytest.mark.parametrize("suite", ["rel-axioms", "rel-lifting", "handler"])
def test_relation_suites_list_each_object_pair_once(monkeypatch, suite):
    # the suites read the model's relation spaces, which list each unordered
    # pair of objects once and take the converses for the other order
    calls = Counter()
    for name in ("enumerate_set_rels", "enumerate_alg_rels"):
        enumerate_rels = getattr(fm, name)
        monkeypatch.setattr(fm, name, lambda a, b, f=enumerate_rels: calls.update([frozenset((a, b))]) or f(a, b))
    rep, = cli.run_suite(suite, fm.ModelConfig(), 2024)
    assert rep.status == "verified", rep.witness
    assert calls
    assert max(calls.values()) == 1, f"{sum(calls.values())} listings of {len(calls)} object pairs"
