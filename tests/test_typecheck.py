"""The stoup type system: rule conformance, unicity, substitution, weakening."""

import json

import pytest

from polyeff import encodings as enc
from polyeff import finmodel as fm
from polyeff import typecheck as tc
from polyeff.kernel import (
    CSORT,
    VSORT,
    App,
    Arrow,
    Forall,
    Judgment,
    Kind,
    Lam,
    LinLam,
    Lolli,
    TyApp,
    TyLam,
    TyVar,
    Var,
    alpha_eq,
    classify_type,
)
from polyeff.randterms import TermGenerator
from polyeff.surface import parse_term, parse_type


def check(gamma=(), delta=None, subject=None, expected=None, constants={}):
    ty = tc.typecheck(Judgment(tuple(gamma), delta, subject), constants)
    if expected is not None:
        assert alpha_eq(ty, expected), f"got {ty}, want {expected}"
    return ty


def reject(gamma=(), delta=None, subject=None, code=None, constants={}):
    with pytest.raises(tc.TypingError) as err:
        tc.typecheck(Judgment(tuple(gamma), delta, subject), constants)
    if code is not None:
        assert err.value.code is code, err.value
    return err.value


def test_stoup_axiom():
    check(delta=("x", TyVar(CSORT, "A")), subject=Var("x"), expected=TyVar(CSORT, "A"))


def test_identity_function():
    check(subject=parse_term("fun x:B => x"), expected=parse_type("B -> B"))


def test_monadic_introduction_rule():
    # Fun ^X => fun p:B -> ^X => p t  :  !B,  given t : B
    check(
        gamma=(("t", TyVar(VSORT, "B")),),
        subject=parse_term("Fun ^X => fun p:B -> ^X => p t"),
        expected=enc.encode_bang(TyVar(VSORT, "B")),
    )


def test_stoup_duplication_rejected():
    # the rule set itself is the oracle: no derivation routes one stoup
    # binding into two argument positions
    reject(
        gamma=(("f", Arrow(TyVar(CSORT, "A"), Arrow(TyVar(CSORT, "A"), TyVar(CSORT, "A")))),),
        delta=("x", TyVar(CSORT, "A")),
        subject=parse_term("f x x"),
        code=tc.ErrorCode.STOUP_VIOLATION,
    )


def test_unused_stoup_rejected():
    reject(
        gamma=(("t", TyVar(CSORT, "A")),),
        delta=("x", TyVar(CSORT, "A")),
        subject=Var("t"),
        code=tc.ErrorCode.STOUP_VIOLATION,
    )


def test_linear_application_routes_stoup_to_argument():
    check(
        gamma=(("h", Lolli(TyVar(CSORT, "A"), TyVar(CSORT, "B"))),),
        delta=("x", TyVar(CSORT, "A")),
        subject=parse_term("h x"),
        expected=TyVar(CSORT, "B"),
    )


def test_ordinary_application_keeps_stoup_on_head():
    check(
        gamma=(("t", TyVar(VSORT, "B")),),
        delta=("x", TyVar(CSORT, "A")),
        subject=App(Lam("y", TyVar(VSORT, "B"), Var("x")), Var("t")),
        expected=TyVar(CSORT, "A"),
    )


def test_type_abstraction_over_nonempty_stoup():
    check(
        delta=("x", TyVar(CSORT, "A")),
        subject=TyLam(CSORT, "Y", Var("x")),
        expected=Forall(CSORT, "Y", TyVar(CSORT, "A")),
    )


def test_escaping_type_variable_rejected():
    reject(
        delta=("x", TyVar(CSORT, "X")),
        subject=TyLam(CSORT, "X", Var("x")),
        code=tc.ErrorCode.ESCAPING_TYVAR,
    )


def test_linear_lambda_needs_empty_stoup():
    reject(
        delta=("x", TyVar(CSORT, "A")),
        subject=LinLam("y", TyVar(CSORT, "A"), Var("y")),
        code=tc.ErrorCode.STOUP_VIOLATION,
    )


def test_linear_lambda_needs_computation_annotation():
    reject(
        subject=LinLam("y", TyVar(VSORT, "B"), Var("y")),
        code=tc.ErrorCode.NON_COMPUTATION_STOUP,
    )


def test_argument_type_mismatch():
    reject(
        gamma=(("f", Arrow(TyVar(VSORT, "B"), TyVar(VSORT, "B"))), ("y", TyVar(VSORT, "C"))),
        subject=parse_term("f y"),
        code=tc.ErrorCode.APP_MISMATCH,
    )


B_, C_ = TyVar(VSORT, "B"), TyVar(VSORT, "C")
cA_, cB_, cC_ = TyVar(CSORT, "A"), TyVar(CSORT, "B"), TyVar(CSORT, "C")
STOUP, APP, KIND = tc.ErrorCode.STOUP_VIOLATION, tc.ErrorCode.APP_MISMATCH, tc.ErrorCode.KIND_MISMATCH


@pytest.mark.parametrize("gamma, delta, subject, code, detail", [
    ((("f", Arrow(cA_, cB_)),), ("x", cA_), parse_term("f x"),
     STOUP, "ordinary application cannot route the stoup into its argument"),
    ((("h", Lolli(cA_, Lolli(cB_, cC_))), ("y", cB_)), ("x", cA_), parse_term("(h x) y"),
     STOUP, "stoup judgment produced value type ^B -o ^C"),
    ((("x", B_),), None, parse_term("x x"), APP, "application of non-function type B"),
    ((("y", B_),), ("x", cA_), parse_term("y x"), APP, "application of non-function type B"),
    ((("f", Arrow(B_, B_)), ("y", C_)), None, parse_term("f y"),
     APP, "argument type C does not match -> domain B"),
    ((("h", Lolli(cA_, cB_)), ("y", cC_)), None, parse_term("h y"),
     APP, "argument type ^C does not match -o domain ^A"),
    ((("h", Lolli(cA_, cB_)),), ("x", cC_), parse_term("h x"),
     APP, "argument type ^C does not match -o domain ^A"),
    ((("f", Forall(VSORT, "X", TyVar(VSORT, "X"))),), None, TyApp(VSORT, Var("f"), cB_),
     KIND, "value-type application at computation type ^B"),
    ((("f", Forall(VSORT, "X", TyVar(VSORT, "X"))),), None, TyApp(CSORT, Var("f"), B_),
     KIND, "computation-type application at value type B"),
    ((("f", Forall(CSORT, "X", TyVar(CSORT, "X"))),), None, TyApp(VSORT, Var("f"), B_),
     APP, "type application of non-polymorphic type forall ^X. ^X"),
    ((("f", cA_),), None, TyApp(CSORT, Var("f"), cB_),
     APP, "type application of non-polymorphic type ^A"),
], ids=["arrow-head-given-the-stoup", "linear-head-under-the-stoup", "non-function",
        "non-function-given-the-stoup", "arrow-domain", "lolli-domain",
        "lolli-domain-given-the-stoup", "value-application-at-computation-type",
        "computation-application-at-value-type", "value-application-of-computation-forall",
        "computation-application-of-non-forall"])
def test_application_errors_name_their_rule(gamma, delta, subject, code, detail):
    err = reject(gamma=gamma, delta=delta, subject=subject, code=code)
    assert err.detail == detail


@pytest.mark.parametrize("gamma, delta, subject, detail", [
    ((("x", B_),), ("s", cC_), parse_term("fun s:B => s"), "binder 's' hides the stoup binding of that name"),
    ((("x", B_),), ("s", cC_), parse_term("fun s:B => zzz"), "binder 's' hides the stoup binding of that name"),
    ((("x", cA_), ("h", Lolli(cA_, Arrow(cA_, cC_)))), None, parse_term("lfun x:^A => (h x) x"),
     "stoup variable 'x' used in both sides of an application"),
], ids=["fun-binder-hides-the-stoup", "fun-binder-hides-an-unused-stoup", "lfun-binder-shadows-the-context"])
def test_a_shadowing_binder_is_checked_as_written(gamma, delta, subject, detail):
    # the error names the binder as written, not a renaming of it; the oracle
    # derives nothing either, so its lfun renaming keeps the outer x out of reach
    assert reject(gamma=gamma, delta=delta, subject=subject, code=STOUP).detail == detail
    assert tc.derive_all_types(gamma, delta, subject) == set()
    assert tc.check_unicity([Judgment(gamma, delta, subject)]).ok


def test_a_binder_hiding_the_stoup_reports_its_annotation_first():
    reject(delta=("s", cC_), subject=Lam("s", Lolli(B_, cC_), Var("s")), code=KIND)


def test_ascription_checked():
    j = Judgment((), None, parse_term("fun x:B => x"), parse_type("B -> C"))
    with pytest.raises(tc.TypingError):
        tc.typecheck(j)


def test_constants_resolved_from_table():
    consts = enc.register_effect_constants(fm.MonadSpec("powerset"))
    check(
        subject=Var("or"),
        expected=parse_type("forall ^X. ^X -> ^X -> ^X"),
        constants=consts,
    )
    reject(subject=Var("or"), code=tc.ErrorCode.UNBOUND_VAR)


def test_error_json_shape():
    err = reject(subject=Var("nope"), code=tc.ErrorCode.UNBOUND_VAR)
    data = json.loads(err.to_json())
    assert set(data) == {"code", "span", "detail"}
    assert data["code"] == "UnboundVar"


def test_stoup_conclusions_are_computation_types():
    # the generator draws a stoup for about 2 judgments in 5; check 40 of them
    gen = TermGenerator(21)
    checked = 0
    while checked < 40:
        j = gen.random_judgment()
        if j.delta is not None:
            assert classify_type(tc.typecheck(j)) is Kind.COMPUTATION
            checked += 1


# -- unicity ---------------------------------------------------------------


def test_unicity_identity():
    types = tc.derive_all_types((), None, parse_term("fun x:B => x"))
    assert len(types) == 1


def test_unicity_monadic_elaboration():
    term = parse_term("Fun ^X => fun p:B -> ^X => p t")
    types = tc.derive_all_types((("t", TyVar(VSORT, "B")),), None, term)
    assert len(types) == 1
    assert alpha_eq(next(iter(types)), parse_type("forall ^X. (B -> ^X) -> ^X"))


def test_unicity_on_random_corpus():
    gen = TermGenerator(99)
    corpus = [gen.random_judgment() for _ in range(50)]
    rep = tc.check_unicity(corpus)
    assert rep.ok, rep.failures[:3]
    assert rep.total == 50


# -- substitution ----------------------------------------------------------


def test_substitution_variable_case():
    s = parse_term("fun y:C => y")
    sample = tc.SubstSample(1, (), None, "x", parse_type("C -> C"), Var("x"), s)
    rep = tc.check_substitution_lemma([sample])
    assert rep.ok, rep.failures


def test_substitution_stoup_case():
    sample = tc.SubstSample(
        2, (), ("z", TyVar(CSORT, "A")), "x", TyVar(CSORT, "A"), Var("x"), Var("z")
    )
    rep = tc.check_substitution_lemma([sample])
    assert rep.ok, rep.failures


def test_substitution_on_random_pairs():
    gen = TermGenerator(123)
    samples = [gen.random_subst_sample(1) for _ in range(50)]
    samples += [gen.random_subst_sample(2) for _ in range(50)]
    rep = tc.check_substitution_lemma(samples)
    assert rep.ok, rep.failures[:3]
    assert rep.total == 100


def test_weakening_preserves_types():
    gen = TermGenerator(7)
    for _ in range(30):
        j = gen.random_judgment()
        for pos in (0, len(j.gamma)):
            gamma = j.gamma[:pos] + (("unused_w", TyVar(VSORT, "W")),) + j.gamma[pos:]
            ty = tc.typecheck(Judgment(gamma, j.delta, j.subject))
            assert alpha_eq(ty, j.ascription)
