"""Definable types and terms: expansions, freshness, positivity, translation."""


import pytest

from polyeff import encodings as enc
from polyeff import finmodel as fm
from polyeff import typecheck as tc
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
    alpha_eq,
    classify_type,
    free_type_var_keys,
)
from polyeff.surface import parse_term, parse_type


A, B = TyVar(VSORT, "A"), TyVar(VSORT, "B")
cA, cB = TyVar(CSORT, "A"), TyVar(CSORT, "B")


def test_product_expansion():
    assert alpha_eq(
        enc.pair_type(VSORT, A, B),
        parse_type("forall X. (A -> B -> X) -> X"),
    )


def test_empty_expansion():
    assert alpha_eq(enc.zero_type(VSORT), parse_type("forall X. X"))


def test_unit_and_sum_expansions():
    assert alpha_eq(enc.unit_type(), parse_type("forall X. X -> X"))
    assert alpha_eq(
        enc.sum_type(VSORT, A, B),
        parse_type("forall X. (A -> X) -> (B -> X) -> X"),
    )


def test_existential_expansions():
    assert alpha_eq(
        enc.exists_type(VSORT, VSORT, "X", Arrow(TyVar(VSORT, "X"), B)),
        parse_type("forall Y. (forall X. (X -> B) -> Y) -> Y"),
    )
    assert alpha_eq(
        enc.exists_type(VSORT, CSORT, "X", Arrow(TyVar(CSORT, "X"), B)),
        parse_type("forall Y. (forall ^X. (^X -> B) -> Y) -> Y"),
    )


def test_mu_is_instance_of_schema():
    assert alpha_eq(
        enc.mu_type(VSORT, "X", TyVar(VSORT, "X")),
        parse_type("forall X. (X -> X) -> X"),
    )


def test_nu_unfolds_through_existential_and_product():
    got = enc.nu_type(VSORT, "X", Arrow(B, TyVar(VSORT, "X")))
    want = enc.exists_type(
        VSORT, VSORT, "X", enc.pair_type(VSORT, Arrow(TyVar(VSORT, "X"), Arrow(B, TyVar(VSORT, "X"))), TyVar(VSORT, "X"))
    )
    assert alpha_eq(got, want)


def test_computation_zero_expansion():
    assert alpha_eq(enc.zero_type(CSORT), parse_type("forall ^X. ^X"))


def test_oplus_expansion():
    assert alpha_eq(
        enc.sum_type(CSORT, cA, cB),
        parse_type("forall ^X. (^A -o ^X) -> (^B -o ^X) -> ^X"),
    )


def test_copower_expansion():
    assert alpha_eq(
        enc.pair_type(CSORT, B, cA),
        parse_type("forall ^X. (B -> ^A -o ^X) -> ^X"),
    )


def test_unitc_routes_through_empty_type():
    assert alpha_eq(
        enc.unit_comp_type(),
        parse_type("forall ^X. (forall Y. Y) -> ^X"),
    )


def test_prodc_routes_through_sum_of_homs():
    got = enc.prod_comp_type(cA, cB)
    want = Forall(CSORT, 
        "X",
        Arrow(
            enc.sum_type(VSORT, Lolli(cA, TyVar(CSORT, "X")), Lolli(cB, TyVar(CSORT, "X"))),
            TyVar(CSORT, "X"),
        ),
    )
    assert alpha_eq(got, want)


def test_every_computation_expansion_classifies_computation():
    cases = [
        enc.unit_comp_type(),
        enc.prod_comp_type(cA, cB),
        enc.zero_type(CSORT),
        enc.sum_type(CSORT, cA, cB),
        enc.pair_type(CSORT, B, cA),
        enc.exists_type(CSORT, VSORT, "X", Arrow(TyVar(VSORT, "X"), cB)),
        enc.exists_type(CSORT, CSORT, "X", Arrow(B, TyVar(CSORT, "X"))),
        enc.mu_type(CSORT, "X", Arrow(B, TyVar(CSORT, "X"))),
        enc.nu_type(CSORT, "X", Arrow(B, TyVar(CSORT, "X"))),
    ]
    for ty in cases:
        assert classify_type(ty) is Kind.COMPUTATION


def test_every_value_expansion_classifies_value():
    cases = [
        enc.unit_type(),
        enc.pair_type(VSORT, A, B),
        enc.zero_type(VSORT),
        enc.sum_type(VSORT, A, B),
        enc.exists_type(VSORT, VSORT, "X", Arrow(TyVar(VSORT, "X"), B)),
        enc.mu_type(VSORT, "X", TyVar(VSORT, "X")),
        enc.nu_type(VSORT, "X", Arrow(B, TyVar(VSORT, "X"))),
        enc.exists_type(VSORT, CSORT, "X", Arrow(TyVar(CSORT, "X"), B)),
    ]
    for ty in cases:
        assert classify_type(ty) is Kind.VALUE


def test_expansion_freshness_against_adversarial_names():
    # arguments already mentioning the canonical binder names must not be captured
    adversarial = parse_type("X -> Y")
    out = enc.pair_type(VSORT, adversarial, TyVar(VSORT, "X"))
    assert isinstance(out, Forall) and out.sort == VSORT
    assert out.binder not in {"X", "Y"}
    out2 = enc.pair_type(CSORT, TyVar(VSORT, "X"), TyVar(CSORT, "X"))
    assert out2.binder != "X"
    bang = enc.encode_bang(Forall(CSORT, "X", TyVar(CSORT, "X")))
    inner = bang.body.dom.dom  # the payload inside (B -> ^fresh) -> ^fresh
    assert alpha_eq(inner, Forall(CSORT, "X", TyVar(CSORT, "X")))


def test_positivity_enforced():
    with pytest.raises(enc.PositivityError):
        enc.mu_type(VSORT, "X", Arrow(TyVar(VSORT, "X"), B))
    with pytest.raises(enc.PositivityError):
        enc.nu_type(CSORT, "X", Arrow(TyVar(CSORT, "X"), cB))
    # an occurrence left of an even number of arrows is positive again
    enc.mu_type(CSORT, "X", Arrow(Lolli(TyVar(CSORT, "X"), cB), TyVar(CSORT, "X")))
    enc.mu_type(VSORT, "X", Arrow(Arrow(TyVar(VSORT, "X"), B), B))


def test_monadic_type_examples():
    assert alpha_eq(
        enc.encode_bang(enc.unit_type()),
        parse_type("forall ^X. ((forall Y. Y -> Y) -> ^X) -> ^X"),
    )
    shadowy = Forall(CSORT, "X", TyVar(CSORT, "X"))
    out = enc.encode_bang(shadowy)
    assert out.binder != "X"
    assert classify_type(enc.encode_bang(B)) is Kind.COMPUTATION


def test_bang_payload_recognition():
    assert enc.bang_payload(enc.encode_bang(Arrow(A, B))) == Arrow(A, B)
    assert enc.bang_payload(parse_type("forall ^X. ^X")) is None
    # the bound variable must not leak into the payload
    assert enc.bang_payload(parse_type("forall ^X. (^X -> ^X) -> ^X")) is None


def test_bang_intro_and_let_typecheck_at_derived_rules():
    gamma = (("t", B), ("p", Arrow(B, cA)))
    intro = enc.elaborate_bang_intro(Var("t"), B)
    assert alpha_eq(tc.synth(gamma, None, intro), enc.encode_bang(B))
    let = enc.elaborate_let("x", intro, parse_term("p x"), B, cA)
    assert alpha_eq(tc.synth(gamma, None, let), cA)


def test_let_threads_stoup_into_bound_term():
    gamma = (("p", Arrow(B, cA)),)
    delta = ("z", enc.encode_bang(B))
    let = enc.elaborate_term(parse_term("let x <= z in p x"), gamma, delta)
    assert alpha_eq(tc.synth(gamma, delta, let), cA)
    # ... and never into the body
    with pytest.raises(tc.TypingError):
        enc.elaborate_term(parse_term("let x <= bang y in z"), (("y", B),), delta)


def test_girard_terms_typecheck_at_stated_types():
    fwd, bwd = enc.girard_iso_terms(A, cB)
    bang_a = enc.encode_bang(A)
    assert alpha_eq(tc.synth((), None, fwd), Arrow(Arrow(A, cB), Lolli(bang_a, cB)))
    assert alpha_eq(tc.synth((), None, bwd), Arrow(Lolli(bang_a, cB), Arrow(A, cB)))


def test_cbpv_translation_examples():
    unit = enc.CbpvUnit()
    got = enc.cbpv_translate_type(enc.CbpvF(unit))
    assert alpha_eq(got, enc.encode_bang(enc.unit_type()))
    # U is erased
    assert alpha_eq(
        enc.cbpv_translate_type(enc.CbpvU(enc.CbpvF(unit))),
        enc.cbpv_translate_type(enc.CbpvF(unit)),
    )
    assert alpha_eq(
        enc.cbpv_translate_type(enc.CbpvProd(unit, unit)),
        enc.pair_type(VSORT, enc.unit_type(), enc.unit_type()),
    )


def test_effect_constant_signatures():
    sigs = enc.register_effect_constants(fm.MonadSpec("powerset"))
    assert alpha_eq(sigs["or"], parse_type("forall ^X. ^X -> ^X -> ^X"))
    sigs = enc.register_effect_constants(fm.MonadSpec("exception", ("e",)))
    assert alpha_eq(sigs["raise^e"], parse_type("forall ^X. ^X"))
    handler_src = parse_type("forall X. (2 -> !X) -o !X")
    assert alpha_eq(sigs["handle^e"], handler_src)
    with pytest.raises(fm.ModelError):
        fm.MonadSpec("state")


@pytest.mark.parametrize("monad, exceptions", [
    ("identity", ()), ("powerset", ()),
    *(("exception", tuple(f"e{k}" for k in range(n))) for n in range(4)),
])
def test_effect_constant_schemes_are_closed_and_well_kinded(monad, exceptions):
    for name, scheme in enc.register_effect_constants(fm.MonadSpec(monad, exceptions)).items():
        assert free_type_var_keys(scheme) == frozenset(), name
        classify_type(scheme)


def test_two_is_one_plus_one():
    assert alpha_eq(
        enc.encode_num(2),
        enc.sum_type(VSORT, enc.unit_type(), enc.unit_type()),
    )
    assert alpha_eq(enc.encode_num(0), enc.zero_type(VSORT))


def test_sum_intro_case_typecheck():
    gamma = (("a", A), ("f", Arrow(A, cB)), ("g", Arrow(B, cB)))
    inj = enc.injection(0, A, B, Var("a"), VSORT)
    assert alpha_eq(tc.synth(gamma, None, inj), enc.sum_type(VSORT, A, B))
    scrutinee = enc.case_term(inj, cB, Var("f"), Var("g"))
    assert alpha_eq(tc.synth(gamma, None, scrutinee), cB)


def test_oplus_intro_accepts_the_stoup():
    j = Judgment((), ("a", cA), enc.injection(0, cA, cB, Var("a"), CSORT))
    assert alpha_eq(tc.typecheck(j), enc.sum_type(CSORT, cA, cB))
