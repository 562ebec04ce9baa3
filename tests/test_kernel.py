"""Syntax-level properties: classification, substitution, alpha-equivalence."""

import itertools

import pytest
from hypothesis import given, strategies as st

from polyeff.kernel import (
    CSORT,
    VSORT,
    Arrow,
    Forall,
    Judgment,
    Kind,
    KindError,
    Lam,
    Lolli,
    TyVar,
    Var,
    alpha_canonical,
    all_type_var_names,
    alpha_eq,
    classify_type,
    free_type_vars,
    subst_term,
    subst_type,
    subst_type_in_term,
)
from polyeff import typecheck as tc
from polyeff.randterms import TermGenerator
from polyeff.surface import parse_term, parse_type


def test_lolli_is_a_value_type():
    assert classify_type(parse_type("^X -o ^Y")) is Kind.VALUE


def test_arrow_into_computation_is_a_computation_type():
    assert classify_type(parse_type("B -> ^X")) is Kind.COMPUTATION


def test_plain_forall_is_a_value_type():
    assert classify_type(parse_type("forall X. X -> X")) is Kind.VALUE


def test_quantifiers_preserve_computation_status():
    assert classify_type(parse_type("forall X. ^P")) is Kind.COMPUTATION
    assert classify_type(parse_type("forall ^X. ^X")) is Kind.COMPUTATION
    assert classify_type(parse_type("forall ^X. X")) is Kind.VALUE


def test_classification_is_deterministic():
    ty = parse_type("(^A -o ^B) -> forall X. X -> ^C")
    assert classify_type(ty) is classify_type(ty) is Kind.COMPUTATION


def test_lolli_rejects_value_operands():
    with pytest.raises(KindError):
        classify_type(Lolli(TyVar(VSORT, "B"), TyVar(CSORT, "C")))
    with pytest.raises(KindError):
        classify_type(Lolli(TyVar(CSORT, "C"), TyVar(VSORT, "B")))


def test_subst_type_variable_case():
    replacement = parse_type("B -> ^Y")
    assert subst_type(TyVar(CSORT, "X"), TyVar(CSORT, "X"), replacement) == replacement


def test_subst_type_bound_variable_shadows():
    ty = Forall(VSORT, "X", TyVar(VSORT, "X"))
    assert subst_type(ty, TyVar(VSORT, "X"), TyVar(VSORT, "Z")) == ty


def test_subst_type_sort_mismatch_rejected():
    with pytest.raises(KindError):
        subst_type(TyVar(CSORT, "X"), TyVar(CSORT, "X"), TyVar(VSORT, "B"))


def test_subst_type_avoids_capture():
    # (forall Y. X -> Y)[X := Y] must rename the binder
    ty = Forall(VSORT, "Y", Arrow(TyVar(VSORT, "X"), TyVar(VSORT, "Y")))
    out = subst_type(ty, TyVar(VSORT, "X"), TyVar(VSORT, "Y"))
    assert alpha_eq(out, Forall(VSORT, "Z", Arrow(TyVar(VSORT, "Y"), TyVar(VSORT, "Z"))))
    assert not alpha_eq(out, Forall(VSORT, "Z", Arrow(TyVar(VSORT, "Z"), TyVar(VSORT, "Z"))))


def _contains_lolli(ty):
    if isinstance(ty, Lolli):
        return True
    if isinstance(ty, Arrow):
        return _contains_lolli(ty.dom) or _contains_lolli(ty.cod)
    if isinstance(ty, Forall):
        return _contains_lolli(ty.body)
    return False


def test_substituting_into_monadic_body_keeps_value_class():
    # the body (B -> ^X) -> ^X stays a value type and lolli-free for any
    # computation type put at ^X; the classifier is the oracle
    body = parse_type("(B -> ^X) -> ^X")
    gen = TermGenerator(5)
    for _ in range(20):
        replacement = gen.random_type(2, Kind.COMPUTATION)
        out = subst_type(body, TyVar(CSORT, "X"), replacement)
        assert classify_type(out) is Kind.COMPUTATION
        assert classify_type(Arrow(out, TyVar(VSORT, "Z"))) is Kind.VALUE
        if not _contains_lolli(replacement):
            assert not _contains_lolli(out)


def test_subst_term_variable():
    t = parse_term("fun y:B => y")
    assert subst_term(Var("x"), "x", t) == t


def test_subst_term_capture_avoidance():
    # (fun y:B => x)[x := y] renames the binder
    body = Lam("y", TyVar(VSORT, "B"), Var("x"))
    out = subst_term(body, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == Var("y")


def test_subst_term_congruence():
    t = parse_term("u v")
    out = subst_term(t, "u", Var("w"))
    assert out == parse_term("w v")


def test_subst_term_protects_type_binders():
    # (Fun X => fun y:X => x)[x := fun z:X => z] must not capture the X
    # free in the replacement's annotation
    body = parse_term("Fun X => fun y:X => x")
    repl = parse_term("fun z:X => z")
    out = subst_term(body, "x", repl)
    assert out.binder != "X"


def test_subst_term_renames_a_type_binder_over_an_application():
    # s names X in its annotations only, so x:C -> C lies in no X; under
    # Fun X the binder must be renamed through an application, a type
    # application and a nested type abstraction
    s = parse_term("(fun z:X -> X => fun w:C => w) (fun v:X => v)")
    t = parse_term("Fun X => (fun h:C -> C => fun u:X => u) ((Fun Y => x) @[X])")
    assert all_type_var_names(t) == {"X", "Y", "C"}
    out = subst_term(t, "x", s)
    new = out.binder
    assert new not in all_type_var_names(s) | all_type_var_names(t)
    assert out == parse_term(f"Fun {new} => (fun h:C -> C => fun u:{new} => u) ((Fun Y => {s}) @[{new}])")
    sample = tc.SubstSample(1, (), None, "x", parse_type("C -> C"), t, s)
    rep = tc.check_substitution_lemma([sample])
    assert rep.ok and rep.total == 1, rep.failures


def test_subst_type_in_term_renames_a_type_binder_that_would_capture():
    # (Fun Y => fun x:X -> Y => x @[X])[X := Y]: the replacement's Y must not
    # fall under the Fun Y, which is renamed in its body
    t = parse_term("Fun Y => fun x:forall Z. X -> Y => x @[X]")
    out = subst_type_in_term(t, TyVar(VSORT, "X"), TyVar(VSORT, "Y"))
    new = out.binder
    assert new not in {"X", "Y", "Z"}
    assert out == parse_term(f"Fun {new} => fun x:forall Z. Y -> {new} => x @[Y]")
    # a binder that the replacement does not name stays, and one that rebinds X stops it
    assert subst_type_in_term(t, TyVar(VSORT, "X"), TyVar(VSORT, "W")) == parse_term("Fun Y => fun x:forall Z. W -> Y => x @[W]")
    assert subst_type_in_term(parse_term("Fun X => fun x:X => x"), TyVar(VSORT, "X"), TyVar(VSORT, "Y")) == \
        parse_term("Fun X => fun x:X => x")


def test_subst_term_stops_under_a_fun_that_rebinds_the_variable():
    # (x (fun x:B => x) (lfun x:^A => x))[x := y]: only the free x changes
    t = parse_term("x (fun x:B => x) (lfun x:^A => x)")
    assert subst_term(t, "x", Var("y")) == parse_term("y (fun x:B => x) (lfun x:^A => x)")
    assert subst_term(parse_term("fun y:B => fun x:B => x y"), "x", Var("y")) == \
        parse_term("fun y:B => fun x:B => x y")


def test_alpha_eq_binders():
    assert alpha_eq(parse_type("forall X. X -> X"), parse_type("forall Y. Y -> Y"))


def test_alpha_eq_distinct_sorts():
    assert not alpha_eq(Forall(VSORT, "X", TyVar(VSORT, "X")), Forall(CSORT, "X", TyVar(CSORT, "X")))


def test_alpha_eq_monadic_elaborations():
    from polyeff.encodings import encode_bang

    one = encode_bang(TyVar(VSORT, "B"))
    other = Forall(CSORT, "Q", Arrow(Arrow(TyVar(VSORT, "B"), TyVar(CSORT, "Q")), TyVar(CSORT, "Q")))
    assert alpha_eq(one, other)


def test_alpha_eq_distinguishes_free_variables():
    assert not alpha_eq(TyVar(VSORT, "X"), TyVar(VSORT, "Y"))
    assert alpha_eq(TyVar(VSORT, "X"), TyVar(VSORT, "X"))


def test_subst_commutes_with_alpha():
    gen = TermGenerator(9)
    for _ in range(25):
        body = gen.random_type(2)
        renamed = alpha_canonical(body)
        replacement = gen.random_type(1)
        for var in sorted(free_type_vars(body), key=str):
            if var.sort == CSORT and classify_type(replacement) is not Kind.COMPUTATION:
                continue
            assert alpha_eq(
                subst_type(body, var, replacement), subst_type(renamed, var, replacement)
            )


def test_alpha_canonical_is_alpha_invariant():
    a = parse_type("forall X. forall Y. X -> Y")
    b = parse_type("forall U. forall V. U -> V")
    assert alpha_canonical(a) == alpha_canonical(b)


def test_alpha_canonical_avoids_free_names():
    # a canonical binder named like a free variable would capture it
    a = parse_type("forall X. X -> b0")
    b = parse_type("forall X. X -> X")
    assert not alpha_eq(a, b)
    assert alpha_canonical(a) is not alpha_canonical(b)
    assert alpha_canonical(a) is alpha_canonical(parse_type("forall Y. Y -> b0"))


NAMES = st.sampled_from(["X", "Y", "b0", "b1"])
types = st.recursive(
    st.builds(TyVar, st.just(VSORT), NAMES) | st.builds(TyVar, st.just(CSORT), NAMES),
    lambda inner: (
        st.builds(Arrow, inner, inner)
        | st.builds(Lolli, inner, inner)
        | st.builds(Forall, st.just(VSORT), NAMES, inner)
        | st.builds(Forall, st.just(CSORT), NAMES, inner)
    ),
    max_leaves=8,
)


def rename_binders(t, names):
    """``t`` with its binders renamed in turn from ``names``, capture and all."""
    def go(t, env):
        if isinstance(t, TyVar):
            return TyVar(t.sort, env.get((t.sort, t.name), t.name))
        if isinstance(t, (Arrow, Lolli)):
            return type(t)(go(t.dom, env), go(t.cod, env))
        new = next(names)
        return Forall(t.sort, new, go(t.body, {**env, (t.sort, t.binder): new}))

    return go(t, {})


@given(types, types, st.lists(NAMES, min_size=1, max_size=4), st.booleans())
def test_alpha_canonical_decides_alpha_eq(s, other, names, renamed):
    t = rename_binders(s, itertools.cycle(names)) if renamed else other
    assert (alpha_canonical(s) is alpha_canonical(t)) == alpha_eq(s, t)


def test_judgment_validation():
    Judgment((("x", TyVar(VSORT, "B")),), None, Var("x")).validate()
    with pytest.raises(ValueError):
        Judgment((("x", TyVar(VSORT, "B")),), ("x", TyVar(CSORT, "A")), Var("x")).validate()
    with pytest.raises(KindError):
        Judgment((), ("x", TyVar(VSORT, "B")), Var("x")).validate()
