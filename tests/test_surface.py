"""Parser and printer: structure, round trips, precedence, spans."""

import pytest

from polyeff import encodings as enc
from polyeff import surface
from polyeff.encodings import BangTerm, LetTerm
from polyeff.kernel import (
    CSORT,
    VSORT,
    Arrow,
    Forall,
    Kind,
    LinLam,
    Lolli,
    TyApp,
    TyVar,
    Var,
    alpha_eq,
    classify_type,
)
from polyeff.randterms import TermGenerator
from polyeff.surface import (
    MAX_NUMERAL,
    MAX_PARENS,
    MAX_TYPE_DEPTH,
    SyntaxErr,
    parse_file,
    parse_term,
    parse_type,
)


def test_parse_monadic_shape():
    ty = parse_type("forall ^X. (B -> ^X) -> ^X")
    assert ty == Forall(CSORT, "X", Arrow(Arrow(TyVar(VSORT, "B"), TyVar(CSORT, "X")), TyVar(CSORT, "X")))


def test_parse_linear_lambda():
    t = parse_term("lfun x:^A => x")
    assert t == LinLam("x", TyVar(CSORT, "A"), Var("x"))


def test_parse_expands_bang_to_its_encoding():
    ty = parse_type("!B")
    assert alpha_eq(ty, enc.encode_bang(TyVar(VSORT, "B")))


def test_parse_let_and_bang_terms():
    t = parse_term("let x <= bang y in bang x")
    assert t == LetTerm("x", BangTerm(Var("y")), BangTerm(Var("x")))


def test_arrows_are_right_associative():
    assert parse_type("A -> B -> C") == Arrow(TyVar(VSORT, "A"), Arrow(TyVar(VSORT, "B"), TyVar(VSORT, "C")))


def test_arrow_and_lolli_share_precedence():
    ty = parse_type("(^A -o ^B) -> ^C")
    assert ty == Arrow(Lolli(TyVar(CSORT, "A"), TyVar(CSORT, "B")), TyVar(CSORT, "C"))


def test_quantifiers_extend_right():
    ty = parse_type("forall X. X -> forall Y. Y")
    assert ty == Forall(VSORT, "X", Arrow(TyVar(VSORT, "X"), Forall(VSORT, "Y", TyVar(VSORT, "Y"))))
    ty2 = parse_type("^A -o forall ^X. ^X")
    assert ty2 == Lolli(TyVar(CSORT, "A"), Forall(CSORT, "X", TyVar(CSORT, "X")))


def test_sugar_precedence():
    # products bind tighter than sums, copower tighter than products
    prod = enc.pair_type(VSORT, enc.encode_num(1), enc.encode_num(2))
    assert alpha_eq(parse_type("1 * 2 + 0"), enc.sum_type(VSORT, prod, enc.encode_num(0)))
    copower = enc.pair_type(CSORT, TyVar(VSORT, "B"), TyVar(CSORT, "A"))
    assert alpha_eq(parse_type("B . ^A -o ^X"), Lolli(copower, TyVar(CSORT, "X")))


def test_type_application_routes_on_argument_class():
    assert parse_term("f @[B]").sort == VSORT
    assert parse_term("f @[^B]").sort == CSORT
    assert parse_term("f @[!B]").sort == CSORT


def test_compound_constant_names():
    assert parse_term("raise^e") == Var("raise^e")
    assert parse_term("handle^e2 @[X] u") == __import__("polyeff.kernel", fromlist=["App"]).App(
        TyApp(VSORT, Var("handle^e2"), TyVar(VSORT, "X")), Var("u")
    )


def test_comments_ignored():
    decls = parse_file("-- nothing here\ntype T = 1 -- trailing\n")
    assert len(decls) == 1


def test_parse_file_declarations():
    decls = parse_file("type T = B -> B\ndef i : T = fun x:B => x")
    assert isinstance(decls[0], surface.TypeDecl)
    assert isinstance(decls[1], surface.TermDecl)
    assert decls[1].name == "i"


def test_syntax_error_has_span_and_expectations():
    with pytest.raises(SyntaxErr) as err:
        parse_type("forall . X")
    assert err.value.span.start[0] == 1
    assert err.value.expected


def test_ill_kinded_lolli_rejected_at_parse_time():
    with pytest.raises(SyntaxErr) as err:
        parse_type("B -o ^C")
    assert err.value.message == "ill-kinded -o: -o domain is not a computation type: B"
    assert str(err.value.span) == "<input>:1:3-1:5"


def test_computation_existentials_classify_under_lolli():
    for src in ("(exists ^X. ^X) -o exists ^X. ^X", "(exists X. X -> ^B) -o ^C"):
        assert classify_type(parse_type(src)) is Kind.VALUE
    assert classify_type(parse_type("exists ^X. ^X")) is Kind.COMPUTATION


def test_abbreviation_of_a_computation_type():
    decls = parse_file("type M = !B\ndef k : M -o M = lfun m:M => m\ndef g : B = f @[M]")
    bang_b = enc.encode_bang(TyVar(VSORT, "B"))
    assert decls[1].ty == Lolli(bang_b, bang_b)
    assert decls[1].term == LinLam("m", bang_b, Var("m"))
    assert decls[2].term == TyApp(CSORT, Var("f"), bang_b)


def test_sugar_without_a_kind_is_a_syntax_error_where_its_kind_is_needed():
    # the operands of *o are checked at the operator, before @[...] asks
    # for the kind of the whole
    with pytest.raises(SyntaxErr) as err:
        parse_term("f @[^A *o B]")
    assert err.value.message == "ill-kinded *o: *o right operand is not a computation type: B"
    assert str(err.value.span) == "<input>:1:8-1:10"


@pytest.mark.parametrize("src, message, span", [
    ("type P = ^A *o B", "ill-kinded *o: *o right operand is not a computation type: B", "1:13-1:15"),
    ("type P = B *o ^A", "ill-kinded *o: *o left operand is not a computation type: B", "1:12-1:14"),
    ("type P = B (+) ^A", "ill-kinded (+): (+) left operand is not a computation type: B", "1:12-1:15"),
    ("type P = ^A (+) Y -> Z", "ill-kinded (+): (+) right operand is not a computation type: Y", "1:13-1:16"),
    ("type P = B . C -> D", "ill-kinded .: . right operand is not a computation type: C", "1:12-1:13"),
    ("type P = mu ^X. B -> X", "ill-kinded mu: mu body is not a computation type: B -> X", "1:10-1:12"),
    ("type P = nu ^X. B", "ill-kinded nu: nu body is not a computation type: B", "1:10-1:12"),
    ("type P = A -o ^B", "ill-kinded -o: -o domain is not a computation type: A", "1:12-1:14"),
])
def test_computation_operators_check_their_operands_at_the_operator(src, message, span):
    with pytest.raises(SyntaxErr) as err:
        parse_file(src, "f.pe")
    assert err.value.message == message
    assert str(err.value.span) == f"f.pe:{span}"


def test_computation_operators_accept_computation_operands():
    for src in ("^A *o ^B", "^A (+) 1o", "B . ^A", "mu ^X. B -> ^X", "nu ^X. (B -> ^X) *o ^X"):
        assert classify_type(parse_type(src)) is Kind.COMPUTATION, src


def test_non_positive_recursion_is_a_syntax_error_at_its_binder():
    with pytest.raises(SyntaxErr) as err:
        parse_file("type Ok = mu X. B -> X\ntype Bad = nu ^X. ^X -> ^X\n", "f.pe")
    assert err.value.message == "^X occurs negatively in ^X -> ^X"
    assert str(err.value.span) == "f.pe:2:16-2:17"


@pytest.mark.parametrize("src, message, span", [
    ("f @[²]", "unexpected character '²'", "1:5-1:6"),
    ("f @[1²]", "bad numeric token '1²'", "1:5-1:7"),
    ("f @[33]", "numeral 33 is above 32", "1:5-1:7"),
    ("f @[" + "9" * 5000 + "]", f"numeral {'9' * 5000} is above 32", "1:5-1:5005"),
])
def test_a_numeral_int_cannot_read_or_past_the_limit_is_a_syntax_error(src, message, span):
    # str.isdigit holds for "²", which int() rejects; a numeral past the limit
    # would encode to a type too deep to check, and one of 5000 digits past
    # the digits int() reads
    with pytest.raises(SyntaxErr) as err:
        parse_term(src)
    assert err.value.message == message
    assert str(err.value.span) == f"<input>:{span}"


def test_the_largest_numeral_parses_and_prints():
    ty = parse_type(f"{MAX_NUMERAL} -> {MAX_NUMERAL}")
    assert ty == Arrow(enc.encode_num(MAX_NUMERAL), enc.encode_num(MAX_NUMERAL))
    assert alpha_eq(parse_type(str(ty)), ty)


@pytest.mark.parametrize("parse, src, col", [
    (parse_type, "(" * 200 + "X" + ")" * 200, 101),
    (parse_term, "f @[" + "(" * 200 + "2" + ")" * 200 + "]", 105),
    (parse_file, "def f : B = " + "(" * 200 + "x" + ")" * 200, 113),
])
def test_parentheses_nested_past_the_limit_are_a_syntax_error_at_the_first_one_past_it(parse, src, col):
    assert MAX_PARENS == 100
    with pytest.raises(SyntaxErr) as err:
        parse(src)
    assert err.value.message == "input nests too deeply"
    assert str(err.value.span) == f"<input>:1:{col}-1:{col + 1}"
    parse(src.replace("(" * 200, "(" * 100).replace(")" * 200, ")" * 100))


@pytest.mark.parametrize("parse, src", [
    (parse_type, "!" * 1200 + "X"),
    (parse_term, "bang " * 1200 + "x"),
    (parse_file, "def f : B = " + "fun x:B => " * 1200 + "x"),
])
def test_input_nested_past_the_recursion_limit_is_a_syntax_error(parse, src):
    with pytest.raises(SyntaxErr) as err:
        parse(src)
    assert err.value.message == "input nests too deeply"
    assert err.value.span.start[0] == 1


@pytest.mark.parametrize("src, col", [
    ("!" * 41 + "2", 43),
    ("2" + " + 2" * 41, 166),
    ("forall X. " * 130 + "X", 1302),
])
def test_a_type_past_the_depth_bound_is_a_syntax_error_at_the_token_reached(src, col):
    # each ! and each + wraps its operand 3 nodes deeper, each forall 1; the
    # bound is fixed, so the error does not move with Python's frame budget
    assert MAX_TYPE_DEPTH == 128
    with pytest.raises(SyntaxErr) as err:
        parse_type(src)
    assert err.value.message == "input nests too deeply"
    assert str(err.value.span) == f"<input>:1:{col}-1:{col}"


def test_a_type_at_the_depth_bound_parses_and_prints():
    ty = parse_type("!" * 40 + "2 -> 2")  # 128 nodes on its longest path
    assert alpha_eq(parse_type(str(ty)), ty)


ROUND_TRIP_CASES = [
    "forall ^X. (B -> ^X) -> ^X",
    "(^A -o ^B) -> ^C",
    "!(B -> ^X)",
    "1 * (2 + 0)",
    "B . ^A -o ^X",
    "exists X. X -> B",
    "mu X. B -> X",
    "nu X. B -> X",
    "1o *o 0o",
    "^A (+) ^B",
    "forall X. forall ^Y. (X -> ^Y) -> ^Y",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CASES)
def test_type_round_trip(src):
    ty = parse_type(src)
    assert parse_type(str(ty)) == ty


TERM_ROUND_TRIP_CASES = [
    "fun x:B => x",
    "lfun x:^A => x",
    "Fun X => fun x:X => x",
    "Fun ^X => fun p:B -> ^X => p t",
    "let x <= bang t in p x",
    "f @[^A] x y",
    "(fun x:B => x) (g y)",
    "raise^e",
]


@pytest.mark.parametrize("src", TERM_ROUND_TRIP_CASES)
def test_term_round_trip(src):
    t = parse_term(src)
    assert parse_term(str(t)) == t


def test_round_trip_on_generated_types():
    gen = TermGenerator(33)
    for _ in range(60):
        ty = gen.random_type(3)
        assert alpha_eq(parse_type(str(ty)), ty)


def test_round_trip_on_generated_terms():
    gen = TermGenerator(34)
    for _ in range(40):
        j = gen.random_judgment()
        t = j.subject
        assert parse_term(str(t)) == t
