"""Derived types and terms definable by polymorphism.

Type encodings (products, sums, existentials, mu/nu) follow the standard
second-order impredicative definitions, one function per former.  A former
with a computation twin takes a ``sort``: at ``CSORT`` it quantifies over a
``^X`` and reads ``-o`` into it where ``->`` stood at ``VSORT``, through the
one table ``ARROW``, so the result is again a computation type (``A (+) B``
beside ``A + B``, the copower ``A . B`` beside ``A * B``).  The monadic type
``!B`` is the polymorphic continuation type ``forall ^X. (B -> ^X) -> ^X``
with ``^X`` ranging over computation types only.  ``injection`` builds the
injections of both sums, also through ``ARROW``, and ``case_term`` eliminates
either.

Type sugar is pure abbreviation, so the parser calls the encoders here as
it reads it and no sugar type ever exists.  The term sugar ``bang t`` and
``let x <= t in u`` is type-directed: the parser builds ``BangTerm`` and
``LetTerm`` nodes, and ``elaborate_term`` expands them once the types of
their subterms are known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import typecheck as tc
from .kernel import (
    CSORT,
    VSORT,
    App,
    Arrow,
    Forall,
    Kind,
    Lam,
    LinLam,
    Lolli,
    PREC_ATOM,
    PREC_INFIX,
    TermExpr,
    TyApp,
    TyLam,
    TyVar,
    TypeExpr,
    Var,
    all_type_var_names,
    binder_signs,
    classify_type,
    free_term_vars,
    free_type_vars,
    fresh_name,
    parenthesized,
)


class PositivityError(Exception):
    """A mu/nu binder occurs at a negative position in its body."""


class EncodingError(Exception):
    pass


def _freshv(base: str, *exprs) -> str:
    taken = set()
    for x in exprs:
        taken |= all_type_var_names(x)
    return fresh_name(base, taken)


# ---------------------------------------------------------------------------
# type encodings: one function per former, the value-sorted one at ``VSORT``
# and its computation-sorted twin, ``-o`` into the result, at ``CSORT``

ARROW = {VSORT: Arrow, CSORT: Lolli}  # the arrow into a sort's result


def unit_type() -> TypeExpr:
    """``1 = forall X. X -> X``."""
    return Forall(VSORT, "X", Arrow(TyVar(VSORT, "X"), TyVar(VSORT, "X")))


def unit_comp_type() -> TypeExpr:
    """``1o = forall ^X. 0 -> ^X``."""
    return Forall(CSORT, "X", Arrow(zero_type(VSORT), TyVar(CSORT, "X")))


def zero_type(sort: str) -> TypeExpr:
    """``0 = forall X. X`` at ``VSORT``, ``0o = forall ^X. ^X`` at ``CSORT``."""
    return Forall(sort, "X", TyVar(sort, "X"))


def pair_type(sort: str, a: TypeExpr, b: TypeExpr) -> TypeExpr:
    """``A * B = forall X. (A -> B -> X) -> X``; at ``CSORT`` the copower ``A . B°``."""
    x = TyVar(sort, _freshv("X", a, b))
    return Forall(sort, x.name, Arrow(Arrow(a, ARROW[sort](b, x)), x))


def prod_comp_type(a: TypeExpr, b: TypeExpr) -> TypeExpr:
    """``A° *o B° = forall ^X. ((A° -o ^X) + (B° -o ^X)) -> ^X``."""
    x = _freshv("X", a, b)
    branches = sum_type(VSORT, Lolli(a, TyVar(CSORT, x)), Lolli(b, TyVar(CSORT, x)))
    return Forall(CSORT, x, Arrow(branches, TyVar(CSORT, x)))


def sum_type(sort: str, a: TypeExpr, b: TypeExpr) -> TypeExpr:
    """``A + B = forall X. (A -> X) -> (B -> X) -> X``; at ``CSORT`` ``A° (+) B°``."""
    x = TyVar(sort, _freshv("X", a, b))
    arrow = ARROW[sort]
    return Forall(sort, x.name, Arrow(arrow(a, x), Arrow(arrow(b, x), x)))


def exists_type(sort: str, binder_sort: str, binder: str, body: TypeExpr) -> TypeExpr:
    """``exists X. B = forall Y. (forall X. B -> Y) -> Y``; ``binder_sort`` is ``X``'s."""
    y = TyVar(sort, fresh_name("Y", {v.name for v in free_type_vars(body)} | {binder}))
    return Forall(sort, y.name, Arrow(Forall(binder_sort, binder, ARROW[sort](body, y)), y))


def _check_positive(sort: str, binder: str, body: TypeExpr) -> None:
    if -1 in binder_signs(sort, binder, body):
        raise PositivityError(f"{TyVar(sort, binder)} occurs negatively in {body}")


def mu_type(sort: str, binder: str, body: TypeExpr) -> TypeExpr:
    """``mu X. B = forall X. (B -> X) -> X``."""
    _check_positive(sort, binder, body)
    x = TyVar(sort, binder)
    return Forall(sort, binder, Arrow(ARROW[sort](body, x), x))


def nu_type(sort: str, binder: str, body: TypeExpr) -> TypeExpr:
    """``nu X. B = exists X. (X -> B) * X``."""
    _check_positive(sort, binder, body)
    x = TyVar(sort, binder)
    return exists_type(sort, sort, binder, pair_type(sort, ARROW[sort](x, body), x))


def encode_num(n: int) -> TypeExpr:
    """n-fold sum 1 + (1 + ...); 0 is the empty type."""
    if n == 0:
        return zero_type(VSORT)
    if n == 1:
        return unit_type()
    return sum_type(VSORT, unit_type(), encode_num(n - 1))


def encode_bang(b: TypeExpr) -> TypeExpr:
    """``!B = forall ^X. (B -> ^X) -> ^X`` with a fresh ``^X``."""
    x = _freshv("X", b)
    return Forall(CSORT, x, Arrow(Arrow(b, TyVar(CSORT, x)), TyVar(CSORT, x)))


def bang_payload(ty: TypeExpr) -> Optional[TypeExpr]:
    """Return B when ``ty`` has the shape of ``!B``, else None."""
    if not isinstance(ty, Forall) or ty.sort != CSORT:
        return None
    body = ty.body
    x = TyVar(CSORT, ty.binder)
    if (
        isinstance(body, Arrow)
        and isinstance(body.dom, Arrow)
        and body.cod == x
        and body.dom.cod == x
        and x not in free_type_vars(body.dom.dom)
    ):
        return body.dom.dom
    return None


# ---------------------------------------------------------------------------
# term-level sugar


@dataclass(frozen=True)
class BangTerm(TermExpr):
    """``bang t``, before elaboration."""

    arg: TermExpr
    _prec = PREC_ATOM

    def __str__(self) -> str:
        return f"bang {parenthesized(self.arg, PREC_ATOM)}"

    def free_vars(self) -> frozenset[str]:
        return free_term_vars(self.arg)


@dataclass(frozen=True)
class LetTerm(TermExpr):
    """``let x <= t in u``, before elaboration."""

    var: str
    bound: TermExpr
    body: TermExpr

    def __str__(self) -> str:
        return f"let {self.var} <= {parenthesized(self.bound, PREC_INFIX)} in {self.body}"

    def free_vars(self) -> frozenset[str]:
        return free_term_vars(self.bound) | (free_term_vars(self.body) - {self.var})


def _fresh_tm(base: str, *terms: TermExpr) -> str:
    taken = set()
    for t in terms:
        taken |= free_term_vars(t)
    return fresh_name(base, taken)


def elaborate_bang_intro(t: TermExpr, payload: TypeExpr) -> TermExpr:
    """``bang t``: the thunked computation ``Fun ^X => fun p:B->^X => p t``."""
    x = _freshv("X", payload, t)
    p = _fresh_tm("p", t)
    return TyLam(CSORT, x, Lam(p, Arrow(payload, TyVar(CSORT, x)), App(Var(p), t)))


def elaborate_let(x: str, t: TermExpr, u: TermExpr, payload: TypeExpr, result: TypeExpr) -> TermExpr:
    """``let x <= t in u``  ==>  ``t @[A] (fun x:B => u)``."""
    return App(TyApp(CSORT, t, result), Lam(x, payload, u))


def unit_term() -> TermExpr:
    return TyLam(VSORT, "X", Lam("u", TyVar(VSORT, "X"), Var("u")))


def pair_term(a: TypeExpr, b: TypeExpr, t: TermExpr, u: TermExpr) -> TermExpr:
    x = _freshv("X", a, b, t, u)
    p = _fresh_tm("p", t, u)
    return TyLam(VSORT, x, Lam(p, Arrow(a, Arrow(b, TyVar(VSORT, x))), App(App(Var(p), t), u)))


def injection(which: int, a: TypeExpr, b: TypeExpr, t: TermExpr, sort: str) -> TermExpr:
    """``t`` injected into the sum of ``a`` and ``b``, on the left when
    ``which`` is 0: ``Fun X => fun f:a -> X => fun g:b -> X => f t`` into
    ``a + b`` at ``VSORT``, and the same through ``^X`` and ``-o`` into
    ``a (+) b`` at ``CSORT``."""
    x = _freshv("X", a, b, t)
    f = _fresh_tm("f", t)
    g = fresh_name("g", {f} | free_term_vars(t))
    arrow, result = ARROW[sort], TyVar(sort, x)
    branch = Lam(g, arrow(b, result), App(Var((f, g)[which]), t))
    return TyLam(sort, x, Lam(f, arrow(a, result), branch))


def case_term(scrutinee: TermExpr, result: TypeExpr, on_l: TermExpr, on_r: TermExpr) -> TermExpr:
    sort = CSORT if classify_type(result) is Kind.COMPUTATION else VSORT
    return App(App(TyApp(sort, scrutinee, result), on_l), on_r)


def two_value(which: int) -> TermExpr:
    """The two closed inhabitants of ``2 = 1 + 1``; 0 is the left one."""
    unit = unit_type()
    return injection(which, unit, unit, unit_term(), VSORT)


def girard_iso_terms(a: TypeExpr, bc: TypeExpr) -> tuple[TermExpr, TermExpr]:
    """Mutually inverse maps between ``A -> B°`` and ``!A -o B°``."""
    if classify_type(bc) is not Kind.COMPUTATION:
        raise EncodingError(f"{bc} is not a computation type")
    bang_a = encode_bang(a)
    fwd = Lam(
        "f",
        Arrow(a, bc),
        LinLam(
            "z",
            bang_a,
            App(TyApp(CSORT, Var("z"), bc), Lam("x", a, App(Var("f"), Var("x")))),
        ),
    )
    bwd = Lam(
        "g",
        Lolli(bang_a, bc),
        Lam("x", a, App(Var("g"), elaborate_bang_intro(Var("x"), a))),
    )
    return fwd, bwd


def comp_iso_terms(ac: TypeExpr) -> tuple[TermExpr, TermExpr]:
    """Mutually inverse maps between ``A°`` and ``forall ^X. (A° -o ^X) -> ^X``.

    The wrapped type is the inductive-type encoding applied to a constant
    body, so this isomorphism is the degenerate instance of those types.
    """
    if classify_type(ac) is not Kind.COMPUTATION:
        raise EncodingError(f"{ac} is not a computation type")
    x = _freshv("X", ac)
    wrapped = mu_type(CSORT, x, ac)
    fwd = LinLam(
        "a",
        ac,
        TyLam(CSORT, x, Lam("k", Lolli(ac, TyVar(CSORT, x)), App(Var("k"), Var("a")))),
    )
    bwd = LinLam("m", wrapped, App(TyApp(CSORT, Var("m"), ac), LinLam("y", ac, Var("y"))))
    return fwd, bwd


# ---------------------------------------------------------------------------
# constants


def nary_op_type(n: int) -> TypeExpr:
    """``forall ^X. ^X -> ... -> ^X`` with n arguments: an n-ary operation's scheme."""
    ty: TypeExpr = TyVar(CSORT, "X")
    for _ in range(n):
        ty = Arrow(TyVar(CSORT, "X"), ty)
    return Forall(CSORT, "X", ty)


def register_effect_constants(monad) -> dict[str, TypeExpr]:
    """The effect constants of a ``finmodel.MonadSpec``, each name with its
    closed scheme: every operation of its signature at ``nary_op_type`` of
    its arity, then ``handle^e`` for each exception ``e``.  A model takes its
    constants from here, and interprets each one by its name."""
    consts = {name: nary_op_type(arity) for name, arity in monad.operations}
    bang_x = encode_bang(TyVar(VSORT, "X"))
    handler = Forall(VSORT, "X", Lolli(Arrow(encode_num(2), bang_x), bang_x))
    return {**consts, **{f"handle^{e}": handler for e in monad.exceptions}}


# ---------------------------------------------------------------------------
# CBPV type-level translation


@dataclass(frozen=True)
class CbpvType:
    pass


@dataclass(frozen=True)
class CbpvUnit(CbpvType):
    pass


@dataclass(frozen=True)
class CbpvZero(CbpvType):
    pass


@dataclass(frozen=True)
class CbpvProd(CbpvType):
    left: CbpvType
    right: CbpvType


@dataclass(frozen=True)
class CbpvSum(CbpvType):
    left: CbpvType
    right: CbpvType


@dataclass(frozen=True)
class CbpvU(CbpvType):
    comp: CbpvType


@dataclass(frozen=True)
class CbpvF(CbpvType):
    value: CbpvType


@dataclass(frozen=True)
class CbpvFun(CbpvType):
    dom: CbpvType
    cod: CbpvType


@dataclass(frozen=True)
class CbpvProdC(CbpvType):
    left: CbpvType
    right: CbpvType


def cbpv_translate_type(t: CbpvType) -> TypeExpr:
    """Map CBPV types into the calculus: F via !, U erased, products/sums encoded."""
    if isinstance(t, CbpvUnit):
        return unit_type()
    if isinstance(t, CbpvZero):
        return zero_type(VSORT)
    if isinstance(t, CbpvProd):
        return pair_type(VSORT, cbpv_translate_type(t.left), cbpv_translate_type(t.right))
    if isinstance(t, CbpvSum):
        return sum_type(VSORT, cbpv_translate_type(t.left), cbpv_translate_type(t.right))
    if isinstance(t, CbpvU):
        return cbpv_translate_type(t.comp)
    if isinstance(t, CbpvF):
        return encode_bang(cbpv_translate_type(t.value))
    if isinstance(t, CbpvFun):
        return Arrow(cbpv_translate_type(t.dom), cbpv_translate_type(t.cod))
    if isinstance(t, CbpvProdC):
        return prod_comp_type(cbpv_translate_type(t.left), cbpv_translate_type(t.right))
    raise EncodingError(f"unknown CBPV type {t!r}")


# ---------------------------------------------------------------------------
# sugar elaboration


def elaborate_term(
    t: TermExpr,
    gamma: tc.Ctx = (),
    delta: tc.Stoup = None,
    constants: tc.Constants = {},
) -> TermExpr:
    """Expand term sugar, threading the stoup the way the checker will.

    ``let x <= t in u`` is type-directed: the bound term must have a
    ``!B`` type, and the body fixes the result type.
    """
    if isinstance(t, Var):
        return t
    if isinstance(t, Lam):
        return Lam(t.var, t.ann, elaborate_term(t.body, gamma + ((t.var, t.ann),), delta, constants))
    if isinstance(t, LinLam):
        return LinLam(t.var, t.ann, elaborate_term(t.body, gamma, (t.var, t.ann), constants))
    if isinstance(t, App):
        side = tc.route_stoup(delta, t.fn, t.arg)
        return App(
            elaborate_term(t.fn, gamma, delta if side == "fn" else None, constants),
            elaborate_term(t.arg, gamma, delta if side == "arg" else None, constants),
        )
    if isinstance(t, TyLam):
        return TyLam(t.sort, t.binder, elaborate_term(t.body, gamma, delta, constants))
    if isinstance(t, TyApp):
        return TyApp(t.sort, elaborate_term(t.fn, gamma, delta, constants), t.arg)
    if isinstance(t, BangTerm):
        if delta is not None:
            raise tc.TypingError(
                tc.ErrorCode.STOUP_VIOLATION, "bang body cannot consume the stoup"
            )
        arg = elaborate_term(t.arg, gamma, None, constants)
        payload = tc.synth(gamma, None, arg, constants)
        return elaborate_bang_intro(arg, payload)
    if isinstance(t, LetTerm):
        bound = elaborate_term(t.bound, gamma, delta, constants)
        bound_ty = tc.synth(gamma, delta, bound, constants)
        payload = bang_payload(bound_ty)
        if payload is None:
            raise tc.TypingError(
                tc.ErrorCode.APP_MISMATCH,
                f"let expects a !-typed bound term, got {bound_ty}",
            )
        body = elaborate_term(t.body, gamma + ((t.var, payload),), None, constants)
        result = tc.synth(gamma + ((t.var, payload),), None, body, constants)
        if classify_type(result) is not Kind.COMPUTATION:
            raise tc.TypingError(
                tc.ErrorCode.KIND_MISMATCH,
                f"let body must have a computation type, got {result}",
            )
        return elaborate_let(t.var, bound, body, payload, result)
    raise EncodingError(f"cannot elaborate term {t!r}")
