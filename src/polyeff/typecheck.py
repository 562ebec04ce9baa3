"""Type checking for the stoup judgment ``gamma | delta |- t : B``.

The rules are syntax-directed except for application, where the stoup
may belong to either side.  An ordinary application ``s t`` types the
head under the current stoup and the argument under the empty stoup; a
linear application (head of ``-o`` type) types the head stoup-free and
routes the stoup into the argument.  Since a nonempty stoup must flow
to the unique leaf using its variable, occurrence of the stoup variable
decides the routing.

A term is checked as written: a binder shadows by scope, and a variable
is the stoup's when it has the stoup's name, before the context is read.
A ``fun`` binder with the name of a nonempty stoup hides it from every
leaf, so that binder is a stoup violation.

``derive_all_types`` re-derives judgments exploring *every* applicable
rule order; it is the oracle for checking that the system assigns at
most one type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

from .kernel import (
    CSORT,
    VSORT,
    App,
    Arrow,
    Forall,
    Judgment,
    Kind,
    KindError,
    Lam,
    LinLam,
    Lolli,
    SourceSpan,
    TermExpr,
    TyApp,
    TyLam,
    TyVar,
    TypeExpr,
    Var,
    alpha_canonical,
    alpha_eq,
    classify_type,
    free_term_vars,
    free_type_vars,
    fresh_name,
    subst_term,
    subst_type,
    synthetic_span,
)


class ErrorCode(Enum):
    UNBOUND_VAR = "UnboundVar"
    STOUP_VIOLATION = "StoupViolation"
    KIND_MISMATCH = "KindMismatch"
    APP_MISMATCH = "AppMismatch"
    ESCAPING_TYVAR = "EscapingTyVar"
    NON_COMPUTATION_STOUP = "NonComputationStoup"


class TypingError(Exception):
    """Structured rejection: exactly one code, a span and a detail string."""

    def __init__(self, code: ErrorCode, detail: str, span: Optional[SourceSpan] = None):
        super().__init__(f"{code.value}: {detail}")
        self.code = code
        self.detail = detail
        self.span = span or synthetic_span()

    def to_json(self) -> str:
        return json.dumps(
            {"code": self.code.value, "span": str(self.span), "detail": self.detail}
        )


Ctx = tuple[tuple[str, TypeExpr], ...]
Stoup = Optional[tuple[str, TypeExpr]]
Constants = Mapping[str, TypeExpr]


def _lookup(gamma: Ctx, name: str) -> Optional[TypeExpr]:
    for n, ty in reversed(gamma):
        if n == name:
            return ty
    return None


def _ctx_ftv(gamma: Ctx, delta: Stoup):
    fvs = set()
    for _, ty in gamma:
        fvs |= free_type_vars(ty)
    if delta is not None:
        fvs |= free_type_vars(delta[1])
    return fvs


def _classify(ty: TypeExpr) -> Kind:
    try:
        return classify_type(ty)
    except KindError as exc:
        raise TypingError(ErrorCode.KIND_MISMATCH, str(exc))


def route_stoup(delta: Stoup, fn: TermExpr, arg: TermExpr) -> str:
    """Decide which side of an application consumes the stoup.

    Returns "none", "fn" or "arg"; a nonempty stoup must occur freely in
    exactly one side.
    """
    if delta is None:
        return "none"
    x = delta[0]
    in_fn = x in free_term_vars(fn)
    in_arg = x in free_term_vars(arg)
    if in_fn and in_arg:
        raise TypingError(
            ErrorCode.STOUP_VIOLATION,
            f"stoup variable {x!r} used in both sides of an application",
        )
    if not in_fn and not in_arg:
        raise TypingError(
            ErrorCode.STOUP_VIOLATION,
            f"stoup variable {x!r} unused in an application",
        )
    return "fn" if in_fn else "arg"


def synth(gamma: Ctx, delta: Stoup, t: TermExpr, constants: Constants = {}) -> TypeExpr:
    """Synthesize the unique type of ``t`` or raise TypingError."""
    return _synth(gamma, delta, t, constants)


def _synth(gamma: Ctx, delta: Stoup, t: TermExpr, constants: Constants) -> TypeExpr:
    result = _synth_node(gamma, delta, t, constants)
    # conclusion well-formedness after every rule application: a nonempty
    # stoup forces a computation-type result
    if delta is not None and classify_type(result) is not Kind.COMPUTATION:
        raise TypingError(
            ErrorCode.STOUP_VIOLATION, f"stoup judgment produced value type {result}"
        )
    return result


_TYAPP_MISKINDED = {  # by the sort of the type application
    VSORT: "value-type application at computation type",
    CSORT: "computation-type application at value type",
}


def _synth_node(gamma: Ctx, delta: Stoup, t: TermExpr, constants: Constants) -> TypeExpr:
    if isinstance(t, Var):
        if delta is not None:
            if t.name == delta[0]:
                return delta[1]
            if _lookup(gamma, t.name) is not None or t.name in constants:
                raise TypingError(
                    ErrorCode.STOUP_VIOLATION,
                    f"variable {t.name!r} used where the stoup binding {delta[0]!r} must flow",
                )
            raise TypingError(ErrorCode.UNBOUND_VAR, f"unbound variable {t.name!r}")
        ty = _lookup(gamma, t.name)
        if ty is not None:
            return ty
        if t.name in constants:
            return constants[t.name]
        raise TypingError(ErrorCode.UNBOUND_VAR, f"unbound variable {t.name!r}")

    if isinstance(t, Lam):
        _classify(t.ann)
        if delta is not None and t.var == delta[0]:
            raise TypingError(ErrorCode.STOUP_VIOLATION, f"binder {t.var!r} hides the stoup binding of that name")
        cod = _synth(gamma + ((t.var, t.ann),), delta, t.body, constants)
        return Arrow(t.ann, cod)

    if isinstance(t, LinLam):
        if delta is not None:
            raise TypingError(
                ErrorCode.STOUP_VIOLATION,
                "linear abstraction under a nonempty stoup",
            )
        if _classify(t.ann) is not Kind.COMPUTATION:
            raise TypingError(
                ErrorCode.NON_COMPUTATION_STOUP,
                f"linear binder annotated with non-computation type {t.ann}",
            )
        cod = _synth(gamma, (t.var, t.ann), t.body, constants)
        return Lolli(t.ann, cod)

    if isinstance(t, App):
        side = route_stoup(delta, t.fn, t.arg)
        head_ty = _synth(gamma, delta if side == "fn" else None, t.fn, constants)
        if isinstance(head_ty, Arrow) and side == "arg":
            raise TypingError(
                ErrorCode.STOUP_VIOLATION,
                "ordinary application cannot route the stoup into its argument",
            )
        if not isinstance(head_ty, (Arrow, Lolli)):
            raise TypingError(ErrorCode.APP_MISMATCH, f"application of non-function type {head_ty}")
        arg_ty = _synth(gamma, delta if side == "arg" else None, t.arg, constants)
        if not alpha_eq(arg_ty, head_ty.dom):
            op = "->" if isinstance(head_ty, Arrow) else "-o"
            raise TypingError(
                ErrorCode.APP_MISMATCH,
                f"argument type {arg_ty} does not match {op} domain {head_ty.dom}",
            )
        return head_ty.cod

    if isinstance(t, TyLam):
        if TyVar(t.sort, t.binder) in _ctx_ftv(gamma, delta):
            raise TypingError(
                ErrorCode.ESCAPING_TYVAR,
                f"type variable {t.binder!r} occurs free in the context",
            )
        body_ty = _synth(gamma, delta, t.body, constants)
        return Forall(t.sort, t.binder, body_ty)

    if isinstance(t, TyApp):
        if (_classify(t.arg) is Kind.COMPUTATION) != (t.sort == CSORT):
            raise TypingError(ErrorCode.KIND_MISMATCH, f"{_TYAPP_MISKINDED[t.sort]} {t.arg}")
        head_ty = _synth(gamma, delta, t.fn, constants)
        # a computation type is also a value type
        if not isinstance(head_ty, Forall) or head_ty.sort not in (VSORT, t.sort):
            raise TypingError(
                ErrorCode.APP_MISMATCH, f"type application of non-polymorphic type {head_ty}"
            )
        return subst_type(head_ty.body, TyVar(head_ty.sort, head_ty.binder), t.arg)

    raise TypingError(ErrorCode.APP_MISMATCH, f"cannot type node {t!r} (unelaborated sugar?)")


def typecheck(j: Judgment, constants: Constants = {}) -> TypeExpr:
    """Check a judgment; returns its unique type.

    If an ascription is present it must match the synthesized type up to
    renaming of bound variables.
    """
    try:
        j.validate()
    except KindError as exc:
        raise TypingError(ErrorCode.NON_COMPUTATION_STOUP, str(exc))
    except ValueError as exc:
        raise TypingError(ErrorCode.STOUP_VIOLATION, str(exc))
    ty = synth(j.gamma, j.delta, j.subject, constants)
    if j.ascription is not None and not alpha_eq(ty, j.ascription):
        raise TypingError(
            ErrorCode.APP_MISMATCH,
            f"synthesized type {ty} differs from ascription {j.ascription}",
        )
    return ty


# ---------------------------------------------------------------------------
# exhaustive derivation oracle


def derive_all_types(
    gamma: Ctx, delta: Stoup, t: TermExpr, constants: Constants = {}
) -> set[TypeExpr]:
    """All types derivable for ``t`` under any rule order, alpha-canonical.

    Unlike ``synth`` this does not commit to occurrence-based stoup
    routing or to a single head-type reading; it explores every branch.
    """
    out: set[TypeExpr] = set()

    if isinstance(t, Var):
        if delta is not None:
            if t.name == delta[0]:
                out.add(alpha_canonical(delta[1]))
        else:
            ty = _lookup(gamma, t.name)
            if ty is not None:
                out.add(alpha_canonical(ty))
            elif t.name in constants:
                out.add(alpha_canonical(constants[t.name]))
        return out

    if isinstance(t, Lam):
        if delta is not None and t.var == delta[0]:
            return out  # the binder hides the stoup, which then reaches no leaf
        for cod in derive_all_types(gamma + ((t.var, t.ann),), delta, t.body, constants):
            out.add(alpha_canonical(Arrow(t.ann, cod)))
        return out

    if isinstance(t, LinLam):
        try:
            ann_kind = classify_type(t.ann)
        except KindError:
            return out
        if delta is not None or ann_kind is not Kind.COMPUTATION:
            return out
        # the oracle routes the stoup without reading occurrences, so the side
        # not given it would read the context variable the binder shadows
        var, body = t.var, t.body
        if _lookup(gamma, var) is not None:
            new = fresh_name(var, free_term_vars(body) | {n for n, _ in gamma})
            body = subst_term(body, var, Var(new))
            var = new
        for cod in derive_all_types(gamma, (var, t.ann), body, constants):
            out.add(alpha_canonical(Lolli(t.ann, cod)))
        return out

    if isinstance(t, App):
        routings = [("stoup-on-head", delta, None), ("stoup-on-arg", None, delta)]
        if delta is None:
            routings = [("plain", None, None)]
        for _, dfn, darg in routings:
            for head_ty in derive_all_types(gamma, dfn, t.fn, constants):
                if isinstance(head_ty, Arrow) and darg is None:
                    for arg_ty in derive_all_types(gamma, None, t.arg, constants):
                        if alpha_eq(arg_ty, head_ty.dom):
                            out.add(alpha_canonical(head_ty.cod))
                if isinstance(head_ty, Lolli) and dfn is None:
                    for arg_ty in derive_all_types(gamma, darg, t.arg, constants):
                        if alpha_eq(arg_ty, head_ty.dom):
                            out.add(alpha_canonical(head_ty.cod))
        return out

    if isinstance(t, TyLam):
        if TyVar(t.sort, t.binder) in _ctx_ftv(gamma, delta):
            return out
        for body_ty in derive_all_types(gamma, delta, t.body, constants):
            out.add(alpha_canonical(Forall(t.sort, t.binder, body_ty)))
        return out

    if isinstance(t, TyApp):
        try:
            if (classify_type(t.arg) is Kind.COMPUTATION) != (t.sort == CSORT):
                return out
        except KindError:
            return out
        for head_ty in derive_all_types(gamma, delta, t.fn, constants):
            if isinstance(head_ty, Forall) and head_ty.sort in (VSORT, t.sort):
                out.add(alpha_canonical(subst_type(head_ty.body, TyVar(head_ty.sort, head_ty.binder), t.arg)))
        return out

    return out


# ---------------------------------------------------------------------------
# metatheory reports


@dataclass
class Report:
    total: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_unicity(corpus: Sequence[Judgment], constants: Constants = {}) -> Report:
    """Every judgment admits at most one type, agreeing with ``typecheck``."""
    rep = Report()
    for j in corpus:
        rep.total += 1
        types = derive_all_types(j.gamma, j.delta, j.subject, constants)
        if len(types) > 1:
            rep.failures.append(f"{j.subject}: {len(types)} distinct types {sorted(map(str, types))}")
            continue
        try:
            ty = typecheck(j, constants)
        except TypingError as exc:
            if types:
                rep.failures.append(f"{j.subject}: checker rejected but oracle derived {types}")
            continue
        if not types:
            rep.failures.append(f"{j.subject}: checker accepted but oracle derived nothing")
        elif not alpha_eq(alpha_canonical(ty), next(iter(types))):
            rep.failures.append(f"{j.subject}: checker type {ty} differs from oracle")
    return rep


@dataclass(frozen=True)
class SubstSample:
    """Premises for one instance of the substitution property.

    part 1: gamma, x:a | delta |- t : b   and   gamma |- s : a
    part 2: gamma | x:a |- t : b          and   gamma | delta |- s : a
    """

    part: int
    gamma: Ctx
    delta: Stoup
    x: str
    a: TypeExpr
    t: TermExpr
    s: TermExpr


def check_substitution_lemma(samples: Sequence[SubstSample], constants: Constants = {}) -> Report:
    rep = Report()
    for sm in samples:
        rep.total += 1
        try:
            if sm.part == 1:
                b = synth(sm.gamma + ((sm.x, sm.a),), sm.delta, sm.t, constants)
                a = synth(sm.gamma, None, sm.s, constants)
            else:
                b = synth(sm.gamma, (sm.x, sm.a), sm.t, constants)
                a = synth(sm.gamma, sm.delta, sm.s, constants)
            if not alpha_eq(a, sm.a):
                rep.failures.append(f"premise mismatch: {a} vs {sm.a}")
                continue
            b2 = synth(sm.gamma, sm.delta, subst_term(sm.t, sm.x, sm.s), constants)
            if not alpha_eq(b, b2):
                rep.failures.append(f"type not preserved: {b} became {b2}")
        except TypingError as exc:
            rep.failures.append(f"substituted term rejected: {exc}")
    return rep
