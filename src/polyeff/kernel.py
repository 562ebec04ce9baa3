"""Abstract syntax for a two-sorted polymorphic calculus with a stoup.

Types are stratified into *value types* and a syntactic subclass of
*computation types* (every computation type is also a value type):

    value        A ::= X | B -> C | forall X. B | ^X | forall ^X. B | C -o D
    computation  C ::= ^X | B -> C | forall X. C | forall ^X. C

Value-type variables (``X``) and computation-type variables (``^X``)
are disjoint sorts.  ``C -o D`` classifies structure-preserving maps
between computation types and is itself only a value type; ``B -> C``
is a computation type exactly when its codomain is.

Each former that exists at both sorts is one class whose first field is
its ``sort`` (``VSORT`` or ``CSORT``): the variable ``TyVar``, the
quantifier ``Forall``, the type abstraction ``TyLam`` and the type
application ``TyApp``, so a rule that treats the two sorts alike is
written once.  ``alpha_eq`` compares types up to renaming of bound
variables, and ``alpha_canonical`` gives each alpha-class one
representative node, computed once per node.

Judgments ``gamma | delta |- t : B`` carry an ordinary context plus an
optional stoup ``delta``: at most one binding, restricted to
computation types, forcing a computation-type result.

Interning invariant: the core type constructors (``TyVar``, ``Arrow``,
``Lolli``, ``Forall``) are hash-consed (Filliatre & Conchon, "Type-Safe
Modular Hash-Consing", 2006), so structurally equal types are one object,
and caches (notably ``interp.Model``'s) key on them by identity.  Build
types only through those constructors; never mutate one.  ``hash_consed``
also interns ``finmodel``'s sets, monads and algebras and ``interp``'s
environments, the other parts of every cache key.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Union


class Kind(Enum):
    VALUE = "value"
    COMPUTATION = "computation"


class KindError(Exception):
    """A type is structurally ill-kinded (e.g. ``-o`` over a value type)."""


# ---------------------------------------------------------------------------
# types


class Interned:
    """Base of hash-consed values: see ``hash_consed``."""

    def __reduce__(self):  # copies and unpickled values are interned too
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def hash_consed(cls):
    """Make ``cls`` (an ``Interned``) a frozen dataclass whose constructor
    returns the unique live instance with the given field values, so
    equality is identity and hashing is O(1).

    The table holds instances weakly, so one no one uses any more is freed
    as usual.  Like the ``__init__`` that ``dataclass`` writes, the
    constructor is generated per class: types are built in the innermost
    loops of term generation and type checking, where the overhead of a
    generic ``*args`` constructor shows.
    """
    cls = dataclass(frozen=True, eq=False)(cls)
    fields = cls.__match_args__
    sets = "".join(f"\n        _set(node, {f!r}, {f})" for f in fields)
    if hasattr(cls, "__post_init__"):
        sets += "\n        node.__post_init__()"
    namespace: dict = {}
    exec(_NEW.format(params=", ".join(fields), sets=sets), globals(), namespace)
    namespace["__new__"].__defaults__ = cls.__init__.__defaults__
    cls.__new__, cls.__init__ = namespace["__new__"], object.__init__
    return cls


_NEW = """
def __new__(cls, {params}):
    _key = (cls, {params})
    _ref = _INTERNED.get(_key)
    node = None if _ref is None else _ref()
    if node is None:
        node = _new(cls){sets}
        _ref = _INTERNED[_key] = _KeyedRef(node, _forget)
        _ref.key = _key
    return node
"""
_INTERNED: dict = {}  # (class, *fields) -> weak reference to the instance
_new, _set = object.__new__, object.__setattr__


class _KeyedRef(weakref.ref):
    """A weak reference that knows its table key, to drop it when it dies."""

    __slots__ = ("key",)


def _forget(ref: _KeyedRef) -> None:
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


VSORT, CSORT = "v", "c"  # the two sorts of type variable, as environment keys

# the reserved words of the surface syntax: no identifier is one of them
KEYWORDS = {"forall", "exists", "mu", "nu", "fun", "lfun", "Fun", "bang", "let", "in", "type", "def"}

# how loosely printed syntax binds: atoms tightest, then arrows and
# applications, then binders (a node's ``_prec``)
PREC_ATOM, PREC_INFIX, PREC_BINDER = range(3)


def parenthesized(x: Union["TypeExpr", "TermExpr"], limit: int) -> str:
    """``str(x)``, in parentheses when ``x`` binds more loosely than ``limit``."""
    return f"({x})" if x._prec > limit else str(x)


class TypeExpr:
    """Base of type syntax: the four interned core constructors below.

    There is no other type tree: the parser expands every piece of type
    sugar and every ``type`` abbreviation into these as it reads them.
    """

    _fv = None  # free variables as nodes, cached on first use
    _fvk = None  # the same as (sort, name) keys
    _canon = None  # the alpha-canonical form, cached on first use; False where it is the node itself
    _kind = None  # the kind, cached on first use
    _prec = PREC_BINDER

    def __str__(self) -> str:
        """Surface syntax, which ``surface.parse_type`` reads back."""
        if isinstance(self, TyVar):
            return f"{'^' if self.sort == CSORT else ''}{self.name}"
        if isinstance(self, (Arrow, Lolli)):
            op = "->" if isinstance(self, Arrow) else "-o"
            return f"{parenthesized(self.dom, PREC_ATOM)} {op} {parenthesized(self.cod, PREC_INFIX)}"
        return f"forall {'^' if self.sort == CSORT else ''}{self.binder}. {self.body}"


@hash_consed
class TyVar(TypeExpr, Interned):
    sort: str
    name: str
    _prec = PREC_ATOM


@hash_consed
class Arrow(TypeExpr, Interned):
    dom: TypeExpr
    cod: TypeExpr
    _prec = PREC_INFIX


@hash_consed
class Lolli(TypeExpr, Interned):
    dom: TypeExpr
    cod: TypeExpr
    _prec = PREC_INFIX


@hash_consed
class Forall(TypeExpr, Interned):
    sort: str
    binder: str
    body: TypeExpr


def classify_type(t: TypeExpr) -> Kind:
    """Decide whether ``t`` is a computation type or a value type only.

    Total and deterministic on well-formed trees.  Raises KindError when a
    ``-o`` has a non-computation operand, since no well-formed type may
    contain one.  The kind of a type is computed once.
    """
    kind = getattr(t, "_kind", None)
    if kind is None:
        kind = _classify(t)
        object.__setattr__(t, "_kind", kind)
    return kind


def _classify(t: TypeExpr) -> Kind:
    if isinstance(t, TyVar):
        return Kind.COMPUTATION if t.sort == CSORT else Kind.VALUE
    if isinstance(t, Arrow):
        classify_type(t.dom)
        return classify_type(t.cod)
    if isinstance(t, Lolli):
        if classify_type(t.dom) is not Kind.COMPUTATION:
            raise KindError(f"-o domain is not a computation type: {t.dom}")
        if classify_type(t.cod) is not Kind.COMPUTATION:
            raise KindError(f"-o codomain is not a computation type: {t.cod}")
        return Kind.VALUE
    if isinstance(t, Forall):
        return classify_type(t.body)
    raise KindError(f"not a type expression: {t!r}")


def free_type_vars(t: TypeExpr) -> frozenset[TyVar]:
    """Free type variables of ``t``, as variable nodes (sort included)."""
    if t._fv is not None:
        return t._fv
    if isinstance(t, TyVar):
        return frozenset([t])  # not cached: a cycle would delay freeing the node
    if isinstance(t, (Arrow, Lolli)):
        fv = free_type_vars(t.dom) | free_type_vars(t.cod)
    elif isinstance(t, Forall):
        fv = free_type_vars(t.body) - {TyVar(t.sort, t.binder)}
    else:
        raise KindError(f"not a core type expression: {t!r}")
    object.__setattr__(t, "_fv", fv)
    return fv


def free_type_var_keys(t: TypeExpr) -> frozenset[tuple[str, str]]:
    """Free type variables of ``t`` as ``(sort, name)`` environment keys."""
    if t._fvk is None:
        keys = {(v.sort, v.name) for v in free_type_vars(t)}
        object.__setattr__(t, "_fvk", frozenset(keys))
    return t._fvk


def binder_signs(sort: str, binder: str, body: TypeExpr) -> frozenset[int]:
    """The polarities of the binder's free occurrences in ``body``: +1 where
    it occurs covariantly, -1 where contravariantly (``->`` and ``-o`` flip
    their domain), empty where it does not occur."""
    if (sort, binder) not in free_type_var_keys(body):
        return frozenset()
    if isinstance(body, (Arrow, Lolli)):
        return frozenset(-s for s in binder_signs(sort, binder, body.dom)) | binder_signs(sort, binder, body.cod)
    if isinstance(body, Forall):
        return binder_signs(sort, binder, body.body)
    return frozenset((1,))


def all_type_var_names(x: Union["TypeExpr", "TermExpr"]) -> frozenset[str]:
    """Every type-variable name occurring in x, bound or free, both sorts."""
    out: set[str] = set()

    def go_ty(t):
        if isinstance(t, TyVar):
            out.add(t.name)
        elif isinstance(t, (Arrow, Lolli)):
            go_ty(t.dom)
            go_ty(t.cod)
        elif isinstance(t, Forall):
            out.add(t.binder)
            go_ty(t.body)

    def go_tm(t):
        if isinstance(t, (Lam, LinLam)):
            go_ty(t.ann)
            go_tm(t.body)
        elif isinstance(t, App):
            go_tm(t.fn)
            go_tm(t.arg)
        elif isinstance(t, TyLam):
            out.add(t.binder)
            go_tm(t.body)
        elif isinstance(t, TyApp):
            go_tm(t.fn)
            go_ty(t.arg)

    if isinstance(x, TypeExpr):
        go_ty(x)
    else:
        go_tm(x)
    return frozenset(out)


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """First of base, base1, base2, ... not in ``avoid``."""
    avoid = set(avoid)
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789") or base
    i = 1
    while f"{stem}{i}" in avoid:
        i += 1
    return f"{stem}{i}"


def subst_type(body: TypeExpr, var: TyVar, replacement: TypeExpr) -> TypeExpr:
    """Capture-avoiding substitution of ``replacement`` for ``var`` in ``body``.

    A computation-type variable only accepts a computation type.
    """
    if var.sort == CSORT and classify_type(replacement) is not Kind.COMPUTATION:
        raise KindError(
            f"cannot substitute value type {replacement} for computation variable ^{var.name}"
        )
    repl_fvs = free_type_vars(replacement)

    def go(t: TypeExpr) -> TypeExpr:
        if isinstance(t, TyVar):
            return replacement if t == var else t
        if isinstance(t, Arrow):
            return Arrow(go(t.dom), go(t.cod))
        if isinstance(t, Lolli):
            return Lolli(go(t.dom), go(t.cod))
        if isinstance(t, Forall):
            bound = TyVar(t.sort, t.binder)
            if bound == var:
                return t
            if bound in repl_fvs and var in free_type_vars(t.body):
                # rename the binder so the replacement is not captured
                taken = {v.name for v in free_type_vars(t.body) | repl_fvs}
                new = fresh_name(t.binder, taken | {var.name})
                renamed = subst_type(t.body, bound, TyVar(t.sort, new))
                return Forall(t.sort, new, go(renamed))
            return Forall(t.sort, t.binder, go(t.body))
        raise KindError(f"not a core type expression: {t!r}")

    return go(body)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class TermExpr:
    """Base of term syntax.  A sugar node defined elsewhere prints itself:
    it overrides ``__str__`` and ``_prec``."""

    _prec = PREC_BINDER

    def __str__(self) -> str:
        """Surface syntax, which ``surface.parse_term`` reads back."""
        if isinstance(self, Var):
            return self.name
        if isinstance(self, (Lam, LinLam)):
            return f"{'fun' if isinstance(self, Lam) else 'lfun'} {self.var}:{self.ann} => {self.body}"
        if isinstance(self, App):
            return f"{parenthesized(self.fn, PREC_INFIX)} {parenthesized(self.arg, PREC_ATOM)}"
        if isinstance(self, TyLam):
            return f"Fun {'^' if self.sort == CSORT else ''}{self.binder} => {self.body}"
        if isinstance(self, TyApp):
            return f"{parenthesized(self.fn, PREC_INFIX)} @[{self.arg}]"
        raise ValueError(f"not a term expression: {self!r}")


@dataclass(frozen=True)
class Var(TermExpr):
    name: str
    _prec = PREC_ATOM


@dataclass(frozen=True)
class Lam(TermExpr):
    var: str
    ann: TypeExpr
    body: TermExpr


@dataclass(frozen=True)
class LinLam(TermExpr):
    var: str
    ann: TypeExpr
    body: TermExpr


@dataclass(frozen=True)
class App(TermExpr):
    fn: TermExpr
    arg: TermExpr
    _prec = PREC_INFIX


@dataclass(frozen=True)
class TyLam(TermExpr):
    sort: str
    binder: str
    body: TermExpr


@dataclass(frozen=True)
class TyApp(TermExpr):
    sort: str
    fn: TermExpr
    arg: TypeExpr
    _prec = PREC_INFIX


def free_term_vars(t: TermExpr) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset([t.name])
    if isinstance(t, (Lam, LinLam)):
        return free_term_vars(t.body) - {t.var}
    if isinstance(t, App):
        return free_term_vars(t.fn) | free_term_vars(t.arg)
    if isinstance(t, TyLam):
        return free_term_vars(t.body)
    if isinstance(t, TyApp):
        return free_term_vars(t.fn)
    custom = getattr(t, "free_vars", None)
    if custom is not None:
        return custom()
    raise ValueError(f"not a term expression: {t!r}")


def free_type_vars_term(t: TermExpr) -> frozenset[TyVar]:
    """Type variables occurring free in annotations and type arguments."""
    if isinstance(t, Var):
        return frozenset()
    if isinstance(t, (Lam, LinLam)):
        return free_type_vars(t.ann) | free_type_vars_term(t.body)
    if isinstance(t, App):
        return free_type_vars_term(t.fn) | free_type_vars_term(t.arg)
    if isinstance(t, TyLam):
        return free_type_vars_term(t.body) - {TyVar(t.sort, t.binder)}
    if isinstance(t, TyApp):
        return free_type_vars_term(t.fn) | free_type_vars(t.arg)
    raise ValueError(f"not a core term expression: {t!r}")


def subst_type_in_term(t: TermExpr, var: TyVar, replacement: TypeExpr) -> TermExpr:
    """Substitute a type for a type variable throughout a term."""
    repl_fvs = free_type_vars(replacement)

    def go(t: TermExpr) -> TermExpr:
        if isinstance(t, Var):
            return t
        if isinstance(t, (Lam, LinLam)):
            return type(t)(t.var, subst_type(t.ann, var, replacement), go(t.body))
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, TyLam):
            bound = TyVar(t.sort, t.binder)
            if bound == var:
                return t
            if bound in repl_fvs and var in free_type_vars_term(t.body):
                taken = {v.name for v in free_type_vars_term(t.body) | repl_fvs}
                new = fresh_name(t.binder, taken | {var.name})
                renamed = subst_type_in_term(t.body, bound, TyVar(t.sort, new))
                return TyLam(t.sort, new, go(renamed))
            return TyLam(t.sort, t.binder, go(t.body))
        if isinstance(t, TyApp):
            return TyApp(t.sort, go(t.fn), subst_type(t.arg, var, replacement))
        raise ValueError(f"not a core term expression: {t!r}")

    return go(t)


def subst_term(body: TermExpr, var: str, replacement: TermExpr) -> TermExpr:
    """Capture-avoiding substitution of a term for a term variable.

    Both term binders and type binders are freshened on demand: a type
    abstraction must not capture type variables free in the replacement's
    annotations.
    """
    repl_tmvs = free_term_vars(replacement)
    repl_tyvs = free_type_vars_term(replacement)

    def go(t: TermExpr) -> TermExpr:
        if isinstance(t, Var):
            return replacement if t.name == var else t
        if isinstance(t, (Lam, LinLam)):
            if t.var == var:
                return t
            if t.var in repl_tmvs and var in free_term_vars(t.body):
                taken = set(free_term_vars(t.body)) | repl_tmvs
                new = fresh_name(t.var, taken | {var})
                renamed = subst_term(t.body, t.var, Var(new))
                return type(t)(new, t.ann, go(renamed))
            return type(t)(t.var, t.ann, go(t.body))
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, TyLam):
            bound = TyVar(t.sort, t.binder)
            if bound in repl_tyvs and var in free_term_vars(t.body):
                taken = {v.name for v in free_type_vars_term(t.body) | repl_tyvs}
                new = fresh_name(t.binder, taken)
                renamed = subst_type_in_term(t.body, bound, TyVar(t.sort, new))
                return TyLam(t.sort, new, go(renamed))
            return TyLam(t.sort, t.binder, go(t.body))
        if isinstance(t, TyApp):
            return TyApp(t.sort, go(t.fn), t.arg)
        raise ValueError(f"not a core term expression: {t!r}")

    return go(body)


# ---------------------------------------------------------------------------
# alpha-equivalence


def _alpha_ty(a: TypeExpr, b: TypeExpr, env_a: dict, env_b: dict, depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, TyVar):
        la, lb = env_a.get((a.sort, a.name)), env_b.get((b.sort, b.name))
        if la is None and lb is None:
            return a is b  # free: the one interned node of that sort and name
        return la is not None and la == lb  # bound at one depth, so at one sort
    if isinstance(a, (Arrow, Lolli)):
        return _alpha_ty(a.dom, b.dom, env_a, env_b, depth) and _alpha_ty(
            a.cod, b.cod, env_a, env_b, depth
        )
    if isinstance(a, Forall):
        if a.sort != b.sort:
            return False
        ea = dict(env_a)
        eb = dict(env_b)
        ea[(a.sort, a.binder)] = depth
        eb[(b.sort, b.binder)] = depth
        return _alpha_ty(a.body, b.body, ea, eb, depth + 1)
    raise KindError(f"not a core type expression: {a!r}")


def alpha_eq(a: TypeExpr, b: TypeExpr) -> bool:
    """Equality of types modulo consistent renaming of bound variables."""
    return a is b or _alpha_ty(a, b, {}, {}, 0)  # interned: identical types are equal


def alpha_canonical(t: TypeExpr) -> TypeExpr:
    """The representative of ``t``'s alpha-class: bound variables renamed to
    a canonical numbering, so alpha-equal types give one node.

    The canonical names ``b0, b1, ...`` skip every free name of ``t``, so no
    free variable is captured.  Computed once per node, and a canonical
    node is its own representative.
    """
    canon = t._canon
    if canon is not None:
        return canon or t
    free = {name for _, name in free_type_var_keys(t)}
    names = (name for name in (f"b{i}" for i in itertools.count()) if name not in free)

    def go(t: TypeExpr, env: dict) -> TypeExpr:
        if isinstance(t, TyVar):
            return env.get((t.sort, t.name), t)
        if isinstance(t, (Arrow, Lolli)):
            return type(t)(go(t.dom, env), go(t.cod, env))
        if isinstance(t, Forall):
            name = next(names)
            env2 = dict(env)
            env2[(t.sort, t.binder)] = TyVar(t.sort, name)
            return Forall(t.sort, name, go(t.body, env2))
        raise KindError(f"not a core type expression: {t!r}")

    canon = go(t, {})
    # False, not the node: a node holding itself would be a cycle that only the cycle collector frees
    object.__setattr__(canon, "_canon", False)
    if canon is not t:
        object.__setattr__(t, "_canon", canon)
    return canon


# ---------------------------------------------------------------------------
# judgments


@dataclass(frozen=True)
class Judgment:
    """``gamma | delta |- subject : ascription`` (ascription optional)."""

    gamma: tuple[tuple[str, TypeExpr], ...]
    delta: Optional[tuple[str, TypeExpr]]
    subject: TermExpr
    ascription: Optional[TypeExpr] = None

    def validate(self) -> None:
        names = [n for n, _ in self.gamma]
        if self.delta is not None:
            if self.delta[0] in names:
                raise ValueError(
                    f"stoup variable {self.delta[0]!r} also bound in the ordinary context"
                )
            if classify_type(self.delta[1]) is not Kind.COMPUTATION:
                raise KindError(f"stoup type is not a computation type: {self.delta[1]}")


# ---------------------------------------------------------------------------
# source positions


@dataclass(frozen=True)
class SourceSpan:
    """Where a piece of source text lies: ``(line, column)`` start and end."""

    file: str
    start: tuple[int, int]
    end: tuple[int, int]

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self.start}..{self.end}")

    def __str__(self) -> str:
        (l1, c1), (l2, c2) = self.start, self.end
        return f"{self.file}:{l1}:{c1}-{l2}:{c2}"


def synthetic_span() -> SourceSpan:
    return SourceSpan("<input>", (0, 0), (0, 0))
