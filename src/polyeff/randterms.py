"""Seeded generation of well-typed judgments.

Terms are grown goal-directed: given a context and a goal type, pick an
introduction form for the goal, a matching variable, or an elimination.
Eliminations come from a spine (Pałka et al. 2011; Fetscher et al. 2015):
a head variable whose type, after peeling ``->``, ``-o`` and quantifiers
(each instantiated at a type variable), ends in the goal, applied to
arguments grown for the peeled domains.  The stoup is routed as
``typecheck`` routes it: the stoup variable heads only ``->`` spines, and
under a stoup a context head passes it to its last ``-o`` argument.  A
judgment's context binds an argument for each function in scope.  Redexes
are never searched for: a grown term is wrapped, with chance ``APP_WEIGHT``,
into an abstraction applied to a context variable or the stoup, and with
chance ``TYAPP_WEIGHT`` into a vacuous type abstraction applied to a type.
That costs no family search where the body has at most ``ITER_CAP`` values
and its relation at the diagonal environment is the diagonal: its constant
families are then known in closed form; otherwise it is searched as any other.
Generation backtracks by returning None on a dead end; callers retry.
Every produced judgment re-checks under ``typecheck`` or raises ``GeneratorError``.
"""

from __future__ import annotations

import random
from typing import Optional

from . import typecheck as tc
from .kernel import (
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
    TermExpr,
    TyApp,
    TyLam,
    TyVar,
    TypeExpr,
    Var,
    alpha_eq,
    classify_type,
    free_type_vars,
    fresh_name,
    subst_term,
    subst_type,
)

# the tables a draw indexes: their order fixes the element each index picks
VALUE_TYVARS = (TyVar(VSORT, "X"), TyVar(VSORT, "Y"))
COMP_TYVARS = (TyVar(CSORT, "P"), TyVar(CSORT, "Q"))
BASE_TYVARS = VALUE_TYVARS + COMP_TYVARS
SHAPES = ("var", "arrow", "forallv", "forallc", "lolli")
COMP_SHAPES = SHAPES[:-1]  # a computation type is no -o
FUEL = 5  # the depth of the terms grown for one goal
TYPE_DEPTH = 2  # the depth of a random type whose caller names none
APP_WEIGHT = 0.1  # the chance that a grown term is wrapped into a term redex
TYAPP_WEIGHT = 0.2  # the chance that a grown term is wrapped into a type redex


class GeneratorError(Exception):
    """A generated term that fails ``typecheck`` or misses its goal."""


class TermGenerator:
    def __init__(self, seed: int, interp_safe: bool = False):
        rng = random.Random(seed)
        self._bits, self._random = rng.getrandbits, rng.random
        # restrict type-application arguments to variables, so every
        # projection stays at a registered object of a bounded model
        self.interp_safe = interp_safe
        self._counter = 0

    def _below(self, n: int) -> int:
        """A uniform draw from ``range(n)``, by the algorithm of CPython's
        ``Random._randbelow_with_getrandbits`` (3.10 to 3.13): ``choice``,
        ``randint`` and ``shuffle`` draw through it, so the corpora are the
        ones those methods drew."""
        if n < 1:  # getrandbits(0) is always 0, so the loop below would never end
            raise IndexError("cannot draw from an empty range")
        k = n.bit_length()
        r = self._bits(k)
        while r >= n:
            r = self._bits(k)
        return r

    def _shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place as ``Random.shuffle`` does: a reversed Fisher-Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self._below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    # -- types ----------------------------------------------------------

    def random_type(self, depth: int = TYPE_DEPTH, want: Optional[Kind] = None) -> TypeExpr:
        below = self._below
        if depth <= 0:
            if want is Kind.COMPUTATION:
                return COMP_TYVARS[below(2)]
            if want is Kind.VALUE:
                return VALUE_TYVARS[below(2)]
            leaves = VALUE_TYVARS[below(2)], COMP_TYVARS[below(2)]
            return leaves[below(2)]
        shape = COMP_SHAPES[below(4)] if want is Kind.COMPUTATION else SHAPES[below(5)]
        if shape == "var":
            return self.random_type(0, want)
        if shape == "arrow":
            dom = self.random_type(depth - 1, None)
            cod = self.random_type(depth - 1, want)
            return Arrow(dom, cod)
        if shape == "lolli":
            return Lolli(
                self.random_type(depth - 1, Kind.COMPUTATION),
                self.random_type(depth - 1, Kind.COMPUTATION),
            )
        binder = f"B{self._fresh()}"
        if shape == "forallv":
            body = self.random_type(depth - 1, want)
            # keep the bound variable in play occasionally
            if want is not Kind.COMPUTATION and self._random() < 0.5:
                body = Arrow(TyVar(VSORT, binder), body) if self._random() < 0.5 else TyVar(VSORT, binder)
            return Forall(VSORT, binder, body)
        body = self.random_type(depth - 1, want)
        if want is not Kind.COMPUTATION and self._random() < 0.5:
            body = TyVar(CSORT, binder) if self._random() < 0.5 else Arrow(TyVar(CSORT, binder), body)
        return Forall(CSORT, binder, body)

    def _fresh(self) -> int:
        self._counter += 1
        return self._counter

    # -- terms ----------------------------------------------------------

    def term_for(self, gamma, delta, goal: TypeExpr, fuel: int) -> Optional[TermExpr]:
        options = []
        # variables and the stoup axiom
        if delta is not None:
            if alpha_eq(delta[1], goal):
                options.append(("stoup", None))
        else:
            for name, ty in gamma:
                if alpha_eq(ty, goal):
                    options.append(("var", name))
        if fuel > 0:
            if isinstance(goal, Arrow):
                options.append(("lam", None))
            if isinstance(goal, Lolli) and delta is None:
                options.append(("linlam", None))
            if isinstance(goal, Forall):
                options.append(("tylam", None))
            if delta is None or classify_type(goal) is Kind.COMPUTATION:
                options += [("spine", spine) for spine in self._spines(gamma, delta, goal)]
        if not options:
            return None
        self._shuffle(options)
        for kind, payload in options:
            t = self._try(kind, payload, gamma, delta, goal, fuel)
            if t is not None:
                return self._wrap(gamma, delta, t)
        return None

    def _wrap(self, gamma, delta, t) -> TermExpr:
        """``t`` in redexes that reduce to it: with chance ``APP_WEIGHT`` an
        abstraction applied to a context variable, or a linear one to the stoup;
        with chance ``TYAPP_WEIGHT`` a vacuous type abstraction applied to a type."""
        scope = list(gamma) + ([delta] if delta is not None else [])
        if scope and self._random() < APP_WEIGHT:
            name, ty = scope[self._below(len(scope))]
            x = f"v{self._fresh()}"
            if delta is not None and name == delta[0]:  # the stoup goes to a linear head
                t = App(LinLam(x, ty, subst_term(t, name, Var(x))), Var(name))
            else:
                t = App(Lam(x, ty, t), Var(name))
        if self._random() < TYAPP_WEIGHT:
            want = Kind.COMPUTATION if self._random() < 0.5 else Kind.VALUE
            arg = self.random_type(0 if self.interp_safe else self._below(2), want)
            # the argument's kind picks the sort: a value binder may still draw a computation type
            sort = CSORT if classify_type(arg) is Kind.COMPUTATION else VSORT
            t = TyApp(sort, TyLam(sort, f"B{self._fresh()}", t), arg)
        return t

    def _try(self, kind, payload, gamma, delta, goal, fuel) -> Optional[TermExpr]:
        if kind == "stoup":
            return Var(delta[0])
        if kind == "var":
            return Var(payload)
        if kind == "lam":
            x = f"v{self._fresh()}"
            body = self.term_for(gamma + ((x, goal.dom),), delta, goal.cod, fuel - 1)
            return None if body is None else Lam(x, goal.dom, body)
        if kind == "linlam":
            x = f"v{self._fresh()}"
            body = self.term_for(gamma, (x, goal.dom), goal.cod, fuel - 1)
            return None if body is None else LinLam(x, goal.dom, body)
        if kind == "tylam":
            bound = TyVar(goal.sort, goal.binder)
            ctx_ftv = tc._ctx_ftv(gamma, delta)
            if bound in ctx_ftv:
                taken = {v.name for v in ctx_ftv | free_type_vars(goal.body)}
                new = fresh_name(goal.binder, taken)
                body_ty = subst_type(goal.body, bound, TyVar(goal.sort, new))
                binder = new
            else:
                body_ty, binder = goal.body, goal.binder
            body = self.term_for(gamma, delta, body_ty, fuel - 1)
            if body is None:
                return None
            return TyLam(goal.sort, binder, body)
        if kind == "spine":
            name, steps, linear = payload
            t = Var(name)
            for i, step in enumerate(steps):
                if isinstance(step, TyVar):
                    t = TyApp(step.sort, t, step)
                    continue
                arg = self.term_for(gamma, delta if i == linear else None, step.dom, fuel - 1)
                if arg is None:
                    return None
                t = App(t, arg)
            return t
        return None

    def _spines(self, gamma, delta, goal):
        """Each way to apply a variable to types and terms until its type is
        the goal: the head's name, its steps and the step given the stoup."""
        goal_cls = type(goal)
        insts = None  # the type variables a quantifier is instantiated at, by its sort
        out = []
        for name, ty in list(dict(gamma).items()) + ([delta] if delta is not None else []):
            stoup_head = delta is not None and name == delta[0]
            steps, linear = [], None  # linear: the last -o step
            while isinstance(ty, (Arrow, Lolli, Forall)):
                if isinstance(ty, (Arrow, Lolli)):
                    linear = len(steps) if isinstance(ty, Lolli) else linear
                    steps.append(ty)
                    ty = ty.cod
                else:
                    if insts is None:  # a computation type variable also instantiates a value binder
                        tyvars = [*sorted(free_type_vars(goal), key=lambda v: (v.sort, v.name)), *BASE_TYVARS]
                        insts = {VSORT: tyvars, CSORT: [v for v in tyvars if v.sort == CSORT]}
                    choices = insts[ty.sort]
                    arg = choices[self._below(len(choices))]
                    steps.append(arg)
                    ty = subst_type(ty.body, TyVar(ty.sort, ty.binder), arg)
                # under a stoup, the stoup variable heads no -o step and a context head gives it to one
                routed = delta is None or (linear is None) == stoup_head
                if routed and type(ty) is goal_cls and alpha_eq(ty, goal):
                    out.append((name, tuple(steps), linear))
        return out

    # -- judgments --------------------------------------------------------

    def random_context(self, n: Optional[int] = None):
        """``n`` random bindings (0 to 2 by default) and their arguments."""
        if n is None:
            n = self._below(3)
        ctx = tuple((f"g{self._fresh()}", self.random_type(self._below(3))) for _ in range(n))
        return ctx + tuple(self._arguments(ty for _, ty in ctx))

    def _arguments(self, types):
        """A binding for the domain of each ``->`` and ``-o`` along ``types``, so
        every function in scope has an argument (a ``-o`` a stoup-free one)."""
        for ty in types:
            while isinstance(ty, (Arrow, Lolli)):
                yield f"g{self._fresh()}", ty.dom
                ty = ty.cod

    def random_judgment(self) -> Judgment:
        for _ in range(200):
            gamma = self.random_context()
            if self._random() < 0.4:
                delta = (f"s{self._fresh()}", self.random_type(self._below(2), Kind.COMPUTATION))
                gamma += tuple(self._arguments([delta[1]]))
                goal = self.random_type(self._below(3), Kind.COMPUTATION)
            else:
                delta = None
                goal = self.random_type()
            t = self.term_for(gamma, delta, goal, FUEL)
            if t is None:
                continue
            try:
                ty = tc.typecheck(Judgment(gamma, delta, t, None))
            except tc.TypingError as exc:
                raise GeneratorError(f"generated term {t} does not typecheck: {exc}") from exc
            if not alpha_eq(ty, goal):
                raise GeneratorError(f"generated term {t} has type {ty}, not its goal {goal}")
            return Judgment(gamma, delta, t, ty)
        raise RuntimeError("exhausted attempts while generating a judgment")

    def random_subst_sample(self, part: int) -> tc.SubstSample:
        for _ in range(400):
            gamma = self.random_context(self._below(2))
            x = f"x{self._fresh()}"
            if part == 1:
                a = self.random_type(self._below(3))
                use_stoup = self._random() < 0.3
                if use_stoup:
                    delta = (f"s{self._fresh()}", self.random_type(1, Kind.COMPUTATION))
                    goal = self.random_type(self._below(3), Kind.COMPUTATION)
                else:
                    delta = None
                    goal = self.random_type(self._below(3))
                t = self.term_for(gamma + ((x, a),), delta, goal, FUEL)
                s = None if t is None else self.term_for(gamma, None, a, FUEL)
                if s is None:
                    continue
                return tc.SubstSample(1, gamma, delta, x, a, t, s)
            a = self.random_type(self._below(2), Kind.COMPUTATION)
            goal = self.random_type(self._below(3), Kind.COMPUTATION)
            t = self.term_for(gamma, (x, a), goal, FUEL)
            if t is None:  # nothing to substitute into, so no s is searched for
                continue
            use_stoup = self._random() < 0.5
            if use_stoup:
                delta = (f"s{self._fresh()}", self.random_type(1, Kind.COMPUTATION))
                s = self.term_for(gamma, delta, a, FUEL)
            else:
                delta = None
                s = self.term_for(gamma, None, a, FUEL)
            if s is None:
                continue
            return tc.SubstSample(2, gamma, delta, x, a, t, s)
        raise RuntimeError("exhausted attempts while generating a substitution sample")
