"""Denotational and relational interpretation over a finite model.

Every type denotes a finite enumerated domain: a ``SemSet``, or for a
type variable the ``FinSet`` or ``Alg`` (a size and operation tables) its
environment binds it to; each answers ``.size``.  A value is an index into
its domain, so extensional equality is integer equality, and a type
application projects at a set's size or at an algebra.  Function domains
index tables mixed-radix, ``-o`` domains index ``Model._hom_tables`` (one
listing per algebra pair, at most ``ITER_CAP`` candidates), and polymorphic
domains index the list of *parametric families*: tuples with one component
per registered object that preserve every admissible relation between
every pair of objects.

Quantifiers range over the model's registered objects only: all sets
up to the bound, one algebra per isomorphism class of the structures
up to the bound, and the free algebras on the set sizes the model is
built with, fixed when it is built.  The graph of an isomorphism is
admissible, so a family's component at a copy of an algebra is the
transport of its component at the registered one: a copy adds no
family.  A projection at a copy is transported from the component at
its class's registered algebra, which ``Model.representative`` finds by
the copy's canonical form or, past the bound, by its size, along each
isomorphism; at an algebra isomorphic to none it raises
``OutOfBoundError``.  All enumerations are deterministic, so
interpretation is reproducible bit for bit.

Interpretations are cached per model, keyed by a type's alpha-class
(``kernel.alpha_canonical``, its representative) and the environment
restricted to the type's free variables, as a binder's name plays no part
in a type's meaning: alpha-equal spellings share one domain, one family
search and one relation view per environment.  A spelling is keyed too, so
a hit costs no canonical form; a miss looks the class up, and the first
spelling builds its entry and is the type its messages name.  Types
(``kernel``), model objects (``finmodel``) and environments (``TypeEnv``,
``RelEnv``, each memoizing its restrictions) are interned, so a key hashes
in O(1) and compares by identity.  Build them only through their
constructors and never mutate them.

A function space whose codomain's size has saturated at ``2**SIZE_BITS + 1``
is an ``UnindexedFunSem``: a saturated size may bound a count but is never a
radix, so its ``apply``, ``encode`` and ``table`` raise ``OutOfBoundError``
naming the type.

A relation view (``AtomRel``, ``FunRel``, ``ForallRel``) has one
materialized form, ``rows()``: a tuple of int bitmasks in which bit ``b``
of ``rows()[a]`` is set iff ``a`` and ``b`` are related.  It is built once,
by the first ``rows()`` call, and only when ``left.size * right.size <=
ITER_CAP``; above that ``rows()`` raises ``OutOfBoundError``.
``pairs()`` is derived from the rows on each call and never stored.
``FunRel.contains`` never materializes its own view: it reads its
codomain's rows (bit ``g(y)`` of ``rows[f(x)]``), so the recursion stops
after one level; it keeps only its domain's related pairs, as the list it
walks.  ``ForallRel.contains`` reads the view's own rows whenever they fit,
since one pair costs k * k relatedness tests over k registered objects.
No view stores its own relation twice, and every relation has the rows
form that ``finmodel`` owns: relation environments bind rows, and an
``AtomRel`` keeps the rows its environment binds.

The family search decides a body in one of four ways, tried in this order.  A
vacuous binder whose body has at most ``ITER_CAP`` values and whose relation at
the diagonal environment is the diagonal (``_is_diagonal``) has the constant
families (identity extension), and a ``ForallRel`` between two such domains has
its body's rows.  Else ``pairwise_search`` over ``Model.relatedness`` decides a
body in which the binder occurs with one polarity or none (``binder_signs``) by
one relation: the least admissible relation where it occurs only covariantly or
not at all, and the full relation where it occurs only contravariantly.  Where
it does not occur, that relation's view is the body's own under the rest of the
environment, since ``interp_rel`` keys on the environment restricted to the
body's free variables.  A body ``X -> C`` with ``X`` not free in ``C`` is read
at the full relation off ``C``'s one view under the rest of the environment
(``every_value_related``): components are related iff ``C`` relates each of
their values to each of the other's, with no view per object pair.  Else a *positive* body
``D1 -> ... -> Dn -> X`` (see ``positive_args``; an argument may reach ``X``
through ``->`` and ``-o``) needs only the least relations its arguments
generate: components ``u`` at object i and ``v`` at object j are related iff
``(u d, v d')`` lies in the admissible closure of the pairs each related
argument pair ``(d, d')`` generates (``Model.least_links``), so no relation is
enumerated.  Any other body, or a positive one whose links do not fit, is
tested by ``Model.every_relation``: under every admissible relation of
``rels_for_pair``, one view at a time.  A family built by hand, such as an
effect constant's (``Model.constant_family``), is checked by the same test
(``Model.related_families``), without a search.
Tables are generated one way only: ``_forward_check`` cuts a value mask per
argument by the digit links that ``link_test`` reads, a positive body's least
links or ``paramlab``'s homomorphism graphs, and the search tests each table
again; every other component is listed.  ``relatedness`` decides each object
pair once and generates a positive body's tables from the same links.
Generated tables may pass ``ITER_CAP``; listed domains may not.
``enumerate_families_naive``, the oracle, tests every pair by ``every_relation``
alone, never through ``relatedness`` or the closed form.

Terms are typechecked once per judgment and staged once per type
environment.  ``Model._compile`` checks the root with ``typecheck.synth``,
reads every other node's type off its subterms' through a scope dict in
which the stoup is one more binding, and returns that type with ``stage``:
``stage(tyenv)`` does each node's type-level work once (its domain, an
abstraction's ``ITER_CAP`` check, a constant's value, a type application's
projector from ``project_poly``) and returns ``run(tmenv) -> value``, which
only encodes and applies; an abstraction's body over an empty domain never
runs, so it is not staged.  A staged term holds its model, so no model
caches one, which would make a cycle: ``paramlab`` keeps them per judgment.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from math import log2, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import encodings
from . import finmodel as fm
from . import typecheck as tc
from .kernel import (
    CSORT,
    VSORT,
    App,
    Arrow,
    Forall,
    Interned,
    Kind,
    Lam,
    LinLam,
    Lolli,
    TermExpr,
    TyLam,
    TyVar,
    TypeExpr,
    Var,
    alpha_canonical,
    binder_signs,
    classify_type,
    free_type_var_keys,
    hash_consed,
    subst_type,
)

NAIVE_FAMILY_CAP = 1_000_000
ITER_CAP = 400_000
STRUCTURE_CAP = 512**2  # entries of one operation's table on a computation type
SIZE_BITS = 64  # a function space past 2**SIZE_BITS elements is sized 2**SIZE_BITS + 1


OutOfBoundError = fm.OutOfBoundError


class InterpError(Exception):
    pass


# ---------------------------------------------------------------------------
# semantic domains


@dataclass(eq=False)
class SemSet:
    size: int


@dataclass(eq=False)
class FunSem(SemSet):
    dom: SemSet
    cod: SemSet

    def apply(self, f: int, x: int) -> int:
        n = self.cod.size
        return f // n**x % n

    def encode(self, table: Sequence[int]) -> int:
        acc = 0
        for x in reversed(range(self.dom.size)):
            acc = acc * self.cod.size + table[x]
        return acc

    def table(self, f: int) -> tuple[int, ...]:
        return tuple(self.apply(f, x) for x in range(self.dom.size))

    def each_table(self) -> Iterator[tuple[int, ...]]:
        """The table of every element, in index order."""
        return (t[::-1] for t in product(range(self.cod.size), repeat=self.dom.size))


@dataclass(eq=False)
class UnindexedFunSem(FunSem):
    """A function space whose codomain's size has saturated: its values have
    no radix to be read or built by, so ``apply``, ``encode`` and ``table``
    raise rather than reduce an index modulo a bound."""

    ty: Optional[TypeExpr]  # the type and its environment, named in the error;
    env: Optional["TypeEnv"]  # None where only the size is asked for

    def _unindexed(self) -> OutOfBoundError:
        return OutOfBoundError(f"values of {_bound_type(self.ty, self.env)} are not indexed:"
                               f" its codomain has more than 2**{SIZE_BITS} elements")

    def apply(self, f: int, x: int) -> int:
        raise self._unindexed()

    def encode(self, table: Sequence[int]) -> int:
        raise self._unindexed()

    def table(self, f: int) -> tuple[int, ...]:
        raise self._unindexed()


def fun_sem(dom: SemSet, cod: SemSet, ty: Optional[TypeExpr] = None, env: Optional["TypeEnv"] = None) -> FunSem:
    """The function space ``ty`` under ``env``, sized ``cod.size**dom.size`` up to
    ``2**SIZE_BITS`` and saturated just past it, far past ``ITER_CAP``:
    nested function spaces would otherwise build a power tower of Python
    ints.  A saturated size may bound a count but is never a radix, so a
    space over a saturated codomain is an ``UnindexedFunSem``."""
    size = (1 << SIZE_BITS) + 1 if cod.size > 1 and dom.size * log2(cod.size) > SIZE_BITS else cod.size**dom.size
    if cod.size > 1 << SIZE_BITS:
        return UnindexedFunSem(size, dom, cod, ty, env)
    return FunSem(size, dom, cod)


def _bound_type(ty: Optional[TypeExpr], env: Optional["TypeEnv"]) -> str:
    """``ty`` in a message, with what ``env`` binds its free variables to."""
    binds = "" if env is None else ", ".join(
        f"{TyVar(s, n)} {'an algebra' if s == CSORT else 'a set'} on {v.size} elements"
        for (s, n), v in env.restrict(free_type_var_keys(ty)).items)
    return f"{ty}{binds and f', with {binds},'}"


def _count(n: int) -> str:
    """A size in a message: past ``2**SIZE_BITS`` it may have saturated, so only that bound is sure."""
    return f"more than 2**{SIZE_BITS}" if n > 1 << SIZE_BITS else str(n)


@dataclass(eq=False)
class HomSem(SemSet):
    dom: SemSet
    cod: SemSet
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self._index: Optional[dict] = None

    def apply(self, f: int, x: int) -> int:
        return self.tables[f][x]

    def encode(self, table: Sequence[int]) -> int:
        if self._index is None:
            self._index = {t: i for i, t in enumerate(self.tables)}
        idx = self._index.get(tuple(table))
        if idx is None:
            raise InterpError("table is not structure-preserving")
        return idx

    def table(self, f: int) -> tuple[int, ...]:
        return self.tables[f]

    def each_table(self) -> Iterator[tuple[int, ...]]:
        return iter(self.tables)


def preimages(sem: FunSem | HomSem) -> list[list[int]]:
    """``preimages(sem)[y][c]``: the mask of the elements of a ``->`` or ``-o``
    domain that send y to c, read off its ``each_table()`` one bit at a time."""
    cols = [[bytearray((sem.size + 7) >> 3) for _ in range(sem.cod.size)] for _ in range(sem.dom.size)]
    for h, table in enumerate(sem.each_table()):
        byte, bit = h >> 3, 1 << (h & 7)
        for col, c in zip(cols, table):
            col[c][byte] |= bit
    return [[int.from_bytes(buf, "little") for buf in col] for col in cols]


@dataclass(eq=False)
class PolySem(SemSet):
    sort: str  # the binder's: quantification over sets or over algebras
    comps: tuple[SemSet, ...]
    fams: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self._index: Optional[dict] = None

    def encode(self, fam: Sequence[int]) -> int:
        if self._index is None:
            self._index = {t: i for i, t in enumerate(self.fams)}
        idx = self._index.get(tuple(fam))
        if idx is None:
            raise InterpError("family is not parametric")
        return idx


# ---------------------------------------------------------------------------
# environments


@hash_consed
class TypeEnv(Interned):
    """Immutable map from sorted type variables to sets / algebras."""

    items: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})  # set and restrict results

    def get(self, sort: str, name: str):
        for (s, n), v in self.items:
            if s == sort and n == name:
                return v
        raise InterpError(f"type variable {TyVar(sort, name)} not in environment")

    def set(self, sort: str, name: str, value) -> "TypeEnv":
        key = (sort, name, value)
        env = self._memo.get(key)
        if env is None:
            rest = tuple(it for it in self.items if it[0] != (sort, name))
            env = self._memo[key] = TypeEnv(tuple(sorted(rest + (((sort, name), value),))))
        return env

    def restrict(self, keys: frozenset) -> "TypeEnv":
        """The bindings of the ``(sort, name)`` keys in ``keys``.  Keeping
        every binding gives ``self``, memoized as None: a memo holding its
        owner would be a cycle that only the cycle collector frees."""
        try:
            env = self._memo[keys]
        except KeyError:
            items = tuple(it for it in self.items if it[0] in keys)
            env = self._memo[keys] = None if len(items) == len(self.items) else TypeEnv(items)
        return self if env is None else env


def type_env(vvars: dict = {}, cvars: dict = {}) -> TypeEnv:
    items = tuple(((VSORT, n), v) for n, v in vvars.items()) + tuple(
        ((CSORT, n), v) for n, v in cvars.items()
    )
    return TypeEnv(tuple(sorted(items, key=lambda it: it[0])))


@hash_consed
class RelEnv(Interned):
    rho1: TypeEnv
    rho2: TypeEnv
    rels: tuple = ()  # ((sort, name), rows), sorted

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})  # restrict results

    def rel(self, sort: str, name: str) -> tuple[int, ...]:
        for (s, n), r in self.rels:
            if s == sort and n == name:
                return r
        raise InterpError(f"no relation for {TyVar(sort, name)}")

    def set(self, sort: str, name: str, left, right, rel: tuple[int, ...]) -> "RelEnv":
        nl, nr = left.size, right.size
        if not fm.in_carriers(rel, nl, nr):
            raise InterpError(f"relation escapes its carriers {nl}x{nr}")
        rest = tuple(it for it in self.rels if it[0] != (sort, name))
        return RelEnv(
            self.rho1.set(sort, name, left),
            self.rho2.set(sort, name, right),
            tuple(sorted(rest + (((sort, name), rel),))),
        )

    def restrict(self, keys: frozenset) -> "RelEnv":
        """Both environments and the relations, restricted to ``keys``;
        ``self``, memoized as None, when every binding stays (see ``TypeEnv``)."""
        try:
            env = self._memo[keys]
        except KeyError:
            env = RelEnv(self.rho1.restrict(keys), self.rho2.restrict(keys),
                         tuple(it for it in self.rels if it[0] in keys))
            env = self._memo[keys] = None if env is self else env
        return self if env is None else env


def diag_relenv(env: TypeEnv) -> RelEnv:
    rels = tuple(sorted((key, fm.diagonal(v.size)) for key, v in env.items))
    return RelEnv(env, env, rels)


# ---------------------------------------------------------------------------
# relation views


class RelView:
    """The relation of ``ty`` between the domains ``left`` and ``right``:
    ``rows()`` is its one materialized form, ``contains`` tests one pair."""

    __slots__ = ("ty", "left", "right", "_rows")  # a model holds tens of thousands of views

    def __init__(self, ty: TypeExpr, left: SemSet, right: SemSet):
        self.ty, self.left, self.right = ty, left, right
        self._rows: Optional[tuple[int, ...]] = None

    def fits(self) -> bool:
        """Whether ``rows()`` can be built within ``ITER_CAP`` (or already is)."""
        return self._rows is not None or self.left.size * self.right.size <= ITER_CAP

    def rows(self) -> tuple[int, ...]:
        """Bit ``b`` of ``rows()[a]`` is set iff ``a`` and ``b`` are related."""
        if self._rows is None:
            if not self.fits():
                raise OutOfBoundError(
                    f"relation at {self.ty} is too large to materialize:"
                    f" {_count(self.left.size)} x {_count(self.right.size)} pairs, more than ITER_CAP ({ITER_CAP})"
                )
            self._rows = self._build_rows()
        return self._rows

    def _build_rows(self) -> tuple[int, ...]:
        raise NotImplementedError

    def contains(self, a: int, b: int) -> bool:
        raise NotImplementedError

    def pairs(self) -> list[tuple[int, int]]:
        """The related pairs, ascending, derived from ``rows()`` on every call."""
        return fm.rel_pairs(self.rows())


class AtomRel(RelView):
    """The relation an environment binds to a type variable."""

    __slots__ = ()

    def __init__(self, ty: TypeExpr, left: SemSet, right: SemSet, rows: tuple[int, ...]):
        super().__init__(ty, left, right)
        self._rows = rows

    def contains(self, a: int, b: int) -> bool:
        return self._rows[a] >> b & 1  # type: ignore[index]

    pairs = RelView.pairs  # named here too, so perfbench traces it per view class


class FunRel(RelView):
    """Related functions map related arguments to related results."""

    __slots__ = ("dom_rel", "cod_rel", "_walk")

    def __init__(self, ty: TypeExpr, left: SemSet, right: SemSet, dom_rel: RelView, cod_rel: RelView):
        super().__init__(ty, left, right)
        self.dom_rel, self.cod_rel = dom_rel, cod_rel
        self._walk: Optional[tuple[tuple[int, ...], Optional[tuple[int, ...]]]] = None

    def walk(self) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
        """What ``contains`` and ``rows`` read: the domain's related pairs
        in order, flat (``x0, y0, x1, y1, ...``), and the codomain's rows,
        or None when they do not fit.  A codomain relation that relates every
        pair relates every pair of functions, so a domain too large to
        materialize then contributes no pairs."""
        if self._walk is None:
            cod = self.cod_rel
            if not self.dom_rel.fits() and cod.fits() and all(row == (1 << cod.right.size) - 1 for row in cod.rows()):
                self._walk = ((), None)
            else:
                pairs = tuple(
                    v for x, row in enumerate(self.dom_rel.rows()) for y in fm.bits_of(row) for v in (x, y)
                )
                self._walk = (pairs, cod.rows() if pairs and cod.fits() else None)
        return self._walk

    def contains(self, f: int, g: int) -> bool:
        """Reads this view's rows if built, else the codomain's rows when
        they fit, so the recursion stops after one level."""
        if self._rows is not None:
            return self._rows[f] >> g & 1
        pairs, rows = self._walk or self.walk()
        l, r, it = self.left, self.right, iter(pairs)
        if rows is not None:
            for x, y in zip(it, it):
                if not rows[l.apply(f, x)] >> r.apply(g, y) & 1:  # type: ignore[attr-defined]
                    return False
            return True
        for x, y in zip(it, it):
            if not self.cod_rel.contains(l.apply(f, x), r.apply(g, y)):  # type: ignore[attr-defined]
                return False
        return True

    def _build_rows(self) -> tuple[int, ...]:
        l, r = self.left, self.right
        pairs, cod_rows = self.walk()
        full = (1 << r.size) - 1
        if not pairs:
            return (full,) * l.size
        if cod_rows is None:
            return tuple(fm.mask_of((g for g in range(r.size) if self.contains(f, g)), r.size)
                         for f in range(l.size))
        # to[y][a]: the g whose value at y is related to a (preimages are
        # disjoint, so their sum is their union)
        to = [[sum(pre_y[c] for c in fm.bits_of(row)) for row in cod_rows] for pre_y in preimages(r)]
        rows = []
        for ft in l.each_table():  # type: ignore[attr-defined]
            m = full
            it = iter(pairs)
            for x, y in zip(it, it):
                m &= to[y][ft[x]]
                if not m:
                    break
            rows.append(m)
        return tuple(rows)

    pairs = RelView.pairs


class ForallRel(RelView):
    """Related families have related components at every pair of objects
    under every admissible relation: between constant families of a vacuous
    binder, iff their values are related by the body, so by its rows."""

    __slots__ = ("_model", "rho")

    def __init__(self, model: "Model", rho: RelEnv, ty: TypeExpr, left: SemSet, right: SemSet):
        super().__init__(ty, left, right)
        # the model holds its views, so a view holds it weakly: a dropped
        # model is then freed at once rather than by the cycle collector
        self._model, self.rho = weakref.ref(model), rho

    def contains(self, a: int, b: int) -> bool:
        """Reads this view's rows whenever they fit: a query costs k * k
        relatedness tests, and the few families make the rows small."""
        if self.fits():
            return self.rows()[a] >> b & 1
        related = self._model().related_families(self.rho, self.ty)  # type: ignore[union-attr]
        return related(self.left.fams[a], self.right.fams[b])  # type: ignore[attr-defined]

    def _build_rows(self) -> tuple[int, ...]:
        model, ty, l, r = self._model(), self.ty, self.left, self.right
        k = len(model.objects(ty.sort))  # type: ignore[union-attr]
        if k and not binder_signs(ty.sort, ty.binder, ty.body):
            body = model.interp_rel(self.rho, ty.body)  # type: ignore[union-attr]
            if (len(l.fams), len(r.fams)) == (body.left.size, body.right.size) and (l.fams, r.fams) == (
                    constant_families(k, body.left.size), constant_families(k, body.right.size)):
                return body.rows()
        related = model.related_families(self.rho, ty)  # type: ignore[union-attr]
        right_fams = self.right.fams  # type: ignore[attr-defined]
        return tuple(
            fm.mask_of((b for b, fam_b in enumerate(right_fams) if related(fam_a, fam_b)), self.right.size)
            for fam_a in self.left.fams  # type: ignore[attr-defined]
        )

    pairs = RelView.pairs


def pairwise_search(sizes: Sequence[int], ok: Callable[[int, int, int, int], bool],
                    candidates: Callable[[int], Optional[Sequence[int]]] = lambda i: None,
                    ) -> tuple[tuple[int, ...], ...]:
    """Every tuple ``t`` with ``t[i] < sizes[i]`` and ``ok(i, j, t[i], t[j])``
    for all positions ``i`` and ``j``, sorted.

    ``candidates(i)`` may return the values ``c`` with ``ok(i, i, c, c)`` in
    ascending order, or None to list ``range(sizes[i])``; each value it
    returns is tested again all the same.  Every position's candidates that
    pass ``ok(i, i, c, c)`` are found first, smallest domain first; then
    positions are fixed fewest candidates first, each candidate tested both
    ways against every fixed position.  Only listing is capped: a position
    listed past ``ITER_CAP``, or whose source or self test raises
    ``OutOfBoundError``, is set aside, and the first such error (in domain
    order) is raised only if the other positions leave a tuple.
    """
    cands: dict[int, list[int]] = {}
    aside: Optional[OutOfBoundError] = None
    for i in sorted(range(len(sizes)), key=lambda i: (sizes[i], i)):
        try:
            source = candidates(i)
            if source is None and sizes[i] > ITER_CAP:
                raise OutOfBoundError(
                    f"component {i} has {_count(sizes[i])} candidates, more than ITER_CAP ({ITER_CAP})"
                )
            cands[i] = [c for c in (range(sizes[i]) if source is None else source) if ok(i, i, c, c)]
        except OutOfBoundError as exc:
            aside = aside or exc
            continue
        if not cands[i]:
            return ()
    order = sorted(cands, key=lambda i: (len(cands[i]), i))
    partial: list[tuple[int, ...]] = [()]
    for pos, i in enumerate(order):
        fixed = order[:pos]
        partial = [
            asg + (c,)
            for asg in partial
            for c in cands[i]
            if all(ok(j, i, u, c) and ok(i, j, c, u) for j, u in zip(fixed, asg))
        ]
        if not partial:
            return ()
    if aside is not None:
        raise aside
    at = sorted(range(len(order)), key=order.__getitem__)
    return tuple(sorted(tuple(asg[p] for p in at) for asg in partial))


def constant_families(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The families over ``k`` objects that take one of ``n`` values at every object, ascending."""
    return tuple((c,) * k for c in range(n))


def _is_diagonal(view: RelView) -> bool:
    """Whether ``view`` relates each value to itself alone: a ``FunRel`` iff its domain and codomain
    views are (``f ~ g`` iff ``f x = g x`` at every ``x``), any other view iff its rows fit and are."""
    if isinstance(view, FunRel):
        return _is_diagonal(view.dom_rel) and _is_diagonal(view.cod_rel)
    return view.left is view.right and view.fits() and view.rows() == fm.diagonal(view.left.size)


def every_value_related(cod: RelView, left: SemSet, right: SemSet) -> Callable[[int, int], bool]:
    """``test(u, v)``: ``cod`` relates ``u x`` to ``v y`` for every argument
    ``x`` of the function space ``left`` and ``y`` of ``right``, which is how
    the full relation on a ``X -> C`` domain relates ``u`` and ``v``.  Reads
    ``cod``'s rows when they fit, each ``v`` as the mask of its values."""
    xs, ys = range(left.dom.size), range(right.dom.size)  # type: ignore[attr-defined]
    if not xs or not ys:
        return lambda u, v: True
    if not cod.fits():
        return lambda u, v: all(cod.contains(left.apply(u, x), right.apply(v, y))  # type: ignore[attr-defined]
                                for x in xs for y in ys)
    rows = cod.rows()

    def test(u: int, v: int) -> bool:
        want = 0
        for y in ys:
            want |= 1 << right.apply(v, y)  # type: ignore[attr-defined]
        return all(rows[left.apply(u, x)] & want == want for x in xs)  # type: ignore[attr-defined]

    return test


def positive_args(sort: str, binder: str, body: TypeExpr) -> Optional[list]:
    """The arguments of a positive body ``D1 -> ... -> Dn -> X``, whose whole
    codomain is the binder ``X``: each ``Dk`` as ``(Dk, None)`` when ``X`` is
    not free in it, or as ``(Dk, [E1, ..., Em])`` when it is a chain of ``->``
    and ``-o`` ending in ``X``, ``E1 -> ... -> Em -o X``, with ``X`` free in no
    ``Ei``.  None for any other body, a top-level ``-o`` included."""
    x, key = TyVar(sort, binder), (sort, binder)

    def chain(ty: TypeExpr, arrows: tuple) -> tuple[list, TypeExpr]:
        doms = []
        while isinstance(ty, arrows):
            doms.append(ty.dom)
            ty = ty.cod
        return doms, ty

    doms, cod = chain(body, Arrow)
    if cod is not x:
        return None
    args = []
    for d in doms:
        if key not in free_type_var_keys(d):
            args.append((d, None))
            continue
        es, end = chain(d, (Arrow, Lolli))
        if end is not x or any(key in free_type_var_keys(e) for e in es):
            return None
        args.append((d, es))
    return args


def link_test(links: dict[tuple[int, int], tuple[int, ...]], m: int, n: int) -> Callable[[int, int], bool]:
    """``test(u, v)``: bit ``v[q]`` of ``rows[u[p]]`` is set for every link ``(p,
    q): rows``, where ``u[p]`` is the digit of ``u`` at ``p`` in base ``m`` (a
    table's value at flat argument position ``p``), ``v[q]`` that of ``v``."""
    digits = [(m**p, n**q, rows) for (p, q), rows in links.items()]

    def test(u: int, v: int) -> bool:
        for mp, nq, rows in digits:
            if not rows[u // mp % m] >> (v // nq % n) & 1:
                return False
        return True

    return test


def _forward_check(n: int, m: int, links: dict[tuple[int, int], tuple[int, ...]]) -> list[int]:
    """Every table ``c`` of ``n`` values below ``m`` (index ``sum c[x] * m**x``)
    with ``link_test(links, m, m)(c, c)``, ascending.

    Forward checking (Mackworth, "Consistency in Networks of Relations",
    1977): one mask of values per argument, first cut by the links with
    ``x == y``, then arguments fixed from the last (the most significant
    digit) down, each choice ANDing into every argument still open the
    values it leaves there.  More than ``ITER_CAP`` tables raise
    ``OutOfBoundError``.
    """
    masks = [(1 << m) - 1] * n
    after: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]  # x -> {y < x: mask by c(x)}
    last = None
    for (x, y), rows in links.items():
        if rows is not last:  # neighbouring links often share one closure
            last, cols = rows, fm.converse(rows, m)
            diag = fm.mask_of((c for c in range(m) if rows[c] >> c & 1), m)
        if x == y:
            masks[x] &= diag
            continue
        first, then, allowed = (x, y, rows) if x > y else (y, x, cols)
        have = after[first].get(then)
        after[first][then] = allowed if have is None else tuple(map(int.__and__, have, allowed))
    weights = [m**x for x in range(n)]
    out: list[int] = []

    def fix(x: int, avail: list[int], acc: int) -> None:
        if x < 0:
            if len(out) == ITER_CAP:
                raise OutOfBoundError(f"more than ITER_CAP ({ITER_CAP}) tables pass forward checking")
            out.append(acc)
            return
        for c in fm.bits_of(avail[x]):
            rest = list(avail)
            for y, allowed in after[x].items():
                rest[y] &= allowed[c]
                if not rest[y]:
                    break
            else:
                fix(x - 1, rest, acc + c * weights[x])

    fix(n - 1, masks, 0)
    return out


# ---------------------------------------------------------------------------
# the model


class Model:
    """A finite interpretation context: monad, bound, registered objects, caches.

    A model is fixed by its monad, its bound and the set sizes whose free
    algebras it registers; its effect constants are the monad's
    (``encodings.register_effect_constants``)."""

    def __init__(self, monad: fm.MonadSpec, bound: int, free_sizes: Iterable[int] = ()):
        """``free_sizes``: the set sizes whose free algebras are registered.

        The model registers one algebra per isomorphism class, keyed by its
        canonical form (``fm.canonical_form``): the first of the class in
        ``fm.enumerate_algebras``' lexicographic order, which is that form.
        A free algebra takes its class's place, so ``free_algebra`` reads
        T A's own labels; one past the bound joins at the end, keyed by its
        size, since |T A| grows strictly with |A|.  ``representative`` finds
        a copy's class by the same key, and a projection at the copy is the
        transport of the component at the class's registered algebra."""
        self.monad = monad
        self.bound = bound
        self.sets = fm.enumerate_sets(bound)
        classes: dict[fm.Alg | int, fm.Alg] = {}  # class key (``_class_key``) -> the class's registered algebra
        for alg in fm.enumerate_algebras(monad, bound, ITER_CAP):
            classes.setdefault(self._class_key(alg), alg)
        free = {size: fm.free_algebra(monad, size) for size in free_sizes}
        for alg, _ in free.values():
            classes[self._class_key(alg)] = alg
        self.algebras = list(classes.values())
        self._alg_index = {alg: i for i, alg in enumerate(self.algebras)}
        self._classes = {key: i for i, key in enumerate(classes)}
        self._free: dict[int, tuple[int, tuple[int, ...]]] = {  # |A| -> (index of T A, unit table)
            size: (self._alg_index[alg], eta) for size, (alg, eta) in free.items()}
        self.constants: dict[str, TypeExpr] = encodings.register_effect_constants(monad)
        self._vty: dict = {}
        self._cty: dict = {}
        self._rel: dict = {}
        self._pair_rels: dict = {}  # (sort, i, j) -> rels_for_pair
        self._homs: dict = {}  # (dom, cod) -> _hom_tables
        self._leaf_vals: dict = {}  # (domain, depth) -> _leaves
        self._closures: dict = {}  # (i, j, rows) -> admissible closure between algebras i and j
        self._const_val: dict = {}
        self._two: Optional[tuple[int, int]] = None

    # -- objects ---------------------------------------------------------

    def free_algebra(self, size: int) -> tuple[int, fm.Alg, tuple[int, ...]]:
        """The registered free algebra on a ``size``-element set: its object
        index, the algebra and the unit table.  A check asks for every size
        it ranges over before it counts anything, so a size the model does
        not register makes the check out of bound, never wrong."""
        if size not in self._free:
            raise OutOfBoundError(
                f"free algebra on a {size}-element set is not registered in this model"
            )
        idx, eta = self._free[size]
        return idx, self.algebras[idx], eta

    def alg_index(self, alg: fm.Alg) -> Optional[int]:
        return self._alg_index.get(alg)

    def _class_key(self, alg: fm.Alg):
        """The canonical form within the bound; past it the size, which one free algebra at most has."""
        return fm.canonical_form(alg) if alg.size <= self.bound else alg.size

    def representative(self, alg: fm.Alg) -> tuple[Optional[int], list[tuple[int, ...]]]:
        """The index of the registered algebra of ``alg``'s class and the
        isomorphisms from it to ``alg`` in lexicographic order, or ``(None,
        [])`` where no registered algebra is isomorphic to ``alg``."""
        idx = self._classes.get(self._class_key(alg))
        if idx is None:
            return None, []
        isos = fm.enumerate_isos(self.algebras[idx], alg, ITER_CAP)
        return (idx, isos) if isos else (None, [])

    def objects(self, sort: str):
        return self.sets if sort == VSORT else self.algebras

    def rels_for_pair(self, sort: str, i: int, j: int) -> list[tuple[int, ...]]:
        """Admissible relations between objects i and j, most selective first:
        by number of pairs, then by the ascending list of pairs.  Admissibility
        is closed under converse, so a pair whose converse is listed already
        takes the converses of that list."""
        key = (sort, i, j)
        if key not in self._pair_rels:
            back = self._pair_rels.get((sort, j, i))
            if back is not None:
                n = self.objects(sort)[i].size
                rels = [fm.converse(r, n) for r in back]
            elif sort == VSORT:
                rels = fm.enumerate_set_rels(self.sets[i].size, self.sets[j].size)
            else:
                rels = fm.enumerate_alg_rels(self.algebras[i], self.algebras[j])
            self._pair_rels[key] = sorted(rels, key=lambda r: (len(pairs := fm.rel_pairs(r)), pairs))
        return self._pair_rels[key]

    # -- value-type interpretation ----------------------------------------

    def interp_vtype(self, env: TypeEnv, ty: TypeExpr) -> SemSet:
        key = (ty, env.restrict(free_type_var_keys(ty)))
        sem = self._vty.get(key)
        return self._alpha_miss(self._vty, key, env, self._interp_vtype) if sem is None else sem

    @staticmethod
    def _alpha_miss(memo: dict, key: tuple, env, build: Callable):
        """A cache miss on ``key``, a type and its restricted environment: the
        entry of the type's alpha-class under that environment, built from this
        spelling if no other spelling has built it, and kept under both keys."""
        ty, restricted = key
        canon = (alpha_canonical(ty), restricted)
        val = memo.get(canon)
        if val is None:
            val = memo[canon] = build(env, ty)
        memo[key] = val
        return val

    def _interp_vtype(self, env: TypeEnv, ty: TypeExpr) -> SemSet:
        if isinstance(ty, TyVar):
            return env.get(ty.sort, ty.name)
        if isinstance(ty, Arrow):
            return fun_sem(self.interp_vtype(env, ty.dom), self.interp_vtype(env, ty.cod), ty, env)
        if isinstance(ty, Lolli):
            dom_sem, cod_sem = self.interp_vtype(env, ty.dom), self.interp_vtype(env, ty.cod)
            # with no constants every table is a candidate, so the carriers alone
            # can put the space out of bound, before any structure table is built
            algs = None if 0 not in self.monad.arities and fun_sem(dom_sem, cod_sem).size > ITER_CAP else (
                self.interp_ctype(env, ty.dom), self.interp_ctype(env, ty.cod))
            try:
                if algs is None:
                    raise OutOfBoundError(f"hom space too large: {cod_sem.size}^{_count(dom_sem.size)}")
                tables = self._hom_tables(*algs)
            except OutOfBoundError as exc:
                raise OutOfBoundError(
                    f"homomorphisms for {_bound_type(ty, env)} from the algebra on {dom_sem.size}"
                    f" elements to the algebra on {cod_sem.size}: {exc}"
                ) from exc
            return HomSem(len(tables), dom_sem, cod_sem, tables)
        if isinstance(ty, Forall):
            comps = [self.interp_vtype(env.set(ty.sort, ty.binder, obj), ty.body)
                     for obj in self.objects(ty.sort)]
            fams = self._families(env, ty, comps)
            return PolySem(len(fams), ty.sort, tuple(comps), fams)
        raise InterpError(f"cannot interpret type {ty!r}")

    def _hom_tables(self, dom: fm.Alg, cod: fm.Alg) -> tuple[tuple[int, ...], ...]:
        """The homomorphisms dom -> cod in lexicographic order, listed once; past ``ITER_CAP`` each request raises."""
        if (dom, cod) not in self._homs:
            self._homs[dom, cod] = tuple(fm.enumerate_homs(dom, cod, ITER_CAP))
        return self._homs[dom, cod]

    # -- computation-type interpretation -----------------------------------

    def interp_ctype(self, env: TypeEnv, ty: TypeExpr) -> fm.Alg:
        key = (ty, env.restrict(free_type_var_keys(ty)))
        alg = self._cty.get(key)
        return self._alpha_miss(self._cty, key, env, self._interp_ctype) if alg is None else alg

    def _interp_ctype(self, env: TypeEnv, ty: TypeExpr) -> fm.Alg:
        if classify_type(ty) is not Kind.COMPUTATION:
            raise InterpError(f"{ty} is not a computation type")
        m = self.monad
        if isinstance(ty, TyVar):
            return env.get(CSORT, ty.name)
        # the operation tables are built per element through the structural
        # recursion below, so component algebras never materialize in full
        n = self.interp_vtype(env, ty).size
        ops = []
        for k, (name, arity) in enumerate(m.operations):
            if n ** arity > STRUCTURE_CAP:
                raise OutOfBoundError(f"structure table of {ty} too large: operation {name} of arity {arity}"
                                      f" needs {_count(n)}^{arity} entries, more than {STRUCTURE_CAP}")
            ops.append(tuple(self._pointwise(env, ty, k, args) for args in product(range(n), repeat=arity)))
        return fm.Alg(m, n, tuple(ops))

    def _pointwise(self, env: TypeEnv, ty: TypeExpr, k: int, args: Sequence[int]) -> int:
        """Operation ``k`` at each ``^X`` leaf of a computation type,
        tabulated through ``->`` and ``forall``: an element of the domain
        built pointwise from the elements ``args``, one per argument."""
        if isinstance(ty, TyVar):
            return env.get(CSORT, ty.name).op(k, args)
        sem = self.interp_vtype(env, ty)
        if isinstance(ty, Arrow):
            return sem.encode([  # type: ignore[attr-defined]
                self._pointwise(env, ty.cod, k, [sem.apply(u, x) for u in args])
                for x in range(sem.dom.size)  # type: ignore[attr-defined]
            ])
        if isinstance(ty, Forall):
            return sem.encode([  # type: ignore[attr-defined]
                self._pointwise(env.set(ty.sort, ty.binder, obj), ty.body, k,
                                [sem.fams[u][i] for u in args])  # type: ignore[attr-defined]
                for i, obj in enumerate(self.objects(ty.sort))
            ])
        raise InterpError(f"no pointwise structure at {ty!r}")

    # -- relational interpretation ----------------------------------------

    def interp_rel(self, rho: RelEnv, ty: TypeExpr) -> RelView:
        key = (ty, rho.restrict(free_type_var_keys(ty)))
        view = self._rel.get(key)
        return self._alpha_miss(self._rel, key, rho, self._interp_rel) if view is None else view

    def _interp_rel(self, rho: RelEnv, ty: TypeExpr) -> RelView:
        left = self.interp_vtype(rho.rho1, ty)
        right = self.interp_vtype(rho.rho2, ty)
        if isinstance(ty, TyVar):
            return AtomRel(ty, left, right, rho.rel(ty.sort, ty.name))
        if isinstance(ty, (Arrow, Lolli)):
            dom_rel = self.interp_rel(rho, ty.dom)
            cod_rel = self.interp_rel(rho, ty.cod)
            return FunRel(ty, left, right, dom_rel, cod_rel)
        if isinstance(ty, Forall):
            return ForallRel(self, rho, ty, left, right)
        raise InterpError(f"cannot interpret type {ty!r}")

    # -- parametric families ------------------------------------------------

    def relatedness(self, rho: RelEnv, sort: str, binder: str, body: TypeExpr
                    ) -> tuple[Callable[[int, int, int, int], bool], Callable[[int], Optional[list[int]]]]:
        """``(related, tables)``: the one place that decides each object pair.

        ``related(i, j, u, v)``: the components ``u`` of ``body`` at object
        ``i`` and ``v`` at object ``j`` are related under every admissible
        relation between the two objects, with ``rho`` on the other variables.
        A pair's test is built on its first call, and decides a body in this
        order:
        - by one extreme relation where the binder occurs with one polarity
          or none (``binder_signs``): the interpretation is monotone in a
          covariant binder's relation and antitone in a contravariant one's,
          and the admissible relations are closed under intersection and
          hold the full relation, so the least admissible relation decides a
          covariant binder and the full relation a contravariant one
          (Reynolds 1983; Wadler, "Theorems for free!", 1989); a vacuous
          binder takes the least relation too, whose view is the body's own
          under ``rho``, as ``interp_rel`` keys on the body's free variables;
          and a contravariant body ``X -> C`` with ``X`` not free in ``C``
          is read off ``C``'s view under ``rho`` (``every_value_related``);
        - by a positive body's ``least_links`` (``link_test``), wherever they fit;
        - by ``every_relation``, the naive oracle's test.
        ``tables(i)``: the tables ``c`` of a positive body's component at ``i``
        with ``related(i, i, c, c)``, ascending, which ``_forward_check``
        generates from the same ``(i, i)`` links; None for any other body, or
        when the links do not fit.
        """
        objs = self.objects(sort)
        signs = binder_signs(sort, binder, body)
        args = positive_args(sort, binder, body)
        from_binder = (isinstance(body, Arrow) and body.dom is TyVar(sort, binder)
                       and (sort, binder) not in free_type_var_keys(body.cod))
        links: dict = {}  # (i, j) -> least_links
        tests: dict = {}  # (i, j) -> the pair's test
        every = self.every_relation(rho, sort, binder, body)

        def pair_links(i: int, j: int) -> Optional[dict[tuple[int, int], tuple[int, ...]]]:
            if (i, j) not in links:
                links[i, j] = None if args is None else self.least_links(rho, sort, binder, args, i, j)
            return links[i, j]

        def test_for(i: int, j: int) -> Callable[[int, int], bool]:
            m, n = objs[i].size, objs[j].size
            if len(signs) < 2:  # one extreme relation
                if -1 in signs and from_binder:  # X -> C at the full relation: C's view under rho decides
                    return every_value_related(self.interp_rel(rho, body.cod),  # type: ignore[attr-defined]
                                               self.interp_vtype(rho.rho1.set(sort, binder, objs[i]), body),
                                               self.interp_vtype(rho.rho2.set(sort, binder, objs[j]), body))
                q = ((1 << n) - 1,) * m if -1 in signs else self._closure(sort, i, j, (0,) * m)
                return self.interp_rel(rho.set(sort, binder, objs[i], objs[j], q), body).contains
            pair = pair_links(i, j)
            return partial(every, i, j) if pair is None else link_test(pair, m, n)

        def related(i: int, j: int, u: int, v: int) -> bool:
            test = tests.get((i, j))
            if test is None:
                test = tests[i, j] = test_for(i, j)
            return test(u, v)

        def tables(i: int) -> Optional[list[int]]:
            pair = pair_links(i, i)
            if pair is None:
                return None
            env = rho.rho1.set(sort, binder, objs[i])
            n = prod(self.interp_vtype(env, d).size for d, _ in args)  # type: ignore[union-attr]
            return _forward_check(n, objs[i].size, pair)

        return related, tables

    def related_families(self, rho: RelEnv, ty: TypeExpr) -> Callable[[tuple[int, ...], tuple[int, ...]], bool]:
        """Whether two families of the quantified type ``ty`` are related under
        ``rho``: their components at every object pair, by one shared
        ``relatedness`` test.  A family is parametric iff it is related to
        itself under ``diag_relenv``."""
        related, _ = self.relatedness(rho, ty.sort, ty.binder, ty.body)

        def test(fam_a: tuple[int, ...], fam_b: tuple[int, ...]) -> bool:
            k = len(fam_a)
            return all(related(i, j, fam_a[i], fam_b[j]) for i in range(k) for j in range(k))

        return test

    def every_relation(self, rho: RelEnv, sort: str, binder: str, body: TypeExpr
                       ) -> Callable[[int, int, int, int], bool]:
        """``related(i, j, u, v)`` by definition: the components ``u`` of
        ``body`` at object ``i`` and ``v`` at object ``j`` are related under
        every admissible relation of ``rels_for_pair``, with ``rho`` on the
        other variables.  A pair's relations are fetched on its first call, and
        each relation's view on first use; ``interp_rel`` keeps it in
        ``Model._rel`` for the model's life.  The naive oracle's test, and
        ``relatedness``'s last rule."""
        objs = self.objects(sort)
        pairs: dict = {}  # (i, j) -> (the pair's relations, the views built so far)

        def related(i: int, j: int, u: int, v: int) -> bool:
            rels, views = pairs.get((i, j)) or pairs.setdefault((i, j), (self.rels_for_pair(sort, i, j), []))
            for k, q in enumerate(rels):
                if k == len(views):
                    views.append(self.interp_rel(rho.set(sort, binder, objs[i], objs[j], q), body))
                if not views[k].contains(u, v):
                    return False
            return True

        return related

    def least_links(self, rho: RelEnv, sort: str, binder: str, args: list, i: int, j: int
                    ) -> Optional[dict[tuple[int, int], tuple[int, ...]]]:
        """The least relations of a positive body (``args`` as ``positive_args``
        gives them) between objects i and j, as links ``{(p, q): rows}``:
        components ``u`` at i and ``v`` at j are related iff ``link_test``
        passes them, reading ``u`` at each flat argument position ``p`` (the
        first argument the most significant digit).  None when an argument
        relation or the number of argument pairs exceeds ``ITER_CAP``.

        Related arguments ``Dk``, chains of ``->`` and ``-o`` from ``E1``,
        ..., ``Em`` to ``X``, are exactly the pairs ``(g, h)`` (functions or
        homomorphisms alike) whose generated pairs ``{(g e, h e') : e, e'
        related}`` lie in the relation at ``X``; an argument's value at each
        flat position is read through its domain's ``apply`` (``Model._leaves``).
        ``X`` is the codomain, so ``(u, v)`` preserves every admissible
        relation iff ``(u d, v d')`` lies in the admissible closure of the
        pairs each argument pair ``(d, d')`` generates: admissible relations
        are closed under intersection.
        """
        objs = self.objects(sort)
        m = objs[i].size
        left_env, right_env = rho.rho1.set(sort, binder, objs[i]), rho.rho2.set(sort, binder, objs[j])
        per_arg = []  # per argument: its related pairs with their generated rows, and its two sizes
        total = 1
        for d, es in args:
            if es is None:
                view = self.interp_rel(rho, d)
                if not view.fits():
                    return None
                gen = [(x, y, None) for x, y in view.pairs()]
                sizes = (view.left.size, view.right.size)
            else:
                views = [self.interp_rel(rho, e) for e in es]
                left, right = self.interp_vtype(left_env, d), self.interp_vtype(right_env, d)
                sizes = (left.size, right.size)
                if sizes[0] * sizes[1] > ITER_CAP or not all(v.fits() for v in views):
                    return None
                flat = [(0, 0)]
                for v in views:
                    flat = [(p * v.left.size + x, q * v.right.size + y) for p, q in flat for x, y in v.pairs()]
                gd, hd = self._leaves(left, len(es)), self._leaves(right, len(es))
                gen = [(g, h, fm.rows_of(((gp[p], hq[q]) for p, q in flat), m))
                       for g, gp in enumerate(gd) for h, hq in enumerate(hd)]
            total *= len(gen)
            if total > ITER_CAP:
                return None
            per_arg.append((gen, sizes))
        # each flat pair codes one argument tuple pair, and holds the union of
        # the rows its arguments generate (None for none), one argument at a time
        acc: dict[tuple[int, int], Optional[tuple[int, ...]]] = {(0, 0): None}
        for gen, (sl, sr) in per_arg:
            acc = {(p * sl + x, q * sr + y): g if r is None else r if g is None else tuple(map(int.__or__, r, g))
                   for (p, q), r in acc.items() for x, y, g in gen}
        empty = (0,) * m
        return {pq: self._closure(sort, i, j, empty if r is None else r) for pq, r in acc.items()}

    def _leaves(self, sem: SemSet, depth: int) -> list[list[int]]:
        """For each element ``g`` of a ``->``/``-o`` chain domain, its values at
        the flat argument positions of the first ``depth`` arguments, the first
        argument the most significant: ``g x1 ... xdepth`` at position ``(x1,
        ..., xdepth)``, read through each level's ``apply``; computed once
        per domain."""
        out = self._leaf_vals.get((sem, depth))
        if out is None:
            out = []
            for g in range(sem.size):
                vals, level = [g], sem
                for _ in range(depth):
                    vals = [level.apply(v, x) for v in vals for x in range(level.dom.size)]  # type: ignore[attr-defined]
                    level = level.cod  # type: ignore[attr-defined]
                out.append(vals)
            self._leaf_vals[sem, depth] = out
        return out

    def _closure(self, sort: str, i: int, j: int, rows: tuple[int, ...]) -> tuple[int, ...]:
        """The least admissible relation between objects i and j holding
        ``rows``: ``rows`` itself between sets, and the admissible closure,
        computed once per model, between algebras."""
        if sort == VSORT:
            return rows
        key = (i, j, rows)
        c = self._closures.get(key)
        if c is None:
            c = self._closures[key] = fm.admissible_closure(rows, self.algebras[i], self.algebras[j])
        return c

    def _families(self, env: TypeEnv, ty: TypeExpr, comps: Sequence[SemSet]
                  ) -> tuple[tuple[int, ...], ...]:
        """All component tuples of the quantified type ``ty`` that preserve every admissible
        relation: a vacuous binder's are constant where its body has at most ``ITER_CAP`` values
        and its relation is the diagonal, since a family is related to itself iff its components
        are related by the body; else a positive body's components are generated by
        ``relatedness``'s ``tables``, every other one listed."""
        sort, k, rho = ty.sort, len(self.objects(ty.sort)), diag_relenv(env)
        try:
            if k and not binder_signs(sort, ty.binder, ty.body):
                view = self.interp_rel(rho, ty.body)
                if view.left.size <= ITER_CAP and _is_diagonal(view):
                    return constant_families(k, view.left.size)
            return pairwise_search([c.size for c in comps], *self.relatedness(rho, sort, ty.binder, ty.body))
        except OutOfBoundError as exc:
            objs = "sets" if sort == VSORT else "algebras"
            raise OutOfBoundError(
                f"family search for {ty} over the registered {objs}: {exc}"
            ) from exc

    def enumerate_families_naive(self, env: TypeEnv, ty: TypeExpr) -> tuple[tuple[int, ...], ...]:
        """Oracle tier: filter the component product position by position,
        testing each pair by ``every_relation`` as soon as both of its
        components are fixed, so that ``relatedness``'s rules are checked
        against an independent source."""
        if not isinstance(ty, Forall):
            raise InterpError("naive family enumeration expects a quantified type")
        sort = ty.sort
        objs = self.objects(sort)
        comps = [self.interp_vtype(env.set(sort, ty.binder, o), ty.body) for o in objs]
        total = 1
        for c in comps:
            total *= c.size
        if total > NAIVE_FAMILY_CAP:
            raise OutOfBoundError(f"naive family space too large: {_count(total)}")
        if total == 0:  # else every layer before the empty component is filled first
            return ()
        related = cache(self.every_relation(diag_relenv(env), sort, ty.binder, ty.body))
        fams = [()]
        for j, c in enumerate(comps):  # every constraint is a pair's, so a prefix fails for good
            fams = [fam + (v,) for fam in fams for v in range(c.size)
                    if related(j, j, v, v)
                    and all(related(i, j, u, v) and related(j, i, v, u) for i, u in enumerate(fam))]
        return tuple(fams)

    # -- transport ----------------------------------------------------------

    def transport(self, ty: TypeExpr, key: tuple[str, str], env_src: TypeEnv, env_dst: TypeEnv,
                  iso: Sequence[int]) -> Callable[[int], int]:
        """The canonical bijection [[ty]]src -> [[ty]]dst induced by the
        bijection ``iso`` from the object ``env_src`` binds the variable
        ``key`` to onto the one ``env_dst`` binds it to; the environments
        agree elsewhere.  Where ``key`` is not free in ``ty``, under a binder
        that shadows it too, the two domains are one object, since an
        interpretation keys on the free variables, so the mover is the identity."""
        if key not in free_type_var_keys(ty):
            return lambda x: x
        if isinstance(ty, TyVar):
            return lambda x: iso[x]
        src, dst = self.interp_vtype(env_src, ty), self.interp_vtype(env_dst, ty)
        if isinstance(ty, (Arrow, Lolli)):
            dom_back = self.transport(ty.dom, key, env_dst, env_src, _invert(iso))
            cod_fwd = self.transport(ty.cod, key, env_src, env_dst, iso)
            return lambda f: dst.encode([cod_fwd(src.apply(f, dom_back(y)))  # type: ignore[attr-defined]
                                         for y in range(dst.dom.size)])  # type: ignore[attr-defined]
        if isinstance(ty, Forall):
            movers = [self.transport(ty.body, key, env_src.set(ty.sort, ty.binder, obj),
                                     env_dst.set(ty.sort, ty.binder, obj), iso) for obj in self.objects(ty.sort)]
            return lambda f: dst.encode(  # type: ignore[attr-defined]
                tuple(mv(c) for mv, c in zip(movers, src.fams[f])))  # type: ignore[attr-defined]
        raise InterpError(f"cannot transport at {ty!r}")

    # -- projection -----------------------------------------------------------

    def project_poly(self, poly: PolySem, target: int | fm.Alg, binder: str, body: TypeExpr,
                     env: TypeEnv) -> Callable[[int], int]:
        """The projector of a polymorphic value at an arbitrary object: ``target``
        is the size of a set, or an algebra.  A registered object's component is
        read directly; another algebra's is the component at its class's
        registered algebra (``representative``), transported along each
        isomorphism to ``target`` by movers built once, and the results must agree."""
        if poly.sort == VSORT:
            if target >= len(self.sets):
                raise OutOfBoundError(f"no registered set of size {_count(target)}")
            return lambda fam: poly.fams[fam][target]  # type: ignore[index]
        if not isinstance(target, fm.Alg):
            raise InterpError(f"a family over algebras projected at {target!r}, not an algebra")
        idx = self.alg_index(target)
        if idx is not None:
            return lambda fam: poly.fams[fam][idx]
        k, isos = self.representative(target)
        if k is None:
            raise OutOfBoundError(f"no registered algebra isomorphic to carrier size {target.size}")
        src, dst = env.set(CSORT, binder, self.algebras[k]), env.set(CSORT, binder, target)
        movers = [self.transport(body, (CSORT, binder), src, dst, iso) for iso in isos]

        def project(fam: int) -> int:
            results = [mv(poly.fams[fam][k]) for mv in movers]
            if any(r != results[0] for r in results):
                raise InterpError(f"projection at {body} depends on the isomorphism: {results}")
            return results[0]

        return project

    # -- term interpretation ---------------------------------------------

    def _compile(self, t: TermExpr, gamma, delta) -> tuple[TypeExpr, Callable[[TypeEnv], Callable[[dict], int]]]:
        """The type of ``t`` in ``gamma | delta``, and ``stage``: ``stage(tyenv)`` does every
        node's type-level work once and returns ``run(tmenv) -> value`` (see the module docstring)."""
        tc.synth(gamma, delta, t, self.constants)

        def build(t: TermExpr, scope: dict) -> tuple[TypeExpr, Callable[[TypeEnv], Callable[[dict], int]]]:
            if isinstance(t, Var):
                name = t.name
                if name in scope:
                    return scope[name], lambda tyenv: lambda tmenv: tmenv[name] if name in tmenv else self.constant_value(name)
                return self.constants[name], lambda tyenv: partial(lambda v, tmenv: v, self.constant_value(name))
            if isinstance(t, (Lam, LinLam)):
                var = t.var
                body_ty, stage_body = build(t.body, scope | {var: t.ann})
                ty = (Lolli if isinstance(t, LinLam) else Arrow)(t.ann, body_ty)

                def lam(tyenv: TypeEnv) -> Callable[[dict], int]:
                    sem = self.interp_vtype(tyenv, ty)
                    n = sem.dom.size  # type: ignore[attr-defined]
                    if n > ITER_CAP:
                        raise OutOfBoundError(f"abstraction over {ty.dom} tabulates {_count(n)} arguments,"
                                              f" more than ITER_CAP ({ITER_CAP})")
                    run_body = stage_body(tyenv) if n else None  # a body over no argument never runs

                    def run(tmenv: dict) -> int:
                        tm2 = dict(tmenv)
                        table = []
                        for d in range(n):
                            tm2[var] = d
                            table.append(run_body(tm2))  # type: ignore[misc]
                        # a -o table that is not a homomorphism in its stoup fails to encode
                        return sem.encode(table)  # type: ignore[attr-defined]

                    return run

                return ty, lam
            if isinstance(t, App):
                (head, stage_fn), (_, stage_arg) = build(t.fn, scope), build(t.arg, scope)

                def app(tyenv: TypeEnv) -> Callable[[dict], int]:
                    apply = self.interp_vtype(tyenv, head).apply  # type: ignore[attr-defined]
                    run_fn, run_arg = stage_fn(tyenv), stage_arg(tyenv)
                    return lambda tmenv: apply(run_fn(tmenv), run_arg(tmenv))

                return head.cod, app  # type: ignore[attr-defined]
            if isinstance(t, TyLam):
                sort, binder = t.sort, t.binder
                body_ty, stage_body = build(t.body, scope)
                forall_ty = Forall(sort, binder, body_ty)

                def tylam(tyenv: TypeEnv) -> Callable[[dict], int]:
                    encode = self.interp_vtype(tyenv, forall_ty).encode  # type: ignore[attr-defined]
                    runs = [stage_body(tyenv.set(sort, binder, obj)) for obj in self.objects(sort)]
                    # a family that is not parametric fails to encode
                    return lambda tmenv: encode([run(tmenv) for run in runs])

                return forall_ty, tylam
            # synth has checked t, so it is a type application
            head, stage_fn = build(t.fn, scope)  # type: ignore[attr-defined]
            arg, sort = t.arg, head.sort  # type: ignore[attr-defined]

            def tyapp(tyenv: TypeEnv) -> Callable[[dict], int]:
                poly, run_fn = self.interp_vtype(tyenv, head), stage_fn(tyenv)
                # project at an algebra, or at the size of a set
                target = self.interp_ctype(tyenv, arg) if sort == CSORT else self.interp_vtype(tyenv, arg).size
                project = self.project_poly(poly, target, head.binder, head.body, tyenv)  # type: ignore[arg-type, attr-defined]
                return lambda tmenv: project(run_fn(tmenv))

            return subst_type(head.body, TyVar(head.sort, head.binder), arg), tyapp  # type: ignore[attr-defined]

        return build(t, dict(gamma) | dict([delta] if delta is not None else []))

    def two_values(self) -> tuple[int, int]:
        """Indices of the two inhabitants of [[1 + 1]] (left first)."""
        if self._two is None:
            vals = [self._compile(encodings.two_value(which), (), None)[1](TypeEnv())({}) for which in (0, 1)]
            if vals[0] == vals[1]:
                raise InterpError(f"the two boolean values coincide: both are {vals[0]}")
            self._two = (vals[0], vals[1])
        return self._two

    def bang_bridge(self, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Mutually inverse maps between [[!A]] families and T A, via the
        projection at the registered free algebra applied to the unit."""
        key = ("bang-bridge", size)
        hit = self._const_val.get(key)
        if hit is not None:
            return hit
        fa_idx, fa, eta = self.free_algebra(size)
        env = TypeEnv().set(VSORT, "X", fm.FinSet(size))
        poly = self.interp_vtype(env, encodings.encode_bang(TyVar(VSORT, "X")))
        comp = poly.comps[fa_idx]
        eta_elt = comp.dom.encode(list(eta))  # type: ignore[attr-defined]
        ta_size = fa.size
        to_t = tuple(comp.apply(poly.fams[f][fa_idx], eta_elt) for f in range(poly.size))
        if sorted(to_t) != list(range(ta_size)):
            raise InterpError(
                f"[[!A]] does not biject with T A at |A|={size}: got {to_t} over {ta_size}"
            )
        from_t = _invert(to_t)
        self._const_val[key] = (to_t, from_t)
        return to_t, from_t

    def constant_family(self, name: str) -> tuple[list[SemSet], tuple[int, ...]]:
        """An effect constant's components, one domain per registered object as
        ``_interp_vtype`` builds them, and its family, built by hand; the
        scheme's families are not searched, so the family may not be parametric."""
        if name not in self.constants:
            raise InterpError(f"no value for {name!r}: it is neither bound nor a constant")
        ty = self.constants[name]
        comps = [self.interp_vtype(TypeEnv().set(ty.sort, ty.binder, obj), ty.body) for obj in self.objects(ty.sort)]
        names = [op for op, _ in self.monad.operations]
        if name in names:
            k = names.index(name)
            return comps, tuple(op_index(comp, self.monad.arities[k], lambda args: alg.op(k, args))
                                for alg, comp in zip(self.algebras, comps))
        # handle^e
        if self.bound < 2:
            raise OutOfBoundError(f"{name} needs the two values of 1 + 1, but no set of size 2"
                                  f" is registered at bound {self.bound}")
        e_idx = self.monad.exceptions.index(name.partition("^")[2])
        i0, i1 = self.two_values()
        fam = []
        for aset, comp in zip(self.sets, comps):
            to_t, _ = self.bang_bridge(aset.size)
            raised = self.free_algebra(aset.size)[1].ops[e_idx][0]
            dom = comp.dom  # type: ignore[attr-defined]
            # the raise point of e picks the second branch, any other point the first
            pqs = [(dom.apply(u, i0), dom.apply(u, i1)) for u in range(dom.size)]
            fam.append(comp.encode([q if to_t[p] == raised else p for p, q in pqs]))  # type: ignore[attr-defined]
        return comps, tuple(fam)

    def constant_value(self, name: str) -> int:
        """The index of ``constant_family``'s family among the scheme's parametric families."""
        hit = self._const_val.get(name)
        if hit is None:
            _, fam = self.constant_family(name)
            poly = self.interp_vtype(TypeEnv(), self.constants[name])
            hit = self._const_val[name] = poly.encode(fam)  # type: ignore[attr-defined]
        return hit


def op_index(sem: SemSet, n: int, op: Callable, args: tuple = ()) -> int:
    """The index in ``sem`` of the curried n-ary operation ``op`` on argument tuples."""
    if n == 0:
        return op(args)
    return sem.encode(  # type: ignore[attr-defined]
        [op_index(sem.cod, n - 1, op, args + (x,)) for x in range(sem.dom.size)]  # type: ignore[attr-defined]
    )


def _invert(table: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(table)
    for i, v in enumerate(table):
        inv[v] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# structured values and dumps


def decode_value(model: Model, sem: SemSet, idx: int):
    """The JSON form of a denotation: a ground element, a function table as
    a list, or a family as an object keyed by object id."""
    if isinstance(sem, (fm.FinSet, fm.Alg)):
        return idx
    if isinstance(sem, (FunSem, HomSem)):
        return [decode_value(model, sem.cod, sem.apply(idx, x)) for x in range(sem.dom.size)]
    if isinstance(sem, PolySem):
        fam = sem.fams[idx]
        prefix = "alg" if sem.sort == CSORT else "set"
        keys = [f"{prefix}:{k}" for k in range(len(model.objects(sem.sort)))]
        return {key: decode_value(model, comp, c) for key, comp, c in zip(keys, sem.comps, fam)}
    raise InterpError(f"cannot decode from {sem!r}")


def decoded_entries(sem: SemSet) -> int:
    """How many ground entries ``decode_value`` prints for a value of ``sem``:
    one for a set, ``dom.size`` times the codomain's for a ``->`` or ``-o``
    space, and the sum of the components' for a family space."""

    @cache  # by identity: the spaces below a family share their components
    def count(sem: SemSet) -> int:
        if isinstance(sem, (FunSem, HomSem)):
            return sem.dom.size * count(sem.cod)
        if isinstance(sem, PolySem):
            return sum(map(count, sem.comps))
        return 1

    return count(sem)


def semset_to_json(model: Model, sem: SemSet):
    if isinstance(sem, (fm.FinSet, fm.Alg)):
        return {"kind": "set", "size": sem.size}
    if isinstance(sem, FunSem):
        return {"kind": "functions", "size": sem.size,
                "dom": semset_to_json(model, sem.dom), "cod": semset_to_json(model, sem.cod)}
    if isinstance(sem, HomSem):
        return {"kind": "homomorphisms", "size": sem.size,
                "dom": semset_to_json(model, sem.dom), "cod": semset_to_json(model, sem.cod)}
    if isinstance(sem, PolySem):
        return {"kind": "families", "size": sem.size,
                "objects": len(model.objects(sem.sort))}
    raise InterpError(f"cannot dump {sem!r}")
