"""Finite semantic substrate: sets, monads, algebras and relations.

Three monads are supported.  Each has a *signature* of named operations
with their arities, and an algebra is the size of a finite carrier with
one table per operation of the signature:

* ``identity``   — no operations, so algebras are bare sets and every map
  is a homomorphism;
* ``exception``  — T A = A + E; one constant ``raise^e`` per exception, so
  algebras are E-pointed sets (no laws);
* ``powerset``   — T A = nonempty subsets of A; one binary ``or``, and
  algebras are semilattices (idempotent commutative associative ``or``).

Carrier elements are canonically 0..n-1.  The table of an operation of
arity k has n ** k entries, indexed by ``arg_code`` of the arguments: a
constant has one entry, ``or`` at (x, y) sits at x*n + y.  For the
exception monad the first |A| elements of T A are the values and the last
|E| the raised exceptions; for the powerset monad element ``i`` of T A is
the subset with bitmask ``i + 1``.

A set is its size: the monad's maps (``apply`` gives |T A|), the free
algebra, the set relation listing and the monad-law sweep take a set A
as |A|, and a ``FinSet`` is built only where a set is an object, one a
model registers (``enumerate_sets``) or a type environment binds.
Sets, monads and algebras are hash-consed with ``kernel.hash_consed``,
like types: equal ones are one object, so caches key on them by identity.

A relation between carriers of sizes m and n has one form everywhere,
its *rows*: a tuple of m int bitmasks in which bit ``y`` of ``rows[x]``
is set iff ``x`` and ``y`` are related.  This module owns that layout.

It also owns the monad-law sweep's packed *columns*: one ``bytes`` per
argument of ``n`` tables into ``k`` elements, one little-endian lane per
table, as wide as ``k`` (or a powerset's masks) needs.  Read as one int,
a column of one-byte lanes keys a join table by ``x*k + y`` with no carry
while ``k <= 16``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations, product, repeat
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

from .kernel import KEYWORDS, Interned, hash_consed


class ModelError(Exception):
    pass


class OutOfBoundError(ModelError):
    """An enumeration or an object lies beyond what the model can reach."""


@hash_consed
class FinSet(Interned):
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ModelError("negative carrier size")


# ---------------------------------------------------------------------------
# monads

MONADS = ("identity", "exception", "powerset")


@hash_consed
class MonadSpec(Interned):
    """A monad with its signature, fixed when it is built: ``operations``
    pairs each operation's name with its arity, ``arities`` lists the
    arities.  The identity monad acts as the exception monad with E = {}."""

    key: str  # "identity" | "exception" | "powerset"
    exceptions: tuple[str, ...] = ()
    operations: tuple[tuple[str, int], ...] = field(init=False, repr=False)
    arities: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.key not in MONADS:
            raise ModelError(f"unknown monad {self.key!r}")
        if self.key != "exception" and self.exceptions:
            raise ModelError(f"{self.key} monad takes no exception set")
        ops = (("or", 2),) if self.key == "powerset" else tuple((f"raise^{e}", 0) for e in self.exceptions)
        object.__setattr__(self, "operations", ops)
        object.__setattr__(self, "arities", tuple(arity for _, arity in ops))

    @property
    def n_exc(self) -> int:
        return len(self.exceptions)

    def apply(self, a: int) -> int:
        """|T A| for a set A of ``a`` elements."""
        return a + self.n_exc if self.key != "powerset" else (1 << a) - 1

    def unit(self, a: int) -> tuple[int, ...]:
        if self.key != "powerset":
            return tuple(range(a))
        return tuple((1 << i) - 1 for i in range(a))

    def extend(self, f: Sequence[int], a: int, b: int) -> tuple[int, ...]:
        """Lift ``f : A -> T B`` to ``f+ : T A -> T B``: ``extend_columns``' one-table case."""
        tb = self.apply(b)
        return next(_rows(self.extend_columns(_columns([f], a, tb), 1, a, b), 1, tb))

    def extend_columns(self, cols: Sequence[bytes], n: int, a: int, b: int) -> list[bytes]:
        """Lift ``n`` tables ``f : A -> T B`` at once, packed as columns:
        ``cols[x]`` holds ``f(x)`` for each table, and column ``s`` of the
        result holds ``f+(s)``."""
        tb = self.apply(b)
        w = _width(tb)
        if len(cols) != a or any(len(col) != n * w for col in cols):
            raise ModelError("table does not cover the domain")
        if any(max(_lanes(col, w), default=0) >= tb if w > 1 else col.translate(None, bytes(range(tb)))
               for col in cols):
            raise ModelError(f"table leaves T B, which has {tb} elements")
        if self.key != "powerset":
            return list(cols) + [(b + e).to_bytes(w, "little") * n for e in range(self.n_exc)]
        # subset masks of A, doubled one element at a time: the image of
        # s + {i} is the image of s joined with f(i); a mask fits its lane
        one = int.from_bytes((1).to_bytes(w, "little") * n, "little")
        masks = []
        for col in cols:
            col = int.from_bytes(col, "little") + one
            masks += [col] + [y | col for y in masks]
        return [(y - one).to_bytes(n * w, "little") for y in masks]

    def tmap(self, f: Sequence[int], a: int, b: int) -> tuple[int, ...]:
        """Functor action: T f = (unit . f)+."""
        eta = self.unit(b)
        return self.extend([eta[f[i]] for i in range(a)], a, b)


# ---------------------------------------------------------------------------
# algebras


@hash_consed
class Alg(Interned):
    """An algebra for ``monad`` on a carrier of ``size`` elements: ``ops[k]`` is the
    table of the k-th operation of its signature, indexed by ``arg_code`` of the arguments."""

    monad: MonadSpec
    size: int
    ops: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = self.size
        if n < 0:
            raise ModelError("negative carrier size")
        if len(self.ops) != len(self.monad.arities):
            raise ModelError("one table per operation of the signature required")
        for (name, arity), table in zip(self.monad.operations, self.ops):
            if len(table) != n ** arity:
                raise ModelError(f"the table of {name} must have {n}^{arity} entries")
            if any(not 0 <= v < n for v in table):
                raise ModelError(f"the table of {name} leaves the carrier")

    def op(self, k: int, args: Sequence[int]) -> int:
        """Operation k applied to ``args``."""
        return self.ops[k][arg_code(args, self.size)]


def arg_code(args: Iterable[int], n: int) -> int:
    """The mixed-radix code of ``args`` over ``range(n)``, first argument most significant."""
    code = 0
    for x in args:
        code = code * n + x
    return code


def semilattice_laws_hold(table: Sequence[Sequence[int]]) -> bool:
    n = len(table)
    for x in range(n):
        if table[x][x] != x:
            return False
        for y in range(n):
            if table[x][y] != table[y][x]:
                return False
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return False
    return True


def em_map_of(alg: Alg) -> tuple[int, ...]:
    """Derive the structure map T(carrier) -> carrier from the operation tables."""
    m, n = alg.monad, alg.size
    if m.key != "powerset":  # T(carrier) is the carrier, then one element per constant
        return tuple(range(n)) + tuple(table[0] for table in alg.ops)
    out = []
    for mask_minus in range((1 << n) - 1):
        mask = mask_minus + 1
        elems = [i for i in range(n) if mask >> i & 1]
        acc = elems[0]
        for e in elems[1:]:
            acc = alg.op(0, (acc, e))
        out.append(acc)
    return tuple(out)


def enumerate_sets(bound: int) -> list[FinSet]:
    """One canonical set per cardinality 0..bound."""
    return [FinSet(n) for n in range(bound + 1)]


def enumerate_algebras(m: MonadSpec, bound: int, cap: int) -> list[Alg]:
    """All algebra structures on each enumerated carrier, by literal tables;
    a carrier with more than ``cap`` candidate tables raises ``OutOfBoundError``."""
    out: list[Alg] = []
    for n in range(bound + 1):
        # one distinguished point per exception, none on an empty carrier; or
        # powerset's symmetric idempotent tables, filtered by associativity
        cells = [(x, y) for x in range(n) for y in range(x + 1, n)] if m.key == "powerset" else range(m.n_exc)
        count = n ** len(cells)
        if count > cap:
            raise OutOfBoundError(f"algebras on a {n}-element carrier: {count} candidate tables, more than {cap}")
        if m.key != "powerset":
            for pts in product(range(n), repeat=m.n_exc):
                out.append(Alg(m, n, tuple((p,) for p in pts)))
            continue
        for choice in product(range(n), repeat=len(cells)):
            table = [[x if x == y else -1 for y in range(n)] for x in range(n)]
            for (x, y), v in zip(cells, choice):
                table[x][y] = table[y][x] = v
            if semilattice_laws_hold(table):
                out.append(Alg(m, n, (tuple(v for row in table for v in row),)))
    return out


def relabel(alg: Alg, perm: Sequence[int]) -> Alg:
    """The copy of ``alg`` in which element ``perm[x]`` plays ``x``'s part, so
    ``perm`` is an isomorphism from ``alg`` to it."""
    n = alg.size
    ops = []
    for arity, table in zip(alg.monad.arities, alg.ops):
        out = [0] * len(table)
        for code, args in enumerate(product(range(n), repeat=arity)):
            out[arg_code([perm[x] for x in args], n)] = perm[table[code]]
        ops.append(tuple(out))
    return Alg(alg.monad, n, tuple(ops))


def canonical_form(alg: Alg) -> Alg:
    """The least relabelling of ``alg``'s operation tables over its carrier's
    permutations, so two algebras are isomorphic iff their canonical forms are
    one algebra.  Under a signature of constants alone the least relabelling
    numbers the points in order of first use and the rest after them; otherwise
    every permutation is tried (a powerset carrier past 4 elements has too many
    candidate tables to enumerate, see ``enumerate_algebras``)."""
    n = alg.size
    if any(alg.monad.arities):
        return min((relabel(alg, perm) for perm in permutations(range(n))), key=lambda a: a.ops)
    order = list(dict.fromkeys(table[0] for table in alg.ops))
    order += sorted(set(range(n)) - set(order))
    return relabel(alg, [order.index(x) for x in range(n)])


def free_algebra(m: MonadSpec, a: int) -> tuple[Alg, tuple[int, ...]]:
    """The algebra on T A together with the unit table A -> T A, where |A| = ``a``."""
    ta = m.apply(a)
    if m.key != "powerset":
        return Alg(m, ta, tuple((a + e,) for e in range(m.n_exc))), m.unit(a)
    table = tuple((((x + 1) | (y + 1)) - 1) for x in range(ta) for y in range(ta))
    return Alg(m, ta, (table,)), m.unit(a)


def _is_map(table: Sequence[int], dom_size: int, cod_size: int) -> bool:
    """Is ``table`` a total map between carriers of these sizes?"""
    return len(table) == dom_size and (not table or 0 <= min(table) and max(table) < cod_size)


def is_homomorphism(table: Sequence[int], dom: Alg, cod: Alg) -> bool:
    """Does the total map preserve every structure operation?"""
    n, m = dom.size, cod.size
    if not _is_map(table, n, m):
        return False
    for arity, f, g in zip(dom.monad.arities, dom.ops, cod.ops):
        if arity == 0:
            if table[f[0]] != g[0]:
                return False
            continue
        for code, args in enumerate(product(range(n), repeat=arity)):
            if table[f[code]] != g[arg_code([table[x] for x in args], m)]:
                return False
    return True


def _pinned(dom: Alg, cod: Alg) -> Optional[dict[int, int]]:
    """The image in ``cod`` of each constant of ``dom``, which every homomorphism
    sends there; None where one point of ``dom`` is two constants that ``cod`` separates."""
    forced: dict[int, int] = {}
    for arity, f, g in zip(dom.monad.arities, dom.ops, cod.ops):
        if arity == 0 and forced.setdefault(f[0], g[0]) != g[0]:
            return None
    return forced


def enumerate_homs(dom: Alg, cod: Alg, cap: int) -> list[tuple[int, ...]]:
    """All homomorphism tables dom -> cod, in lexicographic order.

    The constants' images are pinned first, so only the free positions
    are enumerated, and a signature of constants alone needs no further
    test; more than ``cap`` choices raise ``OutOfBoundError``.
    """
    forced = _pinned(dom, cod)
    if forced is None:
        return []
    table = [forced.get(i, 0) for i in range(dom.size)]
    free = [i for i in range(len(table)) if i not in forced]
    m = cod.size
    if m ** len(free) > cap:
        raise OutOfBoundError(f"hom space too large: {m}^{len(free)}")
    test = any(dom.monad.arities)
    out = []
    for choice in product(range(m), repeat=len(free)):
        for p, v in zip(free, choice):
            table[p] = v
        if not test or is_homomorphism(table, dom, cod):
            out.append(tuple(table))
    return out


def enumerate_isos(dom: Alg, cod: Alg, cap: int) -> list[tuple[int, ...]]:
    """All isomorphisms dom -> cod, in lexicographic order: the bijections that
    send each constant to its image (``_pinned``), ``k!`` candidates for ``k``
    unpinned points, each tested by ``is_homomorphism``; more than ``cap``
    candidates raise ``OutOfBoundError``."""
    forced = _pinned(dom, cod)
    if forced is None or dom.size != cod.size or len(set(forced.values())) < len(forced):
        return []
    free = [i for i in range(dom.size) if i not in forced]
    if factorial(len(free)) > cap:
        raise OutOfBoundError(f"isomorphism space too large: {len(free)}! candidates")
    table = [forced.get(i, 0) for i in range(dom.size)]
    out = []
    for choice in permutations(sorted(set(range(cod.size)) - set(forced.values()))):
        for p, v in zip(free, choice):
            table[p] = v
        if is_homomorphism(table, dom, cod):
            out.append(tuple(table))
    return out


# ---------------------------------------------------------------------------
# relations


REL_CAP_BITS = 16  # most cells a relation enumeration may range over


def mask_of(bits: Iterable[int], n: int) -> int:
    """The int whose set bits, each below ``n``, are ``bits``."""
    buf = bytearray((n + 7) >> 3)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def bits_of(row: int) -> Sequence[int]:
    """The set bits of ``row``, ascending."""
    if row < 256:
        return _BYTE_BITS[row]
    return [b for b, c in enumerate(bin(row)[:1:-1]) if c == "1"]


_BYTE_BITS = tuple(tuple(b for b in range(8) if r >> b & 1) for r in range(256))


def rows_of(pairs: Iterable[tuple[int, int]], m: int) -> tuple[int, ...]:
    """The rows of the relation with the given pairs on a left carrier of size ``m``."""
    rows = [0] * m
    for x, y in pairs:
        rows[x] |= 1 << y
    return tuple(rows)


def rel_pairs(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The related pairs, ascending."""
    return [(x, y) for x, row in enumerate(rows) for y in bits_of(row)]


def converse(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """The converse of a relation whose right carrier has ``n`` elements."""
    out = [0] * n
    for x, row in enumerate(rows):
        for y in bits_of(row):
            out[y] |= 1 << x
    return tuple(out)


def diagonal(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def in_carriers(rows: Sequence[int], m: int, n: int) -> bool:
    """Is ``rows`` a relation between carriers of sizes ``m`` and ``n``?"""
    return len(rows) == m and all(0 <= row < 1 << n for row in rows)


def preimage_table(g: Sequence[int], n: int) -> tuple[int, ...]:
    """The preimage row along ``g`` (a map into ``n`` points) of each of the
    ``2^n`` rows: the preimage of R along (f, g), { (x,y) | (f x, g y) in R },
    has row ``table[R[f x]]`` at x."""
    return tuple(
        mask_of((y for y, gy in enumerate(g) if row >> gy & 1), len(g)) for row in range(1 << n)
    )


def product_alg(a: Alg, b: Alg) -> Alg:
    """Componentwise structure on the product carrier; index = x*|B| + y."""
    if a.monad != b.monad:
        raise ModelError("algebras over different monads")
    na, nb = a.size, b.size
    ops = tuple(
        tuple(f[arg_code([x // nb for x in args], na)] * nb + g[arg_code([x % nb for x in args], nb)]
              for args in product(range(na * nb), repeat=arity))
        for arity, f, g in zip(a.monad.arities, a.ops, b.ops)
    )
    return Alg(a.monad, na * nb, ops)


def admissible(rows: Sequence[int], a: Alg, b: Alg) -> bool:
    """Does the relation carry a subalgebra of the product ``a x b``?"""
    na, nb = a.size, b.size
    for arity, f, g in zip(a.monad.arities, a.ops, b.ops):
        if arity == 0:
            if not rows[f[0]] >> g[0] & 1:
                return False
        elif not all(rows[f[arg_code([x for x, _ in args], na)]] >> g[arg_code([y for _, y in args], nb)] & 1
                     for args in product(rel_pairs(rows), repeat=arity)):
            return False
    return True


def admissible_closure(rows: Sequence[int], a: Alg, b: Alg) -> tuple[int, ...]:
    """Smallest relation containing ``rows`` closed under the product structure."""
    na, nb = a.size, b.size
    out = list(rows)
    ops = list(zip(a.monad.arities, a.ops, b.ops))
    for arity, f, g in ops:
        if arity == 0:
            out[f[0]] |= 1 << g[0]
    ops = [op for op in ops if op[0]]
    changed = bool(ops)
    while changed:
        changed = False
        pairs = rel_pairs(out)
        for arity, f, g in ops:
            for args in product(pairs, repeat=arity):
                x = f[arg_code([p for p, _ in args], na)]
                y = g[arg_code([q for _, q in args], nb)]
                if not out[x] >> y & 1:
                    out[x] |= 1 << y
                    changed = True
    return tuple(out)


def _all_rels(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every relation between carriers of sizes m and n, by ascending mask:
    cell ``x*n + y`` of the mask is bit ``y`` of ``rows[x]``."""
    cells = m * n
    if cells > REL_CAP_BITS:
        raise OutOfBoundError(
            f"relation space between carriers of sizes {m} and {n} too large:"
            f" {cells} cells, more than REL_CAP_BITS ({REL_CAP_BITS})"
        )
    full = (1 << n) - 1
    return (tuple(mask >> (x * n) & full for x in range(m)) for mask in range(1 << cells))


def enumerate_set_rels(m: int, n: int) -> list[tuple[int, ...]]:
    """Every relation between sets of ``m`` and ``n`` elements, as rows, in a stable order."""
    return list(_all_rels(m, n))


def enumerate_alg_rels(a: Alg, b: Alg) -> list[tuple[int, ...]]:
    """Relations that carry a subalgebra of the product, as rows."""
    return [r for r in _all_rels(a.size, b.size) if admissible(r, a, b)]


# ---------------------------------------------------------------------------
# monad law checking


@dataclass
class LawReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)  # distinct, first seen first

    def fail(self, msg: str) -> None:
        if msg not in self.failures:
            self.failures.append(msg)

    @property
    def ok(self) -> bool:
        return not self.failures


DIRECT_PAIR_CAP = 20_000
BLOCK = 512  # tables that check_monad_laws extends and checks together: its columns stay small


def check_monad_laws(m: MonadSpec, max_size: int) -> LawReport:
    """Exhaustive Kleisli-law check on all sets up to ``max_size``.

    * unit law (left): extend(unit) = id, once per set;
    * unit law (right): extend(f) . unit = f, for every table f;
    * extend(f) is a homomorphism of the free algebras, for every table f
      (for the powerset monad, tested on ``_union_splits``);
    * associativity: via an equivalent decomposition everywhere (every
      extension is a structure homomorphism, and the unit image generates
      T A, which pins extensions uniquely, so composed extensions agree on
      all of T A), cross-checked directly over all (f, g) pairs while the
      product of table spaces stays below ``DIRECT_PAIR_CAP``.

    ``_sweep_space`` extends each table space ``BLOCK`` tables at a time,
    packed as columns, by one ``extend_columns`` call, and tests each law
    over whole columns (``_block_holds``).  That test only accepts: the extensions of a block
    it does not accept are checked again table by table, and only that
    check records failures, so the report is the table-by-table check's.
    The columns of every space within ``DIRECT_PAIR_CAP`` are kept, less
    the tables whose extension is not a map, for the cross-check.  It
    extends every composite g+ . f of a triple of sets (A, B, C) by one
    ``extend_columns`` call, compares the result with g+ . f+, and reports
    its failures in (A, B, C) order.
    """
    rep = LawReport()
    sizes = range(max_size + 1)

    for a in sizes:
        if tuple(m.extend(m.unit(a), a, a)) != tuple(range(m.apply(a))):
            rep.fail(f"extend(unit) != id at |A|={a}")
        rep.checked += 1
        if not _unit_image_generates(m, a):
            rep.fail(f"unit image does not generate T A at |A|={a}")
        rep.checked += 1

    exts = {(a, b): _sweep_space(m, a, b, rep) for a, b in product(sizes, repeat=2) if m.apply(b) or not a}
    failed = set()  # (|A|, |B|, |C|) where associativity fails, reported in that order
    for a, b, c in product(sizes, repeat=3):
        tb = m.apply(b)
        if None in (exts.get((a, b)), exts.get((b, c))) or tb ** a * m.apply(c) ** b > DIRECT_PAIR_CAP:
            continue  # a space with no table, or covered by the decomposition above
        w, (nf, fcols, fexts), (ng, _, gexts) = _width(tb), exts[a, b], exts[b, c]
        # (g+ . f)+ against g+ . f+, for every f and g at once, f-major
        lhs, rhs = ([b"".join(map(gexts.__getitem__, _lanes(col, w))) for col in part] for part in (fcols, fexts))
        if m.extend_columns(lhs, nf * ng, a, c) != rhs:
            failed.add((a, b, c))
        rep.checked += nf * ng
    for a, b, c in sorted(failed):
        rep.fail(f"associativity fails at |A|={a},|B|={b},|C|={c}")
    return rep


def _sweep_space(m: MonadSpec, a: int, b: int, rep: LawReport):
    """Check the unit and homomorphism laws of every table A -> T B into ``rep``; within
    ``DIRECT_PAIR_CAP``, return ``(n, columns, extension columns)`` of the ``n`` tables
    whose extension is a map."""
    tb = m.apply(b)
    (fa, eta_a), (fb, _) = free_algebra(m, a), free_algebra(m, b)
    splits = _union_splits(a) if m.key == "powerset" else None
    kept = [] if tb ** a <= DIRECT_PAIR_CAP else None  # (n, columns, extension columns) per block
    for block, n in _blocks(a, tb):
        cols = m.extend_columns(block, n, a, b)
        if _block_holds(cols, block, n, eta_a, fa, fb, splits):
            rep.checked += n
            if kept is not None:
                kept.append((n, block, cols))
            continue
        maps = []
        for f, fext in zip(_rows(block, n, tb), _rows(cols, n, tb), strict=True):
            rep.checked += 1
            if not _is_map(fext, fa.size, tb):
                rep.fail(f"extend(f) not a map at |A|={a},|B|={b}")
                continue
            maps.append((f, fext))
            for i in range(a):
                if fext[eta_a[i]] != f[i]:
                    rep.fail(f"extend(f).unit != f at |A|={a},|B|={b}")
                    break
            if not (is_homomorphism(fext, fa, fb) if splits is None
                    else _joins_splits(fext, splits, fb)):
                rep.fail(f"extension not a homomorphism at |A|={a},|B|={b}")
        if kept is not None:
            kept.append((len(maps), _columns([f for f, _ in maps], a, tb),
                         _columns([e for _, e in maps], fa.size, tb)))
    if kept is not None:
        ns, *parts = zip(*kept)
        return sum(ns), *([b"".join(c) for c in zip(*part)] for part in parts)
    return None


def _block_holds(cols, block, n, eta, fa: Alg, fb: Alg, splits) -> bool:
    """Does each of the ``n`` tables packed in ``block`` pass every check of ``_sweep_space``,
    given the columns ``cols`` of their extensions?  Only one-byte lanes are
    tested, and union splits only while T B has at most 16 elements."""
    tb = fb.size
    if tb > (16 if splits else 255) or len(cols) != fa.size or any(
            len(col) != n or col.translate(None, bytes(range(tb))) for col in cols):
        return False
    if any(cols[eta[i]] != col for i, col in enumerate(block)):
        return False
    if splits is None:
        return all(cols[f[0]].count(g[0]) == n for f, g in zip(fa.ops, fb.ops))
    # lane x*tb + y of the join table is the join of x and y, and fits its byte
    join, ints = bytes(fb.ops[0]).ljust(256, b"\0"), [int.from_bytes(col, "little") for col in cols]
    return all((ints[r] * tb + ints[i]).to_bytes(n, "little").translate(join) == cols[s] for s, r, i in splits)


def _blocks(a: int, tb: int):
    """``(columns, n)`` for each ``BLOCK`` tables A -> T B in turn, in ``product`` order."""
    w, total = _width(tb), tb ** a
    space = [b"".join(v.to_bytes(w, "little") * tb ** (a - 1 - x) for v in range(tb)) * tb ** x for x in range(a)]
    for k in range(0, total, BLOCK):
        yield [col[k * w:(k + BLOCK) * w] for col in space], min(BLOCK, total - k)


def _width(size: int) -> int:
    """Bytes per lane for values up to ``size``: a set's elements, and a powerset T B's masks."""
    return (size.bit_length() + 7) >> 3 or 1


def _lanes(col: bytes, w: int) -> Sequence[int]:
    """The values of ``col``'s lanes of ``w`` bytes each, little-endian."""
    return col if w == 1 else [int.from_bytes(col[i:i + w], "little") for i in range(0, len(col), w)]


def _columns(rows: Sequence[Sequence[int]], width: int, size: int) -> list[bytes]:
    """The ``width`` columns of ``rows``, whose values lie in a set of ``size`` elements, packed."""
    w = _width(size)
    try:
        return [b"".join(v.to_bytes(w, "little") for v in col) for col in zip(*rows)] if rows else [b""] * width
    except OverflowError:
        raise ModelError(f"table leaves T B, which has {size} elements") from None


def _rows(cols: Sequence[bytes], n: int, size: int):
    """The ``n`` rows of the packed ``cols``, whose values lie in a set of ``size`` elements."""
    return zip(*(_lanes(col, _width(size)) for col in cols)) if cols else repeat((), n)


def _unit_image_generates(m: MonadSpec, a: int) -> bool:
    """T A must be generated by the unit image under the free structure ops."""
    fa, eta = free_algebra(m, a)
    reached, size = set(eta), -1
    while size != len(reached):  # a constant is reached in the first round
        size = len(reached)
        reached |= {fa.op(k, args) for k, arity in enumerate(m.arities)
                    for args in product(list(reached), repeat=arity)}
    return reached == set(range(fa.size))


def _union_splits(a: int) -> list[tuple[int, int, int]]:
    """``(s, r, i)`` for every subset ``s`` in T A (powerset) with two or more
    elements: ``r`` is ``s`` without its lowest element and ``i`` that element's
    singleton.

    A map out of the free semilattice that sends each ``s`` to the union of
    the images of ``r`` and ``i`` sends it to the union of its singletons'
    images, so it preserves every union; checking these splits is one
    lookup per element of T A instead of one per pair.
    """
    out = []
    for mask in range(1, 1 << a):
        low = mask & -mask
        if mask != low:
            out.append((mask - 1, mask - low - 1, low - 1))
    return out


def _joins_splits(table: Sequence[int], splits, cod: Alg) -> bool:
    """Does the map ``table`` send each split ``s`` to the join in ``cod`` of its parts' images?"""
    join, n = cod.ops[0], cod.size
    for s, r, i in splits:
        if table[s] != join[table[r] * n + table[i]]:
            return False
    return True


# ---------------------------------------------------------------------------
# configuration


def _is_identifier(name: str) -> bool:
    """Does ``name`` lex as one identifier, so that ``raise^name`` parses?"""
    return ((name[:1].isalpha() or name[:1] == "_") and name not in KEYWORDS
            and all(c.isalnum() or c == "_" for c in name))


@dataclass(frozen=True)
class ModelConfig:
    monad: str = "exception"
    exceptions: tuple[str, ...] = ("e",)
    bound: int = 2

    def __post_init__(self):
        if type(self.bound) is not int or self.bound < 0:
            raise ModelError(f"bound must be a nonnegative integer, not {self.bound!r}")
        if not (isinstance(self.exceptions, tuple)
                and all(isinstance(e, str) for e in self.exceptions)):
            raise ModelError(f"exceptions must be a list of names, not {self.exceptions!r}")
        if self.monad not in MONADS:
            raise ModelError(f"unknown monad {self.monad!r}")
        if len(set(self.exceptions)) < len(self.exceptions) or not all(map(_is_identifier, self.exceptions)):
            raise ModelError(f"exception names must be distinct identifiers, not {list(self.exceptions)!r}")

    def monad_spec(self) -> MonadSpec:
        exc = self.exceptions if self.monad == "exception" else ()
        return MonadSpec(self.monad, tuple(exc))

    def to_json(self) -> dict:
        return {"monad": self.monad, "E": list(self.exceptions), "bound": self.bound}

    @staticmethod
    def from_json(data) -> "ModelConfig":
        """The configuration a JSON object describes; the retired
        ``include-free-algebras`` key is ignored, and any other key is an error."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ModelError(f"a model configuration is a JSON object, not {data!r}")
        unknown = sorted(set(data) - {"monad", "E", "bound", "include-free-algebras"})
        if unknown:
            raise ModelError(f"unknown configuration key {', '.join(map(repr, unknown))}")
        exceptions = data.get("E", ["e"])
        return ModelConfig(
            monad=data.get("monad", "exception"),
            exceptions=tuple(exceptions) if isinstance(exceptions, list) else exceptions,
            bound=data.get("bound", 2),
        )
