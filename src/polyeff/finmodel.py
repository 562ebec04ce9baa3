"""Finite semantic substrate: sets, monads, algebras and relations.

Three monads are supported.  Each has a *signature* of named operations
with their arities, and an algebra is a finite carrier with one table per
operation of the signature:

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

Sets, monads and algebras are hash-consed with ``kernel.hash_consed``,
like types: equal ones are one object, so caches key on them by identity.

A relation between carriers of sizes m and n has one form everywhere,
its *rows*: a tuple of m int bitmasks in which bit ``y`` of ``rows[x]``
is set iff ``x`` and ``y`` are related.  This module owns that layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, islice, product, repeat
from operator import add, eq, getitem, or_, sub
from typing import Iterable, Iterator, Sequence

from .kernel import Interned, hash_consed
from .surface import KEYWORDS


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

    def apply(self, a: FinSet) -> FinSet:
        if self.key != "powerset":
            return FinSet(a.size + self.n_exc)
        return FinSet((1 << a.size) - 1)

    def unit(self, a: FinSet) -> tuple[int, ...]:
        if self.key != "powerset":
            return tuple(range(a.size))
        return tuple((1 << i) - 1 for i in range(a.size))

    def extend(self, f: Sequence[int], a: FinSet, b: FinSet) -> tuple[int, ...]:
        """Lift ``f : A -> T B`` to ``f+ : T A -> T B``: ``extend_columns``' one-table case."""
        return next(_rows(self.extend_columns((f,), a, b), 1))

    def extend_columns(self, tables: Sequence[Sequence[int]], a: FinSet, b: FinSet) -> list[tuple[int, ...]]:
        """Lift each ``f : A -> T B`` of ``tables`` at once, by columns: entry
        ``k`` of column ``s`` is ``f+(s)`` for ``f = tables[k]``."""
        if not set(map(len, tables)) <= {a.size}:
            raise ModelError("table does not cover the domain")
        n, tb = len(tables), self.apply(b).size
        cols = _columns(tables, a.size)
        if tables and cols and (min(map(min, cols)) < 0 or max(map(max, cols)) >= tb):
            raise ModelError(f"table leaves T B, which has {tb} elements")
        if self.key != "powerset":
            return cols + [(b.size + e,) * n for e in range(self.n_exc)]
        # subset masks of A, doubled one element at a time: the image of
        # s + {i} is the image of s joined with f(i)
        masks = []
        for col in cols:
            col = tuple(map(add, col, repeat(1)))
            masks += [col] + [tuple(map(or_, y, col)) for y in masks]
        return [tuple(map(sub, y, repeat(1))) for y in masks]

    def tmap(self, f: Sequence[int], a: FinSet, b: FinSet) -> tuple[int, ...]:
        """Functor action: T f = (unit . f)+."""
        eta = self.unit(b)
        return self.extend([eta[f[i]] for i in range(a.size)], a, b)


# ---------------------------------------------------------------------------
# algebras


@hash_consed
class Alg(Interned):
    """An algebra for ``monad``: ``ops[k]`` is the table of the k-th
    operation of its signature, indexed by ``arg_code`` of the arguments."""

    monad: MonadSpec
    carrier: FinSet
    ops: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = self.carrier.size
        if len(self.ops) != len(self.monad.arities):
            raise ModelError("one table per operation of the signature required")
        for (name, arity), table in zip(self.monad.operations, self.ops):
            if len(table) != n ** arity:
                raise ModelError(f"the table of {name} must have {n}^{arity} entries")
            if any(not 0 <= v < n for v in table):
                raise ModelError(f"the table of {name} leaves the carrier")

    @property
    def size(self) -> int:
        """The carrier's size: every object of a model, set or algebra, answers ``.size``."""
        return self.carrier.size

    def op(self, k: int, args: Sequence[int]) -> int:
        """Operation k applied to ``args``."""
        return self.ops[k][arg_code(args, self.carrier.size)]


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
    m, n = alg.monad, alg.carrier.size
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
        carrier = FinSet(n)
        # one distinguished point per exception, none on an empty carrier; or
        # powerset's symmetric idempotent tables, filtered by associativity
        cells = [(x, y) for x in range(n) for y in range(x + 1, n)] if m.key == "powerset" else range(m.n_exc)
        count = n ** len(cells)
        if count > cap:
            raise OutOfBoundError(f"algebras on a {n}-element carrier: {count} candidate tables, more than {cap}")
        if m.key != "powerset":
            for pts in product(range(n), repeat=m.n_exc):
                out.append(Alg(m, carrier, tuple((p,) for p in pts)))
            continue
        for choice in product(range(n), repeat=len(cells)):
            table = [[x if x == y else -1 for y in range(n)] for x in range(n)]
            for (x, y), v in zip(cells, choice):
                table[x][y] = table[y][x] = v
            if semilattice_laws_hold(table):
                out.append(Alg(m, carrier, (tuple(v for row in table for v in row),)))
    return out


def free_algebra(m: MonadSpec, a: FinSet) -> tuple[Alg, tuple[int, ...]]:
    """The algebra on T A together with the unit table A -> T A."""
    ta = m.apply(a)
    if m.key != "powerset":
        return Alg(m, ta, tuple((a.size + e,) for e in range(m.n_exc))), m.unit(a)
    n = ta.size
    table = tuple((((x + 1) | (y + 1)) - 1) for x in range(n) for y in range(n))
    return Alg(m, ta, (table,)), m.unit(a)


def _is_map(table: Sequence[int], dom_size: int, cod_size: int) -> bool:
    """Is ``table`` a total map between carriers of these sizes?"""
    return len(table) == dom_size and (not table or 0 <= min(table) and max(table) < cod_size)


def is_homomorphism(table: Sequence[int], dom: Alg, cod: Alg) -> bool:
    """Does the total map preserve every structure operation?"""
    n, m = dom.carrier.size, cod.carrier.size
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


def enumerate_homs(dom: Alg, cod: Alg, cap: int) -> list[tuple[int, ...]]:
    """All homomorphism tables dom -> cod, in lexicographic order.

    The constants' images are pinned first, so only the free positions
    are enumerated, and a signature of constants alone needs no further
    test; more than ``cap`` choices raise ``OutOfBoundError``.
    """
    forced: dict[int, int] = {}
    for arity, f, g in zip(dom.monad.arities, dom.ops, cod.ops):
        if arity == 0 and forced.setdefault(f[0], g[0]) != g[0]:
            return []
    table = [forced.get(i, 0) for i in range(dom.carrier.size)]
    free = [i for i in range(len(table)) if i not in forced]
    m = cod.carrier.size
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
    na, nb = a.carrier.size, b.carrier.size
    ops = tuple(
        tuple(f[arg_code([x // nb for x in args], na)] * nb + g[arg_code([x % nb for x in args], nb)]
              for args in product(range(na * nb), repeat=arity))
        for arity, f, g in zip(a.monad.arities, a.ops, b.ops)
    )
    return Alg(a.monad, FinSet(na * nb), ops)


def admissible(rows: Sequence[int], a: Alg, b: Alg) -> bool:
    """Does the relation carry a subalgebra of the product ``a x b``?"""
    na, nb = a.carrier.size, b.carrier.size
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
    na, nb = a.carrier.size, b.carrier.size
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


def enumerate_set_rels(a: FinSet, b: FinSet) -> list[tuple[int, ...]]:
    """Every relation between two sets, as rows, in a stable order."""
    return list(_all_rels(a.size, b.size))


def enumerate_alg_rels(a: Alg, b: Alg) -> list[tuple[int, ...]]:
    """Relations that carry a subalgebra of the product, as rows."""
    return [r for r in _all_rels(a.carrier.size, b.carrier.size) if admissible(r, a, b)]


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


def _all_tables(dom: int, cod: int):
    return product(range(cod), repeat=dom)


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

    Each table space is extended ``BLOCK`` tables at a time, by one
    ``extend_columns`` call, and each law is tested over whole columns
    (``_block_holds``).  That test only accepts: the extensions of a block
    it does not accept are checked again table by table, and only that
    check records failures, so the report is the table-by-table check's.
    The extensions of every space within ``DIRECT_PAIR_CAP`` are kept (None
    for one that is not a map) for the cross-check.  It looks each composite
    g+ . f up among them, extends those it misses in blocks, each once per
    pair of sets (A, C), and reports its failures in (A, B, C) order.
    """
    rep = LawReport()
    sets = [FinSet(n) for n in range(max_size + 1)]

    for a in sets:
        ta = m.apply(a)
        if tuple(m.extend(m.unit(a), a, a)) != tuple(range(ta.size)):
            rep.fail(f"extend(unit) != id at |A|={a.size}")
        rep.checked += 1
        if not _unit_image_generates(m, a):
            rep.fail(f"unit image does not generate T A at |A|={a.size}")
        rep.checked += 1

    exts = {}  # (|A|, |B|) -> [extend(f), or None where it is not a map, for f in _all_tables], within the cap
    for a in sets:
        for b in sets:
            tb = m.apply(b)
            if tb.size == 0 and a.size > 0:
                continue
            eta_a = m.unit(a)
            fa, _ = free_algebra(m, a)
            fb, _ = free_algebra(m, b)
            splits = _union_splits(a) if m.key == "powerset" else None
            kept = exts[a.size, b.size] = [] if tb.size ** a.size <= DIRECT_PAIR_CAP else None
            for block in _blocks(_all_tables(a.size, tb.size)):
                cols = m.extend_columns(block, a, b)
                if _block_holds(cols, block, eta_a, fa, fb, splits):
                    rep.checked += len(block)
                    if kept is not None:
                        kept += _rows(cols, len(block))
                    continue
                for f, fext in zip(block, _rows(cols, len(block)), strict=True):
                    is_map = _is_map(fext, fa.carrier.size, tb.size)
                    if kept is not None:
                        kept.append(fext if is_map else None)
                    rep.checked += 1
                    if not is_map:
                        rep.fail(f"extend(f) not a map at |A|={a.size},|B|={b.size}")
                        continue
                    for i in range(a.size):
                        if fext[eta_a[i]] != f[i]:
                            rep.fail(f"extend(f).unit != f at |A|={a.size},|B|={b.size}")
                            break
                    if not (is_homomorphism(fext, fa, fb) if splits is None
                            else _joins_splits(fext, splits, fb)):
                        rep.fail(
                            f"extension not a homomorphism at |A|={a.size},|B|={b.size}"
                        )

    failed = set()  # (|A|, |B|, |C|) where associativity fails, reported in that order
    for a in sets:
        for c in sets:
            memo = None  # {table h: extend(h)} for h : A -> T C, shared by every B
            for b in sets:
                tb, tc = m.apply(b), m.apply(c)
                if (tb.size == 0 and a.size > 0) or (tc.size == 0 and b.size > 0):
                    continue
                if tb.size ** a.size * tc.size ** b.size > DIRECT_PAIR_CAP:
                    continue  # covered by the decomposition above
                # extensions that are not maps were reported above
                gexts = [g for g in exts[b.size, c.size] if g is not None]
                cols, n = _columns(gexts, tb.size), len(gexts)
                if memo is None:  # the homomorphism loop's extensions that are maps
                    known = zip(_all_tables(a.size, tc.size), exts.get((a.size, c.size)) or ())
                    memo = {h: e for h, e in known if e is not None}
                if len(memo) < tc.size ** a.size:  # extend the composites it misses
                    fs = zip(_all_tables(a.size, tb.size), exts[a.size, b.size])
                    hs = chain.from_iterable(_compose_all(cols, f, n) for f, e in fs if e is not None)
                    for part in _blocks(list(set(hs) - memo.keys())):
                        memo.update(zip(part, _rows(m.extend_columns(part, a, c), len(part))))
                for f, fext in zip(_all_tables(a.size, tb.size), exts[a.size, b.size]):
                    if fext is None:
                        continue
                    # (g+ . f)+ against g+ . f+, for every g at once
                    lhs = map(memo.__getitem__, _compose_all(cols, f, n))
                    if not all(map(eq, lhs, _compose_all(cols, fext, n))):
                        failed.add((a.size, b.size, c.size))
                    rep.checked += n
    for a, b, c in sorted(failed):
        rep.fail(f"associativity fails at |A|={a},|B|={b},|C|={c}")
    return rep


def _block_holds(cols, block, eta, fa: Alg, fb: Alg, splits) -> bool:
    """Does each table of ``block`` pass every check of ``check_monad_laws``'
    homomorphism loop, given the columns ``cols`` of their extensions?"""
    n, tb = len(block), fb.carrier.size
    if len(cols) != fa.carrier.size or any(len(col) != n or min(col) < 0 or max(col) >= tb
                                           for col in cols):
        return False
    if not all(cols[eta[i]] == col for i, col in enumerate(zip(*block))):
        return False
    if splits is None:
        return all(cols[f[0]].count(g[0]) == n for f, g in zip(fa.ops, fb.ops))
    join = fb.ops[0]  # row x of the join table, at each y the join of x and y
    rows = [join[x * tb:(x + 1) * tb] for x in range(tb)].__getitem__
    return all(cols[s] == tuple(map(getitem, map(rows, cols[r]), cols[i])) for s, r, i in splits)


def _blocks(items: Iterable):
    """``items`` in lists of ``BLOCK``, so that batches keep memory bounded."""
    items = iter(items)
    while block := list(islice(items, BLOCK)):
        yield block


def _columns(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """The ``width`` columns of ``rows``."""
    return list(zip(*rows)) if rows else [()] * width


def _rows(cols: Sequence[Sequence[int]], n: int):
    """The ``n`` rows of ``cols``."""
    return zip(*cols) if cols else repeat((), n)


def _compose_all(cols: list[tuple[int, ...]], table: Sequence[int], n: int):
    """The tables ``g . table``, one for each of ``n`` maps ``g``, where
    ``cols[y]`` holds every ``g(y)`` in order."""
    return _rows(list(map(cols.__getitem__, table)), n)


def _unit_image_generates(m: MonadSpec, a: FinSet) -> bool:
    """T A must be generated by the unit image under the free structure ops."""
    fa, eta = free_algebra(m, a)
    reached, size = set(eta), -1
    while size != len(reached):  # a constant is reached in the first round
        size = len(reached)
        reached |= {fa.op(k, args) for k, arity in enumerate(m.arities)
                    for args in product(list(reached), repeat=arity)}
    return reached == set(range(fa.carrier.size))


def _union_splits(a: FinSet) -> list[tuple[int, int, int]]:
    """``(s, r, i)`` for every subset ``s`` in T A (powerset) with two or more
    elements: ``r`` is ``s`` without its lowest element and ``i`` that element's
    singleton.

    A map out of the free semilattice that sends each ``s`` to the union of
    the images of ``r`` and ``i`` sends it to the union of its singletons'
    images, so it preserves every union; checking these splits is one
    lookup per element of T A instead of one per pair.
    """
    out = []
    for mask in range(1, 1 << a.size):
        low = mask & -mask
        if mask != low:
            out.append((mask - 1, mask - low - 1, low - 1))
    return out


def _joins_splits(table: Sequence[int], splits, cod: Alg) -> bool:
    """Does the map ``table`` send each split ``s`` to the join in ``cod`` of its parts' images?"""
    join, n = cod.ops[0], cod.carrier.size
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
        ``include-free-algebras`` key is ignored."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ModelError(f"a model configuration is a JSON object, not {data!r}")
        exceptions = data.get("E", ["e"])
        return ModelConfig(
            monad=data.get("monad", "exception"),
            exceptions=tuple(exceptions) if isinstance(exceptions, list) else exceptions,
            bound=data.get("bound", 2),
        )
