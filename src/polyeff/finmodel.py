"""Finite semantic substrate: sets, monads, algebras and relations.

Three monads are supported, each presented through operation tables on
finite carriers rather than abstract structure maps:

* ``identity``   — algebras are bare sets, every map is a homomorphism;
* ``exception``  — T A = A + E; algebras are E-pointed sets (one
  distinguished ``raise`` element per exception, no laws);
* ``powerset``   — T A = nonempty subsets of A; algebras are
  semilattices (idempotent commutative associative ``or``).

Carrier elements are canonically 0..n-1.  For the exception monad the
first |A| elements of T A are the values and the last |E| the raised
exceptions; for the powerset monad element ``i`` of T A is the subset
with bitmask ``i + 1``.

Sets, monads and algebras are hash-consed with ``kernel.hash_consed``,
like types: equal ones are one object, so caches key on them by identity.

A relation between carriers of sizes m and n has one form everywhere,
its *rows*: a tuple of m int bitmasks in which bit ``y`` of ``rows[x]``
is set iff ``x`` and ``y`` are related.  This module owns that layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

from .kernel import Interned, hash_consed


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
    key: str  # "identity" | "exception" | "powerset"
    exceptions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.key not in MONADS:
            raise ModelError(f"unknown monad {self.key!r}")
        if self.key != "exception" and self.exceptions:
            raise ModelError(f"{self.key} monad takes no exception set")

    @property
    def n_exc(self) -> int:
        return len(self.exceptions)

    def apply(self, a: FinSet) -> FinSet:
        if self.key == "identity":
            return a
        if self.key == "exception":
            return FinSet(a.size + self.n_exc)
        return FinSet((1 << a.size) - 1)

    def unit(self, a: FinSet) -> tuple[int, ...]:
        if self.key == "identity":
            return tuple(range(a.size))
        if self.key == "exception":
            return tuple(range(a.size))
        return tuple((1 << i) - 1 for i in range(a.size))

    def extend(self, f: Sequence[int], a: FinSet, b: FinSet) -> tuple[int, ...]:
        """Lift ``f : A -> T B`` to ``f+ : T A -> T B``."""
        if len(f) != a.size:
            raise ModelError("table does not cover the domain")
        if self.key == "identity":
            return tuple(f)
        if self.key == "exception":
            out = list(f)
            for e in range(self.n_exc):
                out.append(b.size + e)
            return tuple(out)
        # subset masks of A, doubled one element at a time: the image of
        # s + {i} is the image of s joined with f(i)
        masks = [0]
        for x in f:
            x += 1
            masks += [y | x for y in masks]
        return tuple([y - 1 for y in masks[1:]])

    def tmap(self, f: Sequence[int], a: FinSet, b: FinSet) -> tuple[int, ...]:
        """Functor action: T f = (unit . f)+."""
        eta = self.unit(b)
        return self.extend([eta[f[i]] for i in range(a.size)], a, b)


# ---------------------------------------------------------------------------
# algebras


@hash_consed
class Alg(Interned):
    monad: MonadSpec
    carrier: FinSet
    raise_points: tuple[int, ...] = ()
    or_table: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = self.carrier.size
        if self.monad.key == "exception":
            if len(self.raise_points) != self.monad.n_exc:
                raise ModelError("one distinguished point per exception required")
            if any(not 0 <= p < n for p in self.raise_points):
                raise ModelError("distinguished point outside carrier")
        elif self.raise_points:
            raise ModelError("raise points only make sense for the exception monad")
        if self.monad.key == "powerset":
            if len(self.or_table) != n or any(len(r) != n for r in self.or_table):
                raise ModelError("or table must be square on the carrier")
        elif self.or_table:
            raise ModelError("or table only makes sense for the powerset monad")

    def op_or(self, x: int, y: int) -> int:
        return self.or_table[x][y]


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
    if m.key == "identity":
        return tuple(range(n))
    if m.key == "exception":
        return tuple(range(n)) + tuple(alg.raise_points)
    out = []
    for mask_minus in range((1 << n) - 1):
        mask = mask_minus + 1
        elems = [i for i in range(n) if mask >> i & 1]
        acc = elems[0]
        for e in elems[1:]:
            acc = alg.op_or(acc, e)
        out.append(acc)
    return tuple(out)


def enumerate_sets(bound: int) -> list[FinSet]:
    """One canonical set per cardinality 0..bound."""
    return [FinSet(n) for n in range(bound + 1)]


def enumerate_algebras(m: MonadSpec, bound: int) -> list[Alg]:
    """All algebra structures on each enumerated carrier, by literal tables."""
    out: list[Alg] = []
    for n in range(bound + 1):
        carrier = FinSet(n)
        if m.key == "identity":
            out.append(Alg(m, carrier))
            continue
        if m.key == "exception":
            if n == 0 and m.n_exc > 0:
                continue  # no choice of distinguished points
            for pts in product(range(n), repeat=m.n_exc):
                out.append(Alg(m, carrier, raise_points=pts))
            continue
        # powerset: enumerate symmetric idempotent tables, filter associativity
        cells = [(x, y) for x in range(n) for y in range(x + 1, n)]
        for choice in product(range(n), repeat=len(cells)):
            table = [[x if x == y else -1 for y in range(n)] for x in range(n)]
            for (x, y), v in zip(cells, choice):
                table[x][y] = table[y][x] = v
            tbl = tuple(tuple(r) for r in table)
            if semilattice_laws_hold(tbl):
                out.append(Alg(m, carrier, or_table=tbl))
    return out


def free_algebra(m: MonadSpec, a: FinSet) -> tuple[Alg, tuple[int, ...]]:
    """The algebra on T A together with the unit table A -> T A."""
    ta = m.apply(a)
    if m.key == "identity":
        return Alg(m, ta), m.unit(a)
    if m.key == "exception":
        pts = tuple(a.size + e for e in range(m.n_exc))
        return Alg(m, ta, raise_points=pts), m.unit(a)
    n = ta.size
    table = tuple(
        tuple((((x + 1) | (y + 1)) - 1) for y in range(n)) for x in range(n)
    )
    return Alg(m, ta, or_table=table), m.unit(a)


def _is_map(table: Sequence[int], dom_size: int, cod_size: int) -> bool:
    """Is ``table`` a total map between carriers of these sizes?"""
    return len(table) == dom_size and all(0 <= v < cod_size for v in table)


def is_homomorphism(table: Sequence[int], dom: Alg, cod: Alg) -> bool:
    """Does the total map preserve every structure operation?"""
    n = dom.carrier.size
    if not _is_map(table, n, cod.carrier.size):
        return False
    if dom.monad.key == "exception":
        for p, q in zip(dom.raise_points, cod.raise_points):
            if table[p] != q:
                return False
    if dom.monad.key == "powerset":
        for x in range(n):
            for y in range(x, n):
                if table[dom.op_or(x, y)] != cod.op_or(table[x], table[y]):
                    return False
    return True


def enumerate_homs(dom: Alg, cod: Alg, cap: int = 1_000_000) -> list[tuple[int, ...]]:
    """All homomorphism tables dom -> cod, in lexicographic order.

    Exception points are pinned first, so only the free positions are
    enumerated; more than ``cap`` choices raise ``OutOfBoundError``.
    """
    forced: dict[int, int] = {}
    for p, q in zip(dom.raise_points, cod.raise_points):
        if forced.setdefault(p, q) != q:
            return []
    table = [forced.get(i, 0) for i in range(dom.carrier.size)]
    free = [i for i in range(len(table)) if i not in forced]
    m = cod.carrier.size
    if m ** len(free) > cap:
        raise OutOfBoundError(f"hom space too large: {m}^{len(free)}")
    out = []
    for choice in product(range(m), repeat=len(free)):
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


def preimage(f: Sequence[int], g: Sequence[int], rows: Sequence[int]) -> tuple[int, ...]:
    """(f,g)^-1 R = { (x,y) | (f x, g y) in R }."""
    return tuple(
        mask_of((y for y, gy in enumerate(g) if rows[fx] >> gy & 1), len(g)) for fx in f
    )


def product_alg(a: Alg, b: Alg) -> Alg:
    """Componentwise structure on the product carrier; index = x*|B| + y."""
    if a.monad != b.monad:
        raise ModelError("algebras over different monads")
    m = a.monad
    na, nb = a.carrier.size, b.carrier.size
    carrier = FinSet(na * nb)
    if m.key == "identity":
        return Alg(m, carrier)
    if m.key == "exception":
        pts = tuple(p * nb + q for p, q in zip(a.raise_points, b.raise_points))
        return Alg(m, carrier, raise_points=pts)
    table = tuple(
        tuple(
            a.op_or(x // nb, y // nb) * nb + b.op_or(x % nb, y % nb)
            for y in range(na * nb)
        )
        for x in range(na * nb)
    )
    return Alg(m, carrier, or_table=table)


def admissible(rows: Sequence[int], a: Alg, b: Alg) -> bool:
    """Does the relation carry a subalgebra of the product ``a x b``?"""
    if not all(rows[p] >> q & 1 for p, q in zip(a.raise_points, b.raise_points)):
        return False
    if a.monad.key == "powerset":
        pairs = rel_pairs(rows)
        return all(rows[a.op_or(x1, x2)] >> b.op_or(y1, y2) & 1
                   for x1, y1 in pairs for x2, y2 in pairs)
    return True


def admissible_closure(rows: Sequence[int], a: Alg, b: Alg) -> tuple[int, ...]:
    """Smallest relation containing ``rows`` closed under the product structure."""
    out = list(rows)
    for p, q in zip(a.raise_points, b.raise_points):
        out[p] |= 1 << q
    if a.monad.key == "powerset":
        changed = True
        while changed:
            changed = False
            pairs = rel_pairs(out)
            for x1, y1 in pairs:
                for x2, y2 in pairs:
                    x, y = a.op_or(x1, x2), b.op_or(y1, y2)
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

    for a in sets:
        for b in sets:
            tb = m.apply(b)
            if tb.size == 0 and a.size > 0:
                continue
            eta_a = m.unit(a)
            fa, _ = free_algebra(m, a)
            fb, _ = free_algebra(m, b)
            splits = _union_splits(a) if m.key == "powerset" else None
            for f in _all_tables(a.size, tb.size):
                fext = m.extend(f, a, b)
                rep.checked += 1
                if not _is_map(fext, fa.carrier.size, tb.size):
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

    for a in sets:
        for b in sets:
            for c in sets:
                ta, tb, tc = m.apply(a), m.apply(b), m.apply(c)
                if (tb.size == 0 and a.size > 0) or (tc.size == 0 and b.size > 0):
                    continue
                nf = tb.size ** a.size
                ng = tc.size ** b.size
                if nf * ng > DIRECT_PAIR_CAP:
                    continue  # covered by the decomposition above
                gexts = [m.extend(g, b, c) for g in _all_tables(b.size, tc.size)]
                gexts = [g for g in gexts if _is_map(g, tb.size, tc.size)]  # others reported above
                for f in _all_tables(a.size, tb.size):
                    fext = m.extend(f, a, b)
                    if not _is_map(fext, ta.size, tb.size):
                        continue
                    for gext in gexts:
                        lhs = m.extend([gext[f[i]] for i in range(a.size)], a, c)
                        rhs = tuple(gext[fext[i]] for i in range(len(fext)))
                        if tuple(lhs) != rhs:
                            rep.fail(
                                f"associativity fails at |A|={a.size},|B|={b.size},|C|={c.size}"
                            )
                        rep.checked += 1
    return rep


def _unit_image_generates(m: MonadSpec, a: FinSet) -> bool:
    """T A must be generated by the unit image under the free structure ops."""
    fa, eta = free_algebra(m, a)
    reached = set(eta)
    if m.key == "exception":
        reached |= set(fa.raise_points)
    if m.key == "powerset":
        changed = True
        while changed:
            changed = False
            for x in list(reached):
                for y in list(reached):
                    z = fa.op_or(x, y)
                    if z not in reached:
                        reached |= {z}
                        changed = True
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
    join = cod.or_table
    for s, r, i in splits:
        if table[s] != join[table[r]][table[i]]:
            return False
    return True


# ---------------------------------------------------------------------------
# configuration


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
