"""Finite sets, monads, algebras, relations and the admissible closure."""

from functools import lru_cache, reduce
from itertools import product
from operator import or_

import pytest

from polyeff import finmodel as fm
from polyeff import interp as ip


EXC = fm.MonadSpec("exception", ("e",))
EXC2 = fm.MonadSpec("exception", ("e1", "e2"))
POW = fm.MonadSpec("powerset")
IDM = fm.MonadSpec("identity")


def test_enumerate_sets():
    sizes = [s.size for s in fm.enumerate_sets(2)]
    assert sizes == [0, 1, 2]
    assert [s.size for s in fm.enumerate_sets(0)] == [0]
    assert len(set(map(id, fm.enumerate_sets(3)))) == 4


def test_exception_algebras_on_two_points():
    algs = [a for a in fm.enumerate_algebras(EXC, 2, ip.ITER_CAP) if a.size == 2]
    assert len(algs) == 2
    assert {a.ops for a in algs} == {((0,),), ((1,),)}


def test_powerset_algebras_on_two_points_against_naive_filter():
    # oracle: all 16 binary tables filtered by the three semilattice laws
    oracle = []
    for tbl in product(range(2), repeat=4):
        table = ((tbl[0], tbl[1]), (tbl[2], tbl[3]))
        if fm.semilattice_laws_hold(table):
            oracle.append(table)
    algs = [a for a in fm.enumerate_algebras(POW, 2, ip.ITER_CAP) if a.size == 2]
    assert sorted(a.ops[0] for a in algs) == sorted(sum(t, ()) for t in oracle)
    assert len(algs) == 2  # min and max


def test_single_point_carrier_has_one_algebra():
    for m in (EXC, EXC2, POW, IDM):
        algs = [a for a in fm.enumerate_algebras(m, 1, ip.ITER_CAP) if a.size == 1]
        assert len(algs) == 1


@pytest.mark.parametrize("monad, bound", [
    (POW, 3), (fm.MonadSpec("exception", ("e1", "e2", "e3")), 2), (EXC2, 3), (EXC, 3), (IDM, 3),
], ids=["powerset-3", "three-exceptions-2", "two-exceptions-3", "exception-3", "identity-3"])
def test_no_recorded_config_has_more_than_27_candidate_tables_per_carrier(monad, bound):
    # no carrier of a recorded configuration has more than 27 candidate tables
    assert fm.enumerate_algebras(monad, bound, 27) == fm.enumerate_algebras(monad, bound, ip.ITER_CAP)


def test_algebras_past_the_cap_fail_before_listing_a_table(monkeypatch):
    # the powerset carrier of 5 elements has 5^10 candidate tables; the
    # carriers below it are listed, and no table of it is tested
    tested = []
    laws = fm.semilattice_laws_hold
    monkeypatch.setattr(fm, "semilattice_laws_hold", lambda table: tested.append(len(table)) or laws(table))
    with pytest.raises(fm.OutOfBoundError, match=r"^algebras on a 5-element carrier: 9765625 candidate tables, more than 400000$"):
        fm.enumerate_algebras(POW, 5, ip.ITER_CAP)
    assert max(tested) == 4
    with pytest.raises(fm.OutOfBoundError, match="3-element carrier: 27 candidate tables, more than 26"):
        fm.enumerate_algebras(POW, 3, 26)


def test_free_algebra_carriers():
    alg, eta = fm.free_algebra(EXC, 2)
    assert alg.size == 3 and alg.ops == ((2,),)
    assert eta == (0, 1)
    alg, _ = fm.free_algebra(POW, 2)
    assert alg.size == 3  # nonempty subsets
    alg, eta = fm.free_algebra(IDM, 4)
    assert alg.size == 4 and eta == (0, 1, 2, 3)


@pytest.mark.parametrize("monad", [EXC, POW, IDM], ids=lambda m: m.key)
def test_small_free_algebras_are_among_the_enumerated_ones(monad):
    for k in range(3):
        if monad.apply(k) <= 2:
            assert fm.free_algebra(monad, k)[0] in fm.enumerate_algebras(monad, 2, ip.ITER_CAP)


@pytest.mark.parametrize("monad", [EXC, EXC2, POW, IDM], ids=lambda m: f"{m.key}{m.n_exc}")
def test_a_model_with_free_algebras_holds_each_algebra_once(monad):
    algebras = ip.Model(monad, 2, range(3)).algebras
    assert len(set(algebras)) == len(algebras)


def test_powerset_free_algebra_is_union():
    alg, eta = fm.free_algebra(POW, 2)
    # singletons are masks 1 and 2; their join is {0,1} = mask 3 = index 2
    assert alg.op(0, (eta[0], eta[1])) == 2


def test_homomorphism_identity_table():
    alg = fm.Alg(EXC, 2, ((0,),))
    assert fm.is_homomorphism((0, 1), alg, alg)


def test_homomorphism_must_preserve_the_point():
    dom = fm.Alg(EXC, 2, ((0,),))
    cod = fm.Alg(EXC, 2, ((0,),))
    assert not fm.is_homomorphism((1, 1), dom, cod)


def test_semilattice_hom_tables_by_exhaustion():
    # all 4 maps between the two 2-element semilattices, checked one by one
    mn = fm.Alg(POW, 2, ((0, 0, 0, 1),))
    mx = fm.Alg(POW, 2, ((0, 1, 1, 1),))
    homs = [tbl for tbl in product(range(2), repeat=2) if fm.is_homomorphism(tbl, mn, mx)]
    # or_mx(t(x),t(y)) = t(or_mn(x,y)): constants always, identity fails, swap works
    oracle = []
    for tbl in product(range(2), repeat=2):
        if all(mx.op(0, (tbl[x], tbl[y])) == tbl[mn.op(0, (x, y))] for x in range(2) for y in range(2)):
            oracle.append(tbl)
    assert homs == oracle
    assert fm.enumerate_homs(mn, mx, ip.ITER_CAP) == [tuple(t) for t in oracle]


@pytest.mark.parametrize("monad", [IDM, EXC, EXC2, POW], ids=lambda m: f"{m.key}{m.n_exc}")
def test_enumerate_homs_matches_brute_force(monad):
    # every algebra at bound 2 plus the free algebras on 0, 1 and 2 points,
    # against a filter of the full table product, order included
    algs = fm.enumerate_algebras(monad, 2, ip.ITER_CAP)
    algs += [fm.free_algebra(monad, n)[0] for n in range(3)]
    for dom in algs:
        for cod in algs:
            brute = [t for t in product(range(cod.size), repeat=dom.size)
                     if fm.is_homomorphism(t, dom, cod)]
            assert fm.enumerate_homs(dom, cod, ip.ITER_CAP) == brute


def test_enumerate_homs_caps_only_the_free_positions():
    dom, _ = fm.free_algebra(EXC, 2)  # three elements, the last one pinned
    cod = fm.Alg(EXC, 2, ((0,),))
    assert len(fm.enumerate_homs(dom, cod, cap=4)) == 4
    with pytest.raises(fm.OutOfBoundError, match=r"2\^2"):
        fm.enumerate_homs(dom, cod, cap=3)
    assert issubclass(fm.OutOfBoundError, fm.ModelError)


def test_carries_subalgebra():
    # a subset is closed iff the diagonal on it is admissible from the algebra to itself
    alg = fm.Alg(EXC, 2, ((1,),))
    assert fm.admissible((0b01, 0b10), alg, alg)
    assert not fm.admissible((0b01, 0), alg, alg)
    chain = fm.Alg(POW, 2, ((0, 1, 1, 1),))
    assert fm.admissible((0b01, 0), chain, chain)  # the bottom of a 2-chain is closed
    assert fm.admissible((0, 0b10), chain, chain)


# -- the row layer against pair-set oracles -----------------------------------


def _rows(pairs, m):
    return tuple(sum(1 << y for x2, y in pairs if x2 == x) for x in range(m))


def _cells(m, n):
    return [(x, y) for x in range(m) for y in range(n)]


def _set_rels_oracle(m, n):
    # every pair set, cell i = x*n + y taken from bit i of an ascending mask
    cells = _cells(m, n)
    return [frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
            for mask in range(1 << len(cells))]


def _admissible_oracle(pairs, a, b):
    if a.monad.key == "exception" and not all((p, q) in pairs for (p,), (q,) in zip(a.ops, b.ops)):
        return False
    if a.monad.key == "powerset":
        join_a, join_b, na, nb = a.ops[0], b.ops[0], a.size, b.size
        return all((join_a[x1 * na + x2], join_b[y1 * nb + y2]) in pairs
                   for x1, y1 in pairs for x2, y2 in pairs)
    return True


@lru_cache(maxsize=8)
def _alg_rels_oracle(a, b):
    return [r for r in _set_rels_oracle(a.size, b.size)
            if _admissible_oracle(r, a, b)]


def _closure_oracle(pairs, a, b):
    # independent oracle: intersect all admissible supersets
    best = None
    for cand in _alg_rels_oracle(a, b):
        if pairs <= cand:
            best = cand if best is None else best & cand
    return best


def _algebras(monad):
    # every algebra at bound 2 plus the free algebras on 0, 1 and 2 points
    return ip.Model(monad, 2, range(3)).algebras


def _sample(rels, n=64):
    return rels[::max(1, len(rels) // n)]


@pytest.mark.parametrize("monad", [IDM, EXC, EXC2, POW], ids=lambda m: f"{m.key}{m.n_exc}")
def test_row_layer_matches_the_pair_set_oracles(monad):
    for a in _algebras(monad):
        for b in _algebras(monad):
            m, n = a.size, b.size
            every = _set_rels_oracle(m, n)
            assert fm.enumerate_set_rels(m, n) == [_rows(r, m) for r in every]
            admissible = _alg_rels_oracle(a, b)
            assert fm.enumerate_alg_rels(a, b) == [_rows(r, m) for r in admissible]
            for r in every if len(every) <= 512 else _sample(every):
                want = _closure_oracle(r, a, b)
                assert fm.admissible_closure(_rows(r, m), a, b) == _rows(want, m)
                assert fm.converse(_rows(r, m), n) == _rows({(y, x) for x, y in r}, n)


def test_closure_joins_more_than_two_pairs():
    # on the free semilattice over three points a join of three singletons
    # is no join of two, so the closure must iterate past one round
    f3, _ = fm.free_algebra(POW, 3)
    one = fm.Alg(POW, 1, ((0,),))
    for a, b in ((f3, one), (one, f3)):
        m = a.size
        for r in _set_rels_oracle(m, b.size):
            assert fm.admissible_closure(_rows(r, m), a, b) == _rows(_closure_oracle(r, a, b), m)
    assert fm.admissible_closure((1, 1, 0, 1, 0, 0, 0), f3, one)[6] == 1  # the singletons join to element 6


def _preimage(f, g, rows, n):
    """The preimage of ``rows`` along ``(f, g)``, read from g's preimage table
    (``g`` maps into ``n`` points)."""
    table = fm.preimage_table(g, n)
    return tuple(table[rows[fx]] for fx in f)


def test_preimage_matches_the_per_pair_definition():
    for m, n in product(range(5), repeat=2):
        for r in _sample(_set_rels_oracle(m, n), 8):
            for f in product(range(m), repeat=2):
                for g in product(range(n), repeat=2):
                    want = {(x, y) for x in range(2) for y in range(2) if (f[x], g[y]) in r}
                    assert _preimage(f, g, _rows(r, m), n) == _rows(want, 2)


def test_preimage_table_has_a_row_per_row_value():
    # g = (1, 0, 1): the preimage of {1} is {0, 2}, of {0} is {1}
    assert fm.preimage_table((1, 0, 1), 2) == (0, 0b010, 0b101, 0b111)
    assert fm.preimage_table((), 2) == (0, 0, 0, 0)
    assert fm.preimage_table((), 0) == (0,)


def _rel_order(rows):
    pairs = fm.rel_pairs(rows)
    return len(pairs), pairs


@pytest.mark.parametrize("monad", [IDM, EXC, EXC2, POW], ids=lambda m: f"{m.key}{m.n_exc}")
def test_rels_for_pair_keeps_the_pair_set_order(monad, monkeypatch):
    # most selective first: by number of pairs, then by the sorted pairs.
    # The second direction of a pair is the converse of the first, sorted
    # again, so each unordered pair is enumerated once: ascending order
    # derives every (i, j) with i > j, descending order the others.
    set_rels, alg_rels = fm.enumerate_set_rels, fm.enumerate_alg_rels
    calls = []
    monkeypatch.setattr(fm, "enumerate_set_rels", lambda a, b: calls.append(ip.VSORT) or set_rels(a, b))
    monkeypatch.setattr(fm, "enumerate_alg_rels", lambda a, b: calls.append(ip.CSORT) or alg_rels(a, b))
    for order in (iter, reversed):
        model = ip.Model(monad, 2, range(3))
        calls.clear()
        for sort, objs in ((ip.VSORT, model.sets), (ip.CSORT, model.algebras)):
            for i in order(range(len(objs))):
                for j in order(range(len(objs))):
                    a, b = objs[i], objs[j]
                    if sort == ip.VSORT:
                        rels, m, direct = _set_rels_oracle(a.size, b.size), a.size, set_rels(a.size, b.size)
                    else:
                        rels, m, direct = _alg_rels_oracle(a, b), a.size, alg_rels(a, b)
                    want = [_rows(r, m) for r in sorted(rels, key=lambda r: (len(r), sorted(r)))]
                    assert model.rels_for_pair(sort, i, j) == want == sorted(direct, key=_rel_order)
            assert calls.count(sort) == len(objs) * (len(objs) + 1) // 2


def test_relation_space_cap_names_both_carriers():
    with pytest.raises(fm.OutOfBoundError) as err:
        fm.enumerate_set_rels(5, 4)
    assert str(err.value) == (
        "relation space between carriers of sizes 5 and 4 too large:"
        " 20 cells, more than REL_CAP_BITS (16)"
    )
    fa, _ = fm.free_algebra(fm.MonadSpec("exception", ("e1", "e2", "e3")), 2)
    with pytest.raises(fm.OutOfBoundError, match="sizes 5 and 5 too large: 25 cells"):
        fm.enumerate_alg_rels(fa, fa)


def test_closure_of_empty_contains_raise_pair():
    fa, _ = fm.free_algebra(EXC, 1)
    fb, _ = fm.free_algebra(EXC, 1)
    closed = fm.admissible_closure((0, 0), fa, fb)
    assert closed == (0, 0b10)  # {(1, 1)}
    assert closed == _rows(_closure_oracle(frozenset(), fa, fb), 2)


def test_closure_of_diagonal_on_a_semilattice_is_diagonal():
    alg, _ = fm.free_algebra(POW, 2)
    assert fm.admissible_closure(fm.diagonal(3), alg, alg) == fm.diagonal(3)


def test_closure_of_a_singleton_on_free_exception_algebras():
    fa, _ = fm.free_algebra(EXC, 2)
    closed = fm.admissible_closure((0b010, 0, 0), fa, fa)
    assert fm.rel_pairs(closed) == [(0, 1), (2, 2)]
    assert closed == _rows(_closure_oracle(frozenset({(0, 1)}), fa, fa), 3)


def _le(r1, r2):
    return all(x & ~y == 0 for x, y in zip(r1, r2))


def test_closure_is_a_closure_operator():
    alg, _ = fm.free_algebra(POW, 2)
    rels = fm.enumerate_set_rels(alg.size, alg.size)
    for rows in rels[:64]:
        once = fm.admissible_closure(rows, alg, alg)
        assert _le(rows, once)  # extensive
        assert fm.admissible_closure(once, alg, alg) == once  # idempotent
        bigger = (rows[0] | 1,) + rows[1:]
        assert _le(once, fm.admissible_closure(bigger, alg, alg))  # monotone


def test_relation_operations():
    r = (0b10, 0)  # {(0, 1)}
    assert _preimage((0, 1), (0, 1), r, 2) == r
    # the graph of f is the preimage of the diagonal along (f, id)
    assert _preimage((1, 0), (0, 1), fm.diagonal(2), 2) == (0b10, 0b01)
    assert fm.rel_pairs((0b10, 0b01)) == [(0, 1), (1, 0)]
    assert fm.rows_of([(1, 0), (0, 1)], 2) == (0b10, 0b01)
    assert fm.in_carriers((0b10, 0b01), 2, 2)
    assert not fm.in_carriers((0b100, 0), 2, 2) and not fm.in_carriers((0,), 2, 2)


def test_preimage_of_admissible_relation_along_homs_is_admissible():
    fa, _ = fm.free_algebra(EXC, 1)
    target = fm.Alg(EXC, 2, ((0,),))
    for q in fm.enumerate_alg_rels(target, target):
        for f in fm.enumerate_homs(fa, target, ip.ITER_CAP):
            for g in fm.enumerate_homs(fa, target, ip.ITER_CAP):
                assert fm.admissible(_preimage(f, g, q, 2), fa, fa)


def test_monad_laws_small():
    for m in (IDM, EXC, EXC2, POW):
        rep = fm.check_monad_laws(m, 3)
        assert rep.ok, rep.failures[:3]


def _extension(m, f, a, b):
    """f+ by its definition: a value goes to its image and a raise point to
    itself (identity and exception), a subset to the union of its elements'
    images (powerset)."""
    if m.key == "powerset":
        return tuple(reduce(or_, (f[i] + 1 for i in range(a) if s + 1 >> i & 1)) - 1
                     for s in range((1 << a) - 1))
    return tuple(f) + tuple(range(b, b + m.n_exc))


def _extend_tables(m, tables, a, b):
    """The extension of each of ``tables`` by one ``extend_columns`` call, as rows."""
    tb, n = m.apply(b), len(tables)
    return list(fm._rows(m.extend_columns(fm._columns(tables, a, tb), n, a, b), n, tb))


@pytest.mark.parametrize("m", [IDM, EXC, EXC2, POW], ids=lambda m: f"{m.key}{len(m.exceptions)}")
def test_extend_columns_match_the_definition(m):
    # lane k of column s is f+(s) for the k-th table, and extend is the
    # one-table case
    for a, b in product(range(4), repeat=2):
        tables = list(product(range(m.apply(b)), repeat=a))
        assert _extend_tables(m, tables, a, b) == [_extension(m, f, a, b) for f in tables]
        assert all(m.extend(f, a, b) == _extension(m, f, a, b) for f in tables)


@pytest.mark.parametrize("m, a, b, values", [
    (POW, 2, 9, (0, 1, 127, 254, 255, 256, 509, 510)),
    (POW, 3, 9, (0, 6, 255, 256, 510)),
    (EXC, 2, 300, (0, 255, 256, 299, 300)),
    (EXC2, 1, 299, (0, 255, 256, 298, 299, 300)),
], ids=["powerset-2-9", "powerset-3-9", "exception1-2-300", "exception2-1-299"])
def test_extend_columns_match_the_definition_past_one_byte_lanes(m, a, b, values):
    # T B has 511 (powerset at |B| = 9) or 301 elements, so a lane takes two
    # bytes, and a powerset mask crosses the byte boundary of its lane
    tb = m.apply(b)
    tables = list(product(values, repeat=a))
    cols = m.extend_columns(fm._columns(tables, a, tb), len(tables), a, b)
    assert fm._width(tb) == 2 and {len(col) for col in cols} == {2 * len(tables)}
    want = [_extension(m, f, a, b) for f in tables]
    assert _extend_tables(m, tables, a, b) == want == [m.extend(f, a, b) for f in tables]


@pytest.mark.parametrize("m, b, values", [
    (IDM, 2, (-1, 2, 256, 300)), (EXC, 2, (-1, 3, 256, 300)), (EXC2, 2, (-1, 4, 256, 300)),
    (POW, 2, (-1, 3, 256, 300)), (POW, 9, (-1, 511, 1 << 16, 70_000)),
], ids=["identity", "exception1", "exception2", "powerset", "powerset-two-byte-lanes"])
def test_a_table_value_outside_t_b_is_a_model_error(m, b, values):
    # never a ValueError or OverflowError from packing the value into a lane
    a, tb = 2, m.apply(b)
    for v in values:
        with pytest.raises(fm.ModelError, match="table leaves T B"):
            m.extend((0, v), a, b)
        with pytest.raises(fm.ModelError, match="table leaves T B"):
            _extend_tables(m, [(0, 0), (v, 0), (0, 0)], a, b)
        if 0 <= v < 1 << 8 * fm._width(tb):  # packs, so extend_columns itself must refuse it
            with pytest.raises(fm.ModelError, match="table leaves T B"):
                m.extend_columns([fm._columns([(v,)], 1, tb)[0], bytes(fm._width(tb))], 1, a, b)


def _is_map(t, n, k):
    return len(t) == n and all(0 <= v < k for v in t)


def _naive_space(m, a, b, rep):
    """The unit and homomorphism laws of every table A -> T B, each extended
    by its own ``extend`` call, into ``rep``."""
    ta, tb = m.apply(a), m.apply(b)
    eta = m.unit(a)
    fa, fb = fm.free_algebra(m, a)[0], fm.free_algebra(m, b)[0]
    for f in product(range(tb), repeat=a):
        fext = m.extend(f, a, b)
        rep.checked += 1
        if not _is_map(fext, ta, tb):
            rep.fail(f"extend(f) not a map at |A|={a},|B|={b}")
            continue
        if any(fext[eta[i]] != f[i] for i in range(a)):
            rep.fail(f"extend(f).unit != f at |A|={a},|B|={b}")
        if not (fm._joins_splits(fext, fm._union_splits(a), fb) if m.key == "powerset"
                else fm.is_homomorphism(fext, fa, fb)):
            rep.fail(f"extension not a homomorphism at |A|={a},|B|={b}")


def _monad_laws_naive(m, max_size):
    """Reference law check: extends every table afresh, for each law and each
    (f, g) pair, so the packed blocks and the batched composites of
    ``check_monad_laws`` are checked against independent calls."""
    rep = fm.LawReport()
    sizes = range(max_size + 1)
    for a in sizes:
        if tuple(m.extend(m.unit(a), a, a)) != tuple(range(m.apply(a))):
            rep.fail(f"extend(unit) != id at |A|={a}")
        if not fm._unit_image_generates(m, a):
            rep.fail(f"unit image does not generate T A at |A|={a}")
        rep.checked += 2
    for a, b in product(sizes, repeat=2):
        if m.apply(b) or not a:
            _naive_space(m, a, b, rep)
    for a, b, c in product(sizes, repeat=3):
        ta, tb, tc = (m.apply(x) for x in (a, b, c))
        if (tb == 0 and a > 0) or (tc == 0 and b > 0):
            continue
        if tb ** a * tc ** b > fm.DIRECT_PAIR_CAP:
            continue
        for f in product(range(tb), repeat=a):
            fext = m.extend(f, a, b)
            if not _is_map(fext, ta, tb):
                continue
            for g in product(range(tc), repeat=b):
                gext = m.extend(g, b, c)
                if not _is_map(gext, tb, tc):
                    continue
                lhs = m.extend([gext[x] for x in f], a, c)
                if tuple(lhs) != tuple(gext[y] for y in fext):
                    rep.fail(f"associativity fails at |A|={a},|B|={b},|C|={c}")
                rep.checked += 1
    return rep


def _plant(monkeypatch, defect):
    """Plant ``defect(m, f, a, b, row) -> row`` in the extension row of every
    table ``f`` that ``MonadSpec.extend_columns`` extends, so the sweep's
    blocks, its cross-check and ``extend``'s one-table case all see it."""
    extend_columns = fm.MonadSpec.extend_columns

    def planted(self, cols, n, a, b):
        tb = self.apply(b)
        out = extend_columns(self, cols, n, a, b)
        rows = [defect(self, f, a, b, row) for f, row in zip(fm._rows(cols, n, tb), fm._rows(out, n, tb))]
        return fm._columns(rows, len(out), tb)

    monkeypatch.setattr(fm.MonadSpec, "extend_columns", planted)


def _out_of_range_at_size_2(m, f, a, b, row):
    # a value outside T B for every injective table other than the unit at
    # |A| = |B| = 2, seen by every law that reads such an extension
    if a == b == 2 and len(set(f)) == 2 and tuple(f) != m.unit(a):
        return (99,) + row[1:]
    return row


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("m", [IDM, EXC, EXC2, POW], ids=lambda m: f"{m.key}{len(m.exceptions)}")
def test_monad_laws_match_a_naive_check(monkeypatch, m, planted):
    if planted:
        _plant(monkeypatch, _out_of_range_at_size_2)
    naive = _monad_laws_naive(m, 3)
    # at size 3 every space fits one block; blocks of 7 tables split every
    # space past 7 tables, and the planted defect then fails some blocks
    # and passes others
    for block in (fm.BLOCK, 7):
        monkeypatch.setattr(fm, "BLOCK", block)
        rep = fm.check_monad_laws(m, 3)
        assert (rep.checked, rep.failures) == (naive.checked, naive.failures), block
    assert bool(rep.failures) == planted


def test_monad_laws_report_a_defect_in_the_one_table_extend_as_the_left_unit_law(monkeypatch):
    # the sweep extends by extend_columns, so only the left unit law reads
    # extend's one-table case, and only it fails when that reverses T A at |A| = 2
    extend = fm.MonadSpec.extend
    monkeypatch.setattr(fm.MonadSpec, "extend",
                        lambda self, f, a, b: extend(self, f, a, b)[::-1] if a == 2 else extend(self, f, a, b))
    for m in (IDM, EXC, EXC2, POW):
        assert fm.check_monad_laws(m, 3).failures == ["extend(unit) != id at |A|=2"], m


def test_monad_laws_report_free_algebra_constants_that_miss_a_raise_point(monkeypatch):
    # with both constants of the free algebra at the first raise point, the
    # unit image and the constants never reach the second one at any |A|
    free_algebra = fm.free_algebra

    def planted(m, a):
        alg, eta = free_algebra(m, a)
        return fm.Alg(m, alg.size, ((a,),) * len(alg.ops)), eta

    monkeypatch.setattr(fm, "free_algebra", planted)
    failures = fm.check_monad_laws(EXC2, 3).failures
    assert failures[:4] == [f"unit image does not generate T A at |A|={n}" for n in range(4)]


def test_monad_laws_extend_each_table_once(monkeypatch):
    # one extend_columns call per block of each table space, one per
    # cross-checked triple of sets (A, B, C) for all its composites g+ . f,
    # and extend's one per set for the left unit law
    batches = []
    extend_columns = fm.MonadSpec.extend_columns
    monkeypatch.setattr(fm.MonadSpec, "extend_columns",
                        lambda self, cols, n, a, b: batches.append(n) or extend_columns(self, cols, n, a, b))
    checked, calls, tables = 0, 0, 0
    for m in (IDM, EXC, EXC2, POW):
        checked += fm.check_monad_laws(m, 4).checked
        size = [m.apply(n) for n in range(5)]
        spaces = [size[b] ** a for a, b in product(range(5), repeat=2) if size[b] or not a]
        pairs = [size[b] ** a * size[c] ** b for a, b, c in product(range(5), repeat=3)
                 if (size[b] or not a) and (size[c] or not b) and size[b] ** a * size[c] ** b <= fm.DIRECT_PAIR_CAP]
        calls += 5 + sum(-(-n // fm.BLOCK) for n in spaces) + len(pairs)
        tables += 5 + sum(spaces) + sum(pairs)
    assert checked == 457_359
    # 603 calls for 457 339 tables, where a memo of composites, extending
    # each distinct one once per pair of sets (A, C), made 232 for 65 261
    assert (len(batches), sum(batches)) == (calls, tables)


LAWS = {"map": "not a map", "unit": "unit != f", "homomorphism": "not a homomorphism",
        "associativity": "associativity fails"}


def _cross_checked_space(m, max_size):
    """The largest table space (|A|, |B|) with |A| >= 2 that the associativity
    cross-check reads with maps ``g`` into T B itself, among them an
    injective extension, which tells every two values of T B apart."""
    size = lambda n: m.apply(n)
    return max(((a, b) for a, b in product(range(2, max_size + 1), range(1, max_size + 1))
                if size(b) ** (a + b) <= fm.DIRECT_PAIR_CAP), key=lambda s: size(s[1]) ** s[0])


def _defect_point(m, a, law):
    """The point of T A at which ``law``'s defect is planted: the last one
    (map), the first unit point (unit), and the union of all of A or the
    first raise point (homomorphism, and associativity in a space the
    cross-check reads); the identity monad has no operations, so it moves a
    unit point."""
    return -1 if law == "map" else m.unit(a)[0] if law == "unit" or m.key == "identity" \
        else -1 if m.key == "powerset" else a


def _broken(col, k, law, tb):
    """``col`` with lane ``k`` (one byte) moved outside T B (map) or to another element of T B."""
    col = bytearray(col)
    col[k] = tb if law == "map" else (col[k] + 1) % tb
    return bytes(col)


def _plant_one(monkeypatch, m, a, b, target, law):
    """Plant ``law``'s defect in the extension of table ``target`` of the
    (|A|, |B|) = (a, b) space only, at ``_defect_point``."""
    tb, at = m.apply(b), _defect_point(m, a, law)
    extend_columns = fm.MonadSpec.extend_columns

    def planted(self, cols, n, dom, cod):
        out = extend_columns(self, cols, n, dom, cod)
        tables = list(fm._rows(cols, n, tb)) if self is m and (dom, cod) == (a, b) else ()
        if target in tables:
            out[at] = _broken(out[at], tables.index(target), law, tb)
        return out

    monkeypatch.setattr(fm.MonadSpec, "extend_columns", planted)


@pytest.mark.parametrize("m, law", [(m, law) for m in (IDM, EXC, EXC2, POW) for law in LAWS
                                    if (m, law) != (IDM, "homomorphism")],
                         ids=lambda x: f"{x.key}{len(x.exceptions)}" if isinstance(x, fm.MonadSpec) else x)
def test_monad_laws_match_the_table_by_table_check_at_block_boundaries(monkeypatch, m, law):
    # one defective table at max size 4: the first table of a space, the last
    # table of a block, the first after a block boundary and the last table of
    # the space, which is (4, 4) but for the associativity cases.  A space no
    # larger than one block runs with blocks of a third of it.  The column test
    # must reject the planted table's block and accept every other one: the
    # sweep then checks exactly that block table by table, so its report is
    # the table-by-table check's, and it carries the law's failure.  Clean
    # blocks are pinned to the table-by-table check by
    # test_monad_laws_match_a_naive_check.  (The identity monad has no
    # operations, so every map is a homomorphism.)
    a, b = _cross_checked_space(m, 4) if law == "associativity" else (4, 4)
    tb = m.apply(b)
    tables = list(product(range(tb), repeat=a))
    if len(tables) <= fm.BLOCK:
        monkeypatch.setattr(fm, "BLOCK", len(tables) // 3)
    holds = fm._block_holds

    def spy(cols, block, n, eta, fa, fb, splits):
        planted = (len(block), fb.size) == (a, tb) and target in fm._rows(block, n, tb)
        verdicts.append((planted, holds(cols, block, n, eta, fa, fb, splits)))
        return verdicts[-1][1]

    for k in (0, fm.BLOCK - 1, fm.BLOCK, len(tables) - 1):
        target, verdicts = tables[k], []
        with monkeypatch.context() as mp:
            _plant_one(mp, m, a, b, target, law)
            mp.setattr(fm, "_block_holds", spy)
            rep = fm.check_monad_laws(m, 4)
        assert (True, False) in verdicts and all(planted != accepted for planted, accepted in verdicts), k
        assert any(LAWS[law] in msg for msg in rep.failures), (k, rep.failures)


@pytest.mark.parametrize("m, law", [(m, law) for m in (IDM, EXC, EXC2, POW) for law in ("map", "unit", "homomorphism")
                                    if (m, law) != (IDM, "homomorphism")],
                         ids=lambda x: f"{x.key}{len(x.exceptions)}" if isinstance(x, fm.MonadSpec) else x)
def test_the_column_test_rejects_a_block_wrong_in_one_lane(m, law):
    # the (3, 3) space is one block of 27 to 343 tables; each law's defect in
    # the first, a middle or the last lane of one extension column is enough
    # to reject it
    a, b = 3, 3
    tb = m.apply(b)
    (block, n), = fm._blocks(a, tb)
    (fa, eta), (fb, _) = fm.free_algebra(m, a), fm.free_algebra(m, b)
    splits = fm._union_splits(a) if m.key == "powerset" else None
    cols = m.extend_columns(block, n, a, b)
    assert n == tb ** 3 and fm._block_holds(cols, block, n, eta, fa, fb, splits)
    at = _defect_point(m, a, law)
    for k in (0, n // 2, n - 1):
        broken = list(cols)
        broken[at] = _broken(cols[at], k, law, tb)
        assert not fm._block_holds(broken, block, n, eta, fa, fb, splits), k


def _moves_the_full_subset(m, f, a, b, row):
    # a wrong value in T B at the union of all of A, for one table of the (2, 5) space
    if (a, b) == (2, 5) and tuple(f) == (3, 17):
        return row[:-1] + ((row[-1] + 1) % 31,)
    return row


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
def test_a_powerset_space_past_16_elements_goes_table_by_table(monkeypatch, planted):
    # at |B| = 5, T B has 31 elements, more than a one-byte lane of x*31 + y
    # can key without carries: the column test accepts no block, and the
    # sweep's report is the table-by-table check's
    if planted:
        _plant(monkeypatch, _moves_the_full_subset)
    monkeypatch.setattr(fm, "BLOCK", 100)
    holds, verdicts = fm._block_holds, []
    monkeypatch.setattr(fm, "_block_holds", lambda *args: verdicts.append(holds(*args)) or verdicts[-1])
    a, b = 2, 5
    rep, naive = fm.LawReport(), fm.LawReport()
    n, cols, exts = fm._sweep_space(POW, a, b, rep)
    _naive_space(POW, a, b, naive)
    assert verdicts == [False] * 10 and (rep.checked, rep.failures) == (naive.checked, naive.failures) == (
        31 ** 2, ["extension not a homomorphism at |A|=2,|B|=5"] if planted else [])
    assert n == 31 ** 2 and list(fm._rows(cols, n, 31)) == list(product(range(31), repeat=2))
    assert list(fm._rows(exts, n, 31)) == [POW.extend(f, a, b) for f in product(range(31), repeat=2)]


def test_algebra_shape_validation():
    with pytest.raises(fm.ModelError):
        fm.Alg(EXC, 2)  # missing the distinguished point
    with pytest.raises(fm.ModelError):
        fm.Alg(POW, 2, ((0, 1),))
    with pytest.raises(fm.ModelError):
        fm.Alg(IDM, 2, ((0,),))
    with pytest.raises(fm.ModelError, match="negative carrier size"):
        fm.Alg(IDM, -1)


def test_model_config_json_round_trip():
    cfg = fm.ModelConfig("powerset", (), 3)
    assert fm.ModelConfig.from_json('{"monad": "powerset", "E": [], "bound": 3}') == cfg
    # the retired include-free-algebras key is read and ignored
    again = fm.ModelConfig.from_json(
        '{"monad": "powerset", "E": [], "bound": 3, "include-free-algebras": true}'
    )
    assert again == cfg
    assert fm.ModelConfig.from_json(cfg.to_json()) == cfg


def test_model_config_rejects_any_other_key():
    with pytest.raises(fm.ModelError, match="^unknown configuration key 'bonud'$"):
        fm.ModelConfig.from_json('{"bound": 1, "bonud": 3}')
    with pytest.raises(fm.ModelError, match="^unknown configuration key 'Bound', 'e'$"):
        fm.ModelConfig.from_json('{"e": [], "Bound": 1, "include-free-algebras": false}')
