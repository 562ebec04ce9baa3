"""Finite sets, monads, algebras, relations and the admissible closure."""

from itertools import product

import pytest

from polyeff import finmodel as fm


EXC = fm.MonadSpec("exception", ("e",))
EXC2 = fm.MonadSpec("exception", ("e1", "e2"))
POW = fm.MonadSpec("powerset")
IDM = fm.MonadSpec("identity")


def test_enumerate_sets():
    sizes = [s.size for s in fm.enumerate_sets(fm.Bound(2))]
    assert sizes == [0, 1, 2]
    assert [s.size for s in fm.enumerate_sets(fm.Bound(0))] == [0]
    assert len(set(map(id, fm.enumerate_sets(fm.Bound(3))))) == 4


def test_exception_algebras_on_two_points():
    algs = [a for a in fm.enumerate_algebras(EXC, fm.Bound(2)) if a.carrier.size == 2]
    assert len(algs) == 2
    assert {a.raise_points for a in algs} == {(0,), (1,)}


def test_powerset_algebras_on_two_points_against_naive_filter():
    # oracle: all 16 binary tables filtered by the three semilattice laws
    oracle = []
    for tbl in product(range(2), repeat=4):
        table = ((tbl[0], tbl[1]), (tbl[2], tbl[3]))
        if fm.semilattice_laws_hold(table):
            oracle.append(table)
    algs = [a for a in fm.enumerate_algebras(POW, fm.Bound(2)) if a.carrier.size == 2]
    assert sorted(a.or_table for a in algs) == sorted(oracle)
    assert len(algs) == 2  # min and max


def test_single_point_carrier_has_one_algebra():
    for m in (EXC, EXC2, POW, IDM):
        algs = [a for a in fm.enumerate_algebras(m, fm.Bound(1)) if a.carrier.size == 1]
        assert len(algs) == 1


def test_free_algebra_carriers():
    alg, eta = fm.free_algebra(EXC, fm.FinSet(2))
    assert alg.carrier.size == 3 and alg.raise_points == (2,)
    assert eta == (0, 1)
    alg, _ = fm.free_algebra(POW, fm.FinSet(2))
    assert alg.carrier.size == 3  # nonempty subsets
    alg, eta = fm.free_algebra(IDM, fm.FinSet(4))
    assert alg.carrier.size == 4 and eta == (0, 1, 2, 3)


def test_powerset_free_algebra_is_union():
    alg, eta = fm.free_algebra(POW, fm.FinSet(2))
    # singletons are masks 1 and 2; their join is {0,1} = mask 3 = index 2
    assert alg.op_or(eta[0], eta[1]) == 2


def test_homomorphism_identity_table():
    alg = fm.Alg(EXC, fm.FinSet(2), raise_points=(0,))
    assert fm.is_homomorphism((0, 1), alg, alg)


def test_homomorphism_must_preserve_the_point():
    dom = fm.Alg(EXC, fm.FinSet(2), raise_points=(0,))
    cod = fm.Alg(EXC, fm.FinSet(2), raise_points=(0,))
    assert not fm.is_homomorphism((1, 1), dom, cod)


def test_semilattice_hom_tables_by_exhaustion():
    # all 4 maps between the two 2-element semilattices, checked one by one
    mn = fm.Alg(POW, fm.FinSet(2), or_table=((0, 0), (0, 1)))
    mx = fm.Alg(POW, fm.FinSet(2), or_table=((0, 1), (1, 1)))
    homs = [tbl for tbl in product(range(2), repeat=2) if fm.is_homomorphism(tbl, mn, mx)]
    # or_mx(t(x),t(y)) = t(or_mn(x,y)): constants always, identity fails, swap works
    oracle = []
    for tbl in product(range(2), repeat=2):
        if all(mx.op_or(tbl[x], tbl[y]) == tbl[mn.op_or(x, y)] for x in range(2) for y in range(2)):
            oracle.append(tbl)
    assert homs == oracle
    assert fm.enumerate_homs(mn, mx) == [tuple(t) for t in oracle]


@pytest.mark.parametrize("monad", [IDM, EXC, EXC2, POW], ids=lambda m: f"{m.key}{m.n_exc}")
def test_enumerate_homs_matches_brute_force(monad):
    # every algebra at bound 2 plus the free algebras on 0, 1 and 2 points,
    # against a filter of the full table product, order included
    algs = fm.enumerate_algebras(monad, fm.Bound(2))
    algs += [fm.free_algebra(monad, fm.FinSet(n))[0] for n in range(3)]
    for dom in algs:
        for cod in algs:
            brute = [t for t in product(range(cod.carrier.size), repeat=dom.carrier.size)
                     if fm.is_homomorphism(t, dom, cod)]
            assert fm.enumerate_homs(dom, cod) == brute


def test_enumerate_homs_caps_only_the_free_positions():
    dom, _ = fm.free_algebra(EXC, fm.FinSet(2))  # three elements, the last one pinned
    cod = fm.Alg(EXC, fm.FinSet(2), raise_points=(0,))
    assert len(fm.enumerate_homs(dom, cod, cap=4)) == 4
    with pytest.raises(fm.OutOfBoundError, match=r"2\^2"):
        fm.enumerate_homs(dom, cod, cap=3)
    assert issubclass(fm.OutOfBoundError, fm.ModelError)


def test_carries_subalgebra():
    alg = fm.Alg(EXC, fm.FinSet(2), raise_points=(1,))
    assert fm.carries_subalgebra({0, 1}, alg)
    assert not fm.carries_subalgebra({0}, alg)
    chain = fm.Alg(POW, fm.FinSet(2), or_table=((0, 1), (1, 1)))
    assert fm.carries_subalgebra({0}, chain)  # the bottom of a 2-chain is closed
    assert fm.carries_subalgebra({1}, chain)


def _closure_oracle(pairs, a, b):
    # independent oracle: intersect all admissible supersets
    cells = [(x, y) for x in range(a.carrier.size) for y in range(b.carrier.size)]
    best = None
    for mask in range(1 << len(cells)):
        cand = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        if not pairs <= cand:
            continue
        if not fm.rel_carries_subalgebra(fm.Rel(a.carrier, b.carrier, cand), a, b):
            continue
        best = cand if best is None else best & cand
    return best


def test_closure_of_empty_contains_raise_pair():
    fa, _ = fm.free_algebra(EXC, fm.FinSet(1))
    fb, _ = fm.free_algebra(EXC, fm.FinSet(1))
    rel = fm.Rel(fa.carrier, fb.carrier, frozenset())
    closed = fm.admissible_closure(rel, fa, fb)
    assert closed.pairs == frozenset({(1, 1)})
    assert closed.pairs == _closure_oracle(frozenset(), fa, fb)


def test_closure_of_diagonal_on_a_semilattice_is_diagonal():
    alg, _ = fm.free_algebra(POW, fm.FinSet(2))
    diag = frozenset((i, i) for i in range(3))
    closed = fm.admissible_closure(fm.Rel(alg.carrier, alg.carrier, diag), alg, alg)
    assert closed.pairs == diag


def test_closure_of_a_singleton_on_free_exception_algebras():
    fa, _ = fm.free_algebra(EXC, fm.FinSet(2))
    closed = fm.admissible_closure(fm.Rel(fa.carrier, fa.carrier, frozenset({(0, 1)})), fa, fa)
    assert closed.pairs == frozenset({(0, 1), (2, 2)})
    assert closed.pairs == _closure_oracle(frozenset({(0, 1)}), fa, fa)


def test_closure_is_a_closure_operator():
    alg, _ = fm.free_algebra(POW, fm.FinSet(2))
    rels = fm.enumerate_set_rels(alg.carrier, alg.carrier, cap_bits=9)
    for pairs in rels[:64]:
        rel = fm.Rel(alg.carrier, alg.carrier, pairs)
        once = fm.admissible_closure(rel, alg, alg)
        assert pairs <= once.pairs  # extensive
        assert fm.admissible_closure(once, alg, alg).pairs == once.pairs  # idempotent
        bigger = fm.Rel(alg.carrier, alg.carrier, pairs | {(0, 0)})
        assert once.pairs <= fm.admissible_closure(bigger, alg, alg).pairs  # monotone


def test_relation_operations():
    a = fm.FinSet(2)
    r = fm.Rel(a, a, frozenset({(0, 1)}))
    assert fm.preimage((0, 1), (0, 1), r).pairs == r.pairs
    # the graph of f is the preimage of the diagonal along (f, id)
    diag = fm.Rel(a, a, frozenset({(0, 0), (1, 1)}))
    assert fm.preimage((1, 0), (0, 1), diag).pairs == frozenset({(0, 1), (1, 0)})


def test_preimage_of_admissible_relation_along_homs_is_admissible():
    fa, _ = fm.free_algebra(EXC, fm.FinSet(1))
    target = fm.Alg(EXC, fm.FinSet(2), raise_points=(0,))
    for q in fm.enumerate_alg_rels(target, target):
        for f in fm.enumerate_homs(fa, target):
            for g in fm.enumerate_homs(fa, target):
                pre = fm.preimage(f, g, fm.Rel(target.carrier, target.carrier, q))
                assert fm.rel_carries_subalgebra(pre, fa, fa)


def test_monad_laws_small():
    for m in (IDM, EXC, EXC2, POW):
        rep = fm.check_monad_laws(m, 3)
        assert rep.ok, rep.failures[:3]


def test_algebra_shape_validation():
    with pytest.raises(fm.ModelError):
        fm.Alg(EXC, fm.FinSet(2))  # missing the distinguished point
    with pytest.raises(fm.ModelError):
        fm.Alg(POW, fm.FinSet(2), or_table=((0,), (1,)))
    with pytest.raises(fm.ModelError):
        fm.Alg(IDM, fm.FinSet(2), raise_points=(0,))


def test_model_config_json_round_trip():
    cfg = fm.ModelConfig("powerset", (), 3, True)
    again = fm.ModelConfig.from_json(
        '{"monad": "powerset", "E": [], "bound": 3, "include-free-algebras": true}'
    )
    assert cfg == again
    assert fm.ModelConfig.from_json(cfg.to_json()) == cfg
