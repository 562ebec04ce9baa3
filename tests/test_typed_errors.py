"""Semantic checks raise typed errors, so they survive ``python -O``.

Each test drives one check into failure and expects its exception class.
No test here relies on a bare ``assert``: the file is also run under
``python -O -m pytest``, where assert statements are compiled away.
"""

import pytest

from polyeff import encodings as enc
from polyeff import finmodel as fm
from polyeff import interp as ip
from polyeff import randterms as rt
from polyeff import typecheck as tc
from polyeff.kernel import CSORT, VSORT, TyApp, TyLam, TyVar, Var

EXC = fm.MonadSpec("exception", ("e",))
EXC2 = fm.MonadSpec("exception", ("e1", "e2"))
IDM = fm.MonadSpec("identity")


@pytest.mark.parametrize("m", [IDM, EXC, fm.MonadSpec("exception", ("e1", "e2")), fm.MonadSpec("powerset")],
                         ids=lambda m: f"{m.key}{len(m.exceptions)}")
def test_an_extension_needs_a_table_from_a_into_t_b(m):
    # a table with a value outside T B, such as (99,) under the powerset monad
    # or (7,) under the exception monad, has no extension; packed, the two
    # tables (0,) and f are one column of two lanes
    one = 1
    for f in [(m.apply(one),), (7,), (99,), (-1,), (256,), (300,)]:
        with pytest.raises(fm.ModelError, match="leaves T B"):
            m.extend(f, one, one)
        if 0 <= f[0] < 256:
            with pytest.raises(fm.ModelError, match="leaves T B"):
                m.extend_columns([bytes([0, f[0]])], 2, one, one)
    for f in [(), (0, 0)]:
        with pytest.raises(fm.ModelError, match="does not cover the domain"):
            m.extend(f, one, one)
    for cols in [[], [b"\0\0", b"\0\0"], [b"\0"]]:
        with pytest.raises(fm.ModelError, match="does not cover the domain"):
            m.extend_columns(cols, 2, one, one)


def test_projection_must_not_depend_on_the_isomorphism():
    # a family picking element 0 of every algebra is not parametric: the
    # target is registered only up to isomorphism, as the free algebra on 2
    # points (raise point 2), and its two isomorphisms to that algebra
    # transport the family to different elements
    model = ip.Model(EXC, 2, range(3))
    comps = tuple(fm.FinSet(alg.size) for alg in model.algebras)
    poly = ip.PolySem(1, CSORT, comps, ((0,) * len(comps),))
    target = fm.Alg(EXC, 3, ((0,),))
    assert model.alg_index(target) is None
    with pytest.raises(ip.InterpError, match="depends on the isomorphism"):
        model.project_poly(poly, target, "X", TyVar(CSORT, "X"), ip.TypeEnv())(0)


def test_a_projection_at_an_algebra_isomorphic_to_no_registered_one_is_out_of_bound():
    # at bound 2 under E={e1,e2} the one registered algebra on 4 elements is
    # the free one on 2 points; encoding-props' sum of algebras 1 and 1 has 4
    # elements too, but its two raise points coincide, and no algebra on 5
    # elements is registered
    model = ip.Model(EXC2, 2, range(3))
    a, b = TyVar(CSORT, "A"), TyVar(CSORT, "B")
    total = model.interp_ctype(ip.type_env({}, {"A": model.algebras[1], "B": model.algebras[1]}),
                               enc.sum_type(CSORT, a, b))
    assert total.size == 4 and total.ops[0] == total.ops[1]
    comps = tuple(fm.FinSet(alg.size) for alg in model.algebras)
    poly = ip.PolySem(1, CSORT, comps, ((0,) * len(comps),))
    for target in (total, fm.Alg(EXC2, 5, ((0,), (1,)))):
        with pytest.raises(ip.OutOfBoundError, match=f"no registered algebra isomorphic to carrier size {target.size}"):
            model.project_poly(poly, target, "X", TyVar(CSORT, "X"), ip.TypeEnv())


def test_a_family_over_algebras_is_projected_only_at_an_algebra():
    model = ip.Model(IDM, 2)
    comps = tuple(fm.FinSet(alg.size) for alg in model.algebras)
    poly = ip.PolySem(1, CSORT, comps, ((0,) * len(comps),))
    with pytest.raises(ip.InterpError, match="not an algebra"):
        model.project_poly(poly, 2, "X", TyVar(CSORT, "X"), ip.TypeEnv())


def test_the_two_booleans_must_be_distinct():
    # with carriers of at most one element, [[1 + 1]] collapses to one point
    with pytest.raises(ip.InterpError, match="coincide"):
        ip.Model(IDM, 1).two_values()


def test_stoup_judgment_must_produce_a_computation_type():
    # synth does not validate the stoup itself, so a value-type stoup
    # reaches the conclusion check
    with pytest.raises(tc.TypingError, match="stoup judgment produced value type"):
        tc.synth((), ("x", TyVar(VSORT, "X")), Var("x"))


class FlippedRedexGenerator(rt.TermGenerator):
    """Wraps terms into type redexes of the sort their argument's kind does
    not pick: a value argument then meets a computation binder."""

    def _wrap(self, gamma, delta, t):
        t = super()._wrap(gamma, delta, t)
        if isinstance(t, TyApp) and isinstance(t.fn, TyLam):
            sort = VSORT if t.sort == CSORT else CSORT
            t = TyApp(sort, TyLam(sort, t.fn.binder, t.fn.body), t.arg)
        return t


def test_an_ill_typed_generated_term_raises():
    gen = FlippedRedexGenerator(2024)
    with pytest.raises(rt.GeneratorError, match="does not typecheck"):
        for _ in range(200):
            gen.random_judgment()
