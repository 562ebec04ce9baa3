"""Hash-consed types and interned environments.

Structurally equal types and environments must be one object, so the
interpretation caches can key on them by identity.
"""

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from polyeff import finmodel as fm
from polyeff import interp as ip
from polyeff import kernel
from polyeff.kernel import (
    CSORT,
    VSORT,
    Arrow,
    Forall,
    Kind,
    Lolli,
    TyVar,
    free_type_var_keys,
    free_type_vars,
)
from polyeff.randterms import TermGenerator

EXC = fm.MonadSpec("exception", ("e",))


def rebuild(t):
    """A fresh construction of ``t``, node by node."""
    if isinstance(t, TyVar):
        return TyVar(t.sort, t.name)
    if isinstance(t, (Arrow, Lolli)):
        return type(t)(rebuild(t.dom), rebuild(t.cod))
    return Forall(t.sort, t.binder, rebuild(t.body))


def reference_free_vars(t) -> set:
    """Free variables as (sort, name), by a plain uncached walk."""
    if isinstance(t, TyVar) and t.sort == VSORT:
        return {("v", t.name)}
    if isinstance(t, TyVar) and t.sort == CSORT:
        return {("c", t.name)}
    if isinstance(t, (Arrow, Lolli)):
        return reference_free_vars(t.dom) | reference_free_vars(t.cod)
    sort = "v" if t.sort == VSORT else "c"
    return reference_free_vars(t.body) - {(sort, t.binder)}


types = st.builds(
    lambda seed, depth, want: TermGenerator(seed).random_type(depth, want),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.sampled_from([None, Kind.VALUE, Kind.COMPUTATION]),
)


@settings(max_examples=200, deadline=None)
@given(types)
def test_rebuilt_type_is_the_same_object(t):
    assert rebuild(t) is t
    assert hash(rebuild(t)) == hash(t)


@settings(max_examples=200, deadline=None)
@given(types)
def test_cached_free_vars_match_an_uncached_walk(t):
    expected = reference_free_vars(t)
    sorts = {VSORT: "v", CSORT: "c"}
    assert {(sorts[v.sort], v.name) for v in free_type_vars(t)} == expected
    assert free_type_var_keys(t) == expected


def test_types_are_immutable():
    with pytest.raises(AttributeError):
        Arrow(TyVar(VSORT, "X"), TyVar(VSORT, "X")).dom = TyVar(VSORT, "Y")


def test_copies_are_interned_and_unused_values_are_freed():
    for make in (
        lambda: Forall(VSORT, "Z9", Arrow(TyVar(VSORT, "Z9"), TyVar(CSORT, "P"))),
        lambda: ip.type_env({"Z9": fm.FinSet(1)}),
        lambda: fm.FinSet(99),
        lambda: fm.MonadSpec("exception", ("Z9",)),
        lambda: fm.Alg(fm.MonadSpec("exception", ("Z9",)), 99, ((0,),)),
    ):
        t = make()
        assert make() is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        key = (type(t), *(getattr(t, f) for f in t.__match_args__))
        del t
        gc.collect()
        assert key not in kernel._INTERNED
        del key  # it holds the fields, and with them any subterms
        gc.collect()
        assert not any("Z9" in key for key in kernel._INTERNED)


def test_environments_are_interned():
    a, b = fm.FinSet(1), fm.FinSet(2)
    env = ip.TypeEnv().set(ip.VSORT, "X", a).set(ip.VSORT, "Y", b)
    assert env is ip.type_env({"Y": fm.FinSet(2), "X": fm.FinSet(1)})
    assert env.restrict(frozenset({(ip.VSORT, "X")})) is ip.TypeEnv().set(ip.VSORT, "X", a)
    rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(ip.VSORT, "X", a, b, (0b10,))
    again = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(ip.VSORT, "X", a, b, (0b10,))
    assert rho is again
    assert ip.diag_relenv(env) is ip.diag_relenv(ip.type_env({"X": a, "Y": b}))


def test_relation_carrier_check_runs_for_every_distinct_binding():
    a, b = fm.FinSet(1), fm.FinSet(2)
    empty = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv())
    empty.set(ip.VSORT, "X", a, b, (0b10,))  # {(0, 1)}
    with pytest.raises(ip.InterpError, match="escapes its carriers"):
        empty.set(ip.VSORT, "X", a, b, (0b01, 0b01))  # row 1 is past the left carrier
    with pytest.raises(ip.InterpError, match="escapes its carriers"):
        empty.set(ip.VSORT, "X", a, b, (0b100,))  # bit 2 is past the right carrier


def test_restricting_to_every_key_makes_no_reference_cycle():
    # built with type_env rather than .set(), whose memo in the root
    # environment would keep the result alive
    gc.disable()
    try:
        env = ip.type_env({"Xcycle": fm.FinSet(2)}, {"Pcycle": fm.Alg(EXC, 1, ((0,),))})
        rho = ip.diag_relenv(env)
        keys = frozenset(key for key, _ in env.items)
        assert env.restrict(keys) is env and rho.restrict(keys) is rho
        env_ref, rho_ref = weakref.ref(env), weakref.ref(rho)
        del env, rho
        assert rho_ref() is None and env_ref() is None
    finally:
        gc.enable()


def test_cache_keys_are_shared_across_equal_environments():
    model = ip.Model(EXC, 2)
    ty = Arrow(TyVar(VSORT, "X"), TyVar(VSORT, "X"))
    env1 = ip.type_env({"X": fm.FinSet(2), "Y": fm.FinSet(0)})
    env2 = ip.type_env({"X": fm.FinSet(2), "Y": fm.FinSet(1)})
    assert model.interp_vtype(env1, ty) is model.interp_vtype(env2, ty)
    assert len(model._vty) == 2  # X -> X and X
