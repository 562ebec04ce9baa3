"""One registered algebra per isomorphism class, and the full enumeration as
its oracle.

The graph of an algebra isomorphism is an admissible relation, so a
parametric family's component at a copy of an algebra is the transport of
its component at the algebra: a model over one algebra per class gives
every type as many elements as the model over every enumerated algebra, and
every suite the same verdict.  ``_full`` builds that second model, as the
``full_enumeration`` fixture does for a whole test.
"""

import json
from itertools import permutations
from math import factorial

import pytest

from polyeff import cli
from polyeff import finmodel as fm
from polyeff import interp as ip
from polyeff import paramlab as pl
from polyeff.kernel import free_type_vars

EXC = fm.MonadSpec("exception", ("e",))
EXC2 = fm.MonadSpec("exception", ("e1", "e2"))
POW = fm.MonadSpec("powerset")
IDM = fm.MonadSpec("identity")
MONADS = {"exception": EXC, "two-exceptions": EXC2, "identity": IDM, "powerset": POW}


def _isos(a: fm.Alg, b: fm.Alg) -> list:
    """The isomorphisms a -> b in lexicographic order, by a scan of every
    permutation of the carrier, constants pinned or not; an ``OutOfBoundError``
    where the permutations pass ``ITER_CAP``."""
    if a.size != b.size:
        return []
    if factorial(a.size) > ip.ITER_CAP:
        raise ip.OutOfBoundError(f"{a.size}! permutations")
    return [perm for perm in permutations(range(a.size)) if fm.is_homomorphism(perm, a, b)]


def _class_disagreements(model: ip.Model) -> list:
    """How ``model``'s algebras fail to be one per isomorphism class of the
    enumerated algebras and the free algebras it was built with."""
    bad = [("isomorphic", i, j) for i, a in enumerate(model.algebras) for j, b in enumerate(model.algebras)
           if i < j and _isos(a, b)]
    for alg in fm.enumerate_algebras(model.monad, model.bound, ip.ITER_CAP):
        matches = [i for i, b in enumerate(model.algebras) if _isos(alg, b)]
        if len(matches) != 1:
            bad.append(("enumerated", alg, matches))
    return bad


@pytest.mark.parametrize("name, bound", [(name, bound) for name in MONADS for bound in range(4)] + [("powerset", 4)])
def test_the_model_registers_one_algebra_per_isomorphism_class(name, bound):
    monad = MONADS[name]
    model = ip.Model(monad, bound, range(bound + 1))
    assert _class_disagreements(model) == []
    listed = fm.enumerate_algebras(monad, bound, ip.ITER_CAP)
    free = {size: model.free_algebra(size) for size in range(bound + 1)}
    for size, (idx, alg, eta) in free.items():
        assert (alg, eta) == fm.free_algebra(monad, size)  # T A with its own labels
        assert model.algebras[idx] is alg
    # every other class is kept by its first algebra in the listing's
    # lexicographic order, which is its canonical form
    for alg in model.algebras:
        if all(alg is not a for _, a, _ in free.values()):
            assert fm.canonical_form(alg) is alg
            assert next(a for a in listed if _isos(a, alg)) is alg


@pytest.mark.parametrize("name", MONADS)
def test_a_canonical_form_is_the_least_relabelling(name):
    for alg in fm.enumerate_algebras(MONADS[name], 3, ip.ITER_CAP):
        copies = {perm: fm.relabel(alg, perm) for perm in permutations(range(alg.size))}
        assert all(perm in _isos(alg, copy) for perm, copy in copies.items())
        assert fm.canonical_form(alg) is min(copies.values(), key=lambda a: a.ops)


# ---------------------------------------------------------------------------
# the model oracle


def _full(build):
    """``build()`` with every enumerated algebra registered."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fm, "canonical_form", lambda alg: alg)
        return build()


def _size_disagreements(model: ip.Model, full: ip.Model) -> list:
    """Each type of the identity-extension battery and binding of its free
    variables to the full model's objects at which the two models give the
    type domains of different sizes."""
    bad = []
    for ty in pl.identity_extension_battery():
        for env in pl.type_envs(full, pl.env_names(free_type_vars(ty))):
            sizes = model.interp_vtype(env, ty).size, full.interp_vtype(env, ty).size
            if sizes[0] != sizes[1]:
                bad.append((str(ty), env, sizes))
    return bad


def _counts(config: fm.ModelConfig) -> dict:
    return pl.verify_parametric_counts(pl.build_model(config, range(3)), pl.build_model(config, ())).counts


def _verdicts(capsys, monad: str) -> tuple:
    """``verify all``'s exit code, each report's theorem and status, and each
    suite that ended out of bound."""
    code = cli.main(["--monad", monad, "verify", "all", "--format", "json"])
    out, err = capsys.readouterr()
    reports = [(rep["theorem-id"], rep["status"]) for rep in map(json.loads, out.splitlines())]
    return code, reports, [line.split(":")[0] for line in err.splitlines()]


@pytest.mark.parametrize("monad", ["exception", "identity", "powerset"])
def test_the_representatives_model_agrees_with_the_full_enumeration(capsys, monad):
    config = fm.ModelConfig(monad, ("e",) if monad == "exception" else (), 2)
    model = pl.build_model(config, ())
    full = _full(lambda: pl.build_model(config, ()))
    # an identity algebra is its carrier, one per size, so there the two agree
    assert (len(model.algebras) < len(full.algebras)) == (monad != "identity")
    assert _class_disagreements(model) == []
    assert _size_disagreements(model, full) == []
    assert _counts(config) == _full(lambda: _counts(config))
    assert _verdicts(capsys, monad) == _full(lambda: _verdicts(capsys, monad))


@pytest.mark.parametrize("plant", ["kept-twice", "dropped"])
def test_the_model_oracle_catches_a_class_kept_twice_and_a_class_dropped(monkeypatch, plant):
    # kept twice: the copy of the pointed set on 2 points whose point is 1 is
    # its own class; dropped: the pointed sets on 2 points share the class of
    # the one on 1 point, so none of them is registered
    config = fm.ModelConfig()
    full = _full(lambda: pl.build_model(config, ()))
    canonical, copy, one = fm.canonical_form, fm.Alg(EXC, 2, ((1,),)), fm.Alg(EXC, 1, ((0,),))
    planted = {"kept-twice": lambda alg: alg if alg is copy else canonical(alg),
               "dropped": lambda alg: one if alg.size == 2 else canonical(alg)}[plant]
    monkeypatch.setattr(fm, "canonical_form", planted)
    model = pl.build_model(config, ())
    assert len(model.algebras) == {"kept-twice": 3, "dropped": 1}[plant]
    assert _class_disagreements(model)
    if plant == "dropped":  # a quantifier over algebras misses the class's families too
        assert _size_disagreements(model, full)


# ---------------------------------------------------------------------------
# the class lookup


def _copies(alg: fm.Alg) -> set:
    """``alg`` relabelled by every permutation of its carrier up to 5 elements,
    past that by its cyclic shifts and their reversals."""
    n = alg.size
    perms = permutations(range(n)) if n <= 5 else [
        p for k in range(n) for p in ([(x + k) % n for x in range(n)], [(k - x) % n for x in range(n)])]
    return {fm.relabel(alg, perm) for perm in perms}


def _scanned(model: ip.Model, alg: fm.Alg):
    """The registered algebra isomorphic to ``alg`` and its isomorphisms to it,
    by the exhaustive scan; an ``OutOfBoundError`` where a hom space passes the cap."""
    try:
        found = [(i, isos) for i, b in enumerate(model.algebras) if (isos := _isos(b, alg))]
    except ip.OutOfBoundError:
        return ip.OutOfBoundError
    assert len(found) <= 1  # one registered algebra per class
    return found[0] if found else (None, [])


def _lookup_disagreements(model: ip.Model) -> tuple[list, set]:
    """Each relabelled copy of an enumerated algebra, of one a size past the
    bound (most isomorphic to no registered algebra) where that listing fits,
    or of a registered free algebra past the bound, for which
    ``representative`` and the scan differ; and the sizes of the copies
    whose lookup is out of bound."""
    try:
        listed = fm.enumerate_algebras(model.monad, model.bound + 1, ip.ITER_CAP)
    except ip.OutOfBoundError:
        listed = fm.enumerate_algebras(model.monad, model.bound, ip.ITER_CAP)
    past = [model.free_algebra(size)[1] for size in range(model.bound + 1)]
    copies = set().union(*map(_copies, listed), *(_copies(alg) for alg in past if alg.size > model.bound))
    bad, unreached = [], set()
    for copy in sorted(copies, key=lambda a: (a.size, a.ops)):
        try:
            got = model.representative(copy)
        except ip.OutOfBoundError:
            got = ip.OutOfBoundError
            unreached.add(copy.size)
        if got != _scanned(model, copy):
            bad.append((copy, got))
    return bad, unreached


LOOKUPS = [(name, bound) for name in MONADS for bound in range(4)] + [("powerset", 4)]


@pytest.mark.parametrize("name, bound", LOOKUPS)
def test_the_class_lookup_agrees_with_the_isomorphism_scan(name, bound):
    bad, unreached = _lookup_disagreements(ip.Model(MONADS[name], bound, range(bound + 1)))
    assert bad == []
    # isomorphisms are listed among bijections: only powerset's free algebra
    # on 4 points, with 15! candidates, is past the cap
    assert unreached == ({15} if (name, bound) == ("powerset", 4) else set())


def test_a_projection_at_a_copy_of_a_free_algebra_past_the_hom_space_cap_is_computed(capsys):
    # the structure of !3 under the powerset monad is a copy of the free
    # algebra on 3 points: 7^7 maps to it, but 6 isomorphisms among 7!
    # bijections, so the projection is transported, not out of bound
    code = cli.main(["--monad", "powerset", "--bound", "3", "eval", "(Fun ^X => fun x:^X => x) @[!3]"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith("(index 800667 of 823543)")  # the identity on 7 elements


@pytest.mark.parametrize("name, bound", [("two-exceptions", 2), ("two-exceptions", 3), ("powerset", 3)])
def test_the_lookup_oracle_catches_the_first_algebra_of_the_size(monkeypatch, name, bound):
    # each of these models registers two classes on some carrier size
    def first_of_size(self, alg):
        idx = next((i for i, b in enumerate(self.algebras) if b.size == alg.size), None)
        return (idx, _isos(self.algebras[idx], alg)) if idx is not None else (None, [])

    monkeypatch.setattr(ip.Model, "representative", first_of_size)
    assert _lookup_disagreements(ip.Model(MONADS[name], bound, range(bound + 1)))[0]
