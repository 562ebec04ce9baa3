"""The seeded judgment generator: determinism, well-typedness and the
typing rules its corpora cover."""

import functools
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from polyeff import typecheck as tc
from polyeff.kernel import (
    CSORT, VSORT, App, Arrow, Forall, Kind, Lam, LinLam, TyApp, TyLam, TyVar, Var, alpha_eq, classify_type,
)
from polyeff.randterms import TermGenerator


def test_generation_is_deterministic():
    a = [TermGenerator(5).random_judgment() for _ in range(20)]
    b = [TermGenerator(5).random_judgment() for _ in range(20)]
    assert a == b


def test_generated_judgments_typecheck():
    gen = TermGenerator(1)
    for _ in range(60):
        j = gen.random_judgment()
        ty = tc.typecheck(j)
        assert ty == j.ascription or tc.alpha_eq(ty, j.ascription)


def test_generator_covers_the_stoup():
    gen = TermGenerator(2)
    js = [gen.random_judgment() for _ in range(60)]
    with_stoup = [j for j in js if j.delta is not None]
    assert with_stoup and len(with_stoup) < len(js)
    for j in with_stoup:
        assert classify_type(j.ascription) is Kind.COMPUTATION


def test_subst_samples_have_valid_premises():
    gen = TermGenerator(3)
    for part in (1, 2):
        for _ in range(15):
            s = gen.random_subst_sample(part)
            if part == 1:
                got = tc.synth(s.gamma + ((s.x, s.a),), s.delta, s.t)
            else:
                got = tc.synth(s.gamma, (s.x, s.a), s.t)
            assert got is not None


@pytest.mark.parametrize("sort", [pytest.param(VSORT, id="VVar-ForallV"), pytest.param(CSORT, id="CVar-ForallC")])
@pytest.mark.parametrize("seed", range(5))
def test_a_type_abstraction_renames_a_binder_free_in_the_context(seed, sort):
    # the goal's binder X is free in the context, so the abstraction binds a
    # fresh name; the term must still typecheck to the goal
    gamma = (("x", TyVar(sort, "X")),)
    goal = Forall(sort, "X", Arrow(TyVar(sort, "X"), TyVar(sort, "X")))
    t = TermGenerator(seed)._try("tylam", None, gamma, None, goal, 3)
    assert t is not None and t.binder != "X"
    assert alpha_eq(tc.synth(gamma, None, t), goal)


def args_of(t):
    """The type arguments of every type application in ``t``."""
    if isinstance(t, TyApp):
        yield t.arg
        yield from args_of(t.fn)
    elif isinstance(t, App):
        yield from args_of(t.fn)
        yield from args_of(t.arg)
    elif isinstance(t, (Lam, LinLam, TyLam)):
        yield from args_of(t.body)


def test_interp_safe_mode_restricts_type_arguments():
    gen = TermGenerator(4, interp_safe=True)
    for _ in range(40):
        j = gen.random_judgment()
        for arg in args_of(j.subject):
            assert isinstance(arg, TyVar)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32), interp_safe=st.booleans())
def test_any_seed_gives_checked_judgments_and_samples(seed, interp_safe):
    gen = TermGenerator(seed, interp_safe=interp_safe)
    for _ in range(3):
        j = gen.random_judgment()
        assert alpha_eq(tc.typecheck(j), j.ascription)
        if interp_safe:
            assert all(isinstance(arg, TyVar) for arg in args_of(j.subject))
    for part in (1, 2):
        sm = gen.random_subst_sample(part)
        if part == 1:
            tc.synth(sm.gamma + ((sm.x, sm.a),), sm.delta, sm.t)
            assert alpha_eq(tc.synth(sm.gamma, None, sm.s), sm.a)
        else:
            tc.synth(sm.gamma, (sm.x, sm.a), sm.t)
            assert alpha_eq(tc.synth(sm.gamma, sm.delta, sm.s), sm.a)


# -- rule coverage ------------------------------------------------------------

ROUTES = ("->", "-> carrying the stoup", "-o with the stoup in the argument", "-o", "redex")
REDEXES = ("Lam redex", "LinLam redex", "TyLamV redex", "TyLamC redex")


def former(t) -> str:
    """The name of ``t``'s former, a type abstraction's or application's
    with its sort: ``TyLamV``, ``TyAppC``."""
    name = type(t).__name__
    return name + ("V" if t.sort == VSORT else "C") if isinstance(t, (TyLam, TyApp)) else name


def rule_counts(judgments) -> Counter:
    """How often each term former, each application route and each kind of
    redex occurs.

    An application's route follows ``typecheck``: the type of its head and
    the side the stoup goes to; a head that is not a variable applied to
    arguments makes it a redex.  A redex's kind is its head: ``Lam`` or
    ``LinLam`` under an application, ``TyLamV``/``TyLamC`` under a type
    application of its sort."""
    counts = Counter()

    def walk(gamma, delta, t):
        counts[former(t)] += 1
        if isinstance(t, Lam):
            walk(gamma + ((t.var, t.ann),), delta, t.body)
        elif isinstance(t, LinLam):
            walk(gamma, (t.var, t.ann), t.body)
        elif isinstance(t, TyLam):
            walk(gamma, delta, t.body)
        elif isinstance(t, TyApp):
            if isinstance(t.fn, TyLam) and t.fn.sort == t.sort:
                counts[f"{former(t.fn)} redex"] += 1
            walk(gamma, delta, t.fn)
        elif isinstance(t, App):
            if isinstance(t.fn, (Lam, LinLam)):
                counts[f"{type(t.fn).__name__} redex"] += 1
            side = tc.route_stoup(delta, t.fn, t.arg)
            head = t.fn
            while isinstance(head, (App, TyApp)):
                head = head.fn
            if not isinstance(head, Var):
                counts["redex"] += 1
            elif isinstance(tc.synth(gamma, delta if side == "fn" else None, t.fn), Arrow):
                counts["-> carrying the stoup" if side == "fn" else "->"] += 1
            else:
                counts["-o with the stoup in the argument" if side == "arg" else "-o"] += 1
            walk(gamma, delta if side == "fn" else None, t.fn)
            walk(gamma, delta if side == "arg" else None, t.arg)

    for j in judgments:
        walk(j.gamma, j.delta, j.subject)
    return counts


@functools.cache
def seed_corpus(seed, interp_safe):
    """The judgments and substitution samples verify_metatheory (200 and 100)
    or verify_abstraction (100 ``interp_safe`` judgments, no samples) draws at ``seed``."""
    gen = TermGenerator(seed, interp_safe=interp_safe)
    judgments = [gen.random_judgment() for _ in range(100 if interp_safe else 200)]
    if interp_safe:
        return judgments, []
    return judgments, [gen.random_subst_sample(part) for part in (1, 2) for _ in range(50)]


def corpus_digest(seed, interp_safe):
    judgments, samples = seed_corpus(seed, interp_safe)
    return hashlib.sha256("\n".join(map(repr, judgments + samples)).encode()).hexdigest()[:16]


# seed -> (metatheory digest, abstraction digest), recorded while the generator
# still drew through random.Random's choice, randint and shuffle
CORPUS_DIGESTS = {
    1: ("6cf66c9655d91d7e", "58ca415e1fa9b2a9"),
    2: ("ee73cb0f3afb28da", "1caf3a930be5f73d"),
    3: ("2cccc65c5952d816", "bc3cf6a7da9a7570"),
    4: ("452067f78e82497d", "867778fccac44d8c"),
    5: ("1889c1f3067fa01e", "0b48133b2c5b24bd"),
    6: ("3ebaa5d591c2b7ce", "7e3101fbf35f2ce6"),
    7: ("8e7d5807afd6ac06", "60009af913b7ad2d"),
    8: ("01a5d8eab9b9f79a", "0b0210a1e5e0fcb8"),
    9: ("8cd6635054792448", "bcfe4f792c855dde"),
    10: ("419d313545b5518a", "8e9a2a3af66133b8"),
    11: ("f8d7038a40dab218", "a4c775bbf6c6054b"),
    12: ("0aaaeafc3c1fa108", "acf1b1f61e6dbde6"),
    13: ("044f7e68c79bac1b", "6062041f10c3d98a"),
    14: ("7d61616e7aebcb01", "891ee547e9e1e587"),
    15: ("4a2ede433cc0b034", "34e24d13d5298017"),
    16: ("35e023cab2f7d8d5", "5a5e65e1dcb341e4"),
    17: ("c4e6a2eba68952ab", "36ad74e9e981a91c"),
    18: ("cbe1df234febe68a", "a1d8673ca90cf07b"),
    19: ("45f61cb73e08c0f0", "d2921bb329db967c"),
    20: ("4363f75b1c69dce7", "a108026ee79168ab"),
    2024: ("3ae47dcf5c59ae06", "69ca2d2addcb2c1f"),
}


@pytest.mark.parametrize("seed", CORPUS_DIGESTS)
def test_the_seeded_corpora_are_pinned_draw_for_draw(seed):
    assert (corpus_digest(seed, False), corpus_digest(seed, True)) == CORPUS_DIGESTS[seed]


DRAWS = st.one_of(
    st.tuples(st.just("choice"), st.integers(1, 70)),
    st.tuples(st.just("randint"), st.integers(0, 70)),
    st.tuples(st.just("shuffle"), st.integers(0, 12)),
    st.tuples(st.just("random"), st.just(0)),
)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**64), draws=st.lists(DRAWS, max_size=30))
def test_the_owned_draws_match_the_stdlib_methods(seed, draws):
    # a choice is seq[_below(len(seq))] and randint(0, n) is _below(n + 1)
    gen, ref = TermGenerator(seed), random.Random(seed)
    for kind, n in draws:
        seq = list(range(n))
        if kind == "choice":
            assert seq[gen._below(n)] == ref.choice(seq)
        elif kind == "randint":
            assert gen._below(n + 1) == ref.randint(0, n)
        elif kind == "shuffle":
            mine = seq[:]
            gen._shuffle(mine)
            ref.shuffle(seq)
            assert mine == seq
        else:
            assert gen._random() == ref.random()


@pytest.mark.parametrize("n", [0, -2])
def test_an_empty_draw_raises_as_an_empty_choice_does(n):
    # getrandbits(0) is always 0, so a draw from range(0) would loop for ever
    with pytest.raises(IndexError):
        TermGenerator(1)._below(n)


# every seed in 1-20 and 2024 whose two corpora hold every former, route and kind of redex
COVERED_SEEDS = (*range(1, 13), 14, *range(16, 21), 2024)


@pytest.mark.parametrize("seed", COVERED_SEEDS)
@pytest.mark.parametrize("interp_safe", [False, True])
def test_default_seed_corpus_covers_every_rule(seed, interp_safe):
    counts = rule_counts(seed_corpus(seed, interp_safe)[0])
    formers = ("Var", "Lam", "LinLam", "App", "TyLamV", "TyLamC", "TyAppV", "TyAppC")
    missing = [k for k in formers + ROUTES + REDEXES if not counts[k]]
    assert not missing, dict(counts)


def test_the_metatheory_corpus_costs_few_goals(monkeypatch):
    # a redex is wrapped around a grown term, never searched for, so the
    # seed-2024 metatheory corpus (200 judgments and 100 substitution samples)
    # takes few term_for calls
    calls = Counter()
    term_for = TermGenerator.term_for

    def counted(self, *args):
        calls["term_for"] += 1
        return term_for(self, *args)

    monkeypatch.setattr(TermGenerator, "term_for", counted)
    gen = TermGenerator(2024)
    [gen.random_judgment() for _ in range(200)]
    [gen.random_subst_sample(part) for part in (1, 2) for _ in range(50)]
    assert calls["term_for"] <= 10_000, calls
