"""Desk-scale verification of the model's structural theorems.

Each verifier checks one named property exhaustively at a configured
bound and returns a ``VerificationReport``: monadic let laws, the free-
algebra universal property (and its cardinality consequence for ``!A``),
the four characterisations of the relational lifting, the
correspondence between algebraic operations, generic effects and
parametric elements, handler naturality, and the universal properties
of the definable computation types.

Verified statuses are deterministic given the configuration; every
counterexample report carries a witness that re-checks as a genuine
violation when replayed.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from functools import cache, reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from . import encodings as enc
from . import finmodel as fm
from . import interp as ip
from . import typecheck as tc
from .kernel import (
    CSORT,
    VSORT,
    App,
    Arrow,
    Forall,
    Judgment,
    Lam,
    LinLam,
    Lolli,
    TyApp,
    TyLam,
    TyVar,
    TypeExpr,
    Var,
    alpha_eq,
    classify_type,
    free_type_vars,
    free_type_vars_term,
)
from .randterms import TermGenerator
from .surface import parse_term, parse_type


@dataclass
class VerificationReport:
    theorem_id: str
    config: dict
    bound: int
    status: str = "verified"  # verified | counterexample | out-of-bound
    witness: Optional[dict] = None
    counts: Optional[dict] = None
    runtime_ms: float = 0.0

    def to_json(self, include_runtime: bool = True) -> str:
        data = {
            "theorem-id": self.theorem_id,
            "config": self.config,
            "bound": self.bound,
            "status": self.status,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        if self.counts is not None:
            data["counts"] = self.counts
        if include_runtime:
            data["runtime-ms"] = round(self.runtime_ms, 1)
        return json.dumps(data, sort_keys=True)


def build_model(config: fm.ModelConfig, free_sizes: Iterable[int]) -> ip.Model:
    """The configured model with the free algebras on the sets of sizes
    ``free_sizes``."""
    return ip.Model(config.monad_spec(), config.bound, free_sizes)


def _report(theorem: str, config: dict, bound: int, t0: float, failures: list,
            counts: Optional[dict] = None) -> VerificationReport:
    """The report of a check started at ``t0``: a counterexample with the
    first failure as its witness, or verified."""
    rep = VerificationReport(theorem, config, bound, counts=counts,
                             runtime_ms=(time.perf_counter() - t0) * 1000)
    if failures:
        rep.status = "counterexample"
        rep.witness = failures[0] if isinstance(failures[0], dict) else {"detail": str(failures[0])}
    return rep


def _model_report(theorem: str, model: ip.Model, t0: float, failures: list,
                  counts: Optional[dict] = None) -> VerificationReport:
    """``_report`` for a check over ``model``, configured by its monad,
    exceptions and free algebras at its bound."""
    cfg = {
        "monad": model.monad.key,
        "E": list(model.monad.exceptions),
        "free-algebras": bool(model._free),
    }
    return _report(theorem, cfg, model.bound, t0, failures, counts)


def _out_of_bound(theorem: str, model: ip.Model, t0: float, detail: str) -> VerificationReport:
    rep = _model_report(theorem, model, t0, [])
    rep.status = "out-of-bound"
    rep.witness = {"detail": detail}
    return rep


# ---------------------------------------------------------------------------
# environments, and semantic equality over all of them


def _envs(root, names: Sequence[tuple[str, str]], choices):
    """Every extension of ``root``, a ``TypeEnv`` or a ``RelEnv``, by
    ``set(sort, name, *c)`` for each ``(sort, name)`` of ``names`` and each
    ``c`` of ``choices(sort)``.  The walk is depth first with the last name
    varying fastest, the order of ``itertools.product`` over the choices.
    Each prefix is built once, and ``choices`` is asked again under each
    prefix, so a walk cut off by ``islice`` lists nothing past the cut."""
    if not names:
        yield root
        return
    (sort, name), rest = names[0], names[1:]
    for c in choices(sort):
        yield from _envs(root.set(sort, name, *c), rest, choices)


def type_envs(model: ip.Model, names: Sequence[tuple[str, str]]):
    """The type environments that bind ``names`` to the model's objects."""
    return _envs(ip.TypeEnv(), names, lambda sort: zip(model.objects(sort)))


def rel_envs(model: ip.Model, names: Sequence[tuple[str, str]]):
    """The relation environments that bind ``names``: each pair of objects
    with each admissible relation between them, listed when the walk
    reaches the pair."""
    def choices(sort):
        objs = model.objects(sort)
        return ((a, b, r) for (i, a), (k, b) in itertools.product(enumerate(objs), repeat=2)
                for r in model.rels_for_pair(sort, i, k))

    return _envs(ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()), names, choices)


def env_names(ftv) -> list[tuple[str, str]]:
    """The ``(sort, name)`` keys of the type variables ``ftv``: the value
    variables by name, then the computation variables by name."""
    return sorted(((v.sort, v.name) for v in ftv), key=lambda key: (key[0] == CSORT, key[1]))


def semantically_equal(
    model: ip.Model,
    gamma,
    delta,
    lhs,
    rhs,
    vnames: Sequence[str] = (),
    cnames: Sequence[str] = (),
) -> Optional[dict]:
    """Exhaustively compare two judgments' denotations; None, or a witness."""
    (ty_l, stage_l), (ty_r, stage_r) = model._compile(lhs, gamma, delta), model._compile(rhs, gamma, delta)
    if not alpha_eq(ty_l, ty_r):
        return {"detail": f"type mismatch: {ty_l} vs {ty_r}"}
    stage_l, stage_r = cache(stage_l), cache(stage_r)  # each side staged once per type environment
    bindings = list(gamma) + ([delta] if delta is not None else [])
    names = [(VSORT, n) for n in vnames] + [(CSORT, n) for n in cnames]
    for tyenv in type_envs(model, names):
        dom_sizes = [model.interp_vtype(tyenv, ty).size for _, ty in bindings]
        for values in itertools.product(*(range(n) for n in dom_sizes)):
            tmenv = {name: v for (name, _), v in zip(bindings, values)}
            lv, rv = stage_l(tyenv)(tmenv), stage_r(tyenv)(tmenv)
            if lv != rv:
                return {
                    "env": {n: v for n, v in tmenv.items()},
                    "types": str(tyenv.items),
                    "lhs": lv,
                    "rhs": rv,
                }
    return None


# ---------------------------------------------------------------------------
# monadic let laws


def verify_bang_laws(model: ip.Model) -> VerificationReport:
    """The three let laws: substitution, stoup identity, homomorphism exchange."""
    t0 = time.perf_counter()
    for a in model.sets:  # the let laws hold at A only with T A among the algebras
        model.free_algebra(a.size)
    ty_a, ty_b, ty_c = TyVar(VSORT, "A"), TyVar(CSORT, "B"), TyVar(CSORT, "C")
    bang_a = enc.encode_bang(ty_a)
    gamma_beta = (("t", ty_a), ("p", Arrow(ty_a, ty_b)))
    battery = []

    # substitution law: let x <= bang t in u  =  u[t/x]
    lhs = enc.elaborate_term(parse_term("let x <= bang t in p x"), gamma=gamma_beta)
    battery.append(("beta", gamma_beta, None, lhs, App(Var("p"), Var("t")), ("A",), ("B",)))
    lhs2 = enc.elaborate_term(parse_term("let x <= bang t in bang x"), gamma=gamma_beta)
    rhs2 = enc.elaborate_term(parse_term("bang t"), gamma=gamma_beta)
    battery.append(("beta-bang", gamma_beta, None, lhs2, rhs2, ("A",), ("B",)))

    # stoup identity: y = let x <= y in bang x, with y in the stoup at !A
    eta_rhs = enc.elaborate_term(parse_term("let x <= y in bang x"), delta=("y", bang_a))
    battery.append(("eta", (), ("y", bang_a), Var("y"), eta_rhs, ("A",), ()))

    # homomorphism exchange: u[let x <= s in t / y] = let x <= s in u[t/y]
    gamma_k = (("p", Arrow(ty_a, ty_b)), ("h", Lolli(ty_b, ty_c)))
    delta_k = ("z", bang_a)
    lhs_k = enc.elaborate_term(
        App(Var("h"), parse_term("let x <= z in p x")), gamma=gamma_k, delta=delta_k
    )
    rhs_k = enc.elaborate_term(
        parse_term("let x <= z in h (p x)"), gamma=gamma_k, delta=delta_k
    )
    battery.append(("kappa", gamma_k, delta_k, lhs_k, rhs_k, ("A",), ("B", "C")))

    failures = []
    for name, gamma, delta, lhs, rhs, vnames, cnames in battery:
        w = semantically_equal(model, gamma, delta, lhs, rhs, vnames, cnames)
        if w is not None:
            w["law"] = name
            failures.append(w)
    return _model_report("bang-laws", model, t0, failures, counts={"instances": len(battery)})


# ---------------------------------------------------------------------------
# free algebra

# the sizes of the sets A whose free algebras T A the free-algebra,
# rel-lifting and handler checks range over
CHECKED_SIZES = range(3)


def _mediating_homs(model: ip.Model, fa: fm.Alg, eta, f, b: fm.Alg) -> list:
    return [h for h in model._hom_tables(fa, b) if all(h[eta[x]] == f[x] for x in range(len(f)))]


def verify_free_algebra(model: ip.Model) -> VerificationReport:
    """Unique mediating homomorphisms out of T A for |A| in ``CHECKED_SIZES``,
    into every algebra of at most 3 elements, matching the let-based term."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    f_ty, bang_x = Arrow(TyVar(VSORT, "X"), TyVar(CSORT, "Y")), enc.encode_bang(TyVar(VSORT, "X"))
    gamma = (("f", f_ty),)
    mediator_ty, stage = model._compile(LinLam(
        "y", bang_x, enc.elaborate_term(parse_term("let x <= y in f x"), gamma=gamma, delta=("y", bang_x)),
    ), gamma, None)
    staged = cache(stage)  # staged once per type environment
    for a in CHECKED_SIZES:
        _, fa, eta = model.free_algebra(a)
        to_t, from_t = model.bang_bridge(a)
        for k, b in enumerate(model.algebras):
            if b.size > 3:
                continue
            for f in itertools.product(range(b.size), repeat=a):
                homs = _mediating_homs(model, fa, eta, f, b)
                checked += 1
                if len(homs) != 1:
                    failures.append({"a": a, "algebra": k, "f": list(f), "mediators": len(homs)})
                    continue
                # the unique mediator is the denotation of the let-based term
                tyenv = ip.type_env({"X": fm.FinSet(a)}, {"Y": b})
                fsem = model.interp_vtype(tyenv, f_ty)
                fval = fsem.encode(list(f))
                table = model.interp_vtype(tyenv, mediator_ty).table(staged(tyenv)({"f": fval}))
                concrete = homs[0]
                if any(table[from_t[z]] != concrete[z] for z in range(fa.size)):
                    failures.append({"a": a, "algebra": k, "f": list(f), "detail": "term mediator differs"})
    return _model_report("free-algebra", model, t0, failures, counts={"instances": checked})


def _fake_free_algebra(monad: fm.MonadSpec) -> tuple[fm.Alg, tuple[int, ...]]:
    """A non-free algebra standing in for T 2, with its would-be unit."""
    if monad.key == "identity":
        return fm.Alg(monad, 1), (0, 0)
    if monad.key == "exception":
        return fm.Alg(monad, 2, ((0,),) * monad.n_exc), (0, 1)
    return fm.Alg(monad, 2, ((0, 1, 1, 1),)), (0, 1)


def free_algebra_negative_control(model: ip.Model) -> VerificationReport:
    """Substituting a non-free algebra for T A must break unique mediation."""
    t0 = time.perf_counter()
    fake, eta = _fake_free_algebra(model.monad)
    for k, b in enumerate(model.algebras):
        if b.size > 3:
            continue
        for f in itertools.product(range(b.size), repeat=len(eta)):
            homs = _mediating_homs(model, fake, eta, f, b)
            if len(homs) != 1:
                witness = {"fake-carrier": fake.size, "algebra": k, "f": list(f),
                           "mediators": len(homs)}
                return _model_report("free-algebra-negative-control", model, t0, [witness])
    # no violation: a control that cannot fail here is out of bound, one
    # that could have failed and did not is reported verified (a failed control)
    idx, _ = model.representative(fake)
    if idx is not None and idx == model.representative(fm.free_algebra(model.monad, len(eta))[0])[0]:
        return _out_of_bound("free-algebra-negative-control", model, t0,
                             f"the stand-in algebra is isomorphic to the free algebra on {len(eta)} points")
    return _model_report("free-algebra-negative-control", model, t0, [])


def replay_negative_control(model: ip.Model, rep: VerificationReport) -> bool:
    """Re-check a negative-control witness as a genuine violation."""
    w = rep.witness or {}
    if "algebra" not in w:
        return False
    fake, eta = _fake_free_algebra(model.monad)
    b = model.algebras[w["algebra"]]
    homs = _mediating_homs(model, fake, eta, tuple(w["f"]), b)
    return len(homs) == w["mediators"] and len(homs) != 1


def verify_bang_cardinality(model: ip.Model, sizes: Sequence[int] = (0, 1, 2)) -> VerificationReport:
    """|[[!A]]| = |T A| with the projection-at-the-free-algebra bijection."""
    t0 = time.perf_counter()
    failures = []
    counts = {}
    for a in sizes:
        model.free_algebra(a)  # the count matches |T A| only with T A registered
        # [[!X]] at the name bang_bridge reads, so the two share one family search
        poly = model.interp_vtype(ip.TypeEnv().set(VSORT, "X", fm.FinSet(a)), enc.encode_bang(TyVar(VSORT, "X")))
        ta = model.monad.apply(a)
        counts[f"|A|={a}"] = poly.size
        if poly.size != ta:
            failures.append({"a": a, "families": poly.size, "TA": ta})
            continue
        try:
            model.bang_bridge(a)  # raises if the canonical map is not bijective
        except ip.InterpError as exc:
            failures.append({"a": a, "detail": str(exc)})
    return _model_report("bang-cardinality", model, t0, failures, counts=counts)


# ---------------------------------------------------------------------------
# relational lifting


def lifted_rel(model: ip.Model, r: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The lifting of R along eta-pairs: smallest admissible relation on T A x T B."""
    _, fa, eta_a = model.free_algebra(a)
    _, fb, eta_b = model.free_algebra(b)
    base = fm.rows_of(((eta_a[x], eta_b[y]) for x, y in fm.rel_pairs(r)), fa.size)
    return fm.admissible_closure(base, fa, fb)


def verify_rel_lifting(model: ip.Model) -> VerificationReport:
    """Four characterisations of the lifting agree for every relation R:
    the admissible closure of R's eta-pairs, [[!X]] at R moved along the
    bijections to T A and T B, the closure of the image of R's span under T,
    and the adjoint one, (!R -o Q)(f, g) iff (R -> Q)(f.eta, g.eta) for every
    admissible Q between algebras within the bound."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    bang_x = enc.encode_bang(TyVar(VSORT, "X"))
    bounded = [i for i, alg in enumerate(model.algebras) if alg.size <= model.bound]
    # each Q between bounded algebras, with the complement of its bits x*|C_j| + y
    outside = {(i, j): [(q, ~reduce(or_, (row << x * model.algebras[j].size for x, row in enumerate(q)), 0))
                        for q in model.rels_for_pair(CSORT, i, j)] for i in bounded for j in bounded}
    for a in CHECKED_SIZES:
        for b in CHECKED_SIZES:
            _, fa, eta_a = model.free_algebra(a)
            _, fb, eta_b = model.free_algebra(b)
            to_a, _ = model.bang_bridge(a)
            to_b, _ = model.bang_bridge(b)
            for r in model.rels_for_pair(VSORT, a, b):
                checked += 1
                via_closure = lifted_rel(model, r, a, b)
                # polymorphic-definition lifting, moved along the bijections
                rho = ip.RelEnv(ip.TypeEnv(), ip.TypeEnv()).set(
                    VSORT, "X", fm.FinSet(a), fm.FinSet(b), r
                )
                view = model.interp_rel(rho, bang_x)
                via_interp = fm.rows_of(
                    ((to_a[p], to_b[q]) for p, q in view.pairs()), fa.size
                )
                # image of the functor applied to the span
                rl = fm.rel_pairs(r)
                p1 = [x for x, _ in rl]
                p2 = [y for _, y in rl]
                tp1 = model.monad.tmap(p1, len(rl), a)
                tp2 = model.monad.tmap(p2, len(rl), b)
                via_image = fm.admissible_closure(fm.rows_of(zip(tp1, tp2), fa.size), fa, fb)
                if not (via_closure == via_interp == via_image):
                    failures.append({
                        "a": a, "b": b, "R": rl,
                        "closure": fm.rel_pairs(via_closure),
                        "interp": fm.rel_pairs(via_interp),
                        "image": fm.rel_pairs(via_image),
                    })
                # adjoint characterisation: the images of !R under f x g and of
                # R under f.eta x g.eta, flattened like Q (with OR: two pairs
                # may meet in one bit), each lie in Q iff they miss outside(Q)
                bang_r = fm.rel_pairs(via_closure)
                eta_r = [(eta_a[x], eta_b[y]) for x, y in rl]
                for i in bounded:
                    for j in bounded:
                        n = model.algebras[j].size
                        images = [(f, g, reduce(or_, [1 << (f[z] * n + g[w]) for z, w in bang_r], 0),
                                   reduce(or_, [1 << (f[z] * n + g[w]) for z, w in eta_r], 0))
                                  for f in model._hom_tables(fa, model.algebras[i])
                                  for g in model._hom_tables(fb, model.algebras[j])]
                        for q, out in outside[i, j]:
                            for f, g, lhs, rhs in images:
                                checked += 1
                                if (lhs & out == 0) != (rhs & out == 0):
                                    failures.append({
                                        "a": a, "b": b, "R": rl, "Q": fm.rel_pairs(q),
                                        "algs": [i, j], "f": list(f), "g": list(g),
                                    })
    return _model_report("rel-lifting", model, t0, failures, counts={"instances": checked})


# ---------------------------------------------------------------------------
# algebraic operations / generic effects / parametric elements


def enumerate_natural_transformations(model: ip.Model, n: int) -> tuple[tuple[int, ...], ...]:
    """Families of n-ary operations natural in every registered homomorphism,
    one curried operation in ``[[^X -> ... -> ^X]]`` per algebra.  Naturality
    in ``h`` preserves its graph: the ``ip.link_test`` link ``(p, q)`` of two
    algebras meets the graphs of every ``h`` sending the arguments coded ``p``
    to those coded ``q``, and endomorphisms' links generate each component."""
    sizes = [alg.size for alg in model.algebras]
    links: dict = {}
    for (i, a), (j, b) in itertools.product(enumerate(model.algebras), repeat=2):
        pair = links[(i, j)] = {}
        try:
            homs = model._hom_tables(a, b)
        except ip.OutOfBoundError as exc:
            raise ip.OutOfBoundError(f"homomorphisms from algebra {i} on {sizes[i]} elements"
                                     f" to algebra {j} on {sizes[j]}: {exc}") from exc
        for h in homs:
            graph = tuple(1 << y for y in h)
            for args in itertools.product(range(sizes[i]), repeat=n):
                key = (fm.arg_code(args, sizes[i]), fm.arg_code([h[x] for x in args], sizes[j]))
                pair[key] = tuple(map(int.__and__, pair.get(key, graph), graph))
    tests = {(i, j): ip.link_test(pair, sizes[i], sizes[j]) for (i, j), pair in links.items()}
    return ip.pairwise_search([m ** m**n for m in sizes], lambda i, j, u, v: tests[(i, j)](u, v),
                              lambda i: ip._forward_check(sizes[i] ** n, sizes[i], links[(i, i)]))


def _generic_to_nt(model: ip.Model, comps, gen: int, n: int) -> tuple[int, ...]:
    """theta_B(args) = structure-map of B applied to T(args) at the effect."""
    fam = []
    for alg, comp in zip(model.algebras, comps):
        xi = fm.em_map_of(alg)
        fam.append(ip.op_index(
            comp, n, lambda args: xi[model.monad.tmap(list(args), n, alg.size)[gen]]))
    return tuple(fam)


def verify_algop_correspondence(model: ip.Model, n: int) -> VerificationReport:
    """Natural transformations, effects in T(n), and parametric elements agree."""
    t0 = time.perf_counter()
    fa_idx, fa, eta = model.free_algebra(n)
    failures = []
    tn = fa.size
    nts = enumerate_natural_transformations(model, n)
    poly = model.interp_vtype(ip.TypeEnv(), enc.nary_op_type(n))
    counts = {"natural-transformations": len(nts), "generic-effects": tn,
              "parametric-elements": poly.size}
    if not (len(nts) == tn == poly.size):
        failures.append({"detail": "cardinalities differ", **counts})
        return _model_report("algop-correspondence", model, t0, failures, counts=counts)

    # kappa -> theta: both searches index operations alike, so every
    # parametric family must itself be a natural transformation
    nt_set = set(nts)
    for f, fam in enumerate(poly.fams):
        if fam not in nt_set:
            failures.append({"detail": "family is not a natural transformation", "element": f})

    # gen -> theta -> gen roundtrip: evaluate at the free algebra on n
    gen_images = [_generic_to_nt(model, poly.comps, gen, n) for gen in range(tn)]
    for gen, fam in enumerate(gen_images):
        if fam not in nt_set:
            failures.append({"detail": "generic effect does not induce a transformation", "gen": gen})
            continue
        back = fam[fa_idx] // tn ** fm.arg_code(eta, tn) % tn  # the digit at the unit's code
        if back != gen:
            failures.append({"detail": "roundtrip differs", "gen": gen, "back": back})
    if set(gen_images) != nt_set:
        failures.append({"detail": "generic effects do not exhaust the transformations"})

    # every operation of the signature is natural in every homomorphism
    for name, arity in model.monad.operations:
        if arity == n and model.constant_family(name)[1] not in nt_set:
            failures.append({"detail": "operation fails naturality", "operation": name})
    return _model_report("algop-correspondence", model, t0, failures, counts=counts)


# ---------------------------------------------------------------------------
# handler


def _handle_table(model: ip.Model, a: int, e_idx: int):
    ta = model.monad.apply(a)
    raise_elt = a + e_idx
    return {(p, q): (q if p == raise_elt else p) for p in range(ta) for q in range(ta)}


def verify_handler(model: ip.Model) -> VerificationReport:
    """The exception handler is a homomorphism, natural, and parametric."""
    t0 = time.perf_counter()
    if model.monad.key != "exception":
        return _out_of_bound("handler", model, t0, "handler verification needs the exception monad")
    if not model.monad.exceptions:
        return _out_of_bound("handler", model, t0,
                             "handler verification needs a non-empty exception set (E = {})")
    failures = []
    checked = 0
    denotation_skipped = False
    for e_idx, e in enumerate(model.monad.exceptions):
        # the case split against the registered free algebra: the raise point
        # of e picks the second argument, a unit or another raise point the first
        for a in CHECKED_SIZES:
            tbl = _handle_table(model, a, e_idx)
            ta = model.monad.apply(a)
            _, fa, eta = model.free_algebra(a)
            points = set(eta) | {table[0] for table in fa.ops}
            for p in range(ta):
                for q in range(ta):
                    want = q if p == fa.ops[e_idx][0] else p if p in points else None
                    checked += 1
                    if tbl[(p, q)] != want:
                        failures.append({"law": "case-split", "e": e, "a": a, "p": p, "q": q})
        # homomorphism from the squared free algebra
        for a in CHECKED_SIZES:
            _, fa, _ = model.free_algebra(a)
            prod = fm.product_alg(fa, fa)
            tbl = _handle_table(model, a, e_idx)
            n = fa.size
            table = [tbl[(i // n, i % n)] for i in range(n * n)]
            checked += 1
            if not fm.is_homomorphism(table, prod, fa):
                failures.append({"law": "homomorphism", "e": e, "a": a})
        # naturality in the underlying set
        for a in CHECKED_SIZES:
            for b in CHECKED_SIZES:
                ha, hb = _handle_table(model, a, e_idx), _handle_table(model, b, e_idx)
                for f in itertools.product(range(b), repeat=a):
                    tf = model.monad.tmap(list(f), a, b)
                    for p in range(len(tf)):
                        for q in range(len(tf)):
                            checked += 1
                            if hb[(tf[p], tf[q])] != tf[ha[(p, q)]]:
                                failures.append({"law": "naturality", "e": e, "a": a, "b": b,
                                                 "f": list(f), "p": p, "q": q})
        # relation preservation against every lifted relation
        for a in CHECKED_SIZES:
            for b in CHECKED_SIZES:
                ha, hb = _handle_table(model, a, e_idx), _handle_table(model, b, e_idx)
                for r in model.rels_for_pair(VSORT, a, b):
                    br = lifted_rel(model, r, a, b)
                    br_pairs = fm.rel_pairs(br)
                    for p1, p2 in br_pairs:
                        for q1, q2 in br_pairs:
                            checked += 1
                            if not br[ha[(p1, q1)]] >> hb[(p2, q2)] & 1:
                                failures.append({"law": "parametricity", "e": e, "a": a, "b": b,
                                                 "R": fm.rel_pairs(r)})
        # extra assurance when tractable: the interpreted constant inhabits
        # its polymorphic type, by the definition of a parametric family (it is
        # related to itself), and agrees with the case-split table
        name = f"handle^{e}"
        try:
            comps, fam = model.constant_family(name)
            parametric = model.related_families(ip.diag_relenv(ip.TypeEnv()), model.constants[name])(fam, fam)
        except ip.OutOfBoundError:
            denotation_skipped = True
            continue
        except ip.InterpError as exc:
            failures.append({"law": "membership", "e": e, "detail": str(exc)})
            continue
        if not parametric:
            failures.append({"law": "membership", "e": e, "detail": "family is not parametric"})
            continue
        for a in CHECKED_SIZES[:model.bound + 1]:
            to_t, from_t = model.bang_bridge(a)
            comp = comps[a]
            i0, i1 = model.two_values()
            tbl = _handle_table(model, a, e_idx)
            for p in range(len(to_t)):
                for q in range(len(to_t)):
                    u_table = [0, 0]
                    u_table[i0], u_table[i1] = from_t[p], from_t[q]
                    u = comp.dom.encode(u_table)
                    got = to_t[comp.apply(fam[a], u)]
                    checked += 1
                    if got != tbl[(p, q)]:
                        failures.append({"law": "denotation", "e": e, "a": a, "p": p, "q": q})
    counts = {"instances": checked}
    if denotation_skipped:
        counts["denotation-check"] = "out-of-bound (concrete membership still checked)"
    return _model_report("handler", model, t0, failures, counts=counts)


# ---------------------------------------------------------------------------
# universal properties of the definable computation types


def verify_encoding_props(model: ip.Model) -> VerificationReport:
    """Initial object, binary coproducts, the wrapping isomorphism, and the
    function-space decomposition through ``!``.

    The decomposition at a 2-element set holds only with the free algebra
    on it registered, so the check asks for that algebra first.  Coproduct
    mediation is only unique once the enumeration contains algebras rich
    enough to cut non-standard families out of the encoded sum, so a sum
    isomorphic to no registered algebra makes the suite out of bound.
    """
    t0 = time.perf_counter()
    model.free_algebra(2)
    failures = []
    checked = 0

    # initiality of the empty computation type
    zero_ty = enc.zero_type(CSORT)
    zero_alg = model.interp_ctype(ip.TypeEnv(), zero_ty)
    for k, b in enumerate(model.algebras):
        homs = _mediating_homs(model, zero_alg, (), (), b)
        checked += 1
        if len(homs) != 1:
            failures.append({"law": "initiality", "algebra": k, "homs": len(homs)})

    # binary coproducts: unique mediation through the injections
    ty_a, ty_b = TyVar(CSORT, "A"), TyVar(CSORT, "B")
    oplus_ty = enc.sum_type(CSORT, ty_a, ty_b)
    inl = model._compile(LinLam("a", ty_a, enc.injection(0, ty_a, ty_b, Var("a"), CSORT)), (), None)
    inr = model._compile(LinLam("b", ty_b, enc.injection(1, ty_a, ty_b, Var("b"), CSORT)), (), None)
    small = [(i, a) for i, a in enumerate(model.algebras) if a.size <= model.bound]
    for ia, alg_a in small:
        for ib, alg_b in small:
            tyenv = ip.type_env({}, {"A": alg_a, "B": alg_b})
            try:
                sum_alg = model.interp_ctype(tyenv, oplus_ty)
            except ip.OutOfBoundError as exc:
                return _out_of_bound("encoding-props", model, t0, str(exc))
            # mediation is unique only if some registered algebra can stand
            # for the sum itself; otherwise the bound, not the law, decides
            if model.representative(sum_alg)[0] is None:
                return _out_of_bound(
                    "encoding-props", model, t0,
                    f"the encoded sum of algebras {ia} and {ib} has {sum_alg.size}"
                    " elements and is isomorphic to no registered algebra",
                )
            injections = sum((model.interp_vtype(tyenv, ty).table(stage(tyenv)({})) for ty, stage in (inl, inr)), ())
            for ic, alg_c in enumerate(model.algebras):
                for u in model._hom_tables(alg_a, alg_c):
                    for v in model._hom_tables(alg_b, alg_c):
                        meds = _mediating_homs(model, sum_alg, injections, u + v, alg_c)
                        checked += 1
                        if len(meds) != 1:
                            failures.append({"law": "coproduct", "algs": [ia, ib, ic],
                                             "u": list(u), "v": list(v), "mediators": len(meds)})

    # wrapping isomorphism for every algebra within the bound
    wrap = [model._compile(t, (), None) for t in enc.comp_iso_terms(ty_a)]
    for k, alg in [(i, a) for i, a in enumerate(model.algebras) if a.size <= model.bound]:
        tyenv = ip.type_env({}, {"A": alg})
        (fsem, fv), (bsem, bv) = ((model.interp_vtype(tyenv, ty), stage(tyenv)({})) for ty, stage in wrap)
        n = alg.size
        checked += 1
        if not all(bsem.apply(bv, fsem.apply(fv, x)) == x for x in range(n)):
            failures.append({"law": "wrap-iso-left", "algebra": k})
        wrapped = bsem.dom
        checked += 1
        if not all(fsem.apply(fv, bsem.apply(bv, w)) == w for w in range(wrapped.size)):
            failures.append({"law": "wrap-iso-right", "algebra": k})

    # function-space decomposition through !
    girard = [model._compile(t, (), None) for t in enc.girard_iso_terms(TyVar(VSORT, "A"), TyVar(CSORT, "B"))]
    for alg in model.algebras:
        tyenv = ip.type_env({"A": fm.FinSet(2)}, {"B": alg})
        (fsem, fv), (bsem, bv) = ((model.interp_vtype(tyenv, ty), stage(tyenv)({})) for ty, stage in girard)
        checked += 2
        if not all(fsem.apply(fv, bsem.apply(bv, g)) == g for g in range(fsem.cod.size)):
            failures.append({"law": "decomposition-left", "carrier": alg.size})
        if not all(bsem.apply(bv, fsem.apply(fv, f)) == f for f in range(bsem.cod.size)):
            failures.append({"law": "decomposition-right", "carrier": alg.size})
    return _model_report("encoding-props", model, t0, failures, counts={"instances": checked})


# ---------------------------------------------------------------------------
# monad laws and relation axioms


def verify_monad_laws(max_size: int = 4) -> VerificationReport:
    """Kleisli laws for all three monad configurations, exhaustively."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    specs = [
        fm.MonadSpec("identity"),
        fm.MonadSpec("exception", ("e",)),
        fm.MonadSpec("exception", ("e1", "e2")),
        fm.MonadSpec("powerset"),
    ]
    for spec in specs:
        rep = fm.check_monad_laws(spec, max_size)
        checked += rep.checked
        for f in rep.failures:
            failures.append({"monad": spec.key, "E": list(spec.exceptions), "detail": f})
    return _report("monad-laws", {"monads": [s.key for s in specs], "max-size": max_size},
                   max_size, t0, failures, counts={"instances": checked})


def verify_rel_axioms(model: ip.Model) -> VerificationReport:
    """The model's relation spaces (``rels_for_pair``) satisfy the relation
    axioms, written once for sets with all relations and algebras within the
    bound with admissible ones: R1 every diagonal is listed; R3 each pair's
    listing holds the full relation (the empty intersection) and is closed
    under binary intersection; R2 reindexing a listed relation along maps
    (every function between sets, every homomorphism between algebras) gives
    a listed relation; R4 algebra relations are carrier relations."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for sort in (VSORT, CSORT):
        kind = "set" if sort == VSORT else "alg"
        objs = model.objects(sort)
        size = {k: o.size for k, o in enumerate(objs) if o.size <= model.bound}
        rels = {(i, j): model.rels_for_pair(sort, i, j) for i in size for j in size}
        listed = {ij: set(rs) for ij, rs in rels.items()}
        maps = {(i, j): model._hom_tables(objs[i], objs[j]) if sort == CSORT
                else list(itertools.product(range(size[j]), repeat=size[i])) for i, j in rels}
        # R1: diagonals
        for k, n in size.items():
            checked += 1
            if fm.diagonal(n) not in listed[k, k]:
                failures.append({"axiom": "R1", "object": f"{kind}:{k}"})
        # R3: intersections, empty (the full relation) and binary, each
        # unordered pair of distinct relations once, as r & r is r
        for (i, j), rs in rels.items():
            checked += 1
            if ((1 << size[j]) - 1,) * size[i] not in listed[i, j]:
                failures.append({"axiom": "R3", "kind": f"{kind}-full", "objects": [i, j]})
            for r1, r2 in itertools.combinations(rs, 2):
                checked += 1
                if tuple(map(and_, r1, r2)) not in listed[i, j]:
                    failures.append({"axiom": "R3", "kind": kind, "objects": [i, j]})
        # R2: reindexing along maps. The preimage of R along (f, g) has row
        # table[R[f x]] at x, for g's preimage table. cols[i, j][v] holds row v
        # of every map's table, so zip(*) over x gives the preimage along each g
        # (zip(*) of no rows gives nothing, so a map from the empty set takes ())
        cols = {(i, j): list(zip(*(fm.preimage_table(g, size[j]) for g in gs))) for (i, j), gs in maps.items()}
        for (a1, a2), fs in maps.items():
            for (b1, b2), gs in maps.items():
                ok, col = listed[a1, b1], cols[b1, b2]
                for r in rels[a2, b2]:
                    for f in fs:
                        pres = zip(*[col[r[x]] for x in f]) if f and gs else [()] * len(gs)
                        for g, pre in zip(gs, pres):
                            checked += 1
                            if pre not in ok:
                                failures.append({"axiom": "R2", "kind": kind, "objects": [a1, a2, b1, b2],
                                                 "R": fm.rel_pairs(r), "f": list(f), "g": list(g)})
        if sort == CSORT:  # R4: algebra relations are carrier relations
            for (i, j), rs in rels.items():
                for q in rs:
                    checked += 1
                    if not fm.in_carriers(q, size[i], size[j]):
                        failures.append({"axiom": "R4", "objects": [i, j]})
    return _model_report("relation-axioms", model, t0, failures, counts={"instances": checked})


# ---------------------------------------------------------------------------
# identity extension and relational invariance


def identity_extension_battery() -> list[TypeExpr]:
    """Types (depth <= 3) over the ambient variables X, Y, ^P, ^Q."""
    x, y, p, q = TyVar(VSORT, "X"), TyVar(VSORT, "Y"), TyVar(CSORT, "P"), TyVar(CSORT, "Q")
    return [
        x,
        p,
        Arrow(x, y),
        Arrow(x, x),
        Arrow(p, p),
        Arrow(x, p),
        Lolli(p, q),
        Lolli(p, p),
        Arrow(Arrow(x, p), p),
        Arrow(Arrow(x, x), x),
        Forall(VSORT, "Z", Arrow(TyVar(VSORT, "Z"), TyVar(VSORT, "Z"))),
        Forall(VSORT, "Z", Arrow(TyVar(VSORT, "Z"), x)),
        Forall(CSORT, "Z", Arrow(TyVar(CSORT, "Z"), TyVar(CSORT, "Z"))),
        enc.zero_type(CSORT),
        enc.encode_bang(x),
        enc.unit_type(),
        enc.encode_num(2),
        enc.pair_type(VSORT, x, y),
        enc.sum_type(VSORT, x, y),
        enc.exists_type(VSORT, VSORT, "Z", Arrow(TyVar(VSORT, "Z"), x)),
        enc.sum_type(CSORT, p, q),
        enc.pair_type(CSORT, x, p),
        enc.unit_comp_type(),
        enc.mu_type(VSORT, "Z", TyVar(VSORT, "Z")),
    ]


def verify_identity_extension(model: ip.Model) -> VerificationReport:
    """Relational interpretation at diagonal environments is the diagonal."""
    t0 = time.perf_counter()
    battery = identity_extension_battery()
    failures = []
    env_sets = [s for s in model.sets if s.size > 0]
    # each environment with its witness form: a set's size, an algebra's index
    base_envs = [({"X": xv.size, "Y": 2, "^P": p, "^Q": 0},
                  ip.type_env({"X": xv, "Y": fm.FinSet(2)}, {"P": pv, "Q": model.algebras[0]}))
                 for xv in env_sets[:2] for p, pv in enumerate(model.algebras[:2])]
    for ty in battery:
        for named, env in base_envs:
            view = model.interp_rel(ip.diag_relenv(env), ty)
            size = model.interp_vtype(env, ty).size
            got, want = view.rows(), fm.diagonal(size)
            if got != want:
                failures.append({"type": str(ty), "env": named,
                                 "extra": fm.rel_pairs([g & ~w for g, w in zip(got, want)]),
                                 "missing": fm.rel_pairs([w & ~g for g, w in zip(got, want)])})
                break
    return _model_report("identity-extension", model, t0, failures,
                         counts={"types": len(battery)})


def _memo_run(stage, names):
    """``stage`` as ``evaluate(tyenv, values)``, with ``values`` bound to ``names``
    in order: staged once per distinct ``tyenv``, run once per distinct ``(tyenv,
    values)``.  An out-of-bound outcome is stored too, and raised again at every lookup."""
    outcomes: dict = {}  # tyenv -> its run, (tyenv, values) -> the value

    def outcome(key, compute):
        if key not in outcomes:
            try:
                outcomes[key] = compute()
            except ip.OutOfBoundError as exc:
                outcomes[key] = exc.with_traceback(None)
        if isinstance(outcomes[key], ip.OutOfBoundError):
            raise outcomes[key]
        return outcomes[key]

    return lambda tyenv, values: outcome(
        (tyenv, values), lambda: outcome(tyenv, lambda: stage(tyenv))(dict(zip(names, values))))


def _abstraction_failure(model: ip.Model, j: Judgment, counts: dict) -> Optional[dict]:
    """The first failure of judgment ``j``'s checks, or None; its
    homomorphism instances and out-of-bound skips are added to ``counts``.

    The term is staged once per distinct type environment and run once per
    distinct (type environment, binding values), which both checks share.
    The ascription's view is built once per relation environment, at its first
    pair whose two evaluations succeed: built before, it could be out of bound (a
    hom space past the cap) where every evaluation is out of bound, skipped and counted."""
    names = env_names(tc._ctx_ftv(j.gamma, j.delta) | free_type_vars_term(j.subject) | free_type_vars(j.ascription))
    bindings = list(j.gamma) + ([j.delta] if j.delta is not None else [])
    # typechecked once, staged once per type environment, run once per distinct values
    evaluate = _memo_run(model._compile(j.subject, j.gamma, j.delta)[1], [name for name, _ in bindings])
    for rho in itertools.islice(rel_envs(model, names), 40):
        pair_lists: list[list[tuple[int, int]]] = []
        try:
            for _, ty in bindings:  # the product is empty from the first empty list on
                pair_lists.append(model.interp_rel(rho, ty).pairs())
                if not pair_lists[-1]:
                    break
        except ip.OutOfBoundError:
            continue
        result_rel = None
        for values in itertools.islice(itertools.product(*pair_lists), 60):
            try:
                l = evaluate(rho.rho1, tuple(v1 for v1, _ in values))
                r = evaluate(rho.rho2, tuple(v2 for _, v2 in values))
            except ip.OutOfBoundError:
                counts["out-of-bound-skips"] += 1
                continue
            if result_rel is None:
                result_rel = model.interp_rel(rho, j.ascription)
            if not result_rel.contains(l, r):
                return {"term": str(j.subject), "type": str(j.ascription), "lhs": l, "rhs": r}
    if j.delta is None:
        return None
    # a stoup judgment: the induced map is a structure homomorphism
    for tyenv in itertools.islice(type_envs(model, names), 4):
        dom_alg = model.interp_ctype(tyenv, j.delta[1])
        cod_alg = model.interp_ctype(tyenv, j.ascription)
        sizes = [model.interp_vtype(tyenv, ty).size for _, ty in j.gamma]
        for values in itertools.islice(itertools.product(*(range(n) for n in sizes)), 6):
            table = [evaluate(tyenv, values + (d,)) for d in range(dom_alg.size)]
            counts["hom-instances"] += 1
            if not fm.is_homomorphism(table, dom_alg, cod_alg):
                return {"term": str(j.subject), "law": "homomorphism"}
    return None


def verify_abstraction(model: ip.Model, seed: int = 17, n_terms: int = 100) -> VerificationReport:
    """Relational invariance on seeded judgments, plus the stoup
    homomorphism property.

    Relational environments and value environments are enumerated in a
    deterministic order and capped at 40 and 60 per judgment, so the run
    is reproducible; the first failure of a judgment ends the run.
    """
    t0 = time.perf_counter()
    gen = TermGenerator(seed, interp_safe=True)
    counts = {"terms": n_terms, "hom-instances": 0, "out-of-bound-skips": 0}
    for _ in range(n_terms):
        failure = _abstraction_failure(model, gen.random_judgment(), counts)
        if failure is not None:
            return _model_report("abstraction", model, t0, [failure], counts)
    return _model_report("abstraction", model, t0, [], counts)


# ---------------------------------------------------------------------------
# parametric element counts


def verify_parametric_counts(model: ip.Model, plain_model: Optional[ip.Model] = None) -> VerificationReport:
    """Cardinalities of the basic polymorphic operation types, with the
    naive product-filter oracle cross-checked where it is feasible.  An
    oracle disagreement is the witness whenever there is one: a count
    failure alone does not say that the family search itself is wrong."""
    t0 = time.perf_counter()
    for n in (0, 1, 2):  # |[[n-ary op]]| = |T n| only with T n registered
        model.free_algebra(n)
    failures = []  # oracle disagreements first
    miscounts = []
    counts = {}
    for n in (0, 1, 2):
        poly = model.interp_vtype(ip.TypeEnv(), enc.nary_op_type(n))
        counts[f"n={n}"] = poly.size
        tn = model.monad.apply(n)
        if poly.size != tn:
            miscounts.append({"n": n, "families": poly.size, "T(n)": tn})
    oracle = plain_model or model
    for n in (0, 1, 2):
        ty = enc.nary_op_type(n)
        try:
            naive = oracle.enumerate_families_naive(ip.TypeEnv(), ty)
        except ip.OutOfBoundError:
            continue
        poly = oracle.interp_vtype(ip.TypeEnv(), ty)
        if naive != poly.fams:
            failures.append({"n": n, "detail": "oracle disagreement",
                             "naive": len(naive), "propagated": poly.size})
    return _model_report("parametric-counts", model, t0, failures + miscounts, counts=counts)


# ---------------------------------------------------------------------------
# typing conformance corpus


def _j(gamma=(), delta=None, subject=None, ascription=None) -> Judgment:
    return Judgment(tuple(gamma), delta, subject, ascription)


def typing_corpus():
    """Hand-derived positive and negative judgments.

    Returns (positives, negatives, constants): positives pair a judgment
    with its expected type; negatives pair a judgment with the expected
    rejection code; constants are the effect constants of the ``E = {e}``
    exception and the powerset signatures, which the judgments may use.
    """
    A, B, C = TyVar(VSORT, "A"), TyVar(VSORT, "B"), TyVar(VSORT, "C")
    cA, cB, cC = TyVar(CSORT, "A"), TyVar(CSORT, "B"), TyVar(CSORT, "C")
    bang = enc.encode_bang
    unit = enc.unit_type()
    two = enc.encode_num(2)
    consts = {**enc.register_effect_constants(fm.MonadSpec("exception", ("e",))),
              **enc.register_effect_constants(fm.MonadSpec("powerset"))}

    positives = []

    def pos(j, expected):
        positives.append((j, expected))

    # the stoup axiom and the structural core
    pos(_j((), ("x", cA), Var("x")), cA)
    pos(_j((), None, parse_term("fun x:B => x")), parse_type("B -> B"))
    pos(_j((), None, parse_term("fun x:B => fun y:C => x")), parse_type("B -> C -> B"))
    pos(_j((), None, parse_term("Fun X => fun x:X => x")), parse_type("forall X. X -> X"))
    pos(_j((), None, parse_term("Fun ^X => fun x:^X => x")), parse_type("forall ^X. ^X -> ^X"))
    pos(_j((), None, parse_term("lfun x:^A => x")), parse_type("^A -o ^A"))
    pos(_j((("t", B),), None, parse_term("Fun ^X => fun p:B -> ^X => p t")), bang(B))
    pos(_j((("h", Lolli(cA, cB)),), ("x", cA), parse_term("h x")), cB)
    pos(_j((("t", B),), ("x", cA), App(Lam("y", B, Var("x")), Var("t"))), cA)
    pos(_j((), ("x", cA), TyLam(CSORT, "Y", Var("x"))), Forall(CSORT, "Y", cA))
    pos(_j((), ("x", cA), TyLam(VSORT, "Y", Var("x"))), Forall(VSORT, "Y", cA))
    pos(_j((), ("x", cA), App(LinLam("y", cA, Var("y")), Var("x"))), cA)
    pos(_j((("x", B), ("y", C)), None, Var("x")), B)  # weakening
    pos(_j((), None, parse_term("fun x:B => fun x:C => x")), parse_type("B -> C -> C"))
    pos(
        _j((), None, App(TyApp(VSORT, parse_term("Fun X => fun x:X => x"), Arrow(B, B)),
                         parse_term("fun y:B => y"))),
        Arrow(B, B),
    )

    # eta-expansions at every definable type
    encoded = [
        unit,
        enc.pair_type(VSORT, A, B),
        enc.zero_type(VSORT),
        enc.sum_type(VSORT, A, B),
        enc.exists_type(VSORT, VSORT, "X", Arrow(TyVar(VSORT, "X"), B)),
        enc.mu_type(VSORT, "X", Arrow(B, TyVar(VSORT, "X"))),
        enc.nu_type(VSORT, "X", Arrow(B, TyVar(VSORT, "X"))),
        enc.exists_type(VSORT, CSORT, "X", Arrow(TyVar(CSORT, "X"), B)),
        enc.unit_comp_type(),
        enc.prod_comp_type(cA, cB),
        enc.zero_type(CSORT),
        enc.sum_type(CSORT, cA, cB),
        enc.pair_type(CSORT, B, cA),
        enc.exists_type(CSORT, VSORT, "X", Arrow(TyVar(VSORT, "X"), cB)),
        enc.exists_type(CSORT, CSORT, "X", Arrow(B, TyVar(CSORT, "X"))),
        enc.mu_type(CSORT, "X", Arrow(B, TyVar(CSORT, "X"))),
        enc.nu_type(CSORT, "X", Arrow(B, TyVar(CSORT, "X"))),
        bang(B),
    ]
    for ty in encoded:
        pos(_j((), None, Lam("z", ty, Var("z"))), Arrow(ty, ty))

    # definable intro/elim terms
    pos(_j((("a", A), ("b", B)), None, enc.pair_term(A, B, Var("a"), Var("b"))),
        enc.pair_type(VSORT, A, B))
    pos(_j((("a", A),), None, enc.injection(0, A, B, Var("a"), VSORT)),
        enc.sum_type(VSORT, A, B))
    pos(_j((("b", B),), None, enc.injection(1, A, B, Var("b"), VSORT)),
        enc.sum_type(VSORT, A, B))
    sum_ab = enc.sum_type(VSORT, A, B)
    pos(
        _j(
            (("s", sum_ab), ("f", Arrow(A, C)), ("g", Arrow(B, C))),
            None,
            enc.case_term(Var("s"), C, Var("f"), Var("g")),
        ),
        C,
    )
    pos(
        _j(
            (("s", sum_ab), ("f", Arrow(A, cC)), ("g", Arrow(B, cC))),
            None,
            enc.case_term(Var("s"), cC, Var("f"), Var("g")),
        ),
        cC,
    )
    pos(_j((), ("a", cA), enc.injection(0, cA, cB, Var("a"), CSORT)),
        enc.sum_type(CSORT, cA, cB))
    oplus_ab = enc.sum_type(CSORT, cA, cB)
    pos(
        _j(
            (("f", Lolli(cA, cC)), ("g", Lolli(cB, cC))),
            ("s", oplus_ab),
            enc.case_term(Var("s"), cC, Var("f"), Var("g")),
        ),
        cC,
    )
    lhs = enc.elaborate_term(
        parse_term("let x <= z in p x"),
        gamma=(("p", Arrow(A, cB)),),
        delta=("z", bang(A)),
    )
    pos(_j((("p", Arrow(A, cB)),), ("z", bang(A)), lhs), cB)
    fwd, bwd = enc.girard_iso_terms(A, cB)
    pos(_j((), None, fwd), Arrow(Arrow(A, cB), Lolli(bang(A), cB)))
    pos(_j((), None, bwd), Arrow(Lolli(bang(A), cB), Arrow(A, cB)))
    cfwd, cbwd = enc.comp_iso_terms(cA)
    cX = TyVar(CSORT, "X")
    wrapped = Forall(CSORT, "X", Arrow(Lolli(cA, cX), cX))
    pos(_j((), None, cfwd), Lolli(cA, wrapped))
    pos(_j((), None, cbwd), Lolli(wrapped, cA))

    # the effect constants at their published signatures
    pos(_j((), None, Var("or")), Forall(CSORT, "X", Arrow(cX, Arrow(cX, cX))))
    pos(_j((), None, Var("raise^e")), Forall(CSORT, "X", cX))
    pos(_j((), None, Var("handle^e")),
        Forall(VSORT, "X", Lolli(Arrow(two, bang(TyVar(VSORT, "X"))), bang(TyVar(VSORT, "X")))))
    pos(_j((("u", Arrow(two, bang(A))),), None,
           App(TyApp(VSORT, Var("handle^e"), A), Var("u"))), bang(A))
    pos(_j((("y", cA),), None, App(App(TyApp(CSORT, Var("or"), cA), Var("y")), Var("y"))), cA)

    negatives = [
        (_j((), None, Var("nope")), tc.ErrorCode.UNBOUND_VAR),
        (_j((("t", cA),), ("x", cA), Var("t")), tc.ErrorCode.STOUP_VIOLATION),
        (
            _j((("h", Lolli(cA, Lolli(cA, cB))),), ("x", cA),
               App(App(Var("h"), Var("x")), Var("x"))),
            tc.ErrorCode.STOUP_VIOLATION,
        ),
        (_j((), ("x", cA), LinLam("y", cA, Var("y"))), tc.ErrorCode.STOUP_VIOLATION),
        (_j((), None, LinLam("y", B, Var("y"))), tc.ErrorCode.NON_COMPUTATION_STOUP),
        (_j((), None, Lam("f", Lolli(B, cC), Var("f"))), tc.ErrorCode.KIND_MISMATCH),
        (_j((("x", TyVar(VSORT, "X")),), None, TyLam(VSORT, "X", Var("x"))), tc.ErrorCode.ESCAPING_TYVAR),
        (_j((), ("x", TyVar(CSORT, "X")), TyLam(CSORT, "X", Var("x"))), tc.ErrorCode.ESCAPING_TYVAR),
        (
            _j((("f", Arrow(B, B)), ("y", C)), None, App(Var("f"), Var("y"))),
            tc.ErrorCode.APP_MISMATCH,
        ),
        (_j((("x", B),), None, App(Var("x"), Var("x"))), tc.ErrorCode.APP_MISMATCH),
        (_j((("x", B),), None, TyApp(VSORT, Var("x"), C)), tc.ErrorCode.APP_MISMATCH),
        (_j((("f", Forall(VSORT, "X", TyVar(VSORT, "X"))),), None, TyApp(CSORT, Var("f"), B)),
         tc.ErrorCode.KIND_MISMATCH),
        (_j((("f", Forall(VSORT, "X", TyVar(VSORT, "X"))),), None, TyApp(VSORT, Var("f"), cB)),
         tc.ErrorCode.KIND_MISMATCH),
        (_j((("f", Forall(CSORT, "X", TyVar(CSORT, "X"))),), None, TyApp(VSORT, Var("f"), B)),
         tc.ErrorCode.APP_MISMATCH),
        (
            _j((("g", Arrow(cA, cB)),), ("x", cA), App(Var("g"), Var("x"))),
            tc.ErrorCode.STOUP_VIOLATION,
        ),
        (_j((), ("x", B), Var("x")), tc.ErrorCode.NON_COMPUTATION_STOUP),
        (_j((("x", B),), ("x", cA), Var("x")), tc.ErrorCode.STOUP_VIOLATION),
        (
            _j((("s", oplus_ab), ("f", Lolli(cA, cC)), ("g", Lolli(cB, cC))), None,
               App(App(TyApp(VSORT, Var("s"), B), Var("f")), Var("g"))),
            tc.ErrorCode.APP_MISMATCH,
        ),
    ]
    return positives, negatives, consts


def verify_typing_corpus() -> VerificationReport:
    """Checker agreement with all hand-derived judgments."""
    t0 = time.perf_counter()
    positives, negatives, consts = typing_corpus()
    failures = []
    for i, (j, expected) in enumerate(positives):
        try:
            ty = tc.typecheck(j, consts)
        except tc.TypingError as exc:
            failures.append({"case": f"pos-{i}", "detail": f"rejected: {exc}"})
            continue
        if expected is not None and not alpha_eq(ty, expected):
            failures.append({
                "case": f"pos-{i}",
                "got": str(ty),
                "want": str(expected),
            })
    for i, (j, code) in enumerate(negatives):
        try:
            ty = tc.typecheck(j, consts)
            failures.append({"case": f"neg-{i}", "detail": f"accepted at {ty}"})
        except tc.TypingError as exc:
            if exc.code is not code:
                failures.append({
                    "case": f"neg-{i}", "got": exc.code.value, "want": code.value,
                })
    sizes = {"positives": len(positives), "negatives": len(negatives)}
    return _report("typing-conformance", sizes, 0, t0, failures, counts=dict(sizes))


def verify_metatheory(seed: int = 2024) -> VerificationReport:
    """Type unicity on 200 seeded terms and both substitution properties on
    100 seeded samples."""
    t0 = time.perf_counter()
    failures = []
    gen = TermGenerator(seed)
    corpus = [gen.random_judgment() for _ in range(200)]
    rep_u = tc.check_unicity(corpus)
    for f in rep_u.failures:
        failures.append({"law": "unicity", "detail": f})
    # weakening: an unused binding never changes the type
    for j in corpus[:50]:
        widened = Judgment(
            (("fresh_unused", TyVar(VSORT, "X")),) + j.gamma, j.delta, j.subject, None
        )
        try:
            ty = tc.typecheck(widened)
        except tc.TypingError as exc:
            failures.append({"law": "weakening", "detail": str(exc)})
            continue
        if not alpha_eq(ty, j.ascription):
            failures.append({"law": "weakening", "detail": "type changed"})
    samples = [gen.random_subst_sample(part) for part in (1, 2) for _ in range(50)]
    rep_s = tc.check_substitution_lemma(samples)
    for f in rep_s.failures:
        failures.append({"law": "substitution", "detail": f})
    return _report("metatheory", {"seed": seed}, 0, t0, failures,
                   counts={"unicity-terms": rep_u.total, "substitution-samples": rep_s.total})


def verify_cbpv() -> VerificationReport:
    """The type-level translation of the call-by-push-value constructors."""
    t0 = time.perf_counter()
    E = enc
    unit = E.CbpvUnit()
    one, zero = E.unit_type(), E.zero_type(VSORT)
    corpus = [
        (E.CbpvF(unit), E.encode_bang(one)),
        (E.CbpvU(E.CbpvF(E.CbpvUnit())), E.encode_bang(one)),
        (E.CbpvProd(unit, unit), E.pair_type(VSORT, one, one)),
        (E.CbpvSum(unit, E.CbpvZero()), E.sum_type(VSORT, one, zero)),
        (E.CbpvZero(), zero),
        (E.CbpvFun(unit, E.CbpvF(unit)), Arrow(one, E.encode_bang(one))),
        (E.CbpvProdC(E.CbpvF(unit), E.CbpvF(E.CbpvZero())),
         E.prod_comp_type(E.encode_bang(one), E.encode_bang(zero))),
        (E.CbpvU(E.CbpvProdC(E.CbpvF(unit), E.CbpvF(unit))),
         E.prod_comp_type(E.encode_bang(one), E.encode_bang(one))),
        (E.CbpvFun(E.CbpvSum(unit, unit), E.CbpvF(E.CbpvProd(unit, unit))),
         Arrow(E.encode_num(2), E.encode_bang(E.pair_type(VSORT, one, one)))),
        (E.CbpvF(E.CbpvU(E.CbpvF(unit))), E.encode_bang(E.encode_bang(one))),
    ]
    failures = []
    for i, (src, want) in enumerate(corpus):
        got = E.cbpv_translate_type(src)
        if not alpha_eq(got, want):
            failures.append({"case": i, "got": str(got), "want": str(want)})
            continue
        classify_type(got)  # the output must be a well-formed type
        if isinstance(src, (E.CbpvF, E.CbpvProdC)) and classify_type(got).value != "computation":
            failures.append({"case": i, "detail": "expected a computation type"})
    return _report("cbpv-translation", {"corpus": len(corpus)}, 0, t0, failures,
                   counts={"types": len(corpus)})
