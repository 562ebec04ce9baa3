"""Workload definitions and the known answers the benchmark checks verdicts against.

This module imports nothing from ``polyeff``: the parent process judges
verdicts from the reports' JSON lines, so the known answers below never
come from the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_CONFIG = {"monad": "exception", "E": ["e"], "bound": 2, "include-free-algebras": False}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # polyeff.finmodel.ModelConfig.to_json() form
    suites: tuple[str, ...]


# The first three together are exactly the 15 suites of `polyeff verify all`
# at the default config, so the sum of their wall_s is the headline number.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("semantics", DEFAULT_CONFIG, (
            "rel-axioms", "identity-extension", "free-algebra", "bang-cardinality",
            "rel-lifting", "algop", "handler", "encoding-props", "parametric-counts",
        )),
        Workload("evaluation", DEFAULT_CONFIG, ("abstraction", "bang-laws")),
        Workload("modelfree", DEFAULT_CONFIG, ("typing", "metatheory", "monad-laws", "cbpv")),
        Workload("reach", {"monad": "exception", "E": ["e1", "e2"], "bound": 2,
                           "include-free-algebras": True},
                 ("handler", "parametric-counts")),
    )
}

# theorem ids each of the 15 suites of `verify all` reports, in order
EXPECTED_REPORTS = {
    "typing": ("typing-conformance",),
    "metatheory": ("metatheory",),
    "monad-laws": ("monad-laws",),
    "rel-axioms": ("relation-axioms",),
    "identity-extension": ("identity-extension",),
    "abstraction": ("abstraction",),
    "bang-laws": ("bang-laws",),
    "free-algebra": ("free-algebra", "free-algebra-negative-control"),
    "bang-cardinality": ("bang-cardinality", "bang-cardinality"),
    "rel-lifting": ("rel-lifting",),
    "algop": ("algop-correspondence",),
    "handler": ("handler",),
    "encoding-props": ("encoding-props",),
    "parametric-counts": ("parametric-counts",),
    "cbpv": ("cbpv-translation",),
}
ALL_SUITES = tuple(EXPECTED_REPORTS)

# the arity `run_suite` uses for the algop suite by default
ALGOP_ARITY = 2

# exceptions `run_suite` lets through as "the request exceeds the bound"
OUT_OF_BOUND_ERRORS = ("OutOfBoundError", "ModelError")


# the suites `run_suite` hands the seed to; every other suite does the same
# work at any seed
SEEDED_SUITES = ("metatheory", "abstraction")


def t_size(monad: str, n_exc: int, k: int):
    """|T(k)| from the monad's definition, or None where no closed form is pinned:
    T X = X + E for exceptions, T X = X for the identity monad."""
    if monad == "exception":
        return k + n_exc
    if monad == "identity":
        return k
    return None


def _count_mismatch(report: dict):
    """A reason string if a decided report contradicts the paper's pinned counts."""
    tid = report["theorem-id"]
    cfg = report.get("config", {})
    counts = report.get("counts") or {}

    def t(k):
        return t_size(cfg.get("monad"), len(cfg.get("E", [])), k)

    if tid == "parametric-counts":
        want = {f"n={k}": t(k) for k in (0, 1, 2)}
        if t(0) is not None and counts != want:
            return f"parametric-counts {counts} != |T(n)| {want}"
    elif tid == "bang-cardinality":
        if not counts:
            return "bang-cardinality reports no counts"
        for key, got in counts.items():
            k = int(key.removeprefix("|A|="))
            if t(k) is not None and got != t(k):
                return f"bang-cardinality {key}: {got} != |T A| {t(k)}"
    elif tid == "algop-correspondence":
        want = t(ALGOP_ARITY)
        names = ("natural-transformations", "generic-effects", "parametric-elements")
        got = [counts.get(n) for n in names]
        if want is not None and got != [want] * 3:
            return f"algop counts {dict(zip(names, got))} != |T({ALGOP_ARITY})| {want}"
    return None


def judge(suite: str, outcome: dict) -> list[dict]:
    """One verdict per expected theorem check of ``suite``.

    ``outcome`` is what a pass recorded for one `run_suite` call: either
    ``{"reports": [json line, ...]}`` or ``{"raised": class name, "detail": str}``.
    Each verdict is ``{"id", "decided", "failed", "why"}``: a check is
    decided when it ends verified/counterexample, and failed when its
    verdict differs from the known answer or the call raised something
    other than an out-of-bound error.
    """
    expected = EXPECTED_REPORTS[suite]
    if "raised" in outcome:
        oob = outcome["raised"] in OUT_OF_BOUND_ERRORS
        why = f"raised {outcome['raised']}: {outcome.get('detail', '')}"
        return [{"id": tid, "decided": False, "failed": not oob, "why": why} for tid in expected]
    reports = [json.loads(line) for line in outcome["reports"]]
    got_ids = tuple(r.get("theorem-id") for r in reports)
    if got_ids != expected:
        return [{"id": tid, "decided": False, "failed": True,
                 "why": f"reports {got_ids}, expected {expected}"} for tid in expected]
    verdicts = []
    for rep in reports:
        tid, status = rep["theorem-id"], rep.get("status")
        want = "counterexample" if tid.endswith("negative-control") else "verified"
        why = None
        if status == "out-of-bound":
            verdicts.append({"id": tid, "decided": False, "failed": False, "why": "out-of-bound"})
            continue
        if status != want:
            why = f"status {status!r}, known answer {want!r}"
        elif want == "verified":
            why = _count_mismatch(rep)
        verdicts.append({"id": tid, "decided": True, "failed": why is not None, "why": why})
    return verdicts

