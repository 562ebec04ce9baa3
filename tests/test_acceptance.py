"""Acceptance criteria, one check per criterion.

Every criterion is exact (finite discrete structures, no tolerances) and
runs standalone against a freshly built model; each prints a single
PASS/FAIL line with its runtime.  Budgets are the stated wall-clock
limits per criterion.

Every report is also compared, byte for byte, with its ``--format json``
form (runtime excluded) recorded in ``data/golden_reports.jsonl``; a change
that only makes the lab faster or smaller must leave those lines alone.
"""

import functools
import json
import pathlib
import time

from polyeff import finmodel as fm
from polyeff import paramlab as pl

EXC1 = fm.ModelConfig("exception", ("e",), 2)
FREE = range(3)  # the free algebras on the sets up to the bound
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_reports.jsonl"


@functools.cache
def golden_reports() -> dict:
    with GOLDEN.open() as fh:
        return {entry["id"]: entry["report"] for entry in map(json.loads, fh)}


def assert_golden(key, rep):
    got = rep.to_json(include_runtime=False)
    assert got == golden_reports()[key], f"report {key} changed: {got}"


def report(n, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {n:2d} ({name}): {elapsed:.2f}s / {budget:.0f}s {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_typing_conformance():
    t0 = time.perf_counter()
    rep = pl.verify_typing_corpus()
    assert_golden("01/typing", rep)
    ok = (
        rep.status == "verified"
        and rep.counts["positives"] >= 30
        and rep.counts["negatives"] >= 15
    )
    report(1, "typing conformance", ok, time.perf_counter() - t0, 1.0, str(rep.witness or ""))


def test_criterion_02_metatheory():
    t0 = time.perf_counter()
    rep = pl.verify_metatheory(seed=2024)
    assert_golden("02/metatheory", rep)
    ok = rep.status == "verified" and rep.counts["unicity-terms"] == 200
    report(2, "unicity + substitution", ok, time.perf_counter() - t0, 10.0, str(rep.witness or ""))


def test_criterion_03_monad_laws():
    t0 = time.perf_counter()
    rep = pl.verify_monad_laws(4)
    assert_golden("03/monad-laws", rep)
    report(3, "monad laws to size 4", rep.status == "verified", time.perf_counter() - t0, 5.0,
           str(rep.witness or ""))


def test_criterion_04_relation_axioms():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for monad, excs in (("exception", ("e",)), ("powerset", ())):
        rep = pl.verify_rel_axioms(pl.build_model(fm.ModelConfig(monad, excs, 2), ()))
        assert_golden(f"04/rel-axioms/{monad}", rep)
        if rep.status != "verified":
            ok, detail = False, f"{monad}: {rep.witness}"
    report(4, "relation axioms R1-R3", ok, time.perf_counter() - t0, 30.0, detail)


def test_criterion_05_identity_extension():
    t0 = time.perf_counter()
    model = pl.build_model(EXC1, ())
    rep = pl.verify_identity_extension(model)
    assert_golden("05/identity-extension", rep)
    ok = rep.status == "verified" and rep.counts["types"] >= 20
    report(5, "identity extension", ok, time.perf_counter() - t0, 60.0, str(rep.witness or ""))


def test_criterion_06_abstraction_theorem():
    t0 = time.perf_counter()
    model = pl.build_model(EXC1, ())
    rep = pl.verify_abstraction(model, seed=17, n_terms=100)
    assert_golden("06/abstraction", rep)
    ok = rep.status == "verified" and rep.counts["hom-instances"] > 0
    report(6, "relational invariance", ok, time.perf_counter() - t0, 120.0, str(rep.witness or ""))


def test_criterion_07_bang_laws():
    t0 = time.perf_counter()
    rep = pl.verify_bang_laws(pl.build_model(EXC1, FREE))
    assert_golden("07/bang-laws", rep)
    report(7, "monadic let laws", rep.status == "verified", time.perf_counter() - t0, 60.0,
           str(rep.witness or ""))


def test_criterion_08_free_algebra():
    t0 = time.perf_counter()
    model = pl.build_model(EXC1, FREE)
    rep = pl.verify_free_algebra(model)
    neg = pl.free_algebra_negative_control(model)
    assert_golden("08/free-algebra", rep)
    assert_golden("08/negative-control", neg)
    ok = (
        rep.status == "verified"
        and neg.status == "counterexample"
        and pl.replay_negative_control(model, neg)
    )
    report(8, "free-algebra property", ok, time.perf_counter() - t0, 60.0, str(rep.witness or ""))


def test_criterion_09_bang_cardinality():
    t0 = time.perf_counter()
    rep = pl.verify_bang_cardinality(pl.build_model(EXC1, FREE), sizes=(0, 1, 2))
    ok = rep.status == "verified" and rep.counts == {"|A|=0": 1, "|A|=1": 2, "|A|=2": 3}
    id_rep = pl.verify_bang_cardinality(
        pl.build_model(fm.ModelConfig("identity", (), 2), FREE), sizes=(1, 2)
    )
    assert_golden("09/bang-cardinality/exception", rep)
    assert_golden("09/bang-cardinality/identity", id_rep)
    ok = ok and id_rep.status == "verified" and id_rep.counts == {"|A|=1": 1, "|A|=2": 2}
    report(9, "monadic-type cardinality", ok, time.perf_counter() - t0, 120.0,
           f"{rep.counts} {id_rep.counts}")


def test_criterion_10_relational_lifting():
    t0 = time.perf_counter()
    rep = pl.verify_rel_lifting(pl.build_model(EXC1, FREE))
    assert_golden("10/rel-lifting", rep)
    report(10, "lifting characterisations", rep.status == "verified",
           time.perf_counter() - t0, 120.0, str(rep.witness or ""))


def test_criterion_11_algebraic_operations():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n, count in ((0, 1), (1, 2), (2, 3)):
        model = pl.build_model(EXC1, (n,))
        rep = pl.verify_algop_correspondence(model, n)
        assert_golden(f"11/algop/exception/{n}", rep)
        if rep.status != "verified" or rep.counts["parametric-elements"] != count:
            ok, detail = False, f"exception n={n}: {rep.counts} {rep.witness}"
    pmodel = pl.build_model(fm.ModelConfig("powerset", (), 3), (2,))
    prep = pl.verify_algop_correspondence(pmodel, 2)
    assert_golden("11/algop/powerset/2", prep)
    if prep.status != "verified" or prep.counts["parametric-elements"] != 3:
        ok, detail = False, f"powerset: {prep.counts} {prep.witness}"
    report(11, "operation correspondences", ok, time.perf_counter() - t0, 300.0, detail)


def test_criterion_12_handler():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for excs in (("e",), ("e1", "e2")):
        model = pl.build_model(fm.ModelConfig("exception", excs, 2), FREE)
        rep = pl.verify_handler(model)
        assert_golden(f"12/handler/{','.join(excs)}", rep)
        if rep.status != "verified":
            ok, detail = False, f"E={excs}: {rep.witness}"
    report(12, "exception handler", ok, time.perf_counter() - t0, 120.0, detail)


def test_criterion_13_encoding_properties():
    t0 = time.perf_counter()
    rep = pl.verify_encoding_props(pl.build_model(EXC1, FREE))
    assert_golden("13/encoding-props", rep)
    report(13, "encoding universal properties", rep.status == "verified",
           time.perf_counter() - t0, 300.0, str(rep.witness or ""))


def test_criterion_14_cbpv_translation():
    t0 = time.perf_counter()
    rep = pl.verify_cbpv()
    assert_golden("14/cbpv", rep)
    ok = rep.status == "verified" and rep.counts["types"] == 10
    report(14, "call-by-push-value translation", ok, time.perf_counter() - t0, 1.0,
           str(rep.witness or ""))
