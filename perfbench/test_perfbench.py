"""Checks of the benchmark's own logic: verdict judging and self-time accounting.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import REFERENCE_S, Sampler, corrected  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import EXPECTED_REPORTS, judge  # noqa: E402

E1 = {"monad": "exception", "E": ["e"], "free-algebras": True}
E2 = {"monad": "exception", "E": ["e1", "e2"], "free-algebras": True}


def line(tid, status="verified", counts=None, config=E1):
    rep = {"theorem-id": tid, "config": config, "bound": 2, "status": status}
    if counts is not None:
        rep["counts"] = counts
    return json.dumps(rep, sort_keys=True)


def failed(suite, outcome):
    return [v["failed"] for v in judge(suite, outcome)]


def test_known_answers_pass():
    assert failed("parametric-counts", {"reports": [
        line("parametric-counts", counts={"n=0": 1, "n=1": 2, "n=2": 3})]}) == [False]
    assert failed("free-algebra", {"reports": [
        line("free-algebra"), line("free-algebra-negative-control", "counterexample")]}) == [False, False]
    assert failed("algop", {"reports": [line("algop-correspondence", counts={
        "natural-transformations": 3, "generic-effects": 3, "parametric-elements": 3})]}) == [False]
    ident = {"monad": "identity", "E": [], "free-algebras": True}
    assert failed("bang-cardinality", {"reports": [
        line("bang-cardinality", counts={"|A|=0": 1, "|A|=1": 2, "|A|=2": 3}),
        line("bang-cardinality", counts={"|A|=1": 1, "|A|=2": 2}, config=ident)]}) == [False, False]


def test_planted_wrong_verdicts_count_as_failed():
    # a count off by one from |T(n)| = n + |E|
    assert failed("parametric-counts", {"reports": [
        line("parametric-counts", counts={"n=0": 1, "n=1": 2, "n=2": 4})]}) == [True]
    # at E={e1,e2} the pinned counts move to 2/3/4
    assert failed("parametric-counts", {"reports": [
        line("parametric-counts", counts={"n=0": 1, "n=1": 2, "n=2": 3}, config=E2)]}) == [True]
    # a negative control that the checker failed to refute
    assert failed("free-algebra", {"reports": [
        line("free-algebra"), line("free-algebra-negative-control")]}) == [False, True]
    # a theorem reported false
    assert failed("handler", {"reports": [line("handler", "counterexample")]}) == [True]
    # a suite that lost one of its reports
    assert failed("free-algebra", {"reports": [line("free-algebra")]}) == [True, True]
    # anything raised other than an out-of-bound error
    assert failed("rel-lifting", {"raised": "AssertionError"}) == [True]


def test_out_of_bound_is_undecided_not_failed():
    for outcome in ({"raised": "OutOfBoundError"}, {"reports": [line("parametric-counts", "out-of-bound")]}):
        [v] = judge("parametric-counts", outcome)
        assert (v["decided"], v["failed"]) == (False, False)
    assert len(judge("bang-cardinality", {"raised": "ModelError"})) == len(EXPECTED_REPORTS["bang-cardinality"])


def test_self_times_exclude_nested_spans_and_add_up_to_the_root():
    now = [0.0]

    def clock():
        return now[0]

    tracer = Tracer(clock=clock)

    def leaf():
        now[0] += 1.0

    def rec(n):
        now[0] += 2.0
        if n:
            rec_traced(n - 1)
        leaf_traced()

    leaf_traced = tracer._wrap("leaf", leaf, None)
    rec_traced = tracer._wrap("rec", rec, None)
    t0 = now[0]
    tracer.root("root", rec_traced, 2)
    total = now[0] - t0
    assert tracer.stats["rec"][:2] == [3, 6.0]
    assert tracer.stats["leaf"][:2] == [3, 3.0]
    assert tracer.stats["root"][:2] == [1, 0.0]
    assert total == 9.0 == sum(st[1] for st in tracer.stats.values())
    # every span names its caller
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    assert {(names.get(parent), name) for _, parent, name, _, _ in tracer.spans} == {
        (None, "root"), ("root", "rec"), ("rec", "rec"), ("rec", "leaf")}


def test_a_segment_is_scaled_by_the_probes_taken_in_it():
    sampler = Sampler()
    sampler.samples = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (5.0, REFERENCE_S)]
    seg = sampler.segment(0.5, 2.0)
    assert seg == {"raw": 1.5, "probe": 2 * REFERENCE_S, "speed": [2 * REFERENCE_S]}
    # the host ran at half the reference speed, and the probe's own time is left out
    assert abs(corrected(seg) - (1.5 - 2 * REFERENCE_S) / 2) < 1e-12
    # a segment without a sample of its own takes the last one before its end
    assert sampler.segment(1.2, 1.3) == {"raw": 1.3 - 1.2, "probe": 0, "speed": [2 * REFERENCE_S]}
    # with no sample at all the time stays raw
    assert corrected(Sampler().segment(0.0, 1.0)) == 1.0


def test_the_sampler_probes_on_a_timer():
    sampler = Sampler()
    sampler.start()
    try:
        end = sampler.clock() + 0.3
        while sampler.clock() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(d > 0 for _, d in sampler.samples)
