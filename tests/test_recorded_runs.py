"""Recorded runs: each row runs ``polyeff`` in fresh ``python -m polyeff.cli``
subprocesses from the repository root and compares every exit code, and
the output byte for byte, with the records under ``tests/data``.

``pytest tests/test_recorded_runs.py -k <id>`` runs one row.  A record is
re-recorded by running its row's commands at the parent commit, with the
reason stated in CHANGES.md.
"""

import difflib
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import pytest

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
EMPTY = ""  # the record of a stream that must stay empty
PE = " ".join(sorted(str(p.relative_to(ROOT)) for p in DATA.glob("*.pe")))

# A record file name, one per run, EMPTY, or None: the stream is not compared.
Record = Union[str, tuple[str, ...], None]


@dataclass(frozen=True)
class Run:
    argv: tuple[str, ...]
    code: int
    label: Optional[str]  # if set, "<label>: exit <code>" follows the run on the stream its stderr goes to


def run(cmd: str, code: int = 0, label: Optional[str] = None) -> Run:
    return Run(tuple(shlex.split(cmd)), code, label)


@dataclass(frozen=True)
class Row:
    id: str
    why: str
    runs: list[Run]
    out: Record  # all runs' stdout, concatenated, or one record per run
    err: Record = None
    merged: bool = False  # stderr goes to stdout, as with 2>&1
    timeout: float = 120  # seconds, per run
    optimize: bool = False  # python -O


def records(rec: Record) -> tuple[Optional[str], ...]:
    return rec if isinstance(rec, tuple) else (rec,)


SEEDS = (1, 2, 3)
REACH = ("--bound 3", "--exceptions e1,e2,e3", "--exceptions e1,e2 --bound 3")
EVAL = ["eval 'bang (Fun X => fun u:X => u)'", "eval '(Fun X => fun x:X => x) @[2]'", "eval 'Fun ^X => raise^e @[^X]'",
        "eval 'let x <= bang (Fun X => fun u:X => u) in bang x'", "eval handle^e", "--monad powerset eval or",
        "--monad powerset eval 'Fun ^X => fun x:^X => or @[^X] x x'", "eval 'lfun x:(forall ^X. ^X) => x'",
        "--monad powerset eval 'lfun x:(forall ^X. ^X -> ^X -> ^X) => x'"]

ROWS = [
    Row("examples", "stoup_misuse.pe holds a deliberate stoup violation, so both commands exit 1",
        [run(f"elaborate {PE}", 1), run(f"check --format json {PE}", 1)], ("elaborate_pe.txt", "check_pe.jsonl")),
    Row("missing-file", "an unreadable input file is a usage error (exit 2) with no traceback",
        [run("check tests/data/no_such_file.pe", 2)], EMPTY, "check_missing_file.err"),
    Row("all", "verify all at the default config", [run("verify all --format json")], "verify_all.jsonl"),
    Row("all-O", "-O strips every assert, so a semantic check kept in one would change a report",
        [run("verify all --format json")], "verify_all.jsonl", optimize=True),
    Row("abstraction-seeds", "abstraction at seeds 1, 2 and 3",
        [run(f"--seed {s} verify abstraction --format json") for s in SEEDS], "verify_abstraction_seeds.jsonl"),
    Row("seeds-1-to-10", "each seed draws new judgments for metatheory and abstraction",
        [run(f"--seed {s} verify {suite} --format json") for s in range(1, 11) for suite in ("metatheory", "abstraction")],
        "verify_seeds_1_to_10.jsonl"),
    Row("all-powerset", "handler needs the exception monad, and encoding-props' sum of algebras 1 and 2 is"
        " isomorphic to no registered algebra", [run("--monad powerset verify all --format json", 3)],
        "verify_all_powerset.jsonl"),
    Row("all-identity", "handler needs the exception monad and encoding-props is out of bound",
        [run("--monad identity verify all --format json", 3)], "verify_all_identity.jsonl"),
    Row("all-two-exceptions", "encoding-props' sum of algebras 1 and 1 is isomorphic to no registered algebra",
        [run("--exceptions e1,e2 verify all --format json", 3)],
        "verify_all_two_exceptions.jsonl", "verify_all_two_exceptions.err"),
    Row("all-three-exceptions", "encoding-props' sum of algebras 1 and 1 is isomorphic to no registered algebra",
        [run("--exceptions e1,e2,e3 verify all --format json", 3)],
        "verify_all_three_exceptions.jsonl", "verify_all_three_exceptions.err"),
    Row("all-bound1", "suites over the free algebras on 2 points exit 3, since none is registered at bound 1",
        [run("--bound 1 verify all --format json", 3)], "verify_all_bound1.jsonl", "verify_all_bound1.err"),
    Row("reach", "bang-cardinality, parametric-counts and algop past the 2^32-table wall",
        [run(f"{cfg} verify {suite} --format json") for cfg in REACH
         for suite in ("bang-cardinality", "parametric-counts", "algop")], "verify_reach.jsonl", timeout=30),
    Row("parametric-counts-bound3", "under the identity monad the naive family oracle runs at every n",
        [run(f"--monad {m} --bound 3 verify parametric-counts --format json") for m in ("identity", "powerset")],
        "verify_parametric_counts_bound3.jsonl", timeout=30),
    Row("bound3", "abstraction and identity-extension took over 35 s before the polarity rule",
        [run(f"--bound 3 verify {suite} --format json") for suite in ("abstraction", "identity-extension")],
        "verify_bound3.jsonl", timeout=60),
    Row("abstraction-bound3-seeds",
        "a vacuous type redex did not end in 15 min at seed 3 before vacuous quantifiers were decided in closed form",
        [run(f"--bound 3 verify abstraction --seed {s} --format json") for s in SEEDS],
        "verify_abstraction_bound3_seeds.jsonl", timeout=60),
    Row("abstraction-bound3-seed7", "recorded at the change that counts an out-of-bound homomorphism instance as a skip:"
        " before it, the stoup check of (^P -> ^P) -o (forall B46. ^P), a 3^26 hom space, ended the suite with exit 3",
        [run("--bound 3 verify abstraction --seed 7 --format json")], "verify_abstraction_bound3_seed7.jsonl", timeout=60),
    Row("bang-laws-two-exceptions-bound3", "the one configuration that projects by transport at scale: each type"
        " application is staged once per type environment, so 24 class lookups build the movers of every projection"
        " at a copy of an algebra", [run("--exceptions e1,e2 --bound 3 verify bang-laws --format json")],
        "verify_bang_laws_two_exceptions_bound3.jsonl", timeout=60),
    Row("relations-bound3", "rel-lifting and rel-axioms at bound 3 over row tables",
        [run(f"--bound 3 verify {suite} --format json") for suite in ("rel-lifting", "rel-axioms")],
        "verify_bound3_relations.jsonl", timeout=30),
    Row("rel-axioms-powerset-bound3", "over the 5 isomorphism classes of the 13 enumerated algebras",
        [run("--monad powerset --bound 3 verify rel-axioms --format json")],
        "verify_rel_axioms_powerset_bound3.jsonl", timeout=30),
    Row("encoding-props-powerset-bound3", "a size past 2^64 is a bound, never a radix (ROADMAP item 13)",
        [run("--monad powerset --bound 3 verify encoding-props --format json", 3)],
        "verify_encoding_props_powerset_bound3.jsonl", EMPTY, timeout=30),
    Row("handler-bound3", "the denotation check is out of bound here (a 4^15 hom space)",
        [run("--bound 3 verify handler --format json")], "verify_handler_bound3.jsonl", timeout=30),
    Row("relations-edge", "rel-lifting and handler exit 3 at bound 0, and handler exits 3 at E = {}",
        [run(f"{cfg} verify {suite} --format json", code, label=f"{cfg} verify {suite}")
         for cfg, codes in (("--bound=0", (0, 3, 3)), ("--exceptions=", (0, 0, 3)))
         for suite, code in zip(("rel-axioms", "rel-lifting", "handler"), codes)],
        "verify_relations_edge.jsonl", "verify_relations_edge.err"),
    Row("algop-arities", "algop at each arity of the exception, powerset and identity signatures",
        [run(f"{cfg} verify algop --n {n} --format json") for cfg, ns in
         (("--exceptions e1,e2", (0, 1)), ("--monad powerset", (0, 1, 2)), ("--monad identity", (0, 1, 2)))
         for n in ns], "verify_algop_arities.jsonl"),
    Row("algop-negative-n", "a negative arity is a usage error under every monad, before any model is built",
        [run(f"{cfg}verify algop --n -1", 2, label=f"{cfg}verify algop --n -1")
         for cfg in ("", "--monad identity ", "--monad powerset ")], EMPTY, "verify_algop_negative_n.err"),
    Row("eval", "both sorts of type abstraction and application, the effect constants and -o values",
        [run(f"{cmd} --format json") for cmd in EVAL], "eval.jsonl"),
    Row("eval-or-powerset-bound4", "the family search over the 89 enumerated algebras did not end in 30 s",
        [run("--monad powerset --bound 4 eval or --format json")], "eval_or_powerset_bound4.jsonl", timeout=60),
    Row("input-errors", "each printed a traceback or ran silently before it was rejected",
        [run("eval '(Fun X => fun x:X => x) @[²]'", 2, label="superscript"),
         run("check --format json tests/data/malformed/deep_numeral.pe", 1, label="numeral past the limit"),
         run(f"eval '(Fun X => fun x:X => x) @[{'(' * 200}2{')' * 200}]'", 2, label="200 nested parentheses"),
         run("--config tests/data/malformed/bonud.json verify typing", 2, label="misspelt config key")],
        "input_errors.err", merged=True),
    Row("eval-limits", "300 nested ! ended in a RecursionError, and 10 nested quantifiers printed 8.6 MB",
        [run(f"eval 'fun x:{'!' * 300}2 => x'", 2, label="300 nested !"),
         run("check --format json tests/data/malformed/deep_bang.pe", 1, label="a def at 300 nested !"),
         run(f"eval 'fun x:{'forall X. ' * 10}2 => x'", 3, label="10 nested quantifiers")],
        "eval_limits.err", merged=True, timeout=30),
    Row("eval-out-of-bound", "the handler's -o type has 4^15 candidate tables at bound 3 and 4^14 with two exceptions",
        [run("--bound 3 eval handle^e", 3), run("--exceptions e1,e2 eval handle^e1", 3)],
        EMPTY, "eval_out_of_bound.err"),
    Row("eval-lambda-out-of-bound", "((2 -> 2) -> 2) -> 2 has 2^16 elements, too many functions on it to index",
        [run("eval 'fun f:((2 -> 2) -> 2) -> 2 => f'", 3)], EMPTY, "eval_lambda_out_of_bound.err", timeout=30),
    Row("eval-lolli-out-of-bound", "(2 -> !X) -o !X at |X| = 3 has 7^49 candidate tables",
        [run("--monad powerset --bound 3 eval 'Fun X => fun h:((2 -> !X) -o !X) => h'", 3)],
        EMPTY, "eval_powerset_lolli_out_of_bound.err", timeout=60),
    Row("algop-out-of-bound", "the 7^7 endomorphism tables of the free powerset algebra on 3 points pass the cap",
        [run("--monad powerset verify algop --n 3", 3)], EMPTY, "verify_algop_out_of_bound.err"),
    Row("fail-fast", "e,e is a configuration error, and a 5-element powerset carrier has 5^10 candidate tables",
        [run(cmd, code, label=cmd) for cmd, code in (("--exceptions e,e verify typing", 2),
         ("--monad powerset --bound 5 verify rel-axioms", 3), ("--monad powerset --bound 5 eval or", 3))],
        EMPTY, "fail_fast.err", timeout=30),
]


def execute(row: Row) -> tuple[list[int], list[bytes], list[bytes]]:
    """Each run's exit code, stdout and stderr, with its label line written."""
    python = [sys.executable, *(["-O"] if row.optimize else []), "-m", "polyeff.cli"]
    env = {**os.environ, "PYTHONPATH": "src"}
    codes, outs, errs = [], [], []
    for r in row.runs:
        p = subprocess.run([*python, *r.argv], cwd=ROOT, env=env, timeout=row.timeout, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT if row.merged else subprocess.PIPE)
        out, err = p.stdout, p.stderr or b""
        if r.label is not None:
            line = f"{r.label}: exit {p.returncode}\n".encode()
            out, err = (out + line, err) if row.merged else (out, err + line)
        codes.append(p.returncode)
        outs.append(out)
        errs.append(err)
    return codes, outs, errs


def compare(stream: str, actual: bytes, record: Optional[str]) -> list[str]:
    if record is None:
        return []
    name = "(must be empty)" if record == EMPTY else f"tests/data/{record}"
    expected = b"" if record == EMPTY else (DATA / record).read_bytes()
    if actual == expected:
        return []
    diff = difflib.unified_diff(expected.decode(errors="replace").splitlines(keepends=True),
                                actual.decode(errors="replace").splitlines(keepends=True), name, stream)
    return [f"{stream} differs from {name}:\n"
            + "".join(d if d.endswith("\n") else d + "\n\\ No newline at end of file\n" for d in diff)]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_recorded_run(row: Row):
    codes, outs, errs = execute(row)
    problems = [f"{shlex.join(r.argv)}: exit {code}, expected {r.code}"
                for r, code in zip(row.runs, codes) if code != r.code]
    for stream, chunks, rec in (("stdout", outs, row.out), ("stderr", errs, row.err)):
        actual = chunks if isinstance(rec, tuple) else [b"".join(chunks)]
        for chunk, record in zip(actual, records(rec)):
            problems += compare(stream, chunk, record)
    if problems:
        pytest.fail(f"{row.id} ({row.why}):\n" + "\n".join(problems), pytrace=False)


def test_the_rows_name_every_record_and_no_other():
    named = {name for row in ROWS for rec in (row.out, row.err) for name in records(rec) if name}
    on_disk = {str(p.relative_to(DATA)) for pattern in ("*.jsonl", "*.err", "*.txt") for p in DATA.rglob(pattern)}
    assert sorted(named - on_disk) == [], "records a row names but tests/data lacks"
    # golden_reports.jsonl is read by test_acceptance.py
    assert sorted(on_disk - named - {"golden_reports.jsonl"}) == [], "records no row names"
    assert len({row.id for row in ROWS}) == len(ROWS)
