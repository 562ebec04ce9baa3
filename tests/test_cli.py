"""Driver behavior: subcommands, exit codes, output stability."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyeff import cli
from polyeff import finmodel as fm
from polyeff import typecheck as tc
from polyeff.cli import main

DATA = Path(__file__).parent / "data"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_accepts_the_encodings_file(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "encodings.pe"))
    assert code == 0
    assert "0 error(s)" in out


def test_check_rejects_stoup_misuse(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "stoup_misuse.pe"))
    assert code == 1
    assert "StoupViolation" in out


def test_check_accepts_handler_signatures(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "handler.pe"))
    assert code == 0


@pytest.mark.parametrize("command", ["check", "elaborate"])
@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"), ("directory", "Is a directory"),
    ("not-utf-8", "'utf-8' codec can't decode byte 0xff in position 0"),
])
def test_an_unreadable_input_file_exits_2_with_one_line(tmp_path, capsys, command, kind, reason):
    # like an unreadable --config: exit 2, one stderr line naming the file and
    # the reason, no traceback; exit 1 is for type errors
    path = tmp_path / "input.pe"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"\xff\xfedef x : 1 = ()\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot read {path}: {reason}") and err.count("\n") == 1


def test_check_json_diagnostics(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", str(DATA / "stoup_misuse.pe"))
    assert code == 1
    payload = json.loads(out.strip())
    assert payload["errors"][0]["code"] == "StoupViolation"
    assert "span" in payload["errors"][0]


def test_elaborate_prints_kernel_declarations(capsys):
    code, out, _ = run(capsys, "elaborate", str(DATA / "handler.pe"))
    assert code == 0
    assert "def handler" in out
    assert "!" not in out  # sugar is gone


TWO = "forall X1. ((forall X. X -> X) -> X1) -> ((forall X. X -> X) -> X1) -> X1"


def test_value_binders_hide_an_abbreviation_and_caret_binders_do_not(tmp_path, capsys):
    src = tmp_path / "scope.pe"
    src.write_text(
        "type T = 2\n"
        "type F = forall T. T -> T\n"
        "type E = exists T. T -> B\n"
        "type M = mu T. B -> T\n"
        "type N = nu T. B -> T\n"
        "type C = forall ^T. T -> ^T\n"
        "def v : forall T. T -> T = Fun T => fun x:T => x\n"
        "def c : forall ^T. T -> T = Fun ^T => fun x:T => x\n"
    )
    code, out, _ = run(capsys, "elaborate", str(src))
    assert code == 0
    assert out.splitlines() == [
        f"type T = {TWO}",
        "type F = forall T. T -> T",
        "type E = forall Y. (forall T. (T -> B) -> Y) -> Y",
        "type M = forall T. ((B -> T) -> T) -> T",
        "type N = forall Y. (forall T. (forall X. ((T -> B -> T) -> T -> X) -> X) -> Y) -> Y",
        f"type C = forall ^T. ({TWO}) -> ^T",
        "def v : forall T. T -> T = Fun T => fun x:T => x",
        f"def c : forall ^T. ({TWO}) -> ({TWO}) = Fun ^T => fun x:{TWO} => x",
    ]


def test_an_abbreviation_of_a_computation_type_may_stand_under_lolli(tmp_path, capsys):
    src = tmp_path / "lolli.pe"
    src.write_text("type M = !B\ndef k : M -o M = lfun m:M => m\n")
    code, out, _ = run(capsys, "check", str(src))
    assert code == 0
    assert "2 declaration(s) checked, 0 error(s)" in out


def test_non_positive_recursion_is_a_syntax_error(tmp_path, capsys):
    src = tmp_path / "bad.pe"
    src.write_text("type Ok = 2\ntype Bad = mu X. X -> B\ndef i : B -> B = fun x:B => x\n")
    code, out, _ = run(capsys, "check", "--format", "json", str(src))
    assert code == 1
    assert json.loads(out) == {"file": str(src), "checked": 0, "errors": [{
        "code": "SyntaxError",
        "span": f"{src}:2:15-2:16",
        "detail": "X occurs negatively in X -> B",
    }]}


def test_typing_errors_print_types_in_surface_syntax(tmp_path, capsys):
    src = tmp_path / "mismatch.pe"
    src.write_text("def f : (1 -> ^A) -> ^A = fun g:1 -> ^A => g\ndef l : B -> ^A = fun y:B => let x <= y in x\n")
    code, out, _ = run(capsys, "check", "--format", "json", str(src))
    assert code == 1
    one = "forall X. X -> X"
    assert [e["detail"] for e in json.loads(out)["errors"]] == [
        f"synthesized type (({one}) -> ^A) -> ({one}) -> ^A differs from ascription (({one}) -> ^A) -> ^A",
        "let expects a !-typed bound term, got B",
    ]


def test_eval_identity(capsys):
    code, out, _ = run(capsys, "eval", "fun x:2 => x")
    assert code == 0
    assert "value:" in out


def test_eval_monadic_value_in_free_model(capsys):
    # T(1) = 1 + |E|, so [[!1]] has two points
    code, out, _ = run(capsys, "eval", "bang (Fun X => fun u:X => u)")
    assert code == 0
    assert "of 2" in out


def test_eval_choice_is_the_join(capsys):
    code, out, _ = run(
        capsys, "--monad", "powerset", "--format", "json", "eval", "or",
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["type"] == "forall ^X. ^X -> ^X -> ^X"


def test_eval_type_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "fun x:B => x x")
    assert code == 1


def test_eval_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "fun x:")
    assert code == 2


def test_verify_suite_text(capsys):
    code, out, _ = run(capsys, "verify", "bang-cardinality")
    assert code == 0
    assert "bang-cardinality: verified" in out


def test_verify_json_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "--seed", "5", "verify", "metatheory")
    code2, out2, _ = run(capsys, "--format", "json", "--seed", "5", "verify", "metatheory")
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        json.loads(line)


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "nonsense"]) == 2


@pytest.mark.parametrize("monad", fm.MONADS)
def test_a_negative_arity_is_a_usage_error_before_any_model(monkeypatch, capsys, monad):
    # each monad failed its own way: a carrier error, a negative size, a traceback
    built = []
    monkeypatch.setattr(cli.pl, "build_model", lambda *args: built.append(args))
    code, out, err = run(capsys, "--monad", monad, "verify", "algop", "--n", "-1")
    assert (code, out, err, built) == (2, "", "--n must be a natural number, not -1\n", [])


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text('{"monad": "exception", "E": ["e"], "bound": 2, "include-free-algebras": true}')
    code, out, _ = run(capsys, "--config", str(cfg), "eval", "raise^e")
    assert code == 0
    assert "forall ^X. ^X" in out


@pytest.mark.parametrize("argv", [["verify", "rel-axioms"], ["eval", "or"]], ids=["verify", "eval"])
def test_a_model_past_the_algebra_cap_is_out_of_bound(capsys, argv):
    # the powerset carrier of 5 elements has 5^10 candidate tables
    code, out, err = run(capsys, "--monad", "powerset", "--bound", "5", *argv)
    assert code == 3
    assert out == ""
    assert err.endswith("algebras on a 5-element carrier: 9765625 candidate tables, more than 400000\n")


def test_out_of_bound_exit_code(capsys):
    # the 2 -> 2 set has 4 elements, past the sets registered at bound 2
    code, _, err = run(capsys, "eval", "(Fun X => fun x:X => x) @[2 -> 2]")
    assert code == 3
    assert "no registered set of size 4" in err


def test_eval_registers_the_free_algebras(capsys):
    # the handler's denotation needs the free algebras on 0, 1 and 2 points
    code, out, _ = run(capsys, "eval", "handle^e")
    assert code == 0
    assert "value:" in out


@pytest.mark.parametrize("bound", ["0", "1"])
def test_handler_below_bound_2_is_out_of_bound(capsys, bound):
    # no registered set has two elements, so [[1 + 1]] has one value
    code, out, err = run(capsys, "--bound", bound, "eval", "handle^e")
    assert code == 3
    assert out == ""
    assert err == (f"out of bound: handle^e needs the two values of 1 + 1,"
                   f" but no set of size 2 is registered at bound {bound}\n")


@pytest.mark.parametrize("argv, x_size, space", [
    (["--bound", "3", "eval", "handle^e"], 3, "4^15"),
    (["--exceptions", "e1,e2", "eval", "handle^e1"], 2, "4^14"),
], ids=["bound-3", "two-exceptions"])
def test_an_out_of_bound_hom_space_names_its_type_and_algebras(capsys, argv, x_size, space):
    # the free X names the set the family search had reached when the space met the cap
    free = "(forall ^X1. (X -> ^X1) -> ^X1)"
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (f"out of bound: homomorphisms for (({TWO}) -> {free}) -o {free},"
                   f" with X a set on {x_size} elements,"
                   f" from the algebra on 16 elements to the algebra on 4:"
                   f" hom space too large: {space}\n")


def test_eval_synthesizes_the_term_once(capsys, monkeypatch):
    synth, terms = tc.synth, []
    monkeypatch.setattr(tc, "synth", lambda gamma, delta, t, constants={}: terms.append(t) or synth(gamma, delta, t, constants))
    code, out, _ = run(capsys, "eval", "(Fun X => fun x:X => x) @[2]")
    assert code == 0
    assert len(terms) == 1


def test_eval_of_a_value_past_2_64_indices_exits_3_at_once():
    # ((2 -> 2) -> 2) -> 2 has 2**16 elements and its endofunctions 2**(16 * 2**16),
    # so no index of them is printed: neither tabulated, nor decoded
    two_to_two = f"((({TWO}) -> ({TWO})) -> ({TWO})) -> ({TWO})"
    out = subprocess.run([sys.executable, "-m", "polyeff.cli", "eval", "fun f:((2 -> 2) -> 2) -> 2 => f"],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == (f"out of bound: eval reports a value by its index,"
                          f" but ({two_to_two}) -> {two_to_two} has more than 2**64 values\n")


def nested_quantifiers(k: int) -> str:
    """The identity on ``2`` under ``k`` nested vacuous quantifiers."""
    return "fun x:" + "forall X. " * k + "2 => x"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_of_a_value_past_the_entry_cap_exits_3_at_once(capsys, fmt):
    # each quantifier prints its body once per registered set: the value here
    # has 590 490 entries (8.6 MB of JSON), past ITER_CAP
    code, out, err = run(capsys, "--format", fmt, "eval", nested_quantifiers(10))
    assert (code, out) == (3, "")
    assert err.startswith("out of bound: eval prints a value entry by entry, but one of (forall X. forall X.")
    assert err.endswith(" has more than ITER_CAP (400000) entries\n") and err.count("\n") == 1


def test_eval_of_a_value_within_the_entry_cap_prints_every_entry(capsys):
    code, out, _ = run(capsys, "--format", "json", "eval", nested_quantifiers(2))
    assert code == 0
    report = json.loads(out)

    def entries(value):
        if isinstance(value, int):
            return 1
        return sum(map(entries, value.values() if isinstance(value, dict) else value))

    # two families of 45 entries: 3 sets, each 3 sets, each the 5 entries of 2
    assert report["set"] == {"kind": "functions", "size": 4, "dom": {"kind": "families", "objects": 3, "size": 2},
                             "cod": {"kind": "families", "objects": 3, "size": 2}}
    assert len(report["value"]) == 2 and entries(report["value"]) == 90


@pytest.mark.parametrize("term, names", [
    ("lfun x:^A => x", "^A"),
    # a closed type, with a free variable in an annotation
    ("(fun x:(A -> A) => Fun Y => fun y:Y => y) (fun z:A => z)", "A"),
], ids=["in-the-type", "in-an-annotation"])
def test_eval_rejects_free_type_variables(capsys, term, names):
    code, out, err = run(capsys, "eval", term)
    assert code == 2
    assert out == ""
    assert err == f"eval needs a closed term, but type variables {names} occur free in it\n"


def test_include_free_algebras_is_a_usage_error(capsys):
    assert main(["--include-free-algebras", "verify", "typing"]) == 2


@pytest.mark.parametrize("argv, config", [
    (["--bound", "-1", "verify", "all"], None),
    (["verify", "all"], '{"monad": "foo"}'),
    (["eval", "fun x:2 => x"], '{"monad": "foo"}'),
    (["verify", "typing"], '{"bound": "x"}'),
    (["verify", "typing"], '{"bound": 2,'),
    (["verify", "typing"], '["exception"]'),
    (["verify", "typing"], '{"E": "e1"}'),
    (["verify", "typing"], '{"monad": []}'),
    (["verify", "typing"], "missing"),
    (["--exceptions", "e,e", "verify", "algop", "--n", "0"], None),
    (["--exceptions", "a^b", "eval", "raise^a"], None),
    (["verify", "typing"], '{"E": ["let"]}'),
], ids=["negative-bound", "unknown-monad-verify", "unknown-monad-eval", "bound-not-int",
        "not-json", "not-an-object", "exceptions-not-a-list", "monad-not-a-name",
        "missing-file", "duplicate-exceptions", "exception-not-an-identifier", "exception-a-keyword"])
def test_configuration_errors_exit_2_before_any_suite(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "model.json"
        if config != "missing":
            path.write_text(config)
        argv = ["--config", str(path), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("configuration error")
    assert out == ""


def test_a_misspelt_config_key_is_a_configuration_error_naming_it(tmp_path, capsys):
    # read and dropped, "bonud" would let the run go on silently at bound 1
    path = tmp_path / "model.json"
    path.write_text('{"bound": 1, "bonud": 3}')
    code, out, err = run(capsys, "--config", str(path), "verify", "typing")
    assert (code, out, err) == (2, "", "configuration error: unknown configuration key 'bonud'\n")


NESTED = "(Fun X => fun x:X => x) @[" + "(" * 200 + "2" + ")" * 200 + "]"


@pytest.mark.parametrize("term, err", [
    ("(Fun X => fun x:X => x) @[²]", "<input>:1:27-1:28: unexpected character '²'\n"),
    ("(Fun X => fun x:X => x) @[1²]", "<input>:1:27-1:29: bad numeric token '1²'\n"),
    ("(Fun X => fun x:X => x) @[250]", "<input>:1:27-1:30: numeral 250 is above 32\n"),
    (NESTED, "<input>:1:127-1:128: input nests too deeply\n"),
    # 300 nested ! parse to a type about 900 nodes deep, past MAX_TYPE_DEPTH
    ("fun x:" + "!" * 300 + "2 => x", "<input>:1:309-1:311: input nests too deeply\n"),
], ids=["superscript", "digit-superscript", "large-numeral", "nested-parentheses", "deep-type"])
def test_eval_of_malformed_input_is_a_syntax_error(capsys, term, err):
    assert run(capsys, "eval", term) == (2, "", err)


@pytest.mark.parametrize("src, span, detail", [
    ("type T = ²\n", "1:10-1:11", "unexpected character '²'"),
    ("type T = 130\ndef f : T -> T = fun x:T => x\n", "1:10-1:13", "numeral 130 is above 32"),
    ("type T = 250\n", "1:10-1:13", "numeral 250 is above 32"),
    ("def f : " + "!" * 300 + "2 = bang x\n", "1:311-1:312", "input nests too deeply"),
], ids=["superscript", "numeral-and-def", "numeral", "deep-type"])
def test_check_of_malformed_input_is_a_syntax_error_record(tmp_path, capsys, src, span, detail):
    path = tmp_path / "bad.pe"
    path.write_text(src, encoding="utf-8")
    code, out, err = run(capsys, "check", "--format", "json", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"file": str(path), "checked": 0,
                               "errors": [{"code": "SyntaxError", "span": f"{path}:{span}", "detail": detail}]}


def test_eval_application_returns_the_argument(capsys):
    tt = ("Fun X => fun f:(forall Y. Y -> Y) -> X => "
          "fun g:(forall Y. Y -> Y) -> X => f (Fun Y => fun y:Y => y)")
    code1, out1, _ = run(capsys, "--format", "json", "eval", tt)
    code2, out2, _ = run(capsys, "--format", "json", "eval", f"(fun b:2 => b) ({tt})")
    assert code1 == code2 == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_three_exceptions_put_the_handler_denotation_out_of_bound(capsys):
    # the relation space of the 5-element free algebras is past the cap, so
    # the denotation check is skipped and the concrete checks still decide
    code, out, _ = run(capsys, "--exceptions", "e1,e2,e3", "--format", "json", "verify", "handler")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "verified"
    assert report["counts"] == {
        "denotation-check": "out-of-bound (concrete membership still checked)", "instances": 2613,
    }


def test_parametric_counts_without_exceptions_are_the_identity_counts(capsys):
    # with E empty, T(n) = n
    code, out, _ = run(capsys, "--exceptions", "", "--format", "json", "verify", "parametric-counts")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "verified", report.get("witness")
    assert report["counts"] == {"n=0": 0, "n=1": 1, "n=2": 2}


def test_parametric_counts_at_bound_3_verify_past_the_oracle_cap(capsys):
    # the naive oracle is out of bound at n = 2 (about 2 * 10^15 candidate
    # tuples), and the suite still verifies on the family search's counts
    code, out, _ = run(capsys, "--bound", "3", "--format", "json", "verify", "parametric-counts")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "verified", report.get("witness")
    assert report["counts"] == {"n=0": 1, "n=1": 2, "n=2": 3}


def test_negative_control_that_cannot_fail_is_out_of_bound(capsys):
    # with E empty the stand-in for T 2 is the free algebra itself, so the
    # control finds nothing and must not claim a counterexample
    code, out, _ = run(capsys, "--exceptions", "", "--format", "json", "verify", "free-algebra")
    assert "counterexample" not in out
    control = json.loads(out.splitlines()[-1])
    assert control["theorem-id"] == "free-algebra-negative-control"
    assert control["status"] == "out-of-bound"
    assert "isomorphic to the free algebra on 2 points" in control["witness"]["detail"]
    assert code == 3


@pytest.mark.parametrize("bound, suite, size", [
    ("1", "bang-cardinality", 2),
    ("1", "parametric-counts", 2),
    ("1", "encoding-props", 2),
    ("0", "parametric-counts", 1),
])
def test_a_suite_ranging_past_the_registered_free_algebras_is_out_of_bound(capsys, bound, suite, size):
    # the model registers the free algebras up to the bound only; a count
    # over a larger one would be a false counterexample
    code, out, err = run(capsys, "--bound", bound, "--format", "json", "verify", suite)
    assert code == 3
    assert "counterexample" not in out
    assert err == f"{suite}: out-of-bound: free algebra on a {size}-element set is not registered in this model\n"


def test_text_mode_prints_why_a_check_is_out_of_bound(capsys):
    code, out, _ = run(capsys, "--exceptions", "", "verify", "free-algebra")
    control, witness = out.splitlines()[-2:]
    assert control.startswith("free-algebra-negative-control: out-of-bound")
    assert witness.startswith("  witness: ")
    assert "isomorphic to the free algebra on 2 points" in witness
    assert code == 3


def test_negative_control_that_finds_nothing_fails_the_run(monkeypatch, capsys):
    # every map then has one mediator out of the stand-in too; out of the
    # free algebras it is the true one, so only the control changes
    mediating = cli.pl._mediating_homs
    monkeypatch.setattr(cli.pl, "_mediating_homs", lambda model, fa, eta, f, b:
                        mediating(model, fa, eta, f, b)[:1] or [(0,) * fa.size])
    code, out, _ = run(capsys, "--format", "json", "verify", "free-algebra")
    check, control = map(json.loads, out.splitlines())
    assert check["status"] == "verified"
    assert control["status"] == "verified"
    assert code == 1


def test_benchmark_lists_the_registered_suites_in_order(monkeypatch):
    # perfbench keeps its own list, since it must not import polyeff
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    assert list(cli.SUITES) == list(workloads.EXPECTED_REPORTS)


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        cli.run_suite("nonsense", fm.ModelConfig(), 1)


def test_a_suite_that_raises_an_interp_error_is_a_counterexample_and_the_run_goes_on(monkeypatch, capsys):
    # a table generator that drops its last table: four of these suites
    # report the missing family, and the other four meet it as an error
    # (an encoding that no longer bijects, a family no longer listed); each
    # is reported as a counterexample and every suite runs
    names = ["bang-laws", "free-algebra", "bang-cardinality", "rel-lifting", "algop", "handler",
             "encoding-props", "parametric-counts"]
    monkeypatch.setattr(cli, "SUITES", {name: cli.SUITES[name] for name in names})
    generate = cli.ip._forward_check
    monkeypatch.setattr(cli.ip, "_forward_check", lambda *args: generate(*args)[:-1])
    code, out, err = run(capsys, "--format", "json", "verify", "all")
    reported = {(rep["theorem-id"], rep["status"]) for rep in map(json.loads, out.splitlines())}
    raised = {line.split(": counterexample: ")[0] for line in err.splitlines()}
    assert "Traceback" not in err
    assert raised == {"bang-laws", "free-algebra", "rel-lifting", "encoding-props"}
    assert reported == {(name, "counterexample")
                        for name in ("bang-cardinality", "algop-correspondence", "handler", "parametric-counts")}
    assert code == 1
