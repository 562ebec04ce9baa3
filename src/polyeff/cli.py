"""Command-line driver: check, elaborate, eval, verify.

Exit codes: 0 all checks passed, 1 type error or counterexample,
2 usage or configuration error, an unreadable input file or a term to
evaluate with free type variables, 3 out-of-bound request.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

from . import encodings as enc
from . import finmodel as fm
from . import interp as ip
from . import paramlab as pl
from . import surface
from . import typecheck as tc
from .kernel import Judgment, free_type_vars_term

def _parser() -> argparse.ArgumentParser:
    # options are accepted both before and after the subcommand; SUPPRESS
    # keeps a subparser from clobbering values the main parser already set
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--monad", choices=fm.MONADS)
    common.add_argument("--exceptions", help="comma-separated exception names")
    common.add_argument("--bound", type=int)
    common.add_argument("--format", choices=["text", "json"])
    common.add_argument("--seed", type=int)
    common.add_argument("--config", help="JSON model-configuration file")
    p = argparse.ArgumentParser(prog="polyeff", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("check", parents=[common], help="parse and typecheck declaration files")
    c.add_argument("files", nargs="+")
    e = sub.add_parser("elaborate", parents=[common], help="print declarations with sugar expanded")
    e.add_argument("files", nargs="+")
    v = sub.add_parser("eval", parents=[common], help="evaluate a closed term in the configured model")
    v.add_argument("term")
    s = sub.add_parser("verify", parents=[common], help="run verification suites")
    s.add_argument("suite", choices=[*SUITES, "all"])
    s.add_argument("--n", type=int, default=2, help="arity for the algop suite")
    return p


def _opt(args, name: str, default):
    return getattr(args, name, default)


def load_config(args) -> fm.ModelConfig:
    """The ``--config`` file's configuration, overridden by the options given;
    raises ``fm.ModelError`` on a file or value it cannot use."""
    cfg = fm.ModelConfig()
    if _opt(args, "config", None):
        try:
            cfg = fm.ModelConfig.from_json(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise fm.ModelError(f"{args.config}: {exc}") from exc
    updates = {}
    if _opt(args, "monad", None) is not None:
        updates["monad"] = args.monad
    if _opt(args, "exceptions", None) is not None:
        updates["exceptions"] = tuple(x for x in args.exceptions.split(",") if x)
    if _opt(args, "bound", None) is not None:
        updates["bound"] = args.bound
    return replace(cfg, **updates)


def _free(cfg: fm.ModelConfig) -> ip.Model:
    """The model with the free algebra on every set up to the bound, so that
    every effect constant has a denotation."""
    return pl.build_model(cfg, range(cfg.bound + 1))


# ---------------------------------------------------------------------------
# check / elaborate


class InputError(Exception):
    """An input file that cannot be read (exit 2)."""


def process_file(path: str, constants, out: list) -> list[dict]:
    """Check one file's declarations; returns error records, raises ``InputError`` on an unreadable file."""
    errors = []
    try:
        decls = surface.parse_file(Path(path).read_text(encoding="utf-8"), path)
    except surface.SyntaxErr as exc:
        return [{"code": "SyntaxError", "span": str(exc.span), "detail": exc.message}]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None
    for decl in decls:
        if isinstance(decl, surface.TypeDecl):
            out.append((decl.name, "type", decl.ty, None))
            continue
        try:
            term = enc.elaborate_term(decl.term, constants=constants)
            checked = tc.typecheck(Judgment((), None, term, decl.ty), constants)
            out.append((decl.name, "def", checked, term))
        except tc.TypingError as exc:
            errors.append({"code": exc.code.value, "span": str(decl.span), "detail": exc.detail})
    return errors


def _checked_files(args):
    """``(path, errors, declarations)`` for each file, checked against the
    configured monad's constants."""
    cfg = load_config(args)
    constants = enc.register_effect_constants(cfg.monad_spec())
    for path in args.files:
        out: list = []
        errors = process_file(path, constants, out)
        yield path, errors, out


def cmd_check(args) -> int:
    status = 0
    for path, errors, out in _checked_files(args):
        if errors:
            status = 1
        if _opt(args, "format", "text") == "json":
            print(json.dumps({"file": path, "errors": errors, "checked": len(out)}, sort_keys=True))
        else:
            for err in errors:
                print(f"{err['span']}: {err['code']}: {err['detail']}")
            print(f"{path}: {len(out)} declaration(s) checked, {len(errors)} error(s)")
    return status


def cmd_elaborate(args) -> int:
    status = 0
    for _, errors, out in _checked_files(args):
        if errors:
            status = 1
            for err in errors:
                print(f"{err['span']}: {err['code']}: {err['detail']}")
        for name, kind, ty, term in out:
            if kind == "type":
                print(f"type {name} = {ty}")
            else:
                print(f"def {name} : {ty} = {term}")
    return status


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = load_config(args)
    try:
        model = _free(cfg)
        term = enc.elaborate_term(surface.parse_term(args.term), constants=model.constants)
        ty, run = model._compile(term, (), None)
        free = free_type_vars_term(term)
        if free:
            names = ", ".join(sorted(map(str, free)))
            print(f"eval needs a closed term, but type variables {names} occur free in it", file=sys.stderr)
            return 2
        sem = model.interp_vtype(ip.TypeEnv(), ty)
        if sem.size > 1 << ip.SIZE_BITS:  # a saturated size: neither it nor an index in it would print true
            raise ip.OutOfBoundError(f"eval reports a value by its index, but {ty} has more than 2**{ip.SIZE_BITS} values")
        if ip.decoded_entries(sem) > ip.ITER_CAP:
            raise ip.OutOfBoundError(f"eval prints a value entry by entry, but one of {ty} has more than ITER_CAP"
                                     f" ({ip.ITER_CAP}) entries")
        val = run(ip.TypeEnv(), {})
    except surface.SyntaxErr as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except tc.TypingError as exc:
        print(exc.to_json() if _opt(args, "format", "text") == "json" else str(exc), file=sys.stderr)
        return 1
    except ip.OutOfBoundError as exc:
        print(f"out of bound: {exc}", file=sys.stderr)
        return 3
    if _opt(args, "format", "text") == "json":
        print(json.dumps({
            "type": str(ty),
            "set": ip.semset_to_json(model, sem),
            "value": ip.decode_value(model, sem, val),
        }, sort_keys=True))
    else:
        print(f"type:  {ty}")
        decoded = json.dumps(ip.decode_value(model, sem, val))
        print(f"value: {decoded} (index {val} of {sem.size})")
    return 0


# ---------------------------------------------------------------------------
# verify


def _free_algebra(cfg, seed, n):
    model = _free(cfg)
    return [pl.verify_free_algebra(model), pl.free_algebra_negative_control(model)]


def _bang_cardinality(cfg, seed, n):
    reports = [pl.verify_bang_cardinality(_free(cfg))]
    id_cfg = fm.ModelConfig("identity", (), cfg.bound)
    reports.append(pl.verify_bang_cardinality(_free(id_cfg), sizes=(1, 2)))
    return reports


def _algop(cfg, seed, n):
    return [pl.verify_algop_correspondence(pl.build_model(cfg, (n,)), n)]


def _parametric_counts(cfg, seed, n):
    return [pl.verify_parametric_counts(_free(cfg), pl.build_model(cfg, ()))]


# Every suite, in the order `verify all` runs them: name -> runner taking
# (config, seed, algop arity).  Runners look paramlab's functions up when
# they run, so a wrapper later installed on the module sees every call.
SUITES: dict[str, Callable[[fm.ModelConfig, int, int], list[pl.VerificationReport]]] = {
    "typing": lambda cfg, seed, n: [pl.verify_typing_corpus()],
    "metatheory": lambda cfg, seed, n: [pl.verify_metatheory(seed)],
    "monad-laws": lambda cfg, seed, n: [pl.verify_monad_laws(4)],
    "rel-axioms": lambda cfg, seed, n: [pl.verify_rel_axioms(pl.build_model(cfg, ()))],
    "identity-extension": lambda cfg, seed, n: [
        pl.verify_identity_extension(pl.build_model(cfg, ()))],
    "abstraction": lambda cfg, seed, n: [
        pl.verify_abstraction(pl.build_model(cfg, ()), seed=seed)],
    "bang-laws": lambda cfg, seed, n: [pl.verify_bang_laws(_free(cfg))],
    "free-algebra": _free_algebra,
    "bang-cardinality": _bang_cardinality,
    "rel-lifting": lambda cfg, seed, n: [pl.verify_rel_lifting(_free(cfg))],
    "algop": _algop,
    "handler": lambda cfg, seed, n: [pl.verify_handler(_free(cfg))],
    "encoding-props": lambda cfg, seed, n: [pl.verify_encoding_props(_free(cfg))],
    "parametric-counts": _parametric_counts,
    "cbpv": lambda cfg, seed, n: [pl.verify_cbpv()],
}


def run_suite(name: str, cfg: fm.ModelConfig, seed: int, n: int = 2) -> list[pl.VerificationReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](cfg, seed, n)


def cmd_verify(args) -> int:
    if args.n < 0:
        print(f"--n must be a natural number, not {args.n}", file=sys.stderr)
        return 2
    cfg = load_config(args)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    status = 0
    for name in suites:
        try:
            reports = run_suite(name, cfg, _opt(args, "seed", 2024), _opt(args, "n", 2))
        except (ip.OutOfBoundError, fm.ModelError) as exc:
            print(f"{name}: out-of-bound: {exc}", file=sys.stderr)
            status = max(status, 3)
            continue
        except ip.InterpError as exc:
            print(f"{name}: counterexample: {exc}", file=sys.stderr)
            status = max(status, 1)
            continue
        for rep in reports:
            expected_negative = rep.theorem_id.endswith("negative-control")
            if _opt(args, "format", "text") == "json":
                print(rep.to_json(include_runtime=False))
            else:
                line = f"{rep.theorem_id}: {rep.status}"
                if rep.counts:
                    line += f" {rep.counts}"
                line += f" [{rep.runtime_ms:.0f} ms]"
                print(line)
                if rep.status == "out-of-bound" or (rep.status == "counterexample" and not expected_negative):
                    print(f"  witness: {rep.witness}")
            # a negative control must find its counterexample
            if rep.status == "out-of-bound":
                status = max(status, 3)
            elif (rep.status == "counterexample") != expected_negative:
                status = max(status, 1)
    return status


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "elaborate":
            return cmd_elaborate(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (fm.ModelError, InputError) as exc:
        print(exc if isinstance(exc, InputError) else f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
