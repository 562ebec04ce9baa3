"""The polyeff benchmark: time-to-verdict, reach and per-module costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of a workload is a
fresh child interpreter (``child.py``) that calls ``polyeff.cli.run_suite``
for the workload's suites one at a time: a closed loop with one client
and one thread.  Times are converted to a fixed reference speed of the
host, sampled while each child runs (``speed.py``).  The last line of
standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of a traced pass.  See README.md for the workloads, the
known answers and how to read the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import ALL_SUITES, SEEDED_SUITES, WORKLOADS, judge  # noqa: E402

# Measured wall time of one untraced pass on a busy 2-core x86-64 host
# (Python 3.11, numpy 2.4).  They set how many passes fit in --seconds; the
# count depends only on the arguments, so one seed always gives the same inputs.
PASS_SECONDS = {"semantics": 12.0, "evaluation": 9.0, "modelfree": 9.0, "reach": 13.0}
# The seed the timed passes hand to the seeded suites: the default of
# `polyeff verify`, so the timed work is exactly `verify all`.  The cost of
# a seeded suite changes with its seed by more than any bound allows (for
# abstraction, 5.0-11.1 s over seeds 1-10), so --seed drives the inputs
# of a separate, untimed check of those suites instead.
TIMED_SEED = 2024
MIN_PASSES = 2
SETUP_SAMPLES = 9  # extra set-up-only children per run, besides each pass's own
COVERAGE_TOLERANCE = 0.10  # traced per-layer self times must cover wall_s this closely
RUN_LIMIT_S = 175.0


class BenchError(Exception):
    pass


def pass_wall(workload, passes) -> float:
    """Time of one pass over the workload's suites at the reference speed:
    for each suite, the median over passes."""
    return sum(statistics.median(speed.corrected(p["suites"][suite]) for p in passes)
               for suite in workload.suites)


def raw_wall(pass_result) -> float:
    return sum(seg["raw"] for seg in pass_result["suites"].values())


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--t0", repr(time.monotonic()), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass did not finish in {timeout:.0f} s: {' '.join(args)}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def digest(lines) -> str:
    """A short stable digest of a sequence of strings."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def verdicts(pass_result) -> list[dict]:
    out = []
    for suite in pass_result["outcomes"]:
        for v in judge(suite, pass_result["outcomes"][suite]):
            out.append({"suite": suite, **v})
    return out


def report_lines(pass_result) -> list[str]:
    lines = []
    for suite, outcome in pass_result["outcomes"].items():
        lines.extend(outcome.get("reports") or [f"{suite} raised {outcome.get('raised')}"])
    return lines


SRC_MODULES = ("__init__", "cli", "encodings", "finmodel", "interp", "kernel",
               "paramlab", "randterms", "surface", "typecheck")


def src_loc() -> dict[str, int]:
    """Line count of each polyeff module (0 once it is gone) and of the whole package."""
    counts = {}
    for path in (ROOT / "src" / "polyeff").glob("*.py"):
        with open(path) as fh:
            counts[path.stem] = sum(1 for _ in fh)
    out = {f"src.{m}.loc": counts.get(m, 0) for m in SRC_MODULES}
    out["src.total.loc"] = sum(counts.values())
    return out


def facts() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "polyeff" / "__init__.py").is_file():
        print(f"perfbench: no polyeff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload.name]

    seeded = [s for s in workload.suites if s in SEEDED_SUITES]
    try:
        run_child(base + ["--seed", str(args.seed), "--setup-only"], deadline)  # warm the caches
        setup_runs = [run_child(base + ["--seed", str(args.seed), "--setup-only"], deadline)
                      for _ in range(SETUP_SAMPLES)]
        extra = []
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{workload.name}-{args.seed}.jsonl"
            plain = run_child(base + ["--seed", str(args.seed)], deadline)
            traced = run_child(base + ["--seed", str(args.seed), "--trace", "1",
                                       "--spans", str(spans)], deadline)
            passes = [plain, traced]
        else:
            n = max(MIN_PASSES, math.floor(args.seconds / PASS_SECONDS[workload.name]))
            passes = [run_child(base + ["--seed", str(TIMED_SEED)], deadline) for _ in range(n)]
            if seeded:
                extra = [run_child(base + ["--seed", str(args.seed), "--suites", ",".join(seeded)],
                                   deadline)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    children = setup_runs + passes + extra
    setup_s = statistics.median(speed.corrected(c["setup"]) for c in children)
    checks = [v for p in passes + extra for v in verdicts(p)]
    failed = [v for v in checks if v["failed"]]
    for v in failed:
        print(f"perfbench: wrong verdict: {v['suite']}/{v['id']}: {v['why']}", file=sys.stderr)
    correct = not failed
    digests = [digest(report_lines(p)) for p in passes]
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "report_digests": digests, "raw_walls": [raw_wall(p) for p in passes],
            **facts()}

    # the passes of a run all hand the suites one seed, so they repeat their reports
    unstable = [s for s in workload.suites if len({json.dumps(p["outcomes"][s]) for p in passes}) > 1]
    if unstable:
        print(f"perfbench: reports differ between passes at one seed: {unstable}", file=sys.stderr)
        correct = False

    if args.trace:
        plain, traced = passes
        layers = traced["layers"]
        layer_self = sum(layers[f"{name}.self_s"] for name in LAYERS)
        coverage = layer_self / raw_wall(traced)
        if abs(coverage - 1) > COVERAGE_TOLERANCE:
            print(f"perfbench: layer self times cover {coverage:.3f} of wall_s", file=sys.stderr)
            correct = False
        info["calls_digest"] = digest(f"{k}={v}" for k, v in sorted(layers.items()) if k.endswith(".calls"))
        metrics = {k: (v, "count" if k.endswith((".calls", ".count")) else
                       "s" if k.endswith("_s") else "ratio") for k, v in layers.items()}
        for suite in ALL_SUITES:
            seg = plain["suites"].get(suite)
            metrics[f"paramlab.{suite}.wall_s"] = (speed.corrected(seg) if seg else 0.0, "s")
        metrics.update({k: (v, "lines") for k, v in src_loc().items()})
        metrics["trace.coverage"] = (coverage, "ratio")
        metrics["trace.overhead_ratio"] = (pass_wall(workload, [traced]) / pass_wall(workload, [plain]), "ratio")
        metrics["trace.wall_s"] = (pass_wall(workload, [traced]), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (pass_wall(workload, passes), "s"),
            "peak_rss_mb": (statistics.fmean(p["rss_mb"] for p in passes), "MB"),
            "decided_frac": (sum(v["decided"] for v in checks) / len(checks), "ratio"),
            "correct_frac": (1 - len(failed) / len(checks), "ratio"),
        }

    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
