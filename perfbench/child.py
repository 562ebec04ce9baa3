"""One pass of a workload in a fresh interpreter: set up, then call
``polyeff.cli.run_suite`` once per suite, one suite at a time.

Prints one JSON object as its last line of standard output.  Run by
``run.py``; the numeric thread pools are pinned to one thread there.  The
child samples the host's speed while it runs (``speed.py``) and reports
each segment of its time with the samples taken in it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    ap.add_argument("--suites", help="comma-separated subset of the workload's suites to run")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from speed import Sampler

    sampler = Sampler()
    sampler.start()

    import polyeff.cli as cli
    import polyeff.finmodel as fm
    import polyeff.interp as ip
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = fm.ModelConfig.from_json(workload.config)
    setup_end = time.monotonic()
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup": sampler.segment(args.t0, setup_end)}))
        return 0
    suites = args.suites.split(",") if args.suites else workload.suites

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        modules = {name.split(".")[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("polyeff.") and mod is not None}
        missing = tracer.install(modules)
        if missing:
            print(f"perfbench: entry points not found, not traced: {', '.join(missing)}", file=sys.stderr)

    outcomes, bounds = {}, {}
    for suite in suites:
        t0 = time.monotonic()
        try:
            if tracer is None:
                reports = cli.run_suite(suite, cfg, args.seed)
            else:
                reports = tracer.root(f"paramlab.{suite}", cli.run_suite, suite, cfg, args.seed)
        except (ip.OutOfBoundError, fm.ModelError) as exc:
            outcomes[suite] = {"raised": type(exc).__name__, "detail": str(exc)}
        except Exception as exc:  # judged as a failed check by the parent
            traceback.print_exc()
            outcomes[suite] = {"raised": type(exc).__name__, "detail": str(exc)}
        else:
            outcomes[suite] = {"reports": [r.to_json(include_runtime=False) for r in reports]}
        bounds[suite] = (t0, time.monotonic())
    sampler.stop()

    result = {
        "setup": sampler.segment(args.t0, setup_end),
        "suites": {suite: sampler.segment(*span) for suite, span in bounds.items()},
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
