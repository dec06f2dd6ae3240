"""One repetition of one workload in a fresh interpreter.

Spawned by ``run.py`` with ``PYTHONHASHSEED=0`` and the program's ``src``
on ``PYTHONPATH``; not meant to be run by hand.  Set-up time runs from the
parent's spawn instant (passed as a ``time.monotonic()`` reading, a
system-wide clock on Linux) to the end of the program imports.  The rep
prints one ``@@result <json>`` line: timings, counts, the simulated
statistics and digest, failed checks, and -- when traced -- the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced rep's spans here as JSONL")
    args = parser.parse_args(argv)

    import tracing
    import workloads

    setup_s = time.monotonic() - args.spawned
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            run = workload.execute(args.seed, args.smoke, tracer, args.workdir)
    else:
        tracer = tracing.Stopwatch()
        run = workload.execute(args.seed, args.smoke, tracer, args.workdir)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": run.wall_s,
        "study_latencies_s": run.study_latencies_s,
        "intents": run.intents,
        "pairs": run.pairs,
        "ops": run.ops,
        "failures": workload.check(run),
        "sim": workload.simulated(run),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        record["layers"] = tracer.metrics()
        record["layers_absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    print("@@result " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
