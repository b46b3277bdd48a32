"""One run of one workload in its own process; started by run.py.

Set-up, then whole rounds of timed operations until the next round would
end after ``--seconds`` (at least one round), then, with ``--trace 1``, a
traced set-up and round, and last the correctness checks.  Prints one JSON
object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--work", required=True, help="directory for inputs and outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads  # imports the program: part of set-up

    src = os.path.realpath(os.environ["DUNKLRIESZ_SRC"])
    if not os.path.realpath(workloads.cli.__file__).startswith(src + os.sep):
        print(f"error: dunklriesz imported from {workloads.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.work, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.round(state))
        wall = statistics.median(r.wall_s for r in rounds)
        if time.perf_counter() - start + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rounds),
        "round_walls": [r.wall_s for r in rounds],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }

    if args.trace:
        import layers
        from tracer import Tracer

        tr = Tracer()
        layers.install(tr)
        try:
            traced_state = wl.setup(os.path.join(args.work, "traced"), args.seed)
            mark = tr.mark()
            traced = wl.round(traced_state)
        finally:
            tr.uninstall()
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        values = layers.metrics(tr, mark, traced.wall_s, wall, traced.rows)
        result["per_layer"] = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
        for span in tr.absent:
            print(f"trace: {span} is absent from the program", file=sys.stderr)
        tr.write(os.path.join(args.work, "trace"), {
            "workload": args.workload, "seed": args.seed,
            "untraced_wall_s": wall, "traced_wall_s": traced.wall_s,
            "per_layer": values,
        })

    result["problems"] = wl.check(state, rounds[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
