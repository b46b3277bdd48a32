"""The dunklriesz benchmark.

    python3 perfbench/run.py --workload <z2-verify|exact-verify|eval-points> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts the workload in its own
process (perfbench/worker.py) with the program imported from ./src, one
thread, and BLAS/OpenMP thread counts set to one.  With --trace 0 it prints
the end-to-end metrics; set-up is made three times (twice in set-up-only
processes, once in the measured process) and its median reported.  With
--trace 1 it prints the per-layer metrics of a traced round instead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Inputs, outputs and traces go to .perfbench/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["DUNKLRIESZ_SRC"] = src
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args, work: Path, deadline: float, setup_only: bool = False, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload ran")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dunklriesz benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "dunklriesz" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'dunklriesz'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / args.workload
    try:
        if args.trace:
            res = run_worker(args, work, deadline, trace=1)
            metrics = res["per_layer"]
        else:
            setups = [
                run_worker(args, work / f"setup{k}", deadline, setup_only=True)["setup_s"]
                for k in range(SETUP_SAMPLES - 1)
            ]
            res = run_worker(args, work, deadline)
            setups.append(res["setup_s"])
            values = {**res, "setup_s": statistics.median(setups)}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for p in res["problems"]:
        print(f"incorrect: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
