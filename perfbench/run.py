"""finehier benchmark: one command for every workload.

    python3 perfbench/run.py --workload levels-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # all three workloads

Run from anywhere; finehier is taken from the ``src`` directory next to
this one.  Each workload runs in fresh processes: the set-up clock runs
from the start of a worker process to the moment its inputs are ready,
several times, and the last worker goes on to measure.  The last line of
standard output is the result as one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("levels-sweep", "order-sweep", "queries")
SETUP_RUNS = 9        # set-up is timed this many times per run
RUN_TIMEOUT = 170     # seconds; a run must end inside 180


def _worker(args, setup_only):
    """Start one worker; return (set-up seconds, its output lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    # its own process group, so that a stuck worker goes with its children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return setup, rest.splitlines()


def _timed_out(signum, frame):
    raise SystemExit("the run went past its time limit")


def run_one(args):
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(RUN_TIMEOUT)
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker(args, True)[0])
    setup, lines = _worker(args, False)
    setups.append(setup)
    signal.alarm(0)
    if not lines:
        raise SystemExit("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny bounds for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (SRC / "finehier" / "__init__.py").is_file():
        print(f"error: no finehier sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_one(args)))
        return 0
    results = {}
    for name in WORKLOADS:
        args.workload = name
        res = results[name] = run_one(args)
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        for metric, m in sorted(res["metrics"].items()):
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
