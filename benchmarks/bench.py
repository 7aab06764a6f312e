"""Run chosen workloads, print every metric by name with its unit, and write
one JSON result.

    python3 benchmarks/bench.py --seed 1 [--workloads cli-mix,oracle-ladder]
                                [--seconds 25] [--out benchmarks/out/BENCH.json]

Run from the root of a checkout.  Each workload is run twice through
``run.py``: once untraced for the end-to-end metrics and once traced for the
per-layer metrics.  The result file holds both, with the environment
(Python, CPU model, nproc, jsonschema version, git commit, seed,
``python.bare_ms``) and any failures by route and cause.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "BENCH.json"))
    args = parser.parse_args(argv)

    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        cold = _run(name, args.seed, args.seconds, 0)
        traced = _run(name, args.seed, args.seconds, 1)
        result.setdefault("environment", cold["environment"])
        result["workloads"][name] = {
            "correct": cold["correct"] and traced["correct"],
            "attempted": cold["attempted"],
            "failed": cold["failed"],
            "failures": cold["failures"],
            "python.bare_ms": cold["environment"]["python.bare_ms"],
            "end_to_end": cold["metrics"],
            "per_layer": traced["metrics"],
            "detail": {"untraced": cold["detail"], "traced": traced["detail"]},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
