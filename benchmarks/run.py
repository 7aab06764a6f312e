"""Run one benchmark workload against the aci3 sources in this checkout.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/aci3``).

``--trace 0`` measures what a user sees.  One client runs one cold
``python -m aci3 <group> <action> ...`` process at a time and waits for it
to exit (a closed loop, two processes on the machine).  It runs whole
blocks of calls until ``--seconds`` have passed, then checks every output.

``--trace 1`` replays block 0 of the same call list inside this process
through ``aci3.cli.main``, alternating traced and untraced passes, and
reports per-layer figures from the spans (see ``tracing.py``), plus cold
start-up probes.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A detailed result (environment, failures by route and cause, sample counts)
and, with ``--trace 1``, the spans are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from importlib import metadata

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CALL_TIMEOUT_S = 60
PROBE_REPEATS = 5
# Generated up front during set-up; a run at the longest allowed --seconds
# finishes far fewer blocks than this on any workload.
BLOCKS = 64

E2E_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "call_ms.p50": "ms", "call_ms.p75": "ms",
             "cpu_ms_per_call": "ms", "peak_rss_mb": "MB"}


def _src_dir(root):
    return os.path.join(root, "src")


def child_env(out_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_dir(os.getcwd())
    env["ACI3_OUTPUT_DIR"] = out_dir
    return env


def cold_call(call, env):
    """Run one call in a fresh interpreter: (returncode, stdout, stderr, wall ms)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "aci3", *call.argv], env=env,
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timeout", (time.perf_counter() - t0) * 1e3
    return proc.returncode, proc.stdout, proc.stderr, (time.perf_counter() - t0) * 1e3


def probe_ms(args, env, repeats):
    """Median wall time of a cold interpreter running ``args``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def import_probe(env, repeats):
    """Median ``-X importtime`` cumulative times of ``import aci3.cli`` and of jsonschema."""
    total, schema = [], []
    for _ in range(repeats):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aci3.cli"],
                             env=env, capture_output=True, text=True, check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
        total.append(cumulative["aci3.cli"])     # includes the aci3 package and jsonschema
        schema.append(cumulative["jsonschema"])
    return statistics.median(total), statistics.median(schema)


def environment(seed, bare_ms):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        jsonschema_version = metadata.version("jsonschema")
    except metadata.PackageNotFoundError:
        jsonschema_version = "unknown"
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=git_env, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)), "jsonschema": jsonschema_version,
            "git_commit": commit, "seed": seed, "python.bare_ms": bare_ms}


def setup(name, seed, warm):
    """Build the call list, make the output directory and (optionally) run
    the untimed warm-up call.  Returns (blocks, out_dir, seconds taken)."""
    t0 = time.perf_counter()
    blocks = workloads.blocks(name, seed, BLOCKS)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    if warm:
        rc, out, err, _ = cold_call(workloads.WARMUP[name], child_env(out_dir))
        if checks.check(workloads.WARMUP[name], rc, out, err, out_dir) is not None:
            raise RuntimeError(f"warm-up call failed: {err.strip()[-500:]}")
    return blocks, out_dir, time.perf_counter() - t0


class Outcomes:
    """Checks each distinct call once; repeats of a call must print the same bytes."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.seen = {}
        self.failures = defaultdict(Counter)   # route -> cause -> count
        self.attempted = 0
        self.failed = 0

    def add(self, call, rc, out, err):
        self.attempted += 1
        if rc is None:
            cause = "timeout"
        elif call.argv in self.seen:
            first = self.seen[call.argv]
            cause = first[1] if first[0] == (rc, out) else "not-deterministic"
        else:
            cause = checks.check(call, rc, out, err, self.out_dir)
            self.seen[call.argv] = ((rc, out), cause)
        if cause is not None:
            self.failed += 1
            self.failures[call.route][cause] += 1


def run_cold(name, seed, seconds):
    blocks, out_dir, took = setup(name, seed, warm=True)
    setups = [took]
    env = child_env(out_dir)
    bare_ms = probe_ms(["-c", "pass"], env, 3)

    results, walls, per_block = [], [], []   # per_block: (completed calls, wall s, child CPU s)
    by_stratum = defaultdict(list)
    timed = 0.0
    for i, block in enumerate(blocks):
        if i:
            # Set up again between blocks, so that the median set-up time
            # samples the whole run, as the other figures do.
            _, spare_dir, took = setup(name, seed, warm=True)
            shutil.rmtree(spare_dir)
            setups.append(took)
        usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0, done = time.perf_counter(), 0
        for call in block:
            rc, out, err, ms = cold_call(call, env)
            results.append((call, rc, out, err))
            if rc is not None:
                walls.append(ms)
                by_stratum[call.stratum].append(ms)
                done += 1
        usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = usage1.ru_utime + usage1.ru_stime - usage0.ru_utime - usage0.ru_stime
        per_block.append((done, time.perf_counter() - t0, cpu))
        timed += per_block[-1][1]
        if timed >= seconds:
            break

    outcomes = Outcomes(out_dir)
    for call, rc, out, err in results:
        outcomes.add(call, rc, out, err)
    shutil.rmtree(out_dir)

    # Rates are medians over blocks (every block runs the same mix), so a
    # burst of load from a neighbour on a shared machine moves one block
    # rather than the whole figure.
    metrics = {
        "setup_s": statistics.median(setups),
        "calls_per_s": statistics.median(n / wall for n, wall, _ in per_block),
        "call_ms.p50": statistics.median(walls),
        "call_ms.p75": statistics.quantiles(walls, n=4)[2],
        "cpu_ms_per_call": statistics.median(cpu * 1e3 / n for n, _, cpu in per_block if n),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    detail = {"calls": len(results), "completed": len(walls), "timed_s": timed,
              "blocks": len(per_block), "setups": len(setups),
              "per_block": per_block, "setup_runs_s": setups,
              "stratum_median_ms": {k: statistics.median(v) for k, v in sorted(by_stratum.items())}}
    return metrics, E2E_UNITS, outcomes, detail, bare_ms


def replay(cli, call):
    """One in-process request: (returncode, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(call.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - reported as a failed call, run continues
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def run_traced(name, seed, seconds):
    import tracing

    t_start = time.perf_counter()
    blocks, out_dir, _ = setup(name, seed, warm=False)
    env = child_env(out_dir)
    bare_ms = probe_ms(["-c", "pass"], env, PROBE_REPEATS)
    import_ms, jsonschema_ms = import_probe(env, PROBE_REPEATS)

    os.environ["ACI3_OUTPUT_DIR"] = out_dir
    from aci3 import cli

    block = blocks[0]
    tracer = tracing.Tracer()
    requests = {}                             # request id -> call, traced passes only

    def plain_pass():
        return [replay(cli, call) for call in block]

    def traced_pass():
        tracer.install()
        try:
            got = []
            for call in block:
                rid = len(requests)
                requests[rid] = call
                close = tracer.request_span(rid, call.route)
                try:
                    got.append(replay(cli, call))
                finally:
                    close()
            return got
        finally:
            tracer.remove()

    plain_pass()                              # warm-up: lazy imports, schema cache
    outcomes = Outcomes(out_dir)
    took = {plain_pass: 0.0, traced_pass: 0.0}
    passes = 0
    while passes == 0 or time.perf_counter() - t_start < seconds:
        # Alternate which pass goes first, so that neither gains from
        # running second.
        order = (traced_pass, plain_pass) if passes % 2 == 0 else (plain_pass, traced_pass)
        for run_pass in order:
            t0 = time.perf_counter()
            got = run_pass()
            took[run_pass] += time.perf_counter() - t0
            for call, outcome in zip(block, got):
                outcomes.add(call, *outcome)
        passes += 1
    shutil.rmtree(out_dir)

    metrics = {"python.bare_ms": bare_ms, "cli.import_ms": import_ms,
               "cli.import_jsonschema_ms": jsonschema_ms}
    metrics.update(tracing.layer_metrics(tracer, requests))
    metrics["cli.payload_bytes"] = sum(len(o[0][1].encode()) for o in outcomes.seen.values()) \
        / len(outcomes.seen)
    metrics["trace.overhead_ratio"] = took[traced_pass] / took[plain_pass]
    units = {k: _layer_unit(k) for k in metrics}
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    detail = {"requests_traced": len(requests), "block_calls": len(block),
              "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path)}
    return metrics, units, outcomes, detail, bare_ms


def _layer_unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("ratio", "yield")):
        return "1"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(_src_dir(os.getcwd()), "aci3", "cli.py")):
        print("error: run from the root of an aci3 checkout (no src/aci3/cli.py here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, _src_dir(os.getcwd()))   # the checks and the traced replay import aci3

    run = run_traced if args.trace else run_cold
    metrics, units, outcomes, detail, bare_ms = run(args.workload, args.seed, args.seconds)

    env = environment(args.seed, bare_ms)
    failures = {route: dict(causes) for route, causes in outcomes.failures.items()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  python.bare_ms {bare_ms:.1f}")
    summary = {k: v for k, v in detail.items() if not isinstance(v, (list, dict))}
    print(f"attempted {outcomes.attempted}  failed {outcomes.failed}  "
          f"fail_ratio {outcomes.failed / outcomes.attempted:.4f}  {json.dumps(summary)}")
    for route, causes in sorted(failures.items()):
        print(f"FAILED {route}: {causes}")
    for key, value in metrics.items():
        print(f"{key:48s} {value:14.4f} {units[key]}")

    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "workload": args.workload, "seconds": args.seconds,
                   "environment": env, "failures": failures, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
