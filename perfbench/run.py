"""brauerkit benchmark: four workloads, checked answers, one JSON line.

    python3 perfbench/run.py --workload {ca-check,operad,graphs,diagrams} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; brauerkit is imported from src/.  The
load is a closed loop with one client: rounds run one after another,
each in a fresh worker process (worker.py), each job timed alone, the
next job starting only after the previous answer is in.  Rounds start
while the longest round so far still fits in --seconds; there is
always at least one.

--trace 0 prints the end-to-end metrics.  Times are at reference speed
(speed.py): measured, then scaled by how fast the host ran a fixed
probe loop meanwhile, so that they do not follow the shared host's
drift.
  setup_s      median over worker processes (at least SETUP_SAMPLES,
               padded with set-up-only workers) of the time from spawn to
               the end of set-up: interpreter start, brauerkit imports
               and the workload's fixed library-built inputs
  wall_ref_s   median over rounds of the summed job times of a round
  op_p50_ref_ms, op_p90_ref_ms
               nearest-rank percentiles of all job times of the run
  ok_frac      jobs that returned a correct answer / jobs attempted
  peak_rss_mb  median over rounds of the worker's peak resident memory
The lines before the result also give the measured times and the
probe's median time.
--trace 1 runs round 0 twice, wrapped (spans.py) and plain, prints
the per-layer metrics of the wrapped run plus trace.overhead_frac
(wrapped wall_ref_s / plain wall_ref_s - 1), and requires identical verdicts.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines before it repeat the metrics for people.  Exit status 0 means
a result was printed; anything else (no brauerkit to import, a worker
that crashed or overran) exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ca-check", "operad", "graphs", "diagrams")
SETUP_SAMPLES = 5
DEADLINE_S = 170     # the whole invocation, so a stuck worker cannot hold it past 180 s

UNITS = {"setup_s": "s", "wall_ref_s": "ref-s", "op_p50_ref_ms": "ref-ms",
         "op_p90_ref_ms": "ref-ms", "ok_frac": "frac", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def spawn(args, workdir, round_index, deadline, probe=False, trace=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--round", str(round_index), "--workdir", workdir]
    cmd += ["--probe"] if probe else []
    cmd += ["--trace"] if trace else []
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before the next worker")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker overran the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(records):
    """(attempted, failed, error messages) over worker records; an iso
    answer that networkx VF2 contradicts is one more failed job."""
    samples = [s for r in records for s in r["vf2"]]
    wrong = []
    if samples:
        from oracles import vf2_isomorphic

        wrong = [f"iso says {found}, VF2 disagrees" for g, h, found in samples
                 if vf2_isomorphic(g, h) != found]
    return (sum(r["attempted"] for r in records),
            sum(r["failed"] for r in records) + len(wrong),
            [e for r in records for e in r["errors"]] + wrong)


def untraced(args, workdir, deadline):
    rounds, longest = [], 0.0
    start = time.monotonic()
    while not rounds or time.monotonic() - start + longest <= args.seconds:
        t0 = time.monotonic()
        rounds.append(spawn(args, workdir, len(rounds), deadline))
        longest = max(longest, time.monotonic() - t0)
    setups = [{k: r[k] for k in ("setup_s", "raw_setup_s")} for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, workdir, 0, deadline, probe=True))
    ops = [t for r in rounds for t in r["op_s"]]
    attempted, failed, errors = tally(rounds)
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_ref_s": median(r["wall_s"] for r in rounds),
        "op_p50_ref_ms": nearest_rank(ops, 50) * 1e3,
        "op_p90_ref_ms": nearest_rank(ops, 90) * 1e3,
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }
    raw = [t for r in rounds for t in r["raw_op_s"]]
    notes = [f"{len(rounds)} round(s), {attempted} jobs, {len(setups)} set-ups",
             f"as measured: set-up {median(s['raw_setup_s'] for s in setups):.4g} s, "
             f"wall {median(r['raw_wall_s'] for r in rounds):.4g} s, "
             f"op p50 {nearest_rank(raw, 50) * 1e3:.4g} ms, p90 {nearest_rank(raw, 90) * 1e3:.4g} ms",
             f"probe {median(r['probe_s'] for r in rounds) * 1e6:.4g} us"]
    return attempted, failed, errors, {k: (v, UNITS[k]) for k, v in metrics.items()}, notes


def traced(args, workdir, deadline):
    wrapped = spawn(args, workdir, 0, deadline, trace=True)
    plain = spawn(args, workdir, 0, deadline)
    attempted, failed, errors = tally((wrapped, plain))
    if wrapped["verdicts"] != plain["verdicts"]:
        errors.append("the wrapped run's verdicts differ from the plain run's")
        failed += 1
    metrics = {name: (value, per_layer_unit(name)) for name, value in wrapped["trace"].items()}
    metrics["trace.overhead_frac"] = (wrapped["wall_s"] / plain["wall_s"] - 1, "ratio")
    return attempted, failed, errors, metrics, [f"{wrapped['attempted']} jobs, traced and plain"]


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name.endswith(".cache_entries"):
        return "count"
    return "ratio"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    package = os.path.join(ROOT, "src", "brauerkit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no brauerkit sources under {package}", file=sys.stderr)
        return 2
    # an installed package has its bytecode compiled; so does the checkout
    compileall.compile_dir(package, quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = traced if args.trace else untraced
        attempted, failed, errors, metrics, notes = run(args, workdir, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors:
        print(f"wrong: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
