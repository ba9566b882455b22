"""One benchmark process: set up, run one round of jobs, report.

    python3 perfbench/worker.py --workload W --seed N --round R \
        --spawned-at T --workdir DIR [--probe] [--trace]

run.py starts a fresh worker per round, so no round meets inputs an
earlier round left in brauerkit's caches.  setup_s runs from
--spawned-at (time.monotonic() in the parent just before the spawn) to
the end of the workload's set-up, brauerkit's imports included; with
--probe the worker stops there.
Otherwise it generates the round, times each job alone, checks each
answer untimed, and prints one JSON object as its last stdout line.
Set-up and job times are reported both as measured and at reference
speed (speed.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from oracles import WrongAnswer
from speed import SpeedProbe

ERRORS_KEPT = 5


def run_round(jobs, tracer=None):
    """Time each job alone, then check it; returns the round's record."""
    spans, kinds, verdicts, errors = [], [], [], []
    failed = 0
    with SpeedProbe() as probe:
        for job in jobs:
            error, verdict = run_job(job, tracer, spans)
            if error is not None:
                failed += 1
                if len(errors) < ERRORS_KEPT:
                    errors.append(error)
            kinds.append(job.kind)
            verdicts.append(verdict)
    times = [probe.reference(t0, t1) for t0, t1 in spans]
    raw = [t1 - t0 for t0, t1 in spans]
    return {"op_s": times, "raw_op_s": raw, "kinds": kinds, "verdicts": verdicts,
            "attempted": len(jobs), "failed": failed, "errors": errors,
            "wall_s": sum(times), "raw_wall_s": sum(raw), "probe_s": probe.median_s()}


def run_job(job, tracer, spans):
    """Run and time one job, appending its (start, end) to spans, then
    check its answer untimed; returns (error or None, verdict)."""
    # garbage left by the previous job and its check is collected here,
    # untimed, so it does not land in this job's time
    result = error = verdict = None
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a raising operation is a failed operation
        error = f"{job.kind} raised {exc!r}"
    spans.append((t0, time.perf_counter()))
    if tracer is not None:
        tracer.enabled = False
    if error is None:
        try:
            verdict = job.check(result)
        except WrongAnswer as exc:
            error = f"{job.kind}: {exc}"
    return error, verdict


def traced_metrics(tracer, rnd, checks):
    out = tracer.metrics()
    exhaustive = [r for r in checks if r.mode == "exhaustive"]
    candidates = sum(r.candidates for r in exhaustive)
    checked = sum(r.checked for r in checks)
    out["wiring.check.checked_frac"] = (
        sum(r.checked for r in exhaustive) / candidates if candidates else 0.0)
    out["wiring.operad_gamma.per_checked"] = (
        out["wiring.operad_gamma.calls"] / checked if checked else 0.0)
    values, legs = rnd.segal
    out["species.segal_check.limit_frac"] = values / legs if legs else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--trace", action="store_true", help="wrap brauerkit and report spans")
    args = ap.parse_args(argv)

    # the speed probe starts before brauerkit is imported, which is set-up
    with SpeedProbe() as probe:
        from workloads import WORKLOADS, Round

        setup, make_jobs = WORKLOADS[args.workload]
        fixed = setup()
        end = time.perf_counter()
        raw_setup_s = time.monotonic() - args.spawned_at
    setup_times = {"setup_s": probe.reference(end - raw_setup_s, end),
                   "raw_setup_s": raw_setup_s}
    if args.probe:
        print(json.dumps(setup_times))
        return 0

    tracer, checks = None, []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.hooks["wiring.check_circuit_algebra"] = checks.append
    rnd = Round(args.seed, args.round, args.workdir, fixed)
    record = run_round(make_jobs(rnd), tracer)
    record.update(setup_times)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["vf2"] = rnd.vf2
    if tracer is not None:
        record["trace"] = traced_metrics(tracer, rnd, checks)
        tracer.uninstall()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
