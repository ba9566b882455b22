"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench

They check that a seed fixes the inputs byte for byte, that the trace
wrappers change no answer, that a wrong answer is counted, and how
job times are brought to reference speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from brauerkit import brauer, graph  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402
from worker import run_round  # noqa: E402

DIGEST = """
import hashlib, sys, tempfile
sys.path.insert(0, {here!r})
from workloads import WORKLOADS, Round
setup, make_jobs = WORKLOADS[{workload!r}]
with tempfile.TemporaryDirectory() as tmp:
    jobs = make_jobs(Round({seed}, 0, tmp, setup()))
    text = repr([(job.kind, job.inputs) for job in jobs])
print(hashlib.sha256(text.encode()).hexdigest())
"""


def input_digest(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=str(hash_seed))
    code = DIGEST.format(here=HERE, workload=workload, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = input_digest(workload, 7, 1)
    assert input_digest(workload, 7, 2) == first
    if workload != "operad":   # operad's seed only picks check_derived_axioms' seed
        assert input_digest(workload, 8, 1) != first


def round_jobs(workload, seed, tmp_path):
    setup, make_jobs = workloads.WORKLOADS[workload]
    return make_jobs(workloads.Round(seed, 0, str(tmp_path), setup()))


@pytest.mark.parametrize("workload", ["diagrams", "graphs"])
def test_wrapped_calls_give_the_same_answers(workload, tmp_path):
    plain = run_round(round_jobs(workload, 3, tmp_path))
    tracer = Tracer()
    originals = (brauer.compose_detailed, graph.iso)
    tracer.install()
    try:
        assert brauer.compose_detailed is not originals[0]
        wrapped = run_round(round_jobs(workload, 3, tmp_path), tracer)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (brauer.compose_detailed, graph.iso) == originals
    assert plain["failed"] == wrapped["failed"] == 0
    assert wrapped["verdicts"] == plain["verdicts"]
    assert set(metrics) == set(metric_names())
    busy = "brauer_algebra.br_compose" if workload == "diagrams" else "graph.iso"
    assert metrics[f"{busy}.calls"] > 0
    assert 0 < metrics[f"{busy}.self_s"] <= metrics[f"{busy}.busy_s"]


def test_generator_spans_cover_each_item():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        wrapped = list(brauer.open_diagrams(3, 3))
        tracer.enabled = False
        plain = list(brauer.open_diagrams(3, 3))
    finally:
        tracer.uninstall()
    assert wrapped == plain and len(plain) == 15
    assert tracer.stats["brauer.open_diagrams"].calls == 1
    assert tracer.stats["pairing.all_pairings"].calls == 1


def test_wrong_answer_is_counted(tmp_path, monkeypatch):
    jobs = round_jobs("diagrams", 5, tmp_path)
    compose = brauer.compose

    def off_by_a_loop(f, g):
        h = compose(f, g)
        return brauer.make_diagram(h.m, h.n, h.pairs, h.closed + 1)

    monkeypatch.setattr(brauer, "compose", off_by_a_loop)
    record = run_round(jobs)
    failed = [k for k, v in zip(record["kinds"], record["verdicts"]) if v is None]
    composes = sum(job.kind == "diagrams.compose" for job in jobs)
    # every compose answer is wrong; the functoriality check on the first
    # Br_4 product composes too, so that job fails as well
    assert failed.count("diagrams.compose") == composes > 0
    assert record["failed"] == len(failed) == composes + 1


def test_raising_operation_is_counted(tmp_path, monkeypatch):
    jobs = round_jobs("diagrams", 5, tmp_path)

    def broken(*args):
        raise ValueError("broken")

    monkeypatch.setattr(brauer, "tensor", broken)
    record = run_round(jobs)
    assert record["failed"] == sum(job.kind == "diagrams.tensor" for job in jobs)
    assert all("raised ValueError('broken')" in e for e in record["errors"])


def test_tally_counts_vf2_disagreement():
    g = graph.graph_to_json(graph.wheel(4))
    h = graph.graph_to_json(graph.disjoint_union(graph.wheel(2), graph.wheel(2)))
    record = {"attempted": 3, "failed": 0, "errors": [], "vf2": [(g, g, True), (g, h, True)]}
    attempted, failed, errors = run.tally([record])
    assert (attempted, failed) == (3, 1) and len(errors) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "diagrams",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"] for m in spec["per_layer"]} == set(metric_names()) | {
        "wiring.check.checked_frac", "wiring.operad_gamma.per_checked",
        "species.segal_check.limit_frac", "trace.overhead_frac"}
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_nearest_rank():
    assert run.nearest_rank([3, 1, 2], 50) == 2
    assert run.nearest_rank([3, 1, 2], 90) == 3
    assert run.nearest_rank(list(range(1, 101)), 90) == 90


def test_reference_speed():
    probe = speed.SpeedProbe()
    # a probe every 0.1 s, timed at twice REFERENCE_S, 4 ms in all
    for i in range(40):
        probe.starts.append(i / 10 + 0.05)
        probe.times.append(2 * speed.REFERENCE_S)
        probe.spent.append(0.004)
    # ten ran inside [1.0, 2.0]: their time comes off, the rest is halved
    assert probe.reference(1.0, 2.0) == pytest.approx((1.0 - 10 * 0.004) / 2)
    # a job with no probe in its window is scaled by the nearest ones
    assert probe.reference(10.0, 10.001) == pytest.approx(0.0005)


def test_probe_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = speed.time.perf_counter() + 0.2
        while speed.time.perf_counter() < deadline:
            pass
    assert len(probe.times) > speed.NEAREST
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
