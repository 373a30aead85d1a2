"""Self-tests of the wire benchmark: inputs, metric names, output checks, runs."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from perfbench import check, ledger, run, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT, timeout: float = 120):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workloads_repeat_per_seed_and_differ_across_seeds(name):
    first = workloads.build(name, 7)
    assert workloads.build(name, 7).fingerprint() == first.fingerprint()
    assert workloads.build(name, 8).fingerprint() != first.fingerprint()
    assert first.documents and all(first.subscriptions)


def test_benchmark_json_names_the_printed_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _scenario():
    """Two subscriptions, one document matching the first, one delivery."""
    subs = [check.Sub(0, "a", "/x", "g0:a", sent=1, acked=2),
            check.Sub(1, "b", "/y", "g1:b", sent=3, acked=4)]
    pub = check.Pub(0, 0, t_submit=0, submitted=5, t_ack=1, acked=6,
                    doc_id=1, matched=("g0:a",))
    match = check.Match(0, 1, ("a",), False, 2)
    return subs, pub, match, [frozenset({"/x"})]


def _verdict(subs, pubs, matches, answers) -> check.Verdict:
    verdict = check.Verdict()
    check.check_acks(pubs, subs, answers, verdict)
    check.check_notifications(pubs, matches, {"g0": 0, "g1": 1}, verdict)
    return verdict


def test_checker_accepts_a_correct_run():
    subs, pub, match, answers = _scenario()
    assert _verdict(subs, [pub], [match], answers).failed == 0


def test_checker_rejects_an_added_id():
    subs, pub, match, answers = _scenario()
    pub.matched = ("g0:a", "g1:b")
    extra = check.Match(1, 1, ("b",), False, 2)
    verdict = _verdict(subs, [pub], [match, extra], answers)
    assert verdict.wrong_matches == 1


def test_checker_rejects_a_removed_id():
    subs, pub, _match, answers = _scenario()
    pub.matched = ()
    verdict = _verdict(subs, [pub], [], answers)
    assert verdict.wrong_matches == 1


def test_checker_rejects_a_lost_notification():
    subs, pub, _match, answers = _scenario()
    verdict = _verdict(subs, [pub], [], answers)
    assert verdict.lost_notifications == 1 and verdict.wrong_matches == 0


def test_checker_tolerates_a_subscription_churned_mid_flight():
    subs, pub, match, answers = _scenario()
    subs[0].unsub_sent = 5  # sent before the document's ack was seen
    pub.matched = ()
    assert _verdict(subs, [pub], [], answers).failed == 0
    pub.matched = ("g0:a",)
    assert _verdict(subs, [pub], [match], answers).failed == 0


def test_ledger_reports_unpairable_flights_instead_of_zeros():
    # (name, start, end, cpu, thread, doc_id, count): two submits, one tokenize
    spans = [("service.submit", 0, 10, 5, 1, 1, 0),
             ("service.submit", 20, 30, 5, 1, 2, 0),
             ("xmlstream.tokenize", 40, 50, 10, 2, None, 12),
             ("service.wait", 10, 60, 5, 1, 1, 0)]
    phase = SimpleNamespace(start=0, end=100, pubs=[])
    _flights, problems = ledger._flights(spans, phase)
    assert problems and "submit spans" in problems[0]


def test_layer_check_prints_the_front_share_without_glue():
    shares = {"kernel": 0.45, "front": 0.55, "log": 0.0}
    ok, text = ledger.layer_check("notify", shares, 0.0, 0.17)
    assert ok and "without unattributed glue 0.170" in text
    ok, _text = ledger.layer_check("notify", {**shares, "kernel": 0.6,
                                              "front": 0.4}, 0.0, 0.1)
    assert not ok


def test_calibrator_times_slices_until_the_phase_ends():
    from perfbench.calibrate import SLICE_LOOPS, slowness

    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "calibrate.py"), "[]"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def command(line: str) -> dict:
        process.stdin.write(line + "\n")
        process.stdin.flush()
        return json.loads(process.stdout.readline())

    try:
        assert json.loads(process.stdout.readline()) == {"ready": True}
        assert command("begin") == {"slicing": True}
        time.sleep(0.2)
        reading = command("end")
        assert reading["slices"] >= 2
        assert 0 < slowness(reading["slice_cpu_s"], SLICE_LOOPS) < 100
    finally:
        process.stdin.close()
        assert process.wait(timeout=10) == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_runs_of_every_workload_pass_their_checks(trace):
    work = os.path.join(HERE, "_work")
    before = set(os.listdir(work)) if os.path.isdir(work) else set()
    result = _run("--workload", "all", "--size", "tiny", "--seconds", "1",
                  "--trace", trace)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    expected = {f"{name}.{metric}": unit for name in run.WORKLOADS
                for metric, unit in units.items()}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert set(os.listdir(work)) <= before  # WAL and span files removed


def test_a_checkout_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    result = _run("--workload", "notify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
