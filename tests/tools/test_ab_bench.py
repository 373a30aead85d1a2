"""``scripts/ab_bench.py``: the paired A/B protocol, checked with a stubbed runner.

The real runner starts the wire benchmark (30 s a run), so these tests replace it
with a function that returns scripted metric values and records its calls.  They
check the protocol itself: sides alternate which goes first, both sides of a pair
share a fresh seed, quartiles and wins are computed per metric in the metric's
direction, the gain rule needs both nine tenths of the pairs and a median gap
wider than the parent's interquartile range, and a spread wider than the bound
leaves the no-regression check unresolved.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "scripts", "ab_bench.py")

spec = importlib.util.spec_from_file_location("ab_bench", _SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "throughput_docs_s", "better": "higher", "bound": 0.25},
    {"name": "cpu_us_per_doc", "better": "lower", "bound": 0.25},
]


def _runner(script):
    """A runner returning ``script[(side tree, pair seed)]`` and logging its calls."""
    calls = []

    def run(tree, workload, seed):
        calls.append((tree, workload, seed))
        throughput, cpu = script[(tree, seed)]
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"throughput_docs_s": {"value": throughput, "unit": "docs/s"},
                            "cpu_us_per_doc": {"value": cpu, "unit": "us"}}}

    return run, calls


def _script(parent, change, seed=100):
    return {**{("P", seed + i): value for i, value in enumerate(parent)},
            **{("C", seed + i): value for i, value in enumerate(change)}}


def test_sides_alternate_and_share_a_fresh_seed_per_pair():
    values = [(100.0, 50.0)] * 4
    run, calls = _runner(_script(values, values))
    ab_bench.ab("P", "C", ["fanin"], pairs=4, seed=100, metrics=METRICS, runner=run)
    assert [(tree, seed) for tree, _w, seed in calls] == [
        ("P", 100), ("C", 100), ("C", 101), ("P", 101),
        ("P", 102), ("C", 102), ("C", 103), ("P", 103)]
    assert {workload for _t, workload, _s in calls} == {"fanin"}


def test_clear_gain_meets_the_rule_in_each_metric_direction():
    parent = [(100.0 + i, 50.0 - 0.1 * i) for i in range(10)]
    change = [(130.0 + i, 40.0 - 0.1 * i) for i in range(10)]
    run, _calls = _runner(_script(parent, change))
    outcome = ab_bench.ab("P", "C", ["fanin"], pairs=10, seed=100,
                          metrics=METRICS, runner=run)
    rows = outcome["summary"]["fanin"]
    for name in ("throughput_docs_s", "cpu_us_per_doc"):
        assert rows[name]["won"] == 10
        assert rows[name]["gain_rule_met"]
        assert rows[name]["bound_verdict"] == "ok"
    assert rows["throughput_docs_s"]["parent"]["median"] == pytest.approx(104.5)
    assert rows["throughput_docs_s"]["change"]["median"] == pytest.approx(134.5)
    assert len(outcome["runs"]) == 20


def test_eight_wins_in_ten_is_not_a_gain():
    parent = [(100.0, 50.0)] * 10
    change = [(120.0, 50.0)] * 8 + [(90.0, 50.0)] * 2
    run, _calls = _runner(_script(parent, change))
    row = ab_bench.ab("P", "C", ["fanin"], pairs=10, seed=100,
                      metrics=METRICS, runner=run)["summary"]["fanin"]
    assert row["throughput_docs_s"]["won"] == 8
    assert not row["throughput_docs_s"]["gain_rule_met"]
    # equal values are ties: neither side wins them
    assert row["cpu_us_per_doc"]["won"] == 0


def test_median_gap_inside_the_parent_spread_is_not_a_gain():
    parent = [(100.0 + 10 * (i % 4), 50.0) for i in range(10)]  # IQR of 20
    change = [(value + 5.0, cpu) for value, cpu in parent]  # always 5 better
    run, _calls = _runner(_script(parent, change))
    row = ab_bench.ab("P", "C", ["fanin"], pairs=10, seed=100,
                      metrics=METRICS, runner=run)["summary"]["fanin"]
    assert row["throughput_docs_s"]["won"] == 10
    assert not row["throughput_docs_s"]["gain_rule_met"]


def test_a_regression_beyond_the_bound_is_flagged():
    parent = [(100.0, 50.0)] * 3
    change = [(70.0, 70.0)] * 3  # 30% slower, 40% more CPU
    run, _calls = _runner(_script(parent, change))
    row = ab_bench.ab("P", "C", ["fanin"], pairs=3, seed=100,
                      metrics=METRICS, runner=run)["summary"]["fanin"]
    assert row["throughput_docs_s"]["bound_verdict"] == "WORSE"
    assert row["cpu_us_per_doc"]["bound_verdict"] == "WORSE"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # throughput: the change's median is higher, but the parent's IQR is 44% of
    # its median and the two sides' runs overlap
    # cpu: a spread as wide, yet every change run beats every parent run
    parent = [(60.0 + 20 * (i % 4), 100.0 + 20 * (i % 4)) for i in range(10)]
    change = [(70.0 + 20 * ((i + 2) % 4), 10.0 + 20 * (i % 4)) for i in range(10)]
    run, _calls = _runner(_script(parent, change))
    row = ab_bench.ab("P", "C", ["fanin"], pairs=10, seed=100,
                      metrics=METRICS, runner=run)["summary"]["fanin"]
    assert row["throughput_docs_s"]["bound_verdict"] == "unresolved"
    assert row["cpu_us_per_doc"]["bound_verdict"] == "ok"
    # the same spread inside a wider bound is resolved
    wide = [{**metric, "bound": 0.6} for metric in METRICS]
    row = ab_bench.ab("P", "C", ["fanin"], pairs=10, seed=100,
                      metrics=wide, runner=run)["summary"]["fanin"]
    assert row["throughput_docs_s"]["bound_verdict"] == "ok"


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_export_revision_writes_the_committed_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.com",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.com"}
    subprocess.run(["git", "init", "-q", str(repo)], check=True, env=env)
    (repo / "file.txt").write_text("committed\n")
    subprocess.run(["git", "-C", str(repo), "add", "file.txt"], check=True, env=env)
    subprocess.run(["git", "-C", str(repo), "commit", "-q", "-m", "one"], check=True,
                   env=env)
    (repo / "file.txt").write_text("uncommitted\n")
    dest = ab_bench.export_revision("HEAD", str(tmp_path / "out"), repo=str(repo))
    assert (tmp_path / "out" / "file.txt").read_text() == "committed\n"
    assert not (tmp_path / "out" / ".git").exists()
    assert dest == str(tmp_path / "out")
    with pytest.raises(RuntimeError):
        ab_bench.export_revision("no-such-rev", str(tmp_path / "bad"), repo=str(repo))
