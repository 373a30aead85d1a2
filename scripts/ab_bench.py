#!/usr/bin/env python3
"""Paired A/B runs of the wire benchmark: a parent revision against a change.

    python3 scripts/ab_bench.py --parent HEAD~1 --workload fanin
    python3 scripts/ab_bench.py --parent main --change HEAD --pairs 10

The parent (and ``--change``, if given) is exported with ``git archive <rev> |
tar -x`` into a temporary directory, which leaves the repository's ``.git``
alone; without ``--change`` the change side is this checkout's working tree.
Each pair runs ``perfbench/run.py`` once per side on a fresh seed (``--seed``
plus the pair index), alternating which side goes first; the run length is the
benchmark's own default, so both sides run equally long.  For every workload
and end-to-end metric the script prints both sides' median and quartiles, the
share of pairs the change won (ties count for neither side) and whether the
gain rule holds: the change wins at least nine tenths of the pairs *and* its
median beats the parent's by more than the parent's interquartile range.  It
also checks the no-regression rule against the metric's bound in
``BENCHMARK.json``: ``WORSE`` when the change's median is worse than the
parent's by more than the bound; otherwise ``unresolved`` when either side's
interquartile range exceeds the bound (relative to its median) and not every
change run beats every parent run; otherwise ``ok``.

The last stdout line is one JSON object with every run and the summary.  The
exit code is 1 when any run reported ``correct: false`` or failed operations.
The script only runs ``perfbench/``; it never edits it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: runner(tree, workload, seed) -> the benchmark's final JSON object
Runner = Callable[[str, str, int], dict]


def export_revision(revision: str, dest: str, *, repo: str = ROOT) -> str:
    """Write the files of ``revision`` into ``dest`` (``git archive | tar -x``)."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", repo, "archive", revision],
                               stdout=subprocess.PIPE)
    try:
        untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    finally:
        archive.stdout.close()
        code = archive.wait()
    if code != 0:
        raise RuntimeError(f"git archive {revision!r} failed with exit code {code}")
    if untar.returncode != 0:
        raise RuntimeError(f"tar -x into {dest!r} failed with exit code "
                           f"{untar.returncode}")
    return dest


def run_perfbench(tree: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; returns its last stdout JSON line."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode} without "
                           f"a result; stderr tail: {proc.stderr[-2000:]}") from None


def quartiles(values: Sequence[float]) -> tuple:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: List[float], change: List[float], *, better: str,
              bound: float) -> dict:
    """The gain and bound verdicts for one metric over paired runs (index i = pair i)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if -gain > bound * abs(p_med):
        verdict = "WORSE"
    elif ((p_q3 - p_q1 > bound * abs(p_med) or c_q3 - c_q1 > bound * abs(c_med))
          and min(sign * c for c in change) <= max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "pairs": len(parent),
        "won": wins,
        "won_share": wins / len(parent),
        "gain_rule_met": wins >= 0.9 * len(parent) and gain > p_q3 - p_q1,
        "bound_verdict": verdict,
    }


def ab(parent_tree: str, change_tree: str, workloads: Sequence[str], *,
       pairs: int, seed: int, metrics: Sequence[dict],
       runner: Runner = run_perfbench) -> dict:
    """Run ``pairs`` alternating pairs per workload and summarize every metric."""
    runs: List[dict] = []
    summary: Dict[str, Dict[str, dict]] = {}
    for workload in workloads:
        values = {"parent": [], "change": []}
        for index in range(pairs):
            sides = [("parent", parent_tree), ("change", change_tree)]
            if index % 2:
                sides.reverse()
            for side, tree in sides:
                result = runner(tree, workload, seed + index)
                runs.append({"workload": workload, "pair": index, "side": side,
                             "seed": seed + index, "correct": result["correct"],
                             "failed": result["failed"],
                             "metrics": {name: metric["value"] for name, metric
                                         in result["metrics"].items()}})
                values[side].append(runs[-1]["metrics"])
        summary[workload] = {
            metric["name"]: summarize(
                [run[metric["name"]] for run in values["parent"]],
                [run[metric["name"]] for run in values["change"]],
                better=metric["better"], bound=metric["bound"])
            for metric in metrics}
    return {"runs": runs, "summary": summary}


def _report(outcome: dict) -> str:
    lines = [f"{'workload':<14} {'metric':<18} {'parent q1/med/q3':>28} "
             f"{'change q1/med/q3':>28} {'won':>6} {'gain':>5} {'bound':>10}"]
    for workload, per_metric in outcome["summary"].items():
        for name, row in per_metric.items():
            p, c = row["parent"], row["change"]
            lines.append(
                f"{workload:<14} {name:<18} "
                f"{p['q1']:>9.3f}/{p['median']:>9.3f}/{p['q3']:>8.3f} "
                f"{c['q1']:>9.3f}/{c['median']:>9.3f}/{c['q3']:>8.3f} "
                f"{row['won']:>3}/{row['pairs']:<2} "
                f"{'yes' if row['gain_rule_met'] else 'no':>5} "
                f"{row['bound_verdict']:>10}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change "
                        "(default: this checkout's working tree)")
    parser.add_argument("--workload", default="all",
                        help="a BENCHMARK.json workload name, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first pair; pair i runs seed + i")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    workloads = names if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as workdir:
        parent_tree = export_revision(args.parent, os.path.join(workdir, "parent"))
        change_tree = (ROOT if args.change is None else
                       export_revision(args.change, os.path.join(workdir, "change")))
        outcome = ab(parent_tree, change_tree, workloads, pairs=args.pairs,
                     seed=args.seed, metrics=benchmark["end_to_end"])
    print(_report(outcome), file=sys.stderr)
    print(json.dumps(outcome))
    healthy = all(run["correct"] and not run["failed"] for run in outcome["runs"])
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
