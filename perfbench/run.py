#!/usr/bin/env python3
"""The wire-level benchmark of the pub/sub stack.

    python3 perfbench/run.py --workload notify --seed 1 --seconds 30 --trace 0

Starts a ``WireServer`` in a process of its own, drives it over two
connections from this process, checks every result against the DOM oracle and
prints, as the last stdout line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ledger with ``--trace 1``).  The line before it is a JSON record of
the run: the machine calibration, generator set-up time, sample counts and
warnings.  ``--workload all`` runs every workload and prints a table of all
end-to-end metrics.  The exit code is 1 when an output check failed and 2 when
the package source is missing.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

#: end-to-end metrics: name -> unit (BENCHMARK.json holds bounds and direction)
END_TO_END = {
    "throughput_docs_s": "docs/s",
    "ack_p50_ms": "ms",
    "notify_p50_ms": "ms",
    "cpu_us_per_doc": "us",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "xmlstream.tokenize_us_per_doc": "us",
    "xmlstream.tokens_per_doc": "count",
    "core.filter_us_per_doc": "us",
    "core.filter_ns_per_token": "ns",
    "core.matches_per_doc": "count",
    "core.register_us": "us",
    "core.unregister_us": "us",
    "core.trie_nodes": "count",
    "core.distinct_plans": "count",
    "core.modeled_kbits": "kbit",
    "core.memory_report_us": "us",
    "service.admit_us": "us",
    "service.queue_wait_us": "us",
    "service.hop_us_per_doc": "us",
    "service.docs_per_batch": "count",
    "service.notifications_per_doc": "count",
    "service.dropped_notifications": "count",
    "governor.observe_us": "us",
    "governor.transitions": "count",
    "durable.append_us": "us",
    "durable.cursor_append_us": "us",
    "durable.wal_bytes_per_doc": "bytes",
    "durable.cursor_records_per_doc": "count",
    "durable.compactions": "count",
    "durable.compact_ms": "ms",
    "net.rtt_self_us_per_doc": "us",
    "net.encode_us_per_doc": "us",
    "net.frames_per_doc": "count",
    "net.bytes_per_doc": "bytes",
    "bench.ack_p99_ms": "ms",
    "bench.ack_p99_samples": "count",
    "bench.notify_p99_ms": "ms",
    "bench.notify_p99_samples": "count",
    "bench.generator_busy_frac": "ratio",
    "bench.unattributed_us_per_doc": "us",
    "bench.wrapper_us_per_doc": "us",
    "bench.trace_overhead_frac": "ratio",
    "ledger.server_cpu_us_per_doc": "us",
    "ledger.xmlstream_us_per_doc": "us",
    "ledger.core_us_per_doc": "us",
    "ledger.service_us_per_doc": "us",
    "ledger.governor_us_per_doc": "us",
    "ledger.durable_us_per_doc": "us",
    "ledger.net_us_per_doc": "us",
    "ledger.kernel_share": "ratio",
    "ledger.front_share": "ratio",
    "ledger.front_self_share": "ratio",
    "ledger.log_share": "ratio",
}

WORKLOADS = ("notify", "fanin", "durable_churn")
#: server launches per run whose set-up time is measured (median reported)
SETUPS = 5
#: alternating throughput/latency rounds per untraced run (medians reported)
ROUNDS = 10


async def measure(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool) -> dict:
    """Run one workload; returns the result line and the run record."""
    from perfbench import check, ledger
    from perfbench.loadgen import (
        ack_latencies_ms,
        median,
        notify_latencies_ms,
        percentile,
    )
    from perfbench.workloads import build, oracle

    started = time.perf_counter()
    workload = build(name, seed, tiny=tiny)
    answers = oracle(workload)
    record = {"workload": name, "seed": seed, "trace": trace,
              "fingerprint": workload.fingerprint()[:16],
              "generator_setup_s": time.perf_counter() - started,
              "warnings": []}
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        drive = await _drive(workload, work_dir, seconds, trace, tiny)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    trial, phases, stats = drive["trial"], drive["phases"], drive["stats"]

    verdict = check.Verdict()
    check.check_acks(trial.pubs, trial.subs, answers, verdict)
    conn_of = {f"g{conn}": conn for conn in range(len(trial.clients))}
    check.check_notifications(trial.pubs, trial.matches, conn_of, verdict)
    attempted = drive["earlier_ops"] + len(trial.pubs) + trial.sub_ops
    failed = drive["earlier_failures"] + verdict.failed + trial.sub_failures
    invariants = {
        "client_dropped_matches": drive["dropped_matches"],
        "service_dropped_notifications":
            stats["metrics"]["dropped_notifications"],
        "governor_transitions": stats["transitions"],
    }
    throughputs = [phase for phase in phases.values()
                   if phase.name in ("A", "throughput")]
    latencies = [phase for phase in phases.values()
                 if phase.name in ("B", "latency")]
    ack_rounds = [ack_latencies_ms(phase) for phase in latencies]
    notify_rounds = [notify_latencies_ms(phase, trial.matches)
                     for phase in latencies]
    acks = [value for values in ack_rounds for value in values]
    notes = [value for values in notify_rounds for value in values]
    correct = (failed == 0 and not any(invariants.values())
               and all(phase.acked for phase in throughputs)
               and all(ack_rounds) and all(notify_rounds))
    wall = sum(phase.seconds for phase in throughputs)
    generator_busy = sum(p.generator_cpu_s for p in throughputs) / wall
    server_busy = sum(p.server_cpu_s for p in throughputs) / wall
    record.update(
        ops_failed_frac=failed / max(1, attempted),
        failures=verdict.examples, invariants=invariants,
        setup_samples_s=drive["setups"], warmup_docs=drive["warmup"].acked,
        samples={"throughput_docs": sum(p.acked for p in throughputs),
                 "ack": len(acks), "notify": len(notes)},
        rounds={"throughput_docs_s": [p.acked / p.seconds
                                      for p in throughputs],
                "cpu_us_per_doc": [p.server_cpu_s * 1e6 / max(1, p.acked)
                                   for p in throughputs],
                "slowness": [p.slowness for p in throughputs],
                "stolen": [p.stolen for p in throughputs],
                "ack_p50_ms": [median(values) for values in ack_rounds],
                "notify_p50_ms": [median(values) for values in notify_rounds],
                "latency_slowness": [p.slowness for p in latencies],
                "latency_server_ms_per_doc": [
                    p.server_cpu_s * 1e3 / max(1, p.acked) for p in latencies],
                "latency_generator_ms_per_doc": [
                    p.generator_cpu_s * 1e3 / max(1, p.acked)
                    for p in latencies]},
        slowness_samples=drive["slowness_samples"],
        generator_busy_frac=generator_busy, server_busy_frac=server_busy)
    if generator_busy > server_busy:
        record["warnings"].append(
            f"generator busier ({generator_busy:.2f}) than server "
            f"({server_busy:.2f}): throughput measures the generator")
    if trace:
        tails = {"ack": (percentile(acks, 0.99), len(acks)),
                 "notify": (percentile(notes, 0.99), len(notes))}
        metrics, problems = ledger.build(
            drive["spans"], drive["setup_spans"], phases, stats,
            drive["counters"], tails, generator_busy, drive["wrapper_ns"])
        shares = {group: metrics[f"ledger.{group}_share"]
                  for group in ledger.GROUPS}
        ok, text = ledger.layer_check(
            name, shares, metrics["ledger.durable_us_per_doc"]
            + metrics["ledger.governor_us_per_doc"],
            metrics["ledger.front_self_share"])
        record["layer_check"] = text
        record["ledger_problems"] = problems
        # the layer claims are about the full-size workloads; a tiny run
        # records its check but is not held to it
        if problems or not (ok or tiny):
            correct = False
        units = PER_LAYER
    else:
        # means over the rounds of per-round values at the reference CPU
        # speed (README.md, "Steadiness")
        metrics = {
            "throughput_docs_s": statistics.fmean(
                [ledger.reference_throughput(p) for p in throughputs]),
            "ack_p50_ms": statistics.fmean(
                [median(values) / p.slowness
                 for values, p in zip(ack_rounds, latencies)]),
            "notify_p50_ms": statistics.fmean(
                [median(values) / p.slowness
                 for values, p in zip(notify_rounds, latencies)]),
            "cpu_us_per_doc": statistics.fmean(
                [p.server_cpu_s * 1e6 / max(1, p.acked) / p.slowness
                 for p in throughputs]),
            "peak_rss_mib": stats["peak_rss_kib"] / 1024,
            "setup_s": statistics.median(drive["setups"]),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()},
        },
        "record": record,
    }


async def _drive(workload, work_dir: str, seconds: float, trace: bool,
                 tiny: bool) -> dict:
    """Set the server up (several times), run the phases, collect the state.

    Untraced: ``SETUPS`` launches (the last one is measured), then ``ROUNDS``
    alternating throughput/latency rounds, each phase calibrated while it
    runs.  Traced: one launch traced from start-up, then phases ``A``/``B``
    untraced and ``C``/``D`` traced, a quarter of ``seconds`` each.
    """
    from perfbench.loadgen import Calibrator, Trial

    drive = {"setups": [], "earlier_ops": 0, "earlier_failures": 0,
             "phases": {}}
    phases = drive["phases"]
    window = workload.window
    launches = 1 if trace or tiny else SETUPS
    trial = None
    calibrator = await Calibrator.launch()
    try:
        for index in range(launches):
            trial = Trial(workload, work_dir, index, calibrator)
            await trial.setup(trace=trace)
            drive["setups"].append(trial.setup_s * (1.0 - trial.setup_stolen)
                                   / trial.setup_slowness)
            if index < launches - 1:
                await trial.close()
                drive["earlier_ops"] += trial.sub_ops
                drive["earlier_failures"] += trial.sub_failures
        if trace:
            drive["setup_spans"], _ = await _spans(trial, work_dir, "setup")
        drive["warmup"] = await trial.phase("warmup", window,
                                            min(0.5, 0.05 * seconds))
        if trace:
            phases["A"] = await trial.phase("A", window, 0.25 * seconds)
            phases["B"] = await trial.phase("B", 1, 0.25 * seconds,
                                            shared=True)
            drive["counters"] = [await _counters(trial)]
            await trial.server.command("trace_on")
            phases["C"] = await trial.phase("C", window, 0.25 * seconds)
            phases["D"] = await trial.phase("D", 1, 0.2 * seconds,
                                            shared=True)
            drive["spans"], drive["wrapper_ns"] = await _spans(
                trial, work_dir, "phases")
            drive["counters"].append(await _counters(trial))
        else:
            rounds = 1 if tiny else ROUNDS
            for index in range(rounds):
                phases[f"throughput{index}"] = await trial.phase(
                    "throughput", window, 0.35 * seconds / rounds)
                phases[f"latency{index}"] = await trial.phase(
                    "latency", 1, 0.6 * seconds / rounds, shared=True)
        await trial.settle()
        drive["stats"] = await trial.server.command("stats")
        drive["dropped_matches"] = sum(client.dropped_matches
                                       for client in trial.clients)
    finally:
        try:
            if trial is not None:
                await trial.close()
        finally:
            await calibrator.stop()
    drive["trial"] = trial
    drive["slowness_samples"] = calibrator.samples
    return drive


async def _counters(trial) -> dict:
    return (await trial.server.command("stats"))["metrics"]


async def _spans(trial, work_dir: str, label: str) -> tuple:
    """Close the server's trace window: its spans and the wrappers' cost."""
    path = os.path.join(work_dir, f"spans-{label}.json")
    reply = await trial.server.command(f"trace_off {path}")
    spans = await asyncio.get_running_loop().run_in_executor(
        None, _read_json, path)
    return spans, reply["wrapper_ns"]


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _table(rows: dict) -> str:
    names = list(END_TO_END) + ["ops_failed_frac"]
    lines = ["workload        " + "  ".join(f"{n:>18}" for n in names),
             "                " + "  ".join(
                 f"{END_TO_END.get(n, 'ratio'):>18}" for n in names)]
    for workload, values in rows.items():
        lines.append(f"{workload:<16}" + "  ".join(
            f"{values[n]:>18.4f}" for n in names))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (self-tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: the package source {os.path.join(ROOT, 'src', 'repro')}"
              " is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    from perfbench.loadgen import bench_cpus

    if bench_cpus():
        os.sched_setaffinity(0, bench_cpus())
    from perfbench.calibrate import RECORD_LOOPS, loop_seconds

    calibration = [loop_seconds(RECORD_LOOPS)]
    outcomes = {name: asyncio.run(measure(
        name, args.seed, args.seconds, bool(args.trace), args.size == "tiny"))
        for name in names}
    calibration.append(loop_seconds(RECORD_LOOPS))
    records = []
    for name, outcome in outcomes.items():
        record = outcome["record"]
        record["calibration_s"] = calibration
        records.append(record)
        for warning in record["warnings"]:
            print(f"warning: {name}: {warning}", file=sys.stderr)
        if "layer_check" in record:
            print(f"layer check: {record['layer_check']}", file=sys.stderr)
    if not args.trace:
        print(_table({name: {
            **{key: metric["value"] for key, metric
               in outcome["result"]["metrics"].items()},
            "ops_failed_frac": outcome["record"]["ops_failed_frac"]}
            for name, outcome in outcomes.items()}), file=sys.stderr)
    print(json.dumps({"record": records[0] if len(records) == 1 else records}))
    if len(names) == 1:
        result = outcomes[names[0]]["result"]
    else:
        result = {
            "correct": all(o["result"]["correct"] for o in outcomes.values()),
            "attempted": sum(o["result"]["attempted"]
                             for o in outcomes.values()),
            "failed": sum(o["result"]["failed"] for o in outcomes.values()),
            "metrics": {f"{name}.{key}": metric
                        for name, outcome in outcomes.items()
                        for key, metric in outcome["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
