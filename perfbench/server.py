"""The benchmark's server process: one ``WireServer`` plus a control channel.

Run as ``python3 perfbench/server.py '<config json>'``.  The process imports
the package, builds the service the config describes, starts listening on an
ephemeral localhost port and prints ``{"port": N}`` as its first stdout line.
After that it answers one-line commands on stdin with one JSON line on stdout:

``cpu``            process user+sys CPU seconds so far
``trace_on``       install the layer span wrappers (see ``tracing.py``)
``trace_off PATH`` remove them, write the recorded spans to ``PATH`` and reply
                   with their count and the wrappers' own CPU cost per span
``stats``          service metrics, bank sizes, governor state, peak RSS
``stop``           graceful shutdown; the process exits after answering

Config keys: ``durable_dir`` (a WAL directory, or absent for in-memory),
``compact_threshold``, ``governed``, ``trace`` (trace from start-up, so
set-up registrations are recorded) and ``cpus`` (pin the process to these
CPUs before any thread starts; absent: no pinning).
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.net import WireServer  # noqa: E402
from repro.service import PubSubService  # noqa: E402
from repro.service.governor import MemoryBudget, ResourceGovernor  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402

#: governor watermarks far above anything the workloads reach: any transition
#: or rejection is a failure the run reports, never intended load shedding
_HUGE_BITS = 1 << 44
_HUGE_RSS = 1 << 40


def build_server(config: dict) -> WireServer:
    service_config = {}
    if config.get("durable_dir"):
        service_config.update(durable_dir=config["durable_dir"],
                              fsync="interval",
                              compact_threshold=config["compact_threshold"])
    if config.get("governed"):
        service_config["governor"] = ResourceGovernor(
            MemoryBudget(soft_bits=_HUGE_BITS // 2, hard_bits=_HUGE_BITS,
                         soft_rss_bytes=_HUGE_RSS // 2,
                         hard_rss_bytes=_HUGE_RSS),
            sample_interval=0.0)
    return WireServer(PubSubService(**service_config))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kib() -> int:
    """This process's RSS high-water mark (``VmHWM``).

    Not ``ru_maxrss``: Linux carries that across ``execve`` from the forking
    parent, so a server launched by a large generator would report the
    generator's size.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _stats(server: WireServer) -> dict:
    service = server.service
    bank = service.bank
    governor = service.governor
    return {
        "metrics": {key: value for key, value in service.metrics().items()
                    if key != "governor"},
        "trie_nodes": bank.trie_size(),
        "distinct_plans": bank.distinct_plan_count(),
        "modeled_bits": bank.memory_report().modeled_bits,
        "transitions": len(governor.transitions()) if governor else 0,
        "peak_rss_kib": _peak_rss_kib(),
    }


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


async def serve(config: dict) -> None:
    tracer = Tracer()
    if config.get("trace"):
        tracer.install()
    server = build_server(config)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    host, port = await server.start()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": port})
    try:
        while True:
            line = (await stdin.readline()).decode().strip()
            if not line or line == "stop":
                break
            command, _, argument = line.partition(" ")
            if command == "cpu":
                reply({"cpu_s": _cpu_seconds()})
            elif command == "trace_on":
                tracer.install()
                reply({"tracing": True})
            elif command == "trace_off":
                spans = tracer.uninstall()
                await loop.run_in_executor(None, _write_json, argument, spans)
                reply({"spans": len(spans),
                       "wrapper_ns": tracer.wrapper_cost_ns()})
            elif command == "stats":
                reply(_stats(server))
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        tracer.uninstall()
        await server.stop()
    reply({"stopped": True})


if __name__ == "__main__":
    settings = json.loads(sys.argv[1])
    if settings.get("cpus"):
        os.sched_setaffinity(0, settings["cpus"])
    asyncio.run(serve(settings))
