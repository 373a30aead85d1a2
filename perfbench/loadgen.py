"""The load generator: one asyncio process driving one server over two connections.

Load is a closed loop in two phases (see README.md for why not an open loop):

* **throughput** — each connection keeps ``workload.window`` publishes in
  flight (``WireClient.submit``) and submits the next as soon as one is acked;
* **latency** — one publish in flight, the connections taking turns.

Both connections consume their pushed matches in a task of their own.  Every
send and every observed reply advances one event clock, which the output
checks (``check.py``) use to decide which subscriptions were live for which
document.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.check import Match, Pub, Sub
from perfbench.workloads import CONNECTIONS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVER = os.path.join(HERE, "server.py")
CALIBRATOR = os.path.join(HERE, "calibrate.py")
HOST = "127.0.0.1"

_now = time.monotonic_ns


@functools.lru_cache(maxsize=None)
def bench_cpus() -> list:
    """The one CPU the server, the generator and the calibrator share.

    One CPU, not one each: on a VM whose CPUs the host shares with other
    tenants, a server and a generator on two CPUs handed every document
    across CPUs, and `notify` throughput spread 30-55% over five seeds (each
    CPU loses time to the host at its own moments) against about 20% on one
    CPU in the same hour.  Pinning also keeps the scheduler from migrating
    the processes mid-phase.  The CPU is taken once, from the affinity the
    command started with, before the generator pins itself to it.
    """
    return sorted(os.sched_getaffinity(0))[:1]


def stolen_ticks() -> Optional[tuple]:
    """(stolen, all) clock ticks of the benchmark's CPU so far, or ``None``.

    From ``/proc/stat``: time the hypervisor gave the CPU to other tenants
    while it had work ("steal"), and all the CPU's time.  Neither the program
    nor the benchmark can make the host steal, so the share is a measure of
    the machine, like the calibrator's loop.
    """
    label = f"cpu{bench_cpus()[0]} " if bench_cpus() else "cpu "
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(label):
                    fields = [int(value) for value in line.split()[1:9]]
                    return fields[7], sum(fields)
    except OSError:
        pass
    return None


def stolen_share(before: Optional[tuple], after: Optional[tuple]) -> float:
    """The share of the CPU's time stolen between two ``stolen_ticks``."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


class ChildProcess:
    """A benchmark child process and its line-based JSON control channel."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process
        self.hello: dict = {}

    @classmethod
    async def launch(cls, script: str, argument) -> "ChildProcess":
        """Start ``script`` with ``argument`` as JSON; read its first line."""
        process = await asyncio.create_subprocess_exec(
            sys.executable, script, json.dumps(argument), cwd=ROOT,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE)
        child = cls(process)
        try:
            child.hello = await child._read()
        except BaseException:
            await child.kill()
            raise
        return child

    @property
    def port(self) -> int:
        return self.hello["port"]

    async def _read(self) -> dict:
        line = await asyncio.wait_for(self.process.stdout.readline(), 120)
        if not line:
            raise RuntimeError(f"the child process {self.process.pid} "
                               "exited unexpectedly")
        return json.loads(line)

    async def command(self, line: str) -> dict:
        self.process.stdin.write(line.encode() + b"\n")
        await self.process.stdin.drain()
        return await self._read()

    async def stop(self) -> None:
        """Graceful stop; the process has exited when this returns."""
        try:
            self.process.stdin.write(b"stop\n")
            await self.process.stdin.drain()
            await asyncio.wait_for(self.process.wait(), 30)
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
        await self.process.wait()


class Calibrator:
    """Measures the benchmark CPU's slowness from a process of its own.

    The calibrator (``calibrate.py``) is pinned to the benchmark's CPU and,
    between ``begin`` and ``end``, times a short reference loop every 20 ms
    in its own thread CPU time, so the reading covers the whole phase while
    nothing the program under test does can lengthen it (see
    ``calibrate.py``).  ``samples`` keeps every reading.
    """

    def __init__(self, child: ChildProcess) -> None:
        self.child = child
        #: per measured stretch: (slowness, slices timed)
        self.samples: List[tuple] = []

    @classmethod
    async def launch(cls) -> "Calibrator":
        return cls(await ChildProcess.launch(CALIBRATOR, bench_cpus()))

    async def begin(self) -> None:
        await self.child.command("begin")

    async def end(self) -> float:
        """The slowness since ``begin``: 1.0 at the reference speed."""
        from perfbench.calibrate import SLICE_LOOPS, slowness

        reply = await self.child.command("end")
        value = slowness(reply["slice_cpu_s"], SLICE_LOOPS)
        self.samples.append((value, reply["slices"]))
        return value

    async def stop(self) -> None:
        await self.child.stop()


@dataclass
class PhaseResult:
    """One closed-loop phase: its window on the shared clock and its publishes."""

    name: str
    start: int
    end: int
    pubs: List[Pub]
    server_cpu_s: float = 0.0
    generator_cpu_s: float = 0.0
    #: the CPU's slowness over the phase (1.0: the reference speed; see
    #: ``Calibrator``)
    slowness: float = 1.0
    #: the share of the phase's time the host stole from the benchmark's CPU
    stolen: float = 0.0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def acked(self) -> int:
        return sum(1 for pub in self.pubs if pub.error is None)


@dataclass
class Trial:
    """One server instance: its set-up, its connections and every record."""

    workload: Workload
    work_dir: str
    index: int
    calibrator: Calibrator
    server: Optional[ChildProcess] = None
    clients: list = field(default_factory=list)
    subs: List[Sub] = field(default_factory=list)
    pubs: List[Pub] = field(default_factory=list)
    matches: List[Match] = field(default_factory=list)
    sub_ops: int = 0
    sub_failures: int = 0
    setup_s: float = 0.0
    setup_slowness: float = 1.0
    setup_stolen: float = 0.0
    _consumers: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.clock = itertools.count(1)
        self.live: List[List[Sub]] = [[] for _ in range(CONNECTIONS)]
        self.churned = [0] * CONNECTIONS
        self.doc_cursor = [c * len(self.workload.documents) // CONNECTIONS
                           for c in range(CONNECTIONS)]
        self.churn_rng = random.Random(
            f"churn:{self.workload.name}:{self.workload.seed}")

    # ------------------------------------------------------------ set-up
    def config(self, trace: bool) -> dict:
        service = self.workload.service
        config = {"trace": trace, "governed": bool(service.get("governed")),
                  "cpus": bench_cpus()}
        if service.get("durable"):
            config["durable_dir"] = os.path.join(self.work_dir,
                                                 f"wal{self.index}")
            config["compact_threshold"] = service["compact_threshold"]
        return config

    async def setup(self, *, trace: bool = False) -> None:
        """Launch the server and subscribe every initial subscription.

        ``setup_s`` runs from the process launch until the last initial
        subscription is acknowledged: interpreter start, imports, listening,
        handshakes and every ``register``.
        """
        from repro.net import WireClient

        stolen_before = stolen_ticks()
        await self.calibrator.begin()
        started = _now()
        self.server = await ChildProcess.launch(SERVER, self.config(trace))
        for conn in range(CONNECTIONS):
            self.clients.append(await WireClient.connect(
                HOST, self.server.port, client_id=f"g{conn}",
                auto_ack=self.workload.auto_ack,
                max_pending_matches=1 << 20))
        await asyncio.gather(*(
            self.subscribe(conn, name, xpath)
            for conn, subs in enumerate(self.workload.subscriptions)
            for name, xpath in subs))
        self.setup_s = (_now() - started) / 1e9
        self.setup_slowness = await self.calibrator.end()
        self.setup_stolen = stolen_share(stolen_before, stolen_ticks())
        loop = asyncio.get_running_loop()
        self._consumers = [loop.create_task(self._consume(conn))
                           for conn in range(CONNECTIONS)]

    async def subscribe(self, conn: int, name: str, xpath: str) -> None:
        from repro.net.client import WireError

        sub = Sub(conn, name, xpath, f"g{conn}:{name}", next(self.clock))
        self.subs.append(sub)
        self.sub_ops += 1
        try:
            await self.clients[conn].subscribe(name, xpath)
        except WireError:
            self.sub_failures += 1
            return
        sub.acked = next(self.clock)
        self.live[conn].append(sub)

    async def _consume(self, conn: int) -> None:
        from repro.net.client import ConnectionClosedError

        client = self.clients[conn]
        while True:
            try:
                match = await client.next_match()
            except ConnectionClosedError:
                return
            self.matches.append(Match(conn, match.document_id, match.matched,
                                      match.duplicate, _now()))

    # ------------------------------------------------------------ load
    async def phase(self, name: str, window: int, seconds: float, *,
                    shared: bool = False) -> PhaseResult:
        """Run one closed-loop phase on both connections for ``seconds``.

        ``window`` publishes are in flight per connection, or in total when
        ``shared``: then the connections take turns, and no document waits
        for a batch-mate from the other connection.
        """
        cpu_before = await self.server_cpu()
        stolen_before = stolen_ticks()
        await self.calibrator.begin()
        gen_before = time.process_time()
        start = _now()
        deadline = start + int(seconds * 1e9)
        pubs: List[Pub] = []
        slots = [asyncio.Semaphore(window)] * CONNECTIONS if shared else [
            asyncio.Semaphore(window) for _ in range(CONNECTIONS)]
        await asyncio.gather(*(
            self._pump(conn, slots[conn], deadline, pubs)
            for conn in range(CONNECTIONS)))
        end = max([pub.t_ack for pub in pubs] + [start + 1])
        result = PhaseResult(name, start, end, pubs)
        result.generator_cpu_s = time.process_time() - gen_before
        result.slowness = await self.calibrator.end()
        result.server_cpu_s = await self.server_cpu() - cpu_before
        result.stolen = stolen_share(stolen_before, stolen_ticks())
        self.pubs.extend(pubs)
        return result

    async def _pump(self, conn: int, slots: asyncio.Semaphore, deadline: int,
                    pubs: List[Pub]) -> None:
        workload = self.workload
        client = self.clients[conn]
        documents = workload.documents
        inflight: set = set()
        churn_due, churn_done = asyncio.Event(), asyncio.Event()
        churner = None
        if workload.churn_every:
            churner = asyncio.get_running_loop().create_task(
                self._churn(conn, churn_due, churn_done))
        sent = 0
        try:
            while _now() < deadline:
                await slots.acquire()
                index = self.doc_cursor[conn] % len(documents)
                self.doc_cursor[conn] += 1
                pub = Pub(conn, index, _now(), next(self.clock))
                future = client.submit(documents[index])
                inflight.add(future)
                future.add_done_callback(functools.partial(
                    self._acked, pub, slots, inflight))
                pubs.append(pub)
                await client.drain()
                sent += 1
                if workload.churn_every and sent % workload.churn_every == 0:
                    churn_due.set()
            if inflight:
                await asyncio.wait(set(inflight))
        finally:
            if churner is not None:
                churn_done.set()
                churn_due.set()
                await churner

    def _acked(self, pub: Pub, slots: asyncio.Semaphore, inflight: set,
               future: asyncio.Future) -> None:
        pub.t_ack = _now()
        pub.acked = next(self.clock)
        inflight.discard(future)
        slots.release()
        if future.cancelled():
            pub.error = "cancelled"
        elif future.exception() is not None:
            pub.error = repr(future.exception())
        else:
            result = future.result()
            pub.doc_id = result.document_id
            pub.matched = result.matched

    async def _churn(self, conn: int, due: asyncio.Event,
                     done: asyncio.Event) -> None:
        """Replace one of the connection's subscriptions per ``due`` signal.

        The replacement runs beside the publishes, so a publish never waits
        for a subscription change; signals that arrive during a replacement
        coalesce.  ``done`` ends the loop between replacements, so no
        subscription is left half replaced.
        """
        from repro.net.client import WireError

        client = self.clients[conn]
        pool = self.workload.replacements[conn]
        while True:
            await due.wait()
            due.clear()
            if done.is_set():
                return
            live = self.live[conn]
            if not live:  # every earlier replacement failed to subscribe
                continue
            victim = live.pop(self.churn_rng.randrange(len(live)))
            victim.unsub_sent = next(self.clock)
            self.sub_ops += 1
            try:
                await client.unsubscribe(victim.name)
            except WireError:
                self.sub_failures += 1
            else:
                victim.unsub_acked = next(self.clock)
            index = self.churned[conn]
            self.churned[conn] += 1
            await self.subscribe(conn, f"r{index}", pool[index % len(pool)])

    # ------------------------------------------------------------ control
    async def server_cpu(self) -> float:
        return (await self.server.command("cpu"))["cpu_s"]

    async def settle(self, timeout: float = 10.0) -> None:
        """Wait until every match the acks promise has arrived (or timeout)."""
        from perfbench.check import expected_notifications

        expected = expected_notifications(self.pubs)
        deadline = time.monotonic() + timeout
        while (sum(len(m.names) for m in self.matches) < expected
               and time.monotonic() < deadline):
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        """Close both connections, then stop the server process (idempotent)."""
        server, self.server = self.server, None
        try:
            for client in self.clients:
                await client.close()
            for task in self._consumers:
                await task
            if server is not None:
                await server.stop()
        finally:
            if server is not None:
                await server.kill()


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def ack_latencies_ms(phase: PhaseResult) -> List[float]:
    return [(pub.t_ack - pub.t_submit) / 1e6
            for pub in phase.pubs if pub.error is None]


def notify_latencies_ms(phase: PhaseResult, matches: List[Match]) -> List[float]:
    """Publish -> match-frame-received, per (document, subscribing connection)."""
    submitted: Dict[int, int] = {pub.doc_id: pub.t_submit
                                 for pub in phase.pubs if pub.error is None}
    return [(match.t_recv - submitted[match.doc_id]) / 1e6
            for match in matches if match.doc_id in submitted]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
