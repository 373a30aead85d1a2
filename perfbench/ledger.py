"""The per-layer ledger of a traced run.

Inputs: the server's spans (``tracing.py``), the generator's publish records,
the four phase windows and the server's final ``stats``.  Phases ``A``/``B``
are the untraced throughput/latency phases of the traced run, ``C``/``D``
their traced twins.

Busy time is CPU time.  Each span carries its thread's CPU time, and a span's
*self* time is that minus the CPU time of the spans nested in it on the same
thread.  Per-document busy figures divide the self time of the spans that
started in ``C`` by the documents acknowledged in ``C``.  Wall time would
double-count: the event-loop thread and the executor thread take turns on the
interpreter lock, so each one's wall spans include the other's work.

The server process runs only the event loop (``net/`` streams and connection
coroutines, ``service/`` ingest worker and dispatch) and the executor thread
(``xmlstream``/``core``) while a phase runs.  The span wrappers cost their
callers CPU outside the spans (``bench.wrapper_us_per_doc``, measured on a
no-op by ``Tracer.wrapper_cost_ns``); that is taken out of the server's CPU
before any share is computed.  CPU time that no span covers after that,
``bench.unattributed_us_per_doc``, is front-end glue of ``net/`` and
``service/``: the layer check counts it on the front-end side, and
``ledger.front_self_share`` gives the front end's share without it.

Per-document flight figures (queue wait, hop, network self time) come from
``D``, where each connection has one publish in flight, so a flight is not
mostly waiting behind other documents.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Sequence, Tuple


#: the serving layers, as ``repro`` subpackages, and the span names of each
LAYERS = ("xmlstream", "core", "service", "governor", "durable", "net")
#: groups the layer check compares: the filter kernel, the front end
#: (plus unattributed glue, see the module docstring) and the log/governor
GROUPS = {"kernel": ("xmlstream", "core"), "front": ("net", "service"),
          "log": ("durable", "governor")}
#: spans that mark a document's flight rather than work done by the layer
_MARKERS = ("service.wait",)


def self_cpu(spans: Sequence[tuple]) -> List[int]:
    """Per span, its CPU time minus that of the spans nested in it.

    Nesting is by wall interval on the same thread; a child that overlaps its
    parent only partly (two suspended coroutines) is charged pro rata.
    """
    result = [span[3] for span in spans]
    by_thread: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[0] not in _MARKERS:
            by_thread.setdefault(span[4], []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        stack: List[int] = []
        for index in indices:
            start, end = spans[index][1], spans[index][2]
            while stack and spans[stack[-1]][2] <= start:
                stack.pop()
            if stack:
                parent = stack[-1]
                overlap = min(end, spans[parent][2]) - start
                share = overlap / max(1, end - start)
                result[parent] -= int(spans[index][3] * share)
            stack.append(index)
    return [max(0, value) for value in result]


class _Union:
    """Sorted intervals, queried for how much of [lo, hi] their union covers."""

    def __init__(self, intervals: List[Tuple[int, int]]) -> None:
        self._intervals = sorted(intervals)
        self._starts = [start for start, _end in self._intervals]
        self._longest = max((end - start for start, end in self._intervals),
                            default=0)

    def covered(self, lo: int, hi: int) -> int:
        total, cursor = 0, lo
        index = bisect.bisect_left(self._starts, lo - self._longest)
        while index < len(self._intervals) and self._starts[index] < hi:
            start, end = self._intervals[index]
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                total += end - start
                cursor = end
            index += 1
        return total


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _per_call_us(spans, name: str) -> float:
    return _mean([span[3] / 1e3 for span in spans if span[0] == name])


def build(spans: Sequence[tuple], setup_spans: Sequence[tuple],
          windows: Dict[str, object], stats: dict,
          counters: Sequence[dict],
          latency_tails: Dict[str, Tuple[float, int]],
          generator_busy: float,
          wrapper_ns: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric, by name, from one traced run, and its problems.

    ``stats`` is the server's final ``stats`` reply; ``counters`` are its
    service counters just before and just after the trace window;
    ``wrapper_ns`` the wrappers' cost outside their spans, per span name.  A
    problem is a figure the spans could not give; the run is then invalid.
    """
    phase_c, phase_d = windows["C"], windows["D"]
    spans = [tuple(span) for span in spans]
    selfs = self_cpu(spans)
    in_c = [i for i, span in enumerate(spans)
            if phase_c.start <= span[1] <= phase_c.end]
    docs_c = max(1, phase_c.acked)
    layer_us = {layer: 0.0 for layer in LAYERS}
    for i in in_c:
        if spans[i][0] not in _MARKERS:
            layer_us[spans[i][0].split(".")[0]] += selfs[i] / 1e3 / docs_c
    wrapper_us = sum(wrapper_ns.get(spans[i][0], 0.0)
                     for i in in_c) / 1e3 / docs_c
    server_us = phase_c.server_cpu_s * 1e6 / docs_c
    program_us = max(1e-9, server_us - wrapper_us)
    delta = {key: counters[1][key] - counters[0][key]
             for key in ("published", "batches", "notifications")}
    attributed = sum(layer_us.values())
    unattributed = max(0.0, program_us - attributed)

    def named(name: str) -> List[int]:
        return [i for i in in_c if spans[i][0] == name]

    tokenize = named("xmlstream.tokenize")
    filters = named("core.filter")
    tokens = sum(spans[i][6] for i in tokenize)
    encode = named("net.encode")
    decode = named("net.decode")
    every = range(len(spans))
    metrics = {
        "xmlstream.tokenize_us_per_doc": layer_us["xmlstream"],
        "xmlstream.tokens_per_doc": tokens / max(1, len(tokenize)),
        "core.filter_us_per_doc": sum(selfs[i] for i in filters) / 1e3 / docs_c,
        "core.filter_ns_per_token": (sum(selfs[i] for i in filters)
                                     / max(1, tokens)),
        "core.matches_per_doc": _mean([
            len(pub.matched) for pub in phase_c.pubs + phase_d.pubs
            if pub.error is None]),
        "core.register_us": _per_call_us(
            list(setup_spans) + spans, "core.register"),
        "core.unregister_us": _per_call_us(spans, "core.unregister"),
        "core.trie_nodes": stats["trie_nodes"],
        "core.distinct_plans": stats["distinct_plans"],
        "core.modeled_kbits": stats["modeled_bits"] / 1e3,
        "core.memory_report_us": _per_call_us(spans, "core.memory_report"),
        "service.admit_us": _mean([selfs[i] / 1e3 for i in every
                                   if spans[i][0] == "service.submit"]),
        "service.docs_per_batch": delta["published"] / max(1, delta["batches"]),
        "service.notifications_per_doc": (delta["notifications"]
                                          / max(1, delta["published"])),
        "service.dropped_notifications": stats["metrics"]["dropped_notifications"],
        "governor.observe_us": _per_call_us(spans, "governor.observe"),
        "governor.transitions": stats["transitions"],
        "durable.append_us": _per_call_us(spans, "durable.append"),
        "durable.cursor_append_us": _per_call_us(spans, "durable.cursor_append"),
        "durable.wal_bytes_per_doc": sum(
            spans[i][6] for i in named("durable.wal_append")) / docs_c,
        "durable.cursor_records_per_doc": (
            len(named("durable.cursor_append")) / docs_c),
        "durable.compactions": sum(1 for span in spans
                                   if span[0] == "durable.compact"),
        "durable.compact_ms": _mean([(span[2] - span[1]) / 1e6 for span in spans
                                     if span[0] == "durable.compact"]),
        "net.encode_us_per_doc": sum(selfs[i] for i in encode) / 1e3 / docs_c,
        "net.frames_per_doc": (len(encode) + len(decode)) / docs_c,
        "net.bytes_per_doc": sum(spans[i][6] for i in encode + decode) / docs_c,
        "bench.generator_busy_frac": generator_busy,
        "bench.unattributed_us_per_doc": unattributed,
        "bench.wrapper_us_per_doc": wrapper_us,
        # both throughputs at the reference speed: A and C are seconds apart
        "bench.trace_overhead_frac": 1.0 - (
            reference_throughput(phase_c)
            / max(1e-9, reference_throughput(windows["A"]))),
        "ledger.server_cpu_us_per_doc": server_us,
    }
    for layer in LAYERS:
        metrics[f"ledger.{layer}_us_per_doc"] = layer_us[layer]
    shares = group_shares(layer_us, unattributed, program_us)
    for group, share in shares.items():
        metrics[f"ledger.{group}_share"] = share
    metrics["ledger.front_self_share"] = sum(
        layer_us[layer] for layer in GROUPS["front"]) / program_us
    flights, problems = _flights(spans, phase_d)
    metrics.update(flights)
    for name, (value, samples) in latency_tails.items():
        metrics[f"bench.{name}_p99_ms"] = value
        metrics[f"bench.{name}_p99_samples"] = samples
    return metrics, problems


def reference_throughput(phase) -> float:
    """A phase's documents per second at the reference CPU speed.

    Per second of the time the host left the benchmark's CPU (``stolen``),
    times the calibrator's slowness over the phase.
    """
    left = phase.seconds * (1.0 - phase.stolen)
    return phase.acked / left * phase.slowness


def group_shares(layer_us: Dict[str, float], unattributed: float,
                 program_us: float) -> Dict[str, float]:
    """Share of the program's CPU per group; glue counts as front end.

    ``program_us`` is the server's CPU per document less the wrappers' cost.
    """
    total = program_us
    shares = {group: sum(layer_us[layer] for layer in members) / total
              for group, members in GROUPS.items()}
    shares["front"] += unattributed / total
    return shares


def _flights(spans: Sequence[tuple],
             phase_d) -> Tuple[Dict[str, float], List[str]]:
    """Queue wait, service hop and network self time per document in ``D``.

    Documents leave the ingest queue in document-id order and every string
    publish is tokenized and filtered exactly once, so the k-th tokenize span
    of the trace window belongs to the k-th submitted document.  When the
    counts differ that pairing is void: the figures read 0 and the problem is
    returned, so the run does not pass them off as time not spent.
    """
    submits = sorted((span for span in spans if span[0] == "service.submit"),
                     key=lambda span: span[5])
    tokenizes = sorted((span for span in spans
                        if span[0] == "xmlstream.tokenize"),
                       key=lambda span: span[1])
    waits = {span[5]: span for span in spans if span[0] == "service.wait"}
    work = _Union([(span[1], span[2]) for span in spans
                   if span[0] not in _MARKERS
                   and phase_d.start <= span[1] <= phase_d.end])
    pubs = {pub.doc_id: pub for pub in phase_d.pubs if pub.error is None}
    queue_wait, hop, rtt_self = [], [], []
    problems = []
    if len(submits) != len(tokenizes):
        problems.append(
            f"{len(submits)} submit spans but {len(tokenizes)} tokenize spans "
            "in the trace window: queue wait, hop and network self time "
            "cannot be attributed")
    else:
        for submit, tokenize in zip(submits, tokenizes):
            doc_id = submit[5]
            pub, wait = pubs.get(doc_id), waits.get(doc_id)
            if pub is None or wait is None:
                continue
            queue_wait.append((tokenize[1] - submit[2]) / 1e3)
            gap = wait[2] - tokenize[1]
            hop.append((gap - work.covered(tokenize[1], wait[2])) / 1e3)
            rtt_self.append(((pub.t_ack - pub.t_submit)
                             - (wait[2] - submit[1])) / 1e3)
    if not problems and not queue_wait:
        problems.append("no latency-phase document had both a submit and a "
                        "wait span")
    return {"service.queue_wait_us": _mean(queue_wait),
            "service.hop_us_per_doc": _mean(hop),
            "net.rtt_self_us_per_doc": _mean(rtt_self)}, problems


def layer_check(workload: str, shares: Dict[str, float],
                log_us: float, front_self: float) -> Tuple[bool, str]:
    """Does the workload load the layer it was chosen for?

    ``front_self`` is the front end's share without the unattributed glue,
    printed beside the check so a margin that rests on the glue shows.
    """
    kernel, front = shares["kernel"], shares["front"]
    if workload == "fanin":
        ok = kernel > front and kernel > shares["log"] and log_us == 0
        claim = "xmlstream+core is the largest share, durable+governor zero"
    elif workload == "notify":
        ok = front > kernel and front > shares["log"] and log_us == 0
        claim = "net+service is the largest share, durable+governor zero"
    else:
        ok = log_us > 0
        claim = "durable+governor self time is non-zero"
    detail = ", ".join(f"{group} {share:.3f}" for group, share in shares.items())
    detail += f"; front without unattributed glue {front_self:.3f}"
    return ok, f"{workload}: {claim}: {'yes' if ok else 'NO'} ({detail})"
