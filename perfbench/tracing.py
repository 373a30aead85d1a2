"""Spans around the public calls of each serving layer, installed at run time.

The server process of the benchmark wraps these calls while a trace window is
open and restores the originals when it closes, so untraced phases run the
program exactly as shipped.  A span is ``(name, start_ns, end_ns, cpu_ns,
thread, doc_id, count)``: start and end come from ``time.monotonic_ns``
(CLOCK_MONOTONIC, shared by the server and generator processes); ``cpu_ns`` is
the calling thread's CPU time over the span (``time.thread_time_ns``), which,
unlike wall time, excludes time spent waiting for the interpreter lock while
the other thread runs; ``doc_id`` is the document id wherever the call has
one, and ``count`` is the call's unit of work (tokens, bytes) where one
exists.  Spans are kept in memory and written out when the window closes.

A wrapper costs its caller some CPU outside the span it records (the call
through the wrapper, the clock reads before the start and after the end, the
record).  ``Tracer.wrapper_cost_ns`` measures that cost per span name on a
no-op, so the ledger can take it out of the CPU no span covers.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, Optional[int], int]

_now = time.monotonic_ns
_cpu = time.thread_time_ns


def _no_detail(_args, _kwargs, _result) -> Tuple[Optional[int], int]:
    return None, 0


def _tokens(_args, _kwargs, result):
    return None, len(result)


def _submitted(_args, _kwargs, result):
    return result.document_id, 0


def _waited(args, _kwargs, _result):
    return args[0].document_id, 0


def _logged(args, _kwargs, _result):
    return args[1], len(args[2])


def _wal_record(args, _kwargs, _result):
    # on-disk record: u32 length + u32 crc32 + u64 LSN + body
    return None, 16 + len(args[1])


def _encoded(args, _kwargs, result):
    header = args[0]
    doc_id = header.get("document_id") if header.get("type") == "ack" else None
    return doc_id, len(result)


def _decoded(args, _kwargs, _result):
    return None, len(args[0])


class Tracer:
    """Installs and removes the span wrappers; holds the recorded spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._saved: List[tuple] = []

    def wrapper_cost_ns(self) -> Dict[str, float]:
        """Per span name, the wrapper's CPU cost outside the span, per call."""
        costs = {False: _outside_cost_ns(False), True: _outside_cost_ns(True)}
        return {name: costs[inspect.iscoroutinefunction(owner.__dict__[attr])]
                for owner, attr, name, _detail in self._targets()}

    def _targets(self) -> List[tuple]:
        import repro.net.protocol as protocol
        import repro.net.server as net_server
        import repro.service.server as service_server
        from repro.core.compile import CompiledFilterBank
        from repro.durable.publog import PublishLog
        from repro.durable.wal import WriteAheadLog
        from repro.service.governor import ResourceGovernor

        return [
            # (owner, attribute, span name, detail extractor)
            (service_server, "document_tokens", "xmlstream.tokenize", _tokens),
            (CompiledFilterBank, "filter_tokens", "core.filter", _no_detail),
            (CompiledFilterBank, "register", "core.register", _no_detail),
            (CompiledFilterBank, "unregister", "core.unregister", _no_detail),
            (CompiledFilterBank, "memory_report", "core.memory_report",
             _no_detail),
            (service_server.PubSubService, "submit", "service.submit",
             _submitted),
            (service_server.PendingPublish, "wait", "service.wait", _waited),
            (ResourceGovernor, "observe", "governor.observe", _no_detail),
            (PublishLog, "append_document", "durable.append", _logged),
            (PublishLog, "append_cursor", "durable.cursor_append", _no_detail),
            (PublishLog, "compact", "durable.compact", _no_detail),
            (WriteAheadLog, "append", "durable.wal_append", _wal_record),
            (net_server, "encode_frame", "net.encode", _encoded),
            (protocol, "decode_payload", "net.decode", _decoded),
        ]

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._saved:
            return
        for owner, attr, name, detail in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, detail))

    def uninstall(self) -> List[Span]:
        """Restore the originals and hand back (and forget) the spans."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original: Callable, name: str, detail) -> Callable:
        record = self.spans.append
        ident = threading.get_ident

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_span(*args, **kwargs):
                cpu, start = _cpu(), _now()
                result = await original(*args, **kwargs)
                end, cpu = _now(), _cpu() - cpu
                doc_id, count = detail(args, kwargs, result)
                record((name, start, end, cpu, ident(), doc_id, count))
                return result
            return async_span

        @functools.wraps(original)
        def span(*args, **kwargs):
            cpu, start = _cpu(), _now()
            result = original(*args, **kwargs)
            end, cpu = _now(), _cpu() - cpu
            doc_id, count = detail(args, kwargs, result)
            record((name, start, end, cpu, ident(), doc_id, count))
            return result
        return span


def _finish(coroutine):
    """Run a coroutine that never suspends to its result, without a loop."""
    try:
        coroutine.send(None)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("the probe coroutine suspended")


def _outside_cost_ns(is_async: bool, calls: int = 20_000) -> float:
    """CPU per call a wrapper adds outside its span, measured on a no-op.

    The wrapped calls cost the bare calls' CPU plus the wrapper's; the span
    records the part between its clock reads, so the rest is the caller's.
    """
    def noop():
        return None

    async def async_noop():
        return None

    probe = Tracer()
    bare = async_noop if is_async else noop
    wrapped = probe._wrap(bare, "probe", _no_detail)
    call = (lambda function: _finish(function())) if is_async else (
        lambda function: function())
    start = _cpu()
    for _ in range(calls):
        call(bare)
    bare_ns = _cpu() - start
    start = _cpu()
    for _ in range(calls):
        call(wrapped)
    wrapped_ns = _cpu() - start
    inside_ns = sum(span[3] for span in probe.spans)
    return max(0.0, (wrapped_ns - bare_ns - inside_ns) / calls)
