"""Behavioral tests for the asyncio pub/sub service layer.

Covers the session lifecycle (subscribe/unsubscribe/close, local-name isolation),
publish semantics (ordering against subscriptions, per-document error isolation,
chunked streams), batching observability, backpressure, graceful drain, and the
sharded health-probe respawn.  Everything runs through ``asyncio.run`` so the suite
needs no asyncio pytest plugin.
"""

import asyncio
import os
import signal

import pytest

from repro.core.errors import UnsupportedQueryError
from repro.service import (
    PubSubService,
    ServiceClosedError,
    SessionClosedError,
)
from repro.xmlstream.parse import XMLParseError, document_tokens

CATALOG = "<catalog><book><price>12</price></book></catalog>"


def run(coro):
    return asyncio.run(coro)


class TestSessions:
    def test_subscribe_publish_notify(self):
        async def scenario():
            async with PubSubService() as service:
                alice = await service.connect("alice")
                bob = await service.connect("bob")
                await alice.subscribe("cheap", "/catalog/book[price < 20]")
                await bob.subscribe("books", "/catalog/book")
                result = await service.publish(CATALOG)
                assert result.matched == ("alice:cheap", "bob:books")
                assert result.document_id == 1
                first = await alice.next_notification(timeout=1)
                assert first.matched == ("cheap",)
                assert first.document_id == 1
                assert (await bob.next_notification(timeout=1)).matched == \
                    ("books",)
        run(scenario())

    def test_local_names_are_isolated_between_clients(self):
        async def scenario():
            async with PubSubService() as service:
                one = await service.connect()
                two = await service.connect()
                await one.subscribe("same", "/catalog/book")
                await two.subscribe("same", "/catalog/missing")
                result = await service.publish(CATALOG)
                assert result.matched == (f"{one.client_id}:same",)
        run(scenario())

    def test_duplicate_names_and_bad_queries_raise(self):
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/a")
                with pytest.raises(ValueError):
                    await session.subscribe("q", "/b")
                with pytest.raises(UnsupportedQueryError):
                    await session.subscribe("unsupported", "//a[not(b)]")
                with pytest.raises(ValueError):
                    await service.connect("c")  # client id already connected
                with pytest.raises(ValueError):
                    await service.connect("a:b")  # ':' would break namespacing
                # failures left no residue: the good subscription still works
                assert (await service.publish("<a/>")).matched == ("c:q",)
        run(scenario())

    def test_unsubscribe_and_close_stop_delivery(self):
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                assert (await service.publish(CATALOG)).matched
                await session.unsubscribe("q")
                assert not (await service.publish(CATALOG)).matched
                with pytest.raises(KeyError):
                    await session.unsubscribe("q")
                await session.subscribe("q2", "/catalog/book")
                await session.close()
                assert len(service.bank) == 0
                assert not (await service.publish(CATALOG)).matched
                with pytest.raises(SessionClosedError):
                    await session.subscribe("q3", "/catalog")
        run(scenario())

    def test_subscription_is_ordered_against_publishes(self):
        """A document published before a subscribe must not match it; one
        published after must — even when everything is issued back to back."""
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                before = asyncio.ensure_future(service.publish(CATALOG))
                await asyncio.sleep(0)  # let the publish task enqueue first
                await session.subscribe("q", "/catalog/book")
                after = await service.publish(CATALOG)
                assert (await before).matched == ()
                assert after.matched == ("c:q",)
        run(scenario())


class TestPublishing:
    def test_publish_many_returns_per_document_results_in_order(self):
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("cheap", "/catalog/book[price < 10]")
                documents = [
                    f"<catalog><book><price>{price}</price></book></catalog>"
                    for price in (5, 50, 7)
                ]
                results = await service.publish_many(documents)
                assert [bool(result.matched) for result in results] == \
                    [True, False, True]
                assert [result.document_id for result in results] == [1, 2, 3]
        run(scenario())

    def test_publish_stream_accepts_sync_and_async_chunks(self):
        chunks = [b"<catalog><book><pri", b"ce>5</price></book>", b"</catalog>"]

        async def agen():
            for chunk in chunks:
                yield chunk

        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book[price < 10]")
                assert (await service.publish_stream(chunks)).matched
                assert (await service.publish_stream(agen())).matched
        run(scenario())

    def test_malformed_document_fails_alone(self):
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                good = asyncio.ensure_future(service.publish(CATALOG))
                bad = asyncio.ensure_future(service.publish("<catalog><book>"))
                good2 = asyncio.ensure_future(service.publish(CATALOG))
                assert (await good).matched == ("c:q",)
                with pytest.raises(XMLParseError):
                    await bad
                assert (await good2).matched == ("c:q",)
                assert service.metrics()["documents_failed"] == 1
        run(scenario())

    def test_malformed_token_list_is_rejected_and_service_keeps_serving(self):
        # pre-tokenized publishes skip the parser; the kernel checks the envelope
        good = document_tokens(CATALOG)
        open_at_end = good[:3] + [good[-1]]  # <$><catalog><book></$>
        two_documents = good + good

        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                for bad in (open_at_end, two_documents, good[1:]):
                    with pytest.raises(ValueError):
                        await service.publish(bad)
                assert (await service.publish(list(good))).matched == ("c:q",)
                assert (await service.publish(CATALOG)).matched == ("c:q",)
                assert service.metrics()["documents_failed"] == 3
        run(scenario())

    def test_stats_mode_reports_per_query_statistics(self):
        async def scenario():
            async with PubSubService(stats=True) as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                result = await service.publish(CATALOG)
                stats = result.per_query_stats["c:q"]
                assert stats.events > 0
                assert stats.candidate_matches >= 1
        run(scenario())

    def test_batching_coalesces_concurrent_publishes(self):
        async def scenario():
            async with PubSubService(batch_max=32) as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                await service.publish_many([CATALOG] * 64)
                metrics = service.metrics()
                assert metrics["published"] == 64
                assert metrics["largest_batch"] > 1
                assert metrics["batches"] < 64
        run(scenario())

    def test_backpressure_bounds_the_ingest_queue(self):
        async def scenario():
            async with PubSubService(queue_limit=4, batch_max=2) as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                results = await service.publish_many([CATALOG] * 32)
                assert len(results) == 32
                assert all(result.matched for result in results)
        run(scenario())


class TestLifecycle:
    def test_stop_drains_pending_documents(self):
        async def scenario():
            service = PubSubService(batch_max=4)
            await service.start()
            session = await service.connect("c")
            await session.subscribe("q", "/catalog/book")
            pending = [asyncio.ensure_future(service.publish(CATALOG))
                       for _ in range(16)]
            await asyncio.sleep(0)  # let every publish be accepted (enqueued)
            await service.stop()
            results = await asyncio.gather(*pending)
            assert all(result.matched == ("c:q",) for result in results)
            with pytest.raises(ServiceClosedError):
                await service.publish(CATALOG)
            with pytest.raises(ServiceClosedError):
                await service.connect("late")
            assert session.closed
        run(scenario())

    def test_stop_answers_publishers_blocked_on_a_full_queue(self):
        """A publish_many bigger than the ingest queue blocks in put; a
        concurrent stop() must still answer every accepted document instead of
        letting the STOP marker overtake the blocked publisher (a hang)."""
        async def scenario():
            service = PubSubService(queue_limit=2, batch_max=2)
            await service.start()
            session = await service.connect("c")
            await session.subscribe("q", "/catalog/book")
            burst = asyncio.ensure_future(service.publish_many([CATALOG] * 12))
            await asyncio.sleep(0)  # the burst fills the queue and blocks
            await asyncio.wait_for(service.stop(), timeout=5)
            results = await asyncio.wait_for(burst, timeout=5)
            assert len(results) == 12
            assert all(result.matched == ("c:q",) for result in results)
        run(scenario())

    def test_subscribe_interleaving_with_close_cannot_orphan_a_subscription(self):
        """close() awaits unregister round trips; a subscribe sneaking in during
        that window must be rejected, or its registration would outlive the
        session on the bank with no owner."""
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                closer = asyncio.ensure_future(session.close())
                await asyncio.sleep(0)  # close is now awaiting the unregister
                with pytest.raises(SessionClosedError):
                    await session.subscribe("sneak", "/catalog")
                await closer
                assert len(service.bank) == 0
        run(scenario())

    def test_cancelled_subscribe_neither_crashes_the_worker_nor_orphans(self):
        """A subscriber that times out (cancelling its in-flight register op)
        must not crash the ingest worker with InvalidStateError, and its
        registration must not land on the bank — the name stays reusable."""
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                sub = asyncio.ensure_future(session.subscribe("x", "/a"))
                await asyncio.sleep(0)  # register op enqueued, future pending
                sub.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await sub
                # the worker survived and the name was not orphaned
                assert (await service.publish("<a/>")).matched == ()
                assert len(service.bank) == 0
                await session.subscribe("x", "/a")  # reusable, no duplicate
                assert (await service.publish("<a/>")).matched == ("c:x",)
        run(scenario())

    def test_late_cancelled_subscribe_compensates_instead_of_orphaning(self):
        """Cancellation can land after the worker applied the registration but
        before the awaiter resumes; whichever way each race resolves, the bank
        and the routing table must end up consistent — never an unowned
        registration filtering documents forever."""
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                for attempt in range(20):
                    name = f"x{attempt}"
                    sub = asyncio.ensure_future(session.subscribe(name, "/a"))
                    await asyncio.sleep(0)  # op enqueued
                    while not len(service.bank):  # registration being applied
                        await asyncio.sleep(0)
                    sub.cancel()
                    cancelled = True
                    try:
                        await sub
                    except asyncio.CancelledError:
                        pass
                    else:
                        cancelled = False
                    # a publish round trip drains any compensating unregister
                    await service.publish("<b/>")
                    await service.publish("<b/>")
                    subs = set(service.bank.subscriptions())
                    if cancelled:
                        assert f"c:{name}" not in subs, (attempt, subs)
                    else:
                        assert f"c:{name}" in subs
                        await session.unsubscribe(name)
                    assert len(service.bank) == 0
        run(scenario())

    def test_close_during_inflight_subscribe_rolls_the_registration_back(self):
        """The mirror interleaving: a subscribe already awaiting its ingest
        round trip when close() runs must be rolled back, not left registered
        on the bank and routed to a dead session."""
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                sub = asyncio.ensure_future(session.subscribe("x", "/a"))
                await asyncio.sleep(0)  # register op enqueued, future pending
                await session.close()
                with pytest.raises(SessionClosedError):
                    await sub
                assert len(service.bank) == 0
                assert not (await service.publish("<a/>")).matched
        run(scenario())

    def test_stop_is_idempotent_and_health_reflects_it(self):
        async def scenario():
            service = PubSubService()
            await service.start()
            assert service.health()["running"]
            await service.stop()
            await service.stop()
            health = service.health()
            assert health["stopped"] and not health["running"]
        run(scenario())

    def test_notifications_iterator_ends_after_close(self):
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                await service.publish(CATALOG)
                await service.publish(CATALOG)
                collected = []

                async def consume():
                    async for notification in session.notifications():
                        collected.append(notification)

                consumer = asyncio.ensure_future(consume())
                await asyncio.sleep(0.05)
                await session.close()
                await asyncio.wait_for(consumer, timeout=2)
                assert [n.document_id for n in collected] == [1, 2]
        run(scenario())

    def test_slow_consumer_drops_oldest_not_ingest(self):
        async def scenario():
            async with PubSubService(session_queue_size=2) as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                await service.publish_many([CATALOG] * 5)
                assert session.pending_notifications() == 2
                assert session.dropped == 3
                # the two newest notifications survived
                kept = [await session.next_notification(timeout=1)
                        for _ in range(2)]
                assert [n.document_id for n in kept] == [4, 5]
        run(scenario())


class TestIngestWorkerFailure:
    def test_crashed_ingest_worker_fails_pending_publishes_and_recovers(self):
        """An unexpected failure inside the ingest loop (here: a health probe
        blowing up) must fail every pending future instead of stranding its
        awaiter, and the next operation must get a fresh worker."""
        async def scenario():
            async with PubSubService() as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                boom = RuntimeError("probe exploded")

                async def bad_probe(loop):
                    service._probe_bank_health = original  # fail exactly once
                    raise boom

                original = service._probe_bank_health
                service._probe_bank_health = bad_probe
                with pytest.raises(RuntimeError, match="ingest worker crashed"):
                    await service.publish(CATALOG)
                # the service self-heals: a fresh worker serves the next publish
                assert (await service.publish(CATALOG)).matched == ("c:q",)
        run(scenario())

    def test_crash_fails_publishers_blocked_on_a_full_queue(self):
        """Publishers blocked in queue.put when the worker crashes enqueue only
        after the drain frees slots; the tick-looped drain must still answer
        every one of them — none may hang."""
        async def scenario():
            async with PubSubService(queue_limit=2, batch_max=2) as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                boom = RuntimeError("probe exploded")

                async def bad_probe(loop):
                    service._probe_bank_health = original  # fail exactly once
                    raise boom

                original = service._probe_bank_health
                service._probe_bank_health = bad_probe
                pending = [asyncio.ensure_future(service.publish(CATALOG))
                           for _ in range(6)]
                done, not_done = await asyncio.wait(pending, timeout=5)
                assert not not_done  # every publish resolved, none stranded
                outcomes = [task.exception() for task in done]
                assert any(isinstance(exc, RuntimeError) for exc in outcomes)
                # the service still self-heals afterwards
                assert (await service.publish(CATALOG)).matched == ("c:q",)
        run(scenario())

    def test_stop_completes_even_after_an_ingest_crash(self):
        """A permanently failing probe must not leave stop() half-done: the
        worker crash is swallowed after its futures were failed, sessions are
        still marked closed, and stop stays idempotent."""
        async def scenario():
            service = PubSubService()
            await service.start()
            session = await service.connect("c")

            async def bad_probe(loop):
                raise RuntimeError("boom")

            service._probe_bank_health = bad_probe
            with pytest.raises(RuntimeError, match="ingest worker crashed"):
                await service.publish(CATALOG)
            await asyncio.wait_for(service.stop(), timeout=5)
            assert service.health()["stopped"]
            assert session.closed
            await service.stop()  # still idempotent
        run(scenario())

    def test_snapshot_after_stop_raises_instead_of_losing_state(self):
        async def scenario():
            service = PubSubService()
            session = await service.connect("c")
            await session.subscribe("q", "/a")
            good = service.snapshot()
            assert good["registration_order"] == ["c:q"]
            await service.stop()
            with pytest.raises(ServiceClosedError):
                service.snapshot()  # sessions are gone; empty would be a lie
        run(scenario())


class TestShardedService:
    def test_sharded_service_respawns_killed_worker_between_documents(self):
        async def scenario():
            async with PubSubService(shards=2) as service:
                session = await service.connect("c")
                await session.subscribe("q", "/catalog/book")
                assert (await service.publish(CATALOG)).matched
                victim = service.bank.worker_status()[0]["pid"]
                os.kill(victim, signal.SIGKILL)
                while service.bank.worker_status()[0]["alive"]:
                    await asyncio.sleep(0.01)
                result = await service.publish(CATALOG)
                assert result.matched == ("c:q",)
                assert service.metrics()["workers_respawned"] == 1
                workers = service.health()["workers"]
                assert all(record["alive"] for record in workers)
        run(scenario())

    def test_sharded_service_matches_in_process_service(self):
        async def scenario():
            documents = [
                f"<catalog><book><price>{price}</price></book></catalog>"
                for price in range(8)
            ]
            outcomes = []
            for shards in (None, 2):
                async with PubSubService(shards=shards) as service:
                    session = await service.connect("c")
                    await session.subscribe("cheap", "/catalog/book[price < 4]")
                    await session.subscribe("all", "/catalog/book")
                    results = await service.publish_many(documents)
                    outcomes.append([result.matched for result in results])
            assert outcomes[0] == outcomes[1]
        run(scenario())
