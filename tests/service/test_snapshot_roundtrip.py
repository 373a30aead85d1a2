"""Snapshot/restore round-trips must be behaviorally invisible.

The property: for any subscription set and any document stream, a bank restored
from a snapshot produces :class:`~repro.core.BankResult`\\ s identical to the
original bank's — same matched lists (order included) in match-only mode, and
byte-identical per-query :class:`~repro.core.FilterStatistics` in stats mode.
Queries cover the full supported fragment via the shared hypothesis strategies
(wildcards, descendant axes, predicates, interned duplicates).  Service-level
snapshots additionally restore the session layout.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompiledFilterBank, ShardedFilterBank
from repro.service import (
    PubSubService,
    dumps_bank,
    loads_bank,
    restore_bank,
    snapshot_bank,
)
from repro.xpath import parse_query

from ..strategies import documents, random_supported_query


def _random_bank(seed: int, count: int, *, stats: bool):
    rng = random.Random(seed)
    bank = CompiledFilterBank(stats=stats)
    queries = []
    for index in range(count):
        if queries and rng.random() < 0.25:
            query = queries[rng.randrange(len(queries))]  # interned duplicate
        else:
            query = random_supported_query(rng, allow_wildcard=True)
        queries.append(query)
        bank.register(f"q{index}", query)
    if rng.random() < 0.5 and count > 1:
        bank.unregister(f"q{rng.randrange(count)}")  # churned state snapshots too
    return bank


class TestBankRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(document=documents(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=8),
           stats=st.booleans())
    def test_restored_bank_reports_identical_results(self, document, seed,
                                                     count, stats):
        original = _random_bank(seed, count, stats=stats)
        restored = loads_bank(dumps_bank(original))  # through real JSON text
        assert type(restored) is CompiledFilterBank
        assert restored.stats_mode == original.stats_mode
        assert restored.subscriptions() == original.subscriptions()
        assert restored.distinct_plan_count() == original.distinct_plan_count()
        for first in (original.filter_document(document),
                      original.filter_document(document)):
            second = restored.filter_document(document)
            assert second.matched == first.matched
            assert second.per_query_stats == first.per_query_stats

    @settings(max_examples=25, deadline=None)
    @given(document=documents(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=6))
    def test_match_only_alias_restores_as_match_only(self, document, seed, count):
        original = _random_bank(seed, count, stats=False)
        restored = restore_bank(snapshot_bank(original))
        result = restored.filter_document(document)
        assert result.matched == original.filter_document(document).matched
        assert result.per_query_stats == {}

    def test_sharded_snapshot_restores_shard_layout(self):
        from repro.xmlstream import parse_document

        document = parse_document("<a><b/><c><d>5</d></c></a>")
        with ShardedFilterBank(2) as original:
            for index in range(7):
                original.register(f"q{index}", parse_query("/a/b" if index % 2
                                                           else "//c[d > 2]"))
            snapshot = snapshot_bank(original)
            assert snapshot["kind"] == "sharded"
            assert snapshot["shards"] == 2
            with restore_bank(snapshot) as restored:
                assert isinstance(restored, ShardedFilterBank)
                assert restored.shard_count == 2
                assert restored.subscription_queries() == \
                    original.subscription_queries()
                assert restored.filter_document(document).matched == \
                    original.filter_document(document).matched

    def test_kind_override_restores_sharded_snapshot_in_process(self):
        with ShardedFilterBank(2) as original:
            original.register("q", parse_query("/a/b"))
            restored = restore_bank(snapshot_bank(original), kind="compiled")
        assert isinstance(restored, CompiledFilterBank)
        assert not restored.stats_mode
        assert restored.subscriptions() == ["q"]


class TestServiceRoundTrip:
    def test_sessions_and_subscriptions_survive_restart(self):
        import asyncio

        async def scenario():
            service = PubSubService()
            alice = await service.connect("alice")
            bob = await service.connect("bob")
            await alice.subscribe("cheap", "/catalog/book[price < 20]")
            await alice.subscribe("all", "/catalog/book")
            await bob.subscribe("cheap", "/catalog/book[price < 5]")
            document = "<catalog><book><price>3</price></book></catalog>"
            before = (await service.publish(document)).matched
            snapshot = json.loads(json.dumps(service.snapshot()))
            await service.stop()

            restored = PubSubService.restore(snapshot)
            async with restored:
                assert sorted(s.client_id for s in restored.sessions()) == \
                    ["alice", "bob"]
                restored_alice = restored.session("alice")
                assert restored_alice.subscriptions() == ["cheap", "all"]
                result = await restored.publish(document)
                assert result.matched == before
                note = await restored_alice.next_notification(timeout=1)
                assert note.matched == ("cheap", "all")
                # restored sessions are live: churn keeps working
                await restored_alice.unsubscribe("all")
                assert (await restored.publish(document)).matched == \
                    ("alice:cheap", "bob:cheap")

        asyncio.run(scenario())

    def test_interleaved_global_registration_order_is_preserved(self):
        """Subscriptions interleaved across sessions must restore in the same
        global bank order — round-robin shard assignment and matched-tuple
        ordering are order-determined."""
        import asyncio

        async def scenario():
            service = PubSubService()
            a = await service.connect("a")
            b = await service.connect("b")
            await a.subscribe("one", "/x")
            await b.subscribe("one", "/x")
            await a.subscribe("two", "/x")
            original_order = list(service.bank.subscription_queries())
            assert original_order == ["a:one", "b:one", "a:two"]
            snapshot = json.loads(json.dumps(service.snapshot()))
            await service.stop()
            restored = PubSubService.restore(snapshot)
            assert list(restored.bank.subscription_queries()) == original_order
            async with restored:
                result = await restored.publish("<x/>")
                assert result.matched == ("a:one", "b:one", "a:two")

        asyncio.run(scenario())

    def test_unsupported_schema_is_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="schema"):
            PubSubService.restore({"schema": 99, "kind": "service",
                                   "sessions": []})
        with pytest.raises(ValueError, match="schema"):
            restore_bank({"schema": 99, "kind": "compiled",
                          "subscriptions": []})

    def test_cross_feeding_snapshot_layouts_is_rejected_loudly(self):
        """A service snapshot through restore_bank (or vice versa) must raise,
        never silently restore an empty subscription state."""
        import asyncio

        import pytest

        async def build():
            service = PubSubService()
            session = await service.connect("c")
            await session.subscribe("q", "/a")
            snapshot = service.snapshot()
            await service.stop()
            return snapshot

        service_snapshot = asyncio.run(build())
        with pytest.raises(ValueError, match="service-level"):
            restore_bank(service_snapshot)

        bank = CompiledFilterBank()
        bank.register("q", parse_query("/a"))
        with pytest.raises(ValueError, match="not a service snapshot"):
            PubSubService.restore(snapshot_bank(bank))

    def test_restore_outside_a_running_loop_then_use_inside_one(self):
        """Snapshot restore is synchronous startup code: sessions built outside
        any event loop must still deliver correctly inside one (their delivery
        queues bind lazily — eager binding breaks on Python 3.9)."""
        import asyncio

        async def build():
            service = PubSubService()
            session = await service.connect("c")
            await session.subscribe("q", "/a")
            snapshot = service.snapshot()
            await service.stop()
            return snapshot

        snapshot = asyncio.run(build())
        restored = PubSubService.restore(snapshot)  # no loop running here

        async def use():
            async with restored:
                assert (await restored.publish("<a/>")).matched == ("c:q",)
                note = await restored.session("c").next_notification(timeout=1)
                assert note.matched == ("q",)

        asyncio.run(use())
