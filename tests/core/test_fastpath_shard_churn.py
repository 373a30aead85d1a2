"""Property tests for the PR-3 throughput layer.

Three equivalences must hold against the statistics-accurate engines:

* the **match-only fast path** (``CompiledFilterBank(stats=False)``) reports the same matched sets on arbitrary documents and
  query banks — including the path-plan tier that keeps no frontier records, the
  record-machinery tier for branching queries, and plan interning across duplicate
  registrations;
* an **incrementally maintained trie** (register/unregister splicing) is
  indistinguishable from a from-scratch rebuild after any operation sequence: same
  ``trie_size``, same matched sets, same per-query statistics;
* the **sharded bank** returns the same :class:`~repro.core.BankResult` as the
  single-process engine for every shard count, in both match-only and
  statistics-accurate modes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CompiledFilterBank,
    FilterBank,
    ShardedFilterBank,
)
from repro.workloads import (
    shared_prefix_feed,
    shared_prefix_subscriptions,
    subscription_churn,
)
from repro.xmlstream.parse import parse_events
from repro.xpath import parse_query

from ..strategies import documents, random_supported_query

#: branching and descendant-heavy shapes exercising the record-machinery tier of the
#: fast path (path plans take the no-record tier; these cannot)
_BRANCHING_QUERIES = [
    "/a[b and c]",
    "//a[.//b and c]",
    "/a[c[.//e and f] and b > 5]",
    "//*[b and .//c > 2]",
    "/a[b and b]",
    "//a[.//a and b]",
]


def _register_random_queries(seed, count, banks):
    rng = random.Random(seed)
    queries = {}
    for index in range(count):
        roll = rng.random()
        if roll < 0.3:
            query = parse_query(rng.choice(_BRANCHING_QUERIES))
        elif roll < 0.45 and queries:
            # verbatim duplicate: exercises plan interning + shared fan-out
            query = parse_query(rng.choice(list(queries.values())).to_xpath())
        else:
            query = random_supported_query(rng, allow_wildcard=True)
        name = f"q{index}"
        queries[name] = query
        for bank in banks:
            bank.register(name, query)
    return queries


class TestMatchOnlyEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(document=documents(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=8))
    def test_matched_sets_agree_on_random_inputs(self, document, seed, count):
        fast, stats, indexed = (CompiledFilterBank(stats=False), CompiledFilterBank(),
                                FilterBank())
        _register_random_queries(seed, count, (fast, stats, indexed))
        fast_result = fast.filter_document(document)
        stats_result = stats.filter_document(document)
        indexed_result = indexed.filter_document(document)
        assert fast_result.matched == stats_result.matched == indexed_result.matched
        assert fast_result.per_query_stats == {}

    @settings(max_examples=30, deadline=None)
    @given(document=documents(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=6))
    def test_filter_many_and_reuse_agree(self, document, seed, count):
        """Back-to-back documents through one fast bank (lazy per-document init must
        fully isolate documents) equal the stats engine's batch mode."""
        fast, stats = CompiledFilterBank(stats=False), CompiledFilterBank()
        _register_random_queries(seed, count, (fast, stats))
        fast_batch = fast.filter_many([document, document])
        stats_batch = stats.filter_many([document, document])
        assert [r.matched for r in fast_batch] == [r.matched for r in stats_batch]

    def test_shared_prefix_workload_matches(self):
        fast, stats = CompiledFilterBank(stats=False), CompiledFilterBank()
        subscriptions = shared_prefix_subscriptions(
            60, branching=2, suffix_depth=3, descendant_fraction=0.3,
            wildcard_fraction=0.2, seed=21)
        for index, text in enumerate(subscriptions):
            fast.register(f"q{index}", parse_query(text))
            stats.register(f"q{index}", parse_query(text))
        for recursion in (1, 3):
            feed = shared_prefix_feed(25, branching=2, suffix_depth=3,
                                      recursion=recursion, seed=22)
            assert fast.filter_document(feed).matched == \
                stats.filter_document(feed).matched

    def test_truncated_stream_raises_and_fast_bank_stays_usable(self):
        from repro.xmlstream.events import StartDocument, StartElement

        bank = CompiledFilterBank(stats=False)
        bank.register("q", parse_query("/a[b > 2]"))
        with pytest.raises(ValueError):
            bank.filter_events([StartDocument(), StartElement("a")])
        assert bank.filter_events(parse_events("<a><b>3</b></a>")).matched == ["q"]


class TestPlanInterning:
    def test_equal_queries_share_one_plan(self):
        bank = CompiledFilterBank()
        bank.register("x", parse_query("/a/b[value > 3]"))
        bank.register("y", parse_query("/a/b[value > 3]"))
        bank.register("z", parse_query("/a/b[value > 4]"))
        assert len(bank) == 3
        assert bank.distinct_plan_count() == 2
        assert bank.plan("x") is bank.plan("y")
        assert bank.plan("x") is not bank.plan("z")
        result = bank.filter_events(parse_events("<a><b><value>5</value></b></a>"))
        assert result.matched == ["x", "y", "z"]
        # shared runtimes fan identical statistics out to every duplicate name
        assert result.per_query_stats["x"] == result.per_query_stats["y"]

    def test_unregistering_one_duplicate_keeps_the_plan_alive(self):
        bank = CompiledFilterBank()
        bank.register("x", parse_query("/a/b"))
        bank.register("y", parse_query("/a/b"))
        bank.trie_size()  # materialize the trie so unregister exercises splicing
        bank.unregister("x")
        assert bank.distinct_plan_count() == 1
        assert bank.filter_events(parse_events("<a><b/></a>")).matched == ["y"]
        bank.unregister("y")
        assert bank.distinct_plan_count() == 0
        assert bank.trie_size() == 0


def _apply_ops(bank, operations):
    for op in operations:
        if op[0] == "register":
            bank.register(op[1], parse_query(op[2]))
        else:
            bank.unregister(op[1])


class TestIncrementalTrieMaintenance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           ops=st.integers(min_value=1, max_value=60),
           warm_after=st.integers(min_value=0, max_value=10),
           stats=st.booleans())
    def test_spliced_trie_equals_rebuilt_and_fresh(self, seed, ops, warm_after, stats):
        """After any churn sequence, the incrementally maintained trie has the same
        size and produces the same results as (a) the same bank after a forced
        from-scratch rebuild and (b) a fresh bank registered with the final state.

        ``warm_after`` materializes the trie mid-sequence so the remaining ops run
        through the incremental splice (before materialization they only mutate the
        plan table); ``stats`` covers both sub-slot layouts (the match-only layout
        registers only path-plan leaves on the trie).
        """
        operations = subscription_churn(
            ops, branching=2, suffix_depth=2, duplication=0.4,
            unregister_fraction=0.45, descendant_fraction=0.3,
            wildcard_fraction=0.2, seed=seed)
        churned = CompiledFilterBank(stats=stats)
        for index, op in enumerate(operations):
            if index == warm_after:
                churned.trie_size()  # builds the trie; later ops splice
            _apply_ops(churned, operations[index:index + 1])
        fresh = CompiledFilterBank(stats=stats)
        for name in churned.subscriptions():
            fresh.register(name, churned.query(name))
        assert churned.trie_size() == fresh.trie_size()
        document = shared_prefix_feed(8, branching=2, suffix_depth=2,
                                      recursion=2, seed=seed % 1000)
        churned_result = churned.filter_document(document)
        fresh_result = fresh.filter_document(document)
        assert churned_result.matched == fresh_result.matched
        assert churned_result.per_query_stats == fresh_result.per_query_stats
        size_before = churned.trie_size()
        churned.rebuild_trie()
        assert churned.trie_size() == size_before
        rebuilt_result = churned.filter_document(document)
        assert rebuilt_result.matched == churned_result.matched
        assert rebuilt_result.per_query_stats == churned_result.per_query_stats

    def test_splice_out_prunes_shared_chains_conservatively(self):
        bank = CompiledFilterBank()
        bank.register("long", parse_query("/a/b/c/d"))
        bank.register("short", parse_query("/a/b"))
        bank.trie_size()
        bank.unregister("long")
        # the shared /a/b prefix must survive; only /c/d may be pruned
        assert bank.trie_size() == 2
        assert bank.filter_events(parse_events("<a><b/></a>")).matched == ["short"]
        bank.register("long2", parse_query("/a/b/c/d"))
        assert bank.trie_size() == 4
        result = bank.filter_events(parse_events("<a><b><c><d/></c></b></a>"))
        assert result.matched == ["short", "long2"]


class TestShardedBank:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("stats", [False, True])
    def test_sharded_results_equal_single_process(self, shards, stats):
        subscriptions = shared_prefix_subscriptions(
            30, branching=2, suffix_depth=3, descendant_fraction=0.2,
            wildcard_fraction=0.1, seed=7)
        reference = CompiledFilterBank(stats=stats)
        for index, text in enumerate(subscriptions):
            reference.register(f"q{index}", parse_query(text))
        feeds = [shared_prefix_feed(12, branching=2, suffix_depth=3,
                                    recursion=recursion, seed=8)
                 for recursion in (1, 2)]
        with ShardedFilterBank(shards, stats=stats) as sharded:
            for index, text in enumerate(subscriptions):
                sharded.register(f"q{index}", parse_query(text))
            for feed in feeds:
                expected = reference.filter_document(feed)
                got = sharded.filter_document(feed)
                assert got.matched == expected.matched
                if stats:
                    assert got.per_query_stats == expected.per_query_stats
                else:
                    assert got.per_query_stats == {}
            # churn against live workers, then filter again
            sharded.unregister("q0")
            sharded.register("q0b", parse_query(subscriptions[0]))
            reference.unregister("q0")
            reference.register("q0b", parse_query(subscriptions[0]))
            expected = reference.filter_document(feeds[0])
            assert sharded.filter_document(feeds[0]).matched == expected.matched

    def test_sharded_random_banks_agree(self):
        rng_seeds = [3, 11, 42]
        for seed in rng_seeds:
            reference = CompiledFilterBank(stats=False)
            with ShardedFilterBank(2) as sharded:
                _register_random_queries(seed, 10, (reference, sharded))
                document = shared_prefix_feed(6, branching=2, suffix_depth=2, seed=seed)
                assert sharded.filter_document(document).matched == \
                    reference.filter_document(document).matched

    def test_filter_many_and_errors(self):
        with ShardedFilterBank(2) as sharded:
            sharded.register("q", parse_query("/a[b > 2]"))
            documents = [parse_events("<a><b>3</b></a>"),
                         parse_events("<a><b>1</b></a>")]
            results = sharded.filter_many(documents)
            assert [r.matched for r in results] == [["q"], []]
            from repro.xmlstream.events import StartDocument, StartElement
            with pytest.raises(ValueError):
                sharded.filter_events([StartDocument(), StartElement("a")])
            # the bank stays usable after a truncated stream
            assert sharded.filter_events(
                parse_events("<a><b>3</b></a>")).matched == ["q"]

    def test_parent_side_tokenizer_failure_leaves_bank_usable(self):
        """A parse error raised in the *parent's* tokenizer mid-broadcast must not
        desynchronize the workers: the broadcast is terminated, the stale replies
        drained, and the next filtering call works."""
        with ShardedFilterBank(2) as sharded:
            sharded.register("q", parse_query("/a[b > 2]"))
            with pytest.raises(Exception):
                sharded.filter_stream([b"<a><b>3</b></wrong>"])
            for _ in range(2):
                assert sharded.filter_text("<a><b>3</b></a>").matched == ["q"]

    def test_duplicate_names_and_validation_raise_in_parent(self):
        from repro.core import UnsupportedQueryError

        with ShardedFilterBank(2) as sharded:
            sharded.register("q", parse_query("/a"))
            with pytest.raises(ValueError):
                sharded.register("q", parse_query("/b"))
            with pytest.raises(UnsupportedQueryError):
                sharded.register("bad", parse_query("/a[b or c]"))
            with pytest.raises(KeyError):
                sharded.unregister("missing")
            assert sharded.subscriptions() == ["q"]
