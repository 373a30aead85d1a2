"""Publish/subscribe at scale: the shared-dispatch filter bank on heavy traffic.

Registers hundreds of XPath subscriptions, then routes a stream of documents through
the indexed :class:`~repro.core.FilterBank` three ways:

1. ``filter_many``   -- batch mode over materialized documents (with early-unregister
                        of subscriptions whose match is already decided);
2. ``filter_stream`` -- chunked byte input parsed incrementally, so the document is
                        never materialized (larger-than-memory filtering);
3. the same traffic through the pre-index ``NaiveFilterBank`` for the throughput
                        comparison.

Finally it runs the compiled prefix-trie engine (``CompiledFilterBank``) against the
indexed bank on a shared-prefix workload — thousands of subscriptions drawn from one
path trie, the YFilter-style setting where label dispatch degenerates to broadcast but
the trie evaluates each common prefix once.

Run with:  python examples/pubsub_at_scale.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import FilterBank, parse_query
from repro.baselines import NaiveFilterBank
from repro.core import CompiledFilterBank, ShardedFilterBank
from repro.workloads import (
    book_catalog,
    dissemination_queries,
    shared_prefix_feed,
    shared_prefix_subscriptions,
    topic_feed,
    topic_subscriptions,
)
from repro.xmlstream import serialize_document

SUBSCRIPTIONS = 300
TOPICS = 150


def build_bank(bank):
    for index, text in enumerate(topic_subscriptions(SUBSCRIPTIONS, topics=TOPICS)):
        bank.register(f"topic-sub{index}", parse_query(text))
    for index, text in enumerate(dissemination_queries()):
        bank.register(f"catalog-sub{index}", parse_query(text))
    return bank


def main() -> None:
    indexed = build_bank(FilterBank())
    naive = build_bank(NaiveFilterBank())
    documents = [topic_feed(80, topics=TOPICS, seed=seed) for seed in range(4)]
    documents.append(book_catalog(40, seed=5))
    total_events = sum(len(document.events()) for document in documents)
    print(f"{len(indexed)} subscriptions, {len(documents)} incoming documents, "
          f"{total_events} events\n")

    # 1. batch mode over the whole feed ------------------------------------------------
    start = time.perf_counter()
    results = indexed.filter_many(documents)
    batch_seconds = time.perf_counter() - start
    for number, result in enumerate(results):
        print(f"document {number}: {len(result.matched)} subscriptions matched")

    # 2. chunked streaming input (the bank never materializes the document) -----------
    serialized = serialize_document(documents[0])
    chunks = [serialized[i:i + 4096].encode("utf-8")
              for i in range(0, len(serialized), 4096)]
    stream_result = indexed.filter_stream(chunks)
    assert sorted(stream_result.matched) == sorted(results[0].matched)
    print(f"\nfilter_stream over {len(chunks)} byte chunks reproduced document 0's "
          f"matched set ({len(stream_result.matched)} subscriptions)")

    # 3. throughput comparison against the pre-index bank -----------------------------
    start = time.perf_counter()
    naive_results = [naive.filter_document(document) for document in documents]
    naive_seconds = time.perf_counter() - start
    assert [sorted(r.matched) for r in naive_results] == \
        [sorted(r.matched) for r in results]
    print(f"\nindexed bank: {total_events / batch_seconds:>12,.0f} events/sec "
          f"({batch_seconds:.3f}s)")
    print(f"naive bank:   {total_events / naive_seconds:>12,.0f} events/sec "
          f"({naive_seconds:.3f}s)")
    print(f"speedup:      {naive_seconds / batch_seconds:.1f}x at "
          f"{len(indexed)} subscriptions")

    # 4. compiled prefix-trie engine on a shared-prefix workload ----------------------
    compiled, indexed = CompiledFilterBank(), FilterBank()
    for index, text in enumerate(shared_prefix_subscriptions(1000, seed=3)):
        compiled.register(f"sub{index}", parse_query(text))
        indexed.register(f"sub{index}", parse_query(text))
    feed_events = shared_prefix_feed(40, seed=4).events()
    timings = {}
    matched_sets = {}
    for label, bank in (("compiled", compiled), ("indexed", indexed)):
        start = time.perf_counter()
        result = bank.filter_events(iter(feed_events))
        timings[label] = time.perf_counter() - start
        matched_sets[label] = sorted(result.matched)
    assert matched_sets["compiled"] == matched_sets["indexed"]
    matched = len(matched_sets["compiled"])
    print(f"\nshared-prefix workload, {len(compiled)} subscriptions sharing "
          f"/catalog/product ({compiled.trie_size()} trie nodes):")
    print(f"compiled trie: {len(feed_events) / timings['compiled']:>12,.0f} events/sec")
    print(f"indexed bank:  {len(feed_events) / timings['indexed']:>12,.0f} events/sec")
    print(f"speedup:       {timings['indexed'] / timings['compiled']:.1f}x "
          f"({matched} subscriptions matched)")

    # 5. the match-only fast path (PR 3): same matches, no statistics machinery -------
    fast = CompiledFilterBank(stats=False)
    for index, text in enumerate(shared_prefix_subscriptions(1000, seed=3)):
        fast.register(f"sub{index}", parse_query(text))
    fast.filter_events(iter(feed_events))  # warm up (builds the trie)
    start = time.perf_counter()
    fast_result = fast.filter_events(iter(feed_events))
    fast_seconds = time.perf_counter() - start
    assert sorted(fast_result.matched) == matched_sets["compiled"]
    print(f"\nmatch-only fast path ({fast.distinct_plan_count()} interned plans "
          f"for {len(fast)} subscriptions):")
    print(f"fast path:     {len(feed_events) / fast_seconds:>12,.0f} events/sec "
          f"({timings['compiled'] / fast_seconds:.0f}x over the stats engine)")

    # 6. subscription churn splices the live trie instead of rebuilding it ------------
    start = time.perf_counter()
    for index, text in enumerate(shared_prefix_subscriptions(200, seed=9)):
        fast.register(f"churn{index}", parse_query(text))
        fast.unregister(f"churn{index}")
    churn_seconds = time.perf_counter() - start
    print(f"400 churn ops spliced into the live trie in {churn_seconds * 1000:.1f}ms "
          f"({400 / churn_seconds:,.0f} ops/sec)")

    # 7. the sharded bank spreads the subscriptions across worker processes -----------
    shards = min(4, os.cpu_count() or 1)
    with ShardedFilterBank(shards) as sharded:
        for index, text in enumerate(shared_prefix_subscriptions(1000, seed=3)):
            sharded.register(f"sub{index}", parse_query(text))
        sharded.filter_events(iter(feed_events))  # warm up (spawns the workers)
        start = time.perf_counter()
        sharded_result = sharded.filter_events(iter(feed_events))
        sharded_seconds = time.perf_counter() - start
        assert sorted(sharded_result.matched) == matched_sets["compiled"]
        print(f"\nsharded bank ({shards} worker processes, "
              f"{os.cpu_count()} cores visible):")
        print(f"sharded:       {len(feed_events) / sharded_seconds:>12,.0f} "
              f"events/sec ({fast_seconds / sharded_seconds:.2f}x over "
              f"single-process match-only)")


if __name__ == "__main__":
    main()
