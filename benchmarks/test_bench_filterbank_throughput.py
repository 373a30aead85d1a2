"""Extension experiment: filter-bank engine throughput across the sharing spectrum.

Five engines serve the same subscriptions over the same document streams:

* ``fast``     — ``CompiledFilterBank(stats=False)``: the compiled trie engine's
  match-only fast path (no statistics, no frontier records for path-shaped plans,
  early retirement of decided subscriptions) — PR 3;
* ``sharded``  — :class:`~repro.core.ShardedFilterBank`: the match-only engine
  partitioned across worker processes, one token broadcast per document — PR 3;
* ``compiled`` — :class:`~repro.core.CompiledFilterBank`: all queries merged into a
  shared prefix trie, statistics-accurate per-query state on flat plans (PR 2);
* ``indexed``  — :class:`~repro.core.FilterBank`: label → subscription inverted index,
  per-query interpreted filters (PR 1);
* ``naive``    — :class:`~repro.baselines.NaiveFilterBank`: every event to every filter.

Two workloads bracket the sharing spectrum.  The *topic feed* is label-sparse (each
subscription watches disjoint labels), the indexed bank's best case.  The *shared
prefix* workload is the YFilter-style stress test: every subscription starts with
``/catalog/product`` and continues in a small suffix alphabet reused at every depth,
so label dispatch degenerates to broadcast while the trie evaluates the common prefix
once and wakes only the subscriptions whose whole path matched so far.

Timings use ``time.perf_counter`` with ``REPEATS`` repeats per configuration and the
*median* reported, so the asserted speedups cannot be flipped by a single scheduler
hiccup.  The acceptance criteria are asserted, not just reported: at the largest
subscription count on the shared-prefix workload the compiled engine must beat the
indexed bank by ``REQUIRED_SPEEDUP``x, the match-only fast path must beat the
compiled engine by ``REQUIRED_FAST_SPEEDUP``x, and — on machines with at least
``SHARDED_MIN_CORES`` cores — the sharded bank must beat single-process match-only by
``REQUIRED_SHARDED_SPEEDUP``x.  Matched sets agree across all engines, and the
statistics-accurate engines also agree on per-query
:class:`~repro.core.FilterStatistics` byte-for-byte.

Every run *appends* a timestamped entry to ``BENCH_filterbank.json`` at the
repository root (schema 2: ``{"schema": 2, "runs": [...]}``), so the file is an
actual performance trajectory future PRs can diff instead of a snapshot that each
run overwrites.  Setting ``FILTERBANK_BENCH_SMOKE=1`` shrinks the sizes so CI can
exercise every engine on each push without paying the full measurement cost (the
speedup assertions are skipped in smoke mode; the correctness assertions are not).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.baselines import NaiveFilterBank
from repro.core import (
    CompiledFilterBank,
    FilterBank,
    ShardedFilterBank,
)
from repro.workloads import (
    shared_prefix_feed,
    shared_prefix_subscriptions,
    topic_feed,
    topic_subscriptions,
)
from repro.xpath import parse_query

from .conftest import append_bench_run, print_table

SMOKE = os.environ.get("FILTERBANK_BENCH_SMOKE") == "1"

SUBSCRIPTION_COUNTS = [5, 25] if SMOKE else [10, 100, 1000]
TOPICS = 100
ENTRIES = 10 if SMOKE else 60

#: shared-prefix workload shape (see workloads.shared_prefix_subscriptions)
PREFIX_BRANCHING = 4
PREFIX_SUFFIX_DEPTH = 3
PREFIX_ENTRIES = 10 if SMOKE else 60

#: timing repeats per configuration; the median is reported
REPEATS = 2 if SMOKE else 3

#: the asserted acceptance criteria at the largest subscription count (prefix
#: workload): compiled vs indexed, match-only vs compiled, sharded vs match-only
REQUIRED_SPEEDUP = 3.0
REQUIRED_FAST_SPEEDUP = 5.0
REQUIRED_SHARDED_SPEEDUP = 2.0
SHARDED_MIN_CORES = 4

CORES = os.cpu_count() or 1
SHARDS = min(CORES, 4)

_BANKS = {
    "fast": lambda: CompiledFilterBank(stats=False),
    "sharded": lambda: ShardedFilterBank(SHARDS, stats=False),
    "compiled": CompiledFilterBank,
    "indexed": FilterBank,
    "naive": NaiveFilterBank,
}
KINDS = list(_BANKS)

#: engine kinds measured by the parametrized pytest-benchmark sweep (the sharded
#: bank spawns processes per measurement; it is measured by the assertion test only)
SWEEP_KINDS = ["fast", "compiled", "indexed", "naive"]

#: (workload, kind, subscriptions) -> {"seconds", "events", "matched", "stats"}
_measurements = {}


def _subscriptions(workload: str, count: int):
    if workload == "topic":
        return topic_subscriptions(count, topics=TOPICS)
    return shared_prefix_subscriptions(
        count, branching=PREFIX_BRANCHING, suffix_depth=PREFIX_SUFFIX_DEPTH, seed=11)


def _build_bank(workload: str, kind: str, subscriptions: int):
    bank = _BANKS[kind]()
    for index, text in enumerate(_subscriptions(workload, subscriptions)):
        bank.register(f"sub{index}", parse_query(text))
    return bank


def _document(workload: str):
    if workload == "topic":
        return topic_feed(ENTRIES, topics=TOPICS, seed=42)
    return shared_prefix_feed(
        PREFIX_ENTRIES, branching=PREFIX_BRANCHING,
        suffix_depth=PREFIX_SUFFIX_DEPTH, seed=43)


def _measure(workload: str, kind: str, subscriptions: int) -> dict:
    """Median-of-``REPEATS`` wall-clock measurement, cached per configuration.

    Computed on demand so the comparison tests are self-sufficient under
    ``pytest -k`` or test reordering.  An untimed warm-up run builds the trie (and,
    for the sharded bank, spawns the workers) before the timed repeats, and the
    median over ``perf_counter`` samples is reported so a single scheduler hiccup
    cannot flip the speedup assertions.
    """
    key = (workload, kind, subscriptions)
    if key not in _measurements:
        bank = _build_bank(workload, kind, subscriptions)
        try:
            events = _document(workload).events()
            result = bank.filter_events(iter(events))  # warm-up, untimed
            samples = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = bank.filter_events(iter(events))
                samples.append(time.perf_counter() - start)
            _measurements[key] = {
                "seconds": statistics.median(samples),
                "events": len(events),
                "matched": sorted(result.matched),
                "stats": result.per_query_stats,
            }
        finally:
            if hasattr(bank, "close"):
                bank.close()
    return _measurements[key]


@pytest.mark.parametrize("subscriptions", SUBSCRIPTION_COUNTS)
@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_filterbank_events_per_second(benchmark, kind, subscriptions):
    bank = _build_bank("topic", kind, subscriptions)
    events = _document("topic").events()

    result = benchmark.pedantic(
        lambda: bank.filter_events(iter(events)), rounds=1, iterations=1
    )
    measurement = _measure("topic", kind, subscriptions)
    benchmark.extra_info.update({
        "workload": "topic",
        "kind": kind,
        "subscriptions": subscriptions,
        "events": len(events),
        "events_per_second": round(len(events) / measurement["seconds"]),
        "matched": len(result.matched),
    })


def test_indexed_bank_beats_naive_at_scale():
    """PR-1 criterion: indexed strictly faster at 100+ subscriptions, same matches."""
    for subscriptions in SUBSCRIPTION_COUNTS:
        indexed = _measure("topic", "indexed", subscriptions)
        naive = _measure("topic", "naive", subscriptions)
        assert indexed["matched"] == naive["matched"]
        if not SMOKE and subscriptions >= 100:
            assert indexed["seconds"] < naive["seconds"], (
                f"indexed bank not faster at {subscriptions} subscriptions: "
                f"{indexed['seconds']:.4f}s vs naive {naive['seconds']:.4f}s"
            )


def test_compiled_engine_matches_and_outpaces_indexed_bank():
    """PR-2 criterion, asserted: on the shared-prefix workload the compiled trie
    engine reports byte-identical matched sets and per-query statistics at every
    scale, and is at least ``REQUIRED_SPEEDUP``x faster than the PR-1 indexed bank at
    the largest subscription count."""
    for subscriptions in SUBSCRIPTION_COUNTS:
        compiled = _measure("prefix", "compiled", subscriptions)
        indexed = _measure("prefix", "indexed", subscriptions)
        assert compiled["matched"] == indexed["matched"]
        assert compiled["stats"] == indexed["stats"], (
            f"per-query statistics diverge at {subscriptions} subscriptions"
        )
    top = SUBSCRIPTION_COUNTS[-1]
    compiled = _measure("prefix", "compiled", top)
    indexed = _measure("prefix", "indexed", top)
    speedup = indexed["seconds"] / compiled["seconds"]
    if not SMOKE:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"compiled engine only {speedup:.2f}x faster than the indexed bank at "
            f"{top} subscriptions (required: {REQUIRED_SPEEDUP}x)"
        )


def test_match_only_fast_path_outpaces_compiled_engine():
    """PR-3 criterion, asserted: the match-only fast path reports the same matched
    sets as the statistics-accurate compiled engine at every scale and is at least
    ``REQUIRED_FAST_SPEEDUP``x faster at the largest subscription count."""
    for subscriptions in SUBSCRIPTION_COUNTS:
        fast = _measure("prefix", "fast", subscriptions)
        compiled = _measure("prefix", "compiled", subscriptions)
        assert fast["matched"] == compiled["matched"]
        assert fast["stats"] == {}
    top = SUBSCRIPTION_COUNTS[-1]
    fast = _measure("prefix", "fast", top)
    compiled = _measure("prefix", "compiled", top)
    speedup = compiled["seconds"] / fast["seconds"]
    if not SMOKE:
        assert speedup >= REQUIRED_FAST_SPEEDUP, (
            f"match-only fast path only {speedup:.2f}x faster than the compiled "
            f"engine at {top} subscriptions (required: {REQUIRED_FAST_SPEEDUP}x)"
        )


def test_sharded_bank_matches_and_scales_on_multicore():
    """PR-3 criterion: the sharded bank reports the same matched sets as the
    single-process match-only engine; on machines with at least
    ``SHARDED_MIN_CORES`` cores it must also be ``REQUIRED_SHARDED_SPEEDUP``x faster
    at the largest subscription count (on smaller machines the broadcast overhead is
    recorded in the trajectory but not asserted against)."""
    top = SUBSCRIPTION_COUNTS[-1]
    sharded = _measure("prefix", "sharded", top)
    fast = _measure("prefix", "fast", top)
    assert sharded["matched"] == fast["matched"]
    if not SMOKE and CORES >= SHARDED_MIN_CORES:
        speedup = fast["seconds"] / sharded["seconds"]
        assert speedup >= REQUIRED_SHARDED_SPEEDUP, (
            f"sharded bank only {speedup:.2f}x faster than single-process "
            f"match-only at {top} subscriptions on {CORES} cores "
            f"(required: {REQUIRED_SHARDED_SPEEDUP}x)"
        )


def test_compiled_engine_matches_naive_on_shared_prefix():
    """The compiled engine also agrees with the pre-index baseline (smallest scale
    suffices for the naive bank; larger scales are covered against indexed above)."""
    subscriptions = SUBSCRIPTION_COUNTS[0]
    compiled = _measure("prefix", "compiled", subscriptions)
    naive = _measure("prefix", "naive", subscriptions)
    assert compiled["matched"] == naive["matched"]
    assert compiled["stats"] == naive["stats"]


def _run_entry() -> dict:
    """Collect every cached measurement into one trajectory run entry."""
    results = []
    for (workload, kind, subscriptions), m in sorted(_measurements.items()):
        indexed = _measurements.get((workload, "indexed", subscriptions))
        compiled = _measurements.get((workload, "compiled", subscriptions))
        entry = {
            "workload": workload,
            "engine": kind,
            "subscriptions": subscriptions,
            "events": m["events"],
            "seconds": round(m["seconds"], 6),
            "events_per_second": round(m["events"] / m["seconds"]),
            "matched": len(m["matched"]),
        }
        if kind == "sharded":
            entry["shards"] = SHARDS
        if indexed is not None and kind != "indexed":
            entry["speedup_vs_indexed"] = round(indexed["seconds"] / m["seconds"], 2)
        if compiled is not None and kind in ("fast", "sharded"):
            entry["speedup_vs_compiled"] = round(
                compiled["seconds"] / m["seconds"], 2)
        results.append(entry)
    return {
        "benchmark": "filterbank_throughput",
        "smoke": SMOKE,
        "cores": CORES,
        "repeats": REPEATS,
        "required_speedups": {
            "compiled_vs_indexed": REQUIRED_SPEEDUP,
            "fast_vs_compiled": REQUIRED_FAST_SPEEDUP,
            "sharded_vs_fast": REQUIRED_SHARDED_SPEEDUP,
        },
        "subscription_counts": SUBSCRIPTION_COUNTS,
        "workloads": {
            "topic": {"entries": ENTRIES, "topics": TOPICS},
            "prefix": {"entries": PREFIX_ENTRIES, "branching": PREFIX_BRANCHING,
                       "suffix_depth": PREFIX_SUFFIX_DEPTH},
        },
        "results": results,
    }


def teardown_module(module):  # noqa: D103
    if not _measurements:
        return
    append_bench_run(_run_entry())
    for workload, title in (("topic", "label-sparse topic feed"),
                            ("prefix", "shared-prefix trie workload")):
        rows = []
        for subscriptions in SUBSCRIPTION_COUNTS:
            row = {kind: _measurements.get((workload, kind, subscriptions))
                   for kind in KINDS}
            if all(value is None for value in row.values()):
                continue
            compiled = row.get("compiled")
            fast = row.get("fast")
            rows.append((
                subscriptions,
                next(m["events"] for m in row.values() if m is not None),
                *(f"{m['events'] / m['seconds']:,.0f}" if m else "-"
                  for m in row.values()),
                (f"{compiled['seconds'] / fast['seconds']:.1f}x"
                 if compiled and fast else "-"),
            ))
        if rows:
            print_table(
                f"Extension - filter bank throughput ({title})",
                ["subscriptions", "events", *(f"{kind} ev/s" for kind in KINDS),
                 "fast speedup"],
                rows,
            )
