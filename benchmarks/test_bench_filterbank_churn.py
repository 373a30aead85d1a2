"""Extension experiment: subscription churn under incremental trie maintenance.

A live pub/sub service registers and unregisters subscriptions continuously while
serving traffic.  Before PR 3, every ``register``/``unregister`` on
:class:`~repro.core.CompiledFilterBank` discarded the shared prefix trie, so the next
document paid a full rebuild — O(total registered steps) per churn operation.  With
incremental maintenance an operation splices one plan into or out of the live trie in
O(query size).

The benchmark replays the same :func:`~repro.workloads.subscription_churn` operation
sequence against a warm bank two ways:

* ``incremental`` — apply the op; the splice happens inline and the trie stays
  current (this is the production path);
* ``rebuild``     — apply the op, then force
  :meth:`~repro.core.CompiledFilterBank.rebuild_trie` — the pre-PR-3 cost model,
  where the op invalidates the trie and the next filtering call rebuilds it.

Both variants interleave a document filter every ``FILTER_EVERY`` ops, asserting en
passant that the churned trie keeps producing the same matched sets as a freshly
built bank.  The acceptance criterion is asserted at the largest bank size:
incremental maintenance must be at least ``REQUIRED_CHURN_SPEEDUP``x faster than
rebuild-per-op.  Results are appended to the ``BENCH_filterbank.json`` trajectory.
``FILTERBANK_BENCH_SMOKE=1`` shrinks the sizes for CI (the speedup assertion is
skipped; the correctness assertions are not).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.core import CompiledFilterBank
from repro.workloads import (
    shared_prefix_feed,
    shared_prefix_subscriptions,
    subscription_churn,
)
from repro.xpath import parse_query

from .conftest import append_bench_run, print_table

SMOKE = os.environ.get("FILTERBANK_BENCH_SMOKE") == "1"

#: warm bank sizes the churn runs against
BANK_SIZES = [20] if SMOKE else [100, 1000]
#: churn operations per run
CHURN_OPS = 30 if SMOKE else 400
#: interleave one document filter every this many operations
FILTER_EVERY = 10 if SMOKE else 50
#: timing repeats per configuration; the median is reported
REPEATS = 2 if SMOKE else 3

REQUIRED_CHURN_SPEEDUP = 10.0

BRANCHING = 4
SUFFIX_DEPTH = 3

#: (bank_size, variant) -> {"seconds", "ops", "matched_trail"}
_measurements = {}


def _warm_subscriptions(size: int):
    return shared_prefix_subscriptions(
        size, branching=BRANCHING, suffix_depth=SUFFIX_DEPTH, seed=11)


def _operations():
    return subscription_churn(
        CHURN_OPS, branching=BRANCHING, suffix_depth=SUFFIX_DEPTH,
        duplication=0.3, unregister_fraction=0.45, seed=17)


def _document():
    return shared_prefix_feed(5 if SMOKE else 15, branching=BRANCHING,
                              suffix_depth=SUFFIX_DEPTH, seed=43)


def _build_warm_bank(size: int) -> CompiledFilterBank:
    bank = CompiledFilterBank(stats=False)
    for index, text in enumerate(_warm_subscriptions(size)):
        bank.register(f"warm{index}", parse_query(text))
    bank.trie_size()  # materialize the trie so churn ops run against a live trie
    return bank


def _apply(bank, op) -> None:
    if op[0] == "register":
        bank.register(op[1], parse_query(op[2]))
    else:
        bank.unregister(op[1])


def _measure(size: int, variant: str) -> dict:
    """Median-of-``REPEATS`` wall-clock cost of the churn sequence, cached."""
    key = (size, variant)
    if key not in _measurements:
        operations = _operations()
        events = _document().events()
        samples = []
        matched_trail = None
        for _ in range(REPEATS):
            bank = _build_warm_bank(size)
            trail = []
            start = time.perf_counter()
            for index, op in enumerate(operations):
                _apply(bank, op)
                if variant == "rebuild":
                    bank.rebuild_trie()
                if (index + 1) % FILTER_EVERY == 0:
                    trail.append(sorted(bank.filter_events(iter(events)).matched))
            samples.append(time.perf_counter() - start)
            matched_trail = trail
        _measurements[key] = {
            "seconds": statistics.median(samples),
            "ops": len(operations),
            "matched_trail": matched_trail,
        }
    return _measurements[key]


@pytest.mark.parametrize("size", BANK_SIZES)
def test_churned_bank_matches_fresh_rebuilds(size):
    """Correctness en passant: after the full churn sequence, the incrementally
    maintained bank equals a fresh bank registered with the final state, and the two
    churn variants saw identical matched sets at every interleaved filter."""
    incremental = _measure(size, "incremental")
    rebuild = _measure(size, "rebuild")
    assert incremental["matched_trail"] == rebuild["matched_trail"]

    bank = _build_warm_bank(size)
    for op in _operations():
        _apply(bank, op)
    fresh = CompiledFilterBank(stats=False)
    for name in bank.subscriptions():
        fresh.register(name, bank.query(name))
    assert bank.trie_size() == fresh.trie_size()
    events = _document().events()
    assert bank.filter_events(iter(events)).matched == \
        fresh.filter_events(iter(events)).matched


def test_incremental_maintenance_outpaces_rebuild_per_op():
    """PR-3 criterion, asserted: incremental register/unregister is at least
    ``REQUIRED_CHURN_SPEEDUP``x faster than rebuild-per-op at the largest bank."""
    top = BANK_SIZES[-1]
    incremental = _measure(top, "incremental")
    rebuild = _measure(top, "rebuild")
    speedup = rebuild["seconds"] / incremental["seconds"]
    if not SMOKE:
        assert speedup >= REQUIRED_CHURN_SPEEDUP, (
            f"incremental maintenance only {speedup:.2f}x faster than "
            f"rebuild-per-op at {top} warm subscriptions "
            f"(required: {REQUIRED_CHURN_SPEEDUP}x)"
        )


def _run_entry() -> dict:
    results = []
    for (size, variant), m in sorted(_measurements.items()):
        rebuild = _measurements.get((size, "rebuild"))
        entry = {
            "warm_subscriptions": size,
            "variant": variant,
            "churn_ops": m["ops"],
            "seconds": round(m["seconds"], 6),
            "ops_per_second": round(m["ops"] / m["seconds"]),
        }
        if variant == "incremental" and rebuild is not None:
            entry["speedup_vs_rebuild"] = round(
                rebuild["seconds"] / m["seconds"], 2)
        results.append(entry)
    return {
        "benchmark": "filterbank_churn",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "required_speedup": REQUIRED_CHURN_SPEEDUP,
        "bank_sizes": BANK_SIZES,
        "churn_ops": CHURN_OPS,
        "filter_every": FILTER_EVERY,
        "workload": {"branching": BRANCHING, "suffix_depth": SUFFIX_DEPTH,
                     "duplication": 0.3, "unregister_fraction": 0.45},
        "results": results,
    }


def teardown_module(module):  # noqa: D103
    if not _measurements:
        return
    append_bench_run(_run_entry())
    rows = []
    for size in BANK_SIZES:
        incremental = _measurements.get((size, "incremental"))
        rebuild = _measurements.get((size, "rebuild"))
        if incremental is None and rebuild is None:
            continue
        rows.append((
            size,
            incremental["ops"] if incremental else "-",
            f"{incremental['ops'] / incremental['seconds']:,.0f}"
            if incremental else "-",
            f"{rebuild['ops'] / rebuild['seconds']:,.0f}" if rebuild else "-",
            (f"{rebuild['seconds'] / incremental['seconds']:.1f}x"
             if incremental and rebuild else "-"),
        ))
    if rows:
        print_table(
            "Extension - subscription churn (incremental trie maintenance)",
            ["warm subs", "churn ops", "incremental ops/s", "rebuild ops/s",
             "incremental speedup"],
            rows,
        )
