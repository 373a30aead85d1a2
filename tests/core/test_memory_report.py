"""The banks' live memory accounting: ``memory_report`` and friends.

PR 8's governor is only as good as the numbers it samples, so these tests pin
the report's semantics: standing bits grow with registered subscriptions and
shrink when they leave, per-document peaks fold into lifetime high-water marks
(stats mode), the match-only fast path still accounts its value buffers, and
the sharded bank aggregates worker-side peaks parent-side, surviving respawns.
The process-RSS helpers (the governor's safety net) ride along.
"""

import os
import signal
import time

from repro.core import CompiledFilterBank, ShardedFilterBank
from repro.instrument import current_rss_bytes, peak_rss_bytes
from repro.xpath.parser import parse_query

CATALOG = "<catalog><book><price>12</price></book></catalog>"
DEEP = "<a>" * 60 + "<b/>" + "</a>" * 60


def _bank(cls=CompiledFilterBank, **kwargs):
    bank = cls(**kwargs)
    bank.register("cheap", parse_query("/catalog/book[price < 20]"))
    bank.register("books", parse_query("/catalog/book"))
    return bank


class TestStandingBits:
    def test_empty_bank_reports_nothing(self):
        report = CompiledFilterBank().memory_report()
        assert report.subscriptions == 0
        assert report.modeled_bits == 0
        assert report.modeled_bytes == 0

    def test_standing_bits_grow_with_subscriptions(self):
        bank = CompiledFilterBank()
        bank.register("one", parse_query("/catalog/book"))
        one = bank.memory_report()
        bank.register("two", parse_query("/catalog/book/price"))
        two = bank.memory_report()
        assert two.subscriptions == 2
        assert two.distinct_plans == 2
        assert two.standing_bits > one.standing_bits

    def test_shared_plans_are_counted_once(self):
        bank = CompiledFilterBank()
        bank.register("a", parse_query("/catalog/book"))
        solo = bank.memory_report()
        bank.register("b", parse_query("/catalog/book"))  # interned: same plan
        shared = bank.memory_report()
        assert shared.distinct_plans == 1
        # the second name costs its name bits, not a second plan
        assert shared.standing_bits - solo.standing_bits < \
            solo.standing_bits

    def test_unregister_releases_plan_bits(self):
        bank = _bank()
        loaded = bank.memory_report().standing_bits
        bank.unregister("cheap")
        bank.unregister("books")
        assert bank.memory_report().standing_bits < loaded
        assert bank.memory_report().distinct_plans == 0


class TestPeakTracking:
    def test_stats_mode_folds_document_peaks(self):
        bank = _bank(stats=True)
        before = bank.memory_report()
        assert before.peak_document_bits == 0
        result = bank.filter_text(CATALOG)
        assert result.matched == ["cheap", "books"]
        after = bank.memory_report()
        assert after.peak_document_bits > 0
        assert after.peak_frontier_records > 0
        assert after.modeled_bits > after.standing_bits
        # the fold is a running max: an identical document cannot raise it
        bank.filter_text(CATALOG)
        assert bank.memory_report().peak_document_bits == \
            after.peak_document_bits

    def test_peaks_match_the_per_document_statistics(self):
        bank = _bank(stats=True)
        result = bank.filter_text(CATALOG)
        per_doc = max(stats.peak_memory_bits
                      for stats in result.per_query_stats.values())
        assert bank.memory_report().peak_document_bits == per_doc
        per_sub = bank.per_subscription_peak_bits()
        assert set(per_sub) == {"cheap", "books"}
        assert max(per_sub.values()) == per_doc

    def test_deeper_documents_raise_the_peak(self):
        bank = CompiledFilterBank(stats=True)
        bank.register("deep", parse_query("//b"))
        bank.filter_text("<a><b/></a>")
        shallow = bank.memory_report().peak_document_bits
        bank.filter_text(DEEP)
        assert bank.memory_report().peak_document_bits > shallow

    def test_match_only_path_accounts_value_buffers(self):
        bank = _bank(stats=False)
        assert not bank.memory_report().stats_mode
        bank.filter_text(CATALOG)
        report = bank.memory_report()
        # the fast path buffered the price text for the value predicate and
        # folded its high-water chars before releasing the buffer
        assert report.peak_buffer_chars >= len("12")
        assert report.modeled_bits >= report.standing_bits + \
            report.peak_buffer_chars * 8


class TestShardedReport:
    def test_parent_side_aggregation(self):
        bank = ShardedFilterBank(2, stats=True)
        try:
            bank.register("cheap", parse_query("/catalog/book[price < 20]"))
            bank.register("books", parse_query("/catalog/book"))
            for _ in range(4):
                assert bank.filter_text(CATALOG).matched == ["cheap", "books"]
            report = bank.memory_report()
            assert report.subscriptions == 2
            assert report.standing_bits > 0
            assert report.peak_document_bits > 0
            assert report.modeled_bits >= report.standing_bits
            # one RSS sample per live worker: the governor's whole-service view
            assert len(report.worker_rss_bytes) == 2
            assert all(rss > 0 for rss in report.worker_rss_bytes)
            per_sub = bank.per_subscription_peak_bits()
            assert set(per_sub) == {"cheap", "books"}
            assert max(per_sub.values()) == report.peak_document_bits
        finally:
            bank.close()

    def test_peaks_survive_a_respawn(self):
        with ShardedFilterBank(2, stats=True) as bank:
            bank.register("books", parse_query("/catalog/book"))
            bank.filter_text(CATALOG)
            bank.filter_text(CATALOG)
            peak = bank.memory_report().peak_document_bits
            assert peak > 0
            os.kill(bank.worker_status()[0]["pid"], signal.SIGKILL)
            deadline = time.time() + 5
            while not bank.has_dead_worker() and time.time() < deadline:
                time.sleep(0.02)
            assert bank.ensure_healthy() == [0]
            # cumulative continuity (PR 7): the high-water mark is maxed
            # across respawns, not reset with the worker processes
            assert bank.memory_report().peak_document_bits == peak


class TestRssSampling:
    def test_current_rss_is_positive_here(self):
        rss = current_rss_bytes()
        assert rss is not None and rss > 0

    def test_unknown_pid_returns_none(self):
        assert current_rss_bytes(2 ** 31 - 7) is None

    def test_peak_rss_bounds_current(self):
        peak = peak_rss_bytes()
        assert peak is not None
        assert peak >= current_rss_bytes() * 0.5  # same order of magnitude
