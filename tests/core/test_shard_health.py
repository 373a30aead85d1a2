"""Worker-death detection and respawn on the sharded bank.

Before this PR a killed shard worker surfaced only as a ``RuntimeError`` on the
*next* filtering call, which then tore the whole bank down.  The health probes let
a supervisor detect death *between* documents and respawn only the dead shard, with
its registrations replayed from the parent-side records.
"""

import os
import signal
import time

import pytest

from repro.core import CompiledFilterBank, ShardedFilterBank
from repro.workloads import shared_prefix_feed, shared_prefix_subscriptions
from repro.xpath import parse_query


def _register(bank, count=12):
    for index, text in enumerate(shared_prefix_subscriptions(count, seed=5)):
        bank.register(f"q{index}", parse_query(text))


def _wait_dead(bank, shard, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if bank.worker_status()[shard]["alive"] is False:
            return
        time.sleep(0.01)
    raise AssertionError(f"shard {shard} never observed dead")  # pragma: no cover


class TestWorkerStatus:
    def test_status_before_and_after_spawn(self):
        with ShardedFilterBank(2) as bank:
            _register(bank)
            for record in bank.worker_status():
                assert record["spawned"] is False
                assert record["alive"] is None
                assert record["pid"] is None
            # round-robin: 12 subscriptions over 2 shards
            assert [r["subscriptions"] for r in bank.worker_status()] == [6, 6]
            bank.start()
            for record in bank.worker_status():
                assert record["spawned"] and record["alive"]
                assert isinstance(record["pid"], int)

    def test_ensure_healthy_is_a_noop_without_workers_or_deaths(self):
        with ShardedFilterBank(2) as bank:
            _register(bank)
            assert bank.ensure_healthy() == []  # nothing spawned yet
            bank.start()
            assert bank.ensure_healthy() == []  # everyone alive


class TestRespawn:
    def test_killed_worker_is_detected_and_respawned_between_documents(self):
        document = shared_prefix_feed(6, seed=6)
        with ShardedFilterBank(2) as bank:
            _register(bank)
            single = CompiledFilterBank(stats=False)
            _register(single)
            expected = single.filter_document(document).matched

            assert bank.filter_document(document).matched == expected
            victim = bank.worker_status()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            _wait_dead(bank, 0)

            respawned = bank.ensure_healthy()
            assert respawned == [0]
            status = bank.worker_status()
            assert all(record["alive"] for record in status)
            assert status[0]["pid"] != victim
            # the respawned shard replayed its registrations: results are intact
            assert bank.filter_document(document).matched == expected
            # healthy shard kept its original process
            assert bank.ensure_healthy() == []

    def test_all_workers_killed_all_respawned(self):
        document = shared_prefix_feed(4, seed=7)
        with ShardedFilterBank(3) as bank:
            _register(bank, count=9)
            baseline = bank.filter_document(document).matched
            pids = [record["pid"] for record in bank.worker_status()]
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for shard in range(3):
                _wait_dead(bank, shard)
            assert bank.ensure_healthy() == [0, 1, 2]
            assert bank.filter_document(document).matched == baseline

    def test_unprobed_death_still_raises_on_submit(self):
        """Without a probe, the old behavior is preserved: the next filtering
        call raises (and resets the bank) rather than hanging."""
        document = shared_prefix_feed(4, seed=8)
        with ShardedFilterBank(2) as bank:
            _register(bank)
            baseline = bank.filter_document(document).matched
            os.kill(bank.worker_status()[1]["pid"], signal.SIGKILL)
            _wait_dead(bank, 1)
            with pytest.raises(RuntimeError, match="died"):
                bank.filter_document(document)
            # registrations replay on the next spawn: the bank stays usable
            assert bank.filter_document(document).matched == baseline

    def test_churn_after_respawn_lands_on_the_new_worker(self):
        """Registrations made after a respawn must reach the replacement
        process, and unregistering a pre-death subscription must too."""
        document = shared_prefix_feed(6, seed=9)
        with ShardedFilterBank(2) as bank:
            _register(bank, count=4)
            bank.start()
            os.kill(bank.worker_status()[0]["pid"], signal.SIGKILL)
            _wait_dead(bank, 0)
            assert bank.ensure_healthy() == [0]
            bank.register("late", parse_query("/catalog/product/s0"))
            bank.unregister("q0")  # owned by shard 0 (round-robin)
            single = CompiledFilterBank(stats=False)
            for name in bank.subscriptions():
                single.register(name, bank_query(bank, name))
            assert bank.filter_document(document).matched == \
                single.filter_document(document).matched


def bank_query(bank, name):
    """Re-parse a sharded bank's stored canonical text (it has no query objects)."""
    return parse_query(bank.subscription_queries()[name])
