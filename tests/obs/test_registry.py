"""Tests for the hierarchical counter/gauge registry."""

import os
import signal
import sys
import threading

from repro.obs import CounterRegistry
from repro.obs.registry import SharedCounter


class TestCounters:
    def test_add_and_snapshot(self):
        reg = CounterRegistry()
        reg.add("link.bytes", 100)
        reg.add("link.bytes", 28)
        reg.add("link.transfers")
        assert reg.as_dict() == {"link.bytes": 128, "link.transfers": 1}

    def test_counter_object_is_shared(self):
        reg = CounterRegistry()
        counter = reg.counter("dram.read_bytes")
        counter.add(64)
        reg.add("dram.read_bytes", 64)
        assert reg.as_dict()["dram.read_bytes"] == 128

    def test_gauge_last_write_wins(self):
        reg = CounterRegistry()
        reg.gauge("queue.occupancy", 3)
        reg.gauge("queue.occupancy", 7)
        assert reg.as_dict()["queue.occupancy"] == 7

    def test_snapshot_is_sorted(self):
        reg = CounterRegistry()
        reg.add("z.last")
        reg.add("a.first")
        assert list(reg.as_dict()) == ["a.first", "z.last"]


class TestSharedCounters:
    def test_adds_from_many_threads_are_exact(self):
        reg = CounterRegistry(counter=SharedCounter)
        counter = reg.counter("hits")

        def work():
            for _ in range(5000):
                counter.add()
                reg.add("fresh.name", 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert reg.as_dict() == {"fresh.name": 40000, "hits": 20000}

    def test_a_forked_child_never_inherits_the_held_lock(self):
        from repro.obs import registry

        counter = CounterRegistry(counter=SharedCounter).counter("n")
        with registry._SHARED_LOCK:
            pid = os.fork()
            if pid == 0:  # the child: an add must not block on the parent's hold
                signal.alarm(5)
                counter.add()
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestProviders:
    def test_provider_resolved_at_snapshot_time(self):
        reg = CounterRegistry()
        state = {"misses": 0}
        reg.provide("gps_tlb", lambda: dict(state))
        state["misses"] = 42
        assert reg.as_dict()["gps_tlb.misses"] == 42

    def test_scoped_provider_prefixes(self):
        reg = CounterRegistry()
        reg.scope("gpu3").provide("write_queue", lambda: {"inserts": 5})
        assert reg.as_dict()["gpu3.write_queue.inserts"] == 5


class TestScopesAndRollup:
    def test_scope_prefixes_names(self):
        reg = CounterRegistry()
        reg.scope("gpu0").add("gps_tlb.misses", 3)
        reg.scope("gpu0").scope("dram").add("read_bytes", 256)
        snapshot = reg.as_dict()
        assert snapshot["gpu0.gps_tlb.misses"] == 3
        assert snapshot["gpu0.dram.read_bytes"] == 256

    def test_gpu_scopes_roll_up_to_aggregates(self):
        reg = CounterRegistry()
        reg.scope("gpu0").add("gps_tlb.misses", 3)
        reg.scope("gpu1").add("gps_tlb.misses", 4)
        snapshot = reg.as_dict()
        assert snapshot["gps_tlb.misses"] == 7
        assert snapshot["gpu0.gps_tlb.misses"] == 3

    def test_explicit_aggregate_not_overwritten(self):
        reg = CounterRegistry()
        reg.add("link.bytes", 1000)
        reg.scope("gpu0").add("link.bytes", 1)
        assert reg.as_dict()["link.bytes"] == 1000

    def test_non_gpu_scopes_do_not_roll_up(self):
        reg = CounterRegistry()
        reg.scope("link").add("egress0.bytes", 5)
        snapshot = reg.as_dict()
        assert "egress0.bytes" not in snapshot
        assert snapshot["link.egress0.bytes"] == 5
