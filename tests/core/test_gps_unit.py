"""Unit tests for the GPS unit datapath (queue -> TLB -> fan-out)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPSConfig
from repro.core.gps_page_table import GPSPageTable
from repro.core.gps_unit import GPSUnit, WindowMemo
from repro.trace.expand import LineStream
from tests.conftest import memo_lookups, memo_lookups_since

LINES_PER_PAGE = GPSConfig().page_size // 128


def stream(lines, payload=128):
    lines = np.asarray(lines, dtype=np.int64)
    return LineStream(lines, np.full(len(lines), payload, dtype=np.int32))


def build_unit():
    config = GPSConfig(write_queue_entries=8)
    table = GPSPageTable(config, num_gpus=4)
    # Page 0 subscribed by all; page 1 by {0, 2}; page 2 by {0} only.
    for gpu in range(4):
        table.install_replica(0, gpu, gpu)
    table.install_replica(1, 0, 10)
    table.install_replica(1, 2, 12)
    table.install_replica(2, 0, 20)
    return GPSUnit(0, config, table), table


@pytest.fixture
def setup():
    return build_unit()


class TestFanOut:
    def test_broadcast_to_remote_subscribers_only(self, setup):
        unit, _ = setup
        unit.process_stores(stream([0]))  # line 0 -> page 0
        window = unit.sync()
        assert set(window.bytes_to) == {1, 2, 3}
        assert window.total_bytes == 3 * 128

    def test_partial_subscription_fans_less(self, setup):
        unit, _ = setup
        unit.process_stores(stream([LINES_PER_PAGE]))  # page 1: {0, 2}
        window = unit.sync()
        assert set(window.bytes_to) == {2}

    def test_single_subscriber_page_no_traffic(self, setup):
        unit, _ = setup
        unit.process_stores(stream([2 * LINES_PER_PAGE]))  # page 2: {0}
        window = unit.sync()
        assert window.total_bytes == 0

    def test_coalescing_reduces_fanout_bytes(self, setup):
        unit, _ = setup
        unit.process_stores(stream([0] * 10))
        window = unit.sync()
        # Ten stores to one line = one 128 B write per remote subscriber.
        assert window.bytes_to[1] == 128

    def test_atomics_fan_out_uncoalesced(self, setup):
        unit, _ = setup
        unit.process_stores(stream([0] * 3, payload=16), atomic=True)
        window = unit.sync()
        assert window.bytes_to[1] == 48
        assert window.writes_to[1] == 3


class TestSync:
    def test_sync_resets_window(self, setup):
        unit, _ = setup
        unit.process_stores(stream([0]))
        first = unit.sync()
        second = unit.sync()
        assert first.total_bytes > 0
        assert second.total_bytes == 0

    def test_sync_drains_queue(self, setup):
        unit, _ = setup
        unit.process_stores(stream([0, 1, 2]))
        assert unit.write_queue.occupancy > 0
        unit.sync()
        assert unit.write_queue.occupancy == 0

    def test_watermark_drains_route_midstream(self, setup):
        unit, _ = setup
        # 8-entry queue (watermark 7): 20 distinct lines force mid-kernel
        # drains that must route through the TLB immediately.
        unit.process_stores(stream(list(range(20))))
        assert unit.tlb.stats.accesses > 0


class TestTLBIntegration:
    def test_invalidate_page_forces_rewalk(self, setup):
        unit, table = setup
        unit.process_stores(stream([0]))
        unit.sync()
        walks_before = unit.tlb.walks
        unit.invalidate_page(0)
        unit.process_stores(stream([0]))
        unit.sync()
        assert unit.tlb.walks == walks_before + 1

    def test_subscription_change_respected_after_shootdown(self, setup):
        unit, table = setup
        unit.process_stores(stream([0]))
        unit.sync()
        table.remove_replica(0, 3)
        unit.invalidate_page(0)
        unit.process_stores(stream([0]))
        window = unit.sync()
        assert 3 not in window.bytes_to


class TestBatchedRouting:
    """The array fan-out must mirror the scalar per-entry walk exactly."""

    def _drive(self, unit, work):
        for s, atomic in work:
            unit.process_stores(s, atomic=atomic)
        return unit.sync()

    def test_matches_scalar_walk(self, monkeypatch):
        rng = np.random.default_rng(3)
        # Lines across all three pages (different fan-outs, incl. zero for
        # the single-subscriber page), plus an atomic burst.
        lines = np.sort(rng.integers(0, 3 * LINES_PER_PAGE, size=500)).astype(np.int64)
        work = [
            (stream(lines, payload=64), False),
            (stream([0, 1, LINES_PER_PAGE], payload=16), True),
        ]
        monkeypatch.delenv("REPRO_SCALAR_REPLAY", raising=False)
        vec_unit, vec_table = build_unit()
        vec_window = self._drive(vec_unit, work)
        monkeypatch.setenv("REPRO_SCALAR_REPLAY", "1")
        ref_unit, ref_table = build_unit()
        ref_window = self._drive(ref_unit, work)
        assert vec_window.bytes_to == ref_window.bytes_to
        assert vec_window.writes_to == ref_window.writes_to
        assert vec_unit.write_queue.stats == ref_unit.write_queue.stats
        assert vec_unit.tlb.stats == ref_unit.tlb.stats
        assert vec_unit.tlb.walks == ref_unit.tlb.walks
        assert vec_table.lookups == ref_table.lookups

    def test_window_holds_plain_ints(self):
        # The window is JSON-serialised into result payloads: accumulator
        # folds must hand back python ints, not numpy scalars.
        unit, _ = build_unit()
        unit.process_stores(stream(list(range(2 * LINES_PER_PAGE))))
        window = unit.sync()
        for mapping in (window.bytes_to, window.writes_to):
            for dst, value in mapping.items():
                assert type(dst) is int
                assert type(value) is int

    def test_accumulators_reset_after_sync(self):
        unit, _ = build_unit()
        unit.process_stores(stream([0] * 4))
        unit.sync()
        assert not unit._bytes_acc.any()
        assert not unit._writes_acc.any()
        assert unit.sync().total_bytes == 0


class TestSMCoalesceHook:
    def test_delegates_to_gpu_coalescer(self, setup):
        unit, _ = setup
        out = unit.sm_coalesce(stream([5, 5, 6], payload=64))
        assert out.lines.tolist() == [5, 6]


# -- content-keyed window memo --------------------------------------------------

MEMO_PAGES = 6


@st.composite
def memo_windows(draw):
    """A random window: streams, atomic flags, geometry, subscribers, TLB warm-up."""
    pool = draw(
        st.lists(
            st.integers(0, MEMO_PAGES * LINES_PER_PAGE - 1), min_size=1, max_size=24
        )
    )
    streams = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(pool), min_size=1, max_size=160),
                st.sampled_from((16, 64, 128)),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    subscribers = draw(
        st.lists(
            st.sets(st.integers(1, 3)), min_size=MEMO_PAGES, max_size=MEMO_PAGES
        )
    )
    return {
        "streams": [(stream(lines, payload), atomic) for lines, payload, atomic in streams],
        "write_queue": draw(st.sampled_from((2, 4, 8, 64))),
        "subscribers": subscribers,
        # Two jobs that share a window but differ in GPS-TLB geometry and
        # in what earlier windows left in their TLBs.
        "tlbs": draw(st.lists(st.sampled_from((8, 16, 32)), min_size=2, max_size=2)),
        "warmups": draw(
            st.lists(
                st.lists(st.integers(0, MEMO_PAGES - 1), max_size=12),
                min_size=2,
                max_size=2,
            )
        ),
    }


def memo_unit(case, tlb_entries: int, warmup, memo=None):
    config = GPSConfig(
        write_queue_entries=case["write_queue"],
        gps_tlb_entries=tlb_entries,
        gps_tlb_assoc=4,
    )
    table = GPSPageTable(config, num_gpus=4)
    for vpn, remotes in enumerate(case["subscribers"]):
        for gpu in {0} | remotes:
            table.install_replica(vpn, gpu, 100 * vpn + gpu)
    unit = GPSUnit(0, config, table)
    unit.tlb.translate_batch(warmup, len(warmup))
    unit.window_memo = memo
    return unit, table


def window_keys(case):
    return [("stream", i, atomic) for i, (_, atomic) in enumerate(case["streams"])]


def run_window(unit, case, keyed: bool):
    for key, (s, atomic) in zip(window_keys(case), case["streams"]):
        unit.process_stores(s, atomic=atomic, key=key if keyed else None)
    return unit.sync()


def observed(unit, table, window):
    return (
        window.bytes_to,
        window.writes_to,
        unit.write_queue.stats,
        unit.tlb.stats,
        unit.tlb.walks,
        table.lookups,
    )


class TestWindowMemo:
    """A keyed window equals the eager ``process_stores`` + ``sync``, miss or hit."""

    @given(case=memo_windows())
    @settings(max_examples=120, deadline=None)
    def test_keyed_window_equals_eager(self, case):
        memo = WindowMemo()
        start = memo_lookups()
        for job, (tlb_entries, warmup) in enumerate(zip(case["tlbs"], case["warmups"])):
            eager_unit, eager_table = memo_unit(case, tlb_entries, warmup)
            eager = observed(eager_unit, eager_table, run_window(eager_unit, case, False))
            keyed_unit, keyed_table = memo_unit(case, tlb_entries, warmup, memo)
            keyed = observed(keyed_unit, keyed_table, run_window(keyed_unit, case, True))
            assert keyed == eager
            # The first job misses, the second hits despite another TLB.
            assert memo_lookups_since(start) == (1, job)

    @given(case=memo_windows())
    @settings(max_examples=40, deadline=None)
    def test_repeated_window_on_one_unit(self, case):
        # Back-to-back windows: the second starts with a warm TLB and
        # accumulated stats, which the hit must extend, not replace.
        memo = WindowMemo()
        start = memo_lookups()
        eager_unit, eager_table = memo_unit(case, 16, [])
        keyed_unit, keyed_table = memo_unit(case, 16, [], memo)
        for _ in range(2):
            eager = observed(eager_unit, eager_table, run_window(eager_unit, case, False))
            keyed = observed(keyed_unit, keyed_table, run_window(keyed_unit, case, True))
            assert keyed == eager
        assert memo_lookups_since(start) == (1, 1)

    def test_other_watermark_misses(self):
        memo = WindowMemo()
        start = memo_lookups()
        case = {
            "streams": [(stream(list(range(40)) * 2), False)],
            "subscribers": [{1, 2}] * MEMO_PAGES,
        }
        for entries in (8, 32):
            case["write_queue"] = entries
            eager_unit, eager_table = memo_unit(case, 32, [])
            keyed_unit, keyed_table = memo_unit(case, 32, [], memo)
            assert observed(
                keyed_unit, keyed_table, run_window(keyed_unit, case, True)
            ) == observed(eager_unit, eager_table, run_window(eager_unit, case, False))
        assert memo_lookups_since(start) == (2, 0)

    def test_keyless_store_replays_deferred_ones_first(self):
        case = {
            "streams": [(stream([0, 1, 2] * 30), False), (stream([3, 0]), False)],
            "write_queue": 4,
            "subscribers": [{1, 2, 3}] * MEMO_PAGES,
        }
        eager_unit, eager_table = memo_unit(case, 32, [])
        eager = observed(eager_unit, eager_table, run_window(eager_unit, case, False))
        memo = WindowMemo()
        start = memo_lookups()
        mixed_unit, mixed_table = memo_unit(case, 32, [], memo)
        (first, _), (second, _) = case["streams"]
        mixed_unit.process_stores(first, key="first")
        mixed_unit.process_stores(second)  # keyless: the window goes eager
        assert observed(mixed_unit, mixed_table, mixed_unit.sync()) == eager
        assert memo_lookups_since(start) == (0, 0)

    def test_values_are_read_only_int64(self):
        memo = WindowMemo()
        case = {
            "streams": [(stream(list(range(3 * LINES_PER_PAGE))), False)],
            "write_queue": 8,
            "subscribers": [{1}] * MEMO_PAGES,
        }
        unit, _ = memo_unit(case, 32, [], memo)
        run_window(unit, case, True)
        (value,) = memo._windows.values()
        for arr in (value.heads, value.pages, value.page_payload, value.page_writes,
                    value.stats_delta):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable

    def test_scalar_replay_bypasses_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_REPLAY", "1")
        memo = WindowMemo()
        start = memo_lookups()
        case = {
            "streams": [(stream([0, 1, 0]), False)],
            "write_queue": 8,
            "subscribers": [{1}] * MEMO_PAGES,
        }
        unit, _ = memo_unit(case, 32, [], memo)
        window = run_window(unit, case, True)
        assert window.writes_to == {1: 2}
        assert len(memo) == 0 and memo_lookups_since(start) == (0, 0)
