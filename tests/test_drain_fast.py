"""Equivalence of the batch-replay fast path with the per-command drain.

``MemoryController.drain_fast`` must be *observationally identical* to
``drain`` — finish time, refresh counts, C/A-bus busy cycles and every
per-command-type stat counter — on every scenario the controller handles:
refresh hoisting, GEMV interruption, activation replay after refresh, and
the homogeneous run shapes it accelerates (fine-grained wave trains,
composite streams, GWRITE and RD/WR bursts).
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.channel import Channel
from repro.dram.commands import Command, CommandType
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.timing import HbmOrganization
from repro.model.spec import GPT3_7B
from repro.pim.engine import measure_gemv_latency
from repro.pim.gemv import (GemvOp, composite_stream, fine_grained_stream,
                            mha_gemv_ops)

ORG = HbmOrganization()


def build(dual=True, **cfg):
    channel = Channel(0, dual_row_buffer=dual)
    return MemoryController(channel, ControllerConfig(**cfg))


def drain_both(stream, mem=False, dual=True, **cfg):
    slow = build(dual=dual, **cfg)
    fast = build(dual=dual, **cfg)
    for ctrl in (slow, fast):
        (ctrl.enqueue_mem if mem else ctrl.enqueue_pim)(list(stream))
    slow.drain()
    fast.drain_fast()
    return slow, fast


def assert_equivalent(slow, fast):
    assert fast.finish_time == slow.finish_time
    assert fast.stats.as_dict() == slow.stats.as_dict()
    assert fast.channel.ca_busy_cycles == slow.channel.ca_busy_cycles


def fine_stream(rows=2048, cols=2048):
    return fine_grained_stream(GemvOp(rows=rows, cols=cols, tag="t"), ORG)


def multi_composite(count=60, k_rows=512):
    stream = []
    for i in range(count):
        stream += composite_stream(
            GemvOp(rows=k_rows, cols=512, tag=f"g{i}"), ORG)
    return stream


class TestActReplayScenario:
    """Fine-grained waves crossing refreshes (ACT replay after REF)."""

    def test_fine_grained_with_refresh_matches(self):
        slow, fast = drain_both(fine_stream(), header_aware_refresh=False)
        assert slow.stats.get("refresh.issued") > 0
        assert slow.stats.get("refresh.act_replays") > 0
        assert_equivalent(slow, fast)

    def test_fine_grained_replays_most_commands(self):
        stream = fine_stream(4096, 4096)
        _, fast = drain_both(stream, header_aware_refresh=False)
        assert fast.replay.runs >= 1
        assert fast.replay.replayed > 0.9 * len(stream)

    def test_mem_act_replay_after_refresh(self):
        commands = [Command(CommandType.ACT, bank=0, row=7)]
        commands += [Command(CommandType.RD, bank=0) for _ in range(2000)]
        commands.append(Command(CommandType.PRE, bank=0))
        slow, fast = drain_both(commands, mem=True)
        assert slow.stats.get("refresh.act_replays") > 0
        assert_equivalent(slow, fast)


class TestRefreshHoistScenario:
    """Header-aware refresh hoisting (composite ISA)."""

    def test_hoisted_refreshes_match(self):
        slow, fast = drain_both(multi_composite(), header_aware_refresh=True)
        assert slow.stats.get("refresh.hoisted") > 0
        assert_equivalent(slow, fast)

    def test_hoist_counts_preserved_across_replay(self):
        slow, fast = drain_both(multi_composite(count=120))
        assert fast.replay.replayed > 0
        assert fast.stats.get("refresh.hoisted") \
            == slow.stats.get("refresh.hoisted")


class TestGemvInterruptScenario:
    """Baseline mode: refresh preempts in-flight GEMVs."""

    def test_interrupted_gemvs_match(self):
        slow, fast = drain_both(multi_composite(count=120, k_rows=2048),
                                header_aware_refresh=False)
        assert slow.stats.get("refresh.gemv_interrupted") > 0
        assert_equivalent(slow, fast)


class TestRunShapes:
    """Homogeneous run shapes the replay engine recognizes."""

    def test_gwrite_burst(self):
        stream = [Command(CommandType.PIM_GWRITE, bank=0, row=9)
                  for _ in range(300)]
        slow, fast = drain_both(stream, refresh_enabled=False)
        assert fast.replay.replayed > 200
        assert_equivalent(slow, fast)

    def test_act_rd_pre_run(self):
        commands = []
        for row in range(400):
            commands += [Command(CommandType.ACT, bank=2, row=row),
                         Command(CommandType.RD, bank=2),
                         Command(CommandType.PRE, bank=2)]
        slow, fast = drain_both(commands, mem=True)
        assert fast.replay.replayed > 0
        assert_equivalent(slow, fast)

    def test_write_run(self):
        commands = [Command(CommandType.ACT, bank=1, row=3)]
        commands += [Command(CommandType.WR, bank=1) for _ in range(1500)]
        commands.append(Command(CommandType.PRE, bank=1))
        slow, fast = drain_both(commands, mem=True)
        assert_equivalent(slow, fast)

    def test_no_refresh_wave_train_is_one_run(self):
        stream = fine_stream(4096, 2048)
        _, fast = drain_both(stream, refresh_enabled=False)
        assert fast.replay.replayed > 0.95 * len(stream)

    def test_blocked_mode_fine_grained(self):
        slow, fast = drain_both(fine_stream(1024, 1024), dual=False,
                                header_aware_refresh=False)
        assert_equivalent(slow, fast)


class TestEdgeCases:
    def test_mixed_queues_fall_back_to_stepping(self):
        def mixed():
            ctrl = build(refresh_enabled=False)
            ctrl.enqueue_pim(multi_composite(count=5))
            for bank in range(4):
                for row in range(10):
                    ctrl.enqueue_mem([
                        Command(CommandType.ACT, bank=bank, row=row),
                        Command(CommandType.RD, bank=bank),
                        Command(CommandType.PRE, bank=bank)])
            return ctrl
        slow, fast = mixed(), mixed()
        slow.drain()
        fast.drain_fast()
        assert_equivalent(slow, fast)

    def test_empty_queues(self):
        ctrl = build()
        assert ctrl.drain_fast() == []
        assert ctrl.finish_time == 0.0

    def test_drain_fast_idempotent(self):
        ctrl = build(refresh_enabled=False)
        ctrl.enqueue_pim(multi_composite(count=3))
        first = ctrl.drain_fast()
        finish = ctrl.finish_time
        second = ctrl.drain_fast()
        assert second == first
        assert ctrl.finish_time == finish

    def test_zero_hunt_budget_degenerates_to_drain(self):
        stream = fine_stream(512, 512)
        slow = build(header_aware_refresh=False)
        fast = build(header_aware_refresh=False)
        slow.enqueue_pim(list(stream))
        fast.enqueue_pim(list(stream))
        slow.drain()
        fast.drain_fast(hunt_budget=0)
        assert fast.replay.replayed == 0
        assert len(fast.records) == len(slow.records)
        assert_equivalent(slow, fast)

    def test_records_are_abridged_not_wrong(self):
        """Stepped records of the fast drain are a subsequence of the
        slow drain's records with identical issue times."""
        stream = fine_stream(1024, 512)
        slow, fast = drain_both(stream, refresh_enabled=False)
        slow_times = {(r.command.ctype, r.issue_time) for r in slow.records}
        for record in fast.records:
            assert (record.command.ctype, record.issue_time) in slow_times

    @pytest.mark.parametrize("seq_len", [128, 640, 1333])
    def test_serving_style_streams(self, seq_len):
        """Logit+attend per request, several requests back to back."""
        stream = []
        for i in range(30):
            stream += composite_stream(
                GemvOp(rows=seq_len * 8, cols=128, tag=f"logit[{i}]"), ORG)
            stream += composite_stream(
                GemvOp(rows=128 * 8, cols=seq_len, tag=f"attend[{i}]"), ORG)
        slow, fast = drain_both(stream)
        assert_equivalent(slow, fast)


#: Structurally distinct commands the cap property draws blocks from.
SHAPES = [
    Command(CommandType.PIM_GWRITE, bank=0),
    Command(CommandType.PIM_ACTIVATION, banks=(0, 1, 2, 3)),
    Command(CommandType.PIM_ACTIVATION, banks=(4, 5, 6, 7)),
    Command(CommandType.PIM_DOTPRODUCT),
    Command(CommandType.RD, bank=2),
    Command(CommandType.PRE, bank=3),
]


class TestBoundedScan:
    """A deadline-bounded replay scans only the repetitions it may skip."""

    @settings(max_examples=200, deadline=None)
    @given(block=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=5),
           copies=st.integers(0, 12),
           tail=st.lists(st.sampled_from(SHAPES), max_size=6),
           limit=st.one_of(st.none(), st.integers(-3, 15)))
    def test_capped_count_is_min_of_uncapped_and_limit(self, block, copies,
                                                       tail, limit):
        # No block holds a header, so the tail mismatches at its head.
        queue = deque(block * copies + [Command(CommandType.PIM_HEADER)]
                      + tail)
        uncapped = MemoryController._count_matching_reps(queue, block)
        assert uncapped == copies
        capped = MemoryController._count_matching_reps(queue, block, limit)
        expected = uncapped if limit is None else min(uncapped, max(0, limit))
        assert capped == expected

    def test_blocked_fine_logit_scan_is_linear(self, monkeypatch):
        """The blocked-mode fine-grained logit GEMV at 2048 tokens is
        mostly deadline-bounded replays; were each to scan the whole
        remaining queue, the drain would inspect ~171x the stream."""
        logit, _ = mha_gemv_ops(GPT3_7B.num_heads, GPT3_7B.head_dim, 2048)
        count = MemoryController._count_matching_reps
        inspected = 0

        class CountedQueue:
            """Queue view that tallies the commands iterated out of it."""

            def __init__(self, queue):
                self.queue = queue

            def __len__(self):
                return len(self.queue)

            def __iter__(self):
                nonlocal inspected
                for cmd in self.queue:
                    inspected += 1
                    yield cmd

        def counting(queue, block, *limit):
            return count(CountedQueue(queue), block, *limit)

        monkeypatch.setattr(MemoryController, "_count_matching_reps",
                            staticmethod(counting))
        kwargs = dict(dual_row_buffer=False, composite=False,
                      dtype_bytes=GPT3_7B.dtype_bytes)
        latency, fast = measure_gemv_latency(logit, fast=True, **kwargs)
        monkeypatch.undo()
        slow_latency, slow = measure_gemv_latency(logit, **kwargs)
        length = fast.replay.stepped + fast.replay.replayed
        assert length == 20482
        assert fast.replay.replayed > 0
        assert latency == slow_latency == slow.finish_time
        assert_equivalent(slow, fast)
        assert fast.counter_view() == slow.counter_view()
        assert inspected <= 2 * length


class TestRefreshPhases:
    """Fine-grained GEMVs of random shape meet the refresh deadline at
    arbitrary offsets into their wave trains."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 2048), cols=st.integers(1, 1024),
           dual=st.booleans())
    def test_random_fine_grained_ops_match(self, rows, cols, dual):
        slow, fast = drain_both(fine_stream(rows, cols), dual=dual,
                                header_aware_refresh=False)
        assert_equivalent(slow, fast)
