"""Equivalence-class serving engine: grouped == per-request, bit for bit.

The grouped engine's contract is that ``grouping="auto"/"on"`` produces
records and aggregates **bit-identical** to ``grouping="off"`` for every
scenario.  These tests pin that contract across randomized Poisson and
replay traces (a seeded-random property loop), the multi-device system
engine, KV-pressure fallbacks and feature-flag variants, plus the unit
behavior of the grouping primitives themselves.
"""

import random

import pytest

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.api.bench import bucketed_replay_triples, serving_bench_spec
from repro.core.device import NeuPimsDevice
from repro.model.spec import GPT3_7B
from repro.serving.grouping import (GroupedExecutor, GroupedScheduleState,
                                    class_histogram, mha_histogram,
                                    shift_histogram)
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.scheduler import IterationScheduler

FAST = dict(model="gpt3-7b", fidelity="analytic")


def run_pair(spec):
    """One scenario at both grouping modes -> (off, auto) result dicts."""
    off = Session(spec.override(grouping="off")).run()
    auto = Session(spec.override(grouping="auto")).run()
    return off.to_dict(), auto.to_dict()


class TestRecordIdentity:
    def test_replay_bucketed_trace_identical(self):
        spec = serving_bench_spec(num_requests=96)
        off, auto = run_pair(spec)
        assert off == auto
        assert off["iterations"] > 0

    def test_poisson_streaming_identical(self):
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=3e6, seed=11),
            serving=ServingSpec(max_batch_size=24))
        off, auto = run_pair(spec)
        assert off == auto

    def test_system_engine_identical(self):
        spec = ScenarioSpec(
            pp=2, tp=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=2e6, seed=5),
            serving=ServingSpec(max_batch_size=16))
        off, auto = run_pair(spec)
        assert off == auto

    def test_kv_pressure_fallback_identical(self):
        # A tiny KV pool forces the grouped engine to refuse batched
        # growth and hand iterations to the per-request path (which owns
        # the exact mid-generation OOM semantics).
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.08,
                                        horizon_cycles=3e6, seed=2),
            serving=ServingSpec(max_batch_size=32,
                                kv_capacity_bytes=1 << 22))
        off, auto = run_pair(spec)
        assert off == auto

    def test_randomized_property_loop(self):
        # Seeded-random sweep over traffic shapes and serving knobs: the
        # grouped path must be bit-identical on every draw.
        rng = random.Random(1234)
        for trial in range(6):
            if rng.random() < 0.5:
                traffic = TrafficSpec.poisson(
                    rate_per_kcycle=rng.choice((0.02, 0.05, 0.1)),
                    horizon_cycles=rng.choice((1e6, 2e6)),
                    seed=rng.randrange(1000))
            else:
                triples = [(rng.choice((32, 64, 128)),
                            rng.choice((8, 16, 24)),
                            float(rng.randrange(0, 500_000)))
                           for _ in range(rng.randrange(8, 40))]
                traffic = TrafficSpec.replay(triples)
            spec = ScenarioSpec(
                layers_resident=rng.choice((1, 2)), **FAST,
                traffic=traffic,
                serving=ServingSpec(
                    max_batch_size=rng.choice((4, 12, 32)),
                    paged_kv=rng.random() < 0.8,
                    load_tracker=rng.random() < 0.8,
                    max_iterations=rng.choice((200, 100_000))))
            if rng.random() < 0.3:
                spec = spec.override(sub_batch_interleaving=False)
            off, auto = run_pair(spec)
            assert off == auto, f"trial {trial} diverged: {spec}"

    def test_latency_report_identical(self):
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=3e6, seed=9),
            serving=ServingSpec(max_batch_size=16))
        off = Session(spec.override(grouping="off"))
        auto = Session(spec.override(grouping="auto"))
        off.run()
        auto.run()
        assert off.latency_tracker.report().summary() == \
            auto.latency_tracker.report().summary()


class TestGroupingModes:
    def test_on_requires_class_engine(self):
        spec = ScenarioSpec(
            system="gpu-only", layers_resident=2, model="gpt3-7b",
            fidelity="analytic",
            traffic=TrafficSpec.poisson(horizon_cycles=1e6),
            serving=ServingSpec(grouping="on"))
        with pytest.raises(ValueError, match="class-grouped"):
            Session(spec).materialize()

    def test_auto_falls_back_for_baselines(self):
        base = ScenarioSpec(
            system="gpu-only", layers_resident=2, model="gpt3-7b",
            fidelity="analytic",
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=2e6, seed=4),
            serving=ServingSpec(max_batch_size=8))
        off, auto = run_pair(base)
        assert off == auto

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="grouping"):
            ServingSpec(grouping="sometimes")
        pool = RequestPool()
        with pytest.raises(ValueError, match="grouping"):
            IterationScheduler(pool, lambda batch: 1.0, 4,
                               grouping="sometimes")
        with pytest.raises(ValueError, match="GroupedExecutor"):
            IterationScheduler(pool, lambda batch: 1.0, 4, grouping="on")

    def test_grouping_knob_round_trips(self):
        spec = ScenarioSpec(serving=ServingSpec(grouping="on"))
        assert ScenarioSpec.from_dict(spec.to_dict()).serving.grouping == \
            "on"
        assert spec.override(grouping="off").serving.grouping == "off"


class TestGroupCommitWindows:
    def _scheduler(self, batch_size=32, grouping="auto", output_len=40):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        pool.submit_all(
            InferenceRequest(i, input_len=64 + 32 * (i % 3),
                             output_len=output_len,
                             status=RequestStatus.RUNNING)
            for i in range(batch_size))
        grouped = GroupedExecutor(
            device.prepare_class_plan,
            lambda plan, shift: device.iteration_from_plan(plan,
                                                           shift).latency)
        scheduler = IterationScheduler(
            pool, device.executor(), max_batch_size=batch_size,
            assign_channels=device.assign_channels,
            grouping=grouping, grouped=grouped)
        return scheduler

    def test_one_call_commits_a_window(self):
        scheduler = self._scheduler()
        record = scheduler.run_iteration(max_steps=10)
        assert record is not None
        assert len(scheduler.stats.iterations) == 10
        # Deferred state: pool objects untouched until sync.
        scheduler.sync_grouped()
        generated = [r.generated for r in scheduler.pool.running()]
        assert generated  # batch still running after 10 iterations

    def test_single_step_calls_match_run(self):
        full = self._scheduler()
        full.run(max_iterations=25)
        stepped = self._scheduler()
        for _ in range(25):
            if stepped.run_iteration(max_steps=1) is None:
                break
        stepped.sync_grouped()
        a = [(r.index, r.start_time, r.latency, r.batch_size)
             for r in full.stats.iterations[:25]]
        b = [(r.index, r.start_time, r.latency, r.batch_size)
             for r in stepped.stats.iterations[:25]]
        assert a == b

    def test_max_iterations_budget_respected(self):
        scheduler = self._scheduler()
        stats = scheduler.run(max_iterations=7)
        assert len(stats.iterations) == 7


class TestGroupingPrimitives:
    def _requests(self):
        reqs = []
        for i, (seq, out, channel) in enumerate(
                [(64, 8, 0), (64, 8, 0), (64, 4, 1), (128, 8, 1)]):
            request = InferenceRequest(i, input_len=seq, output_len=out,
                                       status=RequestStatus.RUNNING)
            request.channel = channel
            reqs.append(request)
        return reqs

    def test_mha_histogram_canonical(self):
        hist = mha_histogram(self._requests())
        assert hist == ((0, 64, 2), (1, 64, 1), (1, 128, 1))

    def test_shift_preserves_order_and_counts(self):
        hist = mha_histogram(self._requests())
        shifted = shift_histogram(hist, 3)
        assert shifted == ((0, 67, 2), (1, 67, 1), (1, 131, 1))
        assert shift_histogram(hist, 0) is hist

    def test_class_histogram_keys(self):
        classes = class_histogram(self._requests())
        assert classes == {(0, 64, 8): 2, (1, 64, 4): 1, (1, 128, 8): 1}

    def test_pool_class_histogram(self):
        pool = RequestPool()
        for request in self._requests():
            pool.submit(request)
        assert pool.class_histogram() == class_histogram(self._requests())
        assert pool.class_histogram(RequestStatus.WAITING) == {}

    def test_state_sync_applies_tokens_and_finishes(self):
        reqs = self._requests()
        state = GroupedScheduleState(reqs, plan=None)
        assert state.steps_until_finish() == 4
        for _ in range(4):
            state.advance()
        state.sync(None, None, None, clock_end=0.0)
        assert [r.generated for r in reqs] == [4, 4, 4, 4]
        assert reqs[2].status is RequestStatus.DONE
        assert reqs[0].status is RequestStatus.RUNNING

    def test_mha_stage_matches_class_stage(self):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        reqs = self._requests()
        assert device.mha_stage(reqs) == \
            device.mha_stage_classes(mha_histogram(reqs))

    def test_iteration_from_plan_is_pure(self):
        for counters in (False, True):
            device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
            if counters:
                device.attach_counters()
            plan = device.prepare_class_plan(self._requests())
            first = device.iteration_from_plan(plan, 0)
            shifted = device.iteration_from_plan(plan, 1)
            again = device.iteration_from_plan(plan, 0)
            # Equal on every field (counters included), and a fresh object.
            assert again == first and again is not first
            assert bool(first.counters) is counters
            assert shifted == device.iteration_from_plan(plan, 1)
            assert shifted.latency > 0
            assert all(v >= 0 for v in shifted.busy.values())


class TestAllocatorLedger:
    def test_grouped_run_keeps_ledger_consistent(self):
        spec = serving_bench_spec(num_requests=64)
        session = Session(spec.override(grouping="auto"))
        session.run()
        assert all(allocator.ledger_consistent()
                   for allocator in session.allocators)
        # All requests retired -> everything released.
        assert all(allocator.used_blocks == 0
                   for allocator in session.allocators)

    def test_bucketed_triples_deterministic(self):
        assert bucketed_replay_triples(16) == bucketed_replay_triples(16)
        with pytest.raises(ValueError):
            bucketed_replay_triples(0)
