"""Unit tests for the NeuPIMs device model."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NeuPimsConfig
from repro.core.device import (GemmStage, MhaStageTiming, NeuPimsDevice,
                               shard_for_mha)
from repro.model.spec import GPT3_7B
from repro.serving.trace import SHAREGPT, warmed_batch
from repro.sim.engine import Resource, SimulationError

from tests.conftest import make_request


def device_with(config=None, layers=4, tp=1):
    return NeuPimsDevice(GPT3_7B, config or NeuPimsConfig(), tp=tp,
                         layers_resident=layers)


def batch(n=32, seed=0):
    return warmed_batch(SHAREGPT, n, seed=seed)


class TestGemmStage:
    def test_qkv_and_projffn_positive(self):
        gemm = device_with().gemm_stage_cycles(64)
        assert gemm.qkv_cycles > 0
        assert gemm.projffn_cycles > gemm.qkv_cycles  # 3 GEMMs vs 1

    def test_bytes_scale_with_model_not_batch_when_memory_bound(self):
        device = device_with()
        small = device.gemm_stage_cycles(8)
        large = device.gemm_stage_cycles(16)
        # Weights dominate: doubling tiny batches barely moves bytes.
        assert large.external_bytes < 1.2 * small.external_bytes

    def test_tp_reduces_gemm_time(self):
        full = device_with(tp=1).gemm_stage_cycles(256)
        shard = device_with(tp=4).gemm_stage_cycles(256)
        assert shard.total_cycles < full.total_cycles

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            device_with().gemm_stage_cycles(0)


class TestMhaStage:
    def test_empty_batch_zero(self):
        stage = device_with().mha_stage([])
        assert stage.pim_cycles == 0.0

    def test_pim_time_is_max_channel_load(self):
        device = device_with()
        reqs = [make_request(0, input_len=512, channel=0),
                make_request(1, input_len=512, channel=0),
                make_request(2, input_len=512, channel=1)]
        stage = device.mha_stage(reqs)
        expected = 2 * device.estimator.estimate(512)
        assert stage.pim_cycles == pytest.approx(expected)

    def test_blocked_mode_slower(self):
        reqs = [make_request(i, input_len=256, channel=i % 4)
                for i in range(8)]
        fast = device_with(NeuPimsConfig()).mha_stage(reqs)
        slow = device_with(NeuPimsConfig.naive_npu_pim()).mha_stage(reqs)
        assert slow.duration(False) > 1.5 * fast.duration(True)

    def test_dual_row_buffer_overlaps_softmax(self):
        device = device_with()
        reqs = [make_request(i, input_len=256, channel=0) for i in range(4)]
        stage = device.mha_stage(reqs)
        assert stage.duration(dual_row_buffer=True) == pytest.approx(
            max(stage.pim_cycles, stage.softmax_cycles))

    def test_internal_bytes_track_kv(self):
        device = device_with()
        reqs = [make_request(0, input_len=100, channel=0)]
        stage = device.mha_stage(reqs)
        assert stage.internal_bytes == 2 * 100 * 4096 * 2


class TestChannelAssignment:
    def test_greedy_config_uses_binpack(self):
        device = device_with(NeuPimsConfig())
        reqs = [make_request(i, input_len=100 * (i + 1)) for i in range(8)]
        device.assign_channels(reqs)
        assert all(r.channel is not None for r in reqs)

    def test_round_robin_config_cycles(self):
        device = device_with(NeuPimsConfig.naive_npu_pim())
        reqs = [make_request(i) for i in range(4)]
        device.assign_channels(reqs)
        assert [r.channel for r in reqs] == [0, 1, 2, 3]

    def test_round_robin_cursor_advances(self):
        device = device_with(NeuPimsConfig.naive_npu_pim())
        first = [make_request(i) for i in range(3)]
        second = [make_request(10 + i) for i in range(2)]
        device.assign_channels(first)
        device.assign_channels(second)
        assert [r.channel for r in second] == [3, 4]

    def test_iteration_assigns_unassigned(self):
        device = device_with()
        reqs = batch(16)
        assert all(r.channel is None for r in reqs)
        device.iteration(reqs)
        assert all(r.channel is not None for r in reqs)


class TestIteration:
    def test_latency_positive_and_scales_with_layers(self):
        reqs = batch(16)
        shallow = device_with(layers=2).iteration(reqs).latency
        deep = device_with(layers=8).iteration(reqs).latency
        assert deep > 3 * shallow

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            device_with().iteration([])

    def test_serialized_latency_is_sum_of_stages(self):
        config = NeuPimsConfig(sub_batch_interleaving=False)
        device = device_with(config, layers=3)
        reqs = batch(16)
        result = device.iteration(reqs)
        gemm = device.gemm_stage_cycles(16)
        mha = device.mha_stage(reqs)
        expected = (gemm.total_cycles + mha.duration(True)) * 3
        assert result.latency == pytest.approx(expected)

    def test_interleaving_beats_serialized_at_large_batch(self):
        """Figure 13: SBI wins for batch >= 256."""
        reqs = batch(256)
        config_sbi = NeuPimsConfig(adaptive_sbi=False)
        config_ser = NeuPimsConfig(sub_batch_interleaving=False)
        t_sbi = device_with(config_sbi, layers=4, tp=4).iteration(reqs).latency
        reqs2 = batch(256)
        t_ser = device_with(config_ser, layers=4, tp=4).iteration(reqs2).latency
        assert t_sbi < t_ser

    def test_adaptive_sbi_never_worse_than_serialized(self):
        for size in (2, 8, 64):
            reqs = batch(size, seed=size)
            adaptive = device_with(NeuPimsConfig(), layers=2, tp=4)
            serialized = device_with(
                NeuPimsConfig(sub_batch_interleaving=False), layers=2, tp=4)
            t_a = adaptive.iteration(reqs).latency
            reqs2 = batch(size, seed=size)
            t_s = serialized.iteration(reqs2).latency
            assert t_a <= t_s * 1.0001

    def test_single_request_falls_back_to_serialized(self):
        device = device_with()
        result = device.iteration([make_request(0, input_len=64, channel=0)])
        assert result.latency > 0

    def test_utilization_accounting(self):
        device = device_with()
        result = device.iteration(batch(64))
        assert 0 < result.utilization("npu") <= 1
        assert 0 < result.utilization("pim") <= 1
        assert result.external_bytes > 0
        assert result.internal_pim_bytes > 0

    def test_neupims_npu_utilization_beats_naive(self):
        """Table 4's headline: concurrent execution raises NPU util."""
        reqs = batch(128)
        neupims = device_with(NeuPimsConfig(), layers=4, tp=4)
        res_neu = neupims.iteration(reqs)
        reqs2 = batch(128)
        naive = device_with(NeuPimsConfig.naive_npu_pim(), layers=4, tp=4)
        res_naive = naive.iteration(reqs2)
        assert res_neu.utilization("npu") > 1.5 * res_naive.utilization("npu")

    def test_executor_returns_latency(self):
        device = device_with()
        reqs = batch(8)
        assert device.executor()(reqs) == pytest.approx(
            device.iteration(reqs).latency)


def reference_interleave(stages, layers, dual_row_buffer):
    """Algorithm-3 list scheduling on :class:`Resource` objects.

    ``stages`` holds each sub-batch's ``(GemmStage, MhaStageTiming)``.
    Every operator books its resource at the earliest start; the next
    operator is the one that can start first, ties to sub-batch 0.
    Returns ``(latency, busy)`` as the device reports them.
    """
    npu_s = Resource("npu_s", record_intervals=False)
    pim = Resource("pim", record_intervals=False)
    npu_v = Resource("npu_v", record_intervals=False)
    resources = {"npu_s": npu_s, "pim": pim}
    sequences = [[("npu_s", gemm.qkv_cycles),
                  ("pim", mha.duration(dual_row_buffer)),
                  ("npu_s", gemm.projffn_cycles)] * layers
                 for gemm, mha in stages]
    ready = [0.0, 0.0]
    cursor = [0, 0]
    while any(cursor[s] < len(sequences[s]) for s in (0, 1)):
        best_s, best_start = None, None
        for s in (0, 1):
            if cursor[s] >= len(sequences[s]):
                continue
            name, _ = sequences[s][cursor[s]]
            candidate = max(ready[s], resources[name].free_at)
            if best_start is None or candidate < best_start:
                best_s, best_start = s, candidate
        name, duration = sequences[best_s][cursor[best_s]]
        _, end = resources[name].acquire_for(duration,
                                             earliest=ready[best_s])
        if name == "pim":
            npu_v.acquire_for(stages[best_s][1].softmax_cycles,
                              earliest=end - duration)
        ready[best_s] = end
        cursor[best_s] += 1
    busy = {
        "npu": sum(g.compute_cycles * layers for g, _ in stages),
        "npu_vector": npu_v.busy_time,
        "pim": sum(m.pim_busy_cycles for _, m in stages) * layers,
    }
    return max(ready), busy


@lru_cache(maxsize=None)
def scheduler_device(dual_row_buffer):
    return device_with(NeuPimsConfig(dual_row_buffer=dual_row_buffer))


# Small integers force start-time ties and zero-length operators.
durations = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
stage_pair = st.tuples(
    st.builds(GemmStage, durations, durations, durations, durations),
    st.builds(MhaStageTiming, durations, durations, durations, durations,
              durations))


class TestInterleavedSchedule:
    """The float recurrence against the Resource-based list scheduler."""

    @staticmethod
    def run(stages, layers, dual_row_buffer):
        device = scheduler_device(dual_row_buffer)
        device.layers = layers
        by_key = dict(enumerate(stages))
        # Serve the drawn stage timings in place of the device's models.
        device.gemm_stage_cycles = lambda key: by_key[key][0]
        device.mha_stage_classes = lambda key: by_key[key][1]
        try:
            return device._interleaved_classes((0, 0), (1, 1))
        finally:
            del device.gemm_stage_cycles, device.mha_stage_classes
            device.layers = 4

    @settings(max_examples=300, deadline=None)
    @given(stages=st.tuples(stage_pair, stage_pair),
           layers=st.integers(1, 96), dual_row_buffer=st.booleans())
    def test_matches_reference_exactly(self, stages, layers,
                                       dual_row_buffer):
        latency, busy = reference_interleave(stages, layers, dual_row_buffer)
        result = self.run(stages, layers, dual_row_buffer)
        assert result.latency == latency
        assert result.busy == busy

    @settings(max_examples=100, deadline=None)
    @given(stages=st.tuples(stage_pair, stage_pair),
           layers=st.integers(1, 96), dual_row_buffer=st.booleans(),
           sub_batch=st.integers(0, 1),
           field=st.sampled_from(["qkv_cycles", "projffn_cycles",
                                  "pim_cycles", "softmax_cycles"]),
           negative=st.floats(min_value=-1e6, max_value=-1e-9))
    def test_negative_duration_raises_like_reference(
            self, stages, layers, dual_row_buffer, sub_batch, field,
            negative):
        stages = [list(pair) for pair in stages]
        index = 0 if field in ("qkv_cycles", "projffn_cycles") else 1
        stages[sub_batch][index] = type(stages[sub_batch][index])(**{
            **vars(stages[sub_batch][index]), field: negative})
        try:
            expected = reference_interleave(stages, layers, dual_row_buffer)
        except SimulationError:
            with pytest.raises(SimulationError):
                self.run(stages, layers, dual_row_buffer)
        else:
            # A negative PIM time hidden by the softmax under dual row
            # buffers leaves every operator non-negative.
            result = self.run(stages, layers, dual_row_buffer)
            assert (result.latency, result.busy) == expected

    def test_negative_stage_raises(self):
        gemm = GemmStage(1.0, -1.0, 0.0, 0.0)
        mha = MhaStageTiming(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(SimulationError):
            self.run([(gemm, mha), (gemm, mha)], 1, True)


class TestShardForMha:
    def test_shard_divides_heads(self):
        shard = shard_for_mha(GPT3_7B, 4)
        assert shard.num_heads == 8
        assert shard.d_model == 8 * 128

    def test_shard_preserves_head_dim(self):
        assert shard_for_mha(GPT3_7B, 2).head_dim == GPT3_7B.head_dim
