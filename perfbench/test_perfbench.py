"""Tests for the benchmark's own code (run with pytest from the repo root)."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import (NodeTrace, build_ledger, serving_summary,  # noqa: E402
                    tail_percentile)
from spans import Tracer, layer_self_times  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule -------------------------------------------------

@pytest.mark.parametrize("n, expected_p, expected_rank", [
    (10_000, 99.9, 9990), (1_000, 99.0, 990), (999, 95.0, 950),
    (200, 95.0, 190), (199, 90.0, 180), (40, 75.0, 30), (20, 50.0, 10)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p,
                                                  expected_rank):
    # Over 1..n the nearest-rank value is its own rank.
    assert tail_percentile(range(1, n + 1)) == (expected_p, expected_rank,
                                                n)
    assert n - expected_rank >= 10


def test_tail_percentile_without_enough_samples():
    assert tail_percentile([3.0] * 19) == (None, None, 19)
    assert tail_percentile([]) == (None, None, 0)


# -- self time -----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    names = ["a", "b", "c", "d"]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    totals = layer_self_times(names, starts, ends, parents)
    assert totals == {"a": (1, 3.0), "b": (1, 3.0), "c": (1, 3.0),
                      "d": (1, 1.0)}
    by_layer = layer_self_times(["x", "y", "x", "y"], starts, ends, parents)
    assert by_layer == {"x": (2, 6.0), "y": (2, 4.0)}


def test_tracer_records_nesting_and_restores_patches():
    class Layer:
        def outer(self, request_id):
            return self.inner(request_id) + 1

        def inner(self, request_id):
            return request_id

    tracer = Tracer()
    tracer.patch(Layer, "outer", "top:outer", rid=lambda a, k: a[1])
    tracer.patch(Layer, "inner", "low:inner", rid=lambda a, k: a[1])
    assert Layer().outer(7) == 8
    tracer.restore()
    assert "traced" not in Layer.outer.__code__.co_name
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.rid) == [7, 7]
    names = [tracer.names[n] for n in tracer.name_of]
    totals = layer_self_times(names, tracer.start, tracer.end,
                              tracer.parent)
    top_duration = tracer.end[0] - tracer.start[0]
    assert sum(s for _, s in totals.values()) == pytest.approx(top_duration)


# -- the failure ledger --------------------------------------------------

def test_ledger_counts_tokens_between_first_and_last_iteration():
    trace = [(8, 3, 0.0), (8, 4, 0.0), (8, 2, 0.0)]
    node = NodeTrace(iteration_ends=(1.0, 2.0, 3.0, 4.0),
                     entries=((0, 1.0, 3.0), (1, 2.0, 3.0)))
    outcomes = build_ledger(trace, {0: "completed", 1: "completed"},
                            [node])
    assert [o.delivered for o in outcomes] == [3, 2, 0]
    assert [o.failure for o in outcomes] == [None, "truncated",
                                             "never_terminal"]
    summary = serving_summary(outcomes)
    assert summary["req_failed_frac"] == pytest.approx(2 / 3)
    assert summary["tokens_lost_truncation"] == 2
    assert summary["ttft_n"] == 1


def test_ledger_exposes_kv_truncation_on_tiny_kv():
    from repro.serving.paging import PagedKvAllocator
    from worker import run_job

    original = PagedKvAllocator.allocate
    trace = workloads.poisson_trace(0, 48, 1e-4, workloads.SHAREGPT)
    # 64 MB per channel holds 8 KV blocks (128 tokens of gpt3-7b), far
    # below a ShareGPT request's context: every long decode runs out.
    out = run_job({"workload": "sharegpt-poisson", "trace": True,
                   "inputs": {"trace": trace}, "kv_bytes": 64 << 20})
    assert PagedKvAllocator.allocate is original
    extra, checks = out["extra"], out["checks"]
    assert all(checks.values()), checks
    assert checks["oom_wrapper_agrees_with_ledger"]
    assert extra["truncated"] > 0
    assert extra["tokens_lost_truncation"] > 0
    assert extra["req_failed_frac"] == pytest.approx(
        (extra["truncated"] + extra["never_terminal"]
         + extra["other_failed"]) / len(trace))
    assert extra["tokens_delivered"] + extra["tokens_lost_truncation"] \
        <= extra["tokens_requested"]


# -- seeded inputs -------------------------------------------------------

def test_length_models_match_the_program_traces():
    from repro.serving.trace import ALPACA, SHAREGPT
    for ours, theirs in ((workloads.SHAREGPT, SHAREGPT),
                         (workloads.ALPACA, ALPACA)):
        assert ours["input"] == (theirs.input_dist.mean,
                                 theirs.input_dist.sigma)
        assert ours["output"] == (theirs.output_dist.mean,
                                  theirs.output_dist.sigma)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.make_inputs(workload, 3) == \
        workloads.make_inputs(workload, 3)
    assert workloads.make_inputs(workload, 3) != \
        workloads.make_inputs(workload, 4)
