"""One benchmark repetition: build, run and check one workload.

``run.py`` starts this file in a fresh interpreter per repetition, writes
the job (workload, generated inputs, trace flag) as JSON to its standard
input and reads one JSON line back.  A fresh process per repetition pays
what each ``python -m repro`` invocation pays: the package import and
cold ``repro.perf`` memo caches, with no KV cache and an empty batch.

The tests call :func:`run_job` in-process.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import resource
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from ledger import NodeTrace, build_ledger, serving_summary  # noqa: E402
from spans import Tracer  # noqa: E402

#: The modelled HBM channel's KV budget: ``HbmOrganization
#: .capacity_per_channel`` (1 GB), asserted against the program at run time.
KV_PER_CHANNEL = 1 << 30
#: Fleet nodes keep the serving default of 256 MB per channel, so short
#: Alpaca requests churn KV blocks instead of sitting in a huge pool.
FLEET_KV_PER_CHANNEL = 1 << 28


#: The reference loop's time on a quiet core of the machine the benchmark
#: was defined on (an Intel Xeon vCPU); host times are rescaled to it.
REFERENCE_SECONDS = 0.16


def reference_loop() -> float:
    """Time a fixed stdlib-only event loop (heap, dict, float work).

    Its mix of interpreter work resembles the simulator's, and it never
    changes, so its time tracks the machine's speed at that moment.
    """
    start = perf_counter()
    rng = random.Random(12345)
    heap = [(rng.random(), key) for key in range(2000)]
    heapq.heapify(heap)
    state: Dict[int, float] = {}
    total = 0.0
    for _ in range(200_000):
        clock, key = heapq.heappop(heap)
        value = state.get(key, 0.0) + clock * 0.5
        state[key] = value
        total += value / (1.0 + key)
        heapq.heappush(heap, (clock + rng.random(), key))
    return perf_counter() - start


def digest(payload: Any) -> str:
    """sha256 of a JSON-ready payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Scenario construction (the user-visible set-up).
# ----------------------------------------------------------------------

def node_spec(workload: str, trace, kv_bytes: Optional[int] = None):
    """The single-node ``ScenarioSpec`` of a serving workload."""
    from repro.api import ScenarioSpec, ServingSpec, TrafficSpec
    if workload == "sharegpt-poisson":
        serving = ServingSpec(max_batch_size=256,
                              kv_capacity_bytes=kv_bytes or KV_PER_CHANNEL)
        layers = None
    elif workload == "bucketed-replay":
        # Same shape as ``repro.api.bench``: 4 resident layers.
        serving = ServingSpec(max_batch_size=1024,
                              kv_capacity_bytes=kv_bytes or KV_PER_CHANNEL)
        layers = 4
    else:
        raise ValueError(f"{workload!r} is not a single-node workload")
    return ScenarioSpec(model="gpt3-7b", system="neupims",
                        fidelity="analytic", layers_resident=layers,
                        traffic=TrafficSpec.replay(trace), serving=serving,
                        label=workload)


def fleet_spec(inputs: Dict[str, Any]):
    """The 4-node least-loaded fleet with one seeded node kill."""
    from repro.api import ScenarioSpec, ServingSpec, TrafficSpec
    from repro.cluster import FleetSpec
    node = ScenarioSpec(model="gpt3-7b", system="neupims",
                        fidelity="analytic",
                        serving=ServingSpec(
                            max_batch_size=64,
                            kv_capacity_bytes=FLEET_KV_PER_CHANNEL))
    return FleetSpec.homogeneous(
        node, 4, traffic=TrafficSpec.replay(inputs["trace"]),
        policy="least-loaded", fault_seed=inputs["fault_seed"],
        fault_options={"horizon": inputs["fault_horizon"], "downs": 1},
        label="alpaca-fleet-failover")


# ----------------------------------------------------------------------
# Serving outcome (read from public state after the run).
# ----------------------------------------------------------------------

def _node_trace(result, tracker) -> NodeTrace:
    ends = tuple(r["start_time"] + r["latency"] for r in result.records)
    entries = tuple((e.request_id, e.first_token_time, e.completion_time)
                    for e in tracker.report().requests)
    return NodeTrace(iteration_ends=ends, entries=entries)


def serving_outcome(trace, statuses, nodes, program_tokens: int,
                    program_requests: int) -> Tuple[Dict[str, float],
                                                    Dict[str, bool]]:
    """Ledger summary plus the output checks that need it.

    ``statuses`` is the program's ``(request_id, status)`` list,
    ``program_tokens`` its token total (the sum of iteration batch sizes)
    and ``program_requests`` how many requests it took in.
    """
    ids = [rid for rid, _ in statuses]
    outcomes = build_ledger(trace, dict(statuses), nodes)
    summary = serving_summary(outcomes)
    checks = {
        # Every generated arrival reached the program once and has at
        # most one terminal status; unknown ids would be invented work.
        "arrivals_accounted_once": (
            program_requests == len(trace)
            and len(ids) == len(set(ids))
            and all(0 <= rid < len(trace) for rid in ids)),
        "tokens_within_requested": all(
            o.delivered <= o.output_len for o in outcomes),
        # The per-request ledger adds up to the program's own total.
        "ledger_matches_records":
            summary["tokens_delivered"] == program_tokens,
    }
    return summary, checks


def _utilization(results) -> Dict[str, float]:
    """Token-weighted simulated occupancy over one or more node results."""
    tokens = sum(r.total_tokens for r in results) or 1

    def mean(key: str) -> float:
        return sum(r.utilization.get(key, 0.0) * r.total_tokens
                   for r in results) / tokens
    return {"sim.npu_util": mean("npu"), "sim.pim_util": mean("pim"),
            "sim.bw_util": mean("bandwidth"),
            "sim.mean_batch": sum(r.mean_batch_size * r.total_tokens
                                  for r in results) / tokens}


# ----------------------------------------------------------------------
# Workload runners.  Each builds its scenario, calls ``setup_done``, runs
# it and returns (run end time, result payload, figures, output checks).
# ----------------------------------------------------------------------

def _serving_node(job, setup_done: Callable[[], None]):
    from repro.api import Session
    from repro.dram.timing import HbmOrganization
    if HbmOrganization().capacity_per_channel != KV_PER_CHANNEL:
        raise RuntimeError("modelled KV capacity per channel changed; "
                           "update KV_PER_CHANNEL")
    trace = job["inputs"]["trace"]
    session = Session(node_spec(job["workload"], trace,
                                job.get("kv_bytes")))
    session.materialize()
    setup_done()
    result = session.run()
    run_done = perf_counter()
    summary, checks = serving_outcome(
        trace, [(r["request_id"], r["status"]) for r in result.requests],
        [_node_trace(result, session.latency_tracker)],
        result.total_tokens, len(session.arrivals))
    extra = dict(summary)
    extra.update(_utilization([result]))
    extra.update({
        "iterations": result.iterations,
        "sim_tokens_per_s": result.tokens_per_second,
    })
    return run_done, result.to_dict(), extra, checks


def _serving_fleet(job, setup_done: Callable[[], None]):
    from repro.cluster import Router
    inputs = job["inputs"]
    router = Router(fleet_spec(inputs))
    router.materialize()
    setup_done()
    result = router.run()
    run_done = perf_counter()
    summary, checks = serving_outcome(
        inputs["trace"],
        [(s["request_id"], s["status"]) for s in result.statuses],
        [_node_trace(node, handle.session.latency_tracker)
         for node, handle in zip(result.nodes, router.handles)],
        result.total_tokens, len(router.stream))
    checks["fleet_conserved"] = result.conserved()
    extra = dict(summary)
    extra.update(_utilization(result.nodes))
    extra.update({
        "iterations": sum(node.iterations for node in result.nodes),
        "sim_tokens_per_s": result.tokens_per_second,
        "router.failed_over": result.ledger.get("failed_over", 0),
        "router.node_downs": sum(1 for entry in result.node_log
                                 if entry["event"] == "down"),
    })
    return run_done, result.to_dict(), extra, checks


def _pim_cmdlevel(job, setup_done: Callable[[], None]):
    from repro.counters import refute
    from repro.pim import engine
    seq_lens = tuple(job["inputs"]["seq_lens"])
    # Capture each GEMV's controller to count the commands it drained
    # (16 calls a run; read after the timed region).
    controllers = []
    measure = engine.measure_gemv_latency

    def capture(*args, **kwargs):
        latency, controller = measure(*args, **kwargs)
        controllers.append(controller)
        return latency, controller
    engine.measure_gemv_latency = capture
    setup_done()
    report = refute.run_refute(seq_lens=seq_lens)
    run_done = perf_counter()
    engine.measure_gemv_latency = measure
    slot_drift = max(cell["counters"]["pim.gemv_issue_slots"]["drift"]
                     for cell in report["cells"])
    checks = {
        "refute_no_violations": not report["violations"],
        "issue_slot_drift_zero": slot_drift == 0.0,
        "refute_grid_complete": len(report["cells"])
        == len(refute.REGIONS) * len(seq_lens) * 2,
    }
    commands = sum(c.replay.stepped + c.replay.replayed
                   for c in controllers)
    extra = {
        "commands": commands,
        "sim_gemv_cycles": sum(cell["measured_latency"]
                               for cell in report["cells"]),
        "refute.violations": len(report["violations"]),
    }
    return run_done, report, extra, checks


RUNNERS = {
    "sharegpt-poisson": _serving_node,
    "bucketed-replay": _serving_node,
    "alpaca-fleet-failover": _serving_fleet,
    "pim-cmdlevel": _pim_cmdlevel,
}


def _import_program(workload: str) -> None:
    """Import what the workload's user would import."""
    if workload == "pim-cmdlevel":
        import repro.counters.refute  # noqa: F401
    elif workload == "alpaca-fleet-failover":
        import repro.cluster  # noqa: F401
    else:
        import repro.api  # noqa: F401


def run_job(job: Dict[str, Any], started: Optional[float] = None
            ) -> Dict[str, Any]:
    """Run one repetition; returns timings, metrics, checks and digest.

    ``started`` is when the process began importing (``None`` when the
    package is already imported, as in the tests).  With ``job["trace"]``
    the layers' entry points are wrapped for the run and restored after
    it; the result then carries the :class:`~spans.Tracer` and the index
    of the first span recorded after set-up.
    """
    workload = job["workload"]
    if workload not in RUNNERS:
        raise ValueError(f"unknown workload {workload!r}")
    begin = perf_counter() if started is None else started
    _import_program(workload)
    imported = perf_counter()
    tracer = Tracer() if job.get("trace") else None
    marks: Dict[str, float] = {}

    def setup_done() -> None:
        marks["setup"] = perf_counter()
        marks["spans"] = len(tracer) if tracer is not None else 0

    try:
        if tracer is not None:
            from layers import install
            install(tracer)
        built = perf_counter()
        run_done, payload, extra, checks = RUNNERS[workload](job,
                                                             setup_done)
    finally:
        if tracer is not None:
            tracer.restore()
    out: Dict[str, Any] = {
        "import_s": imported - begin,
        "setup_s": (imported - begin) + (marks["setup"] - built),
        "run_s": run_done - marks["setup"],
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(payload),
        "checks": checks,
        "extra": extra,
    }
    if tracer is not None:
        from repro.perf.cache import cache_info
        info = cache_info()
        estimates = info.get("mha_estimates", {})
        lookups = estimates.get("hits", 0) + estimates.get("misses", 0)
        extra["perf.mha_estimates.hit_ratio"] = (
            estimates["hits"] / lookups if lookups else 0.0)
        extra["perf.pim_calibration.misses"] = info.get(
            "pim_calibration", {}).get("misses", 0)
        if "truncated" in extra:
            # The KV wrapper saw each mid-decode OOM as it happened; the
            # ledger inferred them afterwards.  Both must agree.
            checks["oom_wrapper_agrees_with_ledger"] = (
                tracer.counts.get("kv.truncated", 0) == extra["truncated"]
                and tracer.counts.get("kv.tokens_lost", 0)
                == extra["tokens_lost_truncation"])
        out["tracer"] = tracer
        out["run_from"] = marks["spans"]
    return out


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    before = reference_loop()
    out = run_job(job, perf_counter())
    out["ref_s"] = 0.5 * (before + reference_loop())
    tracer = out.pop("tracer", None)
    if tracer is not None:
        from layers import layer_metrics
        spans_path = job.get("spans_path")
        if spans_path:
            tracer.write(spans_path)
        scale = REFERENCE_SECONDS / out["ref_s"]
        out["layers"] = layer_metrics(tracer, out.pop("run_from"),
                                      out["run_s"],
                                      out["run_s"] * scale
                                      - job["baseline_run_s"],
                                      out["extra"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
