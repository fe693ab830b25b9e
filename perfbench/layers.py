"""Which public entry points the traced run wraps, and the per-layer metrics.

Span names are ``layer:entry``; a layer's self time sums the self times of
all its entry points.  Counts come from the wrapped calls' arguments and
results and from public state read after the run (``controller.replay``,
``repro.perf.cache.cache_info()``, ``FleetResult.ledger``,
``RunResult.utilization``).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ledger import median
from spans import Tracer, layer_self_times

#: Per-layer metrics in report order: (name, unit, better).  Layers a
#: workload does not reach report 0.
PER_LAYER = (
    ("session.materialize_s", "s", "lower"),
    ("traffic.build_s", "s", "lower"),
    ("traffic.requests", "count", "higher"),
    ("scheduler.calls", "count", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.iters_per_call", "ratio", "higher"),
    ("grouping.self_s", "s", "lower"),
    ("grouping.grouped_share", "fraction", "higher"),
    ("device.calls", "count", "lower"),
    ("device.self_s", "s", "lower"),
    ("device.batch_mean", "requests", "higher"),
    ("binpack.calls", "count", "lower"),
    ("binpack.self_s", "s", "lower"),
    ("binpack.imbalance_mean", "ratio", "lower"),
    ("kv.calls", "count", "lower"),
    ("kv.self_s", "s", "lower"),
    ("kv.oom", "count", "lower"),
    ("kv.peak_util", "fraction", "lower"),
    ("pool.calls", "count", "lower"),
    ("pool.self_s", "s", "lower"),
    ("pool.waiting_peak", "count", "lower"),
    ("latency.calls", "count", "lower"),
    ("latency.self_s", "s", "lower"),
    ("router.self_s", "s", "lower"),
    ("router.choose_calls", "count", "lower"),
    ("router.failed_over", "count", "lower"),
    ("router.node_downs", "count", "lower"),
    ("perf.mha_estimates.hit_ratio", "fraction", "higher"),
    ("perf.pim_calibration.misses", "count", "lower"),
    ("dram.calls", "count", "lower"),
    ("dram.self_s", "s", "lower"),
    ("dram.cmds_stepped", "count", "lower"),
    ("dram.cmds_replayed", "count", "higher"),
    ("dram.replay_share", "fraction", "higher"),
    ("pim.calls", "count", "lower"),
    ("pim.self_s", "s", "lower"),
    ("refute.self_s", "s", "lower"),
    ("refute.violations", "count", "lower"),
    ("sim.npu_util", "fraction", "higher"),
    ("sim.pim_util", "fraction", "higher"),
    ("sim.bw_util", "fraction", "higher"),
    ("sim.mean_batch", "requests", "higher"),
    ("sim.tokens_per_s", "tok/s", "higher"),
    ("sim.ttft_p50_ms", "ms", "lower"),
    ("sim.ttft_p99_ms", "ms", "lower"),
    ("sim.tpot_p50_ms", "ms", "lower"),
    ("sim.tpot_p99_ms", "ms", "lower"),
    ("sim.slo_goodput", "fraction", "higher"),
    ("sim.gemv_cycles", "cycles", "lower"),
    ("ledger.req_failed_frac", "fraction", "lower"),
    ("ledger.truncated", "count", "lower"),
    ("ledger.tokens_lost", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Per-layer names filled from the untraced figures of the same run.
FROM_OUTCOME = {
    "sim.tokens_per_s": "sim_tokens_per_s",
    "sim.ttft_p50_ms": "ttft_p50_ms",
    "sim.ttft_p99_ms": "ttft_tail_ms",
    "sim.tpot_p50_ms": "tpot_p50_ms",
    "sim.tpot_p99_ms": "tpot_tail_ms",
    "sim.slo_goodput": "slo_goodput",
    "sim.gemv_cycles": "sim_gemv_cycles",
    "ledger.req_failed_frac": "req_failed_frac",
    "ledger.truncated": "truncated",
    "ledger.tokens_lost": "tokens_lost_truncation",
}

#: Layers whose spans count towards ``<layer>.calls`` / ``<layer>.self_s``.
LAYERS = ("session", "traffic", "scheduler", "grouping", "device",
          "binpack", "kv", "pool", "latency", "router", "dram", "pim",
          "refute")


def _rid_of_request(position: int):
    def rid(args: tuple, kwargs: dict) -> int:
        return args[position].request_id
    return rid


def _rid_arg(position: int):
    def rid(args: tuple, kwargs: dict) -> int:
        return args[position]
    return rid


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (``tracer.restore`` undoes it).

    Every request submitted to a pool is remembered by id, so the KV
    wrapper can tell a mid-decode allocation failure (the request is
    running and unfinished) from an admission refusal.
    """
    from repro.api import session as session_mod
    from repro.cluster import policies, router as router_mod
    from repro.core.binpack import ChannelLoadTracker, load_imbalance
    from repro.core.device import NeuPimsDevice
    from repro.counters import refute
    from repro.dram.controller import MemoryController
    from repro.perf import streams
    from repro.pim import engine, gemv
    from repro.registry import REGISTRY
    from repro.serving import grouping
    from repro.serving.latency import LatencyTracker
    from repro.serving.paging import OutOfMemoryError, PagedKvAllocator
    from repro.serving.pool import RequestPool
    from repro.serving.request import RequestStatus
    from repro.serving.scheduler import IterationScheduler

    requests: Dict[int, Any] = {}
    patch = tracer.patch

    patch(session_mod.Session, "materialize", "session:materialize")
    patch(router_mod.Router, "materialize", "session:router_materialize")

    create = REGISTRY.create
    traced_create = tracer.wrap(
        create, "traffic:create",
        observe=lambda a, k, workload: tracer.count(
            "traffic.requests", len(workload.arrivals)))

    def registry_create(kind, name, *args, **kwargs):
        if kind == "traffic":
            return traced_create(kind, name, *args, **kwargs)
        return create(kind, name, *args, **kwargs)
    tracer.replace(REGISTRY, "create", registry_create)

    patch(IterationScheduler, "run_iteration", "scheduler:run_iteration")

    patch(grouping.GroupedScheduleState, "sync", "grouping:sync")
    init = grouping.GroupedExecutor.__init__

    def grouped_init(self, prepare, run):
        init(self, tracer.wrap(prepare, "grouping:prepare"),
             tracer.wrap(run, "grouping:run"))
    tracer.replace(grouping.GroupedExecutor, "__init__", grouped_init)

    def device_batch(args, kwargs, result):
        tracer.count("device.batch_sum", args[1].batch_size)
        tracer.count("device.batch_calls")
    patch(NeuPimsDevice, "iteration", "device:iteration")
    patch(NeuPimsDevice, "iteration_from_plan",
          "device:iteration_from_plan", observe=device_batch)
    patch(NeuPimsDevice, "prepare_class_plan", "device:prepare_class_plan")

    def imbalance(args, kwargs, result):
        device = args[0]
        if device.load_tracker is not None:
            tracer.count("binpack.imbalance_sum",
                         load_imbalance(device.load_tracker.loads))
            tracer.count("binpack.imbalance_samples")
    patch(NeuPimsDevice, "assign_channels", "binpack:assign_channels",
          observe=imbalance)
    for entry in ("add", "update", "remove"):
        patch(ChannelLoadTracker, entry, f"binpack:{entry}",
              rid=_rid_of_request(1))
    patch(ChannelLoadTracker, "sync_member", "binpack:sync_member",
          rid=_rid_arg(1))

    allocate = PagedKvAllocator.allocate

    def checked_allocate(self, request_id, tokens):
        try:
            return allocate(self, request_id, tokens)
        except OutOfMemoryError:
            tracer.count("kv.oom")
            request = requests.get(request_id)
            if request is not None and \
                    request.status is RequestStatus.RUNNING:
                # Mid-decode: the scheduler will mark it DONE unfinished.
                tracer.count("kv.truncated")
                tracer.count("kv.tokens_lost",
                             request.output_len - request.generated)
            raise

    def kv_util(args, kwargs, result):
        allocator = args[0]
        tracer.peak("kv.peak_util",
                    allocator.used_blocks / allocator.total_blocks)
    tracer.replace(PagedKvAllocator, "allocate",
                   tracer.wrap(checked_allocate, "kv:allocate",
                               rid=_rid_arg(1), observe=kv_util))
    for entry in ("can_allocate", "release"):
        patch(PagedKvAllocator, entry, f"kv:{entry}", rid=_rid_arg(1))

    def remember(args, kwargs, result):
        requests[args[1].request_id] = args[1]
    patch(RequestPool, "submit", "pool:submit", rid=_rid_of_request(1),
          observe=remember)
    patch(RequestPool, "waiting", "pool:waiting",
          observe=lambda a, k, r: tracer.peak("pool.waiting_peak", len(r)))
    for entry in ("running", "retire_finished"):
        patch(RequestPool, entry, f"pool:{entry}")

    patch(LatencyTracker, "observe_running", "latency:observe_running",
          rid=_rid_of_request(1))
    patch(LatencyTracker, "report", "latency:report")

    patch(router_mod.Router, "run", "router:run")
    for name in policies.__all__:
        policy = getattr(policies, name)
        if isinstance(policy, type) and "choose" in vars(policy):
            patch(policy, "choose", "router:choose")

    def replay(args, kwargs, result):
        summary = args[0].replay
        tracer.count("dram.cmds_stepped", summary.stepped)
        tracer.count("dram.cmds_replayed", summary.replayed)
    patch(MemoryController, "drain_fast", "dram:drain_fast", observe=replay)

    def stepped(args, kwargs, result):
        tracer.count("dram.cmds_stepped", len(result))
    patch(MemoryController, "drain", "dram:drain", observe=stepped)

    patch(engine, "measure_gemv_latency", "pim:measure_gemv_latency")
    for module in (gemv, streams, engine):
        for entry in ("fine_grained_stream", "composite_stream"):
            if hasattr(module, entry):
                patch(module, entry, f"pim:{entry}")

    patch(refute, "run_refute", "refute:run_refute")


def layer_metrics(tracer: Tracer, run_from: int, run_s: float,
                  overhead_s: float, extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    ``run_from`` is the index of the first span recorded after set-up;
    only spans from there on count towards self times and the
    unattributed remainder, which are wall times like ``run_s``.
    ``overhead_s`` is the traced minus the untraced run time, both at
    reference speed.  ``extra`` carries the values read from public state
    after the run (utilization, ledger, perf caches).
    """
    names = [tracer.names[n] for n in tracer.name_of]
    counts = tracer.counts
    durations = [end - start for start, end in zip(tracer.start, tracer.end)]
    materialize_s = sum(durations[i] for i in range(run_from)
                        if tracer.parent[i] == -1
                        and names[i].startswith("session:"))
    traffic_s = sum(d for name, d in zip(names, durations)
                    if name.startswith("traffic:"))
    run_names = [name.split(":")[0] for name in names[run_from:]]
    parents = [p - run_from if p >= 0 else -1
               for p in tracer.parent[run_from:]]
    totals = layer_self_times(run_names, tracer.start[run_from:],
                              tracer.end[run_from:], parents)
    by_entry = layer_self_times(names[run_from:], tracer.start[run_from:],
                                tracer.end[run_from:], parents)

    def calls(entry: str) -> int:
        return by_entry.get(entry, (0, 0.0))[0]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"], out[f"{layer}.self_s"] = \
            totals.get(layer, (0, 0.0))
    for name, _, _ in PER_LAYER:
        if name in counts:
            out[name] = counts[name]
        source = FROM_OUTCOME.get(name, name)
        if source in extra:
            out[name] = extra[source]
    iterations = extra.get("iterations", 0.0)
    replayed = counts.get("dram.cmds_replayed", 0.0)
    out.update({
        "session.materialize_s": materialize_s,
        "traffic.build_s": traffic_s,
        "scheduler.iters_per_call": ratio(iterations,
                                          out["scheduler.calls"]),
        "grouping.grouped_share": (1.0 - ratio(calls("device:iteration"),
                                               iterations)
                                   if iterations else 0.0),
        "device.batch_mean": ratio(counts.get("device.batch_sum", 0.0),
                                   counts.get("device.batch_calls", 0.0)),
        "binpack.imbalance_mean": ratio(
            counts.get("binpack.imbalance_sum", 0.0),
            counts.get("binpack.imbalance_samples", 0.0)),
        "router.choose_calls": calls("router:choose"),
        "dram.replay_share": ratio(
            replayed, replayed + counts.get("dram.cmds_stepped", 0.0)),
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(
            self_s for _, self_s in totals.values()),
        "trace.overhead_s": overhead_s,
    })
    return {name: float(out.get(name, 0.0)) for name, _, _ in PER_LAYER}


def median_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over several traced repetitions."""
    return {name: median([sample[name] for sample in samples])
            for name, _, _ in PER_LAYER}

