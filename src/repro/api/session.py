"""Sessions materialize scenario specs and run them to uniform results.

A :class:`Session` turns one :class:`~repro.api.spec.ScenarioSpec` into
the full simulation stack — every ingredient resolved by name through
:mod:`repro.registry` (system/device, traffic model, KV allocators,
scheduler, fidelity engine) — runs it, and returns a :class:`RunResult`
whose schema is identical across every simulation mode: single
measurements, streaming serving runs, baselines and sweep cells all
report the same latency / throughput / utilization / energy fields plus
per-iteration records.

Execution comes in two granularities sharing one stepping core:

* **batch** — :meth:`Session.run` drives the loop to completion with no
  subscribers on the event bus, so no event object is ever constructed
  (the zero-overhead contract); it is the no-observer drain of the same
  loop :meth:`Session.stream` drives.
* **streaming** — :meth:`Session.stream` yields the typed events of
  :mod:`repro.serving.events` as the loop advances;
  :meth:`Session.step` executes one iteration at a time and
  :meth:`Session.run_until` stops early on a live predicate (SLO
  monitors, admission throttles — see ``examples/slo_monitor.py``).

Records and aggregates are bit-identical between the two, and identical
to the pre-registry wiring for built-in component names (pinned in
``tests/test_api_session.py`` / ``tests/test_api_stream.py``).

The module-level :func:`run_scenario` is the picklable unit of work that
:func:`run_scenarios` fans across :mod:`repro.exec` backends — specs are
picklable by construction (component references are plain names), so
cross-process dispatch needs no ad-hoc argument tuples, and parallel
results are record-for-record identical to serial ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.api.spec import ScenarioSpec
from repro.core.config import NeuPimsConfig
from repro.counters.collect import CounterCollector
from repro.counters.report import CounterReport
from repro.core.device import IterationResult, NeuPimsDevice
from repro.core.estimator import MhaLatencyEstimator
from repro.core.system import NeuPimsSystem, ParallelismScheme
from repro.exec.backends import ParallelSpec
from repro.exec.runner import ParallelRunner
from repro.exec.warmup import PerfCacheWarmup, WarmupChain
from repro.faults.resilience import (ResiliencePolicy, ResilienceRuntime,
                                     resilient_executor)
from repro.model.spec import ModelSpec
from repro.registry import REGISTRY, Workload
from repro.serving.events import (CountersSampled, IterationCompleted,
                                  ServingEvent)
from repro.serving.grouping import GroupedExecutor
from repro.serving.latency import LatencyTracker
from repro.serving.pool import RequestPool
from repro.serving.preemption import PreemptingAllocatorPool
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import IterationRecord, IterationScheduler
from repro.sim.events import EventBus

#: Table-5 per-channel average memory power (mW): the dual-row-buffer PIM
#: vs a plain HBM channel (see :mod:`repro.dram.power`).
PIM_CHANNEL_POWER_MW = 634.8
HBM_CHANNEL_POWER_MW = 364.1


@dataclass(frozen=True)
class RunResult:
    """Uniform outcome of one scenario run.

    ``kind`` is ``"measurement"`` for warmed-batch runs (one iteration
    per sampled batch; ``tokens_per_second`` is the mean of per-batch
    throughputs, the paper's §8.1 accounting) and ``"serving"`` for
    streaming scheduler runs (``tokens_per_second`` is total tokens over
    the serving makespan).  ``records`` holds one plain dict per
    iteration/batch, so results serialize to JSON via :meth:`to_dict`.

    ``requests`` holds one ``{"request_id", "status"}`` dict per retired
    request of a serving run (terminal statuses ``completed`` /
    ``timed_out`` / ``shed`` / ``aborted``, default ``completed``) and
    ``resilience`` the fault/retry/shed/timeout counters when a
    resilience runtime was active; both are empty — and omitted from
    :meth:`to_dict` — when not applicable, so pre-resilience payloads
    keep their exact shape.

    ``counters`` is the run's typed hardware counter rollup
    (:class:`~repro.counters.report.CounterReport`), populated when the
    scenario's ``counters`` component is not ``"none"``; like the
    resilience fields it is omitted from :meth:`to_dict` when empty so
    built-in-only payloads keep their pre-counters JSON shape.
    """

    kind: str
    model: str
    system: str
    fidelity: str
    iterations: int
    total_tokens: int
    total_time_cycles: float
    tokens_per_second: float
    mean_iteration_cycles: float
    mean_batch_size: float
    max_batch_size: int
    utilization: Dict[str, float] = field(default_factory=dict)
    energy_per_token_mj: Optional[float] = None
    latency_ms: Dict[str, float] = field(default_factory=dict)
    records: Tuple[Dict[str, float], ...] = ()
    requests: Tuple[Dict[str, Any], ...] = ()
    resilience: Dict[str, int] = field(default_factory=dict)
    counters: CounterReport = field(default_factory=CounterReport)

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for table rendering (CLI and examples)."""
        rows: List[Tuple[str, object]] = [
            ("kind", self.kind),
            ("iterations", self.iterations),
            ("tokens generated", self.total_tokens),
            ("simulated time (ms)", round(self.total_time_cycles / 1e6, 3)),
            ("throughput (tokens/s)", round(self.tokens_per_second)),
            ("mean iteration (us)",
             round(self.mean_iteration_cycles / 1e3, 2)),
            ("mean batch size", round(self.mean_batch_size, 1)),
            ("max batch size", self.max_batch_size),
        ]
        for unit in sorted(self.utilization):
            rows.append((f"{unit} utilization",
                         f"{self.utilization[unit]:.1%}"))
        if self.energy_per_token_mj is not None:
            rows.append(("energy/token (mJ)",
                         round(self.energy_per_token_mj, 3)))
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-serializable plain dict.

        The resilience fields (``requests`` / ``resilience``) only
        appear when populated, so pre-resilience payloads keep their
        exact shape.
        """
        data: Dict[str, Any] = {
            "kind": self.kind,
            "model": self.model,
            "system": self.system,
            "fidelity": self.fidelity,
            "iterations": self.iterations,
            "total_tokens": self.total_tokens,
            "total_time_cycles": self.total_time_cycles,
            "tokens_per_second": self.tokens_per_second,
            "mean_iteration_cycles": self.mean_iteration_cycles,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "utilization": dict(self.utilization),
            "energy_per_token_mj": self.energy_per_token_mj,
            "latency_ms": dict(self.latency_ms),
            "records": [dict(r) for r in self.records],
        }
        if self.requests:
            data["requests"] = [dict(r) for r in self.requests]
        if self.resilience:
            data["resilience"] = dict(self.resilience)
        if self.counters:
            data["counters"] = self.counters.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (round-trips)."""
        payload = dict(data)
        payload["utilization"] = dict(payload.get("utilization", {}))
        payload["latency_ms"] = dict(payload.get("latency_ms", {}))
        payload["records"] = tuple(dict(r)
                                   for r in payload.get("records", ()))
        payload["requests"] = tuple(dict(r)
                                    for r in payload.get("requests", ()))
        payload["resilience"] = dict(payload.get("resilience", {}))
        payload["counters"] = CounterReport.from_dict(
            payload.get("counters", {}))
        return cls(**payload)


class Session:
    """Materializes and runs one scenario.

    The constructor only resolves the spec (model, config, fidelity);
    :meth:`materialize` builds the stack — resolving the system, traffic
    model, KV allocators, fidelity engine and scheduler by name through
    :mod:`repro.registry` — and :meth:`run` executes it, caching the
    :class:`RunResult`.  The materialized pieces stay reachable
    (``device`` / ``system`` / ``pool`` / ``scheduler`` /
    ``allocators`` / ``load_tracker`` / ``latency_tracker`` /
    ``events``) so examples and tests can step the scheduler, subscribe
    observers or inspect the pool mid-run; a subsequent :meth:`run`
    simply finishes the remaining iterations.

    Step-wise execution: :meth:`step` runs one iteration,
    :meth:`run_until` stops on a live predicate, and :meth:`stream`
    yields typed events while the loop advances.  Under the
    equivalence-class engine (serving spec knob ``grouping``, default
    ``"auto"``) per-request state is deferred inside steady-state
    windows — call ``scheduler.sync_grouped()`` before inspecting the
    pool or requests mid-run (``run`` and ``run_until`` always leave
    the stack synchronized).
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        #: Optional hook wrapping the serving batch executor *inside*
        #: the latency-tracker wrap (same composition discipline as
        #: ``resilient_executor``, so injected cycles move the latency
        #: clock).  Set before :meth:`materialize`; the fleet router
        #: uses it to apply node-degrade derates.  While set, the
        #: grouped fast path stands down (grouped windows bypass the
        #: executor), keeping the wrapper authoritative per iteration.
        #:
        #: Ordering contract: the wrapper composes *outside* any
        #: resilience wrap and *inside* the latency tracker, i.e.
        #: ``tracker(wrapper(resilient(inner)))``.  Wrappers that only
        #: observe (pure latency pass-throughs, such as
        #: :func:`repro.counters.collect.counting_executor`) must
        #: commute with latency-scaling wrappers (fleet degrades) on
        #: every simulated metric — either composition order yields
        #: bit-identical results, a contract pinned by the
        #: executor-wrapper regression tests in ``tests/test_counters``.
        self.executor_wrapper: Optional[
            Callable[[Callable[[Sequence[InferenceRequest]], float]],
                     Callable[[Sequence[InferenceRequest]], float]]] = None
        self.model_spec: ModelSpec = spec.resolve_model()
        self.config: NeuPimsConfig = spec.resolve_config()
        self.fidelity: str = spec.resolve_fidelity()
        self.tp: int = spec.resolve_tp()
        self.system: Optional[NeuPimsSystem] = None
        self.device: Any = None
        self.pool: Optional[RequestPool] = None
        self.scheduler: Optional[IterationScheduler] = None
        self.allocators = None
        self.load_tracker = None
        self.latency_tracker: Optional[LatencyTracker] = None
        #: fault injector from the ``faults`` component (``None`` off)
        self.fault_injector = None
        #: typed counter collector for ``counters="typed"`` (``None``
        #: for ``counters="none"``, the zero-overhead default)
        self.counters = None
        # Every request that ever entered the pool, for build-time KV
        # page-churn accounting (the pool forgets retired requests, and
        # externally fed sessions — fleet nodes — have no arrivals).
        # Only populated while a counter collector is attached.
        self._counter_requests: Dict[int, InferenceRequest] = {}
        #: resilience runtime; only built when faults or knobs are set
        self.resilience: Optional[ResilienceRuntime] = None
        #: typed serving events (zero-overhead while unsubscribed)
        self.events = EventBus()
        self.workload: Optional[Workload] = None
        self.arrivals: Tuple[InferenceRequest, ...] = ()
        self.batches: List[List[InferenceRequest]] = []
        self._materialized = False
        self._result: Optional[RunResult] = None
        # Measurement-mode stepping state (one warmed batch per step).
        self._batch_cursor = 0
        self._measure_records: List[Dict[str, float]] = []
        self._measure_throughputs: List[float] = []
        self._measure_clock = 0.0
        # Streaming-run aggregates captured by the executor wrapper.
        self._busy: Dict[str, float] = {}
        self._latency_acc = 0.0
        self._external_bytes = 0.0

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------

    def calibrated_estimator(self) -> MhaLatencyEstimator:
        """The cycle-fidelity Algorithm-1 estimator for this scenario.

        Calibrates ``L_tile`` / ``L_GWRITE`` by replaying command-level
        GEMVs through the cycle-accurate memory controller (memoized per
        hardware configuration by :mod:`repro.perf`).
        """
        from repro.perf.calibration import cached_calibrate
        latencies = cached_calibrate(self.config.timing, self.config.org,
                                     self.config.pim_timing,
                                     self.model_spec.dtype_bytes)
        return MhaLatencyEstimator(spec=self.model_spec, org=self.config.org,
                                   latencies=latencies)

    def _build_device(self) -> Any:
        """Construct the system-under-test through the registry."""
        # The *declared* fidelity name resolves the factory (so a
        # registered tier receives its own options); ``self.fidelity``
        # stays the resolved tier for reporting.
        estimator = REGISTRY.create("fidelity", self.spec.fidelity, self,
                                    **self.spec.options_for("fidelity"))
        return REGISTRY.create(
            "system", self.spec.system, self.model_spec, self.config,
            tp=self.tp, layers_resident=self.spec.layers_resident,
            estimator=estimator, **self.spec.options_for("system"))

    def materialize(self) -> "Session":
        """Build the full stack for this scenario (idempotent).

        Every component resolves by name through :mod:`repro.registry`:
        the system under test (unless the ``pp`` knob selects the
        multi-device :class:`~repro.core.system.NeuPimsSystem` engine),
        the traffic model (warmed batches or streaming arrivals), and —
        for streaming workloads — the KV allocator family and the
        scheduler.
        """
        if self._materialized:
            return self
        if self.spec.pp is not None:
            self.system = NeuPimsSystem(
                self.model_spec, ParallelismScheme(self.tp, self.spec.pp),
                config=self.config)
            self.device = self.system.device
        else:
            self.device = self._build_device()
        if self.spec.counters == "typed":
            self.counters = CounterCollector()
            if hasattr(self.device, "attach_counters"):
                self.device.attach_counters()
        traffic = self.spec.traffic
        self.workload = REGISTRY.create(
            "traffic", traffic.kind, traffic,
            **self.spec.options_for("traffic"))
        if self.workload.streaming:
            self._materialize_serving(self.workload)
        else:
            self.batches = [list(batch) for batch in self.workload.batches]
        self._materialized = True
        return self

    def _materialize_serving(self, workload: Workload) -> None:
        """Wire the streaming serving stack (pool/allocators/scheduler)."""
        serving = self.spec.serving
        self.arrivals = tuple(workload.arrivals)
        self.pool = RequestPool()
        if self.counters is not None:
            # KV page churn must charge identically whether requests
            # arrive from the traffic model or an external feeder (a
            # fleet router submitting into the pool), and the pool
            # forgets retired requests — so shadow every submission
            # session-side.  ``submit_all`` routes through ``submit``,
            # so the instance override below sees both.
            tracked = self._counter_requests
            inner_submit = self.pool.submit

            def tracking_submit(request: InferenceRequest) -> None:
                inner_submit(request)
                tracked[request.request_id] = request

            self.pool.submit = tracking_submit
        self.pool.submit_all(self.arrivals)
        is_neupims = isinstance(self.device, NeuPimsDevice)
        channels = self.device.channel_pool if is_neupims else 1
        if serving.paged_kv:
            layers = getattr(self.device, "layers",
                             self.model_spec.num_layers)
            self.allocators = REGISTRY.create(
                "kv", self.spec.kv, self.model_spec, serving, channels,
                layers_resident=layers, **self.spec.options_for("kv"))
        if serving.load_tracker and is_neupims:
            self.load_tracker = self.device.attach_load_tracker()
        self.fault_injector = REGISTRY.create(
            "faults", self.spec.faults, serving, channels,
            **self.spec.options_for("faults"))
        policy = ResiliencePolicy(
            deadline_cycles=serving.deadline_cycles,
            max_retries=serving.max_retries,
            retry_backoff_cycles=serving.retry_backoff_cycles,
            shed_wait_cycles=serving.shed_wait_cycles)
        if self.fault_injector is not None or policy.active:
            preempting = None
            if self.allocators:
                preempting = PreemptingAllocatorPool(
                    self.allocators, self.model_spec.kv_bytes_per_token())
            self.resilience = ResilienceRuntime(
                policy, injector=self.fault_injector,
                preempting=preempting)
        self.latency_tracker = LatencyTracker()
        inner = self._wrapped_executor()
        if self.resilience is not None:
            # Compose inside the tracker wrap so fault penalties and
            # restore costs move the latency clock like device cycles.
            inner = resilient_executor(self.resilience, inner)
        if self.executor_wrapper is not None:
            if serving.grouping == "on":
                raise ValueError("executor_wrapper needs per-iteration "
                                 "executor calls; use grouping='auto' or "
                                 "'off'")
            inner = self.executor_wrapper(inner)
        executor = self.latency_tracker.wrap(inner)
        if self.executor_wrapper is not None:
            grouped = None
        else:
            grouped = self._grouped_executor(serving.grouping)
        wiring: Dict[str, Any] = {}
        if self.resilience is not None:
            # Only passed when active so hand-registered schedulers
            # without the parameter keep working on the default path.
            wiring["resilience"] = self.resilience
        self.scheduler = REGISTRY.create(
            "scheduler", self.spec.scheduler,
            pool=self.pool, executor=executor,
            max_batch_size=serving.max_batch_size,
            allocators=self.allocators,
            assign_channels=(self.device.assign_channels
                             if is_neupims else None),
            load_tracker=self.load_tracker,
            grouping=serving.grouping,
            grouped=grouped,
            latency_tracker=self.latency_tracker,
            events=self.events,
            **wiring,
            **self.spec.options_for("scheduler"))

    def _grouped_executor(self, grouping: str) -> Optional[GroupedExecutor]:
        """The class-grouped engine for this scenario, if applicable.

        ``"auto"`` returns ``None`` for systems without class-plan support
        (the scheduler then stays on the per-request path); ``"on"``
        insists and raises instead.  The returned runner feeds the same
        busy/byte accumulators as the per-request executor wrapper, so
        aggregates are identical between paths.
        """
        if grouping == "off":
            return None
        if self.system is not None:
            system = self.system

            def run_system_plan(plan, shift: int) -> float:
                latency = system.iteration_from_plan(plan, shift)
                self._latency_acc += latency
                return latency
            return GroupedExecutor(system.prepare_class_plan,
                                   run_system_plan)
        if isinstance(self.device, NeuPimsDevice):
            device = self.device

            def run_device_plan(plan, shift: int) -> float:
                result: IterationResult = device.iteration_from_plan(plan,
                                                                     shift)
                self._accumulate(result)
                return result.latency
            return GroupedExecutor(device.prepare_class_plan,
                                   run_device_plan)
        if grouping == "on":
            raise ValueError(
                f"system {self.spec.system!r} has no class-grouped engine; "
                "use grouping='auto' or 'off'")
        return None

    def _wrapped_executor(self):
        """An executor that also aggregates busy/byte accounting."""
        if self.system is not None:
            system = self.system

            def run_system(batch: Sequence[InferenceRequest]) -> float:
                latency = system.iteration_latency(batch)
                self._latency_acc += latency
                return latency
            return run_system
        device = self.device

        def run(batch: Sequence[InferenceRequest]) -> float:
            result: IterationResult = device.iteration(batch)
            self._accumulate(result)
            return result.latency
        return run

    def _accumulate(self, result: IterationResult) -> None:
        """Fold one iteration's busy/byte accounting into the session."""
        self._latency_acc += result.latency
        self._external_bytes += result.external_bytes
        for key, value in result.busy.items():
            self._busy[key] = self._busy.get(key, 0.0) + value
        if self.counters is not None and result.counters:
            self.counters.charge(result.counters)
            events = self.events
            if events.active:
                events.emit(CountersSampled(
                    time=self._latency_acc,
                    counters=tuple(sorted(result.counters.items()))))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def _iterations_done(self) -> int:
        """Iterations executed so far (either execution mode)."""
        if self.workload is not None and self.workload.streaming:
            return len(self.scheduler.stats.iterations)
        return self._batch_cursor

    def _iteration_limit(self, max_iterations: Optional[int] = None) -> int:
        """The stop bound for the stepping loop."""
        if max_iterations is not None:
            return max_iterations
        if self.workload is not None and self.workload.streaming:
            return self.spec.serving.max_iterations
        return len(self.batches)

    def step(self, max_steps: int = 1) -> Optional[IterationRecord]:
        """Execute one iteration; ``None`` when nothing is runnable.

        Measurement scenarios run the next warmed batch; serving
        scenarios advance the iteration scheduler (under grouping, up to
        ``max_steps`` steady-state iterations may group-commit in one
        call, exactly as inside :meth:`run`).  Returns the last executed
        :class:`~repro.serving.scheduler.IterationRecord`.  Mid-run
        state may be deferred under grouping — call
        ``scheduler.sync_grouped()`` before inspecting the pool.
        """
        self.materialize()
        if self.workload.streaming:
            return self.scheduler.run_iteration(max_steps=max_steps)
        return self._measure_step()

    def run_until(self, predicate: Callable[["Session"], bool],
                  max_iterations: Optional[int] = None) -> RunResult:
        """Step until ``predicate(session)`` holds or the run drains.

        The predicate is evaluated after every iteration with the stack
        synchronized (grouped windows flushed), so it can inspect the
        pool, the latency tracker or the last records — the hook for
        early stop and live-policy experiments.  Returns the result of
        the iterations executed so far *without* caching it: a later
        :meth:`run` resumes and finishes the remaining work.
        """
        self.materialize()
        limit = self._iteration_limit(max_iterations)
        while self._iterations_done() < limit:
            if self.step() is None:
                break
            if self.scheduler is not None:
                self.scheduler.sync_grouped()
            if predicate(self):
                break
        return self._build_result()

    def stream(self, max_iterations: Optional[int] = None
               ) -> Iterator[ServingEvent]:
        """Drive the run, yielding typed events as they occur.

        Subscribes to :attr:`events` for the duration of the generator
        and yields every :mod:`repro.serving.events` event the loop
        publishes — ``IterationCompleted`` per iteration (both paths),
        admission/retirement, KV pressure, grouped-window commits.  The
        iteration schedule is identical to :meth:`run` (same group-commit
        budgets), so records and aggregates are bit-identical to a batch
        run; after exhaustion :meth:`result` returns them.
        """
        self.materialize()
        buffer: "deque[ServingEvent]" = deque()
        unsubscribe = self.events.subscribe(None, buffer.append)
        try:
            limit = self._iteration_limit(max_iterations)
            while self._iterations_done() < limit:
                record = self.step(max_steps=limit - self._iterations_done())
                while buffer:
                    yield buffer.popleft()
                if record is None:
                    break
            if self.scheduler is not None:
                self.scheduler.sync_grouped()
                while buffer:
                    yield buffer.popleft()
        finally:
            unsubscribe()

    def result(self) -> RunResult:
        """The result of the iterations executed so far (uncached)."""
        self.materialize()
        return self._build_result()

    def run(self) -> RunResult:
        """Run the scenario to completion; the result is cached.

        This is the batch mode: the no-subscriber drain of the same
        stepping loop :meth:`stream` drives.  With nothing subscribed to
        :attr:`events` no event object is constructed (the zero-overhead
        observer contract, gated by the perf-regression bench).
        """
        if self._result is not None:
            return self._result
        self.materialize()
        limit = self._iteration_limit()
        while self._iterations_done() < limit:
            if self.step(max_steps=limit - self._iterations_done()) is None:
                break
        if self.scheduler is not None:
            self.scheduler.sync_grouped()
        self._result = self._build_result()
        return self._result

    def _build_result(self) -> RunResult:
        """Assemble the uniform result from the executed iterations."""
        if self.workload is not None and self.workload.streaming:
            return self._build_serving_result()
        return self._build_measurement_result()

    def _utilization(self) -> Dict[str, float]:
        """Busy-fraction accounting (the paper's Table-4 methodology)."""
        latency_acc = self._latency_acc
        utilization = {
            key: min(1.0, value / latency_acc) if latency_acc > 0 else 0.0
            for key, value in self._busy.items()
        }
        if self._busy and latency_acc > 0:
            seconds = latency_acc / 1e9
            utilization["bandwidth"] = min(
                1.0, self._external_bytes
                / (self.config.org.total_bandwidth * seconds))
        return utilization

    def _kv_page_churn(self) -> float:
        """KV pages (paged-allocator blocks) turned over by the run.

        Defined as the blocks needed to hold each pool request's final
        context (:meth:`~repro.serving.paging.PagedKvAllocator.blocks_for`
        over ``input_len + generated``), summed over every request that
        ever entered the pool — a pure function of terminal request
        state, so the charge is bit-identical across grouping modes,
        stream-vs-batch consumption, and external (fleet-router) feeds.
        """
        if not self.allocators or not self._counter_requests:
            return 0.0
        allocator = self.allocators[0]
        return float(sum(
            allocator.blocks_for(req.input_len + req.generated)
            for req in self._counter_requests.values()))

    def _counter_report(self) -> CounterReport:
        """Freeze the run's typed counters (empty when disabled).

        Built afresh at result-build time — the iteration charges live
        in the collector and the KV churn is a pure function of request
        state, so calling this (or :meth:`result`) repeatedly never
        double-charges.
        """
        if self.counters is None:
            return CounterReport()
        totals = self.counters.snapshot()
        churn = self._kv_page_churn()
        if churn:
            totals["kv.page_churn"] = totals.get("kv.page_churn",
                                                 0.0) + churn
        return CounterReport.from_mapping(totals)

    def _energy_per_token(self, tokens: int) -> Optional[float]:
        """Estimated mJ/token from the aggregated busy profile."""
        if not self._busy or self._latency_acc <= 0 or tokens <= 0:
            return None
        from repro.analysis.energy import EnergyParams, iteration_energy
        # Table 5 gives two per-channel anchors: the dual-row-buffer PIM
        # bank and a plain HBM channel.  Systems without an in-memory
        # compute path (and PIM systems in blocked single-buffer mode,
        # as a lower-bound approximation) bill at the HBM rate.
        has_pim = self.spec.system in ("neupims", "npu-pim", "transpim")
        memory_power = (PIM_CHANNEL_POWER_MW
                        if has_pim and self.config.dual_row_buffer
                        else HBM_CHANNEL_POWER_MW)
        aggregate = IterationResult(latency=self._latency_acc,
                                    busy=dict(self._busy))
        report = iteration_energy(
            aggregate, tokens, memory_power,
            EnergyParams(channels=self.config.num_channels))
        return report.energy_per_token_mj

    def _measure_step(self) -> Optional[IterationRecord]:
        """Run the next warmed batch (one generation iteration, §8.1)."""
        if self._batch_cursor >= len(self.batches):
            return None
        index = self._batch_cursor
        batch = self.batches[index]
        if self.system is not None:
            # One pipeline_pitch() drives both numbers (the system's
            # own iteration_latency/throughput methods would each
            # re-simulate the micro-batch).
            pitch = self.system.pipeline_pitch(batch)
            latency = pitch * self.system.scheme.pp
            micro = self.system.micro_batches(batch)[0]
            throughput = len(micro) / (pitch / 1e9)
        else:
            result = self.device.iteration(batch)
            latency = result.latency
            throughput = (len(batch) / (latency / 1e9)
                          if latency > 0 else 0.0)
            self._accumulate(result)
        self._measure_throughputs.append(throughput)
        self._measure_records.append({
            "index": index,
            "latency": latency,
            "batch_size": len(batch),
            "tokens": len(batch),
            "tokens_per_second": throughput,
        })
        self._batch_cursor += 1
        record = IterationRecord(
            index=index, start_time=self._measure_clock, latency=latency,
            batch_size=len(batch), tokens_generated=len(batch),
            admitted=0, retired=0)
        self._measure_clock += latency
        events = self.events
        if events.active:
            events.emit(IterationCompleted(time=record.end_time,
                                           record=record))
        return record

    def _build_measurement_result(self) -> RunResult:
        """Assemble the per-batch measurement aggregates (paper §8.1)."""
        records = list(self._measure_records)
        throughputs = self._measure_throughputs
        batch_sizes = [record["batch_size"] for record in records]
        total_tokens = sum(record["tokens"] for record in records)
        latency_sum = sum(record["latency"] for record in records)
        count = len(records)
        return RunResult(
            kind="measurement",
            model=self.model_spec.name,
            system=self.spec.system,
            fidelity=self.fidelity,
            iterations=count,
            total_tokens=int(total_tokens),
            total_time_cycles=latency_sum,
            tokens_per_second=(sum(throughputs) / count if count else 0.0),
            mean_iteration_cycles=(latency_sum / count if count else 0.0),
            mean_batch_size=(sum(batch_sizes) / count if count else 0.0),
            max_batch_size=int(max(batch_sizes)) if batch_sizes else 0,
            utilization=self._utilization(),
            energy_per_token_mj=self._energy_per_token(int(total_tokens)),
            records=tuple(records),
            counters=self._counter_report(),
        )

    def _build_serving_result(self) -> RunResult:
        """Assemble aggregates over the scheduler's executed iterations."""
        stats = self.scheduler.stats
        records = tuple({
            "index": r.index,
            "start_time": r.start_time,
            "latency": r.latency,
            "batch_size": r.batch_size,
            "tokens": r.tokens_generated,
            "admitted": r.admitted,
            "retired": r.retired,
        } for r in stats.iterations)
        iterations = len(records)
        total_tokens = stats.total_tokens
        total_time = stats.total_time
        batch_sizes = [r.batch_size for r in stats.iterations]
        latency_summary = (self.latency_tracker.report().summary()
                           if self.latency_tracker is not None else {})
        outcomes = getattr(self.scheduler, "outcomes", {})
        request_records = tuple(
            {"request_id": rid, "status": outcomes[rid]}
            for rid in sorted(outcomes))
        resilience_summary: Dict[str, int] = {}
        if self.resilience is not None:
            resilience_summary = {
                key: self.resilience.counters[key]
                for key in sorted(self.resilience.counters)}
            resilience_summary["completed"] = sum(
                1 for status in outcomes.values() if status == "completed")
        return RunResult(
            kind="serving",
            model=self.model_spec.name,
            system=self.spec.system,
            fidelity=self.fidelity,
            iterations=iterations,
            total_tokens=total_tokens,
            total_time_cycles=total_time,
            tokens_per_second=stats.throughput_tokens_per_second(),
            mean_iteration_cycles=(self._latency_acc / iterations
                                   if iterations else 0.0),
            mean_batch_size=(sum(batch_sizes) / iterations
                             if iterations else 0.0),
            max_batch_size=int(max(batch_sizes)) if batch_sizes else 0,
            utilization=self._utilization(),
            energy_per_token_mj=self._energy_per_token(total_tokens),
            latency_ms=latency_summary,
            records=records,
            requests=request_records,
            resilience=resilience_summary,
            counters=self._counter_report(),
        )


def run_scenario(spec: Union[ScenarioSpec, Dict[str, Any]]) -> RunResult:
    """Run one scenario to a :class:`RunResult` (picklable task unit)."""
    if isinstance(spec, dict):
        spec = ScenarioSpec.from_dict(spec)
    return Session(spec).run()


def aggregate_resilience(results: Iterable[RunResult]) -> Dict[str, int]:
    """Sum ``RunResult.resilience`` counters across results.

    The fleet-consistent rollup for fanned-out runs: each
    :mod:`repro.exec` worker returns per-cell counter fragments, and a
    sweep (or a fleet merge) needs their totals — retries, timeouts,
    shed and aborted counts summed over every cell.  Pure integer
    addition over per-result dicts, so the rollup is identical whether
    the results came from a serial loop or any
    :class:`~repro.exec.runner.ParallelRunner` worker count (the
    determinism contract :mod:`repro.exec` pins for records extends to
    the resilience counters).  Results without counters contribute
    nothing; an all-empty input returns ``{}``.
    """
    totals: Dict[str, int] = {}
    for result in results:
        for key, value in result.resilience.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def scenario_warmup(specs: Sequence[ScenarioSpec]) -> PerfCacheWarmup:
    """A per-worker warmup covering the cycle-fidelity configs in specs.

    The calibration cache is keyed on the model's element width too, so
    the warmup carries every distinct ``dtype_bytes`` alongside the
    configs.
    """
    configs = []
    dtypes = []
    for spec in specs:
        if spec.resolve_fidelity() == "cycle":
            config = spec.resolve_config()
            if config not in configs:
                configs.append(config)
            dtype = spec.resolve_model().dtype_bytes
            if dtype not in dtypes:
                dtypes.append(dtype)
    return PerfCacheWarmup(configs=tuple(configs),
                           dtype_bytes=tuple(dtypes) or (2,))


def run_scenarios(specs: Sequence[ScenarioSpec],
                  parallel: ParallelSpec = None,
                  chunk_size: int = 1,
                  start_method: Optional[str] = None,
                  warmup: Optional[Callable[[], None]] = None
                  ) -> List[RunResult]:
    """Fan scenarios across an execution backend, merging in order.

    Results are record-for-record identical to a serial run (the
    :mod:`repro.exec` determinism contract); ``parallel`` accepts the
    usual worker count / backend spec.  Workers pre-warm the perf caches
    for every distinct cycle-fidelity hardware config in ``specs``;
    ``warmup`` chains an extra per-worker initializer — pass a
    :class:`~repro.exec.warmup.RegistryWarmup` when specs name
    user-registered components and the pool may use the ``spawn`` start
    method (fork workers inherit the parent's registry for free).
    A backend *instance* passed as ``parallel`` keeps its own warmup.
    """
    specs = list(specs)
    initializer: Callable[[], None] = scenario_warmup(specs)
    if warmup is not None:
        initializer = WarmupChain((warmup, initializer))
    runner = ParallelRunner(parallel, chunk_size=chunk_size,
                            start_method=start_method, warmup=initializer)
    return runner.map(run_scenario, specs)
