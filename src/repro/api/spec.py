"""Declarative scenario specifications — the front door's job description.

A :class:`ScenarioSpec` captures **everything** a simulation run needs —
model, system under test, hardware configuration, traffic, serving knobs
and fidelity — as one frozen, picklable dataclass.  Specs round-trip
through plain dicts (``to_dict()`` / ``from_dict()``), so they serialize
to JSON for the ``python -m repro`` CLI and ship across process
boundaries unchanged, and :meth:`ScenarioSpec.override` derives sweep
variants without touching the nested structure by hand.

The split follows the cluster-framework pattern of separating the job
*description* from its *placement*: a spec says what to simulate; the
:class:`~repro.api.session.Session` decides how to materialize and run
it.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.config import NeuPimsConfig
from repro.model.spec import MODEL_REGISTRY, ModelSpec, get_model
from repro.registry import (FrozenOptions, component_names, freeze_options,
                            get_component, thaw_options)
from repro.serving.grouping import GROUPING_MODES
from repro.serving.request import InferenceRequest
from repro.serving.trace import DATASETS, DatasetTrace, get_dataset

#: The built-in systems (the full set lives in :mod:`repro.registry`;
#: specs accept any registered name).
SYSTEMS = ("neupims", "npu-pim", "npu-only", "gpu-only", "transpim")

#: The built-in traffic kinds (registry kind ``"traffic"``).
TRAFFIC_KINDS = ("warmed", "poisson", "replay", "external")

#: The built-in fidelity settings (see DESIGN.md §7 for the selection
#: rules); ``"auto"`` resolves to a registered fidelity engine.
FIDELITIES = ("analytic", "cycle", "auto")

#: The typed-counter settings of :attr:`ScenarioSpec.counters`.
COUNTER_MODES = ("none", "typed")


# ----------------------------------------------------------------------
# Generic frozen-dataclass <-> dict plumbing.
# ----------------------------------------------------------------------

def _encode(value: Any) -> Any:
    """Recursively turn frozen dataclasses/tuples into dicts/lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint: Any, value: Any) -> Any:
    """Rebuild a value of annotated type ``hint`` from its encoding."""
    origin = typing.get_origin(hint)
    if origin is Union:
        if value is None:
            return None
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        return _decode(args[0], value)
    if origin is tuple:
        args = typing.get_args(hint)
        if args and args[-1] is Ellipsis:
            return tuple(_decode(args[0], item) for item in value)
        return tuple(_decode(arg, item) for arg, item in zip(args, value))
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise TypeError(f"expected mapping for {hint.__name__}, "
                            f"got {type(value).__name__}")
        field_names = {f.name for f in dataclasses.fields(hint)}
        unknown = set(value) - field_names
        if unknown:
            raise ValueError(f"unknown {hint.__name__} field(s) "
                             f"{sorted(unknown)}; known: "
                             f"{sorted(field_names)}")
        hints = typing.get_type_hints(hint)
        kwargs = {f.name: _decode(hints[f.name], value[f.name])
                  for f in dataclasses.fields(hint) if f.name in value}
        return hint(**kwargs)
    return value


# ----------------------------------------------------------------------
# Traffic.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficSpec:
    """Declarative description of a scenario's workload.

    Three kinds cover every simulation mode in the repo:

    * ``"warmed"`` — the paper's §8.1 measurement methodology: sampled
      warmed-up generation batches, one iteration each.  With
      ``num_batches == 1`` the batch is drawn directly with ``seed``
      (matching ``warmed_batch``); with more — or whenever
      ``sample_schedule`` is set — the multi-batch seed schedule of
      ``sample_batches`` applies (its batch ``i`` uses
      ``seed*1009 + i``).
    * ``"poisson"`` — streaming Poisson arrivals driven through the
      iteration-level scheduler (``max_requests`` optionally caps the
      arrival list).
    * ``"replay"`` — explicit ``(input_len, output_len, arrival_time)``
      triples replayed through the scheduler, for trace-exact reruns.
    * ``"external"`` — a streaming scenario with no arrivals of its own:
      the serving stack materializes empty and requests are submitted
      from outside via ``session.pool.submit``.  This is how the fleet
      :class:`~repro.cluster.router.Router` feeds per-node sessions.
    """

    kind: str = "warmed"
    #: dataset name (``"sharegpt"``/``"alpaca"``) or a full trace object
    dataset: Union[str, DatasetTrace] = "sharegpt"
    batch_size: int = 64
    num_batches: int = 1
    #: force the ``sample_batches`` seed schedule even for one batch
    sample_schedule: bool = False
    seed: int = 0
    rate_per_kcycle: float = 0.02
    horizon_cycles: float = 2e7
    max_requests: Optional[int] = None
    replay_requests: Tuple[Tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str):
            raise ValueError(f"traffic kind must be a string, got "
                             f"{type(self.kind).__name__}; registered: "
                             f"{sorted(component_names('traffic'))}")
        # Registry lookups are case-insensitive; normalize the stored
        # kind so the downstream replay/poisson branches (and equality)
        # agree with what the registry will resolve.
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in component_names("traffic"):
            raise ValueError(f"unknown traffic kind {self.kind!r}; "
                             f"registered: "
                             f"{sorted(component_names('traffic'))}")
        if self.kind != "replay":
            if isinstance(self.dataset, str):
                get_dataset(self.dataset)  # validates the name
            if self.batch_size <= 0 or self.num_batches <= 0:
                raise ValueError("batch_size and num_batches must be positive")
        if self.kind == "replay" and not self.replay_requests:
            raise ValueError("replay traffic needs replay_requests")
        if self.max_requests is not None and self.max_requests <= 0:
            raise ValueError("max_requests must be positive")

    # -- constructors ---------------------------------------------------

    @classmethod
    def warmed(cls, dataset: Union[str, DatasetTrace] = "sharegpt",
               batch_size: int = 64, num_batches: int = 1,
               seed: int = 0, sample_schedule: bool = False
               ) -> "TrafficSpec":
        """Warmed-batch measurement traffic (paper §8.1)."""
        return cls(kind="warmed", dataset=dataset, batch_size=batch_size,
                   num_batches=num_batches, seed=seed,
                   sample_schedule=sample_schedule)

    @classmethod
    def poisson(cls, dataset: Union[str, DatasetTrace] = "sharegpt",
                rate_per_kcycle: float = 0.02, horizon_cycles: float = 2e7,
                seed: int = 0,
                max_requests: Optional[int] = None) -> "TrafficSpec":
        """Streaming Poisson-arrival traffic for serving scenarios."""
        return cls(kind="poisson", dataset=dataset,
                   rate_per_kcycle=rate_per_kcycle,
                   horizon_cycles=horizon_cycles, seed=seed,
                   max_requests=max_requests)

    @classmethod
    def replay(cls, requests: Iterable[Union[InferenceRequest,
                                             Sequence[float]]]
               ) -> "TrafficSpec":
        """Replay traffic from requests or (in, out, arrival) triples."""
        triples = []
        for item in requests:
            if isinstance(item, InferenceRequest):
                triples.append((item.input_len, item.output_len,
                                float(item.arrival_time)))
            else:
                input_len, output_len, arrival = item
                triples.append((int(input_len), int(output_len),
                                float(arrival)))
        return cls(kind="replay", replay_requests=tuple(triples))

    # -- resolution -----------------------------------------------------

    def resolve_dataset(self) -> DatasetTrace:
        """The concrete trace behind :attr:`dataset`."""
        if isinstance(self.dataset, DatasetTrace):
            return self.dataset
        return get_dataset(self.dataset)


# ----------------------------------------------------------------------
# Serving knobs.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServingSpec:
    """Serving-loop knobs for streaming (poisson/replay) scenarios."""

    max_batch_size: int = 16
    #: per-channel vLLM-style paged KV allocation for admission control
    paged_kv: bool = True
    kv_capacity_bytes: int = 1 << 28
    kv_block_tokens: int = 16
    #: keep live per-channel loads for Algorithm-2 admission bin packing
    load_tracker: bool = True
    max_iterations: int = 1_000_000
    #: equivalence-class group-commit engine: ``"auto"`` groups whenever
    #: the system under test supports class plans (bit-identical records
    #: either way), ``"on"`` requires support, ``"off"`` never groups
    grouping: str = "auto"
    #: per-request deadline in cycles for *running* requests (measured
    #: from arrival, re-based after each retry); ``None`` disables
    deadline_cycles: Optional[float] = None
    #: bounded re-admissions per request after a timeout or KV failure
    max_retries: int = 0
    #: base of the exponential backoff added to retry arrival times
    retry_backoff_cycles: float = 0.0
    #: shed waiting requests never admitted within this window;
    #: ``None`` disables graceful-degradation shedding
    shed_wait_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.kv_capacity_bytes <= 0 or self.kv_block_tokens <= 0:
            raise ValueError("KV capacity and block size must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.grouping not in GROUPING_MODES:
            raise ValueError(f"unknown grouping mode {self.grouping!r}; "
                             f"known: {GROUPING_MODES}")
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise ValueError("deadline_cycles must be positive when set")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_cycles < 0:
            raise ValueError("retry_backoff_cycles must be >= 0")
        if self.shed_wait_cycles is not None and self.shed_wait_cycles <= 0:
            raise ValueError("shed_wait_cycles must be positive when set")


# ----------------------------------------------------------------------
# The scenario itself.
# ----------------------------------------------------------------------

#: Spec fields `override()` routes into the nested TrafficSpec.
_TRAFFIC_FIELDS = frozenset(f.name for f in dataclasses.fields(TrafficSpec))
#: Spec fields `override()` routes into the nested ServingSpec.
_SERVING_FIELDS = frozenset(f.name for f in dataclasses.fields(ServingSpec))
#: Feature flags `override()` routes into the NeuPimsConfig.
_CONFIG_FLAGS = frozenset((
    "dual_row_buffer", "composite_isa", "greedy_binpack",
    "sub_batch_interleaving", "adaptive_sbi",
))
#: Per-component option-dict fields (stored as canonical frozen pairs).
_OPTION_FIELDS = ("system_options", "scheduler_options",
                  "traffic_options", "kv_options", "fidelity_options",
                  "faults_options")
#: Component-name fields (and ``counters``) omitted from ``to_dict`` at
#: their defaults so built-in-only specs keep their pre-registry JSON
#: shape.
_COMPONENT_DEFAULTS = (("scheduler", "iteration"), ("kv", "paged"),
                       ("faults", "none"), ("counters", "none"))
#: ServingSpec resilience fields omitted from ``to_dict`` at their
#: defaults so pre-resilience serving payloads keep their JSON shape.
_SERVING_PRUNED_DEFAULTS = (("deadline_cycles", None), ("max_retries", 0),
                            ("retry_backoff_cycles", 0.0),
                            ("shed_wait_cycles", None))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative simulation scenario.

    Attributes
    ----------
    model:
        Registry name (``"gpt3-7b"``) or a full :class:`ModelSpec`.
    system:
        System under test; one of :data:`SYSTEMS`.
    config:
        Hardware configuration; ``None`` uses the system's default.
        For ``"npu-pim"`` the feature flags are forced to the naive
        baseline regardless of the flags carried here.
    tp:
        Tensor-parallel degree; ``None`` uses the model's Table-3 default.
    pp:
        Pipeline-parallel degree.  ``None`` (the default) runs a single
        device; any integer — including 1 — materializes a
        :class:`~repro.core.system.NeuPimsSystem` with pooled TP-group
        channels, the multi-device engine the planner uses.
    layers_resident:
        Decoder blocks resident per iteration (device engine only;
        the system engine derives it from ``pp``).
    traffic / serving:
        Workload and serving-loop knobs.
    fidelity:
        ``"analytic"`` uses closed-form Algorithm-1 latency constants;
        ``"cycle"`` calibrates them from the command-level DRAM/PIM
        simulation (memoized per hardware config); ``"auto"`` picks per
        the DESIGN.md §7 rules (cycle for device-level warmed
        measurements on PIM systems, analytic otherwise).
    scheduler / kv / faults:
        Registered component names for the serving scheduler, the
        paged-KV allocator family (``kv`` applies when
        ``serving.paged_kv`` is set) and the fault-injection plan
        (``"none"`` disables injection at zero overhead; ``"seeded"``
        draws a deterministic plan from ``faults_options["seed"]``).
        Like ``system`` and ``traffic.kind``, these resolve through
        :mod:`repro.registry`, so a ``@register("scheduler",
        "my-policy")`` class sweeps like any built-in.
    counters:
        One of :data:`COUNTER_MODES`: ``"none"`` disables counter
        collection at zero overhead; ``"typed"`` rolls the
        :mod:`repro.counters` taxonomy into ``RunResult.counters``.
    system_options / scheduler_options / traffic_options / kv_options /
    fidelity_options / faults_options:
        Per-component option dicts forwarded to the factories at
        materialization.  Accepted as plain dicts, stored as canonical
        frozen pairs (specs stay hashable/picklable), and JSON
        round-tripped as dicts by :meth:`to_dict` / :meth:`from_dict`.
    label:
        Optional display name for tables and sweep records.
    """

    model: Union[str, ModelSpec] = "gpt3-7b"
    system: str = "neupims"
    config: Optional[NeuPimsConfig] = None
    tp: Optional[int] = None
    pp: Optional[int] = None
    layers_resident: Optional[int] = None
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    fidelity: str = "auto"
    scheduler: str = "iteration"
    kv: str = "paged"
    faults: str = "none"
    counters: str = "none"
    system_options: FrozenOptions = ()
    scheduler_options: FrozenOptions = ()
    traffic_options: FrozenOptions = ()
    kv_options: FrozenOptions = ()
    fidelity_options: FrozenOptions = ()
    faults_options: FrozenOptions = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        # Component names normalize to lower case (registry lookups are
        # case-insensitive) so the downstream comparisons — energy
        # anchors, feature forcing, fidelity rules — see one spelling.
        for name in ("system", "scheduler", "kv", "fidelity", "faults"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a component name "
                                 f"string, got {type(value).__name__}")
            object.__setattr__(self, name, value.lower())
        get_component("system", self.system)  # raises with known names
        get_component("scheduler", self.scheduler)
        get_component("kv", self.kv)
        get_component("faults", self.faults)
        if isinstance(self.counters, str):
            object.__setattr__(self, "counters", self.counters.lower())
        if self.counters not in COUNTER_MODES:
            raise ValueError(f"counters must be one of "
                             f"{list(COUNTER_MODES)}, got {self.counters!r}")
        if self.fidelity != "auto":
            get_component("fidelity", self.fidelity)
        for name in _OPTION_FIELDS:
            object.__setattr__(self, name,
                               freeze_options(getattr(self, name)))
        if isinstance(self.model, str) and self.model.lower() not in \
                MODEL_REGISTRY:
            get_model(self.model)  # raises with the known-model list
        for name in ("tp", "pp", "layers_resident"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pp is not None:
            if self.system != "neupims":
                raise ValueError("pp (system engine) requires "
                                 "system='neupims'")
            if self.layers_resident is not None:
                raise ValueError("layers_resident is derived from pp under "
                                 "the system engine; leave it None")
            if self.fidelity == "cycle":
                raise ValueError("cycle fidelity is device-level only; "
                                 "use fidelity='analytic' with pp")
            if self.counters != "none":
                raise ValueError("typed counters are device-engine only; "
                                 "use counters='none' with pp")
        # The built-in non-PIM baselines have nothing to calibrate; a
        # user-registered system decides for itself (its factory rejects
        # the estimator if unsupported, per the registration contract).
        if self.fidelity == "cycle" and self.system in (
                "npu-only", "gpu-only", "transpim"):
            raise ValueError(f"system {self.system!r} has no PIM estimator "
                             "to calibrate; cycle fidelity does not apply")

    # -- resolution -----------------------------------------------------

    def resolve_model(self) -> ModelSpec:
        """The concrete :class:`ModelSpec` behind :attr:`model`."""
        if isinstance(self.model, ModelSpec):
            return self.model
        return get_model(self.model)

    def resolve_config(self) -> NeuPimsConfig:
        """The effective hardware configuration for this scenario."""
        base = self.config if self.config is not None else NeuPimsConfig()
        if self.system == "npu-pim":
            return base.with_features(dual_row_buffer=False,
                                      composite_isa=False,
                                      greedy_binpack=False,
                                      sub_batch_interleaving=False)
        return base

    def resolve_tp(self) -> int:
        """The effective tensor-parallel degree."""
        return self.tp if self.tp is not None else \
            self.resolve_model().tensor_parallel

    def options_for(self, kind: str) -> Dict[str, Any]:
        """The plain option dict for one component kind.

        ``kind`` is one of ``"system"``, ``"scheduler"``, ``"traffic"``
        or ``"kv"``; the stored frozen pairs thaw back into the dict a
        factory call consumes.
        """
        field_name = f"{kind}_options"
        if field_name not in _OPTION_FIELDS:
            raise ValueError(f"no options for component kind {kind!r}; "
                             f"known: {[f.split('_')[0] for f in _OPTION_FIELDS]}")
        return thaw_options(getattr(self, field_name))

    def resolve_fidelity(self) -> str:
        """``"analytic"`` or ``"cycle"`` per the DESIGN.md §7 rule.

        ``"auto"`` is a pure function of the spec: cycle for
        device-level warmed measurements on PIM systems, analytic
        otherwise.  Explicit tiers pass through unchanged.
        """
        if self.fidelity != "auto":
            return self.fidelity
        if (self.system in ("neupims", "npu-pim") and self.pp is None
                and self.traffic.kind == "warmed"):
            return "cycle"
        return "analytic"

    def display_name(self) -> str:
        """Label for tables: explicit label, else system @ model."""
        if self.label is not None:
            return self.label
        return f"{self.system}@{self.resolve_model().name}"

    # -- derivation -----------------------------------------------------

    def override(self, **updates: Any) -> "ScenarioSpec":
        """A copy with field overrides routed into the nested specs.

        Top-level field names change the spec itself; traffic and serving
        field names (``batch_size``, ``dataset``, ``seed``,
        ``max_batch_size``, ...) change the nested dataclasses; feature
        flag names (``dual_row_buffer``, ``greedy_binpack``, ...) change
        the hardware config (starting from the default config when none
        is set).  This is what sweeps use to derive grid variants.
        """
        spec_updates: Dict[str, Any] = {}
        traffic_updates: Dict[str, Any] = {}
        serving_updates: Dict[str, Any] = {}
        config_updates: Dict[str, Any] = {}
        spec_fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
        for name, value in updates.items():
            if name in spec_fields:
                spec_updates[name] = value
            elif name in _TRAFFIC_FIELDS:
                traffic_updates[name] = value
            elif name in _SERVING_FIELDS:
                serving_updates[name] = value
            elif name in _CONFIG_FLAGS:
                config_updates[name] = value
            else:
                raise ValueError(f"unknown scenario field {name!r}")
        # Routed nested updates compose with an explicit traffic=/serving=/
        # config= passed in the same call: they apply on top of it.
        if traffic_updates:
            base_traffic = spec_updates.get("traffic", self.traffic)
            spec_updates["traffic"] = replace(base_traffic, **traffic_updates)
        if serving_updates:
            base_serving = spec_updates.get("serving", self.serving)
            spec_updates["serving"] = replace(base_serving, **serving_updates)
        if config_updates:
            base = spec_updates.get("config", self.config)
            if base is None:
                base = NeuPimsConfig()
            spec_updates["config"] = replace(base, **config_updates)
        return replace(self, **spec_updates) if spec_updates else self

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-serializable plain dict.

        Component fields at their defaults (``scheduler="iteration"``,
        ``kv="paged"``, empty option dicts) are omitted, so specs that
        use only built-in components keep the exact JSON shape they had
        before the registry existed — old payloads load unchanged and
        new payloads stay diff-clean.
        """
        data = _encode(self)
        for name in _OPTION_FIELDS:
            frozen = getattr(self, name)
            if frozen:
                data[name] = thaw_options(frozen)
            else:
                del data[name]
        for name, default in _COMPONENT_DEFAULTS:
            if data[name] == default:
                del data[name]
        serving_data = data.get("serving")
        if isinstance(serving_data, dict):
            for name, default in _SERVING_PRUNED_DEFAULTS:
                if name in serving_data and serving_data[name] == default:
                    del serving_data[name]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (round-trips)."""
        if not isinstance(data, dict):
            raise TypeError("ScenarioSpec.from_dict expects a mapping")
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ValueError(f"unknown ScenarioSpec field(s) "
                             f"{sorted(unknown)}; known: "
                             f"{sorted(field_names)}")
        kwargs: Dict[str, Any] = {}
        if "model" in data:
            model = data["model"]
            kwargs["model"] = model if isinstance(model, str) \
                else _decode(ModelSpec, model)
        if "traffic" in data:
            traffic = dict(data["traffic"])
            dataset = traffic.get("dataset")
            if isinstance(dataset, dict):
                traffic["dataset"] = _decode(DatasetTrace, dataset)
            kwargs["traffic"] = _decode(TrafficSpec,
                                        {k: v for k, v in traffic.items()
                                         if k != "dataset"})
            if "dataset" in traffic:
                kwargs["traffic"] = replace(kwargs["traffic"],
                                            dataset=traffic["dataset"])
        if "serving" in data:
            kwargs["serving"] = _decode(ServingSpec, data["serving"])
        if data.get("config") is not None:
            kwargs["config"] = _decode(NeuPimsConfig, data["config"])
        elif "config" in data:
            kwargs["config"] = None
        for name in ("system", "tp", "pp", "layers_resident", "fidelity",
                     "scheduler", "kv", "faults", "counters", "label"):
            if name in data:
                kwargs[name] = data[name]
        for name in _OPTION_FIELDS:
            if name in data:
                options = data[name]
                if not isinstance(options, dict):
                    raise TypeError(f"{name} must be a mapping, got "
                                    f"{type(options).__name__}")
                kwargs[name] = options
        return cls(**kwargs)
