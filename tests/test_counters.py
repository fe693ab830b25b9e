"""The cross-fidelity counters subsystem: taxonomy, conservation, refute.

Covers the ``counters`` spec field end to end:

* the frozen :class:`~repro.counters.report.CounterReport` (canonical
  pairs, merge/drift arithmetic, JSON round trips);
* the spec-layer boundary — the ``counters`` field, its validation and
  the pre-counters JSON shape of built-in-only payloads;
* conservation invariants — identical :class:`CounterReport`\\ s across
  ``drain_fast`` on/off, grouping ``auto``/``off``, stream vs batch
  consumption, and the 1-node fleet rollup vs a plain ``Session``;
* executor-wrapper composition — the counting wrapper and a
  latency-scaling degrade wrapper commute on all simulated metrics;
* the refutation harness, and the fidelity tiers it checks (analytic
  vs cycle serving percentiles, the static ``fidelity="auto"`` rule).
"""

import json
from dataclasses import replace

import pytest

from repro.api.session import RunResult, Session
from repro.api.spec import ScenarioSpec, TrafficSpec
from repro.counters import (COUNTER_NAMES, CounterCollector, CounterReport,
                            counting_executor, region_key)
from repro.counters.refute import (DEFAULT_BOUNDS, REGIONS, fine_wave_pitch,
                                   predict_gemv_counters, run_refute)


def serving_spec(**overrides):
    """A small serving scenario with typed counters attached."""
    base = dict(
        model="gpt3-7b", counters="typed",
        traffic=TrafficSpec(kind="poisson", max_requests=8,
                            horizon_cycles=5e6, seed=3))
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# CounterReport.
# ----------------------------------------------------------------------

class TestCounterReport:
    def test_taxonomy_is_sorted_and_namespaced(self):
        assert list(COUNTER_NAMES) == sorted(COUNTER_NAMES)
        assert all("." in name for name in COUNTER_NAMES)

    def test_canonical_pairs(self):
        a = CounterReport.from_mapping(
            {"b.x": 2.0, "a.y": 1.0, "c.z": 0.0})
        assert a.counters == (("a.y", 1.0), ("b.x", 2.0))
        assert a.get("a.y") == 1.0
        assert a.get("missing") == 0.0
        assert bool(a) and not bool(CounterReport())

    def test_merge_sums_counterwise(self):
        a = CounterReport.from_mapping({"a": 1.0, "b": 2.0})
        b = CounterReport.from_mapping({"b": 3.0, "c": 4.0})
        merged = CounterReport.merge([a, b])
        assert merged.as_dict() == {"a": 1.0, "b": 5.0, "c": 4.0}

    def test_json_round_trip(self):
        report = CounterReport.from_mapping({"a": 1.5, "b": 2.0})
        payload = json.loads(json.dumps(report.to_dict()))
        assert CounterReport.from_dict(payload) == report

    def test_drift_is_symmetric_relative_error(self):
        a = CounterReport.from_mapping({"x": 100.0, "y": 1.0})
        b = CounterReport.from_mapping({"x": 80.0, "z": 2.0})
        drift = a.drift(b)
        assert drift["x"] == pytest.approx(0.2)
        assert drift["y"] == 1.0 and drift["z"] == 1.0
        assert drift == b.drift(a)
        assert CounterReport().drift(CounterReport()) == {}


class TestCounterCollector:
    def test_charge_and_snapshot(self):
        collector = CounterCollector()
        collector.charge({"a": 1.0, "b": 2.0})
        collector.charge({"a": 1.0}, scale=3.0)
        collector.charge_one("c", 0.5)
        assert collector.snapshot() == {"a": 4.0, "b": 2.0, "c": 0.5}
        assert collector.report() == CounterReport.from_mapping(
            {"a": 4.0, "b": 2.0, "c": 0.5})
        collector.reset()
        assert not collector.report()

    def test_counting_executor_passes_latency_through(self):
        collector = CounterCollector()
        wrapped = counting_executor(collector)(lambda batch: 42.0)
        assert wrapped([1, 2, 3]) == 42.0
        assert collector.snapshot() == {"exec.wrapped_iterations": 1.0,
                                        "exec.wrapped_requests": 3.0}


# ----------------------------------------------------------------------
# Spec-layer boundary.
# ----------------------------------------------------------------------

class TestSpecCountersFields:
    def test_defaults_omitted_from_payload(self):
        """Built-in-only payloads keep their exact pre-counters shape."""
        payload = ScenarioSpec().to_dict()
        assert "counters" not in payload
        assert "counters_options" not in payload

    def test_round_trip_with_counters(self):
        spec = ScenarioSpec(counters="typed")
        payload = spec.to_dict()
        assert payload["counters"] == "typed"
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(payload))) == spec

    def test_options_freeze_canonically(self):
        spec = ScenarioSpec(faults="seeded",
                            faults_options={"seed": 3, "aborts": 1})
        assert spec == ScenarioSpec.from_dict(spec.to_dict())
        assert hash(spec) == hash(ScenarioSpec.from_dict(spec.to_dict()))

    def test_unknown_counters_component_rejected(self):
        with pytest.raises(ValueError, match="counters"):
            ScenarioSpec(counters="nope")
        with pytest.raises(ValueError, match="counters"):
            ScenarioSpec(counters=None)

    def test_unknown_key_regression(self):
        payload = ScenarioSpec().to_dict()
        payload["countres"] = "typed"
        with pytest.raises((TypeError, ValueError)):
            ScenarioSpec.from_dict(payload)

    def test_counters_rejected_under_pipeline_parallelism(self):
        with pytest.raises(ValueError, match="pp"):
            ScenarioSpec(counters="typed", pp=2)

    def test_materialize_builds_collector(self):
        external = TrafficSpec(kind="external")
        typed = Session(ScenarioSpec(counters="typed", traffic=external))
        assert isinstance(typed.materialize().counters, CounterCollector)
        none = Session(ScenarioSpec(counters="none", traffic=external))
        assert none.materialize().counters is None

    def test_counters_options_key_rejected(self):
        payload = ScenarioSpec(counters="typed").to_dict()
        payload["counters_options"] = {}
        with pytest.raises((TypeError, ValueError),
                           match="counters_options"):
            ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Conservation invariants.
# ----------------------------------------------------------------------

class TestConservation:
    def test_drain_fast_preserves_counter_view(self):
        """Batch replay charges counters arithmetically, bit-identical."""
        from repro.pim.engine import measure_gemv_latency
        from repro.pim.gemv import GemvOp
        op = GemvOp(rows=2048, cols=512, tag="t")
        for composite, dual in REGIONS:
            slow_t, slow = measure_gemv_latency(
                op, dual_row_buffer=dual, composite=composite, fast=False)
            fast_t, fast = measure_gemv_latency(
                op, dual_row_buffer=dual, composite=composite, fast=True)
            assert fast_t == slow_t
            assert fast.counter_view() == slow.counter_view(), \
                region_key(composite, dual)

    def test_grouping_modes_bit_identical(self):
        reports = {}
        for grouping in ("auto", "off"):
            spec = serving_spec()
            spec = spec.override(
                serving=replace(spec.serving, grouping=grouping))
            reports[grouping] = Session(spec).run().counters
        assert reports["auto"] == reports["off"]
        assert reports["auto"]

    def test_stream_vs_batch_bit_identical(self):
        batch = Session(serving_spec()).run()
        streamed = Session(serving_spec())
        for _ in streamed.stream():
            pass
        assert streamed.result().counters == batch.counters

    def test_result_rebuild_never_double_charges(self):
        session = Session(serving_spec())
        first = session.run().counters
        assert session.result().counters == first
        assert session.result().counters == first

    def test_expected_counter_names_present(self):
        report = Session(serving_spec()).run().counters
        assert set(report.as_dict()) <= set(COUNTER_NAMES)
        assert report.get("pim.gemv_issue_slots") > 0
        assert report.get("npu.systolic_busy_cycles") > 0
        assert report.get("kv.page_churn") > 0

    def test_single_node_fleet_rollup_matches_plain_session(self):
        """1-node fleet counters == plain Session counters (rollup)."""
        from repro.cluster import FleetSpec, run_fleet
        node = serving_spec()
        fleet = FleetSpec(nodes=(node,), traffic=node.traffic)
        fleet_result = run_fleet(fleet)
        plain = Session(node).run()
        node_report = fleet_result.nodes[0].counters
        assert node_report == plain.counters
        assert CounterReport.merge(
            n.counters for n in fleet_result.nodes) == plain.counters

    def test_disabled_path_reports_nothing(self):
        spec = serving_spec(counters="none")
        session = Session(spec)
        result = session.run()
        assert session.counters is None
        assert not result.counters
        assert "counters" not in result.to_dict()


# ----------------------------------------------------------------------
# RunResult integration.
# ----------------------------------------------------------------------

class TestRunResultCounters:
    def test_round_trip(self):
        result = Session(serving_spec()).run()
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = RunResult.from_dict(payload)
        assert rebuilt.counters == result.counters
        assert rebuilt.to_dict() == result.to_dict()

    def test_counters_sampled_events_fold_to_iteration_charges(self):
        from repro.serving.events import CountersSampled
        session = Session(serving_spec())
        sampled = [e for e in session.stream()
                   if isinstance(e, CountersSampled)]
        assert sampled
        folded = CounterReport.merge(
            CounterReport(counters=e.counters) for e in sampled)
        # Events carry the per-iteration device vectors; the final
        # report adds the build-time KV churn on top.
        expected = session.result().counters.as_dict()
        expected.pop("kv.page_churn", None)
        assert folded.as_dict() == pytest.approx(expected)


# ----------------------------------------------------------------------
# Executor-wrapper composition (the ordering-contract satellite).
# ----------------------------------------------------------------------

class TestWrapperComposition:
    @staticmethod
    def _degrade(factor):
        def wrapper(inner):
            def run(batch):
                return inner(batch) * factor
            return run
        return wrapper

    def _run(self, wrappers):
        spec = serving_spec()
        spec = spec.override(
            serving=replace(spec.serving, grouping="off"))
        session = Session(spec)

        def composed(inner):
            for wrap in reversed(wrappers):
                inner = wrap(inner)
            return inner
        session.executor_wrapper = composed
        return session.run()

    def test_counting_commutes_with_degrade(self):
        """Pass-through counting composes commutatively with derates."""
        degrade = self._degrade(1.25)
        col_a, col_b = CounterCollector(), CounterCollector()
        a = self._run([counting_executor(col_a), degrade])
        b = self._run([degrade, counting_executor(col_b)])
        assert a.to_dict() == b.to_dict()
        assert col_a.snapshot() == col_b.snapshot()
        assert col_a.snapshot()["exec.wrapped_iterations"] == a.iterations


# ----------------------------------------------------------------------
# Refutation harness.
# ----------------------------------------------------------------------

class TestRefute:
    def test_default_grid_within_bounds(self):
        report = run_refute(seq_lens=(128, 512))
        assert report["passed"] and not report["violations"]
        for name, entry in report["worst"].items():
            assert entry["drift"] <= report["bounds"][name]
        assert len(report["cells"]) == len(REGIONS) * 2 * 2
        # JSON-ready end to end.
        json.dumps(report)

    def test_issue_slots_exact_everywhere(self):
        report = run_refute(seq_lens=(128,))
        for cell in report["cells"]:
            slot = cell["counters"]["pim.gemv_issue_slots"]
            assert slot["predicted"] == slot["measured"]

    def test_fine_wave_pitch_matches_measurement(self):
        """The closed-form fine pitch is exact (refresh off)."""
        from repro.dram.timing import (HbmOrganization, PimTiming,
                                       TimingParams)
        from repro.pim.engine import measure_gemv_latency
        from repro.pim.gemv import GemvOp
        org, timing, pim = HbmOrganization(), TimingParams(), PimTiming()
        pitch = fine_wave_pitch(timing, org, pim)
        per_wave = {}
        for rows in (2048, 4096):
            op = GemvOp(rows=rows, cols=128, tag="t")
            latency, _ = measure_gemv_latency(
                op, composite=False, refresh=False, fast=True)
            per_wave[op.waves(org, 2)] = latency
        waves = sorted(per_wave)
        measured_pitch = ((per_wave[waves[1]] - per_wave[waves[0]])
                          / (waves[1] - waves[0]))
        assert measured_pitch == pytest.approx(pitch)

    def test_bad_bounds_and_seq_lens_rejected(self):
        with pytest.raises(ValueError, match="unknown counter bound"):
            run_refute(seq_lens=(128,), bounds={"nope": 1.0})
        with pytest.raises(ValueError, match="positive"):
            run_refute(seq_lens=(0,))

    def test_zero_bound_reports_violations(self):
        """A zero C/A-bus bound refutes the analytic tier somewhere."""
        report = run_refute(seq_lens=(512,),
                            bounds={"dram.ca_busy_cycles": 0.0})
        assert not report["passed"]
        violated = {v["region"] for v in report["violations"]}
        assert violated
        assert violated <= {region_key(c, d) for c, d in REGIONS}
        assert {v["counter"] for v in report["violations"]} == \
            {"dram.ca_busy_cycles"}

    def test_predictions_are_pure_arithmetic(self):
        from repro.core.estimator import analytic_latencies
        from repro.dram.timing import (HbmOrganization, PimTiming,
                                       TimingParams)
        from repro.pim.gemv import GemvOp
        org, timing, pim = HbmOrganization(), TimingParams(), PimTiming()
        latencies = analytic_latencies(timing, org, pim)
        op = GemvOp(rows=1024, cols=128, tag="t")
        counters, latency = predict_gemv_counters(
            op, org, True, 2, timing, pim, latencies)
        assert latency > 0
        assert set(counters) == set(DEFAULT_BOUNDS)
        again, _ = predict_gemv_counters(op, org, True, 2, timing, pim,
                                         latencies)
        assert counters == again


# ----------------------------------------------------------------------
# The fidelity tiers the harness checks.
# ----------------------------------------------------------------------

class TestFidelityTiers:
    def test_auto_static_rule(self):
        """Cycle only for warmed device-level runs on PIM systems."""
        warmed = TrafficSpec.warmed(batch_size=4, num_batches=1)
        assert ScenarioSpec(traffic=warmed).resolve_fidelity() == "cycle"
        assert ScenarioSpec(system="npu-pim", traffic=warmed) \
            .resolve_fidelity() == "cycle"
        # Serving traffic, non-PIM baselines and the pipeline-parallel
        # engine stay analytic.
        assert ScenarioSpec(traffic=TrafficSpec(kind="poisson")) \
            .resolve_fidelity() == "analytic"
        assert ScenarioSpec(system="npu-only", traffic=warmed) \
            .resolve_fidelity() == "analytic"
        assert ScenarioSpec(pp=2, traffic=warmed) \
            .resolve_fidelity() == "analytic"

    def test_analytic_matches_cycle_latency_percentiles(self):
        """Serving latency percentiles agree across the two tiers."""
        def sweep(fidelity):
            return [
                Session(ScenarioSpec(
                    model="gpt3-7b", fidelity=fidelity,
                    traffic=TrafficSpec(kind="poisson", max_requests=6,
                                        horizon_cycles=4e6,
                                        seed=seed))).run()
                for seed in (1, 2, 3)
            ]

        cycle_results = sweep("cycle")
        analytic_results = sweep("analytic")
        percentiles = ("ttft_p50_ms", "tpot_p50_ms", "end_to_end_p50_ms",
                       "end_to_end_p99_ms")
        for analytic, cycle in zip(analytic_results, cycle_results):
            assert set(percentiles) <= set(cycle.latency_ms)
            for key in percentiles:
                assert analytic.latency_ms[key] == pytest.approx(
                    cycle.latency_ms[key], rel=0.15)

    def test_auto_skips_calibration_on_external_traffic(self, monkeypatch):
        """``auto`` on streaming traffic never replays command streams."""
        import repro.perf.calibration as calibration
        from repro.perf import invalidate

        calls = []
        calibrate = calibration.cached_calibrate

        def counting(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        invalidate()
        monkeypatch.setattr(calibration, "cached_calibrate", counting)
        external = TrafficSpec(kind="external")
        Session(ScenarioSpec(model="gpt3-7b", fidelity="auto",
                             traffic=external)).materialize()
        assert calls == []
        Session(ScenarioSpec(model="gpt3-7b", fidelity="cycle",
                             traffic=external)).materialize()
        assert len(calls) >= 1
