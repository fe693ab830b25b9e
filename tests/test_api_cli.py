"""The ``python -m repro`` CLI over the scenario API."""

import json

import pytest

from repro.api.cli import build_spec, main, parse_axis
from repro.exec import available_workers

FAST_RUN = ["--model", "gpt3-7b", "--fidelity", "analytic",
            "--layers-resident", "2", "--batch-size", "16"]


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestAxisParsing:
    def test_types_inferred(self):
        assert parse_axis("batch_size=16,32") == {"batch_size": [16, 32]}
        assert parse_axis("dual_row_buffer=true,false") == {
            "dual_row_buffer": [True, False]}
        assert parse_axis("rate_per_kcycle=0.5") == {
            "rate_per_kcycle": [0.5]}
        assert parse_axis("dataset=alpaca,sharegpt") == {
            "dataset": ["alpaca", "sharegpt"]}

    def test_malformed_axis_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_axis("batch_size")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_axis("=1,2")


class TestRun:
    def test_run_writes_result_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["run", *FAST_RUN, "--json", str(out)]) == 0
        assert "throughput (tokens/s)" in capsys.readouterr().out
        payload = read_json(out)
        assert payload["spec"]["model"] == "gpt3-7b"
        assert payload["result"]["kind"] == "measurement"
        assert payload["result"]["tokens_per_second"] > 0

    def test_run_from_spec_file(self, tmp_path, capsys):
        from repro.api import ScenarioSpec, TrafficSpec
        spec = ScenarioSpec(model="gpt3-7b", layers_resident=2,
                            fidelity="analytic",
                            traffic=TrafficSpec.warmed(batch_size=16))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "result.json"
        assert main(["run", "--spec", str(spec_file),
                     "--json", str(out)]) == 0
        from repro.api import run_scenario
        assert read_json(out)["result"] == run_scenario(spec).to_dict()

    def test_poisson_flags_build_serving_scenario(self, tmp_path):
        out = tmp_path / "serving.json"
        assert main(["run", "--model", "gpt3-7b", "--fidelity", "analytic",
                     "--layers-resident", "8", "--traffic", "poisson",
                     "--dataset", "alpaca", "--rate", "0.02",
                     "--horizon", "5e6", "--max-requests", "8",
                     "--max-batch-size", "8", "--json", str(out)]) == 0
        result = read_json(out)["result"]
        assert result["kind"] == "serving"
        assert result["max_batch_size"] <= 8

    def test_bad_flag_value_is_reported(self, capsys):
        assert main(["run", "--model", "gpt5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_file_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["run", "--spec", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        bad.write_text('{"traffic": 7}')
        assert main(["run", "--spec", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    SWEEP = ["sweep", *FAST_RUN, "--axis", "batch_size=16,32",
             "--axis", "dual_row_buffer=false,true"]

    def test_serial_sweep_records(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main([*self.SWEEP, "--json", str(out)]) == 0
        payload = read_json(out)
        assert payload["axes"] == ["batch_size", "dual_row_buffer"]
        assert len(payload["records"]) == 4
        assert all("tokens_per_second" in r for r in payload["records"])

    def test_workers_records_identical_to_serial(self, tmp_path):
        """Acceptance pin: `sweep --workers 2` == serial records."""
        if available_workers() < 2:
            pytest.skip("multi-worker assert needs >= 2 cores")
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        assert main([*self.SWEEP, "--json", str(serial)]) == 0
        assert main([*self.SWEEP, "--workers", "2",
                     "--json", str(pooled)]) == 0
        assert read_json(pooled)["records"] == read_json(serial)["records"]


class TestCompare:
    def test_compare_outputs_all_systems(self, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert main(["compare", *FAST_RUN, "--systems", "npu-pim,neupims",
                     "--json", str(out)]) == 0
        payload = read_json(out)
        assert set(payload["results"]) == {"npu-pim", "neupims"}
        neu = payload["results"]["neupims"]["tokens_per_second"]
        naive = payload["results"]["npu-pim"]["tokens_per_second"]
        assert neu > naive

    def test_singular_system_flag_rejected(self, capsys):
        assert main(["compare", *FAST_RUN, "--system", "npu-only"]) == 2
        assert "--systems" in capsys.readouterr().err


class TestRefute:
    @pytest.mark.parametrize("seq_lens", [",", "abc", "0,128"])
    def test_bad_seq_lens_name_the_flag(self, seq_lens, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["refute", "--seq-lens", seq_lens])
        assert exc.value.code == 2
        assert "--seq-lens" in capsys.readouterr().err

    def test_seq_lens_select_the_grid(self, tmp_path, capsys):
        out = tmp_path / "refute.json"
        assert main(["refute", "--seq-lens", "128,", "--json",
                     str(out)]) == 0
        report = read_json(out)
        assert report["seq_lens"] == [128]
        assert "profile" not in report
        assert "8 cells within bounds" in capsys.readouterr().out


class TestBuildSpec:
    def test_flags_override_spec_file(self, tmp_path):
        from repro.api import ScenarioSpec
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            ScenarioSpec(model="gpt3-13b", fidelity="analytic").to_dict()))
        parser_args = ["run", "--spec", str(spec_file),
                       "--model", "gpt3-7b", "--batch-size", "32"]
        from repro.api.cli import build_parser
        args = build_parser().parse_args(parser_args)
        spec = build_spec(args)
        assert spec.model == "gpt3-7b"
        assert spec.traffic.batch_size == 32
        assert spec.fidelity == "analytic"


class TestBench:
    def test_bench_emits_payload_and_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--requests", "48", "--repeats", "1",
                     "--json", str(out)]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("BENCH ")][0]
        payload = json.loads(line[len("BENCH "):])
        assert payload["records_identical"] is True
        assert payload["requests"] == 48
        assert read_json(out) == payload

    def test_bench_baseline_gate(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--requests", "48", "--repeats", "1",
                     "--json", str(out)]) == 0
        payload = read_json(out)
        # A matching baseline passes ...
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "requests": payload["requests"],
            "iterations": payload["iterations"],
            "tokens": payload["tokens"],
            "sim_tokens_per_s": payload["sim_tokens_per_s"],
            "speedup": 0.01,
        }))
        assert main(["bench", "--requests", "48", "--repeats", "1",
                     "--baseline", str(good)]) == 0
        # ... and a drifted simulated metric or unreachable speedup fails.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "sim_tokens_per_s": payload["sim_tokens_per_s"] * 2,
            "speedup": 10_000.0,
        }))
        assert main(["bench", "--requests", "48", "--repeats", "1",
                     "--baseline", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "sim_tokens_per_s" in err
        assert "speedup regression" in err

    def test_grouping_flag_routes_to_serving_spec(self):
        from repro.api.cli import build_parser
        args = build_parser().parse_args(
            ["run", *FAST_RUN, "--grouping", "off"])
        assert build_spec(args).serving.grouping == "off"


class TestComponents:
    def test_lists_builtin_components(self, tmp_path, capsys):
        out = tmp_path / "components.json"
        assert main(["components", "--json", str(out)]) == 0
        table = capsys.readouterr().out
        for name in ("neupims", "iteration", "poisson", "paged", "cycle"):
            assert name in table
        payload = read_json(out)
        kinds = {entry["kind"] for entry in payload}
        assert kinds == {"system", "scheduler", "traffic", "kv",
                         "fidelity", "faults", "router"}

    def test_kind_filter_and_bad_kind(self, capsys):
        assert main(["components", "--kind", "scheduler"]) == 0
        table = capsys.readouterr().out
        assert "iteration" in table
        assert "neupims" not in table
        assert main(["components", "--kind", "bogus"]) == 2
        assert "unknown component kind" in capsys.readouterr().err

    def test_lists_user_registered_components(self, capsys):
        from repro.registry import REGISTRY
        REGISTRY.register("traffic", "cli-test-burst", lambda spec: None,
                          description="test traffic", replace=True)
        try:
            assert main(["components", "--kind", "traffic"]) == 0
            assert "cli-test-burst" in capsys.readouterr().out
        finally:
            REGISTRY.unregister("traffic", "cli-test-burst")

    def test_scheduler_flag_routes_to_spec(self):
        from repro.api.cli import build_parser
        args = build_parser().parse_args(
            ["run", *FAST_RUN, "--scheduler", "iteration"])
        assert build_spec(args).scheduler == "iteration"

    def test_unregistered_system_flag_reports_alternatives(self, capsys):
        assert main(["run", *FAST_RUN, "--system", "tpu"]) == 2
        err = capsys.readouterr().err
        assert "tpu" in err and "neupims" in err

    def test_unregistered_traffic_flag_reports_alternatives(self, capsys):
        assert main(["run", *FAST_RUN, "--traffic", "burst"]) == 2
        err = capsys.readouterr().err
        assert "burst" in err and "poisson" in err

    def test_replay_traffic_flag_fails_with_clear_error(self, capsys):
        # replay stays JSON-spec only: no flags can carry the triples.
        assert main(["run", *FAST_RUN, "--traffic", "replay"]) == 2
        assert "replay_requests" in capsys.readouterr().err


class TestFaultFlags:
    FAULT_RUN = ["run", "--model", "gpt3-7b", "--fidelity", "analytic",
                 "--layers-resident", "2", "--traffic", "poisson",
                 "--rate", "0.02", "--horizon", "2e5",
                 "--max-requests", "6"]

    def test_fault_seed_implies_seeded_component(self):
        from repro.api.cli import build_parser
        args = build_parser().parse_args(
            [*self.FAULT_RUN, "--fault-seed", "7"])
        spec = build_spec(args)
        assert spec.faults == "seeded"
        assert spec.options_for("faults") == {"seed": 7}

    def test_explicit_component_name_is_kept(self):
        from repro.api.cli import build_parser
        args = build_parser().parse_args([*self.FAULT_RUN,
                                          "--faults", "none"])
        assert build_spec(args).faults == "none"

    def test_faulted_run_round_trips_through_spec_json(self, tmp_path):
        from repro.api import ScenarioSpec, run_scenario
        out = tmp_path / "faulted.json"
        assert main([*self.FAULT_RUN, "--faults", "seeded",
                     "--fault-seed", "3", "--json", str(out)]) == 0
        payload = read_json(out)
        assert payload["spec"]["faults"] == "seeded"
        assert payload["spec"]["faults_options"] == {"seed": 3}
        # The emitted spec fully reproduces the emitted result.
        spec = ScenarioSpec.from_dict(payload["spec"])
        assert run_scenario(spec).to_dict() == payload["result"]


class TestChaosFleet:
    def test_fleet_sweep_writes_report_and_passes(self, tmp_path, capsys):
        out = tmp_path / "fleet-chaos.json"
        assert main(["chaos", "--fleet", "--seeds", "1",
                     "--json", str(out)]) == 0
        assert "all invariants hold" in capsys.readouterr().out
        report = read_json(out)
        assert report["violations"] == []
        assert {cell["mode"] for cell in report["cells"]} == \
            {"batch", "stream"}
        for cell in report["cells"]:
            assert cell["completed"] + cell["timed_out"] + cell["shed"] \
                + cell["aborted"] == cell["requests"]
