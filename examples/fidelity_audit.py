#!/usr/bin/env python3
"""Fidelity audit: try to refute the analytic tier against the cycle tier.

Runs the cross-fidelity refutation harness over the hardware-region x
sequence-length grid (``repro.counters.refute``): every cell predicts
the typed counter vector arithmetically from the shared GEMV geometry,
measures the same counters from the command-level simulation, and diffs
the two against per-counter tolerance bounds.  The per-counter drift
table below is the audit; a bound violation would refute the analytic
tier in that region.

The second half runs the same serving scenario once at
``fidelity="analytic"`` and once at ``fidelity="cycle"``, with typed
counters attached to both, and compares them side by side.

Run:  python examples/fidelity_audit.py
"""

from repro.analysis.report import format_table
from repro.api import ScenarioSpec, Session, TrafficSpec
from repro.counters.refute import run_refute


def drift_table(report) -> str:
    """Per-counter drift rows for every refuted cell of one region."""
    rows = []
    for cell in report["cells"]:
        for name, entry in cell["counters"].items():
            rows.append((cell["region"], cell["seq_len"], cell["op"],
                         name.split(".", 1)[1],
                         round(entry["predicted"], 1),
                         round(entry["measured"], 1),
                         f"{entry['drift']:.3f}"))
    return format_table(
        ["region", "seq_len", "op", "counter", "predicted", "measured",
         "drift"],
        rows, title=f"cross-fidelity counter drift "
                    f"({report['model']}, {len(report['cells'])} cells)")


def main() -> None:
    report = run_refute(seq_lens=(128, 512))
    print(drift_table(report))

    verdict = "all regions within bounds" if report["passed"] else \
        f"{len(report['violations'])} violation(s)"
    print(f"\nrefutation verdict: {verdict}")

    traffic = TrafficSpec(kind="poisson", max_requests=8,
                          horizon_cycles=5e6, seed=3)
    analytic, cycle = (
        Session(ScenarioSpec(model="gpt3-7b", fidelity=fidelity,
                             counters="typed", traffic=traffic)).run()
        for fidelity in ("analytic", "cycle"))

    rows = [
        ("TTFT p50 (ms)",
         round(analytic.latency_ms.get("ttft_p50_ms", 0.0), 2),
         round(cycle.latency_ms.get("ttft_p50_ms", 0.0), 2)),
        ("end-to-end p99 (ms)",
         round(analytic.latency_ms.get("end_to_end_p99_ms", 0.0), 2),
         round(cycle.latency_ms.get("end_to_end_p99_ms", 0.0), 2)),
        ("tokens/s", round(analytic.tokens_per_second),
         round(cycle.tokens_per_second)),
        ("GEMV issue slots",
         round(analytic.counters.get("pim.gemv_issue_slots")),
         round(cycle.counters.get("pim.gemv_issue_slots"))),
        ("KV page churn", round(analytic.counters.get("kv.page_churn")),
         round(cycle.counters.get("kv.page_churn"))),
    ]
    print()
    print(format_table(
        ["metric", "fidelity=analytic", "fidelity=cycle"],
        rows, title="both fidelity tiers on one serving scenario"))


if __name__ == "__main__":
    main()
