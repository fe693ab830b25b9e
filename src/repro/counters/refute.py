"""Cross-fidelity refutation harness: diff the tiers' counter vectors.

CounterPoint-style methodology (PAPERS.md), applied to fidelity rather
than faults: the analytic tier earns trust by surviving attempts to
*refute* it.  For every cell of a scenario grid — MHA GEMV geometry
swept across sequence lengths and the hardware regions that change the
PIM command encoding (composite vs fine-grained ISA, dual vs blocked
row buffer) — the harness:

1. predicts the typed counter vector arithmetically from the shared
   GEMV geometry (:func:`repro.pim.gemv.mha_gemv_ops`, the same single
   source Algorithm 1's estimator prices);
2. measures the same counters from the command-level simulation
   (:meth:`repro.dram.controller.MemoryController.counter_view`);
3. diffs the two per counter (symmetric relative error,
   :meth:`repro.counters.report.CounterReport.drift`) against declared
   per-counter tolerance bounds.

Bounds are deliberately not all zero: refresh ``REF`` commands and
activation replays are *excluded* from the analytic C/A-bus and
row-activation predictions — that exclusion is the honest drift the
harness quantifies, and the bounds declare how much of it the analytic
tier is allowed before the report counts a violation.

Exposed on the CLI as ``python -m repro refute``; the CI
``refute-smoke`` job runs the default grid on every push.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.counters.report import CounterReport

__all__ = ["DEFAULT_BOUNDS", "DEFAULT_SEQ_LENS", "REGIONS",
           "predict_gemv_counters", "region_key", "run_refute"]

#: Hardware regions swept: (composite ISA, dual row buffer).
REGIONS: Tuple[Tuple[bool, bool], ...] = (
    (True, True), (True, False), (False, True), (False, False))


def region_key(composite: bool, dual_row_buffer: bool) -> str:
    """Canonical region name for one PIM command-encoding configuration."""
    encoding = "composite" if composite else "fine"
    buffer = "dual" if dual_row_buffer else "blocked"
    return f"{encoding}:{buffer}"


#: Default sequence-length grid — spans single-wave attends through
#: multi-thousand-wave logits without making the smoke run slow.
DEFAULT_SEQ_LENS: Tuple[int, ...] = (128, 512, 1536)

#: Per-counter drift tolerances (symmetric relative error).  Issue
#: slots are pure command-count arithmetic shared by both tiers, so
#: they must agree exactly; row activations absorb refresh-driven
#: activation replays (~2%); C/A-bus cycles absorb the refresh ``REF``
#: commands the analytic model excludes (worst on the composite
#: encoding, whose baseline command count is tiny); refresh stalls
#: inherit the analytic latency model's refresh-free idealization on
#: top of the cadence quotient.
DEFAULT_BOUNDS: Dict[str, float] = {
    "dram.ca_busy_cycles": 0.35,
    "dram.refresh_stalls": 0.25,
    "dram.row_activations": 0.05,
    "pim.gemv_issue_slots": 0.0,
}


def fine_wave_pitch(timing, org, pim_timing) -> float:
    """Steady-state cycles per fine-grained dot-product wave.

    The fine-grained encoding issues one ``PIM_ACTIVATION`` per 4-bank
    group over the C/A bus, and each group fills the whole tFAW window,
    so the groups serialize at tFAW pitch; the wave then waits tRCD,
    MACs the open page, and precharges before the next wave's
    activations.  This is the C/A-bottleneck the composite encoding's
    internal sequencer eliminates (Figure 9) — the two encodings'
    analytic latencies differ by ~5x for the same GEMV.
    """
    mac = pim_timing.dotprod_cycles_per_page(org.page_bytes)
    return float((org.bank_groups - 1) * timing.tFAW
                 + timing.tRCD + mac + timing.tRP)


def predict_gemv_counters(op, org, composite: bool, dtype_bytes: int,
                          timing, pim_timing, latencies
                          ) -> Tuple[Dict[str, float], float]:
    """Analytic counter vector and latency for one GEMV.

    Pure arithmetic over the op geometry and the analytic per-wave /
    per-GWRITE latencies — no command stream is materialized.  The
    prediction is region-aware where the hardware is: fine-grained
    waves pitch at :func:`fine_wave_pitch`, and the composite
    encoding's header-aware refresh hoists ``REF`` to command-stream
    boundaries (one per staged GWRITE plus the trailing precharge), so
    its refresh count is bounded by ``gwrites + 1`` however long the
    GEMV runs.  Returns ``(counters, predicted_latency)``.
    """
    from repro.pim.gemv import ca_bus_cost

    waves = op.waves(org, dtype_bytes)
    gwrites = op.gwrites(org, dtype_bytes)
    pitch = (latencies.l_tile if composite
             else fine_wave_pitch(timing, org, pim_timing))
    latency = pitch * waves + latencies.l_gwrite * gwrites
    refresh = latency / timing.tREFI
    if composite:
        refresh = min(refresh, float(gwrites + 1))
    counters = {
        "dram.ca_busy_cycles": float(
            ca_bus_cost(op, org, composite, dtype_bytes)),
        "dram.refresh_stalls": refresh,
        "dram.row_activations": float(waves * org.banks_per_channel),
        "pim.gemv_issue_slots": float(waves),
    }
    return counters, latency


def run_refute(model: str = "gpt3-7b",
               seq_lens: Optional[Tuple[int, ...]] = None,
               bounds: Optional[Dict[str, float]] = None
               ) -> Dict[str, Any]:
    """Sweep the refutation grid; returns a JSON-ready report.

    For every (region, seq_len) cell, refutes both MHA GEMVs (logit and
    attend) of the model shard.  The report carries per-cell
    predicted/measured/drift triples, all bound violations with their
    offending cell, and the worst-offending cell per counter.
    """
    from repro.core.estimator import analytic_latencies
    from repro.dram.timing import HbmOrganization, PimTiming, TimingParams
    from repro.model.spec import get_model
    from repro.pim.engine import measure_gemv_latency
    from repro.pim.gemv import mha_gemv_ops

    spec = get_model(model)
    seq_lens = tuple(seq_lens) if seq_lens else DEFAULT_SEQ_LENS
    if any(s <= 0 for s in seq_lens):
        raise ValueError(f"seq_lens must be positive, got {seq_lens}")
    bounds = dict(DEFAULT_BOUNDS, **(bounds or {}))
    unknown = set(bounds) - set(DEFAULT_BOUNDS)
    if unknown:
        raise ValueError(f"unknown counter bound(s) {sorted(unknown)}; "
                         f"known: {sorted(DEFAULT_BOUNDS)}")
    org = HbmOrganization()
    timing = TimingParams()
    pim_timing = PimTiming()
    latencies = analytic_latencies(timing=timing, org=org,
                                   pim_timing=pim_timing)
    dtype = spec.dtype_bytes

    cells: List[Dict[str, Any]] = []
    violations: List[Dict[str, Any]] = []
    worst: Dict[str, Dict[str, Any]] = {}
    for composite, dual in REGIONS:
        region = region_key(composite, dual)
        for seq_len in seq_lens:
            ops = mha_gemv_ops(spec.num_heads, spec.head_dim, seq_len)
            for op, op_name in zip(ops, ("logit", "attend")):
                predicted, predicted_latency = predict_gemv_counters(
                    op, org, composite, dtype, timing, pim_timing,
                    latencies)
                measured_latency, controller = measure_gemv_latency(
                    op, dual_row_buffer=dual, composite=composite,
                    timing=timing, org=org, dtype_bytes=dtype, fast=True)
                measured = {
                    name: value
                    for name, value in controller.counter_view().items()
                    if name in predicted
                }
                drift = CounterReport.from_mapping(predicted).drift(
                    CounterReport.from_mapping(measured))
                cell = {
                    "region": region,
                    "seq_len": seq_len,
                    "op": op_name,
                    "predicted_latency": predicted_latency,
                    "measured_latency": measured_latency,
                    "counters": {
                        name: {"predicted": predicted[name],
                               "measured": measured.get(name, 0.0),
                               "drift": drift.get(name, 0.0)}
                        for name in sorted(predicted)
                    },
                }
                cells.append(cell)
                for name in sorted(predicted):
                    error = drift.get(name, 0.0)
                    peak = worst.get(name)
                    if peak is None or error > peak["drift"]:
                        worst[name] = {"drift": error, "region": region,
                                       "seq_len": seq_len, "op": op_name}
                    if error > bounds[name]:
                        violations.append({
                            "region": region, "seq_len": seq_len,
                            "op": op_name, "counter": name,
                            "drift": error, "bound": bounds[name]})
    return {
        "model": spec.name,
        "seq_lens": list(seq_lens),
        "bounds": dict(sorted(bounds.items())),
        "cells": cells,
        "violations": violations,
        "worst": {name: worst[name] for name in sorted(worst)},
        "passed": not violations,
    }
