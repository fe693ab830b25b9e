"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python (no ``repro`` import): the benchmark draws
each workload's arrivals and lengths from its ``--seed`` and hands the
simulator an explicit replay trace, so the program under test never sees
the seed.  The same seed always yields the same inputs.

Arrivals are open-loop: a Poisson process in *simulated* time (cycles at
the modelled 1 GHz clock), fixed before the run starts, so a slow
simulated system faces the same arrivals as a fast one.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist
from typing import Callable, Dict, List, Tuple

#: (input_len, output_len, arrival_cycles) as ``TrafficSpec.replay`` takes it.
Triple = Tuple[int, int, float]

#: Clipped log-normal length models.  Means and sigmas match the ShareGPT
#: and Alpaca models in ``repro/serving/trace.py`` (checked by the tests),
#: but live here so that a change to the program cannot change the inputs.
SHAREGPT = {"input": (80.0, 0.9), "output": (296.0, 0.8)}
ALPACA = {"input": (12.0, 0.7), "output": (56.0, 0.7)}
MAX_LEN = 4096

#: Length buckets of ``repro.api.bench``'s class-friendly trace.
INPUT_BUCKETS = (128, 320)
OUTPUT_BUCKETS = (64, 96)

#: One row per workload: why it is in the set (``BENCHMARK.json`` carries
#: the same sentences).
WHY: Dict[str, str] = {
    "sharegpt-poisson": (
        "Primary serving gate: ShareGPT decodes near saturation; "
        "classes ~ requests, so the device model and per-request "
        "bookkeeping work. KV runs out: ~3-4% reported completed are "
        "truncated"),
    "bucketed-replay": (
        "Drained queue of bucketed lengths, batch cap 1024: the grouped "
        "engine does the work (97% of iterations grouped). A change "
        "that removes or replaces grouping must show no loss here"),
    "alpaca-fleet-failover": (
        "Write-heavy: short Alpaca requests above what 4 least-loaded "
        "nodes sustain, plus one node kill (fixed seed 5); admission, "
        "KV churn, pool, router and failover do the work"),
    "pim-cmdlevel": (
        "counters.refute grid at ~2k/4k tokens: the DRAM controller "
        "drain (91% replayed) and PIM command streams do the work; no "
        "serving workload reaches them (calibration is cached)"),
}
WORKLOADS = tuple(WHY)

#: sharegpt-poisson: ~100 requests per simulated second at the 1 GHz clock.
#: The node decodes ~22k tokens/s, i.e. ~75 ShareGPT requests/s, so this
#: rate sits just above saturation.  (0.05/kcycle, ~700x the capacity,
#: would make the whole trace arrive in 20 ms: a drained queue.)
SHAREGPT_RATE_PER_KCYCLE = 1e-4
#: Enough requests that >= 1000 complete in full despite KV truncation,
#: so the p99 of TTFT/TPOT has ten samples beyond it.
SHAREGPT_REQUESTS = 1150

BUCKETED_REQUESTS = 8192

#: alpaca-fleet-failover: 2 requests per simulated ms against a fleet that
#: drains ~1 per ms, so queues build and the node kill has work to move.
FLEET_RATE_PER_KCYCLE = 2e-3
FLEET_REQUESTS = 2400
#: The node-kill seed of ``examples/fleet_failover.py``: node 0 goes down
#: 45% into the arrival span for a quarter of it.  The workload seed varies
#: the traffic, not the fault, so host times compare across seeds (a
#: seeded kill window moves between 5% and 70% of the span and lasts 10-30%
#: of it, which changes the fleet's work by tens of percent).
FLEET_FAULT_SEED = 5

#: pim-cmdlevel: the two refute sequence lengths, each jittered by the seed
#: in 16-token steps (a few percent of work) so seeds differ in input but
#: not in cost.
PIM_BASE_SEQ_LENS = (2048, 4096)
PIM_JITTER_STEPS = 4


def stratified(rng: random.Random, count: int,
               inverse_cdf: Callable[[float], float]) -> List[float]:
    """``count`` draws, one per equal-probability stratum, in seeded order.

    Every seed then offers the same distribution of lengths and gaps and
    the same total work, in a different order, so host timings compare
    across seeds instead of following each seed's total.
    """
    values = [inverse_cdf((i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


def _lengths(rng: random.Random, count: int, mean: float,
             sigma: float) -> List[int]:
    """Clipped log-normal lengths whose arithmetic mean is ``mean``."""
    mu = math.log(mean) - 0.5 * sigma * sigma
    normal = NormalDist(mu, sigma)
    return [min(MAX_LEN, max(1, round(math.exp(x))))
            for x in stratified(rng, count, normal.inv_cdf)]


def poisson_trace(seed: int, count: int, rate_per_kcycle: float,
                  dataset: Dict[str, Tuple[float, float]]) -> List[Triple]:
    """``count`` open-loop Poisson arrivals with dataset-shaped lengths."""
    rng = random.Random(seed)
    mean_gap = 1000.0 / rate_per_kcycle
    gaps = stratified(rng, count, lambda u: -mean_gap * math.log1p(-u))
    inputs = _lengths(rng, count, *dataset["input"])
    outputs = _lengths(rng, count, *dataset["output"])
    trace: List[Triple] = []
    clock = 0.0
    for gap, input_len, output_len in zip(gaps, inputs, outputs):
        clock += gap
        trace.append((input_len, output_len, clock))
    return trace


def bucketed_trace(seed: int, count: int) -> List[Triple]:
    """All-at-t=0 requests spread evenly over the bench's length buckets."""
    grid = [(i, o) for i in INPUT_BUCKETS for o in OUTPUT_BUCKETS]
    pairs = [grid[k % len(grid)] for k in range(count)]
    random.Random(seed).shuffle(pairs)
    return [(i, o, 0.0) for i, o in pairs]


def pim_seq_lens(seed: int) -> List[int]:
    """The refute grid's sequence lengths for one seed."""
    rng = random.Random(seed)
    return [base + 16 * rng.randrange(PIM_JITTER_STEPS)
            for base in PIM_BASE_SEQ_LENS]


def make_inputs(workload: str, seed: int) -> Dict[str, object]:
    """The JSON-ready inputs of one workload for one seed."""
    if workload == "sharegpt-poisson":
        return {"trace": poisson_trace(seed, SHAREGPT_REQUESTS,
                                       SHAREGPT_RATE_PER_KCYCLE, SHAREGPT)}
    if workload == "bucketed-replay":
        return {"trace": bucketed_trace(seed, BUCKETED_REQUESTS)}
    if workload == "alpaca-fleet-failover":
        trace = poisson_trace(seed, FLEET_REQUESTS, FLEET_RATE_PER_KCYCLE,
                              ALPACA)
        # The kill window is drawn inside the arrival span, so it always
        # lands while the fleet is busy.
        return {"trace": trace, "fault_seed": FLEET_FAULT_SEED,
                "fault_horizon": trace[-1][2]}
    if workload == "pim-cmdlevel":
        return {"seq_lens": pim_seq_lens(seed)}
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
