#!/usr/bin/env python3
"""The repository benchmark: simulator speed and simulated serving numbers.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, tables
    python3 perfbench/run.py --workload sharegpt-poisson --seed 3 \\
        --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``), one after
another, as many as fit in ``--seconds`` (at least three untraced ones).
Host timings are medians over repetitions, each rescaled to a fixed
reference speed (see :func:`at_reference_speed`); the raw wall times are
printed beside them.  Simulated figures are deterministic per seed and
must repeat exactly, as must the digest of the run's ``to_dict()``.

``--trace 0`` prints every end-to-end metric with its unit, then one JSON
line with the ``BENCHMARK.json`` end-to-end metrics.  ``--trace 1`` first
runs untraced repetitions for half the window (the baseline of the
tracing overhead), then traced ones, and reports the per-layer metrics;
the spans of the last traced repetition go to
``.perfbench/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER, median_metrics  # noqa: E402
from ledger import TPOT_LIMIT_MS, TTFT_LIMIT_MS, median  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402
from worker import REFERENCE_SECONDS  # noqa: E402

#: The end-to-end metrics every workload reports in its JSON line.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
MIN_REPS = 3
#: Wall-clock cap of one repetition; the whole run must end in 180 s.
REP_TIMEOUT_S = 120
OUT_DIR = os.path.join(ROOT, ".perfbench")


class BenchmarkError(RuntimeError):
    """A repetition crashed or timed out: no result can be reported."""


def run_rep(job: Dict[str, Any]) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its JSON result."""
    # Python's default: cache bytecode, as a user's second invocation
    # finds it, whatever the calling environment asks for.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"repetition exceeded {REP_TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}):\n"
                             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_until(job: Dict[str, Any], start: float, until: float,
              at_least: int) -> List[Dict[str, Any]]:
    """Repeat ``job`` at least ``at_least`` times, then while another
    repetition (at the median pace so far) still ends ``until`` seconds
    after ``start`` or earlier."""
    reps: List[Dict[str, Any]] = []
    paces: List[float] = []
    while True:
        began = perf_counter()
        if len(reps) >= at_least and \
                began - start + median(paces) > until:
            return reps
        reps.append(run_rep(job))
        paces.append(perf_counter() - began)


def at_reference_speed(rep: Dict[str, Any], key: str) -> float:
    """A repetition's wall time rescaled to the reference loop's speed.

    The machine this benchmark runs on may change speed by tens of percent
    over minutes, so raw wall times from two runs do not compare.  Each
    repetition also times a fixed pure-Python loop (``worker.reference_loop``,
    stdlib only) just before and just after its work; dividing by that
    time cancels the drift, and multiplying by the loop's time on a quiet
    machine (``REFERENCE_SECONDS``) keeps the unit seconds.
    """
    return rep[key] * REFERENCE_SECONDS / rep["ref_s"]


def host_and_sim_rows(workload: str, reps: List[Dict[str, Any]]
                      ) -> List[tuple]:
    """``(name, value, unit, note)`` for every end-to-end metric."""
    setup_s = median([at_reference_speed(r, "setup_s") for r in reps])
    run_s = median([at_reference_speed(r, "run_s") for r in reps])
    extra = reps[0]["extra"]
    rows = [("setup_s", setup_s, "s",
             "import + construction + materialize, at reference speed"),
            ("run_s", run_s, "s",
             "first step to returned result, at reference speed"),
            ("peak_rss_mb", median([r["peak_rss_mb"] for r in reps]), "MB",
             ""),
            ("setup_wall_s", median([r["setup_s"] for r in reps]), "s",
             "as measured"),
            ("run_wall_s", median([r["run_s"] for r in reps]), "s",
             "as measured"),
            ("reference_loop_s", median([r["ref_s"] for r in reps]), "s",
             f"{REFERENCE_SECONDS:g} s on a quiet machine")]
    if workload == "pim-cmdlevel":
        rows += [
            ("host_ns_per_cmd", run_s * 1e9 / extra["commands"], "ns",
             f"{extra['commands']} DRAM/PIM commands, stepped + replayed"),
            ("sim_gemv_cycles", extra["sim_gemv_cycles"], "cycles",
             "sum of the grid's GEMV finish times"),
        ]
        return rows
    tokens = extra["tokens_delivered"]
    rows += [
        ("host_us_per_token", run_s * 1e6 / tokens, "us",
         f"{tokens} simulated tokens"),
        ("host_us_per_iter", run_s * 1e6 / extra["iterations"], "us",
         f"{extra['iterations']} simulated iterations"),
        ("sim_tokens_per_s", extra["sim_tokens_per_s"], "tok/s", ""),
    ]
    for name in ("ttft", "tpot"):
        n = extra[f"{name}_n"]
        tail_p = extra[f"{name}_tail_p"]
        rows.append((f"sim_{name}_p50_ms", extra[f"{name}_p50_ms"], "ms",
                     f"n={n}"))
        note = f"n={n}" if tail_p == 99.0 else \
            f"n={n}: only p{tail_p:g} has ten samples beyond it"
        rows.append((f"sim_{name}_p99_ms", extra[f"{name}_tail_ms"], "ms",
                     note))
    rows += [
        ("sim_slo_goodput", extra["slo_goodput"], "fraction",
         f"TTFT <= {TTFT_LIMIT_MS:g} ms and TPOT <= {TPOT_LIMIT_MS:g} ms, "
         f"of {extra['requests']} attempted"),
        ("req_failed_frac", extra["req_failed_frac"], "fraction",
         f"{extra['truncated']} KV-truncated (lost "
         f"{extra['tokens_lost_truncation']} of {extra['tokens_requested']}"
         f" tokens), {extra['never_terminal']} never terminal, "
         f"{extra['other_failed']} other"),
    ]
    return rows


def checks_of(reps: List[Dict[str, Any]]) -> Dict[str, bool]:
    """Every repetition's output checks, plus cross-repetition identity."""
    checks: Dict[str, bool] = {}
    for rep in reps:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    checks["digest_identical_across_reps"] = \
        len({rep["digest"] for rep in reps}) == 1
    # Traced repetitions add host-cache figures; compare the shared keys.
    keys = reps[0]["extra"].keys()
    simulated = [{k: rep["extra"][k] for k in keys} for rep in reps]
    checks["sim_metrics_identical_across_reps"] = all(
        s == simulated[0] for s in simulated)
    return checks


def bench(workload: str, seed: int, seconds: float, trace: bool
          ) -> Dict[str, Any]:
    """Run one workload; prints its report and returns the JSON result."""
    start = perf_counter()
    job: Dict[str, Any] = {"workload": workload,
                           "inputs": make_inputs(workload, seed),
                           "trace": False}
    if not trace:
        reps = run_until(job, start, seconds, MIN_REPS)
        traced: List[Dict[str, Any]] = []
    else:
        reps = run_until(job, start, seconds / 2, 2)
        job.update(trace=True,
                   baseline_run_s=median([at_reference_speed(r, "run_s")
                                          for r in reps]),
                   spans_path=os.path.join(OUT_DIR,
                                           f"spans-{workload}.json"))
        traced = run_until(job, start, seconds, 1)
    checks = checks_of(reps + traced)
    correct = all(checks.values())
    print(f"== {workload}  seed={seed}  repetitions={len(reps)} untraced"
          f" + {len(traced)} traced  (host: median over repetitions)")
    if trace:
        layers = median_metrics([r["layers"] for r in traced])
        for name, unit, _ in PER_LAYER:
            print(f"  {name:32s} {layers[name]:>16.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        rows = host_and_sim_rows(workload, reps)
        for name, value, unit, note in rows:
            print(f"  {name:20s} {value:>16.6g} {unit:9s} {note}")
        values = {name: value for name, value, _, _ in rows}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, ok in sorted(checks.items()):
        print(f"  check {name:36s} {'ok' if ok else 'FAILED'}")
    failed = sum(1 for rep in reps + traced
                 if not all(rep["checks"].values()))
    return {"correct": correct, "attempted": len(reps) + len(traced),
            "failed": failed, "metrics": metrics}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
