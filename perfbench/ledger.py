"""Request outcomes measured from outside the simulator.

The failure ledger decides, per generated request, whether it completed
in full.  It reads only public results: the terminal status per request,
each node's iteration records and each node's latency-tracker entries.

A request that stays admitted runs in every iteration of its node from
its first token to its last, generating one token each, so the tokens it
received on a node are the node's iterations that end inside
``[first_token_time, completion_time]``.  Summed over nodes (a failed-over
request runs on two), that count is what the request was delivered.

This is how the ledger catches the scheduler's silent KV truncation: when
KV runs out mid-decode, ``IterationScheduler.run_iteration`` sets
``generated = output_len`` and reports the request ``completed`` although
it stopped early.  Its delivered count is then below ``output_len``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Fixed SLO limits in simulated milliseconds (1 GHz clock).  An unloaded
#: gpt3-7b node runs a decode iteration in ~4 ms, so a TPOT limit of
#: 5 ms only admits the slow-down of a nearly full batch, and a TTFT limit
#: of 25 ms allows about five iterations of queueing before a request
#: misses.  Both sit above the unloaded figures, so goodput measures what
#: load and failures cost, not the model's base speed.
TTFT_LIMIT_MS = 25.0
TPOT_LIMIT_MS = 5.0

#: Percentiles the tail rule may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    # Rounding first keeps float error from bumping an exact rank up one.
    rank = max(1, math.ceil(round(p * len(ordered), 6) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values: Iterable[float], beyond: int = 10
                    ) -> Tuple[Optional[float], Optional[float], int]:
    """``(p, value, n)``: the highest percentile with ``beyond`` samples past it.

    The percentile is taken from :data:`TAIL_CANDIDATES`; ``p`` and
    ``value`` are ``None`` when even the median lacks the samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_CANDIDATES:
        if round(n * (100.0 - p) / 100.0, 6) >= beyond:
            return p, nearest_rank(ordered, p), n
    return None, None, n


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class NodeTrace:
    """One node's public run state: iteration end times and tracker rows.

    ``entries`` holds ``(request_id, first_token_time, completion_time)``
    from the node's ``LatencyTracker.report().requests``.
    """

    iteration_ends: Tuple[float, ...]
    entries: Tuple[Tuple[int, float, float], ...]


@dataclass
class RequestOutcome:
    """What one generated request actually received."""

    request_id: int
    output_len: int
    arrival: float
    status: Optional[str] = None
    delivered: int = 0
    first_token: Optional[float] = None
    completion: Optional[float] = None

    @property
    def failure(self) -> Optional[str]:
        """Why the request failed, or ``None`` when it completed in full."""
        if self.status is None:
            return "never_terminal"
        if self.status != "completed":
            return self.status
        if self.delivered < self.output_len:
            return "truncated"
        return None


def build_ledger(trace: Sequence[Tuple[int, int, float]],
                 statuses: Dict[int, str],
                 nodes: Sequence[NodeTrace]) -> List[RequestOutcome]:
    """One outcome per generated request (request ids follow trace order)."""
    outcomes = [RequestOutcome(request_id=rid, output_len=out,
                               arrival=arrival, status=statuses.get(rid))
                for rid, (_, out, arrival) in enumerate(trace)]
    for node in nodes:
        ends = node.iteration_ends
        for rid, first, last in node.entries:
            outcome = outcomes[rid]
            outcome.delivered += (bisect_right(ends, last)
                                  - bisect_left(ends, first))
            if outcome.first_token is None or first < outcome.first_token:
                outcome.first_token = first
            if outcome.completion is None or last > outcome.completion:
                outcome.completion = last
    return outcomes


def serving_summary(outcomes: Sequence[RequestOutcome],
                    clock_hz: float = 1e9) -> Dict[str, float]:
    """Failure and latency figures over a ledger.

    TTFT counts from the arrival the benchmark generated (a failed-over
    request keeps its original arrival); TPOT is the mean gap after the
    first token.  Both are taken over requests that completed in full;
    TPOT also needs at least two tokens.
    """
    to_ms = 1e3 / clock_hz
    attempted = len(outcomes)
    failures: Dict[str, int] = {}
    ttft: List[float] = []
    tpot: List[float] = []
    good = 0
    for outcome in outcomes:
        reason = outcome.failure
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
            continue
        first_ms = (outcome.first_token - outcome.arrival) * to_ms
        ttft.append(first_ms)
        gap_ms = None
        if outcome.output_len > 1:
            gap_ms = ((outcome.completion - outcome.first_token) * to_ms
                      / (outcome.output_len - 1))
            tpot.append(gap_ms)
        if first_ms <= TTFT_LIMIT_MS and \
                (gap_ms is None or gap_ms <= TPOT_LIMIT_MS):
            good += 1
    requested = sum(o.output_len for o in outcomes)
    lost = sum(o.output_len - o.delivered for o in outcomes
               if o.failure == "truncated")
    failed = sum(failures.values())
    summary: Dict[str, float] = {
        "requests": attempted,
        "completed_full": attempted - failed,
        "truncated": failures.get("truncated", 0),
        "never_terminal": failures.get("never_terminal", 0),
        "other_failed": failed - failures.get("truncated", 0)
        - failures.get("never_terminal", 0),
        "req_failed_frac": failed / attempted if attempted else 0.0,
        "tokens_requested": requested,
        "tokens_delivered": sum(o.delivered for o in outcomes),
        "tokens_lost_truncation": lost,
        "slo_goodput": good / attempted if attempted else 0.0,
    }
    for name, sample in (("ttft", ttft), ("tpot", tpot)):
        summary[f"{name}_n"] = len(sample)
        summary[f"{name}_p50_ms"] = median(sample) if sample else 0.0
        p, value, _ = tail_percentile(sample)
        summary[f"{name}_tail_p"] = p if p is not None else 0.0
        summary[f"{name}_tail_ms"] = value if value is not None else 0.0
    return summary
