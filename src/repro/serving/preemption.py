"""KV-cache preemption cost model for the resilience retry path.

When the :class:`~repro.serving.scheduler.IterationScheduler` retries a
request (a deadline timeout, or a KV allocation failure mid-generation
with retries left), it releases the victim's KV blocks through
:class:`PreemptingAllocatorPool` instead of dropping the request.  Real
serving systems (vLLM) restore such a request either by reloading a
swapped copy from host memory or by recomputing its prefill; the pool
records the cycle cost of the chosen policy, and the iteration that
re-admits the request is charged that cost.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.serving.paging import PagedKvAllocator
from repro.serving.request import InferenceRequest, RequestStatus


class RestorePolicy(Enum):
    """How a preempted request's KV cache comes back."""

    SWAP = "swap"            # copy to host memory, copy back later
    RECOMPUTE = "recompute"  # drop it, re-run the prefill on return


@dataclass(frozen=True)
class PreemptionCosts:
    """Cycle costs of eviction and restoration.

    ``swap_bandwidth`` is the host-link bytes/second for swap traffic;
    ``recompute_cycles_per_token`` approximates prefill recompute speed.
    """

    swap_bandwidth: float = 50e9
    recompute_cycles_per_token: float = 2000.0

    def __post_init__(self) -> None:
        if self.swap_bandwidth <= 0:
            raise ValueError("swap_bandwidth must be positive")
        if self.recompute_cycles_per_token <= 0:
            raise ValueError("recompute_cycles_per_token must be positive")

    def swap_cycles(self, kv_bytes: float) -> float:
        """One-way swap transfer time in cycles (1 GHz)."""
        return kv_bytes / self.swap_bandwidth * 1e9


@dataclass
class PreemptionEvent:
    """Record of one preemption (for reporting/tests)."""

    request_id: int
    at_tokens: int
    policy: RestorePolicy
    evicted_blocks: int
    restore_cost_cycles: float


class PreemptingAllocatorPool:
    """Per-channel allocators plus the restore costs of evicted requests.

    :meth:`preempt` releases a victim's KV blocks and records what it
    costs to bring it back; :meth:`restore_cost` hands that cost to the
    re-admitting iteration exactly once.  The scheduler picks the victim.
    """

    def __init__(self, allocators: Sequence[PagedKvAllocator],
                 spec_kv_bytes_per_token: int,
                 policy: RestorePolicy = RestorePolicy.RECOMPUTE,
                 costs: Optional[PreemptionCosts] = None) -> None:
        if spec_kv_bytes_per_token <= 0:
            raise ValueError("spec_kv_bytes_per_token must be positive")
        self.allocators = list(allocators)
        self.kv_bytes_per_token = spec_kv_bytes_per_token
        self.policy = policy
        self.costs = costs or PreemptionCosts()
        self.events: List[PreemptionEvent] = []
        #: requests currently swapped out / pending recompute, with the
        #: cycle cost to bring each back
        self.preempted: Dict[int, float] = {}

    def preempt(self, victim: InferenceRequest) -> PreemptionEvent:
        """Evict one running request's KV cache."""
        channel = victim.channel if victim.channel is not None else 0
        blocks = self.allocators[channel].release(victim.request_id)
        kv_bytes = victim.seq_len * self.kv_bytes_per_token
        if self.policy is RestorePolicy.SWAP:
            # Pay the swap-out now; the swap-in cost is owed on return.
            restore = self.costs.swap_cycles(kv_bytes)
        else:
            restore = victim.seq_len * self.costs.recompute_cycles_per_token
        victim.status = RequestStatus.WAITING
        event = PreemptionEvent(
            request_id=victim.request_id,
            at_tokens=victim.generated,
            policy=self.policy,
            evicted_blocks=blocks,
            restore_cost_cycles=restore,
        )
        self.events.append(event)
        self.preempted[victim.request_id] = restore
        return event

    def restore_cost(self, request_id: int) -> float:
        """Cycles owed to restore a preempted request (0 if not preempted)."""
        return self.preempted.pop(request_id, 0.0)

    @property
    def preemption_count(self) -> int:
        return len(self.events)
