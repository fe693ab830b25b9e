"""MHA latency estimation — Algorithm 1 of the paper.

The scheduler needs the PIM execution time of a request's multi-head
attention *without* running the command-level simulation.  Algorithm 1
derives it from the KV-cache memory layout (§6.3): the logit GEMV
(K^T x q) reads ``seq_len`` key rows interleaved across the channel's
banks, ``E / P_DRAM`` pages each; the attend GEMV (logits x V) reads each
head's values with the head embedding interleaved across banks.  Both
contribute GWRITE commands to stage their operand vectors plus ``L_tile``
per dot-product wave.

``L_tile`` and ``L_GWRITE`` are hardware constants; this module takes them
from a :class:`~repro.pim.engine.CalibratedLatencies`, which can either be
measured from the command-level simulation (:func:`repro.pim.engine.calibrate`)
or derived analytically (:func:`analytic_latencies`) — the test suite
checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, Iterable, Optional, Tuple

from repro.dram.timing import HbmOrganization, PimTiming, TimingParams
from repro.model.spec import ModelSpec
from repro.pim.engine import CalibratedLatencies
from repro.pim.gemv import GemvOp, mha_gemv_ops


def analytic_latencies(timing: Optional[TimingParams] = None,
                       org: Optional[HbmOrganization] = None,
                       pim_timing: Optional[PimTiming] = None
                       ) -> CalibratedLatencies:
    """Closed-form L_tile / L_GWRITE matching the channel's wave pitch.

    Successive GEMV waves pipeline at the maximum of the page MAC time and
    half the row cycle (activation of the next wave overlaps the MAC of
    the current one); GWRITE cost comes straight from the PIM timing.
    """
    timing = timing or TimingParams()
    org = org or HbmOrganization()
    pim_timing = pim_timing or PimTiming()
    mac = pim_timing.dotprod_cycles_per_page(org.page_bytes)
    l_tile = float(max(mac, timing.row_cycle // 2))
    return CalibratedLatencies(l_tile=l_tile,
                               l_gwrite=float(pim_timing.gwrite_cycles))


@dataclass(frozen=True)
class MhaLatencyEstimator:
    """Algorithm 1, parameterized by model, layout and calibration.

    Parameters
    ----------
    spec:
        Model (shard) whose MHA is being estimated.
    org:
        HBM organization (``B_chnl`` banks per channel, ``P_DRAM`` page).
    latencies:
        Calibrated ``L_tile`` / ``L_GWRITE``.

    :meth:`estimate` is a pure function of ``seq_len`` under these
    inputs, and the serving loop asks for the same lengths every
    iteration, so each instance memoizes it.  The memo takes no part in
    equality, hashing or ``repr``.
    """

    spec: ModelSpec
    org: HbmOrganization
    latencies: CalibratedLatencies
    _memo: Dict[int, float] = field(default_factory=dict, init=False,
                                    compare=False, hash=False, repr=False)

    @property
    def _p_dram(self) -> int:
        """P_DRAM: elements per DRAM page."""
        return self.org.elements_per_page(self.spec.dtype_bytes)

    @property
    def _b_chnl(self) -> int:
        """B_chnl: PIM banks per channel."""
        return self.org.banks_per_channel

    def logit_latency(self, seq_len: int) -> float:
        """GEMV latency for ``K^T x Query`` (Algorithm 1, lines 2-4).

        Algorithm 1 uses true (fractional) quotients — partially filled
        pages of different requests/heads pack together in the KV layout —
        with at least one full tile per GEMV.
        """
        if seq_len <= 0:
            raise ValueError("seq_len must be positive")
        embed_pages = self.spec.d_model / self._p_dram
        n_tiles = max(1.0, (seq_len / self._b_chnl) * embed_pages)
        latency = self.latencies.l_gwrite * ceil(embed_pages)
        latency += self.latencies.l_tile * n_tiles
        return latency

    def attend_latency(self, seq_len: int) -> float:
        """GEMV latency for ``Logits x Value`` (Algorithm 1, lines 5-7)."""
        if seq_len <= 0:
            raise ValueError("seq_len must be positive")
        head_rounds = self.spec.head_dim / self._b_chnl
        logit_pages = seq_len / self._p_dram
        n_tiles = max(1.0, head_rounds * logit_pages * self.spec.num_heads)
        latency = self.latencies.l_gwrite * max(
            1.0, logit_pages * self.spec.num_heads)
        latency += self.latencies.l_tile * n_tiles
        return latency

    def mha_gemv_ops(self, seq_len: int) -> Tuple[GemvOp, GemvOp]:
        """The logit/attend GEMV geometry this estimator prices.

        Counters hook: the refutation harness and the analytic counter
        model derive wave counts, row activations and C/A-bus cost from
        these ops — the same shapes the cycle tier lowers to command
        streams (:func:`repro.pim.gemv.mha_gemv_ops` is the single
        source) — so cross-tier counter diffs compare like with like.
        """
        return mha_gemv_ops(self.spec.num_heads, self.spec.head_dim, seq_len)

    def estimate(self, seq_len: int) -> float:
        """Total estimated MHA latency for one request (Algorithm 1)."""
        value = self._memo.get(seq_len)
        if value is None:
            value = self._memo[seq_len] = (self.logit_latency(seq_len)
                                           + self.attend_latency(seq_len))
        return value

    def estimate_batch(self, seq_lens: Iterable[int]) -> float:
        """Sum of estimates — the per-channel load metric of Algorithm 2.

        Accumulates per seq_len equivalence class in ascending order (the
        serving stack's canonical grouped arithmetic), so the result
        matches the class-histogram load computations bit for bit.
        """
        counts: dict = {}
        for seq_len in seq_lens:
            counts[seq_len] = counts.get(seq_len, 0) + 1
        total = 0.0
        for seq_len in sorted(counts):
            total += self.estimate(seq_len) * counts[seq_len]
        return total
