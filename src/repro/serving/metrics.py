"""Per-request SLO metrics and aggregate serving results.

The serving simulator reduces a scheduled request population to the
numbers a serving stack quotes against its SLOs:

- **TTFT** (time to first token): prefill-complete time minus arrival.
- **TBT** (time between tokens): mean decode-token gap of one request.
- **latency**: last-token-complete time minus arrival.
- **queue delay**: admission time minus arrival (continuous batching's
  FIFO window is the only queueing in the model).
- **goodput**: the fraction of requests whose latency meets the
  deadline (None when no deadline is set) — a fraction, not a rate, so
  it is monotone non-increasing in offered load for a FIFO window.
- **throughput**: completed requests per kilocycle of makespan.

Percentiles use the nearest-rank method (the smallest sample at or
above the requested rank), so p50/p99 are actual observed cycle counts
and every aggregate is hand-checkable from a mini-trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import ClassVar, Optional, Sequence, Tuple

from ..rows import Group, emit_rows

__all__ = [
    "RequestMetrics",
    "ServingResult",
    "percentile",
    "serving_csv",
]


def percentile(values: Sequence[int], q: float) -> Optional[int]:
    """Nearest-rank percentile: the smallest sample covering ``q``% of
    ``values``; None for an empty sample."""
    if not values:
        return None
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class RequestMetrics:
    """One request's measured timeline, all times in absolute cycles."""

    index: int
    arrival: int
    chunks: int
    decode_tokens: int
    admitted: int
    first_token: int
    finish: int

    @property
    def queue_delay(self) -> int:
        """Cycles spent waiting for an admission slot (0 when the
        continuous-batching window had room on arrival)."""
        return self.admitted - self.arrival

    @property
    def ttft(self) -> int:
        """Time to first token: prefill completion relative to arrival."""
        return self.first_token - self.arrival

    @property
    def latency(self) -> int:
        """End-to-end latency: last token (or prefill, for a
        prefill-only request) relative to arrival."""
        return self.finish - self.arrival

    @property
    def tbt(self) -> Optional[float]:
        """Mean time between decode tokens; None for prefill-only."""
        if not self.decode_tokens:
            return None
        return (self.finish - self.first_token) / self.decode_tokens

    def met(self, deadline: Optional[int]) -> bool:
        """Whether this request's latency meets ``deadline``."""
        return deadline is None or self.latency <= deadline


@dataclass(frozen=True)
class ServingResult:
    """Measured outcome of one open-loop serving simulation.

    Carries the full per-request timeline (``requests``) plus the
    schedule-level busy counts; every aggregate column is derived, so
    cached results and fresh runs can never disagree about a percentile.
    The buffer/QoS columns join when a row models buffer capacity or
    non-uniform DRAM QoS: the decode-TBT percentiles are what a prefill
    burst moves, so they only surface with those knobs.
    """

    COLUMNS: ClassVar[Tuple[Group, ...]] = (
        Group(
            (
                "workload",
                "binding",
                "requests",
                "rate",
                "max_inflight",
                "deadline",
                "array_dim",
                "pe_1d",
                "embedding",
                "slots",
                "dram_bw",
                "n_tasks",
                "makespan",
                "util_2d",
                "util_1d",
                "util_dram",
                "ttft_p50",
                "ttft_p99",
                "tbt_mean",
                "latency_p50",
                "latency_p99",
                "throughput",
                "goodput",
            ),
            aliases={"workload": "name", "requests": "n_requests"},
        ),
        Group(
            ("buffer_bytes", "qos", "spill_bytes", "tbt_p50", "tbt_p99"),
            when=lambda r: r.buffer_bytes is not None or r.qos != "uniform",
        ),
    )

    name: str
    binding: str
    rate: Optional[float]
    max_inflight: int
    deadline: Optional[int]
    array_dim: int
    pe_1d: int
    embedding: int
    slots: int
    dram_bw: Optional[float]
    n_tasks: int
    makespan: int
    busy_2d: int
    busy_1d: int
    busy_io: int
    busy_dram: int
    requests: Tuple[RequestMetrics, ...]
    buffer_bytes: Optional[float] = None
    qos: str = "uniform"
    spill_bytes: int = 0

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def utilization(self, resource: str) -> float:
        busy = {
            "2d": self.busy_2d,
            "1d": self.busy_1d,
            "io": self.busy_io,
            "dram": self.busy_dram,
        }
        return busy[resource] / self.makespan if self.makespan else 0.0

    @property
    def util_2d(self) -> float:
        return self.utilization("2d")

    @property
    def util_1d(self) -> float:
        return self.utilization("1d")

    @property
    def util_dram(self) -> Optional[float]:
        return None if self.dram_bw is None else self.utilization("dram")

    @property
    def ttft_p50(self) -> Optional[int]:
        return percentile([r.ttft for r in self.requests], 50)

    @property
    def ttft_p99(self) -> Optional[int]:
        return percentile([r.ttft for r in self.requests], 99)

    @property
    def latency_p50(self) -> Optional[int]:
        return percentile([r.latency for r in self.requests], 50)

    @property
    def latency_p99(self) -> Optional[int]:
        return percentile([r.latency for r in self.requests], 99)

    @property
    def tbt_mean(self) -> Optional[float]:
        """Mean time between decode tokens over the decoding requests;
        None when the whole population is prefill-only."""
        gaps = [r.tbt for r in self.requests if r.tbt is not None]
        return sum(gaps) / len(gaps) if gaps else None

    @property
    def tbt_p50(self) -> Optional[float]:
        """Median per-request decode-token gap — with ``decode-first``
        QoS this is the headline number a prefill burst cannot move."""
        return percentile([r.tbt for r in self.requests if r.tbt is not None], 50)

    @property
    def tbt_p99(self) -> Optional[float]:
        """Tail per-request decode-token gap under the offered load."""
        return percentile([r.tbt for r in self.requests if r.tbt is not None], 99)

    @property
    def throughput(self) -> float:
        """Completed requests per kilocycle of makespan."""
        return self.n_requests * 1000 / self.makespan if self.makespan else 0.0

    @property
    def goodput(self) -> Optional[float]:
        """Fraction of requests meeting the deadline (None without one)."""
        if self.deadline is None:
            return None
        if not self.requests:
            return 0.0
        met = sum(1 for r in self.requests if r.met(self.deadline))
        return met / self.n_requests


def serving_csv(results: Sequence[ServingResult]) -> str:
    """Serving results as CSV, one latency-vs-load row per load point."""
    return emit_rows(results, "csv")
