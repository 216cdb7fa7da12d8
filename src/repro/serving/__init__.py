"""Open-loop serving simulator: arrivals, continuous batching, SLO metrics.

Layered on the event core (:mod:`repro.simulator`): a seeded arrival
process emits prefill→decode requests that join and leave a running
merged schedule through a FIFO continuous-batching window, and the
scheduled timeline reduces to the numbers a serving stack quotes —
TTFT, time between tokens, p50/p99 latency, goodput at a deadline.
"""

from .arrivals import Arrival, check_sorted, format_trace, parse_trace, poisson_arrivals
from .metrics import (
    RequestMetrics,
    ServingResult,
    percentile,
    serving_csv,
)
from .simulator import (
    CLOCK_RESOURCE,
    RequestPlan,
    ServingSpec,
    build_serving_tasks,
    serving_sim,
    simulate_serving,
)

__all__ = [
    "CLOCK_RESOURCE",
    "Arrival",
    "RequestMetrics",
    "RequestPlan",
    "ServingResult",
    "ServingSpec",
    "build_serving_tasks",
    "check_sorted",
    "format_trace",
    "parse_trace",
    "percentile",
    "poisson_arrivals",
    "serving_csv",
    "serving_sim",
    "simulate_serving",
]
