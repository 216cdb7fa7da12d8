"""Open-loop serving simulator: arrivals, continuous batching, SLO metrics.

Layered on the event core (:mod:`repro.simulator`): a seeded arrival
process emits prefill→decode requests that join and leave a running
merged schedule through a FIFO continuous-batching window, and the
scheduled timeline reduces to the numbers a serving stack quotes —
TTFT, time between tokens, p50/p99 latency, goodput at a deadline.

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "arrivals": ("Arrival", "check_sorted", "format_trace", "parse_trace", "poisson_arrivals"),
        "metrics": ("RequestMetrics", "ServingResult", "percentile", "serving_csv"),
        "simulator": (
            "CLOCK_RESOURCE",
            "RequestPlan",
            "ServingSpec",
            "build_serving_tasks",
            "serving_sim",
            "simulate_serving",
        ),
    },
)
