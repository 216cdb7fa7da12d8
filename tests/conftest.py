"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.simulator import build_scenario_tasks, build_tasks, run_event_driven

#: Differential-fuzz seed ranges, one disjoint block per generator
#: family.  Every randomized engine-parity test draws its seeds here so
#: a new family cannot silently re-run (or shadow) another family's
#: draws — extend by appending a fresh block past the current maximum.
FUZZ_SEED_RANGES = {
    "graph-interleaved": range(0, 60),
    "graph-serial": range(60, 100),
    "graph-wide": range(100, 120),
    "scenario-merged": range(120, 150),
    "scenario-bandwidth": range(150, 174),
    "cluster": range(174, 198),
    "buffer-qos": range(198, 234),
    "fold-sources": range(234, 265),
    "chain-fold": range(265, 295),
    "serving": range(295, 325),
    "split-fold": range(325, 355),
    "chain-prefix": range(355, 367),
    "graph-urgent": range(367, 397),
    "fold-multiclass": range(397, 427),
}


def fuzz_seeds(family: str) -> range:
    """The registered seed block of one fuzz family."""
    return FUZZ_SEED_RANGES[family]


def _assert_disjoint(ranges) -> None:
    names = sorted(ranges)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            overlap = set(ranges[a]) & set(ranges[b])
            assert not overlap, (
                f"fuzz seed ranges {a!r} and {b!r} overlap on "
                f"{sorted(overlap)[:5]}"
            )


_assert_disjoint(FUZZ_SEED_RANGES)


def event_schedule(tasks, serial=False, slots=2):
    """The closed-form event core on a built task list, under the
    pipeline's total-duration cycle budget: the large-graph reference
    the folded schedules are checked against."""
    budget = sum(t.duration for t in tasks) + 1
    return run_event_driven(tasks, 1 if serial else slots, budget)


def event_scenario(scenario):
    """(tasks, result): ``scenario``'s merged graph on the event core."""
    tasks = build_scenario_tasks(scenario)
    return tasks, event_schedule(tasks, scenario.binding == "tile-serial", scenario.slots)


def event_binding(config, binding):
    """(tasks, result): one binding's built graph on the event core."""
    serial = binding == "tile-serial"
    tasks = build_tasks(config, serial=serial)
    return tasks, event_schedule(tasks, serial)


def flat_graph_fields(graph):
    """A compiled graph's frontier, comparable across layouts: each
    task's dependents as a set of absolute ids, and the ready and
    urgent ids as sets, since no core consults the order within them."""
    return dict(
        durations=graph.durations,
        resource=graph.resource,
        resources=graph.resources,
        dependents=[{task + step for step in steps} for task, steps in enumerate(graph.dependents)],
        outstanding=graph.outstanding,
        ready=set(graph.ready),
        urgent=set(graph.urgent),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def attention_inputs(rng):
    """Small attention instance: Q[e,p], K[e,m], V[f,m] with M=16, M0=4."""
    e, f, m, p = 4, 5, 16, 3
    return {
        "Q": rng.normal(size=(e, p)),
        "K": rng.normal(size=(e, m)),
        "V": rng.normal(size=(f, m)),
    }


@pytest.fixture
def attention_shapes():
    return {"E": 4, "F": 5, "M": 16, "P": 3, "M0": 4, "M1": 4}
