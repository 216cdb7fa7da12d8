"""Tests for the cycle-granular binding simulator (Fig. 4/5)."""

import pytest

from repro.simulator import (
    PipelineConfig,
    Simulator,
    Task,
    bqk_tile_timing,
    build_tasks,
    compare_bindings,
    exp_tile_timing,
    simulate_binding,
)
from repro.simulator.vector import fold_chain, fold_templates


class TestEngine:
    def test_single_task(self):
        result = Simulator([Task("a", "r", 5)]).run()
        assert result.makespan == 5
        assert result.busy_cycles["r"] == 5
        assert result.utilization("r") == 1.0

    def test_chain_serializes(self):
        tasks = [Task("a", "r", 3), Task("b", "r", 4, deps=("a",))]
        result = Simulator(tasks, mode="serial").run()
        assert result.makespan == 7
        assert result.finish_times["a"] == 3
        assert result.finish_times["b"] == 7

    def test_independent_resources_overlap(self):
        tasks = [Task("a", "r1", 10), Task("b", "r2", 10)]
        result = Simulator(tasks).run()
        assert result.makespan == 10
        assert result.utilization("r1") == 1.0
        assert result.utilization("r2") == 1.0

    def test_dependency_across_resources(self):
        tasks = [Task("a", "r1", 5), Task("b", "r2", 5, deps=("a",))]
        result = Simulator(tasks).run()
        assert result.makespan == 10
        assert result.utilization("r2") == 0.5

    def test_interleaving_shares_issue_slots(self):
        """Two ready tasks interleave: both finish at ~sum of durations."""
        tasks = [Task("a", "r", 4), Task("b", "r", 4)]
        result = Simulator(tasks, mode="interleaved", slots=2).run()
        assert result.makespan == 8
        assert result.utilization("r") == 1.0

    def test_serial_runs_one_at_a_time(self):
        tasks = [Task("a", "r", 4), Task("b", "r", 4)]
        result = Simulator(tasks, mode="serial").run()
        assert result.finish_times["a"] == 4  # a completes before b starts

    def test_zero_duration_tasks_complete_immediately(self):
        tasks = [Task("a", "r", 0), Task("b", "r", 2, deps=("a",))]
        assert Simulator(tasks).run().makespan == 2

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown dep"):
            Simulator([Task("a", "r", 1, deps=("ghost",))])

    @pytest.mark.parametrize(
        "lower",
        (
            Simulator,
            lambda tasks: fold_templates([(tasks, 2)]),
            lambda tasks: fold_chain(tasks, 2),
        ),
        ids=("Simulator", "fold_templates", "fold_chain"),
    )
    def test_duplicate_names_rejected(self, lower):
        with pytest.raises(ValueError, match="duplicate task names"):
            lower([Task("a", "r", 1), Task("a", "r", 1)])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Task("a", "r", -1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Simulator([Task("a", "r", 1)], mode="quantum")

    def test_deadlock_detection(self):
        # a mutual dependency can never finish
        tasks = [Task("a", "r", 1, deps=("b",)), Task("b", "r", 1, deps=("a",))]
        with pytest.raises(RuntimeError, match="max_cycles"):
            Simulator(tasks).run(max_cycles=100)


class TestSystolicTiming:
    def test_paper_fill_drain_arithmetic(self):
        """Sec. V: E = 64 MACCs per PE but ~256+256 cycles of fill/drain."""
        timing = bqk_tile_timing(array_dim=256, embedding=64)
        assert timing.compute == 64
        assert timing.fill + timing.drain == 512
        assert timing.serial_utilization == pytest.approx(64 / 576)

    def test_pipelined_interval_is_compute(self):
        timing = bqk_tile_timing(256, 64)
        assert timing.pipelined_interval == 64

    def test_exp_tile_needs_no_fill(self):
        timing = exp_tile_timing(256)
        assert timing.fill == 0
        assert timing.compute == 6


class TestPipelineSimulation:
    def test_interleaved_near_full_utilization(self):
        """The headline binding claim: ~100% on both arrays."""
        report = simulate_binding(PipelineConfig(chunks=32), "interleaved")
        assert report.util_2d > 0.85
        assert report.util_1d > 0.85

    def test_tile_serial_stalls(self):
        report = simulate_binding(PipelineConfig(chunks=32), "tile-serial")
        assert report.util_2d < 0.35
        assert report.util_1d < 0.35

    def test_interleaving_is_much_faster(self):
        reports = compare_bindings(PipelineConfig(chunks=32))
        assert (
            reports["tile-serial"].makespan
            > 3 * reports["interleaved"].makespan
        )

    def test_unknown_binding_rejected(self):
        with pytest.raises(ValueError):
            simulate_binding(PipelineConfig(chunks=4), "magic")

    def test_task_graph_size(self):
        tasks = build_tasks(PipelineConfig(chunks=4), serial=False)
        # 9 tasks per chunk in the interleaved graph
        assert len(tasks) == 4 * 9

    def test_serial_graph_adds_fill_drain(self):
        serial = build_tasks(PipelineConfig(chunks=4), serial=True)
        interleaved = build_tasks(PipelineConfig(chunks=4), serial=False)
        assert len(serial) == len(interleaved) + 2 * 4

    def test_utilization_stable_with_more_chunks(self):
        """Steady state: utilization does not degrade as the kernel grows."""
        short = simulate_binding(PipelineConfig(chunks=8), "interleaved")
        long = simulate_binding(PipelineConfig(chunks=48), "interleaved")
        assert long.util_2d >= short.util_2d - 0.02
