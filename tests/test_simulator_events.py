"""Differential tests: event-driven scheduler vs the cycle-accurate oracle.

The event engine's contract is *bit-identical* ``SimResult`` values on
every task graph — same makespan, same per-resource busy cycles, same
per-task finish times.  These tests check it on randomized task graphs
(property style), on hand-built edge cases, on the Fig. 4/5 pipeline
graphs, and through the binding-sweep runtime path.
"""

import json
import random
import re
from dataclasses import replace

import pytest
from conftest import event_binding, event_scenario, flat_graph_fields, fuzz_seeds

from repro.cluster import (
    ClusterPoint,
    ClusterSpec,
    build_cluster_tasks,
    cluster_link_cycles,
    evaluate_cluster_point,
    schedule_cluster_tasks,
)
from repro.api import BindingSweepRequest, Session
from repro.model.scenario import analytical_scenario
from repro.rows import emit_rows
from repro.runtime import (
    ResultCache,
    RunRegistry,
    decode_result,
    encode_result,
    scenario_grid,
)
from repro.simulator import (
    BindingPoint,
    BindingResult,
    PipelineConfig,
    ScenarioResult,
    Simulator,
    Task,
    build_decode_tasks,
    build_scenario_tasks,
    build_tasks,
    chunk_work,
    compare_bindings,
    evaluate_binding_point,
    evaluate_scenario_point,
    scenario_csv,
    schedule_binding,
    schedule_scenario_tasks,
    simulate_binding,
    sweep_csv,
)
from repro.workloads import BERT
from repro.workloads.scenario import (
    Phase,
    Scenario,
    attention_scenario,
    mixed_model_scenario,
    scenario_from_model,
)


def binding_sweep(jobs=1, cache=False, registry=None, **grid):
    """A binding sweep's keyed payload, run as a request."""
    session = Session(jobs=jobs, cache=cache, registry=registry)
    return session.run(BindingSweepRequest(**grid)).payload


def scenario_sweep(scenarios, jobs=1, cache=False, registry=None):
    """Each scenario's simulated result, keyed by the scenario, from one
    session pass."""
    session = Session(jobs=jobs, cache=cache, registry=registry)
    results = session.evaluate("scenario", scenario_grid(scenarios)).results
    return dict(zip(scenarios, results))


def random_scenario(rng, dram_bw="maybe") -> Scenario:
    """A random multi-instance scenario for merged-graph fuzzing.

    Covers mixed-model graphs (independent per-phase embedding widths)
    and, with ``dram_bw`` left at ``"maybe"``, draws the bandwidth from
    {None, tight, ample}; pass an explicit value to pin it.
    """
    phases = [
        Phase(
            "prefill", rng.randint(1, 4), rng.randint(1, 5),
            embedding=rng.choice((None, 8, 16)),
        )
    ]
    if rng.random() < 0.5:
        phases.append(
            Phase(
                "decode", rng.randint(1, 3), rng.randint(1, 6),
                embedding=rng.choice((None, 8, 32)),
            )
        )
    array_dim = rng.choice((16, 32, 64))
    if dram_bw == "maybe":
        dram_bw = rng.choice((None, 8.0, 1e9))
    return Scenario(
        name=f"fuzz-{rng.randint(0, 10**6)}",
        phases=tuple(phases),
        binding=rng.choice(("tile-serial", "interleaved")),
        embedding=rng.choice((8, 16, 64)),
        array_dim=array_dim,
        pe_1d=rng.choice((None, array_dim // 2, 2 * array_dim)),
        slots=rng.randint(2, 4),
        dram_bw=dram_bw,
    )


def both(tasks, mode="interleaved", slots=2, max_cycles=10_000_000):
    """Run both engines; assert equality; return the shared result."""
    cycle = Simulator(tasks, mode=mode, slots=slots, engine="cycle").run(
        max_cycles=max_cycles
    )
    result = Simulator(tasks, mode=mode, slots=slots).run(max_cycles=max_cycles)
    assert result == cycle
    assert dict(result.busy_cycles) == dict(cycle.busy_cycles)
    assert dict(result.finish_times) == dict(cycle.finish_times)
    return cycle


def random_graph(rng, max_tasks=40, allow_zero=True):
    """A random dependency DAG (deps point at earlier tasks only)."""
    n = rng.randint(1, max_tasks)
    resources = [f"r{i}" for i in range(rng.randint(1, 3))]
    tasks = []
    for i in range(n):
        duration = rng.randint(0, 6) if allow_zero else rng.randint(1, 6)
        n_deps = rng.randint(0, min(3, i))
        # Duplicates are deliberate: dep lists need not be unique.
        deps = tuple(f"t{rng.randint(0, i - 1)}" for _ in range(n_deps))
        tasks.append(Task(f"t{i}", rng.choice(resources), duration, deps))
    return tasks


class TestDifferentialRandom:
    @pytest.mark.parametrize("seed", fuzz_seeds("graph-interleaved"))
    def test_random_graphs_interleaved(self, seed):
        rng = random.Random(seed)
        tasks = random_graph(rng, allow_zero=seed % 2 == 0)
        both(tasks, mode="interleaved", slots=rng.randint(1, 4))

    @pytest.mark.parametrize("seed", fuzz_seeds("graph-serial"))
    def test_random_graphs_serial(self, seed):
        rng = random.Random(seed)
        tasks = random_graph(rng, allow_zero=seed % 2 == 0)
        both(tasks, mode="serial")

    @pytest.mark.parametrize("seed", fuzz_seeds("graph-wide"))
    def test_wide_graphs_many_slots(self, seed):
        """More ready tasks than slots: the pending frontier is exercised."""
        rng = random.Random(seed)
        tasks = [
            Task(f"t{i}", "r0", rng.randint(1, 9)) for i in range(30)
        ]
        both(tasks, slots=rng.randint(2, 5))

    @pytest.mark.parametrize("seed", fuzz_seeds("graph-urgent"))
    def test_random_priority_graphs(self, seed):
        """A random urgent subset reorders the ready heaps; the two
        integer cores agree on every one."""
        from repro.simulator.engine import FlatGraph, _run_cycles
        from repro.simulator.events import run_flat

        rng = random.Random(seed)
        tasks = random_graph(rng, allow_zero=seed % 2 == 0)
        urgent = rng.sample(range(len(tasks)), rng.randint(0, len(tasks)))
        graph = FlatGraph.from_tasks(tasks, urgent=urgent)
        slots = rng.randint(1, 4)
        budget = sum(t.duration for t in tasks) + 1
        assert run_flat(graph, slots, budget) == _run_cycles(graph, slots, budget)


class TestDifferentialEdgeCases:
    def test_empty_graph(self):
        result = both([])
        assert result.makespan == 0
        assert dict(result.busy_cycles) == {}

    def test_single_zero_duration_task(self):
        result = both([Task("a", "r", 0)])
        assert result.makespan == 0
        assert result.finish_times["a"] == 0

    def test_zero_duration_chain_feeds_dependents(self):
        tasks = [
            Task("a", "r", 0),
            Task("b", "r", 3, deps=("a",)),
            Task("c", "r", 0, deps=("b",)),
            Task("d", "r", 2, deps=("c",)),
        ]
        result = both(tasks)
        assert result.finish_times["a"] == 0
        # Zero-duration tasks complete at t=0 unconditionally (both
        # engines), so d never waits for b.
        assert result.finish_times["c"] == 0

    def test_single_resource_saturates(self):
        tasks = [Task(f"t{i}", "r", 5) for i in range(6)]
        result = both(tasks)
        assert result.makespan == 30
        assert result.utilization("r") == 1.0

    def test_duplicate_deps_tolerated(self):
        tasks = [Task("a", "r", 2), Task("b", "r", 2, deps=("a", "a", "a"))]
        assert both(tasks).makespan == 4

    def test_interleave_rotation_matches(self):
        """Unequal durations: the ceil/floor rotation split must agree."""
        tasks = [Task("a", "r", 7), Task("b", "r", 3), Task("c", "r", 5)]
        for slots in (1, 2, 3, 4):
            both(tasks, slots=slots)

    def test_cross_resource_pipeline(self):
        tasks = [Task("a", "x", 4), Task("b", "y", 4, deps=("a",)),
                 Task("c", "x", 4, deps=("a",)), Task("d", "y", 4, deps=("b", "c"))]
        both(tasks)

    def test_deadlock_raises_in_both_engines(self):
        tasks = [Task("a", "r", 1, deps=("b",)), Task("b", "r", 1, deps=("a",))]
        for engine in ("vector", "cycle"):
            sim = Simulator(tasks, engine=engine)
            with pytest.raises(RuntimeError, match="max_cycles"):
                sim.run(max_cycles=100)

    def test_max_cycles_exceeded_raises_in_both_engines(self):
        tasks = [Task("a", "r", 50)]
        for engine in ("vector", "cycle"):
            sim = Simulator([*tasks], engine=engine)
            with pytest.raises(RuntimeError, match="max_cycles"):
                sim.run(max_cycles=10)

    def test_makespan_exactly_at_max_cycles_succeeds(self):
        for engine in ("vector", "cycle"):
            result = Simulator([Task("a", "r", 10)], engine=engine).run(
                max_cycles=10
            )
            assert result.makespan == 10

    def test_unknown_engine_rejected(self):
        for engine in ("quantum", "event"):
            with pytest.raises(ValueError, match="engine"):
                Simulator([Task("a", "r", 1)], engine=engine)

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            Simulator([Task("a", "r", 1)], slots=0)

    def test_flat_core_rejects_invalid_slots(self):
        """Zero slots is a bad argument, not a deadlock."""
        from repro.simulator.engine import FlatGraph
        from repro.simulator.events import run_flat

        graph = FlatGraph.from_tasks([Task("a", "r", 1)])
        with pytest.raises(ValueError, match=re.escape("slots must be >= 1, got 0")):
            run_flat(graph, 0, 100)

    def test_folded_core_rejects_invalid_slots(self):
        from repro.simulator.vector import fold_chain, run_folded

        folded = fold_chain(_chain(CHAIN, 2), 4)
        with pytest.raises(ValueError, match=re.escape("slots must be >= 1, got 0")):
            run_folded(folded, 0)

    def test_raw_core_rejects_names_that_do_not_resolve(self):
        from repro.simulator.events import run_event_driven

        with pytest.raises(ValueError, match="unknown dep 'ghost'"):
            run_event_driven([Task("a", "r", 1, deps=("ghost",))], 1, 100)
        with pytest.raises(ValueError, match="duplicate task names"):
            run_event_driven([Task("a", "r", 1), Task("a", "r", 2)], 1, 100)

    @pytest.mark.parametrize(
        "aspect, value, match",
        (
            ("deps", {"dependents": ((2,), ())}, "dependent out of range"),
            ("deps", {"dependents": ((-1,), ())}, "dependent out of range"),
            ("durations", {"durations": (1, -1)}, "negative duration"),
            ("durations", {"durations": (1,)}, "differ in length"),
            ("resource", {"resource": (0, 1)}, "resource id out of range"),
            ("resources", {"resources": ("r", "r")}, "sorted and unique"),
            ("priority", {"urgent": (1, 1)}, "urgent id repeated"),
            ("priority", {"urgent": (2,)}, "urgent id out of range"),
            ("counts", {"outstanding": (0,)}, "differ in length"),
            ("ready", {"ready": (2,)}, "ready id out of range"),
            ("ready", {"ready": (0, 0)}, "ready id repeated"),
        ),
    )
    def test_flat_graph_rejects_bad_ids(self, aspect, value, match):
        """The compiled frontier of ``b`` waiting on ``a`` is accepted;
        each bad field in ``value`` is rejected."""
        from repro.simulator.engine import FlatGraph

        fields = dict(
            durations=(1, 2),
            resource=(0, 0),
            resources=("r",),
            dependents=((1,), ()),
            outstanding=(0, 1),
            ready=(0,),
        )
        assert FlatGraph(**fields) == FlatGraph.from_tasks(
            [Task("a", "r", 1), Task("b", "r", 2, deps=("a",))]
        )
        with pytest.raises(ValueError, match=match):
            FlatGraph(**{**fields, **value})

    def test_flat_graph_priority_orders_the_ready_heap(self):
        """Both cores issue a ready urgent task ahead of the others,
        whatever its id: task 1 is urgent."""
        from repro.simulator.engine import FlatGraph, _run_cycles
        from repro.simulator.events import run_flat

        graph = FlatGraph(
            durations=(2, 1),
            resource=(0, 0),
            resources=("r",),
            dependents=((), ()),
            outstanding=(0, 0),
            ready=(0, 1),
            urgent=(1,),
        )
        assert graph == FlatGraph.from_tasks([Task("a", "r", 2), Task("b", "r", 1)], urgent=(1,))
        for core in (run_flat, _run_cycles):
            assert core(graph, 1, 10) == (3, [3], [3, 1])


def _stamped(templates, placements):
    """``FlatGraph.stamp`` of a two-task head (``h0`` lasts 0 cycles,
    so it is done at t=0; ``h1`` lasts 3), then the placements of
    ``templates``, numbered from 1."""
    from repro.simulator.engine import FlatGraph

    head = FlatGraph.from_tasks([Task("h0", "clock", 0), Task("h1", "clock", 3, ("h0",))])
    placements = [(0, ())] + [(template + 1, gate) for template, gate in placements]
    return FlatGraph.stamp([(head, ())] + templates, placements)


class TestStampedFlatGraph:
    """``FlatGraph.stamp`` equals compiling the merged task list, and
    rejects ids that would leave a placement."""

    TEMPLATE = [
        Task("x", "a", 2),
        Task("y", "b", 1),
        Task("z", "a", 0),
        Task("w", "b", 4, deps=("x", "y", "z")),
    ]

    def _merged(self, gates):
        """The named graph the stamp stands for: head, then one copy of
        ``TEMPLATE`` per gate, its dependency-free tasks waiting on the
        gate (ids in merged order)."""
        tasks = [Task("h0", "clock", 0), Task("h1", "clock", 3, ("h0",))]
        urgent = []
        for j, gate in enumerate(gates):
            names = tuple(tasks[g].name for g in gate)
            urgent.append(len(tasks) + 1)
            for t in self.TEMPLATE:
                deps = tuple(f"{d}{j}" for d in t.deps) or names
                tasks.append(replace(t, name=f"{t.name}{j}", deps=deps))
        return tasks, urgent

    @pytest.mark.parametrize(
        "gates",
        (
            [(), (1,)],
            [(0,), (0,)],  # a gate of zero-duration members only holds nothing back
            [(1,), (1, 5), (1, 1, 9)],  # shared and repeated members count once
        ),
    )
    def test_stamp_equals_compiling_the_merged_list(self, gates):
        from repro.simulator.engine import FlatGraph, _run_cycles
        from repro.simulator.events import run_flat

        template = FlatGraph.from_tasks(self.TEMPLATE, urgent=(1,))
        stamped = _stamped([(template, (0, 1, 2))], [(0, gate) for gate in gates])
        tasks, urgent = self._merged(gates)
        compiled = FlatGraph.from_tasks(tasks, urgent=urgent)
        assert flat_graph_fields(stamped) == flat_graph_fields(compiled)
        for core in (run_flat, _run_cycles):
            assert core(stamped, 2, 100) == core(compiled, 2, 100)

    def test_template_tuples_are_shared_and_left_untouched(self):
        from repro.simulator.engine import FlatGraph

        template = FlatGraph.from_tasks(self.TEMPLATE)
        stamped = _stamped([(template, (0, 1))], [(0, (1,)), (0, (1, 5))])
        assert stamped.dependents[2] is template.dependents[0]
        assert template == FlatGraph.from_tasks(self.TEMPLATE)

    @pytest.mark.parametrize("gate", ((2,), (1, 2), (-1,)))
    def test_rejects_a_gate_id_at_or_beyond_its_placement(self, gate):
        from repro.simulator.engine import FlatGraph

        template = FlatGraph.from_tasks(self.TEMPLATE)
        with pytest.raises(ValueError, match="gate id at or beyond its placement"):
            _stamped([(template, (0,))], [(0, gate)])

    @pytest.mark.parametrize("roots", ((4,), (-1,), (0, 0)))
    def test_rejects_a_gated_dependent_that_leaves_its_template(self, roots):
        """A gate member's new dependents are the template's roots: a
        root outside the template (or listed twice, counted twice)
        would land in another placement."""
        from repro.simulator.engine import FlatGraph

        template = FlatGraph.from_tasks(self.TEMPLATE)
        with pytest.raises(ValueError, match="gated root out of range or repeated"):
            _stamped([(template, roots)], [(0, (1,))])

    def test_template_dependents_stay_inside_the_template(self):
        """A template's relative dependents are checked when it is built,
        so none can reach into the next placement."""
        from repro.simulator.engine import FlatGraph

        with pytest.raises(ValueError, match="dependent out of range"):
            FlatGraph(
                durations=(1,),
                resource=(0,),
                resources=("a",),
                dependents=((1,),),
                outstanding=(0,),
                ready=(0,),
            )

    @pytest.mark.parametrize(
        "urgent, match", (((4,), "urgent id out of range"), ((1, 1), "urgent id repeated"))
    )
    def test_rejects_template_urgent_ids_out_of_range_or_repeated(self, urgent, match):
        """Stamping carries each template's urgent ids over by offset;
        they are checked where they enter, at compile time."""
        from repro.simulator.engine import FlatGraph

        with pytest.raises(ValueError, match=match):
            FlatGraph.from_tasks(self.TEMPLATE, urgent=urgent)


class TestDifferentialPipeline:
    @pytest.mark.parametrize("chunks", (1, 2, 7, 32))
    @pytest.mark.parametrize("binding", ("tile-serial", "interleaved"))
    def test_fig45_graphs_identical(self, chunks, binding):
        config = PipelineConfig(chunks=chunks)
        vector = simulate_binding(config, binding)
        cycle = simulate_binding(config, binding, engine="cycle")
        assert vector == cycle

    def test_small_array_identical(self):
        config = PipelineConfig(chunks=5, array_dim=32, pe_1d=32)
        for binding in ("tile-serial", "interleaved"):
            vector = schedule_binding(config, binding)
            cycle = schedule_binding(config, binding, engine="cycle")
            assert vector == cycle
            tasks = build_tasks(config, serial=binding == "tile-serial")
            assert len(vector.finish_times) == len(tasks)

    def test_compare_bindings_engine_parity(self):
        config = PipelineConfig(chunks=12)
        assert compare_bindings(config) == compare_bindings(config, engine="cycle")

    def test_long_sequence_point_runs(self):
        """The regime the cycle engine cannot reach: 2048 chunks."""
        report = simulate_binding(PipelineConfig(chunks=2048), "interleaved")
        assert report.util_2d > 0.95
        assert report.util_1d > 0.95


class TestBindingSweep:
    GRID = dict(chunks=(16, 64), array_dims=(128,))

    def test_point_evaluation_matches_direct_simulation(self):
        point = BindingPoint("interleaved", 16, array_dim=128)
        result = evaluate_binding_point(point)
        report = simulate_binding(point.config(), "interleaved")
        assert result.makespan == report.makespan
        assert result.util_2d == report.util_2d
        assert result.seq_len == 16 * 128

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError, match="binding"):
            BindingPoint("magic", 16)
        with pytest.raises(ValueError, match="chunks"):
            BindingPoint("interleaved", 0)

    @pytest.mark.parametrize("axis", ("array_dim", "embedding", "pe_1d"))
    @pytest.mark.parametrize("value", (0, -8))
    def test_nonpositive_shape_axis_rejected(self, axis, value):
        """Zero lanes or a zero-wide array used to die dividing by zero,
        and a zero embedding 'simulated' a fixed 48-cycle makespan."""
        with pytest.raises(ValueError, match=f"{axis} must be >= 1"):
            BindingPoint("interleaved", 4, **{axis: value})

    def test_sweep_keys_and_monotone_utilization(self):
        results = binding_sweep(**self.GRID, cache=False)
        assert set(results) == {
            (binding, chunks, 128, 128, 64)
            for binding in ("tile-serial", "interleaved")
            for chunks in (16, 64)
        }
        # Steady state: interleaved utilization grows with length while
        # tile-serial stays pinned by per-tile fill/drain.
        inter = [results[("interleaved", n, 128, 128, 64)].util_2d
                 for n in (16, 64)]
        serial = [results[("tile-serial", n, 128, 128, 64)].util_2d
                  for n in (16, 64)]
        assert inter[1] > inter[0]
        assert abs(serial[1] - serial[0]) < 0.01

    def test_embedding_and_pe1d_sweep_independently(self):
        results = binding_sweep(
            chunks=(16,), array_dims=(128,),
            embeddings=(32, 64), pe_1d_dims=(64, None), cache=False,
        )
        assert set(results) == {
            ("tile-serial", 16, 128, pe_1d, e)
            for pe_1d in (64, 128) for e in (32, 64)
        } | {
            ("interleaved", 16, 128, pe_1d, e)
            for pe_1d in (64, 128) for e in (32, 64)
        }
        # Halving the 1D lanes doubles per-chunk 1D work: the narrow
        # array must not be faster.
        narrow = results[("interleaved", 16, 128, 64, 64)]
        matched = results[("interleaved", 16, 128, 128, 64)]
        assert narrow.busy_1d > matched.busy_1d
        assert narrow.makespan >= matched.makespan
        # The new columns ride through the row/codec path.
        assert narrow.pe_1d == 64 and narrow.embedding == 64
        payload = json.loads(json.dumps(encode_result(narrow)))
        assert decode_result(payload) == narrow

    def test_pe1d_none_and_matched_value_collapse_once(self):
        """None resolves to the matched floorplan: listing both must not
        compute twice or drop rows from the keyed merge."""
        from repro.runtime import binding_grid

        tasks = binding_grid(
            chunks=(16,), array_dims=(128,), pe_1d_dims=(None, 128)
        )
        assert len(tasks) == 2  # one per binding, not four
        results = binding_sweep(
            chunks=(16,), array_dims=(128,), pe_1d_dims=(None, 128),
            cache=False,
        )
        assert len(results) == 2

    def test_sweep_parallel_and_cached_identical(self, tmp_path, force_pool):
        baseline = binding_sweep(**self.GRID, cache=False)
        parallel = binding_sweep(**self.GRID, jobs=2, cache=False)
        assert parallel == baseline
        disk = ResultCache(directory=tmp_path / "cache")
        populated = binding_sweep(**self.GRID, cache=disk)
        fresh = ResultCache(directory=tmp_path / "cache")
        warm = binding_sweep(**self.GRID, cache=fresh)
        assert populated == baseline and warm == baseline
        assert fresh.stats.disk_hits == len(baseline)

    def test_sweep_records_run(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        binding_sweep(**self.GRID, cache=False, registry=registry)
        record = registry.last_recorded
        assert record.kind == "binding"
        assert record.n_results == 4
        assert "tile-serial@128+128-E64" in record.grid["configs"]

    def test_run_record_distinguishes_lane_and_embedding_axes(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        binding_sweep(
            chunks=(16,), array_dims=(128,), bindings=("interleaved",),
            pe_1d_dims=(64, 128), embeddings=(32,),
            cache=False, registry=registry,
        )
        configs = registry.last_recorded.grid["configs"]
        assert set(configs) == {
            "interleaved@128+64-E32", "interleaved@128+128-E32"
        }

    def test_binding_result_cache_codec_roundtrip(self):
        result = evaluate_binding_point(BindingPoint("tile-serial", 16))
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_emitters(self):
        results = binding_sweep(**self.GRID, cache=False)
        csv_text = sweep_csv(results)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith(
            "binding,chunks,array_dim,pe_1d,embedding,seq_len"
        )
        assert len(lines) == 1 + len(results)
        rows = json.loads(emit_rows(results, "json"))
        assert len(rows) == len(results)
        assert {row["binding"] for row in rows} == {
            "tile-serial", "interleaved"
        }
        table = emit_rows(results, "table")
        assert "util_2d" in table.splitlines()[0]

    def test_binding_result_fields_consistent(self):
        result = evaluate_binding_point(BindingPoint("interleaved", 16))
        assert isinstance(result, BindingResult)
        assert result.util_2d == pytest.approx(
            result.busy_2d / result.makespan
        )


class TestScenarioGraphs:
    """Merged multi-(batch, head) graphs: structure + engine parity."""

    @pytest.mark.parametrize("seed", fuzz_seeds("scenario-merged"))
    def test_merged_graph_engines_identical(self, seed):
        """The differential fuzz, extended to scenario merged graphs
        (mixed-model phases and dram_bw in {None, tight, ample} ride
        along through the seeded generator)."""
        rng = random.Random(seed)
        scenario = random_scenario(rng)
        tasks = build_scenario_tasks(scenario)
        serial = scenario.binding == "tile-serial"
        result = both(
            tasks,
            mode="serial" if serial else "interleaved",
            slots=scenario.slots,
            max_cycles=sum(t.duration for t in tasks) + 1,
        )
        # The folded path (schedule_scenario_tasks) must agree too:
        # it never materializes the merged task list, so this is the one
        # place lazy materialization and replay face the oracle.
        folded = schedule_scenario_tasks(scenario)
        assert folded == result
        _assert_makespan_is_last_finish(folded)

    @pytest.mark.parametrize("seed", fuzz_seeds("scenario-bandwidth"))
    def test_bandwidth_graph_engines_identical(self, seed):
        """Pinned bandwidth coverage: every third seed runs unmodeled
        (None), tight (contended), and ample (free transfers) dram_bw on
        an otherwise identical scenario draw — the {None, tight, ample}
        differential the engines must agree on bit-for-bit."""
        rng = random.Random(seed)
        dram_bw = (None, 8.0, 65536.0)[seed % 3]
        scenario = random_scenario(rng, dram_bw=dram_bw)
        tasks = build_scenario_tasks(scenario)
        serial = scenario.binding == "tile-serial"
        result = both(
            tasks,
            mode="serial" if serial else "interleaved",
            slots=scenario.slots,
            max_cycles=sum(t.duration for t in tasks) + 1,
        )
        if dram_bw is None:
            assert "dram" not in result.busy_cycles
        else:
            assert result.busy_cycles.get("dram", 0) > 0
        folded = schedule_scenario_tasks(scenario)
        assert folded == result
        _assert_makespan_is_last_finish(folded)

    @pytest.mark.parametrize("seed", fuzz_seeds("cluster"))
    def test_cluster_graph_engines_identical(self, seed):
        """Sharded multi-chip coverage: the same {None, tight, ample}
        differential, now over a modeled interconnect — every third
        seed runs unlinked, contended, and ample link bandwidth, and
        both sharding policies alternate across the seed range.  The
        engines must agree bit-for-bit on the merged cluster graph,
        and the shared link's busy cycles must equal the closed-form
        collective sum exactly."""
        rng = random.Random(seed)
        scenario = random_scenario(rng)
        link_bw = (None, 8.0, 65536.0)[seed % 3]
        spec = ClusterSpec(
            n_chips=(2, 4)[seed % 2],
            link_bw=link_bw,
            link_latency=rng.choice((0, 4)),
        )
        sharding = ("head", "tensor")[(seed // 3) % 2]
        tasks = build_cluster_tasks(scenario, spec, sharding)
        serial = scenario.binding == "tile-serial"
        result = both(
            tasks,
            mode="serial" if serial else "interleaved",
            slots=scenario.slots,
            max_cycles=sum(t.duration for t in tasks) + 1,
        )
        assert result.busy_cycles.get("link", 0) == cluster_link_cycles(
            scenario, spec, sharding
        )
        if link_bw is None:
            assert "link" not in result.busy_cycles
        # The folded path must replay the sharded classes exactly too.
        folded = schedule_cluster_tasks(scenario, spec, sharding)
        assert folded == result
        _assert_makespan_is_last_finish(folded)

    @pytest.mark.parametrize("seed", fuzz_seeds("buffer-qos"))
    def test_buffer_qos_graph_engines_identical(self, seed):
        """Capacity + QoS coverage: the same differential over
        buffer_bytes in {None, tight, ample} crossed with the QoS
        discipline and an explicit per-phase dram_priority.  A tight
        buffer inflates traffic with spills and bounds prefetch depth; a
        non-uniform priority reorders phase emission — either must leave
        both engines (and the folded replay) bit-identical."""
        rng = random.Random(seed)
        scenario = random_scenario(rng, dram_bw=(None, 8.0, 65536.0)[seed % 3])
        # 600 bytes undercuts the smallest drawn working set (1 KiB), so
        # the tight arm always spills; the ample arm never does.
        buffer_bytes = (None, 600.0, 1e12)[(seed // 3) % 3]
        phases = scenario.phases
        if seed % 5 == 0:
            # Explicit priority, including the prefill-outranks-decode
            # direction the qos switch alone can't reach.
            phases = tuple(
                replace(p, dram_priority=1 if p.kind == "prefill" else 0)
                for p in phases
            )
        scenario = replace(
            scenario,
            phases=phases,
            buffer_bytes=buffer_bytes,
            qos=("uniform", "decode-first")[seed % 2],
        )
        tasks = build_scenario_tasks(scenario)
        serial = scenario.binding == "tile-serial"
        result = both(
            tasks,
            mode="serial" if serial else "interleaved",
            slots=scenario.slots,
            max_cycles=sum(t.duration for t in tasks) + 1,
        )
        folded = schedule_scenario_tasks(scenario)
        assert folded == result
        _assert_makespan_is_last_finish(folded)

    def test_scenario_engine_parity(self):
        scenario = attention_scenario(3, 4, array_dim=32)
        _, event = event_scenario(scenario)
        cycle = schedule_scenario_tasks(scenario, build_scenario_tasks(scenario), engine="cycle")
        vector = schedule_scenario_tasks(scenario)
        assert event == cycle
        assert vector == cycle

    def test_single_instance_matches_binding_graph(self):
        """A one-instance scenario is the Fig. 4/5 graph, renamed."""
        scenario = attention_scenario(1, 8, binding="tile-serial")
        config = PipelineConfig(chunks=8)
        merged = build_scenario_tasks(scenario)
        single = build_tasks(config, serial=True)
        assert [t.name for t in merged] == [f"i0:{t.name}" for t in single]
        assert [(t.resource, t.duration) for t in merged] == [
            (t.resource, t.duration) for t in single
        ]
        sim = schedule_scenario_tasks(scenario)
        ref = schedule_binding(config, "tile-serial")
        assert sim.makespan == ref.makespan
        assert dict(sim.busy_cycles) == dict(ref.busy_cycles)

    def test_instances_share_arrays_not_dependencies(self):
        tasks = build_scenario_tasks(attention_scenario(3, 2))
        names = {t.name for t in tasks}
        for task in tasks:
            prefix = task.name.split(":")[0]
            for dep in task.deps:
                assert dep in names
                assert dep.split(":")[0] == prefix  # no cross-instance deps
        assert {t.name.split(":")[0] for t in tasks} == {"i0", "i1", "i2"}

    def test_decode_graph_shape(self):
        config = PipelineConfig(chunks=3, array_dim=32, pe_1d=32)
        tasks = build_decode_tasks(config, prefix="d:")
        assert len(tasks) == 4 * 3
        assert {t.resource for t in tasks} == {"2d", "1d"}
        # The running state chains serially; QK tiles are independent.
        by_name = {t.name: t for t in tasks}
        assert by_name["d:DSM[1]"].deps == ("d:DQK[1]", "d:DSM[0]")
        assert by_name["d:DQK[2]"].deps == ()

    def test_chunk_work_matches_built_graph(self):
        """The analytical work function and the graph builder agree."""
        config = PipelineConfig(chunks=5, array_dim=64, pe_1d=32, embedding=16)
        for serial in (True, False):
            tasks = build_tasks(config, serial=serial)
            work = chunk_work(config, serial=serial)
            by_resource = {"2d": 0, "1d": 0, "io": 0}
            for task in tasks:
                by_resource[task.resource] += task.duration
            assert by_resource["2d"] == config.chunks * work.cycles_2d
            assert by_resource["1d"] == config.chunks * work.cycles_1d
            assert by_resource["io"] == config.chunks * work.cycles_io
        decode = build_decode_tasks(config)
        decode_work = chunk_work(config, serial=False, kind="decode")
        assert sum(t.duration for t in decode if t.resource == "2d") == (
            config.chunks * decode_work.cycles_2d
        )
        assert sum(t.duration for t in decode if t.resource == "1d") == (
            config.chunks * decode_work.cycles_1d
        )

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="phase"):
            Scenario(name="empty", phases=())
        with pytest.raises(ValueError, match="binding"):
            attention_scenario(1, 4, binding="magic")
        with pytest.raises(ValueError, match="kind"):
            Phase("train", 1, 4)
        with pytest.raises(ValueError, match="divisible"):
            scenario_from_model(BERT, 1000)


def _spy_expansion(monkeypatch):
    """Record the log of every fold whose finish times are written out,
    then write them out as usual."""
    import repro.simulator.vector as vector

    calls = []
    real = vector._expand

    def spy(ft, classes, log):
        calls.append(log)
        real(ft, classes, log)

    monkeypatch.setattr(vector, "_expand", spy)
    return calls


def _replays(log):
    """``(window completions, repeats)`` of each window a fold replayed."""
    return [(len(steps), repeats) for _, repeats, steps, _ in log.windows]


def _assert_makespan_is_last_finish(result):
    """A fold's makespan comes from its log, not from the expanded
    finish times; it must still be the latest of them."""
    assert result.makespan == max(result.finish_times.values(), default=0)


@pytest.fixture
def heads_checked(monkeypatch):
    """Checks, before every refill of every fold, that each resource's
    cached virtual head (see ``_fold_loop`` in ``simulator/vector.py``)
    equals a fresh scan of the class cursors: the lowest program order
    of a class cursor's earliest t=0-ready task there.  Returns the list
    of resources whose refill it checked; the flat core's refills pass
    unchecked."""
    from repro.simulator import events

    make_round_robin = events.round_robin
    checked = []

    def closed_over(function, name):
        names = function.__code__.co_freevars
        return function.__closure__[names.index(name)].cell_contents if name in names else None

    def round_robin(n_resources, refill):
        materialize = closed_over(refill, "materialize")
        if materialize is None:
            return make_round_robin(n_resources, refill)
        refresh = closed_over(materialize, "refresh_heads")
        classes_on, cursor, counts, order_bases, sizes, head_order, head_class = (
            closed_over(refresh, name)
            for name in (
                "classes_on", "cursor", "counts", "order_bases", "sizes", "head_order",
                "head_class",
            )
        )

        def checked_refill(resource, acts):
            heads = [
                (order_bases[c] + cursor[c] * sizes[c] + tid, c)
                for c, tid in classes_on[resource]
                if cursor[c] < counts[c]
            ]
            assert (head_order[resource], head_class[resource]) == min(
                heads, default=(float("inf"), -1)
            )
            checked.append(resource)
            refill(resource, acts)

        return make_round_robin(n_resources, checked_refill)

    monkeypatch.setattr(events, "round_robin", round_robin)
    return checked


class TestSymmetryFolding:
    """The folded path's own contract: recurrence replay fires on
    contended scenarios, expansion is exact where arbitration breaks
    symmetry, and malformed templates are rejected at fold time."""

    def _assert_folded_exact(self, scenario, stats=None):
        from repro.simulator import fold_scenario, run_folded

        serial = scenario.binding == "tile-serial"
        _, expected = event_scenario(scenario)
        folded = run_folded(
            fold_scenario(scenario),
            slots=1 if serial else scenario.slots,
            stats=stats,
        )
        assert folded == expected
        assert dict(folded.finish_times) == dict(expected.finish_times)
        _assert_makespan_is_last_finish(folded)
        return folded

    def test_contended_scenario_replays(self):
        """DRAM contention throttles admission, the live window recurs,
        and the steady state is replayed rather than simulated — and the
        expansion is still bit-identical to the event core."""
        scenario = attention_scenario(16, 4, dram_bw=4.0, array_dim=32)
        stats = {}
        self._assert_folded_exact(scenario, stats)
        assert stats["jumps"] >= 1
        assert stats["replayed"] > stats["events"]

    def test_prefill_decode_contention_folds_both_phases(self):
        """Two instance classes, both contended: the detector must jump
        inside the prefill regime without the (not-yet-started) decode
        class pinning the replay count to zero."""
        scenario = attention_scenario(
            24, 4, decode_instances=8, decode_chunks=6,
            dram_bw=8.0, array_dim=32,
        )
        stats = {}
        self._assert_folded_exact(scenario, stats)
        assert stats["jumps"] >= 2

    def test_symmetry_breaking_arbitration_expands_exactly(self):
        """Identical instances do NOT get identical schedules: slot
        arbitration staggers them, so expansion must place each
        instance's finish times individually, not stamp one template."""
        scenario = attention_scenario(5, 3, array_dim=32, slots=2)
        folded = self._assert_folded_exact(scenario)
        per_instance = {}
        for name, finish in folded.finish_times.items():
            prefix, task = name.split(":", 1)
            per_instance.setdefault(task, {})[prefix] = finish
        # At least one template task finishes at a different relative
        # offset across instances (pure shift would make all gaps equal).
        gaps = {
            task: {
                prefix: finish - min(times.values())
                for prefix, finish in times.items()
            }
            for task, times in per_instance.items()
        }
        assert any(len(set(offsets.values())) > 1 for offsets in gaps.values())

    def test_dram_ahead_tile_serial_replays(self):
        """The DRAM stream runs ahead of the io-bound tile-serial front.
        Scheduled inside the main fold, it kept every instance it had
        streamed live, so no snapshot recurred; as its own source fold
        it becomes release times, and the compute front replays."""
        scenario = attention_scenario(
            64, 8, array_dim=128, dram_bw=1024.0, binding="tile-serial"
        )
        stats = {}
        folded = self._assert_folded_exact(scenario, stats)
        assert stats["jumps"] >= 2  # the DRAM sub-fold's and the main fold's
        assert stats["replayed"] > stats["events"]
        assert stats["replayed"] <= len(folded.finish_times)

    def test_scenario_replay_expands_on_first_read(self, monkeypatch):
        """The main fold of 128 DRAM-ahead tile-serial instances repeats
        a 264-completion window 40 times.  ``run_folded`` writes out only
        the ``dram`` sub-fold, whose times are the main fold's releases;
        the main fold's are written on the first read, and must land on
        the event core's finish times."""
        from repro.simulator import fold_scenario, run_folded

        scenario = attention_scenario(
            128, 8, array_dim=128, dram_bw=1024.0, binding="tile-serial"
        )
        tasks, expected = event_scenario(scenario)
        calls = _spy_expansion(monkeypatch)
        folded = run_folded(fold_scenario(scenario), slots=1)
        assert len(calls) == 1  # the dram sub-fold
        assert len(folded.finish_times) == len(tasks)
        assert len(calls) == 1  # len() writes nothing out
        assert folded == expected
        assert len(calls) == 2
        assert (264, 40) in _replays(calls[1])
        _assert_makespan_is_last_finish(folded)

    @pytest.mark.parametrize("seed", fuzz_seeds("fold-multiclass"))
    def test_multiclass_fold_matches_event_engine(self, seed, heads_checked):
        """Two to four phase classes share the arrays and ``dram``, so
        each resource's virtual head moves between classes as their
        cursors advance: at every materialization, and at every jump
        the tight bandwidths let the classes make.  The cached heads
        must equal a fresh scan at every refill."""
        rng = random.Random(seed)
        phases = tuple(
            Phase(
                rng.choice(("prefill", "decode")), rng.randint(2, 12), rng.randint(1, 6),
                embedding=rng.choice((None, 8, 16, 32)),
            )
            for _ in range(rng.randint(2, 4))
        )
        scenario = Scenario(
            name=f"multiclass-{seed}",
            phases=phases,
            binding=rng.choice(("tile-serial", "interleaved")),
            embedding=rng.choice((8, 16)),
            array_dim=rng.choice((16, 32)),
            slots=rng.randint(1, 3),
            dram_bw=rng.choice((2.0, 4.0, 8.0, 32.0)),
            buffer_bytes=rng.choice((None, None, 600.0)),
        )
        self._assert_folded_exact(scenario)
        assert heads_checked

    def test_uncontended_scenario_still_exact_without_jumps(self):
        """No recurrence is a speed miss, never a correctness miss."""
        scenario = attention_scenario(6, 4, array_dim=32)
        stats = {}
        self._assert_folded_exact(scenario, stats)
        assert stats["jumps"] == 0

    @pytest.mark.parametrize("duration", (0, 1))
    def test_fold_rejects_cross_template_deps(self, duration):
        from repro.simulator.vector import fold_templates

        template = [Task("a", "r", duration, deps=("elsewhere",))]
        with pytest.raises(ValueError, match="leaves the instance"):
            fold_templates([(template, 2)])

    def test_run_folded_deadlock_raises(self):
        from repro.simulator.vector import fold_templates, run_folded

        template = [
            Task("a", "r", 1, deps=("b",)),
            Task("b", "r", 1, deps=("a",)),
        ]
        with pytest.raises(RuntimeError, match="max_cycles"):
            run_folded(fold_templates([(template, 3)]), slots=2, max_cycles=50)


def _expand_templates(templates):
    """The merged graph a list of fold templates stands for."""
    tasks, index = [], 0
    for template, count in templates:
        for _ in range(count):
            prefix = f"i{index}:"
            tasks.extend(
                Task(prefix + t.name, t.resource, t.duration,
                     tuple(prefix + dep for dep in t.deps))
                for t in template
            )
            index += 1
    return tasks


def _source_templates(rng):
    """Random fold templates over a dependency-free ``dma`` resource
    (a source) and two compute resources whose tasks may wait on it."""
    templates = []
    for _ in range(rng.randint(1, 3)):
        tasks = []
        for i in range(rng.randint(2, 12)):
            resource = rng.choice(("dma", "a", "b"))
            deps = ()
            if resource != "dma" and i:
                deps = tuple(
                    f"t{rng.randint(0, i - 1)}" for _ in range(rng.randint(0, min(3, i)))
                )
            # Every fifth task may take zero cycles (done at t=0).
            duration = rng.randint(0 if i % 5 == 4 else 1, 9)
            tasks.append(Task(f"t{i}", resource, duration, deps))
        tasks.append(Task("head", "dma", rng.randint(1, 9)))
        tasks.append(Task("tail", "a", rng.randint(1, 9), ("head",)))
        templates.append((tasks, rng.randint(1, 24)))
    return templates


class TestFoldSources:
    """Source resources (``dram`` under an unbounded buffer: no task on
    it waits on anything) are scheduled by their own sub-folds and enter
    the main fold as release times.  Every case must equal the event
    engine on the merged graph: same result, or the same error."""

    @staticmethod
    def _assert_matches_event(templates, slots, max_cycles=None):
        from repro.simulator.events import run_event_driven
        from repro.simulator.vector import fold_templates, run_folded

        merged = _expand_templates(templates)
        budget = sum(t.duration for t in merged) + 1 if max_cycles is None else max_cycles
        try:
            expected = run_event_driven(merged, slots, budget)
        except RuntimeError as error:
            with pytest.raises(RuntimeError, match=re.escape(str(error))):
                run_folded(fold_templates(templates), slots, max_cycles)
            return None
        stats = {}
        folded = run_folded(fold_templates(templates), slots, max_cycles, stats=stats)
        assert folded == expected
        assert dict(folded.finish_times) == dict(expected.finish_times)
        _assert_makespan_is_last_finish(folded)
        assert stats["replayed"] <= len(merged)
        return expected

    @pytest.mark.parametrize("seed", fuzz_seeds("fold-sources"))
    def test_fold_sources_match_event_engine(self, seed):
        from repro.simulator.pipeline import scenario_templates

        rng = random.Random(seed)
        if seed % 3 == 2:
            templates = _source_templates(rng)
            slots = rng.randint(1, 3)
            if seed % 9 == 2:  # a cycle among compute tasks: deadlock
                templates[0][0].extend(
                    [Task("x", "a", 1, ("y", "head")), Task("y", "b", 1, ("x",))]
                )
            max_cycles = None
            if seed % 9 == 5:  # a budget the source stream overruns
                merged = _expand_templates(templates)
                full = self._assert_matches_event(templates, slots)
                last = max(full.finish_times[t.name] for t in merged if t.resource == "dma")
                max_cycles = last - 1
            self._assert_matches_event(templates, slots, max_cycles)
            return
        scenario = random_scenario(rng, dram_bw=(8.0, 65536.0)[(seed // 2) % 2])
        scenario = replace(
            scenario,
            binding=("tile-serial", "interleaved")[seed % 2],
            slots=1 + seed % 3,
            buffer_bytes=(None, None, 600.0, 1e12)[seed % 4],
        )
        templates = scenario_templates(scenario)
        slots = 1 if scenario.binding == "tile-serial" else scenario.slots
        self._assert_matches_event(templates, slots)

    @pytest.mark.parametrize("slots", (1, 2))
    def test_source_task_nothing_waits_on_can_finish_last(self, slots):
        """The ``dma`` stream outlasts the compute it feeds, so the
        makespan is the source sub-fold's last completion."""
        template = [Task("a", "dma", 5), Task("b", "c", 1, ("a",)), Task("x", "dma", 9)]
        assert self._assert_matches_event([(template, 4)], slots).makespan == 56

    def test_release_equal_to_ready_time_still_replays(self):
        """``c1``'s release lands exactly when ``c0`` meets its other dep.
        A ready-bound read accepts a repeat whose release is no later than
        its shifted ready time, equal included, so the main fold
        replays."""
        from repro.simulator.vector import fold_templates, run_folded

        template = [
            Task("d", "dma", 4),
            Task("p", "b", 3),
            Task("c0", "a", 2, ("p",)),
            Task("c1", "b", 1, ("c0", "d")),
        ]
        self._assert_matches_event([(template, 60)], 1)
        stats = {}
        run_folded(fold_templates([(template, 60)]), 1, stats=stats)
        assert stats == {"events": 19, "replayed": 221, "jumps": 2}

    def test_release_later_than_the_shift_blocks_the_jump(self):
        """Four slots share ``dma`` between a first class's stream and a
        second class's wide transfers, so the second class's releases do
        not shift uniformly.  A window whose later repeats would read a
        release later than the time shift must not be replayed (a
        wide-duration draw of the fuzz generator, shrunk)."""
        first = [Task("t0", "dma", 36), Task("head", "dma", 17), Task("tail", "a", 10, ("head",))]
        second = [
            Task("t0", "dma", 8),
            Task("t1", "a", 4, ("t0",)),
            Task("t2", "dma", 42),
            Task("t3", "dma", 38),
            Task("t4", "dma", 48),
            Task("t6", "b", 26, ("t1", "t3")),
            Task("t7", "dma", 48),
            Task("t8", "dma", 5),
            Task("t9", "dma", 20),
            Task("t10", "dma", 9),
            Task("head", "dma", 60),
            Task("tail", "a", 42, ("head",)),
        ]
        self._assert_matches_event([(first, 1), (second, 23)], 4)

    def test_source_counters_fold_into_stats(self):
        """A scenario whose main fold never recurs still reports the
        DRAM sub-fold's replay, and the total stays within the tasks."""
        from repro.simulator import fold_scenario, run_folded

        scenario = attention_scenario(24, 4, array_dim=32, dram_bw=1e4)
        folded = fold_scenario(scenario)
        stats = {}
        result = run_folded(folded, slots=scenario.slots, stats=stats)
        assert stats["jumps"] >= 1
        assert 0 < stats["replayed"] <= folded.n_tasks
        assert result == event_scenario(scenario)[1]


class TestOneReadinessCompile:
    """Every fold compiles its templates through
    :meth:`FlatGraph.from_tasks`, and both cores step the one
    round-robin of :func:`repro.simulator.events.round_robin`."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """Records the task count of every compile and the resource count
        of every round-robin built."""
        from repro.simulator import events
        from repro.simulator.engine import FlatGraph

        calls = {"compiled": [], "round_robins": []}
        compile_tasks = FlatGraph.from_tasks.__func__
        make_round_robin = events.round_robin

        def from_tasks(cls, tasks, urgent=(), index=None):
            calls["compiled"].append(len(tasks))
            return compile_tasks(cls, tasks, urgent, index)

        def round_robin(n_resources, *args):
            calls["round_robins"].append(n_resources)
            return make_round_robin(n_resources, *args)

        monkeypatch.setattr(FlatGraph, "from_tasks", classmethod(from_tasks))
        monkeypatch.setattr(events, "round_robin", round_robin)
        return calls

    def test_scenario_fold_compiles_once_per_phase_template(self, spies):
        from repro.simulator import fold_scenario

        scenario = attention_scenario(3, 4, array_dim=32, decode_instances=2, decode_chunks=6)
        folded = fold_scenario(scenario)
        assert len(spies["compiled"]) == len(scenario.emission_phases) == 2
        assert spies["compiled"] == [cls.size for cls in folded.classes]

    def test_binding_fold_compiles_the_two_instance_list_once(self, spies):
        from repro.simulator.pipeline import binding_template
        from repro.simulator.vector import fold_chain

        folded = fold_chain(binding_template(PipelineConfig(), "interleaved"), 64)
        assert spies["compiled"] == [2 * folded.classes[0].size]

    def test_cluster_fold_compiles_once_per_chip_template(self, spies):
        from repro.cluster import fold_cluster
        from repro.cluster.build import cluster_templates

        scenario = attention_scenario(4, 4, array_dim=32)
        spec = ClusterSpec(n_chips=2, link_bw=64.0)
        templates = cluster_templates(scenario, spec, "head")
        spies["compiled"].clear()
        fold_cluster(scenario, spec, "head")
        assert spies["compiled"] == [len(tasks) for tasks, _ in templates]

    def test_one_round_robin_per_sub_fold(self, spies):
        """A DRAM-ahead tile-serial scenario schedules its source resource
        as its own sub-fold, then the main fold: two round-robins."""
        from repro.simulator import fold_scenario, run_folded
        from repro.simulator.vector import _source_resources

        scenario = attention_scenario(24, 4, array_dim=32, dram_bw=1e4, binding="tile-serial")
        folded = fold_scenario(scenario)
        sources = _source_resources(folded)
        assert [folded.resources[r] for r in sources] == ["dram"]
        result = run_folded(folded, slots=1)
        assert spies["round_robins"] == [len(folded.resources)] * (len(sources) + 1)
        assert result == event_scenario(scenario)[1]

    def test_one_name_index_per_fold_compile(self, monkeypatch):
        """The fold lowerings check names with one :func:`task_index`
        and hand it to the compile instead of having it built again."""
        from repro.simulator import engine, fold_scenario, vector
        from repro.simulator.pipeline import binding_template

        whats = []
        real = engine.task_index

        def task_index(tasks, what="the task graph"):
            whats.append(what)
            return real(tasks, what)

        monkeypatch.setattr(engine, "task_index", task_index)
        monkeypatch.setattr(vector, "task_index", task_index)
        fold_scenario(attention_scenario(3, 4, array_dim=32, decode_instances=2, decode_chunks=6))
        vector.fold_chain(binding_template(PipelineConfig(), "interleaved"), 64)
        assert whats == ["a fold template"] * 2 + ["a chain template"]

    def test_flat_core_steps_the_same_round_robin(self, spies):
        from repro.simulator.events import run_event_driven

        run_event_driven(_chain(CHAIN, 3), 2, 100)
        assert spies["round_robins"] == [2]

    def test_folded_scenario_derives_its_layout(self):
        from repro.simulator.vector import FoldedScenario, fold_templates

        first = [Task("a", "r", 3), Task("b", "s", 2, deps=("a",))]
        second = [Task("c", "s", 0), Task("d", "r", 4, deps=("c",)), Task("e", "s", 1)]
        folded = fold_templates([(first, 3), (second, 2)])
        assert [(c.order_base, c.ginst_base) for c in folded.classes] == [(0, 0), (6, 3)]
        assert (folded.n_tasks, folded.n_instances) == (12, 5)
        assert folded.total_duration == 3 * 5 + 2 * 5
        assert folded.busy_totals == [3 * 3 + 2 * 4, 3 * 2 + 2 * 1]
        with pytest.raises(ValueError, match="sorted and unique"):
            FoldedScenario(folded.classes, ["s", "r"])
        with pytest.raises(ValueError, match="resource id out of range"):
            FoldedScenario(folded.classes, ["r"])
        with pytest.raises(ValueError, match="per-task fields differ in length"):
            FoldedScenario([replace(folded.classes[0], res=[0])], folded.resources)


#: Scenario shapes the fold-only evaluation must cover: decode phases,
#: mixed models, DRAM contention, capacity spills with QoS, and both
#: bindings.
FOLD_ONLY_SCENARIOS = (
    attention_scenario(3, 4, array_dim=32, decode_instances=2, decode_chunks=6),
    mixed_model_scenario(("BERT", "XLM"), 3, heads=2, array_dim=32),
    attention_scenario(6, 4, array_dim=32, dram_bw=8.0, binding="tile-serial"),
    attention_scenario(
        2, 4, array_dim=64, decode_instances=2, decode_chunks=16,
        dram_bw=32.0, buffer_bytes=24576.0, qos="decode-first",
    ),
)


class TestFoldOnlyEvaluation:
    """``engine="vector"`` evaluates scenario and cluster points from
    the fold alone: the merged task list is never built, and the row —
    ``n_tasks`` included — equals the cycle oracle's."""

    @pytest.fixture
    def no_merged_graphs(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the vector engine built a merged task list")

        monkeypatch.setattr("repro.simulator.pipeline.build_scenario_tasks", forbidden)
        monkeypatch.setattr("repro.cluster.build.build_cluster_tasks", forbidden)

    @pytest.mark.parametrize("scenario", FOLD_ONLY_SCENARIOS, ids=lambda s: s.name)
    def test_scenario_point_never_builds_merged_list(self, scenario, request):
        cycle = evaluate_scenario_point(scenario, engine="cycle")
        assert cycle.n_tasks == len(build_scenario_tasks(scenario))
        request.getfixturevalue("no_merged_graphs")
        assert evaluate_scenario_point(scenario, engine="vector") == cycle

    @pytest.mark.parametrize("sharding", ("head", "tensor"))
    @pytest.mark.parametrize("scenario", FOLD_ONLY_SCENARIOS, ids=lambda s: s.name)
    def test_cluster_point_never_builds_merged_list(self, scenario, sharding, request):
        point = ClusterPoint(
            scenario, ClusterSpec(n_chips=2, link_bw=64.0, link_latency=4), sharding
        )
        cycle = evaluate_cluster_point(point, engine="cycle")
        assert cycle.n_tasks == len(build_cluster_tasks(scenario, point.spec, sharding))
        request.getfixturevalue("no_merged_graphs")
        assert evaluate_cluster_point(point, engine="vector") == cycle

    def test_finish_times_named_lazily_and_equal_to_event_dict(self):
        from repro.simulator.pipeline import schedule_scenario_tasks
        from repro.simulator.vector import FoldedFinishTimes

        scenario = FOLD_ONLY_SCENARIOS[0]
        tasks, event = event_scenario(scenario)
        lazy = schedule_scenario_tasks(scenario, engine="vector").finish_times
        assert isinstance(lazy, FoldedFinishTimes)
        assert len(lazy) == len(event.finish_times) == len(tasks)
        assert lazy._named is None  # len() names nothing
        assert lazy == event.finish_times
        assert event.finish_times == lazy
        # Program order; the event engine lists the same names in
        # completion order.
        assert list(lazy) == [t.name for t in tasks]
        assert sorted(lazy) == sorted(event.finish_times)
        assert lazy[tasks[-1].name] == event.finish_times[tasks[-1].name]
        assert "i0:nope" not in lazy

    def test_schedule_rejects_task_list_mismatched_to_engine(self):
        from repro.cluster import schedule_cluster_tasks
        from repro.simulator.pipeline import schedule_scenario_tasks

        scenario = attention_scenario(2, 2, array_dim=32)
        tasks = build_scenario_tasks(scenario)
        with pytest.raises(ValueError, match="takes no task list"):
            schedule_scenario_tasks(scenario, tasks, engine="vector")
        with pytest.raises(ValueError, match="schedules a built one"):
            schedule_scenario_tasks(scenario, engine="cycle")
        spec = ClusterSpec(n_chips=2)
        with pytest.raises(ValueError, match="takes no task list"):
            schedule_cluster_tasks(
                scenario, spec, "head", build_cluster_tasks(scenario, spec), engine="vector"
            )
        with pytest.raises(ValueError, match="schedules a built one"):
            schedule_cluster_tasks(scenario, spec, "head", engine="cycle")


def _chain(stems_deps, count):
    """The ``count``-instance graph of a synthetic chain: ``stems_deps``
    lists ``(stem, resource, duration, deps, lag_deps)``, deps naming
    stems in the same instance and lag deps stems one instance back."""
    return [
        Task(
            f"{stem}[{k}]", resource, duration,
            tuple(f"{d}[{k}]" for d in deps)
            + (tuple(f"{d}[{k - 1}]" for d in lag_deps) if k else ()),
        )
        for k in range(count)
        for stem, resource, duration, deps, lag_deps in stems_deps
    ]


#: A small chain with a cross-resource lag edge, a zero-duration task
#: and a t=0-ready head in every instance.
CHAIN = (
    ("a", "r", 3, (), ()),
    ("z", "s", 0, ("a",), ()),
    ("b", "s", 2, ("a", "z"), ("b",)),
    ("c", "r", 1, ("b",), ("c", "b")),
)


def _split_chain(rng):
    """A random chain whose fronts drift apart: head task ``a`` and the
    lag chain ``b`` share resource ``s``, and one or two stages on ``r``
    and ``t`` between them delay the tail's start.  The head fills ``s``
    first and leaves a run of idle instances, which a slower ``b``
    lets grow and a faster one eats into."""
    a = rng.randint(4, 12)
    stems = [("a", "s", a, (), ())]
    last = "a"
    for i, resource in enumerate(rng.sample("rt", rng.randint(1, 2))):
        stem = f"m{i}"
        lag = (stem,) if rng.random() < 0.3 else ()
        stems.append((stem, resource, rng.randint(1, a), (last,), lag))
        last = stem
    stems.append(("b", "s", rng.randint(max(1, a - 3), a + 1), (last,), ("b",)))
    if rng.random() < 0.3:
        stems.append(("e", rng.choice("rt"), rng.randint(1, a), ("b",), ("e",)))
    return tuple(stems)


def _assert_same_schedule(folded, event):
    assert dict(folded.finish_times) == dict(event.finish_times)
    assert dict(folded.busy_cycles) == dict(event.busy_cycles)
    assert folded.makespan == event.makespan
    _assert_makespan_is_last_finish(folded)


#: Chunk counts the chain fold must reproduce: a lone chunk (no lag
#: edge), the two-chunk template itself, one past it, and odd counts,
#: which no whole number of replayed windows covers.
CHAIN_CHUNKS = (1, 2, 3, 7, 33)


class TestChainFold:
    """Binding graphs fold along their chunk axis: chunk ``k`` is one
    instance of a two-chunk template chained to chunk ``k-1``.  The
    folded schedule must equal the event engine's on the built graph,
    finish-time mapping included."""

    @pytest.mark.parametrize("seed", fuzz_seeds("chain-fold"))
    def test_chain_fold_matches_event_engine(self, seed):
        rng = random.Random(seed)
        binding = ("tile-serial", "interleaved")[seed % 2]
        chunks = CHAIN_CHUNKS[(seed // 2) % len(CHAIN_CHUNKS)]
        array_dim = rng.choice((16, 64, 128, 256))
        config = PipelineConfig(
            chunks=chunks,
            embedding=rng.choice((16, 64, 128)),
            array_dim=array_dim,
            pe_1d=rng.choice((array_dim, 8, 64, 512)),
        )
        _, event = event_binding(config, binding)
        vector = schedule_binding(config, binding)
        assert vector == event
        assert dict(vector.finish_times) == dict(event.finish_times)
        assert dict(vector.busy_cycles) == dict(event.busy_cycles)
        assert vector.makespan == event.makespan
        _assert_makespan_is_last_finish(vector)
        if chunks <= 8:
            assert vector == schedule_binding(config, binding, engine="cycle")

    @pytest.mark.parametrize("chunks", (1, 2, 5, 64))
    @pytest.mark.parametrize("slots", (1, 2, 3))
    def test_synthetic_chain_matches_event_engine(self, chunks, slots):
        from repro.simulator.events import run_event_driven
        from repro.simulator.vector import fold_chain, run_folded

        merged = _chain(CHAIN, chunks)
        expected = run_event_driven(merged, slots, sum(t.duration for t in merged) + 1)
        folded = run_folded(fold_chain(_chain(CHAIN, 2), chunks), slots)
        assert folded == expected
        assert list(folded.finish_times) == [t.name for t in merged]

    def test_tile_serial_long_chain_replays(self):
        """Tile-serial chunks run one after another, so the two-chunk
        live window recurs almost at once and the rest is replayed."""
        from repro.simulator.pipeline import binding_template
        from repro.simulator.vector import fold_chain, run_folded

        config = PipelineConfig(chunks=8192)
        folded = fold_chain(binding_template(config, "tile-serial"), config.chunks)
        stats = {}
        result = run_folded(folded, slots=1, stats=stats)
        assert stats["events"] <= 64
        assert stats["replayed"] / folded.n_tasks >= 0.99
        assert result == event_binding(config, "tile-serial")[1]

    @pytest.mark.parametrize("chunks", (749, 1024))
    def test_long_replay_expands_on_first_read(self, monkeypatch, chunks):
        """Tile-serial chains repeat an 11-completion window ``chunks -
        4`` times.  ``run_folded`` writes out no finish time: the
        makespan and ``len()`` come from the fold's log, and the first
        read expands it once.  The expanded schedule must equal the
        event core's on the built graph."""
        from repro.simulator.pipeline import binding_template
        from repro.simulator.vector import fold_chain, run_folded

        config = PipelineConfig(chunks=chunks)
        calls = _spy_expansion(monkeypatch)
        folded = fold_chain(binding_template(config, "tile-serial"), chunks)
        result = run_folded(folded, slots=1)
        assert len(result.finish_times) == folded.n_tasks
        assert calls == []  # neither the run nor len() writes anything out
        _assert_same_schedule(result, event_binding(config, "tile-serial")[1])
        assert len(calls) == 1
        assert _replays(calls[0]) == [(11, chunks - 4)]

    def test_interleaved_long_chain_replays(self):
        """The 2D front runs ahead of the ``RNV`` chain and leaves a
        growing run of idle chunks between them; split windows key the
        two fronts apart, so the steady state is replayed, exactly."""
        from repro.simulator.pipeline import binding_template
        from repro.simulator.vector import fold_chain, run_folded

        config = PipelineConfig(chunks=8192)
        folded = fold_chain(binding_template(config, "interleaved"), config.chunks)
        stats = {}
        result = run_folded(folded, slots=2, stats=stats)
        assert stats["replayed"] / folded.n_tasks >= 0.9
        assert stats["events"] <= 6000
        assert result == event_binding(config, "interleaved")[1]

    def test_shrinking_split_run_stays_exact(self):
        """The head fills ``s`` before the tail starts, leaving a short
        idle run that the faster ``b`` chain then eats: split snapshots
        match while the tail outpaces the head, and the run clamp must
        stop the replay before tail and head meet."""
        from repro.simulator.events import run_event_driven
        from repro.simulator.vector import fold_chain, run_folded

        stems = (
            ("a", "s", 9, (), ()),
            ("m", "r", 5, ("a",), ()),
            ("b", "s", 8, ("m",), ("b",)),
        )
        merged = _chain(stems, 222)
        event = run_event_driven(merged, 2, sum(t.duration for t in merged) + 1)
        _assert_same_schedule(run_folded(fold_chain(_chain(stems, 2), 222), 2), event)

    @pytest.mark.parametrize("seed", fuzz_seeds("split-fold"))
    def test_split_fold_matches_event_engine(self, seed):
        """Chains whose fronts drift apart fold through split windows:
        a long interleaved binding chain (1D- or 2D-bound by its lanes)
        and a synthetic chain (see :func:`_split_chain`).  Each must
        equal the event core on the built graph."""
        from repro.simulator.events import run_event_driven
        from repro.simulator.pipeline import binding_template
        from repro.simulator.vector import fold_chain, run_folded

        rng = random.Random(seed)
        array_dim = rng.choice((16, 64, 128, 256))
        config = PipelineConfig(
            chunks=rng.randint(150, 1200),
            embedding=rng.choice((16, 32, 64, 128)),
            array_dim=array_dim,
            pe_1d=rng.choice((array_dim, array_dim, 8, 64, 512)),
        )
        _, event = event_binding(config, "interleaved")
        template = binding_template(config, "interleaved")
        _assert_same_schedule(run_folded(fold_chain(template, config.chunks), 2), event)

        stems = _split_chain(rng)
        count = rng.randint(150, 1200)
        slots = rng.choice((2, 2, 3))
        merged = _chain(stems, count)
        event = run_event_driven(merged, slots, sum(t.duration for t in merged) + 1)
        _assert_same_schedule(run_folded(fold_chain(_chain(stems, 2), count), slots), event)

    def test_binding_point_builds_only_the_template(self, monkeypatch):
        from repro.simulator import pipeline

        real = pipeline.build_tasks

        def template_only(config, serial, prefix=""):
            assert config.chunks == 2, "the vector engine built the whole chain"
            return real(config, serial, prefix)

        point = BindingPoint("tile-serial", 64, array_dim=64)
        cycle = evaluate_binding_point(point, engine="cycle")
        monkeypatch.setattr(pipeline, "build_tasks", template_only)
        assert evaluate_binding_point(point) == cycle

    @pytest.mark.parametrize(
        "case, match",
        (
            ("duplicate", "duplicate task names"),
            ("odd", "instance 0 must equal instance 1"),
            ("duration", "instance 0 must equal instance 1"),
            ("resource", "instance 0 must equal instance 1"),
            ("order", "instance 0 must equal instance 1"),
            ("extra-dep", "instance 0 must equal instance 1"),
            ("forward-dep", "instance 0 must equal instance 1"),
            ("two-back", "reaches back more than one instance"),
            ("count", "at least one instance"),
        ),
    )
    def test_chain_lowering_rejects_invalid_templates(self, case, match):
        from repro.simulator.vector import fold_chain

        tasks = _chain(CHAIN, 2)
        size = len(CHAIN)
        count = 4
        if case == "duplicate":
            tasks[1] = replace(tasks[1], name="a[0]")
        elif case == "odd":
            tasks = tasks[:-1]
        elif case == "duration":
            tasks[0] = replace(tasks[0], duration=4)
        elif case == "resource":
            tasks[size] = replace(tasks[size], resource="s")
        elif case == "order":
            tasks[:size] = [tasks[1], tasks[0]] + tasks[2:size]
        elif case == "extra-dep":
            tasks[3] = replace(tasks[3], deps=tasks[3].deps + ("a[0]",))
        elif case == "forward-dep":
            tasks[0] = replace(tasks[0], deps=("a[1]",))
        elif case == "two-back":
            tasks[size] = replace(tasks[size], deps=("c[-1]",))
        else:
            count = 0
        with pytest.raises(ValueError, match=re.escape(match)):
            fold_chain(tasks, count)


def _fold_with_stats(template, count, slots, prefix=None):
    from repro.simulator.vector import fold_chain, run_folded

    stats = {}
    result = run_folded(fold_chain(template, count), slots, stats=stats, prefix=prefix)
    return result, stats


def _random_chain(rng, seed):
    """A chain template, its issue slots and its cycle oracle (chunk
    count -> schedule), drawn as the chain-fold and split-fold fuzzers
    draw them: a binding template of a random configuration, or a
    synthetic chain whose fronts drift apart."""
    if seed % 2:
        stems = _split_chain(rng)
        slots = rng.choice((2, 2, 3))

        def chain_oracle(count):
            merged = _chain(stems, count)
            cycle = Simulator(merged, slots=slots, engine="cycle")
            return cycle.run(max_cycles=sum(t.duration for t in merged) + 1)

        return _chain(stems, 2), slots, chain_oracle
    from repro.simulator.pipeline import binding_slots, binding_template

    binding = rng.choice(("tile-serial", "interleaved"))
    array_dim = rng.choice((16, 64, 128, 256))
    config = PipelineConfig(
        embedding=rng.choice((16, 32, 64, 128)),
        array_dim=array_dim,
        pe_1d=rng.choice((array_dim, array_dim, 8, 64, 512)),
    )

    def binding_oracle(count):
        return schedule_binding(replace(config, chunks=count), binding, engine="cycle")

    return binding_template(config, binding), binding_slots(binding), binding_oracle


#: Orders a prefix's folds arrive in; no result may depend on it.
PREFIX_ORDERS = ("ascending", "descending", "shuffled")


class TestSharedChainPrefix:
    """Folds of one chain template at many counts resume from a shared
    prefix (see "Shared chain prefixes" in ``simulator/vector.py``).
    Each must equal a fresh fold at its count, ``stats`` included, in
    whatever order the counts arrive."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        from repro.simulator.prefixes import chain_memo

        chain_memo.cache_clear()
        yield
        chain_memo.cache_clear()

    @staticmethod
    def _assert_resumes_exactly(template, slots, counts, oracle=None):
        from repro.simulator.prefixes import chain_prefix

        for count in counts:
            prefix = chain_prefix(template, slots)
            resumed, resumed_stats = _fold_with_stats(template, count, slots, prefix)
            fresh, fresh_stats = _fold_with_stats(template, count, slots)
            _assert_same_schedule(resumed, fresh)
            assert resumed_stats == fresh_stats, count
            if oracle is not None and count <= 64:
                assert resumed == oracle(count)

    @pytest.mark.parametrize("order", PREFIX_ORDERS)
    @pytest.mark.parametrize("seed", fuzz_seeds("chain-prefix"))
    def test_resumed_folds_equal_fresh_folds(self, seed, order):
        rng = random.Random(seed)
        template, slots, oracle = _random_chain(rng, seed)
        counts = rng.sample(range(1, 65), 3) + rng.sample(range(65, 900), 3)
        if order == "ascending":
            counts.sort()
        elif order == "descending":
            counts.sort(reverse=True)
        else:
            rng.shuffle(counts)
        self._assert_resumes_exactly(template, slots, counts, oracle)

    @pytest.mark.parametrize("order", PREFIX_ORDERS)
    def test_interleaved_sweep_counts_share_the_transient(self, order):
        """The default sweep's interleaved chain: counts below its first
        snapshot match resume just short of their end, and every larger
        count resumes before that match, which 256 chunks turn away (the
        repeat clamp) and 512 take."""
        from repro.simulator.pipeline import binding_template
        from repro.simulator.prefixes import chain_prefix

        counts = [16, 64, 256, 300, 512, 4096]
        if order == "descending":
            counts.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(counts)
        template = binding_template(PipelineConfig(array_dim=128, pe_1d=128), "interleaved")
        self._assert_resumes_exactly(template, 2, counts)
        prefix = chain_prefix(template, 2)
        assert prefix.resume_point(16).cursor >= 12
        assert prefix.resume_point(512).cursor >= 150

    @pytest.mark.parametrize("order", PREFIX_ORDERS)
    def test_refused_windows_bound_later_checkpoints(self, order):
        """Matches come before the first jump here, and small counts'
        repeat clamps turn them away while large counts' pass and then
        refuse the window (tail and head met); checkpoints past such a
        match serve only the counts that decide it the same way."""
        from repro.simulator.prefixes import chain_prefix

        stems = (
            ("a", "s", 11, (), ()),
            ("m0", "r", 8, ("a",), ()),
            ("m1", "t", 11, ("m0",), ()),
            ("b", "s", 8, ("m1",), ("b",)),
        )
        counts = [900, 30, 45, 600, 37]
        if order == "ascending":
            counts.sort()
        elif order == "descending":
            counts.sort(reverse=True)
        template = _chain(stems, 2)
        self._assert_resumes_exactly(template, 2, counts)
        line = chain_prefix(template, 2).checkpoints
        assert any(point.lo > 1 or point.hi < float("inf") for point in line)

    def test_resumed_folds_refresh_their_heads(self, heads_checked):
        """A resumed fold's virtual heads are those of its checkpoint's
        cursor, not of a fresh fold's."""
        from repro.simulator.pipeline import binding_template
        from repro.simulator.prefixes import chain_prefix

        template = binding_template(PipelineConfig(), "interleaved")
        self._assert_resumes_exactly(template, 2, [600, 300, 1000])
        assert chain_prefix(template, 2).resume_point(1000).cursor > 0
        assert heads_checked

    def test_slots_key_their_own_prefix(self):
        template = _chain(CHAIN, 2)
        self._assert_resumes_exactly(template, 2, [40, 9])
        self._assert_resumes_exactly(template, 3, [40, 9])
        self._assert_resumes_exactly(template, 1, [9, 40])

    def test_prefix_rejects_another_width_or_fold(self):
        from repro.simulator.prefixes import chain_prefix
        from repro.simulator.vector import fold_chain, fold_templates, run_folded

        prefix = chain_prefix(_chain(CHAIN, 2), 2)
        with pytest.raises(ValueError, match="own issue width"):
            run_folded(fold_chain(_chain(CHAIN, 2), 5), 3, prefix=prefix)
        with pytest.raises(ValueError, match="one chained class"):
            run_folded(fold_templates([(_chain(CHAIN, 1)[:1], 3)]), 2, prefix=prefix)

    def test_resumed_fold_keeps_its_own_budget(self):
        """A checkpoint past a fold's cycle budget raises the deadlock
        error a fresh fold raises."""
        from repro.simulator.prefixes import chain_prefix
        from repro.simulator.vector import fold_chain, run_folded

        stems = (("a", "s", 9, (), ()), ("m", "r", 5, ("a",), ()), ("b", "s", 8, ("m",), ("b",)))
        template = _chain(stems, 2)
        prefix = chain_prefix(template, 2)
        self._assert_resumes_exactly(template, 2, [222])
        budget = prefix.resume_point(100).now - 1
        for use in (prefix, None):
            with pytest.raises(RuntimeError, match="deadlock"):
                run_folded(fold_chain(template, 100), 2, max_cycles=budget, prefix=use)

    def test_default_sweep_misses_once_per_template(self):
        """The default sweep at ``--jobs 1`` schedules 30 distinct
        binding graphs of three chain templates (tile-serial at each
        array dim, and the interleaved one both dims share): one memo
        miss per template, a hit on every other fold."""
        from repro.simulator.prefixes import CHAIN_MEMO_SIZE, chain_memo

        binding_sweep(jobs=1)
        info = chain_memo.cache_info()
        assert (info.misses, info.hits) == (3, 27)
        assert (info.currsize, info.maxsize) == (3, CHAIN_MEMO_SIZE)


#: ``(events, replayed, jumps)`` of the folds the crosscheck, the
#: contended 64x16 BERT point and the long binding chains run.  The
#: schedule is exact whatever the fold decides, so only these counters
#: show a change to when it snapshots, checkpoints or jumps.
CROSSCHECK_FOLD_WORK = {
    "tile-serial/attn-1x64": (640, 0, 0),
    "tile-serial/attn-4x64": (2560, 0, 0),
    "tile-serial/attn-16x64": (3840, 7040, 1),
    "tile-serial/attn-4x64+dec4": (4549, 0, 0),
    "tile-serial/BERT-B4xH12-L4096": (960, 7392, 1),
    "interleaved/attn-1x64": (568, 0, 0),
    "interleaved/attn-4x64": (2287, 0, 0),
    "interleaved/attn-16x64": (9110, 0, 0),
    "interleaved/attn-4x64+dec4": (4333, 0, 0),
    "interleaved/BERT-B4xH12-L4096": (6854, 0, 0),
    "interleaved/attn-4x32+dec8@bw32": (4072, 3876, 3),
    "interleaved/attn-4x32+dec8@bw65536": (8099, 514, 1),
    "interleaved/attn-8x64@bw32": (2244, 3396, 2),
    "tile-serial/attn-4x32+dec4@bw32": (4875, 769, 2),
    "interleaved/mix-BERT+XLM-B1xH4-L4096+dec4@bw32": (2604, 544, 3),
    "interleaved/attn-8x64@bw32@buf98304": (3851, 1410, 1),
    "interleaved/attn-8x64@bw32@buf49152": (5640, 0, 0),
    "interleaved/attn-4x32+dec8@bw32@buf49152": (7564, 0, 0),
    "interleaved/attn-8x64@bw32@bufinf": (2244, 3396, 2),
}
CONTENDED_FOLD_WORK = {
    "tile-serial": (2059, 211772, 2),
    "interleaved": (5042, 176592, 3),
}
CLUSTER_FOLD_WORK = {
    "attn-8x8@x2-head@link8": (289, 0, 0),
    "attn-8x8@x2-head@link65536": (284, 0, 0),
    "attn-8x8@x2-tensor@link8": (582, 0, 0),
    "attn-8x8@x2-tensor@link65536": (573, 0, 0),
    "attn-8x8@x4-head@link8": (148, 0, 0),
    "attn-8x8@x4-head@link65536": (147, 0, 0),
    "attn-8x8@x4-tensor@link8": (561, 0, 0),
    "attn-8x8@x4-tensor@link65536": (545, 0, 0),
}
CHAIN_FOLD_WORK = {
    "interleaved": (2466, 71114, 1),
    "tile-serial": (40, 90068, 1),
}


def _fold_work(folded, slots, prefix=None):
    from repro.simulator.vector import run_folded

    stats = {}
    run_folded(folded, slots, stats=stats, prefix=prefix)
    return stats["events"], stats["replayed"], stats["jumps"]


class TestFoldWork:
    """The fold's work on the points the benchmark and the crosscheck
    run, counter for counter: a faster step must make the same
    decisions, not only the same schedule."""

    def test_crosscheck_scenario_folds(self):
        from repro.experiments.crosscheck import (
            bandwidth_scenarios,
            capacity_scenarios,
            seed_scenarios,
        )
        from repro.simulator.pipeline import fold_scenario, folded_slots

        scenarios = seed_scenarios() + bandwidth_scenarios() + capacity_scenarios()
        work = {
            f"{s.binding}/{s.name}": _fold_work(fold_scenario(s), folded_slots(s))
            for s in scenarios
        }
        assert work == CROSSCHECK_FOLD_WORK

    def test_contended_bert_folds(self):
        from repro.api import ScenarioRequest
        from repro.simulator.pipeline import fold_scenario, folded_slots

        request = ScenarioRequest(model="BERT", batch=64, heads=16, chunks=16, dram_bw=425.0)
        work = {
            s.binding: _fold_work(fold_scenario(s), folded_slots(s))
            for s in request.build_scenarios()
        }
        assert work == CONTENDED_FOLD_WORK

    def test_crosscheck_cluster_folds(self):
        from repro.cluster.build import fold_cluster
        from repro.experiments.crosscheck import cluster_points
        from repro.simulator.pipeline import folded_slots

        work = {
            f"{p.name}@link{p.spec.link_bw:g}": _fold_work(
                fold_cluster(p.scenario, p.spec, p.sharding), folded_slots(p.scenario)
            )
            for p in cluster_points()
        }
        assert work == CLUSTER_FOLD_WORK

    @pytest.mark.parametrize("binding", sorted(CHAIN_FOLD_WORK))
    def test_long_chain_folds(self, binding):
        """8192 chunks, fresh and resumed from a prefix a shorter fold
        of the same template left."""
        from repro.simulator.pipeline import binding_slots, binding_template
        from repro.simulator.prefixes import ChainPrefix
        from repro.simulator.vector import fold_chain

        template = binding_template(PipelineConfig(), binding)
        slots = binding_slots(binding)
        prefix = ChainPrefix(slots)
        _fold_work(fold_chain(template, 512), slots, prefix)
        for use in (None, prefix):
            assert _fold_work(fold_chain(template, 8192), slots, use) == CHAIN_FOLD_WORK[binding]


class TestScenarioCrossValidation:
    """Simulated schedules vs the analytical utilization estimates."""

    def test_lone_tile_serial_matches_serial_chain_exactly(self):
        """The closed-form chunk interval is the simulated schedule."""
        scenario = attention_scenario(1, 64, binding="tile-serial")
        sim = evaluate_scenario_point(scenario)
        model = analytical_scenario(scenario)
        assert model.kind == "serial-chain"
        assert model.latency_cycles == sim.makespan

    @pytest.mark.parametrize("binding", ("tile-serial", "interleaved"))
    def test_multi_instance_approaches_overlap_bound(self, binding):
        scenario = attention_scenario(8, 32, binding=binding)
        sim = evaluate_scenario_point(scenario)
        model = analytical_scenario(scenario)
        assert model.kind == "overlap-bound"
        # The bound is a true lower bound on latency...
        assert sim.makespan >= model.latency_cycles
        # ...approached within warm-up effects.
        for array in ("2d", "1d"):
            assert sim.utilization(array) <= model.utilization(array) + 1e-9
            assert sim.utilization(array) == pytest.approx(
                model.utilization(array), abs=0.02
            )

    def test_batching_hides_tile_serial_stalls(self):
        """Multi-instance contention is a modeled effect, not a scale
        factor: more tile-serial instances lift shared-array utilization
        until the serialized array edge saturates."""
        lone = evaluate_scenario_point(
            attention_scenario(1, 32, binding="tile-serial")
        )
        packed = evaluate_scenario_point(
            attention_scenario(8, 32, binding="tile-serial")
        )
        assert packed.util_2d > lone.util_2d * 1.3
        assert packed.util_io > 0.95  # fills/drains become the bottleneck

    def test_decode_mix_adds_2d_pressure(self):
        base = evaluate_scenario_point(attention_scenario(4, 32))
        mixed = evaluate_scenario_point(
            attention_scenario(4, 32, decode_instances=4, decode_chunks=64)
        )
        assert mixed.instances == 8
        assert mixed.busy_2d > base.busy_2d
        model = analytical_scenario(
            attention_scenario(4, 32, decode_instances=4, decode_chunks=64)
        )
        assert mixed.util_2d == pytest.approx(model.util_2d, abs=0.05)

    def test_crosscheck_report_all_seed_configs(self):
        from repro.experiments.crosscheck import crosscheck, render

        report = crosscheck(session=Session(cache=False))
        assert report.ok, render(report)
        bindings = {row.binding for row in report.rows}
        assert bindings == {"tile-serial", "interleaved"}
        assert "within" in render(report)

    def test_crosscheck_flags_divergence(self):
        from repro.experiments.crosscheck import crosscheck, render

        report = crosscheck(
            [attention_scenario(4, 16)], tolerance=1e-6, session=Session(cache=False)
        )
        assert not report.ok
        assert "DIVERGED" in render(report)


class TestScenarioSweep:
    """The runtime path: kind "scenario" through cache/pool/registry."""

    SCENARIOS = (
        attention_scenario(2, 8, binding="tile-serial"),
        attention_scenario(2, 8, binding="interleaved"),
    )

    def test_sweep_matches_direct_evaluation(self):
        results = scenario_sweep(self.SCENARIOS, cache=False)
        assert set(results) == set(self.SCENARIOS)
        for scenario in self.SCENARIOS:
            direct = evaluate_scenario_point(scenario)
            assert results[scenario] == direct

    def test_same_name_different_spec_both_kept(self):
        """Keys are the full Scenario spec: a shared display name can't
        shadow a computed result or cross-wire the crosscheck."""
        from repro.experiments.crosscheck import crosscheck

        small = attention_scenario(4, 16, array_dim=64, binding="tile-serial")
        large = attention_scenario(4, 16, array_dim=128, binding="tile-serial")
        assert small.name == large.name  # the collision under test
        results = scenario_sweep([small, large], cache=False)
        assert len(results) == 2
        assert results[small].makespan != results[large].makespan
        report = crosscheck([small, large], session=Session(cache=False))
        assert len(report.rows) == 4
        # Each simulation diffs its own estimate: the two scenarios'
        # rows carry distinct measured and modeled utilizations.
        small_2d, large_2d = (
            row for row in report.rows if row.array == "2d"
        )
        assert small_2d.sim_util != large_2d.sim_util
        assert small_2d.model_util != large_2d.model_util

    def test_sweep_parallel_and_cached_identical(self, tmp_path, force_pool):
        baseline = scenario_sweep(self.SCENARIOS, cache=False)
        parallel = scenario_sweep(self.SCENARIOS, jobs=2, cache=False)
        assert parallel == baseline
        disk = ResultCache(directory=tmp_path / "cache")
        populated = scenario_sweep(self.SCENARIOS, cache=disk)
        fresh = ResultCache(directory=tmp_path / "cache")
        warm = scenario_sweep(self.SCENARIOS, cache=fresh)
        assert populated == baseline and warm == baseline
        assert fresh.stats.disk_hits == len(baseline)

    def test_sweep_records_run(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        scenario_sweep(self.SCENARIOS, cache=False, registry=registry)
        record = registry.last_recorded
        assert record.kind == "scenario"
        assert record.n_results == 2
        # Configs are recorded as full describe() strings, so two
        # same-named scenarios with different specs stay attributable.
        assert all(c.startswith("attn-2x8:") for c in record.grid["configs"])
        assert len(record.grid["configs"]) == 2

    def test_run_record_distinguishes_same_named_specs(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        pair = [
            attention_scenario(2, 8, array_dim=64),
            attention_scenario(2, 8, array_dim=128),
        ]
        scenario_sweep(pair, cache=False, registry=registry)
        configs = registry.last_recorded.grid["configs"]
        assert len(configs) == 2
        assert any("64x64" in c for c in configs)
        assert any("128x128" in c for c in configs)

    def test_scenario_result_cache_codec_roundtrip(self):
        result = evaluate_scenario_point(self.SCENARIOS[0])
        assert isinstance(result, ScenarioResult)
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_scenario_emitters(self):
        results = scenario_sweep(self.SCENARIOS, cache=False)
        csv_text = scenario_csv(results)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("scenario,binding,instances")
        assert len(lines) == 1 + len(results)
        rows = json.loads(emit_rows(results, "json"))
        assert {row["binding"] for row in rows} == {
            "tile-serial", "interleaved"
        }
        assert "util_2d" in emit_rows(results, "table").splitlines()[0]


class TestSweepCLI:
    def test_simulate_engines_print_identical_output(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--chunks", "6"]) == 0  # the chunk fold
        vector_out = capsys.readouterr().out
        assert main(["simulate", "--chunks", "6", "--engine", "cycle"]) == 0
        assert capsys.readouterr().out == vector_out
        # "event" is no longer an engine name, and serve has no --engine.
        for argv, error in (
            (["simulate", "--chunks", "6", "--engine", "event"], "invalid choice: 'event'"),
            (["cluster", "--engine", "event"], "invalid choice: 'event'"),
            (["serve", "--rate", "0.5", "--engine", "vector"], "unrecognized arguments"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert error in capsys.readouterr().err

    def test_binding_requests_default_to_the_chunk_fold(self):
        import inspect

        from repro.api import (
            BindingSweepRequest,
            ClusterRequest,
            ScenarioRequest,
            ServeRequest,
        )

        from repro.api import Session

        # ``None`` records that no engine was asked for; it runs vector:
        # every default request lowers onto the runtime's vector tasks,
        # and a profiled default scenario reports the vector engine.
        session = Session(cache=False)
        for request in (
            BindingSweepRequest(chunks=(2,), array_dims=(64,)),
            ScenarioRequest(instances=1, chunks=2, array_dim=64),
            ServeRequest(rate=0.5),
            ClusterRequest(instances=2, chunks=2, array_dim=64),
        ):
            assert request.engine is None
            assert session._lower(request) is not None, request
        profiled = session.run(
            ScenarioRequest(instances=1, chunks=2, array_dim=64, profile=True)
        )
        assert {p.engine for p in profiled.provenance.profiles} == {"vector"}
        engine = inspect.signature(Simulator).parameters["engine"]
        assert engine.default == "vector"
        assert Simulator([Task("a", "r", 1)]).engine == "vector"

    def test_simulate_sweep_csv(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--sweep", "--chunks-list", "16,32",
            "--arrays", "128", "--format", "csv", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("binding,chunks,array_dim")
        assert len(out.strip().splitlines()) == 5

    def test_simulate_sweep_output_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "sweep.json"
        code = main([
            "simulate", "--sweep", "--chunks-list", "16",
            "--arrays", "128", "--format", "json",
            "--output", str(target), "--no-cache",
        ])
        assert code == 0
        assert "sweep.json" in capsys.readouterr().out
        rows = json.loads(target.read_text())
        assert len(rows) == 2

    def test_simulate_sweep_bad_chunks_list(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--sweep", "--chunks-list", "16,banana"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_simulate_sweep_bad_arrays(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--sweep", "--arrays", "x"]) == 2
        assert "--arrays" in capsys.readouterr().err

    def test_simulate_sweep_nonpositive_axis_values(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--sweep", "--pe1d-list", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert main(["simulate", "--sweep", "--embeddings", "-64"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_simulate_sweep_rejects_cycle_engine(self, capsys):
        from repro.cli import main

        code = main(["simulate", "--sweep", "--engine", "cycle",
                     "--chunks-list", "16"])
        assert code == 2
        assert "folded vector core" in capsys.readouterr().err

    def test_simulate_sweep_new_axes(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--sweep", "--chunks-list", "16",
            "--arrays", "128", "--pe1d-list", "64,128",
            "--embeddings", "32", "--format", "csv", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 4  # 2 pe1d x 2 bindings
        assert ",64,32," in out and ",128,32," in out

    def test_simulate_scenario_engines_identical(self, capsys):
        from repro.cli import main

        base = ["simulate", "--scenario", "--instances", "2",
                "--chunks", "4", "--array-dim", "32", "--no-cache"]
        assert main(base) == 0
        vector_out = capsys.readouterr().out
        assert main(base + ["--engine", "cycle"]) == 0
        assert capsys.readouterr().out == vector_out
        assert "interleaved" in vector_out and "tile-serial" in vector_out

    def test_simulate_scenario_from_model(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--scenario", "--model", "BERT", "--batch", "2",
            "--heads", "2", "--chunks", "4", "--binding", "interleaved",
            "--format", "json", "--no-cache",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["instances"] == 4
        assert rows[0]["scenario"] == "BERT-B2xH2-L1024"

    def test_simulate_scenario_rejects_model_plus_instances(self, capsys):
        from repro.cli import main

        code = main(["simulate", "--scenario", "--model", "BERT",
                     "--instances", "4"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_simulate_scenario_unknown_model(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--scenario", "--model", "GPT"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_simulate_scenario_cycle_rejects_runtime_flags(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        code = main(["simulate", "--scenario", "--instances", "2",
                     "--chunks", "4", "--engine", "cycle",
                     "--registry", str(tmp_path)])
        assert code == 2
        assert "runtime-backed" in capsys.readouterr().err
        code = main(["simulate", "--scenario", "--instances", "2",
                     "--chunks", "4", "--engine", "cycle", "--jobs", "8"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_simulate_scenario_negative_decode_instances(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--scenario", "--instances", "2",
                  "--decode-instances", "-2"])
        assert exit_info.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_mode_specific_flags_rejected_outside_their_mode(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--pe1d", "128"]) == 2
        assert "requires --scenario" in capsys.readouterr().err
        assert main(["simulate", "--embeddings", "32"]) == 2
        assert "requires --sweep" in capsys.readouterr().err
        # Cross-field rules now surface from the typed requests'
        # validate() (field vocabulary, not flag vocabulary).
        assert main(["simulate", "--scenario", "--instances", "2",
                     "--decode-chunks", "8"]) == 2
        assert "requires decode_instances" in capsys.readouterr().err
        assert main(["simulate", "--scenario", "--batch", "8"]) == 2
        assert "requires model" in capsys.readouterr().err
        assert main(["simulate", "--scenario", "--instances", "2",
                     "--binding", "tile-serial", "--slots", "4"]) == 2
        assert "interleaved binding only" in capsys.readouterr().err
        assert main(["simulate", "--sweep", "--chunks-list", "16",
                     "--array-dim", "512"]) == 2
        assert "use --arrays" in capsys.readouterr().err
        assert main(["simulate", "--sweep", "--chunks", "16"]) == 2
        assert "use --chunks-list" in capsys.readouterr().err
        assert main(["simulate", "--format", "csv"]) == 2
        assert "requires --sweep or --scenario" in capsys.readouterr().err
        assert main(["simulate", "--output", "x.csv"]) == 2
        assert "--output requires" in capsys.readouterr().err
        assert main(["simulate", "--jobs", "8"]) == 2
        assert "--jobs requires" in capsys.readouterr().err

    def test_crosscheck_cli(self, capsys):
        from repro.cli import main

        assert main(["crosscheck", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "within" in out and "DIVERGED" not in out

    def test_crosscheck_strict_flags_divergence(self, capsys):
        from repro.cli import main

        assert main(["crosscheck", "--tolerance", "0.000001",
                     "--strict", "--no-cache"]) == 1
        assert "DIVERGED" in capsys.readouterr().out
