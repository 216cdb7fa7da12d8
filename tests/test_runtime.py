"""Tests for the runtime subsystem: executor, cache, and registry."""

import dataclasses
import hashlib
import json
import multiprocessing
import typing
from pathlib import Path

import pytest

from repro.api import CrosscheckRequest, ExperimentRequest, Session
from repro.api import session as session_module
from repro.experiments import crosscheck
from repro.experiments.report import full_report
from repro.cluster import ClusterPoint, ClusterSpec, build_cluster_tasks
from repro.cluster import build as cluster_build
from repro.model import UnfusedModel, fusemax
from repro.runtime import (
    RESULT_TYPES,
    EvalTask,
    FaultPlan,
    FaultSpec,
    ResultCache,
    RetryPolicy,
    RunRegistry,
    TaskError,
    TaskFailure,
    attention_grid,
    binding_grid,
    cache_key,
    cluster_grid,
    decode_result,
    encode_result,
    evaluate_task,
    execute_tasks,
    pareto_grid,
    resolve_cache,
    result_digest,
    scenario_grid,
    scenario_grid_tasks,
    serving_grid,
)
from repro.runtime import cache as cache_module
from repro.runtime import executor
from repro.runtime.executor import KINDS
from repro.serving import Arrival, ServingSpec, poisson_arrivals
from repro.simulator import (
    PipelineConfig,
    ScenarioGridCell,
    build_scenario_tasks,
    build_tasks,
    evaluate_binding_point,
    pipeline,
)
from repro.workloads import BERT, MODELS, SEQUENCE_LENGTHS, T5
from repro.workloads.scenario import Phase, Scenario, attention_scenario, schedule_form


def serving_spec(**overrides):
    defaults = dict(
        name="serve-test",
        arrivals=poisson_arrivals(0.5, 8192, seed=1, chunks=2, decode_tokens=1),
        array_dim=64,
        rate=0.5,
    )
    defaults.update(overrides)
    return ServingSpec(**defaults)

SHORT = (1024, 65536)


def evaluate_first(tasks):
    return evaluate_task(tasks[0])


#: One evaluated instance of every type in the codec's closed set.
CODEC_SAMPLES = {
    "AttentionResult": lambda: evaluate_task(EvalTask("attention", UnfusedModel(), BERT, 4096)),
    "InferenceResult": lambda: evaluate_task(EvalTask("inference", fusemax(), BERT, 4096)),
    "DesignPoint": lambda: evaluate_task(EvalTask("pareto", 64, BERT, 4096)),
    "BindingResult": lambda: evaluate_first(binding_grid(chunks=(16,), array_dims=(64,))),
    "ScenarioResult": lambda: evaluate_first(
        scenario_grid([attention_scenario(2, 4, array_dim=64, dram_bw=32.0)])
    ),
    "ScenarioGridResult": lambda: evaluate_first(
        scenario_grid_tasks(
            [ScenarioGridCell(attention_scenario(2, 4, array_dim=64), model="BERT", batch=2)]
        )
    ),
    "ServingResult": lambda: evaluate_first(serving_grid([serving_spec(deadline=4000)])),
    "ClusterResult": lambda: evaluate_first(
        cluster_grid(
            [ClusterPoint(attention_scenario(4, 4, array_dim=64), ClusterSpec(2, link_bw=64.0))]
        )
    ),
    "TaskFailure": lambda: TaskFailure(index=3, kind="binding", error="boom", attempts=2),
    "EnergyBreakdown": lambda: CODEC_SAMPLES["AttentionResult"]().energy,
    "RequestMetrics": lambda: CODEC_SAMPLES["ServingResult"]().requests[0],
}


#: A few tasks of every kind the executor keys.
KEYED_TASKS = {
    "attention": lambda: attention_grid([BERT, T5], SHORT),
    "inference": lambda: attention_grid([BERT], SHORT, kind="inference"),
    "pareto": lambda: pareto_grid([BERT, T5], dims=(64, 128)),
    "binding": lambda: binding_grid(chunks=(16, 64), array_dims=(64, 128)),
    "scenario": lambda: scenario_grid(
        [attention_scenario(2, 4, array_dim=64), attention_scenario(2, 4, dram_bw=32.0)]
    ),
    "scenario_grid": lambda: scenario_grid_tasks(
        [ScenarioGridCell(attention_scenario(2, 4, array_dim=64), model="BERT", batch=b)
         for b in (1, 2)]
    ),
    "serve": lambda: serving_grid([serving_spec(), serving_spec(deadline=4000)]),
    "cluster": lambda: cluster_grid(
        [ClusterPoint(attention_scenario(4, 4, array_dim=64), ClusterSpec(n, link_bw=64.0))
         for n in (1, 2)]
    ),
}


def pooled_passes(monkeypatch):
    """Whether each pass a session runs from here on pooled, in order."""
    pooled = []
    run_pass = session_module.execute_tasks

    def recorded(*args, **kwargs):
        outcome = run_pass(*args, **kwargs)
        pooled.append(outcome.pooled)
        return outcome

    monkeypatch.setattr(session_module, "execute_tasks", recorded)
    return pooled


@pytest.fixture
def no_fork(monkeypatch):
    """Fail any pass that builds a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pass forked a process pool")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)


def stored_files(cache_dir):
    """Every file a disk cache holds, by relative path, with its bytes."""
    return {
        path.relative_to(cache_dir).as_posix(): path.read_bytes()
        for path in cache_dir.rglob("*")
        if path.is_file()
    }


@pytest.mark.usefixtures("force_pool")
class TestParallelEqualsSerial:
    """The pooled path returns what the inline path does.  Analytical
    and binding passes run inline at any ``jobs``, so these force the
    pool (``force_pool``) and check that the pass took it."""

    def test_attention_full_grid(self):
        serial = execute_tasks(attention_grid(), cache=False).results
        outcome = execute_tasks(attention_grid(), cache=False, jobs=4)
        parallel = outcome.results
        assert outcome.pooled is True
        assert serial == parallel  # same order, bit-identical fields

    def test_inference_full_grid(self):
        tasks = attention_grid(kind="inference")
        serial = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(tasks, cache=False, jobs=4)
        assert outcome.pooled is True
        assert serial == outcome.results

    def test_pareto_full_grid(self):
        serial = execute_tasks(pareto_grid(), cache=False).results
        outcome = execute_tasks(pareto_grid(), cache=False, jobs=4)
        assert outcome.pooled is True
        assert serial == outcome.results

    def test_full_report_byte_identical(self, monkeypatch):
        """Uncached, so the jobs=4 report runs its passes rather than
        reading the shared default cache the serial one filled."""
        serial = full_report(Session(jobs=1, cache=False))
        pooled = pooled_passes(monkeypatch)
        assert serial == full_report(Session(jobs=4, cache=False))
        assert pooled == [True, True, True]

    def test_execute_tasks_preserves_order(self):
        tasks = attention_grid((BERT, T5), SHORT)
        serial = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(tasks, jobs=3, cache=False)
        parallel = outcome.results
        assert outcome.pooled is True
        assert serial == parallel
        assert [r.config for r in serial] == [t.config.name for t in tasks]

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            execute_tasks(attention_grid((BERT,), SHORT), jobs=0)

    def test_pooled_pass_joins_its_workers(self):
        before = set(multiprocessing.active_children())
        outcome = execute_tasks(attention_grid((BERT, T5), SHORT), jobs=2, cache=False)
        assert outcome.pooled is True
        assert set(multiprocessing.active_children()) <= before

    def test_pooled_binding_sweep_stores_what_inline_stores(self, tmp_path):
        """Pooled batches change the order results are put, never
        what is stored: the same cache files with the same bytes, and
        the same registry digest, as a serial run."""
        stored = {}
        digests = {}
        for jobs in (1, 2):
            cache_dir = tmp_path / f"cache-{jobs}"
            registry = RunRegistry(tmp_path / f"runs-{jobs}")
            session = Session(jobs=jobs, cache_dir=cache_dir, registry=registry)
            outcome = session.evaluate(
                "binding", binding_grid((16, 64, 1024), array_dims=(64, 128))
            )
            assert outcome.pooled is (jobs > 1)
            stored[jobs] = stored_files(cache_dir)
            digests[jobs] = registry.latest().result_digest
        assert len(stored[1]) == 12
        assert stored[2] == stored[1]
        assert digests[2] == digests[1]

    @pytest.mark.parametrize(
        "chunks, arrays",
        [("16,64,1024", "128"), ("16,64,1024", "128,256"), ("1024,64,16,512", "128")],
    )
    def test_pooled_cli_sweep_prints_the_serial_rows(self, chunks, arrays, capsys, monkeypatch):
        """The grids of CI's binding-sweep smoke step, pooled: the rows
        equal the serial sweep's, and the unordered counts give the
        ascending run's rows."""
        from repro.cli import main

        def sweep(counts, jobs):
            argv = ["simulate", "--sweep", "--chunks-list", counts, "--arrays", arrays,
                    "--jobs", str(jobs), "--format", "csv", "--no-cache"]
            assert main(argv) == 0
            return capsys.readouterr().out

        ascending = ",".join(map(str, sorted(int(c) for c in chunks.split(","))))
        serial = sweep(ascending, 1)
        pooled = pooled_passes(monkeypatch)
        rows = sweep(chunks, 2)
        assert pooled == [True]
        if chunks == ascending:
            assert rows == serial
        else:
            assert sorted(rows.splitlines()) == sorted(serial.splitlines())


class TestPoolRule:
    """Only passes the pool pays back fork it (``executor._POOLED_KINDS``):
    analytical and binding passes run inline at any ``jobs``, simulated
    scenario, cluster and serving passes pool, and a fault plan or a
    task timeout keeps any pass of two pending tasks pooled."""

    def test_default_binding_sweep_runs_inline(self, tmp_path, monkeypatch, no_fork):
        from repro.api import BindingSweepRequest

        pooled = pooled_passes(monkeypatch)
        runs = {}
        for jobs in (1, 2):
            cache_dir = tmp_path / f"cache-{jobs}"
            registry = RunRegistry(tmp_path / f"runs-{jobs}")
            session = Session(jobs=jobs, cache_dir=cache_dir, registry=registry)
            payload = session.run(BindingSweepRequest()).payload
            runs[jobs] = payload, stored_files(cache_dir), registry.latest().result_digest
        assert pooled == [False, False]
        assert runs[2] == runs[1]
        assert len(runs[1][1]) == 40
        assert runs[1][2] == "bede694f4cab4b45"

    @pytest.mark.parametrize("kind", ["attention", "pareto"])
    def test_analytical_grid_runs_inline(self, kind, tmp_path, no_fork):
        grid = attention_grid() if kind == "attention" else pareto_grid()
        runs = {}
        for jobs in (1, 4):
            cache_dir = tmp_path / f"cache-{jobs}"
            registry = RunRegistry(tmp_path / f"runs-{jobs}")
            session = Session(jobs=jobs, cache_dir=cache_dir, registry=registry)
            outcome = session.evaluate(kind, grid)
            assert outcome.pooled is False
            runs[jobs] = outcome.results, stored_files(cache_dir), registry.latest().result_digest
        assert runs[4] == runs[1]
        assert len(runs[1][1]) == len(grid)

    @pytest.mark.parametrize("kind", ["scenario", "scenario_grid", "cluster", "serve"])
    def test_simulated_passes_pool(self, kind):
        tasks = KEYED_TASKS[kind]()
        serial = execute_tasks(tasks, cache=False)
        outcome = execute_tasks(tasks, jobs=2, cache=False)
        assert (serial.pooled, outcome.pooled) == (False, True)
        assert outcome.results == serial.results

    @pytest.mark.parametrize(
        "policy",
        [
            dict(retry=RetryPolicy(max_attempts=2), faults=FaultPlan(faults=(FaultSpec(1, 1),))),
            dict(retry=RetryPolicy(task_timeout_s=60.0)),
        ],
        ids=["fault-plan", "task-timeout"],
    )
    def test_fault_policy_keeps_the_pool(self, policy):
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(tasks, jobs=2, cache=False, **policy)
        assert outcome.pooled is True
        assert outcome.results == clean

    @pytest.mark.parametrize("case", ["one task", "one schedule", "one miss"])
    def test_single_pending_task_never_forks(self, case, no_fork):
        """One pending representative runs inline even where two would
        pool: a lone serving spec, points that share one schedule, or a
        pass whose other point the cache holds."""
        cache = False
        if case == "one task":
            tasks = serving_grid([serving_spec()])
        elif case == "one schedule":
            tasks = binding_grid(chunks=(16,), bindings=("interleaved",), array_dims=(128, 256))
        else:
            tasks = KEYED_TASKS["scenario"]()
            cache = ResultCache()
            cache.put(tasks[0].cache_key({}), evaluate_task(tasks[0]))
        outcome = execute_tasks(
            tasks,
            jobs=4,
            cache=cache,
            retry=RetryPolicy(max_attempts=2, task_timeout_s=60.0),
            faults=FaultPlan(faults=()),
        )
        assert outcome.pooled is False
        assert outcome.results == [evaluate_task(t) for t in tasks]


#: The grid of ``test_pooled_binding_sweep_stores_what_inline_stores``:
#: tile-serial and interleaved at 3 chunk counts and array dims 64 and
#: 128, matched lanes.
SHARED_GRID = dict(chunks=(16, 64, 1024), array_dims=(64, 128))


def scheduled_graph(task):
    """What ``task``'s scheduler reads, built without its schedule key:
    a binding point's two-chunk template from :func:`build_tasks` with
    its chunks and binding, a scenario or cluster point's merged graph
    with its binding and slots."""
    point = task.config
    if task.kind == "binding":
        serial = point.binding == "tile-serial"
        config = PipelineConfig(
            chunks=2,
            embedding=point.embedding,
            array_dim=point.array_dim,
            pe_1d=point.resolved_pe_1d,
        )
        template = tuple(
            (t.name, t.resource, t.duration, t.deps) for t in build_tasks(config, serial)
        )
        return template, point.chunks, serial
    if task.kind == "scenario":
        scenario, graph = point, build_scenario_tasks(point)
    else:
        scenario = point.scenario
        graph = build_cluster_tasks(scenario, point.spec, point.sharding)
    return tuple(map(dataclasses.astuple, graph)), scenario.binding, scenario.slots


def schedule_groups(tasks):
    """Indices of ``tasks`` grouped by an independently built key,
    :func:`scheduled_graph`."""
    groups = {}
    for i, task in enumerate(tasks):
        groups.setdefault(scheduled_graph(task), []).append(i)
    return list(groups.values())


#: The function each keyed kind's evaluation schedules through, as
#: ``(module, name)``.
SCHEDULERS = {
    "binding": (pipeline, "schedule_binding"),
    "scenario": (pipeline, "schedule_scenario_tasks"),
    "cluster": (cluster_build, "schedule_cluster_tasks"),
}


def spy_schedules(monkeypatch, kind="binding"):
    """Record the arguments of every schedule of a ``kind`` point made
    in-process."""
    calls = []
    module, name = SCHEDULERS[kind]
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


#: The crosscheck's ``attn-8x64@bw32`` points: the bandwidth point, the
#: capacity points at two finite buffers, and the ``@bufinf`` control,
#: which is the bandwidth point's schedule.
CROSSCHECK_BUFFERS = [
    scenario
    for scenario in crosscheck.bandwidth_scenarios() + crosscheck.capacity_scenarios()
    if scenario.name.startswith("attn-8x64@bw32")
]

#: One chip is one schedule at any link setting, and an infinite link
#: on two chips is no link.
LINK_POINTS = [
    ClusterPoint(attention_scenario(4, 8, array_dim=64), ClusterSpec(**spec))
    for spec in (
        dict(n_chips=1),
        dict(n_chips=1, link_bw=64.0, link_latency=4),
        dict(n_chips=2),
        dict(n_chips=2, link_bw=float("inf"), link_latency=4),
        dict(n_chips=2, link_bw=64.0),
    )
]


class TestSharedSchedules:
    """Points with equal binding graphs are scheduled once per pass."""

    def test_matched_interleaved_points_schedule_once(self, monkeypatch):
        calls = spy_schedules(monkeypatch)
        rows = execute_tasks(binding_grid(**SHARED_GRID), cache=False).results
        assert len(rows) == 12
        assert len(calls) == 9
        # Only the interleaved points at dim 64 ran; dim 128's reused them.
        assert {c.array_dim for c, b in calls if b == "interleaved"} == {64}
        outcome = execute_tasks(binding_grid(**SHARED_GRID), cache=False)
        assert outcome.attempts == 9

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_per_point_evaluation(self, jobs, force_pool):
        tasks = binding_grid(**SHARED_GRID)
        outcome = execute_tasks(tasks, jobs=jobs, cache=False)
        assert outcome.pooled is (jobs > 1)
        assert outcome.results == [evaluate_binding_point(t.config) for t in tasks]
        assert outcome.attempts == 9

    @pytest.mark.parametrize("held", ["representative", "member"])
    def test_cache_holding_one_row_of_a_group(self, held):
        tasks = binding_grid(**SHARED_GRID)
        clean = execute_tasks(tasks, cache=False).results
        rep, member = next(group for group in schedule_groups(tasks) if len(group) > 1)
        index = rep if held == "representative" else member
        cache = ResultCache()
        cache.put(cache_key(tasks[index].fingerprint()), clean[index])
        outcome = execute_tasks(tasks, cache=cache)
        assert outcome.results == clean
        assert outcome.attempts == 8  # the cached row stands in for the group's schedule
        assert cache.stats.hits == 1
        assert cache.stats.puts == len(tasks)  # rows built from the hit are cached too

    @pytest.mark.parametrize(
        "grid, schedules",
        [
            # Tile-serial fill and drain grow with the array dim.
            (binding_grid(chunks=(16, 64), bindings=("tile-serial",), array_dims=(64, 128)), 4),
            # Unmatched lanes: 1D tasks at dim 128 take twice dim 64's cycles.
            (binding_grid(chunks=(16, 64), array_dims=(64, 128), pe_1d_dims=(64,)), 8),
            (binding_grid(chunks=(16,), array_dims=(64,), embeddings=(32, 64)), 4),
            # Equal lane ratios (128/64, 256/128) give equal templates.
            (
                binding_grid(
                    chunks=(16,),
                    bindings=("interleaved",),
                    array_dims=(128, 256),
                    pe_1d_dims=(64, 128),
                ),
                3,
            ),
            (scenario_grid(CROSSCHECK_BUFFERS), 3),
            (cluster_grid(LINK_POINTS), 3),
        ],
    )
    def test_sharing_follows_the_graph(self, grid, schedules, monkeypatch):
        """The executor shares exactly where graphs built in this test
        are equal, and a shared row equals the member's own."""
        groups = schedule_groups(grid)
        assert len(groups) == schedules
        keyed = {}
        for i, task in enumerate(grid):
            keyed.setdefault(task.schedule_key(), []).append(i)
        assert sorted(keyed.values()) == sorted(groups)
        calls = spy_schedules(monkeypatch, grid[0].kind)
        rows = execute_tasks(grid, cache=False).results
        assert len(calls) == schedules
        assert rows == [evaluate_task(t) for t in grid]

    def test_identities_map_to_one_key(self):
        """Each degenerate identity maps a pair of points to one key,
        and inputs that change the schedule keep their keys apart."""
        inf = float("inf")
        base = attention_scenario(2, 4, array_dim=64, dram_bw=32.0)
        linked = ClusterSpec(n_chips=2, link_bw=64.0, link_latency=4)

        def scen(**changes):
            return dataclasses.replace(base, **changes)

        def chip(spec=linked, scenario=base, sharding="head", **changes):
            return ClusterPoint(scenario, dataclasses.replace(spec, **changes), sharding)

        unlinked = ClusterSpec(n_chips=2)
        one_key = [
            (scen(), scen(name="renamed")),
            (scen(dram_bw=None), scen(dram_bw=inf)),
            (scen(), scen(buffer_bytes=inf)),
            (chip(ClusterSpec()), chip(n_chips=1)),
            (chip(unlinked), chip(link_bw=inf)),
            (chip(unlinked), chip(link_bw=None)),
            (chip(), chip(scenario=scen(name="renamed", buffer_bytes=inf))),
        ]
        for a, b in one_key:
            assert a.schedule_key() == b.schedule_key(), (a, b)
        apart = [
            scen(),
            scen(dram_bw=None),
            scen(dram_bw=64.0),
            scen(buffer_bytes=49152.0),
            scen(binding="tile-serial"),
            chip(ClusterSpec()),
            chip(unlinked),
            chip(),
            chip(link_latency=0),
            chip(link_bw=32.0),
            chip(sharding="tensor"),
            chip(ClusterSpec(), scenario=scen(dram_bw=None)),
        ]
        assert len({point.schedule_key() for point in apart}) == len(apart)
        # Serving has no key, but builds its graph from the same form.
        serving = serving_spec(n_chips=2, link_bw=64.0, link_latency=4)

        def serve(**changes):
            return dataclasses.replace(serving, **changes)

        alone = serve(n_chips=1, link_bw=None, link_latency=0)
        for a, b in [
            (serve(), serve(name="renamed")),
            (serve(link_bw=None), serve(link_bw=inf)),
            (alone, serve(n_chips=1)),
            (serve(dram_bw=None), serve(dram_bw=inf)),
            (serve(), serve(buffer_bytes=inf)),
        ]:
            assert schedule_form(a) == schedule_form(b), (a, b)
        assert schedule_form(serving) != schedule_form(serve(link_bw=None))

    def test_other_kinds_have_no_key(self):
        assert all(t.schedule_key() is None for t in attention_grid((BERT,), SHORT))
        assert serving_grid([serving_spec()])[0].schedule_key() is None


class TestSharedScheduleFaults:
    """A shared group's representative carries the group's faults.  A
    fault plan keeps a pass pooled, so the jobs=2 cases run pooled."""

    def group(self, tasks):
        return next(group for group in schedule_groups(tasks) if len(group) > 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_recovered_representative_shares_its_row(self, jobs):
        tasks = binding_grid(**SHARED_GRID)
        clean = execute_tasks(tasks, cache=False).results
        rep = self.group(tasks)[0]
        outcome = execute_tasks(
            tasks,
            jobs=jobs,
            cache=False,
            retry=RetryPolicy(max_attempts=2),
            faults=FaultPlan(faults=(FaultSpec(rep, 1, "raise"),)),
        )
        assert outcome.pooled is (jobs > 1)
        assert outcome.results == clean
        assert outcome.recovered == 1
        assert outcome.attempts == 9 + 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_representative_fails_every_member(self, jobs):
        tasks = binding_grid(**SHARED_GRID)
        clean = execute_tasks(tasks, cache=False).results
        group = self.group(tasks)
        outcome = execute_tasks(
            tasks,
            jobs=jobs,
            cache=False,
            on_error="skip",
            faults=FaultPlan(faults=(FaultSpec(group[0], 1, "raise"),)),
        )
        assert outcome.pooled is (jobs > 1)
        assert [failure.index for failure in outcome.failures] == group
        for i in group:
            assert isinstance(outcome.results[i], TaskFailure)
            assert outcome.results[i].index == i
            assert "InjectedFault" in outcome.results[i].error
        kept = [i for i in range(len(tasks)) if i not in group]
        assert [outcome.results[i] for i in kept] == [clean[i] for i in kept]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_names_the_representative(self, jobs):
        tasks = binding_grid(**SHARED_GRID)
        rep = self.group(tasks)[0]
        with pytest.raises(TaskError) as excinfo:
            execute_tasks(
                tasks, jobs=jobs, cache=False, faults=FaultPlan(faults=(FaultSpec(rep, 1),))
            )
        assert excinfo.value.failure.index == rep


class TestGrids:
    def test_attention_grid_shape(self):
        assert len(attention_grid()) == 5 * len(MODELS) * len(SEQUENCE_LENGTHS)

    def test_pareto_grid_shape(self):
        assert len(pareto_grid()) == len(MODELS) * 6

    def test_unknown_kind_rejected(self):
        task = EvalTask("nope", UnfusedModel(), BERT, 1024)
        with pytest.raises(ValueError):
            evaluate_task(task)


class TestCacheKey:
    def test_stable_across_equal_inputs(self):
        a = EvalTask("attention", UnfusedModel(), BERT, 1024)
        b = EvalTask("attention", UnfusedModel(), BERT, 1024)
        assert cache_key(a.fingerprint()) == cache_key(b.fingerprint())

    def test_distinguishes_grid_points(self):
        base = EvalTask("attention", UnfusedModel(), BERT, 1024)
        others = [
            EvalTask("inference", UnfusedModel(), BERT, 1024),
            EvalTask("attention", fusemax(), BERT, 1024),
            EvalTask("attention", UnfusedModel(), T5, 1024),
            EvalTask("attention", UnfusedModel(), BERT, 4096),
            EvalTask("attention", UnfusedModel(), BERT, 1024, batch=1),
        ]
        keys = {cache_key(t.fingerprint()) for t in [base] + others}
        assert len(keys) == len(others) + 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_pass_key_equals_generic_key(self, kind):
        """The executor's key is the generic key of the fingerprint, so
        cache addresses do not depend on which path computed them."""
        tasks = KEYED_TASKS[kind]()
        assert {task.kind for task in tasks} == {kind}
        memo = {}
        keys = [task.cache_key(memo) for task in tasks]
        assert keys == [cache_key(task.fingerprint()) for task in tasks]
        assert len(set(keys)) == len(tasks)

    def test_key_bytes_are_pinned(self, monkeypatch):
        task = EvalTask("attention", UnfusedModel(), BERT, 1024)
        pinned = "598b9b34d88316474fffcec9a6bf8f47fc229069a34d28137c7541994447be0b"
        assert cache_key(task.fingerprint(), version="pinned") == pinned
        monkeypatch.setattr(cache_module, "_CODE_VERSION", "pinned")
        assert task.cache_key({}) == pinned

    def test_code_version_invalidates(self):
        task = EvalTask("attention", UnfusedModel(), BERT, 1024)
        assert cache_key(task.fingerprint(), version="a") != cache_key(
            task.fingerprint(), version="b"
        )


class TestScenarioCacheKey:
    """Cache-key completeness: every Scenario field is load-bearing."""

    BASE = Scenario(
        name="base",
        phases=(Phase("prefill", 4, 16), Phase("decode", 2, 8)),
        binding="interleaved",
        embedding=64,
        array_dim=256,
        pe_1d=None,
        slots=2,
        model=None,
    )

    @staticmethod
    def _key(scenario):
        (task,) = scenario_grid([scenario])
        return cache_key(task.fingerprint(), version="pinned")

    def _assert_changed(self, mutated):
        assert self._key(mutated) != self._key(self.BASE)

    def test_every_field_mutation_changes_key(self):
        """Walk the dataclass fields so a future field can't silently
        escape the fingerprint."""
        mutations = {
            "name": "other",
            "phases": (Phase("prefill", 4, 16),),
            "binding": "tile-serial",
            "embedding": 32,
            "array_dim": 128,
            "pe_1d": 128,
            "slots": 3,
            "model": "BERT",
            "dram_bw": 64.0,
            "buffer_bytes": 65536.0,
            "qos": "decode-first",
        }
        declared = {f.name for f in dataclasses.fields(Scenario)}
        assert set(mutations) == declared, "new Scenario field without a cache-key mutation test"
        for field, value in mutations.items():
            self._assert_changed(dataclasses.replace(self.BASE, **{field: value}))

    def test_phase_mix_changes_key(self):
        more_instances = dataclasses.replace(
            self.BASE,
            phases=(Phase("prefill", 5, 16), Phase("decode", 2, 8)),
        )
        longer = dataclasses.replace(
            self.BASE,
            phases=(Phase("prefill", 4, 32), Phase("decode", 2, 8)),
        )
        swapped_kind = dataclasses.replace(
            self.BASE,
            phases=(Phase("decode", 4, 16), Phase("prefill", 2, 8)),
        )
        # Per-phase mixed-model overrides are part of the identity too.
        wider_phase = dataclasses.replace(
            self.BASE,
            phases=(Phase("prefill", 4, 16, embedding=128), Phase("decode", 2, 8)),
        )
        modeled_phase = dataclasses.replace(
            self.BASE,
            phases=(Phase("prefill", 4, 16, model="XLM"), Phase("decode", 2, 8)),
        )
        # Per-phase DRAM priority is part of the identity: it reorders
        # emission, hence arbitration, hence the schedule.
        prioritized_phase = dataclasses.replace(
            self.BASE,
            phases=(Phase("prefill", 4, 16), Phase("decode", 2, 8, dram_priority=1)),
        )
        keys = {
            self._key(s)
            for s in (self.BASE, more_instances, longer, swapped_kind,
                      wider_phase, modeled_phase, prioritized_phase)
        }
        assert len(keys) == 7

    def test_equal_scenarios_share_key(self):
        twin = Scenario(
            name="base",
            phases=(Phase("prefill", 4, 16), Phase("decode", 2, 8)),
        )
        assert self._key(twin) == self._key(self.BASE)


class TestServingCacheKey:
    """Cache-key completeness for the serve kind: every ServingSpec
    field is load-bearing, and a rerun of the same spec is a hit."""

    BASE = ServingSpec(
        name="base",
        arrivals=(Arrival(0, 2, 1), Arrival(64, 2, 1)),
        array_dim=64,
    )

    @staticmethod
    def _key(spec):
        (task,) = serving_grid([spec])
        return cache_key(task.fingerprint(), version="pinned")

    def test_every_field_mutation_changes_key(self):
        mutations = {
            "name": "other",
            "arrivals": (Arrival(0, 2, 1),),
            "binding": "tile-serial",
            "embedding": 32,
            "array_dim": 128,
            "pe_1d": 128,
            "slots": 3,
            "max_inflight": 4,
            "deadline": 5000,
            "dram_bw": 64.0,
            "n_chips": 2,
            "link_bw": 128.0,
            "link_latency": 6,
            "rate": 0.5,
            "buffer_bytes": 65536.0,
            "qos": "decode-first",
        }
        declared = {f.name for f in dataclasses.fields(ServingSpec)}
        assert set(mutations) == declared, "new ServingSpec field without a cache-key mutation test"
        for field, value in mutations.items():
            mutated = dataclasses.replace(self.BASE, **{field: value})
            assert self._key(mutated) != self._key(self.BASE), field

    def test_arrival_payload_changes_key(self):
        shifted = dataclasses.replace(self.BASE, arrivals=(Arrival(0, 2, 1), Arrival(65, 2, 1)))
        heavier = dataclasses.replace(self.BASE, arrivals=(Arrival(0, 2, 1), Arrival(64, 4, 1)))
        chattier = dataclasses.replace(self.BASE, arrivals=(Arrival(0, 2, 1), Arrival(64, 2, 3)))
        keys = {self._key(s) for s in (self.BASE, shifted, heavier, chattier)}
        assert len(keys) == 4

    def test_serve_cache_hit_on_rerun(self, tmp_path):
        spec = serving_spec()
        cache = ResultCache(directory=tmp_path)
        first = execute_tasks(serving_grid([spec]), cache=cache).results
        assert cache.stats.misses == 1 and cache.stats.puts == 1
        again = execute_tasks(serving_grid([spec]), cache=cache).results
        assert cache.stats.memory_hits == 1
        assert again == first
        fresh = ResultCache(directory=tmp_path)  # cold memory, warm disk
        from_disk = execute_tasks(serving_grid([spec]), cache=fresh).results
        assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0
        assert from_disk == first


class TestEngineAgnosticIdentity:
    """Scenario points on the vector engine's fold through the pooled
    executor: injected faults cost attempts, never payloads."""

    def test_fault_plan_composes_with_vector_engine(self):
        scenarios = [attention_scenario(2 + i, 3, array_dim=32) for i in range(3)]
        clean = execute_tasks(scenario_grid(scenarios), cache=False).results
        outcome = execute_tasks(
            scenario_grid(scenarios),
            jobs=2,
            cache=False,
            retry=RetryPolicy(max_attempts=3),
            faults=FaultPlan(faults=(FaultSpec(index=1, attempt=1, kind="crash"),)),
        )
        assert outcome.results == clean
        assert outcome.recovered >= 1


class TestResultCache:
    def test_memory_hit_after_miss(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        execute_tasks(attention_grid((BERT,), SHORT), cache=cache)
        stats = cache.stats.as_dict()
        assert stats == {
            "memory_hits": 0, "disk_hits": 0, "misses": 10, "puts": 10,
            "corrupt": 0,
        }
        again = execute_tasks(attention_grid((BERT,), SHORT), cache=cache).results
        assert cache.stats.memory_hits == 10
        assert again == execute_tasks(attention_grid((BERT,), SHORT), cache=False).results

    def test_disk_round_trip(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        first = execute_tasks(attention_grid((BERT,), SHORT), cache=cache).results
        fresh = ResultCache(directory=tmp_path)  # cold memory, warm disk
        second = execute_tasks(attention_grid((BERT,), SHORT), cache=fresh).results
        assert fresh.stats.disk_hits == 10 and fresh.stats.misses == 0
        assert first == second

    def test_memory_only_when_no_directory(self):
        cache = ResultCache()
        execute_tasks(pareto_grid((BERT,), dims=(16, 32)), cache=cache)
        execute_tasks(pareto_grid((BERT,), dims=(16, 32)), cache=cache)
        assert cache.stats.memory_hits == 2

    def test_invalidation_on_different_key(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        task = EvalTask("attention", UnfusedModel(), BERT, 1024)
        old_key = cache_key(task.fingerprint(), version="old-code")
        new_key = cache_key(task.fingerprint(), version="new-code")
        cache.put(old_key, evaluate_task(task))
        assert cache.get(old_key) is not None
        assert cache.get(new_key) is None  # code change == miss

    def test_lru_eviction(self):
        cache = ResultCache(max_memory_entries=4)
        execute_tasks(attention_grid((BERT,), SHORT), cache=cache)  # 10 puts, a 4-slot LRU
        assert len(cache) == 4

    def test_resolve_cache_contract(self):
        assert resolve_cache(False) is None
        assert resolve_cache(None) is None
        assert resolve_cache(True) is resolve_cache(True)  # shared default
        own = ResultCache()
        assert resolve_cache(own) is own
        with pytest.raises(TypeError):
            resolve_cache("yes")


class TestCodec:
    @pytest.mark.parametrize("kind,config", [
        ("attention", UnfusedModel()),
        ("inference", fusemax()),
        ("pareto", 64),
    ])
    def test_round_trip_exact(self, kind, config):
        result = evaluate_task(EvalTask(kind, config, BERT, 4096))
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_scenario_round_trip_exact(self):
        (task,) = scenario_grid([attention_scenario(2, 4, array_dim=64)])
        result = evaluate_task(task)
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_scenario_grid_round_trip_exact(self):
        from repro.runtime import scenario_grid_tasks
        from repro.simulator import ScenarioGridCell

        cell = ScenarioGridCell(
            scenario=attention_scenario(2, 4, array_dim=64),
            model="BERT",
            batch=2,
            heads=1,
            decode=0,
        )
        (task,) = scenario_grid_tasks([cell])
        result = evaluate_task(task)
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_serving_round_trip_exact(self):
        (task,) = serving_grid([serving_spec(deadline=4000, dram_bw=64.0)])
        result = evaluate_task(task)
        assert result.requests  # a non-trivial trace round-trips
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_capacity_scenario_round_trip_exact(self):
        (task,) = scenario_grid([attention_scenario(
            2, 4, array_dim=64, dram_bw=8.0, buffer_bytes=16384.0,
            qos="decode-first", decode_instances=1,
        )])
        result = evaluate_task(task)
        assert result.spill_bytes > 0  # a spilling row round-trips
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_qos_serving_round_trip_exact(self):
        (task,) = serving_grid([serving_spec(
            dram_bw=64.0, buffer_bytes=16384.0, qos="decode-first",
        )])
        result = evaluate_task(task)
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    @pytest.mark.parametrize("tag", sorted(RESULT_TYPES))
    def test_every_codec_type_round_trips(self, tag):
        value = CODEC_SAMPLES[tag]()
        assert type(value) is RESULT_TYPES[tag]
        payload = json.loads(json.dumps(encode_result(value)))
        assert payload["__type__"] == tag
        assert decode_result(payload) == value

    def test_closed_set_holds_every_nested_dataclass(self):
        """A dataclass reachable from a result field is in the closed
        set, so a new nested type cannot fall outside the codec."""

        def reachable(hint):
            yield hint
            for arg in typing.get_args(hint):
                yield from reachable(arg)

        for cls in RESULT_TYPES.values():
            hints = typing.get_type_hints(cls)
            for field in dataclasses.fields(cls):
                for hint in reachable(hints[field.name]):
                    if dataclasses.is_dataclass(hint):
                        assert RESULT_TYPES.get(hint.__qualname__) is hint

    def test_disk_entries_keep_mapping_order(self, tmp_path):
        result = CODEC_SAMPLES["AttentionResult"]()
        assert list(result.energy.pj) != sorted(result.energy.pj)
        assert list(result.per_einsum_2d_cycles) != sorted(result.per_einsum_2d_cycles)
        ResultCache(directory=tmp_path).put("ab" * 32, result)
        cached = ResultCache(directory=tmp_path).get("ab" * 32)
        assert list(cached.energy.pj) == list(result.energy.pj)
        assert list(cached.per_einsum_2d_cycles) == list(result.per_einsum_2d_cycles)

    def test_payload_with_other_fields_rejected(self):
        payload = encode_result(CODEC_SAMPLES["ServingResult"]())
        missing = {k: v for k, v in payload.items() if k != "qos"}
        with pytest.raises(ValueError):
            decode_result(missing)
        with pytest.raises(ValueError):
            decode_result({**payload, "extra": 1})

    def test_unknown_nested_tag_quarantined(self, tmp_path):
        payload = encode_result(CODEC_SAMPLES["AttentionResult"]())
        payload["energy"]["__type__"] = "Mystery"
        cache = ResultCache(directory=tmp_path)
        path = cache.entry_path("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"key": "cd" * 32, "result": payload}))
        assert cache.get("cd" * 32) is None
        assert cache.stats.corrupt == 1
        assert path.with_suffix(".corrupt").is_file()

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_result({"__type__": "Mystery"})
        with pytest.raises(TypeError):
            encode_result(object())


class TestRegistry:
    def test_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path)
        session = Session(cache=False, registry=registry)
        results = session.evaluate("attention", attention_grid((BERT,), SHORT)).results
        record = registry.latest()
        assert record is not None
        loaded = registry.load(record.run_id)
        assert loaded == record
        assert loaded.kind == "attention"
        assert loaded.n_results == len(results) == 10
        assert loaded.jobs == 1
        assert loaded.grid["models"] == ["BERT"]
        assert loaded.result_digest == result_digest(results)

    def test_runs_accumulate_and_match(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for jobs in (1, 2):
            session = Session(jobs=jobs, cache=False, registry=registry)
            session.evaluate("attention", attention_grid((BERT,), SHORT))
        first, second = (registry.load(r) for r in registry.list_runs())
        assert first.matches(second)  # parallel run drifts nowhere

    def test_cache_stats_recorded(self, tmp_path):
        registry = RunRegistry(tmp_path)
        session = Session(cache=ResultCache(), registry=registry)
        session.evaluate("attention", attention_grid((BERT,), SHORT))
        session.evaluate("attention", attention_grid((BERT,), SHORT))
        warm = registry.load(registry.list_runs()[-1])
        assert warm.cache_stats["memory_hits"] == 10
        assert warm.cache_stats["misses"] == 0


class TestReportPasses:
    """A report evaluates each distinct grid once, one session pass
    each: attention (Figs. 6-9), inference (Figs. 10-11), pareto."""

    GOLDEN = Path(__file__).parent / "golden" / "report.sha256"

    def spy(self, monkeypatch):
        """Count grid passes and in-process task evaluations."""
        counts = {"passes": 0, "evaluations": 0}
        run_pass, evaluate = executor.execute_tasks, executor.evaluate_task

        def counted_pass(*args, **kwargs):
            counts["passes"] += 1
            return run_pass(*args, **kwargs)

        def counted_evaluation(task):
            counts["evaluations"] += 1
            return evaluate(task)

        monkeypatch.setattr(executor, "execute_tasks", counted_pass)
        monkeypatch.setattr(session_module, "execute_tasks", counted_pass)
        monkeypatch.setattr(executor, "evaluate_task", counted_evaluation)
        return counts

    def test_uncached_report_evaluates_each_task_once(self, monkeypatch):
        counts = self.spy(monkeypatch)
        full_report(Session(cache=False))
        assert counts == {"passes": 3, "evaluations": 120 + 120 + 24}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_uncached_report_matches_golden(self, jobs):
        report = full_report(Session(jobs=jobs, cache=False))
        assert hashlib.sha256(report.encode()).hexdigest() == self.GOLDEN.read_text().strip()

    def test_registry_records_one_kind_per_grid(self, tmp_path):
        registry = RunRegistry(tmp_path)
        session = Session(cache=ResultCache(), registry=registry)
        session.run(ExperimentRequest(name="report"))
        session.run(ExperimentRequest(name="sweep", kind="inference", models=("BERT",)))
        session.run(CrosscheckRequest(cluster=True))
        kinds = sorted(registry.load(run).kind for run in registry.list_runs())
        assert kinds == ["attention", "cluster", "inference", "inference", "pareto", "scenario"]


class TestCLI:
    def test_sweep_smoke(self, capsys, tmp_path):
        from repro.cli import main

        assert main([
            "sweep", "--kind", "attention", "--models", "BERT",
            "--seq-lens", "1024,4096", "--jobs", "2",
            "--registry", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "10 grid points" in out
        assert "recorded run" in out

    def test_sweep_unknown_model(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--models", "GPT"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_report_no_cache(self, capsys):
        from repro.cli import main

        assert main(["fig6", "--no-cache"]) == 0
        assert "util 1D" in capsys.readouterr().out


class TestFaultTolerance:
    """Worker-crash recovery and on-disk corruption, end to end."""

    def test_pool_worker_crash_recovers(self):
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks,
            jobs=2,
            cache=False,
            retry=RetryPolicy(max_attempts=3),
            faults=FaultPlan(faults=(FaultSpec(index=3, attempt=1, kind="crash"),)),
        )
        assert outcome.results == clean
        assert outcome.respawns >= 1
        assert outcome.recovered >= 1
        assert outcome.attempts > len(tasks)

    #: Nine tasks on two workers deal into batch [0, 8] and seven lone
    #: tasks, four batches in flight.  Task 0's first attempt crashes
    #: its worker and task 1's first attempt holds the other, so the
    #: batches holding tasks 0-3 are unfinished at every break.
    CRASH_PLAN = FaultPlan(
        faults=(
            FaultSpec(index=0, attempt=1, kind="crash"),
            FaultSpec(index=1, attempt=1, kind="hang"),
        ),
        hang_s=0.25,
    )

    def test_pool_crash_reruns_lost_batch_members_alone(self):
        """The first break loses batch [0, 8] with lone tasks 1-3: a
        batch of several was in flight, so nothing is charged and all
        five rerun alone, first in line.  Task 0 crashes again with only
        lone tasks 0-3 in flight, which are charged one attempt each and
        recover on their second."""
        tasks = attention_grid((BERT, T5), SHORT)[:9]
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks,
            jobs=2,
            cache=False,
            retry=RetryPolicy(max_attempts=2),
            faults=self.CRASH_PLAN,
        )
        assert outcome.results == clean
        assert outcome.respawns == 2
        assert outcome.recovered == 4
        assert outcome.attempts == len(tasks) + 4

    def test_pool_crash_under_skip_fails_only_the_inflight_tasks(self):
        """With one attempt each, the same crash fails tasks 0-3, the
        four in flight when it recurs alone, as one future per task
        would, and nothing else."""
        tasks = attention_grid((BERT, T5), SHORT)[:9]
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks, jobs=2, cache=False, on_error="skip", faults=self.CRASH_PLAN
        )
        assert [failure.index for failure in outcome.failures] == [0, 1, 2, 3]
        assert outcome.results[4:] == clean[4:]

    def test_one_crash_fails_no_more_than_the_inflight_futures(self):
        """A crash inside a batch of several costs its batch-mates
        nothing: with one attempt each, at most ``2 * workers`` tasks
        fail, the bound of one future per task."""
        tasks = attention_grid((BERT, T5), SHORT)  # 8 batches of 2-3 tasks
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks,
            jobs=2,
            cache=False,
            on_error="skip",
            faults=FaultPlan(faults=(FaultSpec(index=8, attempt=1, kind="crash"),)),
        )
        failed = {failure.index for failure in outcome.failures}
        assert 8 in failed
        assert len(failed) <= 2 * 2
        assert all(outcome.results[i] == clean[i] for i in range(len(tasks)) if i not in failed)

    def test_crash_recovery_recorded_in_registry(self, tmp_path):
        registry = RunRegistry(tmp_path)
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        session = Session(
            jobs=2,
            cache=False,
            registry=registry,
            retry=RetryPolicy(max_attempts=3),
            faults=FaultPlan(faults=(FaultSpec(index=1, attempt=1, kind="crash"),)),
        )
        crashed = session.evaluate("attention", tasks).results
        assert crashed == clean
        record = registry.latest()
        assert record.health is not None
        assert record.health["respawns"] >= 1
        assert record.health["recovered"] >= 1
        assert record.health["attempts"] > len(tasks)

    def test_truncated_disk_entry_recomputed(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        clean = execute_tasks(attention_grid((BERT,), SHORT), cache=cache).results
        entry = sorted(tmp_path.glob("*/*.json"))[0]
        entry.write_bytes(entry.read_bytes()[:20])
        fresh = ResultCache(directory=tmp_path)
        again = execute_tasks(attention_grid((BERT,), SHORT), cache=fresh).results
        assert again == clean
        assert fresh.stats.corrupt == 1
        assert fresh.stats.disk_hits == len(clean) - 1
        quarantined = list(tmp_path.glob("*/*.corrupt"))
        assert len(quarantined) == 1
        # The recompute rewrote a good entry in the quarantined slot.
        assert ResultCache(directory=tmp_path).get(entry.stem) is not None

    def test_registry_skips_malformed_records(self, tmp_path):
        registry = RunRegistry(tmp_path)
        session = Session(cache=False, registry=registry)
        session.evaluate("attention", attention_grid((BERT,), SHORT))
        (tmp_path / "run-zzz.json").write_text("{ torn write")
        (run_id,) = registry.list_runs()
        assert registry.load(run_id).kind == "attention"
        assert registry.latest().run_id == run_id
        assert not list(tmp_path.glob("*.tmp"))  # atomic record left no temp
