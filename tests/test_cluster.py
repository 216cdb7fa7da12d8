"""Property layer for the multi-chip cluster subsystem.

Five contracts:

- **degenerate identity** — a 1-chip cluster (any link setting) lowers
  to a merged graph *byte-identical* to the unsharded scenario's, and
  an unmodeled/infinite link on many chips emits no collectives;
- **sharding math** — block partitions balance to within one instance,
  tensor parallelism slices the embedding exactly (and rejects
  non-divisible slices), and collective traffic follows the cascade's
  tensor shapes;
- **exact link accounting** — the shared ``link``'s simulated busy
  cycles equal the closed-form collective sum, cycle for cycle, and
  the analytical cluster bound reads off the binding resource;
- **runtime/emitters** — cluster points ride the pooled runtime
  (cache, registry, codec round-trip) index-aligned, and the DRAM /
  link columns gate independently per batch;
- **serving bridge** — request-parallel serving degenerates to the
  single-array spec at one chip, spreads compute across chips without
  changing total work, and keeps both engines bit-identical.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterPoint,
    ClusterResult,
    ClusterSpec,
    build_cluster_tasks,
    chip_instance_counts,
    cluster_link_cycles,
    cluster_templates,
    collective_bytes,
    evaluate_cluster_point,
    schedule_cluster_tasks,
    shard_config,
)
from repro.model.cluster import analytical_cluster, cluster_work
from repro.model.scenario import analytical_scenario
from repro.rows import emit_rows
from repro.api import Session
from repro.runtime import (
    ResultCache,
    RunRegistry,
    cluster_grid,
    decode_result,
    encode_result,
)
from repro.serving import (
    Arrival,
    ServingSpec,
    build_serving_tasks,
    serving_sim,
    simulate_serving,
)
from repro.simulator import build_scenario_tasks, schedule_scenario_tasks
from repro.simulator.pipeline import scenario_templates
from repro.workloads.scenario import Phase, attention_scenario, schedule_form


def small_scenario(**overrides):
    defaults = dict(instances=4, chunks=8, array_dim=64)
    defaults.update(overrides)
    return attention_scenario(
        defaults.pop("instances"), defaults.pop("chunks"), **defaults
    )


class TestClusterSpec:
    def test_defaults_are_the_degenerate_cluster(self):
        spec = ClusterSpec()
        assert spec.n_chips == 1
        assert spec.link_bw is None
        assert schedule_form(spec) == spec
        assert spec.describe() == "1 chip"

    def test_validation(self):
        with pytest.raises(ValueError, match="n_chips"):
            ClusterSpec(n_chips=0)
        with pytest.raises(ValueError, match="link_bw"):
            ClusterSpec(n_chips=2, link_bw=0.0)
        with pytest.raises(ValueError, match="link_latency"):
            ClusterSpec(n_chips=2, link_bw=64.0, link_latency=-1)
        with pytest.raises(ValueError, match="topology"):
            ClusterSpec(n_chips=2, topology="torus")

    def test_schedule_form_keeps_only_occupiable_links(self):
        linked = ClusterSpec(n_chips=4, link_bw=64.0, link_latency=8)
        assert schedule_form(linked) == linked
        # One chip has no peers; None and inf price nothing.
        unlinked = ClusterSpec(n_chips=4)
        assert schedule_form(replace(linked, n_chips=1)) == ClusterSpec()
        assert schedule_form(replace(linked, link_bw=None)) == unlinked
        assert schedule_form(replace(linked, link_bw=math.inf)) == unlinked

    def test_describe_names_the_link(self):
        spec = ClusterSpec(n_chips=4, link_bw=64.0, link_latency=8)
        assert "4 chips" in spec.describe()
        assert "64B/cy" in spec.describe()
        assert "lat=8" in spec.describe()
        assert "unmodeled" in ClusterSpec(n_chips=2).describe()

    def test_point_rejects_unknown_sharding(self):
        with pytest.raises(ValueError, match="sharding"):
            ClusterPoint(scenario=small_scenario(), sharding="expert")

    def test_point_name_and_describe(self):
        point = ClusterPoint(
            scenario=small_scenario(),
            spec=ClusterSpec(n_chips=4, link_bw=64.0),
            sharding="tensor",
        )
        assert point.name == "attn-4x8@x4-tensor"
        assert "tensor on 4 chips" in point.describe()


#: Scenarios whose 1-chip cluster must be the scenario itself: DRAM
#: only, a spilling buffer, decode-first QoS, and both together (the
#: point of ``tests/golden/simulate-scenario-capacity.csv``).
IDENTITY_CASES = {
    "dram": small_scenario(decode_instances=2, decode_chunks=4, dram_bw=32.0),
    "buffer": small_scenario(
        decode_instances=2, decode_chunks=4, dram_bw=32.0, buffer_bytes=24576
    ),
    "qos": small_scenario(
        decode_instances=2, decode_chunks=4, dram_bw=32.0, qos="decode-first"
    ),
    "buffer-qos": small_scenario(
        instances=2, chunks=4, decode_instances=2, decode_chunks=16,
        dram_bw=32.0, buffer_bytes=24576, qos="decode-first",
    ),
}


class TestDegenerateIdentity:
    """The invariant the whole lowering hangs off: one chip (or a free
    link) reproduces the unsharded scenario byte for byte, buffer and
    QoS included."""

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    @pytest.mark.parametrize("sharding", ("head", "tensor"))
    def test_one_chip_graph_byte_identical(self, sharding, case):
        scenario = IDENTITY_CASES[case]
        assert cluster_templates(scenario, ClusterSpec(), sharding) == (
            scenario_templates(scenario)
        )
        for spec in (
            ClusterSpec(),
            ClusterSpec(n_chips=1, link_bw=64.0, link_latency=9),
        ):
            assert build_cluster_tasks(scenario, spec, sharding) == (
                build_scenario_tasks(scenario)
            )

    def test_unmodeled_link_emits_no_collectives(self):
        scenario = small_scenario()
        for spec in (
            ClusterSpec(n_chips=4),
            ClusterSpec(n_chips=4, link_bw=math.inf),
        ):
            tasks = build_cluster_tasks(scenario, spec)
            assert all(task.resource != "link" for task in tasks)
            assert cluster_link_cycles(scenario, spec) == 0

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_one_chip_result_matches_scenario_schedule(self, case):
        scenario = IDENTITY_CASES[case]
        result = evaluate_cluster_point(ClusterPoint(scenario=scenario))
        sim = schedule_scenario_tasks(scenario)
        assert result.makespan == sim.makespan
        busy = (result.busy_2d, result.busy_1d, result.busy_io, result.busy_dram)
        assert busy == tuple(
            sim.busy_cycles.get(resource, 0)
            for resource in ("2d", "1d", "io", "dram")
        )
        assert result.n_tasks == len(sim.finish_times)
        assert result.link_bw is None and result.busy_link == 0

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_one_chip_analytical_matches_scenario_model(self, case):
        scenario = IDENTITY_CASES[case]
        cluster = analytical_cluster(scenario, ClusterSpec())
        single = analytical_scenario(scenario)
        assert cluster.latency_cycles == single.latency_cycles
        assert cluster.kind == single.kind
        for resource in ("2d", "1d", "io", "dram"):
            assert cluster.busy[resource] == single.busy[resource]


class TestShardingMath:
    def test_block_counts_balance_within_one(self):
        phase = Phase("prefill", 10, 8)
        assert chip_instance_counts(phase, "head", 4) == [3, 3, 2, 2]
        assert chip_instance_counts(phase, "head", 1) == [10]
        # More chips than instances: trailing chips idle, none negative.
        assert chip_instance_counts(Phase("prefill", 2, 8), "head", 4) == (
            [1, 1, 0, 0]
        )

    def test_tensor_prefill_replicates_and_slices(self):
        scenario = small_scenario(embedding=64)
        phase = scenario.phases[0]
        assert chip_instance_counts(phase, "tensor", 4) == [4] * 4
        config = shard_config(scenario, phase, "tensor", 4)
        assert config.embedding == 16

    def test_tensor_decode_falls_back_to_blocks(self):
        scenario = small_scenario(
            embedding=64, decode_instances=6, decode_chunks=4
        )
        decode = scenario.phases[1]
        assert decode.kind == "decode"
        assert chip_instance_counts(decode, "tensor", 4) == [2, 2, 1, 1]
        assert shard_config(scenario, decode, "tensor", 4).embedding == 64

    def test_tensor_rejects_non_divisible_embedding(self):
        scenario = small_scenario(embedding=64)
        with pytest.raises(ValueError, match="divisible"):
            build_cluster_tasks(
                scenario, ClusterSpec(n_chips=3, link_bw=64.0), "tensor"
            )

    def test_collective_traffic_follows_tensor_shapes(self):
        scenario = small_scenario(embedding=64)
        config = shard_config(scenario, scenario.phases[0], "head", 4)
        # Prefill output: chunks x array_dim rows of E words, each sent
        # to the 3 peer chips.
        assert collective_bytes(config, "prefill", 4) == 8 * 64 * 64 * 2 * 3
        assert collective_bytes(config, "decode", 4) == 64 * 2 * 3
        assert collective_bytes(config, "prefill", 1) == 0
        # Tensor slices divide per-collective traffic by n_chips.
        sliced = shard_config(scenario, scenario.phases[0], "tensor", 4)
        assert collective_bytes(sliced, "prefill", 4) == (
            collective_bytes(config, "prefill", 4) // 4
        )


class TestLinkAccounting:
    """The schedule and the closed form must agree cycle for cycle."""

    @pytest.mark.parametrize("sharding", ("head", "tensor"))
    @pytest.mark.parametrize("link_bw", (8.0, 1024.0))
    def test_busy_link_equals_collective_sum(self, sharding, link_bw):
        scenario = small_scenario(
            decode_instances=2, decode_chunks=4, dram_bw=64.0
        )
        spec = ClusterSpec(n_chips=2, link_bw=link_bw, link_latency=5)
        sim = schedule_cluster_tasks(scenario, spec, sharding)
        expected = cluster_link_cycles(scenario, spec, sharding)
        assert expected > 0
        assert sim.busy_cycles["link"] == expected

    def test_latency_charged_once_per_collective(self):
        scenario = small_scenario()
        flat = ClusterSpec(n_chips=4, link_bw=64.0)
        delayed = ClusterSpec(n_chips=4, link_bw=64.0, link_latency=7)
        base = cluster_link_cycles(scenario, flat)
        n_collectives = scenario.instances  # one all-gather per instance
        assert cluster_link_cycles(scenario, delayed) == (
            base + 7 * n_collectives
        )

    @pytest.mark.parametrize("scenario,spec", (
        (small_scenario(dram_bw=32.0), ClusterSpec(n_chips=4, link_bw=64.0)),
        (IDENTITY_CASES["buffer"], ClusterSpec(n_chips=2, link_bw=64.0)),
    ), ids=("dram", "buffer"))
    def test_cluster_work_sums_match_graph_durations(self, scenario, spec):
        chips, link = cluster_work(scenario, spec, "head")
        tasks = build_cluster_tasks(scenario, spec, "head")
        for k, chip in enumerate(chips):
            for resource in ("2d", "1d", "io", "dram"):
                assert chip[resource] == sum(
                    t.duration for t in tasks
                    if t.resource == f"c{k}:{resource}"
                )
        assert link == sum(
            t.duration for t in tasks if t.resource == "link"
        )


class TestAnalyticalCluster:
    def test_ample_link_is_compute_bound(self):
        estimate = analytical_cluster(
            small_scenario(), ClusterSpec(n_chips=4, link_bw=65536.0)
        )
        assert estimate.kind == "overlap-bound"

    def test_starved_link_is_link_bound(self):
        estimate = analytical_cluster(
            small_scenario(), ClusterSpec(n_chips=4, link_bw=1.0)
        )
        assert estimate.kind == "link-bound"
        assert estimate.latency_cycles == estimate.busy["link"]
        assert estimate.util_link == 1.0

    def test_tight_dram_is_bandwidth_bound(self):
        estimate = analytical_cluster(
            small_scenario(dram_bw=1.0),
            ClusterSpec(n_chips=2, link_bw=65536.0),
        )
        assert estimate.kind == "bandwidth-bound"

    def test_strong_scaling_until_the_knee(self):
        """More chips shrink the compute bound while collective traffic
        grows — past the knee the link term wins and adding chips
        actively hurts, the curve the chip sweep exists to read off."""
        scenario = attention_scenario(16, 8, array_dim=64)
        ample = [
            analytical_cluster(
                scenario, ClusterSpec(n_chips=n, link_bw=65536.0)
            )
            for n in (1, 2, 4, 8)
        ]
        assert all(e.kind == "overlap-bound" for e in ample)
        latencies = [e.latency_cycles for e in ample]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[-1] < latencies[0]
        priced = [
            analytical_cluster(
                scenario, ClusterSpec(n_chips=n, link_bw=64.0)
            )
            for n in (1, 2, 4, 8)
        ]
        assert priced[0].kind == "overlap-bound"
        assert all(e.kind == "link-bound" for e in priced[1:])
        # All-gather traffic scales with (n_chips - 1): once the link
        # binds, the latency bound grows again with the chip count.
        assert priced[2].latency_cycles > priced[1].latency_cycles
        assert priced[3].latency_cycles > priced[2].latency_cycles

    def test_bound_is_a_true_lower_bound(self):
        for sharding in ("head", "tensor"):
            point = ClusterPoint(
                scenario=small_scenario(),
                spec=ClusterSpec(n_chips=2, link_bw=64.0),
                sharding=sharding,
            )
            sim = evaluate_cluster_point(point)
            estimate = analytical_cluster(
                point.scenario, point.spec, sharding
            )
            assert sim.makespan >= estimate.latency_cycles


class TestClusterResultAndEmitters:
    POINTS = (
        ClusterPoint(scenario=small_scenario()),
        ClusterPoint(
            scenario=small_scenario(),
            spec=ClusterSpec(n_chips=2, link_bw=64.0, link_latency=3),
        ),
        ClusterPoint(
            scenario=small_scenario(dram_bw=32.0),
            spec=ClusterSpec(n_chips=2, link_bw=64.0),
            sharding="tensor",
        ),
    )

    def test_utilization_conventions(self):
        result = evaluate_cluster_point(self.POINTS[1])
        denom = result.makespan * result.n_chips
        assert result.util_2d == pytest.approx(result.busy_2d / denom)
        assert result.util_link == pytest.approx(
            result.busy_link / result.makespan
        )
        assert result.utilization("link") == result.util_link
        assert result.utilization("2d") == result.util_2d

    def test_field_gating_is_independent(self):
        plain, linked, both_ = [
            evaluate_cluster_point(p) for p in self.POINTS
        ]
        base, dram, link = (g.names for g in ClusterResult.COLUMNS)

        def header(results):
            return tuple(emit_rows(results, "csv").splitlines()[0].split(","))

        assert header([plain]) == base
        assert header([linked]) == base + link
        assert header([both_]) == base + dram + link
        # A single-chip row in a linked batch reports its link unmodeled.
        assert plain.link_bw is None
        assert linked.link_bw == 64.0 and linked.link_latency == 3

    def test_emitters_blank_unmodeled_columns(self):
        results = [evaluate_cluster_point(p) for p in self.POINTS]
        csv_text = emit_rows(results, "csv")
        header_, *rows = csv_text.strip().splitlines()
        assert header_.startswith("scenario,binding,sharding,topology")
        assert header_.endswith("link_bw,link_latency,busy_link,util_link")
        # The unclustered row blanks every widened column.
        assert rows[0].endswith(",-,-,-,-,-,-,-")
        payload = json.loads(emit_rows(results, "json"))
        assert payload[0]["link_bw"] is None
        assert payload[1]["link_bw"] == 64.0
        assert payload[2]["dram_bw"] == 32.0
        table = emit_rows(results, "table")
        assert "util_link" in table.splitlines()[0]
        assert len(table.splitlines()) == 1 + len(results)

    def test_narrow_batch_keeps_historical_columns(self):
        results = [evaluate_cluster_point(self.POINTS[0])]
        header_ = emit_rows(results, "csv").splitlines()[0]
        assert "link_bw" not in header_ and "dram_bw" not in header_
        assert tuple(header_.split(",")) == ClusterResult.COLUMNS[0].names

    def test_codec_round_trip(self):
        for point in self.POINTS:
            result = evaluate_cluster_point(point)
            assert isinstance(result, ClusterResult)
            payload = json.loads(json.dumps(encode_result(result)))
            assert payload["__type__"] == "ClusterResult"
            assert decode_result(payload) == result



def cluster_sweep(points, jobs=1, cache=False, registry=None):
    """Each point's simulated result, index-aligned, from one session
    pass."""
    session = Session(jobs=jobs, cache=cache, registry=registry)
    return session.evaluate("cluster", cluster_grid(points)).results

class TestClusterRuntime:
    POINTS = tuple(
        ClusterPoint(
            scenario=small_scenario(),
            spec=ClusterSpec(n_chips=n, link_bw=64.0),
        )
        for n in (1, 2, 4)
    )

    def test_sweep_matches_direct_evaluation(self):
        results = cluster_sweep(self.POINTS, cache=False)
        assert len(results) == len(self.POINTS)
        for point, result in zip(self.POINTS, results):
            assert result == evaluate_cluster_point(point)

    def test_sweep_parallel_and_cached_identical(self, tmp_path):
        baseline = cluster_sweep(self.POINTS, cache=False)
        parallel = cluster_sweep(self.POINTS, jobs=2, cache=False)
        assert parallel == baseline
        disk = ResultCache(directory=tmp_path / "cache")
        populated = cluster_sweep(self.POINTS, cache=disk)
        fresh = ResultCache(directory=tmp_path / "cache")
        warm = cluster_sweep(self.POINTS, cache=fresh)
        assert populated == baseline and warm == baseline
        assert fresh.stats.disk_hits == len(baseline)

    def test_sweep_records_run(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        cluster_sweep(self.POINTS, cache=False, registry=registry)
        record = registry.last_recorded
        assert record.kind == "cluster"
        assert record.n_results == len(self.POINTS)
        assert any("4 chips" in c for c in record.grid["configs"])

    def test_engine_parity_through_the_runtime(self):
        vector = cluster_sweep(self.POINTS, cache=False)
        cycle = [evaluate_cluster_point(point, engine="cycle") for point in self.POINTS]
        assert vector == cycle


class TestServingBridge:
    """Request parallelism over the cluster, on the serving graph."""

    ARRIVALS = tuple(
        Arrival(at=512 * j, chunks=4, decode_tokens=2) for j in range(8)
    )

    def spec(self, **overrides):
        defaults = dict(
            name="t", arrivals=self.ARRIVALS, array_dim=64, max_inflight=4
        )
        defaults.update(overrides)
        return ServingSpec(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_chips"):
            self.spec(n_chips=0)
        with pytest.raises(ValueError, match="link_bw"):
            self.spec(n_chips=2, link_bw=-1.0)
        with pytest.raises(ValueError, match="link_latency"):
            self.spec(n_chips=2, link_bw=8.0, link_latency=-1)

    def test_one_chip_graph_byte_identical(self):
        base, _ = build_serving_tasks(self.spec())
        for overrides in (
            dict(n_chips=1),
            dict(n_chips=1, link_bw=64.0, link_latency=9),
        ):
            tasks, plans = build_serving_tasks(self.spec(**overrides))
            assert tasks == base
            assert all(plan.gather == () for plan in plans)

    def test_requests_round_robin_across_chips(self):
        tasks, plans = build_serving_tasks(
            self.spec(n_chips=4, link_bw=64.0)
        )
        assert [plan.chip for plan in plans] == [0, 1, 2, 3, 0, 1, 2, 3]
        for plan in plans:
            assert plan.gather == (f"r{plan.index}:AG",)
        by_name = {t.name: t for t in tasks}
        gather = by_name["r0:AG"]
        assert gather.resource == "link"
        # Compute lives on the request's own chip; the link is shared.
        assert by_name["r1:BQK[0]"].resource.startswith("c1:")
        assert by_name["r4:BQK[0]"].resource.startswith("c0:")

    def test_total_compute_invariant_across_chip_counts(self):
        lone = simulate_serving(self.spec())
        spread = simulate_serving(self.spec(n_chips=4, link_bw=65536.0))
        assert spread.busy_2d == lone.busy_2d
        assert spread.busy_1d == lone.busy_1d

    def test_sharding_relieves_a_saturated_array(self):
        # All arrivals at t=0: the single array serializes the burst;
        # four chips split it.
        burst = tuple(
            Arrival(at=0, chunks=4, decode_tokens=2) for _ in range(8)
        )
        lone = simulate_serving(
            self.spec(arrivals=burst, max_inflight=8)
        )
        spread = simulate_serving(
            self.spec(
                arrivals=burst, max_inflight=8,
                n_chips=4, link_bw=65536.0,
            )
        )
        assert spread.makespan < lone.makespan

    def test_engines_identical_on_cluster_serving_graph(self):
        spec = self.spec(n_chips=4, link_bw=8.0, link_latency=2)
        _, _, cycle = serving_sim(spec, engine="cycle")
        _, _, result = serving_sim(spec)
        assert result == cycle
        assert cycle.busy_cycles.get("link", 0) > 0

    def test_metrics_count_the_gather(self):
        """Decode is gated on the gather, so a starved link pushes the
        finish (and TTFT stays a compute milestone)."""
        fast = simulate_serving(self.spec(n_chips=2, link_bw=65536.0))
        slow = simulate_serving(
            self.spec(n_chips=2, link_bw=1.0)
        )
        assert slow.requests[0].finish > fast.requests[0].finish
