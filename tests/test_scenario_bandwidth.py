"""DRAM-bandwidth contention in merged scenarios: the property layer.

The simulator's shared ``dram`` resource (a finite ``Scenario.dram_bw``)
must behave like memory bandwidth, not like an arbitrary extra resource.
These tests pin the contract down:

- **identity** — ``dram_bw=None`` and ``dram_bw=inf`` schedules are
  bit-identical to pre-bandwidth results (no hidden perturbation);
- **monotonicity** — adding a decode instance never makes a scenario
  faster, and halving the bandwidth never makes it faster;
- **exact accounting** — the link's busy cycles equal the analytical
  integration task-for-task, and the traffic the graphs carry matches
  :func:`repro.simulator.chunk_traffic`;
- **the wall** — decode-heavy mixes at tight bandwidth ride the
  roofline's memory bound (``util_dram -> 1``) and the analytical
  ``bandwidth-bound`` estimate agrees within crosscheck tolerance;
- **presentation** — bandwidth columns appear in scenario/grid output
  only when a scenario models DRAM, keeping legacy bytes untouched.
"""

import json
import math

import pytest
from conftest import event_scenario

from repro.api import Session
from repro.experiments.crosscheck import bandwidth_scenarios, crosscheck
from repro.model.scenario import analytical_scenario, scenario_work
from repro.rows import emit_rows
from repro.runtime import decode_result, encode_result
from repro.simulator import (
    PipelineConfig,
    ScenarioGridCell,
    Simulator,
    Task,
    build_decode_tasks,
    build_scenario_tasks,
    build_tasks,
    chunk_traffic,
    evaluate_scenario_point,
    lower_dram,
    scenario_csv,
    scenario_dram_cycles,
    scenario_sim,
    transfer_cycles,
)
from repro.workloads.scenario import (
    attention_scenario,
    heterogeneous_scenario,
    mixed_model_scenario,
)

#: A bandwidth at which the seed scenarios are firmly memory-bound and
#: one at which transfers cost a cycle or two but never bind.
TIGHT, AMPLE = 16.0, 1e6


def contended(dram_bw, decode=4, binding="interleaved"):
    """A decode-heavy scenario at ``dram_bw`` (small enough for the
    cycle oracle)."""
    return attention_scenario(
        2, 8, array_dim=64, binding=binding,
        decode_instances=decode, decode_chunks=32, dram_bw=dram_bw,
    )


class TestBandwidthIdentity:
    def test_infinite_bandwidth_equals_none_exactly(self):
        tasks_none, result_none = scenario_sim(contended(None))
        tasks_inf, result_inf = scenario_sim(contended(math.inf))
        assert result_inf == result_none
        assert [t.name for t in tasks_inf] == [t.name for t in tasks_none]
        assert "dram" not in result_inf.busy_cycles

    def test_none_graph_untouched_by_annotations(self):
        """bytes_moved alone never changes a schedule: the graph only
        grows when a finite dram_bw lowers it."""
        tasks = build_scenario_tasks(contended(None))
        assert all(t.resource in ("2d", "1d", "io") for t in tasks)
        assert any(t.bytes_moved > 0 for t in tasks)

    def test_lowering_adds_gated_transfers(self):
        plain = build_scenario_tasks(contended(None))
        lowered = build_scenario_tasks(contended(TIGHT))
        transfers = [t for t in lowered if t.resource == "dram"]
        carried = [t for t in plain if t.bytes_moved > 0]
        assert len(lowered) == len(plain) + len(transfers)
        assert len(transfers) == len(carried)
        by_name = {t.name: t for t in lowered}
        for transfer in transfers:
            assert transfer.deps == ()  # streams ahead freely
            consumer = by_name[transfer.name.removesuffix("@dram")]
            assert transfer.name in consumer.deps
            assert transfer.duration == transfer_cycles(
                consumer.bytes_moved, TIGHT
            )

    def test_double_lowering_rejected(self):
        lowered = build_scenario_tasks(contended(TIGHT))
        with pytest.raises(ValueError, match="already dram-lowered"):
            Simulator(lowered, dram_bw=TIGHT)
        with pytest.raises(ValueError, match="already dram-lowered"):
            lower_dram(lowered, math.inf)
        assert lower_dram(lowered, None) == lowered  # None never lowers

    def test_double_lowering_rejected_by_fold(self):
        """A fold template can no longer be lowered twice: the second
        lowering fails on the first one's ``dram`` tasks.  The fold
        still rejects a template that repeats a name some other way."""
        from repro.simulator.vector import fold_templates

        template = build_tasks(PipelineConfig(chunks=4, array_dim=64), serial=False)
        once = lower_dram(template, TIGHT)
        with pytest.raises(ValueError, match="already dram-lowered"):
            lower_dram(once, TIGHT)
        with pytest.raises(ValueError, match="duplicate"):
            fold_templates([(once + once[:1], 2)])
        fold_templates([(once, 2)])  # once is fine

    def test_engines_bit_identical_under_contention(self):
        for scenario in (contended(TIGHT), contended(TIGHT, binding="tile-serial")):
            _, event = event_scenario(scenario)
            _, cycle = scenario_sim(scenario, engine="cycle")
            assert event == cycle


class TestBandwidthMonotonicity:
    def test_halving_bandwidth_never_decreases_latency(self):
        makespans = [
            evaluate_scenario_point(contended(bw)).makespan
            for bw in (256.0, 128.0, 64.0, 32.0, 16.0, 8.0)
        ]
        assert makespans == sorted(makespans)
        assert makespans[-1] > makespans[0]  # the wall actually binds

    def test_adding_decode_instances_never_decreases_latency(self):
        makespans = [
            evaluate_scenario_point(contended(TIGHT, decode=n)).makespan
            for n in (0, 1, 2, 4, 8)
        ]
        assert makespans == sorted(makespans)
        assert makespans[-1] > makespans[0]

    def test_decode_instances_contend_for_bandwidth_not_just_slots(self):
        """The tentpole's point: with the link saturated, each extra
        decode instance costs its full transfer time — the slowdown the
        array-slot-only model could not see."""
        lone = evaluate_scenario_point(contended(TIGHT, decode=1))
        packed = evaluate_scenario_point(contended(TIGHT, decode=8))
        added_traffic = packed.busy_dram - lone.busy_dram
        assert packed.makespan - lone.makespan >= 0.95 * added_traffic

    def test_makespan_bounded_below_by_link_busy(self):
        for bw in (8.0, 64.0, AMPLE):
            result = evaluate_scenario_point(contended(bw))
            assert result.makespan >= result.busy_dram


class TestTrafficAccounting:
    @pytest.mark.parametrize("kind", ("prefill", "decode"))
    def test_graph_bytes_match_chunk_traffic(self, kind):
        config = PipelineConfig(chunks=7, array_dim=32, pe_1d=32, embedding=16)
        if kind == "decode":
            tasks = build_decode_tasks(config)
        else:
            tasks = build_tasks(config, serial=True)
        traffic = chunk_traffic(config, kind)
        assert sum(t.bytes_moved for t in tasks) == traffic.instance_bytes(
            config.chunks
        )

    def test_chunk_traffic_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            chunk_traffic(PipelineConfig(), "train")

    def test_transfer_cycles_ceiling(self):
        assert transfer_cycles(0, 64.0) == 0
        assert transfer_cycles(1, 64.0) == 1
        assert transfer_cycles(64, 64.0) == 1
        assert transfer_cycles(65, 64.0) == 2
        assert transfer_cycles(10**9, math.inf) == 0

    def test_simulated_link_busy_matches_analytical_exactly(self):
        for scenario in (
            contended(TIGHT),
            contended(AMPLE),
            contended(TIGHT, binding="tile-serial"),
            mixed_model_scenario(("BERT", "XLM"), 4, array_dim=32,
                                 dram_bw=TIGHT),
        ):
            result = evaluate_scenario_point(scenario)
            assert result.busy_dram == scenario_dram_cycles(scenario)
            assert result.busy_dram == scenario_work(scenario)["dram"]

    def test_lowered_task_count_reported(self):
        plain = evaluate_scenario_point(contended(None))
        lowered = evaluate_scenario_point(contended(TIGHT))
        assert lowered.n_tasks > plain.n_tasks
        assert lowered.dram_bw == TIGHT and plain.dram_bw is None


class TestAnalyticalBandwidth:
    def test_tight_bandwidth_is_bandwidth_bound(self):
        scenario = contended(TIGHT)
        estimate = analytical_scenario(scenario)
        assert estimate.kind == "bandwidth-bound"
        assert estimate.latency_cycles == estimate.busy["dram"]
        result = evaluate_scenario_point(scenario)
        assert result.makespan >= estimate.latency_cycles
        assert result.util_dram > 0.95
        assert result.util_dram == pytest.approx(estimate.util_dram, abs=0.05)

    def test_ample_bandwidth_stays_overlap_bound(self):
        estimate = analytical_scenario(contended(AMPLE))
        assert estimate.kind == "overlap-bound"
        assert estimate.busy["dram"] < estimate.latency_cycles

    def test_lone_serial_chain_survives_ample_bandwidth(self):
        """Dependency-free transfers stream ahead of the serial chain,
        so the closed-form interval stays exact until the link itself
        runs out of cycles."""
        scenario = attention_scenario(
            1, 16, binding="tile-serial", dram_bw=AMPLE,
        )
        estimate = analytical_scenario(scenario)
        assert estimate.kind == "serial-chain"
        assert evaluate_scenario_point(scenario).makespan == (
            estimate.latency_cycles
        )

    def test_lone_serial_tight_bandwidth_takes_the_link_bound(self):
        scenario = attention_scenario(
            1, 16, binding="tile-serial", dram_bw=4.0,
        )
        estimate = analytical_scenario(scenario)
        assert estimate.kind == "serial-chain"
        assert estimate.latency_cycles == estimate.busy["dram"]
        result = evaluate_scenario_point(scenario)
        assert result.makespan >= estimate.latency_cycles
        assert result.util_dram == pytest.approx(1.0, abs=0.05)

    def test_crosscheck_gate_over_bandwidth_scenarios(self):
        """The CI gate: simulated vs analytical bandwidth-bound
        utilization within tolerance over the bandwidth seed grid."""
        report = crosscheck(bandwidth_scenarios(), session=Session(cache=False))
        assert report.ok, [
            (r.scenario, r.array, r.delta) for r in report.flagged
        ]
        assert any(row.array == "dram" for row in report.rows)
        assert any(row.model_kind == "bandwidth-bound" for row in report.rows)

    def test_crosscheck_bandwidth_flag_appends_grid(self):
        base = crosscheck(session=Session(cache=False))
        extended = crosscheck(bandwidth=True, session=Session(cache=False))
        assert len(extended.rows) > len(base.rows)
        assert extended.rows[: len(base.rows)] == base.rows
        assert extended.ok


class TestMixedModelScenarios:
    def test_phase_widths_follow_models(self):
        scenario = mixed_model_scenario(("BERT", "XLM"), 4, array_dim=32)
        assert scenario.mixed_embedding
        tasks = build_scenario_tasks(scenario)
        durations = {
            t.name: t.duration for t in tasks if "BQK[0]" in t.name
        }
        # BERT instances run E=64 tiles, XLM instances E=128 tiles.
        assert sorted(set(durations.values())) == [64, 128]

    def test_mixed_engines_identical_and_crosscheck_within_tolerance(self):
        scenario = mixed_model_scenario(
            ("BERT", "XLM"), 4, array_dim=32, dram_bw=TIGHT,
            decode_instances=2, decode_chunks=8,
        )
        _, event = event_scenario(scenario)
        _, cycle = scenario_sim(scenario, engine="cycle")
        assert event == cycle
        report = crosscheck([scenario], session=Session(cache=False))
        assert report.ok, [(r.array, r.delta) for r in report.rows]

    def test_heterogeneous_mixed_models_group_by_count_and_model(self):
        scenario = heterogeneous_scenario(
            (4, 4, 8), models=("BERT", "BERT", "XLM"), dram_bw=TIGHT,
        )
        assert [(p.instances, p.chunks, p.model) for p in scenario.phases] == [
            (2, 4, "BERT"), (1, 8, "XLM"),
        ]
        assert scenario.name.startswith("het-2xBERT:4+1xXLM:8")

    def test_einsum_model_rejects_mixed_embedding(self):
        from repro.model.fusemax import fusemax

        scenario = mixed_model_scenario(("BERT", "XLM"), 4)
        with pytest.raises(ValueError, match="one embedding width"):
            fusemax().evaluate_scenario(scenario)

    def test_describe_names_models_and_bandwidth(self):
        scenario = mixed_model_scenario(
            ("BERT", "XLM"), 4, dram_bw=32.0,
        )
        text = scenario.describe()
        assert "BERT" in text and "XLM" in text and "bw=32" in text


class TestBandwidthEmitters:
    def rows(self, *scenarios):
        return {s: evaluate_scenario_point(s) for s in scenarios}

    def test_legacy_rows_keep_legacy_columns(self):
        results = self.rows(contended(None))
        assert "dram_bw" not in scenario_csv(results)
        assert "dram_bw" not in emit_rows(results, "table")
        assert "dram_bw" not in json.loads(emit_rows(results, "json"))[0]

    def test_bandwidth_rows_gain_bandwidth_columns(self):
        results = self.rows(contended(TIGHT))
        header = scenario_csv(results).splitlines()[0]
        assert header.endswith("dram_bw,busy_dram,util_dram")
        row = json.loads(emit_rows(results, "json"))[0]
        assert row["dram_bw"] == TIGHT
        assert row["busy_dram"] > 0
        assert 0 < row["util_dram"] <= 1

    def test_grid_rows_gain_bandwidth_columns(self):
        from repro.model.scenario import evaluate_grid_cell

        cell = ScenarioGridCell(
            scenario=contended(TIGHT), model=None, batch=None, heads=None,
            decode=4,
        )
        text = emit_rows([evaluate_grid_cell(cell)], "csv")
        header = text.splitlines()[0]
        assert "dram_bw" in header
        assert header.endswith("estimate,est_util_2d,est_util_1d")

    def test_auto_names_distinguish_bandwidths(self):
        """Same shape at different dram_bw must not collide on the name
        (the crosscheck and CSV rows key on it)."""
        tight = contended(TIGHT)
        ample = contended(AMPLE)
        unmodeled = contended(None)
        assert tight.name != ample.name != unmodeled.name
        assert tight.name.endswith("@bw16")
        assert "@bw" not in unmodeled.name  # legacy names untouched
        named = attention_scenario(2, 4, dram_bw=TIGHT, name="mine")
        assert named.name == "mine"  # explicit names never suffixed

    def test_mixed_batch_blanks_unmodeled_bandwidth_columns(self):
        """A batch mixing modeled and unmodeled rows widens the columns
        once; the unmodeled row renders '-' (not None/0) in text
        emitters and null dram_bw in JSON."""
        results = self.rows(contended(TIGHT), contended(None))
        csv_lines = scenario_csv(results).splitlines()
        assert csv_lines[0].endswith("dram_bw,busy_dram,util_dram")
        assert csv_lines[2].endswith(",-,-,-")
        table_rows = emit_rows(results, "table").splitlines()
        assert table_rows[2].split()[-3:] == ["-", "-", "-"]
        modeled, unmodeled = json.loads(emit_rows(results, "json"))
        assert modeled["dram_bw"] == TIGHT
        assert unmodeled["dram_bw"] is None

    def test_codec_roundtrip_with_bandwidth(self):
        for scenario in (contended(TIGHT), contended(math.inf)):
            result = evaluate_scenario_point(scenario)
            payload = json.loads(json.dumps(encode_result(result)))
            assert decode_result(payload) == result

    def test_task_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="bytes_moved"):
            Task("t", "r", 1, bytes_moved=-1)
        with pytest.raises(ValueError, match="dram_bw"):
            lower_dram([Task("t", "r", 1, bytes_moved=8)], -1.0)


class TestBandwidthCLI:
    def test_dram_bw_requires_scenario_mode(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--dram-bw", "64"]) == 2
        assert "--dram-bw requires --scenario" in capsys.readouterr().err
        assert main(["simulate", "--mixed-models", "BERT,XLM"]) == 2
        assert "--mixed-models requires --scenario" in capsys.readouterr().err

    def test_dram_bw_must_be_positive(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--scenario", "--instances", "2",
                     "--chunks", "4", "--dram-bw", "0"]) == 2
        assert "dram_bw must be > 0" in capsys.readouterr().err

    def test_mixed_models_exclusive_with_model(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--scenario", "--model", "BERT",
                     "--mixed-models", "BERT,XLM"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_scenario_dram_bw_engines_identical(self, capsys):
        from repro.cli import main

        base = ["simulate", "--scenario", "--instances", "2", "--chunks",
                "4", "--array-dim", "32", "--decode-instances", "2",
                "--dram-bw", "16", "--no-cache"]
        assert main(base) == 0
        vector_out = capsys.readouterr().out
        assert main(base + ["--engine", "cycle"]) == 0
        assert capsys.readouterr().out == vector_out
        assert "dram_bw" in vector_out and "util_dram" in vector_out

    def test_crosscheck_bandwidth_strict(self, capsys):
        from repro.cli import main

        assert main(["crosscheck", "--bandwidth", "--strict",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "dram" in out and "bandwidth-bound" in out

    def test_grid_dram_bw_column(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--grid", "--models", "BERT", "--batches", "1",
            "--heads-list", "2", "--chunks", "4", "--array-dim", "64",
            "--decode-list", "2", "--dram-bw", "32", "--format", "csv",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "dram_bw" in out.splitlines()[0]
        assert ",32.0," in out
