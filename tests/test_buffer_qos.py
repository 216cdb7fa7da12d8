"""Buffer capacity and per-stream DRAM QoS: the property layer.

A finite ``Scenario.buffer_bytes`` must behave like an on-chip buffer
(spills are overflow, never free bandwidth) and ``qos="decode-first"``
must behave like arbitration priority (decode wins ties, nothing else
changes).  These tests pin the contracts down:

- **identity** — ``buffer_bytes=None`` and ``inf`` schedules are
  bit-identical, and a non-default QoS with no decode phase is the
  uniform schedule exactly (no hidden perturbation);
- **monotonicity** — shrinking the buffer never shrinks spill volume
  and never makes the schedule faster;
- **exact accounting** — graph traffic is baseline plus the closed-form
  spill volume task-for-task, and the link's busy cycles equal the
  analytical transfer integration exactly;
- **no inversion** — under single-slot dispatch a ready decode DRAM
  transfer is *never* passed over for a prefill transfer (and under
  uniform QoS it demonstrably is — the contrast that makes zero
  meaningful);
- **the roofline** — spilling scenarios take the ``capacity-bound``
  analytical term and the crosscheck grid agrees within tolerance;
- **serving** — ``decode-first`` protects token gaps of a request
  decoding behind a large queued prefill, at a priced TTFT cost.
"""

import math

import pytest
from conftest import event_scenario

from repro.api import Session
from repro.experiments.crosscheck import capacity_scenarios, crosscheck
from repro.model.scenario import analytical_scenario
from repro.serving import Arrival, ServingSpec, build_serving_tasks, simulate_serving
from repro.simulator import (
    PipelineConfig,
    apply_buffer_spills,
    build_tasks,
    chunk_residency,
    chunk_traffic,
    evaluate_scenario_point,
    instance_spill_bytes,
    scenario_csv,
    scenario_dram_cycles,
    scenario_sim,
    scenario_spill_bytes,
    spill_bytes_per_chunk,
)
from repro.workloads.scenario import attention_scenario

#: A bandwidth at which the capacity scenarios are firmly memory-bound.
TIGHT_BW = 32.0

#: Buffer sizes around the default-geometry prefill working set (2 tiles
#: resident + 2 transient at 256x64 = 131072 bytes demand): full
#: resident spill, partial spill, and two spill-free controls.
TIGHT_BUF, PARTIAL_BUF, AMPLE_BUF = 50_000.0, 100_000.0, 150_000.0


def capacitated(buffer_bytes, qos="uniform", binding="interleaved",
                slots=2, dram_bw=TIGHT_BW):
    """A prefill+decode mix contending for one tight DRAM link under
    ``buffer_bytes`` of on-chip capacity (small enough for the cycle
    oracle)."""
    return attention_scenario(
        3, 8, binding=binding, slots=slots, decode_instances=2,
        dram_bw=dram_bw, buffer_bytes=buffer_bytes, qos=qos,
    )


class TestCapacityIdentity:
    def test_infinite_buffer_equals_none_exactly(self):
        tasks_none, result_none = scenario_sim(capacitated(None))
        tasks_inf, result_inf = scenario_sim(capacitated(math.inf))
        assert result_inf == result_none
        assert list(tasks_inf) == list(tasks_none)
        assert scenario_spill_bytes(capacitated(math.inf)) == 0

    def test_decode_first_without_decode_is_uniform_exactly(self):
        """QoS is arbitration, not traffic: with nothing to prioritize
        the schedule must not move by a byte."""
        uniform = attention_scenario(
            3, 8, dram_bw=TIGHT_BW, buffer_bytes=PARTIAL_BUF,
        )
        boosted = attention_scenario(
            3, 8, dram_bw=TIGHT_BW, buffer_bytes=PARTIAL_BUF,
            qos="decode-first",
        )
        tasks_u, result_u = scenario_sim(uniform)
        tasks_b, result_b = scenario_sim(boosted)
        assert list(tasks_b) == list(tasks_u)
        assert result_b == result_u

    def test_uniform_qos_keeps_declaration_order(self):
        scenario = capacitated(TIGHT_BUF)
        assert scenario.emission_phases == scenario.phases
        assert not scenario.prioritized
        boosted = capacitated(TIGHT_BUF, qos="decode-first")
        assert boosted.prioritized
        assert boosted.emission_phases[0].kind == "decode"

    def test_engines_bit_identical_under_capacity_and_qos(self):
        for binding in ("interleaved", "tile-serial"):
            scenario = capacitated(
                TIGHT_BUF, qos="decode-first", binding=binding,
            )
            _, event = event_scenario(scenario)
            _, cycle = scenario_sim(scenario, engine="cycle")
            _, vector = scenario_sim(scenario, engine="vector")
            assert event == cycle
            assert vector == cycle


class TestSpillMonotonicity:
    BUFFERS = (TIGHT_BUF, PARTIAL_BUF, AMPLE_BUF, 200_000.0, None)

    def test_spill_non_increasing_in_buffer(self):
        spills = [
            scenario_spill_bytes(capacitated(buf)) for buf in self.BUFFERS
        ]
        assert spills == sorted(spills, reverse=True)
        assert spills[0] > spills[1] > 0  # both spill regimes exercised
        assert spills[2] == spills[-1] == 0  # ample capacity is free

    def test_shrinking_buffer_never_speeds_up_schedule(self):
        makespans = [
            evaluate_scenario_point(capacitated(buf)).makespan
            for buf in self.BUFFERS
        ]
        assert makespans == sorted(makespans, reverse=True)
        assert makespans[0] > makespans[-1]  # the spills actually bind

    def test_spill_clamped_to_resident_stream(self):
        """Only resident tiles can spill: a degenerate buffer refetches
        the whole resident stream, never the pass-through traffic."""
        config = PipelineConfig(chunks=8)
        for kind in ("prefill", "decode"):
            residency = chunk_residency(config, kind)
            assert spill_bytes_per_chunk(config, kind, 1.0) == (
                residency.resident_bytes
            )
            assert spill_bytes_per_chunk(
                config, kind, residency.demand_bytes
            ) == 0

    def test_residency_rederives_traffic_split(self):
        """The working-set model and the graph builders' byte totals are
        one account: prefill holds exactly its once-fetched stream."""
        config = PipelineConfig(chunks=8)
        traffic = chunk_traffic(config, "prefill")
        residency = chunk_residency(config, "prefill")
        assert residency.resident_bytes == traffic.bytes_once
        assert residency.transient_bytes == traffic.bytes_per_chunk


class TestSpillConservation:
    def test_graph_bytes_are_baseline_plus_spill(self):
        """Spills inflate traffic by exactly the closed form — on the
        annotated graph and through the dram lowering alike."""
        base = capacitated(None, dram_bw=None)
        tight = capacitated(TIGHT_BUF, dram_bw=None)
        base_bytes = sum(t.bytes_moved for t in scenario_sim(base)[0])
        tight_bytes = sum(t.bytes_moved for t in scenario_sim(tight)[0])
        assert tight_bytes - base_bytes == scenario_spill_bytes(tight)
        lowered = scenario_sim(capacitated(TIGHT_BUF))[0]
        carried = sum(
            t.bytes_moved for t in lowered if t.resource != "dram"
        )
        assert carried == tight_bytes

    def test_instance_spill_closed_form_matches_graph(self):
        """Chunk 0 fetches fresh (already priced as bytes_once); every
        later chunk re-fetches the spilled slice on its leading task."""
        config = PipelineConfig(chunks=8)
        tasks = build_tasks(config, serial=False)
        spilled = apply_buffer_spills(tasks, config, "prefill", TIGHT_BUF)
        diff = sum(t.bytes_moved for t in spilled) - sum(
            t.bytes_moved for t in tasks
        )
        assert diff == instance_spill_bytes(config, "prefill", TIGHT_BUF)
        by_name = {t.name: t.bytes_moved for t in spilled}
        baseline = {t.name: t.bytes_moved for t in tasks}
        assert by_name["BQK[0]"] == baseline["BQK[0]"]  # chunk 0 untouched
        assert by_name["BQK[1]"] > baseline["BQK[1]"]

    def test_busy_dram_matches_analytical_transfer_cycles(self):
        """Exact accounting under spills: the simulated link's busy
        cycles equal the analytical integration task-for-task."""
        for buf in (TIGHT_BUF, PARTIAL_BUF, None):
            scenario = capacitated(buf)
            result = evaluate_scenario_point(scenario)
            assert result.busy_dram == scenario_dram_cycles(scenario)
            assert result.spill_bytes == scenario_spill_bytes(scenario)


def dram_inversions(scenario):
    """Priority-inversion pairs in one simulated schedule: a prefill
    DRAM transfer dispatched while a decode transfer sat ready (deps
    all finished) but unstarted.  Start times are reconstructed as
    ``finish - duration``; readiness as the latest dep finish."""
    tasks, result = scenario_sim(scenario)
    finish = result.finish_times
    transfers = [t for t in tasks if t.resource == "dram"]
    start = {t.name: finish[t.name] - t.duration for t in transfers}
    ready = {
        t.name: max((finish[d] for d in t.deps), default=0)
        for t in transfers
    }
    decode = [t.name for t in transfers if ":D" in t.name]
    prefill = [t.name for t in transfers if ":B" in t.name]
    return sum(
        1
        for p in prefill
        for d in decode
        if start[p] < start[d] and ready[d] <= start[p]
    )


class TestQoSNoInversion:
    def test_decode_first_never_passes_over_ready_decode(self):
        """The no-inversion contract, exact under single-slot dispatch
        (tile-serial, and interleaved with one issue slot): whenever a
        prefill transfer starts, no decode transfer was ready-waiting."""
        for scenario in (
            capacitated(PARTIAL_BUF, qos="decode-first",
                        binding="tile-serial"),
            capacitated(PARTIAL_BUF, qos="decode-first", slots=1),
        ):
            assert dram_inversions(scenario) == 0

    def test_uniform_passes_over_ready_decode(self):
        """The contrast that makes zero meaningful: FIFO arbitration
        demonstrably starves ready decode transfers behind prefill."""
        for scenario in (
            capacitated(PARTIAL_BUF, binding="tile-serial"),
            capacitated(PARTIAL_BUF, slots=1),
        ):
            assert dram_inversions(scenario) > 100

    def test_slot_rotation_residue_bounded(self):
        """Multi-slot round-robin may interleave one stale prefill
        dispatch per rotation; the residue must stay negligible next to
        the uniform baseline, not grow with it."""
        boosted = dram_inversions(capacitated(PARTIAL_BUF, qos="decode-first"))
        uniform = dram_inversions(capacitated(PARTIAL_BUF))
        assert boosted * 10 < uniform


class TestAnalyticalCapacity:
    def test_tight_buffer_is_capacity_bound(self):
        scenario = capacitated(TIGHT_BUF)
        estimate = analytical_scenario(scenario)
        assert estimate.kind == "capacity-bound"
        assert estimate.latency_cycles == estimate.busy["dram"]
        assert estimate.busy["dram"] == scenario_dram_cycles(scenario)
        result = evaluate_scenario_point(scenario)
        assert result.makespan >= estimate.latency_cycles
        assert result.util_dram == pytest.approx(estimate.util_dram, abs=0.05)

    def test_infinite_buffer_control_stays_bandwidth_bound(self):
        estimate = analytical_scenario(capacitated(math.inf))
        assert estimate.kind == "bandwidth-bound"

    def test_crosscheck_gate_over_capacity_scenarios(self):
        """The CI gate: simulated vs analytical capacity-bound
        utilization within tolerance over the capacity seed grid."""
        report = crosscheck(capacity_scenarios(), session=Session(cache=False))
        assert report.ok, [
            (r.scenario, r.array, r.delta) for r in report.flagged
        ]
        assert any(row.model_kind == "capacity-bound" for row in report.rows)
        assert any(row.model_kind == "bandwidth-bound" for row in report.rows)

    def test_crosscheck_capacity_flag_appends_grid(self):
        base = crosscheck(session=Session(cache=False))
        extended = crosscheck(capacity=True, session=Session(cache=False))
        assert len(extended.rows) > len(base.rows)
        assert extended.rows[: len(base.rows)] == base.rows
        assert extended.ok

    def test_capacity_rows_gain_capacity_columns(self):
        scenario = capacitated(PARTIAL_BUF)
        results = {scenario: evaluate_scenario_point(scenario)}
        header = scenario_csv(results).splitlines()[0]
        assert header.endswith("buffer_bytes,qos,spill_bytes")
        legacy = capacitated(None)
        legacy_header = scenario_csv(
            {legacy: evaluate_scenario_point(legacy)}
        ).splitlines()[0]
        assert "buffer_bytes" not in legacy_header
        assert "spill_bytes" not in legacy_header


class TestServingQoS:
    #: A large prefill admitted first, then a small decoding request
    #: arriving behind it — the inversion the QoS knob exists for.
    BURST = (Arrival(0, 24, 0), Arrival(500, 2, 12))

    def spec(self, qos, buffer_bytes=PARTIAL_BUF):
        return ServingSpec(
            name="burst", arrivals=self.BURST, dram_bw=TIGHT_BW,
            buffer_bytes=buffer_bytes, qos=qos,
        )

    def test_decode_first_protects_tbt_behind_prefill_burst(self):
        """Decode token gaps shrink; the burst's TTFT pays for it (the
        priority trade, not a free lunch); traffic volume is unchanged
        either way."""
        uniform = simulate_serving(self.spec("uniform"))
        boosted = simulate_serving(self.spec("decode-first"))
        assert boosted.tbt_p50 < uniform.tbt_p50
        assert boosted.tbt_p99 < uniform.tbt_p99
        assert boosted.requests[0].ttft >= uniform.requests[0].ttft
        assert boosted.spill_bytes == uniform.spill_bytes > 0

    def test_infinite_buffer_uniform_graph_identical(self):
        base = ServingSpec(name="burst", arrivals=self.BURST,
                           dram_bw=TIGHT_BW)
        inf = self.spec("uniform", buffer_bytes=math.inf)
        tasks_base, _ = build_serving_tasks(base)
        tasks_inf, _ = build_serving_tasks(inf)
        assert tasks_inf == tasks_base

    def test_serving_spill_conserved_in_graph(self):
        base = ServingSpec(name="burst", arrivals=self.BURST,
                           dram_bw=TIGHT_BW)
        tight = self.spec("uniform")
        base_bytes = sum(
            t.bytes_moved for t in build_serving_tasks(base)[0]
        )
        tight_bytes = sum(
            t.bytes_moved for t in build_serving_tasks(tight)[0]
        )
        result = simulate_serving(tight)
        assert tight_bytes - base_bytes == result.spill_bytes


class TestCapacityCLI:
    def test_buffer_bytes_requires_dram_bw(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--scenario", "--instances", "2",
                     "--chunks", "4", "--buffer-bytes", "65536"]) == 2
        assert "requires dram_bw" in capsys.readouterr().err

    def test_buffer_bytes_requires_scenario_mode(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--buffer-bytes", "65536"]) == 2
        assert "--buffer-bytes requires --scenario" in (
            capsys.readouterr().err
        )

    def test_crosscheck_capacity_strict(self, capsys):
        from repro.cli import main

        assert main(["crosscheck", "--capacity", "--strict",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "capacity-bound" in out and "DIVERGED" not in out
