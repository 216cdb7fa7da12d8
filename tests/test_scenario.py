"""Scenario IR, its per-resource work totals and its analytical account.

The simulator-facing merged-graph behaviour lives in
``test_simulator_events.py``; the analytical account of a scenario
(``repro.model.scenario.analytical_scenario``) is checked against the
simulator in ``test_scenario_bandwidth.py`` and ``test_buffer_qos.py``,
and on its own terms here.
"""

import pytest

from repro.model import analytical_scenario, fusemax, scenario_work
from repro.simulator import build_scenario_tasks
from repro.workloads import BATCH_SIZE, BERT, XLM
from repro.workloads.scenario import (
    BINDINGS,
    Phase,
    Scenario,
    attention_scenario,
    scenario_from_model,
)


class TestScenarioIR:
    def test_attention_scenario_defaults(self):
        s = attention_scenario(4, 16)
        assert s.instances == 4
        assert s.seq_len == 16 * 256
        assert s.binding == "interleaved"
        assert s.resolved_pe_1d == s.array_dim == 256
        assert s.phases == (Phase("prefill", 4, 16),)

    def test_decode_phase_appended(self):
        s = attention_scenario(4, 16, decode_instances=2, decode_chunks=32)
        assert s.instances == 6
        assert s.phases[1] == Phase("decode", 2, 32)
        assert s.name.endswith("+dec2")
        # Decode-only seq_len falls back to 0 prefill chunks.
        decode_only = Scenario(name="d", phases=(Phase("decode", 1, 8),))
        assert decode_only.seq_len == 0

    def test_from_model(self):
        s = scenario_from_model(BERT, 4096, batch=64, heads=16)
        assert s.instances == 64 * 16
        assert s.embedding == BERT.d_head
        assert s.model == "BERT"
        assert s.seq_len == 4096
        assert s.name == "BERT-B64xH16-L4096"
        default_heads = scenario_from_model(BERT, 1024, batch=2)
        assert default_heads.instances == 2 * BERT.n_heads

    def test_with_binding(self):
        s = attention_scenario(2, 8)
        flipped = s.with_binding("tile-serial")
        assert flipped.binding == "tile-serial"
        assert flipped.phases == s.phases and flipped.name == s.name

    def test_describe_mentions_everything(self):
        text = attention_scenario(3, 8, decode_instances=1).describe()
        assert "3xprefill" in text and "1xdecode" in text
        assert "interleaved" in text

    def test_tile_serial_normalizes_slots(self):
        """Serial issue means one task per resource: the slots field is
        inert under tile-serial, so requesting different widths must
        yield the *same* scenario (schedule, equality, cache key)."""
        wide = attention_scenario(2, 8, binding="tile-serial", slots=4)
        narrow = attention_scenario(2, 8, binding="tile-serial", slots=1)
        assert wide.slots == narrow.slots == 1
        assert wide == narrow
        interleaved = attention_scenario(2, 8, slots=4)
        assert interleaved.slots == 4  # meaningful there
        # Garbage slot counts are rejected before normalization masks them.
        with pytest.raises(ValueError, match="slots"):
            attention_scenario(2, 8, binding="tile-serial", slots=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="instances"):
            Phase("prefill", 0, 4)
        with pytest.raises(ValueError, match="chunks"):
            Phase("prefill", 1, 0)
        with pytest.raises(ValueError, match="slots"):
            attention_scenario(1, 4, slots=0)
        with pytest.raises(ValueError, match="batch and heads"):
            scenario_from_model(BERT, 1024, batch=0)

    def test_model_embedding_mismatch_rejected(self):
        # Rejected at construction, before any graph build.
        assert XLM.d_head == 128
        with pytest.raises(ValueError, match="d_head"):
            Scenario(
                name="bad", phases=(Phase("prefill", 2, 8),),
                embedding=64, model="XLM",  # XLM heads are 128-wide
            )

    def test_unknown_model_rejected(self):
        # As for a phase: an unknown name must not fall back silently
        # to the scenario's embedding.
        with pytest.raises(ValueError, match="unknown scenario model 'GPT'"):
            Scenario(name="bad", phases=(Phase("prefill", 1, 8),), model="GPT")
        with pytest.raises(ValueError, match="unknown phase model 'GPT'"):
            Phase("prefill", 1, 8, model="GPT")


class TestScenarioWork:
    def test_work_equals_merged_graph_durations(self):
        for binding in BINDINGS:
            s = attention_scenario(
                3, 8, binding=binding, decode_instances=2, decode_chunks=4
            )
            busy = scenario_work(s)
            tasks = build_scenario_tasks(s)
            for resource in ("2d", "1d", "io"):
                total = sum(
                    t.duration for t in tasks if t.resource == resource
                )
                assert busy[resource] == total, (binding, resource)

    def test_io_work_only_under_tile_serial(self):
        serial = scenario_work(attention_scenario(2, 8, binding="tile-serial"))
        inter = scenario_work(attention_scenario(2, 8))
        assert serial["io"] > 0
        assert inter["io"] == 0


class TestAnalyticalScenarioModel:
    def test_overlap_bound_replaces_instance_scaling(self):
        """N instances sharing the arrays are bounded by the busiest
        resource, not by N serially-scaled instances that each pay the
        pipeline warm-up: utilization can only rise."""
        scenario = scenario_from_model(BERT, 4096, batch=BATCH_SIZE)
        scaled = fusemax().evaluate(BERT, 4096, batch=BATCH_SIZE)
        bound = analytical_scenario(scenario)
        assert bound.kind == "overlap-bound"
        assert bound.latency_cycles == max(bound.busy.values())
        assert bound.util_2d >= scaled.util_2d

    def test_architecture_stage_serializes_lone_instance(self):
        lone = Scenario(
            name="lone", phases=(Phase("prefill", 1, 16),),
            binding="tile-serial", model="BERT",
        )
        packed = Scenario(
            name="packed", phases=(Phase("prefill", 16, 16),),
            binding="tile-serial", model="BERT",
        )
        lone_result = analytical_scenario(lone)
        packed_result = analytical_scenario(packed)
        assert lone_result.kind == "serial-chain"
        assert packed_result.kind == "overlap-bound"
        # Per-instance latency shrinks when instances hide the stalls.
        assert packed_result.latency_cycles < 16 * lone_result.latency_cycles
        assert packed_result.util_2d > lone_result.util_2d

    def test_every_binding_estimated(self):
        for binding in BINDINGS:
            result = analytical_scenario(
                attention_scenario(2, 8, binding=binding)
            )
            assert result.binding == binding
            assert 0 < result.util_2d <= 1

    def test_decode_phases_estimated_at_graph_level(self):
        scenario = attention_scenario(2, 8, decode_instances=1)
        result = analytical_scenario(scenario)
        assert result.busy == scenario_work(scenario)
        assert result.latency_cycles == max(result.busy.values()) > 0

    def test_heterogeneous_prefill_mix_estimated_at_graph_level(self):
        mixed = Scenario(
            name="mixed",
            phases=(Phase("prefill", 2, 16), Phase("prefill", 2, 64)),
        )
        estimate = analytical_scenario(mixed)
        assert estimate.instances == 4
        assert estimate.latency_cycles == max(estimate.busy.values()) > 0

    def test_scenario_array_dim_respected(self):
        """A lone tile-serial instance fills and drains the array once
        per chunk, so its edge traffic and chain grow with the array."""
        results = [
            analytical_scenario(
                attention_scenario(1, 8, binding="tile-serial", array_dim=dim)
            )
            for dim in (64, 128, 256)
        ]
        for dim, result in zip((64, 128, 256), results):
            assert result.busy["io"] == 8 * 2 * dim
        latencies = [r.latency_cycles for r in results]
        assert latencies == sorted(latencies) and len(set(latencies)) == 3

    def test_synthetic_model_from_embedding(self):
        s = attention_scenario(2, 8, array_dim=128)
        result = analytical_scenario(s)
        assert result.scenario == s.name

    def test_graph_level_and_einsum_level_agree_on_utilization(self):
        """The two analytical accounts (task-graph work integration and
        Einsum op counting) describe the same machine: under the
        interleaved binding their 2D utilizations agree closely."""
        scenario = scenario_from_model(BERT, 4096, batch=8)
        graph = analytical_scenario(scenario)
        einsum = fusemax().evaluate(BERT, 4096, batch=8)
        assert einsum.util_2d == pytest.approx(graph.util_2d, abs=0.05)
