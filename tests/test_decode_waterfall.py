"""Tests for the decode-phase model (footnote 1) and waterfall rendering."""

import pytest

from repro.arch import fusemax_arch
from repro.model.decode import decode_attention
from repro.model.roofline import machine_balance_point
from repro.simulator import PipelineConfig, Simulator, build_tasks
from repro.simulator.waterfall import render_waterfall, waterfall_text
from repro.workloads import BERT, MODELS


class TestDecodePhase:
    def test_decode_is_memory_bound_at_any_context(self):
        """The paper's footnote-1 claim holds across all contexts/models."""
        for model in MODELS:
            for context in (1024, 65536, 2**20):
                step = decode_attention(model, context, batch=64)
                assert step.memory_bound, (model.name, context)

    def test_intensity_far_below_balance(self):
        step = decode_attention(BERT, 65536, batch=64)
        assert step.arithmetic_intensity < machine_balance_point(fusemax_arch()) / 50

    def test_latency_tracks_kv_cache_size(self):
        short = decode_attention(BERT, 4096).latency_cycles
        long = decode_attention(BERT, 16384).latency_cycles
        assert long == pytest.approx(4 * short)

    def test_intensity_independent_of_context(self):
        """One MAC per cache element: intensity is constant in M."""
        a = decode_attention(BERT, 4096).arithmetic_intensity
        b = decode_attention(BERT, 2**20).arithmetic_intensity
        assert a == pytest.approx(b)

    def test_batch_does_not_help(self):
        """No KV-cache sharing across the batch (Sec. IV-B): intensity is
        flat in batch size too."""
        a = decode_attention(BERT, 4096, batch=1).arithmetic_intensity
        b = decode_attention(BERT, 4096, batch=64).arithmetic_intensity
        assert a == pytest.approx(b)


class TestWaterfall:
    @pytest.fixture
    def sim(self):
        tasks = build_tasks(PipelineConfig(chunks=4), serial=False)
        result = Simulator(tasks, mode="interleaved", slots=2).run()
        return tasks, result

    def test_one_lane_per_resource(self, sim):
        tasks, result = sim
        lanes = render_waterfall(tasks, result)
        assert [lane.resource for lane in lanes] == ["1d", "2d"]

    def test_lane_width_bounded(self, sim):
        tasks, result = sim
        lanes = render_waterfall(tasks, result, width=40)
        assert all(len(lane.text) <= 41 for lane in lanes)

    def test_text_mentions_makespan(self, sim):
        tasks, result = sim
        text = waterfall_text(tasks, result)
        assert str(result.makespan) in text

    def test_glyphs_from_task_names(self, sim):
        tasks, result = sim
        lanes = {lane.resource: lane.text for lane in render_waterfall(tasks, result)}
        assert "B" in lanes["2d"]  # BQK tiles
        assert "R" in lanes["1d"]  # RM / RD / RNV updates

    def test_custom_labeller(self, sim):
        tasks, result = sim
        lanes = render_waterfall(tasks, result, label_of=lambda name: "#")
        assert set(lanes[0].text) <= {"#", "."}
