"""Tests for the evaluation grid and the per-point work it covers.

The paper's grid is 4 models × 6 sequence lengths at batch 64; the
experiment drivers enumerate it with ``runtime.executor.attention_grid``
and count its work with ``workloads.compute``.
"""

import pytest

from repro.model import fusemax
from repro.runtime.executor import attention_grid
from repro.workloads import (
    BATCH_SIZE,
    BERT,
    MODELS,
    SEQUENCE_LENGTHS,
    T5,
    XLM,
)
from repro.workloads.compute import attention_ops, compute_breakdown, linear_ops
from repro.workloads.scenario import scenario_from_model


def one_config_grid(**kwargs):
    return attention_grid(configs=(fusemax(),), **kwargs)


class TestEvaluationGrid:
    def test_grid_size(self):
        points = one_config_grid()
        assert len(points) == len(MODELS) * len(SEQUENCE_LENGTHS)

    def test_row_major_order(self):
        points = one_config_grid()
        assert points[0].model.name == "BERT"
        assert points[0].seq_len == 1024
        assert points[len(SEQUENCE_LENGTHS)].model.name == "TrXL"

    def test_default_batch(self):
        assert all(p.batch == BATCH_SIZE for p in one_config_grid())


class TestWorkloadPoint:
    def test_attention_instances(self):
        scenario = scenario_from_model(BERT, 4096)
        assert scenario.instances == 64 * 12

    def test_shapes_delegate(self):
        assert BERT.attention_shapes(4096, block=256)["M1"] == 16

    def test_attention_ops_scale_quadratically(self):
        a = attention_ops(BERT, 4096)
        b = attention_ops(BERT, 8192)
        assert b == pytest.approx(4 * a)

    def test_linear_ops_scale_linearly(self):
        a = linear_ops(BERT, 4096)
        b = linear_ops(BERT, 8192)
        assert b == pytest.approx(2 * a)


class TestWorkSummary:
    def test_covers_grid(self):
        summary = {
            (p.model.name, p.seq_len): compute_breakdown(p.model, p.seq_len)
            for p in one_config_grid()
        }
        assert len(summary) == len(MODELS) * len(SEQUENCE_LENGTHS)

    def test_fields(self):
        entry = compute_breakdown(BERT, 4096)
        assert entry.attention == attention_ops(BERT, 4096)
        assert entry.linear == linear_ops(BERT, 4096)
        assert set(entry.proportions()) == {"Attn", "Linear", "Other"}

    def test_xlm_heaviest(self):
        xlm = attention_ops(XLM, 65536)
        t5 = attention_ops(T5, 65536)
        assert xlm > t5
