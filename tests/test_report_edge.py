"""Integration test for the full report, and the FuseMax design scaled
to an edge budget through ``fusemax_arch`` overrides."""

import pytest

from repro.arch import area_of, fusemax_arch
from repro.experiments.report import full_report
from repro.model import fusemax
from repro.workloads import BERT


def edge_arch(**overrides):
    """128×128 PEs, a 2 MB buffer, 64 GB/s LPDDR-class bandwidth."""
    defaults = dict(
        array_dim=128, global_buffer_bytes=2 * 2**20,
        dram_gbps=64.0, frequency_ghz=0.7,
    )
    defaults.update(overrides)
    return fusemax_arch(**defaults)


class TestFullReport:
    @pytest.fixture(scope="class")
    def report(self):
        return full_report()

    def test_all_sections_present(self, report):
        for fragment in (
            "Figure 1b", "Table I", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Figure 11", "Figure 12", "Ablations",
        ):
            assert fragment in report

    def test_headlines_present(self, report):
        assert "paper: 6.7x" in report
        assert "paper: 5.3x" in report
        assert "paper: 0.79" in report

    def test_taxonomy_rows_present(self, report):
        assert "attention-1pass" in report
        assert "FlashAttention-2" in report



class TestEdgeConfiguration:
    def test_parameters(self):
        arch = edge_arch()
        assert arch.pe_2d == 128 * 128
        assert arch.global_buffer_bytes == 2 * 2**20
        assert arch.fused_2d_softmax

    def test_smaller_than_cloud(self):
        assert area_of(edge_arch()).total < area_of(fusemax_arch()).total

    def test_fusemax_model_runs_on_edge(self):
        """The FuseMax model works at edge scale: still high 2D util
        (compute grows quadratically past the thinner DRAM pipe)."""
        model = fusemax(arch=edge_arch())
        result = model.evaluate(BERT, 16384)
        assert result.util_2d > 0.9
        assert result.util_1d > 0.9

    def test_edge_slower_than_cloud(self):
        edge = fusemax(arch=edge_arch()).evaluate(BERT, 16384)
        cloud = fusemax().evaluate(BERT, 16384)
        assert edge.latency_cycles > cloud.latency_cycles

    def test_overrides_respected(self):
        arch = edge_arch(array_dim=64)
        assert arch.pe_2d == 4096
