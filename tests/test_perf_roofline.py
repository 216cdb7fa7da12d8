"""Tests for the shared perf helpers, the roofline characterization, and
the transformer linear-layer cascade."""

import hashlib
import importlib
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import count_passes, count_ops, family
from repro.analysis.opcount import OpTable
from repro.arch import fusemax_arch
from repro.cascades import attention_1pass, attention_3pass
from repro.cascades.transformer import encoder_layer_einsums, linear_layers
from repro.experiments.report import full_report
from repro.model import FLATModel, fusemax
from repro.model.perf import array_cycles, make_workload, shared_cascade
from repro.model.roofline import machine_balance_point, roofline_point
from repro.workloads import BERT, T5


class TestPerfHelpers:
    @pytest.fixture
    def workload(self):
        return make_workload(BERT, 4096, attention_3pass, block=256, batch=64)

    def test_heads_total(self, workload):
        assert workload.heads_total == 64 * 12

    def test_io_words(self, workload):
        e = f = 64
        m = p = 4096
        assert workload.io_words() == e * p + e * m + f * m + f * p

    def test_array_cycles_accounts_exp_latency(self, workload):
        one = array_cycles(workload.per_einsum, ("SN",), 256, exp_cycles=1)
        six = array_cycles(workload.per_einsum, ("SN",), 256, exp_cycles=6)
        assert six.busy_cycles == pytest.approx(6 * one.busy_cycles)

    def test_array_cycles_per_einsum_sums(self, workload):
        work = array_cycles(workload.per_einsum, ("QK", "AV"), 65536,
                            exp_cycles=6)
        assert sum(work.per_einsum_cycles.values()) == pytest.approx(
            work.busy_cycles
        )

    def test_array_cycles_op_totals(self, workload):
        work = array_cycles(workload.per_einsum, ("QK",), 65536, exp_cycles=6)
        assert work.op_counts["macc"] == 64 * 4096 * 4096


class TestSharedCascades:
    """Every workload of one builder shares one cascade and op table."""

    def test_workloads_share_the_cascade(self):
        a = make_workload(BERT, 4096, attention_3pass, block=256)
        b = make_workload(T5, 1024, attention_3pass, block=256)
        assert a.cascade is b.cascade is shared_cascade(attention_3pass).cascade
        assert a.per_einsum == count_ops(attention_3pass(), a.shapes)

    def test_full_report_builds_each_cascade_once(self, monkeypatch):
        """A spy per builder: the whole report builds each cascade once,
        prints the golden report, and leaves both cascades and their op
        tables equal to fresh builds."""
        calls = Counter()

        def spy(builder):
            def build():
                calls[builder.__name__] += 1
                return builder()

            return build

        one, three = spy(attention_1pass), spy(attention_3pass)
        for module, name, builder in (
            ("fusemax", "attention_1pass", one),
            ("flat", "attention_3pass", three),
            ("unfused", "attention_3pass", three),
        ):
            monkeypatch.setattr(importlib.import_module(f"repro.model.{module}"), name, builder)
        report = full_report(cache=False)
        golden = Path(__file__).parent / "golden" / "report.sha256"
        assert hashlib.sha256(report.encode()).hexdigest() == golden.read_text().strip()
        assert calls == {"attention_1pass": 1, "attention_3pass": 1}
        for builder, spied in ((attention_1pass, one), (attention_3pass, three)):
            shared = shared_cascade(spied)
            assert shared.cascade == builder()
            assert shared == OpTable.of(builder())


class TestRoofline:
    def test_balance_point(self):
        arch = fusemax_arch()
        expected = 65536 / (400.0 / 0.94)
        assert machine_balance_point(arch) == pytest.approx(expected)

    def test_fusemax_intensity_grows_with_length(self):
        fm = fusemax()
        short = roofline_point(fm.evaluate(BERT, 4096), fm.arch)
        long = roofline_point(fm.evaluate(BERT, 65536), fm.arch)
        assert long.ops_per_byte > 10 * short.ops_per_byte

    def test_fusemax_compute_bound_at_long_lengths(self):
        fm = fusemax()
        point = roofline_point(fm.evaluate(BERT, 65536), fm.arch)
        assert point.compute_bound
        assert point.headroom > 1.0

    def test_flat_intensity_collapses_when_spilling(self):
        flat = FLATModel()
        ok = roofline_point(flat.evaluate(BERT, 65536), flat.arch)
        spilled = roofline_point(flat.evaluate(BERT, 262144), flat.arch)
        assert spilled.ops_per_byte < ok.ops_per_byte


class TestTransformerCascade:
    def test_valid_cascade(self):
        cascade = encoder_layer_einsums()
        assert cascade.result_tensors() == ("F2",)
        assert set(cascade.inputs) >= {"X", "WQ", "W1", "AV"}

    def test_single_pass_over_sequence(self):
        """GEMM chains have no reduce-and-revisit structure over N."""
        assert count_passes(encoder_layer_einsums(), family("n")).num_passes == 1

    def test_op_counts_match_linear_layer_inventory(self):
        shapes = {"H": 12, "E": 64, "F": 64, "D": 768, "G": 3072, "N": 1}
        per = count_ops(encoder_layer_einsums(), shapes)
        total_macs = sum(counts.get("macc") for counts in per.values())
        inventory = sum(
            layer.macs_per_token for layer in linear_layers(768, 12, 64, 3072)
        )
        assert total_macs == inventory

    def test_inventory_scales_with_ffn(self):
        small = sum(layer.macs_per_token for layer in linear_layers(768, 12, 64, 1024))
        large = sum(layer.macs_per_token for layer in linear_layers(768, 12, 64, 4096))
        assert large > small
