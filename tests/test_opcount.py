"""Tests for operation counting — including the division-reduction result
of Section IV-D and the 1-pass compute overhead of Section IV-E3."""


import pytest

from repro.analysis.opcount import (
    EXP_MACCS,
    OpCounts,
    OpTable,
    count_einsum_ops,
    count_ops,
    total_ops,
)
from repro.arch import fusemax_arch
from repro.cascades import (
    attention_1pass,
    attention_1pass_fa1,
    attention_2pass,
    attention_3pass,
    attention_batched,
    attention_naive,
    cascade1_two_pass,
    cascade2_deferred,
    cascade3_iterative,
    causal_attention,
    encoder_layer_einsums,
    iterative_prefix_sum,
    naive_softmax,
    sigmoid_attention,
    sliding_window_attention,
    stable_softmax,
)
from repro.cascades.pedagogical import filtered_prefix_sum
from repro.einsum import ADD, EXP, MAX_REDUCE, Cascade, Einsum, TensorRef, ref
from repro.einsum.tensor import Map, Unary
from repro.model.fusemax import FLAT_ARCH_BLOCK
from repro.workloads import BERT, T5, XLM

SHAPES = {"E": 64, "F": 64, "M": 1024, "P": 256, "M0": 16, "M1": 64, "K": 100}
M, P, E, F = SHAPES["M"], SHAPES["P"], SHAPES["E"], SHAPES["F"]


class TestOpCounts:
    def test_addition(self):
        total = OpCounts({"macc": 3}) + OpCounts({"macc": 4, "exp": 1})
        assert total.get("macc") == 7
        assert total.get("exp") == 1
        assert total.total == 8

    def test_macc_equivalents_expand_exp(self):
        counts = OpCounts({"macc": 10, "exp": 2, "divide": 5})
        assert counts.macc_equivalents() == 10 + 2 * EXP_MACCS

    def test_get_missing_class_is_zero(self):
        assert OpCounts({}).get("divide") == 0


class TestGEMMCounting:
    def test_qk_maccs(self):
        per = count_ops(attention_3pass(), SHAPES)
        assert per["QK"].get("macc") == E * M * P

    def test_av_maccs(self):
        per = count_ops(attention_3pass(), SHAPES)
        assert per["AV"].get("macc") == F * M * P

    def test_fused_reduction_not_double_counted(self):
        """QK's sum reduction folds into the MACC; no separate adds."""
        per = count_ops(attention_3pass(), SHAPES)
        assert per["QK"].get("add") == 0


class TestSoftmaxCounting:
    def test_global_max_ops(self):
        per = count_ops(attention_3pass(), SHAPES)
        assert per["GM"].get("max") == M * P

    def test_exponential_count(self):
        per = count_ops(attention_3pass(), SHAPES)
        assert per["SN"].get("exp") == M * P

    def test_denominator_adds(self):
        per = count_ops(attention_3pass(), SHAPES)
        assert per["SD"].get("add") == M * P


class TestDivisionReduction:
    """Sec. IV-D: the reassociation reduces divisions by M/F."""

    def test_3pass_divisions(self):
        assert total_ops(attention_3pass(), SHAPES).get("divide") == M * P

    def test_divopt_divisions(self):
        assert total_ops(attention_3pass(div_opt=True), SHAPES).get("divide") == F * P

    def test_reduction_factor(self):
        plain = total_ops(attention_3pass(), SHAPES).get("divide")
        opt = total_ops(attention_3pass(div_opt=True), SHAPES).get("divide")
        assert plain // opt == M // F

    def test_1pass_inherits_reduced_divisions(self):
        assert total_ops(attention_1pass(), SHAPES).get("divide") == F * P

    def test_2pass_divopt(self):
        assert total_ops(attention_2pass(div_opt=True), SHAPES).get("divide") == F * P


class TestOnePassOverhead:
    """Sec. IV-E3: 'Note the evidently increased compute relative to the
    3-pass cascade.'"""

    def test_1pass_more_exps(self):
        exp1 = total_ops(attention_1pass(), SHAPES).get("exp")
        exp3 = total_ops(attention_3pass(), SHAPES).get("exp")
        assert exp1 == exp3 + SHAPES["M1"] * P  # PRM corrections

    def test_1pass_more_total_work(self):
        t1 = total_ops(attention_1pass(), SHAPES)
        t3 = total_ops(attention_3pass(), SHAPES)
        assert t1.macc_equivalents() > t3.macc_equivalents()

    def test_overhead_shrinks_with_larger_blocks(self):
        """Corrections are per-M1-chunk: larger M0 means fewer chunks."""
        small = dict(SHAPES, M0=16, M1=64)
        large = dict(SHAPES, M0=64, M1=16)
        t_small = total_ops(attention_1pass(), small).macc_equivalents()
        t_large = total_ops(attention_1pass(), large).macc_equivalents()
        assert t_large < t_small


class TestViewsAndInits:
    def test_views_are_free(self):
        per = count_ops(attention_1pass(), SHAPES)
        assert per["BK"].total == 0
        assert per["BV"].total == 0

    def test_pedagogical_counts(self):
        per1 = count_ops(cascade1_two_pass(), {"K": 100})
        assert per1["Y"].get("macc") == 100
        assert per1["Z"].get("macc") == 100  # K multiplications (Einsum 6)
        per2 = count_ops(cascade2_deferred(), {"K": 100})
        assert per2["Z"].get("macc") == 1  # a single multiplication (Einsum 9)


# --------------------------------------------------------------------------
# Compiled terms against the recursive expression walk they replace, for
# every cascade builder, at the block sizes the accelerator models use.
# --------------------------------------------------------------------------

def mixed_classes() -> Cascade:
    """A map under a reduction of another class (a max over a sum) and
    an unfused sum over an exp: the order classes are counted in shows."""
    return Cascade.build(
        "mixed-classes",
        [
            Einsum(
                TensorRef.of("Z", "p"),
                Map(ADD, ref("A", "m", "p"), ref("B", "m", "p")),
                reductions={"m": MAX_REDUCE},
                name="Z",
            ),
            Einsum(TensorRef.of("Y", "p"), Unary(EXP, ref("A", "m", "p")), name="Y"),
        ],
        inputs=["A", "B"],
        rank_shapes={"m": "M", "p": "P"},
    )


BUILDERS = {
    "1pass": attention_1pass,
    "1pass-fa1": attention_1pass_fa1,
    "2pass": attention_2pass,
    "2pass-div": lambda: attention_2pass(div_opt=True),
    "3pass": attention_3pass,
    "3pass-div": lambda: attention_3pass(div_opt=True),
    "batched": attention_batched,
    "naive": attention_naive,
    "causal": causal_attention,
    "causal-nodiv": lambda: causal_attention(div_opt=False),
    "sliding-window": sliding_window_attention,
    "sigmoid": sigmoid_attention,
    "cascade1": cascade1_two_pass,
    "cascade2": cascade2_deferred,
    "cascade3": cascade3_iterative,
    "filtered-prefix-sum": filtered_prefix_sum,
    "iterative-prefix-sum": iterative_prefix_sum,
    "naive-softmax": naive_softmax,
    "stable-softmax": stable_softmax,
    "encoder-layer": encoder_layer_einsums,
    "mixed-classes": mixed_classes,
}

#: Symbols outside the attention shapes (pedagogical, batched, encoder).
_OTHER_SYMBOLS = {"K": 100, "B": 4, "H": 12, "D": 768, "G": 3072, "N": 512}

#: One shape set per block the models use: FLAT's tile (FuseMax at the
#: ``cascade`` stage), FuseMax's array dim, and the 3-pass models' 256.
SHAPE_SETS = {
    f"{model.name}-{seq_len}-block{block}": dict(
        model.attention_shapes(seq_len, block=block), **_OTHER_SYMBOLS
    )
    for model, seq_len, block in (
        (BERT, 1024, FLAT_ARCH_BLOCK),
        (XLM, 4096, fusemax_arch().array_dim),
        (T5, 65536, 256),
    )
}


def walk_counts(einsum, cascade, shapes):
    """The recursive expression walk: each map and unary node over its
    rank variables, children first, then the reductions unless fused
    under a root MACC."""
    counts = {}

    def space(vars_):
        size = 1
        for var in vars_:
            size *= cascade.rank_extent(var, shapes)
        return size

    def visit(expr):
        if isinstance(expr, Unary):
            visit(expr.child)
        elif isinstance(expr, Map):
            visit(expr.lhs)
            visit(expr.rhs)
        else:
            return
        cls = expr.op.cost_class
        counts[cls] = counts.get(cls, 0) + space(expr.vars())

    if einsum.is_view:
        return counts
    visit(einsum.expr)
    fused = isinstance(einsum.expr, Map) and einsum.expr.op.cost_class == "macc"
    for var in einsum.reduced_vars():
        cls = einsum.reduce_action(var).cost_class
        if not (cls == "add" and fused):
            counts[cls] = counts.get(cls, 0) + space(einsum.iteration_vars())
    return counts


class TestCompiledCounts:
    @pytest.mark.parametrize("shapes", SHAPE_SETS.values(), ids=SHAPE_SETS)
    @pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS)
    def test_compiled_counts_equal_the_walk(self, builder, shapes):
        """Same counts, and the classes in the same order (a model sums
        them as floats in that order)."""
        cascade = builder()
        per = count_ops(cascade, shapes)
        assert list(per) == list(dict.fromkeys(e.label for e in cascade.einsums))
        for einsum in cascade.einsums:
            expected = list(walk_counts(einsum, cascade, shapes).items())
            assert list(count_einsum_ops(einsum, cascade, shapes).counts.items()) == expected
        for label, counts in per.items():
            einsum = [e for e in cascade.einsums if e.label == label][-1]
            assert list(counts.counts.items()) == list(
                walk_counts(einsum, cascade, shapes).items()
            )

    def test_one_table_counts_every_shape_set(self):
        table = OpTable.of(attention_1pass())
        for shapes in SHAPE_SETS.values():
            assert table.count(shapes) == count_ops(attention_1pass(), shapes)

    def test_unbound_symbol_is_reported(self):
        with pytest.raises(KeyError, match="M1"):
            count_ops(attention_1pass(), {"E": 64, "F": 64, "P": 256, "M0": 16})
