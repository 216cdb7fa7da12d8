"""Unit tests for the cascade interpreter core mechanics."""

import numpy as np
import pytest

from repro.einsum import (
    ADD,
    Affine,
    Cascade,
    Einsum,
    Fixed,
    Filter,
    IterativeRank,
    Literal,
    MAX_REDUCE,
    MUL,
    Map,
    EXP,
    Shifted,
    TensorRef,
    Unary,
    Var,
    ref,
)
from repro.functional.interpreter import (
    Interpreter,
    InterpreterError,
    evaluate,
    evaluate_output,
)


def _single(name, einsums, inputs, ranks, **kwargs):
    return Cascade.build(name, einsums, inputs, ranks, **kwargs)


class TestBasicEinsums:
    def test_gemm(self, rng):
        gemm = Einsum(
            output=TensorRef.of("Z", "m", "n"),
            expr=Map(MUL, ref("A", "k", "m"), ref("B", "k", "n")),
            name="Z",
        )
        cascade = _single("gemm", [gemm], ["A", "B"], {"k": "K", "m": "M", "n": "N"})
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 5))
        out = evaluate_output(cascade, {"K": 3, "M": 4, "N": 5}, {"A": a, "B": b})
        assert np.allclose(out, a.T @ b)

    def test_elementwise_unary(self, rng):
        e = Einsum(
            output=TensorRef.of("Z", "m"), expr=Unary(EXP, ref("A", "m")), name="Z"
        )
        cascade = _single("exp", [e], ["A"], {"m": "M"})
        a = rng.normal(size=6)
        out = evaluate_output(cascade, {"M": 6}, {"A": a})
        assert np.allclose(out, np.exp(a))

    def test_max_reduction(self, rng):
        e = Einsum(
            output=TensorRef.of("Z", "n"),
            expr=ref("A", "m", "n"),
            reductions={"m": MAX_REDUCE},
            name="Z",
        )
        cascade = _single("rowmax", [e], ["A"], {"m": "M", "n": "N"})
        a = rng.normal(size=(4, 3))
        out = evaluate_output(cascade, {"M": 4, "N": 3}, {"A": a})
        assert np.allclose(out, a.max(axis=0))

    @pytest.mark.parametrize("reduce, identity", [(None, 0.0), (MAX_REDUCE, -np.inf)])
    def test_reduction_over_empty_rank_is_the_identity(self, reduce, identity):
        e = Einsum(
            output=TensorRef.of("Z", "m"),
            expr=ref("A", "k", "m"),
            reductions={"k": reduce} if reduce else {},
            name="Z",
        )
        cascade = _single("empty", [e], ["A"], {"k": "K", "m": "M"})
        out = evaluate_output(cascade, {"K": 0, "M": 3}, {"A": np.zeros((0, 3))})
        assert out.tolist() == [identity] * 3

    def test_scalar_output(self, rng):
        e = Einsum(
            output=TensorRef.of("Z"),
            expr=Map(MUL, ref("A", "k"), ref("B", "k")),
            name="Z",
        )
        cascade = _single("dot", [e], ["A", "B"], {"k": "K"})
        a, b = rng.normal(size=4), rng.normal(size=4)
        out = evaluate_output(cascade, {"K": 4}, {"A": a, "B": b})
        assert np.isclose(out, a @ b)

    def test_broadcast_literal_initialisation(self):
        init = Einsum(
            output=TensorRef.of("S", "p"),
            expr=Literal(7.0),
            name="S",
        )
        cascade = _single("fill", [init], [], {"p": "P"})
        out = evaluate(cascade, {"P": 3}, {})["S"]
        assert out.tolist() == [7.0, 7.0, 7.0]


class TestAffineIndexing:
    def test_partition_view(self, rng):
        split = Affine((("m1", "M0"), ("m0", 1)))
        bk = Einsum(
            output=TensorRef.of("BK", "e", "m1", "m0"),
            expr=ref("K", "e", split),
            name="BK",
        )
        cascade = _single(
            "split", [bk], ["K"], {"e": "E", "m1": "M1", "m0": "M0"}
        )
        k = rng.normal(size=(2, 12))
        out = evaluate(cascade, {"E": 2, "M1": 3, "M0": 4}, {"K": k})["BK"]
        assert out.shape == (2, 3, 4)
        assert np.allclose(out, k.reshape(2, 3, 4))

    def test_strided_gather(self, rng):
        stride2 = Affine((("j", 2),))
        e = Einsum(
            output=TensorRef.of("Z", "j"), expr=ref("A", stride2), name="Z"
        )
        cascade = _single("stride", [e], ["A"], {"j": "J"})
        a = rng.normal(size=8)
        out = evaluate_output(cascade, {"J": 4}, {"A": a})
        assert np.allclose(out, a[::2])


class TestFixedAndShifted:
    def test_fixed_read(self, rng):
        e = Einsum(
            output=TensorRef.of("Z", "n"), expr=ref("A", Fixed(2), "n"), name="Z"
        )
        cascade = _single("fixed", [e], ["A"], {"n": "N"})
        a = rng.normal(size=(4, 3))
        out = evaluate_output(cascade, {"N": 3}, {"A": a})
        assert np.allclose(out, a[2])

    def test_shifted_lhs_writes_offset_slice(self, rng):
        e = Einsum(
            output=TensorRef.of("S", Shifted("i", 1)),
            expr=ref("A", "i"),
            name="S",
        )
        cascade = _single("shift", [e], ["A"], {"i": "K"})
        a = rng.normal(size=5)
        out = evaluate(cascade, {"K": 5}, {"A": a})["S"]
        assert out.shape == (6,)
        assert out[0] == 0.0
        assert np.allclose(out[1:], a)


class TestFilters:
    def test_bound_filter_prefix(self, rng):
        """S[i+1] = A[k: k<=i] computes prefix sums (quadratic form)."""
        e = Einsum(
            output=TensorRef.of("S", Shifted("i", 1)),
            expr=ref("A", "k", filters=[Filter("k", "<=", Var("i"))]),
            name="S",
        )
        cascade = _single("prefix", [e], ["A"], {"i": "K", "k": "K"})
        a = rng.normal(size=5)
        out = evaluate(cascade, {"K": 5}, {"A": a})["S"]
        assert np.allclose(out[1:], np.cumsum(a))

    def test_strict_filter(self, rng):
        e = Einsum(
            output=TensorRef.of("S", Shifted("i", 1)),
            expr=ref("A", "k", filters=[Filter("k", "<", Var("i"))]),
            name="S",
        )
        cascade = _single("prefix-lt", [e], ["A"], {"i": "K", "k": "K"})
        a = rng.normal(size=4)
        out = evaluate(cascade, {"K": 4}, {"A": a})["S"]
        # k < i excludes element i: S[i+1] = sum(a[:i])
        assert np.allclose(out[1:], np.concatenate([[0], np.cumsum(a)[:-1]]))


class TestIterative:
    def test_running_sum_matches_cumsum(self, rng):
        init = Einsum(
            output=TensorRef.of("S", Fixed(0)),
            expr=Literal(0.0),
            is_initialization=True,
            name="S0",
        )
        step = Einsum(
            output=TensorRef.of("S", Shifted("i", 1)),
            expr=Map(ADD, ref("S", "i"), ref("A", "i")),
            name="S",
        )
        cascade = _single(
            "runsum",
            [init, step],
            ["A"],
            {"i": "K"},
            iterative=[IterativeRank("i", "K")],
        )
        a = rng.normal(size=6)
        out = evaluate(cascade, {"K": 6}, {"A": a})["S"]
        assert np.allclose(out, np.concatenate([[0.0], np.cumsum(a)]))

    def test_post_loop_einsum_reads_final_coordinate(self, rng):
        init = Einsum(
            output=TensorRef.of("S", Fixed(0)),
            expr=Literal(0.0),
            is_initialization=True,
            name="S0",
        )
        step = Einsum(
            output=TensorRef.of("S", Shifted("i", 1)),
            expr=Map(ADD, ref("S", "i"), ref("A", "i")),
            name="S",
        )
        final = Einsum(
            output=TensorRef.of("Z"), expr=ref("S", Fixed("K")), name="Z"
        )
        cascade = _single(
            "runsum-final",
            [init, step, final],
            ["A"],
            {"i": "K"},
            iterative=[IterativeRank("i", "K")],
            outputs=["Z"],
        )
        a = rng.normal(size=6)
        out = evaluate_output(cascade, {"K": 6}, {"A": a})
        assert np.isclose(out, a.sum())


class TestErrors:
    def test_missing_input_raises(self):
        cascade = _single(
            "dot",
            [
                Einsum(
                    output=TensorRef.of("Z"),
                    expr=Map(MUL, ref("A", "k"), ref("B", "k")),
                    name="Z",
                )
            ],
            ["A", "B"],
            {"k": "K"},
        )
        with pytest.raises(InterpreterError, match="missing input"):
            Interpreter(cascade, {"K": 4}, {"A": np.ones(4)})

    def test_multiple_outputs_need_explicit_name(self, rng):
        e1 = Einsum(output=TensorRef.of("Y"), expr=Map(MUL, ref("A", "k"), ref("B", "k")), name="Y")
        e2 = Einsum(output=TensorRef.of("X"), expr=ref("A", "k"), name="X")
        cascade = _single("two", [e1, e2], ["A", "B"], {"k": "K"})
        a, b = rng.normal(size=3), rng.normal(size=3)
        with pytest.raises(InterpreterError, match="outputs"):
            evaluate_output(cascade, {"K": 3}, {"A": a, "B": b})
        assert np.isclose(
            evaluate_output(cascade, {"K": 3}, {"A": a, "B": b}, "X"), a.sum()
        )
