"""Unit tests for map/reduce/unary actions (repro.einsum.ops) and the
numpy kernels that execute them (repro.functional.kernels)."""

import numpy as np
import pytest

from repro.einsum import ops
from repro.einsum.ops import (
    ADD,
    DIV,
    EXP,
    MAX,
    MAX_REDUCE,
    MUL,
    MapOp,
    ReduceOp,
    SUB_THEN_EXP,
    SUM_REDUCE,
    UnaryOp,
    map_op,
    reduce_op,
    unary_op,
)
from repro.functional.kernels import MAP_KERNELS, REDUCE_KERNELS, UNARY_KERNELS


class TestMapKernels:
    def test_mul(self):
        out = MAP_KERNELS["mul"](np.array([2.0, 3.0]), np.array([4.0, 5.0]))
        assert out.tolist() == [8, 15]

    def test_add(self):
        assert MAP_KERNELS["add"](np.array([1.0]), np.array([2.0])).tolist() == [3.0]

    def test_sub(self):
        assert MAP_KERNELS["sub"](np.array([5.0]), np.array([2.0])).tolist() == [3.0]

    def test_max_is_elementwise(self):
        out = MAP_KERNELS["max"](np.array([1.0, 9.0]), np.array([5.0, 2.0]))
        assert out.tolist() == [5.0, 9.0]

    def test_sub_then_exp(self):
        out = MAP_KERNELS["sub-then-exp"](np.array([1.0]), np.array([1.0]))
        assert out.tolist() == [1.0]

    def test_sub_then_exp_of_minus_inf(self):
        out = MAP_KERNELS["sub-then-exp"](np.array([-np.inf]), np.array([0.0]))
        assert out.tolist() == [0.0]

    def test_div(self):
        assert MAP_KERNELS["div"](np.array([6.0]), np.array([3.0])).tolist() == [2.0]

    def test_div_culls_zero_divisor(self):
        """EDGE's ÷(←) merge leaves zero where the divisor is zero."""
        out = MAP_KERNELS["div"](np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        assert out.tolist() == [0.0, 1.0]

    def test_div_broadcasts(self):
        out = MAP_KERNELS["div"](np.ones((2, 3)), np.array([1.0, 2.0, 4.0]))
        assert out.shape == (2, 3)
        assert out[0].tolist() == [1.0, 0.5, 0.25]


class TestMapOps:
    def test_merge_labels(self):
        assert MUL.merge == "intersection"
        assert ADD.merge == "union"
        assert DIV.merge == "right-nonzero"
        assert SUB_THEN_EXP.merge == "pass-through"

    def test_cost_classes(self):
        assert MUL.cost_class == "macc"
        assert MAX.cost_class == "max"
        assert DIV.cost_class == "divide"
        assert SUB_THEN_EXP.cost_class == "exp"


class TestReduceKernels:
    def test_sum_reduce(self):
        arr = np.arange(6.0).reshape(2, 3)
        out = REDUCE_KERNELS["sum"](arr, axis=0, initial=SUM_REDUCE.identity)
        assert out.tolist() == [3.0, 5.0, 7.0]

    def test_max_reduce(self):
        arr = np.array([[1.0, 9.0], [5.0, 2.0]])
        out = REDUCE_KERNELS["max"](arr, axis=1, initial=MAX_REDUCE.identity)
        assert out.tolist() == [9.0, 5.0]


class TestReduceOps:
    def test_identities(self):
        assert SUM_REDUCE.identity == 0.0
        assert MAX_REDUCE.identity == -np.inf


class TestUnaryKernels:
    def test_exp(self):
        assert UNARY_KERNELS["exp"](np.array([0.0])).tolist() == [1.0]

    def test_neg(self):
        assert UNARY_KERNELS["neg"](np.array([3.0])).tolist() == [-3.0]

    def test_sigmoid_midpoint(self):
        assert UNARY_KERNELS["sigmoid"](np.array([0.0])).tolist() == [0.5]

    def test_sigmoid_saturates(self):
        assert UNARY_KERNELS["sigmoid"](np.array([100.0]))[0] == pytest.approx(1.0)


class TestRegistries:
    def test_map_lookup(self):
        assert map_op("mul") is MUL
        assert map_op("sub-then-exp") is SUB_THEN_EXP

    def test_reduce_lookup(self):
        assert reduce_op("max") is MAX_REDUCE

    def test_unary_lookup(self):
        assert unary_op("exp") is EXP

    @pytest.mark.parametrize("lookup", [map_op, reduce_op, unary_op])
    def test_unknown_name_raises(self, lookup):
        with pytest.raises(KeyError):
            lookup("nope")

    @pytest.mark.parametrize(
        "cls, registry, kernels",
        [
            (MapOp, ops._MAP_OPS, MAP_KERNELS),
            (ReduceOp, ops._REDUCE_OPS, REDUCE_KERNELS),
            (UnaryOp, ops._UNARY_OPS, UNARY_KERNELS),
        ],
    )
    def test_kernel_table_names_exactly_the_registered_ops(
        self, cls, registry, kernels
    ):
        """Every op the module defines is registered, and has a kernel."""
        defined = {v.name for v in vars(ops).values() if isinstance(v, cls)}
        assert defined == set(registry) == set(kernels)
