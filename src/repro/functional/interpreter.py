"""A functional interpreter for cascades of Extended Einsums.

The interpreter evaluates a :class:`repro.einsum.Cascade` on dense numpy
inputs, supporting the full authoring subset used by the paper's cascades:

- map/reduce/unary actions with user-defined compute,
- affine index expressions (``K[e, m1*M0 + m0]``),
- fixed coordinates (``RNV[f, M1, p]``),
- filtered rank expressions (``A[k: k<=i]``),
- iterative ranks with initialization statements and shifted outputs.

It is an *executable semantics*, optimised for clarity over speed: every
Einsum materialises its full iteration space through numpy broadcasting.
It exists so that the analysis results (pass counts, taxonomy) can be
checked against ground-truth numerics — e.g. that Cascade 5 computes
exactly the same attention output as Cascade 4.
"""

from __future__ import annotations

from typing import (
    Callable,
    Container,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..einsum.cascade import Cascade
from ..einsum.einsum import Einsum
from ..einsum.index import Affine, Filter, Fixed, Shifted, Var
from ..einsum.tensor import Expr, Leaf, Literal, Map, TensorRef, Unary
from .kernels import MAP_KERNELS, REDUCE_KERNELS, UNARY_KERNELS

Axes = Tuple[str, ...]
Labeled = Tuple[np.ndarray, Axes]


class InterpreterError(RuntimeError):
    """Raised when a cascade cannot be evaluated."""


def _to_axes(arr: np.ndarray, axes: Axes, target: Axes) -> np.ndarray:
    """Transpose/expand ``arr`` (labelled by ``axes``) onto ``target`` axes."""
    perm = [axes.index(a) for a in target if a in axes]
    arr = np.transpose(arr, perm) if perm != list(range(arr.ndim)) else arr
    shape_iter = iter(arr.shape)
    new_shape = [next(shape_iter) if a in axes else 1 for a in target]
    return arr.reshape(new_shape)


class Interpreter:
    """Evaluates one cascade on concrete inputs.

    Args:
        cascade: The cascade to evaluate.
        shapes: Shape environment binding every shape symbol the cascade
            mentions (e.g. ``{"E": 8, "M": 32, ...}``).
        inputs: One numpy array per cascade input tensor.
    """

    def __init__(
        self,
        cascade: Cascade,
        shapes: Mapping[str, int],
        inputs: Mapping[str, np.ndarray],
    ) -> None:
        self.cascade = cascade
        self.shapes = dict(shapes)
        missing = set(cascade.inputs) - set(inputs)
        if missing:
            raise InterpreterError(f"missing input tensors: {sorted(missing)}")
        self.tensors: Dict[str, np.ndarray] = {
            name: np.asarray(array, dtype=float) for name, array in inputs.items()
        }
        self.extents: Dict[str, int] = {
            var: cascade.rank_extent(var, self.shapes)
            for var in cascade.rank_shapes
        }

    # -- public API ----------------------------------------------------------

    def run(self) -> Dict[str, np.ndarray]:
        """Evaluate the cascade; returns every tensor (inputs included)."""
        self._allocate_outputs()
        for einsum in self.cascade.initialization():
            self._execute(einsum, bound={})
        iter_vars = self.cascade.iterative_vars
        if len(iter_vars) > 1:
            raise InterpreterError("nested iterative ranks are not supported")
        if iter_vars:
            var = iter_vars[0]
            extent = self.cascade.iterative[0].resolved_extent(self.shapes)
            body = [e for e in self.cascade.extended() if var in e.iteration_vars()]
            tail = [
                e for e in self.cascade.extended() if var not in e.iteration_vars()
            ]
            # The per-Einsum schedule (identity lookup, output axes,
            # reduce actions) depends only on which variables are bound,
            # not their values — hoist it out of the chunk loop.
            plans = [(e, _EinsumPlan(self, e, (var,))) for e in body]
            for i in range(extent):
                for einsum, plan in plans:
                    self._execute(einsum, bound={var: i}, plan=plan)
            for einsum in tail:
                self._execute(einsum, bound={})
        else:
            for einsum in self.cascade.extended():
                self._execute(einsum, bound={})
        return dict(self.tensors)

    def outputs(self) -> Dict[str, np.ndarray]:
        """Evaluate the cascade and return only its declared result tensors."""
        all_tensors = self.run()
        return {name: all_tensors[name] for name in self.cascade.result_tensors()}

    # -- allocation ----------------------------------------------------------

    def _allocate_outputs(self) -> None:
        """Allocate a zero array for every tensor the cascade produces.

        A rank indexed by ``Shifted(v, o)`` anywhere needs ``extent(v) + o``
        coordinates (iterative tensors carry one extra slot).
        """
        produced = [t for t in self.cascade.tensors() if t not in self.cascade.inputs]
        for tensor in produced:
            dims: List[int] = []
            refs = [
                e.output for e in self.cascade.producers(tensor)
            ] + [
                r
                for e in self.cascade.einsums
                for r in e.reads()
                if r.tensor == tensor
            ]
            rank_count = refs[0].rank_count()
            for pos in range(rank_count):
                dims.append(self._rank_extent_at(refs, pos))
            self.tensors[tensor] = np.zeros(tuple(dims), dtype=float)

    def _rank_extent_at(self, refs: Sequence[TensorRef], pos: int) -> int:
        """Extent of rank ``pos`` of a tensor, over all its references."""
        best = 0
        for ref_ in refs:
            ix = ref_.indices[pos]
            if isinstance(ix, Var):
                best = max(best, self.extents[ix.name])
            elif isinstance(ix, Shifted):
                best = max(best, self.extents[ix.name] + max(ix.offset, 0))
            elif isinstance(ix, Fixed):
                best = max(best, ix.evaluate({}, self.shapes) + 1)
            elif isinstance(ix, Affine):
                env = {v: self.extents[v] - 1 for v in ix.vars()}
                best = max(best, ix.evaluate(env, self.shapes) + 1)
        if best == 0:
            raise InterpreterError(f"cannot size rank {pos} of {refs[0].tensor}")
        return best

    # -- execution -----------------------------------------------------------

    def _execute(
        self,
        einsum: Einsum,
        bound: Mapping[str, int],
        plan: Optional["_EinsumPlan"] = None,
    ) -> None:
        if plan is None:
            plan = _EinsumPlan(self, einsum, bound)
        identity_for = plan.identity_for
        arr, axes = self._eval(einsum.expr, bound, identity_for)
        out_axes = plan.out_axes
        for var in [a for a in axes if a not in out_axes]:
            op = plan.reduce_op(var)
            axis = axes.index(var)
            # The declared identity is numpy's ``initial``: an empty rank
            # reduces to it (``-inf`` for max) instead of raising.
            arr = REDUCE_KERNELS[op.name](
                np.asarray(arr), axis=axis, initial=op.identity
            )
            axes = axes[:axis] + axes[axis + 1 :]
        if not set(axes) <= set(out_axes):
            raise InterpreterError(
                f"{einsum.label}: expression axes {axes} do not match "
                f"output axes {out_axes}"
            )
        if tuple(axes) != tuple(out_axes):
            # Missing axes broadcast over the output (e.g. initialising
            # RM[0, p] from a scalar literal).
            arr = _to_axes(np.asarray(arr), axes, out_axes)
        index = self._write_index(einsum.output, bound)
        self.tensors[einsum.writes_tensor()][index] = arr

    def _identity_lookup(self, einsum: Einsum) -> Callable[[str], float]:
        reduced = set(einsum.reduced_vars())

        def identity(var: str) -> float:
            if var in reduced:
                return einsum.reduce_action(var).identity
            return 0.0

        return identity

    def _free_axes(self, ref_: TensorRef, bound: Container[str]) -> Axes:
        axes: List[str] = []
        for ix in ref_.indices:
            for var in ix.vars():
                if var not in bound and var not in axes:
                    axes.append(var)
        return tuple(axes)

    def _write_index(self, ref_: TensorRef, bound: Mapping[str, int]):
        index: List[object] = []
        for ix in ref_.indices:
            if isinstance(ix, Fixed):
                index.append(ix.evaluate({}, self.shapes))
            elif isinstance(ix, Var):
                if ix.name in bound:
                    index.append(bound[ix.name])
                else:
                    index.append(slice(None))
            elif isinstance(ix, Shifted):
                if ix.name in bound:
                    index.append(bound[ix.name] + ix.offset)
                else:
                    index.append(
                        slice(ix.offset, self.extents[ix.name] + ix.offset)
                    )
            else:
                raise InterpreterError(
                    "affine output indices are not supported (tensor "
                    f"{ref_.tensor})"
                )
        return tuple(index)

    # -- expression evaluation -------------------------------------------------

    def _eval(
        self,
        expr: Expr,
        bound: Mapping[str, int],
        identity_for: Callable[[str], float],
    ) -> Labeled:
        if isinstance(expr, Literal):
            return np.float64(expr.value), ()
        if isinstance(expr, Unary):
            arr, axes = self._eval(expr.child, bound, identity_for)
            return UNARY_KERNELS[expr.op.name](np.asarray(arr)), axes
        if isinstance(expr, Map):
            a, aa = self._eval(expr.lhs, bound, identity_for)
            b, bb = self._eval(expr.rhs, bound, identity_for)
            union = tuple(aa) + tuple(x for x in bb if x not in aa)
            a_aligned = _to_axes(np.asarray(a), aa, union) if union else a
            b_aligned = _to_axes(np.asarray(b), bb, union) if union else b
            return MAP_KERNELS[expr.op.name](a_aligned, b_aligned), union
        if isinstance(expr, Leaf):
            return self._eval_leaf(expr.ref, bound, identity_for)
        raise InterpreterError(f"unknown expression node {type(expr).__name__}")

    def _eval_leaf(
        self,
        ref_: TensorRef,
        bound: Mapping[str, int],
        identity_for: Callable[[str], float],
    ) -> Labeled:
        try:
            out = self.tensors[ref_.tensor]
        except KeyError:
            raise InterpreterError(
                f"tensor {ref_.tensor!r} read before definition"
            ) from None
        labels: List[str] = []
        axis = 0
        for ix in ref_.indices:
            if isinstance(ix, Fixed):
                out = np.take(out, ix.evaluate({}, self.shapes), axis=axis)
            elif isinstance(ix, (Var, Shifted)):
                name = ix.name
                if name in bound:
                    out = np.take(out, ix.evaluate(bound, self.shapes), axis=axis)
                else:
                    if ix.shifted_by() != 0:
                        coords = np.arange(self.extents[name]) + ix.shifted_by()
                        out = np.take(out, coords, axis=axis)
                    if name in labels:
                        raise InterpreterError(
                            f"repeated rank variable {name!r} in {ref_}"
                        )
                    labels.append(name)
                    axis += 1
            elif isinstance(ix, Affine):
                free = [v for v in ix.vars() if v not in bound]
                if not free:
                    out = np.take(out, ix.evaluate(bound, self.shapes), axis=axis)
                else:
                    idx = self._affine_index(ix, bound, free)
                    out = np.take(out, idx, axis=axis)
                    labels.extend(free)
                    axis += len(free)
            else:
                raise InterpreterError(f"unsupported index {ix!r} in {ref_}")
        out, labels = self._apply_filters(
            out, tuple(labels), ref_, bound, identity_for
        )
        return out, tuple(labels)

    def _affine_index(
        self, ix: Affine, bound: Mapping[str, int], free: Sequence[str]
    ) -> np.ndarray:
        """Index array for an affine expression over its free variables."""
        from ..einsum.index import resolve_symint

        base = resolve_symint(ix.offset, self.shapes)
        grids = []
        for pos, (name, coeff) in enumerate(ix.terms):
            c = resolve_symint(coeff, self.shapes)
            if name in bound:
                base += bound[name] * c
            else:
                shape = [1] * len(free)
                shape[free.index(name)] = self.extents[name]
                grids.append((np.arange(self.extents[name]) * c).reshape(shape))
        idx = np.asarray(base)
        for grid in grids:
            idx = idx + grid
        return idx

    def _apply_filters(
        self,
        out: np.ndarray,
        labels: Axes,
        ref_: TensorRef,
        bound: Mapping[str, int],
        identity_for: Callable[[str], float],
    ) -> Labeled:
        for flt in ref_.filters:
            if flt.var not in labels:
                raise InterpreterError(
                    f"filter variable {flt.var!r} does not index {ref_.tensor!r}"
                )
            var_axis = labels.index(flt.var)
            var_coords = np.arange(out.shape[var_axis])
            bound_free = [v for v in flt.bound.vars() if v not in bound]
            fill = identity_for(flt.var)
            cmp = Filter._OPS[flt.op]
            if not bound_free:
                limit = flt.bound.evaluate(bound, self.shapes)
                mask = cmp(var_coords, limit)
                shape = [1] * out.ndim
                shape[var_axis] = len(var_coords)
                out = np.where(mask.reshape(shape), out, fill)
            elif len(bound_free) == 1 and bound_free[0] in labels:
                # The bound variable already indexes this tensor (e.g. the
                # causal mask QK[m, p : m <= p]): mask across both axes,
                # evaluating the bound expression per coordinate so affine
                # bounds like p - W work.
                free_var = bound_free[0]
                free_axis = labels.index(free_var)
                limits = self._bound_values(
                    flt, bound, free_var, out.shape[free_axis]
                )
                mask = cmp(var_coords[:, None], limits[None, :])
                shape = [1] * out.ndim
                shape[var_axis] = len(var_coords)
                shape[free_axis] = len(limits)
                if var_axis > free_axis:
                    mask = mask.T
                out = np.where(mask.reshape(shape), out, fill)
            elif len(bound_free) == 1:
                free_var = bound_free[0]
                limits = self._bound_values(
                    flt, bound, free_var, self.extents[free_var]
                )
                mask = cmp(var_coords[:, None], limits[None, :])
                shape = [1] * (out.ndim + 1)
                shape[var_axis] = len(var_coords)
                shape[-1] = len(limits)
                out = np.where(mask.reshape(shape), out[..., None], fill)
                labels = labels + (free_var,)
            else:
                raise InterpreterError(
                    "filters with multiple free bound variables are unsupported"
                )
        return out, labels

    def _bound_values(
        self,
        flt: Filter,
        bound: Mapping[str, int],
        free_var: str,
        extent: int,
    ) -> np.ndarray:
        """The filter bound evaluated at every coordinate of ``free_var``."""
        env = dict(bound)
        values = np.empty(extent, dtype=np.int64)
        for coord in range(extent):
            env[free_var] = coord
            values[coord] = flt.bound.evaluate(env, self.shapes)
        return values


class _EinsumPlan:
    """Loop-invariant evaluation schedule for one Einsum.

    Everything here depends on the Einsum's structure and on *which*
    variables are bound — never on their values — so the iterative
    interpreter builds one plan per body Einsum instead of recomputing
    reduce identities, output axes, and reduce actions for every chunk.
    """

    __slots__ = ("identity_for", "out_axes", "_einsum", "_reduce_ops")

    def __init__(
        self, interp: Interpreter, einsum: Einsum, bound: Container[str]
    ) -> None:
        self._einsum = einsum
        self.identity_for = interp._identity_lookup(einsum)
        self.out_axes = interp._free_axes(einsum.output, bound)
        self._reduce_ops: Dict[str, object] = {}

    def reduce_op(self, var: str):
        """The reduce action for ``var``, resolved once."""
        op = self._reduce_ops.get(var)
        if op is None:
            op = self._reduce_ops[var] = self._einsum.reduce_action(var)
        return op


def evaluate(
    cascade: Cascade,
    shapes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Evaluate ``cascade`` and return all tensors (convenience wrapper)."""
    return Interpreter(cascade, shapes, inputs).run()


def evaluate_output(
    cascade: Cascade,
    shapes: Mapping[str, int],
    inputs: Mapping[str, np.ndarray],
    tensor: Optional[str] = None,
) -> np.ndarray:
    """Evaluate ``cascade`` and return one result tensor.

    When ``tensor`` is omitted, the cascade must declare exactly one output.
    """
    results = Interpreter(cascade, shapes, inputs).outputs()
    if tensor is not None:
        return results[tensor]
    if len(results) != 1:
        raise InterpreterError(
            f"cascade {cascade.name!r} has outputs {sorted(results)}; "
            "specify which one to return"
        )
    return next(iter(results.values()))
