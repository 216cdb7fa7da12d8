"""Numpy kernels for the Extended Einsum actions, keyed by op name.

The IR in :mod:`repro.einsum.ops` is backend-free: an action is its
name, merge operator, reduction identity and cost class, which is all
the analytical models read.  This module binds each action name to the
numpy kernel the functional interpreter runs it with:

- a map kernel takes two broadcast-aligned arrays;
- a reduce kernel is a numpy reduction called as
  ``kernel(array, axis=..., initial=...)``, where the interpreter passes
  the action's declared identity as ``initial`` (so reducing an empty
  rank yields the identity, e.g. ``-inf`` for max);
- a unary kernel takes one array.

The three tables name exactly the ops of the ``map_op``/``reduce_op``/
``unary_op`` registries (a test pins it), so an op cannot be added to
the IR without a kernel.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np


def _sub_then_exp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.exp(a - b)


def _safe_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """EDGE ``÷(←)``: only points with a non-zero divisor are touched.

    Culled points (divisor exactly zero) keep the populate default of zero,
    which is what makes iterative cascades like Cascade 3 well defined at
    their zero-initialised first step.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b))
    out = np.zeros(a.shape, dtype=float)
    np.divide(a, b, out=out, where=(b != 0))
    return out


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


#: Map action name → ``kernel(a, b)``.
MAP_KERNELS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "mul": np.multiply,
    "add": np.add,
    "sub": np.subtract,
    "max": np.maximum,
    "div": _safe_divide,
    "sub-then-exp": _sub_then_exp,
}

#: Reduce action name → ``kernel(array, axis=..., initial=...)``.
REDUCE_KERNELS: Dict[str, Callable[..., np.ndarray]] = {
    "sum": np.sum,
    "max": np.max,
}

#: Unary action name → ``kernel(a)``.
UNARY_KERNELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.exp,
    "sigmoid": _sigmoid,
    "neg": np.negative,
}

