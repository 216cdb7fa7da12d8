"""Bindings: assigning Einsums to PE arrays (Sec. II-D, Sec. V).

A binding maps each Einsum of a cascade to the compute unit that executes
it and declares which pairs are cycle-interleaved (the ``A|B`` notation of
Fig. 4).  :func:`validate_binding` checks the assignment against the
architecture's PE capabilities: division only runs on the 1D array, and
softmax operations (max / exp) run on the 2D array only when the PEs have
the FuseMax extensions (Fig. 3c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Tuple

from ..arch.spec import Architecture
from ..cascades.attention import attention_1pass, attention_3pass
from ..einsum import Cascade


class BindingError(ValueError):
    """Raised when a binding violates architecture capabilities."""


@dataclass(frozen=True)
class Binding:
    """Einsum-to-array assignment plus interleaving declarations."""

    name: str
    assignment: Mapping[str, str]  # Einsum label -> "2d" | "1d"
    interleaved: Tuple[Tuple[str, str], ...] = ()

    def on_array(self, array: str) -> Tuple[str, ...]:
        return tuple(
            label for label, arr in self.assignment.items() if arr == array
        )

    def array_of(self, label: str) -> str:
        try:
            return self.assignment[label]
        except KeyError:
            raise BindingError(f"{self.name}: Einsum {label!r} unbound") from None


#: Operation classes each array supports, keyed by PE flavour.
_2D_BASE = frozenset({"macc", "mul", "add"})
_2D_FUSEMAX = _2D_BASE | {"max", "exp"}  # exp via 6 sequential MACCs
_1D_OPS = frozenset({"macc", "mul", "add", "max", "divide", "exp"})


def _einsum_op_classes(cascade: Cascade, label: str) -> FrozenSet[str]:
    """Cost classes an Einsum's compute requires."""
    from ..analysis.opcount import count_einsum_ops

    einsum = cascade.find(label)
    # Shapes of 2 are enough to expose which classes appear.
    shapes = {str(sym): 2 for sym in cascade.rank_shapes.values()}
    counts = count_einsum_ops(einsum, cascade, shapes)
    return frozenset(counts.counts)


def validate_binding(
    binding: Binding, cascade: Cascade, arch: Architecture
) -> None:
    """Check the binding covers the cascade and respects PE capabilities."""
    computable = {
        e.label
        for e in cascade.einsums
        if not e.is_view and not e.is_initialization
    }
    bound = set(binding.assignment)
    missing = computable - bound
    if missing:
        raise BindingError(f"{binding.name}: unbound Einsums {sorted(missing)}")
    caps_2d = _2D_FUSEMAX if arch.fused_2d_softmax else _2D_BASE
    for label, array in binding.assignment.items():
        if array not in ("2d", "1d"):
            raise BindingError(f"{binding.name}: unknown array {array!r}")
        required = _einsum_op_classes(cascade, label)
        allowed = caps_2d if array == "2d" else _1D_OPS
        unsupported = required - allowed
        if unsupported:
            raise BindingError(
                f"{binding.name}: Einsum {label!r} needs {sorted(unsupported)} "
                f"which the {array} array lacks"
            )
    for a, b in binding.interleaved:
        if binding.array_of(a) != binding.array_of(b):
            raise BindingError(
                f"{binding.name}: interleaved pair ({a}, {b}) spans arrays"
            )


def flat_binding() -> Binding:
    """FLAT: tensor products on the 2D array, softmax on the 1D array."""
    return Binding(
        name="flat",
        assignment={
            "QK": "2d",
            "AV": "2d",
            "GM": "1d",
            "SN": "1d",
            "SD": "1d",
            "A": "1d",
        },
    )


def plus_cascade_binding() -> Binding:
    """The 1-pass cascade on the FLAT architecture: softmax still on 1D."""
    return Binding(
        name="+cascade",
        assignment={
            "BQK": "2d",
            "SLNV": "2d",
            "LM": "1d",
            "RM": "1d",
            "SLN": "1d",
            "SLD": "1d",
            "PRM": "1d",
            "SPD": "1d",
            "RD": "1d",
            "SPNV": "1d",
            "RNV": "1d",
            "AV": "1d",
        },
    )


def fusemax_binding() -> Binding:
    """FuseMax: softmax work shared onto the 2D array, with the Fig. 4
    intra-epoch interleaves (SLNV|BQK on 2D, SPNV/RNV against the running
    state on 1D)."""
    return Binding(
        name="fusemax",
        assignment={
            "BQK": "2d",
            "LM": "2d",
            "SLN": "2d",
            "SLD": "2d",
            "SLNV": "2d",
            "RM": "1d",
            "PRM": "1d",
            "SPD": "1d",
            "RD": "1d",
            "SPNV": "1d",
            "RNV": "1d",
            "AV": "1d",
        },
        interleaved=(("SLNV", "BQK"), ("SPNV", "RNV")),
    )


def rf_working_set(binding: Binding) -> int:
    """Register-file entries one 2D PE needs under an interleaved binding.

    Counts, per PE (the Fig. 3c / Fig. 5 working set):

    - one stationary accumulator per Einsum in the largest 2D interleave
      group (BQK of the next tile alongside SLNV of the current one);
    - two input latches per interleaved stream (the paper latches inputs
      so moving data appears on output wires);
    - one in-place temporary for the exponentiation (SLN overwrites BQK
      through a scratch register);
    - one entry per drain-time reduction the PE forwards (LM, SLD).

    FuseMax's 10-entry register file must cover this.
    """
    groups_2d = [
        pair for pair in binding.interleaved
        if binding.array_of(pair[0]) == "2d"
    ]
    interleave_width = max((len(pair) for pair in groups_2d), default=1)
    accumulators = interleave_width
    input_latches = 2 * interleave_width
    exp_temp = 1 if "SLN" in binding.on_array("2d") else 0
    drain_forwards = sum(
        1 for label in ("LM", "SLD") if label in binding.on_array("2d")
    )
    return accumulators + input_latches + exp_temp + drain_forwards


def validated_bindings(arch_flat: Architecture, arch_fusemax: Architecture):
    """All three bindings, validated against their architectures."""
    flat = flat_binding()
    validate_binding(flat, attention_3pass(), arch_flat)
    cascade = plus_cascade_binding()
    validate_binding(cascade, attention_1pass(), arch_flat)
    fused = fusemax_binding()
    validate_binding(fused, attention_1pass(), arch_fusemax)
    return flat, cascade, fused
