"""Analytical performance/energy models of the evaluated accelerators.

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

import sys
from types import ModuleType

from .._lazy import lazy_exports

__getattr__, _EXPORTS = lazy_exports(
    __name__,
    {
        "cluster": ("CLUSTER_ARRAYS", "ClusterEstimate", "analytical_cluster", "cluster_work"),
        "decode": ("DecodeStep", "decode_attention"),
        "flat": ("FLATModel", "SpillDecision", "spill_decision"),
        "fusemax": ("FuseMaxModel", "fusemax", "plus_architecture", "plus_cascade"),
        "generic": ("GenericEvaluation", "evaluate_cascade"),
        "inference": ("LinearPhase", "evaluate_inference", "evaluate_linear"),
        "metrics": ("AttentionResult", "InferenceResult"),
        "pareto": ("ARRAY_DIMS", "DesignPoint", "PARETO_SEQ_LEN", "pareto_frontier", "sweep"),
        "scenario": (
            "ScenarioEstimate",
            "analytical_scenario",
            "evaluate_grid_cell",
            "scenario_work",
        ),
        "unfused": ("UnfusedModel",),
    },
)
__all__ = [*_EXPORTS, "all_attention_models"]


def all_attention_models():
    """The five configurations of Figs. 6-11, in presentation order."""
    from .flat import FLATModel
    from .fusemax import fusemax, plus_architecture, plus_cascade
    from .unfused import UnfusedModel

    return (
        UnfusedModel(),
        FLATModel(),
        plus_cascade(),
        plus_architecture(),
        fusemax(),
    )


class _Package(ModuleType):
    """``fusemax`` names both a submodule and the function re-exported
    here.  The first import of a submodule binds it to its package's
    attribute of the same name; this package keeps the function there,
    as it did when it imported its names eagerly."""

    def __setattr__(self, name, value):
        if name == "fusemax" and isinstance(value, ModuleType):
            value = value.fusemax
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
