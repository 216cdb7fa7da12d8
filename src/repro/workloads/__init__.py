"""Transformer workload definitions and compute inventories.

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "compute": (
            "ComputeBreakdown",
            "attention_crossover_length",
            "attention_ops",
            "compute_breakdown",
            "linear_ops",
            "other_ops",
        ),
        "scenario": (
            "BINDINGS",
            "PHASE_KINDS",
            "Phase",
            "Scenario",
            "attention_scenario",
            "heterogeneous_scenario",
            "mixed_model_scenario",
            "scenario_from_model",
        ),
        "models": (
            "BATCH_SIZE",
            "BERT",
            "MODELS",
            "MODELS_BY_NAME",
            "ModelConfig",
            "SEQUENCE_LENGTHS",
            "T5",
            "TRXL",
            "XLM",
            "seq_label",
        ),
    },
)
