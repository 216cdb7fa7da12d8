"""Architecture specifications, energy, and area models.

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "area": ("AreaBreakdown", "area_of"),
        "energy": ("DEFAULT_ENERGY", "EnergyBreakdown", "EnergyTable"),
        "spec": (
            "Architecture",
            "EXP_AS_MACCS",
            "flat_arch",
            "fusemax_arch",
            "unfused_arch",
        ),
    },
)
