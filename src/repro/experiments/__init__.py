"""Experiment drivers regenerating every table and figure of the paper.

Each module exposes ``run()`` (structured rows), ``render()`` (text table),
and ``main()`` (print).  ``repro.experiments.report.full_report()`` runs
everything.  A driver loads when it is first imported or read as an
attribute of this package.
"""

import importlib

__all__ = [
    "ablations",
    "crosscheck",
    "fig1b",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "report",
    "table1",
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
