"""repro — a reproduction of FuseMax (Nayak et al., MICRO 2024).

FuseMax uses cascades of Extended Einsums to analyze and optimize
attention accelerators.  This package provides:

- :mod:`repro.einsum` — the Extended Einsum IR (EDGE subset) and cascades;
- :mod:`repro.cascades` — the paper's cascades (attention 3/2/1-pass, the
  pedagogical examples, transformer linear layers);
- :mod:`repro.analysis` — mapping-independent pass counting, live-footprint
  lower bounds, op counting, and the Table I taxonomy;
- :mod:`repro.functional` — a numpy interpreter validating every cascade
  numerically;
- :mod:`repro.arch`, :mod:`repro.mapping`, :mod:`repro.model` — the
  Timeloop/Accelergy-style models of the unfused baseline, FLAT, and the
  FuseMax configurations;
- :mod:`repro.simulator` — an event-driven simulator of the FuseMax
  binding (Fig. 4/5) that folds repeated instances, checked against a
  cycle-accurate oracle;
- :mod:`repro.serving`, :mod:`repro.cluster` — open-loop serving and
  multi-chip sharding built on the simulator;
- :mod:`repro.workloads`, :mod:`repro.experiments` — the BERT/TrXL/T5/XLM
  workloads and the drivers regenerating every evaluation figure;
- :mod:`repro.api`, :mod:`repro.runtime` — typed requests and the
  ``Session`` that runs them through the parallel executor, result cache
  and run registry behind the ``repro`` CLI.
"""

def _package_version() -> str:
    """The installed distribution's version, or — when the package runs
    uninstalled from a source tree (``PYTHONPATH=src``) — the version
    read from the adjacent ``pyproject.toml``, so the pin lives in
    exactly one place."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("fusemax-repro")
    except PackageNotFoundError:
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        try:
            match = re.search(
                r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M
            )
        except OSError:
            match = None
        return match.group(1) if match else "0+unknown"


def __getattr__(name: str) -> str:
    # ``__version__`` is read on first access: the distribution lookup
    # costs more than most of what ``import repro.api`` needs to load.
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    version = globals()["__version__"] = _package_version()
    return version


__all__ = [
    "analysis",
    "api",
    "arch",
    "cascades",
    "cluster",
    "einsum",
    "experiments",
    "functional",
    "mapping",
    "model",
    "runtime",
    "serving",
    "simulator",
    "workloads",
]
