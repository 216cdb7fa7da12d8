"""repro.api — the unified typed evaluation API.

One front door for everything the reproduction can evaluate: build a
frozen request (:class:`ExperimentRequest`, :class:`BindingSweepRequest`,
:class:`ScenarioRequest`, :class:`ScenarioGridRequest`,
:class:`CrosscheckRequest`), hand it to a :class:`Session`, and get a
:class:`Result` whose :class:`Provenance` says how the payload came to
be.  The CLI, the experiment drivers, and the examples are all thin
adapters over this package::

    from repro.api import ScenarioGridRequest, Session

    session = Session(jobs=4, cache_dir="cache")
    result = session.run(ScenarioGridRequest(
        models=("BERT", "T5"), batches=(1, 8), chunks=16,
    ))
    for cell in result.payload:
        print(cell.model, cell.batch, cell.sim.util_2d, cell.est_util_2d)
    print(result.provenance.cache_hits, result.provenance.run_id)

``Session.submit()``/``gather()`` batch heterogeneous requests through a
single pass of the parallel runtime.

Sessions also own the fault policy: ``Session(retry=RetryPolicy(...),
on_error="skip")`` retries failed grid points with deterministic backoff
and degrades exhausted ones to :class:`~repro.runtime.TaskFailure`
records, with attempt/failure/recovery counts on every result's
provenance.
"""

from ..runtime.faults import FaultPlan, RetryPolicy, TaskFailure
from .requests import (
    ENGINES,
    EXPERIMENT_NAMES,
    GRID_KINDS,
    REQUEST_TYPES,
    BindingSweepRequest,
    ClusterRequest,
    CrosscheckRequest,
    ExperimentRequest,
    Request,
    RequestValidationError,
    ScenarioGridRequest,
    ScenarioRequest,
    ServeRequest,
)
from .session import GRID_EXPERIMENTS, Provenance, Result, Session

__all__ = [
    "ENGINES",
    "EXPERIMENT_NAMES",
    "GRID_EXPERIMENTS",
    "GRID_KINDS",
    "REQUEST_TYPES",
    "BindingSweepRequest",
    "ClusterRequest",
    "CrosscheckRequest",
    "ExperimentRequest",
    "FaultPlan",
    "Provenance",
    "Request",
    "RequestValidationError",
    "Result",
    "RetryPolicy",
    "ScenarioGridRequest",
    "ScenarioRequest",
    "ServeRequest",
    "Session",
    "TaskFailure",
]
