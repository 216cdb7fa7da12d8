"""What importing the package, validating a request and decoding a
result load.

``import repro.api`` and a serving run need neither numpy nor the
einsum/cascade/model stack, and ``import repro.api`` leaves the serving
simulator and the cluster sweep to the ``validate()`` of the requests
that run them.  The fold engine that scenario, binding
and cluster requests run on is pure Python, and the Einsum IR is
backend-free (its numpy kernels live in ``repro.functional``), so
validating and running a fold request, a report or a crosscheck loads
no numpy either.  The benchmark's workloads leave CSV output, the
area and energy models and the Einsum parser unloaded where they do not
use them.  Each case runs in a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1`` (as the benchmark does), so a module
another test imported cannot hide an import, and the set cannot quietly
regrow.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: Modules a serving run and ``import repro.api`` must not load.
HEAVY = (
    "numpy",
    "repro.einsum",
    "repro.cascades",
    "repro.functional",
    "repro.model.fusemax",
    "repro.experiments.fig",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns ``{"modules": the
    modules it holds afterwards, **whatever it put in OUT}``."""
    script = (
        "import json, sys\nOUT = {}\n"
        + textwrap.dedent(code)
        + "\nOUT['modules'] = sorted(sys.modules)\nprint(json.dumps(OUT))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def heavy(modules) -> list:
    return [name for name in modules if name.startswith(HEAVY)]


#: Engines ``import repro.api`` defers to the ``validate()`` of the
#: requests that run them.
DEFERRED = ("repro.serving.simulator", "repro.cluster.build", "repro.cluster.sweep")


def test_api_import_loads_no_numpy_and_no_model_stack():
    modules = run_fresh("import repro.api")["modules"]
    assert heavy(modules) == []
    assert [name for name in DEFERRED if name in modules] == []
    # ``repro.__version__`` is looked up on first read, not on import.
    assert "importlib.metadata" not in modules


def test_serve_validation_and_session_load_no_numpy():
    out = run_fresh(
        """
        from repro.api import ServeRequest, Session
        from repro.runtime.cache import ResultCache

        ServeRequest(rate=1.0, duration=4096).validate()
        Session(cache=ResultCache())
        """
    )
    assert heavy(out["modules"]) == []
    assert "repro.serving.simulator" in out["modules"]


def test_cluster_validation_loads_the_cluster_sweep():
    out = run_fresh(
        """
        from repro.api import ClusterRequest

        ClusterRequest(instances=8, chunks=4, chips=(2,)).validate()
        """
    )
    assert "repro.cluster.sweep" in out["modules"]
    assert "repro.serving.simulator" not in out["modules"]


#: Fold requests that exercise the whole fold: a ``dram`` source
#: sub-fold, releases and their jump checks (``dram_bw``); an interleaved
#: chain long enough to replay through split windows; a sharded cluster.
FOLD_REQUESTS = {
    "scenario": "ScenarioRequest(instances=16, chunks=4, dram_bw=4.0, array_dim=32)",
    "binding": "BindingSweepRequest(chunks=(640,), bindings=('interleaved',), array_dims=(256,))",
    "cluster": "ClusterRequest(instances=8, chunks=4, chips=(2,), link_bws=(64.0,))",
}


@pytest.mark.parametrize("kind", sorted(FOLD_REQUESTS))
def test_fold_request_validates_and_runs_without_numpy(kind):
    out = run_fresh(
        f"""
        from repro.api import BindingSweepRequest, ClusterRequest, ScenarioRequest, Session
        from repro.runtime.cache import ResultCache

        request = {FOLD_REQUESTS[kind]}
        request.validate()
        OUT["ran"] = Session(cache=ResultCache()).run(request).payload is not None
        """
    )
    assert out["ran"] is True
    assert "numpy" not in out["modules"]


def test_einsum_ir_and_cascades_load_no_numpy():
    modules = run_fresh("import repro.einsum, repro.cascades.attention")["modules"]
    assert "numpy" not in modules
    assert "repro.functional.kernels" not in modules


def test_report_and_crosscheck_validate_and_run_without_numpy():
    out = run_fresh(
        """
        from repro.api import CrosscheckRequest, ExperimentRequest, Session
        from repro.runtime.cache import ResultCache

        session = Session(cache=ResultCache())
        report = ExperimentRequest(name="report")
        crosscheck = CrosscheckRequest(bandwidth=True, capacity=True, cluster=True)
        for request in (report, crosscheck):
            request.validate()
        OUT["report"] = bool(session.run(report).payload)
        OUT["flagged"] = len(session.run(crosscheck).payload.flagged)
        """
    )
    assert out["report"] is True
    assert out["flagged"] == 0
    assert "numpy" not in out["modules"]


#: What each benchmark workload (``perfbench/workloads.py``) leaves
#: unloaded after its requests validate and run: CSV output is only for
#: the CLI's ``--format csv``, the area and energy models only for
#: analytical requests, and the Einsum parser only for parsed cascades.
WORKLOAD_SKIPS = {
    "scenario-contended": ("csv", "repro.arch.area", "repro.arch.energy"),
    "binding-sweep": ("csv", "repro.arch.area", "repro.arch.energy"),
    "serve-sweep": ("csv", "repro.arch.area", "repro.arch.energy"),
    "report-crosscheck": ("csv", "repro.einsum.parser"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_SKIPS))
def test_benchmark_workloads_load_only_what_they_run(name, tmp_path):
    out = run_fresh(
        f"""
        sys.path.insert(0, {str(ROOT)!r})
        from pathlib import Path
        from perfbench.workloads import WORKLOADS, make_session, run

        workload = WORKLOADS[{name!r}]
        requests = workload.requests(7)
        for request in requests:
            request.validate()
        session = make_session(workload, Path({str(tmp_path)!r}) / "cache")
        OUT["payloads"] = len(run(workload, session, requests))
        """
    )
    assert out["payloads"] > 0
    assert [m for m in WORKLOAD_SKIPS[name] if m in out["modules"]] == []


def test_serving_round_trip_loads_no_model_and_no_numpy():
    out = run_fresh(
        """
        from repro.api import ServeRequest, Session
        from repro.runtime.cache import ResultCache, decode_result, encode_result

        result = Session(cache=ResultCache()).run(
            ServeRequest(rate=1.0, duration=4096, array_dim=64, decode_tokens=2)
        ).payload
        payload = json.loads(json.dumps(encode_result(result)))
        OUT["requests"] = len(result.requests)
        OUT["equal"] = decode_result(payload) == result
        """
    )
    assert out["requests"] > 0
    assert out["equal"] is True
    assert "repro.model.pareto" not in out["modules"]
    assert heavy(out["modules"]) == []


def test_unknown_codec_tag_still_raises():
    out = run_fresh(
        """
        from repro.runtime.cache import decode_result

        try:
            decode_result({"__type__": "NoSuchResult"})
        except ValueError as error:
            OUT["error"] = str(error)
        """
    )
    assert out["error"] == "cannot decode result payload tagged 'NoSuchResult'"


def test_model_fusemax_stays_the_function_after_its_submodule_loads():
    """``repro.model.fusemax`` names a submodule and the function the
    package re-exports; importing the submodule first must not rebind
    the package attribute to the module."""
    out = run_fresh(
        """
        import repro.model.fusemax
        from repro.model import fusemax

        OUT["callable"] = callable(fusemax)
        OUT["config"] = type(fusemax()).__name__
        """
    )
    assert out["callable"] is True
    assert out["config"] == "FuseMaxModel"


def test_every_barrel_name_resolves():
    """Each package's ``__all__`` resolves in a fresh interpreter, so a
    lazy export left behind by a deletion fails here, not on first read."""
    out = run_fresh(
        """
        import importlib, pkgutil, repro

        packages = ["repro"] + [
            f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
        ]
        OUT["missing"] = {}
        for package in packages:
            missing = []
            for name in importlib.import_module(package).__all__:
                try:
                    exec(f"from {package} import {name}", {})
                except ImportError:
                    missing.append(name)
            OUT["missing"][package] = missing
        """
    )
    assert len(out["missing"]) == 15
    assert {package: names for package, names in out["missing"].items() if names} == {}
