"""The unified typed evaluation API: requests, validation, Session.

Covers the three contracts of ``repro.api``:

- **validation** — every cross-field rule that used to live in the
  CLI's ``_simulate_flag_errors`` sprawl now raises from
  ``Request.validate()`` (plus the rules new request kinds add);
- **signature completeness** — a field walk over every request class
  asserts each declared field participates in the request's content
  signature, so no new field can silently escape caching/identity;
- **Session semantics** — payload equivalence with the runtime paths,
  provenance (cache deltas, registry run ids), cycle-oracle parity,
  and submit/gather pooling heterogeneous requests into one pass.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from conftest import event_scenario

from repro import __version__
from repro.api import (
    BindingSweepRequest,
    ClusterRequest,
    CrosscheckRequest,
    ExperimentRequest,
    REQUEST_TYPES,
    RequestValidationError,
    ScenarioGridRequest,
    ScenarioRequest,
    ServeRequest,
    Session,
)
from repro.api.knobs import Above, AtLeast, OneOf, knob_of
from repro.runtime import ResultCache, RunRegistry
from repro.runtime import executor as _runtime
from repro.runtime.cache import code_version
from repro.serving import Arrival, poisson_arrivals, simulate_serving
from repro.simulator import evaluate_scenario_point
from repro.workloads import BERT
from repro.workloads.scenario import attention_scenario, heterogeneous_scenario


def violations(request):
    with pytest.raises(RequestValidationError) as err:
        request.validate()
    return list(err.value.errors)


class TestScenarioRequestValidation:
    """The rules ported from the CLI's ``_simulate_flag_errors``."""

    def test_valid_defaults(self):
        ScenarioRequest().validate()  # does not raise

    def test_model_and_instances_mutually_exclusive(self):
        errors = violations(ScenarioRequest(model="BERT", instances=4))
        assert any("mutually exclusive" in e for e in errors)

    def test_batch_and_heads_require_model(self):
        errors = violations(ScenarioRequest(batch=2, heads=4))
        assert sum("requires model" in e for e in errors) == 2

    def test_decode_chunks_requires_decode_instances(self):
        errors = violations(ScenarioRequest(decode_chunks=8))
        assert "decode_chunks requires decode_instances" in errors

    def test_slots_apply_to_interleaved_only(self):
        errors = violations(ScenarioRequest(binding="tile-serial", slots=4))
        assert "slots applies to the interleaved binding only" in errors
        ScenarioRequest(binding="interleaved", slots=4).validate()

    def test_unknown_model_and_binding_and_engine(self):
        errors = violations(
            ScenarioRequest(model="GPT", binding="spiral", engine="magic")
        )
        assert any("unknown model 'GPT'" in e for e in errors)
        assert any("unknown binding 'spiral'" in e for e in errors)
        assert any("unknown engine 'magic'" in e for e in errors)
        # "event" is no longer an engine name on any request.
        for cls in (BindingSweepRequest, ScenarioRequest, ServeRequest, ClusterRequest):
            errors = violations(cls(engine="event"))
            assert any("unknown engine 'event'" in e for e in errors), cls

    def test_explicit_scenarios_exclusive_with_spec_fields(self):
        scenarios = (attention_scenario(2, 4),)
        errors = violations(
            ScenarioRequest(scenarios=scenarios, model="BERT", batch=2)
        )
        assert sum("scenarios is mutually exclusive" in e for e in errors) == 2
        ScenarioRequest(scenarios=scenarios).validate()

    def test_all_violations_reported_at_once(self):
        errors = violations(ScenarioRequest(
            model="GPT", instances=0, decode_chunks=8, engine="magic",
        ))
        assert len(errors) >= 4

    def test_positivity(self):
        errors = violations(ScenarioRequest(instances=0, chunks=-1))
        assert any("instances must be >= 1" in e for e in errors)
        assert any("chunks must be >= 1" in e for e in errors)
        assert any(
            "decode_instances must be >= 0" in e
            for e in violations(ScenarioRequest(decode_instances=-1))
        )

    def test_mixed_models_mutually_exclusive_with_model_and_instances(self):
        errors = violations(
            ScenarioRequest(mixed_models=("BERT", "XLM"), model="T5")
        )
        assert any("mixed_models and model are mutually exclusive" in e
                   for e in errors)
        errors = violations(
            ScenarioRequest(mixed_models=("BERT",), instances=4)
        )
        assert any("mixed_models and instances are mutually exclusive" in e
                   for e in errors)

    def test_mixed_models_unknown_and_empty(self):
        errors = violations(ScenarioRequest(mixed_models=("BERT", "GPT")))
        assert any("unknown model 'GPT'" in e for e in errors)
        errors = violations(ScenarioRequest(mixed_models=()))
        assert any("at least one model" in e for e in errors)

    def test_mixed_models_allow_batch_and_heads(self):
        ScenarioRequest(mixed_models=("BERT", "XLM"), batch=2, heads=4).validate()
        built = ScenarioRequest(
            mixed_models=("BERT", "XLM"), batch=2, heads=4, chunks=4,
            binding="interleaved",
        ).build_scenarios()
        (one,) = built
        assert one.instances == 2 * (2 * 4)
        # Per-phase widths follow each model's d_head: a mixed-model
        # schedule, rejected nowhere because it is consistent.
        assert [p.embedding for p in one.phases] == [64, 128]
        assert one.mixed_embedding

    def test_dram_bw_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            errors = violations(ScenarioRequest(dram_bw=bad))
            assert any("dram_bw must be > 0" in e for e in errors), bad
        ScenarioRequest(dram_bw=64.0).validate()
        ScenarioRequest(dram_bw=float("inf")).validate()

    def test_inconsistent_embedding_rejected_before_graph_build(self):
        """The mixed-model inconsistency cases: all raise at spec
        construction, never from inside the simulator."""
        from repro.workloads.scenario import (
            Phase, Scenario, heterogeneous_scenario, mixed_model_scenario,
        )

        with pytest.raises(ValueError, match="inconsistent embedding"):
            Phase("prefill", 1, 4, embedding=64, model="XLM")
        with pytest.raises(ValueError, match="d_head"):
            Scenario(name="bad", phases=(Phase("prefill", 1, 4),),
                     embedding=64, model="XLM")
        with pytest.raises(ValueError, match="inconsistent embedding"):
            heterogeneous_scenario(
                (4, 8), models=("BERT", "XLM"), embedding=64,
            )
        with pytest.raises(ValueError, match="one model per instance"):
            heterogeneous_scenario((4, 8, 16), models=("BERT", "XLM"))
        with pytest.raises(ValueError, match="unknown model"):
            heterogeneous_scenario((4, 8), models=("BERT", "GPT"))
        with pytest.raises(ValueError, match="unknown model"):
            mixed_model_scenario(("GPT",), 4)
        # Consistent mixes build fine.
        het = heterogeneous_scenario((4, 8), models=("BERT", "XLM"))
        assert [p.embedding for p in het.phases] == [64, 128]

    def test_crosscheck_bandwidth_excludes_explicit_scenarios(self):
        errors = violations(CrosscheckRequest(
            bandwidth=True, scenarios=(attention_scenario(1, 4),),
        ))
        assert any("seed grid only" in e for e in errors)
        CrosscheckRequest(bandwidth=True).validate()
        errors = violations(CrosscheckRequest(
            cluster=True, scenarios=(attention_scenario(1, 4),),
        ))
        assert any("explicit scenarios are unsharded" in e for e in errors)
        CrosscheckRequest(cluster=True).validate()

    def test_grid_dram_bw_reaches_every_cell(self):
        request = ScenarioGridRequest(
            models=("BERT",), batches=(1,), heads=(2,), chunks=4,
            array_dim=64, dram_bw=32.0,
        )
        request.validate()
        assert all(c.scenario.dram_bw == 32.0 for c in request.cells())
        errors = violations(dataclasses.replace(request, dram_bw=-2.0))
        assert any("dram_bw must be > 0" in e for e in errors)

    def test_build_scenarios_matches_cli_defaults(self):
        built = ScenarioRequest().build_scenarios()
        assert len(built) == 2  # both bindings
        assert {s.binding for s in built} == {"tile-serial", "interleaved"}
        assert all(s.instances == 4 and s.seq_len == 32 * 256 for s in built)
        (one,) = ScenarioRequest(
            model="BERT", batch=2, binding="interleaved", chunks=4,
        ).build_scenarios()
        assert one.instances == 2 * BERT.n_heads
        assert one.model == "BERT"


class TestOtherRequestValidation:
    def test_experiment_names(self):
        ExperimentRequest(name="fig6").validate()
        assert any(
            "unknown experiment" in e
            for e in violations(ExperimentRequest(name="fig99"))
        )

    def test_experiment_grid_fields_require_sweep(self):
        errors = violations(ExperimentRequest(
            name="fig6", kind="attention", models=("BERT",), seq_lens=(1024,),
        ))
        assert sum("applies to the 'sweep' experiment only" in e
                   for e in errors) == 3
        ExperimentRequest(name="sweep", kind="inference",
                          models=("BERT",), seq_lens=(1024,)).validate()

    def test_experiment_unknown_model_and_kind(self):
        errors = violations(ExperimentRequest(name="sweep", kind="pareto",
                                              models=("GPT",)))
        assert any("unknown sweep kind" in e for e in errors)
        assert any("unknown model 'GPT'" in e for e in errors)

    def test_binding_sweep_axes(self):
        BindingSweepRequest().validate()
        errors = violations(BindingSweepRequest(
            chunks=(), array_dims=(0,), bindings=("spiral",), engine="x",
        ))
        assert any("chunks must name at least one value" in e for e in errors)
        assert any("array_dims values must be >= 1" in e for e in errors)
        assert any("unknown binding 'spiral'" in e for e in errors)
        assert any("unknown engine 'x'" in e for e in errors)

    def test_grid_request_rules(self):
        ScenarioGridRequest().validate()
        errors = violations(ScenarioGridRequest(
            models=("GPT",), batches=(), decode_instances=(-1,),
            bindings=("tile-serial",), slots=2,
        ))
        assert any("unknown model 'GPT'" in e for e in errors)
        assert any("batches must name at least one value" in e for e in errors)
        assert any("decode_instances values must be >= 0" in e for e in errors)
        assert "slots applies to the interleaved binding only" in errors
        assert any(
            "decode_chunks requires a nonzero decode_instances" in e
            for e in violations(ScenarioGridRequest(decode_chunks=4))
        )
        assert any(
            "at least one model or extra scenario" in e
            for e in violations(ScenarioGridRequest(models=()))
        )
        # Extras alone are a valid (purely heterogeneous) grid.
        ScenarioGridRequest(
            models=(), extra_scenarios=(attention_scenario(1, 4),),
        ).validate()

    def test_serve_rate_xor_trace(self):
        errors = violations(ServeRequest())
        assert "exactly one of rate and trace must be given" in errors
        errors = violations(ServeRequest(rate=1.0, trace=(Arrival(0, 4),)))
        assert "exactly one of rate and trace must be given" in errors
        ServeRequest(rate=1.0).validate()
        ServeRequest(trace=(Arrival(0, 4),)).validate()

    def test_serve_rate_only_fields_rejected_with_trace(self):
        errors = violations(ServeRequest(
            trace=(Arrival(0, 4),), duration=1024, seed=1, chunks=4,
            decode_tokens=2,
        ))
        assert sum("applies to rate-driven serving only" in e
                   for e in errors) == 4

    def test_serve_trace_shape(self):
        errors = violations(ServeRequest(trace=()))
        assert "trace must name at least one arrival" in errors
        errors = violations(
            ServeRequest(trace=(Arrival(64, 4), Arrival(0, 4)))
        )
        assert any("non-decreasing" in e for e in errors)

    def test_serve_positivity_and_binding(self):
        errors = violations(ServeRequest(
            rate=0.0, max_inflight=0, deadline=0, dram_bw=-1.0,
            binding="spiral",
        ))
        assert any("rate must be > 0" in e for e in errors)
        assert any("max_inflight must be >= 1" in e for e in errors)
        assert any("deadline must be >= 1" in e for e in errors)
        assert any("dram_bw must be > 0" in e for e in errors)
        assert any("unknown binding 'spiral'" in e for e in errors)
        errors = violations(ServeRequest(rate=1.0, seed=-1, decode_tokens=-1))
        assert any("seed must be >= 0" in e for e in errors)
        assert any("decode_tokens must be >= 0" in e for e in errors)

    def test_serve_slots_interleaved_only(self):
        errors = violations(
            ServeRequest(rate=1.0, binding="tile-serial", slots=4)
        )
        assert "slots applies to the interleaved binding only" in errors
        ServeRequest(rate=1.0, binding="interleaved", slots=4).validate()

    def test_serve_engine_rules(self):
        errors = violations(ServeRequest(rate=1.0, engine="quantum"))
        assert any("unknown engine 'quantum'" in e for e in errors)
        errors = violations(ServeRequest(rate=1.0, engine="cycle"))
        assert "serve runs on the vector engine only" in errors
        ServeRequest(rate=1.0, engine="vector").validate()

    def test_serve_build_spec_defaults(self):
        spec = ServeRequest(rate=0.5, seed=3).build_spec()
        assert spec.name == "poisson-r0.5-s3"
        assert spec.rate == 0.5
        assert spec.max_inflight == 8 and spec.slots == 2
        assert spec.arrivals == poisson_arrivals(0.5, 32768, seed=3)
        trace_spec = ServeRequest(trace=(Arrival(0, 4, 2),)).build_spec()
        assert trace_spec.name == "trace-1req"
        assert trace_spec.rate is None
        assert trace_spec.arrivals == (Arrival(0, 4, 2),)

    def test_serve_cluster_rules(self):
        ServeRequest(rate=1.0, chips=4, link_bw=64.0, link_latency=2).validate()
        errors = violations(ServeRequest(rate=1.0, chips=0))
        assert any("chips must be >= 1" in e for e in errors)
        errors = violations(ServeRequest(rate=1.0, chips=4, link_bw=0.0))
        assert any("link_bw must be > 0" in e for e in errors)
        errors = violations(
            ServeRequest(rate=1.0, chips=4, link_latency=-1)
        )
        assert any("link_latency must be >= 0" in e for e in errors)
        errors = violations(ServeRequest(rate=1.0, link_bw=64.0))
        assert any("link_bw requires chips >= 2" in e for e in errors)
        errors = violations(ServeRequest(rate=1.0, chips=1, link_bw=64.0))
        assert any("link_bw requires chips >= 2" in e for e in errors)
        # A latency with no link to delay would be silently dropped.
        errors = violations(ServeRequest(rate=1.0, chips=2, link_latency=50))
        assert errors == ["link_latency requires link_bw"]
        ServeRequest(rate=1.0, chips=2, link_bw=64.0, link_latency=0).validate()

    def test_cluster_request_rules(self):
        ClusterRequest().validate()
        ClusterRequest(model="BERT", batch=2, chips=(1, 2),
                       shardings=("head", "tensor"),
                       link_bws=(None, 64.0)).validate()
        errors = violations(ClusterRequest(model="BERT", instances=4))
        assert any("mutually exclusive" in e for e in errors)
        errors = violations(ClusterRequest(batch=2, heads=4))
        assert sum("requires model" in e for e in errors) == 2
        errors = violations(ClusterRequest(
            model="GPT", binding="spiral", engine="magic",
            chips=(0,), shardings=("diagonal",), link_bws=(-1.0,),
            link_latency=-1, topology="mesh",
        ))
        assert any("unknown model 'GPT'" in e for e in errors)
        assert any("unknown binding 'spiral'" in e for e in errors)
        assert any("unknown engine 'magic'" in e for e in errors)
        assert any("chips values must be >= 1" in e for e in errors)
        assert any("unknown sharding 'diagonal'" in e for e in errors)
        assert any("link_bws values must be > 0" in e for e in errors)
        assert any("link_latency must be >= 0" in e for e in errors)
        assert any("unknown topology 'mesh'" in e for e in errors)
        errors = violations(ClusterRequest(chips=(), shardings=(),
                                           link_bws=()))
        assert any("chips must name at least one value" in e for e in errors)
        assert any("at least one policy" in e for e in errors)
        assert any("at least one bandwidth" in e for e in errors)
        errors = violations(ClusterRequest(binding="tile-serial", slots=4))
        assert "slots applies to the interleaved binding only" in errors
        errors = violations(ClusterRequest(decode_chunks=8))
        assert "decode_chunks requires decode_instances" in errors
        # Tensor-sharding divisibility is caught at validation, not as
        # a traceback from inside the pooled worker.
        errors = violations(ClusterRequest(
            model="BERT", batch=1, heads=2, chunks=4, array_dim=64,
            chips=(3,), shardings=("tensor",),
        ))
        assert errors == ["tensor sharding needs embedding divisible "
                          "by n_chips; got E=64, n_chips=3"]
        ClusterRequest(model="BERT", batch=1, heads=2, chunks=4,
                       array_dim=64, chips=(3,),
                       shardings=("head",)).validate()

    def test_cluster_request_build_points(self):
        request = ClusterRequest(
            instances=4, chunks=4, array_dim=64,
            chips=(1, 2), shardings=("head", "tensor"), link_bws=(None, 8.0),
            link_latency=2,
        )
        points = request.build_points()
        assert len(points) == 8
        # chips outermost, shardings, then link bandwidths.
        assert [(p.spec.n_chips, p.sharding, p.spec.link_bw)
                for p in points[:4]] == [
            (1, "head", None), (1, "head", 8.0),
            (1, "tensor", None), (1, "tensor", 8.0),
        ]
        assert all(p.scenario == points[0].scenario for p in points)
        assert all(p.spec.link_latency == 2 for p in points)

    def test_crosscheck_rules(self):
        CrosscheckRequest().validate()
        assert any(
            "tolerance must be >= 0" in e
            for e in violations(CrosscheckRequest(tolerance=-0.1))
        )
        assert any(
            "at least one scenario" in e
            for e in violations(CrosscheckRequest(scenarios=()))
        )


#: A mutated value per field of every request class.  The walk below
#: asserts the maps stay exhaustive, so a future field cannot ship
#: without declaring how it perturbs the signature.
SIGNATURE_MUTATIONS = {
    ExperimentRequest: {
        "name": "fig6",
        "kind": "inference",
        "models": ("T5",),
        "seq_lens": (4096,),
    },
    BindingSweepRequest: {
        "chunks": (8,),
        "bindings": ("interleaved",),
        "array_dims": (64,),
        "embeddings": (32,),
        "pe_1d_dims": (128,),
        "engine": "cycle",
    },
    ScenarioRequest: {
        "model": "BERT",
        "batch": 2,
        "heads": 2,
        "instances": 8,
        "mixed_models": ("BERT", "XLM"),
        "chunks": 16,
        "array_dim": 128,
        "pe_1d": 64,
        "slots": 3,
        "decode_instances": 1,
        "decode_chunks": 4,
        "dram_bw": 64.0,
        "buffer_bytes": 65536.0,
        "qos": "decode-first",
        "binding": "interleaved",
        "engine": "cycle",
        "profile": True,
        "scenarios": (attention_scenario(1, 4),),
    },
    ScenarioGridRequest: {
        "models": ("T5",),
        "batches": (2,),
        "heads": (2,),
        "decode_instances": (1,),
        "chunks": 8,
        "decode_chunks": 4,
        "bindings": ("tile-serial",),
        "array_dim": 128,
        "pe_1d": 64,
        "slots": 3,
        "dram_bw": 64.0,
        "buffer_bytes": 65536.0,
        "qos": "decode-first",
        "extra_scenarios": (attention_scenario(1, 4),),
    },
    ServeRequest: {
        "rate": 0.5,
        "duration": 16384,
        "seed": 7,
        "trace": (Arrival(0, 4, 2),),
        "chunks": 4,
        "decode_tokens": 2,
        "max_inflight": 4,
        "deadline": 5000,
        "binding": "tile-serial",
        "embedding": 32,
        "array_dim": 128,
        "pe_1d": 64,
        "slots": 3,
        "dram_bw": 64.0,
        "buffer_bytes": 65536.0,
        "qos": "decode-first",
        "chips": 4,
        "link_bw": 128.0,
        "link_latency": 8,
        "engine": "cycle",
    },
    ClusterRequest: {
        "model": "BERT",
        "batch": 2,
        "heads": 2,
        "instances": 8,
        "chunks": 16,
        "array_dim": 128,
        "pe_1d": 64,
        "slots": 3,
        "decode_instances": 1,
        "decode_chunks": 4,
        "dram_bw": 64.0,
        "binding": "tile-serial",
        "chips": (2, 8),
        "shardings": ("tensor",),
        "link_bws": (128.0,),
        "link_latency": 8,
        "topology": "ring",
        "engine": "cycle",
    },
    CrosscheckRequest: {
        "tolerance": 0.1,
        "bandwidth": True,
        "capacity": True,
        "cluster": True,
        "scenarios": (attention_scenario(1, 4),),
    },
}


class TestSignatureCompleteness:
    """Field walk: every request field participates in the signature."""

    @pytest.mark.parametrize("cls", REQUEST_TYPES)
    def test_every_field_mutation_changes_signature(self, cls):
        mutations = SIGNATURE_MUTATIONS[cls]
        declared = {f.name for f in dataclasses.fields(cls)}
        assert set(mutations) == declared, (
            f"new {cls.__name__} field without a signature mutation entry"
        )
        base = cls()
        for field, value in mutations.items():
            mutated = dataclasses.replace(base, **{field: value})
            assert mutated.signature() != base.signature(), field

    def test_kinds_distinguish_requests(self):
        kinds = {cls.KIND for cls in REQUEST_TYPES}
        assert len(kinds) == len(REQUEST_TYPES)

    def test_equal_requests_share_signature(self):
        a = ScenarioRequest(model="BERT", batch=2)
        b = ScenarioRequest(model="BERT", batch=2)
        assert a.signature() == b.signature()


#: Parent-commit digests of every ``SIGNATURE_MUTATIONS`` request (the
#: base under ``""``, then one per mutated field).  Signatures use
#: ``version="request"``, so no refactor of the request classes may
#: move them.
SIGNATURE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "request-signatures.json").read_text()
)


class TestSignaturePins:
    @pytest.mark.parametrize("cls", REQUEST_TYPES)
    def test_signatures_match_pinned_digests(self, cls):
        pinned = SIGNATURE_GOLDEN[cls.__name__]
        base = cls()
        assert base.signature() == pinned[""]
        for field, value in SIGNATURE_MUTATIONS[cls].items():
            mutated = dataclasses.replace(base, **{field: value})
            assert mutated.signature() == pinned[field], field


#: Request fields with no knob: API-only values no flag can spell.
NON_CLI_FIELDS = {"scenarios", "extra_scenarios", "trace"}


def _declared_fields():
    return [
        (cls, field)
        for cls in REQUEST_TYPES
        for field in dataclasses.fields(cls)
        if field.name not in NON_CLI_FIELDS
    ]


def _out_of_range(cls, field):
    """(bad value, exact message) for the knob rule of ``field``."""
    rule = knob_of(cls, field.name).rule
    axis = isinstance(field.default, tuple)
    name = field.name
    if isinstance(rule, AtLeast):
        bad = rule.minimum - 1
        if axis:
            return (bad,), f"{name} values must be >= {rule.minimum}, got [{bad}]"
        return bad, f"{name} must be >= {rule.minimum}, got {bad}"
    if isinstance(rule, Above):
        label = f"{name} values" if axis else name
        return ((-1.0,) if axis else -1.0), f"{label} must be > 0, got -1.0"
    assert isinstance(rule, OneOf), (cls, name)
    return (("bogus",) if axis else "bogus"), (
        f"unknown {rule.noun} 'bogus'; have {rule.choices}"
    )


class TestKnobDeclarations:
    """Field walk over the knob declarations: every field is declared
    once, and every declared rule rejects with its exact message."""

    @pytest.mark.parametrize("cls", REQUEST_TYPES)
    def test_every_field_is_declared_or_api_only(self, cls):
        for field in dataclasses.fields(cls):
            declared = "knob" in field.metadata
            assert declared != (field.name in NON_CLI_FIELDS), (cls, field.name)

    @pytest.mark.parametrize(
        "cls,field",
        [(cls, f) for cls, f in _declared_fields() if knob_of(cls, f.name).rule],
        ids=lambda value: getattr(value, "__name__", getattr(value, "name", None)),
    )
    def test_every_rule_rejects_with_its_message(self, cls, field):
        bad, message = _out_of_range(cls, field)
        assert message in violations(cls(**{field.name: bad}))

    @pytest.mark.parametrize(
        "cls,field",
        [(cls, f) for cls, f in _declared_fields() if knob_of(cls, f.name).unit],
        ids=lambda value: getattr(value, "__name__", getattr(value, "name", None)),
    )
    def test_every_axis_rejects_empty(self, cls, field):
        unit = knob_of(cls, field.name).unit
        message = f"{field.name} must name at least one {unit}"
        assert message in violations(cls(**{field.name: ()}))

    def test_fields_without_a_range_test_before(self):
        errors = violations(ServeRequest(rate=1.0, deadline=0, max_inflight=-1,
                                         embedding=0, duration=0))
        assert errors == [
            "duration must be >= 1, got 0",
            "max_inflight must be >= 1, got -1",
            "deadline must be >= 1, got 0",
            "embedding must be >= 1, got 0",
        ]

    def test_build_defaults_resolve_through_the_knob(self):
        request = ServeRequest(rate=1.0)
        assert [request.resolved(name) for name in (
            "duration", "seed", "chunks", "decode_tokens", "max_inflight",
            "embedding", "array_dim", "slots", "chips", "link_latency",
            "engine",
        )] == [32768, 0, 8, 4, 8, 64, 256, 2, 1, 0, "vector"]
        assert ServeRequest(rate=1.0, chunks=3).resolved("chunks") == 3
        assert ExperimentRequest(name="sweep").resolved_kind == "attention"

    def test_one_builder_serves_scenario_and_cluster(self):
        shape = dict(model="BERT", batch=2, heads=2, chunks=4, array_dim=64,
                     slots=3, decode_instances=1, decode_chunks=8,
                     dram_bw=32.0)
        (scenario,) = ScenarioRequest(binding="interleaved", **shape).build_scenarios()
        assert ClusterRequest(**shape).build_scenario() == scenario
        (plain,) = ScenarioRequest(binding="tile-serial").build_scenarios()
        assert ClusterRequest(binding="tile-serial").build_scenario() == plain


class TestSession:
    def test_version_matches_package(self):
        assert Session().version == __version__

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Session(jobs=0)
        with pytest.raises(ValueError):
            Session(cache=False, cache_dir="/tmp/x")

    def test_run_validates_first(self):
        with pytest.raises(RequestValidationError):
            Session().run(ScenarioRequest(model="BERT", instances=4))

    def test_scenario_payload_matches_runtime(self):
        request = ScenarioRequest(instances=2, chunks=4, array_dim=64)
        payload = Session(cache=False).run(request).payload
        expected = _runtime.sweep_scenarios(
            request.build_scenarios(), cache=False
        )
        assert payload == expected

    def test_cycle_engine_matches_event(self):
        event = Session(cache=False).run(
            ScenarioRequest(instances=2, chunks=4, array_dim=64)
        )
        cycle = Session(cache=False).run(
            ScenarioRequest(instances=2, chunks=4, array_dim=64,
                            engine="cycle")
        )
        assert event.payload == cycle.payload
        one_event = Session(cache=False).run(BindingSweepRequest(
            chunks=(4,), array_dims=(64,)))
        one_cycle = Session(cache=False).run(BindingSweepRequest(
            chunks=(4,), array_dims=(64,), engine="cycle"))
        assert one_event.payload == one_cycle.payload

    def test_vector_engine_matches_event(self):
        event = Session(cache=False).run(
            ScenarioRequest(instances=3, chunks=4, array_dim=64,
                            dram_bw=8.0)
        )
        vector = Session(cache=False).run(
            ScenarioRequest(instances=3, chunks=4, array_dim=64,
                            dram_bw=8.0, engine="vector")
        )
        assert event.payload == vector.payload
        one_vector = Session(cache=False).run(BindingSweepRequest(
            chunks=(4,), array_dims=(64,), engine="vector"))
        one_event = Session(cache=False).run(BindingSweepRequest(
            chunks=(4,), array_dims=(64,)))
        assert one_vector.payload == one_event.payload

    def test_profile_rides_in_provenance(self):
        request = ScenarioRequest(instances=2, chunks=4, array_dim=64,
                                  profile=True, engine="vector")
        result = Session(cache=False).run(request)
        plain = Session(cache=False).run(
            ScenarioRequest(instances=2, chunks=4, array_dim=64)
        )
        assert result.payload == plain.payload  # timing never changes results
        assert plain.provenance.profiles is None
        profiles = result.provenance.profiles
        assert profiles is not None and len(profiles) == len(result.payload)
        for prof, row in zip(profiles, result.payload.values()):
            assert prof.engine == "vector"
            assert prof.build_s >= 0 and prof.schedule_s >= 0
            assert "schedule=" in prof.describe()
            # The fold counters ride along, over the row's task count.
            assert prof.n_tasks == row.n_tasks
            assert 0 < prof.events <= prof.n_tasks
            assert 0 <= prof.replayed < prof.n_tasks
            assert prof.replay_frac == prof.replayed / prof.n_tasks
            assert f"events={prof.events} replayed={prof.replayed}" in prof.describe()
            assert "replay_frac=" in prof.describe()
        # The cycle oracle has no fold, so it reports no fold counters.
        cycle = Session(cache=False).run(dataclasses.replace(request, engine="cycle"))
        assert cycle.payload == plain.payload
        for prof in cycle.provenance.profiles:
            assert prof.events is None and prof.replayed is None
            assert prof.replay_frac == 0.0
            assert "events=" not in prof.describe()

    def test_profile_reports_replay_on_contended_fold(self):
        """A DRAM-bound scenario replays most of its completions, and
        --profile makes that visible."""
        request = ScenarioRequest(instances=16, chunks=4, array_dim=32,
                                  dram_bw=4.0, binding="interleaved",
                                  profile=True, engine="vector")
        (prof,) = Session(cache=False).run(request).provenance.profiles
        assert prof.replayed > prof.events
        assert prof.replay_frac > 0.5

    def test_profile_reports_replay_on_tile_serial_fold(self):
        """Tile-serial with DRAM: the DRAM stream is scheduled as its
        own sub-fold, the compute front replays, and the counters
        --profile prints cover both folds without exceeding the tasks."""
        request = ScenarioRequest(instances=128, chunks=4, array_dim=256,
                                  dram_bw=425.0, binding="tile-serial",
                                  profile=True, engine="vector")
        result = Session(cache=False).run(request)
        (prof,) = result.provenance.profiles
        assert prof.replayed > prof.events
        assert 0.9 <= prof.replay_frac <= 1.0
        (scenario,) = request.build_scenarios()
        _, event = event_scenario(scenario)
        row = result.payload[scenario]
        assert (row.makespan, row.n_tasks) == (event.makespan, len(event.finish_times))
        assert (row.busy_2d, row.busy_1d, row.busy_io, row.busy_dram) == tuple(
            event.busy_cycles.get(r, 0) for r in ("2d", "1d", "io", "dram")
        )

    def test_provenance_cache_and_registry(self, tmp_path):
        session = Session(
            cache=ResultCache(), registry=tmp_path / "runs",
        )
        request = ScenarioRequest(instances=2, chunks=4, array_dim=64)
        cold = session.run(request)
        assert cold.provenance.kind == "scenario"
        assert cold.provenance.code_version == code_version()
        assert cold.provenance.cache_misses == 2
        assert cold.provenance.cache_hits == 0
        assert cold.provenance.run_id is not None
        warm = session.run(request)
        assert warm.provenance.cache_hits == 2
        assert warm.provenance.cache_misses == 0
        assert warm.payload == cold.payload
        registry = RunRegistry(tmp_path / "runs")
        assert len(registry.list_runs()) == 2

    def test_experiment_text_payload(self):
        result = Session().run(ExperimentRequest(name="table1"))
        assert "FlashAttention" in result.payload

    def test_grid_cells_cached_per_cell(self, tmp_path):
        request = ScenarioGridRequest(
            models=("BERT",), batches=(1, 2), heads=(2,),
            chunks=4, array_dim=64,
        )
        cache = ResultCache(directory=tmp_path)
        first = Session(cache=cache).run(request)
        assert first.provenance.cache_misses == 2
        # A grown grid only computes the new cells.
        grown = Session(cache=cache).run(dataclasses.replace(
            request, batches=(1, 2, 4),
        ))
        assert grown.provenance.cache_hits == 2
        assert grown.provenance.cache_misses == 1
        assert [c.sim for c in grown.payload[:2]] == [
            c.sim for c in first.payload
        ]

    def test_grid_heterogeneous_cells(self):
        het = heterogeneous_scenario((4, 4, 8), array_dim=64)
        assert [p.chunks for p in het.phases] == [4, 8]
        assert het.phases[0].instances == 2
        result = Session(cache=False).run(ScenarioGridRequest(
            models=(), extra_scenarios=(het,),
        ))
        (cell,) = result.payload
        assert cell.model is None and cell.batch is None
        assert cell.sim == evaluate_scenario_point(het)
        assert cell.estimate == "overlap-bound"
        assert 0 < cell.est_util_2d <= 1

    def test_serve_payload_matches_simulator(self):
        request = ServeRequest(
            rate=0.5, duration=8192, array_dim=64, deadline=4000,
        )
        payload = Session(cache=False).run(request).payload
        assert payload == simulate_serving(request.build_spec())
        assert payload.goodput is not None

    def test_serve_submit_gather_pools_rate_points(self, tmp_path):
        requests = [
            ServeRequest(rate=rate, duration=8192, array_dim=64)
            for rate in (0.2, 0.4)
        ]
        session = Session(cache=ResultCache(), registry=tmp_path / "runs")
        for request in requests:
            session.submit(request)
        gathered = session.gather()
        single = Session(cache=False)
        for request, result in zip(requests, gathered):
            assert result.provenance.batched
            assert result.payload == single.run(request).payload
        registry = RunRegistry(tmp_path / "runs")
        (run_id,) = registry.list_runs()
        assert registry.load(run_id).kind == "batch"

    def test_submit_gather_matches_individual_runs(self, tmp_path):
        requests = [
            BindingSweepRequest(chunks=(4, 8), array_dims=(64,)),
            ScenarioRequest(instances=2, chunks=4, array_dim=64),
            ScenarioGridRequest(models=("BERT",), batches=(1,), heads=(2,),
                                chunks=4, array_dim=64),
            CrosscheckRequest(
                scenarios=(attention_scenario(2, 4, array_dim=64),)
            ),
        ]
        batched = Session(jobs=2, cache=ResultCache(),
                          registry=tmp_path / "runs")
        for request in requests:
            batched.submit(request)
        gathered = batched.gather()
        assert batched._pending == []
        single = Session(cache=False)
        for request, result in zip(requests, gathered):
            assert result.request is request
            assert result.payload == single.run(request).payload
        # The lowerable prefix pooled into one recorded batch run; the
        # crosscheck ran whole afterwards and recorded its own sweep.
        assert gathered[0].provenance.batched
        assert not gathered[3].provenance.batched
        registry = RunRegistry(tmp_path / "runs")
        kinds = [registry.load(r).kind for r in registry.list_runs()]
        assert "batch" in kinds
