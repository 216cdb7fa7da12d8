"""Property layer for the open-loop serving simulator.

Four contracts:

- **replayability** — equal ``(rate, duration, seed)`` triples produce
  identical arrival traces and identical :class:`ServingResult`s, trace
  files round-trip through ``format_trace``/``parse_trace``, and the
  event core agrees with the cycle-accurate oracle on serving graphs;
- **metrics math** — percentile/TTFT/TBT/goodput agree with
  hand-computed mini-traces;
- **closed-scenario equivalence** — a one-shot arrival batch (all
  requests at t=0, window wide open) schedules to exactly the closed
  :class:`Scenario` result, with and without DRAM contention, for both
  bindings;
- **load monotonicity** — with a fixed seed, scaling the offered rate
  up never decreases p50 latency and never increases goodput.

The production path stamps one compiled template per request shape;
``TestStampedTemplates`` checks over fuzzed heterogeneous traces that
the stamped readiness frontier equals compiling the merged task list
and that its schedule equals the cycle oracle's on the named graph,
and that it builds and compiles only the templates.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.rows import emit_rows
from repro.serving import (
    Arrival,
    RequestMetrics,
    ServingResult,
    ServingSpec,
    build_serving_tasks,
    format_trace,
    parse_trace,
    percentile,
    poisson_arrivals,
    serving_csv,
    serving_sim,
    simulate_serving,
)
from repro.simulator import schedule_scenario_tasks
from repro.workloads.scenario import BINDINGS, QOS_MODES, attention_scenario

from conftest import flat_graph_fields, fuzz_seeds


def spec(arrivals, **overrides):
    defaults = dict(name="t", arrivals=tuple(arrivals), array_dim=64)
    defaults.update(overrides)
    return ServingSpec(**defaults)


class TestArrivals:
    def test_same_seed_identical_trace(self):
        a = poisson_arrivals(1.0, 32768, seed=7)
        b = poisson_arrivals(1.0, 32768, seed=7)
        assert a == b
        assert a != poisson_arrivals(1.0, 32768, seed=8)

    def test_rate_and_duration_bound_the_trace(self):
        arrivals = poisson_arrivals(2.0, 16384, seed=3)
        assert all(0 <= a.at < 16384 for a in arrivals)
        assert all(a.at <= b.at for a, b in zip(arrivals, arrivals[1:]))
        # More load, same horizon: the same seed draws a longer trace.
        assert len(arrivals) > len(poisson_arrivals(0.5, 16384, seed=3))

    def test_rejects_bad_process(self):
        with pytest.raises(ValueError, match="rate must be > 0"):
            poisson_arrivals(0.0, 1024)
        with pytest.raises(ValueError, match="duration must be >= 1"):
            poisson_arrivals(1.0, 0)
        with pytest.raises(ValueError, match="arrival chunks"):
            Arrival(0, 0)
        with pytest.raises(ValueError, match="arrival time"):
            Arrival(-1, 4)
        with pytest.raises(ValueError, match="decode_tokens"):
            Arrival(0, 4, -1)

    def test_trace_round_trip(self):
        arrivals = (Arrival(0, 4, 2), Arrival(64, 8), Arrival(64, 2, 1))
        assert parse_trace(format_trace(arrivals)) == arrivals

    def test_trace_parsing_details(self):
        text = "# header\n0 4 2\n\n64, 8  # inline comment\n"
        assert parse_trace(text) == (Arrival(0, 4, 2), Arrival(64, 8, 0))
        with pytest.raises(ValueError, match="line 1.*expected"):
            parse_trace("0 4 2 9")
        with pytest.raises(ValueError, match="line 2.*non-integer"):
            parse_trace("0 4\nx 4")
        with pytest.raises(ValueError, match="non-decreasing"):
            parse_trace("64 4\n0 4")


class TestMetricsMath:
    """Hand-computed mini-traces: every aggregate is checkable."""

    def test_percentile_nearest_rank(self):
        values = [10, 30, 20, 40]
        assert percentile(values, 50) == 20
        assert percentile(values, 99) == 40
        assert percentile(values, 25) == 10
        assert percentile(values, 100) == 40
        assert percentile([7], 50) == 7
        assert percentile([], 50) is None
        with pytest.raises(ValueError):
            percentile(values, 0)
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_request_timeline(self):
        r = RequestMetrics(
            index=0,
            arrival=100,
            chunks=4,
            decode_tokens=4,
            admitted=150,
            first_token=300,
            finish=700,
        )
        assert r.queue_delay == 50
        assert r.ttft == 200
        assert r.latency == 600
        assert r.tbt == (700 - 300) / 4
        assert r.met(600) and not r.met(599) and r.met(None)
        prefill_only = RequestMetrics(
            index=1,
            arrival=0,
            chunks=4,
            decode_tokens=0,
            admitted=0,
            first_token=80,
            finish=80,
        )
        assert prefill_only.tbt is None
        assert prefill_only.ttft == prefill_only.latency == 80

    def test_aggregates_from_mini_trace(self):
        requests = tuple(
            RequestMetrics(
                index=i,
                arrival=arrival,
                chunks=2,
                decode_tokens=tokens,
                admitted=arrival,
                first_token=first,
                finish=finish,
            )
            for i, (arrival, tokens, first, finish) in enumerate(
                [
                    (0, 2, 50, 150),  # ttft  50, latency 150, tbt 50
                    (10, 0, 110, 110),  # ttft 100, latency 100, tbt None
                    (20, 2, 220, 320),  # ttft 200, latency 300, tbt 50
                ]
            )
        )
        result = ServingResult(
            name="mini",
            binding="interleaved",
            rate=None,
            max_inflight=8,
            deadline=150,
            array_dim=64,
            pe_1d=64,
            embedding=64,
            slots=2,
            dram_bw=None,
            n_tasks=30,
            makespan=400,
            busy_2d=200,
            busy_1d=100,
            busy_io=40,
            busy_dram=0,
            requests=requests,
        )
        assert result.ttft_p50 == 100 and result.ttft_p99 == 200
        assert result.latency_p50 == 150 and result.latency_p99 == 300
        assert result.tbt_mean == 50.0
        assert result.goodput == pytest.approx(2 / 3)
        assert result.throughput == pytest.approx(3 * 1000 / 400)
        assert result.util_2d == pytest.approx(0.5)
        assert result.util_dram is None

    def test_emitters_cover_every_field_and_blank_nones(self):
        result = simulate_serving(spec([Arrival(0, 2, 1)]))
        csv_text = serving_csv([result])
        header, row = csv_text.strip().split("\n")
        assert header.count(",") == row.count(",") == 22
        assert ",-," in row  # rate/deadline columns blank
        assert '"rate": null' in emit_rows([result], "json")
        assert emit_rows([result], "table").splitlines()[0].lstrip().startswith(
            "workload"
        )


class TestServingSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            spec([Arrival(64, 2), Arrival(0, 2)])
        with pytest.raises(ValueError, match="unknown binding"):
            spec([Arrival(0, 2)], binding="spiral")
        with pytest.raises(ValueError, match="max_inflight"):
            spec([Arrival(0, 2)], max_inflight=0)
        with pytest.raises(ValueError, match="deadline"):
            spec([Arrival(0, 2)], deadline=0)
        with pytest.raises(ValueError, match="rate"):
            spec([Arrival(0, 2)], rate=0.0)

    def test_tile_serial_normalizes_slots(self):
        s = spec([Arrival(0, 2)], binding="tile-serial", slots=4)
        assert s.slots == 1

    def test_infinite_link_builds_the_unlinked_graph(self):
        """An infinite link moves a gather's bytes in zero cycles, so,
        as in the cluster lowering, it is no link at all: no
        latency-only gather is emitted."""
        arrivals = [Arrival(100 * i, 4, 2) for i in range(4)]
        unlinked = spec(arrivals, n_chips=2, link_latency=40)
        infinite = replace(unlinked, link_bw=math.inf)
        tasks, plans = build_serving_tasks(infinite)
        assert (tasks, plans) == build_serving_tasks(unlinked)
        assert len(tasks) == 276
        assert all(task.resource != "link" for task in tasks)
        assert simulate_serving(infinite).requests == simulate_serving(unlinked).requests

    def test_seq_len_and_describe(self):
        s = spec([Arrival(0, 2), Arrival(5, 8)], rate=0.5, deadline=900)
        assert s.seq_len == 8 * 64
        assert "rate=0.5/kcy" in s.describe()
        assert "slo=900" in s.describe()
        assert "trace" in spec([Arrival(0, 2)]).describe()


class TestDeterminismAndEngines:
    def test_same_spec_identical_result(self):
        s = spec(
            poisson_arrivals(0.5, 8192, seed=5, chunks=2, decode_tokens=2),
            deadline=4000,
            rate=0.5,
        )
        assert simulate_serving(s) == simulate_serving(s)

    def test_event_equals_cycle_on_serving_graph(self):
        s = spec(
            poisson_arrivals(1.0, 4096, seed=9, chunks=2, decode_tokens=1),
            dram_bw=64.0,
        )
        assert simulate_serving(s) == simulate_serving(s, engine="cycle")

    def test_empty_arrivals_short_circuit(self):
        result = simulate_serving(spec([]))
        assert result.n_requests == 0 and result.makespan == 0
        assert result.latency_p50 is None
        assert result.throughput == 0.0


class TestContinuousBatching:
    def test_window_of_one_serializes(self):
        s = spec([Arrival(0, 2), Arrival(0, 2), Arrival(0, 2)], max_inflight=1)
        result = simulate_serving(s)
        first, second, third = result.requests
        # Each admission waits for the previous completion, exactly.
        assert second.admitted == first.finish
        assert third.admitted == second.finish
        assert first.admitted == 0

    def test_open_window_admits_on_arrival(self):
        s = spec([Arrival(0, 2), Arrival(10, 2)], max_inflight=8)
        result = simulate_serving(s)
        assert [r.queue_delay for r in result.requests] == [0, 0]

    def test_arrival_shift_invariance(self):
        """An uncontended request's TTFT/latency don't depend on when it
        arrives: the clock gate delays the start, not the service."""
        at_zero = simulate_serving(spec([Arrival(0, 4, 2)])).requests[0]
        shifted = simulate_serving(spec([Arrival(700, 4, 2)])).requests[0]
        assert shifted.ttft == at_zero.ttft
        assert shifted.latency == at_zero.latency
        assert shifted.finish == at_zero.finish + 700

    def test_gate_structure(self):
        s = spec(
            [Arrival(0, 2), Arrival(0, 2), Arrival(5, 2)], max_inflight=2
        )
        tasks, plans = build_serving_tasks(s)
        clock = [t for t in tasks if t.resource == "clock"]
        # Two distinct arrival times -> two chained clock tasks.
        assert [t.duration for t in clock] == [0, 5]
        assert plans[0].gate == plans[1].gate == ("CLK[0]",)
        # The third request waits on its clock AND request 0 finishing.
        assert plans[2].gate == ("CLK[1]",) + plans[0].finish_sinks


class TestClosedScenarioEquivalence:
    """A one-shot arrival batch is exactly the closed Scenario."""

    @pytest.mark.parametrize("binding", ["interleaved", "tile-serial"])
    @pytest.mark.parametrize("dram_bw", [None, 48.0])
    def test_one_shot_batch_matches_scenario(self, binding, dram_bw):
        instances, chunks = 3, 4
        closed = attention_scenario(
            instances, chunks, binding=binding, array_dim=64, slots=2,
            dram_bw=dram_bw,
        )
        closed_result = schedule_scenario_tasks(closed)
        open_spec = spec(
            [Arrival(0, chunks, 0)] * instances,
            binding=binding,
            max_inflight=instances,
            dram_bw=dram_bw,
        )
        _, _, open_result = serving_sim(open_spec)
        assert open_result.makespan == closed_result.makespan
        for resource in ("2d", "1d", "io", "dram"):
            assert open_result.busy_cycles.get(
                resource, 0
            ) == closed_result.busy_cycles.get(resource, 0), resource

    def test_single_request_latency_is_scenario_makespan(self):
        closed = attention_scenario(1, 4, binding="interleaved", array_dim=64)
        closed_result = schedule_scenario_tasks(closed)
        result = simulate_serving(spec([Arrival(0, 4, 0)]))
        (request,) = result.requests
        assert request.latency == closed_result.makespan


class TestLoadMonotonicity:
    def test_latency_up_goodput_down_with_rate(self):
        results = []
        for rate in (0.2, 0.8, 3.2):
            arrivals = poisson_arrivals(
                rate, 16384, seed=13, chunks=2, decode_tokens=1
            )
            results.append(
                simulate_serving(
                    spec(arrivals, deadline=4000, rate=rate)
                )
            )
        for lo, hi in zip(results, results[1:]):
            assert lo.latency_p50 <= hi.latency_p50
            assert lo.ttft_p50 <= hi.ttft_p50
            assert lo.goodput >= hi.goodput
        # The sweep spans both regimes, so the ordering is non-trivial.
        assert results[0].goodput == 1.0
        assert results[-1].goodput < 1.0


def random_serving_spec(rng, qos):
    """A small heterogeneous trace over every axis the stamped path
    encodes: mixed request shapes, shared and t=0 timestamps, both
    bindings, slots 1-3, windows 1-8, DRAM and buffer bounds, and 1-3
    chips with and without a priced link.  A long prefill leads, so
    later short requests can decode while it still streams: the
    contention decode-first's priority key decides."""
    long = (rng.randint(4, 8), rng.randint(0, 1))
    short = [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(2)]
    at, arrivals = 0, [Arrival(0, *long)]
    for _ in range(rng.randint(2, 7)):
        at += rng.choice((0, rng.randint(1, 100), rng.randint(1, 400)))
        arrivals.append(Arrival(at, *rng.choice(short + [long])))
    chips = rng.choice((1, 1, 2, 3))
    return spec(
        arrivals,
        array_dim=16,
        embedding=16,
        binding=rng.choice(BINDINGS),
        slots=rng.randint(1, 3),
        max_inflight=rng.randint(1, 8),
        dram_bw=rng.choice((None, 4.0, 8.0, 32.0)),
        buffer_bytes=rng.choice((None, 1024.0, 1536.0)),
        qos=qos,
        n_chips=chips,
        link_bw=rng.choice((None, 16.0)) if chips > 1 else None,
        link_latency=rng.randint(0, 3),
    )


class TestStampedTemplates:
    @pytest.mark.parametrize("seed", fuzz_seeds("serving"))
    @pytest.mark.parametrize("qos", QOS_MODES)
    def test_stamped_path_equals_cycle_oracle(self, seed, qos):
        s = random_serving_spec(random.Random(seed), qos)
        assert simulate_serving(s) == simulate_serving(s, engine="cycle")

    @pytest.mark.parametrize("seed", fuzz_seeds("serving"))
    @pytest.mark.parametrize("qos", QOS_MODES)
    def test_stamped_graph_equals_compiling_the_merged_list(self, seed, qos):
        """The stamped frontier is the one :meth:`FlatGraph.from_tasks`
        compiles from the merged task list, urgent ids included."""
        from repro.serving.simulator import _merged_tasks, _stamped_graph
        from repro.simulator.engine import FlatGraph

        s = random_serving_spec(random.Random(seed), qos)
        tasks, urgent, plans = _merged_tasks(s)
        stamped, milestones = _stamped_graph(s)
        compiled = FlatGraph.from_tasks(tasks, urgent)
        assert flat_graph_fields(stamped) == flat_graph_fields(compiled)
        if qos == "uniform":
            assert not urgent
        index = {task.name: i for i, task in enumerate(tasks)}
        named = [(p.gate, p.prefill_sinks, p.finish_sinks) for p in plans]
        assert milestones == [
            tuple(tuple(index[name] for name in names) for names in plan) for plan in named
        ]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_serving(spec([Arrival(0, 2)]), engine="event")

    @pytest.mark.parametrize("chips", (1, 2))
    def test_production_path_builds_only_templates(self, monkeypatch, chips):
        """64 requests of one shape build one template per chip, and the
        merged ``Task`` list is never made: readiness is compiled once
        per template and once for the clock chain."""
        from repro.serving import simulator as serving
        from repro.simulator.engine import FlatGraph

        s = spec(
            [Arrival(16 * j, 2, 2) for j in range(64)],
            max_inflight=4,
            dram_bw=64.0,
            qos="decode-first",
            n_chips=chips,
        )
        n_tasks = len(build_serving_tasks(s)[0])
        calls = {"build_tasks": 0, "build_decode_tasks": 0}
        for name in calls:

            def counted(*args, _real=getattr(serving, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(serving, name, counted)

        def merged(*args, **kwargs):
            raise AssertionError("the production path built the merged graph")

        compiled = []
        real_from_tasks = FlatGraph.from_tasks.__func__

        def from_tasks(cls, tasks, *args, **kwargs):
            compiled.append(len(tasks))
            return real_from_tasks(cls, tasks, *args, **kwargs)

        monkeypatch.setattr(FlatGraph, "from_tasks", classmethod(from_tasks))
        monkeypatch.setattr(serving, "build_serving_tasks", merged)
        monkeypatch.setattr(serving, "serving_sim", merged)
        result = serving.simulate_serving(s)
        assert result.n_requests == 64 and result.n_tasks == n_tasks
        assert calls == {"build_tasks": chips, "build_decode_tasks": 2 * chips}
        n_clock = 64  # one clock task per distinct arrival time
        assert sorted(compiled) == sorted([n_clock] + [(n_tasks - n_clock) // 64] * chips)
