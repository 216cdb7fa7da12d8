"""Deterministic fault injection: retries, timeouts, degradation.

Every failure path the runtime claims to survive is exercised here on
purpose, with seeded plans, and asserted byte-deterministic: a
recoverable fault may cost attempts but can never change a payload.
"""

import hashlib
import json
import pickle
import signal
from pathlib import Path

import pytest

from repro.api import (
    CrosscheckRequest,
    ExperimentRequest,
    Provenance,
    ScenarioGridRequest,
    Session,
)
from repro.runtime import (
    EvalTask,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResultCache,
    RetryPolicy,
    TaskError,
    TaskFailure,
    attention_grid,
    cache_key,
    corrupt_disk_entry,
    decode_result,
    encode_result,
    execute_tasks,
)
from repro.runtime.executor import _run_batch
from repro.workloads import BERT

SHORT = (1024, 65536)

has_sigalrm = hasattr(signal, "SIGALRM")


class TestFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.seeded(50, seed=7, rate=0.3, corrupt_rate=0.2)
        b = FaultPlan.seeded(50, seed=7, rate=0.3, corrupt_rate=0.2)
        assert a == b
        assert a.faults  # a 30% rate over 50 tasks draws something
        assert a != FaultPlan.seeded(50, seed=8, rate=0.3, corrupt_rate=0.2)

    def test_directive_lookup(self):
        plan = FaultPlan(
            faults=(FaultSpec(2, 1, "raise"), FaultSpec(2, 2, "crash")),
            corrupt=(4,),
        )
        assert plan.directive(2, 1) == "raise"
        assert plan.directive(2, 2) == "crash"
        assert plan.directive(2, 3) is None
        assert plan.directive(0, 1) is None
        assert plan.corrupts(4) and not plan.corrupts(2)
        assert plan.fault_indices == (2,)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(0, 1, "meltdown")
        with pytest.raises(ValueError):
            FaultPlan.seeded(4, kinds=("raise", "meltdown"))


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base_s=0.1,
            backoff_cap_s=0.3,
            jitter=0.5,
            seed=3,
        )
        assert policy.backoff_s(1, 2) == policy.backoff_s(1, 2)
        assert policy.backoff_s(1, 2) != policy.backoff_s(2, 2)
        # cap * (1 + jitter) bounds every delay; base doubles until cap
        for attempt in range(1, 6):
            assert 0.0 < policy.backoff_s(0, attempt) <= 0.3 * 1.5

    def test_zero_base_never_sleeps(self):
        assert RetryPolicy(max_attempts=3).backoff_s(0, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_s=0).validate()
        assert RetryPolicy(max_attempts=4, jitter=0.5).rule_violations() == []


class TestInlineRecovery:
    """The serial (jobs=1) path through every fault kind."""

    def test_transient_raise_recovers(self):
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks,
            cache=False,
            retry=RetryPolicy(max_attempts=2),
            faults=FaultPlan(faults=(FaultSpec(0, 1, "raise"),)),
        )
        assert outcome.results == clean
        assert outcome.attempts == len(tasks) + 1
        assert outcome.recovered == 1
        assert outcome.failures == ()

    def test_inline_crash_recovers(self):
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks,
            cache=False,
            retry=RetryPolicy(max_attempts=2),
            faults=FaultPlan(faults=(FaultSpec(1, 1, "crash"),)),
        )
        assert outcome.results == clean
        assert outcome.recovered == 1

    @pytest.mark.skipif(not has_sigalrm, reason="needs SIGALRM")
    def test_hang_times_out_and_recovers(self):
        tasks = attention_grid((BERT,), SHORT[:1])
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks,
            cache=False,
            retry=RetryPolicy(max_attempts=2, task_timeout_s=0.2),
            faults=FaultPlan(faults=(FaultSpec(0, 1, "hang"),), hang_s=5.0),
        )
        assert outcome.results == clean
        assert outcome.recovered == 1

    def test_exhausted_retries_raise_task_error(self):
        tasks = attention_grid((BERT,), SHORT[:1])
        plan = FaultPlan(faults=(FaultSpec(0, 1, "raise"), FaultSpec(0, 2, "raise")))
        with pytest.raises(TaskError) as excinfo:
            execute_tasks(
                tasks, cache=False, retry=RetryPolicy(max_attempts=2), faults=plan
            )
        failure = excinfo.value.failure
        assert failure.index == 0
        assert failure.attempts == 2
        assert "InjectedFault" in failure.error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_the_lowest_failing_task(self, jobs):
        """Every ``jobs`` names the lowest failing index, also when a
        higher one fails first: pooled, task 9's batch [1, 9] returns
        while task 0's delay still holds task 8's batch [0, 8]."""
        tasks = attention_grid((BERT,), SHORT)
        plan = FaultPlan(
            faults=(FaultSpec(0, 1, "hang"), FaultSpec(8, 1), FaultSpec(9, 1)),
            hang_s=0.3,
        )
        with pytest.raises(TaskError) as excinfo:
            execute_tasks(tasks, jobs=jobs, cache=False, faults=plan)
        assert excinfo.value.failure.index == 8

    def test_pooled_task_error_chains_the_worker_traceback(self):
        tasks = attention_grid((BERT,), SHORT)
        with pytest.raises(TaskError) as excinfo:
            execute_tasks(
                tasks, jobs=2, cache=False, faults=FaultPlan(faults=(FaultSpec(3, 1),))
            )
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault)
        assert "in _attempt_task" in str(cause.__cause__)

    def test_unpicklable_task_error_keeps_its_batch_mates(self):
        class LocalError(Exception):
            """Defined in a function, so it cannot be pickled."""

        class Broken:
            def evaluate(self, model, seq_len, batch):
                raise LocalError("no way back from the worker")

        good = attention_grid((BERT,), SHORT[:1])[0]
        bad = EvalTask("attention", Broken(), BERT, SHORT[0])
        outcomes = pickle.loads(pickle.dumps(_run_batch([(bad, 0, 1), (good, 1, 1)])))
        (ok_bad, (error, text)), (ok_good, value) = outcomes
        assert not ok_bad
        assert isinstance(error, RuntimeError)
        assert "LocalError" in str(error)
        assert "in evaluate" in text
        assert ok_good
        assert value == execute_tasks([good], cache=False).results[0]

    def test_on_error_skip_degrades_to_failure_record(self):
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        plan = FaultPlan(faults=(FaultSpec(0, 1, "raise"), FaultSpec(0, 2, "raise")))
        outcome = execute_tasks(
            tasks,
            cache=False,
            retry=RetryPolicy(max_attempts=2),
            on_error="skip",
            faults=plan,
        )
        assert isinstance(outcome.results[0], TaskFailure)
        assert outcome.results[0].kind == "attention"
        assert outcome.results[1:] == clean[1:]
        assert [f.index for f in outcome.failures] == [0]

    def test_no_retry_fails_fast_by_default(self):
        tasks = attention_grid((BERT,), SHORT[:1])
        with pytest.raises(TaskError):
            execute_tasks(
                tasks, cache=False, faults=FaultPlan(faults=(FaultSpec(0, 1),))
            )

    def test_rejects_bad_on_error(self):
        with pytest.raises(ValueError):
            execute_tasks([], on_error="ignore")

    def test_rejects_invalid_policy(self):
        with pytest.raises(ValueError):
            execute_tasks([], retry=RetryPolicy(max_attempts=0))


class TestFailureCodec:
    def test_task_failure_round_trips(self):
        failure = TaskFailure(index=3, kind="binding", error="boom", attempts=2)
        assert decode_result(encode_result(failure)) == failure


class TestCacheQuarantine:
    def _entry(self, cache, task):
        key = cache_key(task.fingerprint())
        return key, cache.entry_path(key)

    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        task = attention_grid((BERT,), SHORT[:1])[0]
        clean = execute_tasks([task], cache=cache).results
        key, path = self._entry(cache, task)
        path.write_bytes(path.read_bytes()[:10])
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert path.with_suffix(".corrupt").is_file()
        assert execute_tasks([task], cache=fresh).results == clean
        assert ResultCache(directory=tmp_path).get(key) is not None

    def test_invalid_json_and_wrong_schema_quarantined(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        task = attention_grid((BERT,), SHORT[:1])[0]
        execute_tasks([task], cache=cache).results
        key, path = self._entry(cache, task)
        for damage in ("not json at all", json.dumps({"no": "result"}),
                       json.dumps({"result": {"__type__": "Mystery"}})):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(damage)
            fresh = ResultCache(directory=tmp_path)
            assert fresh.get(key) is None
            assert fresh.stats.corrupt == 1

    def test_memory_only_cache_has_no_entry_path(self):
        assert ResultCache().entry_path("ab" * 32) is None
        assert corrupt_disk_entry(ResultCache(), "ab" * 32) is False

    def test_fault_plan_corruption_flows_through_executor(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        tasks = attention_grid((BERT,), SHORT)
        clean = execute_tasks(tasks, cache=False).results
        outcome = execute_tasks(
            tasks, cache=cache, faults=FaultPlan(corrupt=(0, 3))
        )
        assert outcome.results == clean  # corruption is post-put only
        fresh = ResultCache(directory=tmp_path)
        assert execute_tasks(tasks, cache=fresh).results == clean
        assert fresh.stats.corrupt == 2
        assert fresh.stats.disk_hits == len(tasks) - 2


class TestSessionFaultPolicy:
    def test_provenance_reports_recovery(self, tmp_path):
        request = ScenarioGridRequest(models=("BERT",), chunks=2)
        clean = Session(cache=False).run(request)
        session = Session(
            cache=False,
            registry=tmp_path,
            retry=RetryPolicy(max_attempts=3),
            faults=FaultPlan(faults=(FaultSpec(0, 1, "raise"),)),
        )
        result = session.run(request)
        assert result.payload == clean.payload
        assert result.provenance.recovered == 1
        assert result.provenance.failures == 0
        assert result.provenance.attempts == len(clean.payload) + 1
        assert session.registry.latest().health["recovered"] == 1

    def test_skip_mode_surfaces_failure_in_payload(self):
        request = ScenarioGridRequest(models=("BERT",), chunks=2)
        session = Session(
            cache=False,
            retry=RetryPolicy(max_attempts=1),
            on_error="skip",
            faults=FaultPlan(faults=(FaultSpec(0, 1, "raise"),)),
        )
        result = session.run(request)
        assert isinstance(result.payload[0], TaskFailure)
        assert result.provenance.failures == 1

    #: The first attempt at task 0 of every pass raises.
    FIRST_TASK_FAILS = FaultPlan(faults=(FaultSpec(0, 1, "raise"),))

    @pytest.mark.parametrize(
        "request_",
        [ExperimentRequest(name="fig12"), CrosscheckRequest()],
        ids=["fig12", "crosscheck"],
    )
    def test_driver_passes_follow_the_fault_plan(self, request_):
        """Figure and crosscheck grids run under the session's policy:
        with one attempt per task, the injected fault aborts the run."""
        session = Session(cache=False, faults=self.FIRST_TASK_FAILS)
        with pytest.raises(TaskError):
            session.run(request_)

    @pytest.mark.parametrize(
        "request_",
        [
            ExperimentRequest(name="fig12"),
            ExperimentRequest(name="fig6"),
            ExperimentRequest(name="report"),
            CrosscheckRequest(),
        ],
        ids=["fig12", "fig6", "report", "crosscheck"],
    )
    def test_drivers_raise_for_a_skipped_point(self, request_):
        """Report, figure and crosscheck drivers need every grid point:
        under ``on_error="skip"`` a failed one raises its ``TaskError``
        instead of reaching row building as a ``TaskFailure``."""
        session = Session(cache=False, on_error="skip", faults=self.FIRST_TASK_FAILS)
        with pytest.raises(TaskError) as caught:
            session.run(request_)
        assert caught.value.failure.index == 0

    def test_driver_raises_for_the_lowest_failed_index(self):
        plan = FaultPlan(faults=(FaultSpec(5, 1, "raise"), FaultSpec(2, 1, "raise")))
        session = Session(cache=False, on_error="skip", faults=plan)
        with pytest.raises(TaskError) as caught:
            session.run(ExperimentRequest(name="fig12"))
        assert caught.value.failure.index == 2

    def test_sweep_payload_keeps_a_skipped_point(self):
        """Payload keys come from the tasks, so a failed point keeps
        its ``(config, model, seq_len)`` slot under ``on_error="skip"``."""
        request = ExperimentRequest(name="sweep", models=("BERT",), seq_lens=(1024,))
        session = Session(cache=False, on_error="skip", faults=self.FIRST_TASK_FAILS)
        payload = session.run(request).payload
        assert isinstance(payload[("Unfused", "BERT", 1024)], TaskFailure)
        assert len(payload) == 5

    def test_report_recovers_under_retries(self):
        session = Session(
            cache=False, retry=RetryPolicy(max_attempts=2), faults=self.FIRST_TASK_FAILS
        )
        result = session.run(ExperimentRequest(name="report"))
        assert result.provenance.recovered == 1  # the report's last pass
        golden = Path(__file__).parent / "golden" / "report.sha256"
        digest = hashlib.sha256(result.payload.encode()).hexdigest()
        assert digest == golden.read_text().strip()

    def test_session_validates_policy(self):
        with pytest.raises(ValueError):
            Session(on_error="ignore")
        with pytest.raises(ValueError):
            Session(retry=RetryPolicy(max_attempts=0))

    def test_provenance_repr_keeps_batched_field(self):
        # CI greps "batched=True" in the quickstart output; the fault
        # telemetry fields must not displace it.
        fields = [f for f in Provenance.__dataclass_fields__]
        assert fields.index("batched") < fields.index("attempts")


class TestCLIFaultFlags:
    def test_sweep_accepts_fault_flags(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--kind",
                    "attention",
                    "--models",
                    "BERT",
                    "--seq-lens",
                    "1024",
                    "--retries",
                    "2",
                    "--task-timeout",
                    "30",
                    "--on-error",
                    "skip",
                ]
            )
            == 0
        )
        assert "grid points" in capsys.readouterr().out

    def test_sweep_marks_a_skipped_point(self, capsys, monkeypatch):
        """A point that failed under ``--on-error skip`` prints as a
        marked row, and the count line says how many failed."""
        from repro import cli

        def failing_session(args):
            return Session(
                cache=False,
                on_error="skip",
                faults=FaultPlan(faults=(FaultSpec(0, 1, "raise"), FaultSpec(3, 1, "raise"))),
            )

        monkeypatch.setattr(cli, "_session", failing_session)
        argv = ["sweep", "--models", "BERT", "--seq-lens", "1024", "--on-error", "skip"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split() for line in lines if "FAILED" in line]
        assert [row[:3] for row in failed] == [
            ["Unfused", "BERT", "1K"], ["+Architecture", "BERT", "1K"]
        ]
        assert all(row[3:] == ["FAILED", "-"] for row in failed)
        assert lines[-1].startswith("5 grid points (attention), jobs=1, 2 failed")

    def test_cycle_path_refuses_fault_flags(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    "--engine",
                    "cycle",
                    "--retries",
                    "1",
                ]
            )
            == 2
        )
        assert "--retries" in capsys.readouterr().err

    def test_rejects_bad_task_timeout(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--task-timeout", "0"])
        assert "must be > 0" in capsys.readouterr().err
