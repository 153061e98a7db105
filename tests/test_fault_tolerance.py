"""The fault-tolerant sweep runtime: supervision, faults, kill-and-resume.

The acceptance contract of the supervised executor paths:

* supervision (retry / journal / fault injection) engaged with no
  faults produces records byte-identical to the plain paths;
* injected raise / hang / kill faults are retried deterministically and
  surface as structured error records at worst — never a dead sweep;
* a sweep killed mid-run (a real ``os._exit`` in a subprocess driver)
  leaves a journal whose resume completes the sweep with records
  byte-identical to an uninterrupted run, under serial and parallel
  executors alike.

The trial functions live at module level so spawn-method pools can
import them by reference (same convention as ``spawn_helpers``).
"""

import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import spawn_helpers
from repro.runtime import (
    Fault,
    FaultPlan,
    InjectedFault,
    InstanceCache,
    ParallelExecutor,
    RetryPolicy,
    RunJournal,
    SerialExecutor,
    TrialBatch,
    TrialTask,
    build_specs,
    run_trials,
)

GRID = [(10, 2.0, 2), (20, 3.0, 2), (30, 4.0, 3)]
TRIALS = 3
SWEEP_SEED = 7

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_TESTS = str(Path(__file__).resolve().parent)


class Outcome(NamedTuple):
    total_bits: float
    found: bool


def tiny_protocol(instance, seed):
    return Outcome(float(instance[0] + seed % 5), seed % 2 == 0)


def tiny_instance(n, d, seed):
    return (n, d, seed)


def exploding_protocol(instance, seed):
    raise AssertionError("protocol must not run — journal should cover this")


def build_grid_specs():
    return build_specs(GRID, trials=TRIALS, sweep_seed=SWEEP_SEED)


def baseline_records():
    return run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                      workers=1)


def fast_retry(**overrides):
    defaults = dict(max_attempts=3, backoff_base=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=-2.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=-1)

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)


class TestFaultPlan:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="explode")

    def test_attempt_indexed_matching(self):
        fault = Fault(kind="raise", point_index=1, trial_index=2, attempts=2)
        spec = build_grid_specs()[TRIALS + 2]  # point 1, trial 2
        assert fault.matches(spec, attempt=0)
        assert fault.matches(spec, attempt=1)
        assert not fault.matches(spec, attempt=2)  # budget exhausted
        other = build_grid_specs()[0]
        assert not fault.matches(other, attempt=0)

    def test_wildcards(self):
        fault = Fault(kind="raise")
        for spec in build_grid_specs():
            assert fault.matches(spec, attempt=0)

    def test_apply_raises_deterministic_message(self):
        plan = FaultPlan([Fault(kind="raise", point_index=0, trial_index=0)])
        spec = build_grid_specs()[0]
        with pytest.raises(InjectedFault) as excinfo:
            plan.apply(spec, attempt=0)
        assert "point=0" in str(excinfo.value)
        plan.apply(spec, attempt=1)  # budget spent: no-op

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([Fault(kind="raise")])


class TestSupervisedIdentity:
    """Supervision engaged, no faults: records byte-identical to plain."""

    def test_serial_per_trial(self):
        base = baseline_records()
        supervised = run_trials(tiny_protocol, tiny_instance,
                                build_grid_specs(), workers=1,
                                retry=fast_retry())
        assert pickle.dumps(supervised) == pickle.dumps(base)
        assert all(r.ok for r in supervised)

    def test_serial_batched(self):
        base = baseline_records()
        supervised = run_trials(tiny_protocol, tiny_instance,
                                build_grid_specs(), workers=1,
                                retry=fast_retry(), batch=True)
        assert pickle.dumps(supervised) == pickle.dumps(base)

    def test_parallel_per_trial(self):
        base = baseline_records()
        supervised = run_trials(
            tiny_protocol, tiny_instance, build_grid_specs(),
            executor=ParallelExecutor(workers=2, start_method="fork"),
            retry=fast_retry(),
        )
        assert pickle.dumps(supervised) == pickle.dumps(base)

    def test_parallel_batched(self):
        base = baseline_records()
        supervised = run_trials(
            tiny_protocol, tiny_instance, build_grid_specs(),
            executor=ParallelExecutor(workers=2, start_method="fork"),
            retry=fast_retry(), batch=True,
        )
        assert pickle.dumps(supervised) == pickle.dumps(base)

    def test_legacy_paths_untouched_without_knobs(self):
        # No retry/journal/resume/fault_plan: the historical record
        # shape, ok status everywhere, error None everywhere.
        records = baseline_records()
        assert all(r.status == "ok" and r.error is None for r in records)


class TestFaultRecoverySerial:
    def test_raise_fault_retried_to_success(self):
        base = baseline_records()
        plan = FaultPlan([Fault(kind="raise", point_index=0, trial_index=1)])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             workers=1, fault_plan=plan, retry=fast_retry())
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_permanent_fault_surfaces_structured_error(self):
        plan = FaultPlan([
            Fault(kind="raise", point_index=0, trial_index=1, attempts=99),
        ])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             workers=1, fault_plan=plan,
                             retry=fast_retry(max_attempts=2))
        bad = [r for r in records if not r.ok]
        assert len(bad) == 1
        assert bad[0].status == "error"
        assert "InjectedFault" in bad[0].error
        assert bad[0].point_index == 0 and bad[0].trial_index == 1
        # The sweep's other records are untouched.
        assert sum(r.ok for r in records) == len(records) - 1

    def test_hang_fault_timed_out_and_retried(self):
        base = baseline_records()
        plan = FaultPlan([
            Fault(kind="hang", point_index=1, trial_index=0,
                  hang_seconds=10.0),
        ])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             workers=1, fault_plan=plan,
                             retry=fast_retry(timeout=0.3))
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_permanent_hang_surfaces_timeout_status(self):
        plan = FaultPlan([
            Fault(kind="hang", point_index=1, trial_index=0, attempts=99,
                  hang_seconds=10.0),
        ])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             workers=1, fault_plan=plan,
                             retry=fast_retry(max_attempts=2, timeout=0.3))
        bad = [r for r in records if not r.ok]
        assert len(bad) == 1
        assert bad[0].status == "timeout"
        assert "timed out" in bad[0].error

    def test_kill_fault_downgrades_in_process(self):
        # A kill fault executing in the driver would take the sweep
        # down; it must downgrade to raise and be retried like one.
        base = baseline_records()
        plan = FaultPlan([Fault(kind="kill", point_index=0, trial_index=0)])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             workers=1, fault_plan=plan, retry=fast_retry())
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_instance_build_failure_captured(self):
        def broken_instance(n, d, seed):
            raise RuntimeError("generator corrupted")

        records = run_trials(tiny_protocol, broken_instance,
                             build_grid_specs(), workers=1,
                             retry=fast_retry(max_attempts=2))
        assert all(not r.ok for r in records)
        assert all("generator corrupted" in r.error for r in records)


class TestFaultRecoveryParallel:
    def executor(self):
        return ParallelExecutor(workers=2, start_method="fork")

    def test_raise_fault_retried(self):
        base = baseline_records()
        plan = FaultPlan([Fault(kind="raise", point_index=1, trial_index=1)])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             executor=self.executor(), fault_plan=plan,
                             retry=fast_retry())
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_kill_fault_rebuilds_pool_and_recovers(self):
        # The worker hard-exits (BrokenProcessPool); the supervisor must
        # rebuild the pool and the retry must succeed.
        base = baseline_records()
        plan = FaultPlan([Fault(kind="kill", point_index=0, trial_index=0)])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             executor=self.executor(), fault_plan=plan,
                             retry=fast_retry())
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_hang_fault_watchdog_kills_pool_and_recovers(self):
        base = baseline_records()
        plan = FaultPlan([
            Fault(kind="hang", point_index=2, trial_index=0,
                  hang_seconds=30.0),
        ])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             executor=self.executor(), fault_plan=plan,
                             retry=fast_retry(timeout=1.0))
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_permanent_kill_never_kills_the_sweep(self):
        # Rebuild budget exhausted -> degradation to serial, where the
        # kill downgrades to raise and finally surfaces as an error
        # record.  The sweep itself must always complete.
        plan = FaultPlan([
            Fault(kind="kill", point_index=0, trial_index=0, attempts=99),
        ])
        records = run_trials(
            tiny_protocol, tiny_instance, build_grid_specs(),
            executor=self.executor(), fault_plan=plan,
            retry=fast_retry(max_attempts=2, max_pool_rebuilds=1),
        )
        assert len(records) == len(build_grid_specs())
        bad = [r for r in records if not r.ok]
        assert bad  # the faulted trial failed for good...
        assert all(r.error for r in bad)  # ...with structured errors

    def test_batched_fault_isolates_to_one_trial(self):
        base = baseline_records()
        plan = FaultPlan([Fault(kind="raise", point_index=1, trial_index=2)])
        records = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             executor=self.executor(), fault_plan=plan,
                             retry=fast_retry(), batch=True)
        assert pickle.dumps(records) == pickle.dumps(base)


class TestJournalResume:
    def test_journal_records_every_ok_trial(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = build_grid_specs()
        run_trials(tiny_protocol, tiny_instance, specs, workers=1,
                   journal=str(path))
        journal = RunJournal(path)
        assert len(journal) == len(specs)
        journal.close()

    def test_resume_skips_recorded_specs(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        base = baseline_records()
        run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                   workers=1, journal=str(path))
        # The journal covers everything: a resumed run must not execute
        # the protocol at all.
        resumed = run_trials(exploding_protocol, tiny_instance,
                             build_grid_specs(), workers=1,
                             journal=str(path), resume=True)
        assert pickle.dumps(resumed) == pickle.dumps(base)

    def test_partial_journal_resume_byte_identical(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        base = baseline_records()
        specs = build_grid_specs()
        with RunJournal(path) as journal:
            for spec, result in zip(specs[:4], base[:4]):
                journal.record(spec, result)
        for executor in (SerialExecutor(),
                         ParallelExecutor(workers=2, start_method="fork")):
            copy = tmp_path / f"{type(executor).__name__}.jsonl"
            shutil.copy(path, copy)
            resumed = run_trials(tiny_protocol, tiny_instance, specs,
                                 executor=executor, journal=str(copy),
                                 resume=True)
            assert pickle.dumps(resumed) == pickle.dumps(base)

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError, match="resume"):
            run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                       workers=1, resume=True)

    def test_open_journal_object_accepted_and_left_open(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with RunJournal(path, label="tiny") as journal:
            run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                       workers=1, journal=journal)
            assert len(journal) == len(build_grid_specs())
            journal.record(build_grid_specs()[0],
                           baseline_records()[0])  # handle still usable

    def test_failed_trials_not_journaled_then_healed_on_resume(
            self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        base = baseline_records()
        plan = FaultPlan([
            Fault(kind="raise", point_index=0, trial_index=1, attempts=99),
        ])
        first = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                           workers=1, journal=str(path), fault_plan=plan,
                           retry=fast_retry(max_attempts=2))
        assert sum(not r.ok for r in first) == 1
        journal = RunJournal(path)
        assert len(journal) == len(build_grid_specs()) - 1
        journal.close()
        # Resume without the fault: only the failed spec re-runs, and
        # the healed sweep matches the never-faulted one byte for byte.
        healed = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                            workers=1, journal=str(path), resume=True)
        assert pickle.dumps(healed) == pickle.dumps(base)


_INTERRUPTED_DRIVER = """
import os, sys
from repro.runtime.spec import build_specs
from repro.runtime.executor import run_trials
from test_fault_tolerance import GRID, TRIALS, SWEEP_SEED, tiny_instance

kill_after = int(sys.argv[1])
journal_path = sys.argv[2]
calls = {"count": 0}

def dying_protocol(instance, seed):
    from test_fault_tolerance import Outcome
    if calls["count"] >= kill_after:
        os._exit(9)  # hard crash, no cleanup, mid-sweep
    calls["count"] += 1
    return Outcome(float(instance[0] + seed % 5), seed % 2 == 0)

specs = build_specs(GRID, trials=TRIALS, sweep_seed=SWEEP_SEED)
run_trials(dying_protocol, tiny_instance, specs, workers=1,
           journal=journal_path)
"""


class TestKillAndResumeAcceptance:
    """The headline guarantee: crash mid-sweep, resume, identical records."""

    def interrupt(self, tmp_path, kill_after):
        path = tmp_path / "interrupted.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([_SRC, _TESTS])
        process = subprocess.run(
            [sys.executable, "-c", _INTERRUPTED_DRIVER,
             str(kill_after), str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert process.returncode == 9, process.stderr  # really crashed
        return path

    def test_crashed_sweep_resumes_byte_identical(self, tmp_path):
        base = baseline_records()
        path = self.interrupt(tmp_path, kill_after=4)
        journal = RunJournal(path)
        assert len(journal) == 4  # exactly the trials that completed
        journal.close()
        for name, executor in (
            ("serial", SerialExecutor()),
            ("parallel", ParallelExecutor(workers=2, start_method="fork")),
        ):
            copy = tmp_path / f"resume-{name}.jsonl"
            shutil.copy(path, copy)
            resumed = run_trials(tiny_protocol, tiny_instance,
                                 build_grid_specs(), executor=executor,
                                 journal=str(copy), resume=True)
            assert pickle.dumps(resumed) == pickle.dumps(base), name

    def test_crash_during_first_trial_resumes_from_nothing(self, tmp_path):
        base = baseline_records()
        path = self.interrupt(tmp_path, kill_after=0)
        journal = RunJournal(path)
        assert len(journal) == 0
        journal.close()
        resumed = run_trials(tiny_protocol, tiny_instance, build_grid_specs(),
                             workers=1, journal=str(path), resume=True)
        assert pickle.dumps(resumed) == pickle.dumps(base)

    def test_parallel_crash_heals_on_resume(self, tmp_path):
        # The parallel interruption: a kill fault with no retry budget
        # downgrades the run to structured errors; resuming without the
        # fault completes the sweep byte-identically.
        base = baseline_records()
        path = tmp_path / "parallel.jsonl"
        plan = FaultPlan([
            Fault(kind="kill", point_index=1, trial_index=1, attempts=99),
        ])
        first = run_trials(
            tiny_protocol, tiny_instance, build_grid_specs(),
            executor=ParallelExecutor(workers=2, start_method="fork"),
            journal=str(path), fault_plan=plan,
            retry=RetryPolicy(max_attempts=1, backoff_base=0.0,
                              max_pool_rebuilds=1),
        )
        assert any(not r.ok for r in first)
        resumed = run_trials(
            tiny_protocol, tiny_instance, build_grid_specs(),
            executor=ParallelExecutor(workers=2, start_method="fork"),
            journal=str(path), resume=True,
        )
        assert pickle.dumps(resumed) == pickle.dumps(base)


class TestSpawnAndFallback:
    def test_repro_start_method_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert ParallelExecutor(workers=2)._resolve_start_method() == "spawn"
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            ParallelExecutor(workers=2)._resolve_start_method()
        monkeypatch.delenv("REPRO_START_METHOD")
        assert ParallelExecutor(
            workers=2, start_method="fork"
        )._resolve_start_method() == "fork"

    def test_supervised_spawn_byte_identical_with_fault(self):
        # Module-level callables ship to spawn workers through the pool
        # initializer; the fault plan rides on the task and must fire
        # (and be retried) identically to serial execution.
        specs = build_grid_specs()
        base = run_trials(tiny_protocol, tiny_instance, specs, workers=1)
        plan = FaultPlan([Fault(kind="raise", point_index=0, trial_index=0)])
        records = run_trials(
            tiny_protocol, tiny_instance, specs,
            executor=ParallelExecutor(workers=2, start_method="spawn"),
            fault_plan=plan, retry=fast_retry(),
        )
        assert pickle.dumps(records) == pickle.dumps(base)

    def test_unpicklable_task_warns_and_falls_back(self, caplog):
        # Satellite: the spawn-method serial fallback must be loud.
        def closure_protocol(instance, seed):  # not importable: no pickle
            return tiny_protocol(instance, seed)

        specs = build_grid_specs()
        base = run_trials(tiny_protocol, tiny_instance, specs, workers=1)
        with caplog.at_level("WARNING", logger="repro.runtime.executor"):
            records = run_trials(
                closure_protocol, tiny_instance, specs,
                executor=ParallelExecutor(workers=2, start_method="spawn"),
            )
        assert pickle.dumps(records) == pickle.dumps(base)
        warnings = [r for r in caplog.records
                    if "does not pickle" in r.message]
        assert warnings, "fallback must emit a warning"
        assert "closure_protocol" in warnings[0].message

    def test_unpicklable_task_warns_on_supervised_path(self, caplog):
        def closure_protocol(instance, seed):
            return tiny_protocol(instance, seed)

        specs = build_grid_specs()
        base = run_trials(tiny_protocol, tiny_instance, specs, workers=1)
        with caplog.at_level("WARNING", logger="repro.runtime.executor"):
            records = run_trials(
                closure_protocol, tiny_instance, specs,
                executor=ParallelExecutor(workers=2, start_method="spawn"),
                retry=fast_retry(),
            )
        assert pickle.dumps(records) == pickle.dumps(base)
        assert any("does not pickle" in r.message for r in caplog.records)


class TestCacheQuarantine:
    def build_value(self, cache, key):
        return cache.get_or_build(key, lambda: {"graph": list(range(50))})

    def test_truncated_pickle_quarantined_and_rebuilt(self, tmp_path, caplog):
        key = ("far", 100, 4.0, 3, 11)
        writer = InstanceCache(disk_dir=tmp_path)
        value = self.build_value(writer, key)
        pkl = next(tmp_path.glob("*.pkl"))
        pkl.write_bytes(pkl.read_bytes()[:10])  # torn write artifact
        reader = InstanceCache(disk_dir=tmp_path)  # fresh memory tier
        with caplog.at_level("WARNING", logger="repro.runtime.cache"):
            rebuilt = self.build_value(reader, key)
        assert rebuilt == value
        assert reader.stats()["quarantined"] == 1
        assert reader.stats()["builds"] == 1
        assert any("quarantined" in r.message for r in caplog.records)
        assert list(tmp_path.glob("*.corrupt"))  # kept for post-mortem
        # The quarantined file no longer shadows the rebuilt pickle.
        fresh = InstanceCache(disk_dir=tmp_path)
        assert self.build_value(fresh, key) == value
        assert fresh.stats()["quarantined"] == 0
        assert fresh.stats()["builds"] == 0

    def test_garbage_bytes_quarantined(self, tmp_path):
        key = ("bm", 24, 0.0, 1, 5)
        writer = InstanceCache(disk_dir=tmp_path)
        self.build_value(writer, key)
        pkl = next(tmp_path.glob("*.pkl"))
        pkl.write_bytes(b"not a pickle at all")
        reader = InstanceCache(disk_dir=tmp_path)
        assert self.build_value(reader, key) == {"graph": list(range(50))}
        assert reader.stats()["quarantined"] == 1

    def test_clear_resets_quarantine_counter(self, tmp_path):
        cache = InstanceCache(disk_dir=tmp_path)
        self.build_value(cache, ("x", 1))
        next(tmp_path.glob("*.pkl")).write_bytes(b"junk")
        fresh = InstanceCache(disk_dir=tmp_path)
        self.build_value(fresh, ("x", 1))
        assert fresh.stats()["quarantined"] == 1
        fresh.clear()
        assert fresh.stats()["quarantined"] == 0


class TestSweepIntegration:
    def test_run_sweep_counts_errors_and_survives(self, tmp_path):
        from repro.analysis.experiments import run_sweep

        plan = FaultPlan([
            Fault(kind="raise", point_index=0, trial_index=0, attempts=99),
        ])
        sweep = run_sweep(
            spawn_helpers.spawn_protocol, spawn_helpers.spawn_instance,
            [(60, 3.0, 3), (80, 3.0, 3)], trials=2, seed=5, workers=1,
            fault_plan=plan, retry=fast_retry(max_attempts=2),
        )
        assert sweep.points[0].errors == 1
        assert sweep.points[1].errors == 0
        assert len(sweep.records) == 4

    def test_run_sweep_journal_resume(self, tmp_path):
        from repro.analysis.experiments import run_sweep

        grid = [(60, 3.0, 3)]
        path = tmp_path / "sweep.jsonl"
        base = run_sweep(spawn_helpers.spawn_protocol,
                         spawn_helpers.spawn_instance,
                         grid, trials=2, seed=5, workers=1)
        first = run_sweep(spawn_helpers.spawn_protocol,
                          spawn_helpers.spawn_instance,
                          grid, trials=2, seed=5, workers=1,
                          journal=str(path))
        resumed = run_sweep(spawn_helpers.spawn_protocol,
                            spawn_helpers.spawn_instance,
                            grid, trials=2, seed=5, workers=1,
                            journal=str(path), resume=True)
        assert pickle.dumps(base.records) == pickle.dumps(first.records)
        assert pickle.dumps(base.records) == pickle.dumps(resumed.records)
        assert base.points == resumed.points


def one_spec_batch(spec) -> TrialBatch:
    return TrialBatch(point_index=spec.point_index, specs=(spec,))


class TestSupervisedTaskUnits:
    def test_run_supervised_captures_metrics_failure(self):
        def bad_metrics(spec, instance, outcome):
            raise KeyError("metrics bug")

        task = TrialTask(tiny_instance, tiny_protocol, metrics=bad_metrics)
        spec = build_grid_specs()[0]
        (result,) = task.run_batch_supervised(one_spec_batch(spec))
        assert not result.ok
        assert "metrics bug" in result.error

    def test_error_text_deterministic_across_attempts(self):
        plan = FaultPlan([
            Fault(kind="raise", point_index=0, trial_index=0, attempts=99),
        ])
        task = TrialTask(tiny_instance, tiny_protocol, fault_plan=plan)
        spec = build_grid_specs()[0]
        (first,) = task.run_batch_supervised(one_spec_batch(spec), attempt=1)
        (second,) = task.run_batch_supervised(one_spec_batch(spec), attempt=1)
        assert first == second
        assert pickle.dumps(first) == pickle.dumps(second)
