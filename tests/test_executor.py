"""The grid runner's scheduling paths.

Every hardening path of :func:`repro.jobs.run_grid` under real
process-pool conditions: clean completion, worker exceptions with
bounded retry and quarantine, hard worker crashes (``os._exit``) that
break the pool, per-cell wall-clock timeouts that kill wedged workers
without losing innocent bystanders — plus the in-process path taken at
one job without a timeout or job dir.  The durable job-dir mode is
covered in ``tests/test_jobs.py``.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.jobs import (
    CELL_RETRIES_ENV,
    CELL_TIMEOUT_ENV,
    ExecutorPolicy,
    cell_retries,
    cell_timeout,
    run_grid,
)
from repro.utils.errors import ExecutorError

FAST = ExecutorPolicy(jobs=2, retries=1, backoff=0.01)


# -- module-level workers (fork pools need picklable callables) --------

def double(payload):
    return payload * 2


def boom(payload):
    raise ValueError(f"cell {payload} is broken")


def fail_until_marker(payload):
    """Fails on the first run, succeeds once its marker file exists."""
    marker, value = payload
    if os.path.exists(marker):
        return value
    with open(marker, "w"):
        pass
    raise RuntimeError("first attempt always fails")


def crash_or_double(payload):
    if payload == "crash":
        os._exit(13)  # hard death: BrokenProcessPool, not an exception
    return payload * 2


def crash_or_sleep(payload):
    """The crash cell dies once its pool neighbour is surely running;
    every other cell is still running when it does."""
    if payload == "crash":
        time.sleep(0.05)
        os._exit(13)
    time.sleep(0.3)
    return payload


def sleep_then_return(payload):
    seconds, value = payload
    time.sleep(seconds)
    return value


def pid_of_runner(payload):
    return os.getpid()


def freeze_count(payload):
    return gc.get_freeze_count()


def interrupt(payload):
    raise KeyboardInterrupt


class TestRunGrid:
    def test_all_ok(self):
        tasks = [(f"c{i}", i) for i in range(5)]
        outcomes, stats = run_grid(tasks, double, FAST)
        assert {key: o.value for key, o in outcomes.items()} == \
            {f"c{i}": 2 * i for i in range(5)}
        assert all(o.status == "ok" and o.attempts == 1
                   for o in outcomes.values())
        assert stats.completed == 5
        assert not stats.quarantined
        assert stats.jobs is None  # no job dir, no cache

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ExecutorError, match="duplicate"):
            run_grid([("a", 1), ("a", 2)], double, FAST)

    def test_worker_error_quarantined_after_retries(self):
        outcomes, stats = run_grid([("bad", 1)], boom, FAST)
        outcome = outcomes["bad"]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2  # first run + one retry
        assert "ValueError: cell 1 is broken" in outcome.error
        assert stats.retries == 1
        assert stats.quarantined == ["bad"]

    def test_retry_then_success(self, tmp_path):
        marker = str(tmp_path / "marker")
        outcomes, stats = run_grid(
            [("flaky", (marker, 7))], fail_until_marker,
            ExecutorPolicy(jobs=1, retries=2, backoff=0.01))
        outcome = outcomes["flaky"]
        assert outcome.status == "ok"
        assert outcome.value == 7
        assert outcome.attempts == 2
        assert stats.retries == 1

    def test_crash_breaks_pool_and_recovers(self):
        tasks = [("crash", "crash")] + [(f"c{i}", i) for i in range(4)]
        outcomes, stats = run_grid(
            tasks, crash_or_double,
            ExecutorPolicy(jobs=2, retries=1, backoff=0.01))
        assert outcomes["crash"].status == "quarantined"
        assert "crashed" in outcomes["crash"].error
        assert outcomes["crash"].attempts == 2
        for i in range(4):  # bystanders all completed despite the crash
            assert outcomes[f"c{i}"].status == "ok"
            assert outcomes[f"c{i}"].value == 2 * i
        assert stats.crashes >= 1
        assert stats.quarantined == ["crash"]

    def test_crash_suspects_rerun_alone(self):
        # A slow bystander is in flight beside the crash, so the break
        # charges it one attempt.  Its retry must not share the pool
        # with the crash cell's retry: at retries=1 a second charge
        # would quarantine a cell that never crashed.
        tasks = [("crash", "crash")] + [(f"c{i}", i) for i in range(3)]
        outcomes, stats = run_grid(
            tasks, crash_or_sleep,
            ExecutorPolicy(jobs=2, retries=1, backoff=0.01))
        assert stats.quarantined == ["crash"]
        assert outcomes["crash"].attempts == 2
        for i in range(3):
            assert outcomes[f"c{i}"].status == "ok"
            assert outcomes[f"c{i}"].value == i
            assert outcomes[f"c{i}"].attempts <= 2

    def test_timeout_kills_wedged_cell_keeps_bystander(self):
        tasks = [("wedged", (30.0, None)), ("quick", (0.0, 5))]
        outcomes, stats = run_grid(
            tasks, sleep_then_return,
            ExecutorPolicy(jobs=2, timeout=0.3, retries=1, backoff=0.01))
        assert outcomes["quick"].status == "ok"
        assert outcomes["quick"].value == 5
        wedged = outcomes["wedged"]
        assert wedged.status == "quarantined"
        assert "timed out after 0.3s" in wedged.error
        assert wedged.attempts == 2
        assert stats.timeouts == 2  # both attempts expired

    def test_one_job_without_timeout_runs_in_process(self):
        tasks = [("a", None), ("b", None)]
        inline, _ = run_grid(tasks, pid_of_runner, ExecutorPolicy(jobs=1))
        assert {o.value for o in inline.values()} == {os.getpid()}
        # A timeout needs a process to kill: the same grid forks.
        forked, _ = run_grid(tasks, pid_of_runner,
                             ExecutorPolicy(jobs=1, timeout=30.0))
        assert os.getpid() not in {o.value for o in forked.values()}

    def test_in_process_errors_retry_and_quarantine(self):
        outcomes, stats = run_grid(
            [("bad", 1), ("good", 2)], boom,
            ExecutorPolicy(jobs=1, retries=1, backoff=0.01))
        assert outcomes["bad"].status == "quarantined"
        assert outcomes["bad"].attempts == 2
        assert sorted(stats.quarantined) == ["bad", "good"]

    def test_job_dir_needs_an_address_function(self, tmp_path):
        with pytest.raises(ExecutorError, match="address"):
            run_grid([("a", 1)], double,
                     ExecutorPolicy(jobs=1, job_dir=str(tmp_path / "jobs")))


class TestFrozenHeap:
    """``run_grid`` freezes the pre-grid heap for the grid's duration."""

    @pytest.fixture(autouse=True)
    def unfrozen(self):
        # Every earlier grid of this session must have unfrozen.
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_run_frozen_and_the_count_is_restored(self, jobs):
        outcomes, _ = run_grid([("a", None), ("b", None)], freeze_count,
                               ExecutorPolicy(jobs=jobs))
        assert all(o.value > 0 for o in outcomes.values())
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_is_left_alone(self):
        gc.freeze()
        try:
            held = gc.get_freeze_count()
            outcomes, _ = run_grid([("a", None)], freeze_count,
                                   ExecutorPolicy(jobs=1))
            # Nothing more was frozen (frozen objects may still die).
            assert 0 < outcomes["a"].value <= held
            assert 0 < gc.get_freeze_count() <= held
        finally:
            gc.unfreeze()

    def test_an_escaping_exception_restores_the_count(self):
        with pytest.raises(KeyboardInterrupt):
            run_grid([("a", None)], interrupt, ExecutorPolicy(jobs=1))
        assert gc.get_freeze_count() == 0


class TestPolicyAndEnv:
    def test_policy_validation(self):
        with pytest.raises(ExecutorError, match="jobs"):
            ExecutorPolicy(jobs=0)
        with pytest.raises(ExecutorError, match="retries"):
            ExecutorPolicy(retries=-1)
        with pytest.raises(ExecutorError, match="timeout"):
            ExecutorPolicy(timeout=0.0)
        with pytest.raises(ExecutorError, match="lease_ttl"):
            ExecutorPolicy(job_dir="/tmp/jobs", lease_ttl=0.0)

    def test_in_process_rule(self):
        assert ExecutorPolicy(jobs=1).in_process
        assert not ExecutorPolicy(jobs=2).in_process
        assert not ExecutorPolicy(jobs=1, timeout=5.0).in_process
        assert not ExecutorPolicy(jobs=1, job_dir="/tmp/jobs").in_process

    def test_cell_timeout_env(self, monkeypatch):
        monkeypatch.delenv(CELL_TIMEOUT_ENV, raising=False)
        assert cell_timeout() is None
        assert cell_timeout(5.0) == 5.0
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "2.5")
        assert cell_timeout() == 2.5
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0")
        assert cell_timeout() is None  # <= 0 disables the timeout
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "soon")
        with pytest.raises(ExecutorError, match=CELL_TIMEOUT_ENV):
            cell_timeout()

    def test_cell_retries_env(self, monkeypatch):
        monkeypatch.delenv(CELL_RETRIES_ENV, raising=False)
        assert cell_retries() == 2
        assert cell_retries(0) == 0
        monkeypatch.setenv(CELL_RETRIES_ENV, "5")
        assert cell_retries() == 5
        monkeypatch.setenv(CELL_RETRIES_ENV, "-1")
        with pytest.raises(ExecutorError, match=">= 0"):
            cell_retries()
        monkeypatch.setenv(CELL_RETRIES_ENV, "many")
        with pytest.raises(ExecutorError, match=CELL_RETRIES_ENV):
            cell_retries()
