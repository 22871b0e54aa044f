"""The durable job store and chaos harness.

Covers the full robustness story of :mod:`repro.jobs`: checksummed
atomic entries (torn and corrupt files quarantined, never trusted and
never fatal), cells filed by content address (shared across task
lists, recomputed when damaged), the lease-based claim protocol
(contention, renewal, expiry, reclamation from dead *and* frozen
workers), idempotent first-wins completion with
duplicate detection, the cross-worker dead-letter state, and the
durable multi-process mode of :func:`repro.jobs.run_grid` — including
the ``SIGKILL`` drill where a surviving worker finishes a
dead worker's cells and still returns the complete merged outcome set.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.jobs import (
    CHAOS_ENV,
    ChaosInjector,
    ChaosPolicy,
    ExecutorPolicy,
    JobStore,
    JobStoreError,
    QUARANTINE_DIR,
    chaos_from_env,
    payload_digest,
    publish_entry,
    read_entry,
    replace_entry,
    run_grid,
)
from repro.obs.metrics import METRICS


#: The one cell most store tests bind, with its content address.
CELL = {"cell": "double:1"}


def address(key, payload):
    """A test grid's content address: the cell's payload names it."""
    return f"{key}={payload}"


# -- module-level workers (fork pools need picklable callables) --------

def double(payload):
    return payload * 2


def boom(payload):
    raise ValueError(f"cell {payload} is broken")


def slow_double(payload):
    time.sleep(2.5)
    return payload * 2


def _drive_blocking(job_dir, tasks, ready_path):
    """A victim driver: claims cells whose worker never finishes."""
    # Lead a fresh process group so the test can SIGKILL the driver AND
    # its pool workers in one shot — a surviving orphan worker would
    # otherwise hold inherited pipes (pytest's stdout) open forever.
    os.setpgrp()
    with open(ready_path, "w"):
        pass
    run_grid(tasks, slow_double,
              ExecutorPolicy(jobs=1, job_dir=job_dir, lease_ttl=0.4,
                             backoff=0.01, poll=0.02,
                             worker_id="victim"), address=address)


def _drive_and_dump(job_dir, tasks, stats_path):
    """A cooperating driver that records its outcomes and stats."""
    outcomes, stats = run_grid(
        tasks, double,
        ExecutorPolicy(jobs=2, job_dir=job_dir, lease_ttl=0.4,
                       backoff=0.01, poll=0.02), address=address)
    with open(stats_path, "w") as handle:
        json.dump({"values": {k: o.value for k, o in outcomes.items()},
                   "statuses": {k: o.status for k, o in outcomes.items()},
                   "stats": stats.as_dict()}, handle)


# -- chaos --------------------------------------------------------------

class TestChaos:
    def test_policy_validation(self):
        with pytest.raises(JobStoreError, match="torn"):
            ChaosPolicy(torn=1.5)
        with pytest.raises(JobStoreError, match="corrupt"):
            ChaosPolicy(corrupt=-0.1)
        assert not ChaosPolicy().armed
        assert ChaosPolicy(fsync=0.5).armed

    def test_seeded_injection_is_deterministic(self):
        data = b'{"sha256": "x", "payload": [1, 2, 3]}'
        one = ChaosInjector(ChaosPolicy(torn=0.5, corrupt=0.5, seed=7))
        two = ChaosInjector(ChaosPolicy(torn=0.5, corrupt=0.5, seed=7))
        assert [one.mangle(data) for _ in range(20)] == \
            [two.mangle(data) for _ in range(20)]
        assert one.injected == two.injected
        assert one.injected["torn"] + one.injected["corrupt"] > 0

    def test_fsync_denial_degrades_not_fails(self, tmp_path):
        chaos = ChaosInjector(ChaosPolicy(fsync=1.0))
        before = METRICS.counter("jobs.fsync_denied").value
        path = str(tmp_path / "entry.json")
        replace_entry(path, {"v": 1}, chaos=chaos)  # must not raise
        assert METRICS.counter("jobs.fsync_denied").value > before
        ok, payload = read_entry(path, "jobs.test.quarantined")
        assert ok and payload == {"v": 1}  # the write itself landed

    def test_chaos_from_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "torn=0.5,corrupt=0.25,seed=3")
        injector = chaos_from_env()
        assert injector.policy.torn == 0.5
        assert injector.policy.corrupt == 0.25
        assert injector.policy.seed == 3
        monkeypatch.setenv(CHAOS_ENV, "explode=1")
        with pytest.raises(JobStoreError, match=CHAOS_ENV):
            chaos_from_env()
        monkeypatch.setenv(CHAOS_ENV, "torn=lots")
        with pytest.raises(JobStoreError, match="not a number"):
            chaos_from_env()


# -- checksummed entries ------------------------------------------------

class TestEntries:
    def test_roundtrip_and_digest_stability(self, tmp_path):
        path = str(tmp_path / "e.json")
        replace_entry(path, {"b": 2, "a": 1})
        ok, payload = read_entry(path, "jobs.test.quarantined")
        assert ok and payload == {"a": 1, "b": 2}
        assert payload_digest({"a": 1, "b": 2}) == \
            payload_digest({"b": 2, "a": 1})

    def test_publish_is_first_wins(self, tmp_path):
        path = str(tmp_path / "e.json")
        assert publish_entry(path, {"winner": 1})
        assert not publish_entry(path, {"loser": 2})
        ok, payload = read_entry(path, "jobs.test.quarantined")
        assert ok and payload == {"winner": 1}
        # The loser's temp file never lingers.
        assert [n for n in os.listdir(tmp_path)
                if n.startswith(".tmp.")] == []

    def test_corrupt_entry_quarantined(self, tmp_path):
        path = str(tmp_path / "e.json")
        replace_entry(path, {"v": 42})
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0x20  # one flipped byte
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        before = METRICS.counter("jobs.test.quarantined").value
        ok, payload = read_entry(path, "jobs.test.quarantined")
        assert not ok and payload is None
        assert METRICS.counter("jobs.test.quarantined").value == before + 1
        assert not os.path.exists(path)  # moved aside, not deleted
        pen = tmp_path / QUARANTINE_DIR
        assert any(name.startswith("e.json") for name in os.listdir(pen))

    def test_torn_entry_quarantined(self, tmp_path):
        path = str(tmp_path / "e.json")
        replace_entry(path, {"v": list(range(50))})
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 3])  # the crash landed here
        ok, _ = read_entry(path, "jobs.test.quarantined")
        assert not ok
        assert not os.path.exists(path)


# -- the job store ------------------------------------------------------

class TestJobStore:
    def test_task_lists_share_cells_by_address(self, tmp_path):
        root = str(tmp_path / "jobs")
        a = JobStore(root, worker_id="a", ttl=5.0)
        a.bind({"k1": "addr1", "k2": "addr2"})
        assert a.complete("k1", {"v": 1}, 1)
        # Another task list on the same directory: the cell with the
        # same address is shared (whatever its key), the others are not.
        b = JobStore(root, worker_id="b", ttl=5.0)
        b.bind({"renamed": "addr1", "k2": "addr3"})
        assert b.claim("renamed", retries=2).state == "done"
        assert b.claim("k2", retries=2).state == "acquired"
        assert set(b.collect()) == {"renamed"}
        assert b.collect()["renamed"].value == {"v": 1}
        with pytest.raises(JobStoreError, match="content address"):
            b.bind({"x": "same", "y": "same"})

    def test_durable_none_is_a_result(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"), worker_id="w", ttl=5.0)
        store.bind(CELL)
        store.complete("cell", None, 1)
        fresh = JobStore(store.root, worker_id="v", ttl=5.0)
        fresh.bind(CELL)
        outcome = fresh.collect()["cell"]
        assert outcome.status == "done" and outcome.value is None
        assert fresh.claim("cell", retries=2).state == "done"

    def test_journal_names_key_and_address(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"), worker_id="w", ttl=5.0)
        store.bind(CELL)
        store.claim("cell", retries=2)
        store.complete("cell", 2, 1)
        assert [(e["event"], e["key"], e["address"])
                for e in store.read_journal()] == \
            [("claim", "cell", "double:1"), ("complete", "cell", "double:1")]

    def test_claim_complete_done(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"), worker_id="w", ttl=5.0)
        store.bind(CELL)
        claim = store.claim("cell", retries=2)
        assert claim.state == "acquired"
        assert claim.attempt == 1 and not claim.reclaimed
        assert store.complete("cell", {"v": 1}, claim.attempt)
        assert store.claim("cell", retries=2).state == "done"
        outcome = store.collect()["cell"]
        assert outcome.status == "done" and outcome.value == {"v": 1}
        events = [e["event"] for e in store.read_journal()]
        assert "claim" in events and "complete" in events

    def test_contended_claim_held_by_live_worker(self, tmp_path):
        root = str(tmp_path / "jobs")
        a = JobStore(root, worker_id="a", ttl=5.0)
        a.bind(CELL)
        a.heartbeat()
        assert a.claim("cell", retries=2).state == "acquired"
        b = JobStore(root, worker_id="b", ttl=5.0)
        b.bind(CELL)
        held = b.claim("cell", retries=2)
        assert held.state == "held" and held.holder == "a"
        assert b.stats.contended == 1

    def test_expired_lease_of_silent_worker_is_reclaimed(self, tmp_path):
        root = str(tmp_path / "jobs")
        a = JobStore(root, worker_id="a", ttl=0.1, skew=0.02)
        a.bind(CELL)
        assert a.claim("cell", retries=2).state == "acquired"
        # No heartbeat from a: after TTL + slack it is provably silent.
        time.sleep(0.2)
        b = JobStore(root, worker_id="b", ttl=0.1, skew=0.02)
        b.bind(CELL)
        claim = b.claim("cell", retries=2)
        assert claim.state == "acquired" and claim.reclaimed
        assert b.stats.reclaimed == 1
        assert any(e["event"] == "reclaim" for e in b.read_journal())

    def test_live_heartbeat_blocks_reclamation(self, tmp_path):
        # An expired lease whose worker still heartbeats means a skewed
        # clock or a long poll, not a dead process: never stolen.
        root = str(tmp_path / "jobs")
        a = JobStore(root, worker_id="a", ttl=0.1, skew=0.02)
        a.bind(CELL)
        assert a.claim("cell", retries=2).state == "acquired"
        time.sleep(0.2)
        a.heartbeat()
        b = JobStore(root, worker_id="b", ttl=0.1, skew=0.02)
        b.bind(CELL)
        assert b.claim("cell", retries=2).state == "held"

    def test_renew_extends_and_release_drops(self, tmp_path):
        root = str(tmp_path / "jobs")
        a = JobStore(root, worker_id="a", ttl=5.0)
        a.bind(CELL)
        a.claim("cell", retries=2)
        assert a.renew("cell")
        b = JobStore(root, worker_id="b", ttl=5.0)
        b.bind(CELL)
        assert not b.renew("cell")  # not the owner
        a.release("cell")
        assert b.claim("cell", retries=2).state == "acquired"

    def test_duplicate_completion_detected_not_fatal(self, tmp_path):
        root = str(tmp_path / "jobs")
        a = JobStore(root, worker_id="a", ttl=5.0)
        a.bind(CELL)
        b = JobStore(root, worker_id="b", ttl=5.0)
        b.bind(CELL)
        assert a.complete("cell", {"v": 1}, 1)
        assert not b.complete("cell", {"v": 1}, 1)  # first wins
        assert b.stats.duplicates == 1
        assert b.collect()["cell"].worker == "a"
        assert any(e["event"] == "duplicate" for e in b.read_journal())

    def test_failures_accumulate_to_dead_letter(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"), worker_id="w", ttl=5.0)
        store.bind(CELL)
        store.claim("cell", retries=1)
        assert store.fail("cell", "first failure", retries=1) == "retry"
        claim = store.claim("cell", retries=1)
        assert claim.state == "acquired" and claim.attempt == 2
        assert store.fail("cell", "second failure", retries=1) == \
            "dead-letter"
        assert store.claim("cell", retries=1).state == "dead"
        outcome = store.collect()["cell"]
        assert outcome.status == "dead-letter"
        assert outcome.attempts == 2
        assert "second failure" in outcome.error
        assert store.stats.dead_letter == 1

    def test_corrupt_result_quarantined_and_recomputable(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"), worker_id="w", ttl=5.0)
        store.bind(CELL)
        store.claim("cell", retries=2)
        store.complete("cell", {"v": 1}, 1)
        results = os.path.join(store.root, "results")
        name = [n for n in os.listdir(results) if n.endswith(".json")][0]
        path = os.path.join(results, name)
        raw = bytearray(open(path, "rb").read())
        raw[5] ^= 0x20
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        assert store.collect() == {}  # damage reads as absence
        assert store.stats.quarantined == 1
        # ... which makes the cell claimable (recomputable) again.
        assert store.claim("cell", retries=2).state == "acquired"

    def test_torn_journal_lines_skipped(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"), worker_id="w", ttl=5.0)
        store.bind(CELL)
        store.journal("claim", "cell")
        with open(os.path.join(store.root, "journal.jsonl"), "a") as f:
            f.write('{"event": "compl')  # the kill landed here
        store.journal("complete", "cell")
        events = [e["event"] for e in store.read_journal()]
        assert events == ["claim", "complete"]

    def test_lease_ttl_env(self, monkeypatch, tmp_path):
        from repro.jobs import LEASE_TTL_ENV, lease_ttl
        monkeypatch.delenv(LEASE_TTL_ENV, raising=False)
        assert lease_ttl(7.0) == 7.0
        monkeypatch.setenv(LEASE_TTL_ENV, "2.5")
        assert lease_ttl() == 2.5
        assert JobStore(str(tmp_path / "j"), worker_id="w").ttl == 2.5
        monkeypatch.setenv(LEASE_TTL_ENV, "0")
        with pytest.raises(JobStoreError, match="positive"):
            lease_ttl()
        monkeypatch.setenv(LEASE_TTL_ENV, "soon")
        with pytest.raises(JobStoreError, match="not a number"):
            lease_ttl()


# -- durable run_grid ---------------------------------------------------

class TestDurableRunGrid:
    def test_single_worker_matches_plain_run(self, tmp_path):
        tasks = [(f"c{i}", i) for i in range(5)]
        plain, _ = run_grid(tasks, double,
                             ExecutorPolicy(jobs=2, backoff=0.01))
        durable, stats = run_grid(
            tasks, double,
            ExecutorPolicy(jobs=2, backoff=0.01, poll=0.02,
                           job_dir=str(tmp_path / "jobs")),
            address=address)
        assert {k: o.value for k, o in durable.items()} == \
            {k: o.value for k, o in plain.items()}
        assert all(o.status == "ok" for o in durable.values())
        assert stats.completed == 5
        assert stats.store_stats["completed"] == 5
        assert stats.reclaimed == 0 and stats.duplicates == 0

    def test_restart_serves_results_from_store(self, tmp_path):
        job_dir = str(tmp_path / "jobs")
        tasks = [(f"c{i}", i) for i in range(4)]
        run_grid(tasks, double,
                  ExecutorPolicy(jobs=2, backoff=0.01, poll=0.02,
                                 job_dir=job_dir), address=address)
        # A rerun with a worker that would fail proves nothing re-runs:
        # every cell is ingested from the durable store.
        outcomes, stats = run_grid(
            tasks, boom,
            ExecutorPolicy(jobs=2, backoff=0.01, poll=0.02,
                           job_dir=job_dir), address=address)
        assert {k: o.value for k, o in outcomes.items()} == \
            {f"c{i}": 2 * i for i in range(4)}
        assert stats.completed == 0  # nothing executed locally
        assert stats.jobs["cache_hits"] == 4
        assert stats.jobs["cache_misses"] == 0
        assert stats.jobs["cache_hit_rate"] == 1.0

    def test_corrupt_result_is_recomputed_by_the_rerun(self, tmp_path):
        job_dir = str(tmp_path / "jobs")
        tasks = [(f"c{i}", i) for i in range(3)]
        policy = ExecutorPolicy(jobs=1, backoff=0.01, poll=0.02,
                                job_dir=job_dir)
        cold, _ = run_grid(tasks, double, policy, address=address)
        results = os.path.join(job_dir, "results")
        path = os.path.join(results, sorted(os.listdir(results))[0])
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0x20
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        warm, stats = run_grid(tasks, double, policy, address=address)
        # Damage reads as absence: one cell runs again, the rest are
        # served, and the rows are the cold run's.
        assert {k: o.value for k, o in warm.items()} == \
            {k: o.value for k, o in cold.items()}
        assert stats.completed == 1
        assert stats.jobs["cache_hits"] == 2
        assert stats.jobs["quarantined_entries"] == 1
        assert os.listdir(os.path.join(results, QUARANTINE_DIR))

    def test_empty_grid_has_no_hit_rate(self, tmp_path):
        _, stats = run_grid([], double,
                            ExecutorPolicy(jobs=1, job_dir=str(tmp_path)),
                            address=address)
        assert stats.jobs["cache_hit_rate"] is None

    def test_exhausted_retries_quarantine_persists_across_runs(self,
                                                                tmp_path):
        job_dir = str(tmp_path / "jobs")
        outcomes, stats = run_grid(
            [("bad", 1)], boom,
            ExecutorPolicy(jobs=1, retries=1, backoff=0.01, poll=0.02,
                           job_dir=job_dir), address=address)
        assert outcomes["bad"].status == "quarantined"
        assert outcomes["bad"].attempts == 2
        assert "ValueError" in outcomes["bad"].error
        assert stats.quarantined == ["bad"]
        assert stats.store_stats["dead_letter"] == 1
        # A later run reads the store's dead letter, not a fresh budget.
        rerun, rerun_stats = run_grid(
            [("bad", 1)], double,
            ExecutorPolicy(jobs=1, retries=1, backoff=0.01, poll=0.02,
                           job_dir=job_dir), address=address)
        assert rerun["bad"].status == "quarantined"
        assert "ValueError" in rerun["bad"].error
        assert rerun_stats.quarantined == ["bad"]
        assert rerun_stats.completed == 0

    def test_sigkilled_worker_is_reclaimed_by_survivor(self, tmp_path):
        # Satellite drill: two workers, one SIGKILLed mid-cell; the
        # survivor must finish all cells and return the complete set,
        # equal to a fresh single-process run.
        job_dir = str(tmp_path / "jobs")
        ready = str(tmp_path / "victim-ready")
        tasks = [(f"c{i}", i) for i in range(4)]
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_drive_blocking,
                             args=(job_dir, tasks, ready))
        victim.start()
        try:
            deadline = time.monotonic() + 20.0
            leases = os.path.join(job_dir, "leases")
            while time.monotonic() < deadline:
                if os.path.isdir(leases) and any(
                        n.endswith(".json") for n in os.listdir(leases)):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim never claimed a cell")
            os.killpg(victim.pid, signal.SIGKILL)
        finally:
            if victim.is_alive():
                try:
                    os.killpg(victim.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            victim.join(timeout=10.0)

        outcomes, stats = run_grid(
            tasks, double,
            ExecutorPolicy(jobs=2, backoff=0.01, poll=0.02,
                           job_dir=job_dir, lease_ttl=0.4),
            address=address)
        assert {k: o.value for k, o in outcomes.items()} == \
            {f"c{i}": 2 * i for i in range(4)}
        assert all(o.status == "ok" for o in outcomes.values())
        assert stats.reclaimed >= 1  # the victim's lease was stolen
        # The merged result equals a fresh single-process run.
        fresh, _ = run_grid(tasks, double,
                             ExecutorPolicy(jobs=1, backoff=0.01))
        assert {k: o.value for k, o in outcomes.items()} == \
            {k: o.value for k, o in fresh.items()}

    def test_two_cooperating_workers_merge_identically(self, tmp_path):
        job_dir = str(tmp_path / "jobs")
        stats_path = str(tmp_path / "peer.json")
        tasks = [(f"c{i}", i) for i in range(8)]
        ctx = multiprocessing.get_context("fork")
        peer = ctx.Process(target=_drive_and_dump,
                           args=(job_dir, tasks, stats_path))
        peer.start()
        try:
            outcomes, _ = run_grid(
                tasks, double,
                ExecutorPolicy(jobs=2, backoff=0.01, poll=0.02,
                               job_dir=job_dir, lease_ttl=0.4),
            address=address)
        finally:
            peer.join(timeout=30.0)
        assert peer.exitcode == 0
        with open(stats_path) as handle:
            view = json.load(handle)
        expected = {f"c{i}": 2 * i for i in range(8)}
        # Both processes return the COMPLETE merged outcome set,
        # whoever computed each cell.
        assert {k: o.value for k, o in outcomes.items()} == expected
        assert view["values"] == expected
        assert set(view["statuses"].values()) == {"ok"}
