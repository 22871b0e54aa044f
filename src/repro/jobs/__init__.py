"""The grid runner, its durable job store and chaos harness.

:func:`run_grid` (:mod:`repro.jobs.grid`) is the one scheduler both the
sweep and the fault campaign run their cells on: in process or on a
fork pool, with per-cell timeouts, crash recovery, bounded retries and
quarantine.  Given a *job directory* it becomes a restartable
multi-process work fabric: the directory files each cell under its
content address, several independent OS processes pointed at it
cooperate on their cells, crashed or frozen workers have their leases
reclaimed by survivors, results are published first-wins (duplicates
detected and counted, never clobbered), and a rerun on the same
directory serves every cell an earlier run with the same inputs
finished — which both resumes an interrupted run and reuses one that
completed.  A seeded chaos harness (:mod:`repro.jobs.chaos`) injects
torn writes, checksum corruption and fsync denial so the recovery
paths stay honest.
"""

from repro.jobs.chaos import (CHAOS_ENV, ChaosInjector, ChaosPolicy,
                              chaos_from_env)
from repro.jobs.fsio import (QUARANTINE_DIR, encode_entry, payload_digest,
                             publish_entry, quarantine, read_entry,
                             replace_entry)
from repro.jobs.grid import (CELL_RETRIES_ENV, CELL_TIMEOUT_ENV, JOBS_ENV,
                             CellOutcome, ExecutorPolicy, ExecutorStats,
                             cell_retries, cell_timeout, run_grid, sweep_jobs)
from repro.jobs.store import (DEFAULT_LEASE_TTL, JOB_DIR_ENV, LEASE_TTL_ENV,
                              Claim, JobStore, StoreOutcome, StoreStats,
                              default_job_dir, lease_ttl)
from repro.utils.errors import JobStoreError

__all__ = [
    "CELL_RETRIES_ENV",
    "CELL_TIMEOUT_ENV",
    "CHAOS_ENV",
    "CellOutcome",
    "Claim",
    "ChaosInjector",
    "ChaosPolicy",
    "DEFAULT_LEASE_TTL",
    "ExecutorPolicy",
    "ExecutorStats",
    "JOBS_ENV",
    "JOB_DIR_ENV",
    "JobStore",
    "JobStoreError",
    "LEASE_TTL_ENV",
    "QUARANTINE_DIR",
    "StoreOutcome",
    "StoreStats",
    "cell_retries",
    "cell_timeout",
    "chaos_from_env",
    "default_job_dir",
    "encode_entry",
    "lease_ttl",
    "payload_digest",
    "publish_entry",
    "quarantine",
    "read_entry",
    "replace_entry",
    "run_grid",
    "sweep_jobs",
]
