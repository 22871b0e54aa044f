"""One grid runner for the sweep and the fault campaign.

:func:`run_grid` runs ``worker(payload)`` for every ``(key, payload)``
cell of a grid and returns one :class:`CellOutcome` per key.  A single
scheduler loop covers every way a grid runs:

* **where cells run** — in the calling process when ``jobs == 1``, no
  timeout is set and no job dir is given (there is then no process to
  kill and no lease to keep renewing while a cell runs); otherwise on a
  fork pool of ``jobs`` workers;
* **per-cell wall-clock timeout** (:data:`CELL_TIMEOUT_ENV`): an expired
  cell's worker processes are killed outright — the only reliable way
  to stop a wedged simulation — the pool is rebuilt, and the innocent
  in-flight cells are resubmitted without being charged an attempt;
* **worker-crash recovery**: a :class:`BrokenProcessPool` (segfault,
  OOM-kill, ``os._exit``) poisons every in-flight future without naming
  the guilty cell, so each in-flight cell is charged one attempt, the
  pool is rebuilt, and the charged cells are retried one at a time
  with nothing else in flight — a second crash then convicts only the
  cell that ran alone, never a bystander;
* **bounded retry with exponential backoff**: a failing cell is rerun
  ``retries`` times, waiting ``backoff * 2**(attempt-1)`` seconds
  before each rerun;
* **quarantine**: a cell that exhausts its retries comes back with
  status ``"quarantined"`` and the last error — reported, never
  silently dropped;
* **durability**: with :attr:`ExecutorPolicy.job_dir` every claim,
  failure and result goes through a shared
  :class:`~repro.jobs.store.JobStore`, which files each cell under its
  content address ``address(key, payload)``.  Processes pointed at the
  same directory cooperate on their cells, a ``SIGKILL``-ed worker's
  leases are reclaimed by survivors, a quarantined cell persists as the
  store's ``dead/`` entry, and a rerun on the same directory — the way
  to resume an interrupted run, or to reuse any cells an earlier run
  with the same inputs finished — executes only the cells that have no
  durable outcome yet.  Without a job dir the same protocol runs
  against an in-memory ledger, so bookkeeping costs no disk I/O and no
  address is computed.

Everything is surfaced: an ``executor:run`` tracer span, ``<prefix>.*``
metric counters, and an :class:`ExecutorStats` summary.  A pool worker
starts with its inherited ``REPRO_TRACE`` file disarmed (it records in
memory when the caller traces) and hands back, beside each value, the
metric-counter deltas and the spans its cell added; the caller folds
them into its own :data:`~repro.obs.metrics.METRICS` and
:data:`~repro.obs.trace.TRACER` (one trace track per worker process),
so a pooled grid reports what an in-process one does.  The job dir
keeps only the value: a cell served from it adds no counters or spans.

While the grid runs, the heap that existed before it is frozen
(:func:`gc.freeze`, unless the caller already froze one), so full
collections during the grid skip the objects created at import, and
forked workers do not touch the parent's pages to collect them.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import time
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable

from repro.jobs.store import Claim, JobStore
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE_ENV, TRACER
from repro.utils.errors import ExecutorError, OptionsError

#: Environment knob: default worker process count of both drivers.
JOBS_ENV = "REPRO_JOBS"

#: Environment knob: per-cell wall-clock budget in seconds.  Unset,
#: empty, or ``<= 0`` means no timeout.
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Environment knob: per-cell retry budget (attempts beyond the first).
CELL_RETRIES_ENV = "REPRO_CELL_RETRIES"

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.25

_STAT_COUNTERS = ("timeouts", "crashes", "retries", "quarantined",
                  "completed", "reclaimed", "duplicates")


def sweep_jobs() -> int:
    """The worker count ``REPRO_JOBS`` requests (>= 1; default 1)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        raise OptionsError(
            "jobs", f"{JOBS_ENV} must be an integer, got {raw!r}") from None


def cell_timeout(default: float | None = None) -> float | None:
    """Per-cell timeout in seconds from :data:`CELL_TIMEOUT_ENV`."""
    raw = os.environ.get(CELL_TIMEOUT_ENV, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ExecutorError(
            f"{CELL_TIMEOUT_ENV}={raw!r} is not a number of seconds"
        ) from None
    return value if value > 0 else None


def cell_retries(default: int = DEFAULT_RETRIES) -> int:
    """Per-cell retry budget from :data:`CELL_RETRIES_ENV`."""
    raw = os.environ.get(CELL_RETRIES_ENV, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ExecutorError(
            f"{CELL_RETRIES_ENV}={raw!r} is not an integer") from None
    if value < 0:
        raise ExecutorError(f"{CELL_RETRIES_ENV} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class ExecutorPolicy:
    """How :func:`run_grid` schedules and retries cells.

    Attributes:
        jobs: worker process count (>= 1).
        timeout: per-cell wall-clock budget in seconds; ``None`` waits
            forever.
        retries: reruns granted to a failing cell before quarantine.
        backoff: base of the exponential retry delay in seconds.
        poll: scheduler wake-up period in seconds (timeout granularity).
        job_dir: shared durable job directory; when set, scheduling goes
            through a :class:`repro.jobs.store.JobStore` and multiple
            processes given the same directory cooperate on the cells
            they share.
        worker_id: stable identity in the job dir (defaults to a
            pid-derived name).
        lease_ttl: seconds a claimed cell may go un-renewed before
            surviving workers reclaim it (defaults to
            :data:`repro.jobs.store.LEASE_TTL_ENV` or 10s).
    """

    jobs: int = 2
    timeout: float | None = None
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    poll: float = 0.05
    job_dir: str | None = None
    worker_id: str | None = None
    lease_ttl: float | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ExecutorError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ExecutorError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ExecutorError(
                f"timeout must be positive seconds or None, "
                f"got {self.timeout}")
        if self.lease_ttl is not None and self.lease_ttl <= 0:
            raise ExecutorError(
                f"lease_ttl must be positive seconds or None, "
                f"got {self.lease_ttl}")

    @property
    def in_process(self) -> bool:
        """Whether cells run in the calling process (no pool)."""
        return self.jobs == 1 and self.timeout is None and not self.job_dir


@dataclass
class CellOutcome:
    """Terminal state of one cell.

    ``status`` is ``"ok"`` (``value`` holds the worker's return) or
    ``"quarantined"`` (``error`` holds the last failure; the cell used
    up every retry, in this run or — with a job dir — in an earlier
    one).  ``attempts`` counts executions charged to the cell, in
    whichever run computed it.
    """

    key: str
    status: str
    value: Any = None
    attempts: int = 1
    error: str | None = None


@dataclass
class ExecutorStats:
    """Aggregate accounting of one :func:`run_grid` invocation."""

    completed: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    quarantined: list[str] = field(default_factory=list)
    #: Job dir: expired leases this worker stole from dead peers.
    reclaimed: int = 0
    #: Job dir: results another worker durably published first.
    duplicates: int = 0
    #: Job dir: the underlying job store's own accounting.
    store_stats: dict[str, int] | None = None
    #: Job dir: the drivers' ``summary["jobs"]`` block — the cells
    #: served from earlier runs and the store accounting.
    jobs: dict[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        view = {"completed": self.completed, "timeouts": self.timeouts,
                "crashes": self.crashes, "retries": self.retries,
                "quarantined": list(self.quarantined),
                "reclaimed": self.reclaimed,
                "duplicates": self.duplicates}
        if self.store_stats is not None:
            view["store"] = dict(self.store_stats)
        return view


class _MemoryLedger:
    """The :class:`JobStore` protocol without a job dir: attempt
    counts in memory, no peers, nothing durable."""

    ttl = float("inf")
    worker = "local"

    def __init__(self) -> None:
        self.failures: dict[str, int] = {}

    def heartbeat(self) -> None:
        pass

    def renew(self, key: str) -> None:
        pass

    def release(self, key: str) -> None:
        pass

    def collect(self, known=None) -> dict:
        return {}

    def claim(self, key: str, retries: int) -> Claim:
        return Claim("acquired", attempt=self.failures.get(key, 0) + 1)

    def fail(self, key: str, error: str, retries: int) -> str:
        self.failures[key] = self.failures.get(key, 0) + 1
        return "retry" if self.failures[key] <= retries else "dead-letter"

    def complete(self, key: str, value: Any, attempt: int) -> bool:
        return True


class _InlinePool:
    """A pool stand-in that runs each submitted cell at once, in the
    calling process."""

    def submit(self, worker: Callable[[Any], Any], payload: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(worker(payload))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


def _pool_init(tracing: bool) -> None:
    """Pool worker set-up: forget the caller's armed trace (its output
    file and ``atexit`` hook are the caller's) and record in memory
    when the caller traces."""
    os.environ.pop(TRACE_ENV, None)
    TRACER.disarm()
    if tracing:
        TRACER.start()


def _counter_values() -> dict[str, int | float]:
    return {name: entry["value"]
            for name, entry in METRICS.snapshot().items()
            if entry["type"] == "counter"}


def _pool_cell(worker: Callable[[Any], Any], payload: Any) -> tuple:
    """Run one cell in a pool worker: ``(value, (pid, counter deltas,
    trace events))`` — the telemetry is what this cell added."""
    before = _counter_values()
    value = worker(payload)
    deltas = {name: total - before.get(name, 0)
              for name, total in _counter_values().items()
              if total != before.get(name, 0)}
    events: list[dict[str, Any]] = []
    if TRACER.enabled:
        events = TRACER.events()
        TRACER.start()  # clear: the next cell reports only its own spans
    return value, (os.getpid(), deltas, events)


def run_grid(tasks: list[tuple[str, Any]],
             worker: Callable[[Any], Any],
             policy: ExecutorPolicy,
             address: Callable[[str, Any], str] | None = None,
             metric_prefix: str = "executor",
             ) -> tuple[dict[str, CellOutcome], ExecutorStats]:
    """Run ``worker(payload)`` for every ``(key, payload)`` cell.

    Returns ``(outcomes, stats)``: one :class:`CellOutcome` per task
    key — every key is present, quarantined cells included — plus the
    aggregate :class:`ExecutorStats`.  ``worker`` must be picklable
    (module-level) and its results JSON-serializable when a job dir is
    in play.  ``address`` maps a cell to its content address — a string
    naming everything the cell's result depends on — and is required
    with a job dir: equal addresses are served from the directory, so
    an address that misses an input serves stale results.
    """
    keys = [key for key, _ in tasks]
    if len(set(keys)) != len(keys):
        raise ExecutorError("duplicate cell keys in task list")
    if policy.job_dir and address is None:
        raise ExecutorError("a job dir needs an address function")
    for name in _STAT_COUNTERS:
        METRICS.counter(f"{metric_prefix}.{name}").inc(0)
    payloads = dict(tasks)
    outcomes: dict[str, CellOutcome] = {}
    stats = ExecutorStats()
    cell = worker if policy.in_process \
        else functools.partial(_pool_cell, worker)
    telemetry: dict[str, tuple] = {}  # key -> pool worker's telemetry

    if policy.job_dir:
        ledger = JobStore(policy.job_dir, worker_id=policy.worker_id,
                          ttl=policy.lease_ttl)
        ledger.bind({key: address(key, payload) for key, payload in tasks})
    else:
        ledger = _MemoryLedger()
    rng = random.Random(ledger.worker)  # jitter stream, seeded per worker

    # Claim order: a failed cell moves to the back, so every cell that
    # has not failed runs before any retry — except the suspects of a
    # pool crash, which rerun first, one at a time and alone, so the
    # untouched cells are never in the pool when a suspect crashes it.
    order = dict.fromkeys(keys)
    contention: dict[str, int] = {}    # key -> consecutive contended claims
    not_before: dict[str, float] = {}  # key -> next local claim attempt
    leased: dict[str, float] = {}      # in-flight key -> last lease renewal
    suspects: dict[str, None] = {}     # charged by a pool break: run alone
    renew_every = max(ledger.ttl / 3.0, policy.poll)
    beat_every = max(min(ledger.ttl / 3.0, 1.0), policy.poll)
    last_beat = float("-inf")

    def quarantine(key: str, attempts: int, error: str | None) -> None:
        outcomes[key] = CellOutcome(key, "quarantined", attempts=attempts,
                                    error=error)
        stats.quarantined.append(key)
        METRICS.counter(f"{metric_prefix}.quarantined").inc()
        TRACER.instant("executor:quarantine", key=key, error=error or "")

    def claim_backoff(key: str) -> None:
        streak = contention.get(key, 0) + 1
        contention[key] = streak
        delay = policy.backoff * (2 ** min(streak - 1, 6))
        delay *= 1.0 + rng.random() * 0.5  # jitter breaks claim lockstep
        # Capped at the TTL so an expired lease is never left unclaimed.
        not_before[key] = time.monotonic() + min(delay, ledger.ttl)

    def charge_failure(key: str, attempt: int, error: str) -> None:
        leased.pop(key, None)
        if ledger.fail(key, error, policy.retries) == "retry":
            stats.retries += 1
            METRICS.counter(f"{metric_prefix}.retries").inc()
            not_before[key] = time.monotonic() \
                + policy.backoff * (2 ** (attempt - 1))
            order[key] = order.pop(key)
        else:
            quarantine(key, attempt, error)

    def publish(key: str, value: Any, attempt: int) -> None:
        leased.pop(key, None)
        outcomes[key] = CellOutcome(key, "ok", value, attempts=attempt)
        if ledger.complete(key, value, attempt):
            stats.completed += 1
            METRICS.counter(f"{metric_prefix}.completed").inc()
        else:
            stats.duplicates += 1
            METRICS.counter(f"{metric_prefix}.duplicates").inc()

    def ingest(durable: dict) -> None:
        for key, outcome in durable.items():
            if outcome.status == "done":
                outcomes[key] = CellOutcome(key, "ok", outcome.value,
                                            attempts=outcome.attempts)
            else:
                quarantine(key, outcome.attempts, outcome.error)

    def settle(future, key: str, attempt: int) -> bool:
        """Record a finished future; ``True`` if the pool broke."""
        try:
            value = future.result()
        except BrokenProcessPool:
            charge_failure(key, attempt, "worker process crashed")
            return True
        except Exception as exc:  # worker raised: a real error
            charge_failure(key, attempt, f"{type(exc).__name__}: {exc}")
        else:
            if not policy.in_process:
                value, telemetry[key] = value
            publish(key, value, attempt)
        return False

    def make_pool():
        if policy.in_process:
            return _InlinePool()
        return ProcessPoolExecutor(
            max_workers=policy.jobs, mp_context=get_context("fork"),
            initializer=_pool_init, initargs=(TRACER.enabled,))

    ingest(ledger.collect())
    served = sum(outcome.status == "ok" for outcome in outcomes.values())
    with _frozen_heap(), \
            TRACER.span("executor:run", cells=len(tasks), jobs=policy.jobs,
                        worker=ledger.worker, in_process=policy.in_process,
                        timeout=policy.timeout or 0.0):
        pool = make_pool()
        # future -> (key, attempt, wall-clock deadline or None)
        inflight: dict[Any, tuple[str, int, float | None]] = {}
        try:
            while len(outcomes) < len(keys):
                now = time.monotonic()
                if now - last_beat >= beat_every:
                    ledger.heartbeat()
                    last_beat = now
                ingest(ledger.collect(known=outcomes))
                for key, renewed in list(leased.items()):
                    if now - renewed >= renew_every:
                        ledger.renew(key)
                        leased[key] = now
                for key in [key for key in suspects if key in outcomes]:
                    del suspects[key]
                for key in suspects or order:
                    if len(inflight) >= (1 if suspects else policy.jobs):
                        break
                    if key in outcomes or key in leased \
                            or not_before.get(key, 0.0) > now:
                        continue
                    claim = ledger.claim(key, policy.retries)
                    if claim.state == "held":
                        claim_backoff(key)
                        continue
                    if claim.state != "acquired":
                        continue  # done/dead: collected on the next pass
                    contention.pop(key, None)
                    if claim.reclaimed:
                        stats.reclaimed += 1
                        METRICS.counter(f"{metric_prefix}.reclaimed").inc()
                        TRACER.instant("executor:reclaim", key=key,
                                       attempt=claim.attempt)
                    try:
                        future = pool.submit(cell, payloads[key])
                    except BrokenProcessPool:
                        # Pool already poisoned by an earlier crash that
                        # surfaced out of order: rebuild and resubmit.
                        ledger.release(key)
                        pool = make_pool()
                        break
                    deadline = (now + policy.timeout
                                if policy.timeout is not None else None)
                    inflight[future] = (key, claim.attempt, deadline)
                    leased[key] = now
                if not inflight:
                    time.sleep(policy.poll)
                    continue

                done, _ = wait(set(inflight), timeout=policy.poll,
                               return_when=FIRST_COMPLETED)
                broken = []
                for future in done:
                    key, attempt, _ = inflight.pop(future)
                    if settle(future, key, attempt):
                        broken.append(key)
                if broken:
                    # The pool is poisoned and the guilty cell cannot be
                    # told apart from the bystanders, so every in-flight
                    # cell is charged one attempt and becomes a suspect:
                    # suspects rerun one at a time, alone.
                    stats.crashes += 1
                    METRICS.counter(f"{metric_prefix}.crashes").inc()
                    TRACER.instant("executor:pool-crash",
                                   inflight=len(inflight))
                    for key, attempt, _ in inflight.values():
                        charge_failure(key, attempt,
                                       "worker process crashed (pool broken)")
                        broken.append(key)
                    suspects.update(dict.fromkeys(broken))
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = make_pool()
                    continue

                now = time.monotonic()
                expired = [future
                           for future, (_, _, deadline) in inflight.items()
                           if deadline is not None and now > deadline
                           and not future.done()]
                if expired:
                    # Killing the workers is the only way to stop a
                    # wedged cell, and it takes the whole pool with it:
                    # charge only the expired cells, release the
                    # bystanders attempt-intact for a fresh pool.
                    for future in expired:
                        key, attempt, _ = inflight.pop(future)
                        stats.timeouts += 1
                        METRICS.counter(f"{metric_prefix}.timeouts").inc()
                        TRACER.instant("executor:timeout", key=key,
                                       attempt=attempt)
                        charge_failure(key, attempt,
                                       f"timed out after {policy.timeout:.3g}s"
                                       f" (attempt {attempt})")
                    for future, (key, attempt, _) in inflight.items():
                        if future.done():  # completed in the race window
                            settle(future, key, attempt)
                        else:
                            leased.pop(key)
                            ledger.release(key)
                    inflight.clear()
                    _kill_workers(pool)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = make_pool()
        finally:
            _drain_pool(pool, inflight)

    tracks: dict[int, int] = {}
    for key in keys:
        if key not in telemetry:
            continue
        pid, deltas, events = telemetry[key]
        for name, delta in sorted(deltas.items()):
            METRICS.counter(name).inc(delta)
        if events:
            # One trace track per worker process, labelled in task order
            # of first appearance (this process records as pid 1).
            track = tracks.setdefault(pid, len(tracks) + 2)
            TRACER.ingest(events, pid=track)
    if policy.job_dir:
        stats.store_stats = ledger.stats.as_dict()
        stats.jobs = {
            "cache_hits": served,
            "cache_misses": len(keys) - served,
            "cache_hit_rate": served / len(keys) if keys else None,
            "reclaimed": stats.reclaimed,
            "duplicates": stats.duplicates,
            "dead_letter": len(stats.quarantined),
            "quarantined_entries": stats.store_stats["quarantined"],
        }
    return outcomes, stats


@contextmanager
def _frozen_heap():
    """Freeze the current heap for the block, unless already frozen.

    A caller's own :func:`gc.freeze` is left alone; otherwise the heap
    is collected, frozen, and unfrozen on the way out (exceptions
    included).
    """
    froze = gc.get_freeze_count() == 0
    if froze:
        gc.collect()
        gc.freeze()
    try:
        yield
    finally:
        if froze:
            gc.unfreeze()


def _kill_workers(pool) -> None:
    for process in list(pool._processes.values()):
        process.kill()


def _drain_pool(pool, inflight: dict) -> None:
    """Tear a pool down deterministically before returning.

    ``shutdown(wait=False)`` leaves the executor's management thread
    running, and joining it lazily at interpreter exit races the
    worker-wakeup handshake — a forked campaign driver can hang forever
    in ``concurrent.futures``' atexit hook.  Joining here, while the
    process is fully alive, is race-free.  Cells still running (their
    results are already durable elsewhere, or the caller is unwinding
    an error) get their workers killed rather than waited out.
    """
    if any(not future.done() for future in inflight):
        _kill_workers(pool)
    pool.shutdown(wait=True, cancel_futures=True)
