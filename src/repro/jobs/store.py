"""Durable, file-backed job store with lease-based task claiming.

A *job directory* is the shared coordination point that lets multiple
independent OS processes — started at different times, on different
shells, surviving each other's crashes — cooperate on a grid of cells.
A cell is identified by its **content address** (the caller's digest
of everything its result depends on), never by its task name: every
file of a cell is named ``sha256(epoch | address)``.  So a rerun with
the same inputs is served from the directory, a run whose inputs
changed computes afresh, and two different task lists sharing one
directory share exactly the cells they have in common.

``journal.jsonl``
    the append-only event journal (claim, reclaim, fail, complete,
    duplicate, dead-letter, release), each event naming the cell's task
    key and address — the audit trail of every run on the directory;
``leases/<h>.json``
    one lease per in-flight cell: worker id, attempt, wall-clock expiry.
    Claims are serialized per cell by an ``flock`` on ``locks/<h>.lock``
    (held only for the claim transition, *not* for the run — a frozen
    worker must be reclaimable, and ``SIGSTOP`` never releases a flock);
``hearts/<worker>.json``
    per-worker heartbeat, renewed every scheduler poll.  A lease is
    reclaimed only when it is past its TTL **plus a clock-skew slack**
    *and* its worker's heartbeat is stale — so a worker whose clock
    runs ahead is not robbed while it is demonstrably alive;
``results/<h>.json`` / ``dead/<h>.json``
    checksummed durable outcomes, published first-wins via ``os.link``:
    when two workers race the same cell (a too-eager reclaim), the
    first durable result wins and the loser is counted as a duplicate —
    never an error, never a clobber;
``meta/<h>.json``
    per-cell failure count; a cell that exhausts its retry budget
    *across workers* lands in the dead-letter state.

Corrupt or torn entries anywhere (a crash mid-write, bit rot, chaos
injection) are quarantined and recomputed — see :mod:`repro.jobs.fsio`.
Accounting lands in the ``jobs.store.*`` metrics and tracer instants.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

from repro.jobs.chaos import ChaosInjector, chaos_from_env
from repro.jobs.fsio import publish_entry, read_entry, replace_entry
from repro.utils.errors import JobStoreError

#: Environment knob: default job directory for the durable executor
#: mode (campaigns and sweeps pick it up when no explicit ``job_dir``
#: is passed).
JOB_DIR_ENV = "REPRO_JOB_DIR"

#: Environment knob: lease TTL in seconds (how long a claimed cell may
#: go un-renewed before survivors may reclaim it).
LEASE_TTL_ENV = "REPRO_LEASE_TTL"

DEFAULT_LEASE_TTL = 10.0

#: Version salt of every cell's file name.  Bump it when a cell's
#: result changes shape, so no older directory can ever be misread.
STORE_EPOCH = "repro-jobs/5"

_SUBDIRS = ("leases", "locks", "meta", "results", "dead", "hearts")

_STORE_COUNTERS = ("claims", "contended", "reclaimed", "completed",
                   "duplicates", "failures", "dead_letter")


def default_job_dir() -> str | None:
    """The job directory :data:`JOB_DIR_ENV` requests, or ``None``."""
    raw = os.environ.get(JOB_DIR_ENV, "").strip()
    return raw or None


def lease_ttl(default: float = DEFAULT_LEASE_TTL) -> float:
    """Lease TTL in seconds from :data:`LEASE_TTL_ENV`."""
    raw = os.environ.get(LEASE_TTL_ENV, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise JobStoreError(
            f"{LEASE_TTL_ENV}={raw!r} is not a number of seconds"
        ) from None
    if value <= 0:
        raise JobStoreError(
            f"{LEASE_TTL_ENV} must be positive seconds, got {raw!r}")
    return value


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _cell_hash(address: str) -> str:
    material = f"{STORE_EPOCH}|{address}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class Claim:
    """Outcome of one :meth:`JobStore.claim` attempt.

    ``state`` is ``"acquired"`` (this worker owns the lease; run the
    cell at ``attempt``), ``"held"`` (a live worker owns it),
    ``"done"``/``"dead"`` (a durable outcome already exists).
    ``reclaimed`` marks an acquisition that stole an expired lease from
    a dead or frozen worker.
    """

    state: str
    attempt: int = 0
    reclaimed: bool = False
    holder: str | None = None


@dataclass(frozen=True)
class StoreOutcome:
    """One durable outcome read back from the store."""

    key: str
    status: str  # "done" or "dead-letter"
    value: object = None
    attempts: int = 1
    worker: str | None = None
    error: str | None = None


@dataclass
class StoreStats:
    """Per-instance accounting (metrics are process-global)."""

    claims: int = 0
    contended: int = 0
    reclaimed: int = 0
    completed: int = 0
    duplicates: int = 0
    failures: int = 0
    dead_letter: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name)
                for name in (*_STORE_COUNTERS, "quarantined")}


class JobStore:
    """One worker's handle on a shared durable job directory."""

    def __init__(self, root: str, worker_id: str | None = None,
                 ttl: float | None = None, skew: float | None = None,
                 chaos: ChaosInjector | None = None):
        if not root:
            raise JobStoreError("JobStore needs a job directory path")
        self.root = root
        self.worker = _safe_name(
            worker_id if worker_id
            else f"w{os.getpid()}-{os.urandom(2).hex()}")
        self.ttl = ttl if ttl is not None else lease_ttl()
        if self.ttl <= 0:
            raise JobStoreError(f"lease TTL must be positive, got {self.ttl}")
        #: Clock-skew slack added to every expiry comparison: another
        #: worker's wall clock may disagree with ours by this much
        #: without a live lease being stolen.
        self.skew = skew if skew is not None else self.ttl / 4.0
        if self.skew < 0:
            raise JobStoreError(f"clock-skew slack must be >= 0, "
                                f"got {self.skew}")
        self.chaos = chaos if chaos is not None else chaos_from_env()
        self.stats = StoreStats()
        self._address: dict[str, str] = {}
        self._hash_of: dict[str, str] = {}
        self._key_of: dict[str, str] = {}
        os.makedirs(root, exist_ok=True)
        for sub in _SUBDIRS:
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    # -- small path helpers -------------------------------------------

    def _path(self, sub: str, h: str) -> str:
        return os.path.join(self.root, sub, f"{h}.json")

    def _count(self, name: str) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        METRICS.counter(f"jobs.store.{name}").inc()

    @contextmanager
    def _key_lock(self, h: str):
        """Serialize one key's lease transitions across processes."""
        path = os.path.join(self.root, "locks", f"{h}.lock")
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _read(self, sub: str, h: str) -> tuple[bool, object]:
        before = METRICS.counter("jobs.store.quarantined").value
        ok, payload = read_entry(self._path(sub, h),
                                 "jobs.store.quarantined")
        after = METRICS.counter("jobs.store.quarantined").value
        self.stats.quarantined += int(after - before)
        return ok, payload

    # -- journal ------------------------------------------------------

    def journal(self, event: str, key: str | None = None, **extra) -> None:
        """Append one event line to the journal (best-effort durable)."""
        record = {"t": round(time.time(), 3), "worker": self.worker,
                  "event": event}
        if key is not None:
            record.update(key=key, address=self._address[key])
        record.update(extra)
        path = os.path.join(self.root, "journal.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            # A worker killed mid-append leaves a torn line with no
            # newline; start on a fresh line so the tear stays confined
            # to its own (skipped) line instead of eating this record.
            if handle.tell() > 0:
                with open(path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    if tail.read(1) != b"\n":
                        handle.write("\n")
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:
                METRICS.counter("jobs.fsync_denied").inc()

    def read_journal(self) -> list[dict]:
        """Every decodable journal event (torn lines are skipped)."""
        path = os.path.join(self.root, "journal.jsonl")
        events: list[dict] = []
        if not os.path.exists(path):
            return events
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn append: tolerated, not trusted
                if isinstance(entry, dict):
                    events.append(entry)
        return events

    # -- cell identity ----------------------------------------------

    def bind(self, addresses: dict[str, str]) -> None:
        """Name this run's cells: ``addresses`` maps each task key to
        its content address.  Nothing is written; the cells of other
        runs in the directory stay where they are."""
        hashes = {key: _cell_hash(address)
                  for key, address in addresses.items()}
        if len(set(hashes.values())) != len(hashes):
            raise JobStoreError("two task keys share one content address")
        self._address = dict(addresses)
        self._hash_of = hashes
        self._key_of = {h: key for key, h in hashes.items()}

    # -- heartbeat / liveness -----------------------------------------

    def heartbeat(self) -> None:
        """Renew this worker's liveness marker (call every poll)."""
        replace_entry(
            os.path.join(self.root, "hearts", f"{self.worker}.json"),
            {"worker": self.worker, "time": time.time()},
            chaos=self.chaos)

    def _worker_alive(self, worker: str, now: float) -> bool:
        ok, beat = read_entry(
            os.path.join(self.root, "hearts",
                         f"{_safe_name(worker)}.json"),
            "jobs.store.quarantined")
        if not ok or not isinstance(beat, dict):
            return False
        return now <= float(beat.get("time", 0.0)) + self.ttl + self.skew

    def _lease_expired(self, lease: dict, now: float) -> bool:
        if now <= float(lease.get("expires", 0.0)) + self.skew:
            return False
        # Past TTL + slack: only steal from a provably silent worker —
        # a live heartbeat means a skewed clock, not a dead process.
        return not self._worker_alive(str(lease.get("worker", "")), now)

    # -- the lease protocol -------------------------------------------

    def claim(self, key: str, retries: int) -> Claim:
        """Try to acquire ``key`` for execution."""
        h = self._hash_of[key]
        if os.path.exists(self._path("results", h)):
            return Claim("done")
        if os.path.exists(self._path("dead", h)):
            return Claim("dead")
        now = time.time()
        with self._key_lock(h):
            ok, meta = self._read("meta", h)
            failures = int(meta.get("failures", 0)) \
                if ok and isinstance(meta, dict) else 0
            if failures > retries:
                # A previous owner exhausted the budget but died before
                # publishing the dead letter: finish the paperwork.
                self._dead_letter_locked(
                    key, h, failures,
                    (meta or {}).get("last_error", "retries exhausted"))
                return Claim("dead")
            reclaimed = False
            ok, lease = self._read("leases", h)
            if ok and isinstance(lease, dict):
                holder = str(lease.get("worker", ""))
                if not self._lease_expired(lease, now):
                    self._count("contended")
                    return Claim("held", holder=holder)
                reclaimed = True
            attempt = failures + 1
            replace_entry(self._path("leases", h),
                          {"key": key, "worker": self.worker,
                           "attempt": attempt, "acquired": now,
                           "expires": now + self.ttl},
                          chaos=self.chaos)
            self._count("claims")
            if reclaimed:
                self._count("reclaimed")
                TRACER.instant("jobs:reclaim", key=key)
                self.journal("reclaim", key, holder=holder)
            self.journal("claim", key, attempt=attempt)
            return Claim("acquired", attempt=attempt, reclaimed=reclaimed)

    def renew(self, key: str) -> bool:
        """Extend this worker's lease on ``key``; ``False`` if lost."""
        h = self._hash_of[key]
        now = time.time()
        with self._key_lock(h):
            ok, lease = self._read("leases", h)
            if not ok or not isinstance(lease, dict) \
                    or lease.get("worker") != self.worker:
                return False
            lease["expires"] = now + self.ttl
            replace_entry(self._path("leases", h), lease,
                          chaos=self.chaos)
            return True

    def release(self, key: str) -> None:
        """Drop this worker's lease without charging an attempt
        (bystander requeue after a local pool rebuild)."""
        h = self._hash_of[key]
        with self._key_lock(h):
            ok, lease = self._read("leases", h)
            if ok and isinstance(lease, dict) \
                    and lease.get("worker") == self.worker:
                os.unlink(self._path("leases", h))
                self.journal("release", key)

    def fail(self, key: str, error: str, retries: int) -> str:
        """Charge a failed execution; returns ``"retry"`` or
        ``"dead-letter"`` (the cell exhausted its cross-worker budget)."""
        h = self._hash_of[key]
        with self._key_lock(h):
            ok, meta = self._read("meta", h)
            failures = (int(meta.get("failures", 0))
                        if ok and isinstance(meta, dict) else 0) + 1
            replace_entry(self._path("meta", h),
                          {"key": key, "failures": failures,
                           "last_error": error[:300]},
                          chaos=self.chaos)
            self._count("failures")
            lease_path = self._path("leases", h)
            ok, lease = self._read("leases", h)
            if ok and isinstance(lease, dict) \
                    and lease.get("worker") == self.worker:
                os.unlink(lease_path)
            if failures > retries:
                self._dead_letter_locked(key, h, failures, error)
                return "dead-letter"
            self.journal("fail", key, attempt=failures, error=error[:160])
            return "retry"

    def _dead_letter_locked(self, key: str, h: str, attempts: int,
                            error: str) -> None:
        if publish_entry(self._path("dead", h),
                         {"key": key, "error": str(error)[:300],
                          "attempts": attempts, "worker": self.worker},
                         chaos=self.chaos):
            self._count("dead_letter")
            TRACER.instant("jobs:dead-letter", key=key, error=str(error))
            self.journal("dead-letter", key, attempts=attempts,
                         error=str(error)[:160])

    def complete(self, key: str, value: object, attempt: int) -> bool:
        """Durably publish ``key``'s result (first result wins).

        Returns ``True`` when this worker's result is the durable one;
        ``False`` when another worker beat us to it (counted as a
        duplicate — the values are equal by purity, so nothing is
        lost).  Either way this worker's lease is dropped.
        """
        h = self._hash_of[key]
        created = publish_entry(self._path("results", h),
                                {"key": key, "value": value,
                                 "attempts": attempt,
                                 "worker": self.worker},
                                chaos=self.chaos)
        if created:
            self._count("completed")
            self.journal("complete", key, attempt=attempt)
        else:
            self._count("duplicates")
            TRACER.instant("jobs:duplicate", key=key)
            self.journal("duplicate", key, attempt=attempt)
        with self._key_lock(h):
            ok, lease = self._read("leases", h)
            if ok and isinstance(lease, dict) \
                    and lease.get("worker") == self.worker:
                os.unlink(self._path("leases", h))
        return created

    # -- reading outcomes back ----------------------------------------

    def collect(self, known: set[str] | None = None
                ) -> dict[str, StoreOutcome]:
        """Durable outcomes not yet in ``known``, verified on read.

        A corrupt result entry is quarantined and simply *absent* from
        the returned map — the cell shows up as claimable again and is
        recomputed, which is the whole graceful-degradation story.
        """
        known = known or set()
        found: dict[str, StoreOutcome] = {}
        for sub, status in (("results", "done"), ("dead", "dead-letter")):
            directory = os.path.join(self.root, sub)
            for name in os.listdir(directory):
                if not name.endswith(".json"):
                    continue
                h = name[:-5]
                key = self._key_of.get(h)
                if key is None or key in known or key in found:
                    continue
                ok, payload = self._read(sub, h)
                if not ok or not isinstance(payload, dict):
                    continue
                if status == "done":
                    found[key] = StoreOutcome(
                        key=key, status="done",
                        value=payload.get("value"),
                        attempts=int(payload.get("attempts", 1)),
                        worker=payload.get("worker"))
                else:
                    found[key] = StoreOutcome(
                        key=key, status="dead-letter",
                        attempts=int(payload.get("attempts", 1)),
                        worker=payload.get("worker"),
                        error=payload.get("error"))
        return found
