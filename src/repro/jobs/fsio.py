"""Checksummed, atomic, chaos-aware file primitives of ``repro.jobs``.

The job store persists every JSON entry with the same discipline:

* every entry is wrapped in ``{"sha256": <payload digest>, "payload":
  ...}`` so a reader can prove integrity without trusting the bytes;
* writes go to a unique temp file, are flushed and fsynced, then land
  by ``os.replace`` (last-wins, for leases and heartbeats) or
  ``os.link`` (first-wins, for results — the durable-idempotency
  primitive: the second writer gets :data:`EEXIST` instead of silently
  clobbering the first durable result);
* a denied fsync (see :mod:`repro.jobs.chaos`) degrades to a
  non-durable write — counted, never fatal;
* reads that hit a torn or corrupt entry **quarantine** the file (a
  rename into ``quarantine/`` next to the entry, a
  ``jobs.quarantined`` metric bump, a loud stderr line) and report a
  miss, so damage is always repaired by recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

from repro.jobs.chaos import ChaosInjector

#: Subdirectory (sibling of the damaged entry's root) where corrupt
#: entries are moved aside for post-mortem instead of being deleted.
QUARANTINE_DIR = "quarantine"


def payload_digest(payload: object) -> str:
    """Canonical sha256 of a JSON-serializable payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_entry(payload: object) -> bytes:
    """Serialize ``payload`` with its integrity checksum."""
    entry = {"sha256": payload_digest(payload), "payload": payload}
    return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")


def _write_temp(directory: str, data: bytes,
                chaos: ChaosInjector | None) -> str:
    """Write ``data`` (chaos-mangled) to a unique fsynced temp file."""
    temp = os.path.join(
        directory, f".tmp.{os.getpid()}.{id(data) & 0xFFFFFF:x}")
    if chaos is not None:
        data = chaos.mangle(data)
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        os.write(fd, data)
        try:
            if chaos is not None:
                chaos.fsync(fd)
            else:
                os.fsync(fd)
        except OSError:
            # The durability barrier was denied (EIO, quota, chaos).
            # The write itself succeeded: degrade to non-durable rather
            # than failing the task — a crash right now loses only this
            # entry, and a torn leftover is quarantined on read.
            METRICS.counter("jobs.fsync_denied").inc()
    finally:
        os.close(fd)
    return temp


def replace_entry(path: str, payload: object,
                  chaos: ChaosInjector | None = None) -> None:
    """Atomically (re)write ``path``: temp + fsync + ``os.replace``."""
    temp = _write_temp(os.path.dirname(path), encode_entry(payload), chaos)
    os.replace(temp, path)


def publish_entry(path: str, payload: object,
                  chaos: ChaosInjector | None = None) -> bool:
    """First-wins durable publish of ``path``.

    Returns ``True`` when this call created the entry, ``False`` when
    another writer already published one (the duplicate-detection
    signal); the loser's bytes never reach ``path``.
    """
    temp = _write_temp(os.path.dirname(path), encode_entry(payload), chaos)
    try:
        os.link(temp, path)
        return True
    except FileExistsError:
        return False
    finally:
        os.unlink(temp)


def quarantine(path: str, reason: str, metric: str) -> None:
    """Move a damaged entry aside, bump ``metric``, and say so loudly."""
    root = os.path.dirname(path)
    pen = os.path.join(root, QUARANTINE_DIR)
    os.makedirs(pen, exist_ok=True)
    target = os.path.join(
        pen, f"{os.path.basename(path)}.{os.getpid()}")
    index = 0
    while os.path.exists(target):
        index += 1
        target = os.path.join(
            pen, f"{os.path.basename(path)}.{os.getpid()}.{index}")
    try:
        os.replace(path, target)
    except OSError:
        return  # somebody else quarantined (or removed) it first
    METRICS.counter(metric).inc()
    TRACER.instant("jobs:quarantine", path=path, reason=reason)
    print(f"[repro.jobs] QUARANTINED {path}: {reason} -> {target}",
          file=sys.stderr, flush=True)


def read_entry(path: str, metric: str) -> tuple[bool, object]:
    """Read and verify a checksummed entry.

    Returns ``(True, payload)`` on success.  A missing file returns
    ``(False, None)``; a torn, undecodable, or checksum-mismatched
    entry is quarantined (``metric`` counts it) and also returns
    ``(False, None)`` — corruption is indistinguishable from absence to
    the caller, which recomputes either way.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return False, None
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        quarantine(path, f"undecodable entry ({exc})", metric)
        return False, None
    if not isinstance(entry, dict) or set(entry) != {"sha256", "payload"}:
        quarantine(path, "entry is not a checksummed envelope", metric)
        return False, None
    payload = entry["payload"]
    if payload_digest(payload) != entry["sha256"]:
        quarantine(path, "checksum mismatch", metric)
        return False, None
    return True, payload
