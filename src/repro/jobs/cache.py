"""Content-addressed result cache with memory and on-disk tiers.

The ``DESYNC_PINS`` sha256 tests prove the de-synchronization flow is a
pure function of ``(netlist fingerprint, options)``, which makes every
campaign and sweep cell re-runnable from a cache keyed by

    sha256(cache epoch | netlist fingerprint | options digest | kind)

where *kind* names the computation (campaign cell, sweep config, ...).
:class:`ResultCache` keeps a process-local memory tier in front of a
shared on-disk tier laid out as ``root/<k[:2]>/<k>.json``.  Disk
entries are checksummed envelopes written atomically (temp + fsync +
rename, see :mod:`repro.jobs.fsio`), and every read re-verifies the
checksum: a torn or corrupt entry is **quarantined** — moved aside,
``jobs.cache.quarantined`` bumped, a loud stderr line — and reported as
a miss, so damage costs one recomputation, never a wrong answer and
never a crash.

Accounting lands in the ``jobs.cache.*`` metrics (hits split by tier,
misses, writes, quarantined) and each instance's :meth:`stats`.
"""

from __future__ import annotations

import hashlib
import os

from repro.obs.metrics import METRICS

from repro.jobs.chaos import ChaosInjector, chaos_from_env
from repro.jobs.fsio import publish_entry, read_entry
from repro.utils.errors import JobStoreError

#: Version salt of the cache key derivation.  Bump to invalidate every
#: entry at once when the cached computation changes shape.
CACHE_EPOCH = "repro-jobs/3"

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()

_COUNTERS = ("hits_memory", "hits_disk", "misses", "writes",
             "quarantined", "duplicates")


def cache_key(fingerprint: str, options_digest: str, kind: str) -> str:
    """The content address of one cacheable computation."""
    material = "\n".join((CACHE_EPOCH, fingerprint, options_digest, kind))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-tier (memory + disk) content-addressed result store."""

    def __init__(self, root: str, chaos: ChaosInjector | None = None):
        if not root:
            raise JobStoreError("ResultCache needs a root directory path")
        self.root = root
        self.chaos = chaos if chaos is not None else chaos_from_env()
        self._memory: dict[str, object] = {}
        self._stats = dict.fromkeys(_COUNTERS, 0)
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _count(self, name: str, quiet: bool = False) -> None:
        self._stats[name] += 1
        if not quiet:
            METRICS.counter(f"jobs.cache.{name}").inc()

    def get(self, key: str) -> object:
        """The cached value for ``key``, or :data:`MISS`.

        Memory first, then disk (a disk hit is promoted into the memory
        tier).  A damaged disk entry is quarantined and reported as a
        miss.
        """
        if key in self._memory:
            self._count("hits_memory")
            return self._memory[key]
        path = self._path(key)
        before = METRICS.counter("jobs.cache.quarantined").value
        ok, payload = read_entry(path, "jobs.cache.quarantined")
        if not ok:
            if METRICS.counter("jobs.cache.quarantined").value > before:
                self._count("quarantined", quiet=True)  # fsio counted it
            self._count("misses")
            return MISS
        self._memory[key] = payload
        self._count("hits_disk")
        return payload

    def put(self, key: str, value: object) -> None:
        """Durably store ``value`` (must be JSON-serializable).

        First durable write wins; a concurrent writer's identical entry
        is counted as a duplicate, not an error.  Either way the memory
        tier is populated.
        """
        self._memory[key] = value
        directory = os.path.join(self.root, key[:2])
        os.makedirs(directory, exist_ok=True)
        if publish_entry(self._path(key), value, chaos=self.chaos):
            self._count("writes")
        else:
            self._count("duplicates")

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not MISS

    def stats(self) -> dict[str, int]:
        """This instance's accounting (the metrics are process-global)."""
        view = dict(self._stats)
        view["hits"] = view["hits_memory"] + view["hits_disk"]
        return view

    def hit_rate(self) -> float | None:
        """Hits over lookups for this instance; ``None`` before any."""
        stats = self.stats()
        lookups = stats["hits"] + stats["misses"]
        if not lookups:
            return None
        return stats["hits"] / lookups
