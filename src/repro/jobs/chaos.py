"""Seeded fault injection for the durable job store.

Robustness claims rot unless the recovery paths actually fire, so the
store takes an optional :class:`ChaosInjector` that mangles its
durable writes on the way down:

* **torn writes** — the serialized entry is truncated at a seeded
  offset, modelling a crash (or full disk) landing mid-``write``;
* **checksum corruption** — one byte of the payload is flipped after
  serialization, modelling silent media corruption;
* **fsync denial** — ``fsync`` raises :class:`OSError`, modelling
  ``EIO``/quota failures on the durability barrier (the store degrades
  to a non-durable write instead of crashing, and counts it).

Stale-lease chaos (a worker frozen by ``SIGSTOP`` or killed by
``SIGKILL``) needs no injector — tests and the CI drill signal real
worker processes and assert the survivors reclaim their leases.

Every injection is seeded (``random.Random(seed)``) so a failing chaos
test replays exactly, counted in the ``jobs.chaos.*`` metrics, and
announced with a tracer instant.  The injector can also be armed across
process boundaries through :data:`CHAOS_ENV`
(``REPRO_JOBS_CHAOS="torn=0.5,corrupt=0.2,fsync=0.1,seed=7"``), which is
how the CI drill reaches the workers of a multi-process campaign.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.utils.errors import JobStoreError

#: Environment knob arming chaos injection in every process that builds
#: a :class:`repro.jobs.store.JobStore` without an explicit injector.
#: Format: comma-separated ``knob=value`` pairs among ``torn``,
#: ``corrupt``, ``fsync`` (probabilities in [0, 1]) and ``seed``.
CHAOS_ENV = "REPRO_JOBS_CHAOS"

_KNOBS = ("torn", "corrupt", "fsync")


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-operation injection probabilities (all default off)."""

    torn: float = 0.0
    corrupt: float = 0.0
    fsync: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _KNOBS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or not 0.0 <= float(value) <= 1.0:
                raise JobStoreError(
                    f"chaos probability {name!r} must be in [0, 1], "
                    f"got {value!r}")

    @property
    def armed(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _KNOBS)


class ChaosInjector:
    """Applies a :class:`ChaosPolicy` to durable-write primitives.

    The store routes every entry serialization through
    :meth:`mangle` and every durability barrier through :meth:`fsync`;
    with the default (all-zero) policy both are exact pass-throughs.
    """

    def __init__(self, policy: ChaosPolicy | None = None):
        self.policy = policy if policy is not None else ChaosPolicy()
        self._rng = random.Random(self.policy.seed)
        self.injected: dict[str, int] = {"torn": 0, "corrupt": 0,
                                         "fsync": 0}

    def _fire(self, kind: str, probability: float) -> bool:
        if probability <= 0.0 or self._rng.random() >= probability:
            return False
        self.injected[kind] += 1
        METRICS.counter(f"jobs.chaos.{kind}").inc()
        TRACER.instant(f"jobs:chaos:{kind}")
        return True

    def mangle(self, data: bytes) -> bytes:
        """The bytes that actually reach the disk for ``data``."""
        if self._fire("torn", self.policy.torn) and len(data) > 1:
            # Keep at least one byte so the torn entry is a non-empty,
            # undecodable file — the hardest shape to detect.
            data = data[: self._rng.randrange(1, len(data))]
        if self._fire("corrupt", self.policy.corrupt) and data:
            index = self._rng.randrange(len(data))
            data = data[:index] + bytes([data[index] ^ 0x20]) \
                + data[index + 1:]
        return data

    def fsync(self, fd: int) -> None:
        """``os.fsync`` unless this injection denies the barrier."""
        if self._fire("fsync", self.policy.fsync):
            raise OSError("chaos: fsync denied")
        os.fsync(fd)


def chaos_from_env() -> ChaosInjector | None:
    """An injector armed by :data:`CHAOS_ENV`, or ``None`` when unset.

    Raises :class:`JobStoreError` on a malformed value — chaos that
    silently fails to arm would make a drill pass vacuously.
    """
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    values: dict[str, float] = {}
    for part in raw.split(","):
        name, sep, value = part.strip().partition("=")
        if not sep or name not in (*_KNOBS, "seed"):
            raise JobStoreError(
                f"{CHAOS_ENV}: expected comma-separated "
                f"torn/corrupt/fsync/seed=value pairs, got {raw!r}")
        try:
            values[name] = float(value)
        except ValueError:
            raise JobStoreError(
                f"{CHAOS_ENV}: {name}={value!r} is not a number") from None
    seed = int(values.pop("seed", 0))
    return ChaosInjector(ChaosPolicy(seed=seed, **values))
