"""Per-layer exclusive-time tracing, installed from outside the program.

:func:`install` wraps the public entry point of every layer on the
attribute its callers actually look up (a module-level binding or a
class attribute) and times each call on a shared call stack, so a
layer's *exclusive* time is its calls' wall time minus the time spent in
nested wrapped calls.  Nothing in ``src/`` is edited: a target that a
later change renames or deletes is reported as absent and its metrics
read 0.

The fault campaign runs its cells in a forked worker even at
``jobs=1``.  The wrappers are installed before the pool forks, so the
worker inherits them; a forked process starts its totals from zero and
writes them to ``<dump_dir>/layers-<pid>.json`` after every task, and
the parent merges those files back with :meth:`LayerClock.merge_dumps`.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
from time import perf_counter

#: Process-local counters of ``repro.obs.METRICS`` the per-layer table
#: reads; worker deltas are merged back like the layer totals.
COUNTERS = ("sim.vector.kernel_cache_hits", "sim.vector.kernel_cache_misses",
            "sim.replay.fallbacks")


def _add(counts, key, amount=1):
    counts[key] = counts.get(key, 0) + amount


def _count_seeds(result, exc, counts):
    # A batch returns one report per seed; a single check is one seed,
    # whether it returns a report or raises a stall verdict.
    _add(counts, "equiv.seeds", len(result) if isinstance(result, dict) else 1)


def _count_markings(result, exc, counts):
    if exc is None:
        _add(counts, "model.markings", len(result))


def _count_check(result, exc, counts):
    _add(counts, "model.check.calls")
    if exc is not None and "exceeded" in str(exc):
        _add(counts, "model.check.cap_hits")


def _count_cycle_time(result, exc, counts):
    _add(counts, "model.cycle_time.calls")


#: ``(module, class or None, attribute, layer, count hook)``.  A class
#: target wraps the attribute on that class; ``None`` wraps the
#: module-level binding.  Several bindings of one function (a package
#: re-export, a ``from ... import`` in a caller) are each wrapped, since
#: a call goes through exactly one of them.
TARGETS = (
    ("repro.corpus", None, "generate", "corpus.generate", None),
    ("repro.corpus.registry", None, "generate", "corpus.generate", None),
    ("repro.desync.pipeline", "ClusterPass", "run", "pass.cluster", None),
    ("repro.desync.pipeline", "PartialDesyncPass", "run", "pass.partial",
     None),
    # The sweep picks the partial variant's sync island outside the pass.
    ("repro.desync.pipeline", None, "auto_sync_banks", "pass.partial", None),
    ("repro.desync.pipeline", "MatchedDelayPass", "run",
     "pass.matched-delay", None),
    ("repro.desync.pipeline", "LatchifyPass", "run", "pass.latchify", None),
    ("repro.desync.pipeline", "ControllerNetworkPass", "run",
     "pass.controller-network", None),
    ("repro.desync.pipeline", "BaselineModelPass", "run",
     "pass.baseline-model", None),
    ("repro.stg.stg", "Stg", "check_model", "model.check", _count_check),
    ("repro.petri.net", "PetriNet", "reachable_markings", "model.check",
     _count_markings),
    # The cached ``desync_cycle_time`` methods carry the time; the
    # ``cycle_time`` bindings they call on a cache miss count analyses.
    ("repro.desync.pipeline", "FlowContext", "desync_cycle_time",
     "model.cycle_time", None),
    ("repro.desync.flow", "DesyncResult", "desync_cycle_time",
     "model.cycle_time", None),
    ("repro.desync.pipeline", None, "cycle_time", "model.cycle_time",
     _count_cycle_time),
    ("repro.desync.flow", None, "cycle_time", "model.cycle_time",
     _count_cycle_time),
    ("repro.desync.flow", "DesyncResult", "verify_hold", "hold", None),
    ("repro.equiv", None, "check_flow_equivalence_batch", "equiv.check",
     _count_seeds),
    ("repro.equiv", None, "check_flow_equivalence", "equiv.check",
     _count_seeds),
    ("repro.equiv.flow_equivalence", None, "check_flow_equivalence",
     "equiv.check", _count_seeds),
    ("repro.faults.inject", None, "check_flow_equivalence", "equiv.check",
     _count_seeds),
    ("repro.equiv.flow_equivalence", None, "reference_streams_batch",
     "equiv.reference", None),
    ("repro.equiv.flow_equivalence", None, "replay_simulator",
     "equiv.record", None),
    ("repro.sim.vector_async", "ScheduleReplaySimulator", "replay",
     "equiv.replay", None),
    ("repro.equiv.flow_equivalence", None, "desync_streams",
     "equiv.scalar", None),
    ("repro.faults.campaign", None, "run_detection", "faults.detection",
     None),
)

#: The function the campaign's process pool runs per cell: in a forked
#: worker, the layer totals are written out after each call.
TASK = ("repro.faults.campaign", "_campaign_cell")


def _metric_counters() -> dict[str, float]:
    from repro.obs.metrics import METRICS
    snapshot = METRICS.snapshot()
    return {name: snapshot[name]["value"] for name in COUNTERS
            if name in snapshot}


class LayerClock:
    """Exclusive seconds and event counts per layer, for one process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.origin = os.getpid()
        self.pid = self.origin
        self.absent: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.stack: list[list[float]] = []
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.counter_base = _metric_counters()

    def _own(self) -> None:
        # A forked worker inherits the parent's totals; count its own.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()

    def counters(self) -> dict[str, float]:
        """``COUNTERS`` deltas since this process started counting."""
        now = _metric_counters()
        return {name: now.get(name, 0) - self.counter_base.get(name, 0)
                for name in COUNTERS}

    def timed(self, original, layer: str, count):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._own()
            frame = [0.0]
            self.stack.append(frame)
            start = perf_counter()
            result, error = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                self.seconds[layer] = self.seconds.get(layer, 0.0) \
                    + elapsed - frame[0]
                if self.stack:
                    self.stack[-1][0] += elapsed
                if count is not None:
                    count(result, error, self.counts)
        return wrapper

    def task(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._own()
            try:
                return original(*args, **kwargs)
            finally:
                if self.pid != self.origin:
                    self.dump()
        return wrapper

    def dump(self) -> None:
        """Write this worker's totals (replacing its previous dump)."""
        path = os.path.join(self.dump_dir, f"layers-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({"seconds": self.seconds, "counts": self.counts,
                       "counters": self.counters()}, handle)
        os.replace(path + ".tmp", path)

    def merge_dumps(self) -> tuple[dict[str, float], dict[str, float],
                                   dict[str, float]]:
        """This process's totals plus every worker dump, summed."""
        seconds = dict(self.seconds)
        counts = dict(self.counts)
        counters = self.counters()
        for path in sorted(glob.glob(os.path.join(self.dump_dir,
                                                  "layers-*.json"))):
            with open(path, encoding="utf-8") as handle:
                dumped = json.load(handle)
            for total, part in ((seconds, dumped["seconds"]),
                                (counts, dumped["counts"]),
                                (counters, dumped["counters"])):
                for key, value in part.items():
                    total[key] = total.get(key, 0) + value
        return seconds, counts, counters


def _resolve(module_name: str, owner: str | None):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return module if owner is None else getattr(module, owner, None)


def install(dump_dir: str) -> LayerClock:
    """Wrap every :data:`TARGETS` entry and pool task; returns the clock."""
    clock = LayerClock(dump_dir)
    for module_name, owner, attribute, layer, count in TARGETS:
        target = _resolve(module_name, owner)
        original = vars(target).get(attribute) if target is not None else None
        if not callable(original):
            clock.absent.append(
                f"{module_name}.{owner + '.' if owner else ''}{attribute}")
            continue
        setattr(target, attribute, clock.timed(original, layer, count))
    module = _resolve(TASK[0], None)
    original = vars(module).get(TASK[1]) if module is not None else None
    if callable(original):
        setattr(module, TASK[1], clock.task(original))
    return clock
