"""Lane-width policy for the lane-parallel engines.

The vector and schedule-replay engines pack one stimulus stream per bit
of their lane words, and nothing in the generated kernels caps the
width: the words are arbitrary-precision Python integers.  Width is
therefore a *tuning parameter*, not a structural constant — wider
words amortize the per-statement dispatch overhead that dominates
every tier (an AND over 1024 lanes costs little more to interpret than
one over 64), so at full occupancy the per-stimulus cost keeps
dropping through W=1024 on every measured configuration.  The catch is
that a batch pays for the resolved width whether it fills the word or
not, which is what keeps the default moderate.

:func:`resolve_lanes` is the single resolution point every batch API
defaults to:

1. an explicit ``requested`` width always wins (validated, so the
   ``lanes=0`` error message is uniform across engines);
2. the :data:`LANES_ENV` (``REPRO_LANES``) environment variable
   overrides the policy globally — the knob for sweeps, CI and
   experiments;
3. otherwise the width comes from :data:`TUNING_TABLE`, measured by
   ``benchmarks/bench_width.py`` (the ``BENCH_width`` series) over the
   corpus: per-netlist-size thresholds mapping to the fastest measured
   width.

The table is deliberately coarse — a few size buckets — because the
measured optimum is flat around its peak; re-run the width bench and
update the entries when the kernel codegen changes.
"""

from __future__ import annotations

import os

from repro.utils.errors import SimulationError

#: Environment variable globally overriding the lane-width policy.
LANES_ENV = "REPRO_LANES"

#: Fallback width when no netlist is available to size against: one
#: machine word, the pre-tuning default of the vector engines.
DEFAULT_LANES = 64

#: ``(max_instances, lanes)`` rows, first match wins; ``None`` bounds
#: the catch-all row.  Measured by ``benchmarks/bench_width.py`` (the
#: ``BENCH_width`` series): at full occupancy the bigint engine's
#: per-stimulus cost drops near-linearly with width through W=1024 on
#: every tier (11.6-23.6x over W=64), so pure throughput would say
#: "1024 everywhere".  The table sits at the knee instead because the
#: resolved width is paid by *every* batch: generated statements that
#: touch the all-lanes mask do ``ceil(W / 64)``-limb arithmetic even
#: when only a sweep's 8 seeds occupy the word.  W=256 (4 limbs)
#: captures 3.6-6.7x of the full-occupancy win while capping the
#: partial-batch overhead at 4x of W=64; small netlists (<= 48
#: instances), where per-pass dispatch dominates hardest, get 512.
#: Callers that do fill the word (benches, corpus-wide campaigns)
#: should pass ``lanes=`` or set ``REPRO_LANES`` explicitly.
TUNING_TABLE: tuple[tuple[int | None, int], ...] = (
    (48, 512),
    (None, 256),
)


def resolve_lanes(netlist=None, requested: int | None = None) -> int:
    """The lane width a batch run should use.

    ``requested`` (any explicit ``lanes=`` argument) wins; then the
    :data:`LANES_ENV` environment variable; then the persisted
    :data:`TUNING_TABLE`, bucketed by ``len(netlist)`` (instance
    count).  With no netlist to size against, the table's catch-all row
    — or :data:`DEFAULT_LANES` if the table is empty — applies.
    Raises :class:`SimulationError` for a non-positive or non-integer
    width, wherever it came from.
    """
    if requested is not None:
        return _validated(requested, "lane count")
    raw = os.environ.get(LANES_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise SimulationError(
                f"{LANES_ENV} must be a positive integer, "
                f"got {raw!r}") from None
        return _validated(value, LANES_ENV)
    size = len(netlist) if netlist is not None else None
    for bound, lanes in TUNING_TABLE:
        if bound is None or (size is not None and size <= bound):
            return lanes
    return DEFAULT_LANES


def _validated(lanes: int, what: str) -> int:
    if isinstance(lanes, bool) or not isinstance(lanes, int) or lanes < 1:
        raise SimulationError(f"{what} must be >= 1, got {lanes}")
    return lanes
