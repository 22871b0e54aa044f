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
defaults to: an explicit ``requested`` width always wins (validated, so
the ``lanes=0`` error message is uniform across engines); otherwise the
width comes from :data:`TUNING_TABLE`, measured by
``benchmarks/bench_width.py`` (the ``BENCH_width`` series) over the
corpus: per-netlist-size thresholds mapping to the fastest measured
width.

The table is deliberately coarse — a few size buckets — because the
measured optimum is flat around its peak; re-run the width bench and
update the entries when the kernel codegen changes.
"""

from __future__ import annotations

from repro.utils.errors import SimulationError

#: ``(max_instances, lanes)`` rows, first match wins; the last row's
#: ``None`` bound is the catch-all.  Measured by
#: ``benchmarks/bench_width.py`` (the ``BENCH_width`` series): at full
#: occupancy the bigint engine's per-stimulus cost drops near-linearly
#: with width through W=1024 on every tier (11.6-23.6x over W=64), so
#: pure throughput would say "1024 everywhere".  The table sits at the
#: knee instead because the resolved width is paid by *every* batch:
#: generated statements that touch the all-lanes mask do
#: ``ceil(W / 64)``-limb arithmetic even when only a sweep's 8 seeds
#: occupy the word.  W=256 (4 limbs) captures 3.6-6.7x of the
#: full-occupancy win while capping the partial-batch overhead at 4x of
#: W=64; small netlists (<= 48 instances), where per-pass dispatch
#: dominates hardest, get 512.  Callers that do fill the word (benches,
#: corpus-wide campaigns) should pass ``lanes=`` explicitly.
TUNING_TABLE: tuple[tuple[int | None, int], ...] = (
    (48, 512),
    (None, 256),
)


def resolve_lanes(netlist, requested: int | None = None) -> int:
    """The lane width a batch run on ``netlist`` should use.

    ``requested`` (any explicit ``lanes=`` argument) wins; otherwise the
    :data:`TUNING_TABLE` row that buckets ``len(netlist)`` (instance
    count).  Raises :class:`SimulationError` for a non-positive or
    non-integer ``requested`` width.
    """
    if requested is not None:
        return _validated(requested, "lane count")
    size = len(netlist)
    return next(lanes for bound, lanes in TUNING_TABLE
                if bound is None or size <= bound)


def _validated(lanes: int, what: str) -> int:
    if isinstance(lanes, bool) or not isinstance(lanes, int) or lanes < 1:
        raise SimulationError(f"{what} must be >= 1, got {lanes}")
    return lanes
