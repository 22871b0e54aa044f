"""Logic simulation: event-driven (interpreted and compiled),
cycle-accurate (scalar and lane-parallel), schedule-replay batching for
de-synchronized fabrics, and waveforms."""

from repro.sim.backends import (
    DEFAULT_BACKEND,
    EVENT_BACKENDS,
    backend_names,
    make_simulator,
)
from repro.sim.compiled import CompiledSimulator
from repro.sim.events import EventQueue
from repro.sim.logic import Value, bits_to_int, int_to_bits, to_char
from repro.sim.simulator import (
    Capture,
    EventSimulator,
    SimStats,
    settle_combinational,
)
from repro.sim.lanes import resolve_lanes
from repro.sim.sync import CycleSimulator, LatchCycleSimulator
from repro.sim.vector import (
    VectorCycleSimulator,
    pack_lanes,
    pack_stimuli,
    unpack_lanes,
)
from repro.sim.vector_async import (
    ScheduleReplaySimulator,
    check_schedule_replayable,
)
from repro.sim.waves import WaveGroup, Waveform, overlap_intervals

__all__ = [
    "EventQueue",
    "Value",
    "bits_to_int",
    "int_to_bits",
    "to_char",
    "Capture",
    "CompiledSimulator",
    "DEFAULT_BACKEND",
    "EVENT_BACKENDS",
    "backend_names",
    "make_simulator",
    "EventSimulator",
    "SimStats",
    "settle_combinational",
    "CycleSimulator",
    "LatchCycleSimulator",
    "resolve_lanes",
    "VectorCycleSimulator",
    "pack_lanes",
    "pack_stimuli",
    "unpack_lanes",
    "ScheduleReplaySimulator",
    "check_schedule_replayable",
    "WaveGroup",
    "Waveform",
    "overlap_intervals",
]
