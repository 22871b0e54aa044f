"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (bad connection, duplicate name...)."""


class CellError(NetlistError):
    """Unknown cell or illegal use of a cell from the library."""


class VerilogError(ReproError):
    """Problem lexing, parsing or elaborating structural Verilog."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class CorpusError(ReproError):
    """Invalid corpus configuration (unknown generator, bad parameters...)."""


class PetriError(ReproError):
    """Malformed Petri net or illegal firing."""


class NotAMarkedGraphError(PetriError):
    """The Petri net violates the marked-graph structural restriction."""


class StgError(ReproError):
    """Malformed signal transition graph (inconsistency, bad label...)."""


class TimingError(ReproError):
    """Static timing analysis failure (combinational cycle, no paths...)."""


class DesyncError(ReproError):
    """De-synchronization flow failure."""


class OptionsError(DesyncError):
    """Invalid flow configuration, located at the offending option field.

    ``field`` names the :class:`repro.desync.flow.DesyncOptions` attribute
    (or pipeline-variant key) that failed validation, so sweep drivers can
    report which knob of a generated grid was out of range.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"option {field!r}: {message}")
        self.field = field


class DifferentialError(ReproError):
    """Differential-testing failure or harness misuse."""


class SimulationError(ReproError):
    """Logic simulation failure (unresolved X on a latch control, ...)."""


class FlowEquivalenceError(ReproError):
    """The de-synchronized circuit diverged from the synchronous one."""


class ExecutorError(ReproError):
    """Resilient-executor misuse or unrecoverable scheduling failure."""


class JobStoreError(ReproError):
    """Durable job-store misuse or an unrecoverable job-dir state.

    Recoverable damage — a torn or corrupt result entry, a stale lease —
    is *never* raised: it is quarantined, counted and repaired by
    recomputation.  This error marks misuse and settings that cannot be
    repaired automatically, e.g. a bad lease TTL or chaos knob, or two
    cells of one run bound to the same content address.
    """


class FaultCampaignError(ReproError):
    """Invalid fault-injection campaign specification."""


class RtlError(ReproError):
    """Illegal word-level RTL construction (width mismatch, ...)."""


class AssemblerError(ReproError):
    """DLX assembly failure (unknown mnemonic, bad operand, ...)."""

    def __init__(self, message: str, line: int = 0):
        location = f" at line {line}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
