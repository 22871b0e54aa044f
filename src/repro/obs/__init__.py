"""Observability: structured tracing, metrics, and waveform export.

Three coordinated, stdlib-only-at-the-core parts:

- :mod:`repro.obs.trace` — process-global tracer with nested spans and
  Chrome trace-event JSON export (``REPRO_TRACE=<path>`` to arm it);
- :mod:`repro.obs.metrics` — named counters / gauges / histograms whose
  snapshot becomes the ``metrics`` block of benchmark envelopes;
- :mod:`repro.obs.vcd` — VCD export (and a round-trip parser) so any
  simulator history opens in GTKWave, plus :mod:`repro.obs.probe`
  turning recorded handshake nets into metrics.

Import layering: ``trace`` and ``metrics`` depend on nothing inside the
package, so low-level modules (netlist core, simulator kernels) import
them directly.  ``vcd`` and ``probe`` sit *above* the simulators; their
names are re-exported lazily (PEP 562) so that importing
``repro.obs.trace`` from those low layers does not drag the simulator
stack in through this package initializer.
"""

from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_ENV,
    TRACER,
    Span,
    Tracer,
    span,
)

#: Lazily re-exported names -> home module (these modules import the
#: simulator stack, which imports repro.obs.trace — eager imports here
#: would close that cycle).
_LAZY = {
    "HandshakeProbe": "repro.obs.probe",
    "probe_handshakes": "repro.obs.probe",
    "ParsedVcd": "repro.obs.vcd",
    "parse_vcd": "repro.obs.vcd",
    "write_vcd": "repro.obs.vcd",
}

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "TRACE_ENV",
    "TRACER",
    "Span",
    "Tracer",
    "span",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
