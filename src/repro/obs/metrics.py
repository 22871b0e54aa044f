"""Named metrics: counters, gauges, and histograms in one registry.

Where the tracer (:mod:`repro.obs.trace`) answers *where did the time
go*, the metrics registry answers *what did the run measure*: replay
fallback counts, handshake latencies, latch-enable overlap windows,
tokens in flight per cluster domain.  Metrics are plain Python objects
— stdlib only, no background threads — and the registry snapshot is a
JSON-ready dict designed to slot into the versioned benchmark envelope
as its ``metrics`` block (see :func:`repro.report.write_json`).

Instruments are created lazily by name through the registry accessors
(:meth:`MetricsRegistry.counter` & co.); asking for an existing name
with a different kind is an error, so producers cannot silently
shadow each other.
"""

from __future__ import annotations

from math import fsum


class Counter:
    """A monotonically increasing count (events, fallbacks, hits)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def inc(self, value: int | float = 1) -> None:
        if value < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {value})")
        self.value += value

    def summary(self) -> dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last-set wins): ratios, sizes, levels."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value

    def summary(self) -> dict[str, object]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """A distribution of observed values, summarized on export.

    Observations are kept raw (these are offline runs, not servers), so
    the summary can report exact count/min/max/mean and rank-based
    percentiles without bucketing error.
    """

    kind = "histogram"
    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: int | float) -> None:
        self.values.append(float(value))

    def summary(self) -> dict[str, object]:
        if not self.values:
            return {"type": self.kind, "count": 0, "min": None,
                    "max": None, "mean": None, "p50": None, "p95": None}
        ordered = sorted(self.values)
        return {
            "type": self.kind,
            "count": len(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": fsum(ordered) / len(ordered),
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
        }


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    index = round(q * (len(ordered) - 1))
    return ordered[index]


class MetricsRegistry:
    """Get-or-create home for named metrics.

    Names are free-form but the convention is dotted lowercase with the
    subsystem first: ``equiv.blocks.scalar_fallback``,
    ``handshake.latency_ps``, ``sweep.status.ok``.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _get(self, name, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory(name)
        elif type(metric) is not factory:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"cannot re-register as {factory.kind}")
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self, prefix: str | None = None) -> dict[str, dict]:
        """JSON-ready summaries of every metric, sorted by name.

        ``prefix`` restricts the snapshot to names starting with it —
        handy when one process produces several envelopes.
        """
        return {name: metric.summary()
                for name, metric in sorted(self._metrics.items())
                if prefix is None or name.startswith(prefix)}

    def reset(self) -> None:
        """Drop every metric (test isolation; fresh bench runs)."""
        self._metrics.clear()


#: The process-global registry most instrumentation records into.
METRICS = MetricsRegistry()
