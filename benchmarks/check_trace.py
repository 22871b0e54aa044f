"""Assert a ``REPRO_TRACE`` artifact is a well-formed Chrome trace.

CI arms the tracer (``REPRO_TRACE=<path>``) on the pipeline smoke sweep
and then runs this validator on the resulting file: the trace must be
valid JSON in the Chrome trace-event envelope, non-empty, and carry the
spans the instrumentation promises — per-pass spans from
``run_pipeline``, model-check and cycle-time spans, per-cell spans from
``sweep_pipelines``, and at least one per-engine simulator span.  A
refactor that silently disconnects the tracer from any of those layers
fails the build here instead of producing an empty-but-loadable
artifact.

Run:  PYTHONPATH=src python benchmarks/check_trace.py <trace.json>
"""

from __future__ import annotations

import json
import sys

#: Span-name prefixes the instrumented smoke sweep must have emitted,
#: by layer.
REQUIRED_PREFIXES = {
    "pipeline passes": "pass:",
    "model analysis": "model:",
    "sweep cells": "sweep:cell",
    "equivalence checks": "equiv:",
    "simulator engines": "sim:",
}


def check_trace(path: str) -> dict[str, int]:
    """Validate the trace at ``path``; returns per-layer span counts.

    Raises ``SystemExit`` with a located message on the first problem.
    """
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise SystemExit(f"{path}: missing the traceEvents envelope key")
    events = payload["traceEvents"]
    if not isinstance(events, list) or not events:
        raise SystemExit(f"{path}: traceEvents is empty")
    for index, event in enumerate(events):
        if not isinstance(event, dict) or \
                not {"name", "ph"} <= set(event):
            raise SystemExit(
                f"{path}: event {index} lacks name/ph: {event!r}")
        if event["ph"] == "X" and not {"ts", "dur", "pid",
                                       "tid"} <= set(event):
            raise SystemExit(
                f"{path}: complete event {index} lacks ts/dur/pid/tid")
    counts: dict[str, int] = {}
    for layer, prefix in REQUIRED_PREFIXES.items():
        matched = sum(1 for event in events
                      if str(event["name"]).startswith(prefix))
        if not matched:
            raise SystemExit(
                f"{path}: no {layer} spans (names starting {prefix!r}) "
                f"among {len(events)} events — instrumentation "
                f"disconnected?")
        counts[layer] = matched
    return counts


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: check_trace.py <trace.json>")
    counts = check_trace(sys.argv[1])
    print(f"trace ok: {sys.argv[1]} — "
          + ", ".join(f"{n} {layer}" for layer, n in counts.items()))
