"""Assert every ``benchmarks/out/BENCH_*.json`` carries the versioned
envelope.

Every JSON artifact of the benchmark harness must be written through
:func:`repro.report.write_json`, whose envelope
(``{"schema", "git_sha", "columns", "rows", "metrics"}`` with the
current ``repro.report.JSON_SCHEMA`` tag) is what makes artifacts
comparable across PRs in the perf trajectory.  The ``metrics`` block is
a :meth:`repro.obs.MetricsRegistry.snapshot` — every entry must be a
dict tagged with a known ``type``.  CI runs this after each bench job so
a bench that hand-rolls its JSON — or an envelope drift — fails the
build instead of silently producing an incomparable artifact.

``--compare A B`` checks a different invariant: two envelopes from the
same sweep — one sharded over a process pool (``REPRO_JOBS=N``), one
single-process — must describe identical results modulo the per-row
wall-time fields.  CI runs the pipeline smoke sweep both ways and
compares, so a nondeterministic merge fails the build.

Run:  PYTHONPATH=src python benchmarks/check_envelopes.py [out_dir]
      PYTHONPATH=src python benchmarks/check_envelopes.py --compare A B
"""

from __future__ import annotations

import glob
import json
import os
import sys

from repro.report import JSON_SCHEMA

ENVELOPE_KEYS = {"schema", "git_sha", "columns", "rows", "metrics"}

#: ``type`` tags a metrics-block entry may carry, and the summary keys
#: each tag requires (histograms summarize; counters/gauges are scalar).
METRIC_TYPES = {
    "counter": {"value"},
    "gauge": {"value"},
    "histogram": {"count", "min", "max", "mean", "p50", "p95"},
}

#: Columns specific artifacts must carry — the load-bearing fields
#: downstream tooling keys on.  The pipeline sweep must report the
#: lane width each cell verified at (``lanes``, one lane per seed, so
#: the cell's seed count), and the width sweep must carry its full
#: (config, backend, width) measurement tuple.
REQUIRED_COLUMNS = {
    "BENCH_pipeline.json": {"lanes"},
    "BENCH_width.json": {"name", "tier", "backend", "lanes",
                         "seeds_per_s", "speedup_vs_64"},
    "BENCH_jobs.json": {"cache_hit_rate", "reclaimed", "duplicates"},
}


def _check_metrics(name: str, metrics: object) -> None:
    if not isinstance(metrics, dict):
        raise SystemExit(f"{name}: metrics block must be a dict")
    for metric, summary in metrics.items():
        if not isinstance(summary, dict):
            raise SystemExit(
                f"{name}: metric {metric!r} must be a summary dict")
        kind = summary.get("type")
        if kind not in METRIC_TYPES:
            raise SystemExit(
                f"{name}: metric {metric!r} has type {kind!r}, expected "
                f"one of {sorted(METRIC_TYPES)}")
        missing = METRIC_TYPES[kind] - set(summary)
        if missing:
            raise SystemExit(
                f"{name}: {kind} {metric!r} lacks keys {sorted(missing)}")


def check_envelopes(out_dir: str) -> list[str]:
    """Validate every BENCH_*.json under ``out_dir``; returns the names
    checked.  Raises ``SystemExit`` with a located message on the first
    malformed artifact (and when there is nothing to check at all)."""
    paths = sorted(glob.glob(os.path.join(out_dir, "BENCH_*.json")))
    if not paths:
        raise SystemExit(f"no BENCH_*.json artifacts under {out_dir}")
    for path in paths:
        name = os.path.basename(path)
        with open(path) as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{name}: not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or set(payload) != ENVELOPE_KEYS:
            raise SystemExit(
                f"{name}: envelope keys are "
                f"{sorted(payload) if isinstance(payload, dict) else payload}"
                f", expected {sorted(ENVELOPE_KEYS)}")
        if payload["schema"] != JSON_SCHEMA:
            raise SystemExit(
                f"{name}: schema {payload['schema']!r} != {JSON_SCHEMA!r}")
        columns = payload["columns"]
        if not isinstance(columns, list) or not columns:
            raise SystemExit(f"{name}: columns must be a non-empty list")
        missing_cols = REQUIRED_COLUMNS.get(name, set()) - set(columns)
        if missing_cols:
            raise SystemExit(
                f"{name}: missing required columns "
                f"{sorted(missing_cols)} (have {columns})")
        for index, row in enumerate(payload["rows"]):
            if not isinstance(row, dict) or list(row) != columns:
                raise SystemExit(
                    f"{name}: row {index} keys do not match columns")
        _check_metrics(name, payload["metrics"])
    return [os.path.basename(path) for path in paths]


#: Per-row wall-time fields ``--compare`` ignores: they are the only
#: columns a sharded (or interrupted-and-resumed) run is allowed to
#: differ on.  ``wall_ms``/``attempts`` are the campaign envelope's
#: equivalents of the sweep's ``build_ms``/``verify_ms`` — a resumed
#: campaign re-times restored cells but must reproduce their results.
TIMING_FIELDS = ("build_ms", "verify_ms", "wall_ms", "attempts")


def compare_envelopes(path_a: str, path_b: str,
                      ignore: tuple[str, ...] = TIMING_FIELDS) -> int:
    """Assert the two envelopes carry identical results modulo the
    ``ignore`` row fields; returns the number of rows compared.  Raises
    ``SystemExit`` with the first mismatching row on failure.  Only
    columns and rows are compared — ``git_sha`` and the wall-time
    histograms in the metrics block legitimately differ between runs."""
    payloads = []
    for path in (path_a, path_b):
        with open(path) as handle:
            try:
                payloads.append(json.load(handle))
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}: not valid JSON: {exc}") from exc
    first, second = payloads
    for key in ("schema", "columns"):
        if first[key] != second[key]:
            raise SystemExit(
                f"--compare: {key} differ: {first[key]!r} != "
                f"{second[key]!r}")

    def strip(row: dict) -> dict:
        return {k: v for k, v in row.items() if k not in ignore}

    rows_a = [strip(row) for row in first["rows"]]
    rows_b = [strip(row) for row in second["rows"]]
    if len(rows_a) != len(rows_b):
        raise SystemExit(
            f"--compare: {len(rows_a)} rows in {path_a} vs "
            f"{len(rows_b)} in {path_b}")
    for index, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if row_a != row_b:
            raise SystemExit(
                f"--compare: row {index} differs (timing fields "
                f"excluded):\n  {path_a}: {row_a}\n  {path_b}: {row_b}")
    return len(rows_a)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--compare":
        if len(sys.argv) != 4:
            raise SystemExit(
                "usage: check_envelopes.py --compare <a.json> <b.json>")
        compared = compare_envelopes(sys.argv[2], sys.argv[3])
        print(f"envelopes match on {compared} row(s) "
              f"(modulo {', '.join(TIMING_FIELDS)})")
    else:
        directory = sys.argv[1] if len(sys.argv) > 1 else \
            os.path.join(os.path.dirname(__file__), "out")
        checked = check_envelopes(directory)
        print(f"envelope ok for {len(checked)} artifact(s): "
              + ", ".join(checked))
