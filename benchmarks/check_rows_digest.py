"""Recompute the full-sweep rows digest and compare it with the
committed one.

Runs ``sweep_pipelines`` over the whole corpus (123 configs x 8
variants) on ``REPRO_JOBS`` workers (default 1), drops the wall-time
columns (``check_envelopes.TIMING_FIELDS``), and hashes the rows as
``sha256(json.dumps(rows))``, truncated to 12 hex digits.  The digest,
the status counts and the per-seed desync engine counts must equal
``baseline/sweep_rows.json``; otherwise the script prints both and
exits with status 1.  A change that moves rows on purpose updates that
file and says why.

Run:  REPRO_JOBS=2 PYTHONPATH=src python benchmarks/check_rows_digest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

from check_envelopes import TIMING_FIELDS
from repro.desync.pipeline import SWEEP_COLUMNS, sweep_pipelines

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baseline", "sweep_rows.json")


def rows_digest(rows: list[list[object]]) -> str:
    """sha256 (12 hex digits) of ``rows`` without the wall-time columns."""
    keep = [index for index, column in enumerate(SWEEP_COLUMNS)
            if column not in TIMING_FIELDS]
    stable = [[row[index] for index in keep] for row in rows]
    return hashlib.sha256(json.dumps(stable).encode()).hexdigest()[:12]


def main() -> int:
    with open(BASELINE) as handle:
        expected = json.load(handle)
    start = time.perf_counter()
    _, rows, summary = sweep_pipelines()
    found = {"digest": rows_digest(rows), "statuses": summary["statuses"],
             "desync_engines": summary["desync_engines"]}
    wall = time.perf_counter() - start
    want = {key: expected[key] for key in found}
    if found != want:
        print(f"rows changed ({wall:.1f} s):\n"
              f"  committed {json.dumps(want, sort_keys=True)}\n"
              f"  found     {json.dumps(found, sort_keys=True)}")
        return 1
    print(f"rows ok: digest {found['digest']}, {len(rows)} rows "
          f"({wall:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
