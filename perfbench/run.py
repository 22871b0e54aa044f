"""The repository benchmark: the de-synchronization flow end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (config lists and the
reason for each are in ``workload.py``):

``sweep``     ``sweep_pipelines`` over configs under the bank cap, where
              the explicit-reachability model check runs, above it,
              where batched equivalence runs, and over 200 instances,
              where only the flow passes run;
``campaign``  fault campaign: scalar per-seed equivalence and detection.

A run clears every ``REPRO_*`` knob (the provenance line records any
that were set), measures set-up in :data:`SETUP_PROBES` fresh
interpreters that stop right before the workload's call, then runs the
workload in fresh ``jobs=1`` interpreters, one after another, while the
next one is expected to finish within ``--seconds`` (at least one).
End-to-end metrics are medians over those repetitions and are measured
with tracing off.  ``--trace 1`` alternates untraced and traced
repetitions (at least one of each) and reports the per-layer table
instead: exclusive seconds per layer from the wrappers in ``layers.py``.

Every repetition is checked: no sweep row is ``failed*`` or
``quarantined*``, no campaign cell errored or was quarantined, every
``ok`` row has ``equiv_ok`` and ``hold_ok``, ``sim.replay.fallbacks`` is
0, campaign survival is 1.0, and the sha256 of the rows without their
wall-time fields is the same in every repetition and in every earlier
run of this workload and seed in this checkout (kept in
``.perfbench/digests.json``).  A failed check prints ``"correct":
false`` and exits with status 1.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (cells) and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters per run that only time set-up.
SETUP_PROBES = 3

#: A run gives up, without a result, this many seconds after it starts.
RUN_LIMIT = 170.0
STARTED = time.monotonic()

#: Layers of layers.py; each is reported as ``<layer>.s``, its exclusive
#: seconds.
LAYERS = (
    "corpus.generate", "pass.cluster", "pass.partial", "pass.matched-delay",
    "pass.latchify", "pass.controller-network", "pass.baseline-model",
    "model.check", "model.cycle_time", "hold", "equiv.check",
    "equiv.reference", "equiv.record", "equiv.replay", "equiv.scalar",
    "faults.detection",
)

#: Per-layer counts kept by layers.py under the metric's own name.
LAYER_COUNTS = ("model.check.calls", "model.check.cap_hits", "model.markings",
                "model.cycle_time.calls", "equiv.seeds")

END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Quality figures printed per workload (not in the JSON: each is 0 or
#: undefined on some workload).  Deterministic for a given program.
QUALITY = ("fail_share", "checked_share", "cycle_ratio_gmean",
           "area_ratio_gmean", "survival_rate", "detection_rate")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clean_env() -> tuple[dict[str, str], dict[str, str]]:
    """The child environment without ``REPRO_*`` knobs, and the knobs."""
    env = dict(os.environ)
    knobs = {name: env.pop(name) for name in sorted(env)
             if name.startswith("REPRO_")}
    # Fixed hashing keeps set/dict iteration order, and so the work
    # done, identical from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env, knobs


def provenance(workload: str, configs, knobs: dict[str, str]) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.report.table import git_short_sha
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_short_sha(ROOT) or "unknown",
        "workload": workload,
        "configs": list(configs),
        "repro_knobs": knobs,
    }


def run_child(args: list[str], env: dict[str, str]) -> tuple[dict, float]:
    """Run ``workload.py`` in a fresh interpreter; returns its JSON
    result and the monotonic time it was started at."""
    command = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    spawned = time.monotonic()
    # Own session, so a timeout also stops the child's pool workers.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, STARTED + RUN_LIMIT - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: the run exceeded {RUN_LIMIT:.0f} s "
                         f"in {' '.join(args)}")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited with "
                         f"status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def check_digest(key: str, digest: str) -> str | None:
    """Record ``digest`` for ``key``; the earlier one if it differs."""
    path = os.path.join(STATE_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    earlier = known.setdefault(key, digest)
    if earlier == digest:
        os.makedirs(STATE_DIR, exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(known, handle, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
        return None
    return earlier


def layer_metrics(rep: dict, untraced_wall: float) -> dict[str, float]:
    layers = rep["layers"]
    seconds, counts, counters = (layers["seconds"], layers["counts"],
                                 layers["counters"])
    metrics = {f"{layer}.s": seconds.get(layer, 0.0) for layer in LAYERS}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    hits = counters.get("sim.vector.kernel_cache_hits", 0)
    misses = counters.get("sim.vector.kernel_cache_misses", 0)
    metrics["equiv.replay_fallbacks"] = counters.get("sim.replay.fallbacks",
                                                     0)
    metrics["sim.kernel_cache.hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    executor = rep["executor"]
    metrics["executor.overhead_s"] = executor["overhead_s"]
    metrics["executor.retries"] = executor["retries"]
    metrics["executor.quarantined"] = executor["quarantined"]
    metrics["unattributed.s"] = rep["wall_s"] - sum(seconds.values()) \
        - executor["overhead_s"]
    metrics["traced_wall_s"] = rep["wall_s"]
    metrics["trace_overhead"] = rep["wall_s"] / untraced_wall
    return metrics


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name in ("sim.kernel_cache.hit_ratio", "trace_overhead"):
        return "ratio"
    return "count"


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


def repeat(base: list[str], env: dict[str, str], seconds: float,
           trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repetitions, run while the next one is
    expected to end within ``seconds``: at least one of each kind asked
    for, alternating when tracing."""
    deadline = time.monotonic() + seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: dict[bool, float] = {}
    trace_root = os.path.join(STATE_DIR, f"trace-{os.getpid()}")
    while True:
        tracing = trace and len(traced) < len(untraced)
        extra = []
        if tracing:
            dump_dir = os.path.join(trace_root, str(len(traced)))
            os.makedirs(dump_dir)
            extra = ["--trace", dump_dir]
        started = time.monotonic()
        rep, spawned = run_child([*base, *extra], env)
        durations[tracing] = time.monotonic() - started
        rep["setup_s"] = rep["call_at"] - spawned
        (traced if tracing else untraced).append(rep)
        if trace and not traced:
            continue
        following = trace and len(traced) < len(untraced)
        if time.monotonic() + durations.get(following, durations[tracing]) \
                > deadline:
            break
    shutil.rmtree(trace_root, ignore_errors=True)
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under {ROOT}/src to measure",
              file=sys.stderr)
        return 2
    from workload import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    env, knobs = clean_env()
    info = provenance(args.workload, WORKLOADS[args.workload], knobs)
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    for _ in range(SETUP_PROBES):
        probe, spawned = run_child([*base, "--setup-only"], env)
        setup.append(probe["call_at"] - spawned)
    untraced, traced = repeat(base, env, args.seconds, bool(args.trace))
    setup.extend(rep["setup_s"] for rep in untraced)

    reps = untraced + traced
    problems = sorted({problem for rep in reps
                       for problem in rep["problems"]})
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(f"rows differ between repetitions: {sorted(digests)}")
    # Keyed by the config list too, so editing a workload starts afresh.
    configs = hashlib.sha256(
        " ".join(WORKLOADS[args.workload]).encode()).hexdigest()[:12]
    earlier = check_digest(f"{args.workload}:{args.seed}:{configs}",
                           reps[0]["digest"])
    if earlier is not None:
        problems.append(f"rows sha256 {reps[0]['digest']} differs from an "
                        f"earlier run's {earlier}")
    correct = not problems

    samples = {
        "wall_s": [rep["wall_s"] for rep in untraced],
        "setup_s": setup,
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
    }
    end_to_end = {name: statistics.median(values)
                  for name, values in samples.items()}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"repetitions={len(untraced)} untraced, {len(traced)} traced")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"rows sha256 {reps[0]['digest']}")
    for name, value in end_to_end.items():
        print(f"  {name:<18} {value:12.4f} {END_UNITS[name]:<6} samples "
              f"{', '.join(f'{sample:.4f}' for sample in samples[name])}")
    quality = untraced[0]["quality"]
    for name in QUALITY:
        value = quality.get(name)
        print(f"  {name:<18} "
              f"{'n/a' if value is None else f'{value:.6f}':>12} ratio")
    for cell in untraced[0].get("undetected", []):
        print(f"  finding: fault cell passed silently: {cell}")
    for problem in problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)

    if args.trace:
        metrics = median_metrics([
            layer_metrics(rep, end_to_end["wall_s"]) for rep in traced])
        absent = sorted({name for rep in traced
                         for name in rep["layers"]["absent"]})
        traced_wall = metrics["traced_wall_s"]
        print(f"per-layer exclusive time (median of {len(traced)} traced "
              f"repetition(s); traced wall {traced_wall:.3f} s)")
        for name, value in metrics.items():
            share = (f"{100 * value / traced_wall:6.1f} %"
                     if unit_of(name) == "s" else "")
            print(f"  {name:<28} {value:14.4f} {unit_of(name):<6} {share}")
        for name in absent:
            print(f"  absent: {name} (not in this program; reads 0)")
        output = {name: {"value": value, "unit": unit_of(name)}
                  for name, value in metrics.items()}
    else:
        output = {name: {"value": value, "unit": END_UNITS[name]}
                  for name, value in end_to_end.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": untraced[0]["attempted"],
        "failed": max(rep["failed"] for rep in reps),
        "metrics": output,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
