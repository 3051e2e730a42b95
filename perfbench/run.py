#!/usr/bin/env python3
"""End-to-end benchmark of the voltage-tower CLI over seeded corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload climb --seed 1 --seconds 30 --trace 0

One process, one thread and one client in a closed loop: a job is one
``voltage_tower.cli.main(argv)`` call made in-process (two for derive-io),
and the next job starts only when the previous one has returned.  Jobs run
in whole passes over the corpus until ``--seconds`` is used up, and at
least ``MIN_SAMPLES`` jobs are timed.  Every job's output is checked off
the clock; a job that raises, exits non-zero or fails its check counts as
failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see spans.py), plus the tracing overhead.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is the full record: provenance (Python,
kernel backend, CPUs, seed, corpus digest), sample counts and failures.
It is also written to ``.perfbench_run/results/``; compare.py compares
such records.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

# Claims are made on DEFAULT_SEED and must also hold on HOLDOUT_SEED.
DEFAULT_SEED = 1
HOLDOUT_SEED = 97
SETUP_ROUNDS = 5
# At least 10 samples lie beyond the p90 latency.
MIN_SAMPLES = 100


def import_library():
    """Import voltage_tower from this checkout's src/, and nothing else."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        import voltage_tower
        import voltage_tower.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import voltage_tower from {SRC}: {exc}")
    origin = Path(voltage_tower.__file__).resolve().parent.parent
    if origin != SRC.resolve():
        sys.exit(f"error: voltage_tower was imported from {origin}, not {SRC}")
    return voltage_tower


def set_up(workload, seed):
    """One set-up round: import the library afresh, generate and write the
    corpus, and run one warm-up job.

    Returns (seconds, library, checks module, corpus module, jobs).
    """
    # The benchmark modules hold references into the library, so they are
    # imported afresh with it.
    for name in list(sys.modules):
        if name in ("checks", "corpus") or name.split(".")[0] == "voltage_tower":
            del sys.modules[name]
    start = perf_counter()
    vt = import_library()
    checks = importlib.import_module("checks")
    corpus = importlib.import_module("corpus")
    jobs = corpus.build(workload, seed, RUN_DIR / "work" / workload)
    run_job(vt.cli, jobs[0], workload, checks)  # warm-up
    return perf_counter() - start, vt, checks, corpus, jobs


def run_job(cli, job, workload, checks, tracer=None):
    """Time the job's CLI calls, then check its output off the clock.

    Returns (latency in seconds, failure reason or None).
    """
    for path in job.outputs:
        path.unlink(missing_ok=True)
    reason = None
    scope = tracer.job(job.label) if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with scope:
            for argv in job.argvs:
                code = cli.main(list(argv))
                if code != 0:
                    reason = f"exit code {code}"
                    break
    except Exception as exc:  # a failed job is counted, the run goes on
        traceback.print_exc()
        reason = f"raised {exc!r}"
    latency = perf_counter() - start
    if reason is None:
        try:
            reason = checks.CHECKS[workload](job)
        except Exception as exc:
            traceback.print_exc()
            reason = f"check raised {exc!r}"
    return latency, reason


class Timings:
    """Latencies and failures of whole passes over a corpus."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.passes = 0
        self.bytes_out = 0

    def run(self, cli, jobs, workload, checks, tracer=None):
        for job in jobs:
            latency, reason = run_job(cli, job, workload, checks, tracer)
            self.latencies.append(latency)
            if reason is not None:
                self.failures.append(f"{job.label}: {reason}")
            if tracer is not None:
                self.bytes_out += sum(
                    p.stat().st_size for p in job.outputs if p.exists()
                )
        self.passes += 1


def keep_going(started, passes, seconds, samples, min_samples):
    """Start another pass while that lands nearer the time budget."""
    elapsed = perf_counter() - started
    return samples < min_samples or elapsed + elapsed / passes / 2 < seconds


def end_to_end(timed, setup_s):
    lat = sorted(timed.latencies)
    n = len(lat)
    rank = math.ceil(0.9 * n)
    metrics = {
        "jobs_per_s": (n / sum(lat), "jobs/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (lat[rank - 1], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
    }
    return metrics, {"samples": n, "samples_beyond_p90": n - rank}


def per_layer(tracer, traced, untraced):
    t = spans.totals(tracer.spans)
    k = traced.passes

    def layer(name):
        return t.get(name) or spans.LayerTotals()

    bareiss = layer("backend.bareiss")
    kirchhoff = layer("linalg.kirchhoff_count")
    derive = layer("tower.derive")
    components = layer("graph.components")
    derived = derive.sums["vertices"]
    anchored = layer("graph.subgraph").sums["vertices"]
    metrics = {
        "backend.bareiss.calls": (bareiss.calls // k, "count"),
        "backend.bareiss.self_s": (bareiss.self_s / k, "s"),
        "backend.bareiss.dim_max": (bareiss.maxima["dim"], "count"),
        "backend.bareiss.updates": (bareiss.sums["updates"] // k, "count"),
        "linalg.kirchhoff_count.calls": (kirchhoff.calls // k, "count"),
        "linalg.kirchhoff_count.self_s": (kirchhoff.self_s / k, "s"),
        "linalg.kirchhoff_count.kappa_digits_max": (
            kirchhoff.maxima["kappa_digits"],
            "digits",
        ),
        "linalg.poly_matrix_determinant.self_s": (
            layer("linalg.poly_matrix_determinant").self_s / k,
            "s",
        ),
        "iwasawa.invariants.calls": (layer("iwasawa.invariants").calls // k, "count"),
        "iwasawa.char_poly.self_s": (layer("iwasawa.char_poly").self_s / k, "s"),
        "iwasawa.verify_growth.self_s": (
            layer("iwasawa.verify_growth").self_s / k,
            "s",
        ),
        "tower.derive.calls": (derive.calls // k, "count"),
        "tower.derive.self_s": (derive.self_s / k, "s"),
        "tower.derive.vertices": (derived // k, "count"),
        "tower.derive.useful_ratio": (anchored / derived if derived else 0.0, "ratio"),
        "graph.components.calls": (components.calls // k, "count"),
        "graph.components.self_s": (components.self_s / k, "s"),
        "graph.subgraph.self_s": (layer("graph.subgraph").self_s / k, "s"),
        "graph.cycle_weight_profile.self_s": (
            layer("graph.cycle_weight_profile").self_s / k,
            "s",
        ),
        "documents.read_graph.self_s": (layer("documents.read_graph").self_s / k, "s"),
        "documents.write.self_s": (layer("documents.write").self_s / k, "s"),
        "documents.bytes_out": (traced.bytes_out // k, "bytes"),
        "cli.main.self_s": (layer("cli.main").self_s / k, "s"),
        "trace.overhead_ratio": (
            sum(traced.latencies) / sum(untraced.latencies) - 1,
            "ratio",
        ),
    }
    return metrics, {"traced_passes": k, "jobs_per_pass": len(traced.latencies) // k}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("climb", "charpoly", "derive-io"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"corpus seed (default {DEFAULT_SEED}, "
                        f"holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_samples = []
    for _ in range(SETUP_ROUNDS):
        seconds, vt, checks, corpus, jobs = set_up(args.workload, args.seed)
        setup_samples.append(seconds)
    setup_s = statistics.median(setup_samples)

    cli = vt.cli
    timed_from = perf_counter()
    untraced = Timings()
    if args.trace == 0:
        while True:
            untraced.run(cli, jobs, args.workload, checks)
            if not keep_going(timed_from, untraced.passes, args.seconds,
                              len(untraced.latencies), MIN_SAMPLES):
                break
        metrics, samples = end_to_end(untraced, setup_s)
        attempted, failures = len(untraced.latencies), untraced.failures
    else:
        tracer = spans.Tracer()
        traced = Timings()
        while True:
            # Alternate the order within pairs so that drift in machine
            # speed cancels out of the overhead ratio.
            traced_first = traced.passes % 2 == 1
            if traced_first:
                with tracer.installed():
                    traced.run(cli, jobs, args.workload, checks, tracer)
            untraced.run(cli, jobs, args.workload, checks)
            if not traced_first:
                with tracer.installed():
                    traced.run(cli, jobs, args.workload, checks, tracer)
            if not keep_going(timed_from, traced.passes, args.seconds,
                              len(traced.latencies), 0):
                break
        metrics, samples = per_layer(tracer, traced, untraced)
        attempted = len(untraced.latencies) + len(traced.latencies)
        failures = untraced.failures + traced.failures

    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(results / f"spans-{stem}.jsonl")
    backend = getattr(vt, "kernel_backend", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            # A library without kernel_backend() has no compiled kernel.
            "kernel_backend": backend() if backend else "python",
            "library_version": getattr(vt, "__version__", None),
            "nproc": len(os.sched_getaffinity(0)),
            "corpus_jobs": len(jobs),
            "corpus_digest": corpus.digest(jobs),
        },
        "passes": untraced.passes,
        **samples,
        "attempted": attempted,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:>42} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"{'failed_ratio':>42} {record['failed_ratio']:>14.6g} ratio "
          f"({len(failures)} of {attempted})", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
