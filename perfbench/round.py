"""One benchmark round in a fresh process: set up, run the job list, check it.

Started by run.py; prints one JSON object on its last stdout line.  Set-up is
measured from the moment the parent spawned this process (``--spawned-at``, a
``time.monotonic`` reading, which is system-wide on Linux) to the first job:
interpreter start, importing troprank, numpy and scipy, and generating the
seeded inputs.  troprank is imported from ``src/`` of the checkout and
nowhere else.

The host's speed swings by a third for tens of seconds to minutes at a time
(other tenants share its cores), longer than a run, so raw times of one run
differ from the next by that much.  A fixed pure-Python probe is therefore
timed right after set-up, between jobs at least every PROBE_EVERY_S and after
the last job, and every time is also reported scaled to the host's speed:
time x PROBE_REF_MS / probe time, the probe time for a job being the mean of
the probes just before and just after it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The probe's time on an uncontended 2-vCPU x86-64 host under CPython 3.11.
PROBE_REF_MS = 0.32
PROBE_EVERY_S = 0.1

# Span names whose self time each per-layer timer adds up.
NAMED_TIMERS = {
    "reduction.harden_s": ("reduction", ("harden", "lift_assignment")),
    "reduction.compile_s": ("reduction", ("compile_system",)),
    "reduction.verify_s": ("reduction", ("verify_reduction",)),
    "rank.sample_s": ("rank", ("sample_level_singular",)),
    "series.lift_s": ("series", ("lift_from_configuration",)),
    "series.verify_lift_s": ("series", ("verify_lift",)),
}
LAYERS = ("plane", "rank", "assignment", "barvinok", "tropical", "patterns", "reduction", "realize", "series", "cli")
COUNTERS = (
    "rank.pairs_examined",
    "barvinok.coverings_tested",
    "tropical.cells",
    "tropical.text_bytes",
    "patterns.cells",
    "reduction.pattern_cells",
    "reduction.witness_attempts",
    "realize.closed_branches",
    "realize.realized",
    "realize.infeasible",
    "realize.unknown",
)
# Manifests carry the wall clock, so the bytes the CLI writes vary by a few.
VOLUMES = ("cli.bytes_written",)


def _import_program():
    sys.path.insert(0, SRC)
    import troprank

    where = os.path.dirname(os.path.abspath(troprank.__file__))
    if where != os.path.join(SRC, "troprank"):
        raise SystemExit(f"troprank imported from {where}, not from this checkout's src/")
    import numpy  # noqa: F401  (set-up cost users pay in every process)
    import scipy.optimize  # noqa: F401  (the float engine imports it lazily)


def layer_metrics(tracer, jobs, wall_s) -> dict:
    """Per-layer self times and call counts from the round's spans."""
    selfs = tracer.self_times()
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("busy_s", "calls")}
    for key in ("rank.cold_s", "rank.warm_s", "realize.exact_s", "realize.float_s", *NAMED_TIMERS):
        out[key] = 0.0
    n80 = []
    covered = 0.0
    for span, own in zip(tracer.spans, selfs):
        if span.layer == "job":
            continue
        covered += own
        out[f"{span.layer}.busy_s"] += own
        out[f"{span.layer}.calls"] += 1
        tags = jobs[span.job].tags
        if span.name == "tropical_rank":
            out["rank.cold_s" if "cold" in tags else "rank.warm_s"] += own
        elif span.name == "realize_rank3":
            out["realize.float_s" if "float" in tags else "realize.exact_s"] += own
        elif span.name == "tropical_determinant" and "n80" in tags:
            n80.append(span.duration * 1000.0)
        for key, (layer, names) in NAMED_TIMERS.items():
            if span.layer == layer and span.name in names:
                out[key] += own
    out["assignment.det_n80_ms"] = statistics.median(n80) if n80 else 0.0
    out["trace.coverage"] = covered / wall_s
    return out


def probe() -> float:
    """Best of three runs of a fixed integer, dict and sort loop, in ms."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(3000):
            acc += (i * 7) % 13
            table[i & 255] = acc
        sorted(table.values())
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop before the first job; report setup_s only")
    args = ap.parse_args(argv)

    _import_program()
    from spans import Calls, Tracer
    from workloads import WORKLOADS, sha

    # CLI manifests record the paths they are given; relative paths keep them
    # identical across rounds.
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    jobs = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    probes = [(time.perf_counter(), probe())]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_ms": probes[0][1]}))
        return 0

    tracer = Tracer() if args.trace else None
    calls = Calls(tracer)
    outputs = []
    latencies = []
    windows = []
    for idx, job in enumerate(jobs):
        calls.job = idx
        if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((time.perf_counter(), probe()))
        sid = tracer.begin("job", job.name, idx) if tracer else None
        t0 = time.perf_counter()
        try:
            outputs.append((job.run(calls), None))
        except Exception:
            outputs.append((None, traceback.format_exc(limit=-2)))
        t1 = time.perf_counter()
        if tracer:
            tracer.end(sid)
        latencies.append((t1 - t0) * 1000.0)
        windows.append((t0, t1))
    probes.append((time.perf_counter(), probe()))
    # the jobs' own time: the probes between them are not part of it
    wall_s = sum(latencies) / 1000.0
    at = [t for t, _ in probes]
    scaled = []
    for (t0, t1), ms in zip(windows, latencies):
        before = probes[bisect.bisect_right(at, t0) - 1][1]
        after = probes[bisect.bisect_left(at, t1)][1]
        scaled.append(ms * PROBE_REF_MS * 2.0 / (before + after))

    # Checks run after the timed job list.
    results = []
    counters = {}
    for job, (out, error) in zip(jobs, outputs):
        if error is None:
            try:
                checked = job.check(out)
            except Exception:
                error = traceback.format_exc(limit=-2)
        if error is not None:
            status, problem = "failed", "exception: " + " | ".join(error.strip().splitlines()[-2:])
            results.append([job.name, status, False, "", "", job.seeded, problem])
            continue
        for key, value in checked.counters.items():
            counters[key] = counters.get(key, 0) + value
        problem = checked.problem
        if problem is None:
            status = "ok"
        elif job.known_defect and problem.startswith(job.known_defect):
            status = "known-defect"
        else:
            status = "failed"
        results.append(
            [job.name, status, checked.certified, sha(checked.verdict), sha(checked.cert), job.seeded, problem]
        )

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_probe_ms": probes[0][1],
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "scaled_ms": scaled,
        "probe_ms": [ms for _, ms in probes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
        "counters": {key: counters.get(key, 0) for key in COUNTERS},
        "volumes": {key: counters.get(key, 0) for key in VOLUMES},
        "barvinok": [counters.get("barvinok.certified", 0), counters.get("barvinok.results", 0)],
    }
    if tracer:
        doc["layers"] = layer_metrics(tracer, jobs, wall_s)
        doc["spans"] = [
            [sp.sid, sp.parent, jobs[sp.job].name, sp.layer, sp.name, sp.start - windows[0][0], sp.end - windows[0][0]]
            for sp in tracer.spans
        ]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
