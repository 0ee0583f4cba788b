"""troprank benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload plane-rank --seed 1 --seconds 55 --trace 0

Each round runs the workload's fixed job list in a fresh process (so every
round pays the cold costs a new process pays), one job at a time.  A run
starts rounds while the next one is expected to end within --seconds, and
makes at least MIN_ROUNDS.  Times are scaled to the host's speed (see
round.py).  A job's latency is its mean over the rounds; job_p50_ms and
job_tail_ms are taken over those means, and wall_s is the jobs' mean time per
round.  After each round a process that only sets up adds a set-up sample;
setup_s is the median of all of them, peak RSS the median over rounds.  The
line before the result gives the unscaled figures and the probe times.  With
``--trace 1`` rounds alternate untraced and traced, the per-layer metrics come
from the traced ones, and their spans are written to
perfbench/_traces/<workload>-seed<seed>.json.

Every job output is checked, compared across rounds (each round has another
PYTHONHASHSEED) and against the recorded golden verdicts.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  Known seed
defects are reported by name on the lines before it and are not counted as
failures.  Any error in the benchmark or the program's import exits non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from round import PROBE_REF_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")
TRACES = os.path.join(HERE, "_traces")

WORKLOADS = ("plane-rank", "exact-reduce")
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0

PER_LAYER = (
    "plane.busy_s", "plane.calls",
    "rank.busy_s", "rank.calls", "rank.cold_s", "rank.warm_s", "rank.sample_s", "rank.pairs_examined",
    "assignment.busy_s", "assignment.calls", "assignment.det_n80_ms",
    "barvinok.busy_s", "barvinok.calls", "barvinok.coverings_tested", "barvinok.certified_frac",
    "tropical.busy_s", "tropical.calls", "tropical.cells", "tropical.text_bytes",
    "patterns.busy_s", "patterns.calls", "patterns.cells",
    "reduction.busy_s", "reduction.calls", "reduction.harden_s", "reduction.compile_s", "reduction.verify_s",
    "reduction.pattern_cells", "reduction.witness_attempts",
    "realize.busy_s", "realize.calls", "realize.exact_s", "realize.float_s", "realize.closed_branches",
    "realize.realized", "realize.infeasible", "realize.unknown",
    "series.busy_s", "series.calls", "series.lift_s", "series.verify_lift_s",
    "cli.busy_s", "cli.calls", "cli.bytes_written",
    "trace.coverage", "trace.overhead_frac",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_frac") or name.endswith("coverage"):
        return "ratio"
    return "count"


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def spawn_round(workload, seed, traced, index, deadline, setup_only=False):
    """Run round.py once under PYTHONHASHSEED=index; return its result object."""
    workdir = os.path.join(WORK, f"{os.getpid()}-{index}")
    ncpu = str(len(os.sched_getaffinity(0)))
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(index),
        OMP_NUM_THREADS=ncpu,
        OPENBLAS_NUM_THREADS=ncpu,
        MKL_NUM_THREADS=ncpu,
    )
    argv = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--workdir", workdir,
    ] + (["--setup-only"] if setup_only else [])
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned)],
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - spawned),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {index} of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_for(workload, seed):
    """(fixed digests, seeded digests or None) recorded at the seed commit."""
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    return doc["fixed"][workload], doc["seeded"][workload].get(str(seed))


def check_rounds(rounds, workload, seed):
    """(failures, known defects): one (job, problem) entry per failing execution."""
    failures = []
    known = []
    fixed, seeded = golden_for(workload, seed)
    first = rounds[0]
    for r in rounds:
        if [j[0] for j in r["jobs"]] != [j[0] for j in first["jobs"]]:
            raise SystemExit("rounds ran different job lists")
        if r["counters"] != first["counters"]:
            failures.append(("counters", f"exact counters differ between rounds: {first['counters']} vs {r['counters']}"))
        for job, ref in zip(r["jobs"], first["jobs"]):
            name, status, certified, verdict, cert, is_seeded, problem = job
            golden = seeded if is_seeded else fixed
            if status == "failed":
                failures.append((name, problem))
            elif status == "known-defect":
                known.append((name, problem))
            elif (verdict, cert, certified) != (ref[3], ref[4], ref[2]):
                failures.append((name, "verdict or certificate differs between rounds (PYTHONHASHSEED)"))
            elif golden is not None and golden.get(name) != verdict:
                failures.append((name, f"verdict digest {verdict} differs from golden {golden.get(name)}"))
    return failures, known


def end_to_end(rounds, setups, key="scaled_ms"):
    """End-to-end metrics from a job's mean time over the rounds (every round
    runs the same jobs on the same inputs), scaled to the host's speed, or
    unscaled with key="latencies_ms"."""
    latencies = [statistics.mean(lat) for lat in zip(*(r[key] for r in rounds))]
    jobs = [j for r in rounds for j in r["jobs"]]
    pct = tail_percentile(len(latencies))
    scale = key == "scaled_ms"
    return {
        "setup_s": statistics.median(
            r["setup_s"] * (PROBE_REF_MS / r["setup_probe_ms"] if scale else 1.0) for r in rounds + setups
        ),
        "wall_s": statistics.mean(sum(r[key]) for r in rounds) / 1000.0,
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": percentile(latencies, pct),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "certified_frac": sum(1 for j in jobs if j[2]) / len(jobs),
    }, pct


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {}
    for name in PER_LAYER:
        if name in traced[0]["counters"]:
            out[name] = traced[0]["counters"][name]
        elif name in traced[0]["volumes"]:
            out[name] = statistics.median(r["volumes"][name] for r in traced)
        elif name in traced[0]["layers"]:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    certified, results = traced[0]["barvinok"]
    out["barvinok.certified_frac"] = certified / results if results else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    return out


def write_spans(rounds, workload, seed):
    """Spans of the traced rounds: [id, parent, job, layer, name, start, end],
    times in seconds from the round's first job."""
    os.makedirs(TRACES, exist_ok=True)
    spans = [r.pop("spans") for r in rounds if r["traced"]]
    with open(os.path.join(TRACES, f"{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": spans}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the round.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "troprank", "__init__.py")):
        print("error: src/troprank not found next to perfbench/; run from a troprank checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # a traced run needs one untraced and one traced round
    min_rounds = 2 if args.trace else MIN_ROUNDS
    rounds = []
    setups = []
    spawned = 0
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(spawn_round(args.workload, args.seed, traced, spawned, deadline))
            spawned += 1
            if not args.trace:
                setups.append(spawn_round(args.workload, args.seed, False, spawned, deadline, True))
                spawned += 1
            now = time.monotonic()
            if len(rounds) >= min_rounds and now + (now - started) / len(rounds) > started + args.seconds:
                break
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1

    failures, known = check_rounds(rounds, args.workload, args.seed)
    for name, problem in sorted(dict(known).items()):
        print(f"known defect {args.workload}/{name}: {problem}")
    for name, problem in sorted(dict(failures).items()):
        print(f"FAILED {args.workload}/{name}: {problem}", file=sys.stderr)

    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = len(failures)
    if args.trace:
        values = per_layer(rounds)
        write_spans(rounds, args.workload, args.seed)
        coverage = values["trace.coverage"]
        verdict = "within" if 0.9 <= coverage <= 1.1 else "OUTSIDE"
        print(f"{args.workload}: layer self time covers {coverage:.3f} of the traced wall time ({verdict} 0.9-1.1)")
    else:
        values, pct = end_to_end(rounds, setups)
        raw, _ = end_to_end(rounds, setups, key="latencies_ms")
        probes = [ms for r in rounds for ms in r["probe_ms"]]
        print(f"{args.workload}: {len(rounds)} rounds, {attempted} jobs, job_tail_ms is p{pct}")
        print(
            f"unscaled: setup_s {raw['setup_s']:.4f} wall_s {raw['wall_s']:.4f} job_p50_ms {raw['job_p50_ms']:.4f} "
            f"job_tail_ms {raw['job_tail_ms']:.4f}; probe median {statistics.median(probes):.4f} ms "
            f"(reference {PROBE_REF_MS} ms), range {min(probes):.4f}-{max(probes):.4f}"
        )
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
