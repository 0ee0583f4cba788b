"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py determinism [--seed 1]
        Runs every workload's round traced three times: twice under one
        PYTHONHASHSEED and once under another.  The exact counters and the
        verdict and certificate digests of every job must be identical, and
        the layers' self times must cover 0.9-1.1 of each traced round's
        wall time.  Exit 0 when all hold, 1 otherwise.

    python3 perfbench/selfcheck.py record-golden --seeds 1-10
        Records the verdict digest of every job into golden.json: the jobs
        whose inputs do not depend on --seed once, the others per seed.  Run
        it only on a commit whose verdicts are the reference.
"""

from __future__ import annotations

import argparse
import json
import time

from run import GOLDEN, RUN_LIMIT_S, WORKLOADS, spawn_round


def one_round(workload, seed, hashseed, traced):
    return spawn_round(workload, seed, traced, hashseed, time.monotonic() + RUN_LIMIT_S)


def fingerprint(doc):
    """Everything in a round that must repeat exactly."""
    return {
        "counters": doc["counters"],
        "barvinok": doc["barvinok"],
        "jobs": [[name, status, certified, verdict, cert] for name, status, certified, verdict, cert, _, _ in doc["jobs"]],
    }


def determinism(seed) -> int:
    bad = 0
    for workload in WORKLOADS:
        docs = [one_round(workload, seed, h, True) for h in (1, 1, 2)]
        for doc in docs:
            coverage = doc["layers"]["trace.coverage"]
            if not 0.9 <= coverage <= 1.1:
                bad += 1
                print(f"{workload}: layer self time covers {coverage:.3f} of the traced wall time, not 0.9-1.1")
        runs = [fingerprint(doc) for doc in docs]
        for label, other in (("repeat run", runs[1]), ("PYTHONHASHSEED 2", runs[2])):
            if other["counters"] != runs[0]["counters"] or other["barvinok"] != runs[0]["barvinok"]:
                bad += 1
                print(f"{workload}: exact counters differ under {label}: {runs[0]['counters']} vs {other['counters']}")
            for a, b in zip(runs[0]["jobs"], other["jobs"]):
                if a != b:
                    bad += 1
                    print(f"{workload}/{a[0]}: digests differ under {label}: {a[1:]} vs {b[1:]}")
        print(f"{workload}: {len(runs[0]['jobs'])} jobs, counters {runs[0]['counters']}")
    print("determinism: " + ("ok" if bad == 0 else f"{bad} differences"))
    return 0 if bad == 0 else 1


def record_golden(seeds) -> int:
    doc = {"fixed": {}, "seeded": {}}
    for workload in WORKLOADS:
        doc["fixed"][workload] = {}
        doc["seeded"][workload] = {}
        for seed in seeds:
            result = one_round(workload, seed, 0, False)
            digests = {}
            for name, status, _, verdict, _, seeded, problem in result["jobs"]:
                if status == "failed":
                    raise SystemExit(f"{workload}/{name} failed at seed {seed}: {problem}")
                if status == "known-defect":
                    continue  # its verdict changes when the defect is fixed
                if seeded:
                    digests[name] = verdict
                elif doc["fixed"][workload].setdefault(name, verdict) != verdict:
                    raise SystemExit(f"{workload}/{name} has no --seed input but its verdict changed")
            doc["seeded"][workload][str(seed)] = digests
            print(f"{workload} seed {seed}: {len(result['jobs'])} jobs", flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("determinism")
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("record-golden")
    p.add_argument("--seeds", type=parse_seeds, required=True)
    args = ap.parse_args(argv)
    if args.command == "determinism":
        return determinism(args.seed)
    return record_golden(args.seeds)


if __name__ == "__main__":
    raise SystemExit(main())
