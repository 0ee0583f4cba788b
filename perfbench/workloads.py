"""Seeded inputs, job lists and output checks for the workloads.

A job takes one input instance to its verdict(s).  ``run`` makes every call
into troprank through ``Calls.call`` so that a traced round can attribute the
time to a layer (named after the module).  ``check`` runs after all jobs of a
round have finished, outside every timed span; it re-checks the output on an
independent path and returns a verdict digest (compared with the recorded
golden digests), a certificate digest (compared across rounds and processes
only, because a later algorithm may pick another valid certificate) and the
exact work counters of the layers involved.

Generators live here; troprank only ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

import troprank as tr
import troprank.cli
from troprank import (
    INF,
    IncidencePattern,
    ProvedInfeasible,
    Realized,
    RealizeBudget,
    TropicalMatrix,
    Unknown,
    parse_poly_system,
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class Checked:
    certified: bool
    verdict: str                 # canonical verdict text (golden-compared)
    cert: str = ""               # certificate text (compared across runs only)
    problem: Optional[str] = None
    counters: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable                # run(calls) -> output
    check: Callable              # check(output) -> Checked
    tags: frozenset = frozenset()
    seeded: bool = True          # False: inputs do not depend on --seed
    known_defect: Optional[str] = None  # problem prefix of a known seed defect


def _fail(problem, verdict="", counters=None) -> Checked:
    return Checked(False, verdict, "", problem, counters or {})


def _witness_ok(m, rows, cols) -> bool:
    return tr.is_nonsingular(m.submatrix(rows, cols))


def _realized_problem(pattern, verdict, field) -> Optional[str]:
    cfg = verdict.configuration
    if field == "float":
        return tr.check_realization_float(pattern, cfg.points, cfg.lines)
    return tr.check_realization_exact(pattern, cfg.points, cfg.lines, field=field)


def _closed_branches(verdict) -> int:
    if isinstance(verdict, ProvedInfeasible):
        return len(verdict.trace)
    if isinstance(verdict, Unknown):
        hit = re.search(r"(\d+) closed branches", verdict.report)
        return int(hit.group(1)) if hit else 0
    return 0


def _realize_counters(verdict) -> dict:
    return {
        "realize.closed_branches": _closed_branches(verdict),
        "realize.realized": int(isinstance(verdict, Realized)),
        "realize.infeasible": int(isinstance(verdict, ProvedInfeasible)),
        "realize.unknown": int(isinstance(verdict, Unknown)),
    }


def _verdict_name(verdict) -> str:
    return type(verdict).__name__.lower()


def _cfg_digest(verdict) -> str:
    if isinstance(verdict, Realized):
        return sha(tr.format_configuration(verdict.configuration))
    if isinstance(verdict, Unknown):
        return sha(verdict.report)
    return sha("\n".join(verdict.trace))


# ---- plane-rank ---------------------------------------------------------------

# Weightings per order.  The median job and the tail (11th slowest) both land
# among the warm q=3 jobs, not on the edge between two job kinds, where a swing
# in the machine's speed would move them from one kind's cost to the other's.
PLANE_WEIGHTINGS = ((2, 6), (3, 25), (4, 3))
PG5_SAMPLES = 500_000


def _plane_run(q, wseed, calls):
    plane = calls.call("plane", tr.projective_plane, q)
    m = calls.call("plane", tr.incidence_matrix, plane, "random", seed=wseed)
    return m, calls.call("rank", tr.tropical_rank, m)


def _plane_check(out) -> Checked:
    m, res = out
    verdict = f"rank={res.rank} certified={res.certified} refuted={res.refuted_level}"
    cert = f"rows={res.row_witness} cols={res.col_witness} matrix={sha(tr.format_matrix(m))}"
    counters = {"rank.pairs_examined": res.pairs_examined}
    if not (res.rank == 3 and res.certified and res.refuted_level == 4):
        return _fail(f"expected certified rank 3 refuted at 4, got {verdict}", verdict, counters)
    if not _witness_ok(m, res.row_witness, res.col_witness):
        return _fail("rank witness submatrix is singular", verdict, counters)
    return Checked(True, verdict, cert, None, counters)


def _sample_run(wseed, calls):
    plane = calls.call("plane", tr.projective_plane, 5)
    m = calls.call("plane", tr.incidence_matrix, plane, "random", seed=wseed)
    return calls.call("rank", tr.sample_level_singular, m, 4, PG5_SAMPLES, seed=wseed)


def _sample_check(out) -> Checked:
    ok, counterexample = out
    verdict = f"all_singular={ok} counterexample={counterexample}"
    if not ok:
        return _fail(f"PG(2,5) level-4 sample found a nonsingular submatrix {counterexample}", verdict)
    return Checked(False, verdict, verdict)  # sampled: never a certificate


def plane_rank(seed: int) -> list:
    rng = random.Random(f"plane-rank:{seed}")
    specs = [(q, rng.randrange(2**31)) for q, count in PLANE_WEIGHTINGS for _ in range(count)]
    # Shuffled, so that a burst of load on the machine hits a mix of orders.
    rng.shuffle(specs)
    jobs = []
    seen = {}
    for q, wseed in specs:
        w = seen[q] = seen.get(q, -1) + 1
        # the first weighting of each order meets a cold classification cache
        tags = frozenset({"cold"} if w == 0 else ())
        jobs.append(Job(f"pg{q}/w{w:02d}", partial(_plane_run, q, wseed), _plane_check, tags))
    jobs.insert(rng.randrange(len(jobs) + 1), Job("pg5/sample", partial(_sample_run, rng.randrange(2**31)), _sample_check))
    return jobs


# ---- small-exact --------------------------------------------------------------

LADDER = (10, 20, 40, 80)
BARVINOK_BUDGET = 5_000
# Random 4x4 matrices; each stops on the covering budget at about the same
# cost, so the tail of exact-reduce (17th slowest job) falls among them.
BARVINOK_RANDOM = 9
FLOAT_RESTARTS = 2
CORPUS_PATTERNS = 100  # the first half of criterion 5's 200


def _det_run(m, calls):
    return calls.call("assignment", tr.tropical_determinant, m)


def _det_check(m, cert) -> Checked:
    value = tr.format_value(cert.value)
    verdict = f"value={value} unique={cert.unique}"
    text = f"{verdict} witness={cert.witness}"
    if cert.value is INF:
        if cert.witness is not None or cert.unique:
            return _fail("infinite determinant with a witness or uniqueness claim", verdict)
    elif sum(m.entry(i, cert.witness[i]) for i in range(m.rows)) != cert.value:
        return _fail("determinant differs from its witness sum", verdict)
    if m.rows <= 5:
        best, winners = tr.brute_force_determinant(m)
        if best != cert.value or cert.unique != (len(winners) == 1):
            return _fail(f"brute force gives {tr.format_value(best)} with {len(winners)} optima", verdict)
    return Checked(True, verdict, text)


def _ladder_matrix(rng, n) -> TropicalMatrix:
    """About 10% inf; wide-range rationals make ties (which end the uniqueness
    re-solves early) rare, so the cost of a call does not swing with the seed."""
    return TropicalMatrix.from_rows(
        [
            [INF if rng.random() < 0.1 else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def _criterion1_matrices():
    """The 1000 random 5x5 matrices of acceptance criterion 1 (fixed seed)."""
    rng = random.Random(20240501)
    out = []
    for _ in range(1000):
        rows = []
        for _ in range(5):
            rows.append(
                [INF if rng.random() < 0.2 else Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(5)]
            )
        out.append(TropicalMatrix.from_rows(rows))
    return out


def _factorization_problem(m, res) -> Optional[str]:
    f = res.factorization
    if tr.min_plus_multiply(f.left, f.right) != m:
        return "Barvinok factorization does not multiply back to the matrix"
    if f.k != res.rank or f.left.cols != res.rank:
        return "factorization inner dimension differs from the reported rank"
    return None


def _barvinok_counters(res) -> dict:
    return {
        "barvinok.coverings_tested": res.coverings_tested,
        "barvinok.certified": int(res.rank is not None),
        "barvinok.results": 1,
    }


def _chain_run(m, calls):
    return calls.call("rank", tr.tropical_rank, m), calls.call("barvinok", tr.barvinok_rank, m)


def _chain_check(m, out) -> Checked:
    trk, brk = out
    verdict = f"tropical={trk.rank} certified={trk.certified} barvinok={brk.rank}"
    counters = {"rank.pairs_examined": trk.pairs_examined, **_barvinok_counters(brk)}
    if not trk.certified or brk.rank is None or trk.rank > brk.rank:
        return _fail(f"rank chain broken: {verdict}", verdict, counters)
    if trk.rank and not _witness_ok(m, trk.row_witness, trk.col_witness):
        return _fail("rank witness submatrix is singular", verdict, counters)
    problem = _factorization_problem(m, brk)
    if problem:
        return _fail(problem, verdict, counters)
    f = brk.factorization
    cert = f"{verdict} rows={trk.row_witness} cols={trk.col_witness} " + sha(
        tr.format_matrix(f.left) + tr.format_matrix(f.right)
    )
    return Checked(True, verdict, cert, None, counters)


def _barvinok_run(m, calls):
    return calls.call("barvinok", tr.barvinok_rank, m, budget=BARVINOK_BUDGET)


def _barvinok_check(m, res) -> Checked:
    verdict = f"rank={res.rank} budget_exhausted={res.budget_exhausted}"
    counters = _barvinok_counters(res)
    if res.rank is None:
        if not res.budget_exhausted or res.coverings_tested != BARVINOK_BUDGET:
            return _fail(f"Barvinok search ended without a rank or a budget stop: {verdict}", verdict, counters)
        return Checked(False, verdict, verdict, None, counters)
    problem = _factorization_problem(m, res)
    if problem:
        return _fail(problem, verdict, counters)
    f = res.factorization
    return Checked(True, verdict, sha(tr.format_matrix(f.left) + tr.format_matrix(f.right)), None, counters)


def _realize_run(pattern, field, seed, budget, calls):
    return calls.call("realize", tr.realize_rank3, pattern, field=field, seed=seed, budget=budget)


def _realize_check(pattern, field, expected, verdict) -> Checked:
    name = _verdict_name(verdict)
    counters = _realize_counters(verdict)
    if expected is not None and not isinstance(verdict, expected):
        return _fail(f"expected {expected.__name__.lower()}, got {name}", name, counters)
    if isinstance(verdict, Realized):
        problem = _realized_problem(pattern, verdict, field)
        if problem:
            return _fail(f"realization does not check: {problem}", name, counters)
    certified = not isinstance(verdict, Unknown)
    return Checked(certified, name, f"{name} {_cfg_digest(verdict)}", None, counters)


def _criterion5_patterns():
    """The first CORPUS_PATTERNS of acceptance criterion 5's corpus (fixed seed)."""
    rng = random.Random(20240505)
    out = []
    for _ in range(CORPUS_PATTERNS):
        r = rng.randint(2, 5)
        c = rng.randint(2, 5)
        out.append(IncidencePattern.from_rows([[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)]))
    return out


def _corpus_run(pattern, trial, calls):
    verdict = calls.call("realize", tr.realize_rank3, pattern, field=None, seed=trial)
    if not isinstance(verdict, Realized):
        return verdict, None, None
    lift = calls.call("series", tr.lift_from_configuration, pattern, verdict.configuration, seed=trial)
    target = calls.call("patterns", pattern.to_tropical)
    return verdict, lift, calls.call("series", tr.verify_lift, target, lift, 3)


def _corpus_check(pattern, out) -> Checked:
    verdict, lift, check = out
    base = _realize_check(pattern, None, None, verdict)
    if base.problem or lift is None:
        return base
    text = f"{base.verdict} lift_accepted={check.accepted}"
    if not check.accepted:
        return _fail(f"verify_lift rejected the constructed lift: {check.reason}", text, base.counters)
    counters = dict(base.counters, **{"patterns.cells": pattern.rows * pattern.cols})
    return Checked(True, text, f"{base.cert} {sha(tr.format_lift(lift))}", None, counters)


def _plane_pattern(q) -> IncidencePattern:
    return IncidencePattern.from_matrix(tr.incidence_matrix(tr.projective_plane(q), "unit"))


def small_exact(seed: int) -> list:
    rng = random.Random(f"small-exact:{seed}")
    jobs = []
    for n in LADDER:
        m = _ladder_matrix(rng, n)
        jobs.append(Job(f"det/n{n}", partial(_det_run, m), partial(_det_check, m), frozenset({f"n{n}"})))
    for i, m in enumerate(_criterion1_matrices()):
        jobs.append(Job(f"det5/{i:04d}", partial(_det_run, m), partial(_det_check, m), seeded=False))
    for bits in itertools.product((0, 1), repeat=9):
        m = TropicalMatrix.from_rows([bits[0:3], bits[3:6], bits[6:9]])
        name = "chain/" + "".join(map(str, bits))
        jobs.append(Job(name, partial(_chain_run, m), partial(_chain_check, m), seeded=False))
    fano = tr.incidence_matrix(tr.projective_plane(2), "unit")
    jobs.append(Job("barvinok/fano", partial(_barvinok_run, fano), partial(_barvinok_check, fano), seeded=False))
    for i in range(BARVINOK_RANDOM):
        m = TropicalMatrix.from_rows([[rng.randint(0, 3) for _ in range(4)] for _ in range(4)])
        jobs.append(Job(f"barvinok/r4-{i}", partial(_barvinok_run, m), partial(_barvinok_check, m)))
    planes = {"fano": _plane_pattern(2), "pg23": _plane_pattern(3)}
    expected = {("fano", None): ProvedInfeasible, ("fano", 2): Realized, ("pg23", 3): Realized}
    for (label, pattern), fld in itertools.product(planes.items(), (None, 2, 3)):
        tag = "q" if fld is None else f"gf{fld}"
        jobs.append(
            Job(
                f"realize/{label}-{tag}",
                partial(_realize_run, pattern, fld, 4, None),
                partial(_realize_check, pattern, fld, expected.get((label, fld))),
                seeded=False,
            )
        )
    for trial, pattern in enumerate(_criterion5_patterns()):
        jobs.append(
            Job(f"corpus/{trial:03d}", partial(_corpus_run, pattern, trial), partial(_corpus_check, pattern), seeded=False)
        )
    # Criterion 8's contradictory system.  The float engine's run time swings
    # with its starting points, so its seed is fixed, not drawn from --seed.
    contradictory = tr.compile_system(parse_poly_system("x1\nx1 - 1\nx1^2 - x1"), seed=8).pattern
    budget = RealizeBudget(restarts=FLOAT_RESTARTS)
    jobs.append(
        Job(
            "float/contradiction",
            partial(_realize_run, contradictory, "float", 8, budget),
            partial(_realize_check, contradictory, "float", None),
            frozenset({"float"}),
            seeded=False,
        )
    )
    # Shuffled, so that a burst of load on the machine hits a mix of job kinds.
    rng.shuffle(jobs)
    return jobs


# ---- reduce-realize -------------------------------------------------------------

# (variables, equations) per generated system; fixed shapes keep pattern sizes,
# and so the run time, close across seeds.  Every system is compiled
# unhardened; the first HARDENED_SYSTEMS also at 10 bits, the first also at 16
# and DEFECT_BITS bits.
SYSTEM_SHAPES = ((1, 1),) + ((2, 1),) * 19
HARDENED_SYSTEMS = 3
REALIZE_NODES_UNHARDENED = 50
REALIZE_NODES_HARDENED = 100
DEFECT_BITS = 32  # >= 30 bits: the two-witness prime collides with 2^31
# The float engine's run time swings with the pattern and its starting points,
# so its system and seed are fixed, not drawn from --seed.
FLOAT_SEED = 39


def _monomials(nv):
    ones = [((v, 1),) for v in range(nv)]
    twos = [((a, 1), (b, 1)) if a != b else ((a, 2),) for a in range(nv) for b in range(a, nv)]
    return [()] + ones + twos


def _mono_text(mono, names):
    return "*".join(names[v] if e == 1 else f"{names[v]}^{e}" for v, e in mono)


def _poly_system(rng, nv, neq):
    """System text and its Boolean-cube solutions (criterion 7's generator shape)."""
    names = [f"x{i + 1}" for i in range(nv)]
    monos = _monomials(nv)
    while True:
        eqs = []
        for _ in range(neq):
            picks = sorted(rng.sample(monos, min(len(monos), 3)))
            eqs.append([(mono, rng.choice((-3, -2, -1, 1, 2, 3))) for mono in picks])
        sols = []
        for values in itertools.product((0, 1), repeat=nv):
            if all(
                sum(c * _mono_value(mono, values) for mono, c in eq) == 0 for eq in eqs
            ):
                sols.append(dict(zip(names, values)))
        if sols:
            break
    lines = ["vars " + " ".join(names)]
    for eq in eqs:
        text = ""
        for mono, c in eq:
            body = _mono_text(mono, names)
            term = f"{abs(c)}*{body}" if body else str(abs(c))
            text += ("- " if c < 0 else "+ ") + term + " "
        lines.append(text.strip().lstrip("+ "))
    return "\n".join(lines) + "\n", sols


def _mono_value(mono, values):
    out = 1
    for v, e in mono:
        out *= values[v] ** e
    return out


def _handoff(calls, pattern):
    """reduce -> realize file hand-off: pattern -> matrix -> text -> matrix -> pattern."""
    m = calls.call("patterns", pattern.to_tropical)
    text = calls.call("tropical", tr.format_matrix, m)
    back = calls.call("tropical", tr.parse_matrix, text)
    return text, calls.call("patterns", IncidencePattern.from_matrix, back)


def _compile_run(system, sols, cseed, bits, nodes, calls):
    if bits is None:
        target, lifted = system, sols
    else:
        target, info = calls.call("reduction", tr.harden, system, cseed, stand_in_bits=bits)
        lifted = [calls.call("reduction", info.lift_assignment, system, s) for s in sols]
    compiled = calls.call("reduction", tr.compile_system, target, seed=cseed)
    text, pattern = _handoff(calls, compiled.pattern)
    verdicts = [calls.call("reduction", tr.verify_reduction, target, s, compiled) for s in lifted]
    realized = None
    if nodes is not None:
        budget = RealizeBudget(nodes=nodes)
        realized = calls.call("realize", tr.realize_rank3, pattern, field=None, seed=cseed, budget=budget)
    return compiled, text, pattern, verdicts, realized


def _compile_check(out) -> Checked:
    compiled, text, pattern, verdicts, realized = out
    p = compiled.pattern
    cells = p.rows * p.cols
    counters = {
        "reduction.pattern_cells": cells,
        "reduction.witness_attempts": compiled.witness_attempts + 1,
        "tropical.cells": 2 * cells,
        "tropical.text_bytes": 2 * len(text.encode()),
        "patterns.cells": 2 * cells,
    }
    accepted = [v.accepted for v in verdicts]
    verdict = f"pattern={p.rows}x{p.cols} {sha(text)} accepted={accepted}"
    if realized is not None:
        counters.update(_realize_counters(realized))
        verdict += f" realize={_verdict_name(realized)}"
    if pattern != p:
        return _fail("pattern changed in the text hand-off", verdict, counters)
    for v in verdicts:
        if not v.accepted:
            return _fail(f"verify_reduction rejected the lifted solution: {v.reason}", verdict, counters)
    certified = True
    if realized is not None:
        if isinstance(realized, Realized):
            problem = _realized_problem(pattern, realized, None)
            if problem:
                return _fail(f"realization does not check: {problem}", verdict, counters)
        certified = not isinstance(realized, Unknown)
    cert = verdict + ("" if realized is None else " " + _cfg_digest(realized))
    return Checked(certified, verdict, cert, None, counters)


def _float_run(system, calls):
    compiled = calls.call("reduction", tr.compile_system, system, seed=FLOAT_SEED)
    text, pattern = _handoff(calls, compiled.pattern)
    budget = RealizeBudget(restarts=1)
    verdict = calls.call("realize", tr.realize_rank3, pattern, field="float", seed=FLOAT_SEED, budget=budget)
    return compiled, text, pattern, verdict


def _float_check(out) -> Checked:
    compiled, text, pattern, verdict = out
    checked = _compile_check((compiled, text, pattern, [], None))
    if checked.problem:
        return checked
    realized = _realize_check(pattern, "float", None, verdict)
    realized.counters.update(checked.counters)
    return realized


def cli_main(argv):
    """troprank.cli.main with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.cli.main(argv)
    return code, buf.getvalue()


def _cli_json(code, stdout, want_codes, what) -> tuple:
    """(parsed manifest, problem)."""
    if code not in want_codes:
        return None, f"{what}: exit code {code}, expected one of {sorted(want_codes)}"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError:
        first = stdout.splitlines()[0] if stdout else ""
        return None, f"--json stdout does not parse: {first}"


@dataclass
class CliOut:
    directory: str
    steps: list   # (label, exit code, stdout)
    extra: Any = None


def _cli_bytes(out: CliOut) -> int:
    total = sum(len(stdout.encode()) for _, _, stdout in out.steps)
    for name in os.listdir(out.directory):
        total += os.path.getsize(os.path.join(out.directory, name))
    return total


def _cli_run(directory, argvs, calls):
    os.makedirs(directory, exist_ok=True)
    steps = []
    for label, argv in argvs:
        code, stdout = calls.call("cli", cli_main, argv)
        steps.append((label, code, stdout))
    return CliOut(directory, steps)


def _cli_check(contract, out: CliOut) -> Checked:
    """contract: label -> (allowed exit codes, verdict keys to keep)."""
    parts = []
    certs = []
    counters = {"cli.bytes_written": _cli_bytes(out)}
    certified = True
    for label, code, stdout in out.steps:
        codes, keys = contract[label]
        doc, problem = _cli_json(code, stdout, codes, label)
        if problem:
            return _fail(problem, f"{label}: exit={code}", counters)
        got = {k: doc["verdict"].get(k) for k in keys}
        parts.append(f"{label}: exit={code} {json.dumps(got, sort_keys=True)}")
        certs.append(doc.get("fingerprint", ""))
        certified = certified and code in (0, 2)
    verdict = " | ".join(parts)
    return Checked(certified, verdict, verdict + " " + " ".join(certs), None, counters)


def _rank_contract_check(contract, out: CliOut) -> Checked:
    checked = _cli_check(contract, out)
    if checked.problem:
        return checked
    for label, code, stdout in out.steps:
        if label.startswith("rank"):
            v = json.loads(stdout)["verdict"]
            if (v["rank"], v["certified"], v["refuted_level"]) != (3, True, 4):
                return _fail(f"{label}: PG(2,q) rank verdict {v}", checked.verdict, checked.counters)
    return checked


def _det_cli_check(m, out: CliOut) -> Checked:
    checked = _cli_check({"det": ({0}, ("value", "unique"))}, out)
    if checked.problem:
        return checked
    v = json.loads(out.steps[0][2])["verdict"]
    cert = tr.tropical_determinant(m)
    if v["value"] != tr.format_value(cert.value) or v["unique"] != cert.unique:
        return _fail(f"det CLI verdict {v} differs from the library", checked.verdict, checked.counters)
    return checked


def _realize_cli_check(out: CliOut) -> Checked:
    contract = {
        "reduce": ({0}, ("rows", "cols", "witness_attempts")),
        "realize": ({0, 2, 3}, ("verdict",)),
    }
    checked = _cli_check(contract, out)
    if checked.problem:
        return checked
    code = out.steps[1][1]
    verdict = json.loads(out.steps[1][2])["verdict"]["verdict"]
    if {0: "realized", 2: "infeasible", 3: "unknown"}[code] != verdict:
        return _fail(f"realize exit code {code} does not match verdict {verdict}", checked.verdict, checked.counters)
    if code == 0:
        pattern = IncidencePattern.from_matrix(
            tr.parse_matrix(open(os.path.join(out.directory, "red.pattern.tropmat")).read())
        )
        cfg = tr.parse_configuration(open(os.path.join(out.directory, "red.cert.txt")).read())
        problem = tr.check_realization_exact(pattern, cfg.points, cfg.lines, field=cfg.field)
        if problem:
            return _fail(f"realize certificate does not check: {problem}", checked.verdict, checked.counters)
    return checked


def _lift_cli_run(directory, pattern, seed, calls):
    os.makedirs(directory, exist_ok=True)
    verdict = calls.call("realize", tr.realize_rank3, pattern, field=None, seed=seed)
    lift = calls.call("series", tr.lift_from_configuration, pattern, verdict.configuration, seed=seed)
    m = calls.call("patterns", pattern.to_tropical)
    matrix_path = os.path.join(directory, "cfg.tropmat")
    lift_path = os.path.join(directory, "cfg.troplift")
    with open(matrix_path, "w") as fh:
        fh.write(calls.call("tropical", tr.format_matrix, m))
    with open(lift_path, "w") as fh:
        fh.write(calls.call("series", tr.format_lift, lift))
    argv = ["--json", "verify-lift", "--matrix", matrix_path, "--lift", lift_path, "--rank", "3"]
    code, stdout = calls.call("cli", cli_main, argv)
    return CliOut(directory, [("verify-lift", code, stdout)], verdict)


def _lift_cli_check(pattern, out: CliOut) -> Checked:
    problem = _realized_problem(pattern, out.extra, None)
    if problem:
        return _fail(f"realization does not check: {problem}", "realized")
    checked = _cli_check({"verify-lift": ({0}, ("accepted", "truncation_limited"))}, out)
    if checked.problem:
        return checked
    cells = pattern.rows * pattern.cols
    checked.counters.update(_realize_counters(out.extra))
    checked.counters.update(
        {
            "tropical.cells": cells,
            "tropical.text_bytes": os.path.getsize(os.path.join(out.directory, "cfg.tropmat")),
            "patterns.cells": cells,
        }
    )
    return checked


def _configuration_pattern(rng, npts) -> IncidencePattern:
    """Pattern of a random rational configuration: lines through point pairs."""
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(npts)]
        lines = []
        for a, b in itertools.combinations(pts, 2):
            ln = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
            if any(ln) and ln not in lines and tuple(-c for c in ln) not in lines:
                lines.append(ln)
        if any(not any(p) for p in pts) or len(lines) < npts:
            continue
        lines = lines[:npts]
        bits = [[int(sum(p[k] * ln[k] for k in range(3)) == 0) for ln in lines] for p in pts]
        return IncidencePattern.from_rows(bits)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def reduce_realize(seed: int) -> list:
    rng = random.Random(f"reduce-realize:{seed}")
    jobs = []
    systems = [_poly_system(rng, nv, neq) for nv, neq in SYSTEM_SHAPES]

    def compile_job(name, i, bits, nodes, known=None):
        text, sols = systems[i]
        run = partial(_compile_run, parse_poly_system(text), sols, rng.randrange(2**31), bits, nodes)
        jobs.append(Job(name, run, _compile_check, known_defect=known))

    for i in range(len(systems)):
        compile_job(f"unhardened/{i:02d}", i, None, REALIZE_NODES_UNHARDENED)
    for i in range(HARDENED_SYSTEMS):
        compile_job(f"bits10/{i}", i, 10, REALIZE_NODES_HARDENED if i == 0 else None)
    compile_job("bits16/0", 0, 16, None)
    # Shuffled, so that each kind of compile meets a mix of the machine's fast
    # and slow spells.  The largest pattern (bits 32) comes after them all, so
    # that the heap it grows from, and so peak RSS, does not depend on the
    # order; the CLI jobs below keep their order, as they share files.
    rng.shuffle(jobs)
    compile_job(
        f"bits{DEFECT_BITS}/0", 0, DEFECT_BITS, None,
        known="verify_reduction rejected the lifted solution: incidence (",
    )
    float_system = parse_poly_system(_poly_system(random.Random(FLOAT_SEED), 1, 1)[0])
    jobs.append(
        Job("float/unhardened", partial(_float_run, float_system), _float_check, frozenset({"float"}), seeded=False)
    )

    # Paths are relative to the round's working directory.
    inputs = "inputs"
    os.makedirs(inputs, exist_ok=True)
    det_m = _ladder_matrix(rng, 8)
    det_path = os.path.join(inputs, "det.tropmat")
    _write(det_path, tr.format_matrix(det_m))
    sys_path = os.path.join(inputs, "system.txt")
    _write(sys_path, systems[1][0])
    s = str(seed)

    plane_dir = "cli-plane"
    pg = os.path.join(plane_dir, "pg")
    argvs = [("gen-plane", ["--json", "gen-plane", "--order", "3", "--weights", "random", "--seed", s, "--out", pg])]
    contract = {"gen-plane": ({0}, ("points", "incidences"))}
    jobs.append(Job("cli/gen-plane", partial(_cli_run, plane_dir, argvs), partial(_cli_check, contract)))
    rank_dir = "cli-rank"
    argvs = [("rank", ["--json", "rank", pg + ".tropmat", "--kind", "tropical", "--seed", s,
                       "--out", os.path.join(rank_dir, "pg")])]
    contract = {"rank": ({0}, ("rank", "certified", "refuted_level"))}
    jobs.append(Job("cli/rank", partial(_cli_run, rank_dir, argvs), partial(_rank_contract_check, contract)))

    det_dir = "cli-det"
    jobs.append(
        Job(
            "cli/det",
            partial(_cli_run, det_dir, [("det", ["--json", "det", det_path])]),
            partial(_det_cli_check, det_m),
        )
    )

    red_dir = "cli-reduce"
    red = os.path.join(red_dir, "red")
    argvs = [
        ("reduce", ["--json", "reduce", "--polys", sys_path, "--harden", "off", "--seed", s, "--out", red]),
        ("realize", ["--json", "realize", "--pattern", red + ".pattern.tropmat", "--field", "q",
                     "--budget", str(REALIZE_NODES_UNHARDENED), "--seed", s, "--out", red]),
    ]
    jobs.append(Job("cli/reduce-realize", partial(_cli_run, red_dir, argvs), _realize_cli_check))

    cfg_pattern = _configuration_pattern(rng, 6)
    jobs.append(
        Job(
            "cli/verify-lift",
            partial(_lift_cli_run, "cli-lift", cfg_pattern, seed),
            partial(_lift_cli_check, cfg_pattern),
        )
    )

    # Known seed defect: without --seed, `rank` prints its drawn seed on stdout
    # ahead of the JSON manifest.
    noseed_dir = "cli-noseed"
    argvs = [("rank-noseed", ["--json", "rank", pg + ".tropmat", "--kind", "tropical", "--out",
                              os.path.join(noseed_dir, "pg")])]
    jobs.append(
        Job(
            "cli/rank-json-noseed",
            partial(_cli_run, noseed_dir, argvs),
            partial(_noseed_check, {"rank-noseed": ({0}, ("rank", "certified", "refuted_level"))}),
            known_defect="--json stdout does not parse: seed not given",
        )
    )
    return jobs


def _noseed_check(contract, out: CliOut) -> Checked:
    checked = _rank_contract_check(contract, out)
    # the drawn seed is in the manifest, so only the verdict is deterministic
    checked.cert = checked.verdict
    return checked


def exact_reduce(seed: int) -> list:
    """Many small exact calls, then the compile pipeline on large patterns."""
    return small_exact(seed) + reduce_realize(seed)


WORKLOADS = {
    "plane-rank": plane_rank,
    "exact-reduce": exact_reduce,
}
