"""Command-line front end.

Exit codes: 0 certified positive, 2 certified negative, 3 inconclusive or
budget-limited, 1 usage/parse/internal error.  Every run writes a manifest;
all randomness flows from one --seed (drawn and printed when absent).
Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys as _sys
import tempfile
import time

from . import __version__
from .barvinok import DEFAULT_COVERING_BUDGET, barvinok_rank
from .patterns import IncidencePattern, format_configuration, parse_field_tag
from .plane import format_plane_sidecar, incidence_matrix, projective_plane
from .rank import tropical_rank
from .realize import ProvedInfeasible, Realized, RealizeBudget, kapranov_bounds, realize_rank3
from .reduction import (
    cnf_to_polys,
    compile_system,
    format_poly_system,
    format_provenance,
    harden,
    parse_dimacs,
    parse_poly_system,
)
from .assignment import tropical_determinant
from .series import parse_lift, verify_lift
from .tropical import format_matrix, format_value, parse_matrix
from .galois import UnsupportedOrder


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-troprank-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


class Manifest:
    """Run record.  Verdict fields depend only on inputs, seed and budgets;
    wall-clock time is kept outside the canonical (fingerprinted) part."""

    def __init__(self, subcommand, inputs, seed, budgets):
        self.data = {
            "subcommand": subcommand,
            "inputs": {name: _digest(p) for name, p in inputs.items()},
            "seed": seed,
            "budgets": budgets,
            "version": __version__,
            "verdict": {},
        }
        self.wall_clock_s = None
        self._t0 = time.monotonic()

    def finish(self, **verdict):
        self.data["verdict"] = verdict
        self.wall_clock_s = round(time.monotonic() - self._t0, 6)

    def canonical(self) -> str:
        return json.dumps(self.data, sort_keys=True, default=str)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def full(self) -> str:
        doc = dict(self.data)
        doc["wall_clock_s"] = self.wall_clock_s
        doc["fingerprint"] = self.fingerprint()
        return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


def _emit(args, manifest, out_prefix, message):
    if out_prefix:
        _atomic_write(out_prefix + ".manifest.json", manifest.full())
    if getattr(args, "json", False):
        print(manifest.full(), end="")
    else:
        print(message)
        if manifest.wall_clock_s is not None:
            print(f"(seed {manifest.data['seed']}, {manifest.wall_clock_s:.3f}s)")


def _seed_of(args) -> int:
    if args.seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
        print(f"seed not given; drew {seed}")
        return seed
    return args.seed


def _prefix(args, default_stem):
    if getattr(args, "out", None):
        return args.out
    return default_stem


def cmd_det(args) -> int:
    man = Manifest("det", {"matrix": args.matrix}, None, {})
    m = parse_matrix(_read(args.matrix))
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    cert = tropical_determinant(m)
    witness = None if cert.witness is None else [int(x) for x in cert.witness]
    man.finish(
        value=format_value(cert.value),
        witness=witness,
        unique=cert.unique,
    )
    _emit(
        args,
        man,
        _prefix(args, None),
        f"value {format_value(cert.value)}, witness {witness}, unique {str(cert.unique).lower()}",
    )
    return 0


def cmd_rank(args) -> int:
    seed = _seed_of(args)
    budget = args.budget
    if args.kind == "barvinok" and budget is None:
        budget = DEFAULT_COVERING_BUDGET
    man = Manifest("rank", {"matrix": args.matrix}, seed, {"budget": budget, "kmax": args.kmax})
    m = parse_matrix(_read(args.matrix))
    prefix = _prefix(args, os.path.splitext(args.matrix)[0] + f".{args.kind}")
    if args.kind == "tropical":
        res = tropical_rank(m, limit=args.kmax, budget=args.budget)
        man.finish(
            rank=res.rank,
            certified=res.certified,
            refuted_level=res.refuted_level,
            budget_exhausted=res.budget_exhausted,
            row_witness=res.row_witness,
            col_witness=res.col_witness,
        )
        if res.row_witness is not None:
            _atomic_write(
                prefix + ".witness.txt",
                f"rows {' '.join(map(str, res.row_witness))}\n"
                f"cols {' '.join(map(str, res.col_witness))}\n",
            )
        if res.certified and res.refuted_level is None and res.rank < min(m.rows, m.cols):
            _emit(args, man, prefix, f"tropical rank at least {res.rank} (search capped by --kmax)")
        else:
            _emit(args, man, prefix, f"tropical rank {res.rank} (certified {res.certified})")
        return 0 if res.certified else 3
    if args.kind == "barvinok":
        res = barvinok_rank(m, kmax=args.kmax, budget=budget)
        man.finish(
            rank=res.rank,
            exceeded_kmax=res.exceeded_kmax,
            budget_exhausted=res.budget_exhausted,
            coverings_tested=res.coverings_tested,
        )
        if res.factorization is not None:
            _atomic_write(prefix + ".left.tropmat", format_matrix(res.factorization.left))
            _atomic_write(prefix + ".right.tropmat", format_matrix(res.factorization.right))
            _emit(args, man, prefix, f"barvinok rank {res.rank}")
            return 0
        if res.exceeded_kmax:
            _emit(args, man, prefix, f"barvinok rank exceeds kmax {args.kmax}")
            return 2
        _emit(args, man, prefix, "barvinok search budget exhausted")
        return 3
    # bounds
    res = kapranov_bounds(
        m,
        kmax=args.kmax,
        rank_budget=args.budget,
        barvinok_budget=args.budget,
        seed=seed,
    )
    man.finish(
        lower=res.lower,
        upper=res.upper,
        tight=res.tight,
        lower_certified=res.lower_certified,
        upper_certified=res.upper_certified,
        notes=list(res.notes),
    )
    tight = "tight" if res.tight else "not tight"
    _emit(args, man, prefix, f"lower {res.lower} upper {res.upper} {tight}")
    return 0 if (res.lower_certified and res.upper_certified) else 3


def cmd_gen_plane(args) -> int:
    seed = _seed_of(args)
    man = Manifest("gen-plane", {}, seed, {"order": args.order, "weights": args.weights})
    plane = projective_plane(args.order)
    m = incidence_matrix(plane, scheme=args.weights, seed=seed)
    prefix = _prefix(args, f"pg2-{args.order}")
    _atomic_write(prefix + ".tropmat", format_matrix(m))
    _atomic_write(prefix + ".plane.txt", format_plane_sidecar(plane))
    man.finish(
        order=args.order,
        points=plane.size,
        incidences=plane.incidence_count(),
        matrix=prefix + ".tropmat",
    )
    _emit(
        args,
        man,
        prefix,
        f"PG(2,{args.order}): {plane.size} points, {plane.incidence_count()} incidences",
    )
    return 0


def cmd_reduce(args) -> int:
    seed = _seed_of(args)
    inputs = {}
    if args.cnf:
        inputs["cnf"] = args.cnf
    if args.polys:
        inputs["polys"] = args.polys
    man = Manifest("reduce", inputs, seed, {"harden": args.harden})
    if args.cnf:
        clauses, nvars = parse_dimacs(_read(args.cnf))
        system = cnf_to_polys(clauses, nvars)
        stem = os.path.splitext(args.cnf)[0]
    else:
        system = parse_poly_system(_read(args.polys))
        stem = os.path.splitext(args.polys)[0]
    if args.harden == "on":
        system, _info = harden(system, seed, stand_in_bits=args.bits)
        hardened = True
    else:
        hardened = False
    compiled = compile_system(system, seed)
    prefix = _prefix(args, stem)
    _atomic_write(prefix + ".pattern.tropmat", format_matrix(compiled.pattern.to_tropical()))
    _atomic_write(prefix + ".provenance.txt", format_provenance(compiled))
    _atomic_write(prefix + ".system.txt", format_poly_system(system))
    man.finish(
        hardened=hardened,
        rows=compiled.pattern.rows,
        cols=compiled.pattern.cols,
        asserted=len(compiled.asserted),
        witness_attempts=compiled.witness_attempts,
    )
    _emit(
        args,
        man,
        prefix,
        f"pattern {compiled.pattern.rows}x{compiled.pattern.cols} "
        f"({'hardened' if hardened else 'unhardened'})",
    )
    return 0


def cmd_realize(args) -> int:
    seed = _seed_of(args)
    man = Manifest(
        "realize", {"pattern": args.pattern}, seed, {"budget": args.budget, "field": args.field}
    )
    m = parse_matrix(_read(args.pattern))
    pattern = IncidencePattern.from_matrix(m)
    field = parse_field_tag(args.field)
    budget = RealizeBudget() if args.budget is None else RealizeBudget(
        nodes=args.budget, restarts=max(1, args.budget // 2000)
    )
    verdict = realize_rank3(pattern, field=field, seed=seed, budget=budget)
    prefix = _prefix(args, os.path.splitext(args.pattern)[0])
    if isinstance(verdict, Realized):
        man.finish(verdict="realized", detail=verdict.detail)
        _atomic_write(prefix + ".cert.txt", format_configuration(verdict.configuration))
        _emit(args, man, prefix, f"realized ({verdict.detail}); certificate {prefix}.cert.txt")
        return 0
    if isinstance(verdict, ProvedInfeasible):
        man.finish(verdict="infeasible", closed_branches=len(verdict.trace))
        _atomic_write(prefix + ".trace.txt", "\n".join(verdict.trace) + "\n")
        _emit(args, man, prefix, f"proved infeasible; trace {prefix}.trace.txt")
        return 2
    man.finish(verdict="unknown", report=verdict.report)
    _atomic_write(prefix + ".report.txt", verdict.report + "\n")
    _emit(args, man, prefix, f"unknown: {verdict.report}")
    return 3


def cmd_verify_lift(args) -> int:
    man = Manifest(
        "verify-lift", {"matrix": args.matrix, "lift": args.lift}, None, {"rank": args.rank}
    )
    m = parse_matrix(_read(args.matrix))
    lift = parse_lift(_read(args.lift))
    verdict = verify_lift(m, lift, args.rank)
    man.finish(
        accepted=verdict.accepted,
        reason=verdict.reason,
        truncation_limited=verdict.truncation_limited,
    )
    if verdict.accepted:
        extra = " (truncation-limited)" if verdict.truncation_limited else ""
        _emit(args, man, _prefix(args, None), f"accept{extra}")
        return 0
    _emit(args, man, _prefix(args, None), f"reject: {verdict.reason}")
    return 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="troprank",
        description="min-plus matrix ranks, projective-plane instances, lift "
        "certificates, and incidence-gadget compilation",
    )
    ap.add_argument("--json", action="store_true", help="mirror the report as JSON on stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="tropical determinant with uniqueness")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_det, seed=None)

    p = sub.add_parser("rank", help="tropical/barvinok rank or both bounds")
    p.add_argument("matrix")
    p.add_argument("--kind", choices=["tropical", "barvinok", "bounds"], default="tropical")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("gen-plane", help="projective plane incidence matrix")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--weights", choices=["unit", "random"], default="unit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_plane)

    p = sub.add_parser("reduce", help="compile CNF or polynomial system to a pattern")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cnf")
    group.add_argument("--polys")
    p.add_argument("--harden", choices=["on", "off"], default="on")
    p.add_argument(
        "--bits",
        type=int,
        default=16,
        help="bit size of the hardening stand-in constants (pattern size grows with it)",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("realize", help="rank-3 realizability of a (0,1) pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--field", default="q", help="q | gf<p> | float")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify-lift", help="check a lift certificate against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--lift", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_lift)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, UnsupportedOrder) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except Exception as exc:  # internal defect
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
