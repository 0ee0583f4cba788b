import json
import os
import subprocess
import sys

import troprank
from troprank import min_plus_multiply, parse_matrix
from troprank.barvinok import DEFAULT_COVERING_BUDGET
from troprank.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_import_loads_no_scipy():
    """The package and its CLI import in a fresh interpreter without loading
    scipy: numpy is the only dependency."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(troprank.__file__)))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, troprank, troprank.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_det_tie(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 0\n0 0\n")
    code, out, _ = run(["det", f], capsys)
    assert code == 0
    assert "value 0" in out and "unique false" in out


def test_det_identity(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 inf\ninf 0\n")
    code, out, _ = run(["det", f], capsys)
    assert code == 0 and "unique true" in out


def test_det_parse_error(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 2 3\n0 1 2\n3 4 5\n")
    code, _, err = run(["det", f], capsys)
    assert code == 1


def test_det_zero_denominator_is_a_parse_error(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 1/0\n0 0\n")
    code, out, err = run(["det", f], capsys)
    assert code == 1 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


def test_rank_tropical_fano(tmp_path, capsys):
    code, out, _ = run(
        ["gen-plane", "--order", "2", "--weights", "unit", "--seed", "1",
         "--out", str(tmp_path / "fano")],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["rank", str(tmp_path / "fano.tropmat"), "--kind", "tropical", "--seed", "1",
         "--out", str(tmp_path / "r")],
        capsys,
    )
    assert code == 0 and "tropical rank 3" in out
    assert (tmp_path / "r.witness.txt").exists()
    assert (tmp_path / "r.manifest.json").exists()


def test_rank_barvinok_budget_stop_exit_3(tmp_path, capsys):
    code, _, _ = run(
        ["gen-plane", "--order", "2", "--weights", "unit", "--seed", "1",
         "--out", str(tmp_path / "fano")],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["--json", "rank", str(tmp_path / "fano.tropmat"), "--kind", "barvinok",
         "--budget", "5000", "--seed", "1"],
        capsys,
    )
    assert code == 3
    verdict = json.loads(out)["verdict"]
    assert verdict["rank"] is None
    assert verdict["budget_exhausted"] is True and verdict["coverings_tested"] == 5000


def test_rank_barvinok_default_budget_stops_on_fano(tmp_path, capsys):
    """Without --budget the factorization search stops at the default
    covering budget (the one kapranov_bounds uses), which the manifest
    records, and exits 3 on unit Fano.  The search runs in a child process
    under a wall-clock limit, so a lost default budget fails the test
    instead of hanging it."""
    code, _, _ = run(
        ["gen-plane", "--order", "2", "--weights", "unit", "--seed", "1",
         "--out", str(tmp_path / "fano")],
        capsys,
    )
    assert code == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(troprank.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run(
        [sys.executable, "-m", "troprank.cli", "--json", "rank", str(tmp_path / "fano.tropmat"),
         "--kind", "barvinok", "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 3, child.stderr
    doc = json.loads(child.stdout)
    assert doc["budgets"]["budget"] == DEFAULT_COVERING_BUDGET == 200_000
    verdict = doc["verdict"]
    assert verdict["rank"] is None and verdict["budget_exhausted"] is True
    assert verdict["coverings_tested"] == DEFAULT_COVERING_BUDGET


def test_rank_barvinok_factorization_files(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 3 3\n0 1 1\n1 0 1\n0 0 1\n")
    prefix = str(tmp_path / "b")
    code, out, _ = run(
        ["--json", "rank", f, "--kind", "barvinok", "--seed", "1", "--out", prefix],
        capsys,
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert (verdict["rank"], verdict["coverings_tested"]) == (2, 28)
    left = parse_matrix((tmp_path / "b.left.tropmat").read_text())
    right = parse_matrix((tmp_path / "b.right.tropmat").read_text())
    assert min_plus_multiply(left, right) == parse_matrix((tmp_path / "m.tropmat").read_text())


def test_rank_bounds_all_zeros(tmp_path, capsys):
    f = write(tmp_path, "z.tropmat", "tropmat 4 4\n" + "0 0 0 0\n" * 4)
    code, out, _ = run(["rank", f, "--kind", "bounds", "--seed", "1"], capsys)
    assert code == 0
    assert "lower 1 upper 1 tight" in out


def test_rank_bounds_json_verdict_keys_and_exit(tmp_path, capsys):
    """--kind bounds records exactly lower, upper, tight, lower_certified and
    notes, and exits 0 iff the lower bound is certified: unit Fano, whose
    factorization search stops at its budget (upper bound min(rows, cols)),
    exits 0; weighted PG(2,3) under a 50-pair tropical-rank budget exits 3."""
    cases = (
        (["--order", "2", "--weights", "unit"], [], 0),
        (["--order", "3", "--weights", "random"], ["--budget", "50"], 3),
    )
    verdicts = []
    for gen, budget, expected_code in cases:
        code, _, _ = run(["gen-plane", *gen, "--seed", "1", "--out", str(tmp_path / "p")], capsys)
        assert code == 0
        code, out, _ = run(
            ["--json", "rank", str(tmp_path / "p.tropmat"), "--kind", "bounds", *budget, "--seed", "1"],
            capsys,
        )
        verdict = json.loads(out)["verdict"]
        assert sorted(verdict) == ["lower", "lower_certified", "notes", "tight", "upper"]
        assert code == expected_code == (0 if verdict["lower_certified"] else 3)
        verdicts.append(verdict)
    fano, pg3 = verdicts
    assert (fano["lower"], fano["upper"], fano["tight"]) == (4, 7, False)
    assert any("factorization search inconclusive" in n for n in fano["notes"])
    assert any("tropical rank budget exhausted" in n for n in pg3["notes"])


def test_rank_budget_partial_exit_3(tmp_path, capsys):
    code, _, _ = run(
        ["gen-plane", "--order", "3", "--seed", "1", "--out", str(tmp_path / "p3")],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["rank", str(tmp_path / "p3.tropmat"), "--kind", "tropical",
         "--budget", "50", "--seed", "1"],
        capsys,
    )
    assert code == 3


def test_rank_negative_budget_exit_1(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 1\n1 0\n")
    for kind in ("tropical", "barvinok", "bounds"):
        code, _, err = run(["rank", f, "--kind", kind, "--budget", "-1", "--seed", "1"], capsys)
        assert code == 1, kind
        assert err.startswith("error: ") and "negative" in err, kind


def test_rank_tropical_kmax_cap_is_a_lower_bound(tmp_path, capsys):
    """A witness at --kmax below min(rows, cols) shows only rank >= kmax:
    Fano's tropical rank is 3, so --kmax 2 and 3 print lower bounds.  A cap
    the search would not reach, or one at the matrix size, prints the rank."""
    code, _, _ = run(
        ["gen-plane", "--order", "2", "--weights", "unit", "--seed", "1", "--out", str(tmp_path / "fano")],
        capsys,
    )
    assert code == 0
    fano = str(tmp_path / "fano.tropmat")
    for kmax in (2, 3):
        code, out, _ = run(["rank", fano, "--kind", "tropical", "--kmax", str(kmax), "--seed", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"tropical rank at least {kmax} (search capped by --kmax)"
    code, out, _ = run(["rank", fano, "--kind", "tropical", "--kmax", "4", "--seed", "1"], capsys)
    assert code == 0 and out.splitlines()[0] == "tropical rank 3 (certified True)"
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 inf\ninf 0\n")
    code, out, _ = run(["rank", f, "--kind", "tropical", "--kmax", "2", "--seed", "1"], capsys)
    assert code == 0 and out.splitlines()[0] == "tropical rank 2 (certified True)"


def test_rank_tropical_json_says_when_kmax_caps(tmp_path, capsys):
    """--json: "capped" is true when a witness reached a --kmax below
    min(rows, cols), so "rank" is a lower bound; rank, certified and
    refuted_level keep their values."""
    code, _, _ = run(
        ["gen-plane", "--order", "2", "--weights", "unit", "--seed", "1", "--out", str(tmp_path / "fano")],
        capsys,
    )
    assert code == 0
    fano = str(tmp_path / "fano.tropmat")
    got = {}
    for kmax in (2, 4):
        code, out, _ = run(["--json", "rank", fano, "--kind", "tropical", "--kmax", str(kmax), "--seed", "1"], capsys)
        assert code == 0
        verdict = json.loads(out)["verdict"]
        got[kmax] = tuple(verdict[key] for key in ("rank", "certified", "refuted_level", "capped"))
    assert got == {2: (2, True, None, True), 4: (3, True, 4, False)}


def test_rank_negative_kmax_exit_1(tmp_path, capsys):
    # A rank-2 matrix: not "tropical rank 0 (certified True)" and not "exceeds kmax -1".
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 1\n1 0\n")
    for kind in ("tropical", "barvinok", "bounds"):
        code, out, err = run(["rank", f, "--kind", kind, "--kmax", "-1", "--seed", "1"], capsys)
        assert code == 1 and "rank" not in out, kind
        assert err.startswith("error: ") and "negative" in err and "-1" in err, kind


def test_gen_plane_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out_prefix in (a, b):
        code, _, _ = run(
            ["gen-plane", "--order", "3", "--weights", "random", "--seed", "7",
             "--out", out_prefix],
            capsys,
        )
        assert code == 0
    assert open(a + ".tropmat").read() == open(b + ".tropmat").read()
    assert open(a + ".plane.txt").read() == open(b + ".plane.txt").read()


def test_gen_plane_unsupported_order(tmp_path, capsys):
    code, _, err = run(["gen-plane", "--order", "6", "--seed", "1"], capsys)
    assert code == 1


def test_reduce_and_realize_pipeline(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    code, out, _ = run(
        ["reduce", "--cnf", cnf, "--seed", "3", "--harden", "off",
         "--out", str(tmp_path / "red")],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "red.pattern.tropmat").exists()
    assert (tmp_path / "red.provenance.txt").exists()


def test_reduce_empty_clause(tmp_path, capsys):
    cnf = write(tmp_path, "bad.cnf", "p cnf 1 1\n0\n")
    code, _, _ = run(
        ["reduce", "--cnf", cnf, "--seed", "3", "--harden", "off",
         "--out", str(tmp_path / "red2")],
        capsys,
    )
    assert code == 0  # compilation succeeds; realizability later fails


def test_reduce_malformed(tmp_path, capsys):
    cnf = write(tmp_path, "bad.cnf", "p cnf x y\n1 0\n")
    code, _, _ = run(["reduce", "--cnf", cnf, "--seed", "3"], capsys)
    assert code == 1


def test_reduce_negative_bits_exit_1(tmp_path, capsys):
    polys = write(tmp_path, "s.txt", "x1^2 - 4\n")
    code, _, err = run(["reduce", "--polys", polys, "--bits", "-2", "--seed", "1",
                        "--out", str(tmp_path / "red")], capsys)
    assert code == 1 and err == "error: negative stand-in bit size -2\n"
    assert not (tmp_path / "red.pattern.tropmat").exists()


def test_realize_negative_budget_exit_1(tmp_path, capsys):
    f = write(tmp_path, "id.tropmat", "tropmat 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(["realize", "--pattern", f, "--budget", "-1", "--seed", "1",
                          "--out", str(tmp_path / "id")], capsys)
    assert code == 1 and "exhausted" not in out + err
    assert err.startswith("error: negative budget in RealizeBudget(nodes=-1")


def test_realize_identity_exit_0(tmp_path, capsys):
    f = write(tmp_path, "id.tropmat", "tropmat 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(
        ["realize", "--pattern", f, "--field", "q", "--seed", "1",
         "--out", str(tmp_path / "id")],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "id.cert.txt").exists()


def test_realize_fano_exits(tmp_path, capsys):
    code, _, _ = run(
        ["gen-plane", "--order", "2", "--seed", "1", "--out", str(tmp_path / "fano")],
        capsys,
    )
    code, out, _ = run(
        ["realize", "--pattern", str(tmp_path / "fano.tropmat"), "--field", "q",
         "--seed", "1", "--out", str(tmp_path / "fq")],
        capsys,
    )
    assert code == 2
    assert (tmp_path / "fq.trace.txt").exists()  # trace written on the negative
    code, out, _ = run(
        ["realize", "--pattern", str(tmp_path / "fano.tropmat"), "--field", "gf2",
         "--seed", "1", "--out", str(tmp_path / "fg")],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "fg.cert.txt").exists()


def test_realize_prime_outside_field_tables_exit_0(tmp_path, capsys):
    """GF(17) has no arithmetic tables; the certificate is still written and
    re-checked."""
    f = write(tmp_path, "id.tropmat", "tropmat 2 2\n1 0\n0 1\n")
    code, _, err = run(
        ["realize", "--pattern", f, "--field", "gf17", "--seed", "1", "--out", str(tmp_path / "g17")],
        capsys,
    )
    assert code == 0, err
    assert (tmp_path / "g17.cert.txt").read_text().startswith("field gf17\n")


def test_verify_lift_cli(tmp_path, capsys):
    m = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 1\n1 0\n")
    lift = write(
        tmp_path,
        "L.troplift",
        "troplift 2 2 q 3\n0 0 : 1*t^0\n0 1 : 1*t^1\n1 0 : 1*t^1\n1 1 : 1*t^0\n",
    )
    code, out, _ = run(["verify-lift", "--matrix", m, "--lift", lift, "--rank", "2"], capsys)
    assert code == 0 and "accept" in out
    code, out, _ = run(["verify-lift", "--matrix", m, "--lift", lift, "--rank", "1"], capsys)
    assert code == 2 and "reject" in out


def test_verify_lift_indeterminate(tmp_path, capsys):
    m = write(tmp_path, "m.tropmat", "tropmat 1 1\n4\n")
    lift = write(tmp_path, "L.troplift", "troplift 1 1 q 3\n0 0 : 0\n")
    code, out, _ = run(["verify-lift", "--matrix", m, "--lift", lift, "--rank", "1"], capsys)
    assert code == 2 and "indeterminate" in out


def test_verify_lift_rejects_stray_entry_line(tmp_path, capsys):
    m = write(tmp_path, "m.tropmat", "tropmat 1 1\n0\n")
    lift = write(tmp_path, "L.troplift", "troplift 1 1 q inf\n0 0 : 1*t^0\n5 7 : 3*t^1\n")
    code, _, err = run(["verify-lift", "--matrix", m, "--lift", lift, "--rank", "1"], capsys)
    assert code == 1 and "outside" in err


def test_verify_lift_rejects_composite_field(tmp_path, capsys):
    # Over Z/4 this lift has rank 1 (2*3 - 1*2 = 4 = 0), but Z/4 is not a field.
    m = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 0\n0 0\n")
    lift = write(
        tmp_path,
        "L.troplift",
        "troplift 2 2 gf4 inf\n0 0 : 2*t^0\n0 1 : 1*t^0\n1 0 : 2*t^0\n1 1 : 3*t^0\n",
    )
    code, _, err = run(["--json", "verify-lift", "--matrix", m, "--lift", lift, "--rank", "1"], capsys)
    assert code == 1 and "not prime" in err


def test_verify_lift_zero_denominator_is_a_parse_error(tmp_path, capsys):
    m = write(tmp_path, "m.tropmat", "tropmat 1 1\n0\n")
    for name, text in (
        ("trunc", "troplift 1 1 q 3/0\n0 0 : 1*t^0\n"),
        ("coeff", "troplift 1 1 q inf\n0 0 : 2/0*t^0\n"),
        ("exp", "troplift 1 1 q inf\n0 0 : 1*t^1/0\n"),
    ):
        lift = write(tmp_path, f"{name}.troplift", text)
        code, _, err = run(["verify-lift", "--matrix", m, "--lift", lift, "--rank", "1"], capsys)
        assert code == 1 and err.startswith("error: zero denominator in '"), (name, err)


def test_verify_lift_negative_rank_exit_1(tmp_path, capsys):
    m = write(tmp_path, "m.tropmat", "tropmat 1 1\n0\n")
    lift = write(tmp_path, "L.troplift", "troplift 1 1 q inf\n0 0 : 1*t^0\n")
    code, out, err = run(["verify-lift", "--matrix", m, "--lift", lift, "--rank", "-1"], capsys)
    assert code == 1 and "reject" not in out
    assert err == "error: negative rank -1\n"


def test_json_output(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 1 1\n0\n")
    code, out, _ = run(["--json", "det", f], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["value"] == "0"
    assert "fingerprint" in doc


def test_round_trip_written_files_are_consumable(tmp_path, capsys):
    code, _, _ = run(
        ["gen-plane", "--order", "2", "--seed", "1", "--out", str(tmp_path / "f")],
        capsys,
    )
    code, out, _ = run(["det", str(tmp_path / "f.tropmat")], capsys)
    assert code == 0


def test_manifest_fingerprint_deterministic(tmp_path, capsys):
    f = write(tmp_path, "m.tropmat", "tropmat 2 2\n0 1\n1 0\n")
    prints = []
    for _ in range(2):
        code, out, _ = run(["--json", "det", f], capsys)
        doc = json.loads(out)
        prints.append(doc["fingerprint"])
    assert prints[0] == prints[1]
