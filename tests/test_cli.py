import cmath
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfzeros import cli, pcf_eval, refine
from pcfzeros import zeros as zmod
from pcfzeros.errors import ConvergenceError
from pcfzeros.zeros import hermite_zeros

import oracles

TABLE2 = {
    1: complex(-1.3827361451259055, 6.6036342033286323),
    2: complex(-2.3669709875573483, 7.2507650105186024),
    3: complex(-3.1430343931950775, 7.7865053482195365),
}


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_zeros_apos_against_published_values(capsys):
    rc, out = run_cli(capsys, ["zeros", "--a", "8.3", "--family", "apos",
                               "--count", "3", "--jobs", "1"])
    assert rc == 0
    assert out.startswith("# pcfzeros zeros v1 ")
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        m = int(row["m"])
        z = complex(float(row["z_refined_re"]), float(row["z_refined_im"]))
        assert abs(z - TABLE2[m]) <= 5e-13 * abs(TABLE2[m])
        assert float(row["eps1"]) < 1e-8


def test_zeros_positive_family_full_enumeration(capsys):
    # u = 61 (Hermite H_30): exactly 15 positive zeros
    rc, out = run_cli(capsys, ["zeros", "--a", "-30.5", "--family", "pos",
                               "--jobs", "1", "--no-refine"])
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 15
    assert all(row["z_refined_re"] == "" for row in rows)


def test_zeros_auto_enumerates_all_families(capsys):
    rc, out = run_cli(capsys, ["zeros", "--a", "-6.2", "--count", "2",
                               "--jobs", "1", "--no-refine"])
    assert rc == 0
    rows = parse_csv(out)
    fams = {}
    for row in rows:
        fams.setdefault(row["family"], []).append(int(row["m"]))
    assert sorted(fams["aneg-positive"]) == [1, 2, 3]
    assert sorted(fams["aneg-nonpositive"]) == [1, 2, 3]
    assert sorted(fams["aneg-complex"]) == [1, 2]


@pytest.mark.parametrize("family,kind", [
    ("apos", "apos-complex"), ("pos", "aneg-positive"),
    ("nonpos", "aneg-nonpositive"), ("complex", "aneg-complex")])
@pytest.mark.parametrize("a", [8.3, 0.05, -0.6, -0.7, -6.2, -6.5, -30.7606])
def test_explicit_family_rows_are_the_auto_rows(capsys, a, family, kind):
    # -0.6: vartheta = 1, the non-positive zeros start at index 0;
    # -0.7: u <= 3, no positive zeros; -6.5: Hermite, no complex zeros
    argv = ["zeros", "--a", repr(a), "--no-refine", "--format", "json",
            "--count", "4"]
    rc, out = run_cli(capsys, argv)
    assert rc == 0
    auto = [row for row in json.loads(out) if row["family"] == kind]
    rc, out = run_cli(capsys, argv + ["--family", family])
    if (kind == "apos-complex") != (a > 0):
        assert (rc, out) == (2, "")
    elif kind == "aneg-complex" and a == -6.5:
        assert (rc, out) == (3, "")
    else:
        assert rc == 0
        assert json.loads(out) == auto


def test_exit_code_bad_family(capsys):
    rc, _ = run_cli(capsys, ["zeros", "--a", "8.3", "--family", "pos"])
    assert rc == 2


@pytest.mark.parametrize("command", ["zeros", "validate"])
def test_exit_code_negative_count(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--a", "8.3", "--count", "-1"])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["nan", "inf", "-inf"])
def test_exit_code_non_finite_a(capsys, a):
    rc = cli.main(["zeros", f"--a={a}"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert "is not finite" in cap.err


_GRID_BOX = ["--re-max", "-5", "--im-min", "5", "--im-max", "6",
             "--nx", "2", "--ny", "2"]


@pytest.mark.parametrize("argv,joined", [
    (["zeros", "--a", "-1e3", "--family", "pos"],
     ["zeros", "--a=-1e3", "--family", "pos"]),
    (["phase-grid", "--a", "8.3", "--re-min", "-6e0"] + _GRID_BOX,
     ["phase-grid", "--a", "8.3", "--re-min=-6e0"] + _GRID_BOX),
], ids=["zeros", "phase-grid"])
def test_negative_values_in_exponent_notation(capsys, tmp_path, argv,
                                              joined):
    # argparse alone reads -1e3 as an unknown option (exit 2)
    outputs = []
    for i, words in enumerate((argv, joined)):
        path = tmp_path / f"{i}.csv"
        extra = ["--out", str(path)] if words[0] == "phase-grid" else []
        rc, out = run_cli(capsys, words + extra)
        assert rc == 0
        outputs.append(path.read_text() if extra else out)
    assert outputs[0] == outputs[1] != ""


def test_exit_code_polynomial_case(capsys):
    for a in ("-6.5", repr(-6.5 - 2.5e-13)):
        rc, _ = run_cli(capsys, ["zeros", "--a", a, "--family", "complex"])
        assert rc == 3, a


def _failures(err):
    """(m, point) of each non-convergence line on stderr."""
    return [(int(m), point) for m, point in
            re.findall(r"non-convergence at \S+ m=(\d+): U\(([^)]*\))",
                       err)]


def test_non_convergence_reports_each_task_and_exits_4(capsys):
    # at a = 1e6 every zero needs more mpmath digits than the cap allows
    outs = []
    for jobs in ("1", "2"):
        rc = cli.main(["zeros", "--a", "1e6", "--count", "3",
                       "--jobs", jobs])
        cap = capsys.readouterr()
        assert rc == 4
        fails = _failures(cap.err)
        assert len(cap.err.splitlines()) == len(fails) == 3
        assert [m for m, _ in fails] == [1, 2, 3]
        assert len({point for _, point in fails}) == 3
        outs.append(cap.out)
    assert outs[0] == outs[1]
    assert parse_csv(outs[0]) == []


def test_validate_reports_each_non_convergence_and_exits_4(capsys):
    rc = cli.main(["validate", "--a", "1e6", "--count", "2"])
    cap = capsys.readouterr()
    assert rc == 4
    fails = _failures(cap.err)
    assert len(cap.err.splitlines()) == len(fails) == 2
    assert [m for m, _ in fails] == [1, 2]
    assert len({point for _, point in fails}) == 2
    assert cap.out.startswith("# pcfzeros validate v1 ")
    assert parse_csv(cap.out) == []


def test_seed_on_the_turning_point_is_reported_and_the_rest_kept(capsys):
    # u = 10/3 to rounding: the m = 0 non-positive zero's leading term is
    # the turning point zhat = 1 itself; the corrections' limits there
    # move its seed to zhat = 1.002796, about 1e-5 from the zero, and all
    # four zeros are refined
    rc = cli.main(["zeros", "--a", "-1.6666666666666665", "--count", "2",
                   "--format", "json"])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.err == ""
    rows = json.loads(cap.out)
    assert [(r["family"], r["m"]) for r in rows] == [
        ("aneg-complex", 1), ("aneg-complex", 2), ("aneg-nonpositive", 0),
        ("aneg-positive", 1)]
    assert all(r["z_refined_re"] is not None for r in rows)
    row = rows[2]
    scale = 2.0 * math.sqrt(1.6666666666666665)
    seed, zero = -row["z_approx_re"] / scale, -row["z_refined_re"] / scale
    assert row["terms_used"] == 3
    assert abs(seed - 1.002796) < 1e-6
    assert abs(zero - seed) < 2e-5


def test_zeros_hermite_case_includes_the_origin(capsys):
    # u = 11: U(-5.5, x) = e^{-x^2/4} He_5(x), whose five zeros are
    # sqrt(2) times those of H_5; the middle one is the origin
    rc, out = run_cli(capsys, ["zeros", "--a", "-5.5", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 5
    got = sorted(r["z_refined_re"] for r in rows)
    want = [math.sqrt(2.0) * x for x in hermite_zeros(5)]
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


@pytest.mark.parametrize("a", [-1.5, -3.5, -5.5])
@pytest.mark.parametrize("command", ["zeros", "validate"])
def test_zero_at_the_origin_has_no_relative_errors(capsys, a, command):
    # at a = -n - 1/2, n odd, the origin is a zero: refined to within a
    # rounding error of 0, its eps1 would compare that rounding with the
    # seed's (6e15 at a = -1.5); its eps1 and eps2 are left empty, the
    # other rows' kept
    rc, out = run_cli(capsys, [command, "--a", repr(a), "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    key = "z_refined_re" if command == "zeros" else "z_ref_re"
    [origin] = [r for r in rows if abs(r[key]) <= 1e-13]
    assert origin["eps1"] is None and origin["eps2"] is None
    others = [r for r in rows if r is not origin]
    assert len(others) == round(-a - 1.5)  # n zeros in all
    assert all(r["eps1"] < 1e-6 for r in others)


@pytest.mark.parametrize("k", range(21))
def test_nonpositive_zeros_where_ai_u_vanishes_at_the_origin(capsys, k):
    # a = -k - 2/3, u = 2k + 4/3: Ai_u(0) = 0.  Where u rounds to 4/3
    # (mod 2) or above, the origin is Ai_u's first negative zero, m = 1;
    # below, its sole positive zero, m = 0.  Either way the M- rows run
    # on without a gap and continue those 3e-8 away
    a = -k - 2.0 / 3.0
    [fam] = [f for f in zmod.families(a) if f.kind == "aneg-nonpositive"]
    runs = []
    for x in (a, a - 3e-8):
        rc, out = run_cli(capsys, ["zeros", "--a", repr(x), "--family",
                                   "nonpos", "--format", "json"])
        assert rc == 0, x
        runs.append([(r["m"], r["z_refined_re"]) for r in json.loads(out)])
    assert [m for m, _ in runs[0]] == list(range(fam.start,
                                                 fam.start + fam.count))
    assert len(runs[1]) == len(runs[0])
    assert all(abs(z - w) <= 1e-6
               for (_, z), (_, w) in zip(runs[0], runs[1]))


def test_zeros_next_to_the_origin_are_certified(capsys):
    # u = 10.99: the third non-positive zero lies just left of the origin
    rc, out = run_cli(capsys, ["zeros", "--a", "-5.495", "--format", "json"])
    assert rc == 0
    rows = [r for r in json.loads(out) if r["family"] == "aneg-nonpositive"]
    assert len(rows) == 3
    for r in rows:
        z = complex(r["z_refined_re"], r["z_refined_im"])
        u, du = oracles.mp_U_pair(-5.495, z)
        spacing = math.pi / abs(cmath.sqrt(-0.25 * z * z + 5.495))
        assert abs(u / du) <= 1e-10 * spacing, z


@pytest.mark.parametrize("u", [5.0 + 1e-10, 13.0 - 1e-9, 13.0 + 1e-9])
def test_complex_zeros_next_to_the_hermite_case_are_certified(capsys, u):
    # outside hermite_order's 1e-12 of an odd u the complex zeros exist
    # (far left, next to the negative axis): three distinct zeros, each
    # certified by mpmath's independent U
    a = -0.5 * u
    rc, out = run_cli(capsys, ["zeros", "--a", repr(a), "--family",
                               "complex", "--count", "3", "--format", "json"])
    assert rc == 0
    zs = [complex(r["z_refined_re"], r["z_refined_im"])
          for r in json.loads(out)]
    assert len(zs) == 3
    for i, z in enumerate(zs):
        val, der = oracles.mp_U_pair(a, z)
        spacing = math.pi / abs(cmath.sqrt(-0.25 * z * z - a))
        assert abs(val / der) <= 1e-10 * spacing, z
        assert all(abs(z - w) > 0.25 * spacing for w in zs[i + 1:]), z


def test_complex_zeros_at_large_negative_a(capsys):
    # the first zero lies next to the negative real axis, where the
    # evaluator steps along the real axis from the origin; mpmath would
    # need more than its 1000 digits there
    a = -1000.3
    rc, out = run_cli(capsys, ["zeros", "--a", repr(a), "--family",
                               "complex", "--count", "3", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert [r["m"] for r in rows] == [1, 2, 3]
    z = complex(rows[0]["z_refined_re"], rows[0]["z_refined_im"])
    spacing = math.pi / abs(cmath.sqrt(-0.25 * z * z - a))
    assert oracles.mp_zero_ratio(a, z) <= 1e-10 * spacing


def test_complex_zeros_at_a_minus_3000(capsys):
    # the Taylor path from the origin to the first zero takes about
    # 0.7 |a| = 2100 steps a run, within the steps' cap; mpmath would
    # need more than its 1000 digits
    a = -3000.3
    rc, out = run_cli(capsys, ["zeros", f"--a={a!r}", "--family", "complex",
                               "--count", "5", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert [r["m"] for r in rows] == [1, 2, 3, 4, 5]
    zs = [complex(r["z_refined_re"], r["z_refined_im"]) for r in rows]
    spacing = [math.pi / abs(cmath.sqrt(-0.25 * z * z - a)) for z in zs]
    assert oracles.mp_zero_ratio(a, zs[0], dps=40) <= 1e-10 * spacing[0]
    # consecutive zeros, 0.83-0.96 local spacings apart
    assert all(0.6 <= abs(zs[i + 1] - zs[i]) / spacing[i] <= 1.4
               for i in range(4))


@pytest.mark.parametrize("a", [1e5, 1e6, -100000.3])
def test_complex_zeros_past_the_taylor_cap_exit_4_at_once(capsys, a):
    # from |a| ~ 3e4 the Taylor pair from the origin declines before its
    # first step, and mpmath refuses the digits at once
    t0 = time.perf_counter()
    rc = cli.main(["zeros", f"--a={a!r}", "--count", "2", "--family",
                   "apos" if a > 0 else "complex"])
    cap = capsys.readouterr()
    assert time.perf_counter() - t0 < 1.0
    assert rc == 4
    assert "more than 1000 digits" in cap.err
    with pytest.raises(ConvergenceError):
        refine.t_iterate(a, (zmod.zeros_apos(a, 1) if a > 0
                             else zmod.zeros_aneg_complex(a, 1)).z)


def _real_zeros(capsys, a, family):
    rc, out = run_cli(capsys, ["zeros", f"--a={a!r}", "--family", family,
                               "--format", "json"])
    assert rc == 0
    return sorted(r["z_refined_re"] for r in json.loads(out))


@pytest.mark.parametrize("family", ["pos", "nonpos"])
def test_real_zeros_at_large_negative_a_against_golub_welsch(capsys,
                                                              family):
    # a = -3000.5: U(a, x) = e^{-x^2/4} He_3000(x), whose zeros are sqrt(2)
    # times the Gauss-Hermite nodes.  Each family is refined from the
    # origin outward; from its farthest zero every chain would start with
    # a Taylor path longer than the evaluator takes, and mpmath would
    # need more than its 1000 digits
    from scipy.linalg import eigvalsh_tridiagonal
    n = 3000
    got = _real_zeros(capsys, -n - 0.5, family)
    assert len(got) == n // 2
    nodes = eigvalsh_tridiagonal(np.zeros(n), np.sqrt(np.arange(1, n) / 2.0))
    want = math.sqrt(2.0) * (nodes[n // 2:] if family == "pos"
                             else nodes[:n // 2])
    assert np.max(np.abs(np.array(got) / want - 1.0)) <= 1e-10


def test_positive_zeros_at_large_negative_a_are_one_spacing_apart(capsys):
    # away from the Hermite case: all M+ = 1500 zeros, each gap between
    # neighbours 0.6 to 1.4 local spacings pi / p^{1/2} (p at the gap's
    # midpoint), so that no zero is missing or found twice
    a = -3000.3
    got = _real_zeros(capsys, a, "pos")
    assert len(got) == zmod.count_positive(-2.0 * a) == 1500
    for x, y in zip(got, got[1:]):
        mid = 0.5 * (x + y)
        spacing = math.pi / math.sqrt(-0.25 * mid * mid - a)
        assert 0.6 <= (y - x) / spacing <= 1.4, (x, y)


def test_cli_and_hermite_zeros_refine_through_one_path(capsys):
    # a = -256.5 is H_256: the same chain from the same seeds, bit for
    # bit the same zeros
    got = [x / math.sqrt(2.0) for x in _real_zeros(capsys, -256.5, "pos")]
    assert got == list(hermite_zeros(256)[128:])


def test_zeros_seed_next_to_the_turning_point(capsys):
    # the seed of this zero keeps all three terms: next to the turning
    # point its corrections are Taylor sums
    rc, out = run_cli(capsys, ["zeros", "--a", "-1.6666667166666664",
                               "--family", "nonpos", "--format", "json"])
    assert rc == 0
    [row] = json.loads(out)
    assert row["terms_used"] == 3
    assert abs(row["z_refined_re"] + 2.589234964184031) <= 1e-13


def _failing_at(monkeypatch, zero):
    """Make refine.t_iterate, through which zeros._refine_family refines
    every zero, raise ConvergenceError from the seed zero and only
    there."""
    t_iterate = refine.t_iterate

    def failing(a, z, evaluator=None):
        if abs(z - zero) == 0.0:
            raise ConvergenceError(f"no convergence from {z}", last=z)
        return t_iterate(a, z, evaluator=evaluator)

    monkeypatch.setattr(refine, "t_iterate", failing)


def test_non_convergence_keeps_the_other_records(capsys, monkeypatch):
    _failing_at(monkeypatch, zmod.zeros_apos(8.3, 2).z)
    rc = cli.main(["zeros", "--a", "8.3", "--count", "3", "--jobs", "1"])
    cap = capsys.readouterr()
    assert rc == 4
    assert [int(row["m"]) for row in parse_csv(cap.out)] == [1, 3]
    assert len(cap.err.splitlines()) == 1
    assert "apos-complex m=2: no convergence" in cap.err


@pytest.mark.parametrize("command", ["zeros", "validate"])
def test_real_family_non_convergence_keeps_the_other_records(
        capsys, monkeypatch, command):
    # the chain runs from m = 3 (nearest the origin) to m = 1; the rows
    # and the one stderr line come out in index order all the same
    _failing_at(monkeypatch, zmod.zeros_aneg_positive(-6.2, 2).z)
    rc = cli.main([command, "--a=-6.2", "--family", "pos"])
    cap = capsys.readouterr()
    assert rc == 4
    assert [int(row["m"]) for row in parse_csv(cap.out)] == [1, 3]
    assert cap.err.splitlines() == [
        "pcfzeros: non-convergence at aneg-positive m=2: no convergence "
        f"from {zmod.zeros_aneg_positive(-6.2, 2).z}"]


@pytest.mark.parametrize("a", ["8.3", "20.3", "-6.2", "-1.6666666666666665",
                               "1e-200", "-6.5000000005", "-30.5"])
def test_cli_seeds_are_the_per_index_seeds(capsys, a):
    # the CLI seeds each family through zeros._seeder, the per-index
    # functions one zero at a time through the same path: bit for bit
    # the same z and terms_used
    rc, out = run_cli(capsys, ["zeros", "--a", a, "--count", "300",
                               "--no-refine", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert {r["family"] for r in rows} == {
        f.kind for f in zmod.families(float(a), complex_count=1) if f.count}
    for r in rows:
        s = cli._FAMILY_FN[r["family"]](float(a), r["m"])
        assert (repr(r["z_approx_re"]), repr(r["z_approx_im"]),
                r["terms_used"]) == (repr(s.z.real), repr(s.z.imag),
                                     s.terms_used), r


def _seed_failing_at(monkeypatch, k):
    """Make the k-th seed from now on fail: zeros.invert_zeta, which
    every seed calls once, raises ConvergenceError at its k-th call."""
    invert_zeta = zmod.invert_zeta
    calls = []

    def failing(target):
        calls.append(target)
        if len(calls) == k:
            raise ConvergenceError("invert_zeta did not converge", last=0j)
        return invert_zeta(target)

    monkeypatch.setattr(zmod, "invert_zeta", failing)


def test_seed_non_convergence_keeps_the_other_rows(capsys, monkeypatch):
    # a seed whose zeta inversion fails at m = 2: reported, exit 4, and
    # the rows of m = 1 and 3 kept
    _seed_failing_at(monkeypatch, 2)
    rc = cli.main(["zeros", "--a", "8.3", "--count", "3", "--no-refine"])
    cap = capsys.readouterr()
    assert rc == 4
    assert [int(row["m"]) for row in parse_csv(cap.out)] == [1, 3]
    assert cap.err.splitlines() == [
        "pcfzeros: non-convergence at apos-complex m=2: invert_zeta did "
        "not converge"]


@pytest.mark.parametrize("argv, k, kept, line", [
    # the complex chain seeds m = 1, 2, 3 in turn
    (["zeros", "--a", "8.3", "--count", "3"], 2, [1, 3],
     "apos-complex m=2"),
    (["validate", "--a", "8.3", "--count", "3"], 2, [1, 3],
     "apos-complex m=2"),
    # a real chain seeds from the zero nearest the origin: m = 3 first
    (["zeros", "--a=-6.2", "--family", "pos"], 1, [1, 2],
     "aneg-positive m=3"),
    (["validate", "--a=-6.2", "--family", "pos"], 1, [1, 2],
     "aneg-positive m=3"),
    # the oracle's rows are seeded in index order, m = 1 to 15
    (["validate", "--a=-30.5", "--reference", "oracle"], 3,
     [1, 2] + list(range(4, 16)), "aneg-positive m=3")],
    ids=["zeros", "validate", "zeros-pos", "validate-pos", "oracle"])
def test_refined_seed_non_convergence_keeps_the_other_rows(
        capsys, monkeypatch, argv, k, kept, line):
    # a seed that fails is reported by its index on one stderr line, exit
    # 4, and the other rows are kept in index order, as without refine
    _seed_failing_at(monkeypatch, k)
    rc = cli.main(argv)
    cap = capsys.readouterr()
    assert rc == 4
    assert [int(row["m"]) for row in parse_csv(cap.out)] == kept
    assert cap.err.splitlines() == [
        f"pcfzeros: non-convergence at {line}: invert_zeta did not converge"]


@pytest.mark.parametrize("argv", [
    ["zeros", "--a=-6.2", "--count", "20"],
    ["zeros", "--a=-6.2", "--count", "20", "--no-refine"],
    ["zeros", "--a", "8.3", "--count", "20"],
    ["validate", "--a=-30.5", "--count", "20"],
    ["validate", "--a=-30.5", "--reference", "oracle"]],
    ids=["zeros", "no-refine", "apos", "validate", "oracle"])
def test_each_index_is_seeded_once(capsys, monkeypatch, argv):
    seeded = _counting_seeds(monkeypatch)
    assert cli.main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted(seeded) == sorted((r["family"], r["m"]) for r in rows)


def test_hermite_zeros_seeds_each_index_once(monkeypatch):
    seeded = _counting_seeds(monkeypatch)
    hermite_zeros(30)
    assert sorted(seeded) == [("aneg-positive", m) for m in range(1, 16)]


def _counting_seeds(monkeypatch):
    """A list to which every seed made from now on appends its (kind, m):
    zeros._seeder wrapped so that its seed functions record each call."""
    seeder = zmod._seeder
    seeded = []

    def counting(kind, a, terms):
        seed = seeder(kind, a, terms)

        def counted(m):
            seeded.append((kind, m))
            return seed(m)
        return counted

    monkeypatch.setattr(zmod, "_seeder", counting)
    return seeded


@pytest.mark.parametrize("rows", [
    [], [{"family": "x", "a": -0.0, "m": 1, "eps1": None, "z": 1e-300,
          "w": 1e300}, {"family": "y", "a": 8.3, "m": 2, "eps1": -0.0,
                        "z": None, "w": -1e300}]], ids=["empty", "rows"])
def test_json_writer_is_json_dumps_with_indent_1(capsys, rows):
    fields = list(rows[0]) if rows else []
    cli._write_rows([tuple(r.values()) for r in rows], fields, "", "json")
    assert capsys.readouterr().out == json.dumps(rows, indent=1) + "\n"


# the values zeros and validate write: family names, ints, floats down to
# the subnormal and up to the largest double, NaN, the infinities, None
_ROW_VALUES = st.one_of(
    st.sampled_from(list(cli._FAMILY_FN)), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan,
                     math.inf, -math.inf, None]))


@settings(max_examples=200, deadline=None)
@given(table=st.sampled_from([cli._ZEROS_FIELDS, cli._VALIDATE_FIELDS])
       .flatmap(lambda fields: st.tuples(st.just(fields), st.lists(
           st.tuples(*[_ROW_VALUES] * len(fields)), max_size=5))))
def test_json_rows_are_json_dumps_with_indent_1(table):
    fields, rows = table

    def written(rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_rows(rows, fields, "", "json")
        return out.getvalue()

    assert written(rows) == json.dumps([dict(zip(fields, r)) for r in rows],
                                       indent=1) + "\n"
    assert written([]) == "[]\n"


# a column of a table: its cells drawn one by one; one value in every row,
# as a table's a or an all-None column is; or values that compare equal
# but are written differently (0.0, -0.0, 0; 1.0, 1), or NaNs that are
# one object or several
@st.composite
def _tables(draw):
    fields = draw(st.sampled_from([cli._ZEROS_FIELDS, cli._VALIDATE_FIELDS]))
    n = draw(st.integers(0, 5))

    def column():
        return draw(st.one_of(
            st.lists(_ROW_VALUES, min_size=n, max_size=n),
            _ROW_VALUES.map(lambda v: [v] * n),
            st.lists(st.sampled_from([0.0, -0.0, 0, 1.0, 1]), min_size=n,
                     max_size=n),
            st.lists(st.sampled_from([math.nan, None]) | st.builds(
                float, st.just("nan")), min_size=n, max_size=n)))
    return fields, list(zip(*[column() for _ in fields]))


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_csv_rows_are_csv_writer_rows(table):
    fields, rows = table

    def written(rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_rows(rows, fields, "zeros v1 a=8.3", "csv")
        return out.getvalue()

    def csv_writer(rows):
        out = io.StringIO()
        out.write("# pcfzeros zeros v1 a=8.3\n")
        w = csv.writer(out, lineterminator="\n")
        w.writerow(fields)
        w.writerows(rows)
        return out.getvalue()

    assert written(rows) == csv_writer(rows)
    assert written([]) == csv_writer([])


def test_csv_json_cross_format_equality(capsys):
    args = ["zeros", "--a", "8.3", "--family", "apos", "--count", "2",
            "--jobs", "1"]
    _, out_csv = run_cli(capsys, args)
    _, out_json = run_cli(capsys, args + ["--format", "json"])
    rows_c = parse_csv(out_csv)
    rows_j = json.loads(out_json)
    assert len(rows_c) == len(rows_j)
    for rc_, rj in zip(rows_c, rows_j):
        # repr round-trips doubles exactly: the formats must agree bit-level
        for key in ("z_approx_re", "z_approx_im",
                    "z_refined_re", "z_refined_im"):
            assert float(rc_[key]) == rj[key]


@pytest.mark.parametrize("refine", ["--refine", "--no-refine"])
def test_csv_lines_are_the_json_rows_in_repr(capsys, refine):
    # each CSV line is the row's values in field order, floats in repr
    # and a missing value (unrefined) as an empty cell
    args = ["zeros", "--a", "-6.2", "--count", "3", refine]
    _, out_csv = run_cli(capsys, args)
    _, out_json = run_cli(capsys, args + ["--format", "json"])
    lines = out_csv.splitlines()
    rows = json.loads(out_json)
    assert lines[0].startswith("# pcfzeros zeros v1 a=-6.2 ")
    assert lines[1] == ",".join(rows[0])
    assert lines[2:] == [",".join("" if v is None else repr(v)
                                  if isinstance(v, float) else str(v)
                                  for v in row.values()) for row in rows]


def test_deterministic_output(capsys):
    args = ["zeros", "--a", "-6.2", "--count", "2", "--jobs", "1"]
    _, out1 = run_cli(capsys, args)
    _, out2 = run_cli(capsys, args)
    assert out1 == out2


def test_parallel_matches_serial(capsys):
    args = ["zeros", "--a", "8.3", "--family", "apos", "--count", "4"]
    _, serial = run_cli(capsys, args + ["--jobs", "1"])
    _, parallel = run_cli(capsys, args + ["--jobs", "2"])
    assert serial == parallel


def test_compare_trivials():
    # equal zeros differ by nothing; a real zero has no ratio g2 = Re/Im;
    # a reference at the origin has no relative error
    assert cli._compare(1.0 + 2.0j, 1.0 + 2.0j) == (abs(1.0 + 2.0j),
                                                    abs(1.0 + 2.0j), 0.0, 0.0)
    g1a, g1r, eps1, eps2 = cli._compare(3.0 + 0.0j, 3.0000003 + 0.0j)
    assert (g1a, g1r, eps2) == (3.0, 3.0000003, None)
    assert eps1 == pytest.approx(1e-7, rel=1e-4)
    assert cli._compare(1.0 + 0.0j, 0j) == (1.0, 0.0, None, None)


@pytest.mark.parametrize("a", [8.3, -6.2, -5.5])
def test_validate_rows_are_the_zeros_rows(capsys, a):
    # both commands build their rows from one cli._records call: validate
    # in refinement order (the families as zeros.families lists them, each
    # in index order), zeros sorted by (family, m)
    rc, out = run_cli(capsys, ["zeros", f"--a={a!r}", "--format", "json"])
    assert rc == 0
    zrows = json.loads(out)
    rc, out = run_cli(capsys, ["validate", f"--a={a!r}", "--format", "json"])
    assert rc == 0
    vrows = json.loads(out)
    keys = [(r["family"], r["m"]) for r in zrows]
    assert keys == sorted(keys)
    order = [f.kind for f in zmod.families(a)]
    vkeys = [(r["family"], r["m"]) for r in vrows]
    assert vkeys == sorted(keys, key=lambda k: (order.index(k[0]), k[1]))
    by_key = dict(zip(keys, zrows))
    for v in vrows:
        z = by_key[v["family"], v["m"]]
        assert [v[f] for f in ("a", "z_approx_re", "z_approx_im", "z_ref_re",
                               "z_ref_im", "eps1", "eps2")] == \
            [z[f] for f in ("a", "z_approx_re", "z_approx_im", "z_refined_re",
                            "z_refined_im", "eps1", "eps2")]
        assert v["g1_approx"] == abs(complex(v["z_approx_re"],
                                             v["z_approx_im"]))
        assert v["g1_ref"] == abs(complex(v["z_ref_re"], v["z_ref_im"]))


def test_validate_oracle_reference(capsys):
    rc, out = run_cli(capsys, ["validate", "--a", "-30.5",
                               "--reference", "oracle", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 15
    assert max(r["eps1"] for r in rows) < 1e-6


def test_validate_oracle_requires_polynomial_case(capsys):
    # -30.50000000005: u = 61 + 1e-10 is outside the Hermite case, and U
    # has 31 real zeros, not the 30 of H_30
    for a in ("-6.2", "-30.50000000005"):
        rc, out = run_cli(capsys, ["validate", "--a", a,
                                   "--reference", "oracle"])
        assert (rc, out) == (2, ""), a


def test_validate_refined_reference(capsys):
    rc, out = run_cli(capsys, ["validate", "--a", "8.3", "--family", "apos",
                               "--count", "2", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert all(r["eps1"] < 1e-8 for r in rows)


def test_phase_grid_output(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "-2.0", "--re-max", "0.0",
                   "--im-min", "6.0", "--im-max", "7.0",
                   "--nx", "3", "--ny", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# pcfzeros phase-grid v1 ")
    assert lines[1] == "x,y,arg_u"
    assert len(lines) == 2 + 6
    import math
    for ln in lines[2:]:
        x, y, ph = (float(t) for t in ln.split(","))
        assert -math.pi <= ph <= math.pi


def test_phase_grid_inverted_range(capsys, tmp_path):
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "1.0", "--re-max", "-1.0",
                   "--im-min", "0.0", "--im-max", "1.0",
                   "--nx", "2", "--ny", "2",
                   "--out", str(tmp_path / "g.csv")])
    assert rc == 2


def test_phase_grid_non_convergence_exits_4(capsys, tmp_path):
    # U(-2.5, 1) = 0 exactly: no relative accuracy can be reached there
    rc = cli.main(["phase-grid", "--a", "-2.5",
                   "--re-min", "1", "--re-max", "1",
                   "--im-min", "0", "--im-max", "0",
                   "--nx", "1", "--ny", "1",
                   "--out", str(tmp_path / "g.csv")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "U(-2.5, " in err[0]


@pytest.mark.parametrize("out", ["missing/g.csv", "."])
def test_phase_grid_unwritable_out_exits_2(capsys, tmp_path, out):
    # a directory that does not exist, or a directory itself: one package
    # error line, no traceback, and no file made
    out = tmp_path / out
    rc = cli.main(["phase-grid", "--a", "8.3", "--re-min", "-2",
                   "--re-max", "0", "--im-min", "6", "--im-max", "7",
                   "--nx", "2", "--ny", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"pcfzeros: cannot write "
                                               f"{out}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("box, code", [
    # U(-2.5, 1) = 0 exactly: no relative accuracy can be reached there
    (["--a", "-2.5", "--re-min", "1", "--re-max", "1",
      "--im-min", "0", "--im-max", "0", "--nx", "1", "--ny", "1"], 4),
    (["--a", "8.3", "--re-min", "nan", "--re-max", "0",
      "--im-min", "6", "--im-max", "7", "--nx", "2", "--ny", "2"], 2),
])
def test_phase_grid_that_stops_leaves_out_untouched(capsys, tmp_path, box,
                                                     code):
    # the file is opened only once every point is evaluated
    out = tmp_path / "g.csv"
    out.write_text("kept\n")
    assert cli.main(["phase-grid", *box, "--out", str(out)]) == code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert out.read_text() == "kept\n"


def test_complex_chain_steps_each_hop_by_one_taylor_run(monkeypatch, capsys):
    # the origin stage answers the first zero by a pair of runs; every
    # later point of the chain is a complex hop from the one before,
    # stepped by one run (a repeated point takes none)
    runs = []
    run = pcf_eval._taylor_run
    call = pcf_eval.Evaluator.__call__

    def counted(self, a, z):
        runs.append(0)
        return call(self, a, z)

    def counting(*args):
        runs[-1] += 1
        return run(*args)

    monkeypatch.setattr(pcf_eval.Evaluator, "__call__", counted)
    monkeypatch.setattr(pcf_eval, "_taylor_run", counting)
    assert cli.main(["zeros", "--a", "8.3", "--count", "150"]) == 0
    assert len(parse_csv(capsys.readouterr().out)) == 150
    assert runs[0] >= 2
    assert max(runs[1:]) == 1 and runs.count(1) >= 150


def test_phase_grid_steps_from_neighbouring_points(monkeypatch, tmp_path):
    # README box at 8 x 8: 47 of the 64 points are answered by taylor, and
    # all but the first of each end column by steps from a neighbour, not
    # from z = 0: each row resumes at the end where |U| is smaller
    from_origin = []
    taylor_pair = pcf_eval._taylor_pair

    def counting(a, z0, z1, starts):
        if z0 == 0.0:
            from_origin.append(z1)
        return taylor_pair(a, z0, z1, starts)

    methods = []
    grid = pcf_eval._eval_grid

    def recording(*args, **kwargs):
        rows = grid(*args, **kwargs)
        methods.extend(v.method for row in rows for v in row)
        return rows

    monkeypatch.setattr(pcf_eval, "_taylor_pair", counting)
    monkeypatch.setattr(cli, "_eval_grid", recording)
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "-6", "--re-max", "0",
                   "--im-min", "5", "--im-max", "10",
                   "--nx", "8", "--ny", "8", "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert methods.count("taylor") == 47
    assert len(from_origin) <= 2


def test_phase_grid_tries_steps_before_the_series(monkeypatch, tmp_path):
    # README box at 8 x 8: the double series answers none of the points,
    # and next to a taylor answer the carried steps are tried before it
    calls = []
    series = pcf_eval._eval_series_double

    def counting(a, z):
        calls.append(z)
        return series(a, z)

    monkeypatch.setattr(pcf_eval, "_eval_series_double", counting)
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "-6", "--re-max", "0",
                   "--im-min", "5", "--im-max", "10",
                   "--nx", "8", "--ny", "8", "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert len(calls) <= 8


def _grid_coords(lo, hi, n):
    """phase-grid's n coordinates from lo to hi."""
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1)
                                for i in range(n)]


def test_phase_grid_rows_keep_their_order(tmp_path):
    # the end columns are walked first and each row from either end; rows
    # are still written y-major with x ascending, each phase that of its
    # own point, also where a row has no interior or the grid one column
    out = tmp_path / "grid.csv"
    for nx, ny in [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)] \
            + [(4, 3)]:
        rc = cli.main(["phase-grid", "--a", "8.3",
                       "--re-min", "-6", "--re-max", "0",
                       "--im-min", "5", "--im-max", "10",
                       "--nx", str(nx), "--ny", str(ny), "--out", str(out)])
        assert rc == 0
        rows = [tuple(float(t) for t in ln.split(","))
                for ln in out.read_text().splitlines()[2:]]
        assert [r[:2] for r in rows] == [
            (x, y) for y in _grid_coords(5.0, 10.0, ny)
            for x in _grid_coords(-6.0, 0.0, nx)]
        for x, y, ph in rows:
            v = pcf_eval.eval_U(8.3, complex(x, y), tol=1e-6)
            assert abs(ph - cmath.phase(v.value)) <= 2e-6, (nx, ny, x, y)


@pytest.mark.parametrize("box", [("-6", "0", "5", "10"),
                                 ("-2", "-0.0", "-0.0", "1")],
                         ids=["readme", "signed-zero"])
def test_phase_grid_file_is_the_per_point_writers(tmp_path, box):
    # the file is laid out in one write, each x and y formatted once; the
    # bytes are those of the writer that formatted every point's cells
    out = tmp_path / "grid.csv"
    lo_re, hi_re, lo_im, hi_im = (float(t) for t in box)
    for nx, ny in [(1, 1), (1, 3), (3, 1), (4, 3)]:
        rc = cli.main(["phase-grid", "--a", "8.3", f"--re-min={box[0]}",
                       f"--re-max={box[1]}", f"--im-min={box[2]}",
                       f"--im-max={box[3]}", "--nx", str(nx), "--ny",
                       str(ny), "--out", str(out)])
        assert rc == 0
        xs = _grid_coords(lo_re, hi_re, nx)
        ys = _grid_coords(lo_im, hi_im, ny)
        rows = pcf_eval._eval_grid(8.3, xs, ys, tol=1e-6)
        assert out.read_text() == oracles.phase_grid_per_point(
            8.3, nx, ny, xs, ys, rows), (box, nx, ny)


def test_phase_grid_through_an_exact_zero_exits_4(capsys, tmp_path):
    # z = 1 is the middle of three points, the row's interior, walked
    # after both ends; U(-2.5, 1) = 0.  --out is left as it was
    out = tmp_path / "g.csv"
    out.write_text("kept\n")
    rc = cli.main(["phase-grid", "--a", "-2.5",
                   "--re-min", "0", "--re-max", "2",
                   "--im-min", "0", "--im-max", "0",
                   "--nx", "3", "--ny", "1", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "U(-2.5, " in err[0]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("a, box, n", [
    (8.3, ("0.5", "6", "0", "3"), 20),
    (2.5, ("0", "7", "0", "2"), 30),
], ids=["recessive", "axis"])
def test_phase_grid_walks_recessive_boxes_in_doubles(monkeypatch, tmp_path,
                                                     a, box, n):
    # U decays toward +x here, so each row is walked from x = re_max
    # toward -x, where it grows, and the runs keep their relative error:
    # mpmath answers at most once.  Sampled answers are within half their
    # estimates of pcfu, and their phases within 1e-6
    calls = []
    mpmath_stage = pcf_eval._eval_series_mp

    def counting(a, z, tol):
        calls.append(z)
        return mpmath_stage(a, z, tol)

    answers = []
    grid = pcf_eval._eval_grid

    def recording(*args, **kwargs):
        rows = grid(*args, **kwargs)
        answers.extend(v for row in rows for v in row)
        return rows

    monkeypatch.setattr(pcf_eval, "_eval_series_mp", counting)
    monkeypatch.setattr(cli, "_eval_grid", recording)
    out = tmp_path / "g.csv"
    flags = ("--re-min", "--re-max", "--im-min", "--im-max")
    rc = cli.main(["phase-grid", "--a", repr(a),
                   *(w for pair in zip(flags, box) for w in pair),
                   "--nx", str(n), "--ny", str(n), "--out", str(out)])
    assert rc == 0
    assert len(calls) <= 1
    lines = out.read_text().splitlines()[2:]
    assert len(lines) == len(answers) == n * n
    for k in range(0, n * n, n * n // 20):
        x, y, ph = (float(t) for t in lines[k].split(","))
        v = answers[k]
        ref, _ = oracles.mp_U_pair(a, complex(x, y), exponent=v.exponent)
        assert abs(math.remainder(ph - cmath.phase(ref), 2 * math.pi)) <= 1e-6
        assert abs(v.value - ref) <= 0.5 * v.est_accuracy * abs(ref), (x, y)


def test_phase_grid_far_out_at_a_minus_half(capsys, tmp_path):
    # U(-1/2, z) = e^{-z^2/4} is recessive where U(1/2, z), which the
    # asymptotic derivative weighs by a + 1/2 = 0, is e^{1760} larger
    out = tmp_path / "g.csv"
    rc = cli.main(["phase-grid", "--a=-0.5", "--re-min=-71", "--re-max=-70",
                   "--im-min=-40", "--im-max=-39", "--nx", "2", "--ny", "2",
                   "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    for ln in out.read_text().splitlines()[2:]:
        x, y, ph = (float(t) for t in ln.split(","))
        z = complex(x, y)
        want = cmath.phase(cmath.exp(-z * z / 4.0 + (z * z).real / 4.0))
        assert abs(ph - want) <= 1e-9


def test_phase_grid_sums_no_asymptotic_series_it_declines(monkeypatch,
                                                          tmp_path):
    # README box at 8 x 8: the asymptotic tries that would decline (94 of
    # 173 sums before the closed-form test) are declined without summing,
    # and U' comes from the terms of U's own series, so each try let
    # through sums one expansion, at a (34 sums)
    minterms = []
    tries = []
    asym_pair, declines = pcf_eval.asym_pair, pcf_eval._asym_declines

    def recording(a, z2inv):
        assert a == 8.3
        r = asym_pair(a, z2inv)
        minterms.append(r[2])
        return r

    def recording_decline(a, z, cut):
        tries.append(declines(a, z, cut))
        return tries[-1]

    monkeypatch.setattr(pcf_eval, "asym_pair", recording)
    monkeypatch.setattr(pcf_eval, "_asym_declines", recording_decline)
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "-6", "--re-max", "0",
                   "--im-min", "5", "--im-max", "10",
                   "--nx", "8", "--ny", "8", "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    cut = max(1e-13, 1e-6 * 1e-2)  # phase-grid's tol 1e-6
    assert minterms and max(minterms) <= cut
    assert len(minterms) == tries.count(False)


def test_main_in_one_process_is_the_separate_runs(capsys, tmp_path):
    # main builds its parser once a process: each call parses afresh
    runs = [["zeros", "--a", "8.3", "--count", "3", "--format", "json"],
            ["phase-grid", "--a", "8.3", "--re-min", "-6", "--re-max", "0",
             "--im-min", "5", "--im-max", "10", "--nx", "3", "--ny", "2",
             "--out", "-"],
            ["validate", "--a=-6.2", "--count", "2"]]
    for argv in runs:
        mine = [str(tmp_path / "in.csv") if x == "-" else x for x in argv]
        theirs = [str(tmp_path / "out.csv") if x == "-" else x for x in argv]
        rc, out = run_cli(capsys, mine)
        r = subprocess.run([sys.executable, "-m", "pcfzeros.cli"] + theirs,
                           capture_output=True, text=True, env=_child_env())
        assert (rc, out) == (r.returncode, r.stdout), argv
        if argv[0] == "phase-grid":
            assert (tmp_path / "in.csv").read_text() \
                == (tmp_path / "out.csv").read_text()
    assert cli._build_parser() is cli._build_parser()


def test_console_entry_point():
    # the child imports the package from where this test imported it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "pcfzeros.cli", "zeros",
                        "--a", "8.3", "--family", "apos", "--count", "1",
                        "--jobs", "1"], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0
    assert "apos-complex" in r.stdout


def _child_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_loads_neither_scipy_nor_numpy():
    # nor dataclasses and the inspect it imports, which took three
    # quarters of the import while the records were dataclasses
    code = ("import sys, pcfzeros, pcfzeros.cli; print(sorted(m for m in "
            "('scipy', 'numpy', 'dataclasses', 'inspect') "
            "if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=_child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# the paths that answer in doubles, each run in one fresh interpreter
_DEFAULT_PATHS = """
import contextlib, io, sys
import pcfzeros
from pcfzeros import cli, hermite_zeros, sweep, zeros_apos
runs = [["zeros", "--a", a, "--count", "150", "--format", "json"]
        for a in ("8.3", "20.3", "-6.2", "100.3", "300.3")]
runs += [["zeros", "--a", "8.3", "--count", "3000", "--no-refine"],
         ["validate", "--a", "8.3", "--count", "5"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert len(hermite_zeros(256)) == 256
assert len(sweep(8.3, zeros_apos(8.3, 1).z, 50)) == 50
print("mpmath" in sys.modules)
"""


def test_default_paths_do_not_import_mpmath():
    r = subprocess.run([sys.executable, "-c", _DEFAULT_PATHS],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


_FIRST_USE = """
import sys
from pcfzeros import eval_U, pcf_eval
print("mpmath" in sys.modules)
print(repr(eval_U(8.3, -6 + 10j)))
print(repr(pcf_eval._eval_series_mp(0.3, 6.0, 1e-12)))
print("mpmath" in sys.modules)
"""


def test_mpmath_is_imported_on_first_use():
    # the asymptotic answer needs 1/Gamma(a + 1/2) from _rgamma; the
    # mpmath stage imports it on its own
    r = subprocess.run([sys.executable, "-c", _FIRST_USE],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0, r.stderr
    v = pcf_eval.eval_U(8.3, -6 + 10j)
    assert v.method == "asymptotic"
    assert r.stdout.splitlines() == [
        "False", repr(v), repr(pcf_eval._eval_series_mp(0.3, 6.0, 1e-12)),
        "True"]


def _run_with_log(value):
    env = _child_env()
    env.pop("PCFZ_LOG", None)
    if value is not None:
        env["PCFZ_LOG"] = value
    return subprocess.run([sys.executable, "-m", "pcfzeros.cli", "zeros",
                           "--a", "8.3", "--count", "1"],
                          capture_output=True, text=True, env=env)


def test_pcfz_log_never_changes_the_output():
    plain = _run_with_log(None)
    assert plain.returncode == 0, plain.stderr
    debug = _run_with_log("DEBUG")
    assert debug.returncode == 0, debug.stderr
    assert "DEBUG:pcfzeros:args:" in debug.stderr
    # a logging attribute that is not a level counts as WARNING
    other = _run_with_log("basic_format")
    assert other.returncode == 0, other.stderr
    assert "Traceback" not in other.stderr
    assert debug.stdout == other.stdout == plain.stdout


@pytest.mark.parametrize("a", ["1e-300", "1e300"])
def test_extreme_a_exits_without_a_traceback(a):
    r = subprocess.run([sys.executable, "-m", "pcfzeros.cli", "zeros",
                        f"--a={a}", "--count", "2"],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode in (0, 2, 4), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("a", ["6e305", "1e308"])
def test_huge_a_is_a_package_error(a):
    # past a ~ 2.55e305 log Gamma(a/2 + 3/4) overflows, so the evaluator's
    # origin stage declines; past a ~ 4.5e307 the zero's |z|^2 leaves the
    # double range, which the evaluator refuses
    r = subprocess.run([sys.executable, "-m", "pcfzeros.cli", "zeros",
                        f"--a={a}", "--count", "1"],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode in (2, 4), r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr


def test_tiny_a_zeros_are_refined(capsys):
    rc, out = run_cli(capsys, ["zeros", "--a", "1e-200", "--count", "2"])
    assert rc == 0
    rows = parse_csv(out)
    assert [int(r["m"]) for r in rows] == [1, 2]


# runs the CLI with every import of scipy refused
_NO_SCIPY = """
import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy refused")
sys.meta_path.insert(0, Refuse())
from pcfzeros import cli, hermite_zeros
if sys.argv[1] == "hermite":
    print(len(hermite_zeros(20)))
else:
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["zeros", "--a", "8.3", "--count", "20"],
    ["zeros", "--a", "-6.2", "--count", "20"],
    ["validate", "--a", "8.3", "--count", "5"],
    ["phase-grid", "--a", "8.3", "--re-min", "-6", "--re-max", "0",
     "--im-min", "5", "--im-max", "10", "--nx", "4", "--ny", "4",
     "--out", "-"],
    ["hermite"],
])
def test_runs_without_scipy(tmp_path, argv):
    argv = [str(tmp_path / "g.csv") if x == "-" else x for x in argv]
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY] + argv,
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0, r.stderr
    assert "scipy" not in r.stderr
    if argv[0] == "hermite":
        assert r.stdout.strip() == "20"
    elif argv[0] == "phase-grid":
        assert len((tmp_path / "g.csv").read_text().splitlines()) == 18
    else:
        assert len(r.stdout.splitlines()) > 5
