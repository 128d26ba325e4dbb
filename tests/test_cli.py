import cmath
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from pcfzeros import cli, pcf_eval
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


def test_zeros_seed_next_to_the_turning_point(capsys):
    # the seed of this zero keeps all three terms: next to the turning
    # point its corrections are Taylor sums
    rc, out = run_cli(capsys, ["zeros", "--a", "-1.6666667166666664",
                               "--family", "nonpos", "--format", "json"])
    assert rc == 0
    [row] = json.loads(out)
    assert row["terms_used"] == 3
    assert abs(row["z_refined_re"] + 2.589234964184031) <= 1e-13


def test_non_convergence_keeps_the_other_records(capsys, monkeypatch):
    t_iterate = cli.t_iterate

    def failing_at_m2(a, z, evaluator=None):
        if abs(z - cli.zmod.zeros_apos(a, 2).z) == 0.0:
            raise ConvergenceError(f"no convergence from {z}", last=z)
        return t_iterate(a, z, evaluator=evaluator)

    monkeypatch.setattr(cli, "t_iterate", failing_at_m2)
    rc = cli.main(["zeros", "--a", "8.3", "--count", "3", "--jobs", "1"])
    cap = capsys.readouterr()
    assert rc == 4
    assert [int(row["m"]) for row in parse_csv(cap.out)] == [1, 3]
    assert len(cap.err.splitlines()) == 1
    assert "apos-complex m=2: no convergence" in cap.err


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


def test_seed_non_convergence_keeps_the_other_rows(capsys, monkeypatch):
    # a seed whose zeta inversion fails at m = 2: reported, exit 4, and
    # the rows of m = 1 and 3 kept
    invert_zeta = zmod.invert_zeta
    calls = []

    def failing_second(target):
        calls.append(target)
        if len(calls) == 2:
            raise ConvergenceError("invert_zeta did not converge", last=0j)
        return invert_zeta(target)

    monkeypatch.setattr(zmod, "invert_zeta", failing_second)
    rc = cli.main(["zeros", "--a", "8.3", "--count", "3", "--no-refine"])
    cap = capsys.readouterr()
    assert rc == 4
    assert [int(row["m"]) for row in parse_csv(cap.out)] == [1, 3]
    assert cap.err.splitlines() == [
        "pcfzeros: non-convergence at apos-complex m=2: invert_zeta did "
        "not converge"]


@pytest.mark.parametrize("rows", [
    [], [{"family": "x", "a": -0.0, "m": 1, "eps1": None, "z": 1e-300,
          "w": 1e300}, {"family": "y", "a": 8.3, "m": 2, "eps1": -0.0,
                        "z": None, "w": -1e300}]], ids=["empty", "rows"])
def test_json_writer_is_json_dumps_with_indent_1(capsys, rows):
    cli._write_rows(rows, [], "", "json")
    assert capsys.readouterr().out == json.dumps(rows, indent=1) + "\n"


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


def test_phase_grid_steps_from_neighbouring_points(monkeypatch, tmp_path):
    # README box at 8 x 8: 47 of the 64 points are answered by taylor, and
    # nearly all of them by steps from the point before, not from z = 0
    from_origin = []
    taylor_pair = pcf_eval._taylor_pair

    def counting(a, z0, z1, starts):
        if z0 == 0.0:
            from_origin.append(z1)
        return taylor_pair(a, z0, z1, starts)

    methods = []
    path = pcf_eval.eval_U_path

    def recording(*args, **kwargs):
        values = path(*args, **kwargs)
        methods.extend(v.method for v in values)
        return values

    monkeypatch.setattr(pcf_eval, "_taylor_pair", counting)
    monkeypatch.setattr(cli, "eval_U_path", recording)
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "-6", "--re-max", "0",
                   "--im-min", "5", "--im-max", "10",
                   "--nx", "8", "--ny", "8", "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert methods.count("taylor") == 47
    assert len(from_origin) <= 8


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


def test_phase_grid_rows_keep_their_order(tmp_path):
    # the points are evaluated along a snake; rows are still written
    # y-major with x ascending, each phase that of its own point
    out = tmp_path / "grid.csv"
    rc = cli.main(["phase-grid", "--a", "8.3",
                   "--re-min", "-6", "--re-max", "0",
                   "--im-min", "5", "--im-max", "10",
                   "--nx", "4", "--ny", "3", "--out", str(out)])
    assert rc == 0
    rows = [tuple(float(t) for t in ln.split(","))
            for ln in out.read_text().splitlines()[2:]]
    xs = [-6.0 + 2.0 * j for j in range(4)]
    assert [r[:2] for r in rows] == [(x, y) for y in (5.0, 7.5, 10.0)
                                     for x in xs]
    for x, y, ph in rows:
        v = pcf_eval.eval_U(8.3, complex(x, y), tol=1e-6)
        assert abs(ph - cmath.phase(v.value)) <= 2e-6


def test_phase_grid_through_an_exact_zero_exits_4(capsys, tmp_path):
    # z = 1 is the middle of three points; U(-2.5, 1) = 0
    rc = cli.main(["phase-grid", "--a", "-2.5",
                   "--re-min", "0", "--re-max", "2",
                   "--im-min", "0", "--im-max", "0",
                   "--nx", "3", "--ny", "1",
                   "--out", str(tmp_path / "g.csv")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "U(-2.5, " in err[0]


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
    code = ("import sys, pcfzeros, pcfzeros.cli; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))")
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
        for a in ("8.3", "20.3", "-6.2")]
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
