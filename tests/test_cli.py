import cmath
import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

from pcfzeros import cli, pcf_eval
from pcfzeros.errors import ConvergenceError

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
    rc, _ = run_cli(capsys, ["zeros", "--a", "-6.5", "--family", "complex"])
    assert rc == 3


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


def test_undefined_t_map_step_reports_non_convergence(capsys):
    # the seed next to the turning point is -4.8e23, where
    # p^(1/2) U/U' rounds to i, a branch point of arctan
    rc = cli.main(["zeros", "--a", "-1.6666667166666664",
                   "--family", "nonpos"])
    cap = capsys.readouterr()
    assert rc == 4
    assert cap.err.startswith(
        "pcfzeros: non-convergence at aneg-nonpositive m=1: T(z) undefined")
    assert parse_csv(cap.out) == []


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
    rc, _ = run_cli(capsys, ["validate", "--a", "-6.2",
                             "--reference", "oracle"])
    assert rc == 2


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
