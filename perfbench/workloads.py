"""The benchmark's four workloads: inputs made from a seed, the public
calls that run them, and the per-op verdicts of the accuracy gates.

An op is one zero (tables, seed), one Hermite node (hermite) or one grid
point (grid).  Every call goes through a public entry point: the CLI's
``pcfzeros.cli.main(argv)`` with ``--jobs 1``, ``hermite_zeros`` or
``sweep``.
"""
import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

import pcfzeros
from pcfzeros import cli, refine
from pcfzeros import zeros as zmod

import gates

WORKLOADS = ("tables", "hermite", "grid", "seed")

TABLE_A = (8.3, 20.3, -6.2)      # paper Tables 2-5
TABLE_COUNT = 150                # complex zeros per `zeros` call (tables)
SEED_COUNT = 3000                # complex zeros per `zeros` call (seed)
SWEEP = (8.3, 50)                # sweep(a, zeros_apos(a, 1).z, count)
# orders >= 225 raise ConvergenceError at the time the benchmark was made
HERMITE_LADDER = (20, 50, 100, 200, 224, 225, 232, 240, 256)
# two seeded orders in [130, 170] with a fixed sum: the share of nodes
# that fail does not depend on the seed, and neither order's latency
# lands on the ladder's median or 90th percentile
HERMITE_SEEDED_TOTAL = 300
README_BOX = (-6.0, 0.0, 5.0, 10.0)
GRID_A = 8.3
GRID_N = 8                       # nx = ny per phase-grid call
SEED_SAMPLES = 5                 # sampled seeds per call checked by root-finding
GRID_SAMPLES = 12                # grid points per call checked by pcfu


@dataclass(frozen=True)
class Call:
    kind: str      # cli | hermite | sweep
    args: tuple    # argv (cli), (n,) (hermite), (a, count) (sweep)
    ops: int


@dataclass(frozen=True)
class Outcome:
    result: object   # (exit code, text) | node tuple | zero tuple | None
    error: str       # exception type and message, "" when none


def extra_a(seed):
    """The seeded a values shared by `tables` and `seed`: one a > 0 near
    Table 2's, one a < 0 near Tables 4/5's (u = -2a in [12, 12.9]).

    The a < 0 range stops at -6.0 because, when the benchmark was made,
    `families` raised for a in [-5.79, -5.71] (ValueError or
    ZeroDivisionError) and at a = -5.952, -5.943, -5.914
    (ConvergenceError); those are defects for the program's own tests."""
    rng = random.Random(seed)
    return round(rng.uniform(7.6, 9.0), 3), round(rng.uniform(-6.45, -6.0), 3)


def _zero_count(a, count):
    return sum(f.count for f in pcfzeros.families(a, complex_count=count))


def _zeros_call(a, count, refined):
    argv = ["zeros", "--a", repr(a), "--count", str(count), "--jobs", "1"]
    argv += ["--format", "json"] if refined else ["--no-refine"]
    return Call("cli", tuple(argv), _zero_count(a, count))


def _grid_call(box):
    argv = ["phase-grid", "--a", repr(GRID_A)]
    for flag, v in zip(("--re-min", "--re-max", "--im-min", "--im-max"), box):
        argv += [flag, repr(v)]
    argv += ["--nx", str(GRID_N), "--ny", str(GRID_N)]
    return Call("cli", tuple(argv), GRID_N * GRID_N)


def calls_for(workload, seed):
    """The calls of one pass of `workload`; the same seed gives the same
    calls."""
    a_values = TABLE_A + extra_a(seed)
    if workload == "tables":
        calls = [_zeros_call(a, TABLE_COUNT, True) for a in a_values]
        return calls + [Call("sweep", SWEEP, SWEEP[1])]
    if workload == "seed":
        return [_zeros_call(a, SEED_COUNT, False) for a in a_values]
    rng = random.Random(seed)
    if workload == "hermite":
        n1 = rng.randint(130, 170)
        orders = sorted(HERMITE_LADDER + (n1, HERMITE_SEEDED_TOTAL - n1))
        return [Call("hermite", (n,), n) for n in orders]
    if workload == "grid":
        # a small shift: new points, but about the same mpmath precision
        # (which grows with |z|), so the pass cost hardly depends on the seed
        d_re = round(rng.uniform(-0.1, 0.1), 3)
        d_im = round(rng.uniform(-0.1, 0.1), 3)
        lo_re, hi_re, lo_im, hi_im = README_BOX
        second = (lo_re + d_re, hi_re + d_re, lo_im + d_im, hi_im + d_im)
        return [_grid_call(README_BOX), _grid_call(second)]
    raise ValueError(f"unknown workload {workload!r}")


def run_call(call, workdir):
    """Make one public call; the output it produced, or the error it
    raised.  Output files of the CLI go to `workdir`."""
    try:
        if call.kind == "hermite":
            return Outcome(tuple(zmod.hermite_zeros(*call.args).tolist()), "")
        if call.kind == "sweep":
            a, count = call.args
            chain = refine.sweep(a, zmod.zeros_apos(a, 1).z, count)
            return Outcome(tuple(r.value for r in chain), "")
        argv = list(call.args)
        path = None
        if argv[0] == "phase-grid":
            path = os.path.join(workdir, "grid.csv")
            argv += ["--out", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        if path is not None:
            with open(path) as fh:
                text = fh.read()
        return Outcome((code, text), err.getvalue() if code else "")
    except Exception as e:  # every failure is an outcome to count
        return Outcome(None, f"{type(e).__name__}: {e}")


def _zero_rows(text):
    """Rows of a `zeros` table (csv or json) with z_approx/z_refined
    complex."""
    if text.lstrip().startswith("["):
        raw = json.loads(text)
    else:
        raw = list(csv.DictReader(l for l in text.splitlines()
                                  if not l.startswith("#")))
    rows = []
    for r in raw:
        def num(k):
            v = r[k]
            return None if v in (None, "") else float(v)
        ref = (None if num("z_refined_re") is None
               else complex(num("z_refined_re"), num("z_refined_im")))
        rows.append({"family": r["family"], "m": int(r["m"]),
                     "z_approx": complex(num("z_approx_re"),
                                         num("z_approx_im")),
                     "z_refined": ref})
    return rows


def _finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _verify_zeros(call, text, rng):
    a = float(call.args[2])
    refined = "--no-refine" not in call.args
    rows = _zero_rows(text)
    tables = gates.table_checks(a, rows, refined)
    field = "z_refined" if refined else "z_approx"
    ok = []
    for i, row in enumerate(rows):
        z = row[field]
        good = (z is not None and _finite(z)
                and gates.in_region(row["family"], z) and tables.get(i, True))
        if good and refined:
            good = gates.certified(a, z)
        ok.append(good)
    if not refined:
        by_family = {}
        for i, row in enumerate(rows):
            by_family.setdefault(row["family"], []).append(i)
        # small m, where the expansions are least accurate, plus a sample
        checked = {i for rows_i in by_family.values() for i in rows_i[:3]}
        checked |= set(rng.sample(range(len(rows)),
                                  min(SEED_SAMPLES, len(rows))))
        for i in sorted(checked):
            ok[i] = ok[i] and gates.seed_ok(a, rows[i]["z_approx"])
    return ok


def _verify_grid(call, text, rng):
    a = float(call.args[2])
    rows = [l.split(",") for l in text.splitlines()[2:]]
    ok = [len(r) == 3 and all(math.isfinite(float(v)) for v in r)
          and abs(float(r[2])) <= math.pi for r in rows]
    for i in rng.sample(range(len(rows)), min(GRID_SAMPLES, len(rows))):
        if ok[i]:
            x, y, arg_u = map(float, rows[i])
            ok[i] = gates.phase_ok(a, complex(x, y), arg_u)
    return ok


def _verify_sweep(call, values):
    a, count = call.args
    ok = [gates.certified(a, z) for z in values]
    if a == 8.3:
        for m, ref in gates.TABLE2.items():
            if m <= len(values):
                ok[m - 1] = ok[m - 1] and gates.rel_ok(values[m - 1], ref,
                                                       gates.TABLE_TOL)
    return ok


def verify(call, outcome, rng):
    """One verdict per op of `call` (len == call.ops): True when the op's
    value passed its gates, False when it was returned wrong, None when
    the call did not return it."""
    ok = []
    if outcome.result is not None:
        if call.kind == "hermite":
            ok = gates.hermite_ok(call.args[0], outcome.result)
        elif call.kind == "sweep":
            ok = _verify_sweep(call, outcome.result)
        else:
            code, text = outcome.result
            if call.args[0] == "phase-grid":
                ok = _verify_grid(call, text, rng) if code == 0 else []
            else:
                ok = _verify_zeros(call, text, rng)
    return (ok + [None] * call.ops)[:call.ops]
