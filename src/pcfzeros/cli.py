"""Command-line interface.

Subcommands:
  zeros       compute zero tables for one a (csv/json)
  validate    compare asymptotic zeros against refined/oracle references
  phase-grid  emit (x, y, arg U(a, x+iy)) over a rectangle

zeros and validate refine each family's zeros in index order as one
chain, with one chain Evaluator carrying U and U' from zero to zero, as
sweep and hermite_zeros do.  phase-grid evaluates its points as one
eval_U_path, row by row with every other row backwards.  Everything
runs in this process; the --jobs flag of zeros is accepted and has no
effect.

Exit codes: 0 ok, 2 bad flags, 3 polynomial-case complex request,
4 solver non-convergence (partial output emitted).  The PCFZ_LOG
environment variable sets diagnostic verbosity and never affects output.
"""
import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import zeros as zmod
from .errors import (ConvergenceError, DomainError, PolynomialCaseError,
                     require_finite)
# eval_U is not called here; perfbench/spans.py patches cli.eval_U, and
# tests/test_bench_names.py requires every such name to resolve
from .pcf_eval import (Evaluator, eval_U,  # noqa: F401
                       eval_U_path, metrics)
from .refine import STEP_TOL, t_iterate

log = logging.getLogger("pcfzeros")

_ZEROS_FIELDS = ["family", "a", "m", "terms_used",
                 "z_approx_re", "z_approx_im", "z_refined_re", "z_refined_im",
                 "eps1", "eps2", "residual"]
_VALIDATE_FIELDS = ["family", "a", "m", "z_approx_re", "z_approx_im",
                    "z_ref_re", "z_ref_im", "g1_approx", "g1_ref",
                    "eps1", "eps2"]


@dataclass(frozen=True)
class OutputRecord:
    family: str
    a: float
    m: int
    terms_used: int
    z_approx: complex
    z_refined: Optional[complex]
    eps1: Optional[float]
    eps2: Optional[float]
    residual: Optional[float]

    def row(self):
        zr = self.z_refined
        return {
            "family": self.family, "a": self.a, "m": self.m,
            "terms_used": self.terms_used,
            "z_approx_re": self.z_approx.real,
            "z_approx_im": self.z_approx.imag,
            "z_refined_re": None if zr is None else zr.real,
            "z_refined_im": None if zr is None else zr.imag,
            "eps1": self.eps1, "eps2": self.eps2, "residual": self.residual,
        }


_FAMILY_FN = {
    "apos-complex": zmod.zeros_apos,
    "aneg-positive": zmod.zeros_aneg_positive,
    "aneg-nonpositive": zmod.zeros_aneg_nonpositive,
    "aneg-complex": zmod.zeros_aneg_complex,
}


def _tasks_for(args):
    """(kind, indices) of each family to compute, in refinement order."""
    a = args.a
    fam = args.family
    if fam == "auto":
        tasks = []
        for f in zmod.families(a, complex_count=args.count):
            if f.count == 0:
                continue
            if f.kind == "aneg-nonpositive":
                start = 1 - zmod.vartheta(f.u)
                ms = range(start, start + f.count)
            else:
                ms = range(1, (f.count or args.count) + 1)
            tasks.append((f.kind, ms))
        return tasks
    kind = {"apos": "apos-complex", "pos": "aneg-positive",
            "nonpos": "aneg-nonpositive", "complex": "aneg-complex"}[fam]
    if kind == "apos-complex" and a <= 0 or kind != "apos-complex" and a >= 0:
        raise DomainError(f"family {fam} incompatible with a={a}")
    if kind == "aneg-positive":
        ms = range(1, zmod.count_positive(-2.0 * a) + 1)
    elif kind == "aneg-nonpositive":
        u = -2.0 * a
        start = 1 - zmod.vartheta(u)
        ms = range(start, start + zmod.m_minus(a))
    else:
        if kind == "aneg-complex":
            # raises PolynomialCaseError for odd-integer u
            from .genairy import _check_polynomial_case
            _check_polynomial_case(-2.0 * a)
        ms = range(1, args.count + 1)
    return [(kind, ms)]


def _records(args, refine):
    """One OutputRecord per zero that _tasks_for names, in its order, and
    the exit code: 4 when some zero did not converge, each such zero
    reported on stderr with the other records kept.

    Each family is refined as one chain: a chain Evaluator made here
    carries U and U' from each zero to the next.
    """
    a = args.a
    records = []
    code = 0
    for kind, ms in _tasks_for(args):
        walker = Evaluator(a, STEP_TOL, "chain")
        for m in ms:
            try:
                approx = _FAMILY_FN[kind](a, m, terms=args.terms)
                z_approx = approx.z
                z_refined = eps1 = eps2 = residual = None
                if refine:
                    rz = t_iterate(a, z_approx, evaluator=walker)
                    z_refined = rz.value
                    if z_approx.imag == 0.0:
                        z_refined = complex(z_refined.real, 0.0)
                    residual = rz.residual
                    rec = metrics(z_approx, z_refined, m=m)
                    eps1 = rec.eps1
                    eps2 = rec.eps2
            except ConvergenceError as e:
                code = 4
                print(f"pcfzeros: non-convergence at {kind} m={m}: {e}",
                      file=sys.stderr)
                continue
            records.append(OutputRecord(
                family=kind, a=a, m=m, terms_used=approx.terms_used,
                z_approx=z_approx, z_refined=z_refined,
                eps1=eps1, eps2=eps2, residual=residual))
    return records, code


def _write_rows(rows, fields, header, fmt):
    """Write rows (dicts keyed by fields) to stdout as a JSON list, or as
    CSV after the '# pcfzeros <header>' line, floats in repr and None
    as an empty cell."""
    out = sys.stdout
    if fmt == "json":
        json.dump(rows, out, indent=1)
        out.write("\n")
        return
    out.write("# pcfzeros " + header + "\n")
    w = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow({k: ("" if v is None else repr(v) if
                        isinstance(v, float) else v)
                    for k, v in row.items()})


def cmd_zeros(args):
    records, code = _records(args, args.refine)
    records.sort(key=lambda r: (r.family, r.m))
    header = (f"zeros v1 a={args.a!r} family={args.family} "
              f"terms={args.terms} refine={int(args.refine)}")
    _write_rows([r.row() for r in records], _ZEROS_FIELDS, header,
                args.format)
    return code


def _oracle_reference(a, count):
    """Independent Hermite-node oracle (polynomial case only)."""
    import numpy as np
    u = -2.0 * a
    n = round((u - 1.0) / 2.0)
    if n < 1 or abs(u - (2 * n + 1)) > 1e-9:
        raise DomainError("oracle reference requires the polynomial case "
                          "a = -n - 1/2")
    nodes = np.polynomial.hermite.hermgauss(n)[0]
    pos = sorted(x for x in nodes if x > 0)[::-1]  # decreasing, m=1 largest
    return [math.sqrt(2.0) * x for x in pos]  # back to the U(a, z) variable


def cmd_validate(args):
    a = args.a
    code = 0
    if args.reference == "oracle":
        refs = _oracle_reference(a, args.count)
        fam = "aneg-positive"
        pairs = []
        for m in range(1, len(refs) + 1):
            approx = zmod.zeros_aneg_positive(a, m, terms=args.terms)
            pairs.append((fam, m, approx.z, complex(refs[m - 1])))
    else:
        records, code = _records(args, refine=True)
        pairs = [(r.family, r.m, r.z_approx, r.z_refined) for r in records]
    rows = []
    for fam, m, za, zr in pairs:
        rec = metrics(za, zr, m=m)
        rows.append({
            "family": fam, "a": a, "m": m,
            "z_approx_re": za.real, "z_approx_im": za.imag,
            "z_ref_re": zr.real, "z_ref_im": zr.imag,
            "g1_approx": rec.g1_approx, "g1_ref": rec.g1_ref,
            "eps1": rec.eps1, "eps2": rec.eps2,
        })
    header = (f"validate v1 a={a!r} reference={args.reference} "
              f"terms={args.terms}")
    _write_rows(rows, _VALIDATE_FIELDS, header, args.format)
    return code


def cmd_phase_grid(args):
    if args.nx < 1 or args.ny < 1 or args.re_max < args.re_min \
            or args.im_max < args.im_min:
        raise DomainError("empty or inverted grid ranges")
    import cmath

    def coords(lo, hi, n):
        if n == 1:
            return [lo]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    xs = coords(args.re_min, args.re_max, args.nx)
    ys = coords(args.im_min, args.im_max, args.ny)
    # row by row, every other row backwards, so that each point is next
    # to the one before it and eval_U_path steps on from there
    path = [(i, j) for i in range(args.ny)
            for j in (range(args.nx) if i % 2 == 0
                      else range(args.nx - 1, -1, -1))]
    with open(args.out, "w") as fh:
        fh.write(f"# pcfzeros phase-grid v1 a={args.a!r} "
                 f"nx={args.nx} ny={args.ny}\n")
        fh.write("x,y,arg_u\n")
        values = eval_U_path(args.a, [complex(xs[j], ys[i])
                                      for i, j in path], tol=1e-6)
        phase = dict(zip(path, (cmath.phase(v.value) for v in values)))
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                fh.write(f"{x!r},{y!r},{phase[i, j]!r}\n")
    return 0


def _nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _build_parser():
    p = argparse.ArgumentParser(prog="pcfzeros",
                                description="Zeros of the parabolic "
                                            "cylinder function U(a,z)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--a", type=float, required=True,
                        help="parameter a of U(a,z)")
        sp.add_argument("--count", type=_nonnegative_int, default=5,
                        help="how many complex zeros (finite families are "
                             "always enumerated fully)")
        sp.add_argument("--terms", type=int, choices=(1, 2, 3), default=3)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("zeros", help="compute zero tables")
    common(sp)
    sp.add_argument("--family", default="auto",
                    choices=("auto", "apos", "pos", "nonpos", "complex"))
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction,
                    default=True)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: zeros are computed in this "
                         "process, the same for every value")
    sp.set_defaults(fn=cmd_zeros)

    sp = sub.add_parser("validate", help="compare against references")
    common(sp)
    sp.add_argument("--family", default="auto",
                    choices=("auto", "apos", "pos", "nonpos", "complex"))
    sp.add_argument("--reference", choices=("refined", "oracle"),
                    default="refined")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("phase-grid", help="emit arg U(a,z) over a grid")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--re-min", type=float, required=True)
    sp.add_argument("--re-max", type=float, required=True)
    sp.add_argument("--im-min", type=float, required=True)
    sp.add_argument("--im-max", type=float, required=True)
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--ny", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_phase_grid)
    return p


def main(argv=None):
    level = os.environ.get("PCFZ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    log.debug("args: %s", args)
    try:
        require_finite(a=args.a)
        return args.fn(args)
    except DomainError as e:
        print(f"pcfzeros: {e}", file=sys.stderr)
        return 3 if isinstance(e, PolynomialCaseError) else 2
    except ConvergenceError as e:
        print(f"pcfzeros: non-convergence: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
