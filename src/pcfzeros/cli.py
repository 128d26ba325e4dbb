"""Command-line interface.

Subcommands:
  zeros       compute zero tables for one a (csv/json)
  validate    compare asymptotic zeros against refined/oracle references
  phase-grid  emit (x, y, arg U(a, x+iy)) over a rectangle

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from . import zeros as zmod
from .errors import ConvergenceError, DomainError, PolynomialCaseError
from .pcf_eval import eval_U, metrics
from .refine import t_iterate

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


def _compute_record(task):
    """Worker: one (family, a, m, terms, refine) -> OutputRecord, or the
    ConvergenceError that stopped it, returned so that the other tasks
    keep their results."""
    family, a, m, terms, refine = task
    try:
        approx = _FAMILY_FN[family](a, m, terms=terms)
        z_approx = approx.z
        z_refined = eps1 = eps2 = residual = None
        if refine:
            rz = t_iterate(a, z_approx)
            z_refined = rz.value
            if z_approx.imag == 0.0:
                z_refined = complex(z_refined.real, 0.0)
            residual = rz.residual
            rec = metrics(z_approx, z_refined, m=m)
            eps1 = rec.eps1
            eps2 = rec.eps2
    except ConvergenceError as e:
        return e
    return OutputRecord(family=family, a=a, m=m, terms_used=approx.terms_used,
                        z_approx=z_approx, z_refined=z_refined,
                        eps1=eps1, eps2=eps2, residual=residual)


def _tasks_for(args):
    a = args.a
    fam = args.family
    tasks = []
    if fam == "auto":
        for f in zmod.families(a, complex_count=args.count):
            kind = f.kind
            if f.count == 0:
                continue
            if kind == "aneg-nonpositive":
                start = 1 - zmod.vartheta(f.u)
                ms = range(start, start + f.count)
            else:
                ms = range(1, (f.count or args.count) + 1)
            tasks += [(kind, a, m, args.terms, args.refine) for m in ms]
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
    return [(kind, a, m, args.terms, args.refine) for m in ms]


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


def _run_tasks(tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_compute_record, tasks))
    return [_compute_record(t) for t in tasks]


def cmd_zeros(args):
    tasks = _tasks_for(args)
    records = []
    code = 0
    for task, result in zip(tasks, _run_tasks(tasks, args.jobs)):
        if isinstance(result, ConvergenceError):
            code = 4
            print(f"pcfzeros: non-convergence at {task[0]} m={task[2]}: "
                  f"{result}", file=sys.stderr)
        else:
            records.append(result)
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
    if args.reference == "oracle":
        refs = _oracle_reference(a, args.count)
        fam = "aneg-positive"
        pairs = []
        for m in range(1, len(refs) + 1):
            approx = zmod.zeros_aneg_positive(a, m, terms=args.terms)
            pairs.append((fam, m, approx.z, complex(refs[m - 1])))
    else:
        tasks = _tasks_for(args)
        pairs = []
        for (kind, aa, m, terms, _refine) in tasks:
            approx = _FAMILY_FN[kind](aa, m, terms=terms)
            ref = t_iterate(aa, approx.z).value
            pairs.append((kind, m, approx.z, ref))
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
    return 0


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
    with open(args.out, "w") as fh:
        fh.write(f"# pcfzeros phase-grid v1 a={args.a!r} "
                 f"nx={args.nx} ny={args.ny}\n")
        fh.write("x,y,arg_u\n")
        for y in ys:
            for x in xs:
                v = eval_U(args.a, complex(x, y), tol=1e-6)
                fh.write(f"{x!r},{y!r},{cmath.phase(v.value)!r}\n")
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
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sp.set_defaults(fn=cmd_zeros)

    sp = sub.add_parser("validate", help="compare against references")
    common(sp)
    sp.add_argument("--family", default="auto",
                    choices=("auto", "apos", "pos", "nonpos", "complex"))
    sp.add_argument("--reference", choices=("refined", "oracle"),
                    default="refined")
    sp.set_defaults(fn=cmd_validate, refine=False)

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
        return args.fn(args)
    except DomainError as e:
        print(f"pcfzeros: {e}", file=sys.stderr)
        return 3 if isinstance(e, PolynomialCaseError) else 2


if __name__ == "__main__":
    sys.exit(main())
