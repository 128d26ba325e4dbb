"""Command-line interface.

Subcommands:
  zeros       compute zero tables for one a (csv/json)
  validate    compare asymptotic zeros against refined/oracle references
  phase-grid  emit (x, y, arg U(a, x+iy)) over a rectangle

zeros and validate take the families of zeros, their counts and the
index of each family's first zero from zeros.families, and seed each
family through one zeros._seeder, called per index.  They refine
each family's zeros in index order as one chain, with one chain
Evaluator carrying U and U' from zero to zero, as sweep and
hermite_zeros do.  phase-grid evaluates its points as one eval_U_path,
row by row with every other row backwards.  Everything runs in this
process; the --jobs flag of zeros is accepted and has no effect.  JSON
output is laid out as json.dumps(rows, indent=1) lays it out.

Exit codes: 0 ok, 2 bad flags, 3 complex zeros requested in the Hermite
case (genairy.hermite_order), 4 solver non-convergence or a seed
t_iterate refuses (partial output emitted).  The PCFZ_LOG environment
variable sets diagnostic verbosity and never affects output.
"""
import argparse
import csv
import json
import math
import os
import sys
from operator import itemgetter

from . import zeros as zmod
from .errors import (ConvergenceError, DomainError, PolynomialCaseError,
                     require_finite)
from .genairy import hermite_order
# eval_U is not called here; perfbench/spans.py patches cli.eval_U, and
# tests/test_bench_names.py requires every such name to resolve
from .pcf_eval import (Evaluator, eval_U,  # noqa: F401
                       eval_U_path, metrics)
from .refine import STEP_TOL, t_iterate

_ZEROS_FIELDS = ["family", "a", "m", "terms_used",
                 "z_approx_re", "z_approx_im", "z_refined_re", "z_refined_im",
                 "eps1", "eps2", "residual"]
_VALIDATE_FIELDS = ["family", "a", "m", "z_approx_re", "z_approx_im",
                    "z_ref_re", "z_ref_im", "g1_approx", "g1_ref",
                    "eps1", "eps2"]


# the per-index seed functions; _records seeds through zeros._seeder,
# but perfbench/spans.py patches this table, and
# tests/test_bench_names.py requires every such name to resolve
_FAMILY_FN = {
    "apos-complex": zmod.zeros_apos,
    "aneg-positive": zmod.zeros_aneg_positive,
    "aneg-nonpositive": zmod.zeros_aneg_nonpositive,
    "aneg-complex": zmod.zeros_aneg_complex,
}


_FAMILY_KIND = {"apos": "apos-complex", "pos": "aneg-positive",
                "nonpos": "aneg-nonpositive", "complex": "aneg-complex"}


def _tasks_for(args):
    """(kind, indices) of each family to compute, in refinement order:
    the non-empty families of zeros.families, or the one --family names."""
    fams = zmod.families(args.a, complex_count=args.count)
    if args.family != "auto":
        kind = _FAMILY_KIND[args.family]
        fams = [f for f in fams if f.kind == kind]
        if not fams:
            raise DomainError(f"family {args.family} incompatible with "
                              f"a={args.a}")
        if kind == "aneg-complex" and hermite_order(fams[0].u) is not None:
            raise PolynomialCaseError(f"a = {args.a} is the Hermite case "
                                      "a = -n - 1/2: no complex zeros")
    return [(f.kind, range(f.start, f.start + f.count))
            for f in fams if f.count]


def _records(args, refine):
    """One row per zero that _tasks_for names, in its order, and the exit
    code: 4 when some zero did not converge or t_iterate refused its seed
    (DomainError), each such zero reported on stderr with the other rows
    kept.  A row is a dict keyed by _ZEROS_FIELDS, in their order; the
    refined fields are None without refine.

    Each family is refined as one chain: a chain Evaluator made here
    carries U and U' from each zero to the next.
    """
    a = args.a
    rows = []
    code = 0
    for kind, ms in _tasks_for(args):
        walker = Evaluator(a, STEP_TOL, "chain")
        seed = zmod._seeder(kind, a, args.terms)
        for m in ms:
            try:
                _, _, _, z_approx, terms_used = seed(m)
                zr_re = zr_im = eps1 = eps2 = residual = None
                if refine:
                    try:
                        rz = t_iterate(a, z_approx, evaluator=walker)
                    except DomainError as e:
                        # a seed on the turning point, where T is undefined
                        raise ConvergenceError(str(e), last=z_approx) from e
                    z_refined = rz.value
                    if z_approx.imag == 0.0:
                        z_refined = complex(z_refined.real, 0.0)
                    zr_re, zr_im = z_refined.real, z_refined.imag
                    residual = rz.residual
                    rec = metrics(z_approx, z_refined, m=m)
                    eps1 = rec.eps1
                    eps2 = rec.eps2
            except ConvergenceError as e:
                code = 4
                print(f"pcfzeros: non-convergence at {kind} m={m}: {e}",
                      file=sys.stderr)
                continue
            rows.append({
                "family": kind, "a": a, "m": m,
                "terms_used": terms_used,
                "z_approx_re": z_approx.real, "z_approx_im": z_approx.imag,
                "z_refined_re": zr_re, "z_refined_im": zr_im,
                "eps1": eps1, "eps2": eps2, "residual": residual})
    return rows, code


def _write_rows(rows, fields, header, fmt):
    """Write rows (dicts keyed by fields) to stdout as a JSON list, or as
    CSV after the '# pcfzeros <header>' line, floats in repr and None
    as an empty cell (csv.writer's own conversions)."""
    out = sys.stdout
    if fmt == "json":
        # the layout of json.dumps(rows, indent=1), in one write; any
        # indent selects json's pure-Python encoder, so each row goes
        # through the C encoder, its separators giving the indentation
        if not rows:
            out.write("[]\n")
            return
        items = [json.dumps(r, separators=(",\n  ", ": "))[1:-1]
                 for r in rows]
        out.write("[\n {\n  " + "\n },\n {\n  ".join(items) + "\n }\n]\n")
        return
    out.write("# pcfzeros " + header + "\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(fields)
    w.writerows(map(itemgetter(*fields), rows))


def cmd_zeros(args):
    rows, code = _records(args, args.refine)
    rows.sort(key=itemgetter("family", "m"))
    header = (f"zeros v1 a={args.a!r} family={args.family} "
              f"terms={args.terms} refine={int(args.refine)}")
    _write_rows(rows, _ZEROS_FIELDS, header, args.format)
    return code


def _oracle_reference(a):
    """Independent Hermite-node oracle (the Hermite case, n >= 1, only)."""
    import numpy as np
    n = hermite_order(-2.0 * a)
    if n is None or n < 1:
        raise DomainError("oracle reference requires the Hermite case "
                          "a = -n - 1/2, n >= 1")
    nodes = np.polynomial.hermite.hermgauss(n)[0]
    pos = sorted(x for x in nodes if x > 0)[::-1]  # decreasing, m=1 largest
    return [math.sqrt(2.0) * x for x in pos]  # back to the U(a, z) variable


def cmd_validate(args):
    a = args.a
    code = 0
    if args.reference == "oracle":
        refs = _oracle_reference(a)
        fam = "aneg-positive"
        seed = zmod._seeder(fam, a, args.terms)
        pairs = [(fam, m, seed(m)[3], complex(ref))
                 for m, ref in enumerate(refs, 1)]
    else:
        found, code = _records(args, refine=True)
        pairs = [(r["family"], r["m"],
                  complex(r["z_approx_re"], r["z_approx_im"]),
                  complex(r["z_refined_re"], r["z_refined_im"]))
                 for r in found]
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
        sp.add_argument("--family", default="auto",
                        choices=("auto", "apos", "pos", "nonpos", "complex"))

    sp = sub.add_parser("zeros", help="compute zero tables")
    common(sp)
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction,
                    default=True)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: zeros are computed in this "
                         "process, the same for every value")
    sp.set_defaults(fn=cmd_zeros)

    sp = sub.add_parser("validate", help="compare against references")
    common(sp)
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
    args = _build_parser().parse_args(argv)
    name = os.environ.get("PCFZ_LOG")
    if name:
        import logging
        # a name that is not a level (BASIC_FORMAT, say) is WARNING, as
        # an unknown one is
        level = logging.getLevelName(name.upper())
        logging.basicConfig(level=level if isinstance(level, int)
                            else logging.WARNING)
        logging.getLogger("pcfzeros").debug("args: %s", args)
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
