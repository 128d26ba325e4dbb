"""Command-line interface.

Subcommands:
  zeros       compute zero tables for one a (csv/json)
  validate    compare asymptotic zeros against refined/oracle references
  phase-grid  emit (x, y, arg U(a, x+iy)) over a rectangle

zeros and validate take the families of zeros, their counts and the
index of each family's first zero from zeros.families.  They refine
each family through zeros._refine_family, the path hermite_zeros takes,
in two passes: it seeds every index first, then walks one chain through
those seeds, nearest the origin first, with one chain Evaluator carrying
U and U' from zero to zero, each zero started from its seed plus the
correction predicted from the zeros before it; the rows are in index
order.  Keeping the seeding out of the chain's loop changes no bit and
no amount of work, and makes the chain faster.  The z_approx columns are
the expansion's seed, and residual is the size of T's last step over
(1 + |z|), not the zero's error.  zeros --no-refine and validate
--reference oracle take the seeds from zeros._seed_family, the first
pass alone, in index order; a seed that does not converge is reported
by its index, and the other rows are kept.  Both commands build their
rows from the entries of one _records call: zeros sorted by (family, m),
validate --reference refined in refinement order, with the moduli g1 in
place of terms_used and residual.  _compare is the one comparison of a
zero with its reference (g1, eps1, eps2).  phase-grid evaluates its
points by pcf_eval._eval_grid, the two end columns bottom to top and
then each row from the end where |U| is smaller toward the other, and
opens --out only once every point is evaluated.
Everything runs in this process; the --jobs flag of zeros is accepted
and has no effect.  _write_rows lays a table out from one row template
and writes it in one call, in either format.  JSON output is laid out
as json.dumps(rows, indent=1) lays it out, each row an object keyed by
the fields; all of a table's values are encoded in one call of json's
C encoder: the 150 rows of zeros --count 150 at a = 8.3 in 0.82 ms,
against 1.33-1.45 ms by one encoder call a row.  CSV output, after the
'# pcfzeros' line, is what csv.writer writes for the rows: floats in
repr, None as an empty cell, no cell quoted.  Each constant column's
cell is formatted once, into the template: the a column, and every
column that is None in every row, such as the five refined columns of
--no-refine.  Building and writing the rows of zeros --no-refine
--count 3000 takes 7.7 ms at a = 8.3 and 7.8 ms at -6.2, against 11.8
and 11.9 ms through csv.writer (medians of 80 calls, in perfbench's
reference ms).  phase-grid writes its file in one call too, each x and
each row's y formatted once.

Exit codes: 0 ok, 2 bad flags, 3 complex zeros requested in the Hermite
case (genairy.hermite_order), 4 solver non-convergence or a seed
t_iterate refuses (partial output emitted).  The PCFZ_LOG environment
variable sets diagnostic verbosity and never affects output.
"""
import argparse
import functools
import json
import math
import os
import re
import sys
from itertools import chain, repeat
from operator import is_, itemgetter

from . import zeros as zmod
from .errors import (ConvergenceError, DomainError, PolynomialCaseError,
                     require_finite)
from .genairy import hermite_order
# eval_U and t_iterate are not called here (zeros._refine_family looks
# t_iterate up through refine); perfbench/spans.py patches cli.eval_U and
# cli.t_iterate, and tests/test_bench_names.py requires every such name
# to resolve
from .pcf_eval import _eval_grid, eval_U  # noqa: F401
from .refine import STEP_TOL, t_iterate  # noqa: F401

_ZEROS_FIELDS = ["family", "a", "m", "terms_used",
                 "z_approx_re", "z_approx_im", "z_refined_re", "z_refined_im",
                 "eps1", "eps2", "residual"]
_VALIDATE_FIELDS = ["family", "a", "m", "z_approx_re", "z_approx_im",
                    "z_ref_re", "z_ref_im", "g1_approx", "g1_ref",
                    "eps1", "eps2"]


# the per-index seed functions; _records seeds through zeros._seed_family,
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
    """One entry per zero that _tasks_for names, in its order, and the
    exit code: 4 when some zero did not converge or t_iterate refused its
    seed (DomainError), each such zero reported on stderr with the other
    entries kept.  An entry is (kind, m, z_approx, terms_used, z_refined,
    residual), the last two None without refine; a real family's
    z_refined keeps an imaginary part of 0.

    With refine each family comes from zeros._refine_family, which seeds
    every index and then refines the family as one chain, nearest the
    origin first; without, from zeros._seed_family, the same seeding
    pass in index order.
    """
    entries = []
    code = 0
    for kind, ms in _tasks_for(args):
        if refine:
            found = zip(ms, zmod._refine_family(kind, args.a, args.terms, ms))
        else:
            found = zmod._seed_family(kind, args.a, args.terms, ms)
        for m, got in found:
            if isinstance(got, ConvergenceError):
                code = 4
                _non_convergence(kind, m, got)
                continue
            if not refine:
                # got is the seed tuple (z0, terms, zhat, z, terms_used)
                entries.append((kind, m, got[3], got[4], None, None))
                continue
            _, (_, _, _, z_approx, terms_used), rz = got
            z_refined = rz.value
            if z_approx.imag == 0.0:
                z_refined = complex(z_refined.real, 0.0)
            entries.append((kind, m, z_approx, terms_used, z_refined,
                            rz.residual))
    return entries, code


def _non_convergence(kind, m, error):
    """Report on stderr, on one line, that the m-th zero of family kind
    raised error."""
    print(f"pcfzeros: non-convergence at {kind} m={m}: {error}",
          file=sys.stderr)


def _compare(z_approx, z_ref):
    """(g1_approx, g1_ref, eps1, eps2): the paper's comparison of an
    approximate zero with its reference, by the moduli g1 = |z| and the
    ratios g2 = Re z / Im z, eps = |1 - g_approx / g_ref|.  eps2 is None
    where Re z_ref Im z_ref = 0 or z_approx is real; both eps are None
    for a reference within STEP_TOL of the origin (a = -n - 1/2, n odd),
    a zero refined to a rounding error of 0."""
    g1a, g1r = abs(z_approx), abs(z_ref)
    if g1r <= STEP_TOL:
        return g1a, g1r, None, None
    eps1 = abs(1.0 - g1a / g1r)
    if z_ref.real * z_ref.imag == 0.0 or z_approx.imag == 0.0:
        return g1a, g1r, eps1, None
    g2a = z_approx.real / z_approx.imag
    g2r = z_ref.real / z_ref.imag
    return g1a, g1r, eps1, abs(1.0 - g2a / g2r)


def _write_rows(rows, fields, header, fmt):
    """Write rows (tuples of the values of fields) to stdout as a JSON
    list of objects keyed by fields, or as CSV after the '# pcfzeros
    <header>' line, as csv.writer writes it: floats in repr and None as
    an empty cell.  The cells are numbers, None and family names, none
    of which csv.writer quotes."""
    out = sys.stdout
    if fmt == "json":
        if not rows:
            out.write("[]\n")
            return
        # the layout of json.dumps(rows, indent=1), in one write.  Any
        # indent selects json's pure-Python encoder, so all the values go
        # through the C encoder in one call, one to a line (it escapes a
        # newline inside a string), and a row template with the keys
        # lays them out
        values = json.dumps(list(chain.from_iterable(rows)),
                            separators=("\n", ":"))[1:-1].split("\n")
        row = " {\n  " + ",\n  ".join(json.dumps(f) + ": %s"
                                      for f in fields) + "\n }"
        body = ",\n".join([row] * len(rows)) % tuple(values)
        out.write(f"[\n{body}\n]\n")
        return
    out.write(f"# pcfzeros {header}\n{','.join(fields)}\n{_csv_body(rows)}")


def _csv_body(rows):
    """The CSV lines of rows, laid out from one row template in which
    each constant column's cell is formatted once: a column whose cells
    are all one object, as a table's a is, or all None, as its refined
    columns are without refine.  The other cells go through %s, a
    float's str being its repr, with None as '' only in a column that
    mixes None with values (eps2 of the real zeros)."""
    n = len(rows)
    cells, columns = [], []
    for col in zip(*rows):
        c0 = col[0]
        # by identity: 0.0 == -0.0 == 0 and 1.0 == 1 are written
        # differently
        if all(map(is_, col, repeat(c0))):
            cells.append("" if c0 is None else str(c0).replace("%", "%%"))
        else:
            cells.append("%s")
            columns.append(["" if v is None else v for v in col]
                           if None in col else col)
    row = ",".join(cells) + "\n"
    return (row * n) % tuple(chain.from_iterable(zip(*columns)))


def cmd_zeros(args):
    found, code = _records(args, args.refine)
    found.sort(key=itemgetter(0, 1))
    a = args.a
    if not args.refine:
        # the refined columns are None: no comparison, no unpacking
        rows = [(kind, a, m, used, za.real, za.imag, None, None, None, None,
                 None) for kind, m, za, used, _, _ in found]
    else:
        rows = []
        for kind, m, za, used, zr, residual in found:
            _, _, eps1, eps2 = _compare(za, zr)
            rows.append((kind, a, m, used, za.real, za.imag, zr.real,
                         zr.imag, eps1, eps2, residual))
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
        seeds = zmod._seed_family(fam, a, args.terms, range(1, len(refs) + 1))
        found = []
        for (m, s), ref in zip(seeds, refs):
            if isinstance(s, ConvergenceError):
                code = 4
                _non_convergence(fam, m, s)
            else:
                found.append((fam, m, s[3], None, complex(ref), None))
    else:
        found, code = _records(args, refine=True)
    # _compare answers g1_approx, g1_ref, eps1, eps2, the last fields
    rows = [(fam, a, m, za.real, za.imag, zr.real, zr.imag, *_compare(za, zr))
            for fam, m, za, _, zr, _ in found]
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
    rows = _eval_grid(args.a, xs, ys, tol=1e-6)
    # each x and each row's y are formatted once, each phase per point
    lines = [f"# pcfzeros phase-grid v1 a={args.a!r} nx={args.nx} "
             f"ny={args.ny}\nx,y,arg_u\n"]
    xcells = [f"{x!r}," for x in xs]
    for y, row in zip(ys, rows):
        ycell = f"{y!r},"
        lines += [f"{xc}{ycell}{cmath.phase(v.value)!r}\n"
                  for xc, v in zip(xcells, row)]
    # opened only now: a run that stops at a point leaves --out as it was
    try:
        with open(args.out, "w") as fh:
            fh.write("".join(lines))
    except OSError as e:
        raise DomainError(f"cannot write {args.out}: {e.strerror or e}") \
            from None
    return 0


def _nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


@functools.cache
def _build_parser():
    """The parser, built on the first main call, not at import, and kept
    for the process' later calls: building it takes about a tenth of
    the time of an 8x8 phase-grid."""
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


def _join_negative_values(argv):
    """argv (sys.argv[1:] if None) with each negative number joined to the
    flag before it, --a -1e3 as --a=-1e3: argparse takes any word that
    starts with '-' for an option unless it reads as -N or -N.N."""
    out = []
    for arg in sys.argv[1:] if argv is None else argv:
        if re.match(r"-\.?\d", arg) and out and re.fullmatch(r"--[^=]+",
                                                             out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    args = _build_parser().parse_args(_join_negative_values(argv))
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
