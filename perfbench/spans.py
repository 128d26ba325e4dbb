"""Benchmark-side tracing of pcfzeros' layers.

Spans are recorded by wrapping each module's public functions at the name
through which the caller looks them up (``refine.eval_U_near_zero``,
``cli.t_iterate``, ``pcf_eval.kummer_pair``, the ``zeros`` imports, ...).
Nothing under ``src/`` is changed; every patched name is restored when
the ``traced`` context exits.  A span's self time is its duration minus
the durations of its direct child spans.
"""
import contextlib
import functools
import statistics
import time

import mpmath

from pcfzeros import cli, genairy, pcf_eval, refine
from pcfzeros import zeros as zmod


def _iterations(result):
    return result.iterations


def _method(result):
    return result.method


def _mp_dps(_result):
    # read while hyp1f1's caller still holds its workdps context
    return mpmath.mp.dps


def patch_sites():
    """(owner, key, span name, note) for every wrapped lookup site.

    owner is a module (attribute patch) or a dict (item patch); note, when
    given, extracts one value from a successful call's result.
    """
    sites = [
        (cli, "main", "cli.main", None),
        (cli, "t_iterate", "refine.t_iterate", _iterations),
        (cli, "eval_U", "pcf_eval.eval_U", _method),
        (refine, "t_iterate", "refine.t_iterate", _iterations),
        (refine, "sweep", "refine.sweep", None),
        (refine, "eval_U_near_zero", "pcf_eval.eval_U_near_zero", _method),
        (pcf_eval, "kummer_pair", "kernels.kummer_pair", None),
        (pcf_eval, "asym_pair", "kernels.asym_pair", None),
        (mpmath, "hyp1f1", "mpmath.hyp1f1", _mp_dps),
        (zmod, "real_airy_zero", "airy.real_airy_zero", None),
        (zmod, "invert_zeta", "mapping.invert_zeta", None),
        (zmod, "correction1", "coeffs.correction1", None),
        (zmod, "correction2", "coeffs.correction2", None),
        (genairy, "eval_ai", "airy.eval_ai", None),
        (genairy, "eval_ai_rotated", "airy.eval_ai_rotated", None),
        (genairy, "eval_bi_real", "airy.eval_bi_real", None),
        (genairy, "neg_zeros", "genairy.neg_zeros", None),
        (genairy, "complex_zeros", "genairy.complex_zeros", None),
        (genairy, "refine_zero", "genairy.refine_zero", None),
    ]
    for fn in ("zeros_apos", "zeros_aneg_positive", "zeros_aneg_nonpositive",
               "zeros_aneg_complex", "families", "count_positive", "m_minus",
               "vartheta", "hermite_zeros"):
        sites.append((zmod, fn, "zeros." + fn, None))
    # the CLI resolves the family functions once, at import, into a table
    for family, fn in cli._FAMILY_FN.items():
        sites.append((cli._FAMILY_FN, family, "zeros." + fn.__name__, None))
    return sites


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """In-memory span recorder: one record per call of a wrapped name."""

    def __init__(self):
        # [name, parent index, start, end, ok, note]
        self.records = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        records = self.records
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, False, None]
            stack.append(len(records))
            records.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[4] = True
                if note is not None:
                    rec[5] = note(result)
                return result
            finally:
                rec[3] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def summary(self):
        """Per span name: calls, failed calls, inclusive and self seconds,
        the notes of successful calls, and the parent span names seen."""
        child = [0.0] * len(self.records)
        for name, parent, t0, t1, ok, note in self.records:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, parent, t0, t1, ok, note) in enumerate(self.records):
            s = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0,
                                      "self_s": 0.0, "notes": [],
                                      "parents": set()})
            s["calls"] += 1
            s["failed"] += not ok
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
            if note is not None:
                s["notes"].append(note)
            s["parents"].add(self.records[parent][0] if parent >= 0 else "")
        return out


@contextlib.contextmanager
def traced(tracer):
    """Wrap every site in patch_sites() for the duration of the block."""
    saved = []
    try:
        for owner, key, name, note in patch_sites():
            original = _get(owner, key)
            saved.append((owner, key, original))
            _set(owner, key, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            _set(owner, key, original)


def _span(summary, name):
    return summary.get(name, {"calls": 0, "failed": 0, "total_s": 0.0,
                              "self_s": 0.0, "notes": []})


def layer_metrics(summary, passes, traced_wall, overhead_s):
    """The per_layer metrics, each per traced pass, from a Tracer summary
    that covers `passes` passes of `traced_wall` seconds in total;
    `overhead_s` is what tracing adds to one pass."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def s_and_calls(prefix, span_names, calls=True):
        spans = [_span(summary, n) for n in span_names]
        put(prefix + "_s", sum(s["self_s"] for s in spans) / passes, "s")
        if calls:
            put(prefix + "_calls", sum(s["calls"] for s in spans) / passes,
                "count")

    for fn in ("eval_ai", "eval_ai_rotated", "eval_bi_real",
               "real_airy_zero"):
        s_and_calls("airy." + fn, ["airy." + fn])
    s_and_calls("mapping.invert_zeta", ["mapping.invert_zeta"])
    s_and_calls("coeffs.correction",
                ["coeffs.correction1", "coeffs.correction2"])
    for fn in ("complex_zeros", "neg_zeros", "refine_zero"):
        s_and_calls("genairy." + fn, ["genairy." + fn])
    s_and_calls("zeros.seed",
                [n for n in summary if n.startswith("zeros.")], calls=False)

    t_it = _span(summary, "refine.t_iterate")
    s_and_calls("refine.t_iterate", ["refine.t_iterate"])
    put("refine.iterations_per_zero",
        statistics.fmean(t_it["notes"]) if t_it["notes"] else 0.0,
        "iterations")
    put("refine.failures", t_it["failed"] / passes, "count")
    s_and_calls("refine.sweep", ["refine.sweep"], calls=False)

    evals = [_span(summary, "pcf_eval.eval_U"),
             _span(summary, "pcf_eval.eval_U_near_zero")]
    n_eval = sum(s["calls"] for s in evals)
    s_and_calls("pcf_eval.eval",
                ["pcf_eval.eval_U", "pcf_eval.eval_U_near_zero"])
    methods = [x for s in evals for x in s["notes"]]
    put("pcf_eval.asym_accept_ratio",
        methods.count("asymptotic") / n_eval if n_eval else 0.0, "ratio")
    mp = _span(summary, "mpmath.hyp1f1")
    put("pcf_eval.mp_s", mp["self_s"] / passes, "s")
    put("pcf_eval.mp_calls", mp["calls"] / passes, "count")
    eval_total = sum(s["total_s"] for s in evals)
    put("pcf_eval.mp_share",
        mp["total_s"] / eval_total if eval_total else 0.0, "ratio")
    dps = mp["notes"]
    put("pcf_eval.mp_dps_p50", float(statistics.median(dps)) if dps else 0.0,
        "digits")
    put("pcf_eval.mp_dps_max", float(max(dps)) if dps else 0.0, "digits")
    for fn in ("kummer_pair", "asym_pair"):
        s_and_calls("kernels." + fn, ["kernels." + fn])

    put("cli.self_s", _span(summary, "cli.main")["self_s"] / passes, "s")
    accounted = sum(s["self_s"] for s in summary.values())
    put("tracing.overhead_s", overhead_s, "s")
    put("tracing.unaccounted_s", (traced_wall - accounted) / passes, "s")
    put("tracing.wall_s", traced_wall / passes, "s")
    return m
