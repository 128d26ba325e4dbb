"""Self-tests of the benchmark.

    python3 -m pytest perfbench

The last two tests run the benchmark itself on the `grid` workload for a
second, once untraced and once traced.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_perturbed_refined_zero_fails_its_gate():
    z = gates.TABLE2[1]
    assert gates.certified(8.3, z)
    assert not gates.certified(8.3, z + 1e-6)


def test_perturbed_cli_zero_fails_its_gate(tmp_path):
    call = workloads.Call("cli", ("zeros", "--a", "8.3", "--count", "5",
                                  "--jobs", "1", "--format", "json"), 5)
    out = workloads.run_call(call, str(tmp_path))
    code, text = out.result
    assert code == 0
    assert workloads.verify(call, out, None) == [True] * 5
    rows = json.loads(text)
    rows[2]["z_refined_re"] += 1e-6
    bad = workloads.Outcome((code, json.dumps(rows)), "")
    assert workloads.verify(call, bad, None) == [True, True, False, True,
                                                  True]


def test_perturbed_hermite_node_fails_its_gate():
    nodes = workloads.run_call(workloads.Call("hermite", (30,), 30),
                               "").result
    assert gates.hermite_ok(30, nodes) == [True] * 30
    bad = list(nodes)
    bad[-1] += 1e-6
    assert gates.hermite_ok(30, bad) == [True] * 29 + [False]


def test_raised_call_leaves_its_ops_unreturned():
    call = workloads.Call("hermite", (225,), 225)
    out = workloads.run_call(call, "")
    assert out.result is None and out.error.startswith("ConvergenceError")
    assert workloads.verify(call, out, None) == [None] * 225


def _lookup_table():
    return [(owner, key, spans._get(owner, key))
            for owner, key, _, _ in spans.patch_sites()]


def test_traced_run_restores_every_patched_name(tmp_path):
    before = _lookup_table()
    tracer = spans.Tracer()
    calls = [workloads.Call("cli", ("zeros", "--a", "-6.2", "--count", "3",
                                    "--jobs", "1"), 0),
             workloads.Call("hermite", (12,), 12),
             workloads.Call("sweep", (8.3, 3), 3)]
    with spans.traced(tracer):
        assert all(spans._get(o, k) is not f for o, k, f in before)
        for call in calls:
            assert workloads.run_call(call, str(tmp_path)).error == ""
    assert all(spans._get(o, k) is f for o, k, f in before)
    names = {r[0] for r in tracer.records}
    assert {"cli.main", "zeros.zeros_aneg_complex", "genairy.refine_zero",
            "refine.t_iterate", "pcf_eval.eval_U_near_zero",
            "refine.sweep", "zeros.hermite_zeros"} <= names


def test_names_are_restored_when_a_traced_call_raises():
    before = _lookup_table()
    with pytest.raises(ZeroDivisionError):
        with spans.traced(spans.Tracer()):
            1 / 0
    assert all(spans._get(o, k) is f for o, k, f in before)


def test_self_times_add_up_to_the_span_durations():
    tracer = spans.Tracer()
    outer = tracer.wrap("outer", lambda f: f() + f())
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer(inner)
    s = tracer.summary()
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] + s["inner"]["self_s"] == \
        pytest.approx(s["outer"]["total_s"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.calls_for(workload, 7) == workloads.calls_for(workload,
                                                                   7)
    assert workloads.calls_for(workload, 7) != workloads.calls_for(workload,
                                                                   8)


def _bench(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(trace, kind):
    result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["pcf_eval.mp_share"] >= 0.8
        self_s = sum(v for k, v in m.items()
                     if k.endswith("_s") and not k.startswith("tracing."))
        assert self_s + m["tracing.unaccounted_s"] == \
            pytest.approx(m["tracing.wall_s"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
