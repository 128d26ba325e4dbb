"""perfbench/spans.py wraps pcfzeros functions at the names through which
their callers look them up; a rename of one must fail here, in the
package's own tests, and not only in the benchmark's self-tests."""
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "spans.py")


def test_every_benchmark_patch_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = spans.patch_sites()
    assert sites
    for owner, key, name, _note in sites:
        if isinstance(owner, dict):
            target = owner.get(key)
        else:
            target = getattr(owner, key, None)
        assert callable(target), f"{name}: {key!r} does not resolve"
