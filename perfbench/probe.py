"""Machine-speed probe.

On a shared virtual machine the CPU's speed drifts by tens of percent
over minutes, far more than the changes the benchmark must resolve.  The
benchmark therefore times this fixed pure-Python kernel right before and
after every measured call and reports times in reference seconds:

    reference time = wall time x PROBE_REF_S / probe time

that is, the wall time on a machine where the probe takes PROBE_REF_S.
The kernel mixes complex arithmetic, cmath calls and small-object churn,
like the evaluator's inner loops, and shares no code with pcfzeros.  It
imports nothing that pcfzeros does not import itself, so timing `import
pcfzeros` after it is not distorted.
"""
import cmath
import time

PROBE_REF_S = 0.002  # about the probe's median time on the 2-vCPU machine
                     # the benchmark was calibrated on


def probe():
    """Seconds taken by one run of the fixed kernel."""
    t0 = time.perf_counter()
    z = 0.3 + 0.4j
    acc = 0j
    term = 1 + 0j
    seen = {}
    for k in range(1, 6000):
        term = term * z / k + cmath.sqrt(k)
        acc += term
        seen[k & 63] = abs(acc)
    return time.perf_counter() - t0
