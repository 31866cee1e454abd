"""The state-space scan four ways: fused, recurrence, parallel scan,
convolution.

A discretized linear state-space layer can be evaluated step by step, as
an associative parallel scan, or (when its parameters do not vary over
time) as a causal convolution with an unrolled kernel.  The model itself
runs the fused selective scan, one tape node that discretizes, scans and
reads out in numpy blocks; the other three are plain-numpy oracles it is
checked against.  This script checks them against each other on random
systems and times the fused op next to the two oracle scans as the sequence
grows.
"""

import argparse
import time

import numpy as np

from rangeloop import ssm


def random_system(rng, m, e, n):
    """Step sizes, A_log, B, C, skip gain and input; the fused scan takes
    A_log and B, C as the two column blocks of one projection."""
    delta = rng.uniform(1e-3, 1e-1, size=(1, m, e))
    a_log = np.log(rng.uniform(0.2, 2.0, size=(e, n)))
    b = rng.standard_normal((1, m, n))
    c = rng.standard_normal((1, m, n))
    d = rng.standard_normal(e)
    x = rng.standard_normal((1, m, e))
    return delta, a_log, b, c, d, x


def equivalence_demo(rng):
    print("selective scan: parallel and fused vs sequential")
    for m in (4, 64, 900):
        delta, a_log, b, c, d, x = random_system(rng, m, 4, 8)
        a = -np.exp(a_log)
        zoh = ssm.discretize(delta, a, b, mode="zoh")
        seq = ssm.scan_sequential(zoh, c, d, x)
        par = ssm.scan_parallel(zoh, c, d, x)
        euler = ssm.discretize(delta, a, b, mode="euler")
        seq_e = ssm.scan_sequential(euler, c, d, x)
        fused = ssm.selective_scan(x, delta, a_log, np.concatenate([b, c], axis=2), d).data
        print(f"  length {m:4d}: max |seq - par| = {np.max(np.abs(seq - par)):.2e}, "
              f"max |seq - fused| (Euler) = {np.max(np.abs(seq_e - fused)):.2e}")


def duality_demo(rng):
    print("\ntime-invariant system: recurrence vs unrolled convolution kernel")
    e, n, m = 2, 6, 48
    delta = rng.uniform(0.05, 0.5, size=e)
    a = -np.exp(rng.standard_normal((e, n)) * 0.5)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    d = rng.standard_normal(e)
    x = rng.standard_normal((1, m, e))

    abar = np.exp(delta[:, None] * a)
    bbar = delta[:, None] * b[None, :]
    kern = ssm.lti_kernel(abar, bbar, c, m)
    y_conv = ssm.causal_conv(x, kern) + d * x

    dssm = ssm.discretize(np.broadcast_to(delta, (1, m, e)), a, b, mode="euler")
    y_scan = ssm.scan_sequential(dssm, c, d, x)
    print(f"  kernel shape {kern.shape}, max |scan - conv| = "
          f"{np.max(np.abs(y_scan - y_conv)):.2e}")


def _median_time(fn, reps):
    fn()  # warm-up
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2]


def timing_demo(rng, reps):
    print(f"\nwall time per evaluation, Euler operators (median of {reps}):")
    # the last row is one branch of the paper-size model
    for m, e, n in ((64, 4, 8), (256, 4, 8), (900, 4, 8), (900, 512, 16)):
        delta, a_log, b, c, d, x = random_system(rng, m, e, n)
        dssm = ssm.discretize(delta, -np.exp(a_log), b, mode="euler")
        bc = np.concatenate([b, c], axis=2)
        times = {
            "fused": _median_time(lambda: ssm.selective_scan(x, delta, a_log, bc, d), reps),
            "sequential": _median_time(lambda: ssm.scan_sequential(dssm, c, d, x), reps),
            "parallel": _median_time(lambda: ssm.scan_parallel(dssm, c, d, x), reps),
        }
        print(f"  length {m:4d}, E={e:3d}, N={n:2d}: " + ", ".join(
            f"{name} {t * 1e3:7.2f} ms" for name, t in times.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    equivalence_demo(rng)
    duality_demo(rng)
    timing_demo(rng, args.reps)


if __name__ == "__main__":
    main()
