"""rangeloop benchmark driver.

    python3 rlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json (each in turn with ``--workload all``)
in a child process capped by RLIMIT_AS, so that a memory blow-up is counted
as a MemoryError instead of waking the OOM killer.  BLAS runs on one
thread (see BLAS_THREADS).  Prints the machine fingerprint and every metric
by name and unit, then, as the last line of each workload's report, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics, from a
traced run, with --trace 1.  A metric listed there but not measured counts
as a failure.  The full result, with the fingerprint and the raw operation
times, is also written to .rlbench/result-<workload>.json, and with
--trace 1 the spans to .rlbench/spans-<workload>.jsonl.

Run from the repository root; the package is imported from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ADDRESS_SPACE_CAP = 3 << 30  # bytes; the paper-size forward peaks near 1.2 GiB
# Each workload is one client in one process.  A second busy thread on a
# small shared machine (2 vCPUs) made op times two to three times noisier,
# and bought no speed on these workloads.
BLAS_THREADS = 1
RUN_LIMIT_S = 175.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code under test
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "rangeloop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fingerprint(workload: str, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_name": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS, "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
    }


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(workload: str, args, out_dir: str):
    """The worker's result dict, or None when it produced none."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S,
                              preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(workload: str, bench: dict, args, out_dir: str) -> bool:
    """Run one workload and print its report; True when a result was printed."""
    fp = fingerprint(workload, args)
    print("fingerprint " + json.dumps(fp))
    t0 = time.perf_counter()
    res = run_child(workload, args, out_dir)
    wall_s = time.perf_counter() - t0
    if res is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return False

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    values = res.get("per_layer", {}) if args.trace else res
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    missing = sorted(set(units) - set(metrics))
    failed = res["failed"] + (1 if missing else 0)
    attempted = res["attempted"] + (1 if missing else 0)

    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
    print(f"workload {workload}: {why}")
    print(f"timed ops: {len(res.get('op_s', []))} untraced, "
          f"{len(res.get('traced_op_s', []))} traced; ops_per_s counts "
          f"one {res['unit']} as one op; run wall {wall_s:.1f} s")
    if not args.trace and "ops_per_s" in res:
        print(f"{res['alias']} = {res['ops_per_s']!r} {res['unit']}/s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} "
          f"operations and checks failed)")
    for err in res["errors"]:
        print(f"failure: {err}")
    if missing:
        print(f"failure: metrics not measured: {', '.join(missing)}")

    with open(os.path.join(out_dir, f"result-{workload}.json"), "w") as f:
        json.dump({"fingerprint": fp, "result": res, "wall_s": wall_s}, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return True


def main() -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads, "all"], help="one workload, or all in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rangeloop", "__init__.py")):
        print(f"error: no rangeloop package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".rlbench")
    os.makedirs(out_dir, exist_ok=True)
    names = workloads if args.workload == "all" else [args.workload]
    ok = [run_workload(name, bench, args, out_dir) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
