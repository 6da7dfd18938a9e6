#!/usr/bin/env python3
"""RomulusDB benchmark driver.

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, or
$CARGO_TARGET_DIR/perfbench when that is set, then runs one workload:

  python3 perfbench/run.py --workload point_1t --seed 1 --seconds 10 --trace 0

The last line of standard output is the benchmark's JSON result.  Two
extra modes help tune and check the benchmark itself:

  --repeat K [--workloads a,b]   run each workload K times (seeds 1..K) and
                                 print median, quartiles and spread per metric
  --selftest                     plant a model mismatch, a committed crash
                                 child and a corrupted value; each run must
                                 report correct=false
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["point_1t", "batch_1t", "mixed_4t"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: ../src not found next to perfbench/; "
                 "run from a checkout of the repository")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "romulusdb_bench")


def run_once(binary, workload, seed, seconds, trace, plant="none",
             echo=True):
    """Run one workload; returns (exit code, parsed last line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--plant", plant]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 124, None
    lines = p.stdout.splitlines()
    if echo:
        sys.stdout.write(p.stdout)
        sys.stdout.flush()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def repeat(binary, workloads, k, seconds, trace):
    for w in workloads:
        values = {}
        for seed in range(1, k + 1):
            code, res = run_once(binary, w, seed, seconds, trace, echo=False)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})")
                continue
            for name, m in res["metrics"].items():
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {k} runs, seeds 1..{k}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:8.3%}")


def selftest(binary):
    ok = True
    for plant in ["model", "crash-commit", "corrupt"]:
        code, res = run_once(binary, "batch_1t", 1, 1, 0, plant, echo=False)
        caught = code != 0 and res is not None and not res["correct"]
        print(f"selftest plant={plant}: "
              f"{'caught' if caught else 'NOT CAUGHT'} (exit {code})")
        ok = ok and caught
    code, res = run_once(binary, "batch_1t", 1, 1, 0, echo=False)
    clean = code == 0 and res is not None and res["correct"]
    print(f"selftest clean run: {'passes' if clean else 'FAILS'}")
    return ok and clean


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if a.selftest:
        sys.exit(0 if selftest(binary) else 1)
    if a.repeat:
        repeat(binary, a.workloads.split(","), a.repeat, a.seconds, a.trace)
        return
    if a.workload is None:
        ap.error("--workload is required")
    code, res = run_once(binary, a.workload, a.seed, a.seconds, a.trace)
    if res is None:
        sys.exit(code or 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
