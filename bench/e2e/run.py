#!/usr/bin/env python3
"""Build raidsim_bench from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
build/e2e; later calls only check that the build is current. The
benchmark's own tables go to stderr; the last line of stdout is one JSON
object with the metrics BENCHMARK.json names: its end-to-end metrics with
--trace 0, its per-layer metrics (from the traced run) with --trace 1.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Run cmd in its own process group with stdout sent to stderr; on
    timeout or interruption kill the whole group and wait for it."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("raidsim sources (src/) not found next to bench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S) != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", BUILD, "-j", jobs, "--target", "raidsim_bench"],
            BUILD_TIMEOUT_S) != 0:
        raise RuntimeError("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out = os.path.join(BUILD, "runs",
                       f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    cmd = [os.path.join(BUILD, "raidsim_bench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds:g}", f"--out={out}"]
    if args.trace:
        cmd += ["--traced", "--trace-out=" + os.path.join(BUILD, "traces")]
    if os.path.exists(out):
        os.remove(out)
    code = call(cmd, RUN_TIMEOUT_S)
    if code not in (0, 1):  # 1 = ran, but some rep failed its checks
        raise RuntimeError(f"raidsim_bench exited with {code}")

    with open(out) as f:
        entry = json.load(f)["workloads"][args.workload]
    source = entry["layers" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} [{m['unit']}] not reported")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    attempted = int(entry["attempted"])
    failed = int(entry["failed"])
    correct = code == 0 and failed == 0 and "traced_error" not in entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    # SIGTERM unwinds through call(), which kills the process group it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except Exception as exc:  # no result line on any failure
        log(f"error: {exc}")
        sys.exit(1)
