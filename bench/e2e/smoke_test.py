#!/usr/bin/env python3
"""ctest: run raidsim_bench --smoke --traced and check that every workload
BENCHMARK.json names reports every end-to-end and per-layer metric it
names, with its unit, that no rep failed, and that each traced run wrote a
loadable Chrome-trace span file.

    smoke_test.py <raidsim_bench> <BENCHMARK.json> <scratch dir>
"""

import json
import os
import subprocess
import sys


def main():
    binary, spec_path, scratch = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    os.makedirs(scratch, exist_ok=True)
    out = os.path.join(scratch, "results.json")
    traces = os.path.join(scratch, "traces")
    proc = subprocess.run([binary, "--all", "--smoke", "--traced", f"--out={out}",
                           f"--trace-out={traces}"], stdout=subprocess.DEVNULL)
    errors = []
    if proc.returncode != 0:
        errors.append(f"raidsim_bench exited {proc.returncode}")
    with open(out) as f:
        results = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(results["workloads"]) != sorted(names):
        errors.append(f"workloads {sorted(results['workloads'])} != {sorted(names)}")
    for name in names:
        entry = results["workloads"].get(name, {})
        if entry.get("failed", 1) != 0:
            errors.append(f"{name}: failed reps {entry.get('failures')}")
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for m in spec[section]:
                got = entry.get(key, {}).get(m["name"])
                if got is None:
                    errors.append(f"{name}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    errors.append(f"{name}: {m['name']} reported as {got}")
        trace_file = entry.get("trace_file", "")
        try:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            if not any(e.get("ph") == "X" and "dur" in e for e in events):
                errors.append(f"{name}: no spans in {trace_file}")
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"{name}: unreadable span file {trace_file!r}: {exc}")
    for e in errors:
        print("FAIL", e)
    print(f"smoke metrics: {len(names)} workloads, "
          f"{len(spec['end_to_end']) + len(spec['per_layer'])} metrics each, "
          f"{len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
