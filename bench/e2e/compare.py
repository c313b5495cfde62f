#!/usr/bin/env python3
"""Compare raidsim_bench results of a parent commit and a change.

    compare.py --parent P1.json [P2.json ...] --change C1.json [C2.json ...]
    compare.py --selftest

Each file is a results JSON written by raidsim_bench (--out). Files pair
up in order: parent[i] with change[i]. For every workload and end-to-end
metric in BENCHMARK.json it prints one row:

  * "REGRESSION" when the change's median is worse than the parent's by
    more than the metric's bound;
  * "unresolved" when the parent's own spread (q3 - q1) is wider than the
    bound, unless every change run beats every parent run;
  * "GAIN" only under the gain rule: at least 10 pairs whose run order
    alternates, the change wins at least 9 in 10 of them (ties count for
    neither), and the medians differ by more than the parent's spread;
  * "within bound" otherwise.

With one file per side the spread is the quartiles of that run's reps.
Results built with different compilers or flags, or run on different
seeds, are refused (exit 2). Exit 1 when any row regressed.
"""

import argparse
import copy
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


class Refused(Exception):
    pass


def summary(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def check_comparable(parents, changes):
    if len(parents) != len(changes):
        raise Refused("need as many change files as parent files")
    first = parents[0]["env"]
    for r in parents + changes:
        for key in ("compiler", "flags", "build_type", "mode"):
            if r["env"][key] != first[key]:
                raise Refused(f"{key} differs: {first[key]!r} vs {r['env'][key]!r}")
    for p, c in zip(parents, changes):
        if p["env"]["seed"] != c["env"]["seed"]:
            raise Refused(f"pair seeds differ: {p['env']['seed']} vs {c['env']['seed']}")


def alternates(parents, changes):
    order = [p["env"]["started_unix"] < c["env"]["started_unix"]
             for p, c in zip(parents, changes)]
    return all(a != b for a, b in zip(order, order[1:]))


def compare_metric(spec, parent_runs, change_runs, ordered):
    """One row: parent/change summaries, relative change and verdict.
    Each run is the metric's result object from one results file."""
    higher = spec["better"] == "higher"
    bound = spec["bound"]
    pv = [r["value"] for r in parent_runs]
    cv = [r["value"] for r in change_runs]
    if len(pv) == 1:
        p = (pv[0], parent_runs[0].get("q1", pv[0]), parent_runs[0].get("q3", pv[0]))
        c = (cv[0], change_runs[0].get("q1", cv[0]), change_runs[0].get("q3", cv[0]))
    else:
        p, c = summary(pv), summary(cv)
    p_med, c_med = p[0], c[0]
    spread = p[2] - p[1]
    if p_med == 0:
        delta = 0.0 if c_med == 0 else float("inf")
    else:
        delta = (c_med - p_med) / abs(p_med)
    worse_by = -delta if higher else delta

    def better(x, y):
        return x > y if higher else x < y

    all_better = all(better(x, y) for x in cv for y in pv)
    wins = sum(better(x, y) for x, y in zip(cv, pv))
    if p_med != 0 and spread / abs(p_med) > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    elif (ordered and len(pv) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pv)
          and better(c_med, p_med) and abs(c_med - p_med) > spread):
        verdict = "GAIN"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "delta": delta, "bound": bound,
            "wins": wins, "pairs": len(pv), "verdict": verdict}


def compare(spec, parents, changes):
    check_comparable(parents, changes)
    ordered = alternates(parents, changes)
    rows = []
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in r["workloads"] for r in parents + changes)]
    for w in workloads:
        p_failed = sum(r["workloads"][w]["failed"] for r in parents)
        c_failed = sum(r["workloads"][w]["failed"] for r in changes)
        for m in spec["end_to_end"]:
            pr = [r["workloads"][w]["metrics"].get(m["name"]) for r in parents]
            cr = [r["workloads"][w]["metrics"].get(m["name"]) for r in changes]
            if None in pr or None in cr:
                continue
            row = compare_metric(m, pr, cr, ordered)
            if c_failed > p_failed and row["verdict"] == "GAIN":
                row["verdict"] = "within bound"  # no gain while more reps fail
            row.update(workload=w, metric=m["name"], unit=m["unit"],
                       failed=(p_failed, c_failed))
            rows.append(row)
    return rows, ordered


def print_rows(rows, ordered, out=sys.stdout):
    def fmt(s):
        return f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "bound", "wins", "verdict")
    table = [header]
    for r in rows:
        table.append((r["workload"], f"{r['metric']} ({r['unit']})", fmt(r["parent"]),
                      fmt(r["change"]), f"{100 * r['delta']:+.2f}%",
                      f"{100 * r['bound']:.0f}%", f"{r['wins']}/{r['pairs']}",
                      r["verdict"]))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)), file=out)
    for r in rows:
        if r["failed"][1] > r["failed"][0]:
            print(f"{r['workload']}: change failed {r['failed'][1]} reps "
                  f"(parent {r['failed'][0]})", file=out)
            break
    if not ordered:
        print("pairs do not alternate which side ran first: no gain can be claimed",
              file=out)


def load(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------- selftest

def selftest():
    fixture = load(os.path.join(HERE, "fixtures", "results.json"))
    spec = {"end_to_end": [
        {"name": "requests_per_sec", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    wl = "oltp_mirror_uncached"
    failures = []
    cases = []

    def run(name, pairs, expect, metric="requests_per_sec", workload=wl):
        cases.append(name)
        parents = [p for p, _ in pairs]
        changes = [c for _, c in pairs]
        try:
            rows, _ = compare(spec, parents, changes)
            got = next(r["verdict"] for r in rows
                       if r["workload"] == workload and r["metric"] == metric)
        except Refused:
            got = "refused"
        if got != expect:
            failures.append(f"{name}: expected {expect!r}, got {got!r}")

    def variant(scale=1.0, started=0, metric="requests_per_sec", spread=None):
        r = copy.deepcopy(fixture)
        r["env"]["started_unix"] = started
        m = r["workloads"][wl]["metrics"][metric]
        for key in ("value", "q1", "q3"):
            m[key] *= scale
        if spread is not None:
            m["q1"], m["q3"] = m["value"] * (1 - spread / 2), m["value"] * (1 + spread / 2)
        return r

    base = variant()
    run("identical", [(base, base)], "within bound")
    run("regression", [(base, variant(0.90))], "REGRESSION")
    run("small slowdown", [(base, variant(0.97))], "within bound")
    run("noisy parent", [(variant(spread=0.2), variant(0.97))], "unresolved")
    run("noisy parent, change always better",
        [(variant(spread=0.2), variant(1.5))], "within bound")
    run("one pair cannot claim a gain", [(base, variant(1.2))], "within bound")

    def pairs(change_scales, alternate=True):
        out = []
        for i, s in enumerate(change_scales):
            parent_first = alternate and i % 2 == 0
            p = variant(1.0 + 0.001 * (i % 3), started=10 * i + (0 if parent_first else 1))
            c = variant(s, started=10 * i + (1 if parent_first else 0))
            out.append((p, c))
        return out

    run("ten alternating wins", pairs([1.08] * 10), "GAIN")
    run("eight of ten wins", pairs([1.08] * 8 + [0.99] * 2), "within bound")
    run("ten wins without alternation", pairs([1.08] * 10, alternate=False),
        "within bound")
    run("setup regression", [(base, variant(1.5, metric="setup_s"))], "REGRESSION",
        metric="setup_s")

    other_flags = copy.deepcopy(base)
    other_flags["env"]["flags"] += " -march=native"
    run("different flags", [(base, other_flags)], "refused")
    other_seed = copy.deepcopy(base)
    other_seed["env"]["seed"] = "99"
    run("different seeds", [(base, other_seed)], "refused")

    for f in failures:
        print("FAIL", f)
    print(f"compare.py selftest: {len(cases) - len(failures)}/{len(cases)} passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--benchmark", default=DEFAULT_SPEC)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    try:
        rows, ordered = compare(load(args.benchmark),
                                [load(p) for p in args.parent],
                                [load(c) for c in args.change])
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print_rows(rows, ordered)
    return 1 if any(r["verdict"] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
