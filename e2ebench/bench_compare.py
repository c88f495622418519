#!/usr/bin/env python3
"""Diffs, checks and summarizes bench_e2e run records (stdlib only).

    bench_compare.py PARENT_DIR CHANGE_DIR   compare two sets of runs
    bench_compare.py --check RUN.json ...    validate single run records
    bench_compare.py --summary DIR ...       medians and quartiles as JSON

A run record is the JSON file `run.py --record-dir DIR` (or
`bench_e2e --json`) writes. Comparison uses the untraced records only and
pairs the two sides by seed. For each workload and end-to-end metric it
prints both medians and the parent's quartiles, then a verdict:

  better      at least 10 pairs, the change wins at least 9 of 10 of them
              (ties count for neither) and the medians differ by more than
              the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) exceeds the bound, so
              "no worse than the bound" cannot be shown - unless every
              change run reads better than every parent run;
  same        none of the above.

Runs with failed operations are reported and make the exit status 1, as
does any `worse` verdict.
"""
import argparse
import glob
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP_KEYS = ("nproc", "compiler", "build_type", "simd_isa", "rev", "seed")
SIZE_KEYS = ("objects", "file_pages", "pool_pages", "leaves", "cache_capacity")
MIN_PAIRS = 10
MIN_WIN_RATE = 0.9


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(directory, trace=0):
    """Records in `directory` with the given trace flag, by workload then seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                record = json.load(f)
            except ValueError:
                continue
        if record.get("bench") != "bench_e2e" or record.get("trace") != trace:
            continue
        runs.setdefault(record["workload"], {})[record["stamp"]["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_record(record, contract):
    """Problems with one run record (empty when it is valid)."""
    problems = []
    workloads = {w["name"] for w in contract["workloads"]}
    if record.get("bench") != "bench_e2e":
        return ["not a bench_e2e record"]
    if record.get("workload") not in workloads:
        problems.append("undeclared workload %r" % record.get("workload"))
    declared = contract["per_layer" if record.get("trace") == 1 else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = record.get("metrics", {})
    for name, unit in sorted(want.items()):
        metric = got.get(name)
        if metric is None:
            problems.append("missing metric %s" % name)
        elif metric.get("unit") != unit:
            problems.append("%s has unit %r, declared %r" % (name, metric.get("unit"), unit))
        elif not isinstance(metric.get("value"), (int, float)) or not math.isfinite(
                metric["value"]):
            problems.append("%s is not a finite number" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("undeclared metric %s" % name)
    for key in STAMP_KEYS:
        if key not in record.get("stamp", {}):
            problems.append("stamp lacks %s" % key)
    for key in SIZE_KEYS:
        if key not in record.get("sizes", {}):
            problems.append("sizes lack %s" % key)
    if record.get("failed") != 0 or not record.get("correct"):
        problems.append("failed_frac is not 0 (%s of %s operations failed)"
                        % (record.get("failed"), record.get("attempted")))
    return problems


def verdict(metric, parent, change):
    """(verdict, detail) for one metric's parent and change values by seed."""
    lower = metric["better"] == "lower"
    seeds = sorted(set(parent) & set(change))
    p_vals = [parent[s] for s in seeds]
    c_vals = [change[s] for s in seeds]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    iqr = p_q3 - p_q1
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for c, p in zip(c_vals, p_vals) if better(c, p))
    losses = sum(1 for c, p in zip(c_vals, p_vals) if better(p, c))
    win_rate = wins / (wins + losses) if wins + losses else 0.0
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    spread = iqr / abs(p_med) if p_med else float("inf")
    all_better = all(better(c, p) for c in c_vals for p in p_vals)
    detail = {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
              "change_median": c_med, "win_rate": win_rate, "worse_by": worse_by}
    if (len(seeds) >= MIN_PAIRS and win_rate >= MIN_WIN_RATE and better(c_med, p_med)
            and abs(c_med - p_med) > iqr):
        return "better", detail
    if spread > metric["bound"] and not all_better:
        return "unresolved", detail
    if worse_by > metric["bound"]:
        return "worse", detail
    return "same", detail


def compare(parent_dir, change_dir, contract):
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    for workload in [w["name"] for w in contract["workloads"]]:
        parent, change = parent_runs.get(workload, {}), change_runs.get(workload, {})
        seeds = sorted(set(parent) & set(change))
        print("== %s (%d pairs)" % (workload, len(seeds)))
        if not seeds:
            print("   no paired runs")
            continue
        failed = [s for s in seeds if parent[s]["failed"] or change[s]["failed"]]
        if failed:
            print("   FAILED operations in seeds %s" % failed)
            status = 1
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = [{s: runs[s]["metrics"][name]["value"] for s in seeds}
                      for runs in (parent, change)]
            result, d = verdict(metric, values[0], values[1])
            status = 1 if result == "worse" else status
            print("   %-22s %-10s parent %12.6g [%.6g, %.6g]  change %12.6g  "
                  "worse by %+7.2f%% (bound %.0f%%)  wins %.2f"
                  % (name, result, d["parent_median"], d["parent_q1"], d["parent_q3"],
                     d["change_median"], 100 * d["worse_by"], 100 * metric["bound"],
                     d["win_rate"]))
    return status


def stats(values, unit):
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summary(directories, contract):
    """One entry per directory (set of runs): per workload, the medians,
    quartiles and spreads of every declared metric over the untraced runs
    (end_to_end) and the traced ones (per_layer), and of the `*_share`
    fields of the records' detail, which back the workload descriptions."""
    out = {"stamp": {}, "sets": []}
    for directory in directories:
        entry = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            workloads = {}
            for workload, by_seed in sorted(load_runs(directory, trace).items()):
                records = [by_seed[s] for s in sorted(by_seed)]
                for key in STAMP_KEYS[:-1]:
                    out["stamp"].setdefault(key, records[0]["stamp"][key])
                rows = {"seeds": sorted(by_seed), "sizes": records[0]["sizes"],
                        "metrics": {}, "shares": {}}
                for metric in contract[kind]:
                    rows["metrics"][metric["name"]] = stats(
                        [r["metrics"][metric["name"]]["value"] for r in records],
                        metric["unit"])
                for name in sorted(records[0]["detail"]):
                    if name.endswith("_share"):
                        rows["shares"][name] = stats(
                            [r["detail"][name]["value"] for r in records], "ratio")
                workloads[workload] = rows
            entry[kind] = workloads
        out["sets"].append(entry)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--check", nargs="+", metavar="RUN.json")
    parser.add_argument("--summary", nargs="+", metavar="DIR")
    args = parser.parse_args()
    contract = load_contract()
    if args.check:
        status = 0
        for path in args.check:
            with open(path) as f:
                problems = check_record(json.load(f), contract)
            print("%s: %s" % (path, "ok" if not problems else "; ".join(problems)))
            status = 1 if problems else status
        return status
    if args.summary:
        return summary(args.summary, contract)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR, --check or --summary")
    return compare(args.dirs[0], args.dirs[1], contract)


if __name__ == "__main__":
    sys.exit(main())
