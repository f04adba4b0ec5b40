#!/usr/bin/env python3
"""Compare two sets of Otter benchmark result files against the bounds.

  python3 perfbench/compare.py BASE NEW   # diff, one row per workload x metric
  python3 perfbench/compare.py SET        # spread of one set

BASE, NEW and SET are result files written by run.py, or directories of
them. Runs are grouped by workload and by traced/untraced. For each metric
the tool prints the base median, the new median, their ratio with its base,
and the base spread: the distance between the first and third quartile of
the base runs as a share of their median (the within-run quartiles when a
set holds a single run). Verdicts:

  unresolved    the spread exceeds the metric's bound, so a change of that
                size cannot be told from noise (unless every new run beats
                every base run: "better, every run")
  REGRESSED     the new median is worse than the base by more than the bound
  improved      better by more than the bound
  within bound  otherwise

Metrics without a bound (the per-layer ones) get no verdict, except the exact
counts, which must repeat bit for bit between runs of the same seed; any
drift is reported as DRIFT. Exit status 1 on a regression or a drift.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Counts the program makes deterministically; they must not drift.
EXACT = ("minimpi.ops", "minimpi.comm_vtime_s", "lower.lir_instrs",
         "lower.fused", "lower.hoisted", "lower.cse_removed",
         "lower.guards_eliminated", "vm.instrs")


def load(arg):
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        d = json.loads(f.read_text())
        if d.get("benchmark") == "otter":
            runs.append(d)
    if not runs:
        sys.exit("compare: no result files in %s" % arg)
    return runs


def group(runs):
    g = {}
    for r in runs:
        g.setdefault((r["workload"], r["trace"]), []).append(r)
    return g


def spread(runs, name):
    """(q1, median, q3) over runs, or the within-run quartiles of one run."""
    vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    if len(vals) >= 2:
        q = statistics.quantiles(vals, n=4)
        return q[0], statistics.median(vals), q[2]
    m = runs[0]["metrics"].get(name, {})
    v = m.get("value", 0.0)
    return m.get("q1", v), m.get("median", v), m.get("q3", v)


def rel_spread(q1, med, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def bounds():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    b = {m["name"]: m for m in spec["end_to_end"]}
    b.update({m["name"]: m for m in spec["per_layer"]})
    return b


def exact_drift(base, new, name):
    """Seeds whose value of an exact count differs between the sets."""
    by_seed = {r["seed"]: r["metrics"].get(name, {}).get("value") for r in base}
    return sorted(r["seed"] for r in new
                  if r["seed"] in by_seed and name in r["metrics"]
                  and r["metrics"][name]["value"] != by_seed[r["seed"]])


def show_spread(runs):
    specs = bounds()
    print("%-8s %-5s %-26s %4s %14s %14s %14s %8s %7s" %
          ("workload", "trace", "metric", "n", "q1", "median", "q3",
           "spread", "bound"))
    for (w, t), rs in sorted(group(runs).items()):
        names = sorted({n for r in rs for n in r["metrics"]})
        for name in names:
            q1, med, q3 = spread(rs, name)
            b = specs.get(name, {}).get("bound")
            print("%-8s %-5d %-26s %4d %14.6g %14.6g %14.6g %7.2f%% %7s" %
                  (w, t, name, len(rs), q1, med, q3,
                   100 * rel_spread(q1, med, q3),
                   "%.0f%%" % (100 * b) if b is not None else "-"))
    return 0


def show_diff(base_runs, new_runs):
    specs = bounds()
    bad = False
    print("%-8s %-5s %-26s %14s %14s %22s %8s  %s" %
          ("workload", "trace", "metric", "base", "new", "ratio new/base",
           "spread", "verdict"))
    gb, gn = group(base_runs), group(new_runs)
    for key in sorted(set(gb) & set(gn)):
        b_runs, n_runs = gb[key], gn[key]
        names = sorted({n for r in b_runs + n_runs for n in r["metrics"]})
        for name in names:
            spec = specs.get(name, {})
            q1, bmed, q3 = spread(b_runs, name)
            _, nmed, _ = spread(n_runs, name)
            sp = rel_spread(q1, bmed, q3)
            ratio = "%.4f (base %.6g)" % (nmed / bmed, bmed) if bmed else "n/a"
            lower = spec.get("better", "lower") == "lower"
            verdict = ""
            bound = spec.get("bound")
            if name in EXACT:
                drift = exact_drift(b_runs, n_runs, name)
                verdict = "DRIFT (seeds %s)" % drift if drift else "exact"
                bad |= bool(drift)
            elif bound is not None and bmed:
                worse = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
                bvals = [r["metrics"][name]["value"] for r in b_runs
                         if name in r["metrics"]]
                nvals = [r["metrics"][name]["value"] for r in n_runs
                         if name in r["metrics"]]
                all_better = bvals and nvals and (
                    max(nvals) < min(bvals) if lower else
                    min(nvals) > max(bvals))
                if sp > bound:
                    verdict = ("better, every run" if all_better
                               else "unresolved")
                elif worse > bound:
                    verdict = "REGRESSED"
                    bad = True
                elif -worse > bound:
                    verdict = "improved"
                else:
                    verdict = "within bound"
            print("%-8s %-5d %-26s %14.6g %14.6g %22s %7.2f%%  %s" %
                  (key[0], key[1], name, bmed, nmed, ratio, 100 * sp, verdict))
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2:
        return show_spread(load(argv[1]))
    if len(argv) == 3:
        return show_diff(load(argv[1]), load(argv[2]))
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv))
