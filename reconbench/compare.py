"""Compare two sets of reconstruction-benchmark results.

Takes the result JSON files ``run.py`` writes (or directories of them) for
a parent commit and for a change, and prints per workload x metric each
side's median and quartiles, the fraction of run pairs the change wins,
and a verdict under the bounds of ``BENCHMARK.json``::

    python3 reconbench/compare.py --parent old/*.json --change new/*.json

Verdicts, per the benchmark's rules:

* ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
* ``unresolved``: either side's quartile spread exceeds the bound and not
  every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``no-worse``: otherwise.

Pairs are formed in the order the files are given (sorted by name within
a directory).  For traced results the per-layer metrics are compared by
their medians, and the layer time that moved most is named.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness as hz

ROOT = Path(__file__).resolve().parent.parent


def load_results(paths) -> list[dict]:
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def group(results) -> dict:
    """(workload, traced, smoke) -> metric -> values, in file order."""
    out: dict = {}
    for r in results:
        metrics = out.setdefault((r["workload"], r["trace"], r["smoke"]), {})
        for name, m in r["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def spread(values) -> float:
    q1, q2, q3 = hz.quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent, change, better: str, bound: float) -> tuple[str, float]:
    """Verdict and win fraction of *change* against *parent*."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = hz.quartiles(parent)
    c_med = hz.median(change)
    gain = sign * (c_med - p_med)
    if pairs and win_frac >= 0.9 and gain > (p_q3 - p_q1):
        return "improved", win_frac
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", win_frac
    if p_med and -gain / abs(p_med) > bound:
        return "regressed", win_frac
    return "no-worse", win_frac


def fmt_side(values) -> str:
    q1, q2, q3 = hz.quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result files or directories of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result files or directories of the change")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    parent = group(load_results(args.parent))
    change = group(load_results(args.change))

    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, traced, smoke = key
        if smoke:
            workload += " (smoke)"
        p_metrics, c_metrics = parent[key], change[key]
        if not traced:
            print(f"{workload}: metric | parent median [q1, q3] | change median [q1, q3]"
                  " | change wins | verdict")
            for name, spec in e2e.items():
                if name not in p_metrics or name not in c_metrics:
                    continue
                v, win_frac = verdict(p_metrics[name], c_metrics[name],
                                      spec["better"], spec["bound"])
                regressed |= v == "regressed"
                print(f"  {name} | {fmt_side(p_metrics[name])} | "
                      f"{fmt_side(c_metrics[name])} | {win_frac:.0%} "
                      f"of {min(len(p_metrics[name]), len(c_metrics[name]))} | {v}")
            continue
        print(f"{workload} (traced): layer metric | parent median | change median | delta")
        deltas = {}
        for name in sorted(set(p_metrics) & set(c_metrics)):
            p_med, c_med = hz.median(p_metrics[name]), hz.median(c_metrics[name])
            print(f"  {name} | {p_med:.6g} | {c_med:.6g} | {c_med - p_med:+.6g}")
            # self and busy times; build.total_s contains pack_s and sweep_s
            if name.endswith("_s") and name != "build.total_s":
                deltas[name] = c_med - p_med
        if deltas:
            moved = max(deltas, key=lambda n: abs(deltas[n]))
            print(f"  layer time that moved most: {moved} ({deltas[moved]:+.6g} s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
