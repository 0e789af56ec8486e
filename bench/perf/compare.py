#!/usr/bin/env python3
"""Collect and compare result sets of the host-side benchmark.

  compare.py collect SET [--runs N] [WORKLOAD ...]
      Run the command of BENCHMARK.json untraced N times (default 3) per
      workload, seeds 1..N, and append one JSON line per run to SET.
  compare.py compare OLD NEW
      For every workload x end-to-end metric, print both medians and
      quartiles and a verdict from the BENCHMARK.json bounds. Exits 1 if
      any pairing is worse.
  compare.py row SET --commit SHA
      Print a trajectory row (per-workload medians of SET) for
      bench/perf/trajectory.jsonl.

Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def collect(args):
    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    with open(args.set, "a") as out:
        for name in names:
            for seed in range(1, args.runs + 1):
                cmd = spec["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr}")
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "host_cores": os.cpu_count(),
                                      "result": result}) + "\n")
                out.flush()
                print(f"{name} seed {seed}: correct={result['correct']}")


def load_set(path):
    """{workload: {metric: [values]}}, plus the seeds and host cores seen."""
    runs, seeds, cores = {}, set(), set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            seeds.add(rec["seed"])
            cores.add(rec["host_cores"])
            metrics = runs.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs, sorted(seeds), sorted(cores)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old, new, bound, better):
    """better / unchanged / worse / unresolved for one workload x metric."""
    sign = 1 if better == "higher" else -1
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    spread = max((o3 - o1) / abs(om) if om else 0, (n3 - n1) / abs(nm) if nm else 0)
    gain = sign * (nm - om) / abs(om) if om else 0
    if spread > bound:
        all_better = all(sign * (n - o) > 0 for n in new for o in old)
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread and gain > 0:
        return "better"
    return "unchanged"


def compare(args):
    spec = load_spec()
    old, old_seeds, old_cores = load_set(args.old)
    new, new_seeds, new_cores = load_set(args.new)
    if old_cores != new_cores:
        print(f"warning: host cores differ ({old_cores} vs {new_cores}); "
              "wall-clock metrics are not comparable")
    if old_seeds != new_seeds:
        print(f"warning: seeds differ ({old_seeds} vs {new_seeds})")
    def cell(values):
        q1, med, q3 = quartiles(values)
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

    worse = 0
    print(f"{'workload':<16} {'metric':<19} {'old median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'change':>7} {'bound':>5}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            o = old.get(name, {}).get(m["name"], [])
            n = new.get(name, {}).get(m["name"], [])
            if len(o) < 3 or len(n) < 3:
                sys.exit(f"{name} {m['name']}: need at least 3 runs per set "
                         f"(have {len(o)} and {len(n)})")
            v = verdict(o, n, m["bound"], m["better"])
            worse += v == "worse"
            om, nm = statistics.median(o), statistics.median(n)
            change = (nm - om) / abs(om) * 100 if om else 0.0
            print(f"{name:<16} {m['name']:<19} {cell(o):<32} {cell(n):<32} "
                  f"{change:>+6.1f}% {m['bound']:>5.2f}  {v}")
    sys.exit(1 if worse else 0)


def row(args):
    spec = load_spec()
    runs, seeds, cores = load_set(args.set)
    if len(cores) != 1:
        sys.exit(f"{args.set}: runs from hosts with different core counts {cores}")
    medians = {
        name: {m["name"]: statistics.median(runs[name][m["name"]])
               for m in spec["end_to_end"] if m["name"] in runs.get(name, {})}
        for name in (w["name"] for w in spec["workloads"]) if name in runs
    }
    print(json.dumps({"commit": args.commit, "host_cores": cores[0],
                      "seeds": seeds, "medians": medians}))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("set")
    c.add_argument("--runs", type=int, default=3)
    c.add_argument("workloads", nargs="*")
    c.set_defaults(fn=collect)
    d = sub.add_parser("compare")
    d.add_argument("old")
    d.add_argument("new")
    d.set_defaults(fn=compare)
    r = sub.add_parser("row")
    r.add_argument("set")
    r.add_argument("--commit", required=True)
    r.set_defaults(fn=row)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
