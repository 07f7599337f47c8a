#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise, or compare two result sets.

  python3 perfbench/compare.py run --workloads query_mix,count_cnf --seeds 1-10 \
      --out before.jsonl [--trace 0]
  python3 perfbench/compare.py spread before.jsonl
  python3 perfbench/compare.py compare before.jsonl after.jsonl

Run from the repository root. `run` executes the command in BENCHMARK.json
once per workload and seed and appends each run's last output line, tagged
with workload, seed and wall time, to the output file. `spread` prints each
end-to-end metric's median and quartile spread (IQR / median) against a
third of its bound. `compare` prints both medians per workload and metric
and flags any metric worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SPEC = "BENCHMARK.json"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seeds(args.seeds):
                argv = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
                ]
                start = time.monotonic()
                proc = subprocess.run(argv, capture_output=True, text=True)
                wall = time.monotonic() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                result = json.loads(lines[-1])
                result.update(workload=workload, seed=seed, wall_s=round(wall, 2))
                out.write(json.dumps(result) + "\n")
                out.flush()
                print(workload, seed, f"{wall:.1f}s",
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r)
    return runs


def values(rs, metric):
    return [r["metrics"][metric]["value"] for r in rs if metric in r["metrics"]]


def cmd_spread(args):
    spec = load_spec()
    for workload, rs in load(args.results).items():
        print(f"{workload} ({len(rs)} runs, max wall {max(r['wall_s'] for r in rs):.1f}s)")
        for m in spec["end_to_end"]:
            v = values(rs, m["name"])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<14} median {med:<14.6g} IQR/median {spread:6.3f}"
                  f"  bound/3 {m['bound'] / 3:.3f}  {flag}")


def cmd_compare(args):
    spec = load_spec()
    before, after = load(args.before), load(args.after)
    worse = 0
    for workload in before:
        for m in spec["end_to_end"]:
            a, b = values(before[workload], m["name"]), values(after.get(workload, []), m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += regress
            print(f"{workload:<13} {m['name']:<14} {ma:<14.6g} -> {mb:<14.6g} {change:+7.1%}"
                  f"{'  WORSE than bound ' + str(m['bound']) if regress else ''}")
    sys.exit(1 if worse else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", default="0", choices=["0", "1"])
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("results")
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    args = p.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
