#!/usr/bin/env python3
"""Regenerates the reference figures in perfbench/README.md.

    python3 perfbench/report.py

For every workload: set 1, `--runs` untraced runs on seeds 1, 2, ...; set 2,
as many on seeds 101, 102, ...; `--same-seed-runs` untraced runs all on seed
7, which separate the host's own noise from the seed's effect; and
`--traced-runs` traced runs on the first seeds of set 1. Prints, as Markdown,
the host (nproc, git sha), each end-to-end metric's median and quartile
spread ((Q3 - Q1) / median) in each group plus the ratio of the two sets'
medians, the tracing overhead (the traced runs' latency_p50_ms and
throughput_qps against the untraced runs of the same seeds, median) and the
per-layer metrics of the first traced run. Raw results go to
.bench_run/report.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET2_FIRST_SEED = 101
SAME_SEED = 7


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def median_spread(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs]
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--same-seed-runs", type=int, default=5)
    parser.add_argument("--traced-runs", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    groups = {
        "set 1": [1 + i for i in range(args.runs)],
        "set 2": [SET2_FIRST_SEED + i for i in range(args.runs)],
        "same seed": [SAME_SEED] * args.same_seed_runs,
    }
    raw_path = ROOT / ".bench_run" / "report.jsonl"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    with raw_path.open("w") as raw:
        for workload in args.workloads:
            for group, seeds in groups.items():
                for seed in seeds:
                    result = run(workload, seed, args.seconds, 0)
                    raw.write(json.dumps({"workload": workload, "group": group,
                                          "seed": seed, "trace": 0,
                                          **result}) + "\n")
                    results.setdefault((workload, group), []).append(result)
            for seed in groups["set 1"][:args.traced_runs]:
                result = run(workload, seed, args.seconds, 1)
                raw.write(json.dumps({"workload": workload, "group": "traced",
                                      "seed": seed, "trace": 1,
                                      **result}) + "\n")
                results.setdefault((workload, "traced"), []).append(result)

    print(f"nproc {os.cpu_count()}, git {git_sha()}, {args.seconds:g} s per "
          f"run; set 1 seeds 1..{args.runs}, set 2 seeds {SET2_FIRST_SEED}.."
          f"{SET2_FIRST_SEED + args.runs - 1}, same seed {SAME_SEED} x "
          f"{args.same_seed_runs}\n")
    for workload in args.workloads:
        untraced = [r for g in groups for r in results.get((workload, g), [])]
        print(f"{workload}: correct in every run "
              f"{all(r['correct'] for r in untraced)}, failed "
              f"{sum(r['failed'] for r in untraced)} of "
              f"{sum(r['attempted'] for r in untraced)} attempted")
    print("\n| workload | metric | set 1: median (spread) | set 2: median "
          "(spread) | set 2 / set 1 | same seed: median (spread) |")
    print("|---|---|---|---|---|---|")
    for workload in args.workloads:
        for m in spec["end_to_end"]:
            cells, medians = [], []
            for group in groups:
                runs = results.get((workload, group), [])
                if not runs:
                    cells.append("-")
                    continue
                med, spread = median_spread(runs, m["name"])
                medians.append(med)
                cells.append(f"{med:.4g} ({spread:.3f})")
            ratio = (f"{medians[1] / medians[0]:.3f}"
                     if len(medians) >= 2 and medians[0] else "-")
            print(f"| {workload} | {m['name']} ({m['unit']}) | {cells[0]} | "
                  f"{cells[1]} | {ratio} | {cells[2]} |")

    for workload in args.workloads:
        traced = results.get((workload, "traced"), [])
        if not traced:
            continue
        untraced = results[(workload, "set 1")]
        overhead = {
            name: statistics.median(
                t["metrics"]["trace." + name]["value"] /
                u["metrics"][name]["value"] - 1
                for t, u in zip(traced, untraced))
            for name in ("latency_p50_ms", "throughput_qps")}
        print(f"\n{workload}: tracing overhead (median over {len(traced)} "
              "seeds, traced vs untraced run of the same seed): "
              f"latency_p50_ms {overhead['latency_p50_ms']:+.1%}, "
              f"throughput_qps {overhead['throughput_qps']:+.1%}. Per-layer "
              "(first traced run): " + ", ".join(
                  f"{k}={v['value']:.4g}"
                  for k, v in traced[0]["metrics"].items()
                  if v["value"] != 0))


if __name__ == "__main__":
    main()
