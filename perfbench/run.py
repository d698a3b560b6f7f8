#!/usr/bin/env python3
"""End-to-end view-discovery benchmark: builds perfbench and runs one workload.

    python3 perfbench/run.py --workload portal_batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark binary is built from the
library sources in src/ into $CARGO_TARGET_DIR (default .bench_build);
spills, snapshots and request files go to a per-run directory under
.bench_run/ that is removed afterwards; traced runs keep their spans in
.bench_run/traces/. Diagnostics go to stderr; the last line of stdout is the
JSON result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("portal_batch", "webtables_served", "portal_paged_stream")
# The measured binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(root: Path) -> Path:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    for cmd in (
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4"],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            sys.exit("perfbench: build failed")
    return build_dir / "perfbench"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    run_root = root / ".bench_run"
    work_dir = run_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(work_dir)]
    try:
        if args.workload == "portal_paged_stream":
            # The snapshot is written by its own process, so the measured
            # process cold-starts from it without the generator's lake.
            prep = subprocess.run([str(binary), "prep"] + common,
                                  stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
            if prep.returncode != 0:
                sys.exit("perfbench: snapshot preparation failed")
        cmd = [str(binary), "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = run_root / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-file",
                    str(traces / f"{args.workload}-s{args.seed}.json")]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
