"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 anglebench/steady.py --runs 10 [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1)
on every workload of BENCHMARK.json, one run at a time and each for the
run length BENCHMARK.json sets, and prints for every end-to-end metric
the median, the quartiles, and the spread — the distance between the
quartiles as a share of the median — beside the metric's bound from
BENCHMARK.json.  Also prints the median raw yardstick time of each run,
so the machine's own drift shows beside the normalised figures.  The
report is written to .anglebench_out/steady-<first seed>.json as well.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
_YARDSTICK = re.compile(r"yardstick \([^)]*\) median ([0-9.e+-]+)")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    failed = False
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            m = _YARDSTICK.search(proc.stdout)
            runs.append(
                {
                    "seed": seed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "yardstick": float(m.group(1)) if m else None,
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
            )
            failed |= not result["correct"]
        report[workload] = runs
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"correct {all(r['correct'] for r in runs)}")
        yard = [r["yardstick"] for r in runs if r["yardstick"] is not None]
        if len(yard) >= 2:
            print(f"  raw yardstick      median {median(yard):.6g}  min {min(yard):.6g}  max {max(yard):.6g}")
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, q2, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:18s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  bound {bound:.0%}{flag}")
    out = ROOT / ".anglebench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(report, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
