"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 \\
        [--workloads corridor-drift dense-room zupt-room] [--seconds 30]

Runs perfbench/run.py once per seed and workload, alternating the workload
order between seeds, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
beside the metric's bound from BENCHMARK.json. A spread under a third of
the bound is steady; one over the bound fails. Each run's result line and
the summary are saved under .perfbench/spread/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bounds):
    rows = []
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = ("steady" if spread < bound / 3
                   else "ok" if spread <= bound else "FAIL")
        rows.append({"name": name, "median": median, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bound, "verdict": verdict,
                     "values": values})
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    out_dir = ROOT / ".perfbench" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results = {w: [] for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for workload in order:
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
            with open(out_dir / f"{stamp}-runs.jsonl", "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **result}) + "\n")

    summary = {}
    if len(args.seeds) >= 2:
        for workload, runs in results.items():
            summary[workload] = summarize(runs, bounds)
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"\n{workload} ({len(runs)} runs, frame_fail_ratio "
                  f"{failed / attempted:.6f} ratio = {failed}/{attempted})")
            for row in summary[workload]:
                print(f"  {row['name']:<16} {units[row['name']]:<3} median "
                      f"{row['median']:>11.5f}  q1 {row['q1']:>11.5f}  "
                      f"q3 {row['q3']:>11.5f}  spread {row['spread']:.4f}  "
                      f"bound {row['bound']}  {row['verdict']}")
    (out_dir / f"{stamp}-summary.json").write_text(
        json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
