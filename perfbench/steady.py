"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--sets 1]

Runs ``run.py`` once per workload and seed, one run at a time, with the
settings in BENCHMARK.json. For every end-to-end metric it prints the
median and the quartile spread (Q3 - Q1) / median of the runs, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to a third
of the metric's bound. With ``--sets 2`` it repeats the whole set and also
prints how far the second median moved from the first, as a share of the
first. A run that fails stops the script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        medians = []
        for n in range(args.sets):
            results = [run(bench, workload, s) for s in seeds(args.seeds)]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"{workload} set {n + 1}: correct {all(r['correct'] for r in results)}, "
                  f"failed {failed}/{attempted}")
            set_medians = {}
            for name, spec in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, _, q3 = quantiles(values, n=4)
                mid = median(values)
                spread = (q3 - q1) / mid
                if name != "setup_s":
                    worst = max(worst, spread / spec["bound"])
                set_medians[name] = mid
                print(f"  {name:16s} median {mid:14.6g} {spec['unit']:5s} spread {spread:7.4f}"
                      f"  (a third of the bound: {spec['bound'] / 3:.4f})")
            medians.append(set_medians)
        if args.sets == 2:
            for name, spec in bounds.items():
                first, second = medians[0][name], medians[1][name]
                worse = (second - first) / first * (1 if spec["better"] == "lower" else -1)
                print(f"  {name:16s} second median worse by {worse:+.4f} (bound {spec['bound']})")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
