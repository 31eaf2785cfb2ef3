"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pretrain-tiny --seeds 1-10 [--seconds N]

Runs run.py once per seed, one after another, and prints each metric's
median and its quartile spread (Q3 - Q1) / median, next to the bound in
BENCHMARK.json. Without --seconds the run length from BENCHMARK.json is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summary import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a-b or comma list")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(bench["command"] + ["--workload", args.workload, "--seed",
                                                  str(seed), "--seconds", str(seconds),
                                                  "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<22} median {statistics.median(vals):12.6g}  spread {spread:7.4f}  "
              f"bound {bounds.get(name, float('nan')):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
