"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/repeat.py --workload admit --seeds 1-10 --seconds 60 [--trace 0|1] [--out FILE]

For every metric it prints the sample count, median, quartiles and the
spread (quartile distance over median, as ``statistics.quantiles(n=4)``
gives the quartiles). ``--out`` merges the summary, keyed by workload, trace mode and seeds,
into a JSON file together with a description of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def l3_size() -> str | None:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True, cwd=RUN.parents[1])
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"unit": units[name], "n": len(vals), "median": med, "q1": q1, "q3": q3,
                         "spread": spread}
        print(f"{name:34s} n={len(vals)} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread if spread is None else round(spread, 4)}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["machine"] = {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "l3": l3_size(),
        }
        key = f"{args.workload}/trace{args.trace}/seeds{args.seeds[0]}-{args.seeds[-1]}"
        doc.setdefault("runs", {})[key] = {
            "seconds": float(args.seconds),
            "metrics": summary,
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
