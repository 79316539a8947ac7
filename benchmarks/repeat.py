"""Run the benchmark several times per workload and summarise the spread.

    python3 benchmarks/repeat.py --runs 10 [--workload NAME ...] [--first-seed 1]
                                 [--trace 0|1] [--out results.json]

Each run uses the next seed.  For every end-to-end metric it prints the
median and the interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound from BENCHMARK.json.  ``--out`` writes every run's result and the
summary as JSON, which is how baseline.json was made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    report = {"workloads": {}}
    for name in args.workload or names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if i == 0:
                report["machine"] = json.loads(lines[0].split(" ", 2)[2])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                      if k in {e['name'] for e in spec['end_to_end']}), flush=True)
        summary = {}
        for entry in listed:
            values = [r["metrics"][entry["name"]]["value"] for r in runs]
            summary[entry["name"]] = {"unit": entry["unit"], **summarise(values)}
            if "bound" in entry:
                s = summary[entry["name"]]
                print(f"  {entry['name']}: median {s['median']:.6g} {entry['unit']}, "
                      f"spread {s['spread']:.4f} (bound {entry['bound']})")
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
