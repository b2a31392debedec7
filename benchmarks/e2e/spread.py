"""Run-to-run spread of every end-to-end metric, against its bound.

    python3 benchmarks/e2e/spread.py [--runs 10] [--workload NAME] [--out FILE]

Runs each workload ``--runs`` times, each with another ``--seed``, and
prints for every end-to-end metric the median and the distance between
the first and third quartile as a share of the median — the acceptance
rule is that this spread stays within the metric's bound in
``BENCHMARK.json`` (aim for a third of it).  Exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {line['failed']} operations failed")
    return {k: v["value"] for k, v in line["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, worst = {}, 0.0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [one_run(spec, workload, args.first_seed + i) for i in range(args.runs)]
        summary[workload] = {}
        print(f"== {workload}  ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "spread": spread, "values": values}
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else (
                    "  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:<22}median {med:>14.4f}   spread {spread:7.4f}"
                  f"   bound {bound:.2f}{flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
