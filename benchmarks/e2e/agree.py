"""Compare two result files metric by metric against ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --out a.json
    python3 benchmarks/e2e/run.py --out b.json
    python3 benchmarks/e2e/agree.py a.json b.json

``a`` is the reference (the parent commit, or the first of two runs of
the same code), ``b`` the candidate.  For every workload and mode the
two files share it prints each metric's relative difference, signed so
that positive means ``b`` is worse.  It exits non-zero when an
end-to-end metric is worse by more than its bound, when a per-layer
count that must repeat exactly (units ``count``, ``B``, ``flop``) does
not, when the training loss digests differ, or when either run had a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXACT_UNITS = {"count", "B", "flop"}


def load(path: str) -> dict:
    with open(path) as f:
        return {(r["workload"], r["traced"]): r for r in json.load(f)["results"]}


def worse_by(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``; positive = ``b`` is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("reference")
    ap.add_argument("candidate")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load(args.reference), load(args.candidate)
    shared = [key for key in a_runs if key in b_runs]
    if not shared:
        print("the two files share no (workload, mode) pair")
        return 2

    problems = []
    for key in shared:
        a, b = a_runs[key], b_runs[key]
        workload, traced = key
        print(f"== {workload}  {'per-layer' if traced else 'end-to-end'}")
        for side, run in (("reference", a), ("candidate", b)):
            if not run["correct"]:
                problems.append(f"{workload}: {side} had {run['failed']} failed operations")
        if a.get("loss_digest") != b.get("loss_digest"):
            problems.append(f"{workload}: per-epoch loss digests differ")
        for name, am in a["metrics"].items():
            bm = b["metrics"].get(name)
            spec_m = declared.get(name)
            if bm is None or spec_m is None:
                continue
            av, bv = am["value"], bm["value"]
            delta = worse_by(av, bv, spec_m["better"])
            verdict = ""
            if "bound" in spec_m:
                verdict = f"bound {spec_m['bound']:.2f}"
                if delta > spec_m["bound"]:
                    verdict += "  WORSE THAN BOUND"
                    problems.append(f"{workload}: {name} worse by {delta:.1%} "
                                    f"(bound {spec_m['bound']:.0%})")
            elif spec_m["unit"] in EXACT_UNITS:
                verdict = "exact"
                if av != bv:
                    verdict += "  DIFFERS"
                    problems.append(f"{workload}: count {name} {av:g} -> {bv:g}")
            print(f"  {name:<40}{av:>14.4f} -> {bv:>14.4f} {am['unit']:<9}"
                  f"{delta:>+8.1%}  {verdict}")
    for line in problems:
        print("! " + line)
    print("agree" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
