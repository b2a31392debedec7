"""End-to-end benchmark of the whole stack: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload serve_read --seed 0 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py                      # all four, untraced
    python3 benchmarks/e2e/run.py --traced             # all four, per-layer pass

Each workload prints its metrics by name with units, then its failure
accounting, and — as the last line of standard output — one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  ``--out FILE`` also writes the
full result (metrics, the issue's metric names, sample counts, spans).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import sys
import tempfile
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
# the program is run from source; spawned serving workers inherit both
sys.path[:0] = [SRC, HERE]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
# One BLAS/OpenMP thread per process, set before numpy loads.  The serving
# stack is 2 workers + router + client on nproc cores; with the default pool
# (one thread per core in every process) runs flip between a fast and a slow
# mode (full-graph predict 0.55 s vs 1.05 s here).  Training runs the same
# speed either way at these matrix sizes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def listening_sockets() -> int:
    """TCP sockets this process still has in LISTEN state (Linux)."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                rows = f.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:
                count += 1
    return count


def child_pids() -> list[int]:
    """Direct children of this process, unreaped dead ones included (Linux)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = f.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue
        if int(ppid) == me:
            pids.append(int(entry))
    return pids


def stop_resource_tracker() -> None:
    """End multiprocessing's helper process and wait for it.

    Spawning the first serving worker starts a ``resource_tracker`` child
    that lives until this process exits and is then nobody's to reap: it
    outlives the run (as a zombie where init does not reap).  ``_stop`` is
    the module's own hook for this; the tracker restarts on the next spawn.
    """
    resource_tracker._resource_tracker._stop()


def kill_children() -> int:
    """Kill and reap whatever this process still has under it; returns how many.

    ``main`` makes the process a child subreaper, so orphaned grandchildren
    land here too instead of escaping to init.
    """
    killed = 0
    while pids := child_pids():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            killed += 1
    return killed


def run_workload(name: str, args, spec: dict) -> dict:
    """Run one workload in one mode; returns the full result record."""
    import layers
    import serve_wl
    import train_wl
    from inputs import FULL, SMOKE
    from measure import Spans, Tally, peak_rss_mb

    size = SMOKE if args.smoke else FULL
    module = train_wl if name.startswith("train_") else serve_wl
    tally = Tally()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        if args.trace:
            spans = Spans(name)
            result = layers.run(name, size, args.seed, tmp, tally, spans)
            result["spans"] = spans.records
            wanted = spec["per_layer"]
            # a layer the workload does not reach reports 0
            for m in wanted:
                result["metrics"].setdefault(m["name"], 0.0)
        else:
            result = module.run(name, size, args.seed, args.seconds, tmp, tally)
            result["metrics"]["peak_rss_mb"] = peak_rss_mb()
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stop_resource_tracker()
    left = child_pids()
    tally.check("hygiene", not left, f"processes left after the workload: {left}")
    tally.check("hygiene", listening_sockets() == 0,
                "a listening socket was left open")
    tally.check("hygiene", not os.path.exists(tmp), "temp directory not removed")

    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(units))
    if missing or extra:
        raise SystemExit(f"{name}: metrics out of step with BENCHMARK.json "
                         f"(missing {missing}, undeclared {extra})")
    result["metrics"] = {k: {"value": float(result["metrics"][k]), "unit": units[k]}
                         for k in units}
    result.update(workload=name, seed=args.seed, traced=bool(args.trace),
                  smoke=bool(args.smoke), attempted=tally.attempted,
                  failed=tally.failed, correct=tally.failed == 0,
                  failed_share=tally.failed / max(tally.attempted, 1),
                  phases=tally.phases, notes=tally.notes)
    report(result, tally)
    return result


def report(result: dict, tally) -> None:
    mode = "per-layer (traced)" if result["traced"] else "end-to-end (untraced)"
    print(f"== {result['workload']}  seed {result['seed']}  {mode}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40}{m['value']:>16.4f} {m['unit']}")
    if result.get("aliases"):
        print("  -- under issue 11's names (setup_s and peak_rss_mb keep theirs)")
        for name, (value, unit) in result["aliases"].items():
            print(f"  {name:<40}{value:>16.4f} {unit}")
    if result.get("samples"):
        print("  -- samples: " + ", ".join(f"{k} {v}" for k, v in result["samples"].items()))
    print(f"  -- operations: attempted {result['attempted']}, failed "
          f"{result['failed']}, failed_share {result['failed_share']:.6f}")
    for line in tally.render():
        print(line)
    sys.stdout.flush()


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: all four in turn")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the request stream only (default 0)")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="time budget of the measured part of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = the per-layer pass instead of the end-to-end one")
    ap.add_argument("--traced", action="store_const", const=1, dest="trace",
                    help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for test_smoke.py; numbers mean nothing")
    ap.add_argument("--out", help="write the full result(s) as JSON to this file")
    args = ap.parse_args(argv)

    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the finally runs
    try:
        results = [run_workload(name, args, spec)
                   for name in ([args.workload] if args.workload else names)]
    finally:
        # on every path out, error or not: no process of ours outlives the run
        stop_resource_tracker()
        kill_children()
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"results": results}, f, indent=1, default=list)
            f.write("\n")
    # one workload: the driver's result line; all of them: metrics per workload
    metrics = (results[0]["metrics"] if args.workload
               else {r["workload"]: r["metrics"] for r in results})
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
