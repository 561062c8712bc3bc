"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 15 [--workloads sweep,group]
                                 [--traced-seed 1] [--out perfbench/out/collect.json]

For every workload: one untraced run per seed, then (with --traced-seed)
one traced run.  Per end-to-end metric it reports the median, the
quartiles and the spread (interquartile range over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles); per traced
run the per-layer metrics and the tracing overhead.  Exits 1 if any run
fails or reports a wrong verdict.
"""

import argparse
import json
import os
import statistics
import sys
import time

from run import HERE, ORDER, run_workload


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    """One benchmark run: its result line (None if it failed) and wall seconds."""
    t0 = time.perf_counter()
    res, proc = run_workload(workload, seed, seconds, trace)
    wall = time.perf_counter() - t0
    if res is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return (res if proc.returncode == 0 and res and res["correct"] else None), wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--workloads", default=",".join(ORDER))
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out", default=os.path.join(HERE, "out", "collect.json"))
    args = ap.parse_args()
    doc = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values, walls = {}, []
        for seed in args.seeds:
            res, wall = run(w, seed, args.seconds, 0)
            walls.append(wall)
            if res is None:
                print(f"{w} seed {seed}: FAILED")
                ok = False
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, {"unit": v["unit"], "values": []})["values"].append(v["value"])
        entry = {k: {"unit": v["unit"], **summarise(v["values"])}
                 for k, v in values.items() if len(v["values"]) >= 2}
        for k, v in entry.items():
            print(f"{w:7s} {k:16s} median {v['median']:12.5g} {v['unit']:5s} spread {v['spread']:.3f}")
        print(f"{w:7s} run wall time median {statistics.median(walls):.1f} s")
        doc["workloads"][w] = {"end_to_end": entry, "run_wall_s": walls}
        if args.traced_seed is not None:
            res, wall = run(w, args.traced_seed, args.seconds, 1)
            if res is None:
                print(f"{w} traced: FAILED")
                ok = False
            else:
                doc["workloads"][w]["per_layer"] = {
                    "seed": args.traced_seed, "run_wall_s": wall,
                    "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
                print(f"{w:7s} trace.overhead {res['metrics']['trace.overhead']['value']:.3f}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
