"""nilcomplex benchmark: time to an exact verdict on four workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop client in one process runs whole rounds of checks until
--seconds have passed, and every verdict is compared with a known answer.
--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds once untraced and once traced and prints the per-layer breakdown
(calls and self time per nilcomplex function) and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record (machine, commit, input size, seed, spans) goes
to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

from child import HERE, SRC, import_nilcomplex, peak_rss_kib

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
ORDER = ("sweep", "group", "moduli", "report")


# -- provenance -------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def src_sha256() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu or platform.processor(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "loadavg_start": list(os.getloadavg())}


# -- measuring --------------------------------------------------------------


class Speed:
    """Machine speed, sampled by a fixed pure-Python loop between checks.

    On a shared machine the speed of one CPU drifts by 15-30 % within tens
    of seconds, which would swamp any change to nilcomplex.  Every time the
    benchmark reports is therefore a raw time scaled by a factor: the
    nominal loop time REF_NOMINAL_S over the median loop time measured
    between the timed work, either over the whole run or near one check.
    The record keeps the raw times and the factor too.
    """

    REF_ITERATIONS = 100_000
    REF_NOMINAL_S = 0.010
    EVERY_S = 0.2
    MAX_BURST = 5
    WINDOW_S = 0.5

    def __init__(self):
        self.refs = []  # (midpoint, loop seconds)
        self._last = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            acc = 0
            for i in range(self.REF_ITERATIONS):
                acc += i * i % 7
            t1 = time.perf_counter()
            self.refs.append(((t0 + t1) / 2, t1 - t0))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """One sample per EVERY_S passed since the last one, at most MAX_BURST."""
        n = int((time.perf_counter() - self._last) / self.EVERY_S)
        if n:
            self.sample(min(n, self.MAX_BURST))

    def factor(self, t0: float = None, t1: float = None) -> float:
        """Scale factor over the whole run, or from the samples within
        WINDOW_S of [t0, t1] (at least the two nearest)."""
        loops = [d for _, d in self.refs]
        if t0 is not None:
            def gap(ref):
                return max(t0 - ref[0], ref[0] - t1, 0.0)
            near = [d for t, d in self.refs if gap((t, d)) <= self.WINDOW_S]
            loops = near if len(near) >= 2 else [d for _, d in sorted(self.refs, key=gap)[:2]]
        return self.REF_NOMINAL_S / statistics.median(loops)


def harrell_davis(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one or two of them on small samples."""
    xs = numpy.sort(numpy.asarray(xs, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = numpy.linspace(0.0, 1.0, 20_001)[1:-1]
    logpdf = (a - 1) * numpy.log(grid) + (b - 1) * numpy.log1p(-grid)
    pdf = numpy.exp(logpdf - logpdf.max())
    cdf = numpy.concatenate(([0.0], numpy.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, grid, cdf))
    return float(weights @ xs)


def measure_setup():
    """SETUP_REPEATS fresh processes doing import + derivations: raw wall
    seconds, each scaled by reference loops run just before and after it."""
    speed = Speed()
    raw, scaled = [], []
    speed.sample(3)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, CHILD, "setup"], capture_output=True,
                              text=True, timeout=170)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}):\n{proc.stderr}")
        speed.sample(3)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.factor(t0, t1))
    return raw, scaled


def run_rounds(wl, rounds, tally, speed=None, tracer=None, budget=None):
    """Run rounds of checks; stop after a whole round once the checks' total
    time reaches budget.  Returns (start, seconds) per check and the rounds run."""
    from workloads import run_check
    timings = []
    total = 0.0
    done = 0
    for r in rounds:
        for label, fn in wl.round(r):
            t0 = time.perf_counter()
            dt = run_check(tally, label, fn, tracer)
            timings.append((t0, dt))
            total += dt
            if speed:
                speed.tick()
        done += 1
        if budget is not None and total >= budget:
            break
    return timings, done


def scaled(timings, speed) -> list:
    """Each check's seconds times the speed factor measured around it."""
    return [dt * speed.factor(t0, t0 + dt) for t0, dt in timings]


def warm_up(wl, tally) -> None:
    """Untimed round that fills the lazy caches (library workloads only)."""
    if wl.name != "report":
        wl.warm()
        run_rounds(wl, [-1], tally)


def end_to_end(wl, seconds, tally) -> tuple:
    setup_raw, setup = measure_setup()
    warm_up(wl, tally)
    speed = Speed()
    speed.sample()
    timings, rounds = run_rounds(wl, itertools.count(), tally, speed, budget=seconds)
    rss_kib = wl.peak_rss_kib if wl.name == "report" else peak_rss_kib()
    raw = [dt for _, dt in timings]
    lat = scaled(timings, speed)
    tail = harrell_davis(lat, TAIL_PERCENTILE / 100)
    metrics = {
        "throughput": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (harrell_davis(lat, 0.5) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {"rounds": rounds, "timed_checks": len(raw), "timed_seconds": sum(raw),
             "raw": {"throughput": len(raw) / sum(raw),
                     "latency_p50_ms": statistics.median(raw) * 1000,
                     "latency_tail_ms": harrell_davis(raw, TAIL_PERCENTILE / 100) * 1000,
                     "setup_s": statistics.median(setup_raw)},
             "speed_factor": speed.factor(), "reference_samples": len(speed.refs),
             "setup_runs_s": setup_raw, "setup_runs_scaled_s": setup,
             "latencies_s": raw, "latencies_scaled_s": lat,
             "tail": {"percentile": TAIL_PERCENTILE, "samples": len(lat),
                      "beyond": sum(1 for x in lat if x > tail)}}
    return metrics, extra


def per_layer(wl, tally) -> tuple:
    from tracer import SPAN_NAMES, ROOT as ROOT_SPAN, Tracer, merge
    warm_up(wl, tally)
    rounds = range(wl.traced_rounds)
    plain_speed, traced_speed = Speed(), Speed()
    plain_speed.sample()
    plain, _ = run_rounds(wl, rounds, tally, plain_speed)
    traced_speed.sample()
    if wl.name == "report":
        wl.trace_children = True
        traced, _ = run_rounds(wl, rounds, tally, traced_speed)
        summary = merge(s["summary"] for s in wl.summaries)
        spans = sum(s["spans"] for s in wl.summaries)
        missing = sorted({m for s in wl.summaries for m in s["missing"]})
    else:
        tracer = Tracer()
        with tracer:
            traced, _ = run_rounds(wl, rounds, tally, traced_speed, tracer)
        summary = tracer.summary()
        spans = len(tracer.names)
        missing = tracer.missing
        tracer.dump(os.path.join(OUT, f"spans-{wl.name}-{wl.seed}.jsonl.gz"))
    f = traced_speed.factor()
    zero = {"calls": 0, "self_s": 0.0, "errors": 0}
    # bench.check: time inside a check that no traced function accounts for
    metrics = {f"{ROOT_SPAN}.self_s": (summary.get(ROOT_SPAN, zero)["self_s"] * f, "s")}
    for name in SPAN_NAMES:
        rec = summary.get(name, zero)
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.self_s"] = (rec["self_s"] * f, "s")
    sampled = summary.get("catalogue.random_admissible", zero)
    accepted = sampled["calls"] - sampled["errors"]
    inst = summary.get("catalogue.instantiate", zero)["calls"]
    domain = summary.get("catalogue.check_domain", zero)["calls"]
    metrics["catalogue.instantiate_per_sample"] = (inst / accepted if accepted else 0.0, "ratio")
    metrics["catalogue.accept_ratio"] = (accepted / domain if domain else 0.0, "ratio")
    metrics["moduli.resamples"] = (summary.get("moduli.jacobian_rank", zero)["errors"], "count")
    metrics["trace.overhead"] = (sum(scaled(traced, traced_speed))
                                 / sum(scaled(plain, plain_speed)), "ratio")
    metrics["trace.spans"] = (spans, "count")
    extra = {"traced_rounds": wl.traced_rounds,
             "untraced_seconds": sum(dt for _, dt in plain),
             "traced_seconds": sum(dt for _, dt in traced), "speed_factor": f,
             "untraced_speed_factor": plain_speed.factor(), "missing_targets": missing,
             "summary": summary}
    return metrics, extra


# -- entry points -----------------------------------------------------------


def pin_cpu() -> int:
    """Keep this process and its children on one CPU, so that the reference
    loop runs where the measured work runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args) -> int:
    nilcomplex = import_nilcomplex()
    cpu = pin_cpu()
    from workloads import WORKLOADS, Tally
    os.makedirs(OUT, exist_ok=True)
    machine = machine_info()
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, CHILD, OUT) if args.workload == "report" else cls(args.seed)
    tally = Tally()
    metrics, extra = per_layer(wl, tally) if args.trace else end_to_end(wl, args.seconds, tally)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_size": wl.input_size(),
              "nilcomplex_file": nilcomplex.__file__, "git_commit": git_commit(),
              "src_sha256": src_sha256(), "machine": machine, "pinned_cpu": cpu,
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_share": tally.fail_share, "first_failure": tally.first_failure,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"perfbench {wl.name}: seed {args.seed}, trace {args.trace}, "
          f"nilcomplex {nilcomplex.__file__} @ {record['git_commit'] or 'no git'}")
    for k, (v, u) in metrics.items():
        print(f"  {k:44s} {v:>14.6g} {u}")
    print(f"  {'fail_share':44s} {tally.fail_share:>14.6g} "
          f"({tally.failed}/{tally.attempted})")
    if tally.first_failure:
        print(f"  first failure: {tally.first_failure}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0 if tally.failed == 0 else 1


def run_workload(workload, seed, seconds, trace):
    """run.py for one workload in a fresh process: its result line (None if
    there is none) and the finished process."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc
    except (ValueError, IndexError):
        return None, proc


def run_all(args) -> int:
    """Every workload in its own process; one table, fail_share included."""
    import_nilcomplex()
    combined, attempted, failed, code = {}, 0, 0, 0
    for name in ORDER:
        res, proc = run_workload(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if res is None:
            print(f"{name}: no result (exit code {proc.returncode})")
            return proc.returncode or 1
        code = code or proc.returncode
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            combined[f"{name}.{k}"] = v
        combined[f"{name}.fail_share"] = {"value": res["failed"] / res["attempted"],
                                          "unit": "ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ORDER + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
