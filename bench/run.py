"""beliefcheck benchmark driver.

    python3 bench/run.py --workload wide --seed 1 --seconds 25 --trace 0

A single-process, single-threaded, closed-loop client: each op starts when
the previous one has finished. Inputs are generated from --seed, set up
several times (the median is `setup_s`), then a fixed set of ops runs in
repeated passes until --seconds have passed. Every set-up and op is timed
against a fixed piece of reference work run just before and just after it,
and reported in seconds at the reference work's undisturbed speed (see
`Paced`). With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics from spans recorded around each call into beliefcheck,
and the spans are written to .bench_out/. `--workload all` runs every
workload, each in its own process, one after the other.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS = 5  # set-ups per run; setup_s is their median
# Every op of the timed set runs at least this many times, however long
# that takes past --seconds.
MIN_REPEATS = 3
TAIL_PERCENTILE = 90
# What reference_work() takes on an undisturbed host (2-vCPU Intel Xeon
# virtual machine, Python 3.11.7). Timings are reported in seconds at that
# speed; the constant fixes the scale only and must not change, or every
# later comparison with earlier runs breaks.
REFERENCE_S = 0.0026

LAYER_CALLS = (
    "dist.Dist",
    "dist.WeightedPosteriors",
    "dist.condition",
    "dist.pushforward",
    "dist.martingale_check",
    "rationalize.check_condition1",
    "rationalize.construct_rationalization",
    "rationalize.verify_model",
    "rationalize.induced_observables",
    "known_omega.check_proposition1",
    "known_omega.construct_known_omega_model",
    "simulate.simulate_panel",
    "simulate.tv_distance",
    "io.save_observation",
    "io.load_observation",
    "io.save_model",
    "io.load_model",
    "cli.check",
    "cli.rationalize",
    "cli.verify",
    "cli.martingale",
    "cli.known_omega",
)


def git_sha():
    """HEAD's commit read from .git without starting git; "unknown" when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def set_up(name, seed, work, tr):
    """Import beliefcheck afresh and build the workload's op sequence.
    Returns (seconds taken, ops)."""
    start = time.perf_counter()
    for module in [m for m in sys.modules if m.split(".")[0] == "beliefcheck"]:
        del sys.modules[module]
    bc = importlib.import_module("beliefcheck")
    cli = importlib.import_module("beliefcheck.cli")
    rng = random.Random("%s/%d" % (name, seed))
    with tr.span("bench.setup"):
        ops = workloads.SETUP[name](bc, cli.main, rng, work, tr)
    return time.perf_counter() - start, ops


def reference_work():
    """A fixed piece of pure-Python work, independent of beliefcheck, in
    the proportions the workloads use: exact rational arithmetic, keyed
    hashing and JSON."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 13 + 1, i)
    for i in range(1500):
        hashlib.blake2b(i.to_bytes(8, "big"), digest_size=8, key=b"k").digest()
    table = {"s%d" % i: str(Fraction(i, 7)) for i in range(300)}
    json.loads(json.dumps(table))
    return total


class Paced:
    """Times work against reference_work() run just before and just after
    it, and converts the ratio to seconds at REFERENCE_S per reference.

    The benchmark's host is a virtual machine shared with other tenants,
    whose load changes its speed by up to 1.8x, within seconds and for
    minutes at a time; CPU time slows down with the wall clock, so it does
    not help. The ratio of a piece of work to reference work timed beside it
    cancels that drift: over five runs of sweep whose raw median latency
    ranged 1.7x, the ratio ranged 1.08x."""

    def __init__(self):
        reference_work()  # warm up: the first call pays for lazy imports
        self.last = self._reference()

    @staticmethod
    def _reference():
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start

    def seconds(self, wall):
        """`wall` s of work just done, at reference speed."""
        before, self.last = self.last, self._reference()
        return wall * REFERENCE_S / ((before + self.last) / 2)


def run_op(ops, i, tr, failures):
    """Run op i; returns (wall s, cpu s, correct, outcome)."""
    tag, op = ops[i % len(ops)]
    tr.op = i
    t0, c0 = time.perf_counter(), time.process_time()
    outcome = None
    try:
        with tr.span("bench.op"):
            outcome = op(tr, i)
        ok = outcome[0]
    except Exception as err:  # a raising op counts as failed; keep going
        ok = False
        failures.append("op %d (%s) raised %r" % (i, tag, err))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    tr.op = None
    if not ok and outcome is not None:
        failures.append("op %d (%s) returned a wrong result" % (i, tag))
    return wall, cpu, ok, outcome


def timed_phase(ops, count, seconds, failures):
    """Passes over the first `count` ops, in order, until `seconds` have
    passed and every op has run MIN_REPEATS times. Op i always gets index
    i, so its repeats do the same work. Returns each op's median paced
    latency over its repeats, ops run, ops failed, the elapsed wall time
    and the raw median wall time of an op."""
    tr = spans.NullTracer()
    pace = Paced()
    paced = [[] for _ in range(count)]
    walls = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        i = attempted % count
        wall, _, ok, _ = run_op(ops, i, tr, failures)
        paced[i].append(pace.seconds(wall))
        walls.append(wall)
        attempted += 1
        failed += not ok
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and attempted >= MIN_REPEATS * count:
            break
    latency = [statistics.median(p) for p in paced]
    return latency, attempted, failed, elapsed, statistics.median(walls)


def end_to_end(setup_times, latency, attempted, elapsed, raw_p50):
    """Latencies over the timed set of ops, each op at the median of its
    repeats; every time in seconds at reference speed."""
    cuts = statistics.quantiles(latency, n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_s": (statistics.median(latency), "s"),
        "latency_tail_s": (cuts[TAIL_PERCENTILE - 1], "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setup_times),
        "latency_p50_s": "median of %d ops, each the median of %.1f runs"
        % (len(latency), attempted / len(latency)),
        "latency_tail_s": "p%d of the same" % TAIL_PERCENTILE,
        # Unpaced figures, for reference only: they move with the host.
        "raw": "%.4g ops/s (%d ops in %.3f s), median op %.4g s wall"
        % (attempted / elapsed, attempted, elapsed, raw_p50),
    }
    return metrics, notes


def bell(n):
    """Number of set partitions of n items, by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def _slope(ks, ms):
    """Least-squares slope of log(ms) against log(k)."""
    xs = [math.log(k) for k in ks]
    ys = [math.log(m) for m in ms]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def model_sizes(bc, model, path):
    """|omega|, signal cells and mu0's largest denominator bit length, read
    from the JSON that save_model writes."""
    bc.save_model(model, path)
    data = json.loads(path.read_text())
    cells = {entry["signal"] for entry in data["omega"]}
    bits = max(
        Fraction(v).denominator.bit_length() for v in data["mu0"].values()
    )
    return len(data["omega"]), len(cells), bits


def per_layer(name, tr, tags, outcomes, bc, work, traced, untraced):
    rows = tr.spans
    metrics = {}
    for call in LAYER_CALLS:
        mine = [s for s in rows if s[spans.NAME] == call]
        metrics[call + ".calls"] = (len(mine), "count")
        metrics[call + ".busy_s"] = (
            sum(s[spans.END] - s[spans.START] for s in mine),
            "s",
        )
        metrics[call + ".fail"] = (sum(s[spans.FAILED] for s in mine), "count")

    def durations(call, tag):
        return [
            s[spans.END] - s[spans.START]
            for s in rows
            if s[spans.NAME] == call and tags.get(s[spans.OP]) == tag
        ]

    for call in (
        "rationalize.construct_rationalization",
        "rationalize.verify_model",
    ):
        ms = [_median_ms(durations(call, "k%d" % k)) for k in workloads.WIDE_K]
        for k, value in zip(workloads.WIDE_K, ms):
            metrics["%s.k%d_ms" % (call, k)] = (value, "ms")
        slope = _slope(workloads.WIDE_K, ms) if all(ms) else 0.0
        metrics[call + ".k_slope"] = (slope, "ratio")
    sim_busy = metrics["simulate.simulate_panel.busy_s"][0]
    metrics["simulate.agents_per_s"] = (
        workloads.PANEL_AGENTS * metrics["simulate.simulate_panel.calls"][0]
        / sim_busy if sim_busy else 0.0,
        "1/s",
    )
    op_self = [
        t for s, t in zip(rows, tr.self_times()) if s[spans.NAME] == "bench.op"
    ]
    metrics["bench.op.self_s"] = (sum(op_self), "s")

    states = posteriors = omega = cells = bits = 0
    for _, obs, model in outcomes:
        if obs is not None:
            states = max(states, len(obs.space))
            posteriors = max(posteriors, len(obs.posteriors))
        if model is not None:
            sizes = model_sizes(bc, model, work / "sizes.json")
            omega, cells, bits = map(max, zip((omega, cells, bits), sizes))
    metrics.update(
        {
            "size.states": (states, "count"),
            "size.posteriors": (posteriors, "count"),
            "size.omega": (omega, "count"),
            "size.cells": (cells, "count"),
            "size.max_den_bits": (bits, "bits"),
            "size.agents": (
                workloads.PANEL_AGENTS if name == "panel" else 0,
                "count",
            ),
            "size.partitions_bound": (bell(states), "count"),
        }
    )
    for label, (count, wall, cpu) in (
        ("traced", traced),
        ("untraced", untraced),
    ):
        metrics[label + ".ops_per_s"] = (count / wall, "1/s")
        metrics[label + ".cpu_per_op_s"] = (cpu / count, "s")
    metrics["trace.overhead_frac"] = (traced[2] / untraced[2] - 1, "ratio")
    return metrics


def traced_phase(ops, round_len, count, tr, failures):
    """The first `count` ops, each round run untraced and then traced, so
    the two sides see the same ops under the same conditions. Returns
    per-side [ops, wall s, cpu s], op tags, traced outcomes and failures."""
    null = spans.NullTracer()
    sides = {"traced": [0, 0.0, 0.0], "untraced": [0, 0.0, 0.0]}
    tags, outcomes, failed = {}, [], 0
    for first in range(0, count, round_len):
        for label, tracer in (("untraced", null), ("traced", tr)):
            for i in range(first, first + round_len):
                wall, cpu, ok, outcome = run_op(ops, i, tracer, failures)
                side = sides[label]
                side[0] += 1
                side[1] += wall
                side[2] += cpu
                if tracer is tr:
                    tags[i] = ops[i % len(ops)][0]
                    failed += not ok
                    if outcome is not None:
                        outcomes.append(outcome)
    return sides, tags, outcomes, failed


def run_workload(args, meta):
    """Returns (metrics, notes, attempted, failed, failure messages)."""
    work = OUT / ("work-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    failures = []
    tr = spans.Tracer() if args.trace else spans.NullTracer()
    try:
        pace = Paced()
        setup_times = []
        for n in range(SETUPS):
            # Only the last set-up is traced, so span counts repeat.
            last = n == SETUPS - 1
            tracer = tr if last else spans.NullTracer()
            seconds, ops = set_up(args.workload, args.seed, work, tracer)
            setup_times.append(pace.seconds(seconds))
        if not args.trace:
            timed = timed_phase(
                ops, workloads.TIMED_OPS[args.workload], args.seconds,
                failures,
            )
            latency, attempted, failed, elapsed, raw_p50 = timed
            metrics, notes = end_to_end(
                setup_times, latency, attempted, elapsed, raw_p50
            )
            return metrics, notes, attempted, failed, failures
        round_len = workloads.ROUND[args.workload]
        sides, tags, outcomes, failed = traced_phase(
            ops, round_len, workloads.TRACED_OPS[args.workload], tr, failures
        )
        bc = sys.modules["beliefcheck"]
        metrics = per_layer(
            args.workload, tr, tags, outcomes, bc, work,
            sides["traced"], sides["untraced"],
        )
        write_trace(args, meta, tr, tags, metrics)
        return metrics, {}, sides["traced"][0], failed, failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_trace(args, meta, tr, tags, metrics):
    """Write every span, with its self time, and the per-layer metrics."""
    t0 = tr.spans[0][spans.START] if tr.spans else 0.0
    rows = [
        {
            "name": s[spans.NAME],
            "start": s[spans.START] - t0,
            "end": s[spans.END] - t0,
            "self": self_time,
            "parent": s[spans.PARENT],
            "op": s[spans.OP],
            "tag": tags.get(s[spans.OP]),
            "failed": s[spans.FAILED],
        }
        for s, self_time in zip(tr.spans, tr.self_times())
    ]
    path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(
            {
                "meta": meta,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "spans": rows,
            },
            fh,
        )
        fh.write("\n")


def report(meta, metrics, notes, attempted, failed, failures):
    """Human-readable lines, then the JSON result as the last line."""
    print("# beliefcheck bench " + json.dumps(meta, sort_keys=True))
    for message in failures[:20]:
        print("# FAILED " + message)
    for key, (value, unit) in metrics.items():
        note = notes.get(key)
        print(
            "%-48s %14.6g %-6s%s"
            % (key, value, unit, "  (%s)" % note if note else "")
        )
    if "raw" in notes:
        print("# unpaced: " + notes["raw"])
    print(
        "%-48s %14.6g %-6s  (%d failed of %d ops)"
        % ("fail_frac", failed / attempted, "ratio", failed, attempted)
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    for name in workloads.SETUP:
        argv = [sys.executable, __file__, "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        print("## workload %s" % name, flush=True)
        status |= subprocess.run(argv, check=False).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=list(workloads.SETUP) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beliefcheck" / "__init__.py").is_file():
        print(
            "error: %s holds no beliefcheck sources; run from a checkout"
            % SRC,
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc(),
    }
    result = run_workload(args, meta)
    report(meta, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
