"""Benchmark of harmonic_atlas through its public entry point ``cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``.  One process, one client, closed loop:
each operation is one ``cli.main(argv)`` call, started when the previous
one has returned, and its output is checked against the seed records.

A run sets up at least three times and for at least a second (fresh import
of the package plus the workload's warm-up) and reports the median as
``setup_s``.  It then runs passes over the workload's operations until
``--seconds`` have elapsed, always at least one pass.  ``wall_s`` is the
median time of a pass; ``op_p50_ms`` and ``op_p90_ms`` are percentiles over
the operations of each one's median time.  The seed permutes the operations
of each pass where the workload says so.  Every time is rescaled to a
nominal machine speed by ``speed.SpeedProbe``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the run measures untraced passes as well, then traced
passes, and the last line carries the per-layer metrics of a traced pass;
the spans are written to ``.perfbench/trace-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed
import workloads as wl

SETUPS = 3
SETUP_SECONDS = 1.0
MIN_COVERAGE = 0.95
OUT_DIR = ".perfbench"
WORKLOADS = ("verify_all", "expand_deep", "certify_dense", "render_atlas")
# Runnable by hand, but not listed in BENCHMARK.json: its median operation is
# one 0.1 s call, whose spread exceeds the op_p50_ms bound, and its 25 s runs
# would push the benchmark's full set of runs past its time budget.
UNLISTED = ("certify_dense",)

_UNITS = {"calls": "count", "coeff_products": "count", "point_evals": "count",
          "points": "count", "nonzero_share": "share",
          "cache_hit_ratio": "share", "coverage": "share",
          "layer_coverage": "share",
          "pass_share": "share", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    last = name.rpartition(".")[2]
    if last in _UNITS:
        return _UNITS[last]
    return "ms" if last.endswith("_ms") else "s"


def percentile(samples, q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile of the samples.

    Raises ValueError unless at least ``min_beyond`` samples lie beyond it.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if not ordered or len(ordered) - rank < min_beyond:
        raise ValueError(f"{len(ordered)} samples leave fewer than {min_beyond} "
                         f"beyond the {q:.0%} percentile")
    return ordered[rank - 1]


def elapsed(start, end):
    return end - start


@dataclass
class Passes:
    ops: list = field(default_factory=list)    # (key, start, end, completed)
    sizes: list = field(default_factory=list)  # ops in each pass
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def latencies(self, scale=elapsed) -> list:
        """Each operation's median time over the passes; a failed call
        counts as infinitely slow."""
        times = {}
        for key, s, e, ok in self.ops:
            times.setdefault(key, []).append(scale(s, e) if ok else math.inf)
        return [statistics.median(t) for t in times.values()]

    def pass_seconds(self, scale=elapsed) -> list:
        times = [scale(s, e) for _, s, e, _ in self.ops]
        bounds = [0]
        for n in self.sizes:
            bounds.append(bounds[-1] + n)
        return [sum(times[a:b]) for a, b in zip(bounds, bounds[1:])]


def set_up(workload, program) -> list:
    """Set up at least SETUPS times and SETUP_SECONDS long; returns the
    (start, end) of each set-up."""
    program.load()  # untimed: numpy and the standard library import once
    intervals = []
    while len(intervals) < SETUPS or intervals[-1][1] - intervals[0][0] < SETUP_SECONDS:
        program.unload()
        start = time.perf_counter()
        program.load()
        if workload.warm_up is not None:
            workload.warm_up(program)
        intervals.append((start, time.perf_counter()))
    return intervals


def run_passes(workload, program, records, rng, seconds, scratch) -> Passes:
    done = Passes()
    start = time.perf_counter()
    while not done.sizes or time.perf_counter() - start < seconds:
        ops = workload.pass_ops(rng)
        gc.collect()  # no garbage from set-up or the last pass is pending
        for op in ops:
            if workload.cold:
                program.unload()
                program.load()
            out = program.call(op.resolved_argv(scratch))
            check = workload.check(op, out, records[op.key], scratch)
            done.ops.append((op.key, out.start, out.end, check.completed))
            done.attempted += check.attempted
            done.failed += check.failed
            done.unexpected += check.unexpected
            done.notes += check.notes
        done.sizes.append(len(ops))
    return done


def end_to_end(workload, setup, done: Passes, scale) -> dict:
    def finite(x):  # a failed op counts as infinitely slow
        return x if math.isfinite(x) else sys.float_info.max

    lat = [x * 1e3 for x in done.latencies(scale)]
    return {
        "setup_s": statistics.median(scale(s, e) for s, e in setup),
        "wall_s": statistics.median(done.pass_seconds(scale)),
        "pass_share": (done.attempted - done.failed) / done.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": finite(percentile(lat, 0.5, workload.min_beyond)),
        "op_p90_ms": finite(percentile(lat, 0.9, workload.min_beyond)),
    }


def traced(workload, program, records, rng, seconds, scratch):
    """Traced passes, and the spans they recorded."""
    tracer = spans.Tracer()
    program.tracer = tracer
    if not workload.cold:  # cold ops install on every fresh import
        tracer.install()
    try:
        done = run_passes(workload, program, records, rng, seconds, scratch)
    finally:
        tracer.uninstall()
        program.tracer = None
    tracer.assert_clean()
    return done, tracer.spans


def layer_report(base: Passes, done: Passes, recorded, scale) -> dict:
    metrics = spans.layer_metrics(recorded, len(done.sizes))
    wall = sum(done.pass_seconds())
    # the top-level span is the cli.main wrapper, so this is near 1 whenever
    # every operation went through it
    metrics["trace.coverage"] = spans.top_level_seconds(recorded) / wall
    # the share the spans below cli.main cover; the rest is cli.main's own work
    metrics["trace.layer_coverage"] = (1 - metrics["cli.main.self_s"]
                                       * len(done.sizes) / wall)
    metrics["trace.overhead_s"] = (statistics.median(done.pass_seconds(scale))
                                   - statistics.median(base.pass_seconds(scale)))
    return metrics


def write_spans(path: Path, recorded):
    with path.open("w", encoding="utf-8") as fh:
        for s in recorded:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "attrs": s.attrs}) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def benchmark(name, seed, seconds, trace, workload=None, records=None) -> tuple:
    """Run one workload; returns (result dict, summary lines, exit code)."""
    if workload is None:
        expected = wl.load_expected()
        workload, records = wl.build_workloads(expected)[name], expected["ops"]
    program = wl.Program()
    out_dir = wl.ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out_dir))
    rng = random.Random(seed)
    try:
        with speed.SpeedProbe() as probe:
            setup = set_up(workload, program)
            base = run_passes(workload, program, records, rng, seconds, scratch)
            runs = [base]
            if trace:
                done, recorded = traced(workload, program, records, rng,
                                        seconds, scratch)
                runs.append(done)
    finally:
        program.unload()
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        metrics = layer_report(base, done, recorded, probe.rescale)
        write_spans(out_dir / f"trace-{workload.name}-seed{seed}.jsonl", recorded)
    else:
        metrics = end_to_end(workload, setup, base, probe.rescale)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    unexpected = [u for r in runs for u in r.unexpected]
    lines = [f"workload {workload.name} seed {seed} trace {trace}: "
             f"{sum(len(r.sizes) for r in runs)} passes, "
             f"{sum(len(r.ops) for r in runs)} ops, "
             f"{failed}/{attempted} failed, {len(unexpected)} not failing at the seed"]
    lines += [f"  {m}: {v:.6g} {unit_of(m)}" for m, v in metrics.items()]
    if not trace:
        lines.append(f"  latency samples: {len(base.latencies())} operations, "
                     f"each the median of its {len(base.sizes)} pass(es); "
                     f"{len(setup)} set-ups")
        lines.append(f"  unscaled: wall_s {statistics.median(base.pass_seconds()):.6g} s, "
                     f"setup_s {statistics.median(e - s for s, e in setup):.6g} s; "
                     f"calibration loop median {statistics.median(probe.durations) * 1e3:.4g} ms, "
                     f"nominal {speed.NOMINAL * 1e3:.4g} ms")
    lines += sorted({f"  {n}" for r in runs for n in r.notes})
    lines += [f"  UNEXPECTED {u}" for u in unexpected]
    code = 0
    if trace and metrics["trace.coverage"] < MIN_COVERAGE:
        lines.append(f"  error: spans cover {metrics['trace.coverage']:.1%} of wall_s")
        code = 1
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }
    return result, lines, code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, lines, code = benchmark(args.workload, args.seed, args.seconds,
                                        args.trace)
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if code:
        return code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
