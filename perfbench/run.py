"""nswmatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dp-dense, dp-sparse-bigval, poly-large, small-batch, or all, which
runs the four one after another, each in its own process.

Run from the root of a checkout; nswmatch is imported from its src/.  Each
workload (see workloads.py) is a fixed batch of solves built from the seed.
One caller runs the batch in a closed loop, one nswmatch.cli.run_algo call
at a time, and repeats whole passes: a fixed count per workload scaled by
S (workloads.PASSES), about S seconds on the machine the batches were sized
on.  A faster program measures the same solves sooner.
Every answer is checked outside the timed region (check.py).

--trace 0 prints the end-to-end metrics.  Their times are at reference
speed (speed.py): as measured, times (REFERENCE_TICK_S / median tick) **
EXPONENT, where a tick is a fixed piece of pure-Python work the run repeats
between solves (for setup_s, around each set-up process), so that most of
the host's drift in speed from run to run cancels.
The lines above the result give the measured times and the median tick.

  wall_s            median over passes of the summed run_algo call times
                    of one pass over the batch
  solve_ms_p50      median time of one run_algo call, over all passes
  solve_ms_tail     the highest percentile of those times that still has 10
                    solves beyond it; the percentile and count are printed
  ok_ratio          1 - fail_ratio: solves that passed the checker over
                    solves attempted (fail_ratio itself is 0 on most
                    workloads, and a metric must not be 0)
  approx_ratio_min  smallest (got / opt)^(1/(m+n)) over greedy, qptas and
                    fptas solves; on poly-large, where no optimum is
                    reachable, opt is an upper bound, so it is a lower bound
  peak_rss_mb       peak resident set of this process over the passes
  setup_s           median over this process and SETUP_RUNS - 1 fresh ones
                    of the time from start to ready-to-solve: imports,
                    instance generation and one warm-up solve per solver

--trace 1 alternates passes without and with span wrappers and prints the
per-layer metrics (spans.py): self time and calls per wrapped function and
per module, counters, tracing overhead and the share no span covers.  On
dp-dense it also times the ROADMAP baseline shapes (calib.*).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  correct
is false when any answer is wrong; a solve that raises is a failure but not
a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

STARTED = time.perf_counter()  # set-up is timed from here

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("dp-dense", "dp-sparse-bigval", "poly-large", "small-batch")
SETUP_RUNS = 5
TAIL_BEYOND = 10
# ROADMAP "Recent" baseline shapes (n = 3, values 1..5) read from dp-dense
CALIBRATION = (("dp", 12), ("dp", 14), ("dp2", 12), ("fptas", 14), ("oracle", 10))

END_TO_END = (
    ("wall_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_tail", "ms"),
    ("ok_ratio", "ratio"),
    ("approx_ratio_min", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric a --trace 1 run reports, with its unit."""
    import spans

    out = []
    for module, name in spans.TARGETS:
        key = spans.metric_name(module, name)
        out += [(f"{key}.self_s", "s"), (f"{key}.calls", "count")]
    out += [(f"{module}.self_s", "s") for module in spans.MODULES]
    out += [(counter, "count") for counter in spans.COUNTERS]
    for key in spans.SETUP_TARGETS:
        out += [(f"setup.{key}.self_s", "s"), (f"setup.{key}.calls", "count")]
    out += [("setup.traced_s", "s"), ("setup.uncovered_share", "ratio"),
            ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s"), ("trace.uncovered_share", "ratio")]
    out += [(f"calib.{algo}_m{m}_ms", "ms") for algo, m in CALIBRATION]
    return out


def import_program() -> None:
    if not (SRC / "nswmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: nswmatch sources not found under {SRC}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """Import, generate the batch, and warm up each solver once."""
    import workloads

    batch = workloads.build(workload, seed)
    warm_up(batch)
    return batch


def warm_up(batch) -> None:
    from nswmatch import cli

    for inst, algo, eps in batch.warmup:
        try:
            cli.run_algo(algo, inst, eps)
        except Exception:  # the batch's own solves report failures
            pass


def measure_setup(args, meter) -> list[float]:
    """Set-up seconds of SETUP_RUNS - 1 fresh processes of this script,
    with a burst of ticks before and after each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS - 1):
        meter.tick(speed.MAX_BURST)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        meter.tick(speed.MAX_BURST)
        word, _, value = line.partition(" ")
        if word != "ready":
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(float(value))
    return times


def run_pass(batch, tracer=None, meter=None):
    """One pass over the batch: (wall ns, per-solve ns, records).  With a
    meter it ticks between solves, and wall is the sum of the solve times,
    ticks left out."""
    from nswmatch import cli

    clock = time.perf_counter_ns
    cells, instances = batch.cells, batch.instances
    times = [0] * len(cells)
    records = [None] * len(cells)
    begin = clock()
    for k, cell in enumerate(cells):
        if tracer is not None:
            tracer.solve_id = k + 1
        if meter is not None:
            meter.catch_up()
        inst = instances[cell.inst]
        start = clock()
        try:
            rec = cli.run_algo(cell.algo, inst, cell.eps)
        except Exception as exc:  # a failed solve, counted by the checker
            rec = exc.with_traceback(None)
        times[k] = clock() - start
        records[k] = rec
    wall = clock() - begin if meter is None else sum(times)
    return wall, times, records


def tail(values: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"need more than {TAIL_BEYOND} solves")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def print_failures(checker) -> None:
    for (algo, cause), count in sorted(checker.causes.items()):
        print(f"  FAIL {algo:10s} x{count}: {cause}")


def timed_run(args) -> dict:
    import check
    import workloads

    batch = setup(args.workload, args.seed)
    setup_times = [time.perf_counter() - STARTED]
    meter = speed.Meter()
    setup_times += measure_setup(args, meter)
    setup_ticks = len(meter.took)  # set-up is scaled by its own ticks
    checker = check.Checker(args.workload, batch)
    walls: list = []
    samples: list = []
    for _ in range(workloads.passes(args.workload, args.seconds)):
        wall, times, records = run_pass(batch, meter=meter)
        walls.append(wall)
        samples += times
        checker.check_pass(records)
        del records
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.finish()
    if args.workload == "poly-large":
        rng = random.Random(f"poly-small/{args.seed}")
        checker.check_small_families(workloads.poly_small_checks(rng))

    tail_ns, tail_pct = tail(samples)
    factor = meter.factor(setup_ticks)
    setup_factor = meter.factor(0, setup_ticks)
    metrics = {
        "wall_s": factor * statistics.median(walls) / 1e9,
        "solve_ms_p50": factor * statistics.median(samples) / 1e6,
        "solve_ms_tail": factor * tail_ns / 1e6,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "approx_ratio_min": checker.ratio,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_factor * statistics.median(setup_times),
    }
    units = dict(END_TO_END)
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} passes of "
          f"{len(batch.cells)} solves on {len(batch.instances)} instances")
    for name, value in metrics.items():
        print(f"  {name:18s} {value:14.6f} {units[name]}")
    print(f"  solve_ms_tail is p{tail_pct:.3f} of {len(samples)} solves")
    print(f"  times are at reference speed: as measured x ("
          f"{speed.REFERENCE_TICK_S * 1e3:.3f} ms / median tick "
          f"{meter.median_tick_s(setup_ticks) * 1e3:.3f} ms over "
          f"{len(meter.took) - setup_ticks} ticks) ** {speed.EXPONENT} (set-up "
          f"tick {meter.median_tick_s(0, setup_ticks) * 1e3:.3f} ms); as measured, "
          f"wall_s {statistics.median(walls) / 1e9:.3f} s and set-up runs "
          f"{[round(t, 3) for t in setup_times]} s")
    print(f"  fail_ratio {checker.failed}/{checker.attempted}; "
          f"wrong answers {checker.wrong}")
    print_failures(checker)
    return {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_run(args) -> dict:
    import check
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter_ns()
    try:
        batch = workloads.build(args.workload, args.seed)
    finally:
        setup_traced = time.perf_counter_ns() - start
        tracer.uninstall()
    setup_self, setup_calls, setup_covered = tracer.fold()
    warm_up(batch)
    checker = check.Checker(args.workload, batch)
    plain_walls: list = []
    traced_walls: list = []
    pass_self = [0] * len(spans.TARGETS)
    pass_calls = [0] * len(spans.TARGETS)
    covered = 0
    # pairs of passes in the order ABBA..., at least two pairs, so the
    # overhead estimate is not one pass against the next
    for pair in range(max(2, workloads.passes(args.workload, args.seconds) // 2)):
        order = (False, True) if pair % 2 == 0 else (True, False)
        for traced in order:
            if not traced:
                wall, _times, records = run_pass(batch)
                plain_walls.append(wall)
                checker.check_pass(records)
                continue
            tracer.install()
            try:
                wall, _times, records = run_pass(batch, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            self_ns, calls, root_ns = tracer.fold()
            for idx in range(len(spans.TARGETS)):
                pass_self[idx] += self_ns[idx]
                pass_calls[idx] += calls[idx]
            covered += root_ns
            checker.check_pass(records)
        del records
    checker.finish()

    passes = len(traced_walls)
    metrics = {}
    by_module: dict = {module: 0 for module in spans.MODULES}
    for idx, (module, _name) in enumerate(spans.TARGETS):
        key = tracer.names[idx]
        metrics[f"{key}.self_s"] = pass_self[idx] / passes / 1e9
        metrics[f"{key}.calls"] = pass_calls[idx] / passes
        by_module[module] += pass_self[idx]
    for module, total in by_module.items():
        metrics[f"{module}.self_s"] = total / passes / 1e9
    for counter in spans.COUNTERS:
        metrics[counter] = tracer.counters[counter] / passes
    for key in spans.SETUP_TARGETS:
        idx = tracer.names.index(key)
        metrics[f"setup.{key}.self_s"] = setup_self[idx] / 1e9
        metrics[f"setup.{key}.calls"] = setup_calls[idx]
    metrics["setup.traced_s"] = setup_traced / 1e9
    metrics["setup.uncovered_share"] = 1.0 - setup_covered / setup_traced
    traced_total = sum(traced_walls)
    metrics["trace.wall_s"] = traced_total / passes / 1e9
    metrics["trace.untraced_wall_s"] = sum(plain_walls) / len(plain_walls) / 1e9
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.uncovered_share"] = 1.0 - covered / traced_total

    for algo, m in CALIBRATION:
        metrics[f"calib.{algo}_m{m}_ms"] = 0.0
    if args.workload == "dp-dense":
        calib = workloads.calibration(random.Random(f"calibration/{args.seed}"), CALIBRATION)
        _wall, times, records = run_pass(calib)
        calib_checker = check.Checker(args.workload, calib)
        calib_checker.check_pass(records)
        checker.wrong += calib_checker.wrong
        checker.causes.update(calib_checker.causes)
        for algo, m in CALIBRATION:
            shape = [t for cell, t in zip(calib.cells, times)
                     if cell.algo == algo and calib.instances[cell.inst].m == m]
            metrics[f"calib.{algo}_m{m}_ms"] = statistics.median(shape) / 1e6

    units = dict(per_layer_metrics())
    print(f"workload {args.workload} seed {args.seed}: {len(plain_walls)} untraced and "
          f"{passes} traced passes of {len(batch.cells)} solves")
    for name, value in metrics.items():
        if value:
            print(f"  {name:48s} {value:14.6f} {units[name]}")
    listed = sum(v for k, v in metrics.items()
                 if k.endswith(".self_s") and k.count(".") == 1 and not k.startswith("setup."))
    print(f"  module self times {listed:.6f} s + uncovered "
          f"{metrics['trace.uncovered_share'] * metrics['trace.wall_s']:.6f} s "
          f"= traced wall {metrics['trace.wall_s']:.6f} s")
    if tracer.absent:
        print(f"  absent: {sorted(tracer.absent)}")
    print_failures(checker)
    return {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another; the metrics
    are keyed '<workload>.<metric>'."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               check=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args()
    import_program()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", time.perf_counter() - STARTED, flush=True)
        os._exit(0)  # skip tearing down the instances; nothing is left to flush
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
