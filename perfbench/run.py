#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload explore|simulate|campaign|serve \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off: the
timings are per-kind medians over the run's rounds (see ``medians``).
``--trace 1`` is the separate traced run: it sets up once with layer
spans on, runs the timed phase untraced, then one traced round, and
reports per-layer metrics (never end-to-end ones).  Every run starts
cold in a fresh process.  Human-readable lines go to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed check makes the exit code non-zero.

Run from the repository root; the program is imported from ``src/``.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per --trace 0 run: at least SETUP_REPEATS, and more while
#: they total under SETUP_MIN_SECONDS; setup_s is their median.
SETUP_REPEATS = 2
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPEATS = 400

#: End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput": "items/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (--trace 1) timed by spans: metric -> span name.
SPAN_METRICS = {
    "lang.parse_s": "lang.parse",
    "lang.sema_s": "lang.sema",
    "lang.unroll_s": "lang.unroll",
    "lang.lower_s": "lang.lower",
    "ir.constfold_s": "ir.constfold",
    "ir.constloads_s": "ir.constloads",
    "ir.copyprop_s": "ir.copyprop",
    "ir.cse_s": "ir.cse",
    "ir.dce_s": "ir.dce",
    "ir.simplifycfg_s": "ir.simplifycfg",
    "ir.verify_s": "ir.verify",
    "ir.optimize_s": "ir.optimize",
    "backend.isel_s": "backend.isel",
    "sched.regalloc_s": "sched.regalloc",
    "backend.expand_s": "backend.expand",
    "sched.schedule_s": "sched.schedule",
    "backend.emit_s": "backend.emit",
    "asm.assemble_s": "asm.assemble",
    "fpga.estimate_s": "fpga.estimate",
    "core.fast_s": "core.fast",
    "core.trace_s": "core.trace",
    "core.reference_s": "core.reference",
    "core.specialise_s": "core.specialise",
    "reliability.checker_build_s": "reliability.checker_build",
    "snapshot.checkpoints_s": "snapshot.checkpoints",
    "reliability.run_batch_s": "reliability.run_batch",
    "reliability.run_one_s": "reliability.run_one",
    "serve.submit_s": "serve.submit",
    "serve.poll_s": "serve.poll",
}
#: Counters recorded at span boundaries; the first three are exact.
COUNT_METRICS = (
    "ir.instrs_after", "backend.code_bundles", "core.sim_cycles",
    "ir.instrs_before", "ir.fixpoint_rounds", "ir.rewrites",
    "core.fast_runs", "core.trace_runs", "core.reference_runs",
    "reliability.run_one_calls",
)
#: Counters read from the program's public outputs in the traced round.
ROUND_METRICS = (
    "autotune.candidates", "autotune.pruned",
    "vector.scalar_frac", "vector.occupancy",
    "vector.wasted_retired_cycles", "vector.rewalk_groups",
    "campaign.prefix_cycles_skipped", "vector.numpy",
    "serve.polls_per_batch", "serve.job_service_s", "serve.overhead_frac",
    "serve.cache_hit_frac", "serve.cache_puts", "serve.spawns",
    "serve.worker_reuse_frac", "serve.affinity_hit_frac",
    "serve.workers_lost",
)
#: Layers whose self time is reported as self.<layer>_s.
LAYERS = ("lang", "ir", "backend", "sched", "asm", "fpga", "core",
          "reliability", "snapshot", "serve")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric in (
            "vector.occupancy", "vector.wasted_retired_cycles"):
        return "fraction"
    if metric == "vector.numpy":
        return "flag"
    if metric == "core.sim_cycles" or metric.endswith("cycles_skipped"):
        return "cycles"
    return "count"


def per_layer_names():
    return (list(SPAN_METRICS) + list(COUNT_METRICS)
            + ["ir.optimize_redundant_frac"] + list(ROUND_METRICS)
            + [f"self.{layer}_s" for layer in LAYERS]
            + ["bench.unattributed_frac", "bench.trace_overhead_frac",
               "bench.cpu_s", "bench.wall_s"])


def host_info() -> dict:
    try:
        import numpy  # noqa: F401
        has_numpy = 1
    except ImportError:
        has_numpy = 0
    return {"python": platform.python_version(), "numpy": has_numpy,
            "nproc": os.cpu_count()}


def say(name: str, value, unit: str) -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:32s} {shown:>14s} {unit}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workload, seconds: float):
    """Rounds until ``seconds`` of measured time have passed (at least
    ``workload.min_rounds``); returns the rounds, wall and process CPU
    seconds."""
    rounds = []
    measured = 0.0
    wall, cpu = time.perf_counter(), time.process_time()
    while len(rounds) < workload.min_rounds or measured < seconds:
        # Collect the previous round's cyclic garbage first, so the peak
        # RSS reflects one round's working set, not when the collector
        # happened to run.
        gc.collect()
        done = workload.run_round(len(rounds))
        rounds.append(done)
        measured += done.seconds
        if done.failed:
            break
    return (rounds, time.perf_counter() - wall,
            time.process_time() - cpu)


def totals(rounds):
    attempted = sum(done.attempted for done in rounds)
    failed = sum(done.failed for done in rounds)
    errors = [error for done in rounds for error in done.errors]
    return attempted, failed, errors


def medians(rounds):
    """Work and time of one round, each request kind at its median.

    Returns (items, seconds, latency, samples): the median items and
    seconds of every request kind, summed over kinds; the median over
    kinds of each kind's median seconds; and the number of requests.
    A kind's median over the rounds drops the rounds the host stalled,
    which a sum over all of them would carry.
    """
    kinds = {}
    for done in rounds:
        for kind, seconds, items in done.requests:
            kinds.setdefault(kind, ([], []))
            kinds[kind][0].append(seconds)
            kinds[kind][1].append(items)
    times = [statistics.median(spent) for spent, _ in kinds.values()]
    items = sum(statistics.median(done) for _, done in kinds.values())
    samples = sum(len(spent) for spent, _ in kinds.values())
    return (items, sum(times),
            statistics.median(times) if times else 0.0, samples)


def measure(workload, seconds: float):
    setups = []
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_MIN_SECONDS
            and len(setups) < SETUP_MAX_REPEATS):
        if setups:
            workload.teardown()
        begun = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begun)
    try:
        rounds, wall, cpu = run_phase(workload, seconds)
        rss = peak_rss_mb() + workload.worker_rss_mb()
    finally:
        workload.teardown()
    measured = sum(done.seconds for done in rounds)
    items, round_s, latency, samples = medians(rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": items / round_s if round_s > 0 else 0.0,
        "latency_p50_s": latency,
        "peak_rss_mb": rss,
    }
    attempted, failed, errors = totals(rounds)
    print(f"{workload.name}: {len(rounds)} round(s) of "
          f"{samples // max(1, len(rounds))} request(s), {measured:.3f} s "
          f"measured, {wall:.3f} s wall, {cpu:.3f} s process CPU")
    say("setup_s", metrics["setup_s"],
        f"s (median of {len(setups)}, min {min(setups):.3f}, "
        f"max {max(setups):.3f})")
    say(workload.rate_name, metrics["throughput"],
        f"{workload.item_unit} (a round at per-kind medians: "
        f"{items:.6g} in {round_s:.3f} s)")
    say(workload.latency_name, metrics["latency_p50_s"],
        f"s (n={samples})")
    say("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    say("fail_frac", failed / attempted if attempted else 1.0,
        f"({failed}/{attempted})")
    fingerprint = getattr(workload, "fingerprint", None)
    if fingerprint is not None:
        print(f"  outputs digest {fingerprint()}")
    return metrics, attempted, failed, errors


def traced(workload, seconds: float, out_path: Path):
    from spans import BENCH, Tracer, layer_of, summary

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload.setup()
    finally:
        tracer.uninstall()
    try:
        rounds, wall, cpu = run_phase(workload, seconds)
        index = 0 if workload.replay else len(rounds)
        tracer.install()
        workload.tracer = tracer
        try:
            with tracer.span("bench.round"):
                begun = time.perf_counter()
                traced_round = workload.run_round(index)
                window = (begun, time.perf_counter())
        finally:
            workload.tracer = None
            tracer.uninstall()
        checked = workload.cross_check()
    finally:
        workload.teardown()

    span_totals, self_time = summary(tracer.spans)
    # Wall time of the traced round that no layer span covers is
    # unattributed: top-level layer spans are the round's children.
    covered = sum(
        end - start for name, start, end, parent in tracer.spans
        if layer_of(name) != BENCH and parent is not None
        and tracer.spans[parent][0] == "bench.round")
    counts = tracer.counts
    metrics = {name: span_totals.get(span, 0.0)
               for name, span in SPAN_METRICS.items()}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    calls = counts.get("ir.optimize_calls", 0)
    metrics["ir.optimize_redundant_frac"] = (
        counts.get("ir.optimize_redundant", 0) / calls if calls else 0.0)
    metrics.update({name: traced_round.layer.get(name, 0)
                    for name in ROUND_METRICS})
    metrics.update({f"self.{layer}_s": self_time.get(layer, 0.0)
                    for layer in LAYERS})
    measured = traced_round.seconds
    metrics["bench.unattributed_frac"] = (
        max(0.0, measured - covered) / measured if measured else 0.0)
    metrics["bench.trace_overhead_frac"] = (
        measured / min(done.seconds for done in rounds) - 1.0)
    metrics["bench.cpu_s"] = cpu / len(rounds)
    metrics["bench.wall_s"] = wall / len(rounds)

    attempted, failed, errors = totals(rounds + [traced_round, checked])
    print(f"{workload.name} (traced): set-up traced, {len(rounds)} "
          f"untraced round(s), traced round {index}; spans in {out_path}")
    for name in per_layer_names():
        say(name, metrics[name], unit_of(name))
    fingerprint = getattr(workload, "fingerprint", None)
    tracer.dump(str(out_path), {
        "workload": workload.name,
        "seed": workload.seed,
        "host": host_info(),
        "window": list(window),
        "self_time": dict(self_time),
        "unattributed_s": max(0.0, measured - covered),
        "metrics": metrics,
        "outputs_digest": fingerprint() if fingerprint else None,
    })
    if fingerprint is not None:
        print(f"  outputs digest {fingerprint()}")
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("explore", "simulate", "campaign",
                                 "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {source}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Pin the environment knobs that change the campaign path to their
    # defaults, so the ambient environment cannot change what runs.
    for knob in ("REPRO_CHECKPOINTS", "REPRO_CHECKPOINT_STORE",
                 "REPRO_CHECKER_MEMO"):
        os.environ.pop(knob, None)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))

    from workloads import WORKLOADS

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} " + " ".join(
              f"{key}={value}" for key, value in host_info().items()))

    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        if args.trace:
            path = out_dir / f"spans-{args.workload}-{args.seed}.json"
            metrics, attempted, failed, errors = traced(
                workload, args.seconds, path)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, attempted, failed, errors = measure(
                workload, args.seconds)
            units = END_TO_END
    except Exception:  # report and fail the run, never a partial result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in errors[:20]:
        print(f"  FAILED: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
