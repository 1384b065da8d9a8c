#!/usr/bin/env python3
"""Benchmark of the gibbscache package, one workload per invocation.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload hex7-requests --seed 1 --seconds 20 --trace 0

The workload's inputs are built from public constructors (timed as set-up),
then operations run back to back for ``--seconds`` (closed loop, one
process, no threads).  Every operation's output is checked; an operation
that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced and traced runs of the same seeds and
reports per-layer metrics from the traced ones (see ``tracer.py``); the two
must produce identical trace digests.

Metric lines are printed by name with their unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (per-operation times, trace digests,
the span log) are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc as pygc
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("line2-anneal", "line30-sampler", "hex7-requests", "exact-3bs")

# name -> unit; BENCHMARK.json declares the same names and units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slots_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_rate_final": "hits/t",
}

PER_LAYER = {
    "engine.step_calls": "count",
    "engine.step_s": "s",
    "engine.step_us_p50": "us",
    "engine.step_us_p99": "us",
    "engine.candidates_per_step": "count",
    "engine.init_s": "s",
    "engine.columns_calls": "count",
    "engine.columns_s": "s",
    "engine.record_arrival_calls": "count",
    "engine.record_arrival_s": "s",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.self_us_per_request": "us",
    "sim.requests": "count",
    "sim.slots": "count",
    "sim.hit_ratio": "ratio",
    "sim.snapshots": "count",
    "sim.distinct_real_configs": "count",
    "sim.distinct_virtual_configs": "count",
    "sim.trace_bytes": "B",
    "config.build_s": "s",
    "geometry.build_s": "s",
    "oracle.gate_s": "s",
    "oracle.enumerate_optimal_s": "s",
    "oracle.states_per_s": "1/s",
    "gibbs.expected_hit_rate_s": "s",
    "gibbs.stationary_distribution_s": "s",
    "gibbs.transition_matrix_s": "s",
    "gibbs.conditional_distribution_calls": "count",
    "model.hit_rate_calls": "count",
    "model.hit_rate_us_p50": "us",
    "model.local_energy_calls": "count",
    "realcache.on_request_calls": "count",
    "realcache.refresh_snapshot_calls": "count",
    "traffic.next_request_calls": "count",
    "traffic.assign_server_calls": "count",
    "traffic.observe_calls": "count",
    "trace.overhead_frac": "ratio",
    "trace.peak_traced_mb": "MB",
}

# Span names whose individual durations are kept for percentiles.
PERCENTILE_SPANS = ("engine.FastCore.step", "model.hit_rate")

# Seconds that reference_loop() takes on an unloaded core of the host the
# benchmark was defined on (2 vCPUs, Python 3.11).
REFERENCE_S = 0.0075

# Working set of the reference loop: 4,060 3-tuples over 30 items (the
# size of the line30-sampler candidate list) and a dict keyed by them.
_REF_TUPLES = [tuple((i * 7 + j) % 30 for j in range(3)) for i in range(4060)]
_REF_INDEX = {t: i for i, t in enumerate(_REF_TUPLES)}
_REF_WEIGHTS = [0.5 + (i % 7) * 0.25 for i in range(30)]


class _Tally:
    def __init__(self):
        self.counts = [0] * 8

    def bump(self, i: int, x: float) -> float:
        self.counts[i & 7] += 1
        return x * 0.5


def _fold(a: float, b: float) -> float:
    return a + b if a < b else a - b


def reference_loop() -> float:
    """Seconds of a fixed interpreter-bound loop that shares no code with
    the package.

    Its first half scans tuples with list indexing and float adds over a
    working set of some hundred kilobytes and looks them up in a dict; its
    second half makes method, function and ``random`` calls on a small
    working set. The two halves slow differently when the host is loaded,
    as the sampler-bound and call-bound workloads do.

    On a shared host the speed of a core drifts by up to 2x over seconds.
    This loop is timed right before and after every timed call, and the
    call's time is scaled to the speed at which the loop takes
    ``REFERENCE_S``; see ``host_scale``.
    """
    weights = _REF_WEIGHTS
    flags = [i % 3 for i in range(30)]
    rng = random.Random(3)
    tally = _Tally()
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(8):
        for c in _REF_TUPLES:
            for i in c:
                if flags[i] == 0:
                    total += weights[i]
        for c in _REF_TUPLES[::4]:
            total += _REF_INDEX[c]
        flags = flags[1:] + flags[:1]
    for i in range(12000):
        u = rng.random()
        total += tally.bump(i, u)
        total = _fold(total, u * 10.0)
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor from host seconds to seconds at the reference speed."""
    return REFERENCE_S / math.sqrt(before * after)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every instance for smoke tests; figures are not comparable",
    )
    return ap.parse_args(argv)


def op_seed(seed: int, r: int) -> int:
    """Seed of the r-th operation of a run with workload seed ``seed``."""
    return seed * 1000 + r


def run_op(workload, inputs, seed, tracer=None):
    """One checked operation; a call that raises counts as failed.

    Each package call is timed on its own, between two reference loops, and
    is the only code that runs under the tracer; the checks run after.
    """
    values = {}
    seconds = scaled = 0.0
    for label, call in workload.calls(inputs, seed):
        before = reference_loop()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            values[label] = call()
        except Exception as exc:  # noqa: BLE001 -- the run must go on and count it
            values[label] = exc
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
        seconds += dt
        scaled += dt * host_scale(before, reference_loop())
    res = workload.result(inputs, values)
    res.calls, res.seconds, res.scaled_seconds = len(values), seconds, scaled
    return res


def percentile_us(durations, q: float) -> float:
    if not durations:
        return 0.0
    data = sorted(durations)
    return data[min(len(data) - 1, int(q * len(data)))] / 1e3


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, setup_times, plain, peak_rss_mb) -> dict:
    quality = plain[: workload.quality_ops]
    if workload.kind == "exact":
        slots = [ratio(o.updates, o.scaled_seconds) for o in plain]
        requests = [ratio(o.states, o.scaled_seconds) for o in plain]
    else:
        slots = [ratio(o.slots, o.scaled_seconds) for o in plain]
        requests = [ratio(o.requests, o.scaled_seconds) for o in plain]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(o.scaled_seconds for o in plain),
        "slots_per_s": statistics.median(slots),
        "requests_per_s": statistics.median(requests),
        "peak_rss_mb": peak_rss_mb,
        "hit_rate_final": math.fsum(o.hit_rate_final for o in quality) / len(quality),
    }


def per_layer(workload, setup_tracer, tracer, plain, traced) -> dict:
    n = len(traced)
    builds = workload.setup_reps * workload.setup_batch

    def per_op(name, field="total_ns"):
        return getattr(tracer.stat(name), field) / n

    def secs(name):
        return per_op(name) / 1e9

    step = tracer.stat("engine.FastCore.step")
    run = tracer.stat("sim.run")
    enum = tracer.stat("oracle.enumerate_optimal")
    requests = sum(o.requests for o in traced)
    op0 = plain[0]
    held = [o.trace for o in plain if o.trace is not None]
    out = {
        "engine.step_calls": per_op("engine.FastCore.step", "calls"),
        "engine.step_s": secs("engine.FastCore.step"),
        "engine.step_us_p50": percentile_us(step.durations, 0.50),
        "engine.step_us_p99": percentile_us(step.durations, 0.99),
        "engine.candidates_per_step": ratio(
            tracer.stat("engine.FastCore.candidate_energies").items, step.calls
        ),
        "engine.init_s": secs("engine.FastCore.__init__"),
        "engine.columns_calls": per_op("engine.FastCore.columns", "calls"),
        "engine.columns_s": secs("engine.FastCore.columns"),
        "engine.record_arrival_calls": per_op("engine.FastCore.record_arrival", "calls"),
        "engine.record_arrival_s": secs("engine.FastCore.record_arrival"),
        "sim.run_s": secs("sim.run"),
        "sim.self_s": run.self_ns / n / 1e9,
        "sim.self_us_per_request": ratio(run.self_ns / 1e3, requests),
        "sim.requests": op0.requests,
        "sim.slots": op0.slots,
        "sim.hit_ratio": ratio(op0.hits, op0.requests),
        "sim.snapshots": op0.snapshots,
        "sim.distinct_real_configs": op0.real_configs,
        "sim.distinct_virtual_configs": op0.virtual_configs,
        "sim.trace_bytes": len(pickle.dumps(op0.trace)) if op0.trace is not None else 0,
        "config.build_s": setup_tracer.stat("config.build_config").total_ns / builds / 1e9,
        "geometry.build_s": sum(
            setup_tracer.stat(f"geometry.{f}").total_ns
            for f in ("from_intervals", "from_discs", "from_segments")
        )
        / builds
        / 1e9,
        "oracle.gate_s": setup_tracer.edges[("config.build_config", "oracle.enumerate_optimal")]
        / builds
        / 1e9,
        "oracle.enumerate_optimal_s": secs("oracle.enumerate_optimal"),
        "oracle.states_per_s": ratio(
            enum.calls * workload.enum_states, enum.total_ns / 1e9
        ),
        "gibbs.expected_hit_rate_s": secs("gibbs.expected_hit_rate"),
        "gibbs.stationary_distribution_s": secs("gibbs.stationary_distribution"),
        "gibbs.transition_matrix_s": secs("gibbs.transition_matrix"),
        "gibbs.conditional_distribution_calls": per_op("gibbs.conditional_distribution", "calls"),
        "model.hit_rate_calls": per_op("model.hit_rate", "calls"),
        "model.hit_rate_us_p50": percentile_us(tracer.stat("model.hit_rate").durations, 0.50),
        "model.local_energy_calls": per_op("model.local_energy", "calls"),
        "realcache.on_request_calls": per_op("realcache.on_request", "calls"),
        "realcache.refresh_snapshot_calls": per_op("realcache.refresh_snapshot", "calls"),
        "traffic.next_request_calls": per_op("traffic.next_request", "calls"),
        "traffic.assign_server_calls": per_op("traffic.assign_server", "calls"),
        # traffic.observe only delegates to RateEstimates.observe.
        "traffic.observe_calls": per_op("traffic.RateEstimates.observe", "calls"),
        "trace.overhead_frac": statistics.median(o.scaled_seconds for o in traced)
        / statistics.median(o.scaled_seconds for o in plain)
        - 1.0,
        "trace.peak_traced_mb": traced_mb(held),
    }
    return out


def traced_mb(traces) -> float:
    """Python heap the held traces take: tracemalloc peak while loading
    their pickle.

    Tracing allocations during the simulation itself slows it about 30x,
    so the traced run measures the result the simulation leaves behind.
    """
    if not traces:
        return 0.0
    blob = pickle.dumps(traces)
    tracemalloc.start()
    try:
        pickle.loads(blob)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gibbscache" / "__init__.py").is_file():
        print(
            f"error: {src / 'gibbscache'} not found; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gibbscache
    import numpy
    from tracer import Tracer
    from workloads import WORKLOADS, digest_of

    workload = WORKLOADS[args.workload](ROOT, args.size == "tiny")
    traced_run = bool(args.trace)

    # Set-up: blocks of setup_batch builds of the inputs; the median over
    # blocks of the time per build is reported.
    setup_tracer = Tracer(gibbscache)
    setup_times = []
    for _ in range(workload.setup_reps):
        pygc.collect()
        if traced_run:
            setup_tracer.install()
        before = reference_loop()
        t0 = time.perf_counter()
        for _ in range(workload.setup_batch):
            inputs = workload.setup()
        seconds = (time.perf_counter() - t0) / workload.setup_batch
        setup_tracer.remove()
        setup_times.append(seconds * host_scale(before, reference_loop()))

    # Timed phase: operations back to back until the time is used up.  The
    # traces of the first quality_ops operations stay alive until the end,
    # as a caller collecting replications would keep them, so that their
    # size shows in peak_rss_mb.
    tracer = Tracer(gibbscache, keep_durations=PERCENTILE_SPANS)
    plain, traced, errors = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        seed = op_seed(args.seed, r)
        pygc.collect()
        res = run_op(workload, inputs, seed)
        if r >= workload.quality_ops:
            res.trace = None
        plain.append(res)
        errors += [f"op {r} (seed {seed}): {e}" for e in res.errors]
        if traced_run:
            pygc.collect()
            tracer.run_id = r
            res_t = run_op(workload, inputs, seed, tracer)
            res_t.trace = None
            if not res_t.failed and res_t.digest != res.digest:
                res_t.failed = res_t.calls
                res_t.errors.append("tracing changed the trace digest")
            traced.append(res_t)
            errors += [f"traced op {r} (seed {seed}): {e}" for e in res_t.errors]
        r += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / r
        if r >= workload.quality_ops and elapsed + per_round > args.seconds:
            break

    # Before the audit, whose request log is not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(o.calls for o in plain + traced)
    failed = sum(o.failed for o in plain + traced)
    digests = [o.digest for o in plain[: workload.quality_ops]]
    if workload.kind == "sim" and plain[0].trace is not None:
        pygc.collect()
        audit_errors = workload.audit(inputs, op_seed(args.seed, 0), plain[0].digest)
        attempted += 1
        if audit_errors:
            failed += 1
            errors += [f"audit (seed {op_seed(args.seed, 0)}): {e}" for e in audit_errors]

    if traced_run:
        metrics = per_layer(workload, setup_tracer, tracer, plain, traced)
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, setup_times, plain, peak_rss_mb)
        units = END_TO_END

    run_digest = digest_of(digests)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain) + len(traced)} operations ({attempted} calls), {failed} failed")
    print(f"trace digest {args.workload} seed {args.seed}: {run_digest}")
    for e in errors:
        print(f"  FAILED {e}")
    print(f"  {'error_rate':34s} {ratio(failed, attempted):.6g} ratio")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "digest": run_digest,
        "op_digests": digests,
        "op_host_seconds": [o.seconds for o in plain],
        "op_scaled_seconds": [o.scaled_seconds for o in plain],
        "traced_op_host_seconds": [o.seconds for o in traced],
        "traced_op_scaled_seconds": [o.scaled_seconds for o in traced],
        "setup_scaled_seconds": setup_times,
        "errors": errors,
        "metrics": metrics,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced_run:
        tracer.write(out_dir / f"{stem}-spans.jsonl")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
