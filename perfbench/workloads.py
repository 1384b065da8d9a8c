"""Benchmark workloads: fixed instances, one timed operation each, and the
output checks every operation goes through.

``calls`` lists the package calls of one operation, which the runner
times (and traces) one by one; ``result`` checks their output and reads
the figures afterwards.  A call that raised maps to its exception.

A simulation operation is one ``gibbscache.run`` replication at a fixed
horizon.  The exact-tools operation is one pass over the calls that the
``optimal``/``sweep-beta`` commands and the exact acceptance criteria make.
Operations are closed-loop: each starts when the previous one has ended.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import gibbscache as gc

OCC_REL_TOL = 1e-9  # real occupancy against the horizon, relative
HIT_TOL = 1e-12  # memoized hit rates against model.hit_rate, relative above 1
PROB_TOL = 1e-10  # distributions sum to 1; pi P = pi


@dataclass
class OpResult:
    """Outcome of one operation; the timing covers only the package calls."""

    calls: int = 1  # package calls (replications or exact-tool calls) made
    failed: int = 0
    errors: list = field(default_factory=list)
    slots: int = 0
    requests: int = 0
    hits: int = 0
    snapshots: int = 0
    real_configs: int = 0
    virtual_configs: int = 0
    hit_rate_final: float = 0.0
    digest: str = ""
    trace: object = None  # the SimTrace; the runner keeps only a few
    states: int = 0  # exact: configurations evaluated
    updates: int = 0  # exact: single-site conditional laws computed
    seconds: float = 0.0  # host seconds of the package calls
    scaled_seconds: float = 0.0  # the same at the reference host speed


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def trace_digest(trace) -> str:
    """Bit-exact fingerprint of a trace's windows, final states and snapshots."""
    return digest_of(
        trace.hits,
        trace.misses,
        [x.hex() for x in trace.h_integral],
        [sorted((k, v.hex()) for k, v in w.items()) for w in trace.real_occ],
        [sorted(c.items()) for c in trace.v_counts],
        trace.n_slots,
        trace.final_virtual,
        trace.final_real,
        [(t.hex(), k) for t, k in trace.snapshots],
    )


def check_trace(trace, cfg) -> list[str]:
    """Consistency of one trace; returns the failed checks, empty if none."""
    errors = []
    occ = math.fsum(v for w in trace.real_occ for v in w.values())
    if abs(occ - trace.horizon) > OCC_REL_TOL * trace.horizon:
        errors.append(f"real occupancy sums to {occ!r}, horizon is {trace.horizon!r}")
    n_virtual = sum(sum(c.values()) for c in trace.v_counts)
    if n_virtual != trace.n_slots:
        errors.append(f"virtual counts sum to {n_virtual}, n_slots is {trace.n_slots}")
    if any(x < 0 for x in trace.hits + trace.misses):
        errors.append("negative hit or miss count")
    if trace.events is not None:
        hits = [0] * trace.n_windows
        misses = [0] * trace.n_windows
        for tau, _, _, _, action in trace.events:
            w = min(int(tau / trace.window_len), trace.n_windows - 1)
            (hits if action == "hit" else misses)[w] += 1
        if len(trace.events) != trace.total_hits + trace.total_misses:
            errors.append(
                f"hits + misses = {trace.total_hits + trace.total_misses}, "
                f"requests = {len(trace.events)}"
            )
        elif (hits, misses) != (trace.hits, trace.misses):
            errors.append("per-window hits/misses disagree with the request log")
    top, cat, k = cfg.topology, cfg.catalog, cfg.cache_size
    for key, h in trace.hit_rates.items():
        placement = gc.Placement.from_columns(cat.m_contents, key, k, strict=False)
        ref = gc.hit_rate(top, cat, placement)
        if abs(h - ref) > HIT_TOL * max(1.0, abs(ref)):
            errors.append(f"hit rate of {key} is {h!r}, model gives {ref!r}")
            break
    return errors


# -- simulation workloads -----------------------------------------------------


@dataclass
class SimWorkload:
    """One ``gibbscache.run`` replication per operation."""

    data: dict  # experiment config, as a parsed JSON document
    quality_ops: int  # first operations, always run: hit_rate_final and the digest
    setup_reps: int  # timed blocks of set-up
    setup_batch: int  # builds per block, so that a block takes over 10 ms
    kind = "sim"
    enum_states = 0  # no exact enumeration in the timed phase

    def setup(self):
        return gc.build_config(self.data)

    def calls(self, cfg, seed: int):
        # Looked up at call time, so that a traced run sees the wrapper.
        return [("run", lambda: gc.run(cfg, seed=seed))]

    def result(self, cfg, values: dict) -> OpResult:
        trace = values["run"]
        if isinstance(trace, Exception):
            return OpResult(failed=1, errors=[f"raised {trace!r}"])
        errors = check_trace(trace, cfg)
        return OpResult(
            failed=1 if errors else 0,
            errors=errors,
            slots=trace.n_slots,
            requests=trace.total_requests,
            hits=trace.total_hits,
            snapshots=len(trace.snapshots),
            real_configs=len(trace.hit_rates),
            virtual_configs=len(set().union(*trace.v_counts)),
            hit_rate_final=trace.time_average_hit_rate(2 / 3, 1.0),
            digest=trace_digest(trace),
            trace=trace,
        )

    def audit(self, cfg, seed: int, digest: str) -> list[str]:
        """Re-run one replication with the request log on and check the
        aggregates against it; logging must leave the trace unchanged."""
        trace = gc.run(dataclasses.replace(cfg, record_events=True), seed=seed)
        errors = check_trace(trace, cfg)
        if trace_digest(trace) != digest:
            errors.append("recording the request log changed the trace")
        return errors


def _line2_anneal(root: Path, tiny: bool) -> SimWorkload:
    data = json.loads((root / "configs" / "two_station_line.json").read_text())
    data["gibbs"] = {"mode": "annealed", "beta0": 1.0, "learning": True}
    data["traffic"] = {"eta": 0.0, "estimator": {"scope": "shared"}}
    # A quarter of the shipped horizon keeps one replication under a second,
    # so each run times many of them.
    data["sim"]["horizon"] = 5_000 if tiny else 50_000
    return SimWorkload(data, quality_ops=4, setup_reps=20, setup_batch=50)


def _line30_sampler(root: Path, tiny: bool) -> SimWorkload:
    m = 8 if tiny else 30
    data = {
        "topology": {"intervals": [[3 * j, 3 * j + 5] for j in range(30)]},
        "catalog": {"intensities": [0.1 / i for i in range(1, m + 1)]},
        "cache": {"capacity": 3},
        "gibbs": {"mode": "fixed", "beta": 5.0},
        "traffic": {"eta": 0.01},
        "sim": {"horizon": 20 if tiny else 100},
    }
    return SimWorkload(data, quality_ops=20, setup_reps=20, setup_batch=50)


def _hex7_requests(root: Path, tiny: bool) -> SimWorkload:
    centers = [[0.0, 0.0]] + [
        [1.6 * math.cos(math.pi / 3 * k), 1.6 * math.sin(math.pi / 3 * k)] for k in range(6)
    ]
    data = {
        "topology": {
            "discs": {"centers": centers, "radii": [1.0] * 7, "grid_step": 0.05 if tiny else 0.01}
        },
        "catalog": {"intensities": [10 / i for i in range(1, 9)]},
        "cache": {"capacity": 2},
        "gibbs": {"mode": "fixed", "beta": 0.1},
        "traffic": {"eta": 0.01},
        "sim": {"horizon": 20 if tiny else 600},
    }
    return SimWorkload(data, quality_ops=16, setup_reps=5, setup_batch=1)


# -- exact tools --------------------------------------------------------------

EXACT_INTERVALS = ((0, 6), (1, 10), (8, 15))
EXACT_BETAS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
EXACT_K = 2  # cache size of both exact instances


@dataclass
class ExactWorkload:
    """One pass over the exact tools per operation.

    On M = 6, K = 2 (3,375 states): ``enumerate_optimal``, then
    ``expected_hit_rate`` at every beta of the ladder, in a seed-shuffled
    order.  On M = 4, K = 2 (216 states): ``transition_matrix`` and
    ``stationary_distribution`` at beta = 2.
    """

    m_large: int
    m_small: int
    setup_reps: int
    setup_batch: int
    quality_ops = 1
    kind = "exact"

    @property
    def enum_states(self) -> int:
        """Configurations one ``enumerate_optimal`` call scans."""
        return math.comb(self.m_large, EXACT_K) ** len(EXACT_INTERVALS)

    def setup(self):
        top = gc.from_intervals(list(EXACT_INTERVALS))
        large = gc.ContentCatalog(tuple(0.1 / i for i in range(1, self.m_large + 1)))
        small = gc.ContentCatalog(tuple(0.1 / i for i in range(1, self.m_small + 1)))
        return top, large, small

    def calls(self, inputs, seed: int):
        top, large, small = inputs
        k = EXACT_K
        betas = list(EXACT_BETAS)
        random.Random(seed).shuffle(betas)
        # Package functions are looked up at call time, so that a traced run
        # sees the wrappers.
        calls = [("enumerate_optimal", lambda: gc.enumerate_optimal(top, large, k))]
        calls += [
            (f"expected_hit_rate@{b:g}", lambda b=b: gc.expected_hit_rate(top, large, k, b))
            for b in betas
        ]
        return calls + [
            ("transition_matrix", lambda: gc.transition_matrix(top, small, k, 2.0)),
            ("stationary_distribution", lambda: gc.stationary_distribution(top, small, k, 2.0)),
        ]

    def result(self, inputs, values: dict) -> OpResult:
        top, large, small = inputs
        k = EXACT_K
        errors = {label: f"raised {v!r}" for label, v in values.items() if isinstance(v, Exception)}
        values = {label: v for label, v in values.items() if label not in errors}
        report = values.get("enumerate_optimal")
        if report is not None:
            best = gc.Placement.from_columns(large.m_contents, report.argmax[0], k)
            h_best = gc.hit_rate(top, large, best)
            if not report.h_min <= report.h_max or abs(h_best - report.h_max) > HIT_TOL:
                errors["enumerate_optimal"] = f"inconsistent report {report}"
        rates = [(b, values.get(f"expected_hit_rate@{b:g}")) for b in EXACT_BETAS]
        lower = -math.inf
        for b, v in rates:
            if v is None:
                continue
            if report is not None and v > report.h_max + HIT_TOL:
                errors[f"expected_hit_rate@{b:g}"] = f"{v!r} exceeds h_max {report.h_max!r}"
            elif not v > lower:
                errors[f"expected_hit_rate@{b:g}"] = f"{v!r} does not rise with beta"
            lower = max(lower, v)
        dist = values.get("stationary_distribution")
        if dist is not None and abs(math.fsum(dist.values()) - 1.0) > PROB_TOL:
            errors["stationary_distribution"] = "does not sum to 1"
        matrix = values.get("transition_matrix")
        if matrix is not None:
            states, P = matrix
            if abs(P.sum(axis=1) - 1.0).max() > PROB_TOL:
                errors["transition_matrix"] = "rows do not sum to 1"
            elif dist is not None and "stationary_distribution" not in errors:
                pi = [dist[s] for s in states]
                if abs(pi @ P - pi).max() > PROB_TOL:
                    errors["transition_matrix"] = "pi P differs from pi"

        n_large = math.comb(large.m_contents, k) ** top.n_bs
        n_small = math.comb(small.m_contents, k) ** top.n_bs
        top_rate = values.get(f"expected_hit_rate@{EXACT_BETAS[-1]:g}")
        return OpResult(
            failed=len(errors),
            errors=[f"{label}: {msg}" for label, msg in sorted(errors.items())],
            hit_rate_final=top_rate if top_rate is not None else 0.0,
            digest=digest_of(
                report and (report.argmax, report.h_max.hex(), report.h_min.hex()),
                [(b, v.hex() if v is not None else None) for b, v in rates],
                matrix and hashlib.sha256(matrix[1].tobytes()).hexdigest(),
                dist and sorted((s, p.hex()) for s, p in dist.items()),
            ),
            # enumerate + each beta's law + transition rows + stationary law
            states=n_large * (1 + len(EXACT_BETAS)) + 2 * n_small,
            updates=n_small * top.n_bs,
        )


def _exact_3bs(root: Path, tiny: bool) -> ExactWorkload:
    return ExactWorkload(
        m_large=4 if tiny else 6, m_small=3 if tiny else 4, setup_reps=20, setup_batch=200
    )


WORKLOADS = {
    "line2-anneal": _line2_anneal,
    "line30-sampler": _line30_sampler,
    "hex7-requests": _hex7_requests,
    "exact-3bs": _exact_3bs,
}
