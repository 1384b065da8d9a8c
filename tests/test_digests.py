"""Golden digests of short runs: every trace's bits, pinned.

Each case hashes a ``SimTrace``'s windowed aggregates, final states,
snapshots, memoized hit rates and estimator, floats as ``float.hex``, or
one ``run_chain`` call's samples, occupancy and final state, and compares
the hash with ``digests.json``.  A pin changes only in a diff that says
why.  The exact tools are not pinned by bits: ``np.exp`` rounds
differently on different SIMD loops, so their last bits depend on the CPU.

Regenerate the file with ``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

import gibbscache as gc

DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = (1, 2)

LINE2 = {"intervals": [[0, 6], [1, 10]]}
ANNEALED = {"mode": "annealed", "beta0": 1.0}
HEX7_CENTERS = [[0.0, 0.0]] + [
    [1.6 * math.cos(math.pi / 3 * k), 1.6 * math.sin(math.pi / 3 * k)] for k in range(6)
]


def _line2(gibbs, traffic, horizon=50_000):
    return {
        "topology": LINE2,
        "catalog": {"intensities": [0.055, 0.045]},
        "cache": {"capacity": 1},
        "gibbs": gibbs,
        "schedule": {"kind": "linear", "t1": 10.0},
        "traffic": traffic,
        "sim": {"horizon": horizon, "slot_spacing": 1.0, "n_windows": 12},
    }


RUNS = {
    "line2-anneal-shared": _line2(
        {**ANNEALED, "learning": True}, {"eta": 0.0, "estimator": {"scope": "shared"}}
    ),
    "line2-local": _line2(
        {**ANNEALED, "learning": True}, {"eta": 0.1, "estimator": {"scope": "local"}}
    ),
    "line2-fixed": _line2({"mode": "fixed", "beta": 2.0}, {"eta": 0.0}),
    "hex7": {
        "topology": {"discs": {"centers": HEX7_CENTERS, "radii": [1.0] * 7, "grid_step": 0.05}},
        "catalog": {"intensities": [10 / i for i in range(1, 9)]},
        "cache": {"capacity": 2},
        "gibbs": {"mode": "fixed", "beta": 0.1},
        "traffic": {"eta": 0.01},
        "sim": {"horizon": 10},
    },
    "line3-stores": {
        "topology": {"intervals": [[0, 6], [1, 10], [8, 15]]},
        "catalog": {"intensities": [0.1 / i for i in range(1, 7)]},
        "cache": {"capacity": 3},
        "gibbs": {"mode": "fixed", "beta": 0},
        "schedule": {"kind": "linear", "t1": 0.05},
        "traffic": {"eta": 0.05},
        "sim": {"horizon": 800.0, "slot_spacing": 0.5},
    },
    "line30": {
        "topology": {"intervals": [[3 * j, 3 * j + 5] for j in range(30)]},
        "catalog": {"intensities": [0.1 / i for i in range(1, 31)]},
        "cache": {"capacity": 3},
        "gibbs": {"mode": "fixed", "beta": 5.0},
        "traffic": {"eta": 0.01},
        "sim": {"horizon": 10},
    },
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def trace_digest(trace: gc.SimTrace) -> str:
    """The bits of a trace's aggregates, final states, snapshots, memoized
    hit rates and estimator."""
    return _digest(
        trace.hits,
        trace.misses,
        [x.hex() for x in trace.h_integral],
        [sorted((k, v.hex()) for k, v in w.items()) for w in trace.real_occ],
        [sorted(c.items()) for c in trace.v_counts],
        sorted((k, v.hex()) for k, v in trace.hit_rates.items()),
        trace.n_slots,
        trace.beta_final.hex(),
        trace.final_virtual,
        trace.final_real,
        [(t.hex(), k) for t, k in trace.snapshots],
        [(e.content, e.segment, e.count, e.theta.hex()) for e in trace.estimator],
    )


def chain_digest(seed: int) -> str:
    """``run_chain`` on line2 at M = 4, K = 2 (6 contexts, the block path),
    annealed, sampled on both sides of block edges."""
    top = gc.from_intervals(LINE2["intervals"])
    cat = gc.ContentCatalog((0.04, 0.03, 0.02, 0.01))
    record_at = {1, 1023, 1024, 1025, 2047, 2048, 2049, 3000, 4999, 5000}
    samples, occupancy, final = gc.run_chain(
        top, cat, 2, gc.GibbsParams(**ANNEALED), 5000, seed, record_at=record_at
    )
    return _digest(sorted(samples.items()), sorted(occupancy.items()), final)


def compute() -> dict[str, str]:
    pins = {}
    for name, data in RUNS.items():
        cfg = gc.build_config(data)
        for seed in SEEDS:
            pins[f"{name}/{seed}"] = trace_digest(gc.run(cfg, seed=seed))
    for seed in SEEDS:
        pins[f"run_chain/{seed}"] = chain_digest(seed)
    return pins


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(RUNS))
def test_run(name, seed, pinned):
    trace = gc.run(gc.build_config(RUNS[name]), seed=seed)
    assert trace_digest(trace) == pinned[f"{name}/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_run_chain(seed, pinned):
    assert chain_digest(seed) == pinned[f"run_chain/{seed}"]


def test_every_pin_is_tested(pinned):
    assert set(pinned) == {f"{n}/{s}" for n in [*RUNS, "run_chain"] for s in SEEDS}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1) + "\n")
