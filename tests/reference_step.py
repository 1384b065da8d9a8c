"""``FastCore.step`` evaluated in Python floats, one operation per gain term
and per table cell: the oracle that the array step is pinned to, bit for
bit (``tests/test_engine.py::TestArrayStep``,
``tests/test_sim.py::TestRunInvariance``)."""

from __future__ import annotations

import math

from gibbscache.engine import _lex_sample


def gains(core, j0: int, now: float = 0.0) -> list[float]:
    """Rate ``g[i]`` that content ``i`` (0-based) adds to the local energy
    of station ``j0`` (0-based): the sum of its rates over the segments of
    ``j0`` where no other station stores it, in segment order.  Exact or
    estimated rates are picked once per segment, and an estimate,
    ``(count * scale + c0) * (1 / (now + t0))``, is computed only where it
    adds to g.
    """
    m = core.m
    masks = core.masks
    g = [0.0] * m
    est = core.estimator
    if est is not None:
        table = core.est_counts[j0 if core.local else 0].tolist()
        scales = core.est_scale.tolist()
        inv = 1.0 / (now + est.t0)
        c0 = est.c0
    for q, others in core.neighbours[j0]:
        held = 0  # what the other stations of segment q store
        for j in others:
            held |= masks[j]
        if est is None:
            w = core.true_rates[q]
            for i in range(m):
                if not held >> i & 1:
                    g[i] += w[i]
        else:
            n = table[q]
            scale = scales[q]
            for i in range(m):
                if not held >> i & 1:
                    g[i] += (n[i] * scale + c0) * inv
    return g


def suffix_table(a: list[float], k: int) -> list[list[float]]:
    """Levels 1 to K, ``E[r - 1]`` for level r, of ``E(s, r) = log
    e_r(exp(a[s]), ..., exp(a[m-1]))``, the log of the elementary symmetric
    polynomial of degree r, kept in log space so that it stays finite at any
    beta.  Level r lists E(s, r) from s = m - r down to 0: ``E[r - 1][m - r
    - s]``, the format of ``blocks._array_table``.  This is the
    conditional-Poisson design of Chen, Dempster & Liu, "Weighted finite
    population sampling to maximize entropy", Biometrika 1994.

    ``E(s, 0) = 0``, ``E(m-r, r) = a[m-r] + E(m-r+1, r-1)`` and, below,
    ``E(s, r) = logaddexp(E(s+1, r), a[s] + E(s+1, r-1))``.
    """
    exp, log1p = math.exp, math.log1p
    m = len(a)
    prev = [0.0] * (m + 1)
    table = [prev]
    for r in range(1, k + 1):
        x = a[m - r] + prev[0]
        row = [x]
        for s in range(m - r - 1, -1, -1):
            y = a[s] + prev[m - r - s]
            x = x + log1p(exp(y - x)) if x > y else y + log1p(exp(x - y))
            row.append(x)
        table.append(row)
        prev = row
    return table[1:]


def step(core, j0: int, beta: float, u: float, now: float = 0.0) -> tuple[int, ...]:
    """``FastCore.step`` from :func:`gains` and :func:`suffix_table`,
    writing the core's state as the step does."""
    a = [beta * x for x in gains(core, j0, now)]
    new = _lex_sample(a, core.k, u, suffix_table(a, core.k))
    key = core._key
    if new != key[j0]:
        new = core._interned.setdefault(new, new)
        core.masks[j0] = sum(1 << (i - 1) for i in new)
        core._key = (*key[:j0], new, *key[j0 + 1:])
    return core._key[j0]
