"""Virtual-cache Gibbs sampler: conditional column sampling, annealing
schedule, exact stationary distribution, and small-instance diagnostics.

The single-site update resamples one station's cache column from the
conditional distribution whose exponent is the local (neighbor- and
segment-restricted) hit rate, by inverse CDF over the lexicographic K-subsets
of the catalog, as :func:`state_masks` lists them.  :func:`gibbs_step` maps a
placement and a slot index to the next placement; it is the readable
reference and test oracle, and ``engine.FastCore`` samples the same law
without enumeration.

The exact tools enumerate every configuration.  :func:`state_rates` is their
one scan of hit rates.  The hit rate is a sum of segment terms, ``area_s *
rate(union of the masks of s's stations)``, so the scan adds one table per
segment, over the columns of that segment's stations only, broadcast over
the other stations, in the canonical segment order: every state gets the
additions of ``model.mask_hit_rate`` in its order, and the floats of
``model.hit_rate``.  A union's rate depends on its columns alone, so each
scan builds one table per segment size from the candidate columns' content
ids: the column rates, the c x c pair-union rates, and for three or more
stations the rates of their distinct unions.  The transition kernels of the
sampler are read from the scan too (:func:`transition_matrices`).

Every sum here is a left fold, whose bits do not depend on the Python
version (``sum()`` of floats compensates from Python 3.12 on): a union's
rate adds its intensities in content order, as ``model.UnionRates`` does,
and :func:`expected_hit_rates` takes the last running sum of
``np.add.accumulate`` over weight * rate in state order.  The weights are
``np.exp``'s, whose SIMD loops round differently, so exact values may differ
in their last bits between CPUs; simulation traces do not (they map ``math``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import CapacityError
from .geometry import CellTopology
from .model import ContentCatalog, Placement, local_energy
from .model import hit_rate  # noqa: F401  perfbench's tracer test checks this binding

# Exact computations are gated so tests stay desk-scale; the sampler itself
# has no catalog-size limit.
STATE_ENUM_LIMIT = 1_000_000  # configurations, or one station's candidate columns
SCAN_BLOCK = 1 << 16  # segment-table entries per block of the state scan (at least one row)


def check_beta(beta: float) -> float:
    """``beta`` if it is a finite number >= 0; else ``ValueError`` naming it."""
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be a finite number >= 0, got {beta!r}")
    return beta


def check_beta0(beta0: float) -> float:
    """``beta0`` if it is a finite number > 0; else ``ValueError`` naming it."""
    if not 0 < beta0 < math.inf:
        raise ValueError(f"beta0 must be a finite number > 0, got {beta0!r}")
    return beta0


@dataclass(frozen=True)
class GibbsParams:
    """Sampler parameters; ``beta`` for fixed mode, ``beta0`` for annealed."""

    mode: Literal["fixed", "annealed"] = "fixed"
    beta: float = 1.0
    beta0: float = 1.0

    def __post_init__(self):
        if self.mode not in ("fixed", "annealed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fixed":
            check_beta(self.beta)
        else:
            check_beta0(self.beta0)

    def period_betas(self, p0: int, p1: int) -> np.ndarray:
        """Beta of N-slot periods p0 .. p1 - 1: ``beta``, or annealed ``beta0 *
        ln(1 + p)``, ``math.log`` mapped (``np.log`` rounds by SIMD loop)."""
        if self.mode == "fixed":
            return np.full(p1 - p0, self.beta, float)
        return np.fromiter(map(math.log, range(1 + p0, 1 + p1)), float, p1 - p0) * self.beta0

    def beta_at(self, t: int, n_bs: int) -> float:
        return float(self.period_betas(t // n_bs, t // n_bs + 1)[0])


def conditional_distribution(
    top: CellTopology,
    cat: ContentCatalog,
    V: Placement,
    j: int,
    beta: float,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Gibbs conditional over the K-subset columns for station ``j``.

    Returns the lexicographic candidate list (:func:`state_masks` of one
    station) and their probabilities, weighted as the exact tools weight
    states, so large ``beta * energy`` values cannot overflow.
    """
    cands, _ = state_masks(cat.m_contents, 1, V.cache_size)
    energies = np.array([local_energy(top, cat, V.with_column(j, c), j) for c in cands])
    return cands, _gibbs_weights(energies, beta)


def gibbs_step(
    V: Placement,
    t: int,
    params: GibbsParams,
    top: CellTopology,
    cat: ContentCatalog,
    bs_rng: random.Random,
    col_rng: random.Random,
) -> Placement:
    """Update slot ``t`` (0-based) of Algorithm-style single-site sampling.

    Picks a station uniformly (from ``bs_rng``), resamples its column at
    ``params.beta_at(t)`` by inverse CDF over the lexicographic candidates
    (from ``col_rng``), and returns the new placement.
    """
    j = bs_rng.randrange(top.n_bs) + 1
    cands, probs = conditional_distribution(top, cat, V, j, params.beta_at(t, top.n_bs))
    # The first column whose running sum of probabilities exceeds u, else the last.
    i = np.searchsorted(np.cumsum(probs), col_rng.random(), side="right")
    return V.with_column(j, cands[min(i, len(cands) - 1)])


def anneal_beta(beta0: float, t: int, n_bs: int) -> float:
    """Logarithmic cooling: beta_t = beta0 * ln(1 + floor(t / N)).

    Constant within each N-slot period; zero during the first period.
    """
    return GibbsParams("annealed", beta0=beta0).beta_at(t, n_bs)


@dataclass(frozen=True)
class Beta0Check:
    """Outcome of the annealing admissibility check."""

    ok: bool
    violations: tuple[str, ...]
    max_admissible: float


def validate_beta0(
    beta0: float, delta: float, h_max: float, n_bs: int
) -> Beta0Check:
    """Check ``beta0 * N * delta < 1`` and ``beta0 * h_max < 1`` (strict).

    ``delta`` is the hit-rate spread (max - min) over all feasible
    placements and ``h_max`` the maximum hit rate; both come from the
    brute-force oracle.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if h_max <= 0:
        raise ValueError("h_max must be > 0")
    violations = []
    if beta0 * n_bs * delta >= 1:
        violations.append(
            f"beta0 * N * delta = {beta0 * n_bs * delta:.6g} >= 1"
        )
    if beta0 * h_max >= 1:
        violations.append(f"beta0 * max hit rate = {beta0 * h_max:.6g} >= 1")
    bounds = [1.0 / h_max]
    if delta > 0:
        bounds.append(1.0 / (n_bs * delta))
    return Beta0Check(
        ok=not violations,
        violations=tuple(violations),
        max_admissible=min(bounds),
    )


StateKey = tuple[tuple[int, ...], ...]


def state_masks(
    m_contents: int, n_bs: int, cache_size: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Candidate columns, the K-subsets of the content ids in lexicographic
    order, and their content bitmasks (bit ``i - 1`` set iff content ``i`` is
    stored), after gating the number of configurations C(M, K)**n_bs."""
    c, states = math.comb(m_contents, cache_size), 1
    for _ in range(n_bs):  # multiplied out only up to the limit
        states *= c
        if states > STATE_ENUM_LIMIT:
            # Python prints no int of over 4,300 digits: give such a C(M,K) as a power of ten.
            count = f"{c}**{n_bs}" if math.log10(c) < 4300 else (
                f"C({m_contents},{cache_size})**{n_bs} ~ 10^{n_bs * math.log10(c):.1f}")
            raise CapacityError(
                f"{count} configurations exceed enumeration limit {STATE_ENUM_LIMIT}")
    bits = [1 << i for i in range(m_contents)]
    cands = list(itertools.combinations(range(1, m_contents + 1), cache_size))
    return cands, list(map(sum, itertools.combinations(bits, cache_size)))


def _union_rates(lam: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Rate of the union of each row of ``left`` with each row of ``right``
    (content ids; ``lam[0]`` is 0.0), in blocks of about ``SCAN_BLOCK``
    unions: a union's ids are sorted, an id equal to the one before it is
    replaced by 0, and their intensities are added left to right, so every
    entry is the fold of ``model.UnionRates`` (x + 0.0 == x)."""
    k = left.shape[1]
    table = np.empty((len(left), len(right)))
    rows = max(1, SCAN_BLOCK // len(right))
    # Ids on the first axis: (position in the union, row of left, row of right).
    heads, tails = left.T[:, :, None], right.T[:, None]
    for a in range(0, len(left), rows):
        out = table[a : a + rows]
        ids = np.empty((k + len(tails), *out.shape), dtype=np.intp)
        ids[:k] = heads[:, a : a + rows]
        ids[k:] = tails
        ids.sort(axis=0)
        np.copyto(ids[1:], 0, where=ids[1:] == ids[:-1])
        terms = lam[ids]
        np.add(terms[0], terms[1], out=out)
        for term in terms[2:]:
            out += term
    return table


def state_rates(
    top: CellTopology, cat: ContentCatalog, cache_size: int
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Candidate columns and the hit rate of every state, in the order of
    ``product(cands, repeat=N)``, 8 bytes per state.

    Segment s adds ``area_s * rate(union of its stations' masks)`` to every
    state.  A union's rate depends on the columns alone, so one table per
    segment size serves every segment of that size: the column rates for one
    station, the c x c pair-union rates for two, and for more the rates over
    (first station's column, number of the union of the others), the
    distinct unions numbered one station at a time.  Each rate adds the
    union's intensities left to right in content order (``model.UnionRates``),
    the same bits on every Python.  A segment's terms are gathered in blocks
    of the first station's columns, broadcast over the stations outside s and
    added to the states.
    """
    cands, masks = state_masks(cat.m_contents, top.n_bs, cache_size)
    n, c = top.n_bs, len(cands)
    lam = np.array((0.0, *cat.intensities))
    cols = np.array(cands, dtype=np.intp)
    terms = lam[cols]
    for i in range(1, cache_size):
        terms[:, :1] += terms[:, i : i + 1]
    tables = {1: (0, terms[:, :1])}  # per segment size: union numbers, rates
    # The unions of 1, 2, ... stations: their masks, the union number of each
    # column tuple, and their content ids, those of the union and the column
    # that first made them.  One station's columns number themselves.
    others = [(masks, slice(None), cols)]
    rates = np.zeros(c**n)
    grid = rates.reshape((c,) * n)
    for s, area in top.segment_areas.items():
        while len(others) < len(s) - 1:
            unions, ids, members = others[-1]
            index: dict[int, int] = {}
            numbers = np.array([index.setdefault(u | b, len(index)) for u in unions for b in masks])
            # A new union takes the next number: where the running maximum first reaches it.
            made = np.maximum.accumulate(numbers).searchsorted(np.arange(len(index)))
            members = np.concatenate((members[made // c], cols[made % c]), axis=1)
            others.append((list(index), numbers.reshape(-1, c)[ids], members))
        if len(s) not in tables:
            _, ids, members = others[len(s) - 2]
            tables[len(s)] = ids, _union_rates(lam, cols, members)
        ids, table = tables[len(s)]
        first = min(s)
        shape = [-1] + [c if j in s else 1 for j in range(first + 1, n + 1)]
        lead = (slice(None),) * (first - 1)
        rows = max(1, SCAN_BLOCK // c ** (len(s) - 1))
        for a in range(0, c, rows):
            block = grid[lead + (slice(a, a + rows),)]
            block += (area * table[a : a + rows])[:, ids].reshape(shape)
    return cands, rates


def _gibbs_weights(rates: np.ndarray, beta: float) -> np.ndarray:
    """exp(beta * h) / Z over ``rates``, the maximum exponent subtracted."""
    weights = check_beta(beta) * rates
    weights -= weights.max()
    np.exp(weights, out=weights)
    weights /= weights.sum()
    return weights


def stationary_distribution(
    top: CellTopology, cat: ContentCatalog, cache_size: int, beta: float
) -> dict[StateKey, float]:
    """Exact Gibbs distribution exp(beta * h(B)) / Z by full enumeration."""
    cands, rates = state_rates(top, cat, cache_size)
    states = itertools.product(cands, repeat=top.n_bs)
    return dict(zip(states, _gibbs_weights(rates, beta).tolist()))


def expected_hit_rates(rates: np.ndarray, betas: Iterable[float]) -> list[float]:
    """Expected network hit rate under the exact Gibbs distribution at each
    beta, from the hit rates of every state (:func:`state_rates`).

    Each is the last running sum of weight * rate in state order: a left
    fold from the first state, the bits of ``reduce(add, products, 0.0)`` on
    every Python.
    """
    values = []
    for b in betas:
        terms = _gibbs_weights(rates, b)
        terms *= rates
        values.append(float(np.add.accumulate(terms, out=terms)[-1]))
    return values


def expected_hit_rate(
    top: CellTopology, cat: ContentCatalog, cache_size: int, beta: float
) -> float:
    """Expected network hit rate under the exact Gibbs distribution."""
    return expected_hit_rates(state_rates(top, cat, cache_size)[1], [beta])[0]


def transition_matrices(rates: np.ndarray, n_bs: int, betas: Iterable[float]) -> np.ndarray:
    """Exact single-step transition matrices of the uniform-site sampler, one
    per beta, over the states of :func:`state_rates` in its order.

    h minus station j's local energy does not depend on j's column, so j's
    conditional law is exp(beta * h) normalised over the states that differ
    only in column j.
    """
    betas = np.fromiter(map(check_beta, betas), dtype=float)
    n_states = len(rates)
    n_cands = round(n_states ** (1 / n_bs))
    P = np.zeros((len(betas), n_states, n_states))
    for j in range(n_bs):
        # State indices on the axes (columns before j, column j, columns after j).
        cell = np.arange(n_states).reshape(n_cands**j, n_cands, -1)
        exponents = betas[:, None, None, None] * rates[cell]
        weights = np.exp(exponents - exponents.max(axis=2, keepdims=True))
        law = weights / weights.sum(axis=2, keepdims=True)
        # From each state to each state that differs from it only in column j.
        P[:, cell[:, :, None], cell[:, None]] += law[:, :, None] / n_bs
    return P


def transition_matrix(
    top: CellTopology, cat: ContentCatalog, cache_size: int, beta: float
) -> tuple[list[StateKey], np.ndarray]:
    """Exact single-step transition matrix of the uniform-site sampler at
    ``beta``, with rows in ``product(cands, repeat=N)`` order.  Used by the
    detailed balance and convergence diagnostics on small instances."""
    cands, rates = state_rates(top, cat, cache_size)
    states = list(itertools.product(cands, repeat=top.n_bs))
    return states, transition_matrices(rates, top.n_bs, [beta])[0]


def dobrushin_bound(
    beta: float, delta: float, n_bs: int, m_contents: int, cache_size: int, periods: int
) -> float:
    """Worst-case TV bound after ``periods`` N-slot periods at fixed beta.

    Ergodic-coefficient contraction with the initial TV distance replaced
    by 1; a diagnostic ceiling, loose in practice.
    """
    ncand = math.comb(m_contents, cache_size)
    contraction = 1.0 - (math.exp(-beta * delta) / (n_bs * ncand)) ** n_bs
    return contraction**periods
