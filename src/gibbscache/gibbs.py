"""Virtual-cache Gibbs sampler: conditional column sampling, annealing
schedule, exact stationary distribution, and small-instance diagnostics.

The single-site update resamples one station's cache column from the
conditional distribution whose exponent is the local (neighbor- and
segment-restricted) hit rate, by inverse CDF over the lexicographic K-subsets
of the catalog.  Enumerating them here is the readable reference and test
oracle; ``engine.FastCore`` samples the same law without enumeration.

The exact tools enumerate every configuration.  :func:`state_rates` is their
one scan of hit rates.  The hit rate is a sum of segment terms, ``area_s *
rate(union of the masks of s's stations)``, so the scan adds one table per
segment, over the columns of that segment's stations only, broadcast over
the other stations, in the canonical segment order: every state gets the
additions of ``model.mask_hit_rate`` in its order, and the floats of
``model.hit_rate``.  The transition kernels of the sampler are read from it
too (:func:`transition_matrices`).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import CapacityError
from .geometry import CellTopology
from .model import ContentCatalog, Placement, UnionRates, local_energy
from .model import hit_rate  # noqa: F401  perfbench's tracer test checks this binding

# Exact computations are gated so tests stay desk-scale; the sampler itself
# has no catalog-size limit.
COND_ENUM_LIMIT = 100_000  # candidate columns per conditional step
STATE_ENUM_LIMIT = 1_000_000  # full configuration space
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

    def beta_at(self, t: int, n_bs: int) -> float:
        if self.mode == "fixed":
            return self.beta
        return anneal_beta(self.beta0, t, n_bs)


@dataclass(frozen=True)
class VirtualState:
    """Virtual-cache configuration after slot ``t``."""

    placement: Placement
    t: int = 0


def candidate_columns(m_contents: int, cache_size: int) -> list[tuple[int, ...]]:
    """All K-subsets of content ids (1-based), lexicographic."""
    n = math.comb(m_contents, cache_size)
    if n > COND_ENUM_LIMIT:
        # As a power of ten: Python prints no int of over 4,300 digits.
        raise CapacityError(
            f"C({m_contents},{cache_size}) ~ 10^{math.log10(n):.1f} candidate columns "
            f"exceeds limit {COND_ENUM_LIMIT}"
        )
    return list(itertools.combinations(range(1, m_contents + 1), cache_size))


def conditional_distribution(
    top: CellTopology,
    cat: ContentCatalog,
    V: Placement,
    j: int,
    beta: float,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Gibbs conditional over the K-subset columns for station ``j``.

    Returns the lexicographic candidate list and their probabilities.  The
    maximum exponent is subtracted before exponentiation so large ``beta *
    energy`` values cannot overflow.
    """
    check_beta(beta)
    cands = candidate_columns(cat.m_contents, V.cache_size)
    energies = np.array([local_energy(top, cat, V.with_column(j, c), j) for c in cands])
    exponents = beta * energies
    weights = np.exp(exponents - exponents.max())
    return cands, weights / weights.sum()


def gibbs_step(
    state: VirtualState,
    params: GibbsParams,
    top: CellTopology,
    cat: ContentCatalog,
    bs_rng: random.Random,
    col_rng: random.Random,
) -> VirtualState:
    """One update of Algorithm-style single-site sampling.

    Picks a station uniformly (from ``bs_rng``), resamples its column by
    inverse CDF over the lexicographic candidates (from ``col_rng``).
    """
    j = bs_rng.randrange(top.n_bs) + 1
    beta = params.beta_at(state.t, top.n_bs)
    cands, probs = conditional_distribution(top, cat, state.placement, j, beta)
    u = col_rng.random()
    acc = 0.0
    chosen = cands[-1]
    for c, p in zip(cands, probs):
        acc += p
        if u < acc:
            chosen = c
            break
    return VirtualState(state.placement.with_column(j, chosen), state.t + 1)


def anneal_beta(beta0: float, t: int, n_bs: int) -> float:
    """Logarithmic cooling: beta_t = beta0 * ln(1 + floor(t / N)).

    Constant within each N-slot period; zero during the first period.
    """
    if not 0 < beta0 < math.inf:  # checked inline: beta_at runs every slot
        check_beta0(beta0)
    return beta0 * math.log(1 + t // n_bs)


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
    """Candidate columns and their content bitmasks (bit ``i - 1`` set iff
    content ``i`` is stored), after gating the number of configurations."""
    cands = candidate_columns(m_contents, cache_size)
    if len(cands) ** n_bs > STATE_ENUM_LIMIT:
        raise CapacityError(
            f"{len(cands)}**{n_bs} configurations exceed enumeration limit {STATE_ENUM_LIMIT}"
        )
    bits = [1 << i for i in range(m_contents)]
    return cands, list(map(sum, itertools.combinations(bits, cache_size)))


def enumerate_states(
    m_contents: int, n_bs: int, cache_size: int
) -> list[StateKey]:
    """All feasible configurations as per-station column tuples, mixed-radix
    lexicographic order."""
    cands, _ = state_masks(m_contents, n_bs, cache_size)
    return list(itertools.product(cands, repeat=n_bs))


def state_rates(
    top: CellTopology, cat: ContentCatalog, cache_size: int
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Candidate columns and the hit rate of every state, in the order of
    ``product(cands, repeat=N)`` (:func:`enumerate_states`), 8 bytes per state.

    Segment s adds ``area_s * rate(union of its stations' masks)`` to every
    state.  The distinct unions of its stations after the first are numbered
    one station at a time (``ids``: the union number of each column tuple),
    so its terms form a table over (first station's column, union number).
    That table is gathered in blocks of the first station's columns, each
    broadcast over the stations outside s and added to the states.
    """
    cands, masks = state_masks(cat.m_contents, top.n_bs, cache_size)
    n, c = top.n_bs, len(cands)
    rate = UnionRates(cat)
    rates = np.zeros(c**n)
    grid = rates.reshape((c,) * n)
    for s, area in top.segment_areas.items():
        first, *rest = sorted(j - 1 for j in s)
        # One station's masks are distinct, so its columns number themselves.
        unions, ids = (masks, slice(None)) if rest else ([0], 0)
        for _ in rest[1:]:
            index: dict[int, int] = {}
            numbers = [index.setdefault(u | b, len(index)) for u in unions for b in masks]
            unions = list(index)
            ids = np.array(numbers).reshape(-1, c)[ids]
        terms = np.array([area * rate[b | u] for b in masks for u in unions]).reshape(c, -1)
        shape = [-1] + [c if j in rest else 1 for j in range(first + 1, n)]
        lead = (slice(None),) * first
        rows = max(1, SCAN_BLOCK // c ** len(rest))
        for a in range(0, c, rows):
            block = grid[lead + (slice(a, a + rows),)]
            block += terms[a : a + rows, ids].reshape(shape)
    return cands, rates


def _gibbs_weights(rates: np.ndarray, beta: float) -> list[float]:
    """exp(beta * h) / Z over ``rates``, the maximum exponent subtracted."""
    exponents = check_beta(beta) * rates
    weights = np.exp(exponents - exponents.max())
    return (weights / weights.sum()).tolist()


def stationary_distribution(
    top: CellTopology, cat: ContentCatalog, cache_size: int, beta: float
) -> dict[StateKey, float]:
    """Exact Gibbs distribution exp(beta * h(B)) / Z by full enumeration."""
    cands, rates = state_rates(top, cat, cache_size)
    states = itertools.product(cands, repeat=top.n_bs)
    return dict(zip(states, _gibbs_weights(rates, beta)))


def expected_hit_rates(rates: np.ndarray, betas: Iterable[float]) -> list[float]:
    """Expected network hit rate under the exact Gibbs distribution at each
    beta, from the hit rates of every state (:func:`state_rates`), summed in
    state order."""
    h = rates.tolist()
    return [sum(map(operator.mul, _gibbs_weights(rates, b), h)) for b in betas]


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
    ``beta``, with rows in :func:`enumerate_states` order.  Used by the
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
