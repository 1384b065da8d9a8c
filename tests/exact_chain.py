"""Independent oracle: exact distribution evolution of the single-site chain.

Its kernels come from the one state scan (``gibbs.state_rates``) through
``gibbs.transition_matrices``, which ``tests/test_gibbs.py`` pins to the
readable conditional-distribution route; nothing here runs the optimized
sampler core.  Sampler statistics can so be checked against exact
expectations for both fixed and annealed temperature schedules.
"""

from __future__ import annotations

import itertools

import numpy as np

from gibbscache.gibbs import GibbsParams, state_rates, transition_matrices

# Periods whose kernels are held at once by ``expected_slot_counts``.
KERNEL_CHUNK = 1 << 15


class ExactChain:
    def __init__(self, top, cat, cache_size):
        cands, self.h = state_rates(top, cat, cache_size)
        self.states = list(itertools.product(cands, repeat=top.n_bs))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.n_bs = top.n_bs

    def kernels(self, betas) -> np.ndarray:
        """One-slot transition matrices, one per entry of ``betas``."""
        return transition_matrices(self.h, self.n_bs, betas)

    def step(self, mu: np.ndarray, beta: float) -> np.ndarray:
        return mu @ self.kernels([beta])[0]

    def start_at(self, key) -> np.ndarray:
        mu = np.zeros(len(self.states))
        mu[self.index[key]] = 1.0
        return mu

    def evolve(self, mu0: np.ndarray, betas) -> np.ndarray:
        """Apply one step per entry of ``betas``; returns the final law."""
        mu = mu0
        for beta in betas:
            mu = self.step(mu, beta)
        return mu

    def expected_slot_counts(
        self, mu0: np.ndarray, params: GibbsParams, slot_windows
    ) -> np.ndarray:
        """Expected number of slots spent in each state, per window.

        ``slot_windows[k]`` is the window that the state after update ``k``
        is counted in (as in ``SimTrace.v_counts``); update ``k`` runs at
        ``params.beta_at(k, N)``.  Row ``w`` divided by its sum is window
        ``w``'s mean law.  Both schedules hold beta constant within each
        N-slot period, so one kernel P per period and the stacked powers
        [P, P^2, ..., P^N] give the laws after each of its N slots in one
        vector-matrix product.
        """
        slot_windows = np.asarray(slot_windows)
        n, n_states = self.n_bs, len(self.states)
        n_periods = -(-len(slot_windows) // n)
        counts = np.zeros((slot_windows.max() + 1, n_states))
        mu = mu0
        for first in range(0, n_periods, KERNEL_CHUNK):
            periods = range(first, min(first + KERNEL_CHUNK, n_periods))
            P = self.kernels([params.beta_at(p * n, n) for p in periods])
            powers = [P]
            for _ in range(n - 1):
                powers.append(powers[-1] @ P)
            stacked = np.concatenate(powers, axis=2)
            laws = np.empty((len(periods), n * n_states))
            for i, Q in enumerate(stacked):
                laws[i] = mu @ Q
                mu = laws[i, -n_states:]
            windows = slot_windows[first * n : (first + len(periods)) * n]
            laws = laws.reshape(-1, n_states)[: len(windows)]
            for s in range(n_states):
                counts[:, s] += np.bincount(
                    windows, weights=laws[:, s], minlength=len(counts)
                )
        return counts
