"""The virtual chain in blocks of slots: draws read ahead, and updates
evaluated for every context at once.

A station's Gibbs update reads its own uniform, beta and the columns of the
stations it shares a segment with: its *context*, one of C(M, K) ** n
values for n such stations.  Where every station has few contexts,
:class:`Blocks` evaluates a block of slots in arrays, one column per (slot,
context of the slot's station): the gains added in segment order (as
``FastCore._array_gains`` adds them), the suffix table a content at a time
(:func:`_column_table`) and the inverse-CDF walk of ``engine._lex_sample``,
its ``exp`` mapped from ``math``.  Every column's subset is the one
``FastCore.step`` would sample in that context, bit for bit.  The block is
then resolved in order: per slot, its station's context is read from the
current columns and its column's subset looked up.

:class:`SlotDraws` reads the two streams the chain uses ahead, in arrays,
for either path, from their raw MT19937 outputs: stations as ``randrange``
takes them, uniforms as ``random`` makes them.  Draws read ahead and never
used differ from a one-at-a-time run only past the horizon.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

_RAW = 1 << 10  # draws of each stream read at a time


def _words(getrandbits, n: int) -> np.ndarray:
    """The next n 32-bit outputs of an MT19937 stream: ``getrandbits(32 * n)``
    holds them as little-endian words, the first lowest."""
    return np.frombuffer(getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


class SlotDraws:
    """The next slots' stations and uniforms, read ahead in arrays.

    ``take(n)`` returns what n calls of ``randrange(n_bs)`` on the bs-pick
    stream and of ``random()`` on the column-sample stream would, from the
    streams' raw 32-bit outputs.  ``randrange(n)`` keeps the top
    ``n.bit_length()`` bits of one output and rejects values >= n (for n = 1
    and powers of two too), so the stations are the accepted values;
    ``random()`` is (a >> 5) * 2**26 + (b >> 6) over 2**53 for two outputs a,
    b.  Both streams are read ``_RAW`` draws at a time; the draws past a take
    are kept for the next, and takes are views, so that no array's size
    follows a take's.  (Reading a few raw outputs costs less than starting
    a numpy bit generator, which short runs of the chain notice.)
    """

    def __init__(self, bs_rng: random.Random, col_rng: random.Random, n_bs: int):
        self._bs, self._col = bs_rng.getrandbits, col_rng.getrandbits
        self._n = n_bs
        self._shift = 32 - n_bs.bit_length()
        self._js, self._us = np.zeros(0, np.intp), np.zeros(0)

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        while len(self._js) < count:
            r = (_words(self._bs, _RAW) >> self._shift).astype(np.intp)
            self._js = np.concatenate((self._js, r[r < self._n]))
        while len(self._us) < count:
            ab = _words(self._col, 2 * _RAW).reshape(-1, 2)
            u = ((ab[:, 0] >> 5) * 67108864.0 + (ab[:, 1] >> 6)) * (1.0 / 9007199254740992.0)
            self._us = np.concatenate((self._us, u))
        js, self._js = self._js[:count], self._js[count:]
        us, self._us = self._us[:count], self._us[count:]
        return js, us


class Arrivals:
    """A block of requests as the estimator counts them, in arrival order:
    ``cells``, the table cell that counts each (``FastCore.arrivals``, -1
    where none does), and ``recorded``, how many of them the core's
    tables hold.  ``order`` lists cell * (n + 1) + position, sorted, so the
    arrivals of a cell before a position are counted by one search.
    """

    def __init__(self, cells: np.ndarray):
        self.cells, self.recorded = cells, 0
        self.width = len(cells) + 1
        self.order = np.sort(cells * self.width + np.arange(len(cells)))

    def before(self, cells: np.ndarray, stop) -> np.ndarray:
        """Arrivals before position ``stop`` (broadcast against ``cells``) in
        each of ``cells``."""
        return np.searchsorted(self.order, cells * self.width + stop)


def slot_betas(params, k0: int, k1: int, n_bs: int) -> np.ndarray:
    """Beta of slots k0 .. k1 - 1 under ``params`` (a ``GibbsParams``),
    one per N-slot period (the schedules hold beta within a period)."""
    p0 = k0 // n_bs
    return np.repeat(params.period_betas(p0, -(-k1 // n_bs)), n_bs)[k0 - p0 * n_bs : k1 - p0 * n_bs]


def _array_table(a: np.ndarray, k: int) -> list[np.ndarray]:
    """Levels 1 to K of the suffix table of the rows of ``a`` (its last
    axis) in K numpy calls: ``E(s, r) = log e_r(exp(a[s]), ...,
    exp(a[m-1]))``, the log of the elementary symmetric polynomial of degree
    r, kept in log space so that it stays finite at any beta.  The last axis
    of level r lists E(s, r) from s = m - r down to 0; E(s, 0) = 0.

    Level r is the running ``np.logaddexp`` of the terms ``a[s] + E(s+1,
    r-1)`` from s = m - r down.  ``np.logaddexp(x, y)`` computes ``x +
    log1p(exp(y - x))`` for x > y, and its mirror, with libm's scalar
    ``exp`` and ``log1p`` (numpy dispatches no SIMD loop for it), and ``x +
    ln 2`` on ties, so every cell equals the Python-float table of
    ``tests/reference_step.py`` bit for bit.  ``np.exp`` and ``np.log`` are
    not used: their SIMD loops round differently.
    """
    m = a.shape[-1]
    rev = a[..., ::-1]
    level = np.logaddexp.accumulate(rev + 0.0, -1)  # terms a[s] + E(s+1, 0)
    table = [level]
    for r in range(2, k + 1):
        level = np.logaddexp.accumulate(rev[..., r - 1 :] + level[..., : m - r + 1], -1)
        table.append(level)
    return table


def _column_table(at: np.ndarray, k: int) -> list[np.ndarray]:
    """:func:`_array_table` of the columns of ``at`` (content s in row s),
    its rows listing E(s, r) from s = m - r down: the same ``np.logaddexp``
    of each running value and term, on whole rows, M * K calls.  (A running
    sum along short rows calls its inner loop once per row.)"""
    m, rows = at.shape
    table = []
    for r in range(1, k + 1):
        level = np.empty((m - r + 1, rows))
        below = table[-1] if table else np.zeros((m + 1, 1))  # E(s+1, r-1)
        level[0] = at[m - r] + below[0]
        for t in range(1, m - r + 1):  # E(s, r) for s = m - r - t
            np.logaddexp(level[t - 1], at[m - r - t] + below[t], out=level[t])
        table.append(level)
    return table


def _walk(at: np.ndarray, k: int, u: np.ndarray) -> np.ndarray:
    """``engine._lex_sample`` of every column of ``at`` (content s in row s)
    at the column's uniform in ``u``, as the lexicographic rank of the subset
    among the K-subsets of range(M) (that of ``itertools.combinations``).
    Columns walk together; per content s, those with r contents left read p
    = exp(a[s] + E(s+1, r-1) - E(s, r)) at index m - r - s of the levels,
    ``exp`` mapped from ``math``, unless that index is 0 and the contents
    left are forced, and rescale their uniforms as ``_lex_sample`` does.
    The walk ends once every column is done or has the rest forced."""
    m, rows = at.shape
    levels = _column_table(at, k)
    # binom[n, r] = C(n, r): the subsets a skipped content passes over.
    binom = np.array([[math.comb(n, r) for r in range(k + 1)] for n in range(m)])
    left = np.full(rows, k)  # contents still to choose
    rank = np.zeros(rows, np.intp)
    u = u.copy()
    exp = math.exp
    for s in range(m):
        if (left == left[0]).all():  # none done or forced: see the stop below
            groups = [(int(left[0]), slice(None))]
        else:
            groups = [(r, np.flatnonzero(left == r)) for r in range(1, min(k, m - s - 1) + 1)]
        p = np.ones(rows)
        for r, idx in groups:
            t = m - r - s
            x = at[s, idx] + (levels[r - 2][t, idx] if r > 1 else 0.0)  # + E(s+1, r-1)
            x -= levels[r - 1][t, idx]
            p[idx] = np.fromiter(map(exp, memoryview(x)), float, len(x))
        live = left > 0
        take = live & ((u < p) | (p == 1.0))
        skip = live & ~take
        np.add(rank, binom[m - 1 - s][left - 1], out=rank, where=skip)
        left -= take
        # Done, or every content left forced, at s + 1 in every column.
        if not (left * (m - s - 1 - left)).any():
            break
        np.divide(u, p, out=u, where=take)
        np.divide(u - p, 1.0 - p, out=u, where=skip)
    return rank


def _fold(held: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``engine._gain_rows`` of the segments' rates ``w[s]`` and ``held[s]``,
    the same terms added in segment order by ``+=``, not a running sum."""
    g = np.where(held[0], 0.0, w[0])
    for s in range(1, len(held)):
        g += np.where(held[s], 0.0, w[s])
    return g


def _padded(x: np.ndarray, size: int, fill) -> np.ndarray:
    out = np.full(size, fill, x.dtype)
    out[: len(x)] = x
    return out


class Blocks:
    """A ``FastCore``'s plan for evaluating slots in blocks.

    Columns are numbered in lexicographic order.  Station j's neighbours
    are the other stations of its segments; context x lists their columns as
    the digits of x in base C(M, K), the lowest-numbered neighbour lowest
    (``near_w[j]`` pairs each neighbour with its digit's weight).  Each
    station has ``n_ctx`` contexts per slot, repeated when it has fewer, so
    every block has the same shape per slot.  Stations (slots, in a block)
    are the arrays' last axis: ``held[s, i, x, j]`` marks content i if the
    other stations of the s-th segment of j hold it in context x (every
    content, past j's segments), and ``segs[s, j]`` is that segment.
    """

    def __init__(self, core):
        m = core.m
        self.columns = list(combinations(range(1, m + 1), core.k))
        self.rank = {col: r for r, col in enumerate(self.columns)}
        self.c = c = len(self.columns)
        masks = [sum(1 << (i - 1) for i in col) for col in self.columns]
        self.col_masks = masks
        near = [sorted({o for _, others in nb for o in others}) for nb in core.neighbours]
        self.near_w = [[(o, c**i) for i, o in enumerate(stations)] for stations in near]
        self.n_ctx = max(c ** len(stations) for stations in near)
        width = max(1, *map(len, core.neighbours))
        held = np.ones((width, m, self.n_ctx, core.n_bs), bool)
        self.segs = np.zeros((width, core.n_bs), np.intp)
        bits = [[mask >> i & 1 for i in range(m)] for mask in masks]
        for j, nb in enumerate(core.neighbours):
            own = c ** len(near[j])
            for x in range(self.n_ctx):
                col = {o: x % own // w % c for o, w in self.near_w[j]}
                for s, (q, others) in enumerate(nb):
                    self.segs[s, j] = q
                    held[s, :, x, j] = [any(bits[col[o]][i] for o in others) for i in range(m)]
        self.held = held
        if core.estimator is None:  # each (station, context) has one gain row
            self.gains = _fold(held, np.array(core.true_rates)[self.segs].transpose(0, 2, 1)[:, :, None])
        else:  # the cells of each station's gains, in its own table under local scope
            rows = np.arange(core.n_bs) * core.local * len(core.segments) + self.segs
            self.need = rows[:, None] * m + np.arange(m)[:, None]
        self.cpow = [c**j for j in range(core.n_bs)]  # a state is sum(rank[j] * c**j)
        self.keys: dict[int, tuple] = {}

    def _learned_gains(self, core, stations, now, arrivals, fed) -> np.ndarray:
        """``FastCore._array_gains`` of each slot's station in every context,
        from the counts at the slot, the core's tables plus the arrivals it has
        not recorded before ``fed[t]`` (one search each), by ``FastCore.rate``."""
        cells = core.est_counts.ravel()
        base = cells - arrivals.before(np.arange(len(cells)), arrivals.recorded)
        need = np.take(self.need, stations, -1)
        n = base[need] + arrivals.before(need, fed)
        w = core.rate(n, np.take(self.segs, stations, -1)[:, None], now)
        return _fold(np.take(self.held, stations, -1), w[:, :, None])

    def run(self, core, stations, betas, uniforms, now=None, arrivals=None, fed=None):
        """Evaluate and resolve one block of slots from the core's state;
        returns the configuration after each slot and the final column
        ranks.  Blocks are evaluated at a power-of-two number of slots, the
        padding at beta = 0, so that their arrays take a few sizes only
        (numpy keeps freed buffers of each size under 1 KiB)."""
        n_slots, x_n = len(stations), self.n_ctx
        size = 1 << (n_slots - 1).bit_length()
        if size > n_slots:
            stations, betas = _padded(stations, size, 0), _padded(betas, size, 0.0)
            uniforms = _padded(uniforms, size, 0.5)
            if arrivals is not None:
                now, fed = _padded(now, size, now[-1]), _padded(fed, size, fed[-1])
        if arrivals is None:
            g = np.take(self.gains, stations, -1)
        else:
            g = self._learned_gains(core, stations, now, arrivals, fed)
        # Content i of slot t in context x at row i, column x * size + t.
        at = (g * betas).reshape(core.m, -1)
        out = _walk(at, core.k, np.tile(uniforms, x_n)).tolist()

        near_w, cpow = [[(o, w * size) for o, w in nw] for nw in self.near_w], self.cpow
        ranks = [self.rank[col] for col in core.columns()]
        state = sum(map(int.__mul__, ranks, cpow))
        states = []
        for x, j in enumerate(stations[:n_slots].tolist()):
            for o, w in near_w[j]:
                x += ranks[o] * w
            b = out[x]
            if b != ranks[j]:
                state += (b - ranks[j]) * cpow[j]
                ranks[j] = b
            states.append(state)
        keys, cols, c = self.keys, self.columns, self.c
        for s in set(states).difference(keys):
            keys[s] = tuple(cols[s // p % c] for p in cpow)
        return list(map(keys.__getitem__, states)), ranks
