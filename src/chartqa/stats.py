"""Wilcoxon signed-rank test and the seeded subsample resampling procedure.

The two-sided p-value is defined as the probability, under uniform random
sign assignment to the ranked absolute differences, that min(W+, W-) is at
most the observed statistic. For n <= 12 non-zero differences this is
computed exactly, even under mid-rank ties, from the distribution of W+
over all 2^n sign vectors; the p for every W is counted once per tie
pattern and cached. Larger samples use the normal approximation with the
standard tie correction of the rank variance.

Resampling iteration i draws its subsample as
``default_rng([seed, i]).choice(n, k, replace=False)`` does: ``_draw``
reproduces that call's SeedSequence, PCG64 stream and choice algorithm
bit for bit in plain integer arithmetic.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import NamedTuple, Sequence

from .errors import AllZeroDifferences, SettingError

EXACT_ENUMERATION_LIMIT = 12
PRNG_NAME = "pcg64"


class WilcoxonResult(NamedTuple):
    statistic: float  # W = min(W+, W-)
    p_value: float
    n_effective: int  # pairs remaining after zero differences are dropped
    method: str  # exact | normal


def _midranks(values: Sequence[float]) -> list[float]:
    """Ranks of values with ties resolved to the group mid-rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j + 2) / 2.0  # average of 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def _sign_sum_counts(double_ranks: tuple[int, ...]) -> tuple[int, ...]:
    """counts[s] = number of the 2^n sign assignments whose doubled W+ is s.

    A subset-sum count over the ranks, O(n * sum(ranks)) integer steps.
    """
    counts = [1] + [0] * sum(double_ranks)
    for rank in double_ranks:
        for s in range(len(counts) - 1, rank - 1, -1):
            counts[s] += counts[s - rank]
    return tuple(counts)


@functools.lru_cache(maxsize=None)
def _exact_p_table(double_ranks: tuple[int, ...]) -> tuple[float, ...]:
    """table[w] = P(min(W+, W-) <= w) over every sign assignment, for each
    doubled w from 0 to half the doubled rank sum (min(W+, W-) is no more).

    Ranks are doubled so mid-ranks stay integral and every comparison is
    exact integer arithmetic: each p is an exact count of hits over 2^n.
    Callers pass the ranks sorted, so the cache holds one table per tie
    pattern; for n <= 12 there are at most 4095 of them.
    """
    counts = _sign_sum_counts(double_ranks)
    total = len(counts) - 1
    table, hits = [], 0
    for w in range(total // 2 + 1):
        # min(wp, total - wp) <= w: wp is w or total - w, counted once if equal
        hits += counts[w] + (counts[total - w] if total - w != w else 0)
        table.append(hits / 2 ** len(double_ranks))
    return tuple(table)


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired signed-rank test of x against y.

    Zero differences are dropped before ranking; absolute differences are
    ranked with mid-rank ties and W = min(W+, W-). Raises
    AllZeroDifferences when no non-zero pair remains.
    """
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    if not x:
        raise ValueError("samples must be non-empty")
    diffs = [float(a) - float(b) for a, b in zip(x, y)]
    nonzero = [d for d in diffs if d != 0.0]
    if not nonzero:
        raise AllZeroDifferences("every paired difference is zero")
    n = len(nonzero)
    ranks = _midranks([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    statistic = min(w_plus, w_minus)

    if n <= EXACT_ENUMERATION_LIMIT:
        double_ranks = tuple(sorted(round(2 * r) for r in ranks))
        p = _exact_p_table(double_ranks)[round(2 * statistic)]
        return WilcoxonResult(statistic, p, n, "exact")

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    # ties take at most (n^3 - n) / 48, so the variance stays >= n(n+1)^2 / 16
    for t in collections.Counter(sorted(abs(d) for d in nonzero)).values():
        if t > 1:
            variance -= (t ** 3 - t) / 48.0
    z = (statistic - mean) / math.sqrt(variance)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(statistic, p, n, "normal")


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=None)
def _constants(init: int, mult: int, count: int) -> tuple[int, ...]:
    """init, init * mult, init * mult^2, ... mod 2^32: count + 1 values."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return tuple(consts)


# the all-pairs pool mix of SeedSequence, in its order
_PAIRS = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)


def _hashmix(value: int, consts: tuple[int, ...], h: int) -> int:
    """SeedSequence's hashmix number h: its hash constants advance the same
    way on every call, so they are read from a table."""
    value = (value ^ consts[h]) * consts[h + 1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int, consts: tuple[int, ...], h: int) -> int:
    """SeedSequence's mix(x, hashmix(y)), with hashmix number h."""
    x = 0xCA01F9DD * x - 0x4973F715 * _hashmix(y, consts, h) & _M32
    return x ^ x >> 16


def _pcg64_words(seed: int, i: int):
    """The 32-bit draws of ``PCG64(SeedSequence([seed, i]))``, low half first."""
    entropy = [value >> shift & _M32 for value in (seed, i)
               for shift in range(0, max(value.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    consts = _constants(0x43B0D7E5, 0x931E8875, 4 * len(entropy))
    pool = [_hashmix(word, consts, h) for h, word in enumerate(entropy[:4])]
    for h, (src, dst) in enumerate(_PAIRS, 4):
        pool[dst] = _mix(pool[dst], pool[src], consts, h)
    for h, (word, dst) in enumerate(itertools.product(entropy[4:], range(4)), 16):
        pool[dst] = _mix(pool[dst], word, consts, h)
    consts = _constants(0x8B51F9DD, 0x58F38DED, 8)
    words = [_hashmix(pool[j % 4], consts, j) for j in range(8)]
    v = [words[j] | words[j + 1] << 32 for j in range(0, 8, 2)]  # little-endian uint64
    inc = (v[2] << 64 | v[3]) << 1 & _M128 | 1
    state = ((inc + (v[0] << 64 | v[1])) * _PCG64_MULT + inc) & _M128  # from 0: step, add, step
    while True:
        state = (state * _PCG64_MULT + inc) & _M128
        high = state >> 64
        value = (high ^ state) & _M64
        out = (value | value << 64) >> (high >> 58)  # XSL-RR: its low 64 bits rotate value
        yield out & _M32
        yield out >> 32 & _M32


def _draw(seed: int, i: int, n: int, k: int) -> list[int]:
    """The indices ``default_rng([seed, i]).choice(n, k, replace=False)`` returns.

    The same k indices in the same order, for n up to 2^32.
    """
    words = _pcg64_words(seed, i)

    def bounded(m: int) -> int:  # Lemire's method: uniform in [0, m]
        if not m:
            return 0
        span = m + 1
        x = next(words) * span
        if x & _M32 < span:
            threshold = (_M32 - m) % span
            while x & _M32 < threshold:
                x = next(words) * span
        return x >> 32

    if n > 10000 and k > n // 50:  # shuffle the tail of 0..n-1
        idx = list(range(n))
        for j in range(n - 1, max(n - k, 1) - 1, -1):
            r = bounded(j)
            idx[j], idx[r] = idx[r], idx[j]
        return idx[n - k:]
    idx, taken = [], set()  # Floyd's algorithm, then a shuffle
    for j in range(n - k, n):
        value = bounded(j)
        if value in taken:
            value = j
        taken.add(value)
        idx.append(value)
    for j in range(k - 1, 0, -1):
        r = bounded(j)
        idx[j], idx[r] = idx[r], idx[j]
    return idx


class ResampleResult(NamedTuple):
    smallest_p: float
    iterations: int
    valid_iterations: int  # iterations that did not degenerate to all-zero
    seed: int
    prng: str
    n1_size: int
    n2_size: int

    def to_mapping(self) -> dict:
        return self._asdict()


def resampled_group_test(
    n1_values: Sequence[float],
    n2_values: Sequence[float],
    iterations: int,
    seed: int,
) -> ResampleResult:
    """Smallest signed-rank p over repeated equal-sized subsamples of n1.

    Each iteration draws |n2| values from n1 uniformly without replacement
    and tests them pairwise against n2. Iteration i uses its own generator
    seeded from (seed, i), so results are bit-reproducible regardless of
    any parallel execution schedule. Iterations whose paired differences
    are all zero are skipped and counted.
    """
    if len(n2_values) > len(n1_values):
        raise SettingError("n2 must not be larger than n1")
    if not n2_values:
        raise SettingError("n2 must be non-empty")
    if iterations < 1:
        raise SettingError("iterations must be at least 1")
    if seed < 0:
        raise SettingError("seed must be non-negative")

    pool = [float(v) for v in n1_values]
    target = [float(v) for v in n2_values]
    k = len(target)
    smallest = None
    valid = 0
    for i in range(iterations):
        sample = [pool[j] for j in _draw(seed, i, len(pool), k)]
        try:
            result = wilcoxon_signed_rank(sample, target)
        except AllZeroDifferences:
            continue
        valid += 1
        if smallest is None or result.p_value < smallest:
            smallest = result.p_value
    if smallest is None:
        raise AllZeroDifferences("every resampling iteration degenerated to all-zero differences")
    return ResampleResult(
        smallest_p=smallest,
        iterations=iterations,
        valid_iterations=valid,
        seed=seed,
        prng=PRNG_NAME,
        n1_size=len(pool),
        n2_size=k,
    )
