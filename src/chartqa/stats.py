"""Wilcoxon signed-rank test and the seeded subsample resampling procedure.

The two-sided p-value is defined as the probability, under uniform random
sign assignment to the ranked absolute differences, that min(W+, W-) is at
most the observed statistic. For n <= 12 non-zero differences this is
computed exactly, even under mid-rank ties, from the distribution of W+
over all 2^n sign vectors; that distribution is counted and cached per
tie pattern. Larger samples use the normal approximation with the
standard tie correction of the rank variance.
"""

from __future__ import annotations

import collections
import functools
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


@functools.lru_cache(maxsize=None)
def _sign_sum_counts(double_ranks: tuple[int, ...]) -> tuple[int, ...]:
    """counts[s] = number of the 2^n sign assignments whose doubled W+ is s.

    A subset-sum count over the ranks, O(n * sum(ranks)) integer steps.
    Callers pass the ranks sorted, so the cache holds one entry per tie
    pattern; for n <= 12 there are at most 4095 of them.
    """
    counts = [1] + [0] * sum(double_ranks)
    for rank in double_ranks:
        for s in range(len(counts) - 1, rank - 1, -1):
            counts[s] += counts[s - rank]
    return tuple(counts)


def _exact_p(double_ranks: list[int], double_w: int) -> float:
    """P(min(W+, W-) <= observed) over every sign assignment.

    Ranks are doubled so mid-ranks stay integral and every comparison is
    exact integer arithmetic.
    """
    counts = _sign_sum_counts(tuple(sorted(double_ranks)))
    total = len(counts) - 1
    hits = sum(c for wp, c in enumerate(counts) if min(wp, total - wp) <= double_w)
    return hits / 2 ** len(double_ranks)


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
        double_ranks = [round(2 * r) for r in ranks]
        p = _exact_p(double_ranks, round(2 * statistic))
        return WilcoxonResult(statistic, p, n, "exact")

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    for t in collections.Counter(sorted(abs(d) for d in nonzero)).values():
        if t > 1:
            variance -= (t ** 3 - t) / 48.0
    if variance <= 0:
        return WilcoxonResult(statistic, 1.0, n, "normal")
    z = (statistic - mean) / math.sqrt(variance)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(statistic, p, n, "normal")


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

    import numpy as np  # only this function needs numpy; importing chartqa stays cheap

    pool = np.asarray(n1_values, dtype=float)
    target = [float(v) for v in n2_values]
    k = len(target)
    smallest = None
    valid = 0
    for i in range(iterations):
        rng = np.random.default_rng([seed, i])
        idx = rng.choice(len(pool), size=k, replace=False)
        sample = pool[idx].tolist()
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
