"""Signed-rank test against exhaustive enumeration; resampling determinism."""

import itertools
import math
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartqa import stats
from chartqa.errors import AllZeroDifferences, SettingError
from chartqa.stats import (
    _draw,
    _exact_p_table,
    _midranks,
    _sign_sum_counts,
    resampled_group_test,
    wilcoxon_signed_rank,
)


def enumeration_oracle(x, y):
    """Independent oracle: mid-ranks by counting, p by full sign enumeration."""
    diffs = [a - b for a, b in zip(x, y) if a != b]
    n = len(diffs)
    abs_diffs = [abs(d) for d in diffs]
    ranks = [
        sum(1 for other in abs_diffs if other < d)
        + (sum(1 for other in abs_diffs if other == d) + 1) / 2
        for d in abs_diffs
    ]
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    observed = min(w_plus, w_minus)
    total = sum(ranks)
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        wp = sum(r for r, s in zip(ranks, signs) if s > 0)
        if min(wp, total - wp) <= observed:  # exact: all values are halves
            hits += 1
    return observed, hits / 2 ** n


def test_all_zero_differences_is_an_error():
    with pytest.raises(AllZeroDifferences):
        wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])


def test_textbook_n6_matches_enumeration():
    x = [125, 115, 130, 140, 140, 115]
    y = [110, 122, 125, 120, 140, 124]
    result = wilcoxon_signed_rank(x, y)
    observed, expected_p = enumeration_oracle(x, y)
    assert result.method == "exact"
    assert result.statistic == pytest.approx(observed)
    assert result.p_value == pytest.approx(expected_p, abs=1e-12)


def test_exact_branch_matches_enumeration_for_small_n():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 10)
        x = [rng.randint(0, 8) for _ in range(n)]
        y = [rng.randint(0, 8) for _ in range(n)]
        if all(a == b for a, b in zip(x, y)):
            with pytest.raises(AllZeroDifferences):
                wilcoxon_signed_rank(x, y)
            continue
        result = wilcoxon_signed_rank(x, y)
        observed, expected_p = enumeration_oracle(x, y)
        assert result.statistic == pytest.approx(observed, abs=1e-12)
        assert result.p_value == pytest.approx(expected_p, abs=1e-12)
        checked += 1


# non-zero paired differences for the exact branch: small magnitudes tie
# often, distinct magnitudes never do
_tied = st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=12)
_untied = st.lists(st.integers(1, 10_000), min_size=1, max_size=12, unique=True).flatmap(
    lambda mags: st.lists(st.sampled_from((1, -1)), min_size=len(mags), max_size=len(mags))
    .map(lambda signs: [m * s for m, s in zip(mags, signs)])
)
_differences = st.one_of(_tied, _untied)


@settings(max_examples=300, deadline=None)
@given(_differences)
def test_exact_p_is_bit_identical_to_enumeration(diffs):
    zeros = [0] * len(diffs)
    result = wilcoxon_signed_rank(diffs, zeros)
    assert result.method == "exact"
    assert result.p_value == enumeration_oracle(diffs, zeros)[1]


@settings(max_examples=300, deadline=None)
@given(_differences)
def test_sign_sum_counts_cover_every_sign_assignment(diffs):
    double_ranks = tuple(sorted(round(2 * r) for r in _midranks([abs(d) for d in diffs])))
    counts = _sign_sum_counts(double_ranks)
    assert sum(counts) == 2 ** len(double_ranks)
    assert len(counts) == sum(double_ranks) + 1
    assert counts == counts[::-1]  # flipping every sign maps W+ to total - W+


def _exact_p_by_scan(double_ranks, double_w):
    """The exact p as a scan of the whole count table, with nothing cached."""
    counts = _sign_sum_counts(double_ranks)
    total = len(counts) - 1
    hits = sum(c for wp, c in enumerate(counts) if min(wp, total - wp) <= double_w)
    return hits / 2 ** len(double_ranks)


@settings(max_examples=200, deadline=None)
@given(_differences)
def test_cached_exact_p_equals_the_uncached_scan(diffs):
    double_ranks = tuple(sorted(round(2 * r) for r in _midranks([abs(d) for d in diffs])))
    want = [_exact_p_by_scan(double_ranks, w) for w in range(sum(double_ranks) // 2 + 1)]
    assert list(_exact_p_table(double_ranks)) == want
    assert _exact_p_table(double_ranks) is _exact_p_table(double_ranks)  # cached


def _normal_p_by_tie_scan(diffs):
    """The normal-branch p with tie groups found by scanning the sorted magnitudes."""
    nonzero = [float(d) for d in diffs if d != 0]
    n = len(nonzero)
    ranks = _midranks([abs(d) for d in nonzero])
    statistic = min(sum(r for r, d in zip(ranks, nonzero) if d > 0),
                    sum(r for r, d in zip(ranks, nonzero) if d < 0))
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    sorted_abs = sorted(abs(d) for d in nonzero)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        t = j - i + 1
        if t > 1:
            variance -= (t ** 3 - t) / 48.0
        i = j + 1
    if variance <= 0:
        return 1.0
    z = (statistic - mean) / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-6, 6).filter(bool), min_size=13, max_size=60),
    st.lists(st.integers(-10_000, 10_000).filter(bool), min_size=13, max_size=60),
    st.lists(st.sampled_from([-2.5, -1.0, 1.0, 2.5]), min_size=13, max_size=60),
))
def test_normal_p_is_bit_identical_to_the_tie_scan(diffs):
    result = wilcoxon_signed_rank(diffs, [0] * len(diffs))
    assert result.method == "normal"
    assert result.p_value == _normal_p_by_tie_scan(diffs)


def test_normal_branch_matches_scipy_approximation():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(13, 40)
        x = [rng.randint(0, 30) for _ in range(n)]
        y = [rng.randint(0, 30) for _ in range(n)]
        diffs = [a - b for a, b in zip(x, y) if a != b]
        if len(diffs) <= 12:
            continue
        result = wilcoxon_signed_rank(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy_stats.wilcoxon(
                x, y, zero_method="wilcox", correction=False, method="approx"
            )
        assert result.method == "normal"
        assert result.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


def largest_exact_normal_gap(magnitudes) -> float:
    """The largest |exact p - normal p| over every W that signs on ``magnitudes``
    (tied where equal) reach: the exact p from ``_exact_p_table``, the normal p
    from ``wilcoxon_signed_rank`` with the exact branch switched off."""
    magnitudes = sorted(magnitudes)
    double = [round(2 * r) for r in _midranks(magnitudes)]
    exact = _exact_p_table(tuple(double))
    reach = [{0}]  # reach[i]: the doubled W+ that signs on the first i ranks give
    for rank in double:
        reach.append(reach[-1] | {w + rank for w in reach[-1]})
    gap, limit = 0.0, stats.EXACT_ENUMERATION_LIMIT
    stats.EXACT_ENUMERATION_LIMIT = 0
    try:
        for w in sorted(w for w in reach[-1] if 2 * w <= sum(double)):
            signs, rest = [], w  # a sign assignment whose doubled W+ is w, last rank first
            for i in range(len(double), 0, -1):
                positive = rest not in reach[i - 1]
                rest -= double[i - 1] if positive else 0
                signs.append(1 if positive else -1)
            diffs = [sign * m for sign, m in zip(reversed(signs), magnitudes)]
            result = wilcoxon_signed_rank(diffs, [0] * len(diffs))
            assert result.method == "normal" and round(2 * result.statistic) == w
            gap = max(gap, abs(result.p_value - exact[w]))
    finally:
        stats.EXACT_ENUMERATION_LIMIT = limit
    return gap


# the largest gap at n = 40 measures 0.0084 with distinct ranks, 0.0065 with ties in pairs
GAP_BOUND_AT_40 = 0.01


@pytest.mark.parametrize("tie_size", [1, 2], ids=["distinct", "pairs"])
def test_exact_and_normal_p_converge_as_n_grows(tie_size):
    gaps = [largest_exact_normal_gap([1 + i // tie_size for i in range(n)])
            for n in (12, 20, 30, 40)]
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == 4, gaps
    assert gaps[-1] < GAP_BOUND_AT_40


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=40, max_size=40))
def test_exact_and_normal_p_agree_at_n_40_with_ties(tie_sizes):
    # 40 magnitudes in runs of tie_sizes equal values, the last run cut short
    magnitudes = [group for group, size in enumerate(tie_sizes, 1) for _ in range(size)]
    assert largest_exact_normal_gap(magnitudes[:40]) < GAP_BOUND_AT_40


def test_mixed_sample_types_and_equal_length_checks():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1, 2], [1])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([], [])


def test_resampled_group_test_deterministic():
    rng = random.Random(11)
    n1 = [rng.randint(0, 25) for _ in range(160)]
    n2 = [rng.randint(0, 12) for _ in range(16)]
    first = resampled_group_test(n1, n2, iterations=500, seed=42)
    second = resampled_group_test(n1, n2, iterations=500, seed=42)
    assert first == second  # bit-reproducible
    other_seed = resampled_group_test(n1, n2, iterations=500, seed=43)
    assert other_seed.smallest_p != first.smallest_p or other_seed.seed != first.seed
    assert first.prng == "pcg64"
    assert 0.0 <= first.smallest_p <= 1.0


def test_resampled_single_iteration_reproducible():
    result = resampled_group_test([1, 2, 3, 4, 5, 6], [1, 1, 2], iterations=1, seed=9)
    again = resampled_group_test([1, 2, 3, 4, 5, 6], [1, 1, 2], iterations=9, seed=9)
    # iteration 0 uses sub-seed (seed, 0) in both runs, so more iterations
    # can only lower the minimum
    assert again.smallest_p <= result.smallest_p


def test_resampled_shifted_groups_significant():
    rng = random.Random(3)
    n1 = [rng.gauss(30, 2) for _ in range(120)]
    n2 = [rng.gauss(5, 2) for _ in range(16)]
    result = resampled_group_test(n1, n2, iterations=200, seed=0)
    assert result.smallest_p < 0.01


def test_resampled_identical_groups_p_in_range():
    values = list(range(40))
    result = resampled_group_test(values, values[:10], iterations=100, seed=1)
    assert 0.0 <= result.smallest_p <= 1.0


def test_resampled_validation():
    with pytest.raises(ValueError):
        resampled_group_test([1, 2], [1, 2, 3], iterations=10, seed=0)
    with pytest.raises(ValueError):
        resampled_group_test([1, 2, 3], [1], iterations=0, seed=0)
    with pytest.raises(ValueError):
        resampled_group_test([1, 2, 3], [1], iterations=1, seed=-1)
    with pytest.raises(AllZeroDifferences):
        resampled_group_test([5, 5, 5], [5, 5], iterations=3, seed=0)


@pytest.mark.parametrize("n1, n2, iterations, seed, message", [
    ([1, 2], [1, 2, 3], 10, 0, "n2 must not be larger than n1"),
    ([1, 2], [], 10, 0, "n2 must be non-empty"),
    ([1, 2, 3], [1], 0, 0, "iterations must be at least 1"),
    ([1, 2, 3], [1], 1, -1, "seed must be non-negative"),
])
def test_resampling_range_checks_are_setting_errors(n1, n2, iterations, seed, message):
    with pytest.raises(SettingError, match=message):
        resampled_group_test(n1, n2, iterations=iterations, seed=seed)


@pytest.fixture(scope="module")
def numpy_random():
    return pytest.importorskip("numpy").random


def _choice_sizes(n):
    """k = 1, k = n, the tail-shuffle boundary n // 50 and n // 50 + 1, or any k."""
    edges = sorted({1, n, max(1, n // 50), min(n, n // 50 + 1)})
    return st.tuples(st.just(n), st.one_of(st.sampled_from(edges), st.integers(1, n)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                   st.integers(2 ** 96, 2 ** 200)),
    i=st.one_of(st.just(0), st.integers(0, 2 ** 40)),
    sizes=st.one_of(st.sampled_from([1, 10000, 10001]), st.integers(1, 700),
                    st.integers(10001, 20000)).flatmap(_choice_sizes),
)
@example(seed=7, i=0, sizes=(1, 1))
@example(seed=2 ** 32 + 5, i=0, sizes=(10000, 10000))
@example(seed=10 ** 12, i=3, sizes=(10001, 200))  # k = n // 50: Floyd
@example(seed=2 ** 100 + 3, i=0, sizes=(10001, 201))  # k = n // 50 + 1: tail shuffle
@example(seed=2 ** 96, i=1, sizes=(10001, 10001))
@example(seed=0, i=0, sizes=(600, 16))
def test_draw_is_default_rng_choice_without_replacement(numpy_random, seed, i, sizes):
    n, k = sizes
    want = numpy_random.default_rng([seed, i]).choice(n, k, replace=False).tolist()
    assert _draw(seed, i, n, k) == want


def test_draw_redraws_where_default_rng_rejects(numpy_random):
    n = 3 * 2 ** 30  # Lemire's method rejects a quarter of the draws below n
    for i in range(20):
        want = numpy_random.default_rng([11, i]).choice(n, 2, replace=False).tolist()
        assert _draw(11, i, n, 2) == want
