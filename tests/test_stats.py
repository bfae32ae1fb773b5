"""Signed-rank test against exhaustive enumeration; resampling determinism."""

import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartqa.errors import AllZeroDifferences, SettingError
from chartqa.stats import _midranks, _sign_sum_counts, resampled_group_test, wilcoxon_signed_rank


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
