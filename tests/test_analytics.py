"""ecosystem-analytics: sets, irregularities, changes, activity, trends."""

import datetime
import random

import pytest

from chartqa.analytics import (
    INFREQUENTLY_CHANGED,
    REGULARLY_CHANGED,
    UNCHANGED,
    adjacent_changes,
    change_histories,
    classify_activity,
    compute_maintainer_sets,
    detect_changes,
    detect_irregularities,
    period_metrics,
)
from chartqa.core import ChartRef, Maintainer
from chartqa.errors import SettingError
from chartqa.ingest import IndexEntry, RepoIndex, Snapshot

UTC = datetime.timezone.utc


def make_index(records, source="memory:"):
    """records: iterable of (name, version, [(maintainer_name, email), ...])."""
    entries = tuple(
        IndexEntry(
            ref=ChartRef.from_name_version(name, version),
            maintainers=tuple(Maintainer(name=n, email=e) for n, e in maintainers),
        )
        for name, version, maintainers in records
    )
    return RepoIndex(
        source=source,
        fetched_at=datetime.datetime(2018, 5, 15, tzinfo=UTC),
        entries=entries,
    )


def make_snapshot(snapshot_id, records, digests=None):
    index = make_index(records)
    return Snapshot(
        id=snapshot_id, index=index,
        content_digests=digests or {},
    )


# --- maintainer sets ---

def test_single_chart_single_maintainer():
    index = make_index([("redis", "1.0.0", [("alice", "a@x.io")])])
    sets, metrics = compute_maintainer_sets(index)
    assert len(sets) == 1
    assert metrics["maintainers"] == 1
    assert metrics["maintainer_sets"] == 1
    assert metrics["avg_charts_per_maintainer"] == 1.0
    assert metrics["avg_charts_per_set"] == 1.0
    assert metrics["avg_maintainers_per_set"] == 1.0
    assert metrics["max_charts_per_set"] == 1
    assert metrics["max_maintainers_per_set"] == 1


def test_exact_combination_defines_set():
    index = make_index([
        ("a", "1.0.0", [("m1", "m1@x.io"), ("m2", "m2@x.io")]),
        ("b", "1.0.0", [("m1", "m1@x.io")]),
    ])
    sets, metrics = compute_maintainer_sets(index)
    # oracle: exhaustive grouping by hand gives {m1,m2} and {m1}
    combos = sorted(tuple(sorted(m.key for m in s.members)) for s in sets)
    assert combos == [("email:m1@x.io",), ("email:m1@x.io", "email:m2@x.io")]
    assert metrics["maintainers"] == 2
    assert metrics["maintainer_sets"] == 2


def test_sets_partition_chart_files():
    index = make_index([
        ("a", "1.0.0", [("m1", "m1@x.io")]),
        ("a", "1.1.0", [("m1", "m1@x.io")]),
        ("b", "1.0.0", [("m2", "m2@x.io")]),
        ("c", "1.0.0", []),
    ])
    sets, metrics = compute_maintainer_sets(index)
    maintained = sum(len(s.chart_files) for s in sets)
    assert maintained + len(metrics["unmaintained_chart_files"]) == len(index.entries)
    seen = [f for s in sets for f in s.chart_files]
    assert len(seen) == len(set(seen))  # every maintained chart in exactly one set


def test_identity_merge_is_order_independent():
    records = [
        ("a", "1.0.0", [("bob", "b@x.io")]),
        ("b", "1.0.0", [("bobby", "B@X.io")]),
        ("c", "1.0.0", [("carol", "c@x.io"), ("bob", "b@x.io")]),
        ("d", "1.0.0", []),
    ]
    rng = random.Random(5)
    baseline = None
    for _ in range(6):
        shuffled = records[:]
        rng.shuffle(shuffled)
        sets, metrics = compute_maintainer_sets(make_index(shuffled))
        summary = (
            sorted(tuple(sorted(m.key for m in s.members)) for s in sets),
            sorted((m.key, tuple(sorted(m.names_seen))) for s in sets for m in s.members),
            metrics["maintainers"],
        )
        if baseline is None:
            baseline = summary
        assert summary == baseline


def test_identity_email_normalization():
    index = make_index([
        ("a", "1.0.0", [("bob", "Bob@X.io ")]),
        ("b", "1.0.0", [("bobby", "bob@x.io")]),
    ])
    _, metrics = compute_maintainer_sets(index)
    assert metrics["maintainers"] == 1  # merged by normalized e-mail


def test_unmaintained_bucket_counts_in_headline_sets():
    index = make_index([
        ("a", "1.0.0", [("m1", "m1@x.io")]),
        ("b", "1.0.0", []),
        ("c", "1.0.0", []),
    ])
    sets, metrics = compute_maintainer_sets(index)
    assert len(sets) == 1
    assert metrics["maintainer_sets"] == 2  # one real set + the nobody bucket
    assert metrics["unmaintained_chart_files"] == ["b-1.0.0.tgz", "c-1.0.0.tgz"]


def test_a_maintainer_record_with_neither_name_nor_email_maintains_nothing():
    index = make_index([
        ("a", "1.0.0", [(None, None)]),
        ("b", "1.0.0", [(None, None), ("m1", "m1@x.io")]),
    ])
    sets, metrics = compute_maintainer_sets(index)
    assert [(tuple(m.key for m in s.members), s.chart_files) for s in sets] == [
        (("email:m1@x.io",), ("b-1.0.0.tgz",)),
    ]
    assert metrics["maintainers"] == 1
    assert metrics["unmaintained_chart_files"] == ["a-1.0.0.tgz"]
    assert detect_irregularities(index).no_maintainer == (index.entries[0].ref,)


def test_a_maintainer_named_only_by_spaces_maintains_nothing_by_either_rule():
    index = make_index([
        ("a", "1.0.0", [("  ", None), (None, " \t")]),
        ("b", "1.0.0", [("m1", "m1@x.io")]),
    ])
    _, metrics = compute_maintainer_sets(index)
    assert metrics["unmaintained_chart_files"] == ["a-1.0.0.tgz"]
    assert detect_irregularities(index).no_maintainer == (index.entries[0].ref,)


# --- irregularities ---

def test_name_collision_self_reference():
    index = make_index([("x", "1.0.0", [("x", "x@x.io")])])
    report = detect_irregularities(index)
    assert [r.name for r in report.name_collision] == ["x"]


def test_alias_names_by_email():
    index = make_index([
        ("a", "1.0.0", [("bob", "b@x.io")]),
        ("b", "1.0.0", [("bobby", "b@x.io")]),
    ])
    report = detect_irregularities(index)
    # oracle: group-by-email by hand
    assert report.alias_names == (("b@x.io", frozenset({"bob", "bobby"})),)


def test_reference_shaped_corpus_counts():
    """Synthetic corpus mirroring the reference snapshot's irregularity shape:
    177 files, 153 stems, 10 no-maintainer, 1 collision, 5 multi-version stems,
    8 alias e-mails."""
    records = []
    for i in range(153):
        name = f"app{i}"
        if i < 10:
            maintainers = []
        elif i == 10:
            maintainers = [(name, f"{name}@x.io")]  # collision
        elif 11 <= i < 19:
            maintainers = [(f"dev{i}a", f"alias{i - 11}@x.io")]
        elif 19 <= i < 27:
            # second name on the same address: 8 alias e-mails in total
            maintainers = [(f"dev{i}b", f"alias{i - 19}@x.io")]
        else:
            maintainers = [(f"dev{i}", f"dev{i}@x.io")]
        records.append((name, "1.0.0", maintainers))
        # 24 extra versions over 5 stems: app148 gets 20, app149..152 one each
        extra = 20 if i == 148 else (1 if i >= 149 else 0)
        for k in range(extra):
            records.append((name, f"1.0.{k + 1}", maintainers))
    index = make_index(records)
    report = detect_irregularities(index)
    assert len(index.entries) == 177
    assert len({e.ref.stem for e in index.entries}) == 153
    assert len(report.no_maintainer) == 10
    assert len(report.name_collision) == 1
    assert len(report.multiple_versions) == 5
    assert len(report.alias_names) == 8


# --- change detection ---

def test_detect_changes_vupdate():
    a = make_snapshot("2018-05-15", [("redis", "1.0.0", [])])
    b = make_snapshot("2018-05-16", [("redis", "1.0.1", [])])
    changes = detect_changes(a, b)
    assert changes.added == ()
    assert changes.removed == ()
    assert [(old.file_name, new.file_name) for old, new in changes.vupdates] == [
        ("redis-1.0.0.tgz", "redis-1.0.1.tgz"),
    ]


def test_detect_changes_identical_snapshots():
    records = [("redis", "1.0.0", []), ("web", "2.0.0", [])]
    digests = {"redis-1.0.0.tgz": "d1", "web-2.0.0.tgz": "d2"}
    a = make_snapshot("2018-05-15", records, digests)
    b = make_snapshot("2018-05-16", records, digests)
    assert detect_changes(a, b).is_empty


def test_detect_changes_digest_update():
    records = [("redis", "1.0.0", [])]
    a = make_snapshot("2018-05-15", records, {"redis-1.0.0.tgz": "old"})
    b = make_snapshot("2018-05-16", records, {"redis-1.0.0.tgz": "new"})
    changes = detect_changes(a, b)
    assert [r.file_name for r in changes.updated] == ["redis-1.0.0.tgz"]
    assert changes.vupdates == ()


def test_detect_changes_categories_disjoint_and_pairing_bound():
    a = make_snapshot("2018-05-15", [
        ("kafka", "1.0.0", []), ("kafka", "1.1.0", []), ("solo", "1.0.0", []),
    ])
    b = make_snapshot("2018-05-16", [
        ("kafka", "2.0.0", []), ("newcomer", "1.0.0", []),
    ])
    changes = detect_changes(a, b)
    buckets = (
        [r.file_name for r in changes.added],
        [r.file_name for r in changes.removed],
        [r.file_name for r in changes.updated],
        [f for old, new in changes.vupdates for f in (old.file_name, new.file_name)],
    )
    flat = [f for bucket in buckets for f in bucket]
    assert len(flat) == len(set(flat))
    assert len(changes.vupdates) == 1  # min(2 removals, 1 addition) sharing the stem
    assert changes.vupdates[0][0].version == "1.0.0"  # smallest removed version first


def test_vupdate_pairs_differ_in_version():
    a = make_snapshot("2018-05-15", [("web-app", "1.0.0", [])])
    b = make_snapshot("2018-05-16", [("webapp", "1.0.0", [])])
    # same stem, same version string: must not pair as a vupdate
    changes = detect_changes(a, b)
    assert changes.vupdates == ()
    assert [r.file_name for r in changes.removed] == ["web-app-1.0.0.tgz"]
    assert [r.file_name for r in changes.added] == ["webapp-1.0.0.tgz"]


# --- activity clustering ---

def test_classify_activity_table_boundaries():
    histories = {
        "zero": [False] * 30,
        "ten": [True] * 3 + [False] * 27,
        "fifty": [True] * 15 + [False] * 15,
        "eighty2": [True] * 25 + [False] * 5,
    }
    levels = {p.stem: p.level for p in classify_activity(histories)}
    assert levels == {
        "zero": UNCHANGED,
        "ten": INFREQUENTLY_CHANGED,
        "fifty": INFREQUENTLY_CHANGED,  # dcr == 50 stays infrequent
        "eighty2": REGULARLY_CHANGED,
    }
    dcrs = {p.stem: p.dcr for p in classify_activity(histories)}
    assert dcrs["eighty2"] == pytest.approx(83.33, abs=0.01)


def test_classify_activity_epsilon_above_fifty():
    profiles = classify_activity({"edge": [True] * 51 + [False] * 49})
    assert profiles[0].dcr == pytest.approx(51.0)
    assert profiles[0].level == REGULARLY_CHANGED


def test_change_histories_flags():
    snaps = [
        make_snapshot("2018-05-15", [("a", "1.0.0", []), ("b", "1.0.0", [])],
                      {"a-1.0.0.tgz": "d1", "b-1.0.0.tgz": "x1"}),
        make_snapshot("2018-05-16", [("a", "1.0.1", []), ("b", "1.0.0", [])],
                      {"a-1.0.1.tgz": "d2", "b-1.0.0.tgz": "x1"}),
        make_snapshot("2018-05-17", [("a", "1.0.1", []), ("b", "1.0.0", [])],
                      {"a-1.0.1.tgz": "d3", "b-1.0.0.tgz": "x1"}),
    ]
    histories = change_histories(snaps, adjacent_changes(snaps))
    assert histories == {"a": [True, True], "b": [False, False]}


# --- period metrics ---

@pytest.mark.parametrize("start, end, message", [
    ("2018-05-15", "2018-07-01", "unknown snapshot id"),
    ("2018-06-14", "2018-05-15", "end must come after start"),
])
def test_period_range_checks_are_setting_errors(start, end, message):
    snaps = [make_snapshot(day, [("a", "1.0.0", [])], {"a-1.0.0.tgz": "d1"})
             for day in ("2018-05-15", "2018-06-14")]
    with pytest.raises(SettingError, match=message):
        period_metrics(snaps, [("p", start, end)], adjacent_changes(snaps))


def test_period_metrics_synthetic_hand_computed():
    day0 = [("a", "1.0.0", []), ("b", "1.0.0", [])]
    day30 = [("a", "1.0.1", []), ("b", "1.0.0", []), ("c", "1.0.0", [])]
    snaps = [
        make_snapshot("2018-05-15", day0,
                      {"a-1.0.0.tgz": "d1", "b-1.0.0.tgz": "x1"}),
        make_snapshot("2018-06-14", day30,
                      {"a-1.0.1.tgz": "d2", "b-1.0.0.tgz": "x1", "c-1.0.0.tgz": "c1"}),
    ]
    periods = [("calibration", "2018-05-15", "2018-06-14")]
    table = period_metrics(snaps, periods, adjacent_changes(snaps))
    (period,) = table["periods"]
    assert period["days"] == 30
    assert period["months"] == pytest.approx(1.0)
    # hand computation: 2 -> 3 charts over one month is +50%
    charts = period["metrics"]["charts"]
    assert charts["start"] == 2 and charts["end"] == 3
    assert charts["monthly_growth_pct"] == pytest.approx(50.0)
    # one vupdated stem out of 2 starting files over one month
    assert period["changed_chart_count"] == 1
    assert period["changed_charts_pct_monthly"] == pytest.approx(50.0)


def test_period_metrics_no_changes_everything_zero():
    records = [("a", "1.0.0", [("m", "m@x.io")])]
    digests = {"a-1.0.0.tgz": "same"}
    snaps = [
        make_snapshot("2018-05-15", records, digests),
        make_snapshot("2018-05-16", records, digests),
    ]
    periods = [("quiet", "2018-05-15", "2018-05-16")]
    table = period_metrics(snaps, periods, adjacent_changes(snaps))
    (period,) = table["periods"]
    assert period["changed_charts_pct_monthly"] == 0.0
    for metric in period["metrics"].values():
        if metric["monthly_growth_pct"] is not None:
            assert metric["monthly_growth_pct"] == pytest.approx(0.0)


def test_period_metrics_two_month_geometric_normalization():
    day0 = [(f"c{i}", "1.0.0", []) for i in range(100)]
    day60 = [(f"c{i}", "1.0.0", []) for i in range(121)]
    snaps = [
        make_snapshot("2018-07-15", day0),
        make_snapshot("2018-09-13", day60),  # 60 days later
    ]
    periods = [("continuation", "2018-07-15", "2018-09-13")]
    table = period_metrics(snaps, periods, adjacent_changes(snaps))
    (period,) = table["periods"]
    # 100 -> 121 over two months is +10% per month geometrically
    assert period["months"] == pytest.approx(2.0)
    assert period["metrics"]["charts"]["monthly_growth_pct"] == pytest.approx(10.0)
