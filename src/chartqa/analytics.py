"""Ecosystem analytics: maintainer sets, irregularities, change tracking.

Maintainer identities merge records by normalized e-mail (e-mails are
lowercased and trimmed, names trimmed but case-preserved); a chart's exact
identity combination defines its maintainer set. Charts without maintainer
information are kept in a designated bucket that is reported separately
but counted in the headline set total, mirroring how the reference metrics
present the "maintained by nobody" group as a single set.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import ChartRef, Maintainer
from .errors import SettingError
from .ingest import RepoIndex, Snapshot

REGULARLY_CHANGED = "RegularlyChanged"
INFREQUENTLY_CHANGED = "InfrequentlyChanged"
UNCHANGED = "Unchanged"

NO_MAINTAINER = "no-maintainer"
NAME_COLLISION = "name-collision"
# kind -> detail of each per-chart irregularity rule
CHART_RULES = {
    NO_MAINTAINER: "no maintainer is defined",
    NAME_COLLISION: "chart name matches a maintainer name",
}


@dataclass(frozen=True)
class MaintainerIdentity:
    key: str  # normalized e-mail when present, else normalized name
    names_seen: frozenset[str]
    emails_seen: frozenset[str]


@dataclass(frozen=True)
class MaintainerSet:
    """An exact combination of maintainer identities and what they maintain."""

    members: tuple[MaintainerIdentity, ...]
    chart_files: tuple[str, ...]  # file names, the non-unique chart view

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class IrregularityReport:
    no_maintainer: tuple[ChartRef, ...]
    name_collision: tuple[ChartRef, ...]
    multiple_versions: tuple[str, ...]  # stems with >= 2 chart files
    alias_names: tuple[tuple[str, frozenset[str]], ...]  # (email, names)

    @property
    def total(self) -> int:
        return (
            len(self.no_maintainer) + len(self.name_collision)
            + len(self.multiple_versions) + len(self.alias_names)
        )

    def chart_findings(self) -> list[tuple[str, ChartRef]]:
        """(kind, chart) for each per-chart rule a chart breaks, kind by kind."""
        return [(NO_MAINTAINER, ref) for ref in self.no_maintainer] + \
            [(NAME_COLLISION, ref) for ref in self.name_collision]


def chart_irregularities(ref: ChartRef, maintainers: Sequence[Maintainer]) -> list[str]:
    """Kinds of the CHART_RULES that one chart breaks, in table order."""
    kinds = []
    if not any(m.well_formed for m in maintainers):
        kinds.append(NO_MAINTAINER)
    if any(m.name and m.name == ref.name for m in maintainers):
        kinds.append(NAME_COLLISION)
    return kinds


def _identity_key(maintainer: Maintainer) -> str | None:
    name, email = maintainer.normalized_name, maintainer.normalized_email
    if not name and not email:
        return None
    return f"email:{email}" if email else f"name:{name}"


def compute_maintainer_sets(index: RepoIndex) -> tuple[list[MaintainerSet], dict]:
    """Group charts by their exact maintainer combination and derive metrics.

    Records merge into identities by normalized e-mail, falling back to the
    normalized name for a record without one.
    """
    names_by_key: dict[str, set[str]] = {}
    emails_by_key: dict[str, set[str]] = {}
    combo_files: dict[tuple[str, ...], list[ChartRef]] = {}
    unmaintained: list[ChartRef] = []

    for entry in index.entries:
        keys = []
        for maintainer in entry.maintainers:
            key = _identity_key(maintainer)
            if key is None:
                continue
            names_by_key.setdefault(key, set())
            emails_by_key.setdefault(key, set())
            if maintainer.normalized_name:
                names_by_key[key].add(maintainer.normalized_name)
            if maintainer.normalized_email:
                emails_by_key[key].add(maintainer.normalized_email)
            keys.append(key)
        combo = tuple(sorted(set(keys)))
        if combo:
            combo_files.setdefault(combo, []).append(entry.ref)
        else:
            unmaintained.append(entry.ref)

    identities = {
        key: MaintainerIdentity(
            key=key,
            names_seen=frozenset(names_by_key[key]),
            emails_seen=frozenset(emails_by_key[key]),
        )
        for key in names_by_key
    }
    sets = [
        MaintainerSet(
            members=tuple(identities[key] for key in combo),
            chart_files=tuple(sorted(ref.file_name for ref in refs)),
        )
        for combo, refs in sorted(combo_files.items())
    ]

    chart_files = len(index.entries)
    maintainer_count = len(identities)
    set_count = len(sets) + (1 if unmaintained else 0)
    unique_emails = {e for ident in identities.values() for e in ident.emails_seen}
    metrics = {
        "maintainers": maintainer_count,
        "maintainer_sets": set_count,
        "chart_files": chart_files,
        "unique_stems": len({entry.ref.stem for entry in index.entries}),
        "avg_charts_per_maintainer":
            chart_files / maintainer_count if maintainer_count else 0.0,
        "avg_charts_per_set": chart_files / set_count if set_count else 0.0,
        "max_charts_per_set":
            max((len(s.chart_files) for s in sets), default=0),
        "avg_maintainers_per_set":
            maintainer_count / set_count if set_count else 0.0,
        "max_maintainers_per_set": max((s.size for s in sets), default=0),
        "unique_emails": len(unique_emails),
        "unmaintained_chart_files": sorted(ref.file_name for ref in unmaintained),
    }
    return sets, metrics


def detect_irregularities(index: RepoIndex) -> IrregularityReport:
    """Catalogue metadata irregularities of a parsed repository index."""
    charts_by_kind: dict[str, list[ChartRef]] = {kind: [] for kind in CHART_RULES}
    names_by_email: dict[str, set[str]] = {}
    stem_counts: dict[str, int] = {}

    for entry in index.entries:
        stem_counts[entry.ref.stem] = stem_counts.get(entry.ref.stem, 0) + 1
        for kind in chart_irregularities(entry.ref, entry.maintainers):
            charts_by_kind[kind].append(entry.ref)
        for maintainer in entry.maintainers:
            if maintainer.normalized_email:
                names = names_by_email.setdefault(maintainer.normalized_email, set())
                if maintainer.normalized_name:
                    names.add(maintainer.normalized_name)

    multiple_versions = tuple(sorted(s for s, n in stem_counts.items() if n >= 2))
    alias_names = tuple(
        (email, frozenset(names))
        for email, names in sorted(names_by_email.items())
        if len(names) >= 2
    )
    return IrregularityReport(
        no_maintainer=tuple(charts_by_kind[NO_MAINTAINER]),
        name_collision=tuple(charts_by_kind[NAME_COLLISION]),
        multiple_versions=multiple_versions,
        alias_names=alias_names,
    )


@dataclass(frozen=True)
class ChangeSet:
    from_id: str
    to_id: str
    added: tuple[ChartRef, ...]
    removed: tuple[ChartRef, ...]
    updated: tuple[ChartRef, ...]  # same (name, version), changed digest
    vupdates: tuple[tuple[ChartRef, ChartRef], ...]  # (removed, added)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.updated or self.vupdates)

    def touched_stems(self) -> set[str]:
        stems = {ref.stem for ref in self.added + self.removed + self.updated}
        stems.update(old.stem for old, _ in self.vupdates)
        return stems


def detect_changes(a: Snapshot, b: Snapshot) -> ChangeSet:
    """Classify differences between two snapshots, pairing vupdates.

    A version update is one removal paired with one addition sharing a
    stem; pairing is greedy over lexicographically sorted versions so the
    categorization is deterministic. Same (name, version) with a changed
    content digest counts as an update.
    """
    refs_a = {entry.ref.file_name: entry.ref for entry in a.index.entries}
    refs_b = {entry.ref.file_name: entry.ref for entry in b.index.entries}

    removed_raw = [refs_a[f] for f in sorted(refs_a.keys() - refs_b.keys())]
    added_raw = [refs_b[f] for f in sorted(refs_b.keys() - refs_a.keys())]
    updated = []
    for file_name in sorted(refs_a.keys() & refs_b.keys()):
        digest_a = a.content_digests.get(file_name)
        digest_b = b.content_digests.get(file_name)
        if digest_a and digest_b and digest_a != digest_b:
            updated.append(refs_b[file_name])

    by_stem_removed: dict[str, list[ChartRef]] = {}
    by_stem_added: dict[str, list[ChartRef]] = {}
    for ref in removed_raw:
        by_stem_removed.setdefault(ref.stem, []).append(ref)
    for ref in added_raw:
        by_stem_added.setdefault(ref.stem, []).append(ref)

    vupdates = []
    paired: set[str] = set()
    for stem in sorted(by_stem_removed.keys() & by_stem_added.keys()):
        olds = sorted(by_stem_removed[stem], key=lambda r: (r.version, r.file_name))
        news = sorted(by_stem_added[stem], key=lambda r: (r.version, r.file_name))
        i = j = 0
        while i < len(olds) and j < len(news):
            if olds[i].version == news[j].version:
                j += 1  # a vupdate must change the version string
                continue
            vupdates.append((olds[i], news[j]))
            paired.add(olds[i].file_name)
            paired.add(news[j].file_name)
            i += 1
            j += 1

    return ChangeSet(
        from_id=a.id,
        to_id=b.id,
        added=tuple(r for r in added_raw if r.file_name not in paired),
        removed=tuple(r for r in removed_raw if r.file_name not in paired),
        updated=tuple(updated),
        vupdates=tuple(vupdates),
    )


@dataclass(frozen=True)
class ActivityProfile:
    stem: str
    days_observed: int
    days_changed: int

    @property
    def dcr(self) -> float:
        """Percentage of observed days with changes."""
        return 100.0 * self.days_changed / self.days_observed

    @property
    def level(self) -> str:
        if self.dcr > 50:
            return REGULARLY_CHANGED
        if self.dcr > 0:
            return INFREQUENTLY_CHANGED
        return UNCHANGED


def classify_activity(histories: Mapping[str, Sequence[bool]]) -> list[ActivityProfile]:
    """Cluster per-stem daily change flags into the three activity levels."""
    profiles = []
    for stem in sorted(histories):
        flags = list(histories[stem])
        if not flags:
            raise ValueError(f"{stem}: activity needs at least one observed day")
        profiles.append(ActivityProfile(
            stem=stem,
            days_observed=len(flags),
            days_changed=sum(bool(f) for f in flags),
        ))
    return profiles


def adjacent_changes(snapshots: Sequence[Snapshot]) -> list[ChangeSet]:
    """The ChangeSet of each consecutive pair of an ordered snapshot series."""
    return [detect_changes(before, after) for before, after in zip(snapshots, snapshots[1:])]


def change_histories(
    snapshots: Sequence[Snapshot], changes: Sequence[ChangeSet],
) -> dict[str, list[bool]]:
    """Daily change flags per stem across an ordered snapshot series.

    The observed universe is every stem appearing in any snapshot; each
    consecutive snapshot pair contributes one flag per stem. ``changes``
    is ``adjacent_changes(snapshots)``.
    """
    if len(snapshots) < 2:
        raise ValueError("change histories need at least two snapshots")
    universe: set[str] = set()
    for snapshot in snapshots:
        universe.update(entry.ref.stem for entry in snapshot.index.entries)
    histories = {stem: [] for stem in sorted(universe)}
    for change_set in changes:
        touched = change_set.touched_stems()
        for stem in histories:
            histories[stem].append(stem in touched)
    return histories


def _monthly_growth_pct(start: float, end: float, months: float) -> float | None:
    if start <= 0 or end <= 0:
        return None
    ratio = end / start
    if months > 0:
        ratio = ratio ** (1.0 / months)
    return (ratio - 1.0) * 100.0


def _snapshot_date(snapshot: Snapshot) -> datetime.date:
    return datetime.date.fromisoformat(snapshot.id)


def _index_metrics(index: RepoIndex) -> dict:
    """The trend metrics of one snapshot's index, by name."""
    _, set_metrics = compute_maintainer_sets(index)
    irregularities = detect_irregularities(index)
    metrics = {"charts": set_metrics["chart_files"], "unique_charts": set_metrics["unique_stems"]}
    for name in ("maintainers", "maintainer_sets", "avg_charts_per_maintainer",
                 "avg_charts_per_set", "max_charts_per_set", "avg_maintainers_per_set",
                 "max_maintainers_per_set"):
        metrics[name] = set_metrics[name]
    for kind in ("no_maintainer", "name_collision", "multiple_versions", "alias_names"):
        metrics[f"irregularity_{kind}"] = len(getattr(irregularities, kind))
    return metrics


def period_metrics(
    snapshots: Sequence[Snapshot],
    periods: Iterable[tuple[str, str, str]],
    changes: Sequence[ChangeSet],
) -> dict:
    """Per-period trend metrics, normalized to monthly rates.

    ``periods`` lists (label, start snapshot id, end snapshot id);
    ``changes`` is ``adjacent_changes(snapshots)``. Growth rates are
    geometric monthly averages over months of 30 days; the changed-charts
    percentage counts chart files with at least one update plus stems with
    at least one vupdate, relative to the chart-file count at period start,
    arithmetically divided by the period length in months.
    """
    by_id = {snapshot.id: snapshot for snapshot in snapshots}
    ordered_ids = [snapshot.id for snapshot in snapshots]
    out_periods = []
    for label, start_id, end_id in periods:
        if start_id not in by_id or end_id not in by_id:
            raise SettingError(f"period {label!r}: unknown snapshot id")
        i, j = ordered_ids.index(start_id), ordered_ids.index(end_id)
        if j <= i:
            raise SettingError(f"period {label!r}: end must come after start")
        start, end = snapshots[i], snapshots[j]
        days = (_snapshot_date(end) - _snapshot_date(start)).days
        months = days / 30.0 if days > 0 else 1.0

        updated_files: set[str] = set()
        vupdated_stems: set[str] = set()
        for change_set in changes[i:j]:
            updated_files.update(ref.file_name for ref in change_set.updated)
            vupdated_stems.update(old.stem for old, _ in change_set.vupdates)
        start_files = len(start.index.entries)
        changed_count = len(updated_files) + len(vupdated_stems)
        changed_pct = (
            100.0 * changed_count / start_files / months if start_files else 0.0
        )

        start_metrics, end_metrics = _index_metrics(start.index), _index_metrics(end.index)
        out_periods.append({
            "label": label,
            "start": start.id,
            "end": end.id,
            "days": days,
            "months": months,
            "changed_charts_pct_monthly": changed_pct,
            "changed_chart_count": changed_count,
            "metrics": {
                name: {
                    "start": s,
                    "end": end_metrics[name],
                    "monthly_growth_pct": _monthly_growth_pct(s, end_metrics[name], months),
                }
                for name, s in start_metrics.items()
            },
        })
    return {"normalization": "geometric-monthly-30d", "periods": out_periods}
