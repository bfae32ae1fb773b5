"""Core detectors: the variability learner and the duplicate-value detector.

Duplicates are counted on template sources with every directive replaced by
a unique sentinel, so only literal values are ever reported; counting the
rendered output instead would flag exactly the charts that deduplicate
correctly through variable substitution.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import DEFAULT_BLACKLIST, DEFAULT_THRESHOLD
from .core import ChartPackage, ChartRef
from .errors import KnowledgeBaseError, RenderFailed, SettingError
from .files import MAX_ARCHIVE_FILE_BYTES, read_json
from .yamlutil import SourceLeaf, sentinel_parse, sharing_compiles, source_leaf

if TYPE_CHECKING:  # the functions that render import render, so duplicate checks never load it
    from .render import Renderer, RenderFailure, RenderResult

MIN_VALUE_LENGTH = 2
# a stem ends at the first "|" with no "\" before it: a stem never holds "\"
# (file names cannot), so its own "|"s are written "\|"
_STEM_END = re.compile(r"(?<!\\)\|")


class VariabilityKnowledgeBase:
    """Learned override values that make renders deterministic.

    ``entries`` maps a chart stem to its ``{rendered key path: override}``;
    ``merge`` is the only writer, and it never replaces an entry.
    Persisted as a single JSON mapping ``"<stem>|<key_path>" -> override``
    written atomically; a ``|`` in a stem is written ``\\|``.
    """

    def __init__(self):
        self.entries: dict[str, dict[str, str]] = {}

    def __len__(self) -> int:
        return sum(map(len, self.entries.values()))

    def overrides_for(self, stem: str) -> dict[str, str]:
        return dict(self.entries.get(stem, {}))

    def merge(self, stem: str, learned: Mapping[str, str]) -> list[str]:
        """Learn each of ``learned`` that ``stem`` has no entry for; returns
        those key paths, sorted.

        An override pins only its own leaf, so a probe made against an
        earlier state of this knowledge base learns what one made against
        this state would, plus the stem's key paths learned since. Merging,
        in order, what charts learned against one state therefore gives
        what learning them one after another would.
        """
        known = self.entries.get(stem, {})
        new = {key_path: value for key_path, value in learned.items() if key_path not in known}
        if new:
            self.entries.setdefault(stem, {}).update(new)
        return sorted(new)

    @classmethod
    def load(cls, path: str) -> "VariabilityKnowledgeBase":
        kb = cls()
        if not os.path.exists(path):
            return kb
        flat = read_json(path, MAX_ARCHIVE_FILE_BYTES, KnowledgeBaseError)
        if not isinstance(flat, dict) or not all(isinstance(v, str) for v in flat.values()):
            raise KnowledgeBaseError(f"{path}: want a JSON object of string values")
        for key, value in flat.items():
            end = _STEM_END.search(key)
            stem, key_path = (key[:end.start()].replace("\\|", "|"), key[end.end():]) if end \
                else (key, "")
            kb.entries.setdefault(stem, {})[key_path] = value
        return kb

    def save(self, path: str) -> None:
        flat = {stem.replace("|", "\\|") + "|" + key_path: value
                for stem, overrides in self.entries.items()
                for key_path, value in overrides.items()}
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kb-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(flat, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


@sharing_compiles
def probe_variability(
    pkg: ChartPackage,
    overrides: Mapping[str, str],
    engine: Renderer | None = None,
) -> tuple[RenderResult, dict[str, str]]:
    """Render twice, find the leaves that differ, and return the pinned first render.

    ``overrides`` (the chart's knowledge-base entries) are injected into
    both renders; every other key path whose scalar value still differs
    between them is learned, with the first render's value as override.
    Those values are pinned onto the first render, so it is the stabilized
    render of the chart without a third pass. Returns that render, with its
    failures, and the learned ``{key path: value}``, which only
    ``VariabilityKnowledgeBase.merge`` stores in a knowledge base.

    The second render is made against the first, so only templates whose
    rendered text differs are parsed and compared: equal text gives equal
    leaves, which can teach nothing. Failures come from the first render.
    """
    from .render import BuiltinEngine, render_chart

    engine = engine or BuiltinEngine()
    first = render_chart(pkg, overrides, engine)
    second = render_chart(pkg, overrides, engine, earlier=first)
    second_leaves = second.leaf_values()
    changed = first.leaf_values(second.differing(first))
    learned = {key_path: value for key_path, value in changed.items()
               if key_path not in overrides and second_leaves.get(key_path, value) != value}
    first.pin(learned)
    return first, learned


def variable_values(
    pkg: ChartPackage,
    kb: VariabilityKnowledgeBase,
    engine: Renderer | None = None,
) -> dict[str, str] | RenderFailed:
    """What a probe of the chart with its stem's overrides in ``kb`` learns,
    ``{key path: value}``, or the RenderFailed of a chart whose every
    template failed. ``kb`` is only read; ``kb.merge`` stores the result.
    """
    result, learned = probe_variability(pkg, kb.overrides_for(pkg.stem), engine)
    if not result.documents and result.failures and pkg.templates:
        return RenderFailed(f"{pkg.metadata.name}: every template failed: "
                            + "; ".join(f.reason for f in result.failures[:3]))
    return learned


class DuplicateGroup(NamedTuple):
    canonical_value: str
    leaves: tuple[SourceLeaf, ...]  # source order

    @property
    def occurrences(self) -> tuple[str, ...]:
        """Key paths of the leaves, in source order."""
        return tuple(leaf.path for leaf in self.leaves)

    @property
    def count(self) -> int:
        return len(self.leaves)


class DuplicateReport(NamedTuple):
    chart: ChartRef
    groups: tuple[DuplicateGroup, ...]
    threshold_used: int
    blacklist_used: tuple[str, ...]
    unparseable: tuple[tuple[str, str], ...] = ()  # (template path, reason)

    @property
    def total_duplicate_values(self) -> int:
        return sum(group.count for group in self.groups)

    @property
    def is_empty(self) -> bool:
        return not self.groups


class _DuplicateConfigFields(NamedTuple):
    threshold: int
    blacklist: tuple[str, ...]


class DuplicateConfig(_DuplicateConfigFields):
    __slots__ = ()

    def __new__(cls, threshold: int = DEFAULT_THRESHOLD,
                blacklist: tuple[str, ...] = DEFAULT_BLACKLIST) -> "DuplicateConfig":
        if threshold < 2:
            raise SettingError("duplicate threshold must be at least 2")
        return super().__new__(cls, threshold, blacklist)

    @classmethod
    def _make(cls, fields) -> "DuplicateConfig":  # so _replace checks the threshold too
        return cls(*fields)


def detect_duplicates(
    pkg: ChartPackage, config: DuplicateConfig | None = None
) -> DuplicateReport:
    """Find literal values repeated at or above the threshold within one chart.

    Values are grouped by canonical scalar form across all templates of the
    chart; blacklisted values, values shorter than two characters and anything
    carrying a directive placeholder are never reported. A value is counted
    where it is written, so an alias to it adds nothing. Groups are ordered by
    descending count, ties by value. TooManyLeaves past the chart leaf budget.
    """
    config = config or DuplicateConfig()
    blacklist = set(config.blacklist)
    # per value, where it is written: ((template path, segments), leaf). A
    # SourceLeaf is built only for a group that is reported, and a record
    # holds no more of its template than that, so the rest is freed
    occurrences: dict[str, list] = {}
    unparseable = []
    for path, compiled in pkg.compiled_templates():
        parse = sentinel_parse(path, compiled)
        if parse.error is not None:
            unparseable.append((parse.template_path, parse.error))
            continue
        site = (parse.template_path, parse.segments)
        for leaf in parse.literals:
            _, _, value, templated, via_alias, _, _, _ = leaf
            if templated or via_alias or len(value) < MIN_VALUE_LENGTH or value in blacklist:
                continue
            occurrences.setdefault(value, []).append((site, leaf))
    reported = sorted((item for item in occurrences.items() if len(item[1]) >= config.threshold),
                      key=lambda item: (-len(item[1]), item[0]))
    occurrences.clear()  # the records of values not reported
    groups = []
    for value, found in reported:
        groups.append(DuplicateGroup(value, tuple(source_leaf(*site, leaf) for site, leaf in found)))
        found.clear()  # a record goes once its leaf is built
    return DuplicateReport(
        chart=pkg.ref,
        groups=tuple(groups),
        threshold_used=config.threshold,
        blacklist_used=tuple(config.blacklist),
        unparseable=tuple(unparseable),
    )


class QualityReport(NamedTuple):
    chart: ChartRef
    variable_value_count: int
    variable_key_paths: tuple[str, ...]
    duplicate: DuplicateReport
    render_failures: tuple[RenderFailure, ...]


@sharing_compiles
def analyze_chart(
    pkg: ChartPackage,
    kb: VariabilityKnowledgeBase | None = None,
    config: DuplicateConfig | None = None,
    engine: Renderer | None = None,
) -> QualityReport:
    """Compose variability probing, duplicate detection and render failures.

    The caller's knowledge base is only read: the probe takes this stem's
    overrides, and the reported key paths are the overrides that named a
    rendered leaf together with the keys the probe learned.
    """
    overrides = kb.overrides_for(pkg.stem) if kb is not None else {}
    probe, learned = probe_variability(pkg, overrides, engine)
    variable_paths = tuple(sorted(probe.applied | learned.keys()))
    return QualityReport(
        chart=pkg.ref,
        variable_value_count=len(variable_paths),
        variable_key_paths=variable_paths,
        duplicate=detect_duplicates(pkg, config),
        render_failures=tuple(probe.failures),
    )
