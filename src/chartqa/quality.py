"""Core detectors: the variability learner and the duplicate-value detector.

Duplicates are counted on template sources with every directive replaced by
a unique sentinel, so only literal values are ever reported; counting the
rendered output instead would flag exactly the charts that deduplicate
correctly through variable substitution.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from . import DEFAULT_BLACKLIST, DEFAULT_THRESHOLD
from .core import ChartPackage, ChartRef
from .errors import KnowledgeBaseError, RenderFailed, SettingError
from .yamlutil import SourceLeaf, sentinel_parse

if TYPE_CHECKING:  # the functions that render import render, so duplicate checks never load it
    from .render import Renderer, RenderFailure, RenderResult

MIN_VALUE_LENGTH = 2


class VariabilityKnowledgeBase:
    """Learned override values that make renders deterministic.

    Entries are keyed by (chart stem, rendered key path); an existing entry
    is never replaced, and ``learn_variability`` is the only analysis that
    adds entries. Persisted as a single JSON mapping
    ``"<stem>|<key_path>" -> override`` written atomically.
    """

    def __init__(self):
        self.entries: dict[tuple[str, str], str] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def overrides_for(self, stem: str) -> dict[str, str]:
        return {
            key_path: value
            for (entry_stem, key_path), value in self.entries.items()
            if entry_stem == stem
        }

    def learn(self, stem: str, key_path: str, value: str) -> bool:
        """Record an override; returns False when the entry already exists."""
        key = (stem, key_path)
        if key in self.entries:
            return False
        self.entries[key] = value
        return True

    @classmethod
    def load(cls, path: str) -> "VariabilityKnowledgeBase":
        kb = cls()
        if not os.path.exists(path):
            return kb
        with open(path, encoding="utf-8") as fh:
            try:
                flat = json.load(fh)
            except json.JSONDecodeError as exc:
                raise KnowledgeBaseError(f"{path}: not JSON: {exc}") from exc
        if not isinstance(flat, dict) or not all(isinstance(v, str) for v in flat.values()):
            raise KnowledgeBaseError(f"{path}: want a JSON object of string values")
        for key, value in flat.items():
            stem, _, key_path = key.partition("|")
            kb.entries[(stem, key_path)] = value
        return kb

    def save(self, path: str) -> None:
        flat = {f"{stem}|{key_path}": value for (stem, key_path), value in self.entries.items()}
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
    ``learn_variability`` stores in a knowledge base.

    The second render is made against the first, so only templates whose
    rendered text differs are parsed and compared: equal text gives equal
    leaves, which can teach nothing. Failures come from the first render.
    """
    from .render import BuiltinEngine, flatten_documents, render_chart

    engine = engine or BuiltinEngine()
    first = render_chart(pkg, overrides, engine)
    second = render_chart(pkg, overrides, engine, earlier=first)
    second_leaves = dict(flatten_documents(second.documents))
    changed = dict(flatten_documents(first.restricted(second.differing(first))))
    learned = {key_path: value for key_path, value in changed.items()
               if key_path not in overrides and second_leaves.get(key_path, value) != value}
    first.pin(learned)
    return first, learned


def _require_rendered(pkg: ChartPackage, result: RenderResult) -> None:
    """Raise RenderFailed when the chart has templates and every one failed."""
    if not result.documents and result.failures and pkg.templates:
        raise RenderFailed(
            f"{pkg.metadata.name}: every template failed: "
            + "; ".join(f.reason for f in result.failures[:3])
        )


def learn_variability(
    pkg: ChartPackage,
    kb: VariabilityKnowledgeBase,
    engine: Renderer | None = None,
) -> tuple[VariabilityKnowledgeBase, list[str]]:
    """Detect variable template values by comparing two fresh renders.

    Stores each learned value in ``kb`` under the chart's stem and returns
    the knowledge base and the newly learned key paths; raises RenderFailed
    when every template of the chart failed.
    """
    result, learned = probe_variability(pkg, kb.overrides_for(pkg.stem), engine)
    _require_rendered(pkg, result)
    for key_path, value in learned.items():
        kb.learn(pkg.stem, key_path, value)
    return kb, sorted(learned)


def stabilize_render(
    pkg: ChartPackage,
    kb: VariabilityKnowledgeBase,
    engine: Renderer | None = None,
) -> RenderResult:
    """Single render with all knowledge-base overrides for this stem applied."""
    from .render import BuiltinEngine, render_chart

    engine = engine or BuiltinEngine()
    result = render_chart(pkg, kb.overrides_for(pkg.stem), engine)
    _require_rendered(pkg, result)
    return result


@dataclass(frozen=True)
class DuplicateGroup:
    canonical_value: str
    leaves: tuple[SourceLeaf, ...]  # source order

    @property
    def occurrences(self) -> tuple[str, ...]:
        """Key paths of the leaves, in source order."""
        return tuple(leaf.path for leaf in self.leaves)

    @property
    def count(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class DuplicateReport:
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


@dataclass(frozen=True)
class DuplicateConfig:
    threshold: int = DEFAULT_THRESHOLD
    blacklist: tuple[str, ...] = DEFAULT_BLACKLIST

    def __post_init__(self):
        if self.threshold < 2:
            raise SettingError("duplicate threshold must be at least 2")


def detect_duplicates(
    pkg: ChartPackage, config: DuplicateConfig | None = None
) -> DuplicateReport:
    """Find literal values repeated at or above the threshold within one chart.

    Values are grouped by canonical scalar form across all templates of the
    chart; blacklisted values, values shorter than two characters and
    anything carrying a directive placeholder are never reported. A value
    is counted where it is written, so an alias to it adds nothing. Groups
    are ordered by descending occurrence count, ties by value.
    """
    config = config or DuplicateConfig()
    blacklist = set(config.blacklist)
    occurrences: dict[str, list[SourceLeaf]] = {}
    unparseable = []
    for path, body in pkg.templates:
        parse = sentinel_parse(path, body)
        if parse.error is not None:
            unparseable.append((parse.template_path, parse.error))
            continue
        for leaf in parse.leaves:
            if leaf.templated or leaf.via_alias or len(leaf.value) < MIN_VALUE_LENGTH:
                continue
            if leaf.value in blacklist:
                continue
            occurrences.setdefault(leaf.value, []).append(leaf)
    groups = tuple(
        DuplicateGroup(canonical_value=value, leaves=tuple(leaves))
        for value, leaves in sorted(
            occurrences.items(), key=lambda item: (-len(item[1]), item[0])
        )
        if len(leaves) >= config.threshold
    )
    return DuplicateReport(
        chart=pkg.ref,
        groups=groups,
        threshold_used=config.threshold,
        blacklist_used=tuple(config.blacklist),
        unparseable=tuple(unparseable),
    )


@dataclass(frozen=True)
class QualityReport:
    chart: ChartRef
    variable_value_count: int
    variable_key_paths: tuple[str, ...]
    duplicate: DuplicateReport
    render_failures: tuple[RenderFailure, ...]


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
