"""Deduplication rewrites: variable extraction plans, diffs, digests.

A plan replaces every located occurrence of a duplicated literal with a
``{{ .Values.suggestions.varN }}`` placeholder and adds the matching
``suggestions:`` block to values.yaml. Occurrences are located on template
source bytes at YAML-leaf positions from the sentinel parse, so keys,
comments and directive bodies are never touched.
"""

from __future__ import annotations

import difflib
import os
import re
from typing import Iterable, NamedTuple

import yaml

from .analytics import CHART_RULES, IrregularityReport
from .core import ChartPackage, ChartRef
from .errors import (ChartQAError, EmptyReport, MetadataParseError, SpanLocationFailed,
                     SuggestionsDefined)
from .ingest import RepoIndex
from .quality import (DuplicateConfig, DuplicateReport, VariabilityKnowledgeBase,
                      detect_duplicates, probe_variability)
from .render import Renderer, render_chart
from .yamlutil import SourceLeaf, load_unique, sentinel_parse, sharing_compiles, splice

UNADDRESSABLE = "unaddressable"
SUBJECT_PREFIX = "chartqa"


class Occurrence(NamedTuple):
    template_path: str
    span: tuple[int, int]  # byte span in the template source
    quote: str | None  # quote character to preserve, if any


class Assignment(NamedTuple):
    var_name: str  # suggestions.varN
    value: str
    target_occurrences: tuple[Occurrence, ...]


class RewritePlan(NamedTuple):
    chart: ChartRef
    assignments: tuple[Assignment, ...]
    values_patch: str  # YAML fragment adding the suggestions block
    skipped_groups: tuple[tuple[str, str], ...] = ()  # (value, reason)


def _locate_occurrence(leaf: SourceLeaf, source: str) -> Occurrence:
    """Pin a leaf to a literal byte span, or raise SpanLocationFailed."""
    if leaf.span is None:
        raise SpanLocationFailed(f"{leaf.path}: no source span for leaf")
    start, end = leaf.span
    text = source[start:end]
    if leaf.style in ('"', "'"):
        if len(text) >= 2 and text[0] == leaf.style and text[-1] == leaf.style \
                and text[1:-1] == leaf.value:
            return Occurrence(leaf.template_path, (start, end), leaf.style)
        raise SpanLocationFailed(f"{leaf.path}: quoted source differs from value")
    if leaf.style is None and text == leaf.value:
        return Occurrence(leaf.template_path, (start, end), None)
    raise SpanLocationFailed(
        f"{leaf.path}: source style {leaf.style!r} not literally replaceable"
    )


def plan_rewrite(pkg: ChartPackage, report: DuplicateReport) -> RewritePlan:
    """Turn a duplicate report into a variable-extraction rewrite plan.

    Groups are processed in descending count order (ties by value); each
    successfully located group takes the next consecutive varN. Groups
    whose occurrences cannot all be located as source literals are skipped,
    each listed with its reason in ``skipped_groups``, rather than aborting
    the plan.
    """
    if report.chart != pkg.ref:
        raise ValueError("duplicate report does not belong to this package")
    if report.is_empty:
        raise EmptyReport(f"{pkg.metadata.name}: no duplicate groups to rewrite")
    if isinstance(pkg.values, dict) and "suggestions" in pkg.values:
        raise SuggestionsDefined("values.yaml already defines a 'suggestions' block")

    bodies = dict(pkg.templates)
    assignments = []
    skipped = []
    var_index = 1
    for group in report.groups:
        try:
            occurrences = [_locate_occurrence(leaf, bodies[leaf.template_path])
                           for leaf in group.leaves]
        except SpanLocationFailed as exc:
            skipped.append((group.canonical_value, str(exc)))
            continue
        assignments.append(Assignment(
            var_name=f"suggestions.var{var_index}",
            value=group.canonical_value,
            target_occurrences=tuple(occurrences),
        ))
        var_index += 1

    spans_by_template: dict[str, list[tuple[int, int]]] = {}
    for assignment in assignments:
        for occ in assignment.target_occurrences:
            spans_by_template.setdefault(occ.template_path, []).append(occ.span)
    for template_path, spans in spans_by_template.items():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if next_start < prev_end:
                raise SpanLocationFailed(f"{template_path}: overlapping rewrite spans")

    suggestions = {a.var_name.split(".", 1)[1]: a.value for a in assignments}
    values_patch = yaml.safe_dump({"suggestions": suggestions}, sort_keys=False) \
        if suggestions else ""
    return RewritePlan(
        chart=pkg.ref,
        assignments=tuple(assignments),
        values_patch=values_patch,
        skipped_groups=tuple(skipped),
    )


def _rewritten_files(pkg: ChartPackage, plan: RewritePlan) -> tuple[tuple, str]:
    """The plan's rewritten templates and values.yaml text.

    Each edited template is spliced in one pass; a quoted occurrence keeps
    its quotes. The suggestions block is appended to values.yaml, or
    replaces a text that reads as no values (``{}``, ``~``) and cannot take it.
    """
    edits: dict[str, list[tuple[tuple[int, int], str]]] = {}
    for assignment in plan.assignments:
        placeholder = "{{ .Values.%s }}" % assignment.var_name
        for occ in assignment.target_occurrences:
            start, end = occ.span
            span = (start + 1, end - 1) if occ.quote else (start, end)
            edits.setdefault(occ.template_path, []).append((span, placeholder))
    templates = tuple((path, splice(body, sorted(edits.get(path, ()))))
                      for path, body in pkg.templates)
    values_text = pkg.values_source()
    if plan.values_patch:
        if values_text and not values_text.endswith("\n"):
            values_text += "\n"
        values_text += plan.values_patch
        if not pkg.values:
            try:
                load_unique(values_text)
            except yaml.YAMLError:
                values_text = plan.values_patch
    return templates, values_text


def apply_plan(pkg: ChartPackage, plan: RewritePlan) -> ChartPackage:
    """Apply a rewrite plan in memory, yielding the rewritten package.

    The package is read back from the rewritten files as a chart's files
    are read; raises MetadataParseError where its values.yaml does not read.
    """
    templates, values_text = _rewritten_files(pkg, plan)
    try:
        values = load_unique(values_text)
    except yaml.YAMLError as exc:
        raise MetadataParseError(f"rewritten values.yaml invalid: {exc}") from exc
    return pkg._replace(values={} if values is None else values, templates=templates,
                        values_text=values_text)


def _unified_file_diff(a_text: str, b_text: str, a_name: str, b_name: str) -> str:
    """Unified diff with 3 context lines and no-trailing-newline markers."""
    a_lines = a_text.splitlines(keepends=True)
    b_lines = b_text.splitlines(keepends=True)
    out = []
    for line in difflib.unified_diff(a_lines, b_lines, fromfile=a_name, tofile=b_name, n=3):
        if line.endswith("\n"):
            out.append(line)
        else:
            out.append(line + "\n")
            out.append("\\ No newline at end of file\n")
    return "".join(out)


def emit_diff(pkg: ChartPackage, plan: RewritePlan) -> str:
    """Emit the plan as one unified diff over templates and values.yaml.

    Paths are prefixed ``a/<chart>/`` and ``b/<chart>/`` so a standard
    patch tool applied with -p1 reproduces the rewritten package exactly.
    """
    chart_dir = pkg.metadata.name
    templates, values_text = _rewritten_files(pkg, plan)
    files = [(path, body, new_body)
             for (path, body), (_, new_body) in sorted(zip(pkg.templates, templates))]
    files.append(("values.yaml", pkg.values_source(), values_text))
    return "".join(
        _unified_file_diff(body, new_body, f"a/{chart_dir}/{path}", f"b/{chart_dir}/{path}")
        for path, body, new_body in files if new_body != body
    )


@sharing_compiles
def verify_rewrite(
    pkg: ChartPackage,
    plan: RewritePlan,
    kb: VariabilityKnowledgeBase | None = None,
    engine: Renderer | None = None,
) -> bool:
    """Check that the rewrite preserves rendering and actually took effect.

    Variable keys are pinned first: the original is probed with the chart's
    ``kb`` overrides (``kb`` is only read), the pinned probe is the "before"
    render, and the rewritten package is rendered once with those overrides
    and the ones the probe learned. True iff the original renders a
    document (or has no template), both renders parse to equal documents,
    and no literal leaf of an assigned value remains in a template the plan
    edits (an inert rewrite is unsafe: it would ship a diff that changes
    nothing). For plans from plan_rewrite this is the same as every planned
    occurrence being removed: such a plan assigns a value only when every
    literal occurrence of it was located.

    The rewrite is rendered against the "before" probe, so only templates
    whose rendered text differs, or that render on one side only, are
    parsed and compared. Equal text under the same overrides gives equal
    documents, and each document carries its template path, so this is
    the comparison of all documents.
    """
    overrides = kb.overrides_for(pkg.stem) if kb is not None else {}
    before, learned = probe_variability(pkg, overrides, engine)
    if pkg.templates and not before.documents:
        return False
    try:
        rewritten = apply_plan(pkg, plan)
    except MetadataParseError:
        return False
    after = render_chart(rewritten, {**overrides, **learned}, engine, earlier=before)
    changed = after.differing(before)
    if [doc for doc in before.documents if doc[0] in changed] != after.documents:
        return False
    values = {a.value for a in plan.assignments}
    edited = {occ.template_path for a in plan.assignments for occ in a.target_occurrences}
    return not any(
        not templated and value in values
        for path, body in rewritten.templates if path in edited
        for _, _, value, templated, _, _, _, _ in sentinel_parse(path, body).literals
    )


@sharing_compiles
def suggest_rewrite(
    pkg: ChartPackage,
    kb: VariabilityKnowledgeBase | None = None,
    config: DuplicateConfig | None = None,
    engine: Renderer | None = None,
) -> tuple[DuplicateReport, list[str], tuple[str, int] | None]:
    """Detect, plan, verify and diff one chart's deduplication rewrite.

    Returns the chart's duplicate report, the warnings its rewrite gave, in
    order, and the verified rewrite's diff and variable count, or None when
    no diff is due. ``kb`` is only read. Nothing is logged, so the caller
    reports the warnings where and when it reports the chart.
    """
    report = detect_duplicates(pkg, config)
    if report.is_empty:
        return report, [], None
    name = pkg.metadata.name
    try:
        plan = plan_rewrite(pkg, report)
    except ChartQAError as exc:
        return report, [f"{name}: cannot plan rewrite: {exc}"], None
    warnings = [f"skipping group {value!r}: {reason}" for value, reason in plan.skipped_groups]
    if not plan.assignments:
        warnings.append(f"{name}: every duplicate group failed span location")
    elif not verify_rewrite(pkg, plan, kb, engine):
        warnings.append(f"{name}: rewrite failed verification, diff suppressed")
    else:
        return report, warnings, (emit_diff(pkg, plan), len(plan.assignments))
    return report, warnings, None


# --- maintainer digests ---

class Issue(NamedTuple):
    kind: str  # irregularity or duplicate tag
    detail: str
    chart: ChartRef | None = None
    diff_link: str | None = None

    def identity(self) -> tuple:
        return (self.kind, self.chart.file_name if self.chart else "", self.detail)


class IssueDigest(NamedTuple):
    recipient_email: str
    issues: tuple[Issue, ...]


class DigestBatch(NamedTuple):
    digests: tuple[IssueDigest, ...]
    unique_issue_count: int
    recipient_count: int

    @property
    def avg_issues_per_recipient(self) -> float:
        if not self.recipient_count:
            return 0.0
        return self.unique_issue_count / self.recipient_count


def _chart_emails(index: RepoIndex) -> dict[str, list[str]]:
    """Each chart file's distinct maintainer e-mails, in the order listed."""
    return {entry.ref.file_name: list(dict.fromkeys(m.normalized_email for m in entry.maintainers
                                                    if m.normalized_email))
            for entry in index.entries}


def build_issue_digests(
    irregularities: IrregularityReport,
    duplicate_reports: Iterable[DuplicateReport],
    index: RepoIndex,
    base_url: str,
) -> DigestBatch:
    """Fan out issues to one digest per distinct maintainer e-mail.

    Chart-level issues go to every maintainer e-mail of the chart; charts
    without any e-mail land in a designated unaddressable digest for the
    operator. Alias irregularities go straight to the affected address.
    """
    base = base_url.rstrip("/")
    refs_by_stem: dict[str, list[ChartRef]] = {}
    for entry in index.entries:
        refs_by_stem.setdefault(entry.ref.stem, []).append(entry.ref)

    chart_issues = [
        Issue(kind=kind, detail=f"{ref.file_name}: {CHART_RULES[kind]}", chart=ref)
        for kind, ref in irregularities.chart_findings()
    ]
    for stem in irregularities.multiple_versions:
        refs = sorted(refs_by_stem.get(stem, []), key=lambda r: (r.version, r.file_name))
        if not refs:
            continue
        versions = ", ".join(r.version for r in refs)
        chart_issues.append(Issue(
            kind="multiple-versions",
            detail=f"{stem}: {len(refs)} versions present in the same index ({versions})",
            chart=refs[-1],
        ))
    for report in duplicate_reports:
        if report.is_empty:
            continue
        chart_issues.append(Issue(
            kind="duplicate-values",
            detail=(
                f"{report.chart.file_name}: {len(report.groups)} values duplicated "
                f"{report.total_duplicate_values} times (threshold {report.threshold_used})"
            ),
            chart=report.chart,
            diff_link=f"{base}/diffs/{report.chart.file_name}.patch",
        ))

    emails_by_chart = _chart_emails(index)
    per_recipient: dict[str, list[Issue]] = {}
    for issue in chart_issues:
        recipients = emails_by_chart.get(issue.chart.file_name, []) if issue.chart else []
        if not recipients:
            recipients = [UNADDRESSABLE]
        for recipient in recipients:
            per_recipient.setdefault(recipient, []).append(issue)

    for email, names in irregularities.alias_names:
        alias_issue = Issue(
            kind="alias-names",
            detail=f"{email}: {len(names)} maintainer names share this address "
                   f"({', '.join(sorted(names))})",
        )
        per_recipient.setdefault(email, []).append(alias_issue)

    digests = tuple(
        IssueDigest(recipient_email=email, issues=tuple(sorted(issues, key=Issue.identity)))
        for email, issues in sorted(per_recipient.items())
    )
    unique = {issue.identity() for digest in digests for issue in digest.issues}
    recipients = [d for d in digests if d.recipient_email != UNADDRESSABLE]
    return DigestBatch(
        digests=digests,
        unique_issue_count=len(unique),
        recipient_count=len(recipients),
    )


_FILENAME_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def remove_stale(directory: str, suffix: str, keep: set[str]) -> None:
    """Remove each file in ``directory`` whose name ends in ``suffix`` and whose
    path is not in ``keep``: what an earlier run wrote there and this one does not."""
    try:
        with os.scandir(directory) as entries:
            stale = [entry.path for entry in entries if entry.name.endswith(suffix)
                     and entry.path not in keep and not entry.is_dir()]
    except FileNotFoundError:
        return
    for path in stale:
        os.remove(path)


def write_outbox(batch: DigestBatch, outbox_dir: str) -> list[str]:
    """Write one RFC-5322-style .eml text file per digest; transport is out of scope.
    A name another recipient's file took gets ``-2``, ``-3``, ... after its stem.
    An ``.eml`` file an earlier run left that this batch does not write is removed."""
    os.makedirs(outbox_dir, exist_ok=True)
    paths, taken = [], set()
    for digest in batch.digests:
        safe = _FILENAME_SAFE_RE.sub("_", digest.recipient_email.replace("@", "_at_"))
        path, n = os.path.join(outbox_dir, f"{safe}.eml"), 1
        while path in taken:
            n += 1
            path = os.path.join(outbox_dir, f"{safe}-{n}.eml")
        taken.add(path)
        paths.append(path)
    remove_stale(outbox_dir, ".eml", taken)
    for digest, path in zip(batch.digests, paths):
        lines = [
            f"To: {digest.recipient_email}",
            f"Subject: {SUBJECT_PREFIX}: {len(digest.issues)} chart quality "
            f"finding{'s' if len(digest.issues) != 1 else ''}",
            "",
            "The following findings were detected in charts you maintain:",
            "",
        ]
        for issue in digest.issues:
            lines.append(f"- [{issue.kind}] {issue.detail}")
            if issue.diff_link:
                lines.append(f"  suggested rewrite: {issue.diff_link}")
        lines.append("")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    return paths
