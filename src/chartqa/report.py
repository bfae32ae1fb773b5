"""JSON report assembly, DOT graph emission and CSV distribution export.

Every ratio metric is emitted together with its numerator, denominator and
base-metric name so report consumers never have to guess what a percentage
was computed against.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # annotations only, so the `stats` command loads neither
    from .analytics import IrregularityReport, MaintainerSet
    from .quality import DuplicateReport, QualityReport

SCHEMA_VERSION = "1"


def load_schema() -> dict:
    """The published JSON schema for report documents."""
    from importlib import resources

    text = resources.files("chartqa").joinpath("schema/report-v1.json").read_text("utf-8")
    return json.loads(text)


def _ratio(value: float, numerator: float, denominator: float, base: str) -> dict:
    return {
        "value": value,
        "numerator": numerator,
        "denominator": denominator,
        "base": base,
    }


def duplicate_report_to_mapping(report: DuplicateReport) -> dict:
    return {
        "chart": report.chart.file_name,
        "threshold_used": report.threshold_used,
        "blacklist_used": list(report.blacklist_used),
        "groups": [
            {
                "canonical_value": group.canonical_value,
                "count": group.count,
                "occurrences": list(group.occurrences),
            }
            for group in report.groups
        ],
        "group_count": len(report.groups),
        "total_duplicate_values": report.total_duplicate_values,
        "unparseable_templates": [
            {"template": path, "reason": reason} for path, reason in report.unparseable
        ],
    }


def quality_report_to_mapping(report: QualityReport) -> dict:
    return {
        "chart": report.chart.file_name,
        "stem": report.chart.stem,
        "variable_value_count": report.variable_value_count,
        "variable_key_paths": list(report.variable_key_paths),
        "duplicate": duplicate_report_to_mapping(report.duplicate),
        "render_failures": [
            {"template": f.template_path, "category": f.category, "reason": f.reason}
            for f in report.render_failures
        ],
    }


def irregularity_report_to_mapping(report: IrregularityReport) -> dict:
    return {
        "no_maintainer": [ref.file_name for ref in report.no_maintainer],
        "name_collision": [ref.file_name for ref in report.name_collision],
        "multiple_versions": list(report.multiple_versions),
        "alias_names": [
            {"email": email, "names": sorted(names)}
            for email, names in report.alias_names
        ],
        "total": report.total,
    }


def maintainer_metrics_to_mapping(metrics: Mapping) -> dict:
    charts = metrics["chart_files"]
    maintainers = metrics["maintainers"]
    sets = metrics["maintainer_sets"]
    return {
        "maintainers": {"value": maintainers, "base": None},
        "maintainer_sets": {"value": sets, "base": None},
        "charts": {"value": charts, "base": None},
        "unique_stems": {"value": metrics["unique_stems"], "base": None},
        "unique_emails": {"value": metrics["unique_emails"], "base": None},
        "avg_charts_per_maintainer": _ratio(
            metrics["avg_charts_per_maintainer"], charts, maintainers, "charts"),
        "avg_charts_per_set": _ratio(
            metrics["avg_charts_per_set"], charts, sets, "charts"),
        "max_charts_per_set": {"value": metrics["max_charts_per_set"], "base": "charts"},
        "avg_maintainers_per_set": _ratio(
            metrics["avg_maintainers_per_set"], maintainers, sets, "maintainers"),
        "max_maintainers_per_set": {
            "value": metrics["max_maintainers_per_set"], "base": "maintainers"},
        "unmaintained_chart_files": list(metrics["unmaintained_chart_files"]),
    }


def build_report(subject: str, sections: Mapping, generated_at: str | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": generated_at
        or datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "subject": subject,
        "sections": dict(sections),
    }


def report_json(report: Mapping) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# --- DOT graph ---

def _dot_quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def _identity_label(identity) -> str:
    if identity.names_seen:
        return sorted(identity.names_seen)[0]
    if identity.emails_seen:
        return sorted(identity.emails_seen)[0]
    return identity.key


def emit_dot(sets: Iterable[MaintainerSet], irregularities: IrregularityReport) -> str:
    """Bipartite maintainer-to-chart graph in DOT format.

    Every maintained chart file contributes one edge, so multi-version
    stems show up as parallel edges. A chart whose name equals its
    maintainer's name collapses into a single self-referencing node with a
    distinct marker.
    """
    from .core import mangle_stem

    collision_names = {ref.name for ref in irregularities.name_collision}
    maintainer_nodes: dict[str, str] = {}
    chart_nodes: dict[str, str] = {}
    collision_nodes: dict[str, str] = {}
    edges: list[tuple[str, str]] = []

    for maintainer_set in sets:
        for member in maintainer_set.members:
            label = _identity_label(member)
            for file_name in maintainer_set.chart_files:
                stem = mangle_stem(file_name)
                if label in collision_names and label == stem:
                    node = collision_nodes.setdefault(label, f"both_{label}")
                    edges.append((node, node))
                    continue
                m_node = maintainer_nodes.setdefault(label, f"maintainer_{label}")
                c_node = chart_nodes.setdefault(stem, f"chart_{stem}")
                edges.append((m_node, c_node))

    lines = ["digraph charts {"]
    lines.append("    rankdir=LR;")
    for label in sorted(maintainer_nodes):
        lines.append(
            f"    {_dot_quote(maintainer_nodes[label])} "
            f"[label={_dot_quote(label)}, shape=ellipse, class=maintainer];"
        )
    for stem in sorted(chart_nodes):
        lines.append(
            f"    {_dot_quote(chart_nodes[stem])} "
            f"[label={_dot_quote(stem)}, shape=box, class=chart];"
        )
    for label in sorted(collision_nodes):
        lines.append(
            f"    {_dot_quote(collision_nodes[label])} "
            f"[label={_dot_quote(label)}, shape=doubleoctagon, class=collision];"
        )
    for source, target in sorted(edges):
        lines.append(f"    {_dot_quote(source)} -> {_dot_quote(target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- CSV distributions ---

def _csv_table(header: list[str], rows: Iterable[Iterable]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()


def _histogram(counts: Iterable[int]) -> list[tuple[int, int]]:
    frequency: dict[int, int] = {}
    for count in counts:
        frequency[count] = frequency.get(count, 0) + 1
    return sorted(frequency.items())


def emit_distributions(
    quality_reports: Iterable[QualityReport],
    sets: Iterable[MaintainerSet],
    set_metrics: Mapping,
) -> dict[str, str]:
    """Long-tail histograms and the maintainer-set heatmap as CSV tables.

    ``sets`` and ``set_metrics`` are what ``compute_maintainer_sets``
    returns. Returns a mapping of table name to RFC-4180 CSV text; empty
    inputs still yield tables with headers.
    """
    reports = list(quality_reports)
    cells: dict[tuple[int, int], int] = {}
    total = 0
    for maintainer_set in sets:
        key = (maintainer_set.size, len(maintainer_set.chart_files))
        cells[key] = cells.get(key, 0) + 1
        total += 1
    unmaintained = set_metrics["unmaintained_chart_files"]
    if unmaintained:
        cells[(0, len(unmaintained))] = cells.get((0, len(unmaintained)), 0) + 1
        total += 1
    return {
        "charts_per_variable_count": _csv_table(
            ["variable_values", "charts"],
            _histogram(r.variable_value_count for r in reports),
        ),
        "charts_per_duplicate_count": _csv_table(
            ["duplicate_values", "charts"],
            _histogram(r.duplicate.total_duplicate_values for r in reports),
        ),
        "maintainer_set_heatmap": _csv_table(
            ["maintainers_per_set", "charts_per_set", "sets", "percentage"],
            (
                (m, c, n, round(100.0 * n / total, 2))
                for (m, c), n in sorted(cells.items())
            ),
        ),
    }
