"""cli-report building blocks: JSON schema, DOT graph, CSV distributions."""

import csv
import io
import json
import re

import pytest

from chartqa.analytics import compute_maintainer_sets, detect_irregularities
from chartqa.quality import VariabilityKnowledgeBase, analyze_chart
from chartqa.report import (
    build_report,
    emit_distributions,
    emit_dot,
    irregularity_report_to_mapping,
    load_schema,
    maintainer_metrics_to_mapping,
    quality_report_to_mapping,
    report_json,
)

from conftest import make_package
from test_analytics import make_index


def sample_report():
    pkg = make_package(
        maintainers=[{"name": "alice", "email": "a@x.io"}],
        values={},
        templates={"t.yaml": "a: dup\nb: dup\nc: dup\npw: {{ randAlphaNum 8 }}\n"},
    )
    quality = analyze_chart(pkg, VariabilityKnowledgeBase())
    index = make_index([("web", "1.0.0", [("alice", "a@x.io")])])
    irregularities = detect_irregularities(index)
    _, metrics = compute_maintainer_sets(index)
    return build_report(
        subject="memory:",
        sections={
            "quality": [quality_report_to_mapping(quality)],
            "irregularities": irregularity_report_to_mapping(irregularities),
            "maintainer_metrics": maintainer_metrics_to_mapping(metrics),
        },
        generated_at="2018-05-15T00:00:00+00:00",
    )


def test_report_validates_against_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(sample_report(), load_schema())


def test_report_byte_identical_modulo_generated_at():
    first = sample_report()
    second = sample_report()
    assert report_json(first) == report_json(second)
    parsed = json.loads(report_json(first))
    assert parsed["schema_version"] == "1"


def test_metrics_carry_numerator_and_denominator():
    index = make_index([
        ("a", "1.0.0", [("m1", "m1@x.io")]),
        ("b", "1.0.0", [("m1", "m1@x.io")]),
        ("c", "1.0.0", [("m2", "m2@x.io")]),
    ])
    _, metrics = compute_maintainer_sets(index)
    mapped = maintainer_metrics_to_mapping(metrics)
    ratio = mapped["avg_charts_per_maintainer"]
    assert ratio["numerator"] == 3 and ratio["denominator"] == 2
    assert ratio["value"] == pytest.approx(1.5)
    assert ratio["base"] == "charts"


# --- DOT emission ---

_NODE_RE = re.compile(r'^\s{4}"(?P<id>(?:[^"\\]|\\.)*)" \[label="(?:[^"\\]|\\.)*", '
                      r'shape=\w+, class=\w+\];$')
_EDGE_RE = re.compile(r'^\s{4}"(?:[^"\\]|\\.)*" -> "(?:[^"\\]|\\.)*";$')
_ATTR_RE = re.compile(r"^\s{4}\w+=\w+;$")


def check_dot_grammar(text: str) -> tuple[int, int]:
    """Tiny DOT validator for the emitted subset; returns node/edge counts."""
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "digraph charts {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if _NODE_RE.match(line):
            nodes += 1
        elif _EDGE_RE.match(line):
            edges += 1
        elif _ATTR_RE.match(line):
            continue
        else:
            raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, edges


def test_emit_dot_minimal():
    index = make_index([("redis", "1.0.0", [("alice", "a@x.io")])])
    sets, _ = compute_maintainer_sets(index)
    text = emit_dot(sets, detect_irregularities(index))
    assert check_dot_grammar(text) == (2, 1)


def test_emit_dot_parallel_edges_for_versions():
    index = make_index([
        ("redis", "1.0.0", [("alice", "a@x.io")]),
        ("redis", "1.1.0", [("alice", "a@x.io")]),
    ])
    sets, _ = compute_maintainer_sets(index)
    text = emit_dot(sets, detect_irregularities(index))
    nodes, edges = check_dot_grammar(text)
    assert nodes == 2
    assert edges == 2  # one edge per stable version
    assert text.count('"maintainer_alice" -> "chart_redis";') == 2


def test_emit_dot_name_collision_collapses_to_self_loop():
    index = make_index([("chartmuseum", "1.0.0", [("chartmuseum", "c@x.io")])])
    sets, _ = compute_maintainer_sets(index)
    text = emit_dot(sets, detect_irregularities(index))
    nodes, _ = check_dot_grammar(text)
    assert 'shape=doubleoctagon' in text
    assert '"both_chartmuseum" -> "both_chartmuseum";' in text
    assert nodes == 1


def test_emit_dot_deterministic_ordering():
    index = make_index([
        ("zeta", "1.0.0", [("zoe", "z@x.io")]),
        ("alpha", "1.0.0", [("amy", "a@x.io")]),
    ])
    sets, _ = compute_maintainer_sets(index)
    first = emit_dot(sets, detect_irregularities(index))
    second = emit_dot(list(reversed(sets)), detect_irregularities(index))
    assert first == second


# --- CSV distributions ---

def _rows(table: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(table)))


def test_distributions_empty_corpus_has_headers():
    tables = emit_distributions([], sets=[], set_metrics={"unmaintained_chart_files": []})
    assert _rows(tables["charts_per_variable_count"]) == [["variable_values", "charts"]]
    assert _rows(tables["charts_per_duplicate_count"]) == [["duplicate_values", "charts"]]
    assert _rows(tables["maintainer_set_heatmap"]) == [
        ["maintainers_per_set", "charts_per_set", "sets", "percentage"],
    ]


def test_distribution_histograms():
    packages = [
        make_package(name=f"c{i}", values={}, templates={
            "t.yaml": "a: dup\nb: dup\nc: dup\n" if i < 2 else "a: solo\n",
        })
        for i in range(3)
    ]
    reports = [analyze_chart(pkg) for pkg in packages]
    tables = emit_distributions(reports, sets=[], set_metrics={"unmaintained_chart_files": []})
    rows = _rows(tables["charts_per_duplicate_count"])
    assert rows == [["duplicate_values", "charts"], ["0", "1"], ["3", "2"]]


def test_heatmap_matches_hand_count():
    index = make_index([
        ("a", "1.0.0", [("m1", "m1@x.io")]),
        ("b", "1.0.0", [("m1", "m1@x.io")]),
        ("c", "1.0.0", [("m2", "m2@x.io"), ("m3", "m3@x.io")]),
        ("d", "1.0.0", []),
    ])
    sets, metrics = compute_maintainer_sets(index)
    tables = emit_distributions([], sets=sets, set_metrics=metrics)
    rows = _rows(tables["maintainer_set_heatmap"])
    # hand count: {m1}:2 charts, {m2,m3}:1 chart, nobody-bucket: 1 chart; 3 sets
    assert rows == [
        ["maintainers_per_set", "charts_per_set", "sets", "percentage"],
        ["0", "1", "1", "33.33"],
        ["1", "2", "1", "33.33"],
        ["2", "1", "1", "33.33"],
    ]
