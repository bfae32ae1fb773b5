"""quality-analysis: variability learner, duplicate detector, chart report."""

import random

import pytest
import yaml

from chartqa import quality, render
from chartqa.errors import KnowledgeBaseError, RenderFailed, SettingError
from chartqa.quality import (
    DEFAULT_BLACKLIST,
    DuplicateConfig,
    VariabilityKnowledgeBase,
    analyze_chart,
    detect_duplicates,
    learn_variability,
    stabilize_render,
)
from chartqa.render import flatten_documents, render_chart
from chartqa.yamlutil import sentinel_parse

from conftest import count_calls, make_package


# --- variability ---

def test_learn_single_random_key_then_converges():
    pkg = make_package(values={}, templates={"s.yaml": "pw: {{ randAlphaNum 16 }}\n"})
    kb = VariabilityKnowledgeBase()
    kb, learned = learn_variability(pkg, kb)
    assert learned == ["templates/s.yaml#0/pw"]
    assert len(kb) == 1
    kb, second = learn_variability(pkg, kb)
    assert second == []
    assert len(kb) == 1


def test_learn_deterministic_chart_learns_nothing():
    pkg = make_package(values={"a": "x"}, templates={"t.yaml": "k: {{ .Values.a }}\n"})
    kb = VariabilityKnowledgeBase()
    kb, learned = learn_variability(pkg, kb)
    assert learned == []
    assert len(kb) == 0


def test_learn_three_random_keys_matches_flatten_diff_oracle():
    pkg = make_package(values={}, templates={
        "a.yaml": "one: {{ randAlphaNum 12 }}\nfixed: stable-value\n",
        "b.yaml": "two: {{ randAlphaNum 12 }}\nthree: {{ randAlphaNum 12 }}\n",
    })
    # oracle: directly diff two flattened renders
    from chartqa.render import flatten_documents, render_chart
    first = dict(flatten_documents(render_chart(pkg).documents))
    second = dict(flatten_documents(render_chart(pkg).documents))
    differing = sorted(k for k in first if first[k] != second.get(k, first[k]))

    kb = VariabilityKnowledgeBase()
    kb, learned = learn_variability(pkg, kb)
    assert learned == differing
    assert len(learned) == 3


def test_learn_requires_some_render():
    pkg = make_package(values={}, templates={"t.yaml": "a: {{ .Values.absent }}\n"})
    with pytest.raises(RenderFailed):
        learn_variability(pkg, VariabilityKnowledgeBase())


def test_stabilize_render_converges_after_one_pass():
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 16 }}\ntok: {{ randAlphaNum 16 }}\n",
    })
    kb = VariabilityKnowledgeBase()
    learn_variability(pkg, kb)
    assert stabilize_render(pkg, kb).canonical_yaml() == \
        stabilize_render(pkg, kb).canonical_yaml()


def test_random_value_under_integer_key_converges():
    pkg = make_package(values={}, templates={
        "t.yaml": "ports:\n  80: {{ randAlphaNum 8 }}\n  web: {{ randAlphaNum 8 }}\n",
    })
    kb, learned = learn_variability(pkg, VariabilityKnowledgeBase())
    assert learned == ["templates/t.yaml#0/ports/80", "templates/t.yaml#0/ports/web"]
    assert stabilize_render(pkg, kb).canonical_yaml() == \
        stabilize_render(pkg, kb).canonical_yaml()


def test_kb_monotonic_and_stable():
    pkg = make_package(values={}, templates={"t.yaml": "pw: {{ randAlphaNum 16 }}\n"})
    kb = VariabilityKnowledgeBase()
    sizes = []
    for _ in range(4):
        learn_variability(pkg, kb)
        sizes.append(len(kb))
    assert sizes == sorted(sizes)
    key = (pkg.stem, "templates/t.yaml#0/pw")
    first_value = kb.entries[key]
    learn_variability(pkg, kb)
    assert kb.entries[key] == first_value  # re-learning never rewrites


def test_kb_persistence_round_trip(tmp_path):
    kb = VariabilityKnowledgeBase()
    kb.learn("web", "templates/t.yaml#0/pw", "secret")
    kb.learn("db", "templates/x.yaml#0/a", "other")
    path = tmp_path / "kb.json"
    kb.save(str(path))
    loaded = VariabilityKnowledgeBase.load(str(path))
    assert loaded.entries == kb.entries
    # file schema: flat "<stem>|<key_path>" -> override mapping
    import json
    flat = json.loads(path.read_text())
    assert flat == {"web|templates/t.yaml#0/pw": "secret", "db|templates/x.yaml#0/a": "other"}


@pytest.mark.parametrize("text", ["[]", '["web|a"]', '{"web|a": 3}', '{"web|a": null}', "{"])
def test_kb_load_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "kb.json"
    path.write_text(text)
    with pytest.raises(KnowledgeBaseError):
        VariabilityKnowledgeBase.load(str(path))


# --- duplicate detection ---

def test_detect_duplicates_flagship_value():
    body = "\n".join(f"k{i}: httpd-data" for i in range(5)) + "\n"
    pkg = make_package(values={}, templates={"t.yaml": body})
    report = detect_duplicates(pkg)
    (group,) = report.groups
    assert group.canonical_value == "httpd-data"
    assert group.count == 5
    assert report.total_duplicate_values == 5


def test_detect_duplicates_blacklist_and_threshold():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: v1\nb: v1\nc: v1\nd: twice\ne: twice\n",
    })
    report = detect_duplicates(pkg)
    assert report.groups == ()  # v1 blacklisted, 'twice' below threshold
    assert "v1" in report.blacklist_used

    lowered = detect_duplicates(pkg, DuplicateConfig(threshold=2))
    assert [g.canonical_value for g in lowered.groups] == ["twice"]


def test_detect_duplicates_scoped_per_chart_and_across_templates():
    pkg = make_package(values={}, templates={
        "a.yaml": "x: shared-value\ny: shared-value\n",
        "b.yaml": "z: shared-value\n",
    })
    (group,) = detect_duplicates(pkg).groups
    assert group.count == 3
    assert {p.split("#")[0] for p in group.occurrences} == {
        "templates/a.yaml", "templates/b.yaml",
    }


def test_detect_duplicates_ignores_templated_values():
    pkg = make_package(values={}, templates={"t.yaml": (
        "a: {{ .Values.x }}\n"
        "b: {{ .Values.x }}\n"
        "c: {{ .Values.x }}\n"
        "d: prefix-{{ .Values.x }}\n"
        "e: prefix-{{ .Values.x }}\n"
        "f: prefix-{{ .Values.x }}\n"
    )})
    assert detect_duplicates(pkg).groups == ()


def test_detect_duplicates_zero_templates():
    pkg = make_package(values={"a": 1}, templates={})
    report = detect_duplicates(pkg)
    assert report.groups == ()
    assert report.total_duplicate_values == 0


def test_detect_duplicates_records_unparseable():
    pkg = make_package(values={}, templates={
        "broken.yaml": "{{- if .Values.on }}\nkey: value\n{{- end }}\n",
        "fine.yaml": "a: dup\nb: dup\nc: dup\n",
    })
    report = detect_duplicates(pkg)
    assert [path for path, _ in report.unparseable] == ["templates/broken.yaml"]
    assert [g.canonical_value for g in report.groups] == ["dup"]


def test_detect_duplicates_rejects_duplicate_keys():
    pkg = make_package(values={}, templates={"d.yaml": "a: 1\na: 2\n"})
    report = detect_duplicates(pkg)
    (unparseable,) = report.unparseable
    assert unparseable[0] == "templates/d.yaml"
    assert "duplicate" in unparseable[1]


def test_comment_only_document_takes_no_index():
    body = "kind: ConfigMap\n---\n# notes\n---\nkind: Secret\n"
    pkg = make_package(values={}, templates={f"{n}.yaml": body for n in "abc"})
    report = detect_duplicates(pkg)
    assert sorted(g.canonical_value for g in report.groups) == ["ConfigMap", "Secret"]
    leaves = [leaf.path for leaf in sentinel_parse("templates/a.yaml", body).leaves]
    rendered = [path for path, _ in flatten_documents(render_chart(pkg).documents)]
    assert leaves == ["templates/a.yaml#0/kind", "templates/a.yaml#1/kind"]
    assert leaves == rendered[:2]


def test_group_invariants():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: big\nb: big\nc: big\nd: big\ne: sm\nf: sm\ng: sm\n",
    })
    report = detect_duplicates(pkg)
    assert [g.canonical_value for g in report.groups] == ["big", "sm"]  # count desc
    for group in report.groups:
        assert group.count == len(group.occurrences) >= report.threshold_used
        assert len(set(group.occurrences)) == group.count
        assert group.canonical_value not in report.blacklist_used
    assert report.total_duplicate_values == sum(g.count for g in report.groups)


# --- brute-force oracle over random corpora ---

VALUE_POOL = [
    "alpha", "beta", "gamma-ray", "web-data", "cache", "v1", "true", "zz",
    "extensions/v1beta1", 80, 8080, 1, 0, True, False, None, 1.5, "alpha",
]


def _canon_oracle(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return str(value)


def _random_tree(rng, budget):
    """Random YAML tree with at most ``budget`` scalar leaves (at least 1)."""
    def build(remaining, depth):
        if remaining[0] <= 0 or (depth > 2 or rng.random() < 0.3):
            remaining[0] -= 1
            return rng.choice(VALUE_POOL)
        if rng.random() < 0.5:
            return {
                f"k{depth}{i}": build(remaining, depth + 1)
                for i in range(rng.randint(1, 4))
            }
        return [build(remaining, depth + 1) for i in range(rng.randint(1, 4))]

    remaining = [budget]
    tree = {f"root{i}": build(remaining, 0) for i in range(rng.randint(1, 3))}
    return tree


def _collect_scalars(node, out):
    if isinstance(node, dict):
        for v in node.values():
            _collect_scalars(v, out)
    elif isinstance(node, list):
        for v in node:
            _collect_scalars(v, out)
    else:
        out.append(node)


def brute_force_counts(trees, blacklist, threshold):
    scalars = []
    for tree in trees:
        _collect_scalars(tree, scalars)
    counts = {}
    for raw in scalars:
        value = _canon_oracle(raw)
        if len(value) < 2 or value in blacklist:
            continue
        counts[value] = counts.get(value, 0) + 1
    return {v: n for v, n in counts.items() if n >= threshold}


def test_detector_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(200):
        trees = [_random_tree(rng, rng.randint(3, 50)) for _ in range(rng.randint(1, 3))]
        templates = {
            f"t{i}.yaml": yaml.safe_dump(tree, sort_keys=False)
            for i, tree in enumerate(trees)
        }
        pkg = make_package(values={}, templates=templates)
        report = detect_duplicates(pkg)
        expected = brute_force_counts(trees, set(DEFAULT_BLACKLIST), report.threshold_used)
        actual = {g.canonical_value: g.count for g in report.groups}
        assert actual == expected


# --- aggregation ---

def test_analyze_chart_leaves_kb_untouched():
    pkg = make_package(
        values={},
        maintainers=[{"name": "alice", "email": "a@x.io"}],
        templates={"t.yaml": "pw: {{ randAlphaNum 16 }}\na: d1\nb: d1\nc: d1\n"},
    )
    kb = VariabilityKnowledgeBase()
    report = analyze_chart(pkg, kb)
    assert len(kb) == 0  # read-only query mode
    assert report.variable_value_count == 1
    assert report.variable_key_paths == ("templates/t.yaml#0/pw",)
    assert [g.canonical_value for g in report.duplicate.groups] == ["d1"]
    assert report.render_failures == ()


def test_analyze_chart_renders_twice(monkeypatch):
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 16 }}\na: d1\nb: d1\nc: d1\n",
        "bad.yaml": "a: {{ .Values.absent }}\n",
    })
    renders = count_calls(monkeypatch, "render_chart", render)
    report = analyze_chart(pkg)
    assert len(renders) == 2
    assert report.variable_key_paths == ("templates/t.yaml#0/pw",)
    assert [f.category for f in report.render_failures] == ["MissingValue"]


def test_analyze_chart_reports_render_failures():
    pkg = make_package(values={}, templates={"t.yaml": "a: {{ .Values.absent }}\n"})
    report = analyze_chart(pkg)
    assert report.variable_value_count == 0
    assert [f.category for f in report.render_failures] == ["MissingValue"]


def test_aliased_scalar_counted_once():
    pkg = make_package(values={}, templates={"t.yaml": "a: &x dup-me\nb: *x\nc: *x\nd: dup-me\n"})
    assert detect_duplicates(pkg).is_empty
    (group,) = detect_duplicates(pkg, DuplicateConfig(threshold=2)).groups
    assert group.occurrences == ("templates/t.yaml#0/a", "templates/t.yaml#0/d")
    leaves = sentinel_parse("templates/t.yaml", pkg.templates[0][1]).leaves
    assert [leaf.via_alias for leaf in leaves] == [False, True, True, False]
    assert leaves[0].span == leaves[1].span == leaves[2].span


# --- the second probe render parses only templates whose text differs ---

def test_variable_key_in_differing_template_is_learned_and_pinned():
    pkg = make_package(values={}, templates={
        "cm.yaml": "kind: ConfigMap\ndata: fixed\n",
        "s.yaml": "kind: Secret\nstatic: same\npw: {{ randAlphaNum 16 }}\n",
    })
    probe, learned = quality.probe_variability(pkg, {})
    assert list(learned) == ["templates/s.yaml#0/pw"]
    pinned = learned["templates/s.yaml#0/pw"]
    assert probe.documents == [
        ("templates/cm.yaml", 0, {"kind": "ConfigMap", "data": "fixed"}),
        ("templates/s.yaml", 0, {"kind": "Secret", "static": "same", "pw": pinned}),
    ]


def test_syntax_error_in_unchanged_template_reported_once():
    pkg = make_package(values={}, templates={
        "bad.yaml": "a: : b\n",
        "s.yaml": "pw: {{ randAlphaNum 16 }}\n",
    })
    report = analyze_chart(pkg)
    assert [(f.template_path, f.category) for f in report.render_failures] == [
        ("templates/bad.yaml", "SyntaxError"),
    ]
    assert report.variable_key_paths == ("templates/s.yaml#0/pw",)


# --- the probe takes the chart's overrides and never sees a knowledge base ---

def test_probe_never_learns_a_key_already_in_overrides():
    # "a/b" names the key "a/b" when flattened but a nested b under a when
    # pinned, so its override cannot reach it and both renders still differ
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 8 }}\na/b: {{ randAlphaNum 8 }}\n"
                  "tok: {{ randAlphaNum 8 }}\n",
    })
    overrides = {"templates/t.yaml#0/pw": "fixed", "templates/t.yaml#0/a/b": "unreachable"}
    probe, learned = quality.probe_variability(pkg, overrides)
    assert list(learned) == ["templates/t.yaml#0/tok"]
    ((_, _, body),) = probe.documents
    assert body["pw"] == "fixed" and body["tok"] == learned["templates/t.yaml#0/tok"]


def test_analyze_chart_reports_overrides_and_learned_keys_without_writing_them():
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 8 }}\ntok: {{ randAlphaNum 8 }}\n",
    })
    kb = VariabilityKnowledgeBase()
    kb.learn(pkg.stem, "templates/t.yaml#0/pw", "fixed")
    kb.learn(pkg.stem, "templates/gone.yaml#0/x", "stale")
    kb.learn("other", "templates/t.yaml#0/tok", "elsewhere")
    before = dict(kb.entries)
    report = analyze_chart(pkg, kb)
    assert kb.entries == before
    # the stale entry names no rendered leaf, so it is not counted
    assert report.variable_key_paths == ("templates/t.yaml#0/pw", "templates/t.yaml#0/tok")
    assert report.variable_value_count == 2


def test_threshold_below_two_is_a_setting_error():
    with pytest.raises(SettingError, match="duplicate threshold must be at least 2"):
        DuplicateConfig(threshold=1)
