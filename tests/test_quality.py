"""quality-analysis: variability learner, duplicate detector, chart report."""

import copy
import json
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chartqa import core, quality, render, yamlutil
from chartqa.errors import KnowledgeBaseError, RenderFailed, SettingError, TooManyLeaves
from chartqa.quality import (
    DEFAULT_BLACKLIST,
    DuplicateConfig,
    DuplicateGroup,
    VariabilityKnowledgeBase,
    analyze_chart,
    detect_duplicates,
    variable_values,
)
from chartqa.render import render_chart
from chartqa.yamlutil import sentinel_parse

from conftest import count_calls, make_package


# --- variability ---

def test_learn_single_random_key_then_converges():
    pkg = make_package(values={}, templates={"s.yaml": "pw: {{ randAlphaNum 16 }}\n"})
    kb = VariabilityKnowledgeBase()
    assert kb.merge(pkg.stem, variable_values(pkg, kb)) == ["templates/s.yaml#0/pw"]
    assert len(kb) == 1
    assert kb.merge(pkg.stem, variable_values(pkg, kb)) == []
    assert len(kb) == 1


def test_learn_deterministic_chart_learns_nothing():
    pkg = make_package(values={"a": "x"}, templates={"t.yaml": "k: {{ .Values.a }}\n"})
    kb = VariabilityKnowledgeBase()
    assert kb.merge(pkg.stem, variable_values(pkg, kb)) == []
    assert len(kb) == 0
    assert kb.entries == {}


def test_learn_three_random_keys_matches_flatten_diff_oracle():
    pkg = make_package(values={}, templates={
        "a.yaml": "one: {{ randAlphaNum 12 }}\nfixed: stable-value\n",
        "b.yaml": "two: {{ randAlphaNum 12 }}\nthree: {{ randAlphaNum 12 }}\n",
    })
    # oracle: directly diff the leaves of two renders
    first = render_chart(pkg).leaf_values()
    second = render_chart(pkg).leaf_values()
    differing = sorted(k for k in first if first[k] != second.get(k, first[k]))

    kb = VariabilityKnowledgeBase()
    learned = kb.merge(pkg.stem, variable_values(pkg, kb))
    assert learned == differing
    assert len(learned) == 3


def test_learn_requires_some_render():
    pkg = make_package(values={}, templates={"t.yaml": "a: {{ .Values.absent }}\n"})
    failed = variable_values(pkg, VariabilityKnowledgeBase())
    assert isinstance(failed, RenderFailed)
    assert str(failed).startswith("web: every template failed: ")


def test_merging_what_charts_learned_from_one_state_equals_learning_in_turn():
    # the second version sees pw learned from the first, and its cfg is a
    # mapping where the first's cfg was a leaf: that override must not hide it
    first = make_package(version="1.0.0", values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 8 }}\ncfg: {{ randAlphaNum 8 }}\n"})
    second = make_package(version="2.0.0", values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 8 }}\ncfg:\n  tok: {{ randAlphaNum 8 }}\n"})
    in_turn = VariabilityKnowledgeBase()
    learned_in_turn = [in_turn.merge(pkg.stem, variable_values(pkg, in_turn))
                       for pkg in (first, second)]
    merged = VariabilityKnowledgeBase()
    found = [variable_values(pkg, merged) for pkg in (first, second)]
    assert [merged.merge(pkg.stem, values) for pkg, values in zip((first, second), found)] \
        == learned_in_turn == [["templates/t.yaml#0/cfg", "templates/t.yaml#0/pw"],
                               ["templates/t.yaml#0/cfg/tok"]]
    assert merged.entries.keys() == in_turn.entries.keys() == {"web"}
    assert merged.entries["web"].keys() == in_turn.entries["web"].keys()


def test_stabilize_render_converges_after_one_pass():
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 16 }}\ntok: {{ randAlphaNum 16 }}\n",
    })
    kb = VariabilityKnowledgeBase()
    kb.merge(pkg.stem, variable_values(pkg, kb))
    first, second = (render_chart(pkg, kb.overrides_for(pkg.stem)) for _ in range(2))
    assert first.canonical_yaml() == second.canonical_yaml()


def test_random_value_under_integer_key_converges():
    pkg = make_package(values={}, templates={
        "t.yaml": "ports:\n  80: {{ randAlphaNum 8 }}\n  web: {{ randAlphaNum 8 }}\n",
    })
    kb = VariabilityKnowledgeBase()
    assert kb.merge(pkg.stem, variable_values(pkg, kb)) == [
        "templates/t.yaml#0/ports/80", "templates/t.yaml#0/ports/web"]
    first, second = (render_chart(pkg, kb.overrides_for(pkg.stem)) for _ in range(2))
    assert first.canonical_yaml() == second.canonical_yaml()


def test_kb_monotonic_and_stable():
    pkg = make_package(values={}, templates={"t.yaml": "pw: {{ randAlphaNum 16 }}\n"})
    kb = VariabilityKnowledgeBase()
    sizes = []
    for _ in range(4):
        kb.merge(pkg.stem, variable_values(pkg, kb))
        sizes.append(len(kb))
    assert sizes == sorted(sizes)
    key_path = "templates/t.yaml#0/pw"
    first_value = kb.overrides_for(pkg.stem)[key_path]
    kb.merge(pkg.stem, variable_values(pkg, kb))
    assert kb.overrides_for(pkg.stem)[key_path] == first_value  # re-learning never rewrites


def test_merge_keeps_every_entry_and_returns_the_new_key_paths_sorted():
    kb = VariabilityKnowledgeBase()
    assert kb.merge("web", {"b": "1", "a": "2"}) == ["a", "b"]
    assert kb.merge("web", {"c": "3", "a": "changed"}) == ["c"]
    assert kb.merge("db", {"a": "4"}) == ["a"]
    assert kb.merge("api", {}) == []
    assert kb.entries == {"web": {"b": "1", "a": "2", "c": "3"}, "db": {"a": "4"}}
    assert len(kb) == 4
    assert kb.overrides_for("web") == {"a": "2", "b": "1", "c": "3"}
    assert kb.overrides_for("api") == {}
    kb.overrides_for("web")["a"] = "edited"  # a copy: the caller cannot edit the entry
    assert kb.overrides_for("web")["a"] == "2"


def test_kb_persistence_round_trip(tmp_path):
    kb = VariabilityKnowledgeBase()
    kb.merge("web", {"templates/t.yaml#0/pw": "secret"})
    kb.merge("db", {"templates/x.yaml#0/a": "other"})
    path = tmp_path / "kb.json"
    kb.save(str(path))
    loaded = VariabilityKnowledgeBase.load(str(path))
    assert loaded.entries == kb.entries
    # file schema: flat "<stem>|<key_path>" -> override mapping
    flat = json.loads(path.read_text())
    assert flat == {"web|templates/t.yaml#0/pw": "secret", "db|templates/x.yaml#0/a": "other"}


def test_kb_load_then_save_gives_identical_bytes(tmp_path):
    path = tmp_path / "kb.json"
    flat = {"web|templates/t.yaml#0/pw": "secret", "db|templates/x.yaml#0/a": "other",
            "web|templates/t.yaml#1/a/b[0]": "x", "web|": "empty key path",
            "web|templates/t.yaml#0/a|b": "a bar in the key path"}
    path.write_text(json.dumps(flat, indent=2, sort_keys=True))  # as save writes it
    written = path.read_bytes()
    VariabilityKnowledgeBase.load(str(path)).save(str(path))
    assert path.read_bytes() == written


def test_a_stem_holding_a_bar_survives_save_and_load(tmp_path):
    kb = VariabilityKnowledgeBase()
    kb.merge("a|b", {"templates/x.yaml#0/k": "v"})
    kb.merge("a", {"templates/x.yaml#0/k|z": "w"})
    path = tmp_path / "kb.json"
    kb.save(str(path))
    assert json.loads(path.read_text()) == {
        "a\\|b|templates/x.yaml#0/k": "v", "a|templates/x.yaml#0/k|z": "w"}
    assert VariabilityKnowledgeBase.load(str(path)).entries == kb.entries


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
    rendered = list(render_chart(pkg).leaf_values())
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


# --- group first, then build: against the grouped sentinel_parse leaves ---

# plain, quoted, templated, short, blacklisted, int, bool and null scalars
SCALARS = ["web", "web", "data-1", "80", "8080", "1.5", "true", "yes", "~", "x", "v1", "0",
           '"web"', "'web'", '"80"', "'data-1'", '"x"', "{{ .Values.a }}",
           "web-{{ .Values.a }}", '"{{ .Values.a }}"']


@st.composite
def template_texts(draw):
    """A template of a few documents, each a mapping whose values are scalars,
    anchored scalars, aliases to an earlier anchor of the document, block or
    flow lists, and anchored or aliased mappings."""
    documents = []
    for _ in range(draw(st.integers(1, 3))):
        lines, anchors = [], []
        for n in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(["scalar", "scalar", "anchor", "alias", "list", "flow",
                                         "mapping"]))
            word = draw(st.sampled_from(SCALARS))
            if kind == "alias" and anchors:
                lines.append(f"k{n}: *{draw(st.sampled_from(anchors))}")
            elif kind == "anchor":
                anchors.append(f"a{n}")
                lines.append(f"k{n}: &a{n} {word}")
            elif kind == "list":
                items = draw(st.lists(st.sampled_from(SCALARS), min_size=1, max_size=3))
                lines.append(f"k{n}:\n" + "".join(f"  - {item}\n" for item in items).rstrip())
            elif kind == "flow":
                items = draw(st.lists(st.sampled_from(SCALARS), max_size=3))
                lines.append(f"k{n}: [{', '.join(items)}]")
            elif kind == "mapping":
                anchors.append(f"a{n}")
                other = draw(st.sampled_from(SCALARS))
                lines.append(f"k{n}: &a{n}\n  inner: {word}\n  other: {other}")
            else:
                lines.append(f"k{n}: {word}")
        documents.append("".join(line + "\n" for line in lines) or "# nothing here\n")
    return "---\n".join(documents)


def grouped_sentinel_leaves(pkg, config):
    """Duplicate groups as detect_duplicates defined them over every leaf
    sentinel_parse builds, and the unparseable templates."""
    occurrences, unparseable = {}, []
    for path, body in pkg.templates:
        parse = sentinel_parse(path, body)
        if parse.error is not None:
            unparseable.append((path, parse.error))
        for leaf in parse.leaves:
            if not (leaf.templated or leaf.via_alias or len(leaf.value) < 2
                    or leaf.value in config.blacklist):
                occurrences.setdefault(leaf.value, []).append(leaf)
    groups = [DuplicateGroup(value, tuple(leaves)) for value, leaves
              in sorted(occurrences.items(), key=lambda item: (-len(item[1]), item[0]))
              if len(leaves) >= config.threshold]
    return groups, unparseable


@settings(max_examples=300, deadline=None)
@given(st.lists(template_texts() | st.just("k: [unclosed\n"), min_size=1, max_size=4),
       st.integers(2, 4))
def test_detector_equals_grouped_sentinel_leaves(texts, threshold):
    pkg = make_package(values={"a": "v"}, templates={f"t{i}.yaml": text
                                                     for i, text in enumerate(texts)})
    config = DuplicateConfig(threshold=threshold)
    report = detect_duplicates(pkg, config)
    groups, unparseable = grouped_sentinel_leaves(pkg, config)
    assert list(report.unparseable) == unparseable
    assert [group.canonical_value for group in report.groups] == \
        [group.canonical_value for group in groups]
    for got, want in zip(report.groups, groups):
        assert [leaf._asdict() for leaf in got.leaves] == [leaf._asdict() for leaf in want.leaves]


def test_source_leaves_are_built_only_for_reported_occurrences(monkeypatch):
    built = []

    class CountingLeaf(yamlutil.SourceLeaf):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields[1])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(yamlutil, "SourceLeaf", CountingLeaf)
    pkg = make_package(values={}, templates={
        "a.yaml": "a: dup\nb: dup\nc: once\nd: [twice, other, 8080]\ne: &x seen\nf: *x\n",
        "b.yaml": "a: dup\nb: twice\nc: {{ .Values.x }}\nd: v1\n---\ne: seen\n",
    })
    report = detect_duplicates(pkg, DuplicateConfig(threshold=2))
    reported = [path for group in report.groups for path in group.occurrences]
    assert report.total_duplicate_values == 7
    assert built == reported


def test_leaf_records_hold_no_parse_objects():
    # the duplicate check keeps a record per candidate until the groups are
    # built: plain fields let the parsed documents and scalar events go
    parse = sentinel_parse("t.yaml", "a: &x web\nb: *x\nc: 'q-{{ .Values.v }}'\n"
                                     "d: [80, true, ~]\n---\ne: \"web\"\n")
    assert [literal[2:5] for literal in parse.literals] == [
        ("web", False, False), ("web", False, True), ("q-__CHARTQA_SENTINEL_0__", True, False),
        ("80", False, False), ("true", False, False), ("null", False, False),
        ("web", False, False)]
    assert all(type(field) in (int, str, bool, type(None))
               for literal in parse.literals for field in literal)


def test_a_chart_past_the_leaf_budget_is_refused_by_each_pass(monkeypatch):
    monkeypatch.setattr(core, "MAX_CHART_LEAVES", 6)
    pkg = make_package(values={}, templates={"a.yaml": "a: dup\nb: dup\nc: dup\n",
                                             "b.yaml": "d: [1, 2, 3]\n"})
    assert detect_duplicates(pkg).total_duplicate_values == 3  # six leaves: at the budget
    assert analyze_chart(pkg).render_failures == ()
    bigger = pkg._replace(templates=pkg.templates + (("templates/c.yaml", "e: 4\n"),))
    for check in (detect_duplicates, render_chart, analyze_chart):
        with pytest.raises(TooManyLeaves, match="^templates hold over 6 scalar leaves$"):
            check(bigger)


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


def test_analyze_chart_composes_each_template_once(monkeypatch):
    pkg = make_package(values={"app": "web"}, templates={
        "t.yaml": "pw: {{ randAlphaNum 16 }}\na: d1\nb: d1\nc: d1\n",
        "svc.yaml": "name: {{ .Values.app }}\nport: 80\n",
        "cm.yaml": "kind: ConfigMap\ndata: {x: 'y'}\n",
    })
    composes = count_calls(monkeypatch, "load_documents", yamlutil, render)
    report = analyze_chart(pkg)
    assert len(composes) == len(pkg.templates)
    assert report.variable_key_paths == ("templates/t.yaml#0/pw",)
    assert [g.canonical_value for g in report.duplicate.groups] == ["d1"]


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
    # the key "a/b" is pinned by the key path the walk named it with
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 8 }}\na/b: {{ randAlphaNum 8 }}\n"
                  "tok: {{ randAlphaNum 8 }}\n",
    })
    overrides = {"templates/t.yaml#0/pw": "fixed", "templates/t.yaml#0/a/b": "also fixed"}
    probe, learned = quality.probe_variability(pkg, overrides)
    assert list(learned) == ["templates/t.yaml#0/tok"]
    assert probe.applied == set(overrides)
    ((_, _, body),) = probe.documents
    assert body["pw"] == "fixed" and body["tok"] == learned["templates/t.yaml#0/tok"]
    assert body["a/b"] == "also fixed"


def test_analyze_chart_reports_overrides_and_learned_keys_without_writing_them():
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 8 }}\ntok: {{ randAlphaNum 8 }}\n",
    })
    kb = VariabilityKnowledgeBase()
    kb.merge(pkg.stem, {"templates/t.yaml#0/pw": "fixed", "templates/gone.yaml#0/x": "stale"})
    kb.merge("other", {"templates/t.yaml#0/tok": "elsewhere"})
    before = copy.deepcopy(kb.entries)
    report = analyze_chart(pkg, kb)
    assert kb.entries == before
    # the stale entry names no rendered leaf, so it is not counted
    assert report.variable_key_paths == ("templates/t.yaml#0/pw", "templates/t.yaml#0/tok")
    assert report.variable_value_count == 2


def test_threshold_below_two_is_a_setting_error():
    with pytest.raises(SettingError, match="duplicate threshold must be at least 2"):
        DuplicateConfig(threshold=1)
    with pytest.raises(SettingError, match="duplicate threshold must be at least 2"):
        DuplicateConfig()._replace(threshold=1)
