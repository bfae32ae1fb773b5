"""dedup-suggest: rewrite plans, diffs, verification, digests."""

import copy
import logging
import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chartqa import render, rewrite, yamlutil
from chartqa.cli import cli_dispatch
from chartqa.core import package_from_files
from chartqa.errors import ChartQAError, EmptyReport, SuggestionsDefined
from chartqa.ingest import index_entry, index_from_entries, package_from_dir
from chartqa.quality import (
    DuplicateConfig,
    VariabilityKnowledgeBase,
    analyze_chart,
    detect_duplicates,
    variable_values,
)
from chartqa.analytics import detect_irregularities
from chartqa.rewrite import (
    Assignment,
    Occurrence,
    RewritePlan,
    apply_plan,
    build_issue_digests,
    emit_diff,
    plan_rewrite,
    suggest_rewrite,
    verify_rewrite,
    write_outbox,
)

from conftest import chart_files, count_calls, make_package, patched_package, write_chart_dir
from test_yamlutil import deadline


def five_occurrence_package():
    return make_package(
        values={"app": "web"},
        maintainers=[{"name": "alice", "email": "a@x.io"}],
        templates={
            "deploy.yaml": (
                "kind: Deployment\n"
                "volume: httpd-data\n"
                "claim: httpd-data\n"
                "path: \"httpd-data\"\n"
            ),
            "svc.yaml": "kind: Service\nselector: httpd-data\nbackup: httpd-data\n",
        },
    )


def test_plan_rewrite_single_group():
    pkg = five_occurrence_package()
    report = detect_duplicates(pkg)
    plan = plan_rewrite(pkg, report)
    (assignment,) = plan.assignments
    assert assignment.var_name == "suggestions.var1"
    assert assignment.value == "httpd-data"
    assert len(assignment.target_occurrences) == 5
    assert plan.values_patch == "suggestions:\n  var1: httpd-data\n"
    # oracle: textual occurrence count across template sources
    textual = sum(body.count("httpd-data") for _p, body in pkg.templates)
    assert textual == len(assignment.target_occurrences)


def test_plan_rewrite_empty_report_is_an_error():
    pkg = make_package(values={}, templates={"t.yaml": "a: unique\n"})
    with pytest.raises(EmptyReport):
        plan_rewrite(pkg, detect_duplicates(pkg))


def test_plan_rewrite_ordering_by_count_then_value():
    pkg = make_package(values={}, templates={"t.yaml": (
        "a: minor\nb: minor\nc: minor\n"
        "d: major\ne: major\nf: major\ng: major\n"
    )})
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert [(a.var_name, a.value) for a in plan.assignments] == [
        ("suggestions.var1", "major"), ("suggestions.var2", "minor"),
    ]


def test_plan_rewrite_tie_breaks_lexicographically():
    pkg = make_package(values={}, templates={"t.yaml": (
        "a: zebra\nb: zebra\nc: zebra\nd: apple\ne: apple\nf: apple\n"
    )})
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert [a.value for a in plan.assignments] == ["apple", "zebra"]


def test_suggest_rewrite_returns_its_warnings_in_order_and_logs_nothing(caplog):
    # dup-z's folded occurrence cannot be replaced literally, dup-me's can
    pkg = make_package(values={}, templates={
        "t.yaml": "a: dup-z\nb: dup-z\nc: >-\n  dup-z\nd: dup-me\ne: dup-me\nf: dup-me\n"})
    report, warnings, (diff_text, variables) = suggest_rewrite(pkg)
    assert report == detect_duplicates(pkg)
    assert warnings == ["skipping group 'dup-z': templates/t.yaml#0/c: "
                        "source style '>' not literally replaceable"]
    assert variables == 1 and "{{ .Values.suggestions.var1 }}" in diff_text
    only_folded = make_package(name="folded", values={}, templates={
        "t.yaml": "a: dup-z\nb: dup-z\nc: >-\n  dup-z\n"})
    assert suggest_rewrite(only_folded)[1:] == (
        [warnings[0], "folded: every duplicate group failed span location"], None)
    assert caplog.records == []


@pytest.mark.parametrize("key", ["checksum/config", "rollme"])
def test_a_learned_key_holding_a_slash_is_pinned(key):
    # Kubernetes annotation keys hold "/"; the learned key path must pin
    # the very leaf it was learned from, or renders never compare equal
    pkg = make_package(values={}, templates={"d.yaml": (
        f"metadata:\n  annotations:\n    {key}: {{{{ randAlphaNum 8 }}}}\n"
        "a: dup-value\nb: dup-value\nc: dup-value\n")})
    key_path = f"templates/d.yaml#0/metadata/annotations/{key}"
    kb = VariabilityKnowledgeBase()
    assert kb.merge(pkg.stem, variable_values(pkg, kb)) == [key_path]
    first, second = (render.render_chart(pkg, kb.overrides_for(pkg.stem)) for _ in range(2))
    assert first.applied == {key_path}
    assert first.canonical_yaml() == second.canonical_yaml()
    assert analyze_chart(pkg, kb).variable_key_paths == (key_path,)
    _, warnings, rewritten = suggest_rewrite(pkg, kb)
    assert warnings == [] and rewritten is not None
    assert "{{ .Values.suggestions.var1 }}" in rewritten[0]


def test_a_suggestions_block_in_values_is_a_typed_plan_error():
    pkg = make_package(values={"suggestions": {"var1": "x"}},
                       templates={"t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"})
    with pytest.raises(SuggestionsDefined) as raised:
        plan_rewrite(pkg, detect_duplicates(pkg))
    assert isinstance(raised.value, ChartQAError) and isinstance(raised.value, ValueError)
    assert suggest_rewrite(pkg)[1:] == (
        ["web: cannot plan rewrite: values.yaml already defines a 'suggestions' block"], None)


def test_suggest_rewrite_raises_a_report_for_another_chart(monkeypatch):
    templates = {"t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"}
    pkg = make_package(values={}, templates=templates)
    other = make_package(name="other", values={}, templates=templates)
    monkeypatch.setattr(rewrite, "detect_duplicates", lambda _pkg, config: detect_duplicates(other))
    with pytest.raises(ValueError, match="does not belong"):
        suggest_rewrite(pkg)


def test_emit_diff_deterministic():
    pkg = five_occurrence_package()
    report = detect_duplicates(pkg)
    first = emit_diff(pkg, plan_rewrite(pkg, report))
    second = emit_diff(pkg, plan_rewrite(pkg, report))
    assert first == second
    assert "--- a/web/templates/deploy.yaml" in first
    assert "+++ b/web/values.yaml" in first
    assert "{{ .Values.suggestions.var1 }}" in first


def test_verify_rewrite_valid_plan():
    pkg = five_occurrence_package()
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert verify_rewrite(pkg, plan) is True


def test_verify_rewrite_rejects_inert_comment_span():
    body = "# note httpd-data here\nvolume: httpd-data\nclaim: httpd-data\npath: httpd-data\n"
    pkg = make_package(values={}, templates={"t.yaml": body})
    comment_start = body.index("httpd-data")
    bogus = RewritePlan(
        chart=pkg.ref,
        assignments=(Assignment(
            var_name="suggestions.var1",
            value="httpd-data",
            target_occurrences=(
                Occurrence("templates/t.yaml", (comment_start, comment_start + 10), None),
            ),
        ),),
        values_patch="suggestions:\n  var1: httpd-data\n",
    )
    assert verify_rewrite(pkg, bogus) is False


def test_verify_rewrite_rejects_corrupting_span():
    pkg = five_occurrence_package()
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    (assignment,) = plan.assignments
    first = assignment.target_occurrences[0]
    skewed = Occurrence(first.template_path, (first.span[0] - 3, first.span[1]), None)
    bad = RewritePlan(
        chart=plan.chart,
        assignments=(Assignment(
            var_name=assignment.var_name,
            value=assignment.value,
            target_occurrences=(skewed,) + assignment.target_occurrences[1:],
        ),),
        values_patch=plan.values_patch,
    )
    assert verify_rewrite(pkg, bad) is False


def test_verify_rewrite_renders_original_twice_and_rewrite_once(monkeypatch):
    pkg = five_occurrence_package()
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    renders = count_calls(monkeypatch, "render_chart", render, rewrite)
    assert verify_rewrite(pkg, plan) is True
    assert [args[0] is pkg for args in renders] == [True, True, False]


def test_verify_rewrite_reads_the_knowledge_base_and_pins_learned_keys():
    # pw is pinned from the knowledge base; tok is learned by the probe and
    # must be pinned in the rewritten render too, or the renders differ
    pkg = make_package(values={}, templates={
        "t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"
                  "pw: {{ randAlphaNum 8 }}\ntok: {{ randAlphaNum 8 }}\n",
    })
    kb = VariabilityKnowledgeBase()
    kb.merge(pkg.stem, {"templates/t.yaml#0/pw": "fixed"})
    kb.merge("other", {"templates/t.yaml#0/tok": "elsewhere"})
    before = copy.deepcopy(kb.entries)
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert verify_rewrite(pkg, plan, kb) is True
    assert kb.entries == before


def test_pipeline_parses_each_original_template_once(monkeypatch):
    pkg = make_package(values={}, templates={
        "deploy.yaml": "volume: httpd-data\nclaim: httpd-data\n",
        "svc.yaml": "selector: httpd-data\n",
        "cm.yaml": "kind: ConfigMap\ndata: untouched\n",
    })
    parses = count_calls(monkeypatch, "load_documents", yamlutil, render)

    @yamlutil.sharing_compiles
    def pipeline():
        return verify_rewrite(pkg, plan_rewrite(pkg, detect_duplicates(pkg)))

    assert pipeline() is True
    bodies = [body for _, body in pkg.templates]
    assert sorted(text for (text,) in parses if text in bodies) == sorted(bodies)


def test_suggest_composes_each_original_and_each_edited_template_once(monkeypatch):
    pkg = five_occurrence_package()
    pkg = pkg._replace(templates=pkg.templates + (
        ("templates/cm.yaml", "kind: ConfigMap\napp: {{ .Values.app }}\n"),))
    composes = count_calls(monkeypatch, "load_documents", yamlutil, render)
    report, warnings, diff = suggest_rewrite(pkg)
    assert diff is not None and warnings == []
    edited = [body for path, body in rewrite.apply_plan(pkg, plan_rewrite(pkg, report)).templates
              if path != "templates/cm.yaml"]
    assert len(composes) == len(pkg.templates) + len(edited)


def test_verify_rewrite_nan_leaf_and_mixed_key_types():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\nratio: .nan\n",
        "ports.yaml": "ports:\n  80: http\n  web: 8080\n",
    })
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert verify_rewrite(pkg, plan) is True


def test_verify_rewrite_random_value_under_integer_key():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n",
        "ports.yaml": "ports:\n  80: {{ randAlphaNum 8 }}\n  web: {{ randAlphaNum 8 }}\n",
    })
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert verify_rewrite(pkg, plan) is True


def test_verify_rewrite_empty_plan_vacuously_true():
    pkg = make_package(values={}, templates={})
    empty = RewritePlan(chart=pkg.ref, assignments=(), values_patch="")
    assert verify_rewrite(pkg, empty) is True


def test_quoted_occurrences_keep_quoting_style():
    pkg = make_package(values={}, templates={"t.yaml": (
        'a: "dup-value"\nb: dup-value\nc: \'dup-value\'\n'
    )})
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    rewritten = dict(apply_plan(pkg, plan).templates)["templates/t.yaml"]
    assert '"{{ .Values.suggestions.var1 }}"' in rewritten
    assert "'{{ .Values.suggestions.var1 }}'" in rewritten
    assert "b: {{ .Values.suggestions.var1 }}" in rewritten


def test_no_blacklisted_value_in_assignments():
    pkg = make_package(values={}, templates={"t.yaml": (
        "a: v1\nb: v1\nc: v1\nd: real-dup\ne: real-dup\nf: real-dup\n"
    )})
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    values = {a.value for a in plan.assignments}
    assert values == {"real-dup"}
    assert not values & set(DuplicateConfig().blacklist)


def test_patch_round_trip_without_values_yaml(tmp_path):
    pkg = make_package(values=None, templates={
        "t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n",
    })
    assert pkg.values_text is None
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    patched = patched_package(tmp_path, pkg, emit_diff(pkg, plan))
    assert patched.values == {"suggestions": {"var1": "dup-me"}}
    assert render.render_chart(patched).canonical_yaml() == \
        render.render_chart(pkg).canonical_yaml()


def test_multiline_directive_is_sentineled_not_counted():
    pkg = make_package(values={}, templates={"t.yaml": (
        "a: {{ .Values.x\n      | default \"dup\" }}\n"
        "b: dup\nc: dup\nd: dup\n"
    )})
    report = detect_duplicates(pkg)
    (group,) = report.groups
    assert group.count == 3  # the directive spanning lines never counts


@pytest.mark.parametrize("tool", ["patch", "git"])
def test_patch_tool_round_trip(tmp_path, tool):
    pkg = five_occurrence_package()
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    patched = patched_package(tmp_path, pkg, emit_diff(pkg, plan), tool)
    rewritten = apply_plan(pkg, plan)
    assert dict(patched.templates) == dict(rewritten.templates)
    assert patched.values == rewritten.values
    assert patched.values_text == rewritten.values_text
    assert render.render_chart(patched).canonical_yaml() == \
        render.render_chart(pkg).canonical_yaml()


# values.yaml texts, each with what suggest does with the suggestions block:
# appends it, replaces a text that reads as no values and cannot take it
# after, or refuses in verification a text with values that cannot
VALUES_SHAPES = {
    "empty-flow-mapping": ("{}\n", "replaced"),
    "document-end": ("image: nginx\n...\n", "refused"),
    "top-level-list": ("- a\n", "refused"),
    "null": ("~\n", "replaced"),
    "null-word": ("null\n", "replaced"),
    "spaced-flow-mapping": ("{ }\n", "replaced"),
    "flow-mapping-and-comment": ("{}  # none\n", "replaced"),
    "document-start": ("---\n", "appended"),
    "empty": ("", "appended"),
    "comments-only": ("# nothing set\n", "appended"),
    "no-trailing-newline": ("app: web", "appended"),
}


@pytest.mark.parametrize("shape", VALUES_SHAPES)
def test_suggest_ships_only_diffs_whose_patched_chart_reads_as_the_rewrite(tmp_path, caplog,
                                                                           shape):
    values_text, outcome = VALUES_SHAPES[shape]
    files = chart_files(templates={"t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"})
    files["values.yaml"] = values_text
    chart_dir = write_chart_dir(tmp_path / "charts", "web", files)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="chartqa"):
        cli_dispatch(["suggest", "--path", str(tmp_path / "charts"), "--out", str(out)])
    diff_path = out / "diffs" / "web-1.0.0.tgz.patch"
    assert diff_path.exists() is (outcome != "refused")
    if outcome == "refused":
        assert "web: rewrite failed verification, diff suppressed" in caplog.text
        return
    pkg = package_from_dir(chart_dir)
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    rewritten = apply_plan(pkg, plan)
    patched = patched_package(tmp_path / "patched", pkg, diff_path.read_text())
    assert patched.templates == rewritten.templates
    assert patched.values == rewritten.values
    assert patched.values_text == rewritten.values_text
    assert patched.values["suggestions"] == {"var1": "dup-me"}
    kept = "" if outcome == "replaced" or not values_text else values_text.rstrip("\n") + "\n"
    assert patched.values_text == kept + plan.values_patch


def test_a_rewrite_whose_values_do_not_read_back_fails_verification():
    pkg = make_package(templates={"t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"})
    pkg = pkg._replace(values=["a"], values_text="- a\n")
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    with pytest.raises(ChartQAError, match="values.yaml"):
        apply_plan(pkg, plan)
    assert verify_rewrite(pkg, plan) is False


_DUPLICATES = ("dup-a", "dup b", "x.example.org")


@st.composite
def _planted_charts(draw):
    """A chart of one to three templates holding each of a few values at
    least three times, plain, double- or single-quoted, between unique
    lines, comments, directives and document separators."""
    templates = {}
    key = 0
    for number in range(draw(st.integers(1, 3))):
        lines = []
        for _ in range(draw(st.integers(1, 12))):
            kind = draw(st.sampled_from(["dup", "dup", "unique", "directive", "document"]))
            key += 1
            if kind == "dup":
                quote = draw(st.sampled_from(["", '"', "'"]))
                value = draw(st.sampled_from(_DUPLICATES))
                comment = draw(st.sampled_from(["", "  # same"]))
                lines.append(f"k{key}: {quote}{value}{quote}{comment}\n")
            elif kind == "unique":
                lines.append(f"k{key}: only-{key}\n")
            elif kind == "directive":
                lines.append(f"k{key}: {{{{ .Values.app | default \"none\" }}}}\n")
            elif lines:
                lines.append("---\n")
        body = "".join(lines)
        if draw(st.booleans()):
            body = body.rstrip("\n")
        templates[f"t{number}.yaml"] = body
    values_text = draw(st.sampled_from(["app: web\n", "app: web", "app: web\nport: 80", "{}\n"]))
    files = chart_files(templates=templates)
    files["values.yaml"] = values_text
    return package_from_files(files)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_planted_charts())
def test_a_verified_rewrite_patches_to_its_files_and_changes_only_the_planned_spans(pkg):
    report = detect_duplicates(pkg)
    assume(not report.is_empty)
    plan = plan_rewrite(pkg, report)
    assume(plan.assignments and verify_rewrite(pkg, plan))
    rewritten = apply_plan(pkg, plan)
    with tempfile.TemporaryDirectory() as root:
        patched = patched_package(root, pkg, emit_diff(pkg, plan))
    assert patched.templates == rewritten.templates
    assert patched.values_text == rewritten.values_text
    # putting each value back where its placeholder is gives the original bytes
    for path, body in rewritten.templates:
        for assignment in plan.assignments:
            placeholder = "{{ .Values.%s }}" % assignment.var_name
            planned = [occ for occ in assignment.target_occurrences if occ.template_path == path]
            assert body.count(placeholder) == len(planned)
            body = body.replace(placeholder, assignment.value)
        assert body == dict(pkg.templates)[path]
    original = pkg.values_source()
    if original.strip() == "{}":
        assert rewritten.values_text == plan.values_patch
    else:
        kept = original if original.endswith("\n") else original + "\n"
        assert rewritten.values_text == kept + plan.values_patch


def test_a_value_duplicated_forty_thousand_times_rewrites_in_linear_time():
    body = "".join(f"k{n}: dup-me\n" for n in range(40_000))
    assert 580_000 < len(body) < 600_000
    pkg = make_package(values={}, templates={"t.yaml": body})
    plan = plan_rewrite(pkg, detect_duplicates(pkg))
    assert len(plan.assignments[0].target_occurrences) == 40_000
    with deadline(1.0):
        rewritten = apply_plan(pkg, plan)
        diff_text = emit_diff(pkg, plan)
    (edited,) = dict(rewritten.templates).values()
    assert edited.count("{{ .Values.suggestions.var1 }}") == 40_000
    assert diff_text.count("\n+k") == 40_000


# --- digests ---

def _digest_fixture():
    maintained = make_package(
        name="app-a",
        maintainers=[{"name": "alice", "email": "Alice@Example.org"},
                     {"name": "bob", "email": "bob@example.org"}],
        values={},
        templates={"t.yaml": "a: dup\nb: dup\nc: dup\n"},
    )
    orphan = make_package(name="app-b", values={}, templates={"t.yaml": "x: ok\n"})
    packages = [maintained, orphan]
    index = index_from_entries(map(index_entry, packages), "memory:")
    irregularities = detect_irregularities(index)
    reports = [detect_duplicates(pkg) for pkg in packages]
    return index, irregularities, reports


def test_digest_fanout_and_unaddressable():
    index, irregularities, reports = _digest_fixture()
    batch = build_issue_digests(irregularities, reports, index, "http://qa.local")
    by_email = {d.recipient_email: d for d in batch.digests}
    assert set(by_email) == {"alice@example.org", "bob@example.org", "unaddressable"}
    # co-maintainers both receive the duplicate issue
    alice = by_email["alice@example.org"]
    bob = by_email["bob@example.org"]
    assert [i.kind for i in alice.issues] == [i.kind for i in bob.issues] == ["duplicate-values"]
    assert alice.issues[0].diff_link == "http://qa.local/diffs/app-a-1.0.0.tgz.patch"
    # the orphan chart's issue lands only in the unaddressable digest
    kinds = [i.kind for i in by_email["unaddressable"].issues]
    assert kinds == ["no-maintainer"]
    assert all(d.issues for d in batch.digests)


def test_digest_average_issue_arithmetic():
    index, irregularities, reports = _digest_fixture()
    batch = build_issue_digests(irregularities, reports, index, "http://qa.local")
    # 2 unique issues (duplicate + no-maintainer) over 2 addressable recipients
    assert batch.unique_issue_count == 2
    assert batch.recipient_count == 2
    assert batch.avg_issues_per_recipient == pytest.approx(1.0)


def test_digest_partition_every_issue_lands_somewhere():
    index, irregularities, reports = _digest_fixture()
    batch = build_issue_digests(irregularities, reports, index, "http://qa.local")
    identities = {i.identity() for d in batch.digests for i in d.issues}
    assert len(identities) == batch.unique_issue_count
    assert irregularities.total + sum(1 for r in reports if not r.is_empty) == \
        batch.unique_issue_count


def test_write_outbox(tmp_path):
    index, irregularities, reports = _digest_fixture()
    batch = build_issue_digests(irregularities, reports, index, "http://qa.local")
    written = write_outbox(batch, str(tmp_path / "outbox"))
    assert len(written) == len(batch.digests)
    text = (tmp_path / "outbox" / "alice_at_example.org.eml").read_text()
    assert text.startswith("To: alice@example.org\n")
    assert "Subject: chartqa: 1 chart quality finding" in text
    assert "http://qa.local/diffs/app-a-1.0.0.tgz.patch" in text


def test_write_outbox_gives_recipients_of_one_safe_name_distinct_files(tmp_path):
    recipients = ["a+b@x.com", "a_b@x.com", "a_b@x.com-2", "c@x.com"]
    batch = rewrite.DigestBatch(
        digests=tuple(rewrite.IssueDigest(email, (rewrite.Issue("no-maintainer", email),))
                      for email in recipients),
        unique_issue_count=4, recipient_count=4)
    written = write_outbox(batch, str(tmp_path))
    assert [os.path.basename(path) for path in written] == [
        "a_b_at_x.com.eml", "a_b_at_x.com-2.eml", "a_b_at_x.com-2-2.eml", "c_at_x.com.eml"]
    for email, path in zip(recipients, written):
        assert open(path, encoding="utf-8").read().startswith(f"To: {email}\n")


def _plan(pkg, var_name, value, *spans):
    """A hand-made plan putting ``var_name``'s placeholder over each (template, start, end)."""
    return RewritePlan(
        chart=pkg.ref,
        assignments=(Assignment(
            var_name=var_name,
            value=value,
            target_occurrences=tuple(
                Occurrence(f"templates/{name}", (start, end), None) for name, start, end in spans
            ),
        ),),
        values_patch=f"suggestions:\n  {var_name.split('.', 1)[1]}: {value}\n",
    )


def test_verify_rewrite_rejects_a_changed_document():
    body = "a: dup-me\nb: dup-me\nc: dup-me\n"
    pkg = make_package(values={}, templates={"t.yaml": body, "svc.yaml": "kind: Service\n"})
    spans = [("t.yaml", i, i + 6) for i in (3, 13, 23)]
    assert all(body[start:end] == "dup-me" for _, start, end in spans)
    assert verify_rewrite(pkg, _plan(pkg, "suggestions.var1", "dup-me", *spans)) is True
    # the placeholder renders another value: only t.yaml's document changes
    assert verify_rewrite(pkg, _plan(pkg, "suggestions.var1", "dup-mx", *spans)) is False


def test_verify_rewrite_rejects_a_template_rendered_on_one_side():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: dup-me\n", "svc.yaml": "kind: Service\n",
    })
    # the placeholder names no value, so t.yaml renders before the rewrite only
    assert verify_rewrite(pkg, _plan(pkg, "missing.var1", "dup-me", ("t.yaml", 3, 9))) is False
    body = "a: {{ .Values.absent }}\n"
    pkg = make_package(values={}, templates={"t.yaml": body, "svc.yaml": "kind: Service\n"})
    # the rewrite fills a missing value, so t.yaml renders after it only
    end = body.index("\n")
    assert verify_rewrite(pkg, _plan(pkg, "suggestions.var1", "filled", ("t.yaml", 3, end))) \
        is False
