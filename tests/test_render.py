"""template-render: builtin engine subset, flattening, external adapter."""

import random
import re
import stat

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartqa import render, yamlutil
from chartqa.core import MAX_FILE_BYTES
from chartqa.errors import EngineUnavailable
from chartqa.render import (
    BuiltinEngine,
    ExternalEngine,
    _evaluator,
    _split_pipes,
    render_chart,
)

from test_yamlutil import deadline

from conftest import make_package


def render_single(pkg, overrides=None):
    result = render_chart(pkg, overrides)
    assert not result.failures, result.failures
    return result


def test_plain_substitution():
    pkg = make_package(values={"app": "web"}, templates={"t.yaml": "name: {{ .Values.app }}\n"})
    result = render_single(pkg)
    assert result.documents == [("templates/t.yaml", 0, {"name": "web"})]


def test_builtin_context_and_pipes():
    pkg = make_package(
        name="mychart", version="2.0.1",
        values={"msg": "Hello", "empty": ""},
        templates={"t.yaml": (
            "a: {{ .Chart.Name }}\n"
            "b: {{ .Chart.Version }}\n"
            "c: {{ .Release.Name }}\n"
            "d: {{ .Values.msg | upper }}\n"
            "e: {{ .Values.msg | lower | quote }}\n"
            "f: {{ .Values.absent | default \"fallback\" }}\n"
            "g: {{ .Values.empty | default \"filled\" }}\n"
        )},
    )
    (_, _, doc), = render_single(pkg).documents
    assert doc == {
        "a": "mychart", "b": "2.0.1", "c": "release-name",
        "d": "HELLO", "e": "hello", "f": "fallback", "g": "filled",
    }


def test_random_value_differs_between_renders():
    pkg = make_package(
        values={}, templates={"t.yaml": "fixed: abc\npw: {{ randAlphaNum 24 }}\n"}
    )
    first = render_single(pkg).leaf_values()
    second = render_single(pkg).leaf_values()
    assert first["templates/t.yaml#0/fixed"] == second["templates/t.yaml#0/fixed"]
    assert first["templates/t.yaml#0/pw"] != second["templates/t.yaml#0/pw"]
    assert len(first["templates/t.yaml#0/pw"]) == 24


def test_each_occurrence_of_one_random_expression_draws_afresh():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: {{ randAlphaNum 24 }}\nb: {{ randAlphaNum 24 }}\n"})
    leaves = render_single(pkg).leaf_values()
    assert leaves["templates/t.yaml#0/a"] != leaves["templates/t.yaml#0/b"]


def test_missing_value_failure():
    pkg = make_package(values={}, templates={"t.yaml": "a: {{ .Values.absent }}\n"})
    result = render_chart(pkg)
    assert result.documents == []
    (failure,) = result.failures
    assert failure.category == "MissingValue"
    assert failure.template_path == "templates/t.yaml"


def test_unsupported_directive_failure_keeps_other_templates():
    pkg = make_package(values={}, templates={
        "bad.yaml": "a: {{ include \"helper\" . }}\n",
        "good.yaml": "b: ok\n",
    })
    result = render_chart(pkg)
    assert [f.category for f in result.failures] == ["EngineUnsupported"]
    assert [(tp, doc) for tp, _i, doc in result.documents] == [
        ("templates/good.yaml", {"b": "ok"})
    ]


@pytest.mark.parametrize("directive", [
    "randAlphaNum \u00b2",  # a digit to isdigit(), not a decimal to int()
    f"randAlphaNum {MAX_FILE_BYTES + 1}",
    "randAlphaNum " + "9" * 5000,  # past int()'s digit limit
    "9" * 5000,
])
def test_a_directive_the_engine_cannot_evaluate_fails_its_template(directive):
    pkg = make_package(values={}, templates={
        "bad.yaml": f"a: {{{{ {directive} }}}}\n", "good.yaml": "b: ok\n"})
    with deadline(1.0):
        result = render_chart(pkg)
    assert [(f.template_path, f.category) for f in result.failures] == [
        ("templates/bad.yaml", "EngineUnsupported")]
    assert [tp for tp, _i, _doc in result.documents] == ["templates/good.yaml"]


def test_a_template_rendering_past_the_file_bound_fails_alone():
    half = "x" * (MAX_FILE_BYTES // 2)
    pkg = make_package(extra={"values.yaml": f"half: {half}\nover: {half}x\n"}, templates={
        "at.yaml": "{{ .Values.half }}{{ .Values.half }}",
        "over.yaml": "{{ .Values.over }}{{ .Values.over }}",
        # stops at the second directive, not after a thousand
        "many.yaml": "{{ .Values.over }}" * 1000,
        "good.yaml": "b: ok\n",
    })
    with deadline(1.0):
        result = render_chart(pkg)
    assert [(f.template_path, f.category, f.reason) for f in result.failures] == [
        (f"templates/{name}.yaml", "EngineUnsupported",
         f"renders to more than {MAX_FILE_BYTES} characters") for name in ("many", "over")]
    assert [(tp, len(doc) if tp.endswith("at.yaml") else doc)
            for tp, _i, doc in result.documents] == [
        ("templates/at.yaml", MAX_FILE_BYTES), ("templates/good.yaml", {"b": "ok"})]


def test_rendered_yaml_syntax_error():
    pkg = make_package(values={"v": "x"}, templates={"t.yaml": "a: [unclosed {{ .Values.v }}\n"})
    result = render_chart(pkg)
    (failure,) = result.failures
    assert failure.category == "SyntaxError"


def test_malformed_middle_document_fails_whole_template():
    pkg = make_package(values={}, templates={
        "t.yaml": "a: 1\n---\nb: : x\n---\nc: 3\n", "u.yaml": "d: 4\n",
    })
    result = render_chart(pkg)
    (failure,) = result.failures
    assert (failure.template_path, failure.category) == ("templates/t.yaml", "SyntaxError")
    assert result.documents == [("templates/u.yaml", 0, {"d": 4})]


def test_pin_reaches_value_under_integer_key():
    pkg = make_package(values={}, templates={
        "t.yaml": "ports:\n  80: {{ randAlphaNum 8 }}\n  web: {{ randAlphaNum 8 }}\n",
    })
    overrides = {"templates/t.yaml#0/ports/80": "p80", "templates/t.yaml#0/ports/web": "pweb"}
    result = render_chart(pkg, overrides)
    assert result.documents == [("templates/t.yaml", 0, {"ports": {"80": "p80", "web": "pweb"}})]


def test_multi_document_split_column_zero():
    text = "a: 1\n---\nb: 2\n--- # trailing comment\nc: 3\n"
    pkg = make_package(values={}, templates={"t.yaml": text})
    marked = ("---\n# Source: c/templates/a.yaml\na: 1\n"
              "--- # trailing comment\n# Source: c/templates/b.yaml\nb: 1\n")
    assert ExternalEngine._attribute_output(marked, pkg) == [
        ("templates/a.yaml", "# Source: c/templates/a.yaml\na: 1\n"),
        ("templates/b.yaml", "# Source: c/templates/b.yaml\nb: 1\n"),
    ]
    result = render_single(pkg)
    assert [(i, doc) for _tp, i, doc in result.documents] == [
        (0, {"a": 1}), (1, {"b": 2}), (2, {"c": 3}),
    ]


# the Source pattern the attribution used before, which backtracks once per
# ``templates/`` on a long line
OLD_SOURCE_MARK_RE = re.compile(r"^# Source:\s*\S*?(templates/\S+)\s*$", re.MULTILINE)


def old_attribution(stdout: str) -> list[tuple[str, str]]:
    per_template: dict[str, list[str]] = {}
    for chunk in render._SEPARATOR_RE.split(stdout):
        if chunk.strip():
            m = OLD_SOURCE_MARK_RE.search(chunk)
            per_template.setdefault(m.group(1) if m else "", []).append(chunk)
    return [(path, "\n---\n".join(chunks)) for path, chunks in per_template.items()]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["# Source:", " ", "\n", "\t", "---", "templates/", "templates",
                                 "c/", "a.yaml", "x", "#", ":"]), max_size=16).map("".join))
def test_source_attribution_groups_as_the_old_pattern(stdout):
    assert ExternalEngine._attribute_output(stdout, None) == old_attribution(stdout)


def test_a_long_source_line_is_attributed_in_linear_time():
    line = "# Source: " + "templates/" * (5 * 2**20 // 10) + " x"
    with deadline(1.0):
        assert ExternalEngine._attribute_output(line, None) == [("", line)]


def leaf_items(text):
    return list(render_single(make_package(values={}, templates={"t.yaml": text}))
                .leaf_values().items())


def test_flatten_paths():
    assert leaf_items("a: {b: x}\n") == [("templates/t.yaml#0/a/b", "x")]
    assert leaf_items("a: 1\n---\na: 2\n") == [
        ("templates/t.yaml#0/a", "1"), ("templates/t.yaml#1/a", "2")]
    assert leaf_items("a: [x, y]\n") == [
        ("templates/t.yaml#0/a[0]", "x"), ("templates/t.yaml#0/a[1]", "y")]
    assert leaf_items("--- 5\n") == [("templates/t.yaml#0", "5")]


def _walk_scalars(node, out):
    if isinstance(node, dict):
        for v in node.values():
            _walk_scalars(v, out)
    elif isinstance(node, list):
        for v in node:
            _walk_scalars(v, out)
    else:
        out.append(node)


def test_flatten_lossless_for_scalars():
    body = {
        "a": {"b": [1, 2, {"c": "x"}], "d": True},
        "e": None,
        "f": [{"g": 1.5}, "x"],
    }
    flattened = sorted(value for _path, value in leaf_items(yaml.safe_dump(body)))
    direct = []
    _walk_scalars(body, direct)

    def canon(v):
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, float)):
            return repr(v)
        return str(v)

    assert flattened == sorted(canon(v) for v in direct)


def test_overrides_pin_rendered_leaves():
    pkg = make_package(values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum 16 }}\ncfg:\n  a: [1]\n"})
    overrides = {"templates/t.yaml#0/pw": "pinned", "templates/t.yaml#0/nope": "ignored",
                 "templates/gone.yaml#0/pw": "ignored", "no key path": "ignored",
                 "templates/t.yaml#0/cfg": "not a leaf", "templates/t.yaml#0/cfg/a": "nor this"}
    result = render_chart(pkg, overrides)
    assert result.documents == [("templates/t.yaml", 0, {"pw": "pinned", "cfg": {"a": [1]}})]
    assert result.applied == {"templates/t.yaml#0/pw"}


@pytest.mark.parametrize("expr, stages", [
    ('.Values.a | default "x|y" | quote', (('.Values.a',), ('default', '"x|y"'), ('quote',))),
    ('"a\\"|b" | upper', (('"a\\"|b"',), ('upper',))),
    ('"x\\\\"|y"', (('"x\\\\"', '|y"'),)),
    ('default "a b" "c"', (('default', '"a b"', '"c"'),)),
    ('.Values.a || quote', (('.Values.a',), (), ('quote',))),
    ('.Values.a |', (('.Values.a',), ())),
    ('', ((),)),
], ids=["quoted-pipe", "escaped-quote", "backslash-before-quote", "quoted-space",
        "empty-middle-stage", "empty-last-stage", "empty-directive"])
def test_split_pipes_stages(expr, stages):
    assert _split_pipes(expr) == stages
    assert _evaluator(expr) is _evaluator(expr)  # compiled once per expression text


def test_determinism_with_all_variable_keys_overridden():
    pkg = make_package(values={"app": "web"}, templates={
        "t.yaml": "a: {{ .Values.app }}\npw: {{ randAlphaNum 12 }}\ntok: {{ randAlphaNum 8 }}\n",
    })
    overrides = {"templates/t.yaml#0/pw": "p", "templates/t.yaml#0/tok": "t"}
    first = render_chart(pkg, overrides).canonical_yaml()
    second = render_chart(pkg, overrides).canonical_yaml()
    assert first == second


FAKE_RENDERER = r"""#!/usr/bin/env python3
# Minimal stand-in for the platform chart tool's template mode: substitutes
# {{ .Values.<flat-key> }} from values.yaml, nothing else.
import os
import re
import sys

import yaml

chart_dir = sys.argv[2]
chart_name = os.path.basename(chart_dir.rstrip("/"))
with open(os.path.join(chart_dir, "values.yaml")) as fh:
    values = yaml.safe_load(fh) or {}

template_dir = os.path.join(chart_dir, "templates")
for name in sorted(os.listdir(template_dir)):
    with open(os.path.join(template_dir, name)) as fh:
        body = fh.read()

    def sub(match):
        key = match.group(1)
        if key not in values:
            sys.stderr.write("missing required value %s\n" % key)
            sys.exit(1)
        return str(values[key])

    body = re.sub(r"\{\{\s*\.Values\.([\w.]+)\s*\}\}", sub, body)
    sys.stdout.write("---\n# Source: %s/templates/%s\n%s" % (chart_name, name, body))
"""


@pytest.fixture
def fake_renderer(tmp_path):
    path = tmp_path / "fake-helm"
    path.write_text(FAKE_RENDERER)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_engine_agrees_with_builtin(fake_renderer):
    pkg = make_package(
        values={"app": "web", "replicas": 3},
        templates={
            "deploy.yaml": "name: {{ .Values.app }}\nreplicas: {{ .Values.replicas }}\n",
            "svc.yaml": "selector: {{ .Values.app }}\n",
        },
    )
    builtin = render_chart(pkg, engine=BuiltinEngine())
    external = render_chart(pkg, engine=ExternalEngine(binary=fake_renderer))
    assert not builtin.failures and not external.failures
    as_docs = lambda r: {  # noqa: E731
        (tp, i): doc for tp, i, doc in r.documents
    }
    assert as_docs(builtin) == as_docs(external)


def test_external_engine_failure_mapping(fake_renderer):
    pkg = make_package(values={}, templates={"t.yaml": "a: {{ .Values.absent }}\n"})
    result = render_chart(pkg, engine=ExternalEngine(binary=fake_renderer))
    assert result.documents == []
    assert result.failures and result.failures[0].category == "MissingValue"


def test_external_engine_unavailable(tmp_path):
    engine = ExternalEngine(binary=str(tmp_path / "does-not-exist"))
    pkg = make_package(values={}, templates={"t.yaml": "a: 1\n"})
    with pytest.raises(EngineUnavailable):
        render_chart(pkg, engine=engine)


def test_external_engine_env_var(fake_renderer, monkeypatch):
    monkeypatch.setenv("CHARTQA_RENDERER", fake_renderer)
    pkg = make_package(values={"a": "x"}, templates={"t.yaml": "k: {{ .Values.a }}\n"})
    result = render_chart(pkg, engine=ExternalEngine())
    assert result.documents == [("templates/t.yaml", 0, {"k": "x"})]


def test_render_against_earlier_parses_only_differing_text():
    pkg = make_package(values={}, templates={
        "bad.yaml": "a: : b\n",
        "fixed.yaml": "k: v\n",
        "s.yaml": "pw: {{ randAlphaNum 8 }}\n",
    })
    first = render_chart(pkg)
    second = render_chart(pkg, earlier=first)
    assert second.keys.keys() == first.keys.keys()
    assert second.differing(first) == {"templates/s.yaml"}
    assert [tp for tp, _i, _body in second.documents] == ["templates/s.yaml"]
    assert second.failures == []
    assert [(f.template_path, f.category) for f in first.failures] == [
        ("templates/bad.yaml", "SyntaxError"),
    ]


# --- the fill of the compiled sentinel parse equals parsing the rendered text ---

def _typed(value):
    """``value`` with each scalar as (type name, repr), so ``5`` and ``'5'`` differ."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value).__name__, repr(value)


def _outcome(pkg, overrides, seed, fill: bool):
    """What ``render_chart`` gives with the fill on or off (then every
    template is parsed from its rendered text), with ``_RAND`` seeded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_RAND", random.Random(seed))
        if not fill:
            patch.setattr(yamlutil.CompiledTemplate, "fill", lambda self, outputs: None)
        result = render_chart(pkg, overrides)
    return ([(tp, i, _typed(body)) for tp, i, body in result.documents],
            {path: _typed(container[slot]) for path, (_, container, slot) in result.leaves.items()},
            result.leaf_values(), sorted(result.applied), result.failures)


# values that a fill must not take as written: indicators, edge spaces,
# quotes, escapes, line breaks, document markers, other tags
TRICKY = [
    "", "5", "abc", "a: b", "a #b", "a#b", " lead", "trail ", "x:", "-", "- x", "-5", "?x",
    "#c", "[x]", "{y}", "a,b", "---", "--- x", "...", "x\ty", "\tx", "line\nbreak", 'q"x', "it's",
    "b\\s", "yes", "null", "~", "1.5", "0x1F", "0x_", "1:20", ".nan", "2001-12-14", "<<", "=",
    '"dq"', "'sq'", "'it''s'", "\x85", "é", "*ref", "&anc", "!tag", "%p", "@at", "`bt", "|", ">",
]
VALUES = st.one_of(st.sampled_from(TRICKY), st.integers(-3, 3), st.booleans(),
                   st.text("ab :#'\"-\n", max_size=4))
DIRECTIVES = st.sampled_from([
    "{{ .Values.v0 }}", "{{ .Values.v1 }}", "{{ .Values.v2 | quote }}", "{{ .Values.v0 | upper }}",
    '{{ .Values.absent | default "dflt" }}', "{{ randAlphaNum 4 }}", "{{- .Values.v1 -}}",
])
# lines of a mapping document; $d is a directive, $i the line's number
FRAGMENTS = [
    "k$i: $d", "k$i: pre-$d-post", "k$i: $d $d", 'k$i: "$d"', "k$i: 'x $d'", 'k$i: "a$d b"',
    "k$i: !!str $d", "k$i: !!int 5", "k$i: &a$i $d\nr$i: *a$i", "k$i: &m$i {x: $d}\nr$i: *m$i",
    "$d: v$i", "k$i: v # $d", "# $d", "k$i: [a, $d]", "k$i: {x: $d, y: b}", "k$i: |\n  $d",
    "k$i: >\n  $d", "k$i: $d\n  more", 'k$i: "$d\n  more"', "k$i:\n  - $d\n  - b",
    "k$i:\n  n: $d", "k$i: 2001-12-14", "k$i: ~",
]
ROOTS = ["$d", "[a,\n$d]", "- $d\n- x", "plain root"]


@st.composite
def templates(draw) -> str:
    documents = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines = draw(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=4))
            documents.append("\n".join(line.replace("$i", str(i)) for i, line in enumerate(lines)))
        else:
            documents.append(draw(st.sampled_from(ROOTS)))
    text = "\n---\n".join(documents) + "\n"
    while "$d" in text:
        text = text.replace("$d", draw(DIRECTIVES), 1)
    return text


def _example(text: str, **values):
    return example(text=text, values={f"v{n}": values.get(f"v{n}", "x") for n in range(3)},
                   seed=0)


@settings(max_examples=300, deadline=None)
@given(text=templates(), values=st.fixed_dictionaries({f"v{n}": VALUES for n in range(3)}),
       seed=st.integers(0, 2**32))
@_example("a: !!str {{ .Values.v0 }}\n", v0=5)
@_example("a: {{ .Values.v0 }}\n", v0=" lead")
@_example("a: {{ .Values.v0 }}\n", v0="trail ")
@_example("a: {{ .Values.v0 }}\n", v0="x:")
@_example("a: {{ .Values.v0 }}\n", v0="a: b")
@_example("a: {{ .Values.v0 }}\n", v0="a #b")
@_example("a: {{ .Values.v0 }}\n", v0="#c")
@_example("a: {{ .Values.v0 }}\n", v0="- x")
@_example("a: {{ .Values.v0 }}\n", v0="\tx")
@_example("a: {{ .Values.v0 }}\n", v0="2001-12-14")
@_example("a: {{ .Values.v0 }}\n", v0="0x_")
@_example("a: [{{ .Values.v0 }}]\n", v0="x,y")
@_example("[a,\n{{ .Values.v0 }}]\n", v0="--- x")
@_example("a: {{ .Values.v2 | quote }}\n", v2='q"x')
@_example("a: {{ .Values.v0 }}\n", v0="'it''s'")
@_example("a: {{ .Values.v2 | quote }}\n", v2="line\nbreak")
@_example('a: "{{ .Values.v0 }}"\n', v0='q"x')
@_example('a: "{{ .Values.v0 }}"\n', v0="b\\s")
@_example("a: 'x {{ .Values.v0 }}'\n", v0="it's")
@_example('a: "{{ .Values.v0 }}"\n', v0="line\nbreak")
@_example('a: "{{ .Values.v0 }}\n  more"\n', v0="trail ")
@_example("a: {{ .Values.v0 }}\n  more\n", v0="trail ")
@_example("a: |\n  {{ .Values.v0 }}\n", v0=" lead")
@_example("{{ .Values.v0 }}: v\n", v0="key")
@_example("a: v # {{ .Values.v0 }}\n", v0="x\nb: 2")
@_example("{{ .Values.v0 }}\n---\nb: 2\n", v0="")
@_example("a: &x {{ .Values.v0 }}\nb: *x\n", v0="val")
def test_filled_documents_equal_the_parsed_rendered_text(text, values, seed):
    pkg = make_package(values=values, templates={"t.yaml": text})
    overrides = {"templates/t.yaml#0/k0": "pinned", "templates/t.yaml#0/r1": "pinned",
                 "templates/t.yaml#1": "root"}
    assert _outcome(pkg, overrides, seed, True) == _outcome(pkg, overrides, seed, False)


def _fills(text: str, **values) -> bool:
    """Whether the builtin engine renders ``text`` by filling its compiled parse."""
    pkg = make_package(values=values, templates={"t.yaml": text})
    compiled = yamlutil.compile_template(text)
    return compiled.fill(BuiltinEngine()._outputs(pkg, compiled)) is not None


def test_an_explicit_tag_keeps_its_type():
    pkg = make_package(values={"n": 5}, templates={"t.yaml": "a: !!str {{ .Values.n }}\n"})
    assert render_single(pkg).documents == [("templates/t.yaml", 0, {"a": "5"})]
    assert not _fills("a: !!str {{ .Values.n }}\n", n=5)
    assert _fills("a: {{ .Values.n }}\n", n=5)


def test_an_anchored_templated_scalar_an_alias_repeats_is_parsed_from_text():
    text = "a: &x {{ .Values.v }}\nb: *x\n"
    pkg = make_package(values={"v": "val"}, templates={"t.yaml": text})
    assert render_single(pkg).documents == [("templates/t.yaml", 0, {"a": "val", "b": "val"})]
    assert not _fills(text, v="val")


def test_a_flow_sequence_holding_a_directive_is_filled():
    text = "a: [x, {{ .Values.v }}, {{ .Values.n }}]\n"
    pkg = make_package(values={"v": "val", "n": 3}, templates={"t.yaml": text})
    assert render_single(pkg).documents == [("templates/t.yaml", 0, {"a": ["x", "val", 3]})]
    assert _fills(text, v="val", n=3)


def test_an_empty_output_before_a_separator_keeps_the_rendered_ordinals():
    # the empty first document takes no index in the render (FOUND 13)
    text = "{{ .Values.x }}\n---\nb: 2\n"
    pkg = make_package(values={"x": ""}, templates={"t.yaml": text})
    assert list(render_single(pkg).leaf_values()) == ["templates/t.yaml#0/b"]
    assert not _fills(text, x="")
