"""template-render: builtin engine subset, flattening, external adapter."""

import stat

import pytest
import yaml

from chartqa.core import MAX_FILE_BYTES
from chartqa.errors import EngineUnavailable
from chartqa.render import (
    BuiltinEngine,
    ExternalEngine,
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
    assert _split_pipes(expr) is _split_pipes(expr)


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
    assert second.texts.keys() == first.texts.keys()
    assert second.differing(first) == {"templates/s.yaml"}
    assert [tp for tp, _i, _body in second.documents] == ["templates/s.yaml"]
    assert second.failures == []
    assert [(f.template_path, f.category) for f in first.failures] == [
        ("templates/bad.yaml", "SyntaxError"),
    ]
