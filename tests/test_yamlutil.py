"""The one YAML document walk: key rules, hostile input, and path agreement."""

import contextlib
import datetime
import signal

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from yaml.constructor import SafeConstructor

from chartqa.core import package_from_files
from chartqa.errors import MetadataParseError
from chartqa.render import flatten_documents, render_chart
from chartqa.yamlutil import _SafeLoader, build_path, load_documents, parse_path, sentinel_parse

from conftest import chart_files, make_package


def test_load_documents_index_and_key_rules():
    text = ("--- hello\n---\n# note\n---\n~\n"
            "---\n80: a\ntrue: b\nt: 2001-12-14\nbin: !!binary aGk=\n")
    assert [body for body, _ in load_documents(text)] == [
        "hello",
        {"80": "a", "True": "b", "t": datetime.date(2001, 12, 14), "bin": b"hi"},
    ]


def test_alias_expands_into_its_own_copy():
    ((body, leaves),) = load_documents("a: &x {b: 1}\nc: *x\n")
    assert body == {"a": {"b": 1}, "c": {"b": 1}}
    assert body["a"] is not body["c"]
    assert [(segs, value) for segs, _node, value in leaves] == [
        ((("key", "a"), ("key", "b")), 1), ((("key", "c"), ("key", "b")), 1),
    ]


@pytest.mark.parametrize("text, problem", [
    ("a: &x [1, *x]", "recursive alias"),
    ("a: &x {b: *x}", "recursive alias"),
    ("a: " + "[" * 150 + "]" * 150, "nested deeper than 100 levels"),
    ("1: a\n'1': b\n", "duplicate mapping key '1'"),
    ("<<: {a: 1}\n", "could not determine a constructor"),
    ("? [a]\n: b\n", "non-scalar mapping key"),
    ("a: 1\n---\nb: : x\n", "mapping values are not allowed"),
])
def test_load_documents_rejects(text, problem):
    with pytest.raises(yaml.YAMLError, match=problem):
        load_documents(text)


def alias_bomb(levels: int) -> str:
    """``levels`` lines, each a list of ten aliases to the line above: 10**levels leaves."""
    lines = ["l0: &l0 [" + ", ".join(["x"] * 10) + "]"]
    for n in range(1, levels):
        lines.append(f"l{n}: &l{n} [" + ", ".join([f"*l{n - 1}"] * 10) + "]")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail, rather than hang, when the body uses more than ``seconds`` of CPU."""
    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} CPU seconds")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def test_alias_bomb_rejected_quickly():
    bomb = alias_bomb(9)
    with deadline(1.0):
        parse = sentinel_parse("templates/t.yaml", bomb)
    assert "expands to more than 100000 nodes" in parse.error and parse.leaves == []
    with deadline(1.0):
        result = render_chart(make_package(values={}, templates={"t.yaml": bomb}))
    assert result.documents == []
    assert [(f.template_path, f.category) for f in result.failures] == [
        ("templates/t.yaml", "SyntaxError")
    ]
    files = chart_files()
    files["values.yaml"] = bomb
    with deadline(1.0), pytest.raises(MetadataParseError):
        package_from_files(files)


# --- sentinel key paths equal rendered key paths ---

KEYS = st.one_of(st.text("abk", min_size=1, max_size=3), st.integers(-2, 300), st.booleans())
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text("ab1 :#-", max_size=5),
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(KEYS, kids, max_size=3)),
    max_leaves=8,
)


def _dump(value) -> str:
    return "---\n" + yaml.safe_dump(value, sort_keys=False)


DOCUMENTS = st.one_of(
    TREES.map(_dump),
    # one subtree twice: the dump writes an anchor and an alias
    st.one_of(st.lists(TREES, min_size=1, max_size=2),
              st.dictionaries(KEYS, TREES, min_size=1, max_size=2))
    .map(lambda shared: _dump({"x": shared, "y": [shared]})),
    st.sampled_from(["hello", "5", "true", "'quoted'"]).map(lambda s: f"--- {s}\n"),
    st.just("---\n# only a comment\n"),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(DOCUMENTS, min_size=1, max_size=4), st.booleans())
def test_sentinel_paths_equal_rendered_paths(documents, bare_first):
    text = "".join(documents)
    if bare_first and text.startswith("---\n"):
        text = text[len("---\n"):]
    parse = sentinel_parse("templates/t.yaml", text)
    rendered = render_chart(make_package(values={}, templates={"t.yaml": text}))
    assert [(leaf.path, leaf.value) for leaf in parse.leaves] == \
        flatten_documents(rendered.documents)
    assert (parse.error is None) == (rendered.failures == [])


SEGMENTS = st.lists(st.one_of(
    st.tuples(st.just("key"), st.text(st.characters(blacklist_characters="/["))),
    st.tuples(st.just("idx"), st.integers(0, 10**6)),
), max_size=6).map(tuple)


@given(st.text(st.characters(blacklist_characters="#")), st.integers(0, 10**6), SEGMENTS)
def test_parse_path_inverts_build_path(template_path, doc_index, segments):
    assert parse_path(build_path(template_path, doc_index, segments)) == \
        (template_path, doc_index, segments)


# --- the walk builds what SafeConstructor builds ---

def constructed_documents(text: str) -> list:
    """load_documents' result when every scalar and key goes through SafeConstructor."""
    constructor = SafeConstructor()

    def build(node, segs, leaves):
        if isinstance(node, yaml.ScalarNode):
            value = constructor.construct_object(node, deep=True)
            leaves.append((segs, node, value))
            return value
        if isinstance(node, yaml.SequenceNode):
            return [build(item, segs + (("idx", i),), leaves) for i, item in enumerate(node.value)]
        body = {}
        for key_node, value_node in node.value:
            key = str(constructor.construct_object(key_node, deep=True))
            body[key] = build(value_node, segs + (("key", key),), leaves)
        return body

    documents = []
    for node in yaml.compose_all(text, Loader=_SafeLoader):
        if node.tag != "tag:yaml.org,2002:null":
            leaves: list = []
            documents.append((build(node, (), leaves), leaves))
    return documents


def typed(value):
    """``value`` with the type of every scalar spelt out, since ``1 == 1.0 == True``."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return type(value).__name__, value


def typed_documents(documents) -> list:
    return [(typed(body), [(segs, node.start_mark.index, typed(value))
                           for segs, node, value in leaves])
            for body, leaves in documents]


# keys stay unique in str() form: texts start with "k", and 1 == True is one dict key
PLAIN_KEYS = st.one_of(st.text(max_size=4).map("k".__add__), st.integers(-2, 300), st.booleans())
PLAIN_TREES = st.recursive(
    st.one_of(SCALARS, st.text(max_size=8), st.dates()),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(PLAIN_KEYS, kids, max_size=3)),
    max_leaves=10,
)
DUMP_STYLES = st.sampled_from([
    {}, {"default_flow_style": True}, {"default_style": '"'}, {"default_style": "'"},
    {"explicit_start": True, "allow_unicode": True},
])


@settings(max_examples=200, deadline=None)
@given(st.lists(PLAIN_TREES, min_size=1, max_size=3), DUMP_STYLES)
def test_walk_builds_what_the_constructor_builds(trees, style):
    text = yaml.safe_dump_all(trees, **style)
    assume(not any(isinstance(event, yaml.AliasEvent)
                   for event in yaml.parse(text, Loader=_SafeLoader)))
    assert typed_documents(load_documents(text)) == typed_documents(constructed_documents(text))
