"""The one YAML document walk: key rules, hostile input, and path agreement."""

import contextlib
import datetime
import functools
import gc
import json
import re
import signal
import tracemalloc
import types

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from yaml.constructor import SafeConstructor

from chartqa import yamlutil
from chartqa.core import package_from_files
from chartqa.errors import MetadataParseError
from chartqa.render import render_chart
from chartqa.yamlutil import (
    _SafeLoader,
    directive_spans,
    load_documents,
    load_literal,
    load_unique,
    sentinel_parse,
)

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
    assert [(path, value, slot) for path, _container, slot, value, *_ in leaves] == \
        [("/a/b", 1, "b"), ("/c/b", 1, "b")]
    assert leaves[0][1] is body["a"] and leaves[1][1] is body["c"]


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


@pytest.mark.parametrize("text", [
    "a: 2001-02-30\n", "a: !!int abc\n", "a: !!bool maybe\n", "a: " + "9" * 5000 + "\n",
    "a: !!int\n", "a: !!float ''\n", "a: !!timestamp abc\n",
], ids=["impossible-date", "int-tag-on-text", "bool-tag-on-text", "past-int-digit-limit",
        "empty-int", "empty-float", "timestamp-tag-on-text"])
def test_a_scalar_its_tag_cannot_build_is_not_yaml(text):
    with pytest.raises(yaml.YAMLError, match="cannot build tag:yaml.org,2002:"):
        load_documents(text)
    assert "cannot build" in sentinel_parse("templates/t.yaml", text).error
    files = chart_files()
    files["values.yaml"] = text
    with pytest.raises(MetadataParseError, match="cannot build"):
        package_from_files(files)


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


# --- directive spans ---

# the pattern directive_spans replaced: from each "{{" to the first "}}" after it
LAZY_DIRECTIVE_RE = re.compile(r"\{\{.*?\}\}", re.DOTALL)


@settings(max_examples=500, deadline=None)
@given(st.text("{} x\n", max_size=40))
def test_directive_spans_equal_the_lazy_pattern_spans(text):
    assert directive_spans(text) == [m.span() for m in LAZY_DIRECTIVE_RE.finditer(text)]


def test_an_unclosed_directive_is_read_in_linear_time():
    # each "{{" has no "}}" after it: the lazy pattern rescanned the rest of
    # the text from each one, which took hours on a file this size
    text = "a: " + "{{ x " * (5 * 2**20 // 5 - 1)
    pkg = make_package(values={}, templates={"t.yaml": text})
    with deadline(1.0):
        parse = sentinel_parse("templates/t.yaml", text)
        result = render_chart(pkg)
    assert parse.error is not None and parse.leaves == []
    assert [(f.template_path, f.category) for f in result.failures] == [
        ("templates/t.yaml", "SyntaxError")]


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
        list(rendered.leaf_values().items())
    assert (parse.error is None) == (rendered.failures == [])


# --- a pin sets the leaf the walk named, whatever its keys hold ---

# keys that hold the characters of the key-path grammar, digits and ``true``,
# so key paths collide: a key ``a/b`` beside ``a: {b: ...}``, ``a[0]`` beside ``a: [...]``
PATH_KEYS = st.one_of(st.text("a/#[]0", min_size=1, max_size=4),
                      st.sampled_from(["true", "a/b", "a[0]", "#0"]),
                      st.integers(0, 2), st.booleans())
PATH_SCALARS = st.one_of(st.text("xy", max_size=2), st.integers(0, 9), st.booleans(), st.none())
PATH_TREES = st.recursive(
    PATH_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        # keys unique in str() form, as the walk requires
        st.dictionaries(PATH_KEYS, kids, max_size=3)
        .filter(lambda d: len({str(key) for key in d}) == len(d))),
    max_leaves=8,
)


def _colliding(first, second, flip: bool) -> str:
    """A document holding ``first`` and ``second`` at one key path, twice:
    through a key with ``/`` and through one with ``[``. ``first`` is
    dumped once with an anchor and then as an alias."""
    pairs = [("a/b", first), ("a", {"b": second}), ("c[0]", first), ("c", [second])]
    return _dump(dict(pairs[::-1] if flip else pairs))


PATH_DOCUMENTS = st.one_of(
    PATH_TREES.map(_dump),
    # one subtree twice: the dump writes an anchor and an alias
    PATH_TREES.map(lambda shared: _dump({"a": shared, "a/b": [shared]})),
    st.builds(_colliding, PATH_SCALARS, PATH_SCALARS, st.booleans()),
    st.builds(_colliding, PATH_TREES, PATH_TREES, st.booleans()),
    st.just("--- hello\n"),
)
MARKER = "pinned-marker"


def walked(documents) -> tuple[list, list]:
    """The (key path, value, is a document root) of each scalar leaf of
    rendered documents, depth-first, and the key paths of the mappings and
    lists below each document's root, both named here by the grammar."""
    leaves, containers = [], []

    def walk(node, path, root):
        if isinstance(node, dict):
            for key, item in node.items():
                walk(item, f"{path}/{key}", False)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]", False)
        else:
            leaves.append((path, node, root))
            return
        if not root:
            containers.append(path)

    for template_path, doc_index, body in documents:
        walk(body, f"{template_path}#{doc_index}", True)
    return leaves, containers


@settings(max_examples=100, deadline=None)
@given(st.lists(PATH_DOCUMENTS, min_size=1, max_size=3))
def test_pin_sets_exactly_the_last_leaf_of_its_key_path(documents):
    pkg = make_package(values={}, templates={"a#b.yaml": "".join(documents)})
    baseline = render_chart(pkg)
    assert baseline.failures == []
    leaves, containers = walked(baseline.documents)
    values = baseline.leaf_values()
    assert list(values) == list(dict.fromkeys(path for path, _, _ in leaves))
    for key_path in values:
        pinned = render_chart(pkg, {key_path: MARKER})
        last = max(i for i, (path, _, _) in enumerate(leaves) if path == key_path)
        expected = list(leaves)
        if leaves[last][2]:  # a document that is one scalar is not pinned
            assert pinned.applied == set()
        else:
            expected[last] = (key_path, MARKER, False)
            assert pinned.applied == {key_path}
        assert walked(pinned.documents)[0] == expected
        assert pinned.leaf_values() == {**values, **{
            path: MARKER for path in pinned.applied}}
    for key_path in set(containers) - set(values):
        pinned = render_chart(pkg, {key_path: MARKER})
        assert pinned.applied == set()
        assert pinned.documents == baseline.documents


# --- the walk builds what SafeConstructor builds ---

# PyYAML's own loader, without the cached resolver
STOCK_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def constructed_documents(text: str) -> list:
    """load_documents' result when every scalar and key goes through SafeConstructor,
    each leaf as (key path suffix, start, value)."""
    constructor = SafeConstructor()

    def build(node, path, leaves):
        if isinstance(node, yaml.ScalarNode):
            value = constructor.construct_object(node, deep=True)
            leaves.append((path, node.start_mark.index, value))
            return value
        if isinstance(node, yaml.SequenceNode):
            return [build(item, f"{path}[{i}]", leaves) for i, item in enumerate(node.value)]
        body = {}
        for key_node, value_node in node.value:
            key = str(constructor.construct_object(key_node, deep=True))
            body[key] = build(value_node, f"{path}/{key}", leaves)
        return body

    documents = []
    for node in yaml.compose_all(text, Loader=STOCK_LOADER):
        if node.tag != "tag:yaml.org,2002:null":
            leaves: list = []
            documents.append((build(node, "", leaves), leaves))
    return documents


def typed(value):
    """``value`` with the type of every scalar spelt out, since ``1 == 1.0 == True``."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return type(value).__name__, value


def typed_documents(documents) -> list:
    return [(typed(body), [(path, start, typed(value)) for path, start, value in leaves])
            for body, leaves in documents]


def placed(documents) -> list:
    """load_documents' result with each leaf as (key path suffix, start, value)."""
    return [(body, [(leaf[0], leaf[5], leaf[3]) for leaf in leaves])
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
    documents = load_documents(text)
    assert typed_documents(placed(documents)) == typed_documents(constructed_documents(text))
    # each leaf names where its value sits: in its container, or as the whole document
    for body, leaves in documents:
        for _path, container, slot, value, *_ in leaves:
            assert container[slot] is value
        if not isinstance(body, (dict, list)):  # a document that is one scalar
            assert [leaf[1:3] for leaf in leaves] == [((body,), 0)]


def containers(value):
    """Every mapping and list in ``value``, ``value`` included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


def repeated_leaves(text: str) -> list[bool]:
    """For each scalar leaf PyYAML's composer gives, depth-first, whether an
    alias repeats it: its node was reached before."""
    seen: set = set()
    repeated: list[bool] = []

    def walk(node):
        if isinstance(node, yaml.ScalarNode):
            repeated.append(node in seen)
            seen.add(node)
        else:
            for item in node.value:
                walk(item[1] if isinstance(node, yaml.MappingNode) else item)

    for node in yaml.compose_all(text, Loader=STOCK_LOADER):
        if node.tag != "tag:yaml.org,2002:null":
            walk(node)
    return repeated


# one subtree three times: the dump writes an anchor and two aliases (a date is
# an object PyYAML anchors too)
SHARED_TREES = st.builds(
    lambda shared, other: {"x": shared, "y": [shared, other], "z": shared},
    st.one_of(st.lists(PLAIN_TREES, min_size=1, max_size=3),
              st.dictionaries(PLAIN_KEYS, PLAIN_TREES, min_size=1, max_size=3), st.dates()),
    PLAIN_TREES,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SHARED_TREES, min_size=1, max_size=2), DUMP_STYLES)
def test_aliases_replay_what_the_constructor_builds(trees, style):
    text = yaml.safe_dump_all(trees, **style)
    assume("{{" not in text)
    documents = load_documents(text)
    assert typed_documents(placed(documents)) == typed_documents(constructed_documents(text))
    for body, _ in documents:  # each expansion is its own object
        built = list(containers(body))
        assert len({id(container) for container in built}) == len(built)
    parse = sentinel_parse("templates/t.yaml", text)
    assert [leaf.via_alias for leaf in parse.leaves] == repeated_leaves(text)
    # the index read keeps an alias as the very object its anchor built
    index = load_literal(yaml.safe_dump(trees[0], **style))
    assert index["x"] is index["y"][0] is index["z"]


@pytest.mark.parametrize("text, problem", [
    ("a: *x\n", "found undefined alias 'x'"),
    ("a: &x 1\nb: &x 2\n", "found duplicate anchor 'x'"),
    ("a: &x [&x 1]\n", "found duplicate anchor 'x'"),
    ("*x : 1\n", "found undefined alias 'x'"),
    ("a: &x [1]\n*x : 2\n", "non-scalar mapping key"),
])
def test_anchor_and_alias_errors(text, problem):
    with pytest.raises(yaml.YAMLError, match=problem):
        load_documents(text)
    with pytest.raises(yaml.YAMLError, match=problem):
        load_literal(text)


def test_an_alias_may_name_a_key_and_replays_its_anchors_within():
    ((body, leaves),) = load_documents("a: &k key\n*k : &v [&w 1, *w]\nc: *v\n")
    assert body == {"a": "key", "key": [1, 1], "c": [1, 1]}
    assert [path for path, *_ in leaves] == ["/a", "/key[0]", "/key[1]", "/c[0]", "/c[1]"]
    # each alias repeats the leaves its anchor gave; as a key, ``*k`` gives none
    assert [leaf[-1] for leaf in leaves] == [False, False, True, True, True]
    with pytest.raises(yaml.YAMLError, match="found undefined alias 'x'"):
        load_documents("a: &x 1\n---\nb: *x\n")  # an anchor holds within its document


def test_compiled_leaves_hold_no_parser_object():
    compiled = yamlutil.compile_template("a: &x web\nb: *x\nc: [1, 'q-{{ .Values.v }}']\n"
                                         "d: |\n  block\n---\nplain\n")
    assert compiled.fill(("v",)) is not None  # and the fill plan, built from the leaves
    seen, stack, parser_objects = set(), [compiled], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if type(obj).__module__.partition(".")[0] == "yaml":  # an event, a mark or a node
            parser_objects.append(obj)
        stack.extend(gc.get_referents(obj))
    assert parser_objects == []


def test_a_compiled_leaf_holds_at_most_400_bytes():
    text = "".join(f"- a{n:08d}\n" for n in range(99_000))
    gc.collect()
    tracemalloc.start()
    try:
        compiled = yamlutil.CompiledTemplate(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert compiled.leaves == 99_000
    assert held / compiled.leaves <= 400


@pytest.mark.parametrize("size", [10**5, 5 * 2**20])
def test_deep_flow_nesting_is_rejected_as_it_is_read(size):
    text = "[" * size
    with deadline(1.0):
        with pytest.raises(yaml.YAMLError, match="nested deeper than 100 levels"):
            load_documents(text)
        with pytest.raises(yaml.YAMLError, match="nested deeper than 100 levels"):
            load_literal(text)
        parse = sentinel_parse("templates/t.yaml", text)
        result = render_chart(make_package(values={}, templates={"t.yaml": text}))
    assert "nested deeper than 100 levels" in parse.error
    assert [(f.template_path, f.category) for f in result.failures] == [
        ("templates/t.yaml", "SyntaxError")]


# --- the walk resolves and builds scalars as stock PyYAML does ---

class _StockLiteralLoader(STOCK_LOADER):
    """Stock libyaml loading with the literal reading's constructors."""

    yaml_constructors = {
        **STOCK_LOADER.yaml_constructors,
        **{f"tag:yaml.org,2002:{tag}": SafeConstructor.construct_yaml_str
           for tag in ("int", "float", "bool", "timestamp")},
    }


def spelt(value):
    """``value`` with each key as its ``str()`` and each scalar with its type
    (``repr``, so that ``.nan`` equals itself)."""
    if isinstance(value, dict):
        return [(str(key), spelt(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [spelt(item) for item in value]
    return type(value).__name__, repr(value)


# keys the walk does not build, where PyYAML's constructor merges (``<<``)
# or reads them as str (``=``)
MERGE_OR_VALUE = {"tag:yaml.org,2002:merge", "tag:yaml.org,2002:value"}


def stock_built(text: str, loader):
    """What ``loader`` builds from ``text``, spelt, or "error" where it raises
    or where a mapping key is a merge or value key."""
    def odd_key(node):
        if isinstance(node, yaml.SequenceNode):
            return any(map(odd_key, node.value))
        if isinstance(node, yaml.MappingNode):
            return any(key.tag in MERGE_OR_VALUE or odd_key(key) or odd_key(item)
                       for key, item in node.value)
        return False

    try:
        if odd_key(yaml.compose(text, Loader=loader)):
            return "error"
        return spelt(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError):  # ValueError: an impossible date
        return "error"


def built(text: str, read):
    try:
        return spelt(read(text))
    except yaml.YAMLError:
        return "error"


SCALAR_TEXTS = st.one_of(
    st.sampled_from([
        "1.10", "0o7", "0x1F", "0b101", "1_000", "+12", "-0", "1e3", "6.8523015e+5",
        "190:20:30", "~", "null", "Null", "", ".inf", "-.Inf", ".NaN", "yes", "No", "on",
        "OFF", "y", "true", "FALSE", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "=",
        "<<", "1" * 200, "1.5" + "0" * 200,
    ]),
    st.text("0123456789.+-_:eExXoObB~nNuUlLtTrRfFaAsSyY ", max_size=8),
    st.text(max_size=6),
)
SCALAR_FORMS = st.sampled_from([
    lambda text: text,
    lambda text: "'" + text.replace("'", "''") + "'",
    json.dumps,
])


@settings(max_examples=300, deadline=None)
@given(SCALAR_TEXTS, SCALAR_FORMS)
def test_loaders_resolve_and_build_scalars_as_stock_pyyaml(text, form):
    scalar = form(text)
    for document in (f"v: {scalar}\n", f"{scalar}: v\n", f"- {scalar}\n- [{scalar}]\n"):
        for read, stock in ((load_unique, STOCK_LOADER),
                            (functools.partial(load_unique, literal=True), _StockLiteralLoader),
                            (load_literal, _StockLiteralLoader)):
            expected = stock_built(document, stock)
            # twice: the second parse takes the cached tags
            assert built(document, read) == expected
            assert built(document, read) == expected


def test_loaders_register_no_path_resolver():
    # the cached tags are right only while this holds
    assert _SafeLoader.yaml_path_resolvers == {}
    # and a scalar starting with a character no implicit resolver reads is a str
    assert None not in _SafeLoader.yaml_implicit_resolvers


def test_compiles_past_the_cache_bound_are_dropped_oldest_first_and_parse_the_same():
    # 3000 leaves a template, about 2.2 MB by the cache's count: the fourth passes 8 MiB
    sources = ["".join(f"k{i}: v{n}\n" for i in range(3000)) for n in range(4)]
    uncached = [sentinel_parse("t.yaml", source) for source in sources]

    @yamlutil.sharing_compiles
    def compile_all():
        forms = [yamlutil.compile_template(source) for source in sources]
        held = dict(yamlutil._COMPILED)
        size = yamlutil._compiled_size
        return forms, held, size, [sentinel_parse("t.yaml", source) for source in sources]

    forms, held, size, parses = compile_all()
    assert list(held) == sources[1:]
    assert size == sum(form.size for form in held.values()) <= yamlutil._COMPILED_BYTES
    assert all(held[source] is form for source, form in zip(sources[1:], forms[1:]))
    assert parses == uncached
    assert yamlutil._COMPILED == {} and yamlutil._compiled_size == 0
