"""Shared YAML helpers: the document walk, canonical scalars, sentinel parsing, key paths.

Template sources, rendered output and chart metadata are all built by
:func:`load_documents` or its single-document form :func:`load_unique`.
Flattened key paths use the grammar ``<templatePath>#<docIndex>/a/b[2]/c``:
``<docIndex>`` counts the documents of the template that hold a value (an
empty, comment-only or null document takes no index), mapping keys are
their ``str()`` forms (``80``, ``True``) joined with ``/``, sequence
positions append ``[i]``. The walk builds the part after ``<docIndex>``
(``/a/b[2]/c``, empty for a document that is one scalar) as it descends,
and gives each scalar leaf as (that suffix, node, value). A template that
is not YAML gives no documents.
Aliases are expanded, up to a fixed number of nodes per text.
Keys are used verbatim, so keys containing ``/``, ``#`` or ``[`` are outside
the grammar (chart keys are conventional identifiers in practice).
"""

from __future__ import annotations

import bisect
import datetime
import functools
import math
import re
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import yaml
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

# A scalar's tag is cached when its text is at most this long; longer texts
# are resolved each time, so the cache holds at most _TAG_CACHE_SIZE texts of
# that length. The texts that repeat are keys and short words, which stay
# recent; most others occur once. Over half the 100 charts of the seed-7
# perfbench scan corpus (one of two pool workers' share), `analyze_chart`
# resolved 67 112 nodes, and 1024 entries gave 55 614 hits where an unbounded
# cache gives 55 671.
_CACHED_TEXT = 128
_TAG_CACHE_SIZE = 1 << 10


class _SafeLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's safe loader (where PyYAML was built with it) with a bounded
    cache of node tags; every parse here composes with it.

    PyYAML resolves tags in Python once per node. With no path resolver
    registered (``yaml_path_resolvers`` is empty, which a test pins), a
    node's tag depends only on its kind, text and implicitness, so tags are
    cached on those and the path-resolver bookkeeping around each node does
    nothing.
    """

    def resolve(self, kind, value, implicit):
        if value is not None and len(value) > _CACHED_TEXT:
            return super().resolve(kind, value, implicit)
        return _cached_tag(kind, value, implicit)

    def descend_resolver(self, current_node, current_index):
        pass

    def ascend_resolver(self):
        pass


@functools.lru_cache(maxsize=_TAG_CACHE_SIZE)
def _cached_tag(kind: type, value: str | None, implicit: Any) -> str:
    # without path resolvers resolve reads only class attributes, so the
    # class serves as the loader
    return Resolver.resolve(_SafeLoader, kind, value, implicit)


# Any Go-template action block, possibly spanning lines.
DIRECTIVE_RE = re.compile(r"\{\{.*?\}\}", re.DOTALL)

SENTINEL_PREFIX = "__CHARTQA_SENTINEL_"

_NULL_TAG = "tag:yaml.org,2002:null"
# a str scalar builds to its node's value (SafeConstructor.construct_yaml_str
# returns exactly that), so the walk takes it without the constructor
_STR_TAG = "tag:yaml.org,2002:str"
# other scalar tags go through construct_object: timestamps and !!binary
# build as in PyYAML, merge keys and unknown tags raise
_SCALARS = {
    "tag:yaml.org,2002:int": SafeConstructor.construct_yaml_int,
    "tag:yaml.org,2002:float": SafeConstructor.construct_yaml_float,
    "tag:yaml.org,2002:bool": SafeConstructor.construct_yaml_bool,
    _NULL_TAG: SafeConstructor.construct_yaml_null,
}
# scalar tags a literal read keeps as the text written: Helm reads
# ``version: 1.10`` as ``1.10``, where YAML 1.1 reads the float 1.1
_LITERAL_TAGS = frozenset(
    f"tag:yaml.org,2002:{tag}" for tag in ("int", "float", "bool", "timestamp"))
# An alias repeats its anchor's subtree, so nine lines of ten aliases to the
# line above (under 600 bytes) stand for 10**9 nodes. Without aliases a text
# builds one node per node written; no chart file comes near this many.
_MAX_NODES = 100_000
# deeper nesting would overflow the stack here or in the walks over bodies
_MAX_DEPTH = 100


def _reject(problem: str, node: yaml.Node) -> None:
    raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark)


class _Walk:
    """Builds the bodies of one text's documents and, where asked, collects their scalar leaves."""

    def __init__(self, literal: bool = False):
        self.constructor = SafeConstructor()
        self.literal = literal
        self.nodes = 0
        self.open: set[yaml.Node] = set()  # collection nodes on the current path
        self.leaves: list | None = None  # (key path suffix, node, value) of each scalar

    def scalar(self, node: yaml.Node) -> Any:
        if node.tag == _STR_TAG or self.literal and node.tag in _LITERAL_TAGS:
            return node.value
        build = _SCALARS.get(node.tag)
        return build(self.constructor, node) if build else \
            self.constructor.construct_object(node, deep=True)

    def build(self, node: yaml.Node, path: str) -> Any:
        """Body of ``node``, whose key path suffix is ``path``; appends each
        scalar leaf to ``self.leaves`` unless that is None."""
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            _reject(f"expands to more than {_MAX_NODES} nodes", node)
        if isinstance(node, yaml.ScalarNode):
            value = self.scalar(node)
            if self.leaves is not None:
                self.leaves.append((path, node, value))
            return value
        if node in self.open:
            _reject("recursive alias", node)
        if len(self.open) >= _MAX_DEPTH:
            _reject(f"nested deeper than {_MAX_DEPTH} levels", node)
        self.open.add(node)
        if isinstance(node, yaml.SequenceNode):
            body: Any = [self.build(item, f"{path}[{i}]") for i, item in enumerate(node.value)]
        else:
            body = {}
            for key_node, value_node in node.value:
                if not isinstance(key_node, yaml.ScalarNode):
                    _reject("non-scalar mapping key", key_node)
                key = str(self.scalar(key_node))
                if key in body:
                    _reject(f"duplicate mapping key {key!r}", key_node)
                body[key] = self.build(value_node, f"{path}/{key}")
        self.open.discard(node)
        return body


def load_documents(text: str, leaves: bool = True) -> list[tuple[Any, list]]:
    """(body, scalar leaves) of each document of ``text`` that holds a value, in ``#N`` order.

    Each leaf is (key path suffix, node, value) in depth-first order, the
    suffix as in ``/a/b[2]``; with ``leaves`` false every leaf list is empty.
    Raises ``yaml.YAMLError`` for text that is not YAML, a duplicate or
    non-scalar key, a recursive alias, or a walk past ``_MAX_DEPTH`` or ``_MAX_NODES``.
    """
    walk = _Walk()
    documents = []
    for node in yaml.compose_all(text, Loader=_SafeLoader):
        if node.tag != _NULL_TAG:
            walk.leaves = [] if leaves else None
            documents.append((walk.build(node, ""), walk.leaves or []))
    return documents


def load_unique(text: str, literal: bool = False) -> Any:
    """The single document of ``text``, built by the rules of :func:`load_documents`;
    ``literal`` keeps int, float, bool and timestamp scalars as their written text."""
    node = yaml.compose(text, Loader=_SafeLoader)
    return None if node is None else _Walk(literal).build(node, "")


class _LiteralLoader(_SafeLoader):
    """Builds int, float, bool and timestamp scalars as their written text."""

    yaml_constructors = {
        **_SafeLoader.yaml_constructors,
        **{tag: SafeConstructor.construct_yaml_str for tag in _LITERAL_TAGS},
    }


def load_literal(text: str | bytes) -> Any:
    """The single document of ``text`` with every scalar but null kept as written.

    Helm reads ``version: 1.10`` as the text ``1.10``, where YAML 1.1 reads
    the float ``1.1``. Aliases are not expanded: an alias gives the very
    object its anchor built.
    """
    return yaml.load(text, Loader=_LiteralLoader)


def canon(value: Any) -> str:
    """Canonical lexical form of a scalar (``true``, ``1.5``, text as-is)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value.isoformat()
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return str(value)


def is_scalar(value: Any) -> bool:
    return not isinstance(value, (dict, list))


def build_path(template_path: str, doc_index: int, segments: tuple) -> str:
    parts = [f"{template_path}#{doc_index}"]
    for kind, val in segments:
        if kind == "key":
            parts.append(f"/{val}")
        else:
            parts.append(f"[{val}]")
    return "".join(parts)


_SEGMENT_RE = re.compile(r"/([^/\[]*)|\[(\d+)\]")


def parse_path(path: str) -> tuple[str, int, tuple]:
    """Invert :func:`build_path`; raises ValueError on malformed paths."""
    template_path, sep, rest = path.partition("#")
    if not sep:
        raise ValueError(f"key path lacks '#<docIndex>': {path!r}")
    m = re.match(r"(\d+)", rest)
    if not m:
        raise ValueError(f"key path lacks a document index: {path!r}")
    doc_index = int(m.group(1))
    segments = []
    pos = m.end()
    while pos < len(rest):
        m = _SEGMENT_RE.match(rest, pos)
        if not m:
            raise ValueError(f"malformed key path segment at {rest[pos:]!r}")
        if m.group(2) is not None:
            segments.append(("idx", int(m.group(2))))
        else:
            segments.append(("key", m.group(1)))
        pos = m.end()
    return template_path, doc_index, tuple(segments)


def iter_tree_leaves(tree: Any, _segs: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Depth-first scalar leaves of a parsed YAML tree as (segments, value)."""
    if isinstance(tree, dict):
        for key, val in tree.items():
            yield from iter_tree_leaves(val, _segs + (("key", str(key)),))
    elif isinstance(tree, list):
        for i, val in enumerate(tree):
            yield from iter_tree_leaves(val, _segs + (("idx", i),))
    else:
        yield _segs, tree


def get_at(tree: Any, segments: tuple) -> Any:
    node = tree
    for kind, val in segments:
        if kind == "key":
            if not isinstance(node, dict) or val not in node:
                raise KeyError(val)
            node = node[val]
        else:
            if not isinstance(node, list) or val >= len(node):
                raise KeyError(val)
            node = node[val]
    return node


def set_at(tree: Any, segments: tuple, value: Any) -> bool:
    """Set the leaf at ``segments`` if it exists; returns True when applied."""
    if not segments:
        return False
    try:
        parent = get_at(tree, segments[:-1])
        get_at(parent, segments[-1:])
    except KeyError:
        return False
    kind, val = segments[-1]
    parent[val] = value
    return True


# --- sentinel parsing of template sources ---

class SourceLeaf(NamedTuple):
    """One scalar leaf of a sentinel-parsed template document.

    ``span`` addresses the scalar in the original template source (for
    quoted styles including the quotes); it is None when the leaf or its
    span overlaps substituted directives. ``via_alias`` marks a leaf that
    an alias repeats from a scalar an earlier leaf of the template already
    gave; it shares that leaf's node and span.
    """

    path: str
    value: str
    style: str | None
    span: tuple[int, int] | None
    templated: bool
    via_alias: bool


@dataclass
class SentinelParse:
    template_path: str
    leaves: list[SourceLeaf]
    error: str | None = None


def substitute_directives(source: str) -> tuple[str, list[tuple[int, int, int]]]:
    """Replace each template directive with a unique sentinel token.

    Returns the substituted text plus a segment table of literal regions
    as (start_in_substituted, start_in_original, length) for mapping
    substituted-text offsets back to source offsets.
    """
    out = []
    segments = []
    out_pos = 0
    orig_pos = 0
    for n, m in enumerate(DIRECTIVE_RE.finditer(source)):
        literal = source[orig_pos:m.start()]
        if literal:
            segments.append((out_pos, orig_pos, len(literal)))
            out.append(literal)
            out_pos += len(literal)
        token = f"{SENTINEL_PREFIX}{n}__"
        out.append(token)
        out_pos += len(token)
        orig_pos = m.end()
    tail = source[orig_pos:]
    if tail:
        segments.append((out_pos, orig_pos, len(tail)))
        out.append(tail)
    return "".join(out), segments


def _map_span(segments: list[tuple[int, int, int]], node: yaml.Node) -> tuple[int, int] | None:
    """Map a node's substituted-text span back to the source, or None if it crosses a sentinel."""
    start, end = node.start_mark.index, node.end_mark.index
    # the segments are disjoint and in order: only the last one starting at or
    # before ``start`` can hold the span
    i = bisect.bisect_right(segments, (start, math.inf)) - 1
    if i >= 0:
        out_start, orig_start, length = segments[i]
        if end <= out_start + length:
            delta = orig_start - out_start
            return start + delta, end + delta
    return None


def sentinel_parse(template_path: str, source: str) -> SentinelParse:
    """Parse a template source with directives replaced by sentinel tokens.

    Produces every scalar leaf with its canonical value and source span.
    A template that is not YAML-shaped even after substitution yields an
    empty leaf list and a non-None error.
    """
    substituted, segment_table = substitute_directives(source)
    try:
        documents = load_documents(substituted)
    except yaml.YAMLError as exc:
        return SentinelParse(template_path, [], error=str(exc).replace("\n", " "))
    leaves = []
    seen: set[yaml.Node] = set()
    for doc_index, (_, doc_leaves) in enumerate(documents):
        prefix = f"{template_path}#{doc_index}"
        for suffix, node, raw in doc_leaves:
            value = raw if type(raw) is str else canon(raw)
            templated = SENTINEL_PREFIX in value
            span = None if templated else _map_span(segment_table, node)
            leaves.append(SourceLeaf(prefix + suffix, value, node.style or None, span,
                                     templated, node in seen))
            seen.add(node)
    return SentinelParse(template_path, leaves)
