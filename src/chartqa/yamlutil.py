"""Shared YAML helpers: canonical scalars, sentinel parsing, and key paths.

Flattened key paths use the grammar ``<templatePath>#<docIndex>/a/b[2]/c``:
``<docIndex>`` counts the documents of the template that hold a value (an
empty, comment-only or null document takes no index), mapping keys are
joined with ``/``, sequence positions append ``[i]``.
Keys are used verbatim, so keys containing ``/``, ``#`` or ``[`` are outside
the grammar (chart keys are conventional identifiers in practice).
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Any, Iterator

import yaml
from yaml.constructor import SafeConstructor

BaseLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Any Go-template action block, possibly spanning lines.
DIRECTIVE_RE = re.compile(r"\{\{.*?\}\}", re.DOTALL)

SENTINEL_PREFIX = "__CHARTQA_SENTINEL_"


class UniqueKeyLoader(BaseLoader):
    """Safe loader that rejects duplicate keys within a mapping level."""


def _construct_mapping_unique(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if not isinstance(key, (str, int, float, bool, type(None))):
            key = str(key)
        if key in mapping:
            raise yaml.constructor.ConstructorError(
                None, None, "duplicate mapping key %r" % (key,), key_node.start_mark
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


UniqueKeyLoader.add_constructor("tag:yaml.org,2002:map", _construct_mapping_unique)


def load_unique(text: str) -> Any:
    """Parse a single YAML document, rejecting duplicate mapping keys."""
    return yaml.load(text, Loader=UniqueKeyLoader)


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

@dataclass(frozen=True)
class SourceLeaf:
    """One scalar leaf of a sentinel-parsed template document.

    ``span`` addresses the scalar in the original template source (for
    quoted styles including the quotes); it is None when the leaf or its
    span overlaps substituted directives.
    """

    path: str
    segments: tuple
    value: str
    style: str | None
    span: tuple[int, int] | None
    templated: bool


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


def _map_span(segments: list[tuple[int, int, int]], start: int, end: int) -> tuple[int, int] | None:
    """Map a substituted-text span back to the source, or None if it crosses a sentinel."""
    for out_start, orig_start, length in segments:
        if out_start <= start and end <= out_start + length:
            delta = orig_start - out_start
            return start + delta, end + delta
    return None


def _node_leaves(node, template_path, doc_index, constructor, segments_map, segs=()):
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for key_node, value_node in node.value:
            key = str(constructor.construct_object(key_node, deep=True))
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, "duplicate mapping key %r" % (key,), key_node.start_mark
                )
            seen.add(key)
            yield from _node_leaves(
                value_node, template_path, doc_index, constructor,
                segments_map, segs + (("key", key),)
            )
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            yield from _node_leaves(
                item, template_path, doc_index, constructor,
                segments_map, segs + (("idx", i),)
            )
    else:
        value = canon(constructor.construct_object(node, deep=True))
        templated = SENTINEL_PREFIX in value
        span = None
        if not templated:
            span = _map_span(segments_map, node.start_mark.index, node.end_mark.index)
        style = node.style or None
        yield SourceLeaf(
            path=build_path(template_path, doc_index, segs),
            segments=segs,
            value=value,
            style=style,
            span=span,
            templated=templated,
        )


def sentinel_parse(template_path: str, source: str) -> SentinelParse:
    """Parse a template source with directives replaced by sentinel tokens.

    Produces every scalar leaf with its canonical value and source span.
    A template that is not YAML-shaped even after substitution yields an
    empty leaf list and a non-None error.
    """
    substituted, segment_table = substitute_directives(source)
    constructor = SafeConstructor()
    leaves: list[SourceLeaf] = []
    try:
        # as in render_chart, a document that holds no value takes no index
        documents = [d for d in yaml.compose_all(substituted, Loader=BaseLoader)
                     if d.tag != "tag:yaml.org,2002:null"]
        for doc_index, doc in enumerate(documents):
            leaves.extend(
                _node_leaves(doc, template_path, doc_index, constructor, segment_table)
            )
    except yaml.YAMLError as exc:
        return SentinelParse(template_path, [], error=str(exc).replace("\n", " "))
    return SentinelParse(template_path, leaves)
