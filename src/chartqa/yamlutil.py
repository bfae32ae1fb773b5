"""Shared YAML helpers: the document walk, canonical scalars, sentinel parsing.

Every YAML input is built by one walk over libyaml's parse events, which
keeps its open mappings and lists on a stack of its own: template sources,
rendered output and chart metadata by :func:`load_documents` or its
single-document form :func:`load_unique`, the repository index by
:func:`load_literal`. :func:`load_documents` records each scalar leaf in
plain fields, no parser event or mark among them, and names it with a key path
``<templatePath>#<docIndex>/a/b[2]/c``: ``<docIndex>`` counts the
documents of the template that hold a value (an empty, comment-only or
null document takes no index), mapping keys are their ``str()`` forms
(``80``, ``True``) joined with ``/``, sequence positions append ``[i]``.
The walk builds the part after ``<docIndex>`` (``/a/b[2]/c``, empty for a
document that is one scalar) as it descends. Keys are used verbatim, and
may themselves hold ``/``, ``#`` or ``[`` (``checksum/config``,
``app.kubernetes.io/name``), so a key path is only ever a name the walk
gave: nothing parses one back. Two leaves can share a name (a key ``a/b``
beside ``a: {b: ...}``). A template that is not YAML gives no documents.
Aliases are expanded by replaying the events of their anchors, up to a
fixed number of nodes per text.

A template source is parsed once, as a :class:`CompiledTemplate`: its
directives replaced by sentinel tokens, so the duplicate check reads its
literal leaves and the builtin engine renders by filling copies of its
documents with the directives' outputs.
"""

from __future__ import annotations

import bisect
import datetime
import functools
import math
import re
from typing import Any, Iterable, NamedTuple, Sequence

import yaml
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import (AliasEvent, DocumentStartEvent, MappingStartEvent, ScalarEvent,
                         SequenceStartEvent)
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

# libyaml's safe loader where PyYAML was built with it: it parses every text
# here, and its resolver tables give the scalars' tags
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# the first characters some implicit resolver reads: a plain text starting
# with another resolves to str, as no resolver reads every text (a test pins
# that none is registered under None)
_RESOLVED_FIRST = frozenset(key for key in _SafeLoader.yaml_implicit_resolvers if key)


@functools.lru_cache(maxsize=_TAG_CACHE_SIZE)
def _cached_tag(value: str) -> str:
    """The tag of a plain scalar written as ``value``. With no path resolver
    registered (a test pins it), that depends only on the text, and resolve
    reads only class attributes, so the class serves as the loader."""
    return Resolver.resolve(_SafeLoader, yaml.ScalarNode, value, (True, False))


SENTINEL_PREFIX = "__CHARTQA_SENTINEL_"

_NULL_TAG = "tag:yaml.org,2002:null"
# a str scalar builds to its written text (SafeConstructor.construct_yaml_str
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
# deeper nesting would overflow the stack in the walks over bodies
_MAX_DEPTH = 100
# The key path characters one text may build. Each node's path is a string of
# its own, so 99 levels of 1000-character keys around 95 000 list items (289 KB
# of text) would build 9.4 GB of them; the most any seed-7 perfbench template
# builds is 1 135 characters (the `scan` and `rewrite` corpora).
_MAX_PATH_CHARS = 1 << 25


def _reject(problem: str, event: yaml.Event) -> None:
    raise ConstructorError(None, None, problem, event.start_mark)


def _read(text: str | bytes, literal: bool = False, shared: bool = False,
          paths: bool = False) -> list:
    """(body, scalar leaves) of each document of ``text``, built from its parse events.

    ``literal`` keeps int, float, bool and timestamp scalars as their
    written text. An alias replays the events its anchor recorded, or with
    ``shared`` gives the very object its anchor built; then no node bound
    applies. Leaves and key paths are collected only with ``paths``.
    """
    loader = _SafeLoader(text)
    get_event = loader.get_event
    limit = math.inf if shared else _MAX_NODES
    documents: list = []
    # each open mapping or list, outermost first: [body, key path suffix, the
    # key awaiting its value or None, its anchor, the index of its start in log]
    stack: list = []
    replays: list = []  # iterators over the recorded events of the aliases being expanded
    # the document's events from its first anchor on, and its anchors: each
    # one's (start, end) in ``log``, or with ``shared`` (value,); None while open
    log = anchors = None
    nodes = 0
    budget = _MAX_PATH_CHARS  # key path characters left to build
    while True:
        fresh = not replays  # a replayed anchor was recorded when it was first read
        event = get_event() if fresh else next(replays[-1], None)
        if not fresh and event is None:
            replays.pop()
            continue
        if fresh and log is not None:
            log.append(event)
        kind = type(event)
        if kind is ScalarEvent:
            value, tag = event.value, event.tag
            if tag is None or tag == "!":
                tag = _STR_TAG if not event.implicit[0] or value and value[0] not in \
                    _RESOLVED_FIRST else _cached_tag(value) if len(value) <= _CACHED_TEXT \
                    else _cached_tag.__wrapped__(value)
            if tag != _STR_TAG and not (literal and tag in _LITERAL_TAGS):
                node = yaml.ScalarNode(tag, value, event.start_mark, event.end_mark, event.style)
                build = _SCALARS.get(tag)
                try:
                    value = build(loader, node) if build else loader.construct_object(node, True)
                except (ValueError, KeyError, IndexError, AttributeError) as exc:
                    # 2001-02-30, !!int abc, !!bool maybe, an empty !!int, !!timestamp abc
                    _reject(f"cannot build {tag} scalar: {exc}", event)
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if len(stack) >= _MAX_DEPTH:
                _reject(f"nested deeper than {_MAX_DEPTH} levels", event)
            value = {} if kind is MappingStartEvent else []
        elif kind is AliasEvent:
            target = anchors.get(event.anchor)
            if target is None:
                _reject("recursive alias" if event.anchor in anchors
                        else f"found undefined alias {event.anchor!r}", event)
            if not shared:
                replays.append(iter(log[target[0]:target[1]]))
                continue
            value, fresh = target[0], False
        elif stack:  # the end of a mapping or list: no other event comes inside one
            body, _, _, anchor, start = stack.pop()
            if anchor:
                anchors[anchor] = (body,) if shared else (start, len(log))
            continue
        elif kind is DocumentStartEvent:
            anchors, log, leaves, leaf_events = {}, None, [], set()
            continue
        elif event is None:
            return documents
        else:  # the end of a document, or the start or end of the stream
            continue

        anchor = fresh and event.anchor
        if anchor:
            if anchor in anchors:
                _reject(f"found duplicate anchor {anchor!r}", event)
            if log is None and not shared:
                log = [event]
            start = len(log) - 1 if log else 0
            anchors[anchor] = None if kind is not ScalarEvent else (value,) if shared \
                else (start, start + 1)
        if stack:
            frame = stack[-1]
            container = frame[0]
            if type(container) is list:
                slot = len(container)
                container.append(value)
                path = paths and f"{frame[1]}[{slot}]"
            elif frame[2] is None:  # ``value`` is a key
                if type(value) is not str:
                    if not is_scalar(value):
                        _reject("non-scalar mapping key", event)
                    value = str(value)
                if value in container:
                    _reject(f"duplicate mapping key {value!r}", event)
                frame[2] = value
                continue
            else:
                slot, frame[2] = frame[2], None
                container[slot] = value
                path = paths and f"{frame[1]}/{slot}"
        else:  # the document's root
            documents.append((value, leaves))
            container, slot, path = (value,), 0, ""
        nodes += 1
        if nodes > limit:
            _reject(f"expands to more than {_MAX_NODES} nodes", event)
        if paths:
            budget -= len(path)
            if budget < 0:
                _reject(f"builds key paths of more than {_MAX_PATH_CHARS} characters", event)
            if kind is ScalarEvent:
                repeat = log is not None and event in leaf_events  # an alias replays it
                if log is not None:  # only a logged event can be replayed
                    leaf_events.add(event)
                first, last = event.start_mark, event.end_mark
                leaves.append((path, container, slot, value, event.style or None, first.index,
                               last.index, first.line == last.line, repeat))
        if kind is not ScalarEvent and kind is not AliasEvent:
            stack.append([value, path, None, anchor, start if anchor else 0])


def _single(documents: list) -> Any:
    if len(documents) > 1:
        raise ConstructorError(None, None, "expected a single document in the stream")
    return documents[0][0] if documents else None


def load_documents(text: str) -> list[tuple[Any, list]]:
    """(body, scalar leaves) of each document of ``text`` that holds a value, in ``#N`` order.

    Each leaf is (key path suffix, container, slot, value, style, start, end,
    one line, via alias) in depth-first order: the suffix as in ``/a/b[2]``,
    the mapping or list holding the value with its key or index there
    (``(value,)`` and 0 for a document that is one scalar), the scalar's
    style (None when plain), its span in ``text`` and whether that is on one
    line, and whether an alias repeats it from a scalar an earlier leaf gave.
    Raises ``yaml.YAMLError`` for text that is not YAML, a scalar its tag
    cannot build, a duplicate or non-scalar key, a recursive or undefined
    alias, a repeated anchor, or past ``_MAX_DEPTH``, ``_MAX_NODES`` or
    ``_MAX_PATH_CHARS`` (the summed length of the key paths it builds).
    """
    return [(body, leaves) for body, leaves in _read(text, paths=True) if body is not None]


def load_unique(text: str, literal: bool = False) -> Any:
    """The single document of ``text``, with no leaves, by the rules of :func:`load_documents`;
    ``literal`` keeps int, float, bool and timestamp scalars as their written text."""
    return _single(_read(text, literal))


def load_literal(text: str | bytes) -> Any:
    """The single document of ``text`` with every scalar but null kept as written
    (Helm reads ``version: 1.10`` as ``1.10``, YAML 1.1 as the float ``1.1``), by
    the rules of :func:`load_documents` but one: an alias gives the very object
    its anchor built, so no node bound applies."""
    return _single(_read(text, literal=True, shared=True))


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


# --- sentinel parsing of template sources ---

class SourceLeaf(NamedTuple):
    """One scalar leaf of a sentinel-parsed template document.

    ``span`` addresses the scalar in the original template source (for
    quoted styles including the quotes); it is None when the leaf or its
    span overlaps substituted directives. ``via_alias`` marks a leaf that
    an alias repeats from a scalar an earlier leaf of the template gave.
    """

    template_path: str
    path: str
    value: str
    style: str | None
    span: tuple[int, int] | None
    templated: bool
    via_alias: bool


class SentinelParse(NamedTuple):
    """A template's scalar leaves as cheap records, from :func:`sentinel_parse`.

    Each of ``literals`` is (document index, key path suffix, canonical
    value, templated, via alias, style, start, end): ``templated`` marks a
    value holding a sentinel token, ``via_alias`` a leaf an alias repeats
    (see :func:`load_documents`), and start and end are the scalar's span
    in the substituted text, which :func:`source_leaf` maps back to the
    source through the compiled template's ``segments``.
    """

    template_path: str
    literals: list[tuple[int, str, str, bool, bool, str | None, int, int]]
    segments: list[tuple[int, int, int]]
    error: str | None = None

    @property
    def leaves(self) -> list[SourceLeaf]:
        return [source_leaf(self.template_path, self.segments, literal)
                for literal in self.literals]


def source_leaf(template_path: str, segments: list[tuple[int, int, int]],
                literal: tuple[int, str, str, bool, bool, str | None, int, int]) -> SourceLeaf:
    """The :class:`SourceLeaf` of one of a :class:`SentinelParse`'s ``literals``,
    given its ``template_path`` and ``segments``: key path, style and source span."""
    doc_index, suffix, value, templated, via_alias, style, start, end = literal
    span = None if templated else _map_span(segments, start, end)
    return SourceLeaf(template_path, f"{template_path}#{doc_index}{suffix}", value, style, span,
                      templated, via_alias)


def directive_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) of each ``{{ ... }}`` directive of ``text``, in order.

    A directive runs from a ``{{`` to the first ``}}`` after it, and the
    next one is looked for after that. A ``{{`` with no ``}}`` after it ends
    the scan, since no later ``{{`` has one either, so each character is
    read at most twice.
    """
    spans = []
    start = text.find("{{")
    while start >= 0:
        end = text.find("}}", start + 2)
        if end < 0:
            break
        spans.append((start, end + 2))
        start = text.find("{{", end + 2)
    return spans


_TOKEN_RE = re.compile(SENTINEL_PREFIX + r"(\d+)__")
_PLAIN_LEAD = frozenset("-?:,[]{}#&*!|>'\"%@`")
# a text of these characters is a plain scalar as written: no indicator,
# space, ":", "#" or flow indicator, nor a document marker
_PLAIN_WORD_RE = re.compile(r"[0-9A-Za-z_/][-0-9A-Za-z_./]*")
_FLOW_RE = re.compile(r"[,\[\]{}]")
_UNSAFE = object()  # a filled scalar that might not parse as itself
_CONSTRUCTOR = SafeConstructor()


def _inline(text: str) -> bool:
    """Whether a one-line scalar may hold ``text`` as written. Python's
    printable characters are all in YAML's printable set, and tab, line
    breaks (``\x85``, ``\u2028``, ``\u2029``) and the byte order mark are
    not among them; the others YAML allows fall back to a parse."""
    return text.isprintable()


def _quotable(style: str, text: str) -> bool:
    """Whether ``text`` stands for itself inside a one-line scalar quoted in ``style``."""
    return style not in text and (style == "'" or "\\" not in text) and _inline(text)


@functools.lru_cache(maxsize=_TAG_CACHE_SIZE)
def _plain_value(text: str) -> Any:
    """What a plain one-line scalar written as ``text`` builds to, where it
    provably parses as that one scalar; ``_UNSAFE`` otherwise.

    A whole quoted text (a ``quote`` pipe's output) builds to its inner
    text. Otherwise the text must be printable, not start with a space or
    an indicator (``-`` may start it before a character other than a
    space), not end with a space or ``:``, hold no tab, line break, ``: ``,
    `` #`` or flow indicator, not start with a document marker, and take
    the tag str or one of ``_SCALARS``. Call it through the cache only for
    texts of at most ``_CACHED_TEXT`` characters, like the tags it reads.
    """
    if _PLAIN_WORD_RE.fullmatch(text) is None:
        if len(text) >= 2 and text[0] in "\"'" and text[-1] == text[0]:
            inner = text[1:-1]
            return inner if _inline(inner) and not any(c in inner for c in "\"'\\") \
                else _UNSAFE
        if (not text or not _inline(text) or text[-1] in " :"
                or text[0] in _PLAIN_LEAD and (text[0] != "-" or text[1:2] in ("", " "))
                or text[0] == " " or ": " in text or " #" in text or _FLOW_RE.search(text)
                or text.startswith(("---", "..."))):
            return _UNSAFE
    if text[0] not in _RESOLVED_FIRST:
        return text
    tag = _cached_tag(text) if len(text) <= _CACHED_TEXT else _cached_tag.__wrapped__(text)
    if tag == _STR_TAG:
        return text
    build = _SCALARS.get(tag)
    if build is None:
        return _UNSAFE
    try:
        return build(_CONSTRUCTOR, yaml.ScalarNode(tag, text))
    except (ValueError, KeyError):
        return _UNSAFE


def _shape(body: Any, number: int, shape: list, homes: list, slots: list) -> None:
    """Appends (parent number, slot) of each mapping and list inside ``body``,
    numbered from 1 in the walk's order (``body``, the root, is ``number``
    0), and the number and slot of the container of each scalar leaf."""
    for slot, value in body.items() if type(body) is dict else enumerate(body):
        if type(value) is dict or type(value) is list:
            shape.append((number, slot))
            _shape(value, len(shape), shape, homes, slots)
        else:
            homes.append(number)
            slots.append(slot)


def splice(source: str, edits: Iterable[tuple[tuple[int, int], str]]) -> str:
    """``source`` with each ``(start, end)`` span replaced by its text, in one
    pass; the spans are in source order and do not overlap."""
    pieces, pos = [], 0
    for (start, end), text in edits:
        pieces += (source[pos:start], text)
        pos = end
    pieces.append(source[pos:])
    return "".join(pieces)


class CompiledTemplate:
    """A template source parsed once, with each directive replaced by a sentinel token.

    ``spans`` are the directives' source spans, ``substituted`` the source
    with the n-th directive replaced by the token ``__CHARTQA_SENTINEL_n__``.
    ``documents`` is :func:`load_documents` of the substituted text, or None
    with ``error`` set where that text is not YAML. The rest is built on
    first use: the renders read ``exprs`` and the fill plan, the duplicate
    check ``segments``.
    """

    def __init__(self, source: str):
        self.source = source
        self.spans = directive_spans(source)
        self.substituted = self.text([f"{SENTINEL_PREFIX}{n}__" for n in range(len(self.spans))])
        self.documents: list | None = None
        self.error: str | None = None
        try:
            self.documents = load_documents(self.substituted)
        except yaml.YAMLError as exc:
            self.error = str(exc).replace("\n", " ")
        self.leaves = sum(len(leaves) for _, leaves in self.documents or ())

    @functools.cached_property
    def exprs(self) -> list[str]:
        """Each directive's expression: the text between its braces, trimmed
        of spaces and ``-``."""
        return [self.source[start + 2:end - 2].strip().strip("-").strip()
                for start, end in self.spans]

    @functools.cached_property
    def segments(self) -> list[tuple[int, int, int]]:
        """The literal regions of the substituted text as (start there, start
        in the source, length), in order."""
        segments = []
        out_pos = orig_pos = 0
        for n, (start, end) in enumerate(self.spans):
            if start > orig_pos:
                segments.append((out_pos, orig_pos, start - orig_pos))
                out_pos += start - orig_pos
            out_pos += len(f"{SENTINEL_PREFIX}{n}__")
            orig_pos = end
        if orig_pos < len(self.source):
            segments.append((out_pos, orig_pos, len(self.source) - orig_pos))
        return segments

    def text(self, outputs: Sequence[str]) -> str:
        """The source with each directive replaced by its output."""
        return splice(self.source, zip(self.spans, outputs))

    def fill(self, outputs: tuple[str, ...]) -> list[tuple[Any, Any]] | None:
        """The documents :func:`load_documents` builds from ``self.text(outputs)``,
        as (body, leaves) with each leaf starting (key path suffix, container,
        slot), or None where that is not proven without parsing the text.

        The documents are copies of the compiled ones with each templated
        scalar set from its literal pieces and outputs. That is proven only
        where each directive sits inside one scalar value that is not a
        document root, that no alias repeats and that is written on one
        line, plain with no tag or anchor or quoted, and where each filled
        scalar parses as itself: a plain one by ``_plain_value``, a quoted
        one where the outputs in it hold no quote of its style, no
        backslash between double quotes, and no line break or unprintable
        character. A template with an empty output is not filled either.
        """
        if self._plan is None or not all(outputs):
            return None
        filled = []
        for body, suffixes, shape, homes, slots, fills in self._plan:
            if shape is None:  # a document that is one scalar: its leaves
                filled.append((body, suffixes))
                continue
            copies = [body.copy()]
            for parent, slot in shape:
                holder = copies[parent]
                copy = holder[slot] = holder[slot].copy()
                copies.append(copy)
            for index, style, pieces, numbers in fills:
                if pieces is None:  # the scalar is one directive
                    text = outputs[numbers]
                    if style is not None and not _quotable(style, text):
                        return None
                else:
                    text = pieces[0]
                    for n, piece in zip(numbers, pieces[1:]):
                        output = outputs[n]
                        if style is not None and not _quotable(style, output):
                            return None
                        text += output + piece
                if style is None:
                    text = _plain_value(text) if len(text) <= _CACHED_TEXT \
                        else _plain_value.__wrapped__(text)
                    if text is _UNSAFE:
                        return None
                copies[homes[index]][slots[index]] = text
            filled.append((copies[0], zip(suffixes, map(copies.__getitem__, homes), slots)))
        return filled

    @functools.cached_property
    def _plan(self) -> list | None:
        """Per document: its body; its leaves' key path suffixes, or for a
        document that is one scalar its leaves and None for the next three;
        the shape and leaf homes ``_shape`` gives, and (leaf index, style,
        literal pieces, directive numbers) of each templated scalar, with
        pieces None and one number for a scalar that is one directive. None
        where a directive is not inside exactly one such scalar."""
        if self.documents is None:
            return None
        plan, numbers = [], []
        substituted = self.substituted
        for body, leaves in self.documents:
            fills = []
            for index, (_, container, _, value, style, start, _, one_line, _) in enumerate(leaves):
                if type(value) is not str or SENTINEL_PREFIX not in value:
                    continue
                number = value[len(SENTINEL_PREFIX):-2]
                if value.startswith(SENTINEL_PREFIX) and value.endswith("__") \
                        and number.isdecimal():  # the scalar is one directive
                    parts = ["", number, ""]
                else:
                    parts = _TOKEN_RE.split(value)
                    if len(parts) == 1:  # a literal that only looks like a token
                        continue
                # A block scalar (| or >) always spans lines. A tag would stand
                # before a plain value; on a quoted one it builds a str or
                # fails the compile, and an anchor changes nothing unaliased.
                if type(container) is tuple or not one_line or style is None \
                        and not substituted.startswith(value, start):
                    return None
                found = [int(n) for n in parts[1::2]]
                numbers += found
                whole = len(parts) == 3 and not parts[0] and not parts[2]
                fills.append((index, style, None, found[0]) if whole
                             else (index, style, parts[0::2], found))
            if type(body) is dict or type(body) is list:
                shape, homes, slots = [], [], []
                _shape(body, 0, shape, homes, slots)
                plan.append((body, [leaf[0] for leaf in leaves], shape, homes, slots, fills))
            else:  # no directive is in it: filled, it is as compiled
                plan.append((body, leaves, None, None, None, fills))
        return plan if sorted(numbers) == list(range(len(self.spans))) else None


# bytes a compiled leaf holds (record, key path, body slot, plan), beside the two a
# cached form's ``size`` adds per source character: 652-705 on seed-7 perfbench templates
_LEAF_BYTES = 700
# The compiled forms kept while a chart is read (see ``sharing_compiles``),
# oldest first, with their total size and the number of calls sharing them.
# Kept for longer, they cost more than they save: reading charts one after
# another, retained forms make each parse touch cold memory, and only a
# chart's own reads share its templates. The bound keeps hostile templates
# (up to 5 MiB, or 100 000 nodes by aliases) from piling up.
_COMPILED: dict[str, CompiledTemplate] = {}
_COMPILED_BYTES = 8 << 20
_compiled_size = 0
_sharing = 0


def compile_template(source: str) -> CompiledTemplate:
    """``source`` compiled, once per call of a ``sharing_compiles`` function."""
    global _compiled_size
    if not _sharing:
        return CompiledTemplate(source)
    compiled = _COMPILED.pop(source, None)
    if compiled is None:
        compiled = CompiledTemplate(source)
        compiled.size = 2 * len(source) + _LEAF_BYTES * compiled.leaves
        _compiled_size += compiled.size
        while _COMPILED and _compiled_size > _COMPILED_BYTES:
            _compiled_size -= _COMPILED.pop(next(iter(_COMPILED))).size
    _COMPILED[source] = compiled
    return compiled


def sharing_compiles(fn):
    """``fn``, keeping each template it compiles until it (or the outermost
    such function it runs in) returns, so its duplicate checks and renders
    of one chart parse each template text once."""
    @functools.wraps(fn)
    def sharing(*args, **kwargs):
        global _sharing, _compiled_size
        _sharing += 1
        try:
            return fn(*args, **kwargs)
        finally:
            _sharing -= 1
            if not _sharing:
                _COMPILED.clear()
                _compiled_size = 0

    return sharing


def _map_span(segments: list[tuple[int, int, int]], start: int, end: int
              ) -> tuple[int, int] | None:
    """Map a substituted-text span back to the source, or None if it crosses a sentinel."""
    # the segments are disjoint and in order: only the last one starting at or
    # before ``start`` can hold the span
    i = bisect.bisect_right(segments, (start, math.inf)) - 1
    if i >= 0:
        out_start, orig_start, length = segments[i]
        if end <= out_start + length:
            delta = orig_start - out_start
            return start + delta, end + delta
    return None


def sentinel_parse(template_path: str, source: str | CompiledTemplate) -> SentinelParse:
    """Parse a template source (or take its compiled form) with directives
    replaced by sentinel tokens, and walk its scalar leaves once, in document order.

    A template that is not YAML-shaped even after substitution yields no
    leaves and a non-None error.
    """
    compiled = compile_template(source) if type(source) is str else source
    if compiled.error is not None:
        return SentinelParse(template_path, [], [], compiled.error)
    literals = []
    for doc_index, (_, doc_leaves) in enumerate(compiled.documents):
        for suffix, _, _, raw, style, start, end, _, via_alias in doc_leaves:
            value = raw if type(raw) is str else canon(raw)
            literals.append((doc_index, suffix, value, SENTINEL_PREFIX in value, via_alias,
                             style, start, end))
    return SentinelParse(template_path, literals, compiled.segments)
