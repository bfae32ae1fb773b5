"""Template rendering via a pluggable engine contract.

The built-in engine covers a deliberately small directive subset (value
interpolation, ``default``/``quote``/``upper``/``lower`` pipes and
``randAlphaNum``) so every analysis can run hermetically; anything else is
reported as EngineUnsupported rather than silently mis-rendered. Full
fidelity is delegated to an external renderer binary driven as a
subprocess.
"""

from __future__ import annotations

import functools
import os
import random
import re
import shutil
import string
import subprocess
import tempfile
from dataclasses import dataclass, field
from typing import Any, Mapping

import yaml

from .core import ChartPackage, write_package_dir
from .errors import EngineUnavailable
from .yamlutil import (
    DIRECTIVE_RE,
    build_path,
    canon,
    is_scalar,
    iter_tree_leaves,
    load_documents,
    parse_path,
    set_at,
)

MISSING_VALUE = "MissingValue"
SYNTAX_ERROR = "SyntaxError"
ENGINE_UNSUPPORTED = "EngineUnsupported"


@dataclass(frozen=True)
class RenderFailure:
    template_path: str
    reason: str
    category: str  # MissingValue | SyntaxError | EngineUnsupported


@dataclass
class RenderResult:
    """Rendered documents as (template_path, doc_index, parsed body), with failures and text."""

    documents: list[tuple[str, int, Any]]
    failures: list[RenderFailure]
    texts: dict[str, str]  # template path -> rendered text
    applied: set[str] = field(default_factory=set)  # override key paths render_chart pinned

    def canonical_yaml(self) -> str:
        """Deterministic multi-document serialization for byte comparisons."""
        chunks = []
        for template_path, doc_index, body in sorted(
            self.documents, key=lambda d: (d[0], d[1])
        ):
            dumped = yaml.safe_dump(body, sort_keys=True, default_flow_style=False)
            chunks.append(f"--- # {template_path}#{doc_index}\n{dumped}")
        return "".join(chunks)

    def pin(self, overrides: Mapping[str, str]) -> set[str]:
        """Set each override's key path in place; returns the key paths set.

        Key paths that do not parse or name no existing leaf are ignored.
        """
        by_doc = {(tp, di): body for tp, di, body in self.documents}
        pinned = set()
        for key_path, value in overrides.items():
            try:
                template_path, doc_index, segments = parse_path(key_path)
            except ValueError:
                continue
            body = by_doc.get((template_path, doc_index))
            if body is not None and set_at(body, segments, value):
                pinned.add(key_path)
        return pinned

    def restricted(self, templates: set[str]) -> list[tuple[str, int, Any]]:
        """The documents of the named templates, in render order."""
        return [doc for doc in self.documents if doc[0] in templates]

    def differing(self, earlier: RenderResult) -> set[str]:
        """Templates whose rendered text differs from ``earlier``'s or that only one rendered."""
        return {path for path in self.texts.keys() | earlier.texts.keys()
                if self.texts.get(path) != earlier.texts.get(path)}


class _TemplateError(Exception):
    def __init__(self, category: str, reason: str):
        super().__init__(reason)
        self.category = category
        self.reason = reason


_MISSING = object()
_WORD_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\S+')
_ALPHANUM = string.ascii_letters + string.digits
# module level, not per engine: an engine must pickle to reach a worker process
_RAND = random.SystemRandom()


# cached at module level, where an engine's pickling does not reach it, and as
# tuples, so no caller can change a cached stage
@functools.lru_cache(maxsize=1 << 14)
def _split_pipes(expr: str) -> tuple[tuple[str, ...], ...]:
    """The words of each ``|``-separated stage of a directive; a quoted ``|`` stays in its word."""
    stages, buf, quoted = [], [], False
    for i, ch in enumerate(expr):
        if ch == '"' and (i == 0 or expr[i - 1] != "\\"):
            quoted = not quoted
        if ch == "|" and not quoted:
            stages.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    stages.append("".join(buf))
    return tuple(tuple(_WORD_RE.findall(stage)) for stage in stages)


class BuiltinEngine:
    """Minimal hermetic renderer for the documented directive subset."""

    name = "builtin"

    def render_package(self, pkg: ChartPackage) -> tuple[list[tuple[str, str]], list[RenderFailure]]:
        rendered = []
        failures = []
        for path, body in pkg.templates:
            try:
                rendered.append((path, self._render_text(pkg, body)))
            except _TemplateError as exc:
                failures.append(RenderFailure(path, exc.reason, exc.category))
        return rendered, failures

    def _render_text(self, pkg: ChartPackage, body: str) -> str:
        def replace(match: re.Match) -> str:
            expr = match.group(0)[2:-2].strip().strip("-").strip()
            return self._eval(pkg, expr)

        return DIRECTIVE_RE.sub(replace, body)

    def _eval(self, pkg: ChartPackage, expr: str) -> str:
        stages = _split_pipes(expr)
        if not stages or not stages[0]:
            raise _TemplateError(ENGINE_UNSUPPORTED, f"empty directive {expr!r}")
        value = self._primary(pkg, stages[0], expr)
        for stage in stages[1:]:
            value = self._apply(value, stage, expr)
        if value is _MISSING or value is None:
            raise _TemplateError(MISSING_VALUE, f"no value for {expr!r} and no default")
        if not is_scalar(value):
            raise _TemplateError(ENGINE_UNSUPPORTED, f"non-scalar value for {expr!r}")
        return canon(value)

    def _primary(self, pkg: ChartPackage, words: tuple[str, ...], expr: str) -> Any:
        head = words[0]
        if head.startswith(".Values."):
            if len(words) != 1:
                raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported expression {expr!r}")
            node: Any = pkg.values
            for part in head[len(".Values."):].split("."):
                if isinstance(node, dict) and part in node:
                    node = node[part]
                else:
                    return _MISSING
            return node
        if head == ".Release.Name" and len(words) == 1:
            return "release-name"
        if head == ".Chart.Name" and len(words) == 1:
            return pkg.metadata.name
        if head == ".Chart.Version" and len(words) == 1:
            return pkg.metadata.version
        if head == "randAlphaNum" and len(words) == 2 and words[1].isdigit():
            n = int(words[1])
            return "".join(_RAND.choice(_ALPHANUM) for _ in range(n))
        literal = self._literal(head)
        if literal is not None and len(words) == 1:
            return literal
        raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported expression {expr!r}")

    @staticmethod
    def _literal(word: str) -> Any:
        if len(word) >= 2 and word[0] == '"' and word[-1] == '"':
            return word[1:-1].replace('\\"', '"')
        if re.fullmatch(r"-?\d+", word):
            return int(word)
        if re.fullmatch(r"-?\d+\.\d+", word):
            return float(word)
        return None

    def _apply(self, value: Any, words: tuple[str, ...], expr: str) -> Any:
        if not words:
            raise _TemplateError(ENGINE_UNSUPPORTED, f"empty pipe stage in {expr!r}")
        func = words[0]
        if func == "default" and len(words) == 2:
            fallback = self._literal(words[1])
            if fallback is None:
                raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported default arg in {expr!r}")
            if value is _MISSING or value is None or value == "":
                return fallback
            return value
        if func == "quote" and len(words) == 1:
            if value is _MISSING or value is None:
                return value
            return '"%s"' % canon(value).replace('"', '\\"')
        if func == "upper" and len(words) == 1:
            return value if value in (_MISSING, None) else canon(value).upper()
        if func == "lower" and len(words) == 1:
            return value if value in (_MISSING, None) else canon(value).lower()
        raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported pipe {func!r} in {expr!r}")


_SOURCE_MARK_RE = re.compile(r"^# Source:\s*\S*?(templates/\S+)\s*$", re.MULTILINE)
_ERR_TEMPLATE_RE = re.compile(r"(templates/[\w./-]+)")
_SEPARATOR_RE = re.compile(r"^---(?: .*)?\r?$\n?", re.MULTILINE)


class ExternalEngine:
    """Adapter that shells out to the platform chart tool in template mode."""

    name = "external"

    def __init__(self, binary: str | None = None):
        self.binary = binary or os.environ.get("CHARTQA_RENDERER")

    def render_package(self, pkg: ChartPackage) -> tuple[list[tuple[str, str]], list[RenderFailure]]:
        if not self.binary or shutil.which(self.binary) is None and not os.path.isfile(self.binary):
            raise EngineUnavailable(
                "external renderer binary not found; set --renderer-bin or CHARTQA_RENDERER"
            )
        with tempfile.TemporaryDirectory(prefix="chartqa-render-") as workdir:
            chart_dir = os.path.join(workdir, pkg.metadata.name)
            write_package_dir(pkg, chart_dir)
            try:
                proc = subprocess.run(
                    [self.binary, "template", chart_dir],
                    capture_output=True, text=True, timeout=120,
                )
            except OSError as exc:
                raise EngineUnavailable(f"cannot execute renderer: {exc}") from exc
        if proc.returncode != 0:
            return [], self._failures_from_stderr(proc.stderr)
        return self._attribute_output(proc.stdout, pkg), []

    @staticmethod
    def _failures_from_stderr(stderr: str) -> list[RenderFailure]:
        failures = []
        for line in filter(None, (l.strip() for l in stderr.splitlines())):
            m = _ERR_TEMPLATE_RE.search(line)
            path = m.group(1) if m else ""
            lowered = line.lower()
            if "required" in lowered or "no value" in lowered or "nil" in lowered:
                category = MISSING_VALUE
            else:
                category = SYNTAX_ERROR
            failures.append(RenderFailure(path, line, category))
        if not failures:
            failures.append(RenderFailure("", "renderer exited non-zero", SYNTAX_ERROR))
        return failures

    @staticmethod
    def _attribute_output(stdout: str, pkg: ChartPackage) -> list[tuple[str, str]]:
        """Group rendered chunks back to template paths via Source comments."""
        per_template: dict[str, list[str]] = {}  # in order of first appearance
        # split on ``---`` lines at column 0, keeping the ``# Source:`` comments
        for chunk in _SEPARATOR_RE.split(stdout):
            if chunk.strip():
                m = _SOURCE_MARK_RE.search(chunk)
                per_template.setdefault(m.group(1) if m else "", []).append(chunk)
        return [(path, "\n---\n".join(chunks)) for path, chunks in per_template.items()]


Renderer = BuiltinEngine | ExternalEngine


def render_chart(
    pkg: ChartPackage,
    overrides: Mapping[str, str] | None = None,
    engine: Renderer | None = None,
    earlier: RenderResult | None = None,
) -> RenderResult:
    """Render every template of the chart and parse the output documents.

    Overrides map flattened key paths of the rendered output to replacement
    text and are injected after parsing, taking precedence over whatever the
    engine produced (including fresh random values); ``applied`` holds the
    key paths of those that named a leaf of the result. Failures are collected
    per template; successfully rendered templates are still returned. A
    template whose rendered text is not YAML gives no documents and one
    SyntaxError failure.

    Given ``earlier``, a render of the same override set, a template whose
    text equals its text there is not parsed: equal text under equal
    overrides gives equal documents and the same SyntaxError, so its
    documents and failure are those of ``earlier`` and this result holds
    neither. ``texts`` holds every rendered template, so
    ``differing(earlier)`` names the templates whose documents may differ.
    """
    engine = engine or BuiltinEngine()
    rendered, failures = engine.render_package(pkg)
    known = earlier.texts if earlier is not None else {}

    documents: list[tuple[str, int, Any]] = []
    for template_path, text in rendered:
        if known.get(template_path) == text:
            continue
        try:
            parsed = load_documents(text, leaves=False)
        except yaml.YAMLError as exc:
            reason = str(exc).replace("\n", " ")
            failures.append(RenderFailure(template_path, reason, SYNTAX_ERROR))
            continue
        documents.extend(
            (template_path, doc_index, body) for doc_index, (body, _) in enumerate(parsed)
        )

    result = RenderResult(documents, failures, dict(rendered))
    result.applied = result.pin(overrides or {})
    return result


def flatten_documents(documents: list[tuple[str, int, Any]]) -> list[tuple[str, str]]:
    """Depth-first scalar leaves of every document as (key path, canonical value)."""
    out = []
    for template_path, doc_index, body in documents:
        for segments, value in iter_tree_leaves(body):
            out.append((build_path(template_path, doc_index, segments), canon(value)))
    return out
