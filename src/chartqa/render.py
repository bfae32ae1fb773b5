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
import string
from typing import Any, Callable, Mapping, NamedTuple

import yaml

from .core import MAX_FILE_BYTES, ChartPackage, write_package_dir
from .errors import EngineUnavailable
from .yamlutil import CompiledTemplate, canon, is_scalar, load_documents

MISSING_VALUE = "MissingValue"
SYNTAX_ERROR = "SyntaxError"
ENGINE_UNSUPPORTED = "EngineUnsupported"


class RenderFailure(NamedTuple):
    template_path: str
    reason: str
    category: str  # MissingValue | SyntaxError | EngineUnsupported


class RenderResult:
    """Rendered documents as (template_path, doc_index, parsed body), with failures.

    ``leaves`` maps the key path of each scalar leaf to (template path,
    container, slot): the leaf's value is ``container[slot]``. Where two
    leaves have one key path, the last in document order holds it. A
    document that is one scalar is held in the 1-tuple ``(value,)``, which
    no pin changes. ``keys`` maps each rendered template to its render key:
    equal keys give equal documents.
    """

    __slots__ = ("documents", "leaves", "failures", "keys", "applied")

    def __init__(self, documents: list[tuple[str, int, Any]], leaves: dict[str, tuple],
                 failures: list[RenderFailure], keys: dict[str, Any]):
        self.documents = documents
        self.leaves = leaves
        self.failures = failures
        self.keys = keys
        self.applied: set[str] = set()  # override key paths render_chart pinned

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
        """Set each override's leaf in place; returns the key paths set.

        A key path that names no leaf (a mapping, a list or nothing) or a
        document that is one scalar is ignored.
        """
        pinned = set()
        for key_path, value in overrides.items():
            leaf = self.leaves.get(key_path)
            if leaf is not None and not isinstance(leaf[1], tuple):
                _, container, slot = leaf
                container[slot] = value
                pinned.add(key_path)
        return pinned

    def leaf_values(self, templates: set[str] | None = None) -> dict[str, str]:
        """``{key path: canonical current value}`` of the leaves of every
        template, or of the named ones, in document order."""
        return {path: canon(container[slot])
                for path, (template_path, container, slot) in self.leaves.items()
                if templates is None or template_path in templates}

    def differing(self, earlier: RenderResult) -> set[str]:
        """Templates whose render key differs from ``earlier``'s or that only one rendered."""
        return {path for path in self.keys.keys() | earlier.keys.keys()
                if self.keys.get(path) != earlier.keys.get(path)}


class _TemplateError(Exception):
    def __init__(self, category: str, reason: str):
        super().__init__(reason)
        self.category = category
        self.reason = reason


_MISSING = object()
_TOO_LONG = f"renders to more than {MAX_FILE_BYTES} characters"
_WORD_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\S+')
_ALPHANUM = string.ascii_letters + string.digits
# module level, not per engine: an engine must pickle to reach a worker process
_RAND = random.SystemRandom()


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


def _literal(word: str) -> Any:
    if len(word) >= 2 and word[0] == '"' and word[-1] == '"':
        return word[1:-1].replace('\\"', '"')
    if re.fullmatch(r"-?\d+", word):
        try:
            return int(word)
        except ValueError:  # past int()'s limit of 4300 digits
            return None
    if re.fullmatch(r"-?\d+\.\d+", word):
        return float(word)
    return None


def _primary(words: tuple[str, ...], expr: str) -> Callable[[ChartPackage], Any]:
    """What gives the value of a directive's first stage for a package."""
    head = words[0]
    if head.startswith(".Values."):
        if len(words) != 1:
            raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported expression {expr!r}")
        parts = head[len(".Values."):].split(".")

        def lookup(pkg: ChartPackage) -> Any:
            node: Any = pkg.values
            for part in parts:
                if isinstance(node, dict) and part in node:
                    node = node[part]
                else:
                    return _MISSING
            return node

        return lookup
    if head == ".Release.Name" and len(words) == 1:
        return lambda pkg: "release-name"
    if head == ".Chart.Name" and len(words) == 1:
        return lambda pkg: pkg.metadata.name
    if head == ".Chart.Version" and len(words) == 1:
        return lambda pkg: pkg.metadata.version
    if head == "randAlphaNum" and len(words) == 2 and words[1].isdecimal():
        n = _literal(words[1])
        if n is None or n > MAX_FILE_BYTES:
            raise _TemplateError(ENGINE_UNSUPPORTED, _TOO_LONG)
        return lambda pkg: "".join(_RAND.choice(_ALPHANUM) for _ in range(n))  # fresh each time
    literal = _literal(head)
    if literal is not None and len(words) == 1:
        return lambda pkg: literal
    raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported expression {expr!r}")


def _pipe(words: tuple[str, ...], expr: str) -> Callable[[Any], Any]:
    """What a pipe stage makes of the value it is given."""
    if not words:
        raise _TemplateError(ENGINE_UNSUPPORTED, f"empty pipe stage in {expr!r}")
    func = words[0]
    if func == "default" and len(words) == 2:
        fallback = _literal(words[1])
        if fallback is None:
            raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported default arg in {expr!r}")
        return lambda value: fallback if value is _MISSING or value is None or value == "" \
            else value
    if func == "quote" and len(words) == 1:
        return lambda value: value if value is _MISSING or value is None \
            else '"%s"' % canon(value).replace('"', '\\"')
    if func == "upper" and len(words) == 1:
        return lambda value: value if value is _MISSING or value is None else canon(value).upper()
    if func == "lower" and len(words) == 1:
        return lambda value: value if value is _MISSING or value is None else canon(value).lower()
    raise _TemplateError(ENGINE_UNSUPPORTED, f"unsupported pipe {func!r} in {expr!r}")


def _fail(category: str, reason: str, pkg: ChartPackage) -> str:
    raise _TemplateError(category, reason)


# cached at module level, where an engine's pickling does not reach it
@functools.lru_cache(maxsize=1 << 14)
def _evaluator(expr: str) -> Callable[[ChartPackage], str]:
    """A directive's expression compiled once: a call giving its output for a
    package, or raising its _TemplateError. An expression the engine does not
    support fails the same way for every package."""
    stages = _split_pipes(expr)
    try:
        if not stages[0]:
            raise _TemplateError(ENGINE_UNSUPPORTED, f"empty directive {expr!r}")
        primary = _primary(stages[0], expr)
        pipes = tuple(_pipe(stage, expr) for stage in stages[1:])
    except _TemplateError as exc:
        return functools.partial(_fail, exc.category, exc.reason)

    def evaluate(pkg: ChartPackage) -> str:
        value = primary(pkg)
        for pipe in pipes:
            value = pipe(value)
        if type(value) is str:
            return value
        if value is _MISSING or value is None:
            raise _TemplateError(MISSING_VALUE, f"no value for {expr!r} and no default")
        if not is_scalar(value):
            raise _TemplateError(ENGINE_UNSUPPORTED, f"non-scalar value for {expr!r}")
        return canon(value)

    return evaluate


# (template path, render key, a call giving its documents) of a rendered template
Rendered = tuple[str, Any, Callable[[], list]]


def _filled(compiled: CompiledTemplate, outputs: tuple[str, ...]) -> list[tuple[Any, Any]]:
    """The documents of ``compiled`` rendered with ``outputs``: filled in where
    that is proven, else parsed from the rendered text."""
    filled = compiled.fill(outputs)
    return filled if filled is not None else load_documents(compiled.text(outputs))


class BuiltinEngine:
    """Minimal hermetic renderer for the documented directive subset."""

    name = "builtin"

    def render_package(self, pkg: ChartPackage) -> tuple[list[Rendered], list[RenderFailure]]:
        """Each template that rendered, in order, and the failures of the others.

        A render key is the template source with its directives' outputs,
        so each directive is evaluated once per render, and the documents
        come from the template's compiled form (TooManyLeaves past the budget).
        """
        rendered = []
        failures = []
        for path, compiled in pkg.compiled_templates():
            try:
                outputs = self._outputs(pkg, compiled)
            except _TemplateError as exc:
                failures.append(RenderFailure(path, exc.reason, exc.category))
                continue
            rendered.append((path, (compiled.source, outputs),
                             functools.partial(_filled, compiled, outputs)))
        return rendered, failures

    def _outputs(self, pkg: ChartPackage, compiled: CompiledTemplate) -> tuple[str, ...]:
        """Each directive evaluated, in text order, up to the first that fails; an
        EngineUnsupported failure once the text grows past ``MAX_FILE_BYTES``
        characters, Helm's limit for one chart file."""
        grown = 0  # characters the directives so far added to the text
        outputs = []
        for (start, end), expr in zip(compiled.spans, compiled.exprs):
            output = _evaluator(expr)(pkg)
            grown += len(output) - (end - start)
            if end + grown > MAX_FILE_BYTES:  # the text up to here
                raise _TemplateError(ENGINE_UNSUPPORTED, _TOO_LONG)
            outputs.append(output)
        if len(compiled.source) + grown > MAX_FILE_BYTES:
            raise _TemplateError(ENGINE_UNSUPPORTED, _TOO_LONG)
        return tuple(outputs)


# a Source line's whole token, matched in time linear in the line's length
_SOURCE_MARK_RE = re.compile(r"^# Source:\s*(\S+)\s*$", re.MULTILINE)
_ERR_TEMPLATE_RE = re.compile(r"(templates/[\w./-]+)")
_SEPARATOR_RE = re.compile(r"^---(?: .*)?\r?$\n?", re.MULTILINE)


class ExternalEngine:
    """Adapter that shells out to the platform chart tool in template mode."""

    name = "external"

    def __init__(self, binary: str | None = None):
        self.binary = binary or os.environ.get("CHARTQA_RENDERER")

    def render_package(self, pkg: ChartPackage) -> tuple[list[Rendered], list[RenderFailure]]:
        """Each template that rendered, keyed by its rendered text, and the failures."""
        import shutil
        import subprocess
        import tempfile

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
        return [(path, text, functools.partial(load_documents, text))
                for path, text in self._attribute_output(proc.stdout, pkg)], []

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
                # the first Source token holding ``templates/`` and more, from there
                path = next((t[t.find("templates/"):] for t in _SOURCE_MARK_RE.findall(chunk)
                             if -1 < t.find("templates/") < len(t) - len("templates/")), "")
                per_template.setdefault(path, []).append(chunk)
        return [(path, "\n---\n".join(chunks)) for path, chunks in per_template.items()]


Renderer = BuiltinEngine | ExternalEngine


def render_chart(
    pkg: ChartPackage,
    overrides: Mapping[str, str] | None = None,
    engine: Renderer | None = None,
    earlier: RenderResult | None = None,
) -> RenderResult:
    """Render every template of the chart and build the output documents.

    Overrides map key paths of the rendered output to replacement
    text and are injected after parsing, taking precedence over whatever the
    engine produced (including fresh random values); ``applied`` holds the
    key paths of those that named a leaf of the result. Failures are collected
    per template; successfully rendered templates are still returned. A
    template whose rendered text is not YAML gives no documents and one
    SyntaxError failure.

    Given ``earlier``, a render of the same override set, a template whose
    render key equals its key there is not parsed: equal keys under equal
    overrides give equal documents and the same SyntaxError, so its
    documents and failure are those of ``earlier`` and this result holds
    neither. ``keys`` holds every rendered template, so
    ``differing(earlier)`` names the templates whose documents may differ.
    """
    engine = engine or BuiltinEngine()
    rendered, failures = engine.render_package(pkg)
    known = earlier.keys if earlier is not None else {}

    documents: list[tuple[str, int, Any]] = []
    leaves: dict[str, tuple] = {}
    for template_path, key, build in rendered:
        if known.get(template_path) == key:
            continue
        try:
            parsed = build()
        except yaml.YAMLError as exc:
            reason = str(exc).replace("\n", " ")
            failures.append(RenderFailure(template_path, reason, SYNTAX_ERROR))
            continue
        for doc_index, (body, doc_leaves) in enumerate(parsed):
            documents.append((template_path, doc_index, body))
            prefix = f"{template_path}#{doc_index}"
            for leaf in doc_leaves:  # (key path suffix, container, slot, ...)
                leaves[prefix + leaf[0]] = (template_path, leaf[1], leaf[2])

    result = RenderResult(documents, leaves, failures, {path: key for path, key, _ in rendered})
    result.applied = result.pin(overrides or {})
    return result
