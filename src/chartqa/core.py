"""Chart domain types, archive parsing, name-stem mangling, corpus metrics."""

from __future__ import annotations

import io
import os
import posixpath
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from .errors import (EmptyCorpus, MalformedArchive, MetadataParseError, MissingMetadata,
                     TooManyLeaves)
from .files import MAX_FILE_BYTES

# yaml, yamlutil, tarfile, gzip and zlib are imported by the functions that
# parse, so a command that reads no chart and no index text loads none of them

ValueTree = Any  # nested dict / list / scalar structure of a parsed YAML document

FALLBACK_STEM = "_"


def mangle_stem(file_name: str) -> str:
    """Mangle a chart file name into its version-free stem.

    The ``.tgz`` suffix is stripped, then dash-separated components are kept
    left to right until the first component that begins with a digit; that
    component and everything after it are dropped, and the kept components
    are joined without separators. If every component begins with a digit
    the stem falls back to the whole name with dashes removed (an empty
    result falls back to ``_`` so graph node identity never collapses).
    """
    name = file_name[:-4] if file_name.endswith(".tgz") else file_name
    kept = []
    for component in name.split("-"):
        if component[:1].isdigit():
            break
        kept.append(component)
    stem = "".join(kept)
    if not stem:
        stem = name.replace("-", "")
    return stem or FALLBACK_STEM


def unusable_file_name_part(name: str, version: str) -> str | None:
    """Which of a chart's name and version cannot be part of its file name
    ``<name>-<version>.tgz``, as ``"name '..'"``, or None when both can.

    The file name is joined onto a snapshot store's or an output directory,
    so a path separator, NUL, ``.`` or ``..`` would place it outside.
    """
    for kind, text in (("name", name), ("version", version)):
        if text in ("", ".", "..") or any(ch in text for ch in "/\\\0"):
            return f"{kind} {text!r}"
    return None


class Maintainer(NamedTuple):
    """One maintainer record as listed in chart metadata."""

    name: str | None = None
    email: str | None = None

    @property
    def well_formed(self) -> bool:
        return bool(self.normalized_name or self.normalized_email)

    @property
    def normalized_name(self) -> str:
        """The name trimmed, case kept; empty when absent."""
        return self.name.strip() if self.name else ""

    @property
    def normalized_email(self) -> str:
        """The e-mail trimmed and lowercased; empty when absent."""
        return self.email.strip().lower() if self.email else ""


def maintainers_from_field(raw: Any) -> tuple[Maintainer, ...]:
    """Records of a ``maintainers`` field (Chart.yaml or index); a non-list holds none."""
    if not isinstance(raw, list):
        return ()
    maintainers = []
    for entry in raw:
        if isinstance(entry, Mapping):
            name, email = entry.get("name"), entry.get("email")
            maintainers.append(Maintainer(
                name=str(name) if name is not None else None,
                email=str(email) if email is not None else None,
            ))
        elif isinstance(entry, str):
            maintainers.append(Maintainer(name=entry))
    return tuple(maintainers)


class _ChartRefFields(NamedTuple):
    name: str
    version: str
    file_name: str
    stem: str


class ChartRef(_ChartRefFields):
    """A chart file reference; the stem is derived from the file name."""

    __slots__ = ()

    def __new__(cls, name: str, version: str, file_name: str) -> "ChartRef":
        if not file_name.endswith(".tgz"):
            raise ValueError(f"chart file name must end with .tgz: {file_name!r}")
        return super().__new__(cls, name, version, file_name, mangle_stem(file_name))

    def __getnewargs__(self) -> tuple[str, str, str]:
        return self[:3]  # copies and pickles derive the stem again

    @classmethod
    def _make(cls, fields) -> "ChartRef":  # and so does _replace
        name, version, file_name, *_ = fields
        return cls(name, version, file_name)

    @classmethod
    def from_name_version(cls, name: str, version: str) -> "ChartRef":
        return cls(name=name, version=version, file_name=f"{name}-{version}.tgz")


class ChartMetadata(NamedTuple):
    """The Chart.yaml fields chartqa reads; the rest stay in the package's text."""

    name: str
    version: str
    maintainers: tuple[Maintainer, ...] = ()

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ChartMetadata":
        if not isinstance(data, Mapping):
            raise MetadataParseError("Chart.yaml is not a mapping")
        name = data.get("name")
        version = data.get("version")
        if not name or not version:
            raise MetadataParseError("Chart.yaml lacks a non-empty name or version")
        name, version = str(name), str(version)
        unusable = unusable_file_name_part(name, version)
        if unusable:
            raise MetadataParseError(f"Chart.yaml has unusable {unusable}")
        return cls(name=name, version=version,
                   maintainers=maintainers_from_field(data.get("maintainers")))


class ChartPackage(NamedTuple):
    """One unpacked chart: metadata, values, templates, and the text of its
    Chart.yaml and values.yaml as read (rewrite diffs and the external
    renderer need the original bytes, not a re-serialization)."""

    metadata: ChartMetadata
    values: ValueTree
    templates: tuple[tuple[str, str], ...]  # (path under chart root, body)
    chart_text: str
    values_text: str  # "" when the chart has no values.yaml

    @property
    def ref(self) -> ChartRef:
        return ChartRef.from_name_version(self.metadata.name, self.metadata.version)

    @property
    def stem(self) -> str:
        return self.ref.stem

    def compiled_templates(self) -> Iterator[tuple[str, Any]]:
        """(path, compiled form) of each template; TooManyLeaves past MAX_CHART_LEAVES."""
        from .yamlutil import compile_template

        leaves = 0
        for path, source in self.templates:
            compiled = compile_template(source)
            leaves += compiled.leaves
            if leaves > MAX_CHART_LEAVES:
                raise TooManyLeaves(f"templates hold over {MAX_CHART_LEAVES} scalar leaves")
            yield path, compiled


def package_from_files(files: Mapping[str, bytes | str]) -> ChartPackage:
    """Build a ChartPackage from chart-root-relative file contents.

    ``files`` maps paths like ``Chart.yaml`` or ``templates/app.yaml`` to
    their bodies. Entries outside Chart.yaml, values.yaml, templates/ and
    requirements.yaml are ignored by analysis.
    """
    import yaml

    from .yamlutil import load_unique

    def text(path: str) -> str:
        body = files[path]
        try:
            return body.decode("utf-8") if isinstance(body, bytes) else body
        except UnicodeDecodeError as exc:
            raise MetadataParseError(f"{path} is not UTF-8: {exc}") from exc

    def parse(path: str, body: str, literal: bool = False) -> Any:
        try:
            return load_unique(body, literal)
        except yaml.YAMLError as exc:
            raise MetadataParseError(f"{path} invalid: {exc}") from exc

    if "Chart.yaml" not in files:
        raise MissingMetadata("chart has no Chart.yaml")
    chart_text = text("Chart.yaml")
    # names and versions as written, as Helm and the repository index read them
    metadata = ChartMetadata.from_mapping(parse("Chart.yaml", chart_text, literal=True) or {})

    values: ValueTree = {}
    values_text = ""
    if "values.yaml" in files:
        values_text = text("values.yaml")
        values = parse("values.yaml", values_text)
        if values is None:
            values = {}

    templates = tuple(
        (path, text(path))
        for path in sorted(files)
        if path.startswith("templates/") and not path.endswith("/")
    )

    if "requirements.yaml" in files:  # read only so a chart Helm would refuse is skipped
        parse("requirements.yaml", text("requirements.yaml"), literal=True)

    return ChartPackage(metadata=metadata, values=values, templates=templates,
                        chart_text=chart_text, values_text=values_text)


_TAR_BLOCK = 512  # tarfile.BLOCKSIZE
# Helm's own default for a whole chart, as files.MAX_FILE_BYTES is for one file
MAX_ARCHIVE_BYTES = 100 * 1024 * 1024
# a chart holds tens of files; an empty member costs no declared bytes but
# still a header read and a TarInfo, so a stream of them is bounded by count
MAX_ARCHIVE_MEMBERS = 10_000
# one header block per member, and 1 MiB for long-name and pax header bodies,
# the most Go's archive/tar (which Helm reads charts with) accepts for one
MAX_HEADER_BYTES = MAX_ARCHIVE_MEMBERS * _TAR_BLOCK + 1024 * 1024
# the scalar leaves a chart's templates may hold in all, each costing memory in every pass
MAX_CHART_LEAVES = 1_000_000


class _BoundedStream:
    """The decompressed bytes of a gzipped archive, refusing to read or seek past a limit.

    tarfile reads a long-name or pax header body in full before it yields
    the member it names, so no member bound sees that body. The limit starts
    at MAX_HEADER_BYTES and grows by the stored size of each file allowed.
    """

    def __init__(self, archive: bytes):
        import gzip

        self._raw = gzip.GzipFile(fileobj=io.BytesIO(archive))
        self._limit = MAX_HEADER_BYTES

    def allow(self, size: int) -> None:
        """Raise the limit by a file of ``size`` bytes, padded to whole tar blocks."""
        self._limit += -(-size // _TAR_BLOCK) * _TAR_BLOCK

    def _check(self, end: int) -> None:
        if end > self._limit:
            raise MalformedArchive(f"archive holds over {MAX_HEADER_BYTES} bytes besides files")

    def read(self, size: int) -> bytes:
        self._check(self._raw.tell() + size)
        return self._raw.read(size)

    def seek(self, offset: int) -> int:
        self._check(offset)
        return self._raw.seek(offset)

    def tell(self) -> int:
        return self._raw.tell()


def parse_chart_archive(archive: bytes) -> ChartPackage:
    """Parse a gzipped tar chart archive into a ChartPackage.

    Templates are returned verbatim (unrendered); a missing values.yaml
    yields an empty value tree. Members are read one at a time, and the
    archive is rejected as soon as one file, the running total of declared
    file sizes, the member count or the bytes besides file data pass their
    bound, before the data that passes it is decompressed.
    """
    import tarfile
    import zlib

    files: dict[str, bytes] = {}
    total = 0
    stream = _BoundedStream(archive)
    try:
        with tarfile.open(fileobj=stream, mode="r:") as tar:
            for count, member in enumerate(tar, 1):
                if count > MAX_ARCHIVE_MEMBERS:
                    raise MalformedArchive(f"archive has over {MAX_ARCHIVE_MEMBERS} members")
                if not member.isfile():
                    continue
                total += member.size
                if member.size > MAX_FILE_BYTES:
                    raise MalformedArchive(
                        f"{member.name} declares {member.size} bytes, over {MAX_FILE_BYTES}"
                    )
                if total > MAX_ARCHIVE_BYTES:
                    raise MalformedArchive(f"archive files declare over {MAX_ARCHIVE_BYTES} bytes")
                stream.allow(member.size)
                parts = member.name.split("/")
                # drop the single top-level chart directory, and clean the rest as Helm does
                rel = posixpath.normpath("/".join(parts[1:]) if len(parts) > 1 else parts[0])
                if rel == ".":
                    continue
                if rel.startswith(".."):
                    raise MalformedArchive(f"{member.name} lies outside the chart directory")
                extracted = tar.extractfile(member)
                if extracted is not None:
                    files[rel] = extracted.read()
    except (tarfile.TarError, OSError, EOFError, zlib.error) as exc:
        raise MalformedArchive(f"not a gzipped tar archive: {exc}") from exc
    return package_from_files(files)


def write_package_dir(pkg: ChartPackage, chart_dir: str) -> None:
    """Write a package as an unpacked chart directory: its Chart.yaml,
    values.yaml and templates exactly as read."""
    for path, body in (("Chart.yaml", pkg.chart_text), ("values.yaml", pkg.values_text),
                       *pkg.templates):
        full = os.path.join(chart_dir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)


def versioning_overhead(charts: Iterable[ChartRef]) -> float:
    """Excess of chart files over distinct stems, as a fraction of stems."""
    refs = list(charts)
    if not refs:
        raise EmptyCorpus("versioning overhead needs at least one chart")
    stems = {ref.stem for ref in refs}
    return (len(refs) - len(stems)) / len(stems)
