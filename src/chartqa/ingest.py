"""Repository index parsing, archive retrieval, local ingestion, snapshots.

The snapshot store is a directory tree with one subdirectory per snapshot
id (a UTC date) holding the raw index, the raw archives and a JSON manifest
of content digests, so any historical state can be replayed byte-exactly.
The manifest also keeps the index entries as ``parse_repo_index`` built
them, keyed to the sha256 of ``index.yaml`` and marked with the reader
that built them: loading a snapshot rebuilds the entries from there instead
of parsing the YAML again, and parses it when the key is absent (stores
recorded before the key existed), the digest no longer matches the file, or
another reader built the entries.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import yaml

from .core import (
    ChartPackage, ChartRef, Maintainer, maintainers_from_field, package_from_files,
    parse_chart_archive,
)
from .errors import (
    ChartQAError,
    ChecksumMismatch,
    DuplicateSnapshot,
    EmptyIndex,
    FetchError,
    IndexParseError,
    StorageError,
)
from .yamlutil import load_literal


@dataclass(frozen=True)
class IndexEntry:
    """One version record of the repository index."""

    ref: ChartRef
    maintainers: tuple[Maintainer, ...] = ()
    urls: tuple[str, ...] = ()
    digest: str | None = None


@dataclass(frozen=True)
class RepoIndex:
    source: str
    fetched_at: datetime.datetime
    entries: tuple[IndexEntry, ...]
    raw: bytes | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Snapshot:
    """A timestamped repository state; append-only once recorded.

    Loading reads the index and the content digests only; the archives stay
    in the store for ``parse_chart_archive`` to read when a caller needs one.
    """

    id: str
    index: RepoIndex
    content_digests: Mapping[str, str]


def _file_name_part(kind: str, text: str, chart_name: str) -> str:
    """Return ``text`` when it can be part of a snapshot archive file name.

    Chart names and versions become ``<name>-<version>.tgz`` under the store's
    archive directory, so a path separator, NUL, ``.`` or ``..`` would let an
    index entry write outside it.
    """
    if text in ("", ".", "..") or any(ch in text for ch in "/\\\0"):
        raise IndexParseError(
            f"version record under {chart_name!r} has unusable {kind} {text!r}"
        )
    return text


def _entry_ref(name: str, version: str, chart_name: str) -> ChartRef:
    """The chart file of one version record, by the file-name rule of both readers."""
    return ChartRef.from_name_version(
        _file_name_part("name", name, chart_name),
        _file_name_part("version", version, chart_name),
    )


def parse_repo_index(
    raw: bytes, source: str, fetched_at: datetime.datetime | None = None
) -> RepoIndex:
    """Parse a repository index document into one entry per version record.

    Scalars are read as written, so ``version: 1.10`` stays ``1.10``. A
    records list, record, maintainers list or urls list that a YAML alias
    repeats is an error: each repeat would be expanded again, so a small
    index could stand for millions of entries.
    """
    try:
        doc = load_literal(raw)
    except yaml.YAMLError as exc:
        raise IndexParseError(f"index is not valid YAML: {exc}") from exc
    if not isinstance(doc, Mapping) or not isinstance(doc.get("entries"), Mapping):
        raise IndexParseError("index lacks an 'entries' mapping")
    entries_doc = doc["entries"]
    if not entries_doc:
        raise EmptyIndex(f"index at {source} has no entries")

    entries = []
    seen: set[int] = set()  # ids of the lists and records read so far

    def first_sight(value: Any, what: str, chart_name: str) -> None:
        if id(value) in seen:
            raise IndexParseError(f"{chart_name!r} repeats a {what} read before (YAML alias)")
        seen.add(id(value))

    for chart_name, records in entries_doc.items():
        if not isinstance(records, list):
            raise IndexParseError(f"entries for {chart_name!r} are not a list")
        first_sight(records, "records list", chart_name)
        for record in records:
            if not isinstance(record, Mapping):
                raise IndexParseError(f"version record under {chart_name!r} is not a mapping")
            first_sight(record, "version record", chart_name)
            for field_name in ("maintainers", "urls"):
                if isinstance(record.get(field_name), list):
                    first_sight(record[field_name], f"{field_name} list", chart_name)
            name = str(record.get("name") or chart_name)
            version = record.get("version")
            if version is None:
                raise IndexParseError(f"version record under {chart_name!r} lacks a version")
            digest = record.get("digest")
            entries.append(IndexEntry(
                ref=_entry_ref(name, str(version), chart_name),
                maintainers=maintainers_from_field(record.get("maintainers")),
                urls=tuple(str(u) for u in record.get("urls") or []),
                digest=str(digest) if digest is not None else None,
            ))
    if not entries:
        raise EmptyIndex(f"index at {source} has no version records")

    fetched_at = fetched_at or datetime.datetime.now(datetime.timezone.utc)
    return RepoIndex(source=source, fetched_at=fetched_at, entries=tuple(entries), raw=bytes(raw))


def sha256_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fetch_archive(url_or_path: str, expected_digest: str | None = None) -> bytes:
    """Fetch raw archive bytes from an HTTP(S) URL or a filesystem path."""
    if url_or_path.startswith(("http://", "https://")):
        import requests  # only http(s) fetches need it; importing chartqa stays cheap

        try:
            resp = requests.get(url_or_path, timeout=60)
            resp.raise_for_status()
            data = resp.content
        except requests.RequestException as exc:
            raise FetchError(f"cannot fetch {url_or_path}: {exc}") from exc
    else:
        try:
            with open(url_or_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise FetchError(f"cannot read {url_or_path}: {exc}") from exc
    if expected_digest:
        expected = expected_digest.split(":", 1)[-1].lower()
        actual = sha256_digest(data)
        if actual != expected:
            raise ChecksumMismatch(
                f"{url_or_path}: digest {actual} does not match index digest {expected}"
            )
    return data


@dataclass(frozen=True)
class IngestFailure:
    location: str
    error: str


def package_from_dir(chart_dir: str) -> ChartPackage:
    """Load an unpacked chart directory into a ChartPackage."""
    files: dict[str, bytes] = {}
    for root, _dirs, names in os.walk(chart_dir):
        for name in names:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, chart_dir).replace(os.sep, "/")
            if rel == "Chart.yaml" or rel == "values.yaml" or rel == "requirements.yaml" \
                    or rel.startswith("templates/"):
                with open(full, "rb") as fh:
                    files[rel] = fh.read()
    return package_from_files(files)


def _looks_like_chart(entries: set[str]) -> bool:
    return "Chart.yaml" in entries or "values.yaml" in entries or "templates" in entries


def chart_locations(path: str) -> list[str]:
    """Where the charts under a directory tree are, relative to it, in walk order.

    A location is an unpacked chart directory (anything that carries a
    Chart.yaml, or looks chart-shaped but is missing one) or a ``.tgz``
    archive.
    """
    if not os.path.isdir(path):
        raise FetchError(f"not a directory: {path}")
    locations = []
    for root, dirs, names in os.walk(path, topdown=True):
        dirs.sort()
        entries = set(names) | set(dirs)
        # the root itself only counts when it is unambiguously a chart
        candidate = "Chart.yaml" in entries if root == path else _looks_like_chart(entries)
        if candidate:
            locations.append(os.path.relpath(root, path))
            # do not descend into templates/ of a discovered chart, but keep
            # walking charts/ so bundled subcharts are discovered too
            dirs[:] = [d for d in dirs if d not in ("templates",)]
        locations.extend(os.path.relpath(os.path.join(root, name), path)
                         for name in sorted(names) if name.endswith(".tgz"))
    return locations


def load_chart(path: str, location: str) -> ChartPackage | IngestFailure:
    """The chart at ``location`` under ``path``, or why it cannot be read.

    A directory is an unpacked chart, anything else an archive. A chart that
    is not readable as one (a ``ChartQAError``) gives an IngestFailure.
    """
    full = os.path.join(path, location)
    try:
        if os.path.isdir(full):
            return package_from_dir(full)
        with open(full, "rb") as fh:
            return parse_chart_archive(fh.read())
    except ChartQAError as exc:
        return IngestFailure(location, f"{type(exc).__name__}: {exc}")


def ingest_local_dir(path: str) -> tuple[list[ChartPackage], list[IngestFailure]]:
    """Discover and parse charts anywhere under a directory tree.

    Each of :func:`chart_locations` is read by :func:`load_chart`, in
    order. Nothing is fatal; per-chart failures are reported alongside the
    parsed packages.
    """
    packages: list[ChartPackage] = []
    failures: list[IngestFailure] = []
    for location in chart_locations(path):
        loaded = load_chart(path, location)
        (failures if isinstance(loaded, IngestFailure) else packages).append(loaded)
    return packages, failures


_CACHED_FIELDS = ("name", "version", "maintainers", "urls", "digest")
_CACHED_KEYS = frozenset(_CACHED_FIELDS)
# how parse_repo_index reads an index; bump it whenever that reading changes,
# so cached entries built the old way are parsed again. Unmarked entries read
# scalars as YAML 1.1 (``version: 1.10`` gave ``db-1.1.tgz``); 2 keeps them as written.
_INDEX_READER = 2
_OPTIONAL_STR = frozenset({str, type(None)})


def _cache_item(entry: IndexEntry) -> dict:
    """One index entry as the manifest keeps it; the inverse of ``_cached_entry``."""
    return {
        "name": entry.ref.name,
        "version": entry.ref.version,
        "maintainers": [[m.name, m.email] for m in entry.maintainers],
        "urls": list(entry.urls),
        "digest": entry.digest,
    }


def _cached_entry(item: Any) -> IndexEntry | None:
    """The entry a manifest item holds, or None when the item has the wrong shape."""
    if type(item) is not dict or item.keys() != _CACHED_KEYS:
        return None
    name, version, maintainers, urls, digest = (item[key] for key in _CACHED_FIELDS)
    if not (
        type(urls) is list and type(maintainers) is list
        and {type(text) for text in (name, version, *urls)} <= {str}
        and all(type(m) is list and len(m) == 2 for m in maintainers)
        and {type(text) for m in maintainers for text in m} | {type(digest)} <= _OPTIONAL_STR
    ):
        return None
    return IndexEntry(
        ref=_entry_ref(name, version, name),
        maintainers=tuple(Maintainer(name=m[0], email=m[1]) for m in maintainers),
        urls=tuple(urls),
        digest=digest,
    )


def _manifest_fields(manifest: Any, snapshot_id: str) -> tuple[str, datetime.datetime, dict, Any]:
    """The source, fetch time, archive digests and index entry cache (or None)
    of a manifest, with their shape checked."""
    def malformed(problem: str) -> StorageError:
        return StorageError(f"snapshot {snapshot_id}: manifest {problem}")

    if not isinstance(manifest, dict):
        raise malformed("is not a JSON object")
    source, fetched_at, digests = (manifest.get(k) for k in ("source", "fetched_at", "digests"))
    if not isinstance(source, str):
        raise malformed("lacks a string 'source'")
    try:
        fetched_at = datetime.datetime.fromisoformat(
            fetched_at if isinstance(fetched_at, str) else "")
    except ValueError:
        raise malformed("lacks an ISO 'fetched_at'") from None
    if not isinstance(digests, dict) or not all(isinstance(v, str) for v in digests.values()):
        raise malformed("'digests' is not an object of strings")
    cache = manifest.get("index")
    if cache is not None and not (isinstance(cache, dict) and isinstance(cache.get("sha256"), str)):
        raise malformed("'index' is not an object with a string 'sha256'")
    return source, fetched_at, digests, cache


class SnapshotStore:
    """Filesystem store holding at most one snapshot per UTC day."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def ids(self) -> list[str]:
        return sorted(
            d for d in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, d)) and not d.startswith(".")
        )

    def _paths(self, snapshot_id: str) -> tuple[str, str, str]:
        base = os.path.join(self.root, snapshot_id)
        return base, os.path.join(base, "archives"), os.path.join(base, "manifest.json")

    def record(self, index: RepoIndex, archives: Mapping[str, bytes]) -> str:
        """Persist a snapshot atomically; returns the snapshot id.

        Raises DuplicateSnapshot when this UTC day already has one; a failed
        write leaves no partial snapshot behind.
        """
        snapshot_id = index.fetched_at.astimezone(datetime.timezone.utc).date().isoformat()
        final, _, _ = self._paths(snapshot_id)
        if os.path.exists(final):
            raise DuplicateSnapshot(f"snapshot {snapshot_id} already recorded")
        staging = os.path.join(self.root, f".staging-{snapshot_id}")
        try:
            if os.path.exists(staging):
                shutil.rmtree(staging)
            archive_dir = os.path.join(staging, "archives")
            os.makedirs(archive_dir)
            with open(os.path.join(staging, "index.yaml"), "wb") as fh:
                fh.write(index.raw if index.raw is not None else b"")
            digests = {}
            for file_name, data in archives.items():
                with open(os.path.join(archive_dir, file_name), "wb") as fh:
                    fh.write(data)
                digests[file_name] = sha256_digest(data)
            manifest = {
                "id": snapshot_id,
                "source": index.source,
                "fetched_at": index.fetched_at.isoformat(),
                "digest_algorithm": "sha256",
                "digests": digests,
            }
            if index.raw is not None:
                # entries of a parsed index, so load can skip the YAML parse
                manifest["index"] = {
                    "sha256": sha256_digest(index.raw),
                    "reader": _INDEX_READER,
                    "entries": [_cache_item(entry) for entry in index.entries],
                }
            with open(os.path.join(staging, "manifest.json"), "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
            os.rename(staging, final)
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            raise StorageError(f"cannot persist snapshot {snapshot_id}: {exc}") from exc
        return snapshot_id

    def load(self, snapshot_id: str) -> Snapshot:
        """The recorded snapshot; its entries come from the manifest when its
        digest matches ``index.yaml`` and this reader built them, else from
        parsing ``index.yaml``."""
        base, _, manifest_path = self._paths(snapshot_id)
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            with open(os.path.join(base, "index.yaml"), "rb") as fh:
                raw_index = fh.read()
        except (OSError, ValueError) as exc:
            raise StorageError(f"cannot load snapshot {snapshot_id}: {exc}") from exc
        source, fetched_at, digests, cache = _manifest_fields(manifest, snapshot_id)
        if (cache is None or cache["sha256"] != sha256_digest(raw_index)
                or cache.get("reader") != _INDEX_READER):
            index = parse_repo_index(raw_index, source, fetched_at=fetched_at)
        else:
            items = cache.get("entries")
            entries = [_cached_entry(item) for item in items] if isinstance(items, list) else []
            if not entries or any(entry is None for entry in entries):
                raise StorageError(f"snapshot {snapshot_id}: manifest index entries are malformed")
            index = RepoIndex(source, fetched_at, tuple(entries), raw=raw_index)
        return Snapshot(id=snapshot_id, index=index, content_digests=dict(digests))


def index_entry(pkg: ChartPackage) -> IndexEntry:
    """The entry an index would list for a locally ingested package."""
    return IndexEntry(ref=pkg.ref, maintainers=pkg.metadata.maintainers)


def index_from_entries(entries: Iterable[IndexEntry], source: str) -> RepoIndex:
    """Synthesize an index (no raw document) listing ``entries`` by file name."""
    return RepoIndex(
        source=source,
        fetched_at=datetime.datetime.now(datetime.timezone.utc),
        entries=tuple(sorted(entries, key=lambda entry: entry.ref.file_name)),
    )


def index_from_packages(packages: list[ChartPackage], source: str) -> RepoIndex:
    """Synthesize an index from locally ingested packages (no raw document)."""
    return index_from_entries(map(index_entry, packages), source)
