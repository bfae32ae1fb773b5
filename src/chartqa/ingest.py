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
import json
import os
import shutil
from typing import Any, Iterable, Mapping, NamedTuple

from .core import (
    MAX_ARCHIVE_BYTES, ChartPackage, ChartRef, Maintainer, maintainers_from_field,
    package_from_files, parse_chart_archive, unusable_file_name_part,
)
from .errors import (
    ChecksumMismatch,
    DuplicateSnapshot,
    EmptyIndex,
    FetchError,
    IndexParseError,
    StorageError,
)
from .files import MAX_ARCHIVE_FILE_BYTES, MAX_FILE_BYTES, read_file, read_json, read_url


class IndexEntry(NamedTuple):
    """One version record of the repository index."""

    ref: ChartRef
    maintainers: tuple[Maintainer, ...] = ()
    urls: tuple[str, ...] = ()
    digest: str | None = None


class RepoIndex(NamedTuple):
    """The entries of a repository index, and the document they were read
    from (None for a synthesized index)."""

    source: str
    fetched_at: datetime.datetime
    entries: tuple[IndexEntry, ...]
    raw: bytes | None = None

    def __repr__(self) -> str:  # the raw document would swamp the entries
        return (f"RepoIndex(source={self.source!r}, fetched_at={self.fetched_at!r}, "
                f"entries={self.entries!r})")


class Snapshot(NamedTuple):
    """A timestamped repository state; append-only once recorded.

    Loading reads the index and the content digests only; the archives stay
    in the store for ``parse_chart_archive`` to read when a caller needs one.
    """

    id: str
    index: RepoIndex
    content_digests: Mapping[str, str]


def _entry_ref(name: str, version: str, chart_name: str) -> ChartRef:
    """The chart file of one version record; an unusable name or version is an IndexParseError."""
    unusable = unusable_file_name_part(name, version)
    if unusable:
        raise IndexParseError(f"version record under {chart_name!r} has unusable {unusable}")
    return ChartRef.from_name_version(name, version)


def parse_repo_index(
    raw: bytes, source: str, fetched_at: datetime.datetime | None = None
) -> RepoIndex:
    """Parse a repository index document into one entry per version record.

    Scalars are read as written, so ``version: 1.10`` stays ``1.10``. A
    records list, record, maintainers list or urls list that a YAML alias
    repeats is an error: each repeat would be expanded again, so a small
    index could stand for millions of entries. So is a mapping or list
    where a name, version, digest, url or maintainer's name or email
    belongs: its text would expand every alias inside it.
    """
    import yaml

    from .yamlutil import load_literal

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

    def scalars(values: Iterable, what: str, chart_name: str) -> None:
        if any(isinstance(value, (Mapping, list)) for value in values):
            raise IndexParseError(f"version record under {chart_name!r} has a non-scalar {what}")

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
            if not isinstance(record.get("urls", []), (list, type(None))):
                raise IndexParseError(f"version record under {chart_name!r} has a urls field "
                                      "that is not a list")
            for field_name in ("name", "version", "digest"):
                scalars([record.get(field_name)], field_name, chart_name)
            scalars(record.get("urls") or [], "url", chart_name)
            if isinstance(record.get("maintainers"), list):
                for maintainer in record["maintainers"]:
                    if isinstance(maintainer, Mapping):
                        scalars([maintainer.get("name")], "maintainer name", chart_name)
                        scalars([maintainer.get("email")], "maintainer email", chart_name)
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
    import hashlib  # only snapshots and their loads hash; --path commands never do

    return hashlib.sha256(data).hexdigest()


def fetch_archive(url_or_path: str, expected_digest: str | None = None) -> bytes:
    """Fetch raw archive bytes from an HTTP(S) URL or a filesystem path, by
    ``read_url`` or ``read_file`` within MAX_ARCHIVE_FILE_BYTES."""
    if url_or_path.startswith(("http://", "https://")):
        data = read_url(url_or_path, MAX_ARCHIVE_FILE_BYTES, FetchError)
    else:
        try:
            data = read_file(url_or_path, MAX_ARCHIVE_FILE_BYTES, FetchError)
        except (OSError, ValueError) as exc:
            raise FetchError(f"cannot read {url_or_path}: {exc}") from exc
    if expected_digest:
        expected = expected_digest.split(":", 1)[-1].lower()
        actual = sha256_digest(data)
        if actual != expected:
            raise ChecksumMismatch(
                f"{url_or_path}: digest {actual} does not match index digest {expected}"
            )
    return data


def package_from_dir(chart_dir: str) -> ChartPackage:
    """Load an unpacked chart directory into a ChartPackage by an archive's
    bounds: each chart file is read by ``read_file`` within MAX_FILE_BYTES,
    and a FetchError names a chart over MAX_ARCHIVE_BYTES."""
    files: dict[str, bytes] = {}
    total = 0
    for root, _dirs, names in os.walk(chart_dir):
        for name in names:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, chart_dir).replace(os.sep, "/")
            if rel in ("Chart.yaml", "values.yaml", "requirements.yaml") \
                    or rel.startswith("templates/"):
                data = files[rel] = read_file(full, MAX_FILE_BYTES, FetchError, rel)
                total += len(data)
                if total > MAX_ARCHIVE_BYTES:
                    raise FetchError(f"chart files hold over {MAX_ARCHIVE_BYTES} bytes")
    return package_from_files(files)


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
        candidate = "Chart.yaml" in entries if root == path \
            else not entries.isdisjoint(("Chart.yaml", "values.yaml", "templates"))
        if candidate:
            locations.append(os.path.relpath(root, path))
            # do not descend into templates/ of a discovered chart, but keep
            # walking charts/ so bundled subcharts are discovered too
            dirs[:] = [d for d in dirs if d not in ("templates",)]
        locations.extend(os.path.relpath(os.path.join(root, name), path)
                         for name in sorted(names) if name.endswith(".tgz"))
    return locations


def load_chart(path: str, location: str) -> ChartPackage:
    """The chart at ``location`` under ``path``, a directory or else an archive
    read by ``read_file`` within MAX_ARCHIVE_FILE_BYTES; raises a
    ``ChartQAError`` or an ``OSError`` where it cannot be read."""
    full = os.path.join(path, location)
    if os.path.isdir(full):
        return package_from_dir(full)
    return parse_chart_archive(read_file(full, MAX_ARCHIVE_FILE_BYTES, FetchError, location))


_CACHED_FIELDS = ("name", "version", "maintainers", "urls", "digest")
_CACHED_KEYS = frozenset(_CACHED_FIELDS)
# how parse_repo_index reads an index; bump it whenever that reading changes,
# so cached entries built the old way are parsed again. Unmarked entries read
# scalars as YAML 1.1 (``version: 1.10`` gave ``db-1.1.tgz``); 2 keeps them as
# written; 3 reads by the rules of the chart files' walk (a duplicate or merge
# key is an error, every key a str).
_INDEX_READER = 3
_OPTIONAL_STR = frozenset({str, type(None)})


def _cache_item(entry: IndexEntry) -> dict:
    """One index entry as the manifest keeps it; the inverse of ``SnapshotStore._entry``."""
    return {
        "name": entry.ref.name,
        "version": entry.ref.version,
        "maintainers": [[m.name, m.email] for m in entry.maintainers],
        "urls": list(entry.urls),
        "digest": entry.digest,
    }


def _cached_fields(item: Any) -> tuple | None:
    """The fields of a manifest item, hashable, or None when the item has the wrong shape."""
    if type(item) is not dict or item.keys() != _CACHED_KEYS:
        return None
    name, version, maintainers, urls, digest = (item[key] for key in _CACHED_FIELDS)
    if (type(name) is not str or type(version) is not str or type(urls) is not list
            or type(maintainers) is not list or type(digest) not in _OPTIONAL_STR
            or any(type(url) is not str for url in urls)
            or any(type(m) is not list or len(m) != 2 or type(m[0]) not in _OPTIONAL_STR
                   or type(m[1]) not in _OPTIONAL_STR for m in maintainers)):
        return None
    return name, version, tuple(map(tuple, maintainers)), tuple(urls), digest


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
        # cached index entry by its manifest item's fields: consecutive days
        # of a store list mostly the same entries, so each is built once
        self._entries: dict[tuple, IndexEntry] = {}

    def ids(self) -> list[str]:
        return sorted(
            d for d in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, d)) and not d.startswith(".")
        )

    def record(self, index: RepoIndex, archives: Mapping[str, bytes]) -> str:
        """Persist a snapshot atomically; returns the snapshot id.

        Raises DuplicateSnapshot when this UTC day already has one, and
        StorageError for an index without its document (a synthesized one),
        which no snapshot could be loaded from; a failed write leaves no
        partial snapshot behind.
        """
        snapshot_id = index.fetched_at.astimezone(datetime.timezone.utc).date().isoformat()
        if index.raw is None:
            raise StorageError(f"cannot persist snapshot {snapshot_id}: "
                               f"index {index.source} has no document to store")
        final = os.path.join(self.root, snapshot_id)
        if os.path.exists(final):
            raise DuplicateSnapshot(f"snapshot {snapshot_id} already recorded")
        staging = os.path.join(self.root, f".staging-{snapshot_id}")
        try:
            if os.path.exists(staging):
                shutil.rmtree(staging)
            archive_dir = os.path.join(staging, "archives")
            os.makedirs(archive_dir)
            with open(os.path.join(staging, "index.yaml"), "wb") as fh:
                fh.write(index.raw)
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
                # entries of the parsed index, so load can skip the YAML parse
                "index": {
                    "sha256": sha256_digest(index.raw),
                    "reader": _INDEX_READER,
                    "entries": [_cache_item(entry) for entry in index.entries],
                },
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
        base = os.path.join(self.root, snapshot_id)
        try:
            manifest = read_json(os.path.join(base, "manifest.json"), MAX_ARCHIVE_FILE_BYTES,
                                 StorageError)
            raw_index = read_file(os.path.join(base, "index.yaml"), MAX_ARCHIVE_FILE_BYTES,
                                  StorageError)
        except (OSError, ValueError, StorageError) as exc:
            raise StorageError(f"cannot load snapshot {snapshot_id}: {exc}") from exc
        source, fetched_at, digests, cache = _manifest_fields(manifest, snapshot_id)
        if (cache is None or cache["sha256"] != sha256_digest(raw_index)
                or cache.get("reader") != _INDEX_READER):
            index = parse_repo_index(raw_index, source, fetched_at=fetched_at)
        else:
            items = cache.get("entries")
            entries = [self._entry(fields) for fields in map(_cached_fields, items)
                       if fields is not None] if isinstance(items, list) else []
            if not entries or len(entries) != len(items):
                raise StorageError(f"snapshot {snapshot_id}: manifest index entries are malformed")
            index = RepoIndex(source, fetched_at, tuple(entries), raw=raw_index)
        return Snapshot(id=snapshot_id, index=index, content_digests=dict(digests))

    def _entry(self, fields: tuple) -> IndexEntry:
        """The entry of a manifest item's ``_cached_fields``, built once per store;
        the inverse of ``_cache_item``."""
        entry = self._entries.get(fields)
        if entry is None:
            name, version, maintainers, urls, digest = fields
            entry = self._entries[fields] = IndexEntry(
                ref=_entry_ref(name, version, name),
                maintainers=tuple(Maintainer(*pair) for pair in maintainers),
                urls=urls,
                digest=digest,
            )
        return entry


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
