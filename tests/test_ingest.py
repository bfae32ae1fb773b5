"""repo-ingest: index parsing, fetching, local discovery, snapshots."""

import datetime
import gc
import http.server
import json
import os
import re
import socket
import string
import tempfile
import threading
import time
import warnings

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chartqa.core import package_from_files
from chartqa import files, ingest
from chartqa.errors import (
    ChecksumMismatch,
    DuplicateSnapshot,
    EmptyIndex,
    FetchError,
    IndexParseError,
    MalformedArchive,
    MetadataParseError,
    MissingMetadata,
    StorageError,
)
from chartqa.ingest import (
    SnapshotStore,
    chart_locations,
    fetch_archive,
    index_entry,
    index_from_entries,
    load_chart,
    parse_repo_index,
    sha256_digest,
)

from test_yamlutil import alias_bomb, deadline

from conftest import (
    chart_files,
    count_calls,
    make_archive,
    make_index_yaml,
    write_chart_dir,
    write_pre_reader_snapshot,
)

UTC = datetime.timezone.utc


def test_parse_repo_index_multi_version():
    raw = make_index_yaml({"redis": [
        {"name": "redis", "version": "1.0.0", "urls": ["redis-1.0.0.tgz"]},
        {"name": "redis", "version": "1.1.0", "urls": ["redis-1.1.0.tgz"]},
    ]})
    index = parse_repo_index(raw, "memory:")
    assert len(index.entries) == 2
    assert {entry.ref.stem for entry in index.entries} == {"redis"}


def test_parse_repo_index_reference_shape():
    # 153 apps with 177 version records in total: 24 extra spread over 5 stems
    entries = {f"app{i}": [{"version": "1.0.0"}] for i in range(153)}
    extras = {"app0": 20, "app1": 1, "app2": 1, "app3": 1, "app4": 1}
    for name, count in extras.items():
        entries[name] += [{"version": f"1.0.{k + 1}"} for k in range(count)]
    index = parse_repo_index(make_index_yaml(entries), "memory:")
    assert len(index.entries) == 177
    assert len({entry.ref.stem for entry in index.entries}) == 153


def test_parse_repo_index_entry_count_matches_raw_document():
    entries = {"a": [{"version": "1"}, {"version": "2"}], "b": [{"version": "3"}]}
    raw = make_index_yaml(entries)
    index = parse_repo_index(raw, "memory:")
    raw_records = sum(len(v) for v in yaml.safe_load(raw)["entries"].values())
    assert len(index.entries) == raw_records


def test_parse_repo_index_missing_maintainers_is_not_an_error():
    raw = make_index_yaml({"redis": [{"version": "1.0.0"}]})
    index = parse_repo_index(raw, "memory:")
    assert index.entries[0].maintainers == ()


@pytest.mark.parametrize("field", [
    [{"name": "alice", "email": "a@x.io"}, {"email": "b@x.io"}, {"name": 7}],
    ["alice", "bob"],
    "bob",
    5,
    {"name": "alice", "email": "a@x.io"},
    None,
], ids=["mappings", "strings", "string", "int", "mapping", "null"])
def test_chart_yaml_and_index_agree_on_maintainers(field):
    files = chart_files(name="redis")
    files["Chart.yaml"] += yaml.safe_dump({"maintainers": field})
    from_chart = package_from_files(files).metadata.maintainers
    raw = make_index_yaml({"redis": [{"version": "1.0.0", "maintainers": field}]})
    assert parse_repo_index(raw, "memory:").entries[0].maintainers == from_chart


def test_parse_repo_index_errors():
    with pytest.raises(IndexParseError):
        parse_repo_index(b"entries: [not: a mapping", "memory:")
    with pytest.raises(IndexParseError):
        parse_repo_index(b"no_entries_here: 1\n", "memory:")
    with pytest.raises(EmptyIndex):
        parse_repo_index(b"apiVersion: v1\nentries: {}\n", "memory:")


@pytest.mark.parametrize("name, version", [
    ("../../escaped", "1.0.0"), ("..", "1.0.0"), (".", "1.0.0"), ("a/b", "1.0.0"),
    ("a\\b", "1.0.0"), ("a\0b", "1.0.0"), ("web", "../1"), ("web", ".."),
    ("web", "1/0"), ("web", ""),
])
def test_parse_repo_index_rejects_unusable_file_name_parts(name, version):
    raw = make_index_yaml({"web": [{"name": name, "version": version}]})
    with pytest.raises(IndexParseError):
        parse_repo_index(raw, "memory:")


@pytest.mark.parametrize("urls", ["x.tgz", "5"])
def test_parse_repo_index_rejects_urls_that_are_not_a_list(urls):
    # a string would be read one character at a time, each a url
    raw = f"entries:\n  db:\n    - version: 1.0.0\n      urls: {urls}\n".encode()
    with pytest.raises(IndexParseError, match="'db' has a urls field that is not a list"):
        parse_repo_index(raw, "memory:")


def test_parse_repo_index_reads_scalars_as_written():
    raw = (b"entries:\n  db:\n    - version: 1.10\n    - version: 1.1\n    - version: 01\n"
           b"    - version: true\n    - version: 2018-05-14\n  2.0:\n    - version: 3\n"
           b"  web:\n    - version: 1.0.0\n      maintainers: [{name: 7}, yes]\n")
    index = parse_repo_index(raw, "memory:")
    assert [entry.ref.file_name for entry in index.entries] == [
        "db-1.10.tgz", "db-1.1.tgz", "db-01.tgz", "db-true.tgz", "db-2018-05-14.tgz",
        "2.0-3.tgz", "web-1.0.0.tgz",
    ]
    assert [m.name for m in index.entries[-1].maintainers] == ["7", "yes"]


@pytest.mark.parametrize("version", ["~", "null", ""])
def test_parse_repo_index_null_version_is_absent(version):
    raw = f"entries:\n  db:\n    - version: {version}\n".encode()
    with pytest.raises(IndexParseError, match="lacks a version"):
        parse_repo_index(raw, "memory:")


def _aliased_records(charts: int, records: int) -> bytes:
    """``a0`` holds ``records`` version records; ``a1`` .. are aliases of that list."""
    lines = ["entries:", "  a0: &r"]
    lines += [f"    - version: 1.0.{i}" for i in range(records)]
    lines += [f"  a{i}: *r" for i in range(1, charts)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("raw, what", [
    (_aliased_records(300, 300), "records list"),
    (b"entries:\n  db:\n    - &r {version: 1.0.0}\n    - *r\n", "version record"),
    (b"entries:\n  db:\n    - {version: 1.0.0, maintainers: &m [alice]}\n"
     b"    - {version: 1.0.1, maintainers: *m}\n", "maintainers list"),
    (b"entries:\n  db:\n    - {version: 1.0.0, urls: &u [a.tgz]}\n"
     b"    - {version: 1.0.1, urls: *u}\n", "urls list"),
], ids=["records-300x300", "record", "maintainers", "urls"])
def test_parse_repo_index_rejects_aliased_repeats(raw, what):
    with pytest.raises(IndexParseError, match=f"repeats a {what} read before"):
        parse_repo_index(raw, "memory:")


# each record field the index reader turns into text, as an index line holding ``{bomb}``
BOMB_FIELDS = {
    "name": "name: {bomb}",
    "version": "version: {bomb}",
    "digest": "digest: {bomb}",
    "url": "urls: [{bomb}]",
    "maintainer name": "maintainers: [{{name: {bomb}}}]",
    "maintainer email": "maintainers: [{{name: alice, email: {bomb}}}]",
}


def _bombed_index(field: str, levels: int) -> bytes:
    """An index whose one record holds ``alias_bomb(levels)``'s last line at ``field``."""
    lines = ["bombs:", *("  " + line for line in alias_bomb(levels).splitlines()),
             "entries:", "  c:", "  - " + BOMB_FIELDS[field].format(bomb=f"*l{levels - 1}")]
    lines += [f"    {line}" for line in ("name: c", "version: 1.0.0") if field not in line]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("field", BOMB_FIELDS)
def test_parse_repo_index_rejects_an_alias_bomb_in_a_text_field(field):
    raw = _bombed_index(field, 9)
    assert len(raw) < 1000
    with deadline(1.0), pytest.raises(IndexParseError, match=f"'c' has a non-scalar {field}$"):
        parse_repo_index(raw, "memory:")


@pytest.mark.parametrize("raw, problem", [
    (b"entries:\n  db:\n    - version: 1.0.0\n  db:\n    - version: 2.0.0\n",
     "not valid YAML: duplicate mapping key 'db'"),
    (b"base: &b {name: db}\nentries:\n  db:\n    - <<: *b\n      version: 1.0.0\n",
     "not valid YAML: could not determine a constructor for the tag 'tag:yaml.org,2002:merge'"),
    (b"entries:\n  db:\n    - version: 1.0.0\n      =: x\n",
     "not valid YAML: could not determine a constructor for the tag 'tag:yaml.org,2002:value'"),
    (b"entries: &e\n  db: [*e]\n", "not valid YAML: recursive alias"),
    (b"entries:\n  ~: 5\n", "entries for 'None' are not a list"),
    (b"entries: !!set {db}\n", "entries for 'db' are not a list"),
], ids=["duplicate-key", "merge-key", "value-key", "recursive-alias", "null-key", "set-tag"])
def test_parse_repo_index_reads_by_the_rules_of_the_chart_files(raw, problem):
    with pytest.raises(IndexParseError, match=re.escape(problem)):
        parse_repo_index(raw, "memory:")


def test_parse_repo_index_reads_equal_lists_written_twice():
    raw = (b"entries:\n  db:\n    - {version: 1.0.0, maintainers: [alice], urls: []}\n"
           b"    - {version: 1.0.1, maintainers: [alice], urls: []}\n")
    assert len(parse_repo_index(raw, "memory:").entries) == 2


def test_snapshot_cli_keeps_hostile_index_inside_the_store(tmp_path):
    from chartqa.cli import cli_dispatch

    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "web.tgz").write_bytes(make_archive(chart_files(), "web"))
    (repo / "index.yaml").write_bytes(make_index_yaml(
        {"web": [{"name": "../../escaped", "version": "1.0.0", "urls": ["web.tgz"]}]}
    ))
    assert cli_dispatch(["snapshot", "--index", str(repo / "index.yaml"),
                         "--snapshot-store", str(tmp_path / "store")]) == 2
    assert list(tmp_path.rglob("escaped*")) == []


ARCHIVE_BODY = b"archive bytes"


class _Handler(http.server.BaseHTTPRequestHandler):
    """Loopback routes: a body, a 404, redirects, and a body or a whole response
    sent a byte at a time."""

    redirects = {"/moved": "/web-1.0.0.tgz", "/to-ftp": "ftp://127.0.0.1:1/web-1.0.0.tgz",
                 "/to-file": "file:///etc/hostname"}

    def do_GET(self):
        if self.path in self.redirects:
            self.send_response(302)
            self.send_header("Location", self.redirects[self.path])
            self.end_headers()
        elif self.path == "/slow-headers":
            try:
                for byte in (b"HTTP/1.0 200 OK\r\nContent-Type: application/gzip\r\n"
                             b"Content-Length: 13\r\n\r\n" + ARCHIVE_BODY):
                    self.wfile.write(bytes([byte]))
                    self.wfile.flush()
                    time.sleep(0.1)
            except OSError:  # the client gave up
                pass
        elif self.path in ("/web-1.0.0.tgz", "/trickle"):
            self.send_response(200)
            self.send_header("Content-Length", str(len(ARCHIVE_BODY)))
            self.end_headers()
            try:
                for byte in ARCHIVE_BODY:
                    self.wfile.write(bytes([byte]))
                    self.wfile.flush()
                    if self.path == "/trickle":
                        time.sleep(0.1)
            except OSError:  # the client gave up
                pass
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_base(monkeypatch):
    """The base URL of a loopback server of ``_Handler``'s routes, reached without a proxy."""
    for variable in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(variable, raising=False)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_fetch_archive_http_returns_response_content(http_base):
    assert fetch_archive(f"{http_base}/web-1.0.0.tgz") == ARCHIVE_BODY
    assert fetch_archive(f"{http_base}/moved") == ARCHIVE_BODY
    assert fetch_archive(f"{http_base}/web-1.0.0.tgz",
                         expected_digest=sha256_digest(ARCHIVE_BODY)) == ARCHIVE_BODY


def test_fetch_archive_http_connection_error_is_fetch_error():
    with socket.socket() as probe:  # a port nothing listens on once it is closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(FetchError, match="^cannot fetch .*Connection refused"):
        fetch_archive(f"http://127.0.0.1:{port}/index.yaml")


def test_fetch_archive_http_error_status_is_fetch_error(http_base):
    with pytest.raises(FetchError, match=f"^cannot fetch {http_base}/absent.tgz: HTTP Error 404"):
        fetch_archive(f"{http_base}/absent.tgz")


@pytest.mark.parametrize("route", ["/to-ftp", "/to-file"])
def test_fetch_archive_http_follows_redirects_only_to_http(http_base, route):
    with pytest.raises(FetchError, match=f"^cannot fetch {http_base}{route}: HTTP Error 302"):
        fetch_archive(f"{http_base}{route}")


def test_fetch_archive_http_body_over_the_bound_is_fetch_error(http_base, monkeypatch):
    url = f"{http_base}/web-1.0.0.tgz"
    monkeypatch.setattr(ingest, "MAX_ARCHIVE_FILE_BYTES", len(ARCHIVE_BODY))
    assert fetch_archive(url) == ARCHIVE_BODY
    monkeypatch.setattr(ingest, "MAX_ARCHIVE_FILE_BYTES", len(ARCHIVE_BODY) - 1)
    with pytest.raises(FetchError, match=f"^{url} holds over {len(ARCHIVE_BODY) - 1} bytes$"):
        fetch_archive(url)


def test_fetch_archive_http_body_past_the_deadline_is_fetch_error(http_base, monkeypatch):
    monkeypatch.setattr(files, "URL_DEADLINE_S", 0.3)
    started = time.monotonic()
    with pytest.raises(FetchError, match=f"^cannot fetch {http_base}/trickle within 0.3 s$"):
        fetch_archive(f"{http_base}/trickle")
    assert time.monotonic() - started < 1  # the whole body would take 1.3 s


def test_fetch_archive_http_headers_past_the_deadline_is_fetch_error(http_base, monkeypatch):
    monkeypatch.setattr(files, "URL_DEADLINE_S", 0.3)
    started = time.monotonic()
    with pytest.raises(FetchError,
                       match=f"^cannot fetch {http_base}/slow-headers within 0.3 s$"):
        fetch_archive(f"{http_base}/slow-headers")
    assert time.monotonic() - started < 1.5  # the status line and headers alone take 7 s


def test_fetch_archive_filesystem_and_digest(tmp_path):
    data = make_archive(chart_files(), "web")
    target = tmp_path / "web-1.0.0.tgz"
    target.write_bytes(data)
    assert fetch_archive(str(target)) == data
    assert fetch_archive(str(target), expected_digest=sha256_digest(data)) == data
    with pytest.raises(ChecksumMismatch):
        fetch_archive(str(target), expected_digest="0" * 64)
    with pytest.raises(FetchError):
        fetch_archive(str(tmp_path / "absent.tgz"))


# a --path tree is read as the CLI reads it: each of chart_locations by load_chart

def test_ingest_local_dir_unpacked_charts(tmp_path):
    for name in ("alpha", "beta", "gamma"):
        write_chart_dir(tmp_path, name, chart_files(name=name))
    root = str(tmp_path)
    assert chart_locations(root) == ["alpha", "beta", "gamma"]
    loaded = [load_chart(root, location) for location in chart_locations(root)]
    assert [pkg.metadata.name for pkg in loaded] == ["alpha", "beta", "gamma"]


def test_ingest_local_dir_reports_failures(tmp_path):
    write_chart_dir(tmp_path, "good", chart_files(name="good"))
    bad = chart_files(name="bad")
    del bad["Chart.yaml"]
    bad["values.yaml"] = "a: 1\n"
    write_chart_dir(tmp_path, "bad", bad)
    root = str(tmp_path)
    assert chart_locations(root) == ["bad", "good"]
    assert load_chart(root, "good").metadata.name == "good"
    with pytest.raises(MissingMetadata):
        load_chart(root, "bad")


@pytest.mark.parametrize("packed", [False, True], ids=["directory", "archive"])
def test_ingest_local_dir_skips_chart_file_that_is_not_utf8(tmp_path, packed):
    write_chart_dir(tmp_path, "good", chart_files(name="good"))
    bad = {**chart_files(name="bad"), "templates/cafe.yaml": b"name: caf\xe9\n"}
    if packed:
        (tmp_path / "bad-1.0.0.tgz").write_bytes(make_archive(bad, "bad"))
    else:
        write_chart_dir(tmp_path, "bad", {k: v for k, v in bad.items() if isinstance(v, str)})
        (tmp_path / "bad" / "templates").mkdir(exist_ok=True)
        (tmp_path / "bad" / "templates" / "cafe.yaml").write_bytes(bad["templates/cafe.yaml"])
    root = str(tmp_path)
    bad_location = "bad-1.0.0.tgz" if packed else "bad"
    assert chart_locations(root) == [bad_location, "good"]
    assert load_chart(root, "good").metadata.name == "good"
    with pytest.raises(MetadataParseError, match="^templates/cafe.yaml is not UTF-8"):
        load_chart(root, bad_location)


def test_a_directory_chart_is_read_within_the_archive_bounds(tmp_path, monkeypatch):
    files = chart_files(name="web", values={"a": "x" * 200})
    chart_dir = write_chart_dir(tmp_path, "web", files)
    values_bytes = len(files["values.yaml"])
    monkeypatch.setattr(ingest, "MAX_FILE_BYTES", values_bytes)
    assert ingest.package_from_dir(chart_dir).values == {"a": "x" * 200}
    monkeypatch.setattr(ingest, "MAX_FILE_BYTES", values_bytes - 1)
    with pytest.raises(FetchError, match=f"^values.yaml holds over {values_bytes - 1} bytes$"):
        ingest.package_from_dir(chart_dir)
    monkeypatch.setattr(ingest, "MAX_FILE_BYTES", values_bytes)
    total = sum(map(len, files.values()))
    monkeypatch.setattr(ingest, "MAX_ARCHIVE_BYTES", total)
    assert ingest.package_from_dir(chart_dir).metadata.name == "web"
    monkeypatch.setattr(ingest, "MAX_ARCHIVE_BYTES", total - 1)
    with pytest.raises(FetchError, match=f"^chart files hold over {total - 1} bytes$"):
        ingest.package_from_dir(chart_dir)


def test_ingest_local_dir_nested_depth(tmp_path):
    # oracle: a filesystem walk counting Chart.yaml files
    locations = [
        "alpha", "deep/beta", "deep/deeper/gamma", "deep/deeper/delta",
        "other/eps", "other/zeta", "other/eta", "theta", "iota", "x/y/z/kappa",
    ]
    for i, rel in enumerate(locations):
        write_chart_dir(tmp_path, rel, chart_files(name=f"c{i}"))
    chart_yaml_count = sum(
        1 for _root, _dirs, names in os.walk(tmp_path) for n in names if n == "Chart.yaml"
    )
    root = str(tmp_path)
    found = chart_locations(root)
    assert chart_yaml_count == len(locations) == len(found)
    assert sorted(found) == sorted(locations)
    assert [load_chart(root, location).metadata.name for location in found] == \
        [f"c{locations.index(location)}" for location in found]


def test_ingest_local_dir_archives_too(tmp_path):
    (tmp_path / "redis-1.0.0.tgz").write_bytes(
        make_archive(chart_files(name="redis"), "redis")
    )
    (tmp_path / "junk.tgz").write_bytes(b"not really a tarball")
    root = str(tmp_path)
    assert chart_locations(root) == ["junk.tgz", "redis-1.0.0.tgz"]
    assert load_chart(root, "redis-1.0.0.tgz").metadata.name == "redis"
    with pytest.raises(MalformedArchive):
        load_chart(root, "junk.tgz")


def test_ingest_local_dir_reports_truncated_archive(tmp_path):
    archive = make_archive(chart_files(name="redis", templates={"x.yaml": "a: 1\n" * 2000}))
    (tmp_path / "redis-1.0.0.tgz").write_bytes(archive[:len(archive) // 2])
    (tmp_path / "web-1.0.0.tgz").write_bytes(make_archive(chart_files()))
    root = str(tmp_path)
    assert chart_locations(root) == ["redis-1.0.0.tgz", "web-1.0.0.tgz"]
    assert load_chart(root, "web-1.0.0.tgz").metadata.name == "web"
    with pytest.raises(MalformedArchive):
        load_chart(root, "redis-1.0.0.tgz")


def test_ingest_local_dir_closes_archive_files(tmp_path):
    (tmp_path / "redis-1.0.0.tgz").write_bytes(
        make_archive(chart_files(name="redis"), "redis")
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        pkg = load_chart(str(tmp_path), "redis-1.0.0.tgz")
        gc.collect()
    assert pkg.metadata.name == "redis"
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _index_with_archive(tmp_path, version="1.0.0"):
    archive = make_archive(chart_files(name="web", version=version), "web")
    raw = make_index_yaml({"web": [{
        "version": version,
        "urls": [f"web-{version}.tgz"],
        "digest": sha256_digest(archive),
    }]})
    fetched = datetime.datetime(2018, 5, 15, 3, 0, tzinfo=UTC)
    index = parse_repo_index(raw, "memory:", fetched_at=fetched)
    return index, {f"web-{version}.tgz": archive}


def test_snapshot_record_load_roundtrip(tmp_path):
    index, archives = _index_with_archive(tmp_path)
    store = SnapshotStore(str(tmp_path / "store"))
    snapshot_id = store.record(index, archives)
    assert snapshot_id == "2018-05-15"
    snapshot = store.load(snapshot_id)
    assert snapshot.id == snapshot_id
    assert snapshot.content_digests["web-1.0.0.tgz"] == sha256_digest(
        archives["web-1.0.0.tgz"]
    )
    assert len(snapshot.index.entries) == 1


def test_snapshot_of_an_index_without_its_document_is_refused(tmp_path):
    # as --path synthesizes one: no index.yaml to store, so none to load
    pkg = package_from_files({"Chart.yaml": "name: web\nversion: 1.0.0\n"})
    index = index_from_entries([index_entry(pkg)], "charts/")
    store = SnapshotStore(str(tmp_path / "store"))
    with pytest.raises(StorageError, match="has no document to store"):
        store.record(index, {"web-1.0.0.tgz": b"archive"})
    assert os.listdir(tmp_path / "store") == []
    # the day can still be recorded from a parsed index
    parsed = parse_repo_index(b"entries:\n  web:\n    - version: 1.0.0\n", "memory:",
                              fetched_at=index.fetched_at)
    assert store.load(store.record(parsed, {})).index.entries == index.entries


def test_snapshot_duplicate_same_day_rejected(tmp_path):
    index, archives = _index_with_archive(tmp_path)
    store = SnapshotStore(str(tmp_path / "store"))
    store.record(index, archives)
    with pytest.raises(DuplicateSnapshot):
        store.record(index, archives)


def test_snapshots_append_only(tmp_path):
    index, archives = _index_with_archive(tmp_path)
    store = SnapshotStore(str(tmp_path / "store"))
    first_id = store.record(index, archives)
    before = store.load(first_id).content_digests

    index2, archives2 = _index_with_archive(tmp_path, version="1.1.0")
    index2 = parse_repo_index(
        index2.raw, "memory:",
        fetched_at=datetime.datetime(2018, 5, 16, 3, 0, tzinfo=UTC),
    )
    store.record(index2, archives2)
    assert store.ids() == ["2018-05-15", "2018-05-16"]
    assert store.load(first_id).content_digests == before


def _recorded(tmp_path, entries):
    """A store holding one snapshot of ``entries``, and the snapshot's directory."""
    index = parse_repo_index(make_index_yaml(entries), "memory:",
                             fetched_at=datetime.datetime(2018, 5, 15, tzinfo=UTC))
    store = SnapshotStore(str(tmp_path / "store"))
    return store, tmp_path / "store" / store.record(index, {})


def _edit_cached_entries(snapshot_dir, edit):
    path = snapshot_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["index"]["entries"])
    path.write_text(json.dumps(manifest))


WEB = {"web": [{"version": "1.0.0", "maintainers": [{"name": "alice"}]}]}


def test_load_builds_entries_from_the_manifest_without_parsing(tmp_path, monkeypatch):
    store, snapshot_dir = _recorded(tmp_path, WEB)
    manifest = json.loads((snapshot_dir / "manifest.json").read_text())
    assert manifest["index"]["sha256"] == sha256_digest((snapshot_dir / "index.yaml").read_bytes())
    calls = count_calls(monkeypatch, "parse_repo_index", ingest)
    index = store.load("2018-05-15").index
    assert calls == []
    assert [entry.ref.file_name for entry in index.entries] == ["web-1.0.0.tgz"]
    assert index.raw == (snapshot_dir / "index.yaml").read_bytes()
    assert repr(index).startswith("RepoIndex(source='memory:', ")
    assert repr(index.raw) not in repr(index)


@pytest.mark.parametrize("mark", [{}, {"reader": 1}, {"reader": "2"}, {"reader": 2}],
                         ids=["unmarked", "older", "not-an-int", "before-the-walk"])
def test_load_parses_entries_another_reader_cached(tmp_path, monkeypatch, mark):
    write_pre_reader_snapshot(str(tmp_path), "2018-05-14", **mark)
    calls = count_calls(monkeypatch, "parse_repo_index", ingest)
    snapshot = SnapshotStore(str(tmp_path)).load("2018-05-14")
    assert len(calls) == 1
    assert [entry.ref.file_name for entry in snapshot.index.entries] == ["db-1.10.tgz"]
    assert snapshot.content_digests == {}


def test_a_store_builds_each_distinct_cached_entry_once(tmp_path, monkeypatch):
    store = SnapshotStore(str(tmp_path / "store"))
    for day, versions in ((14, ["1.0.0", "1.1.0"]), (15, ["1.1.0", "1.2.0"])):
        store.record(parse_repo_index(
            make_index_yaml({"web": [{"version": v} for v in versions]}), "memory:",
            fetched_at=datetime.datetime(2018, 5, day, tzinfo=UTC)), {})
    built = count_calls(monkeypatch, "_entry_ref", ingest)
    first, second = (store.load(snapshot_id).index.entries for snapshot_id in store.ids())
    assert len(built) == 3
    assert first[1] is second[0]
    assert [entry.ref.file_name for entry in first + second] == [
        "web-1.0.0.tgz", "web-1.1.0.tgz", "web-1.1.0.tgz", "web-1.2.0.tgz"]


def test_load_ignores_cached_entries_of_another_index(tmp_path):
    store, snapshot_dir = _recorded(tmp_path, WEB)
    (snapshot_dir / "index.yaml").write_bytes(
        make_index_yaml({"db": [{"version": "2.0.0"}, {"version": "2.1.0"}]}))
    entries = store.load("2018-05-15").index.entries
    assert [entry.ref.file_name for entry in entries] == ["db-2.0.0.tgz", "db-2.1.0.tgz"]


def test_load_checks_cached_names_like_parsed_ones(tmp_path):
    store, snapshot_dir = _recorded(tmp_path, WEB)
    _edit_cached_entries(snapshot_dir, lambda entries: entries[0].update(name="../x"))
    with pytest.raises(IndexParseError, match="unusable name '../x'"):
        store.load("2018-05-15")


@pytest.mark.parametrize("edit", [
    lambda entries: entries.clear(),
    lambda entries: entries.append(5),
    lambda entries: entries[0].pop("urls"),
    lambda entries: entries[0].update(extra=1),
    lambda entries: entries[0].update(version=1),
    lambda entries: entries[0].update(digest=["sha256:aa"]),
    lambda entries: entries[0].update(urls=[1]),
    lambda entries: entries[0].update(maintainers=[["alice"]]),
    lambda entries: entries[0].update(maintainers=[{"name": "alice"}]),
    lambda entries: entries[0].update(maintainers=[[1, None]]),
], ids=["empty", "int-item", "missing-field", "extra-field", "int-version",
        "list-digest", "int-url", "short-maintainer", "mapping-maintainer", "int-maintainer"])
def test_load_rejects_misshapen_cached_entries(tmp_path, monkeypatch, edit):
    store, snapshot_dir = _recorded(tmp_path, WEB)
    store.load("2018-05-15")  # the store now holds the well-formed entry
    _edit_cached_entries(snapshot_dir, edit)
    calls = count_calls(monkeypatch, "parse_repo_index", ingest)
    with pytest.raises(StorageError, match="snapshot 2018-05-15: manifest index entries"):
        store.load("2018-05-15")
    assert calls == []


_WORD = st.text(alphabet=string.ascii_letters + string.digits + "-_", max_size=6)
_TEXT = st.text(alphabet=string.ascii_letters + " .@-", max_size=6)
# unquoted YAML scalars; several read as numbers or booleans
_VERSIONS = st.sampled_from(["1.0.0", "1.10", "2", "'1.10'", "0.1.0-rc.1", "2.50", "01", "true"])
_MAINTAINER = st.one_of(
    _TEXT,
    st.fixed_dictionaries({}, optional={"name": st.none() | _TEXT, "email": st.none() | _TEXT}),
)
_RECORD = st.fixed_dictionaries({"version": _VERSIONS}, optional={
    "name": _WORD,
    "digest": st.none() | _TEXT,
    "urls": st.lists(_TEXT, max_size=2),
    "maintainers": st.lists(_MAINTAINER, max_size=3),
})
_INDEX = st.dictionaries(_WORD.filter(bool), st.lists(_RECORD, min_size=1, max_size=3),
                         min_size=1, max_size=4)


def _index_text(index: dict) -> bytes:
    """Index YAML with versions written unquoted and every other scalar as JSON."""
    lines = ["apiVersion: v1", "entries:"]
    for key, records in index.items():
        lines.append(f"  {json.dumps(key)}:")
        for record in records:
            fields = [f"version: {record['version']}"] + [
                f"{field}: {json.dumps(value)}" for field, value in record.items()
                if field != "version"
            ]
            lines += ["    - " + fields[0]] + ["      " + field for field in fields[1:]]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=100, deadline=None)
@given(_INDEX)
def test_cached_entries_equal_parsed_entries(index):
    raw = _index_text(index)
    parsed = parse_repo_index(raw, "memory:",
                              fetched_at=datetime.datetime(2018, 5, 15, tzinfo=UTC))
    with tempfile.TemporaryDirectory() as root:
        store = SnapshotStore(root)
        snapshot_id = store.record(parsed, {})
        with open(os.path.join(root, snapshot_id, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh)["index"]["sha256"] == sha256_digest(raw)
        loaded = store.load(snapshot_id).index
    assert loaded.entries == parse_repo_index(raw, "memory:").entries
    assert (loaded.source, loaded.fetched_at, loaded.raw) == ("memory:", parsed.fetched_at, raw)
