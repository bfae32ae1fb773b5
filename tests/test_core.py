"""chart-core: stem mangling, archive parsing, corpus metrics."""

import copy
import gzip
import io
import pickle
import random
import tarfile
import tracemalloc
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chartqa.core import (
    MAX_ARCHIVE_BYTES,
    MAX_ARCHIVE_MEMBERS,
    MAX_FILE_BYTES,
    MAX_HEADER_BYTES,
    ChartMetadata,
    ChartRef,
    mangle_stem,
    package_from_files,
    parse_chart_archive,
    versioning_overhead,
    write_package_dir,
)
from chartqa.errors import EmptyCorpus, MalformedArchive, MetadataParseError, MissingMetadata
from chartqa.ingest import package_from_dir, parse_repo_index

from conftest import chart_files, make_archive


def stem_rule_oracle(file_name: str) -> str:
    """Independent interpreter of the stem rule: keep components until a
    digit-leading one has been seen, then strip dashes as fallback."""
    name = file_name[:-4] if file_name.endswith(".tgz") else file_name
    kept = []
    digit_seen = False
    for component in name.split("-"):
        if component and component[0] in "0123456789":
            digit_seen = True
        if not digit_seen:
            kept.append(component)
    stem = "".join(kept)
    if not stem:
        stem = "".join(ch for ch in name if ch != "-")
    return stem or "_"


@pytest.mark.parametrize("file_name,expected", [
    ("magic-namespace-0.1.0.tgz", "magicnamespace"),
    ("magic-namespace-0.1.1-2.tgz", "magicnamespace"),
    ("redis-1.0.0.tgz", "redis"),
    ("kafka-0.2.1-manager-1.0.tgz", "kafka"),
])
def test_mangle_stem_examples(file_name, expected):
    assert mangle_stem(file_name) == expected


_COMPONENT = st.text(st.characters(exclude_characters="-"), max_size=8)


@given(first=_COMPONENT.filter(lambda text: text[:1] and not text[:1].isdigit()),
       rest=st.lists(_COMPONENT, max_size=4), suffix=st.sampled_from(["", ".tgz"]),
       version=st.from_regex(r"\A[0-9][0-9A-Za-z.+-]{0,8}\Z"))
def test_mangle_stem_idempotent_on_stems(first, rest, suffix, version):
    # the first component is kept, so no name here takes the all-digit fallback
    stem = mangle_stem("-".join([first, *rest]) + suffix)
    assert stem and "-" not in stem
    assert mangle_stem(f"{stem}.tgz") == stem
    assert mangle_stem(f"{stem}-{version}.tgz") == stem


def test_mangle_stem_all_digit_fallback():
    assert mangle_stem("2048-1.0.0.tgz") == "20481.0.0"
    assert mangle_stem("7zip-0.1.tgz") == "7zip0.1"


def _random_file_name(rng: random.Random) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789."
    parts = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        for _ in range(rng.randint(1, 5))
    ]
    return "-".join(parts) + ".tgz"


def test_mangle_stem_matches_rule_oracle():
    rng = random.Random(1234)
    for _ in range(1000):
        file_name = _random_file_name(rng)
        stem = mangle_stem(file_name)
        assert stem == stem_rule_oracle(file_name), file_name
        assert "-" not in stem
        if not stem[0].isdigit():
            # non-fallback case: no component may start with a digit
            assert not any(p[:1].isdigit() for p in [stem])


def test_versioning_overhead_paper_ratio():
    refs = [ChartRef.from_name_version(f"chart{i}", "1.0.0") for i in range(153)]
    refs += [ChartRef.from_name_version(f"chart{i}", "2.0.0") for i in range(24)]
    assert len({r.stem for r in refs}) == 153
    assert versioning_overhead(refs) == pytest.approx(0.157, abs=0.0005)


def test_versioning_overhead_simple_cases():
    distinct = [ChartRef.from_name_version(n, "1.0.0") for n in ("a", "b", "c")]
    assert versioning_overhead(distinct) == 0.0
    three_files_two_stems = [
        ChartRef.from_name_version("a", "1.0.0"),
        ChartRef.from_name_version("a", "1.1.0"),
        ChartRef.from_name_version("b", "1.0.0"),
    ]
    assert versioning_overhead(three_files_two_stems) == pytest.approx(0.5)


def test_versioning_overhead_empty_and_injectivity():
    with pytest.raises(EmptyCorpus):
        versioning_overhead([])
    rng = random.Random(7)
    for _ in range(50):
        refs = [
            ChartRef.from_name_version(rng.choice("abcdef"), f"1.{rng.randint(0, 3)}.0")
            for _ in range(rng.randint(1, 10))
        ]
        refs = list({r.file_name: r for r in refs}.values())
        overhead = versioning_overhead(refs)
        assert overhead >= 0.0
        injective = len({r.stem for r in refs}) == len(refs)
        assert (overhead == 0.0) == injective


def test_chart_ref_invariants():
    ref = ChartRef.from_name_version("magic-namespace", "0.1.0")
    assert ref.file_name == "magic-namespace-0.1.0.tgz"
    assert ref.stem == "magicnamespace"
    with pytest.raises(ValueError):
        ChartRef(name="x", version="1", file_name="x-1.zip")
    for copied in (copy.deepcopy(ref), pickle.loads(pickle.dumps(ref)),
                   ref._replace(version="0.1.0")):
        assert copied == ref and type(copied) is ChartRef
    assert ref._replace(file_name="db-2.0.0.tgz").stem == "db"
    with pytest.raises(ValueError):
        ref._replace(file_name="db-2.0.0.zip")


def test_parse_chart_archive_minimal():
    files = chart_files(
        name="redis", version="1.0.0",
        templates={"a.yaml": "kind: A\n", "b.yaml": "kind: B\n"},
    )
    pkg = parse_chart_archive(make_archive(files, "redis"))
    assert pkg.metadata.name == "redis"
    assert pkg.metadata.version == "1.0.0"
    assert len(pkg.templates) == 2
    assert pkg.values == {}  # missing values.yaml yields an empty tree
    assert all(path.startswith("templates/") for path, _ in pkg.templates)


def test_parse_chart_archive_as_tar_writes_a_directory(tmp_path):
    # tar czf lists each directory and keeps a symlink as a link member;
    # only regular files are chart files
    chart = tmp_path / "web"
    (chart / "templates").mkdir(parents=True)
    (chart / "Chart.yaml").write_text("name: web\nversion: 1.0.0\n")
    (chart / "templates" / "deploy.yaml").write_text("kind: Deployment\n")
    (chart / "templates" / "link.yaml").symlink_to("deploy.yaml")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        tar.add(chart, arcname="web")
        types = {member.name: member.type for member in tar.getmembers()}
    assert types["web"] == types["web/templates"] == tarfile.DIRTYPE
    assert types["web/templates/link.yaml"] == tarfile.SYMTYPE
    pkg = parse_chart_archive(buf.getvalue())
    assert pkg.templates == (("templates/deploy.yaml", "kind: Deployment\n"),)


def test_parse_chart_archive_missing_metadata():
    archive = make_archive({"values.yaml": "a: 1\n"}, "broken")
    with pytest.raises(MissingMetadata):
        parse_chart_archive(archive)


def test_parse_chart_archive_not_an_archive():
    with pytest.raises(MalformedArchive):
        parse_chart_archive(b"this is not a tarball")


def test_parse_chart_archive_truncated_stream_is_malformed():
    archive = make_archive(chart_files(templates={"x.yaml": "a: 1\n" * 2000}))
    with pytest.raises(MalformedArchive):
        parse_chart_archive(archive[:len(archive) // 2])


def _sparse_header(name: str, size: int) -> bytes:
    """A GNU sparse member header that declares ``size`` bytes and stores none."""
    info = tarfile.TarInfo(name)
    info.type = tarfile.GNUTYPE_SPARSE
    header = bytearray(info.tobuf(tarfile.GNU_FORMAT))
    header[483:495] = tarfile.itn(size, 12, tarfile.GNU_FORMAT)
    header[148:156] = b" " * 8
    header[148:155] = b"%06o\0" % tarfile.calc_chksums(bytes(header))[0]
    return bytes(header)


def _chart_with(members: bytes) -> bytes:
    """A gzipped tar of a valid chart followed by raw member ``members``."""
    chart = gzip.decompress(make_archive(chart_files()))
    end = len(chart.rstrip(b"\0"))
    end += -end % tarfile.BLOCKSIZE
    return gzip.compress(chart[:end] + members + b"\0" * 2 * tarfile.BLOCKSIZE)


def test_parse_chart_archive_rejects_one_oversized_file():
    archive = make_archive({**chart_files(), "templates/big.yaml": b"\0" * (MAX_FILE_BYTES + 1)})
    assert len(archive) < 32_000
    with pytest.raises(MalformedArchive, match=f"over {MAX_FILE_BYTES}"):
        parse_chart_archive(archive)


def test_parse_chart_archive_rejects_oversized_total():
    count = MAX_ARCHIVE_BYTES // MAX_FILE_BYTES + 1
    members = b"".join(_sparse_header(f"web/templates/{i}.yaml", MAX_FILE_BYTES)
                       for i in range(count))
    archive = _chart_with(members)
    assert len(archive) < 32_000
    with pytest.raises(MalformedArchive, match=f"over {MAX_ARCHIVE_BYTES}"):
        parse_chart_archive(archive)


def test_parse_chart_archive_rejects_too_many_members():
    info = tarfile.TarInfo("web/templates/empty.yaml")
    archive = _chart_with(info.tobuf(tarfile.GNU_FORMAT) * MAX_ARCHIVE_MEMBERS)
    assert len(archive) < 32_000
    with pytest.raises(MalformedArchive, match=f"over {MAX_ARCHIVE_MEMBERS} members"):
        parse_chart_archive(archive)


def test_parse_chart_archive_bad_metadata():
    archive = make_archive({"Chart.yaml": "name: [unclosed\n"}, "bad")
    with pytest.raises(MetadataParseError):
        parse_chart_archive(archive)
    archive = make_archive({"Chart.yaml": "name: only-name\n"}, "bad")
    with pytest.raises(MetadataParseError):
        parse_chart_archive(archive)


@pytest.mark.parametrize("name, version", [
    ("../../escaped", "1.0.0"), ("/abs/escaped", "1.0.0"), ("..", "1.0.0"), (".", "1.0.0"),
    ("a/b", "1.0.0"), ("a\\b", "1.0.0"), ("a\0b", "1.0.0"), ("web", "../1"), ("web", ".."),
    ("web", "1/0"),
])
def test_chart_yaml_follows_the_index_file_name_rule(name, version):
    # <name>-<version>.tgz is joined onto an output directory
    with pytest.raises(MetadataParseError, match="Chart.yaml has unusable"):
        ChartMetadata.from_mapping({"name": name, "version": version})


def test_chart_yaml_name_holding_dots_is_usable():
    assert ChartMetadata.from_mapping({"name": "...", "version": "1.0.0+a.b"}).name == "..."


@pytest.mark.parametrize("written, file_name", [
    ("1.10", "db-1.10.tgz"), ("01", "db-01.tgz"), ("true", "db-true.tgz"),
    ("2018-05-14", "db-2018-05-14.tgz"), ("'1.10'", "db-1.10.tgz"), ("1.0.0", "db-1.0.0.tgz"),
])
def test_chart_yaml_name_and_version_read_as_written(written, file_name):
    # the index record of the same chart names the same file
    files = {"Chart.yaml": f"name: db\nversion: {written}\n",
             "requirements.yaml": f"dependencies:\n- name: 2.0\n  version: {written}\n"}
    pkg = package_from_files(files)
    assert pkg.ref.file_name == file_name
    index = parse_repo_index(f"entries:\n  db:\n    - version: {written}\n".encode(), "memory:")
    assert index.entries[0].ref.file_name == file_name


@pytest.mark.parametrize("text, problem", [
    ("name: db\nversion: 1.0\nversion: 1.10\n", "duplicate mapping key 'version'"),
    ("name: &n [*n]\nversion: 1\n", "recursive alias"),
    ("name: db\nversion: 1\nx: " + "[" * 101 + "]" * 101 + "\n", "nested deeper than 100"),
])
def test_chart_yaml_keeps_the_duplicate_key_and_alias_checks(text, problem):
    with pytest.raises(MetadataParseError, match=problem):
        package_from_files({"Chart.yaml": text})


def test_parse_chart_archive_requirements_and_subchart():
    subchart = make_archive(chart_files(name="redis", version="1.0.0"), "redis")
    files = dict(chart_files(name="parent", version="2.0.0", templates={"a.yaml": "kind: A\n"}))
    files["requirements.yaml"] = "dependencies:\n- name: redis\n  version: 1.0.0\n"
    files["charts/redis-1.0.0.tgz"] = subchart
    pkg = parse_chart_archive(make_archive(files, "parent"))
    # the bundled subchart is not the parent's: its templates are not read
    assert pkg.ref.file_name == "parent-2.0.0.tgz"
    assert pkg.templates == (("templates/a.yaml", "kind: A\n"),)
    files["requirements.yaml"] = "dependencies:\n- name: a\n  name: b\n"
    with pytest.raises(MetadataParseError, match="requirements.yaml invalid"):
        parse_chart_archive(make_archive(files, "parent"))


def test_write_package_dir_gives_back_the_chart_files_as_read(tmp_path):
    files = {
        "Chart.yaml": "apiVersion: v2\nname: web  # the app\nversion: 1.0.0\n"
                      "appVersion: \"1.16\"\nkubeVersion: \">=1.20\"\n",
        "values.yaml": "# defaults\nimage: {tag: latest}\r\nreplicas: 0x10\n",
        "templates/deploy.yaml": "image: {{ .Values.image.tag }}\r\n",
        "templates/svc.yaml": "kind: Service",
    }
    pkg = package_from_files(files)
    write_package_dir(pkg, str(tmp_path / "web"))
    for path, body in files.items():
        assert (tmp_path / "web" / path).read_bytes() == body.encode()
    assert package_from_dir(str(tmp_path / "web")) == pkg


def test_write_package_dir_of_a_chart_without_values_yaml(tmp_path):
    pkg = package_from_files(chart_files(templates={"t.yaml": "a: 1\n"}))
    assert pkg.values_text == ""
    write_package_dir(pkg, str(tmp_path / "web"))
    assert (tmp_path / "web" / "values.yaml").read_bytes() == b""
    assert package_from_dir(str(tmp_path / "web")) == pkg


def test_parse_chart_archive_bounds_long_name_header_body():
    # tarfile reads a long-name body in full before yielding the member it names
    info = tarfile.TarInfo("././@LongLink")
    info.type = tarfile.GNUTYPE_LONGNAME
    info.size = 50 * 1024 * 1024
    gz = zlib.compressobj(wbits=31)
    chunks = [gz.compress(info.tobuf(tarfile.GNU_FORMAT))]
    chunks += [gz.compress(b"a" * 2**20) for _ in range(info.size // 2**20)]
    chunks += [gz.compress(gzip.decompress(make_archive(chart_files()))), gz.flush()]
    archive = b"".join(chunks)
    assert len(archive) < 64_000
    tracemalloc.start()
    try:
        with pytest.raises(MalformedArchive, match=f"over {MAX_HEADER_BYTES} bytes"):
            parse_chart_archive(archive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_HEADER_BYTES
