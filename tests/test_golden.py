"""Golden outputs of livecheck, dupes, analyze, suggest, stats, irregularities,
authorsets and graph on fixed inputs.

The corpus under ``golden/charts`` holds a random-value key, quoted and
plain duplicates, a multi-document template, an ``EngineUnsupported``
template, a missing value and metadata irregularities. ``golden/groups.json``
holds small discrete counts with 16 pairs, so resampling iterations take
both the exact and the normal signed-rank branch. The files under
``golden/expected`` were recorded by ``golden_outputs`` before the
one-pass render refactor (``stats.stdout`` before the counted sign-sum
distribution; ``irregularities``, ``authorsets`` and ``graph`` before the
maintainer parser and the per-chart irregularity rules moved to one
place each); every output must stay byte-identical to them apart from
``generated_at``, with paths relative to the run directory.
``livecheck``, ``dupes`` and ``analyze`` run on a two-worker process pool
here, as they would on a larger corpus; ``analyze --jobs 2``, run on its
own, must write the same report and exit code as ``analyze``.

``changes`` and ``trends`` run on a store recorded in the test from the
three index files under ``golden/store``; ``golden/store/expected`` was
recorded before the store kept parsed index entries in its manifests
(the ``changes`` files again once index versions were read as written). A
store whose manifests lack those entries, as every store recorded before
then does, must give the same outputs.
"""

import contextlib
import datetime
import io
import json
import os
import re
import shutil

import pytest

from chartqa.cli import cli_dispatch
from chartqa.ingest import SnapshotStore, parse_repo_index

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COMMANDS = (
    ("livecheck", ["livecheck", "--path", "charts"]),
    ("dupes", ["dupes", "--path", "charts"]),
    ("analyze", ["analyze", "--path", "charts", "--out", "out/analyze"]),
    ("suggest", ["suggest", "--path", "charts", "--out", "out/suggest",
                 "--base-url", "http://qa.local"]),
    ("stats", ["stats", "--groups", "groups.json", "--seed", "42",
               "--iterations", "2000"]),
    ("irregularities", ["irregularities", "--path", "charts"]),
    ("authorsets", ["authorsets", "--path", "charts"]),
    ("graph", ["graph", "--path", "charts"]),
)
ANALYZE_J2 = ("analyze_j2", ["analyze", "--path", "charts", "--jobs", "2",
                             "--out", "out/analyze"])
_GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')


def _read_tree(root: str) -> dict[str, str]:
    out = {}
    for base, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = fh.read()
    return out


def golden_outputs(commands=COMMANDS) -> dict[str, str]:
    """Run the commands on ``charts`` in the working directory; file name -> text."""
    outputs, codes = {}, {}
    for name, argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes[name] = cli_dispatch(argv)
        if stdout.getvalue():
            outputs[f"{name}.stdout"] = stdout.getvalue()
    outputs.update(_read_tree("out"))
    outputs["exit_codes.json"] = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    return {name: _GENERATED_AT.sub('"generated_at": null', text)
            for name, text in outputs.items()}


def _run_in(tmp_path, monkeypatch, commands=COMMANDS):
    shutil.copytree(os.path.join(GOLDEN, "charts"), tmp_path / "charts")
    shutil.copy(os.path.join(GOLDEN, "groups.json"), tmp_path / "groups.json")
    monkeypatch.chdir(tmp_path)
    return golden_outputs(commands), _read_tree(os.path.join(GOLDEN, "expected"))


def test_outputs_match_golden_files(tmp_path, monkeypatch, two_cpu_pool):
    actual, expected = _run_in(tmp_path, monkeypatch)
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        assert actual[name] == text, name


def test_parallel_analyze_matches_golden_report(tmp_path, monkeypatch, two_cpu_pool):
    actual, expected = _run_in(tmp_path, monkeypatch, [ANALYZE_J2])
    assert sorted(actual) == ["analyze/report.json", "exit_codes.json"]
    assert actual["analyze/report.json"] == expected["analyze/report.json"]
    codes = json.loads(expected["exit_codes.json"])
    assert json.loads(actual["exit_codes.json"]) == {"analyze_j2": codes["analyze"]}


STORE_DAYS = ("2018-05-14", "2018-05-15", "2018-06-14")
# (day, archive) pairs whose bytes differ from the other days'; ``db`` version
# ``1.10`` is read as written, not as the YAML float 1.1
REBUILT = {("2018-05-15", "web-ui-3.0.0.tgz"), ("2018-06-14", "db-1.10.tgz")}
STORE_COMMANDS = (
    ("changes", ["changes", "--snapshot-store", "store"]),
    ("changes_span", ["changes", "--snapshot-store", "store",
                      "--from", "2018-05-14", "--to", "2018-06-14"]),
    ("trends", ["trends", "--snapshot-store", "store", "--periods",
                "may=2018-05-14..2018-05-15;all=2018-05-14..2018-06-14;"
                "june=2018-05-15..2018-06-14"]),
)


def record_golden_store(root: str) -> None:
    """Record the three golden index files as one snapshot per day."""
    store = SnapshotStore(root)
    for day in STORE_DAYS:
        with open(os.path.join(GOLDEN, "store", f"{day}.yaml"), "rb") as fh:
            raw = fh.read()
        fetched_at = datetime.datetime.fromisoformat(f"{day}T06:00:00+00:00")
        index = parse_repo_index(raw, "index.yaml", fetched_at=fetched_at)
        archives = {
            entry.ref.file_name: f"{entry.ref.file_name} rev "
            f"{2 if (day, entry.ref.file_name) in REBUILT else 1}\n".encode()
            for entry in index.entries
        }
        store.record(index, archives)


def _strip_index_key(root: str) -> None:
    for snapshot_id in os.listdir(root):
        path = os.path.join(root, snapshot_id, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest.pop("index", None)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


@pytest.mark.parametrize("cached", [True, False], ids=["as-recorded", "without-index-key"])
def test_store_outputs_match_golden_files(tmp_path, monkeypatch, cached):
    record_golden_store(str(tmp_path / "store"))
    if not cached:
        _strip_index_key(str(tmp_path / "store"))
    monkeypatch.chdir(tmp_path)
    actual = golden_outputs(STORE_COMMANDS)
    expected = _read_tree(os.path.join(GOLDEN, "store", "expected"))
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        assert actual[name] == text, name
