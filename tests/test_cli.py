"""CLI contract: subcommands, exit codes, outputs."""

import argparse
import ast
import contextlib
import datetime
import functools
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest
import yaml

from chartqa import analytics, cli, ingest, quality
from chartqa.cli import cli_dispatch
from chartqa.errors import EngineUnavailable, InputFileError, KnowledgeBaseError, WorkerFailed
from chartqa.ingest import SnapshotStore, parse_repo_index, sha256_digest
from chartqa.quality import DuplicateConfig, detect_duplicates

from conftest import (
    DB_1_10,
    chart_files,
    count_calls,
    make_archive,
    make_index_yaml,
    make_package,
    run_limited,
    write_chart_dir,
    write_pre_reader_snapshot,
    writes_outside,
)

CLEAN_TEMPLATES = {"deploy.yaml": "kind: Deployment\nname: {{ .Values.app }}\n"}
DUPE_TEMPLATES = {"deploy.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"}
MAINTAINED = [{"name": "alice", "email": "a@x.io"}]
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run_cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "chartqa", *argv],
        capture_output=True, text=True, timeout=120,
    )


def test_livecheck_clean_chart_exits_zero(tmp_path):
    chart = write_chart_dir(
        tmp_path, "clean",
        chart_files(values={"app": "x"}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED),
    )
    proc = run_cli("livecheck", "--path", chart)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True


def test_livecheck_findings_exit_one_with_json(tmp_path):
    chart = write_chart_dir(
        tmp_path, "dupey",
        chart_files(values={}, templates=DUPE_TEMPLATES, maintainers=MAINTAINED),
    )
    proc = run_cli("livecheck", "--path", chart)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    kinds = [f["kind"] for c in payload["charts"] for f in c["findings"]]
    assert kinds == ["duplicate-values"]


def test_livecheck_metadata_irregularity_exits_one(tmp_path):
    chart = write_chart_dir(
        tmp_path, "orphan", chart_files(values={"app": "x"}, templates=CLEAN_TEMPLATES),
    )
    proc = run_cli("livecheck", "--path", chart)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    kinds = [f["kind"] for c in payload["charts"] for f in c["findings"]]
    assert kinds == ["no-maintainer"]


def test_livecheck_unreadable_path_exits_two(tmp_path):
    proc = run_cli("livecheck", "--path", str(tmp_path / "does-not-exist"))
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("tree, message", [
    ("unparseable", "no parseable chart found: "), ("empty", "no chart found under ")])
@pytest.mark.parametrize("command", ["livecheck", "dupes", "analyze", "variability", "suggest",
                                     "authorsets", "irregularities", "graph"])
def test_a_tree_without_a_readable_chart_exits_two(tmp_path, monkeypatch, caplog, capsys,
                                                   command, tree, message):
    charts = tmp_path / "charts"
    charts.mkdir()
    if tree == "unparseable":
        write_chart_dir(charts, "web", dict(chart_files(maintainers=MAINTAINED),
                                            **{"values.yaml": "a: [unclosed\n"}))
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch([command, "--path", str(charts)]) == 2
    assert message in caplog.text
    assert capsys.readouterr().out == ""
    assert sorted(os.listdir(tmp_path)) == ["charts"]


def test_entry_point_prints_the_recorded_help_and_usage_errors():
    """``python -m chartqa``'s standard output, standard error and exit code for
    ``--help``, each command's ``--help`` and usage errors, as recorded when the
    parser added every command's flags on each run."""
    with open(os.path.join(GOLDEN, "entry_point.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    if "%d.%d" % sys.version_info[:2] != recorded["python"]:
        pytest.skip(f"recorded with Python {recorded['python']}, whose argparse wording it pins")
    assert {run["argv"][0] for run in recorded["runs"]
            if run["argv"][1:] == ["--help"]} == set(cli._COMMANDS)
    env = dict(os.environ, COLUMNS=str(recorded["columns"]), LINES="24")
    for run in recorded["runs"]:
        proc = subprocess.run([sys.executable, "-m", "chartqa", *run["argv"]],
                              capture_output=True, text=True, timeout=120, env=env)
        assert (proc.stdout, proc.stderr, proc.returncode) == (
            run["stdout"], run["stderr"], run["exit_code"]), run["argv"]


@pytest.mark.parametrize("argv, code", [
    (["stats", "--groups", os.path.join(GOLDEN, "groups.json"), "--iterations", "5"], 0),
    (["livecheck", "--path", os.path.join(GOLDEN, "charts")], 1),
    (["graph", "--index", os.path.join(GOLDEN, "no-such-index.yaml")], 2),
])
def test_entry_point_passes_the_exit_code_and_output_through(capsys, argv, code):
    assert cli_dispatch(argv) == code
    out = capsys.readouterr().out
    # buffered, as a user's shell runs it: the output must be flushed before the process ends
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "chartqa", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == code, proc.stderr
    generated_at = re.compile(r'"generated_at": "[^"]*"')
    assert generated_at.sub("", proc.stdout) == generated_at.sub("", out)


@pytest.mark.parametrize("closed", ["1", "2"])
def test_entry_point_started_with_a_stream_closed_exits_as_the_command_does(tmp_path, closed):
    # started with its descriptor closed, Python's sys.stdout (or sys.stderr) is None
    proc = subprocess.run(["sh", "-c", f'exec "$0" "$@" {closed}>&-', sys.executable, "-m",
                           "chartqa", "graph", "--path", os.path.join(GOLDEN, "charts"),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "maintainers.dot").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_that_cannot_be_written_exits_two_with_one_error_line(unbuffered):
    # buffered, the write fails only in the flush after cli_dispatch returns
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run([sys.executable, "-m", "chartqa", "graph", "--path",
                               os.path.join(GOLDEN, "charts")],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("ERROR "), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_usage_error_and_help_exit_codes():
    assert cli_dispatch(["no-such-command"]) == 2
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch(["analyze", "--bogus-flag"]) == 2


def test_analyze_unreadable_path_exits_two(tmp_path):
    assert cli_dispatch(["analyze", "--path", str(tmp_path / "missing")]) == 2


def test_analyze_writes_schema_valid_report(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from chartqa.report import load_schema

    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={"app": "x"}, templates=CLEAN_TEMPLATES,
                                maintainers=MAINTAINED))
    out = tmp_path / "out"
    code = cli_dispatch([
        "analyze", "--path", str(tmp_path / "charts"), "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, load_schema())
    assert report["sections"]["quality"][0]["chart"] == "web-1.0.0.tgz"


def test_analyze_jobs_missing_external_renderer_exits_two(tmp_path):
    # with two jobs and two CPUs the error is raised in a pool worker and must reach cli_dispatch
    for name in (f"c{i:02d}" for i in range(2 * cli.MIN_CHARTS_PER_WORKER)):
        write_chart_dir(tmp_path / "charts", name,
                        chart_files(name=name, values={"app": "x"},
                                    templates=CLEAN_TEMPLATES, maintainers=MAINTAINED))
    for jobs in ("1", "2"):
        proc = run_cli("analyze", "--path", str(tmp_path / "charts"), "--jobs", jobs,
                       "--engine", "external",
                       "--renderer-bin", str(tmp_path / "no-such-renderer"))
        assert proc.returncode == 2, (jobs, proc.stderr)
        assert "external renderer binary not found" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_import_leaves_numpy_and_urllib_request_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chartqa, chartqa.cli; "
         "print(sorted({'numpy', 'urllib.request', 'multiprocessing', "
         "'concurrent.futures.process'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# runs cli_dispatch(argv[2:]) with its output discarded, then prints the exit code, the
# number of processes forked and the modules loaded; argv[1] == "pool" makes per-chart
# commands run on two processes, this one and one forked child
LOADED_BY = """
import contextlib, io, json, os, sys
from chartqa import cli
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
if sys.argv[1] == "pool":
    cli.MIN_CHARTS_PER_WORKER = 1
    os.sched_getaffinity = lambda pid: {0, 1}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.cli_dispatch(sys.argv[2:])
print(json.dumps([code, len(forks), sorted(sys.modules)]))
"""


def modules_loaded_by(*argv, pool: bool = False, entry: bool = False) -> set[str]:
    """The modules a run of ``argv`` loads; with ``entry``, those ``python -m chartqa``
    imports, as ``-X importtime`` lists them, in a run that logs nothing."""
    if entry:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "chartqa", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1), proc.stderr
        lines = proc.stderr.splitlines()
        assert all(line.startswith("import time:") for line in lines), proc.stderr
        return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}  # below the header
    proc = subprocess.run([sys.executable, "-c", LOADED_BY, "pool" if pool else "here", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, forks, modules = json.loads(proc.stdout)
    assert code in (0, 1), proc.stderr
    assert forks == (1 if pool else 0)
    return set(modules)


def test_help_loads_only_the_parser():
    loaded = modules_loaded_by("--help")
    assert {m for m in loaded if m.startswith("chartqa")} == {
        "chartqa", "chartqa.cli", "chartqa.errors"}
    assert not loaded & {"yaml", "chartqa.files", "urllib.request"}  # no reader


def test_single_chart_livecheck_loads_no_render_rewrite_or_stats():
    loaded = modules_loaded_by("livecheck", "--path", os.path.join(GOLDEN, "charts", "web"))
    assert "chartqa.quality" in loaded
    assert not loaded & {"chartqa.rewrite", "chartqa.stats", "chartqa.render", "difflib",
                         "numpy", "urllib.request"}


def test_stats_without_config_loads_no_yaml_render_or_quality(tmp_path):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": list(range(12)), "n2": [1, 2, 3, 5, 8]}))
    loaded = modules_loaded_by("stats", "--groups", str(groups), "--iterations", "5")
    assert "chartqa.stats" in loaded
    assert not loaded & {"yaml", "chartqa.render", "chartqa.quality", "numpy"}


def test_snapshot_of_a_local_index_loads_no_http_client(tmp_path):
    repo = _write_repo(tmp_path, "1.0.0")
    loaded = modules_loaded_by("snapshot", "--index", str(repo / "index.yaml"),
                               "--snapshot-store", str(tmp_path / "store"))
    assert "chartqa.files" in loaded
    assert not loaded & {"urllib.request", "http.client"}


def test_yaml_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "chartqa")
    imported = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == {"yaml"}
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", spec).group() for spec in dependencies] == ["PyYAML"]


def test_store_commands_on_cached_entries_load_no_yaml_or_archive_reader(tmp_path):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    for command in ("changes", "trends"):
        loaded = modules_loaded_by(command, "--snapshot-store", store.root)
        assert "chartqa.analytics" in loaded
        assert not loaded & {"yaml", "chartqa.yamlutil", "tarfile", "dataclasses"}, command


def test_commands_that_log_nothing_load_no_logging(tmp_path):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": list(range(12)), "n2": [1, 2, 3, 5, 8]}))
    for argv in (["changes", "--snapshot-store", store.root],
                 ["trends", "--snapshot-store", store.root],
                 ["stats", "--groups", str(groups), "--iterations", "5"]):
        loaded = modules_loaded_by(*argv, entry=True)
        assert "chartqa.cli" in loaded
        assert "logging" not in loaded, argv
    # the first line logged loads it, and shows as ``LEVEL message``
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "chartqa", "changes",
                           "--snapshot-store", str(tmp_path / "empty")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert re.search(r"\| logging$", proc.stderr, re.MULTILINE)
    assert proc.stderr.endswith("\nERROR changes needs two snapshots (or --from/--to)\n")


def test_no_command_loads_dataclasses_or_a_process_pool_module(tmp_path):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    repo = _write_repo(tmp_path, "1.2.0")
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": list(range(12)), "n2": [1, 2, 3, 5, 8]}))
    charts = os.path.join(GOLDEN, "charts")
    out = str(tmp_path / "out")
    runs = [
        (False, ["snapshot", "--index", str(repo / "index.yaml"), "--snapshot-store", store.root]),
        (False, ["changes", "--snapshot-store", store.root]),
        (False, ["trends", "--snapshot-store", store.root]),
        (False, ["stats", "--groups", str(groups), "--iterations", "5"]),
        (False, ["authorsets", "--index", str(repo / "index.yaml")]),
        (False, ["graph", "--index", str(repo / "index.yaml")]),
        (False, ["irregularities", "--path", charts]),
        (False, ["livecheck", "--path", charts]),
        # three charts, so one child is forked where the pool is on
        (True, ["dupes", "--path", charts]),
        (True, ["analyze", "--path", charts, "--out", out]),
        (True, ["variability", "--path", charts, "--kb", f"{out}/kb.json", "--out", out]),
        (True, ["suggest", "--path", charts, "--kb", f"{out}/kb.json", "--out", out]),
    ]
    assert sorted({argv[0] for _, argv in runs}) == sorted(cli._COMMANDS)
    for pool, argv in runs:
        loaded = modules_loaded_by(*argv, pool=pool)
        assert not {m for m in loaded if m.split(".")[0] in (
            "dataclasses", "concurrent", "multiprocessing")}, argv
        if argv[0] in ("analyze", "variability", "suggest"):  # the builtin engine starts no process
            assert not loaded & {"subprocess", "selectors"}, argv


def test_per_chart_forked_workers_match_serial(tmp_path, monkeypatch, two_cpu_pool):
    forks = count_calls(monkeypatch, "fork", os)
    packages = [make_package(name=f"c{i}", templates=DUPE_TEMPLATES) for i in range(4)]
    detect = functools.partial(detect_duplicates, config=DuplicateConfig(threshold=2))
    assert cli._per_chart(detect, packages, 2) == [detect(pkg) for pkg in packages]
    # the per-chart commands' form: each process reads its charts, one of which is corrupt
    for i in range(3):
        write_chart_dir(tmp_path, f"c{i}", chart_files(name=f"c{i}", templates=DUPE_TEMPLATES))
    (tmp_path / "corrupt-0.1.0.tgz").write_bytes(b"not a gzipped tar")
    locations = ingest.chart_locations(str(tmp_path))
    load_detect = functools.partial(cli._load_then, detect, str(tmp_path))
    results = cli._per_chart(load_detect, locations, 2)
    assert results == [load_detect(location) for location in locations]
    # a chart that cannot be read comes back as (location, "Type: message")
    assert [type(result[0]).__name__ for result in results] == ["str"] + ["IndexEntry"] * 3
    assert results[0][0] == "corrupt-0.1.0.tgz"
    assert results[0][1].startswith("MalformedArchive: not a gzipped tar archive")
    assert len(forks) == 2  # one child for each call; this process is the other worker
    _assert_no_child_left()


def test_per_chart_on_one_cpu_runs_here_without_multiprocessing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for name in ("multiprocessing", "concurrent.futures.process"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    forks = count_calls(monkeypatch, "fork", os)
    charts = [f"c{i}" for i in range(4 * cli.MIN_CHARTS_PER_WORKER)]
    seen = []
    # ``seen`` fills only in this process
    assert cli._per_chart(lambda chart: seen.append(chart) or chart.upper(), charts, 4) == [
        chart.upper() for chart in charts]
    assert seen == charts
    assert forks == []
    assert "multiprocessing" not in sys.modules
    assert "concurrent.futures.process" not in sys.modules


def test_per_chart_runs_here_where_the_platform_cannot_fork(monkeypatch, two_cpu_pool):
    monkeypatch.delattr(os, "fork")
    charts = [f"c{i}" for i in range(4)]
    seen = []
    assert cli._per_chart(lambda chart: seen.append(chart) or chart.upper(), charts, 2) == [
        chart.upper() for chart in charts]
    assert seen == charts


class _NeedsTwoArguments(Exception):
    """Pickles as ``_NeedsTwoArguments(first)``, which cannot be unpickled."""

    def __init__(self, first, second):
        super().__init__(first)


class _HoldsALock(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def _raise_on_c1(error):
    """Raises on c1, the first chart of the pool's one child."""
    def per_chart(chart):
        if chart == "c1":
            raise error()
        return chart
    return per_chart


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_exception_is_raised_here_with_the_worker_traceback(two_cpu_pool):
    with pytest.raises(KeyError, match="c1") as raised:
        cli._per_chart(_raise_on_c1(lambda: KeyError("c1")), [f"c{i}" for i in range(4)], 2)
    worker_traceback = str(raised.value.__cause__)
    assert "Traceback (most recent call last)" in worker_traceback
    assert "in per_chart" in worker_traceback and "KeyError: 'c1'" in worker_traceback
    _assert_no_child_left()


@pytest.mark.parametrize("error", [_HoldsALock, lambda: _NeedsTwoArguments(1, 2)],
                         ids=["cannot-be-pickled", "cannot-be-unpickled"])
def test_a_worker_exception_that_cannot_be_sent_back_is_still_an_error(two_cpu_pool, error):
    with pytest.raises(RuntimeError, match="could not be sent back") as raised:
        cli._per_chart(_raise_on_c1(error), [f"c{i}" for i in range(4)], 2)
    assert "in per_chart" in str(raised.value.__cause__)
    _assert_no_child_left()


def test_an_unpicklable_worker_result_is_an_error(two_cpu_pool):
    with pytest.raises(TypeError, match="cannot pickle") as raised:
        cli._per_chart(lambda chart: threading.Lock() if chart == "c1" else chart,
                       [f"c{i}" for i in range(4)], 2)
    assert "Traceback" in str(raised.value.__cause__)
    _assert_no_child_left()


def test_a_killed_worker_fails_the_call(two_cpu_pool):
    def die_on_c1(chart):  # c1 is the first chart of the pool's one child
        if chart == "c1":
            os.kill(os.getpid(), signal.SIGKILL)
        return chart

    with pytest.raises(WorkerFailed, match=f"killed by signal {int(signal.SIGKILL)}"):
        cli._per_chart(die_on_c1, [f"c{i}" for i in range(4)], 2)
    _assert_no_child_left()


@contextlib.contextmanager
def _within(seconds: float):
    """Fail, rather than hang, when the body takes more than ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _with_pid(item):
    return item * item, os.getpid()


def test_more_charts_than_records_are_dealt_in_blocks(monkeypatch, two_cpu_pool):
    # four processes on two CPUs; 5000 charts make blocks of ceil(5000 / 1024) = 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    items = list(range(5000))
    with _within(60):
        results = cli._per_chart(_with_pid, items, 4)
    assert [square for square, _ in results] == [item * item for item in items]
    pids = [pid for _, pid in results]
    assert all(len(set(pids[first:first + 5])) == 1 for first in range(0, 5000, 5))
    assert pids[0:5] == [os.getpid()] * 5  # this process handles block 0 first
    assert len({pids[5], pids[10], pids[15], os.getpid()}) == 4  # each child its own first block
    _assert_no_child_left()


def test_a_slow_chart_leaves_the_rest_to_the_other_process(two_cpu_pool):
    def slow_first(item):
        if item == 0:
            time.sleep(0.3)
        return os.getpid()

    with _within(60):
        pids = cli._per_chart(slow_first, list(range(40)), 2)
    assert len(set(pids)) == 2
    assert pids.count(pids[0]) < len(pids) - pids.count(pids[0])


def test_an_exception_in_this_process_share_propagates_as_itself(tmp_path, two_cpu_pool):
    error = KeyError("c0")
    handled = tmp_path / "handled"

    def per_chart(chart):
        if chart == "c0":  # the first chart of this process's own share
            raise error
        with open(handled, "a", encoding="utf-8") as fh:
            fh.write(f"{chart}\n")
        time.sleep(0.005)
        return chart

    with _within(60), pytest.raises(KeyError) as raised:
        cli._per_chart(per_chart, [f"c{i}" for i in range(400)], 2)
    assert raised.value is error and raised.value.__cause__ is None
    _assert_no_child_left()
    # the child stopped after its current chart, far short of the other 399
    assert 1 <= len(handled.read_text().split()) < 200


def _mixed_tree(root) -> None:
    """Archives, chart directories, a corrupt archive, a chart-shaped directory
    without Chart.yaml, and two charts that share the file name web-1.0.0.tgz."""
    for name in ("api", "db"):
        write_chart_dir(root, name, chart_files(name=name, values={"app": "x"},
                                                templates=DUPE_TEMPLATES, maintainers=MAINTAINED))
    (root / "web-1.0.0.tgz").write_bytes(make_archive(chart_files(
        values={"app": "x"}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED)))
    (root / "cache-2.0.0.tgz").write_bytes(make_archive(chart_files(
        name="cache", version="2.0.0", values={}, templates=DUPE_TEMPLATES), "cache"))
    write_chart_dir(root, "headless", {"values.yaml": "a: 1\n"})
    (root / "nested").mkdir()
    (root / "nested" / "broken-0.1.0.tgz").write_bytes(b"not a gzipped tar")
    write_chart_dir(root / "nested", "web", chart_files(values={}, templates=DUPE_TEMPLATES))


@pytest.mark.parametrize("argv", [["livecheck"], ["dupes"], ["analyze", "--jobs", "2"]])
def test_workers_reading_their_charts_match_a_serial_run(tmp_path, monkeypatch, two_cpu_pool,
                                                        caplog, capsys, argv):
    _mixed_tree(tmp_path / "charts")
    argv = [*argv, "--path", str(tmp_path / "charts")]
    forks = count_calls(monkeypatch, "fork", os)
    runs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        caplog.clear()
        assert cli_dispatch(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        payload.pop("generated_at", None)
        skipped = [record.getMessage().split(":")[0] for record in caplog.records
                   if "skipping" in record.getMessage()]
        runs.append((payload, skipped))
    assert len(forks) == 1  # the first run forked one child, the second ran here
    assert runs[0] == runs[1]
    assert runs[0][1] == ["skipping headless", "skipping nested/broken-0.1.0.tgz"]


def _rewrite_tree(root) -> None:
    """Two versions of one stem, the second seeing pw learned from the first
    and holding a mapping where the first's cfg was a leaf; a corrupt
    archive; a chart whose every template fails; a chart whose values.yaml
    already holds ``suggestions``; and a chart whose one duplicate group
    fails span location (its third dup-z is folded)."""
    random_keys = {"1.0.0": "pw: {{ randAlphaNum 8 }}\ncfg: {{ randAlphaNum 8 }}\n",
                   "2.0.0": "pw: {{ randAlphaNum 8 }}\ncfg:\n  tok: {{ randAlphaNum 8 }}\n"}
    for version, keys in random_keys.items():
        write_chart_dir(root, f"web{version}", chart_files(
            version=version, values={}, maintainers=MAINTAINED,
            templates={"t.yaml": DUPE_TEMPLATES["deploy.yaml"] + keys}))
    (root / "broken-0.1.0.tgz").write_bytes(b"not a gzipped tar")
    write_chart_dir(root, "bad", chart_files(name="bad", values={}, templates={
        "t.yaml": DUPE_TEMPLATES["deploy.yaml"] + "k: {{ .Values.absent }}\n"}))
    write_chart_dir(root, "conflict", chart_files(
        name="conflict", values={"suggestions": {"var1": "x"}}, templates=DUPE_TEMPLATES))
    write_chart_dir(root, "spans", chart_files(name="spans", values={}, templates={
        "t.yaml": "a: dup-z\nb: dup-z\nc: >-\n  dup-z\n"}))


def _without_generated_at(text: str):
    try:
        document = json.loads(text)
    except ValueError:
        return text
    document.pop("generated_at", None)
    return document


def test_variability_suggest_and_index_commands_match_a_serial_run(tmp_path, monkeypatch,
                                                                   two_cpu_pool, caplog, capsys):
    charts, out, kb = tmp_path / "charts", tmp_path / "out", tmp_path / "kb.json"
    _rewrite_tree(charts)
    commands = [["variability", "--kb", str(kb), "--out", str(out / "variability")],
                ["suggest", "--kb", str(kb), "--out", str(out / "suggest")],
                ["authorsets"], ["irregularities"], ["graph"]]
    forks = count_calls(monkeypatch, "fork", os)
    runs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        shutil.rmtree(out, ignore_errors=True)
        kb.unlink(missing_ok=True)
        run = []
        for argv in commands:
            caplog.clear()
            code = cli_dispatch([*argv, "--path", str(charts)])
            run.append((argv[0], code, _without_generated_at(capsys.readouterr().out),
                        [record.getMessage() for record in caplog.records]))
        files = {str(path.relative_to(out)): _without_generated_at(path.read_text())
                 for path in sorted(out.rglob("*")) if path.is_file()}
        # knowledge-base values come from randAlphaNum, so only the keys compare
        runs.append((run, files, sorted(json.loads(kb.read_text()))))
    assert len(forks) == len(commands)  # the first run forked one child for each
    assert runs[0] == runs[1]
    run, files, kb_keys = runs[0]
    skipped_archive = ("skipping broken-0.1.0.tgz: MalformedArchive: not a gzipped tar archive: "
                       "Not a gzipped file (b'no')")
    assert [(command, code, messages) for command, code, _, messages in run] == [
        ("variability", 0, [skipped_archive, "skipping bad-1.0.0.tgz: bad: every template "
                                             "failed: no value for '.Values.absent' and no "
                                             "default"]),
        ("suggest", 1, [skipped_archive, "bad: rewrite failed verification, diff suppressed",
                        "conflict: cannot plan rewrite: values.yaml already defines a "
                        "'suggestions' block",
                        "skipping group 'dup-z': templates/t.yaml#0/c: source style '>' not "
                        "literally replaceable",
                        "spans: every duplicate group failed span location"]),
        ("authorsets", 0, [skipped_archive]),
        ("irregularities", 1, [skipped_archive]),
        ("graph", 0, [skipped_archive]),
    ]
    assert files["variability/variability.json"]["learned"] == {
        "conflict-1.0.0.tgz": [], "spans-1.0.0.tgz": [],
        "web-1.0.0.tgz": ["templates/t.yaml#0/cfg", "templates/t.yaml#0/pw"],
        "web-2.0.0.tgz": ["templates/t.yaml#0/cfg/tok"]}
    assert kb_keys == ["web|templates/t.yaml#0/cfg", "web|templates/t.yaml#0/cfg/tok",
                       "web|templates/t.yaml#0/pw"]
    assert [diff["chart"] for diff in files["suggest/suggest.json"]["diffs"]] == [
        "web-1.0.0.tgz", "web-2.0.0.tgz"]


def _renderer_missing(pkg, config=None):
    raise EngineUnavailable("external renderer binary not found")


@pytest.mark.parametrize("command", ["livecheck", "dupes"])
def test_per_chart_worker_error_exits_two(tmp_path, monkeypatch, two_cpu_pool, caplog, capsys,
                                         command):
    # livecheck and dupes take no engine; the error is raised in a pool worker as one would be
    for name in ("api", "web"):
        write_chart_dir(tmp_path / "charts", name,
                        chart_files(name=name, values={"app": "x"},
                                    templates=CLEAN_TEMPLATES, maintainers=MAINTAINED))
    monkeypatch.setattr(quality, "detect_duplicates", _renderer_missing)
    assert cli_dispatch([command, "--path", str(tmp_path / "charts")]) == 2
    assert "external renderer binary not found" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["dupes", "--threshold", "1"], "duplicate threshold must be at least 2"),
    (["livecheck", "--threshold", "1"], "duplicate threshold must be at least 2"),
    (["analyze", "--threshold", "1"], "duplicate threshold must be at least 2"),
    (["analyze", "--format", "csv"], "--format csv needs --out"),
    (["suggest", "--threshold", "1"], "duplicate threshold must be at least 2"),
    (["variability", "--kb", "{kb}"], "want a JSON object of string values"),
    (["suggest", "--kb", "{kb}"], "want a JSON object of string values"),
])
def test_bad_setting_exits_two_before_any_chart_is_read(tmp_path, monkeypatch, caplog, argv,
                                                        message):
    _mixed_tree(tmp_path / "charts")
    (tmp_path / "kb.json").write_text("[]")
    loads = count_calls(monkeypatch, "load_chart", ingest)
    argv = [arg.format(kb=tmp_path / "kb.json") for arg in argv]
    assert cli_dispatch([*argv, "--path", str(tmp_path / "charts")]) == 2
    assert message in caplog.text
    assert "skipping" not in caplog.text
    assert loads == []


def test_analyze_reports_the_charts_beside_one_the_engine_cannot_render(tmp_path):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "bad", chart_files(name="bad", values={}, templates={
        "t.yaml": "pw: {{ randAlphaNum \u00b2 }}\n"}, maintainers=MAINTAINED))
    write_chart_dir(charts, "web", chart_files(values={"app": "x"}, templates=CLEAN_TEMPLATES,
                                               maintainers=MAINTAINED))
    proc = run_cli("analyze", "--path", str(charts), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    quality_section = json.loads((tmp_path / "out" / "report.json").read_text())[
        "sections"]["quality"]
    assert [chart["chart"] for chart in quality_section] == ["bad-1.0.0.tgz", "web-1.0.0.tgz"]
    assert [[f["category"] for f in chart["render_failures"]]
            for chart in quality_section] == [["EngineUnsupported"], []]


def test_dupes_reports_the_charts_beside_one_holding_an_impossible_date(tmp_path):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "bad", chart_files(name="bad", values={}, templates={
        "t.yaml": "since: 2001-02-30\n"}, maintainers=MAINTAINED))
    write_chart_dir(charts, "web", chart_files(values={}, templates=DUPE_TEMPLATES,
                                               maintainers=MAINTAINED))
    proc = run_cli("dupes", "--path", str(charts))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    charts_reported = json.loads(proc.stdout)["sections"]["duplicates"]
    assert [chart["chart"] for chart in charts_reported] == ["bad-1.0.0.tgz", "web-1.0.0.tgz"]


def test_analyze_findings_exit_code(tmp_path):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates=DUPE_TEMPLATES,
                                maintainers=MAINTAINED))
    assert cli_dispatch(["analyze", "--path", str(tmp_path / "charts"),
                         "--out", str(tmp_path / "out")]) == 1


def test_analyze_csv_distributions(tmp_path):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={"app": "x"}, templates=CLEAN_TEMPLATES,
                                maintainers=MAINTAINED))
    out = tmp_path / "out"
    code = cli_dispatch(["analyze", "--path", str(tmp_path / "charts"),
                         "--out", str(out), "--format", "csv"])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "charts_per_duplicate_count.csv" in names
    assert "maintainer_set_heatmap.csv" in names
    assert "report.json" in names


def test_dupes_threshold_flag(tmp_path, capsys):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates={
                        "t.yaml": "a: twice\nb: twice\n",
                    }, maintainers=MAINTAINED))
    assert cli_dispatch(["dupes", "--path", str(tmp_path / "charts")]) == 0
    capsys.readouterr()
    assert cli_dispatch(["dupes", "--path", str(tmp_path / "charts"),
                         "--threshold", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    groups = payload["sections"]["duplicates"][0]["groups"]
    assert groups[0]["canonical_value"] == "twice"


def test_config_file_precedence(tmp_path, capsys):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates={
                        "t.yaml": "a: twice\nb: twice\n",
                    }, maintainers=MAINTAINED))
    config = tmp_path / "chartqa.yaml"
    config.write_text("threshold: 2\n")
    # config lowers the threshold below the default
    assert cli_dispatch(["dupes", "--path", str(tmp_path / "charts"),
                         "--config", str(config)]) == 1
    capsys.readouterr()
    # an explicit flag overrides the config file
    assert cli_dispatch(["dupes", "--path", str(tmp_path / "charts"),
                         "--config", str(config), "--threshold", "3"]) == 0


@pytest.mark.parametrize("text, command, message", [
    ("threshold: [1\n", "dupes", "config file is not YAML"),
    ("threshold: [1]\n", "dupes", "config key 'threshold' must be an integer"),
    ("threshold: true\n", "livecheck", "config key 'threshold' must be an integer"),
    ("blacklist: 5\n", "dupes", "config key 'blacklist' must be a string or a list"),
    ("blacklist: [{a: 1}]\n", "livecheck", "config key 'blacklist' must be a string or a list"),
    ("iterations: [3]\n", "stats", "config key 'iterations' must be an integer"),
    ("engine: exernal\n", "variability", "config key 'engine' must be builtin or external"),
    ("engine: external\nrenderer_bin: 5\n", "variability",
     "config key 'renderer_bin' must be a string"),
    ("renderer_bin: 5\n", "variability", "config key 'renderer_bin' must be a string"),
    ("thresold: 2\n", "dupes", "unknown config key 'thresold'"),
    ("threshold: 2\nthreshold: 9\n", "dupes", "duplicate mapping key 'threshold'"),
    ("[]\n", "dupes", "config file must hold a YAML mapping"),
    ("0\n", "livecheck", "config file must hold a YAML mapping"),
    ("false\n", "stats", "config file must hold a YAML mapping"),
], ids=["not-yaml", "list-threshold", "bool-threshold", "int-blacklist", "mapping-in-blacklist",
        "list-iterations", "unknown-engine", "int-renderer-bin", "int-renderer-bin-builtin",
        "misspelt-key", "duplicate-key", "empty-list", "zero", "false"])
def test_malformed_config_file_exits_two(tmp_path, text, command, message):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED))
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": [1, 2, 3], "n2": [2, 3, 4]}))
    config = tmp_path / "chartqa.yaml"
    config.write_text(text)
    source = ["--groups", groups] if command == "stats" else ["--path", tmp_path / "charts"]
    proc = run_cli(command, *map(str, source), "--config", str(config))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("text", ["", "# no settings\n", "---\n"])
def test_an_empty_config_document_is_no_settings(tmp_path, text):
    config = tmp_path / "chartqa.yaml"
    config.write_text(text)
    args = _resolved(["dupes", "--path", "x", "--config", str(config)])
    assert args.threshold == cli._CONFIG_KEYS["threshold"][0]


@pytest.mark.parametrize("flag, body, error, message", [
    ("--groups", b"not json", InputFileError, "not JSON: Expecting value"),
    ("--groups", b'{"n1": [1, 2, 3], "n2": [\xff]}', InputFileError,
     "not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ("--config", b"threshold: 2\n# \xff\n", InputFileError,
     "config file is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ("--kb", b'{"web|t#0/a": "\xff"}', KnowledgeBaseError,
     "not UTF-8: 'utf-8' codec can't decode byte 0xff"),
], ids=["groups-not-json", "groups-not-utf8", "config-not-utf8", "kb-not-utf8"])
def test_input_file_not_utf8_or_not_json_is_a_typed_error_naming_it(tmp_path, caplog, flag,
                                                                   body, error, message):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED))
    bad = tmp_path / "bad-file"
    bad.write_bytes(body)
    command = {"--groups": ["stats", "--iterations", "5"],
               "--config": ["dupes", "--path", str(tmp_path / "charts")],
               "--kb": ["variability", "--path", str(tmp_path / "charts")]}[flag]
    argv = [*command, flag, str(bad)]
    args = cli.build_parser(argv).parse_args(argv)
    with pytest.raises(error, match=re.escape(f"{bad}: {message}")):
        cli._resolve(args)
        cli._COMMANDS[args.command][0](args)
    assert cli_dispatch(argv) == 2
    assert f"{bad}: {message}" in caplog.text


def _resolved(argv) -> argparse.Namespace:
    args = cli.build_parser(argv).parse_args(argv)
    cli._resolve(args)
    return args


# config key -> (a command taking it with its required flags, flag text,
# the value the flag gives, a config value); the config value differs from
# the flag's and from the default
_SETTING_CASES = {
    "threshold": (["dupes", "--path", "x"], "4", 4, 2),
    "blacklist": (["dupes", "--path", "x"], "a,b", "a,b", ["c", 1]),
    "seed": (["stats", "--groups", "x"], "7", 7, 9),
    "iterations": (["stats", "--groups", "x"], "20", 20, 30),
    "engine": (["variability", "--path", "x"], "builtin", "builtin", "external"),
    "renderer_bin": (["variability", "--path", "x"], "flag-bin", "flag-bin", "config-bin"),
}


@pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
def test_setting_flag_beats_config_beats_default(tmp_path, key):
    base, flag_text, flag_value, config_value = _SETTING_CASES[key]
    default = cli._CONFIG_KEYS[key][0]
    assert flag_value != config_value != default
    config = tmp_path / "chartqa.yaml"
    config.write_text(yaml.safe_dump({key: config_value}))
    flag = "--" + key.replace("_", "-")
    assert getattr(_resolved([*base, "--config", str(config), flag, flag_text]), key) == flag_value
    assert getattr(_resolved([*base, "--config", str(config)]), key) == config_value
    assert getattr(_resolved(base), key) == default


def test_default_blacklist_is_the_duplicate_config_default():
    assert cli._duplicate_config(_resolved(["dupes", "--path", "x"])) == DuplicateConfig()


def test_renderer_bin_flag_beats_config_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CHARTQA_RENDERER", "env-bin")
    config = tmp_path / "chartqa.yaml"
    config.write_text("engine: external\nrenderer_bin: config-bin\n")

    def binary(*argv):
        return cli._engine(_resolved(["variability", "--path", "x", *argv])).binary

    assert binary("--config", str(config), "--renderer-bin", "flag-bin") == "flag-bin"
    assert binary("--config", str(config)) == "config-bin"
    assert binary("--engine", "external") == "env-bin"


def test_every_config_key_is_a_flag():
    assert {key.replace("_", "-") for key in cli._CONFIG_KEYS} <= set(cli._FLAGS)


@pytest.mark.parametrize("argv, missing", [
    (["snapshot", "--snapshot-store", "s"], "--index"),
    (["snapshot", "--index", "i"], "--snapshot-store"),
    (["analyze"], "--path"),
    (["dupes"], "--path"),
    (["variability"], "--path"),
    (["suggest"], "--path"),
    (["livecheck"], "--path"),
    (["changes"], "--snapshot-store"),
    (["trends"], "--snapshot-store"),
    (["stats"], "--groups"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_missing_required_flag_exits_two_with_that_commands_usage(capsys, argv, missing):
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: chartqa {argv[0]} ")
    assert f"the following arguments are required: {missing}" in captured.err


def test_livecheck_skips_chart_file_that_is_not_utf8(tmp_path):
    write_chart_dir(tmp_path, "good", chart_files(name="good", values={"app": "x"},
                                                  templates=CLEAN_TEMPLATES,
                                                  maintainers=MAINTAINED))
    write_chart_dir(tmp_path, "bad", chart_files(name="bad", maintainers=MAINTAINED))
    (tmp_path / "bad" / "templates").mkdir(exist_ok=True)
    (tmp_path / "bad" / "templates" / "cafe.yaml").write_bytes(b"name: caf\xe9\n")
    proc = run_cli("livecheck", "--path", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [c["chart"] for c in json.loads(proc.stdout)["charts"]] == ["good-1.0.0.tgz"]
    assert "skipping bad: MetadataParseError: templates/cafe.yaml is not UTF-8" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["livecheck", "--path", "{charts}", "--out", "{tmp}/out"],
    ["dupes", "--path", "{charts}", "--kb", "{tmp}/kb.json"],
    ["stats", "--groups", "{groups}", "--iterations", "5", "--path", "{charts}"],
    ["graph", "--path", "{charts}", "--format", "dot"],
    ["trends", "--snapshot-store", "{store}", "--jobs", "4"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_the_command_does_not_read_exits_two(tmp_path, capsys, argv):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={"app": "x"}, templates=CLEAN_TEMPLATES,
                                maintainers=MAINTAINED))
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": [1, 2, 3], "n2": [2, 3, 4]}))
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    argv = [arg.format(charts=tmp_path / "charts", tmp=tmp_path, groups=groups, store=store.root)
            for arg in argv]
    assert cli_dispatch(argv[:-2]) == 0  # the same command without the flag runs
    capsys.readouterr()
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err
    assert not (tmp_path / "out").exists() and not (tmp_path / "kb.json").exists()


def test_flag_the_command_does_not_read_shows_that_commands_usage(tmp_path):
    proc = run_cli("livecheck", "--path", str(tmp_path), "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: chartqa livecheck [-h] [--config CONFIG] --path PATH")
    assert f"chartqa livecheck: error: unrecognized arguments: --out {tmp_path / 'x'}" \
        in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["authorsets", "irregularities", "graph"])
def test_index_command_without_source_names_both_flags(caplog, command):
    with caplog.at_level(logging.ERROR, logger="chartqa"):
        assert cli_dispatch([command]) == 2
    assert "needs --index or --path" in caplog.text


def test_programming_error_in_a_handler_propagates(monkeypatch):
    def broken(settings):
        raise KeyError("bug")

    _, help_text, flags = cli._COMMANDS["dupes"]
    monkeypatch.setitem(cli._COMMANDS, "dupes", (broken, help_text, flags))
    with pytest.raises(KeyError, match="bug"):
        cli_dispatch(["dupes", "--path", "."])


def test_variability_persists_kb(tmp_path, capsys):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates={
                        "s.yaml": "pw: {{ randAlphaNum 16 }}\n",
                    }, maintainers=MAINTAINED))
    kb_path = tmp_path / "kb.json"
    code = cli_dispatch(["variability", "--path", str(tmp_path / "charts"),
                         "--kb", str(kb_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kb_entries"] == 1
    flat = json.loads(kb_path.read_text())
    assert list(flat) == ["web|templates/s.yaml#0/pw"]


RANDOM_TEMPLATES = {"s.yaml": "pw: {{ randAlphaNum 8 }}\n"}


def test_variability_chart_without_templates_is_not_a_failure(tmp_path, capsys):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "a", chart_files(name="a", values={}, templates=RANDOM_TEMPLATES))
    write_chart_dir(charts, "b", chart_files(name="b", values={}))
    kb_path = tmp_path / "kb.json"
    assert cli_dispatch(["variability", "--path", str(charts), "--kb", str(kb_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["learned"] == {"a-1.0.0.tgz": ["templates/s.yaml#0/pw"], "b-1.0.0.tgz": []}
    assert list(json.loads(kb_path.read_text())) == ["a|templates/s.yaml#0/pw"]


def test_variability_skips_chart_whose_every_template_fails(tmp_path, capsys, caplog):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "a", chart_files(name="a", values={}, templates=RANDOM_TEMPLATES))
    write_chart_dir(charts, "c", chart_files(name="c", values={}, templates={
        "t.yaml": "k: {{ .Values.absent }}\n",
    }))
    kb_path = tmp_path / "kb.json"
    assert cli_dispatch(["variability", "--path", str(charts), "--kb", str(kb_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"learned": {"a-1.0.0.tgz": ["templates/s.yaml#0/pw"]}, "kb_entries": 1}
    assert list(json.loads(kb_path.read_text())) == ["a|templates/s.yaml#0/pw"]
    assert "skipping c-1.0.0.tgz: c: every template failed" in caplog.text


def test_suggest_writes_diffs_and_outbox(tmp_path, capsys):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={"app": "x"}, templates={
                        "t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n",
                    }, maintainers=MAINTAINED))
    out = tmp_path / "out"
    code = cli_dispatch(["suggest", "--path", str(tmp_path / "charts"),
                         "--out", str(out), "--base-url", "http://qa.local"])
    assert code == 1
    summary = json.loads((out / "suggest.json").read_text())
    assert summary["diffs"][0]["chart"] == "web-1.0.0.tgz"
    diff_text = (out / "diffs" / "web-1.0.0.tgz.patch").read_text()
    assert "{{ .Values.suggestions.var1 }}" in diff_text
    outbox = sorted(p.name for p in (out / "outbox").iterdir())
    assert outbox == ["a_at_x.io.eml"]


def test_suggest_leaves_only_its_own_diffs_and_digests(tmp_path):
    for name, email in (("web", "a@x.io"), ("api", "b@x.io")):
        write_chart_dir(tmp_path / "both", name, chart_files(
            name=name, templates=DUPE_TEMPLATES, maintainers=[{"name": name, "email": email}]))
    write_chart_dir(tmp_path / "one", "web", chart_files(
        name="web", templates=DUPE_TEMPLATES, maintainers=[{"name": "web", "email": "a@x.io"}]))
    out = tmp_path / "out"
    assert cli_dispatch(["suggest", "--path", str(tmp_path / "both"), "--out", str(out)]) == 1
    assert sorted(os.listdir(out / "diffs")) == ["api-1.0.0.tgz.patch", "web-1.0.0.tgz.patch"]
    assert sorted(os.listdir(out / "outbox")) == ["a_at_x.io.eml", "b_at_x.io.eml"]
    for kept in ("diffs/notes.txt", "outbox/notes.txt"):  # not a file suggest writes
        (out / kept).write_text("mine")
    assert cli_dispatch(["suggest", "--path", str(tmp_path / "one"), "--out", str(out)]) == 1
    summary = json.loads((out / "suggest.json").read_text())
    assert [os.path.basename(diff["diff"]) for diff in summary["diffs"]] == [
        "web-1.0.0.tgz.patch"]
    assert [os.path.basename(path) for path in summary["outbox"]] == ["a_at_x.io.eml"]
    assert sorted(os.listdir(out / "diffs")) == ["notes.txt", "web-1.0.0.tgz.patch"]
    assert sorted(os.listdir(out / "outbox")) == ["a_at_x.io.eml", "notes.txt"]


def test_suggest_verifies_charts_with_random_values(tmp_path):
    # a random-value key must not spoil verification: the probe learns it
    # and both renders are pinned to the learned value before comparing
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates={
                        "t.yaml": "a: dup-me\nb: dup-me\nc: dup-me\n"
                                  "pw: {{ randAlphaNum 16 }}\n",
                    }, maintainers=MAINTAINED))
    out = tmp_path / "out"
    assert cli_dispatch(["suggest", "--path", str(tmp_path / "charts"),
                         "--out", str(out)]) == 1
    diff_text = (out / "diffs" / "web-1.0.0.tgz.patch").read_text()
    assert "dup-me" in diff_text


def test_suggest_on_a_template_named_with_a_hash(tmp_path):
    # the occurrence names its template; nothing splits a key path on "#"
    write_chart_dir(tmp_path / "charts", "web", chart_files(values={}, templates={
        "a#b.yaml": "a: dup-value\nb: dup-value\nc: dup-value\n",
    }, maintainers=MAINTAINED))
    out = tmp_path / "out"
    proc = run_cli("suggest", "--path", str(tmp_path / "charts"), "--out", str(out))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    diff_text = (out / "diffs" / "web-1.0.0.tgz.patch").read_text()
    assert "+++ b/web/templates/a#b.yaml" in diff_text
    assert "{{ .Values.suggestions.var1 }}" in diff_text


def test_suggest_skips_chart_that_cannot_render(tmp_path):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "web", chart_files(values={}, templates={
        "t.yaml": 'a: dup-me\nb: dup-me\nc: dup-me\nd: {{ include "x" . }}\n',
    }, maintainers=MAINTAINED))
    write_chart_dir(charts, "ok", chart_files(name="ok", values={}, templates={
        "t.yaml": "a: dup-ok\nb: dup-ok\nc: dup-ok\n",
    }, maintainers=MAINTAINED))
    out = tmp_path / "out"
    assert cli_dispatch(["suggest", "--path", str(charts), "--out", str(out)]) == 1
    summary = json.loads((out / "suggest.json").read_text())
    assert [d["chart"] for d in summary["diffs"]] == ["ok-1.0.0.tgz"]
    assert sorted(p.name for p in (out / "outbox").iterdir()) == ["a_at_x.io.eml"]


@pytest.mark.parametrize("bad_name", ["../../escaped", "{tmp}/abs/escaped"],
                         ids=["relative", "absolute"])
def test_suggest_skips_a_chart_whose_name_would_place_its_diff_outside_out(tmp_path, caplog,
                                                                           bad_name):
    (tmp_path / "abs").mkdir()
    charts = tmp_path / "charts"
    for directory, name in (("bad", bad_name.format(tmp=tmp_path)), ("good", "good")):
        write_chart_dir(charts, directory, chart_files(
            name=name, values={}, templates=DUPE_TEMPLATES, maintainers=MAINTAINED))
    out = tmp_path / "out" / "o"
    with caplog.at_level(logging.WARNING, logger="chartqa"), \
            writes_outside(tmp_path, "out/o") as outside:
        code = cli_dispatch(["suggest", "--path", str(charts), "--out", str(out)])
    assert outside == []
    assert code == 1
    summary = json.loads((out / "suggest.json").read_text())
    assert [d["chart"] for d in summary["diffs"]] == ["good-1.0.0.tgz"]
    assert os.listdir(out / "diffs") == ["good-1.0.0.tgz.patch"]
    assert "skipping bad: MetadataParseError: Chart.yaml has unusable name" in caplog.text


def test_commands_writing_outputs_write_nothing_else(tmp_path):
    shutil.copytree(os.path.join(GOLDEN, "charts"), tmp_path / "charts")
    charts = str(tmp_path / "charts")
    runs = [
        (["analyze", "--path", charts, "--format", "csv", "--out", str(tmp_path / "a")], ["a"]),
        (["variability", "--path", charts, "--kb", str(tmp_path / "kb" / "kb.json"),
          "--out", str(tmp_path / "v")], ["kb/kb.json", "v"]),
        (["suggest", "--path", charts, "--out", str(tmp_path / "s")], ["s"]),
    ]
    for argv, outputs in runs:
        with writes_outside(tmp_path, *outputs) as outside:
            code = cli_dispatch(argv)
        assert code in (0, 1), argv
        assert outside == [], argv
    assert sorted(os.listdir(tmp_path)) == ["a", "charts", "kb", "s", "v"]
    assert os.listdir(tmp_path / "kb") == ["kb.json"]


def test_self_referencing_alias_is_reported_not_fatal(tmp_path):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "bad", chart_files(
        name="bad", templates={"t.yaml": "a: &x [1, *x]"}, maintainers=MAINTAINED,
    ))
    write_chart_dir(charts, "web", chart_files(
        values={}, templates=DUPE_TEMPLATES, maintainers=MAINTAINED,
    ))
    out = tmp_path / "out"
    runs = {
        "dupes": run_cli("dupes", "--path", str(charts)),
        "livecheck": run_cli("livecheck", "--path", str(charts)),
        "analyze": run_cli("analyze", "--path", str(charts), "--out", str(out)),
    }
    for command, proc in runs.items():
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, (command, proc.stderr)
    dupes = {d["chart"]: d for d in json.loads(runs["dupes"].stdout)["sections"]["duplicates"]}
    assert [t["template"] for t in dupes["bad-1.0.0.tgz"]["unparseable_templates"]] == [
        "templates/t.yaml"
    ]
    assert dupes["web-1.0.0.tgz"]["group_count"] == 1
    livecheck = json.loads(runs["livecheck"].stdout)
    assert [c["chart"] for c in livecheck["charts"]] == ["bad-1.0.0.tgz", "web-1.0.0.tgz"]
    quality = {q["chart"]: q for q in
               json.loads((out / "report.json").read_text())["sections"]["quality"]}
    assert [(f["template"], f["category"]) for f in quality["bad-1.0.0.tgz"]["render_failures"]] \
        == [("templates/t.yaml", "SyntaxError")]
    assert quality["web-1.0.0.tgz"]["duplicate"]["group_count"] == 1


def test_authorsets_and_irregularities_from_index_file(tmp_path, capsys):
    raw = make_index_yaml({
        "redis": [
            {"version": "1.0.0", "maintainers": [{"name": "alice", "email": "a@x.io"}]},
            {"version": "1.1.0", "maintainers": [{"name": "alice", "email": "a@x.io"}]},
        ],
        "orphan": [{"version": "0.1.0"}],
    })
    index_path = tmp_path / "index.yaml"
    index_path.write_bytes(raw)

    assert cli_dispatch(["authorsets", "--index", str(index_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    metrics = payload["sections"]["maintainer_metrics"]
    assert metrics["maintainers"]["value"] == 1
    assert metrics["maintainer_sets"]["value"] == 2  # alice + nobody bucket

    assert cli_dispatch(["irregularities", "--index", str(index_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    section = payload["sections"]["irregularities"]
    assert section["no_maintainer"] == ["orphan-0.1.0.tgz"]
    assert section["multiple_versions"] == ["redis"]


def test_irregularities_index_with_non_list_maintainers(tmp_path):
    index_path = tmp_path / "index.yaml"
    index_path.write_bytes(make_index_yaml({"redis": [{"version": "1.0.0", "maintainers": 5}]}))
    proc = run_cli("irregularities", "--index", str(index_path))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    section = json.loads(proc.stdout)["sections"]["irregularities"]
    assert section["no_maintainer"] == ["redis-1.0.0.tgz"]


def test_graph_from_index_file(tmp_path, capsys):
    raw = make_index_yaml({
        "redis": [{"version": "1.0.0",
                   "maintainers": [{"name": "alice", "email": "a@x.io"}]}],
    })
    index_path = tmp_path / "index.yaml"
    index_path.write_bytes(raw)
    assert cli_dispatch(["graph", "--index", str(index_path)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("digraph charts {")
    assert '"maintainer_alice" -> "chart_redis";' in text


def _write_repo(tmp_path, version: str, extra_chart: bool = False):
    repo = tmp_path / f"repo-{version}"
    repo.mkdir()
    entries = {}
    archive = make_archive(chart_files(name="web", version=version,
                                       maintainers=MAINTAINED), "web")
    (repo / f"web-{version}.tgz").write_bytes(archive)
    entries["web"] = [{
        "version": version,
        "urls": [f"web-{version}.tgz"],
        "digest": sha256_digest(archive),
        "maintainers": [{"name": "alice", "email": "a@x.io"}],
    }]
    if extra_chart:
        other = make_archive(chart_files(name="db", version="0.1.0",
                                         maintainers=MAINTAINED), "db")
        (repo / "db-0.1.0.tgz").write_bytes(other)
        entries["db"] = [{
            "version": "0.1.0", "urls": ["db-0.1.0.tgz"],
            "digest": sha256_digest(other),
            "maintainers": [{"name": "alice", "email": "a@x.io"}],
        }]
    (repo / "index.yaml").write_bytes(make_index_yaml(entries))
    return repo


def test_snapshot_changes_trends_flow(tmp_path, capsys):
    store_dir = tmp_path / "store"
    # day one recorded through the API with a pinned date
    repo1 = _write_repo(tmp_path, "1.0.0")
    raw1 = (repo1 / "index.yaml").read_bytes()
    index1 = parse_repo_index(
        raw1, str(repo1 / "index.yaml"),
        fetched_at=datetime.datetime(2018, 5, 14, tzinfo=datetime.timezone.utc),
    )
    archives1 = {"web-1.0.0.tgz": (repo1 / "web-1.0.0.tgz").read_bytes()}
    SnapshotStore(str(store_dir)).record(index1, archives1)

    # day two recorded through the CLI (dated today)
    repo2 = _write_repo(tmp_path, "1.1.0", extra_chart=True)
    code = cli_dispatch(["snapshot", "--index", str(repo2 / "index.yaml"),
                         "--snapshot-store", str(store_dir)])
    assert code == 0
    snap_payload = json.loads(capsys.readouterr().out)
    assert snap_payload["charts"] == 2

    assert cli_dispatch(["changes", "--snapshot-store", str(store_dir)]) == 0
    changes = json.loads(capsys.readouterr().out)
    assert changes["vupdates"] == [
        {"removed": "web-1.0.0.tgz", "added": "web-1.1.0.tgz"},
    ]
    assert changes["added"] == ["db-0.1.0.tgz"]

    assert cli_dispatch(["trends", "--snapshot-store", str(store_dir)]) == 0
    trends = json.loads(capsys.readouterr().out)
    (period,) = trends["sections"]["trends"]["periods"]
    assert period["metrics"]["charts"]["start"] == 1
    assert period["metrics"]["charts"]["end"] == 2
    levels = {a["stem"]: a["level"] for a in trends["sections"]["activity"]}
    assert levels["web"] == "RegularlyChanged"


REMOTE_INDEX = "https://charts.example/repo/index.yaml"


@pytest.mark.parametrize("url, fetched", [
    ("/etc/hostname", "https://charts.example/etc/hostname"),
    ("web-1.0.0.tgz", "https://charts.example/repo/web-1.0.0.tgz"),
    ("../web-1.0.0.tgz", "https://charts.example/web-1.0.0.tgz"),
    ("https://mirror.example/web-1.0.0.tgz", "https://mirror.example/web-1.0.0.tgz"),
    ("file:///etc/hostname", None),
    ("etc:hostname", None),
])
def test_snapshot_resolves_the_urls_of_a_remote_index_against_it(tmp_path, monkeypatch, caplog,
                                                                 url, fetched):
    archive = make_archive(chart_files(name="web", maintainers=MAINTAINED), "web")
    raw = make_index_yaml({"web": [{"version": "1.0.0", "urls": [url]}]})
    asked = []

    def fetch(location, expected_digest=None):
        if location == REMOTE_INDEX:
            return raw
        asked.append(location)
        return archive

    monkeypatch.setattr(ingest, "fetch_archive", fetch)
    with writes_outside(tmp_path, "store", "out") as outside:
        code = cli_dispatch(["snapshot", "--index", REMOTE_INDEX, "--snapshot-store",
                             str(tmp_path / "store"), "--out", str(tmp_path / "out")])
    assert outside == []
    if fetched is None:  # no url of a remote index may name a file here
        assert code == 2 and asked == []
        assert f"url {url!r} of web-1.0.0.tgz is not http(s)" in caplog.text
    else:
        assert code == 0 and asked == [fetched]


def _record_days(store_dir, *days):
    store = SnapshotStore(str(store_dir))
    for day, version in enumerate(days):
        index = parse_repo_index(
            make_index_yaml({"web": [{"version": version}]}), "memory:",
            fetched_at=datetime.datetime(2018, 5, 14 + day, tzinfo=datetime.timezone.utc),
        )
        store.record(index, {f"web-{version}.tgz": version.encode()})
    return store


@pytest.mark.parametrize("edit", [
    lambda manifest: [],
    lambda manifest: {**manifest, "fetched_at": 5},
    lambda manifest: {**manifest, "fetched_at": 20180514},
    lambda manifest: {k: v for k, v in manifest.items() if k != "fetched_at"},
    lambda manifest: {**manifest, "fetched_at": "yesterday"},
    lambda manifest: {**manifest, "source": None},
    lambda manifest: {**manifest, "digests": ["web-1.0.0.tgz"]},
    lambda manifest: {**manifest, "digests": {"web-1.0.0.tgz": 5}},
    lambda manifest: {**manifest, "index": 5},
    lambda manifest: "{",
], ids=["list", "int-fetched-at", "int-date-fetched-at", "no-fetched-at", "non-iso-fetched-at", "null-source",
        "list-digests", "int-digest", "int-index", "not-json"])
@pytest.mark.parametrize("command", ["changes", "trends"])
def test_malformed_manifest_exits_two_naming_the_snapshot(tmp_path, caplog, command, edit):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    manifest_path = tmp_path / "store" / "2018-05-14" / "manifest.json"
    edited = edit(json.loads(manifest_path.read_text()))
    manifest_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with caplog.at_level(logging.ERROR, logger="chartqa"):
        assert cli_dispatch([command, "--snapshot-store", store.root]) == 2
    assert "snapshot 2018-05-14" in caplog.text


def test_changes_across_a_store_recorded_before_versions_were_read_as_written(tmp_path, capsys):
    store = SnapshotStore(str(tmp_path / "store"))
    write_pre_reader_snapshot(store.root, "2018-05-14")
    store.record(parse_repo_index(DB_1_10, "memory:", fetched_at=datetime.datetime(
        2018, 5, 15, tzinfo=datetime.timezone.utc)), {})
    assert cli_dispatch(["changes", "--snapshot-store", store.root]) == 0
    changes = json.loads(capsys.readouterr().out)
    assert (changes["added"], changes["removed"], changes["vupdates"]) == ([], [], [])


def test_trends_diffs_each_snapshot_pair_once(tmp_path, capsys, monkeypatch):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0", "1.2.0")
    calls = count_calls(monkeypatch, "detect_changes", analytics)
    assert cli_dispatch(["trends", "--snapshot-store", store.root]) == 0
    assert [(a.id, b.id) for a, b in calls] == [
        ("2018-05-14", "2018-05-15"), ("2018-05-15", "2018-05-16"),
    ]


def test_stats_command(tmp_path, capsys):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": list(range(30)), "n2": [1, 2, 2, 3, 5]}))
    code = cli_dispatch(["stats", "--groups", str(groups),
                         "--iterations", "50", "--seed", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    stats_section = payload["sections"]["statistics"]
    assert stats_section["seed"] == 7
    assert stats_section["iterations"] == 50
    assert stats_section["prng"] == "pcg64"
    assert 0.0 <= stats_section["smallest_p"] <= 1.0


@pytest.mark.parametrize("document", [
    [1, 2, 3],
    {"n1": [1, 2, 3]},
    {"n1": [1, 2, 3], "n2": [1, None]},
    {"n1": [1, 2, 3], "n2": [1, "2"]},
    {"n1": [1, 2, True], "n2": [1]},
    {"n1": [1, 2, 3], "n2": [float("nan"), 1]},
    {"n1": [1, 2, 3, 10 ** 400], "n2": [1]},  # no float can hold it
], ids=["list", "missing-n2", "null-value", "string-value", "bool-value", "nan-value",
        "huge-int-value"])
def test_stats_malformed_groups_file_exits_two(tmp_path, document):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps(document))
    proc = run_cli("stats", "--groups", str(groups), "--iterations", "5")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{groups}: want a JSON object with n1 and n2 lists of finite numbers" in proc.stderr


@pytest.mark.parametrize("reader", ["groups", "kb", "manifest"])
def test_deeply_nested_json_is_a_typed_error_naming_the_file(tmp_path, reader):
    # the JSON decoder recurses once per level and raises RecursionError
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED))
    if reader == "groups":
        path = tmp_path / "groups.json"
        argv = ["stats", "--groups", str(path), "--iterations", "5"]
    elif reader == "kb":
        path = tmp_path / "kb.json"
        argv = ["variability", "--path", str(tmp_path / "charts"), "--kb", str(path)]
    else:
        store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
        path = tmp_path / "store" / "2018-05-14" / "manifest.json"
        argv = ["changes", "--snapshot-store", store.root]
    path.write_text("[" * 100_000)
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{path}: nested too deeply to read" in proc.stderr
    assert proc.stdout == ""


# a flow sequence opened a million times: a recursive reader overflows the C stack on it
DEEP_FLOW = "[" * 10**6


@pytest.mark.parametrize("where", ["template", "values.yaml", "Chart.yaml",
                                   "requirements.yaml", "index", "config"])
def test_deep_flow_nesting_is_a_typed_error_in_every_yaml_input(tmp_path, where):
    files = chart_files(values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED)
    argv = ["dupes", "--path", str(tmp_path / "charts")]
    if where == "template":
        files["templates/deep.yaml"] = DEEP_FLOW
    elif where.endswith(".yaml"):
        files[where] = DEEP_FLOW
    else:
        path = tmp_path / f"{where}.yaml"
        path.write_text(DEEP_FLOW)
        argv = ["irregularities", "--index", str(path)] if where == "index" \
            else ["dupes", "--config", str(path), *argv[1:]]
    write_chart_dir(tmp_path / "charts", "web", files)
    proc = run_limited(*argv)
    if where == "template":  # the chart is read, and the template reported unparseable
        assert proc.returncode == 0, proc.stderr
        (chart,) = json.loads(proc.stdout)["sections"]["duplicates"]
        (unparseable,) = chart["unparseable_templates"]
        assert unparseable["template"] == "templates/deep.yaml"
        assert "nested deeper than 100 levels" in unparseable["reason"]
    elif where.endswith(".yaml"):  # the chart, the tree's only one, is skipped as unparseable
        assert proc.returncode == 2, proc.stderr
        assert f"{where} invalid: nested deeper than 100 levels" in proc.stderr
        assert "no parseable chart found" in proc.stderr
        assert proc.stdout == ""
    else:
        assert proc.returncode == 2
        assert "nested deeper than 100 levels" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("where", ["templates/deep.yaml", "values.yaml"])
def test_analyze_reports_the_charts_beside_one_nested_too_deeply(tmp_path, where):
    charts = tmp_path / "charts"
    files = chart_files(name="deep", values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED)
    files[where] = DEEP_FLOW
    write_chart_dir(charts, "deep", files)
    good = [f"good{n:02d}" for n in range(21)]
    for name in good:
        write_chart_dir(charts, name, chart_files(name=name, values={}, templates=DUPE_TEMPLATES,
                                                  maintainers=MAINTAINED))
    out = tmp_path / "out"
    proc = run_limited("analyze", "--path", str(charts), "--jobs", "2", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "worker process" not in proc.stderr, proc.stderr
    reported = [chart["chart"] for chart in
                json.loads((out / "report.json").read_text())["sections"]["quality"]]
    assert [name for name in reported if name.startswith("good")] == \
        [f"{name}-1.0.0.tgz" for name in good]


# 99 mappings nested under 1000-character keys around a list of 95 000 items
# (289 KB): key paths for its leaves would take about 9.4 GB
NESTED_KEYS = "{" + ("k" * 1000 + ": {") * 98 + "k" * 1000 + ": [" + "0," * 95_000 + "]" \
    + "}" * 99 + "\n"
# a chart file the --path tree's "bad" chart holds, what writes it there, and
# why the chart is skipped, or None where it is read
HOSTILE_FILES = {
    "dangling-symlink": ("values.yaml", lambda path: os.symlink(f"{path}.gone", path),
                         "FileNotFoundError: [Errno 2] No such file or directory"),
    "fifo": ("templates/f.yaml", os.mkfifo, "FetchError: templates/f.yaml is not a regular file"),
    "dev-zero": ("values.yaml", lambda path: os.symlink("/dev/zero", path),
                 "FetchError: values.yaml is not a regular file"),
    "oversize": ("values.yaml", lambda path: path.write_text("k: " + "x" * (6 << 20) + "\n"),
                 "FetchError: values.yaml holds over 5242880 bytes"),
    "nested-keys": ("values.yaml", lambda path: path.write_text(NESTED_KEYS), None),
}


@pytest.mark.parametrize("hostile", HOSTILE_FILES)
def test_a_hostile_chart_file_skips_its_chart_and_the_tree_is_reported(tmp_path, hostile):
    rel, make, reason = HOSTILE_FILES[hostile]
    charts = tmp_path / "charts"
    write_chart_dir(charts, "good", chart_files(name="good", values={}, templates=CLEAN_TEMPLATES,
                                                maintainers=MAINTAINED))
    write_chart_dir(charts, "bad", chart_files(name="bad", templates=CLEAN_TEMPLATES,
                                               maintainers=MAINTAINED))
    make(charts / "bad" / rel)
    started = time.monotonic()
    proc = run_limited("dupes", "--path", str(charts), cpu_seconds=2, wall_seconds=2)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    reported = [chart["chart"] for chart in json.loads(proc.stdout)["sections"]["duplicates"]]
    if reason is None:
        assert reported == ["bad-1.0.0.tgz", "good-1.0.0.tgz"]
        assert "skipping" not in proc.stderr
        return
    assert reported == ["good-1.0.0.tgz"]
    assert f"WARNING skipping bad: {reason}" in proc.stderr
    if hostile == "fifo":
        assert elapsed < 1


def test_a_fifo_named_like_an_archive_skips_only_itself(tmp_path):
    charts = tmp_path / "charts"
    write_chart_dir(charts, "good", chart_files(name="good", values={}, templates=CLEAN_TEMPLATES,
                                                maintainers=MAINTAINED))
    os.mkfifo(charts / "x-1.0.0.tgz")
    started = time.monotonic()
    proc = run_limited("dupes", "--path", str(charts), cpu_seconds=2, wall_seconds=2)
    assert time.monotonic() - started < 1
    assert proc.returncode == 0, proc.stderr
    reported = [chart["chart"] for chart in json.loads(proc.stdout)["sections"]["duplicates"]]
    assert reported == ["good-1.0.0.tgz"]
    assert "WARNING skipping x-1.0.0.tgz: FetchError: x-1.0.0.tgz is not a regular file" \
        in proc.stderr


def _reading_command(tmp_path, reads: str) -> tuple[list[str], str]:
    """A command that reads the input ``reads`` names, and the path it reads it at."""
    charts = tmp_path / "charts"
    write_chart_dir(charts, "web", chart_files(values={}, templates=CLEAN_TEMPLATES,
                                               maintainers=MAINTAINED))
    if reads in ("kb", "config"):
        path = tmp_path / "input"
        command = "variability" if reads == "kb" else "dupes"
        return [command, "--path", str(charts), f"--{reads}", str(path)], str(path)
    if reads == "groups":
        path = tmp_path / "groups.json"
        return ["stats", "--groups", str(path), "--iterations", "5"], str(path)
    if reads in ("index", "archive"):
        repo = _write_repo(tmp_path, "1.0.0")
        path = repo / ("index.yaml" if reads == "index" else "web-1.0.0.tgz")
        return ["snapshot", "--index", str(repo / "index.yaml"),
                "--snapshot-store", str(tmp_path / "store")], str(path)
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    path = os.path.join(store.root, "2018-05-14", reads)
    return ["changes", "--snapshot-store", store.root], path


@pytest.mark.parametrize("kind", ["fifo", "dev-zero"])
@pytest.mark.parametrize("reads", ["kb", "groups", "config", "index", "archive",
                                   "manifest.json", "index.yaml"])
def test_a_hostile_input_file_exits_two_naming_it(tmp_path, reads, kind):
    argv, path = _reading_command(tmp_path, reads)
    if os.path.lexists(path):
        os.unlink(path)
    if kind == "fifo":
        os.mkfifo(path)
    else:
        os.symlink("/dev/zero", path)
    started = time.monotonic()
    proc = run_limited(*argv, cpu_seconds=2, wall_seconds=2)
    elapsed = time.monotonic() - started
    assert proc.returncode == 2, proc.stderr
    assert f"{path} is not a regular file" in proc.stderr
    if reads.endswith((".json", ".yaml")):
        assert "ERROR cannot load snapshot 2018-05-14: " in proc.stderr
    assert proc.stdout == ""
    if kind == "fifo":
        assert elapsed < 1


def test_a_template_of_key_paths_past_the_bound_is_unparseable_and_its_chart_reported(tmp_path):
    charts = tmp_path / "charts"
    files = chart_files(name="bad", values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED)
    files["templates/n.yaml"] = NESTED_KEYS
    write_chart_dir(charts, "bad", files)
    write_chart_dir(charts, "good", chart_files(name="good", values={}, templates=CLEAN_TEMPLATES,
                                                maintainers=MAINTAINED))
    proc = run_limited("dupes", "--path", str(charts), cpu_seconds=10, wall_seconds=10)
    assert proc.returncode == 0, proc.stderr
    bad, good = json.loads(proc.stdout)["sections"]["duplicates"]
    assert (bad["chart"], good["chart"]) == ("bad-1.0.0.tgz", "good-1.0.0.tgz")
    (unparseable,) = bad["unparseable_templates"]
    assert unparseable["template"] == "templates/n.yaml"
    assert "builds key paths of more than 33554432 characters" in unparseable["reason"]


def test_a_two_document_values_yaml_skips_its_chart(tmp_path, caplog):
    charts = tmp_path / "charts"
    for name in ("bad", "good"):
        write_chart_dir(charts, name, chart_files(name=name, values={}, maintainers=MAINTAINED))
    (charts / "bad" / "values.yaml").write_text("a: 1\n---\nb: 2\n")
    with caplog.at_level(logging.WARNING, logger="chartqa"):
        assert cli_dispatch(["livecheck", "--path", str(charts)]) == 0
    assert [record.getMessage() for record in caplog.records] == [
        "skipping bad: MetadataParseError: values.yaml invalid: "
        "expected a single document in the stream"]


def test_variability_kb_list_document_exits_two(tmp_path):
    write_chart_dir(tmp_path / "charts", "web",
                    chart_files(values={}, templates=CLEAN_TEMPLATES, maintainers=MAINTAINED))
    kb_path = tmp_path / "kb.json"
    kb_path.write_text("[]")
    proc = run_cli("variability", "--path", str(tmp_path / "charts"), "--kb", str(kb_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{kb_path}: want a JSON object of string values" in proc.stderr
    assert kb_path.read_text() == "[]"  # a rejected file is not overwritten


def test_snapshot_of_a_url_holding_nul_is_a_fetch_error(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "index.yaml").write_bytes(
        make_index_yaml({"web": [{"version": "1.0.0", "urls": ["web\0.tgz"]}]}))
    proc = run_cli("snapshot", "--index", str(repo / "index.yaml"),
                   "--snapshot-store", str(tmp_path / "store"))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert f"ERROR cannot read {repo}/web\0.tgz: embedded null byte" in proc.stderr
    assert SnapshotStore(str(tmp_path / "store")).ids() == []


def test_trends_over_a_store_entry_not_named_by_date_exits_two(tmp_path, caplog):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    shutil.copytree(os.path.join(store.root, "2018-05-15"), os.path.join(store.root, "copy"))
    with caplog.at_level(logging.ERROR, logger="chartqa"):
        assert cli_dispatch(["trends", "--snapshot-store", store.root]) == 2
    assert "snapshot 'copy': name is not a date" in caplog.text


def test_trends_with_a_period_lacking_its_span_exits_two(tmp_path, caplog):
    store = _record_days(tmp_path / "store", "1.0.0", "1.1.0")
    with caplog.at_level(logging.ERROR, logger="chartqa"):
        assert cli_dispatch(["trends", "--snapshot-store", store.root,
                             "--periods", "q1=2018-05-14..2018-05-15;q2=2018-05-15"]) == 2
    assert "bad period spec 'q2=2018-05-15', want label=START..END" in caplog.text


def test_trends_over_one_snapshot_exits_two(tmp_path, caplog):
    store = _record_days(tmp_path / "store", "1.0.0")
    with caplog.at_level(logging.ERROR, logger="chartqa"):
        assert cli_dispatch(["trends", "--snapshot-store", store.root]) == 2
    assert "trends need at least two snapshots" in caplog.text


def test_a_plain_value_error_in_a_handler_keeps_its_traceback(monkeypatch, tmp_path):
    def handler(args):
        raise ValueError("a bug, not an operational error")

    _, help_text, flags = cli._COMMANDS["stats"]
    monkeypatch.setitem(cli._COMMANDS, "stats", (handler, help_text, flags))
    with pytest.raises(ValueError, match="a bug, not an operational error"):
        cli_dispatch(["stats", "--groups", str(tmp_path / "g.json")])


def test_snapshot_duplicate_day_is_operational_error(tmp_path, capsys):
    store_dir = tmp_path / "store"
    repo = _write_repo(tmp_path, "1.0.0")
    assert cli_dispatch(["snapshot", "--index", str(repo / "index.yaml"),
                         "--snapshot-store", str(store_dir)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["snapshot", "--index", str(repo / "index.yaml"),
                         "--snapshot-store", str(store_dir)]) == 2
