"""CLI contract: subcommands, exit codes, outputs."""

import argparse
import datetime
import functools
import json
import logging
import os
import subprocess
import sys

import pytest
import yaml

from chartqa import analytics, cli, ingest, quality
from chartqa.cli import cli_dispatch
from chartqa.errors import EngineUnavailable
from chartqa.ingest import SnapshotStore, parse_repo_index, sha256_digest
from chartqa.quality import DuplicateConfig, detect_duplicates

from conftest import (
    DB_1_10,
    chart_files,
    count_calls,
    make_archive,
    make_index_yaml,
    make_package,
    write_chart_dir,
    write_pre_reader_snapshot,
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


def test_import_leaves_numpy_and_requests_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chartqa, chartqa.cli; "
         "print(sorted({'numpy', 'requests', 'multiprocessing', 'concurrent.futures.process'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# runs cli_dispatch(argv[1:]) with its output discarded, then prints the modules loaded
LOADED_BY = """
import contextlib, io, json, sys
from chartqa.cli import cli_dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_dispatch(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def modules_loaded_by(*argv) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", LOADED_BY, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code in (0, 1), proc.stderr
    return set(modules)


def test_help_loads_only_the_parser():
    loaded = modules_loaded_by("--help")
    assert {m for m in loaded if m.startswith("chartqa")} == {
        "chartqa", "chartqa.cli", "chartqa.errors"}
    assert "yaml" not in loaded


def test_single_chart_livecheck_loads_no_render_rewrite_or_stats():
    loaded = modules_loaded_by("livecheck", "--path", os.path.join(GOLDEN, "charts", "web"))
    assert "chartqa.quality" in loaded
    assert not loaded & {"chartqa.rewrite", "chartqa.stats", "chartqa.render", "difflib",
                         "numpy", "requests"}


def test_stats_without_config_loads_no_yaml_render_or_quality(tmp_path):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"n1": list(range(12)), "n2": [1, 2, 3, 5, 8]}))
    loaded = modules_loaded_by("stats", "--groups", str(groups), "--iterations", "5")
    assert "chartqa.stats" in loaded
    assert not loaded & {"yaml", "chartqa.render", "chartqa.quality"}


def test_per_chart_spawned_workers_match_serial(tmp_path, monkeypatch, two_cpu_pool):
    import multiprocessing

    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: methods.append(method) or get_context(method))
    packages = [make_package(name=f"c{i}", templates=DUPE_TEMPLATES) for i in range(4)]
    detect = functools.partial(detect_duplicates, config=DuplicateConfig(threshold=2))
    assert cli._per_chart(detect, packages, 2) == [detect(pkg) for pkg in packages]
    # the per-chart commands' form: each worker reads its charts, one of which is corrupt
    for i in range(3):
        write_chart_dir(tmp_path, f"c{i}", chart_files(name=f"c{i}", templates=DUPE_TEMPLATES))
    (tmp_path / "corrupt-0.1.0.tgz").write_bytes(b"not a gzipped tar")
    locations = ingest.chart_locations(str(tmp_path))
    load_detect = functools.partial(cli._load_then, detect, str(tmp_path))
    results = cli._per_chart(load_detect, locations, 2)
    assert results == [load_detect(location) for location in locations]
    assert [type(result).__name__ for result in results] == ["IngestFailure"] + ["tuple"] * 3
    assert methods == ["spawn", "spawn"]


def test_per_chart_on_one_cpu_runs_here_without_multiprocessing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for name in ("multiprocessing", "concurrent.futures.process"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    charts = [f"c{i}" for i in range(4 * cli.MIN_CHARTS_PER_WORKER)]
    seen = []
    # a lambda cannot be sent to a worker, and ``seen`` fills only in this process
    assert cli._per_chart(lambda chart: seen.append(chart) or chart.upper(), charts, 4) == [
        chart.upper() for chart in charts]
    assert seen == charts
    assert "multiprocessing" not in sys.modules
    assert "concurrent.futures.process" not in sys.modules


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
    import multiprocessing

    _mixed_tree(tmp_path / "charts")
    argv = [*argv, "--path", str(tmp_path / "charts")]
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: methods.append(method) or get_context(method))
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
    assert len(methods) == 1  # the first run started a pool, the second ran here
    assert runs[0] == runs[1]
    assert runs[0][1] == ["skipping headless", "skipping nested/broken-0.1.0.tgz"]


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
], ids=["not-yaml", "list-threshold", "bool-threshold", "int-blacklist", "mapping-in-blacklist",
        "list-iterations", "unknown-engine", "int-renderer-bin", "int-renderer-bin-builtin",
        "misspelt-key", "duplicate-key"])
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


def _resolved(argv) -> argparse.Namespace:
    args = cli.build_parser().parse_args(argv)
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
], ids=["list", "missing-n2", "null-value", "string-value", "bool-value", "nan-value"])
def test_stats_malformed_groups_file_exits_two(tmp_path, document):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps(document))
    proc = run_cli("stats", "--groups", str(groups), "--iterations", "5")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "want a JSON object with n1 and n2 lists of finite numbers" in proc.stderr


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


def test_snapshot_duplicate_day_is_operational_error(tmp_path, capsys):
    store_dir = tmp_path / "store"
    repo = _write_repo(tmp_path, "1.0.0")
    assert cli_dispatch(["snapshot", "--index", str(repo / "index.yaml"),
                         "--snapshot-store", str(store_dir)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["snapshot", "--index", str(repo / "index.yaml"),
                         "--snapshot-store", str(store_dir)]) == 2
