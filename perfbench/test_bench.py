"""Self-tests of the benchmark: generator determinism, span arithmetic, metric names.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import corpus
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _tree_bytes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(corpus, "SCAN_CHARTS", 30)
    monkeypatch.setattr(corpus, "REWRITE_CHARTS", 10)
    monkeypatch.setattr(corpus, "EVOLUTION_CHARTS", 20)
    monkeypatch.setattr(corpus, "EVOLUTION_DAYS", 4)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, small_sizes, workload):
    trees, truths = [], []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        root = tmp_path / name
        truth = corpus.generate(workload, seed, str(root), SRC)
        trees.append(_tree_bytes(root))
        truths.append(json.dumps(truth, sort_keys=True).replace(str(root), "<root>"))
    assert trees[0] == trees[1]
    assert truths[0] == truths[1]
    assert trees[0] != trees[2]


def test_archives_have_fixed_mtimes():
    files = {"Chart.yaml": "name: a\nversion: 1.0.0\n"}
    assert corpus.pack_archive("a", files) == corpus.pack_archive("a", files)


def test_covered_is_the_union_of_intervals():
    assert spans.covered([]) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(0, 10), (2, 3)]) == 10


def test_self_time_is_duration_minus_child_cover():
    main = [
        ("cmd", 0.0, 10.0, -1),
        ("parse", 1.0, 3.0, 0),
        ("load", 1.5, 2.5, 1),
        ("render", 5.0, 6.0, 0),
        ("report", 11.0, 12.0, -1),
    ]
    worker = [("analyze", 8.0, 14.0, -1), ("render", 9.0, 10.0, 0)]
    summary = spans.summarize([main, worker])
    layers = summary["layers"]
    assert layers["cmd"]["self_s"] == 7.0
    assert layers["parse"]["self_s"] == 1.0
    assert layers["render"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert layers["analyze"]["self_s"] == 5.0
    # top-level spans of two threads overlap; their cover is the union
    assert summary["top_level_s"] == 14.0


def test_open_spans_are_skipped():
    summary = spans.summarize([[("cmd", 0.0, 4.0, -1), None]])
    assert summary["layers"] == {"cmd": {"calls": 1, "total_s": 4.0, "self_s": 4.0}}


def test_traced_command_self_times_add_up(tmp_path):
    chart = tmp_path / "charts" / "web"
    (chart / "templates").mkdir(parents=True)
    (chart / "Chart.yaml").write_text("name: web\nversion: 1.0.0\n")
    for i in range(3):
        (chart / "templates" / f"t{i}.yaml").write_text("a: same-value\nb: other%d\n" % i)
    summary_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
         str(summary_path), SRC, "dupes", "--path", str(tmp_path / "charts")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["sections"]["duplicates"][0]["groups"][0]["count"] == 3
    summary = json.loads(summary_path.read_text())
    layers = summary["layers"]
    assert layers["yamlutil.sentinel_parse"]["calls"] == 3
    assert layers["quality.detect_duplicates"]["calls"] == 1
    # one thread: the self times of all spans tile the top-level spans exactly
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert total_self == pytest.approx(summary["top_level_s"], rel=1e-9)
    assert summary["counters"]["yamlutil.sentinel_parse.errors"] == 0


def test_exact_p_matches_the_program_on_small_samples():
    sys.path.insert(0, SRC)
    try:
        from chartqa.stats import wilcoxon_signed_rank
    finally:
        sys.path.remove(SRC)
    rng = np.random.default_rng(3)
    for n in range(1, 13):
        diffs = rng.integers(-3, 4, size=n).astype(float)
        diffs[diffs == 0] = 1.0
        want = wilcoxon_signed_rank(list(diffs), [0.0] * n).p_value
        assert checks._exact_p(diffs) == want


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(corpus.WORKLOADS)
