"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 6 and the million-iteration half of criterion 8 depend on the
historical reference dataset; point CHARTQA_REFERENCE_DATASET at a
directory holding the 2018-05-15 stable ``index.yaml`` (and optionally
``archives/`` plus an external renderer) to enable them. Without it they
are skipped with an explicit SKIP marker.
"""

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest
import yaml

from chartqa.analytics import (
    INFREQUENTLY_CHANGED,
    REGULARLY_CHANGED,
    UNCHANGED,
    classify_activity,
    compute_maintainer_sets,
    detect_irregularities,
)
from chartqa.core import mangle_stem, versioning_overhead, write_package_dir
from chartqa.ingest import package_from_dir, parse_repo_index
from chartqa.quality import (
    DEFAULT_BLACKLIST,
    VariabilityKnowledgeBase,
    detect_duplicates,
    variable_values,
)
from chartqa.errors import RenderFailed
from chartqa.render import render_chart
from chartqa.rewrite import apply_plan, emit_diff, plan_rewrite, verify_rewrite
from chartqa.stats import resampled_group_test, wilcoxon_signed_rank

from conftest import make_package
from test_core import stem_rule_oracle, _random_file_name
from test_quality import _random_tree, brute_force_counts
from test_stats import enumeration_oracle

REFERENCE_ENV = "CHARTQA_REFERENCE_DATASET"


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"ACCEPTANCE {number}: SKIP — {summary} ({exc})")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {summary}")


def test_criterion_1_stem_mangling():
    with criterion(1, "stem mangling matches the rule interpreter on 1,000 names"):
        started = time.perf_counter()
        assert mangle_stem("magic-namespace-0.1.0.tgz") == "magicnamespace"
        assert mangle_stem("magic-namespace-0.1.1-2.tgz") == "magicnamespace"
        rng = random.Random(20180515)
        for _ in range(1000):
            file_name = _random_file_name(rng)
            assert mangle_stem(file_name) == stem_rule_oracle(file_name), file_name
        assert time.perf_counter() - started < 1.0


def test_criterion_2_duplicate_detector_oracle_equivalence():
    with criterion(2, "detector equals brute-force counting on 1,000 random corpora"):
        started = time.perf_counter()
        rng = random.Random(4711)
        for _ in range(1000):
            trees = [
                _random_tree(rng, rng.randint(2, 50))
                for _ in range(rng.randint(1, 3))
            ]
            templates = {
                f"t{i}.yaml": yaml.safe_dump(tree, sort_keys=False)
                for i, tree in enumerate(trees)
            }
            pkg = make_package(values={}, templates=templates)
            report = detect_duplicates(pkg)
            expected = brute_force_counts(
                trees, set(DEFAULT_BLACKLIST), report.threshold_used
            )
            actual = {g.canonical_value: g.count for g in report.groups}
            assert actual == expected
        assert time.perf_counter() - started < 10.0


def _synthetic_rewrite_charts(count: int):
    """Charts with injected duplicates: plain, quoted and multi-template."""
    rng = random.Random(1000)
    charts = []
    for i in range(count):
        shared_a = f"shared-{i}-alpha"
        shared_b = f"shared-{i}-beta"
        deploy = (
            "kind: Deployment\n"
            f"volume: {shared_a}\n"
            f"claim: \"{shared_a}\"\n"
            f"mount: {shared_a}\n"
            f"extra: unique-{rng.randint(0, 10 ** 6)}\n"
        )
        svc = (
            "kind: Service\n"
            f"selector: {shared_b}\n"
            f"backup: {shared_b}\n"
            f"label: {shared_b}\n"
            f"alias: {shared_a}\n"
        )
        charts.append(make_package(
            name=f"fixture{i}",
            values={"app": f"fixture{i}"},
            maintainers=[{"name": "alice", "email": "a@x.io"}],
            templates={"deploy.yaml": deploy, "svc.yaml": svc},
        ))
    return charts


def _apply_patch(workdir: str, diff_text: str) -> None:
    patch_path = os.path.join(workdir, "fix.patch")
    with open(patch_path, "w", encoding="utf-8") as fh:
        fh.write(diff_text)
    if shutil.which("patch"):
        cmd = ["patch", "-p1", "--batch", "-i", patch_path]
    elif shutil.which("git"):
        cmd = ["git", "apply", "-p1", patch_path]
    else:
        pytest.skip("no patch tool available")
    subprocess.run(cmd, cwd=workdir, check=True, capture_output=True)


def test_criterion_3_rewrite_round_trip(tmp_path):
    with criterion(3, "verified rewrites patch-apply and render byte-identically, "
                      "0 false positives over 12 charts"):
        started = time.perf_counter()
        kb = VariabilityKnowledgeBase()
        for index, pkg in enumerate(_synthetic_rewrite_charts(12)):
            report = detect_duplicates(pkg)
            assert report.groups, "fixture must carry injected duplicates"
            plan = plan_rewrite(pkg, report)
            assert plan.skipped_groups == ()
            assert verify_rewrite(pkg, plan, kb) is True  # no false positive allowed

            workdir = tmp_path / f"chart{index}"
            workdir.mkdir()
            write_package_dir(pkg, str(workdir / pkg.metadata.name))
            _apply_patch(str(workdir), emit_diff(pkg, plan))
            patched = package_from_dir(str(workdir / pkg.metadata.name))
            assert dict(patched.templates) == dict(apply_plan(pkg, plan).templates)
            assert render_chart(patched, kb.overrides_for(patched.stem)).canonical_yaml() == \
                render_chart(pkg, kb.overrides_for(pkg.stem)).canonical_yaml()
        assert time.perf_counter() - started < 5.0


def test_criterion_4_variability_convergence():
    with criterion(4, "three random keys converge after exactly one learn pass"):
        pkg = make_package(values={}, templates={
            "secret.yaml": (
                "password: {{ randAlphaNum 16 }}\n"
                "token: {{ randAlphaNum 20 }}\n"
            ),
            "config.yaml": "cookie: {{ randAlphaNum 12 }}\nstatic: fixed-value\n",
        })
        kb = VariabilityKnowledgeBase()
        learned = kb.merge(pkg.stem, variable_values(pkg, kb))
        assert len(learned) == 3
        assert len(kb) == 3
        first = render_chart(pkg, kb.overrides_for(pkg.stem)).canonical_yaml()
        second = render_chart(pkg, kb.overrides_for(pkg.stem)).canonical_yaml()
        assert first == second
        again = kb.merge(pkg.stem, variable_values(pkg, kb))
        assert again == [] and len(kb) == 3


def test_criterion_5_wilcoxon_exact_correctness():
    with criterion(5, "p-values match exhaustive sign-flip enumeration for n <= 10"):
        started = time.perf_counter()
        rng = random.Random(31337)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 10)
            x = [rng.randint(0, 9) for _ in range(n)]
            y = [rng.randint(0, 9) for _ in range(n)]
            if all(a == b for a, b in zip(x, y)):
                continue
            result = wilcoxon_signed_rank(x, y)
            observed, expected_p = enumeration_oracle(x, y)
            assert abs(result.statistic - observed) <= 1e-12
            assert abs(result.p_value - expected_p) <= 1e-12
            checked += 1
        assert time.perf_counter() - started < 30.0


def _reference_dataset_dir() -> str:
    path = os.environ.get(REFERENCE_ENV, "")
    if not path:
        pytest.skip(f"reference dataset not available; set {REFERENCE_ENV}")
    if not os.path.isfile(os.path.join(path, "index.yaml")):
        pytest.skip(f"{path} has no index.yaml")
    return path


def test_criterion_6_reference_dataset_reproduction():
    with criterion(6, "2018-05-15 snapshot reproduces the reference metrics"):
        dataset = _reference_dataset_dir()
        with open(os.path.join(dataset, "index.yaml"), "rb") as fh:
            index = parse_repo_index(fh.read(), "reference:2018-05-15")
        refs = [entry.ref for entry in index.entries]
        assert len(refs) == 177
        assert abs(versioning_overhead(refs) - 0.157) <= 0.001  # +- 0.1pp

        _, metrics = compute_maintainer_sets(index)
        assert metrics["maintainers"] == 142
        assert metrics["maintainer_sets"] == 113
        assert round(metrics["avg_charts_per_maintainer"], 2) == 1.25
        assert metrics["max_charts_per_set"] == 14
        assert round(metrics["avg_maintainers_per_set"], 2) == 1.26
        assert metrics["max_maintainers_per_set"] == 4

        irregular = detect_irregularities(index)
        assert len(irregular.no_maintainer) == 10
        assert len(irregular.name_collision) == 1
        assert len(irregular.multiple_versions) == 5
        assert len(irregular.alias_names) == 8

        archives = os.path.join(dataset, "archives")
        if not os.path.isdir(archives):
            pytest.skip("reference archives not available for template metrics")
        _reference_template_metrics(archives)


def _reference_template_metrics(archives_dir: str) -> None:
    """Template metrics within +-5%, residual deltas itemized per chart."""
    from chartqa.render import ExternalEngine
    from chartqa.core import parse_chart_archive

    renderer = os.environ.get("CHARTQA_RENDERER")
    engine = ExternalEngine(binary=renderer) if renderer else None
    packages = []
    for name in sorted(os.listdir(archives_dir)):
        if name.endswith(".tgz"):
            with open(os.path.join(archives_dir, name), "rb") as fh:
                packages.append(parse_chart_archive(fh.read()))
    kb = VariabilityKnowledgeBase()
    variable_charts = 0
    variables = 0
    groups = 0
    duplicate_values = 0
    per_chart = {}
    for pkg in packages:
        learned = []
        if engine is not None:
            try:
                values = variable_values(pkg, kb, engine)
                if not isinstance(values, RenderFailed):
                    learned = kb.merge(pkg.stem, values)
            except Exception:  # renderer divergence is itemized, not fatal
                pass
        report = detect_duplicates(pkg)
        variable_charts += 1 if learned else 0
        variables += len(learned)
        groups += len(report.groups)
        duplicate_values += report.total_duplicate_values
        per_chart[pkg.ref.file_name] = {
            "variables": len(learned),
            "groups": len(report.groups),
            "duplicates": report.total_duplicate_values,
        }
    expectations = {
        "variable charts": (variable_charts, 55),
        "variables": (variables, 428),
        "duplicate groups": (groups, 865),
        "duplicate values": (duplicate_values, 3784),
    }
    failures = []
    for label, (actual, expected) in expectations.items():
        if abs(actual - expected) > 0.05 * expected:
            failures.append(f"{label}: {actual} vs {expected}")
    if failures:
        print("per-chart residuals:", json.dumps(per_chart, indent=2, sort_keys=True))
        raise AssertionError("; ".join(failures))


def test_criterion_7_dcr_clustering():
    with criterion(7, "DCR histories classify per the activity table boundaries"):
        histories = {
            "dcr0": [False] * 30,
            "dcr10": [True] * 3 + [False] * 27,
            "dcr50": [True] * 15 + [False] * 15,
            "dcr82": [True] * 41 + [False] * 9,  # exactly 82 over 50 days
            "dcr83": [True] * 25 + [False] * 5,  # the 30-day regular cluster
        }
        levels = {p.stem: (p.dcr, p.level) for p in classify_activity(histories)}
        assert levels["dcr0"] == (0.0, UNCHANGED)
        assert levels["dcr10"] == (10.0, INFREQUENTLY_CHANGED)
        assert levels["dcr50"] == (50.0, INFREQUENTLY_CHANGED)
        assert levels["dcr82"] == (82.0, REGULARLY_CHANGED)
        assert levels["dcr83"][1] == REGULARLY_CHANGED


def test_criterion_8_statistics_scale_down():
    with criterion(8, "10,000-iteration resampling is fast and bit-reproducible"):
        rng = random.Random(160)
        n1 = [max(0, round(rng.gauss(5.15, 4))) for _ in range(160)]
        n2 = [max(0, round(rng.gauss(2.75, 2))) for _ in range(16)]
        started = time.perf_counter()
        first = resampled_group_test(n1, n2, iterations=10000, seed=42)
        elapsed = time.perf_counter() - started
        second = resampled_group_test(n1, n2, iterations=10000, seed=42)
        assert first == second
        assert 0.0 <= first.smallest_p <= 1.0
        assert elapsed < 10.0


def test_criterion_8_reference_statistics():
    with criterion(8, "reference groups bracket the reported smallest p"):
        dataset = _reference_dataset_dir()
        groups_path = os.path.join(dataset, "groups.json")
        if not os.path.isfile(groups_path):
            pytest.skip("reference dataset has no groups.json with n1/n2 duplicates")
        with open(groups_path, encoding="utf-8") as fh:
            groups = json.load(fh)
        result = resampled_group_test(
            groups["n1"], groups["n2"], iterations=1_000_000, seed=42
        )
        assert 0.0001 <= result.smallest_p <= 0.002


def test_criterion_9_livecheck_contract(tmp_path):
    with criterion(9, "livecheck exit codes: clean 0, findings 1, unreadable 2"):
        def run(path):
            return subprocess.run(
                [sys.executable, "-m", "chartqa", "livecheck", "--path", path],
                capture_output=True, text=True, timeout=120,
            )

        clean = make_package(
            name="clean", values={"app": "x"},
            maintainers=[{"name": "alice", "email": "a@x.io"}],
            templates={"t.yaml": "name: {{ .Values.app }}\n"},
        )
        write_package_dir(clean, str(tmp_path / "clean"))
        proc = run(str(tmp_path / "clean"))
        assert proc.returncode == 0, proc.stderr

        dupey = make_package(
            name="dupey", values={},
            maintainers=[{"name": "alice", "email": "a@x.io"}],
            templates={"t.yaml": "a: dup\nb: dup\nc: dup\n"},
        )
        write_package_dir(dupey, str(tmp_path / "dupey"))
        proc = run(str(tmp_path / "dupey"))
        assert proc.returncode == 1
        findings = json.loads(proc.stdout)
        assert findings["clean"] is False

        proc = run(str(tmp_path / "missing"))
        assert proc.returncode == 2
