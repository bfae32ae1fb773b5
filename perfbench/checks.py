"""Output checks against the generator's ground truth.

Each check takes the ground truth and the command's output and returns a
list of problems; an empty list means the output is correct. Checks compare
values and counts, never key paths.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess

import numpy as np
import yaml

_DUP_DETAIL = re.compile(r"value (.+) occurs (\d+) times$")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _diff(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def _groups(groups) -> dict:
    return {g["canonical_value"]: g["count"] for g in groups}


def _per_chart(rows, truth, label, fn) -> list[str]:
    charts = truth["charts"]
    got_names = sorted(row["chart"] for row in rows)
    problems = _diff(f"{label} charts", got_names, sorted(charts))
    for row in rows:
        if row["chart"] in charts:
            problems += fn(row, charts[row["chart"]])
    return problems


def check_help(truth, out) -> list[str]:
    with open(out["stdout"], encoding="utf-8") as fh:
        text = fh.read()
    return [] if text.startswith("usage: chartqa") else ["--help printed no usage"]


# --- scan ---

def check_livecheck(truth, out) -> list[str]:
    payload = _load_json(out["stdout"])

    def chart(row, want):
        dups, kinds = {}, set()
        for finding in row["findings"]:
            kinds.add(finding["kind"])
            if finding["kind"] == "duplicate-values":
                m = _DUP_DETAIL.search(finding["detail"])
                dups[ast.literal_eval(m.group(1))] = len(finding["occurrences"])
        return (
            _diff(f"{row['chart']} duplicates", dups, want["dups"])
            + _diff(f"{row['chart']} no-maintainer", "no-maintainer" in kinds,
                    want["no_maintainer"])
            + _diff(f"{row['chart']} name-collision", "name-collision" in kinds,
                    want["name_collision"])
        )

    return _diff("clean", payload["clean"], False) + \
        _per_chart(payload["charts"], truth, "livecheck", chart)


def _duplicate_rows(row, want) -> list[str]:
    return (
        _diff(f"{row['chart']} duplicates", _groups(row["groups"]), want["dups"])
        + _diff(f"{row['chart']} unparseable templates",
                len(row["unparseable_templates"]), want["unparseable"])
    )


def check_dupes(truth, out) -> list[str]:
    report = _load_json(out["stdout"])
    return _per_chart(report["sections"]["duplicates"], truth, "dupes", _duplicate_rows)


def check_analyze(truth, out) -> list[str]:
    report = _load_json(os.path.join(out["out"], "report.json"))
    sections = report["sections"]

    def chart(row, want):
        return (
            _duplicate_rows(row["duplicate"], want)
            + _diff(f"{row['chart']} variable values", row["variable_value_count"],
                    want["random"])
            + _diff(f"{row['chart']} render failures",
                    [f["category"] for f in row["render_failures"]],
                    ["EngineUnsupported"] * want["render_failures"])
        )

    charts = truth["charts"]
    irregular = sections["irregularities"]
    want_irregular = {
        "no_maintainer": sorted(f for f, c in charts.items() if c["no_maintainer"]),
        "name_collision": sorted(f for f, c in charts.items() if c["name_collision"]),
        "multiple_versions": truth["multiple_versions"],
        "alias_names": truth["alias_names"],
    }
    got_irregular = {
        "no_maintainer": sorted(irregular["no_maintainer"]),
        "name_collision": sorted(irregular["name_collision"]),
        "multiple_versions": sorted(irregular["multiple_versions"]),
        "alias_names": {a["email"]: a["names"] for a in irregular["alias_names"]},
    }
    problems = []
    for key, want in want_irregular.items():
        problems += _diff(f"irregularities {key}", got_irregular[key], want)
    problems += _diff("maintainer metrics charts",
                      sections["maintainer_metrics"]["charts"]["value"], len(charts))
    return problems + _per_chart(sections["quality"], truth, "analyze", chart)


# --- rewrite ---

def _kb_counts(kb_path: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for key, value in _load_json(kb_path).items():
        if not isinstance(value, str) or not value:
            counts["<bad value>"] = counts.get("<bad value>", 0) + 1
        stem = key.partition("|")[0]
        counts[stem] = counts.get(stem, 0) + 1
    return counts


def check_variability(truth, out) -> list[str]:
    payload = _load_json(os.path.join(out["out"], "variability.json"))
    charts = truth["charts"]
    learned = {name: len(paths) for name, paths in payload["learned"].items()}
    want = {name: c["random"] for name, c in charts.items()}
    return (
        _diff("learned per chart", learned, want)
        + _diff("kb entries", payload["kb_entries"], sum(want.values()))
        + _diff("kb per stem", _kb_counts(out["kb"]),
                {c["stem"]: c["random"] for c in charts.values()})
    )


def _check_patch(chart: dict, diff_path: str, scratch: str) -> list[str]:
    """Apply the diff with ``patch -p1`` to a copy of the chart and inspect the result."""
    label = chart["name"]
    copy_root = os.path.join(scratch, label)
    shutil.rmtree(copy_root, ignore_errors=True)
    shutil.copytree(chart["dir"], os.path.join(copy_root, chart["name"]))
    try:
        proc = subprocess.run(
            ["patch", "-p1", "-s", "-i", os.path.abspath(diff_path)],
            cwd=copy_root, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            return [f"{label}: patch -p1 failed: {proc.stdout.strip()} {proc.stderr.strip()}"]
        chart_dir = os.path.join(copy_root, chart["name"])
        texts = []
        for name in sorted(os.listdir(os.path.join(chart_dir, "templates"))):
            with open(os.path.join(chart_dir, "templates", name), encoding="utf-8") as fh:
                texts.append(fh.read())
        body = "".join(texts)
        with open(os.path.join(chart_dir, "values.yaml"), encoding="utf-8") as fh:
            values = yaml.safe_load(fh) or {}
        placeholders = len(re.findall(r"\{\{ \.Values\.suggestions\.var\d+ \}\}", body))
        return (
            _diff(f"{label} planted literals left", [v for v in chart["dups"] if v in body], [])
            + _diff(f"{label} placeholders", placeholders, sum(chart["dups"].values()))
            + _diff(f"{label} suggestions", sorted((values.get("suggestions") or {}).values()),
                    sorted(chart["dups"]))
        )
    finally:
        shutil.rmtree(copy_root, ignore_errors=True)


def check_suggest(truth, out) -> list[str]:
    payload = _load_json(os.path.join(out["out"], "suggest.json"))
    charts = truth["charts"]
    want = {name: len(c["dups"]) for name, c in charts.items() if c["dups"]}
    got = {row["chart"]: row["variables"] for row in payload["diffs"]}
    problems = _diff("diffs per chart", got, want)
    for row in payload["diffs"]:
        if row["chart"] in charts:
            problems += _check_patch(charts[row["chart"]], row["diff"], out["scratch"])
    outbox = payload["outbox"]
    problems += _diff("outbox files", len(outbox), payload["digests"])
    problems += _diff("outbox present", all(os.path.isfile(p) for p in outbox), True)
    return problems


# --- evolution ---

def check_snapshot(truth, out) -> list[str]:
    payload = _load_json(os.path.join(out["out"], "snapshot.json"))
    manifest = _load_json(os.path.join(out["store"], payload["snapshot_id"], "manifest.json"))
    archive_dir = os.path.join(out["store"], payload["snapshot_id"], "archives")
    stored = {}
    for name in os.listdir(archive_dir):
        with open(os.path.join(archive_dir, name), "rb") as fh:
            stored[name] = hashlib.sha256(fh.read()).hexdigest()
    return (
        _diff("snapshot charts", payload["charts"], len(truth["latest_digests"]))
        + _diff("manifest digests", manifest["digests"], truth["latest_digests"])
        + _diff("stored archive digests", stored, truth["latest_digests"])
    )


def check_changes(truth, out) -> list[str]:
    payload = _load_json(out["stdout"])
    want = truth["log"][-1]
    got = {
        "added": sorted(payload["added"]),
        "removed": sorted(payload["removed"]),
        "updated": sorted(payload["updated"]),
        "vupdates": sorted([v["removed"], v["added"]] for v in payload["vupdates"]),
    }
    return _diff("changes", got, {k: sorted(v) for k, v in want.items()}) + \
        _diff("changes ids", [payload["from"], payload["to"]], truth["ids"][-2:])


def _stem(file_name: str) -> str:
    """Generated names are alphabetic words, so the stem is the name without dashes."""
    return file_name.rsplit("-", 1)[0].replace("-", "")


def expected_activity(truth) -> dict[str, int]:
    days_changed: dict[str, int] = {}
    for entry in truth["log"]:
        touched = {_stem(f) for f in entry["added"] + entry["removed"] + entry["updated"]}
        touched |= {_stem(old) for old, _ in entry["vupdates"]}
        for stem in touched:
            days_changed[stem] = days_changed.get(stem, 0) + 1
    return days_changed


def check_trends(truth, out) -> list[str]:
    report = _load_json(out["stdout"])
    pairs = len(truth["ids"]) - 1
    activity = report["sections"]["activity"]
    changed = expected_activity(truth)
    problems = _diff("days observed", {a["days_observed"] for a in activity}, {pairs})
    problems += _diff("days changed",
                      {a["stem"]: a["days_changed"] for a in activity if a["days_changed"]},
                      changed)
    ids = truth["ids"]
    for period, (label, start, end) in zip(report["sections"]["trends"]["periods"],
                                           truth["periods"]):
        i, j = ids.index(start), ids.index(end)
        window = truth["log"][i:j]
        updated = {f for entry in window for f in entry["updated"]}
        vupdated = {_stem(old) for entry in window for old, _ in entry["vupdates"]}
        problems += _diff(f"{label} changed charts", period["changed_chart_count"],
                          len(updated) + len(vupdated))
        charts = period["metrics"]["charts"]
        problems += _diff(f"{label} chart counts", [charts["start"], charts["end"]],
                          [truth["sizes"][i], truth["sizes"][j]])
    return problems


_SIGN_TABLES: dict[int, np.ndarray] = {}


def _exact_p(diffs: np.ndarray) -> float:
    """Two-sided signed-rank p by brute-force enumeration of all 2^n sign vectors."""
    from scipy.stats import rankdata

    n = diffs.size
    double_ranks = np.rint(2 * rankdata(np.abs(diffs))).astype(np.int64)
    observed = min(double_ranks[diffs > 0].sum(), double_ranks[diffs < 0].sum())
    signs = _SIGN_TABLES.get(n)
    if signs is None:
        signs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
        _SIGN_TABLES[n] = signs
    positive = signs @ double_ranks
    smaller = np.minimum(positive, double_ranks.sum() - positive)
    return int((smaller <= observed).sum()) / signs.shape[0]


def expected_stats(truth) -> dict:
    """Recompute the resampling independently: brute force for n <= 12, scipy above."""
    from scipy.stats import wilcoxon

    groups = _load_json(truth["groups"])
    pool = np.asarray(groups["n1"], dtype=float)
    target = np.asarray(groups["n2"], dtype=float)
    smallest, valid = None, 0
    for i in range(truth["stats_iterations"]):
        rng = np.random.default_rng([truth["stats_seed"], i])
        diffs = pool[rng.choice(pool.size, size=target.size, replace=False)] - target
        diffs = diffs[diffs != 0]
        if diffs.size == 0:
            continue
        valid += 1
        if diffs.size <= 12:
            p = _exact_p(diffs)
        else:
            p = float(wilcoxon(diffs, zero_method="wilcox", correction=False,
                               method="asymptotic").pvalue)
        smallest = p if smallest is None else min(smallest, p)
    return {"smallest_p": smallest, "valid_iterations": valid}


def check_stats(truth, out) -> list[str]:
    got = _load_json(out["stdout"])["sections"]["statistics"]
    want = truth["expected_stats"]
    problems = _diff("valid iterations", got["valid_iterations"], want["valid_iterations"])
    if not np.isclose(got["smallest_p"], want["smallest_p"], rtol=1e-9, atol=0.0):
        problems.append(f"smallest_p: got {got['smallest_p']!r}, want {want['smallest_p']!r}")
    return problems
