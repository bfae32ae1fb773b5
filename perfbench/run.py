"""Seeded benchmark for the chartqa CLI.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

The benchmark generates the workload's inputs from the seed, then times
each chartqa command as a child process (``python3 -m chartqa`` with
``src/`` on the path), one command at a time, and checks every output
against the generator's ground truth. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs every command once plain and
once under ``traced_cli.py`` and reports per-layer metrics from the spans.
Command times are divided by the time of a fixed reference work
(``reference.py``) run just before each command, because the host's speed
drifts by tens of percent between runs; the seconds are printed too.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Runs are warm-cache and unpinned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
COMMAND_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("commands_per_ref", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
)

PER_LAYER = (
    ("yamlutil.sentinel_parse.calls", "count"),
    ("yamlutil.sentinel_parse.self_s", "s"),
    ("yamlutil.sentinel_parse.errors", "count"),
    ("yamlutil.sentinel_parse.per_template", "calls/template"),
    ("render.render_chart.calls", "count"),
    ("render.render_chart.self_s", "s"),
    ("render.render_chart.per_chart", "calls/chart"),
    ("render.BuiltinEngine.render_package.self_s", "s"),
    ("render.flatten_documents.self_s", "s"),
    ("render.failures", "count"),
    ("render.RenderedManifestSet.document_set.calls", "count"),
    ("render.RenderedManifestSet.document_set.self_s", "s"),
    ("core.parse_chart_archive.calls", "count"),
    ("core.parse_chart_archive.self_s", "s"),
    ("core.package_from_files.self_s", "s"),
    ("ingest.parse_repo_index.calls", "count"),
    ("ingest.parse_repo_index.self_s", "s"),
    ("ingest.SnapshotStore.load.calls", "count"),
    ("ingest.SnapshotStore.load.self_s", "s"),
    ("ingest.SnapshotStore.record.self_s", "s"),
    ("ingest.fetch_archive.self_s", "s"),
    ("ingest.ingest_local_dir.self_s", "s"),
    ("ingest.ingest_local_dir.failures", "count"),
    ("quality.detect_duplicates.calls", "count"),
    ("quality.detect_duplicates.self_s", "s"),
    ("quality.learn_variability.calls", "count"),
    ("quality.learn_variability.self_s", "s"),
    ("quality.learn_variability.learned", "count"),
    ("quality.analyze_chart.self_s", "s"),
    ("rewrite.plan_rewrite.self_s", "s"),
    ("rewrite.verify_rewrite.self_s", "s"),
    ("rewrite.emit_diff.self_s", "s"),
    ("rewrite.apply_plan.self_s", "s"),
    ("rewrite.build_issue_digests.self_s", "s"),
    ("rewrite.write_outbox.self_s", "s"),
    ("rewrite.verify_rewrite.pass_ratio", "ratio"),
    ("analytics.detect_changes.calls", "count"),
    ("analytics.detect_changes.self_s", "s"),
    ("analytics.detect_changes.per_pair", "calls/pair"),
    ("analytics.period_metrics.self_s", "s"),
    ("analytics.change_histories.self_s", "s"),
    ("analytics.compute_maintainer_sets.self_s", "s"),
    ("analytics.detect_irregularities.self_s", "s"),
    ("stats.resampled_group_test.self_s", "s"),
    ("stats.wilcoxon_signed_rank.calls", "count"),
    ("stats.wilcoxon_signed_rank.self_s", "s"),
    ("stats.iteration_us", "us"),
    ("stats.exact_share", "ratio"),
    ("report.build_report.self_s", "s"),
    ("process.unattributed_s", "s"),
    ("process.trace_overhead_s", "s"),
)


class Op:
    """One CLI command of a workload: its arguments, expected exit code and output check."""

    def __init__(self, metric, argv, exit_code, check, dirs=()):
        self.metric = metric
        self.argv = argv  # callable(paths) -> argument list
        self.exit_code = exit_code
        self.check = check
        self.dirs = dirs  # fresh paths the command gets on every run


def workload_ops(workload: str, truth: dict) -> list[Op]:
    if workload == "scan":
        path = truth["path"]
        return [
            Op("livecheck_s", lambda p: ["livecheck", "--path", path], 1,
               checks.check_livecheck),
            Op("dupes_s", lambda p: ["dupes", "--path", path], 1, checks.check_dupes),
            Op("analyze_s", lambda p: ["analyze", "--path", path, "--out", p["out"]], 1,
               checks.check_analyze, ("out",)),
            Op("analyze_j2_s",
               lambda p: ["analyze", "--path", path, "--jobs", "2", "--out", p["out"]], 1,
               checks.check_analyze, ("out",)),
        ]
    if workload == "rewrite":
        path = truth["path"]
        return [
            Op("variability_s",
               lambda p: ["variability", "--path", path, "--kb", p["kb"], "--out", p["out"]],
               0, checks.check_variability, ("out",)),
            Op("suggest_s",
               lambda p: ["suggest", "--path", path, "--kb", p["kb"], "--out", p["out"]],
               1, checks.check_suggest, ("out", "scratch")),
        ]
    store = truth["store"]
    periods = ";".join(f"{label}={start}..{end}" for label, start, end in truth["periods"])
    return [
        Op("snapshot_s",
           lambda p: ["snapshot", "--index", truth["latest_index"],
                      "--snapshot-store", p["store"], "--out", p["out"]],
           0, checks.check_snapshot, ("store", "out")),
        Op("changes_s", lambda p: ["changes", "--snapshot-store", store], 0,
           checks.check_changes),
        Op("trends_s",
           lambda p: ["trends", "--snapshot-store", store, "--periods", periods], 0,
           checks.check_trends),
        Op("stats_s",
           lambda p: ["stats", "--groups", truth["groups"], "--seed",
                      str(truth["stats_seed"]), "--iterations",
                      str(truth["stats_iterations"])],
           0, checks.check_stats),
    ]


HELP = Op("setup_s", lambda p: ["--help"], 0, checks.check_help)


class Runner:
    """Runs chartqa commands as children of this process and checks their outputs."""

    def __init__(self, root: str, work: str, truth: dict):
        self.src = os.path.join(root, "src")
        self.work = work
        self.truth = truth
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.round_paths: dict[str, str] = {}  # paths the commands of one round share

    def fresh_round(self) -> None:
        self.runs += 1
        base = os.path.join(self.work, f"round{self.runs}")
        os.makedirs(base)
        self.round_paths = {"kb": os.path.join(base, "kb.json")}

    def reference(self) -> float:
        """Wall seconds of one run of the fixed reference work."""
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "reference.py")], check=True,
                       stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S)
        return time.perf_counter() - start

    def run(self, op: Op, traced: bool = False) -> tuple[float, dict | None]:
        """Run one command; returns its wall seconds and, when traced, the span summary."""
        self.runs += 1
        run_dir = os.path.join(self.work, f"run{self.runs}")
        os.makedirs(run_dir)
        paths = dict(self.round_paths)
        for name in op.dirs:
            paths[name] = os.path.join(run_dir, name)
        argv = op.argv(paths)
        summary_path = os.path.join(run_dir, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), summary_path,
                   self.src, *argv]
        else:
            cmd = [sys.executable, "-m", "chartqa", *argv]
        stdout_path = os.path.join(run_dir, "stdout")
        with open(stdout_path, "wb") as out, open(os.path.join(run_dir, "stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=run_dir)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)

        self.attempted += 1
        problems = []
        if proc.returncode != op.exit_code:
            problems.append(f"exit code {proc.returncode}, want {op.exit_code}")
        else:
            try:
                problems = op.check(self.truth, dict(paths, stdout=stdout_path))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{argv[0]}: {p}" for p in problems[:5])
        summary = None
        if traced and os.path.exists(summary_path):
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        shutil.rmtree(run_dir, ignore_errors=True)
        return wall, summary


def measure(runner: Runner, ops: list[Op], seconds: float) -> tuple[dict, list[str]]:
    """Time every command, round after round, until the next round would overrun."""
    start = time.perf_counter()
    setup = [runner.run(HELP)[0] for _ in range(SETUP_SAMPLES)]
    walls: dict[str, list[float]] = {op.metric: [] for op in ops}
    references = []
    round_times = []
    while True:
        round_start = time.perf_counter()
        runner.fresh_round()
        for op in ops:
            references.append(runner.reference())
            walls[op.metric].append(runner.run(op)[0])
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(round_times) > seconds:
            break
    # The host's speed drifts by tens of percent over seconds to minutes. A
    # command's time is the mean over the run's rounds, which averages the
    # drift within the run; dividing by the reference work, timed just
    # before every command, takes out most of the drift between runs.
    means = {name: statistics.mean(values) for name, values in walls.items()}
    reference = statistics.mean(references)
    lines = [f"{name} {means[name]:.4f} s (mean of {len(walls[name])}: "
             + ", ".join(f"{v:.3f}" for v in walls[name]) + ")" for name in means]
    lines.append(f"commands_s {sum(means.values()):.4f} s (sum of the means above)")
    lines.append(f"reference_s {reference:.4f} s (mean of {len(references)} runs of "
                 "perfbench/reference.py)")
    lines.append(f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)} "
                 "runs of chartqa --help)")
    metrics = {
        "setup_s": statistics.median(setup),
        "commands_per_ref": sum(means.values()) / reference,
        "peak_rss_mb": runner.peak_rss_kb / 1024.0,
        "ok_ops_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    lines.append(f"failed_ops_ratio {runner.failed / runner.attempted:.4f} "
                 f"({runner.failed} failed of {runner.attempted} commands attempted)")
    return metrics, lines


def _layer_round(runner: Runner, ops: list[Op]) -> tuple[dict, list[str]]:
    """One plain and one traced run of every command, summed over the commands."""
    runner.fresh_round()
    plain = {op.metric: runner.run(op)[0] for op in ops}
    runner.fresh_round()
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    unattributed = overhead = 0.0
    lines = []
    for op in ops:
        traced, summary = runner.run(op, traced=True)
        if summary is None:
            lines.append(f"{op.metric}: traced run wrote no span summary")
            continue
        for name, entry in summary["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        rest = traced - summary["top_level_s"]
        unattributed += rest
        overhead += traced - plain[op.metric]
        top = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:4]
        lines.append(
            f"{op.metric[:-2]}: wall {plain[op.metric]:.3f} s plain, {traced:.3f} s traced, "
            f"top-level spans {summary['top_level_s']:.3f} s + unattributed {rest:.3f} s; "
            "self: " + ", ".join(f"{n} {e['self_s']:.3f} s/{e['calls']}" for n, e in top))
    return {"layers": layers, "counters": counters, "unattributed": unattributed,
            "overhead": overhead}, lines


def layer_metrics(agg: dict, truth: dict) -> dict:
    layers, counters = agg["layers"], agg["counters"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    charts = len(truth.get("charts", ()))
    pairs = len(truth["ids"]) if "ids" in truth else 0  # trends' pairs plus changes' one
    iterations = counters.get("stats.resampled_group_test.iterations", 0)
    values = {
        "yamlutil.sentinel_parse.errors": counters.get("yamlutil.sentinel_parse.errors", 0),
        "yamlutil.sentinel_parse.per_template":
            ratio(calls("yamlutil.sentinel_parse"), truth.get("templates", 0)),
        "render.render_chart.per_chart": ratio(calls("render.render_chart"), charts),
        "render.failures": counters.get("render.render_chart.failures", 0),
        "ingest.ingest_local_dir.failures": counters.get("ingest.ingest_local_dir.failures", 0),
        "quality.learn_variability.learned":
            counters.get("quality.learn_variability.learned", 0),
        "rewrite.verify_rewrite.pass_ratio":
            ratio(counters.get("rewrite.verify_rewrite.passed", 0),
                  calls("rewrite.verify_rewrite")),
        "analytics.detect_changes.per_pair": ratio(calls("analytics.detect_changes"), pairs),
        "stats.iteration_us": ratio(
            layers.get("stats.resampled_group_test", {}).get("total_s", 0.0) * 1e6, iterations),
        "stats.exact_share": ratio(counters.get("stats.wilcoxon_signed_rank.exact", 0),
                                   calls("stats.wilcoxon_signed_rank")),
        "process.unattributed_s": agg["unattributed"],
        "process.trace_overhead_s": agg["overhead"],
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in values:
            out[name] = values[name]
            continue
        layer, _, field = name.rpartition(".")
        out[name] = layers.get(layer, {}).get(field, 0)
    return out


def trace(runner: Runner, ops: list[Op], seconds: float) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    rounds = []
    lines = []
    while True:
        round_start = time.perf_counter()
        agg, round_lines = _layer_round(runner, ops)
        rounds.append(layer_metrics(agg, runner.truth))
        lines = round_lines
        if time.perf_counter() - start + (time.perf_counter() - round_start) > seconds:
            break
    metrics = {name: statistics.median(r[name] for r in rounds) for name, _ in PER_LAYER}
    lines.append(f"{len(rounds)} traced round(s); per-layer values are medians over rounds")
    return metrics, lines


def header(args) -> list[str]:
    import numpy
    import yaml

    libyaml = "with libyaml" if getattr(yaml, "__with_libyaml__", False) else "pure Python"
    return [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"# nproc={os.cpu_count()} python={platform.python_version()} "
        f"pyyaml={yaml.__version__} ({libyaml}) numpy={numpy.__version__}",
        "# warm cache, unpinned; one client, one command at a time",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chartqa", "cli.py")):
        print("perfbench: no chartqa sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".perfbench-work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        truth = corpus.generate(args.workload, args.seed, os.path.join(work, "corpus"),
                                os.path.join(root, "src"))
        runner = Runner(root, os.path.join(work, "runs"), truth)
        os.makedirs(runner.work)
        if args.workload == "evolution":
            truth["expected_stats"] = checks.expected_stats(truth)
        runner.run(HELP)  # untimed: fills the byte-code cache, as any installed tool has
        runner.attempted = runner.failed = 0
        ops = workload_ops(args.workload, truth)
        if args.trace:
            metrics, lines = trace(runner, ops, args.seconds)
        else:
            metrics, lines = measure(runner, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for line in header(args) + lines:
        print(line)
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
