"""Command-line interface.

Exit codes: 0 clean, 1 quality findings present, 2 operational error.
Standard output carries machine-readable payloads only; logging goes to
standard error. Each setting is resolved once, before its command runs:
CLI flag, then config file, then built-in default (``_CONFIG_KEYS``); with
neither flag nor config key, the external renderer reads ``CHARTQA_RENDERER``.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence

# building the parser needs only these; each handler imports the modules it uses
from . import DEFAULT_BLACKLIST, DEFAULT_THRESHOLD
from .errors import ChartQAError, RenderFailed

if TYPE_CHECKING:
    from .core import ChartPackage
    from .ingest import IndexEntry, IngestFailure, RepoIndex
    from .quality import DuplicateConfig, VariabilityKnowledgeBase

log = logging.getLogger("chartqa")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

_ENGINES = ("builtin", "external")

# add_argument keyword arguments of every flag; _COMMANDS names the flags each command reads
_FLAGS = {
    "config": {"help": "optional YAML config file"},
    "index": {"help": "repository index URL or file path"},
    "path": {"help": "directory tree holding charts"},
    "snapshot-store": {"help": "snapshot store directory"},
    "threshold": {"type": int, "help": "duplicate threshold"},
    "blacklist": {"help": "comma-separated values exempt from duplicate detection"},
    "engine": {"choices": _ENGINES, "help": "template renderer"},
    "renderer-bin": {"help": "external renderer binary (or env CHARTQA_RENDERER)"},
    "jobs": {"type": int, "help": "upper bound on worker processes (default: CPUs available)"},
    "seed": {"type": int, "help": "resampling seed"},
    "iterations": {"type": int, "help": "resampling iterations"},
    "out": {"help": "output directory for reports, diffs, outbox"},
    "format": {"choices": ["json", "csv"], "default": "json", "help": "report format"},
    "kb": {"help": "variability knowledge-base JSON file"},
    "base-url": {"default": "http://localhost/chartqa",
                 "help": "base URL prefixed to diff links in digests"},
    "from": {"dest": "from_id", "help": "older snapshot id"},
    "to": {"dest": "to_id", "help": "newer snapshot id"},
    "periods": {"help": "semicolon-separated label=START..END snapshot-id ranges"},
    "groups": {"help": "JSON file with n1 and n2 value arrays"},
}


def _is_int(value: Any) -> bool:
    return type(value) is int  # bools are not integers here


# config key -> (default, check, what the value must be); each default is
# written as its flag would give it
_CONFIG_KEYS = {
    "threshold": (DEFAULT_THRESHOLD, _is_int, "an integer"),
    "seed": (0, _is_int, "an integer"),
    "iterations": (10000, _is_int, "an integer"),
    "blacklist": (",".join(DEFAULT_BLACKLIST), lambda v: isinstance(v, str) or isinstance(
        v, list) and all(isinstance(item, (str, int, float)) for item in v),
        "a string or a list of scalars"),
    "engine": ("builtin", lambda v: v in _ENGINES, " or ".join(_ENGINES)),
    # None leaves ExternalEngine to read CHARTQA_RENDERER
    "renderer_bin": (None, lambda v: isinstance(v, str), "a string"),
}


def _resolve(args: argparse.Namespace) -> None:
    """Fill each config key the command takes and no flag gave, from the
    config file where it holds the key, else from the default; ``jobs`` is
    the CPUs available where the command takes no ``--jobs`` or none was given."""
    config = {}
    if getattr(args, "config", None):
        import yaml

        from .yamlutil import load_unique

        with open(args.config, encoding="utf-8") as fh:
            try:
                config = load_unique(fh.read()) or {}
            except yaml.YAMLError as exc:
                raise ChartQAError(f"{args.config}: config file is not YAML: {exc}") from exc
        if not isinstance(config, dict):
            raise ChartQAError("config file must hold a YAML mapping")
        for key in config:
            if key not in _CONFIG_KEYS:
                raise ChartQAError(f"{args.config}: unknown config key {key!r}")
    for key, (default, valid, want) in _CONFIG_KEYS.items():
        if getattr(args, key, False) is not None:
            continue  # the command does not take the key, or a flag gave it
        if key in config and not valid(config[key]):
            raise ChartQAError(f"{args.config}: config key {key!r} must be {want}")
        setattr(args, key, config.get(key, default))
    if getattr(args, "jobs", None) is None:
        args.jobs = _cpus()


def _duplicate_config(args: argparse.Namespace) -> DuplicateConfig:
    from .quality import DuplicateConfig

    blacklist = args.blacklist
    if isinstance(blacklist, str):
        blacklist = [item.strip() for item in blacklist.split(",")]
    return DuplicateConfig(threshold=args.threshold,
                           blacklist=tuple(str(item) for item in blacklist))


def _engine(args: argparse.Namespace):
    from .render import BuiltinEngine, ExternalEngine

    if args.engine == "external":
        return ExternalEngine(args.renderer_bin)
    return BuiltinEngine()


def _emit(payload: str, out_dir: str | None, file_name: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, file_name), "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(document: Any, out_dir: str | None, file_name: str) -> None:
    from . import report as report_mod

    _emit(report_mod.report_json(document), out_dir, file_name)


def _warn_skipped(failures: list[IngestFailure]) -> None:
    for failure in failures:
        log.warning("skipping %s: %s", failure.location, failure.error)


def _load_packages(args: argparse.Namespace) -> tuple[list[ChartPackage], list]:
    """Packages under --path sorted by file name, and the charts that failed to parse."""
    from .ingest import ingest_local_dir

    packages, failures = ingest_local_dir(args.path)
    _warn_skipped(failures)
    return sorted(packages, key=lambda p: p.ref.file_name), failures


def _load_then(fn, root: str, location: str):
    """(index entry, ``fn`` of the chart) for the chart at ``location`` under
    ``root``, or the IngestFailure of a chart that cannot be read."""
    from .ingest import IngestFailure, index_entry, load_chart

    loaded = load_chart(root, location)
    if isinstance(loaded, IngestFailure):
        return loaded
    return index_entry(loaded), fn(loaded)


def _map_charts(fn, args: argparse.Namespace) -> tuple[list[tuple[IndexEntry, Any]],
                                                       list[IngestFailure]]:
    """(index entry, ``fn`` of the chart) of each chart under --path, sorted
    by file name, and the charts that failed to parse, each logged in the
    order found. Each chart is read where ``fn`` runs on it."""
    from .ingest import IngestFailure, chart_locations

    results = _per_chart(functools.partial(_load_then, fn, args.path),
                         chart_locations(args.path), args.jobs)
    failures = [result for result in results if isinstance(result, IngestFailure)]
    _warn_skipped(failures)
    charts = [result for result in results if not isinstance(result, IngestFailure)]
    return sorted(charts, key=lambda chart: chart[0].ref.file_name), failures


def _load_index(args: argparse.Namespace) -> RepoIndex:
    from .ingest import fetch_archive, index_from_packages, parse_repo_index

    if args.index:
        return parse_repo_index(fetch_archive(args.index), args.index)
    if not args.path:
        raise ChartQAError("this command needs --index or --path")
    packages, _ = _load_packages(args)
    return index_from_packages(packages, args.path)


def _load_kb(args: argparse.Namespace) -> VariabilityKnowledgeBase:
    from .quality import VariabilityKnowledgeBase

    return VariabilityKnowledgeBase.load(args.kb) if args.kb else VariabilityKnowledgeBase()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Below this many charts per worker, starting a pool costs more than it saves:
# measured on a 2-CPU host with each worker reading its own charts, `livecheck`
# on 16 charts took 0.37 s with two workers and 0.34 s with one, and on 32
# charts 0.41 s and 0.45 s (medians of 9 runs).
MIN_CHARTS_PER_WORKER = 10


def _per_chart(fn, charts, jobs: int) -> list:
    """``fn`` applied to each chart, results in input order.

    ``fn`` is a pure per-chart function; the per-chart commands pass
    ``_load_then`` bound to ``detect_duplicates`` or ``analyze_chart`` and
    the tree, and the charts are their locations, so each worker reads its
    own charts and only locations go out and index entries and results
    come back. The charts go to ``min(jobs, CPUs, charts //
    MIN_CHARTS_PER_WORKER)`` worker processes; with one worker or fewer they
    are handled here, in order. Reading, rendering and parsing hold the GIL,
    so threads would only take turns. Workers are forked where the platform
    can fork, so none imports chartqa before its first chart (the CLI starts
    no threads that a fork could break), and spawned elsewhere. ``fn``
    travels with each chunk of charts, nothing is kept in worker globals,
    and an exception raised in a worker is raised again here.
    """
    workers = min(jobs, _cpus(), len(charts) // MIN_CHARTS_PER_WORKER)
    if workers <= 1:
        return [fn(chart) for chart in charts]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    chunksize = max(1, len(charts) // (4 * workers))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method)) as pool:
        return list(pool.map(fn, charts, chunksize=chunksize))


# --- subcommand handlers ---

def cmd_snapshot(args: argparse.Namespace) -> int:
    from .ingest import SnapshotStore, fetch_archive, parse_repo_index

    source = args.index
    index = parse_repo_index(fetch_archive(source), source)
    base = os.path.dirname(source)
    archives = {}
    for entry in index.entries:
        location = entry.urls[0] if entry.urls else entry.ref.file_name
        if not location.startswith(("http://", "https://", "/")):
            location = os.path.join(base, location) if base else location
        archives[entry.ref.file_name] = fetch_archive(location, expected_digest=entry.digest)
    snapshot_id = SnapshotStore(args.snapshot_store).record(index, archives)
    _emit_json({"snapshot_id": snapshot_id, "charts": len(archives)}, args.out, "snapshot.json")
    return EXIT_CLEAN


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod
    from .ingest import index_from_entries
    from .quality import analyze_chart

    if args.format == "csv" and not args.out:
        raise ChartQAError("--format csv needs --out to hold one file per table")
    analyze = functools.partial(analyze_chart, kb=_load_kb(args),
                                config=_duplicate_config(args), engine=_engine(args))
    charts, _ = _map_charts(analyze, args)
    reports = [report for _, report in charts]
    index = index_from_entries([entry for entry, _ in charts], args.path)
    irregularities = analytics.detect_irregularities(index)
    sets, metrics = analytics.compute_maintainer_sets(index)
    document = report_mod.build_report(
        subject=args.path,
        sections={
            "quality": [report_mod.quality_report_to_mapping(r) for r in reports],
            "irregularities": report_mod.irregularity_report_to_mapping(irregularities),
            "maintainer_metrics": report_mod.maintainer_metrics_to_mapping(metrics),
        },
    )
    if args.format == "csv":
        tables = report_mod.emit_distributions(reports, sets, metrics)
        for name, text in tables.items():
            _emit(text, args.out, f"{name}.csv")
    _emit_json(document, args.out, "report.json")
    findings = irregularities.total or any(not r.duplicate.is_empty for r in reports)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def cmd_dupes(args: argparse.Namespace) -> int:
    from . import report as report_mod
    from .quality import detect_duplicates

    detect = functools.partial(detect_duplicates, config=_duplicate_config(args))
    reports = [report for _, report in _map_charts(detect, args)[0]]
    document = report_mod.build_report(
        subject=args.path,
        sections={"duplicates": [report_mod.duplicate_report_to_mapping(r) for r in reports]},
    )
    _emit_json(document, args.out, "dupes.json")
    return EXIT_FINDINGS if any(not r.is_empty for r in reports) else EXIT_CLEAN


def cmd_variability(args: argparse.Namespace) -> int:
    from .quality import learn_variability

    kb = _load_kb(args)
    engine = _engine(args)
    packages, _ = _load_packages(args)
    learned = {}
    for pkg in packages:
        try:
            _, new_paths = learn_variability(pkg, kb, engine)
        except RenderFailed as exc:
            log.warning("skipping %s: %s", pkg.ref.file_name, exc)
            continue
        learned[pkg.ref.file_name] = new_paths
    if args.kb:
        kb.save(args.kb)
    _emit_json({"learned": learned, "kb_entries": len(kb)}, args.out, "variability.json")
    return EXIT_CLEAN


def cmd_suggest(args: argparse.Namespace) -> int:
    from . import analytics, rewrite
    from .ingest import index_from_packages
    from .quality import detect_duplicates

    kb = _load_kb(args)
    config = _duplicate_config(args)
    engine = _engine(args)
    packages, _ = _load_packages(args)
    out = args.out or "."
    duplicate_reports = []
    emitted = []
    for pkg in packages:
        dup = detect_duplicates(pkg, config)
        duplicate_reports.append(dup)
        if dup.is_empty:
            continue
        try:
            plan = rewrite.plan_rewrite(pkg, dup)
        except (ChartQAError, ValueError) as exc:
            log.warning("%s: cannot plan rewrite: %s", pkg.metadata.name, exc)
            continue
        if not plan.assignments:
            log.warning("%s: every duplicate group failed span location", pkg.metadata.name)
            continue
        if not rewrite.verify_rewrite(pkg, plan, kb, engine):
            log.warning("%s: rewrite failed verification, diff suppressed", pkg.metadata.name)
            continue
        diff_text = rewrite.emit_diff(pkg, plan)
        diff_dir = os.path.join(out, "diffs")
        os.makedirs(diff_dir, exist_ok=True)
        diff_path = os.path.join(diff_dir, f"{pkg.ref.file_name}.patch")
        with open(diff_path, "w", encoding="utf-8") as fh:
            fh.write(diff_text)
        emitted.append({
            "chart": pkg.ref.file_name,
            "variables": len(plan.assignments),
            "diff": diff_path,
        })
    index = index_from_packages(packages, args.path)
    irregularities = analytics.detect_irregularities(index)
    batch = rewrite.build_issue_digests(
        irregularities, duplicate_reports, index, args.base_url
    )
    outbox = rewrite.write_outbox(batch, os.path.join(out, "outbox"))
    _emit_json({
        "diffs": emitted,
        "digests": len(batch.digests),
        "unique_issues": batch.unique_issue_count,
        "avg_issues_per_recipient": round(batch.avg_issues_per_recipient, 2),
        "outbox": outbox,
    }, args.out, "suggest.json")
    return EXIT_FINDINGS if emitted or batch.unique_issue_count else EXIT_CLEAN


def cmd_authorsets(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod

    index = _load_index(args)
    _, metrics = analytics.compute_maintainer_sets(index)
    document = report_mod.build_report(
        subject=index.source,
        sections={"maintainer_metrics": report_mod.maintainer_metrics_to_mapping(metrics)},
    )
    _emit_json(document, args.out, "authorsets.json")
    return EXIT_CLEAN


def cmd_irregularities(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod

    index = _load_index(args)
    irregularities = analytics.detect_irregularities(index)
    document = report_mod.build_report(
        subject=index.source,
        sections={"irregularities": report_mod.irregularity_report_to_mapping(irregularities)},
    )
    _emit_json(document, args.out, "irregularities.json")
    return EXIT_FINDINGS if irregularities.total else EXIT_CLEAN


def cmd_changes(args: argparse.Namespace) -> int:
    from . import analytics
    from .ingest import SnapshotStore

    store = SnapshotStore(args.snapshot_store)
    ids = store.ids()
    from_id = args.from_id or (ids[-2] if len(ids) >= 2 else None)
    to_id = args.to_id or (ids[-1] if ids else None)
    if not from_id or not to_id:
        raise ChartQAError("changes needs two snapshots (or --from/--to)")
    changes = analytics.detect_changes(store.load(from_id), store.load(to_id))
    _emit_json({
        "from": changes.from_id,
        "to": changes.to_id,
        "added": [r.file_name for r in changes.added],
        "removed": [r.file_name for r in changes.removed],
        "updated": [r.file_name for r in changes.updated],
        "vupdates": [
            {"removed": old.file_name, "added": new.file_name}
            for old, new in changes.vupdates
        ],
    }, args.out, "changes.json")
    return EXIT_CLEAN


def _parse_periods(spec: str | None, ids: list[str]) -> list[tuple[str, str, str]]:
    if not spec:
        return [("all", ids[0], ids[-1])]
    periods = []
    for piece in spec.split(";"):
        label, _, span = piece.partition("=")
        start, sep, end = span.partition("..")
        if not sep:
            raise ChartQAError(f"bad period spec {piece!r}, want label=START..END")
        periods.append((label.strip(), start.strip(), end.strip()))
    return periods


def cmd_trends(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod
    from .ingest import SnapshotStore

    store = SnapshotStore(args.snapshot_store)
    ids = store.ids()
    if len(ids) < 2:
        raise ChartQAError("trends need at least two snapshots")
    snapshots = [store.load(snapshot_id) for snapshot_id in ids]
    periods = _parse_periods(args.periods, ids)
    changes = analytics.adjacent_changes(snapshots)
    table = analytics.period_metrics(snapshots, periods, changes)
    histories = analytics.change_histories(snapshots, changes)
    profiles = analytics.classify_activity(histories)
    document = report_mod.build_report(
        subject=store.root,
        sections={
            "trends": table,
            "activity": [
                {
                    "stem": p.stem,
                    "days_observed": p.days_observed,
                    "days_changed": p.days_changed,
                    "dcr": round(p.dcr, 2),
                    "level": p.level,
                }
                for p in profiles
            ],
        },
    )
    _emit_json(document, args.out, "trends.json")
    return EXIT_CLEAN


def _finite_numbers(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in value
    )


def cmd_stats(args: argparse.Namespace) -> int:
    from . import report as report_mod, stats

    groups_path = args.groups
    with open(groups_path, encoding="utf-8") as fh:
        groups = json.load(fh)
    if not isinstance(groups, dict) or not all(
        _finite_numbers(groups.get(name)) for name in ("n1", "n2")
    ):
        raise ChartQAError(
            f"{groups_path}: want a JSON object with n1 and n2 lists of finite numbers"
        )
    result = stats.resampled_group_test(
        groups["n1"], groups["n2"],
        iterations=args.iterations, seed=args.seed,
    )
    document = report_mod.build_report(
        subject=groups_path,
        sections={"statistics": result.to_mapping()},
    )
    _emit_json(document, args.out, "stats.json")
    return EXIT_CLEAN


def cmd_graph(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod

    index = _load_index(args)
    sets, _ = analytics.compute_maintainer_sets(index)
    irregularities = analytics.detect_irregularities(index)
    _emit(report_mod.emit_dot(sets, irregularities), args.out, "maintainers.dot")
    return EXIT_CLEAN


def cmd_livecheck(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod
    from .quality import detect_duplicates

    detect = functools.partial(detect_duplicates, config=_duplicate_config(args))
    charts, failures = _map_charts(detect, args)
    if not charts and failures:
        raise ChartQAError(
            "no parseable chart found: " + "; ".join(f.error for f in failures[:3])
        )
    if not charts:
        raise ChartQAError(f"no chart found under {args.path}")
    findings = []
    for entry, dup in charts:
        chart_findings = [
            {"kind": kind, "detail": analytics.CHART_RULES[kind]}
            for kind in analytics.chart_irregularities(entry.ref, entry.maintainers)
        ]
        for group in dup.groups:
            chart_findings.append({
                "kind": "duplicate-values",
                "detail": f"value {group.canonical_value!r} occurs {group.count} times",
                "occurrences": list(group.occurrences),
            })
        findings.append({"chart": entry.ref.file_name, "findings": chart_findings})
    payload = {
        "subject": args.path,
        "charts": findings,
        "clean": all(not f["findings"] for f in findings),
    }
    sys.stdout.write(report_mod.report_json(payload))
    return EXIT_CLEAN if payload["clean"] else EXIT_FINDINGS


# name -> (handler, help, flags); each command lists exactly the flags it
# reads, and a flag marked ``!`` is required
_COMMANDS = {
    "snapshot": (cmd_snapshot, "record a dated snapshot of a repository index and its archives",
                 "index! snapshot-store! out"),
    "analyze": (cmd_analyze, "full per-chart quality reports",
                "config path! threshold blacklist engine renderer-bin kb jobs out format"),
    "dupes": (cmd_dupes, "duplicate-value reports only", "config path! threshold blacklist out"),
    "variability": (cmd_variability, "learn variable template values into the knowledge base",
                    "config path! engine renderer-bin kb out"),
    "suggest": (cmd_suggest, "emit rewrite diffs and maintainer digests",
                "config path! threshold blacklist engine renderer-bin kb out base-url"),
    "authorsets": (cmd_authorsets, "maintainer-set metrics", "index path out"),
    "irregularities": (cmd_irregularities, "metadata irregularity report", "index path out"),
    "changes": (cmd_changes, "classified differences between two snapshots",
                "snapshot-store! from to out"),
    "trends": (cmd_trends, "period trend metrics over a snapshot store",
               "snapshot-store! periods out"),
    "stats": (cmd_stats, "resampled signed-rank test over two value groups",
              "config groups! seed iterations out"),
    "graph": (cmd_graph, "maintainer-chart graph in DOT format", "index path out"),
    "livecheck": (cmd_livecheck, "CI check: exit 1 when a chart has quality findings",
                  "config path! threshold blacklist"),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a flag it does not take is an error shown with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartqa",
        description="Quality assessment for declarative cloud-application charts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_CommandParser)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for flag in flags.split():
            flag_name = flag.rstrip("!")
            spec = dict(_FLAGS[flag_name], required=flag.endswith("!"))
            default = _CONFIG_KEYS.get(flag_name.replace("-", "_"), (None,))[0]
            if default is not None:
                spec["help"] += f" (default {default})"
            sub.add_argument(f"--{flag_name}", **spec)
    return parser


def cli_dispatch(argv: Sequence[str]) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_CLEAN if exc.code in (0, None) else EXIT_ERROR
    try:
        _resolve(args)
        return _COMMANDS[args.command][0](args)
    except (ChartQAError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
