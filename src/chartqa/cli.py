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
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence

# building the parser needs only these; each handler imports the modules it uses
from . import DEFAULT_BLACKLIST, DEFAULT_THRESHOLD
from .errors import (ChartQAError, FetchError, InputFileError, RenderFailed, TooManyLeaves,
                     WorkerFailed)

if TYPE_CHECKING:
    from .ingest import RepoIndex
    from .quality import DuplicateConfig, VariabilityKnowledgeBase

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


def _log(level: str, message: str) -> None:
    """``message`` at ``level`` (``"warning"`` or ``"error"``) on the ``chartqa``
    logger, shown as ``LEVEL message`` on standard error; ``logging`` is imported
    and configured with the first line, so a command that logs nothing never loads it."""
    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    getattr(logging.getLogger("chartqa"), level)("%s", message)


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

        from .files import MAX_FILE_BYTES, read_file
        from .yamlutil import load_unique

        try:
            config = load_unique(read_file(args.config, MAX_FILE_BYTES, InputFileError).decode())
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{args.config}: config file is not UTF-8: {exc}") from exc
        except yaml.YAMLError as exc:
            raise InputFileError(f"{args.config}: config file is not YAML: {exc}") from exc
        config = {} if config is None else config  # only an empty document is no settings
        if not isinstance(config, dict):
            raise InputFileError(f"{args.config}: config file must hold a YAML mapping")
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


def _load_then(fn, root: str, location: str) -> tuple:
    """(index entry, ``fn`` of the chart) for the chart at ``location`` under
    ``root``, or (``location``, why it cannot be read) where reading it
    raises a ChartQAError or an OSError, or ``fn`` raises TooManyLeaves."""
    from .ingest import index_entry, load_chart

    try:
        loaded = load_chart(root, location)
    except (ChartQAError, OSError) as exc:
        return location, f"{type(exc).__name__}: {exc}"
    try:
        return index_entry(loaded), fn(loaded)
    except TooManyLeaves as exc:  # refused as its templates are read
        return location, f"{type(exc).__name__}: {exc}"


def _map_charts(fn, args: argparse.Namespace,
                notes=lambda entry, result: ()) -> tuple[RepoIndex, list]:
    """The synthesized index of the charts under --path that parse, listed by
    file name, and ``fn`` of each of them in that order. Each chart is read
    where ``fn`` runs on it. Every per-chart line is logged here: first why
    each chart that cannot be read is skipped, in the order found, then the
    lines ``notes`` gives for each chart's index entry and result, in
    file-name order. A tree with no chart, or none that parses, is an error."""
    from .ingest import chart_locations, index_from_entries

    results = _per_chart(functools.partial(_load_then, fn, args.path),
                         chart_locations(args.path), args.jobs)
    skipped = [result for result in results if type(result[0]) is str]
    charts = sorted((result for result in results if type(result[0]) is not str),
                    key=lambda chart: chart[0].ref.file_name)
    for line in [f"skipping {location}: {reason}" for location, reason in skipped] + \
            [note for entry, result in charts for note in notes(entry, result)]:
        _log("warning", line)
    if not charts and skipped:
        raise ChartQAError(
            "no parseable chart found: " + "; ".join(reason for _, reason in skipped[:3]))
    if not charts:
        raise ChartQAError(f"no chart found under {args.path}")
    return (index_from_entries([entry for entry, _ in charts], args.path),
            [result for _, result in charts])


def _load_index(args: argparse.Namespace) -> RepoIndex:
    from .ingest import fetch_archive, parse_repo_index

    if args.index:
        return parse_repo_index(fetch_archive(args.index), args.index)
    if not args.path:
        raise ChartQAError("this command needs --index or --path")
    return _map_charts(lambda pkg: None, args)[0]


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


# Most 4-byte records the pool deals through its pipe: all are written before the
# first fork in one write of at most PIPE_BUF bytes (4096 on Linux), which an empty
# pipe takes whole without blocking; each read of 4 bytes then takes one whole
# record, and a read finds EOF once every record is taken.
_DEAL_RECORDS = 1024


def _per_chart(fn, charts, jobs: int) -> list:
    """``fn`` applied to each chart, results in input order.

    ``fn`` is a pure per-chart function; every command that reads --path
    passes ``_load_then`` bound to the tree and to its own per-chart
    function (``detect_duplicates``, ``analyze_chart``, ``variable_values``,
    ``suggest_rewrite`` or one returning None), and the charts are their
    locations, so each process reads its own charts and only index entries
    and results come back. ``min(jobs, CPUs, charts // MIN_CHARTS_PER_WORKER)``
    processes handle the charts, this one among them; with one or fewer,
    or where the platform cannot fork, they are handled here, in order.
    Reading, rendering and parsing hold the GIL, so threads would only
    take turns.

    Charts are dealt on demand in blocks of ``ceil(charts / 1024)``:
    process ``w`` (this one is 0) handles block ``w`` first, then after
    each block takes the first chart number of another from a shared pipe,
    until the pipe is empty. Forked children inherit ``fn``, the charts and
    the pipe (the CLI starts no threads that a fork could break); each
    sends back its (chart number, result) pairs, or the exception that
    stopped it, as one pickle through its own pipe and leaves through
    ``os._exit``. An exception raised in a child is raised again here,
    caused by the child's traceback text; a child that ends without sending
    a whole reply is a WorkerFailed. An exception in this process's own
    share propagates as itself once the blocks left are taken from the
    pipe, so the children stop after their current chart.
    """
    workers = min(jobs, _cpus(), len(charts) // MIN_CHARTS_PER_WORKER)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(chart) for chart in charts]
    import pickle  # noqa: F401  (imported before the forks, so no child imports it again)

    size = -(-len(charts) // _DEAL_RECORDS)
    deal, write_end = os.pipe()
    try:
        os.write(write_end, b"".join(
            first.to_bytes(4, "little") for first in range(workers * size, len(charts), size)))
    finally:
        os.close(write_end)
    share = functools.partial(_share, fn, charts, size, deal)
    pipes, pids = [], []
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(functools.partial(share, worker * size), write_end, pipes)
                pids.append(pid)
            finally:
                # a later child must not hold this pipe open, or its reader never sees EOF
                os.close(write_end)
        done = share(0)
        replies = [pipe.read() for pipe in pipes]
    finally:
        # records are left only where this process stopped early; taking them stops the children
        while os.read(deal, 4 * _DEAL_RECORDS):
            pass
        os.close(deal)
        for pipe in pipes:
            pipe.close()  # first, so a child still writing gets EPIPE instead of blocking
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, reply, status in zip(pids, replies, statuses):
        done += _worker_results(pid, reply, status)
    results = [None] * len(charts)
    for number, result in done:
        results[number] = result
    return results


def _share(fn, charts, size: int, deal: int, first: int) -> list:
    """(chart number, ``fn`` of the chart) for the block of ``size`` charts
    from number ``first``, then for each block dealt from ``deal`` until it is empty."""
    done = []
    while True:
        done += [(number, fn(charts[number]))
                 for number in range(first, min(first + size, len(charts)))]
        record = os.read(deal, 4)
        if not record:
            return done
        first = int.from_bytes(record, "little")


def _serve(share, write_end: int, pipes) -> None:
    """A forked child's whole life: the pairs ``share()`` returns, or the
    exception that stopped it, written as one pickle to ``write_end``; never returns."""
    try:
        import pickle

        for pipe in pipes:  # the result pipes' read ends inherited, its own among them
            pipe.close()
        try:
            reply = (None, pickle.dumps(share(), pickle.HIGHEST_PROTOCOL))
        except BaseException as exc:  # raised again in the parent; an unpicklable result too
            import traceback

            try:
                error = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
            except Exception:
                error = None
            reply = (traceback.format_exc(), error)
        with os.fdopen(write_end, "wb") as out:
            out.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker, as its cause here."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _worker_results(pid: int, reply: bytes, status: int) -> list:
    """The results in a worker's whole reply; else its exception is raised, or a
    WorkerFailed when the worker ended before sending a whole reply."""
    import pickle

    try:
        worker_traceback, payload = pickle.loads(reply)
    except (EOFError, pickle.UnpicklingError):  # a cut-off reply
        ended = (f"was killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                 else f"exited with status {os.waitstatus_to_exitcode(status)}")
        raise WorkerFailed(f"worker process {pid} {ended} before sending its results") from None
    if worker_traceback is None:
        return pickle.loads(payload)
    try:
        error = pickle.loads(payload)
    except Exception:  # the worker could not pickle it (None), or it does not unpickle here
        error = RuntimeError(f"worker process {pid} raised an exception that could not "
                             "be sent back")
    raise error from _WorkerTraceback(worker_traceback)


# --- subcommand handlers ---

def cmd_snapshot(args: argparse.Namespace) -> int:
    from urllib.parse import urljoin

    from .ingest import SnapshotStore, fetch_archive, parse_repo_index

    source = args.index
    index = parse_repo_index(fetch_archive(source), source)
    remote = source.startswith(("http://", "https://"))
    base = os.path.dirname(source)
    archives = {}
    for entry in index.entries:
        location = entry.urls[0] if entry.urls else entry.ref.file_name
        if remote:
            # resolved as Helm resolves a url against its repository, so no
            # url of a remote index names a file on this machine
            location = urljoin(source, location)
            if not location.startswith(("http://", "https://")):
                raise FetchError(f"{source}: url {location!r} of {entry.ref.file_name} "
                                 "is not http(s)")
        elif not location.startswith(("http://", "https://", "/")):
            location = os.path.join(base, location) if base else location
        archives[entry.ref.file_name] = fetch_archive(location, expected_digest=entry.digest)
    snapshot_id = SnapshotStore(args.snapshot_store).record(index, archives)
    _emit_json({"snapshot_id": snapshot_id, "charts": len(archives)}, args.out, "snapshot.json")
    return EXIT_CLEAN


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analytics, report as report_mod
    from .quality import analyze_chart

    if args.format == "csv" and not args.out:
        raise ChartQAError("--format csv needs --out to hold one file per table")
    analyze = functools.partial(analyze_chart, kb=_load_kb(args),
                                config=_duplicate_config(args), engine=_engine(args))
    index, reports = _map_charts(analyze, args)
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
    _, reports = _map_charts(detect, args)
    document = report_mod.build_report(
        subject=args.path,
        sections={"duplicates": [report_mod.duplicate_report_to_mapping(r) for r in reports]},
    )
    _emit_json(document, args.out, "dupes.json")
    return EXIT_FINDINGS if any(not r.is_empty for r in reports) else EXIT_CLEAN


def cmd_variability(args: argparse.Namespace) -> int:
    from .quality import variable_values

    kb = _load_kb(args)
    probe = functools.partial(variable_values, kb=kb, engine=_engine(args))
    learned = {}
    # every chart was probed against the knowledge base as loaded; see kb.merge
    index, results = _map_charts(probe, args, lambda entry, values: (
        [f"skipping {entry.ref.file_name}: {values}"] if isinstance(values, RenderFailed) else []))
    for entry, values in zip(index.entries, results):
        if not isinstance(values, RenderFailed):
            learned[entry.ref.file_name] = kb.merge(entry.ref.stem, values)
    if args.kb:
        kb.save(args.kb)
    _emit_json({"learned": learned, "kb_entries": len(kb)}, args.out, "variability.json")
    return EXIT_CLEAN


def cmd_suggest(args: argparse.Namespace) -> int:
    from . import analytics, rewrite

    suggest = functools.partial(rewrite.suggest_rewrite, kb=_load_kb(args),
                                config=_duplicate_config(args), engine=_engine(args))
    index, suggestions = _map_charts(suggest, args, lambda entry, suggestion: suggestion[1])
    out = args.out or "."
    diff_dir = os.path.join(out, "diffs")
    rewrites = [(entry.ref.file_name, os.path.join(diff_dir, f"{entry.ref.file_name}.patch"),
                 rewritten) for entry, (_, _, rewritten) in zip(index.entries, suggestions)
                if rewritten is not None]
    rewrite.remove_stale(diff_dir, ".patch", {diff_path for _, diff_path, _ in rewrites})
    emitted = []
    for file_name, diff_path, (diff_text, variables) in rewrites:
        os.makedirs(diff_dir, exist_ok=True)
        with open(diff_path, "w", encoding="utf-8") as fh:
            fh.write(diff_text)
        emitted.append({"chart": file_name, "variables": variables, "diff": diff_path})
    irregularities = analytics.detect_irregularities(index)
    batch = rewrite.build_issue_digests(
        irregularities, [report for report, _, _ in suggestions], index, args.base_url
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
    try:
        return isinstance(value, list) and all(
            type(v) in (int, float) and math.isfinite(v) for v in value)  # bools are not
    except OverflowError:  # an int too large for a float
        return False


def cmd_stats(args: argparse.Namespace) -> int:
    from . import report as report_mod, stats
    from .files import MAX_FILE_BYTES, read_json

    groups_path = args.groups
    groups = read_json(groups_path, MAX_FILE_BYTES, InputFileError)
    if not isinstance(groups, dict) or not all(
        _finite_numbers(groups.get(name)) for name in ("n1", "n2")
    ):
        raise InputFileError(
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
    findings = []
    index, reports = _map_charts(detect, args)
    for entry, dup in zip(index.entries, reports):
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


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: every command's subparser, so help and an unknown
    command read as ever, but flags only on the one ``argv`` names, its first
    argument that is not an option, the only subparser argparse will run."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="chartqa",
        description="Quality assessment for declarative cloud-application charts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_CommandParser)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for flag in flags.split() if name == command else ():
            flag_name = flag.rstrip("!")
            spec = dict(_FLAGS[flag_name], required=flag.endswith("!"))
            default = _CONFIG_KEYS.get(flag_name.replace("-", "_"), (None,))[0]
            if default is not None:
                spec["help"] += f" (default {default})"
            sub.add_argument(f"--{flag_name}", **spec)
    return parser


def cli_dispatch(argv: Sequence[str]) -> int:
    argv = list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_CLEAN if exc.code in (0, None) else EXIT_ERROR
    try:
        _resolve(args)
        return _COMMANDS[args.command][0](args)
    except (ChartQAError, OSError) as exc:
        _log("error", str(exc))
        return EXIT_ERROR


def main() -> None:
    """The console entry point: ``cli_dispatch`` of the arguments, then standard
    output and error flushed and the process ended at once, skipping interpreter
    teardown; every file a command writes is closed before ``cli_dispatch`` returns.
    Output that cannot be flushed is an operational error, as a failed write
    inside ``cli_dispatch`` is; an exception ``cli_dispatch`` raises propagates."""
    code = cli_dispatch(sys.argv[1:])
    try:
        if sys.stdout:  # None where the process started with it closed
            sys.stdout.flush()
    except OSError as exc:
        _log("error", str(exc))
        code = EXIT_ERROR
    try:
        if sys.stderr:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere is left to report it
    os._exit(code)


if __name__ == "__main__":
    main()
