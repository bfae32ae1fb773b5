"""Shared fixture builders: in-memory charts, archives and indices."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tarfile

import pytest
import yaml

from chartqa import cli
from chartqa.core import ChartPackage, package_from_files, write_package_dir
from chartqa.ingest import package_from_dir, sha256_digest


def chart_files(
    name: str = "web",
    version: str = "1.0.0",
    templates: dict[str, str] | None = None,
    values: dict | None = None,
    maintainers: list[dict] | None = None,
    extra: dict[str, str] | None = None,
) -> dict[str, str]:
    meta = {"name": name, "version": version, "description": f"{name} fixture"}
    if maintainers is not None:
        meta["maintainers"] = maintainers
    files = {"Chart.yaml": yaml.safe_dump(meta, sort_keys=False)}
    if values is not None:
        files["values.yaml"] = yaml.safe_dump(values, sort_keys=False)
    for path, body in (templates or {}).items():
        files[f"templates/{path}"] = body
    files.update(extra or {})
    return files


def make_package(**kwargs) -> ChartPackage:
    return package_from_files(chart_files(**kwargs))


def make_archive(files: dict[str, str | bytes], chart_name: str = "web") -> bytes:
    """Gzipped tar with a single top-level directory, like a packed chart."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        for path, body in sorted(files.items()):
            data = body.encode("utf-8") if isinstance(body, str) else body
            info = tarfile.TarInfo(name=f"{chart_name}/{path}")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def count_calls(monkeypatch, name: str, *modules) -> list[tuple]:
    """Replace ``name`` in each module with a wrapper recording its positional args."""
    original = getattr(modules[0], name)
    calls: list[tuple] = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def patched_package(root, pkg: ChartPackage, diff_text: str, tool: str = "patch") -> ChartPackage:
    """Write ``pkg`` as the chart directory ``root/<chart name>``, apply
    ``diff_text`` there with ``patch -p1`` (or ``git apply -p1``) and read the
    directory back; skips the test where the tool is not installed."""
    if shutil.which(tool) is None:
        pytest.skip(f"{tool} not installed")
    chart_dir = os.path.join(root, pkg.metadata.name)
    write_package_dir(pkg, chart_dir)
    patch_file = os.path.join(root, "fix.patch")
    with open(patch_file, "w", encoding="utf-8") as fh:
        fh.write(diff_text)
    cmd = ["patch", "-p1", "--batch", "-i", patch_file] if tool == "patch" \
        else ["git", "apply", "-p1", patch_file]
    subprocess.run(cmd, cwd=root, check=True, capture_output=True)
    return package_from_dir(chart_dir)


# the address space a child of run_limited may map: far above any chart here,
# far below what a hostile input that outgrows its bounds would take
CHILD_MEMORY = 2 << 30


def run_limited(*argv, cpu_seconds: int = 30, wall_seconds: float = 60,
                memory: int = CHILD_MEMORY) -> subprocess.CompletedProcess:
    """``python -m chartqa *argv`` in a child process, with its exit code,
    stdout and stderr. The child alone may map at most ``memory`` bytes,
    and is stopped by SIGXCPU past ``cpu_seconds`` of CPU and by SIGALRM
    past ``wall_seconds``; asserts that it was not stopped by a signal and
    wrote no traceback."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
        signal.setitimer(signal.ITIMER_REAL, wall_seconds)  # kept across exec

    proc = subprocess.run([sys.executable, "-m", "chartqa", *argv],
                          capture_output=True, text=True, preexec_fn=limit)
    assert proc.returncode >= 0, f"killed by signal {-proc.returncode}: {proc.stderr}"
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def make_index_yaml(entries: dict[str, list[dict]], api_version: str = "v1") -> bytes:
    return yaml.safe_dump(
        {"apiVersion": api_version, "entries": entries}, sort_keys=False
    ).encode("utf-8")


def write_chart_dir(tmp_path, name: str, files: dict[str, str]) -> str:
    chart_dir = tmp_path / name
    for rel, body in files.items():
        target = chart_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body)
    return str(chart_dir)


DB_1_10 = b"entries:\n  db:\n    - version: 1.10\n"


def write_pre_reader_snapshot(store_root, snapshot_id: str, **index_cache) -> None:
    """A snapshot of ``DB_1_10`` as a store recorded before index scalars were
    read as written left it: its cached entry names ``db-1.1.tgz``."""
    base = os.path.join(store_root, snapshot_id)
    os.makedirs(os.path.join(base, "archives"))
    with open(os.path.join(base, "index.yaml"), "wb") as fh:
        fh.write(DB_1_10)
    entry = {"name": "db", "version": "1.1", "maintainers": [], "urls": [], "digest": None}
    manifest = {
        "id": snapshot_id, "source": "memory:", "fetched_at": f"{snapshot_id}T00:00:00+00:00",
        "digest_algorithm": "sha256", "digests": {},
        "index": {"sha256": sha256_digest(DB_1_10), "entries": [entry], **index_cache},
    }
    with open(os.path.join(base, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def _tree_state(root: str) -> dict[str, tuple]:
    """Each path under ``root``, relative and ``/``-separated: a file as its
    content digest, a directory as only being one."""
    state: dict[str, tuple] = {}
    for base, dirs, names in os.walk(root):
        for name in dirs + names:
            full = os.path.join(base, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            if os.path.isdir(full):
                state[rel] = ("dir",)
            else:
                with open(full, "rb") as fh:
                    state[rel] = ("file", hashlib.sha256(fh.read()).hexdigest())
    return state


@contextlib.contextmanager
def writes_outside(root, *outputs: str):
    """A list that, when the block ends, holds each path under ``root`` the
    block added, removed or changed outside the declared ``outputs`` (paths
    relative to ``root``), sorted. A directory holding an output may be created."""
    root = str(root)
    before = _tree_state(root)
    changed: list[str] = []
    yield changed
    after = _tree_state(root)

    def declared(path: str) -> bool:
        return any(path == out or path.startswith(out + "/") for out in outputs) or (
            after.get(path) == ("dir",) and any(out.startswith(path + "/") for out in outputs))

    changed.extend(sorted(path for path in before.keys() | after.keys()
                          if before.get(path) != after.get(path) and not declared(path)))


@pytest.fixture
def two_cpu_pool(monkeypatch) -> None:
    """Make the CLI's per-chart commands start two workers for two charts or more."""
    monkeypatch.setattr(cli, "MIN_CHARTS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def simple_package() -> ChartPackage:
    return make_package(
        values={"app": "web"},
        maintainers=[{"name": "alice", "email": "alice@example.org"}],
        templates={
            "deploy.yaml": (
                "apiVersion: v1\n"
                "kind: Deployment\n"
                "metadata:\n"
                "  name: {{ .Values.app }}\n"
            ),
        },
    )
