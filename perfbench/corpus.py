"""Seeded chart corpora for the three benchmark workloads, with ground truth.

``generate(workload, seed, root, src_dir)`` writes one workload's inputs
under ``root`` and returns what it planted: duplicate values with their
counts per chart, random-key counts, render failures, irregularities and,
for ``evolution``, the day-by-day change log of the snapshot store. The
same seed gives byte-identical files; sizes are fixed so that every seed
asks the program for the same amount of work.

Every literal leaf of a generated template is a fresh token (unique within
its chart) unless it is a planted duplicate, so the planted groups are the
only values a duplicate detector can report.
"""

from __future__ import annotations

import datetime
import gzip
import hashlib
import io
import json
import os
import random
import sys
import tarfile

import yaml

Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Corpus sizes and feature counts, fixed so that every seed asks for the
# same work. They are small enough that each command runs at least three
# times in a 35-second run: on a shared 2-CPU host back-to-back runs of one
# command vary by up to 20 %, so one sample per run is too noisy to compare.
SCAN_CHARTS = 100
SCAN_TEMPLATES = 8
SCAN_LINES = 40
SCAN_MULTI_VERSION = 3  # stems with two chart files
SCAN_SPECIAL = 3  # charts each with control flow, unsupported directives, no maintainer, ...
REWRITE_CHARTS = 40
REWRITE_TEMPLATES = 6
REWRITE_LINES = 60
EVOLUTION_CHARTS = 120
EVOLUTION_DAYS = 30
EVOLUTION_TEMPLATES = 3
EVOLUTION_LINES = 15
EVOLUTION_VUPDATES = 6  # per day, 5 % of the charts
STATS_N1 = 600
STATS_N2 = 16
STATS_ITERATIONS = 1000

FIRST_DAY = datetime.date(2018, 6, 1)
FIXED_MTIME = 1527811200  # 2018-06-01T00:00:00Z, stamped into every archive

WORDS = (
    "alpha", "amber", "anchor", "arrow", "aspen", "atlas", "beacon", "birch",
    "blaze", "bolt", "brook", "cargo", "cedar", "cinder", "comet", "coral",
    "crane", "delta", "drift", "ember", "falcon", "fern", "flint", "forge",
    "frost", "garnet", "glade", "harbor", "hazel", "heron", "indigo", "iris",
    "jasper", "juniper", "kestrel", "lagoon", "larch", "lumen", "maple",
    "meadow", "nimbus", "onyx", "orbit", "otter", "pebble", "pine", "quartz",
    "raven", "ridge", "sable", "sierra", "spruce", "summit", "thistle",
    "tundra", "umber", "vale", "willow", "yarrow", "zephyr",
)
FIRST_NAMES = (
    "Ada", "Alan", "Barbara", "Claude", "Dennis", "Edsger", "Frances", "Grace",
    "Hedy", "Ivan", "John", "Ken", "Leslie", "Margaret", "Niklaus", "Radia",
    "Shafi", "Tim", "Whitfield", "Yukihiro",
)
LAST_NAMES = (
    "Allen", "Backus", "Conway", "Dijkstra", "Engelbart", "Floyd", "Goldberg",
    "Hopper", "Iverson", "Knuth", "Lamport", "Liskov", "McCarthy", "Perlman",
    "Ritchie", "Sammet", "Thompson", "Wirth",
)
KINDS = (
    "Deployment", "Service", "ConfigMap", "Secret", "Ingress", "ServiceAccount",
    "Role", "RoleBinding", "StatefulSet", "DaemonSet", "Job", "CronJob",
    "PersistentVolumeClaim", "NetworkPolicy", "HorizontalPodAutoscaler",
    "PodDisruptionBudget",
)
PREFIXES = ("cfg", "img", "svc", "vol", "env", "tag", "ref", "key", "dns", "pod")
STYLES = ("plain", "single", "double")
WORKLOADS = ("scan", "rewrite", "evolution")


class Slot:
    """One scalar leaf line of a template: ``prefix`` then a value text."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.text: str | None = None
        self.reserved = False


class ChartBuilder:
    """Builds one chart's files from a seeded generator and records what it planted."""

    def __init__(self, rng: random.Random, name: str, version: str):
        self.rng = rng
        self.name = name
        self.version = version
        self.used: set[str] = set()
        self.values: dict[str, object] = {}
        self.templates: list[tuple[str, list]] = []  # (path, lines of str | Slot)
        self.dups: dict[str, int] = {}
        self.random_keys = 0
        self.render_failures = 0
        self.unparseable = 0
        self.kind_cursor = rng.randrange(len(KINDS))

    # --- fresh literals ---

    def token(self, prefix: str | None = None) -> str:
        prefix = prefix or self.rng.choice(PREFIXES)
        while True:
            value = f"{prefix}-{self.rng.getrandbits(40):010x}"
            if value not in self.used:
                self.used.add(value)
                return value

    def number(self) -> str:
        while True:
            value = str(self.rng.randrange(1024, 65000))
            if value not in self.used:
                self.used.add(value)
                return value

    def value_key(self, value: object) -> str:
        key = f"v{len(self.values)}"
        self.values[key] = value
        return key

    # --- structure ---

    def _kind(self) -> str:
        kind = KINDS[self.kind_cursor % len(KINDS)]
        self.kind_cursor += 1
        return kind

    def _document(self, n_lines: int) -> list:
        lines: list = [
            "apiVersion: v1",
            f"kind: {self._kind()}",
            "metadata:",
            "  name: {{ .Release.Name }}-%s" % self.token("obj"),
            "  labels:",
            "    app: {{ .Chart.Name }}",
            Slot("    component: "),
            "spec:",
        ]
        section = 0
        while len(lines) < n_lines - 1:
            lines.append(f"  section{section}:")
            for field in range(min(5, n_lines - len(lines))):
                lines.append(Slot(f"    field{field}: "))
            section += 1
        if len(lines) < n_lines:
            lines.append(Slot("  note: "))
        return lines

    def add_template(self, path: str, n_lines: int, docs: int = 1,
                     comment_doc: bool = False) -> list:
        lines: list = []
        for d in range(docs):
            if d:
                lines.append("---")
            if comment_doc and d == 1:
                lines.append(f"# {self.name}: generated helper notes")
                lines.append("---")
            lines.extend(self._document(max(10, n_lines // docs)))
        self.templates.append((path, lines))
        return lines

    # --- planting ---

    def free_slots(self, templates=None) -> list[Slot]:
        chosen = self.templates if templates is None else templates
        return [
            item for _, lines in chosen for item in lines
            if isinstance(item, Slot) and not item.reserved
        ]

    def plant_duplicates(self, groups: int, span: int = 2, candidates=None) -> None:
        """Plant ``groups`` values, each 3 to 5 times across ``span`` templates."""
        candidates = list(candidates or self.templates)
        for _ in range(groups):
            value = self.token("dup")
            count = self.rng.randint(3, 5)
            chosen_templates = self.rng.sample(candidates, min(span, len(candidates)))
            slots = []
            for i in range(count):
                pool = self.free_slots([chosen_templates[i % len(chosen_templates)]])
                slots.append(self.rng.choice(pool))
                slots[-1].reserved = True
            for slot in slots:
                style = self.rng.choice(STYLES)
                slot.text = {"plain": value, "single": f"'{value}'",
                             "double": f'"{value}"'}[style]
            self.dups[value] = count

    def plant_random(self, count: int, candidates=None) -> None:
        pool = self.free_slots(candidates)
        for slot in self.rng.sample(pool, count):
            slot.reserved = True
            length = self.rng.choice((10, 12, 16))
            if self.rng.random() < 0.5:
                slot.text = "{{ randAlphaNum %d }}" % length
            else:
                slot.text = "{{ randAlphaNum %d | quote }}" % length
        self.random_keys += count

    def plant_unsupported(self, lines: list) -> None:
        """A directive outside the built-in subset: the template fails to render."""
        slot = self.rng.choice([s for s in lines if isinstance(s, Slot) and not s.reserved])
        slot.reserved = True
        slot.text = '{{ include "%s.labels" . }}' % self.name
        self.render_failures += 1

    def plant_control_flow(self, lines: list) -> None:
        """An if-block at column 0: not YAML-shaped after sentinel substitution."""
        lines.insert(0, "{{- if .Values.enabled }}")
        lines.append("{{- end }}")
        for item in lines:
            if isinstance(item, Slot):
                item.reserved = True
                if item.text is None:
                    item.text = self.token()
        self.values["enabled"] = True
        self.unparseable += 1
        self.render_failures += 1

    def _fill(self, slot: Slot) -> None:
        roll = self.rng.random()
        if roll < 0.45:
            slot.text = self.token()
        elif roll < 0.52:
            slot.text = "'%s'" % self.token()
        elif roll < 0.58:
            slot.text = '"%s"' % self.token()
        elif roll < 0.68:
            slot.text = self.number()
        elif roll < 0.80:
            slot.text = "{{ .Values.%s }}" % self.value_key(self.token("val"))
        elif roll < 0.86:
            slot.text = "{{ .Values.%s | quote }}" % self.value_key(self.token("val"))
        elif roll < 0.91:
            slot.text = '{{ .Values.unset%d | default "%s" }}' % (
                self.rng.getrandbits(20), self.token("def"))
        elif roll < 0.95:
            slot.text = "{{ .Values.%s | upper }}" % self.value_key(self.token("val"))
        elif roll < 0.98:
            slot.text = "{{ .Chart.Version }}"
        else:
            slot.text = "{{ .Release.Name }}-%s" % self.token("rel")

    def files(self, maintainers: list[dict] | None) -> dict[str, str]:
        meta: dict = {"apiVersion": "v1", "name": self.name, "version": self.version,
                      "description": f"{self.name} generated chart"}
        if maintainers:
            meta["maintainers"] = maintainers
        out = {"Chart.yaml": yaml.dump(meta, Dumper=Dumper, sort_keys=False)}
        for _, lines in self.templates:
            for item in lines:
                if isinstance(item, Slot) and item.text is None:
                    self._fill(item)
        out["values.yaml"] = yaml.dump(self.values, Dumper=Dumper, sort_keys=False) \
            if self.values else "{}\n"
        for path, lines in self.templates:
            out[path] = "".join(
                (item.prefix + item.text if isinstance(item, Slot) else item) + "\n"
                for item in lines
            )
        return out


# --- packing ---

def pack_archive(name: str, files: dict[str, str]) -> bytes:
    """Gzipped tar with fixed tar and gzip mtimes: same files, same bytes."""
    raw = io.BytesIO()
    with tarfile.open(fileobj=raw, mode="w", format=tarfile.GNU_FORMAT) as tar:
        for path in sorted(files):
            data = files[path].encode("utf-8")
            info = tarfile.TarInfo(f"{name}/{path}")
            info.size = len(data)
            info.mtime = FIXED_MTIME
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(data))
    out = io.BytesIO()
    with gzip.GzipFile(filename="", fileobj=out, mode="wb", mtime=FIXED_MTIME) as gz:
        gz.write(raw.getvalue())
    return out.getvalue()


def write_dir(chart_dir: str, files: dict[str, str]) -> None:
    for path, body in files.items():
        full = os.path.join(chart_dir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(body)


# --- names and people ---

class Names:
    """Chart names made of alphabetic words, so a name's stem is the name without dashes."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.stems: set[str] = set()

    def fresh(self) -> str:
        while True:
            words = self.rng.sample(WORDS, self.rng.choice((1, 2, 2, 3)))
            name = "-".join(words)
            stem = name.replace("-", "")
            if stem not in self.stems:
                self.stems.add(stem)
                return name


def people(rng: random.Random, count: int) -> list[dict]:
    pool = []
    seen = set()
    while len(pool) < count:
        first, last = rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES)
        email = f"{first}.{last}{rng.randrange(100)}@example.org".lower()
        if email in seen:
            continue
        seen.add(email)
        pool.append({"name": f"{first} {last}", "email": email})
    return pool


def version(rng: random.Random) -> str:
    return f"{rng.randint(0, 3)}.{rng.randint(0, 20)}.{rng.randint(0, 9)}"


# --- workloads ---

def _scan(rng: random.Random, root: str) -> dict:
    names = Names(rng)
    pool = people(rng, 40)
    charts_dir = os.path.join(root, "charts")
    os.makedirs(charts_dir)
    n = SCAN_CHARTS

    # one entry per chart file; the last SCAN_MULTI_VERSION entries are a
    # second version of an earlier chart
    plan = [(names.fresh(), version(rng)) for _ in range(n - SCAN_MULTI_VERSION)]
    for name, _ in rng.sample(plan, SCAN_MULTI_VERSION):
        plan.append((name, f"{rng.randint(4, 6)}.0.{rng.randint(0, 9)}"))

    def pick(count):
        return rng.sample(range(n), count)

    dup_charts = pick(n // 5)
    random_charts = pick(n // 2)
    multi_doc = set(pick(n // 4))
    control_flow = set(pick(SCAN_SPECIAL))
    unsupported = set(pick(SCAN_SPECIAL))
    odd_maintainers = pick(2 * SCAN_SPECIAL)
    no_maintainer = set(odd_maintainers[:SCAN_SPECIAL])
    collision = set(odd_maintainers[SCAN_SPECIAL:])
    # an alias is one e-mail under two names, on two different charts
    alias_charts = [i for i in pick(n) if i not in no_maintainer][:2 * SCAN_SPECIAL]
    extra_maintainer: dict[int, dict] = {}
    aliases: dict[str, list[str]] = {}
    for k, person in enumerate(pool[:SCAN_SPECIAL]):
        other = {"name": f"{person['name']} Jr", "email": person["email"]}
        extra_maintainer[alias_charts[2 * k]] = person
        extra_maintainer[alias_charts[2 * k + 1]] = other
        aliases[person["email"]] = sorted([person["name"], other["name"]])

    charts = {}
    for i, (name, ver) in enumerate(plan):
        b = ChartBuilder(rng, name, ver)
        multi = set(rng.sample(range(SCAN_TEMPLATES), 2)) if i in multi_doc else set()
        for t in range(SCAN_TEMPLATES):
            docs = 2 + t % 2 if t in multi else 1
            # at most one comment-only document per chart: such a document
            # still yields one null leaf in the sentinel parse
            b.add_template(f"templates/t{t}.yaml", SCAN_LINES, docs,
                           comment_doc=t == min(multi, default=-1))
        plain_templates = list(b.templates)
        if i in control_flow:
            b.plant_control_flow(plain_templates.pop(rng.randrange(len(plain_templates)))[1])
        if i in unsupported:
            b.plant_unsupported(plain_templates.pop(rng.randrange(len(plain_templates)))[1])
        if i in dup_charts:
            b.plant_duplicates(1 + dup_charts.index(i) % 2, candidates=plain_templates)
        if i in random_charts:
            b.plant_random(1 + random_charts.index(i) % 3, plain_templates)

        maintainers = []
        if i not in no_maintainer:
            maintainers = [dict(p) for p in rng.sample(pool[SCAN_SPECIAL:], 1 + i % 2)]
        if i in collision:
            maintainers.append({"name": name, "email": f"{name}@example.org"})
        if i in extra_maintainer:
            maintainers.append(dict(extra_maintainer[i]))
        files = b.files(maintainers)
        file_name = f"{name}-{ver}.tgz"
        form = "tgz" if i % 2 == 0 else "dir"
        if form == "tgz":
            with open(os.path.join(charts_dir, file_name), "wb") as fh:
                fh.write(pack_archive(name, files))
        else:
            write_dir(os.path.join(charts_dir, f"{name}-{ver}"), files)
        charts[file_name] = {
            "name": name, "version": ver, "stem": name.replace("-", ""), "form": form,
            "dups": b.dups, "random": b.random_keys,
            "render_failures": b.render_failures, "unparseable": b.unparseable,
            "no_maintainer": i in no_maintainer, "name_collision": i in collision,
        }
    broken = "corrupt-chart-0.1.0.tgz"
    with open(os.path.join(charts_dir, broken), "wb") as fh:
        fh.write(bytes(rng.getrandbits(8) for _ in range(512)))
    return {
        "workload": "scan",
        "path": charts_dir,
        "charts": charts,
        "broken": [broken],
        "templates": n * SCAN_TEMPLATES,
        "multiple_versions": sorted({name.replace("-", "") for name, _ in plan[-SCAN_MULTI_VERSION:]}),
        "alias_names": aliases,
    }


def _rewrite(rng: random.Random, root: str) -> dict:
    names = Names(rng)
    pool = people(rng, 30)
    charts_dir = os.path.join(root, "charts")
    os.makedirs(charts_dir)
    with_dups = set(rng.sample(range(REWRITE_CHARTS), -(-REWRITE_CHARTS * 93 // 100)))
    charts = {}
    for i in range(REWRITE_CHARTS):
        name = names.fresh()
        ver = version(rng)
        b = ChartBuilder(rng, name, ver)
        for t in range(REWRITE_TEMPLATES):
            b.add_template(f"templates/t{t}.yaml", REWRITE_LINES)
        if i in with_dups:
            b.plant_duplicates(1 + i % 4, span=3)
        b.plant_random(3 + i % 4)
        files = b.files([dict(p) for p in rng.sample(pool, rng.choice((1, 2)))])
        chart_dir = os.path.join(charts_dir, name)
        write_dir(chart_dir, files)
        charts[f"{name}-{ver}.tgz"] = {
            "name": name, "version": ver, "stem": name.replace("-", ""),
            "dir": chart_dir, "dups": b.dups, "random": b.random_keys,
        }
    return {
        "workload": "rewrite",
        "path": charts_dir,
        "charts": charts,
        "templates": REWRITE_CHARTS * REWRITE_TEMPLATES,
    }


def _small_chart(seed_rng: random.Random, name: str, ver: str, revision: int) -> bytes:
    rng = random.Random(f"{seed_rng.random()}:{name}:{ver}:{revision}")
    b = ChartBuilder(rng, name, ver)
    for t in range(EVOLUTION_TEMPLATES):
        b.add_template(f"templates/t{t}.yaml", EVOLUTION_LINES)
    return pack_archive(name, b.files([{"name": "Evo Maintainer",
                                        "email": f"{name}@example.org"}]))


def _index_yaml(charts: dict[str, tuple[str, str, bytes]]) -> bytes:
    entries: dict[str, list] = {}
    for file_name in sorted(charts):
        name, ver, data = charts[file_name]
        entries.setdefault(name, []).append({
            "name": name, "version": ver, "urls": [file_name],
            "digest": hashlib.sha256(data).hexdigest(),
            "maintainers": [{"name": "Evo Maintainer", "email": f"{name}@example.org"}],
        })
    return yaml.dump({"apiVersion": "v1", "entries": entries}, Dumper=Dumper,
                     sort_keys=False).encode("utf-8")


def _evolution(rng: random.Random, root: str, src_dir: str) -> dict:
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    from chartqa.ingest import SnapshotStore, parse_repo_index

    names = Names(rng)
    current: dict[str, tuple[str, str, bytes]] = {}
    for _ in range(EVOLUTION_CHARTS):
        name, ver = names.fresh(), version(rng)
        current[f"{name}-{ver}.tgz"] = (name, ver, _small_chart(rng, name, ver, 0))

    store_dir = os.path.join(root, "store")
    store = SnapshotStore(store_dir)
    log = []
    ids = []
    sizes = []
    for day in range(EVOLUTION_DAYS):
        date = FIRST_DAY + datetime.timedelta(days=day)
        if day:
            files = sorted(current)
            touched = rng.sample(files, EVOLUTION_VUPDATES + 2)
            vup, upd, rem = touched[:-2], touched[-2:-1], touched[-1:]
            entry = {"added": [], "removed": [], "updated": [], "vupdates": []}
            for old in vup:
                name, ver, _ = current.pop(old)
                major, minor, patch = ver.split(".")
                new_ver = f"{major}.{minor}.{int(patch) + 1}"
                new = f"{name}-{new_ver}.tgz"
                current[new] = (name, new_ver, _small_chart(rng, name, new_ver, 0))
                entry["vupdates"].append([old, new])
            for file_name in upd:
                name, ver, _ = current[file_name]
                current[file_name] = (name, ver, _small_chart(rng, name, ver, day))
                entry["updated"].append(file_name)
            for file_name in rem:
                del current[file_name]
                entry["removed"].append(file_name)
            for _ in range(1 + day % 2):
                name, ver = names.fresh(), version(rng)
                file_name = f"{name}-{ver}.tgz"
                current[file_name] = (name, ver, _small_chart(rng, name, ver, 0))
                entry["added"].append(file_name)
            for key in entry:
                entry[key].sort()
            log.append(entry)
        fetched_at = datetime.datetime(date.year, date.month, date.day, 12,
                                       tzinfo=datetime.timezone.utc)
        index = parse_repo_index(_index_yaml(current), "index.yaml", fetched_at=fetched_at)
        ids.append(store.record(index, {f: data for f, (_, _, data) in current.items()}))
        sizes.append(len(current))

    latest_dir = os.path.join(root, "latest")
    os.makedirs(latest_dir)
    digests = {}
    for file_name, (_, _, data) in current.items():
        with open(os.path.join(latest_dir, file_name), "wb") as fh:
            fh.write(data)
        digests[file_name] = hashlib.sha256(data).hexdigest()
    with open(os.path.join(latest_dir, "index.yaml"), "wb") as fh:
        fh.write(_index_yaml(current))

    groups = {
        # small discrete counts: many zero differences, so most iterations
        # take the exact branch and the rest the normal one
        "n1": [rng.choice((0, 0, 1, 1, 1, 2, 3)) for _ in range(STATS_N1)],
        "n2": [rng.choice((0, 1, 1, 1, 2)) for _ in range(STATS_N2)],
    }
    groups_path = os.path.join(root, "groups.json")
    with open(groups_path, "w", encoding="utf-8") as fh:
        json.dump(groups, fh)
    half = len(ids) // 2
    return {
        "workload": "evolution",
        "store": store_dir,
        "ids": ids,
        "log": log,
        "sizes": sizes,
        "periods": [["first", ids[0], ids[half]], ["second", ids[half], ids[-1]]],
        "latest_index": os.path.join(latest_dir, "index.yaml"),
        "latest_digests": digests,
        "groups": groups_path,
        "stats_seed": rng.randrange(1000),
        "stats_iterations": STATS_ITERATIONS,
    }


def generate(workload: str, seed: int, root: str, src_dir: str) -> dict:
    """Write one workload's inputs under ``root`` (which must not exist yet)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(root)
    rng = random.Random(f"chartqa-bench:{workload}:{seed}")
    if workload == "scan":
        return _scan(rng, root)
    if workload == "rewrite":
        return _rewrite(rng, root)
    return _evolution(rng, root, src_dir)
