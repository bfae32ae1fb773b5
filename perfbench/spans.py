"""Spans around chartqa's public functions, and the self-time arithmetic.

``Tracer.install()`` wraps every public function and public method defined
in the layer modules and rebinds each wrapper in every chartqa module that
holds the original, because ``from .x import y`` copies the name. Each
thread keeps its own span list and stack, so ``analyze --jobs 2`` records
its worker spans without a lock. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

LAYER_MODULES = (
    "yamlutil", "core", "ingest", "render", "quality", "rewrite",
    "analytics", "stats", "report",
)
# per-scalar helpers: a wrapper would cost more than the call, so their time
# stays in the caller's self time
UNWRAPPED = frozenset({
    "yamlutil.canon", "yamlutil.is_scalar", "yamlutil.build_path",
    "yamlutil.parse_path", "yamlutil.get_at", "yamlutil.set_at",
    "core.mangle_stem", "core.ChartRef.from_name_version",
})


def _exact(result) -> int:
    return int(result.method == "exact")


# counters read from a layer's return value: span name -> (counter, probe)
PROBES = {
    "yamlutil.sentinel_parse": ("errors", lambda r: int(r.error is not None)),
    "render.render_chart": ("failures", lambda r: len(r.failures)),
    "ingest.ingest_local_dir": ("failures", lambda r: len(r[1])),
    "quality.learn_variability": ("learned", lambda r: len(r[1])),
    "rewrite.verify_rewrite": ("passed", lambda r: int(bool(r))),
    "stats.wilcoxon_signed_rank": ("exact", _exact),
    "stats.resampled_group_test": ("iterations", lambda r: r.iterations),
}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(threads) -> dict:
    """Aggregate per-thread span lists into per-name totals.

    Each thread's list holds ``(name, start, end, parent)`` tuples, where
    ``parent`` indexes the same list or is -1 for a top-level span. Returns
    ``{"layers": {name: {"calls", "total_s", "self_s"}}, "top_level_s"}``,
    where ``top_level_s`` is the union of all top-level spans across threads.
    """
    layers: dict[str, dict] = {}
    top_level = []
    for spans in threads:
        children: dict[int, list] = {}
        for span in spans:
            if span is None:  # still open: the command raised past it
                continue
            _, start, end, parent = span
            if parent < 0:
                top_level.append((start, end))
            else:
                children.setdefault(parent, []).append((start, end))
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, _ = span
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered(children.get(i, ()))
    return {"layers": layers, "top_level_s": covered(top_level)}


class Tracer:
    """Records spans in memory; ``summary()`` reduces them when the command ends."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[tuple[list, dict]] = []
        self._register = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, [])  # spans, counters, stack
            self._local.state = state
            with self._register:
                self._threads.append(state[:2])
        return state

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            spans, counters, stack = self._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if probe is not None:
                key = f"{name}.{probe[0]}"
                counters[key] = counters.get(key, 0) + probe[1](result)
            return result

        return span

    def install(self, package: str = "chartqa") -> None:
        """Wrap the layer modules' public callables and rebind every copy of them."""
        importlib.import_module(package)
        replaced: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{short}.{attr}"
                    if name not in UNWRAPPED and not inspect.isgeneratorfunction(value):
                        replaced[id(value)] = self.wrap(name, value)
                elif inspect.isclass(value):
                    self._wrap_methods(short, value)
        for module in _package_modules(package):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(module, attr, replaced[id(value)])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                if not inspect.isgeneratorfunction(raw.__func__):
                    setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def summary(self) -> dict:
        with self._register:
            threads = list(self._threads)
        out = summarize([spans for spans, _ in threads])
        counters: dict[str, int] = {}
        for _, local in threads:
            for key, value in local.items():
                counters[key] = counters.get(key, 0) + value
        out["counters"] = counters
        return out


def _package_modules(package: str) -> list:
    prefix = package + "."
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(prefix))
    ]
