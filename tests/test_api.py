"""Public API: every exported and documented name resolves in a fresh interpreter."""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv[1] is a JSON list of [module, name] pairs, or "__all__" for every name
# chartqa exports; prints the pairs checked and the ones that do not resolve
RESOLVE = """
import importlib, json, sys
import chartqa
if sys.argv[1] == "__all__":
    pairs = [["chartqa", name] for name in chartqa.__all__]
else:
    pairs = json.loads(sys.argv[1])
missing = []
for module, name in pairs:
    try:
        getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        missing.append(f"{module}.{name}: {exc}")
print(json.dumps({"checked": len(pairs), "missing": missing}))
"""


def resolve_fresh(arg: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", RESOLVE, arg],
                          capture_output=True, text=True, timeout=60, env=env, check=True)
    return json.loads(proc.stdout)


def readme_library_imports() -> list[list[str]]:
    """[module, name] of each chartqa import in the README "Library" snippet."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    return [
        [node.module, alias.name]
        for node in ast.walk(ast.parse(snippet))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "chartqa"
        for alias in node.names
    ]


def test_every_name_in_all_resolves():
    result = resolve_fresh("__all__")
    assert result["checked"] > 0
    assert result["missing"] == []


def test_readme_library_imports_resolve():
    documented = readme_library_imports()
    assert ["chartqa", "verify_rewrite"] in documented
    assert resolve_fresh(json.dumps(documented)) == {"checked": len(documented), "missing": []}


def test_star_import_and_dir_cover_all():
    code = ("import json, chartqa\n"
            "names = {}\n"
            "exec('from chartqa import *', names)\n"
            "print(json.dumps([sorted(chartqa.__all__), sorted(names), dir(chartqa)]))")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env, check=True)
    exported, star, listed = json.loads(proc.stdout)
    assert exported
    assert set(exported) <= set(star)
    assert set(exported) <= set(listed)
