"""Dependency guard: importing the package loads only declared packages.

A fresh interpreter imports the package's entry points (the library, the
CLI, the socket server and detlint); every third-party distribution it
loads on the way must be one that ``setup.py``'s ``install_requires``
names.  CI installs only those, so an undeclared import breaks every job
on a fresh runner while passing on a machine that happens to have it.

Modules that map to no distribution (numpy's ``cython_runtime`` and
``_cython_*`` helpers) are ignored, and so are the package itself and
whatever ``site`` loaded before the first import.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = ("repro", "repro.cli", "repro.service.server",
                "repro.analysis.static")

_PROBE = """
import importlib, importlib.metadata, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
dists = importlib.metadata.packages_distributions()
loaded = {}
for name in set(sys.modules) - before:
    top = name.partition(".")[0]
    if top in sys.stdlib_module_names or top == "repro":
        continue
    for dist in dists.get(top, ()):
        loaded.setdefault(dist, set()).add(top)
print(json.dumps({dist: sorted(tops) for dist, tops in loaded.items()}))
"""


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            reqs = ast.literal_eval(node.value)
            return {_normalise(re.match(r"[A-Za-z0-9._-]+", r).group())
                    for r in reqs}
    raise AssertionError("setup.py declares no install_requires")


def test_import_loads_only_declared_distributions():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *ENTRY_POINTS],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    declared = _install_requires()
    undeclared = {dist: tops for dist, tops in loaded.items()
                  if _normalise(dist) not in declared}
    assert not undeclared, (
        f"importing {', '.join(ENTRY_POINTS)} loads distributions that "
        f"setup.py's install_requires does not name: {undeclared}")
