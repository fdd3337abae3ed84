"""Regrowth guard: no public ``src`` API that only the tests reach.

Every public function, method and class under ``src/repro`` must be named
somewhere outside its own definition: in ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/``, ``.github/`` or ``README.md``.  The tests do
not count, so an API that only a test calls fails here; delete it, or keep
it in :data:`ALLOWED` with the reason it stays.

In Python files a name counts where the code reads it (a name, an
attribute, or a word of a string literal such as a ``getattr`` key); import
lines, ``__all__`` lists and docstrings do not count, so an export or a
cross-reference alone keeps nothing alive.  Other files count every word.
Occurrences inside any definition of the same name (a recursive call, one
``from_doc`` calling another) do not count either.  A src function used as
a decorator keeps what it decorates: ``@register`` puts it in a registry
read by key.

The search is by name, so a dead method whose name a live definition
shares (a ``from_doc`` beside ``CampaignRun.from_doc``) stays invisible.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Where a reader of the API may live; ``tests/`` is deliberately absent.
SEARCH = ("src", "benchmarks", "examples", "perfbench", ".github", "README.md")

#: Qualified name -> why it stays although nothing outside the tests may
#: name it.  An entry stays even where a same-named reader elsewhere already
#: hides it from the search: it records that keeping it was decided.
ALLOWED: dict[str, str] = {
    "Gantt.free_uids":
        "perfbench's tracer wraps it by name and CI runs the traced workloads",
    "Ganglia":
        "perfbench's tracer imports it to wrap its sample_park; no run "
        "builds one",
    "Ganglia.sample_park":
        "perfbench's tracer wraps it by name and counts its return",
    "Kwapi.sample_park":
        "perfbench's tracer wraps it by name and counts its return; runs "
        "read kwapi one node at a time",
    "wait_until_ready":
        "CI's service-smoke job uses it as the server's readiness gate",
    "ChaosPlan.log_docs":
        "the chaos log CI keeps as an artifact of the chaos tests",
    "ReferenceApi.update_node": "the slide-7 archive: edit a node, commit it",
    "ReferenceApi.at_time": "the slide-7 archive: the version live at a time",
    "ReferenceApi.get_version": "the slide-7 archive: one version by hash",
    "ReferenceApi.diff": "the slide-7 archive: what changed between versions",
    "PropExpr.evaluate":
        "the per-row definition of a property filter that the tests "
        "compare the column index's select against",
    "OarDatabase.matching":
        "the per-row definition of a request's rows that the tests "
        "compare matching_mask against",
    "parse_expression":
        "the property-filter grammar on its own (a request's text before "
        "'/'), the input of evaluate and matching above",
    "MatrixProject": "bench_e3 builds its matrix project",
    "Resource.queue_length": "the only public view of a resource's wait queue",
    "_Handler.handle": "socketserver calls it once per connection",
}


class Definition(NamedTuple):
    qualname: str
    name: str
    path: Path
    first: int
    last: int
    #: Names of the plain-name decorators on the definition.
    decorators: frozenset[str]


def _definitions(path: Path) -> Iterator[Definition]:
    tree = ast.parse(path.read_text(), filename=str(path))

    def walk(body: list[ast.stmt], prefix: str) -> Iterator[Definition]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            qualname = prefix + node.name
            if not node.name.startswith("_"):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                decorators = frozenset(d.id for d in node.decorator_list
                                       if isinstance(d, ast.Name))
                yield Definition(qualname, node.name, path, first,
                                 node.end_lineno or node.lineno, decorators)
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, qualname + ".")

    yield from walk(tree.body, "")


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _python_words(path: Path) -> Iterator[tuple[str, int]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skip.update(id(n) for n in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno or node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            for word in _WORD.findall(node.value):
                yield word, node.lineno


def _text_words(path: Path) -> Iterator[tuple[str, int]]:
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for word in _WORD.findall(line):
            yield word, lineno


def _search_files() -> Iterator[Path]:
    for entry in SEARCH:
        root = ROOT / entry
        if root.is_file():
            yield root
            continue
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts \
                    and path.suffix in (".py", ".md", ".yml", ".yaml",
                                        ".toml", ".cfg", ".txt"):
                yield path


def unreferenced() -> list[str]:
    """Qualified names of the public ``src`` definitions nothing reads."""
    defs = [d for path in sorted(SRC.rglob("*.py")) for d in _definitions(path)]
    spans: dict[tuple[str, Path], list[tuple[int, int]]] = {}
    for d in defs:
        spans.setdefault((d.name, d.path), []).append((d.first, d.last))
    names = {d.name for d in defs}
    used: set[str] = set()
    for path in _search_files():
        words = (_python_words(path) if path.suffix == ".py"
                 else _text_words(path))
        for word, lineno in words:
            if word not in names:
                continue
            own = spans.get((word, path), ())
            if not any(first <= lineno <= last for first, last in own):
                used.add(word)
    registrars = {d.name for d in defs if "." not in d.qualname}
    return sorted({d.qualname for d in defs
                   if d.name not in used and not d.decorators & registrars})


def test_every_public_src_definition_has_a_reader():
    flagged = [q for q in unreferenced() if q not in ALLOWED]
    assert not flagged, (
        "public src definitions named only by the tests (delete them, or "
        f"allowlist them with a reason): {flagged}")


def test_allowlist_names_live_definitions():
    defined = {d.qualname for path in sorted(SRC.rglob("*.py"))
               for d in _definitions(path)}
    stale = sorted(set(ALLOWED) - defined)
    assert not stale, f"allowlisted names no longer defined: {stale}"
