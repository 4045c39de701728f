"""Every function, class and method of the library is reached from the CLI
or from a name the benchmark's tracer wraps; code that only tests call
belongs in tests/oracles.py.

Reach is read from the source with `ast`, by name.  A reached body reaches
the top-level functions, classes and module constants named by each
`Name` it loads, and the methods and top-level names of each attribute
name it reads.  A reached class reaches its class body, its dunders (an
operator or a protocol calls them without naming them) and its
properties.  A name shared by two definitions reaches both, so the guard
can miss dead code.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "flagheight"
FLAGBENCH = ROOT / "flagbench"


class _Definitions:
    """The top-level definitions and the methods of the library's
    modules, by name; each is (qualified name, node)."""

    def __init__(self):
        self.top: dict[str, list] = {}
        self.methods: dict[str, list] = {}
        for path in sorted(LIBRARY.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                for name in _defined_names(node):
                    self.top.setdefault(name, []).append(
                        (f"{path.stem}.{name}", node))
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.methods.setdefault(item.name, []).append(
                                (f"{path.stem}.{node.name}.{item.name}",
                                 item))

    def reported(self) -> set:
        """The qualified names the guard reports on: functions, classes
        and methods, not module constants."""
        return {qualname for defs in (*self.top.values(),
                                      *self.methods.values())
                for qualname, node in defs
                if not isinstance(node, (ast.Assign, ast.AnnAssign))}


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _is_property(node) -> bool:
    return any(isinstance(d, ast.Name)
               and d.id == "property"
               for d in node.decorator_list)


def _body_parts(node) -> list:
    """What a reached definition runs: for a function its decorators,
    defaults and body, not its annotations; for a class its decorators,
    bases and the statements of its body that are not methods."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        return [*node.decorator_list, *args.defaults,
                *(d for d in args.kw_defaults if d is not None), *node.body]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases,
                *(s for s in node.body
                  if not isinstance(s, ast.FunctionDef))]
    return [node]


def _reached(defs: _Definitions, roots) -> set:
    seen = set()
    todo = [d for name in roots
            for d in defs.top.get(name, []) + defs.methods.get(name, [])]
    while todo:
        qualname, node = todo.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        if isinstance(node, ast.ClassDef):
            todo += [(f"{qualname}.{item.name}", item) for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and (item.name.startswith("__") or _is_property(item))]
        for part in _body_parts(node):
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name) and \
                        isinstance(sub.ctx, ast.Load):
                    todo += defs.top.get(sub.id, [])
                elif isinstance(sub, ast.Attribute):
                    todo += defs.top.get(sub.attr, [])
                    todo += defs.methods.get(sub.attr, [])
    return seen


def _wrapped_names(monkeypatch) -> list:
    monkeypatch.syspath_prepend(str(FLAGBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    return [name.split(".")[-1] for name in tracer.WRAPPED]


def test_every_definition_is_reached(monkeypatch):
    defs = _Definitions()
    reached = _reached(defs, ["main", *_wrapped_names(monkeypatch)])
    assert "cli.main" in reached
    unreached = sorted(defs.reported() - reached)
    assert not unreached, "reached only from tests, or not at all: " + \
        ", ".join(unreached)
