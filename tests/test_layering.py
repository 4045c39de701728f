"""The library's modules form layers: each imports only modules of lower
layers, read from its relative imports with `ast`."""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "flagheight"

LAYERS = [{"rootsys"}, {"weyl"}, {"parabolic"}, {"charpoly"},
          {"height", "jantzen"}, {"cli"}]
LEVEL = {module: level for level, layer in enumerate(LAYERS)
         for module in layer}


def _relative_imports(path: Path) -> set:
    """The modules of the package that path imports, as `from .x import`
    or `from . import x`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in LIBRARY.glob("*.py")} - {"__init__"}
    assert modules == set(LEVEL)


def test_modules_import_only_lower_layers():
    upward = [f"{path.stem} imports {imported}"
              for path in sorted(LIBRARY.glob("*.py"))
              if path.stem in LEVEL
              for imported in sorted(_relative_imports(path))
              if LEVEL.get(imported, len(LAYERS)) >= LEVEL[path.stem]]
    assert not upward, "; ".join(upward)
