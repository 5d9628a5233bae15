"""Every exported name exists and is used by the package, the README or the
acceptance gates, not only by the tests."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyqec"


def _module_stem(dotted: str | None) -> str | None:
    """``barrier`` for ``polyqec.barrier`` or a relative ``barrier``."""
    if not dotted:
        return None
    parts = dotted.split(".")
    if parts[0] == "polyqec":
        parts = parts[1:]
    return parts[0] if len(parts) == 1 and (PACKAGE / f"{parts[0]}.py").exists() else None


def _used_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs a Python file uses, each outside the top-level
    definition of that same name: names it imports from a package module,
    attributes it reads on a package module it imported, and, in a package
    module, the names it loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    home = path.stem if path.parent == PACKAGE else None
    modules = {}  # local dotted name -> package module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if stem := _module_stem(alias.name):
                    modules[alias.asname or alias.name] = stem
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "polyqec"):
            for alias in node.names:
                if stem := _module_stem(alias.name):
                    modules[alias.asname or alias.name] = stem
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None)  # a def or class; None otherwise
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                stem = _module_stem(node.module)
                pairs = [(stem, alias.name) for alias in node.names] if stem else []
            elif isinstance(node, ast.Attribute):
                stem = modules.get(ast.unparse(node.value))
                pairs = [(stem, node.attr)] if stem else []
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and home:
                pairs = [(home, node.id)]
            else:
                continue
            used |= {pair for pair in pairs if pair[1] != own}
    return used


def _readme_names() -> tuple[set[str], set[tuple[str, str]]]:
    """Names inside README code spans, and (module, name) pairs its import
    lines bring in; prose words do not count."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = {w for span in re.findall(r"`([^`\n]+)`", text) for w in re.findall(r"\w+", span)}
    imports = set()
    for module, names in re.findall(r"^from (\S+) import (.+)$", text, re.M):
        if stem := _module_stem(module):
            imports |= {(stem, name) for name in re.findall(r"\w+", names)}
    return spans, imports


def test_every_exported_name_exists_and_has_a_caller():
    used = set()
    for path in [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        used |= _used_names(path)
    spans, imports = _readme_names()
    used |= imports
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"polyqec.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.stem}.__all__ names missing {name!r}"
            checked += 1
            if (path.stem, name) not in used and name not in spans:
                unused.append(f"{path.stem}.{name}")
    assert checked > 50
    assert unused == []
