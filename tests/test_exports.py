"""Every exported name exists and is used by the package, the README or the
acceptance gates, not only by the tests."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyqec"


def _used_names(path: Path) -> set[str]:
    """Names a Python file loads, reads as attributes or imports, each outside
    the top-level definition of that same name."""
    used = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(top, "name", None)  # a def or class; None otherwise
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_exported_name_exists_and_has_a_caller():
    used = set()
    for path in [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        used |= _used_names(path)
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"polyqec.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.stem}.__all__ names missing {name!r}"
            checked += 1
            if name not in used and name not in readme:
                unused.append(f"{path.stem}.{name}")
    assert checked > 50
    assert unused == []
