"""Every exported name exists, and every exported name and every field,
property and method of a package class is used by the package, the README or
the acceptance gates, not only by the tests."""

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


def _attribute_reads(path: Path) -> set[str]:
    """Attribute names a Python file reads (``obj.name`` in a load)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _class_state(path: Path) -> list[tuple[str, str]]:
    """(class, name) for each annotated field and property of the classes a
    package module defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.append((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
            ):
                out.append((cls.name, node.name))
    return out


# reaches the documents whole, through ``dataclasses.asdict``
_READ_WHOLE = {"BoundReport"}


def test_every_field_and_property_is_read():
    read = set()
    for path in [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        read |= _attribute_reads(path)
    spans, _ = _readme_names()
    checked, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name in _class_state(path):
            checked += 1
            if cls not in _READ_WHOLE and name not in read and name not in spans:
                unread.append(f"{path.stem}.{cls}.{name}")
    assert checked > 40
    assert unread == []


def _reads(path: Path) -> set[str]:
    """Attribute names a Python file reads and names it loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return _attribute_reads(path) | {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _readme_code_words() -> set[str]:
    """Names inside README code spans and fenced code blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    return _readme_names()[0] | {w for block in blocks for w in re.findall(r"\w+", block)}


def _class_methods(path: Path) -> list[tuple[str, str]]:
    """(class, name) for each method, not a dunder or a property, of the
    classes a package module defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (cls.name, node.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
    ]


def test_every_method_is_read():
    read = set()
    for path in [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        read |= _reads(path)
    words = _readme_code_words()
    checked, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name in _class_methods(path):
            checked += 1
            if name not in read and name not in words:
                unread.append(f"{path.stem}.{cls}.{name}")
    assert checked > 40
    assert unread == []
