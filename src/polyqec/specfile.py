"""Line-oriented code-description files.

A code file has up to four sections:

* ``[meta]`` — ``name``, and a free-text ``note`` that is accepted but not kept;
* ``[code]`` — ``variables`` (whitespace-separated), polynomial ``f``, and
  optionally ``g`` (omitting ``g`` declares a classical generator);
* ``[boundary]`` — one ``monomial = monomial`` identity per line, each
  converted to a relation vector (``x^3 = y`` becomes (3, -1));
* ``[lift]`` — a parent hypergraph product given by fresh variable lists
  ``parent_f`` / ``parent_g``, followed by one assignment per parent
  variable.  An assignment right-hand side is a monomial over the child
  variables and/or other parent variables, in any order.  The images settle
  in rounds: each round settles every label whose referenced labels have
  settled, and a round that settles none names the unsettled labels as
  circular.  A right-hand side with a parent part and no child part gives a
  twist relation, e_label minus its parent part (a parent-exponent vector
  that maps to the trivial monomial); the twists come in assignment order.

Errors carry the source name and line number of the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .codes import CodeError, HGPCode, TwoBlockCode, parent_hgp
from .lattice import GroupPresentation
from .poly import (
    LaurentPoly, Monomial, PolyParseError, VarContext, mono_image, mono_mul, parse_poly
)

__all__ = [
    "SpecError",
    "LiftSpec",
    "CodeSpec",
    "parse_spec_text",
    "parse_spec_file",
    "parse_boundary_equation",
]

_SECTIONS = ("meta", "code", "boundary", "lift")
_RESERVED_LIFT_KEYS = ("parent_f", "parent_g")


class SpecError(ValueError):
    """A code file is malformed; the message carries source:line."""


@dataclass(eq=True)
class LiftSpec:
    """A declared parent hypergraph product with its compactification data;
    the parent's ``f_vars`` and ``g_vars`` are the declared labels."""

    parent: HGPCode
    substitution: dict[str, LaurentPoly]
    twist_vectors: tuple[tuple[int, ...], ...]


@dataclass(eq=True)
class CodeSpec:
    """Parsed contents of one code file."""

    name: str | None
    context: VarContext
    f: LaurentPoly
    g: LaurentPoly | None
    boundary: tuple[Monomial, ...]
    lift: LiftSpec | None
    source: str = field(default="<string>", compare=False)

    @property
    def is_classical(self) -> bool:
        return self.g is None

    def two_block(self) -> TwoBlockCode:
        if self.g is None:
            raise SpecError(f"{self.source}: classical generator, not a two-block code")
        return TwoBlockCode(self.context, self.f, self.g)

    def classical_generator(self) -> LaurentPoly:
        if self.g is not None:
            raise SpecError(f"{self.source}: two-block code, not a classical generator")
        if self.f.is_zero:
            raise CodeError("classical generator must be nonzero")
        return self.f

    def presentation(self) -> GroupPresentation | None:
        if not self.boundary:
            return None
        return GroupPresentation(self.context, self.boundary)


def parse_spec_file(path: str | Path) -> CodeSpec:
    path = Path(path)
    return parse_spec_text(path.read_text(encoding="utf-8"), source=path.name)


def _fail(source: str, lineno: int, message: str) -> SpecError:
    return SpecError(f"{source}:{lineno}: {message}")


def _key_value(lineno: int, line: str, source: str) -> tuple[str, str]:
    key, sep, value = line.partition("=")
    if not sep:
        raise _fail(source, lineno, f"expected 'key = value', got {line!r}")
    return key.strip(), value.strip()


def parse_spec_text(text: str, *, source: str = "<string>") -> CodeSpec:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise _fail(source, lineno, f"unknown section [{name}]")
            if name in sections:
                raise _fail(source, lineno, f"duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise _fail(source, lineno, "content before any section header")
        sections[current].append((lineno, line))

    if "code" not in sections:
        raise SpecError(f"{source}: missing required section [code]")

    meta = _parse_keyed(sections.get("meta", ()), source, allowed=("name", "note"))
    code_kv = _parse_keyed(sections["code"], source, allowed=("variables", "f", "g"))

    if "variables" not in code_kv:
        raise SpecError(f"{source}: [code] must declare variables")
    names = tuple(code_kv["variables"][1].split())
    if not names:
        raise SpecError(f"{source}: [code] variables list is empty")
    try:
        ctx = VarContext(names)
    except ValueError as exc:
        raise _fail(source, code_kv["variables"][0], str(exc)) from exc
    if "f" not in code_kv:
        raise SpecError(f"{source}: [code] must declare f")
    f = _parse_poly_at(*code_kv["f"], ctx, source)
    g = _parse_poly_at(*code_kv["g"], ctx, source) if "g" in code_kv else None

    boundary = tuple(
        parse_boundary_equation(line, ctx, source, lineno)
        for lineno, line in sections.get("boundary", ())
    )

    lift = None
    if "lift" in sections:
        if g is None:
            first = sections["lift"][0][0] if sections["lift"] else 0
            raise _fail(source, first, "[lift] requires a two-block code (declare g)")
        lift = _parse_lift(sections["lift"], ctx, source)

    return CodeSpec(
        name=meta["name"][1] if "name" in meta else None,
        context=ctx,
        f=f,
        g=g,
        boundary=boundary,
        lift=lift,
        source=source,
    )


def _parse_keyed(lines, source: str, *, allowed: tuple[str, ...]):
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        key, value = _key_value(lineno, line, source)
        if key not in allowed:
            raise _fail(source, lineno, f"unknown key {key!r} (allowed: {', '.join(allowed)})")
        if key in out:
            raise _fail(source, lineno, f"duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


def _parse_poly_at(lineno: int, text: str, ctx: VarContext, source: str) -> LaurentPoly:
    try:
        return parse_poly(text, ctx)
    except PolyParseError as exc:
        raise _fail(source, lineno, str(exc)) from exc


def _parse_monomial_at(lineno: int, text: str, ctx: VarContext, source: str) -> Monomial:
    poly = _parse_poly_at(lineno, text, ctx, source)
    if poly.weight != 1:
        raise _fail(source, lineno, f"{text!r} is not a single monomial")
    return poly.single_term()


def parse_boundary_equation(line: str, ctx: VarContext, source: str, lineno: int) -> Monomial:
    """Relation vector of one ``monomial = monomial`` identity; errors name
    ``source`` and ``lineno``."""
    lhs, sep, rhs = line.partition("=")
    if not sep:
        raise _fail(source, lineno, f"boundary line must be 'monomial = monomial', got {line!r}")
    lv = _parse_monomial_at(lineno, lhs.strip(), ctx, source)
    rv = _parse_monomial_at(lineno, rhs.strip(), ctx, source)
    vec = tuple(a - b for a, b in zip(lv, rv))
    if not any(vec):
        raise _fail(source, lineno, "boundary relation is trivial (both sides equal)")
    return vec


def _parse_lift(lines, ctx: VarContext, source: str) -> LiftSpec:
    declared: dict[str, tuple[str, ...]] = {}
    assignments: list[tuple[int, str, str]] = []
    for lineno, line in lines:
        key, value = _key_value(lineno, line, source)
        if key in _RESERVED_LIFT_KEYS:
            if key in declared:
                raise _fail(source, lineno, f"duplicate {key}")
            declared[key] = tuple(value.split())
        else:
            assignments.append((lineno, key, value))
    f_labels, g_labels = (declared.get(key) for key in _RESERVED_LIFT_KEYS)
    if not f_labels or not g_labels:
        first = lines[0][0] if lines else 0
        raise _fail(source, first, "[lift] must declare parent_f and parent_g")
    labels = f_labels + g_labels
    if len(set(labels)) != len(labels):
        raise SpecError(f"{source}: parent variables repeat across parent_f/parent_g")
    clash = set(labels) & set(ctx.names)
    if clash:
        raise SpecError(f"{source}: parent variables shadow child variables: {sorted(clash)}")
    for lineno, key, _ in assignments:
        if key not in labels:
            raise _fail(source, lineno, f"assignment to undeclared parent variable {key!r}")
    seen = [key for _, key, _ in assignments]
    if len(set(seen)) != len(seen):
        raise SpecError(f"{source}: a parent variable is assigned more than once")
    missing = [lbl for lbl in labels if lbl not in seen]
    if missing:
        raise SpecError(f"{source}: parent variables never assigned: {missing}")

    combined = VarContext(ctx.names + labels)
    d = ctx.dim
    # label -> right-hand side over (child variables, parent labels)
    parsed = {
        key: _parse_monomial_at(lineno, value, combined, source)
        for lineno, key, value in assignments
    }

    # each round settles every label whose parent references have settled
    images: dict[str, Monomial] = {}
    while len(images) < len(labels):
        known = [images.get(lbl) for lbl in labels]  # None where unsettled
        settled = {
            key: mono_mul(rhs[:d], mono_image(rhs[d:], known, d))
            for key, rhs in parsed.items()
            if key not in images
            and all(lbl in images for lbl, e in zip(labels, rhs[d:]) if e)
        }
        if not settled:
            unsettled = sorted(set(labels) - set(images))
            raise SpecError(f"{source}: circular parent-variable assignments: {unsettled}")
        images.update(settled)

    # e_label - (parent part) maps to the trivial monomial when the right-hand
    # side has a parent part and no child part
    twists = tuple(
        tuple(int(lbl == key) - e for lbl, e in zip(labels, rhs[d:]))
        for key, rhs in parsed.items()
        if any(rhs[d:]) and not any(rhs[:d])
    )
    parent = parent_hgp(f_labels, g_labels)
    substitution = {lbl: LaurentPoly.monomial(ctx, images[lbl]) for lbl in labels}
    return LiftSpec(parent=parent, substitution=substitution, twist_vectors=twists)
