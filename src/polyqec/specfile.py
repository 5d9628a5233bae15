"""Line-oriented code-description files.

A code file has up to four sections:

* ``[meta]`` — ``name`` and free-text ``note``;
* ``[code]`` — ``variables`` (whitespace-separated), polynomial ``f``, and
  optionally ``g`` (omitting ``g`` declares a classical generator);
* ``[boundary]`` — one ``monomial = monomial`` identity per line, each
  converted to a relation vector (``x^3 = y`` becomes (3, -1));
* ``[lift]`` — a parent hypergraph product given by fresh variable lists
  ``parent_f`` / ``parent_g``, followed by one assignment per parent
  variable.  An assignment right-hand side is a monomial over the child
  variables and/or previously assignable parent variables; references to
  parent variables resolve iteratively and additionally record a twist
  relation (the parent-exponent vector that maps to the trivial monomial).

Errors carry the source name and line number of the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .codes import HGPCode, TwoBlockCode, ClassicalGenerator, parent_hgp
from .lattice import GroupPresentation
from .poly import LaurentPoly, Monomial, PolyParseError, VarContext, parse_poly

__all__ = [
    "SpecError",
    "LiftSpec",
    "CodeSpec",
    "parse_spec_text",
    "parse_spec_file",
    "parse_boundary_equation",
    "render_spec",
]

_SECTIONS = ("meta", "code", "boundary", "lift")
_RESERVED_LIFT_KEYS = ("parent_f", "parent_g")


class SpecError(ValueError):
    """A code file is malformed; the message carries source:line."""


@dataclass(eq=True)
class LiftSpec:
    """A declared parent hypergraph product with its compactification data."""

    f_labels: tuple[str, ...]
    g_labels: tuple[str, ...]
    assignments: tuple[tuple[str, str], ...]  # (parent var, raw right-hand side)
    parent: HGPCode = field(compare=False)
    substitution: dict[str, LaurentPoly] = field(compare=False)
    twist_vectors: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.f_labels + self.g_labels


@dataclass(eq=True)
class CodeSpec:
    """Parsed contents of one code file."""

    name: str | None
    note: str | None
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

    def classical_generator(self) -> ClassicalGenerator:
        if self.g is not None:
            raise SpecError(f"{self.source}: two-block code, not a classical generator")
        return ClassicalGenerator(self.f)

    def presentation(self) -> GroupPresentation | None:
        if not self.boundary:
            return None
        return GroupPresentation(self.context, self.boundary)


def parse_spec_file(path: str | Path) -> CodeSpec:
    path = Path(path)
    return parse_spec_text(path.read_text(encoding="utf-8"), source=path.name)


def _fail(source: str, lineno: int, message: str) -> SpecError:
    return SpecError(f"{source}:{lineno}: {message}")


def _split_key_value(line: str):
    key, sep, value = line.partition("=")
    if not sep:
        return None
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
    f = _parse_poly_at(code_kv["f"], ctx, source)
    g = _parse_poly_at(code_kv["g"], ctx, source) if "g" in code_kv else None

    boundary = tuple(
        _parse_boundary_line(lineno, line, ctx, source)
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
        note=meta["note"][1] if "note" in meta else None,
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
        kv = _split_key_value(line)
        if kv is None:
            raise _fail(source, lineno, f"expected 'key = value', got {line!r}")
        key, value = kv
        if key not in allowed:
            raise _fail(source, lineno, f"unknown key {key!r} (allowed: {', '.join(allowed)})")
        if key in out:
            raise _fail(source, lineno, f"duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


def _parse_poly_at(entry: tuple[int, str], ctx: VarContext, source: str) -> LaurentPoly:
    lineno, text = entry
    try:
        return parse_poly(text, ctx)
    except PolyParseError as exc:
        raise _fail(source, lineno, str(exc)) from exc


def _parse_monomial_at(lineno: int, text: str, ctx: VarContext, source: str) -> Monomial:
    try:
        poly = parse_poly(text, ctx)
    except PolyParseError as exc:
        raise _fail(source, lineno, str(exc)) from exc
    if poly.weight != 1:
        raise _fail(source, lineno, f"{text.strip()!r} is not a single monomial")
    return poly.single_term()


def parse_boundary_equation(
    text: str, ctx: VarContext, *, source: str = "<boundary>", lineno: int = 1
) -> Monomial:
    """Relation vector of one ``monomial = monomial`` identity."""
    return _parse_boundary_line(lineno, text, ctx, source)


def _parse_boundary_line(lineno: int, line: str, ctx: VarContext, source: str) -> Monomial:
    kv = _split_key_value(line)
    if kv is None:
        raise _fail(source, lineno, f"boundary line must be 'monomial = monomial', got {line!r}")
    lhs, rhs = kv
    lv = _parse_monomial_at(lineno, lhs, ctx, source)
    rv = _parse_monomial_at(lineno, rhs, ctx, source)
    vec = tuple(a - b for a, b in zip(lv, rv))
    if not any(vec):
        raise _fail(source, lineno, "boundary relation is trivial (both sides equal)")
    return vec


def _parse_lift(lines, ctx: VarContext, source: str) -> LiftSpec:
    f_labels: tuple[str, ...] | None = None
    g_labels: tuple[str, ...] | None = None
    assignments: list[tuple[int, str, str]] = []
    for lineno, line in lines:
        kv = _split_key_value(line)
        if kv is None:
            raise _fail(source, lineno, f"expected 'key = value', got {line!r}")
        key, value = kv
        if key == "parent_f":
            if f_labels is not None:
                raise _fail(source, lineno, "duplicate parent_f")
            f_labels = tuple(value.split())
        elif key == "parent_g":
            if g_labels is not None:
                raise _fail(source, lineno, "duplicate parent_g")
            g_labels = tuple(value.split())
        else:
            assignments.append((lineno, key, value))
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
    label_index = {lbl: i for i, lbl in enumerate(labels)}

    images: dict[str, Monomial] = {}
    twists: list[tuple[int, ...]] = []
    parsed: dict[str, tuple[Monomial, Monomial]] = {}  # label -> (child part, parent part)
    for lineno, key, value in assignments:
        mono = _parse_monomial_at(lineno, value, combined, source)
        parsed[key] = (mono[:d], mono[d:])

    remaining = [key for _, key, _ in assignments]
    while remaining:
        progressed = []
        for key in remaining:
            cexp, pexp = parsed[key]
            if any(e and labels[i] not in images for i, e in enumerate(pexp)):
                continue
            img = list(cexp)
            for i, e in enumerate(pexp):
                if e:
                    for j in range(d):
                        img[j] += e * images[labels[i]][j]
            images[key] = tuple(img)
            # e_label - pexp annihilates under substitution only when the
            # right-hand side has no child-variable part.
            if any(pexp) and not any(cexp):
                vec = [-e for e in pexp]
                vec[label_index[key]] += 1
                twists.append(tuple(vec))
            progressed.append(key)
        if not progressed:
            raise SpecError(
                f"{source}: circular parent-variable assignments: {sorted(remaining)}"
            )
        remaining = [k for k in remaining if k not in progressed]

    parent = parent_hgp(f_labels, g_labels)
    substitution = {lbl: LaurentPoly.monomial(ctx, images[lbl]) for lbl in labels}
    return LiftSpec(
        f_labels=f_labels,
        g_labels=g_labels,
        assignments=tuple((key, value) for _, key, value in assignments),
        parent=parent,
        substitution=substitution,
        twist_vectors=tuple(twists),
    )


def render_spec(spec: CodeSpec) -> str:
    """Canonical text for a spec; parsing it back yields an equal spec."""
    out: list[str] = []
    if spec.name is not None or spec.note is not None:
        out.append("[meta]")
        if spec.name is not None:
            out.append(f"name = {spec.name}")
        if spec.note is not None:
            out.append(f"note = {spec.note}")
        out.append("")
    out.append("[code]")
    out.append(f"variables = {' '.join(spec.context.names)}")
    out.append(f"f = {spec.f}")
    if spec.g is not None:
        out.append(f"g = {spec.g}")
    if spec.boundary:
        out.append("")
        out.append("[boundary]")
        for vec in spec.boundary:
            pos = tuple(e if e > 0 else 0 for e in vec)
            neg = tuple(-e if e < 0 else 0 for e in vec)
            lhs = LaurentPoly.monomial(spec.context, pos)
            rhs = LaurentPoly.monomial(spec.context, neg)
            out.append(f"{lhs} = {rhs}")
    if spec.lift is not None:
        out.append("")
        out.append("[lift]")
        out.append(f"parent_f = {' '.join(spec.lift.f_labels)}")
        out.append(f"parent_g = {' '.join(spec.lift.g_labels)}")
        for key, value in spec.lift.assignments:
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"
