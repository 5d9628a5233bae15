"""Laurent polynomials over GF(2) in finitely many commuting variables.

A polynomial is a finite set of monomials; coefficients are implicitly 1 and
addition is symmetric difference (XOR).  A monomial is a tuple of integer
exponents, one per variable of the ambient :class:`VarContext`, so inverses
are just negative exponents.  All arithmetic is exact; exponents are
arbitrary-precision integers.

The canonical monomial order used for printing, hashing and normalization is
lexicographic on exponent vectors in context variable order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = [
    "VarContext",
    "Monomial",
    "LaurentPoly",
    "PolyParseError",
    "mono_mul",
    "mono_inv",
    "mono_pow",
    "total_degree",
    "parse_poly",
]

Monomial = tuple  # exponent vector, one int per context variable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class PolyParseError(ValueError):
    """Raised when polynomial text cannot be parsed."""


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of distinct variable names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a variable context needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in context {self.names}") from None

    def __str__(self) -> str:
        return " ".join(self.names)


def mono_one(d: int) -> Monomial:
    return (0,) * d


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mono_inv(a: Monomial) -> Monomial:
    return tuple(-x for x in a)


def mono_pow(a: Monomial, k: int) -> Monomial:
    return tuple(x * k for x in a)


def total_degree(a: Monomial) -> int:
    return sum(a)


@dataclass(frozen=True)
class LaurentPoly:
    """A GF(2) Laurent polynomial: a frozenset of exponent vectors."""

    context: VarContext
    terms: frozenset[Monomial]

    def __post_init__(self) -> None:
        d = self.context.dim
        for t in self.terms:
            if len(t) != d:
                raise ValueError(f"term {t} has wrong arity for context {self.context}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: VarContext) -> LaurentPoly:
        return cls(context, frozenset())

    @classmethod
    def one(cls, context: VarContext) -> LaurentPoly:
        return cls(context, frozenset({mono_one(context.dim)}))

    @classmethod
    def monomial(cls, context: VarContext, exponents: Iterable[int]) -> LaurentPoly:
        return cls(context, frozenset({tuple(int(e) for e in exponents)}))

    @classmethod
    def variable(cls, context: VarContext, name: str, power: int = 1) -> LaurentPoly:
        i = context.index(name)
        exps = [0] * context.dim
        exps[i] = power
        return cls.monomial(context, exps)

    # -- basic queries -----------------------------------------------------

    @property
    def weight(self) -> int:
        """Number of monomials (terms with coefficient 1)."""
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def single_term(self) -> Monomial:
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a single monomial")
        return next(iter(self.terms))

    def sorted_terms(self) -> list[Monomial]:
        return sorted(self.terms)

    def contains_one(self) -> bool:
        return mono_one(self.context.dim) in self.terms

    def variables_used(self) -> tuple[str, ...]:
        """Names of variables with a nonzero exponent in some term."""
        d = self.context.dim
        used = [any(t[i] for t in self.terms) for i in range(d)]
        return tuple(n for n, u in zip(self.context.names, used) if u)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        self._check_same_context(other)
        return LaurentPoly(self.context, self.terms ^ other.terms)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        self._check_same_context(other)
        acc: set[Monomial] = set()
        for a in self.terms:
            for b in other.terms:
                acc ^= {mono_mul(a, b)}
        return LaurentPoly(self.context, frozenset(acc))

    def __pow__(self, k: int) -> LaurentPoly:
        if self.is_monomial:
            return LaurentPoly(self.context, frozenset({mono_pow(self.single_term(), k)}))
        if k < 0:
            raise ValueError("negative powers are only defined for single monomials")
        result = LaurentPoly.one(self.context)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def antipode(self) -> LaurentPoly:
        """Replace every variable by its inverse (negate all exponents)."""
        return LaurentPoly(self.context, frozenset(mono_inv(t) for t in self.terms))

    def scale(self, mono: Monomial) -> LaurentPoly:
        """Multiply by a single monomial given as an exponent vector."""
        m = tuple(int(e) for e in mono)
        if len(m) != self.context.dim:
            raise ValueError("monomial arity mismatch")
        return LaurentPoly(self.context, frozenset(mono_mul(t, m) for t in self.terms))

    def substitute(self, images: Mapping[str, LaurentPoly]) -> LaurentPoly:
        """Apply the ring homomorphism sending each variable to a monomial.

        Every variable of the context must be given an image; all images must
        be single monomials sharing one target context.  GF(2) cancellation is
        applied when distinct source monomials collide in the target.
        """
        names = self.context.names
        missing = [n for n in names if n not in images]
        if missing:
            raise ValueError(f"substitute: no image for variables {missing}")
        target: VarContext | None = None
        vecs: list[Monomial] = []
        for n in names:
            img = images[n]
            if target is None:
                target = img.context
            elif img.context != target:
                raise ValueError("substitute: images live in different contexts")
            vecs.append(img.single_term())
        assert target is not None
        acc: set[Monomial] = set()
        one = mono_one(target.dim)
        for t in self.terms:
            out = one
            for e, v in zip(t, vecs):
                if e:
                    out = mono_mul(out, mono_pow(v, e))
            acc ^= {out}
        return LaurentPoly(target, frozenset(acc))

    def normalize_to_one(self) -> tuple[LaurentPoly, Monomial]:
        """Divide by the lex-smallest monomial so the result contains 1.

        Returns ``(p / m, m)``.  Raises on the zero polynomial.
        """
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        m = min(self.terms)
        return self.scale(mono_inv(m)), m

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(self._format_term(t) for t in self.sorted_terms())

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r}, vars={'.'.join(self.context.names)!r})"

    def _format_term(self, t: Monomial) -> str:
        parts = []
        for name, e in zip(self.context.names, t):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def _check_same_context(self, other: LaurentPoly) -> None:
        if self.context != other.context:
            raise ValueError(
                f"context mismatch: {self.context.names} vs {other.context.names}"
            )


def extend_to_context(p: LaurentPoly, target: VarContext) -> LaurentPoly:
    """Re-express ``p`` in a larger context containing all its variables."""
    images = {n: LaurentPoly.variable(target, n) for n in p.context.names}
    return p.substitute(images)


# -- text parser -----------------------------------------------------------
#
# Grammar (whitespace-insensitive):
#   expr    := term ('+' term)*
#   term    := factor (['*'] factor)*          juxtaposition multiplies
#   factor  := atom ['^' ['-'] digits]
#   atom    := '0' | '1' | NAME | '(' expr ')'
# Coefficients other than an implicit 1 are rejected.  When a context is
# given, names are matched greedily against its variables (so "xy" means x*y
# if both are declared); without one, maximal identifiers are read and the
# context is inferred in order of first appearance.


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str, names: tuple[str, ...] | None) -> Iterator[_Tok]:
    by_len = sorted(names, key=len, reverse=True) if names is not None else None
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+*^()":
            yield _Tok(ch, ch, i)
            i += 1
            continue
        if ch == "-":
            yield _Tok("-", ch, i)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield _Tok("int", text[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            if by_len is not None:
                for cand in by_len:
                    if text.startswith(cand, i):
                        yield _Tok("name", cand, i)
                        i += len(cand)
                        break
                else:
                    m = _NAME_RE.match(text, i)
                    bad = m.group(0) if m else ch
                    raise PolyParseError(f"unknown variable {bad!r} at position {i}")
            else:
                m = _NAME_RE.match(text, i)
                assert m is not None
                yield _Tok("name", m.group(0), i)
                i = m.end()
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {i}")


class _Parser:
    def __init__(self, toks: list[_Tok], context: VarContext):
        self.toks = toks
        self.pos = 0
        self.ctx = context

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse_expr(self) -> LaurentPoly:
        p = self.parse_term()
        while (tok := self.peek()) is not None and tok.kind == "+":
            self.take()
            p = p + self.parse_term()
        return p

    def parse_term(self) -> LaurentPoly:
        p = self.parse_factor()
        while (tok := self.peek()) is not None:
            if tok.kind == "*":
                self.take()
                p = p * self.parse_factor()
            elif tok.kind in ("name", "int", "("):
                p = p * self.parse_factor()
            else:
                break
        return p

    def parse_factor(self) -> LaurentPoly:
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.take()
            sign = 1
            tok = self.take()
            if tok.kind == "-":
                sign = -1
                tok = self.take()
            if tok.kind != "int":
                raise PolyParseError(
                    f"expected integer exponent after '^' at position {tok.pos}"
                )
            try:
                return base ** (sign * int(tok.value))
            except ValueError as exc:
                raise PolyParseError(f"{exc} (position {tok.pos})") from None
        return base

    def parse_atom(self) -> LaurentPoly:
        tok = self.take()
        if tok.kind == "int":
            if tok.value == "1":
                return LaurentPoly.one(self.ctx)
            if tok.value == "0":
                return LaurentPoly.zero(self.ctx)
            raise PolyParseError(
                f"coefficient {tok.value} not supported (only implicit 1 over GF(2))"
            )
        if tok.kind == "name":
            return LaurentPoly.variable(self.ctx, tok.value)
        if tok.kind == "(":
            p = self.parse_expr()
            close = self.take()
            if close.kind != ")":
                raise PolyParseError("expected ')'")
            return p
        raise PolyParseError(f"unexpected token {tok.value!r}")


def parse_poly(text: str, context: VarContext | None = None) -> LaurentPoly:
    """Parse polynomial text like ``1 + x^-1*y + x^2*y``.

    With an explicit context, variable names are matched greedily against the
    declared names.  Without one, the context is inferred from the identifiers
    in order of first appearance (constant-only text then has no inferable
    context and is rejected).
    """
    if context is None:
        seen: list[str] = []
        for m in _NAME_RE.finditer(text):
            if m.group(0) not in seen:
                seen.append(m.group(0))
        if not seen:
            raise PolyParseError(
                "cannot infer a variable context from constant-only text; pass one"
            )
        context = VarContext(tuple(seen))
    toks = list(_tokenize(text, context.names))
    if not toks:
        raise PolyParseError("empty polynomial text")
    parser = _Parser(toks, context)
    p = parser.parse_expr()
    tail = parser.peek()
    if tail is not None:
        raise PolyParseError(f"trailing input {tail.value!r} at position {tail.pos}")
    return p
