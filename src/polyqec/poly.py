"""Laurent polynomials over GF(2) in finitely many commuting variables.

A polynomial is a finite set of monomials; coefficients are implicitly 1 and
addition is symmetric difference (XOR).  A monomial is a tuple of integer
exponents, one per variable of the ambient :class:`VarContext`, so inverses
are just negative exponents.  All arithmetic is exact; exponents are
arbitrary-precision integers.

The canonical monomial order used for printing, hashing and normalization is
lexicographic on exponent vectors in context variable order.

Sending variable i to the monomial v_i sends exponents e to sum e_i * v_i
(:func:`mono_image`): substitution, compactification, lifting and quotient
group coordinates are all this one integer map.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

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


def mono_image(exps: Iterable[int], images: Sequence[Monomial | None], d: int) -> Monomial:
    """The d-tuple sum of e_i * images[i], the image of exponents ``exps`` when
    variable i goes to ``images[i]``; an image at a zero exponent is never read."""
    out = mono_one(d)
    for e, img in zip(exps, images):
        if e:
            out = tuple(x + e * y for x, y in zip(out, img, strict=True))
    return out


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
        # Frobenius: over GF(2), f^(2^i) is the sum of t^(2^i) over the terms t
        result = LaurentPoly.one(self.context)
        for i in range(k.bit_length()):
            if k >> i & 1:
                frobenius = frozenset(mono_pow(t, 1 << i) for t in self.terms)
                result = result * LaurentPoly(self.context, frobenius)
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
        for t in self.terms:
            acc ^= {mono_image(t, vecs, target.dim)}
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
#
# One scanner per context lexes the text for two readers.  The flat reader
# takes '+'-sums of '*'-products of '1' and NAME['^'['-']digits] factors and
# adds exponents straight into monomials; the recursive descent reads
# everything else (0, parentheses, juxtaposition) and reports every error.
#
# The recursive descent refuses a product or power whose term count could
# pass _TERM_CAP: |a|·|b| for a product, w^popcount(k) for the k-th power of a
# w-term polynomial (one multiplication per set bit of k).  The cap keeps
# (1 + x + y)^2047 and refuses (1 + x + y)^4095, whose product alone takes
# seconds and hundreds of megabytes.

_TERM_CAP = 1 << 18


@lru_cache(maxsize=256)
def _scanner(names: tuple[str, ...]) -> re.Pattern:
    """Groups: NAME, its exponent's sign and digits, digits, operator, other."""
    alternatives = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    return re.compile(
        rf"\s*(?:({alternatives})(?:\s*\^\s*(-?)\s*(\d+))?|(\d+)|([-+*^()])|(\S))"
    )


def _read_flat(text: str, context: VarContext) -> LaurentPoly | None:
    """Read a '+'-sum of '*'-products of factors, or None for other text.

    Repeated terms cancel, exactly as the recursive descent reads the same
    text, which also reads or rejects whatever this declines.
    """
    terms: set[Monomial] = set()
    exps = [0] * context.dim
    want_factor = True
    # a '+' appended to the text ends the last term like every other
    for name, minus, power, digits, op, _ in _scanner(context.names).findall(text + "+"):
        if want_factor:
            if name:
                try:
                    e = int(power or 1)
                except ValueError:  # past the interpreter's integer digit limit
                    return None
                exps[context.names.index(name)] += -e if minus else e
            elif digits != "1":
                return None
            want_factor = False
        elif op == "+":
            terms ^= {tuple(exps)}
            exps = [0] * context.dim
            want_factor = True
        elif op == "*":
            want_factor = True
        else:
            return None
    return LaurentPoly(context, frozenset(terms))


def _tokens(text: str, context: VarContext) -> list[tuple[str, str, int]]:
    """(kind, value, position) tokens: names, operators and digit runs.

    A digit run lasts while ``str.isdigit`` holds, so it reaches past the
    scanner's decimal digits to superscripts such as '\u00b2'.
    """
    scanner = _scanner(context.names)
    toks = []
    pos = 0
    while m := scanner.match(text, pos):
        if m[1]:  # a name's exponent is scanned again as operators and digits
            kind, (i, pos) = "name", m.span(1)
        elif m[5]:
            kind, (i, pos) = m[5], m.span(5)
        else:
            kind, i = "int", m.start(m.lastindex)
            pos = i
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == i:
                ch = text[i]
                if ch.isalpha() or ch == "_":
                    bad = _NAME_RE.match(text, i)
                    raise PolyParseError(
                        f"unknown variable {bad[0] if bad else ch!r} at position {i}"
                    )
                raise PolyParseError(f"unexpected character {ch!r} at position {i}")
        toks.append((kind, text[i:pos], i))
    return toks


def _read_grammar(text: str, context: VarContext) -> LaurentPoly:
    """Read text by recursive descent over the whole grammar."""
    toks = _tokens(text, context)[::-1]  # pop() takes the next token
    if not toks:
        raise PolyParseError("empty polynomial text")

    def kind() -> str | None:
        return toks[-1][0] if toks else None

    def take() -> tuple[str, str, int]:
        if not toks:
            raise PolyParseError("unexpected end of polynomial text")
        return toks.pop()

    def expr() -> LaurentPoly:
        p = term()
        while kind() == "+":
            take()
            p = p + term()
        return p

    def term() -> LaurentPoly:
        p = factor()
        while (k := kind()) in ("*", "name", "int", "("):
            pos = toks[-1][2]
            if k == "*":
                take()
            q = factor()
            if p.weight * q.weight > _TERM_CAP:
                raise PolyParseError(
                    f"product of {p.weight} and {q.weight} terms passes the "
                    f"{_TERM_CAP}-term limit at position {pos}"
                )
            p = p * q
        return p

    def factor() -> LaurentPoly:
        base = atom()
        if kind() != "^":
            return base
        take()
        k, value, pos = take()
        sign = 1
        if k == "-":
            sign = -1
            k, value, pos = take()
        if k != "int":
            raise PolyParseError(f"expected integer exponent after '^' at position {pos}")
        try:
            e = sign * int(value)
            if e < 0 or base.weight ** e.bit_count() <= _TERM_CAP:
                return base ** e
        except ValueError as exc:
            raise PolyParseError(f"{exc} (position {pos})") from None
        raise PolyParseError(
            f"power {e} of a {base.weight}-term polynomial passes the "
            f"{_TERM_CAP}-term limit at position {pos}"
        )

    def atom() -> LaurentPoly:
        k, value, _ = take()
        if k == "int":
            if value == "1":
                return LaurentPoly.one(context)
            if value == "0":
                return LaurentPoly.zero(context)
            raise PolyParseError(
                f"coefficient {value} not supported (only implicit 1 over GF(2))"
            )
        if k == "name":
            return LaurentPoly.variable(context, value)
        if k == "(":
            p = expr()
            if take()[0] != ")":
                raise PolyParseError("expected ')'")
            return p
        raise PolyParseError(f"unexpected token {value!r}")

    p = expr()
    if toks:
        _, value, pos = toks[-1]
        raise PolyParseError(f"trailing input {value!r} at position {pos}")
    return p


def parse_poly(text: str, context: VarContext | None = None) -> LaurentPoly:
    """Parse polynomial text like ``1 + x^-1*y + x^2*y``.

    With an explicit context, variable names are matched greedily against the
    declared names.  Without one, the context is inferred from the identifiers
    in order of first appearance (constant-only text then has no inferable
    context and is rejected).
    """
    if context is None:
        seen = tuple(dict.fromkeys(_NAME_RE.findall(text)))
        if not seen:
            raise PolyParseError(
                "cannot infer a variable context from constant-only text; pass one"
            )
        context = VarContext(seen)
    flat = _read_flat(text, context)
    return _read_grammar(text, context) if flat is None else flat
