"""Two-block CSS codes presented by pairs of GF(2) Laurent polynomials.

A two-block code on a translation group is written X(f, g), Z(ḡ, f̄): one X
check and one Z check per group element, acting on two qubit blocks (left,
right), where the bar is the antipode.  When f and g use disjoint variable
sets the code is a hypergraph product of the two classical generators.

The symbolic analyses here work on the infinite translation group; finite
boundary conditions enter through :mod:`polyqec.instantiate`.

Key operations:

* indecomposability — the model's Tanner graph is connected iff the exponent
  vectors of the non-constant monomials of (normalized) f and g generate the
  full integer lattice;
* ``lift_to_parent`` — re-express an indecomposable code as a hypergraph
  product in one fresh variable per monomial, compactified back down by twist
  relations (the kernel of the fresh-variable substitution); each child
  variable's witness is the solution that one Hermite basis reduces at the
  kernel's pivot labels;
* ``compactify`` — apply such a substitution/twist datum to a parent code;
* ``family_tree`` — the parity class (weight(f) mod 2, weight(g) mod 2),
  unordered; it is invariant under compactification because GF(2)
  cancellation removes monomial pairs;
* ``bound_report`` — locality-driven distance bound estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .lattice import GroupPresentation, hermite_basis, quotient_shape
from .poly import (
    LaurentPoly,
    Monomial,
    VarContext,
    mono_image,
    parse_poly,
    total_degree,
)

__all__ = [
    "TwoBlockCode",
    "HGPCode",
    "CodeError",
    "LiftError",
    "TwistError",
    "hgp_split",
    "parent_hgp",
    "monomial_group_vectors",
    "is_indecomposable",
    "decomposition_profile",
    "is_indecomposable_finite",
    "lift_to_parent",
    "compactify",
    "FamilyTag",
    "family_tree",
    "BoundReport",
    "bound_report",
    "two_block",
]


# most non-constant terms of normalized f and g together that a lift takes,
# one fresh parent variable each.  Its two Hermite forms are dense in that
# count K (K rows by d + K and by K columns), and the parse cap admits 2^18
# terms.  With f = 1 + x + y and g = 1 + random monomials with exponents in
# [-6, 6], slowest of 8 seeds (2 cores): in 3 variables 64 terms 0.02 s,
# 128 terms 0.12 s, 256 terms 0.60 s; in 4 variables 0.03, 0.09 and 0.52 s.
# 128 keeps every lift under a fifth of a second.
_LIFT_TERM_CAP = 128


class CodeError(ValueError):
    """Invalid code data."""


class LiftError(CodeError):
    """lift_to_parent cannot produce a parent (degenerate or decomposable input)."""


class TwistError(CodeError):
    """Twist relations are inconsistent with a substitution."""


@dataclass(frozen=True)
class TwoBlockCode:
    """X(f, g), Z(ḡ, f̄) over a shared variable context.

    Equality is symbolic equality of (context, f, g); use :meth:`normalized`
    to compare codes up to the monomial shift, which is the only equivalence
    this package canonicalizes.
    """

    context: VarContext
    f: LaurentPoly
    g: LaurentPoly

    def __post_init__(self) -> None:
        if self.f.context != self.context or self.g.context != self.context:
            raise CodeError("f and g must live in the declared context")

    def normalized(self) -> TwoBlockCode:
        if self.f.is_zero or self.g.is_zero:
            raise CodeError("cannot normalize a code with a zero generator")
        nf, _ = self.f.normalize_to_one()
        ng, _ = self.g.normalize_to_one()
        # keeps the class: an HGPCode's blocks are re-checked on the result
        return replace(self, f=nf, g=ng)

    @property
    def check_weight(self) -> int:
        """Total number of terms across both generators."""
        return self.f.weight + self.g.weight

    def variables_used(self) -> tuple[str, ...]:
        used = set(self.f.variables_used()) | set(self.g.variables_used())
        return tuple(n for n in self.context.names if n in used)

    def __str__(self) -> str:
        return f"X({self.f}, {self.g}) on <{self.context}>"


@dataclass(frozen=True)
class HGPCode(TwoBlockCode):
    """A two-block code whose f and g use disjoint variable blocks."""

    f_vars: tuple[str, ...]
    g_vars: tuple[str, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if set(self.f_vars) & set(self.g_vars):
            raise CodeError("hypergraph-product variable blocks must be disjoint")
        if not set(self.f.variables_used()) <= set(self.f_vars):
            raise CodeError("f strays outside its variable block")
        if not set(self.g.variables_used()) <= set(self.g_vars):
            raise CodeError("g strays outside its variable block")


def two_block(variables: str, f_text: str, g_text: str) -> TwoBlockCode:
    """Convenience constructor from whitespace-separated names and poly text."""
    ctx = VarContext(tuple(variables.split()))
    return TwoBlockCode(ctx, parse_poly(f_text, ctx), parse_poly(g_text, ctx))


def parent_hgp(f_vars: tuple[str, ...], g_vars: tuple[str, ...]) -> HGPCode:
    """HGP(1 + a1 + a2 + ..., 1 + b1 + b2 + ...): one fresh variable per term."""
    ctx = VarContext(f_vars + g_vars)
    K = ctx.dim
    one = (0,) * K

    def unit(i: int) -> Monomial:
        return tuple(int(t == i) for t in range(K))

    return HGPCode(
        ctx,
        LaurentPoly(ctx, frozenset({one} | {unit(i) for i in range(len(f_vars))})),
        LaurentPoly(ctx, frozenset({one} | {unit(i) for i in range(len(f_vars), K)})),
        f_vars=f_vars,
        g_vars=g_vars,
    )


def hgp_split(code: TwoBlockCode) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Variable blocks (f_vars, g_vars) if the code is hypergraph-product shaped."""
    if isinstance(code, HGPCode):
        return code.f_vars, code.g_vars
    fu, gu = set(code.f.variables_used()), set(code.g.variables_used())
    if fu & gu:
        return None
    f_vars = tuple(n for n in code.context.names if n in fu)
    g_vars = tuple(n for n in code.context.names if n in gu)
    return f_vars, g_vars


# -- indecomposability -----------------------------------------------------


def monomial_group_vectors(code: TwoBlockCode) -> tuple[Monomial, ...]:
    """Exponent vectors of the non-constant monomials of normalized f and g."""
    norm = code.normalized()
    d = code.context.dim
    one = (0,) * d
    vecs = {t for t in norm.f.terms | norm.g.terms if t != one}
    return tuple(sorted(vecs))


def is_indecomposable(code: TwoBlockCode) -> bool:
    """True iff the monomial vectors generate the full lattice Z^d.

    Equivalently: the Tanner graph on the infinite translation group is
    connected.
    """
    return decomposition_profile(code)[2] == 1


def decomposition_profile(code: TwoBlockCode) -> tuple[int, tuple[int, ...], int | None]:
    """(free rank, torsion factors, sublattice index) of Z^d / <monomials>.

    The sublattice index is the number of decoupled sublattices on the
    infinite translation group; ``None`` means infinite (positive free rank).
    """
    free, torsion = quotient_shape(monomial_group_vectors(code), code.context.dim)
    index = None if free else math.prod(torsion)
    return free, torsion, index


def is_indecomposable_finite(code: TwoBlockCode, pres: GroupPresentation) -> bool:
    """Indecomposability on a finite translation group given by a presentation."""
    if pres.context != code.context:
        raise CodeError("presentation context differs from the code context")
    vectors = [*monomial_group_vectors(code), *pres.relations]
    return quotient_shape(vectors, code.context.dim) == (0, ())


# -- parent lifting --------------------------------------------------------


def _label_order_key(mono: Monomial):
    # ascending total degree, ties broken by descending lex:  xy < x^2*y < y^3
    return (total_degree(mono), tuple(-e for e in mono))


@dataclass(frozen=True)
class TwistRelation:
    """A fresh parent variable re-expressed through the chosen witnesses.

    ``vector`` is the relation in the parent exponent lattice (it maps to the
    trivial monomial under the substitution); ``factors`` presents it as
    label = prod(witness(var) ** exp).
    """

    label: str
    vector: tuple[int, ...]
    factors: tuple[tuple[str, int], ...]

    def render(self, witnesses: Mapping[str, tuple[tuple[str, int], ...]]) -> str:
        pieces = []
        for var, exp in self.factors:
            inner = _render_product(witnesses[var])
            pieces.append(f"({inner})" + (f"^{exp}" if exp != 1 else ""))
        return f"{self.label} = " + ("*".join(pieces) if pieces else "1")


def _render_product(factors: Sequence[tuple[str, int]]) -> str:
    if not factors:
        return "1"
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors)


@dataclass(frozen=True)
class ParentLift:
    """A parent hypergraph product plus the data compactifying it to a child.

    ``substitution`` sends every fresh parent variable to its child monomial;
    ``witnesses`` express each child variable as a product of parent
    variables; ``twists`` are the relations satisfied by the fresh variables,
    and ``twist_basis`` is their canonical Hermite basis (equal twist sets
    compare equal).
    """

    parent: HGPCode
    labels: tuple[str, ...]
    substitution: dict[str, LaurentPoly]
    witnesses: dict[str, tuple[tuple[str, int], ...]]
    twists: tuple[TwistRelation, ...]
    twist_basis: tuple[tuple[int, ...], ...]

    def substitution_text(self) -> dict[str, str]:
        return {k: str(v) for k, v in self.substitution.items()}

    def witness_text(self) -> dict[str, str]:
        return {v: _render_product(fs) for v, fs in self.witnesses.items()}

    def twist_text(self) -> list[str]:
        return [t.render(self.witnesses) for t in self.twists]


def _fresh_names(count: int, base: str, taken: set[str]) -> tuple[str, ...]:
    prefix = base
    while any(f"{prefix}{i}" in taken for i in range(1, count + 1)):
        prefix += base
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def lift_to_parent(code: TwoBlockCode) -> ParentLift:
    """Lift an indecomposable code to its hypergraph-product parent.

    Fresh variables a1..ak1 / b1..bk2 are assigned the non-constant monomials
    of normalized f / g, ordered by ascending total degree with descending-lex
    tie break.  One Hermite basis of the rows [monomial | label unit], label
    columns last label first, solves every child variable at once: the
    monomials generate Z^d iff its first d rows are [e_ell | w_ell], and w_ell,
    read back in label order, is the witness of child variable ell.  It is the
    integer solution whose coefficient at each pivot label p of the
    substitution kernel lies in [0, p).  The substitution is the map
    phi(e) = sum e_t * vector_t of ``mono_image``; the witnesses give the map
    psi(e_ell) = w_ell with phi(psi(v)) = v, and each label t with
    psi(phi(e_t)) != e_t gives the twist relation psi(phi(e_t)) - e_t.  More
    than ``_LIFT_TERM_CAP`` terms are refused before any of this runs, since
    both Hermite forms are dense in the term count.
    """
    child = code.normalized()
    d = child.context.dim
    one = (0,) * d
    f_monos = sorted((t for t in child.f.terms if t != one), key=_label_order_key)
    g_monos = sorted((t for t in child.g.terms if t != one), key=_label_order_key)
    if not f_monos or not g_monos:
        raise LiftError("degenerate code: a generator has no non-constant monomial")
    if len(f_monos) + len(g_monos) > _LIFT_TERM_CAP:
        raise LiftError(
            f"lift needs one parent variable per non-constant term: "
            f"{len(f_monos) + len(g_monos)} terms exceed the cap {_LIFT_TERM_CAP}"
        )

    taken = set(child.context.names)
    a_names = _fresh_names(len(f_monos), "a", taken)
    b_names = _fresh_names(len(g_monos), "b", taken | set(a_names))
    labels = a_names + b_names
    vectors = f_monos + g_monos
    K = len(labels)

    # -- resolve every child variable as an integer combination of monomials
    rows = [[*vec, *(int(c == K - 1 - t) for c in range(K))] for t, vec in enumerate(vectors)]
    basis = hermite_basis(rows, d + K)
    units = [tuple(int(j == ell) for j in range(d)) for ell in range(d)]
    if [b[:d] for b in basis[:d]] != units:
        free, torsion, index = decomposition_profile(child)
        raise LiftError(
            "code is decomposable; monomials span a proper sublattice "
            f"(free rank {free}, torsion {torsion}, index {index})"
        )
    # child var index -> coeffs over labels
    witness = [b[d:][::-1] for b in basis[:d]]

    # invariant: witness ell maps to e_ell exactly
    for ell, w in enumerate(witness):
        assert mono_image(w, vectors, d) == units[ell], "witness bookkeeping broke"

    # -- assemble parent, substitution, twists
    parent = parent_hgp(a_names, b_names)
    substitution = {
        name: LaurentPoly.monomial(child.context, vec) for name, vec in zip(labels, vectors)
    }
    names = child.context.names
    witnesses = {
        names[ell]: tuple((labels[t], w[t]) for t in range(K) if w[t])
        for ell, w in enumerate(witness)
    }

    twists = []
    for t, vec_t in enumerate(vectors):
        row = list(mono_image(vec_t, witness, K))
        row[t] -= 1
        if any(row):
            factors = tuple(
                (names[ell], vec_t[ell]) for ell in range(d) if vec_t[ell]
            )
            twists.append(TwistRelation(label=labels[t], vector=tuple(row), factors=factors))
    twist_vectors = [list(t.vector) for t in twists]
    return ParentLift(
        parent=parent,
        labels=labels,
        substitution=substitution,
        witnesses=witnesses,
        twists=tuple(twists),
        twist_basis=hermite_basis(twist_vectors, K),
    )


def compactify(
    parent: TwoBlockCode,
    substitution: Mapping[str, LaurentPoly],
    twists: Sequence[Sequence[int]] = (),
) -> TwoBlockCode:
    """Substitute child monomials for parent variables, validating twists.

    The substitution is the compactification map phi: Z^K -> Z^d sending a
    parent exponent vector e to sum e_i * phi(e_i), phi(e_i) the exponent
    vector of variable i's image (``mono_image``).  Every twist relation vector
    must map to zero under phi; otherwise the boundary data is inconsistent
    and a :class:`TwistError` is raised.
    """
    if hgp_split(parent) is None:
        raise CodeError("compactify expects a hypergraph-product parent")
    names = parent.context.names
    missing = [n for n in names if n not in substitution]
    if missing:
        raise CodeError(f"substitution misses parent variables {missing}")
    # substitute first: it refuses images that are not monomials of one context
    child = TwoBlockCode(
        context=substitution[names[0]].context,
        f=parent.f.substitute(substitution),
        g=parent.g.substitute(substitution),
    )
    images = [substitution[n].single_term() for n in names]
    for t_idx, tv in enumerate(twists):
        if len(tv) != len(names):
            raise TwistError(f"twist {t_idx} has arity {len(tv)}, expected {len(names)}")
        acc = list(mono_image(tv, images, child.context.dim))
        if any(acc):
            raise TwistError(
                f"twist {t_idx} does not map to the trivial monomial (image exponent {acc})"
            )
    return child


# -- family tree -----------------------------------------------------------

_PARITY = ("even", "odd")


@dataclass(frozen=True)
class FamilyTag:
    """Unordered parity pair of the generator weights; the family invariant."""

    parities: tuple[str, str]

    @classmethod
    def of(cls, p1: str, p2: str) -> FamilyTag:
        if p1 not in _PARITY or p2 not in _PARITY:
            raise ValueError(f"parities must be 'even' or 'odd', got {(p1, p2)}")
        return cls(tuple(sorted((p1, p2))))

    @classmethod
    def from_weights(cls, w1: int, w2: int) -> FamilyTag:
        return cls.of(_PARITY[w1 % 2], _PARITY[w2 % 2])

    def __str__(self) -> str:
        return f"({self.parities[0]}, {self.parities[1]})"


def family_tree(code: TwoBlockCode) -> FamilyTag:
    """Parity class of (weight f, weight g); preserved by compactification."""
    return FamilyTag.from_weights(code.f.weight, code.g.weight)


# -- locality bound report -------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Distance-bound estimates driven by check weight and variable count.

    ``locality_dimension`` is min(variable_count, check_weight - 2): the
    number of unique variables caps the dimension a local embedding needs,
    and weight w checks never force more than w - 2 dimensions.  The numeric
    estimates are asymptotic-scaling evaluations with unit constants; they
    advise, they do not certify.
    """

    check_weight: int
    variable_count: int
    locality_dimension: int
    n: int
    indecomposable: bool
    variables_within_weight_cap: bool
    distance_upper_scaling: float
    distance_lower_scaling: float
    lines: tuple[str, ...]


def bound_report(code: TwoBlockCode, n: int) -> BoundReport:
    if n <= 0:
        raise CodeError("bound_report needs a positive block length n")
    norm = code.normalized()
    w = norm.check_weight
    v = len(norm.variables_used())
    if w < 3:
        raise CodeError(f"total check weight {w} is too small to bound (need >= 3)")
    D = min(v, w - 2)
    indec = is_indecomposable(code)
    try:
        size = float(n)
    except OverflowError:
        raise CodeError(f"block length n is too large to bound ({len(str(n))} digits)") from None
    upper = size ** (1.0 - 1.0 / D)
    lower = size ** (1.0 / D)
    lines = [
        f"total check weight w = {w}; unique variables v = {v}",
        f"local embedding dimension D = min(v, w-2) = {D}",
        f"distance upper bound: d <= O(n^(1-1/D)) = O(n^{1 - 1 / D:g}); "
        f"n={n} -> {upper:.6f}",
        f"dimension-distance tradeoff: k * d^(2/(D-1)) <= O(n)"
        if D >= 2
        else "dimension-distance tradeoff: degenerate at D = 1 (d <= O(1))",
        f"distance lower bound: O(n^(1/D)) <= d; n={n} -> {lower:.6f} "
        "(asymptotic; no constants)",
    ]
    flags = []
    if not indec:
        flags.append("warning: code is decomposable; bounds apply per component")
    if v > w - 2:
        flags.append(
            f"warning: v = {v} exceeds w-2 = {w - 2}; weight caps the usable dimension"
        )
    return BoundReport(
        check_weight=w,
        variable_count=v,
        locality_dimension=D,
        n=n,
        indecomposable=indec,
        variables_within_weight_cap=v <= w - 2,
        distance_upper_scaling=upper,
        distance_lower_scaling=lower,
        lines=tuple(lines + flags),
    )
