"""Integer lattice utilities: Smith/Hermite normal forms and abelian quotients.

Everything here is exact arithmetic on Python ints.  Lattices are given by
generating row vectors in Z^d; quotients Z^d / <rows> are described by their
free rank and invariant factor chain, with mixed-radix element indexing for
the finite case (needed to lay out qubits deterministically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

from .poly import Monomial, VarContext

__all__ = [
    "SmithForm",
    "smith_normal_form",
    "hermite_basis",
    "lattice_saturates",
    "quotient_shape",
    "solve_in_lattice",
    "GroupPresentation",
    "QuotientGroup",
    "quotient",
    "InfiniteQuotientError",
]

IntMatrix = list[list[int]]


class InfiniteQuotientError(ValueError):
    """A finite-group operation was requested on an infinite quotient."""


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithForm:
    """U @ M @ V = S with U, V unimodular and S diagonal (divisibility chain)."""

    U: tuple[tuple[int, ...], ...]
    S: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for s in self.diagonal if s)

    def solve(self, target: Sequence[int]) -> list[int] | None:
        """Integer coefficients c with c @ M == target, if any (M the input rows)."""
        k, d = len(self.U), len(self.V)
        tgt = list(map(int, target))
        if len(tgt) != d:
            raise ValueError("target arity mismatch")
        # c @ M = t  <=>  (c @ Uinv) @ S = t @ V ; write s = c @ Uinv
        tV = [sum(tgt[i] * self.V[i][j] for i in range(d)) for j in range(d)]
        s = [0] * k
        for j in range(d):
            sj = self.S[j][j] if j < k else 0
            if sj:
                if tV[j] % sj:
                    return None
                s[j] = tV[j] // sj
            elif tV[j]:
                return None
        # c = s @ U
        return [sum(s[i] * self.U[i][j] for i in range(k)) for j in range(k)]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form with transform tracking.

    Pivoting picks the smallest nonzero entry in absolute value.  Returns
    U (rows x rows), S (rows x cols), V (cols x cols); diagonal entries are
    nonnegative and each divides the next.
    """
    A: IntMatrix = [[int(x) for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    U = _identity(r)
    V = _identity(c)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        Ad, As = A[dst], A[src]
        for k in range(c):
            Ad[k] += q * As[k]
        Ud, Us = U[dst], U[src]
        for k in range(r):
            Ud[k] += q * Us[k]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(r, c):
        # smallest |nonzero| pivot in the trailing submatrix
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                v = A[i][j]
                if v and (piv is None or abs(v) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # reduce column t, restarting whenever a smaller remainder shows up
            dirty = False
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide the whole trailing block
            culprit = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if A[i][j] % A[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    diag = tuple(A[i][i] for i in range(min(r, c)))
    freeze = lambda M: tuple(tuple(row) for row in M)
    return SmithForm(U=freeze(U), S=freeze(A), V=freeze(V), diagonal=diag)


def hermite_basis(vectors: Iterable[Sequence[int]], d: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite normal form basis of the generated lattice.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Two generating sets span the same lattice iff their bases compare equal.
    """
    by_lead: dict[int, list[int]] = {}
    for vec in vectors:
        v = list(map(int, vec))
        if len(v) != d:
            raise ValueError("vector arity mismatch")
        while any(v):
            j = next(i for i, x in enumerate(v) if x)
            b = by_lead.get(j)
            if b is None:
                by_lead[j] = v
                break
            q = v[j] // b[j]
            v = [x - q * y for x, y in zip(v, b)]
            if v[j]:
                # |v[j]| < |b[j]| now; swap roles and keep reducing
                by_lead[j], v = v, by_lead[j]
    basis = [by_lead[j] for j in sorted(by_lead)]
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x)
        if b[lead] < 0:
            b[:] = [-x for x in b]
    # reduce entries above each pivot into [0, pivot); ascending order keeps
    # already-reduced columns untouched (later rows are zero before their lead)
    for bi in range(len(basis)):
        lead = next(i for i, x in enumerate(basis[bi]) if x)
        for bj in range(bi):
            if basis[bj][lead]:
                q = basis[bj][lead] // basis[bi][lead]
                basis[bj] = [x - q * y for x, y in zip(basis[bj], basis[bi])]
    return tuple(tuple(b) for b in basis)


def quotient_shape(vectors: Iterable[Sequence[int]], d: int) -> tuple[int, tuple[int, ...]]:
    """(free_rank, invariant_factors > 1) of Z^d / <vectors>."""
    rows = [list(map(int, v)) for v in vectors]
    for v in rows:
        if len(v) != d:
            raise ValueError("vector arity mismatch")
    if not rows:
        return d, ()
    snf = smith_normal_form(rows)
    diag = list(snf.diagonal) + [0] * (d - len(snf.diagonal))
    free = sum(1 for s in diag if s == 0)
    torsion = tuple(s for s in diag if s > 1)
    return free, torsion


def lattice_saturates(vectors: Iterable[Sequence[int]], d: int) -> bool:
    """True iff the vectors generate all of Z^d."""
    free, torsion = quotient_shape(vectors, d)
    return free == 0 and not torsion


def solve_in_lattice(
    vectors: Sequence[Sequence[int]], target: Sequence[int]
) -> list[int] | None:
    """Integer coefficients c with sum(c_i * vectors_i) == target, if any."""
    rows = [list(map(int, v)) for v in vectors]
    tgt = list(map(int, target))
    if not rows:
        return None if any(tgt) else []
    return smith_normal_form(rows).solve(tgt)


# -- abelian quotient groups ----------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    """Z^d modulo the subgroup generated by relation exponent vectors."""

    context: VarContext
    relations: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        d = self.context.dim
        for rel in self.relations:
            if len(rel) != d:
                raise ValueError(f"relation {rel} has wrong arity for {self.context}")

    @property
    def dim(self) -> int:
        return self.context.dim


def _product_radices(pres: GroupPresentation) -> tuple[int, ...] | None:
    """Per-variable periods (L_1..L_d) when the presentation is a plain torus.

    A plain torus presents each variable exactly once as x_i^{L_i} = 1; in
    that case elements are indexed in row-major (L_1, ..., L_d) order, which
    matches the Kronecker-product circulant convention.
    """
    d = pres.dim
    periods = [0] * d
    for rel in pres.relations:
        support = [i for i, e in enumerate(rel) if e]
        if len(support) != 1:
            return None
        i = support[0]
        if periods[i] or rel[i] <= 0:
            return None
        periods[i] = rel[i]
    if any(p == 0 for p in periods):
        return None
    return tuple(periods)


@dataclass(frozen=True)
class QuotientGroup:
    """The abelian group Z^d / <relations>, finite or not.

    Finite groups enumerate their elements 0..order-1 in a deterministic
    mixed-radix order and support index arithmetic; infinite quotients are a
    first-class result carrying free rank and torsion, but reject element
    operations.
    """

    presentation: GroupPresentation
    free_rank: int
    invariant_factors: tuple[int, ...]
    _radices: tuple[int, ...] = field(repr=False)
    _coord_rows: tuple[tuple[int, ...], ...] = field(repr=False)  # w -> coords matrix

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise InfiniteQuotientError(
                f"quotient of {self.presentation.context} is infinite "
                f"(free rank {self.free_rank})"
            )
        return prod(self._radices) if self._radices else 1

    def _require_finite(self) -> None:
        if not self.is_finite:
            raise InfiniteQuotientError(
                f"element operations need a finite quotient; free rank is {self.free_rank}"
            )

    def coords(self, mono: Monomial) -> tuple[int, ...]:
        """Mixed-radix coordinates of a monomial's class."""
        self._require_finite()
        w = list(map(int, mono))
        if len(w) != self.presentation.dim:
            raise ValueError("monomial arity mismatch")
        raw = [
            sum(w[i] * self._coord_rows[i][j] for i in range(len(w)))
            for j in range(len(self._radices))
        ]
        return tuple(x % m for x, m in zip(raw, self._radices))

    def reduce(self, mono: Monomial) -> int:
        """Element index of a monomial's class."""
        coords = self.coords(mono)
        idx = 0
        for x, m in zip(coords, self._radices):
            idx = idx * m + x
        return idx

    def index_coords(self, index: int) -> tuple[int, ...]:
        self._require_finite()
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range")
        out = []
        for m in reversed(self._radices):
            out.append(index % m)
            index //= m
        return tuple(reversed(out))

    def add(self, a: int, b: int) -> int:
        ca, cb = self.index_coords(a), self.index_coords(b)
        idx = 0
        for x, y, m in zip(ca, cb, self._radices):
            idx = idx * m + (x + y) % m
        return idx

    def neg(self, a: int) -> int:
        ca = self.index_coords(a)
        idx = 0
        for x, m in zip(ca, self._radices):
            idx = idx * m + (-x) % m
        return idx

    def elements(self) -> range:
        self._require_finite()
        return range(self.order)

    def translation(self, mono: Monomial) -> list[int]:
        """Permutation table: element index -> index of (element * mono).

        Built axis by axis: row-major indices of the first axes, extended by
        each next radix, with that axis's coordinate shifted cyclically.
        """
        table = [0]
        for s, m in zip(self.coords(mono), self._radices):
            shifted = [*range(s, m), *range(s)]
            table = [t * m + x for t in table for x in shifted]
        return table


def quotient(pres: GroupPresentation) -> QuotientGroup:
    """Quotient Z^d by the relation lattice of a presentation."""
    d = pres.dim
    free, torsion = quotient_shape(pres.relations, d) if pres.relations else (d, ())
    if free > 0:
        return QuotientGroup(
            presentation=pres,
            free_rank=free,
            invariant_factors=torsion,
            _radices=(),
            _coord_rows=(),
        )
    radices = _product_radices(pres)
    if radices is not None:
        # plain torus: coordinates are the exponents mod the per-variable period
        coord_rows = tuple(
            tuple(int(i == j) for j in range(d)) for i in range(d)
        )
        return QuotientGroup(
            presentation=pres,
            free_rank=0,
            invariant_factors=torsion,
            _radices=radices,
            _coord_rows=coord_rows,
        )
    snf = smith_normal_form([list(rel) for rel in pres.relations])
    diag = list(snf.diagonal) + [0] * (d - len(snf.diagonal))
    keep = [j for j in range(d) if diag[j] > 1]
    moduli = tuple(diag[j] for j in keep)
    coord_rows = tuple(tuple(snf.V[i][j] for j in keep) for i in range(d))
    return QuotientGroup(
        presentation=pres,
        free_rank=0,
        invariant_factors=torsion,
        _radices=moduli,
        _coord_rows=coord_rows,
    )
