"""Integer lattice utilities: Smith/Hermite normal forms and abelian quotients.

Everything here is exact arithmetic on Python ints.  Lattices are given by
generating row vectors in Z^d; ``quotient_shape`` gives the free rank and
invariant factor chain of Z^d / <rows>.  A ``QuotientGroup`` is always
finite (``quotient`` refuses the rest), with mixed-radix element indexing to
lay out qubits deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

from .poly import Monomial, VarContext, mono_image

__all__ = [
    "smith_normal_form",
    "hermite_basis",
    "quotient_shape",
    "GroupPresentation",
    "QuotientGroup",
    "quotient",
    "InfiniteQuotientError",
]

IntMatrix = list[list[int]]


class InfiniteQuotientError(ValueError):
    """A quotient group was requested of relations that leave it infinite."""


def smith_normal_form(
    mat: Sequence[Sequence[int]], cols: int
) -> tuple[IntMatrix, tuple[int, ...]]:
    """(V, diagonal): a Smith normal form U @ M @ V = S of a matrix with
    ``cols`` columns, keeping only the unimodular column transform V.

    Pivoting picks the smallest nonzero entry in absolute value.  The
    diagonal is padded to ``cols`` entries: the invariant factors of
    Z^cols / <rows>, nonnegative and each dividing the next, then a 0 for
    each free direction.
    """
    A: IntMatrix = [[int(x) for x in row] for row in mat]
    r, c = len(A), cols
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

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

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

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
        t += 1
    return V, tuple(abs(A[i][i]) if i < r else 0 for i in range(c))


def hermite_basis(vectors: Iterable[Sequence[int]], d: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite normal form basis of the generated lattice.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Two generating sets span the same lattice iff their bases compare equal.
    Columns are cleared left to right by one Euclid over all rows at once,
    always dividing by the row of least absolute entry: that keeps the
    multipliers, and so the entries of the other columns, small.
    """
    rows = []
    for vec in vectors:
        v = list(map(int, vec))
        if len(v) != d:
            raise ValueError("vector arity mismatch")
        if any(v):
            rows.append(v)
    basis: IntMatrix = []
    for col in range(d):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [x - q * y for x, y in zip(r, p)]
            live = [r for r in live if r[col]]
        if not live:
            continue
        p = live[0]
        if p[col] < 0:
            p[:] = [-x for x in p]
        # reduce the rows above into [0, pivot); p is zero before col, so
        # their earlier pivot columns stay reduced
        for b in basis:
            q = b[col] // p[col]
            if q:
                b[:] = [x - q * y for x, y in zip(b, p)]
        basis.append(p)
        rows = [r for r in rows if r is not p and any(r)]
    return tuple(tuple(b) for b in basis)


def quotient_shape(vectors: Iterable[Sequence[int]], d: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors > 1) of Z^d / <vectors>."""
    rows = [tuple(v) for v in vectors]
    if any(len(v) != d for v in rows):
        raise ValueError("vector arity mismatch")
    diag = smith_normal_form(rows, d)[1]
    return diag.count(0), tuple(s for s in diag if s > 1)


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
    """The finite abelian group Z^d / <relations>.

    Elements are enumerated 0..order-1 in a deterministic mixed-radix order
    and support index arithmetic.  ``quotient_shape`` gives the invariant
    factors.
    """

    presentation: GroupPresentation
    _radices: tuple[int, ...] = field(repr=False)
    _coord_rows: tuple[tuple[int, ...], ...] = field(repr=False)  # w -> coords matrix

    @property
    def order(self) -> int:
        return prod(self._radices)

    def coords(self, mono: Monomial) -> tuple[int, ...]:
        """Mixed-radix coordinates of a monomial's class."""
        if len(mono) != self.presentation.dim:
            raise ValueError("monomial arity mismatch")
        raw = mono_image(mono, self._coord_rows, len(self._radices))
        return tuple(x % m for x, m in zip(raw, self._radices))

    def _index(self, coords: Iterable[int]) -> int:
        """Element index of mixed-radix coordinates, each taken mod its radix."""
        idx = 0
        for x, m in zip(coords, self._radices):
            idx = idx * m + x % m
        return idx

    def reduce(self, mono: Monomial) -> int:
        """Element index of a monomial's class."""
        return self._index(self.coords(mono))

    def index_coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range")
        out = []
        for m in reversed(self._radices):
            out.append(index % m)
            index //= m
        return tuple(reversed(out))

    def neg(self, a: int) -> int:
        return self._index(-x for x in self.index_coords(a))

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
    """Quotient Z^d by the relation lattice of a presentation.

    Raises ``InfiniteQuotientError`` when the quotient has positive free rank.
    """
    d = pres.dim
    radices = _product_radices(pres)
    if radices is not None:
        # plain torus: coordinates are the exponents mod the per-variable period
        coord_rows = tuple(
            tuple(int(i == j) for j in range(d)) for i in range(d)
        )
        return QuotientGroup(presentation=pres, _radices=radices, _coord_rows=coord_rows)
    # one Smith form of the raw relations gives the shape and the coordinate rows
    V, diag = smith_normal_form(pres.relations, d)
    if 0 in diag:
        raise InfiniteQuotientError(
            f"quotient of {pres.context} is infinite (free rank {diag.count(0)})"
        )
    keep = [j for j in range(d) if diag[j] > 1]
    return QuotientGroup(
        presentation=pres,
        _radices=tuple(diag[j] for j in keep),
        _coord_rows=tuple(tuple(V[i][j] for j in keep) for i in range(d)),
    )
