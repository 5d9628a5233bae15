"""Finite instantiation: parity-check matrices over GF(2) on a finite group.

A two-block code instantiated on a finite translation group G yields one X
check and one Z check per group element acting on two qubit blocks of size
|G| (left block = columns 0..|G|-1, right block = columns |G|..2|G|-1):

* X check at h: left qubits h*m for monomials m of f, right qubits h*n for
  monomials n of g;
* Z check at h: left qubits from the antipode of g, right qubits from the
  antipode of f.

Coefficients add mod 2, so monomials that collide on the finite group cancel.

Every check is its identity check translated by its element, so a matrix is
built from one row (``_check_matrix``): the identity row is read off the
monomials' element indices, and ``_translates`` gives each axis of the
mixed-radix group one pair of masks under which adding 1 to that coordinate
is two masked shifts of the whole row.  The same covariance lets one row of
HX HZ^T, X check 0 against every Z check, decide the commutation check.

Matrices are stored bit-packed: each row is a Python int whose bit j is the
entry in column j, so a row operation is one big-int XOR.  Columns are read
without a per-bit walk: a block of rows is written as one binary string, and
column j of the block is a strided slice of it, parsed back with ``int``
(``_columns``).  ``transpose`` and ``nullspace`` both read columns this way.

Elimination takes pivots at each row's top bit.  The rank reads a cached
forward echelon; residues and kernels read the reduced row-echelon form that
one back-substitution builds from it.  That form is unique for a row space,
so the kernel basis read off it does not depend on the elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import IO, Iterable, Sequence

from .codes import ClassicalGenerator, CodeError, TwoBlockCode
from .lattice import GroupPresentation, QuotientGroup, quotient, quotient_shape
from .poly import LaurentPoly

__all__ = [
    "BinaryMatrix",
    "parity_dot",
    "CodeInstance",
    "instantiate",
    "classical_parity_matrix",
    "code_dimension",
    "tanner_component_count",
    "write_coordinate_text",
    "write_matrix_market",
]

# largest group order for which matrices are built: at 2^14, params peaks
# near 0.25 GB and a 200-trial random distance search near 0.5 GB, about x3
# per doubling of the order
GROUP_ORDER_CAP = 1 << 14


def parity_dot(a: int, b: int) -> int:
    """GF(2) inner product of two bit-packed vectors."""
    return (a & b).bit_count() & 1


_COLUMN_BLOCK = 256  # rows written to one string by ``_columns``


def _columns(rows: Sequence[int], ncols: int, wanted: Sequence[int]) -> list[int]:
    """Columns ``wanted`` of bit-packed rows of width ``ncols``, bit-packed:
    bit i of the column for j is bit j of ``rows[i]``.

    Each block of ``_COLUMN_BLOCK`` rows is written as one string of
    ``ncols``-digit binary rows, last row first.  Column j of the block is
    then the slice ``text[ncols - 1 - j :: ncols]``, its first character the
    block's last row, so ``int(slice, 2)`` is the column with bit 0 at the
    block's first row; it is shifted to the block's offset.
    """
    cols = [0] * len(wanted)
    fmt = f"0{ncols}b"
    for start in range(0, len(rows), _COLUMN_BLOCK):
        text = "".join(format(r, fmt) for r in reversed(rows[start : start + _COLUMN_BLOCK]))
        for idx, j in enumerate(wanted):
            cols[idx] |= int(text[ncols - 1 - j :: ncols], 2) << start
    return cols


class BinaryMatrix:
    """An immutable GF(2) matrix with bit-packed integer rows."""

    __slots__ = ("rows", "ncols", "_ech", "_piv", "_null")

    def __init__(self, rows: Iterable[int], ncols: int):
        rows = tuple(int(r) for r in rows)
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        for r in rows:
            if r < 0 or r >> ncols:
                raise ValueError("row has bits outside the declared width")
        self.rows = rows
        self.ncols = ncols
        self._ech: dict[int, int] | None = None
        self._piv: dict[int, int] | None = None
        self._null: tuple[int, ...] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> BinaryMatrix:
        ncols = len(dense[0]) if dense else 0
        rows = []
        for dr in dense:
            if len(dr) != ncols:
                raise ValueError("ragged dense matrix")
            rows.append(sum((1 << j) for j, e in enumerate(dr) if e % 2))
        return cls(rows, ncols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> BinaryMatrix:
        return cls([0] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> BinaryMatrix:
        return cls([1 << i for i in range(n)], n)

    def to_dense(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    # -- basic structure ---------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"BinaryMatrix({len(self.rows)}x{self.ncols})"

    def is_zero(self) -> bool:
        return not any(self.rows)

    def transpose(self) -> BinaryMatrix:
        """The transpose: row j is column j, read by ``_columns``."""
        return BinaryMatrix(_columns(self.rows, self.ncols, range(self.ncols)), self.nrows)

    # -- linear algebra ----------------------------------------------------

    def _echelon(self) -> dict[int, int]:
        """Forward echelon form: basis rows keyed by their top bit (cached).

        Each row is cleared of the pivot bits it holds (``cur & pivmask``),
        highest first; a nonzero remainder joins the basis under its top bit.
        """
        if self._ech is None:
            echelon: dict[int, int] = {}
            pivmask = 0
            for cur in self.rows:
                hit = cur & pivmask
                while hit:
                    cur ^= echelon[hit.bit_length() - 1]
                    hit = cur & pivmask
                if cur:
                    c = cur.bit_length() - 1
                    echelon[c] = cur
                    pivmask |= 1 << c
            self._ech = echelon
        return self._ech

    def _pivots(self) -> dict[int, int]:
        """Reduced row-echelon form: pivot rows keyed by pivot column (cached).

        Invariant: each row's top bit is its pivot column and no row contains
        any other row's pivot column.  Back-substitution on the forward
        echelon walks the pivot columns in ascending order: the lower pivot
        rows are already reduced, so each XOR clears exactly one pivot bit
        and sets no other.  The echelon is then released, so a matrix keeps
        one elimination.
        """
        if self._piv is None:
            pivmask = sum(1 << c for c in self._echelon())
            piv: dict[int, int] = {}
            for c, row in sorted(self._ech.items()):
                hit = (row & pivmask) ^ (1 << c)
                while hit:
                    t = hit.bit_length() - 1
                    row ^= piv[t]
                    hit ^= 1 << t
                piv[c] = row
            self._piv = piv
            self._ech = None
        return self._piv

    def rank(self) -> int:
        return len(self._piv if self._piv is not None else self._echelon())

    def residue(self, vec: int) -> int:
        """Reduce a bit-packed vector against this matrix's row space."""
        piv = self._pivots()
        cur = int(vec)
        while cur:
            c = cur.bit_length() - 1
            if c not in piv:
                return cur
            cur ^= piv[c]
        return 0

    def rowspace_contains(self, vec: int) -> bool:
        return self.residue(vec) == 0

    def nullspace(self) -> list[int]:
        """Basis of {x : every row r has parity(r & x) = 0}, bit-packed (cached).

        One vector per free (non-pivot) column j, in ascending j: bit j plus
        the pivot column of every reduced row that holds bit j.  With each
        reduced row, minus its pivot bit, placed at the index of its pivot
        column (0 at free columns), that set of pivot columns is column j of
        an ncols x ncols matrix, which ``_columns`` reads for the free j only.
        """
        if self._null is None:
            piv = self._pivots()
            placed = [0] * self.ncols
            for c, r in piv.items():
                placed[c] = r ^ (1 << c)
            free = [j for j in range(self.ncols) if j not in piv]
            cols = _columns(placed, self.ncols, free)
            self._null = tuple(col | (1 << j) for col, j in zip(cols, free))
        return list(self._null)

    def times_vector(self, vec: int) -> int:
        """Matrix-vector product; bit i of the result is parity(row_i & vec)."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & vec).bit_count() & 1:
                out |= 1 << i
        return out

    def matmul(self, other: BinaryMatrix) -> BinaryMatrix:
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.rows[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return BinaryMatrix(out, other.ncols)

    def __matmul__(self, other: BinaryMatrix) -> BinaryMatrix:
        return self.matmul(other)


# -- instantiation ---------------------------------------------------------


def _finite_group(pres: GroupPresentation) -> QuotientGroup:
    """The quotient group of a presentation, refused above the order cap.

    Checked before any matrix is built: a matrix has one row per group
    element, each as wide as a multiple of the group order.
    """
    group = quotient(pres)
    if group.order > GROUP_ORDER_CAP:
        raise CodeError(
            f"group order {group.order} exceeds the instantiation cap {GROUP_ORDER_CAP}"
        )
    return group


def _check_matrix(group: QuotientGroup, blocks: Sequence[LaurentPoly]) -> BinaryMatrix:
    """Row h is h * blocks[b] on block b (columns b|G|..(b+1)|G|-1); collisions XOR."""
    row = 0
    for b, poly in enumerate(blocks):
        for m in poly.terms:
            row ^= 1 << (group.reduce(m) + b * group.order)
    width = len(blocks) * group.order
    return BinaryMatrix(_translates(group, row, width), width)


def _translates(group: QuotientGroup, row: int, width: int) -> list[int]:
    """h * row for h = 0..|G|-1 in index order; ``width`` columns, blocks of |G|.

    Each axis of radix r > 1 and stride s (the product of the later radices)
    gets one pair of masks, repeated over the blocks: ``hi`` holds the columns
    whose coordinate on the axis is r - 1, ``lo`` the rest.  Adding 1 to that
    coordinate moves ``lo`` up by s and wraps ``hi`` down by (r - 1) s.  The
    rows of the earlier axes are each extended by their r translates along
    the axis, so the last axis varies fastest, as in the element indices.
    """
    full = (1 << width) - 1
    stride = group.order
    rows = [row]
    for r in group._radices:
        stride //= r
        if r == 1:
            continue
        wrap = (r - 1) * stride
        hi = int(("1" * stride + "0" * wrap) * (width // (r * stride)), 2)
        lo = full ^ hi
        out = []
        for v in rows:
            out.append(v)
            for _ in range(r - 1):
                v = ((v & lo) << stride) | ((v & hi) >> wrap)
                out.append(v)
        rows = out
    return rows


@dataclass(frozen=True)
class CodeInstance:
    """A two-block code pinned to a finite translation group."""

    code: TwoBlockCode
    presentation: GroupPresentation
    group: QuotientGroup
    hx: BinaryMatrix
    hz: BinaryMatrix

    @property
    def n(self) -> int:
        """Number of qubits (two blocks of |G|)."""
        return self.hx.ncols

    @property
    def group_order(self) -> int:
        return self.group.order

    def k(self) -> int:
        return code_dimension(self)

    def qubit_label(self, col: int) -> str:
        block, idx = divmod(col, self.group_order)
        coords = self.group.index_coords(idx)
        side = "L" if block == 0 else "R"
        return f"{side}{coords}"


def _code_group(code: TwoBlockCode, pres: GroupPresentation) -> QuotientGroup:
    """The group a code is instantiated on, with every check ``instantiate``
    makes before it builds a matrix: same context, order cap, no zero generator.
    """
    if pres.context != code.context:
        raise CodeError("presentation context differs from the code context")
    group = _finite_group(pres)
    if code.f.is_zero or code.g.is_zero:
        raise CodeError("cannot instantiate a code with a zero generator")
    return group


def instantiate(
    code: TwoBlockCode, pres: GroupPresentation, *, check: bool = True
) -> CodeInstance:
    """Build the X/Z parity-check matrices of a code on a finite group.

    Raises if the presentation's quotient group is infinite or if it belongs
    to a different variable context.  With ``check`` the X/Z commutation is
    verified on X check 0 against every Z check (``_verify_commutation``).
    """
    group = _code_group(code, pres)
    hx = _check_matrix(group, (code.f, code.g))
    hz = _check_matrix(group, (code.g.antipode(), code.f.antipode()))
    inst = CodeInstance(code=code, presentation=pres, group=group, hx=hx, hz=hz)
    if check:
        _verify_commutation(inst)
    return inst


def _verify_commutation(inst: CodeInstance) -> None:
    """Every X check must overlap every Z check evenly.

    X check 0 is tested against every Z check: one full row of HX HZ^T.
    Every row of HX and HZ is its identity row translated by its element, and
    translating both checks by -h keeps their overlap, so entry (h, h') of
    the product equals entry (0, h' - h): this one row decides all of it.
    """
    xrow = inst.hx.rows[0]
    for h, zrow in enumerate(inst.hz.rows):
        if parity_dot(xrow, zrow):
            raise CodeError(
                f"X check 0 and Z check {h} overlap oddly; instantiation is inconsistent"
            )


def classical_parity_matrix(
    gen: ClassicalGenerator | LaurentPoly, pres: GroupPresentation
) -> BinaryMatrix:
    """One check per group element for a single classical generator."""
    poly = gen.poly if isinstance(gen, ClassicalGenerator) else gen
    if pres.context != poly.context:
        raise CodeError("presentation context differs from the generator context")
    if poly.is_zero:
        raise CodeError("cannot instantiate a zero generator")
    group = _finite_group(pres)
    return _check_matrix(group, (poly,))


def code_dimension(inst: CodeInstance) -> int:
    """Number of logical qubits: n - rank(HX) - rank(HZ)."""
    return inst.n - inst.hx.rank() - inst.hz.rank()


def tanner_component_count(inst: CodeInstance) -> int:
    """Connected components of the Tanner graph: 2^e [G : <A - A, B - B>].

    A and B are the supports of f and g on G after colliding monomials
    cancel (the X check at the identity); e of them are empty.  X_h meets
    L_{h+a} and R_{h+b}, Z_h meets L_{h-b} and R_{h-a}: every edge keeps the
    label X_h: h, L_q: q - a0, R_q: q - b0, Z_h: h - a0 - b0 in one coset,
    and a coset's X checks join through the qubits.  An empty support cuts
    the left block and X checks from the right block and Z checks.
    """
    group = inst.group
    supports: tuple[list, list] = ([], [])
    row = inst.hx.rows[0]
    while row:
        low = row & -row
        block, idx = divmod(low.bit_length() - 1, group.order)
        supports[block].append(group.index_coords(idx))
        row ^= low
    radices = group._radices
    vectors = [[r * (i == j) for j in range(len(radices))] for i, r in enumerate(radices)]
    for elems in supports:
        vectors += [[x - y for x, y in zip(e, elems[0])] for e in elems[1:]]
    return 2 ** supports.count([]) * prod(quotient_shape(vectors, len(radices))[1])


# -- exports ---------------------------------------------------------------


def _open_for_write(dest: str | Path | IO[str]):
    if isinstance(dest, (str, Path)):
        return open(dest, "w", encoding="utf-8"), True
    return dest, False


def write_coordinate_text(matrix: BinaryMatrix, dest: str | Path | IO[str]) -> None:
    """Plain sparse listing: 'nrows ncols' then one 0-based 'row col' per entry."""
    fh, owned = _open_for_write(dest)
    try:
        fh.write(f"{matrix.nrows} {matrix.ncols}\n")
        for i, r in enumerate(matrix.rows):
            while r:
                low = r & -r
                fh.write(f"{i} {low.bit_length() - 1}\n")
                r ^= low
    finally:
        if owned:
            fh.close()


def write_matrix_market(matrix: BinaryMatrix, dest: str | Path | IO[str]) -> None:
    """MatrixMarket coordinate format with 1-based indices."""
    nnz = sum(r.bit_count() for r in matrix.rows)
    fh, owned = _open_for_write(dest)
    try:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{matrix.nrows} {matrix.ncols} {nnz}\n")
        for i, r in enumerate(matrix.rows):
            while r:
                low = r & -r
                fh.write(f"{i + 1} {low.bit_length()} 1\n")
                r ^= low
    finally:
        if owned:
            fh.close()
