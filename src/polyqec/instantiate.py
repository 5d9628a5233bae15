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
HX HZ^T, HZ times X check 0 (``times_vector``), decide the commutation
check.

Matrices are stored bit-packed: each row is a Python int whose bit j is the
entry in column j, so a row operation is one big-int XOR.  Columns are read
without a per-bit walk: a block of rows is written as one binary string, and
column j of the block is a strided slice of it, parsed back with ``int``
(``_columns``).  ``transpose`` and ``nullspace`` both read columns this way.
The set bits of one row are listed by ``support_bits``, the one bit walk that
``matmul``, the Tanner count, the exports and the documents' witnesses share.

Elimination takes pivots at each row's top bit.  The rank reads a cached
forward echelon; residues and kernels read the reduced row-echelon form that
one back-substitution builds from it.  That form is unique for a row space,
so the kernel basis read off it does not depend on the elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import IO, Iterable, Sequence

from .codes import CodeError, TwoBlockCode
from .lattice import GroupPresentation, QuotientGroup, quotient, quotient_shape
from .poly import LaurentPoly, VarContext

__all__ = [
    "BinaryMatrix",
    "support_bits",
    "CodeInstance",
    "instantiate",
    "classical_parity_matrix",
    "tanner_component_count",
    "write_coordinate_text",
    "write_matrix_market",
]

# largest group order for which matrices are built: at 2^14, params peaks
# near 0.25 GB and a 200-trial random distance search near 0.5 GB, about x3
# per doubling of the order
GROUP_ORDER_CAP = 1 << 14


def support_bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending; JSON-friendly witness encoding."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reduce(rows: dict[int, int], vec: int) -> int:
    """``vec`` with the top bit cleared by the row keyed by it, while one is."""
    while vec and (c := vec.bit_length() - 1) in rows:
        vec ^= rows[c]
    return vec


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

    __slots__ = ("rows", "ncols", "_ech", "_piv")

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
        return _reduce(self._pivots(), int(vec))

    def rowspace_contains(self, vec: int) -> bool:
        return self.residue(vec) == 0

    def nullspace(self) -> list[int]:
        """Basis of {x : every row r has parity(r & x) = 0}, bit-packed.

        One vector per free (non-pivot) column j, in ascending j: bit j plus
        the pivot column of every reduced row that holds bit j.  With each
        reduced row, minus its pivot bit, placed at the index of its pivot
        column (0 at free columns), that set of pivot columns is column j of
        an ncols x ncols matrix, which ``_columns`` reads for the free j only.
        """
        piv = self._pivots()
        placed = [0] * self.ncols
        for c, r in piv.items():
            placed[c] = r ^ (1 << c)
        free = [j for j in range(self.ncols) if j not in piv]
        return [col | (1 << j) for col, j in zip(_columns(placed, self.ncols, free), free)]

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
            for j in support_bits(r):
                acc ^= other.rows[j]
            out.append(acc)
        return BinaryMatrix(out, other.ncols)

    __matmul__ = matmul


# -- instantiation ---------------------------------------------------------


def _group(
    context: VarContext, generators: Sequence[LaurentPoly], pres: GroupPresentation
) -> QuotientGroup:
    """The finite group that generators over ``context`` are instantiated on.

    The one gate before any matrix is built (a matrix has one row per group
    element, each as wide as a multiple of the group order).  It refuses, in
    this order: a presentation over another context, an infinite quotient
    (``InfiniteQuotientError``), an order above ``GROUP_ORDER_CAP`` and a
    zero generator.
    """
    if pres.context != context:
        raise CodeError("presentation context differs from the code context")
    group = quotient(pres)
    if group.order > GROUP_ORDER_CAP:
        raise CodeError(
            f"group order {group.order} exceeds the instantiation cap {GROUP_ORDER_CAP}"
        )
    if any(poly.is_zero for poly in generators):
        raise CodeError("cannot instantiate a code with a zero generator")
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
    group: QuotientGroup
    hx: BinaryMatrix
    hz: BinaryMatrix

    @property
    def n(self) -> int:
        """Number of qubits (two blocks of |G|)."""
        return self.hx.ncols

    def k(self) -> int:
        """Number of logical qubits: n - rank(HX) - rank(HZ), where rank(HZ) =
        rank(HX) since HZ = P*HX*Q for the block swap ψ (see ``barrier``)."""
        return self.n - 2 * self.hx.rank()


def instantiate(
    code: TwoBlockCode, pres: GroupPresentation, *, check: bool = True
) -> CodeInstance:
    """Build the X/Z parity-check matrices of a code on a finite group.

    The group comes from ``_group``, which refuses a presentation over
    another context, an infinite quotient, an order above
    ``GROUP_ORDER_CAP`` and a zero generator, in that order.  With ``check``
    the X/Z commutation is verified on X check 0 against every Z check
    (``_verify_commutation``).
    """
    group = _group(code.context, (code.f, code.g), pres)
    hx = _check_matrix(group, (code.f, code.g))
    hz = _check_matrix(group, (code.g.antipode(), code.f.antipode()))
    inst = CodeInstance(code=code, group=group, hx=hx, hz=hz)
    if check:
        _verify_commutation(inst)
    return inst


def _verify_commutation(inst: CodeInstance) -> None:
    """Every X check must overlap every Z check evenly.

    One full row of HX HZ^T, HZ times X check 0, is tested, and the lowest
    odd Z check is named.  Every row of HX and HZ is its identity row
    translated by its element, and translating both checks by -h keeps their
    overlap, so entry (h, h') of the product equals entry (0, h' - h): this
    one row decides all of it.
    """
    odd = inst.hz.times_vector(inst.hx.rows[0])
    if odd:
        h = (odd & -odd).bit_length() - 1
        raise CodeError(f"X check 0 and Z check {h} overlap oddly; instantiation is inconsistent")


def classical_parity_matrix(poly: LaurentPoly, pres: GroupPresentation) -> BinaryMatrix:
    """One check per group element for a single classical generator, on the
    group ``_group`` gives (refused as ``instantiate`` refuses)."""
    return _check_matrix(_group(poly.context, (poly,), pres), (poly,))


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
    for q in support_bits(inst.hx.rows[0]):
        block, idx = divmod(q, group.order)
        supports[block].append(group.index_coords(idx))
    radices = group._radices
    vectors = [[r * (i == j) for j in range(len(radices))] for i, r in enumerate(radices)]
    for elems in supports:
        vectors += [[x - y for x, y in zip(e, elems[0])] for e in elems[1:]]
    return 2 ** supports.count([]) * prod(quotient_shape(vectors, len(radices))[1])


# -- exports ---------------------------------------------------------------


def write_coordinate_text(matrix: BinaryMatrix, fh: IO[str]) -> None:
    """Plain sparse listing: 'nrows ncols' then one 0-based 'row col' per entry,
    written to an open text stream."""
    fh.write(f"{matrix.nrows} {matrix.ncols}\n")
    for i, r in enumerate(matrix.rows):
        for j in support_bits(r):
            fh.write(f"{i} {j}\n")


def write_matrix_market(matrix: BinaryMatrix, fh: IO[str]) -> None:
    """MatrixMarket coordinate format with 1-based indices, written to an open
    text stream."""
    nnz = sum(r.bit_count() for r in matrix.rows)
    fh.write("%%MatrixMarket matrix coordinate integer general\n")
    fh.write(f"{matrix.nrows} {matrix.ncols} {nnz}\n")
    for i, r in enumerate(matrix.rows):
        for j in support_bits(r):
            fh.write(f"{i + 1} {j + 1} 1\n")
