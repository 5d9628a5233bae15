"""Tests for GF(2) matrices and finite instantiation of two-block codes."""

import io
import itertools
import random

import pytest

import polyqec.instantiate as instantiate_mod
from polyqec.codes import (
    CodeError,
    TwoBlockCode,
    is_indecomposable_finite,
    two_block,
)
from polyqec.fixtures import fixture_names, load_fixture
from polyqec.instantiate import (
    BinaryMatrix,
    CodeInstance,
    classical_parity_matrix,
    instantiate,
    tanner_component_count,
    write_coordinate_text,
    write_matrix_market,
)
from polyqec.lattice import GroupPresentation, InfiniteQuotientError, quotient
from polyqec.poly import LaurentPoly, VarContext, parse_poly

from _helpers import torus


def _dense_rref(dense, ncols):
    """Naive list-of-lists Gauss-Jordan elimination, independent of bit packing.

    Bit j of a packed row is column j and a packed pivot is a row's top bit,
    so columns are scanned from ncols - 1 down to 0.  Returns the reduced
    rows keyed by pivot column.
    """
    mat = [row[:] for row in dense]
    pivots = {}
    for c in reversed(range(ncols)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[r])]
        pivots[c] = r
    return {c: mat[r] for c, r in pivots.items()}


def _dense_nullspace(rref, ncols):
    """Kernel basis from a reduced form: one vector per free column, ascending."""
    basis = []
    for j in range(ncols):
        if j in rref:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for c, row in rref.items():
            vec[c] = row[j]
        basis.append(vec)
    return basis


def _pack(dense_row):
    return sum(1 << j for j, e in enumerate(dense_row) if e)


def _from_dense(dense):
    """A matrix from lists of 0/1 entries, entry j of a row at bit j."""
    return BinaryMatrix([_pack(row) for row in dense], len(dense[0]) if dense else 0)


def _to_dense(m):
    return [[(r >> j) & 1 for j in range(m.ncols)] for r in m.rows]


def _rref_cases():
    """Seeded tall, wide, rank-deficient, zero-row, duplicate-row and empty matrices."""
    rng = random.Random(4242)
    cases = [BinaryMatrix([], 0), BinaryMatrix([0, 0], 0), BinaryMatrix([], 5)]
    for _ in range(40):
        cols = rng.randint(1, 7)
        cases.append(BinaryMatrix([rng.getrandbits(cols) for _ in range(cols + 5)], cols))
        cols = rng.randint(6, 14)
        cases.append(BinaryMatrix([rng.getrandbits(cols) for _ in range(cols // 3)], cols))
        cols = rng.randint(4, 12)
        base = [rng.getrandbits(cols) for _ in range(rng.randint(1, 3))]
        rows = []
        for _ in range(rng.randint(3, 9)):
            combo = 0
            for b in base:
                if rng.random() < 0.5:
                    combo ^= b
            rows.append(combo)
        cases.append(BinaryMatrix(rows, cols))
        rows = [rng.getrandbits(cols) for _ in range(rng.randint(2, 6))]
        rows += [0, rows[0], 0, rows[-1]]
        rng.shuffle(rows)
        cases.append(BinaryMatrix(rows, cols))
    return cases


# -- BinaryMatrix ----------------------------------------------------------


def test_dense_roundtrip_and_shape():
    m = _from_dense([[1, 0, 1], [0, 1, 1]])
    assert m.shape == (2, 3)
    assert _to_dense(m) == [[1, 0, 1], [0, 1, 1]]
    assert _from_dense(_to_dense(m)) == m


def test_row_width_validation():
    with pytest.raises(ValueError):
        BinaryMatrix([0b100], ncols=2)
    with pytest.raises(ValueError, match="^ncols must be nonnegative$"):
        BinaryMatrix([], ncols=-1)


def test_identity_and_zeros():
    eye = BinaryMatrix([1 << i for i in range(4)], 4)
    assert eye.rank() == 4
    assert BinaryMatrix([0] * 3, 5).is_zero()
    assert not eye.is_zero()


def test_rank_against_dense_oracle():
    rng = random.Random(8123)
    for _ in range(100):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        m = _from_dense(dense)
        assert m.rank() == len(_dense_rref(dense, cols))


def test_pivots_equal_dense_rref():
    for m in _rref_cases():
        piv = m._pivots()
        expected = _dense_rref(_to_dense(m), m.ncols)
        assert piv == {c: _pack(row) for c, row in expected.items()}
        for c, r in piv.items():
            assert r.bit_length() - 1 == c
            assert all(not (r >> other) & 1 for other in piv if other != c)


def test_nullspace_equals_dense_rref_basis():
    for m in _rref_cases():
        expected = _dense_nullspace(_dense_rref(_to_dense(m), m.ncols), m.ncols)
        basis = m.nullspace()
        assert basis == [_pack(v) for v in expected]
        basis.append(1)  # each call hands out a fresh list
        assert m.nullspace() == [_pack(v) for v in expected]


def test_rank_runs_no_back_substitution():
    for m in _rref_cases():  # fresh matrices, nothing cached yet
        assert m.rank() == len(_dense_rref(_to_dense(m), m.ncols))
        assert m._piv is None
        assert m._ech is not None
        m.residue(0)
        assert m._piv is not None
        assert m._ech is None  # the echelon is released once the RREF exists
        assert m.rank() == len(m._piv)


@pytest.mark.parametrize(
    "order", list(itertools.permutations(("rank", "rref", "nullspace")))
)
def test_rank_rref_nullspace_agree_in_any_call_order(order):
    for m in _rref_cases():
        expected = _dense_rref(_to_dense(m), m.ncols)
        answers = {
            "rank": (m.rank, len(expected)),
            "rref": (m._pivots, {c: _pack(row) for c, row in expected.items()}),
            "nullspace": (
                m.nullspace,
                [_pack(v) for v in _dense_nullspace(expected, m.ncols)],
            ),
        }
        for name in order:
            call, want = answers[name]
            assert call() == want


def test_nullspace_spans_kernel():
    rng = random.Random(55)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        m = BinaryMatrix([rng.getrandbits(cols) for _ in range(rows)], cols)
        basis = m.nullspace()
        assert len(basis) == cols - m.rank()
        for x in basis:
            assert m.times_vector(x) == 0
        # random combinations stay in the kernel
        for _ in range(5):
            combo = 0
            for x in basis:
                if rng.random() < 0.5:
                    combo ^= x
            assert m.times_vector(combo) == 0


def test_residue_and_rowspace_membership():
    rng = random.Random(99)
    for _ in range(40):
        cols = rng.randint(2, 9)
        m = BinaryMatrix([rng.getrandbits(cols) for _ in range(rng.randint(1, 6))], cols)
        combo = 0
        for r in m.rows:
            if rng.random() < 0.5:
                combo ^= r
        assert m.rowspace_contains(combo)
        assert m.residue(combo) == 0
        outside = next((1 << j for j in range(cols) if not m.rowspace_contains(1 << j)), None)
        if outside is not None:
            assert m.residue(combo ^ outside) != 0


def test_transpose_involution_and_product():
    rng = random.Random(3)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = BinaryMatrix([rng.getrandbits(c) for _ in range(r)], c)
        assert m.transpose().transpose() == m
    a = _from_dense([[1, 1, 0], [0, 1, 1]])
    b = _from_dense([[1, 0], [1, 1], [0, 1]])
    assert _to_dense(a @ b) == [[0, 1], [1, 0]]
    assert (a @ BinaryMatrix([1, 2, 4], 3)) == a
    with pytest.raises(ValueError):
        a @ a


def _bitwalk_transpose(m):
    """Reference: the per-bit transpose (each set bit of row i goes to its column)."""
    cols = [0] * m.ncols
    for i, r in enumerate(m.rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return BinaryMatrix(cols, m.nrows)


def _bitwalk_nullspace(m):
    """Reference: the per-bit kernel walk over the non-pivot bits of the RREF."""
    piv = m._pivots()
    pivot_cols = [0] * m.ncols
    for c, r in piv.items():
        rest = r ^ (1 << c)
        while rest:
            j = rest.bit_length() - 1
            pivot_cols[j] |= 1 << c
            rest ^= 1 << j
    return [pivot_cols[j] | (1 << j) for j in range(m.ncols) if j not in piv]


def _block_edge_cases():
    """Seeded matrices on both sides of the 256-row block edge: random,
    all-zero, identity-like and rank-deficient, plus the degenerate shapes."""
    rng = random.Random(2026)
    cases = [BinaryMatrix([], 0), BinaryMatrix([], 5), BinaryMatrix([0] * 5, 0),
             BinaryMatrix([1], 1), BinaryMatrix([0], 1)]
    for nrows in (255, 256, 257):
        for ncols in (1, 7, 8, 9, 300, 513):
            base = [rng.getrandbits(ncols) for _ in range(max(1, ncols // 3))]
            deficient = []
            for _ in range(nrows):
                combo = 0
                for b in base:
                    if rng.random() < 0.5:
                        combo ^= b
                deficient.append(combo)
            cases += [
                BinaryMatrix([rng.getrandbits(ncols) for _ in range(nrows)], ncols),
                BinaryMatrix([0] * nrows, ncols),
                BinaryMatrix([1 << (i % ncols) for i in range(nrows)], ncols),
                BinaryMatrix(deficient, ncols),
            ]
    for n in (255, 256, 257):
        cases.append(BinaryMatrix([1 << i for i in range(n)], n))
    return cases


def test_column_reader_matches_bit_walks_across_the_block_edge():
    assert instantiate_mod._COLUMN_BLOCK == 256
    for m in _block_edge_cases():
        t = m.transpose()
        assert t == _bitwalk_transpose(m), m
        assert t.shape == (m.ncols, m.nrows)
        assert t.transpose() == m
        assert m.nullspace() == _bitwalk_nullspace(m), m


def test_column_reader_reads_any_wanted_columns():
    rng = random.Random(77)
    for nrows, ncols in ((1, 1), (255, 9), (257, 300), (513, 8), (600, 513)):
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        full = _bitwalk_transpose(BinaryMatrix(rows, ncols)).rows
        wanted = rng.sample(range(ncols), min(ncols, 40))
        assert instantiate_mod._columns(rows, ncols, wanted) == [full[j] for j in wanted]
        assert instantiate_mod._columns(rows, ncols, []) == []


def test_kernel_basis_properties_across_the_block_edge():
    for m in _block_edge_cases():
        basis = m.nullspace()
        piv = m._pivots()
        free = [j for j in range(m.ncols) if j not in piv]
        free_mask = sum(1 << j for j in free)
        assert len(basis) == m.ncols - m.rank() == len(free)
        for v, j in zip(basis, free):  # ascending free columns, each its own
            assert v & free_mask == 1 << j
            assert m.times_vector(v) == 0


def test_times_vector_matches_matmul():
    rng = random.Random(12)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        m = BinaryMatrix([rng.getrandbits(c) for _ in range(r)], c)
        v = rng.getrandbits(c)
        col = BinaryMatrix([(v >> j) & 1 for j in range(c)], 1)
        stacked = m @ col
        expect = sum(1 << i for i, row in enumerate(stacked.rows) if row)
        assert m.times_vector(v) == expect


def test_submodule_is_not_shadowed_by_a_package_name():
    import polyqec.instantiate as m

    assert m.BinaryMatrix is BinaryMatrix
    assert m.instantiate is instantiate


def test_parity_dot():
    # the GF(2) inner product is one row of ``times_vector``
    for a, b, dot in ((0b1011, 0b1110, 0), (0b1011, 0b0110, 1)):
        assert (a & b).bit_count() & 1 == dot
        assert BinaryMatrix([a], 4).times_vector(b) == dot


# -- instantiation --------------------------------------------------------


def test_surface_code_parameters_small_tori():
    code = two_block("x y", "1 + x", "1 + y")
    for L in (2, 3, 4):
        inst = instantiate(code, torus(code.context, L, L))
        assert inst.n == 2 * L * L
        assert inst.k() == 2
        assert tanner_component_count(inst) == 1
        assert (inst.hx @ inst.hz.transpose()).is_zero()


def test_bivariate_bicycle_144_12():
    code = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    inst = instantiate(code, torus(code.context, 12, 6))
    assert inst.n == 144
    assert inst.hx.rank() == 66
    assert inst.hz.rank() == 66
    assert inst.k() == 12
    assert tanner_component_count(inst) == 1


def _groebner_k(code, group):
    """Second derivation of k without GF(2) elimination: k = 2 dim R/(f, g)
    for R = F2[G] (Bravyi et al., arXiv:2308.07915, Lemma 1).  G is a product
    of cyclic groups of orders r_i, so R = F2[u]/(u_i^{r_i} - 1) with each
    monomial sent to u^coords, and dim R/(f, g) is the number of standard
    monomials of a Gröbner basis of (f, g, u_i^{r_i} - 1)."""
    import sympy

    radices = group._radices
    gens = sympy.symbols(f"u0:{len(radices)}")

    def expr(poly):
        return sum(
            (sympy.prod(u**c for u, c in zip(gens, group.coords(t)))
             for t in poly.sorted_terms()),
            sympy.Integer(0),
        )

    ideal = [expr(code.f), expr(code.g)] + [u**r - 1 for u, r in zip(gens, radices)]
    basis = sympy.groebner(ideal, *gens, modulus=2, order="grevlex")
    leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    return 2 * sum(
        not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
        for m in itertools.product(*map(range, radices))
    )


def test_k_matches_the_groebner_count_on_plain_tori():
    cases = []
    for name in fixture_names():
        spec = load_fixture(name)
        if not spec.is_classical:
            dim = spec.context.dim
            cases += [(spec.two_block(), s) for s in ((3,) * dim, (4,) * dim, (2, 3, 4)[:dim])]
    # the published bivariate-bicycle codes bb72 ... bb784 on x^l = y^m = 1
    for f, g, l, m in (
        ("x^3 + y + y^2", "y^3 + x + x^2", 6, 6),
        ("x^9 + y + y^2", "1 + x^2 + x^7", 15, 3),
        ("x^3 + y + y^2", "y^3 + x + x^2", 9, 6),
        ("x^3 + y + y^2", "y^3 + x + x^2", 12, 6),
        ("x^3 + y^2 + y^7", "y^3 + x + x^2", 12, 12),
        ("x^3 + y^10 + y^17", "y^5 + x^3 + x^19", 21, 18),
        ("x^26 + y^6 + y^8", "y^7 + x^9 + x^20", 28, 14),
    ):
        cases.append((two_block("x y", f, g), (l, m)))
    assert len(cases) >= 40
    for code, sides in cases:
        inst = instantiate(code, torus(code.context, *sides))
        assert inst.k() == _groebner_k(code, inst.group), (code, sides)


def test_k_matches_the_groebner_count_on_twisted_tori():
    gross = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    cases = [(gross, ((6, -3), (0, 6)))]  # x^6 = y^3, y^6 = 1
    # seeded bivariate-bicycle-form codes on x^l = y^s, y^m = 1
    rng = random.Random(2027)
    while len(cases) < 60:
        l, m = rng.randint(2, 9), rng.randint(2, 9)
        a, b, c, d, e, f = (rng.randint(0, 9) for _ in range(6))
        code = two_block("x y", f"x^{a} + y^{b} + y^{c}", f"y^{d} + x^{e} + x^{f}")
        if not (code.f.is_zero or code.g.is_zero):
            cases.append((code, ((l, -rng.randint(1, m - 1)), (0, m))))
    ks = set()
    for code, rels in cases:
        inst = instantiate(code, GroupPresentation(code.context, rels))
        ks.add(inst.k())
        assert inst.k() == _groebner_k(code, inst.group), (code, rels)
    assert 0 in ks and len(ks) >= 3


def test_instantiation_matches_direct_modular_construction():
    rng = random.Random(2718)
    for _ in range(10):
        L1, L2 = rng.randint(2, 4), rng.randint(2, 4)
        ctx = VarContext(("x", "y"))
        fterms = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))}
        gterms = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))}
        from polyqec.codes import TwoBlockCode
        from polyqec.poly import LaurentPoly

        code = TwoBlockCode(ctx, LaurentPoly(ctx, frozenset(fterms)), LaurentPoly(ctx, frozenset(gterms)))
        inst = instantiate(code, torus(ctx, L1, L2))
        N = L1 * L2
        expect_x = [[0] * (2 * N) for _ in range(N)]
        for i in range(L1):
            for j in range(L2):
                h = i * L2 + j
                for (e1, e2) in fterms:
                    col = ((i + e1) % L1) * L2 + (j + e2) % L2
                    expect_x[h][col] ^= 1
                for (e1, e2) in gterms:
                    col = N + ((i + e1) % L1) * L2 + (j + e2) % L2
                    expect_x[h][col] ^= 1
        assert _to_dense(inst.hx) == expect_x
        expect_z = [[0] * (2 * N) for _ in range(N)]
        for i in range(L1):
            for j in range(L2):
                h = i * L2 + j
                for (e1, e2) in gterms:
                    col = ((i - e1) % L1) * L2 + (j - e2) % L2
                    expect_z[h][col] ^= 1
                for (e1, e2) in fterms:
                    col = N + ((i - e1) % L1) * L2 + (j - e2) % L2
                    expect_z[h][col] ^= 1
        assert _to_dense(inst.hz) == expect_z


def _translation_table_rows(group, blocks):
    """Per-monomial construction: row h gets bit (h * m) + b|G| for every
    monomial m of blocks[b], read from ``group.translation(m)``: the oracle."""
    order = group.order
    rows = [0] * order
    for b, poly in enumerate(blocks):
        for m in poly.sorted_terms():
            table = group.translation(m)
            for h in range(order):
                rows[h] ^= 1 << (table[h] + b * order)
    return rows


def _builder_cases():
    """(generators, presentation) pairs: a classical generator polynomial or a
    two-block code."""
    for name in fixture_names():
        spec = load_fixture(name)
        gen = spec.classical_generator() if spec.is_classical else spec.two_block()
        yield gen, spec.presentation()
    xy = VarContext(("x", "y"))
    gross = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    plain_and_twisted = [
        (two_block("x", "1 + x + x^-3", "x^2 + x^5"), ((7,),)),
        (gross, ((6, 0), (0, 4))),
        (gross, ((6, -2), (0, 4))),  # x^6 = y^2
        (gross, ((3, 0), (1, 5))),  # y^5 = x^-1
        (two_block("x y z", "1 + x + y*z^-1", "z + x^2*y"), ((2, 0, 0), (0, 3, 0), (0, 0, 4))),
        (two_block("x y z", "1 + x + y*z^-1", "z + x^2*y"), ((3, -1, 0), (0, 2, -1), (0, 0, 4))),
        (two_block("x y z", "1 + x + y + z", "1 + x*y + x*z + y*z"), ((1, 1, 4), (0, 3, 0), (0, 0, 2))),
        # radix-1 factors, and the trivial group
        (gross, ((2, 0), (0, 1))),
        (gross, ((1, 0), (0, 3))),
        (gross, ((1, 0), (0, 1))),
        # x and x^3 meet on x^2 = 1 and cancel; y^2 and y^-1 on y^3 = 1
        (two_block("x y", "x + x^3 + y", "y^2 + y^-1 + x*y"), ((2, 0), (0, 3))),
        (two_block("x y", "x + x^3", "y^2 + y^-1"), ((2, 0), (0, 3))),
        (gross, ((48, 0), (0, 48))),  # |G| = 2304
    ]
    for code, rels in plain_and_twisted:
        yield code, GroupPresentation(code.context, rels)
    yield parse_poly("1 + x + y"), torus(xy, 5, 3)
    rng = random.Random(1303)
    ctx = VarContext(("w", "x", "y", "z"))
    for _ in range(12):
        code = TwoBlockCode(ctx, _random_poly(rng, ctx, 3), _random_poly(rng, ctx, 3))
        if code.f.is_zero or code.g.is_zero:
            continue
        yield code, _random_boundary(rng, ctx)


def test_translate_builder_matches_translation_tables():
    seen = set()
    for gen, pres in _builder_cases():
        group = quotient(pres)
        seen.add(group.order)
        if isinstance(gen, LaurentPoly):
            polys = (gen,)
        else:
            inst = instantiate(gen, pres)
            f, g = gen.f, gen.g
            assert list(inst.hx.rows) == _translation_table_rows(group, (f, g)), (gen, pres)
            assert list(inst.hz.rows) == _translation_table_rows(
                group, (g.antipode(), f.antipode())
            ), (gen, pres)
            polys = (f, g)
        for poly in polys:
            assert list(classical_parity_matrix(poly, pres).rows) == _translation_table_rows(
                group, (poly,)
            ), (poly, pres)
    assert {1, 2, 3, 2304} <= seen


def _oddly_meeting_instance(inst, count=1):
    """``inst`` with one bit of X check 0 added to ``count`` Z checks, the
    lowest and the highest offsets that are not products of monomials of f
    and g, chosen so that no X check at a candidate offset of a changed Z
    check holds that bit; returns the changed offsets and the instance."""
    group, code = inst.group, inst.code
    candidates = {
        group.reduce(tuple(a + b for a, b in zip(m, n)))
        for m in code.f.terms
        for n in code.g.terms
    }
    bit = inst.hx.rows[0] & -inst.hx.rows[0]

    def minus(a, b):
        return group._index(x - y for x, y in zip(group.index_coords(a), group.index_coords(b)))

    offsets = [
        h
        for h in range(group.order)
        if h not in candidates
        and not any(inst.hx.rows[minus(h, c)] & bit for c in candidates)
    ]
    assert len(offsets) >= count, "no such offsets"
    changed = sorted({offsets[0], offsets[-1]})[:count]
    rows = list(inst.hz.rows)
    for h in changed:
        rows[h] ^= bit
    hz = BinaryMatrix(rows, inst.hz.ncols)
    return changed, CodeInstance(inst.code, group, inst.hx, hz)


def test_verify_commutation_reads_a_full_row():
    verify = instantiate_mod._verify_commutation
    code = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    inst = instantiate(code, torus(code.context, 12, 6), check=False)
    verify(inst)
    for count in (1, 2):
        changed, broken = _oddly_meeting_instance(inst, count)
        assert len(changed) == count
        # the lowest odd Z check is named
        message = (
            f"^X check 0 and Z check {changed[0]} overlap oddly; instantiation is inconsistent$"
        )
        with pytest.raises(CodeError, match=message):
            verify(broken)
    for _, _, intact in _random_instances(909, 40):
        verify(intact)


def test_random_instances_commute():
    rng = random.Random(424242)
    from polyqec.codes import TwoBlockCode
    from polyqec.poly import LaurentPoly

    for _ in range(15):
        dim = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:dim]))
        f = LaurentPoly(
            ctx,
            frozenset(
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 4))
            ),
        )
        g = LaurentPoly(
            ctx,
            frozenset(
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 4))
            ),
        )
        if f.is_zero or g.is_zero:
            continue
        sizes = tuple(rng.randint(2, 4) for _ in range(dim))
        inst = instantiate(TwoBlockCode(ctx, f, g), torus(ctx, *sizes))
        assert (inst.hx @ inst.hz.transpose()).is_zero()


def test_monomial_collisions_cancel_mod_2():
    gen = parse_poly("1 + x + x^3")
    pres = torus(gen.context, 2)
    mat = classical_parity_matrix(gen, pres)
    # x and x^3 coincide on the 2-cycle and cancel, leaving the constant term
    assert _to_dense(mat) == [[1, 0], [0, 1]]


def test_decomposable_code_splits_on_even_torus():
    code = two_block("x y z", "1 + x^-1*y + x^-1*z", "1 + z^-1*y")
    even = instantiate(code, torus(code.context, 2, 2, 2))
    assert tanner_component_count(even) == 2
    odd = instantiate(code, torus(code.context, 3, 5, 7))
    assert tanner_component_count(odd) == 1


# -- Tanner components ----------------------------------------------------


def _union_find_components(inst):
    """Per-bit union-find over qubits, X checks and Z checks: the oracle."""
    order = inst.group.order
    n = inst.n
    total = n + 2 * order  # qubits, then X checks, then Z checks
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for offset, matrix in ((n, inst.hx), (n + order, inst.hz)):
        for i, row in enumerate(matrix.rows):
            while row:
                low = row & -row
                ra, rb = find(offset + i), find(low.bit_length() - 1)
                parent[ra] = rb
                row ^= low
    return len({find(v) for v in range(total)})


def _random_poly(rng, ctx, span):
    terms = {
        tuple(rng.randint(-span, span) for _ in range(ctx.dim))
        for _ in range(rng.randint(1, 4))
    }
    return LaurentPoly(ctx, frozenset(terms))


def _random_boundary(rng, ctx):
    """A plain torus, or a twisted one: x_i^{L_i} = x_{i+1}^{s_i}, last x^L = 1."""
    sizes = [rng.randint(1, 4) for _ in range(ctx.dim)]
    if rng.random() < 0.5:
        return torus(ctx, *sizes)
    rels = []
    for i, size in enumerate(sizes):
        rel = [0] * ctx.dim
        rel[i] = size
        if i + 1 < ctx.dim:
            rel[i + 1] = -rng.randint(0, 3)
        rels.append(tuple(rel))
    return GroupPresentation(ctx, tuple(rels))


def _random_instances(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ctx = VarContext(tuple("xyz"[: rng.choice((2, 3))]))
        code = TwoBlockCode(ctx, _random_poly(rng, ctx, 3), _random_poly(rng, ctx, 3))
        pres = _random_boundary(rng, ctx)
        yield code, pres, instantiate(code, pres)


def test_tanner_components_match_union_find():
    cancelled = {0: 0, 1: 0, 2: 0}  # generators cancelled on G -> instances
    for code, pres, inst in _random_instances(5150, 400):
        row = inst.hx.rows[0]
        order = inst.group.order
        cancelled[(row & ((1 << order) - 1) == 0) + (row >> order == 0)] += 1
        assert tanner_component_count(inst) == _union_find_components(inst), (code, pres)
    # every regime is exercised: no, one and both generators cancelled
    assert min(cancelled.values()) > 0, cancelled


def test_tanner_components_worked_cases():
    ctx = VarContext(("x", "y"))
    pres = GroupPresentation(ctx, ((2, 0), (0, 3)))
    trivial = torus(ctx, 1, 1)
    f = "x + x^3"  # x and x^3 meet on x^2 = 1 and cancel
    cases = [
        # <B - B> = <xy> is all of G: index 1, doubled because f is gone
        (f, "1 + x*y", pres, 2),
        # <B - B> = <y> has index 2, doubled
        (f, "1 + y", pres, 4),
        # <B - B> = <x> has index 3, doubled
        (f, "1 + x", pres, 6),
        # y and y^4 cancel on y^3 = 1 as well: 4|G| isolated nodes
        (f, "y + y^4", pres, 24),
        # the trivial group: no coordinates at all
        ("1 + x + y", "y", trivial, 1),
        ("1 + x + y", "1 + y", trivial, 2),
        ("1 + x", "1 + y", trivial, 4),
    ]
    for fs, gs, p, expected in cases:
        inst = instantiate(TwoBlockCode(ctx, parse_poly(fs, ctx), parse_poly(gs, ctx)), p)
        assert tanner_component_count(inst) == expected, (fs, gs)
        assert _union_find_components(inst) == expected, (fs, gs)


def test_tanner_components_agree_with_indecomposability():
    seen = {True: 0, False: 0}
    for code, pres, inst in _random_instances(6021, 300):
        group = inst.group
        if any(
            len({group.reduce(t) for t in poly.terms}) < len(poly.terms)
            for poly in (code.f, code.g)
        ):
            continue  # a collision: the effective supports differ from the symbols
        connected = tanner_component_count(inst) == 1
        assert connected == is_indecomposable_finite(code, pres), (code, pres)
        seen[connected] += 1
    assert min(seen.values()) > 0, seen


def test_classical_triangle_generator_kernels():
    gen = parse_poly("1 + x + y")
    m3 = classical_parity_matrix(gen, torus(gen.context, 3, 3))
    assert m3.rank() == 7
    assert len(m3.nullspace()) == 2
    for L in (2, 4):
        m = classical_parity_matrix(gen, torus(gen.context, L, L))
        assert len(m.nullspace()) == 0


def test_instantiate_rejects_bad_inputs():
    code = two_block("x y", "1 + x", "1 + y")
    with pytest.raises(CodeError, match="context"):
        instantiate(code, torus(VarContext(("x",)), 4))
    with pytest.raises(InfiniteQuotientError):
        instantiate(code, GroupPresentation(code.context, ((2, 0),)))
    bad = two_block("x y", "x + x", "1 + y")
    with pytest.raises(CodeError, match="zero generator"):
        instantiate(bad, torus(code.context, 2, 2))
    # a classical generator is refused in the same words and order
    gen = parse_poly("1 + x + y")
    with pytest.raises(CodeError, match="^presentation context differs from the code context$"):
        classical_parity_matrix(gen, torus(VarContext(("x",)), 4))
    zero = parse_poly("x + x", gen.context)
    with pytest.raises(CodeError, match="^cannot instantiate a code with a zero generator$"):
        classical_parity_matrix(zero, torus(gen.context, 2, 2))
    # the quotient is checked before the zero generator
    with pytest.raises(InfiniteQuotientError):
        classical_parity_matrix(zero, GroupPresentation(gen.context, ((2, 0),)))


def test_group_order_cap(monkeypatch):
    code = two_block("x y", "1 + x", "1 + y")
    gen = parse_poly("1 + x + y")
    monkeypatch.setattr(instantiate_mod, "GROUP_ORDER_CAP", 9)
    assert instantiate(code, torus(code.context, 3, 3)).group.order == 9
    assert classical_parity_matrix(gen, torus(gen.context, 3, 3)).ncols == 9
    with pytest.raises(CodeError, match="group order 12 exceeds the instantiation cap 9"):
        instantiate(code, torus(code.context, 3, 4))
    with pytest.raises(CodeError, match="group order 12 exceeds the instantiation cap 9"):
        classical_parity_matrix(gen, torus(gen.context, 4, 3))
    with pytest.raises(CodeError, match="group order 12 "):
        instantiate(code, torus(code.context, 3, 4), check=False)


# -- exports ---------------------------------------------------------------


def test_write_coordinate_text():
    m = _from_dense([[1, 0, 1], [0, 0, 0], [0, 1, 0]])
    buf = io.StringIO()
    write_coordinate_text(m, buf)
    assert buf.getvalue().splitlines() == ["3 3", "0 0", "0 2", "2 1"]


def test_write_matrix_market():
    m = _from_dense([[1, 0], [1, 1]])
    buf = io.StringIO()
    write_matrix_market(m, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("%%MatrixMarket")
    assert lines[1] == "2 2 3"
    assert lines[2:] == ["1 1 1", "2 1 1", "2 2 1"]


def test_write_to_path(tmp_path):
    m = _from_dense([[1, 1]])
    p = tmp_path / "m.txt"
    with open(p, "w", encoding="utf-8") as fh:
        write_coordinate_text(m, fh)
    assert p.read_text().splitlines() == ["1 2", "0 0", "0 1"]
