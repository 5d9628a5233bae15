import random
import re
import tracemalloc
from itertools import product

import pytest

import polyqec.lattice as lattice_mod
from polyqec.lattice import (
    GroupPresentation,
    InfiniteQuotientError,
    hermite_basis,
    quotient,
    quotient_shape,
    smith_normal_form,
)
from polyqec.poly import VarContext

XY = VarContext(("x", "y"))
XYZ = VarContext(("x", "y", "z"))


def rand_matrix(rng, rows, cols, span=6):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def check_snf(M, c, V, diag):
    """M V spans the lattice of the diagonal, which is nonnegative with
    divisibility and padded to the c columns; V is unimodular."""
    from sympy import Matrix

    r = len(M)
    MV = mat_mul([list(row) for row in M], [list(row) for row in V])
    D = [[diag[i] if i == j else 0 for j in range(c)] for i in range(len(diag))]
    assert hermite_basis(MV, c) == hermite_basis(D, c)
    assert all(s >= 0 for s in diag)
    nz = [s for s in diag if s]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert len(diag) == c
    assert not any(diag[min(r, c):])
    # nonzero entries must precede zeros
    if 0 in diag:
        assert all(s == 0 for s in diag[diag.index(0):])
    assert abs(Matrix(V).det()) == 1


# -- Smith normal form -----------------------------------------------------


def test_snf_examples():
    _, diag = smith_normal_form([[12, 0], [0, 6]], 2)
    assert diag == (6, 12)
    _, diag = smith_normal_form([[3, -1], [0, 3]], 2)
    assert diag == (1, 9)
    _, diag = smith_normal_form([[-1, 1, 0], [-1, 0, 1], [0, 1, -1]], 3)
    assert diag == (1, 1, 0)


def test_snf_zero_and_identity():
    _, diag = smith_normal_form([[0, 0], [0, 0]], 2)
    assert diag == (0, 0)
    _, diag = smith_normal_form([[1, 0], [0, 1]], 2)
    assert diag == (1, 1)


def test_snf_rectangular():
    _, diag = smith_normal_form([[2], [4], [6]], 1)
    assert diag == (2,)


def test_snf_diagonal_is_padded_to_the_column_count():
    # the invariant factors of Z^c / <rows>, then a 0 per free direction
    V, diag = smith_normal_form([[2, 4, 6]], 3)
    assert diag == (2, 0, 0)
    check_snf([[2, 4, 6]], 3, V, diag)
    for c in range(4):
        V, diag = smith_normal_form([], c)
        assert diag == (0,) * c
        assert V == [[int(i == j) for j in range(c)] for i in range(c)]
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_normal_form([[1, 2, 3]], 2)


def test_snf_random_invariants_and_sympy_oracle():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(101)
    for _ in range(150):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = rand_matrix(rng, r, c)
        V, diag = smith_normal_form(M, c)
        check_snf(M, c, V, diag)
        ours = [s for s in diag if s]
        ref = sympy_snf(Matrix(M))
        theirs = sorted(abs(ref[i, i]) for i in range(min(r, c)) if ref[i, i])
        assert sorted(ours) == theirs


def test_snf_large_entries_exact():
    M = [[10**20, 1], [0, 10**20]]
    V, diag = smith_normal_form(M, 2)
    check_snf(M, 2, V, diag)
    assert diag == (1, 10**40)


# -- Hermite basis ---------------------------------------------------------


def test_hermite_canonical_for_equal_lattices():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(1, 4)
        gens = rand_matrix(rng, rng.randint(1, 4), d, span=4)
        h1 = hermite_basis(gens, d)
        # rebuild generators: shuffle, add random integer combinations
        alt = [list(v) for v in gens]
        rng.shuffle(alt)
        if len(alt) >= 2:
            i, j = rng.sample(range(len(alt)), 2)
            q = rng.randint(-3, 3)
            alt[i] = [a + q * b for a, b in zip(alt[i], alt[j])]
        alt.append([0] * d)
        assert hermite_basis(alt, d) == h1


def _hermite_by_insertion(vectors, d):
    """Reference: insert each vector into the rows keyed by their lead column,
    swapping whenever a smaller remainder shows up, then make the pivots
    positive and reduce the entries above them."""
    by_lead = {}
    for vec in vectors:
        v = list(vec)
        while any(v):
            j = next(i for i, x in enumerate(v) if x)
            b = by_lead.get(j)
            if b is None:
                by_lead[j] = v
                break
            q = v[j] // b[j]
            v = [x - q * y for x, y in zip(v, b)]
            if v[j]:
                by_lead[j], v = v, by_lead[j]
    basis = [by_lead[j] if by_lead[j][j] > 0 else [-x for x in by_lead[j]]
             for j in sorted(by_lead)]
    for bi, b in enumerate(basis):
        lead = next(i for i, x in enumerate(b) if x)
        for bj in range(bi):
            q = basis[bj][lead] // b[lead]
            basis[bj] = [x - q * y for x, y in zip(basis[bj], b)]
    return tuple(tuple(b) for b in basis)


def test_hermite_matches_insertion_reference():
    rng = random.Random(13)
    for _ in range(400):
        d = rng.randint(1, 6)
        gens = rand_matrix(rng, rng.randint(0, 8), d, span=rng.choice((1, 3, 40)))
        if gens and rng.random() < 0.3:
            gens.append([2 * x for x in gens[0]])
        assert hermite_basis(gens, d) == _hermite_by_insertion(gens, d), gens


def test_hermite_membership_consistency():
    rng = random.Random(9)
    for _ in range(100):
        d = rng.randint(1, 3)
        gens = rand_matrix(rng, rng.randint(1, 3), d, span=3)
        basis = hermite_basis(gens, d)
        # every generator reduces to zero against the basis
        for g in gens:
            v = list(g)
            for b in basis:
                lead = next(i for i, x in enumerate(b) if x)
                if v[lead] % b[lead] == 0:
                    q = v[lead] // b[lead]
                    v = [x - q * y for x, y in zip(v, b)]
            assert not any(v)


def test_hermite_example_twist_lattice():
    # two bases of the same rank-2 lattice in Z^5 compare equal
    a = [(6, -3, -1, 0, 0), (2, -2, 0, 2, -1)]
    b = [(6, -3, -1, 0, 0), (8, -5, -1, 2, -1), (-2, 2, 0, -2, 1)]
    assert hermite_basis(a, 5) == hermite_basis(b, 5)
    assert hermite_basis(a, 5) != hermite_basis([a[0]], 5)


# -- saturation / membership ----------------------------------------------


def test_saturation_examples():
    # the vectors generate Z^d iff the quotient has no free part and no torsion
    assert quotient_shape([(1, 0), (0, 1)], 2) == (0, ())
    assert quotient_shape([(2, 1), (1, 1)], 2) == (0, ())
    assert quotient_shape([(2, 0), (0, 1)], 2) != (0, ())
    assert quotient_shape([(-1, 1, 0), (-1, 0, 1), (0, 1, -1)], 3) != (0, ())
    assert quotient_shape(
        [(-1, 1, 0), (-1, 0, 1), (0, 1, -1), (3, 0, 0), (0, 5, 0), (0, 0, 7)], 3
    ) == (0, ())


def test_quotient_shape_examples():
    assert quotient_shape([(-1, 1, 0), (-1, 0, 1), (0, 1, -1)], 3) == (1, ())
    assert quotient_shape([(2, 0), (0, 2)], 2) == (0, (2, 2))
    assert quotient_shape([(12, 0), (0, 6)], 2) == (0, (6, 12))
    assert quotient_shape([], 2) == (2, ())


def test_quotient_shape_builds_no_transform_larger_than_d():
    # the monomial vectors of a large generator number in the tens of
    # thousands, and quotient_shape hands them to the Smith form as they are;
    # a rows x rows transform of them would not fit in memory, so the Smith
    # form itself builds only the cols x cols V
    rng = random.Random(20)
    vectors = rand_matrix(rng, 300, 2, span=40)
    V, diag = smith_normal_form(vectors, 2)
    assert [len(row) for row in V] == [2, 2]
    expect = (diag.count(0), tuple(s for s in diag if s > 1))
    tracemalloc.start()
    try:
        rows_square = [[int(i == j) for j in range(300)] for i in range(300)]
        square_bytes = tracemalloc.get_traced_memory()[0]
        del rows_square
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert quotient_shape(vectors, 2) == expect
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < square_bytes / 4


# -- quotient groups -------------------------------------------------------


def brute_force_cosets(relations, d, box):
    """Oracle: enumerate Z^d points in a box, union cosets of the relation lattice."""
    pts = list(product(range(-box, box + 1), repeat=d))
    basis = hermite_basis(relations, d)
    seen = {}
    classes = 0
    for pt in pts:
        v = list(pt)
        for b in basis:
            lead = next((i for i, x in enumerate(b) if x), None)
            if lead is None:
                continue
            q = v[lead] // b[lead]
            v = [x - q * y for x, y in zip(v, b)]
        key = tuple(v)
        if key not in seen:
            seen[key] = classes
            classes += 1
    return classes


def test_quotient_order_examples():
    for relations, order, factors in [
        (((3, 0), (0, 3)), 9, (3, 3)),
        (((3, -1), (0, 3)), 9, (9,)),
        (((12, 0), (0, 6)), 72, (6, 12)),
    ]:
        g = quotient(GroupPresentation(XY, relations))
        assert g.order == order
        assert quotient_shape(relations, 2)[1] == factors


def test_infinite_quotient_is_refused():
    for ctx, rels, free in [
        (XY, ((2, 0),), 1),  # y is a free direction
        (XYZ, ((1, 1, 1), (2, 2, 2)), 2),
        (VarContext(("x", "y", "z", "w")), ((0, 0, 0, 5),), 3),
        (XYZ, (), 3),  # no relations at all
    ]:
        message = f"quotient of {ctx} is infinite (free rank {free})"
        with pytest.raises(InfiniteQuotientError, match=f"^{re.escape(message)}$"):
            quotient(GroupPresentation(ctx, rels))


def test_quotient_makes_one_smith_form(monkeypatch):
    calls = []
    snf = lattice_mod.smith_normal_form
    monkeypatch.setattr(
        lattice_mod, "smith_normal_form", lambda m, c: calls.append(1) or snf(m, c)
    )
    for rels, order, smith_forms in [
        (((12, -3), (0, 6)), 72, 1),  # twisted: x^12 = y^3, y^6 = 1
        (((12, 0), (0, 6)), 72, 0),  # plain 12 x 6 torus: coordinates are the exponents
        (((2, -2),), None, 1),  # infinite: x^2 = y^2
    ]:
        calls.clear()
        try:
            got = quotient(GroupPresentation(XY, rels)).order
        except InfiniteQuotientError:
            got = None
        assert len(calls) == smith_forms
        assert got == order


def _coordinate_sum(g, a, b):
    """Element index of a + b, summed coordinate by coordinate."""
    return g._index(map(sum, zip(g.index_coords(a), g.index_coords(b))))


def test_quotient_element_arithmetic():
    g = quotient(GroupPresentation(XY, ((4, 0), (0, 3))))
    assert g.order == 12
    ident = g.reduce((0, 0))
    for a in range(g.order):
        assert _coordinate_sum(g, a, ident) == a
        assert _coordinate_sum(g, a, g._index(-x for x in g.index_coords(a))) == ident
    # reduce is a homomorphism
    rng = random.Random(5)
    for _ in range(100):
        m1 = (rng.randint(-9, 9), rng.randint(-9, 9))
        m2 = (rng.randint(-9, 9), rng.randint(-9, 9))
        s = tuple(a + b for a, b in zip(m1, m2))
        assert g.reduce(s) == _coordinate_sum(g, g.reduce(m1), g.reduce(m2))


def test_quotient_product_torus_row_major():
    # plain tori index elements in row-major per-variable order
    g = quotient(GroupPresentation(XY, ((3, 0), (0, 4))))
    for i in range(3):
        for j in range(4):
            assert g.reduce((i, j)) == i * 4 + j
    assert g.reduce((3, 4)) == 0
    assert g.reduce((-1, -1)) == 2 * 4 + 3


def test_quotient_reduce_kills_relations():
    rng = random.Random(19)
    for _ in range(50):
        rels = tuple(
            tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(rng.randint(1, 3))
        )
        try:
            g = quotient(GroupPresentation(XY, rels))
        except InfiniteQuotientError:
            continue
        ident = g.reduce((0, 0))
        for rel in rels:
            assert g.reduce(rel) == ident
        # distinct element indices are exactly the cosets
        assert g.order == brute_force_cosets([list(r) for r in rels], 2, box=8) or g.order > (
            2 * 8 + 1
        ) ** 2


def test_quotient_coset_count_oracle():
    cases = [
        (((3, 0), (0, 3)), 9),
        (((3, -1), (0, 3)), 9),
        (((2, 2), (0, 4)), 8),
        (((1, 0), (0, 5)), 5),
    ]
    for rels, order in cases:
        g = quotient(GroupPresentation(XY, rels))
        assert g.order == order
        assert brute_force_cosets([list(r) for r in rels], 2, box=10) == order
        # reduce() partitions a box of points into exactly `order` classes
        labels = {g.reduce((i, j)) for i in range(-10, 11) for j in range(-10, 11)}
        assert labels == set(range(order))


def test_translation_is_permutation():
    g = quotient(GroupPresentation(XY, ((4, 0), (0, 4))))
    t = g.translation((1, 0))
    assert sorted(t) == list(range(g.order))
    t2 = g.translation((2, 0))
    assert [t[t[i]] for i in range(g.order)] == t2


@pytest.mark.parametrize(
    "ctx, rels",
    [
        (VarContext(("x",)), ((7,),)),
        (XY, ((3, 0), (0, 4))),
        (XYZ, ((2, 0, 0), (0, 3, 0), (0, 0, 4))),
        (XY, ((3, -1), (0, 6))),  # x^3 = y, y^6 = 1: the Smith normal form path
        (XY, ((2, -2), (0, 4))),  # x^2 = y^2, y^4 = 1: two Smith factors, 2 and 4
        (XY, ((1, 0), (0, 1))),  # trivial group
        (XY, ((1, 1), (0, 1))),  # trivial group on the Smith path: no radices
    ],
)
def test_translation_matches_elementwise_add(ctx, rels):
    g = quotient(GroupPresentation(ctx, rels))
    for mono in product(range(-3, 4), repeat=ctx.dim):
        assert g.translation(mono) == [
            _coordinate_sum(g, h, g.reduce(mono)) for h in range(g.order)
        ]


def test_arity_and_range_refusals():
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_normal_form([[1, 2], [3]], 2)
    with pytest.raises(ValueError, match="^vector arity mismatch$"):
        hermite_basis([(1, 2)], 3)
    with pytest.raises(ValueError, match="^vector arity mismatch$"):
        quotient_shape([(1, 2, 3)], 2)
    ctx = VarContext(("x", "y"))
    with pytest.raises(ValueError, match="wrong arity"):
        GroupPresentation(ctx, ((3,),))
    g = quotient(GroupPresentation(ctx, ((3, 0), (0, 2))))
    with pytest.raises(ValueError, match="^monomial arity mismatch$"):
        g.coords((1, 0, 0))
    assert g.index_coords(5) == (2, 1)
    for index in (-1, 6):
        with pytest.raises(ValueError, match=f"^element index {index} out of range$"):
            g.index_coords(index)
