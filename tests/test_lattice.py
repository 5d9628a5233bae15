import random
from itertools import product

import pytest

from polyqec.lattice import (
    GroupPresentation,
    InfiniteQuotientError,
    hermite_basis,
    lattice_saturates,
    quotient,
    quotient_shape,
    smith_normal_form,
    solve_in_lattice,
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


def check_snf(M, snf):
    """U M V = S, S diagonal nonnegative with divisibility, U/V unimodular."""
    from sympy import Matrix

    r, c = len(M), len(M[0]) if M else 0
    UMV = mat_mul(mat_mul([list(row) for row in snf.U], [list(row) for row in M]),
                  [list(row) for row in snf.V])
    assert UMV == [list(row) for row in snf.S]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert snf.S[i][j] == 0
    diag = snf.diagonal
    assert all(s >= 0 for s in diag)
    nz = [s for s in diag if s]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert len(nz) + diag.count(0) == len(diag)
    # nonzero entries must precede zeros
    if 0 in diag:
        assert all(s == 0 for s in diag[diag.index(0):])
    assert abs(Matrix(snf.U).det()) == 1
    assert abs(Matrix(snf.V).det()) == 1


# -- Smith normal form -----------------------------------------------------


def test_snf_examples():
    snf = smith_normal_form([[12, 0], [0, 6]])
    assert snf.diagonal == (6, 12)
    snf = smith_normal_form([[3, -1], [0, 3]])
    assert snf.diagonal == (1, 9)
    snf = smith_normal_form([[-1, 1, 0], [-1, 0, 1], [0, 1, -1]])
    assert snf.diagonal == (1, 1, 0)


def test_snf_zero_and_identity():
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == (0, 0)
    snf = smith_normal_form([[1, 0], [0, 1]])
    assert snf.diagonal == (1, 1)


def test_snf_rectangular():
    snf = smith_normal_form([[2, 4, 6]])
    assert snf.diagonal == (2,)
    snf = smith_normal_form([[2], [4], [6]])
    assert snf.diagonal == (2,)


def test_snf_random_invariants_and_sympy_oracle():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(101)
    for _ in range(150):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = rand_matrix(rng, r, c)
        snf = smith_normal_form(M)
        check_snf(M, snf)
        ours = [s for s in snf.diagonal if s]
        ref = sympy_snf(Matrix(M))
        theirs = sorted(abs(ref[i, i]) for i in range(min(r, c)) if ref[i, i])
        assert sorted(ours) == theirs


def test_snf_large_entries_exact():
    M = [[10**20, 1], [0, 10**20]]
    snf = smith_normal_form(M)
    check_snf(M, snf)
    assert snf.diagonal == (1, 10**40)


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
    assert lattice_saturates([(1, 0), (0, 1)], 2)
    assert lattice_saturates([(2, 1), (1, 1)], 2)
    assert not lattice_saturates([(2, 0), (0, 1)], 2)
    assert not lattice_saturates([(-1, 1, 0), (-1, 0, 1), (0, 1, -1)], 3)
    assert lattice_saturates(
        [(-1, 1, 0), (-1, 0, 1), (0, 1, -1), (3, 0, 0), (0, 5, 0), (0, 0, 7)], 3
    )


def test_quotient_shape_examples():
    assert quotient_shape([(-1, 1, 0), (-1, 0, 1), (0, 1, -1)], 3) == (1, ())
    assert quotient_shape([(2, 0), (0, 2)], 2) == (0, (2, 2))
    assert quotient_shape([(12, 0), (0, 6)], 2) == (0, (6, 12))
    assert quotient_shape([], 2) == (2, ())


def test_solve_in_lattice():
    vectors = [(1, 1, 0), (2, 1, 0), (1, 0, 1)]
    for target in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (5, -3, 2)]:
        c = solve_in_lattice(vectors, target)
        assert c is not None
        got = [sum(ci * v[j] for ci, v in zip(c, vectors)) for j in range(3)]
        assert got == list(target)
    assert solve_in_lattice([(2, 0), (0, 2)], (1, 0)) is None
    assert solve_in_lattice([], (0, 0)) == []
    assert solve_in_lattice([], (1, 0)) is None


def test_solve_in_lattice_randomized():
    rng = random.Random(31)
    for _ in range(200):
        d = rng.randint(1, 3)
        vectors = rand_matrix(rng, rng.randint(1, 4), d, span=4)
        coeffs = [rng.randint(-3, 3) for _ in vectors]
        target = [sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(d)]
        c = solve_in_lattice(vectors, target)
        assert c is not None
        got = [sum(ci * v[j] for ci, v in zip(c, vectors)) for j in range(d)]
        assert got == target


def test_smith_form_solve_matches_solve_in_lattice():
    # membership oracle independent of the Smith form: t lies in the lattice
    # iff adding it leaves the Hermite basis unchanged
    rng = random.Random(47)
    solved = unsolvable = 0
    for _ in range(80):
        d = rng.randint(2, 4)
        rows = rand_matrix(rng, rng.choice((2, 3)), d, span=5)
        snf = smith_normal_form(rows)
        coeffs = [rng.randint(-3, 3) for _ in rows]
        targets = [tuple(int(k == ell) for k in range(d)) for ell in range(d)]
        targets += [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(2)]
        targets.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)))
        for t in targets:
            sol = snf.solve(t)
            assert sol == solve_in_lattice(rows, t)
            member = hermite_basis(rows + [t], d) == hermite_basis(rows, d)
            if sol is None:
                assert not member
                unsolvable += 1
            else:
                got = [sum(c * r[j] for c, r in zip(sol, rows)) for j in range(d)]
                assert got == list(t)
                solved += 1
    assert solved and unsolvable


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
    g = quotient(GroupPresentation(XY, ((3, 0), (0, 3))))
    assert g.is_finite and g.order == 9 and g.invariant_factors == (3, 3)
    g = quotient(GroupPresentation(XY, ((3, -1), (0, 3))))
    assert g.order == 9 and g.invariant_factors == (9,)
    g = quotient(GroupPresentation(XY, ((12, 0), (0, 6))))
    assert g.order == 72 and g.invariant_factors == (6, 12)


def test_quotient_infinite_first_class():
    g = quotient(GroupPresentation(XY, ((2, 0),)))
    assert not g.is_finite
    assert g.free_rank == 1
    with pytest.raises(InfiniteQuotientError):
        g.order
    with pytest.raises(InfiniteQuotientError):
        g.reduce((0, 0))
    g = quotient(GroupPresentation(XYZ, ()))
    assert g.free_rank == 3


def test_quotient_element_arithmetic():
    g = quotient(GroupPresentation(XY, ((4, 0), (0, 3))))
    assert g.order == 12
    ident = g.reduce((0, 0))
    for a in g.elements():
        assert g.add(a, ident) == a
        assert g.add(a, g.neg(a)) == ident
    # reduce is a homomorphism
    rng = random.Random(5)
    for _ in range(100):
        m1 = (rng.randint(-9, 9), rng.randint(-9, 9))
        m2 = (rng.randint(-9, 9), rng.randint(-9, 9))
        s = tuple(a + b for a, b in zip(m1, m2))
        assert g.reduce(s) == g.add(g.reduce(m1), g.reduce(m2))


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
        g = quotient(GroupPresentation(XY, rels))
        if not g.is_finite:
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
    assert sorted(t) == list(g.elements())
    t2 = g.translation((2, 0))
    assert [t[t[i]] for i in g.elements()] == t2


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
        assert g.translation(mono) == [g.add(h, g.reduce(mono)) for h in g.elements()]
