"""Acceptance gate: end-to-end checks of the package's headline behaviors.

Each test pins an externally meaningful outcome: the bundled family-tree
table re-derives, the worked lift example round-trips, decomposability and
parameters of reference codes come out right (cross-checked against
independent dense GF(2) oracles written here), randomized searches hit
their known values under fixed seeds, and everything stays inside its
time budget.
"""

import json
import random
import time

import pytest

from polyqec.barrier import (
    BarrierCapError,
    BarrierError,
    classical_code_barrier,
    code_barrier,
)
from polyqec.codes import (
    FamilyTag,
    HGPCode,
    TwoBlockCode,
    compactify,
    decomposition_profile,
    family_tree,
    is_indecomposable,
    is_indecomposable_finite,
    lift_to_parent,
    monomial_group_vectors,
    two_block,
)
from polyqec.cli import main
from polyqec.distance import (
    exact_distance,
    random_upper_bound,
    validate_logical_witness,
)
from polyqec.fixtures import load_fixture
from polyqec.instantiate import (
    BinaryMatrix,
    classical_parity_matrix,
    instantiate,
    tanner_component_count,
)
from polyqec.lattice import GroupPresentation, hermite_basis, quotient_shape
from polyqec.poly import LaurentPoly, VarContext, parse_poly

# ---------------------------------------------------------------------------
# dense GF(2) helpers: an oracle code path sharing nothing with BinaryMatrix
# ---------------------------------------------------------------------------


def _dense(matrix: BinaryMatrix) -> list[list[int]]:
    return [[(row >> j) & 1 for j in range(matrix.ncols)] for row in matrix.rows]


def _dense_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _dense_in_span(rref: list[list[int]], pivots: list[int], vec: list[int]) -> bool:
    v = vec[:]
    for row, c in zip(rref, pivots):
        if v[c]:
            v = [a ^ b for a, b in zip(v, row)]
    return not any(v)


def _dense_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    rref, pivots = _dense_rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(rref, pivots):
            if row[free]:
                v[c] = 1
        basis.append(v)
    return basis


def _dense_css_distance(inst) -> int:
    """Minimum logical weight over both sectors by explicit coset enumeration."""
    best = inst.n + 1
    for checks, stabilizers in ((inst.hz, inst.hx), (inst.hx, inst.hz)):
        kernel = _dense_nullspace(_dense(checks), checks.ncols)
        srref, spiv = _dense_rref(_dense(stabilizers))
        state = [0] * checks.ncols
        for i in range(1, 1 << len(kernel)):
            j = (i & -i).bit_length() - 1
            state = [a ^ b for a, b in zip(state, kernel[j])]
            if not _dense_in_span(srref, spiv, state):
                best = min(best, sum(state))
    return best


def _dense_component_count(*matrices: BinaryMatrix) -> int:
    """Connected components of the joint check/bit graph, by plain BFS."""
    ncols = matrices[0].ncols
    check_nodes = []
    for m_idx, m in enumerate(matrices):
        dense = _dense(m)
        for r_idx, row in enumerate(dense):
            check_nodes.append((m_idx, r_idx, [j for j, v in enumerate(row) if v]))
    adj: dict[object, list[object]] = {("bit", j): [] for j in range(ncols)}
    for m_idx, r_idx, support in check_nodes:
        node = ("check", m_idx, r_idx)
        adj[node] = []
        for j in support:
            adj[node].append(("bit", j))
            adj[("bit", j)].append(node)
    seen: set[object] = set()
    components = 0
    for start in adj:
        if start in seen:
            continue
        components += 1
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return components


def _torus(ctx_names: str, *lengths: int) -> GroupPresentation:
    ctx = VarContext(tuple(ctx_names.split()))
    rels = []
    for i, L in enumerate(lengths):
        v = [0] * ctx.dim
        v[i] = L
        rels.append(tuple(v))
    return GroupPresentation(ctx, tuple(rels))


# ---------------------------------------------------------------------------
# 1. the bundled family-tree table re-derives, quickly
# ---------------------------------------------------------------------------


def test_family_table_rederives_all_rows_under_one_second(capsys):
    t0 = time.perf_counter()
    code = main(["reproduce-appendix", "--no-cache", "--json"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["result"]["rows"]
    assert doc["result"]["all_pass"] is True
    assert [r["name"] for r in rows] == [
        "haah",
        "checkerboard",
        "hhb_a",
        "fibonacci_fsl",
        "gross",
        "honeycomb_color",
        "fsl_odd_odd",
        "sierpinski_prism",
        "fsl_odd_even",
    ]
    assert all(r["status"] == "PASS" for r in rows)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. worked lift example: substitutions, twists, and inversion
# ---------------------------------------------------------------------------


def test_worked_lift_round_trip():
    code = two_block("x y z", "1 + x*y + x^2*y + y^3", "1 + x*z + z^2")
    lift = lift_to_parent(code)
    assert lift.labels == ("a1", "a2", "a3", "b1", "b2")
    assert lift.substitution_text() == {
        "a1": "x*y",
        "a2": "x^2*y",
        "a3": "y^3",
        "b1": "x*z",
        "b2": "z^2",
    }
    # stated relations: a3 = (a1^2 * a2^-1)^3 and b2 = (a1 * a2^-1 * b1)^2,
    # compared through the canonical basis of the lattice they generate
    stated = [(6, -3, -1, 0, 0), (2, -2, 0, 2, -1)]
    assert lift.twist_basis == hermite_basis(stated, 5)
    rebuilt = compactify(
        lift.parent, lift.substitution, [t.vector for t in lift.twists]
    )
    assert rebuilt.normalized() == code.normalized()


# ---------------------------------------------------------------------------
# 3. decomposability verdicts with connectivity cross-checks
# ---------------------------------------------------------------------------


def test_decomposable_example_even_torus_splits_in_two():
    spec = load_fixture("decomposable_example")
    code = spec.two_block()
    free, torsion, index = decomposition_profile(code)
    assert (free, torsion, index) == (1, (), None)
    assert not is_indecomposable(code)
    # on the 2x2x2 torus the monomial lattice has index 2, and the
    # instantiated check graph splits into exactly two pieces
    pres = spec.presentation()
    vectors = [list(v) for v in monomial_group_vectors(code)] + [
        list(r) for r in pres.relations
    ]
    assert quotient_shape(vectors, 3) == (0, (2,))
    assert not is_indecomposable_finite(code, pres)
    inst = instantiate(code, pres)
    assert tanner_component_count(inst) == 2
    assert _dense_component_count(inst.hx, inst.hz) == 2


def test_decomposable_example_reconnects_on_coprime_odd_torus():
    spec = load_fixture("decomposable_example")
    code = spec.two_block()
    pres = _torus("x y z", 3, 5, 7)
    assert is_indecomposable_finite(code, pres)
    inst = instantiate(code, pres)
    assert tanner_component_count(inst) == 1
    assert _dense_component_count(inst.hx, inst.hz) == 1


# ---------------------------------------------------------------------------
# 4. surface-code family: parameters, exact distance, barrier
# ---------------------------------------------------------------------------


def test_surface_code_family_parameters_and_distance():
    t0 = time.perf_counter()
    code = two_block("x y", "1 + x", "1 + y")
    for L in (2, 3, 4):
        inst = instantiate(code, _torus("x y", L, L))
        assert inst.n == 2 * L * L
        assert inst.k() == 2
        # independent dense oracle for both the dimension and the distance
        dense_rank = len(_dense_rref(_dense(inst.hx))[0]) + len(
            _dense_rref(_dense(inst.hz))[0]
        )
        assert inst.n - dense_rank == 2
        res = exact_distance(inst, cap_n=32)
        assert res.d_upper == res.d_lower == L
        assert _dense_css_distance(inst) == L
        if L <= 3:
            bar = code_barrier(inst)
            assert bar.barrier == 2
        else:
            with pytest.raises(BarrierCapError):
                code_barrier(inst)
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 5. the [[144, 12]] bivariate-bicycle code and its seeded distance search
# ---------------------------------------------------------------------------


def test_gross_code_parameters_and_seeded_search():
    t0 = time.perf_counter()
    spec = load_fixture("gross")
    inst = instantiate(spec.two_block(), spec.presentation())
    assert inst.n == 144
    assert (inst.hx @ inst.hz.transpose()).is_zero()
    assert inst.k() == 12
    res = random_upper_bound(inst, 100_000, seed=1)
    assert res.d_upper == 12
    assert res.witness is not None
    assert res.witness.bit_count() == 12
    validate_logical_witness(inst, res.witness, res.witness_sector)
    assert res.trials == 100_000 and res.seed == 1
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 6. family membership and its preservation under compactification
# ---------------------------------------------------------------------------


def test_known_family_memberships():
    assert family_tree(load_fixture("haah").two_block()) == FamilyTag.of("even", "even")
    assert family_tree(load_fixture("gross").two_block()) == FamilyTag.of("odd", "odd")
    assert family_tree(load_fixture("sierpinski_prism").two_block()) == FamilyTag.of(
        "odd", "even"
    )


def test_compactification_never_changes_the_parity_pair():
    rng = random.Random(606)
    for _ in range(200):
        k1 = rng.randint(1, 5)
        k2 = rng.randint(1, 5)
        d_child = rng.randint(1, 3)
        names = tuple(f"p{i}" for i in range(k1)) + tuple(f"q{i}" for i in range(k2))
        pctx = VarContext(names)
        child_ctx = VarContext(tuple("xyz"[:d_child]))
        one = (0,) * (k1 + k2)

        def unit(i):
            return tuple(int(t == i) for t in range(k1 + k2))

        f = LaurentPoly(pctx, frozenset({one} | {unit(i) for i in range(k1)}))
        g = LaurentPoly(pctx, frozenset({one} | {unit(i) for i in range(k1, k1 + k2)}))
        parent = HGPCode(pctx, f, g, f_vars=names[:k1], g_vars=names[k1:])
        # random monomial images; colliding images cancel in child pairs,
        # moving each weight by an even amount
        substitution = {
            n: LaurentPoly.monomial(
                child_ctx, tuple(rng.randint(-2, 2) for _ in range(d_child))
            )
            for n in names
        }
        child = compactify(parent, substitution)
        assert family_tree(parent) == family_tree(child)


# ---------------------------------------------------------------------------
# 7. randomized invariant suites
# ---------------------------------------------------------------------------


def _random_poly(rng, ctx, max_terms=4) -> LaurentPoly:
    terms = {
        tuple(rng.randint(-2, 2) for _ in range(ctx.dim))
        for _ in range(rng.randint(1, max_terms))
    }
    return LaurentPoly(ctx, frozenset(terms))


def test_substitution_is_a_ring_homomorphism_1000x():
    t0 = time.perf_counter()
    rng = random.Random(707)
    src = VarContext(("x", "y"))
    dst = VarContext(("u", "v", "w"))
    for _ in range(1000):
        p = _random_poly(rng, src)
        q = _random_poly(rng, src)
        sub = {
            n: LaurentPoly.monomial(dst, tuple(rng.randint(-2, 2) for _ in range(3)))
            for n in src.names
        }
        assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert time.perf_counter() - t0 < 30.0


def test_instantiated_css_commutation_1000x():
    t0 = time.perf_counter()
    rng = random.Random(808)
    for _ in range(1000):
        d = rng.randint(1, 2)
        ctx_names = " ".join(list("xy")[:d])
        ctx = VarContext(tuple(ctx_names.split()))

        def rand_poly():
            terms = {
                tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(1, 3))
            }
            return LaurentPoly(ctx, frozenset(terms))

        code = TwoBlockCode(ctx, rand_poly(), rand_poly())
        lengths = tuple(rng.randint(2, 4) for _ in range(d))
        inst = instantiate(code, _torus(ctx_names, *lengths), check=False)
        assert (inst.hx @ inst.hz.transpose()).is_zero()
    assert time.perf_counter() - t0 < 30.0


def test_rank_identities_1000x():
    t0 = time.perf_counter()
    rng = random.Random(909)
    for _ in range(1000):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 12)
        mat = BinaryMatrix(
            [rng.getrandbits(ncols) for _ in range(nrows)], ncols
        )
        r = mat.rank()
        assert r == mat.transpose().rank()
        assert r + len(mat.nullspace()) == ncols
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 8. locality bound summary for the [[144, 12]] code
# ---------------------------------------------------------------------------


def test_gross_bound_report_numbers(capsys):
    code = main(["bounds", "gross", "--no-cache", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["result"]
    assert res["locality_dimension"] == 2
    assert res["n"] == 288
    assert abs(res["distance_upper_scaling"] - 288**0.5) < 1e-9
    assert abs(res["distance_upper_scaling"] - 16.9706) < 1e-3
    # the observed upper bound from the seeded search stays consistent
    assert 12 <= res["distance_upper_scaling"]


# ---------------------------------------------------------------------------
# 9. energy barriers: chain regression, triangular-plaquette regression,
#    and structural properties standing in for asymptotics
# ---------------------------------------------------------------------------


def test_chain_barrier_is_two_for_all_lengths_up_to_16():
    t0 = time.perf_counter()
    gen = parse_poly("1 + x")
    for L in range(2, 17):
        mat = classical_parity_matrix(gen, _torus("x", L))
        res = classical_code_barrier(mat)
        assert res.barrier == 2, f"L={L}"
    assert time.perf_counter() - t0 < 60.0


TRIANGULAR_BARRIERS = {2: None, 3: 4, 4: None}  # exact values; None: trivial kernel


def test_triangular_plaquette_barrier_regression():
    t0 = time.perf_counter()
    gen = parse_poly("1 + x + y")
    for L, expected in TRIANGULAR_BARRIERS.items():
        mat = classical_parity_matrix(gen, _torus("x y", L, L))
        if expected is None:
            assert not mat.nullspace()
            with pytest.raises(BarrierError):
                classical_code_barrier(mat)
        else:
            res = classical_code_barrier(mat, want_path=True)
            assert res.barrier == expected
            # path validity: replay the flips and confirm the peak energy
            state = 0
            peak = 0
            for bit in res.path:
                state ^= 1 << bit
                peak = max(peak, mat.times_vector(state).bit_count())
            assert state == res.target
            assert peak == res.barrier
    assert time.perf_counter() - t0 < 60.0


def test_barrier_cap_is_monotone():
    gen = parse_poly("1 + x")
    mat = classical_parity_matrix(gen, _torus("x", 12))
    assert (
        classical_code_barrier(mat, cap_n=20).barrier
        == classical_code_barrier(mat, cap_n=12).barrier
    )


def test_barrier_translation_invariance():
    spec = load_fixture("newman_moore")
    mat = classical_parity_matrix(spec.classical_generator(), spec.presentation())
    res = classical_code_barrier(mat)
    # translating the reached target by any group element leaves the exact
    # barrier unchanged
    from polyqec.lattice import quotient
    from polyqec.barrier import barrier as single_target_barrier

    group = quotient(spec.presentation())
    perm = group.translation((1, 2))
    translated = 0
    t = res.target
    while t:
        low = t & -t
        translated |= 1 << perm[low.bit_length() - 1]
        t ^= low
    assert single_target_barrier(mat, translated).barrier == res.barrier
