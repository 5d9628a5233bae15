"""Tests for exact and randomized distance search."""

import random
from itertools import combinations, islice, product

import pytest

import polyqec.distance as distance_mod
from polyqec.codes import TwoBlockCode, two_block
from polyqec import specfile
from polyqec.distance import (
    DistanceCapError,
    DistanceError,
    DistanceResult,
    exact_classical_distance,
    exact_distance,
    logical_space,
    random_upper_bound,
    validate_logical_witness,
)
from polyqec.fixtures import fixture_names, fixture_path
from polyqec.instantiate import BinaryMatrix
from polyqec.instantiate import _check_matrix, classical_parity_matrix, instantiate
from polyqec.lattice import GroupPresentation, quotient
from polyqec.poly import LaurentPoly, VarContext, parse_poly

from _helpers import swapped, torus


def _frame(inst, sector):
    """The logical frame of a sector: ``logical_space`` of ``inst`` for X and
    of ``swapped(inst)`` for Z."""
    return logical_space(inst if sector == "X" else swapped(inst))


def _brute_css_distance(inst):
    """Independent oracle: scan all 2^n vectors with direct parity checks."""
    n = inst.n
    stab_x = {0}
    for r in inst.hx.rows:
        stab_x |= {s ^ r for s in stab_x}
    stab_z = {0}
    for r in inst.hz.rows:
        stab_z |= {s ^ r for s in stab_z}
    best = None
    for v in range(1, 1 << n):
        if all((r & v).bit_count() % 2 == 0 for r in inst.hz.rows) and v not in stab_x:
            w = v.bit_count()
            best = w if best is None else min(best, w)
        if all((r & v).bit_count() % 2 == 0 for r in inst.hx.rows) and v not in stab_z:
            w = v.bit_count()
            best = w if best is None else min(best, w)
    return best


def _random_small_instance(rng, *, max_n=12):
    """A random one-variable two-block instance with k >= 1, or None."""
    ctx = VarContext(("x",))
    L = rng.randint(2, max_n // 2)
    f = LaurentPoly(ctx, frozenset((rng.randint(0, L - 1),) for _ in range(rng.randint(1, 3))))
    g = LaurentPoly(ctx, frozenset((rng.randint(0, L - 1),) for _ in range(rng.randint(1, 3))))
    if f.is_zero or g.is_zero:
        return None
    inst = instantiate(TwoBlockCode(ctx, f, g), torus(ctx, L))
    return inst if inst.k() >= 1 else None


def _sector_minimum(inst, sector):
    """(weight, witness) of a sector's lightest logicals, from the exact
    search's enumeration credited over the instance's group."""
    kernel, reps = _frame(inst, sector)
    return distance_mod._bz_minimum(kernel, reps, inst.n, inst.group)[:2]


# -- exact search ----------------------------------------------------------


def test_surface_code_distance_grows_with_torus():
    code = two_block("x y", "1 + x", "1 + y")
    for L in (2, 3, 4):
        inst = instantiate(code, torus(code.context, L, L))
        res = exact_distance(inst, cap_n=32)
        assert res.d_upper == L
        assert res.d_lower == L
        assert res.method == "exact-brouwer-zimmermann"
        assert res.witness.bit_count() == L
        validate_logical_witness(inst, res.witness, res.witness_sector)


def test_exact_matches_brute_force_on_random_instances():
    rng = random.Random(314159)
    checked = 0
    while checked < 25:
        inst = _random_small_instance(rng)
        if inst is None:
            continue
        checked += 1
        assert exact_distance(inst).d_upper == _brute_css_distance(inst)


def test_sector_swap_symmetry():
    rng = random.Random(2024)
    checked = 0
    while checked < 10:
        inst = _random_small_instance(rng)
        if inst is None:
            continue
        checked += 1
        code = inst.code
        swapped = TwoBlockCode(code.context, code.g.antipode(), code.f.antipode())
        inst_sw = instantiate(swapped, inst.group.presentation)
        dx, _ = _sector_minimum(inst, "X")
        dz, _ = _sector_minimum(inst, "Z")
        sx, _ = _sector_minimum(inst_sw, "X")
        sz, _ = _sector_minimum(inst_sw, "Z")
        assert (dx, dz) == (sz, sx)


def test_exact_cap_enforced():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 4, 4))  # n = 32 > default cap
    with pytest.raises(DistanceCapError):
        exact_distance(inst)
    assert exact_distance(inst, cap_n=32).d_upper == 4


def test_exact_requires_logical_qubits():
    code = two_block("x", "1", "1")
    inst = instantiate(code, torus(code.context, 3))
    assert inst.k() == 0
    with pytest.raises(DistanceError, match="no logical"):
        exact_distance(inst)
    with pytest.raises(DistanceError, match="no logical"):
        random_upper_bound(inst, 10, seed=0)


def test_k_zero_is_refused_before_any_nullspace(monkeypatch):
    # gross on x^2 = y^2 = 1: the frame refuses at once, with the one message
    # distance and barrier share
    spec = specfile.parse_spec_file(fixture_path("gross"))
    inst = instantiate(spec.two_block(), torus(spec.context, 2, 2))
    assert (inst.n, inst.k()) == (8, 0)
    built = []
    nullspace = BinaryMatrix.nullspace
    monkeypatch.setattr(BinaryMatrix, "nullspace", lambda m: built.append(m) or nullspace(m))
    with pytest.raises(DistanceError, match=r"^code has no logical operators \(k = 0\)$"):
        logical_space(inst)
    assert built == []


def test_unknown_sector_rejected():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    with pytest.raises(DistanceError, match="sector"):
        validate_logical_witness(inst, 1, "Y")


# -- witness validation ----------------------------------------------------


def test_validate_witness_rejects_bad_vectors():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    with pytest.raises(DistanceError, match="nonzero"):
        validate_logical_witness(inst, 0, "X")
    with pytest.raises(DistanceError, match="nonzero"):
        validate_logical_witness(inst, 1 << inst.n, "X")
    # a check row is a stabilizer: kernel member but not logical
    with pytest.raises(DistanceError, match="stabilizer"):
        validate_logical_witness(inst, inst.hx.rows[0], "X")
    # a single qubit flip violates the kernel condition here
    with pytest.raises(DistanceError, match="kernel"):
        validate_logical_witness(inst, 1, "X")


# -- randomized search -----------------------------------------------------


def test_zero_trials_is_vacuous():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    res = random_upper_bound(inst, 0, seed=1)
    assert res.d_upper == inst.n
    assert res.witness is None
    assert res.trials == 0 and res.seed == 1


def test_randomized_is_deterministic_and_monotone():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 3, 3))
    a = random_upper_bound(inst, 500, seed=42)
    b = random_upper_bound(inst, 500, seed=42)
    assert (a.d_upper, a.witness, a.witness_sector) == (b.d_upper, b.witness, b.witness_sector)
    small = random_upper_bound(inst, 200, seed=42)
    assert a.d_upper <= small.d_upper


def test_randomized_never_beats_exact_and_usually_matches():
    rng = random.Random(5150)
    instances = []
    code = two_block("x y", "1 + x", "1 + y")
    for L in (2, 3):
        instances.append(instantiate(code, torus(code.context, L, L)))
    while len(instances) < 20:
        inst = _random_small_instance(rng)
        if inst is not None:
            instances.append(inst)
    equal = 0
    for inst in instances:
        exact = exact_distance(inst).d_upper
        res = random_upper_bound(inst, 10_000, seed=11)
        assert res.witness_sector == "X"
        assert res.d_upper >= exact
        equal += res.d_upper == exact
    assert equal / len(instances) >= 0.95


def test_worker_split_is_deterministic():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 3, 3))
    a = random_upper_bound(inst, 600, seed=9, workers=3)
    b = random_upper_bound(inst, 600, seed=9, workers=3)
    assert (a.d_upper, a.witness) == (b.d_upper, b.witness)
    assert a.workers == 3
    # a worker count larger than the budget leaves some workers idle
    res = random_upper_bound(inst, 2, seed=9, workers=8)
    assert res.d_upper <= inst.n


def test_randomized_search_computes_the_x_sector_only(monkeypatch):
    # the block swap gives d_X = d_Z, so the Z logical space is never needed:
    # each search computes the one X frame once
    framed = []
    space = distance_mod.logical_space
    monkeypatch.setattr(
        distance_mod, "logical_space", lambda inst: framed.append(id(inst)) or space(inst)
    )
    instances = _search_instances()
    for inst in instances:
        assert random_upper_bound(inst, 300, seed=5, workers=2).witness_sector == "X"
    assert framed == [id(inst) for inst in instances]


def test_randomized_input_validation():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    with pytest.raises(DistanceError):
        random_upper_bound(inst, -1, seed=0)
    with pytest.raises(DistanceError):
        random_upper_bound(inst, 10, seed=0, workers=0)


def test_randomized_witness_is_validated():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 3, 3))
    res = random_upper_bound(inst, 2000, seed=3)
    assert res.witness is not None
    validate_logical_witness(inst, res.witness, res.witness_sector)
    assert res.witness.bit_count() == res.d_upper


# -- classical helper ------------------------------------------------------


def test_repetition_code_distance_is_ring_length():
    gen = parse_poly("1 + x")
    for L in (3, 5, 7):
        mat = classical_parity_matrix(gen, torus(gen.context, L))
        res = exact_classical_distance(mat)
        assert res == DistanceResult(L, L, (1 << L) - 1, None, "exact-brouwer-zimmermann")
        assert exact_classical_distance(mat, quotient(torus(gen.context, L))) == res
        with pytest.raises(DistanceError, match="one column per group element"):
            exact_classical_distance(mat, quotient(torus(gen.context, L + 1)))


def test_triangle_generator_distances():
    gen = parse_poly("1 + x + y")
    m3 = classical_parity_matrix(gen, torus(gen.context, 3, 3))
    res = exact_classical_distance(m3)
    assert res.d_upper == res.d_lower == 6
    assert m3.times_vector(res.witness) == 0
    for L in (2, 4):
        mm = classical_parity_matrix(gen, torus(gen.context, L, L))
        res = exact_classical_distance(mm)
        assert res == DistanceResult(None, None, None, None, "exact-brouwer-zimmermann")
        assert res.combinations == 0


def test_classical_matches_brute_force():
    rng = random.Random(606)
    from polyqec.instantiate import BinaryMatrix

    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 8)
        mat = BinaryMatrix([rng.getrandbits(cols) for _ in range(rows)], cols)
        expect = None
        for v in range(1, 1 << cols):
            if all((r & v).bit_count() % 2 == 0 for r in mat.rows):
                w = v.bit_count()
                expect = w if expect is None else min(expect, w)
        got = exact_classical_distance(mat)
        assert got.d_upper == got.d_lower == expect
        if expect is not None:
            # the smallest integer among the lightest codewords
            assert got.witness == next(
                v for v in range(1, 1 << cols)
                if v.bit_count() == expect and mat.times_vector(v) == 0
            )


def test_classical_cap(monkeypatch):
    # every unit vector is a codeword: level 1 finds weight 1 and ends the search
    got = exact_classical_distance(BinaryMatrix([0], 30))
    assert (got.d_upper, got.witness, got.combinations) == (1, 1, 30)
    monkeypatch.setattr(distance_mod, "_COMBINATION_CAP", 29)
    with pytest.raises(DistanceCapError, match="combinations"):
        exact_classical_distance(BinaryMatrix([0], 30))


def test_classical_witness_is_rechecked(monkeypatch):
    ring = BinaryMatrix([0b011, 0b110], 3)  # codewords 0 and 111
    assert exact_classical_distance(ring).witness == 0b111
    for bad in (0b011, 0):
        monkeypatch.setattr(distance_mod, "_bz_minimum", lambda *a, bad=bad: (2, bad, 1))
        with pytest.raises(DistanceError, match="not a nonzero codeword"):
            exact_classical_distance(ring)


def test_exact_combination_cap(monkeypatch):
    gross = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    inst = instantiate(gross, torus(gross.context, 3, 6))  # n = 36, d = 4
    res = exact_distance(inst, cap_n=64)
    assert res.d_upper == res.d_lower == 4
    assert res.combinations == exact_distance(inst, cap_n=64).combinations > 0
    monkeypatch.setattr(distance_mod, "_COMBINATION_CAP", 100)
    with pytest.raises(DistanceCapError, match="combinations"):
        exact_distance(inst, cap_n=64)


def test_bb72_exact_distance_is_six():
    # [[72, 12, 6]]: the search credited over the 36 translations needs a few
    # thousand combinations, where disjoint information sets needed millions
    gross = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    inst = instantiate(gross, torus(gross.context, 6, 6))
    res = exact_distance(inst, cap_n=72)
    assert res.d_upper == res.d_lower == 6 and res.witness.bit_count() == 6
    validate_logical_witness(inst, res.witness, res.witness_sector)
    assert res.combinations == 12383


# -- Brouwer–Zimmermann against independent oracles -----------------------


def _per_state_gray(kernel, reps, n):
    """Oracle: the one-state-at-a-time Gray sweep over all 2^m - 1 kernel
    combinations, each carrying its signature, its pairing with the rows of
    ``reps`` (a unit signature per kernel vector when None, so that every
    nonzero combination counts).

    Returns (weight, smallest integer) of the lightest combinations with a
    nonzero signature, (n + 1, None) when none has one.
    """
    if reps is None:
        sigs = [1 << j for j in range(len(kernel))]
    else:
        sigs = [reps.times_vector(v) for v in kernel]
    best = (n + 1, None)
    state = sig = 0
    for i in range(1, 1 << len(kernel)):
        j = (i & -i).bit_length() - 1
        state ^= kernel[j]
        sig ^= sigs[j]
        if sig:
            best = min(best, (state.bit_count(), state))
    return best


def _brute_sector_minimum(inst, sector):
    """Witness oracle: (weight, smallest integer) of the lightest logicals of a
    sector, scanning all vectors weight by weight with direct parity checks."""
    checks, stabilizers = (inst.hz, inst.hx) if sector == "X" else (inst.hx, inst.hz)
    span = {0}
    for r in stabilizers.rows:
        span |= {s ^ r for s in span}
    for w in range(1, inst.n + 1):
        found = [
            v for v in (sum(1 << c for c in cols) for cols in combinations(range(inst.n), w))
            if v not in span and all((r & v).bit_count() % 2 == 0 for r in checks.rows)
        ]
        if found:
            return w, min(found)
    return None


def _matrix_with_kernel_dim(rng, m):
    """A random check matrix whose kernel has dimension exactly m."""
    r = rng.randint(0, 6)
    rows = [(1 << (m + i)) | rng.getrandbits(m + i) for i in range(r)]
    return BinaryMatrix(rows, m + r)


def _random_reps(rng, n):
    """A random logical matrix R of one or two rows on ``n`` columns."""
    return BinaryMatrix([rng.getrandbits(n) for _ in range(rng.randint(1, 2))], n)


def test_bz_minimum_matches_brute_force_on_random_kernels():
    # sparse checks give many information sets of low rank, so sets join the
    # bound late and must first visit the levels they skipped
    rng = random.Random(2718)
    cases = 0
    while cases < 600:
        if cases % 2:
            mat = _matrix_with_kernel_dim(rng, rng.randint(1, 8))
        else:
            n = rng.randint(4, 16)
            mat = BinaryMatrix(
                [sum(1 << c for c in rng.sample(range(n), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, n - 1))],
                n,
            )
        kernel = mat.nullspace()
        m = len(kernel)
        if not 1 <= m <= 10:
            continue
        cases += 1
        # few random logical rows, so that many kernel rows pair to zero
        reps = _random_reps(rng, mat.ncols)
        combos = []
        for i in range(1, 1 << m):
            x = 0
            for j in range(m):
                if i >> j & 1:
                    x ^= kernel[j]
            if reps.times_vector(x):
                combos.append((x.bit_count(), x))
        expect = min(combos, default=(mat.ncols + 1, None))
        got = distance_mod._bz_minimum(kernel, reps, mat.ncols)
        assert got[:2] == expect == _per_state_gray(kernel, reps, mat.ncols)


def _random_classical_matrices(rng, count):
    """Check matrices of random classical generators on random small tori,
    with their groups, kernels of dimension 2 to 16."""
    out = []
    while len(out) < count:
        ctx = VarContext(tuple("xy"[: rng.choice((1, 2))]))
        cube = list(product(range(-2, 3), repeat=ctx.dim))
        poly = LaurentPoly(ctx, frozenset(rng.sample(cube, rng.randint(2, 4))))
        sides = [rng.randint(2, 8) for _ in range(ctx.dim)]
        rels = [tuple(s if j == i else 0 for j in range(ctx.dim)) for i, s in enumerate(sides)]
        if ctx.dim == 2:
            rels[1] = (rng.randrange(sides[0]), sides[1])  # twisted unless 0
        pres = GroupPresentation(ctx, tuple(rels))
        mat = classical_parity_matrix(poly, pres)
        if 2 <= len(mat.nullspace()) <= 16:
            out.append((mat, quotient(pres)))
    return out


def _limit_credited_translations(monkeypatch, credited):
    """Let Brouwer–Zimmermann credit at most ``credited`` translations of its
    information set (all when None); returns the (a, spread) pairs it used.

    A logical with no visited translate meets each of t translates of the set
    in more than w columns, and each of its columns lies in at most min(a, t)
    of them, so it weighs at least ⌈(w + 1)t / min(a, t)⌉.  The spread
    returned, ⌈|G| min(a, t) / t⌉, gives the search a bound no stronger.
    """
    spreads = []
    full = distance_mod._information_set

    def limited(rows, blocks):
        pivots, held = full(rows, blocks)
        a, size = max(held), len(blocks[0])
        t = size if credited is None else min(credited, size)
        spreads.append((a, -(-size * min(a, t) // t)))
        return pivots, [spreads[-1][1]]

    monkeypatch.setattr(distance_mod, "_information_set", limited)
    return spreads


@pytest.mark.parametrize("credited", [1, 3, None])
def test_blocked_gray_sweep_matches_per_state_sweep(monkeypatch, credited):
    # (named for the blocked Gray sweep that the exact search once ran) the
    # search credited over the translation group and the search without
    # symmetry must each end at the per-state sweep's minimum and witness, on
    # the kernels of classical codes on tori; crediting fewer translations only
    # weakens the lower bound, so the search runs more levels and must still
    # end there.  Random kernels, as classical codes and against a random R,
    # take the search without symmetry
    spreads = _limit_credited_translations(monkeypatch, credited)
    rng = random.Random(2718 + (credited or 0))
    dims, fewer = set(), 0
    for mat, group in _random_classical_matrices(rng, 60):
        kernel = mat.nullspace()
        dims.add(len(kernel))
        expect = _per_state_gray(kernel, None, mat.ncols)
        sym, plain = (exact_classical_distance(mat, s) for s in (group, None))
        assert (sym.d_upper, sym.witness) == (plain.d_upper, plain.witness) == expect
        assert sym.combinations <= plain.combinations
        fewer += sym.combinations < plain.combinations
    assert max(dims) >= 10
    # one credited translation is the bound without symmetry
    assert (fewer == 0) if credited == 1 else (fewer > 0)
    if credited is not None:
        assert any(s > a for a, s in spreads)
    for m in range(1, 17):
        for _ in range(2):
            mat = _matrix_with_kernel_dim(rng, m)
            kernel = mat.nullspace()
            assert len(kernel) == m
            value, witness = _per_state_gray(kernel, None, mat.ncols)
            got = exact_classical_distance(mat)
            assert (got.d_upper, got.witness) == (value, witness)
            reps = _random_reps(rng, mat.ncols)
            got = distance_mod._bz_minimum(kernel, reps, mat.ncols)
            assert got[:2] == _per_state_gray(kernel, reps, mat.ncols)


def _small_sector_instances():
    """Small plain and twisted tori, and random one-variable instances."""
    toric = two_block("x y", "1 + x", "1 + y")
    gross = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    insts = [
        instantiate(toric, torus(toric.context, a, b)) for a, b in ((2, 2), (2, 3), (3, 4))
    ]
    insts.append(instantiate(toric, GroupPresentation(toric.context, ((3, 0), (1, 2)))))
    insts.append(instantiate(gross, torus(gross.context, 3, 3)))
    rng = random.Random(99)
    while len(insts) < 14:
        inst = _random_small_instance(rng)
        if inst is not None:
            insts.append(inst)
    for name, rels in _TWISTED:
        spec = specfile.parse_spec_file(fixture_path(name))
        insts.append(instantiate(spec.two_block(), GroupPresentation(spec.context, rels)))
    return insts


# fixtures on twisted tori with k > 0, where element indices come from the
# Smith form rather than from the torus sides
_TWISTED = (
    ("toric", ((4, 0), (1, 2))),
    ("gross", ((3, 0), (1, 2))),
    ("haah", ((2, 0, 0), (1, 2, 0), (0, 1, 2))),
    ("checkerboard", ((2, 0, 0), (0, 2, 0), (1, 1, 2))),
    ("hhb_a", ((2, 0, 0), (0, 1, 0), (1, 1, 3))),
)


def _bundled_small_fixtures():
    """Two-block fixtures with k > 0 at their own boundary, n <= 28."""
    out = []
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        if spec.is_classical:
            continue
        inst = instantiate(spec.two_block(), spec.presentation())
        if inst.n <= 28 and inst.k() > 0:
            out.append(inst)
    return out


@pytest.mark.parametrize("credited", [1, 3, None])
def test_exact_sector_distance_matches_per_state_sweep(monkeypatch, credited):
    # (named for a per-sector entry point that is gone; the enumeration is
    # called directly) the search credited over all, three or one of the
    # translations, and the search without symmetry, on the same kernels
    fixtures = _bundled_small_fixtures()
    assert len(fixtures) >= 3
    spreads = _limit_credited_translations(monkeypatch, credited)
    dims = set()
    for inst in fixtures + _small_sector_instances():
        for sector in ("X", "Z"):
            kernel, reps = _frame(inst, sector)
            dims.add(len(kernel))
            expect = _per_state_gray(kernel, reps, inst.n)
            for group in (inst.group, None):
                assert distance_mod._bz_minimum(kernel, reps, inst.n, group)[:2] == expect
    assert max(dims) > 12
    if credited is not None:
        assert any(s > a for a, s in spreads)


def test_exact_witness_is_smallest_lightest_logical():
    insts = [i for i in _bundled_small_fixtures() + _small_sector_instances() if i.n <= 20]
    assert len(insts) >= 10
    for inst in insts:
        per_sector = {}
        for sector in ("X", "Z"):
            per_sector[sector] = _brute_sector_minimum(inst, sector)
            assert _sector_minimum(inst, sector) == per_sector[sector]
        res = exact_distance(inst)
        sector = "X" if per_sector["X"][0] <= per_sector["Z"][0] else "Z"
        assert (res.d_upper, res.witness, res.witness_sector) == (*per_sector[sector], sector)
    # the one-block classical newman_moore on 6x6: the per-state sweep over
    # its kernel visits every codeword
    spec = specfile.parse_spec_file(fixture_path("newman_moore"))
    pres = torus(spec.context, 6, 6)
    mat = classical_parity_matrix(spec.classical_generator(), pres)
    kernel = mat.nullspace()
    expect = _per_state_gray(kernel, None, mat.ncols)
    got = exact_classical_distance(mat, quotient(pres))
    assert (got.d_upper, got.witness) == expect


# -- parallel search streams against the sequential loop --------------------


def _sequential_upper_bound(inst, trials, seed, workers):
    """Reference: the one-block candidate seeds the best, then the worker
    streams walk the X sector one after another in one loop, with the best
    weight carried from each stream into the next."""
    kernel, reps = logical_space(inst)
    n = inst.n
    best_w, best = n, None
    if trials:
        best_w, best = distance_mod._one_block_logical(inst, reps)
    share, remainder = divmod(trials, workers)
    for widx in range(workers):
        budget = share + (1 if widx < remainder else 0)
        if budget == 0:
            continue
        rng = random.Random(seed * 0x9E3779B1 + widx)
        walk = distance_mod._InformationSetWalk(rng, kernel, n)
        examined = 0
        while examined < budget:
            for mask in walk.round(budget - examined):
                sig = reps.times_vector(mask)
                examined += 1
                if sig and mask and mask.bit_count() < best_w:
                    best_w, best = mask.bit_count(), mask
                if examined >= budget:
                    break
    return distance_mod.DistanceResult(
        d_upper=best_w, d_lower=None, witness=best,
        witness_sector=None if best is None else "X",
        method="random-x-one-block-information-set-walk", trials=trials, seed=seed,
        workers=workers,
    )


def _search_instances():
    out = []
    for name in ("gross", "toric", "haah"):
        spec = specfile.parse_spec_file(fixture_path(name))
        out.append(instantiate(spec.two_block(), spec.presentation()))
    toric = two_block("x y", "1 + x", "1 + y")
    out.append(instantiate(toric, GroupPresentation(toric.context, ((3, 0), (1, 2)))))
    return out


@pytest.mark.parametrize("in_pool", [True, False])
def test_parallel_streams_match_sequential_loop(monkeypatch, in_pool):
    pooled = []
    run_streams = distance_mod._run_streams
    monkeypatch.setattr(
        distance_mod, "_run_streams", lambda *a: pooled.append(1) or run_streams(*a)
    )
    if in_pool:
        # a pool even for tiny jobs, and on a one-core host
        monkeypatch.setattr(distance_mod, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(distance_mod.os, "cpu_count", lambda: 4)
    else:
        monkeypatch.setattr(distance_mod, "_POOL_MIN_WORK", 1 << 62)
    cases = [(trials, workers) for workers in (1, 2, 3, 4, 8) for trials in (700, 1501)]
    cases += [(2, 8), (3, 4), (0, 2)]
    instances = _search_instances()
    for inst in instances:
        for trials, workers in cases:
            seed = trials + workers
            expect = _sequential_upper_bound(inst, trials, seed, workers)
            assert random_upper_bound(inst, trials, seed, workers=workers) == expect
    # a lone stream or an empty budget never needs a pool
    multi = sum(min(trials, workers) > 1 for trials, workers in cases)
    assert len(pooled) == (len(instances) * multi if in_pool else 0)


# -- the information-set walk behind the randomized search ------------------


def _assert_walk_invariants(walk, inst, sector):
    """The walk's rows are a basis of ker(checks) in Gauss–Jordan form on its
    pivots, and ``free`` is the rest of the kernel's support."""
    checks = inst.hz if sector == "X" else inst.hx
    n, rows, pivots = inst.n, walk.rows, walk.pivots
    held = [x & pivots for x in rows]
    assert all(h.bit_count() == 1 for h in held) and sum(held) == pivots
    assert BinaryMatrix(rows, n).rank() == len(rows) == pivots.bit_count()
    support = 0
    for v in rows:
        assert not checks.times_vector(v)
        support |= v
    assert sorted(walk.free) == [c for c in range(n) if (support & ~pivots) >> c & 1]


def test_walk_rounds_stay_systematic_kernel_bases():
    instances = _search_instances()[:3]  # gross, toric, haah
    rng = random.Random(1998)
    while len(instances) < 53:
        inst = _random_small_instance(rng)
        if inst is not None:
            instances.append(inst)
    for idx, inst in enumerate(instances):
        for sector in ("X", "Z"):
            kernel, _ = _frame(inst, sector)
            walk = distance_mod._InformationSetWalk(random.Random(idx), kernel, inst.n)
            for _ in range(4):
                found = walk.round(len(kernel) + 200)
                assert found[: len(kernel)] == walk.rows
                _assert_walk_invariants(walk, inst, sector)


def test_budget_below_the_kernel_dimension_reduces_only_what_is_examined():
    # a first round given fewer candidates than the kernel dimension m returns
    # exactly that many kernel elements, each holding exactly one of as many
    # pivot columns; the walk stays unstarted,
    # and a later full round still leaves a systematic kernel basis
    instances = _search_instances()
    rng = random.Random(1998)
    while len(instances) < 24:
        inst = _random_small_instance(rng)
        if inst is not None:
            instances.append(inst)
    for idx, inst in enumerate(instances):
        for sector in ("X", "Z"):
            checks = inst.hz if sector == "X" else inst.hx
            kernel, _ = _frame(inst, sector)
            if len(kernel) < 2:
                continue
            for limit in {1, len(kernel) // 2, len(kernel) - 1}:
                walk = distance_mod._InformationSetWalk(random.Random(idx), kernel, inst.n)
                found = walk.round(limit)
                assert len(found) == limit == walk.pivots.bit_count()
                held = [x & walk.pivots for x in found]
                assert all(h.bit_count() == 1 for h in held) and sum(held) == walk.pivots
                for x in found:
                    assert not checks.times_vector(x) and not x >> inst.n
                assert walk.free is None
                walk.round(len(kernel))
                _assert_walk_invariants(walk, inst, sector)


def _take_pivot_reference(rows, r, bit):
    for t in range(r, len(rows)):
        if rows[t] & bit:
            rows[r], rows[t] = rows[t], rows[r]
            distance_mod._pivot(rows, r, bit)
            return True
    return False


def _eliminate_reference(rows, columns):
    """Gauss–Jordan pivoting on ``columns`` in the given order: the walk's
    own elimination before it shared ``_information_set``."""
    r = pivots = 0
    for col in columns:
        if r == len(rows):
            break
        if _take_pivot_reference(rows, r, 1 << col):
            pivots |= 1 << col
            r += 1
    return pivots


def _balanced_reference(rows, n, size):
    """Gauss–Jordan with each next pivot from the block of ``size`` columns
    with the fewest pivots so far: Brouwer–Zimmermann's own elimination
    before it shared ``_information_set``, returning its pivot mask too."""
    tried, held = list(range(0, n, size)), [0] * (n // size)
    r = pivots = 0
    while r < len(rows):
        b = min((b for b in range(len(held)) if tried[b] < (b + 1) * size), key=held.__getitem__)
        tried[b] += 1
        if _take_pivot_reference(rows, r, 1 << (tried[b] - 1)):
            pivots |= 1 << (tried[b] - 1)
            held[b] += 1
            r += 1
    return pivots, max(held)


def test_information_set_matches_both_former_eliminations():
    # one shuffled block (the walk's first round, whole or a head of fewer
    # rows than the kernel dimension) against pivoting in column order, and
    # blocks of |G| columns (and of one column: no group) against the
    # balanced elimination, on the kernels of two-block codes and classical
    # codes on tori: the same rows, pivot mask and spread
    rng = random.Random(4901)
    kernels = []
    for inst in _search_instances() + _small_sector_instances():
        for sector in ("X", "Z"):
            kernels.append((_frame(inst, sector)[0], inst.n, inst.group.order))
    for mat, group in _random_classical_matrices(rng, 30):
        kernels.append((mat.nullspace(), mat.ncols, group.order))
    heads = 0
    for kernel, n, order in kernels:
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for limit in {len(kernel), rng.randint(1, len(kernel))}:
            heads += limit < len(kernel)
            got, expect = kernel[:limit], kernel[:limit]
            assert distance_mod._information_set(got, [shuffled])[0] == _eliminate_reference(
                expect, shuffled
            )
            assert got == expect
        for size in (order, 1):
            got, expect = list(kernel), list(kernel)
            pivots, held = distance_mod._information_set(
                got, [list(range(s, s + size)) for s in range(0, n, size)]
            )
            assert (pivots, max(held)) == _balanced_reference(expect, n, size)
            assert got == expect and sum(held) == len(kernel)
    assert len(kernels) > 60 and heads > 30


def test_walk_without_a_legal_swap_stays_put():
    # column 2 is no pivot, but no kernel vector holds it: no swap can bring
    # it in, so the walk must stop swapping rather than look for one
    walk = distance_mod._InformationSetWalk(random.Random(0), [0b001, 0b010], 3)
    first = walk.round(3)
    assert walk.pivots == 0b011 and walk.free == []
    assert walk.round(3) == first == [0b001, 0b010, 0b011]


def _full_logical_space(inst, sector):
    """Reference: reduce every vector of the opposite kernel."""
    own_kernel, opp_checks, opp_rows = (
        (inst.hz, inst.hx, inst.hz) if sector == "X" else (inst.hx, inst.hz, inst.hx)
    )
    piv = {}

    def reduce_top(v):
        while v and v.bit_length() - 1 in piv:
            v ^= piv[v.bit_length() - 1]
        return v

    for row in opp_rows.rows:
        res = reduce_top(row)
        if res:
            piv[res.bit_length() - 1] = res
    reps = []
    for v in opp_checks.nullspace():
        res = reduce_top(v)
        if res:
            reps.append(v)
            piv[res.bit_length() - 1] = res
    return own_kernel.nullspace(), reps


def test_logical_space_stops_at_k_with_the_same_answer():
    small = {
        2: [((2, 0), (0, 2)), ((3, 0), (0, 3)), ((3, 0), (1, 2)), ((4, 0), (2, 3))],
        3: [((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0), (1, 1, 2))],
    }
    seen = set()
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        if spec.is_classical:
            continue
        for rels in dict.fromkeys([spec.boundary, *small[spec.context.dim]]):
            inst = instantiate(spec.two_block(), GroupPresentation(spec.context, rels))
            for sector in ("X", "Z"):
                if inst.k() == 0:
                    with pytest.raises(DistanceError, match=r"\(k = 0\)$"):
                        _frame(inst, sector)
                    continue
                kernel, reps = _frame(inst, sector)
                assert (kernel, list(reps.rows)) == _full_logical_space(inst, sector)
                assert reps.nrows == inst.k()
        seen.add(name)
    assert len(seen) >= 10


def test_logical_space_matches_check_row_reduction_on_random_tori():
    rng = random.Random(1212)
    big = 0
    for trial in range(40):
        ctx = VarContext(tuple("xyz"[: rng.choice((2, 3))]))
        cube = list(product(range(-3, 4), repeat=ctx.dim))
        # an even number of terms makes both generators vanish at the trivial
        # character, so every instance has k >= 2
        f, g = (LaurentPoly(ctx, frozenset(rng.sample(cube, rng.choice((2, 4)))))
                for _ in range(2))
        if trial % 5 == 0:  # tori past one 256-row block of columns
            sizes = [rng.choice((12, 14, 16)), rng.choice((12, 14, 16))] + [1] * (ctx.dim - 2)
        else:
            sizes = [rng.randint(1, 5) for _ in range(ctx.dim)]
        inst = instantiate(TwoBlockCode(ctx, f, g), torus(ctx, *sizes))
        for sector in ("X", "Z"):
            kernel, reps = _frame(inst, sector)
            assert (kernel, list(reps.rows)) == _full_logical_space(inst, sector)
            assert reps.nrows == inst.k()
        big += inst.n > 256 and inst.k() > 0
    assert big >= 4


# -- one-block logicals ahead of the walk -------------------------------------


def _catalogue_tori(dim):
    """The small tori of the exact-small benchmark catalogue (every side >= 2,
    4 <= |G| <= 14), plain and twisted."""
    if dim == 2:
        sides = [(a, b) for a in range(2, 8) for b in range(2, 8) if 4 <= a * b <= 14]
    else:
        sides = [s for s in product(range(2, 4), repeat=3) if 4 <= s[0] * s[1] * s[2] <= 14]
    for side in sides:
        rels = [[side[i] if j == i else 0 for j in range(dim)] for i in range(dim)]
        yield tuple(map(tuple, rels))
        rels[1][0] = 1  # x y^b = 1
        if dim == 3:
            rels[2][1] = 1  # y z^c = 1
        yield tuple(map(tuple, rels))


def test_one_block_candidate_is_a_logical_no_lighter_than_d():
    # every X sector with k > 0 of the two-block catalogue, plus its three
    # heavy exact jobs: the candidate is a validated logical of weight >= d
    presentations = []
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        if not spec.is_classical:
            presentations += [(spec, rels) for rels in _catalogue_tori(spec.context.dim)]
    for name, sides in (("toric", (4, 4)), ("toric", (4, 5)), ("gross", (3, 6))):
        spec = specfile.parse_spec_file(fixture_path(name))
        presentations.append((spec, ((sides[0], 0), (0, sides[1]))))
    checked = equal = twisted = 0
    for spec, rels in presentations:
        inst = instantiate(spec.two_block(), GroupPresentation(spec.context, rels))
        if inst.k() == 0:
            continue
        _, reps = logical_space(inst)
        w, witness = distance_mod._one_block_logical(inst, reps)
        assert witness.bit_count() == w
        validate_logical_witness(inst, witness, "X")
        d = exact_distance(inst, cap_n=inst.n).d_upper
        assert w >= d
        checked += 1
        equal += w == d
        twisted += any(r[j] for i, r in enumerate(rels) for j in range(i))
    assert checked >= 60 and twisted >= 20 and 0 < equal < checked


# (f, g, l, m, one-block weight) of the published bivariate-bicycle codes on
# x^l = y^m = 1; the one-block weight is the published d except on bb108
# (d = 10) and bb756 (d <= 34), where the walk has to find d
_PUBLISHED_ONE_BLOCK = {
    "bb72": ("x^3 + y + y^2", "y^3 + x + x^2", 6, 6, 6),
    "bb90": ("x^9 + y + y^2", "1 + x^2 + x^7", 15, 3, 10),
    "bb108": ("x^3 + y + y^2", "y^3 + x + x^2", 9, 6, 12),
    "bb144": ("x^3 + y + y^2", "y^3 + x + x^2", 12, 6, 12),
    "bb288": ("x^3 + y^2 + y^7", "y^3 + x + x^2", 12, 12, 18),
    "bb756": ("x^3 + y^10 + y^17", "y^5 + x^3 + x^19", 21, 18, 52),
    "bb784": ("x^26 + y^6 + y^8", "y^7 + x^9 + x^20", 28, 14, 24),
}


@pytest.mark.parametrize("name", sorted(_PUBLISHED_ONE_BLOCK))
def test_one_block_bound_on_the_published_codes(name):
    f, g, l, m, expect = _PUBLISHED_ONE_BLOCK[name]
    code = two_block("x y", f, g)
    inst = instantiate(code, torus(code.context, l, m))
    _, reps = logical_space(inst)
    w, witness = distance_mod._one_block_logical(inst, reps)
    assert w == witness.bit_count() == expect
    validate_logical_witness(inst, witness, "X")
    size = inst.group.order
    assert witness < 1 << size or witness % (1 << size) == 0  # on one block


def test_one_block_codes_are_the_column_blocks_of_hz():
    # HZ = [Ḡ | F̄]: its two column blocks, which the one-block candidates
    # read, are the classical check matrices of ḡ and f̄ built generator by
    # generator, with the same nullspaces
    instances = []
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        if not spec.is_classical:
            code = spec.two_block()
            instances.append(instantiate(code, spec.presentation()))
            for rels in islice(_catalogue_tori(code.context.dim), 2):  # plain, then twisted
                instances.append(instantiate(code, GroupPresentation(code.context, rels)))
    for f, g, l, m, _ in _PUBLISHED_ONE_BLOCK.values():
        code = two_block("x y", f, g)
        instances.append(instantiate(code, torus(code.context, l, m)))
    twisted = 0
    for inst in instances:
        rels = inst.group.presentation.relations
        twisted += any(r[j] for i, r in enumerate(rels) for j in range(i))
        size = inst.group.order
        for offset, poly in ((0, inst.code.g), (size, inst.code.f)):
            block = BinaryMatrix([r >> offset & ((1 << size) - 1) for r in inst.hz.rows], size)
            reference = _check_matrix(inst.group, (poly.antipode(),))
            assert block == reference
            assert block.nullspace() == reference.nullspace()
    assert len(instances) >= 40 and twisted >= 11


def _assert_column_order_gauss_jordan(mat):
    """The nullspace rows of ``mat`` each have their lowest set bit at a free
    column that no other row holds, ascending: Gauss–Jordan along the columns
    in order leaves them as they are."""
    rows = mat.nullspace()
    lows = [(r & -r).bit_length() - 1 for r in rows]
    assert lows == sorted(set(lows)) and set(lows).isdisjoint(mat._pivots())
    for i, low in enumerate(lows):
        assert [j for j, r in enumerate(rows) if r >> low & 1] == [i]
    again = list(rows)
    distance_mod._information_set(again, [list(range(mat.ncols))])
    assert again == rows


def test_nullspace_rows_are_in_column_order_gauss_jordan_form():
    # the one-block candidates take each classical kernel as its nullspace
    # gives it, with no elimination of their own
    rng = random.Random(31)
    for _ in range(400):
        cols = rng.randint(1, 40)
        density = rng.choice((0.1, 0.3, 0.5))
        rows = [
            sum(1 << c for c in range(cols) if rng.random() < density)
            for _ in range(rng.randint(0, 50))
        ]
        _assert_column_order_gauss_jordan(BinaryMatrix(rows, cols))
    instances = []
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        if not spec.is_classical:
            instances.append(instantiate(spec.two_block(), spec.presentation()))
            for rels in _catalogue_tori(spec.context.dim):
                pres = GroupPresentation(spec.context, rels)
                instances.append(instantiate(spec.two_block(), pres))
    for f, g, l, m, _ in _PUBLISHED_ONE_BLOCK.values():
        code = two_block("x y", f, g)
        instances.append(instantiate(code, torus(code.context, l, m)))
    for inst in instances:
        for poly in (inst.code.g, inst.code.f):
            _assert_column_order_gauss_jordan(_check_matrix(inst.group, (poly.antipode(),)))
