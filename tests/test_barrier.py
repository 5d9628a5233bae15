"""Tests for exact bottleneck energy-barrier search."""

import heapq
import random

import pytest

import polyqec.barrier as barrier_mod
import polyqec.distance as distance_mod
from polyqec import specfile
from polyqec.barrier import (
    BARRIER_CAP_DEFAULT,
    BarrierCapError,
    BarrierError,
    barrier,
    classical_code_barrier,
    code_barrier,
    sector_barrier,
)
from polyqec.codes import ClassicalGenerator, TwoBlockCode, two_block
from polyqec.distance import (
    DistanceError,
    exact_distance,
    logical_space,
    validate_logical_witness,
)
from polyqec.fixtures import fixture_names, fixture_path
from polyqec.instantiate import BinaryMatrix, classical_parity_matrix, instantiate
from polyqec.lattice import GroupPresentation
from polyqec.poly import LaurentPoly, VarContext, parse_poly


def torus(ctx: VarContext, *sizes: int) -> GroupPresentation:
    d = ctx.dim
    rels = tuple(tuple(sizes[i] if j == i else 0 for j in range(d)) for i in range(d))
    return GroupPresentation(ctx, rels)


def _brute_bottleneck(H: BinaryMatrix, targets: set[int]) -> int:
    """Independent oracle: relax bottleneck distances to a fixpoint."""
    n = H.ncols
    energies = [H.times_vector(v).bit_count() for v in range(1 << n)]
    INF = 1 << 30
    dist = [INF] * (1 << n)
    dist[0] = 0
    changed = True
    while changed:
        changed = False
        for v in range(1 << n):
            if dist[v] == INF:
                continue
            for j in range(n):
                u = v ^ (1 << j)
                cand = max(dist[v], energies[u])
                if cand < dist[u]:
                    dist[u] = cand
                    changed = True
    return min(dist[t] for t in targets)


# -- energy ---------------------------------------------------------------


def test_energy_examples():
    ising = ClassicalGenerator(parse_poly("1 + x"))
    m8 = classical_parity_matrix(ising, torus(ising.poly.context, 8))
    assert m8.times_vector(0).bit_count() == 0
    assert m8.times_vector(1).bit_count() == 2
    nm = ClassicalGenerator(parse_poly("1 + x + y"))
    m3 = classical_parity_matrix(nm, torus(nm.poly.context, 3, 3))
    assert m3.times_vector(1).bit_count() == 3


def test_energy_matches_direct_count():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        mat = BinaryMatrix([rng.getrandbits(cols) for _ in range(rows)], cols)
        v = rng.getrandbits(cols)
        expect = sum((r & v).bit_count() % 2 for r in mat.rows)
        assert mat.times_vector(v).bit_count() == expect


# -- single-target barrier -------------------------------------------------


def test_domain_wall_pair_walks_the_ring():
    ising = ClassicalGenerator(parse_poly("1 + x"))
    for L in (4, 8, 12, 16):
        m = classical_parity_matrix(ising, torus(ising.poly.context, L))
        res = barrier(m, (1 << L) - 1)
        assert res.barrier == 2
        assert res.target == (1 << L) - 1


def test_barrier_path_is_valid():
    ising = ClassicalGenerator(parse_poly("1 + x"))
    m = classical_parity_matrix(ising, torus(ising.poly.context, 6))
    res = barrier(m, (1 << 6) - 1, want_path=True)
    state = 0
    peak = 0
    for j in res.path:
        state ^= 1 << j
        peak = max(peak, m.times_vector(state).bit_count())
    assert state == res.target
    assert peak == res.barrier
    assert barrier(m, (1 << 6) - 1).path is None


def test_barrier_input_validation():
    ising = ClassicalGenerator(parse_poly("1 + x"))
    m = classical_parity_matrix(ising, torus(ising.poly.context, 5))
    with pytest.raises(BarrierError, match="nonzero"):
        barrier(m, 0)
    with pytest.raises(BarrierError, match="nonzero"):
        barrier(m, 1 << 5)
    with pytest.raises(BarrierError, match="kernel"):
        barrier(m, 0b00001)
    wide = BinaryMatrix([0], 21)
    with pytest.raises(BarrierCapError):
        barrier(wide, 1)


def test_barrier_matches_brute_force_oracle():
    rng = random.Random(321)
    count = 0
    while count < 12:
        cols = rng.randint(2, 6)
        mat = BinaryMatrix([rng.getrandbits(cols) for _ in range(rng.randint(1, 4))], cols)
        kernel = [v for v in range(1, 1 << cols) if mat.times_vector(v) == 0]
        if not kernel:
            continue
        count += 1
        target = rng.choice(kernel)
        assert barrier(mat, target).barrier == _brute_bottleneck(mat, {target})


def test_barrier_translation_invariance():
    nm = ClassicalGenerator(parse_poly("1 + x + y"))
    pres = torus(nm.poly.context, 3, 3)
    m = classical_parity_matrix(nm, pres)
    from polyqec.lattice import quotient

    group = quotient(pres)
    base = classical_code_barrier(m)
    perm = group.translation((1, 2))
    shifted = 0
    t = base.target
    while t:
        low = t & -t
        shifted |= 1 << perm[low.bit_length() - 1]
        t ^= low
    assert barrier(m, shifted).barrier == base.barrier


# -- classical code barrier ------------------------------------------------


def test_triangle_generator_barrier_and_trivial_cases():
    nm = ClassicalGenerator(parse_poly("1 + x + y"))
    m3 = classical_parity_matrix(nm, torus(nm.poly.context, 3, 3))
    res = classical_code_barrier(m3)
    assert res.barrier == 4
    assert m3.times_vector(res.target) == 0 and res.target != 0
    for L in (2, 4):
        mm = classical_parity_matrix(nm, torus(nm.poly.context, L, L))
        with pytest.raises(BarrierError, match="trivial"):
            classical_code_barrier(mm)


def test_classical_code_barrier_matches_brute_force():
    rng = random.Random(987)
    count = 0
    while count < 10:
        cols = rng.randint(2, 6)
        mat = BinaryMatrix([rng.getrandbits(cols) for _ in range(rng.randint(1, 4))], cols)
        kernel = {v for v in range(1, 1 << cols) if mat.times_vector(v) == 0}
        if not kernel:
            continue
        count += 1
        assert classical_code_barrier(mat).barrier == _brute_bottleneck(mat, kernel)


def test_barrier_at_least_one_when_checks_cover_all_bits():
    ising = ClassicalGenerator(parse_poly("1 + x"))
    for L in (4, 6, 8):
        m = classical_parity_matrix(ising, torus(ising.poly.context, L))
        assert classical_code_barrier(m).barrier >= 1


def test_cap_increase_does_not_change_value():
    ising = ClassicalGenerator(parse_poly("1 + x"))
    m = classical_parity_matrix(ising, torus(ising.poly.context, 8))
    assert classical_code_barrier(m, cap_n=8).barrier == classical_code_barrier(m, cap_n=20).barrier


# -- CSS code barrier ------------------------------------------------------


def test_surface_code_barrier_is_two():
    code = two_block("x y", "1 + x", "1 + y")
    for L in (2, 3):
        inst = instantiate(code, torus(code.context, L, L))
        res = code_barrier(inst)
        assert res.barrier == 2
        assert res.x_result.barrier == 2
        assert res.z_result.barrier == 2


def test_sector_targets_are_genuine_logicals():
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 3, 3))
    for sector in ("X", "Z"):
        res = sector_barrier(inst, sector)
        validate_logical_witness(inst, res.target, sector)


def test_sector_barrier_matches_minimum_over_targets():
    # brute force: minimum single-target barrier over every X logical
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    checks = inst.hz
    stab = {0}
    for r in inst.hx.rows:
        stab |= {s ^ r for s in stab}
    logicals = {
        v
        for v in range(1, 1 << inst.n)
        if checks.times_vector(v) == 0 and v not in stab
    }
    expect = _brute_bottleneck(checks, logicals)
    assert sector_barrier(inst, "X").barrier == expect


def test_code_barrier_rejects_bad_inputs():
    code = two_block("x y", "1 + x", "1 + y")
    big = instantiate(code, torus(code.context, 4, 4))
    with pytest.raises(BarrierCapError):
        code_barrier(big)
    trivial = two_block("x", "1", "1")
    inst = instantiate(trivial, torus(trivial.context, 3))
    with pytest.raises(BarrierError, match="no logical"):
        code_barrier(inst)


def test_code_barrier_consistent_with_exact_distance_witness():
    # the barrier target needn't be a minimum-weight logical, but both
    # searches must agree the code is nontrivial at the same sizes
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    d = exact_distance(inst)
    b = code_barrier(inst)
    assert d.d_upper >= 1 and b.barrier >= 1


def test_reported_targets_are_rechecked(monkeypatch):
    # a search that stops at a non-codeword is refused, not reported
    code = two_block("x y", "1 + x", "1 + y")
    inst = instantiate(code, torus(code.context, 2, 2))
    monkeypatch.setattr(barrier_mod, "_dijkstra", lambda *a, **k: (1, 0b1, 1, None))
    for sector in ("X", "Z"):
        with pytest.raises(DistanceError, match="kernel condition"):
            sector_barrier(inst, sector)
    ising = ClassicalGenerator(parse_poly("1 + x"))
    ring = classical_parity_matrix(ising, torus(ising.poly.context, 4))
    with pytest.raises(BarrierError, match="not a nonzero codeword"):
        classical_code_barrier(ring)
    monkeypatch.setattr(barrier_mod, "_dijkstra", lambda *a, **k: (0, 0, 1, None))
    with pytest.raises(BarrierError, match="not a nonzero codeword"):
        classical_code_barrier(ring)


def _swap_and_invert(inst, v):
    """psi(a, b) = (b-bar, a-bar): swap the two blocks and invert each element."""
    order = inst.group.order
    out = 0
    for h in range(order):
        j = inst.group.neg(h)
        out |= (v >> h & 1) << (order + j) | (v >> (order + h) & 1) << j
    return out


def _sector_distance(inst, sector):
    kernel, reps = logical_space(inst, sector)
    sigs = [reps.times_vector(v) for v in kernel]
    return distance_mod._bz_minimum(kernel, sigs, inst.n, inst.group)[0]


def _random_symmetry_instance(rng):
    """A random two-block instance, n <= 24, on a plain or twisted torus."""
    dim = rng.randint(1, 3)
    ctx = VarContext(tuple("xyz"[:dim]))
    cube = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(8)]
    f, g = (LaurentPoly(ctx, frozenset(rng.sample(cube, rng.randint(1, 4)))) for _ in range(2))
    if f.is_zero or g.is_zero:
        return None
    sizes = [rng.randint(1, 4) for _ in range(dim)]
    rels = [tuple(sizes[i] if j == i else 0 for j in range(dim)) for i in range(dim)]
    if dim > 1 and rng.random() < 0.5:  # twist: the last relation also shifts x
        rels[-1] = (rng.randint(1, sizes[0]),) + rels[-1][1:]
    inst = instantiate(TwoBlockCode(ctx, f, g), GroupPresentation(ctx, tuple(rels)))
    return inst if inst.n <= 24 else None


def test_sector_symmetry_swaps_the_blocks_and_inverts():
    # psi is a qubit permutation taking HX rows into rowspace(HZ) and ker HZ
    # into ker HX, so the two sectors share their distance and barrier
    instances = []
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        if not spec.is_classical:
            instances.append(instantiate(spec.two_block(), spec.presentation()))
    assert len(instances) == 11
    rng = random.Random(1401)
    compared = barriers = 0
    while compared < 300:
        inst = _random_symmetry_instance(rng)
        if inst is None:
            continue
        instances.append(inst)
        if inst.k() == 0:
            continue
        compared += 1
        assert _sector_distance(inst, "X") == _sector_distance(inst, "Z")
        if inst.n <= 16:
            barriers += 1
            assert sector_barrier(inst, "X").barrier == sector_barrier(inst, "Z").barrier
    assert barriers >= 200
    for inst in instances:
        assert all(inst.hz.rowspace_contains(_swap_and_invert(inst, r)) for r in inst.hx.rows)
        assert not any(inst.hx.times_vector(_swap_and_invert(inst, v)) for v in inst.hz.nullspace())


# -- level-by-level search against the heap Dijkstra -----------------------


def _heap_dijkstra(syn_cols, n, goal, sig_cols=None, want_path=False):
    """Reference: bottleneck Dijkstra with one heap entry per improvement.

    Pops (bottleneck, state) pairs in increasing order, skips stale entries,
    and records a predecessor on every strict improvement.
    """
    dist = {0: 0}
    heap = [(0, 0, 0, 0)]
    prev = {0: None} if want_path else None
    explored = 0
    while heap:
        bott, state, syn, sig = heapq.heappop(heap)
        if bott > dist.get(state, bott):
            continue
        explored += 1
        if goal(state, syn, sig):
            path = None
            if want_path:
                flips = []
                cur = state
                while prev[cur] is not None:
                    cur, j = prev[cur]
                    flips.append(j)
                path = tuple(reversed(flips))
            return bott, state, explored, path
        for j in range(n):
            nstate = state ^ (1 << j)
            nsyn = syn ^ syn_cols[j]
            nbott = max(bott, nsyn.bit_count())
            if nbott < dist.get(nstate, 1 << 60):
                dist[nstate] = nbott
                if want_path:
                    prev[nstate] = (state, j)
                nsig = sig ^ sig_cols[j] if sig_cols is not None else 0
                heapq.heappush(heap, (nbott, nstate, nsyn, nsig))
    raise BarrierError("search exhausted without reaching a goal state")


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except BarrierError as exc:
        return ("error", str(exc))


def _image(cols, state):
    """XOR of the columns a state selects, recomputed from scratch."""
    out = 0
    for j, col in enumerate(cols):
        if state >> j & 1:
            out ^= col
    return out


def _replay(syn_cols, path):
    """(end state, peak energy) of a flip sequence started at 0."""
    state = syn = peak = 0
    for j in path:
        state ^= 1 << j
        syn ^= syn_cols[j]
        peak = max(peak, syn.bit_count())
    return state, peak


def test_level_search_matches_heap_reference():
    # the reached target may differ from the reference's: it is re-checked
    # as a goal state with an optimal path instead
    rng = random.Random(4242)
    exhausted = 0
    for case in range(400):
        n = rng.randint(1, 10)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 7))]
        syn_cols = BinaryMatrix(rows, n).transpose().rows if rows else [0] * n
        sig_cols = None
        kind = case % 3
        if kind == 0:
            target = rng.randrange(1, 1 << n)
            goal = lambda s, _syn, _sig: s == target
        elif kind == 1:
            goal = lambda s, syn, _sig: s != 0 and syn == 0
        else:
            sig_cols = [rng.getrandbits(2) for _ in range(n)]
            goal = lambda _s, syn, sig: syn == 0 and sig != 0
        for want_path in (False, True):
            expect = _outcome(_heap_dijkstra, syn_cols, n, goal, sig_cols, want_path)
            got = _outcome(barrier_mod._dijkstra, syn_cols, n, goal, sig_cols, want_path)
            if expect[0] == "error":
                assert got == expect
                exhausted += 1
                continue
            assert len(got) == 4, got
            bott, reached, _explored, path = got
            assert bott == expect[0]
            assert goal(reached, _image(syn_cols, reached), _image(sig_cols or [0] * n, reached))
            if want_path:
                assert _replay(syn_cols, path) == (reached, bott)
            else:
                assert path is None
    assert exhausted > 0


def _bundled_instances():
    """Every bundled code within the default cap, at its own boundary and at
    small plain and twisted ones."""
    small = {
        1: [((4,),), ((6,),)],
        2: [((2, 0), (0, 2)), ((2, 0), (0, 3)), ((3, 0), (1, 2)), ((3, 0), (0, 3))],
        3: [((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0), (1, 1, 2))],
    }
    for name in fixture_names():
        spec = specfile.parse_spec_file(fixture_path(name))
        for rels in dict.fromkeys([spec.boundary, *small[spec.context.dim]]):
            pres = GroupPresentation(spec.context, tuple(rels))
            if spec.is_classical:
                mat = classical_parity_matrix(spec.classical_generator(), pres)
                if mat.ncols <= BARRIER_CAP_DEFAULT:
                    yield name, rels, mat
            else:
                inst = instantiate(spec.two_block(), pres)
                if inst.n <= BARRIER_CAP_DEFAULT:
                    yield name, rels, inst


def test_bundled_barriers_match_heap_reference(monkeypatch):
    def searches():
        for name, rels, obj in _bundled_instances():
            if isinstance(obj, BinaryMatrix):
                yield name, obj, _outcome(classical_code_barrier, obj, want_path=True)
            else:
                yield name, obj, _outcome(code_barrier, obj, want_path=True)

    got = list(searches())
    monkeypatch.setattr(barrier_mod, "_dijkstra", _heap_dijkstra)
    expect = list(searches())
    for (name, obj, res), (_, _, ref) in zip(got, expect, strict=True):
        if isinstance(ref, tuple):
            assert res == ref, name
            continue
        assert not isinstance(res, tuple) and res.barrier == ref.barrier, (name, res)
        if isinstance(obj, BinaryMatrix):
            assert res.target != 0 and obj.times_vector(res.target) == 0, name
            sectors = [(obj, res, ref)]
        else:
            sectors = []
            pairs = (("X", res.x_result, ref.x_result), ("Z", res.z_result, ref.z_result))
            for sector, r, rr in pairs:
                validate_logical_witness(obj, r.target, sector)
                sectors.append((distance_mod._sector_checks(obj, sector)[0], r, rr))
        for checks, r, rr in sectors:
            assert r.barrier == rr.barrier, name
            assert _replay(checks.transpose().rows, r.path) == (r.target, r.barrier), name
    assert {name for name, _, _ in got} == set(fixture_names())


def test_newman_moore_search_stops_when_a_codeword_joins():
    # settling the whole barrier level before the first codeword pops took
    # 34,096 states; stopping when one joins the level took 8,850 popping
    # the smallest state first, and alternating with the heaviest takes 674
    nm = ClassicalGenerator(parse_poly("1 + x + y"))
    m = classical_parity_matrix(nm, torus(nm.poly.context, 6, 6))
    res = classical_code_barrier(m, cap_n=64, want_path=True)
    assert (res.barrier, res.explored) == (5, 674)
    assert _replay(m.transpose().rows, res.path) == (res.target, 5)


def _haah_x_barrier(*sizes):
    spec = specfile.parse_spec_file(fixture_path("haah"))
    inst = instantiate(spec.two_block(), torus(spec.context, *sizes))
    res = sector_barrier(inst, "X", cap_n=inst.n, want_path=True)
    checks = distance_mod._sector_checks(inst, "X")[0]
    assert _replay(checks.transpose().rows, res.path) == (res.target, res.barrier)
    return res


def test_haah_barrier_where_smallest_first_settles_a_million_states():
    # smallest-first settled 1,213,951 states here; the target is the
    # all-ones logical, reached by a 114-flip path that revisits bits
    res = _haah_x_barrier(3, 3, 4)
    assert (res.barrier, res.explored, res.target) == (4, 316, (1 << 72) - 1)
    assert len(res.path) == 114


def test_haah_barrier_where_heaviest_first_settles_half_a_million_states():
    # smallest-first needs 149 states here, heaviest-first alone 475k
    res = _haah_x_barrier(3, 4, 4)
    assert (res.barrier, res.explored) == (4, 291)
