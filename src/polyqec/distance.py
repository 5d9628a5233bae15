"""Minimum-distance search for instantiated CSS codes.

Exact distances come from Brouwer–Zimmermann enumeration of the relevant
kernel (Zimmermann 1996; Grassl 2006; White & Grassl 2006 for quantum
codes).  The kernel basis is put in Gauss–Jordan form on disjoint
information sets, taken greedily over the columns no earlier set used; the
basis from ``nullspace`` is already systematic on its free columns, so the
first set costs no row operation.  A set of rank r_j among m kernel vectors
has m - r_j rows that vanish on its columns, so a combination of s rows
weighs at least s - (m - r_j) there.  Level w visits every w-subset of the
rows of each set whose contribution max(0, w + 1 - (m - r_j)) is positive,
after the levels below it that the set has not visited yet.  Once level w
is done, every kernel vector not yet seen weighs at least the sum of those
contributions over the sets.  The search stops at the first level where that
bound exceeds the best logical weight, so every minimum-weight logical has
been seen by then, and the witness is the smallest integer among them,
whatever the basis or the visiting order.  The work is capped per sector in
combinations (``_COMBINATION_CAP``), checked before each level starts.

At practical sizes a seeded information-set walk gives upper bounds: each
worker stream keeps the kernel basis of each sector in Gauss–Jordan form,
moves it to a neighbouring information set by random pivot swaps every round
(``_InformationSetWalk``), and inspects the rows (and sums of light row
pairs) for low-weight logical operators.  The worker streams run in parallel
processes once the job is large enough to pay for the round trip; they are
merged in worker order, so the result is the one a sequential run of the
streams gives.

Sector conventions, held by ``_sector_checks`` alone: an X-type logical is v
with HZ*v = 0 and v outside the row space of HX; symmetrically for Z.  The
reported code distance is the minimum over the two sectors.  A logical's
signature is its pairing with the representative rows of ``logical_space``.
A classical codeword is a logical with unit signatures: each kernel basis
vector gets its own signature bit, so any nonzero combination counts, and
``exact_classical_distance`` runs the same enumeration.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .instantiate import BinaryMatrix, CodeInstance

__all__ = [
    "DistanceError",
    "DistanceCapError",
    "DistanceResult",
    "ClassicalDistance",
    "exact_distance",
    "exact_sector_distance",
    "random_upper_bound",
    "exact_classical_distance",
    "validate_logical_witness",
    "logical_space",
]

EXACT_CAP_DEFAULT = 28
_COMBINATION_CAP = 1 << 26  # kernel combinations one exact sector may visit
# trials x kernel dimension below which search streams stay in-process: about
# 10-20 ms of search on bb144 and bb288, where a pool round trip (a few ms)
# stops paying off; the first elimination of each stream dominates there
_POOL_MIN_WORK = 1 << 18


class DistanceError(ValueError):
    """Distance search cannot run on this input."""


class DistanceCapError(DistanceError):
    """Exact enumeration would exceed the block-length or work cap."""


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance search with reproducibility metadata."""

    d_upper: int
    d_lower: int | None
    witness: int | None
    witness_sector: str | None
    method: str  # "exact-brouwer-zimmermann" | "random-information-set-walk"
    trials: int | None = None
    seed: int | None = None
    workers: int | None = None
    # kernel combinations an exact search visited, both sectors: a work
    # counter, not part of the answer
    combinations: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassicalDistance:
    """Minimum-weight nonzero kernel element of a classical check matrix."""

    value: int | None  # None: the kernel is trivial, there are no codewords
    witness: int | None
    combinations: int = field(default=0, compare=False)  # work counter


def _sector_checks(inst: CodeInstance, sector: str) -> tuple[BinaryMatrix, BinaryMatrix]:
    """(checks, stabilizers) of a sector: its logicals v have checks*v = 0
    and lie outside rowspace(stabilizers).

    For sector "X" the checks are HZ and the stabilizers HX; for "Z" the
    other way round.
    """
    if sector == "X":
        return inst.hz, inst.hx
    if sector == "Z":
        return inst.hx, inst.hz
    raise DistanceError(f"unknown sector {sector!r}")


def logical_space(inst: CodeInstance, sector: str) -> tuple[list[int], BinaryMatrix]:
    """(kernel basis, opposite-sector logical representatives) for a sector.

    The kernel is ker(checks) and the representatives, the rows of a
    matrix R, span ker(stabilizers) modulo rowspace(checks).  A kernel
    element v is logical iff its signature R*v is nonzero, which turns the
    logical test into a handful of popcounts.
    """
    checks, stabilizers = _sector_checks(inst, sector)
    kernel = checks.nullspace()
    # representatives: kernel of the stabilizers modulo the check rows, reduced
    # against the checks' own reduced rows (``nullspace`` has just built them)
    piv = dict(checks._pivots())

    def reduce_top(v: int) -> int:
        cur = v
        while cur:
            c = cur.bit_length() - 1
            if c not in piv:
                return cur
            cur ^= piv[c]
        return 0

    reps = []
    k = inst.k()
    for v in stabilizers.nullspace():
        if len(reps) == k:  # the quotient has dimension k: nothing more to add
            break
        res = reduce_top(v)
        if res:
            reps.append(v)
            piv[res.bit_length() - 1] = res
    return kernel, BinaryMatrix(reps, inst.n)


def validate_logical_witness(inst: CodeInstance, witness: int, sector: str) -> None:
    """Independent check that a witness is a genuine logical operator."""
    checks, stabilizers = _sector_checks(inst, sector)
    if witness <= 0 or witness >> inst.n:
        raise DistanceError("witness is not a nonzero vector on the qubit columns")
    if checks.times_vector(witness):
        raise DistanceError(f"witness violates the {sector}-sector kernel condition")
    if stabilizers.rowspace_contains(witness):
        raise DistanceError("witness is a stabilizer, not a logical operator")


def _pivot(rows: list[int], r: int, bit: int) -> None:
    """One Gauss–Jordan pivot step: add ``rows[r]`` to every other row that
    holds ``bit``, so ``rows[r]`` alone holds it."""
    p = rows[r]
    rows[:] = [x ^ p if x & bit else x for x in rows]
    rows[r] = p


def _eliminate(rows: list[int], columns: list[int]) -> int:
    """Gauss–Jordan on ``rows`` in place, pivoting on ``columns`` in the given
    order; returns the pivot columns as a mask.

    Pivot rows come first and each holds exactly one pivot column; the rows
    after them hold none.  Bits above every column, such as a signature
    packed above the qubit columns, ride along with their row.
    """
    m = len(rows)
    r = pivots = 0
    for col in columns:
        bit = 1 << col
        for t in range(r, m):
            if rows[t] & bit:
                break
        else:
            continue
        rows[r], rows[t] = rows[t], rows[r]
        _pivot(rows, r, bit)
        pivots |= bit
        r += 1
        if r == m:
            break
    return pivots


def _information_sets(
    kernel: list[int], sigs: list[int], n: int
) -> list[tuple[list[int], list[int], int]]:
    """Disjoint information sets of the kernel: (rows, sigs, rank) per set.

    Each set is the basis in Gauss–Jordan form on pivot columns that no
    earlier set holds, chosen greedily in column order, so a combination of
    s rows holds at least s - (m - rank) of the set's columns.  Non-pivot
    columns stay free for later sets.
    """
    rows = [v | s << n for v, s in zip(kernel, sigs)]
    full = (1 << n) - 1
    used = 0
    sets = []
    while pivots := _eliminate(rows, [c for c in range(n) if not used >> c & 1]):
        used |= pivots
        sets.append(([x & full for x in rows], [x >> n for x in rows], pivots.bit_count()))
    return sets


def _visit_level(
    rows: list[int], sigs: list[int], size: int, best_w: int, best: int | None
) -> tuple[int, int | None]:
    """Fold every ``size``-subset of ``rows`` with a nonzero signature into
    (best_w, best): lower weight wins, then the smaller integer.

    The subsets are walked by prefix XOR; the last index runs as one list
    comprehension over the rows after the prefix.
    """
    m = len(rows)
    skip = best_w + 1  # weight given to a zero-signature combination

    def walk(start: int, depth: int, acc: int, acc_sig: int) -> None:
        nonlocal best_w, best
        if depth == 1:
            tail, tail_sigs = rows[start:], sigs[start:]
            weights = [
                (acc ^ x).bit_count() if s != acc_sig else skip
                for x, s in zip(tail, tail_sigs)
            ]
            if min(weights) > best_w:
                return
            for x, s, w in zip(tail, tail_sigs, weights):
                if s != acc_sig and w <= best_w:
                    x ^= acc
                    if w < best_w or x < best:
                        best_w, best = w, x
            return
        for i in range(start, m - depth + 1):
            walk(i + 1, depth - 1, acc ^ rows[i], acc_sig ^ sigs[i])

    walk(0, size, 0, 0)
    return best_w, best


def _bz_minimum(kernel: list[int], sigs: list[int], n: int) -> tuple[int, int | None, int]:
    """(weight, witness, combinations) by Brouwer–Zimmermann enumeration.

    The witness is the smallest integer among the lightest kernel
    combinations with a nonzero signature; (n + 1, None) when none has one.
    ``combinations`` counts the subsets visited over all sets and levels.
    Raises ``DistanceCapError`` before a level that would take the count
    past ``_COMBINATION_CAP``.
    """
    m = len(kernel)
    sets = _information_sets(kernel, sigs, n)
    done = [0] * len(sets)  # levels each set has visited
    best_w, best = n + 1, None
    visited = 0
    for w in range(1, m + 1):
        # a set of rank r contributes w + 1 - (m - r) to the bound once it
        # has visited every level up to w
        active = [j for j, (_, _, r) in enumerate(sets) if w + r > m]
        cost = sum(comb(m, s) for j in active for s in range(done[j] + 1, w + 1))
        if visited + cost > _COMBINATION_CAP:
            raise DistanceCapError(
                f"exact search needs more than {_COMBINATION_CAP} kernel "
                f"combinations (level {w} of kernel dimension {m})"
            )
        visited += cost
        for j in active:
            rows, row_sigs, _ = sets[j]
            for s in range(done[j] + 1, w + 1):
                best_w, best = _visit_level(rows, row_sigs, s, best_w, best)
            done[j] = w
        if sum(w + 1 - m + sets[j][2] for j in active) > best_w:
            break
    return best_w, best, visited


def _sector_minimum(inst: CodeInstance, sector: str, cap_n: int) -> tuple[int, int, int]:
    """(distance, witness, combinations) of one sector."""
    if inst.n > cap_n:
        raise DistanceCapError(f"n={inst.n} exceeds the exact-search cap {cap_n}")
    kernel, reps = logical_space(inst, sector)
    if not reps.rows:
        raise DistanceError("code has no logical operators (k = 0)")
    sigs = [reps.times_vector(v) for v in kernel]
    best_w, best, visited = _bz_minimum(kernel, sigs, inst.n)
    assert best is not None  # reps nonempty guarantees a logical element exists
    validate_logical_witness(inst, best, sector)
    return best_w, best, visited


def exact_sector_distance(
    inst: CodeInstance, sector: str, *, cap_n: int = EXACT_CAP_DEFAULT
) -> tuple[int, int]:
    """(distance, witness) for one sector; the witness is the smallest integer
    among the sector's minimum-weight logicals."""
    best_w, best, _ = _sector_minimum(inst, sector, cap_n)
    return best_w, best


def exact_distance(inst: CodeInstance, *, cap_n: int = EXACT_CAP_DEFAULT) -> DistanceResult:
    """Exact code distance: the minimum over the X and Z sectors, X on a tie."""
    dx, wx, cx = _sector_minimum(inst, "X", cap_n)
    dz, wz, cz = _sector_minimum(inst, "Z", cap_n)
    if dx <= dz:
        d, w, sec = dx, wx, "X"
    else:
        d, w, sec = dz, wz, "Z"
    return DistanceResult(
        d_upper=d,
        d_lower=d,
        witness=w,
        witness_sector=sec,
        method="exact-brouwer-zimmermann",
        combinations=cx + cz,
    )


class _InformationSetWalk:
    """A walk over information sets of one sector's kernel (Canteaut &
    Chabaud 1998).

    ``rows`` is a basis of ker(checks), each vector v packed with its
    signature as v | R*v << n, in Gauss–Jordan form on the columns of
    ``pivots``: every row holds exactly one of them.  ``free`` lists the
    non-pivot columns some row holds, the columns a swap can bring in.  The
    first round eliminates along a shuffled column order; every later round
    first makes max(1, m // 8) pivot swaps.  A swap draws a free column j
    and a row i that holds it, uniformly over such pairs, and pivots row i
    on j in place of its old pivot column, which becomes free.  When no row
    holds a non-pivot column there is no swap to make, and the walk stays
    where it is.
    """

    def __init__(self, rng: random.Random, kernel: list[int], sigs: list[int], n: int):
        self.rng, self.n = rng, n
        self.rows = [v | s << n for v, s in zip(kernel, sigs)]
        self.pivots = 0
        self.free: list[int] | None = None  # None until the first round

    def round(self, pair_pool: int) -> list[int]:
        """Move to the next information set and return its candidates in
        fixed order: the m rows, then the sums of pairs of the ``pair_pool``
        lightest rows.  Each is a packed kernel element."""
        rows, n, rng, free = self.rows, self.n, self.rng, self.free
        if free is None:
            order = list(range(n))
            rng.shuffle(order)
            self.pivots = _eliminate(rows, order)
            support = 0
            for x in rows:
                support |= x
            nonpivot = support & ~self.pivots
            self.free = [c for c in range(n) if nonpivot >> c & 1]
        elif free:
            for _ in range(max(1, len(rows) // 8)):
                while True:  # ends: every free column is held by some row
                    u, i = rng.randrange(len(free)), rng.randrange(len(rows))
                    if rows[i] >> free[u] & 1:
                        break
                bit = 1 << free[u]
                old = rows[i] & self.pivots
                self.pivots ^= old | bit
                free[u] = old.bit_length() - 1
                _pivot(rows, i, bit)
        full = (1 << n) - 1
        light = sorted(rows, key=lambda x: (x & full).bit_count())[:pair_pool]
        return rows + [a ^ b for a, b in combinations(light, 2)]


def _stream(
    spaces: dict[str, tuple[list[int], list[int]]],
    n: int,
    seed: int,
    widx: int,
    budget: int,
    pair_pool: int,
) -> tuple[int, int | None, str | None]:
    """(best_w, best, best_sector) of one worker stream of ``budget`` trials.

    The stream walks each sector's information sets, the sectors taking
    rounds in turn.  The first candidate of the lowest weight wins; weights
    of n and above never count, so a stream that finds nothing returns
    (n, None, None).
    """
    rng = random.Random(seed * 0x9E3779B1 + widx)
    walks = {s: _InformationSetWalk(rng, *spaces[s], n) for s in ("X", "Z")}
    full = (1 << n) - 1
    best_w, best, best_sector = n, None, None
    examined = 0
    round_idx = 0
    while examined < budget:
        sector = "X" if round_idx % 2 == 0 else "Z"
        found = walks[sector].round(pair_pool)[: budget - examined]
        examined += len(found)
        # a candidate counts only with a nonzero signature, i.e. as a logical
        weights = [(x & full).bit_count() if x >> n else n for x in found]
        w = min(weights)
        if w < best_w:
            best_w, best, best_sector = w, found[weights.index(w)] & full, sector
        round_idx += 1
    return best_w, best, best_sector


_pool = None  # (pid, processes, pool): one lazily forked pool per process


def _run_streams(jobs: list[tuple], processes: int) -> list[tuple]:
    """``_stream`` over ``jobs`` on a fork-context pool, results in job order.

    Forked workers start without re-importing anything.  The pool lives for
    the process; a call that needs more processes replaces it, after joining
    the old pool's threads, so the fork happens without them.
    """
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid or _pool[1] < processes:
        import atexit
        import multiprocessing

        if _pool is not None and _pool[0] == pid:
            _pool[2].terminate()
        else:
            atexit.register(_close_pool)
        _pool = (pid, processes, multiprocessing.get_context("fork").Pool(processes))
    return _pool[2].starmap(_stream, jobs, chunksize=1)


def _close_pool() -> None:
    # before interpreter teardown, where the pool's own finalizer would fail
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].terminate()


def random_upper_bound(
    inst: CodeInstance,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    pair_pool: int = 16,
) -> DistanceResult:
    """Randomized upper bound on the code distance by information-set walks.

    A trial is one candidate codeword examined.  The search is deterministic
    given (seed, trials, workers): each worker runs an independent stream
    derived from the seed, examining its share of the trial budget in a fixed
    order, so enlarging the budget only extends each stream.  The X and Z
    sectors alternate round by round within a stream.

    Above ``_POOL_MIN_WORK`` (trials times the larger kernel dimension) the
    streams run in parallel processes, at most one per core.  They are merged
    in worker order and a later stream replaces the best only when strictly
    lighter, so the result is that of running the streams one after another:
    lowest weight, then lowest worker index, then earliest in the stream.
    """
    if trials < 0:
        raise DistanceError("trials must be nonnegative")
    if workers < 1:
        raise DistanceError("workers must be >= 1")
    spaces = {}
    for sector in ("X", "Z"):
        kernel, reps = logical_space(inst, sector)
        if not reps.rows:
            raise DistanceError("code has no logical operators (k = 0)")
        spaces[sector] = (kernel, [reps.times_vector(v) for v in kernel])
    share, remainder = divmod(trials, workers)
    jobs = [
        (spaces, inst.n, seed, widx, share + (1 if widx < remainder else 0), pair_pool)
        for widx in range(min(workers, trials))
    ]
    processes = min(len(jobs), os.cpu_count() or 1)
    work = trials * max(len(kernel) for kernel, _ in spaces.values())
    if processes < 2 or work < _POOL_MIN_WORK or not hasattr(os, "fork"):
        streams = [_stream(*job) for job in jobs]
    else:
        streams = _run_streams(jobs, processes)
    best_w, best, best_sector = inst.n, None, None
    for w, mask, sector in streams:
        if w < best_w:
            best_w, best, best_sector = w, mask, sector
    if best is not None:
        validate_logical_witness(inst, best, best_sector)
    return DistanceResult(
        d_upper=best_w,
        d_lower=None,
        witness=best,
        witness_sector=best_sector,
        method="random-information-set-walk",
        trials=trials,
        seed=seed,
        workers=workers,
    )


def exact_classical_distance(mat: BinaryMatrix) -> ClassicalDistance:
    """Minimum weight over the nonzero kernel of a classical check matrix; the
    witness is the smallest integer among the lightest codewords."""
    kernel = mat.nullspace()
    if not kernel:
        return ClassicalDistance(value=None, witness=None)
    value, witness, visited = _bz_minimum(
        kernel, [1 << j for j in range(len(kernel))], mat.ncols
    )
    return ClassicalDistance(value=value, witness=witness, combinations=visited)
