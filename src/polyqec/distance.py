"""Minimum-distance search for instantiated CSS codes.

Exact distances come from Brouwer–Zimmermann enumeration of the relevant
kernel (Zimmermann 1996; Grassl 2006; White & Grassl 2006 for quantum
codes) on one information set, each next pivot taken from the block of |G|
columns that holds fewer so far; a is the most one block holds.  Level w
visits every w-subset of the m rows.  A translation maps logicals to
logicals of the same weight, and a logical no translate of which was
visited meets each of the |G| translates of the set in more than w columns,
so it weighs at least ⌈(w + 1)|G| / a⌉.  The search stops once that bound
exceeds the best weight: every minimum-weight logical then has a visited
translate, so the smallest integer over their translates is the witness,
whatever the basis or the visiting order.  Without a group the bound is
w + 1.  The work is capped per sector in combinations
(``_COMBINATION_CAP``), checked before each level starts.

At practical sizes a seeded information-set walk gives upper bounds: each
worker stream keeps the kernel basis of each sector in Gauss–Jordan form,
moves it to a neighbouring information set by random pivot swaps every round
(``_InformationSetWalk``), and inspects the rows (and sums of light row
pairs) for low-weight logical operators.  The worker streams run in parallel
processes once the job is large enough to pay for the round trip; they are
merged in worker order, so the result is the one a sequential run of the
streams gives.

Sector conventions, held by ``_sector_checks`` alone: an X-type logical is v
with HZ*v = 0 and v outside the row space of HX; symmetrically for Z.  Both
sectors have the same distance, so ``exact_distance`` searches X only.  A
logical's signature is its pairing with the representative rows of
``logical_space``.  A classical codeword is a logical with unit signatures:
each kernel basis vector gets its own signature bit, so any nonzero
combination counts, and ``exact_classical_distance`` runs the same
enumeration.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .instantiate import BinaryMatrix, CodeInstance, _translates
from .lattice import QuotientGroup

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
_PAIR_POOL = 16  # lightest rows of a walk round whose pairwise sums are candidates
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
    # kernel combinations an exact search visited in the X sector: a work
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


def _take_pivot(rows: list[int], r: int, bit: int) -> bool:
    """Swap a row at index r or later that holds ``bit`` into place r and
    pivot on it; False when no such row holds it."""
    for t in range(r, len(rows)):
        if rows[t] & bit:
            rows[r], rows[t] = rows[t], rows[r]
            _pivot(rows, r, bit)
            return True
    return False


def _eliminate(rows: list[int], columns: list[int]) -> int:
    """Gauss–Jordan on linearly independent ``rows`` in place, pivoting on
    ``columns`` in the given order; returns the pivot columns as a mask.
    Each row then holds exactly one pivot column.  Bits above every column,
    such as a signature packed above the qubit columns, ride along."""
    r = pivots = 0
    for col in columns:
        if r == len(rows):
            break
        if _take_pivot(rows, r, 1 << col):
            pivots |= 1 << col
            r += 1
    return pivots


def _balanced_information_set(rows: list[int], n: int, size: int) -> int:
    """Gauss–Jordan on linearly independent ``rows`` in place, each next pivot
    from the block of ``size`` columns with the fewest pivots so far (the
    first on a tie), in column order; returns the most one block holds."""
    tried, held = list(range(0, n, size)), [0] * (n // size)
    r = 0
    while r < len(rows):
        b = min((b for b in range(len(held)) if tried[b] < (b + 1) * size), key=held.__getitem__)
        tried[b] += 1
        if _take_pivot(rows, r, 1 << (tried[b] - 1)):
            held[b] += 1
            r += 1
    return max(held)


def _visit_level(
    rows: list[int], sigs: list[int], size: int, best_w: int, lightest: list[int]
) -> tuple[int, list[int]]:
    """Fold every ``size``-subset of ``rows`` with a nonzero signature into
    (best_w, lightest): a lower weight starts a new list, an equal one joins it.

    The subsets are walked by prefix XOR; the last index runs as one list
    comprehension over the rows after the prefix.
    """
    m = len(rows)
    skip = best_w + 1  # weight given to a zero-signature combination

    def walk(start: int, depth: int, acc: int, acc_sig: int) -> None:
        nonlocal best_w, lightest
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
                    if w < best_w:
                        best_w, lightest = w, []
                    lightest.append(acc ^ x)
            return
        for i in range(start, m - depth + 1):
            walk(i + 1, depth - 1, acc ^ rows[i], acc_sig ^ sigs[i])

    walk(0, size, 0, 0)
    return best_w, lightest


def _bz_minimum(
    kernel: list[int], sigs: list[int], n: int, group: QuotientGroup | None = None
) -> tuple[int, int | None, int]:
    """(weight, witness, combinations) by Brouwer–Zimmermann enumeration,
    credited over the translations of ``group`` on each block of |G| columns
    (None: the trivial group).  The witness is the smallest integer among the
    lightest kernel combinations with a nonzero signature; (n + 1, None) when
    none has one.  ``combinations`` counts the subsets visited.  Raises
    ``DistanceCapError`` before a level that would pass ``_COMBINATION_CAP``.
    """
    size = 1 if group is None else group.order
    m = len(kernel)
    packed = [v | s << n for v, s in zip(kernel, sigs)]
    spread = _balanced_information_set(packed, n, size)
    full = (1 << n) - 1
    rows, row_sigs = [x & full for x in packed], [x >> n for x in packed]
    best_w, lightest = n + 1, []
    visited = 0
    for w in range(1, m + 1):
        if visited + comb(m, w) > _COMBINATION_CAP:
            raise DistanceCapError(
                f"exact search needs more than {_COMBINATION_CAP} kernel "
                f"combinations (level {w} of kernel dimension {m})"
            )
        visited += comb(m, w)
        best_w, lightest = _visit_level(rows, row_sigs, w, best_w, lightest)
        # the translated bound of the module docstring
        if ((w + 1) * size + spread - 1) // spread > best_w:
            break
    # every lightest combination has a translate among those seen
    witnesses, pending = [], set(lightest)
    while pending:
        orbit = [pending.pop()] if group is None else _translates(group, pending.pop(), n)
        pending.difference_update(orbit)
        witnesses.append(min(orbit))
    return best_w, min(witnesses, default=None), visited


def _sector_minimum(inst: CodeInstance, sector: str, cap_n: int) -> tuple[int, int, int]:
    """(distance, witness, combinations) of one sector."""
    if inst.n > cap_n:
        raise DistanceCapError(f"n={inst.n} exceeds the exact-search cap {cap_n}")
    kernel, reps = logical_space(inst, sector)
    if not reps.rows:
        raise DistanceError("code has no logical operators (k = 0)")
    sigs = [reps.times_vector(v) for v in kernel]
    best_w, best, visited = _bz_minimum(kernel, sigs, inst.n, inst.group)
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
    """Exact code distance from the X sector: the block swap (a, b) -> (b̄, ā)
    maps HX onto HZ and back, so d_X = d_Z."""
    d, witness, visited = _sector_minimum(inst, "X", cap_n)
    return DistanceResult(
        d_upper=d,
        d_lower=d,
        witness=witness,
        witness_sector="X",
        method="exact-brouwer-zimmermann",
        combinations=visited,
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

    def round(self) -> list[int]:
        """Move to the next information set and return its candidates in
        fixed order: the m rows, then the sums of pairs of the ``_PAIR_POOL``
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
        light = sorted(rows, key=lambda x: (x & full).bit_count())[:_PAIR_POOL]
        return rows + [a ^ b for a, b in combinations(light, 2)]


def _stream(
    spaces: dict[str, tuple[list[int], list[int]]],
    n: int,
    seed: int,
    widx: int,
    budget: int,
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
        found = walks[sector].round()[: budget - examined]
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
        (spaces, inst.n, seed, widx, share + (1 if widx < remainder else 0))
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


def exact_classical_distance(
    mat: BinaryMatrix, group: QuotientGroup | None = None
) -> ClassicalDistance:
    """Minimum weight over the nonzero kernel of a classical check matrix; the
    witness is the smallest integer among the lightest codewords.  ``group``
    is the group of ``classical_parity_matrix``; None uses no symmetry."""
    if group is not None and group.order != mat.ncols:
        raise DistanceError("the matrix does not have one column per group element")
    kernel = mat.nullspace()
    if not kernel:
        return ClassicalDistance(value=None, witness=None)
    value, witness, visited = _bz_minimum(
        kernel, [1 << j for j in range(len(kernel))], mat.ncols, group
    )
    if not witness or mat.times_vector(witness):
        raise DistanceError("witness is not a nonzero codeword of the check matrix")
    return ClassicalDistance(value=value, witness=witness, combinations=visited)
