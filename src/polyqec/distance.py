"""Minimum-distance search for instantiated CSS codes.

Exact distances come from Brouwer–Zimmermann enumeration of the relevant
kernel (Zimmermann 1996; Grassl 2006; White & Grassl 2006 for quantum codes)
on one information set (``_information_set``), each next pivot taken from
the block of |G| columns that holds fewest so far; a is the most one block
holds.  Level w visits every w-subset of the m rows.  A translation maps
logicals to logicals of the same weight, and a logical no translate of which
was visited meets each of the |G| translates of the set in more than w
columns, so it weighs at least ⌈(w + 1)|G| / a⌉.  The search stops once that
bound exceeds the best weight: every minimum-weight logical then has a
visited translate, so the smallest integer over their translates is the
witness, whatever the basis or the visiting order.  Without a group the
bound is w + 1.  The work is capped per sector in combinations
(``_COMBINATION_CAP``), checked before each level starts.

At practical sizes the randomized search gives upper bounds.  It first looks
for logicals on one block (``_one_block_logical``): HZ = [Ḡ | F̄], so the
kernels of its two column blocks, the classical codes of ḡ and f̄ on G, placed
on the left or the right block, lie in the X kernel, and those outside the
stabilizers are logicals; each kernel basis, already in Gauss–Jordan form in
column order, gives the candidates of one walk round.  In a hypergraph
product, which the paper takes as the parent of every two-block code, a
lightest logical is of this kind; on a compactified code they bound d from
above (Wang & Pryadko 2022 bound GB-code distances through the same cyclic
codes).  Then a seeded information-set walk: each worker stream keeps the X
kernel basis in Gauss–Jordan form, moves it to a neighbouring information set
by random pivot swaps every round (``_InformationSetWalk``), and inspects the
rows (and sums of light row pairs, ``_candidates``) for low-weight logical
operators.  The Gauss–Jordan rows on an order's first information set depend
only on the kernel and the order, so a stream's first full round reduces
sparse rows spanning ker HZ, HX's rows and the ψ images of the
representatives R (below), in relabelled columns (``_systematic``).  A first
round given fewer trials than the kernel dimension reduces only the rows it
examines, and ends the stream.  The worker streams run in parallel processes
once the job is large enough to pay for the round trip; they are merged in
worker order after the one-block candidate, so the result is the one a
sequential run of the streams gives.

One logical frame: an X-type logical is v with HZ*v = 0 and v outside the row
space of HX, symmetrically for Z.  The block swap ψ(a, b) = (b̄, ā)
(``_psi_bits``) maps HX onto HZ and back, and ker HX onto ker HZ, so both
sectors have the same distance, and every search here runs on the X sector's
frame from ``logical_space``: the kernel of HZ, representative rows R, and the
one k = 0 refusal; only ``validate_logical_witness`` reads a sector, to
re-check a witness against that sector's checks and stabilizers.  The searches
walk plain kernel vectors and test one for being a logical, a nonzero pairing
with R, only when it would become the answer: an enumerated combination no
heavier than the best so far, a walk or one-block candidate strictly lighter.
A classical codeword is any nonzero kernel combination, so
``exact_classical_distance`` runs the same enumeration with no test and
returns the same ``DistanceResult``, with no witness sector.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .instantiate import BinaryMatrix, CodeInstance, _columns, _reduce, _translates, support_bits
from .lattice import QuotientGroup

__all__ = [
    "DistanceError",
    "DistanceCapError",
    "DistanceResult",
    "exact_distance",
    "random_upper_bound",
    "exact_classical_distance",
    "validate_logical_witness",
    "logical_space",
]

EXACT_CAP_DEFAULT = 28
_EXACT_METHOD = "exact-brouwer-zimmermann"
_COMBINATION_CAP = 1 << 26  # kernel combinations one exact sector may visit
_PAIR_POOL = 16  # lightest rows of a walk round whose pairwise sums are candidates
# trials x kernel dimension below which search streams stay in-process: about
# 4-6 ms of search on bb144 and 8-12 ms on bb288 in one process, where a pool
# round trip (a few ms) takes about as long as running two streams at once saves
_POOL_MIN_WORK = 1 << 18
MAX_WORKERS = 1024  # search streams, each a job built before the search starts


class DistanceError(ValueError):
    """Distance search cannot run on this input."""


class DistanceCapError(DistanceError):
    """Exact enumeration would exceed the block-length or work cap."""


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance search with reproducibility metadata.  A
    classical distance has no witness sector, and d_upper = d_lower = None
    when its kernel is trivial."""

    d_upper: int | None
    d_lower: int | None
    witness: int | None
    witness_sector: str | None
    method: str  # _EXACT_METHOD | "random-x-one-block-information-set-walk"
    trials: int | None = None
    seed: int | None = None
    workers: int | None = None
    # kernel combinations an exact search visited in the X sector (the one
    # block of a classical code): a work counter, not part of the answer
    combinations: int | None = field(default=None, compare=False)


def logical_space(inst: CodeInstance) -> tuple[list[int], BinaryMatrix]:
    """(kernel basis, representatives) of the X sector: the logical frame
    every search runs on.  Raises ``DistanceError`` when k = 0, before
    either nullspace is built.

    The kernel is ker HZ and the representatives, the rows of a matrix R,
    span ker HX modulo rowspace(HZ).  A kernel element v is logical iff R*v
    is nonzero, a handful of popcounts.  The Z sector is the X sector of the
    block-swapped instance (module docstring), so there is no Z frame.
    """
    k = inst.k()
    if k == 0:
        raise DistanceError("code has no logical operators (k = 0)")
    kernel = inst.hz.nullspace()
    # representatives: kernel of HX modulo the rows of HZ, reduced against
    # HZ's own reduced rows (``nullspace`` has just built them)
    piv = dict(inst.hz._pivots())
    reps = []
    for v in inst.hx.nullspace():
        if len(reps) == k:  # the quotient has dimension k: nothing more to add
            break
        res = _reduce(piv, v)
        if res:
            reps.append(v)
            piv[res.bit_length() - 1] = res
    return kernel, BinaryMatrix(reps, inst.n)


def _psi_bits(inst: CodeInstance) -> list[int]:
    """ψ as a bit map: qubit h of either block goes to -h of the other."""
    neg = [0]
    for r in inst.group._radices:
        neg = [h * r + -x % r for h in neg for x in range(r)]
    return [len(neg) + j for j in neg] + neg


def validate_logical_witness(inst: CodeInstance, witness: int, sector: str) -> None:
    """Independent check that a witness is a genuine logical operator of a
    sector: v with checks*v = 0 outside rowspace(stabilizers), the checks
    being HZ and the stabilizers HX for sector "X", the other way round for
    "Z"."""
    if sector not in ("X", "Z"):
        raise DistanceError(f"unknown sector {sector!r}")
    checks, stabilizers = (inst.hz, inst.hx) if sector == "X" else (inst.hx, inst.hz)
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


def _information_set(rows: list[int], blocks: list[list[int]]) -> tuple[int, list[int]]:
    """Gauss–Jordan on linearly independent ``rows`` in place, each next pivot
    from the block with the fewest pivots so far (the first on a tie), in
    that block's column order; returns the pivot columns as a mask and the
    pivots each block holds.  Each row then holds exactly one pivot column.

    A column is looked for in the rows not yet pivoted, ``rows[r:]``, only
    when it lies in ``rest``, their OR when last taken (at first every
    column): a pivot only adds one of them to others, so the OR only
    shrinks, and ``rest`` is taken again after a column none of them holds.
    """
    tried, held = [0] * len(blocks), [0] * len(blocks)
    r, pivots, rest = 0, 0, -1
    while r < len(rows):
        b = min((b for b, cols in enumerate(blocks) if tried[b] < len(cols)), key=held.__getitem__)
        bit = 1 << blocks[b][tried[b]]
        tried[b] += 1
        if not rest & bit:
            continue
        for t in range(r, len(rows)):
            if rows[t] & bit:
                rows[r], rows[t] = rows[t], rows[r]
                _pivot(rows, r, bit)
                pivots |= bit
                held[b] += 1
                r += 1
                break
        else:
            rest = reduce(or_, rows[r:])
    return pivots, held


def _systematic(span: list[int], n: int, order: list[int]) -> tuple[list[int], int]:
    """``_information_set(rows, [order])``'s rows and pivot mask for any rows
    spanning the space of ``span``, which need not be independent.

    With column ``order[q]`` relabelled as bit n - 1 - q, the top-bit
    elimination of ``BinaryMatrix._pivots`` pivots on the first independent
    columns of ``order``.  Reduced rows are unique for the space and the
    pivots, so they are those rows, earliest pivot first, once mapped back:
    pivot columns hold one row each, the free ones are read by ``_columns``.
    """
    place = [n - 1 - q for q in sorted(range(n), key=order.__getitem__)]
    bit = [1 << p for p in place]
    relabelled = [sum(map(bit.__getitem__, support_bits(v))) for v in span]
    piv = BinaryMatrix(relabelled, n)._pivots()
    tops = sorted(piv, reverse=True)
    cols = [0] * n
    for i, t in enumerate(tops):
        cols[order[n - 1 - t]] = 1 << i
    free = [c for c in range(n) if not cols[c]]
    for c, col in zip(free, _columns([piv[t] for t in tops], n, [place[c] for c in free])):
        cols[c] = col
    return _columns(cols, len(tops), range(len(tops))), sum(1 << order[n - 1 - t] for t in tops)


def _visit_level(
    rows: list[int], reps: BinaryMatrix | None, size: int, best_w: int, lightest: list[int]
) -> tuple[int, list[int]]:
    """Fold every ``size``-subset of ``rows`` that is a logical (any nonzero
    one when ``reps`` is None) into (best_w, lightest): a lower weight starts
    a new list, an equal one joins it.

    The subsets are walked by prefix XOR; the last index runs as one list
    comprehension over the rows after the prefix.  Only a combination no
    heavier than the best so far is tested against ``reps``.
    """
    m = len(rows)

    def walk(start: int, depth: int, acc: int) -> None:
        nonlocal best_w, lightest
        if depth == 1:
            tail = rows[start:]
            weights = [(acc ^ x).bit_count() for x in tail]
            if min(weights) > best_w:
                return
            for x, w in zip(tail, weights):
                if w <= best_w and (reps is None or reps.times_vector(acc ^ x)):
                    if w < best_w:
                        best_w, lightest = w, []
                    lightest.append(acc ^ x)
            return
        for i in range(start, m - depth + 1):
            walk(i + 1, depth - 1, acc ^ rows[i])

    walk(0, size, 0)
    return best_w, lightest


def _bz_minimum(
    kernel: list[int], reps: BinaryMatrix | None, n: int, group: QuotientGroup | None = None
) -> tuple[int, int | None, int]:
    """(weight, witness, combinations) by Brouwer–Zimmermann enumeration,
    credited over the translations of ``group`` on each block of |G| columns
    (None: the trivial group).  The witness is the smallest integer among the
    lightest kernel combinations v with reps*v nonzero (every nonzero one
    when ``reps`` is None); (n + 1, None) when there is none.
    ``combinations`` counts the subsets visited.  Raises ``DistanceCapError``
    before a level that would pass ``_COMBINATION_CAP``.
    """
    size = 1 if group is None else group.order
    m = len(kernel)
    rows = list(kernel)
    _, held = _information_set(rows, [list(range(s, s + size)) for s in range(0, n, size)])
    spread = max(held)
    best_w, lightest = n + 1, []
    visited = 0
    for w in range(1, m + 1):
        if visited + comb(m, w) > _COMBINATION_CAP:
            raise DistanceCapError(
                f"exact search needs more than {_COMBINATION_CAP} kernel "
                f"combinations (level {w} of kernel dimension {m})"
            )
        visited += comb(m, w)
        best_w, lightest = _visit_level(rows, reps, w, best_w, lightest)
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


def exact_distance(inst: CodeInstance, *, cap_n: int = EXACT_CAP_DEFAULT) -> DistanceResult:
    """Exact code distance from the X sector, which has the code's distance
    (module docstring).  The witness is the smallest integer among the X
    sector's minimum-weight logicals."""
    if inst.n > cap_n:
        raise DistanceCapError(f"n={inst.n} exceeds the exact-search cap {cap_n}")
    kernel, reps = logical_space(inst)
    d, witness, visited = _bz_minimum(kernel, reps, inst.n, inst.group)
    assert witness is not None  # k > 0 guarantees a logical element exists
    validate_logical_witness(inst, witness, "X")
    return DistanceResult(d, d, witness, "X", _EXACT_METHOD, combinations=visited)


def _candidates(rows: list[int]) -> list[int]:
    """The candidates of one Gauss–Jordan basis, in fixed order: the rows,
    then the sums of pairs of the ``_PAIR_POOL`` lightest rows."""
    light = sorted(rows, key=int.bit_count)[:_PAIR_POOL]
    return rows + [a ^ b for a, b in combinations(light, 2)]


def _lighter_logical(
    candidates: list[int], reps: BinaryMatrix, best_w: int, best: int | None
) -> tuple[int, int | None]:
    """Fold ``candidates`` into (best_w, best): a logical strictly lighter
    than the best so far replaces it, so the first of the lowest weight
    wins.  Only such a candidate is tested against ``reps``."""
    for x in candidates:
        if x.bit_count() < best_w and reps.times_vector(x):
            best_w, best = x.bit_count(), x
    return best_w, best


def _one_block_logical(inst: CodeInstance, reps: BinaryMatrix) -> tuple[int, int | None]:
    """(weight, witness) of the lightest X logical supported on one block
    among the candidates of each block's classical kernel, the first found
    on a tie; (n, None) when none of them is a logical.

    The classical matrices are HZ's column blocks, HZ = [Ḡ | F̄]: (u, 0) lies
    in ker HZ exactly when Ḡu = 0, and (0, v) exactly when F̄v = 0, the
    codewords of the classical codes of ḡ and f̄ on G.  Each ``nullspace``
    basis is already in Gauss–Jordan form in column order (every row's
    lowest bit is a free column no other row holds, in ascending order), so
    it gives the candidates of one walk round (``_candidates``) as it is;
    ``reps`` are the X sector's representatives from ``logical_space``.
    """
    size = inst.group.order
    mask = (1 << size) - 1
    best = (inst.n, None)
    for offset in (0, size):
        block = BinaryMatrix([r >> offset & mask for r in inst.hz.rows], size)
        rows = [u << offset for u in block.nullspace()]
        best = _lighter_logical(_candidates(rows), reps, *best)
    return best


class _InformationSetWalk:
    """A walk over information sets of one sector's kernel (Canteaut &
    Chabaud 1998); the search walks the X sector's.

    ``rows`` is a basis of ker(checks) in Gauss–Jordan form on the columns
    of ``pivots``: every row holds exactly one of them.  ``free`` lists the
    non-pivot columns some row holds, the columns a swap can bring in.  The
    first round reduces ``span``, rows spanning the kernel (its basis when
    None), along a shuffled column order (``_systematic``); every later
    round first makes max(1, m // 8) pivot swaps.  A swap draws a free
    column j and a row i that holds it, uniformly over such pairs, and
    pivots row i on j in place of its old pivot column, which becomes free.
    When no row holds a non-pivot column there is no swap to make, and the
    walk stays where it is.  The walk only proposes candidates; which of
    them are logicals is the caller's test.
    """

    def __init__(
        self, rng: random.Random, kernel: list[int], n: int, span: list[int] | None = None
    ):
        self.rng, self.n = rng, n
        self.rows, self.span = kernel, kernel if span is None else span
        self.pivots = 0
        self.free: list[int] | None = None  # None until the first full round

    def round(self, limit: int) -> list[int]:
        """Move to the next information set and return at most ``limit`` of
        its candidates (``_candidates``), each a kernel element.

        A first round with ``limit`` below the kernel dimension m reduces the
        first ``limit`` rows among themselves along the shuffled order and
        returns them, each holding exactly one of ``limit`` pivot columns.
        The caller examines no more candidates, so eliminating the whole
        basis would be wasted work; the walk stays unstarted.
        """
        rows, n, rng, free = self.rows, self.n, self.rng, self.free
        if free is None:
            order = list(range(n))
            rng.shuffle(order)
            if limit < len(rows):
                head = rows[:limit]
                self.pivots, _ = _information_set(head, [order])
                return head
            self.rows, self.pivots = _systematic(self.span, n, order)
            rows = self.rows
            self.free = support_bits(reduce(or_, rows, 0) & ~self.pivots)
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
        return _candidates(rows)[:limit]


def _stream(
    kernel: list[int], span: list[int], reps: BinaryMatrix, seed: int, widx: int, budget: int
) -> tuple[int, int | None]:
    """(best_w, best) of one worker stream of ``budget`` trials.

    The stream walks the information sets of the X kernel, which ``span``
    spans (``_InformationSetWalk``), each round given the budget left.  The
    first logical of the lowest weight wins: a candidate is tested against
    ``reps`` only when it is strictly lighter than the best so far.  Weights
    of n = ``reps.ncols`` and above never count, so a stream that finds
    nothing returns (n, None).
    """
    walk = _InformationSetWalk(random.Random(seed * 0x9E3779B1 + widx), kernel, reps.ncols, span)
    best = (walk.n, None)
    examined = 0
    while examined < budget:
        found = walk.round(budget - examined)
        examined += len(found)
        best = _lighter_logical(found, reps, *best)
    return best


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
    """Randomized upper bound on the code distance: one-block logicals, then
    information-set walks.

    With a nonzero budget the one-block candidates come first
    (``_one_block_logical``): the rows of each block's classical kernel in
    Gauss–Jordan form, and sums of light row pairs.  They are deterministic
    and are not trials; the lightest of them that is a logical seeds the
    best.

    A trial is one candidate codeword examined by a walk.  The search is
    deterministic given (seed, trials, workers): each worker runs an
    independent stream derived from the seed, examining its share of the
    trial budget in a fixed order.  Every stream walks the X sector, which
    has the code's distance (module docstring), each round given the trials
    left.  A first round given fewer trials than the kernel dimension m is
    the stream's last: it reduces only the rows it examines, among
    themselves, so its candidates depend on the budget.  Enlarging the
    budget only extends a stream whose first round had at least m trials
    left.  Such a round reduces the rows of HX and the ψ images of the
    representatives (module docstring), built only when one is run.

    Above ``_POOL_MIN_WORK`` (trials times the kernel dimension) the
    streams run in parallel processes, at most one per core.  They are merged
    after the one-block candidate, in worker order, and each replaces the
    best only when strictly lighter, so the result is that of running the
    streams one after another: lowest weight, then the one-block candidate,
    then lowest worker index, then earliest in the stream.
    """
    if trials < 0:
        raise DistanceError("trials must be nonnegative")
    if workers < 1:
        raise DistanceError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise DistanceError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    kernel, reps = logical_space(inst)
    seeded = [_one_block_logical(inst, reps)] if trials else []
    share, remainder = divmod(trials, workers)
    span = kernel
    if share + (remainder > 0) >= len(kernel):  # some stream makes a full first round
        psi = _psi_bits(inst)
        span = [*inst.hx.rows, *(sum(1 << psi[q] for q in support_bits(v)) for v in reps.rows)]
    jobs = [
        (kernel, span, reps, seed, widx, share + (1 if widx < remainder else 0))
        for widx in range(min(workers, trials))
    ]
    processes = min(len(jobs), os.cpu_count() or 1)
    if processes < 2 or trials * len(kernel) < _POOL_MIN_WORK or not hasattr(os, "fork"):
        streams = [_stream(*job) for job in jobs]
    else:
        streams = _run_streams(jobs, processes)
    best_w, best = inst.n, None
    for w, mask in seeded + streams:
        if w < best_w:
            best_w, best = w, mask
    if best is not None:
        validate_logical_witness(inst, best, "X")
    return DistanceResult(
        d_upper=best_w,
        d_lower=None,
        witness=best,
        witness_sector=None if best is None else "X",
        method="random-x-one-block-information-set-walk",
        trials=trials,
        seed=seed,
        workers=workers,
    )


def exact_classical_distance(
    mat: BinaryMatrix, group: QuotientGroup | None = None
) -> DistanceResult:
    """Minimum weight over the nonzero kernel of a classical check matrix, as
    d_upper = d_lower (None on a trivial kernel); the witness is the smallest
    integer among the lightest codewords.  ``group`` is the group of
    ``classical_parity_matrix``; None uses no symmetry."""
    if group is not None and group.order != mat.ncols:
        raise DistanceError("the matrix does not have one column per group element")
    kernel = mat.nullspace()
    if not kernel:
        return DistanceResult(None, None, None, None, _EXACT_METHOD, combinations=0)
    d, witness, visited = _bz_minimum(kernel, None, mat.ncols, group)
    if not witness or mat.times_vector(witness):
        raise DistanceError("witness is not a nonzero codeword of the check matrix")
    return DistanceResult(d, d, witness, None, _EXACT_METHOD, combinations=visited)
