"""Minimum-distance search for instantiated CSS codes.

Exact distances come from a full Gray-code sweep of the relevant kernel,
feasible only at small block length.  The sweep runs in blocks: the
combinations of the low kernel vectors are tabulated once, and each step of
the high part weighs a whole block with one list comprehension, visiting the
states in the same order as a one-state-at-a-time Gray sweep.  At practical
sizes a seeded information-set search gives upper bounds: repeatedly
re-eliminate the kernel basis along a random column order and inspect the
resulting sparse-ish rows (and sums of light row pairs) for low-weight
logical operators.  Its worker streams run in parallel processes once the
job is large enough to pay for the round trip; they are merged in worker
order, so the result is the one a sequential run of the streams gives.

Sector conventions, held by ``_sector_checks`` alone: an X-type logical is v
with HZ*v = 0 and v outside the row space of HX; symmetrically for Z.  The
reported code distance is the minimum over the two sectors.  A logical's
signature is its pairing with the representative rows of ``logical_space``.
A classical codeword is a logical with unit signatures: each kernel basis
vector gets its own signature bit, so any nonzero combination counts, and
``exact_classical_distance`` runs the same sweep.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

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
_KERNEL_EXP_CAP = 26  # hard cap on 2^dim enumeration states
_GRAY_BLOCK = 12  # low kernel vectors tabulated once by the Gray-code sweep
# trials x kernel dimension below which search streams stay in-process: a few
# tens of ms of search, where a pool round trip (a few ms) stops paying off
_POOL_MIN_WORK = 1 << 18


class DistanceError(ValueError):
    """Distance search cannot run on this input."""


class DistanceCapError(DistanceError):
    """Exact enumeration would exceed the configured size caps."""


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance search with reproducibility metadata."""

    d_upper: int
    d_lower: int | None
    witness: int | None
    witness_sector: str | None
    method: str  # "exact-enumeration" | "random-information-set"
    trials: int | None = None
    seed: int | None = None
    workers: int | None = None


@dataclass(frozen=True)
class ClassicalDistance:
    """Minimum-weight nonzero kernel element of a classical check matrix."""

    value: int | None  # None: the kernel is trivial, there are no codewords
    witness: int | None


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
    # representatives: kernel of the stabilizers modulo the check rows
    piv: dict[int, int] = {}

    def reduce_top(v: int) -> int:
        cur = v
        while cur:
            c = cur.bit_length() - 1
            if c not in piv:
                return cur
            cur ^= piv[c]
        return 0

    for row in checks.rows:
        res = reduce_top(row)
        if res:
            piv[res.bit_length() - 1] = res
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


def _gray_minimum(kernel: list[int], sigs: list[int], n: int) -> tuple[int, int | None]:
    """(weight, state) of the first lightest kernel combination with a nonzero
    signature, over the combinations i = 1 .. 2^m - 1 in Gray-code order.

    The low ``_GRAY_BLOCK`` basis vectors are tabulated once in Gray order;
    the high part steps in Gray order and, by the reflected-code property,
    every odd high step walks the low table backwards, so the states come in
    the order of a per-state Gray sweep.  Combinations with a zero signature
    weigh n + 1.  Returns (n + 1, None) when no combination qualifies.
    """
    b = min(len(kernel), _GRAY_BLOCK)
    low, low_sigs = [0], [0]
    for v, s in zip(kernel[:b], sigs[:b]):
        low += [x ^ v for x in reversed(low)]
        low_sigs += [x ^ s for x in reversed(low_sigs)]
    tables = ((low, low_sigs), (low[::-1], low_sigs[::-1]))
    best_w, best = n + 1, None
    high = high_sig = 0
    for h in range(1 << (len(kernel) - b)):
        if h:
            j = b + (h & -h).bit_length() - 1
            high ^= kernel[j]
            high_sig ^= sigs[j]
        states, state_sigs = tables[h & 1]
        weights = [
            (high ^ x).bit_count() if s != high_sig else n + 1
            for x, s in zip(states, state_sigs)
        ]
        w = min(weights)
        if w < best_w:
            best_w, best = w, high ^ states[weights.index(w)]
    return best_w, best


def exact_sector_distance(
    inst: CodeInstance, sector: str, *, cap_n: int = EXACT_CAP_DEFAULT
) -> tuple[int, int]:
    """(distance, witness) for one sector by full kernel enumeration."""
    if inst.n > cap_n:
        raise DistanceCapError(f"n={inst.n} exceeds the exact-search cap {cap_n}")
    kernel, reps = logical_space(inst, sector)
    if not reps.rows:
        raise DistanceError("code has no logical operators (k = 0)")
    m = len(kernel)
    if m > _KERNEL_EXP_CAP:
        raise DistanceCapError(f"kernel dimension {m} exceeds 2^{_KERNEL_EXP_CAP} states")
    best_w, best = _gray_minimum(kernel, [reps.times_vector(v) for v in kernel], inst.n)
    assert best is not None  # reps nonempty guarantees a logical element exists
    validate_logical_witness(inst, best, sector)
    return best_w, best


def exact_distance(inst: CodeInstance, *, cap_n: int = EXACT_CAP_DEFAULT) -> DistanceResult:
    """Exact code distance: the minimum over the X and Z sectors."""
    dx, wx = exact_sector_distance(inst, "X", cap_n=cap_n)
    dz, wz = exact_sector_distance(inst, "Z", cap_n=cap_n)
    if dx <= dz:
        d, w, sec = dx, wx, "X"
    else:
        d, w, sec = dz, wz, "Z"
    return DistanceResult(
        d_upper=d, d_lower=d, witness=w, witness_sector=sec, method="exact-enumeration"
    )


def _information_set_round(
    rng: random.Random,
    kernel: list[int],
    sigs: list[int],
    n: int,
    pair_pool: int,
):
    """One re-elimination round; yields (mask, sig) candidates in fixed order."""
    rows = list(kernel)
    row_sigs = list(sigs)
    m = len(rows)
    order = list(range(n))
    rng.shuffle(order)
    r = 0
    for col in order:
        bit = 1 << col
        pivot = next((t for t in range(r, m) if rows[t] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        row_sigs[r], row_sigs[pivot] = row_sigs[pivot], row_sigs[r]
        for t in range(m):
            if t != r and rows[t] & bit:
                rows[t] ^= rows[r]
                row_sigs[t] ^= row_sigs[r]
        r += 1
        if r == m:
            break
    for mask, s in zip(rows, row_sigs):
        yield mask, s
    light = sorted(range(m), key=lambda t: rows[t].bit_count())[:pair_pool]
    for a in range(len(light)):
        for b in range(a + 1, len(light)):
            ta, tb = light[a], light[b]
            yield rows[ta] ^ rows[tb], row_sigs[ta] ^ row_sigs[tb]


def _stream(
    spaces: dict[str, tuple[list[int], list[int]]],
    n: int,
    seed: int,
    widx: int,
    budget: int,
    pair_pool: int,
) -> tuple[int, int | None, str | None]:
    """(best_w, best, best_sector) of one worker stream of ``budget`` trials.

    The first candidate of the lowest weight wins; weights of n and above
    never count, so a stream that finds nothing returns (n, None, None).
    """
    rng = random.Random(seed * 0x9E3779B1 + widx)
    best_w, best, best_sector = n, None, None
    examined = 0
    round_idx = 0
    while examined < budget:
        sector = "X" if round_idx % 2 == 0 else "Z"
        kernel, sigs = spaces[sector]
        for mask, sig in _information_set_round(rng, kernel, sigs, n, pair_pool):
            examined += 1
            if sig and mask:
                w = mask.bit_count()
                if w < best_w:
                    best_w, best, best_sector = w, mask, sector
            if examined >= budget:
                break
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
    """Randomized information-set upper bound on the code distance.

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
        method="random-information-set",
        trials=trials,
        seed=seed,
        workers=workers,
    )


def exact_classical_distance(
    mat: BinaryMatrix, *, cap_dim: int = _KERNEL_EXP_CAP
) -> ClassicalDistance:
    """Minimum weight over the nonzero kernel of a classical check matrix."""
    kernel = mat.nullspace()
    m = len(kernel)
    if m == 0:
        return ClassicalDistance(value=None, witness=None)
    if m > cap_dim:
        raise DistanceCapError(f"kernel dimension {m} exceeds 2^{cap_dim} states")
    value, witness = _gray_minimum(kernel, [1 << j for j in range(m)], mat.ncols)
    return ClassicalDistance(value=value, witness=witness)
