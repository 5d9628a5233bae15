"""Exact energy barriers for small instantiated codes.

The energy of an error pattern v against a check matrix H is the number of
violated checks, wt(H*v).  A path is a sequence of states each differing from
the previous by one bit flip; its cost is the maximum energy along it.  The
barrier of a target is the minimum cost over paths from 0 to the target, and
the code barrier is the minimum over all logical targets of a sector.

Search is bottleneck Dijkstra over the implicit 2^n flip graph with
bit-packed states and incremental syndromes, run one bottleneck level at a
time.  Every lower level is finished before a level starts, so the first
logical state to join a level settles the sector barrier without
enumerating targets; that state is the reported target.  Inside a level
the search only tests reachability, so any pop order is exact: pops
alternate between the smallest pending state and the heaviest one, which
reaches a goal early both where goals are light and where they are heavy.
A target can be heavy: on haah 3x3x4 the X target is the all-ones logical,
reached by a 114-flip path that revisits bits.  A neighbour whose energy is
above the current level is not stored: memory holds the settled states and
the pending states of one level, and each new level starts with one rescan
of the settled states for their lowest-energy unsettled neighbours.  CSS
sectors decouple (X flips only trigger Z checks and vice versa), so each
sector is a classical search.

One runner serves every search: a state carries its syndrome and its
signature, the pairings with the rows of a logical matrix.  A CSS sector
takes its checks from ``distance._sector_checks`` and its logical matrix from
``logical_space``, the same ones the distance search uses; a classical
codeword is a logical whose signature columns are unit vectors, so its
signature is the state itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .distance import _sector_checks, logical_space, validate_logical_witness
from .instantiate import BinaryMatrix, CodeInstance

__all__ = [
    "BarrierError",
    "BarrierCapError",
    "BarrierResult",
    "CodeBarrierResult",
    "barrier",
    "sector_barrier",
    "classical_code_barrier",
    "code_barrier",
]

BARRIER_CAP_DEFAULT = 20


class BarrierError(ValueError):
    """Barrier search cannot run on this input."""


class BarrierCapError(BarrierError):
    """State space would exceed the configured cap."""


@dataclass(frozen=True)
class BarrierResult:
    """An exact bottleneck value, with the reached target and optional path."""

    barrier: int
    sector: str  # "X" | "Z" | "classical"
    target: int
    path: tuple[int, ...] | None  # bit indices flipped in order, when requested
    explored: int  # states settled before the target joined (diagnostic)


@dataclass(frozen=True)
class CodeBarrierResult:
    """Code barrier = min over sectors, plus per-sector results."""

    barrier: int
    x_result: BarrierResult
    z_result: BarrierResult


def _dijkstra(
    syn_cols: list[int],
    n: int,
    goal,
    sig_cols: list[int] | None = None,
    want_path: bool = False,
):
    """Bottleneck-shortest-path from 0; returns when a goal state joins a level.

    Settles states one bottleneck level at a time.  Within a level the pops
    alternate between the smallest pending state and the heaviest one (ties
    to the smaller state), two heaps over one ``pending`` dict; a popped
    state's neighbours with energy at most the level join the level, and a
    neighbour above the level is not stored.  When the level empties, one
    rescan of the settled states in pop order finds the next level, the
    lowest energy among their unsettled neighbours, and starts it with
    those neighbours in scan order.  Every lower level is finished before a
    state joins level L, so a goal state that joins it has bottleneck L,
    whatever order the level pops in; the order only changes which goal
    state joins first and how much work that takes.  A state's predecessor
    is the settled neighbour it joined from.
    """
    if sig_cols is None:
        sig_cols = [0] * n
    settled: list[tuple[int, int, int]] = []  # (state, syn, sig) in pop order
    pending: dict[int, tuple[int, int]] = {}  # state -> (syn, sig)
    prev: dict[int, int | None] = {}  # settled or pending state -> bit it joined by
    smallest: list[int] = []  # heap of pending states
    heaviest: list[tuple[int, int]] = []  # heap of (-weight, state) of pending states
    level = 0

    def join(state, syn, sig, step):
        pending[state] = (syn, sig)
        prev[state] = step
        heapq.heappush(smallest, state)
        heapq.heappush(heaviest, (-state.bit_count(), state))
        if not goal(state, syn, sig):
            return None
        path = None
        if want_path:
            flips, cur = [], state
            while prev[cur] is not None:
                flips.append(prev[cur])
                cur ^= 1 << prev[cur]
            path = tuple(reversed(flips))
        return level, state, len(settled), path

    if found := join(0, 0, 0, None):
        return found
    while True:
        heavy = False
        while pending:
            state = heapq.heappop(heaviest)[1] if heavy else heapq.heappop(smallest)
            heavy = not heavy
            if state not in pending:
                continue
            syn, sig = pending.pop(state)
            settled.append((state, syn, sig))
            for j in [
                j for j, scol in enumerate(syn_cols) if (syn ^ scol).bit_count() <= level
            ]:
                nstate = state ^ (1 << j)
                if nstate not in prev:
                    if found := join(nstate, syn ^ syn_cols[j], sig ^ sig_cols[j], j):
                        return found
        smallest.clear()
        heaviest.clear()
        level, frontier = None, []  # the next level and its joins in scan order
        for state, syn, sig in settled:
            for j, scol in enumerate(syn_cols):
                nstate = state ^ (1 << j)
                if nstate in prev:
                    continue
                nsyn = syn ^ scol
                cost = nsyn.bit_count()
                if level is None or cost < level:
                    level, frontier = cost, []
                if cost == level:
                    frontier.append((nstate, nsyn, sig ^ sig_cols[j], j))
        if level is None:
            raise BarrierError("search exhausted without reaching a goal state")
        for nstate, nsyn, nsig, j in frontier:
            if nstate not in prev and (found := join(nstate, nsyn, nsig, j)):
                return found


def _reaches_logical(_state: int, syn: int, sig: int) -> bool:
    return syn == 0 and sig != 0


def _search(
    checks: BinaryMatrix,
    sector: str,
    goal,
    want_path: bool,
    logicals: BinaryMatrix | None = None,
) -> BarrierResult:
    """Flip search against ``checks`` up to the first goal state to join a level.

    Bit i of a state's signature is its pairing with row i of ``logicals``.
    """
    sig_cols = None if logicals is None else logicals.transpose().rows
    bott, state, explored, path = _dijkstra(
        checks.transpose().rows, checks.ncols, goal, sig_cols=sig_cols, want_path=want_path
    )
    return BarrierResult(barrier=bott, sector=sector, target=state, path=path, explored=explored)


def barrier(
    H: BinaryMatrix,
    target: int,
    *,
    cap_n: int = BARRIER_CAP_DEFAULT,
    want_path: bool = False,
) -> BarrierResult:
    """Exact barrier of one target state against a check matrix."""
    n = H.ncols
    if n > cap_n:
        raise BarrierCapError(f"{n} bits exceed the barrier cap {cap_n}")
    if target <= 0 or target >> n:
        raise BarrierError("target must be a nonzero state on the matrix columns")
    if H.times_vector(target):
        raise BarrierError("target violates checks; it is not in the kernel")
    return _search(H, "classical", lambda s, _syn, _sig: s == target, want_path)


def classical_code_barrier(
    H: BinaryMatrix, *, cap_n: int = BARRIER_CAP_DEFAULT, want_path: bool = False
) -> BarrierResult:
    """Minimum barrier over all nonzero kernel elements of a classical matrix."""
    n = H.ncols
    if n > cap_n:
        raise BarrierCapError(f"{n} bits exceed the barrier cap {cap_n}")
    if H.rank() == H.ncols:
        raise BarrierError("kernel is trivial; there are no codewords to reach")
    res = _search(H, "classical", _reaches_logical, want_path, BinaryMatrix.identity(n))
    if res.target == 0 or H.times_vector(res.target):
        raise BarrierError("search reached a state that is not a nonzero codeword")
    return res


def sector_barrier(
    inst: CodeInstance,
    sector: str,
    *,
    cap_n: int = BARRIER_CAP_DEFAULT,
    want_path: bool = False,
) -> BarrierResult:
    """Minimum barrier over all logical operators of one CSS sector."""
    n = inst.n
    if n > cap_n:
        raise BarrierCapError(f"n={n} exceeds the barrier cap {cap_n}")
    _, reps = logical_space(inst, sector)
    if not reps.rows:
        raise BarrierError("code has no logical operators (k = 0)")
    checks, _ = _sector_checks(inst, sector)
    res = _search(checks, sector, _reaches_logical, want_path, reps)
    validate_logical_witness(inst, res.target, sector)
    return res


def code_barrier(
    inst: CodeInstance,
    *,
    cap_n: int = BARRIER_CAP_DEFAULT,
    want_path: bool = False,
) -> CodeBarrierResult:
    """Code barrier: minimum over the X and Z sector barriers."""
    x_res = sector_barrier(inst, "X", cap_n=cap_n, want_path=want_path)
    z_res = sector_barrier(inst, "Z", cap_n=cap_n, want_path=want_path)
    return CodeBarrierResult(
        barrier=min(x_res.barrier, z_res.barrier),
        x_result=x_res,
        z_result=z_res,
    )
