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
of the settled states for their lowest-energy unsettled neighbours.

CSS sectors decouple (X flips only trigger Z checks and vice versa), and
only the X sector is searched, by ``code_barrier``.  HZ = P*HX*Q, P sending
check h to -h and Q swapping the blocks and sending qubit q to -q, so the
block swap ψ(a, b) = (b̄, ā) maps X logicals onto Z logicals with
wt(HX*Q*v) = wt(HZ*v): the Z result is ``psi_image`` of the X one, target
and path mapped bit by bit.
One runner serves every search: a state carries its syndrome, and a goal
reads the state only once its syndrome is zero.  For the X sector the goal
is a nonzero pairing with the representatives of ``logical_space``, the one
frame the distance search uses, which also refuses k = 0; for a classical
code it is any nonzero state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .distance import _psi_bits, logical_space, validate_logical_witness
from .instantiate import BinaryMatrix, CodeInstance, support_bits

__all__ = [
    "BarrierError",
    "BarrierCapError",
    "BarrierResult",
    "barrier",
    "classical_code_barrier",
    "code_barrier",
    "psi_image",
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


def _dijkstra(syn_cols: list[int], goal, want_path: bool = False):
    """Bottleneck-shortest-path from 0; returns when a goal state joins a
    level, ``goal(state, syn)`` being asked of each state as it joins.

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
    settled: list[tuple[int, int]] = []  # (state, syn) in pop order
    pending: dict[int, int] = {}  # state -> syn
    prev: dict[int, int | None] = {}  # settled or pending state -> bit it joined by
    smallest: list[int] = []  # heap of pending states
    heaviest: list[tuple[int, int]] = []  # heap of (-weight, state) of pending states
    level = 0

    def join(state, syn, step):
        pending[state] = syn
        prev[state] = step
        heapq.heappush(smallest, state)
        heapq.heappush(heaviest, (-state.bit_count(), state))
        if not goal(state, syn):
            return None
        path = None
        if want_path:
            flips, cur = [], state
            while prev[cur] is not None:
                flips.append(prev[cur])
                cur ^= 1 << prev[cur]
            path = tuple(reversed(flips))
        return level, state, len(settled), path

    if found := join(0, 0, None):
        return found
    while True:
        heavy = False
        while pending:
            state = heapq.heappop(heaviest)[1] if heavy else heapq.heappop(smallest)
            heavy = not heavy
            if state not in pending:
                continue
            syn = pending.pop(state)
            settled.append((state, syn))
            for j in [
                j for j, scol in enumerate(syn_cols) if (syn ^ scol).bit_count() <= level
            ]:
                nstate = state ^ (1 << j)
                if nstate not in prev:
                    if found := join(nstate, syn ^ syn_cols[j], j):
                        return found
        smallest.clear()
        heaviest.clear()
        level, frontier = None, []  # the next level and its joins in scan order
        for state, syn in settled:
            for j, scol in enumerate(syn_cols):
                nstate = state ^ (1 << j)
                if nstate in prev:
                    continue
                nsyn = syn ^ scol
                cost = nsyn.bit_count()
                if level is None or cost < level:
                    level, frontier = cost, []
                if cost == level:
                    frontier.append((nstate, nsyn, j))
        if level is None:
            raise BarrierError("search exhausted without reaching a goal state")
        for nstate, nsyn, j in frontier:
            if nstate not in prev and (found := join(nstate, nsyn, j)):
                return found


def _search(checks: BinaryMatrix, sector: str, goal, want_path: bool) -> BarrierResult:
    """Flip search against ``checks`` up to the first goal state to join a level."""
    bott, state, explored, path = _dijkstra(checks.transpose().rows, goal, want_path)
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
    return _search(H, "classical", lambda s, _syn: s == target, want_path)


def classical_code_barrier(
    H: BinaryMatrix, *, cap_n: int = BARRIER_CAP_DEFAULT, want_path: bool = False
) -> BarrierResult:
    """Minimum barrier over all nonzero kernel elements of a classical matrix."""
    n = H.ncols
    if n > cap_n:
        raise BarrierCapError(f"{n} bits exceed the barrier cap {cap_n}")
    if H.rank() == H.ncols:
        raise BarrierError("kernel is trivial; there are no codewords to reach")
    res = _search(H, "classical", lambda s, syn: syn == 0 and s != 0, want_path)
    if res.target == 0 or H.times_vector(res.target):
        raise BarrierError("search reached a state that is not a nonzero codeword")
    return res


def psi_image(inst: CodeInstance, res: BarrierResult) -> BarrierResult:
    """The Z-sector result that ψ makes of an X-sector one, such as
    ``code_barrier``'s, which gives the Z barrier: the target maps bit by
    bit and the path flip by flip, each step at the energy it had.  The
    mapped target is re-checked as a Z logical."""
    psi = _psi_bits(inst)
    target = sum(1 << psi[q] for q in support_bits(res.target))
    path = None if res.path is None else tuple(psi[j] for j in res.path)
    validate_logical_witness(inst, target, "Z")
    return BarrierResult(res.barrier, "Z", target, path, res.explored)


def code_barrier(
    inst: CodeInstance, *, cap_n: int = BARRIER_CAP_DEFAULT, want_path: bool = False
) -> BarrierResult:
    """Code barrier: the minimum barrier over the X sector's logicals, the
    search against HZ, which ``psi_image`` makes the Z result.
    ``logical_space`` refuses k = 0 with a ``DistanceError``."""
    if inst.n > cap_n:
        raise BarrierCapError(f"n={inst.n} exceeds the barrier cap {cap_n}")
    _, reps = logical_space(inst)
    res = _search(inst.hz, "X", lambda s, syn: syn == 0 and reps.times_vector(s), want_path)
    validate_logical_witness(inst, res.target, "X")
    return res
