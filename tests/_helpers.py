"""Helpers shared by the instance, distance and barrier tests."""

import dataclasses

from polyqec.lattice import GroupPresentation
from polyqec.poly import VarContext


def torus(ctx: VarContext, *sizes: int) -> GroupPresentation:
    d = ctx.dim
    rels = tuple(tuple(sizes[i] if j == i else 0 for j in range(d)) for i in range(d))
    return GroupPresentation(ctx, rels)


def swapped(inst):
    """The instance with HX and HZ exchanged, which presents the Z sector of
    ``inst`` as its X sector: ``logical_space`` of it is the Z frame."""
    return dataclasses.replace(inst, hx=inst.hz, hz=inst.hx)
