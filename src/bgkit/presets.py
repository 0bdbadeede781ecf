"""Bundled example instances shared by the CLI and the verification suite."""

from __future__ import annotations

from . import actions, groups, measures, spaces
from .exact import rational


def lattice_instance():
    """Z^2 lattice with its full translation action and counting measure."""
    action = actions.LeftTranslationAction(groups.FreeAbelianFamily(2))
    return action.space, action, measures.counting_measure(action, (0, 0))


def free_instance():
    """Rank-2 free-group Cayley tree, left translation, counting measure."""
    action = actions.LeftTranslationAction(groups.FreeFamily(2))
    return action.space, action, measures.counting_measure(action, ())


def atom_instance():
    action = actions.LeftTranslationAction(groups.TrivialFamily())
    return action.space, action, measures.counting_measure(action, ())


def torus_instance(m):
    """Z^2 lattice with the (m Z)^2 sublattice translation action."""
    space = spaces.CayleySpace(groups.FreeAbelianFamily(2))
    action = actions.LatticeTranslationAction(space, [[m, 0], [0, m]])
    return space, action, measures.counting_measure(action, (0, 0))


def glued_line_instance(r0="1", eps="1/10"):
    """The hairy-line family: hair length r0/2 glued at every eps*k.

    This is the family whose counting measure defeats every concentric
    growth bound as eps shrinks; the natural first radius to probe is
    r0 + eps at a hair tip.
    """
    r0, eps = rational(r0), rational(eps)
    # enough hairs to scan ratios out to ~3 r0 around a tip
    window = int(4 * r0 / eps) + 4
    space = spaces.GluedLineSpace(eps, r0 / 2, window)
    action = actions.GluedLineShiftAction(space)
    measure = measures.counting_measure(action, space.tip(0))
    return space, action, measure


def line_translation_instance(m):
    """Z acting on the integer line by translation by m."""
    space = spaces.CayleySpace(groups.FreeAbelianFamily(1))
    action = actions.LatticeTranslationAction(space, [[m]])
    return space, action, measures.counting_measure(action, (0,))
