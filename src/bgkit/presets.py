"""Bundled example instances, and the one builder of every input.

A preset is an ordinary space-file spec (`spec`), and `Instance` turns any
spec, a `--space` file or a preset, into (space, action, measure).  It
builds the action and measure only when they are read, and `actions` and
`measures` are imported only by the code that builds them.
"""

from __future__ import annotations

import functools

from . import spaces
from .exact import DomainError, rational

_LEFT_TRANSLATION = {"lattice2": ("free_abelian", 2), "free2": ("free", 2),
                     "atom": ("trivial", None)}


def _cayley(group, action):
    return {"kind": "cayley", "group": group, "action": action,
            "measure": "counting_orbit"}


def _glued_line(r0, eps):
    r0, eps = rational(r0), rational(eps)
    # enough hairs to scan ratios out to ~3 r0 around a tip
    return {"kind": "glued_line", "eps": str(eps), "hair_length": str(r0 / 2),
            "window": int(4 * r0 / eps) + 4,
            "action": {"action": "glued_line_shift"},
            "measure": "counting_orbit"}


def spec(name) -> dict:
    """The space-file spec of preset `name`: lattice2, free2, atom, torusM
    (M = 5 when omitted), lineM (M = 1 when omitted) or glued-line."""
    if name in _LEFT_TRANSLATION:
        family, params = _LEFT_TRANSLATION[name]
        group = {"family": family, "params": params}
        return _cayley(group, {"action": "left_translation", "group": group})
    for prefix, rank, default in (("torus", 2, 5), ("line", 1, 1)):
        if name.startswith(prefix):
            try:
                m = int(name[len(prefix):] or default)
            except ValueError:
                break
            matrix = [[m * (i == j) for j in range(rank)] for i in range(rank)]
            return _cayley({"family": "free_abelian", "params": rank},
                           {"action": "lattice_translation", "matrix": matrix})
    if name == "glued-line":
        return _glued_line("1", "1/10")
    raise DomainError(f"unknown preset {name!r}")


class Instance:
    """The space, action and measure of a space-file spec.  The space is
    built at once, the action and measure when first read, so a command
    that reads only the space builds nothing else.  Measure "pullback" or a
    deck action lifts the whole problem to the universal cover of the
    declared graph; the cover replaces the space, so all three are built
    at once."""

    def __init__(self, spec):
        self.spec = spec
        self.space = spaces.space_from_spec(spec)
        action_spec = spec.get("action")
        if spec.get("measure") == "pullback" or (
                isinstance(action_spec, dict)
                and action_spec.get("action") == "deck"):
            self.space, self.action, self.measure = _lift_to_cover(
                self.space, spec)

    @functools.cached_property
    def action(self):
        """The spec's action on the space; None when the spec has none."""
        action_spec = self.spec.get("action")
        if not action_spec:
            return None
        from . import actions
        return actions.action_from_spec(action_spec, self.space)

    @functools.cached_property
    def measure(self):
        from . import measures
        return measures.measure_from_spec(self.spec, self.space,
                                          action=self.action)

    def build(self):
        """(space, action, measure), the action and measure built now."""
        return self.space, self.action, self.measure

    def point(self, raw, default=None):
        """The point a command reads: `raw` (JSON or JSON text) read by
        `spaces.read_point`, else `default`, else the space's default
        point, else its first support point."""
        if raw is not None:
            return spaces.read_point(raw, self.space)
        if default is not None:
            return default
        point = self.space.default_point()
        return self.space.support()[0] if point is None else point


def instance(spec):
    """(space, action, measure) of a space-file spec; the action is None
    when the spec has none."""
    return Instance(spec).build()


def _lift_to_cover(graph, spec):
    from . import covers, measures
    if not isinstance(graph, spaces.WeightedGraph):
        raise DomainError("pullback/deck specs need a graph space")
    cover_spec = spec.get("cover", {})
    basepoint = cover_spec.get(
        "basepoint", sorted(graph.vertices, key=spaces.point_key)[0])
    cover = covers.universal_cover(graph, basepoint,
                                   rational(cover_spec.get("window", 8)))
    base = measures.measure_from_spec(
        {**spec, "measure": "vertex_weights"} if "weights" in spec else {},
        graph)
    return (cover.space, covers.DeckAction(cover),
            measures.PullbackMeasure(cover, base))


def lattice_instance():
    """Z^2 lattice with its full translation action and counting measure."""
    return instance(spec("lattice2"))


def free_instance():
    """Rank-2 free-group Cayley tree, left translation, counting measure."""
    return instance(spec("free2"))


def atom_instance():
    return instance(spec("atom"))


def torus_instance(m):
    """Z^2 lattice with the (m Z)^2 sublattice translation action."""
    return instance(spec(f"torus{m}"))


def glued_line_instance(r0="1", eps="1/10"):
    """The hairy-line family: hair length r0/2 glued at every eps*k.

    This is the family whose counting measure defeats every concentric
    growth bound as eps shrinks; the natural first radius to probe is
    r0 + eps at a hair tip.
    """
    return instance(_glued_line(r0, eps))


def line_translation_instance(m):
    """Z acting on the integer line by translation by m."""
    return instance(spec(f"line{m}"))
