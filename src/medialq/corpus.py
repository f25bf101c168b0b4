"""Built-in diagram corpus and the generators that produced it.

The shipped ``corpus/*.map`` files are rotation systems of standard link
shadows: closures of positive braid words (crossing signs are irrelevant at
the shadow level) and one connected sum.  ``braid_closure_shadow`` and
``connected_sum`` are the generators; a test pins the shipped files to their
output so the data cannot drift.
"""

from __future__ import annotations

from importlib import resources

from .planar import PlanarMap, build_planar_map, parse_map_text


def braid_closure_shadow(word, strands, prefix=""):
    """Rotation system of the closure of a braid shadow.

    The braid runs down the page, strand positions numbered 1..strands left
    to right; ``word`` lists the positions of its crossings, top to bottom
    (position i crosses strands i and i+1).  Each crossing becomes a
    4-valent vertex whose darts, clockwise in the standard orientation, are
    NW, NE, SE, SW.  The plat closure arcs carry no vertices, so they only
    contribute edges.

    Returns:
        (rotations, pairing) suitable for ``build_planar_map``.
    """
    if strands < 2:
        raise ValueError("need at least 2 strands")
    if any(not 1 <= i < strands for i in word):
        raise ValueError("braid word position out of range")
    used = set()
    for i in word:
        used.update((i, i + 1))
    if used != set(range(1, strands + 1)):
        raise ValueError("every strand must meet at least one crossing")

    rotations = []
    pairing = []
    pending = {k: None for k in range(1, strands + 1)}  # open dart per position
    first = {k: None for k in range(1, strands + 1)}    # first dart per position

    for j, pos in enumerate(word, start=1):
        nw, ne, se, sw = (f"{prefix}c{j}{corner}" for corner in ("nw", "ne", "se", "sw"))
        rotations.append([nw, ne, se, sw])
        for k, top_dart in ((pos, nw), (pos + 1, ne)):
            if pending[k] is None:
                first[k] = top_dart
            else:
                pairing.append([pending[k], top_dart])
        pending[pos] = sw
        pending[pos + 1] = se
    for k in range(1, strands + 1):
        pairing.append([pending[k], first[k]])
    return rotations, pairing


def connected_sum(rot1, pair1, rot2, pair2, splice1=0, splice2=0):
    """Splice two rotation systems along one edge of each.

    Cuts edge ``splice1`` (index into ``pair1``) and edge ``splice2`` and
    rejoins the four loose darts crosswise; one of the two possible matchings
    embeds in the sphere and is returned.
    """
    a, b = pair1[splice1]
    c, d = pair2[splice2]
    rest = [list(p) for i, p in enumerate(pair1) if i != splice1]
    rest += [list(p) for i, p in enumerate(pair2) if i != splice2]
    rotations = [list(r) for r in rot1] + [list(r) for r in rot2]
    for join in ([[a, c], [b, d]], [[a, d], [b, c]]):
        try:
            build_planar_map(rotations, join + rest)
        except ValueError:
            continue
        return rotations, join + rest
    raise ValueError("no planar splice found")  # pragma: no cover


def _torus_shadow(n, prefix=""):
    return braid_closure_shadow([1] * n, 2, prefix=prefix)


# Corpus name -> rotation system, as (rotations, pairing).
SOURCES = {
    "hopf": lambda: _torus_shadow(2),
    "trefoil": lambda: _torus_shadow(3),
    "figure_eight": lambda: braid_closure_shadow([1, 2, 1, 2], 3),
    "torus_2_4": lambda: _torus_shadow(4),
    "torus_2_5": lambda: _torus_shadow(5),
    "torus_2_6": lambda: _torus_shadow(6),
    "trefoil_sum": lambda: connected_sum(*_torus_shadow(3, prefix="x"),
                                         *_torus_shadow(3, prefix="y")),
}


def generate(name):
    """Build a corpus map from scratch (ignoring the shipped file)."""
    pmap = build_planar_map(*SOURCES[name]())
    return pmap, _default_marked_edge(pmap)


def _default_marked_edge(pmap):
    """First edge (canonical order) whose two adjacent faces differ."""
    for eid in sorted(pmap.edges, key=lambda e: int(e[1:])):
        f1, f2 = pmap.edge_faces(eid)
        if f1 != f2:
            return eid
    raise ValueError("no edge with two distinct adjacent faces")


def names():
    return sorted(SOURCES)


def load(name) -> tuple[PlanarMap, str]:
    """Load a shipped corpus diagram.  Returns (map, marked_edge)."""
    path = resources.files("medialq").joinpath(f"corpus/{name}.map")
    pmap, marked = parse_map_text(path.read_text())
    if marked is None:
        raise ValueError(f"corpus file {name} lacks a marked_edge")
    return pmap, marked
