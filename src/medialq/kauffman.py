"""Link diagrams, Kauffman states, and the clock lattice.

A link diagram is a connected 4-regular planar map together with a marked
edge whose two adjacent faces are distinct.  The Kauffman weight is 1 on
every crossing and unmarked face and 0 on the two marked faces; a Kauffman
state picks one angle per crossing so that every unmarked face also receives
exactly one pick and the marked faces receive none.

Indicator functions identify Kauffman states with the weight-compatible
angular functions, moves included: moving along an edge rotates the two
markers sitting at its endpoints one step counterclockwise.  For prime
diagrams the move graph is a graded distributive lattice (the clock
lattice), built and certified here.  Primality, that no pair of edges
disconnects the map, is read off the faces beside each edge by planar
duality (``find_separating_pair``).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress

from .planar import PlanarMap, Record, parse_map_text
from .states import (
    AngleFrame,
    AngularFunction,
    Decoration,
    gamma_inv_connected,
    is_e_movable,
    mov_e,
    validate_weight,
)


class MarkedFacesNotDistinct(ValueError):
    """The two faces beside the marked edge coincide (the edge is a bridge)."""


class NotApplicable(ValueError):
    """The requested marker move is not available in this state."""


class NotPrime(ValueError):
    """A separating pair of edges exists; carries it as `witness`."""

    def __init__(self, witness, message):
        super().__init__(message)
        self.witness = witness


class LinkDiagram:
    """Connected 4-regular planar map with a marked edge."""

    def __init__(self, pmap: PlanarMap, marked_edge):
        marked_edge = str(marked_edge)
        if marked_edge not in pmap.edges:
            raise ValueError(f"unknown marked edge {marked_edge!r}")
        faces = pmap.edge_faces(marked_edge)
        if faces[0] == faces[1]:
            raise MarkedFacesNotDistinct(
                f"both sides of {marked_edge} are face {faces[0]}")
        bad = [v for v in pmap.vertices if pmap.degree(v) != 4]
        if bad:
            raise ValueError(f"not 4-regular at {sorted(bad)}")
        if not pmap.is_connected():
            raise ValueError("diagram must be connected")
        self.pmap = pmap
        self.marked_edge = marked_edge
        self.marked_faces = faces
        assert len(pmap.vertices) == len(pmap.faces) - 2

    @classmethod
    def from_text(cls, text):
        pmap, marked = parse_map_text(text)
        if marked is None:
            raise ValueError("diagram file must declare marked_edge")
        return cls(pmap, marked)

    @cached_property
    def separating_pair(self):
        """``find_separating_pair`` of the map, computed once."""
        return find_separating_pair(self.pmap)


def kauffman_weight(diagram: LinkDiagram):
    """1 on crossings and unmarked faces, 0 on the two marked faces."""
    w = {v: 1 for v in diagram.pmap.vertices}
    w.update({f: 1 for f in diagram.pmap.faces})
    for f in diagram.marked_faces:
        w[f] = 0
    assert validate_weight(diagram.pmap, w)
    return w


class KauffmanState(Record):
    """One marker angle per crossing, given by sorted angle (dart) ids."""

    __slots__ = ("angles",)

    @classmethod
    def of(cls, angles):
        return cls(tuple(sorted(set(angles))))

    def __contains__(self, angle):
        return angle in self.angles


def chi(diagram: LinkDiagram, state: KauffmanState) -> AngularFunction:
    """Indicator angular function of a state."""
    picked = set(state.angles)
    return AngularFunction.from_vector(
        AngleFrame.of(diagram.pmap.darts),
        tuple(int(d in picked) for d in diagram.pmap.darts))


def chi_inv(diagram: LinkDiagram, g: AngularFunction) -> KauffmanState:
    """Support of a 0/1-valued angular function."""
    if not set(g.vector) <= {0, 1}:
        raise ValueError("function is not 0/1-valued")
    return KauffmanState.of(compress(g.frame.names, g.vector))


def _enumerate_direct(diagram: LinkDiagram):
    """Matching-style enumeration: each crossing picks one unmarked angle,
    each unmarked face must end up picked exactly once."""
    pmap = diagram.pmap
    quiver = pmap.quiver
    marked = set(diagram.marked_faces)
    vertices = sorted(pmap.vertices, key=lambda v: int(v[1:]))
    choices = {
        v: [a for a in quiver.vertex_cycles[v]
            if quiver.angles[a].face not in marked]
        for v in vertices}
    faces_at = [{quiver.angles[a].face for a in choices[v]} for v in vertices]
    remaining = {f: 0 for f in pmap.faces}
    for v in vertices:
        for a in choices[v]:
            remaining[quiver.angles[a].face] += 1

    # depth-first search with an explicit stack of per-crossing iterators
    states, picks, picked_faces, stack = [], [], set(), []

    def enter(i):  # crossing i takes its angles out of the remaining choices
        for a in choices[vertices[i]]:
            remaining[quiver.angles[a].face] -= 1
        stack.append(iter(choices[vertices[i]]))

    enter(0)
    while stack:
        i = len(stack) - 1
        if len(picks) > i:  # back from crossing i + 1: undo crossing i's pick
            picked_faces.remove(quiver.angles[picks.pop()].face)
        for a in stack[i]:
            f = quiver.angles[a].face
            if f in picked_faces:
                continue
            picked_faces.add(f)
            picks.append(a)
            # a face with no remaining choice must already be picked; only
            # the faces that entering crossing i counted down can newly fail
            if all(remaining[x] > 0 or x in picked_faces for x in faces_at[i]):
                if i + 1 < len(vertices):
                    enter(i + 1)
                    break
                states.append(KauffmanState.of(picks))
            picks.pop()
            picked_faces.remove(f)
        else:
            for a in choices[vertices[i]]:
                remaining[quiver.angles[a].face] += 1
            stack.pop()
    return sorted(states, key=lambda s: s.angles)


def enumerate_kauffman_states(diagram: LinkDiagram):
    """All Kauffman states, cross-checked between two enumerations.

    Computed once through the compatible-angular-function enumeration and
    once by direct matching-style search; any disagreement is an internal
    error.
    """
    w = kauffman_weight(diagram)
    via_functions = sorted(
        (chi_inv(diagram, g) for g in Decoration.of(diagram.pmap, w).states),
        key=lambda s: s.angles)
    direct = _enumerate_direct(diagram)
    if via_functions != direct:
        raise AssertionError(
            "state enumerations disagree: "
            f"{len(via_functions)} via functions, {len(direct)} direct")
    return via_functions


def kauffman_move(diagram: LinkDiagram, state: KauffmanState, e) -> KauffmanState:
    """Rotate the two markers at the endpoints of e one counterclockwise step.

    Applicable exactly when both markers sit on the source angles of e (the
    angles keyed by e's own darts) and e is not the marked edge.

    Raises:
        NotApplicable.
    """
    pmap = diagram.pmap
    if str(e) == diagram.marked_edge:
        raise NotApplicable("cannot move along the marked edge")
    if str(e) not in pmap.edges:
        raise NotApplicable(f"unknown edge {e!r}")
    quiver = pmap.quiver
    g = chi(diagram, state)
    if not is_e_movable(quiver, g, str(e)):
        raise NotApplicable(
            f"markers are not positioned on the source angles of {e}")
    return chi_inv(diagram, mov_e(quiver, g, str(e)))


def find_separating_pair(pmap: PlanarMap):
    """A pair of edges whose removal disconnects the map, or None.

    The first such pair (e1, e2), e1 before e2, in ``sorted(pmap.edges)``
    order, read off the faces beside each edge.  On a disconnected map
    every pair separates, and each component has at least two edges (no
    loops, degree at least 2), so the answer is the first two edges.  On a
    connected map a minimal edge cut is a cycle of the dual map (Whitney),
    so a pair separates exactly when one of its edges has the same face on
    both sides (a bridge, a loop of the dual) or both edges lie between the
    same two faces (a 2-cycle of the dual).
    """
    edges = sorted(pmap.edges)
    if not pmap.is_connected():
        return edges[0], edges[1]
    first, pairs = {}, []  # faces beside an edge -> its first edge's index
    for j, e in enumerate(edges):
        sides = frozenset(pmap.edge_faces(e))
        if len(sides) == 1:  # a bridge separates with every other edge
            pairs.append((0, max(j, 1)))
        elif first.setdefault(sides, j) < j:
            pairs.append((first[sides], j))
    if not pairs:
        return None
    i, j = min(pairs)
    return edges[i], edges[j]


def is_prime_diagram(diagram: LinkDiagram) -> bool:
    """True iff no pair of edges separates the underlying map."""
    return diagram.separating_pair is None


def clock_lattice(diagram: LinkDiagram):
    """The certified ``lattice.FiniteLattice`` of all Kauffman states of a
    prime diagram.

    Certifies that the graph of invisible cycles is connected, grows the
    state lattice along the move graph from its minimum, checks it reaches
    every state, and re-labels everything in Kauffman-state coordinates;
    chi_inv is a bijection on the states, so the certificate carries over.

    Raises:
        NotPrime: with the separating edge pair as witness.
        CertificationFailed: a theorem-level guarantee failed to verify.
    """
    from .lattice import CertificationFailed

    witness = diagram.separating_pair
    if witness is not None:
        raise NotPrime(witness, f"separating edge pair {witness}")
    pmap = diagram.pmap
    w = kauffman_weight(diagram)
    connected, ncomp = gamma_inv_connected(pmap, w)
    if not connected:
        raise CertificationFailed(
            f"graph of invisible cycles has {ncomp} components on a prime diagram")
    dec = Decoration.of(pmap, w)
    functions = dec.states
    inner = dec.component_lattice(functions[0])
    if len(inner) != len(functions):
        raise CertificationFailed(
            f"lattice reaches {len(inner)} of {len(functions)} states")
    return inner.relabel(lambda xi: chi_inv(diagram, xi.f_plus))
