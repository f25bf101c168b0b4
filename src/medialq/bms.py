"""Move-counting states and their graded distributive lattices.

A state here is a triple (f_plus, f_minus, d): two compatible angular
functions and a dimension vector on the edges recording how many moves along
each edge lead from f_minus to f_plus.  The triple must satisfy, for every
arrow a: d(target) - d(source) = f_plus(a) - f_minus(a), and d must vanish
on edges lying on invisible cycles — that rigidity pins d down uniquely.

With nilpotency degree zero, the states reachable from (g, g, 0) form a
finite graded distributive lattice under the pointwise order on d, with
pointwise max/min as join/meet.  This module grows those lattices along the
move graph from the minima read off it and enumerates subobject lattices.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from .planar import MedialQuiver, PlanarMap, Record
from .states import (
    AngularFunction,
    Decoration,
    NotMovable,
    UnknownEdge,
    anti_mov_e,
    is_anti_e_movable,
    mov_e,
    moved_vector,
)

if TYPE_CHECKING:  # only the two lattice growers load the lattice layer
    from .lattice import FiniteLattice


class RelationViolated(ValueError):
    """The angle relation d(target) - d(source) = f_plus - f_minus fails."""

    def __init__(self, angle, message):
        super().__init__(message)
        self.angle = angle


class InvisibleDimNonZero(ValueError):
    """The dimension vector is nonzero on an invisible-cycle edge."""

    def __init__(self, edge, message):
        super().__init__(message)
        self.edge = edge


class BMSState(Record):
    """(f_plus, f_minus, d), d the sorted (edge, value) pairs of all edges.

    The hash of (f_plus, f_minus, d) is computed once, at construction, and
    kept as a fourth field: states are keys of the lattice dictionaries and
    are looked up many times each.
    """

    __slots__ = ("f_plus", "f_minus", "d", "_hash")

    def __init__(self, f_plus: AngularFunction, f_minus: AngularFunction,
                 d: tuple):
        # the hash of (f_plus, f_minus, d), as a function hashes its vector
        super().__init__(f_plus, f_minus, d,
                         hash((f_plus.vector, f_minus.vector, d)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not BMSState:
            return NotImplemented
        return (self.d == other.d and self.f_plus == other.f_plus
                and self.f_minus == other.f_minus)

    def dims(self):
        return dict(self.d)

    def dim(self, e):
        return dict(self.d).get(e, 0)

    @property
    def d_tot(self):
        return sum(v for _, v in self.d)

    def __repr__(self):
        ds = ",".join(f"{e}:{v}" for e, v in self.d)
        return f"BMSState(d={{{ds}}})"


def _check_compatible(dec: Decoration, g, name):
    quiver = dec.quiver
    if g.frame.names != quiver.arrow_ids:  # the step table indexes vectors
        raise ValueError(f"{name} is not a function on the angles of the map")
    for v, cycle in quiver.vertex_cycles.items():
        if sum(g[a] for a in cycle) != dec.omega[v]:
            raise ValueError(f"{name} is not compatible at {v}")
    for f, cycle in quiver.face_cycles.items():
        if sum(g[a] for a in cycle) != dec.omega[f]:
            raise ValueError(f"{name} is not compatible at {f}")
    if any(g[a] < 0 for a in quiver.arrow_ids):
        raise ValueError(f"{name} takes a negative value")


def make_bms(pmap: PlanarMap, omega, f_plus, f_minus, d) -> BMSState:
    """Validated state triple.

    Raises:
        RelationViolated: some arrow breaks the angle relation.
        InvisibleDimNonZero: d is nonzero on an invisible-cycle edge.
        UnknownEdge: d names something that is no edge of the map.
        ValueError: a function is not compatible, or d has negative entries.
    """
    dec = Decoration.of(pmap, omega)
    quiver = dec.quiver
    _check_compatible(dec, f_plus, "f_plus")
    _check_compatible(dec, f_minus, "f_minus")
    unknown = sorted(map(repr, set(d).difference(quiver.outgoing)))
    if unknown:
        raise UnknownEdge(f"dimension vector names {', '.join(unknown)}, "
                          "which is no edge of the map")
    d = {e: d.get(e, 0) for e in quiver.vertices}
    if any(not isinstance(v, int) or v < 0 for v in d.values()):
        raise ValueError("dimension vector must be non-negative integers")
    for a in quiver.arrow_ids:
        s, t = quiver.arrows[a]
        if d[t] - d[s] != f_plus[a] - f_minus[a]:
            raise RelationViolated(
                a, f"angle relation fails at {a}: "
                   f"d({t})-d({s}) != f_plus-f_minus")
    for e in sorted(dec.invisible_edges):
        if d[e] != 0:
            raise InvisibleDimNonZero(
                e, f"dimension {d[e]} on invisible-cycle edge {e}")
    return BMSState(f_plus, f_minus, tuple(d.items()))  # in edge order


def _raised(d, e, by):
    """The pairs d with the value at e raised by `by`."""
    i = bisect_left(d, (e,))
    if i == len(d) or d[i][0] != e:
        raise ValueError(f"d has no pair for {e}; a state's d has every edge")
    return d[:i] + ((e, d[i][1] + by),) + d[i + 1:]


def bms_mov_e(quiver: MedialQuiver, xi: BMSState, e) -> BMSState:
    """Move along e: (mov_e(f_plus), f_minus, d + chi_e)."""
    new_plus = mov_e(quiver, xi.f_plus, e)  # NotMovable propagates
    return BMSState(new_plus, xi.f_minus, _raised(xi.d, e, 1))


def is_bms_anti_movable(quiver: MedialQuiver, xi: BMSState, e) -> bool:
    """f_plus anti-movable along e and at least one move to undo there."""
    return is_anti_e_movable(quiver, xi.f_plus, e) and xi.dim(e) >= 1


def bms_anti_mov_e(quiver: MedialQuiver, xi: BMSState, e) -> BMSState:
    if not is_bms_anti_movable(quiver, xi, e):
        raise NotMovable(f"state is not anti-movable along {e}")
    return BMSState(anti_mov_e(quiver, xi.f_plus, e), xi.f_minus,
                    _raised(xi.d, e, -1))


def _moved(xi: BMSState, step) -> BMSState:
    """``bms_mov_e`` of xi along the edge of a step-table row, unchecked:
    f_plus must be positive at the row's two outgoing positions."""
    e, n, i, j, k, l = step
    d = xi.d
    return BMSState(
        AngularFunction.from_vector(
            xi.f_plus.frame, moved_vector(xi.f_plus.vector, i, j, k, l)),
        xi.f_minus, d[:n] + ((e, d[n][1] + 1),) + d[n + 1:])


def bms_plus_lattice(pmap: PlanarMap, omega, g: AngularFunction) -> FiniteLattice:
    """All states reachable from (g, g, 0), certified as a lattice.

    A state moves along e exactly when its f_plus does, raising d by one at
    e: covers are moves of ``Decoration.move_graph``.  The order is the
    pointwise order on d; the grading is total dimension.  A check on the
    masks confirms that join and meet are pointwise max and min of d.
    The first move into a node builds its state; later moves yield that
    object.  Its d is the d along every path from the root: each cover adds
    one join-irreducible (certification) and carries its label
    (``_check_pointwise_closure``), so a path to x bears the labels of x's
    join-irreducibles.

    Raises:
        NotNilpotencyZero: the closure would be infinite.
    """
    from .lattice import grown_lattice

    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("lattice construction needs nilpotency degree 0")
    out_edges, states, made = dec.move_graph.out_edges, dec.states, {}

    def upper(xi):
        for _, t, e in out_edges(dec.index(xi.f_plus)):
            if t not in made:
                made[t] = BMSState(states[t], g, _raised(xi.d, e, 1))
            yield e, made[t]

    lattice = grown_lattice(make_bms(pmap, omega, g, g, {}), upper,
                            key=lambda xi: xi.d)
    _check_pointwise_closure(lattice)
    return lattice


def _check_pointwise_closure(lattice: FiniteLattice):
    """Check that join and meet are pointwise max and min of d.

    Covers are moves, each raising d by one at its label.  A join-irreducible
    takes the label of its lower cover; every cover adding it must carry that
    label, and the irreducibles of each edge must form a chain.  Then
    d(x)(e) - d(minimum)(e) counts the irreducibles of e below x, a prefix of
    that chain, so unions and intersections of masks are pointwise max and
    min of d.  Both conditions are also necessary.
    """
    cert, index = lattice.certificate, lattice.poset._index
    edge_of, chains = {}, {}
    for (a, b), e in lattice.labels.items():
        bit = cert.masks[index[b]] ^ cert.masks[index[a]]
        if edge_of.setdefault(bit, e) != e:
            raise AssertionError(f"covers by {edge_of[bit]} and {e} add the "
                                 "same join-irreducible")
    for k, j in enumerate(cert.join_irreducibles):
        chains.setdefault(edge_of[1 << k], []).append(cert.masks[index[j]])
    for e, masks in chains.items():
        masks.sort(key=int.bit_count)
        if any(lo & ~hi for lo, hi in zip(masks, masks[1:])):
            raise AssertionError(
                f"join-irreducibles moved along {e} do not form a chain")


def _reconstruct_plus(below, step):
    """`below` with d' raised by one at the edge of a step-table row: its
    ``bms_mov_e``, or None where f_plus would turn negative (see
    ``plus_subobjects``)."""
    v = below.f_plus.vector
    return _moved(below, step) if v[step[2]] and v[step[3]] else None


def component_minimum(pmap: PlanarMap, omega, h: AngularFunction):
    """(g0, d): the minimum g0 of h's move-graph component, read off the
    move graph, and the d that makes (h, g0, d) a valid state.

    Raises:
        NotNilpotencyZero: the component need not have a minimum otherwise.
        AssertionError: a move-graph component has no minimum or two.
    """
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("greedy descent needs nilpotency degree 0")
    _check_compatible(dec, h, "h")
    g0 = dec.states[dec.minima[dec.index(h)]]
    return g0, solve_dimension(pmap, omega, h, g0)


def plus_subobjects(pmap: PlanarMap, omega, xi: BMSState) -> FiniteLattice:
    """The lattice of states below xi: same f_minus, d' pointwise below d.

    xi is validated once, on entry, and with it the root (f_minus, f_minus,
    0).  Every other element is reached from the root by steps raising d' by
    one at an edge e where d' is below d, and each step is a move: raising
    d' at e changes f_plus = f_minus + d'(t) - d'(s) only on the four arrows
    at e, lowering it by one on the two leaving e and raising it by one on
    the two entering e.  So the candidate is a state exactly when f_plus is
    e-movable, and it is then ``bms_mov_e`` of the state below it.  The
    growth reaches every state below xi: for d' != 0 let S be the edges
    where d' is largest.  If no edge of S were anti-movable, f_minus would
    vanish on a directed cycle inside S; that cycle would be invisible, and
    d, hence d', is zero on invisible edges.  So d' minus one at some edge
    of S is again a state.  For xi the maximum of ``bms_plus_lattice`` from
    (g0, g0, 0), this is that lattice, masks and all: both grow by moves from
    that root, and the cap d' <= d never binds, as each cover raises d by one
    at its label and every element lies below the certified maximum.

    Raises:
        NotNilpotencyZero.
        ValueError: xi is not a valid state (see ``make_bms``).
    """
    from .lattice import grown_lattice

    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("subobject lattice needs nilpotency degree 0")
    quiver = dec.quiver
    xi = make_bms(pmap, omega, xi.f_plus, xi.f_minus, dict(xi.d))

    def upper(below):
        for step, (_, cap), (_, v) in zip(quiver.steps, xi.d, below.d):
            if v < cap:
                moved = _reconstruct_plus(below, step)
                if moved is not None:
                    yield step[0], moved

    root = BMSState(xi.f_minus, xi.f_minus, tuple((e, 0) for e, _ in xi.d))
    return grown_lattice(root, upper, key=lambda s: s.d)


def solve_dimension(pmap: PlanarMap, omega, f_plus, f_minus):
    """Reconstruct the unique dimension vector joining f_minus to f_plus.

    Propagates d(target) - d(source) = f_plus - f_minus along a spanning
    tree of the quiver, then shifts the global constant so invisible-cycle
    edges sit at zero (or the minimum sits at zero if there are none).

    Raises:
        RelationViolated: the differences are inconsistent around a cycle.
        InvisibleDimNonZero: invisible edges cannot all be zero.
        ValueError: inputs incompatible, or the result would be negative.
    """
    dec = Decoration.of(pmap, omega)
    quiver = dec.quiver
    _check_compatible(dec, f_plus, "f_plus")
    _check_compatible(dec, f_minus, "f_minus")

    delta = {a: f_plus[a] - f_minus[a] for a in quiver.arrow_ids}
    start = quiver.vertices[0]
    value = {start: 0}
    stack = [start]
    adjacency = {v: [] for v in quiver.vertices}
    for a in quiver.arrow_ids:
        s, t = quiver.arrows[a]
        adjacency[s].append((t, delta[a]))
        adjacency[t].append((s, -delta[a]))
    while stack:
        v = stack.pop()
        for w, step in adjacency[v]:
            if w not in value:
                value[w] = value[v] + step
                stack.append(w)
    for a in quiver.arrow_ids:
        s, t = quiver.arrows[a]
        if value[t] - value[s] != delta[a]:
            raise RelationViolated(
                a, f"difference of the two functions is inconsistent at {a}")

    inv_edges = sorted(dec.invisible_edges)
    if inv_edges:
        base = value[inv_edges[0]]
        for e in inv_edges[1:]:
            if value[e] != base:
                raise InvisibleDimNonZero(
                    e, f"invisible edges {inv_edges[0]} and {e} would need "
                       f"different dimensions")
    else:
        base = min(value.values())
    d = {e: value[e] - base for e in quiver.vertices}
    if any(v < 0 for v in d.values()):
        raise ValueError("no non-negative dimension vector joins the pair")
    return d
