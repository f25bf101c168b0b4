"""Move-counting states and their graded distributive lattices.

A state here is a triple (f_plus, f_minus, d): two compatible angular
functions and a dimension vector on the edges recording how many moves along
each edge lead from f_minus to f_plus.  The triple must satisfy, for every
arrow a: d(target) - d(source) = f_plus(a) - f_minus(a), and d must vanish
on edges lying on invisible cycles — that rigidity pins d down uniquely.

With nilpotency degree zero, the states reachable from (g, g, 0) form a
finite graded distributive lattice under the pointwise order on d, with
pointwise max/min as join/meet.  This module walks those lattices on the
move graph from the minima read off it, subobject lattices included, and
certifies each on the walk.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import and_
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

if TYPE_CHECKING:  # only the lattice walk loads the lattice layer
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


# Kept for the tests' oracles while perfbench/tracer.py hooks one (ROADMAP 1).
def _moved(xi: BMSState, step) -> BMSState:
    """``bms_mov_e`` of xi along the edge of a step-table row, unchecked:
    f_plus must be positive at the row's two outgoing positions."""
    e, n, i, j, k, l = step
    d = xi.d
    return BMSState(
        AngularFunction.from_vector(
            xi.f_plus.frame, moved_vector(xi.f_plus.vector, i, j, k, l)),
        xi.f_minus, d[:n] + ((e, d[n][1] + 1),) + d[n + 1:])


def _reconstruct_plus(below, step):
    """`below` with d' raised by one at the edge of a step-table row: its
    ``bms_mov_e``, or None where f_plus would turn negative."""
    v = below.f_plus.vector
    return _moved(below, step) if v[step[2]] and v[step[3]] else None


def bms_plus_lattice(pmap: PlanarMap, omega, g: AngularFunction) -> FiniteLattice:
    """All states reachable from (g, g, 0), certified as a lattice.

    A state moves along e exactly when its f_plus does, raising d by one at
    e, so the lattice is g's part of ``Decoration.move_graph`` with d
    attached.  ``_move_lattice`` walks it breadth first from g's node and
    gives every node its d and the bitmask of d's (edge, level) pairs: a
    move along e from d(e) = j adds the bit (e, j + 1), numbered when the
    walk first sees it.  Call the mask of the first node that gains bit k
    the down-set of k.  Four checks, each naming the states, and the edge,
    where it fails:

    1. every move into a node gives it the same mask;
    2. the masks are distinct;
    3. every move adding k starts from a mask holding k's down-set
       without k, so every mask holding k holds k's down-set: in O(moves);
    4. at each node, the next-level bits (e, d(e) + 1) whose down-set
       without the bit lies in its mask, at most one per edge, are as many
       as its moves: in O(n·|E|).

    Then the bits, ordered by their down-sets, form a poset P, every mask
    is a down-set of P, and from each mask the moves add exactly the bits
    that keep it one.  As the root's mask is empty, the masks are all of
    J(P), each once, and the moves are its covers (Birkhoff, "Rings of
    sets", 1937; Propp, "Lattice structure for orientations of graphs",
    2002).  So the lattice is graded by total d, and as a mask holds the
    levels 1..d(e) of each edge e, join and meet are pointwise max and min
    of d.

    Raises:
        NotNilpotencyZero: the closure would be infinite.
        CertificationFailed: a check fails.
    """
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("lattice construction needs nilpotency degree 0")
    return _move_lattice(dec, make_bms(pmap, omega, g, g, {}))


def _move_lattice(dec: Decoration, root: BMSState, cap=None) -> FiniteLattice:
    """The states reached from root, whose d is 0, by the moves of the move
    graph that keep d <= cap (a state's d; every move when cap is None),
    certified by the four checks of ``bms_plus_lattice``.  Elements are
    ordered by (grade, d) and covers by the positions of their ends; bit k
    of a mask stands for the join-irreducible whose mask is k's down-set.
    """
    from .lattice import (Certificate, CertificationFailed, FiniteLattice,
                          FinitePoset)

    out_edges = dec.move_graph.out_edges
    place = {e: p for p, e in enumerate(dec.quiver.vertices)}
    nodes, ds, masks = [dec.index(root.f_plus)], [root.d], [0]
    walked = {nodes[0]: 0}  # move-graph node -> its place in the walk
    bits, down = {}, {}  # pair (e, j) of a d -> bit (e, j + 1), down-set - bit
    moves, firsts = [], []  # (place, place, edge) by source; each one's first
    for s, node in enumerate(nodes):  # breadth first: the list grows
        d, m = ds[s], masks[s]
        firsts.append(len(moves))
        for _, n, e in out_edges(node):
            p = place[e]
            pair = d[p]
            if cap is not None and pair[1] >= cap[p][1]:
                continue
            b = bits.get(pair)
            if b is None:
                b = bits[pair] = 1 << len(bits)
                down[pair] = m
            elif down[pair] & ~m:  # check 3
                raise CertificationFailed(
                    f"move along {e} from state {node} adds level "
                    f"{pair[1] + 1} of {e} without its down-set")
            t = walked.setdefault(n, len(nodes))
            if t == len(nodes):
                nodes.append(n)
                ds.append(d[:p] + ((e, pair[1] + 1),) + d[p + 1:])
                masks.append(m | b)
            elif masks[t] != m | b:  # check 1
                raise CertificationFailed(
                    f"move along {e} from state {node} gives state {n} "
                    "a second dimension vector")
            moves.append((s, t, e))
    firsts.append(len(moves))
    for s, (d, m) in enumerate(zip(ds, masks)):  # check 4
        # a bit no move added reads -1, which no mask holds
        admits = list(map(and_, map(down.get, d, repeat(-1)), repeat(~m)))
        if admits.count(0) != firsts[s + 1] - firsts[s]:
            moved = [e for _, _, e in moves[firsts[s]:firsts[s + 1]]]
            twice = [e for e in moved if moved.count(e) > 1]
            missed = [e for (e, _), a in zip(d, admits)
                      if not a and e not in moved]
            raise CertificationFailed(
                f"state {nodes[s]} moves along {twice[0]} twice" if twice
                else f"state {nodes[s]} does not move along {missed[0]}, "
                "which its d admits")

    grades = [m.bit_count() for m in masks]
    order = sorted(range(len(nodes)), key=lambda i: (grades[i], ds[i]))
    index_of_mask = {masks[i]: q for q, i in enumerate(order)}
    if len(index_of_mask) != len(order):  # check 2
        first = {}
        a, b = next((first[m], i) for i, m in enumerate(masks)
                    if first.setdefault(m, i) != i)
        raise CertificationFailed(f"states {nodes[a]} and {nodes[b]} have "
                                  "the same dimension vector")
    states, f_minus = dec.states, root.f_minus
    elements = [BMSState(states[nodes[i]], f_minus, ds[i]) if i else root
                for i in order]  # the root, of grade 0, comes first
    moves = sorted((index_of_mask[masks[s]], index_of_mask[masks[t]], e)
                   for s, t, e in moves)
    labels = {(elements[s], elements[t]): e for s, t, e in moves}
    poset = FinitePoset(elements, labels)
    return FiniteLattice(poset, Certificate(
        minimum=elements[0], maximum=elements[-1], size=len(elements),
        grade_range=(0, grades[order[-1]]),
        grade={x: grades[i] for x, i in zip(elements, order)},
        elements=poset.elements,
        join_irreducibles=tuple(elements[index_of_mask[down[pair] | b]]
                                for pair, b in bits.items()),
        masks=tuple(masks[i] for i in order), index_of_mask=index_of_mask),
        labels)


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

    xi is validated once, on entry.  The lattice is the walk of
    ``bms_plus_lattice`` from the root (f_minus, f_minus, 0), taking only
    the moves that keep d' <= d, certified by the same four checks.  A move
    raising d' at e changes f_plus = f_minus + d'(t) - d'(s) only on the
    four arrows at e, so each state below xi one step above another is its
    move.  The walk reaches every state below xi: for d' != 0 let S be the
    edges where d' is largest.  If no edge of S were anti-movable, f_minus
    would vanish on a directed cycle inside S; that cycle would be
    invisible, and d, hence d', is zero on invisible edges.  So d' minus
    one at some edge of S is again a state.  For xi the maximum of
    ``bms_plus_lattice`` from (g0, g0, 0), this is that lattice, masks and
    all: both walks take the same moves from the same root, and the cap
    never binds, as every element lies below the certified maximum.

    Raises:
        NotNilpotencyZero.
        ValueError: xi is not a valid state (see ``make_bms``).
        CertificationFailed: a check of the walk fails.
    """
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("subobject lattice needs nilpotency degree 0")
    xi = make_bms(pmap, omega, xi.f_plus, xi.f_minus, dict(xi.d))
    root = BMSState(xi.f_minus, xi.f_minus, tuple((e, 0) for e, _ in xi.d))
    return _move_lattice(dec, root, cap=xi.d)


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
