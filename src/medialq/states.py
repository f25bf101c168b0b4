"""Weights, compatible angular functions, and counterclockwise moves.

A weight assigns a non-negative integer to every vertex and face of a planar
map, with equal totals.  A compatible angular function distributes those
numbers over the angles: its sum around each vertex and each face matches the
weight there.  Counterclockwise moves along an edge shift one unit between
the four angles flanking that edge; the resulting directed graph on the set
of compatible functions is the main object of study.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import getitem

from .planar import (MedialQuiver, PlanarMap, cell_key, connected_components,
                     read_document)


class MissingValue(ValueError):
    """A weight omits some vertex or face."""


class UnknownEdge(ValueError):
    """An edge id is not a vertex of the medial quiver."""


class NotMovable(ValueError):
    """A move was requested where its preconditions fail."""


class NotACycle(ValueError):
    """An arrow sequence does not form a directed cycle in the quiver."""


class EmptyStateSet(ValueError):
    """An operation needs at least one compatible angular function."""


class NotNilpotencyZero(ValueError):
    """An operation is only defined at nilpotency degree zero."""


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------

def validate_weight(pmap: PlanarMap, omega) -> bool:
    """True iff omega is non-negative everywhere and vertex and face totals agree.

    Raises:
        MissingValue: some vertex or face has no entry in omega.
    """
    for cid in pmap.cells:
        if cid not in omega:
            raise MissingValue(f"weight has no value for {cid}")
    if any(omega[c] < 0 for c in pmap.cells):
        return False
    sv = sum(omega[v] for v in pmap.vertices)
    sf = sum(omega[f] for f in pmap.faces)
    return sv == sf


def is_characteristic(omega) -> bool:
    """True iff every weight value is 0 or 1."""
    return all(v in (0, 1) for v in omega.values())


def parse_weight_text(text):
    """Parse a weight file: a YAML mapping from vertex/face ids to integers
    (YAML's true and false are not integers here, though Python's bools are)."""
    doc = read_document(text, MissingValue)
    out = {}
    for key, val in doc.items():
        if not isinstance(val, int) or isinstance(val, bool):
            raise MissingValue(f"weight value for {key!r} is not an integer")
        out[str(key)] = val
    return out


def dump_weight_text(omega):
    keys = sorted(omega, key=cell_key)
    return "\n".join(f"{k}: {omega[k]}" for k in keys) + "\n"


# ----------------------------------------------------------------------
# angular functions
# ----------------------------------------------------------------------

class AngleFrame:
    """Sorted angle names and their positions, one object per set of names.

    Get frames through ``AngleFrame.of``, which interns them, so functions
    over the same angles share one frame and compare frames by identity.
    """

    __slots__ = ("names", "position", "tokens")
    _interned = {}

    def __init__(self, names):
        self.names = names
        self.position = {a: i for i, a in enumerate(names)}
        self.tokens = [()] * len(names)  # tokens[i][v] == f"{names[i]}:{v}"

    @classmethod
    def of(cls, names) -> "AngleFrame":
        """The frame of `names`, which must be sorted and distinct."""
        names = tuple(names)
        frame = cls._interned.get(names)
        if frame is None:
            if any(a >= b for a, b in zip(names, names[1:])):
                raise ValueError("angle names must be sorted and distinct")
            frame = cls._interned[names] = cls(names)
        return frame

    def text(self, vector) -> str:
        """angle:value for the nonzero values of `vector`, in angle order,
        read from ready-made tokens; the table grows to twice the largest
        value whenever a value outgrows it."""
        try:
            return ",".join(map(getitem, compress(self.tokens, vector),
                                filter(None, vector)))
        except IndexError:
            values = range(2 * max(vector) + 1)
            self.tokens = [[f"{a}:{v}" for v in values] for a in self.names]
            return self.text(vector)


class AngularFunction:
    """Immutable non-negative integer function on the angles (quiver arrows).

    Stored as a shared ``AngleFrame`` plus ``vector``, the tuple of values
    in the frame's (sorted) angle order.  For functions over the same angles
    the canonical order is the lexicographic order of their vectors.
    """

    __slots__ = ("frame", "vector")

    def __init__(self, values):
        pairs = sorted(dict(values).items())
        self.frame = AngleFrame.of(a for a, _ in pairs)
        self.vector = tuple(v for _, v in pairs)

    @classmethod
    def from_vector(cls, frame: AngleFrame, vector: tuple) -> "AngularFunction":
        """The function with values `vector` in `frame`'s order (no checks)."""
        g = cls.__new__(cls)
        g.frame = frame
        g.vector = vector
        return g

    def __getitem__(self, angle):
        return self.vector[self.frame.position[angle]]

    def items(self):
        """(angle, value) pairs in sorted angle order."""
        return tuple(zip(self.frame.names, self.vector))

    def __eq__(self, other):
        return (isinstance(other, AngularFunction) and self.frame is other.frame
                and self.vector == other.vector)

    def __hash__(self):
        return hash(self.vector)

    def __lt__(self, other):
        if self.frame is other.frame:
            return self.vector < other.vector
        return self.items() < other.items()

    def __repr__(self):
        inner = ", ".join(f"{a}:{v}" for a, v in self.items())
        return f"AngularFunction({inner})"


class StateSequence(Sequence):
    """The states of a decoration in canonical order, kept as the pieces of
    its ``decomposition``: prefix p's block holds p + s for each completion
    s of p's budget.  A function is made only when one is read."""

    def __init__(self, frame: AngleFrame, decomposition):
        self.frame = frame
        self.m, self.prefixes, self.suffixes = decomposition
        self.starts = [0, *accumulate(len(self.suffixes[b])
                                      for _, b in self.prefixes)]
        # prefix -> (its block's first index, its budget), and budget ->
        # {completion: its rank among the budget's completions}
        self.blocks = {p: (n, b) for (p, b), n in zip(self.prefixes,
                                                      self.starts)}
        self.ranks = {b: dict(zip(ss, count()))
                      for b, ss in self.suffixes.items()}

    def __len__(self):
        return self.starts[-1]

    def __getitem__(self, n):
        if isinstance(n, slice):
            return tuple(map(self.__getitem__, range(len(self))[n]))
        n = range(len(self))[n]  # negative indices and IndexError
        q = bisect_right(self.starts, n) - 1
        p, b = self.prefixes[q]
        return AngularFunction.from_vector(
            self.frame, p + self.suffixes[b][n - self.starts[q]])

    def __iter__(self):
        return (AngularFunction.from_vector(self.frame, p + s)
                for p, b in self.prefixes for s in self.suffixes[b])

    def index(self, g) -> int:
        """The position of g, by one lookup of its prefix and one of its
        suffix; ValueError if g is no state (on another frame, say)."""
        if isinstance(g, AngularFunction) and g.frame is self.frame:
            n, b = self.blocks.get(g.vector[:self.m], (0, None))
            r = self.ranks.get(b, {}).get(g.vector[self.m:])
            if r is not None:
                return n + r
        raise ValueError("not a compatible function of the decoration")


class Decoration:
    """One planar map with one weight, the decorated graph (G, omega).

    Validated once; every invariant of the pair is computed on first use and
    kept: the medial quiver (shared with the map), the first compatible
    function, the decomposition of the angle order, all compatible functions
    in order (a sequence read off its pieces), the nilpotency degree, the
    invisible arrows and edges, the move graph with its components, their
    minima, and one lattice per component.  Get one through
    ``Decoration.of``, which memoizes on the map.
    """

    def __init__(self, pmap: PlanarMap, omega):
        self.pmap = pmap
        self.omega = omega
        self.quiver = pmap.quiver
        self._lattices = {}

    @classmethod
    def of(cls, pmap: PlanarMap, omega) -> "Decoration":
        """The decoration of pmap by omega, cached on pmap under omega's values.

        Raises:
            MissingValue: some vertex or face has no weight.
            ValueError: the weight names something that is no vertex or
                face, is invalid, or the map is not connected.
        """
        key = tuple(omega.get(c) for c in pmap.cells)
        if len(omega) != len(key) or None in key:  # not exactly the cells
            unknown = sorted(map(repr, set(omega).difference(pmap.cells)))
            if unknown:
                raise ValueError(f"weight names {', '.join(unknown)}, "
                                 "which is no vertex or face of the map")
        dec = pmap.decorations.get(key)
        if dec is None:
            if not validate_weight(pmap, omega):
                raise ValueError(
                    "weight is negative somewhere or vertex/face totals differ")
            if not pmap.is_connected():
                raise ValueError("operation requires a connected map")
            dec = pmap.decorations[key] = cls(pmap, dict(zip(pmap.cells, key)))
        return dec

    @cached_property
    def _cells(self):
        """(vs, fs, closes_v, closes_f, weights): per angle its vertex and face
        slots and whether it closes them, and the weight per slot."""
        angles = [self.quiver.angles[a] for a in self.quiver.arrow_ids]
        slot = {}
        vs = [slot.setdefault(a.vertex, len(slot)) for a in angles]
        fs = [slot.setdefault(a.face, len(slot)) for a in angles]
        last = {c: i for i, c in enumerate(vs)}
        last.update({c: i for i, c in enumerate(fs)})
        return (vs, fs, [last[c] == i for i, c in enumerate(vs)],
                [last[c] == i for i, c in enumerate(fs)],
                [self.omega[c] for c in slot])

    @cached_property
    def first(self):
        """The least compatible function in canonical order, or None."""
        cells = self._cells
        v = next(_segment(cells, list(cells[4]), 0, len(cells[0])), None)
        return None if v is None else AngularFunction.from_vector(
            AngleFrame.of(self.quiver.arrow_ids), v)

    def require_first(self) -> AngularFunction:
        if self.first is None:
            raise EmptyStateSet("no compatible angular function")
        return self.first

    @cached_property
    def decomposition(self) -> tuple:
        """(m, prefixes, suffixes): the angle order split at the cut m.

        The frontier of a cut is the set of cells with angles on both
        sides; m is the cut in the middle half of the order with the
        smallest frontier, ties going to the middle.  ``prefixes`` lists the
        assignments of the angles before m that have a completion, in
        lexicographic order, each with the budgets b it leaves its frontier;
        ``suffixes`` maps each such b to its completions, the assignments of
        the angles from m on, in lexicographic order.

        Lemma: the states are the vectors p + s for (p, b) in ``prefixes``
        and s in ``suffixes[b]``, and in that order they are sorted.  A cell
        wholly before m is closed by p and one wholly after m keeps its
        whole weight, so the completions of p depend on b alone (the
        transfer-matrix method; Knuth, TAOCP 4A, 7.1.4); and vectors compare
        first by their prefixes.
        """
        cells = self._cells
        vs, fs, budget = cells[0], cells[1], list(cells[4])
        n = len(vs)
        frontiers = {m: sorted(set(vs[:m] + fs[:m]) & set(vs[m:] + fs[m:]))
                     for m in range(n // 4, n - n // 4 + 1)}
        m = min(frontiers, key=lambda m: (len(frontiers[m]), abs(2 * m - n)))
        prefixes, suffixes, frontier = [], {}, frontiers[m]
        for p in _segment(cells, budget, 0, m):
            key = tuple([budget[c] for c in frontier])
            if key not in suffixes:
                suffixes[key] = list(_segment(cells, list(budget), m, n))
            if suffixes[key]:
                prefixes.append((p, key))
        return m, prefixes, {b: ss for b, ss in suffixes.items() if ss}

    @cached_property
    def states(self) -> StateSequence:
        return StateSequence(AngleFrame.of(self.quiver.arrow_ids),
                             self.decomposition)

    def state_texts(self):
        """Each state's angle:value text for its nonzero values, or "0", in
        order: each prefix and each suffix formatted once, over its angles."""
        m, prefixes, suffixes = self.decomposition
        names = self.quiver.arrow_ids
        head, tail = AngleFrame.of(names[:m]), AngleFrame.of(names[m:])
        texts = {b: [tail.text(s) for s in ss] for b, ss in suffixes.items()}
        for p, b in prefixes:
            h = head.text(p)
            yield from (f"{h},{t}" if h and t else h or t or "0"
                        for t in texts[b])

    @cached_property
    def nilpotency(self) -> int:
        return nilpotency_degree(self.pmap, self.omega)

    def require_nilpotency_zero(self, message):
        if self.nilpotency != 0:
            raise NotNilpotencyZero(message)

    @cached_property
    def invisible_arrows(self) -> frozenset:
        """Arrows on a directed cycle inside the zero set of ``first``.

        An arrow s -> t on which ``first`` vanishes is invisible iff s is
        reachable from t through such arrows.  Which compatible function is
        used does not matter: a cycle is invisible for one iff for all.
        """
        g0 = self.require_first()
        q = self.quiver
        zero = [a for a in q.arrow_ids if g0[a] == 0]
        succ = {e: [] for e in q.vertices}
        for a in zero:
            succ[q.source(a)].append((0, q.target(a)))
        reach = {t: _distances(succ, t) for t in {q.target(a) for a in zero}}
        return frozenset(a for a in zero if q.source(a) in reach[q.target(a)])

    @cached_property
    def invisible_edges(self) -> frozenset:
        return invisible_edge_set(self.quiver, self.invisible_arrows)

    @cached_property
    def move_graph(self) -> StateGraph:
        """Every move between states, by index arithmetic through the
        quiver's step table on the pieces of the ``decomposition``.

        Each state is p + s, s a completion of p's budget b.  A move shifts
        p by its angles before the cut and s by those after, so its target
        is a state iff the shifted p' is a prefix and s' a completion of
        its budget b'.  So p' is looked up once per prefix, and the ranks
        of the shifted s once per move, b and b'.  No state is built.

        Raises:
            AssertionError: a move leaves the state set.
        """
        m, prefixes, suffixes = self.decomposition
        nodes = self.states
        rows = {}  # a move's changes before the cut -> [(label, those after)]
        for e, _, *ends in self.quiver.steps:
            changes = list(zip(ends, UNIT))
            head = tuple((x, d) for x, d in changes if x < m)
            rows.setdefault(head, []).append(
                (e, [(x - m, d) for x, d in changes if x >= m]))
        lifts, edges = {}, []
        for (p, b), n in zip(prefixes, nodes.starts):
            for head, tails in rows.items():
                w = _shifted(p, head)
                if w is None:
                    continue
                c, b2 = nodes.blocks.get(w, (0, None))
                if (head, b, b2) not in lifts:
                    to = nodes.ranks.get(b2, {})
                    lift = [(r, to.get(s), e) for e, tail in tails
                            for r, s in enumerate(map(_shifted, suffixes[b],
                                                      repeat(tail)))
                            if s is not None]
                    for r, t, e in lift:  # no block before this one uses it
                        if t is None:
                            raise _leaves(e, n + r)
                    lifts[head, b, b2] = sorted(lift)  # runs for edges.sort
                edges += [(n + r, c + t, e) for r, t, e in lifts[head, b, b2]]
        edges.sort()
        return StateGraph(nodes, edges)

    @cached_property
    def minima(self) -> list:
        """minima[n] indexes the minimum of state n's move-graph component,
        the one node of the component that no move enters (AssertionError
        if there is none or more than one)."""
        graph = self.move_graph
        entered = {t for _, t, _ in graph.edges}
        minima = [0] * len(graph.nodes)
        for comp in graph.components:
            sources = [n for n in comp if n not in entered]
            if len(sources) != 1:
                raise AssertionError(f"the move-graph component of state "
                                     f"{comp[0]} has {len(sources)} minima")
            for n in comp:
                minima[n] = sources[0]
        return minima

    def index(self, g: AngularFunction) -> int:
        """The position of g in ``states``; ValueError if g is no state."""
        return self.states.index(g)

    def component_lattice(self, g: AngularFunction):
        """The certified lattice of the move-graph component of g, grown
        along the move graph from that component's minimum; one object per
        component, kept under its minimum."""
        from .bms import bms_plus_lattice  # bms imports us

        self.require_nilpotency_zero("greedy descent needs nilpotency degree 0")
        n = self.minima[self.index(g)]
        if n not in self._lattices:
            self._lattices[n] = bms_plus_lattice(
                self.pmap, self.omega, self.states[n])
        return self._lattices[n]


def _leaves(e, n):
    return AssertionError(f"move along {e} from state {n} leaves the state set")


def _segment(cells, budget, start, stop):
    """Every assignment of the angles start..stop-1 that fits ``budget``, in
    lexicographic order, as tuples; at each yield ``budget`` holds what each
    cell has left.  Iterative backtracking with values tried in ascending
    order: an angle is bounded by what its vertex and its face have left,
    and the last angle of a cell takes all of it, so over the whole order
    every leaf is compatible."""
    vs, fs, closes_v, closes_f = cells[:4]
    values = [0] * stop
    top = [0] * stop
    i = start
    while True:
        if i == stop:
            yield tuple(values[start:])
        else:
            v, f = vs[i], fs[i]
            bv, bf = budget[v], budget[f]
            # max and min spelt out: builtin calls per node cost more
            lo = bv if closes_v[i] else 0
            if closes_f[i] and bf > lo:
                lo = bf
            hi = bv if bv < bf else bf
            if lo <= hi:
                values[i], top[i] = lo, hi
                budget[v], budget[f] = bv - lo, bf - lo
                i += 1
                continue
        # back up to the deepest angle that can still take one more unit
        while True:
            i -= 1
            if i < start:
                return
            v, f = vs[i], fs[i]
            if values[i] < top[i]:
                values[i] += 1
                budget[v] -= 1
                budget[f] -= 1
                i += 1
                break
            budget[v] += values[i]
            budget[f] += values[i]


def enumerate_compatible(pmap: PlanarMap, omega):
    """The complete list of omega-compatible angular functions, canonically
    (lexicographically) ordered; an empty list is a valid outcome.

    Raises:
        MissingValue, ValueError: see ``Decoration.of``.
    """
    return list(Decoration.of(pmap, omega).states)


# ----------------------------------------------------------------------
# moves
# ----------------------------------------------------------------------

def delta_chi(quiver: MedialQuiver, e):
    """The move increment along e: +1 on both incoming angles, -1 on both outgoing."""
    if e not in quiver.outgoing:
        raise UnknownEdge(f"{e!r} is not an edge of the map")
    d = {}
    for a in quiver.incoming[e]:
        d[a] = d.get(a, 0) + 1
    for a in quiver.outgoing[e]:
        d[a] = d.get(a, 0) - 1
    return d


def is_e_movable(quiver: MedialQuiver, g: AngularFunction, e) -> bool:
    """True iff g is positive on both angles with source e."""
    if e not in quiver.outgoing:
        raise UnknownEdge(f"{e!r} is not an edge of the map")
    return all(g[a] > 0 for a in quiver.outgoing[e])


def is_anti_e_movable(quiver: MedialQuiver, g: AngularFunction, e) -> bool:
    """True iff g is positive on both angles with target e."""
    if e not in quiver.incoming:
        raise UnknownEdge(f"{e!r} is not an edge of the map")
    return all(g[a] > 0 for a in quiver.incoming[e])


UNIT = (-1, -1, 1, 1)  # a move's change at the positions (i, j, k, l)


def moved_vector(v: tuple, i, j, k, l) -> tuple:
    """v with a unit moved from positions i and j to positions k and l: a
    move along an edge whose step-table row is (e, n, i, j, k, l), or with
    (k, l, i, j) the anti-move; None if v lacks a unit to move."""
    return _shifted(v, list(zip((i, j, k, l), UNIT)))


def _shifted(v, changes):
    """v plus d at each position x of the (x, d) pairs in the sequence
    `changes`, or None if that takes a unit v does not have."""
    for x, d in changes:
        if v[x] + d < 0:
            return None
    w = list(v)
    for x, d in changes:
        w[x] += d
    return tuple(w)


def _moved(g: AngularFunction, lose, gain) -> AngularFunction:
    """g with a unit moved from each angle of `lose` to each of `gain`."""
    return AngularFunction.from_vector(g.frame, moved_vector(
        g.vector, *map(g.frame.position.__getitem__, lose + gain)))


def mov_e(quiver: MedialQuiver, g: AngularFunction, e) -> AngularFunction:
    """Counterclockwise move along e: a unit from each angle leaving e to
    each angle entering it.  Raises NotMovable if g is not e-movable."""
    if not is_e_movable(quiver, g, e):
        raise NotMovable(f"function is not movable along {e}")
    return _moved(g, quiver.outgoing[e], quiver.incoming[e])


def anti_mov_e(quiver: MedialQuiver, g: AngularFunction, e) -> AngularFunction:
    """Clockwise move along e, the inverse of mov_e."""
    if not is_anti_e_movable(quiver, g, e):
        raise NotMovable(f"function is not anti-movable along {e}")
    return _moved(g, quiver.incoming[e], quiver.outgoing[e])


class StateGraph:
    """Directed move graph: nodes are states, edges are labeled by map edges."""

    def __init__(self, nodes, edges):
        self.nodes = nodes  # a sequence of states, kept as it is passed
        self.edges = tuple(edges)  # (source index, target index, edge label)

    def out_edges(self, n):
        """The edges leaving node n, one slice of the sorted edges."""
        edges = self.edges
        return edges[bisect_left(edges, (n,)):bisect_left(edges, (n + 1,))]

    @cached_property
    def components(self) -> list:
        """Node indices per component, moves taken both ways, each sorted,
        in the order of their first node; swept once, by union-find with
        path halving (Tarjan 1975).  A larger root is linked under a
        smaller, so no node's parent exceeds it, and one ascending pass
        finds every root."""
        parent = list(range(len(self.nodes)))
        for s, t, _ in self.edges:
            s, t = parent[s], parent[t]  # one step up often meets
            if s != t:
                while parent[s] != s:
                    parent[s] = s = parent[parent[s]]
                while parent[t] != t:
                    parent[t] = t = parent[parent[t]]
                if s < t:
                    parent[t] = s
                else:
                    parent[s] = t
        comps = {}
        for x in range(len(parent)):
            parent[x] = r = parent[parent[x]]
            comps.setdefault(r, []).append(x)
        return list(comps.values())


# ----------------------------------------------------------------------
# angular cycles
# ----------------------------------------------------------------------

class AngularCycle:
    """A directed cycle in the medial quiver, given by its arrow sequence."""

    def __init__(self, arrows):
        self.arrows = tuple(arrows)

    def __repr__(self):
        return f"AngularCycle({' '.join(self.arrows)})"


def check_cycle(quiver: MedialQuiver, arrows):
    """Validate that consecutive arrows compose head-to-tail and close up."""
    if not arrows:
        raise NotACycle("empty arrow sequence")
    for a in arrows:
        if a not in quiver.arrows:
            raise NotACycle(f"unknown arrow {a!r}")
    for a, b in zip(arrows, arrows[1:] + tuple(arrows[:1])):
        if quiver.target(a) != quiver.source(b):
            raise NotACycle(f"arrows {a} and {b} do not compose")


def lambda_omega(quiver: MedialQuiver, cycle, g: AngularFunction) -> int:
    """Pairing of a directed cycle with the weight, evaluated through g.

    The value sum(c_a * g(a)) is independent of the choice of compatible g.
    """
    arrows = cycle.arrows if isinstance(cycle, AngularCycle) else tuple(cycle)
    check_cycle(quiver, arrows)
    return sum(g[a] for a in arrows)


# ----------------------------------------------------------------------
# invisible cycles, nilpotency, and the graph of invisible cycles
# ----------------------------------------------------------------------

def invisible_edge_set(quiver: MedialQuiver, invisible_arrows):
    """Map edges (quiver vertices) lying on some invisible cycle."""
    out = set()
    for a in invisible_arrows:
        out.add(quiver.source(a))
        out.add(quiver.target(a))
    return frozenset(out)


def nilpotency_degree(pmap: PlanarMap, omega) -> int:
    """Minimum of the weight pairing over directed cycles.

    The pairing of a cycle sums any compatible function g0 over its arrows,
    so this is a minimum-weight directed cycle under the non-negative arrow
    weights g0(a): one Dijkstra sweep from each quiver vertex v, closed by
    an arrow into v.

    Raises:
        EmptyStateSet: no compatible angular function exists.
    """
    dec = Decoration.of(pmap, omega)
    g0 = dec.require_first()
    q = dec.quiver
    succ = {e: [] for e in q.vertices}
    for a in q.arrow_ids:
        succ[q.source(a)].append((g0[a], q.target(a)))
    best = None
    for v in q.vertices:
        dist = _distances(succ, v)
        for a in q.incoming[v]:
            total = dist[q.source(a)] + g0[a]
            best = total if best is None else min(best, total)
    return best


def _distances(succ, start):
    """Shortest distances from start to every vertex it reaches (Dijkstra;
    succ maps a vertex to (non-negative weight, successor) pairs)."""
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for w, y in succ[x]:
            if y not in dist or d + w < dist[y]:
                dist[y] = d + w
                heapq.heappush(heap, (d + w, y))
    return dist


def gamma_inv_components(pmap: PlanarMap, omega) -> int:
    """Number of components of the graph of invisible connected angular cycles.

    Two invisible cycles are adjacent when they share a quiver vertex, which
    happens exactly when they lie in the same strongly connected component of
    the invisible subgraph.  Every invisible arrow lies on a cycle, so those
    are its plain connected components.

    Raises:
        EmptyStateSet, NotNilpotencyZero.
    """
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero(
        "no invisible cycles at positive nilpotency degree")
    links = [dec.quiver.arrows[a] for a in dec.invisible_arrows]
    return len(connected_components(sorted(dec.invisible_edges), links))


def gamma_inv_connected(pmap: PlanarMap, omega):
    """(is_connected, component_count) for the graph of invisible cycles."""
    n = gamma_inv_components(pmap, omega)
    return n == 1, n
