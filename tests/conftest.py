from fractions import Fraction
from itertools import product

import pytest

from medialq import bms, corpus
from medialq.lattice import grown_lattice
from medialq.linalg import Matrix, hstack_all
from medialq.planar import (PlanarMap, Record, build_planar_map,
                            connected_components, dump_map_text)
from medialq.reps import (CandidateSpaceTooLarge, QuiverRep, _prefix_closed,
                          _require_subrep_premises, is_nilpotent)
from medialq.states import (AngleFrame, AngularFunction, Decoration,
                            StateGraph, anti_mov_e, is_anti_e_movable,
                            is_e_movable, moved_vector)


# Triangle: three degree-2 vertices in a cycle.  Face f0 = {a0, a1, a2} is the
# face whose trace starts at the smallest dart; f1 is the other one.
TRIANGLE_ROT = [["a0", "b2"], ["a1", "b0"], ["a2", "b1"]]
TRIANGLE_PAIR = [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]

# Digon: two vertices joined by two parallel edges.
DIGON_ROT = [["a0", "a1"], ["b0", "b1"]]
DIGON_PAIR = [["a0", "b0"], ["a1", "b1"]]


@pytest.fixture
def triangle():
    return build_planar_map(TRIANGLE_ROT, TRIANGLE_PAIR)


@pytest.fixture
def digon():
    return build_planar_map(DIGON_ROT, DIGON_PAIR)


@pytest.fixture(scope="session")
def corpus_maps():
    """name -> (PlanarMap, marked_edge) for every shipped diagram."""
    return {name: corpus.load(name) for name in corpus.names()}


def compatible_functions(pmap, omega):
    """Every function on the angles with values up to the largest weight,
    filtered by the vertex and face sums; only for tiny maps (<= 10 angles).
    Sorted by the value tuple, the canonical order."""
    quiver = pmap.quiver
    angles = list(pmap.darts)
    if len(angles) > 10:
        raise ValueError("brute-force oracle limited to 10 angles")
    top = max((omega[c] for c in pmap.cells), default=0)
    found = []
    for combo in product(range(top + 1), repeat=len(angles)):
        g = dict(zip(angles, combo))
        if all(sum(g[a] for a in quiver.vertex_cycles[v]) == omega[v]
               for v in pmap.vertices) and all(
                sum(g[a] for a in quiver.face_cycles[f]) == omega[f]
                for f in pmap.faces):
            found.append(AngularFunction(g))
    found.sort(key=lambda g: tuple(v for _, v in g.items()))
    return found


def compatible_functions_by_backtracking(quiver, omega):
    """Every omega-compatible function, in canonical order, one at a time.

    Iterative backtracking over the angles in dart order with values tried
    in ascending order, so depth-first order is the lexicographic order of
    value tuples.  Each angle is bounded by the remaining budgets of its
    vertex and of its face, and the last angle of a cell takes exactly what
    is left there, so every leaf is compatible.

    The one-pass search that the split at the narrowest frontier replaced.
    """
    angles = quiver.arrow_ids
    frame = AngleFrame.of(angles)
    n = len(angles)
    slot = {}
    vs = [slot.setdefault(quiver.angles[a].vertex, len(slot)) for a in angles]
    fs = [slot.setdefault(quiver.angles[a].face, len(slot)) for a in angles]
    last = {c: i for i, c in enumerate(vs)}
    last.update({c: i for i, c in enumerate(fs)})
    closes_v = [last[c] == i for i, c in enumerate(vs)]
    closes_f = [last[c] == i for i, c in enumerate(fs)]
    budget = [omega[c] for c in slot]
    values = [0] * n
    top = [0] * n
    i = 0
    while True:
        if i == n:
            yield AngularFunction.from_vector(frame, tuple(values))
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
            if i < 0:
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


def move_graph_by_lookup(quiver, nodes):
    """Every move between the states `nodes`, each moved vector looked up
    among all of them: the move graph before the split at the narrowest
    frontier.

    Raises:
        AssertionError: a move leaves the state set.
    """
    index = {g.vector: n for n, g in enumerate(nodes)}
    edges = []
    for n, g in enumerate(nodes):
        v = g.vector
        for e, _, i, j, k, l in quiver.steps:
            if v[i] and v[j]:
                m = index.get(moved_vector(v, i, j, k, l))
                if m is None:
                    raise AssertionError(
                        f"move along {e} from state {n} leaves the state set")
                edges.append((n, m, e))
    edges.sort()
    return StateGraph(nodes, edges)


def gamma_inv_components_bruteforce(pmap: PlanarMap, omega, max_arrows=12) -> int:
    """Oracle: enumerate simple cycles in the zero set and glue along shared vertices."""
    dec = Decoration.of(pmap, omega)
    q = dec.quiver
    if len(q.arrow_ids) > max_arrows:
        raise ValueError(f"brute-force oracle limited to {max_arrows} arrows")
    g0 = dec.require_first()
    succ = {e: set() for e in q.vertices}
    for a in q.arrow_ids:
        if g0[a] == 0:
            succ[q.source(a)].add(q.target(a))
    cycles = []
    for start in q.vertices:  # each simple cycle once, from its least vertex
        paths = [[start]]
        while paths:
            path = paths.pop()
            for w in succ[path[-1]]:
                if w == start:
                    cycles.append(frozenset(path))
                elif w > start and w not in path:
                    paths.append(path + [w])
    links = [(i, j) for i in range(len(cycles)) for j in range(i)
             if cycles[i] & cycles[j]]
    return len(connected_components(range(len(cycles)), links))


# ----------------------------------------------------------------------
# helpers over the library's objects that only the tests need
# ----------------------------------------------------------------------

def regenerate_files(directory):
    """Write every corpus .map file, as its generator makes it, into
    ``directory``."""
    for name in corpus.names():
        pmap, marked = corpus.generate(name)
        (directory / f"{name}.map").write_text(
            dump_map_text(pmap, marked_edge=marked))


def is_strongly_connected(quiver):
    """Does every vertex of the quiver reach every other along arrows?"""
    succ = {v: [] for v in quiver.vertices}
    pred = {v: [] for v in quiver.vertices}
    for s, t in quiver.arrows.values():
        succ[s].append(t)
        pred[t].append(s)

    def sweep(adj):
        seen = set(quiver.vertices[:1])
        stack = list(seen)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(quiver.vertices)

    return sweep(succ) and sweep(pred)


def lower_covers(poset, x):
    return [a for a, b in poset.covers if b == x]


def upper_covers(poset, x):
    return [b for a, b in poset.covers if a == x]


def verify_order_isomorphism(p, q, mapping) -> bool:
    """Oracle: True iff mapping is a bijection between the posets p and q
    preserving order both ways, read off their transitive closures.

    Each order is the closure of its covers, so it suffices that every cover
    of p maps below-or-equal in q and every cover of q comes from p's order.
    """
    if set(mapping.keys()) != set(p.elements):
        return False
    image = list(mapping.values())
    if len(set(image)) != len(image) or set(image) != set(q.elements):
        return False
    inverse = {y: x for x, y in mapping.items()}
    return (all(q.leq(mapping[a], mapping[b]) for a, b in p.covers)
            and all(p.leq(inverse[c], inverse[d]) for c, d in q.covers))


def is_prefix_family(m, k):
    """Does every arrow matrix of m map the prefix k at its source into the
    prefix k at its target?  k maps each vertex to a prefix length."""
    return all(m.mats[a].data[i][j] == 0 for a, (s, t) in m.arrows.items()
               for j in range(k[s]) for i in range(k[t], m.dims[t]))


def require_unit_step_premises(m, omega):
    """Raise as ``reps.verify_subrep_isomorphism`` does, and also unless m
    is nilpotent: only then does every subrepresentation U != 0 drop by a
    unit step within S, so that growth by unit steps from 0 reaches S."""
    _require_subrep_premises(m, omega)
    if not is_nilpotent(m):
        raise CandidateSpaceTooLarge(
            "module is not nilpotent; growth by unit steps from 0 would not "
            "be provably complete")


def enumerate_subreps(m, omega):
    """Oracle that grows the subrepresentations S of m: the prefix families
    reached from 0 by unit steps, as a certified lattice ordered pointwise,
    each element its (vertex, k_e) pairs in vertex order.  It refuses as
    ``require_unit_step_premises`` does, under whose premises these are
    all of S.  Every candidate is checked against every arrow, so the
    oracle does not rest on ``unit_step_isomorphism_oracle``'s argument
    that only the arrows out of the raised vertex can break."""
    require_unit_step_premises(m, omega)

    def upper(family):
        base = dict(family)
        for e in m.vertices:
            if base[e] < m.dims[e]:
                k = {**base, e: base[e] + 1}
                if is_prefix_family(m, k):
                    yield e, tuple(k.items())

    return grown_lattice(tuple((e, 0) for e in m.vertices), upper,
                         key=lambda k: k)


def subrep_isomorphism_oracle(below, module, omega) -> bool:
    """Oracle of ``reps.verify_subrep_isomorphism``, the comparison its
    one-pass scan replaced: grow the subrepresentations of module with
    ``enumerate_subreps`` (raising as it does), then compare them with
    below under x -> x.d as sets of vectors and of covers, and by grade."""
    subreps = enumerate_subreps(module, omega)
    iso = (len(below) == len(subreps)
           and {x.d for x in below.elements} == set(subreps.elements)
           and {(a.d, b.d) for a, b in below.covers} == set(subreps.covers))
    return iso and all(below.grade[x] == subreps.grade[x.d]
                       for x in below.elements)


def _unit_steps(m):
    """upper(k) yields (e, k raised by one at e) for each vertex e where that
    is a subrepresentation, given k is one: only the arrows out of e can
    break, so only they are checked."""
    out = {e: [a for a in sorted(m.arrows) if m.source(a) == e]
           for e in m.vertices}

    def upper(family):
        base = dict(family)
        for e in m.vertices:
            if base[e] < m.dims[e]:
                k = dict(base)  # a fresh family per candidate
                k[e] += 1
                if all(_prefix_closed(m, k, a) for a in out[e]):
                    yield e, tuple(k.items())
    return upper


def unit_step_isomorphism_oracle(below, module, omega) -> bool:
    """Oracle of ``reps.verify_subrep_isomorphism``, the unit-step scan its
    least-point check replaced: is x -> x.d an order isomorphism from below
    onto the subrepresentations S of module?  It refuses as
    ``require_unit_step_premises`` does.

    Lemma: it is, exactly when the minimum of below has d = 0, no two
    elements share a d, and the unit steps within S from each x.d
    (``_unit_steps``) are the d of the covers of x.  (<=) Each x is reached
    from the minimum by covers, and a unit step from U in S breaks only
    arrows out of the raised vertex, which are checked: d lands in S.  Each
    U != 0 in S drops by a unit step within S (module is nilpotent), so S
    is reached from 0 by unit steps, each the d of a cover: d is onto.
    Unit steps generate the order of S (U <= U' through U + V, V climbing
    from 0 to U'), so d, one to one by the second test, preserves order
    both ways.  (=>) is immediate.  The second test is needed: a square
    whose middle pair shares a d passes the others over a 3-chain of S.
    """
    require_unit_step_premises(module, omega)
    upper = _unit_steps(module)
    above = {x.d: set() for x in below.elements}  # d -> the d of its covers
    for x, y in below.covers:
        above[x.d].add(y.d)
    # one element's unit steps at a time: each is a fresh tuple of pairs
    return (below.minimum.d == tuple((e, 0) for e in module.vertices)
            and len(above) == len(below)
            and all({k for _, k in upper(d)} == ups
                    for d, ups in above.items()))


def _table(cert, op):
    xs, index_of = cert.elements, cert.index_of_mask
    return {(x, y): xs[index_of[op(mx, my)]]
            for x, mx in zip(xs, cert.masks)
            for y, my in zip(xs, cert.masks) if x != y}


def join_table(cert):
    """{(x, y): x join y} over all pairs of distinct elements of a
    certified lattice, from the certificate's masks."""
    return _table(cert, int.__or__)


def meet_table(cert):
    return _table(cert, int.__and__)


def edge_endpoints(pmap, eid):
    """The two vertices joined by edge eid."""
    a, b = pmap.edges[eid]
    return (pmap.vertex_of[a], pmap.vertex_of[b])


def is_valid_state(diagram, state) -> bool:
    """A Kauffman state by its definition: exactly one marker per crossing
    and per unmarked face, none on a marked face."""
    pmap = diagram.pmap
    if not set(state.angles) <= set(pmap.darts):
        return False
    quiver = pmap.quiver
    per_vertex = {v: 0 for v in pmap.vertices}
    per_face = {f: 0 for f in pmap.faces}
    for a in state.angles:
        ang = quiver.angles[a]
        per_vertex[ang.vertex] += 1
        per_face[ang.face] += 1
    if any(n != 1 for n in per_vertex.values()):
        return False
    marked = set(diagram.marked_faces)
    return all(
        n == (0 if f in marked else 1) for f, n in per_face.items())


def total_dim(module):
    return sum(module.dims.values())


def direct_sum(a, b):
    """Block-diagonal sum of two representations of the same quiver."""
    if a.vertices != b.vertices or a.arrows != b.arrows:
        raise ValueError("direct sum needs the same quiver on both sides")
    dims = {e: a.dims[e] + b.dims[e] for e in a.vertices}
    mats = {}
    for arr in a.arrows:
        ma, mb = a.mats[arr], b.mats[arr]
        top = hstack_all([ma, Matrix.zeros(ma.rows, mb.cols)], ma.rows)
        bottom = hstack_all([Matrix.zeros(mb.rows, ma.cols), mb], mb.rows)
        mats[arr] = Matrix(top.rows + bottom.rows, top.cols,
                           top.data + bottom.data)
    cycles = a.cycles if a.cycles == b.cycles else ()
    return QuiverRep(a.vertices, a.arrows, dims, mats, cycles)


# ----------------------------------------------------------------------
# moves by edge name, the path the step table replaced
# ----------------------------------------------------------------------

def moves_by_name(quiver, xi):
    """(e, bms_mov_e of xi along e) for every e where f_plus is
    ``is_e_movable``: every move validated and made angle by angle."""
    return [(e, bms.bms_mov_e(quiver, xi, e)) for e in quiver.vertices
            if is_e_movable(quiver, xi.f_plus, e)]


def subobjects_by_name(pmap, omega, xi):
    """``plus_subobjects`` grown by ``is_e_movable`` and ``bms_mov_e``."""
    quiver = pmap.quiver
    cap = dict(xi.d)

    def upper(below):
        return [(e, up) for e, up in moves_by_name(quiver, below)
                if below.dim(e) < cap[e]]

    root = bms.BMSState(xi.f_minus, xi.f_minus,
                        tuple((e, 0) for e, _ in xi.d))
    return grown_lattice(root, upper, key=lambda s: s.d)


class ProjectionReport(Record):
    """Outcome of checking the forgetful projection onto f_plus."""

    __slots__ = ("total_states", "image_size", "injective", "is_morphism",
                 "out_degrees_match", "graph_size", "components_touched",
                 "components_fully_covered")

    @property
    def ok(self):
        return self.is_morphism and self.out_degrees_match


def forgetful_projection(pmap, omega, states) -> ProjectionReport:
    """Oracle of ``check.projects_onto``: does xi -> f_plus map the moves of
    `states`, made by name, onto the move graph of the plain angular
    functions?  Every move maps to a move and out-degrees agree (local
    bijectivity on outgoing edges); how much of the graph is covered, and
    whether one-to-one, is reported beside."""
    dec = Decoration.of(pmap, omega)
    graph = dec.move_graph
    index = {g: i for i, g in enumerate(graph.nodes)}
    out_of = {i: set() for i in range(len(graph.nodes))}
    for s, t, lab in graph.edges:
        out_of[s].add((t, lab))

    states = list(states)
    image = {xi.f_plus for xi in states}
    is_morphism = True
    degrees_match = True
    for xi in states:
        graph_out = out_of[index[xi.f_plus]]
        bms_out = [(index[nxt.f_plus], e)
                   for e, nxt in moves_by_name(dec.quiver, xi)]
        is_morphism = is_morphism and graph_out.issuperset(bms_out)
        degrees_match = degrees_match and len(bms_out) == len(graph_out)

    image_idx = {index[g] for g in image}
    touched = [c for c in graph.components if image_idx & set(c)]
    full = [c for c in touched if set(c) <= image_idx]
    return ProjectionReport(
        total_states=len(states), image_size=len(image),
        injective=len(image) == len(states), is_morphism=is_morphism,
        out_degrees_match=degrees_match, graph_size=len(graph.nodes),
        components_touched=len(touched), components_fully_covered=len(full))


def component_minimum_by_name(pmap, h, choose):
    """Greedy anti-moves from h until stuck, each along the edge `choose`
    picks, by ``is_anti_e_movable`` and ``anti_mov_e``: (terminal function,
    accumulated d), an oracle of ``component_minimum``."""
    quiver = pmap.quiver
    current, d = h, {e: 0 for e in quiver.vertices}
    while True:
        options = [e for e in quiver.vertices
                   if is_anti_e_movable(quiver, current, e)]
        if not options:
            return current, d
        e = choose(options)
        current = anti_mov_e(quiver, current, e)
        d[e] += 1


# ----------------------------------------------------------------------
# component lattices by the step table, the growth the move graph replaced
# ----------------------------------------------------------------------

def moves_by_steps(quiver, xi):
    """(e, bms_mov_e of xi along e) for every edge e along which xi moves,
    read off the step table."""
    v = xi.f_plus.vector
    for step in quiver.steps:
        if v[step[2]] and v[step[3]]:
            yield step[0], bms._moved(xi, step)


def lattice_by_steps(pmap, omega, g):
    """``bms_plus_lattice`` grown state by state through the step table:
    all states reachable from (g, g, 0), certified as a lattice."""
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("lattice construction needs nilpotency degree 0")
    quiver = dec.quiver
    lattice = grown_lattice(bms.make_bms(pmap, omega, g, g, {}),
                            lambda xi: moves_by_steps(quiver, xi),
                            key=lambda xi: xi.d)
    bms._check_pointwise_closure(lattice)
    return lattice


def minimum_by_steps(pmap, omega, h):
    """Greedy anti-moves from h until stuck, each along the first
    anti-movable edge of the step table: (terminal f_minus, accumulated d).
    Only at nilpotency degree 0, where the descent terminates."""
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("greedy descent needs nilpotency degree 0")
    quiver = dec.quiver
    bms._check_compatible(dec, h, "h")
    v, d = h.vector, [0] * len(quiver.vertices)
    while True:  # anti-moves by the step table: positive at both incoming
        step = next((s for s in quiver.steps if v[s[4]] and v[s[5]]), None)
        if step is None:
            break
        _, n, i, j, k, l = step
        v = moved_vector(v, k, l, i, j)
        d[n] += 1
    current = AngularFunction.from_vector(h.frame, v)
    d = dict(zip(quiver.vertices, d))
    bms.make_bms(pmap, omega, h, current, d)  # validity assertion
    return current, d


def paths_vanish_by_rounds(m):
    """The nilpotency chain recomputing every span in every round: do all
    long paths act by zero?"""
    spans = {e: Matrix.identity(m.dims[e]) for e in m.vertices}
    total = sum(m.dims.values())
    while True:
        new = {}
        for e in m.vertices:
            pieces = [m.mats[a] @ spans[m.source(a)] for a in m.incoming(e)]
            new[e] = hstack_all(pieces, m.dims[e]).column_basis()
        new_total = sum(sp.cols for sp in new.values())
        if new_total == total:
            return total == 0
        spans, total = new, new_total


def rref_by_fractions(self):
    """The reduced row echelon form and pivot columns of a Matrix as
    ``Matrix.rref`` computed them with a Fraction in every entry, each pivot
    row divided through by its pivot: the oracle of the integer
    elimination, which picks the same pivots."""
    m = [[Fraction(x) for x in row] for row in self.data]
    pivots = []
    r = 0
    for c in range(self.cols):
        pivot = next((i for i in range(r, self.rows) if m[i][c] != 0),
                     None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(self.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == self.rows:
            break
    return Matrix(self.rows, self.cols, m), tuple(pivots)


def nullspace_by_fractions(a):
    """The kernel basis of ``Matrix.nullspace``, read off the oracle
    elimination: one vector per free column, that variable set to 1."""
    reduced, pivots = rref_by_fractions(a)
    basis = []
    for free in sorted(set(range(a.cols)) - set(pivots)):
        vec = [Fraction(0)] * a.cols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced.data[r][free]
        basis.append(vec)
    return basis


def column_basis_by_fractions(a):
    """The column-space basis of ``Matrix.column_basis``: the nonzero rows of
    the oracle elimination of the transpose, as columns."""
    reduced, pivots = rref_by_fractions(a.transpose())
    return Matrix(len(pivots), a.rows, reduced.data[:len(pivots)]).transpose()


def endomorphism_ring_by_fractions(m):
    """(basis, gram rank) of the End ring of a QuiverRep, solved in
    Fractions on the oracle elimination: the kernel of the system
    F_target . M_arrow = M_arrow . F_source, one variable per entry of each
    F_e in vertex order, row by row, and the rank of the trace form on it."""
    offset, nvars = {}, 0
    for e in m.vertices:
        offset[e] = nvars
        nvars += m.dims[e] ** 2
    rows = []
    for arrow in sorted(m.arrows):
        s, t = m.arrows[arrow]
        mat = m.mats[arrow]
        for i, j in product(range(m.dims[t]), range(m.dims[s])):
            row = [Fraction(0)] * nvars
            for k in range(m.dims[t]):
                row[offset[t] + i * m.dims[t] + k] += mat.data[k][j]
            for l in range(m.dims[s]):
                row[offset[s] + l * m.dims[s] + j] -= mat.data[i][l]
            if any(row):
                rows.append(row)
    basis = []
    for vec in nullspace_by_fractions(Matrix(len(rows), nvars, rows)):
        basis.append({e: Matrix(m.dims[e], m.dims[e], [
            vec[offset[e] + i * m.dims[e]:offset[e] + (i + 1) * m.dims[e]]
            for i in range(m.dims[e])]) for e in m.vertices})
    gram = Matrix(len(basis), len(basis), [
        [sum((sum(((fi[e] @ fj[e]).data[r][r] for r in range(m.dims[e])),
                  Fraction(0)) for e in m.vertices), Fraction(0))
         for fj in basis] for fi in basis])
    return basis, len(rref_by_fractions(gram)[1])
