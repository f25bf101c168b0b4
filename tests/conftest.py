from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest

from medialq import bms, corpus, lattice
from medialq.lattice import Certificate, CertificationFailed, FiniteLattice
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


# ----------------------------------------------------------------------
# the grown-poset certifier: the generic oracle of the move-graph walk
# ----------------------------------------------------------------------

class FinitePoset(lattice.FinitePoset):
    """The library's poset with its transitive closures, from which it
    answers order, minimal and maximal elements, joins and meets."""

    @cached_property
    def _down(self):
        """Bit k of _down[i] (_up[i]) says k <= i (k >= i); on first use."""
        return self._reach(self._topo, self._below)

    @cached_property
    def _up(self):
        return self._reach(reversed(self._topo), self._above)

    def _reach(self, order, steps):
        masks = [1 << i for i in range(len(self.elements))]
        for i in order:
            for j in steps[i]:
                masks[i] |= masks[j]
        return masks

    def leq(self, x, y) -> bool:
        return bool(self._down[self._index[y]] >> self._index[x] & 1)

    def minimal_elements(self):
        return [x for x in self.elements if not self._below[self._index[x]]]

    def maximal_elements(self):
        return [x for x in self.elements if not self._above[self._index[x]]]

    def _bound(self, i, j, masks, order):
        """Index of the extreme element of masks[i] & masks[j], scanning in
        the given topological order, or None if no single extreme exists."""
        common = masks[i] & masks[j]
        if not common:
            return None
        for k in order:
            if common >> k & 1:
                return k if masks[k] & common == common else None
        return None  # pragma: no cover

    def join_index(self, i, j):
        return self._bound(i, j, self._up, self._topo)

    def meet_index(self, i, j):
        return self._bound(i, j, self._down, reversed(self._topo))

    def join(self, x, y):
        k = self.join_index(self._index[x], self._index[y])
        return None if k is None else self.elements[k]

    def meet(self, x, y):
        k = self.meet_index(self._index[x], self._index[y])
        return None if k is None else self.elements[k]


class Counterexample(Record):
    """The law a poset breaks, the elements that break it, and a message."""

    __slots__ = ("law", "witness", "message")

    ok = False


def _derived_grade(poset):
    """Longest chain length from a minimal element, per element."""
    g = [0] * len(poset.elements)
    for i in poset._topo:
        g[i] = max((g[j] + 1 for j in poset._below[i]), default=0)
    return dict(zip(poset.elements, g))


def certify_graded_distributive_lattice(poset, grade=None):
    """Certificate that the poset is a graded distributive lattice, or a
    Counterexample naming the violated law and the elements involved.

    Checks unique minimum and maximum, unit grade steps (``grade`` must give
    every element), and then Birkhoff's representation (see ``_birkhoff``).
    Unit steps leave nothing strictly between a cover's ends; a false cover,
    if any, is reported ahead of a failed check.  When Birkhoff's check
    fails, a pairwise search names a pair without join or meet, or a
    join-irreducible j below x join y but below neither x nor y: j, x and y
    violate the distributive identity.

    Raises:
        AssertionError: Birkhoff's check and the pairwise search disagree.
    """
    n = len(poset.elements)
    if n == 0:
        return Counterexample("nonempty", (), "empty poset")

    mins = poset.minimal_elements()
    maxs = poset.maximal_elements()
    if len(mins) != 1:
        failed = Counterexample("minimum", tuple(mins), "no unique minimum")
    elif len(maxs) != 1:
        failed = Counterexample("maximum", tuple(maxs), "no unique maximum")
    else:
        if grade is None:
            grade = _derived_grade(poset)
        failed = next((Counterexample(
            "graded", (a, b),
            f"cover {a!r} -> {b!r} changes grade by {grade[b] - grade[a]}")
            for a, b in poset.covers if grade[b] - grade[a] != 1), None)
    if failed is not None:  # name a false cover first, from the closures
        index, down, up = poset._index, poset._down, poset._up
        return next((Counterexample(
            "cover", (a, b), f"{a!r} -> {b!r} is not a cover relation")
            for a, b in poset.covers
            if down[index[b]] & up[index[a]] != 1 << index[a] | 1 << index[b]),
            failed)

    found = _birkhoff(poset)
    if found is None:
        bad = _pairwise_counterexample(poset)
        if bad is None:
            raise AssertionError("Birkhoff's check and the pairwise search "
                                 "disagree")
        return bad
    irreducibles, masks, index_of = found
    return Certificate(
        minimum=mins[0], maximum=maxs[0], size=n,
        grade_range=(min(grade[x] for x in poset.elements),
                     max(grade[x] for x in poset.elements)),
        grade=dict(grade), elements=poset.elements,
        join_irreducibles=tuple(poset.elements[j] for j in irreducibles),
        masks=tuple(masks), index_of_mask=index_of)


def _birkhoff(poset):
    """(irreducible indices, masks, mask -> index) if x -> J ∩ ↓x is an
    isomorphism onto the down-sets of J, else None.

    (a) Distinct masks and (b) one new bit per cover send covers one-to-one
    to covers of down-sets.  (c) Adding to a mask m any j outside m whose
    strict down-set lies in m gives a mask, so from the minimum's empty mask
    the image reaches every down-set.  (d) There are as many such additions
    as covers, so the covers map onto those of the down-set lattice.

    (c) and (d) do not imply (a): an 8-element graded poset fails (a) alone
    (``test_equal_masks_alone_caught``).  No graded poset with a unique
    minimum and maximum and at most 10 elements fails (b) alone, which
    stays as a cheap guard.
    """
    below = poset._below
    irreducibles = [i for i in poset._topo if len(below[i]) == 1]
    bit = {i: 1 << k for k, i in enumerate(irreducibles)}
    masks = [bit.get(i, 0) for i in range(len(poset.elements))]
    for i in poset._topo:
        for k in below[i]:
            masks[i] |= masks[k]
    index_of = {m: i for i, m in enumerate(masks)}
    if len(index_of) != len(masks):  # (a)
        return None
    for a, b in poset.covers:  # (b); mask(a) is inside mask(b)
        step = masks[poset._index[b]] ^ masks[poset._index[a]]
        if step & (step - 1):
            return None
    strict = [(bit[j], masks[j] ^ bit[j]) for j in irreducibles]
    extensions = 0
    for m in masks:
        for b, s in strict:
            if not m & b and not s & ~m:
                if m | b not in index_of:  # (c)
                    return None
                extensions += 1
    if extensions != len(set(poset.covers)):  # (d)
        return None
    return irreducibles, masks, index_of


def _pairwise_counterexample(poset):
    """The first pair, in element order, without a join or a meet, or with a
    join-irreducible below its join but below neither factor; else None."""
    n = len(poset.elements)
    irr = sum(1 << i for i in range(n) if len(poset._below[i]) == 1)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = poset.elements[i], poset.elements[j]
            jk = poset.join_index(i, j)
            if jk is None:
                return Counterexample(
                    "join", (x, y), "pair has no least upper bound")
            if poset.meet_index(i, j) is None:
                return Counterexample(
                    "meet", (x, y), "pair has no greatest lower bound")
            stray = poset._down[jk] & irr & ~(poset._down[i] | poset._down[j])
            if stray:
                return Counterexample(
                    "distributive",
                    (poset.elements[stray.bit_length() - 1], x, y),
                    "join-irreducible below the join but below neither factor")
    return None


def require_certificate(result):
    """Pass a Certificate through; raise CertificationFailed on a
    Counterexample."""
    if not result.ok:
        raise CertificationFailed(
            f"{result.law}: {result.message} {result.witness!r}")
    return result


def grown_lattice(root, upper, key) -> FiniteLattice:
    """The certified lattice of everything reached from root by cover steps.

    upper(x) yields (label, y) for each y covering x.  The grade is the
    number of steps from root; elements are ordered by (grade, key) and
    covers by the positions of their lower, then upper, ends in that order.

    Raises:
        CertificationFailed: the elements reached are not a graded
            distributive lattice.
    """
    grade, labels, first = {root: 0}, {}, {root: root}
    frontier = [root]
    for x in frontier:  # breadth first: the list grows while it is read
        for label, y in upper(x):
            y = first.setdefault(y, y)  # one object per element, not per cover
            labels[(x, y)] = label
            if y not in grade:
                grade[y] = grade[x] + 1
                frontier.append(y)
    elements = sorted(grade, key=lambda x: (grade[x], key(x)))
    position = {x: p for p, x in enumerate(elements)}
    covers = sorted(labels, key=lambda c: (position[c[0]], position[c[1]]))
    poset = FinitePoset(elements, covers)
    outcome = certify_graded_distributive_lattice(poset, grade=grade)
    return FiniteLattice(poset, require_certificate(outcome), labels)


def relabel(lat, rename) -> FiniteLattice:
    """The same lattice with each element x renamed rename(x), which must
    be injective; the certificate and the cover labels carry over."""
    new, cert = {x: rename(x) for x in lat.elements}, lat.certificate
    poset = FinitePoset(new.values(), [(new[a], new[b]) for a, b in lat.covers])
    cert = cert._replace(
        minimum=new[cert.minimum], maximum=new[cert.maximum],
        grade={new[x]: g for x, g in cert.grade.items()},
        elements=poset.elements,
        join_irreducibles=tuple(new[j] for j in cert.join_irreducibles))
    labels = None if lat.labels is None else {
        (new[a], new[b]): e for (a, b), e in lat.labels.items()}
    return FiniteLattice(poset, cert, labels)


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


def check_pointwise_closure(lat):
    """Check that join and meet are pointwise max and min of d.

    Covers are moves, each raising d by one at its label.  A join-irreducible
    takes the label of its lower cover; every cover adding it must carry that
    label, and the irreducibles of each edge must form a chain.  Then
    d(x)(e) - d(minimum)(e) counts the irreducibles of e below x, a prefix of
    that chain, so unions and intersections of masks are pointwise max and
    min of d.  Both conditions are also necessary.
    """
    cert, index = lat.certificate, lat.poset._index
    edge_of, chains = {}, {}
    for (a, b), e in lat.labels.items():
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


def lattice_by_steps(pmap, omega, g):
    """``bms_plus_lattice`` grown state by state through the step table:
    all states reachable from (g, g, 0), certified as a lattice by the
    grown-poset certifier and ``check_pointwise_closure``."""
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("lattice construction needs nilpotency degree 0")
    quiver = dec.quiver
    lat = grown_lattice(bms.make_bms(pmap, omega, g, g, {}),
                        lambda xi: moves_by_steps(quiver, xi),
                        key=lambda xi: xi.d)
    check_pointwise_closure(lat)
    return lat


def subobjects_by_steps(pmap, omega, xi):
    """``plus_subobjects`` grown from (f_minus, f_minus, 0) through the step
    table: each step raises d' by one at an edge e where d' is below d, and
    is kept where f_plus stays non-negative (``bms._reconstruct_plus``)."""
    dec = Decoration.of(pmap, omega)
    dec.require_nilpotency_zero("subobject lattice needs nilpotency degree 0")
    xi = bms.make_bms(pmap, omega, xi.f_plus, xi.f_minus, dict(xi.d))

    def upper(below):
        for step, (_, cap), (_, v) in zip(dec.quiver.steps, xi.d, below.d):
            if v < cap:
                moved = bms._reconstruct_plus(below, step)
                if moved is not None:
                    yield step[0], moved

    root = bms.BMSState(xi.f_minus, xi.f_minus, tuple((e, 0) for e, _ in xi.d))
    return grown_lattice(root, upper, key=lambda s: s.d)


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
