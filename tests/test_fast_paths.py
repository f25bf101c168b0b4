"""The library's fast paths against independent oracles on generated inputs.

Maps are braid-closure shadows and connected sums built by ``corpus``, and
small cycle maps; weights are either summed from a random angular function
(so never empty) or drawn cell by cell (possibly invalid or empty).  The
oracles are brute force and networkx, which is a test-only dependency.
"""

import sys

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hs

from medialq import corpus
from medialq import states as st
from medialq.kauffman import (LinkDiagram, enumerate_kauffman_states,
                              find_separating_pair, kauffman_weight)
from medialq.planar import build_planar_map

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def diagram_of(pmap):
    """The link diagram marked at the first edge between two distinct faces."""
    return LinkDiagram(pmap, next(e for e in sorted(pmap.edges)
                                  if len(set(pmap.edge_faces(e))) == 2))


def cycle_map(n):
    """The n-cycle as a planar map (n = 2 is the digon, 3 the triangle)."""
    rotations = [[f"a{i}", f"b{(i - 1) % n}"] for i in range(n)]
    return build_planar_map(rotations, [[f"a{i}", f"b{i}"] for i in range(n)])


@hs.composite
def braid_words(draw, max_per_position=3):
    """(word, strands): every position used at least twice, so the closure
    is a connected loopless shadow."""
    strands = draw(hs.integers(2, 4))
    counts = [draw(hs.integers(2, max_per_position))
              for _ in range(strands - 1)]
    word = [p for p, c in enumerate(counts, start=1) for _ in range(c)]
    return draw(hs.permutations(word)), strands


@hs.composite
def shadows(draw, max_per_position=3, sums=True):
    """A braid-closure shadow, or a connected sum of two."""
    word, strands = draw(braid_words(max_per_position))
    rot, pair = corpus.braid_closure_shadow(word, strands, prefix="x")
    if sums and draw(hs.booleans()):
        word2, strands2 = draw(braid_words(2))
        rot2, pair2 = corpus.braid_closure_shadow(word2, strands2, prefix="y")
        rot, pair = corpus.connected_sum(
            rot, pair, rot2, pair2,
            draw(hs.integers(0, len(pair) - 1)),
            draw(hs.integers(0, len(pair2) - 1)))
    return build_planar_map(rot, pair)


@hs.composite
def summed_weights(draw, pmap, top=1):
    """The weight of a random angular function with values in 0..top."""
    q = pmap.quiver
    g = {a: draw(hs.integers(0, top)) for a in pmap.darts}
    omega = {v: sum(g[a] for a in q.vertex_cycles[v]) for v in pmap.vertices}
    omega.update({f: sum(g[a] for a in q.face_cycles[f]) for f in pmap.faces})
    return omega


@hs.composite
def cell_weights(draw, pmap, top=2):
    """Independent values per cell: often invalid, sometimes empty."""
    return {c: draw(hs.integers(0, top)) for c in pmap.cells}


def _zero_scc_arrows(q, g):
    """networkx: arrows of g's zero set inside one strongly connected component."""
    zero = [a for a in q.arrow_ids if g[a] == 0]
    dg = nx.DiGraph()
    dg.add_nodes_from(q.vertices)
    dg.add_edges_from(q.arrows[a] for a in zero)
    comp = {v: i for i, scc in enumerate(nx.strongly_connected_components(dg))
            for v in scc}
    return frozenset(a for a in zero if comp[q.source(a)] == comp[q.target(a)])


def _shortest_cycle(q, g):
    """networkx: minimum over arrows s -> t of g(a) plus the distance t -> s."""
    dg = nx.DiGraph()
    for a in q.arrow_ids:
        s, t = q.arrows[a]
        if not dg.has_edge(s, t) or dg[s][t]["weight"] > g[a]:
            dg.add_edge(s, t, weight=g[a])
    dist = dict(nx.all_pairs_dijkstra_path_length(dg))
    return min(g[a] + dist[q.target(a)][q.source(a)] for a in q.arrow_ids)


def _spread(items, k):
    """At most k items, evenly spaced, first and last included."""
    if len(items) <= k:
        return items
    return [items[i * (len(items) - 1) // (k - 1)] for i in range(k)]


@SETTINGS
@given(hs.data())
def test_first_based_invariants_match_every_state(data):
    pmap = data.draw(shadows(max_per_position=2, sums=False))
    omega = data.draw(hs.one_of(
        summed_weights(pmap),
        hs.just(kauffman_weight(diagram_of(pmap)))))
    dec = st.Decoration.of(pmap, omega)
    q = dec.quiver
    assert dec.first == dec.states[0]
    for g in dec.states:
        assert _zero_scc_arrows(q, g) == dec.invisible_arrows
    for g in _spread(dec.states, 6):
        assert _shortest_cycle(q, g) == dec.nilpotency


@SETTINGS
@given(hs.data())
def test_enumeration_matches_bruteforce(data):
    pmap = data.draw(hs.sampled_from(
        [cycle_map(2), cycle_map(3), cycle_map(4),
         build_planar_map(*corpus.braid_closure_shadow([1, 1], 2))]))
    omega = data.draw(hs.one_of(summed_weights(pmap, top=2),
                                cell_weights(pmap)))
    expected = st.enumerate_compatible_bruteforce(pmap, omega)
    if st.validate_weight(pmap, omega):
        assert st.enumerate_compatible(pmap, omega) == expected
    else:
        assert expected == []
        with pytest.raises(ValueError, match="totals differ"):
            st.enumerate_compatible(pmap, omega)


@SETTINGS
@given(shadows())
def test_enumeration_is_canonical_and_agrees_with_kauffman_states(pmap):
    diagram = diagram_of(pmap)
    functions = st.enumerate_compatible(pmap, kauffman_weight(diagram))
    keys = [g.items() for g in functions]
    assert keys == sorted(set(keys))
    assert len(enumerate_kauffman_states(diagram)) == len(functions)


def _first_disconnecting_pair(pmap):
    edges = sorted(pmap.edges)
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            graph = nx.MultiGraph()
            graph.add_nodes_from(pmap.vertices)
            graph.add_edges_from(pmap.edge_endpoints(e) for e in edges
                                 if e not in (e1, e2))
            if not nx.is_connected(graph):
                return (e1, e2)
    return None


@SETTINGS
@given(shadows())
def test_separating_pair_matches_bruteforce(pmap):
    assert find_separating_pair(pmap) == _first_disconnecting_pair(pmap)


def _glued_cycle_components(q, g):
    """networkx version of the brute-force oracle: simple cycles of the zero
    set, glued when they share a vertex."""
    dg = nx.MultiDiGraph()
    dg.add_nodes_from(q.vertices)
    dg.add_edges_from(q.arrows[a] for a in q.arrow_ids if g[a] == 0)
    cycles = [frozenset(c) for c in nx.simple_cycles(dg)]
    glue = nx.Graph()
    glue.add_nodes_from(range(len(cycles)))
    glue.add_edges_from((i, j) for i in range(len(cycles))
                        for j in range(i) if cycles[i] & cycles[j])
    return nx.number_connected_components(glue)


@SETTINGS
@given(hs.data())
def test_gamma_inv_matches_bruteforce(data):
    pmap = data.draw(hs.sampled_from(
        [cycle_map(n) for n in range(2, 7)]
        + [build_planar_map(*corpus.braid_closure_shadow([1] * n, 2))
           for n in (2, 3)]))
    omega = data.draw(summed_weights(pmap))
    dec = st.Decoration.of(pmap, omega)
    assume(dec.nilpotency == 0)
    brute = st.gamma_inv_components_bruteforce(pmap, omega)
    assert st.gamma_inv_components(pmap, omega) == brute
    assert _glued_cycle_components(dec.quiver, dec.first) == brute


def test_enumeration_needs_no_recursion():
    """T(2,60) has 240 darts, past any recursion limit below that."""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1] * 60, 2))
    omega = kauffman_weight(diagram_of(pmap))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        functions = st.enumerate_compatible(pmap, omega)
    finally:
        sys.setrecursionlimit(limit)
    assert len(functions) == 60
