"""The library's fast paths against independent oracles on generated inputs.

Maps are braid-closure shadows and connected sums built by ``corpus``, and
small cycle maps; connectivity is also checked on general plane maps,
shadows with edges deleted and disjoint unions of shadows.  Weights are
either summed from a random angular function (so never empty) or drawn
cell by cell (possibly invalid or empty).  The
oracles are brute force, networkx (a test-only dependency) and the
matrix-tree theorem on the Tait graph.  Lattices are the down-sets of random
small posets, whole or mutated; their oracles are the pairwise certifier
and the pointwise-closure scan that Birkhoff's check and the mask-based
closure check replaced, and the closure-based order-isomorphism oracle is
checked against the pairwise one.  Subobject and subrepresentation lattices
grown by cover steps are checked against the scans of the whole box of
dimension vectors that they replaced, the one-pass subrepresentation
isomorphism against the grown-lattice comparison it replaced, and the
component lattice shown by d, as ``subreps`` prints it, against the grown
subrepresentation lattice.  Angular
functions stored as value vectors are checked against sorted (angle,
value) pairs, the states and moves split at the narrowest frontier against
the one-pass search and whole-vector lookups they replaced (also on maps
with permuted dart names), the move graph built by index arithmetic
against the one built move by move, component lattices grown along the
move graph against the step-table growth and greedy descents they
replaced, the component, clock and subobject lattices walked on the move
graph against the grown-poset certifier, the state sequence read off the decomposition's pieces against
the brute-force states as a tuple (indices, slices, ``index``), its texts
against ``AngleFrame.text`` per function, the move graph's union-find
components against the breadth-first sweep, Jacobian residuals from
derivatives cached on the potential against a per-arrow recomputation,
and the closed-form residuals of state modules against the dense check,
at the canonical potential and at perturbed ones.  Integer matrices,
eliminated with a Fraction only where a pivot divides, are checked against
the all-Fraction elimination they replaced, and so are the End rings of
maximal state modules.
"""

import re
import sys
from collections import namedtuple
from fractions import Fraction
from importlib import resources
from itertools import chain, combinations, product, repeat
from operator import and_, or_
from math import prod
from pathlib import Path

import networkx as nx
import pytest
import yaml
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as hs

from medialq import bms, cli, corpus, reps
from medialq import states as st
from medialq.kauffman import (LinkDiagram, NotApplicable, chi_inv,
                              clock_lattice, enumerate_kauffman_states,
                              find_separating_pair, kauffman_move,
                              kauffman_weight)
from medialq.lattice import FiniteLattice
from medialq.linalg import Matrix
from medialq.planar import (build_planar_map, connected_components,
                            dump_map_text, read_document)

from conftest import (FinitePoset, certify_graded_distributive_lattice,
                      check_pointwise_closure, column_basis_by_fractions,
                      compatible_functions,
                      compatible_functions_by_backtracking,
                      component_minimum_by_name, edge_endpoints,
                      endomorphism_ring_by_fractions, enumerate_subreps,
                      gamma_inv_components_bruteforce, grown_lattice,
                      is_prefix_family, join_table, lattice_by_steps,
                      lower_covers, minimum_by_steps,
                      move_graph_by_lookup, moves_by_name,
                      nullspace_by_fractions, paths_vanish_by_rounds,
                      relabel, rref_by_fractions, subobjects_by_name,
                      subobjects_by_steps,
                      subrep_isomorphism_oracle,
                      unit_step_isomorphism_oracle, verify_order_isomorphism)

SUBREP_CHECKS = (reps.verify_subrep_isomorphism, unit_step_isomorphism_oracle,
                 subrep_isomorphism_oracle)

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
def renamed(draw, pmap):
    """pmap with its dart names permuted at random, which scrambles the
    angle order: frontiers get wide and moves straddle every cut."""
    darts = sorted(pmap.darts)
    rename = dict(zip(darts, draw(hs.permutations(darts))))
    return build_planar_map(
        [[rename[d] for d in cycle] for cycle in pmap.vertices.values()],
        [[rename[d] for d in pair] for pair in pmap.edges.values()])


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
    expected = compatible_functions(pmap, omega)
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
            graph.add_edges_from(edge_endpoints(pmap, e) for e in edges
                                 if e not in (e1, e2))
            if not nx.is_connected(graph):
                return (e1, e2)
    return None


@SETTINGS
@given(shadows())
def test_separating_pair_matches_bruteforce(pmap):
    assert find_separating_pair(pmap) == _first_disconnecting_pair(pmap)


def without_edges(pmap, cut):
    """The rotations and edge pairs of pmap with the edges in cut deleted,
    both darts of each dropped from their rotations, or None if a vertex is
    left with degree below 2.  Deleting edges keeps every component
    spherical, so the map builds."""
    gone = {d for e in cut for d in pmap.edges[e]}
    rot = [[d for d in cycle if d not in gone]
           for cycle in pmap.vertices.values()]
    if any(len(cycle) < 2 for cycle in rot):
        return None
    return rot, [p for e, p in pmap.edges.items() if e not in cut]


@hs.composite
def plane_maps(draw):
    """A shadow from ``shadows`` with one to three edges deleted and the rest
    numbered in a random order, which may have degree-2 and degree-3
    vertices, bridges and several components, or a disjoint union of two
    braid-closure shadows."""
    if draw(hs.integers(0, 3)) == 0:
        (rot, pair), (rot2, pair2) = (
            corpus.braid_closure_shadow(*draw(braid_words(2)), prefix=prefix)
            for prefix in "xy")
        return build_planar_map(rot + rot2, pair + pair2)
    pmap = draw(shadows())
    kept = without_edges(
        pmap, draw(hs.sets(hs.sampled_from(list(pmap.edges)), min_size=1,
                           max_size=3)))
    assume(kept is not None)
    rot, pairs = kept
    return build_planar_map(rot, draw(hs.permutations(pairs)))


def _assert_connectivity_and_separating_pair(pmap):
    graph = nx.MultiGraph()
    graph.add_nodes_from(pmap.vertices)
    graph.add_edges_from(edge_endpoints(pmap, e) for e in pmap.edges)
    assert pmap.is_connected() == nx.is_connected(graph)
    assert find_separating_pair(pmap) == _first_disconnecting_pair(pmap)


@settings(SETTINGS, max_examples=100)
@given(plane_maps())
def test_connectivity_and_separating_pair_on_general_plane_maps(pmap):
    _assert_connectivity_and_separating_pair(pmap)


def test_separating_pair_with_corpus_edges_deleted():
    """Every corpus map with one or two edges deleted, its edges numbered in
    order and in reverse: 628 maps, among them bridges at the first edge
    and at later ones."""
    kept = [without_edges(pmap, cut)
            for pmap, _ in map(corpus.load, corpus.names())
            for k in (1, 2) for cut in combinations(pmap.edges, k)]
    maps = [build_planar_map(rot, order) for rot, pairs in filter(None, kept)
            for order in (pairs, pairs[::-1])]
    assert len(maps) == 628
    for pmap in maps:
        _assert_connectivity_and_separating_pair(pmap)


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
    brute = gamma_inv_components_bruteforce(pmap, omega)
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
        graph = st.Decoration.of(pmap, omega).move_graph
    finally:
        sys.setrecursionlimit(limit)
    assert len(functions) == 60
    assert graph.edges == move_graph_by_lookup(pmap.quiver, functions).edges


def test_first_based_invariants_build_no_state_list():
    """nilpotency and invisible on a sum read ``first`` alone: neither the
    decomposition nor the states get built."""
    pmap, marked = corpus.load("trefoil_sum")
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    dec = st.Decoration.of(pmap, omega)
    assert dec.nilpotency == 0 and dec.invisible_arrows
    assert st.gamma_inv_connected(pmap, omega) == (True, 1)
    assert "decomposition" not in vars(dec) and "states" not in vars(dec)


def test_kauffman_states_need_no_recursion():
    """T(2,200) has 200 crossings, past a recursion limit of 150."""
    diagram = diagram_of(
        build_planar_map(*corpus.braid_closure_shadow([1] * 200, 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        states = enumerate_kauffman_states(diagram)
    finally:
        sys.setrecursionlimit(limit)
    assert len(states) == 200


# ----------------------------------------------------------------------
# the map and weight reader against PyYAML's safe loader
# ----------------------------------------------------------------------

BOOL_WORDS = [w for word in ("yes", "no", "true", "false", "on", "off")
              for w in (word, word.title(), word.upper())]
WORDS = hs.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,5}", fullmatch=True).filter(
    lambda w: w not in ("null", "Null", "NULL"))
SCALARS = hs.one_of(WORDS, hs.integers(-10**6, 10**6).map(str),
                    hs.sampled_from(BOOL_WORDS + ["0", "-0"]))
# Whitespace allowed inside a flow list, line breaks and comments included.
GAPS = hs.sampled_from(["", " ", "  ", "\n", "\n  ", " # note\n   ",
                        "\n# note\n", "\n\n "])


def yaml_reads(text):
    return yaml.load(text, Loader=yaml.SafeLoader)


def same(a, b):
    """Equal, with bools told apart from ints (True == 1 in Python)."""
    return repr(a) == repr(b)


@hs.composite
def flow_values(draw, depth=0):
    """A scalar, or a flow list that may run on over lines."""
    if depth == 3 or draw(hs.booleans()):
        return draw(SCALARS)
    items = [draw(flow_values(depth + 1))
             for _ in range(draw(hs.integers(0, 3)))]
    text = "[" + draw(GAPS)
    for n, item in enumerate(items):
        text += item + draw(GAPS)
        if n + 1 < len(items) or draw(hs.booleans()):  # YAML allows [a,]
            text += "," + draw(GAPS)
    return text + "]"


@hs.composite
def documents(draw):
    """Top-level keys with flow values or block items, between blank,
    comment and spacing variants."""
    keys = draw(hs.lists(SCALARS, min_size=1, max_size=4, unique_by=yaml_reads))
    note = hs.sampled_from(["", " # note", "  #"])
    lines = []
    for key in keys:
        lines += draw(hs.lists(hs.sampled_from(["", "  ", "# c", "   # c"]),
                               max_size=2))
        colon = key + draw(hs.sampled_from([":", " :"]))
        if draw(hs.booleans()):
            space = draw(hs.sampled_from([" ", "   "]))
            lines.append(colon + space + draw(flow_values()) + draw(note))
        else:
            lines.append(colon + draw(note))
            indent = draw(hs.sampled_from(["", " ", "  ", "    "]))
            for _ in range(draw(hs.integers(1, 3))):
                lines.append(indent + draw(hs.sampled_from(["- ", "-  "]))
                             + draw(flow_values()) + draw(note))
    return "\n".join(lines) + draw(hs.sampled_from(["", "\n", "\n\n"]))


@settings(SETTINGS, max_examples=50)
@given(documents())
def test_reader_reads_what_yaml_reads(text):
    assert same(read_document(text, ValueError), yaml_reads(text))


# Characters and words a near miss of the subset inserts ("" deletes).
NEAR_MISSES = list("[]:,-# \n\tanoyY01._'\"~{") + [
    "", "null", "NULL", "1.5", "010", "08", "0x1", "+1", "1_0", ": ", "- ",
    "{a: 1}", "&a", "*a", "!!str", "|", "?", "%", "@", "\r"]


@hs.composite
def mutated_documents(draw):
    """A generated document with a few characters inserted, dropped or
    replaced: mostly near misses of the subset."""
    text = draw(documents())
    for _ in range(draw(hs.integers(1, 3))):
        at = draw(hs.integers(0, len(text)))
        cut = draw(hs.integers(0, 1))
        text = text[:at] + draw(hs.sampled_from(NEAR_MISSES)) + text[at + cut:]
    return text


@settings(SETTINGS, max_examples=200)
@given(hs.one_of(hs.text(alphabet="[]:,-# \nanoesyY_019", max_size=24),
                 mutated_documents()))
def test_reader_refuses_or_reads_what_yaml_reads(text):
    try:
        doc = read_document(text, ValueError)
    except ValueError as exc:
        assert str(exc).startswith("not valid structured text: line ")
        return
    assert same(doc, yaml_reads(text))


@pytest.mark.parametrize("text", [
    "a: null\n", "a: ~\n", "a: 1.5\n", "a: 010\n", "a: 0x1\n", "a: +1\n",
    "a: 'x'\n", "a: {b: 1}\n", "a: a#b\n", "a: [b,#c\n d]\n", "a: b c\n",
    "a: [b\n c]\n", "a: [b []]\n", "a: [b,,c]\n", "a: [b] c\n", "a:\n",
    "a:\n- b\n  - c\n", "a:\n  - b\n - c\n", "a:\n  - [b,\n] - c\n",
    "a:\n-\n  b\n", "  a: 1\n", "a: 1\n  b: 2\n", "a: b\n- c\n", "a:\tb\n",
    "a: 1  # \x00\n", "- a\n",
    "a:b\n", "a: - b\n", "", "# nothing\n", "a: 1\nA: 2\na: 3\n",
    "on: 1\nyes: 2\n", "a" * 1025 + ": 1\n"],
    ids=lambda text: repr(text[:20]))
def test_reader_refuses_near_misses(text):
    """Texts just outside the subset, most of which YAML reads as something
    other than their plain reading (None, 8, 'a#b', 'b c', ...)."""
    with pytest.raises(ValueError, match="^not valid structured text: line "):
        read_document(text, ValueError)


def test_reader_reads_the_corpus_and_the_readme_as_yaml_does():
    folder = resources.files("medialq").joinpath("corpus")
    texts = [folder.joinpath(f"{name}.map").read_text()
             for name in corpus.names()]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(examples) == 2
    texts += examples
    for word, strands in (([1, 2] * 6, 3), ([1] * 9, 2),
                          ([1, 2, 3, 1, 2, 3], 4)):
        pmap = build_planar_map(*corpus.braid_closure_shadow(word, strands))
        texts.append(dump_map_text(pmap, diagram_of(pmap).marked_edge))
        texts.append(st.dump_weight_text(kauffman_weight(diagram_of(pmap))))
    for text in texts:
        assert same(read_document(text, ValueError), yaml_reads(text))


# ----------------------------------------------------------------------
# lattice certification: Birkhoff's check against the pairwise certifier
# ----------------------------------------------------------------------

def pairwise_certify(poset):
    """The exhaustive pairwise certifier: None for a graded distributive
    lattice, else the violated law.  Covers are genuine, minimum and maximum
    unique, grades rise by one along covers, every pair has a join and a
    meet, and every join-irreducible below a join is below a factor."""
    n = len(poset.elements)
    for a, b in poset.covers:
        ia, ib = poset._index[a], poset._index[b]
        if poset._down[ib] & poset._up[ia] != (1 << ia) | (1 << ib):
            return "cover"
    if len(poset.minimal_elements()) != 1:
        return "minimum"
    if len(poset.maximal_elements()) != 1:
        return "maximum"
    grade = {}
    for i in poset._topo:
        grade[i] = max((grade[j] + 1 for j in poset._below[i]), default=0)
    if any(grade[poset._index[b]] != grade[poset._index[a]] + 1
           for a, b in poset.covers):
        return "graded"
    irr = sum(1 << i for i in range(n) if len(poset._below[i]) == 1)
    for i in range(n):
        for j in range(i + 1, n):
            join = poset.join_index(i, j)
            if join is None:
                return "join"
            if poset.meet_index(i, j) is None:
                return "meet"
            if poset._down[join] & irr & ~(poset._down[i] | poset._down[j]):
                return "distributive"
    return None


@hs.composite
def down_set_lattices(draw, max_points=6):
    """The down-sets of a random poset on 0..k-1 (i < j required for i below
    j), as a FinitePoset in shuffled element and cover order, and k."""
    k = draw(hs.integers(1, max_points))
    below = {j: {i for i in range(j) if draw(hs.booleans())}
             for j in range(k)}
    for j in range(k):  # transitive closure, in increasing j
        for i in list(below[j]):
            below[j] |= below[i]
    sets = [frozenset(s) for s in _subsets(k)
            if all(below[j] <= set(s) for j in s)]
    covers = [(d, d | {j}) for d in sets for j in range(k)
              if j not in d and below[j] <= d]
    return FinitePoset(draw(hs.permutations(sets)),
                       draw(hs.permutations(covers))), k


def _subsets(k):
    return [[i for i in range(k) if mask >> i & 1] for mask in range(1 << k)]


# Mutations grafted on top of the maximum: (new covers, law reported).
GRAFTS = {
    "m3": ([("top", "a"), ("top", "b"), ("top", "c"), ("a", "t"), ("b", "t"),
            ("c", "t")], "distributive"),
    "n5": ([("top", "x"), ("x", "z"), ("z", "t"), ("top", "y"), ("y", "t")],
           "graded"),
    "two upper bounds": ([("top", "a"), ("top", "b"), ("a", "c"), ("b", "c"),
                          ("a", "d"), ("b", "d"), ("c", "t"), ("d", "t")],
                         "join"),
    "two tops": ([("top", "a"), ("top", "b")], "maximum"),
    "false cover": ([("top", "a"), ("a", "t"), ("top", "t")], "cover"),
}


@SETTINGS
@given(down_set_lattices())
def test_birkhoff_certificate_matches_pairwise_certifier(made):
    poset, k = made
    cert = certify_graded_distributive_lattice(poset)
    assert cert.ok and pairwise_certify(poset) is None
    assert sorted(map(sorted, cert.join_irreducibles)) == sorted(
        sorted(d) for d in poset.elements if len(lower_covers(poset, d)) == 1)
    assert len(cert.join_irreducibles) == k
    lattice = FiniteLattice(poset, cert)
    n = len(poset.elements)
    for i in range(n):
        for j in range(n):
            assert lattice.join_index(i, j) == poset.join_index(i, j)
            assert lattice.meet_index(i, j) == poset.meet_index(i, j)
    assert join_table(cert) == {
        (x, y): x | y for x in poset.elements for y in poset.elements
        if x != y}


@SETTINGS
@given(down_set_lattices())
def test_mutated_lattices_are_rejected_by_both(made):
    poset, _ = made
    top = poset.maximal_elements()[0]
    mutations = []
    for extra, law in GRAFTS.values():
        new = sorted({x for c in extra for x in c} - {"top"})
        mutations.append((
            list(poset.elements) + new,
            list(poset.covers) + [(top if a == "top" else a, b)
                                  for a, b in extra],
            law))
    for dropped in _spread(range(len(poset.covers)), 4):
        covers = list(poset.covers)
        del covers[dropped]
        mutations.append((poset.elements, covers, None))
    for elements, covers, law in mutations:
        mutated = FinitePoset(elements, covers)
        bad = certify_graded_distributive_lattice(mutated)
        assert not bad.ok
        assert bad.law == pairwise_certify(mutated)
        assert law is None or bad.law == law


def pointwise_closure_oracle(quiver, states):
    """The state set is closed under pointwise max and min of d."""
    by_d = {xi.d: xi for xi in states}
    dicts = [dict(d) for d in by_d]
    return all(
        tuple(sorted((e, pick(d1[e], d2[e])) for e in quiver.vertices))
        in by_d for d1 in dicts for d2 in dicts for pick in (max, min))


@SETTINGS
@given(shadows(max_per_position=2))
def test_mask_closure_check_agrees_with_pointwise_oracle(pmap):
    dec = st.Decoration.of(pmap, kauffman_weight(diagram_of(pmap)))
    graph = dec.move_graph
    for comp in graph.components[:3]:
        lattice = dec.component_lattice(graph.nodes[comp[0]])  # mask check
        assume(len(lattice) <= 150)
        assert pointwise_closure_oracle(dec.quiver, lattice.elements)
        for x in _spread(lattice.elements, 12):
            for y in lattice.elements:
                up = lattice.join(x, y).dims()
                lo = lattice.meet(x, y).dims()
                for e in dec.quiver.vertices:
                    assert up[e] == max(x.dim(e), y.dim(e))
                    assert lo[e] == min(x.dim(e), y.dim(e))


def test_mask_closure_check_rejects_bad_labels():
    """Square 0 < a, b < t: labels that do not follow one join-irreducible
    per edge, or whose irreducibles of one edge are incomparable."""
    poset = FinitePoset("0abt", [("0", "a"), ("0", "b"), ("a", "t"),
                                 ("b", "t")])
    cert = certify_graded_distributive_lattice(poset)
    for labels, message in (("efef", "add the same"), ("eeee", "chain")):
        lattice = FiniteLattice(poset, cert, dict(zip(poset.covers, labels)))
        with pytest.raises(AssertionError, match=message):
            check_pointwise_closure(lattice)


# ----------------------------------------------------------------------
# order isomorphisms: the closure oracle against all pairs
# ----------------------------------------------------------------------

def pairwise_isomorphism(p, q, mapping):
    """A bijection p -> q with x <= y iff mapping[x] <= mapping[y], checked
    on every pair of elements."""
    image = list(mapping.values())
    return (set(mapping) == set(p.elements) and len(set(image)) == len(image)
            and set(image) == set(q.elements)
            and all(p.leq(x, y) == q.leq(mapping[x], mapping[y])
                    for x in p.elements for y in p.elements))


@SETTINGS
@given(hs.data())
def test_closure_isomorphism_oracle_matches_pairwise_oracle(data):
    """The closure-based ``verify_order_isomorphism`` on down-set lattices
    against the pairwise oracle: a renaming, swapped or merged images,
    targets with a cover dropped or added, and another down-set lattice of
    the same size."""
    p, _ = data.draw(down_set_lattices())
    xs = list(p.elements)
    rename = dict(zip(xs, data.draw(hs.permutations(range(len(xs))))))
    q = FinitePoset(sorted(rename.values()),
                    [(rename[a], rename[b]) for a, b in p.covers])
    assert pairwise_isomorphism(p, q, rename)
    cases = []
    for i, j in _spread([(i, j) for i in range(len(xs))
                         for j in range(i + 1, len(xs))], 6):
        swapped = dict(rename)
        swapped[xs[i]], swapped[xs[j]] = rename[xs[j]], rename[xs[i]]
        cases.append((q, swapped))
        if not (p.leq(xs[i], xs[j]) or p.leq(xs[j], xs[i])):
            # extra order in q, seen only from q's side
            cases.append((FinitePoset(
                q.elements, q.covers + ((rename[xs[i]], rename[xs[j]]),)),
                rename))
    for dropped in _spread(range(len(q.covers)), 3):
        cases.append((FinitePoset(
            q.elements, q.covers[:dropped] + q.covers[dropped + 1:]), rename))
    if len(xs) > 1:
        cases.append((q, {**rename, xs[0]: rename[xs[1]]}))
    other, _ = data.draw(down_set_lattices())
    if len(other.elements) == len(xs):
        cases.append((other, dict(zip(xs, other.elements))))
    for target, mapping in cases:
        expected = pairwise_isomorphism(p, target, mapping)
        assert verify_order_isomorphism(p, target, mapping) == expected
        # no poset order-isomorphic to a lattice fails to certify
        assert certify_graded_distributive_lattice(target).ok or not expected


@pytest.mark.parametrize("word, strands", [
    ([1] * 5, 2), ([1, 2] * 2, 3), ([1, 2] * 3, 3)], ids=str)
def test_library_lattices_build_no_closure(word, strands):
    """The lattices the library returns, subrepresentations included,
    answer order, joins, meets and isomorphism from their masks and covers:
    none of their posets builds a closure."""
    pmap = build_planar_map(*corpus.braid_closure_shadow(word, strands))
    diagram = diagram_of(pmap)
    omega = kauffman_weight(diagram)
    dec = st.Decoration.of(pmap, omega)
    lattice = dec.component_lattice(dec.states[0])
    top = lattice.maximum
    module = reps.state_module(pmap, top)
    assert reps.verify_subrep_isomorphism(lattice, module, omega)
    lattices = [lattice, clock_lattice(diagram),
                bms.plus_subobjects(pmap, omega, top),
                enumerate_subreps(module, omega)]
    for lat in lattices:
        bare = FinitePoset(lat.elements, lat.covers)  # its closure the oracle
        for x in _spread(lat.elements, 6):
            for y in lat.elements:
                join, meet = lat.join(x, y), lat.meet(x, y)
                assert lat.leq(x, join) and lat.leq(meet, y)
                assert lat.leq(x, y) == bare.leq(x, y) == (join == y)
        assert not {"_down", "_up"} & vars(lat.poset).keys()


# ----------------------------------------------------------------------
# subobjects and subrepresentations: growth against the box scans
# ----------------------------------------------------------------------

def subobjects_box(pmap, omega, xi):
    """Every state (f_plus, f_minus(xi), d') with d' in the box below d(xi):
    f_plus = f_minus + (d'(t) - d'(s)) must be non-negative."""
    quiver = pmap.quiver
    edges = sorted(quiver.vertices)
    found = []
    for combo in product(*(range(xi.dim(e) + 1) for e in edges)):
        d = dict(zip(edges, combo))
        values = {a: xi.f_minus[a] + d[t] - d[s]
                  for a, (s, t) in quiver.arrows.items()}
        if min(values.values()) >= 0:
            found.append(bms.make_bms(pmap, omega, st.AngularFunction(values),
                                      xi.f_minus, d))
    return found


def subreps_box(m):
    """Every prefix family k in the box below the dimensions of m that each
    arrow matrix maps into itself, as its (vertex, k_e) pairs."""
    found = []
    for combo in product(*(range(m.dims[e] + 1) for e in m.vertices)):
        k = dict(zip(m.vertices, combo))
        if is_prefix_family(m, k):
            found.append(tuple(k.items()))
    return found


def pointwise_order(found, key):
    """(elements, covers, labels) of the pointwise order on key(x), a sorted
    tuple of (coordinate, value) pairs: y covers x, labelled e, when key(y)
    is key(x) plus one at e.  Ordered as the library orders lattices."""
    by_key = {key(x): x for x in found}
    grade = {x: sum(v for _, v in key(x)) for x in found}
    labels = {}
    for x in found:
        k = key(x)
        for i, (e, v) in enumerate(k):
            up = by_key.get(k[:i] + ((e, v + 1),) + k[i + 1:])
            if up is not None:
                labels[(x, up)] = e
    return (tuple(sorted(found, key=lambda x: (grade[x], key(x)))),
            tuple(sorted(labels, key=lambda c: (grade[c[0]], key(c[0]),
                                                key(c[1])))),
            labels)


def assert_lattice_is(lattice, found, key):
    elements, covers, labels = pointwise_order(found, key)
    assert lattice.elements == elements
    assert lattice.covers == covers
    assert lattice.labels == labels


@SETTINGS
@given(shadows(max_per_position=2), hs.sampled_from((1, 2)))
def test_grown_subobjects_and_subreps_match_the_box_scans(pmap, scale):
    """Also the lemma the verbs rest on: the plus-subobjects of a component
    maximum are the component lattice, masks and all.  Subrepresentations
    need a characteristic weight, so only the Kauffman weight has them;
    twice that weight scans the boxes of a spread of elements."""
    kauffman = kauffman_weight(diagram_of(pmap))
    omega = {c: scale * v for c, v in kauffman.items()}
    dec = st.Decoration.of(pmap, omega)
    graph = dec.move_graph
    for comp in graph.components[:3]:
        lattice = dec.component_lattice(graph.nodes[comp[0]])
        below = bms.plus_subobjects(pmap, omega, lattice.maximum)
        assert (below.elements, below.covers, below.labels) == (
            lattice.elements, lattice.covers, lattice.labels)
        assert below.certificate.masks == lattice.certificate.masks
        elements = lattice.elements
        for xi in elements if scale == 1 else _spread(elements, 4):
            if prod(v + 1 for _, v in xi.d) > 2048:
                continue
            assert_lattice_is(bms.plus_subobjects(pmap, omega, xi),
                              subobjects_box(pmap, omega, xi),
                              key=lambda s: s.d)
            if scale == 1:
                module = reps.state_module(pmap, xi)
                assert_lattice_is(enumerate_subreps(module, omega),
                                  subreps_box(module), key=lambda k: k)


def test_subreps_decide_a_module_that_is_not_nilpotent():
    """x -> y -> x acting by 1, with zero loops as the Jordan cycles: the
    subrepresentations are 0 and everything, two unit steps apart.  So 0
    alone has no unit step within them and would pass the unit-step scan
    and the grown oracle, were the module not refused; they refuse it.  The
    least points need no nilpotency: they are {(x 1, y 1)}, and the
    one-element lattice has no join-irreducible, so the library says no."""
    one, zero = Matrix.identity(1), Matrix.zeros(1, 1)
    module = reps.QuiverRep(
        ("x", "y"),
        {"a": ("x", "y"), "b": ("y", "x"), "lx": ("x", "x"), "ly": ("y", "y")},
        {"x": 1, "y": 1}, {"a": one, "b": one, "lx": zero, "ly": zero},
        cycles=(("lx",), ("ly",)))
    assert not reps.is_nilpotent(module)
    assert [sum(v for _, v in k) for k in subreps_box(module)] == [0, 2]
    assert set(reps._least_points(module)) == {(("x", 1), ("y", 1))}
    Point = namedtuple("Point", "d")
    zero = grown_lattice(Point((("x", 0), ("y", 0))), lambda x: (),
                         key=lambda x: x.d)
    assert reps.verify_subrep_isomorphism(zero, module, {"v0": 1}) is False
    for oracle in (unit_step_isomorphism_oracle, subrep_isomorphism_oracle):
        with pytest.raises(reps.CandidateSpaceTooLarge, match="not nilpotent"):
            oracle(zero, module, {"v0": 1})


def _top_module(pmap, omega):
    """The component lattice of the first state and the state module of its
    maximum."""
    dec = st.Decoration.of(pmap, omega)
    lattice = dec.component_lattice(dec.states[0])
    return lattice, reps.state_module(pmap, lattice.maximum)


def _single_flips(module):
    """Every copy of module with one matrix entry flipped between 0 and 1."""
    return [module.with_entry(a, i, j, 1 - mat.data[i][j])
            for a, mat in sorted(module.mats.items())
            for i, j in product(range(mat.rows), range(mat.cols))]


def _verdict(check, *args):
    """check(*args), or the type of the premise it refused."""
    try:
        return check(*args)
    except (reps.CandidateSpaceTooLarge, reps.NotCharacteristicWeight) as exc:
        return type(exc)


def _verdicts(*args):
    """The verdict, or refusal, of the library and of both oracles."""
    return [_verdict(check, *args) for check in SUBREP_CHECKS]


def agreed_verdict(lattice, module, omega):
    """The library's verdict or refusal, once checked against the oracles.
    They refuse as it does; a module that is not nilpotent they refuse
    alone, and there the verdict is the box scan's: d shows lattice as the
    prefix families closed under every arrow, all of them."""
    verdict, *oracles = _verdicts(lattice, module, omega)
    if verdict is reps.CandidateSpaceTooLarge or reps.is_nilpotent(module):
        assert oracles == [verdict, verdict]
    else:
        assert oracles == [reps.CandidateSpaceTooLarge] * 2
        assert verdict == ({x.d for x in lattice.elements}
                           == set(subreps_box(module)))
    return verdict


def test_subrep_isomorphism_verdicts_match_the_closure_oracle():
    """Single 0/1 flips of the entries of the maximal state module of the
    (s1s2)^3 shadow: every verdict is the unit-step and the grown oracles',
    refusals included (``agreed_verdict``), one of a nilpotent module that
    is not refused is the closure oracle's under s -> s.d, and some flip
    breaks the isomorphism."""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 3, 3))
    omega = kauffman_weight(diagram_of(pmap))
    lattice, module = _top_module(pmap, omega)
    rename = {s: s.d for s in lattice.elements}
    verdicts = []
    for m in [module] + _single_flips(module):
        verdict = agreed_verdict(lattice, m, omega)
        if verdict is reps.CandidateSpaceTooLarge or not reps.is_nilpotent(m):
            continue
        oracle = verify_order_isomorphism(
            lattice, enumerate_subreps(m, omega), rename)
        assert verdict == oracle
        verdicts.append(verdict)
    assert verdicts[0] and False in verdicts


@SETTINGS
@given(shadows(max_per_position=2), hs.data())
def test_subrep_isomorphism_matches_the_grown_oracle(pmap, data):
    """The least-point check against the unit-step scan and the
    grown-lattice comparison, on the maximal state module of a component
    lattice and on some of its single-entry flips, at the Kauffman weight;
    at twice that weight all three refuse the module of a component
    maximum."""
    kauffman = kauffman_weight(diagram_of(pmap))
    lattice, module = _top_module(pmap, kauffman)
    flips = _single_flips(module)
    picked = data.draw(hs.lists(hs.sampled_from(range(len(flips))),
                                max_size=6, unique=True)) if flips else []
    for m in [module] + [flips[i] for i in picked]:
        agreed_verdict(lattice, m, kauffman)
    double = {c: 2 * v for c, v in kauffman.items()}
    lattice, module = _top_module(pmap, double)
    for check in SUBREP_CHECKS:
        with pytest.raises(reps.NotCharacteristicWeight):
            check(lattice, module, double)


def assert_proper_sub_families_rejected(pmap, omega):
    """For up to four non-maximal states xi of each of the first three
    components, the plus-subobjects of xi against the state module of the
    component's maximum: a pointwise-closed lattice with minimum 0, but a
    proper sub-family of the subrepresentations, so the library and both
    oracles say False.  Returns how many were checked."""
    dec = st.Decoration.of(pmap, omega)
    graph = dec.move_graph
    checked = 0
    for comp in graph.components[:3]:
        lattice = dec.component_lattice(graph.nodes[comp[0]])
        module = reps.state_module(pmap, lattice.maximum)
        for xi in _spread(lattice.elements[:-1], 4):
            below = bms.plus_subobjects(pmap, omega, xi)
            assert below.minimum.d == tuple((e, 0) for e in module.vertices)
            assert len(below) < len(lattice)
            assert _verdicts(below, module, omega) == [False] * 3
            checked += 1
    return checked


@pytest.mark.parametrize("name", ["figure_eight", "torus_2_6"])
def test_subrep_isomorphism_rejects_a_proper_sub_family(name):
    """The module is the maximum's and the lattice is closed under max and
    min and rooted at 0, so only its missing elements can tell."""
    pmap, marked = corpus.generate(name)
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    assert assert_proper_sub_families_rejected(pmap, omega) >= 4


@SETTINGS
@given(shadows(max_per_position=2))
def test_subrep_isomorphism_rejects_proper_sub_families_of_shadows(pmap):
    assert_proper_sub_families_rejected(pmap, kauffman_weight(diagram_of(pmap)))


def position_tables(cert):
    """The join and meet tables that the certificate's masks induce through
    ``index_of_mask``, as rows of element positions: whatever the numbering
    of the bits, the same for two lattices on the same elements in the same
    order exactly when they have the same joins and meets."""
    index_of, masks = cert.index_of_mask.__getitem__, cert.masks
    return [[list(map(index_of, map(op, repeat(m), masks))) for m in masks]
            for op in (or_, and_)]


def assert_shown_by_d(lattice, grown):
    """lattice shown by x -> x.d is grown, in everything a report prints:
    elements in order, covers in order, labels, grades and certificate."""
    assert tuple(x.d for x in lattice.elements) == grown.elements
    assert tuple((a.d, b.d) for a, b in lattice.covers) == grown.covers
    assert {(a.d, b.d): e
            for (a, b), e in lattice.labels.items()} == grown.labels
    assert {x.d: g for x, g in lattice.grade.items()} == grown.grade
    assert (lattice.minimum.d, lattice.maximum.d) == (grown.minimum,
                                                      grown.maximum)
    ours, theirs = lattice.certificate, grown.certificate
    assert position_tables(ours) == position_tables(theirs)
    assert {j.d for j in ours.join_irreducibles} == set(
        theirs.join_irreducibles)
    assert (ours.size, ours.grade_range) == (theirs.size, theirs.grade_range)


@SETTINGS
@given(shadows(max_per_position=2), hs.data())
def test_subreps_shows_the_component_lattice_by_d(pmap, data):
    """What ``subreps`` prints, a component lattice shown by x -> x.d once
    the scan's verdict holds, is the oracle's grown lattice of the
    subrepresentations of its maximal state module.  At the Kauffman weight
    of any marked edge the verdict holds; at twice that weight, and at
    summed weights (up to 3000 states, at nilpotency 0, where a component
    lattice exists), the scan and the oracle refuse alike or agree."""
    marked = data.draw(hs.sampled_from(
        [e for e in sorted(pmap.edges) if len(set(pmap.edge_faces(e))) == 2]))
    kauffman = kauffman_weight(LinkDiagram(pmap, marked))
    double = {c: 2 * v for c, v in kauffman.items()}
    for omega in (kauffman, double, data.draw(summed_weights(pmap))):
        dec = st.Decoration.of(pmap, omega)
        if len(dec.states) > 3000 or dec.nilpotency:
            continue
        graph = dec.move_graph
        for comp in graph.components[:3]:
            lattice = dec.component_lattice(graph.nodes[comp[0]])
            module = reps.state_module(pmap, lattice.maximum)
            verdict = _verdict(reps.verify_subrep_isomorphism, lattice,
                               module, omega)
            grown = _verdict(enumerate_subreps, module, omega)
            assert verdict is True or omega is not kauffman
            if verdict is True:
                assert_shown_by_d(lattice, grown)
            elif verdict is False:
                assert not verify_order_isomorphism(
                    lattice, grown, {x: x.d for x in lattice.elements})
            else:
                assert grown is verdict


def test_verify_iso_on_the_torus_2_18_chain(tmp_path, capsys):
    """The plus-subobject box of T(2,18) has 2^17 vectors; its lattice is
    an 18-element chain."""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1] * 18, 2))
    diagram = diagram_of(pmap)
    path = tmp_path / "torus_2_18.map"
    path.write_text(dump_map_text(pmap, diagram.marked_edge))
    assert cli.main(["verify-iso", str(path)]) == 0
    out = capsys.readouterr().out
    assert "plus-subobjects: 18 subrepresentations: 18" in out
    assert "order isomorphism: True grades match: True" in out
    omega = kauffman_weight(diagram)
    dec = st.Decoration.of(pmap, omega)
    top = dec.component_lattice(dec.first).maximum
    chain = bms.plus_subobjects(pmap, omega, top)
    assert sorted(chain.grade.values()) == list(range(18))
    assert len(chain.covers) == 17


@pytest.mark.parametrize("flag, verb", [
    (flag, verb) for flag in ("--bound-candidates", "--bound-lattice")
    for verb in ("check-all", "subreps", "verify-iso")] + [
    ("--seed", verb) for verb in (
        "bms-lattice", "subobjects", "clock", "module", "jacobian-check",
        "endo", "subreps", "verify-iso", "check-all")])
def test_removed_bound_flags_exit_2(flag, verb, capsys):
    path = resources.files("medialq").joinpath("corpus", "trefoil.map")
    argv = [verb, flag, "5"] + ([] if verb == "check-all" else [str(path)])
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert flag in capsys.readouterr().err


# ----------------------------------------------------------------------
# Kauffman state counts: the matrix-tree theorem on the Tait graph
# ----------------------------------------------------------------------

def tait_spanning_trees(pmap, colour_class):
    """Spanning trees of the Tait graph on the faces of one checkerboard
    colour (an edge per crossing, joining its two corners of that colour),
    as an exact Fraction determinant of a reduced Laplacian."""
    faces = sorted(pmap.faces)
    colour, stack = {faces[0]: 0}, [faces[0]]
    while stack:
        f = stack.pop()
        for e in pmap.edges:
            sides = pmap.edge_faces(e)
            if f in sides:
                g = sides[1] if sides[0] == f else sides[0]
                assert g != f
                if g not in colour:
                    colour[g] = 1 - colour[f]
                    stack.append(g)
                assert colour[g] != colour[f]
    q = pmap.quiver
    nodes = [f for f in faces if colour[f] == colour_class]
    index = {f: i for i, f in enumerate(nodes)}
    lap = [[Fraction(0)] * len(nodes) for _ in nodes]
    for v in pmap.vertices:
        corners = [q.angles[a].face for a in q.vertex_cycles[v]]
        assert len(corners) == 4
        f, g = corners[0::2] if colour[corners[0]] == colour_class \
            else corners[1::2]
        if f != g:
            i, j = index[f], index[g]
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            for k in range(c, len(m)):
                m[r][k] -= factor * m[c][k]
    return int(det)


@SETTINGS
@given(shadows())
def test_kauffman_state_count_is_the_tait_tree_count(pmap):
    diagram = diagram_of(pmap)
    trees = tait_spanning_trees(pmap, 0)
    assert trees == tait_spanning_trees(pmap, 1)  # planar duality
    assert len(enumerate_kauffman_states(diagram)) == trees
    assert len(st.Decoration.of(pmap, kauffman_weight(diagram)).states) == trees


# ----------------------------------------------------------------------
# angular functions as vectors; the move graph by index arithmetic
# ----------------------------------------------------------------------

class PairsFunction:
    """Reference: a function kept as its sorted (angle, value) pairs, the
    layout that frames plus value vectors replaced."""

    def __init__(self, values):
        self.pairs = tuple(sorted(dict(values).items()))

    def shifted(self, delta):
        vals = dict(self.pairs)
        for a, dv in delta.items():
            vals[a] = vals.get(a, 0) + dv
        return PairsFunction(vals)


ANGLE_NAMES = ("a0", "a1", "a10", "a2", "b0", "b1")


def angle_values(names=ANGLE_NAMES):
    return hs.dictionaries(hs.sampled_from(names), hs.integers(0, 3))


@SETTINGS
@given(hs.data())
def test_vector_functions_agree_with_sorted_pairs(data):
    x = data.draw(angle_values())
    y = data.draw(hs.one_of(
        angle_values(),  # usually over other angles
        hs.just(dict(x)),
        hs.fixed_dictionaries({a: hs.integers(0, 3) for a in x})))
    g, h = st.AngularFunction(x), st.AngularFunction(y)
    rg, rh = PairsFunction(x), PairsFunction(y)
    assert g.items() == rg.pairs
    assert all(g[a] == v for a, v in rg.pairs)
    assert (g == h) == (rg.pairs == rh.pairs)
    assert g != h or hash(g) == hash(h)
    assert (g < h) == (rg.pairs < rh.pairs)
    assert (h < g) == (rh.pairs < rg.pairs)
    inner = ", ".join(f"{a}:{v}" for a, v in rg.pairs)
    assert repr(g) == f"AngularFunction({inner})"


def test_frames_are_shared_and_sorted():
    g = st.AngularFunction({"b0": 1, "a0": 2})
    assert g.frame is st.AngularFunction({"a0": 0, "b0": 0}).frame
    assert g.frame.names == ("a0", "b0") and g.vector == (2, 1)
    renamed = st.AngularFunction({"a0": 2, "c0": 1})
    assert g.vector == renamed.vector and g != renamed and g < renamed
    with pytest.raises(ValueError, match="sorted"):
        st.AngleFrame.of(("b0", "a0"))


def move_graph_oracle(dec):
    """The move graph built move by move: every movable (state, edge), its
    ``mov_e`` image looked up among the states."""
    q = dec.quiver
    index = {g: i for i, g in enumerate(dec.states)}
    return sorted((i, index[st.mov_e(q, g, e)], e)
                  for i, g in enumerate(dec.states) for e in q.vertices
                  if st.is_e_movable(q, g, e))


@SETTINGS
@given(hs.data())
def test_move_graph_matches_move_by_move_oracle(data):
    pmap = data.draw(shadows(max_per_position=2))
    kauffman = kauffman_weight(diagram_of(pmap))
    omega = data.draw(hs.one_of(
        hs.just(kauffman),
        hs.just({c: 2 * v for c, v in kauffman.items()}),
        summed_weights(pmap)))
    dec = st.Decoration.of(pmap, omega)
    assume(len(dec.states) <= 3000)
    q = dec.quiver
    assert list(dec.move_graph.edges) == move_graph_oracle(dec)
    for g in _spread(dec.states, 5):
        for e in q.vertices:
            delta = st.delta_chi(q, e)
            if st.is_e_movable(q, g, e):
                assert st.mov_e(q, g, e).items() == PairsFunction(
                    g.items()).shifted(delta).pairs
            if st.is_anti_e_movable(q, g, e):
                assert st.anti_mov_e(q, g, e).items() == PairsFunction(
                    g.items()).shifted({a: -v for a, v in delta.items()}).pairs


@SETTINGS
@given(hs.data())
def test_split_states_and_moves_match_the_one_pass_oracles(data):
    pmap = data.draw(shadows(max_per_position=2))
    if data.draw(hs.booleans()):
        pmap = data.draw(renamed(pmap))
    kauffman = kauffman_weight(diagram_of(pmap))
    omega = data.draw(hs.one_of(
        hs.just(kauffman),
        hs.just({c: 2 * v for c, v in kauffman.items()}),
        summed_weights(pmap)))
    dec = st.Decoration.of(pmap, omega)
    assume(len(dec.states) <= 3000)
    expected = list(compatible_functions_by_backtracking(dec.quiver, omega))
    assert [g.vector for g in dec.states] == [g.vector for g in expected]
    assert dec.first == dec.states[0]
    assert dec.move_graph.edges == move_graph_by_lookup(
        dec.quiver, expected).edges


@hs.composite
def pieced_weights(draw, pmap):
    """The weight of a random angular function with a 2 on each side of the
    decomposition's cut and values up to 2 (up to 1 beyond 24 angles, where
    2s make millions of states), or of one that is zero before the cut,
    after it, or everywhere: so some state's prefix or suffix text is
    empty, or the one state's text is "0"."""
    names = pmap.quiver.arrow_ids
    m = st.Decoration(pmap, dict.fromkeys(pmap.cells, 0)).decomposition[0]
    top = 2 if len(names) <= 24 else 1
    g = {a: draw(hs.integers(0, top)) for a in names}
    g[draw(hs.sampled_from(names[:m]))] = 2
    g[draw(hs.sampled_from(names[m:]))] = 2
    zero = draw(hs.sampled_from(
        (names[:0], names[:0], names[:0], names[:m], names[m:], names)))
    g.update(dict.fromkeys(zero, 0))
    q = pmap.quiver
    omega = {v: sum(g[a] for a in q.vertex_cycles[v]) for v in pmap.vertices}
    omega.update({f: sum(g[a] for a in q.face_cycles[f]) for f in pmap.faces})
    return omega


# No explain phase: on a failure it redraws parts of the example at random,
# and a redrawn map under a redrawn weight can have millions of states.
@settings(SETTINGS, phases=[Phase.explicit, Phase.reuse, Phase.generate,
                            Phase.shrink])
@given(hs.data())
def test_state_sequence_texts_and_moves_match_the_oracles(data):
    """``states`` read off the pieces behaves as the tuple of the brute-force
    states (the backtracking search above 10 angles or 50,000 candidates);
    their texts, move graph and components match the per-function oracles."""
    pmap = data.draw(hs.one_of(hs.integers(2, 5).map(cycle_map),
                               shadows(max_per_position=2)))
    if data.draw(hs.booleans()):
        pmap = data.draw(renamed(pmap))
    omega = data.draw(pieced_weights(pmap))
    dec = st.Decoration.of(pmap, omega)
    states = dec.states
    assume(len(states) <= 2000)
    top = max(omega.values())
    if len(pmap.darts) <= 10 and (top + 1) ** len(pmap.darts) <= 50_000:
        expected = tuple(compatible_functions(pmap, omega))
    else:
        expected = tuple(compatible_functions_by_backtracking(
            dec.quiver, omega))
    n = len(expected)
    assert len(states) == n and tuple(states) == expected
    assert [states[i] for i in range(-n, n)] == list(expected * 2)
    ends = hs.one_of(hs.none(), hs.integers(-n - 2, n + 2))
    for _ in range(3):
        cut = slice(data.draw(ends), data.draw(ends),
                    data.draw(hs.sampled_from((None, 1, 2, -1, -3))))
        assert states[cut] == expected[cut]
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            states[i]
    assert [states.index(g) for g in expected] == list(range(n))
    assert [dec.index(g) for g in _spread(expected, 5)] == [
        expected.index(g) for g in _spread(expected, 5)]
    g = expected[0]
    others = (st.AngularFunction.from_vector(
                  g.frame, (g.vector[0] + 1,) + g.vector[1:]),
              st.AngularFunction({f"z{a}": v for a, v in g.items()}), g.vector)
    for other in others:
        with pytest.raises(ValueError, match="not a compatible function"):
            states.index(other)
    assert list(dec.state_texts()) == [
        g.frame.text(g.vector) or "0" for g in expected]
    graph = dec.move_graph
    assert graph.edges == move_graph_by_lookup(dec.quiver, expected).edges
    assert graph.components == connected_components(
        range(n), [(s, t) for s, t, _ in graph.edges])


@SETTINGS
@given(hs.integers(1, 30).flatmap(lambda size: hs.tuples(
    hs.just(size),
    hs.lists(hs.tuples(hs.integers(0, size - 1), hs.integers(0, size - 1)),
             max_size=2 * size))))
def test_union_find_components_match_the_breadth_first_sweep(graph):
    size, links = graph
    graph = st.StateGraph(range(size), [(s, t, "e0") for s, t in links])
    assert graph.components == connected_components(range(size), links)


def without_prefix(decomposition, q):
    """`decomposition` less prefix q and every state that starts with it."""
    m, prefixes, suffixes = decomposition
    return m, prefixes[:q] + prefixes[q + 1:], suffixes


def test_move_outside_the_state_set_is_an_internal_disagreement(
        capsys, monkeypatch):
    """On the trefoil every prefix has one completion, so dropping prefix t
    from the decomposition drops state t alone."""
    path = str(resources.files("medialq").joinpath("corpus", "trefoil.map"))
    assert cli.main(["move-graph", path]) == 0
    first = next(line for line in capsys.readouterr().out.splitlines()
                 if " by " in line)
    s, _, t, _, e = first.split()
    s, t = int(s), int(t)
    s_after = s - (s > t)  # index of the source once state t is gone

    pmap, marked = corpus.load("trefoil")
    dec = st.Decoration.of(pmap, kauffman_weight(LinkDiagram(pmap, marked)))
    _, prefixes, suffixes = dec.decomposition
    assert [len(suffixes[b]) for _, b in prefixes] == [1, 1, 1]
    dec.decomposition = without_prefix(dec.decomposition, t)
    message = f"move along {e} from state {s_after} leaves the state set"
    with pytest.raises(AssertionError, match=message):
        dec.move_graph

    split = st.Decoration.decomposition.func
    monkeypatch.setattr(st.Decoration, "decomposition", property(
        lambda self: without_prefix(split(self), t)))
    assert cli.main(["move-graph", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"medialq: {message}\n"


def test_every_lost_state_is_caught_by_a_closure_check():
    """Drop one prefix, or one completion of one frontier budget, from the
    decomposition: the move graph refuses with a move from a kept state
    into a lost one, or, where no move enters a lost state, holds every
    move between the kept ones.  Refusals come from moves after, before
    and across the cut."""
    kinds = set()
    for name in ("figure_eight", "torus_2_6", "trefoil_sum"):
        pmap, marked = corpus.load(name)
        omega = kauffman_weight(LinkDiagram(pmap, marked))
        dec = st.Decoration.of(pmap, omega)
        whole, (m, prefixes, suffixes) = dec.move_graph, dec.decomposition
        kind = {e: "after" if min(ends) >= m else
                "before" if max(ends) < m else "across"
                for e, _, *ends in dec.quiver.steps}
        drops = [without_prefix(dec.decomposition, q)
                 for q in range(len(prefixes))]
        drops += [(m, prefixes, {**suffixes, b: ss[:r] + ss[r + 1:]})
                  for b, ss in suffixes.items() for r in range(len(ss))]
        for drop in drops:
            pmap.decorations.clear()
            dec = st.Decoration.of(pmap, omega)
            dec.decomposition = drop
            kept = {whole.nodes.index(g): n for n, g in enumerate(dec.states)}
            leaving = {(e, kept[s]) for s, t, e in whole.edges
                       if s in kept and t not in kept}
            if not leaving:
                assert dec.move_graph.edges == tuple(
                    (kept[s], kept[t], e) for s, t, e in whole.edges
                    if s in kept and t in kept)
                continue
            with pytest.raises(AssertionError) as refusal:
                dec.move_graph
            _, _, e, _, _, n, *_ = str(refusal.value).split()
            assert (e, int(n)) in leaving
            kinds.add(kind[e])
    assert kinds == {"after", "before", "across"}


# ----------------------------------------------------------------------
# Jacobian residuals: derivatives cached per potential against recomputation
# ----------------------------------------------------------------------

def jacobian_oracle(m, s):
    """``check_jacobian`` with every cyclic derivative recomputed from the
    potential's terms, arrow by arrow."""
    bad = []
    for arrow in sorted(m.arrows):
        src, tgt = m.arrows[arrow]
        residual = Matrix.zeros(m.dims[src], m.dims[tgt])
        for coeff, path in s.terms:
            for i, a in enumerate(path):
                if a == arrow:
                    rest = path[i + 1:] + path[:i]
                    residual = residual + reps.evaluate_path(
                        m, rest, at=tgt).scale(coeff)
        if not residual.is_zero:
            bad.append((arrow, residual))
    return reps.JacobianReport(len(m.arrows), tuple(bad))


def single_entry_changes(m):
    """m with one matrix entry raised by one, for every entry."""
    for a in sorted(m.arrows):
        mat = m.mats[a]
        for i in range(mat.rows):
            for j in range(mat.cols):
                yield m.with_entry(a, i, j, mat.data[i][j] + 1)


@SETTINGS
@given(hs.data())
def test_cached_jacobian_matches_per_arrow_recomputation(data):
    pmap = data.draw(shadows(max_per_position=2))
    scale = data.draw(hs.sampled_from((1, 2)))
    omega = {c: scale * v
             for c, v in kauffman_weight(diagram_of(pmap)).items()}
    dec = st.Decoration.of(pmap, omega)
    s = reps.canonical_potential(pmap, omega)
    graph = dec.move_graph
    largest = max(graph.components, key=len)
    lattice = dec.component_lattice(graph.nodes[largest[0]])
    assume(len(lattice) <= 200)
    for xi in lattice.elements:
        m = reps.state_module(pmap, xi)
        report = reps.check_jacobian(m, s)
        assert report.ok and report == jacobian_oracle(m, s)
    for xi in _spread(lattice.elements, 4):
        for bad in single_entry_changes(reps.state_module(pmap, xi)):
            assert reps.check_jacobian(bad, s) == jacobian_oracle(bad, s)


def test_one_changed_entry_leaves_a_nonzero_residual():
    """On the shadow of s1^2 s2^2 s1 s2 some single-entry change of a state
    module is seen; both checks report the same residuals for it.  (Most
    Kauffman-weight modules are too thin for any one entry to matter.)"""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 1, 2, 2, 1, 2], 3))
    omega = kauffman_weight(diagram_of(pmap))
    dec = st.Decoration.of(pmap, omega)
    s = reps.canonical_potential(pmap, omega)
    seen = 0
    for xi in dec.component_lattice(dec.states[0]).elements:
        for bad in single_entry_changes(reps.state_module(pmap, xi)):
            report = reps.check_jacobian(bad, s)
            assert report == jacobian_oracle(bad, s)
            seen += not report.ok
    assert seen


# ----------------------------------------------------------------------
# Jacobian residuals of state modules: closed form against the dense check
# ----------------------------------------------------------------------

@hs.composite
def thick_shadows(draw):
    """A closure of a 3-braid with each generator three times, sometimes
    summed with a smaller shadow.  Its state modules are thick enough for
    vertex and face paths to act: on closures with two of each generator
    no added vertex or face term changes any residual (scanned)."""
    word = draw(hs.permutations([1, 1, 1, 2, 2, 2]))
    rot, pair = corpus.braid_closure_shadow(word, 3, prefix="x")
    if draw(hs.booleans()):
        word2, strands2 = draw(braid_words(2))
        rot2, pair2 = corpus.braid_closure_shadow(word2, strands2, prefix="y")
        rot, pair = corpus.connected_sum(
            rot, pair, rot2, pair2,
            draw(hs.integers(0, len(pair) - 1)),
            draw(hs.integers(0, len(pair2) - 1)))
    return build_planar_map(rot, pair)


@hs.composite
def perturbed_potentials(draw, pmap, omega):
    """The canonical potential plus a rational multiple of about half of
    the vertex and face cycles, of any weight (zero included), each from a
    random base point and some squared."""
    q = pmap.quiver
    cycles = ([q.vertex_cycles[v] for v in sorted(pmap.vertices)]
              + [q.face_cycles[f] for f in sorted(pmap.faces)])
    terms = []
    for cycle in cycles:
        if draw(hs.booleans()):
            turn = draw(hs.integers(0, len(cycle) - 1))
            coeff = Fraction(draw(hs.sampled_from((-3, -2, -1, 1, 2, 3))),
                             draw(hs.integers(1, 3)))
            power = draw(hs.integers(1, 2))
            terms.append((coeff, (cycle[turn:] + cycle[:turn]) * power))
    return (reps.canonical_potential(pmap, omega)
            + reps.make_potential(q, terms))


def component_states(pmap, omega):
    """The elements of every component lattice, as check-all visits them."""
    dec = st.Decoration.of(pmap, omega)
    graph = dec.move_graph
    return [xi for comp in graph.components
            for xi in dec.component_lattice(graph.nodes[comp[0]]).elements]


@SETTINGS
@given(hs.data())
def test_state_jacobian_matches_the_dense_check(data):
    """Equal reports, residual matrices included; about half of the
    examples have nonzero residuals at the perturbed potential."""
    pmap = data.draw(hs.one_of(shadows(max_per_position=2), thick_shadows()))
    scale = data.draw(hs.sampled_from((1, 2)))
    omega = {c: scale * v
             for c, v in kauffman_weight(diagram_of(pmap)).items()}
    states = component_states(pmap, omega)
    assume(len(states) <= 150)
    canonical = reps.canonical_potential(pmap, omega)
    perturbed = data.draw(perturbed_potentials(pmap, omega))
    for xi in states:
        m = reps.state_module(pmap, xi)
        assert reps.state_jacobian(pmap, xi, canonical) == (
            reps.check_jacobian(m, canonical))
        assert reps.state_jacobian(pmap, xi, perturbed) == (
            reps.check_jacobian(m, perturbed))


def test_state_jacobian_reports_the_dense_residuals():
    """Doubling a vertex term of the canonical potential on the shadow of
    (s1 s2)^3 breaks the relations at some states (around v3 and v4); both
    checks name the same arrows with the same residual matrices."""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 3, 3))
    omega = kauffman_weight(diagram_of(pmap))
    q = pmap.quiver
    states = component_states(pmap, omega)
    seen = 0
    for v in sorted(pmap.vertices):
        s = (reps.canonical_potential(pmap, omega)
             + reps.make_potential(q, [(1, q.vertex_cycles[v])]))
        for xi in states:
            report = reps.state_jacobian(pmap, xi, s)
            assert report == reps.check_jacobian(
                reps.state_module(pmap, xi), s)
            seen += len(report.nonzero)
    assert seen


# ----------------------------------------------------------------------
# state lattices: moves along the move graph against moves by name and
# the step table
# ----------------------------------------------------------------------

def trefoil_with_twos():
    """The corpus trefoil weighted 2 on v0-v2 and f0-f2 and 0 on f3 and f4:
    functions take the value 2 on angles that moves leave."""
    pmap, _ = corpus.load("trefoil")
    omega = {c: 0 for c in pmap.cells}
    omega.update({c: 2 for c in ("v0", "v1", "v2", "f0", "f1", "f2")})
    return pmap, omega


def first_option(options):
    return options[0]


def last_option(options):
    return options[-1]


def assert_steps_match_names(pmap, omega):
    """On every component (at most three): the covers of each element, the
    subobject lattices of a spread of elements, and the component minimum
    of a spread of states, against moves and greedy descents by edge
    name."""
    dec = st.Decoration.of(pmap, omega)
    q, graph = dec.quiver, dec.move_graph
    for comp in graph.components[:3]:
        for g in _spread([graph.nodes[i] for i in comp], 4):
            got = bms.component_minimum(pmap, omega, g)
            for choose in (first_option, last_option):
                assert got == component_minimum_by_name(pmap, g, choose)
        lattice = dec.component_lattice(graph.nodes[comp[-1]])
        up = {xi: {} for xi in lattice.elements}
        for (x, y), e in lattice.labels.items():
            up[x][e] = y
        for xi in lattice.elements:
            assert up[xi] == dict(moves_by_name(q, xi))
        for xi in _spread(lattice.elements, 4):
            got = bms.plus_subobjects(pmap, omega, xi)
            want = subobjects_by_name(pmap, omega, xi)
            assert (got.elements, got.covers, got.labels) == (
                want.elements, want.covers, want.labels)


@SETTINGS
@given(hs.data())
def test_component_lattices_grow_along_the_move_graph(data):
    """Each component lattice, grown along the move graph from the minimum
    read off it, is the lattice grown state by state through the step table
    from the greedy descent's minimum: the same elements in the same order,
    covers, labels, grades and masks.  The minimum is where the greedy
    descents by step table and by edge name (first and last option) end.
    Shadows and sums, also with permuted dart names, at Kauffman weights,
    doubled ones and summed weights."""
    pmap = data.draw(shadows(max_per_position=2))
    if data.draw(hs.booleans()):
        pmap = data.draw(renamed(pmap))
    kauffman = kauffman_weight(diagram_of(pmap))
    omega = data.draw(hs.one_of(
        hs.just(kauffman),
        hs.just({c: 2 * v for c, v in kauffman.items()}),
        summed_weights(pmap)))
    dec = st.Decoration.of(pmap, omega)
    assume(len(dec.states) <= 1000 and dec.nilpotency == 0)
    graph = dec.move_graph
    for comp in _spread(graph.components, 3):
        g = graph.nodes[comp[-1]]
        g0, d = bms.component_minimum(pmap, omega, g)
        assert (g0, d) == minimum_by_steps(pmap, omega, g)
        for choose in (first_option, last_option):
            assert (g0, d) == component_minimum_by_name(pmap, g, choose)
        got, want = dec.component_lattice(g), lattice_by_steps(pmap, omega, g0)
        assert got.minimum.f_plus == g0
        assert got.elements == want.elements
        assert got.covers == want.covers
        assert got.labels == want.labels
        assert got.grade == want.grade
        assert (position_tables(got.certificate)
                == position_tables(want.certificate))
        assert ({j.d for j in got.certificate.join_irreducibles}
                == {j.d for j in want.certificate.join_irreducibles})


def test_step_table_rows_are_the_angles_of_each_edge():
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 3, 3))
    q = pmap.quiver
    frame = st.AngleFrame.of(q.arrow_ids)
    assert [row[:2] for row in q.steps] == [(e, n) for n, e in
                                           enumerate(q.vertices)]
    for e, _, *positions in q.steps:
        assert tuple(frame.names[p] for p in positions) == (
            q.outgoing[e] + q.incoming[e])


def test_steps_read_positive_values_not_ones():
    """10 states in 3 components at nilpotency 0, and moves leaving an
    angle of value 2: a step test for values equal to 1 would miss them."""
    pmap, omega = trefoil_with_twos()
    dec = st.Decoration.of(pmap, omega)
    graph = dec.move_graph
    assert (len(dec.states), len(graph.components),
            dec.nilpotency) == (10, 3, 0)
    q = dec.quiver
    assert any(g[a] == 2 for g in dec.states for e in q.vertices
               if st.is_e_movable(q, g, e) for a in q.outgoing[e])
    assert_steps_match_names(pmap, omega)


@SETTINGS
@given(hs.data())
def test_step_table_matches_moves_by_name(data):
    """Shadows and sums, at Kauffman weights, doubled ones (values 2) and
    summed weights."""
    pmap = data.draw(shadows(max_per_position=2))
    kauffman = kauffman_weight(diagram_of(pmap))
    omega = data.draw(hs.one_of(
        hs.just(kauffman),
        hs.just({c: 2 * v for c, v in kauffman.items()}),
        summed_weights(pmap)))
    dec = st.Decoration.of(pmap, omega)
    assume(dec.nilpotency == 0 and len(dec.states) <= 1000)
    assert_steps_match_names(pmap, omega)


# ----------------------------------------------------------------------
# component, clock and subobject lattices: the move-graph walk against the
# grown-poset certifier
# ----------------------------------------------------------------------

def assert_grown_lattice_is(lattice, grown):
    """lattice is the grown oracle's: elements and covers in order, labels,
    grades, the d of the join-irreducibles, and join and meet tables."""
    assert lattice.elements == grown.elements
    assert lattice.covers == grown.covers
    assert lattice.labels == grown.labels
    assert lattice.grade == grown.grade
    assert ({j.d for j in lattice.certificate.join_irreducibles}
            == {j.d for j in grown.certificate.join_irreducibles})
    assert (position_tables(lattice.certificate)
            == position_tables(grown.certificate))


def clock_by_markers(diagram, bottom):
    """The Kauffman states grown from bottom by marker rotations
    (``kauffman_move``), certified by the grown-poset certifier."""
    def upper(state):
        for e in sorted(diagram.pmap.edges):
            try:
                yield e, kauffman_move(diagram, state, e)
            except NotApplicable:
                pass

    return grown_lattice(bottom, upper, key=lambda s: s.angles)


@SETTINGS
@given(hs.data())
def test_walked_lattices_match_the_grown_oracle(data):
    """Each component lattice, and the plus-subobjects of every one of its
    elements, walked on the move graph and certified on the walk, is the
    lattice grown through the step table and certified as a poset
    (``lattice_by_steps``, ``subobjects_by_steps``).  The clock lattice,
    each element read as its Kauffman state, is the lattice grown by marker
    rotations.  Shadows and sums, also with permuted dart names, at the
    Kauffman weight and twice it, up to 500 states."""
    pmap = data.draw(shadows(max_per_position=2))
    if data.draw(hs.booleans()):
        pmap = data.draw(renamed(pmap))
    diagram = diagram_of(pmap)
    scale = data.draw(hs.sampled_from((1, 2)))
    omega = {c: scale * v for c, v in kauffman_weight(diagram).items()}
    dec = st.Decoration.of(pmap, omega)
    assume(len(dec.states) <= 500)
    graph = dec.move_graph
    for comp in graph.components:
        lattice = dec.component_lattice(graph.nodes[comp[0]])
        assert_grown_lattice_is(
            lattice, lattice_by_steps(pmap, omega, lattice.minimum.f_plus))
        for xi in lattice.elements:
            assert_grown_lattice_is(bms.plus_subobjects(pmap, omega, xi),
                                    subobjects_by_steps(pmap, omega, xi))
    if scale == 1 and diagram.separating_pair is None:
        clock = clock_lattice(diagram)
        grown = clock_by_markers(diagram,
                                 chi_inv(diagram, clock.minimum.f_plus))
        shown = relabel(clock, lambda x: chi_inv(diagram, x.f_plus))
        assert set(shown.elements) == set(grown.elements)
        assert (shown.labels, shown.grade) == (grown.labels, grown.grade)


@SETTINGS
@given(hs.data())
def test_worklist_nilpotency_matches_full_rounds(data):
    """State modules are nilpotent by both; of their single-entry changes,
    some are not, and both say which."""
    pmap = data.draw(hs.one_of(shadows(max_per_position=2), thick_shadows()))
    states = component_states(pmap, kauffman_weight(diagram_of(pmap)))
    assume(len(states) <= 150)
    for xi in _spread(states, 4):
        m = reps.state_module(pmap, xi)
        assert reps.is_nilpotent(m) and paths_vanish_by_rounds(m)
        for changed in _spread(list(single_entry_changes(m)), 12):
            assert reps.is_nilpotent(changed) == (
                paths_vanish_by_rounds(changed))


def test_some_single_entry_changes_are_not_nilpotent():
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 3, 3))
    verdicts = [reps.is_nilpotent(changed)
                for xi in component_states(pmap, kauffman_weight(
                    diagram_of(pmap)))
                for changed in single_entry_changes(
                    reps.state_module(pmap, xi))]
    assert verdicts.count(False) == 10 and len(verdicts) == 68


def test_nilpotency_where_no_arrow_enters():
    """x -> y acting by 1: the span at x, which no arrow enters, is zero
    after the first round, the span at y after the second."""
    module = reps.QuiverRep(("x", "y"), {"a": ("x", "y")}, {"x": 1, "y": 1},
                            {"a": Matrix.identity(1)})
    assert reps.is_nilpotent(module) and paths_vanish_by_rounds(module)


@hs.composite
def integer_matrices(draw, max_side=6):
    """A matrix of ints in -3..3, with zero rows or columns allowed."""
    rows, cols = draw(hs.integers(0, max_side)), draw(hs.integers(0, max_side))
    row = hs.lists(hs.integers(-3, 3), min_size=cols, max_size=cols)
    return Matrix(rows, cols, draw(hs.lists(row, min_size=rows,
                                            max_size=rows)))


@settings(SETTINGS, max_examples=200)
@given(integer_matrices())
@example(Matrix(0, 3, ()))
@example(Matrix(3, 0, ((),) * 3))
@example(Matrix(2, 3, ((2, 1, 0), (1, 3, -3))))
@example(Matrix(2, 3, ((0, -1, 2), (-1, 1, 3))))
def test_integer_elimination_matches_the_fraction_oracle(a):
    """Same pivots, same values; entries stay ints or Fractions."""
    reduced, pivots = a.rref()
    assert (reduced, pivots) == rref_by_fractions(a)
    assert a.rank() == len(pivots)
    assert a.nullspace() == nullspace_by_fractions(a)
    assert a.column_basis() == column_basis_by_fractions(a)
    assert {type(x) for row in reduced.data for x in row} <= {int, Fraction}


def test_unit_pivots_keep_the_integers():
    """A pivot of -1 negates its row and one of 1 leaves it; no Fraction is
    made until a pivot divides, as 2 does in the second matrix."""
    a = Matrix(2, 3, ((-1, 2, 0), (1, -1, 3)))
    reduced, pivots = a.rref()
    assert (reduced, pivots) == (Matrix(2, 3, ((1, 0, 6), (0, 1, 3))), (0, 1))
    assert a.nullspace() == [[-6, -3, 1]]
    entries = [*chain(*reduced.data), *chain(*a.nullspace()),
               *chain(*a.column_basis().data)]
    assert all(type(x) is int for x in entries)
    halved, _ = Matrix(1, 2, ((2, 1),)).rref()
    assert halved.data == ((1, Fraction(1, 2)),)
    assert type(halved.data[0][0]) is Fraction


def test_floats_become_exact_fractions():
    a = Matrix(1, 2, ((0.5, True),))
    assert a.data == ((Fraction(1, 2), 1),)
    assert {type(x) for x in a.data[0]} == {Fraction}


def assert_end_ring_matches_the_oracle(m):
    ring = reps.endomorphism_ring(m)
    basis, gram_rank = endomorphism_ring_by_fractions(m)
    assert ring.dimension == len(basis) and ring.gram_rank == gram_rank
    assert list(ring.basis) == basis
    return ring


@SETTINGS
@given(shadows(max_per_position=2))
def test_end_rings_of_state_modules_match_the_fraction_oracle(pmap):
    """On the maximal state module of the first component lattice, at the
    Kauffman weight and at twice it."""
    kauffman = kauffman_weight(diagram_of(pmap))
    for omega in (kauffman, {c: 2 * v for c, v in kauffman.items()}):
        assert_end_ring_matches_the_oracle(_top_module(pmap, omega)[1])


def test_end_ring_systems_of_the_corpus_need_no_division(corpus_maps):
    """On every shipped map the End-ring system of the maximal state module
    is eliminated by unit pivots, so its basis is made of ints."""
    for pmap, marked in corpus_maps.values():
        omega = kauffman_weight(LinkDiagram(pmap, marked))
        ring = assert_end_ring_matches_the_oracle(_top_module(pmap, omega)[1])
        assert all(type(x) is int for endo in ring.basis
                   for mat in endo.values() for x in chain(*mat.data))
