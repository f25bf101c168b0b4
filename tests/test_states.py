"""Compatible angular functions, moves, and invisible cycles.

Expected values for the digon, triangle, and Hopf shadow were computed by
hand from the angle incidences and cross-checked against the product-space
brute-force enumerator before being frozen here.
"""

import random

import pytest

from medialq import corpus
from medialq import states as st
from medialq.planar import build_planar_map, medial_quiver

from conftest import compatible_functions, gamma_inv_components_bruteforce


def values(g):
    return tuple(v for _, v in g.items())


DIGON_WEIGHT = {"v0": 1, "v1": 1, "f0": 1, "f1": 1}
TRIANGLE_WEIGHT = {"v0": 1, "v1": 1, "v2": 2, "f0": 2, "f1": 2}
# zero on one pair of non-adjacent faces of the Hopf shadow
HOPF_WEIGHT = {"v0": 1, "v1": 1, "f0": 0, "f1": 1, "f2": 1, "f3": 0}


def test_digon_states(digon):
    L = st.enumerate_compatible(digon, DIGON_WEIGHT)
    assert [values(g) for g in L] == [(0, 1, 0, 1), (1, 0, 1, 0)]
    assert L == compatible_functions(digon, DIGON_WEIGHT)


def test_digon_mutual_moves(digon):
    q = medial_quiver(digon)
    g = st.AngularFunction({"a0": 1, "a1": 0, "b0": 1, "b1": 0})
    h = st.mov_e(q, g, "e0")
    assert values(h) == (0, 1, 0, 1)
    assert st.mov_e(q, h, "e1") == g
    assert st.anti_mov_e(q, h, "e0") == g
    graph = st.Decoration.of(digon, DIGON_WEIGHT).move_graph
    assert graph.edges == ((0, 1, "e1"), (1, 0, "e0"))
    assert graph.components == [[0, 1]]


def test_triangle_states(triangle):
    L = st.enumerate_compatible(triangle, TRIANGLE_WEIGHT)
    assert [values(g) for g in L] == [
        (0, 0, 2, 1, 0, 1),
        (0, 1, 1, 0, 1, 1),
        (1, 0, 1, 1, 1, 0),
        (1, 1, 0, 0, 2, 0),
    ]
    assert L == compatible_functions(triangle, TRIANGLE_WEIGHT)


def test_triangle_nilpotency(triangle):
    assert st.nilpotency_degree(triangle, TRIANGLE_WEIGHT) == 1


def test_cycle_pairing_is_state_independent(triangle):
    q = medial_quiver(triangle)
    L = st.enumerate_compatible(triangle, TRIANGLE_WEIGHT)
    assert q.face_cycles["f0"] == ("b0", "b1", "b2")
    for g in L:
        assert st.lambda_omega(q, q.face_cycles["f0"], g) == 2
        assert st.lambda_omega(q, q.vertex_cycles["v2"], g) == 2
        # doubling a cycle doubles the pairing
        doubled = st.AngularCycle(q.face_cycles["f0"] * 2)
        assert st.lambda_omega(q, doubled, g) == 4


def test_cycle_pairing_matches_weights(corpus_maps):
    """Around a vertex or face cycle the pairing gives back the weight there."""
    pmap, _ = corpus_maps["trefoil"]
    q = medial_quiver(pmap)
    rng = random.Random(7)
    omega = random_weight(pmap, rng)
    L = st.enumerate_compatible(pmap, omega)
    if not L:
        pytest.skip("empty state set for this draw")
    g = L[0]
    for v in pmap.vertices:
        assert st.lambda_omega(q, q.vertex_cycles[v], g) == omega[v]
    for f in pmap.faces:
        assert st.lambda_omega(q, q.face_cycles[f], g) == omega[f]


def test_lambda_rejects_non_cycles(triangle):
    q = medial_quiver(triangle)
    g = st.enumerate_compatible(triangle, TRIANGLE_WEIGHT)[0]
    with pytest.raises(st.NotACycle):
        st.lambda_omega(q, (), g)
    with pytest.raises(st.NotACycle):
        st.lambda_omega(q, ("a0", "zz"), g)
    with pytest.raises(st.NotACycle):
        # a0 ends at e2 but b0 starts at e0
        st.lambda_omega(q, ("a0", "b0"), g)


def test_hopf_frozen_component_structure(corpus_maps):
    pmap, _ = corpus_maps["hopf"]
    L = st.enumerate_compatible(pmap, HOPF_WEIGHT)
    assert len(L) == 2
    graph = st.Decoration.of(pmap, HOPF_WEIGHT).move_graph
    assert graph.edges == ()
    assert graph.components == [[0], [1]]
    assert st.nilpotency_degree(pmap, HOPF_WEIGHT) == 0
    inv = st.Decoration.of(pmap, HOPF_WEIGHT).invisible_arrows
    assert sorted(inv) == ["c1nw", "c1se", "c2nw", "c2se"]
    assert st.gamma_inv_connected(pmap, HOPF_WEIGHT) == (False, 2)
    assert gamma_inv_components_bruteforce(pmap, HOPF_WEIGHT) == 2


def test_invisible_subgraph_state_independent(corpus_maps):
    """The invisible arrows computed from any compatible function agree."""
    import networkx as nx

    pmap, _ = corpus_maps["hopf"]
    q = medial_quiver(pmap)
    reference = st.Decoration.of(pmap, HOPF_WEIGHT).invisible_arrows
    for g in st.enumerate_compatible(pmap, HOPF_WEIGHT):
        zero = [a for a in q.arrow_ids if g[a] == 0]
        dg = nx.DiGraph()
        dg.add_nodes_from(q.vertices)
        dg.add_edges_from((q.source(a), q.target(a)) for a in zero)
        comp = {}
        for i, scc in enumerate(nx.strongly_connected_components(dg)):
            for v in scc:
                comp[v] = i
        inv = frozenset(a for a in zero if comp[q.source(a)] == comp[q.target(a)])
        assert inv == reference


def test_empty_state_set(corpus_maps):
    """A bigon face weighted heavier than its two crossings admits nothing."""
    pmap, _ = corpus_maps["trefoil"]
    bigon = next(f for f, cyc in pmap.faces.items() if len(cyc) == 2)
    touched = {pmap.vertex_of[pmap.theta[d]] for d in pmap.faces[bigon]}
    far = next(v for v in pmap.vertices if v not in touched)
    omega = {c: 0 for c in list(pmap.vertices) + list(pmap.faces)}
    omega[bigon] = 1
    omega[far] = 1
    assert st.validate_weight(pmap, omega)
    assert st.enumerate_compatible(pmap, omega) == []
    with pytest.raises(st.EmptyStateSet):
        st.Decoration.of(pmap, omega).invisible_arrows
    with pytest.raises(st.EmptyStateSet):
        st.nilpotency_degree(pmap, omega)


def test_gamma_inv_needs_nilpotency_zero(triangle):
    with pytest.raises(st.NotNilpotencyZero):
        st.gamma_inv_connected(triangle, TRIANGLE_WEIGHT)


def test_move_errors(digon):
    q = medial_quiver(digon)
    g = st.AngularFunction({"a0": 0, "a1": 1, "b0": 0, "b1": 1})
    with pytest.raises(st.UnknownEdge):
        st.is_e_movable(q, g, "e9")
    with pytest.raises(st.UnknownEdge):
        st.delta_chi(q, "v0")
    with pytest.raises(st.NotMovable):
        st.mov_e(q, g, "e0")
    with pytest.raises(st.NotMovable):
        st.anti_mov_e(q, g, "e1")


def test_weight_validation(digon):
    with pytest.raises(st.MissingValue):
        st.validate_weight(digon, {"v0": 1, "v1": 1, "f0": 1})
    assert not st.validate_weight(digon, {"v0": 2, "v1": 1, "f0": 1, "f1": 1})
    assert not st.validate_weight(digon, {"v0": -1, "v1": 3, "f0": 1, "f1": 1})
    assert st.validate_weight(digon, DIGON_WEIGHT)
    assert st.is_characteristic(DIGON_WEIGHT)
    assert not st.is_characteristic({"v0": 2, "v1": 0, "f0": 1, "f1": 1})


def test_weight_text_roundtrip(digon):
    text = st.dump_weight_text(DIGON_WEIGHT)
    assert st.parse_weight_text(text) == DIGON_WEIGHT
    with pytest.raises(st.MissingValue):
        st.parse_weight_text("v0: [1, 2]\n")
    with pytest.raises(st.MissingValue):
        st.parse_weight_text("- v0\n- v1\n")


def test_enumeration_rejects_disconnected():
    rot = [["a0", "a1"], ["b0", "b1"], ["c0", "c1"], ["d0", "d1"]]
    pair = [["a0", "b0"], ["a1", "b1"], ["c0", "d0"], ["c1", "d1"]]
    two_digons = build_planar_map(rot, pair)
    omega = {c: 0 for c in list(two_digons.vertices) + list(two_digons.faces)}
    with pytest.raises(ValueError):
        st.enumerate_compatible(two_digons, omega)


def random_weight(pmap, rng, top=1):
    """A valid weight with a guaranteed nonempty state set.

    Drawn by sampling a random angular function and summing it around each
    vertex and face, so the sample itself is compatible by construction.
    """
    q = medial_quiver(pmap)
    g = {a: rng.randint(0, top) for a in pmap.darts}
    omega = {v: sum(g[a] for a in q.vertex_cycles[v]) for v in pmap.vertices}
    omega.update(
        {f: sum(g[a] for a in q.face_cycles[f]) for f in pmap.faces})
    return omega


def test_moves_invert_randomized(corpus_maps):
    rng = random.Random(20260823)
    names = ["hopf", "trefoil", "figure_eight"]
    checked = 0
    for _ in range(12):
        pmap, _ = corpus_maps[rng.choice(names)]
        q = medial_quiver(pmap)
        omega = random_weight(pmap, rng)
        L = st.enumerate_compatible(pmap, omega)
        universe = set(L)
        for g in L[:40]:
            for e in q.vertices:
                if st.is_e_movable(q, g, e):
                    h = st.mov_e(q, g, e)
                    assert h in universe
                    assert st.anti_mov_e(q, h, e) == g
                    checked += 1
                if st.is_anti_e_movable(q, g, e):
                    h = st.anti_mov_e(q, g, e)
                    assert h in universe
                    assert st.mov_e(q, h, e) == g
    assert checked > 50


def test_enumeration_is_sorted_and_duplicate_free(corpus_maps):
    pmap, _ = corpus_maps["figure_eight"]
    rng = random.Random(3)
    omega = random_weight(pmap, rng)
    L = st.enumerate_compatible(pmap, omega)
    vals = [values(g) for g in L]
    assert vals == sorted(vals)
    assert len(set(vals)) == len(vals)


def test_invalid_weight_is_refused(digon):
    """Unequal vertex and face totals raise instead of giving no states."""
    unequal = {"v0": 2, "v1": 1, "f0": 1, "f1": 1}
    with pytest.raises(ValueError, match="vertex/face totals differ"):
        st.enumerate_compatible(digon, unequal)
    with pytest.raises(ValueError, match="vertex/face totals differ"):
        st.Decoration.of(digon, unequal)


def test_weight_keys_that_name_no_cell_are_refused(digon):
    """Checked before the memo is consulted: a weight whose cell values are
    already decorated is still refused, naming every stray key, and so is
    one that also misses a cell."""
    st.Decoration.of(digon, DIGON_WEIGHT)
    message = "which is no vertex or face of the map"
    with pytest.raises(ValueError, match=f"^weight names 'zz', {message}$"):
        st.Decoration.of(digon, dict(DIGON_WEIGHT, zz=-1))
    with pytest.raises(ValueError, match=f"names 'True', 'zz', {message}"):
        st.enumerate_compatible(digon, {**DIGON_WEIGHT, "zz": 0, "True": 1})
    missing = {"v0": 1, "v1": 1, "f0": 1, "zz": 1}
    with pytest.raises(ValueError, match=f"names 'zz', {message}"):
        st.Decoration.of(digon, missing)


def test_decoration_is_memoized_on_the_map(triangle):
    dec = st.Decoration.of(triangle, TRIANGLE_WEIGHT)
    assert st.Decoration.of(triangle, dict(TRIANGLE_WEIGHT)) is dec
    assert dec.quiver is triangle.quiver
    assert dec.first == dec.states[0]
    assert dec.nilpotency == 1
    other = dict(TRIANGLE_WEIGHT, v0=0, f0=1)
    assert st.Decoration.of(triangle, other) is not dec


def test_component_lattice_is_kept():
    from medialq.kauffman import LinkDiagram, kauffman_weight

    pmap, marked = corpus.load("figure_eight")
    dec = st.Decoration.of(pmap, kauffman_weight(LinkDiagram(pmap, marked)))
    lattice = dec.component_lattice(dec.first)
    assert len(lattice) == len(dec.states) == 5
    assert dec.component_lattice(dec.first) is lattice


def test_functions_of_one_component_share_its_lattice():
    from medialq.kauffman import LinkDiagram, kauffman_weight

    pmap, marked = corpus.load("figure_eight")
    dec = st.Decoration.of(pmap, kauffman_weight(LinkDiagram(pmap, marked)))
    assert dec.move_graph.components == [[0, 1, 2, 3, 4]]
    lattice = dec.component_lattice(dec.states[-1])
    assert all(dec.component_lattice(g) is lattice for g in dec.states)


def test_index_refuses_a_function_that_is_not_a_state():
    """On the trefoil the all-zero function would sort first and the
    all-nine one last; neither is a state."""
    from medialq.kauffman import LinkDiagram, kauffman_weight

    pmap, marked = corpus.load("trefoil")
    dec = st.Decoration.of(pmap, kauffman_weight(LinkDiagram(pmap, marked)))
    assert [dec.index(g) for g in dec.states] == list(range(len(dec.states)))
    frame = dec.first.frame
    for value in (0, 9):
        g = st.AngularFunction.from_vector(frame, (value,) * len(frame.names))
        with pytest.raises(ValueError, match="not a compatible function"):
            dec.index(g)


def test_a_decoration_made_directly_reads_its_own_pieces(monkeypatch):
    """``states``, their texts and the move graph come from the decoration's
    own decomposition, never from the one ``Decoration.of`` memoizes."""
    from medialq.kauffman import LinkDiagram, kauffman_weight

    pmap, marked = corpus.load("torus_2_6")
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    memo = st.Decoration.of(pmap, omega)
    expected = (list(memo.states), list(memo.state_texts()),
                memo.move_graph.edges)

    def refuse(cls, *args):
        raise AssertionError("Decoration.of called")

    monkeypatch.setattr(st.Decoration, "of", classmethod(refuse))
    dec = st.Decoration(pmap, omega)
    assert (list(dec.states), list(dec.state_texts()),
            dec.move_graph.edges) == expected
    assert len(expected[0]) > 1
