"""Dimension-counting states, their lattices, and the forgetful projection.

The trefoil and figure-eight instances use the weight that is 1 on every
crossing and unmarked face and 0 on the two faces beside the marked edge;
their state counts (3 and 5) were fixed by the brute-force enumerator
before the lattice machinery existed.
"""

import random
from collections import Counter
from time import perf_counter

import pytest

from medialq import bms, corpus
from medialq import states as st
from medialq.lattice import CertificationFailed
from medialq.planar import build_planar_map, medial_quiver
from medialq.states import NotMovable, NotNilpotencyZero

from conftest import (component_minimum_by_name, forgetful_projection,
                      join_table)


def kauffman_like_weight(pmap, marked):
    f1, f2 = pmap.edge_faces(marked)
    assert f1 != f2
    w = {v: 1 for v in pmap.vertices}
    w.update({f: 1 for f in pmap.faces})
    w[f1] = w[f2] = 0
    return w


@pytest.fixture(scope="module")
def trefoil_setup():
    return _setup("trefoil")


@pytest.fixture(scope="module")
def figure_eight_setup():
    return _setup("figure_eight")


def _setup(name):
    from medialq import corpus

    pmap, marked = corpus.load(name)
    omega = kauffman_like_weight(pmap, marked)
    quiver = medial_quiver(pmap)
    states = st.enumerate_compatible(pmap, omega)
    return pmap, omega, quiver, states


def lattice_from_bottom(pmap, omega, quiver, states):
    g0, _ = bms.component_minimum(pmap, omega, states[0])
    return bms.bms_plus_lattice(pmap, omega, g0)


def test_trefoil_chain(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    assert len(states) == 3
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    assert len(lat) == 3
    assert lat.certificate.grade_range == (0, 2)
    assert lat.maximum.d_tot == 2
    # a chain: two covers, totally ordered
    assert len(lat.covers) == 2
    for x in lat.elements:
        for y in lat.elements:
            assert lat.leq(x, y) or lat.leq(y, x)


def test_figure_eight_lattice(figure_eight_setup):
    pmap, omega, quiver, states = figure_eight_setup
    assert len(states) == 5
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    assert len(lat) == 5
    assert lat.certificate.grade_range == (0, 3)
    assert join_table(lat.certificate) is not None


def test_state_hash_is_the_hash_of_its_fields(figure_eight_setup):
    """The hash kept at construction is the frozen dataclass's hash of
    (f_plus, f_minus, d), and equality still compares the fields."""
    pmap, omega, quiver, states = figure_eight_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    for xi in lat.elements:
        assert hash(xi) == hash((xi.f_plus, xi.f_minus, xi.d))
        twin = bms.BMSState(xi.f_plus, xi.f_minus, xi.d)
        assert twin == xi and hash(twin) == hash(xi)
    assert len(set(lat.elements)) == len(lat) == 5


def test_lattice_laws(figure_eight_setup):
    pmap, omega, quiver, states = figure_eight_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    els = lat.elements
    assert len(els) <= 200
    for x in els:
        assert lat.join(x, x) == x and lat.meet(x, x) == x
        for y in els:
            assert lat.join(x, y) == lat.join(y, x)
            assert lat.meet(x, y) == lat.meet(y, x)
            assert lat.join(x, lat.meet(x, y)) == x
            assert lat.meet(x, lat.join(x, y)) == x
            for z in els:
                assert lat.join(x, lat.join(y, z)) == lat.join(lat.join(x, y), z)
                assert lat.meet(x, lat.meet(y, z)) == lat.meet(lat.meet(x, y), z)
                assert lat.meet(x, lat.join(y, z)) == lat.join(
                    lat.meet(x, y), lat.meet(x, z))
                assert lat.join(x, lat.meet(y, z)) == lat.meet(
                    lat.join(x, y), lat.join(x, z))


def test_join_meet_are_pointwise(figure_eight_setup):
    pmap, omega, quiver, states = figure_eight_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    for x in lat.elements:
        for y in lat.elements:
            dx, dy = x.dims(), y.dims()
            jn = lat.join(x, y)
            mt = lat.meet(x, y)
            assert jn.dims() == {e: max(dx[e], dy[e]) for e in dx}
            assert mt.dims() == {e: min(dx[e], dy[e]) for e in dx}


def test_dim_is_an_order_embedding(figure_eight_setup):
    pmap, omega, quiver, states = figure_eight_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    for x in lat.elements:
        for y in lat.elements:
            pointwise = all(x.dim(e) <= y.dim(e) for e in quiver.vertices)
            assert lat.leq(x, y) == pointwise


def test_component_minimum_confluent(trefoil_setup, figure_eight_setup):
    rng = random.Random(99)
    for setup in (trefoil_setup, figure_eight_setup):
        pmap, omega, quiver, states = setup
        for h in states:
            reference = bms.component_minimum(pmap, omega, h)
            for _ in range(20):
                assert component_minimum_by_name(
                    pmap, h, rng.choice) == reference


def test_component_minimum_of_minimum_is_trivial(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    g0, _ = bms.component_minimum(pmap, omega, states[0])
    again, d = bms.component_minimum(pmap, omega, g0)
    assert again == g0
    assert all(v == 0 for v in d.values())


def test_moves_blocked_on_invisible_edges(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    inv_edges = st.invisible_edge_set(
        quiver, st.Decoration.of(pmap, omega).invisible_arrows)
    assert inv_edges
    for xi in lat.elements:
        for e in sorted(inv_edges):
            with pytest.raises(NotMovable):
                bms.bms_mov_e(quiver, xi, e)
            assert xi.dim(e) == 0


def test_make_bms_validation(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    g = states[0]
    xi = bms.make_bms(pmap, omega, g, g, {})
    assert xi.d_tot == 0

    with pytest.raises(bms.RelationViolated) as err:
        bms.make_bms(pmap, omega, g, g, {"e3": 1})
    assert err.value.angle in quiver.arrow_ids

    # constant bump keeps the relation but violates invisible-edge vanishing
    ones = {e: 1 for e in quiver.vertices}
    with pytest.raises(bms.InvisibleDimNonZero):
        bms.make_bms(pmap, omega, g, g, ones)

    with pytest.raises(ValueError):
        bms.make_bms(pmap, omega, g, g, {"e3": -1})

    bad = st.AngularFunction({a: 5 for a in quiver.arrow_ids})
    with pytest.raises(ValueError):
        bms.make_bms(pmap, omega, bad, g, {})

    with pytest.raises(st.UnknownEdge, match="names 'e99', 'zz', which"):
        bms.make_bms(pmap, omega, g, g, {"zz": 3, "e99": 1})

    # one more angle, sorted first, would shift every step-table position
    extra = st.AngularFunction({"0": 0, **dict(g.items())})
    with pytest.raises(ValueError, match="f_plus is not a function on the"):
        bms.make_bms(pmap, omega, extra, g, {})
    with pytest.raises(ValueError, match="h is not a function on the angles"):
        bms.component_minimum(pmap, omega, extra)


def test_mov_updates_exactly_one_dimension(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    for (a, b) in lat.covers:
        e = lat.labels[(a, b)]
        assert bms.bms_mov_e(quiver, a, e) == b
        assert b.d_tot == a.d_tot + 1
        assert b.f_minus == a.f_minus
        assert bms.bms_anti_mov_e(quiver, b, e) == a
    partial = bms.BMSState(a.f_plus, a.f_minus,
                           tuple(p for p in a.d if p[0] != e))
    with pytest.raises(ValueError, match=f"no pair for {e}"):
        bms.bms_mov_e(quiver, partial, e)


def test_nilpotency_gate():
    from medialq.planar import build_planar_map

    digon = build_planar_map([["a0", "a1"], ["b0", "b1"]],
                             [["a0", "b0"], ["a1", "b1"]])
    omega = {"v0": 1, "v1": 1, "f0": 1, "f1": 1}
    g = st.enumerate_compatible(digon, omega)[0]
    with pytest.raises(NotNilpotencyZero):
        bms.bms_plus_lattice(digon, omega, g)
    with pytest.raises(NotNilpotencyZero):
        bms.component_minimum(digon, omega, g)


def test_plus_subobjects(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    sub = bms.plus_subobjects(pmap, omega, lat.maximum)
    assert set(sub.elements) == set(lat.elements)
    assert len(sub) == 3
    bottom = bms.plus_subobjects(pmap, omega, lat.minimum)
    assert len(bottom) == 1
    # order ideal: subobjects of any element stay inside the ambient lattice
    for xi in lat.elements:
        ideal = bms.plus_subobjects(pmap, omega, xi)
        assert set(ideal.elements) <= set(lat.elements)
        assert all(lat.leq(s, xi) for s in ideal.elements)


def test_plus_subobjects_validates_the_state_it_is_given(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    top = lattice_from_bottom(pmap, omega, quiver, states).maximum
    unrelated = bms.BMSState(top.f_minus, top.f_minus, top.d)
    with pytest.raises(bms.RelationViolated):
        bms.plus_subobjects(pmap, omega, unrelated)
    negative = bms.BMSState(top.f_minus, top.f_minus,
                            tuple((e, -1) for e in quiver.vertices))
    with pytest.raises(ValueError, match="non-negative"):
        bms.plus_subobjects(pmap, omega, negative)


def test_plus_subobjects_validates_only_root_and_state(figure_eight_setup,
                                                        monkeypatch):
    """Every element past the root is a move, so nothing is revalidated."""
    pmap, omega, quiver, states = figure_eight_setup
    top = lattice_from_bottom(pmap, omega, quiver, states).maximum
    calls = []
    real = bms.make_bms
    monkeypatch.setattr(bms, "make_bms",
                        lambda *args: calls.append(args) or real(*args))
    below = bms.plus_subobjects(pmap, omega, top)
    assert len(below) == 5 and below.maximum == top
    assert len(calls) <= 2


def test_forgetful_projection_covers_component(trefoil_setup):
    pmap, omega, quiver, states = trefoil_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    report = forgetful_projection(pmap, omega, lat.elements)
    assert report.ok and report.injective
    assert report.components_fully_covered == 1
    # feeding every (g, g, 0) covers all

    roots = [bms.make_bms(pmap, omega, g, g, {}) for g in states]
    full = forgetful_projection(pmap, omega, roots)
    assert full.image_size == full.graph_size


def test_component_lattice_builds_one_state_per_element(monkeypatch):
    """The 45 states of the (s1 s2)^4 lattice are built once each, the root
    by ``make_bms`` and every other by the first move into it; the later
    moves into a state reuse it."""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 4, 3))
    marked = next(e for e in sorted(pmap.edges)
                  if len(set(pmap.edge_faces(e))) == 2)
    dec = st.Decoration.of(pmap, kauffman_like_weight(pmap, marked))
    built = []
    init = bms.BMSState.__init__
    monkeypatch.setattr(bms.BMSState, "__init__",
                        lambda xi, *args: built.append(xi) or init(xi, *args))
    lattice = dec.component_lattice(dec.first)
    assert len(built) == len(lattice) == 45 < len(lattice.covers)
    assert set(built) == set(lattice.elements)


def test_component_reconstruction_across_corpus(corpus_maps):
    """Each move-graph component is reproduced exactly by the lattice grown
    from its greedily-found minimum."""
    for name, (pmap, marked) in sorted(corpus_maps.items()):
        omega = kauffman_like_weight(pmap, marked)
        quiver = medial_quiver(pmap)
        graph = st.Decoration.of(pmap, omega).move_graph
        directed = {}
        for s, t, lab in graph.edges:
            directed.setdefault(s, set()).add((t, lab))
        for comp in graph.components:
            h = graph.nodes[comp[0]]
            f_min, _ = bms.component_minimum(pmap, omega, h)
            lat = bms.bms_plus_lattice(pmap, omega, f_min)
            image = {xi.f_plus for xi in lat.elements}
            assert image == {graph.nodes[i] for i in comp}
            # edges match one-for-one through the projection
            comp_edges = {
                (graph.nodes[s], graph.nodes[t], lab)
                for s, t, lab in graph.edges if s in comp}
            lat_edges = {
                (a.f_plus, b.f_plus, lat.labels[(a, b)]) for a, b in lat.covers}
            assert lat_edges == comp_edges


def test_oriented_path_property(figure_eight_setup):
    """From the bottom of its lattice every state is reached by d_tot moves."""
    pmap, omega, quiver, states = figure_eight_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    for target in lat.elements:
        current = lat.minimum
        steps = 0
        while current != target:
            e = next(
                e for e in quiver.vertices
                if current.dim(e) < target.dim(e)
                and st.is_e_movable(quiver, current.f_plus, e))
            current = bms.bms_mov_e(quiver, current, e)
            steps += 1
        assert steps == target.d_tot


def test_solve_dimension_roundtrip(figure_eight_setup):
    pmap, omega, quiver, states = figure_eight_setup
    lat = lattice_from_bottom(pmap, omega, quiver, states)
    for xi in lat.elements:
        d = bms.solve_dimension(pmap, omega, xi.f_plus, xi.f_minus)
        assert d == xi.dims()
    # swapped endpoints would need negative dimensions
    with pytest.raises(ValueError):
        bms.solve_dimension(
            pmap, omega, lat.minimum.f_plus, lat.maximum.f_plus)


def test_solve_dimension_rejects_cross_component(corpus_maps):
    pmap, _ = corpus_maps["hopf"]
    omega = {"v0": 1, "v1": 1, "f0": 0, "f1": 1, "f2": 1, "f3": 0}
    a, b = st.enumerate_compatible(pmap, omega)
    with pytest.raises(bms.InvisibleDimNonZero):
        bms.solve_dimension(pmap, omega, a, b)


def test_solve_dimension_without_invisible_edges():
    """With no invisible edge to pin the constant, the minimum is set to 0."""
    from medialq.planar import build_planar_map

    digon = build_planar_map([["a0", "a1"], ["b0", "b1"]],
                             [["a0", "b0"], ["a1", "b1"]])
    omega = {"v0": 1, "v1": 1, "f0": 1, "f1": 1}
    lo, hi = st.enumerate_compatible(digon, omega)
    d = bms.solve_dimension(digon, omega, lo, hi)
    assert sorted(d.values()) == [0, 1]
    assert bms.solve_dimension(digon, omega, lo, lo) == {"e0": 0, "e1": 0}


def test_a_dropped_move_is_rejected_fast_on_a_large_lattice():
    """The (s1s2)^9 shadow, 5776 states in one component, with one move
    into a node that two moves enter dropped: the walk names the source
    and the edge in well under a second, as its checks cost O(moves) and
    O(n·|E|), against no pair of elements."""
    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 9, 3))
    marked = next(e for e in sorted(pmap.edges)
                  if len(set(pmap.edge_faces(e))) == 2)
    dec = st.Decoration.of(pmap, kauffman_like_weight(pmap, marked))
    whole = dec.move_graph
    entered = Counter(t for _, t, _ in whole.edges)
    s, t, e = next(m for m in whole.edges if entered[m[1]] > 1)
    dec.move_graph = st.StateGraph(
        whole.nodes, [m for m in whole.edges if m != (s, t, e)])
    assert (len(dec.states), dec.nilpotency, len(set(dec.minima))) == (
        5776, 0, 1)
    start = perf_counter()
    with pytest.raises(CertificationFailed,
                       match=f"^state {s} does not move along {e},"):
        dec.component_lattice(dec.states[0])
    assert perf_counter() - start < 1
