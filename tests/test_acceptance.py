"""End-to-end acceptance checks: one test, one pass/fail line per headline
property of the whole pipeline.

Run ``pytest tests/test_acceptance.py -v`` to see one line per criterion;
with ``-s`` each test also prints a one-line summary of what it verified.
All frozen counts below were computed by the independent oracles first
(brute-force enumerations, dual constructions) and then fixed here.
"""

from fractions import Fraction

import pytest

from medialq import bms, reps
from medialq import states as st
from medialq.kauffman import (
    LinkDiagram,
    NotPrime,
    clock_lattice,
    enumerate_kauffman_states,
    kauffman_weight,
)
from medialq.planar import build_planar_map, medial_quiver
from conftest import (TRIANGLE_PAIR, TRIANGLE_ROT, enumerate_subreps,
                      forgetful_projection, gamma_inv_components_bruteforce,
                      join_table, meet_table)

# The Hopf-link decoration with zero weight on two opposite faces: the two
# compatible functions admit no moves at all.
HOPF_ISOLATED = {"v0": 1, "v1": 1, "f0": 0, "f1": 1, "f2": 1, "f3": 0}

# Triangle decoration: 1 at two crossings, 2 at the third, 2 on both faces.
TRIANGLE_WEIGHT = {"v0": 1, "v1": 1, "v2": 2, "f0": 2, "f1": 2}


def _component_lattices(pmap, omega, quiver):
    """One certified lattice per move-graph component."""
    graph = st.Decoration.of(pmap, omega).move_graph
    out = []
    for comp in graph.components:
        g0, _ = bms.component_minimum(pmap, omega, graph.nodes[comp[0]])
        lattice = bms.bms_plus_lattice(pmap, omega, g0)
        assert len(lattice) == len(comp)
        out.append(lattice)
    return out


def _nonzero(d):
    return {e: v for e, v in d if v}


def test_criterion_1_hopf_two_isolated_states(corpus_maps):
    pmap, _ = corpus_maps["hopf"]
    functions = st.enumerate_compatible(pmap, HOPF_ISOLATED)
    assert len(functions) == 2
    graph = st.Decoration.of(pmap, HOPF_ISOLATED).move_graph
    assert graph.edges == ()
    assert graph.components == [[0], [1]]
    assert st.gamma_inv_connected(pmap, HOPF_ISOLATED) == (False, 2)
    print("PASS 1: hopf decoration gives 2 isolated states; "
          "invisible-cycle graph has 2 components")


def test_criterion_2_triangle_weight_and_cycle_pairing(triangle):
    assert st.validate_weight(triangle, TRIANGLE_WEIGHT)
    assert sum(TRIANGLE_WEIGHT[v] for v in triangle.vertices) == 4
    assert sum(TRIANGLE_WEIGHT[f] for f in triangle.faces) == 4
    quiver = medial_quiver(triangle)
    functions = st.enumerate_compatible(triangle, TRIANGLE_WEIGHT)
    assert functions
    # the cycle bounding the weight-2 face pairs to 2 under every
    # compatible function, so the pairing is independent of the choice
    cycle = quiver.face_cycles["f0"]
    values = {st.lambda_omega(quiver, cycle, g) for g in functions}
    assert values == {2}
    print("PASS 2: triangle weight sums to 4 on both sides; "
          "face cycle pairs to 2 for all "
          f"{len(functions)} compatible functions")


def test_criterion_3_clock_lattices_with_full_tables(corpus_maps):
    for name, expected in (("trefoil", 3), ("figure_eight", 5)):
        pmap, marked = corpus_maps[name]
        diagram = LinkDiagram(pmap, marked)
        # count fixed beforehand by the dual-checked enumeration
        assert len(enumerate_kauffman_states(diagram)) == expected
        graph = st.Decoration.of(pmap, kauffman_weight(diagram)).move_graph
        assert len(graph.components) == 1  # connected
        lattice = clock_lattice(diagram)
        assert len(lattice) == expected
        cert = lattice.certificate
        assert not cert.sampled
        els = lattice.elements
        off_diagonal = {(x, y) for x in els for y in els if x != y}
        for table, op in ((join_table(cert), lattice.join),
                          (meet_table(cert), lattice.meet)):
            assert table is not None
            assert set(table) == off_diagonal
            assert all(table[p] == op(*p) for p in off_diagonal)
    print("PASS 3: trefoil and figure-eight clock lattices certified "
          "(3 and 5 states) with full join/meet tables")


def test_criterion_4_component_lattices_and_projection(corpus_maps):
    lattices_checked = 0
    for name in sorted(corpus_maps):
        pmap, marked = corpus_maps[name]
        omega = kauffman_weight(LinkDiagram(pmap, marked))
        assert st.nilpotency_degree(pmap, omega) == 0
        quiver = medial_quiver(pmap)
        for lattice in _component_lattices(pmap, omega, quiver):
            lattices_checked += 1
            assert not lattice.certificate.sampled  # (a) certified exactly
            # (b) forgetting d is an order isomorphism onto the component
            report = forgetful_projection(pmap, omega, lattice.elements)
            assert report.ok and report.injective
            assert report.components_touched == 1
            assert report.components_fully_covered == 1
            # (c) join and meet are pointwise max and min of dimensions
            for x in lattice.elements:
                for y in lattice.elements:
                    dx, dy = dict(x.d), dict(y.d)
                    keys = set(dx) | set(dy)
                    up = {e: max(dx.get(e, 0), dy.get(e, 0)) for e in keys}
                    lo = {e: min(dx.get(e, 0), dy.get(e, 0)) for e in keys}
                    assert _nonzero(lattice.join(x, y).d) == _nonzero(up.items())
                    assert _nonzero(lattice.meet(x, y).d) == _nonzero(lo.items())
    print(f"PASS 4: {lattices_checked} component lattices certified; "
          "projections are order isomorphisms; join/meet are pointwise")


def test_criterion_5_jacobian_residuals_all_zero(corpus_maps):
    states_checked = 0
    for name in sorted(corpus_maps):
        pmap, marked = corpus_maps[name]
        omega = kauffman_weight(LinkDiagram(pmap, marked))
        quiver = medial_quiver(pmap)
        potential = reps.canonical_potential(pmap, omega)
        for lattice in _component_lattices(pmap, omega, quiver):
            for state in lattice.elements:
                module = reps.state_module(pmap, state)
                assert reps.check_jacobian(module, potential).ok
                states_checked += 1

    # variant: extend the potential by the cycle of a zero-weight face
    pmap, marked = corpus_maps["trefoil"]
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    quiver = medial_quiver(pmap)
    zero_faces = sorted(f for f in pmap.faces if omega[f] == 0)
    assert zero_faces
    phantom = reps.make_potential(
        quiver, [(Fraction(1), quiver.face_cycles[zero_faces[0]])])
    extended = reps.canonical_potential(pmap, omega) + phantom
    for lattice in _component_lattices(pmap, omega, quiver):
        for state in lattice.elements:
            module = reps.state_module(pmap, state)
            assert reps.check_jacobian(module, extended).ok
    print(f"PASS 5: {states_checked} corpus states have exactly zero "
          "cyclic-derivative residuals (plus the extended-potential variant)")


def test_criterion_6_representation_theorems(corpus_maps):
    for name, expected in (("trefoil", 3), ("figure_eight", 5)):
        pmap, marked = corpus_maps[name]
        omega = kauffman_weight(LinkDiagram(pmap, marked))
        quiver = medial_quiver(pmap)
        (lattice,) = _component_lattices(pmap, omega, quiver)
        top = max(lattice.elements, key=lambda s: s.d_tot)
        module = reps.state_module(pmap, top)
        assert reps.is_nilpotent(module)
        assert reps.is_indecomposable(module, omega)  # both methods agree
        assert reps.endomorphism_ring(module).is_local
        assert reps.support_is_connected(module)
        anti = frozenset(e for e in quiver.vertices
                         if bms.is_bms_anti_movable(quiver, top, e))
        assert reps.simple_quotients(module) == anti
        assert reps.verify_subrep_isomorphism(lattice, module, omega)
        assert len(lattice) == expected
        assert len(enumerate_subreps(module, omega)) == expected
    print("PASS 6: maximal trefoil/figure-eight modules are nilpotent and "
          "indecomposable; quotients match; lattices agree (3 and 5)")


def test_criterion_7_oracle_equivalence(corpus_maps):
    small = 0
    for name in sorted(corpus_maps):
        pmap, marked = corpus_maps[name]
        diagram = LinkDiagram(pmap, marked)
        omega = kauffman_weight(diagram)
        quiver = medial_quiver(pmap)
        # state-for-state: raises internally if the two enumerations differ
        states = enumerate_kauffman_states(diagram)
        assert len(states) == len(st.enumerate_compatible(pmap, omega))

        # move-for-move: the move graph computed through angular functions
        # must match the one from the direct marker-rotation rule, where a
        # move along e replaces the two markers sitting on the angles keyed
        # by e's darts with the two angles pointing into e
        from medialq.kauffman import chi_inv
        graph = st.Decoration.of(pmap, omega).move_graph
        via_functions = {
            (chi_inv(diagram, graph.nodes[s]).angles,
             chi_inv(diagram, graph.nodes[t]).angles, e)
            for s, t, e in graph.edges}
        incoming = {e: tuple(a for a in quiver.arrow_ids
                             if quiver.arrows[a][1] == e)
                    for e in quiver.vertices}
        direct = set()
        for state in states:
            present = set(state.angles)
            for e, darts in pmap.edges.items():
                if e == diagram.marked_edge or not present.issuperset(darts):
                    continue
                after = tuple(sorted(present - set(darts)
                                     | set(incoming[e])))
                direct.add((state.angles, after, e))
        assert via_functions == direct

        if len(quiver.arrow_ids) <= 12:
            small += 1
            assert (st.gamma_inv_components(pmap, omega)
                    == gamma_inv_components_bruteforce(pmap, omega))
    assert small >= 2  # hopf and trefoil at least
    print("PASS 7: dual Kauffman enumerations agree state-for-state and "
          f"move-for-move on all diagrams; invisible-component counts match "
          f"brute force on {small} small instances")


def test_criterion_8_mutations_are_rejected(corpus_maps):
    # (a) corrupting one matrix entry produces a nonzero residual
    tri = build_planar_map(TRIANGLE_ROT, TRIANGLE_PAIR)
    quiver = medial_quiver(tri)
    g0 = st.enumerate_compatible(tri, TRIANGLE_WEIGHT)[0]
    xi = bms.make_bms(tri, TRIANGLE_WEIGHT, g0, g0,
                      {e: 1 for e in quiver.vertices})
    module = reps.state_module(tri, xi)
    potential = reps.canonical_potential(tri, TRIANGLE_WEIGHT)
    assert reps.check_jacobian(module, potential).ok
    corrupted = module.with_entry("a0", 0, 0, 2)
    report = reps.check_jacobian(corrupted, potential)
    assert not report.ok and report.nonzero

    # (b) a connected sum is turned away with the separating pair as witness
    pmap, marked = corpus_maps["trefoil_sum"]
    with pytest.raises(NotPrime) as err:
        clock_lattice(LinkDiagram(pmap, marked))
    assert err.value.witness == ("e0", "e1")

    # (c) bumping dimensions on invisible edges is refused
    pmap, marked = corpus_maps["trefoil"]
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    q = medial_quiver(pmap)
    g = st.enumerate_compatible(pmap, omega)[0]
    with pytest.raises(bms.InvisibleDimNonZero):
        bms.make_bms(pmap, omega, g, g, {e: 1 for e in q.vertices})
    print("PASS 8: corrupted entry, non-prime diagram, and invisible "
          "dimension bump are each rejected")
