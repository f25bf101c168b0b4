"""Link diagrams, Kauffman states, moves, primality, and clock lattices.

State counts were frozen from two independent enumerations (constraint
backtracking over angular functions, and direct marker matching); the
trefoil chain endpoints and the separating pair of the composite diagram
were inspected by hand before being pinned here.
"""

import pytest

from medialq import corpus
from medialq import kauffman as kf
from medialq import states as st
from medialq.lattice import CertificationFailed
from medialq.planar import build_planar_map, dump_map_text, medial_quiver

from conftest import is_valid_state, join_table

STATE_COUNTS = {
    "hopf": 2,
    "trefoil": 3,
    "figure_eight": 5,
    "torus_2_4": 4,
    "torus_2_5": 5,
    "torus_2_6": 6,
    "trefoil_sum": 9,
}


@pytest.fixture(scope="module")
def diagrams():
    return {
        name: kf.LinkDiagram(*corpus.load(name)) for name in corpus.names()}


def test_diagram_validation(triangle, corpus_maps):
    with pytest.raises(ValueError, match="4-regular"):
        kf.LinkDiagram(triangle, "e0")
    pmap, _ = corpus_maps["trefoil"]
    with pytest.raises(ValueError, match="unknown marked edge"):
        kf.LinkDiagram(pmap, "e99")


def test_bridge_marked_edge_rejected():
    # two digon blobs joined by a bridge; the bridge sees one face twice
    rot = [["a0", "a1", "x0"], ["b0", "b1"], ["c0", "c1", "x1"], ["d0", "d1"]]
    pair = [["a0", "b0"], ["a1", "b1"], ["c0", "d0"], ["c1", "d1"], ["x0", "x1"]]
    pmap = build_planar_map(rot, pair)
    bridge = next(e for e, (u, v) in
                  ((e, pmap.edge_faces(e)) for e in pmap.edges) if u == v)
    with pytest.raises(kf.MarkedFacesNotDistinct):
        kf.LinkDiagram(pmap, bridge)


def test_kauffman_weight(diagrams):
    diag = diagrams["trefoil"]
    w = kf.kauffman_weight(diag)
    assert all(w[v] == 1 for v in diag.pmap.vertices)
    zeros = [f for f in diag.pmap.faces if w[f] == 0]
    assert sorted(zeros) == sorted(diag.marked_faces)
    assert sum(w[f] for f in diag.pmap.faces) == 3
    assert st.is_characteristic(w)


def test_state_counts_both_enumerations(diagrams):
    for name, expected in STATE_COUNTS.items():
        diag = diagrams[name]
        states = kf.enumerate_kauffman_states(diag)
        assert len(states) == expected, name
        assert states == kf._enumerate_direct(diag), name
        for state in states:
            assert is_valid_state(diag, state)


def test_chi_is_a_bijection_onto_compatible_functions(diagrams):
    for name, diag in diagrams.items():
        w = kf.kauffman_weight(diag)
        functions = set(st.enumerate_compatible(diag.pmap, w))
        states = kf.enumerate_kauffman_states(diag)
        assert {kf.chi(diag, s) for s in states} == functions
        for s in states:
            assert kf.chi_inv(diag, kf.chi(diag, s)) == s


def test_moves_commute_with_chi(diagrams):
    for name in ("trefoil", "figure_eight", "hopf"):
        diag = diagrams[name]
        quiver = medial_quiver(diag.pmap)
        for state in kf.enumerate_kauffman_states(diag):
            g = kf.chi(diag, state)
            for e in sorted(diag.pmap.edges):
                movable = (
                    e != diag.marked_edge and st.is_e_movable(quiver, g, e))
                if movable:
                    moved = kf.kauffman_move(diag, state, e)
                    assert kf.chi(diag, moved) == st.mov_e(quiver, g, e)
                else:
                    with pytest.raises(kf.NotApplicable):
                        kf.kauffman_move(diag, state, e)


def test_move_rotates_markers_counterclockwise(diagrams):
    diag = diagrams["trefoil"]
    pmap = diag.pmap
    for state in kf.enumerate_kauffman_states(diag):
        for e in sorted(pmap.edges):
            try:
                moved = kf.kauffman_move(diag, state, e)
            except kf.NotApplicable:
                continue
            d1, d2 = pmap.edges[e]
            expected = set(state.angles) - {d1, d2}
            expected |= {pmap.sigma_inv[d1], pmap.sigma_inv[d2]}
            assert set(moved.angles) == expected


def test_move_errors(diagrams):
    diag = diagrams["trefoil"]
    top = kf.clock_lattice(diag).maximum
    with pytest.raises(kf.NotApplicable, match="marked edge"):
        kf.kauffman_move(diag, top, diag.marked_edge)
    with pytest.raises(kf.NotApplicable, match="unknown"):
        kf.kauffman_move(diag, top, "e42")
    # the top of the lattice has no applicable move at all
    for e in sorted(diag.pmap.edges):
        with pytest.raises(kf.NotApplicable):
            kf.kauffman_move(diag, top, e)


def test_primality(diagrams):
    for name, diag in diagrams.items():
        assert kf.is_prime_diagram(diag) == (name != "trefoil_sum"), name
    pair = kf.find_separating_pair(diagrams["trefoil_sum"].pmap)
    assert pair == ("e0", "e1")


def test_clock_lattice_trefoil(diagrams):
    lat = kf.clock_lattice(diagrams["trefoil"])
    assert len(lat) == 3
    assert lat.certificate.grade_range == (0, 2)
    assert join_table(lat.certificate) is not None
    assert lat.minimum.angles == ("c1ne", "c2se", "c3se")
    assert lat.maximum.angles == ("c1nw", "c2ne", "c3nw")
    assert [lat.labels[c] for c in lat.covers] == ["e5", "e3"]


def test_clock_lattice_sizes(diagrams):
    assert len(kf.clock_lattice(diagrams["figure_eight"])) == 5
    assert len(kf.clock_lattice(diagrams["hopf"])) == 2
    for n in (4, 5, 6):
        lat = kf.clock_lattice(diagrams[f"torus_2_{n}"])
        assert len(lat) == n
        assert lat.certificate.grade_range == (0, n - 1)  # a chain


def test_clock_lattice_rejects_composite(diagrams):
    with pytest.raises(kf.NotPrime) as err:
        kf.clock_lattice(diagrams["trefoil_sum"])
    assert err.value.witness == ("e0", "e1")


def test_corpus_invariants(diagrams):
    """Every corpus diagram: zero nilpotency degree and, when prime, a
    connected graph of invisible cycles."""
    for name, diag in diagrams.items():
        w = kf.kauffman_weight(diag)
        assert st.nilpotency_degree(diag.pmap, w) == 0, name
        if name != "trefoil_sum":
            assert st.gamma_inv_connected(diag.pmap, w) == (True, 1), name


def test_state_validation_rejects_perturbations(diagrams):
    diag = diagrams["trefoil"]
    state = kf.enumerate_kauffman_states(diag)[0]
    assert not is_valid_state(diag, kf.KauffmanState.of(state.angles[1:]))
    assert not is_valid_state(
        diag, kf.KauffmanState.of(state.angles + ("zz",)))
    # move a marker onto a marked face
    marked_angle = next(
        a for a in diag.pmap.darts
        if medial_quiver(diag.pmap).angles[a].face in diag.marked_faces)
    tampered = kf.KauffmanState.of(state.angles[1:] + (marked_angle,))
    assert not is_valid_state(diag, tampered)


def test_chi_inv_requires_indicator(diagrams):
    diag = diagrams["hopf"]
    g = st.AngularFunction({d: 2 for d in diag.pmap.darts})
    with pytest.raises(ValueError):
        kf.chi_inv(diag, g)


def test_from_text_roundtrip(diagrams):
    diag = diagrams["figure_eight"]
    text = dump_map_text(diag.pmap, marked_edge=diag.marked_edge)
    again = kf.LinkDiagram.from_text(text)
    assert again.marked_edge == diag.marked_edge
    assert again.pmap.canonical_form() == diag.pmap.canonical_form()
    with pytest.raises(ValueError, match="marked_edge"):
        kf.LinkDiagram.from_text(dump_map_text(diag.pmap))


def test_records_match_frozen_dataclasses(diagrams):
    """Angles and Kauffman states compare, hash and print as the frozen
    dataclasses they replace, and refuse assignment and deletion."""
    from dataclasses import make_dataclass

    diag = diagrams["figure_eight"]
    records = (list(diag.pmap.quiver.angles.values())
               + kf.enumerate_kauffman_states(diag))
    assert len(set(records)) == len(records)
    for x in records:
        cls, names = type(x), type(x).__slots__
        oracle = make_dataclass(cls.__name__, names, frozen=True)
        values = [getattr(x, name) for name in names]
        assert repr(x) == repr(oracle(*values))
        assert hash(x) == hash(oracle(*values))
        assert x == cls(*values) and x != oracle(*values)
        with pytest.raises(AttributeError):
            setattr(x, names[0], None)
        with pytest.raises(AttributeError):
            delattr(x, names[0])
