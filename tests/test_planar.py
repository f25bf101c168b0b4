from pathlib import Path

import pytest

from medialq import corpus
from medialq.planar import (
    DegreeTooSmall,
    LoopEdge,
    MalformedInvolution,
    MapFormatError,
    NotSpherical,
    angles_of,
    build_planar_map,
    dump_map_text,
    medial_quiver,
    parse_map_text,
)
from conftest import (DIGON_PAIR, DIGON_ROT, TRIANGLE_PAIR, TRIANGLE_ROT,
                      is_strongly_connected, regenerate_files)


def test_triangle_accepted(triangle):
    assert len(triangle.vertices) == 3
    assert len(triangle.edges) == 3
    assert len(triangle.faces) == 2
    assert triangle.faces["f0"] == ("a0", "a1", "a2")
    assert triangle.faces["f1"] == ("b0", "b2", "b1")


def test_digon_accepted(digon):
    assert len(digon.faces) == 2
    assert digon.is_connected()


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        build_planar_map([["x", "y"]], [["x", "y"]])


def test_degree_one_rejected():
    with pytest.raises(DegreeTooSmall):
        build_planar_map([["x"], ["y"]], [["x", "y"]])


def test_involution_fixed_point_rejected():
    with pytest.raises(MalformedInvolution):
        build_planar_map([["x", "y"]], [["x", "x"]])


def test_involution_must_cover_all_darts():
    with pytest.raises(MalformedInvolution):
        build_planar_map([["a0", "a1"], ["b0", "b1"]], [["a0", "b0"]])


def test_duplicate_dart_rejected():
    with pytest.raises(MalformedInvolution):
        build_planar_map([["x", "y"], ["x", "z"]], [["x", "y"], ["x", "z"]])


def test_torus_embedding_rejected():
    # Four parallel edges with aligned rotations close up on a torus (V-E+F=0);
    # reversing one rotation gives the planar embedding of the same graph.
    rot_torus = [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]]
    rot_plane = [["a0", "a1", "a2", "a3"], ["b3", "b2", "b1", "b0"]]
    pair = [["a0", "b0"], ["a1", "b1"], ["a2", "b2"], ["a3", "b3"]]
    with pytest.raises(NotSpherical):
        build_planar_map(rot_torus, pair)
    pmap = build_planar_map(rot_plane, pair)
    assert len(pmap.faces) == 4


def test_torus_component_of_a_union_rejected_by_its_smallest_dart():
    """The Euler count is checked per component, and a failing component
    is named by its smallest dart, wherever that sits in its rotations."""
    rot_torus = [["c3", "c0", "c1", "c2"], ["d0", "d1", "d2", "d3"]]
    pair_torus = [["c0", "d0"], ["c1", "d1"], ["c2", "d2"], ["c3", "d3"]]
    with pytest.raises(NotSpherical, match=r"^component of dart 'c0' has "
                       r"V-E\+F = 2-4\+2 = 0, expected 2$"):
        build_planar_map(rot_torus + TRIANGLE_ROT, pair_torus + TRIANGLE_PAIR)


def test_disconnected_union_accepted():
    rot = TRIANGLE_ROT + [[d.upper() for d in c] for c in TRIANGLE_ROT]
    pair = TRIANGLE_PAIR + [[d.upper() for d in p] for p in TRIANGLE_PAIR]
    pmap = build_planar_map(rot, pair)
    assert not pmap.is_connected()
    assert len(pmap.faces) == 4


def test_angle_count_equals_dart_count(triangle, digon):
    for pmap, n in ((triangle, 6), (digon, 4)):
        angles = angles_of(pmap)
        assert len(angles) == n
        assert [a.dart for a in angles] == list(pmap.darts)


def test_every_edge_is_source_and_target_of_two_angles(triangle):
    angles = angles_of(triangle)
    for eid in triangle.edges:
        assert sum(1 for a in angles if a.source_edge == eid) == 2
        assert sum(1 for a in angles if a.target_edge == eid) == 2


def test_triangle_quiver_counts(triangle):
    q = medial_quiver(triangle)
    assert len(q.vertices) == 3
    assert len(q.arrows) == 6


def test_digon_quiver_two_directed_two_cycles(digon):
    q = medial_quiver(digon)
    assert len(q.vertices) == 2
    assert len(q.arrows) == 4
    assert sorted(q.arrows.values()) == [
        ("e0", "e1"), ("e0", "e1"), ("e1", "e0"), ("e1", "e0")]


def test_quiver_cycles_partition_arrows(triangle, digon):
    for pmap in (triangle, digon):
        q = medial_quiver(pmap)
        from_vertices = sorted(a for c in q.vertex_cycles.values() for a in c)
        from_faces = sorted(a for c in q.face_cycles.values() for a in c)
        assert from_vertices == list(q.arrow_ids)
        assert from_faces == list(q.arrow_ids)


def test_outgoing_incoming_are_disjoint_arrow_pairs(triangle):
    q = medial_quiver(triangle)
    for eid in q.vertices:
        out_pair, in_pair = q.outgoing[eid], q.incoming[eid]
        assert all(q.source(a) == eid for a in out_pair)
        assert all(q.target(a) == eid for a in in_pair)


def test_round_trip_serialization(triangle, digon):
    for pmap in (triangle, digon):
        text = dump_map_text(pmap)
        again, marked = parse_map_text(text)
        assert marked is None
        assert again.canonical_form() == pmap.canonical_form()


def test_parse_rejects_garbage():
    with pytest.raises(MapFormatError):
        parse_map_text("vertices: [unclosed\n")
    with pytest.raises(MapFormatError):
        parse_map_text("edges: [[a, b]]\n")
    with pytest.raises(MapFormatError):
        parse_map_text("just a string\n")


def test_parse_rejects_unknown_keys():
    text = dump_map_text(build_planar_map(DIGON_ROT, DIGON_PAIR))
    with pytest.raises(MapFormatError, match=r"^unknown key 'marked_egde': "
                       "a map has only vertices, edges and marked_edge$"):
        parse_map_text(text + "marked_egde: e0\n")
    with pytest.raises(MapFormatError, match=r"^unknown key '2', 'True': "):
        parse_map_text(text + "on: x\n2: [a]\n")


def test_parse_rejects_unknown_marked_edge():
    text = dump_map_text(build_planar_map(DIGON_ROT, DIGON_PAIR)) + "marked_edge: e9\n"
    with pytest.raises(MapFormatError):
        parse_map_text(text)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------

CORPUS_COUNTS = {
    # name: (vertices, edges, faces)
    "hopf": (2, 4, 4),
    "trefoil": (3, 6, 5),
    "figure_eight": (4, 8, 6),
    "torus_2_4": (4, 8, 6),
    "torus_2_5": (5, 10, 7),
    "torus_2_6": (6, 12, 8),
    "trefoil_sum": (6, 12, 8),
}


def test_corpus_counts(corpus_maps):
    assert set(corpus_maps) == set(CORPUS_COUNTS)
    for name, (pmap, marked) in corpus_maps.items():
        nv, ne, nf = CORPUS_COUNTS[name]
        assert (len(pmap.vertices), len(pmap.edges), len(pmap.faces)) == (nv, ne, nf)
        assert pmap.is_connected()
        assert all(pmap.degree(v) == 4 for v in pmap.vertices)
        assert marked in pmap.edges


def test_corpus_quivers_strongly_connected(corpus_maps):
    for pmap, _ in corpus_maps.values():
        q = medial_quiver(pmap)
        assert is_strongly_connected(q)
        assert len(q.arrows) == 2 * len(q.vertices)


def test_shipped_corpus_matches_generator(tmp_path):
    regenerate_files(tmp_path)
    shipped = Path(corpus.__file__).parent / "corpus"
    for name in corpus.names():
        assert (tmp_path / f"{name}.map").read_text() == \
            (shipped / f"{name}.map").read_text()


def test_braid_closure_rejects_bad_words():
    with pytest.raises(ValueError):
        corpus.braid_closure_shadow([1], 3)  # strand 3 never crosses
    with pytest.raises(ValueError):
        corpus.braid_closure_shadow([5], 2)
    with pytest.raises(LoopEdge):
        # single kink: the closure edge is a loop
        rot, pair = corpus.braid_closure_shadow([1], 2)
        build_planar_map(rot, pair)
