"""Quiver representations of states: matrices, potentials, End rings,
subrepresentation lattices."""

import random
from collections import namedtuple
from fractions import Fraction

import pytest

import medialq.bms as bms
import medialq.reps as reps
import medialq.states as st
from medialq import corpus
from medialq.kauffman import LinkDiagram, kauffman_weight
from medialq.lattice import CertificationFailed, grown_lattice
from medialq.linalg import Matrix, ShapeMismatch
from medialq.planar import build_planar_map, medial_quiver
from medialq.reps import plus_minus_matrix as pm
from medialq.states import NotACycle

from conftest import (TRIANGLE_PAIR, TRIANGLE_ROT, direct_sum,
                      enumerate_subreps, subrep_isomorphism_oracle, total_dim,
                      unit_step_isomorphism_oracle)

TRIANGLE_WEIGHT = {"v0": 1, "v1": 1, "v2": 2, "f0": 2, "f1": 2}


def _setup(name):
    pmap, marked = corpus.load(name)
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    quiver = medial_quiver(pmap)
    gs = st.enumerate_compatible(pmap, omega)
    g0, _ = bms.component_minimum(pmap, omega, gs[0])
    lattice = bms.bms_plus_lattice(pmap, omega, g0)
    return pmap, omega, quiver, lattice


@pytest.fixture(scope="module")
def trefoil_setup():
    return _setup("trefoil")


@pytest.fixture(scope="module")
def figure_eight_setup():
    return _setup("figure_eight")


def top_state(lattice):
    return max(lattice.elements, key=lambda s: s.d_tot)


def bottom_state(lattice):
    return min(lattice.elements, key=lambda s: s.d_tot)


def test_plus_minus_matrix_frozen_shapes():
    assert pm(1, 1, 3, 3) == Matrix(3, 3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert pm(0, 0, 3, 3) == Matrix.identity(3)
    # (+)^2 (-)^1 as a 4x3 map: rank-2 identity block in the upper right
    assert pm(2, 1, 4, 3) == Matrix(4, 3, [
        [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]])
    # zero conventions when an exponent exceeds the dimension
    assert pm(0, 4, 2, 3) == Matrix.zeros(2, 3)
    assert pm(5, 0, 3, 2) == Matrix.zeros(3, 2)
    # both exponents fit but the block sizes disagree: no such composite
    with pytest.raises(ShapeMismatch):
        pm(0, 1, 3, 3)
    # degenerate dimensions give honest empty matrices
    assert pm(0, 0, 0, 0) == Matrix.zeros(0, 0)
    assert pm(1, 0, 1, 0) == Matrix.zeros(1, 0)


def test_plus_minus_shuffle_identity():
    # applying minuses then pluses, or pluses then minuses, agrees with the
    # closed form whenever k <= n
    rng = random.Random(20260823)
    for _ in range(200):
        n = rng.randint(0, 6)
        k = rng.randint(0, n)
        c = rng.randint(0, 4)
        a = Matrix.identity(n)
        for i in range(k):
            a = pm(0, 1, n - i - 1, n - i) @ a
        for i in range(c):
            a = pm(1, 0, n - k + i + 1, n - k + i) @ a
        b = Matrix.identity(n)
        for i in range(c):
            b = pm(1, 0, n + i + 1, n + i) @ b
        for i in range(k):
            b = pm(0, 1, n + c - i - 1, n + c - i) @ b
        assert a == b == pm(c, k, n - k + c, n)
    for n in range(1, 6):
        jordan = pm(1, 1, n, n)
        assert pm(1, 0, n, n - 1) @ pm(0, 1, n - 1, n) == jordan
        assert pm(0, 1, n, n + 1) @ pm(1, 0, n + 1, n) == jordan


def test_cyclic_derivative_rotations():
    s = reps.Potential(((Fraction(1), ("a", "b", "c")),))
    assert reps.cyclic_derivative(s, "a") == [(Fraction(1), ("b", "c"))]
    assert reps.cyclic_derivative(s, "b") == [(Fraction(1), ("c", "a"))]
    assert reps.cyclic_derivative(s, "x") == []
    # one term per occurrence
    s2 = reps.Potential(((Fraction(1), ("a", "b", "a", "c")),))
    assert reps.cyclic_derivative(s2, "a") == [
        (Fraction(1), ("b", "a", "c")), (Fraction(1), ("c", "a", "b"))]
    # rotating the stored base point changes nothing
    s3 = reps.Potential(((Fraction(1), ("b", "c", "a")),))
    assert reps.cyclic_derivative(s3, "a") == [(Fraction(1), ("b", "c"))]


def test_canonical_potential_triangle_exponents():
    tri = build_planar_map(TRIANGLE_ROT, TRIANGLE_PAIR)
    quiver = medial_quiver(tri)
    s = reps.canonical_potential(tri, TRIANGLE_WEIGHT)
    # lcm of the support is 2, so weight-1 cells get their cycle squared
    # with coefficient 1/2 and weight-2 cells keep coefficient 1 (vertices)
    # or -1 (faces)
    assert s.terms == (
        (Fraction(1, 2), ("a0", "b2", "a0", "b2")),
        (Fraction(1, 2), ("a1", "b0", "a1", "b0")),
        (Fraction(1), ("a2", "b1")),
        (Fraction(-1), ("b0", "b1", "b2")),
        (Fraction(-1), ("a0", "a2", "a1")),
    )


def test_potential_validation():
    tri = build_planar_map(TRIANGLE_ROT, TRIANGLE_PAIR)
    quiver = medial_quiver(tri)
    with pytest.raises(reps.EmptySupport):
        reps.canonical_potential(
            tri, {c: 0 for c in list(tri.vertices) + list(tri.faces)})
    for bad in ([(1, ())], [(1, ("a0", "zz"))], [(1, ("a0", "b2", "a0"))]):
        with pytest.raises(NotACycle):
            reps.make_potential(quiver, bad)
    ok = reps.make_potential(quiver, [(1, ("a0", "b2"))])
    assert ok.terms == ((Fraction(1), ("a0", "b2")),)


def test_state_jacobian_refuses_terms_off_the_quiver(trefoil_setup):
    pmap, _, quiver, lattice = trefoil_setup
    a, b = next((a, b) for a in quiver.arrow_ids for b in quiver.arrow_ids
                if quiver.target(a) != quiver.source(b))
    for path in (("a", "b", "c"), (a, b)):
        s = reps.Potential(((Fraction(1), path),))
        with pytest.raises(NotACycle):
            reps.state_jacobian(pmap, lattice.maximum, s)


def test_state_module_trefoil_max(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    top = top_state(lattice)
    module = reps.state_module(pmap, top)
    assert {e: v for e, v in module.dims.items() if v} == {"e3": 1, "e5": 1}
    assert total_dim(module) == 2
    assert sorted(module.support()) == ["e3", "e5"]
    # the one arrow joining the two supported edges carries the identity
    assert module.mats["c3ne"] == Matrix(1, 1, [[1]])
    entries = {x for m in module.mats.values() for row in m.data for x in row}
    assert entries <= {Fraction(0), Fraction(1)}
    # vertex cycles composite to the nilpotent Jordan block on the support
    for e in sorted(module.support()):
        d = module.dims[e]
        hits = []
        for cyc in module.cycles:
            for i, a in enumerate(cyc):
                if module.source(a) == e:
                    based = cyc[i:] + cyc[:i]
                    hits.append(reps.evaluate_path(module, based, at=e))
        assert pm(1, 1, d, d) in hits


def test_state_module_of_minimum_is_zero(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, bottom_state(lattice))
    assert total_dim(module) == 0
    assert module.support() == frozenset()
    assert all(m.rows == 0 and m.cols == 0 for m in module.mats.values())


def test_evaluate_path_composition(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, top_state(lattice))
    assert reps.evaluate_path(module, (), at="e3") == Matrix.identity(1)
    assert reps.evaluate_path(module, ["c3ne"]) == module.mats["c3ne"]
    with pytest.raises(ShapeMismatch):
        reps.evaluate_path(module, ["c3ne", "c3ne"])
    with pytest.raises(ValueError):
        reps.evaluate_path(module, ())
    # convention self-test: on a non-square instance only one composition
    # order type-checks
    good = reps.evaluate_path(module, ["c3ne", "c1ne"])
    assert (good.rows, good.cols) == (0, 1)
    with pytest.raises(ShapeMismatch):
        module.mats["c3ne"] @ module.mats["c1ne"]


def test_jacobian_holds_on_lattices(trefoil_setup, figure_eight_setup):
    for pmap, omega, quiver, lattice in (trefoil_setup, figure_eight_setup):
        s = reps.canonical_potential(pmap, omega)
        for state in lattice.elements:
            report = reps.check_jacobian(
                reps.state_module(pmap, state), s)
            assert report.ok and report.arrows_checked == len(quiver.arrows)


def test_jacobian_with_phantom_term(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    # the marked faces have weight zero, so their cycles are invisible and
    # extending the potential by one changes no residual
    zero_faces = sorted(f for f in pmap.faces if omega[f] == 0)
    assert zero_faces
    phantom = reps.make_potential(
        quiver, [(Fraction(1), quiver.face_cycles[zero_faces[0]])])
    s = reps.canonical_potential(pmap, omega) + phantom
    for state in lattice.elements:
        assert reps.check_jacobian(reps.state_module(pmap, state), s).ok


def test_jacobian_detects_corruption():
    # Kauffman-weight modules on the corpus are too thin for any single
    # entry to matter (every derivative path crosses a zero-dimensional
    # space), so use the triangle with its heavier weight: d = 1 on all
    # three edges is a valid state since then f_plus = f_minus works.
    tri = build_planar_map(TRIANGLE_ROT, TRIANGLE_PAIR)
    quiver = medial_quiver(tri)
    g0 = st.enumerate_compatible(tri, TRIANGLE_WEIGHT)[0]
    xi = bms.make_bms(tri, TRIANGLE_WEIGHT, g0, g0,
                      {e: 1 for e in quiver.vertices})
    module = reps.state_module(tri, xi)
    s = reps.canonical_potential(tri, TRIANGLE_WEIGHT)
    assert reps.check_jacobian(module, s).ok
    corrupted = module.with_entry("a0", 0, 0, Fraction(2))
    report = reps.check_jacobian(corrupted, s)
    assert not report.ok
    residuals = dict(report.nonzero)
    assert residuals["a2"] == Matrix(1, 1, [[-1]])


def test_is_nilpotent(trefoil_setup, figure_eight_setup):
    for pmap, omega, quiver, lattice in (trefoil_setup, figure_eight_setup):
        for state in lattice.elements:
            assert reps.is_nilpotent(reps.state_module(pmap, state))
    looped = reps.QuiverRep(
        ("x",), {"a": ("x", "x")}, {"x": 1}, {"a": Matrix.identity(1)})
    assert not reps.is_nilpotent(looped)


def test_endomorphism_ring_trefoil_max(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, top_state(lattice))
    ring = reps.endomorphism_ring(module)
    assert ring.dimension == 1 and ring.gram_rank == 1 and ring.is_local
    # the basis endomorphism is a shared scalar across the support
    endo = ring.basis[0]
    assert endo["e3"] == endo["e5"] == Matrix.identity(1)


def test_endomorphism_ring_degenerate_cases(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    zero = reps.state_module(pmap, bottom_state(lattice))
    ring = reps.endomorphism_ring(zero)
    assert ring.dimension == 0 and not ring.is_local
    # a single Jordan block: End = {a.1 + b.J}, local despite dimension 2,
    # and both basis blocks are upper-triangular Toeplitz
    jordan = reps.QuiverRep(("x",), {"a": ("x", "x")}, {"x": 2},
                            {"a": pm(1, 1, 2, 2)})
    ring2 = reps.endomorphism_ring(jordan)
    assert ring2.dimension == 2 and ring2.gram_rank == 1 and ring2.is_local
    for endo in ring2.basis:
        m = endo["x"]
        assert m.data[1][0] == 0 and m.data[0][0] == m.data[1][1]


def test_indecomposability_both_methods(trefoil_setup, figure_eight_setup):
    for pmap, omega, quiver, lattice in (trefoil_setup, figure_eight_setup):
        module = reps.state_module(pmap, top_state(lattice))
        assert reps.support_is_connected(module)
        assert reps.is_indecomposable(module, omega)


def test_disconnected_support_is_decomposable():
    pmap, omega, quiver, lattice = _setup("trefoil_sum")
    # the connected sum admits a state supported on one edge per summand
    split = [s for s in lattice.elements
             if {e for e, v in s.d if v} == {"e6", "e11"}]
    assert len(split) == 1
    module = reps.state_module(pmap, split[0])
    assert not reps.support_is_connected(module)
    assert not reps.endomorphism_ring(module).is_local
    assert not reps.is_indecomposable(module, omega)


def test_direct_sums(figure_eight_setup):
    pmap, omega, quiver, lattice = figure_eight_setup
    a, b = sorted((s for s in lattice.elements if s.d_tot == 1),
                  key=lambda s: s.d)
    ma = reps.state_module(pmap, a)
    mb = reps.state_module(pmap, b)
    # supports {e5} and {e4} with no arrow between them
    total = direct_sum(ma, mb)
    assert sorted(total.support()) == ["e4", "e5"]
    assert not reps.is_indecomposable(total, omega)
    # doubling one state keeps the support connected but breaks locality,
    # and the two criteria disagreeing must not pass silently
    with pytest.raises(CertificationFailed):
        reps.is_indecomposable(direct_sum(ma, ma), omega)


def test_non_characteristic_weight_refusals(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, top_state(lattice))
    heavy = {"v0": 2, "f0": 2}
    with pytest.raises(reps.NotCharacteristicWeight) as info:
        reps.is_indecomposable(module, heavy)
    # the locality verdict still rides along for the other method
    assert info.value.is_local is True
    with pytest.raises(reps.NotCharacteristicWeight):
        reps.verify_subrep_isomorphism(lattice, module, heavy)


def test_simple_quotients_match_anti_movable(trefoil_setup, figure_eight_setup):
    for pmap, omega, quiver, lattice in (trefoil_setup, figure_eight_setup):
        for state in lattice.elements:
            module = reps.state_module(pmap, state)
            expected = frozenset(
                e for e in quiver.vertices
                if bms.is_bms_anti_movable(quiver, state, e))
            assert reps.simple_quotients(module) == expected
    pmap, omega, quiver, lattice = trefoil_setup
    assert reps.simple_quotients(
        reps.state_module(pmap, top_state(lattice))) == {"e3"}
    assert reps.simple_quotients(
        reps.state_module(pmap, bottom_state(lattice))) == frozenset()


def test_moved_edge_joins_simple_quotients(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    bottom = bottom_state(lattice)
    (step,) = [hi for (lo, hi) in lattice.covers if lo == bottom]
    moved = lattice.labels[(bottom, step)]
    assert moved == "e5"
    assert moved in reps.simple_quotients(reps.state_module(pmap, step))


def test_short_exact_sequence_inclusions(trefoil_setup, figure_eight_setup):
    for pmap, omega, quiver, lattice in (trefoil_setup, figure_eight_setup):
        assert lattice.covers
        for lo, hi in lattice.covers:
            e = lattice.labels[(lo, hi)]
            assert hi.d_tot == lo.d_tot + 1 and hi.dim(e) == lo.dim(e) + 1
            small = reps.state_module(pmap, lo)
            big = reps.state_module(pmap, hi)
            iota = {
                x: pm(1, 0, big.dims[x], small.dims[x]) if x == e
                else Matrix.identity(small.dims[x])
                for x in small.vertices}
            for arrow, (s_, t_) in small.arrows.items():
                assert big.mats[arrow] @ iota[s_] == iota[t_] @ small.mats[arrow]


def test_subrep_lattice_trefoil_chain(trefoil_setup):
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, top_state(lattice))
    found = enumerate_subreps(module, omega)
    assert len(found) == 3
    by_grade = sorted(found.elements, key=found.grade.get)
    assert [found.grade[k] for k in by_grade] == [0, 1, 2]
    assert [(dict(k)["e5"], dict(k)["e3"]) for k in by_grade] == [
        (0, 0), (1, 0), (1, 1)]
    assert found.minimum == by_grade[0] and found.maximum == by_grade[2]


def test_subrep_lattice_figure_eight(figure_eight_setup):
    pmap, omega, quiver, lattice = figure_eight_setup
    module = reps.state_module(pmap, top_state(lattice))
    found = enumerate_subreps(module, omega)
    assert len(found) == 5
    grades = sorted(found.grade[k] for k in found.elements)
    assert grades == [0, 1, 1, 2, 3]
    singles = {tuple(e for e, v in k if v)
               for k in found.elements if found.grade[k] == 1}
    assert singles == {("e4",), ("e5",)}


def test_subrep_refusals():
    # a supported vertex with no certified Jordan cycle is refused rather
    # than scanned optimistically, by the library and the oracles alike
    bare = reps.QuiverRep(("x",), {}, {"x": 1}, {})
    Point = namedtuple("Point", "d")
    zero = grown_lattice(Point((("x", 0),)), lambda x: (), key=lambda x: x.d)
    for check in (reps.verify_subrep_isomorphism,
                  unit_step_isomorphism_oracle, subrep_isomorphism_oracle):
        with pytest.raises(reps.CandidateSpaceTooLarge):
            check(zero, bare, {"v0": 1})


def test_subrep_isomorphism_certificates(trefoil_setup, figure_eight_setup):
    for expected, setup in ((3, trefoil_setup), (5, figure_eight_setup)):
        pmap, omega, quiver, lattice = setup
        module = reps.state_module(pmap, top_state(lattice))
        assert reps.verify_subrep_isomorphism(lattice, module, omega)
        assert unit_step_isomorphism_oracle(lattice, module, omega)
        assert subrep_isomorphism_oracle(lattice, module, omega)
        subreps = enumerate_subreps(module, omega)
        assert len(lattice) == len(subreps) == expected
        for state in lattice.elements:
            assert subreps.grade[state.d] == state.d_tot
    pmap, omega, quiver, lattice = trefoil_setup
    bottom = bottom_state(lattice)
    below = bms.plus_subobjects(pmap, omega, bottom)
    assert reps.verify_subrep_isomorphism(
        below, reps.state_module(pmap, bottom), omega)
    assert len(below) == 1


def test_subrep_isomorphism_needs_the_zero_minimum(figure_eight_setup):
    """The maximal state alone: its minimum's d, the whole module, is not
    0, which the first test rejects.  (It has no join-irreducibles either,
    against the module's least points; for the unit-step oracle, only the
    minimum tells, as no unit step rises from the whole module.)"""
    pmap, omega, quiver, lattice = figure_eight_setup
    top = top_state(lattice)
    module = reps.state_module(pmap, top)
    alone = grown_lattice(top, lambda x: (), key=lambda s: s.d)
    assert len(alone) == 1 and alone.minimum is top
    assert not reps.verify_subrep_isomorphism(alone, module, omega)
    assert not unit_step_isomorphism_oracle(alone, module, omega)
    assert not subrep_isomorphism_oracle(alone, module, omega)


def test_subrep_isomorphism_needs_distinct_vectors(trefoil_setup):
    """A square over the 3-chain of subrepresentations of the maximal
    trefoil module, its two middle elements both given the middle vector.
    The minimum's d is 0, so the least points tell: the square's two
    join-irreducibles share the middle vector c1, while the chain's least
    points are c1 and its top c2.  For the unit-step oracle, whose minimum
    and unit steps match, only the repeated d tells."""
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, top_state(lattice))
    chain = enumerate_subreps(module, omega).elements
    assert len(chain) == 3
    Tagged = namedtuple("Tagged", "tag d")
    above = {"0": (Tagged("a", chain[1]), Tagged("b", chain[1])),
             "a": (Tagged("c", chain[2]),), "b": (Tagged("c", chain[2]),),
             "c": ()}

    def upper(x):
        return [(y.tag, y) for y in above[x.tag]]

    square = grown_lattice(Tagged("0", chain[0]), upper,
                           key=lambda x: (x.d, x.tag))
    assert len(square) == 4 and len(square.covers) == 4
    assert not reps.verify_subrep_isomorphism(square, module, omega)
    assert not unit_step_isomorphism_oracle(square, module, omega)
    assert not subrep_isomorphism_oracle(square, module, omega)


def test_quiver_rep_validation(trefoil_setup):
    with pytest.raises(ShapeMismatch):
        reps.QuiverRep(("x", "y"), {"a": ("x", "y")}, {"x": 2, "y": 1},
                       {"a": Matrix.zeros(2, 2)})
    with pytest.raises(ValueError):
        reps.QuiverRep(("x",), {"a": ("x", "x")}, {"x": 1}, {})
    pmap, omega, quiver, lattice = trefoil_setup
    module = reps.state_module(pmap, top_state(lattice))
    bumped = module.with_entry("c3ne", 0, 0, Fraction(7))
    assert bumped.mats["c3ne"].data[0][0] == 7
    assert module.mats["c3ne"].data[0][0] == 1
