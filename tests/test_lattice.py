"""Poset machinery and lattice certification.

The fixed examples are the standard small (non-)lattices: chains, the
Boolean cube, the diamond M3 (graded but not distributive), and the
pentagon N5 (a lattice but not graded).
"""

import pytest

from medialq.lattice import CertificationFailed, Certificate, FiniteLattice

from conftest import (Counterexample, FinitePoset,
                      certify_graded_distributive_lattice, join_table,
                      lower_covers, meet_table, require_certificate,
                      upper_covers, verify_order_isomorphism)


def chain(n):
    return FinitePoset(range(n), [(i, i + 1) for i in range(n - 1)])


def boolean_cube(k):
    elems = [frozenset(s) for s in _subsets(range(k))]
    covers = [(a, a | {x}) for a in elems for x in range(k) if x not in a]
    return FinitePoset(elems, covers)


def _subsets(base):
    base = list(base)
    out = [[]]
    for x in base:
        out += [s + [x] for s in out]
    return out


def test_chain_certifies():
    cert = certify_graded_distributive_lattice(chain(3))
    assert cert.ok
    assert cert.minimum == 0 and cert.maximum == 2
    assert cert.grade_range == (0, 2)
    assert not cert.sampled
    assert join_table(cert)[(0, 2)] == 2
    assert meet_table(cert)[(1, 2)] == 1
    assert require_certificate(cert) is cert


def test_antichain_fails():
    p = FinitePoset(["x", "y"], [])
    bad = certify_graded_distributive_lattice(p)
    assert not bad.ok
    assert bad.law == "minimum"
    assert set(bad.witness) == {"x", "y"}
    with pytest.raises(CertificationFailed):
        require_certificate(bad)


def test_boolean_cube_certifies():
    p = boolean_cube(3)
    cert = certify_graded_distributive_lattice(p)
    assert cert.ok and cert.size == 8 and cert.grade_range == (0, 3)
    a, b = frozenset({0}), frozenset({1, 2})
    assert p.join(a, b) == frozenset({0, 1, 2})
    assert p.meet(a, b) == frozenset()


def test_diamond_not_distributive():
    # three incomparable atoms between bottom and top
    p = FinitePoset(
        "0abc1",
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
    bad = certify_graded_distributive_lattice(p)
    assert not bad.ok and bad.law == "distributive"
    j, x, y = bad.witness
    # the reported triple really does violate the distributive identity
    lhs = p.meet(j, p.join(x, y))
    rhs = p.join(p.meet(j, x), p.meet(j, y))
    assert lhs != rhs


def test_pentagon_not_graded():
    p = FinitePoset(
        "0xyz1",
        [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")])
    bad = certify_graded_distributive_lattice(p)
    assert not bad.ok and bad.law == "graded"
    assert bad.witness == ("y", "1")


def test_equal_masks_alone_caught():
    """Birkhoff's check (a), distinct masks, is not implied by the others.

    x and y both cover a and b, so a and b have no join, yet (b), (c) and
    (d) of ``_birkhoff`` hold: the masks over J = {a, b, u, v} are
    {}, {a}, {b}, {a,b} twice, {a,b,u}, {a,b,v} and J, every down-set of J
    among them, and the 10 one-bit extensions match the 10 covers.  An
    exhaustive search finds no smaller graded poset with a unique minimum
    and maximum on which (a) alone fails.
    """
    p = FinitePoset("0abxyuv1", [
        ("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"), ("a", "y"),
        ("b", "y"), ("x", "u"), ("y", "v"), ("u", "1"), ("v", "1")])
    bad = certify_graded_distributive_lattice(p)
    assert not bad.ok and bad.law == "join"
    assert bad.witness == ("a", "b")


def test_missing_join_detected():
    #   a   b      two maximal elements over a shared bottom
    p = FinitePoset("0ab", [("0", "a"), ("0", "b")])
    bad = certify_graded_distributive_lattice(p)
    assert not bad.ok and bad.law == "maximum"
    # force past the unique-maximum check by adding two tops: join of a,b fails
    q = FinitePoset(
        "0abcd1",
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
         ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")])
    bad = certify_graded_distributive_lattice(q)
    assert not bad.ok and bad.law == "join"
    assert set(bad.witness) == {"a", "b"}


def test_transitive_edge_rejected_as_cover():
    p = FinitePoset(range(3), [(0, 1), (1, 2), (0, 2)])
    bad = certify_graded_distributive_lattice(p)
    assert not bad.ok and bad.law == "cover"
    assert bad.witness == (0, 2)


def test_false_cover_reported_ahead_of_other_failures():
    """A false cover is reported, as the first cover listed with an element
    between its ends, also where a minimum or a grade step fails first."""
    two_minima = FinitePoset(range(4), [(0, 1), (1, 2), (0, 2), (3, 2)])
    bad = certify_graded_distributive_lattice(two_minima)
    assert (bad.law, bad.witness) == ("cover", (0, 2))
    assert bad.message == "0 -> 2 is not a cover relation"
    long_chain = FinitePoset(range(4), [(0, 1), (1, 2), (2, 3), (1, 3)])
    bad = certify_graded_distributive_lattice(
        long_chain, grade={0: 0, 1: 2, 2: 3, 3: 4})  # breaks at (0, 1)
    assert (bad.law, bad.witness) == ("cover", (1, 3))
    assert bad.message == "1 -> 3 is not a cover relation"


def test_explicit_grade_checked():
    bad = certify_graded_distributive_lattice(chain(3), grade={0: 0, 1: 2, 2: 3})
    assert not bad.ok and bad.law == "graded"
    cert = certify_graded_distributive_lattice(chain(3), grade={0: 5, 1: 6, 2: 7})
    assert cert.ok and cert.grade_range == (5, 7)


def test_large_lattice_certifies_exactly():
    # 2^10 has 1024 elements, more than the old sampling threshold of 500
    p = boolean_cube(10)
    cert = certify_graded_distributive_lattice(p)
    assert cert.ok and not cert.sampled
    assert cert.size == 1024 and cert.grade_range == (0, 10)
    assert sorted(cert.join_irreducibles, key=min) == [
        frozenset({i}) for i in range(10)]
    a, b = frozenset({0, 3, 9}), frozenset({3, 4})
    lattice = FiniteLattice(p, cert)
    assert lattice.join(a, b) == a | b and lattice.meet(a, b) == a & b
    # the diamond is still rejected
    m3 = FinitePoset(
        "0abc1",
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
    bad = certify_graded_distributive_lattice(m3)
    assert not bad.ok


def test_poset_basics():
    p = chain(4)
    assert p.leq(0, 3) and not p.leq(3, 0)
    assert p.minimal_elements() == [0] and p.maximal_elements() == [3]
    assert lower_covers(p, 2) == [1] and upper_covers(p, 2) == [3]
    with pytest.raises(ValueError):
        FinitePoset([1, 1], [])
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 2), (2, 1)])


def test_hasse_dot():
    dot = "\n".join(chain(2).hasse_dot())
    assert "digraph hasse" in dot
    assert "n0 -> n1;" in dot
    assert 'label="0"' in dot


def test_order_isomorphism():
    p, q = chain(3), FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert verify_order_isomorphism(p, q, {0: "a", 1: "b", 2: "c"})
    assert not verify_order_isomorphism(p, q, {0: "b", 1: "a", 2: "c"})
    assert not verify_order_isomorphism(p, q, {0: "a", 1: "a", 2: "c"})
    assert not verify_order_isomorphism(p, q, {0: "a", 1: "b"})
    antichain = FinitePoset("abc", [])
    assert not verify_order_isomorphism(p, antichain, {0: "a", 1: "b", 2: "c"})


def test_empty_poset():
    bad = certify_graded_distributive_lattice(FinitePoset([], []))
    assert not bad.ok and bad.law == "nonempty"


def test_disagreement_with_the_pairwise_search_is_an_assertion(monkeypatch):
    # a valid lattice never reaches the pairwise search; if Birkhoff's check
    # failed on one anyway, the search finds nothing to report
    import conftest as lattice_module

    monkeypatch.setattr(lattice_module, "_birkhoff", lambda poset: None)
    with pytest.raises(AssertionError, match="disagree"):
        certify_graded_distributive_lattice(chain(3))
