"""Finite posets and certified graded distributive lattices.

A ``FiniteLattice`` is a poset, given by its elements and Hasse covers,
with a ``Certificate``: one bitmask per element, the join-irreducibles
below it (Birkhoff, "Rings of sets", 1937), so that order is inclusion of
masks and join and meet are their union and intersection.  The lattices
the library returns are the components of a move graph, and
``bms.bms_plus_lattice`` walks and certifies them; this module holds the
types it returns and builds no closure.
"""

from __future__ import annotations

from .planar import Record


class CertificationFailed(AssertionError):
    """A guarantee of the theory failed to verify: an internal
    disagreement."""


class FinitePoset:
    """Explicit finite poset: hashable elements plus Hasse covers (low, high).

    Construction checks that the covers relate known, distinct elements and
    form no directed cycle, and keeps a topological order of the indices
    (``_topo``) with the covers above and below each index.
    """

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        self.covers = tuple(map(tuple, covers))  # no copy of a pair given
        self._index = index = {x: i for i, x in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate elements")
        n = len(self.elements)
        above = [[] for _ in range(n)]  # i -> indices covering i
        below = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in self.covers:
            if a not in index or b not in index:
                raise ValueError(f"cover ({a!r}, {b!r}) uses unknown elements")
            if a == b:
                raise ValueError("cover relates an element to itself")
            ia, ib = index[a], index[b]
            above[ia].append(ib)
            below[ib].append(ia)
            indeg[ib] += 1
        caught = [i for i in range(n) if indeg[i] == 0]
        for i in caught:
            for j in above[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    caught.append(j)
        if len(caught) != n:
            raise ValueError("cover relation has a directed cycle")
        self._topo, self._above, self._below = caught, above, below

    def hasse_dot(self, label=str):
        """Hasse diagram in DOT format, minimum at the bottom, one line at a
        time."""
        yield from ("digraph hasse {", "  rankdir=BT;", "  node [shape=box];")
        for i, x in enumerate(self.elements):
            yield f'  n{i} [label="{label(x)}"];'
        for a, b in sorted(
                self.covers, key=lambda c: (self._index[c[0]], self._index[c[1]])):
            yield f"  n{self._index[a]} -> n{self._index[b]};"
        yield "}"


class Certificate(Record):
    """Evidence that a poset is a graded distributive lattice.

    ``masks[i]`` holds one bit per join-irreducible below element i, bit k
    standing for ``join_irreducibles[k]``; ``index_of_mask`` inverts it.
    A join is the element of the union of two masks, a meet that of their
    intersection.
    """

    __slots__ = ("minimum", "maximum", "size", "grade_range", "grade",
                 "elements", "join_irreducibles", "masks", "index_of_mask")

    ok = True
    sampled = False  # exact at every size; reports still print the flag


class FiniteLattice(Record):
    """A certified graded distributive lattice with its evidence.

    `labels` optionally tags each cover (x, y) with the datum that produced
    it (for move lattices, the edge of the map that was moved).  Order is
    inclusion of the certificate's masks, joins and meets are their unions
    and intersections.
    """

    __slots__ = ("poset", "certificate", "labels")

    def __init__(self, poset: FinitePoset, certificate: Certificate,
                 labels: dict | None = None):
        super().__init__(poset, certificate, labels)

    @property
    def elements(self):
        return self.poset.elements

    @property
    def covers(self):
        return self.poset.covers

    @property
    def minimum(self):
        return self.certificate.minimum

    @property
    def maximum(self):
        return self.certificate.maximum

    @property
    def grade(self):
        return self.certificate.grade

    def leq(self, x, y):
        masks, index = self.certificate.masks, self.poset._index
        return not masks[index[x]] & ~masks[index[y]]

    def join_index(self, i, j):
        cert = self.certificate
        return cert.index_of_mask[cert.masks[i] | cert.masks[j]]

    def meet_index(self, i, j):
        cert = self.certificate
        return cert.index_of_mask[cert.masks[i] & cert.masks[j]]

    def join(self, x, y):
        index = self.poset._index
        return self.elements[self.join_index(index[x], index[y])]

    def meet(self, x, y):
        index = self.poset._index
        return self.elements[self.meet_index(index[x], index[y])]

    def __len__(self):
        return len(self.poset.elements)
