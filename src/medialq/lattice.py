"""Finite posets and certification of graded distributive lattices.

A poset is given by its elements and Hasse covers.  Certification checks a
unique minimum and maximum and that every cover raises the grade by one, so
nothing lies strictly between a cover's ends.  Then it checks Birkhoff's
representation theorem directly: with J the join-irreducible elements (one
lower cover each), x -> J ∩ ↓x must be an isomorphism onto the down-sets of
J, at cost O(n·|J|), exact at every size.  A certified lattice answers order,
joins and meets from the Certificate's bitmasks J ∩ ↓x; transitive closures
are built only for bare posets and to name the elements of a Counterexample.
``grown_lattice`` finds a lattice by breadth-first cover steps from its
minimum and certifies it.
"""

from __future__ import annotations

from functools import cached_property

from .planar import Record


class CertificationFailed(AssertionError):
    """Raised by callers that require a certificate but got a counterexample:
    a guarantee of the theory failed to verify, an internal disagreement."""


class FinitePoset:
    """Explicit finite poset: hashable elements plus Hasse covers (low, high)."""

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

    @cached_property
    def _down(self):
        """Bit k of _down[i] (_up[i]) says k <= i (k >= i); on first use."""
        return self._reach(self._topo, self._below)

    @cached_property
    def _up(self):
        return self._reach(reversed(self._topo), self._above)

    def _reach(self, order, steps):
        masks = [1 << i for i in range(len(self.elements))]
        for i in order:
            for j in steps[i]:
                masks[i] |= masks[j]
        return masks

    def leq(self, x, y) -> bool:
        return bool(self._down[self._index[y]] >> self._index[x] & 1)

    def minimal_elements(self):
        return [x for x in self.elements if not self._below[self._index[x]]]

    def maximal_elements(self):
        return [x for x in self.elements if not self._above[self._index[x]]]

    def _bound(self, i, j, masks, order):
        """Index of the extreme element of masks[i] & masks[j], scanning in
        the given topological order, or None if no single extreme exists."""
        common = masks[i] & masks[j]
        if not common:
            return None
        for k in order:
            if common >> k & 1:
                return k if masks[k] & common == common else None
        return None  # pragma: no cover

    def join_index(self, i, j):
        return self._bound(i, j, self._up, self._topo)

    def meet_index(self, i, j):
        return self._bound(i, j, self._down, reversed(self._topo))

    def join(self, x, y):
        k = self.join_index(self._index[x], self._index[y])
        return None if k is None else self.elements[k]

    def meet(self, x, y):
        k = self.meet_index(self._index[x], self._index[y])
        return None if k is None else self.elements[k]

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


class Counterexample(Record):
    """The law a poset breaks, the elements that break it, and a message."""

    __slots__ = ("law", "witness", "message")

    ok = False


def _derived_grade(poset: FinitePoset):
    """Longest chain length from a minimal element, per element."""
    g = [0] * len(poset.elements)
    for i in poset._topo:
        g[i] = max((g[j] + 1 for j in poset._below[i]), default=0)
    return dict(zip(poset.elements, g))


def certify_graded_distributive_lattice(poset: FinitePoset, grade=None):
    """Certificate that the poset is a graded distributive lattice, or a
    Counterexample naming the violated law and the elements involved.

    Checks unique minimum and maximum, unit grade steps (``grade`` must give
    every element), and then Birkhoff's representation (see ``_birkhoff``).
    Unit steps leave nothing strictly between a cover's ends; a false cover,
    if any, is reported ahead of a failed check.  When Birkhoff's check
    fails, a pairwise search names a pair without join or meet, or a
    join-irreducible j below x join y but below neither x nor y: j, x and y
    violate the distributive identity.

    Raises:
        AssertionError: Birkhoff's check and the pairwise search disagree.
    """
    n = len(poset.elements)
    if n == 0:
        return Counterexample("nonempty", (), "empty poset")

    mins = poset.minimal_elements()
    maxs = poset.maximal_elements()
    if len(mins) != 1:
        failed = Counterexample("minimum", tuple(mins), "no unique minimum")
    elif len(maxs) != 1:
        failed = Counterexample("maximum", tuple(maxs), "no unique maximum")
    else:
        if grade is None:
            grade = _derived_grade(poset)
        failed = next((Counterexample(
            "graded", (a, b),
            f"cover {a!r} -> {b!r} changes grade by {grade[b] - grade[a]}")
            for a, b in poset.covers if grade[b] - grade[a] != 1), None)
    if failed is not None:  # name a false cover first, from the closures
        index, down, up = poset._index, poset._down, poset._up
        return next((Counterexample(
            "cover", (a, b), f"{a!r} -> {b!r} is not a cover relation")
            for a, b in poset.covers
            if down[index[b]] & up[index[a]] != 1 << index[a] | 1 << index[b]),
            failed)

    found = _birkhoff(poset)
    if found is None:
        bad = _pairwise_counterexample(poset)
        if bad is None:
            raise AssertionError("Birkhoff's check and the pairwise search "
                                 "disagree")
        return bad
    irreducibles, masks, index_of = found
    return Certificate(
        minimum=mins[0], maximum=maxs[0], size=n,
        grade_range=(min(grade[x] for x in poset.elements),
                     max(grade[x] for x in poset.elements)),
        grade=dict(grade), elements=poset.elements,
        join_irreducibles=tuple(poset.elements[j] for j in irreducibles),
        masks=tuple(masks), index_of_mask=index_of)


def _birkhoff(poset: FinitePoset):
    """(irreducible indices, masks, mask -> index) if x -> J ∩ ↓x is an
    isomorphism onto the down-sets of J, else None.

    (a) Distinct masks and (b) one new bit per cover send covers one-to-one
    to covers of down-sets.  (c) Adding to a mask m any j outside m whose
    strict down-set lies in m gives a mask, so from the minimum's empty mask
    the image reaches every down-set.  (d) There are as many such additions
    as covers, so the covers map onto those of the down-set lattice.

    (c) and (d) do not imply (a): an 8-element graded poset fails (a) alone
    (``test_equal_masks_alone_caught``).  No graded poset with a unique
    minimum and maximum and at most 10 elements fails (b) alone, which
    stays as a cheap guard.
    """
    below = poset._below
    irreducibles = [i for i in poset._topo if len(below[i]) == 1]
    bit = {i: 1 << k for k, i in enumerate(irreducibles)}
    masks = [bit.get(i, 0) for i in range(len(poset.elements))]
    for i in poset._topo:
        for k in below[i]:
            masks[i] |= masks[k]
    index_of = {m: i for i, m in enumerate(masks)}
    if len(index_of) != len(masks):  # (a)
        return None
    for a, b in poset.covers:  # (b); mask(a) is inside mask(b)
        step = masks[poset._index[b]] ^ masks[poset._index[a]]
        if step & (step - 1):
            return None
    strict = [(bit[j], masks[j] ^ bit[j]) for j in irreducibles]
    extensions = 0
    for m in masks:
        for b, s in strict:
            if not m & b and not s & ~m:
                if m | b not in index_of:  # (c)
                    return None
                extensions += 1
    if extensions != len(set(poset.covers)):  # (d)
        return None
    return irreducibles, masks, index_of


def _pairwise_counterexample(poset: FinitePoset):
    """The first pair, in element order, without a join or a meet, or with a
    join-irreducible below its join but below neither factor; else None."""
    n = len(poset.elements)
    irr = sum(1 << i for i in range(n) if len(poset._below[i]) == 1)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = poset.elements[i], poset.elements[j]
            jk = poset.join_index(i, j)
            if jk is None:
                return Counterexample(
                    "join", (x, y), "pair has no least upper bound")
            if poset.meet_index(i, j) is None:
                return Counterexample(
                    "meet", (x, y), "pair has no greatest lower bound")
            stray = poset._down[jk] & irr & ~(poset._down[i] | poset._down[j])
            if stray:
                return Counterexample(
                    "distributive",
                    (poset.elements[stray.bit_length() - 1], x, y),
                    "join-irreducible below the join but below neither factor")
    return None


def require_certificate(result):
    """Pass a Certificate through; raise CertificationFailed on a Counterexample."""
    if not result.ok:
        raise CertificationFailed(f"{result.law}: {result.message} {result.witness!r}")
    return result


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

    def relabel(self, rename) -> "FiniteLattice":
        """The same lattice with each element x renamed rename(x), which must
        be injective; the certificate and the cover labels carry over."""
        new, cert = {x: rename(x) for x in self.elements}, self.certificate
        poset = FinitePoset(new.values(),
                            [(new[a], new[b]) for a, b in self.covers])
        cert = cert._replace(
            minimum=new[cert.minimum], maximum=new[cert.maximum],
            grade={new[x]: g for x, g in cert.grade.items()},
            elements=poset.elements,
            join_irreducibles=tuple(new[j] for j in cert.join_irreducibles))
        labels = None if self.labels is None else {
            (new[a], new[b]): e for (a, b), e in self.labels.items()}
        return FiniteLattice(poset, cert, labels)

    def __len__(self):
        return len(self.poset.elements)


def grown_lattice(root, upper, key) -> FiniteLattice:
    """The certified lattice of everything reached from root by cover steps.

    upper(x) yields (label, y) for each y covering x.  The grade is the
    number of steps from root; elements are ordered by (grade, key) and
    covers by the positions of their lower, then upper, ends in that order.

    Raises:
        CertificationFailed: the elements reached are not a graded
            distributive lattice.
    """
    grade, labels, first = {root: 0}, {}, {root: root}
    frontier = [root]
    for x in frontier:  # breadth first: the list grows while it is read
        for label, y in upper(x):
            y = first.setdefault(y, y)  # one object per element, not per cover
            labels[(x, y)] = label
            if y not in grade:
                grade[y] = grade[x] + 1
                frontier.append(y)
    elements = sorted(grade, key=lambda x: (grade[x], key(x)))
    position = {x: p for p, x in enumerate(elements)}
    covers = sorted(labels, key=lambda c: (position[c[0]], position[c[1]]))
    del first, position  # certification need not hold them
    poset = FinitePoset(elements, covers)
    outcome = certify_graded_distributive_lattice(poset, grade=grade)
    return FiniteLattice(poset, require_certificate(outcome), labels)

