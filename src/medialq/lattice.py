"""Finite posets and certification of graded distributive lattices.

A poset is given by its elements and Hasse covers.  Certification checks, in
order: the covers really are covers, there is a unique minimum and maximum,
every cover raises the grade by exactly one, every pair has a join and a
meet, and the join-irreducible primality criterion (equivalent to the
distributive law, and quadratic instead of cubic).  On failure a
Counterexample pinpoints the offending elements; on success a Certificate
records what was checked.

Instances larger than the exhaustive bound are spot-checked on seeded random
pairs and triples and the certificate is marked as sampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class CertificationFailed(RuntimeError):
    """Raised by callers that require a certificate but got a counterexample."""


class FinitePoset:
    """Explicit finite poset: hashable elements plus Hasse covers (low, high)."""

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        self.covers = tuple((a, b) for a, b in covers)
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        for a, b in self.covers:
            if a not in self._index or b not in self._index:
                raise ValueError(f"cover ({a!r}, {b!r}) uses unknown elements")
            if a == b:
                raise ValueError("cover relates an element to itself")
        self._down, self._up = self._closure()

    def _closure(self):
        n = len(self.elements)
        above = [[] for _ in range(n)]  # i -> indices covering i
        below = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in self.covers:
            ia, ib = self._index[a], self._index[b]
            above[ia].append(ib)
            below[ib].append(ia)
            indeg[ib] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        caught = list(order)
        for i in caught:
            for j in above[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    caught.append(j)
        if len(caught) != n:
            raise ValueError("cover relation has a directed cycle")
        down = [0] * n
        up = [0] * n
        for i in caught:
            down[i] |= 1 << i
            for j in below[i]:
                down[i] |= down[j]
        for i in reversed(caught):
            up[i] |= 1 << i
            for j in above[i]:
                up[i] |= up[j]
        self._topo = caught
        self._above = above
        self._below = below
        return down, up

    def leq(self, x, y) -> bool:
        return bool(self._down[self._index[y]] >> self._index[x] & 1)

    def lower_covers(self, x):
        return [self.elements[i] for i in self._below[self._index[x]]]

    def upper_covers(self, x):
        return [self.elements[i] for i in self._above[self._index[x]]]

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

    def hasse_dot(self, label=str) -> str:
        """Hasse diagram in DOT format, minimum at the bottom."""
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
        for i, x in enumerate(self.elements):
            lines.append(f'  n{i} [label="{label(x)}"];')
        for a, b in sorted(
                self.covers, key=lambda c: (self._index[c[0]], self._index[c[1]])):
            lines.append(f"  n{self._index[a]} -> n{self._index[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class Certificate:
    minimum: object
    maximum: object
    size: int
    grade_range: tuple
    grade: dict
    sampled: bool
    seed: int | None
    pairs_checked: int
    triples_checked: int
    join_table: dict | None = field(default=None, repr=False)
    meet_table: dict | None = field(default=None, repr=False)

    @property
    def ok(self):
        return True


@dataclass
class Counterexample:
    law: str
    witness: tuple
    message: str

    @property
    def ok(self):
        return False


def _derived_grade(poset: FinitePoset):
    """Longest chain length from a minimal element, per element."""
    g = {}
    for i in poset._topo:
        x = poset.elements[i]
        lows = poset._below[i]
        g[x] = 0 if not lows else 1 + max(g[poset.elements[j]] for j in lows)
    return g


def certify_graded_distributive_lattice(
        poset: FinitePoset, grade=None, bound=500, seed=0,
        sample_pairs=1000, sample_triples=1000):
    """Certificate that the poset is a graded distributive lattice, or a
    Counterexample naming the violated law and the elements involved.

    Checks the cover relation, unique minimum and maximum, unit grade steps,
    existence of all joins and meets, and that every join-irreducible element
    below a join is below one of the factors.  A failing pair (x, y) with a
    stray irreducible j yields the classic failing triple: j and (x or y)
    violate the distributive identity.  Above `bound` elements the pair and
    triple checks run on a seeded sample and the certificate says so.
    """
    n = len(poset.elements)
    if n == 0:
        return Counterexample("nonempty", (), "empty poset")

    # covers must be genuine covers: nothing strictly between the endpoints
    for a, b in poset.covers:
        ia, ib = poset._index[a], poset._index[b]
        between = poset._down[ib] & poset._up[ia]
        if between != (1 << ia) | (1 << ib):
            return Counterexample(
                "cover", (a, b), f"{a!r} -> {b!r} is not a cover relation")

    mins = poset.minimal_elements()
    maxs = poset.maximal_elements()
    if len(mins) != 1:
        return Counterexample("minimum", tuple(mins), "no unique minimum")
    if len(maxs) != 1:
        return Counterexample("maximum", tuple(maxs), "no unique maximum")

    if grade is None:
        grade = _derived_grade(poset)
    for a, b in poset.covers:
        if grade[b] - grade[a] != 1:
            return Counterexample(
                "graded", (a, b),
                f"cover {a!r} -> {b!r} changes grade by {grade[b] - grade[a]}")
    lo = min(grade[x] for x in poset.elements)
    hi = max(grade[x] for x in poset.elements)

    # join-irreducible = exactly one lower cover; mask over element indices
    irr = 0
    for i in range(n):
        if len(poset._below[i]) == 1:
            irr |= 1 << i

    exhaustive = n <= bound
    pairs_checked = triples_checked = 0
    join_table = {} if exhaustive else None
    meet_table = {} if exhaustive else None

    def check_pair(i, j):
        nonlocal pairs_checked, triples_checked
        pairs_checked += 1
        jk = poset.join_index(i, j)
        if jk is None:
            return Counterexample(
                "join", (poset.elements[i], poset.elements[j]),
                "pair has no least upper bound")
        mk = poset.meet_index(i, j)
        if mk is None:
            return Counterexample(
                "meet", (poset.elements[i], poset.elements[j]),
                "pair has no greatest lower bound")
        if join_table is not None:
            x, y = poset.elements[i], poset.elements[j]
            join_table[(x, y)] = join_table[(y, x)] = poset.elements[jk]
            meet_table[(x, y)] = meet_table[(y, x)] = poset.elements[mk]
        stray = (poset._down[jk] & irr) & ~(poset._down[i] | poset._down[j])
        if stray:
            triples_checked += 1
            b = stray.bit_length() - 1
            return Counterexample(
                "distributive",
                (poset.elements[b], poset.elements[i], poset.elements[j]),
                "join-irreducible below the join but below neither factor")
        return None

    if exhaustive:
        for i in range(n):
            for j in range(i + 1, n):
                bad = check_pair(i, j)
                if bad is not None:
                    return bad
        triples_checked = pairs_checked
    else:
        rng = random.Random(seed)
        for _ in range(sample_pairs):
            bad = check_pair(rng.randrange(n), rng.randrange(n))
            if bad is not None:
                return bad
        for _ in range(sample_triples):
            i, j, k = (rng.randrange(n) for _ in range(3))
            steps = []
            jk = poset.join_index(j, k)
            steps.append(("join", j, k, jk))
            mij = poset.meet_index(i, j)
            steps.append(("meet", i, j, mij))
            mik = poset.meet_index(i, k)
            steps.append(("meet", i, k, mik))
            for law, s, t, got in steps:
                if got is None:
                    return Counterexample(
                        law, (poset.elements[s], poset.elements[t]),
                        f"pair has no {'least upper' if law == 'join' else 'greatest lower'} bound")
            a1 = poset.meet_index(i, jk)
            if a1 is None:
                return Counterexample(
                    "meet", (poset.elements[i], poset.elements[jk]),
                    "pair has no greatest lower bound")
            a2 = poset.join_index(mij, mik)
            if a2 is None:
                return Counterexample(
                    "join", (poset.elements[mij], poset.elements[mik]),
                    "pair has no least upper bound")
            triples_checked += 1
            if a1 != a2:
                return Counterexample(
                    "distributive",
                    tuple(poset.elements[t] for t in (i, j, k)),
                    "x meet (y join z) differs from (x meet y) join (x meet z)")

    return Certificate(
        minimum=mins[0], maximum=maxs[0], size=n, grade_range=(lo, hi),
        grade=dict(grade), sampled=not exhaustive,
        seed=None if exhaustive else seed,
        pairs_checked=pairs_checked, triples_checked=triples_checked,
        join_table=join_table, meet_table=meet_table)


def require_certificate(result):
    """Pass a Certificate through; raise CertificationFailed on a Counterexample."""
    if not result.ok:
        raise CertificationFailed(f"{result.law}: {result.message} {result.witness!r}")
    return result


@dataclass
class FiniteLattice:
    """A certified graded distributive lattice with its evidence.

    `labels` optionally tags each cover (x, y) with the datum that produced
    it (for move lattices, the edge of the map that was moved).
    """

    poset: FinitePoset
    certificate: Certificate
    labels: dict | None = None

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
        return self.poset.leq(x, y)

    def join(self, x, y):
        return self.poset.join(x, y)

    def meet(self, x, y):
        return self.poset.meet(x, y)

    def __len__(self):
        return len(self.poset.elements)


def certified_lattice(elements, covers, grade=None, labels=None,
                      bound=500, seed=0) -> FiniteLattice:
    """Build a poset and certify it, raising CertificationFailed otherwise."""
    poset = FinitePoset(elements, covers)
    outcome = certify_graded_distributive_lattice(
        poset, grade=grade, bound=bound, seed=seed)
    return FiniteLattice(poset, require_certificate(outcome), labels)


def verify_order_isomorphism(p: FinitePoset, q: FinitePoset, mapping) -> bool:
    """True iff mapping is a bijection p -> q preserving order both ways."""
    if set(mapping.keys()) != set(p.elements):
        return False
    image = list(mapping.values())
    if len(set(image)) != len(image) or set(image) != set(q.elements):
        return False
    return all(
        p.leq(x, y) == q.leq(mapping[x], mapping[y])
        for x in p.elements for y in p.elements)
