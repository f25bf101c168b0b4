"""Quiver representations attached to move-counting states.

A state (f_plus, f_minus, d) turns into a representation of the medial
quiver: the space at edge e is Q^{d(e)}, and an arrow acts by the 0/1
matrix with an identity block in the upper right — f_minus columns of
zeros on the left, f_plus rows of zeros at the bottom.  The angle relation
makes the block sizes consistent, and every such module satisfies the
cyclic-derivative relations of the canonical potential built from the
weight.

Everything here runs over exact rationals: residuals are checked to be
literally zero, ranks and kernels are exact, and decidable claims
(nilpotency, indecomposability, the shape of the subrepresentation
lattice) are verified by two independent routes wherever the theory
provides them.
"""

from __future__ import annotations

from functools import cached_property
from math import inf, lcm
from typing import TYPE_CHECKING

from .lattice import CertificationFailed, FiniteLattice
from .linalg import Matrix, ShapeMismatch, hstack_all
from .planar import MedialQuiver, PlanarMap, Record, connected_components
from .states import AngleFrame, Decoration, check_cycle, is_characteristic

if TYPE_CHECKING:  # states reach this module only as arguments
    from .bms import BMSState


class EmptySupport(ValueError):
    """The weight vanishes everywhere, so no canonical potential exists."""


class NotCharacteristicWeight(ValueError):
    """An operation needing weight values in {0, 1} got something else."""


class CandidateSpaceTooLarge(ValueError):
    """Subrepresentation search refused: its premise, a Jordan block at every
    supported vertex, which makes its prefix families complete, failed."""


class QuiverRep:
    """A finite-dimensional representation of a quiver, matrices and all.

    `arrows` maps arrow id -> (source vertex, target vertex) and `mats`
    assigns each arrow a dims(target) x dims(source) matrix.  `cycles` is
    an optional tuple of composable arrow cycles distinguished by the
    underlying map (vertex and face cycles); the subrepresentation search
    uses them to certify its completeness premise.
    """

    __slots__ = ("vertices", "arrows", "dims", "mats", "cycles")

    def __init__(self, vertices, arrows, dims, mats, cycles=()):
        self.vertices = tuple(sorted(vertices))
        self.arrows = dict(arrows)
        self.dims = {e: int(dims.get(e, 0)) for e in self.vertices}
        self.mats = dict(mats)
        self.cycles = tuple(tuple(c) for c in cycles)
        if any(v < 0 for v in self.dims.values()):
            raise ValueError("negative dimension")
        if sorted(self.mats) != sorted(self.arrows):
            raise ValueError("arrows and matrices do not match up")
        for a, (s, t) in self.arrows.items():
            m = self.mats[a]
            if m.rows != self.dims[t] or m.cols != self.dims[s]:
                raise ShapeMismatch(
                    f"matrix of {a} is {m.rows}x{m.cols}, expected "
                    f"{self.dims[t]}x{self.dims[s]}")

    def dim(self, e):
        return self.dims[e]

    def source(self, arrow):
        return self.arrows[arrow][0]

    def target(self, arrow):
        return self.arrows[arrow][1]

    def incoming(self, e):
        return sorted(a for a, (_, t) in self.arrows.items() if t == e)

    def support(self):
        return frozenset(e for e in self.vertices if self.dims[e] > 0)

    def with_entry(self, arrow, i, j, value):
        """A copy with one matrix entry replaced — the mutation-testing hook."""
        mats = dict(self.mats)
        mats[arrow] = mats[arrow].with_entry(i, j, value)
        return QuiverRep(self.vertices, self.arrows, self.dims, mats,
                         self.cycles)

    def __repr__(self):
        ds = ",".join(f"{e}:{v}" for e, v in sorted(self.dims.items()) if v)
        return f"QuiverRep(dims={{{ds}}}, arrows={len(self.arrows)})"


def plus_minus_matrix(c, k, rows, cols) -> Matrix:
    """The matrix of (+)^c (-)^k as a map Q^cols -> Q^rows.

    Identity block of size r = cols - k in the upper-right corner, after k
    zero columns, above c zero rows.  When k > cols or c > rows the map is
    zero by convention; when both exponents fit but cols - k != rows - c no
    such composite exists and the shapes are rejected.
    """
    if min(c, k, rows, cols) < 0:
        raise ValueError("negative argument")
    if k > cols or c > rows:
        return Matrix.zeros(rows, cols)
    r = cols - k
    if rows - c != r:
        raise ShapeMismatch(
            f"(+)^{c}(-)^{k} cannot have shape {rows}x{cols}")
    out = [[0] * cols for _ in range(rows)]
    for i in range(r):
        out[i][k + i] = 1
    return Matrix(rows, cols, out)


def state_module(pmap: PlanarMap, xi: BMSState) -> QuiverRep:
    """The representation with Q^{d(e)} at edge e and (+)^{f_plus}(-)^{f_minus}
    on each arrow.

    The angle relation guarantees the identity-block shapes are consistent,
    so construction never fails on a valid state.
    """
    quiver = pmap.quiver
    dims = dict(xi.d)
    mats = {}
    for a, (s, t) in quiver.arrows.items():
        mats[a] = plus_minus_matrix(
            xi.f_plus[a], xi.f_minus[a], dims[t], dims[s])
    cycles = tuple(quiver.vertex_cycles[v] for v in sorted(quiver.vertex_cycles))
    cycles += tuple(quiver.face_cycles[f] for f in sorted(quiver.face_cycles))
    return QuiverRep(quiver.vertices, quiver.arrows, dims, mats, cycles)


class Potential:
    """A rational combination of directed cycles, each with a chosen base
    point; all rotations of a cycle give the same cyclic derivatives.

    Compared, hashed and shown by its terms.  The cyclic derivatives, and
    the terms compiled for each quiver (``shifts``), are computed once and
    kept.
    """

    def __init__(self, terms):
        self.terms = terms
        self._shifts = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Potential(terms={self.terms!r})"

    def __add__(self, other):
        return Potential(self.terms + other.terms)

    @cached_property
    def derivatives(self) -> dict:
        """arrow -> its cyclic derivative (see ``cyclic_derivative``), for
        every arrow that occurs in some term, in one pass over the terms."""
        out = {}
        for coeff, path in self.terms:
            for i, a in enumerate(path):
                out.setdefault(a, []).append((coeff, path[i + 1:] + path[:i]))
        return out

    def shifts(self, quiver: MedialQuiver):
        """The terms compiled for ``state_jacobian`` on `quiver`, kept per
        quiver: (frame of the quiver's arrows, source of each arrow in frame
        order, terms).  A term is (coefficient, arrow positions in the
        frame, shifts seen so far); every coefficient is scaled by one
        positive integer that clears the denominators, so sums of them
        cancel exactly when the rational ones do, and terms with
        coefficient zero are left out.  The last entry is filled by
        ``state_jacobian``: what the term adds to the residuals, for each
        tuple of arrow shifts met so far.

        Raises:
            NotACycle: a term is not a directed cycle of the quiver.
        """
        program = self._shifts.get(quiver)
        if program is not None:
            return program
        from fractions import Fraction
        frame = AngleFrame.of(quiver.arrow_ids)
        scale = lcm(*(Fraction(c).denominator for c, _ in self.terms))
        terms = []
        for coeff, path in self.terms:
            check_cycle(quiver, path)
            if coeff:
                terms.append((int(Fraction(coeff) * scale),
                              tuple(frame.position[a] for a in path), {}))
        sources = tuple(quiver.source(a) for a in frame.names)
        program = self._shifts[quiver] = (frame, sources, tuple(terms))
        return program


def make_potential(quiver: MedialQuiver, terms) -> Potential:
    """Validated potential: every path must be a directed cycle in the quiver.

    Raises:
        NotACycle.
    """
    from fractions import Fraction
    out = []
    for coeff, path in terms:
        path = tuple(path)
        check_cycle(quiver, path)
        out.append((Fraction(coeff), path))
    return Potential(tuple(out))


def canonical_potential(pmap: PlanarMap, omega) -> Potential:
    """Sum over the support of (1/p) vertex-cycle^p minus (1/p) face-cycle^p,
    where p(x) = xi/omega(x) and xi is the lcm of the weights on the support.

    Raises:
        EmptySupport: the weight is identically zero.
        ValueError: the weight is invalid (see ``Decoration.of``).
    """
    from fractions import Fraction
    quiver = Decoration.of(pmap, omega).quiver
    cells = sorted(pmap.vertices) + sorted(pmap.faces)
    supported = [x for x in cells if omega[x] > 0]
    if not supported:
        raise EmptySupport("weight has empty support")
    xi = lcm(*(omega[x] for x in supported))
    terms = []
    for x in supported:
        p = xi // omega[x]
        if x in pmap.vertices:
            terms.append((Fraction(1, p), quiver.vertex_cycles[x] * p))
        else:
            terms.append((Fraction(-1, p), quiver.face_cycles[x] * p))
    return Potential(tuple(terms))


def cyclic_derivative(s: Potential, arrow):
    """For each occurrence of `arrow` in each cycle, the rotated remainder
    path (starting just after the occurrence) with the term's coefficient."""
    return list(s.derivatives.get(arrow, ()))


def evaluate_path(m: QuiverRep, path, at=None) -> Matrix:
    """The composite matrix of a path, first arrow applied first.

    An empty path needs an explicit vertex `at` and gives the identity
    there.

    Raises:
        ShapeMismatch: consecutive arrows do not compose.
    """
    path = tuple(path)
    if not path:
        if at is None:
            raise ValueError("empty path needs a base vertex")
        return Matrix.identity(m.dims[at])
    for arr in path:
        if arr not in m.arrows:
            raise ValueError(f"unknown arrow {arr}")
    acc = m.mats[path[0]]
    prev = m.target(path[0])
    for arr in path[1:]:
        s, t = m.arrows[arr]
        if s != prev:
            raise ShapeMismatch(f"path does not compose at {arr}")
        acc = m.mats[arr] @ acc
        prev = t
    return acc


class JacobianReport(Record):
    """Cyclic-derivative residuals of a representation against a potential."""

    __slots__ = ("arrows_checked", "nonzero")

    @property
    def ok(self):
        return not self.nonzero


def _residual(m: QuiverRep, s: Potential, arrow) -> Matrix:
    """The cyclic derivative of `s` along `arrow`, evaluated on `m`: a sum
    of paths from target(arrow) back to source(arrow), so a
    dims(source) x dims(target) matrix."""
    src, tgt = m.arrows[arrow]
    residual = Matrix.zeros(m.dims[src], m.dims[tgt])
    for coeff, path in s.derivatives.get(arrow, ()):
        residual = residual + evaluate_path(m, path, at=tgt).scale(coeff)
    return residual


def check_jacobian(m: QuiverRep, s: Potential) -> JacobianReport:
    """Evaluate every cyclic derivative of `s` on `m`; all must vanish.

    This is the dense check, for any representation; a state module is
    checked without its matrices by ``state_jacobian``.
    """
    bad = []
    for arrow in sorted(m.arrows):
        residual = _residual(m, s, arrow)
        if not residual.is_zero:
            bad.append((arrow, residual))
    return JacobianReport(len(m.arrows), tuple(bad))


def _term_shifts(c, path, windows):
    """What the rotations of one term add to the residuals (see
    ``state_jacobian``): ((arrow position, offset, end), c) for each
    rotation that acts as a nonzero partial shift, where windows[j] is the
    shift (k, d) of path[j], or None where that arrow acts by zero."""
    k, d = zip(*(w or (0, 0) for w in windows))
    # The empty composite is left unbounded: a cycle of a medial quiver has
    # two arrows or more, so every rotation has an arrow to bound it.
    o, end = 0, inf
    prefixes = [(o, end)]  # prefixes[j]: the composite of path[:j]
    for kj, dj in zip(k[:-1], d[:-1]):
        o, end = o + kj, min(end, o + dj)
        prefixes.append((o, end))
    out = []
    o, end = 0, inf  # the composite of path[j + 1:]
    for j in reversed(range(len(path))):
        po, pend = prefixes[j]
        stop = min(end, o + pend)
        if o + po < stop:
            out.append(((path[j], o + po, stop), c))
        o, end = o + k[j], min(d[j], k[j] + end)
    return tuple(out)


def state_jacobian(pmap: PlanarMap, xi: BMSState,
                   s: Potential) -> JacobianReport:
    """``check_jacobian(state_module(pmap, xi), s)``, decided from the
    exponents and dimensions of xi, with no matrices.

    Lemma.  Write (o, h) for the partial shift e_j -> e_{j-o} on the
    window o <= j < h, zero elsewhere.  Arrow a: u -> v acts as
    (+)^c(-)^k with k = f_minus(a), which is the partial shift (k, d(u));
    it is zero when k >= d(u), which by the angle relation is when
    c = f_plus(a) >= d(v).  (o, h) followed by (o', h') is
    (o + o', min(h, o + h')), again a partial shift whose window starts at
    its offset.  So a path acts as one partial shift, found in O(1) per
    arrow, and each rotation of a term, a suffix of the term followed by a
    prefix, comes from its prefix and suffix composites: O(length) per
    term.  A residual is a signed sum of partial shifts, and its entry
    (j - o, j) is the sum of the coefficients of the shifts (o, h) with
    h > j.  So it vanishes exactly when, for every offset o and end h, the
    coefficients of the shifts (o, h) sum to zero: at the largest h where
    they do not, entry (h - 1 - o, h - 1) is that sum.

    What a term adds depends only on the shifts of its arrows, so it is
    worked out once per tuple of shifts and kept with the term (see
    ``Potential.shifts``).  Only for an arrow whose residual is nonzero is
    the module built and that residual evaluated densely, so the report,
    matrices included, is the dense one.

    Raises:
        NotACycle: a term of the potential is not a directed cycle of the
            quiver.
    """
    frame, sources, terms = s.shifts(pmap.quiver)
    f_minus = xi.f_minus
    k = (f_minus.vector if f_minus.frame is frame
         else [f_minus[a] for a in frame.names])
    dims = dict(xi.d)
    windows = [(ki, di) if ki < di else None
               for ki, di in zip(k, (dims.get(e, 0) for e in sources))]
    sums = {}  # (arrow position, offset, end) -> sum of the coefficients
    get = sums.get
    for c, path, seen in terms:
        local = tuple(map(windows.__getitem__, path))
        added = seen.get(local)
        if added is None:
            added = seen[local] = _term_shifts(c, path, local)
        for key, coeff in added:
            sums[key] = get(key, 0) + coeff
    bad = sorted({i for (i, _, _), total in sums.items() if total})
    if not bad:
        return JacobianReport(len(frame.names), ())
    m = state_module(pmap, xi)
    return JacobianReport(len(frame.names), tuple(
        (frame.names[i], _residual(m, s, frame.names[i])) for i in bad))


def is_nilpotent(m: QuiverRep) -> bool:
    """Do all long paths act by zero?

    Tracks, per vertex, the span of images of all length-k paths; the spans
    only shrink, so the chain stabilizes, and nilpotency means it hits zero.
    Working with subspaces (not sums of matrices) keeps the test exact:
    spans cannot cancel each other the way signed sums can.  A span can
    change in a round only if a span at the source of an arrow into it
    changed in the round before, so only those are recomputed; and as spans
    only shrink, a span that keeps its dimension is unchanged.
    """
    into = {e: [] for e in m.vertices}
    for a in sorted(m.arrows):
        s, t = m.arrows[a]
        into[t].append((m.mats[a], s))
    spans = {e: Matrix.identity(m.dims[e]) for e in m.vertices}
    todo = set(m.vertices)
    while todo:
        new = {}
        for e in todo:
            span = hstack_all([mat @ spans[s] for mat, s in into[e]],
                              m.dims[e]).column_basis()
            if span.cols != spans[e].cols:
                new[e] = span
        spans.update(new)
        todo = {t for s, t in m.arrows.values() if s in new}
    return not any(sp.cols for sp in spans.values())


class EndRing(Record):
    """Basis of the endomorphism algebra plus a locality verdict.

    `basis` holds tuples of per-vertex matrices spanning all solutions of
    F_target . M_arrow = M_arrow . F_source.  Locality is decided by the
    rank of the trace form on the basis: in characteristic zero its radical
    is the radical of the algebra, so the semisimple quotient has dimension
    `gram_rank`, and the ring is local exactly when that is 1.
    """

    __slots__ = ("basis", "dimension", "gram_rank", "is_local")


def endomorphism_ring(m: QuiverRep) -> EndRing:
    verts = m.vertices
    offset = {}
    nvars = 0
    for e in verts:
        offset[e] = nvars
        nvars += m.dims[e] ** 2

    def var(e, i, j):
        return offset[e] + i * m.dims[e] + j

    rows = []
    for arrow in sorted(m.arrows):
        s, t = m.arrows[arrow]
        mat = m.mats[arrow]
        for i in range(m.dims[t]):
            for j in range(m.dims[s]):
                row = [0] * nvars
                for k in range(m.dims[t]):
                    row[var(t, i, k)] += mat.data[k][j]
                for l in range(m.dims[s]):
                    row[var(s, l, j)] -= mat.data[i][l]
                if any(x != 0 for x in row):
                    rows.append(row)
    system = Matrix(len(rows), nvars, rows)
    basis = []
    for vec in system.nullspace():
        endo = {}
        for e in verts:
            d = m.dims[e]
            endo[e] = Matrix(d, d, [
                vec[offset[e] + i * d:offset[e] + (i + 1) * d]
                for i in range(d)])
        basis.append(endo)
    dim = len(basis)

    def pairing(fi, fj):
        total = 0
        for e in verts:
            prod = fi[e] @ fj[e]
            total += sum(prod.data[r][r] for r in range(m.dims[e]))
        return total

    gram = Matrix(dim, dim,
                  [[pairing(fi, fj) for fj in basis] for fi in basis])
    rank = gram.rank()
    return EndRing(tuple(basis), dim, rank, dim > 0 and rank == 1)


def support_is_connected(m: QuiverRep) -> bool:
    """Connectivity of the subquiver induced on vertices of positive
    dimension; an empty support does not count as connected."""
    supp = m.support()
    links = [(s, t) for s, t in m.arrows.values() if s in supp and t in supp]
    return len(connected_components(sorted(supp), links)) == 1


def is_indecomposable(m: QuiverRep, omega) -> bool:
    """Two independent verdicts — support connectivity and End-ring
    locality — which must agree.

    The support criterion is only licensed for characteristic weights, so
    anything else raises NotCharacteristicWeight (with the locality verdict
    attached as `.is_local` for callers that still want it).  The zero
    module has empty support and a trivial End ring: decomposable by
    convention on both counts.

    Raises:
        NotCharacteristicWeight.
        CertificationFailed: the two methods disagree.
    """
    ring = endomorphism_ring(m)
    if not is_characteristic(omega):
        err = NotCharacteristicWeight(
            "support-connectivity criterion needs weight values in {0, 1}")
        err.is_local = ring.is_local
        raise err
    by_support = support_is_connected(m)
    if by_support != ring.is_local:
        raise CertificationFailed(
            f"support connectivity says {by_support} but End-ring locality "
            f"says {ring.is_local}")
    return by_support


def simple_quotients(m: QuiverRep) -> frozenset:
    """Vertices admitting a nonzero map onto the one-dimensional simple:
    those where the incoming images do not fill the whole space."""
    out = set()
    for e in m.vertices:
        d = m.dims[e]
        if d == 0:
            continue
        stacked = hstack_all([m.mats[a] for a in m.incoming(e)], d)
        if stacked.rank() < d:
            out.add(e)
    return frozenset(out)


def _require_subrep_premises(m: QuiverRep, omega):
    """Raise unless the prefix families of m are provably all of its
    subrepresentations: some distinguished cycle acts as the exact nilpotent
    Jordan block at each supported vertex (``verify_subrep_isomorphism``)."""
    if not is_characteristic(omega):
        raise NotCharacteristicWeight(
            "subrepresentation enumeration needs weight values in {0, 1}")
    for e in sorted(m.support()):
        jordan = plus_minus_matrix(1, 1, m.dims[e], m.dims[e])
        if not any(evaluate_path(m, cyc[i:] + cyc[:i], at=e) == jordan
                   for cyc in m.cycles for i, a in enumerate(cyc)
                   if m.source(a) == e):
            raise CandidateSpaceTooLarge(
                f"no distinguished cycle acts as the Jordan block at {e}; "
                "prefix enumeration would not be provably complete")


def _prefix_closed(m, k, arrow):
    """Does the arrow matrix map the source prefix into the target prefix?"""
    s, t = m.arrows[arrow]
    mat = m.mats[arrow]
    return all(mat.data[i][j] == 0
               for j in range(k[s]) for i in range(k[t], m.dims[t]))


def _least_points(m: QuiverRep):
    """The least points of S, the prefix families closed under every arrow:
    for each vertex e and 1 <= j <= d_e, the least p(e, j) in S with
    k_e >= j, as its (vertex, k_e) pairs.  It grows from k_e = j: while an
    arrow s -> t breaks k, k_t rises by one, and the arrows out of t are
    checked again.  Every family in S above k needs each rise, and the
    whole module is in S, so k stays within it."""
    out = {e: [a for a in sorted(m.arrows) if m.source(a) == e]
           for e in m.vertices}
    for e in m.vertices:
        for j in range(1, m.dims[e] + 1):
            k = {**dict.fromkeys(m.vertices, 0), e: j}  # fresh per (e, j)
            todo = {e}
            while todo:
                for a in out[todo.pop()]:
                    t = m.target(a)
                    while not _prefix_closed(m, k, a):
                        k[t] += 1
                        todo.add(t)
            yield tuple(k.items())


def verify_subrep_isomorphism(below: FiniteLattice, module: QuiverRep,
                              omega) -> bool:
    """Is x -> x.d an order isomorphism from below, the plus-subobjects of
    a state xi (of a component maximum: its component lattice), onto the
    subrepresentations S of module, built from xi?  Grades then match, both
    being the sum of d.  Least points decide it; neither lattice is grown.
    When it holds, below shown by x.d is the lattice S, which is how the
    ``subreps`` report prints S.

    Premises (``_require_subrep_premises``).  At every supported vertex a
    distinguished cycle acts as the full Jordan block, whose invariant
    subspaces are exactly the coordinate prefixes; so every U in S is a
    prefix family, named by its prefix lengths k, the tuple of (vertex,
    k_e) pairs in vertex order: the format of ``BMSState.d``.  As sums and
    intersections of subrepresentations are ones, S is closed under
    pointwise max and min.  No more is needed: the lemma below uses only
    that closure, so the module need not be nilpotent (the oracles in the
    tests, which grow S from 0 by unit steps, need that and check it).

    Contract: x -> x.d is one to one and carries below's join and meet to
    pointwise max and min; the walk behind ``bms_plus_lattice`` and
    ``plus_subobjects`` certifies so for every lattice it returns, so for
    every caller.

    Lemma: it is, exactly when the minimum of below has d = 0 and the d of
    its join-irreducibles are the least points of S (``_least_points``).
    In a family F of vectors closed under max and min and holding 0, x is
    the max of the least points p(e, j) of F with j <= x_e.  So F's
    join-irreducibles are among its least points, and each p(e, j) is one:
    max(a, b) = p(e, j) puts a or b at j or more at e.  So F is the maxima
    of sets of its least points, and equals another such family exactly
    when their least points agree (Birkhoff, "Rings of sets", 1937).  By
    the contract the image of d is such a family, with the d of below's
    join-irreducibles as least points, and d preserves order both ways.

    Raises:
        NotCharacteristicWeight, CandidateSpaceTooLarge: a premise fails.
    """
    _require_subrep_premises(module, omega)
    return (below.minimum.d == tuple((e, 0) for e in module.vertices)
            and {j.d for j in below.certificate.join_irreducibles}
            == set(_least_points(module)))
