"""Sphere-embedded planar multigraphs as combinatorial maps.

A map is encoded by its darts (half-edges), a fixed-point-free involution
``theta`` pairing the two darts of each edge, and a permutation ``sigma``
whose cycles list the darts clockwise around each vertex.  Faces are derived
by face tracing, angles sit between consecutive darts at a vertex, and the
directed medial quiver has the edges of the map as vertices and its angles
as arrows.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter


class MapFormatError(ValueError):
    """Raised when the textual rotation-system input cannot be parsed."""


class MalformedInvolution(ValueError):
    """Edge pairing is not a fixed-point-free involution on the dart set."""


class LoopEdge(ValueError):
    """An edge has both of its darts at the same vertex."""


class DegreeTooSmall(ValueError):
    """A vertex has fewer than two darts."""


class NotSpherical(ValueError):
    """Euler count V - E + F != 2 on some connected component."""


class Record:
    """Immutable record over the fields named in ``__slots__``, given to the
    constructor in that order or by name; compared, hashed and shown field
    by field, as a frozen dataclass is, without the cost of importing
    ``dataclasses``."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name gives no tuple
            cls._fields = lambda self: (get(self),)
        else:
            cls._fields = lambda self: get(self)

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:
            values += tuple(named.pop(n) for n in names[len(values):]
                            if n in named)
        if named or len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        fields = dict(zip(self.__slots__, self._fields()), **changes)
        return type(self)(**fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"


class Angle(Record):
    """One angle of a planar map, keyed by its first dart.

    The angle sits at ``vertex`` between ``dart`` and its clockwise successor,
    inside ``face``.  As an arrow of the medial quiver it points from
    ``source_edge`` (the edge of ``dart``) to ``target_edge`` (the edge of the
    successor dart).
    """

    __slots__ = ("dart", "vertex", "face", "source_edge", "target_edge")


class PlanarMap:
    """Immutable combinatorial map with derived faces and angles.

    Attributes:
        darts: sorted tuple of dart identifiers.
        theta: edge involution (dart -> opposite dart).
        sigma: clockwise vertex rotation (dart -> next dart at same vertex).
        vertices: vertex id -> tuple of darts in clockwise rotation order.
        edges: edge id -> pair of darts.
        faces: face id -> tuple of darts in face-tracing order.
        cells: vertex ids then face ids, the cells a weight is defined on.
        vertex_of / edge_of / face_of: dart -> incident cell id.
        component_count: number of connected components.
        decorations: weight values on ``cells`` -> ``states.Decoration``,
            filled by ``Decoration.of`` so the map's lifetime bounds it.
    """

    def __init__(self, rotations, pairing):
        darts = [d for cycle in rotations for d in cycle]
        if len(set(darts)) != len(darts):
            raise MalformedInvolution("a dart appears in more than one rotation slot")
        dart_set = set(darts)

        theta = {}
        for pair in pairing:
            if len(pair) != 2:
                raise MalformedInvolution("edge pairing entries must be dart pairs")
            a, b = pair
            if a == b:
                raise MalformedInvolution(f"involution fixes dart {a!r}")
            if a not in dart_set or b not in dart_set:
                raise MalformedInvolution(f"pairing mentions unknown dart in ({a!r}, {b!r})")
            if a in theta or b in theta:
                raise MalformedInvolution(f"dart appears in two edge pairs: ({a!r}, {b!r})")
            theta[a] = b
            theta[b] = a
        if set(theta) != dart_set:
            missing = sorted(dart_set - set(theta))
            raise MalformedInvolution(f"darts not covered by the edge pairing: {missing}")

        sigma = {}
        vertex_of = {}
        vertices = {}
        for i, cycle in enumerate(rotations):
            if len(cycle) < 2:
                raise DegreeTooSmall(f"vertex v{i} has degree {len(cycle)} < 2")
            vid = f"v{i}"
            vertices[vid] = tuple(cycle)
            for j, d in enumerate(cycle):
                sigma[d] = cycle[(j + 1) % len(cycle)]
                vertex_of[d] = vid

        edges = {}
        edge_of = {}
        for i, (a, b) in enumerate(pairing):
            if vertex_of[a] == vertex_of[b]:
                raise LoopEdge(f"edge e{i} = ({a!r}, {b!r}) is a loop at {vertex_of[a]}")
            eid = f"e{i}"
            edges[eid] = (a, b)
            edge_of[a] = eid
            edge_of[b] = eid

        # Face tracing: the successor of d along its face is sigma(theta(d)).
        faces = {}
        face_of = {}
        seen = set()
        traced = []
        for start in sorted(dart_set):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            d = sigma[theta[start]]
            while d != start:
                cycle.append(d)
                seen.add(d)
                d = sigma[theta[d]]
            traced.append(tuple(cycle))
        for i, cycle in enumerate(sorted(traced, key=lambda c: c[0])):
            fid = f"f{i}"
            faces[fid] = cycle
            for d in cycle:
                face_of[d] = fid

        self.darts = tuple(sorted(dart_set))
        self.theta = theta
        self.sigma = sigma
        self.sigma_inv = {v: k for k, v in sigma.items()}
        self.vertices = vertices
        self.edges = edges
        self.faces = faces
        self.cells = tuple(vertices) + tuple(faces)
        self.decorations = {}
        self.vertex_of = vertex_of
        self.edge_of = edge_of
        self.face_of = face_of

        self._check_euler()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _check_euler(self):
        """Require V - E + F = 2 on every connected component, naming a
        failing component by its smallest dart, and keep the component
        count for ``is_connected``."""
        comps = connected_components(
            self.darts, [(d, n) for d in self.darts
                         for n in (self.theta[d], self.sigma[d])])
        self.component_count = len(comps)
        for comp in comps:
            nv = len({self.vertex_of[d] for d in comp})
            ne = len(comp) // 2
            nf = len({self.face_of[d] for d in comp})
            if nv - ne + nf != 2:
                raise NotSpherical(
                    f"component of dart {comp[0]!r} has V-E+F = {nv}-{ne}+{nf} = {nv - ne + nf}, expected 2")

    # ------------------------------------------------------------------
    # derived data
    # ------------------------------------------------------------------

    @cached_property
    def quiver(self) -> MedialQuiver:
        """The directed medial quiver, built once per map."""
        return medial_quiver(self)

    def degree(self, vid):
        return len(self.vertices[vid])

    def is_connected(self):
        return self.component_count <= 1

    def edge_faces(self, eid):
        a, b = self.edges[eid]
        return (self.face_of[self.sigma[a]], self.face_of[self.sigma[b]])

    def canonical_form(self):
        """Renaming-invariant canonical encoding, used for round-trip checks."""
        order = {d: i for i, d in enumerate(self.darts)}
        rot = sorted(
            tuple(order[d] for d in _rotate_min(cycle, order))
            for cycle in self.vertices.values())
        pairs = sorted(tuple(sorted((order[a], order[b]))) for a, b in self.edges.values())
        return (tuple(rot), tuple(pairs))


def connected_components(nodes, links):
    """Components of the undirected graph (nodes, links), each sorted, in
    the order of their first node."""
    adj = {x: [] for x in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), []
    for x in adj:
        if x in seen:
            continue
        seen.add(x)
        comp = [x]
        for y in comp:  # grows while it is scanned: a breadth-first sweep
            for z in adj[y]:
                if z not in seen:
                    seen.add(z)
                    comp.append(z)
        comps.append(sorted(comp))
    return comps


def _rotate_min(cycle, order):
    """Rotate a cyclic tuple so that its smallest element comes first."""
    k = min(range(len(cycle)), key=lambda i: order[cycle[i]])
    return cycle[k:] + cycle[:k]


def build_planar_map(rotation_data, edge_pairing) -> PlanarMap:
    """Validate and build a planar map from per-vertex clockwise dart lists.

    Args:
        rotation_data: list of dart lists, one per vertex, clockwise.
        edge_pairing: list of 2-element dart lists pairing opposite darts.

    Returns:
        A validated ``PlanarMap`` with derived faces.

    Raises:
        MalformedInvolution, LoopEdge, DegreeTooSmall, NotSpherical.
    """
    rotations = [[str(d) for d in cycle] for cycle in rotation_data]
    pairing = [[str(d) for d in pair] for pair in edge_pairing]
    return PlanarMap(rotations, pairing)


def angles_of(pmap: PlanarMap) -> list[Angle]:
    """All angles of the map, one per dart, in canonical dart order.

    The angle keyed by dart ``d`` lies at ``vertex_of[d]`` between ``d`` and
    ``sigma[d]``; its face is the face traversing ``sigma[d]`` (equivalently
    ``theta[d]``), its source edge is the edge of ``d`` and its target edge the
    edge of ``sigma[d]``.
    """
    out = []
    for d in pmap.darts:
        s = pmap.sigma[d]
        out.append(Angle(d, pmap.vertex_of[d], pmap.face_of[s],
                         pmap.edge_of[d], pmap.edge_of[s]))
    return out


class MedialQuiver:
    """Directed medial quiver of a planar map.

    Vertices are edge ids of the map; arrows are angles, keyed by their dart.
    ``vertex_cycles[v]`` and ``face_cycles[f]`` are the distinguished cyclic
    arrow sequences bounding the quiver face that corresponds to the vertex
    ``v`` (clockwise) or face ``f`` (counterclockwise) of the map.
    """

    def __init__(self, pmap: PlanarMap):
        self.pmap = pmap
        self.angles = {a.dart: a for a in angles_of(pmap)}
        self.vertices = tuple(sorted(pmap.edges))
        self.arrows = {a: (ang.source_edge, ang.target_edge)
                       for a, ang in self.angles.items()}
        self.arrow_ids = tuple(sorted(self.arrows))

        order = {d: i for i, d in enumerate(pmap.darts)}
        self.vertex_cycles = {}
        for vid, cycle in pmap.vertices.items():
            self.vertex_cycles[vid] = tuple(_rotate_min(cycle, order))
        self.face_cycles = {}
        for fid, cycle in pmap.faces.items():
            arrows = tuple(pmap.theta[d] for d in cycle)
            self.face_cycles[fid] = tuple(_rotate_min(arrows, order))

        # Outgoing arrows of a quiver vertex e are the angles keyed by the two
        # darts of e; incoming arrows are keyed by their sigma-predecessors.
        self.outgoing = {}
        self.incoming = {}
        for eid, (a, b) in pmap.edges.items():
            self.outgoing[eid] = tuple(sorted((a, b)))
            self.incoming[eid] = tuple(sorted((pmap.sigma_inv[a], pmap.sigma_inv[b])))

        self._self_check()

    def _self_check(self):
        """Assert the structural invariants instead of trusting conventions."""
        out_deg = {v: 0 for v in self.vertices}
        in_deg = {v: 0 for v in self.vertices}
        for s, t in self.arrows.values():
            if s == t:
                raise AssertionError("medial quiver has a loop")
            out_deg[s] += 1
            in_deg[t] += 1
        if any(out_deg[v] != 2 or in_deg[v] != 2 for v in self.vertices):
            raise AssertionError("medial quiver vertex not of in/out degree 2")

        for cycles in (self.vertex_cycles, self.face_cycles):
            used = []
            for cyc in cycles.values():
                used.extend(cyc)
                for i, a in enumerate(cyc):
                    nxt = cyc[(i + 1) % len(cyc)]
                    if self.arrows[a][1] != self.arrows[nxt][0]:
                        raise AssertionError("distinguished cycle does not compose")
            if sorted(used) != list(self.arrow_ids):
                raise AssertionError("distinguished cycles do not partition the arrows")

    @cached_property
    def steps(self) -> tuple:
        """The step table: per edge e, in ``vertices`` order, the row (e, its
        index, the positions of its two outgoing and two incoming angles in
        ``arrow_ids``), so a move is index arithmetic on a value vector."""
        position = {a: i for i, a in enumerate(self.arrow_ids)}
        return tuple((e, n, *map(position.get,
                                 self.outgoing[e] + self.incoming[e]))
                     for n, e in enumerate(self.vertices))

    def source(self, arrow):
        return self.arrows[arrow][0]

    def target(self, arrow):
        return self.arrows[arrow][1]


def medial_quiver(pmap: PlanarMap) -> MedialQuiver:
    """Construct the directed medial quiver of a validated planar map."""
    return MedialQuiver(pmap)


# ----------------------------------------------------------------------
# external text format
# ----------------------------------------------------------------------

def parse_map_text(text):
    """Parse the rotation-system input format.

    The format is a small YAML document, read by ``read_document``::

        vertices: [[a1, a2, a3, a4], [b4, b3, b2, b1]]
        edges: [[a1, b1], [a2, b2], [a3, b3], [a4, b4]]
        marked_edge: e0        # optional, link diagrams only

    Any other key is refused with a ``MapFormatError`` that names it.

    Returns:
        (PlanarMap, marked_edge or None)
    """
    doc = read_document(text, MapFormatError)
    unknown = sorted(repr(str(key)) for key in doc
                     if key not in ("vertices", "edges", "marked_edge"))
    if unknown:
        raise MapFormatError(f"unknown key {', '.join(unknown)}: a map has "
                             "only vertices, edges and marked_edge")
    if "vertices" not in doc or "edges" not in doc:
        raise MapFormatError("missing 'vertices' or 'edges' key")
    rotations = doc["vertices"]
    pairing = doc["edges"]
    if (not isinstance(rotations, list) or not isinstance(pairing, list)
            or any(not isinstance(c, list) or any(isinstance(d, list) for d in c)
                   for c in rotations + pairing)):
        raise MapFormatError("'vertices' and 'edges' must be lists of dart lists")
    pmap = build_planar_map(rotations, pairing)
    marked = doc.get("marked_edge")
    if marked is not None:
        marked = str(marked)
        if marked not in pmap.edges:
            raise MapFormatError(f"marked_edge {marked!r} is not an edge id")
    return pmap, marked


# The map and weight formats are a strict subset of YAML, read with YAML's
# meaning: top-level `key: value` lines, a value being a plain scalar or a
# flow list `[...]` of scalars and flow lists that may run on over lines; a
# key may instead be followed by `- value` block items.  A scalar is an int,
# one of YAML 1.1's 18 bool words, or a word; anything else is refused.
_TOKEN = re.compile(r"([][,]|[:-](?= |$))|([A-Za-z0-9_.-]+)|(#.*)|([^ ])")
_SCALAR = re.compile(
    r"(-?(?:0|[1-9][0-9]*))|(?!(?:null|Null|NULL)$)[A-Za-z_][A-Za-z0-9_.-]*")
_BOOLS = {w: b for b, words in ((True, "yes true on"), (False, "no false off"))
          for word in words.split() for w in (word, word.title(), word.upper())}


def read_document(text, error):
    """The mapping YAML's safe loader reads from text in the subset above;
    raises error(message) on any other text and on a repeated key (which
    YAML would let overwrite the first)."""
    def refuse(n, what):
        raise error(f"not valid structured text: line {n}: {what}")

    lines = text.replace("\r\n", "\n").split("\n")
    toks = []  # (line, column, kind, scalar)
    for n, line in enumerate(lines, 1):
        if not line.isprintable():
            refuse(n, "unprintable character")
        for m in _TOKEN.finditer(line):  # skipping spaces
            punct, word, comment, other = m.groups()
            scalar = word and _SCALAR.fullmatch(word)
            if (other or word and not scalar
                    or comment and line[m.start() - 1:m.start()].strip()):
                refuse(n, f"unexpected {m[0]!r}")
            if scalar:
                toks.append((n, m.start(), "scalar", int(word) if scalar[1]
                             else _BOOLS.get(word, word)))
            elif punct:
                toks.append((n, m.start(), punct, None))
    toks.append((len(lines) + 1, 0, "end of text", None))

    def value(i):
        """The value starting at toks[i], which must end its line, and the
        index after it."""
        stack, after_item = [[]], False  # the open lists, innermost last
        while True:
            n, _, kind, scalar = toks[i]
            i += 1
            if kind == "[" and not after_item:
                stack.append([])
                continue
            if kind == "scalar" and not after_item:
                stack[-1].append(scalar)
            elif kind == "]" and len(stack) > 1:  # YAML also reads `[a,]`
                stack[-2].append(stack.pop())
            elif kind == "," and after_item and len(stack) > 1:
                after_item = False
                continue
            else:
                refuse(n, f"unexpected {kind}")
            after_item = True
            if len(stack) == 1:
                if toks[i][0] == n:
                    refuse(n, "expected the end of the line")
                return stack[0][0], i

    doc, spelt, i = {}, {}, 0  # spelt: key -> (first spelling, line)
    while toks[i][2] != "end of text":
        n, col, kind, key = toks[i]
        colon = toks[i + 1][1]  # YAML wants it within 1024 characters
        if (col or kind != "scalar" or toks[i + 1][::2] != (n, ":")
                or colon > 1024):
            refuse(n, "expected `key:` at the start of the line")
        name = lines[n - 1][:colon].rstrip()
        # `on`, `yes` and `1` read as one key, as True == 1
        first, line = spelt.setdefault(key, (name, n))
        if line != n:
            refuse(n, f"duplicate key {name!r}" if first == name
                   else f"key {name!r} is the key {first!r} of line {line}")
        i += 2
        if toks[i][0] == n:
            doc[key], i = value(i)
            continue
        doc[key], indent = [], toks[i][1]
        while toks[i][2] == "-" and toks[i][1] == indent and (
                toks[i + 1][0] == toks[i][0]):  # a value after the dash
            item, i = value(i + 1)
            doc[key].append(item)
        if not doc[key]:
            refuse(n, f"no value for {name!r}")
    if not doc:
        refuse(1, "empty document")
    return doc


def dump_map_text(pmap: PlanarMap, marked_edge=None):
    """Serialize a map back to the input format (canonical, deterministic)."""
    lines = []
    rot = ", ".join(
        "[" + ", ".join(pmap.vertices[v]) + "]" for v in sorted(pmap.vertices, key=cell_key))
    lines.append(f"vertices: [{rot}]")
    pairs = ", ".join(
        "[" + ", ".join(pmap.edges[e]) + "]" for e in sorted(pmap.edges, key=cell_key))
    lines.append(f"edges: [{pairs}]")
    if marked_edge is not None:
        lines.append(f"marked_edge: {marked_edge}")
    return "\n".join(lines) + "\n"


def cell_key(cid):
    """Sort v2 before v10: cell ids are a letter followed by an index."""
    return (cid[0], int(cid[1:]))
