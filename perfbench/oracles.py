"""Answer checks that do not use the code under test.

Each check reads a generated ``.map`` file with PyYAML and recomputes what it
needs from the rotation system itself: faces by tracing, the Tait
(checkerboard) graph, and its spanning-tree count by the matrix-tree theorem
as an exact ``Fraction`` determinant.  Kauffman's clock theorem makes that
count the number of Kauffman states, hence the size of every clock and
component lattice of a prime diagram, and the number of compatible angular
functions of every diagram.  Lattice reports are checked by rebuilding the
order from the printed covers and confirming every printed join and meet is
the least upper and greatest lower bound.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from pathlib import Path

import yaml


@functools.lru_cache(maxsize=None)
def read_map(path):
    """(rotations, pairing, marked edge index) of a ``.map`` file.

    Cached: the benchmark writes its maps once, before any check.
    """
    doc = yaml.safe_load(Path(path).read_text())
    rotations = [[str(d) for d in cycle] for cycle in doc["vertices"]]
    pairing = [[str(d) for d in pair] for pair in doc["edges"]]
    return rotations, pairing, int(str(doc["marked_edge"])[1:])


def tait_graph(rotations, pairing):
    """Edges (face, face) of one checkerboard colour class, one per crossing.

    A corner between dart ``d`` and its clockwise successor ``s`` lies in the
    face traced through ``s`` by ``d -> sigma(theta(d))``; around a 4-valent
    crossing the corners alternate colour, so corners 0 and 2 join two faces
    of one colour and corners 1 and 3 two faces of the other.
    """
    sigma = {}
    for cycle in rotations:
        for i, d in enumerate(cycle):
            sigma[d] = cycle[(i + 1) % len(cycle)]
    theta = {}
    for a, b in pairing:
        theta[a], theta[b] = b, a
    face = {}
    for start in sigma:
        if start in face:
            continue
        d = start
        while d not in face:
            face[d] = start
            d = sigma[theta[d]]
    corners = [[face[sigma[d]] for d in cycle] for cycle in rotations]
    neighbours = {}
    for cs in corners:
        for i, f in enumerate(cs):
            g = cs[(i + 1) % len(cs)]
            neighbours.setdefault(f, set()).add(g)
            neighbours.setdefault(g, set()).add(f)
    colour = {}
    for root in neighbours:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            f = stack.pop()
            for g in neighbours[f]:
                if g not in colour:
                    colour[g] = 1 - colour[f]
                    stack.append(g)
                elif colour[g] == colour[f]:
                    raise ValueError("faces are not two-colourable")
    edges = []
    for cs in corners:
        i = 0 if colour[cs[0]] == 0 else 1
        edges.append((cs[i], cs[i + 2]))
    return edges


def spanning_tree_count(edges):
    """Matrix-tree theorem: determinant of a reduced Laplacian, exactly."""
    nodes = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        i, j = index[u], index[v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for c in range(n - 1):
        pivot = next((r for r in range(c, n - 1) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n - 1):
            factor = m[r][c] / m[c][c]
            if factor:
                for k in range(c, n - 1):
                    m[r][k] -= factor * m[c][k]
    return int(det)


@functools.lru_cache(maxsize=None)
def kauffman_state_count(path):
    rotations, pairing, _ = read_map(path)
    return spanning_tree_count(tait_graph(rotations, pairing))


def disconnects(path, e1, e2):
    """Does removing edges ``e1`` and ``e2`` (ids ``e<i>``) disconnect the map?"""
    rotations, pairing, _ = read_map(path)
    vertex_of = {d: i for i, cycle in enumerate(rotations) for d in cycle}
    removed = {int(e1[1:]), int(e2[1:])}
    adj = {i: [] for i in range(len(rotations))}
    for k, (a, b) in enumerate(pairing):
        if k not in removed:
            adj[vertex_of[a]].append(vertex_of[b])
            adj[vertex_of[b]].append(vertex_of[a])
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) < len(rotations)


def line_value(lines, pattern):
    """The groups of the first line matching ``pattern``, or None."""
    rx = re.compile(pattern)
    for line in lines:
        m = rx.fullmatch(line)
        if m:
            return m.groups()
    return None


def check_lattice_report(lines, expected_size):
    """Problems with a printed lattice (elements, covers, join/meet tables).

    Rebuilds up- and down-sets from the printed covers, then requires unit
    grade steps along covers, a least and a greatest element matching the
    printed minimum and maximum, an unsampled certificate, and every join
    and meet table entry to be the least upper / greatest lower bound.
    """
    problems = []
    start = next((i for i, s in enumerate(lines) if s.startswith("elements: ")), None)
    if start is None:
        return ["no 'elements:' line"]
    n = int(lines[start].split()[1])
    if n != expected_size:
        problems.append(f"{n} elements, oracle says {expected_size}")
    grade = [int(lines[start + 1 + i].split()[2]) for i in range(n)]
    pos = start + 1 + n
    minimum = int(lines[pos].split()[1])
    maximum = int(lines[pos + 1].split()[1])
    ncovers = int(lines[pos + 2].split()[1])
    pos += 3
    above = [[] for _ in range(n)]
    below = [[] for _ in range(n)]
    for line in lines[pos:pos + ncovers]:
        lo, _, hi = line.split()[:3]
        lo, hi = int(lo), int(hi)
        above[lo].append(hi)
        below[hi].append(lo)
        if grade[hi] != grade[lo] + 1:
            problems.append(f"cover {lo} -> {hi} is not a unit grade step")
    pos += ncovers
    order = sorted(range(n), key=lambda i: grade[i])
    down = [1 << i for i in range(n)]
    for i in order:
        for j in below[i]:
            down[i] |= down[j]
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        for j in above[i]:
            up[i] |= up[j]
    full = (1 << n) - 1
    if down[maximum] != full or up[minimum] != full:
        problems.append("printed minimum/maximum are not least/greatest")
    for name, sets in (("join", up), ("meet", down)):
        if lines[pos] != f"{name} table:":
            return problems + [f"no {name} table"]
        for i in range(n):
            row = [int(x) for x in lines[pos + 1 + i].split()]
            for j, k in enumerate(row):
                if sets[k] != sets[i] & sets[j]:
                    problems.append(f"{name}({i}, {j}) = {k} is not the {name}")
                    break
        pos += 1 + n
    cert = line_value(lines[pos:pos + 1], r"certified: size (\d+), grades \d+\.\.\d+, sampled (\w+)")
    if cert != (str(n), "False"):
        problems.append(f"certificate line is {lines[pos:pos + 1]}")
    return problems
