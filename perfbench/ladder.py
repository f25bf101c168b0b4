"""Seeded generation of the benchmark's diagram ladder.

Every input is built by ``medialq.corpus`` (``braid_closure_shadow`` and
``connected_sum``) and validated and written by ``medialq.planar``.  A
workload seed then relabels the map: darts get new names (kept in the same
sorted order), the vertex list and the edge list are shuffled, and each
rotation starts at a random dart.  The marked edge is the image of the
unseeded one, so every count the oracles check (states, lattice sizes,
covers, candidate boxes) is the same on every seed.  Seed 0 is the
identity: it writes exactly what ``dump_map_text`` writes for the unseeded
map, so the corpus rung reproduces the shipped files.
"""

from __future__ import annotations

import random

from medialq import corpus
from medialq.planar import build_planar_map, dump_map_text


def torus(n):
    """T(2, n): the closure of the 2-braid sigma1^n."""
    return corpus.braid_closure_shadow([1] * n, 2)


def braid3(k, prefix=""):
    """The closure of the 3-braid (sigma1 sigma2)^k."""
    return corpus.braid_closure_shadow([1, 2] * k, 3, prefix=prefix)


def braid3_sum(*ks):
    """Connected sum of (sigma1 sigma2)^k closures, spliced left to right."""
    rot, pair = braid3(ks[0], prefix="p0")
    for i, k in enumerate(ks[1:], start=1):
        rot, pair = corpus.connected_sum(rot, pair, *braid3(k, prefix=f"p{i}"))
    return rot, pair


# Rung name -> rotation system, as (rotations, pairing).
RUNGS = {
    "torus_2_16": lambda: torus(16),
    "torus_2_17": lambda: torus(17),
    "torus_2_18": lambda: torus(18),
    "braid3_4": lambda: braid3(4),
    "braid3_5": lambda: braid3(5),
    "braid3_6": lambda: braid3(6),
    "sum_4_5": lambda: braid3_sum(4, 5),
    "sum_3_3_3": lambda: braid3_sum(3, 3, 3),
}


def default_marked_edge(pmap):
    """First edge, in index order, whose two sides are different faces."""
    for i in range(len(pmap.edges)):
        f1, f2 = pmap.edge_faces(f"e{i}")
        if f1 != f2:
            return f"e{i}"
    raise ValueError("no edge with two distinct adjacent faces")


def source(name):
    """(PlanarMap, marked edge) of a rung or of a shipped corpus diagram."""
    if name in RUNGS:
        pmap = build_planar_map(*RUNGS[name]())
        return pmap, default_marked_edge(pmap)
    return corpus.generate(name)


def relabel(pmap, marked, seed):
    """Seeded isomorphic copy of a map: (rotations, pairing, marked index)."""
    rotations = [list(pmap.vertices[f"v{i}"]) for i in range(len(pmap.vertices))]
    pairing = [list(pmap.edges[f"e{i}"]) for i in range(len(pmap.edges))]
    marked_index = int(marked[1:])
    if seed == 0:
        return rotations, pairing, marked_index
    rng = random.Random(seed)
    # New dart names keep the canonical (sorted) dart order: the library
    # backtracks over angles in that order, and a shuffled order changes its
    # cost by orders of magnitude (see README.md), which would turn the seed
    # into a cost lottery instead of a relabelling.
    numbers = sorted(rng.sample(range(10 ** 7), len(pmap.darts)))
    rename = {d: f"d{x:07d}" for d, x in zip(pmap.darts, numbers)}
    rotations = [[rename[d] for d in cycle] for cycle in rotations]
    rng.shuffle(rotations)
    for cycle in rotations:
        k = rng.randrange(len(cycle))
        cycle[:] = cycle[k:] + cycle[:k]
    order = list(range(len(pairing)))
    rng.shuffle(order)
    pairing = [[rename[d] for d in pairing[i]] for i in order]
    return rotations, pairing, order.index(marked_index)


def map_text(name, seed):
    """The .map file text of one diagram under one workload seed."""
    rotations, pairing, marked_index = relabel(*source(name), seed)
    pmap = build_planar_map(rotations, pairing)
    return dump_map_text(pmap, marked_edge=f"e{marked_index}")


def write_maps(directory, names, seed):
    """Write ``<name>.map`` for each name into ``directory``; return the paths."""
    paths = []
    for name in names:
        path = directory / f"{name}.map"
        path.write_text(map_text(name, seed))
        paths.append(path)
    return paths
