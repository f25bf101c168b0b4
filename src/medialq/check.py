"""The certified battery of one link diagram, as named verdicts: the
Kauffman states, one lattice per move-graph component and its projection,
the Jacobian relations, the Clock theorem, and the maximal state module with
its subrepresentation isomorphism.  ``check-all`` formats the verdicts, and
no other verb loads this module.
"""

from __future__ import annotations

from . import bms, reps
from . import states as st
from .kauffman import (clock_lattice, enumerate_kauffman_states,
                       is_prime_diagram, kauffman_weight)
from .planar import Record


class Verdicts(Record):
    """What ``check_diagram`` found, one field per stage.  ``nilpotency``,
    ``invisible_components`` and ``indecomposable`` hold the exception of a
    failed stage in place of a value, so it hides no other stage.
    ``clock_size`` is None for a diagram that is not prime."""

    __slots__ = ("kauffman_states", "nilpotency", "invisible_components",
                 "component_sizes", "lattice_sizes", "projection_ok",
                 "residuals", "prime", "clock_size", "module_nilpotent",
                 "indecomposable", "anti_movable", "quotients_match",
                 "subrep_iso")


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a verdict of its own, reported with the rest
        return exc


def projects_onto(states, functions) -> bool:
    """Does xi -> f_plus map the BMS states one-to-one onto the functions?
    In O(n): no f_plus vector repeats, and together they are the functions'.
    The rest of the move-graph isomorphism holds by construction: a component
    lattice is grown along the move graph, f_plus a node, covers its moves."""
    image = [xi.f_plus.vector for xi in states]
    seen = set(image)
    return len(seen) == len(image) and seen == {g.vector for g in functions}


def check_diagram(diagram) -> Verdicts:
    """Every certified property of a link diagram under its Kauffman weight.
    The other stages raise: ``ValueError`` for a diagram the library cannot
    take, ``AssertionError`` for an internal disagreement."""
    pmap = diagram.pmap
    omega = kauffman_weight(diagram)
    dec = st.Decoration.of(pmap, omega)

    states = enumerate_kauffman_states(diagram)
    nilpotency = _attempt(lambda: dec.nilpotency)
    invisible = _attempt(lambda: st.gamma_inv_components(pmap, omega))

    graph = dec.move_graph
    comps = graph.components
    lattices = [dec.component_lattice(graph.nodes[comp[0]]) for comp in comps]
    projection_ok = projects_onto(
        [x for lattice in lattices for x in lattice.elements], graph.nodes)

    potential = reps.canonical_potential(pmap, omega)
    residuals = sum(len(reps.state_jacobian(pmap, state, potential).nonzero)
                    for lattice in lattices for state in lattice.elements)

    prime = is_prime_diagram(diagram)
    clock_size = len(clock_lattice(diagram)) if prime else None

    largest = max(lattices, key=len)
    top = largest.maximum
    module = reps.state_module(pmap, top)
    module_nilpotent = reps.is_nilpotent(module)
    indecomposable = _attempt(lambda: reps.is_indecomposable(module, omega))
    anti = frozenset(e for e in dec.quiver.vertices
                     if bms.is_bms_anti_movable(dec.quiver, top, e))
    quotients_match = reps.simple_quotients(module) == anti

    return Verdicts(
        kauffman_states=len(states), nilpotency=nilpotency,
        invisible_components=invisible, component_sizes=tuple(map(len, comps)),
        lattice_sizes=tuple(map(len, lattices)), projection_ok=projection_ok,
        residuals=residuals, prime=prime, clock_size=clock_size,
        module_nilpotent=module_nilpotent, indecomposable=indecomposable,
        anti_movable=anti, quotients_match=quotients_match,
        subrep_iso=reps.verify_subrep_isomorphism(largest, module, omega))
