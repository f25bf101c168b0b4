"""The certified battery as a library call: ``check.check_diagram`` returns
its verdicts as fields, and the projection check is decided by f_plus
vectors."""

import pytest

from medialq import bms, check, corpus
from medialq.kauffman import LinkDiagram, kauffman_weight
from medialq.states import AngularFunction, Decoration

from conftest import forgetful_projection


def test_trefoil_verdicts():
    v = check.check_diagram(LinkDiagram(*corpus.load("trefoil")))
    assert v == check.Verdicts(
        kauffman_states=3, nilpotency=0, invisible_components=1,
        component_sizes=(3,), lattice_sizes=(3,), projection_ok=True,
        residuals=0, prime=True, clock_size=3, module_nilpotent=True,
        indecomposable=True, anti_movable=frozenset({"e3"}),
        quotients_match=True, subrep_iso=True)


def test_connected_sum_has_no_clock_verdict():
    """The sum of two trefoils is not prime: no clock lattice is built, and
    its maximal state module splits."""
    v = check.check_diagram(LinkDiagram(*corpus.load("trefoil_sum")))
    assert (v.prime, v.clock_size) == (False, None)
    assert v.indecomposable is False
    assert v.anti_movable == {"e4", "e9"} and v.quotients_match
    assert (v.kauffman_states, v.lattice_sizes) == (9, (9,))
    assert v.projection_ok and v.subrep_iso and v.residuals == 0


def test_failed_stage_is_a_verdict(monkeypatch):
    """A stage that raises leaves its exception as the verdict; the stages
    after it still run."""
    from medialq import reps

    def broken(module, omega):
        raise ArithmeticError("ranks disagree")

    monkeypatch.setattr(reps, "is_indecomposable", broken)
    v = check.check_diagram(LinkDiagram(*corpus.load("hopf")))
    assert isinstance(v.indecomposable, ArithmeticError)
    assert v.subrep_iso and max(v.lattice_sizes) == 2


@pytest.fixture(scope="module", params=["figure_eight", "torus_2_5",
                                        "trefoil_sum"])
def lattice_and_graph(request):
    pmap, marked = corpus.load(request.param)
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    dec = Decoration.of(pmap, omega)
    graph = dec.move_graph
    (comp,) = graph.components
    return pmap, omega, dec.component_lattice(graph.nodes[comp[0]]), graph


def test_projection_agrees_with_the_move_oracle(lattice_and_graph):
    pmap, omega, lattice, graph = lattice_and_graph
    states = lattice.elements
    report = forgetful_projection(pmap, omega, states)
    assert report.ok and report.injective
    assert report.image_size == report.graph_size
    assert check.projects_onto(states, graph.nodes)


def test_projection_refuses_a_dropped_or_repeated_state(lattice_and_graph):
    """A lattice missing one element does not cover the component; one
    whose f_plus repeats is not one-to-one, whether it covers the
    component or stands in for a dropped element."""
    _, _, lattice, graph = lattice_and_graph
    states = list(lattice.elements)
    assert check.projects_onto(states, graph.nodes)
    for k in range(len(states)):
        dropped = states[:k] + states[k + 1:]
        for mutant in (dropped, states + [states[k]],
                       dropped + [states[k - 1]]):
            assert not check.projects_onto(mutant, graph.nodes)


def test_projection_refuses_a_function_on_another_frame(lattice_and_graph):
    """An f_plus with the vector of a state but over other angle names is
    no state of the decoration: it has no place among the functions."""
    _, _, lattice, graph = lattice_and_graph
    xi, *rest = lattice.elements
    renamed = AngularFunction({f"x{a}": v for a, v in xi.f_plus.items()})
    assert renamed.vector == xi.f_plus.vector
    stranger = bms.BMSState(renamed, xi.f_minus, xi.d)
    assert not check.projects_onto(rest + [stranger], graph.nodes)
