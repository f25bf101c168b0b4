"""Tests of the benchmark's input generator, oracles and tracer.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import ladder  # noqa: E402
import oracles  # noqa: E402
from medialq import bms, corpus  # noqa: E402
from medialq import states as st  # noqa: E402
from medialq.kauffman import LinkDiagram, kauffman_weight  # noqa: E402
from medialq.planar import parse_map_text  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))


def trees(rotations, pairing):
    return oracles.spanning_tree_count(oracles.tait_graph(rotations, pairing))


@pytest.mark.parametrize("n", range(2, 9))
def test_matrix_tree_torus(n):
    assert trees(*ladder.torus(n)) == n


@pytest.mark.parametrize("k, count", [(3, 16), (4, 45), (5, 121), (6, 320)])
def test_matrix_tree_braid3(k, count):
    assert trees(*ladder.braid3(k)) == count


def test_matrix_tree_figure_eight_and_sums():
    assert trees(*corpus.braid_closure_shadow([1, 2, 1, 2], 3)) == 5
    assert trees(*ladder.braid3_sum(4, 5)) == 45 * 121
    assert trees(*ladder.braid3_sum(3, 3, 3)) == 16 ** 3


def test_seed_zero_reproduces_the_shipped_corpus():
    folder = SRC / "medialq" / "corpus"
    for name in corpus.names():
        assert ladder.map_text(name, 0) == (folder / f"{name}.map").read_text()


def sizes(text):
    """(states, lattice size, covers, candidate box of the top) of a map."""
    pmap, marked = parse_map_text(text)
    omega = kauffman_weight(LinkDiagram(pmap, marked))
    functions = st.enumerate_compatible(pmap, omega)
    g0, _ = bms.component_minimum(pmap, omega, functions[0])
    lattice = bms.bms_plus_lattice(pmap, omega, g0)
    top = max(lattice.elements, key=lambda s: s.d_tot)
    box = math.prod(top.dim(e) + 1 for e in pmap.edges)
    return len(functions), len(lattice), len(lattice.covers), box


def test_relabelling_keeps_every_checked_size(tmp_path):
    texts = [ladder.map_text("braid3_4", seed) for seed in range(4)]
    assert len(set(texts)) == 4
    for text in texts:
        assert sizes(text) == (45, 45, 78, 6912)
        path = tmp_path / "m.map"
        path.write_text(text)
        oracles.kauffman_state_count.cache_clear()
        oracles.read_map.cache_clear()
        assert oracles.kauffman_state_count(path) == 45
    canonical = {parse_map_text(t)[0].canonical_form() for t in texts}
    assert len(canonical) == 1


def test_relabelling_keeps_sizes_on_a_sum_and_a_torus():
    for seed in (0, 7):
        pmap, marked = parse_map_text(ladder.map_text("sum_3_3_3", seed))
        omega = kauffman_weight(LinkDiagram(pmap, marked))
        assert len(st.enumerate_compatible(pmap, omega)) == 4096
        assert sizes(ladder.map_text("torus_2_5", seed)) == (5, 5, 4, 16)


def test_lattice_oracle_rejects_a_wrong_join(tmp_path):
    path = tmp_path / "fig8.map"
    path.write_text(ladder.map_text("figure_eight", 3))
    out = subprocess.run([sys.executable, "-m", "medialq", "clock", str(path)],
                         capture_output=True, text=True, env=ENV, check=True).stdout
    lines = out.splitlines()
    assert oracles.check_lattice_report(lines, 5) == []
    assert oracles.check_lattice_report(lines, 6) != []
    row = lines.index("join table:") + 1
    cells = lines[row].split()
    cells[1] = cells[0]
    assert oracles.check_lattice_report(
        lines[:row] + ["  " + " ".join(cells)] + lines[row + 1:], 5) != []


def test_separating_pair_oracle():
    path = SRC / "medialq" / "corpus" / "trefoil_sum.map"
    rotations, pairing, _ = oracles.read_map(path)
    pairs = [(f"e{i}", f"e{j}") for i in range(len(pairing)) for j in range(i)]
    assert any(oracles.disconnects(path, *p) for p in pairs)
    figure_eight = SRC / "medialq" / "corpus" / "figure_eight.map"
    assert not any(oracles.disconnects(figure_eight, f"e{i}", f"e{j}")
                   for i in range(8) for j in range(i))


def test_traced_check_all_reproduces_the_baseline_counts(tmp_path):
    trace = tmp_path / "trace.json"
    folder = SRC / "medialq" / "corpus"
    done = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(trace), "check-all", str(folder)],
        capture_output=True, text=True, env=ENV)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "diagrams checked: 7 failures: 0"
    summary = json.loads(trace.read_text())
    calls, counters = summary["calls"], summary["counters"]
    assert calls["states.enumerate_compatible"] == 102
    assert calls["lattice.certify_graded_distributive_lattice"] == 33
    # Both box scans visit 86 candidates over the corpus and keep 34.
    assert counters["bms.subobject_candidates"] == 86
    assert counters["bms.subobjects_kept"] == 34
    assert counters["reps.subrep_candidates"] == 86
    assert counters["reps.subreps_kept"] == 34

