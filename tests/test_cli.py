"""End-to-end tests of the command-line interface.

Each verb is exercised in-process through ``main(argv)`` so exit codes and
report text are both observable.  Reports must be byte-identical across runs
on the same input.
"""

import hashlib
import subprocess
import sys

import pytest

from medialq import corpus
from medialq.cli import main
from medialq.kauffman import LinkDiagram, kauffman_weight
from medialq.planar import build_planar_map, dump_map_text
from medialq.states import dump_weight_text

from conftest import DIGON_PAIR, DIGON_ROT


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    """Corpus diagrams written out as .map files: name -> path."""
    folder = tmp_path_factory.mktemp("maps")
    out = {}
    for name in corpus.names():
        pmap, marked = corpus.load(name)
        path = folder / f"{name}.map"
        path.write_text(dump_map_text(pmap, marked_edge=marked))
        out[name] = path
    return out


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_header_is_verb_and_inputs(capsys, maps, tmp_path):
    """The header is the verb line, then one line per input file, in
    argument order, and nothing else."""
    weight = tmp_path / "w.yaml"
    weight.write_text(dump_weight_text(
        kauffman_weight(LinkDiagram(*corpus.load("trefoil")))))
    code, out, _ = run(capsys, "bms-lattice", maps["trefoil"],
                       "--weight", weight)
    assert code == 0
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert header == ["# medialq bms-lattice"] + [
        f"# input {path}: sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in (maps["trefoil"], weight)]
    assert out.splitlines()[:3] == header


def test_medial_dump_lists_quiver(capsys, maps):
    code, out, _ = run(capsys, "medial", maps["trefoil"])
    assert code == 0
    assert "vertices: 3 edges: 6 faces: 5" in out
    assert "quiver vertices: e0 e1 e2 e3 e4 e5" in out
    assert "arrow c3ne: e3 -> e5 (vertex v2, face f2)" in out


def test_medial_dot_output(capsys, maps):
    code, out, _ = run(capsys, "medial", maps["hopf"], "--format", "dot")
    assert code == 0
    assert "digraph medial {" in out
    assert '"e3" -> "e1" [label="c1ne"];' in out


def test_states_uses_marked_edge_weight_by_default(capsys, maps):
    code, out, _ = run(capsys, "states", maps["trefoil"])
    assert code == 0
    assert "compatible angular functions: 3" in out


def test_states_with_two_digit_values(capsys, maps, tmp_path):
    """Twelve times the Kauffman weight of the trefoil: 91 functions with
    values up to 12, each printed as its nonzero angle:value pairs."""
    from medialq.states import Decoration

    omega = {c: 12 * v for c, v in kauffman_weight(
        LinkDiagram(*corpus.load("trefoil"))).items()}
    weight = tmp_path / "w.yaml"
    weight.write_text(dump_weight_text(omega))
    code, out, _ = run(capsys, "states", maps["trefoil"], "--weight", weight)
    functions = Decoration.of(corpus.load("trefoil")[0], omega).states
    assert code == 0 and len(functions) == 91
    assert max(max(g.vector) for g in functions) == 12
    assert out.splitlines()[4:] == [
        f"  {i}: " + ",".join(f"{a}:{v}" for a, v in g.items() if v)
        for i, g in enumerate(functions)]


def test_states_with_explicit_weight_file(capsys, maps, tmp_path):
    weight = tmp_path / "w.yaml"
    weight.write_text(
        "v0: 1\nv1: 1\nv2: 1\nf0: 1\nf1: 1\nf2: 1\nf3: 0\nf4: 0\n")
    code, out, _ = run(capsys, "states", maps["trefoil"],
                       "--weight", weight)
    assert code == 0
    assert str(weight) in out  # second input line names the weight file
    assert "compatible angular functions: 4" in out


def test_move_graph_dump(capsys, maps):
    code, out, _ = run(capsys, "move-graph", maps["hopf"])
    assert code == 0
    assert "states: 2 moves: 1" in out
    assert "components: 1" in out


def test_invisible_report(capsys, maps):
    code, out, _ = run(capsys, "invisible", maps["trefoil"])
    assert code == 0
    assert "invisible arrows: c1se c1sw c2nw c2sw c3sw" in out
    assert "invisible edges: e0 e1 e2 e4" in out
    assert "components: 1 (connected: True)" in out


def test_nilpotency_zero_for_kauffman_weight(capsys, maps):
    code, out, _ = run(capsys, "nilpotency", maps["figure_eight"])
    assert code == 0
    assert "nilpotency degree: 0" in out


def test_bms_lattice_tables_and_labels(capsys, maps):
    code, out, _ = run(capsys, "bms-lattice", maps["trefoil"])
    assert code == 0
    assert "elements: 3" in out
    assert "0 -> 1 by e5" in out
    assert "1 -> 2 by e3" in out
    assert "join table:" in out and "meet table:" in out
    assert "certified: size 3, grades 0..2, sampled False" in out


def test_bms_lattice_dot(capsys, maps):
    code, out, _ = run(capsys, "bms-lattice", maps["trefoil"],
                       "--format", "dot")
    assert code == 0
    assert "digraph hasse {" in out
    assert 'label="e3:1,e5:1"' in out


def test_component_reports_minimum(capsys, maps):
    code, out, _ = run(capsys, "component", maps["figure_eight"])
    assert code == 0
    assert "states: 5 components: 1" in out
    assert "component 0: size 5" in out


def test_subobjects_of_maximal_state(capsys, maps):
    code, out, _ = run(capsys, "subobjects", maps["figure_eight"])
    assert code == 0
    assert "subobjects of the maximal state" in out
    assert "elements: 5" in out


def test_clock_certifies_prime_diagram(capsys, maps):
    code, out, _ = run(capsys, "clock", maps["figure_eight"])
    assert code == 0
    assert "elements: 5" in out
    assert "markers=" in out


def test_clock_rejects_connected_sum(capsys, maps):
    code, out, err = run(capsys, "clock", maps["trefoil_sum"])
    assert code == 1
    assert out == ""
    assert "separating" in err


def test_prime_check_exit_codes(capsys, maps):
    code, out, _ = run(capsys, "prime-check", maps["trefoil"])
    assert code == 0 and "prime: yes" in out
    code, out, _ = run(capsys, "prime-check", maps["trefoil_sum"])
    assert code == 1
    assert "prime: no, separating pair e0 e1" in out


def test_kauffman_states_listing(capsys, maps):
    code, out, _ = run(capsys, "kauffman-states", maps["trefoil"])
    assert code == 0
    assert "kauffman states: 3" in out
    assert "c1nw,c2ne,c3nw" in out


def test_module_dump_shows_matrices(capsys, maps):
    code, out, _ = run(capsys, "module", maps["trefoil"])
    assert code == 0
    assert "dims: e0:0 e1:0 e2:0 e3:1 e4:0 e5:1" in out
    assert "arrow c3ne: e3 -> e5 1x1 [1]" in out


def test_jacobian_check_all_states_clean(capsys, maps):
    code, out, _ = run(capsys, "jacobian-check", maps["torus_2_5"])
    assert code == 0
    assert "states checked: 5 violations: 0" in out


def test_endo_dump(capsys, maps):
    code, out, _ = run(capsys, "endo", maps["trefoil"])
    assert code == 0
    assert "dimension: 1 semisimple rank: 1 local: True" in out


def test_subreps_lattice(capsys, maps):
    code, out, _ = run(capsys, "subreps", maps["figure_eight"])
    assert code == 0
    assert "elements: 5" in out
    assert "certified: size 5" in out


def test_verify_iso_reports_mapping(capsys, maps):
    code, out, _ = run(capsys, "verify-iso", maps["figure_eight"])
    assert code == 0
    assert "plus-subobjects: 5 subrepresentations: 5" in out
    assert "order isomorphism: True grades match: True" in out


def test_check_all_builtin_corpus(capsys):
    code, out, _ = run(capsys, "check-all")
    assert code == 0
    assert "diagrams checked: 7 failures: 0" in out
    assert "builtin:trefoil_sum:" in out
    assert "prime: False" in out  # reported, not a failure


@pytest.mark.parametrize("where, message", [
    (lambda maps: maps["hopf"], "{} is not a directory"),
    (lambda maps: maps["hopf"].parent / "nowhere",
     "cannot read {}: No such file or directory")], ids=["file", "missing"])
def test_check_all_needs_a_directory(capsys, maps, where, message):
    code, out, err = run(capsys, "check-all", where(maps))
    assert (code, out) == (2, "")
    assert err == f"medialq: {message.format(where(maps))}\n"


def test_check_all_on_directory(capsys, maps):
    code, out, _ = run(capsys, "check-all", maps["hopf"].parent)
    assert code == 0
    assert "diagrams checked: 7 failures: 0" in out


def test_missing_weight_without_marked_edge_exits_2(capsys, tmp_path, maps):
    pmap, _ = corpus.load("trefoil")
    bare = tmp_path / "bare.map"
    bare.write_text(dump_map_text(pmap))
    code, out, err = run(capsys, "states", bare)
    assert code == 2
    assert "marked_edge" in err


def test_unparseable_map_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("vertices: [not, a, rotation]\n")
    code, _, err = run(capsys, "medial", bad)
    assert code == 2
    assert err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "medial", tmp_path / "nope.map")
    assert code == 2
    assert "cannot read" in err


def test_invalid_weight_file_exits_2(capsys, maps, tmp_path):
    weight = tmp_path / "w.yaml"
    weight.write_text("v0: 3\n")  # missing cells, totals differ
    code, _, err = run(capsys, "states", maps["trefoil"],
                       "--weight", weight)
    assert code == 2


def test_boolean_weight_values_exit_2(capsys, tmp_path):
    """YAML's true is a Python bool, and so an int; a weight file must
    still give integers."""
    path = tmp_path / "digon.map"
    path.write_text(dump_map_text(build_planar_map(DIGON_ROT, DIGON_PAIR)))
    weight = tmp_path / "w.yaml"
    weight.write_text("v0: true\nv1: 1\nf0: 1\nf1: true\n")
    code, out, err = run(capsys, "states", path, "--weight", weight)
    assert (code, out) == (2, "")
    assert err == "medialq: weight value for 'v0' is not an integer\n"


def test_malformed_yaml_exits_2(capsys, maps, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("v0: [1, 2\n")
    for argv in (("states", maps["trefoil"], "--weight", bad),
                 ("states", bad)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("medialq: not valid structured text")


def test_nested_darts_exit_2(capsys, tmp_path):
    """A dart is a name, not a list, however deep the nesting: the map is
    refused with a message, not a recursion error."""
    bad = tmp_path / "nested.map"
    for darts in ("[a0], a1", "[" * 3000 + "a0" + "]" * 3000 + ", a1"):
        bad.write_text(f"vertices: [[{darts}], [b0, b1]]\n"
                       "edges: [[a0, b0], [a1, b1]]\n")
        code, out, err = run(capsys, "medial", bad)
        assert (code, out) == (2, "")
        assert err == ("medialq: 'vertices' and 'edges' must be lists of "
                       "dart lists\n")


def test_unknown_map_key_exits_2(capsys, tmp_path):
    """A misspelt `marked_edge` is named by every verb, the map verbs that
    would not read it included."""
    pmap, marked = corpus.load("trefoil")
    path = tmp_path / "trefoil.map"
    path.write_text(dump_map_text(pmap) + f"marked_egde: {marked}\n")
    for verb in ("medial", "states", "kauffman-states", "prime-check"):
        code, out, err = run(capsys, verb, path)
        assert (code, out) == (2, "")
        assert err == ("medialq: unknown key 'marked_egde': a map has only "
                       "vertices, edges and marked_edge\n")


def test_repeated_key_exits_2(capsys, tmp_path):
    """A second `vertices:` or `v0:` is refused where it stands, not read
    over the first."""
    path = tmp_path / "digon.map"
    text = dump_map_text(build_planar_map(DIGON_ROT, DIGON_PAIR))
    path.write_text(text + "vertices: [[a0, a1], [b0, b1]]\n")
    code, out, err = run(capsys, "states", path)
    assert (code, out) == (2, "")
    assert err == ("medialq: not valid structured text: line 3: "
                   "duplicate key 'vertices'\n")
    path.write_text(text)
    weight = tmp_path / "w.yaml"
    weight.write_text("v0: 1\nv1: 1\nf0: 1\nf1: 1\n# again\nv0: 1\n")
    code, out, err = run(capsys, "states", path, "--weight", weight)
    assert (code, out) == (2, "")
    assert err == ("medialq: not valid structured text: line 6: "
                   "duplicate key 'v0'\n")


def test_key_spelt_two_ways_names_both(capsys, tmp_path):
    """`on` and `1` (or `yes` and `true`) read as one key, as YAML reads
    them; the refusal names both spellings and the first one's line."""
    path = tmp_path / "digon.map"
    text = dump_map_text(build_planar_map(DIGON_ROT, DIGON_PAIR))
    path.write_text(text + "on: e0\n1: [x]\n")
    code, out, err = run(capsys, "states", path)
    assert (code, out) == (2, "")
    assert err == ("medialq: not valid structured text: line 4: "
                   "key '1' is the key 'on' of line 3\n")
    path.write_text(text)
    weight = tmp_path / "w.yaml"
    weight.write_text("v0: 1\nv1: 1\nf0: 1\nf1: 1\nyes: 1\ntrue: 2\n")
    code, out, err = run(capsys, "states", path, "--weight", weight)
    assert (code, out) == (2, "")
    assert err == ("medialq: not valid structured text: line 6: "
                   "key 'true' is the key 'yes' of line 5\n")


def test_out_writes_file_and_stays_silent(capsys, maps, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "nilpotency", maps["trefoil"],
                       "--out", target)
    assert code == 0
    assert out == ""
    assert "nilpotency degree: 0" in target.read_text()


@pytest.mark.parametrize("where, reason", [
    (lambda tmp: tmp / "missing" / "out.txt", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory")], ids=["missing-folder", "folder"])
def test_out_that_cannot_be_written_exits_2(capsys, maps, tmp_path, where,
                                            reason):
    target = where(tmp_path)
    code, out, err = run(capsys, "states", maps["trefoil"], "--out", target)
    assert (code, out) == (2, "")
    assert err == f"medialq: cannot write {target}: {reason}\n"


def test_reports_are_byte_identical_across_runs(capsys, maps, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        assert run(capsys, "verify-iso", maps["trefoil"],
                   "--out", target)[0] == 0
    assert a.read_bytes() == b.read_bytes()


MAP_VERBS = ["medial", "states", "move-graph", "invisible", "nilpotency",
             "bms-lattice", "component", "subobjects", "clock", "prime-check",
             "kauffman-states", "module", "jacobian-check", "endo", "subreps",
             "verify-iso"]


@pytest.mark.parametrize("argv", [[verb] for verb in MAP_VERBS] + [
    [verb, "--format", "dot"] for verb in (
        "medial", "move-graph", "bms-lattice", "subobjects", "clock",
        "subreps")], ids=" ".join)
def test_out_writes_what_stdout_shows(capsys, maps, tmp_path, argv):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, *argv, maps["figure_eight"])
    assert run(capsys, *argv, maps["figure_eight"], "--out", target) == (
        code, "", "")
    assert target.read_text() == out
    assert out.endswith("\n") and not out.endswith("\n\n")


class RecordingStdout:
    """A stdout that keeps every write, or raises `error` on each."""

    def __init__(self, error=None):
        self.writes, self.error = [], error

    def write(self, text):
        if self.error:
            raise self.error
        self.writes.append(text)

    def flush(self):
        pass


def braid_map(tmp_path, *ks):
    """Connected sum of (s1 s2)^k closures with a marked edge, as a file."""
    rot, pair = corpus.braid_closure_shadow([1, 2] * ks[0], 3, prefix="p0")
    for i, k in enumerate(ks[1:], start=1):
        rot, pair = corpus.connected_sum(rot, pair, *corpus.braid_closure_shadow(
            [1, 2] * k, 3, prefix=f"p{i}"))
    pmap = build_planar_map(rot, pair)
    marked = next(e for e in sorted(pmap.edges)
                  if len(set(pmap.edge_faces(e))) == 2)
    path = tmp_path / ("_".join(map(str, ks)) + ".map")
    path.write_text(dump_map_text(pmap, marked))
    return path


@pytest.mark.parametrize("verb, ks", [("states", (4, 4)),
                                      ("bms-lattice", (6,))])
def test_reports_are_written_in_bounded_pieces(monkeypatch, tmp_path, verb,
                                               ks):
    """Reports of several hundred KB reach stdout in pieces of at most
    64 KiB plus one line, which join to the whole report."""
    from medialq import cli

    args = cli.build_parser().parse_args([verb, str(braid_map(tmp_path, *ks))])
    lines = list(args.func(args)[1])
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([verb, args.map]) == 0
    assert "".join(stdout.writes) == "\n".join(lines) + "\n"
    assert len(stdout.writes) > 4
    longest = max(map(len, lines)) + 1
    assert max(map(len, stdout.writes)) <= 64 * 1024 + longest


def test_failed_write_exits_2(monkeypatch, capsys, maps):
    monkeypatch.setattr(sys, "stdout", RecordingStdout(
        OSError(28, "No space left on device")))
    assert main(["states", str(maps["trefoil"])]) == 2
    assert capsys.readouterr().err == (
        "medialq: cannot write stdout: No space left on device\n")


def test_closed_pipe_ends_quietly(monkeypatch, capsys, maps):
    """A reader that stops reading ends the report without a message, in
    process and at interpreter shutdown, keeping the verb's exit code."""
    monkeypatch.setattr(sys, "stdout", RecordingStdout(BrokenPipeError(32)))
    assert main(["prime-check", str(maps["trefoil_sum"])]) == 1
    assert capsys.readouterr().err == ""
    proc = subprocess.Popen(
        [sys.executable, "-m", "medialq", "move-graph", str(maps["trefoil"])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child can write its first line
    assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")
    proc.stderr.close()


def test_benchmark_tracer_still_fits_the_library(tmp_path):
    """The benchmark's traced run of the built-in corpus check-all reports
    what the untraced run does and finds the steps it counts."""
    import json
    from pathlib import Path

    traced = Path(__file__).parents[1] / "perfbench" / "traced_cli.py"
    trace = tmp_path / "trace.json"
    plain = subprocess.run([sys.executable, "-m", "medialq", "check-all"],
                           capture_output=True, text=True)
    proc = subprocess.run([sys.executable, str(traced), str(trace),
                           "check-all"], capture_output=True, text=True)
    assert (proc.returncode, plain.returncode) == (0, 0), proc.stderr
    assert proc.stdout == plain.stdout
    summary = json.loads(trace.read_text())
    counters, calls = summary["counters"], summary["calls"]
    # one subrep candidate per least point started: the sum of d over the
    # maxima of the seven corpus maps
    assert {name: counters.get(name) for name in (
        "bms.subobject_candidates", "bms.subobjects_kept",
        "reps.subrep_candidates", "reps.subreps_kept")} == {
        "bms.subobject_candidates": None, "bms.subobjects_kept": None,
        "reps.subrep_candidates": 22, "reps.subreps_kept": None}
    assert calls["lattice.certify_graded_distributive_lattice"] == 7


def test_no_verb_grows_the_plus_subobjects_again(capsys, maps, monkeypatch):
    """subobjects, verify-iso and check-all read the plus-subobjects of the
    maximum from the component lattice they already hold."""
    from medialq import bms

    runs = [("subobjects", maps["figure_eight"]),
            ("subobjects", maps["figure_eight"], "--format", "dot"),
            ("verify-iso", maps["figure_eight"]), ("check-all",)]
    plain = [run(capsys, *argv) for argv in runs]

    def grow(*args):
        raise AssertionError("plus_subobjects called by a verb")

    monkeypatch.setattr(bms, "plus_subobjects", grow)
    assert [run(capsys, *argv) for argv in runs] == plain
    assert [code for code, _, _ in plain] == [0, 0, 0, 0]


def test_no_verb_grows_the_subrepresentations_for_the_isomorphism(
        capsys, maps, monkeypatch):
    """verify-iso decides the subrepresentation isomorphism from the least
    points of the subrepresentations and the join-irreducibles of the
    component lattice it holds, and subreps, in either format, prints
    that lattice through the verdict: each certifies one lattice, the
    component lattice, and grows no second one."""
    from medialq import lattice

    runs = [(verb, maps[name], *fmt) for name in sorted(maps)
            for verb, fmt in (("verify-iso", ()), ("subreps", ()),
                              ("subreps", ("--format", "dot")))]
    plain = [run(capsys, *argv) for argv in runs]
    certify = lattice.certify_graded_distributive_lattice
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(lattice, "certify_graded_distributive_lattice",
                        counted)
    for argv, report in zip(runs, plain):
        calls.clear()
        assert run(capsys, *argv) == report
        assert len(calls) == 1, argv
    assert {code for code, _, _ in plain} == {0}


def test_verify_iso_reports_a_failed_verdict(capsys, maps, monkeypatch):
    """A failed verdict exits 1 and prints no subrepresentation count, as
    none was computed; the rest of the report is unchanged."""
    from medialq import reps

    code, out, err = run(capsys, "verify-iso", maps["figure_eight"])
    counts = "plus-subobjects: 5 subrepresentations: 5\n"
    verdict = "order isomorphism: True grades match: True\n"
    assert (code, err) == (0, "") and counts in out and out.endswith(verdict)
    monkeypatch.setattr(reps, "verify_subrep_isomorphism",
                        lambda below, module, omega: False)
    assert run(capsys, "verify-iso", maps["figure_eight"]) == (1, out.replace(
        counts, "plus-subobjects: 5 subrepresentations: differ\n").replace(
        verdict, "order isomorphism: False grades match: False\n"), "")


def test_subreps_reports_a_failed_verdict(capsys, maps, monkeypatch):
    """subreps prints the component lattice only through a verified
    isomorphism; a failed verdict is an internal disagreement (exit 1)
    with no report."""
    from medialq import reps

    assert run(capsys, "subreps", maps["figure_eight"])[0] == 0
    monkeypatch.setattr(reps, "verify_subrep_isomorphism",
                        lambda below, module, omega: False)
    for fmt in ("dump", "dot"):
        code, out, err = run(capsys, "subreps", maps["figure_eight"],
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("medialq: the subrepresentations of the maximal state "
                       "module are not its plus-subobjects under x -> x.d\n")


@pytest.mark.parametrize("verb", ["module", "endo", "subreps"])
def test_module_verbs_refuse_a_weight_without_states(capsys, maps, tmp_path,
                                                     verb):
    """A weight with no compatible angular function leaves no maximal
    state, so no module to build: unusable input (exit 2)."""
    weight = tmp_path / "w.yaml"
    weight.write_text(dump_weight_text(
        {"v0": 0, "v1": 0, "v2": 1, "f0": 0, "f1": 0, "f2": 0, "f3": 1,
         "f4": 0}))
    assert run(capsys, verb, maps["trefoil"], "--weight", weight) == (
        2, "", "medialq: no compatible angular function, nothing to build\n")


def test_module_entry_point(maps):
    proc = subprocess.run(
        [sys.executable, "-m", "medialq", "nilpotency",
         str(maps["trefoil"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "nilpotency degree: 0" in proc.stdout


def test_internal_disagreement_exits_1_without_traceback(capsys, maps,
                                                         monkeypatch):
    from medialq import kauffman

    direct = kauffman._enumerate_direct
    monkeypatch.setattr(kauffman, "_enumerate_direct",
                        lambda diagram: direct(diagram)[1:])
    code, out, err = run(capsys, "kauffman-states", maps["trefoil"])
    assert code == 1
    assert out == ""
    assert err == ("medialq: state enumerations disagree: "
                   "3 via functions, 2 direct\n")


def test_certification_failure_exits_1(capsys, maps, monkeypatch):
    from medialq import cli
    from medialq.lattice import CertificationFailed

    def fail(args):
        raise CertificationFailed("lattice reaches 2 of 3 states")

    monkeypatch.setattr(cli, "cmd_nilpotency", fail)
    code, out, err = run(capsys, "nilpotency", maps["trefoil"])
    assert (code, out) == (1, "")
    assert err == "medialq: lattice reaches 2 of 3 states\n"


def test_clock_on_a_non_prime_diagram_exits_1(capsys, maps):
    """kauffman.NotPrime is a finding (exit 1), not bad input, also where
    main looks it up in a fresh interpreter."""
    code, out, err = run(capsys, "clock", maps["trefoil_sum"])
    assert (code, out) == (1, "")
    assert err == "medialq: separating edge pair ('e0', 'e1')\n"
    assert run_fresh("clock", maps["trefoil_sum"])[:2] == ("", 1)


def test_candidate_space_refusal_exits_2(capsys, maps, monkeypatch):
    from medialq import reps

    def refuse(*args):
        raise reps.CandidateSpaceTooLarge("module is not nilpotent")

    monkeypatch.setattr(reps, "verify_subrep_isomorphism", refuse)
    for argv in (("subreps", maps["trefoil"]), ("check-all",)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "medialq: module is not nilpotent\n"  # no map name


def test_component_with_two_minima_exits_1_without_traceback(
        capsys, maps, monkeypatch):
    """A move-graph component with two nodes that no move enters has no
    minimum: an internal disagreement, reported in one line."""
    from medialq import states as st

    monkeypatch.setattr(st.Decoration, "move_graph", property(  # 1 -> 0 <- 2
        lambda dec: st.StateGraph(dec.states, [(1, 0, "e0"), (2, 0, "e0")])))
    for verb in ("component", "bms-lattice"):
        code, out, err = run(capsys, verb, maps["figure_eight"])
        assert (code, out) == (1, "")
        assert err == ("medialq: the move-graph component of state 0 has "
                       "2 minima\n")


def test_component_and_check_all_sweep_each_move_graph_once(
        capsys, maps, monkeypatch):
    """``component`` reads the components and their minima off one sweep
    of the move graph, and ``check-all`` makes one per corpus diagram."""
    from functools import cached_property

    from medialq import states as st

    swept = []
    sweep = st.StateGraph.components.func

    def counted(graph):
        swept.append(graph)
        return sweep(graph)

    counted = cached_property(counted)
    counted.__set_name__(st.StateGraph, "components")
    monkeypatch.setattr(st.StateGraph, "components", counted)
    assert run(capsys, "component", maps["figure_eight"])[0] == 0
    assert len(swept) == 1
    swept.clear()
    assert run(capsys, "check-all")[0] == 0
    assert len(swept) == len(corpus.names()) == 7


def first_moves(graph, root):
    """The move that first reaches each node when a lattice is grown from
    root, breadth first with each node's moves in order: node -> move."""
    first, frontier = {root: None}, [root]
    for n in frontier:
        for move in graph.out_edges(n):
            if move[1] not in first:
                first[move[1]] = move
                frontier.append(move[1])
    return first


def test_swapped_label_on_a_later_move_exits_1(capsys, maps, monkeypatch):
    """A move into a node already reached, relabelled with the edge of the
    first move into it, leaves every state as it was; the pointwise
    closure check sees the cover carry the wrong label."""
    from medialq import states as st

    real = st.Decoration.move_graph.func
    swapped = []

    def graph(dec):
        whole = real(dec)
        entered = {t for _, t, _ in whole.edges}
        root = next(n for n in whole.components[0] if n not in entered)
        first = first_moves(whole, root)
        later = next(m for m in whole.edges
                     if first.get(m[1]) not in (None, m))
        label = first[later[1]][2]
        swapped.append((later, label))
        return st.StateGraph(whole.nodes, [
            (s, t, label) if (s, t, e) == later else (s, t, e)
            for s, t, e in whole.edges])

    monkeypatch.setattr(st.Decoration, "move_graph", property(graph))
    code, out, err = run(capsys, "bms-lattice", maps["figure_eight"])
    assert (code, out) == (1, "")
    (later, label), *_ = swapped
    assert label != later[2]
    assert err in (f"medialq: covers by {e} and {f} add the same "
                   "join-irreducible\n"
                   for e, f in ((label, later[2]), (later[2], label)))


def test_cli_import_leaves_networkx_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, medialq.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


# Modules a verb must not load: dataclasses and PyYAML (a test-only
# dependency) everywhere; the check-all pipeline in every other verb; the
# exact rationals (fractions, and the decimal it loads) in the verbs whose
# matrices never leave the integers; the representation layer in the verbs
# that build no module; for the verbs that build no lattice also the
# lattice and BMS layers; and before a verb runs (--help, a usage error) any
# library layer, or the OpenSSL behind hashlib.
NEVER = ("dataclasses", "yaml")
PIPELINE = NEVER + ("medialq.check",)
INTEGER = PIPELINE + ("fractions", "decimal")
REPS = INTEGER + ("medialq.reps", "medialq.linalg")
LATTICES = REPS + ("medialq.lattice", "medialq.bms")
START = LATTICES + ("medialq.planar", "medialq.states", "medialq.kauffman",
                    "hashlib")
BUDGETS = [
    ("states", "trefoil", LATTICES),
    ("move-graph", "trefoil", LATTICES),
    ("invisible", "trefoil", LATTICES),
    ("nilpotency", "trefoil", LATTICES),
    ("prime-check", "trefoil_sum", LATTICES),
    ("kauffman-states", "trefoil", LATTICES),
    ("medial", "trefoil", LATTICES + ("medialq.states", "medialq.kauffman")),
    ("--help", None, START),
    ("component", "figure_eight", REPS + ("medialq.lattice",)),
    ("bms-lattice", "trefoil", REPS),
    ("clock", "trefoil", REPS),
    ("module", "figure_eight", INTEGER),
    ("verify-iso", "figure_eight", INTEGER),
    ("subreps", "figure_eight", INTEGER),
    ("jacobian-check", "figure_eight", PIPELINE),
    ("check-all", None, NEVER),  # the built-in corpus
]


def run_fresh(*argv):
    """(stdout, exit status, modules loaded) of ``main(argv)`` in a fresh
    interpreter."""
    probe = ("import sys\n"
             "from medialq.cli import main\n"
             "try:\n"
             "    code = main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"  # --help, or a usage error
             "    code = exc.code\n"
             "print(code, *sorted(sys.modules), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                          capture_output=True, text=True, check=True)
    code, *loaded = proc.stderr.splitlines()[-1].split()
    return proc.stdout, int(code), set(loaded)


@pytest.mark.parametrize("verb, name, unloaded", BUDGETS,
                         ids=[verb for verb, _, _ in BUDGETS])
def test_verb_loads_only_what_it_runs(maps, verb, name, unloaded):
    out, code, loaded = run_fresh(verb, *([maps[name]] if name else []))
    assert out and code in (0, 1)  # the verb ran and reported
    assert "medialq.cli" in loaded
    assert loaded.isdisjoint(unloaded), sorted(loaded & set(unloaded))


def test_check_all_on_a_folder_loads_no_builtin_corpus(maps):
    """The built-in corpus is read only when no folder is given."""
    out, code, loaded = run_fresh("check-all", maps["trefoil"].parent)
    assert code == 0
    assert out.endswith(f"diagrams checked: {len(maps)} failures: 0\n")
    assert "medialq.check" in loaded
    assert "medialq.corpus" not in loaded


def test_usage_error_loads_no_library_layer():
    """argparse refuses a verb without its map (exit 2) before any library
    layer is loaded."""
    out, code, loaded = run_fresh("states")
    assert (out, code) == ("", 2)
    assert "medialq.cli" in loaded
    assert loaded.isdisjoint(START), sorted(loaded & set(START))


def test_check_all_builds_no_module_per_lattice_element(
        tmp_path, capsys, monkeypatch):
    """The Jacobian relations of the 121 states of (s1 s2)^5 are decided
    without their modules: check-all builds the maximal state's module, no
    more, and decides its nilpotency once, for the battery: the
    subrepresentation check does not need it."""
    from medialq import reps

    pmap = build_planar_map(*corpus.braid_closure_shadow([1, 2] * 5, 3))
    marked = next(e for e in sorted(pmap.edges)
                  if len(set(pmap.edge_faces(e))) == 2)
    (tmp_path / "braid.map").write_text(dump_map_text(pmap, marked))
    built = []
    real = reps.state_module
    monkeypatch.setattr(reps, "state_module",
                        lambda *args: built.append(args) or real(*args))
    decided = []
    vanish = reps.is_nilpotent
    monkeypatch.setattr(reps, "is_nilpotent",
                        lambda m: decided.append(m) or vanish(m))
    code, out, _ = run(capsys, "check-all", tmp_path)
    assert code == 0
    assert "certified component lattices: 121\n" in out
    assert "cyclic-derivative residuals: 0\n" in out
    assert len(built) == 1
    assert len(decided) == 1


@pytest.mark.parametrize("extra, name", [("zz: -1\n", "'zz'"),
                                         ("on: 1\n", "'True'")])
def test_weight_keys_that_name_no_cell_exit_2(capsys, tmp_path, extra, name):
    """A misspelt cell, or YAML's `on` (the key True), is refused by name;
    the same weight without it is valid."""
    path = tmp_path / "digon.map"
    path.write_text(dump_map_text(build_planar_map(DIGON_ROT, DIGON_PAIR)))
    weight = tmp_path / "w.yaml"
    weight.write_text("v0: 1\nv1: 1\nf0: 1\nf1: 1\n")
    assert run(capsys, "states", path, "--weight", weight)[0] == 0
    weight.write_text("v0: 1\nv1: 1\nf0: 1\nf1: 1\n" + extra)
    code, out, err = run(capsys, "states", path, "--weight", weight)
    assert (code, out) == (2, "")
    assert err == (f"medialq: weight names {name}, which is no vertex or "
                   "face of the map\n")


def test_networkx_is_not_a_runtime_dependency():
    """Nor is anything else: networkx and PyYAML are the tests' oracles."""
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")

    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    for name in ("networkx", "PyYAML"):
        assert any(d.startswith(name)
                   for d in project["optional-dependencies"]["test"])
