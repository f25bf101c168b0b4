"""Command-line interface: one verb per construction in the library.

Reports are plain deterministic text: same input, same bytes.  Every
report starts with its verb and the sha256 of its inputs, so a report file
identifies what it was computed from.  Exit status is 0 for success, 1 when
a check found a counterexample or failed to certify (an internal
disagreement between two methods included), and 2 for unusable input.

Each verb imports what it runs: the top of this module loads no library
layer, so ``--help`` costs only argparse, and a state verb never pays for
the lattice, BMS or representation layers.
"""

import argparse
import sys
from itertools import chain, repeat
from operator import and_, or_
from pathlib import Path


class InputError(Exception):
    """Anything wrong with the input files or requested regime (exit 2)."""


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def _read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _header(args, inputs):
    """The report's first lines: its verb, then each input file's sha256."""
    import hashlib

    return [f"# medialq {args.verb}"] + [
        f"# input {name}: sha256 {hashlib.sha256(raw).hexdigest()}"
        for name, raw in inputs]


def _load_map(args):
    """(map, marked edge or None, the map file as an input)."""
    from .planar import parse_map_text

    raw = _read_bytes(args.map)
    pmap, marked = parse_map_text(raw.decode("utf-8"))
    return pmap, marked, [(args.map, raw)]


def _decoration(args):
    """The map decorated by the --weight file, else by the Kauffman weight
    of its marked edge; with the report header naming every input."""
    from .states import Decoration, parse_weight_text

    pmap, marked, inputs = _load_map(args)
    if args.weight:
        raw = _read_bytes(args.weight)
        omega = parse_weight_text(raw.decode("utf-8"))
        inputs.append((args.weight, raw))
    elif marked is not None:
        from .kauffman import LinkDiagram, kauffman_weight

        omega = kauffman_weight(LinkDiagram(pmap, marked))
    else:
        raise InputError("no --weight given and the map has no marked_edge")
    return Decoration.of(pmap, omega), _header(args, inputs)


def _diagram(args):
    """The link diagram of the map, with the report header."""
    from .kauffman import LinkDiagram

    pmap, marked, inputs = _load_map(args)
    if marked is None:
        raise InputError("this verb needs a link diagram with marked_edge")
    return LinkDiagram(pmap, marked), _header(args, inputs)


PIECE = 1 << 16  # characters, not lines: a join-table row can be 30,000


def _emit(args, lines):
    """Write the report's lines to --out, opened before the first line, or
    to stdout, in pieces of at most PIECE characters plus one line, so no
    report is ever held whole.  A reader that closes the pipe ends it
    quietly; any other failed write is unusable output (exit 2)."""
    try:
        out = open(args.out, "w") if args.out else sys.stdout
        try:
            piece, size = [], 0
            for line in lines:
                piece.append(line)
                size += len(line) + 1
                if size >= PIECE:
                    piece.append("")
                    out.write("\n".join(piece))
                    piece, size = [], 0
            piece.append("")
            out.write("\n".join(piece))
            out.flush()
        finally:
            if args.out:
                out.close()
    except BrokenPipeError:
        pass
    except OSError as exc:
        raise InputError(
            f"cannot write {args.out or 'stdout'}: {exc.strerror}") from exc


def _fun_text(g):
    """angle:value for the nonzero values, in angle order."""
    return g.frame.text(g.vector) or "0"


def _dims_text(pairs):
    """edge:value for the nonzero (edge, value) pairs, in edge order."""
    inner = ",".join(f"{e}:{v}" for e, v in sorted(pairs) if v)
    return inner or "0"


def _mat_text(m):
    rows = "; ".join(" ".join(str(x) for x in row) for row in m.data)
    return f"{m.rows}x{m.cols} [{rows}]"


def _bms_text(xi):
    """A BMS state by its dimension vector and f_plus."""
    return f"d={_dims_text(xi.d)} f+={_fun_text(xi.f_plus)}"


def _family_text(k):
    """A subrepresentation by its prefix lengths."""
    return f"k={_dims_text(k)}"


def _markers_text(state):
    """A Kauffman state by its marker angles."""
    return "markers=" + ",".join(state.angles)


def _lattice_lines(lat, element_text):
    """Elements (shown by element_text), covers with move labels, grades,
    and full join/meet tables, one line at a time."""
    order = lat.elements
    index = {x: i for i, x in enumerate(order)}
    yield f"elements: {len(order)}"
    for i, x in enumerate(order):
        yield f"  {i}: grade {lat.grade[x]} {element_text(x)}"
    yield f"minimum: {index[lat.minimum]}"
    yield f"maximum: {index[lat.maximum]}"
    yield f"covers: {len(lat.covers)}"
    for a, b in lat.covers:
        label = (lat.labels or {}).get((a, b))
        suffix = f" by {label}" if label is not None else ""
        yield f"  {index[a]} -> {index[b]}{suffix}"
    cert = lat.certificate
    text = {m: str(i) for m, i in cert.index_of_mask.items()}.__getitem__
    masks = cert.masks
    for name, op in (("join", or_), ("meet", and_)):
        yield f"{name} table:"  # union and intersection of masks
        for m in masks:  # each row built by map, not a Python step per entry
            yield "  " + " ".join(map(text, map(op, repeat(m), masks)))
    yield (f"certified: size {cert.size}, grades {cert.grade_range[0]}"
           f"..{cert.grade_range[1]}, sampled {cert.sampled}")


def _hasse(lines, lattice, label):
    """The report: lines, then the lattice's Hasse diagram in DOT."""
    return 0, chain(lines, lattice.poset.hasse_dot(label=label))


def _component(args):
    """(decoration, lattice of its first compatible function's component,
    header); without compatible functions the lattice is None and the header
    ends by saying so."""
    dec, lines = _decoration(args)
    if dec.first is None:
        return dec, None, lines + ["no compatible angular functions"]
    return dec, dec.component_lattice(dec.first), lines


def _top_module(args):
    """(decoration, component lattice, state module of its maximum,
    header)."""
    from .reps import state_module

    dec, lattice, lines = _component(args)
    if lattice is None:
        raise InputError("no compatible angular function, nothing to build")
    return dec, lattice, state_module(dec.pmap, lattice.maximum), lines


# ----------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------

def cmd_medial(args):
    pmap, _, inputs = _load_map(args)
    quiver = pmap.quiver
    return 0, chain(_header(args, inputs), _medial_lines(args, pmap, quiver))


def _medial_lines(args, pmap, quiver):
    from .planar import cell_key

    if args.format == "dot":
        yield "digraph medial {"
        for e in quiver.vertices:
            yield f'  "{e}";'
        for a in quiver.arrow_ids:
            s, t = quiver.arrows[a]
            yield f'  "{s}" -> "{t}" [label="{a}"];'
        yield "}"
        return
    yield (f"vertices: {len(pmap.vertices)} edges: {len(pmap.edges)} "
           f"faces: {len(pmap.faces)}")
    for f in sorted(pmap.faces, key=cell_key):
        yield f"face {f}: " + " ".join(pmap.faces[f])
    yield f"quiver vertices: {' '.join(quiver.vertices)}"
    for a in quiver.arrow_ids:
        s, t = quiver.arrows[a]
        ang = quiver.angles[a]
        yield f"arrow {a}: {s} -> {t} (vertex {ang.vertex}, face {ang.face})"


def cmd_states(args):
    dec, lines = _decoration(args)
    lines.append(f"compatible angular functions: {len(dec.states)}")
    return 0, chain(lines, (f"  {i}: {text}"
                            for i, text in enumerate(dec.state_texts())))


def cmd_move_graph(args):
    dec, lines = _decoration(args)
    graph = dec.move_graph
    if args.format == "dot":
        return 0, chain(lines, ["digraph moves {"], (
            f'  n{i} [label="{text}"];'
            for i, text in enumerate(dec.state_texts())), (
            f'  n{s} -> n{t} [label="{e}"];' for s, t, e in graph.edges), ["}"])
    lines.append(f"states: {len(dec.states)} moves: {len(graph.edges)}")
    return 0, chain(lines, (
        f"  {i}: {text}" for i, text in enumerate(dec.state_texts())), (
        f"  {s} -> {t} by {e}" for s, t, e in graph.edges),
        [f"components: {len(graph.components)}"])


def cmd_invisible(args):
    from .states import EmptyStateSet, NotNilpotencyZero, gamma_inv_connected

    dec, lines = _decoration(args)
    try:
        arrows = dec.invisible_arrows
    except EmptyStateSet:
        lines.append("no compatible angular functions; nothing is invisible")
        return 0, lines
    lines.append(f"invisible arrows: {' '.join(sorted(arrows)) or 'none'}")
    edges = dec.invisible_edges
    lines.append(f"invisible edges: {' '.join(sorted(edges)) or 'none'}")
    try:
        connected, ncomp = gamma_inv_connected(dec.pmap, dec.omega)
        lines.append(f"invisible cycle graph components: {ncomp} "
                     f"(connected: {connected})")
    except NotNilpotencyZero:
        lines.append("no invisible cycles: nilpotency degree is positive")
    return 0, lines


def cmd_nilpotency(args):
    from .states import EmptyStateSet

    dec, lines = _decoration(args)
    try:
        lines.append(f"nilpotency degree: {dec.nilpotency}")
    except EmptyStateSet:
        lines.append("nilpotency degree undefined: no compatible functions")
    return 0, lines


def cmd_bms_lattice(args):
    dec, lattice, lines = _component(args)
    if lattice is None:
        return 0, lines
    if args.format == "dot":
        return _hasse(lines, lattice, lambda x: _dims_text(x.d))
    lines.append(f"component covers {len(lattice)} of {len(dec.states)} states")
    return 0, chain(lines, _lattice_lines(lattice, _bms_text))


def cmd_component(args):
    from .bms import component_minimum

    dec, lines = _decoration(args)
    graph = dec.move_graph
    comps = graph.components
    lines.append(f"states: {len(graph.nodes)} components: {len(comps)}")
    for i, comp in enumerate(comps):
        g0, d = component_minimum(dec.pmap, dec.omega, graph.nodes[comp[0]])
        lines.append(f"component {i}: size {len(comp)} "
                     f"minimum {_fun_text(g0)} "
                     f"({sum(d.values())} anti-moves down)")
    return 0, lines


def cmd_subobjects(args):
    _, lattice, lines = _component(args)
    if lattice is None:
        return 0, lines
    top = lattice.maximum  # its plus-subobjects: its component lattice
    lines.append(f"subobjects of the maximal state {_bms_text(top)}")
    if args.format == "dot":
        return _hasse(lines, lattice, lambda x: _dims_text(x.d))
    return 0, chain(lines, _lattice_lines(lattice, _bms_text))


def cmd_clock(args):
    from .kauffman import clock_lattice

    diagram, lines = _diagram(args)
    lattice = clock_lattice(diagram)
    if args.format == "dot":
        return _hasse(lines, lattice, lambda x: ",".join(x.angles))
    lines.append(f"clock lattice of {args.map} "
                 f"(marked edge {diagram.marked_edge})")
    return 0, chain(lines, _lattice_lines(lattice, _markers_text))


def cmd_prime_check(args):
    diagram, lines = _diagram(args)
    witness = diagram.separating_pair
    if witness is None:
        lines.append("prime: yes (no separating edge pair)")
        return 0, lines
    lines.append(f"prime: no, separating pair {witness[0]} {witness[1]}")
    return 1, lines


def cmd_kauffman_states(args):
    from .kauffman import enumerate_kauffman_states

    diagram, lines = _diagram(args)
    states = enumerate_kauffman_states(diagram)
    lines.append(f"kauffman states: {len(states)}")
    return 0, chain(lines, (f"  {i}: " + ",".join(state.angles)
                            for i, state in enumerate(states)))


def cmd_module(args):
    _, lattice, module, lines = _top_module(args)
    lines.append(
        f"state module of the maximal state {_bms_text(lattice.maximum)}")
    lines.append("dims: " + " ".join(
        f"{e}:{module.dims[e]}" for e in module.vertices))
    return 0, chain(lines, (
        f"arrow {a}: {s} -> {t} {_mat_text(module.mats[a])}"
        for a, (s, t) in sorted(module.arrows.items())))


def cmd_jacobian_check(args):
    from . import reps

    dec, lattice, lines = _component(args)
    if lattice is None:
        return 0, lines
    potential = reps.canonical_potential(dec.pmap, dec.omega)
    lines.append(f"potential terms: {len(potential.terms)}")
    found = [reps.state_jacobian(dec.pmap, state, potential)
             for state in lattice.elements]
    bad = sum(len(report.nonzero) for report in found)

    def body():
        for i, (state, report) in enumerate(zip(lattice.elements, found)):
            verdict = "ok" if report.ok else "NONZERO RESIDUAL"
            yield (f"state {i} ({_dims_text(state.d)}): "
                   f"{report.arrows_checked} derivatives {verdict}")
            for arrow, residual in report.nonzero:
                yield f"  residual at {arrow}: {_mat_text(residual)}"
        yield f"states checked: {len(lattice)} violations: {bad}"
    return (1 if bad else 0), chain(lines, body())


def cmd_endo(args):
    from .reps import endomorphism_ring

    _, lattice, module, lines = _top_module(args)
    ring = endomorphism_ring(module)
    lines.append(f"endomorphisms of the maximal state module "
                 f"{_bms_text(lattice.maximum)}")
    lines.append(f"dimension: {ring.dimension} semisimple rank: "
                 f"{ring.gram_rank} local: {ring.is_local}")
    shown = [e for e in module.vertices if module.dims[e]]
    return 0, chain(lines, (
        f"  basis {i}: " + " ".join(f"{e}:{_mat_text(endo[e])}" for e in shown)
        for i, endo in enumerate(ring.basis)))


def cmd_subreps(args):
    """The component lattice shown by x.d, which is the subrepresentation
    lattice of the maximal state module once ``verify_subrep_isomorphism``
    matches their least points: grades, order, labels and masks included."""
    from .lattice import CertificationFailed
    from .reps import verify_subrep_isomorphism

    dec, lattice, module, lines = _top_module(args)
    if not verify_subrep_isomorphism(lattice, module, dec.omega):
        raise CertificationFailed(
            "the subrepresentations of the maximal state module are not its "
            "plus-subobjects under x -> x.d")
    lines.append(f"subrepresentations of the maximal state module "
                 f"{_bms_text(lattice.maximum)}")
    if args.format == "dot":
        return _hasse(lines, lattice, lambda x: _dims_text(x.d))
    return 0, chain(lines,
                    _lattice_lines(lattice, lambda x: _family_text(x.d)))


def cmd_verify_iso(args):
    from .reps import state_module, verify_subrep_isomorphism

    dec, lattice, lines = _component(args)
    if lattice is None:
        return 0, lines
    top = lattice.maximum
    ok = verify_subrep_isomorphism(lattice, state_module(dec.pmap, top),
                                   dec.omega)
    lines.append(f"maximal state: {_bms_text(top)}")
    lines.append(f"plus-subobjects: {len(lattice)} "
                 f"subrepresentations: {len(lattice) if ok else 'differ'}")
    return (0 if ok else 1), chain(lines, (
        f"  {_dims_text(state.d)} -> {_family_text(state.d)}"
        for state in lattice.elements), [
        f"order isomorphism: {ok} grades match: {ok}"])


# ----------------------------------------------------------------------
# the whole suite
# ----------------------------------------------------------------------

def _check_report(v):
    """(failures, lines) of one diagram's ``check.Verdicts``."""
    lines, failures = [], []

    def show(label, value, holds=True, failure=None):
        if isinstance(value, Exception):  # the verdict of a failed stage
            holds, failure = False, f"{label}: {type(value).__name__}: {value}"
            value = f"ERROR {type(value).__name__}: {value}"
        if not holds:
            failures.append(failure)
        lines.append(f"  {label}: {value}")

    sizes = v.component_sizes
    show("kauffman states (dual enumeration agrees)", v.kauffman_states)
    show("nilpotency degree", v.nilpotency)
    show("invisible cycle graph components", v.invisible_components)
    show("angular functions", f"{sum(sizes)} in {len(sizes)} component(s)")
    failures += [f"lattice size {lat} != component size {comp}"
                 for lat, comp in zip(v.lattice_sizes, sizes) if lat != comp]
    show("certified component lattices", " ".join(map(str, v.lattice_sizes)))
    show("projection onto the move graph", f"ok={v.projection_ok}",
         v.projection_ok, "forgetful projection is not a move-graph isomorphism")
    show("cyclic-derivative residuals", v.residuals, not v.residuals,
         f"{v.residuals} nonzero cyclic-derivative residuals")
    show("prime", v.prime)
    if v.prime:
        show("clock lattice", f"{v.clock_size} states",
             v.clock_size == v.kauffman_states,
             f"clock lattice has {v.clock_size} of {v.kauffman_states} states")
    if not v.module_nilpotent:
        failures.append("maximal state module is not nilpotent")
    show("maximal module indecomposable (methods agree)", v.indecomposable)
    show("simple quotients = anti-movable edges",
         sorted(v.anti_movable) or "none", v.quotients_match,
         "simple quotients do not match anti-movable edges")
    show("subrep lattice isomorphism",
         f"ok={v.subrep_iso} size={max(v.lattice_sizes)}",
         v.subrep_iso, "subobject/subrepresentation lattices disagree")
    return failures, lines


def cmd_check_all(args):
    from .check import check_diagram
    from .kauffman import LinkDiagram
    from .reps import CandidateSpaceTooLarge

    if args.path:
        folder = Path(args.path)
        if not folder.is_dir():
            raise InputError(f"{folder} is not a directory" if folder.exists()
                             else f"cannot read {folder}: "
                                  "No such file or directory")
        files = sorted(folder.glob("*.map"))
        if not files:
            raise InputError(f"no .map files in {folder}")
        sources = [(str(p), _read_bytes(p)) for p in files]
    else:
        from importlib import resources

        from . import corpus

        folder = resources.files("medialq").joinpath("corpus")
        sources = [(f"builtin:{name}",
                    folder.joinpath(f"{name}.map").read_bytes())
                   for name in corpus.names()]
    lines, failed = _header(args, sources), 0
    for name, raw in sources:
        try:
            verdicts = check_diagram(LinkDiagram.from_text(raw.decode("utf-8")))
        except CandidateSpaceTooLarge:
            raise  # a refusal, reported without the diagram's name
        except ValueError as exc:
            raise InputError(f"{name}: {exc}") from exc
        failures, body = _check_report(verdicts)
        lines += [f"{name}:", *body, *(f"  FAIL: {f}" for f in failures)]
        failed += len(failures)
    lines.append(f"diagrams checked: {len(sources)} failures: {failed}")
    return (1 if failed else 0), lines


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="medialq",
        description="planar maps, medial quivers, state lattices, and their "
                    "representations")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, *, weight=False, fmt=False, map_arg=True):
        p = sub.add_parser(name)
        if map_arg:
            p.add_argument("map", help="rotation-system input file")
        p.add_argument("--out", help="write the report here instead of stdout")
        if weight:
            p.add_argument("--weight", help="weight file (defaults to the "
                           "Kauffman weight of the marked edge)")
        if fmt:
            p.add_argument("--format", choices=("dump", "dot"),
                           default="dump")
        p.set_defaults(func=fn)
        return p

    add("medial", cmd_medial, fmt=True)
    add("states", cmd_states, weight=True)
    add("move-graph", cmd_move_graph, weight=True, fmt=True)
    add("invisible", cmd_invisible, weight=True)
    add("nilpotency", cmd_nilpotency, weight=True)
    add("bms-lattice", cmd_bms_lattice, weight=True, fmt=True)
    add("component", cmd_component, weight=True)
    add("subobjects", cmd_subobjects, weight=True, fmt=True)
    add("clock", cmd_clock, fmt=True)
    add("prime-check", cmd_prime_check)
    add("kauffman-states", cmd_kauffman_states)
    add("module", cmd_module, weight=True)
    add("jacobian-check", cmd_jacobian_check, weight=True)
    add("endo", cmd_endo, weight=True)
    add("subreps", cmd_subreps, weight=True, fmt=True)
    add("verify-iso", cmd_verify_iso, weight=True)
    allp = add("check-all", cmd_check_all, map_arg=False)
    allp.add_argument("path", nargs="?",
                      help="directory of .map files (default: built-in corpus)")

    return parser


def main(argv=None) -> int:
    """Run one verb.  Exit 1 on a counterexample or an internal disagreement
    (an ``AssertionError``, as ``lattice.CertificationFailed`` is, or a
    ``kauffman.NotPrime``), exit 2 on unusable input or a refusal (every
    other ``ValueError``, ``reps.CandidateSpaceTooLarge`` included)."""
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
        _emit(args, lines)
    except (AssertionError, InputError, ValueError) as exc:
        print(f"medialq: {exc}", file=sys.stderr)
        kauffman = sys.modules.get("medialq.kauffman")  # NotPrime's only source
        found = (AssertionError,) + ((kauffman.NotPrime,) if kauffman else ())
        return 1 if isinstance(exc, found) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
