"""Golden CLI reports: every verb, byte for byte.

Each case runs ``cli.main`` and compares (exit code, sha256 of stdout,
sha256 of stderr) with digests recorded from the reference implementation.
The cases cover every verb (and every ``--format dot`` variant) on every
corpus diagram, ``check-all`` on the built-in corpus, and the weight verbs
under explicit ``--weight`` files: the four weights of ``test_states`` with
positive nilpotency, two frozen components and an empty state set, plus an
invalid and an incomplete weight.  Inputs are written under fixed relative
names because every report header names its input files.

Digests are the first 16 hex digits of the sha256.  To re-record after a
deliberate change of output, run ``PYTHONPATH=src python
tests/test_golden.py --write``; without ``--write`` it prints the table.
"""

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from conftest import DIGON_PAIR, DIGON_ROT, TRIANGLE_PAIR, TRIANGLE_ROT
from medialq import corpus
from medialq.cli import main
from medialq.planar import build_planar_map, dump_map_text
from medialq.states import dump_weight_text

MAP_VERBS = ("medial", "states", "move-graph", "invisible", "nilpotency",
             "bms-lattice", "component", "subobjects", "clock", "prime-check",
             "kauffman-states", "module", "jacobian-check", "endo", "subreps",
             "verify-iso")
WEIGHT_VERBS = ("states", "move-graph", "invisible", "nilpotency",
                "bms-lattice", "component", "subobjects", "module",
                "jacobian-check", "endo", "subreps", "verify-iso")
DOT_VERBS = ("medial", "move-graph", "bms-lattice", "subobjects", "clock",
             "subreps")

# The weights of test_states, and two the CLI must refuse.
WEIGHTS = {
    "triangle": ("triangle", {"v0": 1, "v1": 1, "v2": 2, "f0": 2, "f1": 2}),
    "digon": ("digon", {"v0": 1, "v1": 1, "f0": 1, "f1": 1}),
    "hopf": ("hopf", {"v0": 1, "v1": 1, "f0": 0, "f1": 1, "f2": 1, "f3": 0}),
    "empty": ("trefoil", None),
    "unequal": ("digon", {"v0": 2, "v1": 1, "f0": 1, "f1": 1}),
    "missing": ("digon", {"v0": 1, "v1": 1, "f0": 1}),
}


def _empty_state_weight(pmap):
    """A bigon face weighted heavier than its two crossings (test_states)."""
    bigon = next(f for f, cyc in pmap.faces.items() if len(cyc) == 2)
    touched = {pmap.vertex_of[pmap.theta[d]] for d in pmap.faces[bigon]}
    far = next(v for v in pmap.vertices if v not in touched)
    omega = {c: 0 for c in list(pmap.vertices) + list(pmap.faces)}
    omega[bigon] = 1
    omega[far] = 1
    return omega


def _cases():
    cases = {"check-all": ["check-all"]}
    for name in corpus.names():
        for verb in MAP_VERBS:
            cases[f"{verb}/{name}"] = [verb, f"{name}.map"]
        for verb in DOT_VERBS:
            cases[f"{verb}-dot/{name}"] = [verb, f"{name}.map",
                                           "--format", "dot"]
    for wname, (mname, _) in WEIGHTS.items():
        for verb in WEIGHT_VERBS:
            cases[f"{verb}/{mname}+{wname}"] = [
                verb, f"{mname}.map", "--weight", f"{wname}.yaml"]
        for verb in set(DOT_VERBS) & set(WEIGHT_VERBS):
            cases[f"{verb}-dot/{mname}+{wname}"] = [
                verb, f"{mname}.map", "--weight", f"{wname}.yaml",
                "--format", "dot"]
    return cases


CASES = _cases()


def write_inputs(folder):
    """The corpus files, the triangle and digon maps and the weight files."""
    maps = {name: corpus.load(name)[0] for name in corpus.names()}
    for name in corpus.names():
        shipped = resources.files("medialq").joinpath(f"corpus/{name}.map")
        (folder / f"{name}.map").write_bytes(shipped.read_bytes())
    maps["triangle"] = build_planar_map(TRIANGLE_ROT, TRIANGLE_PAIR)
    maps["digon"] = build_planar_map(DIGON_ROT, DIGON_PAIR)
    for name in ("triangle", "digon"):
        (folder / f"{name}.map").write_text(dump_map_text(maps[name]))
    for wname, (mname, omega) in WEIGHTS.items():
        if omega is None:
            omega = _empty_state_weight(maps[mname])
        (folder / f"{wname}.yaml").write_text(dump_weight_text(omega))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    write_inputs(folder)
    return folder


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _digest(argv):
    """(exit code, stdout digest, stderr digest) of one run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def golden_table():
    """The source of the GOLDEN table, recorded from the current code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        write_inputs(Path(folder))
        os.chdir(folder)
        try:
            rows = [f"    {case!r}: {_digest(CASES[case])!r},"
                    for case in sorted(CASES)]
        finally:
            os.chdir(cwd)
    return "GOLDEN = {\n" + "\n".join(rows) + "\n}\n"


def test_every_case_has_a_recorded_digest():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert _digest(CASES[case]) == GOLDEN[case]


GOLDEN = {
    'bms-lattice-dot/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'bms-lattice-dot/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'bms-lattice-dot/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'bms-lattice-dot/figure_eight': (0, '2946b16c7f8cf417', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/hopf': (0, '879bac34ffd9744c', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/hopf+hopf': (0, '99ebd222dbb61342', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/torus_2_4': (0, '41c29135d6bf8e1f', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/torus_2_5': (0, 'ca2b20c776012d47', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/torus_2_6': (0, '7a367917216e8134', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/trefoil': (0, '2b5f643c1641fb10', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/trefoil+empty': (0, 'dc1bfccdd2fa953e', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/trefoil_sum': (0, '537d5db96d5121e2', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'bms-lattice/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'bms-lattice/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'bms-lattice/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'bms-lattice/figure_eight': (0, 'cc67932fab7774d8', 'e3b0c44298fc1c14'),
    'bms-lattice/hopf': (0, '247829f6d4b593e6', 'e3b0c44298fc1c14'),
    'bms-lattice/hopf+hopf': (0, '5d5f59e150933413', 'e3b0c44298fc1c14'),
    'bms-lattice/torus_2_4': (0, 'e45f64745236dee3', 'e3b0c44298fc1c14'),
    'bms-lattice/torus_2_5': (0, '39a30e86144fc490', 'e3b0c44298fc1c14'),
    'bms-lattice/torus_2_6': (0, '2f2c61c2fc741ab4', 'e3b0c44298fc1c14'),
    'bms-lattice/trefoil': (0, 'b036449d62982364', 'e3b0c44298fc1c14'),
    'bms-lattice/trefoil+empty': (0, 'dc1bfccdd2fa953e', 'e3b0c44298fc1c14'),
    'bms-lattice/trefoil_sum': (0, '10c3f5f9372104ff', 'e3b0c44298fc1c14'),
    'bms-lattice/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'check-all': (0, 'f3d35af071f7c596', 'e3b0c44298fc1c14'),
    'clock-dot/figure_eight': (0, 'c86fd0d31bef28ee', 'e3b0c44298fc1c14'),
    'clock-dot/hopf': (0, 'a4d20979cc730883', 'e3b0c44298fc1c14'),
    'clock-dot/torus_2_4': (0, '61e4ba0514484532', 'e3b0c44298fc1c14'),
    'clock-dot/torus_2_5': (0, '6e8c6f3f099c56c0', 'e3b0c44298fc1c14'),
    'clock-dot/torus_2_6': (0, '9da8a52fba3f2934', 'e3b0c44298fc1c14'),
    'clock-dot/trefoil': (0, '5ed91537c2de9626', 'e3b0c44298fc1c14'),
    'clock-dot/trefoil_sum': (1, 'e3b0c44298fc1c14', '3bf1bc5eeee8a413'),
    'clock/figure_eight': (0, 'ee9b02d34519acf7', 'e3b0c44298fc1c14'),
    'clock/hopf': (0, 'febcb533994b6a99', 'e3b0c44298fc1c14'),
    'clock/torus_2_4': (0, 'fbaf3308e26bb62a', 'e3b0c44298fc1c14'),
    'clock/torus_2_5': (0, 'f51dbfb39edc9a50', 'e3b0c44298fc1c14'),
    'clock/torus_2_6': (0, 'de5c6437ed11e4a3', 'e3b0c44298fc1c14'),
    'clock/trefoil': (0, '79e36d8cf1582b90', 'e3b0c44298fc1c14'),
    'clock/trefoil_sum': (1, 'e3b0c44298fc1c14', '3bf1bc5eeee8a413'),
    'component/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'component/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'component/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'component/figure_eight': (0, 'daf72c045ed14001', 'e3b0c44298fc1c14'),
    'component/hopf': (0, '0ba4ed7db722a316', 'e3b0c44298fc1c14'),
    'component/hopf+hopf': (0, '887e84d6550d151c', 'e3b0c44298fc1c14'),
    'component/torus_2_4': (0, '1ccabdb11b069db8', 'e3b0c44298fc1c14'),
    'component/torus_2_5': (0, '88149793554817ac', 'e3b0c44298fc1c14'),
    'component/torus_2_6': (0, '7f9d0b808301bfec', 'e3b0c44298fc1c14'),
    'component/trefoil': (0, '22bbcee4e0218f11', 'e3b0c44298fc1c14'),
    'component/trefoil+empty': (0, '476179d966d347f1', 'e3b0c44298fc1c14'),
    'component/trefoil_sum': (0, 'b56656d179695bb8', 'e3b0c44298fc1c14'),
    'component/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'endo/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'endo/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'endo/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'endo/figure_eight': (0, '00b9e9ad223a19fe', 'e3b0c44298fc1c14'),
    'endo/hopf': (0, '3220a9913681f044', 'e3b0c44298fc1c14'),
    'endo/hopf+hopf': (0, 'd50b124a824dce81', 'e3b0c44298fc1c14'),
    'endo/torus_2_4': (0, '4fb7f1b0c6dd05e5', 'e3b0c44298fc1c14'),
    'endo/torus_2_5': (0, 'ee41e5164e5aafc3', 'e3b0c44298fc1c14'),
    'endo/torus_2_6': (0, '1d8ddcde61837610', 'e3b0c44298fc1c14'),
    'endo/trefoil': (0, 'f7d62c4f0b5c8a46', 'e3b0c44298fc1c14'),
    'endo/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'endo/trefoil_sum': (0, '47c54196cec0fa9f', 'e3b0c44298fc1c14'),
    'endo/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'invisible/digon+digon': (0, 'd25208df8b0fbeec', 'e3b0c44298fc1c14'),
    'invisible/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'invisible/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'invisible/figure_eight': (0, '5faeedb3b9ac250d', 'e3b0c44298fc1c14'),
    'invisible/hopf': (0, 'dd9095bbdcf8cdb7', 'e3b0c44298fc1c14'),
    'invisible/hopf+hopf': (0, '81464c1b9f99b126', 'e3b0c44298fc1c14'),
    'invisible/torus_2_4': (0, '5af2f8953b94cc44', 'e3b0c44298fc1c14'),
    'invisible/torus_2_5': (0, '5e8f803028b1664f', 'e3b0c44298fc1c14'),
    'invisible/torus_2_6': (0, '2a0131e7a4d7d755', 'e3b0c44298fc1c14'),
    'invisible/trefoil': (0, '2031bdb2b64810d7', 'e3b0c44298fc1c14'),
    'invisible/trefoil+empty': (0, '4f014a027a7ebfcc', 'e3b0c44298fc1c14'),
    'invisible/trefoil_sum': (0, 'acd893eeb38bf0d9', 'e3b0c44298fc1c14'),
    'invisible/triangle+triangle': (0, '9c9fe07b551bb274', 'e3b0c44298fc1c14'),
    'jacobian-check/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'jacobian-check/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'jacobian-check/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'jacobian-check/figure_eight': (0, '8664d4574d6b2b7f', 'e3b0c44298fc1c14'),
    'jacobian-check/hopf': (0, '9542a3c67c500614', 'e3b0c44298fc1c14'),
    'jacobian-check/hopf+hopf': (0, '6f0ae705cd61d625', 'e3b0c44298fc1c14'),
    'jacobian-check/torus_2_4': (0, 'b1c14771812505e3', 'e3b0c44298fc1c14'),
    'jacobian-check/torus_2_5': (0, '51580f44cf55ce49', 'e3b0c44298fc1c14'),
    'jacobian-check/torus_2_6': (0, '8733095f2b8a34c3', 'e3b0c44298fc1c14'),
    'jacobian-check/trefoil': (0, '638f8928161c2fd9', 'e3b0c44298fc1c14'),
    'jacobian-check/trefoil+empty': (0, 'bd929136f135501f', 'e3b0c44298fc1c14'),
    'jacobian-check/trefoil_sum': (0, 'da0d8be61ce6cc23', 'e3b0c44298fc1c14'),
    'jacobian-check/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'kauffman-states/figure_eight': (0, '6a1fccc77f8a6993', 'e3b0c44298fc1c14'),
    'kauffman-states/hopf': (0, 'd21bd956cdb4c01f', 'e3b0c44298fc1c14'),
    'kauffman-states/torus_2_4': (0, '6b23e0020987453d', 'e3b0c44298fc1c14'),
    'kauffman-states/torus_2_5': (0, '7b95c87853d829f3', 'e3b0c44298fc1c14'),
    'kauffman-states/torus_2_6': (0, '592bf871ccc02a64', 'e3b0c44298fc1c14'),
    'kauffman-states/trefoil': (0, '7694a4569553b9fb', 'e3b0c44298fc1c14'),
    'kauffman-states/trefoil_sum': (0, '6151ef518cdcf858', 'e3b0c44298fc1c14'),
    'medial-dot/figure_eight': (0, '249d65db7d29dfb0', 'e3b0c44298fc1c14'),
    'medial-dot/hopf': (0, 'ee0f197bf681ab31', 'e3b0c44298fc1c14'),
    'medial-dot/torus_2_4': (0, 'b546885c0441fb94', 'e3b0c44298fc1c14'),
    'medial-dot/torus_2_5': (0, '451e66046d2ae50c', 'e3b0c44298fc1c14'),
    'medial-dot/torus_2_6': (0, '16f6b38634915b61', 'e3b0c44298fc1c14'),
    'medial-dot/trefoil': (0, '44afdf56b9605d9b', 'e3b0c44298fc1c14'),
    'medial-dot/trefoil_sum': (0, 'ac96dcf2ca02f3c7', 'e3b0c44298fc1c14'),
    'medial/figure_eight': (0, '37640edacff91190', 'e3b0c44298fc1c14'),
    'medial/hopf': (0, 'c37526886db44a5b', 'e3b0c44298fc1c14'),
    'medial/torus_2_4': (0, '5019baf8ac6bfa5e', 'e3b0c44298fc1c14'),
    'medial/torus_2_5': (0, '2c7a4c13042af767', 'e3b0c44298fc1c14'),
    'medial/torus_2_6': (0, '6207b24ae50f9749', 'e3b0c44298fc1c14'),
    'medial/trefoil': (0, 'adeef7e8422c73e6', 'e3b0c44298fc1c14'),
    'medial/trefoil_sum': (0, '2a60df653e8f1f33', 'e3b0c44298fc1c14'),
    'module/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'module/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'module/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'module/figure_eight': (0, 'dff122ff9a9a0976', 'e3b0c44298fc1c14'),
    'module/hopf': (0, '5404219f01b54928', 'e3b0c44298fc1c14'),
    'module/hopf+hopf': (0, 'ebf641f96a01990e', 'e3b0c44298fc1c14'),
    'module/torus_2_4': (0, '67ee3eadb44c4b9f', 'e3b0c44298fc1c14'),
    'module/torus_2_5': (0, '353cfaa00f419676', 'e3b0c44298fc1c14'),
    'module/torus_2_6': (0, 'd7385428745f8b91', 'e3b0c44298fc1c14'),
    'module/trefoil': (0, '37b0fdefd2475403', 'e3b0c44298fc1c14'),
    'module/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'module/trefoil_sum': (0, 'a19ce52033627fc4', 'e3b0c44298fc1c14'),
    'module/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'move-graph-dot/digon+digon': (0, 'eab4ba05f91a064b', 'e3b0c44298fc1c14'),
    'move-graph-dot/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'move-graph-dot/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'move-graph-dot/figure_eight': (0, '6258f98310a9957e', 'e3b0c44298fc1c14'),
    'move-graph-dot/hopf': (0, '6bc64623efa55baf', 'e3b0c44298fc1c14'),
    'move-graph-dot/hopf+hopf': (0, 'b4c3fcbad65ce7e3', 'e3b0c44298fc1c14'),
    'move-graph-dot/torus_2_4': (0, '5daa29c3d810f0a0', 'e3b0c44298fc1c14'),
    'move-graph-dot/torus_2_5': (0, '217ff30f4e68495a', 'e3b0c44298fc1c14'),
    'move-graph-dot/torus_2_6': (0, '0196c1808115a205', 'e3b0c44298fc1c14'),
    'move-graph-dot/trefoil': (0, '1458872866a3f5f1', 'e3b0c44298fc1c14'),
    'move-graph-dot/trefoil+empty': (0, '8357b2c284c40953', 'e3b0c44298fc1c14'),
    'move-graph-dot/trefoil_sum': (0, 'e2e8a6237d48a495', 'e3b0c44298fc1c14'),
    'move-graph-dot/triangle+triangle': (0, 'bb9e0b5ac2b97c0f', 'e3b0c44298fc1c14'),
    'move-graph/digon+digon': (0, '4242350e410a429f', 'e3b0c44298fc1c14'),
    'move-graph/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'move-graph/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'move-graph/figure_eight': (0, '886540efadaa3d05', 'e3b0c44298fc1c14'),
    'move-graph/hopf': (0, '3d2cc21455ba5848', 'e3b0c44298fc1c14'),
    'move-graph/hopf+hopf': (0, '1cd75defc0c0ff4d', 'e3b0c44298fc1c14'),
    'move-graph/torus_2_4': (0, 'a0bfe1815b18204b', 'e3b0c44298fc1c14'),
    'move-graph/torus_2_5': (0, 'f46967e193041a51', 'e3b0c44298fc1c14'),
    'move-graph/torus_2_6': (0, '07a19c043fea52bc', 'e3b0c44298fc1c14'),
    'move-graph/trefoil': (0, '23a7719aa879bef1', 'e3b0c44298fc1c14'),
    'move-graph/trefoil+empty': (0, 'ab33f573ad0b9f18', 'e3b0c44298fc1c14'),
    'move-graph/trefoil_sum': (0, '9825ca6114e414ae', 'e3b0c44298fc1c14'),
    'move-graph/triangle+triangle': (0, 'b5b3ab9df86a99f6', 'e3b0c44298fc1c14'),
    'nilpotency/digon+digon': (0, '2c40876260217fe0', 'e3b0c44298fc1c14'),
    'nilpotency/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'nilpotency/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'nilpotency/figure_eight': (0, '9767de0ad1ee3a53', 'e3b0c44298fc1c14'),
    'nilpotency/hopf': (0, 'e56b825015bf50c8', 'e3b0c44298fc1c14'),
    'nilpotency/hopf+hopf': (0, '447d4683ef70f872', 'e3b0c44298fc1c14'),
    'nilpotency/torus_2_4': (0, 'ef98d0f81b8b13ff', 'e3b0c44298fc1c14'),
    'nilpotency/torus_2_5': (0, '6bc057410656d036', 'e3b0c44298fc1c14'),
    'nilpotency/torus_2_6': (0, '9ef138672b8b0154', 'e3b0c44298fc1c14'),
    'nilpotency/trefoil': (0, 'df2e35b7aa11ef58', 'e3b0c44298fc1c14'),
    'nilpotency/trefoil+empty': (0, '33bb14e1ed25628d', 'e3b0c44298fc1c14'),
    'nilpotency/trefoil_sum': (0, 'd6cb34d0b46c8073', 'e3b0c44298fc1c14'),
    'nilpotency/triangle+triangle': (0, '17066446dd50e47a', 'e3b0c44298fc1c14'),
    'prime-check/figure_eight': (0, '2effff9e9bce031d', 'e3b0c44298fc1c14'),
    'prime-check/hopf': (0, 'c9176d55f4d69ab5', 'e3b0c44298fc1c14'),
    'prime-check/torus_2_4': (0, '561a7ad0d49628bf', 'e3b0c44298fc1c14'),
    'prime-check/torus_2_5': (0, '9674f66b694f84db', 'e3b0c44298fc1c14'),
    'prime-check/torus_2_6': (0, 'c577a35a07ca747b', 'e3b0c44298fc1c14'),
    'prime-check/trefoil': (0, '3482a165b842cd0d', 'e3b0c44298fc1c14'),
    'prime-check/trefoil_sum': (1, 'f3c22e8d78bb9f0b', 'e3b0c44298fc1c14'),
    'states/digon+digon': (0, '90f7d68d641aabb5', 'e3b0c44298fc1c14'),
    'states/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'states/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'states/figure_eight': (0, '15909212d25b3e58', 'e3b0c44298fc1c14'),
    'states/hopf': (0, 'e19b43d4e0d63873', 'e3b0c44298fc1c14'),
    'states/hopf+hopf': (0, 'bd0d54ea007eb5bd', 'e3b0c44298fc1c14'),
    'states/torus_2_4': (0, 'b28a3b96a3963053', 'e3b0c44298fc1c14'),
    'states/torus_2_5': (0, '37dcd0b509164572', 'e3b0c44298fc1c14'),
    'states/torus_2_6': (0, '100a8a66a9500b93', 'e3b0c44298fc1c14'),
    'states/trefoil': (0, 'e657d048c6ce46c7', 'e3b0c44298fc1c14'),
    'states/trefoil+empty': (0, 'ccf32a3d7cca0d57', 'e3b0c44298fc1c14'),
    'states/trefoil_sum': (0, 'd210c874f2b55f90', 'e3b0c44298fc1c14'),
    'states/triangle+triangle': (0, '565ed43a8df85c43', 'e3b0c44298fc1c14'),
    'subobjects-dot/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subobjects-dot/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subobjects-dot/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subobjects-dot/figure_eight': (0, '78bf2cb430b486dd', 'e3b0c44298fc1c14'),
    'subobjects-dot/hopf': (0, 'a8d64bfe71d70c7e', 'e3b0c44298fc1c14'),
    'subobjects-dot/hopf+hopf': (0, 'f05029b68d9be88d', 'e3b0c44298fc1c14'),
    'subobjects-dot/torus_2_4': (0, '83a5a1e7583de4a4', 'e3b0c44298fc1c14'),
    'subobjects-dot/torus_2_5': (0, 'b214c9416781146b', 'e3b0c44298fc1c14'),
    'subobjects-dot/torus_2_6': (0, '3b44517db13a9b6a', 'e3b0c44298fc1c14'),
    'subobjects-dot/trefoil': (0, 'dbdf6e28a2fb4e45', 'e3b0c44298fc1c14'),
    'subobjects-dot/trefoil+empty': (0, '90e8f6840830a6b4', 'e3b0c44298fc1c14'),
    'subobjects-dot/trefoil_sum': (0, '42c8aa3557599d0c', 'e3b0c44298fc1c14'),
    'subobjects-dot/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subobjects/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subobjects/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subobjects/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subobjects/figure_eight': (0, '803498d6d62f2d0a', 'e3b0c44298fc1c14'),
    'subobjects/hopf': (0, 'a579f92f9d23dc02', 'e3b0c44298fc1c14'),
    'subobjects/hopf+hopf': (0, 'a10f76b3c8b49d2c', 'e3b0c44298fc1c14'),
    'subobjects/torus_2_4': (0, 'dbf03fbf57bd4e4c', 'e3b0c44298fc1c14'),
    'subobjects/torus_2_5': (0, '741a8b4bcdccfe88', 'e3b0c44298fc1c14'),
    'subobjects/torus_2_6': (0, '598d527a19f1f37d', 'e3b0c44298fc1c14'),
    'subobjects/trefoil': (0, '1dbf1e4e16c73f8c', 'e3b0c44298fc1c14'),
    'subobjects/trefoil+empty': (0, '90e8f6840830a6b4', 'e3b0c44298fc1c14'),
    'subobjects/trefoil_sum': (0, '4a7e21bb041a283c', 'e3b0c44298fc1c14'),
    'subobjects/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps-dot/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps-dot/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subreps-dot/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subreps-dot/figure_eight': (0, 'b609422daa6f37d3', 'e3b0c44298fc1c14'),
    'subreps-dot/hopf': (0, '66f2e92739911fcb', 'e3b0c44298fc1c14'),
    'subreps-dot/hopf+hopf': (0, 'cf9df33a02b81cd1', 'e3b0c44298fc1c14'),
    'subreps-dot/torus_2_4': (0, '798f08c6c8daf589', 'e3b0c44298fc1c14'),
    'subreps-dot/torus_2_5': (0, '6bb29fef8a369c73', 'e3b0c44298fc1c14'),
    'subreps-dot/torus_2_6': (0, 'f7f9ac9efc952835', 'e3b0c44298fc1c14'),
    'subreps-dot/trefoil': (0, '99fab59f9c6fca28', 'e3b0c44298fc1c14'),
    'subreps-dot/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'subreps-dot/trefoil_sum': (0, 'd7cf6782aab513d2', 'e3b0c44298fc1c14'),
    'subreps-dot/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subreps/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subreps/figure_eight': (0, '02d1cc010ab2012d', 'e3b0c44298fc1c14'),
    'subreps/hopf': (0, '882f2bbb6d7a67cd', 'e3b0c44298fc1c14'),
    'subreps/hopf+hopf': (0, 'ece735d8ba0d2065', 'e3b0c44298fc1c14'),
    'subreps/torus_2_4': (0, '67702185003b3675', 'e3b0c44298fc1c14'),
    'subreps/torus_2_5': (0, 'b373805cf0b9184e', 'e3b0c44298fc1c14'),
    'subreps/torus_2_6': (0, 'a3583a227491597c', 'e3b0c44298fc1c14'),
    'subreps/trefoil': (0, 'dc068f0146aee45c', 'e3b0c44298fc1c14'),
    'subreps/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'subreps/trefoil_sum': (0, '5e83f85f57c1b0be', 'e3b0c44298fc1c14'),
    'subreps/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'verify-iso/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'verify-iso/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'verify-iso/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'verify-iso/figure_eight': (0, 'a64a27e2750eb4b4', 'e3b0c44298fc1c14'),
    'verify-iso/hopf': (0, '12a9759d70b0d88a', 'e3b0c44298fc1c14'),
    'verify-iso/hopf+hopf': (0, '11e0ecec1691d4c3', 'e3b0c44298fc1c14'),
    'verify-iso/torus_2_4': (0, '2a2464763388af8e', 'e3b0c44298fc1c14'),
    'verify-iso/torus_2_5': (0, '2319ca2a49b6c77f', 'e3b0c44298fc1c14'),
    'verify-iso/torus_2_6': (0, '77e93714e54040e2', 'e3b0c44298fc1c14'),
    'verify-iso/trefoil': (0, 'c475c81e7c48b441', 'e3b0c44298fc1c14'),
    'verify-iso/trefoil+empty': (0, '52d07cf961ed10d4', 'e3b0c44298fc1c14'),
    'verify-iso/trefoil_sum': (0, 'a16e243764f58239', 'e3b0c44298fc1c14'),
    'verify-iso/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
}


if __name__ == "__main__":
    table = golden_table()
    if sys.argv[1:] == ["--write"]:
        path = Path(__file__)
        text = path.read_text()
        start = text.index("\nGOLDEN = {") + 1
        end = text.index("\n}\n", start) + 3
        path.write_text(text[:start] + table + text[end:])
    else:
        sys.stdout.write(table)
