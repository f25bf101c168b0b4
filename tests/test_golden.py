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
deliberate change of output, run every case in a folder filled by
``write_inputs`` and paste the new table.
"""

import hashlib
from importlib import resources

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


def _digest(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, _sha(out), _sha(err)


def test_every_case_has_a_recorded_digest():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    assert _digest(CASES[case], capsys) == GOLDEN[case]


GOLDEN = {
    'bms-lattice-dot/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'bms-lattice-dot/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'bms-lattice-dot/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'bms-lattice-dot/figure_eight': (0, '145df351541e6fed', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/hopf': (0, '9b8dec79a39f3cb1', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/hopf+hopf': (0, '95f9bcc2920a74da', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/torus_2_4': (0, '45d0f69034db1478', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/torus_2_5': (0, 'feb7b15d81450317', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/torus_2_6': (0, '5f9e8679ddb41219', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/trefoil': (0, 'abc566a979d1dd6f', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/trefoil+empty': (0, '6c63945f54f28111', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/trefoil_sum': (0, '7685be3bf132e0f0', 'e3b0c44298fc1c14'),
    'bms-lattice-dot/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'bms-lattice/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'bms-lattice/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'bms-lattice/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'bms-lattice/figure_eight': (0, '3a93de7392bf9c2a', 'e3b0c44298fc1c14'),
    'bms-lattice/hopf': (0, 'c0a943886e820f92', 'e3b0c44298fc1c14'),
    'bms-lattice/hopf+hopf': (0, 'ed9d3a5aa65fa0e9', 'e3b0c44298fc1c14'),
    'bms-lattice/torus_2_4': (0, '49fb0b942081eda7', 'e3b0c44298fc1c14'),
    'bms-lattice/torus_2_5': (0, 'fed75f7f57305803', 'e3b0c44298fc1c14'),
    'bms-lattice/torus_2_6': (0, 'd89d4615cb6b4827', 'e3b0c44298fc1c14'),
    'bms-lattice/trefoil': (0, 'dccdec60f2dc7c06', 'e3b0c44298fc1c14'),
    'bms-lattice/trefoil+empty': (0, '6c63945f54f28111', 'e3b0c44298fc1c14'),
    'bms-lattice/trefoil_sum': (0, 'e25ed0a8d4d2458f', 'e3b0c44298fc1c14'),
    'bms-lattice/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'check-all': (0, '9cecd1b80cdc5476', 'e3b0c44298fc1c14'),
    'clock-dot/figure_eight': (0, 'c12e22f09467f9a6', 'e3b0c44298fc1c14'),
    'clock-dot/hopf': (0, '680d74f2f205bdad', 'e3b0c44298fc1c14'),
    'clock-dot/torus_2_4': (0, 'b88985a49a995745', 'e3b0c44298fc1c14'),
    'clock-dot/torus_2_5': (0, '5c1652ddc171f4af', 'e3b0c44298fc1c14'),
    'clock-dot/torus_2_6': (0, '59c2741ad3f764d7', 'e3b0c44298fc1c14'),
    'clock-dot/trefoil': (0, '46a6f68f8c3e7122', 'e3b0c44298fc1c14'),
    'clock-dot/trefoil_sum': (1, 'e3b0c44298fc1c14', '3bf1bc5eeee8a413'),
    'clock/figure_eight': (0, '818bb47785383ee0', 'e3b0c44298fc1c14'),
    'clock/hopf': (0, '38f71c0887d16e55', 'e3b0c44298fc1c14'),
    'clock/torus_2_4': (0, 'aa6d07d040404e67', 'e3b0c44298fc1c14'),
    'clock/torus_2_5': (0, '3f9ea9e548a2925a', 'e3b0c44298fc1c14'),
    'clock/torus_2_6': (0, 'e05e530137a6f992', 'e3b0c44298fc1c14'),
    'clock/trefoil': (0, '2c1f9e8f433ed2fd', 'e3b0c44298fc1c14'),
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
    'endo/figure_eight': (0, '0ae5c19a91faea7b', 'e3b0c44298fc1c14'),
    'endo/hopf': (0, 'e2cb90afac9c911c', 'e3b0c44298fc1c14'),
    'endo/hopf+hopf': (0, '7b1f2d2cae03787f', 'e3b0c44298fc1c14'),
    'endo/torus_2_4': (0, 'e767083dbc75a703', 'e3b0c44298fc1c14'),
    'endo/torus_2_5': (0, '641f75340c79df02', 'e3b0c44298fc1c14'),
    'endo/torus_2_6': (0, 'ed2dc569b1edc1c1', 'e3b0c44298fc1c14'),
    'endo/trefoil': (0, '1ebdf21b2e595c14', 'e3b0c44298fc1c14'),
    'endo/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'endo/trefoil_sum': (0, 'c6a8e463fd1a7826', 'e3b0c44298fc1c14'),
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
    'jacobian-check/figure_eight': (0, '6d5198ad8c51c3d9', 'e3b0c44298fc1c14'),
    'jacobian-check/hopf': (0, '215ca3cd1b21438c', 'e3b0c44298fc1c14'),
    'jacobian-check/hopf+hopf': (0, 'badd4c248344b7d2', 'e3b0c44298fc1c14'),
    'jacobian-check/torus_2_4': (0, '032daa990f12fc95', 'e3b0c44298fc1c14'),
    'jacobian-check/torus_2_5': (0, 'fd607623e885fa76', 'e3b0c44298fc1c14'),
    'jacobian-check/torus_2_6': (0, 'e421899e698b6e88', 'e3b0c44298fc1c14'),
    'jacobian-check/trefoil': (0, 'bfff75b930403473', 'e3b0c44298fc1c14'),
    'jacobian-check/trefoil+empty': (0, '0efb41714cd9965c', 'e3b0c44298fc1c14'),
    'jacobian-check/trefoil_sum': (0, '4865d7a9f2ae4445', 'e3b0c44298fc1c14'),
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
    'module/figure_eight': (0, '53dbe27f3c7ab998', 'e3b0c44298fc1c14'),
    'module/hopf': (0, 'e006f409db08efba', 'e3b0c44298fc1c14'),
    'module/hopf+hopf': (0, 'd85352f2b02c4322', 'e3b0c44298fc1c14'),
    'module/torus_2_4': (0, 'c9bd749b13d9b883', 'e3b0c44298fc1c14'),
    'module/torus_2_5': (0, '1f41eb2d69f9d0f2', 'e3b0c44298fc1c14'),
    'module/torus_2_6': (0, 'b39cb826f6cc4abf', 'e3b0c44298fc1c14'),
    'module/trefoil': (0, 'f02e84b0315658fc', 'e3b0c44298fc1c14'),
    'module/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'module/trefoil_sum': (0, 'c66898a27bf7c247', 'e3b0c44298fc1c14'),
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
    'subobjects-dot/figure_eight': (0, '42db77bae14c43e2', 'e3b0c44298fc1c14'),
    'subobjects-dot/hopf': (0, '562f67a00ad7cca4', 'e3b0c44298fc1c14'),
    'subobjects-dot/hopf+hopf': (0, '97732eb2fb0817e0', 'e3b0c44298fc1c14'),
    'subobjects-dot/torus_2_4': (0, '45cab82421fcef59', 'e3b0c44298fc1c14'),
    'subobjects-dot/torus_2_5': (0, '8b3b2a5493d5171e', 'e3b0c44298fc1c14'),
    'subobjects-dot/torus_2_6': (0, 'cf1fab94335b9c70', 'e3b0c44298fc1c14'),
    'subobjects-dot/trefoil': (0, 'ef204d694e3bba16', 'e3b0c44298fc1c14'),
    'subobjects-dot/trefoil+empty': (0, '12b3d9b0586518ec', 'e3b0c44298fc1c14'),
    'subobjects-dot/trefoil_sum': (0, '121001659e883eef', 'e3b0c44298fc1c14'),
    'subobjects-dot/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subobjects/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subobjects/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subobjects/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subobjects/figure_eight': (0, '082d00baf289cd04', 'e3b0c44298fc1c14'),
    'subobjects/hopf': (0, '4f135579d4c9e9bd', 'e3b0c44298fc1c14'),
    'subobjects/hopf+hopf': (0, '92d30fc6aeb67da0', 'e3b0c44298fc1c14'),
    'subobjects/torus_2_4': (0, '4143cac25ba05f40', 'e3b0c44298fc1c14'),
    'subobjects/torus_2_5': (0, '2ab0ef72f38b6a86', 'e3b0c44298fc1c14'),
    'subobjects/torus_2_6': (0, '58620bf35108d5f5', 'e3b0c44298fc1c14'),
    'subobjects/trefoil': (0, 'f8781f610ab8e49d', 'e3b0c44298fc1c14'),
    'subobjects/trefoil+empty': (0, '12b3d9b0586518ec', 'e3b0c44298fc1c14'),
    'subobjects/trefoil_sum': (0, '366eb7edc2c7e20a', 'e3b0c44298fc1c14'),
    'subobjects/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps-dot/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps-dot/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subreps-dot/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subreps-dot/figure_eight': (0, '0bff6171814e2a9e', 'e3b0c44298fc1c14'),
    'subreps-dot/hopf': (0, '7a713a3d076dbb7a', 'e3b0c44298fc1c14'),
    'subreps-dot/hopf+hopf': (0, '0ea12fc2bbc3bc80', 'e3b0c44298fc1c14'),
    'subreps-dot/torus_2_4': (0, '4b938ec8a3fe5f70', 'e3b0c44298fc1c14'),
    'subreps-dot/torus_2_5': (0, 'df3306ce1f0cc610', 'e3b0c44298fc1c14'),
    'subreps-dot/torus_2_6': (0, '58fa205cab63c677', 'e3b0c44298fc1c14'),
    'subreps-dot/trefoil': (0, '0f12cf4b26162efa', 'e3b0c44298fc1c14'),
    'subreps-dot/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'subreps-dot/trefoil_sum': (0, 'b4980b57ec426491', 'e3b0c44298fc1c14'),
    'subreps-dot/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'subreps/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'subreps/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'subreps/figure_eight': (0, 'c9fc770e0cf9d71c', 'e3b0c44298fc1c14'),
    'subreps/hopf': (0, '01ab9968c9974cbd', 'e3b0c44298fc1c14'),
    'subreps/hopf+hopf': (0, 'd8c812072b666e6b', 'e3b0c44298fc1c14'),
    'subreps/torus_2_4': (0, 'b3c54a1428869372', 'e3b0c44298fc1c14'),
    'subreps/torus_2_5': (0, '47238e4f8b9c6cc3', 'e3b0c44298fc1c14'),
    'subreps/torus_2_6': (0, '6cb4a8c7855c5ac2', 'e3b0c44298fc1c14'),
    'subreps/trefoil': (0, '05b8684d370b5cb0', 'e3b0c44298fc1c14'),
    'subreps/trefoil+empty': (2, 'e3b0c44298fc1c14', '21727b44776599aa'),
    'subreps/trefoil_sum': (0, '74e0e684aca98ff8', 'e3b0c44298fc1c14'),
    'subreps/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'verify-iso/digon+digon': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
    'verify-iso/digon+missing': (2, 'e3b0c44298fc1c14', '9d3709bff7ca4e5b'),
    'verify-iso/digon+unequal': (2, 'e3b0c44298fc1c14', '4941d5f6c07b716a'),
    'verify-iso/figure_eight': (0, '0b82162f7e446a84', 'e3b0c44298fc1c14'),
    'verify-iso/hopf': (0, '7f5d8463341f1f13', 'e3b0c44298fc1c14'),
    'verify-iso/hopf+hopf': (0, '41cab40e09a41839', 'e3b0c44298fc1c14'),
    'verify-iso/torus_2_4': (0, '73389076d738d5f4', 'e3b0c44298fc1c14'),
    'verify-iso/torus_2_5': (0, '98cb45f930828647', 'e3b0c44298fc1c14'),
    'verify-iso/torus_2_6': (0, '59f8b5f7148c630f', 'e3b0c44298fc1c14'),
    'verify-iso/trefoil': (0, '4832079e7dab580a', 'e3b0c44298fc1c14'),
    'verify-iso/trefoil+empty': (0, '90735e0b158c0af2', 'e3b0c44298fc1c14'),
    'verify-iso/trefoil_sum': (0, '81adf8fdc8e24994', 'e3b0c44298fc1c14'),
    'verify-iso/triangle+triangle': (2, 'e3b0c44298fc1c14', '29e8eab610431100'),
}
