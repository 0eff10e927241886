"""The batch command surface: exit codes, JSON determinism, witnesses."""

import gc
import hashlib
import json
import types
import weakref
from collections import Counter

import pytest

import zzqh
from zzqh import compute_basis, presentation_cover
from zzqh.algebra import AlgebraInstance
from zzqh.cli import run_cli
from zzqh.extdual import ext_table


def _run(capsys, *argv):
    code = run_cli(list(argv))
    return code, capsys.readouterr().out


def test_check_all_small_passes(capsys):
    code, out = _run(capsys, "check", "all", "--n", "1", "--s", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert len(report["results"]) == 10
    assert all(r["passed"] for r in report["results"])


def test_check_failure_reports_witness(capsys):
    """The greedy Delta-filtration of each zigzag projective stops at a
    generated submodule of the recorded dimension."""
    code, out = _run(capsys, "check", "qh", "--algebra", "zigzag",
                     "--n", "2", "--s", "3")
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    inner = report["results"][0]["report"]
    assert inner["projectives_delta_filtered"] is False
    got = [(w["projective"], w["vertex"], w["copies"], w["submodule_dim"],
            w["expected_dim"])
           for w in inner["witnesses"]["projectives_delta_filtered"]]
    assert got == [("0,0,2", "0,0,2", 2, 4, 8), ("0,1,1", "0,0,2", 1, 3, 4),
                   ("1,0,1", "0,0,2", 1, 2, 4), ("1,1,0", "0,1,1", 1, 2, 3)]


def test_build_nontermination_signal(capsys):
    code, out = _run(capsys, "build", "--algebra", "zigzag",
                     "--n", "1", "--s", "2", "--max-steps", "10")
    assert code == 3
    report = json.loads(out)
    assert report["nonterminating"]
    assert report["max_length"] == 10
    assert report["dims_so_far"] == [2] * 11


def test_max_steps_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("ZZQH_MAX_STEPS", "8")
    code, out = _run(capsys, "build", "--algebra", "zigzag",
                     "--n", "1", "--s", "2")
    assert code == 3
    assert json.loads(out)["max_length"] == 8


def test_argument_errors_exit_two(capsys):
    assert _run(capsys, "build", "--algebra", "fixture:nope",
                "--n", "1", "--s", "2")[0] == 2
    assert _run(capsys, "build", "--algebra", "mystery",
                "--n", "1", "--s", "2")[0] == 2
    assert _run(capsys, "check", "qh", "--n", "1")[0] == 2
    assert _run(capsys, "resolve", "--n", "1", "--s", "2",
                "--module", "ghost:0,2")[0] == 2
    assert _run(capsys, "resolve", "--n", "1", "--s", "2",
                "--module", "simple:9,9")[0] == 2
    assert _run(capsys, "check", "nonsense", "--n", "1", "--s", "2")[0] == 2


def test_build_output_deterministic(capsys):
    _, first = _run(capsys, "build", "--n", "2", "--s", "2")
    _, second = _run(capsys, "build", "--n", "2", "--s", "2")
    assert first == second
    report = json.loads(first)
    assert report["dim"] == 25
    assert report["kind"] == "cover"


def test_cartan_small(capsys):
    code, out = _run(capsys, "cartan", "--n", "1", "--s", "2")
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == ["0,2", "1,1", "2,0"]
    assert report["matrix"] == [[1, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_dims_blocks(capsys):
    code, out = _run(capsys, "dims", "--n", "1", "--s", "2")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 9
    assert report["blocks"]["1,1|1,1"] == {"0,0": 1, "1,1": 1}


def test_resolve_exact_shape(capsys):
    code, out = _run(capsys, "resolve", "--n", "1", "--s", "2",
                     "--module", "simple:0,2", "--grading", "length")
    assert code == 0
    report = json.loads(out)
    assert report["complete"] and report["linear"]["linear"]
    shifts = [[(t["vertex"], t["shift"], t["mult"]) for t in step]
              for step in report["steps"]]
    assert shifts == [[("0,2", 0, 1)], [("1,1", 1, 1)],
                      [("0,2", 2, 1), ("2,0", 2, 1)],
                      [("1,1", 3, 1)], [("0,2", 4, 1)]]


def test_resolve_truncation_exits_three(capsys):
    code, out = _run(capsys, "resolve", "--algebra", "fixture:loop",
                     "--module", "simple:1", "--max-steps", "4")
    assert code == 3
    assert not json.loads(out)["complete"]


def test_dual_emissions(capsys):
    code, dot = _run(capsys, "dual", "--n", "1", "--s", "2", "--emit", "dot")
    assert code == 0
    assert dot.startswith("digraph")
    assert '"1,1" -> "0,2"' in dot or '"0,2" -> "1,1"' in dot
    code, out = _run(capsys, "dual", "--n", "1", "--s", "2", "--emit", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"vertices", "arrows", "relations"}
    assert len(report["arrows"]) == 4


def test_fixtures_pass(capsys):
    code, out = _run(capsys, "fixtures")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["reports"]["counterexample"]["dim"] == 9
    assert report["reports"]["brauer-line"]["2"]["dim"] == 9
    assert report["reports"]["brauer-line"]["3"]["dim"] == 13


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = _run(capsys, "cartan", "--n", "1", "--s", "2",
                     "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["matrix"][0] == [1, 1, 0]


@pytest.mark.parametrize("argv,env,message", [
    (["build", "--n", "0", "--s", "2"], None, "need n >= 1, got 0"),
    (["build", "--n", "2", "--s", "-1"], None, "cover needs s >= 1, got s=-1"),
    (["build", "--algebra", "zigzag", "--n", "2", "--s", "1"], None,
     "zigzag type needs s >= 2, got s=1"),
    (["dims", "--algebra", "qdual", "--n", "1", "--s", "0"], None,
     "cover needs s >= 1, got s=0"),
    (["check", "qh", "--n", "0", "--s", "2"], None, "need n >= 1, got 0"),
    (["check", "koszul", "--algebra", "zigzag", "--n", "2", "--s", "1"], None,
     "zigzag type needs s >= 2, got s=1"),
    (["dual", "--n", "0", "--s", "2"], None, "need n >= 1, got 0"),
    (["build", "--algebra", "fixture:brauer-line", "--s", "0"], None,
     "the Brauer line needs s >= 1, got 0"),
    (["build", "--n", "1", "--s", "2", "--max-steps", "0"], None,
     "the step cap must be at least 1, got 0"),
    (["resolve", "--n", "1", "--s", "2", "--module", "simple:0,2",
      "--max-steps", "-1"], None, "the step cap must be at least 1, got -1"),
    (["build", "--n", "1", "--s", "2"], "abc",
     "ZZQH_MAX_STEPS is not an integer: 'abc'"),
    (["check", "koszul", "--n", "1", "--s", "2"], "0",
     "the step cap must be at least 1, got 0"),
    (["check", "degree-law", "--algebra", "zigzag", "--n", "2", "--s", "2"],
     None, "check 'degree-law' does not run on --algebra 'zigzag'"),
    (["check", "all", "--algebra", "borel", "--n", "2", "--s", "2"], None,
     "check 'all' does not run on --algebra 'borel'"),
    (["check", "qh", "--algebra", "fixture:loop"], None,
     "check 'qh' does not run on --algebra 'fixture:loop'"),
    (["resolve", "--algebra", "qdual", "--n", "1", "--s", "2",
      "--module", "standard:0,2"], None,
     "no partial order on --algebra 'qdual', so no standard module"),
    (["resolve", "--algebra", "fixture:counterexample",
      "--module", "costandard:1"], None,
     "no partial order on --algebra 'fixture:counterexample', so no "
     "costandard module"),
])
def test_usage_errors_exit_two_with_one_line(capsys, monkeypatch, argv, env,
                                             message):
    if env is None:
        monkeypatch.delenv("ZZQH_MAX_STEPS", raising=False)
    else:
        monkeypatch.setenv("ZZQH_MAX_STEPS", env)
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_brauer_line_defaults_to_s_two(capsys, monkeypatch):
    monkeypatch.delenv("ZZQH_MAX_STEPS", raising=False)
    code, out = _run(capsys, "build", "--algebra", "fixture:brauer-line")
    assert code == 0 and json.loads(out)["params"] == {"s": 2}


@pytest.mark.parametrize("flag,env", [(["--max-steps", "1"], None),
                                      ([], "1")])
def test_dual_caps_the_basis(capsys, monkeypatch, flag, env):
    """``dual`` builds its cover under the step cap, as ``check dual``
    does."""
    if env is None:
        monkeypatch.delenv("ZZQH_MAX_STEPS", raising=False)
    else:
        monkeypatch.setenv("ZZQH_MAX_STEPS", env)
    code, out = _run(capsys, "dual", "--n", "2", "--s", "3", *flag)
    assert code == 3
    assert json.loads(out) == {"nonterminating": True, "max_length": 1,
                               "dims_so_far": [10, 18]}


def test_dual_under_a_loose_cap_is_unchanged(capsys, monkeypatch):
    monkeypatch.delenv("ZZQH_MAX_STEPS", raising=False)
    argv = ("dual", "--n", "2", "--s", "3", "--emit", "json")
    assert _run(capsys, *argv, "--max-steps", "32") == _run(capsys, *argv)


def test_check_all_on_zigzag_runs_only_its_checks(capsys):
    code, out = _run(capsys, "check", "all", "--algebra", "zigzag",
                     "--n", "2", "--s", "3")
    report = json.loads(out)
    assert [r["check"] for r in report["results"]] == ["qh", "koszul"]
    # the zigzag algebra is not quasi-hereditary, so qh fails
    assert code == 1 and not report["results"][0]["passed"]


def test_check_caps_the_basis(capsys):
    code, out = _run(capsys, "check", "qh", "--algebra", "zigzag",
                     "--n", "1", "--s", "2", "--max-steps", "5")
    assert code == 3
    report = json.loads(out)["results"][0]["report"]
    assert report["nonterminating"] and report["max_length"] == 5


@pytest.mark.parametrize("cap", [(), ("--max-steps", "32")])
def test_check_all_resolves_each_standard_once(capsys, monkeypatch, cap):
    """Each standard is built and resolved once, and each costandard of
    the cover built once (the Borel's own costandards aside): every call
    for one of them hands back the same object.  Under a cap that cuts
    nothing, the capped and uncapped checks share the resolutions."""
    resolved, built = Counter(), {}

    def counting(name, fn):
        def wrapped(first, *args, **kwargs):
            out = fn(first, *args, **kwargs)
            if name == "minimal_resolution":  # first is the module
                resolved[first.label] += 1
            elif first.presentation.kind == "cover":  # first is the algebra
                built.setdefault(out.label, {})[id(out)] = out  # kept alive
            return out
        return wrapped

    for name in ("minimal_resolution", "standard_module",
                 "costandard_module"):
        fn = getattr(zzqh.modules, name)
        wrapped = counting(name, fn)
        for mod in (zzqh, zzqh.modules, zzqh.qh, zzqh.koszul, zzqh.extdual):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapped)
    code, _ = _run(capsys, "check", "all", "--n", "2", "--s", "2", *cap)
    assert code == 0
    verts = presentation_cover(2, 2).vertices
    standards = {l: k for l, k in resolved.items() if l.startswith("Delta[")}
    assert standards == {f"Delta[{x}]": 1 for x in verts}
    assert {label: len(objs) for label, objs in built.items()} == {
        f"{kind}[{x}]": 1 for x in verts for kind in ("Delta", "Nabla")}


def test_check_all_makes_one_delta_nabla_pass(capsys, monkeypatch):
    """``check qh`` and ``check dual`` read one (Delta, Nabla) table:
    each pair's Hom complex is built once, and ``check_quasi_hereditary``
    builds no other Hom complex (``check borel``'s socle certificate
    builds its own)."""
    pairs, homs, in_qh = Counter(), Counter(), []
    ext = zzqh.modules.ext_bigraded_reps
    check_qh = zzqh.qh.check_quasi_hereditary

    def counting_ext(res, n):
        if (res.module.label.startswith("Delta[")
                and n.label.startswith("Nabla[")):
            pairs[(res.module.label, n.label)] += 1
        else:
            homs["qh" if in_qh else "other"] += 1
        return ext(res, n)

    def marked_qh(*args, **kwargs):
        in_qh.append(True)
        try:
            return check_qh(*args, **kwargs)
        finally:
            in_qh.pop()

    for fn, wrapped in ((ext, counting_ext), (check_qh, marked_qh)):
        for mod in (zzqh, zzqh.modules, zzqh.qh, zzqh.koszul, zzqh.extdual,
                    zzqh.cli):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)
    code, _ = _run(capsys, "check", "all", "--n", "2", "--s", "2")
    assert code == 0
    verts = presentation_cover(2, 2).vertices
    assert pairs == {(f"Delta[{x}]", f"Nabla[{y}]"): 1
                     for x in verts for y in verts}
    assert len(pairs) == 36
    assert homs["qh"] == 0 and homs["other"] > 0


# sha256 of stdout, recorded with the column-by-column Gauss-Jordan rref.
# Any correct elimination gives the same representatives, so the same
# bytes, whatever its order of work.
FROZEN_STDOUT = {
    ("check", "all"):
        "930e5316200e69cc913e924dab42a67380f6ca889a13356ed2ead905c4f21339",
    ("dual", "--n", "2", "--s", "3", "--emit", "json"):
        "ad78cf5e8378653ab8d59561dfd4ac6b5c92156907be6e95bb43aa90e49277ba",
    ("check", "koszul", "--n", "2", "--s", "4"):
        "f76ae2de152701ed3e610f554d9799863d29e8461d28e9da8f6dc0fa2870e166",
    ("check", "qh", "--n", "2", "--s", "4"):
        "330a44896d40d84aee449830705915eda206cc46453c7d7c7d12ce82a741543a",
    ("resolve", "--n", "3", "--s", "3", "--module", "simple:0,1,0,2"):
        "77ee14df0a0af105251a533ccbaa998647cf93051735d982c0e01e68aecdbcef",
    ("check", "dual", "--n", "3", "--s", "3"):
        "b06f7e9771e50a24dd4e1b0f7676bf7b414c4d08973000b9a3481d4d393d8791",
    ("dual", "--n", "2", "--s", "5", "--emit", "json"):
        "fc8927154ce6c12b3746011dc0bb5bf592624d375df1d1f5874a6c70426a672b",
    ("check", "koszul", "--n", "3", "--s", "3"):
        "135306a3684b1a71c280b79283100f96c85af50225c7967ba709448694fd7d69",
    ("fixtures",):
        "8b183a67d97934314865d31cc0924b9b972e1d66d6d31f521c38d5b19a9a5424",
    ("build", "--algebra", "qdual", "--n", "2", "--s", "3"):
        "5c1dfd86f7b11e56e8d15838c5386159498177cc988ff957db917d913a6faf26",
    ("build", "--algebra", "dual-built", "--n", "3", "--s", "3"):
        "9c5becd61c7cb6f5b9ae11be5ee02306afe8f760f59dbf55c34f95a449e65408",
    ("dims", "--algebra", "dual-conjectured", "--n", "2", "--s", "4"):
        "0b7ff2925d6506bd90ab9fa8a281277d86b6eb58e23e8aa6b8330951e4e9d576",
    ("cartan", "--n", "3", "--s", "3"):
        "de23e93058dac2599312e6ee1def7ef6216d349121734a0f44cee4e54006148d",
    ("check", "borel", "--n", "2", "--s", "4"):
        "5fe3f9f4e8ae5d0ae0b3bc140b55b65a91ac7c29ac86c5b385df913be466d08b",
    ("check", "cover", "--n", "3", "--s", "3"):
        "535dbd3a34d367268dee813a57172be2e23c7673a66b1521bd5e1eafff59c250",
    ("check", "qh", "--n", "3", "--s", "3"):
        "06d85a57251a6b3a0134db7f87bf30354b4686a339e962862f56d5f16d79d601",
    ("resolve", "--n", "2", "--s", "4", "--module", "costandard:0,1,3",
     "--grading", "flat"):
        "e077f749b98a8109b8fcb2d0daa1357def4c7663bbe2431e689396ef8f1fdd46",
    ("build", "--algebra", "zigzag", "--n", "2", "--s", "3"):
        "23657451512df4964fbd9bec7fe03629939e7f238ea3944e098a498bd606bf9d",
    ("build", "--algebra", "borel", "--n", "3", "--s", "3"):
        "210716a83e686d16e363624362ca7b809a5b1fb5953a6276e588229f0d3f796e",
    ("dims", "--algebra", "qdual", "--n", "3", "--s", "3"):
        "785c969361918a4b9dd3010b27c5b436c0073fa415b236efa417bd1759f62692",
    ("build", "--algebra", "fixture:brauer-line", "--s", "3"):
        "bb929573bd7e5b0faf314cadf1e24510267ade59286316ba501f78b07210b3f7",
    ("check", "socle-lemmas", "--n", "2", "--s", "4"):
        "603135c0695e91a6e674890885127567a87aaf9408216a41fa325b57763afed7",
    ("check", "delta-koszul", "--n", "3", "--s", "3"):
        "5d5c8881b01c9d45775f8ac186912e96ede5557358ec73cd01ad63c6dd83ec4e",
    ("check", "delta-koszul", "--n", "3", "--s", "4"):
        "ad22c7e2c43fd13b3089efb50cf9a9f02dd14b13c0ac681a07a5176f72bc9eea",
    ("check", "qh", "--n", "3", "--s", "4"):
        "5a0ed3afc93571c7c1edf25b8a5f27d9f75eb258f55a5bdefbb5729eacc26aa7",
    ("check", "standard-koszul", "--n", "3", "--s", "4"):
        "88460c68a94507e8106beef4207daf8ba0402f0c839f2d9f6947860167ed1250",
    ("check", "dual", "--n", "2", "--s", "5"):
        "55b36498331eb5a609c0913f81c37aeee71320e5e0e31d9d3ab2b27e16e11c71",
    ("check", "socle-lemmas", "--n", "3", "--s", "3"):
        "30be589c499e98dcd4099188140072acfde909f209c1607ae8df1f3cb9b8adb3",
    ("check", "dual", "--n", "3", "--s", "4"):
        "d4c1bd5f0a988f38b524d12b3c21738fd71e71591e65b343ea4cac95940ea75f",
    ("check", "all", "--n", "3", "--s", "4"):
        "d394376dc52ca143dec395183bcc7f517db17c260f9eb5b9b1338bbd54b2dab4",
    ("dual", "--n", "3", "--s", "3", "--emit", "json"):
        "646e5417c84854dabf12adf61691349e872ef963aebe2565d98ca937c208935a",
    ("check", "qh", "--n", "4", "--s", "3"):
        "812ec43b090f901648041681767770e6910471e8d0a0283fd04264b51a5319f3",
    ("check", "borel", "--n", "3", "--s", "4"):
        "1cd5bd0323adf233ec0a87a16a461ec1da10881b136eb3989d30e02de010de77",
    ("check", "borel", "--n", "4", "--s", "3"):
        "fb916df9a591f20e9b43e304723c3ecb8c5ee3da55695189dceb3ff88181663c",
    ("check", "koszul", "--n", "2", "--s", "8"):
        "ef9f4b3081fce6b1837906deb82530ab0330b7a617b795396b45bee0100a1ada",
    ("check", "all", "--n", "4", "--s", "3"):
        "36167e7b98bedec695003f5a42d481242c549e65c0d3fb24e9ca02cf151eb5a1",
    ("resolve", "--n", "3", "--s", "4", "--module", "standard:0,1,1,2"):
        "89b79c17b6f466f614a17f21495fca285ea840d83a4d98b2ca05788026de90dd",
    ("check", "dual", "--n", "4", "--s", "3"):
        "dad514edf23b81c7dc80b130dd6c32459efa9512aa68c3fe9e8c50c5f92b8569",
    ("check", "dual", "--n", "2", "--s", "6"):
        "00e19ebcf47cfd7ff943ef873b7a4bf81fb9ffb372bad3d20520c91447d5141b",
    ("check", "degree-law", "--n", "3", "--s", "5"):
        "cf704ccb2285c7a3592f85d09287c03a783e66c7cd632561e0d0d0cf4d3f3a3f",
    ("check", "qh", "--n", "4", "--s", "4"):
        "88a38383f68d85f094f3694ff5de3e671d5fedb75cced26271fa5227545295aa",
    ("check", "dual", "--n", "4", "--s", "4"):
        "ffe05a85c8d117f2a9dfb50f8834442d0b720190e63f9b8f931887eba0284624",
    ("check", "all", "--n", "2", "--s", "2", "--max-steps", "32"):
        "901b26ad2a68cae674d933446f2035db53871f59f0e89530a18e317ec3b5fb41",
    ("check", "koszul", "--n", "4", "--s", "2"):
        "1633ed7ae8eb2da9c3bb859998376c0f98e3ffade3372c9d46acd414c0d5cb88",
    ("check", "qh", "--n", "4", "--s", "2"):
        "732f6f590132c227c6a03c53cc1eba1638597c2d82e8740741601df9172e82e7",
    ("resolve", "--n", "2", "--s", "4", "--module", "simple:0,1,3"):
        "475fa15a9af657dd6843ae4388992f19235ebbc0cb26bf4b01f5094dcf386f09",
    ("resolve", "--n", "4", "--s", "2", "--module", "simple:0,0,1,0,1"):
        "4b817ef4fc49f2c4fabb9e62d97044274c8a715726eb99b62a3ede6108b8e4fa",
    ("check", "dual", "--n", "4", "--s", "2"):
        "a45423612de7ab40a5bc6d66ea338430488dcbf0b384dc0f60c655f3142e2509",
    ("dual", "--n", "4", "--s", "2", "--emit", "json"):
        "f15e7499329a6621863e33e5bc64e0b8166d90eb8e15db1d73949075f86f20d1",
    ("check", "cover", "--n", "5", "--s", "4"):
        "a68ad69b09777ceb5bda23abafde28f4f7e34404bfe7a18e47c89b1d77dc408e",
    ("check", "borel", "--n", "4", "--s", "4"):
        "4b4967a1c564748cb39af153a7dd41b7492336a0d96b9a1c8d8818aa98d71794",
    ("check", "all", "--n", "4", "--s", "4"):
        "d0d3dc7c3d3f07340c69db10ca0ceb082da67d2951bb0fa05b60fa376ef37701",
    ("check", "all", "--n", "3", "--s", "5"):
        "6303bd3d67abf9b415bef11f1b6f670f6fcefdb04d8a38d9e7b77fc7f2bb5ddf",
    ("check", "koszul", "--n", "2", "--s", "12"):
        "6304f5579300900ddd48d9422225cdfa6c1b1618dce2405f8ee8f633e769081b",
    ("check", "dual", "--n", "5", "--s", "4"):
        "23026bcc86b8605290c2ab267ce4f171045cd5848dedaf6f7e0ce0190698cbce",
    ("check", "dual", "--n", "2", "--s", "3"):
        "c6e84e834b8d21e7cb972fa452100960513d48c639918f7ee1e896dad84e083c",
}


@pytest.mark.parametrize("argv", sorted(FROZEN_STDOUT), ids=" ".join)
def test_stdout_is_byte_identical_to_the_frozen_digest(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_STDOUT[argv]


def test_zigzag_qh_failure_is_byte_identical_to_its_frozen_digest(capsys):
    """The one call whose End, Hom and truncation witnesses are all
    nonempty: End(Delta) at 0,0,2 is 2, Hom(Delta, Nabla) there is 2,
    and five standards are cut at 30 steps.  It exits 1."""
    code, out = _run(capsys, "check", "qh", "--algebra", "zigzag",
                     "--n", "2", "--s", "3")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f8b3df8eda82704525b4a32549c8784803a2e728e523087ff9ca2253171626d")
    witnesses = json.loads(out)["results"][0]["report"]["witnesses"]
    assert witnesses["endo_standard_trivial"] == ["0,0,2"]
    assert witnesses["hom_delta_nabla_diagonal"] == [["0,0,2", "0,0,2", 2]]
    assert {w["truncated_at"] for w in
            witnesses["ext_delta_nabla_vanishing"]} == {30}


def test_capped_qh_failure_is_byte_identical_to_its_frozen_digest(capsys):
    """A cap of 4 cuts the five standards at (2,4) whose resolutions
    have length 4, after step 3: their Hom(Delta, Nabla) is still read,
    from the exact levels below the cut, and only the Ext check fails.
    The bytes are those of the code that solved Hom with ``hom_space``."""
    code, out = _run(capsys, "check", "qh", "--n", "2", "--s", "4",
                     "--max-steps", "4")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4fce5885dbee4715df03058dac69689fe3f49bf641a5418692e24319f024737")
    report = json.loads(out)["results"][0]["report"]
    assert report["hom_delta_nabla_diagonal"] is True
    assert [w["truncated_at"] for w in
            report["witnesses"]["ext_delta_nabla_vanishing"]] == [3] * 5


def test_check_all_matches_the_single_checks(capsys):
    _, out = _run(capsys, "check", "all", "--n", "2", "--s", "2")
    results = json.loads(out)["results"]
    assert len(results) == 10
    for result in results:
        _, single = _run(capsys, "check", result["check"],
                         "--n", "2", "--s", "2")
        assert json.loads(single)["results"] == [result]


def test_delta_koszul_finds_the_isomorphism_past_the_grid(capsys):
    """At (3,4) Hom(Gamma_0, Delta) has 35 basis maps; a search whose
    coefficients can be zero found no isomorphism there and raised."""
    code, out = _run(capsys, "check", "delta-koszul", "--n", "3", "--s", "4")
    assert code == 0
    assert json.loads(out)["results"][0]["report"]["extra"]["gamma0_iso_delta"]


def test_resolve_caps_the_basis(capsys):
    code, out = _run(capsys, "resolve", "--n", "1", "--s", "2",
                     "--module", "simple:0,2", "--max-steps", "2")
    assert code == 3
    report = json.loads(out)
    assert report["nonterminating"] and report["max_length"] == 2


# ---------------------------------------------------------------------------
# what a call derives dies by reference counting


def _cyclic_garbage(capsys, argv):
    """The objects of a ``zzqh`` type, and the functions defined in
    ``zzqh``, that only the cyclic collector could free after
    ``run_cli(argv)``: with the collector off, every unreachable object
    it finds afterwards is kept in ``gc.garbage``."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _ = _run(capsys, *argv)
        assert code == 0
        gc.collect()
        return [obj for obj in gc.garbage
                if type(obj).__module__.startswith("zzqh")
                or isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("zzqh")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


CYCLE_FREE_CALLS = [("check", "all", "--n", "2", "--s", "2"),
                    ("check", "dual", "--n", "2", "--s", "3")]


@pytest.mark.parametrize("argv", CYCLE_FREE_CALLS, ids=" ".join)
def test_a_call_leaves_no_cyclic_garbage(capsys, argv):
    assert _cyclic_garbage(capsys, argv) == []
    assert zzqh.algebra._scopes == []


@pytest.mark.parametrize("argv", CYCLE_FREE_CALLS, ids=" ".join)
def test_without_the_release_a_call_leaves_cyclic_garbage(capsys, monkeypatch,
                                                           argv):
    """Negative control: the memos hold the cycles that releasing cuts."""
    monkeypatch.setattr(AlgebraInstance, "release", lambda self: None)
    garbage = _cyclic_garbage(capsys, argv)
    assert any(isinstance(obj, AlgebraInstance) for obj in garbage)


def _collector_state_after(call, enabled):
    """(what ``call()`` returned or raised, whether the collector ran
    during it, whether it runs after it), with the collector enabled or
    disabled beforehand; the state before the test is restored."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            out = call()
        except Exception as e:
            out = e
        return out, gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()


COLLECTOR_CALLS = [
    (("check", "koszul", "--n", "1", "--s", "2"), 0),
    (("build", "--algebra", "fixture:brauer-line", "--s", "0"), 2),
    (("build", "--algebra", "zigzag", "--n", "1", "--s", "2",
      "--max-steps", "10"), 3)]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv,code", COLLECTOR_CALLS,
                         ids=[" ".join(a) for a, _ in COLLECTOR_CALLS])
def test_run_cli_leaves_the_collector_as_it_found_it(capsys, monkeypatch,
                                                     argv, code, enabled):
    """The collector is paused while a command runs and left as it was
    found when the call returns, on every exit code."""
    during, command = [], zzqh.cli.COMMANDS[argv[0]]

    def watched(args):
        during.append(gc.isenabled())
        return command(args)

    monkeypatch.setitem(zzqh.cli.COMMANDS, argv[0], watched)
    got, after = _collector_state_after(lambda: _run(capsys, *argv)[0],
                                        enabled)
    assert (got, during, after) == (code, [False], enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_cli_restores_the_collector_when_a_command_raises(monkeypatch,
                                                              enabled):
    def raising(args):
        raise RuntimeError("a command that fails")

    monkeypatch.setitem(zzqh.cli.COMMANDS, "fixtures", raising)
    got, after = _collector_state_after(lambda: run_cli(["fixtures"]),
                                        enabled)
    assert isinstance(got, RuntimeError) and after == enabled


def test_an_instance_made_outside_a_call_keeps_its_memo(capsys):
    cover = compute_basis(presentation_cover(1, 2))
    table = ext_table(cover)
    code, _ = _run(capsys, "check", "dual", "--n", "1", "--s", "2")
    assert code == 0
    assert ext_table(cover) is table
    assert zzqh.algebra._scopes == []


def test_check_all_releases_each_point_before_the_next(capsys, monkeypatch):
    """Every instance a point makes, its cover and the Borel, dual and
    opposite algebras its checks build, has an empty memo by the time
    the next point's first check starts, and so do the last point's by
    the time ``run_cli`` returns."""
    made, points = [], []
    build, check_one = zzqh.algebra.compute_basis, zzqh.cli._check_one

    def recording(*args, **kwargs):
        made.append((points[-1], build(*args, **kwargs)))
        return made[-1][1]

    def checking(name, n, s, *args):
        if not points or points[-1] != (n, s):
            assert all(not inst._memo for _, inst in made), points[-1]
            points.append((n, s))
        return check_one(name, n, s, *args)

    for mod in (zzqh, zzqh.algebra, zzqh.cli, zzqh.qh, zzqh.koszul,
                zzqh.extdual):
        if getattr(mod, "compute_basis", None) is build:
            monkeypatch.setattr(mod, "compute_basis", recording)
    monkeypatch.setattr(zzqh.cli, "_check_one", checking)
    code, _ = _run(capsys, "check", "all")
    assert code == 0
    assert len(points) == 5
    assert {p for p, _ in made} == set(points)
    assert any(inst.presentation.kind == "borel" for _, inst in made)
    assert all(not inst._memo for _, inst in made)
    assert zzqh.algebra._scopes == []


def test_each_check_frees_the_instances_it_makes(capsys, monkeypatch):
    """With the collector off, once each check of ``check all`` returns,
    the point's algebra and its opposite are the only instances the call
    made that are still alive: the Borel and its opposite, the line
    algebra, the shifted dual and the conjectured dual go with the check
    that made them."""
    made, left = weakref.WeakSet(), []
    init, check_one = AlgebraInstance.__init__, zzqh.cli._check_one

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.add(self)

    def checking(name, n, s, basis, cap):
        report = check_one(name, n, s, basis, cap)
        cover = basis()
        left.extend((name, n, s, inst.presentation.kind) for inst in made
                    if inst is not cover
                    and inst is not cover._memo.get("opposite"))
        return report

    monkeypatch.setattr(AlgebraInstance, "__init__", recording)
    monkeypatch.setattr(zzqh.cli, "_check_one", checking)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code, _ = _run(capsys, "check", "all")
    finally:
        if enabled:
            gc.enable()
    assert code == 0
    assert left == []


def test_a_usage_error_leaves_no_open_scope(capsys):
    assert run_cli(["resolve", "--n", "2", "--s", "2",
                    "--module", "simple:9,9,9"]) == 2
    assert zzqh.algebra._scopes == []
