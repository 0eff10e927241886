"""Self-tests of the benchmark: its reference values, negative controls
for its output checker, and its traced run.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import gauge  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from tracing import METRICS, TIMED, Tracer  # noqa: E402

import zzqh.cli  # noqa: E402
from zzqh import (build_dual_from_ext, compute_basis,  # noqa: E402
                  dual_presentation_json, perturb_presentation,
                  presentation_cover)


def at(n, s):
    return ["--n", str(n), "--s", str(s)]


def checked(argv):
    """Run a call; return its parsed output after asserting it checks."""
    code, out = worker.run_call(argv)
    assert verify.check_call(argv, code, out) == []
    return json.loads(out)


def rejected(argv, doc, code=0):
    return verify.check_call(argv, code, json.dumps(doc)) != []


# ---------------------------------------------------------------------------
# reference values


def test_cover_dimensions_match_frozen_values():
    # tests/test_acceptance.py and tests/test_algebra.py freeze these
    assert [ref.cover_dimension(n, s) for n, s in verify.GRID] \
        == [9, 13, 25, 49, 55]
    assert [ref.projective_dims(1, 2)[x] for x in ((2, 0), (1, 1), (0, 2))] \
        == [3, 4, 2]


def test_dual_dimensions():
    # the shifted dual dimensions frozen in tests/test_algebra.py
    assert [ref.dual_dimension(n, s) for n, s in verify.GRID] \
        == [14, 30, 27, 77, 44]
    assert [ref.dual_dimension(*p) for p in ((2, 4), (3, 3), (2, 5))] \
        == [182, 156, 378]


@pytest.mark.parametrize("n,s", [(2, 3), (3, 2)])
def test_predicted_resolutions_match_the_program(n, s):
    for x in ref.vertices(n, s):
        checked(["resolve"] + at(n, s) + ["--module", "simple:" + ref.name(x)])


def test_closed_form_dual_matches_the_program():
    checked(["dual"] + at(2, 3) + ["--emit", "json"])


# ---------------------------------------------------------------------------
# negative controls for the checker


def test_flipped_passed_flag_is_rejected():
    argv = ["check", "socle-lemmas"] + at(2, 2)
    doc = checked(argv)
    doc["results"][0]["passed"] = False
    assert rejected(argv, doc)
    doc = checked(argv)
    doc["results"][0]["report"]["dim"] += 1
    assert rejected(argv, doc)


def test_changed_multiplicity_is_rejected():
    argv = ["resolve"] + at(2, 2) + [
        "--module", "simple:" + ref.name(ref.largest_resolution_vertex(2, 2))]
    doc = checked(argv)
    doc["steps"][1][0]["mult"] += 1
    assert rejected(argv, doc)


def test_perturbed_dual_is_rejected():
    argv = ["dual"] + at(2, 2) + ["--emit", "json"]
    built = build_dual_from_ext(compute_basis(presentation_cover(2, 2)))
    assert not rejected(argv, dual_presentation_json(built))
    assert rejected(argv, dual_presentation_json(perturb_presentation(built)))


def test_failing_check_counts_as_failed():
    argv = ["check", "qh", "--algebra", "zigzag"] + at(2, 3)
    result = worker.run([argv], seconds=0, min_passes=1)
    [record], [call] = result["passes"], result["outputs"]
    assert call["code"] == 1 and record["failed"] == 1
    assert run.check_outputs(result) != []
    # the report alone is enough to reject it, whatever the exit code
    assert rejected(argv, json.loads(call["stdout"]), code=0)


# ---------------------------------------------------------------------------
# the speed gauge


def test_each_call_is_scaled_by_the_gauge_around_it():
    nominal = gauge.NOMINAL_S
    record = {"call_s": [1.0, 2.0], "call_cpu_s": [0.5, 1.0],
              "gauge_s": [(nominal, nominal), (2 * nominal, 2 * nominal),
                          (nominal, nominal)]}
    wall, cpu = run.adjusted_pass(record)
    assert wall == pytest.approx(1.0 / 1.5 + 2.0 / 1.5)
    assert cpu == pytest.approx(wall / 2)


@pytest.mark.parametrize("threads", [1, 4])
def test_gauge_times_its_chunks(threads):
    wall, cpu = gauge.sample(threads)
    assert 0 < wall < 1 and 0 < cpu < 1


# ---------------------------------------------------------------------------
# the traced run


run_cli_original = zzqh.cli.run_cli


def test_traced_counts_repeat_and_output_is_unchanged():
    calls = [["check", "all"] + at(2, 2)]  # ten tasks on the thread pool
    plain, _ = worker.run_pass(calls)
    snapshots, digests = [], [plain["digest"]]
    with Tracer() as tracer:
        assert zzqh.cli.run_cli is not run_cli_original
        for _ in range(2):
            tracer.reset()
            record, _ = worker.run_pass(calls)
            digests.append(record["digest"])
            snapshots.append(tracer.snapshot())
    assert zzqh.cli.run_cli is run_cli_original
    assert len(set(digests)) == 1
    exact = [name for name, unit, _ in METRICS if unit not in TIMED]
    assert [snapshots[0][k] for k in exact] == [snapshots[1][k] for k in exact]
    first = snapshots[0]
    for key in ("algebra.compute_basis.cover_calls",
                "extdual.ext_table.calls", "linalg.rref.calls",
                "modules.minimal_resolution.calls", "cli.check_tasks.s"):
        assert first[key] > 0, key


def test_benchmark_json_names_the_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in METRICS]
    assert [m["name"] for m in spec["end_to_end"]] \
        == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
