"""Benchmark of the zzqh command line: one workload per invocation.

    python3 bench/run.py --workload grid-all --seed 0 [--seconds S] --trace 0

Starts the workload in its own process (``worker.py``), which drives the
program through ``zzqh.cli.run_cli`` for whole passes of the workload's
calls; ``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.
Then checks every output against reference values computed here
(``reference.py``, ``verify.py``) and prints, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (wall_s, cpu_s, setup_s,
peak_rss_mb), with each call's wall and CPU time scaled by the speed
gauge timed around it (``gauge.py``); with ``--trace 1`` the per-layer
ones of ``tracing.py``.
Details of the run go to ``bench/out/`` and a summary to stderr.  Exits
1 without a result if the program cannot be started.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

import gauge
import verify
from reference import largest_resolution_vertex, name
from tracing import METRICS, TIMED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

# Set-up probes per run, half before the worker and half after it, so
# that they sample the machine's speed over the whole run.
SETUP_SAMPLES = 10
# The worker runs whole passes until the run's seconds are over, and at
# least MIN_PASSES of them.  Its time limit leaves room for passes that
# are each a little longer than the run is meant to last, so that a slow
# program is measured rather than cut off.
MIN_PASSES = 3


def _at(n, s):
    return ["--n", str(n), "--s", str(s)]


def workload_calls(workload: str) -> list:
    """The CLI calls of one pass, in a fixed order."""
    if workload == "grid-all":
        return [["check", "all"]]
    if workload == "large":
        koszul = [call for n, s in ((2, 4), (3, 3), (4, 2)) for call in (
            ["check", "koszul"] + _at(n, s),
            ["check", "qh"] + _at(n, s),
            ["resolve"] + _at(n, s) + [
                "--module", "simple:" + name(largest_resolution_vertex(n, s))])]
        dual = [call for n, s in ((2, 5), (3, 3), (4, 2)) for call in (
            ["check", "dual"] + _at(n, s),
            ["dual"] + _at(n, s) + ["--emit", "json"])]
        basis = [["check", "socle-lemmas"] + _at(n, s)
                 for n, s in ((2, 4), (3, 3))]
        return koszul + dual + basis
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("grid-all", "large")
# Threads the gauge runs on (gauge.py): as many as the CLI's pool for
# `check all`, which is the only call of grid-all; one for large, whose
# calls run on the main thread.
GAUGE_THREADS = {"grid-all": 4, "large": 1}


class WorkerError(RuntimeError):
    pass


def start_worker():
    """Start a worker; returns (process, seconds until it was ready)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    took = perf_counter() - start
    if line != b"ready\n":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not start (exit code {proc.returncode})")
    return proc, took


def finish(proc, spec=b"", timeout=30):
    """Send the spec, wait for the worker and return its stdout."""
    try:
        out, _ = proc.communicate(spec, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker ran over {timeout} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def setup_probe() -> float:
    proc, took = start_worker()
    finish(proc)
    return took


def run_worker(calls, seconds, trace, gauge_threads):
    proc, took = start_worker()
    spec = json.dumps({"calls": calls, "seconds": seconds,
                       "min_passes": MIN_PASSES, "trace": trace,
                       "gauge_threads": gauge_threads})
    timeout = (MIN_PASSES + 1) * seconds + 60
    lines = finish(proc, spec.encode(), timeout).decode().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1]), took


def adjusted_pass(record) -> tuple:
    """(wall, cpu) seconds of a pass, each call scaled by the gauge
    samples taken before and after it (``gauge.adjust``)."""
    g = record["gauge_s"]
    wall = sum(gauge.adjust(t, g[k][0], g[k + 1][0])
               for k, t in enumerate(record["call_s"]))
    cpu = sum(gauge.adjust(t, g[k][1], g[k + 1][1])
              for k, t in enumerate(record["call_cpu_s"]))
    return wall, cpu


def check_outputs(result) -> list:
    """Errors in the run: passes whose outputs differ from the first, and
    calls that failed or whose outputs are wrong."""
    errors = []
    digests = {p["digest"] for p in result["passes"]}
    if len(digests) != 1:
        errors.append(f"outputs differ between passes: {len(digests)} digests")
    for call in result["outputs"]:
        errors += [f"{' '.join(call['argv'])}: {e}"
                   for e in verify.check_call(call["argv"], call["code"],
                                              call["stdout"])]
    return errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="orders the calls within a pass (default 0)")
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    calls = workload_calls(args.workload)
    random.Random(args.seed).shuffle(calls)
    trace = bool(args.trace)
    probes = 0 if trace else SETUP_SAMPLES // 2
    try:
        if probes:
            setup_probe()  # compiles bytecode once, as an installed CLI has
        setup = [setup_probe() for _ in range(probes)]
        result, took = run_worker(calls, args.seconds, trace,
                                  GAUGE_THREADS[args.workload])
        setup += [took] + [setup_probe() for _ in range(probes)]
    except (WorkerError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = result["passes"]
    for p in passes:
        p["adjusted_wall_s"], p["adjusted_cpu_s"] = adjusted_pass(p)
    errors = check_outputs(result)
    if trace:
        exact = [name_ for name_, unit, _ in METRICS if unit not in TIMED]
        counts = [[p["trace"][k] for k in exact] for p in passes]
        if any(c != counts[0] for c in counts):
            errors.append("traced work counts differ between passes")
        metrics = {name_: {"value": statistics.median(p["trace"][name_]
                                                      for p in passes),
                           "unit": unit}
                   for name_, unit, _ in METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(
                p["adjusted_wall_s"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(
                p["adjusted_cpu_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024,
                            "unit": "MiB"},
        }
    summary = {"correct": not errors,
               "attempted": len(calls) * len(passes),
               "failed": sum(p["failed"] for p in passes),
               "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if trace else "")
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"summary": summary, "errors": errors, "calls": calls,
                   "setup_s": setup, "passes": passes}, fh, indent=1)
    for e in errors[:20]:
        print(f"wrong: {e}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, wall "
          f"{[round(p['wall_s'], 3) for p in passes]} s, adjusted "
          f"{[round(p['adjusted_wall_s'], 3) for p in passes]} s",
          file=sys.stderr)
    for k, argv_ in enumerate(calls):
        print(f"  {statistics.median(p['call_s'][k] for p in passes):8.3f} s"
              f"  {' '.join(argv_)}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
