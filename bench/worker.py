"""One workload's process: imports the program, then runs passes of CLI calls.

Protocol with ``run.py``: once ``zzqh`` is imported the worker writes
``ready`` on stdout, which ends its set-up.  It then reads a JSON spec
``{"calls": [...], "seconds": s, "min_passes": k, "trace": bool,
"gauge_threads": t}`` from
stdin; an empty stdin makes it exit at once (``run.py`` starts workers
that way to time set-up).  It runs whole passes of the calls, each through
``zzqh.cli.run_cli`` with stdout captured, until ``seconds`` have passed
and at least ``min_passes`` passes are done, and writes one JSON result
line: per-pass and per-call wall and CPU seconds, the gauge samples
around each call (``gauge.py``), exit codes and output digests, the
first pass's outputs, the process's peak RSS and, when traced, each
pass's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

import gauge  # noqa: E402  (imported before the program)
import zzqh.cli  # noqa: E402

if not os.path.abspath(zzqh.cli.__file__).startswith(SRC + os.sep):
    raise ImportError(f"zzqh was imported from {zzqh.cli.__file__}, "
                      f"not from {SRC}")

def cpu_seconds() -> float:
    """User and system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_call(argv):
    """(exit code, captured stdout) of one CLI call.  An exception that
    escapes ``run_cli`` gives code None and its traceback as output."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = zzqh.cli.run_cli(list(argv))
    except Exception:
        return None, buf.getvalue() + traceback.format_exc()
    return code, buf.getvalue()


def run_pass(calls, gauge_threads=1):
    """Run every call once, with a gauge sample on ``gauge_threads``
    threads before the first call and after each.  Returns (timing
    record, [(code, stdout)])."""
    gc.collect()
    outputs, call_s, call_cpu = [], [], []
    gauges = [gauge.sample(gauge_threads)]
    for argv in calls:
        cpu0, start = cpu_seconds(), perf_counter()
        outputs.append(run_call(argv))
        call_s.append(perf_counter() - start)
        call_cpu.append(cpu_seconds() - cpu0)
        gauges.append(gauge.sample(gauge_threads))
    digest = hashlib.sha256(json.dumps(
        [[argv, code, out] for argv, (code, out) in zip(calls, outputs)]
    ).encode()).hexdigest()
    return {"wall_s": sum(call_s), "cpu_s": sum(call_cpu), "call_s": call_s,
            "call_cpu_s": call_cpu, "gauge_s": gauges, "digest": digest,
            "failed": sum(code != 0 for code, _ in outputs)}, outputs


def run(calls, seconds, min_passes, tracer=None, gauge_threads=1) -> dict:
    passes, first = [], None
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        record, outputs = run_pass(calls, gauge_threads)
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        passes.append(record)
        if first is None:
            first = outputs
    return {"passes": passes,
            "outputs": [{"argv": argv, "code": code, "stdout": out}
                        for argv, (code, out) in zip(calls, first)],
            "peak_rss_kib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    text = sys.stdin.read()
    if not text:
        return 0
    spec = json.loads(text)
    if spec["trace"]:
        from tracing import Tracer
        with Tracer() as tracer:
            result = run(spec["calls"], spec["seconds"],
                         spec["min_passes"], tracer, spec["gauge_threads"])
    else:
        result = run(spec["calls"], spec["seconds"], spec["min_passes"],
                     gauge_threads=spec["gauge_threads"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
