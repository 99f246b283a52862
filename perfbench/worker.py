"""One workload process: imports nodalcodes, builds the inputs, runs ops.

Started by run.py, one process per pass.  Protocol, one JSON line each way:

    worker -> {"labels": [...], "layers": [...], "caps": [...],
               "import_s": .., "build_s": ..}         once, when ready
    parent -> "<op index>"      worker -> {"i", "ms", "status", "detail",
                                           "spans"}
    parent -> "end"             worker -> {"maxrss_kb", "children_maxrss_kb"}

An op past its cap is stopped in-process by SIGALRM; run.py kills the
whole process group if the reply still does not come.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


INJECTED_CAP_S = 0.25  # the self-test's spinning ops end quickly


class Capped(BaseException):
    """Raised by the alarm; BaseException so library code cannot catch it."""


def _alarm(signum, frame):
    raise Capped()


def _spin_past_cap():
    while True:
        pass


def _spin_ignoring_alarm():
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    while True:
        pass


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--inject", default="")
    args = p.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nodalcodes  # noqa: F401  (timed: import is part of set-up)
    import tracer as tracing
    import workloads
    t1 = time.perf_counter()

    tmp = Path(args.tmp) / f"worker-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    ctx = workloads.CliContext(
        python=sys.executable, env=env, tmp=tmp, cap_s=args.cap,
        traced=bool(args.trace), bootstrap=HERE / "clitrace.py",
    )
    ops = workloads.BUILDERS[args.workload](random.Random(args.seed), ctx)
    if args.limit:
        ops = ops[:args.limit]
    if "wrong" in args.inject:
        ops[0].check = lambda res: "deliberately wrong expected answer"
    if "cap" in args.inject:
        ops.append(workloads.Op("spin past the cap", "gf2", _spin_past_cap,
                                lambda res: None, INJECTED_CAP_S))
    if "hang" in args.inject:
        ops.append(workloads.Op("spin with the alarm blocked", "gf2",
                                _spin_ignoring_alarm, lambda res: None,
                                INJECTED_CAP_S))
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    t2 = time.perf_counter()

    signal.signal(signal.SIGALRM, _alarm)
    in_process = args.workload != "cli"  # cli requests carry their own cap
    caps = [op.cap or args.cap for op in ops]
    out = sys.stdout
    out.write(json.dumps({
        "labels": [op.label for op in ops],
        "layers": [op.layer for op in ops],
        "caps": caps,
        "import_s": t1 - t0,
        "build_s": t2 - t1,
    }) + "\n")
    out.flush()

    while True:
        line = sys.stdin.readline().strip()
        if line in ("", "end"):
            break
        i = int(line)
        op = ops[i]
        status, detail, result = "ok", "", None
        tracer.begin_op(i)
        start = time.perf_counter()
        try:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, caps[i])
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Capped, subprocess.TimeoutExpired):
            status, detail = "timeout", f"stopped at the {caps[i]} s cap"
        except Exception as exc:  # a raise is a counted failure, not a crash
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        spans = tracer.end_op()
        if args.workload == "cli" and isinstance(result, dict):
            for s in result["spans"]:
                s[tracing.OP] = i
            spans = result["spans"]
        if status == "ok":
            try:
                verdict = op.check(result)
            except Exception as exc:
                verdict = f"oracle could not read the result: {exc!r}"
            if verdict:
                status, detail = "wrong", verdict
        reply = {"i": i, "ms": elapsed_ms, "status": status,
                 "detail": detail, "spans": spans}
        if isinstance(result, dict) and "cache_hit" in result:
            reply["cache_hit"] = result["cache_hit"]
        out.write(json.dumps(reply) + "\n")
        out.flush()

    out.write(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
