"""Fast self-test of the benchmark itself: ``python3 perfbench/selftest.py``.

Runs every workload on a tiny slice and checks that

- each run ends with one JSON result whose metrics are exactly the
  ``end_to_end`` (untraced) or ``per_layer`` (traced) metrics named in
  BENCHMARK.json, each with its unit;
- a deliberately wrong expected answer, an operation spinning past the cap
  and one that blocks the alarm are all counted as failed, and no process
  of the run is left behind;
- a failure inside a layer without its own ``.failed`` count (covers) is
  counted for the layer the operation targets;
- in equiv, the queries on the two known-hang cells, and only they, carry
  their own short cap;
- outside a checkout (only BENCHMARK.json and perfbench/ present) the
  benchmark exits with an error and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (needs src on the path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = HERE / "_out"

problems = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def process_groups_alive(pids) -> list:
    """Workers lead their own process group; any member still running?"""
    alive = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) in pids:  # pgrp
            alive.append(stat.parent.name)
    return alive


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--limit", "3")
            res = result_of(proc)
            check(proc.returncode == 0 and res is not None,
                  f"{name} trace={trace}: exits 0 with a JSON result")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["attempted"] >= 1,
                  f"{name} trace={trace}: result keys and attempted >= 1")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want,
                  f"{name} trace={trace}: every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  f"{name} trace={trace}: metric values are numbers")

    # the two injected spinning ops carry a short cap of their own
    proc = bench("--workload", "equiv", "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--limit", "2",
                 "--inject", "wrong,cap,hang")
    res = result_of(proc)
    record = json.loads((OUT / "equiv-seed1-trace0.json").read_text())
    statuses = [op["status"] for op in record["passes"][0]["ops"]]
    check(res is not None and res["failed"] == 3 and not res["correct"]
          and statuses == ["wrong", "ok", "timeout", "timeout"],
          f"wrong answer and capped ops count as failed ({statuses})")
    check(not process_groups_alive(set(record["worker_pids"])),
          "no process of the run is left running")

    # a failure unwinding a layer without its own count (covers) goes to
    # the layer the op targets
    covers_span = ["covers.cover_invariants", 0.0, 0.001, -1, 0, True, None]
    counts = run.per_layer_of_pass({"ops": [{
        "status": "raised", "layer": "cli", "spans": [covers_span]}]})
    check(counts["cli.failed"] == 1 and counts["covers.cover_invariants.ms"]
          > 0, "an error in covers counts as a failed cli op")

    ops = workloads.build_equiv(random.Random(1), None)
    short = {op.label.split("(", 1)[1].split(" #")[0]
             for op in ops if op.cap is not None}
    check(short == set(workloads.HANG_CELLS)
          and all(op.cap == workloads.HANG_CAP_S for op in ops if op.cap),
          f"equiv: only the known-hang cells carry a short cap ({short})")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = bench("--workload", "enumerate", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and result_of(proc) is None,
          "without the program: nonzero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("failed: " + "; ".join(problems) if problems
                          else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
