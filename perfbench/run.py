"""nodalcodes benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {enumerate,equiv,cli}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout that holds ``src/nodalcodes``; it needs
nothing but the standard library.  Each pass runs the workload's fixed
operation list once in a fresh worker process (perfbench/worker.py), one
operation at a time.  A run makes a fixed number of passes, ``--seconds``
divided by the workload's nominal pass time, so that every run of one seed
does the same work.  Every result is checked by an oracle; an operation that
raises, is rejected, or runs past its cap counts as failed, and
a capped operation is stopped, never waited on.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
runs one untraced pass and then traced ones, and prints the per-layer
metrics with the tracing overhead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary and the run's metadata, which are also
written with every failure to ``perfbench/_out/``.

Seed 9973 is held out: claims made with other seeds confirm on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import END, ERROR, NAME, NOTE, PARENT, START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
HELD_OUT_SEED = 9973

# Per-operation cap in seconds.  enumerate's slowest op takes about 5 s,
# and a cli request about 0.5 s at most, while the rank-8 root searches in
# the cli mix never end.  equiv's slowest searches that finish take about
# 3 s; the two cells whose searches take 7 s to minutes carry a short cap
# of their own (workloads.HANG_CAP_S), so they count as failed without
# dominating the pass.
CAPS = {"enumerate": 30.0, "equiv": 10.0, "cli": 1.5}
# Seconds of --seconds that one pass stands for.  A run makes
# round(--seconds / PASS_S) passes, at least one, so the number of
# operations a run attempts and fails does not depend on the machine's
# speed.  On a 2-vCPU Xeon VM a pass takes 8.5-9.5 s on enumerate, 10-12 s
# on equiv and 10-11 s on cli, so a 30-s run makes 4, 3 and 3 passes and
# takes 32-42 s with its set-up samples.
PASS_S = {"enumerate": 8.0, "equiv": 10.0, "cli": 10.0}
SETUP_ONLY_SPAWNS = 9   # extra set-up samples besides one per pass
KILL_GRACE_S = 2.0      # wait this long past the cap before killing
PROBE_SPAWNS = 5        # samples of bare interpreter and import time

END_TO_END = [  # (name, unit)
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("gf2.canonical_form.calls", "count"),
    ("gf2.canonical_form.ms", "ms"),
    ("gf2.canonical_form.repeat_ratio", "1"),
    ("gf2.enumerate_codes.calls", "count"),
    ("gf2.enumerate_codes.self_ms", "ms"),
    ("gf2.equivalent.calls", "count"),
    ("gf2.equivalent.self_ms", "ms"),
    ("gf2.make_code.ms", "ms"),
    ("gf2.weight_enumerator.ms", "ms"),
    ("gf2.recognize_de.ms", "ms"),
    ("gf2.parse_code.ms", "ms"),
    ("gf2.failed", "count"),
    ("lattices.roots.calls", "count"),
    ("lattices.roots.ms", "ms"),
    ("lattices.roots.found", "count"),
    ("lattices.failed", "count"),
    ("lattices.construction_a.ms", "ms"),
    ("lattices.identify_root_system.self_ms", "ms"),
    ("lattices.discriminant.ms", "ms"),
    ("classify.feasible_kr_pairs.self_ms", "ms"),
    ("classify.saturated_node_sweep.self_ms", "ms"),
    ("classify.classify_involution.ms", "ms"),
    ("classify.fiber_budget.ms", "ms"),
    ("classify.failed", "count"),
    ("covers.cover_invariants.ms", "ms"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.run.self_ms", "ms"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.failed", "count"),
    ("trace.overhead_s", "s"),
]

TIMER_NOTE = (
    "no CPU pinning, no frequency control and no cache dropping are used "
    "(an unprivileged container offers none), only per-process timers "
    "(perf_counter, ru_maxrss); expect noise from other tenants of the host"
)



class LineReader:
    """Read newline-terminated JSON replies from a pipe with a deadline."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buf = b""

    def read(self, timeout: float) -> Optional[dict]:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


class Worker:
    """A workload process in its own session, so a kill takes its children."""

    def __init__(self, args, traced: bool, tmp: Path) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--cap", str(CAPS[args.workload]),
               "--trace", str(int(traced)), "--tmp", str(tmp),
               "--limit", str(args.limit), "--inject", args.inject]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True, cwd=ROOT)
        self.pid = self.proc.pid
        self.reader = LineReader(self.proc.stdout.fileno())
        self.ready = self.reader.read(120.0)
        if self.ready is None:
            self.kill()
            raise RuntimeError("workload process did not start")
        self.setup_s = time.perf_counter() - t0

    def call(self, i: int, timeout: float) -> Optional[dict]:
        self.proc.stdin.write(f"{i}\n".encode())
        self.proc.stdin.flush()
        return self.reader.read(timeout)

    def finish(self) -> Dict[str, int]:
        self.proc.stdin.write(b"end\n")
        self.proc.stdin.flush()
        usage = self.reader.read(30.0) or {}
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close()
        return usage

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


def run_pass(args, traced: bool, tmp: Path, pids: List[int]) -> dict:
    """Run the operation list once in a fresh process; respawn after a kill."""
    worker = Worker(args, traced, tmp)
    pids.append(worker.pid)
    setup_s = worker.setup_s
    labels, layers = worker.ready["labels"], worker.ready["layers"]
    caps = worker.ready["caps"]
    ops: List[dict] = []
    rss_mb = None  # unknown when the last worker had to be killed
    for i in range(len(labels)):
        if worker is None:
            worker = Worker(args, traced, tmp)
            pids.append(worker.pid)
        t0 = time.perf_counter()
        reply = worker.call(i, caps[i] + KILL_GRACE_S)
        if reply is None:
            worker.kill()
            worker = None
            reply = {"i": i, "ms": (time.perf_counter() - t0) * 1000.0,
                     "status": "timeout", "spans": [],
                     "detail": f"killed {KILL_GRACE_S} s after the "
                               f"{caps[i]} s cap"}
        reply["label"], reply["layer"] = labels[i], layers[i]
        ops.append(reply)
    if worker is not None:
        usage = worker.finish()
        rss_mb = max(usage.get("maxrss_kb", 0),
                     usage.get("children_maxrss_kb", 0)) / 1024.0
    return {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": sum(op["ms"] for op in ops) / 1000.0,
        "ops": ops,
        "peak_rss_mb": rss_mb,
    }


def tail(latencies: List[float]):
    """Latency at the highest percentile with at least 10 samples above it,
    the percentile, and the number of samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: List[dict], setups: List[float]) -> dict:
    """wall_s counts capped ops at their cap; the latency percentiles are
    over completed ops only, so they follow the ops that finish instead of
    reading the cap.  Capped ops show in fail_ratio."""
    ops = [op for p in passes for op in p["ops"]]
    lat = [op["ms"] for op in ops if op["status"] != "timeout"]
    if not lat:  # every op capped: the cap is all there is to report
        lat = [op["ms"] for op in ops]
    value, pct, n = tail(lat)
    attempted = len(ops)
    failed = sum(op["status"] != "ok" for op in ops)
    rss = [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"] is not None]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": value,
        "op_tail_percentile": pct,
        "op_tail_samples": n,
        "fail_ratio": failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss) if rss else
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_of_pass(p: dict) -> Dict[str, float]:
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    seen_repeat = 0
    for op in p["ops"]:
        spans = op["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        for s, covered in zip(spans, child):
            dur_ms = (s[END] - s[START]) * 1000.0
            name = s[NAME]
            for key, value in ((f"{name}.calls", 1),
                               (f"{name}.ms", dur_ms),
                               (f"{name}.self_ms", dur_ms - covered * 1000.0)):
                if key in m:
                    m[key] += value
            if name == "gf2.canonical_form" and s[NOTE]:
                seen_repeat += 1
            if name == "lattices.roots" and s[NOTE] is not None:
                m["lattices.roots.found"] += s[NOTE]
        if op["status"] != "ok":
            errored = [s for s in spans if s[ERROR]]
            layer = layer_of(errored[-1][NAME]) if errored else op["layer"]
            if f"{layer}.failed" not in m:  # a layer without its own count
                layer = op["layer"]
            m[f"{layer}.failed"] += 1
        if op.get("cache_hit") is not None:
            m["cli.cache.hits" if op["cache_hit"] else "cli.cache.misses"] += 1
    calls = m["gf2.canonical_form.calls"]
    m["gf2.canonical_form.repeat_ratio"] = seen_repeat / calls if calls else 0.0
    return m


def probe_startup() -> Dict[str, float]:
    """Bare interpreter and `import nodalcodes.cli` times, by subprocess."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, imp = [], []
    for _ in range(PROBE_SPAWNS):
        for code, into in (("pass", bare), ("import nodalcodes.cli", imp)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           cwd=ROOT, timeout=60)
            into.append((time.perf_counter() - t0) * 1000.0)
    return {"cli.interp_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(imp) - statistics.median(bare)}


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CAPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the self-test: a short slice and deliberate failures
    p.add_argument("--limit", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--inject", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nodalcodes" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'nodalcodes'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    setups: List[float] = []
    pids: List[int] = []
    for _ in range(SETUP_ONLY_SPAWNS):
        w = Worker(args, False, tmp)
        pids.append(w.pid)
        setups.append(w.setup_s)
        w.finish()

    count = max(1, round(args.seconds / PASS_S[args.workload]))
    plan = [False] * count
    if args.trace:  # one untraced pass, then traced ones
        plan = [False] + [True] * max(1, count - 1)
    passes: List[dict] = []
    for traced in plan:
        passes.append(run_pass(args, traced, tmp, pids))
        setups.append(passes[-1]["setup_s"])

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e = end_to_end(untraced, setups)
    all_ops = [op for p in passes for op in p["ops"]]
    attempted = len(all_ops)
    failed = sum(op["status"] != "ok" for op in all_ops)
    correct = not any(op["status"] == "wrong" for op in all_ops)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cap_s": CAPS[args.workload],
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "ops_per_pass": len(passes[0]["ops"]),
        "op_tail_percentile": e2e["op_tail_percentile"],
        "op_tail_samples": e2e["op_tail_samples"],
        "fail_ratio": e2e["fail_ratio"],
        "setup_samples": len(setups),
        "loop": "closed, one client, one operation at a time",
        "timers": TIMER_NOTE,
    }
    if traced:
        layer_runs = [per_layer_of_pass(p) for p in traced]
        per_layer = {name: statistics.median(r[name] for r in layer_runs)
                     for name, _ in PER_LAYER}
        per_layer.update(probe_startup())
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - e2e["wall_s"])
        per_layer["trace.overhead_s"] = overhead
        meta["tracing_overhead_s"] = overhead
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    failures = [{"pass": k, "op": op["i"], "input": op["label"],
                 "status": op["status"], "detail": op["detail"]}
                for k, p in enumerate(passes) for op in p["ops"]
                if op["status"] != "ok"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "end_to_end": e2e, "metrics": metrics,
              "failures": failures, "worker_pids": pids,
              "passes": [{"traced": p["traced"], "setup_s": p["setup_s"],
                          "wall_s": p["wall_s"],
                          "peak_rss_mb": p["peak_rss_mb"],
                          "ops": [{k: op[k] for k in
                                   ("i", "label", "ms", "status")}
                                  for op in p["ops"]]}
                         for p in passes]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for k, p in enumerate(passes):
                for op in p["ops"]:
                    for s in op["spans"]:
                        f.write(json.dumps([k] + s) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} ops, {failed} failed, correct={correct}")
    for name, unit in END_TO_END:
        print(f"{name:>14} {e2e[name]:12.4f} {unit}")
    print(f"{'fail_ratio':>14} {e2e['fail_ratio']:12.4f} 1")
    if traced:
        for name, unit in PER_LAYER:
            print(f"{name:>40} {metrics[name]['value']:12.4f} {unit}")
    for f_ in failures[:20]:
        print(f"# failed: {f_['input']}: {f_['status']} {f_['detail']}")
    print("# meta " + json.dumps(meta))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
