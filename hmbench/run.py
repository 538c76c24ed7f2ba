"""hmvol benchmark: one workload, one seed, one run.

    python3 hmbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's `src/`.  Workloads are listed in `workloads.WORKLOADS`
and described in NOTES.md.

--trace 0 measures the end-to-end metrics: S seconds of ops in one fresh
worker process with tracing off, and set-up time (median of several fresh
interpreters, started at even intervals over the run while the timed worker
waits).  Time metrics are scaled to the host speed of REFERENCE_PROBE_MS,
measured by the worker's host probe; the unscaled values are printed too.
It then runs the workload's known-defect ops (`workloads.defect_probe`) in
a worker of their own and reports whether each defect still shows; they
are not part of the measured ops.  --trace 1 runs a fixed prefix of the op
list twice, untraced and traced, and reports the per-layer metrics and the
tracing overhead.
Every op's output is checked after the run (checks.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 1 on an unexplained wrong result (a mismatch, an
unexpected exit code or an uncaught exception), 2 when the benchmark cannot
run at all, else 0; measured ops that fail by a known defect or overrun
their deadline count as failed, not as wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15  # interpreter starts per run; setup_s is their median
INF_MS = 1e9  # reported for a latency percentile that falls on a failed op
# Median time of worker.host_probe on the 2-vCPU VM the benchmark was tuned
# on.  The speed of that shared host drifts by up to a third within minutes
# and moves hmvol's ops and the probe alike, so time metrics are reported at
# this probe time (NOTES.md, "Steadiness").
REFERENCE_PROBE_MS = 2.5
# End-to-end rows that go into the result line; failed_frac and mismatches
# are 0 on some workloads, so the line carries ok_frac = 1 - failed_frac.
E2E_REPORTED = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "ok_frac",
                "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, seconds: float = 0.0, timeout: float = 30.0,
          pauses: int = 0, on_pause=None) -> tuple[float, list[dict], dict | None]:
    """Run one worker; returns (seconds from spawn to READY, its op results,
    its END record).  `on_pause` runs each time the worker pauses."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--pauses", str(pauses)]
    env = dict(os.environ, PYTHONHASHSEED="0")  # one dict/set order for every run
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready, ops, end = None, [], None
    try:
        if proc.stdout.readline() == "READY\n":
            ready = time.perf_counter() - t0
        while ready is not None and (line := proc.stdout.readline()):
            tag, _, body = line.rstrip("\n").partition(" ")
            if tag == "OP":
                ops.append(json.loads(body))
            elif tag == "PAUSE":
                on_pause()
                try:
                    proc.stdin.write("GO\n")
                    proc.stdin.flush()
                except BrokenPipeError:  # the watchdog stopped the worker
                    break
            elif tag == "END":
                end = json.loads(body)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if ready is None or proc.returncode != 0 or (mode != "setup" and end is None):
        raise BenchError(f"worker {mode} failed or ran past {timeout:.0f} s "
                         f"(exit {proc.returncode})")
    return ready, ops, end


def quantile(sorted_ms: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list that may end in inf."""
    pos = q * (len(sorted_ms) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    a, b = sorted_ms[lo], sorted_ms[hi]
    if math.isinf(b):
        return a if hi == lo or pos == lo else math.inf
    return a + (b - a) * (pos - lo)


def metadata(seed: int) -> dict:
    import mpmath
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hmvol").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def check_ops(ops: list[dict], results: list[dict], end: dict,
              checker: checks.Checker) -> list[dict]:
    """Verdict per op result; result i belongs to ops[i mod len(ops)].  Also
    confirms the worker ran the op list this process generated for the seed
    (the same seed gives the same argv list)."""
    if end["list_sha256"] != hashlib.sha256(
            json.dumps([op["argv"] for op in ops]).encode()).hexdigest():
        raise BenchError("worker and runner generated different op lists for one seed")
    return [checker.check(op, res) | {"argv": op["argv"], "ms": res["ms"]}
            for op, res in zip((ops[i % len(ops)] for i in range(len(results))), results)]


def summarize_failures(verdicts: list[dict]) -> tuple[bool, list[str]]:
    """(correct, report lines).  Incorrect means an unexplained wrong result:
    a mismatch, an unexpected exit code or an uncaught exception."""
    lines, correct = [], True
    by_defect: dict[str, int] = {}
    for v in verdicts:
        if v["failed"] and v["defect"]:
            by_defect[v["defect"]] = by_defect.get(v["defect"], 0) + 1
    for defect, n in sorted(by_defect.items()):
        lines.append(f"known defect {defect}: {n} ops ({checks.KNOWN_DEFECTS[defect]})")
    for v in verdicts:
        if v["failed"] and not v["defect"]:
            slow = v["reason"] == "deadline"
            correct &= slow
            lines.append(f"{'UNEXPLAINED FAILURE' if slow else 'WRONG RESULT'}: "
                         f"hmvol {' '.join(v['argv'])}: {v['reason']}")
    unverified = sum(v["unverified"] for v in verdicts)
    if unverified:
        lines.append(f"{unverified} ops completed with no recorded reference (unverified)")
    return correct, lines


def defect_probe(workload: str, seed: int, checker) -> tuple[bool, list[str]]:
    """Run the workload's known-defect ops apart from the measured ones and
    report, op by op, whether the defect still shows.  (correct, lines):
    only a mismatch that no known defect explains is a wrong result; a probe
    op that now passes or overruns its deadline is reported, not judged."""
    ops = workloads.defect_probe(workload)
    if not ops:
        return True, []
    _, results, end = spawn(workload, seed, "probe", timeout=60)
    correct, lines = True, []
    for op, v in zip(ops, check_ops(ops, results, end, checker)):
        argv = "hmvol " + " ".join(v["argv"])
        expected = workloads.DEFECT_CLASSES[op["cls"]]
        if v["defect"] == expected:
            lines.append(f"known defect {expected} shows: {argv}: {v['reason']}")
        elif not v["failed"]:
            lines.append(f"known defect {expected} no longer shows: {argv} passes")
        else:
            correct &= not v["mismatch"]
            lines.append(f"{'WRONG RESULT' if v['mismatch'] else 'probe failed'} "
                         f"(expected {expected}): {argv}: {v['reason']}")
    return correct, lines


def end_to_end(workload: str, seed: int, seconds: float, checker) -> dict:
    setups: list[float] = []

    def sample_setup():
        setups.append(spawn(workload, seed, "setup")[0])

    ready, results, end = spawn(workload, seed, "timed", seconds=seconds,
                                timeout=seconds + 2 * workloads.DEADLINE_S[workload] + 90,
                                pauses=SETUP_SAMPLES - 1, on_pause=sample_setup)
    setups.append(ready)
    ops = workloads.generate(workload, seed)
    verdicts = check_ops(ops, results, end, checker)
    n = len(verdicts)
    if n == 0:
        raise BenchError("no op ran")
    failed = sum(v["failed"] for v in verdicts)
    mismatches = sum(v["mismatch"] for v in verdicts)
    lat = sorted(math.inf if v["failed"] else v["ms"] for v in verdicts)
    p50, p90 = quantile(lat, 0.5), quantile(lat, 0.9)
    wall = end["wall_s"]
    probe_ms = statistics.median(end["probe_ms"])
    scale = REFERENCE_PROBE_MS / probe_ms
    setup = statistics.median(setups)
    lat_q = [quantile(lat, 0.25), quantile(lat, 0.75)]
    rows = [
        ("host_probe_ms", probe_ms, "ms",
         f"{len(end['probe_ms'])} probes; the times below are scaled by {scale:.4f}"),
        ("setup_s", setup * scale, "s", f"{len(setups)} interpreter starts, unscaled {setup:.6g}"),
        ("ops_per_s", (n - failed) / wall / scale, "1/s",
         f"{n - failed} correct ops in {wall:.3f} s, unscaled {(n - failed) / wall:.6g}"),
        ("latency_p50_ms", p50 * scale, "ms",
         f"{n} ops, unscaled {p50:.6g}, q1 {lat_q[0]:.3f} q3 {lat_q[1]:.3f}"),
        ("latency_p90_ms", p90 * scale, "ms",
         f"{n} ops, {n - math.ceil(0.9 * n)} beyond p90, unscaled {p90:.6g}"),
        ("failed_frac", failed / n, "1", f"{failed} of {n} ops"),
        ("mismatches", mismatches, "count", f"{mismatches} of {n} ops"),
        ("ok_frac", (n - failed) / n, "1", f"{n - failed} of {n} ops"),
        ("peak_rss_mb", end["peak_rss_mb"], "MB", "1 worker process"),
    ]
    notes = []
    if n < 100:
        notes.append(f"only {n} ops: fewer than 10 samples beyond p90")
    if n > len(ops):
        notes.append(f"{n - len(ops)} repeated ops: the run went past one cycle of "
                     f"{len(ops)} distinct ops")
    probe_correct, probe_lines = defect_probe(workload, seed, checker)
    return {"rows": rows, "notes": notes + probe_lines, "verdicts": verdicts,
            "probe_correct": probe_correct, "reported": E2E_REPORTED}


PER_LAYER = [
    # (metric, kind, function or module)
    ("jordan.calls", "calls", "jordan.jordan_decompose"),
    ("jordan.useful_frac", "useful", "jordan.jordan_decompose"),
    ("jordan.self_s", "module", "jordan"),
    ("volumes.euler_calls", "calls", "volumes.euler_alpha_product"),
    ("volumes.euler_useful_frac", "useful", "volumes.euler_alpha_product"),
    ("volumes.self_s", "module", "volumes"),
    ("special_values.genbern_calls", "calls", "special_values.generalized_bernoulli"),
    ("special_values.genbern_useful_frac", "useful", "special_values.generalized_bernoulli"),
    ("special_values.genbern_self_s", "layer", "special_values.generalized_bernoulli"),
    ("special_values.bernoulli_calls", "calls", "special_values.bernoulli"),
    ("special_values.self_s", "module", "special_values"),
    ("discforms.discform_calls", "calls", "discforms.discriminant_form"),
    ("discforms.discform_useful_frac", "useful", "discforms.discriminant_form"),
    ("discforms.isometry_calls", "calls", "discforms.finite_isometry_order"),
    ("discforms.isometry_self_s", "layer", "discforms.finite_isometry_order"),
    ("discforms.guard_trips", "guard", "discforms.finite_isometry_order"),
    ("lattices.builds", "calls", "lattices.Lattice"),
    ("lattices.self_s", "module", "lattices"),
    ("arith.factorize_calls", "calls", "arith.factorize"),
    ("arith.self_s", "module", "arith"),
    ("density.formula_calls", "calls", "density.local_density"),
    ("density.formula_self_s", "layer", "density.local_density"),
    ("density.oracle_calls", "calls", "density.siegel_count_oracle"),
    ("density.oracle_self_s", "layer", "density.siegel_count_oracle"),
    ("families.self_s", "module", "families"),
    ("expr.self_s", "module", "expr"),
    ("cli.self_s", "module", "cli"),
]
_UNITS = {"calls": "count", "useful": "1", "module": "s", "layer": "s", "guard": "count"}


def per_layer(workload: str, seed: int, seconds: float, checker) -> dict:
    """Per-layer metrics from a fixed prefix of the op list (so counts
    compare exactly between commits); `seconds` is not used."""
    ops = workloads.trace_ops(workload, seed)
    timeout = 80  # per pass, so that a traced run ends within 180 s
    _, plain, plain_end = spawn(workload, seed, "plain", timeout=timeout)
    _, traced, traced_end = spawn(workload, seed, "traced", timeout=timeout)
    v_plain = check_ops(ops, plain, plain_end, checker)
    verdicts = check_ops(ops, traced, traced_end, checker)
    both_ok = [i for i, (a, b) in enumerate(zip(v_plain, verdicts))
               if not a["failed"] and not b["failed"]]
    untraced_ms = sum(plain[i]["ms"] for i in both_ok)
    traced_ms = sum(traced[i]["ms"] for i in both_ok)
    count = len(ops)
    funcs, modules = traced_end["trace"]["functions"], traced_end["trace"]["module_self_s"]
    rows = []
    for metric, kind, name in PER_LAYER:
        f = funcs.get(name, {})
        value = {
            "calls": f.get("calls", 0),
            "useful": f["distinct"] / f["calls"] if f.get("calls") else 0.0,
            "module": modules.get(name, 0.0),
            "layer": f.get("layer_s", 0.0),
            "guard": f.get("guard_trips", 0),
        }[kind]
        rows.append((metric, value, _UNITS[kind], f"{count} traced ops"))
    overhead = traced_ms / untraced_ms - 1 if untraced_ms else 0.0
    rows.append(("trace_overhead_frac", overhead, "1",
                 f"{traced_ms / 1e3:.3f} s traced / {untraced_ms / 1e3:.3f} s untraced "
                 f"over {len(both_ok)} ops"))
    return {"rows": rows, "notes": [], "verdicts": verdicts, "checked_only": v_plain,
            "reported": [r[0] for r in rows]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hmvol benchmark (see NOTES.md)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hmvol" / "__init__.py").is_file():
        print(f"hmbench: no hmvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    measure = per_layer if args.trace else end_to_end
    try:
        checker = checks.Checker(checks.load_digests())
        result = measure(args.workload, args.seed, args.seconds, checker)
    except BenchError as exc:
        print(f"hmbench: {exc}", file=sys.stderr)
        return 2
    verdicts = result["verdicts"]
    correct, failure_lines = summarize_failures(verdicts)
    correct &= result.get("probe_correct", True)
    if "checked_only" in result:  # the untraced pass of a traced run
        plain_correct, plain_lines = summarize_failures(result["checked_only"])
        correct &= plain_correct
        failure_lines += [f"untraced pass: {line}" for line in plain_lines if "WRONG" in line]

    print(f"hmbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(metadata(args.seed)))
    print(f"{'metric':36} {'value':>16} {'unit':6} samples")
    for name, value, unit, samples in result["rows"]:
        print(f"{name:36} {value:16.6g} {unit:6} {samples}")
    for line in result["notes"] + failure_lines:
        print(line)
    metrics = {name: {"value": INF_MS if math.isinf(value) else value, "unit": unit}
               for name, value, unit, _ in result["rows"] if name in result["reported"]}
    print(json.dumps({"correct": correct, "attempted": len(verdicts),
                      "failed": sum(v["failed"] for v in verdicts), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
