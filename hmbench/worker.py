"""One benchmark process: imports hmvol from the checkout's `src/`, makes the
op list of a workload from its seed, then runs ops through `hmvol.cli.main`
in-process with stdout captured.

    python3 hmbench/worker.py --workload W --seed N --mode MODE [--seconds S] [--pauses K]

MODE is `setup` (stop once the inputs exist), `timed` (run ops until S
seconds have passed, going round the op list again if it runs out),
`plain` (run the ops of `workloads.trace_ops`), `traced` (the same, with
the tracer installed) or `probe` (run the known-defect ops of
`workloads.defect_probe`).  The worker writes `READY` on stdout as soon as
hmvol is imported and the inputs are generated, so the parent can time
set-up from interpreter start.  Before each op it empties the program's
caches (`cache_clearers`), so every op starts as cold as a CLI command in
its own interpreter.  Then it writes one `OP {json}` line per op as soon as
the op ends (exit status, wall time, captured output), so the
worker holds no op's output past its end, and finishes with one
`END {json}` line.  A timed worker also stops K times, spread evenly over
its S seconds: it writes `PAUSE` and waits for a line on stdin, and the
time it waits is not part of the run.  After every PROBE_EVERY_NS of ops it
also times `host_probe`, a fixed loop that does not touch hmvol; the probe
times go into the END line and are not part of the run either.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_NS = 100_000_000


class _Deadline(BaseException):
    """Raised by SIGALRM when an op overruns its deadline.  A BaseException,
    so no `except Exception` inside the program swallows it."""


def on_alarm(signum, frame):
    raise _Deadline()


def import_cli():
    """hmvol.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hmvol.cli

    if not Path(hmvol.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hmvol imported from {hmvol.cli.__file__}, not from {src}")
    return hmvol.cli


def cache_clearers() -> list:
    """`cache_clear` of every functools cache in the loaded hmvol modules
    (`bernoulli` and `primes_up_to` at the seed commit).  Collect them
    before the tracer rebinds the names.  Clearing them before each op makes
    an op's time its own: with warm caches it would depend on which ops ran
    before it, so on the seed, and a CLI user, one command per interpreter,
    never has them warm."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "hmvol" or name.startswith("hmvol."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj.cache_clear
    return list(found.values())


def run_op(main, argv: list[str], deadline_s: float, on_start=None) -> dict:
    """Run one CLI command line with stdout/stderr captured.  `status` is
    `exit` (main returned `rc`), `deadline` or `crash` (uncaught exception)."""
    out, err = io.StringIO(), io.StringIO()
    rc, status = None, "exit"
    if on_start is not None:
        on_start()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects an argv
                rc = exc.code if isinstance(exc.code, int) else 2
    except _Deadline:
        status = "deadline"
    except Exception:
        status = "crash"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter_ns()
    return {"rc": rc, "status": status, "ms": (t1 - t0) / 1e6,
            "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def host_probe() -> None:
    """A fixed integer loop, independent of hmvol; it allocates nothing the
    garbage collector tracks, so its time depends on the host's speed at
    that moment and not on the state the program left behind."""
    acc = 0
    for i in range(1, 20000):
        acc = (acc * 31 + i * i) % 1000003


def emit(tag: str, doc: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(doc)}\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "plain", "traced", "probe"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--pauses", type=int, default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    clearers = cache_clearers()
    ops = workloads.generate(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, on_alarm)
    deadline = workloads.DEADLINE_S[args.workload]

    def before_op():
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.begin_op()

    if args.mode == "timed":
        budget_ns = int(args.seconds * 1e9)
        pause_at = [budget_ns * (k + 1) // (args.pauses + 1) for k in range(args.pauses)]
    else:
        ops = (workloads.defect_probe(args.workload) if args.mode == "probe"
               else workloads.trace_ops(args.workload, args.seed))
        budget_ns, pause_at = None, []

    done, probe_ms, next_probe = 0, [], 0
    begin = time.perf_counter_ns()
    while budget_ns is not None or done < len(ops):
        elapsed = time.perf_counter_ns() - begin
        if budget_ns is not None and elapsed >= budget_ns:
            break
        if budget_ns is not None and elapsed >= next_probe:
            t0 = time.perf_counter_ns()
            host_probe()
            t1 = time.perf_counter_ns()
            probe_ms.append((t1 - t0) / 1e6)
            begin += t1 - t0
            next_probe = elapsed + PROBE_EVERY_NS
            continue
        if pause_at and elapsed >= pause_at[0]:
            pause_at.pop(0)
            print("PAUSE", flush=True)
            t0 = time.perf_counter_ns()
            sys.stdin.readline()
            begin += time.perf_counter_ns() - t0
            continue
        emit("OP", run_op(cli.main, ops[done % len(ops)]["argv"], deadline, before_op))
        done += 1
    wall_s = (time.perf_counter_ns() - begin) / 1e9
    doc = {
        "wall_s": wall_s,
        "probe_ms": probe_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "list_sha256": hashlib.sha256(json.dumps([op["argv"] for op in ops]).encode()).hexdigest(),
    }
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.summary()
    emit("END", doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
