"""Self-test of the benchmark itself (not of hmvol).

    python3 hmbench/selftest.py

Checks that
1. the same seed yields the same argv list, in this process and in a fresh
   interpreter with another hash seed, and that another seed yields another;
   and that the list holds every pooled op outside the known-defect classes
   exactly once;
2. the tracer counts exactly 91 / 11 / 14 / 11 calls (jordan_decompose /
   euler_alpha_product / discriminant_form / generalized_bernoulli) for
   build_report(K(3,30)), on repeated calls and in fresh processes;
3. the metric names in BENCHMARK.json are the ones run.py reports.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads

EXPECTED_K330 = {
    "jordan.jordan_decompose": 91,
    "volumes.euler_alpha_product": 11,
    "discforms.discriminant_form": 14,
    "special_values.generalized_bernoulli": 11,
}


def _argv_lists(seed: int) -> dict[str, list]:
    return {w: [op["argv"] for op in workloads.generate(w, seed)] for w in workloads.WORKLOADS}


def _k330_counts() -> list[dict]:
    """Three traced build_report(K(3,30)) calls in this process."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from hmvol import families, volumes
    from tracer import Tracer

    out = []
    for _ in range(3):
        tracer = Tracer()
        tracer.install()
        try:
            volumes.build_report(families.k_lattice(3, 30))
        finally:
            tracer.uninstall()
        funcs = tracer.summary()["functions"]
        out.append({name: funcs[name]["calls"] for name in EXPECTED_K330})
    return out


def _child(what: str, env_hash_seed: str) -> object:
    env = dict(os.environ, PYTHONHASHSEED=env_hash_seed)
    proc = subprocess.run([sys.executable, __file__, "--child", what], env=env,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        what = sys.argv[2]
        print(json.dumps(_argv_lists(7) if what == "argv" else _k330_counts()))
        return 0
    failures = []
    here = _argv_lists(7)
    if here != _argv_lists(7) or here != _child("argv", "12345"):
        failures.append("seed 7 gave different argv lists")
    if any(here[w] == lst for w, lst in _argv_lists(8).items()):
        failures.append("seeds 7 and 8 gave the same argv list")
    for w, lst in here.items():
        pooled = sorted(op["argv"] for cls, pool in workloads.pools(w).items()
                        if cls not in workloads.DEFECT_CLASSES for op in pool)
        if sorted(lst) != pooled:
            failures.append(f"the {w} op list is not every pooled op outside the "
                            f"known-defect classes once")
    for hash_seed in ("1", "2"):
        for counts in _child("k330", hash_seed):
            if counts != EXPECTED_K330:
                failures.append(f"build_report(K(3,30)) traced counts {counts}")
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["end_to_end"]] != list(run.E2E_REPORTED):
        failures.append("BENCHMARK.json end_to_end differs from run.E2E_REPORTED")
    layer_names = [m for m, _, _ in run.PER_LAYER] + ["trace_overhead_frac"]
    if [m["name"] for m in bench["per_layer"]] != layer_names:
        failures.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    for line in failures:
        print("FAIL:", line)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
