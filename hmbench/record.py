"""Record the reference files: for every pooled op its wall time
(`costs.json`, each op started with the program's caches empty, as in a
run) and, for analyze and oracle ops, a digest of
`checks.exact_of` (`digests.json`), computed by the checked-out program.

    python3 hmbench/record.py

Run it only on a commit whose outputs are trusted (the files in the
repository were made at the seed commit of the benchmark, ac5250e).  The
costs only order each pool for stratified drawing (`workloads.generate`).
It also checks the known-defect predicates: every pooled op must fail
exactly where a known defect says it does.
"""

from __future__ import annotations

import json
import signal
import time

import checks
import workloads
import worker


def main() -> int:
    cli = worker.import_cli()
    clearers = worker.cache_clearers()
    signal.signal(signal.SIGALRM, worker.on_alarm)
    checker = checks.Checker({})
    digests: dict[str, str] = {}
    costs: dict[str, float] = {}
    problems = []
    for wl in workloads.WORKLOADS:
        for cls, pool in workloads.pools(wl).items():
            if cls == "hang":
                continue  # a known defect: never finishes, nothing to record
            t0 = time.perf_counter()
            for op in pool:
                key = workloads.op_key(op["argv"])
                res = worker.run_op(cli.main, op["argv"], 60.0,
                                    lambda: [clear() for clear in clearers])
                costs[key] = round(res["ms"], 2)
                if op["argv"][0] != "catalog" and res["status"] == "exit" and res["rc"] == 0:
                    digests[key] = checks.digest(checks.exact_of(op, res["out"]))
                v = checker.check(op, res)
                if v["failed"] and v["defect"] is None:
                    problems.append((op["argv"], v["reason"]))
                fam = op["fam"]
                if fam and fam[0] == "K" and (
                        (v["defect"] == "k-fixture") != workloads.k_fixture_defect(fam[2])):
                    problems.append((op["argv"], "K fixture verdict differs from k_fixture_defect"))
            print(f"{wl:15} {cls:15} {len(pool):5} ops {time.perf_counter() - t0:7.1f} s",
                  flush=True)
    for path, table in ((workloads.COSTS_PATH, costs), (checks.DIGESTS_PATH, digests)):
        with open(path, "w") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")
    for argv, reason in problems:
        print("UNEXPLAINED:", argv, reason)
    print(f"{len(digests)} digests and {len(costs)} costs written, "
          f"{len(problems)} unexplained results")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
