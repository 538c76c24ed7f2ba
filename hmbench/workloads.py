"""Seeded op lists for the four hmvol benchmark workloads.

An op is one `hmvol` command line (the argv handed to `hmvol.cli.main`) plus
the facts the checker needs: its class, and for family members the family
parameters.  Generation uses only the standard library, so the op list of a
seed is the same in every process and on every commit of the program.

The op list of a seed is one cycle over a workload's pools: every pooled op
exactly once, so no op repeats within a run shorter than the cycle.  A
class's share of the cycle is its pool's share of all ops (except the
LEADING classes, which open the cycle), the classes are interleaved along a
fixed pattern, and within a class the draws spread evenly over the pool
sorted by cost (see `generate`).  Runs are cut by time, and this keeps the
mix of a run, and with it the latency quantiles, the same from seed to seed.
`costs.json` holds every pooled op's wall time at the seed commit; it only
orders the pools.

The DEFECT classes hold the ops that fail at the seed commit by a known
defect.  They are not in the op list, so no timed op fails and every run
attempts a failure-free mix; each run executes a fixed few of them apart
from the timed ops (`defect_probe`) and reports whether each defect still
shows.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

COSTS_PATH = Path(__file__).with_name("costs.json")

WORKLOADS = ("catalog-sweep", "analyze-report", "discform-heavy", "oracle-depth")

# Ops in the traced run (a fixed prefix, so per-layer counts compare exactly
# between commits), and the per-op deadline of timed and traced runs.
TRACE_OPS = {
    "catalog-sweep": 200,
    "analyze-report": 60,
    "discform-heavy": 50,
    "oracle-depth": 500,
}
DEADLINE_S = {
    "catalog-sweep": 10.0,
    "analyze-report": 10.0,
    "discform-heavy": 3.0,
    "oracle-depth": 10.0,
}

# Classes that open every cycle, each of their ops once and in pool order,
# instead of taking a share by pool size: the 2-elementary family 2*U + k*<-2>
# has five members costing up to 1 s, so a share by pool size would put them
# in some runs and not in others and move a run's throughput by up to a tenth.
LEADING = {"discform-heavy": ("two-elementary",)}

# Classes of ops that fail at the seed commit, each by the known defect named
# (checks.KNOWN_DEFECTS).  They stay out of the op list; PROBE_OPS of each,
# spread over its pool, run apart from the timed ops in every timed run.
DEFECT_CLASSES = {"K-fixture": "k-fixture", "hang": "e8-hang", "guard": "isometry-guard"}
PROBE_OPS = 3

ISOMETRY_GUARD = 10**5  # hmvol.discforms.ISOMETRY_ENUM_CAP at the seed commit
ORACLE_GUARD = 2**30  # hmvol.density.ORACLE_CANDIDATE_CAP at the seed commit


def pattern(weights: dict[str, int]) -> list[str]:
    """Smooth weighted round robin: class c appears weights[c] times, and in
    close to its share of any window of the pattern."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    out = []
    for _ in range(total):
        for c, w in weights.items():
            credit[c] += w
        best = max(credit, key=lambda c: credit[c])
        credit[best] -= total
        out.append(best)
    return out


def _e8(m: int) -> str:
    return "" if m == 0 else (" + E8(-1)" if m == 1 else f" + {m}*E8(-1)")


def _squarefree_part(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return out * n


def k_fixture_defect(d: int) -> bool:
    """The K-family fixture disagrees with the engine (engine/fixture =
    2^(8m+3)) when d = d0 t^2 with d0 squarefree, d0 = 1 mod 4 and t even,
    i.e. when Q(sqrt d) has odd discriminant but d != 1 mod 4; see NOTES.md."""
    return d % 4 != 1 and _squarefree_part(d) % 4 == 1


def _k_class(d: int) -> str:
    """K-family members where the fixture is wrong are a class of their own,
    one of the DEFECT_CLASSES."""
    return "K-fixture" if k_fixture_defect(d) else "K"


def _op(argv, cls, fam=None, order=None):
    return {"argv": argv, "cls": cls, "fam": fam, "order": order}


def _classes(*names: str) -> dict[str, list[dict]]:
    return {c: [] for c in names}


# ------------------------------------------------------------------ pools

def _analyze_pools() -> dict[str, list[dict]]:
    """Finite pools for analyze-report; every entry has a recorded reference."""
    tail = ["--json"]
    pools = _classes("L", "K", "K-fixture", "N", "scaled", "binary", "odd")
    for m in (0, 1, 2):
        for d in range(1, 61):
            expr = f"2*U{_e8(m)} + <{-2 * d}>"
            pools["L"].append(_op(["analyze", expr] + tail, "L", ["L", m, d]))
    for m, ds in ((0, range(1, 401)), (1, range(1, 121)), (2, range(1, 31))):
        for d in ds:
            expr = f"U{_e8(m)} + <2> + <{-2 * d}>"
            cls = _k_class(d)
            pools[cls].append(_op(["analyze", expr] + tail, cls, ["K", m, d]))
    for m, dmax in ((0, 1601), (1, 401), (2, 81)):
        for d in range(1, dmax + 1, 4):
            expr = f"U{_e8(m)} + gram[2,1;1,{(1 - d) // 2}]"
            pools["N"].append(_op(["analyze", expr] + tail, "N", ["N", m, d]))
    for k in (2, 3):  # U(5) sums reach 1.5 s in finite_isometry_order
        for m in (0, 1, 2):
            for a in (1, 2, 3, 5, 7):
                expr = f"U + U({k}){_e8(m)} + <{-2 * a}>"
                pools["scaled"].append(_op(["analyze", expr] + tail, "scaled"))
    for b in (1, 3, 5):
        for c in range(-1, -25, -1):
            for m in (0, 1):
                expr = f"U + gram[4,{b};{b},{2 * c}]{_e8(m)}"
                pools["binary"].append(_op(["analyze", expr] + tail, "binary"))
    for a in range(1, 41):
        for m in (0, 1):
            pools["odd"].append(_op(["analyze", f"U{_e8(m)} + <1> + <{-a}>"] + tail, "odd"))
        pools["odd"].append(_op(["analyze", f"<1> + <1> + <{-a}>"] + tail, "odd"))
        pools["odd"].append(_op(["analyze", f"<2> + <2> + <{-2 * a}>"] + tail, "odd"))
    return pools


def _discform_pools() -> dict[str, list[dict]]:
    """Finite pools for discform-heavy; `order` is |A_L|.  Every legal form
    has odd rank or a square-class determinant, so the Euler product needs
    no L-value with a large conductor and finite_isometry_order does most of
    the work."""
    tail = ["--group", "O~+", "--json"]
    pools = _classes("two-elementary", "hang", "cyclic", "bicyclic", "mixed", "guard")

    def add(cls, expr, order, fam=None):
        pools[cls].append(_op(["analyze", expr] + tail, cls, fam, order))

    for k in range(1, 6):  # k = 6 takes 10.9 s at the seed commit
        add("two-elementary", f"2*U + {k}*<-2>", 2**k)
    add("hang", "2*U + E8(-2)", 256)
    for d in sorted({round(50 * 1.035**i) for i in range(156)}):
        if d <= 5000:
            add("cyclic", f"2*U + <{-2 * d}>", 2 * d, ["L", 0, d])
    for a in range(1, 41):
        for j in range(1, 41):
            if 4 * a * a * j <= 3600:
                add("bicyclic", f"2*U + <{-2 * a}> + <{-2 * a * j}>", 4 * a * a * j)
    for d in range(1, 61):
        add("mixed", f"2*U + 2*<-2> + <{-2 * d}>", 8 * d)
        add("mixed", f"2*U + <-4> + <{-4 * d}>", 16 * d)
        add("mixed", f"U + U(2) + <{-2 * d}>", 8 * d)
    # over the isometry guard; family members, so a result can still be
    # checked (against the L fixture) once the guard is lifted
    for d in (50001, 52000, 60000, 64000, 75000, 81000, 99991, 120000, 250000, 1000003):
        add("guard", f"2*U + <{-2 * d}>", 2 * d, ["L", 0, d])
    return pools


def _oracle_depths(det: int, rank: int, p: int) -> list[int]:
    """Depths r with r >= v_p(2 det) + 1 (where a repeat means stabilization)
    and r + 1 still inside the oracle guard."""
    v, n = 0, 2 * abs(det)
    while n % p == 0:
        n //= p
        v += 1
    out = []
    r = v + 1
    while p ** ((r + 1) * rank * rank) <= ORACLE_GUARD:
        out.append(r)
        r += 1
    return out


def _smooth7(n: int) -> bool:
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def _oracle_pools() -> dict[str, list[dict]]:
    pools = _classes("rank2-p2", "rank2-odd", "rank3", "analyze-check")
    rank2 = []
    for a in range(1, 11):
        for b in range(1, 61):
            rank2.append((f"<{2 * a}> + <{-2 * b}>", -4 * a * b))
            rank2.append((f"<{a}> + <{-b}>", -a * b))
    for b in (1, 3, 5):
        for c in range(-1, -61, -1):
            rank2.append((f"gram[2,{b};{b},{2 * c}]", 4 * c - b * b))
    for expr, det in rank2:
        for p in (2, 3, 5, 7, 11, 13):
            depths = _oracle_depths(det, 2, p)
            if depths:  # the deepest depth the guard allows
                cls = "rank2-p2" if p == 2 else "rank2-odd"
                pools[cls].append(_op(["oracle", expr, str(p), str(depths[-1])], cls))
    rank3 = []
    for a in range(1, 13):
        for b in range(1, 13):
            rank3.append((f"<1> + <{a}> + <{-b}>", -a * b))
            rank3.append((f"<{a}> + <{b}> + <-1>", -a * b))
    for expr, det in rank3:
        for p in (2, 3):
            for r in _oracle_depths(det, 3, p):
                pools["rank3"].append(_op(["oracle", expr, str(p), str(r)], "rank3"))
    # bad primes <= 7 only: at p >= 11 even depth 1 of a rank-3 count is
    # beyond the guard, so the check has no feasible depth at all
    for a in (n for n in range(1, 201) if _smooth7(n)):
        pools["analyze-check"].append(
            _op(["analyze", f"U + <{-2 * a}>", "--oracle-check", "--json"], "analyze-check"))
        pools["analyze-check"].append(
            _op(["analyze", f"<2> + <{2 * a}> + <-2>", "--oracle-check", "--json"],
                "analyze-check"))
        pools["analyze-check"].append(
            _op(["analyze", f"<1> + <1> + <{-a}>", "--oracle-check", "--json"], "analyze-check"))
    return pools


def _catalog_pools() -> dict[str, list[dict]]:
    """Catalog rows; the CLI checks each row against its fixture itself."""
    pools = _classes("L", "K", "K-fixture", "N", "II", "T")
    for m in range(5):
        pools["II"].append(_op(["catalog", "II", "--m", str(m)], "II", ["II", m, None]))
    for m in (1, 2, 3):
        pools["T"].append(_op(["catalog", "T", "--m", str(m)], "T", ["T", m, None]))
    for fam, ds in (("L", range(1, 301)), ("K", range(1, 301)), ("N", range(1, 402, 4))):
        for m in (0, 1, 2):
            for d in ds:
                cls = _k_class(d) if fam == "K" else fam
                pools[cls].append(
                    _op(["catalog", fam, "--m", str(m), "--d", str(d)], cls, [fam, m, d]))
    return pools


_POOL_BUILDERS = {
    "catalog-sweep": _catalog_pools,
    "analyze-report": _analyze_pools,
    "discform-heavy": _discform_pools,
    "oracle-depth": _oracle_pools,
}


def pools(workload: str) -> dict[str, list[dict]]:
    """The finite op pools of a workload, one list per class; an argv that
    two grids both produce is kept only in the first."""
    seen: set[str] = set()
    out = {}
    for cls, pool in _POOL_BUILDERS[workload]().items():
        out[cls] = []
        for op in pool:
            key = op_key(op["argv"])
            if key not in seen:
                seen.add(key)
                out[cls].append(op)
    return out


# --------------------------------------------------------------- op lists

_GOLDEN = (5**0.5 - 1) / 2


def load_costs() -> dict[str, float]:
    """{op key: wall ms at the seed commit}, recorded by record.py."""
    with open(COSTS_PATH) as fh:
        return json.load(fh)


def _stride(n: int) -> int:
    """The step nearest n times the golden ratio that is coprime to n, so
    that i -> i + stride (mod n) visits every index once per n steps."""
    g = max(1, round(n * _GOLDEN))
    while math.gcd(g, n) != 1:
        g += 1
    return g


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of `workload` at `seed`: one cycle, every pooled op
    outside the DEFECT_CLASSES once; equal seeds give equal lists.

    The LEADING classes come first.  The other classes follow the pattern
    weighted by pool size.  Within a class, the pool is sorted by the op's
    cost at the seed commit, and the j-th draw takes index start + j * stride
    (mod the pool size), start drawn from the seed: every window of draws
    spreads evenly over the cost range, so runs of different seeds hold
    nearly the same mix of cheap and dear ops.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"hmbench:{workload}:{seed}")
    cost = load_costs()
    table = {cls: sorted(pool, key=lambda op: cost.get(op_key(op["argv"]), math.inf))
             for cls, pool in pools(workload).items() if cls not in DEFECT_CLASSES}
    out = [op for cls in LEADING.get(workload, ()) for op in table.pop(cls)]
    start = {cls: rng.randrange(len(pool)) for cls, pool in table.items()}
    stride = {cls: _stride(len(pool)) for cls, pool in table.items()}
    for cls in pattern({cls: len(pool) for cls, pool in table.items()}):
        pool = table[cls]
        out.append(pool[start[cls] % len(pool)])
        start[cls] += stride[cls]
    return out


def trace_ops(workload: str, seed: int) -> list[dict]:
    """The ops of a traced run: the first TRACE_OPS of the op list, so that
    two commits' per-layer counts compare exactly."""
    return generate(workload, seed)[: TRACE_OPS[workload]]


def defect_probe(workload: str) -> list[dict]:
    """The known-defect ops every run of `workload` executes apart from its
    timed ops, the same in every run: PROBE_OPS of each DEFECT class, evenly
    spaced over the pool (for the K fixture that spans m = 0, 1, 2)."""
    out = []
    for cls, pool in pools(workload).items():
        if cls in DEFECT_CLASSES:
            out += pool[:: max(1, len(pool) // PROBE_OPS)][:PROBE_OPS]
    return out


def op_key(argv: list[str]) -> str:
    """Key of an op in the cost and digest files."""
    return "\x1f".join(argv)
