"""Correctness of benchmark ops, decided in the parent process after the
timed run, so checking adds no op time and warms none of the worker's caches.

- catalog rows: the CLI's own engine-vs-fixture verdict (`ok`/`MISMATCH`);
- family members in analyze ops: the O~+ volume against the `families`
  fixture, and the whole exact report against the reference;
- every other op: its exact values against the reference file recorded at
  the seed commit (`digests.json`, written by `record.py`);
- oracle ops: a *stabilized* oracle value that disagrees with the formula is
  a mismatch; a guard-capped one is not.

A failed op is explained when it is one of the known defects in KNOWN_DEFECTS.
Anything else that is wrong (a mismatch, an exit code the op should not
give, an uncaught exception) is unexplained and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import workloads

DIGESTS_PATH = Path(__file__).with_name("digests.json")

KNOWN_DEFECTS = {
    "k-fixture": "K(m,d) fixture is off by 2^(8m+3) when d = d0 t^2, d0 = 1 mod 4, t even",
    "e8-hang": "2*U + E8(-2) does not finish (isometry backtracking on F_2^8)",
    "isometry-guard": "|A_L| > 10^5 trips the isometry enumeration guard (exit 4)",
}


def _frac(d: dict) -> str:
    return f"{d['num']}/{d['den']}"


def analyze_exact(doc: dict) -> dict:
    """The exact values of an `analyze --json` report; keys that carry no
    exact value (assumption texts, numeric echo) are left out."""
    lat = doc["lattice"]
    out = {
        "det": lat["det"],
        "signature": lat["signature"],
        "bad_primes": doc["bad_primes"],
        "densities": {str(d["p"]): f"{d['value_num']}/{d['value_den']}" for d in doc["densities"]},
        "euler_product": doc["euler_product"],
        "volumes": {t: _frac(v) for t, v in doc["volumes"].items()},
        "indices": doc["indices"],
        "cusp_leading": {t: _frac(v) for t, v in doc["cusp_leading"].items()},
        "g_sp_plus": doc["g_sp_plus"],
    }
    if "oracle_checks" in doc:
        out["oracle_checks"] = [
            [c["p"], c["r"], _frac(c["oracle"]), c["stable"], c["matches_formula"]]
            for c in doc["oracle_checks"]
        ]
    return out


_ORACLE_LINE = re.compile(r"^(formula alpha_\d+ =|oracle r=\d+:|stabilization:) (.+)$")


def oracle_exact(text: str) -> dict:
    """formula value, oracle values at r and r+1, and the stability verdict
    printed by `hmvol oracle`."""
    values = [m.group(2) for m in map(_ORACLE_LINE.match, text.splitlines()) if m]
    if len(values) != 4:
        raise ValueError(f"unexpected oracle output: {text!r}")
    formula, v1, v2, verdict = values
    return {"formula": formula, "r": v1, "r1": v2, "stable": verdict == "stable"}


def load_digests() -> dict[str, str]:
    """{op key: digest of exact values}, recorded by record.py at the seed
    commit."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def digest(exact: dict) -> str:
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:24]


def exact_of(op: dict, out: str) -> dict:
    if op["argv"][0] == "oracle":
        return oracle_exact(out)
    return analyze_exact(json.loads(out))


class Checker:
    """Classifies op results; holds the reference table and a fixture cache."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self._fixtures: dict[tuple, Fraction] = {}

    def _fixture(self, fam: list) -> Fraction:
        key = tuple(fam)
        if key not in self._fixtures:
            from hmvol import families

            name, m, d = fam
            fn = {"L": families.fixture_vol_l_tilde, "K": families.fixture_vol_k_tilde,
                  "N": families.fixture_vol_n_tilde}[name]
            self._fixtures[key] = fn(m, d)
        return self._fixtures[key]

    def check(self, op: dict, res: dict) -> dict:
        """{'failed', 'mismatch', 'reason', 'defect', 'unverified'}; `defect`
        names the known defect that explains a failure, or is None."""
        verdict = {"failed": False, "mismatch": False, "reason": "", "defect": None,
                   "unverified": False}

        def fail(reason, defect=None, mismatch=False):
            verdict.update(failed=True, reason=reason, defect=defect, mismatch=mismatch)
            return verdict

        argv, fam = op["argv"], op["fam"]
        k_defect = op["cls"] == "K-fixture"
        if res["status"] == "deadline":
            return fail("deadline", "e8-hang" if op["cls"] == "hang" else None)
        if res["status"] == "crash":
            return fail("uncaught exception: " + res["err"].strip().splitlines()[-1])
        rc = res["rc"]
        order = op.get("order")
        if rc == 4 and order is not None and order > workloads.ISOMETRY_GUARD:
            return fail("exit 4 (isometry guard)", "isometry-guard")

        if argv[0] == "catalog":
            rows = res["out"].splitlines()
            if rc not in (0, 1) or len(rows) != 1:
                return fail(f"exit {rc}: {res['err'].strip()[:200]}")
            if rows[0].endswith(" ok") and rc == 0:
                return verdict
            if rows[0].endswith(" MISMATCH") and rc == 1:
                return fail("engine != fixture: " + " ".join(rows[0].split()),
                            "k-fixture" if k_defect else None, True)
            return fail(f"unreadable catalog row: {rows[0]!r}")

        if rc != 0:
            return fail(f"exit {rc}: {res['err'].strip()[:200]}")
        try:
            exact = exact_of(op, res["out"])
        except (ValueError, KeyError) as exc:
            return fail(f"unreadable output: {exc}")
        ref = self.digests.get(workloads.op_key(argv))
        if ref is None:
            verdict["unverified"] = True
        elif digest(exact) != ref:
            return fail(f"exact values differ from the reference: {json.dumps(exact)[:300]}",
                        mismatch=True)
        if argv[0] == "oracle":
            if exact["stable"] and exact["r"] != exact["formula"]:
                return fail("stabilized oracle disagrees with the formula", mismatch=True)
        for c in exact.get("oracle_checks", ()):
            if c[3] and not c[4]:
                return fail(f"stabilized oracle disagrees with the formula at p={c[0]}",
                            mismatch=True)
        if fam is not None and "O~+" in exact["volumes"]:
            want = self._fixture(fam)
            if Fraction(exact["volumes"]["O~+"]) != want:
                return fail(f"O~+ volume {exact['volumes']['O~+']} != fixture {want}",
                            "k-fixture" if k_defect else None, True)
        return verdict
