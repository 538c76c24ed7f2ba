"""Golden snapshot of exact outputs.

`golden_snapshot.json` holds, as recorded before the one-pass refactor of
`volumes.build_report`:
- `analyze --json` with the default tags for every SIGNATURE_2N_EXPRESSIONS
  entry (every exact field; the assumption texts are left out);
- the engine value of every default `catalog` row;
- `local_density` at each bad prime of every ORACLE_CORPUS entry.

Refactors must leave every value unchanged.  To re-record after a deliberate
change of results, run `python tests/test_golden.py --write` from the repo
root and explain the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_snapshot.json")


def _density_json(d) -> dict:
    b = d.breakdown
    return {
        "value": str(d.value),
        "s": b["s"],
        "w": b["w"],
        "q": b["q"],
        "lead": str(b["lead"]),
        "P": str(b["P"]),
        "E": {str(j): str(e) for j, e in sorted(b["E"].items())},
    }


def snapshot() -> dict:
    from conftest import ORACLE_CORPUS, SIGNATURE_2N_EXPRESSIONS

    from hmvol import cli
    from hmvol.density import bad_primes, local_density
    from hmvol.expr import lattice_from_text

    analyze = {}
    for text in SIGNATURE_2N_EXPRESSIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["analyze", text, "--json"]) == 0, text
        doc = json.loads(out.getvalue())
        doc.pop("assumptions")
        analyze[text] = doc
    catalog = {}
    for family, ranges in cli._CATALOG_DEFAULTS.items():
        for m in ranges["m"]:
            for d in ranges["d"]:
                label, engine, _ = cli._catalog_row(family, m, d)
                catalog[label] = str(engine)
    densities = {}
    for text in ORACLE_CORPUS:
        lat = lattice_from_text(text)
        densities[text] = {str(p): _density_json(local_density(lat, p)) for p in bad_primes(lat)}
    return {"analyze": analyze, "catalog": catalog, "oracle_corpus_densities": densities}


def test_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text())
    now = snapshot()
    for section, entries in golden.items():
        assert set(now[section]) == set(entries), section
        for key, value in entries.items():
            assert now[section][key] == value, (section, key)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(Path(__file__).parent)]
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
