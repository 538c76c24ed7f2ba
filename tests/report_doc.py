"""The `analyze --json` document built field by field from a `VolumeReport`,
kept as the test oracle of the CLI's one-pass emitter: `report_doc` is the
dict of strings, ints, bools and lists that the CLI once built before
encoding, and `json.dumps(report_doc(report, precision), indent=2)` is the
text `hmvol.cli._report_text` must write byte for byte.  The body is the
CLI's former `_report_json` with its helpers `_frac_json` and `_sym_json`."""

from fractions import Fraction

from hmvol.cli import _decimal
from hmvol.special_values import SymbolicReal
from hmvol.volumes import VolumeReport


def frac_doc(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def sym_doc(x: SymbolicReal) -> dict:
    return {
        "coeff_num": str(x.coefficient.numerator),
        "coeff_den": str(x.coefficient.denominator),
        "pi_half_exp": x.pi_half_exponent,
        "radicand": str(x.radicand),
    }


def report_doc(report: VolumeReport, precision: int | None) -> dict:
    lat = report.lattice
    doc = {
        "lattice": {
            "gram": [list(r) for r in lat.gram],
            "rank": lat.rank,
            "signature": [lat.signature.positive, lat.signature.negative],
            "det": str(lat.det),
            "even": lat.is_even,
        },
        "bad_primes": list(report.bad_primes),
        "densities": [
            {
                "p": d.p,
                "value_num": str(d.value.numerator),
                "value_den": str(d.value.denominator),
                "breakdown": {
                    "s": d.breakdown["s"],
                    "w": d.breakdown["w"],
                    "q": d.breakdown["q"],
                    "lead": frac_doc(d.breakdown["lead"]),
                    "P": frac_doc(d.breakdown["P"]),
                    "E": {str(j): frac_doc(e) for j, e in sorted(d.breakdown["E"].items())},
                },
            }
            for d in report.densities
        ],
        "euler_product": sym_doc(report.euler_product),
        "g_sp_plus": report.g_sp_plus,
        "volumes": {tag: frac_doc(v) for tag, v in report.volumes.items()},
        "indices": dict(report.indices),
        "cusp_leading": {tag: frac_doc(v) for tag, v in report.cusp_leading.items()},
        "assumptions": list(report.assumptions),
    }
    if report.oracle_checks:
        doc["oracle_checks"] = [
            {
                "p": c["p"],
                "r": c["r"],
                "oracle": frac_doc(c["oracle"]),
                "stable": c["stable"],
                "matches_formula": c["matches_formula"],
            }
            for c in report.oracle_checks
        ]
    if precision is not None:
        doc["numeric_echo"] = {
            "euler_product": _decimal(report.euler_product, precision),
            "volumes": {tag: _decimal(v, precision) for tag, v in report.volumes.items()},
        }
    return doc
