"""Command-line interface.

Subcommands:

    analyze EXPR   volumes, densities and cusp-dimension leading terms
    catalog FAM    engine values vs the closed-form fixtures, row per case
    oracle EXPR P R  brute-force Siegel count vs the density formula

Exit codes: 0 ok, 1 catalog mismatch, 2 expression or argument error,
3 precondition, 4 feasibility guard, 5 internal consistency failure,
141 standard output closed by its reader (nothing more is printed).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from .density import local_density, siegel_counts_oracle
from .errors import (
    ExpressionError,
    FeasibilityError,
    InternalCheckError,
    PreconditionError,
)
from .expr import lattice_from_text
from .special_values import SymbolicReal
from .volumes import GROUP_TAGS, VolumeReport, build_report
from . import families


def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _sym_json(x: SymbolicReal) -> dict:
    return {
        "coeff_num": str(x.coefficient.numerator),
        "coeff_den": str(x.coefficient.denominator),
        "pi_half_exp": x.pi_half_exponent,
        "radicand": str(x.radicand),
    }


def _report_json(report: VolumeReport, precision: int | None) -> dict:
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
                    "lead": _frac_json(d.breakdown["lead"]),
                    "P": _frac_json(d.breakdown["P"]),
                    "E": {str(j): _frac_json(e) for j, e in sorted(d.breakdown["E"].items())},
                },
            }
            for d in report.densities
        ],
        "euler_product": _sym_json(report.euler_product),
        "g_sp_plus": report.g_sp_plus,
        "volumes": {tag: _frac_json(v) for tag, v in report.volumes.items()},
        "indices": dict(report.indices),
        "cusp_leading": {tag: _frac_json(v) for tag, v in report.cusp_leading.items()},
        "assumptions": list(report.assumptions),
    }
    if report.oracle_checks:
        doc["oracle_checks"] = [
            {
                "p": c["p"],
                "r": c["r"],
                "oracle": _frac_json(c["oracle"]),
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


def _json_text(x, newline: str = "\n") -> str:
    """json.dumps(x, indent=2), byte for byte, for dicts with str keys, lists,
    tuples, str, int, bool and None; any other type raises TypeError.  The
    stdlib leaves its C encoder whenever indent is set, so this writer indents
    and keeps the C string escaper; a list of plain ints (a Gram row) is one
    join.  `newline` is the line break and indent that x starts at."""
    if isinstance(x, str):
        return _json_str(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = newline + "  "
    # str values, most of a report's leaves, are escaped without a recursive call;
    # a key that is not a str raises TypeError in the escaper
    if isinstance(x, dict):
        items = [_json_str(k) + ": " + (_json_str(v) if type(v) is str else _json_text(v, inner))
                 for k, v in x.items()]
        brackets = "{}"
    elif isinstance(x, (list, tuple)):
        brackets = "[]"
        if all(type(v) is int for v in x):
            items = list(map(int.__repr__, x))
        else:
            items = [_json_str(v) if type(v) is str else _json_text(v, inner) for v in x]
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _decimal(x: Fraction | SymbolicReal, digits: int) -> str:
    """x printed to `digits` significant digits."""
    import mpmath

    with mpmath.workdps(digits):
        if isinstance(x, SymbolicReal):
            return str(x.evalf(digits))
        return str(mpmath.mpf(x.numerator) / x.denominator)


def _print_report(report: VolumeReport, precision: int | None) -> None:
    lat = report.lattice
    print(f"lattice: rank {lat.rank}, signature {lat.signature}, det {lat.det}, "
          f"{'even' if lat.is_even else 'odd'}")
    print(f"bad primes: {', '.join(str(p) for p in report.bad_primes)}")
    for d in report.densities:
        print(f"  alpha_{d.p} = {d.value}")
    print(f"euler product (prod alpha_p^-1): {report.euler_product!r}")
    print(f"g_sp+ = {report.g_sp_plus}")
    print(f"{'group':>6} {'index':>8} {'vol_HM':>24} {'cusp leading':>24}")
    for tag in report.volumes:
        cusp = report.cusp_leading.get(tag)
        print(f"{tag:>6} {report.indices[tag]:>8} {str(report.volumes[tag]):>24} "
              f"{str(cusp) if cusp is not None else '-':>24}")
    if precision is not None:
        for tag, v in report.volumes.items():
            print(f"  {tag} ~ {_decimal(v, precision)}")
    for line in report.assumptions:
        print(f"note: {line}")
    for c in report.oracle_checks:
        # a guard-capped depth is below stabilization, so it claims no match
        if c["stable"]:
            status, verdict = "stabilized", "match" if c["matches_formula"] else "MISMATCH"
        else:
            status, verdict = "guard-capped", "not comparable"
        print(f"oracle check p={c['p']}: {status} at r={c['r']}, value {c['oracle']} ({verdict})")


def _cmd_analyze(args) -> int:
    lattice = lattice_from_text(args.expr)
    tags = tuple(args.group) if args.group else None
    report = build_report(lattice, tags=tags, g_sp_plus=args.gsp, oracle_check=args.oracle_check)
    if args.json:
        print(_json_text(_report_json(report, args.precision)))
    else:
        _print_report(report, args.precision)
    return 0


_CATALOG_DEFAULTS = {
    "II": {"m": (0, 1, 2), "d": (None,)},
    "T": {"m": (1, 2, 3), "d": (None,)},
    "L": {"m": (0, 2), "d": tuple(range(1, 11))},
    "K": {"m": (0,), "d": (1, 2, 3, 5, 6, 7, 12)},
    "N": {"m": (0,), "d": (1, 5, 13)},
}


def _parse_range(spec: str) -> tuple[range, ...]:
    """argparse type for '0,2', '1..10' or a comma list of both, as one
    `range` per item, so no value is listed before the rows ask for it; an
    empty range such as '5..1' is refused."""
    out = []
    for part in spec.split(","):
        lo, dots, hi = part.partition("..")
        try:
            values = range(int(lo), int(hi if dots else lo) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed range {part.strip()!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty range {part.strip()!r}")
        out.append(values)
    return tuple(out)


def _positive_int(text: str) -> int:
    """argparse type for an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _catalog_row(family: str, m: int, d: int | None):
    """Returns (label, engine_value, fixture_value)."""
    from .volumes import group_volume, vol_hm

    if family == "II":
        lat = families.unimodular_ii(m)
        engine = 2 * vol_hm(lat)
        return f"II m={m} vol(O+)", engine, families.fixture_vol_ii_oplus(m)
    if family == "T":
        t_vol = group_volume(families.t_lattice(m), "O~+")
        ii_vol = group_volume(families.unimodular_ii(m), "O~+")
        return f"T/II m={m} ratio", t_vol / ii_vol, Fraction(families.fixture_ratio_t_over_ii(m))
    if family == "L":
        lat = families.l_lattice(m, d)
        return f"L m={m} d={d} vol(O~+)", group_volume(lat, "O~+"), families.fixture_vol_l_tilde(m, d)
    if family == "K":
        lat = families.k_lattice(m, d)
        return f"K m={m} d={d} vol(O~+)", group_volume(lat, "O~+"), families.fixture_vol_k_tilde(m, d)
    lat = families.n_lattice(m, d)
    return f"N m={m} d={d} vol(O~+)", group_volume(lat, "O~+"), families.fixture_vol_n_tilde(m, d)


def _cmd_catalog(args) -> int:
    family = args.family
    if family not in _CATALOG_DEFAULTS:
        raise PreconditionError(f"unknown family {family!r}; choose from II, T, L, K, N")
    if args.d and family in ("II", "T"):
        raise PreconditionError(f"family {family} has no d; drop --d")
    # each a sequence of value sequences: the parsed ranges, or the defaults
    ms = args.m or (_CATALOG_DEFAULTS[family]["m"],)
    ds = args.d or (_CATALOG_DEFAULTS[family]["d"],)
    mismatches = 0
    for m in chain.from_iterable(ms):
        for d in chain.from_iterable(ds):
            label, engine, fixture = _catalog_row(family, m, d)
            ok = engine == fixture
            mismatches += 0 if ok else 1
            print(f"{label:24} engine={str(engine):>28} fixture={str(fixture):>28} "
                  f"{'ok' if ok else 'MISMATCH'}")
    return 1 if mismatches else 0


def _cmd_oracle(args) -> int:
    lattice = lattice_from_text(args.expr)
    p, r = args.p, args.r
    formula = local_density(lattice, p).value
    v1, v2 = siegel_counts_oracle(lattice, p, r, r + 1)
    stable = v1 == v2
    print(f"formula alpha_{p} = {formula}")
    print(f"oracle r={r}: {v1}")
    print(f"oracle r={r + 1}: {v2}")
    print(f"stabilization: {'stable' if stable else 'not yet stable'}")
    if p == 2:
        print("convention: congruence X^t S X = S taken plainly mod 2^r in every entry")
    if stable and v1 != formula:
        print("WARNING: stabilized oracle disagrees with the formula")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hmvol",
        description="Exact Hirzebruch-Mumford volumes of orthogonal groups of "
        "indefinite integral lattices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full volume report for a lattice expression")
    a.add_argument("expr", help='lattice expression, e.g. "2*U + 2*E8(-1) + <-4>"')
    a.add_argument("--group", action="append", choices=list(GROUP_TAGS),
                   help="group tag (repeatable); default: every applicable tag")
    a.add_argument("--gsp", type=_positive_int, default=1, help="number of proper spinor genera (default 1)")
    a.add_argument("--json", action="store_true", help="emit the report as JSON")
    a.add_argument("--oracle-check", action="store_true",
                   help="verify densities against the counting oracle (rank <= 3)")
    a.add_argument("--precision", type=_positive_int, default=None,
                   help="digits for the optional numeric echo")
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("catalog", help="compare engine values against closed-form fixtures")
    c.add_argument("family", help="one of II, T, L, K, N")
    c.add_argument("--m", type=_parse_range, help="m values, e.g. '0,2' or '0..2'")
    c.add_argument("--d", type=_parse_range, help="d values, e.g. '1..10'")
    c.set_defaults(func=_cmd_catalog)

    o = sub.add_parser("oracle", help="brute-force local density at depths r and r+1")
    o.add_argument("expr")
    o.add_argument("p", type=int)
    o.add_argument("r", type=int)
    o.set_defaults(func=_cmd_oracle)
    return ap


# built once: a parser is a web of reference cycles, so one per call would
# leave garbage for the collector after every command
_PARSER = build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head -1`): stop quietly, and point stdout at
        # devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ExpressionError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except FeasibilityError as exc:
        print(f"feasibility guard: {exc}", file=sys.stderr)
        return 4
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
