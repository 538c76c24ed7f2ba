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


def _block(items: list[str], brackets: str, nl: str) -> str:
    """`items`, each written one indent in, as json.dumps(indent=2) lays them
    out in `brackets` at the line break and indent `nl`; none give `brackets`."""
    if not items:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _frac_text(x: Fraction, nl: str) -> str:
    return f'{{{nl}  "num": "{x.numerator}",{nl}  "den": "{x.denominator}"{nl}}}'


def _fracs_text(fracs: dict[str, Fraction], nl: str) -> str:
    return _block([f"{_json_str(k)}: {_frac_text(v, nl + '  ')}" for k, v in fracs.items()], "{}", nl)


def _report_text(report: VolumeReport, precision: int | None) -> str:
    """The report's JSON document as json.dumps(doc, indent=2) writes it, in
    one pass: the stdlib drops its C encoder whenever indent is set, so each
    node of the fixed schema is written at its known indent, strings through
    the C escaper (`tests/report_doc.py` builds the document it must equal)."""
    lat, euler = report.lattice, report.euler_product
    n2, n4, n6, n8, n10 = "\n  ", "\n    ", "\n      ", "\n        ", "\n          "
    rows = ["[" + n8 + ("," + n8).join(map(str, row)) + n6 + "]" for row in lat.gram]
    densities = []
    for d in report.densities:
        b = d.breakdown
        e = _block([f'"{j}": {_frac_text(b["E"][j], n10)}' for j in sorted(b["E"])], "{}", n8)
        densities.append(
            f'{{{n6}"p": {d.p},{n6}"value_num": "{d.value.numerator}",'
            f'{n6}"value_den": "{d.value.denominator}",{n6}"breakdown": {{'
            f'{n8}"s": {b["s"]},{n8}"w": {b["w"]},{n8}"q": {b["q"]},'
            f'{n8}"lead": {_frac_text(b["lead"], n8)},{n8}"P": {_frac_text(b["P"], n8)},'
            f'{n8}"E": {e}{n6}}}{n4}}}'
        )
    indices = [f"{_json_str(tag)}: {i}" for tag, i in report.indices.items()]
    fields = [
        f'"lattice": {{{n4}"gram": {_block(rows, "[]", n4)},{n4}"rank": {lat.rank},'
        f'{n4}"signature": [{n6}{lat.signature.positive},{n6}{lat.signature.negative}{n4}],'
        f'{n4}"det": "{lat.det}",{n4}"even": {"true" if lat.is_even else "false"}{n2}}}',
        f'"bad_primes": {_block(list(map(str, report.bad_primes)), "[]", n2)}',
        f'"densities": {_block(densities, "[]", n2)}',
        f'"euler_product": {{{n4}"coeff_num": "{euler.coefficient.numerator}",'
        f'{n4}"coeff_den": "{euler.coefficient.denominator}",'
        f'{n4}"pi_half_exp": {euler.pi_half_exponent},{n4}"radicand": "{euler.radicand}"{n2}}}',
        f'"g_sp_plus": {report.g_sp_plus}',
        f'"volumes": {_fracs_text(report.volumes, n2)}',
        f'"indices": {_block(indices, "{}", n2)}',
        f'"cusp_leading": {_fracs_text(report.cusp_leading, n2)}',
        f'"assumptions": {_block(list(map(_json_str, report.assumptions)), "[]", n2)}',
    ]
    if report.oracle_checks:
        checks = [
            f'{{{n6}"p": {c["p"]},{n6}"r": {c["r"]},{n6}"oracle": {_frac_text(c["oracle"], n6)},'
            f'{n6}"stable": {"true" if c["stable"] else "false"},'
            f'{n6}"matches_formula": {"true" if c["matches_formula"] else "false"}{n4}}}'
            for c in report.oracle_checks
        ]
        fields.append(f'"oracle_checks": {_block(checks, "[]", n2)}')
    if precision is not None:
        echo = [f"{_json_str(tag)}: {_json_str(_decimal(v, precision))}"
                for tag, v in report.volumes.items()]
        fields.append(f'"numeric_echo": {{{n4}"euler_product": '
                      f'{_json_str(_decimal(euler, precision))},'
                      f'{n4}"volumes": {_block(echo, "{}", n4)}{n2}}}')
    return _block(fields, "{}", "\n")


def _decimal(x: Fraction | SymbolicReal, digits: int) -> str:
    """x printed to `digits` significant digits, rounded once from a value 10
    digits finer (mpf(num) / den at `digits` would round num first)."""
    import mpmath

    with mpmath.workdps(digits):
        return str((x if isinstance(x, SymbolicReal) else SymbolicReal(x)).evalf(digits))


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
        print(_report_text(report, args.precision))
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
