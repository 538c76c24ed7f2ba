import gc
import json
import os
import re
import subprocess
import time
import tracemalloc
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hmvol
from hmvol.cli import _parse_range, _print_report, _report_text, main
from hmvol.expr import lattice_from_text
from hmvol.volumes import build_report
from report_doc import report_doc


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process CLI call, a usage error
    included; every call must end within 10 s."""
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert time.perf_counter() - start < 10, argv
    out = capsys.readouterr()
    return code, out.out, out.err


# CLI behaviours that no other test pins by their argv: (argv, exit code,
# texts that stdout holds on exit 0 and stderr otherwise, and the tracemalloc
# peak in MiB that the call stays under, or None).  A --json report must be
# json.dumps(doc, indent=2), and its texts are read off the compact
# re-encoding, so '"indices":{"O~+":48}' names the index.  Catalog exits 1
# on any engine/fixture mismatch; its text is the label of the last row.
CLI_CASES = [
    (("catalog", "L"), 0, ("L m=2 d=10 ",), None),
    (("catalog", "L", "--m", "0..2", "--d", "1..30"), 0, ("L m=2 d=30 ",), None),
    (("catalog", "T"), 0, ("T/II m=3 ratio",), None),  # the summand U(2)
    (("catalog", "K"), 0, ("K m=0 d=12 ",), None),
    (("catalog", "K", "--d", "1..40"), 0, ("K m=0 d=40 ",), None),  # odd D at d = 4, 16, 20, 36
    (("catalog", "L", "--m", "0", "--d", "131072"), 0, ("L m=0 d=131072 ",), None),  # Z/2^18
    (("catalog", "N", "--m", "0..2", "--d", "397,401"), 0, ("N m=2 d=401 ",), None),  # rank 20
    (("catalog", "N", "--d", "9,25,45,49,81"), 0, ("N m=0 d=81 ",), None),  # Euler factor over p | t
    # the Enriques lattice: index 2 |O+_10(2)|
    (("analyze", "U + U(2) + E8(-2)", "--group", "O~+", "--json"), 0,
     ('"indices":{"O~+":93997183795200}',), None),
    # the parts (Z/2)^2 and (Z/3)^3
    (("analyze", "U + U(3) + <-6> + <-2>", "--group", "O~+", "--json"), 0,
     ('"indices":{"O~+":48}',), None),
    (("analyze", "2*U + <-2> + E8(-2)", "--group", "O~+", "--json"), 0,
     ('"indices":{"O~+":696729600}',), None),
    (("analyze", "2*U + <-4> + E8(-2)", "--group", "O~+", "--json"), 0,
     ('"indices":{"O~+":94755225600}',), None),
    (("analyze", "2*U + 2*<-14> + 2*<-98>", "--group", "O~+"), 0, ("O~+ 34420736 ",), None),
    (("analyze", "2*U + 2*<-10> + 3*<-50>", "--group", "O~+"), 0, ("O~+ 450000000000 ",), None),
    (("analyze", "U + <2> + <-6>", "--json", "--oracle-check", "--precision", "30"), 0, (), None),
    (("analyze", "U + <-6>", "--json", "--oracle-check", "--precision", "30"), 0, (), None),
    (("analyze", "U + <1> + <1> + <1>", "--json"), 0, ('"cusp_leading":{}',), None),
    # 481/5760, rounded half-up at the 30th digit
    (("analyze", "2*U + <-62>", "--group", "O", "--precision", "30"), 0,
     ("  O ~ 0.0835069444444444444444444444444\n",), None),
    (("analyze", "2*U + <-62>", "--group", "O", "--precision", "30", "--json"), 0,
     ('"volumes":{"O":"0.0835069444444444444444444444444"}',), None),
    (("analyze", "2*U + <-2>", "--gsp", "2"), 3, ("contradicts the hyperbolic-plane",), None),
    (("analyze", "U + <-2> + <-2>", "--group", "O+"), 3, ("(odd-parity L-value)",), None),
    (("analyze", "gram[0,1;1,0] + gram[0,1;1,0] + <-2>", "--group", "O~+"), 3,
     ("assume a hyperbolic-plane direct summand",), None),
    # the rank cap fires on the counts, before any copy is listed
    (("analyze", "1000000000*U"), 3, ("rank 2000000000 exceeds cap 64",), 1),
    (("catalog", "II", "--m", "1000000000"), 3, ("rank 8000000004 exceeds cap 64",), 1),
    (("catalog", "II", "--m", "0..100000000"), 3, ("rank 68 exceeds cap 64",), 8),
    (("catalog", "II", "--d", "1..3"), 3, ("family II has no d; drop --d",), None),
    (("catalog", "L", "--m", "0", "--d", "5..1"), 2, ("empty range '5..1'",), None),
    (("oracle", "<2> + <-8>", "2", "6"), 0, ("stabilization: stable",), None),
    # degenerate 2-adic buckets: S = 4 diag(3, -5), and <4> + <-6> at q = 128
    (("oracle", "<12> + <-20>", "2", "6"), 0, ("oracle r=7: 256\nstabilization: stable",), None),
    (("oracle", "<4> + <-6>", "2", "6"), 0, ("oracle r=7: 64\n",), None),
    # q = 169, the largest rank-2 modulus the guard allows at depth 2, in int32
    (("oracle", "<2> + <-22>", "13", "1"), 0,
     ("oracle r=1: 14/13\noracle r=2: 14/13\nstabilization: stable",), None),
    (("oracle", "U + <2>", "2", "2"), 0, ("oracle r=3: 6\n",), None),
    # one 2x2 piece of level 2 at p = 3 (an off-diagonal pivot)
    (("oracle", "U(9)", "3", "3"), 0,
     ("formula alpha_3 = 486\noracle r=3: 486\noracle r=4: 486\nstabilization: stable",), None),
    # a unimodular 2x2 piece with one row left, eliminated through its inverse
    (("oracle", "gram[0,1,1;1,0,1;1,1,0]", "3", "1"), 0,
     ("formula alpha_3 = 8/9\noracle r=1: 8/9\noracle r=2: 8/9\nstabilization: stable",), None),
]


@pytest.mark.parametrize("argv, code, texts, peak_mib", CLI_CASES,
                         ids=[" ".join(case[0]) for case in CLI_CASES])
def test_cli_case(capsys, argv, code, texts, peak_mib):
    if peak_mib:
        tracemalloc.start()
    try:
        got, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == code, err
    assert (err == "") == (code == 0), err
    assert "WARNING" not in out and "MISMATCH" not in out
    if "--json" in argv:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        out = json.dumps(json.loads(out), separators=(",", ":"))
    shown = out if code == 0 else err
    assert all(text in shown for text in texts), shown
    if peak_mib:
        assert peak < peak_mib * 2**20, peak


def test_analyze_sp2z(capsys):
    code, out, _ = run(capsys, "analyze", "2*U + <-2>", "--group", "SO~+")
    assert code == 0
    assert "1/2880" in out
    assert "1/8640" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "2*U + <-2>", "--json", "--precision", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["rank"] == 5
    assert doc["lattice"]["det"] == "-2"
    assert doc["bad_primes"] == [2]
    assert doc["densities"][0]["value_num"] == "45"
    assert doc["densities"][0]["value_den"] == "1"
    assert doc["euler_product"]["pi_half_exp"] == 12
    assert doc["volumes"]["O~+"] == {"num": "1", "den": "2880"}
    assert doc["cusp_leading"]["SO~+"] == {"num": "1", "den": "8640"}
    assert isinstance(doc["indices"], dict)
    assert "numeric_echo" in doc
    # exact values never rendered as floats outside the echo
    assert isinstance(doc["volumes"]["O"]["num"], str)


@pytest.mark.parametrize("digits", [5, 40])
def test_numeric_echo_of_euler_product_has_the_requested_digits(capsys, digits):
    # the Euler product of 2U + <-2> is pi^6/34560; its echo is printed at
    # --precision digits, as the volumes are
    import mpmath

    code, out, _ = run(capsys, "analyze", "2*U + <-2>", "--json", "--precision", str(digits))
    assert code == 0
    with mpmath.workdps(digits + 20):
        value = mpmath.pi**6 / 34560
    with mpmath.workdps(digits):
        expected = str(value)
    assert json.loads(out)["numeric_echo"]["euler_product"] == expected


def test_analyze_all_tags_for_ii(capsys):
    code, out, _ = run(capsys, "analyze", "2*U + 2*E8(-1)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["volumes"]) == {"O", "O+", "SO+", "O~+", "SO~+"}
    assert doc["volumes"]["O+"] == doc["volumes"]["O~+"]


def test_analyze_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "2*U +")
    assert code == 2
    assert "offset" in err


@pytest.mark.parametrize("expr", [
    pytest.param("U + <\u00b2>", id="superscript-two"),
    pytest.param("<1" + "0" * 5000 + ">", id="long-literal"),
])
def test_analyze_literal_int_refuses_exit_2(capsys, expr):
    code, _, err = run(capsys, "analyze", expr)
    assert code == 2
    assert err.startswith("expression error:") and "Traceback" not in err


def test_analyze_nesting_past_the_limit_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "(" * 400 + "U + <-2> + U" + ")" * 400)
    assert code == 2
    assert err == "expression error: parentheses nested deeper than 100 at offset 100\n"


# the exit code and exact stderr of malformed expressions; the whole text is
# parsed before any constructor runs, so a syntax error after a rejected atom
# is the one reported
MALFORMED = [
    ("U(0) + +", 2, "unexpected token '+' at offset 7 (expected one of: INT, NAME, <, ()"),
    ("U + U(0) + gram[1,2;3]", 2, "scale must be nonzero at offset 4"),
    ("gram[1,1;1,1]", 2, "bad gram literal: Gram matrix is singular at offset 0"),
    ("gram[0,1;2,0]", 2,
     "bad gram literal: Gram matrix is not symmetric at (0,1): 1 != 2 at offset 0"),
    ("3*(2*U + gram[1,2;2])", 2, "bad gram literal: Gram matrix must be square at offset 9"),
    ("2*(U + <0>)", 2, "rank-1 Gram entry must be nonzero at offset 7"),
    ("0*U", 2, "multiplier must be >= 1, got 0 at offset 0"),
    ("0*Leech", 2, "unknown constructor 'Leech' at offset 2 (expected one of: U, E8, gram)"),
    ("Leech(3)", 2, "unknown constructor 'Leech' at offset 0 (expected one of: U, E8, gram)"),
    ("gram(2)", 2, "unexpected token '(' at offset 4 (expected one of: [)"),
    ("()", 2, "unexpected token ')' at offset 1 (expected one of: INT, NAME, <, ()"),
    ("U U", 2, "trailing input 'U' at offset 2 (expected one of: +, EOF)"),
    ("10000000*U", 3, "rank 20000000 exceeds cap 64"),
]


@pytest.mark.parametrize("expr, code, message", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_expression_exit_code_and_stderr(capsys, expr, code, message):
    prefix = "expression error" if code == 2 else "precondition violated"
    assert run(capsys, "analyze", expr) == (code, "", f"{prefix}: {message}\n")


def test_analyze_precondition_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "U")
    assert code == 3


def test_analyze_definite_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "<2> + <2> + <2>")
    assert code == 3


def test_oracle_guard_exit_4(capsys):
    code, _, err = run(capsys, "oracle", "2*U + 2*E8(-1)", "2", "1")
    assert code == 4


def test_oracle_depth_beyond_guard_exits_before_counting(capsys, monkeypatch):
    # r = 7 is the deepest rank-2 depth at p = 2, so r + 1 = 8 trips the guard
    # before any count; r = 0 is a precondition error
    from hmvol import density

    def no_counting(*args):
        raise AssertionError("counted before the guard")

    monkeypatch.setattr(density, "_siegel_counts", no_counting)
    code, out, err = run(capsys, "oracle", "<2> + <-8>", "2", "7")
    assert (code, out) == (4, "")
    assert err == ("feasibility guard: oracle guard: p^(r*rank^2) = 2^32 = 4294967296 "
                   "exceeds 2^30 naive candidates\n")
    code, out, err = run(capsys, "oracle", "<2> + <-8>", "2", "0")
    assert (code, out) == (3, "")
    assert err == "precondition violated: depth r must be >= 1\n"


@pytest.mark.parametrize("expr, p, r, power", [
    ("<2> + <-8>", "2", "10000", "2^40000"),
    ("<3>", "1009", "2000", "1009^2000"),
])
def test_oracle_guard_names_a_deep_power_without_forming_it(capsys, expr, p, r, power):
    # p^(r*rank^2) has more digits than str() converts, so it is named, not formed
    code, out, err = run(capsys, "oracle", expr, p, r)
    assert (code, out) == (4, "")
    assert err == (f"feasibility guard: oracle guard: p^(r*rank^2) = {power} "
                   "exceeds 2^30 naive candidates\n")


@pytest.mark.parametrize("expr, n_iso", [
    ("2*U + <-131072>", 2),  # cyclic 2-part Z/2^17
    ("2*U + 2*<-14> + 2*<-98>", 34_420_736),  # |A_7| = 7^6
    ("2*U + 2*<-10> + 3*<-50>", 450_000_000_000),  # |A_5| = 5^8
    ("U + <2> + E8(-2)", 696_729_600),  # 2 |O+_8(2)|, A_2 = (Z/2)^9 of odd type
    ("2*U + 2*E8(-2)", 3_646_667_308_127_140_301_114_201_478_266_880_000),  # A_2 = (Z/2)^16
    ("2*U + <-2> + <-131072>", 4),  # A_2 = Z/2 + Z/2^17, as the chain oracle counts
])
def test_closed_form_parts_over_the_cap_exit_0(capsys, expr, n_iso):
    # every |O(q_p)| is read off the density, so parts of any size, cyclic
    # or not, report at once
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", expr, "--group", "O~+", "--json")
    assert time.perf_counter() - start < 0.1
    assert (code, err) == (0, "")
    assert json.loads(out)["indices"]["O~+"] == n_iso


def test_l_value_conductor_guard_exit_4(capsys, monkeypatch):
    # D = 4 * 2 * 2 * 2000000000001: the chi table alone would not fit in
    # memory, and the guard fires before |D| is factored, so only |det| is
    import sys

    from hmvol import arith

    factorize, factored = arith.factorize, []

    def recorded(n):
        factored.append(n)
        return factorize(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hmvol") and getattr(mod, "factorize", None) is factorize:
            monkeypatch.setattr(mod, "factorize", recorded)
    code, out, err = run(capsys, "analyze", "U + <2> + <-2000000000001>")
    assert code == 4 and out == ""
    assert "conductor 16000000000008" in err and "Traceback" not in err
    assert factored == [4000000000002]


def test_analyze_e8_minus_two_stable_exit_0(capsys):
    # |O(q)| = |O+_8(2)| = 348,364,800, read off the density
    code, out, _ = run(capsys, "analyze", "2*U + E8(-2)", "--group", "O~+", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["det"] == "256"
    assert doc["indices"]["O~+"] == 2 * 348364800  # A is 2-elementary


def test_oracle_match(capsys):
    code, out, _ = run(capsys, "oracle", "U", "3", "1")
    assert code == 0
    assert "formula alpha_3 = 2/3" in out
    assert "stable" in out


def test_oracle_rank_one_deep_modulus_is_stable(capsys):
    # 3^18 * 3^18 * 100 > 2^63: the counter must not wrap at r + 1 = 18
    code, out, _ = run(capsys, "oracle", "<100>", "3", "17")
    assert code == 0
    assert "oracle r=18: 1\n" in out
    assert "stabilization: stable" in out


def test_oracle_convention_note(capsys):
    code, out, _ = run(capsys, "oracle", "<1> + <-1>", "2", "3")
    assert code == 0
    assert "mod 2^r" in out


def test_catalog_families(capsys):
    for family, extra in (("II", ()), ("N", ())):
        code, out, _ = run(capsys, "catalog", family, *extra)
        assert code == 0, out
        assert "MISMATCH" not in out


def test_catalog_subrange(capsys):
    code, out, _ = run(capsys, "catalog", "L", "--m", "0", "--d", "1..6")
    assert code == 0
    assert out.count("ok") == 6


def test_catalog_unknown_family(capsys):
    code, _, err = run(capsys, "catalog", "Z")
    assert code == 3


@pytest.mark.parametrize("family", ["II", "T"])
def test_catalog_d_for_a_family_without_d_exits_3(capsys, family):
    # II and T have no d: each d would repeat the one row
    code, out, err = run(capsys, "catalog", family, "--m", "0", "--d", "1..3")
    assert (code, out) == (3, "")
    assert err == f"precondition violated: family {family} has no d; drop --d\n"


def test_analyze_oracle_check_flag(capsys):
    code, out, _ = run(capsys, "analyze", "<1> + <1> + <-1>", "--group", "O", "--oracle-check")
    assert code == 0
    assert "oracle check p=2: guard-capped at r=3, value 2 (not comparable)" in out


def test_analyze_oracle_check_notes_infeasible_prime(capsys):
    # at p = 11 even depth 1 costs 11^9 > 2^30 candidates: the prime is noted
    # as skipped and the report is still printed
    code, out, _ = run(capsys, "analyze", "U + <-22>", "--oracle-check")
    assert code == 0
    assert "note: oracle check at p=11 skipped" in out
    assert "oracle check p=2: guard-capped at r=3" in out
    assert "oracle check p=11:" not in out


def test_guard_capped_oracle_check_claims_no_verdict(capsys):
    # a guard-capped depth is below stabilization: neither "match" (the value
    # of <1> + <1> + <-1> happens to equal alpha_2) nor "MISMATCH" (U + <-22>)
    for text in ("U + <-22>", "<1> + <1> + <-1>"):
        code, out, _ = run(capsys, "analyze", text, "--oracle-check")
        assert code == 0
        assert "guard-capped at r=3" in out and "(not comparable)" in out
        assert "match" not in out.lower()


def test_stabilized_oracle_check_prints_verdict(capsys):
    report = build_report(lattice_from_text("<1> + <1> + <-1>"), tags=("O",), oracle_check=True)
    for matches, verdict in ((True, "(match)"), (False, "(MISMATCH)")):
        check = dict(report.oracle_checks[0], stable=True, matches_formula=matches)
        _print_report(report._replace(oracle_checks=[check]), None)
        assert f"oracle check p=2: stabilized at r=3, value 2 {verdict}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("catalog", "L", "--d", "1..x"),
    ("catalog", "L", "--d", "1..2..3"),
    ("catalog", "L", "--d", "5..1"),
    ("catalog", "L", "--m", "2..0"),
    ("analyze", "2*U + <-2>", "--precision", "0"),
    ("analyze", "2*U + <-2>", "--precision", "-3"),
    ("analyze", "2*U + <-2>", "--gsp", "0"),
    ("analyze", "2*U + <-2>", "--gsp", "-1"),
    ("analyze", "2*U + <-2>", "--gsp", "x"),
    ("analyze", "2*U + <-2>", "--precision", "1.5"),
])
def test_malformed_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"error: argument {argv[2]}" in capsys.readouterr().err


def test_stabilized_disagreement_exits_5_in_oracle_and_in_analyze(capsys, monkeypatch):
    # one disagreement, one policy: oracle prints its lines, then both
    # commands exit 5
    from hmvol import cli, volumes

    density = cli.local_density

    def off_by_one(lat, p):
        d = density(lat, p)
        return d._replace(value=d.value + 1)

    monkeypatch.setattr(cli, "local_density", off_by_one)
    code, out, err = run(capsys, "oracle", "<2> + <-8>", "2", "6")
    assert (code, err) == (5, "internal consistency failure: oracle disagrees with the density "
                              "formula at p=2\n")
    assert out.endswith("stabilization: stable\nconvention: congruence X^t S X = S taken plainly "
                        "mod 2^r in every entry\n")
    monkeypatch.setattr(volumes, "oracle_stabilized", lambda lat, p: (3, Fraction(1, 7), True))
    assert run(capsys, "analyze", "U + <-6>", "--oracle-check") == (
        5, "", "internal consistency failure: oracle disagrees with the density formula at p=2\n")


def test_gsp_override_exits_3_only_with_a_hyperbolic_summand(capsys):
    code, out, err = run(capsys, "analyze", "U + <2> + <-2>", "--gsp", "2", "--group", "O~+")
    assert (code, out) == (3, "")
    assert err == ("precondition violated: g_sp+ = 2 contradicts the hyperbolic-plane "
                   "direct summand: the genus has a single class, so g_sp+ = 1\n")
    # without the syntactic summand the default 1 is only assumed
    text = "gram[0,1;1,0] + gram[0,1;1,0] + <-2>"
    code, out, _ = run(capsys, "analyze", text, "--gsp", "2", "--json")
    assert code == 0, out
    doc = json.loads(out)
    assert doc["g_sp_plus"] == 2
    assert any("g_sp+ = 2 assumed" in note for note in doc["assumptions"])


def test_repeated_group_prints_once(capsys):
    argv = ("analyze", "2*U + <-2>", "--group", "O~+")
    code, once, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--group", "O~+") == (0, once, "")
    assert once.count("O~+: -id lies in the group") == 1


def test_catalog_l_with_large_cyclic_two_parts(capsys):
    # L(m, 2^k) has the cyclic 2-part Z/2^(k+1), over the old enumeration cap
    code, out, _ = run(capsys, "catalog", "L", "--m", "0,2", "--d", "65536,131072,1048576")
    assert code == 0, out
    assert [line.split()[-1] for line in out.splitlines()] == ["ok"] * 6


def test_parse_range_lists_no_values():
    # a range is kept as a `range`, not as the list of its values
    tracemalloc.start()
    try:
        spec = _parse_range("0..1000000, 5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert spec == (range(0, 1000001), range(5, 6))


def test_catalog_iterates_a_huge_range_lazily(capsys):
    # the rows of II run from m = 0 until the rank cap at m = 8 refuses one,
    # with no list of the 10^6 values built first
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "catalog", "II", "--m", "0..1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "rank 68 exceeds cap 64" in err
    assert len(out.splitlines()) == 8
    assert peak < 8 * 2**20


def test_catalog_mixed_range(capsys):
    code, out, _ = run(capsys, "catalog", "L", "--m", "0", "--d", "1..2, 5")
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()] == ["d=1", "d=2", "d=5"]


def test_catalog_mismatch_exits_nonzero(capsys, monkeypatch):
    import hmvol.families as fam

    monkeypatch.setattr(fam, "fixture_vol_l_tilde", lambda m, d: 0)
    code, out, _ = run(capsys, "catalog", "L", "--m", "0", "--d", "1,2")
    assert code == 1
    assert "MISMATCH" in out


def test_oracle_good_prime(capsys):
    code, out, _ = run(capsys, "oracle", "<1> + <-1>", "5", "1")
    assert code == 0
    assert "formula alpha_5 = 4/5" in out
    assert out.count("4/5") >= 3
    assert "stable" in out


def test_analyze_stable_tag_on_odd_lattice_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "U + U + <-1>", "--group", "O~+")
    assert code == 3
    assert "even" in err


def test_main_leaves_no_cyclic_garbage(capsys):
    # the parser is built once, so a command leaves nothing for the
    # collector and a long-running caller's memory does not depend on when
    # the collector runs
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert main(["catalog", "L", "--m", "0", "--d", "1..3"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_closed_stdout_exits_quietly():
    # a reader that stops after one line, as `hmvol analyze ... --json | head -1`;
    # 20,000-digit echoes make the report (~100 kB) overrun the pipe buffer,
    # so the write after the close always meets a broken pipe
    env = dict(os.environ, PYTHONPATH=str(Path(hmvol.__file__).parents[1]))
    argv = [sys.executable, "-m", "hmvol.cli", "analyze", "2*U + <-2>", "--json",
            "--precision", "20000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and err == ""



def test_import_loads_no_dataclasses_numpy_or_mpmath():
    # start-up cost: numpy loads on the first oracle count and mpmath only for
    # --precision; the modules present before the import (a site hook's) are
    # not counted
    code = ("import sys; before = set(sys.modules); import hmvol.cli; "
            "print(sorted({'dataclasses', 'numpy', 'mpmath'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(hmvol.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out == "[]\n"


def _stdlib_text(report, precision):
    return json.dumps(report_doc(report, precision), indent=2)


def test_json_writer_matches_stdlib_on_signature_2n_reports(signature_2n_corpus):
    for text, lat in signature_2n_corpus:
        report = build_report(lat)
        for precision in (None, 30):
            assert _report_text(report, precision) == _stdlib_text(report, precision), (text, precision)


def test_json_writer_matches_stdlib_on_oracle_check_reports(oracle_corpus):
    # each corpus lattice made rank 3 and indefinite; the checks carry booleans
    for text, lat in oracle_corpus:
        expr = f"U + {text}" if lat.rank == 1 else f"{text} + <-1>"
        report = build_report(lattice_from_text(expr), oracle_check=True)
        assert all(isinstance(c["stable"], bool) for c in report.oracle_checks), expr
        assert _report_text(report, None) == _stdlib_text(report, None), expr


def test_json_writer_matches_stdlib_on_every_optional_or_empty_node():
    # each report shape the emitter writes, and the shapes they reach
    cases = [
        ("U + <1> + <1> + <1>", None, True, 12),  # odd, no cusp term, rank > 3 note
        ("U + <2> + <-6>", ("O~+",), False, 30),  # an empty E at p = 3, negative entries
        ("U + <-22>", None, True, None),  # a prime too dear for the oracle, E at j = -1
        ("U + <-6>", None, True, 5),  # two checks, one matching; signature (1, 2)
        ("2*U + 3*E8(-1) + <-50>", None, False, 40),  # rank 28, long fractions
        ("2*U + <-1024>", ("SO~+", "O"), False, None),  # E at j = 10, 11: keys sorted as ints
    ]
    seen = set()
    for text, tags, oracle_check, precision in cases:
        report = build_report(lattice_from_text(text), tags, oracle_check=oracle_check)
        reports = [report]
        if report.oracle_checks:
            # no rank-3 oracle walk stabilizes under the guard; the emitter
            # still has to write a stable check
            stable = [dict(c, stable=True, matches_formula=True) for c in report.oracle_checks]
            reports.append(report._replace(oracle_checks=stable))
        for r in reports:
            assert _report_text(r, precision) == _stdlib_text(r, precision), (text, precision)
            doc = report_doc(r, precision)
            seen.add(("even", doc["lattice"]["even"]))
            seen.update(("E", bool(d["breakdown"]["E"])) for d in doc["densities"])
            seen.update(("E key", "-" if k[0] == "-" else len(k))
                        for d in doc["densities"] for k in d["breakdown"]["E"])
            seen.add(("cusp_leading", bool(doc["cusp_leading"])))
            seen.update(("oracle_check", c["stable"], c["matches_formula"])
                        for c in doc.get("oracle_checks", ()))
            seen.add(("oracle_checks", "oracle_checks" in doc))
            seen.update(("skipped", "at p=" in note) for note in doc["assumptions"] if "skipped" in note)
            seen.add(("numeric_echo", "numeric_echo" in doc))
    assert seen == {
        ("even", True), ("even", False), ("E", True), ("E", False), ("E key", "-"),
        ("E key", 1), ("E key", 2), ("cusp_leading", True), ("cusp_leading", False),
        ("oracle_check", False, False), ("oracle_check", False, True),
        ("oracle_check", True, True), ("oracle_checks", True), ("oracle_checks", False),
        ("skipped", True), ("skipped", False), ("numeric_echo", True), ("numeric_echo", False),
    }


def test_analyze_json_is_stdlib_indented_json(capsys):
    code, out, _ = run(capsys, "analyze", "2*U + 3*E8(-1)", "--json", "--precision", "30")
    assert code == 0
    assert json.loads(out)["lattice"]["rank"] == 28
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_package_exports_exactly_the_readme_api():
    # the names at the head of each bullet of README's "What it computes"
    # (before its dash); a dotted name such as hmvol.arith.factorize is a
    # module's, not a package export
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What it computes\n")[1].split("\n## ")[0]
    heads = [" ".join(b.split()).split(" — ")[0] for b in re.split(r"^\* ", section, flags=re.M)[1:]]
    documented = [name for head in heads for name in re.findall(r"`(\w+)[`(]", head)]
    assert sorted(hmvol.__all__) == sorted(documented)
    assert all(hasattr(hmvol, name) for name in hmvol.__all__)
