import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    ORACLE_CORPUS,
    SIGNATURE_2N_EXPRESSIONS,
    integer_route_corpus,
    isometry_order,
    num_prime_divisors,
)
from family_fixtures import fixture_cusp_k3
from fraction_routes import det_power, gamma_factor, l_closed, zeta_closed
from fraction_routes import euler_product as fraction_euler_product
from siegel import siegel_gamma, siegel_identities, vol_s_so
from hmvol.arith import is_prime, kronecker, squarefree_decompose
from hmvol.errors import PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.families import (
    fixture_ratio_t_over_ii,
    fixture_vol_ii_oplus,
    fixture_vol_k_tilde,
    fixture_vol_l_tilde,
    k_lattice,
    l_lattice,
    t_lattice,
    unimodular_ii,
)
from hmvol.jordan import jordan_decompose
from hmvol.lattices import from_gram
from hmvol.special_values import SymbolicReal
from hmvol.volumes import (
    build_report,
    cusp_dim_leading,
    euler_alpha_product,
    genus_discriminant,
    group_volume,
    vol_hm,
)


def test_euler_product_l_family_closed_form():
    # zeta(2)...zeta(8m+4) (2d)^-1 2^(-rho(d)-8m-5) prod_{p|d}(1+p^-(4m+2))
    for m in (0, 2):
        for d in range(1, 11):
            expected = SymbolicReal(Fraction(1))
            for i in range(1, 4 * m + 3):
                expected = expected * zeta_closed(2 * i)
            tail = Fraction(1, 2 * d) * Fraction(1, 2 ** (num_prime_divisors(d) + 8 * m + 5))
            for p in set(
                q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))
            ):
                tail *= 1 + Fraction(1, p ** (4 * m + 2))
            assert euler_alpha_product(l_lattice(m, d)) == expected * tail, (m, d)


def test_euler_product_k_family_closed_form():
    # two-adic case constant * d^-1 * zeta(2)...zeta(8m+2) * L(4m+2, (4d|.))
    # for m = 0 and small d
    from fraction_routes import euler_factor
    from hmvol.special_values import fundamental_discriminant

    m = 0
    for d in (1, 2, 3, 5):
        rho_d = num_prime_divisors(d)
        if d % 4 in (1, 2):
            a2 = Fraction(1, 2 ** (rho_d + 8 * m + 6))
        else:
            a2 = Fraction(1, 2 ** (rho_d + 8 * m + 7))
        disc, _ = fundamental_discriminant(4 * d)
        imprimitive = l_closed(4 * m + 2, disc)
        for p in sorted(set(int(q) for q in (2,)) | set(q for q in (3, 5, 7) if d % q == 0)):
            imprimitive = imprimitive * euler_factor(disc, p, 4 * m + 2)
        expected = SymbolicReal(a2 / d) * zeta_closed(2) * imprimitive
        assert euler_alpha_product(k_lattice(m, d)) == expected, d


def test_euler_product_unimodular():
    # II family: pure zeta tail with the 2-adic correction
    lat = unimodular_ii(1)
    got = euler_alpha_product(lat)
    expected = SymbolicReal(Fraction(1, 2**12))
    for i in range(1, 6):
        expected = expected * zeta_closed(2 * i)
    expected = expected * zeta_closed(6)
    assert got == expected


def test_vol_hm_unimodular_family():
    for m in (0, 1, 2):
        assert 2 * vol_hm(unimodular_ii(m)) == fixture_vol_ii_oplus(m)


def test_vol_hm_rejects_small_or_definite():
    with pytest.raises(PreconditionError, match="rank"):
        vol_hm(lattice_from_text("U"))
    with pytest.raises(PreconditionError, match="indefinite"):
        vol_hm(lattice_from_text("<2> + <2> + <2>"))


def test_vol_hm_rejects_odd_parity_even_rank():
    # signature (3,1): det < 0, the L-value has no elementary closed form
    lat = lattice_from_text("<1> + <1> + <1> + <-2>")
    with pytest.raises(PreconditionError, match="closed"):
        vol_hm(lat)


def test_vol_hm_odd_lattice_signature_2n():
    # odd lattices are fine as long as the parity constraint holds
    lat = lattice_from_text("<1> + <1> + <-1> + <-3>")  # det 3 > 0, rank 4
    assert isinstance(vol_hm(lat), Fraction)


def test_spinor_genus_parameter_threads_through():
    # L(0, 1) written without a syntactic hyperbolic summand, where g_sp+ = 1
    # is only assumed, so an override divides every volume
    lat = lattice_from_text("gram[0,1;1,0] + gram[0,1;1,0] + <-2>")
    assert vol_hm(lat, 2) == vol_hm(lat) / 2 == vol_hm(l_lattice(0, 1)) / 2
    assert group_volume(lat, "O+", 4) == group_volume(lat, "O+") / 4
    assert cusp_dim_leading(lat, "SO+", 3) == cusp_dim_leading(lat, "SO+") / 3


def test_spinor_genus_override_contradicting_hyperbolic_summand_is_rejected():
    # a hyperbolic-plane direct summand leaves one class in the genus, so
    # g_sp+ is 1 and no other value may divide the volumes
    for lat in (l_lattice(0, 1), lattice_from_text("U + <2> + <-2>")):
        assert build_report(lat, ("O~+",), 1).lattice.has_hyperbolic_summand
        for call in (lambda: build_report(lat, ("O~+",), 2), lambda: vol_hm(lat, 2),
                     lambda: group_volume(lat, "O~+", 4), lambda: cusp_dim_leading(lat, "O+", 2)):
            with pytest.raises(PreconditionError, match=r"g_sp\+ = \d contradicts the hyperbolic"):
                call()


def test_repeated_tags_count_once():
    lat = l_lattice(0, 1)
    once, twice = build_report(lat, ("O~+",)), build_report(lat, ("O~+", "O+", "O~+"))
    assert once.assumptions == [a for a in twice.assumptions if not a.startswith("O+")]
    assert list(twice.volumes) == list(twice.indices) == list(twice.cusp_leading) == ["O~+", "O+"]
    assert sum(a.startswith("O~+: -id") for a in twice.assumptions) == 1


def test_sp2z_anchor():
    lat = l_lattice(0, 1)
    assert group_volume(lat, "SO~+") == Fraction(1, 2880)
    assert group_volume(lat, "O~+") == Fraction(1, 2880)
    assert cusp_dim_leading(lat, "SO~+") == Fraction(1, 8640)


def test_l_family_tilde_volumes():
    for m in (0, 2):
        for d in (1, 2, 3, 5, 10):
            assert group_volume(l_lattice(m, d), "O~+") == fixture_vol_l_tilde(m, d)


def test_paramodular_volume_and_growth():
    for d in (2, 3, 5):
        vol = group_volume(l_lattice(0, d), "SO~+")
        expected = (
            Fraction(1, 2**4)
            * d**2
            * prod_over_primes(d, 2)
            * abs(Fraction(1, 6) * Fraction(-1, 30))
        )
        assert vol == expected
        assert cusp_dim_leading(l_lattice(0, d), "SO~+") == Fraction(d * d + 1, 8640)


def prod_over_primes(d: int, exponent: int) -> Fraction:
    out = Fraction(1)
    for p in range(2, d + 1):
        if d % p == 0 and all(p % q for q in range(2, p)):
            out *= 1 + Fraction(1, p**exponent)
    return out


def test_ratio_t_over_ii():
    for m in (1, 2, 3):
        ratio = group_volume(t_lattice(m), "O~+") / group_volume(unimodular_ii(m), "O~+")
        assert ratio == fixture_ratio_t_over_ii(m)


def test_doubling_o_plus(signature_2n_corpus):
    for text, lat in signature_2n_corpus:
        assert group_volume(lat, "O+") == 2 * vol_hm(lat), text


def test_pi_cancellation(signature_2n_corpus):
    for text, lat in signature_2n_corpus:
        v = vol_hm(lat)
        assert isinstance(v, Fraction), text
        assert v > 0, text


def test_volume_cancels_by_construction():
    # build_report multiplies rationals only; on the record routes the volume
    # (2/g) |det|^((rho+1)/2) gamma_rho Euler has no pi and no surd left, and
    # its coefficient is vol_hm, on the golden and acceptance corpora and on
    # family members with odd and even D, II(m) up to rank 52
    from hmvol.density import bad_primes, density_from_decomposition
    from hmvol.families import n_lattice

    corpus = integer_route_corpus() + [
        (f"L({m},{d})", l_lattice(m, d)) for m in (0, 1, 2) for d in range(1, 41)
    ] + [(f"K(0,{d})", k_lattice(0, d)) for d in (4, 16, 20, 36)] + [
        (f"N(0,{d})", n_lattice(0, d)) for d in range(1, 102, 4)
    ] + [(f"II({m})", unimodular_ii(m)) for m in range(7)]
    checked = 0
    for label, lat in corpus:
        power = det_power(lat)
        assert squarefree_decompose(power.radicand) == (power.radicand, 1), label
        if lat.rank < 3 or lat.is_definite:
            continue
        densities = [density_from_decomposition(jordan_decompose(lat, p)) for p in bad_primes(lat)]
        try:
            euler = fraction_euler_product(lat, densities)
        except PreconditionError:  # negative det at even rank
            continue
        product = SymbolicReal(Fraction(2)) * power * gamma_factor(lat.rank) * euler
        assert (product.pi_half_exponent, product.radicand) == (0, 1), label
        assert product.coefficient == vol_hm(lat), label
        checked += 1
    assert checked > 200


def test_siegel_identities_gamma_values():
    assert siegel_gamma(1) == SymbolicReal(Fraction(1))
    assert vol_s_so(2) == SymbolicReal(Fraction(2), 2)  # 2 pi


def test_siegel_ratio_identity(signature_2n_corpus):
    for text, lat in signature_2n_corpus:
        ids = siegel_identities(lat)
        assert ids.ratio == SymbolicReal(vol_hm(lat)), text
        # the compact-dual volume is 2 gamma_{r+s} / (gamma_r gamma_s)
        r, s = lat.signature
        assert ids.vol_s_dual * siegel_gamma(r) * siegel_gamma(s) == (
            SymbolicReal(Fraction(2)) * siegel_gamma(r + s)
        )


def test_siegel_ratio_on_ii_2_10():
    ids = siegel_identities(unimodular_ii(1))
    assert ids.ratio == SymbolicReal(vol_hm(unimodular_ii(1)))


def test_stable_vs_plus_factor():
    # on L(2, 6): [PO : PO~+] = N = |O(q)| = 4 and [PO : PO+] = 2
    lat = l_lattice(2, 6)
    n_iso = isometry_order(lat)
    assert n_iso == 4
    assert group_volume(lat, "O~+") / group_volume(lat, "O+") == Fraction(n_iso, 2)


def test_l_family_beyond_whole_group_isometry_cap():
    # |A| = 2d is over the isometry enumeration cap, but each p-part is
    # either Z/2 or cyclic at odd p
    for d in (50001, 99991, 1000003):
        assert group_volume(l_lattice(0, d), "O~+") == fixture_vol_l_tilde(0, d), d


def test_k3_cusp_leading():
    for d in (2, 3, 4):
        assert cusp_dim_leading(l_lattice(2, d), "O~+") == fixture_cusp_k3(d)


def test_k_family_volume_examples():
    # frozen values, hand-derived through the unreduced chain
    assert group_volume(k_lattice(0, 5), "O~+") == Fraction(1, 12)
    assert group_volume(k_lattice(0, 3), "O~+") == Fraction(1, 24)
    assert group_volume(k_lattice(0, 12), "O~+") == Fraction(1, 3)
    assert group_volume(k_lattice(0, 5), "O~+") == fixture_vol_k_tilde(0, 5)


def test_genus_discriminant():
    assert genus_discriminant(k_lattice(0, 5)) == 5  # det 20 = 5 * 2^2
    assert genus_discriminant(unimodular_ii(1)) == 1
    assert genus_discriminant(lattice_from_text("U + gram[2,1;1,-2]")) == 5


def test_build_report_defaults():
    rep = build_report(l_lattice(0, 1))
    assert set(rep.volumes) == {"O", "O+", "SO+", "O~+", "SO~+"}
    assert rep.volumes["O~+"] == Fraction(1, 2880)
    assert rep.cusp_leading["SO~+"] == Fraction(1, 8640)
    assert rep.lattice.has_hyperbolic_summand
    # II_{2,18}: stable group equals the plus group
    rep = build_report(lattice_from_text("2*U + 2*E8(-1)"))
    assert rep.volumes["O+"] == rep.volumes["O~+"]
    assert rep.indices["O+"] == rep.indices["O~+"] == 2


_SIGNATURE = "projective indices are defined for signature (2, n), n >= 1"
_ODD = "stable group tags need the discriminant form of an even lattice"
_NO_U = ("stable-group indices assume a hyperbolic-plane direct summand "
         "(one class per genus, surjectivity onto O(q))")


def test_default_tags_are_the_tags_not_refused():
    # one rule picks the default tags and refuses the rest, each with its
    # own message: a stable tag needs an even lattice, then the U flag (the
    # Gram literal of 2*U + <-2> and U(2) + <2> + <-2> lack it), and every
    # tag but O needs signature (2, n)
    refused = {
        "2*U + <-2>": {},
        "gram[0,1;1,0] + gram[0,1;1,0] + <-2>": {"O~+": _NO_U, "SO~+": _NO_U},
        "U + U + <-1>": {"O~+": _ODD, "SO~+": _ODD},
        "U(2) + <2> + <-2>": {"O~+": _NO_U, "SO~+": _NO_U},
        "U + <2> + <2> + <-2>": {tag: _SIGNATURE for tag in ("O+", "SO+", "O~+", "SO~+")},
    }
    for text, messages in refused.items():
        lat = lattice_from_text(text)
        accepted = []
        for tag in ("O", "O+", "SO+", "O~+", "SO~+"):
            if tag in messages:
                with pytest.raises(PreconditionError) as err:
                    build_report(lat, (tag,))
                assert str(err.value) == messages[tag], (text, tag)
            else:
                assert set(build_report(lat, (tag,)).volumes) == {tag}, (text, tag)
                accepted.append(tag)
        assert list(build_report(lat).volumes) == accepted, text
    with pytest.raises(PreconditionError, match="unknown group tag 'bogus'"):
        build_report(lattice_from_text("2*U + <-2>"), ("O", "bogus"))


def test_euler_product_precondition_comes_before_the_tag_refusals():
    # even rank with det < 0: the Euler product's own precondition is what
    # every tag and every pair of tags reports, also the tags the lattice's
    # signature would refuse
    tags = ("O", "O+", "SO+", "O~+", "SO~+")
    for text in ("U + <-2> + <-2>", "U + <2> + <2>"):
        lat = lattice_from_text(text)
        for asked in [None, *((t,) for t in tags), *itertools.product(tags, repeat=2)]:
            with pytest.raises(PreconditionError, match="odd-parity L-value"):
                build_report(lat, asked)


def test_build_report_oracle_check():
    # rank 3 at p = 2 cannot confirm stabilization inside the guard, so the
    # check reports the deepest feasible depth as guard-capped
    rep = build_report(lattice_from_text("<1> + <1> + <-1>"), oracle_check=True)
    assert rep.oracle_checks
    check = rep.oracle_checks[0]
    assert check["p"] == 2 and not check["stable"] and check["matches_formula"]
    rep2 = build_report(lattice_from_text("2*U + <-2>"), oracle_check=True)
    assert any("skipped" in line for line in rep2.assumptions)


def test_report_flags_unjustified_default():
    lat = lattice_from_text("gram[0,1;1,0] + gram[0,1;1,0] + <-2>")
    rep = build_report(lat, tags=("O",))
    assert not rep.lattice.has_hyperbolic_summand
    assert any("assumed" in line for line in rep.assumptions)


def test_build_report_runs_each_stage_once(monkeypatch):
    # every hmvol module that binds one of these names gets a recording wrapper
    import sys

    from hmvol import arith, density, jordan, special_values, volumes

    targets = {
        "jordan_decompose": jordan.jordan_decompose,
        "_euler_product": volumes._euler_product,
        "generalized_bernoulli": special_values.generalized_bernoulli,
        "density_from_decomposition": density.density_from_decomposition,
        "finite_isometry_order": density.finite_isometry_order,
        "factorize": arith.factorize,
        "squarefree_decompose": arith.squarefree_decompose,
    }
    calls = {name: [] for name in targets}

    def recording(name, fn):
        def recorded(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return recorded

    modules = [m for n, m in sys.modules.items() if n.startswith("hmvol")]
    for name, fn in targets.items():
        wrapper = recording(name, fn)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    lat = k_lattice(3, 30)
    rep = build_report(lat)
    factored = [n for (n,) in calls["factorize"]]
    assert set(rep.volumes) == {"O", "O+", "SO+", "O~+", "SO~+"}
    assert len(calls["_euler_product"]) == 1
    assert len(calls["generalized_bernoulli"]) == 1
    # one Jordan decomposition and one density per bad prime, and no good
    # prime is decomposed
    n_bad = len(density.bad_primes(lat))
    assert n_bad == 3 and list(lat.det_factors) == [2, 3, 5]
    assert len(calls["jordan_decompose"]) == n_bad
    assert len(calls["density_from_decomposition"]) == n_bad
    # |O(q)| counted once, from the report's own decompositions and
    # densities at the primes dividing det: no split or density runs again
    ((parts,),) = calls["finite_isometry_order"]
    assert [a for _, a in parts] == rep.densities
    assert all(a is b for (_, a), b in zip(parts, rep.densities))
    # det is factored once, on the lattice, and |D| once, for chi_D; nothing
    # else is factored
    disc = volumes.genus_discriminant(lat)
    assert factored == [abs(lat.det), abs(disc)] == [120, 120]
    assert not calls["squarefree_decompose"]


def test_oracle_check_counts_each_depth_once(monkeypatch):
    # the oracle walk counts each depth at most once per prime, also when the
    # guard stops it before two consecutive depths agree: the depths the
    # counter yields for a prime run once each up to the reported depth
    from hmvol import density

    counted = []
    counts = density._siegel_counts

    def recording(gram, p, r, deepest):
        for k, count in enumerate(counts(gram, p, r, deepest), r):
            counted.append((p, k))
            yield count

    monkeypatch.setattr(density, "_siegel_counts", recording)
    for text in ("<1> + <1> + <-1>", "U + <-22>"):
        counted.clear()
        rep = build_report(lattice_from_text(text), oracle_check=True)
        assert rep.oracle_checks and not rep.oracle_checks[0]["stable"], text
        assert len(counted) == len(set(counted)), (text, counted)
        for check in rep.oracle_checks:
            depths = [k for p, k in counted if p == check["p"]]
            assert depths and depths == list(range(depths[0], check["r"] + 1)), (text, counted)


def test_oracle_walk_lifts_each_target_one_digit_per_depth(monkeypatch):
    # one walk reads every distinct diagonal target S_ii mod p^deepest off one
    # table of all vectors mod p^r at its first depth r, then lifts each
    # target by one digit per later depth up to the deepest depth walked:
    # <1> + <1> + <-1> (first depth 2) has the equal targets 1, 1, and
    # U + <-22> (first depth 3, the guard's, so nothing is lifted) the equal
    # targets 0, 0; the rank-1 square roots of 1 of <12> are lifted once per
    # depth beyond v_2(12) = 2
    from hmvol import density

    lifted, tables = [], []
    lift, table_candidates = density._lift, density._table_candidates

    def recording(cand, m, p, s, target, digits):
        lifted.append((target, m))
        return lift(cand, m, p, s, target, digits)

    def recording_table(table, s, q, targets):
        tables.append((sorted(targets), q, len(table)))
        return table_candidates(table, s, q, targets)

    monkeypatch.setattr(density, "_lift", recording)
    monkeypatch.setattr(density, "_table_candidates", recording_table)
    for text, first in (("<1> + <1> + <-1>", 2), ("U + <-22>", 3)):
        lat = lattice_from_text(text)
        lifted.clear()
        tables.clear()
        r, _, stable = density.oracle_stabilized(lat, 2)
        assert r == density._guard_depth(2, 3) == 3 and not stable, text
        targets = {lat.gram[i][i] % 2**r for i in range(3)}
        assert len(targets) == 2, text
        assert tables == [(sorted(targets), 2**first, 2 ** (3 * first))], text
        assert sorted(lifted) == sorted((t, 2**k) for t in targets for k in range(first, r)), text
    lifted.clear()
    # 4 #{x mod 2^(k-2) : x^2 = 1} at depth k >= 2
    assert list(density._siegel_counts([[12]], 2, 1, 12)) == [2, 4, 4, 8] + [16] * 8
    assert lifted == [(1, 2**k) for k in range(10)]


def _assert_good_prime_chi(lattice, count=5):
    # the Euler product takes L(t, chi_D) for the good-prime tail: at the
    # first `count` primes not dividing 2 det, the lattice is one unimodular
    # Jordan block whose chi is kronecker(D, p), D the genus discriminant
    disc = genus_discriminant(lattice)
    twodet = 2 * abs(lattice.det)
    p, checked = 2, 0
    while checked < count:
        p += 1
        if not is_prime(p) or twodet % p == 0:
            continue
        blocks = jordan_decompose(lattice, p).blocks
        assert [(b.level, b.rank) for b in blocks] == [(0, lattice.rank)], (lattice, p)
        assert blocks[0].chi == kronecker(disc, p), (lattice, p)
        checked += 1


def test_good_prime_block_chi_is_the_genus_character():
    lattices = [lattice_from_text(t) for t in ORACLE_CORPUS + SIGNATURE_2N_EXPRESSIONS]
    even = [lat for lat in lattices if lat.rank % 2 == 0]
    assert len(even) == 24
    for lat in even:
        _assert_good_prime_chi(lat)
    for lat in (k_lattice(3, 30), k_lattice(0, 7), unimodular_ii(2)):
        _assert_good_prime_chi(lat)


@st.composite
def _even_rank_grams(draw):
    n = draw(st.sampled_from((2, 4, 6)))
    upper = draw(st.lists(st.integers(-6, 6), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    gram = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = next(it)
    return gram


@given(_even_rank_grams())
@settings(max_examples=60, deadline=None)
def test_good_prime_block_chi_random_lattices(gram):
    try:
        lat = from_gram(gram)
    except PreconditionError:  # singular
        assume(False)
    _assert_good_prime_chi(lat)


def test_integer_euler_product_matches_fraction_route():
    # identical SymbolicReal parts, or the same refusal (negative det at even
    # rank), on the oracle, signature-(2, n) and default catalog lattices
    from hmvol import volumes
    from hmvol.density import bad_primes, density_from_decomposition

    compared = 0
    for label, lat in integer_route_corpus():
        densities = [density_from_decomposition(jordan_decompose(lat, p)) for p in bad_primes(lat)]
        try:
            old = fraction_euler_product(lat, densities)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                volumes._euler_product(lat, densities)
            continue
        new = volumes._euler_product(lat, densities)
        assert (new.coefficient, new.pi_half_exponent, new.radicand) == (
            old.coefficient, old.pi_half_exponent, old.radicand), label
        compared += 1
    assert compared > 60
