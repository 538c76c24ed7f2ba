import gc
import importlib.util
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmvol.arith import factorize, is_prime, kronecker
from hmvol.density import density_from_decomposition, finite_isometry_order
from hmvol.errors import InternalCheckError, PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.families import k_lattice, l_lattice, n_lattice, t_lattice, unimodular_ii
from hmvol.jordan import jordan_decompose
from hmvol.lattices import direct_sum, from_gram, rank_one
from hmvol.volumes import build_report

from chain_oracle import FiniteQuadraticForm, chain_count, two_part
from conftest import SIGNATURE_2N_EXPRESSIONS, isometry_order, num_prime_divisors, part_order
from discform_readers import b_of, element_order, elements, q_of


def _form(orders, q_values, bilinear) -> FiniteQuadraticForm:
    """The integer tables of (A, q) on generators of the given orders, from
    q(g_i) in Q/2Z and b(g_i, g_j) in Q/Z as `Fraction`s: n q mod 2n and
    n b mod n at the exponent n."""
    n = lcm(*orders)

    def scaled(value: Fraction, modulus: int) -> int:
        assert (value * n).denominator == 1, "values must lie in (1/n)Z"
        return int(value * n) % modulus

    return FiniteQuadraticForm(
        tuple(orders),
        tuple(scaled(v, 2 * n) for v in q_values),
        tuple(tuple(scaled(v, n) for v in row) for row in bilinear),
    )


def _unit(k: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(k))


def _program_two_part(lat) -> FiniteQuadraticForm:
    """(A_2, q_2) as the chain oracle builds it, from the invariants of the
    2-adic Jordan blocks of level >= 1."""
    return two_part([b for b in jordan_decompose(lat, 2).blocks if b.level])


def _index_and_minus_id(lat, tag: str) -> tuple[int, bool]:
    """([PO(L) : P Gamma_tag], whether -id lies in Gamma_tag), read off the
    one-tag report: its index and its "-id lies in the group" note."""
    rep = build_report(lat, (tag,))
    minus_id = any(line.startswith(f"{tag}: -id lies in the group") for line in rep.assumptions)
    return rep.indices[tag], minus_id


def discriminant_form(lat) -> dict[int, FiniteQuadraticForm]:
    """(A_L, q_L) of an even lattice as its p-parts {p: (A_p, q_p)}, p | det
    in increasing p: the 2-part built from the 2-adic block invariants, the
    odd parts from the Smith-form reference."""
    parts = dict(_p_parts(_smith_discriminant_form(lat)))
    if 2 in parts:
        parts[2] = _program_two_part(lat)
    return parts


def test_factorize_and_rho():
    assert factorize(1) == {}
    assert list(factorize(12).items()) == [(2, 2), (3, 1)]
    assert factorize(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}
    assert factorize(2**10) == {2: 10}
    assert num_prime_divisors(1) == 0
    assert num_prime_divisors(12) == 2
    assert num_prime_divisors(30) == 3


def test_factorize_large_semiprime():
    n = 1000003 * 998117
    assert list(factorize(n).items()) == [(998117, 1), (1000003, 1)]


def test_discriminant_form_trivial_for_unimodular():
    parts = discriminant_form(unimodular_ii(1))
    assert parts == {}
    assert isometry_order(unimodular_ii(1)) == 1


def test_discriminant_form_rank_one():
    # <-2d>: cyclic of order 2d with q(g) = -1/2d mod 2Z, given by its
    # p-parts in increasing p; the p-part of order p^e is generated by c*g
    # with c = 2d/p^e, so its q-value is c^2 * (-1/2d)
    for d in (1, 3, 6):
        parts = discriminant_form(rank_one(-2 * d))
        prime_powers = sorted(factorize(2 * d).items())
        assert list(parts) == [p for p, _ in prime_powers]
        for p, e in prime_powers:
            c = 2 * d // p**e
            assert parts[p].orders == (p**e,)
            assert q_of(parts[p], (1,)) == Fraction(-c * c, 2 * d) % 2


def test_discriminant_form_n_binary():
    # [2,1;1,(1-d)/2] has cyclic discriminant group of order d (the
    # determinant is -d), not 2d
    for d in (5, 13, 29):
        binary = from_gram([[2, 1], [1, (1 - d) // 2]])
        parts = discriminant_form(binary)
        assert {p: part.orders for p, part in parts.items()} == {d: (d,)}


def test_discriminant_form_rejects_odd_lattice():
    # the stable-group route is the one reader of the discriminant form
    lat = lattice_from_text("U + <1> + <-2>")
    for tag in ("O~+", "SO~+"):
        with pytest.raises(PreconditionError, match="even"):
            build_report(lat, (tag,))


def test_group_order_matches_det():
    for text in ("U(2)", "<-2> + <4>", "2*U + <-24>", "U + <2> + <-8>"):
        lat = lattice_from_text(text)
        assert prod(part.order for part in discriminant_form(lat).values()) == abs(lat.det)


def test_quadratic_identity_on_generators():
    # q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2Z
    for text in ("<-6> + <2>", "U(2)", "U(2) + <-4>", "gram[2,1;1,-4]"):
        for form in discriminant_form(lattice_from_text(text)).values():
            elems = list(elements(form))
            for x in elems[: min(len(elems), 12)]:
                for y in elems[: min(len(elems), 12)]:
                    xy = tuple((a + b) % d for a, b, d in zip(x, y, form.orders))
                    lhs = (q_of(form, xy) - q_of(form, x) - q_of(form, y)) % 2
                    assert lhs == (2 * b_of(form, x, y)) % 2


def test_isometry_order_rank_one_sweep():
    # |O(q)| = 2^rho(d) for <-2d>
    for d in range(1, 31):
        assert isometry_order(rank_one(-2 * d)) == 2 ** num_prime_divisors(d), d


def test_isometry_order_split_binary_examples():
    # <2> + <-2d>: 2^(1+rho(d)) when d = 3 mod 4 or 8 | d, else 2^rho(d)
    assert isometry_order(direct_sum(rank_one(2), rank_one(-6))) == 4
    assert isometry_order(direct_sum(rank_one(2), rank_one(-10))) == 2


def test_unit_square_count_mod_4d():
    # #{x mod 4d : x^2 = 1 mod 4d} = 2^(rho(d)+1)
    for d in range(1, 51):
        count = sum(1 for x in range(4 * d) if (x * x - 1) % (4 * d) == 0)
        assert count == 2 ** (num_prime_divisors(d) + 1), d


def test_minus_id_criterion():
    # -id lies in the stable group iff A_L has exponent <= 2
    def two_elementary(lat):
        return _index_and_minus_id(lat, "O~+")[1]

    assert two_elementary(l_lattice(0, 1))  # A = Z/2
    assert not two_elementary(l_lattice(0, 3))  # A = Z/6
    assert two_elementary(unimodular_ii(1))  # trivial group
    assert two_elementary(t_lattice(1))  # A = (Z/2)^2
    # A = Z/4 is a 2-group but has exponent 4, so -id acts nontrivially;
    # the L-family volume fixtures at d = 2 force this reading
    assert not two_elementary(l_lattice(0, 2))


def projective_index(lattice, tag: str) -> int:
    """[PO(L) : P Gamma_tag], read off the one-tag report."""
    return build_report(lattice, (tag,)).indices[tag]


def test_projective_index_l_family():
    for d in (2, 3, 5, 6, 12):
        assert projective_index(l_lattice(0, d), "O~+") == 2 ** num_prime_divisors(d), d
    assert projective_index(l_lattice(0, 1), "O~+") == 2
    assert projective_index(l_lattice(2, 1), "O~+") == 2


def test_projective_index_k_family():
    # 2 if d = 1; 2^rho(d) if d = 1, 2 mod 4 (d > 1); 2^(rho(d)+1) if d = 3 mod 4
    assert projective_index(k_lattice(0, 1), "O~+") == 2
    assert projective_index(k_lattice(0, 2), "O~+") == 2
    assert projective_index(k_lattice(0, 5), "O~+") == 2
    assert projective_index(k_lattice(0, 3), "O~+") == 4
    assert projective_index(k_lattice(0, 7), "O~+") == 4
    assert projective_index(k_lattice(1, 6), "O~+") == 4  # rho(6) = 2


def test_projective_index_n_family():
    assert projective_index(n_lattice(0, 1), "O~+") == 2
    assert projective_index(n_lattice(0, 5), "O~+") == 2
    assert projective_index(n_lattice(0, 13), "O~+") == 2
    assert projective_index(n_lattice(0, 45), "O~+") == 4  # rho(45) = 2


def test_projective_index_simple_tags():
    lat = l_lattice(0, 3)
    assert projective_index(lat, "O") == 1
    assert projective_index(lat, "O+") == 2
    assert projective_index(lat, "SO+") == 2  # rank 5 is odd
    assert projective_index(unimodular_ii(1), "SO+") == 4  # rank 12 is even


def test_projective_index_hypotheses():
    # no hyperbolic-plane summand detected: stable tags are refused
    plain = lattice_from_text("gram[0,1;1,0] + gram[0,1;1,0] + <-2>")
    with pytest.raises(PreconditionError, match="hyperbolic"):
        projective_index(plain, "O~+")
    # odd lattice: stable tags need the discriminant form
    odd = lattice_from_text("U + U + <-1>")
    with pytest.raises(PreconditionError, match="even"):
        projective_index(odd, "O~+")


def test_t_lattice_stable_index():
    # |O(q)| = 2 and A is 2-elementary, so [PO : PO~+] = 2N = 4
    lat = t_lattice(1)
    assert isometry_order(lat) == 2
    assert projective_index(lat, "O~+") == 4


def _brute_force_isometry_order(form) -> int:
    """|O(A, q)| with no pruning: every tuple of generator images defines a
    homomorphism when image i has order dividing d_i; count those that are
    bijective on A and preserve q on every element."""
    elems = list(elements(form))
    k = len(form.orders)
    count = 0
    for images in itertools.product(elems, repeat=k):
        if any(form.orders[i] % element_order(form, images[i]) for i in range(k)):
            continue
        mapped = {
            x: tuple(
                sum(x[i] * images[i][c] for i in range(k)) % form.orders[c] for c in range(k)
            )
            for x in elems
        }
        if len(set(mapped.values())) != len(elems):
            continue
        if all(q_of(form, mapped[x]) == q_of(form, x) for x in elems):
            count += 1
    return count


BRUTE_FORCE_TEXTS = (
    "U + U(2)", "U + U(3)", "U + U(4)", "2*U + 2*<-2>", "2*U + 3*<-2>", "2*U + 2*<-4>",
)
BRUTE_FORCE_MULTI_PRIME_TEXTS = ("2*U + <-2> + <-6>", "U + U(3) + <-2>", "2*U + <-4> + <-6>")


def test_isometry_order_matches_brute_force():
    # this reference counts bijective q-preserving maps directly, on each
    # p-part (against the program's route and the stabilizer chain) and on
    # the unsplit Smith-form reference of the whole group
    texts = list(BRUTE_FORCE_TEXTS)
    lattices = [lattice_from_text(t) for t in texts] + [l_lattice(0, d) for d in range(1, 9)]
    for text, lat in zip(texts + [f"L(0,{d})" for d in range(1, 9)], lattices):
        parts = discriminant_form(lat)
        assert sum(len(part.orders) for part in parts.values()) <= 3, text
        assert abs(lat.det) <= 16, text
        for p, part in parts.items():
            expected = _brute_force_isometry_order(part)
            assert chain_count(part) == expected, (text, p)
            assert part_order(jordan_decompose(lat, p)) == expected, (text, p)
        assert isometry_order(lat) == _brute_force_isometry_order(
            _smith_discriminant_form(lat)), text
    # several primes over several generators: the product over p-parts
    # against the unsplit reference
    for text in BRUTE_FORCE_MULTI_PRIME_TEXTS:
        lat = lattice_from_text(text)
        parts = discriminant_form(lat)
        assert sum(len(part.orders) for part in parts.values()) >= 2 and len(parts) >= 2, text
        assert abs(lat.det) <= 24, text
        assert isometry_order(lat) == _brute_force_isometry_order(
            _smith_discriminant_form(lat)), text


def _count_isometries(form: FiniteQuadraticForm) -> int:
    """|O(A, q)| by brute-force enumeration of generator images.

    Candidates are pruned by element order and q-value, then by bilinear
    compatibility with previously chosen images.  Every complete assignment
    is an automorphism: it preserves the nondegenerate b, so its kernel lies
    in the radical of b and is zero, and an injective endomorphism of a
    finite group is bijective.
    """
    if form.is_trivial:
        return 1
    k = len(form.orders)
    units = [_unit(k, i) for i in range(k)]
    buckets: dict[tuple[int, Fraction], list[tuple[int, ...]]] = {}
    for x in elements(form):
        buckets.setdefault((element_order(form, x), q_of(form, x)), []).append(x)
    candidates = [buckets.get((form.orders[i], q_of(form, units[i])), []) for i in range(k)]

    chosen: list[tuple[int, ...]] = []

    def extend(i: int) -> int:
        if i == k:
            return 1
        count = 0
        for cand in candidates[i]:
            if all(b_of(form, cand, chosen[j]) == b_of(form, units[i], units[j]) for j in range(i)):
                chosen.append(cand)
                count += extend(i + 1)
                chosen.pop()
        return count

    return extend(0)


def test_isometry_order_is_product_over_p_parts():
    # the enumerator above is the reference: the product over p-parts
    # equals it on the unsplit Smith-form reference of the whole group, and
    # on every p-part with |A_p| <= 10^4 of the corpora the stabilizer-chain
    # count and the program's route (read off the density) equal it
    unsplit = {}
    for text in SIGNATURE_2N_EXPRESSIONS:
        lat = lattice_from_text(text)
        if lat.is_even and lat.has_hyperbolic_summand and abs(lat.det) <= 10**4:
            unsplit[text] = lat
    for d in range(1, 201):
        unsplit[f"L(0,{d})"] = l_lattice(0, d)
    assert len(unsplit) > 200
    for name, lat in unsplit.items():
        assert isometry_order(lat) == _count_isometries(_smith_discriminant_form(lat)), name
    lattices = dict(unsplit)
    texts = BRUTE_FORCE_TEXTS + BRUTE_FORCE_MULTI_PRIME_TEXTS
    texts += tuple(f"2*U + {n}*<-2>" for n in range(1, 6))
    for text in texts:
        lattices[text] = lattice_from_text(text)
    for d in range(1, 201):
        lattices[f"K(0,{d})"] = k_lattice(0, d)
        if d % 4 == 1:
            lattices[f"N(0,{d})"] = n_lattice(0, d)
    counted = odd = 0
    for name, lat in lattices.items():
        for p, part in discriminant_form(lat).items():
            if part.order <= 10**4:
                expected = _count_isometries(part)
                assert chain_count(part) == expected, (name, p)
                assert part_order(jordan_decompose(lat, p)) == expected, (name, p)
                counted += 1
                odd += p != 2
    assert counted > 900 and odd > 400


def _odd_structure_text(p: int, rng: random.Random) -> tuple[str, tuple]:
    """A lattice U + sum of <-2 u p^k> with Jordan blocks at odd p of levels
    drawn from 1..3 and ranks 1..3, random units u; returns its text and the
    structure ((level, rank, chi), ...) it has at p."""
    levels = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
    atoms, structure = [], []
    for k in levels:
        units = [rng.randrange(1, p) for _ in range(rng.randint(1, 3))]
        atoms += [f"<{-2 * u * p**k}>" for u in units]
        n = len(units)
        chi = 0 if n % 2 else kronecker((-1) ** (n // 2) * prod(-2 * u for u in units), p)
        structure.append((k, n, chi))
    return "U + " + " + ".join(atoms), tuple(structure)


def test_odd_closed_form_matches_chain_on_generated_structures():
    # a seeded generator of multi-level odd parts (p <= 11, levels 1-3,
    # ranks 1-3, both signs at even rank): |O(q_p)| read off the density
    # equals the stabilizer chain on the part built from the Jordan blocks,
    # and the enumerator where its dead branches stay small
    rng = random.Random(23)
    seen, enumerated, drawn = set(), 0, 0
    while drawn < 300:
        p = rng.choice((3, 5, 7, 11))
        text, structure = _odd_structure_text(p, rng)
        if p ** sum(k * n for k, n, _ in structure) > 10**4:
            continue
        drawn += 1
        lat = lattice_from_text(text)
        decomp = jordan_decompose(lat, p)
        assert tuple((b.level, b.rank, b.chi) for b in decomp.blocks if b.level) == structure
        part = discriminant_form(lat)[p]
        expected = chain_count(part)
        assert part_order(decomp) == expected, text
        if part.order ** (len(part.orders) - 1) <= 2 * 10**4:
            assert _count_isometries(part) == expected, text
            enumerated += 1
        seen.add((p, structure))
    # 71 of the 84 structures with |A_p| <= 10^4
    assert len(seen) > 60 and enumerated > 40
    assert {chi for s in seen for _, _, chi in s[1]} == {-1, 0, 1}
    assert {len(s[1]) for s in seen} == {1, 2, 3}


def test_odd_cyclic_part_has_two_isometries():
    # a cyclic part at odd p has the isometries +-1, by the stabilizer chain
    # and by the density: Z/p^k with q(g) = 2u/p^k for a square and a
    # non-square unit u, which the Jordan blocks of <2u p^k> give
    for p in filter(is_prime, range(3, 2000)):
        non_square = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        pk = p
        while pk <= 2000:
            for u in (1, non_square):
                q = Fraction(2 * u, pk)
                form = _form((pk,), (q % 2,), ((q % 1,),))
                assert chain_count(form) == 2, (pk, u)
                decomp = jordan_decompose(rank_one(2 * u * pk), p)
                assert part_order(decomp) == 2, (pk, u)
            pk *= p


def test_cyclic_two_part_rule_matches_chain():
    # Z/2^k with q(g) = u/2^k, u odd: 1 isometry at k = 1, else 2 (x -> a x
    # with a = +-1 mod 2^k), by the stabilizer chain and the density, for
    # every odd u mod 2^(k+1) up to k = 7 and every odd u mod 16 beyond,
    # and through the Jordan blocks of <u 2^k>
    for k in range(1, 14):
        expected = 1 if k == 1 else 2
        for u in range(1, 2 ** (k + 1) if k <= 7 else 16, 2):
            q = Fraction(u, 2**k)
            form = _form((2**k,), (q % 2,), ((q % 1,),))
            assert chain_count(form) == expected, (k, u)
            decomp = jordan_decompose(rank_one(u * 2**k), 2)
            assert part_order(decomp) == expected, (k, u)


def test_isometry_order_anchors():
    # 2U + n<-2>: A = (Z/2)^n with q = -1/2 on each generator
    for n, expected in zip(range(1, 7), (1, 2, 6, 24, 120, 1440)):
        assert isometry_order(lattice_from_text(f"2*U + {n}*<-2>")) == expected, n
    # even-type 2-elementary forms: |O+_{2m}(2)| = 2 * 2^(m(m-1)) (2^m - 1)
    # prod_{i<m} (4^i - 1); E8(-2) gives m = 4, the Enriques lattice
    # U + U(2) + E8(-2) gives m = 5
    lat = lattice_from_text("2*U + E8(-2)")
    parts = discriminant_form(lat)
    assert list(parts) == [2] and parts[2].orders == (2,) * 8
    assert isometry_order(lat) == 348_364_800
    lat = lattice_from_text("U + U(2) + E8(-2)")
    parts = discriminant_form(lat)
    assert list(parts) == [2] and parts[2].orders == (2,) * 10
    assert isometry_order(lat) == 46_998_591_897_600
    # each in well under a second: 2*E8(-2) gives m = 8 (2^16 elements);
    # beside the odd type <2>, the characteristic element c (b(x, c) = q(x)
    # mod 1) is the odd unit's generator, fixed by every isometry, and
    # q(c) = 1/2 makes <c> an orthogonal summand, so |O(q)| is that of its
    # complement, E8(-2) (m = 4) or U(2) + E8(-2) (m = 5)
    for text, m in (("2*U + 2*E8(-2)", 8), ("U + <2> + E8(-2)", 4),
                    ("2*U + <2> + E8(-2)", 4), ("U + U(2) + <2> + E8(-2)", 5)):
        start = time.perf_counter()
        order = isometry_order(lattice_from_text(text))
        assert time.perf_counter() - start < 1, text
        o_plus = 2 * 2 ** (m * (m - 1)) * (2**m - 1) * prod(4**i - 1 for i in range(1, m))
        assert order == o_plus, text


def _random_basis(form: FiniteQuadraticForm, rng: random.Random) -> FiniteQuadraticForm:
    """(A, q) on new generators h_i = sum_j M_ij g_j, M invertible mod m,
    for A = (Z/m)^k: the cross terms b(h_i, h_j) are generally all nonzero,
    unlike on Jordan generators."""
    m, k = form.orders[0], len(form.orders)
    while True:
        rows = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(k)]
        # invertible iff the rows generate A: k-fold sums reach every element
        span = {tuple([0] * k)}
        for r in rows:
            span = {tuple((a + t * c) % m for a, c in zip(x, r)) for x in span for t in range(m)}
        if len(span) == form.order:
            break
    return _form(
        form.orders,
        [q_of(form, r) for r in rows],
        [[b_of(form, r, c) for c in rows] for r in rows],
    )


def test_isometry_order_is_basis_invariant():
    # |O(q)| depends on (A, q) only: random generating sets of homogeneous
    # groups (Z/m)^k give the same count as the Jordan generators
    rng = random.Random(6)
    for text in ("2*U + 4*<-2>", "U + U(2) + 2*<-2>", "2*U + E8(-2)", "U + U(4) + 2*<-4>",
                 "U + U(3) + <-6> + <-2>", "U + U(5) + gram[-2,1;1,-2]"):
        for p, part in discriminant_form(lattice_from_text(text)).items():
            if len(set(part.orders)) != 1 or len(part.orders) < 2:
                continue
            expected = chain_count(part)
            for _ in range(3):
                moved = _random_basis(part, rng)
                assert chain_count(moved) == expected, (text, p, moved)
                if part.order <= 81:
                    assert _count_isometries(moved) == expected, (text, p)


def _congruent_gram(gram, rng: random.Random, steps: int) -> list[list[int]]:
    """E G E^t for a seeded product E of `steps` elementary matrices of
    GL_n(Z): each adds +-1 times row and column j to row and column i."""
    g = [list(row) for row in gram]
    for _ in range(steps):
        i, j = rng.sample(range(len(g)), 2)
        c = rng.choice((-1, 1))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return g


def test_two_part_depends_only_on_block_invariants():
    # a Gram literal congruent to a sum over Z is split along another
    # basis, but where its 2-adic blocks have the sum's invariants, the
    # 2-part built from them has the same tables, so the same |O(q_2)|
    for text, expected in (("2*U + <-2> + E8(-2)", 348_364_800),
                           ("U + U(2) + E8(-2)", 46_998_591_897_600)):
        lat = lattice_from_text(text)
        blocks = jordan_decompose(lat, 2).blocks
        form = _program_two_part(lat)
        for seed in range(4):
            literal = from_gram(_congruent_gram(lat.gram, random.Random(seed), 30))
            assert literal.det == lat.det and literal.gram != lat.gram, (text, seed)
            assert jordan_decompose(literal, 2).blocks == blocks, (text, seed)
            assert _program_two_part(literal) == form, (text, seed)
            assert isometry_order(literal) == isometry_order(lat) == expected, (text, seed)


def test_sign_walked_invariants_give_the_same_isometry_order():
    # 2-adic block invariants are not unique: this literal congruent to
    # 2*U + <-4> + E8(-2) splits as (level 1, chi = -1) + <3 * 4>, the sum as
    # (level 1, chi = +1) + <7 * 4>; the two 2-parts are isometric, so
    # |O(q_2)| agrees
    lat = lattice_from_text("2*U + <-4> + E8(-2)")
    literal = from_gram(_congruent_gram(lat.gram, random.Random(4), 30))
    invariants = [[(b.level, b.rank, b.chi, b.odd_units) for b in jordan_decompose(x, 2).blocks]
                  for x in (lat, literal)]
    assert invariants == [[(0, 4, 1, ()), (1, 8, 1, ()), (2, 1, 1, (7,))],
                          [(0, 4, 1, ()), (1, 8, -1, ()), (2, 1, 1, (3,))]]
    assert isometry_order(literal) == isometry_order(lat) == 94_755_225_600
    ref = dict(_p_parts(_smith_discriminant_form(literal)))[2]
    assert _order_and_q_multiset(_program_two_part(literal)) == _order_and_q_multiset(ref)


def test_isometry_count_leaves_no_reference_cycles():
    lat = lattice_from_text("U + U(2) + 3*<-2>")
    parts = discriminant_form(lat)
    assert list(parts) == [2] and parts[2].orders == (2,) * 5
    decomp = jordan_decompose(lat, 2)
    parts = [(decomp, density_from_decomposition(decomp))]
    gc.collect()
    gc.disable()
    try:
        assert finite_isometry_order(parts) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _block_text(kind: int, a: int, b: int, c: int) -> str:
    if kind == 0:
        return f"U({a})"
    if kind == 1:
        return f"<{-2 * a}>"
    return f"gram[{-2 * a},{b};{b},{-2 * c}]"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 8), st.integers(-3, 3),
                          st.integers(1, 8)), min_size=1, max_size=4))
def test_chain_count_matches_enumerator_on_random_sums(blocks):
    assume(all(kind < 2 or 4 * a * c != b * b for kind, a, b, c in blocks))
    lat = lattice_from_text(" + ".join(["U"] + [_block_text(*blk) for blk in blocks]))
    parts = discriminant_form(lat)
    # the enumerator's dead branches grow like |A_p|^(generators - 1)
    assume(abs(lat.det) <= 2000)
    assume(all(part.order ** (len(part.orders) - 1) <= 2 * 10**4 for part in parts.values()))
    expected = 1
    for part in parts.values():
        expected *= _count_isometries(part)
    assert isometry_order(lat) == expected


def _benchmark_pool_lattices() -> dict:
    """Every lattice the four benchmark workloads build, keyed by op text:
    the analyze and oracle expressions, and the catalog family members."""
    spec = importlib.util.spec_from_file_location(
        "hmbench_workloads", Path(__file__).parents[1] / "hmbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    builders = {"II": unimodular_ii, "T": t_lattice, "L": l_lattice, "K": k_lattice, "N": n_lattice}
    lattices = {}
    for workload in workloads.WORKLOADS:
        for pool in workloads.pools(workload).values():
            for op in pool:
                if op["argv"][0] == "catalog":
                    name, m, d = op["fam"]
                    key = f"{name}({m},{d})"
                    if key not in lattices:
                        lattices[key] = builders[name](m) if d is None else builders[name](m, d)
                elif op["argv"][1] not in lattices:
                    lattices[op["argv"][1]] = lattice_from_text(op["argv"][1])
    return lattices


def _seeded_two_adic_text(rng: random.Random) -> tuple[str, int]:
    """An even lattice whose 2-adic blocks of level >= 1 (levels 1-4) are
    drawn as U(2^l), V(2^l) = gram[2s,s;s,2s] and <u 2^l> with u odd, under
    a level 0 of none, U, 2*U, U + E8(-1) or gram[2,1;1,2]; returns its text
    and |A_2|."""
    atoms, order = [], 1
    for _ in range(rng.randint(2, 4)):
        s = 2 ** rng.randint(1, 4)
        kind = rng.randrange(3)
        if kind == 2:
            atoms.append(f"<{rng.choice((1, 3, 5, 7, -1, -3, -5, -7)) * s}>")
            order *= s
        else:
            atoms.append(f"U({s})" if kind == 0 else f"gram[{2 * s},{s};{s},{2 * s}]")
            order *= s * s
    top = rng.choice(("", "U + ", "2*U + ", "U + E8(-1) + ", "gram[2,1;1,2] + "))
    return top + " + ".join(atoms), order


def test_isometry_order_matches_the_chain_oracle():
    # |O(q_p)| read off the density equals the stabilizer-chain count on the
    # part built from the block invariants: on every non-cyclic 2-part the
    # benchmark pools reach, on seeded 2-adic structures with odd units and
    # levels 1-4, and at odd p on seeded multi-level parts, where the
    # brute-force enumerator confirms the chain
    chains: dict = {}

    def chain_of(blocks) -> int:
        if blocks not in chains:
            chains[blocks] = chain_count(two_part(list(blocks)))
        return chains[blocks]

    pooled = 0
    for name, lat in _benchmark_pool_lattices().items():
        if not lat.is_even or 2 not in lat.det_factors:
            continue
        decomp = jordan_decompose(lat, 2)
        blocks = tuple(b for b in decomp.blocks if b.level)
        if sum(b.rank for b in blocks) >= 2:
            assert part_order(decomp) == chain_of(blocks), name
            pooled += 1
    assert pooled > 2000 and len(chains) > 250
    # |A_2| <= 256 keeps the chain fast: it has cliffs of its own, such as
    # Z/2 + (Z/4)^4 from <2> + U(4) + gram[8,4;4,8] at about 7 s
    rng = random.Random(25)
    seeded, kinds = set(), set()
    while len(seeded) < 500:
        text, order = _seeded_two_adic_text(rng)
        if order > 256:
            continue
        decomp = jordan_decompose(lattice_from_text(text), 2)
        blocks = tuple(b for b in decomp.blocks if b.level)
        assert part_order(decomp) == chain_of(blocks), text
        seeded.add(decomp)
        kinds |= {(b.level, len(b.odd_units), b.chi) for b in blocks}
    assert {level for level, _, _ in kinds} == {1, 2, 3, 4}
    assert {(units, chi) for _, units, chi in kinds} >= {(0, -1), (1, 1), (1, -1), (2, 1), (2, -1)}
    enumerated = 0
    while enumerated < 40:
        p = rng.choice((3, 5, 7))
        text, structure = _odd_structure_text(p, rng)
        if p ** sum(k * n for k, n, _ in structure) > 2000:
            continue
        lat = lattice_from_text(text)
        part = discriminant_form(lat)[p]
        if part.order ** (len(part.orders) - 1) > 2 * 10**4:
            continue
        expected = _count_isometries(part)
        assert part_order(jordan_decompose(lat, p)) == expected == chain_count(part), text
        enumerated += 1


def test_isometry_order_is_blind_to_the_unimodular_block():
    # q_p depends only on the blocks of level >= 1: equal such blocks under
    # a level 0 of U, 2*U, U + E8(-1) or gram[2,1;1,2] give equal |O(q_p)|
    # (gram[2,1;1,2] has det 3, so at p = 3 it adds a block of level 1)
    tops = ("U", "2*U", "U + E8(-1)", "gram[2,1;1,2]")
    tails = ("U(2) + <-2>", "E8(-2)", "<-2> + <-4> + <-8>", "U(4) + gram[-4,2;2,-4]",
             "U(3) + <-6>", "2*<-14> + <-98>", "gram[8,4;4,8] + <-6> + U(5)")
    for tail in tails:
        orders: dict = {}  # (p, blocks of level >= 1) -> {top: |O(q_p)|}
        for top in tops:
            lat = lattice_from_text(f"{top} + {tail}")
            for p in lat.det_factors:
                decomp = jordan_decompose(lat, p)
                key = (p, tuple(b for b in decomp.blocks if b.level))
                orders.setdefault(key, {})[top] = part_order(decomp)
        for (p, _), by_top in orders.items():
            assert len(set(by_top.values())) == 1, (tail, p, by_top)
            assert len(by_top) >= 3 or (p == 3 and set(by_top) == {"gram[2,1;1,2]"}), (tail, p)


def test_isometry_order_refuses_an_odd_lattice():
    # an odd unimodular 2-adic block means an odd lattice, which has no
    # discriminant form: a direct caller gets a precondition error
    for text in ("U + <1> + <-2>", "U + <1> + <1> + <-4>"):
        with pytest.raises(PreconditionError, match="even lattice"):
            part_order(jordan_decompose(lattice_from_text(text), 2))


def test_isometry_order_checks_each_part_is_a_positive_integer():
    # a density that does not belong to the decomposition makes a p-part
    # that is no positive integer, which is an internal check failure
    for text, p in (("2*U + E8(-2)", 2), ("2*U + 2*<-14> + 2*<-98>", 7)):
        decomp = jordan_decompose(lattice_from_text(text), p)
        density = density_from_decomposition(decomp)
        assert part_order(decomp) > 1
        for value in (density.value / 11, -density.value):
            wrong = density._replace(value=value)
            with pytest.raises(InternalCheckError, match=rf"\|O\(q_{p}\)\|"):
                finite_isometry_order([(decomp, wrong)])


def test_large_parts_match_the_chain():
    # no size of A_p costs more than the density: cyclic parts of any size,
    # the odd parts of order 7^6 and 5^8 and the non-cyclic 2-part
    # Z/2 + Z/2^17, against the chain oracle where it is counted
    assert isometry_order(l_lattice(0, 1000003)) == 2
    assert isometry_order(lattice_from_text("2*U + <-131072>")) == 2
    for text, p in (("2*U + 2*<-14> + 2*<-98>", 7), ("2*U + 2*<-10> + 3*<-50>", 5),
                    ("2*U + <-2> + <-131072>", 2)):
        lat = lattice_from_text(text)
        part = discriminant_form(lat)[p]
        assert part.order > 10**5, text
        assert part_order(jordan_decompose(lat, p)) == chain_count(part), text
    assert isometry_order(lattice_from_text("2*U + <-2> + <-131072>")) == 4


def test_index_and_minus_id_table():
    # rank 5, A = Z/2: -id is in every group but SO+ and SO~+ (odd rank)
    lat = l_lattice(0, 1)
    assert isometry_order(lat) == 1
    got = {tag: _index_and_minus_id(lat, tag) for tag in ("O", "O+", "SO+", "O~+", "SO~+")}
    assert got == {"O": (1, True), "O+": (2, True), "SO+": (2, False),
                   "O~+": (2, True), "SO~+": (2, False)}
    # rank 5, A = Z/6: -id acts nontrivially on A
    lat3 = l_lattice(0, 3)
    assert isometry_order(lat3) == 2
    assert _index_and_minus_id(lat3, "O~+") == (2, False)
    # the full group needs no signature: index 1 on any lattice
    assert projective_index(lattice_from_text("U + <-2>"), "O") == 1
    with pytest.raises(PreconditionError, match="signature"):
        projective_index(lattice_from_text("U + <-2>"), "O+")


# ------------------------------------------- Smith-form reference construction


def _smith_normal_form(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form with right transform: returns (diag, V) with
    U M V = diag(d_1 | d_2 | ...) for some unimodular U; only V is tracked."""
    n = len(mat)
    m = [row[:] for row in mat]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(j, k, f):  # C_j -= f * C_k
        for row in m:
            row[j] -= f * row[k]
        for row in v:
            row[j] -= f * row[k]

    def col_swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def row_op(i, k, f):  # R_i -= f * R_k
        for j in range(n):
            m[i][j] -= f * m[k][j]

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]

    for t in range(n):
        while True:
            # move a minimal nonzero entry of the trailing block to (t, t)
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            assert best is not None, "matrix is singular"
            bi, bj = best
            if bi != t:
                row_swap(bi, t)
            if bj != t:
                col_swap(bj, t)
            dirty = False
            for i in range(t + 1, n):
                f = m[i][t] // m[t][t]
                if f:
                    row_op(i, t, f)
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                f = m[t][j] // m[t][t]
                if f:
                    col_op(j, t, f)
                if m[t][j]:
                    dirty = True
            if dirty:
                continue
            # enforce divisibility d_t | trailing entries
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % m[t][t]:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            col_op(t, offender[1], -1)  # mixes the offending column into column t
    diag = [abs(m[i][i]) for i in range(n)]
    return diag, v


def _smith_values(lattice) -> tuple[list[int], list[Fraction], list[list[Fraction]]]:
    """(orders, q(g_i), b(g_i, g_j)) in `Fraction`s on the invariant-factor
    generators g_i = (V e_i) / d_i from the Smith normal form of the Gram
    matrix, q and b from the dual pairing: a route through the global Gram
    matrix, independent of the Jordan blocks."""
    diag, v = _smith_normal_form([list(r) for r in lattice.gram])
    n = lattice.rank
    keep = [i for i in range(n) if diag[i] > 1]
    q_vals = []
    bil = [[Fraction(0)] * len(keep) for _ in keep]
    for a, i in enumerate(keep):
        vi = [v[r][i] for r in range(n)]
        gvi = [sum(lattice.gram[r][c] * vi[c] for c in range(n)) for r in range(n)]
        for b, j in enumerate(keep):
            vj = [v[r][j] for r in range(n)]
            pairing = Fraction(sum(gvi[r] * vj[r] for r in range(n)), diag[i] * diag[j])
            bil[a][b] = pairing % 1
            if a == b:
                q_vals.append(pairing % 2)
    return [diag[i] for i in keep], q_vals, bil


def _smith_discriminant_form(lattice) -> FiniteQuadraticForm:
    """(A_L, q_L) as one form on the invariant-factor generators, whose
    orders, such as 6 or 60, are not prime powers; `_p_parts` splits it."""
    return _form(*_smith_values(lattice))


def _p_parts(form: FiniteQuadraticForm) -> list[tuple[int, FiniteQuadraticForm]]:
    """The p-primary parts (p, (A_p, q_p)) of (A, q), in increasing p.

    A generator g of order d gives the generator c*g of A_p, of order
    p^e = p^(v_p(d)) with c = d / p^e; q and b scale by c^2 and c*c'.  At the
    part's exponent n_p the tables are (c^2 q mod 2n) / (n / n_p) and
    (c c' b mod n) / (n / n_p): c*g has order p^e, so n q(c*g) and
    n b(c*g, c'*g') are multiples of n / p^e, and the division is exact."""
    n = form.exponent
    factored = [factorize(d) for d in form.orders]
    parts = []
    for p in sorted({p for f in factored for p in f}):
        gens = sorted(  # (p^e, c, index of g)
            (p ** f[p], d // p ** f[p], i)
            for i, (d, f) in enumerate(zip(form.orders, factored)) if p in f
        )
        unit = n // gens[-1][0]  # n / n_p
        parts.append((p, FiniteQuadraticForm(
            tuple(pe for pe, _, _ in gens),
            tuple(c * c * form.q[i] % (2 * n) // unit for _, c, i in gens),
            tuple(tuple(c * c2 * form.b[i][j] % n // unit for _, c2, j in gens) for _, c, i in gens),
        )))
    return parts


def _fractiontwo_part(blocks) -> tuple[list[int], list[Fraction], list[list[Fraction]]]:
    """(orders, q(g_i), b(g_i, g_j)) in `Fraction`s with no common scale,
    for the 2-adic Jordan blocks 2^l U, l >= 1: U is the block diagonal of
    its hyperbolic planes [0,1;1,0] (the last one [2,1;1,2] when chi = -1)
    and then its odd units <u>, and each row gives a generator of order 2^l
    with b = U_ij / 2^l mod 1 and q = U_ii / 2^l mod 2.  The reference for
    `two_part`'s integer tables."""
    orders: list[int] = []
    diagonal: list[tuple[int, int]] = []  # (2^l, U_ii)
    pairs: dict[tuple[int, int], Fraction] = {}
    for block in blocks:
        pl = 2**block.level
        planes = (block.rank - len(block.odd_units)) // 2
        for t in range(planes):
            i = len(orders)
            d = 2 if block.chi == -1 and t == planes - 1 else 0
            diagonal += [(pl, d), (pl, d)]
            pairs[i, i + 1] = pairs[i + 1, i] = Fraction(1, pl)
            orders += [pl, pl]
        for u in block.odd_units:
            diagonal.append((pl, u))
            orders.append(pl)
    k = len(orders)
    q_vals = [Fraction(d, pl) % 2 for pl, d in diagonal]
    bil = [[pairs.get((i, j), Fraction(0)) for j in range(k)] for i in range(k)]
    for i, (pl, d) in enumerate(diagonal):
        bil[i][i] = Fraction(d, pl) % 1
    return orders, q_vals, bil


def _order_and_q_multiset(form: FiniteQuadraticForm) -> Counter:
    return Counter((element_order(form, x), q_of(form, x)) for x in elements(form))


# 2-parts with chi = -1 beside 0, 1 or 2 odd units, and over three levels
TWO_ADIC_TEXTS = (
    "U + U(2) + gram[-4,2;2,-4]", "2*U + gram[-4,2;2,-4] + <-2>",
    "2*U + gram[-4,2;2,-4] + <-2> + <-6>", "U + U(2) + 3*<-2>",
    "2*U + <-2> + <-4> + <-8>", "U + U(2) + U(4) + <-8>",
)


def _smith_corpus() -> dict:
    corpus = {}
    texts = SIGNATURE_2N_EXPRESSIONS + BRUTE_FORCE_TEXTS + BRUTE_FORCE_MULTI_PRIME_TEXTS
    for text in texts + TWO_ADIC_TEXTS:
        lat = lattice_from_text(text)
        if lat.is_even:
            corpus[text] = lat
    for d in range(1, 61):
        corpus[f"K(0,{d})"] = k_lattice(0, d)
        corpus[f"L(0,{d})"] = l_lattice(0, d)
        if d % 4 == 1:
            corpus[f"N(0,{d})"] = n_lattice(0, d)
    return corpus


def test_jordan_form_matches_smith_reference():
    # the 2-part built from the 2-adic Jordan invariants and the 2-part of
    # the Smith-form construction describe the same (A_2, q_2): same order,
    # exponent test and |O(q_2)|, and on small groups the same (element
    # order, q) value distribution; at every p the program's |O(q_p)|, read
    # off the density, is the stabilizer chain on the reference part
    compared = 0
    for name, lat in _smith_corpus().items():
        ref = dict(_p_parts(_smith_discriminant_form(lat)))
        assert list(ref) == list(lat.det_factors), name
        assert prod(part.order for part in ref.values()) == abs(lat.det), name
        for p in ref:
            assert part_order(jordan_decompose(lat, p)) == chain_count(ref[p]), (name, p)
        if 2 not in ref:
            continue
        part = _program_two_part(lat)
        assert part.order == ref[2].order, name
        assert (part.exponent <= 2) == (ref[2].exponent <= 2), name
        assert chain_count(part) == chain_count(ref[2]), name
        if part.order <= 2000:
            assert _order_and_q_multiset(part) == _order_and_q_multiset(ref[2]), name
            compared += 1
    assert compared > 100


def test_integer_form_matches_fraction_jordan_route():
    # the integer tables written from the 2-adic Jordan invariants read
    # back, through q_of and b_of, as the Fraction values of the reference
    built, kinds = 0, set()
    for name, lat in _smith_corpus().items():
        if 2 not in lat.det_factors:
            continue
        blocks = [b for b in jordan_decompose(lat, 2).blocks if b.level]
        kinds |= {(b.chi, len(b.odd_units)) for b in blocks}
        kinds.add(len(blocks))
        orders, q_vals, bil = _fractiontwo_part(blocks)
        form = two_part(blocks)
        assert list(form.orders) == orders, name
        units = [_unit(len(orders), i) for i in range(len(orders))]
        assert [q_of(form, x) for x in units] == q_vals, name
        assert [[b_of(form, x, y) for y in units] for x in units] == bil, name
        assert all(isinstance(v, int) for v in form.q + sum(form.b, ())), name
        built += 1
    # chi = -1 with each odd-part size, and parts over several levels
    assert built > 120 and {(-1, 0), (-1, 1), (-1, 2), 2, 3} <= kinds, kinds


def test_p_parts_rescale_smith_forms():
    # invariant-factor generators have orders such as 6 or 60: each p-part's
    # values, read off its integer tables, are c^2 q and c c' b computed in
    # Fractions from the Smith-form values, c*g generating the p-part
    mixed = 0
    for name, lat in _smith_corpus().items():
        orders, q_vals, bil = _smith_values(lat)
        mixed += any(len(factorize(d)) > 1 for d in orders)
        for p, part in _p_parts(_smith_discriminant_form(lat)):
            gens = sorted(  # (p^e, c, index of g)
                (p ** factorize(d)[p], d // p ** factorize(d)[p], i)
                for i, d in enumerate(orders) if d % p == 0
            )
            assert part.orders == tuple(pe for pe, _, _ in gens), (name, p)
            k = len(gens)
            for a, (_, c, i) in enumerate(gens):
                assert q_of(part, _unit(k, a)) == c * c * q_vals[i] % 2, (name, p)
                for a2, (_, c2, j) in enumerate(gens):
                    assert b_of(part, _unit(k, a), _unit(k, a2)) == c * c2 * bil[i][j] % 1, (name, p)
    assert mixed > 50
