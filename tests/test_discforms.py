import itertools
from collections import Counter
from fractions import Fraction

import pytest

from hmvol.arith import factorize
from hmvol.arith import primes_up_to
from hmvol.discforms import (
    ISOMETRY_ENUM_CAP,
    FiniteQuadraticForm,
    _count_isometries,
    discriminant_form,
    finite_isometry_order,
    index_and_minus_id,
    minus_id_in_tilde,
    num_prime_divisors,
    projective_index,
    stable_invariants,
)
from hmvol.errors import FeasibilityError, PreconditionError
from hmvol.expr import lattice_from_text
from hmvol.families import k_lattice, l_lattice, n_lattice, t_lattice, unimodular_ii
from hmvol.jordan import jordan_decompose
from hmvol.lattices import direct_sum, from_gram, rank_one

from conftest import SIGNATURE_2N_EXPRESSIONS


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
    form = discriminant_form(unimodular_ii(1))
    assert form.is_trivial
    assert form.order == 1
    assert finite_isometry_order(form) == 1


def test_discriminant_form_rank_one():
    # <-2d>: cyclic of order 2d with q(g) = -1/2d mod 2Z, given by its
    # p-parts in increasing p; the p-part of order p^e is generated by c*g
    # with c = 2d/p^e, so its q-value is c^2 * (-1/2d)
    for d in (1, 3, 6):
        form = discriminant_form(rank_one(-2 * d))
        prime_powers = tuple(p**e for p, e in sorted(factorize(2 * d).items()))
        assert form.orders == prime_powers
        for pe, q in zip(prime_powers, form.q_values):
            c = 2 * d // pe
            assert q % 2 == Fraction(-c * c, 2 * d) % 2


def test_discriminant_form_n_binary():
    # [2,1;1,(1-d)/2] has cyclic discriminant group of order d (the
    # determinant is -d), not 2d
    for d in (5, 13, 29):
        binary = from_gram([[2, 1], [1, (1 - d) // 2]])
        form = discriminant_form(binary)
        assert form.orders == (d,)


def test_discriminant_form_rejects_odd_lattice():
    with pytest.raises(PreconditionError, match="even"):
        discriminant_form(rank_one(1))


def test_group_order_matches_det():
    for text in ("U(2)", "<-2> + <4>", "2*U + <-24>", "U + <2> + <-8>"):
        lat = lattice_from_text(text)
        assert discriminant_form(lat).order == abs(lat.det)


def test_quadratic_identity_on_generators():
    # q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2Z
    for text in ("<-6> + <2>", "U(2)", "U(2) + <-4>", "gram[2,1;1,-4]"):
        form = discriminant_form(lattice_from_text(text))
        elems = list(form.elements())
        for x in elems[: min(len(elems), 12)]:
            for y in elems[: min(len(elems), 12)]:
                xy = tuple((a + b) % d for a, b, d in zip(x, y, form.orders))
                lhs = (form.q_of(xy) - form.q_of(x) - form.q_of(y)) % 2
                assert lhs == (2 * form.b_of(x, y)) % 2


def test_isometry_order_rank_one_sweep():
    # |O(q)| = 2^rho(d) for <-2d>
    for d in range(1, 31):
        form = discriminant_form(rank_one(-2 * d))
        assert finite_isometry_order(form) == 2 ** num_prime_divisors(d), d


def test_isometry_order_split_binary_examples():
    # <2> + <-2d>: 2^(1+rho(d)) when d = 3 mod 4 or 8 | d, else 2^rho(d)
    form = discriminant_form(direct_sum(rank_one(2), rank_one(-6)))
    assert finite_isometry_order(form) == 4
    form = discriminant_form(direct_sum(rank_one(2), rank_one(-10)))
    assert finite_isometry_order(form) == 2


def test_unit_square_count_mod_4d():
    # #{x mod 4d : x^2 = 1 mod 4d} = 2^(rho(d)+1)
    for d in range(1, 51):
        count = sum(1 for x in range(4 * d) if (x * x - 1) % (4 * d) == 0)
        assert count == 2 ** (num_prime_divisors(d) + 1), d


def test_minus_id_criterion():
    assert minus_id_in_tilde(l_lattice(0, 1))  # A = Z/2
    assert not minus_id_in_tilde(l_lattice(0, 3))  # A = Z/6
    assert minus_id_in_tilde(unimodular_ii(1))  # trivial group
    assert minus_id_in_tilde(t_lattice(1))  # A = (Z/2)^2
    # A = Z/4 is a 2-group but has exponent 4, so -id acts nontrivially;
    # the L-family volume fixtures at d = 2 force this reading
    assert not minus_id_in_tilde(l_lattice(0, 2))


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
    assert finite_isometry_order(discriminant_form(lat)) == 2
    assert projective_index(lat, "O~+") == 4


def _brute_force_isometry_order(form) -> int:
    """|O(A, q)| with no pruning: every tuple of generator images defines a
    homomorphism when image i has order dividing d_i; count those that are
    bijective on A and preserve q on every element."""
    elems = list(form.elements())
    k = len(form.orders)
    count = 0
    for images in itertools.product(elems, repeat=k):
        if any(form.orders[i] % form.element_order(images[i]) for i in range(k)):
            continue
        mapped = {
            x: tuple(
                sum(x[i] * images[i][c] for i in range(k)) % form.orders[c] for c in range(k)
            )
            for x in elems
        }
        if len(set(mapped.values())) != len(elems):
            continue
        if all(form.q_of(mapped[x]) == form.q_of(x) for x in elems):
            count += 1
    return count


BRUTE_FORCE_TEXTS = (
    "U + U(2)", "U + U(3)", "U + U(4)", "2*U + 2*<-2>", "2*U + 3*<-2>", "2*U + 2*<-4>",
)
BRUTE_FORCE_MULTI_PRIME_TEXTS = ("2*U + <-2> + <-6>", "U + U(3) + <-2>", "2*U + <-4> + <-6>")


def test_isometry_order_matches_brute_force():
    # finite_isometry_order keeps every leaf of its pruned search; the leaves
    # are automorphisms because b is nondegenerate, and this reference counts
    # bijective q-preserving maps directly
    texts = list(BRUTE_FORCE_TEXTS)
    lattices = [lattice_from_text(t) for t in texts] + [l_lattice(0, d) for d in range(1, 9)]
    for text, lat in zip(texts + [f"L(0,{d})" for d in range(1, 9)], lattices):
        form = discriminant_form(lat)
        assert len(form.orders) <= 3 and form.order <= 16, text
        assert finite_isometry_order(form) == _brute_force_isometry_order(form), text
    # several primes over several generators: the product over p-parts
    # against the unsplit reference
    for text in BRUTE_FORCE_MULTI_PRIME_TEXTS:
        form = discriminant_form(lattice_from_text(text))
        assert len(form.orders) >= 2 and num_prime_divisors(form.order) >= 2, text
        assert form.order <= 24, text
        assert finite_isometry_order(form) == _brute_force_isometry_order(form), text


def test_isometry_order_is_product_over_p_parts():
    # the product over p-parts equals the search run on the unsplit form
    forms = {}
    for text in SIGNATURE_2N_EXPRESSIONS:
        lat = lattice_from_text(text)
        if lat.is_even and lat.has_hyperbolic_summand and abs(lat.det) <= 10**4:
            forms[text] = discriminant_form(lat)
    for d in range(1, 201):
        forms[f"L(0,{d})"] = discriminant_form(l_lattice(0, d))
    assert len(forms) > 200
    for name, form in forms.items():
        assert finite_isometry_order(form) == _count_isometries(form), name


def test_odd_cyclic_part_has_two_isometries():
    # the closed form for a cyclic part at odd p, pinned by the search it
    # replaces: Z/p^k with q(g) = 2u/p^k for a square and a non-square unit u
    for p in primes_up_to(2000)[1:]:
        non_square = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        pk = p
        while pk <= 2000:
            for u in (1, non_square):
                q = Fraction(2 * u, pk)
                form = FiniteQuadraticForm((pk,), (q % 2,), ((q % 1,),))
                assert _count_isometries(form) == 2, (pk, u)
                assert finite_isometry_order(form) == 2, (pk, u)
            pk *= p


def test_isometry_guard_prices_each_p_part():
    # |A| = 2 * 1000003 is far over the cap, but the only enumerated part
    # is Z/2; a 2-part over the cap still trips the guard
    assert finite_isometry_order(discriminant_form(l_lattice(0, 1000003))) == 2
    form = discriminant_form(lattice_from_text("2*U + <-131072>"))
    assert form.order == 131072 > ISOMETRY_ENUM_CAP
    with pytest.raises(FeasibilityError, match=r"2-part .*\|A_2\| = 131072"):
        finite_isometry_order(form)


def test_index_and_minus_id_table():
    # rank 5, A = Z/2: -id is in every group but SO+ and SO~+ (odd rank)
    lat = l_lattice(0, 1)
    stable = stable_invariants(lat, [jordan_decompose(lat, 2)])
    assert stable == (1, True)
    got = {tag: index_and_minus_id(lat, tag, stable) for tag in ("O", "O+", "SO+", "O~+", "SO~+")}
    assert got == {"O": (1, True), "O+": (2, True), "SO+": (2, False),
                   "O~+": (2, True), "SO~+": (2, False)}
    # rank 5, A = Z/6: -id acts nontrivially on A
    lat3 = l_lattice(0, 3)
    stable3 = stable_invariants(lat3, [jordan_decompose(lat3, p) for p in (2, 3)])
    assert index_and_minus_id(lat3, "O~+", stable3) == (2, False)
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


def _smith_discriminant_form(lattice) -> FiniteQuadraticForm:
    """(A_L, q_L) with invariant-factor generators g_i = (V e_i) / d_i from
    the Smith normal form of the Gram matrix, q and b from the dual pairing:
    a route through the global Gram matrix, independent of the Jordan blocks."""
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
    return FiniteQuadraticForm(tuple(diag[i] for i in keep), tuple(q_vals), tuple(map(tuple, bil)))


def _order_and_q_multiset(form: FiniteQuadraticForm) -> Counter:
    return Counter((form.element_order(x), form.q_of(x)) for x in form.elements())


def test_jordan_form_matches_smith_reference():
    # the form read off the Jordan blocks and the Smith-form construction
    # describe the same (A, q): same order, exponent test and |O(q)|, and
    # on small groups the same (element order, q) value distribution
    corpus = {}
    for text in SIGNATURE_2N_EXPRESSIONS + BRUTE_FORCE_TEXTS + BRUTE_FORCE_MULTI_PRIME_TEXTS:
        lat = lattice_from_text(text)
        if lat.is_even:
            corpus[text] = lat
    for d in range(1, 61):
        corpus[f"K(0,{d})"] = k_lattice(0, d)
        corpus[f"L(0,{d})"] = l_lattice(0, d)
        if d % 4 == 1:
            corpus[f"N(0,{d})"] = n_lattice(0, d)
    compared = 0
    for name, lat in corpus.items():
        form = discriminant_form(lat)
        ref = _smith_discriminant_form(lat)
        assert form.order == ref.order == abs(lat.det), name
        assert form.is_two_elementary == ref.is_two_elementary, name
        assert finite_isometry_order(form) == finite_isometry_order(ref), name
        if form.order <= 2000:
            assert _order_and_q_multiset(form) == _order_and_q_multiset(ref), name
            compared += 1
    assert compared > 150
