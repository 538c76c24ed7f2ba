import functools
import re
from fractions import Fraction

import numpy
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmvol.arith import factorize
from hmvol.errors import PreconditionError
from hmvol.jordan import jordan_decompose
from hmvol.lattices import (
    Gram,
    Signature,
    _det_and_signature,
    direct_sum,
    e8,
    from_gram,
    hyperbolic_plane,
    rank_one,
    rescale,
)


def cofactor_det(rows):
    """Independent determinant oracle: cofactor expansion along the first
    row, recursively; each minor (the last rows, a set of columns) is
    computed once."""
    n = len(rows)

    @functools.cache
    def minor(cols):
        if not cols:
            return 1
        r = n - len(cols)
        total = 0
        for pos, c in enumerate(cols):
            if rows[r][c]:
                total += (-1) ** pos * rows[r][c] * minor(cols[:pos] + cols[pos + 1:])
        return total

    return minor(tuple(range(n)))


def charpoly(rows):
    """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - A), exact, by the
    Faddeev-LeVerrier recurrence (every division by k is exact over Z)."""
    n = len(rows)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I, c_k = -tr(A M_k) / k
        mk = [[sum(rows[i][t] * mk[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        trace = sum(rows[i][t] * mk[t][i] for i in range(n) for t in range(n))
        assert trace % k == 0
        coeffs.append(-trace // k)
    return coeffs


def descartes_inertia(rows):
    """(positive, negative) eigenvalue counts of a symmetric matrix: its
    characteristic polynomial is real-rooted, so Descartes' rule of signs
    is exact; the negative roots are the positive roots of p(-x)."""

    def sign_changes(seq):
        signs = [x > 0 for x in seq if x]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    coeffs = charpoly(rows)  # highest degree first
    n = len(coeffs) - 1
    flipped = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(flipped)


def fraction_det_and_signature(rows: Gram) -> tuple[int, Signature]:
    """Determinant and Sylvester signature by symmetric Gaussian reduction
    over Q: the elimination `Lattice` used before the fraction-free one,
    kept as its oracle.

    Pivot search: prefer a nonzero diagonal entry; if the remaining block has
    zero diagonal but a nonzero off-diagonal entry (i,j), the row/column
    operation R_i += R_j surfaces the nonzero diagonal value 2*a_ij.  Every
    step is a congruence by a determinant-1 matrix, so det is the product of
    the pivots.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    det = Fraction(1)
    active = list(range(n))
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and m[i][j] != 0),
                None,
            )
            if pair is None:
                raise PreconditionError("Gram matrix is singular")
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            pivot = i
        d = m[pivot][pivot]
        det *= d
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            f = m[i][pivot] / d
            if f == 0:
                continue
            for k in range(n):
                m[i][k] -= f * m[pivot][k]
            for k in range(n):
                m[k][i] -= f * m[k][pivot]
    return int(det), Signature(pos, neg)


def test_hyperbolic_plane():
    u = hyperbolic_plane()
    assert u.rank == 2
    assert u.det == -1
    assert u.signature == Signature(1, 1)
    assert u.is_even
    assert u.has_hyperbolic_summand


def test_e8_negative():
    lat = e8(-1)
    assert lat.rank == 8
    assert lat.det == cofactor_det([list(r) for r in lat.gram]) == 1
    assert lat.signature == Signature(0, 8)
    assert lat.is_even
    assert not lat.has_hyperbolic_summand


def test_e8_positive_definite():
    lat = e8()
    assert lat.det == 1
    assert lat.signature == Signature(8, 0)


def test_rank_one():
    lat = rank_one(-6)
    assert lat.rank == 1
    assert lat.det == -6
    assert lat.signature == Signature(0, 1)


def test_direct_sum_l2d_family():
    lat = direct_sum(
        hyperbolic_plane(), hyperbolic_plane(), e8(-1), e8(-1), rank_one(-2)
    )
    assert lat.signature == Signature(2, 19)
    assert abs(lat.det) == 2


def test_direct_sum_t_lattice():
    lat = direct_sum(hyperbolic_plane(), hyperbolic_plane(2), e8(-1))
    assert abs(lat.det) == 4
    assert lat.signature == Signature(2, 10)


def test_direct_sum_commutes_on_invariants():
    a = from_gram([[2, 1], [1, -2]])
    b = rank_one(6)
    ab, ba = direct_sum(a, b), direct_sum(b, a)
    assert ab.det == ba.det
    assert ab.rank == ba.rank
    assert ab.signature == ba.signature


def test_unimodular_ii_2_18():
    lat = direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8(-1), e8(-1))
    assert lat.det == 1
    assert lat.signature == Signature(2, 18)


def test_signature_of_diagonal():
    lat = direct_sum(rank_one(2), rank_one(-6))
    assert lat.signature == Signature(1, 1)


def test_k_family_determinant():
    # sign is (-1)^s with s = 18, so det is +4d
    lat = direct_sum(
        hyperbolic_plane(), e8(-1), e8(-1), rank_one(2), rank_one(-10)
    )
    assert abs(lat.det) == 20
    assert lat.det == 20
    assert lat.signature == Signature(2, 18)


def test_signature_zero_diagonal_block():
    # forces the off-diagonal pivot path of the signature reduction
    lat = from_gram([[0, 3], [3, 0]])
    assert lat.signature == Signature(1, 1)


def test_rejects_nonsymmetric():
    with pytest.raises(PreconditionError, match="not symmetric"):
        from_gram([[0, 1], [2, 0]])


def test_gram_entries_must_be_integers():
    # a non-integer entry is refused by name, not truncated: [[2.9, 1], [1, -2.5]]
    # once became [[2, 1], [1, -2]] (det -5), and "2" parsed as 2
    for bad in (2.9, "2", Fraction(5, 2)):
        with pytest.raises(PreconditionError, match=re.escape(f"Gram entry {bad!r} is not an integer")):
            from_gram([[bad, 1], [1, -2]])
    with pytest.raises(PreconditionError, match="not an integer"):
        from_gram([[2.9, 1], [1, -2.5]])
    for one in (1, True, numpy.int64(1)):
        lat = from_gram([[2, one], [one, -2]])
        assert lat.gram == ((2, 1), (1, -2)) and type(lat.gram[0][1]) is int
        assert lat.det == -5


def test_rejects_malformed_rows():
    # rows that are not sequences once raised "'int' object is not iterable"
    with pytest.raises(PreconditionError, match="must be square"):
        from_gram([[1, 2], [3]])
    for bad in ([1, 2], 5):
        with pytest.raises(PreconditionError, match="sequence of rows of integers"):
            from_gram(bad)


def test_constructor_scales_must_be_integers():
    # a float scale once built a float Gram: rank_one(2.5) had det 2.5,
    # hyperbolic_plane(1.5) det -2.25 and e8(0.5) det 1/256, and rank_one("3")
    # raised a bare TypeError
    cases = [(rank_one, 2.5, "Gram entry"), (rank_one, "3", "Gram entry"),
             (hyperbolic_plane, 1.5, "scale"), (e8, 0.5, "scale"),
             (lambda c: rescale(e8(1), c), 0.5, "scale")]
    for build, bad, what in cases:
        with pytest.raises(PreconditionError, match=re.escape(f"{what} {bad!r} is not an integer")):
            build(bad)
    for one in (True, numpy.int64(1)):
        for lat in (rank_one(one), hyperbolic_plane(one), rescale(rank_one(2), one)):
            assert all(type(x) is int for row in lat.gram for x in row)


def test_rejects_singular():
    with pytest.raises(PreconditionError, match="singular"):
        from_gram([[1, 1], [1, 1]])


def test_rejects_zero_scale():
    with pytest.raises(PreconditionError):
        hyperbolic_plane(0)
    with pytest.raises(PreconditionError):
        rank_one(0)


def test_rank_cap():
    with pytest.raises(PreconditionError, match="cap"):
        from_gram([[2 if i == j else 0 for j in range(65)] for i in range(65)])


def test_entry_cap():
    with pytest.raises(PreconditionError, match="cap"):
        rank_one(2**63)


def test_rescale_det_and_signature():
    lat = direct_sum(hyperbolic_plane(), rank_one(6))
    up = rescale(lat, 3)
    assert up.det == 3**3 * lat.det
    assert up.signature == lat.signature
    down = rescale(lat, -2)
    assert down.det == (-2) ** 3 * lat.det
    assert down.signature == Signature(
        lat.signature.negative, lat.signature.positive
    )


def test_hyperbolic_flag_propagation():
    assert hyperbolic_plane(-1).has_hyperbolic_summand
    assert not hyperbolic_plane(2).has_hyperbolic_summand
    assert rescale(direct_sum(hyperbolic_plane(), rank_one(2)), -1).has_hyperbolic_summand
    assert not rescale(hyperbolic_plane(), 3).has_hyperbolic_summand


_atoms = st.sampled_from(
    [hyperbolic_plane(), hyperbolic_plane(2), e8(-1), rank_one(2), rank_one(-4), rank_one(7)]
)


@given(st.lists(_atoms, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_direct_sum_multiplicativity(parts):
    total = direct_sum(*parts)
    det = 1
    pos = neg = 0
    for piece in parts:
        det *= piece.det
        pos += piece.signature.positive
        neg += piece.signature.negative
    assert total.det == det
    assert total.signature == Signature(pos, neg)
    assert (-1) ** total.signature.negative == (1 if total.det > 0 else -1)


@given(_atoms, st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0))
@settings(max_examples=60, deadline=None)
def test_rescale_multiplicativity(lat, c):
    scaled = rescale(lat, c)
    assert scaled.det == c**lat.rank * lat.det
    if c > 0:
        assert scaled.signature == lat.signature
    else:
        assert scaled.signature == Signature(
            lat.signature.negative, lat.signature.positive
        )


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices of size <= 8.  About a third have a zero
    diagonal, which sends the elimination through its pair-pivot branch;
    entries are small (so that cancellations and singular matrices are
    common) or up to 2^62; some matrices repeat one index as another, which
    makes them singular."""
    n = draw(st.integers(min_value=1, max_value=8))
    zero_diagonal = draw(st.integers(min_value=0, max_value=2)) == 0
    bound = draw(st.sampled_from([2, 2**62]))
    entries = st.integers(min_value=-bound, max_value=bound)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = draw(entries)
    if n > 1 and draw(st.integers(min_value=0, max_value=4)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            rows[j][k] = rows[k][j] = rows[i][k]
        rows[j][j] = rows[i][i]
    return rows


@given(_symmetric_matrices())
@settings(max_examples=400, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(PreconditionError, match="singular"):
            from_gram(rows)
        with pytest.raises(PreconditionError, match="singular"):
            fraction_det_and_signature(rows)
        return
    lat = from_gram(rows)
    assert lat.det == det
    assert (lat.det, lat.signature) == fraction_det_and_signature(lat.gram)
    assert tuple(lat.signature) == descartes_inertia(rows)


_nonzero = st.integers(min_value=-6, max_value=6).filter(bool)


@st.composite
def _gram_literals(draw):
    """Nonsingular symmetric Gram literals of rank <= 3, small entries."""
    n = draw(st.integers(min_value=1, max_value=3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(min_value=-4, max_value=4))
    assume(cofactor_det(rows) != 0)
    return from_gram(rows)


_sum_atoms = st.one_of(
    st.builds(hyperbolic_plane, _nonzero),
    st.builds(e8, _nonzero),
    st.builds(rank_one, st.integers(min_value=-24, max_value=24).filter(bool)),
    _gram_literals(),
)
# nested sums, and rescaled sums, which are atoms again
_sums = st.recursive(
    _sum_atoms,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: direct_sum(*parts)),
        st.builds(rescale, inner, _nonzero),
    ),
    max_leaves=4,
)


@given(_sums)
@settings(max_examples=80, deadline=None)
def test_direct_sum_invariants_match_the_full_gram(lat):
    # det and signature read off the summands agree with both eliminations
    # of the full Gram, and so does the Jordan split summand by summand
    assert (lat.det, lat.signature) == _det_and_signature(lat.gram)
    assert (lat.det, lat.signature) == fraction_det_and_signature(lat.gram)
    assert all(not atom.summands for atom in lat.summands)
    if lat.summands:
        assert direct_sum(*lat.summands).gram == lat.gram
    full = from_gram(lat.gram)
    for p in sorted(set(factorize(2 * abs(lat.det)))):
        assert jordan_decompose(lat, p) == jordan_decompose(full, p), p


def test_descartes_inertia_reference():
    # eigenvalues 3, 1 / 1, -1 (twice) / 9, 1, -3
    assert descartes_inertia([[2, 1], [1, 2]]) == (2, 0)
    assert descartes_inertia([[0, 1, 0], [1, 0, 0], [0, 0, -1]]) == (1, 2)
    assert descartes_inertia([[9, 0, 0], [0, 1, 0], [0, 0, -3]]) == (2, 1)
    assert charpoly([[1, 2], [2, 1]]) == [1, -2, -3]


def test_lattice_immutable():
    lat = hyperbolic_plane()
    with pytest.raises(AttributeError):
        lat.det = 5
