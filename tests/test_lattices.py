import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmvol.errors import PreconditionError
from hmvol.lattices import (
    Signature,
    direct_sum,
    e8,
    from_gram,
    hyperbolic_plane,
    rank_one,
    rescale,
)


def cofactor_det(rows):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


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
    """Symmetric integer matrices of size <= 5; about half have a zero
    diagonal, which sends the elimination through its pair-pivot branch."""
    n = draw(st.integers(min_value=1, max_value=5))
    zero_diagonal = draw(st.booleans())
    entries = st.integers(min_value=-(2**62), max_value=2**62)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = draw(entries)
    return rows


@given(_symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(PreconditionError, match="singular"):
            from_gram(rows)
    else:
        assert from_gram(rows).det == det


def test_lattice_immutable():
    lat = hyperbolic_plane()
    with pytest.raises(AttributeError):
        lat.det = 5
