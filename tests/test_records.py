"""The records keep the behaviour of the frozen dataclasses they replaced:
immutable, no tuple arithmetic on a number (`SymbolicReal`, the one
`__slots__` class among them, equals only its own type), parsed terms of
different constructors unequal, and no list shared between reports."""

from fractions import Fraction

import pytest

from hmvol.density import local_density
from hmvol.discforms import _two_part
from hmvol.expr import Term, _tokenize, lattice_from_text, parse_expr
from hmvol.jordan import jordan_decompose
from hmvol.lattices import e8, hyperbolic_plane
from hmvol.special_values import SymbolicReal
from hmvol.volumes import build_report, euler_alpha_product


def one_of_each_record():
    lat = lattice_from_text("U + <2> + <-6>")
    decomp = jordan_decompose(lat, 2)
    return {
        "Token": _tokenize("U")[0],
        "Term": parse_expr("2*U")[0],
        "Signature": lat.signature,
        "JordanBlock": decomp.blocks[0],
        "JordanDecomposition": decomp,
        "LocalDensity": local_density(lat, 3),
        "FiniteQuadraticForm": _two_part([b for b in decomp.blocks if b.level]),
        "SymbolicReal": euler_alpha_product(lat),
        "VolumeReport": build_report(lat),
    }


FIRST_FIELD = {
    "Token": "kind", "Term": "count", "Signature": "positive",
    "JordanBlock": "level", "JordanDecomposition": "p", "LocalDensity": "p",
    "FiniteQuadraticForm": "orders", "SymbolicReal": "coefficient", "VolumeReport": "lattice",
}


def test_one_of_each_record_is_its_named_type():
    records = one_of_each_record()
    assert sorted(records) == sorted(FIRST_FIELD)
    for name, record in records.items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("name, field", FIRST_FIELD.items())
def test_setting_an_attribute_raises(name, field):
    record = one_of_each_record()[name]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.unknown_field = 0


def test_atoms_of_different_types_are_unequal():
    assert parse_expr("U") != parse_expr("E8")
    assert parse_expr("2*U(3)") != parse_expr("2*E8(3)")
    assert Term(1, hyperbolic_plane, 1, 0) != Term(1, e8, 1, 0)
    assert parse_expr("U + E8(-1)") == parse_expr("U + E8(-1)")
    assert parse_expr("2*E8(-1)") == (Term(count=2, build=e8, arg=-1, offset=2),)
    assert hash(parse_expr("U")) == hash(parse_expr("U"))


def test_symbolic_real_has_no_tuple_arithmetic():
    x = SymbolicReal(Fraction(1, 3), 2, 5)
    y = SymbolicReal(Fraction(2), 0, 3)
    with pytest.raises(TypeError):
        2 * x
    with pytest.raises(TypeError):
        x + y
    assert x * 2 == SymbolicReal(Fraction(2, 3), 2, 5)
    assert x * y == SymbolicReal(Fraction(2, 3), 2, 15)
    assert x != (Fraction(1, 3), 2, 5)
    assert x == SymbolicReal(Fraction(1, 3), 2, 5)
    assert hash(x) == hash(SymbolicReal(Fraction(1, 3), 2, 5))
    with pytest.raises(AttributeError):
        del x.radicand
    assert repr(x) == "1/3 * pi^(2/2) * sqrt(5)"


def test_reports_share_no_list():
    lat = lattice_from_text("U + <2> + <-6>")
    first, second = build_report(lat), build_report(lat)
    assumptions, checks = list(second.assumptions), list(second.oracle_checks)
    first.assumptions.append("appended")
    first.oracle_checks.append({"p": 2})
    assert second.assumptions == assumptions
    assert second.oracle_checks == checks


def test_signature_prints_as_a_pair():
    sig = lattice_from_text("U + <2> + <-6>").signature
    assert repr(sig) == str(sig) == f"{sig}" == "(2,2)"
    assert tuple(sig) == (2, 2)
