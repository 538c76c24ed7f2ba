import tracemalloc

import pytest

from hmvol.errors import ExpressionError, PreconditionError
from hmvol.expr import MAX_NESTING, lattice_from_text, parse_expr
from hmvol.lattices import Signature, from_gram, hyperbolic_plane, rank_one


def render(terms) -> str:
    """Surface syntax of a parsed expression, one term per repetition count."""

    def atom(t) -> str:
        if t.build is from_gram:
            return "gram[" + ";".join(",".join(map(str, row)) for row in t.arg) + "]"
        if t.build is rank_one:
            return f"<{t.arg}>"
        name = "U" if t.build is hyperbolic_plane else "E8"
        return name if t.arg == 1 else f"{name}({t.arg})"

    return " + ".join(("" if t.count == 1 else f"{t.count}*") + atom(t) for t in terms)


def test_l50_expression():
    lat = lattice_from_text("2*U + 2*E8(-1) + <-50>")
    assert lat.rank == 21
    assert lat.signature == Signature(2, 19)
    assert abs(lat.det) == 50


def test_t_lattice_expression():
    lat = lattice_from_text("U + U(2) + E8(-1)")
    assert abs(lat.det) == 4
    assert lat.signature == Signature(2, 10)


def test_gram_literal():
    lat = lattice_from_text("gram[2,1;1,-2]")
    assert lat.rank == 2
    assert lat.det == -5


def test_whitespace_insensitive():
    a = lattice_from_text("2*U+2*E8(-1)+<-50>")
    b = lattice_from_text("  2 * U + 2 * E8( -1 ) + < -50 > ")
    assert a == b


def test_parenthesized_groups():
    lat = lattice_from_text("2*(U + <-2>)")
    assert lat.rank == 6
    assert abs(lat.det) == 4


def test_multiplier_distributes_over_parens():
    terms = parse_expr("3*(2*U + <1>)")
    assert [(t.count, t.build, t.arg, t.offset) for t in terms] == [
        (6, hyperbolic_plane, 1, 5),
        (3, rank_one, 1, 9),
    ]


def test_roundtrip_corpus():
    corpus = (
        "2*U + 2*E8(-1) + <-50>",
        "U + U(2) + E8(-1)",
        "gram[2,1;1,-2]",
        "U + E8(-1) + <2> + <-14>",
        "U(-3) + <7>",
        "5*U",
        "2*U + gram[0,1,0;1,0,0;0,0,-2]",
    )
    for text in corpus:
        ast = parse_expr(text)
        assert parse_expr(render(ast)) == ast


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExpressionError) as err:
        parse_expr("2*U +")
    assert err.value.offset == 5
    assert "INT" in err.value.expected and "NAME" in err.value.expected
    with pytest.raises(ExpressionError) as err:
        parse_expr("U + % U")
    assert err.value.offset == 4


@pytest.mark.parametrize("text, offset", [
    pytest.param("U + <\u00b2>", 5, id="superscript-two"),  # a digit, not decimal
    # literals with more digits than int() converts
    pytest.param("<1" + "0" * 5000 + ">", 1, id="long-entry"),
    pytest.param("U(" + "7" * 5000 + ")", 2, id="long-scale"),
    pytest.param("gram[1," + "3" * 5000 + ";1,1]", 7, id="long-gram-entry"),
    pytest.param("9" * 5000 + "*U", 0, id="long-multiplier"),
])
def test_integer_literals_int_refuses_are_expression_errors(text, offset):
    with pytest.raises(ExpressionError) as err:
        parse_expr(text)
    assert err.value.offset == offset


def test_multiplier_over_rank_cap_builds_no_copies():
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="rank 20000000 exceeds cap 64"):
            lattice_from_text("10000000*U")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_nesting_past_the_limit_is_an_expression_error():
    # 400 levels once ended in RecursionError; the first "(" past the limit
    # is refused at its offset
    with pytest.raises(ExpressionError, match=f"nested deeper than {MAX_NESTING}") as err:
        parse_expr("(" * 400 + "U + <-2> + U" + ")" * 400)
    assert err.value.offset == MAX_NESTING
    with pytest.raises(ExpressionError) as err:
        parse_expr("U + " + "2*(" * (MAX_NESTING + 1) + "U" + ")" * (MAX_NESTING + 1))
    assert err.value.offset == 4 + 3 * MAX_NESTING + 2


def test_nesting_at_the_limit_parses():
    text = "(" * MAX_NESTING + "U + <-2> + U" + ")" * MAX_NESTING
    assert lattice_from_text(text) == lattice_from_text("U + <-2> + U")
    nested = "U + " + "2*(" * MAX_NESTING + "<-2>" + ")" * MAX_NESTING
    assert [t.count for t in parse_expr(nested)] == [1, 2**MAX_NESTING]


def test_trailing_garbage():
    with pytest.raises(ExpressionError, match="trailing"):
        parse_expr("U U")


def test_unknown_constructor():
    with pytest.raises(ExpressionError, match="unknown constructor"):
        parse_expr("Leech")


def test_semantic_zero_scale():
    with pytest.raises(ExpressionError, match="nonzero"):
        lattice_from_text("U(0)")
    with pytest.raises(ExpressionError, match="nonzero"):
        lattice_from_text("<0>")


def test_semantic_bad_gram():
    with pytest.raises(ExpressionError, match="symmetric"):
        lattice_from_text("gram[0,1;2,0]")
    with pytest.raises(ExpressionError, match="square"):
        lattice_from_text("gram[1,2;3]")
    with pytest.raises(ExpressionError, match="bad gram literal"):
        lattice_from_text("gram[1,1;1,1]")  # singular


def test_zero_multiplier_rejected():
    with pytest.raises(ExpressionError, match="multiplier"):
        parse_expr("0*U")


def test_hyperbolic_flag_via_expression():
    assert lattice_from_text("U + <-2>").has_hyperbolic_summand
    assert lattice_from_text("U(-1) + <-2>").has_hyperbolic_summand
    assert not lattice_from_text("U(2) + <-2>").has_hyperbolic_summand
    assert not lattice_from_text("gram[0,1;1,0] + <-2>").has_hyperbolic_summand
