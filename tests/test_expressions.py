"""Expression language: grammar, printing, and evaluation."""

from __future__ import annotations

import math
import random

import pytest

from conftest import assert_hexa_close, max_abs_diff
from hexacomplex.algebra import HexaNumber, Variant
from hexacomplex.errors import DomainError, ParseError, ZeroDivisorError
from hexacomplex.expressions import MAX_DEPTH, evaluate, parse, unparse


def ev(text: str, variant: Variant = Variant.POLAR) -> HexaNumber:
    return evaluate(parse(text), variant)


def test_literal_combination():
    value = ev("1 + 2h1 - 0.5h3")
    assert value.components == (1.0, 2.0, 0.0, -0.5, 0.0, 0.0)


def test_basis_product_evaluation():
    assert ev("h1*h5").components == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert ev("h1*h5", Variant.PLANAR).components == (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_juxtaposition_is_multiplication():
    assert ev("2h1") == ev("2*h1")
    assert ev("2(3 + h1)") == ev("2*(3 + h1)")
    assert ev("2 h1 h1") == ev("2*h2")


def test_power_binds_tighter_than_juxtaposition():
    assert ev("2h1^2") == ev("2*(h1^2)")
    assert parse("2h1^2") == ("*", ("num", 2.0), ("^", ("h", 1), 2))


def test_unary_minus_per_grammar():
    # factor := unary ('^' int)?, so the sign is part of the base
    assert ev("-h1^2") == ev("(-h1)^2")
    assert ev("-2 + 1").components[0] == -1.0


def test_negative_exponent():
    h3 = HexaNumber.basis(Variant.POLAR, 3)
    assert_hexa_close(ev("h3^-1"), h3, 1e-15)
    assert_hexa_close(ev("(1 + h2)^-1") * ev("1 + h2"), HexaNumber.one(Variant.POLAR), 1e-12)


def test_functions_and_division():
    assert_hexa_close(ev("exp(0)"), HexaNumber.one(Variant.POLAR), 1e-15)
    assert_hexa_close(ev("inv(h3)"), HexaNumber.basis(Variant.POLAR, 3), 1e-15)
    assert_hexa_close(ev("1/h3"), HexaNumber.basis(Variant.POLAR, 3), 1e-15)
    assert ev("pow(2, 0.5)").components[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert_hexa_close(ev("sin(h3)^2 + cos(h3)^2"), HexaNumber.one(Variant.POLAR), 1e-12)
    assert_hexa_close(ev("cosh(h1) + sinh(h1)"), ev("exp(h1)"), 1e-12)


def test_ln_exp_roundtrip_polar():
    value = ev("exp(ln(1 + h2))")
    assert max_abs_diff(value, ev("1 + h2")) <= 1e-10


def test_ln_of_planar_zero_divisor_is_domain_error():
    # planar 1 + h2 annihilates the second canonical plane, so its logarithm
    # cannot exist; the library reports which component vanished.
    with pytest.raises(DomainError) as exc:
        ev("ln(1 + h2)", Variant.PLANAR)
    assert exc.value.component == "pair2"


def test_division_by_zero_divisor_names_component():
    with pytest.raises(ZeroDivisorError) as exc:
        ev("1/(1 + h2)", Variant.PLANAR)
    assert exc.value.component == "pair2"


def test_pow_requires_scalar_exponent():
    with pytest.raises(DomainError):
        ev("pow(2, h1)")


@pytest.mark.parametrize("text,line,column", [
    ("1 +", 1, 4),
    ("(1", 1, 3),
    ("1 ) 2", 1, 3),
    ("h1^x", 1, 4),
    ("2^0.5", 1, 3),
])
def test_parse_errors_carry_position(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line
    assert exc.value.column == column
    assert exc.value.expected


def test_unknown_names_rejected():
    for text in ("h6", "foo(1)", "x + 1"):
        with pytest.raises(ParseError):
            parse(text)


def test_call_arity_checked():
    with pytest.raises(ParseError):
        parse("pow(1)")
    with pytest.raises(ParseError):
        parse("exp(1, 2)")


def test_trees_are_tagged_tuples():
    assert parse("-h1 + 2") == ("+", ("neg", ("h", 1)), ("num", 2.0))
    assert parse("1 - 2 / h3") == ("-", ("num", 1.0), ("/", ("num", 2.0), ("h", 3)))
    assert parse("(1 + h2)^-3") == ("^", ("+", ("num", 1.0), ("h", 2)), -3)
    assert parse("pow(h1, 0.5)") == ("call", "pow", ("h", 1), ("num", 0.5))


@pytest.mark.parametrize("op, unit", [(" + ", "1"), (" - ", "1"), (" * ", "h1"), (" ", "h1"),
                                      (" / ", "h1")])
def test_chains_of_any_length_run_left_to_right(op, unit):
    # a tree this deep is compared through its text: tuple == recurses per level
    tree = parse(op.join([unit] * 5000))
    operand = expected = ev(unit)
    for _ in range(4999):
        if op == " + ":
            expected = expected + operand
        elif op == " - ":
            expected = expected - operand
        elif op == " / ":
            expected = expected * operand.inverse()
        else:
            expected = expected * operand
    assert evaluate(tree, Variant.POLAR) == expected
    printed = (op if op.strip() else " * ").join([unparse(parse(unit))] * 5000)
    assert unparse(tree) == printed and unparse(parse(printed)) == printed


def test_runs_of_unary_minus_have_any_length():
    for count in (4999, 5000):
        assert ev("-" * count + "h1") == ev("-h1" if count % 2 else "h1")
        # factor := unary ('^' int)?, so the power applies to the negated h1
        printed = unparse(parse("-" * count + "h1^2"))
        assert printed == "(" + "-" * count + "h1)^2" == unparse(parse(printed))


@pytest.mark.parametrize("opening", ["(", "sin(", "pow(1, "])
def test_nesting_past_the_limit_is_a_parse_error(opening):
    closing = ")" * MAX_DEPTH
    assert ev(opening * MAX_DEPTH + "0" + closing) is not None
    text = "1 +\n" + opening * (MAX_DEPTH + 1) + "0" + closing + ")"
    with pytest.raises(ParseError, match="nesting deeper than") as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (2, MAX_DEPTH * len(opening) + 1)


EXAMPLES = [
    "1 + 2h1 - 0.5h3",
    "h1*h5",
    "exp(ln(1 + h2))",
    "-h1^2",
    "(1 + h2)^3 - 2/(h3 + 4)",
    "pow(1 + h2, 0.5) * sinh(h4)",
    "1 - 2 - 3",
    "8/4/2",
    "2 h1 (3 - h2)",
    "1e999 + h1",  # a literal past the double range prints as one that reads back as inf
    "-1e999",
]


@pytest.mark.parametrize("text", EXAMPLES)
def test_print_parse_fixed_point(text):
    tree = parse(text)
    printed = unparse(tree)
    assert parse(printed) == tree
    assert unparse(parse(printed)) == printed


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("num", round(rng.uniform(0, 10), 3))
        return ("h", rng.randint(1, 5))
    choice = rng.random()
    if choice < 0.5:
        op = rng.choice("+-*/")
        return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if choice < 0.7:
        return ("neg", _random_tree(rng, depth - 1))
    if choice < 0.85:
        return ("^", _random_tree(rng, depth - 1), rng.randint(0, 4))
    name = rng.choice(("exp", "sin", "cos", "sinh", "cosh", "inv", "ln"))
    return ("call", name, _random_tree(rng, depth - 1))


def test_print_parse_fixed_point_random_trees():
    rng = random.Random(80)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        printed = unparse(tree)
        assert parse(printed) == tree, printed


def test_evaluation_matches_reference_semantics():
    # subtraction and division associate left; juxtaposition behaves like '*'
    assert ev("1 - 2 - 3").components[0] == -4.0
    assert ev("8/4/2").components[0] == 1.0
    value = ev("2 h1 (3 - h2)")
    expected = (HexaNumber.from_real(Variant.POLAR, 2.0)
                * HexaNumber.basis(Variant.POLAR, 1)
                * (HexaNumber.from_real(Variant.POLAR, 3.0)
                   - HexaNumber.basis(Variant.POLAR, 2)))
    assert value == expected


def _random_literal(rng: random.Random) -> str:
    """A +/- chain of numbers, h_k and number-times-h_k terms, first term possibly negated."""
    terms = []
    for _ in range(rng.randint(1, 12)):
        number = rng.choice(["0", "0.0", "1", "2.5", "1e-320", "3e300", f"{rng.uniform(0, 9):.4g}"])
        k = rng.randint(1, 5)
        terms.append(rng.choice([number, f"h{k}", f"{number} h{k}", f"{number} * h{k}",
                                 f"{number} h{k} h{rng.randint(1, 5)}"]))
    text = rng.choice(["", "-"]) + terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - "]) + term
    return text


def test_literals_fold_bit_for_bit_like_the_general_route(monkeypatch):
    from hexacomplex import expressions

    rng = random.Random(21)
    texts = [_random_literal(rng) for _ in range(400)]
    texts += ["h3", "-h3", "-0 h1", "0 - 0 h2", "-0 - h4 + 0 h4", "h2 + h2 + h2 - h2",
              "1 + h1 + h2 + h3 + h4 + h5 - 1 - h1 - h2", "2 h5 h5", "1e308 + 1e308"]
    folded = {}
    for variant in (Variant.POLAR, Variant.PLANAR):
        for text in texts:
            node = parse(text)
            folded[variant, text] = (expressions._literal(node, variant.is_planar),
                                     repr(evaluate(node, variant).components)
                                     if text != "1e308 + 1e308" else None)
    # every literal folds except the one whose sum overflows
    assert [text for (_, text), (c, _) in folded.items() if c is None] == ["1e308 + 1e308"] * 2
    monkeypatch.setattr(expressions, "_literal", lambda node, planar: None)
    for (variant, text), (_, fast) in folded.items():
        if fast is None:
            with pytest.raises(DomainError, match="component 0 is not finite: inf"):
                ev(text, variant)
            continue
        # repr tells -0.0 from 0.0
        assert repr(ev(text, variant).components) == fast, (variant, text)
