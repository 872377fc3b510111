"""Parser, printer, schema matching, and modalization checks."""

import random

import pytest
from hypothesis import given, strategies as st

import parser_reference
from mmv.randgen import random_formula
from mmv.syntax import (
    Box,
    Const,
    Dia,
    Impl,
    Join,
    Meet,
    MetaVar,
    Not,
    Oplus,
    ParseError,
    Star,
    Var,
    equiv,
    is_modalized,
    match_schema,
    parse,
    print_formula,
    schema,
    subformulas,
    substitute,
    variables,
)

P, Q, R = Var("p"), Var("q"), Var("r")


def test_atoms_and_constants():
    assert parse("p") == P
    assert parse("0") == Const(0)
    assert parse("1") == Const(1)
    assert parse("box_1") == Var("box_1")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("~p * q", Star(Not(P), Q)),                     # unary binds tighter than *
        ("p * q (+) r", Oplus(Star(P, Q), R)),           # * tighter than (+)
        ("p (+) q /\\ r", Meet(Oplus(P, Q), R)),         # (+) tighter than /\
        ("p /\\ q \\/ r", Join(Meet(P, Q), R)),          # /\ tighter than \/
        ("p \\/ q -> r", Impl(Join(P, Q), R)),           # \/ tighter than ->
        ("p -> q -> r", Impl(P, Impl(Q, R))),            # -> associates right
        ("p * q * r", Star(Star(P, Q), R)),              # * associates left
        ("[]<>~p", Box(Dia(Not(P)))),
        ("[](p \\/ q)", Box(Join(P, Q))),
        ("(p -> q) -> r", Impl(Impl(P, Q), R)),
    ],
)
def test_precedence(text, expected):
    assert parse(text) == expected


def test_equivalence_is_sugar_for_both_implications():
    assert parse("p == q") == equiv(P, Q)
    assert equiv(P, Q) == Meet(Impl(P, Q), Impl(Q, P))
    assert print_formula(parse("p == q")) == "(p -> q) /\\ (q -> p)"


@pytest.mark.parametrize(
    "text, printed",
    [
        ("p -> q -> r", "p -> q -> r"),
        ("(p -> q) -> r", "(p -> q) -> r"),
        ("~p * q", "~p*q"),
        ("~(p * q)", "~(p*q)"),
        ("[]p /\\ q \\/ r", "[]p /\\ q \\/ r"),
        ("p \\/ (q \\/ r)", "p \\/ (q \\/ r)"),
        ("<>(p*p)", "<>(p*p)"),
        ("p (+) q*r", "p (+) q*r"),
    ],
)
def test_printer_uses_minimal_parentheses(text, printed):
    assert print_formula(parse(text)) == printed


@given(st.integers(min_value=0, max_value=10**6))
def test_print_parse_round_trip(seed):
    rng = random.Random(seed)
    formula = random_formula(rng, names=("p", "q", "r"), max_depth=5)
    assert parse(print_formula(formula)) == formula


@given(st.integers(min_value=0, max_value=10**6))
def test_modalized_generator_round_trip(seed):
    rng = random.Random(seed)
    formula = random_formula(rng, max_depth=4, modalized=True)
    assert is_modalized(formula)
    assert parse(print_formula(formula)) == formula


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("p -> (q")
    assert err.value.position == 7
    for bad in ("", "p q", "p ->", "* p", "p -> $"):
        with pytest.raises(ParseError):
            parse(bad)


@pytest.mark.parametrize(
    "text, message, position",
    [
        # a prefix connective in infix place ends the formula
        ("p <> q", "unexpected '<>' after formula", 2),
        ("p ~ q", "unexpected '~' after formula", 2),
        # a binary connective in operand place is no operand
        ("[] -> p", "unexpected '->'", 3),
        ("p -> (q", "expected ')'", 7),
        ("p ->", "unexpected end of input", 4),
        ("p == q == r", "unexpected '==' after formula", 7),
    ],
)
def test_parse_error_messages(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


_TOKENS = (
    "p", "q", "0", "1", "~", "[]", "<>", "->", "==", "\\/", "/\\", "(+)", "*",
    "(", ")", "(", ")", " ", "$",
)


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as exc:
        return str(exc), exc.position


def _mutated(rng, text):
    """A printed formula with one token inserted, deleted or replaced."""
    pieces = text.split(" ")
    at = rng.randrange(len(pieces) + 1)
    action = rng.choice(("insert", "delete", "replace"))
    if action == "insert" or at == len(pieces):
        pieces.insert(at, rng.choice(_TOKENS))
    elif action == "delete":
        del pieces[at]
    else:
        pieces[at] = rng.choice(_TOKENS)
    return " ".join(pieces)


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_recursive_descent_reference(seed):
    """Equal trees, or equal ParseError message and position, on random
    token strings (mostly malformed) and on printed formulas, whole and with
    one token changed."""
    rng = random.Random(seed)
    texts = []
    for _ in range(3000):
        count = rng.randrange(12)
        texts.append("".join(rng.choice(_TOKENS) for _ in range(count)))
    for _ in range(500):
        text = print_formula(random_formula(rng, max_depth=4))
        texts += [text, _mutated(rng, text)]
    parsed = 0
    for text in texts:
        expected = _outcome(parser_reference.parse, text)
        assert _outcome(parse, text) == expected, text
        parsed += not isinstance(expected, tuple)
    # both kinds of outcome are exercised
    assert 500 <= parsed < len(texts) - 1000


def test_variables_and_subformulas():
    formula = parse("[](p \\/ q) -> ([]p \\/ []q)")
    assert variables(formula) == ["p", "q"]
    # post-order: leaves before the nodes built from them, root last
    nodes = list(subformulas(formula))
    assert nodes[-1] == formula
    assert nodes.count(Var("p")) >= 1
    assert len(nodes) == 10


@pytest.mark.parametrize(
    "text, expected",
    [
        ("[]p", True),
        ("<>p * []q", True),
        ("p", False),
        ("[]p -> q", False),
        ("1", True),
        ("[](p -> q) \\/ 0", True),
        ("~<>p", True),
        ("[](p -> <>q)", True),
    ],
)
def test_is_modalized(text, expected):
    assert is_modalized(parse(text)) is expected


def test_match_schema_binds_metavariables():
    luk1 = schema("phi -> (psi -> phi)")
    instance = parse("(p*q) -> (<>r -> p*q)")
    binding = match_schema(luk1, instance)
    assert binding == {"phi": Star(P, Q), "psi": Dia(R)}
    assert substitute(luk1, binding) == instance


def test_match_schema_requires_equal_repeated_metavariables():
    luk1 = schema("phi -> (psi -> phi)")
    assert match_schema(luk1, parse("p -> (q -> r)")) is None


def test_match_schema_enforces_modalized_side_condition():
    k_box = schema("[](nu -> phi) -> (nu -> []phi)", modalized=("nu",))
    good = parse("[]([]p -> q) -> ([]p -> []q)")
    assert match_schema(k_box, good) == {"nu": Box(P), "phi": Q}
    bad = parse("[](p -> q) -> (p -> []q)")
    assert match_schema(k_box, bad) is None


def test_schema_marks_requested_names_only():
    pattern = schema("nu -> phi", modalized=("nu",))
    assert pattern == Impl(MetaVar("nu", modalized=True), MetaVar("phi"))
