"""Parser, printer, schema matching, and modalization checks."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import parser_reference
import walk_reference
from mmv.randgen import random_formula
from mmv.syntax import (
    Box,
    Const,
    Dia,
    Formula,
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
    postorder,
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


@pytest.mark.parametrize("seed", range(3))
def test_printer_matches_the_recursive_reference(seed):
    """The explicit-stack printer prints what the recursive printer it
    replaced printed: random formulas, and schemas with metavariables."""
    rng = random.Random(seed)
    formulas = [random_formula(rng, max_depth=5) for _ in range(300)]
    formulas += [random_formula(rng, max_depth=4, modalized=True) for _ in range(100)]
    formulas += [schema(print_formula(f), modalized=("q",)) for f in formulas[:100]]
    for formula in formulas:
        assert print_formula(formula) == walk_reference.print_formula(formula)


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


def _not_chain(depth: int) -> Formula:
    formula = P
    for _ in range(depth):
        formula = Not(formula)
    return formula


def test_structural_helpers_handle_deep_formulas():
    chain = _not_chain(100_000)
    nodes = list(subformulas(chain))
    assert len(nodes) == 100_001
    # post-order: p first, then each Not right after its argument
    assert nodes[0] is P and nodes[-1] is chain
    assert all(parent.arg is child for child, parent in zip(nodes, nodes[1:]))
    assert variables(chain) == ["p"]


def test_subformulas_repeats_shared_subtrees():
    shared = Box(Impl(P, Q))
    formula = Star(shared, Not(shared))
    nodes = list(subformulas(formula))
    assert nodes == [P, Q, Impl(P, Q), shared, P, Q, Impl(P, Q), shared, Not(shared), formula]
    assert variables(formula) == ["p", "q"]


def _recursive_postorder(formula: Formula) -> list[Formula]:
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node._fields():
            if isinstance(child, Formula):
                visit(child)
        order.append(node)

    visit(formula)
    return order


def test_postorder_lists_each_distinct_node_once():
    shared = Box(Impl(P, Q))
    formula = Star(shared, Not(shared))
    nodes = postorder(formula)
    assert nodes == [P, Q, shared.arg, shared, Not(shared), formula]
    assert [id(node) for node in nodes[:4]] == [id(P), id(Q), id(shared.arg), id(shared)]
    # equal nodes built apart are distinct nodes
    apart = Impl(Var("p"), Var("p"))
    assert postorder(apart) == [Var("p"), Var("p"), apart]


@pytest.mark.parametrize("seed", range(3))
def test_postorder_is_the_order_of_a_memoised_recursive_walk(seed):
    rng = random.Random(seed)
    for _ in range(200):
        parts = [random_formula(rng, max_depth=3) for _ in range(3)]
        # subtrees shared by identity, as substitution makes them
        formula = Impl(Star(parts[0], parts[1]), Join(parts[1], Not(parts[0])))
        assert [id(n) for n in postorder(formula)] == [
            id(n) for n in _recursive_postorder(formula)
        ]


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


def test_walks_go_left_first():
    # metavariables are bound in order of first occurrence from the left
    binding = match_schema(schema("psi -> <>phi"), parse("q -> <>p"))
    assert list(binding) == ["psi", "phi"]
    # a variable on the left decides before a metavariable on the right raises
    assert not is_modalized(Impl(P, MetaVar("phi")))
    with pytest.raises(TypeError, match="not a ground formula"):
        is_modalized(Impl(Box(P), MetaVar("phi")))


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


# ---------------------------------------------------------------------------
# formula nodes: hash, equality, immutability, pickling


_NODES = [
    (Formula, ()),
    (Var, ("p",)),
    (Const, (1,)),
    (MetaVar, ("phi", True)),
    (Not, (P,)),
    (Box, (Impl(P, Q),)),
    (Dia, (Const(0),)),
    (Impl, (P, Q)),
    (Star, (Not(P), Q)),
    (Oplus, (P, Box(Q))),
    (Meet, (Q, Q)),
    (Join, (Dia(P), R)),
]


@pytest.mark.parametrize("cls, fields", _NODES, ids=[cls.__name__ for cls, _ in _NODES])
def test_node_hash_is_the_hash_of_its_fields(cls, fields):
    node = cls(*fields)
    assert hash(node) == hash(fields)
    assert node == cls(*fields)


def test_nodes_of_different_classes_are_never_equal():
    assert Box(P) != Dia(P) and Dia(P) != Box(P)
    assert Impl(P, Q) != Star(P, Q)
    for cls, fields in _NODES:
        for other, other_fields in _NODES:
            if other is not cls and len(fields) == len(other_fields):
                assert cls(*fields) != other(*fields)


def test_nodes_with_equal_hashes_compare_their_fields():
    # hash(-1) == hash(-2) in CPython, so these nodes share a hash
    assert hash(Const(-1)) == hash(Const(-2))
    assert Const(-1) != Const(-2)
    assert Not(Const(-1)) != Not(Const(-2))


def test_node_repr_names_every_field():
    assert repr(MetaVar("phi")) == "MetaVar(name='phi', modalized=False)"
    assert repr(Impl(P, Not(Const(0)))) == (
        "Impl(left=Var(name='p'), right=Not(arg=Const(value=0)))"
    )
    assert repr(Formula()) == "Formula()"


@pytest.mark.parametrize("cls, fields", _NODES[1:], ids=[cls.__name__ for cls, _ in _NODES[1:]])
def test_nodes_are_immutable(cls, fields):
    node = cls(*fields)
    name = node.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(node, name, P)
    with pytest.raises(AttributeError):
        delattr(node, name)
    with pytest.raises(AttributeError):
        node._hash = 0
    with pytest.raises(AttributeError):
        node.extra = 0
    assert node == cls(*fields)


def test_pickle_and_deepcopy_rebuild_equal_nodes():
    formula = parse("[](p -> q) * ~<>(r (+) 1) \\/ 0 /\\ p")
    pattern = schema("[](nu -> phi) -> (nu -> []phi)", modalized=("nu",))
    for node in (formula, pattern, Formula()):
        for copied in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert copied == node and type(copied) is type(node)
            assert hash(copied) == hash(node)
            assert repr(copied) == repr(node)


_PICKLE_DUMP = """
import pickle, sys
from mmv.syntax import parse
sys.stdout.buffer.write(pickle.dumps(parse(sys.argv[1])))
"""

_PICKLE_LOAD = """
import pickle, sys
from mmv.syntax import parse
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse(sys.argv[1])
print(hash(loaded) == hash(fresh), {fresh: "found"}.get(loaded), loaded == fresh)
"""


def test_a_pickled_formula_hashes_anew_in_another_process():
    # str hashes differ between processes, so a pickle must not carry one
    root = Path(__file__).resolve().parent.parent
    text = "[](alpha -> beta) \\/ <>gamma"

    def run(code, seed, data=None):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed}
        return subprocess.run([sys.executable, "-c", code, text], env=env, input=data,
                              capture_output=True, check=True).stdout

    loaded = run(_PICKLE_LOAD, "2", run(_PICKLE_DUMP, "1"))
    assert loaded.decode() == "True found True\n"


def test_deep_formulas_hash_without_recursion():
    chain = _not_chain(100_000)
    assert hash(chain) == hash((chain.arg,))
    assert {chain: 1}[chain] == 1
    assert chain != _not_chain(99_999)
