"""Formulas 100,000 levels deep through every walker, at the default recursion limit.

Each chain is far deeper than Python's recursion limit, so any walk that
recursed once per level would raise RecursionError here.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from mmv import core, enumeration
from mmv.proofs import _premise_exponent
from mmv.search import boxinf_premise
from mmv.syntax import (
    Box,
    Impl,
    MetaVar,
    Not,
    Var,
    is_modalized,
    match_schema,
    parse,
    print_formula,
    substitute,
)

DEPTH = 100_000
P, Q = Var("p"), Var("q")


def _fold(leaf, wrap, depth=DEPTH):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


@pytest.fixture(scope="module")
def chains():
    return {
        "not": _fold(P, Not),
        "impl": _fold(P, lambda f: Impl(P, f), DEPTH - 1),  # p -> p -> ... -> p
        "left": _fold(P, lambda f: Impl(f, P), DEPTH - 1),  # ((p -> p) -> p) -> ...
    }


def test_the_recursion_limit_is_the_default():
    assert sys.getrecursionlimit() <= 1000


def test_parse_prefix_chains_parentheses_and_implication_chains(chains):
    assert parse("~" * DEPTH + "p") == chains["not"]
    assert parse("(" * DEPTH + "p" + ")" * DEPTH) == P
    assert parse("(" * DEPTH + "~p" + ")" * DEPTH) == Not(P)
    assert parse(" -> ".join(["p"] * DEPTH)) == chains["impl"]


def test_print_and_parse_round_trip(chains):
    assert print_formula(chains["not"]) == "~" * DEPTH + "p"
    assert print_formula(chains["impl"]) == " -> ".join(["p"] * DEPTH)
    left = print_formula(chains["left"])
    assert left == "(" * (DEPTH - 2) + "p -> p" + ") -> p" * (DEPTH - 2)
    assert parse(left) == chains["left"]


def test_eval_in_power(chains):
    third = (Fraction(1, 3),)
    assert core.eval_in_power(chains["not"], {"p": third}, 1) == third
    assert core.eval_in_power(chains["impl"], {"p": third}, 1) == (Fraction(1),)


def test_compile_claim(chains):
    program = enumeration.compile_claim([chains["impl"]], chains["not"])
    assert program.names == ("p",)
    # p, the DEPTH - 1 implications and the DEPTH negations
    assert len(program.ops) == 2 * DEPTH
    assert program.roots == (DEPTH - 1, 2 * DEPTH - 1)
    assert [len(steps) for steps in program.steps] == [DEPTH, DEPTH]


def test_is_modalized():
    box_p = Box(P)
    assert is_modalized(_fold(Box(Q), lambda f: Impl(box_p, f)))
    assert not is_modalized(_fold(Q, lambda f: Impl(box_p, f)))
    with pytest.raises(TypeError, match="not a ground formula"):
        is_modalized(_fold(MetaVar("phi"), Not))


def test_substitute_and_match_schema(chains):
    pattern = _fold(MetaVar("phi"), Not)
    instance = substitute(pattern, {"phi": P})
    assert instance == chains["not"]
    assert match_schema(pattern, instance) == {"phi": P}
    assert match_schema(pattern, _fold(P, Box)) is None


def test_equality_of_chains_built_apart(chains):
    assert _fold(P, Not) == chains["not"]
    assert _fold(P, lambda f: Impl(P, f), DEPTH - 1) == chains["impl"]
    assert _fold(Q, Not) != chains["not"]


def test_premise_exponent():
    phi, alpha, beta = P, Q, Var("r")
    premise = boxinf_premise(phi, alpha, beta, DEPTH)
    assert _premise_exponent(premise, Box(phi), Box(alpha), Box(beta)) == DEPTH
    assert _premise_exponent(premise, Box(phi), Box(alpha), Box(phi)) is None
