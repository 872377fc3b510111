"""World-by-world evaluation over finite structures and the algebraic bridge."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mmv import core
from mmv.analysis import FiniteMonadicAlgebra
from mmv.randgen import random_formula, random_valuation
from mmv.semantics import (
    ConsequenceVerdict,
    SafeStructure,
    check_consequence_on_model,
    evaluate,
    holds,
    is_model,
    model_from_json,
    model_to_json,
)
from mmv.syntax import (
    Box,
    Const,
    Dia,
    Impl,
    Join,
    Meet,
    Not,
    Oplus,
    Star,
    Var,
    parse,
    variables,
)


def test_two_world_evaluation_oracles():
    structure = SafeStructure(worlds=2, valuation={"p": (F(1), F(1, 2))})
    assert evaluate(structure, parse("<>p")) == (F(1), F(1))
    assert evaluate(structure, parse("[]p")) == (F(1, 2), F(1, 2))
    assert evaluate(structure, parse("[]p -> p")) == (F(1), F(1))
    assert holds(structure, parse("[]p -> p"))
    assert not holds(structure, parse("p"))


def test_modal_collapse_fails_on_split_structure():
    structure = SafeStructure(worlds=2, valuation={"p": (F(1), F(0))})
    assert evaluate(structure, parse("<>p -> []p")) == (F(0), F(0))


def test_constants_and_world_independence():
    structure = SafeStructure(worlds=3, valuation={"p": (F(1), F(0), F(1, 2))})
    assert evaluate(structure, parse("1")) == (F(1), F(1), F(1))
    assert evaluate(structure, parse("[]p \\/ <>p")) == (F(1), F(1), F(1))


def test_consequence_verdicts_on_one_structure():
    structure = SafeStructure(
        worlds=2, valuation={"p": (F(1), F(1)), "q": (F(1), F(0))}
    )
    p, q = parse("p"), parse("q")
    assert is_model(structure, [p])
    assert check_consequence_on_model(structure, [p], parse("<>p")) is (
        ConsequenceVerdict.CONSISTENT
    )
    assert check_consequence_on_model(structure, [p], parse("[]q")) is (
        ConsequenceVerdict.REFUTES
    )
    assert check_consequence_on_model(structure, [q], parse("p")) is (
        ConsequenceVerdict.NOT_APPLICABLE
    )


def test_structure_validation():
    with pytest.raises(ValueError):
        SafeStructure(worlds=0, valuation={})
    with pytest.raises(ValueError):
        SafeStructure(worlds=2, valuation={"p": (F(1),)})
    with pytest.raises(ValueError):
        SafeStructure(worlds=1, valuation={"p": (F(3, 2),)})


def test_model_json_round_trip():
    structure = SafeStructure(worlds=2, valuation={"p": (F(1), F(1, 2))})
    data = model_to_json(structure)
    assert data == {"worlds": 2, "valuation": {"p": ["1", "1/2"]}}
    assert model_from_json(data) == structure
    for bad in (
        {"worlds": 0, "valuation": {}},
        {"worlds": 2, "valuation": {"p": ["1"]}},
        {"worlds": 1, "valuation": {"p": ["3/2"]}},
        {"valuation": {}},
        [],
    ):
        with pytest.raises(ValueError):
            model_from_json(bad)


@given(st.integers(min_value=0, max_value=10**5))
def test_bridge_between_model_and_algebraic_evaluation(seed):
    # the same tuples read as a structure valuation or as power-algebra
    # elements must give the same truth value
    rng = random.Random(seed)
    names = ("p", "q", "r")
    formula = random_formula(rng, names=names, max_depth=4)
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    valuation = random_valuation(rng, names, m, n)
    structure = SafeStructure(worlds=n, valuation=valuation)
    assert evaluate(structure, formula) == core.eval_in_power(formula, valuation, n)


def test_evaluation_requires_all_variables():
    structure = SafeStructure(worlds=1, valuation={"p": (F(1),)})
    with pytest.raises(ValueError, match="assigns no value to 'q'"):
        evaluate(structure, parse("p -> q"))


def _eval_in_tables(algebra, formula, valuation):
    """Carrier index of the formula's value, read off the algebra's tables."""
    index = {element: i for i, element in enumerate(algebra.carrier)}
    binary = {
        Impl: algebra.impl_table,
        Star: algebra.star_table,
        Oplus: algebra.oplus_table,
        Meet: algebra.meet_table,
        Join: algebra.join_table,
    }

    def walk(f):
        if isinstance(f, Var):
            return index[valuation[f.name]]
        if isinstance(f, Const):
            return algebra.one if f.value else algebra.zero
        if isinstance(f, Not):
            return algebra.neg_table[walk(f.arg)]
        if isinstance(f, Box):
            return algebra.forall_table[walk(f.arg)]
        if isinstance(f, Dia):
            return algebra.exists_table[walk(f.arg)]
        return binary[type(f)][walk(f.left)][walk(f.right)]

    return walk(formula)


def test_power_evaluation_matches_table_route():
    # the cases of acceptance 03, evaluated a second, independent way: by
    # lookup in the tables of the whole power L_m^n, whose derived
    # operations come from its implication and exists tables
    rng = random.Random(3)
    algebras = {}
    for _ in range(500):
        formula = random_formula(rng, max_depth=3)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        names = sorted(variables(formula))
        valuation = random_valuation(rng, names, m, n)
        if (m, n) not in algebras:
            algebras[m, n] = FiniteMonadicAlgebra.from_carrier(
                m, n, core.enumerate_power(m, n)
            )
        algebra = algebras[m, n]
        result = _eval_in_tables(algebra, formula, valuation)
        assert algebra.carrier[result] == core.eval_in_power(formula, valuation, n)
