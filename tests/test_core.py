"""Exact connective arithmetic on [0,1] and on finite chains and powers."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import identity_checks
import mmv
from mmv import core
from mmv.syntax import parse

unit = st.fractions(min_value=0, max_value=1)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (F(1), F(2, 5), F(2, 5)),       # 1 -> x collapses to x
        (F(7, 10), F(2, 5), F(7, 10)),  # 1 - 7/10 + 2/5
        (F(2, 5), F(7, 10), F(1)),      # a <= b gives 1
        (F(0), F(0), F(1)),
    ],
)
def test_implication_oracle(a, b, expected):
    assert core.mv_impl(a, b) == expected


def test_connective_oracles():
    assert core.mv_star(F(1, 2), F(1, 2)) == 0
    assert core.mv_star(F(3, 4), F(1, 2)) == F(1, 4)
    assert core.mv_oplus(F(1, 2), F(3, 4)) == 1
    assert core.mv_oplus(F(1, 4), F(1, 4)) == F(1, 2)
    assert core.mv_neg(F(3, 10)) == F(7, 10)
    assert core.mv_meet(F(1, 3), F(1, 2)) == F(1, 3)
    assert core.mv_join(F(1, 3), F(1, 2)) == F(1, 2)


def test_star_power_and_multiple_oracles():
    assert core.star_power(F(1, 2), 2) == 0
    assert core.star_power(F(3, 4), 2) == F(1, 2)
    assert core.star_power(F(3, 4), 0) == 1
    assert core.oplus_multiple(F(1, 4), 2) == F(1, 2)
    assert core.oplus_multiple(F(1, 2), 3) == 1
    assert core.oplus_multiple(F(1, 2), 0) == 0


@given(unit, st.integers(min_value=0, max_value=6))
def test_star_power_matches_iterated_star(a, n):
    expected = F(1)
    for _ in range(n):
        expected = core.mv_star(expected, a)
    assert core.star_power(a, n) == expected


@given(unit, st.integers(min_value=0, max_value=6))
def test_oplus_multiple_matches_iterated_oplus(a, n):
    expected = F(0)
    for _ in range(n):
        expected = core.mv_oplus(expected, a)
    assert core.oplus_multiple(a, n) == expected


@given(unit, unit)
def test_residuation_law(a, b):
    # a*b <= c exactly when a <= b -> c, the defining adjunction
    for c in (F(0), F(1, 3), F(1)):
        assert (core.mv_star(a, b) <= c) == (a <= core.mv_impl(b, c))


@given(unit, unit)
def test_commutativity_and_involution(a, b):
    assert core.mv_star(a, b) == core.mv_star(b, a)
    assert core.mv_oplus(a, b) == core.mv_oplus(b, a)
    assert core.mv_neg(core.mv_neg(a)) == a
    assert core.mv_impl(a, b) == core.mv_impl(core.mv_neg(b), core.mv_neg(a))


@given(unit, unit)
def test_prelinearity_and_lattice_from_implication(a, b):
    assert core.mv_join(core.mv_impl(a, b), core.mv_impl(b, a)) == 1
    assert core.mv_join(a, b) == core.mv_impl(core.mv_impl(a, b), b)
    assert core.mv_meet(a, b) == core.mv_neg(
        core.mv_join(core.mv_neg(a), core.mv_neg(b))
    )


def test_chain_enumeration_and_membership():
    assert core.enumerate_chain(2) == (F(0), F(1, 2), F(1))
    assert core.enumerate_chain(1) == (F(0), F(1))
    assert core.in_chain(F(2, 4), 2)
    assert not core.in_chain(F(1, 3), 2)
    assert core.in_chain(F(1, 3), 6)  # L_m sits inside L_km unchanged


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_chains_are_closed_under_every_connective(m):
    chain = core.enumerate_chain(m)
    for a in chain:
        assert core.in_chain(core.mv_neg(a), m)
        for b in chain:
            for op in ("impl", "star", "oplus", "meet", "join"):
                assert core.in_chain(core.mv_binop(op, a, b), m)


def test_pointwise_power_operations():
    a, b = (F(1), F(1, 2)), (F(0), F(1))
    assert core.power_binop("impl", a, b) == (F(0), F(1))
    assert core.power_neg(a) == (F(0), F(1, 2))
    assert core.exists_sup(a) == (F(1), F(1))
    assert core.forall_inf(a) == (F(1, 2), F(1, 2))
    assert core.const_tuple(F(1, 3), 3) == (F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(core.DimensionError):
        core.power_binop("impl", a, (F(0),))


def test_power_enumeration_and_membership():
    points = core.enumerate_power(1, 2)
    assert len(points) == 4 and (F(1), F(0)) in points
    assert core.in_power((F(1), F(0)), 1, 2)
    assert not core.in_power((F(1, 2), F(0)), 1, 2)
    assert not core.in_power((F(1),), 1, 2)


def test_rational_parsing_and_formatting():
    assert core.parse_rational("7/10") == F(7, 10)
    assert core.parse_rational("1") == F(1)
    assert core.format_rational(F(1, 2)) == "1/2"
    assert core.format_tuple((F(1), F(1, 2))) == ["1", "1/2"]
    assert core.parse_tuple(["1", "1/2"]) == (F(1), F(1, 2))
    for bad in ("3/2", "-1/4", "abc", "1/0"):
        with pytest.raises(ValueError):
            core.parse_rational(bad)


def test_algebraic_evaluation_oracles():
    # two worlds, p true at the first only: the modal collapse fails
    value = core.eval_in_power(parse("<>p -> []p"), {"p": (F(1), F(0))}, 2)
    assert value == (F(0), F(0))
    value = core.eval_in_power(parse("[]p -> p"), {"p": (F(1), F(1, 2))}, 2)
    assert value == (F(1), F(1))
    value = core.eval_in_power(parse("p*q (+) ~p"), {"p": (F(1),), "q": (F(1, 3),)}, 1)
    assert value == (F(1, 3),)


def test_quantifier_identities_exhaustively_small():
    # every pair in the square of the two-element chain
    points = core.enumerate_power(1, 2)
    constants = [core.const_tuple(v, 2) for v in core.enumerate_chain(1)]
    for a in points:
        for b in points:
            assert identity_checks.quantifier_identity_violations(a, b) == []
            for c in constants:
                assert identity_checks.order_fact_violations(a, b, c) == []
        assert identity_checks.arithmetic_fact_violations(a) == []


def test_exact_layers_import_without_numpy():
    # the package itself imports no submodule, so only the layers that scan
    # grids or build algebra tables pull in numpy: `search` defers the scan
    # layer to the first scan, and `cli` imports `analysis` per command
    code = (
        "import sys, mmv.syntax, mmv.core, mmv.semantics, mmv.randgen, "
        "mmv.search, mmv.proofs, mmv.cli; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    src = str(Path(mmv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
