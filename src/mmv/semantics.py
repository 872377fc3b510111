"""Finite structures for the modal logic and exact evaluation over them.

A structure is a finite set of worlds together with a truth-value assignment
for each propositional variable at each world.  Truth values live in [0,1]
and are exact rationals.  Box takes the infimum of its argument's values
across all worlds, diamond the supremum; with finitely many worlds both are
attained, so every finite structure is safe to evaluate in full.  Read
world by world, the valuation of an n-world structure is an element of the
power algebra L^n, with box and diamond the coordinatewise infimum and
supremum; `evaluate` is therefore `core.eval_in_power`, the one exact
evaluator.  Values are range-checked once, when a structure is built.

A structure is a model of a set of premises when every premise evaluates to
1 at every world.  `check_consequence_on_model` reports what one structure
says about a consequence claim: nothing (it is not a model of the premises),
consistency (premises and conclusion all hold), or refutation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import core
from .core import MonadicElement
from .syntax import Formula, InputError

_ONE = Fraction(1)
_ZERO = Fraction(0)


class ConsequenceVerdict(enum.Enum):
    NOT_APPLICABLE = "not-applicable"
    CONSISTENT = "consistent"
    REFUTES = "refutes"


@dataclass(frozen=True, eq=True)
class SafeStructure:
    """Finitely many worlds plus a per-world rational valuation.

    `valuation` maps variable names to tuples of length `worlds`, one value
    per world, each in [0,1].  `worlds` is at most `core.MAX_WORLDS`.
    """

    worlds: int
    valuation: Mapping[str, MonadicElement] = field(default_factory=dict)

    def __post_init__(self):
        if self.worlds < 1:
            raise InputError(f"need at least one world, got {self.worlds}")
        if self.worlds > core.MAX_WORLDS:
            raise InputError(f"at most {core.MAX_WORLDS} worlds are supported, got {self.worlds}")
        for name, values in self.valuation.items():
            if len(values) != self.worlds:
                raise InputError(
                    f"variable {name!r} has {len(values)} values for {self.worlds} worlds"
                )
            for value in values:
                if not _ZERO <= value <= _ONE:
                    raise InputError(f"variable {name!r} value {value} outside [0,1]")


def evaluate(structure: SafeStructure, formula: Formula) -> MonadicElement:
    """Truth value of the formula at every world, as a tuple.

    Box/diamond give the minimum/maximum across worlds; the other
    connectives act within each world.
    """
    return core.eval_in_power(formula, structure.valuation, structure.worlds)


def holds(structure: SafeStructure, formula: Formula) -> bool:
    """Does the formula take value 1 at every world?"""
    return all(value == _ONE for value in evaluate(structure, formula))


def is_model(structure: SafeStructure, premises: Iterable[Formula]) -> bool:
    """Is the structure a model of every premise?"""
    return all(holds(structure, premise) for premise in premises)


def check_consequence_on_model(
    structure: SafeStructure, premises: Iterable[Formula], conclusion: Formula
) -> ConsequenceVerdict:
    """What this one structure says about `premises |= conclusion`."""
    if not is_model(structure, premises):
        return ConsequenceVerdict.NOT_APPLICABLE
    if holds(structure, conclusion):
        return ConsequenceVerdict.CONSISTENT
    return ConsequenceVerdict.REFUTES


# ---------------------------------------------------------------------------
# JSON form: {"worlds": 2, "valuation": {"p": ["1", "1/2"]}}


def model_to_json(structure: SafeStructure) -> dict:
    return {
        "worlds": structure.worlds,
        "valuation": {
            name: core.format_tuple(values)
            for name, values in sorted(structure.valuation.items())
        },
    }


def model_from_json(data: object) -> SafeStructure:
    """Build a structure from parsed JSON, validating shape and ranges."""
    if not isinstance(data, dict):
        raise InputError("model JSON must be an object")
    worlds = data.get("worlds")
    if not isinstance(worlds, int) or isinstance(worlds, bool):
        raise InputError('model JSON needs an integer "worlds" field')
    valuation_data = data.get("valuation", {})
    if not isinstance(valuation_data, dict):
        raise InputError('"valuation" must map variable names to value lists')
    valuation: dict[str, MonadicElement] = {}
    for name, items in valuation_data.items():
        if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
            raise InputError(f"values for {name!r} must be a list of rational strings")
        valuation[name] = core.parse_tuple(items)
    return SafeStructure(worlds=worlds, valuation=valuation)
