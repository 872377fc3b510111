"""Seeded random generation of formulas and schema instances.

Used by the audit commands and the test suite.  All generation goes through
`random.Random` instances handed in by the caller, so identical seeds give
identical formulas everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .syntax import (
    BINARY_TYPES,
    Box,
    Const,
    Dia,
    Formula,
    InputError,
    MetaVar,
    Not,
    Var,
    subformulas,
    substitute,
)


def random_formula(
    rng: random.Random,
    names: Sequence[str] = ("p", "q", "r"),
    max_depth: int = 3,
    modalized: bool = False,
) -> Formula:
    """A random formula of nesting depth at most max_depth.

    With modalized=True the result's truth value is world-independent: leaves
    are constants or boxed/diamonded subformulas, never bare variables.
    """
    if max_depth <= 0:
        if modalized:
            kind = rng.randrange(4)
            if kind == 0:
                return Const(rng.randrange(2))
            inner = Var(rng.choice(names))
            return Box(inner) if kind < 3 else Dia(inner)
        if rng.randrange(6) == 0:
            return Const(rng.randrange(2))
        return Var(rng.choice(names))
    kind = rng.randrange(10)
    if kind < 2:
        return random_formula(rng, names, 0, modalized)
    if kind == 2:
        return Not(random_formula(rng, names, max_depth - 1, modalized))
    if kind == 3:
        return Box(random_formula(rng, names, max_depth - 1, modalized=False))
    if kind == 4:
        return Dia(random_formula(rng, names, max_depth - 1, modalized=False))
    cls = BINARY_TYPES[kind - 5]
    return cls(
        random_formula(rng, names, max_depth - 1, modalized),
        random_formula(rng, names, max_depth - 1, modalized),
    )


def metavariables(pattern: Formula) -> list[MetaVar]:
    """The distinct metavariables of a pattern, in first-occurrence order."""
    seen: dict[str, MetaVar] = {}
    for node in subformulas(pattern):
        if isinstance(node, MetaVar) and node.name not in seen:
            seen[node.name] = node
    return list(seen.values())


def random_instance(
    rng: random.Random,
    pattern: Formula,
    names: Sequence[str] = ("p", "q", "r"),
    max_depth: int = 3,
) -> Formula:
    """Instantiate a schema with random formulas, honoring side conditions."""
    binding = {
        mv.name: random_formula(rng, names, max_depth, modalized=mv.modalized)
        for mv in metavariables(pattern)
    }
    return substitute(pattern, binding)


def random_valuation(
    rng: random.Random, names: Sequence[str], m: int, n: int
) -> dict[str, tuple]:
    """Uniform random n-tuples over the chain {0, 1/m, ..., 1}."""
    return {
        name: tuple(Fraction(rng.randrange(m + 1), m) for _ in range(n))
        for name in names
    }


def check_trials(trials: int, **bounds: int) -> None:
    """Reject a negative trial count, or any named bound below 1."""
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    for name, value in bounds.items():
        if value < 1:
            raise InputError(f"{name} must be >= 1, got {value}")
