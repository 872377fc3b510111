"""Exact Lukasiewicz arithmetic on [0,1], finite chains, and finite powers.

Truth values are `fractions.Fraction` instances in [0,1]; every operation is
exact.  The finite chain with denominator m is {0, 1/m, ..., 1} and is closed
under all operations below.  Tuples of chain values form the canonical finite
power algebras: operations act coordinatewise, and the two quantifier-style
operations collapse a tuple to the constant tuple of its maximum (`exists_sup`)
or minimum (`forall_inf`).

`eval_in_power` evaluates a formula under an assignment of tuples, reading box
as `forall_inf` and diamond as `exists_sup`.  It is the one exact evaluator:
an n-world structure of `mmv.semantics` is such an assignment, so
`semantics.evaluate` calls it, and the countermodel search re-verifies its
hits through it.  Tests check it against the table form of the power algebra
(`mmv.analysis`), an independent route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .syntax import (
    BINARY_TYPES,
    Box,
    Const,
    Dia,
    Formula,
    Impl,
    InputError,
    Join,
    Meet,
    Not,
    Oplus,
    Star,
    Var,
    postorder,
)

Rational = Fraction
MonadicElement = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The most worlds a structure, and the most coordinates a functional algebra,
# may have; the loaders reject more as malformed input.  A tuple or row of
# this length takes well under a megabyte, while sizes far past it cannot be
# allocated, and from 2**63 on Python cannot even index them.
MAX_WORLDS = 1 << 16


class DimensionError(ValueError):
    """Tuple operands of mismatched length."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer) into a Fraction in [0,1]."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None
    if not _ZERO <= value <= _ONE:
        raise InputError(f"rational {text!r} outside [0,1]")
    return value


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q"; integers render as "0" / "1"."""
    return str(value)


def parse_tuple(items: Iterable[str]) -> MonadicElement:
    return tuple(parse_rational(item) for item in items)


def format_tuple(element: MonadicElement) -> list[str]:
    return [format_rational(value) for value in element]


# ---------------------------------------------------------------------------
# Scalar operations


def mv_neg(a: Fraction) -> Fraction:
    return _ONE - a


def mv_impl(a: Fraction, b: Fraction) -> Fraction:
    return min(_ONE, _ONE - a + b)


def mv_star(a: Fraction, b: Fraction) -> Fraction:
    return max(_ZERO, a + b - _ONE)


def mv_oplus(a: Fraction, b: Fraction) -> Fraction:
    return min(_ONE, a + b)


def mv_meet(a: Fraction, b: Fraction) -> Fraction:
    return min(a, b)


def mv_join(a: Fraction, b: Fraction) -> Fraction:
    return max(a, b)


BinOp = Callable[[Fraction, Fraction], Fraction]

MV_OPS: dict[str, BinOp] = {
    "impl": mv_impl,
    "star": mv_star,
    "oplus": mv_oplus,
    "meet": mv_meet,
    "join": mv_join,
}


def mv_binop(op: str, a: Fraction, b: Fraction) -> Fraction:
    """Apply a named binary operation to scalars in [0,1]."""
    try:
        func = MV_OPS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    for value in (a, b):
        if not _ZERO <= value <= _ONE:
            raise ValueError(f"operand {value} outside [0,1]")
    return func(a, b)


def star_power(a: Fraction, n: int) -> Fraction:
    """n-fold strong conjunction of a with itself; the empty product is 1."""
    if n < 0:
        raise ValueError("negative exponent")
    # closed form: max(0, n*a - (n-1))
    if n == 0:
        return _ONE
    return max(_ZERO, n * a - (n - 1))


def oplus_multiple(a: Fraction, n: int) -> Fraction:
    """n-fold truncated sum of a with itself; the empty sum is 0."""
    if n < 0:
        raise ValueError("negative multiple")
    return min(_ONE, n * a)


# ---------------------------------------------------------------------------
# Finite chains


def enumerate_chain(m: int) -> tuple[Fraction, ...]:
    """The chain 0, 1/m, ..., 1 in ascending order (m >= 1)."""
    if m < 1:
        raise ValueError(f"chain denominator must be >= 1, got {m}")
    return tuple(Fraction(k, m) for k in range(m + 1))


def in_chain(value: Fraction, m: int) -> bool:
    """Does the value lie on the chain with denominator m?"""
    return _ZERO <= value <= _ONE and (value * m).denominator == 1


# ---------------------------------------------------------------------------
# Finite powers (tuples)


def _check_dims(a: MonadicElement, b: MonadicElement) -> None:
    if len(a) != len(b):
        raise DimensionError(f"tuple lengths differ: {len(a)} vs {len(b)}")


def power_binop(op: str, a: MonadicElement, b: MonadicElement) -> MonadicElement:
    """Coordinatewise binary operation on equal-length tuples."""
    _check_dims(a, b)
    func = MV_OPS.get(op)
    if func is None:
        raise ValueError(f"unknown operation {op!r}")
    return tuple(func(x, y) for x, y in zip(a, b))


def power_neg(a: MonadicElement) -> MonadicElement:
    return tuple(_ONE - x for x in a)


def const_tuple(value: Fraction, n: int) -> MonadicElement:
    if n < 1:
        raise ValueError("tuple length must be >= 1")
    return (value,) * n


def exists_sup(a: MonadicElement) -> MonadicElement:
    """Constant tuple holding the maximum coordinate."""
    if not a:
        raise DimensionError("empty tuple")
    return const_tuple(max(a), len(a))


def forall_inf(a: MonadicElement) -> MonadicElement:
    """Constant tuple holding the minimum coordinate."""
    if not a:
        raise DimensionError("empty tuple")
    return const_tuple(min(a), len(a))


def in_power(element: MonadicElement, m: int, n: int) -> bool:
    """Does the tuple live in the n-fold power of the chain with denominator m?"""
    return len(element) == n and all(in_chain(value, m) for value in element)


def enumerate_power(m: int, n: int) -> Iterable[MonadicElement]:
    """All tuples of the n-fold power of the m-chain, ascending lexicographic."""
    if n < 1:
        raise ValueError("power exponent must be >= 1")
    chain = enumerate_chain(m)
    if n == 1:
        return tuple((v,) for v in chain)
    import itertools

    return tuple(itertools.product(chain, repeat=n))


# ---------------------------------------------------------------------------
# Algebraic evaluation of formulas over a finite power

_POWER_BINOP_NAME = {Impl: "impl", Star: "star", Oplus: "oplus", Meet: "meet", Join: "join"}


def eval_in_power(
    formula: Formula, valuation: Mapping[str, MonadicElement], n: int
) -> MonadicElement:
    """Evaluate a formula under tuple values for its variables.

    Box is read as `forall_inf` and diamond as `exists_sup`.  Every variable
    of the formula must be assigned a tuple of length n.
    """
    values: dict[int, MonadicElement] = {}  # id(node) -> its value
    for f in postorder(formula):
        if isinstance(f, Var):
            try:
                value = valuation[f.name]
            except KeyError:
                raise InputError(f"structure assigns no value to {f.name!r}") from None
            if len(value) != n:
                raise DimensionError(
                    f"value for {f.name!r} has length {len(value)}, expected {n}"
                )
        elif isinstance(f, Const):
            value = const_tuple(_ONE if f.value else _ZERO, n)
        elif isinstance(f, Not):
            value = power_neg(values[id(f.arg)])
        elif isinstance(f, Box):
            value = forall_inf(values[id(f.arg)])
        elif isinstance(f, Dia):
            value = exists_sup(values[id(f.arg)])
        elif isinstance(f, BINARY_TYPES):
            value = power_binop(
                _POWER_BINOP_NAME[type(f)], values[id(f.left)], values[id(f.right)]
            )
        else:
            raise TypeError(f"cannot evaluate {f!r}")
        values[id(f)] = value
    return values[id(formula)]
