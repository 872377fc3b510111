"""Reference recursive walkers for `mmv.enumeration._compile` and the printer.

These are the compiler and the printer as they were before every formula
walk in `mmv` became iterative: each recursed once per nesting level.  They
share the node types, the op codes and the precedence table, so on formulas
within Python's recursion limit they must return exactly what the iterative
walkers return.
"""

from __future__ import annotations

from typing import Sequence

from mmv.enumeration import _BOX, _CODES, _CONST, _DIA, _NOT, _VAR, _Program
from mmv.syntax import (
    _BINARY_INFO,
    _PREC_IMPL,
    _PREC_UNARY,
    _UNARY_INFO,
    UNARY_TYPES,
    Const,
    Formula,
    Impl,
    MetaVar,
    Var,
)


def compile_formulas(formulas: Sequence[Formula]) -> _Program:
    ops: list[tuple[int, object, object]] = []
    flat: list[bool] = []  # does the op's value not depend on the world?
    # the last read of each op's value: by op j (j), or by root k's `_holds`
    # right after its steps (-1 - k); reads are recorded in run order
    last: list[int | None] = []
    interned: dict[tuple, int] = {}
    seen: dict[int, int] = {}  # id(node) -> op, so shared objects compile once

    def intern(key: tuple, is_flat: bool) -> int:
        index = interned.get(key)
        if index is None:
            index = interned[key] = len(ops)
            ops.append(key)
            flat.append(is_flat)
            last.append(None)
            if key[0] > _CONST:
                last[key[1]] = index
                if key[2] is not None:
                    last[key[2]] = index
        return index

    def visit(f: Formula) -> int:
        index = seen.get(id(f))
        if index is not None:
            return index
        if isinstance(f, Var):
            index = intern((_VAR, f.name, None), False)
        elif isinstance(f, Const):
            index = intern((_CONST, 1 if f.value else 0, None), True)
        else:
            code = _CODES.get(type(f))
            if code is None:
                raise TypeError(f"cannot evaluate {f!r}")
            modal = code in (_BOX, _DIA)
            if code == _NOT or modal:
                args = (visit(f.arg), None)
            else:
                args = (visit(f.left), visit(f.right))
            if modal and flat[args[0]]:
                index = args[0]
            else:
                is_flat = modal or all(flat[a] for a in args if a is not None)
                index = intern((code, *args), is_flat)
        seen[id(f)] = index
        return index

    # visiting root k interns exactly the ops it needs that earlier roots
    # did not, children first: those are its steps
    roots, steps = [], []
    for k, f in enumerate(formulas):
        start = len(ops)
        root = visit(f)
        roots.append(root)
        steps.append(range(start, len(ops)))
        last[root] = -1 - k
    # one pass in run order: an op takes a free slot, then frees the slots
    # of the operands it reads last, so it never shares one with them
    slots = [-1] * len(ops)
    free: list[int] = []
    width = 0
    for k, (root, run) in enumerate(zip(roots, steps)):
        for index in run:
            code, a, b = ops[index]
            if code <= _CONST:
                continue
            if free:
                slots[index] = free.pop()
            else:
                slots[index] = width
                width += 1
            if last[a] == index and slots[a] >= 0:
                free.append(slots[a])
            if b is not None and b != a and last[b] == index and slots[b] >= 0:
                free.append(slots[b])
        if last[root] == -1 - k and slots[root] >= 0:
            free.append(slots[root])
    names = tuple(sorted({op[1] for op in ops if op[0] == _VAR}))
    slot = {name: i for i, name in enumerate(names)}
    ops = [(_VAR, slot[op[1]], None) if op[0] == _VAR else op for op in ops]
    return _Program(
        names, tuple(ops), tuple(roots), tuple(tuple(run) for run in steps),
        tuple(slots), width, tuple(flat), 1 + sum(op[0] in (_BOX, _DIA) for op in ops),
    )

_PREC_ATOM = 7


def _precedence(formula: Formula) -> int:
    info = _BINARY_INFO.get(type(formula))
    if info is not None:
        return info[0]
    if type(formula) in _UNARY_INFO:
        return _PREC_UNARY
    return _PREC_ATOM


def _render(formula: Formula, min_prec: int) -> str:
    prec = _precedence(formula)
    if isinstance(formula, Var):
        text = formula.name
    elif isinstance(formula, Const):
        text = str(formula.value)
    elif isinstance(formula, MetaVar):
        text = formula.name
    elif isinstance(formula, UNARY_TYPES):
        text = _UNARY_INFO[type(formula)] + _render(formula.arg, _PREC_UNARY)
    else:
        _, symbol = _BINARY_INFO[type(formula)]
        if isinstance(formula, Impl):
            # right associative: the left child needs parens at equal level
            text = _render(formula.left, prec + 1) + symbol + _render(formula.right, prec)
        else:
            text = _render(formula.left, prec) + symbol + _render(formula.right, prec + 1)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_formula(formula: Formula) -> str:
    return _render(formula, _PREC_IMPL)
