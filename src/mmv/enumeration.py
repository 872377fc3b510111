"""Bulk evaluation of formulas over grids of chain-valued assignments.

Exhaustively scanning every valuation of v variables by n-tuples over the
chain {0, 1/m, ..., 1} means (m+1)^(n*v) assignments.  Doing that with
Fraction objects is hopeless at the sizes the search and audit commands need,
so this module evaluates vectorized over a whole block of assignments at
once: the chain is represented by integers 0..m (k standing for k/m), under
which every operation has an exact integer form:

    neg a    = m - a              impl a b = min(m, m - a + b)
    star a b = max(0, a + b - m)  oplus a b = min(m, a + b)
    meet/join = min/max           box/dia   = min/max over the worlds

The scaling k <-> k/m is an isomorphism onto the Fraction arithmetic in
`mmv.core`, so results are exact; callers re-verify hits through the scalar
route anyway.

A claim, premises and a target, is compiled once (`compile_claim`) into a
hash-consed op list in topological order: structurally equal subformulas
share one op, and box/dia of a world-independent value is the value itself.
The one program then runs on every cell (`scan_program`) and on the row
multisets (`multisets_clean`); `scan_cell` and `valid_in_cells` compile and
call those.  Blocks are world-major: variable v of assignment a at world w
sits at `grid[v, w, a]`, so a value is an (n, A) array whose rows are worlds
(or a (1, A) array once it no longer depends on the world), and box/dia are
n-1 elementwise min/max over the rows.  Values are int16 (int64 for chains
too long for int16 to hold 2m).

Assignment order within a cell is descending lexicographic: variables in
sorted name order, coordinates left to right, values from 1 down to 0.  Index
0 is the all-ones assignment.  Exhaustive cells are decoded chunk by chunk
into read-only grids kept in a least-recently-used cache bounded by
`_GRID_CACHE_BYTES`, so the many formulas scanned over one cell share one
decode.  Cells larger than the cap are sampled uniformly with a seeded
generator instead of enumerated.  Either way a hit is read off the grid it
was found in, whose entries are the scaled values themselves.

Validity of a claim over a whole range of cells needs far fewer
assignments (`valid_in_cells`).  With box and dia read as inf and sup over
the worlds, a formula's value at a world depends only on that world's row
(the values of the variables there) and on the *set* of rows of all the
worlds: permuting worlds or duplicating one changes no value.  A failure,
every premise 1 at every world and the target below 1 at some world, is
therefore still a failure with n' worlds once some world is repeated up to
n worlds, and one multiset of n rows stands for every ordering of them.
The chain L_m' is a subalgebra of L_m whenever m' divides m (k/m' is
(k m/m')/m), so a failure over L_m' is a failure over L_m.  Every
m' <= m_max divides its largest multiple below m_max + 1, and that multiple
divides no larger m <= m_max.  Hence a claim has no failure in any
assignment of any cell m <= m_max, n <= n_max exactly when it has none in
any multiset of n_max rows over L_m^v, for each m in m_max // 2 + 1 ..
m_max (the m that divide no larger m <= m_max, since m divides 2m).  At
m_max = n_max = v = 3 that is C(66, 3) + C(29, 3) = 49,414 multisets
against the 287,327 assignments of the nine cells.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import MonadicElement
from .syntax import (
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
)

_CHUNK = 1 << 16
# Exhaustive cells are indexed in int64, so they must have fewer assignments.
_INDEX_LIMIT = 2**63
# Decoded exhaustive chunks kept between scans.  The largest chunk an
# exhaustive cell can have is 62 digits x 2**16 assignments x 2 bytes (8 MB),
# the whole m, n, v <= 3 grid is 5 MB, and the row multisets the audits
# scan at m, n, v <= 3 are under 1 MB.
_GRID_CACHE_BYTES = 16 << 20

_VAR, _CONST, _NOT, _BOX, _DIA, _IMPL, _STAR, _OPLUS, _MEET, _JOIN = range(10)
_CODES = {
    Not: _NOT, Box: _BOX, Dia: _DIA,
    Impl: _IMPL, Star: _STAR, Oplus: _OPLUS, Meet: _MEET, Join: _JOIN,
}


def cell_size(m: int, n: int, nvars: int) -> int:
    """Number of assignments of nvars variables by n-tuples over the m-chain."""
    return (m + 1) ** (n * nvars)


def check_cell(m: int, n: int, nvars: int, cap: int) -> bool:
    """True when the cell is scanned in full, False when it is sampled.

    Raises InputError for a cell within the cap that has 2**63 or more
    assignments: its indices would wrap in int64 and the scan would cover
    the wrong grid.
    """
    total = cell_size(m, n, nvars)
    if total > cap:
        return False
    if total >= _INDEX_LIMIT:
        raise InputError(
            f"cell m={m}, n={n} with {nvars} variables has {total} assignments; "
            f"an exhaustive scan needs fewer than 2**63 (lower the cap to sample it)"
        )
    return True


# ---------------------------------------------------------------------------
# Compiled formulas


@dataclass(frozen=True)
class _Program:
    """Hash-consed ops of several formulas, children before parents.

    An op is (code, a, b): for a variable `a` is its slot in `names`, for a
    constant 0 or 1; otherwise `a` and `b` (None for unary ops) are the
    indices of the operands.  `steps[k]` lists, in order, the ops root k
    needs that earlier roots do not.
    """

    names: tuple[str, ...]
    ops: tuple[tuple[int, object, object], ...]
    roots: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]


def _compile(formulas: Sequence[Formula]) -> _Program:
    ops: list[tuple[int, object, object]] = []
    flat: list[bool] = []  # does the op's value not depend on the world?
    interned: dict[tuple, int] = {}
    seen: dict[int, int] = {}  # id(node) -> op, so shared objects compile once

    def intern(key: tuple, is_flat: bool) -> int:
        index = interned.get(key)
        if index is None:
            index = interned[key] = len(ops)
            ops.append(key)
            flat.append(is_flat)
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
    for f in formulas:
        start = len(ops)
        roots.append(visit(f))
        steps.append(tuple(range(start, len(ops))))
    names = tuple(sorted({op[1] for op in ops if op[0] == _VAR}))
    slot = {name: i for i, name in enumerate(names)}
    ops = [(_VAR, slot[op[1]], None) if op[0] == _VAR else op for op in ops]
    return _Program(names, tuple(ops), tuple(roots), tuple(steps))


def _fold_rows(ufunc: np.ufunc, value: np.ndarray) -> np.ndarray:
    """Combine the world rows of an (n, A) block into one (1, A) row."""
    if len(value) == 1:
        return value
    out = ufunc(value[0], value[1])
    for row in value[2:]:
        ufunc(out, row, out=out)
    return out[None]


def _consts(m: int, block: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """The (1, A) rows of 0s and of ms."""
    return np.zeros((1, block), dtype=dtype), np.full((1, block), m, dtype=dtype)


def _run(
    program: _Program,
    root: int,
    grid: Sequence[np.ndarray],
    m: int,
    consts: tuple[np.ndarray, np.ndarray],
    values: list,
) -> np.ndarray:
    """Evaluate root `root` on a block; `values` carries ops across roots.

    `grid[slot]` is the (n, A) block of the variable in that slot.  Every
    op comes out as an (n, A) array, or (1, A) when it does not depend on
    the world.  Clamping goes against the rows of 0s and ms, not against
    scalars: numpy's min/max with a scalar operand are several times slower.
    """
    ops = program.ops
    bottom, top = consts
    for index in program.steps[root]:
        code, a, b = ops[index]
        if code == _VAR:
            value = grid[a]
        elif code == _CONST:
            value = consts[a]
        elif code == _NOT:
            value = np.subtract(m, values[a])
        elif code == _BOX:
            value = _fold_rows(np.minimum, values[a])
        elif code == _DIA:
            value = _fold_rows(np.maximum, values[a])
        elif code == _IMPL:
            value = np.subtract(values[b], values[a])
            value += m
            np.minimum(value, top, out=value)
        elif code == _STAR:
            value = np.add(values[a], values[b])
            value -= m
            np.maximum(value, bottom, out=value)
        elif code == _OPLUS:
            value = np.add(values[a], values[b])
            np.minimum(value, top, out=value)
        elif code == _MEET:
            value = np.minimum(values[a], values[b])
        else:
            value = np.maximum(values[a], values[b])
        values[index] = value
    return values[program.roots[root]]


def _holds(value: np.ndarray, m: int) -> np.ndarray:
    """Mask over the block: is the value 1 at every world?"""
    return _fold_rows(np.minimum, value)[0] == m


def eval_bulk(formula: Formula, arrays: Mapping[str, np.ndarray], m: int) -> np.ndarray:
    """Evaluate over a block of assignments in scaled-integer form.

    `arrays` maps each variable to an (A, n) integer array of scaled values.
    The result broadcasts against (A, n); constants come back 0-dimensional.
    """
    program = _compile([formula])
    try:
        grid = [np.asarray(arrays[name]).T for name in program.names]
    except KeyError as exc:
        raise ValueError(f"no assignment block for variable {exc.args[0]!r}") from None
    consts = _consts(m, grid[0].shape[-1] if grid else 1, np.result_type(np.int32, *grid))
    value = _run(program, 0, grid, m, consts, [None] * len(program.ops))
    return value.T if grid else value.reshape(())


# ---------------------------------------------------------------------------
# Grids


def _dtype(m: int) -> type:
    """int16 when it holds every intermediate value, -m .. 2m; int64 otherwise."""
    return np.int16 if 2 * m <= np.iinfo(np.int16).max else np.int64


def _digits(m: int, count: int, indices: np.ndarray) -> np.ndarray:
    """Read-only (count, *indices.shape) array of the base-(m+1) digits of
    `indices`, most significant first, each digit d stored as m - d."""
    rest = indices
    grid = np.empty((count, *indices.shape), dtype=_dtype(m))
    for position in range(count - 1, -1, -1):
        rest, digit = np.divmod(rest, m + 1)
        np.subtract(m, digit, out=grid[position], casting="unsafe")
    grid.flags.writeable = False
    return grid


def _decode(m: int, n: int, nvars: int, start: int, stop: int) -> np.ndarray:
    """Read-only (nvars, n, A) grid of the assignments with indices start..stop-1.

    Digit d at a position encodes scaled value m - d, so index 0 is the
    all-ones assignment and the order is descending lexicographic.
    """
    indices = np.arange(start, stop, dtype=np.int64)
    return _digits(m, n * nvars, indices).reshape(nvars, n, stop - start)


class _GridCache:
    """Decoded chunks, least recently used first, bounded in bytes."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._chunks: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def get(
        self, m: int, n: int, nvars: int, start: int, stop: int, multisets: bool = False
    ) -> np.ndarray:
        """Assignments start..stop-1 of the cell, decoded as by `_decode`, or
        with `multisets` the multisets start..stop-1 of n world rows
        (`_multiset_chunk` on the rows of cell (m, 1))."""
        key = (m, n, nvars, start, stop, "multisets") if multisets else (m, n, nvars, start, stop)
        grid = self._chunks.get(key)
        if grid is not None:
            self._chunks.move_to_end(key)
            return grid
        if multisets:
            rows = self.get(m, 1, nvars, 0, cell_size(m, 1, nvars))[:, 0]
            grid = _multiset_chunk(rows, n, start, stop)
        else:
            grid = _decode(m, n, nvars, start, stop)
        self._chunks[key] = grid
        self.nbytes += grid.nbytes
        while self.nbytes > self.max_bytes and len(self._chunks) > 1:
            _, old = self._chunks.popitem(last=False)
            self.nbytes -= old.nbytes
        return grid

    def clear(self) -> None:
        self._chunks.clear()
        self.nbytes = 0


_GRIDS = _GridCache(_GRID_CACHE_BYTES)


@dataclass(frozen=True)
class CellResult:
    """Outcome of scanning one (m, n) cell."""

    found: bool
    valuation: dict[str, MonadicElement] | None
    checked: int
    exhaustive: bool


def _scan_blocks(
    m: int, n: int, nvars: int, cap: int, seed: object, exhaustive: bool
) -> Iterator[np.ndarray]:
    """Yield the (nvars, n, A) grids of the cell in scan order, exhaustive
    or sampled.

    Sampled blocks are drawn into one buffer, each over the last, so a
    caller is done with a grid once it asks for the next.
    """
    if exhaustive:
        total = cell_size(m, n, nvars)
        for start in range(0, total, _CHUNK):
            yield _GRIDS.get(m, n, nvars, start, min(start + _CHUNK, total))
    else:
        rng = np.random.default_rng(seed)
        remaining = cap
        buffer = np.empty((nvars, n, min(_CHUNK, cap)), dtype=_dtype(m))
        while remaining > 0:
            block = min(_CHUNK, remaining)
            grid = buffer[:, :, :block]
            for slot in range(nvars):
                grid[slot] = rng.integers(0, m + 1, size=(block, n), dtype=np.int32).T
            yield grid
            remaining -= block


def _first_failure(program: _Program, grid: np.ndarray, m: int, values: list) -> int | None:
    """Index in the grid of the first assignment where every root but the
    last (the premises) holds at every world and the last root (the target)
    fails at some world, or None.

    `values` is one list per scan, one slot per op, which `_run` overwrites
    block after block.  A block's arrays are then freed only as the next
    block's replace them, so the allocator does not hand their pages back
    to the system and fault them in again for every block.
    """
    premises = len(program.roots) - 1
    consts = _consts(m, grid.shape[-1], grid.dtype)
    mask = None  # where every premise so far holds
    for k in range(premises):
        holds = _holds(_run(program, k, grid, m, consts, values), m)
        mask = holds if mask is None else np.logical_and(mask, holds, out=mask)
        if not mask.any():
            return None
    holds = _holds(_run(program, premises, grid, m, consts, values), m)
    if mask is None:
        # premise-free blocks are mostly clean, and one test settles those
        return None if holds.all() else int(np.argmin(holds))
    mask &= ~holds
    return int(np.argmax(mask)) if mask.any() else None


def compile_claim(premises: Sequence[Formula], target: Formula) -> _Program:
    """The program `scan_program` and `multisets_clean` run: the premises'
    roots in order, then the target's."""
    return _compile([*premises, target])


def scan_program(program: _Program, m: int, n: int, cap: int, seed: object) -> CellResult:
    """`scan_cell` on a claim compiled by `compile_claim`."""
    names = program.names
    exhaustive = check_cell(m, n, len(names), cap)
    checked = 0
    values: list = [None] * len(program.ops)
    for grid in _scan_blocks(m, n, len(names), cap, seed, exhaustive):
        hit = _first_failure(program, grid, m, values)
        if hit is not None:
            valuation = {
                name: tuple(Fraction(v, m) for v in row)
                for name, row in zip(names, grid[:, :, hit].tolist())
            }
            return CellResult(True, valuation, checked + hit + 1, exhaustive)
        checked += grid.shape[-1]
    return CellResult(False, None, checked, exhaustive)


def scan_cell(
    premises: Sequence[Formula],
    target: Formula,
    m: int,
    n: int,
    cap: int,
    seed: object,
) -> CellResult:
    """Look for an assignment where every premise holds and the target fails.

    "Holds" means value 1 at every world.  Scans the whole cell when its size
    is within the cap, otherwise samples `cap` assignments with the seed.
    Returns the first hit in scan order.  Raises InputError for a cell
    within the cap too large to index (see `check_cell`).
    """
    return scan_program(compile_claim(premises, target), m, n, cap, seed)


def _multiset_grids(m: int, n: int, nvars: int) -> Iterator[np.ndarray]:
    """Yield read-only (nvars, n, A) grids of every multiset of n world rows
    over L_m^nvars, chunk by chunk, in the order of
    `combinations_with_replacement` over the rows; a row is an index below
    (m+1)^nvars, decoded like the assignment of one world.  Chunks share the
    cache of the cell grids.  Raises ValueError when there are 2**63 or more
    multisets, which int64 ranks cannot index.
    """
    total = comb(cell_size(m, 1, nvars) + n - 1, n)
    if total >= _INDEX_LIMIT:
        raise ValueError(f"{total} multisets of {n} rows need fewer than 2**63 to be ranked")
    for start in range(0, total, _CHUNK):
        yield _GRIDS.get(m, n, nvars, start, min(start + _CHUNK, total), multisets=True)


@lru_cache(maxsize=32)
def _binomials(rows: int, n: int) -> tuple[np.ndarray, ...]:
    """For k = 1..n, C(x, k) for x = 0..rows + k - 2: the entries that
    unranking multisets of n out of `rows` reads, each below
    C(rows + n - 1, n).  C(x, k) is the sum of C(y, k - 1) over y < x."""
    tables = []
    table = np.ones(rows - 1, dtype=np.int64)
    for _ in range(n):
        table = np.concatenate(([0], np.cumsum(table)))
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _multiset_chunk(rows: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """Read-only (nvars, n, A) grid of the multisets start..stop-1 of n of
    the (nvars, R) `rows`, in the order of `combinations_with_replacement`.

    The multiset of rows a_1 <= ... <= a_n is the combination a_k + k - 1
    of n out of N = R + n - 1, and lexicographic rank i is colex rank
    C(N, n) - 1 - i of its reflection x -> N - 1 - x.  That rank is
    unranked in the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3),
    one `searchsorted` per position, and the rows are gathered.
    """
    count = rows.shape[1]
    rank = (comb(count + n - 1, n) - 1) - np.arange(start, stop, dtype=np.int64)
    picked = np.empty((n, stop - start), dtype=np.int64)
    for k, table in zip(range(n, 0, -1), reversed(_binomials(count, n))):
        c = np.searchsorted(table, rank, side="right") - 1
        rank -= table[c]
        picked[n - k] = count + k - 2 - c
    grid = np.take(rows, picked, axis=1)
    grid.flags.writeable = False
    return grid


def _tops(m_max: int) -> range:
    """The m whose multisets `valid_in_cells` scans: those dividing no larger
    m <= m_max (see the module docstring)."""
    return range(m_max // 2 + 1, m_max + 1)


@lru_cache(maxsize=256)
def _multiset_size(m_max: int, n_max: int, nvars: int) -> tuple[int, int]:
    """The count of the row multisets for these bounds, and their grids' bytes."""
    counts = {m: comb(cell_size(m, 1, nvars) + n_max - 1, n_max) for m in _tops(m_max)}
    nbytes = sum(
        count * nvars * n_max * np.dtype(_dtype(m)).itemsize for m, count in counts.items()
    )
    return sum(counts.values()), nbytes


def multiset_cost(m_max: int, n_max: int, nvars: int) -> tuple[int, bool]:
    """How many row multisets `valid_in_cells` evaluates for these bounds,
    and whether their grids fit in the grid cache together; `search.scan_cells`
    routes on these."""
    count, nbytes = _multiset_size(m_max, n_max, nvars)
    return count, nbytes <= _GRIDS.max_bytes


def multisets_clean(program: _Program, m_max: int, n_max: int) -> bool:
    """`valid_in_cells` on a claim compiled by `compile_claim`."""
    if n_max < 1:
        return True
    values: list = [None] * len(program.ops)
    return not any(
        _first_failure(program, grid, m, values) is not None
        for m in _tops(m_max)
        for grid in _multiset_grids(m, n_max, len(program.names))
    )


def valid_in_cells(
    premises: Sequence[Formula], target: Formula, m_max: int, n_max: int
) -> bool:
    """Does the target hold at every world of every assignment of every cell
    m <= m_max, n <= n_max where every premise holds at every world?

    Compiles the claim once and scans the multisets of n_max world rows
    over L_m for each m in m_max // 2 + 1 .. m_max; the module docstring
    shows why that decides every cell.  It does not say where a failure is:
    callers that need a witness scan the cells with `scan_cell`.
    """
    return multisets_clean(compile_claim(premises, target), m_max, n_max)
