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
n-1 elementwise min/max over the rows.  Every intermediate value lies in
-m .. 2m, so values are int8 while 2m fits in int8 (m <= 63), int16 while it
fits in int16, and int64 beyond.

The kernel allocates nothing per block.  `compile_claim` plans a scratch
slot for every op that is not a variable or a constant: ops run in index
order, root k is read (`_holds`) right after its steps, and a slot is handed
to a later op only once the value in it has been read for the last time,
never to an op that reads it.  Each slot is a byte buffer of one arena per
process (`_ARENA`), grown to the largest block it has served and viewed as
(n, A) or (1, A) arrays of the block's dtype; every op, fold and mask
writes into those views with `out=`.  The arena keeps its buffers between
scans, so their pages are faulted in once per process rather than once per
scan: it holds width x n x `_CHUNK` x itemsize bytes for the widest program
(`_Program.width` slots) and the largest n scanned, plus five rows of
`_CHUNK` values and masks.

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
    postorder,
)

_CHUNK = 1 << 16
# Exhaustive cells are indexed in int64, so they must have fewer assignments.
_INDEX_LIMIT = 2**63
# Decoded exhaustive chunks kept between scans.  The largest chunk an
# exhaustive cell can have is 62 digits x 2**16 assignments x 1 byte (4 MB,
# at m = 1), the whole m, n, v <= 3 grid is 2.6 MB, and the row multisets
# the audits scan at m, n, v <= 3 are under 0.5 MB.
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
    needs that earlier roots do not.  Every other op writes into scratch
    slot `slots[op]` of `width` (variables and constants have slot -1), and
    `flat[op]` says its value does not depend on the world.
    """

    names: tuple[str, ...]
    ops: tuple[tuple[int, object, object], ...]
    roots: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    slots: tuple[int, ...]
    width: int
    flat: tuple[bool, ...]


def _compile(formulas: Sequence[Formula]) -> _Program:
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

    # compiling root k interns exactly the ops it needs that earlier roots
    # did not, children first: those are its steps
    roots, steps = [], []
    for k, formula in enumerate(formulas):
        start = len(ops)
        for f in postorder(formula):
            if id(f) in seen:
                continue
            code = _CODES.get(type(f))
            if code is None:
                if isinstance(f, Var):
                    index = intern((_VAR, f.name, None), False)
                elif isinstance(f, Const):
                    index = intern((_CONST, 1 if f.value else 0, None), True)
                else:
                    raise TypeError(f"cannot evaluate {f!r}")
            elif code == _NOT:
                a = seen[id(f.arg)]
                index = intern((code, a, None), flat[a])
            elif code <= _DIA:
                a = seen[id(f.arg)]
                index = a if flat[a] else intern((code, a, None), True)
            else:
                a, b = seen[id(f.left)], seen[id(f.right)]
                index = intern((code, a, b), flat[a] and flat[b])
            seen[id(f)] = index
        root = seen[id(formula)]
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
        tuple(slots), width, tuple(flat),
    )


class _Scratch:
    """The arena's views for one block shape: `views[flat][slot]` is slot
    `slot` as an (n, A) array, or as a (1, A) array when `flat`; `bottom`
    and `top` are (1, A) rows of 0s and of ms, `row` a (1, A) row to fold
    into, and `holds` and `mask` boolean (A,) masks."""

    __slots__ = ("views", "bottom", "top", "row", "holds", "mask")


class _Arena:
    """Scratch memory the kernel writes into, kept for the life of the process.

    Buffer s backs slot s of every program; `rows` backs the rows and masks
    of `_Scratch`, which every block shape shares, so `bottom` and `top`
    are filled again whenever the shape or m changes.  A buffer is replaced
    by a larger one only when a block needs more bytes than it has.  Views
    are cached for up to 256 block shapes (n, A, dtype).
    """

    def __init__(self):
        self.buffers: list[np.ndarray] = []
        self.rows = np.empty(0, dtype=np.uint8)
        self._scratch: dict[tuple, _Scratch] = {}
        self._filled: tuple | None = None  # the shape and m `rows` holds

    def scratch(self, m: int, n: int, block: int, dtype: np.dtype, width: int) -> _Scratch:
        """Views of the first `width` slots and of the rows for a block of n
        worlds and `block` assignments, with `top` filled with m."""
        key = (n, block, np.dtype(dtype))
        scratch = self._scratch.get(key)
        if scratch is None or len(scratch.views[0]) < width:
            scratch = self._views(*key, width)
        if self._filled != (key, m):
            scratch.bottom.fill(0)
            scratch.top.fill(m)
            self._filled = (key, m)
        return scratch

    def _grow(self, buffer: np.ndarray, nbytes: int) -> np.ndarray:
        """`buffer`, or a new one of `nbytes` bytes when it has fewer."""
        if buffer.nbytes >= nbytes:
            return buffer
        self._scratch.clear()  # their views would keep the old buffer alive
        self._filled = None
        return np.empty(nbytes, dtype=np.uint8)

    def _views(self, n: int, block: int, dtype: np.dtype, width: int) -> _Scratch:
        size, line = n * block * dtype.itemsize, block * dtype.itemsize
        self.buffers += [np.empty(0, dtype=np.uint8)] * (width - len(self.buffers))
        self.buffers[:width] = [self._grow(buffer, size) for buffer in self.buffers[:width]]
        self.rows = self._grow(self.rows, 3 * line + 2 * block)
        if len(self._scratch) >= 256:
            self._scratch.clear()
        scratch = self._scratch[n, block, dtype] = _Scratch()
        slots = [buffer[:size].view(dtype).reshape(n, block) for buffer in self.buffers[:width]]
        scratch.views = (slots, [value[:1] for value in slots])
        scratch.bottom, scratch.top, scratch.row = (
            self.rows[i * line : (i + 1) * line].view(dtype).reshape(1, block) for i in range(3)
        )
        scratch.holds, scratch.mask = (
            self.rows[3 * line + i * block : 3 * line + (i + 1) * block].view(np.bool_)
            for i in range(2)
        )
        return scratch


_ARENA = _Arena()


def _fold_rows(ufunc: np.ufunc, value: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Combine the world rows of an (n, A) block into the (1, A) `out`; a
    one-row value is copied, since `out` must outlive the value's slot."""
    if len(value) == 1:
        np.copyto(out, value)
        return out
    ufunc(value[0], value[1], out=out[0])
    for row in value[2:]:
        ufunc(out[0], row, out=out[0])
    return out


def _run(
    program: _Program,
    root: int,
    grid: Sequence[np.ndarray],
    m: int,
    scratch: _Scratch,
    values: list,
) -> np.ndarray:
    """Evaluate root `root` on a block; `values` carries ops across roots.

    `grid[slot]` is the (n, A) block of the variable in that slot.  Every
    other op writes into its slot's view in `scratch`: (n, A), or (1, A)
    when it does not depend on the world.  Clamping goes against the rows of
    0s and ms, not against scalars: numpy's min/max with a scalar operand
    are several times slower.
    """
    ops, slots, flat, views = program.ops, program.slots, program.flat, scratch.views
    bottom, top = scratch.bottom, scratch.top
    for index in program.steps[root]:
        code, a, b = ops[index]
        if code == _VAR:
            values[index] = grid[a]
            continue
        if code == _CONST:
            values[index] = top if a else bottom
            continue
        out = views[flat[index]][slots[index]]
        if code == _NOT:
            np.subtract(m, values[a], out=out)
        elif code == _BOX:
            _fold_rows(np.minimum, values[a], out)
        elif code == _DIA:
            _fold_rows(np.maximum, values[a], out)
        elif code == _IMPL:
            np.subtract(values[b], values[a], out=out)
            out += m
            np.minimum(out, top, out=out)
        elif code == _STAR:
            np.add(values[a], values[b], out=out)
            out -= m
            np.maximum(out, bottom, out=out)
        elif code == _OPLUS:
            np.add(values[a], values[b], out=out)
            np.minimum(out, top, out=out)
        elif code == _MEET:
            np.minimum(values[a], values[b], out=out)
        else:
            np.maximum(values[a], values[b], out=out)
        values[index] = out
    return values[program.roots[root]]


def _holds(value: np.ndarray, m: int, scratch: _Scratch, out: np.ndarray) -> np.ndarray:
    """Mask over the block, written to `out`: is the value 1 at every world?"""
    if len(value) > 1:
        value = _fold_rows(np.minimum, value, scratch.row)
    return np.equal(value[0], m, out=out)


def eval_bulk(formula: Formula, arrays: Mapping[str, np.ndarray], m: int) -> np.ndarray:
    """Evaluate over a block of assignments in scaled-integer form.

    `arrays` maps each variable to an (A, n) integer array of scaled values.
    The result, a new array, broadcasts against (A, n); constants come back
    0-dimensional.
    """
    program = _compile([formula])
    try:
        grid = [np.asarray(arrays[name]).T for name in program.names]
    except KeyError as exc:
        raise ValueError(f"no assignment block for variable {exc.args[0]!r}") from None
    n, block = np.broadcast_shapes(*(g.shape for g in grid)) if grid else (1, 1)
    scratch = _ARENA.scratch(m, n, block, np.result_type(np.int32, *grid), program.width)
    value = _run(program, 0, grid, m, scratch, [None] * len(program.ops))
    return value.T.copy() if grid else value.reshape(()).copy()


# ---------------------------------------------------------------------------
# Grids


def _dtype(m: int) -> type:
    """The narrowest of int8, int16 and int64 that holds every intermediate
    value, -m .. 2m."""
    for dtype in (np.int8, np.int16):
        if 2 * m <= np.iinfo(dtype).max:
            return dtype
    return np.int64


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

    `values` is one list per scan, one entry per op, which `_run` overwrites
    block after block with views of the grid and of the arena: no array is
    allocated per block.
    """
    premises = len(program.roots) - 1
    scratch = _ARENA.scratch(m, grid.shape[1], grid.shape[-1], grid.dtype, program.width)
    mask = None  # where every premise so far holds
    for k in range(premises):
        value = _run(program, k, grid, m, scratch, values)
        if mask is None:
            mask = _holds(value, m, scratch, scratch.mask)
        else:
            np.logical_and(mask, _holds(value, m, scratch, scratch.holds), out=mask)
        if not mask.any():
            return None
    holds = _holds(_run(program, premises, grid, m, scratch, values), m, scratch, scratch.holds)
    if mask is None:
        # premise-free blocks are mostly clean, and one test settles those
        return None if holds.all() else int(np.argmin(holds))
    np.greater(mask, holds, out=mask)  # and the target fails
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
