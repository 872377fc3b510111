"""Bulk grid scans: exactness against the scalar route and scan-order pins."""

import itertools
import random
import tracemalloc
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

import walk_reference
from mmv import core, enumeration
from mmv.enumeration import cell_size, eval_bulk, scan_cell, valid_in_cells
from mmv.proofs import DEFAULT_AXIOMS
from mmv.randgen import random_formula, random_instance
from mmv.syntax import parse, schema, subformulas, variables


def test_cell_sizes():
    assert cell_size(1, 1, 1) == 2
    assert cell_size(2, 2, 2) == 81
    assert cell_size(3, 3, 3) == 4**9


def test_scan_finds_first_assignment_in_descending_order():
    # assignments start from all-ones and count down; the first value of p
    # that fails "p" itself is the next one down the chain
    result = scan_cell([], parse("p"), m=2, n=1, cap=100, seed=0)
    assert result.found and result.exhaustive
    assert result.valuation == {"p": (F(1, 2),)}
    result = scan_cell([], parse("p"), m=1, n=2, cap=100, seed=0)
    # (1,1) passes; the second assignment in order is (1,0)
    assert result.valuation == {"p": (F(1), F(0))}


def test_scan_respects_premises():
    premises = [parse("[](p \\/ q)")]
    result = scan_cell(premises, parse("[]p \\/ []q"), m=1, n=2, cap=100, seed=0)
    assert result.found
    assert result.valuation == {"p": (F(1), F(0)), "q": (F(0), F(1))}


def test_tautology_scan_exhausts_cell():
    result = scan_cell([], parse("p -> p"), m=2, n=2, cap=10**4, seed=0)
    assert not result.found
    assert result.exhaustive
    assert result.checked == cell_size(2, 2, 1)


def test_chunked_exhaustive_scan_crosses_chunk_boundary():
    # 3 variables at (2,2) give 3^12 = 531441 assignments, several chunks
    target = parse("[](p \\/ q \\/ r) -> ([]p \\/ []q \\/ []r)")
    result = scan_cell([], target, m=2, n=2, cap=10**6, seed=0)
    assert result.found and result.exhaustive
    value = core.eval_in_power(target, result.valuation, 2)
    assert any(v != 1 for v in value)


def test_sampled_scan_is_deterministic_and_verified():
    target = parse("<>p -> []p")
    first = scan_cell([], target, m=3, n=3, cap=50, seed=7)
    second = scan_cell([], target, m=3, n=3, cap=50, seed=7)
    assert first.valuation == second.valuation
    assert not first.exhaustive
    # the seed stream is part of the contract: these are the values the
    # int32 draws in sorted name order have always produced
    assert first.found
    assert first.valuation == {"p": (F(1), F(2, 3), F(2, 3))}
    assert first.checked == 1
    value = core.eval_in_power(target, first.valuation, 3)
    assert any(v != 1 for v in value)
    # a hit in the second sampled block, behind three premises
    premises = [parse("[]p"), parse("[]q"), parse("[](r -> ~r)")]
    deep = scan_cell(premises, parse("<>s -> []s"), m=3, n=3, cap=150_000, seed=8)
    assert deep.found and not deep.exhaustive
    assert deep.checked == 90886
    assert deep.valuation == {
        "p": (F(1), F(1), F(1)),
        "q": (F(1), F(1), F(1)),
        "r": (F(1, 3), F(1, 3), F(0)),
        "s": (F(1, 3), F(2, 3), F(0)),
    }


def test_cached_grids_are_read_only_and_shared_safely():
    first_target = parse("p -> q")
    second_target = parse("[](p /\\ q) -> <>(q /\\ p)")
    expected = []
    for target in (first_target, second_target):
        enumeration._GRIDS.clear()
        expected.append(scan_cell([], target, m=2, n=2, cap=10**4, seed=0))
    enumeration._GRIDS.clear()
    got = [scan_cell([], t, m=2, n=2, cap=10**4, seed=0) for t in (first_target, second_target)]
    assert got == expected
    assert expected[0].found and not expected[1].found
    grid = enumeration._GRIDS.get(2, 2, 2, 0, 81)
    assert grid.shape == (2, 2, 81)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0, 0] = 0


def test_grid_cache_stays_within_its_byte_bound():
    cache = enumeration._GridCache(max_bytes=1250)
    for m in (1, 2, 3):
        grid = cache.get(m, 2, 2, 0, cell_size(m, 2, 2))
        assert cache.nbytes == sum(g.nbytes for g in cache._chunks.values())
        assert cache.nbytes <= 1250 or len(cache._chunks) == 1
        assert grid is cache.get(m, 2, 2, 0, cell_size(m, 2, 2))
    # 16, 81 and 256 assignments x 4 digits x 1 byte: the last grid evicts both
    assert list(cache._chunks) == [(3, 2, 2, 0, 256)]


def test_exhaustive_scan_refuses_cells_too_large_to_index():
    # 14 variables at m=2, n=3: 3**42 > 2**63 assignments, all within the cap
    target = parse(" \\/ ".join(f"p{i}" for i in range(14)))
    with pytest.raises(ValueError, match="2\\*\\*63"):
        scan_cell([], target, m=2, n=3, cap=3**42, seed=0)
    # the same cell is sampled under a smaller cap
    assert not enumeration.check_cell(2, 3, 14, 10**6)
    assert enumeration.check_cell(2, 3, 1, 3**42)


def _scalar_scan(premises, target, m, n):
    """Reference scan: every assignment in descending lexicographic order,
    evaluated with exact Fractions."""
    names = sorted(set().union(*(variables(f) for f in (*premises, target))))
    chain = [F(k, m) for k in range(m, -1, -1)]
    checked = 0
    for digits in itertools.product(chain, repeat=n * len(names)):
        checked += 1
        valuation = {name: digits[i * n : (i + 1) * n] for i, name in enumerate(names)}
        holds = all(
            all(v == 1 for v in core.eval_in_power(p, valuation, n)) for p in premises
        )
        if holds and any(v != 1 for v in core.eval_in_power(target, valuation, n)):
            return True, valuation, checked
    return False, None, checked


_CONSTANT_TARGETS = ("1 -> 0", "[](0 (+) ~0)", "<>1 * ~(1 /\\ 0)", "0 \\/ []~1")


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("v", (0, 1, 2))
def test_scan_matches_scalar_brute_force(m, n, v, monkeypatch):
    rng = random.Random(100 * m + 10 * n + v)
    names = ("p", "q")[:v]
    schemas = list(DEFAULT_AXIOMS.values())
    cases = []
    for index in range(4):
        if v == 0:
            target = parse(_CONSTANT_TARGETS[index])
        elif index == 3:
            target = random_instance(rng, rng.choice(schemas), names, max_depth=2)
        else:
            target = random_formula(rng, names, max_depth=3)
        count = rng.randint(0, 2) if v else 0
        premises = [random_formula(rng, names, max_depth=2) for _ in range(count)]
        cases.append((premises, target))
    for premises, target in cases:
        expected = _scalar_scan(premises, target, m, n)
        for chunk in (enumeration._CHUNK, 5):
            monkeypatch.setattr(enumeration, "_CHUNK", chunk)
            enumeration._GRIDS.clear()
            got = scan_cell(premises, target, m, n, cap=10**4, seed=0)
            assert got.exhaustive
            assert (got.found, got.valuation, got.checked) == expected
    enumeration._GRIDS.clear()


def test_int64_grids_decode_hits_like_int16_grids():
    # 2m does not fit in int16 from m = 16384 on, so these grids are int64
    assert enumeration._dtype(20000) is np.int64
    target = parse("p -> p * p")
    got = scan_cell([], target, m=20000, n=1, cap=10**6, seed=0)
    assert got.exhaustive
    assert (got.found, got.valuation, got.checked) == _scalar_scan([], target, 20000, 1)
    assert got.valuation == {"p": (F(19999, 20000),)} and got.checked == 2
    # a sampled hit at block index 3, behind a premise; values are those the
    # seed stream has always produced
    sampled = scan_cell([parse("[](q -> p)")], parse("p -> p * q"), m=20000, n=2, cap=50, seed=3)
    assert sampled.found and not sampled.exhaustive
    assert sampled.checked == 4
    assert sampled.valuation == {
        "p": (F(3477, 4000), F(11643, 20000)),
        "q": (F(999, 1250), F(5839, 20000)),
    }


def test_dtype_is_the_narrowest_that_holds_minus_m_to_2m():
    assert enumeration._dtype(63) is np.int8
    assert enumeration._dtype(64) is np.int16
    assert enumeration._dtype(16383) is np.int16
    assert enumeration._dtype(16384) is np.int64


def _scalar_sample(premises, target, m, n, cap, seed):
    """Reference for a sampled cell: the int32 draws of the seed stream, in
    sorted name order and blocks of `_CHUNK`, evaluated with exact Fractions."""
    names = sorted(set().union(*(variables(f) for f in (*premises, target))))
    rng = np.random.default_rng(seed)
    checked = 0
    for start in range(0, cap, enumeration._CHUNK):
        block = min(enumeration._CHUNK, cap - start)
        draws = [rng.integers(0, m + 1, size=(block, n), dtype=np.int32) for _ in names]
        for row in range(block):
            checked += 1
            valuation = {
                name: tuple(F(int(x), m) for x in draw[row]) for name, draw in zip(names, draws)
            }
            holds = all(
                all(v == 1 for v in core.eval_in_power(p, valuation, n)) for p in premises
            )
            if holds and any(v != 1 for v in core.eval_in_power(target, valuation, n)):
                return True, valuation, checked
    return False, None, checked


# Claims whose ops reach -m (star) and 2m (impl, oplus) on the way.
_EXTREME_CLAIMS = [
    ((), "(p -> q) * (q -> p)"),
    ((), "p (+) q"),
    (("(p -> q) * (q -> p)",), "p (+) q"),
    ((), "p * q -> p (+) q"),
    (("<>(p -> q) * <>(q -> p)",), "[](p (+) q) -> []p"),
]


@pytest.mark.parametrize("m", (63, 64))
def test_scans_either_side_of_the_int8_bound_match_the_scalar_route(m):
    # m = 63 runs in int8, where 2m = 126 just fits; m = 64 needs int16
    found = 0
    for premises, target in _EXTREME_CLAIMS:
        premises, target = [parse(text) for text in premises], parse(target)
        got = scan_cell(premises, target, m, 1, cap=10**6, seed=0)
        assert got.exhaustive
        assert (got.found, got.valuation, got.checked) == _scalar_scan(premises, target, m, 1)
        sampled = scan_cell(premises, target, m, 2, cap=300, seed=m)
        assert not sampled.exhaustive
        expected = _scalar_sample(premises, target, m, 2, 300, m)
        assert (sampled.found, sampled.valuation, sampled.checked) == expected
        found += sampled.found
    assert 0 < found < len(_EXTREME_CLAIMS)


def _reachable(ops, root):
    found, stack = set(), [root]
    while stack:
        index = stack.pop()
        if index not in found:
            found.add(index)
            code, a, b = ops[index]
            if code > enumeration._CONST:
                stack.extend(c for c in (a, b) if c is not None)
    return found


def _claims(seed):
    """Random claims with 0-3 premises, shared subformulas among them, and
    one random instance of every default axiom."""
    rng = random.Random(seed)
    for _ in range(40):
        formulas = [random_formula(rng, max_depth=4) for _ in range(rng.randint(1, 4))]
        # repeats and subformulas of earlier roots as later roots
        if rng.random() < 0.5:
            formulas.insert(rng.randrange(len(formulas) + 1), rng.choice(formulas))
        if rng.random() < 0.5:
            formulas.append(rng.choice(list(subformulas(rng.choice(formulas)))))
        yield formulas
    for pattern in DEFAULT_AXIOMS.values():
        yield [random_instance(rng, pattern)]


@pytest.mark.parametrize("seed", range(5))
def test_steps_are_the_ops_each_root_adds(seed):
    """steps[k] lists, in order, the ops reachable from root k and from no
    earlier root; each op's operands come before it."""
    for formulas in _claims(seed):
        program = enumeration._compile(formulas)
        done = set()
        for root, steps in zip(program.roots, program.steps, strict=True):
            needed = _reachable(program.ops, root) - done
            assert steps == tuple(sorted(needed))
            done |= needed
        assert done == set(range(len(program.ops)))
        for index, (code, a, b) in enumerate(program.ops):
            if code > enumeration._CONST:
                assert all(c < index for c in (a, b) if c is not None)


@pytest.mark.parametrize("seed", range(5))
def test_compile_matches_the_recursive_reference(seed):
    """The compiler on `syntax.postorder` returns the program of the
    recursive compiler it replaced, every field of it, on random claims with
    shared subformulas and on schema instances."""
    for formulas in _claims(seed):
        assert enumeration._compile(formulas) == walk_reference.compile_formulas(formulas)


def _replay_plan(program):
    """Run a program's slot plan op by op: every op reads its operands from
    slots that still hold them and writes to a slot neither of them is in,
    and every root is still in its slot when it is read."""
    leaf = [code <= enumeration._CONST for code, _, _ in program.ops]
    held = {}  # slot -> the op whose value it holds
    for root, steps in zip(program.roots, program.steps):
        for index in steps:
            if leaf[index]:
                assert program.slots[index] == -1
                continue
            _, a, b = program.ops[index]
            operands = [c for c in (a, b) if c is not None and not leaf[c]]
            for c in operands:
                assert held[program.slots[c]] == c
            assert program.slots[index] not in {program.slots[c] for c in operands}
            held[program.slots[index]] = index
        if not leaf[root]:
            assert held[program.slots[root]] == root
    assert program.width == max(program.slots, default=-1) + 1


@pytest.mark.parametrize("seed", range(5))
def test_slot_plans_keep_every_value_until_its_last_read(seed):
    shared = 0
    for formulas in _claims(seed):
        program = enumeration._compile(formulas)
        _replay_plan(program)
        used = [s for s in program.slots if s >= 0]
        shared += len(used) > len(set(used))
    assert shared  # plans do hand slots on


def test_a_deep_chain_needs_few_slots():
    formula = parse(" * ".join(["p"] * 201))
    program = enumeration._compile([formula])
    assert len(program.ops) == 201 and program.width <= 3
    _replay_plan(program)
    got = eval_bulk(formula, {"p": np.array([[0], [1], [2], [3]])}, 3)
    assert got.tolist() == [[0], [0], [0], [3]]


@pytest.mark.parametrize("text", ["<>(p * q) * (p (+) q)", "[](p * q) -> (q -> p)"])
def test_box_and_dia_of_one_world_copy_into_their_own_slot(text):
    # at n = 1 a box or dia has one row to fold; the plan hands its
    # operand's slot to a later op while the box or dia is still to be read
    formula = parse(text)
    program = enumeration._compile([formula])
    modal = next(i for i, op in enumerate(program.ops) if op[0] in (enumeration._BOX, enumeration._DIA))
    operand = program.ops[modal][1]
    assert program.slots[operand] in program.slots[modal + 1 :]
    m = 3
    pairs = [(p, q) for p in range(m + 1) for q in range(m + 1)]
    got = eval_bulk(formula, {"p": np.array([[p] for p, _ in pairs]),
                              "q": np.array([[q] for _, q in pairs])}, m)
    for (p, q), row in zip(pairs, got):
        exact = core.eval_in_power(formula, {"p": (F(p, m),), "q": (F(q, m),)}, 1)
        assert tuple(F(int(x), m) for x in row) == exact
    for n in (1, 2):
        result = scan_cell([], formula, m, n, cap=10**4, seed=0)
        assert (result.found, result.valuation, result.checked) == _scalar_scan([], formula, m, n)


def test_eval_bulk_results_outlive_the_next_call():
    arrays = {"p": np.array([[0, 1], [2, 2]]), "q": np.array([[2, 0], [1, 2]])}
    first = eval_bulk(parse("p * q"), arrays, 2)
    kept = first.copy()
    second = eval_bulk(parse("p (+) q"), arrays, 2)
    assert np.array_equal(first, kept) and not np.shares_memory(first, second)
    constant = eval_bulk(parse("1 -> 0"), {}, 2)
    assert constant.shape == () and int(constant) == 0
    assert int(eval_bulk(parse("~0"), {}, 2)) == 2 and int(constant) == 0


def test_repeated_scans_allocate_no_arena_buffer():
    # scratch pages stay with the process: once warm, scanning the same
    # cell again allocates no buffer and no block-sized array, so it faults
    # nothing in
    arena = enumeration._ARENA
    targets = [parse("[](p -> q) -> ([]p -> []r \\/ []q)"), parse("p * q * r -> r")]
    for target in targets:
        scan_cell([], target, 3, 3, cap=10**6, seed=0)
    buffers = [arena.rows, *arena.buffers]
    tracemalloc.start()
    try:
        for _ in range(3):
            for target in targets:
                result = scan_cell([], target, 3, 3, cap=10**6, seed=0)
                assert not result.found and result.checked == cell_size(3, 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(a is b for a, b in zip([arena.rows, *arena.buffers], buffers, strict=True))
    # one (n, A) int8 value of a full chunk is 3 x 2**16 bytes
    assert peak < 2**16


@pytest.mark.parametrize("seed", range(20))
def test_bulk_evaluation_matches_exact_evaluation(seed):
    rng = random.Random(seed)
    formula = random_formula(rng, names=("p", "q"), max_depth=4)
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    chain = core.enumerate_chain(m)
    points = core.enumerate_power(m, n)
    rows_p, rows_q = [], []
    expected = []
    for p_val in points:
        for q_val in points:
            rows_p.append([int(v * m) for v in p_val])
            rows_q.append([int(v * m) for v in q_val])
            expected.append(core.eval_in_power(formula, {"p": p_val, "q": q_val}, n))
    arrays = {
        "p": np.array(rows_p, dtype=np.int32),
        "q": np.array(rows_q, dtype=np.int32),
    }
    got = eval_bulk(formula, arrays, m)
    got = np.broadcast_to(got, (len(expected), n))
    for row, exact in zip(got, expected):
        assert tuple(F(int(x), m) for x in row) == exact


# ---------------------------------------------------------------------------
# valid_in_cells: one scan of world-row multisets against every cell


@pytest.mark.parametrize("m, n, nvars", [(1, 3, 2), (2, 2, 2), (3, 3, 1), (2, 3, 0)])
def test_multiset_grids_list_every_multiset_of_rows_once(m, n, nvars, monkeypatch):
    rows = list(itertools.product(range(m, -1, -1), repeat=nvars))
    expected = list(itertools.combinations_with_replacement(rows, n))
    # a cache too small for all chunks makes the second pass mix hits and misses
    monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(max_bytes=600))
    for chunk in (enumeration._CHUNK, 1, 4, 7):
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
        for _ in range(2):
            got = []
            for grid in enumeration._multiset_grids(m, n, nvars):
                assert grid.shape[:2] == (nvars, n) and not grid.flags.writeable
                got.extend(
                    tuple(tuple(int(x) for x in grid[:, w, a]) for w in range(n))
                    for a in range(grid.shape[-1])
                )
            assert got == expected


@pytest.mark.parametrize("m, n, nvars", [(3, 3, 3), (5, 3, 2), (2, 6, 1), (1, 1, 3), (4, 2, 0)])
def test_multiset_chunks_decode_in_any_order(m, n, nvars, monkeypatch):
    # each chunk is unranked from its own indices, so chunks read backwards
    # and out of a cache that keeps one of them list the multisets as
    # combinations_with_replacement does
    rows = list(itertools.product(range(m, -1, -1), repeat=nvars))
    expected = list(itertools.combinations_with_replacement(rows, n))
    monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(max_bytes=1))
    bounds = [(start, min(start + 97, len(expected))) for start in range(0, len(expected), 97)]
    got = {}
    for start, stop in reversed(bounds):
        grid = enumeration._GRIDS.get(m, n, nvars, start, stop, multisets=True)
        assert grid.shape == (nvars, n, stop - start) and grid.flags.c_contiguous
        got[start] = [
            tuple(tuple(int(x) for x in grid[:, w, a]) for w in range(n))
            for a in range(stop - start)
        ]
    assert [multiset for start, _ in bounds for multiset in got[start]] == expected


# Fail exactly when all worlds agree on p / when three distinct rows occur /
# over chains L_m with m even / with 3 | m / only when p = 1 at every world
# (the first multiset) / only when p = 0 at every world (the last one).
_AGREE = " (+) ".join(["~(<>p -> []p)"] * 4)
_THREE_ROWS = "~(<>(p * ~q * ~r) * <>(q * ~p * ~r) * <>(r * ~p * ~q))"
_HALF = "((p -> ~p) /\\ (~p -> p))"
_THIRD = "((p -> ~(p (+) p)) /\\ (~(p (+) p) -> p))"
_SHAPED = {
    _AGREE: {(m, n) for m in range(1, 5) for n in range(1, 4)},
    _THREE_ROWS: {(m, 3) for m in range(1, 5)},
    f"~({_HALF} * {_HALF} * {_HALF})": {(m, n) for m in (2, 4) for n in range(1, 4)},
    f"~({' * '.join([_THIRD] * 4)})": {(3, n) for n in range(1, 4)},
    " (+) ".join(["<>~p"] * 4): {(m, n) for m in range(1, 5) for n in range(1, 4)},
    " (+) ".join(["<>p"] * 4): {(m, n) for m in range(1, 5) for n in range(1, 4)},
}
_UNSOUND = ("phi -> []phi", "<>phi -> []phi", "phi -> phi*phi", "[]phi \\/ []~phi")


# As premises: p = 1/2 at every world (m even) / q = 1/3 at every world
# (3 | m) / all worlds agree on p.
_PREMISE_SHAPED = {
    ((_HALF,), "q"): {(m, n) for m in (2, 4) for n in range(1, 4)},
    ((_HALF, _THIRD.replace("p", "q")), "p * q"): set(),
    (("<>p -> []p",), "[]p \\/ []~p"): {(m, n) for m in range(2, 5) for n in range(1, 4)},
    (("<>p -> []p", "<>q -> []q"), "<>(p * q) -> <>p * <>q"): set(),
    ((_THIRD,), "<>q -> []q"): {(3, n) for n in range(2, 4)},
}


def _failing_cells(premises, target):
    """Cells m <= 4, n <= 3 where the per-cell scan finds a failure."""
    return {
        (m, n)
        for m in range(1, 5)
        for n in range(1, 4)
        if scan_cell(premises, target, m, n, cap=10**7, seed=0).found
    }


def _differential_cases():
    """(premises, target, the failing cells or None) with 0-2 premises."""
    rng = random.Random(2024)
    names = ("p", "q", "r")
    cases = [((), parse(text), cells) for text, cells in _SHAPED.items()]
    cases += [
        (tuple(parse(text) for text in premises), parse(target), cells)
        for (premises, target), cells in _PREMISE_SHAPED.items()
    ]
    patterns = [schema(text) for text in _UNSOUND] + list(DEFAULT_AXIOMS.values())[:6]
    for pattern in patterns:
        cases.append(((), random_instance(rng, pattern, names[:2], max_depth=2), None))
    for _ in range(12):
        cases.append(((), random_formula(rng, names[: rng.randint(1, 3)], max_depth=3), None))
    for count in (1, 2) * 8:
        premises = tuple(random_formula(rng, names[:2], max_depth=2) for _ in range(count))
        cases.append((premises, random_formula(rng, names[: rng.randint(1, 3)], max_depth=3), None))
    return cases


@pytest.mark.parametrize("chunk", (None, 5))
def test_valid_in_cells_matches_every_per_cell_scan(chunk, monkeypatch):
    # m_max = 4 checks the divisibility rule: L_2 sits inside L_4, so only
    # m = 3 and m = 4 are scanned; L_1 and L_2 are covered by L_4
    cases = [
        (premises, target, _failing_cells(premises, target), shaped)
        for premises, target, shaped in _differential_cases()
    ]
    if chunk is not None:
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
        monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(max_bytes=4000))
    for premises, target, failing, shaped in cases:
        if shaped is not None:
            assert failing == shaped
        for m_max in range(1, 5):
            for n_max in range(1, 4):
                expected = any(m <= m_max and n <= n_max for m, n in failing)
                assert valid_in_cells(premises, target, m_max, n_max) == (not expected), (
                    premises,
                    target,
                    m_max,
                    n_max,
                )
    # the premise cases tell the premise masks apart from the target alone
    assert any(
        premises and failing != _failing_cells((), target)
        for premises, target, failing, _ in cases
    )


def test_valid_in_cells_without_cells():
    assert valid_in_cells([], parse("0"), 0, 3)
    assert valid_in_cells([], parse("0"), 3, 0)
    assert not valid_in_cells([], parse("0"), 1, 1)
    assert valid_in_cells([], parse("1 -> 1"), 3, 3)
    assert valid_in_cells([parse("0")], parse("0"), 1, 1)


@pytest.mark.parametrize(
    "text, m_max, n_max", [("p -> p", 4, 3), ("p /\\ q -> p", 3, 3), ("p * q * r -> r", 4, 2)]
)
def test_multiset_cost_counts_what_valid_in_cells_scans(text, m_max, n_max, monkeypatch):
    formula = parse(text)
    nvars = len(variables(formula))
    original = enumeration._multiset_grids
    grids = []

    def recorded(*args):
        for grid in original(*args):
            grids.append(grid)
            yield grid

    monkeypatch.setattr(enumeration, "_multiset_grids", recorded)
    assert valid_in_cells([], formula, m_max, n_max)
    nbytes = sum(grid.nbytes for grid in grids)
    count = sum(grid.shape[-1] for grid in grids)
    for max_bytes, cached in ((nbytes, True), (nbytes - 1, False)):
        monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(max_bytes))
        assert enumeration.multiset_cost(m_max, n_max, nvars) == (count, cached)


def test_multiset_cost_at_the_audit_bounds():
    # 3.4 MB of int8 grids at m_max = 4 fit the 16 MiB cache; 18.7 MB at 5 do not
    assert enumeration.multiset_cost(4, 3, 3) == (comb(66, 3) + comb(127, 3), True)
    assert enumeration.multiset_cost(5, 3, 3) == (
        comb(66, 3) + comb(127, 3) + comb(218, 3),
        False,
    )
