"""Tests for the finite countermodel search and the bounded-rule probe."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from mmv import enumeration
from mmv.core import MAX_WORLDS
from mmv.proofs import DEFAULT_AXIOMS, axiom_soundness_audit, width_schema
from mmv.randgen import random_formula, random_instance, random_valuation
from mmv.search import (
    EXHAUSTED_CAVEAT,
    SearchBudget,
    boxinf_conclusion,
    boxinf_premise,
    boxinf_soundness_probe,
    countermodel_from_json,
    fan_out,
    refute,
    refute_width_k,
    scan_cells,
    star_power_formula,
)
from mmv.semantics import SafeStructure, evaluate, holds, is_model
from mmv.syntax import parse, print_formula

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
ONE = Fraction(1)
HALF = Fraction(1, 2)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# regression witnesses
# ---------------------------------------------------------------------------


def test_modal_collapse_countermodel():
    report = refute([], parse("<>p -> []p"))
    assert report.found
    assert (report.m, report.n) == (1, 2)
    assert report.valuation == {"p": (ONE, ZERO)}
    assert report.values == {"<>p -> []p": (ZERO, ZERO)}
    # the report's structure really falsifies the formula
    structure = report.structure()
    assert evaluate(structure, parse("<>p -> []p")) == (ZERO, ZERO)


def test_box_join_converse_countermodel():
    premises = [parse("[](p \\/ q)")]
    conclusion = parse("[]p \\/ []q")
    report = refute(premises, conclusion)
    assert report.found
    assert (report.m, report.n) == (1, 2)
    assert report.valuation == {"p": (ONE, ZERO), "q": (ZERO, ONE)}
    structure = report.structure()
    assert evaluate(structure, premises[0]) == (ONE, ONE)
    assert evaluate(structure, conclusion) == (ZERO, ZERO)


def test_search_visits_cells_in_documented_order():
    report = refute([], parse("<>p -> []p"))
    assert report.cells == [(1, 1), (2, 1), (3, 1), (1, 2)]
    assert report.assignments == 11


# ---------------------------------------------------------------------------
# exhaustion
# ---------------------------------------------------------------------------


def test_tautology_exhausts_budget_with_caveat():
    report = refute([], parse("p -> p"), budget=SearchBudget(m_max=2, n_max=2))
    assert not report.found
    assert report.verdict == "exhausted"
    assert report.caveat == EXHAUSTED_CAVEAT
    assert report.m is None and report.valuation is None
    json_data = report.to_json()
    assert json_data["verdict"] == "exhausted"
    assert json_data["caveat"] == EXHAUSTED_CAVEAT


def test_structure_accessor_requires_countermodel():
    report = refute([], parse("p -> p"), budget=SearchBudget(m_max=1, n_max=1))
    with pytest.raises(ValueError, match="no countermodel"):
        report.structure()


def test_width_one_search_exhausts_single_world_cells():
    # with one world box and diamond are the identity, so the collapse
    # implication cannot be falsified no matter the chain granularity
    report = refute_width_k(
        [], parse("<>p -> []p"), k=1, budget=SearchBudget(m_max=2, n_max=1)
    )
    assert not report.found
    assert report.cells == [(1, 1), (2, 1)]


def test_refute_rejects_unindexable_cells_before_scanning(monkeypatch):
    # 14 variables: cell (2, 3) has 3**42 > 2**63 assignments, within the cap,
    # but cell (1, 1) comes first in cell order and must not be scanned
    conclusion = parse(" \\/ ".join(f"p{i}" for i in range(14)))

    def no_scan(*args):
        raise AssertionError("scanned a cell before checking them all")

    monkeypatch.setattr(enumeration, "scan_program", no_scan)
    budget = SearchBudget(m_max=2, n_max=3, valuation_cap=3**42)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        refute([], conclusion, budget)


def test_width_k_requires_positive_k():
    with pytest.raises(ValueError):
        refute_width_k([], parse("p"), k=0)


# ---------------------------------------------------------------------------
# determinism and parallelism
# ---------------------------------------------------------------------------


def test_same_seed_same_report():
    first = refute([], parse("<>p -> []p"))
    second = refute([], parse("<>p -> []p"))
    assert first.to_json() == second.to_json()


def test_parallel_search_matches_serial():
    serial = refute([], parse("<>(p*p) -> <>p * <>p"), jobs=1)
    parallel = refute([], parse("<>(p*p) -> <>p * <>p"), jobs=2)
    assert serial.to_json() == parallel.to_json()


# the width-2 instance first fails with three worlds, at cell index 4; at cap
# 100 that cell (512 assignments) is sampled
WIDTH_TWO = parse("[](p \\/ q) /\\ [](p \\/ r) /\\ [](q \\/ r) -> []p \\/ []q \\/ []r")

_QUARTER = "((p -> ~(p (+) p (+) p)) /\\ (~(p (+) p (+) p) -> p))"  # 1 iff p = 1/4
_HALF = "((p -> ~p) /\\ (~p -> p))"  # 1 iff p = 1/2
_THREE_QUARTERS = _QUARTER.replace("p", "~p")  # 1 iff p = 3/4


def _crisp(text):
    # x * x * x * x is 1 at x = 1 and 0 at x <= 3/4, so on L_m with m <= 4
    # this is 1 where <>text is 1 and 0 elsewhere
    return " * ".join([f"<>{text}"] * 4)


# fails only in cell (4, 3): three worlds with p = 1/4, 1/2 and 3/4; at
# cap 100 that cell is sampled, its 55 row multisets are fewer, and the
# multiset pass finds the failure and sends the claim on to the cell
QUARTERS = parse(f"~({_crisp(_QUARTER)} * {_crisp(_HALF)} * {_crisp(_THREE_QUARTERS)})")


@pytest.mark.parametrize(
    "conclusion, budget",
    [
        (parse("<>p -> []p"), SearchBudget()),
        (WIDTH_TWO, SearchBudget(seed=9)),
        (WIDTH_TWO, SearchBudget(valuation_cap=100, seed=9)),
        (parse("<>(p*q) -> <>p*<>q"), SearchBudget(valuation_cap=30, seed=4)),
        # valid with 1, 2 and 3 variables: the multiset pass settles every
        # cell after the first
        (parse("p -> p"), SearchBudget()),
        (parse("[](p -> q) -> ([]p -> []q)"), SearchBudget()),
        (parse("[](p -> q) -> ([]p -> []r \\/ []q)"), SearchBudget()),
        # the pass finds the failure, and the cells go on to (4, 3)
        (QUARTERS, SearchBudget(m_max=4, valuation_cap=100, seed=3)),
    ],
)
def test_refute_report_does_not_depend_on_jobs(conclusion, budget):
    reports = [refute([], conclusion, budget, jobs=jobs).to_json() for jobs in (1, 2, 3)]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_refute_seeds_each_cell_with_the_budget_seed_and_the_cell():
    # an independent loop over the reported cells, seeded (seed, m, n), must
    # end on the reported hit with the reported count
    budget = SearchBudget(valuation_cap=100, seed=9)
    report = refute([], WIDTH_TWO, budget)
    assert report.cells[-1] == (1, 3)
    assert not enumeration.check_cell(1, 3, 3, budget.valuation_cap)
    checked = 0
    results = []
    for m, n in report.cells:
        results.append(enumeration.scan_cell([], WIDTH_TWO, m, n, 100, (9, m, n)))
        checked += results[-1].checked
    assert [result.found for result in results] == [False] * 4 + [True]
    assert results[-1].valuation == report.valuation
    assert checked == report.assignments


def test_refute_builds_one_pool_of_at_most_one_worker_per_cell(fake_pool):
    # the first cell is scanned alone; the multiset pass finds the failure,
    # so the 8 cells after it go to one pool
    conclusion = parse("<>p -> []p")
    serial = refute([], conclusion)
    assert fake_pool.built == []
    assert refute([], conclusion, jobs=64).to_json() == serial.to_json()
    assert [pool.max_workers for pool in fake_pool.built] == [8]
    assert fake_pool.built[0].shutdowns == [(True, True)]


def test_refute_stopping_early_cancels_the_cells_left(fake_pool):
    report = refute([], parse("<>p -> []p"), jobs=2)
    assert report.cells_visited == 4
    assert [pool.max_workers for pool in fake_pool.built] == [2]
    assert fake_pool.built[0].shutdowns == [(True, True)]


def test_fan_out_maps_in_order_without_a_pool_for_one_task(fake_pool):
    assert list(fan_out(abs, [-3], jobs=8)) == [3]
    assert list(fan_out(abs, [-1, 2, -3], jobs=1)) == [1, 2, 3]
    assert fake_pool.built == []
    assert list(fan_out(abs, [-1, 2, -3], jobs=8)) == [1, 2, 3]
    assert [pool.max_workers for pool in fake_pool.built] == [3]


def test_pool_tasks_go_out_in_chunks_of_a_quarter_share(fake_pool, monkeypatch):
    # many short audit instances share a round trip; refute's at most 8
    # cells after the first still go one at a time, so stopping early
    # cancels as before
    calls = []

    def recording_map(self, fn, tasks, chunksize=1):
        calls.append((len(tasks), self.max_workers, chunksize))
        return map(fn, tasks)

    monkeypatch.setattr(fake_pool, "map", recording_map)
    tasks = list(range(-50, 50))
    assert list(fan_out(abs, tasks, jobs=3)) == [abs(t) for t in tasks]
    refute([], parse("<>p -> []p"), jobs=64)
    refute([], parse("<>p -> []p"), jobs=2)
    assert calls == [(100, 3, 8), (8, 8, 1), (8, 2, 1)]


def test_refute_re_verifies_every_hit(monkeypatch):
    # a scanner that reports an all-ones "countermodel" of p -> p must be
    # caught by the exact re-check, not reported
    def false_hit(program, m, n, cap, seed):
        return enumeration.CellResult(True, {"p": (ONE,) * n}, 1, True)

    monkeypatch.setattr(enumeration, "scan_program", false_hit)
    with pytest.raises(RuntimeError, match="does not refute the conclusion"):
        refute([], parse("p -> p"))


# ---------------------------------------------------------------------------
# settling the cells after the first by row multisets
# ---------------------------------------------------------------------------

SETTLE_BUDGETS = [
    SearchBudget(m_max=m_max, n_max=n_max, valuation_cap=cap, seed=3)
    for m_max in range(1, 5)
    for n_max in range(1, 4)
    for cap in (100, 1000, 100_000)
]


def _settle_claims():
    """Corpus claims, width instances, axiom instances and seeded random
    claims with 0-2 premises."""
    box_join = tuple(
        parse(line)
        for line in (CORPUS / "premises" / "box-join.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    claims = [
        ((), parse("[](p -> q) -> ([]p -> []r \\/ []q)")),
        ((), parse("<>p -> []p")),
        ((), parse("<>(p*p) -> <>p * <>p")),
        ((), parse("[](p * q) \\/ <>(r -> p)")),
        (box_join, parse("[]p \\/ []q")),
        ((), WIDTH_TWO),
        ((), QUARTERS),
    ]
    rng = random.Random(5)  # the width instances of acceptance 05
    for k in (1, 2):
        claims += [((), random_instance(rng, width_schema(k), max_depth=2)) for _ in range(10)]
    names = ("p", "q", "r")
    for pattern in DEFAULT_AXIOMS.values():
        claims.append(((), random_instance(rng, pattern, names, max_depth=3)))
    for _ in range(24):
        premises = tuple(random_formula(rng, names, 2) for _ in range(rng.randrange(3)))
        claims.append((premises, random_formula(rng, names[: rng.randint(1, 3)], 3)))
    return claims


def _settle_reports(claims, jobs=1):
    return [
        refute(premises, conclusion, budget, jobs=jobs).to_json()
        for premises, conclusion in claims
        for budget in SETTLE_BUDGETS
    ]


@pytest.fixture(scope="module")
def per_cell_reports():
    """(claims, their reports when no multiset pass runs)."""
    claims = _settle_claims()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "multiset_cost", lambda *args: (float("inf"), False))
        return claims, _settle_reports(claims)


def test_refute_settle_route_reports_what_the_per_cell_route_does(
    per_cell_reports, fake_pool, monkeypatch
):
    claims, expected = per_cell_reports
    original = enumeration.multisets_clean
    passes = []

    def counted(*args):
        passes.append(original(*args))
        return passes[-1]

    monkeypatch.setattr(enumeration, "multisets_clean", counted)
    assert _settle_reports(claims) == expected
    # both outcomes of the pass occur: clean claims skip their sampled
    # cells, and QUARTERS goes on to the sampled cell (4, 3)
    assert True in passes and False in passes
    assert _settle_reports(claims, jobs=2) == expected
    assert fake_pool.built


def test_refute_settle_route_does_not_depend_on_jobs():
    # worker processes get the compiled claim: a clean pass at the default
    # budget, and a dirty one that sends QUARTERS on to cell (4, 3)
    for conclusion, budget in (
        (parse("[](p -> q) -> ([]p -> []r \\/ []q)"), SearchBudget()),
        (QUARTERS, SearchBudget(m_max=4, valuation_cap=100, seed=3)),
    ):
        reports = [refute([], conclusion, budget, jobs=jobs).to_json() for jobs in (1, 2)]
        assert reports[1] == reports[0]


def test_refute_settle_route_mutations_show_in_the_reports(per_cell_reports, monkeypatch):
    claims, expected = per_cell_reports
    # a pass that always says "dirty" leaves the per-cell route as it was
    monkeypatch.setattr(enumeration, "multisets_clean", lambda *args: False)
    assert _settle_reports(claims) == expected
    # one that always says "clean" hides exactly the hits after the first
    # cell in the cells the pass stands for
    monkeypatch.setattr(enumeration, "multisets_clean", lambda *args: True)
    got = _settle_reports(claims)
    cases = [(claim, budget) for claim in claims for budget in SETTLE_BUDGETS]
    hidden = []
    for ((premises, conclusion), budget), report, per_cell in zip(cases, got, expected):
        nvars = len(enumeration.compile_claim(premises, conclusion).names)
        cap = budget.valuation_cap
        grid = [(m, n) for m in range(1, budget.m_max + 1) for n in range(1, budget.n_max + 1)]
        cells = sorted(grid, key=lambda cell: ((cell[0] + 1) ** (cell[1] * nvars), cell[1]))
        route = _written_out_route(cells, nvars, cap, enumeration._GRIDS.max_bytes, False)
        if route is None or per_cell["verdict"] == "exhausted" or per_cell["cells_visited"] == 1:
            assert report == per_cell
            continue
        size = enumeration.cell_size(per_cell["m"], per_cell["n"], nvars)
        hidden.append(size <= cap)
        assert report == {
            "verdict": "exhausted",
            "cells_visited": len(cells),
            "cells": [[m, n] for m, n in cells],
            "assignments": sum(min(enumeration.cell_size(m, n, nvars), cap) for m, n in cells),
            "seed": budget.seed,
            "caveat": EXHAUSTED_CAVEAT,
        }
    # hits in exhaustive cells and in sampled ones are hidden
    assert True in hidden and False in hidden


# Which cells are scanned before the multiset pass, and whether it runs, for
# refute and the audit, against the rules written out below.  The scan and
# the pass are fakes that only record their calls, so a moved route shows
# even where reports cannot.

ROUTE_BOUNDS = [
    (m_max, n_max, nvars) for m_max in range(1, 6) for n_max in range(1, 4) for nvars in (1, 2, 3)
]


def _written_out_route(cells, nvars, cap, cache_bytes, audit):
    """The cells scanned before the multiset pass, or None when none runs."""
    m_max, n_max = max(m for m, _ in cells), max(n for _, n in cells)
    tops = range(m_max // 2 + 1, m_max + 1)
    multisets = sum(comb((m + 1) ** nvars + n_max - 1, n_max) for m in tops)
    cached = multisets * nvars * n_max * 2 <= cache_bytes  # int16 grids
    # the audit settles every cell; refute scans its first cell alone, and
    # the pass stands for the cells after it
    first = 0 if audit else 1
    sizes = [(m + 1) ** (n * nvars) for m, n in cells[first:]]
    covered = sum(size if size <= cap else cap for size in sizes)
    exhaustive = all(size <= cap for size in sizes)
    settles = bool(sizes) and multisets <= covered and (cached or exhaustive)
    return cells[:first] if settles else None


@pytest.mark.parametrize("cache_bytes", [16 << 20, 1 << 20])
@pytest.mark.parametrize("cap", [100, 10**5, 10**6, 10**7])
def test_multiset_route_is_the_written_out_rules(cap, cache_bytes, monkeypatch):
    events = []
    clean = True

    def scan(program, m, n, cap, seed):
        events.append((m, n))
        size = enumeration.cell_size(m, n, len(program.names))
        return enumeration.CellResult(False, None, min(size, cap), size <= cap)

    def multiset_pass(program, m_max, n_max):
        events.append(("pass", m_max, n_max))
        return clean

    monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(cache_bytes))
    monkeypatch.setattr(enumeration, "scan_program", scan)
    monkeypatch.setattr(enumeration, "multisets_clean", multiset_pass)
    seen = set()
    for m_max, n_max, nvars in ROUTE_BOUNDS:
        target = parse(" \\/ ".join("pqr"[:nvars]))
        grid = [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
        by_size = sorted(grid, key=lambda cell: ((cell[0] + 1) ** (cell[1] * nvars), cell[1]))
        covered = sum(min((m + 1) ** (n * nvars), cap) for m, n in grid)
        for clean in (True, False):
            for audit, cells in ((False, by_size), (True, grid)):
                events.clear()
                if audit:
                    report = axiom_soundness_audit(
                        m_max, n_max, trials=1, cap=cap, axioms={"A": target}
                    )
                    assert report.assignments == {"A": covered}
                else:
                    report = refute([], target, SearchBudget(m_max, n_max, cap))
                    assert report.cells == by_size and report.assignments == covered
                before = _written_out_route(cells, nvars, cap, cache_bytes, audit)
                if before is None:
                    expected = cells
                else:
                    rest = [] if clean else cells[len(before):]
                    expected = [*before, ("pass", m_max, n_max), *rest]
                assert events == expected, (audit, m_max, n_max, nvars)
                seen.add((audit, before is None, bool(before)))
    # (audit, no pass, cells scanned before the pass): either caller may
    # settle or not, and refute settles only after its first cell
    assert seen == {
        (False, True, False), (False, False, True), (True, False, False), (True, True, False)
    }


def test_no_multiset_route_past_int64_ranks(monkeypatch):
    # 21 variables at m, n <= 2: C(3**21 + 1, 2) >= 2**63 multisets, fewer
    # than the assignments the cells check and, under a huge cache, cached;
    # int64 ranks cannot index them, so the cells are scanned instead
    nvars = 21
    target = parse(" \\/ ".join(f"p{i}" for i in range(nvars)))
    cells = [(1, 1), (2, 1), (1, 2), (2, 2)]
    cap = 9**nvars - 1  # cell (2, 2) is sampled, the others are exhaustive
    monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(1 << 80))
    multisets, cached = enumeration.multiset_cost(2, 2, nvars)
    covered = sum(min(enumeration.cell_size(m, n, nvars), cap) for m, n in cells)
    assert 2**63 <= multisets <= cap < covered and cached

    def scan(program, m, n, cap, seed):
        size = enumeration.cell_size(m, n, nvars)
        return enumeration.CellResult(False, None, min(size, cap), size <= cap)

    def no_pass(*args):
        raise AssertionError("a multiset pass past int64 ranks")

    monkeypatch.setattr(enumeration, "scan_program", scan)
    monkeypatch.setattr(enumeration, "multisets_clean", no_pass)
    program = enumeration.compile_claim((), target)
    for settle_first in (False, True):
        got = scan_cells((), target, program, cells, cap, (0,), settle_first=settle_first)
        assert got == (covered, len(cells), None)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        next(enumeration._multiset_grids(2, 2, nvars))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_countermodel_round_trip_and_reverify():
    report = refute([], parse("<>p -> []p"))
    m, n, structure = countermodel_from_json(report.to_json())
    assert (m, n) == (report.m, report.n)
    assert isinstance(structure, SafeStructure)
    assert structure.valuation == report.valuation
    assert evaluate(structure, parse("<>p -> []p")) == (ZERO, ZERO)


def test_countermodel_from_json_rejects_exhausted_reports():
    report = refute([], parse("p -> p"), budget=SearchBudget(m_max=1, n_max=1))
    with pytest.raises(ValueError):
        countermodel_from_json(report.to_json())


# ---------------------------------------------------------------------------
# formula builders for the bounded rule
# ---------------------------------------------------------------------------


def test_star_power_formula_shapes():
    p = parse("p")
    assert print_formula(star_power_formula(p, 1)) == "p"
    assert print_formula(star_power_formula(p, 3)) == "p*p*p"
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        star_power_formula(p, 0)


def test_boxinf_formula_shapes():
    phi, alpha, beta = parse("p"), parse("q"), parse("r")
    assert (
        print_formula(boxinf_premise(phi, alpha, beta, 2))
        == "[]p \\/ ([]q -> []r*[]r)"
    )
    assert (
        print_formula(boxinf_conclusion(phi, alpha, beta))
        == "[]p \\/ ([]q -> []q*[]r)"
    )


# ---------------------------------------------------------------------------
# budget validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"m_max": 0}, "m_max and n_max must be >= 1"),
        ({"n_max": 0}, "m_max and n_max must be >= 1"),
        ({"valuation_cap": 0}, "valuation_cap must be >= 1"),
        ({"n_max": MAX_WORLDS + 1}, f"at most {MAX_WORLDS} worlds are supported, got {MAX_WORLDS + 1}"),
        ({"n_max": 10**8}, f"at most {MAX_WORLDS} worlds are supported, got {10**8}"),
    ],
)
def test_budget_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SearchBudget(**kwargs)


def test_budget_allows_as_many_worlds_as_a_model():
    assert SearchBudget(n_max=MAX_WORLDS).n_max == MAX_WORLDS


# ---------------------------------------------------------------------------
# bounded-rule soundness probe
# ---------------------------------------------------------------------------


def test_boxinf_probe_finds_no_violations():
    report = boxinf_soundness_probe(trials=60, seed=0)
    assert report.ok
    assert not report.violations
    assert report.premise_models > 0
    data = report.to_json()
    assert data["kind"] == "boxinf-probe"
    assert data["bound"] == 1
    assert data["violations"] == []


def test_boxinf_probe_is_deterministic():
    first = boxinf_soundness_probe(trials=60, seed=5)
    second = boxinf_soundness_probe(trials=60, seed=5)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("bound", range(1, 7))
def test_boxinf_probe_decides_the_premise_family_by_its_last_member(bound):
    """The probe evaluates only the premise for n = bound.  On random
    structures over chains up to L_{bound+1}, that premise holds exactly
    where every premise for n = 1..bound holds, and the probe counts the
    structures the whole family admits, drawn from the same seed stream."""
    phi, alpha, beta = parse("r"), parse("p"), parse("q")
    family = [boxinf_premise(phi, alpha, beta, n) for n in range(1, bound + 1)]
    trials, m_max, n_max = 300, bound + 1, 3
    rng = random.Random(bound)
    models = weaker = 0
    for _ in range(trials):
        m, n = rng.randint(1, m_max), rng.randint(1, n_max)
        structure = SafeStructure(worlds=n, valuation=random_valuation(rng, ("p", "q", "r"), m, n))
        whole = is_model(structure, family)
        assert holds(structure, family[-1]) == whole
        models += whole
        weaker += holds(structure, family[0]) and not whole
    report = boxinf_soundness_probe(
        bound=bound, trials=trials, seed=bound, m_max=m_max, n_max=n_max
    )
    assert report.premise_models == models
    # checking the first premise alone would admit more structures
    assert weaker > 0 or bound == 1


def test_boxinf_probe_records_strict_gaps():
    # the bounded premise does not pin the conclusion to 1, and the probe
    # records models witnessing the slack between premise and conclusion
    report = boxinf_soundness_probe(trials=200, seed=0)
    assert report.ok
    assert report.gaps
    gap = report.to_json()["gaps"][0]
    assert set(gap) == {"model", "box_alpha", "box_beta", "conclusion"}
    worlds = gap["model"]["worlds"]
    assert len(gap["conclusion"]) == worlds
