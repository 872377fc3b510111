"""Fair countermodel search over finite chains and finite world sets.

A consequence claim `premises entail conclusion` fails exactly when some
structure makes every premise true everywhere while the conclusion falls
short somewhere.  Finite chains and finite world sets suffice to witness
every such failure, so the search enumerates (m, n) cells, m the chain
denominator and n the number of worlds, in order of cell cost
(m+1)^(n * variables) with ties broken by smaller n, and scans each cell's
valuations in a fixed order.  Cells larger than the budget's cap are sampled
with the budget's seed instead of enumerated, so runs are reproducible.

One routine, `scan_cells`, walks ordered cells up to the first hit for both
`refute` and `proofs.axiom_soundness_audit`: it runs the claim's compiled
program on every cell, checks every cell before scanning any, seeds each
cell from the caller's seed and the cell, and re-verifies the hit through
the exact scalar evaluator before it is reported.

It alone decides the row-multiset route.  One pass over the multisets of
world rows (`enumeration.multisets_clean`) decides every cell up to the
largest m and n: a claim with no failure there has none in any cell.  The
multisets have min(n, k*) rows, k* = `_Program.worlds` being the most
worlds a failure of the claim needs, and the route is priced at that row
count.  The pass stands for the cells after the first (`refute`) or for
all of them (the audit, `settle_first`).  `refute` scans its first cell,
the classical valuations on one world, alone: most failing claims fail
there, and they pay nothing for the route.  The pass runs only when cells
are left for it, the multisets number fewer than 2**63 and no more than
the min(size, cap) assignments those cells would check, and their grids
fit the grid cache or every one of those cells is exhaustive: past the
cache each claim decodes its multisets anew, which was no faster than the
per-cell scan on the audit at m_max = 5, n_max = 3 (4.7-5.3 s against
4.8-5.1 s at trials=8, seed=11, on a 2-core host).  A clean claim then
counts those assignments, as the per-cell scan would, without scanning the
cells; any other is scanned on cell by cell, so first hits, seed streams
and reports are those of the per-cell scan.

`fan_out` is the one place worker processes start for `jobs`; results come
back in task order, so they do not depend on jobs.  An "exhausted" verdict
means only that the finite budget turned up nothing; it certifies nothing
about validity or about cells beyond the budget, and reports say so.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import types
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

from . import core, semantics
from .core import MonadicElement
from .randgen import check_trials, random_valuation
from .semantics import SafeStructure
from .syntax import Box, Formula, Impl, InputError, Join, Star, parse, print_formula, variables


def _import_lazily(name: str) -> types.ModuleType:
    """Module `name`, registered as imported but run on first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    setattr(sys.modules[spec.parent], name.rpartition(".")[2], module)
    spec.loader.exec_module(module)
    return module


# The scan layer, and numpy with it, loads at the first scan: a process that
# only evaluates exactly never pays for either.  It is registered here rather
# than imported inside the scanning functions because perfbench's tracer
# looks `mmv.enumeration` up in sys.modules once `mmv.search` is imported.
enumeration = _import_lazily(f"{__package__}.enumeration")

# The most cells m_max * n_max a budget may have: `refute` lists them all
# before it scans any, and the multiset route prices m_max / 2 chains.
MAX_CELLS = 1 << 18

EXHAUSTED_CAVEAT = (
    "budget exhausted without a countermodel; this does not certify validity"
)


@dataclass(frozen=True, slots=True)
class SearchBudget:
    """Bounds for the search: chain sizes, world counts, cell cap, seed;
    at most `MAX_CELLS` cells m_max * n_max."""

    m_max: int = 3
    n_max: int = 3
    valuation_cap: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.m_max < 1 or self.n_max < 1:
            raise InputError("m_max and n_max must be >= 1")
        if self.n_max > core.MAX_WORLDS:  # as many as a model may have
            raise InputError(f"at most {core.MAX_WORLDS} worlds are supported, got {self.n_max}")
        if self.m_max * self.n_max > MAX_CELLS:
            raise InputError(
                f"at most {MAX_CELLS} cells m_max * n_max are supported, "
                f"got {self.m_max} * {self.n_max}"
            )
        if self.valuation_cap < 1:
            raise InputError("valuation_cap must be >= 1")


@dataclass(slots=True)
class SearchReport:
    """Search outcome: either a verified countermodel or budget exhaustion."""

    verdict: str  # "countermodel" | "exhausted"
    seed: int
    cells: list[tuple[int, int]]
    assignments: int
    m: int | None = None
    n: int | None = None
    valuation: dict[str, MonadicElement] | None = None
    values: dict[str, MonadicElement] | None = None
    caveat: str | None = None

    @property
    def found(self) -> bool:
        return self.verdict == "countermodel"

    @property
    def cells_visited(self) -> int:
        return len(self.cells)

    def structure(self) -> SafeStructure:
        if not self.found:
            raise ValueError("no countermodel in an exhausted report")
        return SafeStructure(worlds=self.n, valuation=self.valuation)

    def to_json(self) -> dict:
        data: dict = {
            "verdict": self.verdict,
            "cells_visited": self.cells_visited,
            "cells": [[m, n] for m, n in self.cells],
            "assignments": self.assignments,
            "seed": self.seed,
        }
        if self.found:
            data["m"] = self.m
            data["n"] = self.n
            data["valuation"] = {
                name: core.format_tuple(value)
                for name, value in sorted(self.valuation.items())
            }
            data["values"] = {
                text: core.format_tuple(value) for text, value in self.values.items()
            }
        else:
            data["caveat"] = self.caveat
        return data


def countermodel_from_json(data: Mapping) -> tuple[int, int, SafeStructure]:
    """Rebuild (m, n, structure) from a countermodel report's JSON."""
    if data.get("verdict") != "countermodel":
        raise ValueError("report does not carry a countermodel")
    m, n = data["m"], data["n"]
    valuation = {
        name: core.parse_tuple(items) for name, items in data["valuation"].items()
    }
    return m, n, SafeStructure(worlds=n, valuation=valuation)


def _cells(budget: SearchBudget, nvars: int) -> list[tuple[int, int]]:
    cells = [
        (m, n) for m in range(1, budget.m_max + 1) for n in range(1, budget.n_max + 1)
    ]
    cells.sort(key=lambda cell: (enumeration.cell_size(cell[0], cell[1], nvars), cell[1], cell[0]))
    return cells


def _verify_countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    n: int,
    valuation: Mapping[str, MonadicElement],
) -> dict[str, MonadicElement]:
    """Re-evaluate a hit through the scalar route; raise if it does not refute."""
    structure = SafeStructure(worlds=n, valuation=dict(valuation))
    values: dict[str, MonadicElement] = {}
    for premise in premises:
        value = semantics.evaluate(structure, premise)
        values[print_formula(premise)] = value
        if any(v != 1 for v in value):
            raise RuntimeError(
                f"search hit does not satisfy premise {print_formula(premise)}"
            )
    value = semantics.evaluate(structure, conclusion)
    values[print_formula(conclusion)] = value
    if all(v == 1 for v in value):
        raise RuntimeError("search hit does not refute the conclusion")
    return values


def _scan_cell(
    program: enumeration._Program, cap: int, seed_base: tuple, cell: tuple[int, int]
) -> enumeration.CellResult:
    m, n = cell
    return enumeration.scan_program(program, m, n, cap, (*seed_base, m, n))


def fan_out(fn: Callable, tasks: Sequence, jobs: int = 1) -> Iterator:
    """Map fn over the tasks, in task order, in up to `jobs` processes.

    With jobs <= 1 or at most one task this is the builtin `map` and no
    process starts; otherwise it is the `map` of a pool of min(jobs, tasks)
    workers, so fn and the tasks must pickle.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return map(fn, tasks)
    return _pool_map(fn, tasks, min(jobs, len(tasks)))


def _pool_map(fn: Callable, tasks: Sequence, workers: int) -> Iterator:
    """The `map` of a process pool; when the caller stops reading early,
    tasks not yet started are cancelled and running ones waited for.  Chunks
    of a quarter of a worker's share spare many short tasks a round trip
    each; `refute`'s few cells still go one at a time."""
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def scan_cells(
    premises: Sequence[Formula],
    conclusion: Formula,
    program: enumeration._Program,
    cells: Sequence[tuple[int, int]],
    cap: int,
    seed_base: tuple,
    jobs: int = 1,
    settle_first: bool = False,
) -> tuple[int, int, tuple | None]:
    """Scan the cells in the order given up to the first verified hit.

    `program` is the claim compiled by `enumeration.compile_claim`; every
    cell runs it.  Every cell passes `enumeration.check_cell` before any is
    scanned; cell (m, n) is seeded with (*seed_base, m, n), and the first
    hit is re-verified by `_verify_countermodel`.  The cells go through
    `fan_out`, so the result does not depend on jobs.  Returns (assignments
    checked, cells visited, hit), where hit is (m, n, valuation, values) or
    None.

    A multiset pass (see the module docstring) stands for every cell when
    `settle_first` is set, and otherwise for the cells after the first,
    which is scanned alone; it runs, when it pays, once that cell is
    scanned without a hit.  Either way the result is the same.
    """
    nvars = len(program.names)
    exhaustive = [enumeration.check_cell(m, n, nvars, cap) for m, n in cells]

    def scan(part: Sequence[tuple[int, int]]) -> tuple[int, int, tuple | None]:
        checked = 0
        results = fan_out(partial(_scan_cell, program, cap, seed_base), part, jobs)
        for visited, ((m, n), result) in enumerate(zip(part, results), 1):
            checked += result.checked
            if result.found:
                values = _verify_countermodel(premises, conclusion, n, result.valuation)
                return checked, visited, (m, n, dict(result.valuation), values)
        return checked, len(part), None

    split = 0 if settle_first else min(1, len(cells))
    checked, visited, hit = scan(cells[:split])
    rest = cells[split:]
    if hit is not None or not rest:
        return checked, visited, hit
    # a hit before the split pays nothing for working out the route
    m_max, n_max = max(m for m, _ in cells), max(n for _, n in cells)
    covered = sum(min(enumeration.cell_size(m, n, nvars), cap) for m, n in rest)
    rows = min(n_max, program.worlds)
    multisets, cached = enumeration.multiset_cost(m_max, rows, nvars)
    if (
        multisets < enumeration._INDEX_LIMIT
        and multisets <= covered
        and (cached or all(exhaustive[split:]))
        and enumeration.multisets_clean(program, m_max, n_max)
    ):
        return checked + covered, len(cells), None
    more, visited, hit = scan(rest)
    return checked + more, split + visited, hit


def refute(
    premises: Sequence[Formula],
    conclusion: Formula,
    budget: SearchBudget = SearchBudget(),
    jobs: int = 1,
) -> SearchReport:
    """Search the budgeted cells for a structure refuting the consequence.

    Returns the first verified countermodel in cell order, or an exhausted
    report; `scan_cells` does the scan, so results do not depend on jobs.
    Raises InputError before scanning any cell when one within the cap is
    too large to index (see `enumeration.check_cell`).
    """
    premises = tuple(premises)
    program = enumeration.compile_claim(premises, conclusion)
    cells = _cells(budget, len(program.names))
    checked, visited, hit = scan_cells(
        premises, conclusion, program, cells, budget.valuation_cap, (budget.seed,), jobs
    )
    if hit is None:
        return SearchReport("exhausted", budget.seed, cells, checked, caveat=EXHAUSTED_CAVEAT)
    m, n, valuation, values = hit
    return SearchReport(
        "countermodel", budget.seed, cells[:visited], checked, m, n, valuation, values
    )


def refute_width_k(
    premises: Sequence[Formula],
    conclusion: Formula,
    k: int,
    budget: SearchBudget = SearchBudget(),
    jobs: int = 1,
) -> SearchReport:
    """Countermodel search restricted to structures with at most k worlds."""
    if k < 1:
        raise InputError("k must be >= 1")
    budget = replace(budget, n_max=min(budget.n_max, k))
    return refute(premises, conclusion, budget, jobs=jobs)


# ---------------------------------------------------------------------------
# Probing the infinitary box rule


def star_power_formula(base: Formula, n: int) -> Formula:
    """The n-fold star of a formula with itself, folded left to right."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    result = base
    for _ in range(n - 1):
        result = Star(result, base)
    return result


def boxinf_conclusion(phi: Formula, alpha: Formula, beta: Formula) -> Formula:
    return Join(Box(phi), Impl(Box(alpha), Star(Box(alpha), Box(beta))))


def boxinf_premise(phi: Formula, alpha: Formula, beta: Formula, n: int) -> Formula:
    return Join(Box(phi), Impl(Box(alpha), star_power_formula(Box(beta), n)))


@dataclass(slots=True)
class BoxInfProbeReport:
    """What random structures say about the bounded infinitary rule.

    `violations` would hold structures satisfying every premise up to the
    bound where the dichotomy (box beta = 1 or box alpha = 0) holds and yet
    the conclusion fails; none are expected.  `gaps` lists structures where
    the premises hold up to the bound but the dichotomy fails, so the finite
    audit had no purchase; a gap whose conclusion value is below 1 shows the
    bounded check genuinely weaker than the full rule.
    """

    bound: int
    trials: int
    seed: int
    premise_models: int = 0
    dichotomy_models: int = 0
    violations: list[dict] = field(default_factory=list)
    gaps: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def strict_gaps(self) -> list[dict]:
        return [gap for gap in self.gaps if any(v != "1" for v in gap["conclusion"])]

    def to_json(self) -> dict:
        return {
            "kind": "boxinf-probe",
            "bound": self.bound,
            "trials": self.trials,
            "seed": self.seed,
            "premise_models": self.premise_models,
            "dichotomy_models": self.dichotomy_models,
            "violations": self.violations,
            "gaps": self.gaps,
        }


def boxinf_soundness_probe(
    alpha: Formula | None = None,
    beta: Formula | None = None,
    phi: Formula | None = None,
    bound: int = 1,
    trials: int = 1000,
    seed: int = 0,
    m_max: int = 2,
    n_max: int = 3,
) -> BoxInfProbeReport:
    """Sample structures satisfying the premise family up to the bound.

    Wherever the dichotomy holds the conclusion must evaluate to 1; those
    checks populate `violations` when they fail.  Structures where the
    dichotomy fails are reported as finite-approximation gaps.

    Only the premise for n = bound is evaluated: (box beta)^n does not grow
    with n, and join and the consequent of an implication are monotone, so
    that premise holds exactly where every premise for n <= bound holds.
    """
    check_trials(trials, bound=bound, m_max=m_max, n_max=n_max)
    alpha = parse("p") if alpha is None else alpha
    beta = parse("q") if beta is None else beta
    phi = parse("r") if phi is None else phi
    names = sorted(
        set(variables(alpha)) | set(variables(beta)) | set(variables(phi))
    )
    premise = boxinf_premise(phi, alpha, beta, bound)
    conclusion = boxinf_conclusion(phi, alpha, beta)
    rng = random.Random(seed)
    report = BoxInfProbeReport(bound=bound, trials=trials, seed=seed)
    for _ in range(trials):
        m = rng.randint(1, m_max)
        n = rng.randint(1, n_max)
        structure = SafeStructure(
            worlds=n, valuation=random_valuation(rng, names, m, n)
        )
        if not semantics.holds(structure, premise):
            continue
        report.premise_models += 1
        box_alpha = semantics.evaluate(structure, Box(alpha))[0]
        box_beta = semantics.evaluate(structure, Box(beta))[0]
        conclusion_value = semantics.evaluate(structure, conclusion)
        record = {
            "model": semantics.model_to_json(structure),
            "box_alpha": core.format_rational(box_alpha),
            "box_beta": core.format_rational(box_beta),
            "conclusion": core.format_tuple(conclusion_value),
        }
        if box_beta == 1 or box_alpha == 0:
            report.dichotomy_models += 1
            if any(v != 1 for v in conclusion_value):
                report.violations.append(record)
        else:
            report.gaps.append(record)
    return report
