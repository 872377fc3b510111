"""The benchmark's four workloads: inputs from a seed, ops, and their checks.

Each workload function turns a seed into a `Pool`: the list of ops one
pass runs, in order, each with the check its output must pass.  Expected
outputs come from the benchmark's own references (closed-form grid sizes,
a scalar brute-force search, a table construction written here), never
from the call being measured.  Ops look up the library function when they run, so a
tracer that wraps a module attribute sees the call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from mmv import analysis, core, proofs, randgen, search, semantics, syntax

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("p", "q", "r")


@dataclass
class Op:
    """One closed-loop request: `run` calls the library, `check` judges it.

    `check` returns None for a correct output and a reason otherwise.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    assignments: Callable[[object], int] | None = None


@dataclass
class Pool:
    ops: list[Op]
    seeds: dict
    # cli-session runs its commands in-process when traced; other workloads
    # trace the same ops they time.
    traced_ops: list[Op] | None = None
    traced_spans: tuple = ()


def _grid(nvars: int, cells, cap: int) -> int:
    """Assignments a full scan of the cells covers: exhaustive up to the cap."""
    return sum(min((m + 1) ** (n * nvars), cap) for m, n in cells)


def _cells(m_max: int, n_max: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# audit-sweep: one axiom_soundness_audit call per (schema, audit seed)

AUDIT_TRIALS = 4
AUDIT_SEEDS_PER_PASS = 2
# distinct three-variable instances per op: their 287,327-assignment grids
# are almost all of an op's work, so a fixed count keeps ops alike across seeds
AUDIT_THREE_VARIABLE = 2
AUDIT_CAP = 10**6


def _audit_reference(pattern, trials: int, seed: int) -> tuple[int, int]:
    """Assignments a clean audit of one schema must report, and its 3-variable instances.

    The audit draws `trials` instances from `random.Random(seed)`, scans
    each distinct one over every cell with m, n <= 3, and finds nothing in
    a sound schema, so every cell is covered in full (or up to the cap).
    """
    rng = random.Random(seed)
    instances = {randgen.random_instance(rng, pattern, NAMES, 3) for _ in range(trials)}
    counts = [len(syntax.variables(f)) for f in instances]
    return sum(_grid(n, _cells(3, 3), AUDIT_CAP) for n in counts), counts.count(3)


def audit_sweep(seed: int, tiny: bool = False) -> Pool:
    rng = random.Random(seed)
    schemas = list(proofs.axiom_table().items())
    trials, slots, three_variable = AUDIT_TRIALS, AUDIT_SEEDS_PER_PASS, AUDIT_THREE_VARIABLE
    if tiny:
        schemas, trials, slots, three_variable = schemas[4:6], 1, 1, None
    ops = []
    audit_seeds = []
    for _ in range(slots):
        for name, pattern in schemas:
            while True:
                audit_seed = rng.randrange(2**31)
                expected, found = _audit_reference(pattern, trials, audit_seed)
                if three_variable in (None, found):
                    break
            audit_seeds.append(audit_seed)

            def run(name=name, pattern=pattern, audit_seed=audit_seed):
                return proofs.axiom_soundness_audit(
                    axioms={name: pattern}, trials=trials, seed=audit_seed
                )

            def check(report, name=name, expected=expected):
                if report.violations:
                    return f"{len(report.violations)} violations"
                if report.assignments != {name: expected}:
                    return f"assignments {report.assignments} != {{{name!r}: {expected}}}"
                return None

            ops.append(Op(f"audit {name} seed={audit_seed}", run, check,
                          lambda report: sum(report.assignments.values())))
    return Pool(ops, {"workload": seed, "audit": audit_seeds})


# ---------------------------------------------------------------------------
# refute-batch: one refute / refute_width_k call per claim

REFUTE_CAP = 100_000
AXIOM_INSTANCES = {3: 5, 2: 1, 1: 1}  # per schema, by variable count
RANDOM_CLAIMS = 400
REFERENCE_LIMIT = 40  # assignments the reference may evaluate per claim


@dataclass(frozen=True)
class Expected:
    verdict: str
    cells: list
    assignments: int
    m: int | None = None
    n: int | None = None
    valuation: dict | None = None


def _search_cells(nvars: int, n_limit: int) -> list[tuple[int, int]]:
    """The search's cell order: by cell size, then fewer worlds, then m."""
    cells = _cells(3, n_limit)
    return sorted(cells, key=lambda c: ((c[0] + 1) ** (c[1] * nvars), c[1], c[0]))


def _holds(formula, valuation, n: int) -> bool:
    return all(v == 1 for v in core.eval_in_power(formula, valuation, n))


def _brute_force(premises, conclusion, n_limit: int, limit: int) -> Expected | None:
    """First countermodel in scan order, by scalar evaluation of every assignment.

    Assignments within a cell run in descending lexicographic order
    (variables sorted, coordinates left to right, values 1 down to 0).
    Returns None when the claim needs a sampled cell or more than `limit`
    evaluations.
    """
    names = sorted(set().union(*(syntax.variables(f) for f in (*premises, conclusion))))
    cells = _search_cells(len(names), n_limit)
    checked = 0
    budget = limit
    for position, (m, n) in enumerate(cells):
        size = (m + 1) ** (n * len(names))
        if size > REFUTE_CAP or size > budget:
            return None
        budget -= size
        values = [Fraction(k, m) for k in range(m, -1, -1)]
        for index, digits in enumerate(itertools.product(values, repeat=n * len(names))):
            valuation = {name: digits[i * n:(i + 1) * n] for i, name in enumerate(names)}
            if all(_holds(p, valuation, n) for p in premises) and not _holds(conclusion, valuation, n):
                return Expected("countermodel", cells[: position + 1], checked + index + 1,
                                m, n, valuation)
        checked += size
    return Expected("exhausted", cells, checked)


def _sound_claim(formula, n_limit: int = 3) -> Expected:
    """An axiom instance has no countermodel: every cell is covered."""
    nvars = len(syntax.variables(formula))
    cells = _search_cells(nvars, n_limit)
    return Expected("exhausted", cells, _grid(nvars, cells, REFUTE_CAP))


def _refute_check(premises, conclusion, expected: Expected):
    def check(report) -> str | None:
        if report.verdict != expected.verdict:
            return f"verdict {report.verdict} != {expected.verdict}"
        if list(report.cells) != list(expected.cells):
            return f"cells {report.cells} != {expected.cells}"
        if report.assignments != expected.assignments:
            return f"assignments {report.assignments} != {expected.assignments}"
        if not report.found:
            return None
        if (report.m, report.n, report.valuation) != (expected.m, expected.n, expected.valuation):
            return f"first hit (m={report.m}, n={report.n}) != (m={expected.m}, n={expected.n})"
        structure = semantics.SafeStructure(worlds=report.n, valuation=dict(report.valuation))
        if not all(all(v == 1 for v in semantics.evaluate(structure, p)) for p in premises):
            return "countermodel violates a premise"
        if all(v == 1 for v in semantics.evaluate(structure, conclusion)):
            return "countermodel does not refute the conclusion"
        return None

    return check


def refute_batch(seed: int, tiny: bool = False) -> Pool:
    rng = random.Random(seed)
    budget = search.SearchBudget(valuation_cap=REFUTE_CAP, seed=rng.randrange(2**31))
    claims: list[tuple[str, tuple, object, int | None, Expected]] = []

    # corpus claims: the README and acceptance examples
    collapse = syntax.parse("<>p -> []p")
    box_join = tuple(
        syntax.parse(line.strip())
        for line in (ROOT / "corpus" / "premises" / "box-join.txt").read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )
    width_instance = syntax.parse("[](p \\/ q) -> []p \\/ []q")
    for label, premises, conclusion, width in (
        ("<>p -> []p", (), collapse, None),
        ("box-join premises", box_join, syntax.parse("[]p \\/ []q"), None),
        ("width-1 instance", (), width_instance, None),
        ("width-1 instance, width 1", (), width_instance, 1),
    ):
        if width is None:
            # fixed claims with early hits: no budget needed
            expected = _brute_force(premises, conclusion, 3, REFUTE_CAP)
        else:
            # valid on structures with at most k worlds: the width dichotomy
            expected = _sound_claim(conclusion, n_limit=width)
        claims.append((label, premises, conclusion, width, expected))

    # axiom instances, stratified by variable count: a sound schema comes
    # back exhausted, and its grid size is (m+1)^(n*vars)
    quotas = {1: 1} if tiny else AXIOM_INSTANCES
    schemas = list(proofs.axiom_table().items())[: 2 if tiny else None]
    for name, pattern in schemas:
        wanted = dict(quotas)
        while any(wanted.values()):
            instance = randgen.random_instance(rng, pattern, NAMES, 3)
            nvars = len(syntax.variables(instance))
            if wanted.get(nvars, 0) > 0:
                wanted[nvars] -= 1
                claims.append((f"{name} instance", (), instance, None, _sound_claim(instance)))

    # random claims with 0-2 premises; kept when the scalar reference
    # settles them, which most early hits allow
    kept = 0
    while kept < (4 if tiny else RANDOM_CLAIMS):
        premises = tuple(randgen.random_formula(rng, NAMES, 2) for _ in range(rng.randrange(3)))
        conclusion = randgen.random_formula(rng, NAMES, 3)
        expected = _brute_force(premises, conclusion, 3, REFERENCE_LIMIT)
        if expected is not None:
            claims.append(("random claim", premises, conclusion, None, expected))
            kept += 1

    ops = []
    for label, premises, conclusion, width, expected in claims:
        if width is None:
            def run(premises=premises, conclusion=conclusion):
                return search.refute(premises, conclusion, budget)
        else:
            def run(premises=premises, conclusion=conclusion, width=width):
                return search.refute_width_k(premises, conclusion, width, budget)
        text = syntax.print_formula(conclusion)
        ops.append(Op(f"refute {label}: {len(premises)} premises |- {text}", run,
                      _refute_check(premises, conclusion, expected),
                      lambda report: report.assignments))
    return Pool(ops, {"workload": seed, "search_budget": budget.seed})


# ---------------------------------------------------------------------------
# algebra-suite: analyse one algebra document, functional or tabular

# (m, blocks): the carrier is every function on n = blocks + 1 points that
# is constant on each block of a partition, valued in the chain L_m, so it
# has (m+1)^blocks elements: 16, 16, 25, 27, 36, 49 and 64.  The second
# 16-element algebra (4 blocks) moves a run's median latency off the
# boundary between the 36-element tabular and the 27-element functional
# ops, whose costs are within ~10% of each other and swap from seed to seed.
ALGEBRA_SHAPES = ((3, 2), (1, 4), (4, 2), (2, 3), (5, 2), (6, 2), (3, 3))


@dataclass
class Analysis:
    algebra: analysis.FiniteMonadicAlgebra
    size: int
    classification: analysis.Classification
    prime_filters: int
    radical: int
    denominators: list
    fep_size: int
    family_size: int


def analyse(document: dict) -> Analysis:
    """Load, filters, classify, represent (if simple), embed the carrier."""
    algebra = analysis.algebra_from_json(document)
    prime = analysis.prime_filters(algebra)
    radical = analysis.radical(algebra)
    classification = analysis.classify(algebra, width_cap=algebra.size)
    representation = None
    if classification.simple:
        representation = analysis.represent_simple(algebra, width_cap=algebra.size)
    if algebra.carrier is not None:
        family = list(algebra.carrier)
    else:
        family = list(representation.mapping.values())
    embedding = analysis.fep_embed(family)
    return Analysis(
        algebra=algebra,
        size=algebra.size,
        classification=classification,
        prime_filters=len(prime),
        radical=len(radical),
        denominators=sorted(representation.denominators) if representation else [],
        fep_size=len(set(embedding.mapping.values())),
        family_size=len(family),
    )


def _label(element) -> str:
    return "(" + ",".join(str(v) for v in element) + ")"


def _algebra_documents(rng: random.Random, m: int, blocks: int) -> tuple[dict, dict]:
    """The same algebra twice: generators (functional) and tables (tabular).

    The generators 1/m on one block and 0 elsewhere, one per block, generate
    every block-constant function.  The tables are built here from the
    carrier, in a shuffled element order.
    """
    n = blocks + 1
    block_of = list(range(blocks)) + [rng.randrange(blocks)]
    rng.shuffle(block_of)

    def spread(values) -> tuple:
        return tuple(Fraction(values[block_of[x]], m) for x in range(n))

    generators = [spread([1 if b == block else 0 for b in range(blocks)]) for block in range(blocks)]
    rng.shuffle(generators)
    functional = {"form": "functional", "m": m, "n": n,
                  "generators": [core.format_tuple(g) for g in generators]}

    carrier = [spread(values) for values in itertools.product(range(m + 1), repeat=blocks)]
    rng.shuffle(carrier)
    index = {element: i for i, element in enumerate(carrier)}
    one = Fraction(1)
    impl = [[index[tuple(min(one, one - x + y) for x, y in zip(a, b))] for b in carrier]
            for a in carrier]
    exists = [index[(max(a),) * n] for a in carrier]
    tabular = {"form": "tabular", "elements": [_label(e) for e in carrier], "impl": impl,
               "zero": index[(Fraction(0),) * n], "exists": exists}
    return functional, tabular


def _algebra_check(m: int, blocks: int):
    """Expected of every block-constant algebra over L_m with b blocks.

    It has (m+1)^b elements; its quantifier image, the constants, is the
    simple chain L_m, so it is simple; its orthogonal width is b (one
    element below 1 per block); each of its b maximal filters has quotient
    L_m, so the representation's denominators are all m.
    """
    size = (m + 1) ** blocks

    def check(result: Analysis) -> str | None:
        c = result.classification
        violations = result.algebra.validate()
        if violations:
            return f"{len(violations)} identity violations"
        if result.size != size:
            return f"size {result.size} != {size}"
        if (c.fsi, c.simple, c.width) != (True, True, blocks):
            return f"classification fsi={c.fsi} simple={c.simple} width={c.width}"
        if result.denominators != [m] * blocks:
            return f"denominators {result.denominators} != {[m] * blocks}"
        if result.radical != 1:
            return f"radical has {result.radical} elements, expected 1"
        if result.fep_size != result.family_size:
            return "finite embedding is not injective"
        return None

    return check


def algebra_suite(seed: int, tiny: bool = False) -> Pool:
    rng = random.Random(seed)
    ops = []
    for m, blocks in ((1, 2),) if tiny else ALGEBRA_SHAPES:
        functional, tabular = _algebra_documents(rng, m, blocks)
        check = _algebra_check(m, blocks)
        for form, document in (("functional", functional), ("tabular", tabular)):
            ops.append(Op(f"algebra {form} m={m} blocks={blocks}",
                          lambda document=document: analyse(document), check))
    return Pool(ops, {"workload": seed})


# ---------------------------------------------------------------------------
# cli-session: the README quick tour, one `mmv` process per command


@dataclass
class Command:
    exit_code: int
    stdout: str
    maxrss_kb: int = 0


def run_subprocess(args: list[str]) -> Command:
    """Spawn `python -m mmv.cli`, wait for it, and keep its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MMV_SEED", None)
    proc = subprocess.Popen([sys.executable, "-m", "mmv.cli", *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout = proc.stdout.read()
    proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(proc.returncode, stdout.decode(), usage.ru_maxrss)


def cli_in_process(args: list[str]) -> Command:
    """The same command through click's CliRunner, inside this process."""
    from click.testing import CliRunner
    from mmv import cli

    result = CliRunner().invoke(cli.main, args)
    return Command(result.exit_code, result.stdout)


def _lines(*expected: str):
    def check(output: str) -> str | None:
        lines = output.splitlines()
        missing = [line for line in expected if line not in lines]
        return f"missing output line {missing[0]!r}" if missing else None
    return check


def _pattern(regex: str):
    def check(output: str) -> str | None:
        return None if re.search(regex, output, re.M) else f"no output line matches {regex!r}"
    return check


def _classify_json(output: str) -> str | None:
    data = json.loads(output)
    if (data["fsi"], data["simple"], data["width"]) != (True, True, 2):
        return f"classification {data}"
    return None


def cli_session(seed: int, tiny: bool = False) -> Pool:
    import mmv.cli  # noqa: F401  (setup pays for importing the CLI and click)

    rng = random.Random(seed)
    seeds = {"workload": seed, "refute": rng.randrange(2**31), "rules": rng.randrange(2**31),
             "boxinf": rng.randrange(2**31)}
    corpus = ROOT / "corpus"
    model = str(corpus / "models" / "two-worlds.json")
    square = str(corpus / "algebras" / "boolean-square.json")
    chain = str(corpus / "algebras" / "chain-l2.json")
    tour = [
        (["eval", "--model", model, "--formula", "[]p"], _lines("[1/2, 1/2]")),
        (["model-check", "--model", model, "--formula", "<>p"], _lines("consistent")),
        (["refute", "--formula", "<>p -> []p", "--seed", str(seeds["refute"])],
         _lines("countermodel (m=1, n=2; 11 assignments over 4 cells)", "  p = [1, 0]")),
        (["refute", "--formula", "[]p \\/ []q", "--gamma", str(corpus / "premises" / "box-join.txt")],
         _lines("countermodel (m=1, n=2; 36 assignments over 4 cells)")),
        (["prove", str(corpus / "proofs" / "dia-from-p.json")], _lines("Accept")),
        (["prove", str(corpus / "proofs" / "boxinf-bounded.json")],
         _lines("Accept-Bounded (audited up to bound 1)")),
        (["audit", "rules", "--rule", "prelinearity", "--seed", str(seeds["rules"])],
         _lines("prelinearity: 500 trials, 500 applicable, no violations")),
        (["audit", "boxinf", "--trials", "1000", "--seed", str(seeds["boxinf"])],
         _pattern(r"^bound 1, 1000 trials: \d+ premise models, \d+ with the dichotomy, "
                  r"0 violations, \d+ gaps \(\d+ strict\)$")),
        (["algebra", "validate", square], _lines("valid: all identities hold on 4 elements")),
        (["algebra", "classify", square, "--json"], _classify_json),
        (["algebra", "filters", chain], _lines("all (2):", "  {(1)}", "  {(0), (1), (1/2)}")),
        (["algebra", "radical", chain], _lines("radical: {(1)}")),
        (["algebra", "represent", square],
         _lines("index: 2 maximal filters; coordinate denominators [1, 1]")),
        (["algebra", "fep", square, "--element", "1,0"], _lines("m=1, n=1, points=[1]", "  [1, 0] -> [0]")),
    ]
    if tiny:
        tour = tour[:2]
    rng.shuffle(tour)

    def make(args, check_output, in_process):
        def check(command: Command) -> str | None:
            if command.exit_code != 0:
                return f"exit code {command.exit_code}"
            return check_output(command.stdout)

        # `cli_in_process` is looked up when the op runs, so a tracer that
        # wraps the module attribute sees the call
        run = (lambda: cli_in_process(args)) if in_process else (lambda: run_subprocess(args))
        return Op("mmv " + " ".join(args), run, check)

    ops = [make(args, check, False) for args, check in tour]
    traced = [make(args, check, True) for args, check in tour]
    return Pool(ops, seeds, traced_ops=traced,
                traced_spans=(("cli.command", sys.modules[__name__], "cli_in_process"),))


WORKLOADS = {
    "audit-sweep": audit_sweep,
    "refute-batch": refute_batch,
    "algebra-suite": algebra_suite,
    "cli-session": cli_session,
}
