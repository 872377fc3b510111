"""Hilbert-style proofs: axiom schemas, proof checking, soundness audits.

A proof is a finite list of steps, each carrying a formula and a
justification: a premise reference, a named axiom schema, modus ponens,
necessitation, or a bounded instance of the infinitary box rule.  The checker
validates every step and reports the first failure with its step index
(0-based) and the expected shape.

The infinitary rule derives "[]phi \\/ ([]alpha -> []alpha*[]beta)" from the
premise family "[]phi \\/ ([]alpha -> ([]beta)^n)", one premise per n >= 1.  A
finite proof object can only cite finitely many of those premises, so such
steps carry an explicit bound N and the whole proof is at best
"accept-bounded": every premise up to N was checked, the rest were not.  The
verdict records the smallest bound audited in the proof.

The audits do not trust the axiom table: `axiom_soundness_audit` instantiates
every schema at random and grinds the instances through exhaustive (or
sampled) valuation grids, and `derived_rule_audit` checks the semantic fact
behind each admissible rule on random finite structures.  Instances go
through `search.scan_cells`, the same scan `refute` uses (and the one owner
of its row-multiset route), which re-verifies the first violation exactly.
The distinct instances of all schemas share one `search.fan_out` call, so
`jobs` changes no report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

from . import core, search, semantics
from .search import enumeration  # loaded at the first scan, not here
from .randgen import check_trials, metavariables, random_formula, random_instance, random_valuation
from .syntax import (
    Box,
    Formula,
    Impl,
    InputError,
    Join,
    Meet,
    MetaVar,
    ParseError,
    Star,
    is_modalized,
    match_schema,
    parse,
    print_formula,
    schema,
    substitute,
)

ACCEPT = "accept"
ACCEPT_BOUNDED = "accept-bounded"
REJECT = "reject"


class ProofFormatError(InputError):
    """Malformed proof data (bad JSON shape, unparseable formula or citation)."""

    prefix = "bad proof file: "


# ---------------------------------------------------------------------------
# Axiom table


def width_schema(k: int) -> Formula:
    """The width axiom for bound k, over k+1 metavariables.

    Premise: the meet of box(phi_i \\/ phi_j) over all pairs i < j.
    Conclusion: the join of box(phi_i).  Both folded left to right.
    """
    if k < 1:
        raise InputError(f"width bound must be >= 1, got {k}")
    mvs = [MetaVar(f"phi{i}") for i in range(1, k + 2)]
    conjuncts = [
        Box(Join(mvs[i], mvs[j]))
        for i in range(len(mvs))
        for j in range(i + 1, len(mvs))
    ]
    premise = conjuncts[0]
    for conjunct in conjuncts[1:]:
        premise = Meet(premise, conjunct)
    conclusion: Formula = Box(mvs[0])
    for mv in mvs[1:]:
        conclusion = Join(conclusion, Box(mv))
    return Impl(premise, conclusion)


DEFAULT_AXIOMS: Mapping[str, Formula] = {
    "LUK1": schema("phi -> (psi -> phi)"),
    "LUK2": schema("(phi -> psi) -> ((psi -> chi) -> (phi -> chi))"),
    "LUK3": schema("((phi -> psi) -> psi) -> ((psi -> phi) -> phi)"),
    "LUK4": schema("(~phi -> ~psi) -> (psi -> phi)"),
    "T-Box": schema("[]phi -> phi"),
    "T-Dia": schema("phi -> <>phi"),
    "K-Box": schema("[](nu -> phi) -> (nu -> []phi)", modalized=("nu",)),
    "K-Dia": schema("[](phi -> nu) -> (<>phi -> nu)", modalized=("nu",)),
    "Box-Join": schema("[](phi \\/ nu) -> ([]phi \\/ nu)", modalized=("nu",)),
    "M5": schema("<>(phi*phi) == <>phi * <>phi"),
}


def axiom_table(width: int | None = None) -> dict[str, Formula]:
    """The default schemas, optionally extended with the width axiom W<k>."""
    table = dict(DEFAULT_AXIOMS)
    if width is not None:
        table[f"W{width}"] = width_schema(width)
    return table


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True, slots=True)
class Premise:
    index: int


@dataclass(frozen=True, slots=True)
class Axiom:
    name: str


@dataclass(frozen=True, slots=True)
class ModusPonens:
    antecedent: int
    implication: int


@dataclass(frozen=True, slots=True)
class Necessitation:
    source: int


@dataclass(frozen=True, slots=True)
class BoxInf:
    """Bounded audit of the infinitary box rule.

    `template` is the conclusion formula itself; `cited` lists earlier steps
    expected to cover the premise family for every exponent 1..bound.
    """

    template: Formula
    bound: int
    cited: tuple[int, ...]


Justification = Premise | Axiom | ModusPonens | Necessitation | BoxInf


@dataclass(frozen=True, slots=True)
class ProofStep:
    formula: Formula
    by: Justification


@dataclass(frozen=True, slots=True)
class Proof:
    premises: tuple[Formula, ...]
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.steps:
            raise ValueError("empty proof has no conclusion")
        return self.steps[-1].formula


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of checking a proof.

    status is "accept", "accept-bounded" (the proof uses the infinitary rule,
    audited up to `bound`), or "reject" (with the failing 0-based step index
    and a reason).
    """

    status: str
    bound: int | None = None
    step: int | None = None
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.status != REJECT

    def to_json(self) -> dict:
        data: dict = {"status": self.status}
        if self.bound is not None:
            data["bound"] = self.bound
        if self.step is not None:
            data["step"] = self.step
        if self.reason is not None:
            data["reason"] = self.reason
        return data


_BOXINF_SHAPE = search.boxinf_conclusion(MetaVar("phi"), MetaVar("alpha"), MetaVar("beta"))
_BOXINF_SHAPE_TEXT = print_formula(_BOXINF_SHAPE)


def _star_leaf_count(tree: Formula, base: Formula) -> int | None:
    """If the tree is a pure star combination of copies of base, their count."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node == base:
            count += 1
        elif isinstance(node, Star):
            stack += (node.left, node.right)
        else:
            return None
    return count


def _premise_exponent(
    formula: Formula, boxphi: Formula, boxalpha: Formula, boxbeta: Formula
) -> int | None:
    """Exponent n when the formula reads boxphi \\/ (boxalpha -> boxbeta^n)."""
    if not isinstance(formula, Join) or formula.left != boxphi:
        return None
    body = formula.right
    if not isinstance(body, Impl) or body.left != boxalpha:
        return None
    return _star_leaf_count(body.right, boxbeta)


def _strip_side_conditions(pattern: Formula) -> Formula:
    binding = {mv.name: MetaVar(mv.name, modalized=False) for mv in metavariables(pattern)}
    return substitute(pattern, binding)


def check_proof(
    proof: Proof,
    axioms: Mapping[str, Formula] = DEFAULT_AXIOMS,
    boxinf_bound: int | None = None,
) -> Verdict:
    """Validate every step; first failure wins.

    Steps may only cite strictly earlier steps.  A `BoxInf` step whose bound
    exceeds `boxinf_bound` (when given) is rejected.  Proofs free of the
    infinitary rule come back "accept"; otherwise "accept-bounded" with the
    smallest audited bound.
    """

    def reject(step_index: int, reason: str) -> Verdict:
        return Verdict(status=REJECT, step=step_index, reason=reason)

    bounds: list[int] = []
    for idx, step in enumerate(proof.steps):
        by = step.by
        if isinstance(by, Premise):
            if not 0 <= by.index < len(proof.premises):
                return reject(idx, f"premise index {by.index} out of range")
            if step.formula != proof.premises[by.index]:
                return reject(
                    idx,
                    f"formula differs from premise {by.index}: "
                    f"expected {print_formula(proof.premises[by.index])}",
                )
        elif isinstance(by, Axiom):
            pattern = axioms.get(by.name)
            if pattern is None:
                return reject(idx, f"unknown axiom {by.name!r}")
            if match_schema(pattern, step.formula) is None:
                loose = match_schema(_strip_side_conditions(pattern), step.formula)
                if loose is not None:
                    bad = [
                        mv.name
                        for mv in metavariables(pattern)
                        if mv.modalized and not is_modalized(loose[mv.name])
                    ]
                    return reject(
                        idx,
                        f"side condition violated for {by.name}: "
                        f"{', '.join(bad)} must bind a modalized formula",
                    )
                return reject(
                    idx,
                    f"not an instance of {by.name}: "
                    f"expected shape {print_formula(pattern)}",
                )
        elif isinstance(by, ModusPonens):
            for cited in (by.antecedent, by.implication):
                if not 0 <= cited < idx:
                    return reject(idx, f"cites step {cited} which is not an earlier step")
            expected = Impl(proof.steps[by.antecedent].formula, step.formula)
            if proof.steps[by.implication].formula != expected:
                return reject(
                    idx,
                    f"step {by.implication} is not an implication from step "
                    f"{by.antecedent} to this step: expected {print_formula(expected)}",
                )
        elif isinstance(by, Necessitation):
            if not 0 <= by.source < idx:
                return reject(idx, f"cites step {by.source} which is not an earlier step")
            expected = Box(proof.steps[by.source].formula)
            if step.formula != expected:
                return reject(
                    idx,
                    f"formula is not box of step {by.source}: "
                    f"expected {print_formula(expected)}",
                )
        elif isinstance(by, BoxInf):
            if boxinf_bound is not None and by.bound > boxinf_bound:
                return reject(
                    idx,
                    f"instantiation bound {by.bound} exceeds --boxinf-bound {boxinf_bound}",
                )
            if by.bound < 1:
                return reject(idx, f"bound must be >= 1, got {by.bound}")
            binding = match_schema(_BOXINF_SHAPE, by.template)
            if binding is None:
                return reject(idx, f"template must have shape {_BOXINF_SHAPE_TEXT}")
            if step.formula != by.template:
                return reject(idx, "formula differs from the template")
            boxphi = Box(binding["phi"])
            boxalpha = Box(binding["alpha"])
            boxbeta = Box(binding["beta"])
            covered: set[int] = set()
            for cited in by.cited:
                if not 0 <= cited < idx:
                    return reject(idx, f"cites step {cited} which is not an earlier step")
                exponent = _premise_exponent(
                    proof.steps[cited].formula, boxphi, boxalpha, boxbeta
                )
                if exponent is not None:
                    covered.add(exponent)
            for n in range(1, by.bound + 1):
                if n not in covered:
                    return reject(
                        idx,
                        f"no cited step matches the premise for exponent {n}: "
                        f"expected {print_formula(boxphi)} \\/ "
                        f"({print_formula(boxalpha)} -> ({print_formula(boxbeta)})^{n})",
                    )
            bounds.append(by.bound)
        else:
            return reject(idx, f"unknown justification {by!r}")
    if bounds:
        return Verdict(status=ACCEPT_BOUNDED, bound=min(bounds))
    return Verdict(status=ACCEPT)


# ---------------------------------------------------------------------------
# JSON form
#
# {"premises": ["p"], "steps": [{"formula": "p", "by": "premise:0"},
#                               {"formula": "p -> <>p", "by": "axiom:T-Dia"},
#                               {"formula": "<>p", "by": "mp:0,1"}]}
#
# BoxInf: "by": "boxinf:template=<formula>,bound=<N>,steps=[i,j,...]"


def _parse_formula(text: object, what: str) -> Formula:
    if not isinstance(text, str):
        raise ProofFormatError(f"{what} must be a formula string, got {text!r}")
    try:
        return parse(text)
    except ParseError as exc:
        raise ProofFormatError(f"bad {what} {text!r}: {exc}") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ProofFormatError(f"bad {what} {text.strip()!r}") from None


def _parse_boxinf(rest: str) -> BoxInf:
    if not rest.startswith("template="):
        raise ProofFormatError(f"boxinf justification must start with 'template=', got {rest!r}")
    rest = rest[len("template=") :]
    # the formula grammar has no commas, so the first one ends the template
    cut = rest.find(",bound=")
    if cut < 0:
        raise ProofFormatError("boxinf justification lacks ',bound='")
    template = _parse_formula(rest[:cut], "boxinf template")
    rest = rest[cut + len(",bound=") :]
    cut = rest.find(",steps=")
    if cut < 0:
        raise ProofFormatError("boxinf justification lacks ',steps='")
    bound = _parse_int(rest[:cut], "boxinf bound")
    steps_text = rest[cut + len(",steps=") :].strip()
    if not (steps_text.startswith("[") and steps_text.endswith("]")):
        raise ProofFormatError(f"boxinf steps must be a bracketed list, got {steps_text!r}")
    inner = steps_text[1:-1].strip()
    cited = tuple(_parse_int(part, "boxinf step index") for part in inner.split(",")) if inner else ()
    return BoxInf(template=template, bound=bound, cited=cited)


def parse_justification(text: str) -> Justification:
    """Decode a "by" string."""
    if not isinstance(text, str):
        raise ProofFormatError(f"justification must be a string, got {text!r}")
    head, sep, rest = text.partition(":")
    head = head.strip()
    if not sep:
        raise ProofFormatError(f"justification {text!r} lacks ':'")
    if head == "premise":
        return Premise(_parse_int(rest, "premise index"))
    if head == "axiom":
        name = rest.strip()
        if not name:
            raise ProofFormatError("axiom justification lacks a name")
        return Axiom(name)
    if head == "mp":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ProofFormatError(f"mp justification needs two indices, got {rest!r}")
        return ModusPonens(
            _parse_int(parts[0], "mp index"), _parse_int(parts[1], "mp index")
        )
    if head == "nec":
        return Necessitation(_parse_int(rest, "nec index"))
    if head == "boxinf":
        return _parse_boxinf(rest.strip())
    raise ProofFormatError(f"unknown justification kind {head!r}")


def format_justification(by: Justification) -> str:
    if isinstance(by, Premise):
        return f"premise:{by.index}"
    if isinstance(by, Axiom):
        return f"axiom:{by.name}"
    if isinstance(by, ModusPonens):
        return f"mp:{by.antecedent},{by.implication}"
    if isinstance(by, Necessitation):
        return f"nec:{by.source}"
    if isinstance(by, BoxInf):
        cited = ",".join(str(i) for i in by.cited)
        return f"boxinf:template={print_formula(by.template)},bound={by.bound},steps=[{cited}]"
    raise TypeError(f"unknown justification {by!r}")


def proof_from_json(data: object) -> Proof:
    if not isinstance(data, dict):
        raise ProofFormatError("proof JSON must be an object")
    premises_data = data.get("premises", [])
    steps_data = data.get("steps")
    if not isinstance(premises_data, list):
        raise ProofFormatError('"premises" must be a list of formula strings')
    if not isinstance(steps_data, list) or not steps_data:
        raise ProofFormatError('"steps" must be a non-empty list')
    premises = tuple(_parse_formula(text, "premise") for text in premises_data)
    steps = []
    for i, entry in enumerate(steps_data):
        if not isinstance(entry, dict):
            raise ProofFormatError(f"step {i} must be an object")
        formula = _parse_formula(entry.get("formula"), f"step {i} formula")
        steps.append(ProofStep(formula=formula, by=parse_justification(entry.get("by"))))
    return Proof(premises=premises, steps=tuple(steps))


def proof_to_json(proof: Proof) -> dict:
    return {
        "premises": [print_formula(p) for p in proof.premises],
        "steps": [
            {"formula": print_formula(step.formula), "by": format_justification(step.by)}
            for step in proof.steps
        ],
    }


# ---------------------------------------------------------------------------
# Audit: axiom soundness over valuation grids

# A random formula has on average 0.3 * 1 + 0.5 * 2 = 1.3 children per node,
# so past ~30 levels one instance is already too large to scan; deeper
# requests are refused, well before `random_formula` meets the recursion limit.
_MAX_DEPTH = 100


def _check_depth(max_depth: int) -> None:
    if max_depth > _MAX_DEPTH:
        raise InputError(f"max_depth must be <= {_MAX_DEPTH}, got {max_depth}")


@dataclass(frozen=True, slots=True)
class AuditViolation:
    schema: str
    instance: str
    m: int
    n: int
    valuation: Mapping[str, core.MonadicElement]
    value: core.MonadicElement

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "instance": self.instance,
            "m": self.m,
            "n": self.n,
            "valuation": {k: core.format_tuple(v) for k, v in sorted(self.valuation.items())},
            "value": core.format_tuple(self.value),
        }


@dataclass(slots=True)
class AxiomAuditReport:
    m_max: int
    n_max: int
    cap: int
    seed: int
    trials: int
    assignments: dict[str, int] = field(default_factory=dict)
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "kind": "axiom-soundness",
            "m_max": self.m_max,
            "n_max": self.n_max,
            "cap": self.cap,
            "seed": self.seed,
            "trials": self.trials,
            "assignments": dict(sorted(self.assignments.items())),
            "violations": [v.to_json() for v in self.violations],
        }


def _scan_instance(
    cells: Sequence[tuple[int, int]], cap: int, task: tuple
) -> tuple[int, AuditViolation | None]:
    """Scan one compiled instance of a schema over every cell up to its first
    violation.

    A multiset pass may settle the instance before any cell
    (`search.scan_cells` with `settle_first`); violations, seed streams and
    assignments are those of the per-cell scan over the m-major `cells`.
    """
    name, instance, program, seed_base = task
    checked, _, hit = search.scan_cells(
        (), instance, program, cells, cap, seed_base, settle_first=True
    )
    if hit is None:
        return checked, None
    m, n, valuation, values = hit
    text = print_formula(instance)
    return checked, AuditViolation(name, text, m, n, valuation, values[text])


def axiom_soundness_audit(
    m_max: int = 3,
    n_max: int = 3,
    trials: int = 100,
    cap: int = 10**6,
    seed: int = 0,
    axioms: Mapping[str, Formula] | None = None,
    names: Sequence[str] = ("p", "q", "r"),
    max_depth: int = 3,
    jobs: int = 1,
) -> AxiomAuditReport:
    """Random instances of every schema, checked over full valuation grids.

    Every cell (m, n) with m <= m_max, n <= n_max is enumerated exhaustively
    when it has at most `cap` assignments and sampled uniformly otherwise.
    Violations are re-verified through the exact scalar route before being
    reported.  Raises InputError before any work for a negative trial count,
    a `max_depth` past `_MAX_DEPTH` or a budget `search.SearchBudget`
    rejects, and before scanning any cell when one within the cap is too
    large to index (see `enumeration.check_cell`).  The distinct instances
    of all schemas go through one `search.fan_out`, so the report does not
    depend on jobs.

    A valid instance may be settled by one pass over row multisets before
    any cell, when `search.scan_cells` finds that this pays; it reports the
    assignments of the per-cell scan all the same.
    """
    if axioms is None:
        axioms = DEFAULT_AXIOMS
    check_trials(trials)
    _check_depth(max_depth)
    search.SearchBudget(m_max=m_max, n_max=n_max, valuation_cap=cap, seed=seed)
    report = AxiomAuditReport(
        m_max=m_max, n_max=n_max, cap=cap, seed=seed, trials=trials,
        assignments=dict.fromkeys(axioms, 0),
    )
    rng = random.Random(seed)
    tasks: list[tuple] = []
    counts: list[int] = []
    for schema_index, (name, pattern) in enumerate(axioms.items()):
        # identical instances land on identical results; scan each once, at
        # the seed of its first offset, and repeat its violation
        drawn: dict[Formula, list[int]] = {}
        for offset in range(trials):
            instance = random_instance(rng, pattern, names, max_depth)
            drawn.setdefault(instance, [offset, 0])[1] += 1
        for instance, (offset, count) in drawn.items():
            program = enumeration.compile_claim((), instance)
            tasks.append((name, instance, program, (seed, schema_index, offset)))
            counts.append(count)
    cells = [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
    for nvars in {len(task[2].names) for task in tasks}:  # before any scan
        for m, n in cells:
            enumeration.check_cell(m, n, nvars, cap)
    scan = partial(_scan_instance, cells, cap)
    results = search.fan_out(scan, tasks, jobs)
    for task, count, (checked, violation) in zip(tasks, counts, results):
        report.assignments[task[0]] += checked
        if violation is not None:
            report.violations += [violation] * count
    return report


# ---------------------------------------------------------------------------
# Audit: admissible rules, checked semantically on random structures

DERIVED_RULES = ("prelinearity", "disjunction-hypothesis", "disjunction-conclusion")


@dataclass(slots=True)
class RuleAuditReport:
    rule: str
    trials: int
    applicable: int
    seed: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "kind": "derived-rule",
            "rule": self.rule,
            "trials": self.trials,
            "applicable": self.applicable,
            "seed": self.seed,
            "violations": self.violations,
        }


def derived_rule_audit(
    rule: str,
    trials: int = 500,
    seed: int = 0,
    m_max: int = 3,
    n_max: int = 3,
    names: Sequence[str] = ("p", "q", "r"),
    max_depth: int = 2,
) -> RuleAuditReport:
    """Check the one-structure fact that makes an admissible rule sound.

    prelinearity: every structure satisfies box(a) -> box(b) or its converse.
    disjunction-hypothesis: a structure satisfying box(a) \\/ box(b) satisfies
    box(a) or box(b).  disjunction-conclusion: a structure satisfying
    f \\/ box(g) satisfies f or box(g).
    """
    if rule not in DERIVED_RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {DERIVED_RULES}")
    check_trials(trials, m_max=m_max, n_max=n_max)
    _check_depth(max_depth)
    rng = random.Random(seed)
    report = RuleAuditReport(rule=rule, trials=trials, applicable=0, seed=seed)
    for _ in range(trials):
        m = rng.randint(1, m_max)
        n = rng.randint(1, n_max)
        first = random_formula(rng, names, max_depth)
        second = random_formula(rng, names, max_depth)
        structure = semantics.SafeStructure(
            worlds=n, valuation=random_valuation(rng, names, m, n)
        )
        if rule == "prelinearity":
            left = Impl(Box(first), Box(second))
            right = Impl(Box(second), Box(first))
            report.applicable += 1
            ok = semantics.holds(structure, left) or semantics.holds(structure, right)
        elif rule == "disjunction-hypothesis":
            if not semantics.holds(structure, Join(Box(first), Box(second))):
                continue
            report.applicable += 1
            ok = semantics.holds(structure, Box(first)) or semantics.holds(
                structure, Box(second)
            )
        else:
            if not semantics.holds(structure, Join(first, Box(second))):
                continue
            report.applicable += 1
            ok = semantics.holds(structure, first) or semantics.holds(
                structure, Box(second)
            )
        if not ok:
            report.violations.append(
                {
                    "first": print_formula(first),
                    "second": print_formula(second),
                    "model": semantics.model_to_json(structure),
                }
            )
    return report
