"""Release gate: ten end-to-end checks covering every part of the workbench.

Each test prints exactly one line of the form

    [acceptance NN] PASS — detail
    [acceptance NN] FAIL — detail

and then asserts, so `pytest tests/test_acceptance.py -s` gives a one-line
verdict per criterion.  The suite favors exactness over speed and takes
about 13 s on a 2-core machine: about 8 s for the quantifier identities
(criterion 2) and 5 s for the axiom soundness sweep (criterion 1).
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import identity_checks

from mmv import core
from mmv.analysis import (
    AlgebraError,
    classify,
    fep_embed,
    generate_subalgebra,
    orthogonal_width,
    represent_simple,
    width_equation_holds,
)
from mmv.enumeration import scan_cell
from mmv.proofs import (
    ACCEPT,
    REJECT,
    axiom_soundness_audit,
    axiom_table,
    check_proof,
    proof_from_json,
    width_schema,
)
from mmv.randgen import random_formula, random_instance, random_valuation
from mmv.search import SearchBudget, boxinf_soundness_probe, refute, refute_width_k
from mmv.semantics import SafeStructure, evaluate
from mmv.syntax import Var, parse, substitute, variables

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

F = Fraction


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {number:02d}] {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_functional_algebra(rng, m_max, n_max, carrier_cap):
    """Draw random generators in a random power until the closure fits."""
    while True:
        m = rng.randint(1, m_max)
        n = rng.randint(1, n_max)
        chain = core.enumerate_chain(m)
        generators = [
            tuple(rng.choice(chain) for _ in range(n))
            for _ in range(rng.randint(0, 2))
        ]
        try:
            algebra = generate_subalgebra(m, n, generators, max_size=carrier_cap)
        except AlgebraError:
            continue
        if algebra.size <= carrier_cap:
            return algebra


# ---------------------------------------------------------------------------


def test_acceptance_01_axiom_soundness():
    started = time.perf_counter()
    report = axiom_soundness_audit(
        m_max=3, n_max=3, trials=1000, cap=10**6, seed=0
    )
    elapsed = time.perf_counter() - started
    schemas = len(axiom_table())
    total = sum(report.assignments.values())
    _report(
        1,
        report.ok and set(report.assignments) == set(axiom_table()),
        f"axiom soundness: {schemas} schemas x 1000 instances, "
        f"{len(report.violations)} violations, {total} exact assignments "
        f"({elapsed:.1f}s)",
    )


def test_acceptance_02_quantifier_identities():
    failures = []
    checked = 0
    # exhaustive sweeps over two small canonical powers
    for m, n in ((1, 2), (2, 2)):
        elements = list(core.enumerate_power(m, n))
        constants = [core.const_tuple(v, n) for v in core.enumerate_chain(m)]
        for a, b in itertools.product(elements, repeat=2):
            for c in constants:
                failures.extend(identity_checks.all_violations(a, b, c))
                checked += 1
    # random sampling in a larger power
    rng = random.Random(2)
    chain = core.enumerate_chain(4)
    for _ in range(10_000):
        a = tuple(rng.choice(chain) for _ in range(3))
        b = tuple(rng.choice(chain) for _ in range(3))
        c = core.const_tuple(rng.choice(chain), 3)
        failures.extend(identity_checks.all_violations(a, b, c))
        checked += 1
    _report(
        2,
        not failures,
        f"quantifier identities + order/arithmetic facts: {checked} triples, "
        f"{len(failures)} violations",
    )


def test_acceptance_03_algebraic_model_bridge():
    rng = random.Random(3)
    mismatches = 0
    for _ in range(500):
        formula = random_formula(rng, max_depth=3)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        names = sorted(variables(formula))
        valuation = random_valuation(rng, names, m, n)
        algebraic = core.eval_in_power(formula, valuation, n)
        modal = evaluate(SafeStructure(worlds=n, valuation=valuation), formula)
        if algebraic != modal:
            mismatches += 1
    _report(
        3,
        mismatches == 0,
        f"algebraic vs. structure evaluation on 500 random pairs: "
        f"{mismatches} mismatches",
    )


def test_acceptance_04_countermodel_regression():
    ok = True
    notes = []

    started = time.perf_counter()
    collapse = refute([], parse("<>p -> []p"))
    collapse_time = time.perf_counter() - started
    ok &= collapse.found and (collapse.m, collapse.n) == (1, 2)
    ok &= collapse.valuation == {"p": (F(1), F(0))}
    ok &= collapse_time < 1.0
    notes.append(f"collapse witness in {collapse_time * 1000:.0f}ms")

    width_instance = parse("[](p \\/ q) -> []p \\/ []q")
    started = time.perf_counter()
    width_report = refute([], width_instance)
    width_time = time.perf_counter() - started
    ok &= width_report.found and (width_report.m, width_report.n) == (1, 2)
    ok &= width_report.valuation == {
        "p": (F(1), F(0)),
        "q": (F(0), F(1)),
    }
    ok &= width_time < 1.0
    notes.append(f"width-1 witness in {width_time * 1000:.0f}ms")

    exhausted = refute_width_k(
        [], width_instance, k=1, budget=SearchBudget(m_max=3, n_max=1)
    )
    ok &= not exhausted.found and exhausted.verdict == "exhausted"
    notes.append("k=1 search exhausts single-world cells")

    _report(4, ok, "; ".join(notes))


def test_acceptance_05_width_dichotomy():
    rng = random.Random(5)
    ok = True
    notes = []
    for k in (1, 2):
        schema_formula = width_schema(k)
        # random instances stay valid on every model with at most k worlds
        for _ in range(10):
            instance = random_instance(rng, schema_formula, max_depth=2)
            for m in (1, 2):
                for n in range(1, k + 1):
                    result = scan_cell([], instance, m, n, cap=10**6, seed=0)
                    ok &= result.exhaustive and not result.found
        # the distinct-variable instance fails at k+1 worlds on the
        # characteristic tuples (0 in one slot, 1 elsewhere)
        names = [f"q{i}" for i in range(k + 1)]
        binding = {f"phi{i + 1}": Var(names[i]) for i in range(k + 1)}
        canonical = substitute(schema_formula, binding)
        worlds = k + 1
        valuation = {
            names[i]: tuple(
                F(0) if j == i else F(1) for j in range(worlds)
            )
            for i in range(k + 1)
        }
        value = evaluate(
            SafeStructure(worlds=worlds, valuation=valuation), canonical
        )
        ok &= value == (F(0),) * worlds
        found = refute(
            [], canonical, budget=SearchBudget(m_max=1, n_max=worlds)
        )
        ok &= found.found and found.n == worlds
        notes.append(
            f"W{k}: 10 instances valid on n<=k, canonical instance refuted "
            f"at n={worlds}"
        )
    _report(5, ok, "; ".join(notes))


def test_acceptance_06_proof_corpus():
    base = json.loads((CORPUS / "proofs" / "dia-from-p.json").read_text())
    bounded = json.loads((CORPUS / "proofs" / "boxinf-bounded.json").read_text())
    accepted = check_proof(proof_from_json(base))
    ok = accepted.status == ACCEPT

    def mutant(source, step, reason, **fields):
        data = copy.deepcopy(source)
        data["steps"][step].update(fields)
        return data, step, reason

    side_condition = {
        "premises": [],
        "steps": [
            {"formula": "[](p -> q) -> (p -> []q)", "by": "axiom:K-Box"}
        ],
    }
    mutants = [
        mutant(base, 0, "premise index 3 out of range", by="premise:3"),
        mutant(base, 0, "formula differs from premise 0", formula="q"),
        mutant(base, 1, "unknown axiom 'T-Star'", by="axiom:T-Star"),
        mutant(base, 1, "not an instance of T-Dia", formula="p -> []p"),
        mutant(base, 2, "not an implication from step 1", by="mp:1,0"),
        mutant(base, 2, "not an earlier step", by="mp:0,5"),
        mutant(base, 2, "not box of step 0", by="nec:0"),
        (side_condition, 0, "side condition violated for K-Box"),
        mutant(
            bounded,
            1,
            "no cited step matches the premise",
            by="boxinf:template=[]r \\/ ([]p -> []p*[]q),bound=1,steps=[]",
        ),
        mutant(
            bounded,
            1,
            "template must have shape",
            by="boxinf:template=[]q,bound=1,steps=[0]",
            formula="[]q",
        ),
    ]
    rejected = 0
    for data, step, reason in mutants:
        verdict = check_proof(proof_from_json(data))
        if (
            verdict.status == REJECT
            and verdict.step == step
            and reason in verdict.reason
        ):
            rejected += 1
    _report(
        6,
        ok and rejected == len(mutants),
        f"corpus proof accepted; {rejected}/{len(mutants)} mutants rejected "
        f"with the expected step and reason",
    )


def test_acceptance_07_simple_representation():
    rng = random.Random(7)
    verified = 0
    while verified < 50:
        algebra = _random_functional_algebra(rng, m_max=4, n_max=3, carrier_cap=64)
        result = classify(algebra)
        if not result.simple:
            continue
        rep = represent_simple(algebra)
        f = rep.mapping
        ok = len(set(f.values())) == algebra.size
        for a in range(algebra.size):
            image = f[a]
            ok &= f[algebra.exists_table[a]] == core.exists_sup(image)
            ok &= f[algebra.forall_table[a]] == core.forall_inf(image)
            for b in range(algebra.size):
                ok &= f[algebra.impl_table[a][b]] == core.power_binop(
                    "impl", f[a], f[b]
                )
        if not ok:
            _report(7, False, "representation verification failed")
            return
        verified += 1
    _report(
        7,
        True,
        "50 random simple algebras represented; injectivity, implication, "
        "and both quantifier clauses re-verified exhaustively",
    )


def test_acceptance_08_fep_embeddings():
    rng = random.Random(8)
    verified = 0
    while verified < 100:
        m = rng.randint(1, 5)
        points = rng.randint(1, 4)
        chain = core.enumerate_chain(m)
        family = list(
            dict.fromkeys(
                tuple(rng.choice(chain) for _ in range(points))
                for _ in range(rng.randint(1, 6))
            )
        )
        emb = fep_embed(family)
        family_set = set(family)
        h = emb.mapping
        ok = len({h[x] for x in family}) == len(family)
        for x in family:
            ok &= core.in_power(h[x], emb.m, emb.n)
            # the inf-quantifier clause: the constant at min(x) maps to the
            # constant at min(h(x)) because the witness point is kept
            constant = core.const_tuple(min(x), points)
            if constant in family_set:
                ok &= h[constant] == core.const_tuple(min(h[x]), emb.n)
        zero = core.const_tuple(F(0), points)
        if zero in family_set:
            ok &= h[zero] == core.const_tuple(F(0), emb.n)
        for x, y in itertools.product(family, repeat=2):
            pointwise = core.power_binop("impl", x, y)
            if pointwise in family_set:
                ok &= h[pointwise] == core.power_binop("impl", h[x], h[y])
        if not ok:
            _report(8, False, "an embedding failed re-verification")
            return
        verified += 1
    _report(
        8,
        True,
        "100 random witnessed families embedded into finite powers; "
        "injectivity and the zero/implication/inf clauses re-verified",
    )


def test_acceptance_09_width_cross_check():
    rng = random.Random(9)
    checked = 0
    agreements = 0
    while checked < 40:
        algebra = _random_functional_algebra(rng, m_max=3, n_max=4, carrier_cap=32)
        if not classify(algebra, width_cap=32).fsi:
            continue
        width, _ = orthogonal_width(algebra)
        least = next(
            (k for k in (1, 2, 3) if width_equation_holds(algebra, k)[0]),
            None,
        )
        if width <= 3:
            agreements += least == width
        else:
            agreements += least is None
        checked += 1
    _report(
        9,
        agreements == checked,
        f"orthogonal-set width equals the least satisfied width equation on "
        f"{agreements}/{checked} random algebras (carrier <= 32)",
    )


def test_acceptance_10_bounded_rule_probe():
    report = boxinf_soundness_probe(bound=1, trials=1000, seed=0)
    ok = report.ok and not report.violations and len(report.gaps) >= 1
    _report(
        10,
        ok,
        f"bounded rule probe: {report.premise_models} premise models over "
        f"1000 trials, {len(report.violations)} violations, "
        f"{len(report.gaps)} finite-approximation gaps recorded",
    )
