"""Tests for Hilbert-style proof checking and the axiom/rule audits."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mmv import enumeration, proofs
from mmv.proofs import (
    ACCEPT,
    ACCEPT_BOUNDED,
    DEFAULT_AXIOMS,
    REJECT,
    Axiom,
    BoxInf,
    ModusPonens,
    Necessitation,
    Premise,
    ProofFormatError,
    axiom_soundness_audit,
    axiom_table,
    check_proof,
    derived_rule_audit,
    format_justification,
    parse_justification,
    proof_from_json,
    proof_to_json,
    width_schema,
)
from mmv.randgen import random_instance
from mmv.semantics import SafeStructure, evaluate
from mmv.syntax import InputError, parse, print_formula, schema

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "proofs"

DIA_FROM_P = {
    "premises": ["p"],
    "steps": [
        {"formula": "p", "by": "premise:0"},
        {"formula": "p -> <>p", "by": "axiom:T-Dia"},
        {"formula": "<>p", "by": "mp:0,1"},
    ],
}


# ---------------------------------------------------------------------------
# axiom table
# ---------------------------------------------------------------------------


def test_axiom_table_names():
    assert sorted(axiom_table()) == [
        "Box-Join",
        "K-Box",
        "K-Dia",
        "LUK1",
        "LUK2",
        "LUK3",
        "LUK4",
        "M5",
        "T-Box",
        "T-Dia",
    ]


def test_axiom_table_width_parameter_adds_schema():
    table = axiom_table(width=2)
    assert set(table) - set(axiom_table()) == {"W2"}
    assert print_formula(table["W2"]) == print_formula(width_schema(2))


@pytest.mark.parametrize(
    "k, printed",
    [
        (1, "[](phi1 \\/ phi2) -> []phi1 \\/ []phi2"),
        (
            2,
            "[](phi1 \\/ phi2) /\\ [](phi1 \\/ phi3) /\\ [](phi2 \\/ phi3)"
            " -> []phi1 \\/ []phi2 \\/ []phi3",
        ),
    ],
)
def test_width_schema_shape(k, printed):
    assert print_formula(width_schema(k)) == printed


def test_width_schema_rejects_nonpositive():
    with pytest.raises(ValueError):
        width_schema(0)


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------


def test_corpus_proof_accepts():
    data = json.loads((CORPUS / "dia-from-p.json").read_text())
    proof = proof_from_json(data)
    verdict = check_proof(proof)
    assert verdict.status == ACCEPT
    assert print_formula(proof.conclusion) == "<>p"


def test_accept_with_width_axiom():
    data = {
        "premises": [],
        "steps": [
            {
                "formula": "[](p \\/ q) -> []p \\/ []q",
                "by": "axiom:W1",
            }
        ],
    }
    verdict = check_proof(proof_from_json(data), axioms=axiom_table(width=1))
    assert verdict.status == ACCEPT
    # with the default table the axiom name is unknown
    verdict = check_proof(proof_from_json(data))
    assert verdict.status == REJECT
    assert "unknown axiom 'W1'" in verdict.reason


def test_necessitation_accepts_axiom_step():
    data = {
        "premises": [],
        "steps": [
            {"formula": "p -> (q -> p)", "by": "axiom:LUK1"},
            {"formula": "[](p -> (q -> p))", "by": "nec:0"},
        ],
    }
    assert check_proof(proof_from_json(data)).status == ACCEPT


# ---------------------------------------------------------------------------
# rejection diagnostics
# ---------------------------------------------------------------------------


def _mutated(base, step, **fields):
    data = copy.deepcopy(base)
    data["steps"][step].update(fields)
    return check_proof(proof_from_json(data))


def test_reject_premise_index_out_of_range():
    verdict = _mutated(DIA_FROM_P, 0, by="premise:3")
    assert verdict.status == REJECT
    assert verdict.step == 0
    assert verdict.reason == "premise index 3 out of range"


def test_reject_formula_differs_from_premise():
    verdict = _mutated(DIA_FROM_P, 0, formula="q")
    assert (verdict.status, verdict.step) == (REJECT, 0)
    assert verdict.reason == "formula differs from premise 0: expected p"


def test_reject_unknown_axiom():
    verdict = _mutated(DIA_FROM_P, 1, by="axiom:T-Star")
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == "unknown axiom 'T-Star'"


def test_reject_not_an_instance():
    verdict = _mutated(DIA_FROM_P, 1, formula="p -> []p")
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == "not an instance of T-Dia: expected shape phi -> <>phi"


def test_reject_mp_wrong_order():
    verdict = _mutated(DIA_FROM_P, 2, by="mp:1,0")
    assert (verdict.status, verdict.step) == (REJECT, 2)
    assert (
        verdict.reason
        == "step 0 is not an implication from step 1 to this step:"
        " expected (p -> <>p) -> <>p"
    )


def test_reject_mp_cites_later_step():
    verdict = _mutated(DIA_FROM_P, 2, by="mp:0,5")
    assert (verdict.status, verdict.step) == (REJECT, 2)
    assert verdict.reason == "cites step 5 which is not an earlier step"


def test_reject_nec_of_wrong_formula():
    verdict = _mutated(DIA_FROM_P, 2, by="nec:0")
    assert (verdict.status, verdict.step) == (REJECT, 2)
    assert verdict.reason == "formula is not box of step 0: expected []p"


def test_reject_k_box_side_condition():
    data = {
        "premises": [],
        "steps": [{"formula": "[](p -> q) -> (p -> []q)", "by": "axiom:K-Box"}],
    }
    verdict = check_proof(proof_from_json(data))
    assert (verdict.status, verdict.step) == (REJECT, 0)
    assert verdict.reason == (
        "side condition violated for K-Box: nu must bind a modalized formula"
    )
    # with a modalized antecedent the same schema applies
    ok = {
        "premises": [],
        "steps": [
            {"formula": "[]([]p -> q) -> ([]p -> []q)", "by": "axiom:K-Box"}
        ],
    }
    assert check_proof(proof_from_json(ok)).status == ACCEPT


def test_verdict_json_shapes():
    assert check_proof(proof_from_json(DIA_FROM_P)).to_json() == {
        "status": "accept"
    }
    rejected = _mutated(DIA_FROM_P, 0, by="premise:3")
    assert rejected.to_json() == {
        "status": "reject",
        "step": 0,
        "reason": "premise index 3 out of range",
    }


# ---------------------------------------------------------------------------
# bounded infinitary rule
# ---------------------------------------------------------------------------


def test_corpus_boxinf_accept_bounded():
    data = json.loads((CORPUS / "boxinf-bounded.json").read_text())
    verdict = check_proof(proof_from_json(data))
    assert verdict.status == ACCEPT_BOUNDED
    assert verdict.bound == 1
    assert verdict.to_json() == {"status": "accept-bounded", "bound": 1}


def _boxinf_base():
    return json.loads((CORPUS / "boxinf-bounded.json").read_text())


def test_boxinf_requires_cited_premise_for_each_exponent():
    data = _boxinf_base()
    data["steps"][1]["by"] = (
        "boxinf:template=[]r \\/ ([]p -> []p*[]q),bound=1,steps=[]"
    )
    verdict = check_proof(proof_from_json(data))
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == (
        "no cited step matches the premise for exponent 1:"
        " expected []r \\/ ([]p -> ([]q)^1)"
    )


def test_boxinf_formula_must_equal_template():
    data = _boxinf_base()
    data["steps"][1]["formula"] = "[]r \\/ ([]p -> []q*[]q)"
    verdict = check_proof(proof_from_json(data))
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == "formula differs from the template"


def test_boxinf_template_shape_enforced():
    data = _boxinf_base()
    data["steps"][1]["formula"] = "[]r \\/ ([]p -> []q*[]q)"
    data["steps"][1]["by"] = (
        "boxinf:template=[]r \\/ ([]p -> []q*[]q),bound=1,steps=[0]"
    )
    verdict = check_proof(proof_from_json(data))
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == (
        "template must have shape []phi \\/ ([]alpha -> []alpha*[]beta)"
    )


def test_boxinf_bound_must_be_positive():
    data = _boxinf_base()
    data["steps"][1]["by"] = (
        "boxinf:template=[]r \\/ ([]p -> []p*[]q),bound=0,steps=[0]"
    )
    verdict = check_proof(proof_from_json(data))
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == "bound must be >= 1, got 0"


def test_boxinf_bound_cap_rejects_oversized_steps():
    proof = proof_from_json(_boxinf_base())
    assert check_proof(proof, boxinf_bound=1).status == ACCEPT_BOUNDED
    verdict = check_proof(proof, boxinf_bound=0)
    assert (verdict.status, verdict.step) == (REJECT, 1)
    assert verdict.reason == "instantiation bound 1 exceeds --boxinf-bound 0"


def test_boxinf_bound_cap_yields_to_an_earlier_failing_step():
    # first failure wins: a bad premise citation before the oversized
    # bound is what the verdict reports
    data = _boxinf_base()
    data["steps"][0]["by"] = "premise:5"
    verdict = check_proof(proof_from_json(data), boxinf_bound=0)
    assert (verdict.status, verdict.step) == (REJECT, 0)
    assert verdict.reason == "premise index 5 out of range"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_proof_json_round_trip():
    for name in ("dia-from-p.json", "boxinf-bounded.json"):
        data = json.loads((CORPUS / name).read_text())
        assert proof_to_json(proof_from_json(data)) == data


@pytest.mark.parametrize(
    "text, kind",
    [
        ("premise:0", Premise),
        ("axiom:T-Dia", Axiom),
        ("mp:0,1", ModusPonens),
        ("nec:2", Necessitation),
        ("boxinf:template=[]r \\/ ([]p -> []p*[]q),bound=2,steps=[0, 1]", BoxInf),
    ],
)
def test_justification_round_trip(text, kind):
    justification = parse_justification(text)
    assert isinstance(justification, kind)
    assert parse_justification(format_justification(justification)) == justification


@pytest.mark.parametrize(
    "text",
    [
        "premise:x",
        "axiom:",
        "mp:0",
        "nec:0,1",
        "boxinf:bound=1,steps=[0]",
        "wat:0",
    ],
)
def test_justification_parse_errors(text):
    with pytest.raises(ProofFormatError):
        parse_justification(text)


def test_proof_from_json_rejects_bad_shapes():
    with pytest.raises(ProofFormatError):
        proof_from_json({"steps": []})
    with pytest.raises(ProofFormatError):
        proof_from_json({"premises": [], "steps": [{"formula": "p"}]})
    with pytest.raises(ProofFormatError):
        proof_from_json({"premises": [], "steps": "p"})


def test_empty_proof_rejected():
    with pytest.raises(ProofFormatError, match="non-empty list"):
        proof_from_json({"premises": [], "steps": []})


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def test_axiom_audit_small_run_is_clean_and_deterministic():
    first = axiom_soundness_audit(trials=3, m_max=2, n_max=2, cap=10**5, seed=7)
    second = axiom_soundness_audit(trials=3, m_max=2, n_max=2, cap=10**5, seed=7)
    assert first.ok
    assert not first.violations
    assert first.to_json() == second.to_json()
    assert set(first.assignments) == set(axiom_table())
    assert all(count > 0 for count in first.assignments.values())


@pytest.mark.parametrize("depth", [proofs._MAX_DEPTH + 1, 1000])
def test_audits_refuse_depths_past_the_bound_before_any_draw(depth, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a formula before checking max_depth")

    monkeypatch.setattr(proofs, "random_instance", no_draw)
    monkeypatch.setattr(proofs, "random_formula", no_draw)
    message = f"^max_depth must be <= {proofs._MAX_DEPTH}, got {depth}$"
    with pytest.raises(InputError, match=message):
        axiom_soundness_audit(trials=1, max_depth=depth)
    with pytest.raises(InputError, match=message):
        derived_rule_audit("prelinearity", trials=1, max_depth=depth)


@pytest.mark.parametrize("depth", [-1, -7])
def test_audits_draw_leaves_at_depths_below_zero(depth):
    # the bound leaves small depths alone: at or below 0 every draw is a leaf
    options = dict(trials=4, m_max=2, n_max=2, seed=5)
    assert axiom_soundness_audit(max_depth=depth, **options).to_json() == (
        axiom_soundness_audit(max_depth=0, **options).to_json()
    )
    assert derived_rule_audit("prelinearity", max_depth=depth, **options).to_json() == (
        derived_rule_audit("prelinearity", max_depth=0, **options).to_json()
    )


def test_axiom_audit_parallel_matches_serial():
    serial = axiom_soundness_audit(trials=2, m_max=2, n_max=2, cap=10**5, seed=3)
    parallel = axiom_soundness_audit(
        trials=2, m_max=2, n_max=2, cap=10**5, seed=3, jobs=2
    )
    assert serial.to_json() == parallel.to_json()


def test_axiom_audit_rejects_unindexable_cells_before_scanning(monkeypatch):
    wide = parse(" \\/ ".join(f"p{i}" for i in range(14)))

    def no_scan(*args):
        raise AssertionError("scanned a cell before checking them all")

    monkeypatch.setattr(enumeration, "scan_program", no_scan)
    monkeypatch.setattr(enumeration, "multisets_clean", no_scan)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        axiom_soundness_audit(
            trials=2, m_max=2, n_max=3, cap=3**42, axioms={"T": schema("phi -> phi"), "WIDE": wide}
        )


_UNSOUND = {
    f"U{i}": schema(text)
    for i, text in enumerate(
        ("phi -> []phi", "<>phi -> []phi", "phi -> phi*phi", "[]phi \\/ []~phi")
    )
}


@pytest.mark.parametrize(
    "options",
    [
        dict(trials=4, seed=0),
        dict(trials=12, seed=5, m_max=4, n_max=2, cap=10**5),
        dict(trials=12, seed=6, m_max=2, n_max=3, axioms=_UNSOUND),
        dict(trials=12, seed=7, m_max=4, n_max=3, cap=10**7, axioms=_UNSOUND),
        dict(trials=12, seed=8, m_max=3, n_max=1, axioms=_UNSOUND),
        # cells above 300 assignments are sampled, so the per-cell route runs
        dict(trials=12, seed=9, cap=300, axioms={**_UNSOUND, **DEFAULT_AXIOMS}),
        # cell (4, 3) of a 3-variable instance is sampled at the default cap,
        # yet its row multisets are fewer than the assignments the cells check
        dict(trials=2, seed=11, m_max=4, n_max=3),
    ],
)
def test_axiom_audit_multiset_route_reports_what_the_cell_scan_does(options, monkeypatch):
    original = enumeration.multisets_clean
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(enumeration, "multisets_clean", counted)
    report = axiom_soundness_audit(**options).to_json()
    assert calls
    monkeypatch.setattr(enumeration, "multisets_clean", lambda *args: False)
    assert report == axiom_soundness_audit(**options).to_json()


@pytest.mark.parametrize("m_max, n_max", [(4, 3), (1, 1)])
def test_axiom_audit_settles_clean_instances_by_row_multisets(m_max, n_max, monkeypatch):
    # the multiset pass settles a clean instance whenever it is no larger
    # than the per-cell scan: at (4, 3) and the default cap, cell (4, 3) of
    # a 3-variable instance is sampled; at (1, 1) the multisets are exactly
    # the assignments of the one cell
    assert not enumeration.check_cell(4, 3, 3, 10**6)
    original = enumeration.multisets_clean
    settled = []

    def counted(program, m_max, n_max):
        settled.append(len(program.names))
        return original(program, m_max, n_max)

    def no_scan(*args):
        raise AssertionError("a clean instance went through the per-cell scan")

    monkeypatch.setattr(enumeration, "multisets_clean", counted)
    monkeypatch.setattr(enumeration, "scan_program", no_scan)
    assert axiom_soundness_audit(trials=3, seed=11, m_max=m_max, n_max=n_max).ok
    assert 3 in settled


@pytest.mark.parametrize("cap, settles", [(10**6, False), (10**7, True)])
def test_axiom_audit_settles_uncached_multisets_only_against_full_cells(
    cap, settles, monkeypatch
):
    # with a 1 MB cache the 6.8 MB of 3-variable multisets at (4, 3) would be
    # decoded anew for every instance; that pays off only when no cell is
    # sampled (cap 10**7), not against the sampled cell (4, 3) at 10**6
    expected = axiom_soundness_audit(trials=2, seed=11, m_max=4, n_max=3, cap=cap).to_json()
    original = enumeration.multisets_clean
    settled = []

    def counted(program, m_max, n_max):
        settled.append(len(program.names))
        return original(program, m_max, n_max)

    monkeypatch.setattr(enumeration, "_GRIDS", enumeration._GridCache(max_bytes=1 << 20))
    monkeypatch.setattr(enumeration, "multisets_clean", counted)
    report = axiom_soundness_audit(trials=2, seed=11, m_max=4, n_max=3, cap=cap).to_json()
    assert report == expected
    assert 2 in settled
    assert (3 in settled) == settles


# seed 1 draws repeated instances of U0, U1 and U2; cells above 300
# assignments are sampled
_REPEATED = dict(trials=12, seed=1, cap=300, axioms=_UNSOUND)


def test_axiom_audit_report_does_not_depend_on_jobs():
    reports = [axiom_soundness_audit(**_REPEATED, jobs=jobs).to_json() for jobs in (1, 2, 3)]
    assert reports[0]["violations"]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_axiom_audit_seeds_cells_by_schema_first_offset_and_cell():
    # an independent per-cell scan of each distinct instance, seeded
    # (seed, schema index, first offset, m, n), gives the reported violations
    # in order of first offset, each repeated by its multiplicity
    report = axiom_soundness_audit(**_REPEATED)
    rng = random.Random(1)
    expected = []
    repeated = 0
    for schema_index, (name, pattern) in enumerate(_UNSOUND.items()):
        instances = [random_instance(rng, pattern, ("p", "q", "r"), 3) for _ in range(12)]
        for offset, instance in enumerate(instances):
            if instances.index(instance) < offset:
                repeated += 1
                continue
            for m, n in [(m, n) for m in range(1, 4) for n in range(1, 4)]:
                seed = (1, schema_index, offset, m, n)
                result = enumeration.scan_cell([], instance, m, n, 300, seed)
                if result.found:
                    hit = (name, print_formula(instance), m, n, result.valuation)
                    expected += [hit] * instances.count(instance)
                    break
    assert repeated > 0
    got = [(v.schema, v.instance, v.m, v.n, v.valuation) for v in report.violations]
    assert got == expected


def test_axiom_audit_builds_one_pool_for_all_schemas(fake_pool):
    serial = axiom_soundness_audit(**_REPEATED).to_json()
    assert fake_pool.built == []
    assert axiom_soundness_audit(**_REPEATED, jobs=64).to_json() == serial
    # one pool over the distinct instances of all four schemas: 48 draws,
    # 6 of them repeats
    assert [pool.max_workers for pool in fake_pool.built] == [42]
    assert fake_pool.built[0].shutdowns == [(True, True)]


def test_axiom_audit_compiles_each_distinct_instance_once(monkeypatch):
    compiled = []
    compile_claim = enumeration.compile_claim

    def counting(premises, target):
        compiled.append(target)
        return compile_claim(premises, target)

    monkeypatch.setattr(enumeration, "compile_claim", counting)
    serial = axiom_soundness_audit(**_REPEATED).to_json()
    # 48 draws, 6 of them repeats
    assert len(compiled) == 42 and len(set(compiled)) == 42
    compiled.clear()
    assert axiom_soundness_audit(**_REPEATED, jobs=2).to_json() == serial
    assert len(compiled) == 42


def test_axiom_audit_re_verifies_every_violation(monkeypatch):
    def false_hit(program, m, n, cap, seed):
        return enumeration.CellResult(True, {"p": (Fraction(1),) * n}, 1, True)

    monkeypatch.setattr(enumeration, "scan_program", false_hit)
    monkeypatch.setattr(enumeration, "multisets_clean", lambda *args: False)
    with pytest.raises(RuntimeError, match="does not refute the conclusion"):
        axiom_soundness_audit(
            trials=1, m_max=1, n_max=1, axioms={"I": schema("phi -> phi")}, names=("p",)
        )


def test_axiom_audit_flags_unsound_schema():
    # modal collapse is not valid, so auditing it must produce witnesses
    report = axiom_soundness_audit(
        trials=5,
        m_max=2,
        n_max=2,
        cap=10**5,
        seed=1,
        axioms={"BAD": schema("phi -> []phi")},
    )
    assert not report.ok
    assert report.violations
    for violation in report.violations:
        assert violation.schema == "BAD"
        structure = SafeStructure(
            worlds=violation.n, valuation=dict(violation.valuation)
        )
        value = evaluate(structure, parse(violation.instance))
        assert value == violation.value
        assert any(component != 1 for component in value)


@pytest.mark.parametrize(
    "rule", ["prelinearity", "disjunction-hypothesis", "disjunction-conclusion"]
)
def test_derived_rule_audits_clean(rule):
    report = derived_rule_audit(rule, trials=40, seed=11)
    assert report.ok
    assert report.rule == rule
    assert not report.violations
    assert report.applicable > 0


def test_derived_rule_audit_unknown_rule():
    with pytest.raises(ValueError, match="unknown rule 'nope'"):
        derived_rule_audit("nope", trials=1)
