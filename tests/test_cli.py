"""End-to-end tests of the command line interface.

Exit code convention: 0 for the affirmative outcome, 1 for the negative
outcome, 2 for malformed input, 3 for an internal error.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mmv
from mmv.analysis import AlgebraError
from mmv.cli import main
from mmv.proofs import ProofFormatError
from mmv.syntax import InputError, ParseError

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
MODEL = str(CORPUS / "models" / "two-worlds.json")


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def run_fresh(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """`python -m mmv.cli args` (or `python -c code args`) in a new interpreter."""
    command = ["-m", "mmv.cli"] if code is None else ["-c", code]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *command, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


# ---------------------------------------------------------------------------
# --version
# ---------------------------------------------------------------------------


def test_version_option_prints_the_package_version(runner):
    # prog_name as the installed console script gives it
    result = invoke(runner, "--version", prog_name="mmv")
    assert result.exit_code == 0
    assert result.output == f"mmv, version {mmv.__version__}\n"


def test_version_option_runs_from_a_source_checkout():
    result = run_fresh("--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(f", version {mmv.__version__}\n")


def test_package_version_matches_pyproject():
    # read by regex: tomllib is not in Python 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE) == [mmv.__version__]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_human_output(runner):
    result = invoke(runner, "eval", "--model", MODEL, "--formula", "[]p")
    assert result.exit_code == 0
    assert result.output.strip() == "[1/2, 1/2]"


def test_eval_json_output(runner):
    result = invoke(runner, "eval", "--model", MODEL, "--formula", "[]p", "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data == {
        "formula": "[]p",
        "values": ["1/2", "1/2"],
        "holds": False,
    }


def test_eval_holds_flag_true_for_designated_value(runner):
    result = invoke(
        runner, "eval", "--model", MODEL, "--formula", "p \\/ ~p \\/ q", "--json"
    )
    data = json.loads(result.output)
    assert data["holds"] is True
    assert data["values"] == ["1", "1"]


def test_eval_rejects_unparsable_formula(runner):
    result = invoke(runner, "eval", "--model", MODEL, "--formula", "p -> (q")
    assert result.exit_code == 2
    assert "cannot parse formula" in result.output


def test_eval_rejects_unknown_variable(runner):
    result = invoke(runner, "eval", "--model", MODEL, "--formula", "r")
    assert result.exit_code == 2
    assert "assigns no value to 'r'" in result.output


def test_eval_rejects_malformed_model(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = invoke(runner, "eval", "--model", str(bad), "--formula", "p")
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# model-check
# ---------------------------------------------------------------------------


def test_model_check_consistent(runner):
    result = invoke(
        runner, "model-check", "--model", MODEL, "--formula", "<>p"
    )
    assert result.exit_code == 0


def test_model_check_countermodel(runner):
    result = invoke(
        runner, "model-check", "--model", MODEL, "--formula", "[]p"
    )
    assert result.exit_code == 1


def test_model_check_with_premises(runner, tmp_path):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("<>p\n")
    consistent = invoke(
        runner, "model-check", "--model", MODEL, "--gamma", str(gamma),
        "--formula", "<>q",
    )
    assert consistent.exit_code == 0
    # a premise that is not designated makes the structure irrelevant
    gamma.write_text("[]p\n")
    inapplicable = invoke(
        runner, "model-check", "--model", MODEL, "--gamma", str(gamma),
        "--formula", "q",
    )
    assert inapplicable.exit_code == 1
    assert "not-applicable" in inapplicable.output


def test_gamma_parse_error_reports_line(runner, tmp_path):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("# fine\np ->\n")
    result = invoke(
        runner, "model-check", "--model", MODEL, "--gamma", str(gamma),
        "--formula", "p",
    )
    assert result.exit_code == 2
    assert "gamma.txt:2:" in result.output


# ---------------------------------------------------------------------------
# refute
# ---------------------------------------------------------------------------


def test_refute_finds_collapse_countermodel(runner):
    result = invoke(runner, "refute", "--formula", "<>p -> []p", "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["verdict"] == "countermodel"
    assert (data["m"], data["n"]) == (1, 2)
    assert data["valuation"] == {"p": ["1", "0"]}


def test_refute_human_output(runner):
    result = invoke(runner, "refute", "--formula", "<>p -> []p")
    assert result.exit_code == 0
    assert "countermodel (m=1, n=2" in result.output
    assert "p = [1, 0]" in result.output


def test_refute_width_restriction_exhausts(runner):
    result = invoke(
        runner,
        "refute",
        "--formula",
        "<>p -> []p",
        "--width",
        "1",
        "--m-max",
        "2",
    )
    assert result.exit_code == 1
    assert "exhausted" in result.output


def test_refute_width_must_be_positive(runner):
    result = invoke(runner, "refute", "--formula", "<>p -> []p", "--width", "0")
    assert result.exit_code == 2
    assert "k must be >= 1" in result.output


def test_refute_jobs_matches_serial(runner):
    serial = invoke(runner, "refute", "--formula", "<>p -> []p", "--json")
    parallel = invoke(
        runner, "refute", "--formula", "<>p -> []p", "--jobs", "2", "--json"
    )
    assert json.loads(serial.output) == json.loads(parallel.output)


def test_refute_honors_seed_env(runner):
    result = invoke(
        runner,
        "refute",
        "--formula",
        "<>p -> []p",
        "--json",
        env={"MMV_SEED": "42"},
    )
    assert json.loads(result.output)["seed"] == 42


def test_refute_rejects_cap_too_large_to_index(runner):
    # 3**42 assignments at m=2, n=3 fit under the cap but not in int64
    formula = " \\/ ".join(f"p{i}" for i in range(14))
    result = runner.invoke(
        main,
        ["refute", "--formula", formula, "--m-max", "2", "--cap", str(3**42)],
    )
    assert result.exit_code == 2
    assert "2**63" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_refute_with_gamma_file(runner):
    result = invoke(
        runner,
        "refute",
        "--formula",
        "[]p \\/ []q",
        "--gamma",
        str(CORPUS / "premises" / "box-join.txt"),
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["valuation"] == {"p": ["1", "0"], "q": ["0", "1"]}


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def test_prove_accepts_corpus_proof(runner):
    result = invoke(runner, "prove", str(CORPUS / "proofs" / "dia-from-p.json"))
    assert result.exit_code == 0
    assert result.output.strip() == "Accept"


def test_prove_accept_bounded(runner):
    result = invoke(
        runner, "prove", str(CORPUS / "proofs" / "boxinf-bounded.json")
    )
    assert result.exit_code == 0
    assert result.output.strip() == "Accept-Bounded (audited up to bound 1)"


def test_prove_rejects_with_step_diagnostic(runner, tmp_path):
    data = json.loads((CORPUS / "proofs" / "dia-from-p.json").read_text())
    data["steps"][1]["by"] = "axiom:T-Box"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = invoke(runner, "prove", str(bad))
    assert result.exit_code == 1
    assert result.output.startswith("Reject at step 1:")


def test_prove_boxinf_bound_cap(runner):
    path = str(CORPUS / "proofs" / "boxinf-bounded.json")
    ok = invoke(runner, "prove", path, "--boxinf-bound", "3")
    assert ok.exit_code == 0
    capped = invoke(runner, "prove", path, "--boxinf-bound", "0")
    assert capped.exit_code == 1
    assert "exceeds --boxinf-bound 0" in capped.output


def test_prove_width_axiom(runner, tmp_path):
    proof = tmp_path / "w1.json"
    proof.write_text(
        json.dumps(
            {
                "premises": [],
                "steps": [
                    {
                        "formula": "[](p \\/ q) -> []p \\/ []q",
                        "by": "axiom:W1",
                    }
                ],
            }
        )
    )
    assert invoke(runner, "prove", str(proof), "--width", "1").exit_code == 0
    rejected = invoke(runner, "prove", str(proof))
    assert rejected.exit_code == 1
    assert "unknown axiom 'W1'" in rejected.output


def test_prove_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"premises": [], "steps": []}))
    result = invoke(runner, "prove", str(bad))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_axioms_clean(runner):
    result = invoke(
        runner,
        "audit",
        "axioms",
        "--trials",
        "2",
        "--m-max",
        "2",
        "--n-max",
        "2",
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["violations"] == []


def test_audit_rules_clean(runner):
    result = invoke(
        runner, "audit", "rules", "--rule", "prelinearity", "--trials", "20"
    )
    assert result.exit_code == 0


def test_audit_rules_unknown_rule(runner):
    result = invoke(runner, "audit", "rules", "--rule", "nope", "--trials", "1")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (("axioms", "--cap", "0"), "valuation_cap must be >= 1"),
        (("axioms", "--m-max", "0"), "m_max and n_max must be >= 1"),
        (("axioms", "--n-max", "0"), "m_max and n_max must be >= 1"),
        (("axioms", "--trials", "-1"), "trials must be >= 0, got -1"),
        (("rules", "--trials", "-3"), "trials must be >= 0, got -3"),
        (("rules", "--m-max", "0"), "m_max must be >= 1, got 0"),
        (("rules", "--n-max", "0"), "n_max must be >= 1, got 0"),
        (("boxinf", "--trials", "-1"), "trials must be >= 0, got -1"),
        (("boxinf", "--bound", "0"), "bound must be >= 1, got 0"),
        (("boxinf", "--m-max", "0"), "m_max must be >= 1, got 0"),
        (("boxinf", "--n-max", "0"), "n_max must be >= 1, got 0"),
    ],
)
def test_audits_reject_budgets_that_check_nothing(runner, args, message):
    result = invoke(runner, "audit", *args)
    assert result.exit_code == 2
    assert f"error: {message}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (("audit", "axioms", "--max-depth", "101", "--trials", "1"), "max_depth must be <= 100, got 101"),
        (("audit", "axioms", "--max-depth", "1000", "--trials", "1"), "max_depth must be <= 100, got 1000"),
        (("refute", "--formula", "p", "--n-max", "65537"), "at most 65536 worlds are supported, got 65537"),
        (
            ("refute", "--formula", "p", "--n-max", "100000000"),
            "at most 65536 worlds are supported, got 100000000",
        ),
        (
            ("audit", "axioms", "--n-max", "100000000", "--trials", "1"),
            "at most 65536 worlds are supported, got 100000000",
        ),
    ],
)
def test_oversized_depths_and_world_counts_exit_2(runner, args, message):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ("refute", "--formula", "p", "--m-max", "100000000"),
        ("audit", "axioms", "--m-max", "100000000", "--trials", "1"),
        ("refute", "--formula", "p", "--m-max", "5", "--n-max", "65536"),
    ],
)
def test_oversized_search_grids_exit_2(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    m_max, n_max = args[args.index("--m-max") + 1], "65536" if "--n-max" in args else "3"
    assert result.output == (
        f"error: at most 262144 cells m_max * n_max are supported, got {m_max} * {n_max}\n"
    )


def test_audit_boxinf_clean(runner):
    result = invoke(
        runner, "audit", "boxinf", "--trials", "40", "--json"
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["violations"] == []


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def test_algebra_validate_accepts_corpus(runner):
    result = invoke(
        runner,
        "algebra",
        "validate",
        str(CORPUS / "algebras" / "boolean-square.json"),
    )
    assert result.exit_code == 0


def test_algebra_validate_reports_violations(runner):
    result = invoke(
        runner,
        "algebra",
        "validate",
        str(CORPUS / "algebras" / "broken-exists.json"),
    )
    assert result.exit_code == 1
    assert "M2" in result.output


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("impl", 1), [2, 3, 2], "implication table must be 4x4"),
        (("impl", 0, 1), 1.5, "table entry 1.5 is not an element index"),
        (("impl", 0, 0), 3.0, "table entry 3.0 is not an element index"),
        (("impl", 2, 0), "1", "table entry '1' is not an element index"),
        (("impl", 3, 3), -1, "table entry -1 is not an element index"),
        (("exists", 2), 4, "table entry 4 is not an element index"),
        (("exists",), [0, 1, 2], "exists column must have 4 entries"),
        (("zero",), "0", "table entry '0' is not an element index"),
        (("zero",), 0.5, "table entry 0.5 is not an element index"),
    ],
    ids=["ragged", "float", "integral-float", "string", "negative", "too-large",
         "short-exists", "string-zero", "float-zero"],
)
def test_algebra_validate_rejects_malformed_tables(runner, tmp_path, path, value, message):
    data = json.loads((CORPUS / "algebras" / "identity-quantifier-product.json").read_text())
    *parents, last = path
    target = data
    for step in parents:
        target = target[step]
    target[last] = value
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps(data))
    result = invoke(runner, "algebra", "validate", str(bad))
    assert result.exit_code == 2
    assert result.output == f"error: bad algebra: {message}\n"


def test_algebra_classify_json(runner):
    result = invoke(
        runner,
        "algebra",
        "classify",
        str(CORPUS / "algebras" / "boolean-square.json"),
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["fsi"] is True
    assert data["simple"] is True
    assert data["width"] == 2


def test_algebra_filters_json(runner):
    result = invoke(
        runner,
        "algebra",
        "filters",
        str(CORPUS / "algebras" / "boolean-square.json"),
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["all"]) == 4
    assert len(data["prime"]) == 2
    assert len(data["maximal"]) == 2


def test_algebra_radical_json(runner):
    result = invoke(
        runner,
        "algebra",
        "radical",
        str(CORPUS / "algebras" / "chain-l2.json"),
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["radical"] == ["(1)"]


def test_algebra_represent_simple(runner):
    result = invoke(
        runner,
        "algebra",
        "represent",
        str(CORPUS / "algebras" / "boolean-square.json"),
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["denominators"] == [1, 1]


def test_algebra_represent_refuses_non_simple(runner):
    result = invoke(
        runner,
        "algebra",
        "represent",
        str(CORPUS / "algebras" / "identity-quantifier-product.json"),
    )
    assert result.exit_code == 1
    assert "not simple" in result.output


def test_algebra_fep_whole_carrier(runner):
    result = invoke(
        runner,
        "algebra",
        "fep",
        str(CORPUS / "algebras" / "boolean-square.json"),
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["embedding"]) == 4


def test_algebra_fep_selected_elements(runner):
    result = invoke(
        runner,
        "algebra",
        "fep",
        str(CORPUS / "algebras" / "boolean-square.json"),
        "--element",
        "1,0",
        "--element",
        "0,0",
        "--json",
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["embedding"]) == 2


def test_algebra_fep_witness_violation(runner, tmp_path):
    data = json.loads((CORPUS / "algebras" / "chain-l2.json").read_text())
    data["witnesses"] = [[["1/2"], 0]]
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps(data))
    result = invoke(
        runner, "algebra", "fep", str(bad), "--element", "1/2"
    )
    assert result.exit_code == 0  # (1/2,) on one point: point 0 is its minimum
    data["witnesses"] = [[["1/2"], 5]]
    bad.write_text(json.dumps(data))
    result = invoke(
        runner, "algebra", "fep", str(bad), "--element", "1/2"
    )
    assert result.exit_code == 1
    assert "witness point" in result.output


@pytest.mark.parametrize(
    "entry",
    [
        [["1", "0"], 1.7],
        [["1", "0"], "1"],
        [["1", "0"], True],
        [["1", "0"], 0.9],
        [["1", "0"], [1]],
        [["1", "0"]],
        [["1", "0"], 1, 0],
        [[1, 0], 1],
        [["2", "0"], 1],
        ["1,0", 1],
        "1,0",
    ],
)
def test_algebra_fep_rejects_malformed_witnesses(runner, tmp_path, entry):
    data = json.loads((CORPUS / "algebras" / "boolean-square.json").read_text())
    data["witnesses"] = [entry]
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["algebra", "fep", str(bad), "--element", "1,0"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"witnesses entry {json.dumps(entry)}" in result.output


def test_algebra_fep_witness_override(runner, tmp_path):
    # (1, 0) has its minimum at point 1 only; the override names that point,
    # an out-of-range point is a failed witness, not malformed input
    path = CORPUS / "algebras" / "boolean-square.json"
    default = invoke(runner, "algebra", "fep", str(path), "--element", "1,0")
    data = json.loads(path.read_text())
    data["witnesses"] = [[["1", "0"], 1]]
    override = tmp_path / "alg.json"
    override.write_text(json.dumps(data))
    result = invoke(runner, "algebra", "fep", str(override), "--element", "1,0")
    assert (result.exit_code, result.output) == (0, default.output)
    assert result.output == "m=1, n=1, points=[1]\n  [1, 0] -> [0]\n"
    data["witnesses"] = [[["1", "0"], -1]]
    override.write_text(json.dumps(data))
    result = invoke(runner, "algebra", "fep", str(override), "--element", "1,0")
    assert result.exit_code == 1
    assert "witness point -1" in result.output


def test_algebra_fep_requires_functional_form(runner, tmp_path):
    data = json.loads(
        (CORPUS / "algebras" / "identity-quantifier-product.json").read_text()
    )
    result = invoke(
        runner,
        "algebra",
        "fep",
        str(CORPUS / "algebras" / "identity-quantifier-product.json"),
    )
    assert result.exit_code == 2
    assert data["form"] == "tabular"


@pytest.mark.parametrize(
    "args",
    [
        ["represent"],
        ["represent", "--json"],
        ["fep"],
        ["fep", "--json", "--element", "1/2,0,1", "--element", "1,1/2,0"],
    ],
)
def test_algebra_commands_on_a_chain_past_int64(runner, tmp_path, args):
    # L_{2^64} holds every value of L_2, so the same generators give the same
    # algebra; its arithmetic runs on Python integers instead of int64
    outputs = []
    for m in (2, 2**64):
        path = tmp_path / f"m{m}.json"
        path.write_text(json.dumps(
            {"form": "functional", "m": m, "n": 3, "generators": [["1/2", "0", "1"]]}
        ))
        result = invoke(runner, "algebra", args[0], str(path), *args[1:])
        assert result.exit_code in (0, 1)
        outputs.append((result.exit_code, result.output))
    assert outputs[0] == outputs[1]


def test_algebra_validate_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "nope"}))
    result = invoke(runner, "algebra", "validate", str(bad))
    assert result.exit_code == 2


@pytest.mark.parametrize("entry", [[1, 0], ["1", 0], "10", None])
def test_algebra_validate_rejects_malformed_generators(runner, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "functional", "m": 1, "n": 2, "generators": [entry]}))
    result = invoke(runner, "algebra", "validate", str(bad))
    assert result.exit_code == 2
    assert result.output == (
        f"error: bad algebra: bad functional algebra data: generators entry "
        f"{json.dumps(entry)} is not a list of rational strings\n"
    )


@pytest.mark.parametrize(
    "key, value, printed",
    [("m", 1.5, "1.5"), ("m", "2", '"2"'), ("m", True, "true"), ("n", 2.9, "2.9"),
     ("n", None, "null")],
)
def test_algebra_validate_rejects_sizes_that_are_not_integers(
    runner, tmp_path, key, value, printed
):
    data = {"form": "functional", "m": 1, "n": 2, "generators": [["1", "0"]], key: value}
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps(data))
    for command in ("validate", "fep"):
        result = invoke(runner, "algebra", command, str(bad))
        assert result.exit_code == 2
        assert result.output == (
            f"error: bad algebra: bad functional algebra data: "
            f"{key} must be an integer, got {printed}\n"
        )


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("impl",), [[True] * 4] * 4, "table entry True is not an element index"),
        (("impl", 3, 1), True, "table entry True is not an element index"),
        (("impl", 0, 0), False, "table entry False is not an element index"),
        (("zero",), False, "table entry False is not an element index"),
        (("exists",), [False, True, True, True], "table entry False is not an element index"),
        (("exists", 1), True, "table entry True is not an element index"),
        (("elements",), {"a": 0, "b": 1, "c": 2, "d": 3},
         'bad tabular algebra data: elements must be a list, got {"a": 0, "b": 1, "c": 2, "d": 3}'),
        (("elements",), None, "bad tabular algebra data: elements must be a list, got null"),
        (("elements",), 5, "bad tabular algebra data: elements must be a list, got 5"),
    ],
    ids=["bool-impl", "bool-among-ints", "false-among-ints", "false-zero", "bool-exists",
         "true-among-exists", "dict-elements", "null-elements", "int-elements"],
)
def test_algebra_validate_rejects_booleans_and_element_lists(
    runner, tmp_path, path, value, message
):
    # numpy reads a JSON boolean as 0 or 1; a dict of elements used to load by its keys
    data = json.loads((CORPUS / "algebras" / "identity-quantifier-product.json").read_text())
    *parents, last = path
    target = data
    for step in parents:
        target = target[step]
    target[last] = value
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps(data))
    for command in ("validate", "classify"):
        result = invoke(runner, "algebra", command, str(bad))
        assert result.exit_code == 2
        assert result.output == f"error: bad algebra: {message}\n"


# ---------------------------------------------------------------------------
# the exit-2 boundary: every subcommand, nested groups included
# ---------------------------------------------------------------------------

_BOUNDARY_CASES = [
    (("eval", "--model", MODEL, "--formula", "p"), "mmv.semantics.evaluate"),
    (("audit", "axioms", "--trials", "1"), "mmv.proofs.axiom_soundness_audit"),
    (
        ("algebra", "validate", str(CORPUS / "algebras" / "boolean-square.json")),
        "mmv.analysis.algebra_from_json",
    ),
]


def _raiser(error):
    def raise_it(*args, **kwargs):
        raise error

    return raise_it


@pytest.mark.parametrize("args, target", _BOUNDARY_CASES)
def test_engine_errors_are_not_input_errors(runner, monkeypatch, args, target):
    # only an InputError is blamed on the input; any other exception is a bug
    for error in (RuntimeError("engine bug"), ValueError("bad value"), KeyError("k"),
                  TypeError("t")):
        monkeypatch.setattr(target, _raiser(error))
        result = runner.invoke(main, list(args))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Traceback (most recent call last):\n")
        assert result.output.endswith(
            f"internal error: {type(error).__name__}: {error}\n"
        )
        assert "error: " not in result.output.replace("internal error: ", "")


@pytest.mark.parametrize("args, target", _BOUNDARY_CASES)
@pytest.mark.parametrize(
    "error, printed",
    [
        (InputError("bad value"), "bad value"),
        (ProofFormatError("'k'"), "'k'"),
        (AlgebraError("t"), "t"),
        (ParseError("unexpected 'x'", 3), "unexpected 'x' (at position 3)"),
    ],
)
def test_library_input_errors_exit_2(runner, monkeypatch, args, target, error, printed):
    monkeypatch.setattr(target, _raiser(error))
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.output == f"error: {_PREFIXES[type(error)]}{printed}\n"


_PREFIXES = {
    InputError: "",
    ParseError: "cannot parse formula: ",
    ProofFormatError: "bad proof file: ",
    AlgebraError: "bad algebra: ",
}


def test_input_error_family_carries_the_exit_2_prefixes():
    assert {cls: cls.prefix for cls in _PREFIXES} == _PREFIXES
    assert all(issubclass(cls, InputError) for cls in _PREFIXES)
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize(
    "args", [("refute", "--help"), ("audit", "axioms", "--help"), ("algebra", "fep", "--help")]
)
def test_subcommand_help_exits_0(runner, args):
    # --help raises click's Exit, a RuntimeError, which the boundary passes on
    result = invoke(runner, *args)
    assert result.exit_code == 0
    assert result.output.startswith("Usage: ")
    assert "error" not in result.output


_ENGINE_BUG = """
import sys
import mmv.semantics
from mmv.cli import main

def evaluate(structure, formula):
    raise RuntimeError("engine bug")

mmv.semantics.evaluate = evaluate
main(sys.argv[1:], prog_name="mmv")
"""


def test_internal_error_exits_3_in_a_fresh_process():
    result = run_fresh("eval", "--model", MODEL, "--formula", "p", code=_ENGINE_BUG)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("Traceback (most recent call last):\n")
    assert result.stderr.endswith("\ninternal error: RuntimeError: engine bug\n")
    assert "\nRuntimeError: engine bug\n" in result.stderr


def test_parse_errors_exit_2_at_the_boundary(runner):
    result = invoke(runner, "refute", "--formula", "p <> q")
    assert result.exit_code == 2
    assert result.output == (
        "error: cannot parse formula: unexpected '<>' after formula (at position 2)\n"
    )


def test_option_type_errors_stay_with_click(runner):
    result = invoke(runner, "refute", "--formula", "p", "--m-max", "x")
    assert result.exit_code == 2
    assert "Invalid value for '--m-max'" in result.output
    assert "error:" not in result.output


# ---------------------------------------------------------------------------
# fresh processes: each command loads only the layers it runs
# ---------------------------------------------------------------------------

# Runs one command, then prints which heavy layers ran as a last stderr line.
# `search` registers `mmv.enumeration` for lazy loading, so the module sits in
# sys.modules unexecuted (a ModuleType subclass) until the first scan.
_LAYER_REPORT = """
import json, sys, types
from mmv.cli import main
try:
    main.main(sys.argv[1:], prog_name="mmv")
except SystemExit as exit:
    code = exit.code
layers = ("numpy", "mmv.analysis", "mmv.enumeration", "mmv.proofs", "mmv.search",
          "mmv.randgen", "mmv.semantics")
ran = [name for name in layers if type(sys.modules.get(name)) is types.ModuleType]
print(json.dumps({"exit": code, "ran": ran}), file=sys.stderr)
"""

_ALGEBRAS = CORPUS / "algebras"
_SEARCH = ["mmv.search", "mmv.randgen", "mmv.semantics"]
_PROOFS = ["mmv.proofs", *_SEARCH]
_LAYER_CASES = [
    (("eval", "--model", MODEL, "--formula", "[]p"), ["mmv.semantics"]),
    (("model-check", "--model", MODEL, "--formula", "<>p"), ["mmv.semantics"]),
    (("prove", str(CORPUS / "proofs" / "dia-from-p.json")), _PROOFS),
    (("prove", str(CORPUS / "proofs" / "boxinf-bounded.json")), _PROOFS),
    (("audit", "rules", "--rule", "prelinearity"), _PROOFS),
    (("audit", "boxinf", "--trials", "1000"), _SEARCH),
    (("--help",), []),
    (("algebra", "classify", str(_ALGEBRAS / "boolean-square.json"), "--json"),
     ["numpy", "mmv.analysis"]),
    (("algebra", "validate", str(_ALGEBRAS / "boolean-square.json")),
     ["numpy", "mmv.analysis"]),
    (("refute", "--formula", "<>p -> []p"), ["numpy", "mmv.enumeration", *_SEARCH]),
    (("audit", "axioms", "--trials", "2"), ["numpy", "mmv.enumeration", *_PROOFS]),
]


@pytest.mark.parametrize("args, layers", _LAYER_CASES, ids=lambda v: " ".join(v)[:40])
def test_commands_load_only_the_layers_they_run(args, layers):
    result = run_fresh(*args, code=_LAYER_REPORT)
    report = json.loads(result.stderr.splitlines()[-1])
    assert report == {"exit": 0, "ran": layers}


def test_rule_choices_are_the_derived_rules():
    # the CLI writes the names out so that loading it does not load `proofs`
    from mmv import cli, proofs

    (option,) = [p for p in cli.audit_rules_command.params if p.name == "rule_name"]
    assert tuple(option.type.choices) == ("all",) + proofs.DERIVED_RULES


@pytest.mark.parametrize(
    "args, proof, message",
    [
        (("algebra", "represent", str(_ALGEBRAS / "broken-exists.json")), None,
         "bad algebra: algebra fails 5 identity check(s): "),
        (("prove",), {"premises": [], "steps": []},
         'bad proof file: "steps" must be a non-empty list\n'),
        (("prove",), {"premises": [], "steps": [{"formula": "p", "by": "axiom"}]},
         "bad proof file: justification 'axiom' lacks ':'\n"),
        # past the AlgebraError clause while mmv.analysis was never imported
        (("eval", "--model", MODEL, "--formula", "r"), None,
         "structure assigns no value to 'r'\n"),
        (("eval", "--model", "missing.json", "--formula", "p"), None,
         "[Errno 2] No such file or directory: 'missing.json'\n"),
    ],
)
def test_exit_2_prefixes_in_a_fresh_process(runner, tmp_path, args, proof, message):
    # an in-process run finds mmv.analysis imported by earlier tests; a fresh
    # process has it only in the algebra commands
    if proof is not None:
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(proof))
        args = (*args, str(path))
    result = run_fresh(*args)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: " + message)
    assert result.stderr == invoke(runner, *args).output
