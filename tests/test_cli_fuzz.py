"""Fuzzed input loaders: every input exits 0, 1 or 2, never with a traceback.

Each test writes one drawn input to a file (or passes it as an option) and
runs the command that loads it through CliRunner: model files, premise
files, proofs, functional and tabular algebras, the `witnesses` key and
`--element` of `algebra fep`, and files that are not UTF-8.  The strategies
start from the corpus files and the malformed cases that tests/test_cli.py
pins, and mutate them: a value replaced by another JSON value, an entry
dropped, a byte sequence that is not UTF-8 spliced in.  World counts and
functional arities are also drawn at and far past their ceiling, and
formulas nested up to 10**4 levels go through `eval`, `model-check` and
`refute`.  Runs are derandomized, so every run draws the same inputs.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mmv.cli import main
from mmv.core import MAX_WORLDS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
MODEL = str(CORPUS / "models" / "two-worlds.json")
BOOLEAN_SQUARE = str(CORPUS / "algebras" / "boolean-square.json")

_SETTINGS = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _corpus(*parts: str) -> object:
    return json.loads(CORPUS.joinpath(*parts).read_text())


def _invoke(content: str | bytes, *args: str):
    """Write `content` to a file, run `mmv args` with FILE standing for its path."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input"
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
        argv = [str(path) if arg == "FILE" else arg for arg in args]
        return CliRunner().invoke(main, argv)


def _run(content: str | bytes, *args: str) -> None:
    _assert_clean_exit(_invoke(content, *args))


def _assert_clean_exit(result) -> None:
    assert result.exit_code in (0, 1, 2), result.output
    if result.exit_code == 0:
        assert result.exception is None
    else:
        assert isinstance(result.exception, SystemExit), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert result.output.startswith("error: "), result.output


# ---------------------------------------------------------------------------
# strategies

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([1.5, 2.0, -0.5, 0.9, 2**64]),
    st.sampled_from(["0", "1", "1/2", "2", "-1", "1/0", "x", "", "p", "[]p -> q", "p ->",
                     "premise:0", "axiom:T-Dia", "mp:0,1", "nec:0", "functional", "tabular"]),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def _paths(value: object, prefix: tuple = ()):
    """Every path into a JSON value, the empty path (the whole value) first."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


@st.composite
def _mutants(draw, seeds: list) -> object:
    """A seed document with up to three entries replaced or dropped."""
    document = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(document))))
        if not path:
            document = draw(_JSON)
            continue
        container, key = _slot(document, path)
        if draw(st.booleans()):
            container[key] = draw(st.one_of(_LEAVES, _JSON))
        else:
            del container[key]
    return document


def _slot(document: object, path: tuple) -> tuple[object, object]:
    """The container holding the value at a non-empty path, and its key there."""
    *parents, last = path
    for step in parents:
        document = document[step]
    return document, last


def _with(document: dict, path: tuple, value: object) -> dict:
    document = copy.deepcopy(document)
    container, key = _slot(document, path)
    container[key] = value
    return document


_TABULAR = _corpus("algebras", "identity-quantifier-product.json")
_MODEL_SEEDS = [_corpus("models", "two-worlds.json"), {"worlds": 1, "valuation": {}}]
_PROOF_SEEDS = [
    _corpus("proofs", "dia-from-p.json"),
    _corpus("proofs", "boxinf-bounded.json"),
    {"premises": [], "steps": [{"formula": "[](p \\/ q) -> []p \\/ []q", "by": "axiom:W1"}]},
    {"premises": [], "steps": []},
    {"premises": [], "steps": [{"formula": "p", "by": "axiom"}]},
]
# test_algebra_validate_rejects_malformed_tables, _rejects_booleans_and_element_lists,
# _rejects_sizes_that_are_not_integers, _rejects_malformed_generators and
# _validate_malformed_file in tests/test_cli.py, and a chain past int64
_ALGEBRA_SEEDS = [
    _corpus("algebras", name)
    for name in ("boolean-square.json", "chain-l2.json", "identity-quantifier-product.json",
                 "broken-exists.json")
] + [
    _with(_TABULAR, ("impl", 1), [2, 3, 2]),
    _with(_TABULAR, ("impl", 0, 1), 1.5),
    _with(_TABULAR, ("impl", 2, 0), "1"),
    _with(_TABULAR, ("exists", 2), 4),
    _with(_TABULAR, ("zero",), "0"),
    _with(_TABULAR, ("impl", 3, 1), True),
    _with(_TABULAR, ("zero",), False),
    _with(_TABULAR, ("exists", 1), True),
    _with(_TABULAR, ("elements",), None),
    {"form": "functional", "m": 1.5, "n": 2, "generators": [["1", "0"]]},
    {"form": "functional", "m": 1, "n": True, "generators": [["1", "0"]]},
    {"form": "functional", "m": 1, "n": 2, "generators": [[1, 0]]},
    {"form": "functional", "m": 1, "n": 2, "generators": ["10"]},
    {"form": "nope"},
    {"form": "functional", "m": 2**64, "n": 3, "generators": [["1/2", "0", "1"]]},
]
# test_algebra_fep_rejects_malformed_witnesses and the witness tests around it
_WITNESS_SEEDS = [
    {**_corpus("algebras", "boolean-square.json"), "witnesses": [entry]}
    for entry in ([["1", "0"], 1], [["1", "0"], -1], [["1", "0"], 1.7], [["1", "0"], True],
                  [["1", "0"]], [[1, 0], 1], [["2", "0"], 1], ["1,0", 1], "1,0")
] + [{**_corpus("algebras", "chain-l2.json"), "witnesses": [[["1/2"], 5]]}]

_FORMULAS = st.sampled_from(["p", "[]p", "<>p -> []p", "q * ~p", "r", "1", "p -> (q", "p <> q"])
_GAMMA_LINE = st.one_of(
    st.sampled_from(["# comment", "", "[](p \\/ q)", "p", "p ->", "<>r", "q (+) 0"]),
    st.text(alphabet="pqr01~*()<>[]-\\/+= #", max_size=16),
)
_ELEMENT = st.one_of(
    st.sampled_from(["1,0", "0,0", "1/2", "2,0", "1,0,1", "", ",", "x", "1/0", "-1,0"]),
    st.text(alphabet="0123456789/,. -x", max_size=10),
)
_BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80"])


# ---------------------------------------------------------------------------
# one test per loader


@_SETTINGS
@given(command=st.sampled_from(["eval", "model-check"]), model=_mutants(_MODEL_SEEDS),
       formula=_FORMULAS)
@example(command="eval", model="{not json", formula="p")
def test_fuzzed_model_files(command, model, formula):
    text = model if isinstance(model, str) else json.dumps(model)
    _run(text, command, "--model", "FILE", "--formula", formula)


@_SETTINGS
@given(lines=st.lists(_GAMMA_LINE, max_size=5), formula=_FORMULAS)
@example(lines=["# fine", "p ->"], formula="p")
def test_fuzzed_premise_files(lines, formula):
    _run("\n".join(lines), "model-check", "--model", MODEL, "--gamma", "FILE",
         "--formula", formula)


@_SETTINGS
@given(proof=_mutants(_PROOF_SEEDS), width=st.sampled_from([None, "0", "1", "2"]),
       bound=st.sampled_from([None, "0", "1", "3"]))
def test_fuzzed_proof_files(proof, width, bound):
    options = [] if width is None else ["--width", width]
    options += [] if bound is None else ["--boxinf-bound", bound]
    _run(json.dumps(proof), "prove", "FILE", *options)


@_SETTINGS
@given(
    algebra=_mutants(_ALGEBRA_SEEDS),
    command=st.sampled_from(["validate", "classify", "filters", "radical", "represent", "fep"]),
    as_json=st.booleans(),
)
def test_fuzzed_algebra_files(algebra, command, as_json):
    _run(json.dumps(algebra), "algebra", command, "FILE", *(["--json"] if as_json else []))


@_SETTINGS
@given(algebra=_mutants(_WITNESS_SEEDS), element=st.sampled_from([None, "1,0", "1/2"]))
def test_fuzzed_witnesses(algebra, element):
    options = [] if element is None else [f"--element={element}"]
    _run(json.dumps(algebra), "algebra", "fep", "FILE", *options)


@_SETTINGS
@given(elements=st.lists(_ELEMENT, min_size=1, max_size=3))
def test_fuzzed_elements(elements):
    result = CliRunner().invoke(
        main, ["algebra", "fep", BOOLEAN_SQUARE, *(f"--element={e}" for e in elements)]
    )
    _assert_clean_exit(result)


# sizes one past the ceiling and past what Python can index
_HUGE_SIZES = st.one_of(
    st.sampled_from([MAX_WORLDS + 1, 2**31, 2**63, 2**64, 10**20, 10**400]),
    st.integers(MAX_WORLDS + 1, 2**80),
)


@settings(_SETTINGS, max_examples=30)
@given(size=st.just(MAX_WORLDS) | _HUGE_SIZES, command=st.sampled_from(["eval", "model-check"]),
       formula=st.sampled_from(["1", "<>1 -> 0", "[]p"]))
@example(size=10**20, command="eval", formula="1")
def test_huge_world_counts(size, command, formula):
    model = json.dumps({"worlds": size, "valuation": {}})
    result = _invoke(model, command, "--model", "FILE", "--formula", formula)
    _assert_clean_exit(result)
    if size > MAX_WORLDS:
        assert result.exit_code == 2 and "worlds" in result.output


@settings(_SETTINGS, max_examples=30)
@given(size=_HUGE_SIZES,
       command=st.sampled_from(["validate", "classify", "radical", "represent", "fep"]))
@example(size=10**20, command="validate")
@example(size=MAX_WORLDS, command="classify")
def test_huge_functional_arity(size, command):
    algebra = json.dumps({"form": "functional", "m": 1, "n": size, "generators": []})
    result = _invoke(algebra, "algebra", command, "FILE")
    _assert_clean_exit(result)
    if size > MAX_WORLDS:
        assert result.exit_code == 2 and f"n <= {MAX_WORLDS}" in result.output


# nesting up to 10**4 levels: prefix chains, nested parentheses and
# right-associative implication chains, whole or cut short
@st.composite
def _deep_formulas(draw) -> tuple[str, bool]:
    depth = draw(st.integers(1, 10**4) | st.just(10**4))
    leaf = draw(st.sampled_from(["p", "q", "[]q", "1", "p * ~q"]))
    shape = draw(st.sampled_from(["prefix", "parens", "implications"]))
    if shape == "prefix":
        prefixes = draw(st.lists(st.sampled_from(["~", "[]", "<>"]), min_size=1, max_size=3))
        text = "".join(prefixes[i % len(prefixes)] for i in range(depth)) + leaf
    elif shape == "parens":
        text = "(" * depth + leaf + ")" * depth
    else:
        text = " -> ".join([leaf] * depth)
    cut = draw(st.booleans())
    if cut:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, cut


@settings(_SETTINGS, max_examples=40)
@given(formula=_deep_formulas(),
       command=st.sampled_from(["eval", "model-check", "refute"]))
@example(formula=("~" * 10**4 + "p", False), command="eval")
@example(formula=(" -> ".join(["p"] * 10**4), False), command="refute")
def test_deeply_nested_formulas(formula, command):
    text, cut = formula
    args = {"eval": ["--model", MODEL], "model-check": ["--model", MODEL],
            "refute": ["--m-max", "1", "--n-max", "1"]}[command]
    result = CliRunner().invoke(main, [command, *args, "--formula", text])
    _assert_clean_exit(result)
    if not cut:
        assert result.exit_code != 2, result.output


_FILE_KINDS = {
    "model": (Path(MODEL).read_bytes(), ("eval", "--model", "FILE", "--formula", "p")),
    "premises": ((CORPUS / "premises" / "box-join.txt").read_bytes(),
                 ("model-check", "--model", MODEL, "--gamma", "FILE", "--formula", "p")),
    "proof": ((CORPUS / "proofs" / "dia-from-p.json").read_bytes(), ("prove", "FILE")),
    "functional": (Path(BOOLEAN_SQUARE).read_bytes(), ("algebra", "validate", "FILE")),
    "tabular": ((CORPUS / "algebras" / "identity-quantifier-product.json").read_bytes(),
                ("algebra", "classify", "FILE")),
    "witnesses": (json.dumps(_WITNESS_SEEDS[0]).encode(), ("algebra", "fep", "FILE")),
}


@_SETTINGS
@given(kind=st.sampled_from(sorted(_FILE_KINDS)), bad=_BAD_BYTES, at=st.floats(0, 1))
def test_files_that_are_not_utf8(kind, bad, at):
    content, args = _FILE_KINDS[kind]
    cut = int(at * len(content))
    _run(content[:cut] + bad + content[cut:], *args)
