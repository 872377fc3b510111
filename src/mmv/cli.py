"""Command-line surface: one binary, one subcommand per workbench task.

Exit codes are a stable contract: 0 for the affirmative outcome of the
subcommand (value computed, consequence consistent, countermodel found,
proof accepted, audit clean, algebra valid/simple/embeddable), 1 for the
negative outcome, 2 for malformed input of any kind, and 3 for an internal
error.  `_Main.invoke`, around every subcommand, is the one place an
exception becomes an exit code.  Malformed input is an `InputError`, raised
where data from outside the program is first checked, or an `OSError` from
a file that cannot be read: one line `error: ...` on stderr, exit 2.  click
reports its own usage errors (also exit 2).  Any other exception is a bug
in the workbench, never blamed on the input: stderr gets its traceback and
a last line `internal error: <type>: <message>`, and the exit code is 3.

Each command imports only the layers it runs.  This module loads `core` and
`syntax`; a command imports the rest in its body:

    eval, model-check          semantics
    refute, audit boxinf       search (with semantics and randgen)
    prove, audit axioms/rules  proofs (with search, semantics and randgen)
    algebra ...                analysis

numpy comes with the grid scans of `refute` and `audit axioms` (`enumeration`,
which `search` loads at the first scan) and with the algebra tables
(`analysis`); `--help` and `--version` load none of these layers.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

import click

from . import __version__, core
from .syntax import Formula, InputError, ParseError, parse, print_formula

if TYPE_CHECKING:
    from . import analysis

# `proofs.DERIVED_RULES`, written out so that `--help` need not load `proofs`;
# a test pins the two together
_DERIVED_RULES = ("prelinearity", "disjunction-hypothesis", "disjunction-conclusion")


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are malformed input."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InputError(str(exc)) from exc


def _load_json(path: str) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _load_gamma(path: str | None) -> list[Formula]:
    """Premise file: one formula per line, blank lines and # comments skipped."""
    if path is None:
        return []
    formulas = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            formulas.append(parse(text))
        except ParseError as exc:
            raise InputError(f"{path}:{lineno}: cannot parse formula: {exc}") from exc
    return formulas


def _echo_json(data: object) -> None:
    click.echo(json.dumps(data, indent=2))


def _bracketed(value: core.MonadicElement) -> str:
    return "[" + ", ".join(core.format_rational(v) for v in value) + "]"


_seed_option = click.option(
    "--seed",
    type=int,
    default=0,
    show_default=True,
    envvar="MMV_SEED",
    help="Seed for randomized scans (env: MMV_SEED).",
)
_jobs_option = click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help="Worker processes; 1 keeps everything in-process.",
)
_json_option = click.option(
    "--json", "as_json", is_flag=True, help="Machine-readable JSON output."
)


class _Main(click.Group):
    """The command group whose `invoke` turns exceptions into exit codes 2 and 3."""

    def invoke(self, ctx: click.Context) -> object:
        try:
            return super().invoke(ctx)
        # click's own exits: usage errors, --help (an Exit) and interrupts
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except InputError as exc:
            message = exc.prefix + str(exc)
        except OSError as exc:
            message = str(exc)
        except Exception as exc:
            import traceback

            click.echo(
                f"{traceback.format_exc()}internal error: {type(exc).__name__}: {exc}",
                err=True,
            )
            sys.exit(3)
        click.echo(f"error: {message}", err=True)
        sys.exit(2)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Workbench for S5-modal many-valued logic and monadic MV-algebras."""


# ---------------------------------------------------------------------------
# eval / model-check


@main.command("eval")
@click.option("--model", "model_file", required=True, type=click.Path(), help="Model JSON file.")
@click.option("--formula", "formula_text", required=True, help="Formula to evaluate.")
@_json_option
def eval_command(model_file: str, formula_text: str, as_json: bool) -> None:
    """Evaluate a formula over a finite structure, world by world."""
    from . import semantics

    structure = semantics.model_from_json(_load_json(model_file))
    formula = parse(formula_text)
    values = semantics.evaluate(structure, formula)
    if as_json:
        _echo_json(
            {
                "formula": print_formula(formula),
                "values": core.format_tuple(values),
                "holds": all(v == 1 for v in values),
            }
        )
    else:
        click.echo(_bracketed(values))


@main.command("model-check")
@click.option("--model", "model_file", required=True, type=click.Path(), help="Model JSON file.")
@click.option("--gamma", "gamma_file", type=click.Path(), help="Premise file, one formula per line.")
@click.option("--formula", "formula_text", required=True, help="Candidate conclusion.")
@_json_option
def model_check_command(
    model_file: str, gamma_file: str | None, formula_text: str, as_json: bool
) -> None:
    """What one structure says about a consequence claim.

    Exit 0 when the structure is consistent with the claim, 1 when it
    refutes the claim or is not a model of the premises.
    """
    from . import semantics

    structure = semantics.model_from_json(_load_json(model_file))
    premises = _load_gamma(gamma_file)
    formula = parse(formula_text)
    verdict = semantics.check_consequence_on_model(structure, premises, formula)
    if as_json:
        _echo_json({"verdict": verdict.value})
    else:
        click.echo(verdict.value)
    sys.exit(0 if verdict is semantics.ConsequenceVerdict.CONSISTENT else 1)


# ---------------------------------------------------------------------------
# refute


@main.command("refute")
@click.option("--formula", "formula_text", required=True, help="Conclusion to refute.")
@click.option("--gamma", "gamma_file", type=click.Path(), help="Premise file, one formula per line.")
@click.option("--m-max", type=int, default=3, show_default=True, help="Largest chain denominator.")
@click.option("--n-max", type=int, default=3, show_default=True, help="Largest world count.")
@click.option("--cap", type=int, default=100_000, show_default=True,
              help="Assignments per cell before switching to sampling.")
@click.option("--width", type=int, default=None, help="Restrict to at most this many worlds.")
@_seed_option
@_jobs_option
@_json_option
def refute_command(
    formula_text: str,
    gamma_file: str | None,
    m_max: int,
    n_max: int,
    cap: int,
    width: int | None,
    seed: int,
    jobs: int,
    as_json: bool,
) -> None:
    """Search finite structures for a countermodel to a consequence claim.

    Exit 0 when a countermodel is found, 1 when the budget is exhausted.
    """
    from . import search

    premises = _load_gamma(gamma_file)
    conclusion = parse(formula_text)
    budget = search.SearchBudget(m_max=m_max, n_max=n_max, valuation_cap=cap, seed=seed)
    if width is None:
        report = search.refute(premises, conclusion, budget, jobs=jobs)
    else:
        report = search.refute_width_k(premises, conclusion, width, budget, jobs=jobs)
    if as_json:
        _echo_json(report.to_json())
    elif report.found:
        click.echo(
            f"countermodel (m={report.m}, n={report.n}; "
            f"{report.assignments} assignments over {report.cells_visited} cells)"
        )
        for name, value in sorted(report.valuation.items()):
            click.echo(f"  {name} = {_bracketed(value)}")
        click.echo("values:")
        for text, value in report.values.items():
            click.echo(f"  {text} = {_bracketed(value)}")
    else:
        click.echo(
            f"exhausted ({report.assignments} assignments over "
            f"{report.cells_visited} cells)"
        )
        click.echo(report.caveat)
    sys.exit(0 if report.found else 1)


# ---------------------------------------------------------------------------
# prove


@main.command("prove")
@click.argument("proof_file", type=click.Path())
@click.option("--width", type=int, default=None,
              help="Also admit the width-k axiom schema for this k.")
@click.option("--boxinf-bound", type=int, default=None,
              help="Largest instantiation bound accepted for the infinitary rule.")
@_json_option
def prove_command(
    proof_file: str, width: int | None, boxinf_bound: int | None, as_json: bool
) -> None:
    """Check a Hilbert-style proof file.

    Exit 0 for Accept or Accept-Bounded, 1 for Reject.
    """
    from . import proofs

    proof = proofs.proof_from_json(_load_json(proof_file))
    verdict = proofs.check_proof(proof, proofs.axiom_table(width=width), boxinf_bound)
    if as_json:
        _echo_json(verdict.to_json())
    elif verdict.status == proofs.ACCEPT:
        click.echo("Accept")
    elif verdict.status == proofs.ACCEPT_BOUNDED:
        click.echo(f"Accept-Bounded (audited up to bound {verdict.bound})")
    else:
        click.echo(f"Reject at step {verdict.step}: {verdict.reason}")
    sys.exit(0 if verdict.accepted else 1)


# ---------------------------------------------------------------------------
# audit


@main.group()
def audit() -> None:
    """Randomized soundness audits over finite structures."""


@audit.command("axioms")
@click.option("--trials", type=int, default=100, show_default=True,
              help="Random instances per axiom schema.")
@click.option("--m-max", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, default=3, show_default=True)
@click.option("--cap", type=int, default=10**6, show_default=True,
              help="Assignments per cell before switching to sampling.")
@click.option("--max-depth", type=int, default=3, show_default=True,
              help="Depth of the random formulas substituted into schemas.")
@_seed_option
@_jobs_option
@_json_option
def audit_axioms_command(
    trials: int, m_max: int, n_max: int, cap: int, max_depth: int,
    seed: int, jobs: int, as_json: bool,
) -> None:
    """Check random axiom instances over full valuation grids.  Exit 1 on any violation."""
    from . import proofs

    report = proofs.axiom_soundness_audit(
        m_max=m_max, n_max=n_max, trials=trials, cap=cap, seed=seed,
        max_depth=max_depth, jobs=jobs,
    )
    if as_json:
        _echo_json(report.to_json())
    else:
        schemas = len(report.assignments)
        click.echo(
            f"audited {schemas} schemas x {report.trials} instances "
            f"(m <= {report.m_max}, n <= {report.n_max}, seed {report.seed})"
        )
        total = sum(report.assignments.values())
        click.echo(f"assignments checked: {total}")
        if report.ok:
            click.echo("no violations")
        else:
            click.echo(f"VIOLATIONS ({len(report.violations)}):")
            for violation in report.violations:
                click.echo(f"  {json.dumps(violation.to_json())}")
    sys.exit(0 if report.ok else 1)


@audit.command("rules")
@click.option("--rule", "rule_name",
              type=click.Choice(("all",) + _DERIVED_RULES),
              default="all", show_default=True)
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--m-max", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, default=3, show_default=True)
@_seed_option
@_json_option
def audit_rules_command(
    rule_name: str, trials: int, m_max: int, n_max: int, seed: int, as_json: bool
) -> None:
    """Check the one-structure facts behind admissible rules.  Exit 1 on any violation."""
    from . import proofs

    names = proofs.DERIVED_RULES if rule_name == "all" else (rule_name,)
    reports = [
        proofs.derived_rule_audit(
            rule, trials=trials, seed=seed, m_max=m_max, n_max=n_max
        )
        for rule in names
    ]
    if as_json:
        _echo_json([report.to_json() for report in reports])
    else:
        for report in reports:
            status = "no violations" if report.ok else f"{len(report.violations)} VIOLATIONS"
            click.echo(
                f"{report.rule}: {report.trials} trials, "
                f"{report.applicable} applicable, {status}"
            )
    sys.exit(0 if all(report.ok for report in reports) else 1)


@audit.command("boxinf")
@click.option("--bound", type=int, default=1, show_default=True,
              help="Premise instantiation depth.")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--m-max", type=int, default=2, show_default=True)
@click.option("--n-max", type=int, default=3, show_default=True)
@_seed_option
@_json_option
def audit_boxinf_command(
    bound: int, trials: int, m_max: int, n_max: int, seed: int, as_json: bool
) -> None:
    """Probe the bounded infinitary rule on random structures.

    Gaps (structures the bounded premises cannot decide) are reported but are
    not failures; exit 1 only on a genuine violation.
    """
    from . import search

    report = search.boxinf_soundness_probe(
        bound=bound, trials=trials, seed=seed, m_max=m_max, n_max=n_max
    )
    if as_json:
        _echo_json(report.to_json())
    else:
        click.echo(
            f"bound {report.bound}, {report.trials} trials: "
            f"{report.premise_models} premise models, "
            f"{report.dichotomy_models} with the dichotomy, "
            f"{len(report.violations)} violations, "
            f"{len(report.gaps)} gaps ({len(report.strict_gaps)} strict)"
        )
    sys.exit(0 if report.ok else 1)


# ---------------------------------------------------------------------------
# algebra


@main.group()
def algebra() -> None:
    """Analyze finite monadic MV-algebras from JSON files."""


def _labels_of(algebra_obj: analysis.FiniteMonadicAlgebra, members) -> list[str]:
    return sorted(algebra_obj.labels[i] for i in members)


def _set_text(labels: list[str]) -> str:
    return "{" + ", ".join(labels) + "}"


@algebra.command("validate")
@click.argument("algebra_file", type=click.Path())
@_json_option
def algebra_validate_command(algebra_file: str, as_json: bool) -> None:
    """Check every MV and quantifier identity.  Exit 1 when any fails."""
    from . import analysis

    algebra_obj = analysis.algebra_from_json(_load_json(algebra_file), check=False)
    violations = algebra_obj.validate()
    if as_json:
        _echo_json(
            {
                "valid": not violations,
                "carrier": algebra_obj.size,
                "violations": [v.to_json() for v in violations],
            }
        )
    elif not violations:
        click.echo(f"valid: all identities hold on {algebra_obj.size} elements")
    else:
        click.echo(f"invalid: {len(violations)} violation(s)")
        for violation in violations:
            click.echo(
                f"  {violation.identity} at ({', '.join(violation.witness)})"
            )
    sys.exit(0 if not violations else 1)


@algebra.command("classify")
@click.argument("algebra_file", type=click.Path())
@click.option("--width-cap", type=int, default=64, show_default=True,
              help="Largest carrier the width brute force will accept.")
@_json_option
def algebra_classify_command(algebra_file: str, width_cap: int, as_json: bool) -> None:
    """Subdirect irreducibility, simplicity, and orthogonal width."""
    from . import analysis

    algebra_obj = analysis.algebra_from_json(_load_json(algebra_file))
    result = analysis.classify(algebra_obj, width_cap=width_cap)
    if as_json:
        _echo_json(result.to_json(algebra_obj))
    else:
        click.echo(f"carrier: {algebra_obj.size} elements")
        click.echo(f"fsi: {'yes' if result.fsi else 'no'}")
        click.echo(f"simple: {'yes' if result.simple else 'no'}")
        witness = ", ".join(algebra_obj.labels[a] for a in result.width_witness)
        click.echo(f"width: {result.width} (witness: {witness})")
        image = ", ".join(algebra_obj.labels[a] for a in result.exists_image)
        click.echo(f"quantifier image: {image}")
    sys.exit(0)


@algebra.command("filters")
@click.argument("algebra_file", type=click.Path())
@_json_option
def algebra_filters_command(algebra_file: str, as_json: bool) -> None:
    """List all filters with the prime and maximal ones singled out."""
    from . import analysis

    algebra_obj = analysis.algebra_from_json(_load_json(algebra_file))
    groups = {
        "all": analysis.filters(algebra_obj),
        "prime": analysis.prime_filters(algebra_obj),
        "maximal": analysis.maximal_filters(algebra_obj),
    }
    if as_json:
        _echo_json(
            {
                name: [_labels_of(algebra_obj, f) for f in members]
                for name, members in groups.items()
            }
        )
    else:
        for name, members in groups.items():
            click.echo(f"{name} ({len(members)}):")
            for f in members:
                click.echo(f"  {_set_text(_labels_of(algebra_obj, f))}")
    sys.exit(0)


@algebra.command("radical")
@click.argument("algebra_file", type=click.Path())
@_json_option
def algebra_radical_command(algebra_file: str, as_json: bool) -> None:
    """Intersection of the maximal filters."""
    from . import analysis

    algebra_obj = analysis.algebra_from_json(_load_json(algebra_file))
    members = _labels_of(algebra_obj, analysis.radical(algebra_obj))
    if as_json:
        _echo_json({"radical": members})
    else:
        click.echo(f"radical: {_set_text(members)}")
    sys.exit(0)


@algebra.command("represent")
@click.argument("algebra_file", type=click.Path())
@click.option("--width-cap", type=int, default=64, show_default=True,
              help="Carrier cap for the classification evidence on refusal.")
@_json_option
def algebra_represent_command(algebra_file: str, width_cap: int, as_json: bool) -> None:
    """Embed a simple algebra into tuples indexed by its maximal filters.

    Exit 1 with classification evidence when the algebra is not simple.
    """
    from . import analysis

    algebra_obj = analysis.algebra_from_json(_load_json(algebra_file))
    try:
        representation = analysis.represent_simple(algebra_obj, width_cap=width_cap)
    except analysis.NotSimpleError as exc:
        if as_json:
            _echo_json(
                {"simple": False, "classification": exc.classification.to_json(algebra_obj)}
            )
        else:
            click.echo(f"refused: {exc}")
            click.echo(json.dumps(exc.classification.to_json(algebra_obj)))
        sys.exit(1)
    if as_json:
        _echo_json(representation.to_json(algebra_obj))
    else:
        click.echo(
            f"index: {len(representation.index_filters)} maximal filters; "
            f"coordinate denominators {list(representation.denominators)}"
        )
        for a in range(algebra_obj.size):
            click.echo(
                f"  {algebra_obj.labels[a]} -> {_bracketed(representation.mapping[a])}"
            )
    sys.exit(0)


def _witness_entry(entry: object) -> tuple[tuple, int]:
    """A `witnesses` entry [[rational string, ...], integer point], parsed."""
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], list)
        and all(isinstance(v, str) for v in entry[0])
        and isinstance(entry[1], int)
        and not isinstance(entry[1], bool)
    ):
        try:
            return tuple(core.parse_rational(v) for v in entry[0]), entry[1]
        except InputError:
            pass
    raise InputError(f"witnesses entry {json.dumps(entry)} is not [[rational, ...], integer point]")


@algebra.command("fep")
@click.argument("algebra_file", type=click.Path())
@click.option("--element", "element_texts", multiple=True,
              help="Comma-separated tuple to include in the finite subset "
                   "(repeatable; default: the whole carrier).")
@_json_option
def algebra_fep_command(
    algebra_file: str, element_texts: tuple[str, ...], as_json: bool
) -> None:
    """Embed a finite subset of a functional algebra into one finite power.

    The file's optional "witnesses" key ([[tuple, point], ...]) overrides the
    default first-minimum witnesses.  Exit 1 when a claimed witness fails.
    """
    from . import analysis

    data = _load_json(algebra_file)
    algebra_obj = analysis.algebra_from_json(data)
    if algebra_obj.carrier is None:
        raise InputError("fep needs the functional form of an algebra")
    carrier = set(algebra_obj.carrier)
    if element_texts:
        subset = []
        for text in element_texts:
            element = tuple(core.parse_rational(v.strip()) for v in text.split(","))
            if element not in carrier:
                raise InputError(f"--element {text!r} is not an element of the algebra")
            subset.append(element)
    else:
        subset = list(algebra_obj.carrier)
    witnesses = analysis.canonical_witnesses(subset, algebra_obj.n)
    if isinstance(data, dict) and "witnesses" in data:
        if not isinstance(data["witnesses"], list):
            raise InputError('"witnesses" must be a list of [[rational, ...], point] entries')
        for entry in data["witnesses"]:
            element, point = _witness_entry(entry)
            if element in witnesses:
                witnesses[element] = point
    try:
        embedding = analysis.fep_embed(subset, witnesses, points=algebra_obj.n)
    except analysis.WitnessError as exc:
        if as_json:
            _echo_json({"error": str(exc)})
        else:
            click.echo(f"refused: {exc}")
        sys.exit(1)
    if as_json:
        _echo_json(embedding.to_json())
    else:
        click.echo(
            f"m={embedding.m}, n={embedding.n}, points={list(embedding.points)}"
        )
        for element, image in embedding.mapping.items():
            click.echo(f"  {_bracketed(element)} -> {_bracketed(image)}")
    sys.exit(0)


if __name__ == "__main__":
    main()
