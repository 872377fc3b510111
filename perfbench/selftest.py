"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints every metric that
BENCHMARK.json names, with its unit, and that a corrupted output (a flipped
verdict, a wrong assignment count, a wrong size, a failed command) is
counted as a failed op.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
WORKLOADS = ("audit-sweep", "refute-batch", "algebra-suite", "cli-session")


def check_printed_metrics(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit code {done.returncode}\n{done.stdout}{done.stderr}")
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                problems.append(f"{where}: bad result line {lines[-1][:200]}")
            for metric in spec[kind]:
                name, unit = metric["name"], metric["unit"]
                printed = [line for line in lines[:-1] if line.startswith(f"{workload} {name} ")]
                if len(printed) != 1 or not printed[0].endswith(f" {unit}"):
                    problems.append(f"{where}: {name} not printed once with unit {unit}")
                if result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{where}: {name} missing from the result line")
            if kind == "end_to_end" and not all(
                    result["metrics"][m["name"]]["value"] > 0 for m in spec[kind]):
                problems.append(f"{where}: an end-to-end metric reads 0")


def _corruptions(workload: str, result):
    """Wrong versions of a correct output, each of which a check must reject."""
    if workload == "audit-sweep":
        (name, count), = result.assignments.items()
        yield "wrong assignment count", dataclasses.replace(result, assignments={name: count + 1})
        yield "invented violation", dataclasses.replace(result, violations=["violation"])
    elif workload == "refute-batch":
        flipped = "exhausted" if result.found else "countermodel"
        yield "flipped verdict", dataclasses.replace(result, verdict=flipped)
        yield "wrong assignment count", dataclasses.replace(result, assignments=result.assignments + 1)
        if result.found:
            name = sorted(result.valuation)[0]
            other = tuple(1 - v for v in result.valuation[name])
            yield "wrong first hit", dataclasses.replace(
                result, valuation={**result.valuation, name: other})
    elif workload == "algebra-suite":
        yield "wrong size", dataclasses.replace(result, size=result.size + 1)
        yield "wrong width", dataclasses.replace(
            result, classification=dataclasses.replace(result.classification, width=0))
    else:
        yield "failed command", dataclasses.replace(result, exit_code=1)
        yield "wrong output", dataclasses.replace(result, stdout="nothing\n")


def check_corrupted_results(problems: list[str]) -> None:
    import workloads

    for workload in WORKLOADS:
        pool = workloads.WORKLOADS[workload](3, tiny=True)
        op = pool.ops[0]
        result = op.run()
        if op.check(result) is not None:
            problems.append(f"{workload}: correct output rejected: {op.check(result)}")
        for what, wrong in _corruptions(workload, result):
            corrupted = workloads.Op(op.label, lambda wrong=wrong: wrong, op.check, op.assignments)
            measurement = run.measure([op, corrupted], passes=1)
            if [label for label, _ in measurement.failures] != [op.label]:
                problems.append(f"{workload}: {what} not counted as a failed op")
            _, extra = run.end_to_end(measurement, (1.0, 1.0), False)
            if extra["error_rate"][0] != 0.5:
                problems.append(f"{workload}: {what}: error_rate {extra['error_rate'][0]}")


def main() -> int:
    run.load_sources()
    problems: list[str] = []
    check_corrupted_results(problems)
    check_printed_metrics(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
