"""Run one benchmark workload against the `mmv` sources of this checkout.

    python3 perfbench/run.py --workload audit-sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all

One client, one process, `jobs=1`, closed loop: the next op starts when the
previous one has returned and been checked.  After a warm-up of at most
1.5 s, the loop runs whole passes over the workload's inputs until
`--seconds` of wall time have gone by.  Every op's output is checked; a
failed op counts in `error_rate` and makes the exit code 1.

Op times are reported in reference seconds (see speed.py): each op's wall
time scaled by the speed of the host, measured by a fixed probe run between
ops, so that other tenants of a shared host move the figures less.  The
wall-time figures are printed as well.

`--trace 0` prints the end-to-end metrics; `--trace 1` times untraced passes
for `--seconds`, then runs one traced pass and prints the per-layer metrics
(per pass), the tracing overhead and the share of each op's wall time the
top-level layer spans cover.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Spans and the full result go
to perfbench/out/.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
WARMUP_S = 1.5
IMPORT_PROBES = 5
TAIL_BEYOND = 10
COVERAGE_FLOOR = 0.9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["audit-sweep", "refute-batch", "algebra-suite", "cli-session", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_sources() -> None:
    """Import `mmv` from this checkout's src/, or stop."""
    src = ROOT / "src"
    if not (src / "mmv" / "__init__.py").is_file():
        print(f"error: {src}/mmv not found; run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import mmv

    if Path(mmv.__file__).resolve().parent != src / "mmv":
        print(f"error: imported mmv from {mmv.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def child_argv(args, *extra: str) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else []) + list(extra)


def setup_seconds(args) -> tuple[float, float]:
    """Median set-up time of fresh processes: import `mmv` and build the inputs.

    Returns (reference seconds, wall seconds).  Each process's wall time is
    scaled by a probe run here just before it starts and one it runs itself
    just after its set-up, once numpy is imported.
    """
    probe = speed.Probe()
    walls, refs = [], []
    for _ in range(SETUP_PROBES):
        before = probe()
        done = subprocess.run(child_argv(args, "--setup-probe"), cwd=ROOT,
                              capture_output=True, text=True, check=True)
        wall, after = (float(x) for x in done.stdout.split()[-2:])
        walls.append(wall)
        refs.append(wall * speed.PROBE_REF_S / ((before + after) / 2))
    return statistics.median(refs), statistics.median(walls)


def import_seconds() -> float:
    """`python -c "import mmv.cli"` minus a bare interpreter start, medians."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def median_run(code: str) -> float:
        times = []
        for _ in range(IMPORT_PROBES):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append(perf_counter() - start)
        return statistics.median(times)

    return median_run("import mmv.cli") - median_run("pass")


class Measurement:
    """Latencies and outcomes of the ops of one phase.

    `latencies` are wall seconds; `reference` the same ops in reference
    seconds, filled in as the probes after them run.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.reference: list[float] = []
        self.failed_at: list[int] = []
        self.failures: list[tuple[str, str]] = []
        self.assignments = 0
        self.child_maxrss_kb = 0
        self.pass_ends: list[int] = []
        self.probes: list[float] = []
        self.first_pass_maxrss_kb = 0

    def _scaled(self, index: int, seconds: float) -> None:
        self.reference[index] = seconds

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def times(self, wall: bool = False) -> list[float]:
        return self.latencies if wall else self.reference

    def op_seconds(self, wall: bool = False) -> float:
        return sum(self.times(wall))

    def passes(self) -> list[range]:
        starts = [0] + self.pass_ends[:-1]
        return [range(a, b) for a, b in zip(starts, self.pass_ends)]

    def pass_seconds(self, wall: bool = False) -> list[float]:
        times = self.times(wall)
        return [sum(times[i] for i in ops) for ops in self.passes()]

    def ops_per_s(self, wall: bool = False) -> float:
        """Completed ops per second of op time: the median over whole passes."""
        failed = set(self.failed_at)
        return statistics.median(
            sum(i not in failed for i in ops) / seconds
            for ops, seconds in zip(self.passes(), self.pass_seconds(wall)))

    def tail(self, wall: bool = False) -> tuple[float, float]:
        """(percentile, latency): the highest percentile with 10 samples beyond it.

        With fewer than 11 samples no percentile qualifies; the maximum is
        returned as percentile 100.
        """
        ordered = sorted(self.times(wall))
        rank = len(ordered) - TAIL_BEYOND
        if rank < 1:
            return 100.0, ordered[-1]
        return 100.0 * rank / len(ordered), ordered[rank - 1]


def run_op(op, measurement: Measurement, tracer=None, op_id: int = 0) -> float:
    if tracer is not None:
        tracer.op_id = op_id
    start = perf_counter()
    try:
        result, problem = op.run(), None
    except Exception as exc:  # a failed op is counted, and the run goes on
        result, problem = None, f"raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if tracer is not None:
        tracer.op_id = None
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    measurement.latencies.append(latency)
    measurement.reference.append(latency)  # until the next probe scales it
    if problem is not None:
        measurement.failed_at.append(measurement.attempted - 1)
        measurement.failures.append((op.label, problem))
    elif op.assignments is not None:
        measurement.assignments += op.assignments(result)
    measurement.child_maxrss_kb = max(measurement.child_maxrss_kb, getattr(result, "maxrss_kb", 0))
    return latency


def peak_rss_kb(measurement: Measurement) -> int:
    """Peak RSS of the command processes the ops ran, or else of this process."""
    return measurement.child_maxrss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def warm_up(ops) -> Measurement:
    """Ops from the start of a pass, checked like any other, for WARMUP_S at most."""
    measurement = Measurement()
    start = perf_counter()
    for op in ops:
        run_op(op, measurement)
        if perf_counter() - start >= WARMUP_S:
            break
    measurement.pass_ends.append(measurement.attempted)
    return measurement


def measure(ops, seconds: float | None = None, passes: int | None = None, tracer=None):
    """Whole passes over `ops`: until `seconds` have passed, or `passes` times."""
    measurement = Measurement()
    clock = speed.Clock(measurement._scaled)
    start = perf_counter()
    while True:
        for op in ops:
            index = measurement.attempted
            clock.add(index, run_op(op, measurement, tracer, op_id=index))
        measurement.pass_ends.append(measurement.attempted)
        if len(measurement.pass_ends) == 1:
            # the process's peak so far: each later pass of audit-sweep grows
            # the heap by a few MB, so the peak at the end of the run depends
            # on how many passes the host's speed allowed
            measurement.first_pass_maxrss_kb = peak_rss_kb(measurement)
        if passes is not None and len(measurement.pass_ends) >= passes:
            break
        if passes is None and perf_counter() - start >= seconds:
            break
    clock.flush()
    measurement.probes = clock.probes
    return measurement


def provenance(seeds: dict, load_start: float) -> dict:
    import numpy

    from importlib.metadata import PackageNotFoundError, version

    try:
        click_version = version("click")
    except PackageNotFoundError:
        click_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": click_version,
        "commit": git_commit(),
        "seeds": seeds,
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            path = ROOT / ".git" / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(measurement: Measurement, setup: tuple[float, float], with_assignments: bool):
    """(metrics, extra): `BENCHMARK.json`'s end-to-end metrics and the other printed ones."""
    percentile, tail = measurement.tail()
    _, wall_tail = measurement.tail(wall=True)
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (measurement.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(measurement.times()) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (measurement.first_pass_maxrss_kb / 1024, "MB"),
    }
    extra = {
        "op_tail_percentile": (percentile, "%"),
        "op_samples": (measurement.attempted, "count"),
        "error_rate": (len(measurement.failures) / measurement.attempted, "ratio"),
        "peak_rss_end_mb": (peak_rss_kb(measurement) / 1024, "MB"),
        "wall_setup_s": (setup[1], "s"),
        "wall_ops_per_s": (measurement.ops_per_s(wall=True), "1/s"),
        "wall_op_p50_ms": (statistics.median(measurement.latencies) * 1000, "ms"),
        "wall_op_tail_ms": (wall_tail * 1000, "ms"),
        # the median probe time over the reference: how much slower the host ran
        "host_slowdown": (statistics.median(measurement.probes) / speed.PROBE_REF_S, "ratio"),
    }
    if with_assignments:
        extra["assign_per_s"] = (measurement.assignments / measurement.op_seconds(), "1/s")
    return metrics, extra


def traced_pass(pool, ops, untraced: Measurement):
    import tracing

    tracer = tracing.Tracer()
    tracer.install(pool.traced_spans)
    try:
        traced = measure(ops, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, len(traced.pass_ends))
    layers["cli.import_s"] = import_seconds()
    coverage = [tracer.root_s.get(i, 0.0) / latency for i, latency in enumerate(traced.latencies)]
    summary = {
        # a traced pass against the median untraced pass of the same ops
        "tracing_overhead": traced.op_seconds() / statistics.median(untraced.pass_seconds()) - 1,
        "coverage_min": min(coverage),
        "coverage_median": statistics.median(coverage),
        "coverage_total": sum(tracer.root_s.values()) / traced.op_seconds(wall=True),
        "ops_below_coverage_floor": sum(c < COVERAGE_FLOOR for c in coverage),
    }
    return tracer, traced, layers, summary


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def run_workload(args) -> int:
    load_sources()
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        wall = perf_counter() - _START
        print(f"{wall:.9f} {speed.Probe()():.9f}")
        return 0

    load_start = os.getloadavg()[0]
    setup = None if args.trace else setup_seconds(args)
    pool = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    name = args.workload
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"

    # cli-session times whole processes, but traces its commands in-process
    ops = (pool.traced_ops or pool.ops) if args.trace else pool.ops
    # a warm-up, checked like any other op, lets lazy set-up inside numpy
    # and the interpreter finish before the timed passes
    warmup = warm_up(ops)
    untraced = measure(ops, seconds=args.seconds)
    phases = [warmup, untraced]
    if args.trace:
        tracer, traced, layers, summary = traced_pass(pool, ops, untraced)
        tracer.write(stem.with_suffix(".spans.json"))
        metrics = {key: (layers[key], unit) for key, unit in per_layer_units().items()}
        extra = {key: (value, "count" if key.startswith("ops_") else "ratio")
                 for key, value in summary.items()}
        phases.append(traced)
    else:
        metrics, extra = end_to_end(untraced, setup, name in ("audit-sweep", "refute-batch"))

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    info = provenance(pool.seeds, load_start)
    print(f"# {name}: provenance {json.dumps(info)}")
    print(f"# {name}: {untraced.attempted} ops in {len(untraced.pass_ends)} passes of "
          f"{len(pool.ops)} ops, {untraced.op_seconds(wall=True):.3f} s of op time; per pass "
          "(reference s) "
          + " ".join(f"{t:.3f}" for t in untraced.pass_seconds()))
    for label, problem in failures:
        print(f"# {name}: FAILED {label}: {problem}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {key} {value!r} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as handle:
        json.dump({**result, "extra": {k: v for k, (v, _) in extra.items()},
                   "provenance": info, "failures": failures}, handle, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    load_sources()
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("audit-sweep", "refute-batch", "algebra-suite", "cli-session"):
        args.workload = name
        done = subprocess.run(child_argv(args), cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        if done.returncode not in (0, 1) or not done.stdout.strip():
            summary["correct"] = False
            continue
        last = json.loads(done.stdout.splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
