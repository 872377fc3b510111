"""In-memory spans around the public functions of each `mmv` layer.

The tracer never edits `mmv`: it replaces a function at every module
attribute that refers to it (so `proofs.random_instance`, which
`axiom_soundness_audit` looks up, is wrapped as well as
`randgen.random_instance`), and puts the originals back on `uninstall`.

Two kinds of wrapper:

* span functions record one span per call: name, start, end, parent span
  and op id, plus the time covered by child calls, from which self time
  follows;
* leaf functions (called up to ~10^5 times per pass, such as
  `core.power_binop`) are aggregated per name as calls, busy and self time,
  so the trace stays small; their time still counts as child time of the
  span that called them.

Outside an op (`op_id is None`) every wrapper calls straight through.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from mmv.syntax import subformulas, variables

# (span name, module, attribute); classmethods and methods are given as
# "Class.method".
SPAN_FUNCTIONS = (
    ("enumeration.scan_cell", "mmv.enumeration", "scan_cell"),
    ("enumeration.eval_bulk", "mmv.enumeration", "eval_bulk"),
    ("search.refute", "mmv.search", "refute"),
    ("search.refute_width_k", "mmv.search", "refute_width_k"),
    ("analysis.algebra_from_json", "mmv.analysis", "algebra_from_json"),
    ("analysis.generate_subalgebra", "mmv.analysis", "generate_subalgebra"),
    ("analysis.FiniteMonadicAlgebra.from_carrier", "mmv.analysis", "FiniteMonadicAlgebra.from_carrier"),
    ("analysis.FiniteMonadicAlgebra.validate", "mmv.analysis", "FiniteMonadicAlgebra.validate"),
    ("analysis.prime_filters", "mmv.analysis", "prime_filters"),
    ("analysis.radical", "mmv.analysis", "radical"),
    ("analysis.classify", "mmv.analysis", "classify"),
    ("analysis.orthogonal_width", "mmv.analysis", "orthogonal_width"),
    ("analysis.represent_simple", "mmv.analysis", "represent_simple"),
    ("analysis.fep_embed", "mmv.analysis", "fep_embed"),
    ("proofs.axiom_soundness_audit", "mmv.proofs", "axiom_soundness_audit"),
    ("proofs.check_proof", "mmv.proofs", "check_proof"),
    ("proofs.derived_rule_audit", "mmv.proofs", "derived_rule_audit"),
)
LEAF_FUNCTIONS = (
    ("semantics.evaluate", "mmv.semantics", "evaluate"),
    ("core.eval_in_power", "mmv.core", "eval_in_power"),
    ("core.power_binop", "mmv.core", "power_binop"),
    ("proofs.random_instance", "mmv.randgen", "random_instance"),
    ("syntax.parse", "mmv.syntax", "parse"),
)
# Leaf time spent inside a span of the given name, kept as its own total.
LEAF_WITHIN = {("semantics.evaluate", "search.refute"): "search.verify_s"}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        # span record: [name, start, end, parent index, op id, child seconds]
        self.spans: list[list] = []
        self.leaves: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s: dict[int, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._formula_shapes: dict = {}  # formula -> (distinct subformulas, variables)

    # -- recording

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        self._open[frame[0]] -= 1
        duration = end - frame[1]
        frame[2] = end
        parent = frame[3]
        if parent is None:
            self.root_s[self.op_id] += duration
        else:
            parent[4] += duration
        return duration

    def span(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            index = len(tracer.spans)
            record = [name, frame[1], 0.0, -1, tracer.op_id, 0.0]
            tracer.spans.append(record)
            if frame[3] is not None:
                record[3] = frame[3][5]
            frame.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                record[2], record[5] = frame[2], frame[4]
            if on_result is not None:
                # counted as child time of the caller, not as its own work
                hook_start = perf_counter()
                on_result(tracer, args, result)
                if frame[3] is not None:
                    frame[3][4] += perf_counter() - hook_start
            return result

        return wrapper

    def leaf(self, name: str, fn):
        tracer = self
        within = [(span, total) for (leaf, span), total in LEAF_WITHIN.items() if leaf == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            frame.append(-1)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
                totals = tracer.leaves[name]
                totals[0] += 1
                if tracer._open[name] == 0:
                    totals[1] += duration
                totals[2] += duration - frame[4]
                for span, total in within:
                    if tracer._open[span]:
                        tracer.counters[total] += duration

        return wrapper

    # -- installing

    def install(self, extra_spans=()) -> None:
        """Wrap the layer functions, plus `(name, module, attr)` extra spans."""
        modules = [m for key, m in sys.modules.items() if key == "mmv" or key.startswith("mmv.")]
        for name, module, attr in extra_spans:
            self._set(module, attr, self.span(name, getattr(module, attr)))
        for name, module_name, attr in SPAN_FUNCTIONS:
            self._replace(modules, module_name, attr, lambda fn, name=name: self.span(name, fn, HOOKS.get(name)))
        for name, module_name, attr in LEAF_FUNCTIONS:
            self._replace(modules, module_name, attr, lambda fn, name=name: self.leaf(name, fn))

    def _replace(self, modules, module_name: str, attr: str, make) -> None:
        owner = sys.modules[module_name]
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(owner, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._set(cls, method, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results

    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost spans of a name) and self_s per span name."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        names = [record[0] for record in self.spans]
        for record in self.spans:
            name, start, end, parent, _, child = record
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child
            ancestor = parent
            nested = False
            while ancestor != -1:
                if names[ancestor] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                entry["busy_s"] += end - start
        for name, (calls, busy, self_s) in self.leaves.items():
            totals[name] = {"calls": calls, "busy_s": busy, "self_s": self_s}
        return totals

    def write(self, path) -> None:
        columns = ["name", "start", "end", "parent", "op", "child_s"]
        data = {
            "columns": columns,
            "spans": self.spans,
            "leaves": {name: dict(zip(("calls", "busy_s", "self_s"), v)) for name, v in self.leaves.items()},
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


# -- counters read off arguments and results (computed, not timed)


def _scan_cell(tracer: Tracer, args, result) -> None:
    tracer.counters["enumeration.scan_cell.assignments"] += result.checked
    tracer.counters["enumeration.scan_cell.sampled_calls"] += not result.exhaustive
    tracer.counters["enumeration.scan_cell.hits"] += result.found


def _eval_bulk(tracer: Tracer, args, result) -> None:
    formula, arrays = args[0], args[1]
    shape = tracer._formula_shapes.get(formula)
    if shape is None:
        shape = tracer._formula_shapes[formula] = (len(set(subformulas(formula))), variables(formula))
    count, names = shape
    used = [arrays[name] for name in names]
    if used:
        rows, worlds = used[0].shape
        tracer.counters["enumeration.eval_bulk.cell_ops"] += count * rows * worlds
        tracer.counters["enumeration.eval_bulk.input_bytes"] += sum(a.nbytes for a in used)


def _refute(tracer: Tracer, args, result) -> None:
    tracer.counters["search.refute.cells_visited"] += result.cells_visited
    tracer.counters["search.refute.countermodels"] += result.found


def _generate_subalgebra(tracer: Tracer, args, result) -> None:
    tracer.counters["analysis.generate_subalgebra.elements"] += result.size


def _validate(tracer: Tracer, args, result) -> None:
    tracer.counters["analysis.FiniteMonadicAlgebra.validate.triples"] += args[0].size ** 3


HOOKS = {
    "enumeration.scan_cell": _scan_cell,
    "enumeration.eval_bulk": _eval_bulk,
    "search.refute": _refute,
    "analysis.generate_subalgebra": _generate_subalgebra,
    "analysis.FiniteMonadicAlgebra.validate": _validate,
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass over the workload's inputs.

    Names and units are those of BENCHMARK.json's `per_layer` list; a layer
    the workload never reaches reads 0.
    """
    spans = tracer.span_totals()
    counters = tracer.counters

    def total(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: dict[str, float] = {}
    for name, fields in PER_LAYER_FIELDS.items():
        for field in fields:
            metrics[f"{name}.{field}"] = total(name, field)
    for name in ("enumeration.scan_cell.assignments", "enumeration.scan_cell.sampled_calls",
                 "enumeration.eval_bulk.cell_ops", "enumeration.eval_bulk.input_bytes",
                 "search.refute.cells_visited", "analysis.generate_subalgebra.elements",
                 "analysis.FiniteMonadicAlgebra.validate.triples", "search.verify_s"):
        metrics[name] = counters.get(name, 0)
    metrics = {key: value / passes for key, value in metrics.items()}
    metrics["enumeration.scan_cell.hit_ratio"] = ratio(
        counters.get("enumeration.scan_cell.hits", 0), total("enumeration.scan_cell", "calls"))
    metrics["search.refute.countermodel_ratio"] = ratio(
        counters.get("search.refute.countermodels", 0), total("search.refute", "calls"))
    return metrics


PER_LAYER_FIELDS = {
    "enumeration.scan_cell": ("calls", "busy_s", "self_s"),
    "enumeration.eval_bulk": ("calls", "busy_s"),
    "search.refute": ("calls", "busy_s", "self_s"),
    "semantics.evaluate": ("calls", "busy_s"),
    "core.eval_in_power": ("calls", "busy_s"),
    "core.power_binop": ("calls", "busy_s"),
    "analysis.generate_subalgebra": ("calls", "busy_s", "self_s"),
    "analysis.FiniteMonadicAlgebra.from_carrier": ("busy_s",),
    "analysis.FiniteMonadicAlgebra.validate": ("calls", "busy_s"),
    "analysis.prime_filters": ("busy_s",),
    "analysis.radical": ("busy_s",),
    "analysis.classify": ("busy_s",),
    "analysis.orthogonal_width": ("busy_s",),
    "analysis.represent_simple": ("busy_s",),
    "analysis.fep_embed": ("busy_s",),
    "proofs.axiom_soundness_audit": ("busy_s", "self_s"),
    "proofs.check_proof": ("calls", "busy_s"),
    "proofs.derived_rule_audit": ("busy_s",),
    "proofs.random_instance": ("busy_s",),
    "syntax.parse": ("calls", "busy_s"),
    "cli.command": ("busy_s",),
}
