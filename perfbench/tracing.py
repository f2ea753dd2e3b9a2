"""Span tracing for the traced benchmark run.

Spans are recorded from the benchmark's side: every public function of the
package named in TARGETS is replaced, at every module attribute that binds
it, by a wrapper that times the call. Binding sites matter because
`tables.py`, `solvers.py` and `cli.py` import functions by name, so
patching only the defining module would miss their calls. Methods of
`SteklovApproximation` are patched on the class, which covers every caller.

Spans are aggregated in memory into a call tree keyed by (parent, name), so a
function called a million times costs one node, not a million records. Each
node keeps its call count, total duration and the duration covered by its
children; self time is the difference. The tree is written out as JSON when
the run ends.

The benchmark's own boundary data are called millions of times per pass, one
point per call, so they get a lighter wrapper (`Tracer.leaf`) that times and
counts each call under its caller's node without pushing a span.

Wrappers cost time, and that time lands in the spans: partly inside the
wrapped call's own duration, partly in its caller's self time.
`Tracer.calibrate` measures both parts for one call of each kind of wrapper,
and `Tracer.metrics` takes calls x cost off every self time and duration it
reports; the sum it took off is `trace.wrapper_s`.

A wrap target that no longer exists is recorded in `Tracer.missing` and the
metrics that depend only on it are reported as missing; the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

# (module, attribute, span name). A dotted attribute is a class method.
TARGETS = (
    ("steklov.spectrum", "build_spectrum", "spectrum.build"),
    ("steklov.spectrum", "build_spectrum_by_count", "spectrum.build"),
    ("steklov.spectrum", "find_roots", "spectrum.find_roots"),
    ("steklov.spectrum", "make_mode", "spectrum.make_mode"),
    ("steklov.spectrum", "save_spectrum", "spectrum.cache_save"),
    ("steklov.spectrum", "load_spectrum", "spectrum.cache_load"),
    ("steklov.spectrum", "spectrum_from_json", "spectrum.cache_load"),
    ("steklov.boundary", "steklov_coefficients", "boundary.coeff"),
    ("steklov.boundary", "integrate_boundary", "boundary.integrate"),
    ("steklov.boundary", "boundary_partial_sum", "boundary.partial_sum"),
    ("steklov.boundary", "corner_bilinear_reduction", "boundary.corner_reduction"),
    ("steklov.solvers", "solve", "solvers.solve"),
    ("steklov.solvers", "solve_dirichlet", "solvers.solve"),
    ("steklov.solvers", "solve_robin", "solvers.solve"),
    ("steklov.solvers", "solve_neumann", "solvers.solve"),
    ("steklov.solvers", "neumann_mean_tolerance", "solvers.solve"),
    ("steklov.solvers", "grid_points", "solvers.grid_points"),
    ("steklov.solvers", "SteklovApproximation.eval_grid", "solvers.eval_grid"),
    ("steklov.solvers", "SteklovApproximation.eval_array", "solvers.eval_array"),
    ("steklov.solvers", "SteklovApproximation.gradient_arrays", "solvers.gradient_arrays"),
    ("steklov.solvers", "SteklovApproximation.eval", "solvers.scalar_eval"),
    ("steklov.solvers", "SteklovApproximation.boundary_value", "solvers.scalar_eval"),
    ("steklov.solvers", "SteklovApproximation.eval_gradient", "solvers.scalar_eval"),
    ("steklov.analysis", "boundary_sup", "analysis.boundary_sup"),
    ("steklov.analysis", "boundary_l2", "analysis.boundary_l2"),
    ("steklov.analysis", "interior_l2", "analysis.interior"),
    ("steklov.analysis", "interior_sup", "analysis.interior"),
    ("steklov.analysis", "invariant_suite", "analysis.check"),
    ("steklov.tables", "reproduce_table", "tables.reproduce"),
    ("steklov.cli", "main", "cli.main"),
)

LAYERS = ("spectrum", "boundary", "solvers", "analysis", "tables", "cli")

# Per-layer metrics: name -> (unit, span names it needs). A metric whose
# spans all failed to wrap is reported as missing.
METRICS = {
    "spectrum.build_s": ("s", ("spectrum.build",)),
    "spectrum.find_roots_s": ("s", ("spectrum.find_roots",)),
    "spectrum.roots": ("count", ("spectrum.find_roots",)),
    "spectrum.kept_per_root": ("ratio", ("spectrum.build", "spectrum.find_roots")),
    "spectrum.make_mode_s": ("s", ("spectrum.make_mode",)),
    "spectrum.modes": ("count", ("spectrum.make_mode",)),
    "spectrum.cache_save_s": ("s", ("spectrum.cache_save",)),
    "spectrum.cache_load_s": ("s", ("spectrum.cache_load",)),
    "spectrum.self_s": ("s", ()),
    "boundary.coeff_s": ("s", ("boundary.coeff",)),
    "boundary.coeff_calls": ("count", ("boundary.coeff",)),
    "boundary.coeff_modes": ("count", ("boundary.coeff",)),
    "boundary.data_points": ("count", ()),
    "boundary.data_points_per_mode": ("ratio", ("boundary.coeff",)),
    "boundary.data_s": ("s", ()),
    "boundary.integrate_s": ("s", ("boundary.integrate",)),
    "boundary.quad_est_max": ("1", ("boundary.coeff",)),
    "boundary.partial_sum_s": ("s", ("boundary.partial_sum",)),
    "boundary.partial_sum_calls": ("count", ("boundary.partial_sum",)),
    "boundary.self_s": ("s", ()),
    "solvers.solve_s": ("s", ("solvers.solve",)),
    "solvers.eval_s": ("s", ("solvers.eval_grid", "solvers.eval_array", "solvers.gradient_arrays")),
    "solvers.mode_points": ("count", ("solvers.eval_grid", "solvers.eval_array", "solvers.gradient_arrays")),
    "solvers.mode_points_per_s": ("1/s", ("solvers.eval_grid", "solvers.eval_array", "solvers.gradient_arrays")),
    "solvers.scalar_eval_s": ("s", ("solvers.scalar_eval",)),
    "solvers.scalar_eval_calls": ("count", ("solvers.scalar_eval",)),
    "solvers.self_s": ("s", ()),
    "analysis.boundary_sup_s": ("s", ("analysis.boundary_sup",)),
    "analysis.boundary_sup_calls": ("count", ("analysis.boundary_sup",)),
    "analysis.boundary_samples": ("count", ("analysis.boundary_sup",)),
    "analysis.boundary_l2_s": ("s", ("analysis.boundary_l2",)),
    "analysis.interior_s": ("s", ("analysis.interior",)),
    "analysis.check_s": ("s", ("analysis.check",)),
    "analysis.self_s": ("s", ()),
    "tables.reproduce_s": ("s", ("tables.reproduce",)),
    "tables.coeff_sets": ("count", ("tables.reproduce", "boundary.coeff")),
    "cli.main_s": ("s", ("cli.main",)),
    "cli.rows_written": ("count", ("cli.main",)),
    "cli.bytes_written": ("B", ("cli.main",)),
    "bench.self_s": ("s", ()),
    "trace.pass_s": ("s", ()),
    "trace.untraced_pass_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.wrapper_s": ("s", ()),
    "trace.unattributed_s": ("s", ()),
}


class Node:
    __slots__ = ("name", "parent", "children", "count", "total", "child", "leaf", "items")

    def __init__(self, name: str, parent: "Node | None", leaf: bool = False):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.leaf = leaf  # recorded by Tracer.leaf
        self.items = 0  # points passed to a leaf

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "leaf_items": self.items,
            "self_s": self.self_time,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    """Aggregated span tree plus counters; records only inside an op span."""

    def __init__(self):
        self.root = Node("run", None)
        self.stack: list[Node] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        # wrapper cost of one call: (inside its own duration, in its caller's self time)
        self.cost = {"span": (0.0, 0.0), "leaf": (0.0, 0.0)}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, name: str, fn, after=None):
        """Wrapper that records a span `name` when called inside an op."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, parent)
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                node.count += 1
                node.total += dt
                parent.child += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def leaf(self, name: str, fn):
        """Light wrapper for a callable that calls no wrapped function: each call
        inside an op is timed and its points counted under `name`, a child of
        the caller's span, without a span of its own."""
        stack = self.stack

        def wrapper(*args):
            if not stack:
                return fn(*args)
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, parent, leaf=True)
            node.count += 1
            node.total += dt
            node.items += getattr(args[0], "size", 1)
            parent.child += dt
            return result

        return wrapper

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure the cost of one wrapped call, for `metrics` to take off.

        A no-op is called bare and through each kind of wrapper inside a
        scratch span; the fastest of `repeats` loops counts. The part inside
        the wrapped call's recorded duration is what that duration exceeds
        the bare call by; the rest of the extra loop time lands in the
        caller's self time. The counter hooks of rarely called spans are
        not included.
        """

        def noop(*args):
            return None

        def loop(fn) -> float:
            t0 = perf_counter()
            for _ in range(calls):
                fn(0.5, 0.5)
            return perf_counter() - t0

        def empty() -> float:
            t0 = perf_counter()
            for _ in range(calls):
                pass
            return perf_counter() - t0

        scratch = Node("calibrate", None)
        self.stack.append(scratch)
        try:
            loop_s = min(empty() for _ in range(repeats))
            bare_s = min(loop(noop) for _ in range(repeats))
            for kind, wrapped in (("span", self.wrap("noop", noop)), ("leaf", self.leaf("noop", noop))):
                runs = []
                for _ in range(repeats):
                    scratch.children.clear()
                    runs.append((loop(wrapped), scratch.children["noop"].total))
                wrapped_s = min(t for t, _ in runs)
                recorded_s = min(r for _, r in runs)
                inner = max(0.0, recorded_s - (bare_s - loop_s)) / calls
                extra = max(0.0, wrapped_s - bare_s) / calls
                self.cost[kind] = (inner, max(0.0, extra - inner))
        finally:
            self.stack.pop()

    def op(self, name: str, fn):
        """Run fn as the root span of one benchmark op; returns its result.

        The op span belongs to the `bench` layer: its self time is the
        benchmark's own code between calls into the package.
        """
        self.stack.append(self.root)
        try:
            return self.wrap("bench." + name, fn)()
        finally:
            self.stack.pop()

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(module, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            after = _sup_counter(original) if attr == "boundary_sup" else _AFTER.get(attr)
            wrapped = self.wrap(span, original, after)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapped)
                continue
            # every steklov module attribute bound to the same function
            for mod in [m for n, m in sys.modules.items() if n == "steklov" or n.startswith("steklov.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- metrics -------------------------------------------------------------

    def missing_spans(self) -> set[str]:
        wrapped = {span for m, a, span in TARGETS if f"{m}.{a}" not in self.missing}
        return {span for m, a, span in TARGETS} - wrapped

    def metrics(self, passes: int, pass_s: float, untraced_pass_s: float) -> tuple[dict, list[str]]:
        """Per-pass metric values, and the names of metrics that are missing.

        Durations and self times are net of the calibrated wrapper cost.
        """
        nodes = list(self.root.walk())[1:]

        def cost(n: Node) -> tuple[float, float]:
            inner, outer = self.cost["leaf" if n.leaf else "span"]
            return n.count * inner, n.count * outer

        below: dict[int, float] = {}  # wrapper cost of all calls nested in a node

        def cost_below(n: Node) -> float:
            below[id(n)] = sum(sum(cost(c)) + cost_below(c) for c in n.children.values())
            return below[id(n)]

        wrapper_s = cost_below(self.root)

        def total(n: Node) -> float:
            return n.total - cost(n)[0] - below[id(n)]

        def self_time(n: Node) -> float:
            return n.self_time - cost(n)[0] - sum(cost(c)[1] for c in n.children.values())

        def outer(names) -> float:
            """Total time of spans in `names` not nested in another of them."""
            return sum(total(n) for n in nodes if n.name in names and not _has_ancestor(n, names))

        def calls(names) -> int:
            return sum(n.count for n in nodes if n.name in names)

        def self_of(layer) -> float:
            return sum(self_time(n) for n in nodes if n.name.split(".")[0] == layer)

        c = self.counters
        evals = ("solvers.eval_grid", "solvers.eval_array", "solvers.gradient_arrays")
        eval_s = outer(evals)
        coeff_modes = c.get("boundary.coeff_modes", 0.0)
        data_points = sum(n.items for n in nodes if n.name == "boundary.data")
        roots = c.get("spectrum.roots", 0.0)
        layer_self = {layer: self_of(layer) for layer in LAYERS + ("bench",)}
        values = {
            "spectrum.build_s": outer({"spectrum.build"}),
            "spectrum.find_roots_s": outer({"spectrum.find_roots"}),
            "spectrum.roots": roots,
            "spectrum.kept_per_root": c.get("spectrum.kept", 0.0) / roots if roots else 0.0,
            "spectrum.make_mode_s": outer({"spectrum.make_mode"}),
            "spectrum.modes": calls({"spectrum.make_mode"}),
            "spectrum.cache_save_s": outer({"spectrum.cache_save"}),
            "spectrum.cache_load_s": outer({"spectrum.cache_load"}),
            "spectrum.self_s": layer_self["spectrum"],
            "boundary.coeff_s": outer({"boundary.coeff"}),
            "boundary.coeff_calls": calls({"boundary.coeff"}),
            "boundary.coeff_modes": coeff_modes,
            "boundary.data_points": data_points,
            "boundary.data_points_per_mode": data_points / coeff_modes if coeff_modes else 0.0,
            "boundary.data_s": outer({"boundary.data"}),
            "boundary.integrate_s": sum(
                total(n) for n in nodes
                if n.name == "boundary.integrate"
                and not _has_ancestor(n, {"boundary.coeff", "boundary.integrate"})
            ),
            "boundary.quad_est_max": c.get("boundary.quad_est_max", 0.0),
            "boundary.partial_sum_s": outer({"boundary.partial_sum"}),
            "boundary.partial_sum_calls": calls({"boundary.partial_sum"}),
            "boundary.self_s": layer_self["boundary"],
            "solvers.solve_s": sum(self_time(n) for n in nodes if n.name == "solvers.solve"),
            "solvers.eval_s": eval_s,
            "solvers.mode_points": c.get("solvers.mode_points", 0.0),
            "solvers.mode_points_per_s": c.get("solvers.mode_points", 0.0) / eval_s if eval_s else 0.0,
            "solvers.scalar_eval_s": outer({"solvers.scalar_eval"}),
            "solvers.scalar_eval_calls": calls({"solvers.scalar_eval"}),
            "solvers.self_s": layer_self["solvers"],
            "analysis.boundary_sup_s": outer({"analysis.boundary_sup"}),
            "analysis.boundary_sup_calls": calls({"analysis.boundary_sup"}),
            "analysis.boundary_samples": c.get("analysis.boundary_samples", 0.0),
            "analysis.boundary_l2_s": outer({"analysis.boundary_l2"}),
            "analysis.interior_s": outer({"analysis.interior"}),
            "analysis.check_s": outer({"analysis.check"}),
            "analysis.self_s": layer_self["analysis"],
            "tables.reproduce_s": layer_self["tables"],
            "tables.coeff_sets": sum(
                n.count for n in nodes
                if n.name == "boundary.coeff" and _has_ancestor(n, {"tables.reproduce"})
            ),
            "cli.main_s": layer_self["cli"],
            "cli.rows_written": c.get("cli.rows_written", 0.0),
            "cli.bytes_written": c.get("cli.bytes_written", 0.0),
            "bench.self_s": layer_self["bench"],
        }
        # spans, counts and times above are totals over all traced passes
        per_pass = {
            k: (v if k in ("spectrum.kept_per_root", "boundary.data_points_per_mode",
                           "solvers.mode_points_per_s", "boundary.quad_est_max") else v / passes)
            for k, v in values.items()
        }
        attributed = sum(per_pass[k] for k in (
            "spectrum.self_s", "boundary.self_s", "solvers.self_s", "analysis.self_s",
            "tables.reproduce_s", "cli.main_s", "bench.self_s",
        ))
        per_pass["trace.pass_s"] = pass_s
        per_pass["trace.untraced_pass_s"] = untraced_pass_s
        per_pass["trace.overhead_s"] = pass_s - untraced_pass_s
        per_pass["trace.wrapper_s"] = wrapper_s / passes
        per_pass["trace.unattributed_s"] = pass_s - attributed - per_pass["trace.wrapper_s"]

        gone = self.missing_spans()
        missing = sorted(name for name, (_, spans) in METRICS.items() if spans and set(spans) <= gone)
        return per_pass, missing

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra, missing_targets=self.missing, counters=self.counters,
                       wrapper_cost_s=self.cost, spans=self.root.to_dict())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)


def _has_ancestor(node: Node, names) -> bool:
    p = node.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


# -- counters read from call arguments and results -----------------------------


def _points(x) -> int:
    return int(getattr(x, "size", 1))


def _after_build(tr, args, kwargs, spec):
    if tr.stack[-1].name != "spectrum.build":  # not the by-count call inside build_spectrum
        tr.add("spectrum.kept", len(spec.modes) - 1)


def _after_roots(tr, args, kwargs, roots):
    tr.add("spectrum.roots", len(roots))


def _after_coeff(tr, args, kwargs, co):
    tr.add("boundary.coeff_modes", len(co.spectrum.modes))
    worst = max(co.estimates, default=0.0)
    tr.counters["boundary.quad_est_max"] = max(tr.counters.get("boundary.quad_est_max", 0.0), worst)


def _modes(approx) -> int:
    return len(approx.weights)


def _after_grid(tr, args, kwargs, result):
    tr.add("solvers.mode_points", _modes(args[0]) * _points(result))


def _after_points(tr, args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    tr.add("solvers.mode_points", _modes(args[0]) * _points(first))


def _sup_counter(original):
    """Counts boundary_sup's samples from its arguments, defaults included."""
    signature = inspect.signature(original)

    def after(tr, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        per_side = bound.arguments.get("samples_per_side", 0)
        corners = bound.arguments.get("include_corners", True)
        tr.add("analysis.boundary_samples", 4 * (per_side + (1 if corners else 0)))

    return after


_AFTER = {
    "build_spectrum": _after_build,
    "build_spectrum_by_count": _after_build,
    "find_roots": _after_roots,
    "steklov_coefficients": _after_coeff,
    "SteklovApproximation.eval_grid": _after_grid,
    "SteklovApproximation.eval_array": _after_points,
    "SteklovApproximation.gradient_arrays": _after_points,
}


def count_data(g, tracer: Tracer):
    """The same boundary data with every side map timed and counted as a leaf."""
    from steklov.boundary import BoundaryFunction

    maps = {side: tracer.leaf("boundary.data", fn) for side, fn in g.side_maps.items()}
    return BoundaryFunction(g.rect, maps, g.name)
