"""Span tracing of dusec from outside, by rebinding its public functions.

``Tracer.install`` wraps every public dusec function and rebinds the
wrapper at each dusec module that binds the original, so calls between
modules (``cli`` -> ``flow_assign``, ``assign_loads`` -> ``oracle.flow_assign``)
are followed without editing the package.  A span records its name, start,
end, parent, operation id and the size parameters (N, K, r, L) read from
its arguments.  Spans stay in memory until the run writes them out.

Counts that are computed from sizes and outputs (not measured) are taken
from the return values after each operation, outside every timed span.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import dusec
import dusec.cli

# Called once per share or per mask inside the solver loops: a span per
# call would cost more than the work itself and flood memory.
UNTRACED = frozenset({"as_fraction", "mask_of", "workers_of", "iter_class_masks", "iter_submasks"})

NAME, START, END, PARENT, OP, SIZES, RESULT = range(7)


def _argv_workers(argv) -> int | None:
    if argv and "--speeds" in argv:
        return len(argv[argv.index("--speeds") + 1].split(","))
    return None


def sizes_of(arguments: dict) -> dict:
    """N, K, r and message length L read from a call's bound arguments."""
    sizes: dict = {}
    for name, value in arguments.items():
        if isinstance(value, dusec.ProblemInstance):
            sizes.update(N=value.N, K=value.K)
        elif isinstance(value, dusec.ClassProfile):
            sizes.setdefault("N", value.n_workers)
        elif isinstance(value, dusec.LoadAssignment):
            sizes.update(N=value.n_workers, r=value.redundancy)
        elif isinstance(value, dusec.StragglerConfig):
            sizes["r"] = value.redundancy
        elif isinstance(value, dusec.ExplicitStorage):
            sizes.update(N=value.n_workers, K=value.K)
        elif name == "redundancy":
            sizes["r"] = value
        elif name == "messages" and value:
            sizes["L"] = len(next(iter(value.values())))
        elif name in ("n_total", "n_workers", "N") and isinstance(value, int):
            sizes["N"] = value
        elif name == "K" and isinstance(value, int):
            sizes["K"] = value
        elif name == "obj" and isinstance(value, dict) and "perVm" in value:
            sizes.update(N=value.get("N"), K=value.get("K"))
        elif name == "argv":
            n = _argv_workers(value)
            if n is not None:
                sizes["N"] = n
        elif name == "timeline":
            sizes["K"] = value.K
    if "received" in arguments and arguments["received"] and "config" in arguments:
        sizes["L"] = len(arguments["received"][0].coded_vector) * arguments["config"].m
    return sizes


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op_id = None
        self._restore: list = []
        self._uncounted = 0

    # -- recording -----------------------------------------------------
    def _open(self, name: str, sizes: dict) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id, sizes, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            rec = self._open(name, sizes_of(bound.arguments))
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()
            rec[RESULT] = (result, bound.arguments)
            return result

        return traced

    @contextmanager
    def span(self, name: str, op_id, sizes: dict | None = None):
        """A benchmark-level root span (one operation, or the set-up)."""
        self.op_id = op_id
        rec = self._open(name, sizes or {})
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()
            self.op_id = None

    @contextmanager
    def paused(self):
        """Calls made inside (verification, payload building) are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installing ----------------------------------------------------
    def targets(self):
        """(span name, original function) for every traced public function."""
        out = []
        for name in dusec.__all__:
            obj = getattr(dusec, name)
            if inspect.isfunction(obj) and name not in UNTRACED:
                out.append((f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}", obj))
        out.append(("cli.run", dusec.cli.run))
        return out

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dusec" or key.startswith("dusec."))]
        for span_name, fn in self.targets():
            wrapper = self._wrap(span_name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, fn))
        cls = dusec.ExplicitStorage
        original = cls.__dict__["from_json_obj"]
        cls.from_json_obj = classmethod(self._wrap("storage.from_json_obj", original.__func__))
        self._restore.append((cls, "from_json_obj", original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- counts --------------------------------------------------------
    def finish_op(self) -> None:
        """Turn the held return values of the spans recorded since the last
        call into computed counts, and drop the references."""
        with self.paused():
            for rec in self.spans[self._uncounted:]:
                if rec[RESULT] is not None:
                    result, arguments = rec[RESULT]
                    rec[RESULT] = computed_counts(rec[NAME], result, arguments, rec[SIZES])
        self._uncounted = len(self.spans)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def computed_counts(name: str, result, arguments: dict, sizes: dict) -> dict | None:
    """Counts derived from a call's sizes and output; none are measured."""
    if name == "optimizer.assign_loads":
        assignment, time_result = result
        times = time_result.per_worker_time
        groups = 1 + sum(1 for a, b in zip(times, times[1:]) if a != b)
        return {"merges": len(times) - groups, "shares": len(assignment.shares),
                "max_den_bits": _den_bits(assignment.shares.values())}
    if name in ("oracle.flow_assign", "oracle.lp_oracle"):
        return {"subsets_enumerated": (1 << sizes["N"]) - 1}
    if name == "storage.exact_profile":
        return {"classes_nonzero": sum(1 for a in result.class_sizes if a)}
    if name == "storage.generate_decentralized":
        return {"datasets_sampled": arguments["N"] * arguments["M"]}
    if name == "storage.generate_worker_subset":
        return {"datasets_sampled": arguments["M"]}
    if name == "straggler.redundant_assign":
        return {"excluded_classes": len(result.excluded_classes)}
    if name == "straggler.encode":
        return {"mac_ops": sum(len(t.encoding_row) * len(t.coded_vector) for t in result)}
    if name == "straggler.decode":
        received = arguments["received"]
        part_len = len(received[0].coded_vector) if received else 0
        return {"mac_ops": len(received) * arguments["config"].m * part_len}
    if name == "simulator.run_timeline":
        return {"steps": len(result)}
    return None


# Per-layer metrics reported by the traced run: (name, unit).  Keep in step
# with "per_layer" in BENCHMARK.json.
SELF_MS = (
    "optimizer.assign_loads", "optimizer.optimal_time", "oracle.flow_assign",
    "oracle.lp_oracle", "storage.from_json_obj", "storage.exact_profile",
    "storage.generate_decentralized", "storage.generate_worker_subset",
    "storage.profile_from_alpha", "straggler.redundant_assign",
    "straggler.part_schedule", "straggler.encode", "straggler.decode",
    "simulator.run_timeline", "simulator.baseline_assign", "cli.run",
)
CALLS = ("optimizer.assign_loads", "optimizer.optimal_time", "oracle.flow_assign", "oracle.lp_oracle")
P50_BY_N = (
    ("optimizer.assign_loads", range(6, 10)),
    ("oracle.flow_assign", range(8, 13)),
    ("straggler.encode", range(5, 10)),
)
COUNTS = (
    ("optimizer.merges", "optimizer.assign_loads", "merges", sum),
    ("optimizer.shares", "optimizer.assign_loads", "shares", sum),
    ("optimizer.max_den_bits", "optimizer.assign_loads", "max_den_bits", max),
    ("oracle.subsets_enumerated", None, "subsets_enumerated", sum),
    ("storage.classes_nonzero", "storage.exact_profile", "classes_nonzero", sum),
    ("storage.datasets_sampled", None, "datasets_sampled", sum),
    ("straggler.excluded_classes", "straggler.redundant_assign", "excluded_classes", sum),
    ("straggler.encode.mac_ops", "straggler.encode", "mac_ops", sum),
    ("straggler.decode.mac_ops", "straggler.decode", "mac_ops", sum),
    ("simulator.steps", "simulator.run_timeline", "steps", sum),
)


def metric_units() -> dict[str, str]:
    units = {f"{f}.self_ms": "ms/op" for f in SELF_MS}
    units.update({f"{f}.calls": "count" for f in CALLS})
    for f, ns in P50_BY_N:
        units.update({f"{f}.p50_ms.N{n}": "ms" for n in ns})
    units.update({name: "bits" if name.endswith("bits") else "count" for name, *_ in COUNTS})
    units.update({
        "optimizer.flow_fallbacks": "count",
        "optimizer.fallback_ratio": "ratio",
        "cli.output_bytes": "bytes",
        "trace.overhead_frac": "ratio",
    })
    return units


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def layer_metrics(spans: list[list], n_ops: int, first_pass: set) -> dict[str, float]:
    """Per-layer metrics.  Self times are per traced operation (set-up
    included); calls and computed counts cover the op ids in ``first_pass``."""
    selfs = self_times(spans)
    self_total = defaultdict(float)
    durations = defaultdict(list)
    calls = defaultdict(int)
    counts = defaultdict(list)
    fallbacks = 0
    for rec, own in zip(spans, selfs):
        name = rec[NAME]
        self_total[name] += own
        if rec[OP] is not None and rec[OP] != "setup":
            durations[(name, rec[SIZES].get("N"))].append(rec[END] - rec[START])
        if rec[OP] not in first_pass:
            continue
        calls[name] += 1
        if isinstance(rec[RESULT], dict):
            for key, value in rec[RESULT].items():
                counts[(name, key)].append(value)
                counts[(None, key)].append(value)
        if name == "oracle.flow_assign" and rec[PARENT] >= 0 \
                and spans[rec[PARENT]][NAME] == "optimizer.assign_loads":
            fallbacks += 1
    out = {f"{f}.self_ms": 1e3 * self_total[f] / n_ops for f in SELF_MS}
    out.update({f"{f}.calls": calls[f] for f in CALLS})
    for f, ns in P50_BY_N:
        for n in ns:
            samples = durations.get((f, n))
            out[f"{f}.p50_ms.N{n}"] = 1e3 * statistics.median(samples) if samples else 0.0
    for metric, fn_name, key, combine in COUNTS:
        values = counts.get((fn_name, key))
        out[metric] = combine(values) if values else 0
    out["optimizer.flow_fallbacks"] = fallbacks
    assigns = calls["optimizer.assign_loads"]
    out["optimizer.fallback_ratio"] = fallbacks / assigns if assigns else 0.0
    return out


def op_consistency(spans: list[list]) -> list[str]:
    """Operations whose children's self times add up to more than the operation span."""
    selfs = self_times(spans)
    below = defaultdict(float)
    roots = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] < 0:
            roots[i] = rec
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            root = i
            while spans[root][PARENT] >= 0:
                root = spans[root][PARENT]
            below[root] += selfs[i]
    return [f"op {rec[OP]}: children self {below[i]:.6f}s > span {rec[END] - rec[START]:.6f}s"
            for i, rec in roots.items() if below[i] > rec[END] - rec[START] + 1e-9]
