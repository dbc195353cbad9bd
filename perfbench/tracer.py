"""Layer spans recorded from outside the program, and the per-layer metrics
derived from them.

``Tracer.install`` rebinds the names each layer's callers look up -- module
globals of ``alcfit.cli`` and ``alcfit.fitter``, and ``Cnf.absorb`` -- to
wrappers that record a span per call: name, start, end, parent span, op id
and size bound k.  Solver sessions are wrapped in a proxy that times
``add_cnf`` and ``solve``.  Spans stay in memory and are written out when
the run ends.  A name that a later refactor removes is listed in
``Tracer.absent`` instead of failing.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# caller-side name -> span name, per calling module
CLI_NAMES = {
    "load_sample": "data.load_sample",
    "compute_types": "data.compute_types",
    "encode_syntax": "encoder.syntax",
    "encode_semantics_typed": "encoder.semantics",
    "encode_semantics_base": "encoder.semantics",
    "encode_templates": "encoder.templates",
    "encode_fitting": "encoder.fitting",
    "export_dimacs": "solver.export",
    "bounded_fit": "fitter.bounded_fit",
}
FITTER_NAMES = {
    "compute_types": "data.compute_types",
    "encode_syntax": "encoder.syntax",
    "encode_semantics_typed": "encoder.semantics",
    "encode_semantics_base": "encoder.semantics",
    "encode_templates": "encoder.templates",
    "encode_fitting": "encoder.fitting",
    "encode_coverage_at_least": "encoder.coverage",
    "make_session": "solver.make_session",
    "decode_model": "encoder.decode",
    "verify": "fitter.verify",
}

# span name -> metric that sums the span's self time
SELF_TIME = {
    "cli.main": "cli.self_s",
    "data.load_sample": "data.load_sample_s",
    "data.compute_types": "data.compute_types_s",
    "encoder.syntax": "encoder.syntax_s",
    "encoder.semantics": "encoder.semantics_s",
    "encoder.templates": "encoder.templates_s",
    "encoder.fitting": "encoder.fitting_s",
    "encoder.absorb": "encoder.absorb_s",
    "encoder.decode": "encoder.decode_s",
    "solver.export": "solver.export_s",
    "solver.add_cnf": "solver.add_cnf_s",
    "solver.solve": "solver.solve_s",
    "fitter.bounded_fit": "fitter.self_s",
    "fitter.verify": "fitter.verify_s",
}

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workloads where it should move it, kinds of workload that measure it).
LAYER_METRICS = (
    ("data.load_sample_s", "s", "lower", "op_p50_s", "encode-names",
     "encode fit"),
    ("data.compute_types_s", "s", "lower", "op_p50_s", "encode-names",
     "encode fit"),
    ("encoder.syntax_s", "s", "lower", "op_p50_s", "encode-names",
     "encode fit"),
    ("encoder.syntax_clauses", "count", "lower", "op_p50_s", "encode-names",
     "encode fit"),
    ("encoder.semantics_s", "s", "lower", "op_p50_s",
     "encode-roles encode-names", "encode fit"),
    ("encoder.semantics_clauses", "count", "lower", "op_p50_s",
     "encode-roles encode-names", "encode fit"),
    ("encoder.semantics_names_clauses", "count", "lower", "op_p50_s",
     "encode-names", "encode fit"),
    ("encoder.semantics_clauses_per_s", "1/s", "higher", "op_p50_s",
     "encode-roles encode-names", "encode fit"),
    ("encoder.templates_s", "s", "lower", "op_p50_s",
     "encode-roles encode-names fit-exact", "encode fit"),
    ("encoder.template_clauses", "count", "lower", "op_p50_s",
     "encode-roles encode-names fit-exact", "encode fit"),
    ("encoder.fitting_s", "s", "lower", "op_p50_s", "fit-exact",
     "encode fit"),
    ("encoder.absorb_s", "s", "lower", "op_p50_s",
     "encode-roles encode-names", "encode"),
    ("encoder.vars", "count", "lower", "peak_rss_mb",
     "encode-roles encode-names", "encode fit"),
    ("encoder.decode_s", "s", "lower", "op_p50_s", "fit-exact", "fit"),
    ("solver.export_s", "s", "lower", "op_p50_s",
     "encode-roles encode-names", "encode"),
    ("solver.export_mb", "MB", "lower", "peak_rss_mb",
     "encode-roles encode-names", "encode"),
    ("solver.add_cnf_s", "s", "lower", "op_p50_s", "fit-exact", "fit"),
    ("solver.solve_s", "s", "lower", "op_p50_s", "fit-exact", "fit"),
    ("solver.solve_calls", "count", "lower", "op_p50_s", "fit-exact", "fit"),
    ("solver.sat_calls", "count", "lower", "op_p50_s", "fit-exact", "fit"),
    ("solver.unsat_calls", "count", "lower", "op_p50_s", "fit-exact", "fit"),
    ("solver.unknown_calls", "count", "lower", "op_p50_s", "fit-exact",
     "fit"),
    ("fitter.k_reached", "count", "lower", "op_p50_s", "fit-exact", "fit"),
    ("fitter.verify_s", "s", "lower", "op_p50_s", "fit-exact", "fit"),
    ("fitter.self_s", "s", "lower", "op_p50_s", "fit-exact", "fit"),
    ("fitter.encode_share", "ratio", "lower", "op_p50_s", "fit-exact",
     "fit"),
    ("cli.self_s", "s", "lower", "op_p50_s", "encode-roles encode-names",
     "encode fit"),
    ("trace.overhead_s", "s", "lower", "op_p50_s",
     "encode-roles encode-names fit-exact", "encode fit"),
)


def layer_metrics(kind: str) -> list[tuple[str, str, str]]:
    """(name, unit, better) of the per-layer metrics a workload kind reports."""
    return [(name, unit, better)
            for name, unit, better, _, _, kinds in LAYER_METRICS
            if kind in kinds.split()]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "k", "info")

    def __init__(self, name, start, parent, op, k):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.k = k
        self.info = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "k": self.k,
                "info": self.info}


# spans whose function returns a fresh Cnf (encode_syntax: (Cnf, VarMap))
_RETURNS_CNF = {"encoder.syntax", "encoder.semantics", "encoder.templates",
                "encoder.fitting", "encoder.coverage"}


def _cnf_info(result) -> dict:
    cnf = result[0] if isinstance(result, tuple) else result
    return {"groups": dict(cnf.groups), "vars": cnf.num_vars}


class _SessionProxy:
    """A solver session whose add_cnf and solve calls are spans."""

    def __init__(self, tracer: "Tracer", session):
        self._session = session
        self.add_cnf = tracer.wrap("solver.add_cnf", session.add_cnf)
        self.solve = tracer.wrap(
            "solver.solve", session.solve,
            lambda out: {"status": out.status, "conflicts": out.conflicts})

    def __getattr__(self, name):
        return getattr(self._session, name)

    def __enter__(self):
        self._session.__enter__()
        return self

    def __exit__(self, *exc):
        return self._session.__exit__(*exc)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self.k = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.op += 1
        self.k = None

    def wrap(self, name: str, fn, info=None):
        """fn, recording a span per call; info(result) annotates the span."""
        tracer = self
        sets_k = name.startswith("encoder.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sets_k and args and type(args[0]) is int:
                tracer.k = args[0]
            stack = tracer._stack
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None, tracer.op, tracer.k)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result)
            if name == "solver.make_session":
                result = _SessionProxy(tracer, result)
            return result
        return traced

    def install(self, cli, fitter, cnf_class) -> None:
        """Wrap the layer entry points as the cli and fitter modules bind
        them, and Cnf.absorb; undo with uninstall."""
        self.absent = []
        targets = [(cli, attr, span) for attr, span in CLI_NAMES.items()]
        targets += [(fitter, attr, span)
                    for attr, span in FITTER_NAMES.items()]
        targets.append((cnf_class, "absorb", "encoder.absorb"))
        for owner, attr, span in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            info = None
            if span in _RETURNS_CNF:
                info = _cnf_info
            elif span == "solver.export":
                info = lambda text: {"chars": len(text)}  # noqa: E731
            setattr(owner, attr, self.wrap(span, fn, info))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path, record: dict) -> None:
        """The run record, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": record, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def per_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Layer metrics of each op, from its spans: self times (duration minus
    the part covered by child spans), clause counts per group of the
    returned Cnf objects, solver call outcomes."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    groups: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    top_k: dict[int, tuple] = {}
    for idx, span in enumerate(spans):
        m = ops[span.op]
        own = span.end - span.start - covered[idx]
        metric = SELF_TIME.get(span.name)
        if metric is not None:
            m[metric] += own
        if span.name.startswith("encoder."):
            m["encoder.total_self_s"] += own
        if span.name == "fitter.bounded_fit":
            m["fitter.total_s"] += span.end - span.start
        info = span.info or {}
        for group, n in info.get("groups", {}).items():
            groups[span.op][group] += n
        if "vars" in info and span.k is not None:
            # variables of the largest size bound encoded in the op
            key = (span.k, info["vars"])
            top_k[span.op] = max(top_k.get(span.op, key), key)
        if "chars" in info:
            m["solver.export_mb"] += info["chars"] / 1e6
        if span.name == "solver.solve":
            m["solver.solve_calls"] += 1
            m[f"solver.{info['status']}_calls"] += 1
    for op, m in ops.items():
        g = groups[op]
        m["encoder.syntax_clauses"] = g.get("syntax", 0)
        m["encoder.semantics_clauses"] = sum(
            n for tag, n in g.items()
            if tag == "semantics" or tag.startswith("semantics."))
        m["encoder.semantics_names_clauses"] = g.get("semantics.names", 0)
        m["encoder.template_clauses"] = g.get("template", 0)
        k, nvars = top_k.get(op, (0, 0))
        m["encoder.vars"] = nvars
        m["fitter.k_reached"] = k
        for calls in ("solve", "sat", "unsat", "unknown"):
            m.setdefault(f"solver.{calls}_calls", 0)
        if m.get("encoder.semantics_s"):
            m["encoder.semantics_clauses_per_s"] = (
                m["encoder.semantics_clauses"] / m["encoder.semantics_s"])
        if m.get("fitter.total_s"):
            m["fitter.encode_share"] = (m["encoder.total_self_s"]
                                        / m["fitter.total_s"])
    return ops


def summarize(spans: list[Span], ops: list[int], kind: str,
              overhead: float | None) -> dict[str, float | None]:
    """Median over the given ops of each per-layer metric the kind reports;
    None where no op measured it."""
    table = per_op(spans)
    out: dict[str, float | None] = {}
    for name, _, _ in layer_metrics(kind):
        if name == "trace.overhead_s":
            out[name] = overhead
            continue
        values = [table[op][name] for op in ops if name in table[op]]
        out[name] = statistics.median(values) if values else None
    return out
