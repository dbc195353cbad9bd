#!/usr/bin/env python3
"""alcfit benchmark: one closed-loop client, sequential ops, no threads.

    python3 perfbench/run.py --workload encode-roles --seed 1 --seconds 30
    python3 perfbench/run.py --workload encode-names --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 1      # each workload in its own
                                                 # process, one after another

Each op calls ``alcfit.cli.main([...])`` in this process on manifests the
benchmark generated from the seed, and has its output checked; a wrong
answer counts as a failed op.  Ops repeat until ``--seconds`` have passed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The traced run alternates untraced and traced ops; its layer numbers come
from spans recorded around the program's layer entry points (tracer.py),
and ``trace.overhead_s`` is the traced minus the untraced median op time.
Spans and the run record are written to perfbench/out/.

Workloads: encode-roles and encode-names (listed in BENCHMARK.json), and
fit-exact, which needs a loadable SAT backend and is therefore not listed
yet: without one every op fails with its reason and every op timing is
null.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# name, unit: printed with --trace 0
END_TO_END = (("op_p50_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
TAIL_BEYOND = 10   # samples a tail percentile must have beyond it


def import_alcfit() -> float:
    """Import alcfit from this checkout's src/ (never an installed copy);
    return the seconds the import took."""
    src = ROOT / "src"
    if not (src / "alcfit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no alcfit sources under {src}")
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import alcfit.cli  # noqa: F401
    return time.perf_counter() - start


def run_record() -> dict:
    from alcfit.solver import NativeSession, SolverError
    try:
        session = NativeSession()
        try:
            backend = session.signature()
        finally:
            session.close()
    except SolverError as exc:
        backend = f"unavailable: {exc}"
    revision = dirty = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"], check=True, capture_output=True,
                text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"revision": revision, "dirty": dirty,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "backend": backend}


@dataclass
class OpResult:
    traced: bool
    trace_op: int | None
    seconds: float
    error: str | None


class EncodeCheck:
    """Per-op check of an encode op; the first output is kept so that every
    later op on the same input can be compared byte for byte, and is fully
    parsed once at the end."""

    def __init__(self, workdir: Path):
        self.first: tuple | None = None
        self.first_path = workdir / "first.cnf"

    def op(self, rc: int, stdout: str, path: Path) -> None:
        from checks import CheckFailed, digest, wrote_line
        seen = (wrote_line(rc, stdout, path), digest(path))
        if self.first is None:
            self.first = seen
            path.replace(self.first_path)
            return
        path.unlink()
        if seen != self.first:
            raise CheckFailed("output differs from the first op's on the "
                              "same input")

    def final(self) -> str | None:
        from checks import CheckFailed, dimacs_shape
        if self.first is None:
            return None
        try:
            shape = dimacs_shape(self.first_path)
        except CheckFailed as exc:
            return str(exc)
        if shape != self.first[0]:
            return f"header p cnf {shape} disagrees with 'wrote' {self.first[0]}"
        return None


def run_ops(wl, instances, workdir: Path, seconds: float, trace: bool,
            tracer) -> list[OpResult]:
    import alcfit.cli as cli
    import alcfit.encoder as encoder
    import alcfit.fitter as fitter
    from checks import CheckFailed, check_fit

    encode_check = EncodeCheck(workdir)
    out_path = workdir / ("op.cnf" if wl.kind == "encode" else "report.json")
    results: list[OpResult] = []
    min_ops = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    # start an op only if a typical op still ends inside the window
    while (len(results) < min_ops or time.perf_counter() + statistics.median(
            r.seconds for r in results) <= deadline):
        inst = instances[len(results) % len(instances)]
        if wl.kind == "encode":
            argv = ["encode", str(inst.manifest), "--max-size",
                    str(wl.max_size), "--emit-dimacs", str(out_path)]
        else:
            argv = ["fit", str(inst.manifest), "--report", str(out_path)]
        out_path.unlink(missing_ok=True)
        traced = trace and len(results) % 2 == 1
        main = cli.main
        if traced:
            tracer.install(cli, fitter, encoder.Cnf)
            tracer.begin_op()
            main = tracer.wrap("cli.main", main)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        gc.collect()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # the client keeps going; op failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                if wl.kind == "encode":
                    encode_check.op(rc, stdout.getvalue(), out_path)
                else:
                    check_fit(rc, out_path, inst.sample, inst.minimum)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                error = (f"{type(exc).__name__}: {exc} "
                         f"{stderr.getvalue().strip()}").strip()
        results.append(OpResult(traced, tracer.op if traced else None,
                                elapsed, error))
    problem = encode_check.final()
    if problem is not None:
        for r in results:
            r.error = r.error or f"first output invalid: {problem}"
    return results


def median_or_none(values):
    return statistics.median(values) if values else None


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; (None, None) when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name: str, wl, seed: int, seconds: float, trace: bool,
                 import_s: float, record: dict) -> dict:
    """Set up, run and check one workload; print its report and return the
    result object (the last line printed)."""
    from tracer import Tracer, layer_metrics, summarize

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            instances = wl.generate(seed)
            for inst in instances:
                inst.write(workdir / f"setup{rep}")
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        if wl.kind == "fit":
            instances = wl.ground_truth(instances)
        tracer = Tracer()
        results = run_ops(wl, instances, workdir, seconds, trace, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if r.error]
    ok_plain = [r.seconds for r in results if not r.error and not r.traced]
    ok_traced = [r for r in results if not r.error and r.traced]
    p50 = median_or_none(ok_plain)
    tail_s, tail_pct = tail(ok_plain)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    e2e = {"op_p50_s": p50, "setup_s": setup_s, "peak_rss_mb": peak_mb}

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(instances)} instance(s)")
    for error, count in Counter(r.error for r in failed).most_common(3):
        print(f"failed ops ({count}): {error}")
    print(f"fail_share {len(failed) / len(results):.4f} "
          f"({len(failed)} of {len(results)} attempted)")
    for metric, unit in END_TO_END:
        value = e2e[metric]
        print(f"{metric} {'null' if value is None else f'{value:.6g}'} {unit}")
    print("op seconds: " + " ".join(
        f"{r.seconds:.3f}{'t' if r.traced else ''}" for r in results))
    if tail_s is None:
        print(f"op_tail_s null s ({len(ok_plain)} samples; a tail percentile "
              f"needs more than {TAIL_BEYOND})")
    else:
        print(f"op_tail_s {tail_s:.6g} s (p{tail_pct:.1f}, "
              f"{len(ok_plain)} samples)")

    if trace:
        overhead = None
        traced_p50 = median_or_none([r.seconds for r in ok_traced])
        if traced_p50 is not None and p50 is not None:
            overhead = traced_p50 - p50
        layers = summarize(tracer.spans, [r.trace_op for r in ok_traced],
                           wl.kind, overhead)
        if tracer.absent:
            print("absent (not traced): " + " ".join(tracer.absent))
        spans_path = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans_path, record)
        print(f"spans: {len(tracer.spans)} in {spans_path}")
        units = {n: u for n, u, _ in layer_metrics(wl.kind)}
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layers.items()}
        for m, v in layers.items():
            print(f"{m} {'null' if v is None else f'{v:.6g}'} {units[m]}")
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}
    correct = not failed
    print(f"correct: {str(correct).lower()}")
    return {"correct": correct, "attempted": len(results),
            "failed": len(failed), "metrics": metrics}


def run_all(args) -> int:
    """Every workload listed in BENCHMARK.json, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {}
    status = 0
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", wl["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[wl["name"]] = json.loads(lines[-1])
    print(json.dumps({"correct": status == 0 and all(
        r["correct"] for r in summary.values()), "workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="encode-roles, encode-names or "
                       "fit-exact")
    which.add_argument("--all", action="store_true",
                       help="every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_alcfit()
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        args.seconds = spec["run_seconds"]
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    record = run_record()
    print("run " + json.dumps(record))
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), import_s, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
