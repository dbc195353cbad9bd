#!/usr/bin/env python3
"""Toy-size self-tests of the benchmark: the checkers reject broken outputs,
every metric name a listed workload prints is declared in BENCHMARK.json,
and the tracer survives a missing layer name.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import types
import unittest
from pathlib import Path

import run

run.import_alcfit()

import alcfit.cli  # noqa: E402
from alcfit.solver import NativeSession, SolverError  # noqa: E402
from checks import CheckFailed, check_fit, dimacs_shape, wrote_line  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def backend_available() -> bool:
    try:
        NativeSession().close()
    except SolverError:
        return False
    return True


def toy_run(name: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(name, TOY[name], seed=3, seconds=0,
                                  trace=trace, import_s=0.0, record={})
    return result, out.getvalue()


class Checkers(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        inst = TOY["encode-roles"].generate(seed=1)[0]
        inst.write(self.dir)
        self.cnf = self.dir / "toy.cnf"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = alcfit.cli.main(["encode", str(inst.manifest), "--max-size",
                                  "3", "--emit-dimacs", str(self.cnf)])
        self.shape = wrote_line(rc, out.getvalue(), self.cnf)
        self.text = self.cnf.read_bytes()
        self.sample = inst.sample

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_valid_dimacs_accepted(self):
        self.assertEqual(dimacs_shape(self.cnf), self.shape)

    def test_truncated_dimacs_rejected(self):
        for cut in (len(self.text) - 3, len(self.text) * 2 // 3):
            self.cnf.write_bytes(self.text[:cut])
            with self.assertRaises(CheckFailed):
                dimacs_shape(self.cnf)

    def test_wrong_header_count_rejected(self):
        v, c = self.shape
        for header in (f"p cnf {v} {c + 1}", f"p cnf {v} {c - 1}",
                       f"p cnf {v - 1} {c}"):
            self.cnf.write_bytes(self.text.replace(
                f"p cnf {v} {c}".encode(), header.encode()))
            with self.assertRaises(CheckFailed):
                dimacs_shape(self.cnf)

    def test_wrote_line_must_match(self):
        with self.assertRaises(CheckFailed):
            wrote_line(0, "wrote elsewhere.cnf: 1 vars, 1 clauses", self.cnf)
        with self.assertRaises(CheckFailed):
            wrote_line(65, "", self.cnf)

    def test_repeat_must_be_byte_identical(self):
        check = run.EncodeCheck(self.dir)
        line = "wrote {}: {} vars, {} clauses".format(self.cnf, *self.shape)
        check.op(0, line, self.cnf)
        self.cnf.write_bytes(self.text)
        check.op(0, line, self.cnf)
        self.cnf.write_bytes(self.text.replace(b"c 1 =", b"c 1  =", 1))
        with self.assertRaises(CheckFailed):
            check.op(0, line, self.cnf)
        self.assertIsNone(check.final())

    def test_fit_of_wrong_size_rejected(self):
        report = self.dir / "report.json"
        report.write_text(json.dumps(
            {"status": "fitted", "concept": "top", "size": 1}))
        with self.assertRaises(CheckFailed):
            check_fit(0, report, self.sample, minimum=2)
        report.write_text(json.dumps(
            {"status": "fitted", "concept": "bot", "size": 1}))
        with self.assertRaises(CheckFailed):  # rejects every positive
            check_fit(0, report, self.sample, minimum=1)


class Declared(unittest.TestCase):
    def test_per_layer_table_matches_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in SPEC["per_layer"]]
        self.assertEqual(declared, layer_metrics("encode"))

    def test_listed_workloads_are_encode_workloads(self):
        for w in SPEC["workloads"]:
            self.assertEqual(WORKLOADS[w["name"]].kind, "encode")

    def test_printed_metric_names_are_declared(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            for trace, declared in ((False, e2e), (True, layer)):
                result, text = toy_run(w["name"], trace)
                self.assertTrue(result["correct"], text)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, declared)
                for n, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), n)
                self.assertEqual(json.loads(json.dumps(result)), result)

    def test_fit_exact_without_backend_fails_every_op(self):
        if backend_available():
            self.skipTest("a SAT backend is loadable")
        result, _ = toy_run("fit-exact", trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIsNone(result["metrics"]["op_p50_s"]["value"])

    def test_fit_exact_with_backend_is_correct(self):
        if not backend_available():
            self.skipTest("no SAT backend")
        result, text = toy_run("fit-exact", trace=True)
        self.assertTrue(result["correct"], text)

    def test_fit_corpus_minima(self):
        wl = TOY["fit-exact"]
        minima = {i.stem: i.minimum
                  for i in wl.ground_truth(wl.generate(seed=5))}
        self.assertEqual(minima["fig1"], 4)
        self.assertEqual(minima["mostgeneral"], 1)


class Tracing(unittest.TestCase):
    def test_missing_name_is_reported_absent(self):
        cli = types.ModuleType("cli")
        cli.load_sample = lambda path: path
        fitter = types.ModuleType("fitter")
        cnf_class = type("Cnf", (), {"absorb": lambda self, other: self})
        tracer = Tracer()
        tracer.install(cli, fitter, cnf_class)
        tracer.begin_op()
        self.assertEqual(cli.load_sample("x"), "x")
        tracer.uninstall()
        self.assertIn("cli.encode_syntax", tracer.absent)
        self.assertIn("fitter.make_session", tracer.absent)
        self.assertEqual([s.name for s in tracer.spans], ["data.load_sample"])
        self.assertEqual(cli.load_sample.__name__, "<lambda>")


if __name__ == "__main__":
    sys.exit(not unittest.main(exit=False).result.wasSuccessful())
