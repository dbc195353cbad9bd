from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.util
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
from array import array
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alcfit
import alcfit.cli
import alcfit.fitter
from alcfit.benchgen import gen_random, gen_type_grid
from alcfit.cli import main
from alcfit.data import Sample, load_sample, save_sample
from alcfit.encoder import Cnf, EncodingError, _add_rows

SCRIPTS = Path(__file__).parent.parent / "scripts"
DIMACS_SOLVER = f"{sys.executable} {SCRIPTS / 'dimacs_solve.py'}"
# the command line, in a process of its own, over the sources under test
ALCFIT = [sys.executable, "-c",
          "import sys; from alcfit.cli import main; sys.exit(main())"]
ALCFIT_ENV = {**os.environ,
              "PYTHONPATH": str(Path(alcfit.cli.__file__).parents[1])}


@pytest.fixture
def contra_manifest(tmp_path):
    (tmp_path / "contra.facts").write_text("element e1\nelement e2\n",
                                           encoding="utf-8")
    manifest = tmp_path / "contra.manifest"
    manifest.write_text("facts = contra.facts\npositive = e1\nnegative = e2\n",
                        encoding="utf-8")
    return manifest


def test_fit_running_example(fig1_manifest, capsys):
    assert main(["fit", str(fig1_manifest)]) == 0
    out = capsys.readouterr().out
    assert "status: fitted" in out
    assert "size: 4" in out
    assert "coverage: 3/3" in out
    assert re.search(r"k=1 unsat vars=\d+ clauses=\d+ time=\S+ "
                     r"conflicts=\d+\n", out)
    assert re.search(r"k=4 sat", out)


def test_fit_no_fit_within_bound(fig1_manifest, capsys):
    code = main(["fit", str(fig1_manifest), "--ops", "exists,and",
                 "--max-size", "10"])
    assert code == 20
    out = capsys.readouterr().out
    assert "status: no_fit_within_bound" in out
    assert "concept:" not in out


def test_fit_names_bisimilar_examples(contra_manifest, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["fit", str(contra_manifest), "--report", str(report)])
    assert code == 20
    out = capsys.readouterr().out
    assert out.startswith("status: no_fit_within_bound\n"
                          "reason: positive e1 and negative e2 are "
                          "bisimilar; no concept separates them\n")
    assert "coverage" not in out  # no concept, so nothing is covered
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["reason"].startswith("positive e1 and negative e2")
    assert payload["coverage"] is None
    assert (payload["elements"], payload["classes"]) == (2, 1)
    assert payload["per_k"] == []


def test_fit_approx_on_contradiction(contra_manifest, capsys):
    code = main(["fit", str(contra_manifest), "--mode", "approx",
                 "--max-size", "3"])
    assert code == 10
    out = capsys.readouterr().out
    assert "status: approximate" in out
    assert "coverage: 1/2" in out
    assert "best-coverage=1" in out


def test_fit_timeout(tmp_path, capsys):
    assert main(["gen", "hitting-set", "--sets", "1;2;3,4,5", "--k", "3",
                 "--out", str(tmp_path)]) == 0
    manifest = tmp_path / "hitting_set.manifest"
    code = main(["fit", str(manifest), "--timeout", "0.0001"])
    assert code == 30
    assert "status: timed_out" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["native", f"dimacs:{DIMACS_SOLVER}"],
                         ids=["native", "dimacs"])
def test_fit_reads_a_timeout_too_long_to_wait_as_no_limit(tmp_path, backend):
    # past what the solver's clock (1e19 s) or subprocess (3e6 s) can hold,
    # a timeout is no limit; one process per fit, as an abort would end ours
    manifest = save_sample(gen_random(20, 2, 1, 0.1, 3, 3, seed=1), tmp_path,
                           "random")

    def fit(*timeout):
        proc = subprocess.run([*ALCFIT, "fit", str(manifest), "--backend",
                               backend, *timeout], capture_output=True,
                              text=True, timeout=300, env=ALCFIT_ENV)
        return (proc.returncode, proc.stderr,
                re.findall(r"^(?:status|size): .*$", proc.stdout, re.M))

    expected = fit()
    assert expected == (0, "", ["status: fitted", "size: 4"])
    for timeout in ("3e6", "1e19", "inf"):
        assert fit("--timeout", timeout) == expected


def test_fit_report_sidecar(fig1_manifest, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["fit", str(fig1_manifest), "--report", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["status"] == "fitted"
    assert payload["size"] == 4
    assert payload["coverage"] == 3
    assert isinstance(payload["concept"], str)
    assert (payload["elements"], payload["classes"]) == (7, 6)
    assert payload["names"] == 2  # A and B differ on the classes
    assert payload["reason"] is None
    assert len(payload["per_k"]) == 4
    assert {"k", "num_vars", "num_clauses", "status", "time", "best_m",
            "conflicts"} <= set(payload["per_k"][0])
    # the native backend counts the conflicts of every solve
    assert all(type(row["conflicts"]) is int and row["conflicts"] >= 0
               for row in payload["per_k"])


def test_fit_encoding_toggles(fig1_manifest, capsys):
    code = main(["fit", str(fig1_manifest), "--no-typed", "--no-templates"])
    assert code == 0
    assert "size: 4" in capsys.readouterr().out


def test_fit_subprocess_backend(fig1_manifest, capsys):
    code = main(["fit", str(fig1_manifest), "--max-size", "5",
                 "--backend", f"dimacs:{DIMACS_SOLVER}"])
    assert code == 0
    assert "size: 4" in capsys.readouterr().out


def test_cross_validation(tmp_path, capsys):
    assert main(["gen", "random", "--out", str(tmp_path), "--elements", "8",
                 "--pos", "2", "--neg", "2", "--seed", "5"]) == 0
    manifest = tmp_path / "random.manifest"
    capsys.readouterr()
    assert main(["fit", str(manifest), "--folds", "2", "--max-size", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("fold ") == 2
    assert "folds: 2" in out
    match = re.search(r"accuracy: (\d\.\d{3})", out)
    assert match and 0.0 <= float(match.group(1)) <= 1.0


def test_cross_validation_guards(fig1_manifest, capsys):
    assert main(["fit", str(fig1_manifest), "--folds", "1"]) == 65
    assert main(["fit", str(fig1_manifest), "--folds", "5"]) == 65


def test_usage_errors(fig1_manifest):
    for argv in ([], ["frobnicate"], ["fit"],
                 ["fit", str(fig1_manifest), "--bogus"],
                 ["fit", str(fig1_manifest), "--ops", "maybe"],
                 ["fit", str(fig1_manifest), "--mode", "fast"],
                 # --folds writes no report
                 ["fit", str(fig1_manifest), "--folds", "2", "--report",
                  "r.json"],
                 # encode takes no solve flags
                 ["encode", str(fig1_manifest), "--timeout", "1"],
                 ["encode", str(fig1_manifest), "--mode", "approx"],
                 ["encode", str(fig1_manifest), "--seed", "1"],
                 ["encode", str(fig1_manifest), "--backend", "native"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


def test_solver_errors(fig1_manifest, capsys):
    # a backend that is unknown, cannot be run, fails, answers SAT without
    # a model or with a `v` line that is not integers: one error line and
    # sysexits EX_UNAVAILABLE, not a traceback or a timeout
    crash = f"{sys.executable} -c 'import sys; sys.exit(3)'"
    bare = f"{sys.executable} -c 'import sys; sys.exit(10)'"
    garbled = (f"{sys.executable} -c "
               "'print(\"s SATISFIABLE\"); print(\"v 1 x 0\")'")
    for backend, message in (("bogus", "unknown backend 'bogus'"),
                             ("dimacs:no-such-binary",
                              "cannot run 'no-such-binary'"),
                             (f"dimacs:{crash}", "exited with code 3"),
                             (f"dimacs:{bare}", "answered SAT but gave no "
                                                "model"),
                             (f"dimacs:{garbled}", "gave a bad `v` line: "
                                                   "'v 1 x 0'")):
        capsys.readouterr()
        assert main(["fit", str(fig1_manifest),
                     "--backend", backend]) == 69, backend
        err = capsys.readouterr().err
        assert err.startswith("alcfit: error: ") and message in err
        assert err.count("\n") == 1


def test_backend_is_checked_before_the_input(contra_manifest, tmp_path,
                                             capsys):
    # an exact run on bisimilar examples opens no session, and a missing
    # file fails on reading: the backend's form is checked before either
    gone = tmp_path / "gone.manifest"
    for manifest in (contra_manifest, gone):
        for backend, message in (("bogus", "unknown backend 'bogus'"),
                                 ("dimacs:", "empty DIMACS backend command"),
                                 ("dimacs:  ", "empty DIMACS backend "
                                               "command")):
            capsys.readouterr()
            assert main(["fit", str(manifest),
                         "--backend", backend]) == 69, (manifest, backend)
            err = capsys.readouterr().err
            assert err.startswith("alcfit: error: ") and message in err
            assert err.count("\n") == 1
    # a well-formed backend lets the run reach its input
    assert main(["fit", str(contra_manifest), "--backend",
                 "dimacs:no-such-binary"]) == 20
    assert main(["fit", str(gone), "--backend", "dimacs:no-such-binary"]) == 65


def test_arguments_are_checked_before_the_input(tmp_path, capsys):
    # a bad argument is reported even when the fact file is missing
    manifest = tmp_path / "gone.manifest"
    manifest.write_text("facts = gone.facts\npositive = e\n",
                        encoding="utf-8")
    for argv, message in (
            (["encode", "--max-size", "0"], "--max-size must be at least 1"),
            (["fit", "--max-size", "0"], "k_max must be at least 1"),
            (["fit", "--folds", "1"], "--folds needs at least 2"),
            (["fit", "--timeout", "-1"], "budget must be at least 0"),
            (["fit", "--timeout", "nan"], "budget must be at least 0"),
            (["verify", "A and"], "unexpected end of input")):
        capsys.readouterr()
        assert main([argv[0], str(manifest), *argv[1:]]) == 65, argv
        err = capsys.readouterr().err
        assert err.startswith("alcfit: error: ") and message in err, err
        assert err.count("\n") == 1
    # the arguments being fine, the missing file is what fails
    assert main(["fit", str(manifest), "--timeout", "0"]) == 65
    assert "gone.facts" in capsys.readouterr().err


def test_input_that_is_not_utf8_names_its_file(tmp_path, capsys):
    facts = tmp_path / "latin.facts"
    # past the first batch, so the decode fails partway through the file
    facts.write_bytes(b"element e\n" * 20_000 + b"A(caf\xe9)\n")
    manifest = tmp_path / "latin.manifest"
    manifest.write_text("facts = latin.facts\npositive = e\n",
                        encoding="utf-8")
    assert main(["encode", str(manifest), "--stats"]) == 65
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"cannot read fact file {facts}: not UTF-8" in err
    manifest.write_bytes(b"facts = latin.facts\npositive = \xff\n")
    assert main(["encode", str(manifest), "--stats"]) == 65
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"cannot read manifest {manifest}: not UTF-8" in err


def test_input_may_start_with_a_byte_order_mark(tmp_path, capsys):
    bom = "\ufeff"
    facts = tmp_path / "bom.facts"
    manifest = tmp_path / "bom.manifest"
    for facts_bom, manifest_bom in ((bom, ""), ("", bom), (bom, bom)):
        facts.write_text(facts_bom + "element a\nA(b)\n", encoding="utf-8")
        manifest.write_text(manifest_bom + "facts = bom.facts\npositive = b\n"
                            "negative = a\n", encoding="utf-8")
        assert main(["verify", str(manifest), "A"]) == 0
        assert "fits: true" in capsys.readouterr().out
    # anywhere else, U+FEFF is a character of the line it is on
    facts.write_text(bom + "element a\nA(b)\n" + bom + "element c\n",
                     encoding="utf-8")
    assert main(["verify", str(manifest), "A"]) == 65
    assert (f"{facts}: line 3: cannot parse {bom + 'element c'!r}"
            in capsys.readouterr().err)
    facts.write_text("element a\nA(b)\n", encoding="utf-8")
    manifest.write_text(bom + "facts = bom.facts\n" + bom + "positive = b\n",
                        encoding="utf-8")
    assert main(["verify", str(manifest), "A"]) == 65
    assert (f"{manifest}:2: unknown key {bom + 'positive'!r}"
            in capsys.readouterr().err)


def test_modules_import_without_warnings(tmp_path):
    # each module and script compiled from its source (an empty bytecode
    # cache) with every warning an error: an invalid escape in a string
    # literal, or a deprecated call at import, fails here
    names = sorted(m.name for m in pkgutil.iter_modules(alcfit.__path__))
    assert {"cli", "data", "encoder", "solver"} <= set(names)
    scripts = sorted(map(str, SCRIPTS.glob("*.py")))
    assert {"build_native.py", "dimacs_solve.py"} <= {
        Path(script).name for script in scripts}
    code = ("import importlib, importlib.util, pathlib\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('alcfit.' + name)\n"
            f"for path in {scripts!r}:\n"
            "    spec = importlib.util.spec_from_file_location(\n"
            "        pathlib.Path(path).stem, path)\n"
            "    spec.loader.exec_module(importlib.util.module_from_spec(spec))\n")
    env = {**ALCFIT_ENV, "PYTHONPYCACHEPREFIX": str(tmp_path)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # compiled, not read from a cache
    for stem in ("data", "build_native", "dimacs_solve"):
        assert any(tmp_path.rglob(f"{stem}*.pyc")), stem


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, from its syntax tree;
    a name read only in a string annotation counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = (node.returns if isinstance(node, ast.FunctionDef)
                          else node.annotation)
            if annotation is None:
                continue
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(sub.value))
                             if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports only to re-export
    root = SCRIPTS.parent
    paths = [*sorted((root / "src" / "alcfit").glob("*.py")),
             *sorted(SCRIPTS.glob("*.py")),
             *sorted((root / "tests").glob("*.py"))]
    assert len(paths) > 15
    unused = [entry for path in paths if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []


def test_data_errors(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "missing.manifest")]) == 65
    bad = tmp_path / "bad.manifest"
    bad.write_text("positive = e1\n", encoding="utf-8")
    assert main(["fit", str(bad)]) == 65
    assert "alcfit: error:" in capsys.readouterr().err
    # an example listed twice would be counted twice
    (tmp_path / "ab.facts").write_text("element a\nelement b\n",
                                       encoding="utf-8")
    twice = tmp_path / "twice.manifest"
    twice.write_text("facts = ab.facts\npositive = a a\nnegative = b\n",
                     encoding="utf-8")
    assert main(["fit", str(twice)]) == 65
    assert (f"{twice}: elements listed twice as positive: a"
            in capsys.readouterr().err)
    both = tmp_path / "both.manifest"
    both.write_text("facts = ab.facts\npositive = a\nnegative = a b\n",
                    encoding="utf-8")
    assert main(["fit", str(both)]) == 65
    assert (f"{both}: elements listed positive and negative: a"
            in capsys.readouterr().err)


def test_verify_outputs(fig1_manifest, capsys):
    assert main(["verify", str(fig1_manifest), "forall r.(A or B)"]) == 0
    out = capsys.readouterr().out
    assert "fits: true" in out and "coverage: 3/3" in out
    assert main(["verify", str(fig1_manifest), "top"]) == 0
    out = capsys.readouterr().out
    assert "fits: false" in out
    assert "coverage: 2/3" in out
    assert "misclassified: f2:b" in out
    assert main(["verify", str(fig1_manifest), "forall r.(A or"]) == 65


def test_verify_refuses_concepts_nested_too_deeply(fig1_manifest, capsys):
    for text in ("not " * 3000 + "A", "(" * 400 + "A" + ")" * 400):
        capsys.readouterr()
        assert main(["verify", str(fig1_manifest), text]) == 65
        err = capsys.readouterr().err
        assert err.startswith("alcfit: error: concept nested deeper than")
        assert err.count("\n") == 1
    # a 200-deep chain is within the bound
    assert main(["verify", str(fig1_manifest),
                 "exists r." * 100 + "not " * 99 + "A"]) == 0
    assert "fits: " in capsys.readouterr().out


def test_dualize_concept(capsys):
    assert main(["dualize", "--concept", "forall r.(A or B)"]) == 0
    assert capsys.readouterr().out.strip() == "exists r.(A and B)"
    assert main(["dualize", "--concept", "exists r.(A and B)"]) == 0
    assert capsys.readouterr().out.strip() == "forall r.(A or B)"


def test_dualize_sample(fig1_manifest, tmp_path, capsys):
    out_dir = tmp_path / "dual"
    assert main(["dualize", str(fig1_manifest), "--out", str(out_dir)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("wrote ")
    original = load_sample(fig1_manifest)
    dual = load_sample(out_dir / "dual.manifest")
    assert dual.positives == original.negatives
    assert dual.negatives == original.positives
    # occurring names are complemented by default
    assert dual.interp.concept_ext["A"] == \
        original.interp.domain_set - original.interp.concept_ext["A"]


def test_dualize_signature_override(fig1_manifest, tmp_path, capsys):
    out_dir = tmp_path / "dual"
    assert main(["dualize", str(fig1_manifest), "--out", str(out_dir),
                 "--names", "A", "--stem", "partial"]) == 0
    capsys.readouterr()
    original = load_sample(fig1_manifest)
    dual = load_sample(out_dir / "partial.manifest")
    assert dual.interp.concept_ext["A"] == \
        original.interp.domain_set - original.interp.concept_ext["A"]
    assert dual.interp.concept_ext["B"] == original.interp.concept_ext["B"]


def test_dualize_refuses_names_that_are_not_concept_names(fig1_manifest,
                                                         tmp_path, capsys):
    # a lowercase name, a role or a name that is no identifier would be
    # written as facts that do not load back: refused, and nothing written
    out_dir = tmp_path / "dual"
    for names, message in (
            ("a,A", "cannot dualize 'a': concept names are identifiers"),
            ("r", "cannot dualize 'r': it is a role name"),
            ("A,_B", "cannot dualize '_B'"),
            ("A,1B", "cannot dualize '1B'"),
            ("A-B", "cannot dualize 'A-B'"),
            ("A, B", "cannot dualize ' B'")):
        capsys.readouterr()
        assert main(["dualize", str(fig1_manifest), "--out", str(out_dir),
                     "--names", names]) == 65, names
        err = capsys.readouterr().err
        assert err.startswith("alcfit: error: ") and message in err, err
        assert err.count("\n") == 1
        assert not out_dir.exists()


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text("AZab_1r", max_size=3), max_size=3))
def test_an_accepted_dualization_always_reloads(fig1_manifest, names):
    # whatever --names holds, dualize either refuses it and writes nothing,
    # or writes a sample that loads and verifies
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "dual"
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["dualize", str(fig1_manifest), "--out", str(out_dir),
                         "--names", ",".join(names)])
        assert code in (0, 65)
        if code == 65:
            assert not out_dir.exists()
            return
        dual = load_sample(out_dir / "dual.manifest")
        assert set(dual.interp.concept_ext) >= {n for n in names if n}
        with redirect_stdout(StringIO()):
            assert main(["verify", str(out_dir / "dual.manifest"),
                         "top"]) == 0


def test_dualize_argument_exclusivity(fig1_manifest, capsys):
    assert main(["dualize"]) == 65
    assert main(["dualize", str(fig1_manifest), "--concept", "top"]) == 65


def test_encode_to_file(fig1_manifest, tmp_path, capsys):
    out = tmp_path / "fig1_k4.cnf"
    code = main(["encode", str(fig1_manifest), "--max-size", "4",
                 "--emit-dimacs", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}:")
    text = out.read_text(encoding="utf-8")
    assert text.startswith("c 1 = x[1,")
    assert re.search(r"^p cnf \d+ \d+$", text, re.MULTILINE)


def test_encode_to_stdout(fig1_manifest, capsys):
    assert main(["encode", str(fig1_manifest), "--max-size", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("c 1 = x[1,")
    assert "\np cnf " in captured.out
    assert captured.err == ""  # the classes separate the examples
    assert main(["encode", str(fig1_manifest), "--max-size", "0"]) == 65


def test_encode_stdout_matches_the_file(fig1_manifest, tmp_path,
                                       capsysbinary):
    # one text, whether written to a file, to a binary stdout or to a
    # text-only one
    sample = gen_random(30, 2, 2, 0.1, 4, 4, seed=2)
    for manifest in (fig1_manifest, save_sample(sample, tmp_path, "random")):
        out = tmp_path / "k5.cnf"
        argv = ["encode", str(manifest), "--max-size", "5"]
        assert main(argv + ["--emit-dimacs", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        with redirect_stdout(StringIO()) as text:
            assert main(argv) == 0
        assert text.getvalue().encode() == out.read_bytes()


def test_encode_to_a_closed_pipe(tmp_path):
    # a reader that takes one line and closes the pipe leaves the rest of
    # the text nowhere to go, which is no error
    manifest = save_sample(gen_random(60, 3, 2, 0.05, 10, 10, seed=1),
                           tmp_path, "random")
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(
            [*ALCFIT, "encode", str(manifest), "--max-size", "6"],
            stdout=subprocess.PIPE, stderr=err, env=ALCFIT_ENV)
        proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=300)
    assert (code, (tmp_path / "err").read_bytes()) == (0, b"")


def test_encode_output_is_pinned(tmp_path, capsys):
    # the whole file, comments included: a change to the order in which ids
    # are allocated, or to the text, changes the digest
    manifest = save_sample(gen_random(30, 2, 2, 0.1, 4, 4, seed=2), tmp_path,
                           "random")
    out = tmp_path / "k5.cnf"
    for flags, digest in (
            ([], "e2bb7bd2e7c4957b328d6b3b769bf0ed"
                 "3df1a1fc3cae9a8cc0b42026bcaf593a"),
            (["--no-typed"], "3872dcecde1556b1893a26136f20622e"
                             "48341e0f5ea9d27087e0695b2a3f59e3"),
            # fragments: the order of a fragment's operator labels
            (["--ops", "forall,or,neg"], "ee2091593dbbf42be7607e75a18bd4b1"
                                         "eeb26e6ab0d40164bd802bd0b26fcce4"),
            (["--ops", "exists,and"], "cb5befa472a700065de2bdbc2d3792fb"
                                      "e673b5bbc172b109d3b07e6b084918f1")):
        assert main(["encode", str(manifest), "--max-size", "5",
                     "--emit-dimacs", str(out), *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, flags


def test_typed_name_encoding_is_pinned(tmp_path, capsys):
    # the role-free type grid: typed name semantics and the syntax group
    # make up the file
    interp = gen_type_grid(300, 20, 12)
    picks = random.Random(1).sample(interp.domain, 40)
    manifest = save_sample(Sample(interp, tuple(picks[:20]),
                                  tuple(picks[20:])), tmp_path, "names")
    out = tmp_path / "k3.cnf"
    assert main(["encode", str(manifest), "--max-size", "3",
                 "--emit-dimacs", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "67a2ad745f4c7128ffaaa2716183bcdc697739b3b406544f79f597ff51c4f91a")


def test_encode_leaves_the_file_on_an_encoding_error(fig1_manifest, tmp_path,
                                                    monkeypatch):
    # every literal is range-checked before the file is opened
    def undeclared_fitting(sample, vm):
        cnf = Cnf()
        _add_rows(cnf, "t", 1, (array("i", [vm.num_vars + 1]),))
        return cnf

    monkeypatch.setattr(alcfit.cli, "encode_fitting", undeclared_fitting)
    out = tmp_path / "kept.cnf"
    out.write_bytes(b"kept\n")
    with pytest.raises(EncodingError, match="beyond the"):
        main(["encode", str(fig1_manifest), "--max-size", "2",
              "--emit-dimacs", str(out)])
    assert out.read_bytes() == b"kept\n"


def test_encode_names_bisimilar_examples(contra_manifest, tmp_path, capsys):
    # the file is still written, but its fitting units contradict each
    # other; encode says why, as fit does
    reason = ("reason: positive e1 and negative e2 are bisimilar; "
              "no concept separates them")
    out = tmp_path / "contra.cnf"
    assert main(["encode", str(contra_manifest), "--max-size", "2",
                 "--emit-dimacs", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == reason + "\n"
    assert re.fullmatch(rf"wrote {re.escape(str(out))}: \d+ vars, "
                        r"\d+ clauses\n", captured.out)
    assert main(["encode", str(contra_manifest), "--max-size", "2",
                 "--stats"]) == 0
    captured = capsys.readouterr()
    assert reason in captured.out.splitlines()
    assert captured.err == ""


def test_encode_stats(fig1_manifest, tmp_path, capsys):
    out = tmp_path / "fig1_k4.cnf"
    assert main(["encode", str(fig1_manifest), "--max-size", "4",
                 "--emit-dimacs", str(out)]) == 0
    capsys.readouterr()
    header = re.search(r"^p cnf (\d+) (\d+)$",
                       out.read_text(encoding="utf-8"), re.MULTILINE)
    for flags in ([], ["--no-typed", "--no-templates"]):
        assert main(["encode", str(fig1_manifest), "--max-size", "4",
                     "--stats", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        stats = dict(line.split(": ") for line in lines)
        assert stats.pop("names") == "2 of 2"
        counts = {key: int(value) for key, value in stats.items()}
        groups = {key: n for key, n in counts.items()
                  if key not in ("elements", "classes", "vars", "clauses")}
        assert sum(groups.values()) == counts["clauses"]
        # the B-leaves x2 and y2 are bisimilar: 7 elements, 6 rows
        assert (counts["elements"], counts["classes"]) == (7, 6)
        assert lines[:3] == ["elements: 7", "classes: 6", "names: 2 of 2"]
        assert counts["semantics.child"] == 2 * 6 * (4 * 3 // 2)
        if not flags:  # the counts of the DIMACS text of the same encoding
            assert (counts["vars"], counts["clauses"]) == tuple(
                map(int, header.groups()))
            assert counts["template"] > 0
        else:
            assert "template" not in counts
            assert "semantics.namehood" not in counts
    with pytest.raises(SystemExit) as exc:  # --stats writes no DIMACS
        main(["encode", str(fig1_manifest), "--max-size", "4",
              "--stats", "--emit-dimacs", str(out)])
    assert exc.value.code == 64


def _perfbench_tracer():
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_records_every_layer(fig1_manifest, tmp_path,
                                             capsys):
    # the benchmark's per-layer metrics come from spans around the names
    # alcfit.cli and alcfit.fitter look up; a refactor that calls a layer
    # some other way would silently drop its metrics
    tracer = _perfbench_tracer().Tracer()
    tracer.install(alcfit.cli, alcfit.fitter, Cnf)
    try:
        tracer.begin_op()
        assert main(["encode", str(fig1_manifest), "--max-size", "4",
                     "--stats"]) == 0
        tracer.begin_op()
        assert main(["fit", str(fig1_manifest), "--max-size", "4"]) == 0
        tracer.begin_op()
        assert main(["fit", str(fig1_manifest), "--mode", "approx",
                     "--max-size", "4"]) == 0
        tracer.begin_op()
        out = tmp_path / "fig1.cnf"
        assert main(["encode", str(fig1_manifest), "--max-size", "4",
                     "--emit-dimacs", str(out)]) == 0
    finally:
        tracer.uninstall()
    # every op types and encodes the sample's quotient through the same
    # fitter globals
    layers = {"data.compute_types", "encoder.syntax", "encoder.semantics",
              "encoder.templates"}
    encode, fit, approx = ({span.name for span in tracer.spans
                            if span.op == op} for op in (1, 2, 3))
    # and reads it through cli.load_sample, the name the load span wraps
    assert layers | {"data.load_sample", "encoder.fitting"} <= encode
    assert layers | {"data.load_sample", "encoder.fitting", "solver.solve",
                     "fitter.bounded_fit"} <= fit
    assert layers | {"encoder.coverage", "solver.solve", "encoder.decode",
                     "fitter.verify"} <= approx
    # solver.export_mb is the length of what export_dimacs returns: the
    # size of the file encode writes
    exports = [span.info for span in tracer.spans
               if span.op == 4 and span.name == "solver.export"]
    assert exports == [{"chars": out.stat().st_size}]


def test_benchmark_selftest_passes():
    # the benchmark's checks read the DIMACS header and the encode lines,
    # so a change to either fails here, not only in a benchmark run
    root = Path(__file__).parent.parent
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gen_families(tmp_path, capsys):
    cases = [
        (["gen", "hitting-set", "--sets", "1,3;2,4", "--k", "2"],
         "hitting_set", 46),
        (["gen", "depth", "--n", "1"], "depth", 12),
        (["gen", "mostgeneral", "--n", "2", "--paths", "rr,ss"],
         "mostgeneral", 11),
        (["gen", "random", "--elements", "6", "--pos", "1", "--neg", "1",
          "--seed", "3"], "random", 6),
    ]
    for argv, stem, domain_size in cases:
        target = tmp_path / stem
        assert main(argv + ["--out", str(target)]) == 0
        line = capsys.readouterr().out.strip()
        manifest = target / f"{stem}.manifest"
        assert line == f"wrote {manifest}"
        sample = load_sample(manifest)
        assert len(sample.interp.domain) == domain_size
        assert json.loads(
            (target / f"{stem}.json").read_text(encoding="utf-8"))


def test_gen_depth_example_count(tmp_path, capsys):
    assert main(["gen", "depth", "--n", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    sample = load_sample(tmp_path / "depth.manifest")
    assert sample.num_examples == 4


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen", "random", "--elements", "7", "--seed", "11"]
    for sub in ("one", "two"):
        assert main(argv + ["--out", str(tmp_path / sub)]) == 0
    capsys.readouterr()
    for name in ("random.manifest", "random_facts.facts", "random.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_gen_validation(tmp_path, capsys):
    assert main(["gen", "hitting-set", "--out", str(tmp_path)]) == 65
    assert main(["gen", "hitting-set", "--sets", "1,x", "--out",
                 str(tmp_path)]) == 65
    assert main(["gen", "mostgeneral", "--n", "1", "--out",
                 str(tmp_path)]) == 65


def _readme_section(text: str, heading: str) -> str:
    """The body of a `## heading` section of README.md."""
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_documents_every_option():
    # every option of fit, encode, verify and dualize is in README's
    # synopsis, and every option of gen in it or in the Generators list
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    synopsis = _readme_section(readme, "Command line").split("```")[1]
    generators = _readme_section(readme, "Generators")
    sub = next(action for action in alcfit.cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    missing = []
    for command in ("fit", "encode", "verify", "dualize", "gen"):
        docs = synopsis + (generators if command == "gen" else "")
        for action in sub.choices[command]._actions:
            for option in action.option_strings:
                if (option.startswith("--") and option != "--help"
                        and not re.search(re.escape(option) + r"(?![\w-])",
                                          docs)):
                    missing.append(f"{command} {option}")
    assert missing == []


def test_max_size_help_says_what_each_command_does_with_it(capsys):
    # fit tries every size up to K; encode encodes exactly size K
    for command, text in (("fit", "largest concept size to try"),
                          ("encode", "the concept size to encode")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert text + " (default 12)" in capsys.readouterr().out, command
