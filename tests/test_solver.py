from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcfit.benchgen import gen_random
from alcfit.concepts import O_ALL
from alcfit.data import merge_blocks
from alcfit.encoder import (Cnf, EncodingError, Gather, Rows, _add_rows,
                            _quantifier_template, decode_model,
                            encode_coverage_at_least, encode_fitting)
from alcfit.fitter import encode_size, verify
from alcfit import solver
from alcfit.solver import (DimacsSession, NativeSession, SolverError,
                           check_backend, export_dimacs, make_session,
                           parse_dimacs)

from helpers import add_clauses, build_encoding

DIMACS_SOLVER = (f"{sys.executable} "
                 f"{Path(__file__).parent.parent / 'scripts' / 'dimacs_solve.py'}")
BACKENDS = pytest.mark.parametrize(
    "backend", ["native", f"dimacs:{DIMACS_SOLVER}"], ids=["native", "dimacs"])
ROOT = Path(__file__).parent.parent
CRATE = ROOT / "native" / "cdcl"


def pigeonhole(holes: int) -> Cnf:
    """holes+1 pigeons into `holes` holes: classic unsatisfiable instance."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    cnf = Cnf()
    for p in range(pigeons):
        cnf.add("php", [var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add("php", [-var(p1, h), -var(p2, h)])
    return cnf


def test_native_sat_unsat_and_model():
    session = NativeSession()
    try:
        add_clauses(session, [1, 2], [-1])
        out = session.solve()
        assert out.status == "sat" and out.is_sat
        assert out.model[0] is False  # index 0 is padding
        assert out.model[1] is False and out.model[2] is True
        add_clauses(session, [-2])
        out = session.solve()
        assert out.status == "unsat" and out.is_unsat
    finally:
        session.close()


def test_native_assumptions_do_not_stick():
    session = NativeSession()
    try:
        add_clauses(session, [1, 2])
        assert session.solve(assumptions=[-1, -2]).status == "unsat"
        assert session.solve().status == "sat"
    finally:
        session.close()


def test_native_signature_names_the_built_in_solver():
    manifest = (CRATE / "Cargo.toml").read_text()
    version = re.search(r'^version = "(.+)"$', manifest, re.MULTILINE)[1]
    session = NativeSession()
    try:
        assert session.signature() == f"alcfit-cdcl-{version}"
    finally:
        session.close()


@BACKENDS
def test_add_cnf_bulk_matches_per_clause(fig1_sample, backend):
    cnf, _ = build_encoding(fig1_sample, 3, O_ALL)
    bulk = make_session(backend)
    single = make_session(backend)
    try:
        bulk.add_cnf(cnf)
        for clause in cnf.clauses():
            add_clauses(single, clause)
        assert bulk.num_clauses == single.num_clauses == cnf.num_clauses
        assert bulk.solve().status == single.solve().status == "unsat"
    finally:
        bulk.close()
        single.close()


def test_conflict_budget_zero_gives_unknown():
    session = NativeSession()
    try:
        session.add_cnf(pigeonhole(5))
        out = session.solve(conflict_budget=0)
        assert out.status == "unknown"
        assert out.model is None
        # and without the budget the instance is genuinely unsat
        assert session.solve().status == "unsat"
    finally:
        session.close()


def test_negative_conflict_budget_is_refused():
    # the ABI reads a negative budget as no limit: it must not get there
    session = NativeSession()
    try:
        session.add_cnf(pigeonhole(5))
        with pytest.raises(ValueError, match="negative conflict budget"):
            session.solve(conflict_budget=-1)
    finally:
        session.close()


@BACKENDS
def test_nan_timeout_is_refused(backend):
    # NaN is neither a limit nor spent: the ABI would read it as no limit,
    # and subprocess.run fails on it only once the solver has started
    session = make_session(backend)
    try:
        add_clauses(session, [1])
        with pytest.raises(ValueError, match="timeout is NaN"):
            session.solve(timeout=float("nan"))
        assert session.solve(timeout=5.0).status == "sat"
    finally:
        session.close()


@BACKENDS
def test_a_timeout_too_long_to_wait_is_no_limit(backend):
    # 3e6 s is past what subprocess can wait, 1e19 s past the native
    # solver's clock; each, and inf, solves as no timeout does
    session = make_session(backend)
    try:
        add_clauses(session, [1, 2])
        for expected in ("sat", "unsat"):
            for timeout in (None, 3e6, 1e19, float("inf")):
                assert session.solve(timeout=timeout).status == expected
            session.add_cnf(pigeonhole(3))
    finally:
        session.close()


def test_dimacs_backend_refuses_conflict_budgets():
    # the subprocess cannot be told a budget, so one given is not ignored
    session = DimacsSession(DIMACS_SOLVER)
    add_clauses(session, [1])
    for budget in (0, 1000):
        with pytest.raises(SolverError, match="no conflict budget"):
            session.solve(conflict_budget=budget)
    assert session.solve().status == "sat"


def test_wall_clock_timeout_gives_unknown():
    session = NativeSession()
    try:
        session.add_cnf(pigeonhole(11))
        out = session.solve(timeout=0.05)
        assert out.status == "unknown"
        assert out.time < 5.0
    finally:
        session.close()


def test_spent_timeout_gives_unknown_without_search():
    # a deadline already passed must not turn into "no limit"
    session = NativeSession()
    try:
        session.add_cnf(pigeonhole(11))
        started = time.perf_counter()
        out = session.solve(timeout=-1.0)
        assert out.status == "unknown" and out.model is None
        assert session.solve(timeout=0.0).status == "unknown"
        assert time.perf_counter() - started < 1.0
    finally:
        session.close()


def test_native_reports_conflicts_per_call():
    session = NativeSession()
    try:
        session.add_cnf(pigeonhole(5))
        limited = session.solve(conflict_budget=3)
        full = session.solve()
        assert limited.status == "unknown" and full.status == "unsat"
        assert 0 < limited.conflicts <= 4
        assert full.conflicts > 0
    finally:
        session.close()


literals = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))
clause_lists = st.lists(st.lists(literals, min_size=1, max_size=3),
                        min_size=1, max_size=24)


def brute_force_sat(clauses, assumptions) -> bool:
    for bits in itertools.product((False, True), repeat=6):
        holds = lambda lit: bits[abs(lit) - 1] == (lit > 0)
        if all(map(holds, assumptions)) and \
                all(any(map(holds, clause)) for clause in clauses):
            return True
    return False


@settings(deadline=None, max_examples=80)
@given(clause_lists, st.lists(literals, max_size=3))
def test_native_agrees_with_brute_force(clauses, assumptions):
    # solve midway and at the end, under assumptions and without them:
    # clauses added after a model may contradict it, assumptions must not
    # outlive their call, and every model must satisfy what was asked
    half = len(clauses) // 2
    session = NativeSession()
    try:
        for clause in clauses[:half]:
            add_clauses(session, clause)
        rest = Cnf()
        rest.declare_vars(6)
        for clause in clauses[half:]:
            rest.add("t", clause)
        for prefix, cnf in ((clauses[:half], None), (clauses, rest)):
            if cnf is not None:
                session.add_cnf(cnf)
            for assumed in (assumptions, ()):
                out = session.solve(assumptions=assumed)
                expected = brute_force_sat(prefix, assumed)
                assert out.status == ("sat" if expected else "unsat")
                if expected:
                    holds = lambda lit: out.model[abs(lit)] == (lit > 0)
                    assert all(map(holds, assumed))
                    assert all(any(map(holds, c)) for c in prefix)
    finally:
        session.close()


@BACKENDS
def test_add_cnf_counts_undeclared_variables(backend):
    # a hand-built Cnf that never calls declare_vars still gets a model
    # covering every variable its clauses mention
    cnf = Cnf()
    cnf.add("t", [1, 2])
    cnf.add("t", [-1, 3])
    session = make_session(backend)
    try:
        session.add_cnf(cnf)
        assert session.num_vars == 3
        out = session.solve(assumptions=[1])
        assert out.status == "sat"
        assert len(out.model) == 4
        assert out.model[1] and out.model[3]
    finally:
        session.close()


@BACKENDS
def test_literal_zero_and_empty_clauses_are_refused(backend):
    # 0 ends a clause in DIMACS and the solver ABI: inside an assumption
    # list it would split, drop or empty what was asked
    session = make_session(backend)
    try:
        add_clauses(session, [1, 2])
        with pytest.raises(SolverError, match="literal 0"):
            session.solve(assumptions=[0])
        with pytest.raises(SolverError, match="literal 0"):
            session.solve(assumptions=[-1, 0, -2])
        assert session.solve(assumptions=[-1]).status == "sat"
        assert session.num_clauses == 1
    finally:
        session.close()


def test_declare_vars_reserves_ids():
    session = NativeSession()
    try:
        add_clauses(session, [1])
        session.declare_vars(5)
        assert session.num_vars == 5
        assert len(session.solve().model) == 6
    finally:
        session.close()


def test_the_shim_and_python_agree_on_the_abi():
    # the solver crate's C calls are what Python binds and what the bundled
    # library exports
    shim = (CRATE / "src" / "lib.rs").read_text()
    abi = set(re.findall(
        r'#\[no_mangle\]\s*pub (?:unsafe )?extern "C" fn (satbridge_\w+)',
        shim))
    bound = set(re.findall(r"\blib\.(satbridge_\w+)",
                           inspect.getsource(solver._load_library)))
    assert len(abi) == 7 and abi == bound
    lib = solver._load_library()
    assert all(hasattr(lib, name) for name in bound)
    for removed in ("satbridge_add_clause", "satbridge_value",
                    "satbridge_num_clauses", "satbridge_max_variable",
                    "satbridge_string_free"):
        assert not hasattr(lib, removed)


@pytest.mark.skipif(shutil.which("cargo") is None, reason="no cargo on PATH")
def test_rust_crate_tests_pass():
    # the C calls on the built-in solver, and the solver against brute
    # force; the crate builds offline
    proc = subprocess.run(["cargo", "test", "--offline", "--quiet"],
                          cwd=CRATE, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("cargo") is None, reason="no cargo on PATH")
def test_bundled_library_is_built_from_its_source(tmp_path):
    # the build script, run from another checkout path into another target
    # dir, copies a library identical to the one Python loads
    checkout, target = tmp_path / "checkout", tmp_path / "target"
    (checkout / "scripts").mkdir(parents=True)
    shutil.copy2(ROOT / "scripts" / "build_native.py", checkout / "scripts")
    shutil.copytree(CRATE, checkout / "native" / "cdcl",
                    ignore=shutil.ignore_patterns("target"))
    proc = subprocess.run(
        [sys.executable, str(checkout / "scripts" / "build_native.py")],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    native = Path("src") / "alcfit" / "_native" / "libsatbridge.so"
    built = (checkout / native).read_bytes()
    assert built == (ROOT / native).read_bytes()


def _has_cargo(tool: str) -> bool:
    if shutil.which("cargo") is None:
        return False
    proc = subprocess.run(["cargo", tool, "--version"],
                          capture_output=True, text=True)
    return proc.returncode == 0


@pytest.mark.skipif(not _has_cargo("clippy"),
                    reason="no cargo clippy installed")
def test_rust_crate_is_clippy_clean():
    # the C calls dereference raw pointers, so clippy asks for them to be
    # unsafe and for a `# Safety` section on each; tests and library alike
    # build with no warning
    proc = subprocess.run(["cargo", "clippy", "--offline", "--all-targets",
                           "--", "-D", "warnings"],
                          cwd=CRATE, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not _has_cargo("fmt"), reason="no cargo fmt installed")
def test_rust_crate_is_rustfmt_clean():
    proc = subprocess.run(["cargo", "fmt", "--check"], cwd=CRATE,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- DIMACS

def exported(cnf: Cnf, vm=None) -> bytes:
    """The whole text export_dimacs yields, joined."""
    return b"".join(export_dimacs(cnf, vm))


def test_export_dimacs_minimal_example():
    cnf = Cnf()
    cnf.add("t", [1, -2])
    assert exported(cnf) == b"p cnf 2 1\n1 -2 0\n"


def test_cnf_add_refuses_a_literal_zero():
    # a 0 inside a clause would end it early in the run: two clauses, but
    # one counted, under a DIMACS header that undercounts them
    cnf = Cnf()
    cnf.add("t", [1, -2])
    with pytest.raises(EncodingError, match=r"literal 0 in clause \[1, 0, -1\]"):
        cnf.add("u", [1, 0, -1])
    with pytest.raises(EncodingError, match="empty clause"):
        cnf.add("u", [])
    assert cnf.num_clauses == 1
    assert cnf.groups == {"t": 1}
    assert [list(part) for part in cnf.parts] == [[1, -2, 0]]
    assert exported(cnf) == b"p cnf 2 1\n1 -2 0\n"


def test_export_dimacs_counts_undeclared_variables():
    # literal 5 and -5 lie beyond the declared 2 variables; -5 must not be
    # looked up as a negative index from the end of a literal table
    cnf = Cnf()
    cnf.declare_vars(2)
    cnf.add("t", [1, -5])
    assert exported(cnf) == b"p cnf 5 1\n1 -5 0\n"


def test_export_dimacs_refuses_undeclared_recipe_literals():
    # a run counts its own literals; a recipe is not scanned, so one that
    # reads an undeclared variable is an encoder bug, not a short header
    cnf = Cnf()
    cnf.add("t", [1, -2])
    _add_rows(cnf, "t", 2, (-1, array("i", [2, -3])))
    with pytest.raises(EncodingError, match="literal -3 beyond the 2"):
        export_dimacs(cnf)
    cnf.declare_vars(3)
    assert exported(cnf) == b"p cnf 3 3\n1 -2 0\n-1 2 0\n-1 -3 0\n"

    # the token list is read from both ends: n + 1..2n and -(n + 1) would
    # silently take another literal's token, so each must be refused, in a
    # row, a pattern, a Gather's head and its tail alike
    for bad in (3, 4, -3):
        for part in (Rows(array("i", [-1, 0, 0]), array("i", [1]),
                          (array("i", [2, bad]),), 2),
                     Rows(array("i", [bad, 0, 0]), array("i", [1]),
                          (array("i", [2, -1]),), 2),
                     Gather(array("i", [0, bad]), array("i", [1, -2]),
                            (1, 2, 0)),
                     Gather(array("i", [0, 1]), array("i", [-2, bad]),
                            (1, 3, 0))):
            cnf = Cnf()
            cnf.add("t", [1, -2])
            cnf.add_block("t", 1, part)
            with pytest.raises(EncodingError,
                               match=f"literal {bad} beyond the 2"):
                export_dimacs(cnf)


def test_export_dimacs_empty():
    assert exported(Cnf()) == b"p cnf 0 0\n"


def test_export_dimacs_with_varmap_comments(fig1_sample):
    cnf, vm = build_encoding(fig1_sample, 2, O_ALL)
    text = exported(cnf, vm).decode("ascii")
    lines = text.splitlines()
    assert lines[0].startswith("c 1 = x[1,")
    header = next(l for l in lines if l.startswith("p "))
    assert header == f"p cnf {vm.num_vars} {cnf.num_clauses}"


def test_parse_dimacs_round_trip(fig1_sample):
    cnf, vm = build_encoding(fig1_sample, 4, O_ALL)
    num_vars, clauses = parse_dimacs(exported(cnf, vm).decode())
    assert num_vars == vm.num_vars
    assert len(clauses) == cnf.num_clauses
    session = NativeSession()
    try:
        add_clauses(session, *clauses)
        assert session.solve().status == "sat"
    finally:
        session.close()


def test_dimacs_solve_script_answers_unsat_on_an_empty_clause(tmp_path):
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n0\n", encoding="utf-8")
    script = Path(__file__).parent.parent / "scripts" / "dimacs_solve.py"
    proc = subprocess.run([sys.executable, str(script), str(cnf)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (20, "s UNSATISFIABLE\n")


def per_clause_text(num_vars: int, clauses: list[list[int]]) -> str:
    """The plain one-line-per-clause DIMACS rendering: the reference."""
    return f"p cnf {num_vars} {len(clauses)}\n" + "".join(
        " ".join(map(str, clause + [0])) + "\n" for clause in clauses)


def expanded_clauses(cnf: Cnf) -> list[list[int]]:
    """The clauses of cnf's parts, each recipe expanded literal by literal
    as its docstring defines it."""
    flat = []
    for part in cnf.parts:
        if isinstance(part, Rows):
            at = dict(zip(part.offsets, part.rows))
            flat += [at[p][e] if p in at else lit for e in range(part.n)
                     for p, lit in enumerate(part.pattern)]
        elif isinstance(part, Gather):
            src = list(part.head) + list(part.tail)
            flat += [src[p] for p in part.idx]
        else:
            flat += part
    out, clause = [], []
    for lit in flat:
        if lit:
            clause.append(lit)
        else:
            out.append(clause)
            clause = []
    return out


def assert_reads_alike(cnf: Cnf, vm, text: str) -> None:
    """export_dimacs(cnf, vm) yields text, bytes for characters, at every
    read, and its len() counts them exactly."""
    dimacs = export_dimacs(cnf, vm)
    assert len(dimacs) == len(text)
    assert b"".join(dimacs) == b"".join(dimacs) == text.encode()


def test_export_matches_per_clause_text_with_roles():
    sample = gen_random(60, 2, 2, 0.1, 3, 3, seed=3)
    cnf, vm = build_encoding(sample, 6, O_ALL)
    clauses = list(cnf.clauses())
    # many blocks, many pieces of text
    assert sum(map(len, cnf.arrays())) > 1 << 16
    text = exported(cnf).decode("ascii")
    assert text == per_clause_text(vm.num_vars, clauses)
    assert parse_dimacs(text) == (vm.num_vars, clauses)
    assert len(clauses) == cnf.num_clauses


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), elements=st.integers(2, 8),
       names=st.integers(1, 3), roles=st.integers(1, 2),
       density=st.sampled_from((0.2, 0.4, 0.7)), split=st.booleans(),
       k=st.integers(1, 5), typed=st.booleans(),
       ops=st.sets(st.sampled_from(sorted(O_ALL))).map(frozenset))
def test_export_renders_encodings_clause_by_clause(seed, elements, names,
                                                   roles, density, split, k,
                                                   typed, ops):
    # the block renderer must write what the clauses say, one line each;
    # split puts positives and negatives in two copies of one
    # interpretation, so that the quotient merges every element with its
    # copy
    sample = gen_random(elements, names, roles, density,
                        (elements + 1) // 2, elements // 2, seed)
    if split:
        sample = merge_blocks([
            (sample.interp, list(sample.positives), []),
            (sample.interp, [], list(sample.negatives))])
    cnf, vm = encode_size(sample, k, ops, typed=typed)
    cnf.absorb(encode_fitting(sample, vm))
    # the approximate-mode counter, whose columns are allocated as m grows
    for m in range(1, sample.num_examples + 1):
        cnf.absorb(encode_coverage_at_least(sample, m, vm))
    clauses = list(cnf.clauses())
    assert clauses == expanded_clauses(cnf)
    assert len(clauses) == cnf.num_clauses
    text = per_clause_text(vm.num_vars, clauses)
    assert_reads_alike(cnf, None, text)
    assert_reads_alike(cnf, vm, "".join(
        f"c {v} = {vm.describe(v)}\n" for v in range(1, vm.num_vars + 1))
        + text)
    assert list(cnf.clauses()) == clauses  # rendering changed nothing


row_lists = st.lists(st.lists(literals, min_size=3, max_size=3),
                    min_size=1, max_size=3)
row_ref = st.integers(0, 2).map(lambda i: ("row", i))
hand_steps = st.lists(st.one_of(
    st.tuples(st.just("add"), st.lists(literals, min_size=1, max_size=3)),
    st.tuples(st.just("absorb"), clause_lists, st.integers(0, 8)),
    st.tuples(st.just("rows"), row_lists,
              st.lists(st.lists(st.one_of(literals, row_ref),
                                min_size=1, max_size=3),
                       min_size=1, max_size=2)),
    st.tuples(st.just("gather"), st.lists(literals, min_size=1, max_size=6),
              st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3),
                       min_size=1, max_size=4)),
    st.tuples(st.just("declare"), st.integers(0, 8))), max_size=12)


@settings(deadline=None, max_examples=80)
@given(hand_steps)
def test_export_renders_hand_built_mixes(steps):
    # clauses added one at a time, absorbed from other Cnfs, laid out as
    # row blocks (rows reused across shapes and blocks) and gathered from a
    # literal list, with literals up to 6 and fewer variables declared: the
    # header must count the largest |literal| of a run; a recipe declares
    # the largest it holds, as the encoding functions do
    cnf = Cnf()
    expected: list[list[int]] = []
    declared = 0
    for step in steps:
        if step[0] == "add":
            cnf.add("t", step[1])
            expected.append(step[1])
        elif step[0] == "absorb":
            other = Cnf()
            other.declare_vars(step[2])
            declared = max(declared, step[2])
            for clause in step[1]:
                other.add("t", clause)
            cnf.absorb(other)
            expected += step[1]
        elif step[0] == "rows":
            rows = [array("i", row) for row in step[1]]
            shapes = [[rows[lit[1] % len(rows)] if isinstance(lit, tuple)
                       else lit for lit in shape] for shape in step[2]]
            _add_rows(cnf, "t", 3, *shapes)
            block = [[lit[e] if isinstance(lit, array) else lit
                      for lit in shape]
                     for e in range(3) for shape in shapes]
            # every literal of the recipe, rows whole, is in some clause
            top = max(abs(lit) for clause in block for lit in clause)
            cnf.declare_vars(top)
            declared = max(declared, top)
            expected += block
        elif step[0] == "gather":
            tail, picks = step[1], step[2]
            # src = [0] + tail: index 0 ends a clause, p + 1 is tail[p]
            idx = tuple(i for clause in picks
                        for i in [p % len(tail) + 1 for p in clause] + [0])
            cnf.add_block("t", len(picks),
                          Gather(array("i", [0]), array("i", tail), idx))
            top = max(map(abs, tail))
            cnf.declare_vars(top)
            declared = max(declared, top)
            expected += [[tail[p % len(tail)] for p in clause]
                         for clause in picks]
        else:
            cnf.declare_vars(step[1])
            declared = max(declared, step[1])
    clauses = list(cnf.clauses())
    assert clauses == expected == expanded_clauses(cnf)
    num_vars = max([declared] + [abs(lit) for c in expected for lit in c])
    text = per_clause_text(num_vars, expected)
    assert_reads_alike(cnf, None, text)
    assert list(cnf.clauses()) == clauses


def test_export_holds_no_text():
    # the text is made piece by piece as it is read; besides the piece at
    # hand, an export holds only its header, its token list and the
    # tokens of the rows the blocks share
    sample = gen_random(300, 3, 2, 0.02, 5, 5, seed=1)
    cnf, vm = encode_size(sample, 7, O_ALL)
    cnf.absorb(encode_fitting(sample, vm))
    sink = hashlib.sha256()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for piece in export_dimacs(cnf, vm):
            sink.update(piece)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = len(export_dimacs(cnf, vm))
    assert sink.digest() == hashlib.sha256(exported(cnf, vm)).digest()
    assert size > 2_000_000
    assert peak <= 0.75 * size


def test_export_shares_a_gather_template():
    # an exists template over a complete role on 448 elements has ~10^6
    # entries; its block's text costs the picked tokens (one template's
    # size) and the text, not a copy of the template, which is a tuple
    n = 448
    idx = _quantifier_template("exists", [tuple(range(n))] * n,
                               list(range(2 + 4 * n)))
    tail = array("i", range(1, 4 * n + 1))
    cnf = Cnf()
    cnf.add_block("t", n + n * n, Gather(array("i", [0, 1]), tail, idx))
    cnf.declare_vars(4 * n)
    text = export_dimacs(cnf)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        size = sum(map(len, text))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(idx) > 10**6 and size > 3_000_000
    assert peak < 1.25 * sys.getsizeof(tuple(idx)) + size


def test_dimacs_solve_times_the_solver_alone(monkeypatch):
    # the clause file is written before the clock starts, however slowly
    # its pieces come
    pieces = solver.DimacsText._pieces

    def slow(self):
        time.sleep(1.0)
        yield from pieces(self)

    monkeypatch.setattr(solver.DimacsText, "_pieces", slow)
    session = DimacsSession(DIMACS_SOLVER)
    add_clauses(session, [1, 2], [-1])
    start = time.perf_counter()
    out = session.solve()
    assert time.perf_counter() - start >= 1.0  # the pieces were written
    assert out.status == "sat" and out.model[2]
    assert out.time < 1.0


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(SolverError):
        parse_dimacs("p dnf 2 1\n1 0\n")


def test_dimacs_text_that_is_not_integers_names_its_line(tmp_path):
    # a SATLIB file ends with a "%" line; any token that is not an integer
    # is an error naming its line, and dimacs_solve.py prints it as one
    # line with no answer, so a DIMACS session reports it as a failure
    for text, message in (
            ("p cnf 2 1\n1 -2 0\n%\n0\n", "bad DIMACS line 3: '%'"),
            ("c x\np cnf 2 1\n1 x 0\n", "bad DIMACS line 3: '1 x 0'"),
            ("p cnf two 1\n1 0\n", "bad DIMACS line 1: 'p cnf two 1'")):
        with pytest.raises(SolverError, match=re.escape(message)):
            parse_dimacs(text)
    cnf = tmp_path / "satlib.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n%\n0\n", encoding="utf-8")
    script = Path(__file__).parent.parent / "scripts" / "dimacs_solve.py"
    proc = subprocess.run([sys.executable, str(script), str(cnf)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "dimacs_solve.py: error: bad DIMACS line 3: '%'\n"


def test_subprocess_backend_on_encodings(fig1_sample):
    for k, expected in ((3, "unsat"), (4, "sat")):
        cnf, vm = build_encoding(fig1_sample, k, O_ALL)
        session = DimacsSession(DIMACS_SOLVER)
        try:
            session.add_cnf(cnf)
            out = session.solve()
            assert out.status == expected
            if expected == "sat":
                concept = decode_model(out.model, vm)
                assert verify(concept, fig1_sample).fits
        finally:
            session.close()


def test_make_session_backends():
    # make_session reads the backend string with check_backend, which
    # loads and runs nothing
    assert isinstance(make_session("native"), NativeSession)
    assert isinstance(make_session(f"dimacs:{DIMACS_SOLVER}"), DimacsSession)
    assert check_backend("native") is None
    assert check_backend("dimacs:no-such-binary -q") == "no-such-binary -q"
    for backend, message in (("minisat", "unknown backend 'minisat'"),
                             ("dimacs:", "empty DIMACS backend command"),
                             ("dimacs:  ", "empty DIMACS backend command")):
        for call in (check_backend, make_session):
            with pytest.raises(SolverError, match=message):
                call(backend)


def test_missing_subprocess_command_raises():
    session = DimacsSession("definitely-not-a-real-solver-binary")
    add_clauses(session, [1])
    with pytest.raises(SolverError):
        session.solve()


def _scripted_session(tmp_path, name: str, source: str) -> DimacsSession:
    """A DIMACS session over one unit clause whose command runs `source`."""
    script = tmp_path / f"{name}.py"
    script.write_text(source, encoding="utf-8")
    session = DimacsSession(f"{sys.executable} {script}")
    add_clauses(session, [1])
    return session


def test_crashing_subprocess_backend_raises(tmp_path):
    # neither 10 nor 20 and no `s` line: the command failed, whatever the
    # budget; the error names the exit code and the last stderr line
    crash = _scripted_session(
        tmp_path, "crash",
        "import sys\nsys.stderr.write('reading\\nout of memory\\n')\n"
        "sys.exit(3)\n")
    with pytest.raises(SolverError, match=r"code 3 .*: out of memory$"):
        crash.solve()
    silent = _scripted_session(tmp_path, "silent", "")
    with pytest.raises(SolverError, match=r"code 0 and gave no answer$"):
        silent.solve(timeout=30)


def test_sat_without_a_model_is_a_solver_error(tmp_path):
    # an all-false model made up for the solver would reach decode_model,
    # whose EncodingError means an encoder bug
    for name, source in (("bare", "raise SystemExit(10)\n"),
                         ("told", "print('s SATISFIABLE')\n")):
        session = _scripted_session(tmp_path, name, source)
        with pytest.raises(SolverError,
                           match=r"^'.+' answered SAT but gave no model"):
            session.solve()


def test_dimacs_clause_file_is_the_export_with_assumption_units(
        tmp_path, fig1_sample):
    # the solver reads export_dimacs of every clause given, recipes and
    # all, then one unit per assumption, under the session's variable count
    copy = tmp_path / "copy.cnf"
    session = _scripted_session(
        tmp_path, "copy", f"import shutil, sys\n"
        f"shutil.copy(sys.argv[1], {str(copy)!r})\nraise SystemExit(20)\n")
    cnf, vm = build_encoding(fig1_sample, 3, O_ALL)
    session.add_cnf(cnf)
    session.declare_vars(vm.num_vars + 2)
    assumptions = [-2, vm.num_vars + 1]
    assert session.solve(assumptions=assumptions).status == "unsat"
    clauses = [[1], *cnf.clauses(), *([lit] for lit in assumptions)]
    assert copy.read_bytes() == \
        per_clause_text(vm.num_vars + 2, clauses).encode()


def test_subprocess_unknown_answers_stay_unknown(tmp_path):
    answered = _scripted_session(tmp_path, "answered",
                                 "print('s UNKNOWN')\nraise SystemExit(1)\n")
    assert answered.solve().status == "unknown"
    slow = _scripted_session(tmp_path, "slow",
                             "import time\ntime.sleep(30)\n")
    assert slow.solve(timeout=0.5).status == "unknown"
