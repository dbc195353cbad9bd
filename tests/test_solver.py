from __future__ import annotations

import itertools
import shutil
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcfit.benchgen import gen_random
from alcfit.concepts import O_ALL, fits
from alcfit.encoder import Cnf, decode_model
from alcfit.solver import (DimacsSession, NativeSession, SolverConfig,
                           SolverError, export_dimacs, make_session,
                           parse_dimacs)

from helpers import build_encoding

DIMACS_SOLVER = (f"{sys.executable} "
                 f"{Path(__file__).parent.parent / 'scripts' / 'dimacs_solve.py'}")


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
        session.add_clause([1, 2])
        session.add_clause([-1])
        out = session.solve()
        assert out.status == "sat" and out.is_sat
        assert out.model[0] is False  # index 0 is padding
        assert out.model[1] is False and out.model[2] is True
        session.add_clause([-2])
        out = session.solve()
        assert out.status == "unsat" and out.is_unsat
    finally:
        session.close()


def test_native_assumptions_do_not_stick():
    session = NativeSession()
    try:
        session.add_clause([1, 2])
        assert session.solve(assumptions=[-1, -2]).status == "unsat"
        assert session.solve().status == "sat"
    finally:
        session.close()


def test_native_signature_names_underlying_solver():
    session = NativeSession()
    try:
        assert "cadical" in session.signature().lower()
    finally:
        session.close()


def test_add_cnf_bulk_matches_per_clause(fig1_sample):
    cnf, _ = build_encoding(fig1_sample, 3, O_ALL)
    bulk = NativeSession()
    single = NativeSession()
    try:
        bulk.add_cnf(cnf)
        for clause in cnf.clauses():
            single.add_clause(clause)
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
        if full.conflicts is None:  # the backend does not count them
            assert limited.conflicts is None
        else:
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
            session.add_clause(clause)
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


@pytest.mark.parametrize("backend", ["native", f"dimacs:{DIMACS_SOLVER}"],
                         ids=["native", "dimacs"])
def test_add_cnf_counts_undeclared_variables(backend):
    # a hand-built Cnf that never calls declare_vars still gets a model
    # covering every variable its clauses mention
    cnf = Cnf()
    cnf.add("t", [1, 2])
    cnf.add("t", [-1, 3])
    session = make_session(SolverConfig(backend=backend))
    try:
        session.add_cnf(cnf)
        assert session.num_vars == 3
        out = session.solve(assumptions=[1])
        assert out.status == "sat"
        assert len(out.model) == 4
        assert out.model[1] and out.model[3]
    finally:
        session.close()


def test_declare_vars_reserves_ids():
    session = NativeSession()
    try:
        session.add_clause([1])
        session.declare_vars(5)
        assert session.num_vars == 5
        assert len(session.solve().model) == 6
    finally:
        session.close()


# -- DIMACS

def test_export_dimacs_minimal_example():
    cnf = Cnf()
    cnf.add("t", [1, -2])
    assert export_dimacs(cnf) == "p cnf 2 1\n1 -2 0\n"


def test_export_dimacs_counts_undeclared_variables():
    # literal 5 and -5 lie beyond the declared 2 variables; -5 must not be
    # looked up as a negative index from the end of a literal table
    cnf = Cnf()
    cnf.declare_vars(2)
    cnf.add("t", [1, -5])
    assert export_dimacs(cnf) == "p cnf 5 1\n1 -5 0\n"


def test_export_dimacs_empty():
    assert export_dimacs(Cnf()) == "p cnf 0 0\n"


def test_export_dimacs_with_varmap_comments(fig1_sample):
    cnf, vm = build_encoding(fig1_sample, 2, O_ALL)
    text = export_dimacs(cnf, vm)
    lines = text.splitlines()
    assert lines[0].startswith("c 1 = x[1,")
    header = next(l for l in lines if l.startswith("p "))
    assert header == f"p cnf {vm.num_vars} {cnf.num_clauses}"


def test_parse_dimacs_round_trip(fig1_sample):
    cnf, vm = build_encoding(fig1_sample, 4, O_ALL)
    num_vars, clauses = parse_dimacs(export_dimacs(cnf, vm))
    assert num_vars == vm.num_vars
    assert len(clauses) == cnf.num_clauses
    session = NativeSession()
    try:
        for clause in clauses:
            session.add_clause(clause)
        assert session.solve().status == "sat"
    finally:
        session.close()


def test_export_matches_per_clause_text_with_roles():
    sample = gen_random(60, 2, 2, 0.1, 3, 3, seed=3)
    cnf, vm = build_encoding(sample, 6, O_ALL)
    clauses = list(cnf.clauses())
    assert len(cnf.lits) > 1 << 16  # more than one piece of text
    text = export_dimacs(cnf)
    # the plain one-line-per-clause rendering is the reference
    assert text == (f"p cnf {vm.num_vars} {cnf.num_clauses}\n" + "".join(
        " ".join(map(str, clause + [0])) + "\n" for clause in clauses))
    assert parse_dimacs(text) == (vm.num_vars, clauses)
    assert len(clauses) == cnf.num_clauses


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(SolverError):
        parse_dimacs("p dnf 2 1\n1 0\n")


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
                assert fits(concept, fig1_sample)
        finally:
            session.close()


def test_make_session_backends():
    assert isinstance(make_session(SolverConfig(backend="native")),
                      NativeSession)
    assert isinstance(
        make_session(SolverConfig(backend=f"dimacs:{DIMACS_SOLVER}")),
        DimacsSession)
    with pytest.raises(SolverError):
        make_session(SolverConfig(backend="minisat"))
    with pytest.raises(SolverError):
        make_session(SolverConfig(backend="dimacs:"))


def test_missing_subprocess_command_raises():
    session = DimacsSession("definitely-not-a-real-solver-binary")
    session.add_clause([1])
    with pytest.raises(SolverError):
        session.solve()
