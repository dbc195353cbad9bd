#!/usr/bin/env python3
"""Standalone DIMACS solver over the bundled native backend.

Reads one .cnf file, prints the usual `s`/`v` lines, exits 10 on sat and
20 on unsat.  Exists so the subprocess solver backend can be exercised
without any third-party solver installed:

    alcfit fit sample.manifest --backend "dimacs:python3 scripts/dimacs_solve.py"
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from alcfit.encoder import Cnf
    from alcfit.solver import NativeSession, SolverError, parse_dimacs
except ModuleNotFoundError as exc:  # not installed: use this checkout's
    if exc.name != "alcfit":
        raise
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from alcfit.encoder import Cnf
    from alcfit.solver import NativeSession, SolverError, parse_dimacs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cnf", help="DIMACS CNF file")
    args = parser.parse_args(argv)

    try:
        num_vars, clauses = parse_dimacs(
            Path(args.cnf).read_text(encoding="utf-8"))
    except SolverError as exc:  # no `s` line: the caller sees a failure
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    if not all(clauses):  # an empty clause: no solver needed
        print("s UNSATISFIABLE")
        return 20
    cnf = Cnf()
    cnf.declare_vars(num_vars)
    for clause in clauses:
        cnf.add("dimacs", clause)
    session = NativeSession()
    session.add_cnf(cnf)
    outcome = session.solve()
    if outcome.status == "sat":
        print("s SATISFIABLE")
        lits = [v if outcome.model[v] else -v for v in range(1, num_vars + 1)]
        for start in range(0, len(lits), 20):
            print("v " + " ".join(str(l) for l in lits[start:start + 20]))
        print("v 0")
        return 10
    if outcome.status == "unsat":
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
