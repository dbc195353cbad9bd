"""Incremental SAT sessions: an in-process native backend and a DIMACS
subprocess fallback, behind one small session contract: a session from
``make_session(backend)``, clauses only through ``add_cnf``, then ``solve``
and ``close``.

The native backend is the built-in CDCL solver of ``native/cdcl`` behind a
tiny C ABI (bundled as ``_native/libsatbridge.so``; rebuild with
``scripts/build_native.py``).  The seven ``satbridge_*`` calls and their
conventions are written in ``native/cdcl/src/lib.rs``, directly over the
solver, and ``_load_library`` binds each one.  The solver is deterministic
for a fixed clause sequence and takes no seed, so the search is fixed by
the clauses alone.  Any other solver runs as a DIMACS subprocess
(``dimacs:<command>``).

A session counts no literals itself: its variable count is the largest
``Cnf.num_vars`` it was given (see ``encoder.Cnf``), |assumption| or
``declare_vars`` argument, and a model covers exactly those variables.
DIMACS export writes the Cnf's count in its header and refuses a literal
beyond it, which only a recipe that reads undeclared variables can hold.

``export_dimacs`` makes the DIMACS text: a ``DimacsText`` that yields it
as ASCII byte pieces as they are rendered, so no sink holds the whole
text.  ``alcfit encode`` writes it to its output, and a DIMACS session
writes it, for its clauses and assumptions, to the clause file before it
starts the solver's clock.  Literals are looked up in one list of tokens
indexed by literal, a whole run at a time, and a recipe lays out the
tokens of the int arrays it reads (``reads``, ``lay``: the export reads a
recipe through nothing else); each int array is range-checked once,
before any text is made (``_check_literals``).  While it renders, an
export holds that list, the tokens of each array the blocks read and the
piece at hand.

Budgets are cooperative: a conflict budget or wall-clock timeout makes the
backend give up and report "unknown", it is never killed mid-solve.  A
timeout of zero or less means the time is already up: the solve reports
"unknown" without searching.  ``None`` means no limit, and so does a
timeout longer than ``subprocess`` can wait (about 24.8 days, ``inf``
included); a NaN timeout is refused.  A conflict budget must not be
negative, and only the native backend takes one.
"""

from __future__ import annotations

import ctypes
import math
import shlex
import subprocess
import tempfile
import time
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .encoder import Cnf, EncodingError, VarMap

__all__ = [
    "SolverError", "SolveOutcome", "SolverSession",
    "NativeSession", "DimacsSession", "check_backend", "make_session",
    "DimacsText", "export_dimacs", "parse_dimacs",
]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# the longest timeout, in seconds, that subprocess can wait (it polls in C
# int milliseconds); solve reads a longer one, inf included, as no limit
_LONGEST_WAIT = (2**31 - 1) // 1000


class SolverError(RuntimeError):
    """Backend failure: missing library, bad subprocess output, misuse."""


@dataclass(frozen=True)
class SolveOutcome:
    status: str                    # sat / unsat / unknown
    model: tuple[bool, ...] | None  # indexed by variable id; [0] unused
    time: float
    conflicts: int | None = None   # None from a DIMACS or a skipped solve

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


class SolverSession:
    """Shared bookkeeping for both backends."""

    def __init__(self):
        self.num_vars = 0
        self.num_clauses = 0

    def declare_vars(self, n: int) -> None:
        """Reserve variable ids up to n even if no clause mentions them."""
        if n > self.num_vars:
            self.num_vars = n

    def add_cnf(self, cnf: Cnf) -> None:
        """Add the Cnf's clauses, the one way in for clauses."""
        raise NotImplementedError

    def solve(self, assumptions=(), conflict_budget: int | None = None,
              timeout: float | None = None) -> SolveOutcome:
        """Solve under the assumptions (0 is no literal; their variables are
        counted) within the budgets of the module docstring."""
        self._check_budget(conflict_budget)
        if timeout is not None and math.isnan(timeout):
            raise ValueError("timeout is NaN")
        assumptions = list(assumptions)
        if 0 in assumptions:
            raise SolverError(f"literal 0 in assumptions {assumptions}")
        self.declare_vars(max(map(abs, assumptions), default=0))
        if timeout is not None and timeout <= 0:
            return SolveOutcome(UNKNOWN, None, 0.0)
        if timeout is not None and timeout > _LONGEST_WAIT:
            timeout = None
        return self._search(assumptions, conflict_budget, timeout)

    def _check_budget(self, conflict_budget: int | None) -> None:
        raise NotImplementedError

    def _search(self, assumptions: list[int], conflict_budget: int | None,
                timeout: float | None) -> SolveOutcome:
        """The solve itself, for a positive timeout or None."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# native backend

_LIB: ctypes.CDLL | None = None


def _load_library() -> ctypes.CDLL:
    global _LIB
    if _LIB is not None:
        return _LIB
    root = Path(__file__).resolve().parent / "_native"
    for name in ("libsatbridge.so", "libsatbridge.dylib", "satbridge.dll"):
        path = root / name
        if path.exists():
            lib = ctypes.CDLL(str(path))
            break
    else:
        raise SolverError(
            f"no native solver library under {root}; "
            "run scripts/build_native.py or use a dimacs:<cmd> backend")
    lib.satbridge_new.restype = ctypes.c_void_p
    lib.satbridge_free.argtypes = [ctypes.c_void_p]
    lib.satbridge_add_clauses.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_size_t]
    lib.satbridge_add_clauses.restype = ctypes.c_int64
    lib.satbridge_solve.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_size_t,
        ctypes.c_int64, ctypes.c_double]
    lib.satbridge_solve.restype = ctypes.c_int32
    lib.satbridge_model.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int8), ctypes.c_size_t]
    lib.satbridge_model.restype = None
    lib.satbridge_conflicts.argtypes = [ctypes.c_void_p]
    lib.satbridge_conflicts.restype = ctypes.c_int64
    lib.satbridge_signature.restype = ctypes.c_char_p
    _LIB = lib
    return lib


def _int32s(buf: array) -> tuple:
    """An int array as the C calls take it: a pointer and a length."""
    addr, count = buf.buffer_info()
    return ctypes.cast(addr, ctypes.POINTER(ctypes.c_int32)), count


class NativeSession(SolverSession):
    def __init__(self):
        super().__init__()
        self._lib = _load_library()
        self._ptr = self._lib.satbridge_new()
        if not self._ptr:
            raise SolverError("could not create native solver instance")

    def add_cnf(self, cnf: Cnf) -> None:
        self.declare_vars(cnf.num_vars)
        # part by part, so no flat copy of the whole CNF is made; `buf`
        # keeps each part's ints alive while the solver reads them
        for buf in cnf.arrays():
            self.num_clauses += self._lib.satbridge_add_clauses(
                self._ptr, *_int32s(buf))

    def _check_budget(self, conflict_budget: int | None) -> None:
        if conflict_budget is not None and conflict_budget < 0:
            raise ValueError(f"negative conflict budget {conflict_budget}")

    def _search(self, assumptions: list[int], conflict_budget: int | None,
                timeout: float | None) -> SolveOutcome:
        keep = array("i", assumptions)  # alive while the solver reads it
        start = time.perf_counter()
        rc = self._lib.satbridge_solve(
            self._ptr, *_int32s(keep),
            -1 if conflict_budget is None else conflict_budget,
            0.0 if timeout is None else timeout)
        elapsed = time.perf_counter() - start
        conflicts = self._lib.satbridge_conflicts(self._ptr)
        if rc == 10:
            values = (ctypes.c_int8 * (self.num_vars + 1))()
            self._lib.satbridge_model(self._ptr, values, len(values))
            return SolveOutcome(SAT, tuple(v > 0 for v in values), elapsed,
                                conflicts)
        if rc == 20:
            return SolveOutcome(UNSAT, None, elapsed, conflicts)
        return SolveOutcome(UNKNOWN, None, elapsed, conflicts)

    def signature(self) -> str:
        """The built-in solver's name and version."""
        return self._lib.satbridge_signature().decode()

    def close(self) -> None:
        if self._ptr:
            self._lib.satbridge_free(self._ptr)
            self._ptr = None


# ---------------------------------------------------------------------------
# DIMACS pipeline

_CHUNK = 1 << 16  # literals per piece of a literal run's DIMACS text


def _check_literals(parts, num_vars: int) -> None:
    """Raise EncodingError if an int array of the parts holds a literal
    beyond num_vars, checking each array once, however many recipes share
    it.  A run counts its own literals, so only a recipe that reads
    undeclared variables, an encoder bug, holds one."""
    seen: set[int] = set()
    for part in parts:
        for lits in (part,) if isinstance(part, array) else part.reads:
            if id(lits) in seen:
                continue
            seen.add(id(lits))
            if lits and (max(lits) > num_vars or min(lits) < -num_vars):
                bad = next(lit for lit in lits
                           if not -num_vars <= lit <= num_vars)
                raise EncodingError(f"literal {bad} beyond the {num_vars} "
                                    "declared variables")


class DimacsText:
    """A Cnf's standard DIMACS text, made as it is read: iterating yields
    it as ASCII byte pieces, each rendered as it is asked for, and len()
    renders it once more to count them.  Between reads it holds only its
    header and the Cnf's parts.  Making one range-checks every literal, so
    a literal beyond the header's count raises EncodingError before any
    text is read."""

    def __init__(self, cnf: Cnf, vm: VarMap | None = None):
        num_vars = max(cnf.num_vars, vm.num_vars if vm else 0)
        self._parts = tuple(cnf.parts)
        _check_literals(self._parts, num_vars)
        comments = "" if vm is None else "\n".join(vm.comment_lines()) + "\n"
        self._head = f"{comments}p cnf {num_vars} {cnf.num_clauses}\n"
        self._num_vars = num_vars

    def _pieces(self) -> Iterator[str]:
        """The text, one piece per recipe and per _CHUNK literals of a run.
        The tokens sit in one list indexed by literal, 0..num_vars from the
        front and -num_vars..-1 from the back, so each int array must have
        passed _check_literals; a recipe lays out the tokens of the arrays
        it reads, made once per array however many blocks share it."""
        yield self._head
        table = [f"{lit} " for lit in range(self._num_vars + 1)]
        table[0] = "0\n"  # the 0 that ends a clause
        table += [f"{lit} " for lit in range(-self._num_vars, 0)]
        token = table.__getitem__
        made: dict[int, list[str]] = {}  # id of an int array: its tokens

        def tokens(lits: array) -> list[str]:
            got = made.get(id(lits))
            if got is None:
                got = made[id(lits)] = list(map(token, lits))
            return got

        for part in self._parts:
            if isinstance(part, array):
                for start in range(0, len(part), _CHUNK):
                    yield "".join(map(token, part[start:start + _CHUNK]))
            else:
                yield "".join(part.lay(tokens))

    def __iter__(self) -> Iterator[bytes]:
        return map(str.encode, self._pieces())

    def __len__(self) -> int:
        return sum(map(len, self._pieces()))


def export_dimacs(cnf: Cnf, vm: VarMap | None = None) -> DimacsText:
    """The Cnf's DIMACS text, to be written piece by piece; with a
    variable map, `c <id> = <tag>` comments document the encoding (stable
    across runs for identical inputs)."""
    return DimacsText(cnf, vm)


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """The variable count and clauses of DIMACS CNF text.  A header or
    clause line with a token that is not an integer (a SATLIB file's `%`
    end marker, say) is a SolverError that names the line."""
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        header, parts = line.startswith("p"), line.split()
        if header and (len(parts) != 4 or parts[1] != "cnf"):
            raise SolverError(f"bad DIMACS header: {line!r}")
        try:
            ints = [int(tok) for tok in (parts[2:] if header else parts)]
        except ValueError:
            raise SolverError(f"bad DIMACS line {lineno}: {line!r}") from None
        if header:
            num_vars = ints[0]
            continue
        for lit in ints:
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    return num_vars, clauses


class DimacsSession(SolverSession):
    """One-shot subprocess backend: each solve writes export_dimacs of the
    accumulated clauses (assumptions appended as units) to a fresh file and
    runs the configured command on it.  Exit code 10 or an `s SATISFIABLE`
    line means sat, 20 / `s UNSATISFIABLE` unsat, any other `s` line (such
    as `s UNKNOWN`) or a timeout unknown.  A command that exits otherwise
    without an `s` line, answers sat without a `v` line or gives a `v`
    line that is not integers, has failed: SolverError."""

    def __init__(self, command: str):
        super().__init__()
        self._argv = shlex.split(check_backend("dimacs:" + command))
        self._cnf = Cnf()  # every clause so far, as the parts given

    def add_cnf(self, cnf: Cnf) -> None:
        self.declare_vars(cnf.num_vars)
        self._cnf.absorb(cnf)
        self.num_clauses += cnf.num_clauses

    def _check_budget(self, conflict_budget: int | None) -> None:
        if conflict_budget is not None:
            raise SolverError("the DIMACS backend takes no conflict budget")

    def _search(self, assumptions: list[int], conflict_budget: int | None,
                timeout: float | None) -> SolveOutcome:
        cnf = Cnf().absorb(self._cnf)
        for lit in assumptions:
            cnf.add("assumption", [lit])
        cnf.declare_vars(self.num_vars)
        text = export_dimacs(cnf)
        fd, name = tempfile.mkstemp(suffix=".cnf", prefix="alcfit-")
        path = Path(name)
        try:
            # written as rendered; the clock covers the solver alone
            with open(fd, "wb") as fh:
                fh.writelines(text)
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    self._argv + [name], capture_output=True, text=True,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                return SolveOutcome(UNKNOWN, None,
                                    time.perf_counter() - start)
            except OSError as exc:
                raise SolverError(
                    f"cannot run {self._argv[0]!r}: {exc}") from exc
            elapsed = time.perf_counter() - start
        finally:
            path.unlink(missing_ok=True)
        status = UNKNOWN
        if proc.returncode == 10:
            status = SAT
        elif proc.returncode == 20:
            status = UNSAT
        values: dict[int, bool] = {}
        answered = modelled = False
        for raw in proc.stdout.splitlines():
            line = raw.strip()
            if line.startswith("s "):
                answered = True
                verdict = line[2:].strip().upper()
                if verdict == "SATISFIABLE":
                    status = SAT
                elif verdict == "UNSATISFIABLE":
                    status = UNSAT
            elif line.startswith("v "):
                modelled = True
                try:
                    lits = [int(tok) for tok in line[2:].split()]
                except ValueError:
                    raise SolverError(f"{self._argv[0]!r} gave a bad `v` "
                                      f"line: {line!r}") from None
                for lit in lits:
                    if lit:
                        values[abs(lit)] = lit > 0
        if proc.returncode not in (10, 20) and not answered:
            errors = proc.stderr.strip().splitlines()
            raise SolverError(
                f"{self._argv[0]!r} exited with code {proc.returncode} and "
                "gave no answer"
                + (f": {errors[-1].strip()}" if errors else ""))
        if status == SAT:
            if not modelled:
                raise SolverError(f"{self._argv[0]!r} answered SAT but gave "
                                  "no model (no `v` line)")
            model = tuple(values.get(v, False)
                          for v in range(self.num_vars + 1))
            return SolveOutcome(SAT, model, elapsed)
        return SolveOutcome(status, None, elapsed)


def check_backend(backend: str) -> str | None:
    """The command of a "dimacs:<command>" backend, None for "native".
    Any other string, or an empty command, is a SolverError; nothing is
    loaded or run."""
    if backend == "native":
        return None
    if not backend.startswith("dimacs:"):
        raise SolverError(f"unknown backend {backend!r}; "
                          "use 'native' or 'dimacs:<command>'")
    command = backend[len("dimacs:"):]
    if not shlex.split(command):
        raise SolverError("empty DIMACS backend command")
    return command


def make_session(backend: str = "native") -> SolverSession:
    """A new session on the backend that check_backend reads."""
    command = check_backend(backend)
    return NativeSession() if command is None else DimacsSession(command)
