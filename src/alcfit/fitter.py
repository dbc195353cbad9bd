"""Minimum-size fitting by iterative deepening over exact-size encodings,
plus the anytime coverage-maximization variant.

Exact mode solves "some size-k concept fits" for k = 1, 2, ...; the first
satisfiable k is minimal by construction.  Approximate mode keeps a coverage
target m across the k loop: within one k (and one incremental solver
session) it repeatedly asks for a size-k concept covering at least m
examples, records each witness, and raises m past the witness's true
coverage; when size k cannot reach m it moves on to k+1 with a fresh
encoding.  Interrupting at any point leaves the best recorded concept.

Both modes take each size-k encoding from encode_size, the one place that
assembles syntax, semantics and symmetry-breaking clauses, and add their
goal to it: the fitting units, or the coverage counter.

Every concept handed back has been re-checked against the sample by direct
evaluation; a mismatch between solver model and evaluation aborts the run
instead of returning a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .concepts import (Concept, O_ALL, OperatorSet, Top, evaluate,
                       in_fragment, size)
from .data import Sample, TypeTable, compute_types, interpretation_signature
from .encoder import (Cnf, EncodingError, VarMap, decode_model,
                      encode_coverage_at_least, encode_fitting,
                      encode_semantics_base, encode_semantics_typed,
                      encode_syntax, encode_templates)
from .solver import SolverConfig, make_session

__all__ = [
    "FITTED", "NO_FIT_WITHIN_BOUND", "APPROXIMATE", "TIMED_OUT",
    "FitConfig", "FitResult", "KStat", "VerifyReport",
    "encode_size", "bounded_fit", "approx_fit", "verify",
]

FITTED = "fitted"
NO_FIT_WITHIN_BOUND = "no_fit_within_bound"
APPROXIMATE = "approximate"
TIMED_OUT = "timed_out"

K_HORIZON = 4  # approximate mode spreads the budget over this many sizes


@dataclass(frozen=True)
class FitConfig:
    ops: OperatorSet = O_ALL
    k_max: int = 12
    budget: float | None = None       # wall-clock seconds for the whole run
    typed: bool = True
    templates: bool = True
    seed: int = 0
    mode: str = "exact"               # exact | approximate
    backend: str = "native"

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.mode not in ("exact", "approximate"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class KStat:
    k: int
    num_vars: int
    num_clauses: int
    status: str         # solver status of the last call at this k
    time: float
    best_m: int | None = None


@dataclass(frozen=True)
class VerifyReport:
    fits: bool
    coverage: int
    misclassified: tuple[str, ...]


@dataclass(frozen=True)
class FitResult:
    status: str
    concept: Concept | None
    coverage: int | None
    size: int | None
    per_k: tuple[KStat, ...] = ()
    coverage_history: tuple[int, ...] = ()


def encode_size(sample: Sample, k: int, ops: OperatorSet = O_ALL, *,
                typed: bool = True, templates: bool = True,
                types: TypeTable | None = None, bans: bool | None = None,
                count_only: bool = False) -> tuple[Cnf, VarMap]:
    """The size-k encoding of the sample without a goal: syntax trees over
    the fragment's alphabet, the semantics of every node in the sample's
    interpretation, and (templates) level-order symmetry breaking plus the
    pattern bans that `bans` selects (None: pattern_bans_active).  Callers
    add encode_fitting or encode_coverage_at_least.

    typed uses the type-table name semantics; `types`, the sample
    interpretation's table, is computed here when not given.  count_only
    counts the semantics clauses without building them; the result then
    cannot be solved or exported.
    """
    interp = sample.interp
    cnf, vm = encode_syntax(k, ops, interpretation_signature(interp))
    if count_only:
        cnf = Cnf(store=False).absorb(cnf)
    if typed:
        if types is None:
            types = compute_types(interp)
        cnf.absorb(encode_semantics_typed(k, interp, vm, types,
                                          count_only=count_only))
    else:
        cnf.absorb(encode_semantics_base(k, interp, vm,
                                         count_only=count_only))
    if templates:
        cnf.absorb(encode_templates(k, vm, bans=bans))
    return cnf, vm


def verify(concept: Concept, sample: Sample) -> VerifyReport:
    """Evaluate the concept and compare against the sample's labels."""
    ext = evaluate(concept, sample.interp)
    wrong = [a for a in sample.positives if a not in ext]
    wrong += [b for b in sample.negatives if b in ext]
    total = len(sample.positives) + len(sample.negatives)
    return VerifyReport(not wrong, total - len(wrong), tuple(wrong))


def _checked_decode(model, vm: VarMap, sample: Sample, cfg: FitConfig,
                    min_coverage: int) -> tuple[Concept, VerifyReport]:
    """Decode and independently re-verify; inconsistency means the encoding
    or solver is broken, which must never surface as a quiet wrong answer."""
    concept = decode_model(model, vm)
    if size(concept) != vm.k:
        raise EncodingError(
            f"decoded concept has size {size(concept)}, encoding asked {vm.k}")
    if not in_fragment(concept, cfg.ops):
        raise EncodingError("decoded concept leaves the operator fragment")
    report = verify(concept, sample)
    if report.coverage < min_coverage:
        raise EncodingError(
            f"decoded concept covers {report.coverage} < promised "
            f"{min_coverage} examples")
    return concept, report


@dataclass
class _Run:
    sample: Sample
    cfg: FitConfig
    deadline: float | None
    types: TypeTable | None
    stats: list[KStat] = field(default_factory=list)

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def out_of_time(self) -> bool:
        left = self.remaining()
        return left is not None and left <= 0

    def session(self):
        return make_session(SolverConfig(backend=self.cfg.backend,
                                         seed=self.cfg.seed))


def _prepare(sample: Sample, cfg: FitConfig, mode: str) -> _Run:
    if cfg.mode != mode:
        raise ValueError(f"configuration mode {cfg.mode!r}; expected {mode!r}")
    deadline = (None if cfg.budget is None
                else time.monotonic() + cfg.budget)
    types = compute_types(sample.interp) if cfg.typed else None
    return _Run(sample, cfg, deadline, types)


def _trivial_result(sample: Sample) -> FitResult | None:
    if sample.positives or sample.negatives:
        return None
    return FitResult(FITTED, Top(), coverage=0, size=1)


def bounded_fit(sample: Sample, cfg: FitConfig = FitConfig()) -> FitResult:
    """Smallest-size exact fitting within cfg.k_max, or why there is none."""
    trivial = _trivial_result(sample)
    if trivial is not None:
        return trivial
    run = _prepare(sample, cfg, "exact")
    total = sample.num_examples
    for k in range(1, cfg.k_max + 1):
        if run.out_of_time():
            return FitResult(TIMED_OUT, None, None, None, tuple(run.stats))
        cnf, vm = encode_size(sample, k, cfg.ops, typed=cfg.typed,
                              templates=cfg.templates, types=run.types)
        with run.session() as sess:
            sess.add_cnf(cnf)
            sess.add_cnf(encode_fitting(sample, vm))
            out = sess.solve(timeout=run.remaining())
            run.stats.append(KStat(k, sess.num_vars, sess.num_clauses,
                                   out.status, out.time))
            if out.is_sat:
                concept, report = _checked_decode(
                    out.model, vm, sample, cfg, total)
                return FitResult(FITTED, concept, report.coverage, k,
                                 tuple(run.stats), (report.coverage,))
            if not out.is_unsat:
                return FitResult(TIMED_OUT, None, None, None,
                                 tuple(run.stats))
    return FitResult(NO_FIT_WITHIN_BOUND, None, None, None, tuple(run.stats))


def approx_fit(sample: Sample, cfg: FitConfig = FitConfig(mode="approximate"),
               ) -> FitResult:
    """Anytime coverage maximization; see the module docstring."""
    trivial = _trivial_result(sample)
    if trivial is not None:
        return trivial
    run = _prepare(sample, cfg, "approximate")
    total = sample.num_examples
    m = 1
    best: Concept | None = None
    best_cov = 0
    history: list[int] = []

    def wrap_up() -> FitResult:
        status = TIMED_OUT if run.out_of_time() else APPROXIMATE
        if best is None:
            status = TIMED_OUT if run.out_of_time() else NO_FIT_WITHIN_BOUND
            return FitResult(status, None, None, None, tuple(run.stats),
                             tuple(history))
        return FitResult(status, best, best_cov, size(best),
                         tuple(run.stats), tuple(history))

    for k in range(1, cfg.k_max + 1):
        if run.out_of_time():
            return wrap_up()
        left = run.remaining()
        slice_deadline = (None if left is None
                          else time.monotonic() + left / K_HORIZON)
        cnf, vm = encode_size(sample, k, cfg.ops, typed=cfg.typed,
                              templates=cfg.templates, types=run.types)
        spent = 0.0
        last_status = "none"
        with run.session() as sess:
            sess.add_cnf(cnf)
            while True:
                if run.out_of_time():
                    run.stats.append(KStat(k, sess.num_vars,
                                           sess.num_clauses, last_status,
                                           spent, best_cov))
                    return wrap_up()
                sess.add_cnf(encode_coverage_at_least(sample, m, vm))
                budgets = [b for b in (run.remaining(),
                                       None if slice_deadline is None else
                                       slice_deadline - time.monotonic())
                           if b is not None]
                out = sess.solve(timeout=min(budgets) if budgets else None)
                spent += out.time
                last_status = out.status
                if out.is_sat:
                    concept, report = _checked_decode(
                        out.model, vm, sample, cfg, m)
                    best, best_cov = concept, report.coverage
                    history.append(report.coverage)
                    if best_cov == total:
                        run.stats.append(KStat(k, sess.num_vars,
                                               sess.num_clauses, out.status,
                                               spent, best_cov))
                        return FitResult(FITTED, best, best_cov, size(best),
                                         tuple(run.stats), tuple(history))
                    m = best_cov + 1
                    continue
                # unsat: size k cannot reach m; unknown: slice expired
                run.stats.append(KStat(k, sess.num_vars, sess.num_clauses,
                                       out.status, spent, best_cov))
                break
    return wrap_up()
