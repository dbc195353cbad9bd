"""Minimum-size fitting by iterative deepening over exact-size encodings,
plus the anytime coverage-maximization variant.

Both modes are one loop (_fit), and the entry point is the mode:
bounded_fit runs it exact, approx_fit approximate, over the same FitConfig.
It first takes the sample's bisimulation quotient (data.quotient): no
concept tells bisimilar elements apart, or reads an element no example
reaches, so every z row and semantics block is built per class of
reachable elements, not per domain element, and the names that share an
extension on the classes share one label (folded_signature).  In exact
mode a positive and a negative example in one class end the run at once
(no_fit_within_bound, with the pair as FitResult.reason).  Then, for
k = 1, 2, ..., k_max, it takes the size-k encoding from encode_size, the
one place that assembles syntax, semantics and symmetry-breaking clauses,
opens one solver session on it and adds the mode's goal:

- exact mode adds the fitting units once; the first satisfiable k is
  minimal by construction, and an unsatisfiable k moves on to k+1;
- approximate mode adds a counter for "covers at least m examples", with m
  one past the best coverage found so far (carried across k).  Each witness
  raises m, and the same session is asked again; when size k cannot reach
  m, or its share of the budget (1/K_HORIZON of what is left once the
  size-k encoding is built) is spent, the loop moves on to k+1.
  The budget (``fit --timeout``) is what ends an anytime run with its best
  concept so far.  An interrupt takes effect only once the running native
  solve returns, as a KeyboardInterrupt, and the result is lost with it.

Every concept handed back has been re-checked against the original sample
by direct evaluation; a mismatch between solver model and evaluation aborts
the run instead of returning a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .concepts import (Concept, O_ALL, OperatorSet, Signature, Top,
                       evaluate, in_fragment, size)
from .data import (Quotient, Sample, TypeTable, compute_types,
                   interpretation_signature, quotient as sample_quotient)
from .encoder import (Cnf, EncodingError, VarMap, decode_model,
                      encode_coverage_at_least, encode_fitting,
                      encode_semantics_base, encode_semantics_typed,
                      encode_syntax, encode_templates)
from .solver import check_backend, make_session

__all__ = [
    "FITTED", "NO_FIT_WITHIN_BOUND", "APPROXIMATE", "TIMED_OUT",
    "FitConfig", "FitResult", "KStat", "VerifyReport",
    "folded_signature", "bisimilar_reason", "encode_size", "bounded_fit",
    "approx_fit", "verify",
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
    seed: int = 0                     # reaches no solver yet
    backend: str = "native"           # "native" or "dimacs:<command>"

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.budget is not None and not self.budget >= 0:  # NaN too
            raise ValueError(f"budget must be at least 0, not {self.budget}")
        check_backend(self.backend)  # a run may never open a session


@dataclass(frozen=True)
class KStat:
    k: int
    num_vars: int
    num_clauses: int
    status: str         # solver status of the last call at this k
    time: float
    best_m: int | None = None       # approximate mode: best coverage so far
    # summed over this k's solves; None where none was counted (the DIMACS
    # backend, or a solve skipped because its budget was already spent)
    conflicts: int | None = None


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
    classes: int | None = None      # bisimulation classes encoded
    names: int | None = None        # concept names encoded (folded_signature)
    reason: str | None = None       # why no concept can fit, when known


def folded_signature(sample: Sample, q: Quotient) -> Signature:
    """The sample's signature folded onto its quotient: one concept name
    per distinct extension on the classes that is neither empty nor full,
    the first in sorted order; every role name.

    A dropped name has a size-1 stand-in with the same value at every
    class: bot for an empty extension, top for a full one, the kept name
    for an equal one.  So every size-k concept over the sample's signature
    has a size-k twin over the folded one that fits the same examples.
    Keeping every role name also keeps the pattern-ban policy, which reads
    only the role names (pattern_bans_active): it decides the same on the
    folded signature as on the sample's."""
    sigma = interpretation_signature(sample.interp)
    full = len(q.interp.domain)
    kept: dict[frozenset[str], str] = {}
    for name in sorted(sigma.concept_names):
        ext = q.interp.concept_ext.get(name)  # absent when empty
        if ext and len(ext) < full:
            kept.setdefault(ext, name)
    return Signature(frozenset(kept.values()), sigma.role_names)


def encode_size(sample: Sample, k: int, ops: OperatorSet = O_ALL, *,
                typed: bool = True, templates: bool = True,
                quotient: Quotient | None = None,
                types: TypeTable | None = None, bans: bool | None = None,
                ) -> tuple[Cnf, VarMap]:
    """The size-k encoding of the sample without a goal: syntax trees over
    the fragment's alphabet, the semantics of every node in the sample's
    quotient, and (templates) level-order symmetry breaking plus the
    pattern bans that `bans` selects.  bans=None leaves the choice to
    encode_templates, which applies pattern_bans_active to the folded
    signature; that policy reads only the role names, which the fold keeps
    (folded_signature), so it is the sample's own.  Callers add
    encode_fitting or encode_coverage_at_least.

    The z and child rows are per bisimulation class of the reachable
    elements (`quotient`, computed here when not given), and the variable
    map resolves each example to its class.  The alphabet's names are
    folded_signature's, one per distinct extension on the classes; decoding
    names the kept one.  typed uses the type-table name semantics; `types`,
    the quotient interpretation's table, is computed here when not given.
    The map is bound once, to the quotient and (typed) its table, right
    after the syntax; the semantics and template builders read k, the rows
    and the table from it.  Every semantics block is kept as a recipe over
    shared rows (encoder.Cnf), so the counts are those of the clauses that
    a solver reads and DIMACS export renders.
    """
    if quotient is None:
        quotient = sample_quotient(sample)
    cnf, vm = encode_syntax(k, ops, folded_signature(sample, quotient))
    if not typed:
        types = None
    elif types is None:
        types = compute_types(quotient.interp)
    vm.bind(quotient, types)
    cnf.absorb(encode_semantics_typed(vm) if typed
               else encode_semantics_base(vm))
    if templates:
        cnf.absorb(encode_templates(vm, bans=bans))
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


def _seconds_left(*deadlines: float | None) -> float | None:
    """Seconds until the earliest given deadline; None when there is none."""
    ends = [d for d in deadlines if d is not None]
    return min(ends) - time.monotonic() if ends else None


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _result(status: str, best: Concept | None, coverage: int,
            stats: list[KStat], history: list[int],
            encoded: dict[str, int]) -> FitResult:
    """encoded: the classes and names counts of FitResult."""
    if best is None:
        return FitResult(status, None, None, None, tuple(stats),
                         tuple(history), **encoded)
    return FitResult(status, best, coverage, size(best), tuple(stats),
                     tuple(history), **encoded)


def bisimilar_reason(sample: Sample, q: Quotient) -> str | None:
    """Why no concept fits the sample when a positive and a negative share
    a class of its quotient q: the first such negative with the first
    positive of its class.  None when the classes separate the labels."""
    first_positive: dict[int, str] = {}
    for a in sample.positives:
        first_positive.setdefault(q.row[a], a)
    for b in sample.negatives:
        a = first_positive.get(q.row[b])
        if a is not None:
            return (f"positive {a} and negative {b} are bisimilar; "
                    "no concept separates them")
    return None


def _fit(sample: Sample, cfg: FitConfig, exact: bool) -> FitResult:
    """The k loop of both modes; see the module docstring."""
    total = sample.num_examples
    if total == 0:
        return FitResult(FITTED, Top(), coverage=0, size=1)
    deadline = (None if cfg.budget is None
                else time.monotonic() + cfg.budget)
    q = sample_quotient(sample)
    encoded = {"classes": len(q.interp.domain),
               "names": len(folded_signature(sample, q).concept_names)}
    if exact:
        reason = bisimilar_reason(sample, q)
        if reason is not None:
            return FitResult(NO_FIT_WITHIN_BOUND, None, None, None,
                             reason=reason, **encoded)
    types = compute_types(q.interp) if cfg.typed else None
    stats: list[KStat] = []
    history: list[int] = []
    best: Concept | None = None
    best_cov = 0
    for k in range(1, cfg.k_max + 1):
        if _expired(deadline):
            return _result(TIMED_OUT, best, best_cov, stats, history,
                           encoded)
        cnf, vm = encode_size(sample, k, cfg.ops, typed=cfg.typed,
                              templates=cfg.templates, quotient=q,
                              types=types)
        # the slice is solving time: it starts once the encoding is built
        left = _seconds_left(deadline)
        slice_end = (None if exact or left is None
                     else time.monotonic() + left / K_HORIZON)
        outs = []
        with make_session(cfg.backend) as sess:
            sess.add_cnf(cnf)
            if exact:
                sess.add_cnf(encode_fitting(sample, vm))
            # exact: one pass; approximate: raise m past each witness
            while best_cov < total:
                m = total if exact else best_cov + 1
                if not exact:
                    sess.add_cnf(encode_coverage_at_least(sample, m, vm))
                out = sess.solve(timeout=_seconds_left(deadline, slice_end))
                outs.append(out)
                if not out.is_sat:
                    break
                best, report = _checked_decode(out.model, vm, sample, cfg, m)
                best_cov = report.coverage
                history.append(best_cov)
            counted = [o.conflicts for o in outs if o.conflicts is not None]
            stats.append(KStat(k, sess.num_vars, sess.num_clauses,
                               out.status, sum(o.time for o in outs),
                               None if exact else best_cov,
                               sum(counted) if counted else None))
        if best_cov == total:
            return _result(FITTED, best, best_cov, stats, history, encoded)
        # unsat: size k cannot reach m; unknown: the budget or slice is spent
        if not out.is_unsat and (exact or _expired(deadline)):
            return _result(TIMED_OUT, best, best_cov, stats, history,
                           encoded)
    status = NO_FIT_WITHIN_BOUND if best is None else APPROXIMATE
    if not exact and _expired(deadline):
        status = TIMED_OUT
    return _result(status, best, best_cov, stats, history, encoded)


def bounded_fit(sample: Sample, cfg: FitConfig = FitConfig()) -> FitResult:
    """Smallest-size exact fitting within cfg.k_max, or why there is none."""
    return _fit(sample, cfg, exact=True)


def approx_fit(sample: Sample, cfg: FitConfig = FitConfig()) -> FitResult:
    """Anytime coverage maximization; see the module docstring."""
    return _fit(sample, cfg, exact=False)
