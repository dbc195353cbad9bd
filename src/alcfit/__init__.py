"""Minimum-size description logic concept fitting via incremental SAT.

Given labeled elements of finite interpretations, find a smallest ALC (or
ALC-fragment) concept that contains every positive example and no negative
one — exactly, or approximately under a time budget.
"""

from __future__ import annotations

from .concepts import (And, Bot, Concept, ConceptError, Exists, Forall, Name,
                       Not, O_ALL, OperatorSet, Or, Signature, Top,
                       dual_operators, dualize_concept, evaluate,
                       format_operators, in_fragment, parse_concept,
                       parse_operators, quantifier_depth, render_concept,
                       signature_of, size)
from .data import (DataError, Interpretation, Quotient, Sample,
                   TypeTable, compute_types, dualize_interpretation,
                   dualize_sample, interpretation_signature, load_facts,
                   load_sample, merge_blocks, quotient, save_facts,
                   save_sample)
from .encoder import (Cnf, EncodingError, VarMap, decode_model,
                      encode_coverage_at_least, encode_fitting,
                      encode_semantics_base, encode_semantics_typed,
                      encode_syntax, encode_templates, pattern_bans_active)
from .fitter import (APPROXIMATE, FITTED, NO_FIT_WITHIN_BOUND, TIMED_OUT,
                     FitConfig, FitResult, KStat, VerifyReport, approx_fit,
                     bounded_fit, encode_size, verify)
from .oracle import (brute_force_fit, enumerate_concepts, exact_fit_profile,
                     max_coverage)
from .solver import (SAT, SolveOutcome, SolverError, UNKNOWN, UNSAT,
                     export_dimacs, make_session, parse_dimacs)

__version__ = "0.1.0"
