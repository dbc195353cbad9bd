from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alcfit.fitter
from alcfit.benchgen import gen_hitting_set_instance, gen_random
from alcfit.concepts import (O_ALL, Name, Top, in_fragment,
                             parse_concept)
from alcfit.data import (Interpretation, Sample, load_facts, merge_blocks,
                         quotient)
from alcfit.fitter import (APPROXIMATE, FITTED, K_HORIZON,
                           NO_FIT_WITHIN_BOUND, TIMED_OUT, FitConfig,
                           approx_fit, bounded_fit, verify)
from alcfit.oracle import exact_fit_profile, max_coverage

from helpers import corpus_samples, quantifier_fragments

EL = frozenset({"exists", "and"})


def test_bounded_fit_running_example(fig1_sample):
    start = time.monotonic()
    result = bounded_fit(fig1_sample, FitConfig(k_max=6))
    assert time.monotonic() - start < 1.0
    assert result.status == FITTED
    assert result.size == 4
    assert result.coverage == 3
    assert verify(result.concept, fig1_sample).fits
    assert [s.status for s in result.per_k] == ["unsat"] * 3 + ["sat"]
    assert all(s.num_vars > 0 and s.num_clauses > 0 for s in result.per_k)


def test_bounded_fit_respects_fragment(fig1_sample):
    result = bounded_fit(fig1_sample, FitConfig(ops=EL, k_max=10))
    assert result.status == NO_FIT_WITHIN_BOUND
    assert result.concept is None
    assert len(result.per_k) == 10
    assert all(s.status == "unsat" for s in result.per_k)


def test_fitted_concept_stays_in_fragment(fig1_sample):
    ops = frozenset({"neg", "or", "forall"})
    result = bounded_fit(fig1_sample, FitConfig(ops=ops, k_max=6))
    if result.status == FITTED:
        assert in_fragment(result.concept, ops)
        assert verify(result.concept, fig1_sample).fits


def test_encoding_variants_agree(fig1_sample):
    sizes = set()
    for typed in (True, False):
        for templates in (True, False):
            cfg = FitConfig(k_max=6, typed=typed, templates=templates)
            result = bounded_fit(fig1_sample, cfg)
            assert result.status == FITTED
            sizes.add(result.size)
    assert sizes == {4}


def test_approx_reaches_exact_answer(fig1_sample):
    cfg = FitConfig(k_max=6)
    result = approx_fit(fig1_sample, cfg)
    assert result.status == FITTED
    assert result.coverage == 3
    assert result.size == 4
    assert verify(result.concept, fig1_sample).fits
    history = result.coverage_history
    assert history and history[-1] == 3
    assert all(a < b for a, b in zip(history, history[1:]))


def test_approx_on_contradictory_sample(contra_sample):
    cfg = FitConfig(k_max=4)
    result = approx_fit(contra_sample, cfg)
    assert result.status == APPROXIMATE
    assert result.coverage == contra_sample.num_examples - 1 == 1
    assert result.concept is not None
    assert verify(result.concept, contra_sample).coverage == 1


def test_approx_coverage_carries_over_k(contra_sample):
    result = approx_fit(contra_sample, FitConfig(k_max=3))
    # best coverage is already reached at k=1; later k never report less
    ms = [s.best_m for s in result.per_k if s.best_m is not None]
    assert ms and all(m >= ms[0] for m in ms)


def test_exact_and_approx_agree_on_corpus():
    # both modes run one k loop: where an exact fit exists approx_fit must
    # stop there, elsewhere it must reach the oracle's best coverage
    for sample in corpus_samples()[:30]:
        exact = bounded_fit(sample, FitConfig(k_max=5))
        approx = approx_fit(sample, FitConfig(k_max=5))
        if exact.status == FITTED:
            assert (approx.status, approx.size) == (FITTED, exact.size)
        else:
            assert exact.status == NO_FIT_WITHIN_BOUND
            best, _ = max_coverage(sample, O_ALL, 5)
            assert (approx.status, approx.coverage) == (APPROXIMATE, best)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), elements=st.integers(2, 6),
       names=st.integers(1, 2), roles=st.integers(1, 2),
       density=st.sampled_from((0.2, 0.4, 0.7)), split=st.booleans(),
       ops=st.sampled_from(quantifier_fragments()))
def test_fits_on_the_quotient_match_the_oracle(seed, elements, names, roles,
                                               density, split, ops):
    # both modes encode the sample's quotient; their answers must be the
    # brute-force oracle's on the original sample.  split puts positives
    # and negatives in two copies of one interpretation, so that the
    # quotient merges every element with its copy
    sample = gen_random(elements, names, roles, density,
                        (elements + 1) // 2, elements // 2, seed)
    if split:
        sample = merge_blocks([
            (sample.interp, list(sample.positives), []),
            (sample.interp, [], list(sample.negatives))])
    profile = exact_fit_profile(sample, ops, 5)
    exact = bounded_fit(sample, FitConfig(ops=ops, k_max=5))
    minimum = profile.index(True) + 1 if True in profile else None
    assert exact.size == minimum
    assert exact.classes <= len(sample.interp.domain)
    approx = approx_fit(sample, FitConfig(ops=ops, k_max=5))
    for stat in approx.per_k:
        assert stat.best_m == max_coverage(sample, ops, stat.k)[0], stat.k


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), elements=st.integers(2, 6),
       names=st.integers(2, 4), roles=st.integers(1, 2),
       density=st.sampled_from((0.2, 0.4, 0.7)), copied=st.integers(0, 3),
       ops=st.sampled_from(quantifier_fragments()))
def test_fits_with_redundant_names_match_the_oracle(seed, elements, names,
                                                    roles, density, copied,
                                                    ops):
    # three names the fold drops: a copy of a name, a name true only on an
    # unreachable element, and one true on every reachable element.  The
    # answers must still be the oracle's on the sample without them
    sample = gen_random(elements, names, roles, density,
                        (elements + 1) // 2, elements // 2, seed)
    interp = sample.interp
    present = sorted(interp.concept_ext) or ["A"]
    name = present[copied % len(present)]
    extended = Interpretation(
        interp.domain + ("u",),
        {**interp.concept_ext,
         name + "2": interp.concept_ext.get(name, frozenset()),
         "Unreached": {"u"}, "Reached": set(quotient(sample).row)},
        interp.role_ext)
    padded = Sample(extended, sample.positives, sample.negatives)
    profile = exact_fit_profile(sample, ops, 5)
    exact = bounded_fit(padded, FitConfig(ops=ops, k_max=5))
    minimum = profile.index(True) + 1 if True in profile else None
    assert exact.size == minimum
    assert exact.names <= len(interp.concept_ext)
    approx = approx_fit(padded, FitConfig(ops=ops, k_max=5))
    for stat in approx.per_k:
        assert stat.best_m == max_coverage(sample, ops, stat.k)[0], stat.k


def test_equal_names_answer_with_the_first_in_sorted_order():
    interp = Interpretation(["a", "b"], {n: {"a"} for n in "DBCA"}, {})
    result = bounded_fit(Sample(interp, ("a",), ("b",)), FitConfig(k_max=2))
    assert (result.status, result.concept) == (FITTED, Name("A"))
    assert result.names == 1


def test_bisimilar_examples_end_an_exact_run(contra_sample, monkeypatch):
    # e1 and e2 are bisimilar: no concept separates them, at any size, and
    # the exact run says so without asking the solver
    def no_solver(*args, **kwargs):
        raise AssertionError("a solver session was opened")
    monkeypatch.setattr(alcfit.fitter, "make_session", no_solver)
    result = bounded_fit(contra_sample, FitConfig(k_max=4))
    assert result.status == NO_FIT_WITHIN_BOUND
    assert result.per_k == ()
    assert result.classes == 1
    assert result.reason == ("positive e1 and negative e2 are bisimilar; "
                             "no concept separates them")
    # approximate mode still counts the examples of the merged class
    monkeypatch.undo()
    approx = approx_fit(contra_sample, FitConfig(k_max=2))
    assert approx.coverage == 1 and approx.reason is None


def test_approx_slice_starts_after_the_encoding(contra_sample, monkeypatch):
    # each encoding outlasts the slice a k would get if the slice began
    # before it; every k whose encoding ends before the deadline must
    # still be solved
    budget, delay = 1.2, 0.4
    assert delay > budget / K_HORIZON
    encode_size = alcfit.fitter.encode_size
    ends = []

    def slow_encode_size(*args, **kwargs):
        built = encode_size(*args, **kwargs)
        time.sleep(delay)
        ends.append(time.monotonic())
        return built
    monkeypatch.setattr(alcfit.fitter, "encode_size", slow_encode_size)
    start = time.monotonic()
    result = approx_fit(contra_sample, FitConfig(k_max=6, budget=budget))
    assert result.status == TIMED_OUT
    in_time = [stat for stat, end in zip(result.per_k, ends)
               if end < start + budget - 0.1]
    assert len(in_time) >= 2
    # coverage 2 is out of reach at every size, so a solved k ends unsat;
    # a solve skipped at zero budget would read unknown
    assert all(stat.status == "unsat" for stat in in_time)
    assert all(stat.conflicts is not None for stat in in_time)


def test_verify_report_examples(fig1_sample):
    good = verify(parse_concept("forall r.(A or B)"), fig1_sample)
    assert good.fits and good.coverage == 3 and good.misclassified == ()
    top = verify(parse_concept("top"), fig1_sample)
    assert not top.fits
    assert top.coverage == 2
    assert top.misclassified == ("f2:b",)
    bot = verify(parse_concept("bot"), fig1_sample)
    assert bot.coverage == 1
    assert bot.misclassified == ("f1:a1", "f1:a2")


def test_empty_sample_fits_trivially():
    interp = load_facts("element e\n")
    sample = Sample(interp, (), ())
    for runner in (bounded_fit, approx_fit):
        result = runner(sample, FitConfig(k_max=3))
        assert result.status == FITTED
        assert result.concept == Top()
        assert result.size == 1


def test_config_rejects_a_negative_budget():
    for budget in (-1, float("nan")):
        with pytest.raises(ValueError, match="budget must be at least 0"):
            FitConfig(budget=budget)
    assert FitConfig(budget=0).budget == 0


def test_symmetry_breaking_keeps_large_k_tractable():
    # with symmetry breaking switched off from k=12 on, k=12 alone spent
    # minutes here; with it, both UNSAT proofs and the fit take seconds
    sample = gen_random(60, 3, 2, 0.04, 10, 10, 4)
    result = bounded_fit(sample, FitConfig(k_max=13, budget=60))
    assert result.status == FITTED
    assert result.size == 13
    assert verify(result.concept, sample).fits
    statuses = {s.k: s.status for s in result.per_k}
    assert statuses[11] == statuses[12] == "unsat"


def test_budget_exhaustion_times_out():
    sample, k_prime, _ = gen_hitting_set_instance([{1}, {2}, {3, 4, 5}], 3)
    result = bounded_fit(sample, FitConfig(k_max=k_prime, budget=1e-4))
    assert result.status == TIMED_OUT
    result = approx_fit(sample, FitConfig(k_max=k_prime, budget=1e-4))
    assert result.status == TIMED_OUT


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(k_max=0)


def test_subprocess_backend_end_to_end(fig1_sample):
    solver = (f"{sys.executable} "
              f"{Path(__file__).parent.parent / 'scripts' / 'dimacs_solve.py'}")
    cfg = FitConfig(k_max=5, backend=f"dimacs:{solver}")
    result = bounded_fit(fig1_sample, cfg)
    assert result.status == FITTED
    assert result.size == 4
    # the DIMACS backend does not count conflicts
    assert all(s.conflicts is None for s in result.per_k)
