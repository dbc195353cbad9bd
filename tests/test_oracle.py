from __future__ import annotations

from alcfit.concepts import (O_ALL, Signature, Top, in_fragment,
                             render_concept, size)
from alcfit.fitter import verify
from alcfit.oracle import (brute_force_fit, enumerate_concepts,
                           exact_fit_profile, max_coverage)

from helpers import corpus_samples

SIG_A = Signature(frozenset({"A"}), frozenset())
SIG_AB_R = Signature(frozenset({"A", "B"}), frozenset({"r"}))


def test_enumerate_counts_for_conjunction_fragment():
    ops = frozenset({"and"})
    assert len(list(enumerate_concepts(ops, SIG_A, 1))) == 3
    assert len(list(enumerate_concepts(ops, SIG_A, 2))) == 0
    # ordered: 3 x 3 conjunction pairs at size 3
    assert len(list(enumerate_concepts(ops, SIG_A, 3))) == 9


def test_enumerate_yields_exact_size_in_fragment():
    ops = frozenset({"neg", "exists"})
    for k in (1, 2, 3):
        for c in enumerate_concepts(ops, SIG_AB_R, k):
            assert size(c) == k
            assert in_fragment(c, ops)


def test_enumerate_order_is_deterministic():
    first = [render_concept(c) for c in enumerate_concepts(O_ALL, SIG_AB_R, 1)]
    assert first == ["top", "bot", "A", "B"]
    again = [render_concept(c) for c in enumerate_concepts(O_ALL, SIG_AB_R, 1)]
    assert first == again


def test_brute_force_fit_running_example(fig1_sample):
    found = brute_force_fit(fig1_sample, O_ALL, 7)
    assert found is not None
    concept, k = found
    assert k == 4
    assert verify(concept, fig1_sample).fits


def test_no_existential_conjunctive_fit(fig1_sample):
    assert brute_force_fit(fig1_sample, frozenset({"exists", "and"}), 7) is None


def test_exact_fit_profile_running_example(fig1_sample):
    profile = exact_fit_profile(fig1_sample, O_ALL, 7)
    assert profile == (False, False, False, True, True, True, True)


def test_profile_matches_explicit_enumeration():
    # cross-validate the reachable-extension shortcut against literally
    # trying every concept
    from alcfit.data import interpretation_signature
    for sample in corpus_samples(6):
        sigma = interpretation_signature(sample.interp)
        for ops in (O_ALL, frozenset({"exists", "and"}),
                    frozenset({"neg", "forall"})):
            profile = exact_fit_profile(sample, ops, 4)
            for k in range(1, 5):
                by_hand = any(verify(c, sample).fits
                              for c in enumerate_concepts(ops, sigma, k))
                assert profile[k - 1] == by_hand, (sample, sorted(ops), k)


def test_max_coverage_running_example(fig1_sample):
    m, concept = max_coverage(fig1_sample, O_ALL, 1)
    assert m == 2
    assert concept == Top()


def test_max_coverage_contradictory_sample(contra_sample):
    m, concept = max_coverage(contra_sample, O_ALL, 3)
    assert m == contra_sample.num_examples - 1
    assert concept is not None


def test_max_coverage_full_when_fit_exists(fig1_sample):
    m, concept = max_coverage(fig1_sample, O_ALL, 4)
    assert m == fig1_sample.num_examples
    assert verify(concept, fig1_sample).fits


def test_brute_force_respects_bound(fig1_sample):
    assert brute_force_fit(fig1_sample, O_ALL, 3) is None
