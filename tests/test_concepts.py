from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcfit.concepts import (And, Bot, Concept, ConceptError, Exists, Forall,
                             Name, Not, O_ALL, Or, Signature, Top,
                             dual_operators, dualize_concept, evaluate,
                             format_operators, in_fragment, parse_concept,
                             parse_operators, quantifier_depth,
                             render_concept, signature_of, size)
from alcfit.data import dualize_interpretation, interpretation_signature
from alcfit.fitter import verify

from helpers import corpus_samples

_names = st.sampled_from(["A", "B"])
_roles = st.sampled_from(["r", "s"])

concept_trees = st.recursive(
    st.one_of(st.builds(Top), st.builds(Bot), st.builds(Name, _names)),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Exists, _roles, kids),
        st.builds(Forall, _roles, kids)),
    max_leaves=8)


def _operators_of(c: Concept) -> frozenset[str]:
    if isinstance(c, Not):
        return _operators_of(c.child) | {"neg"}
    if isinstance(c, And):
        return _operators_of(c.left) | _operators_of(c.right) | {"and"}
    if isinstance(c, Or):
        return _operators_of(c.left) | _operators_of(c.right) | {"or"}
    if isinstance(c, (Exists, Forall)):
        op = "exists" if isinstance(c, Exists) else "forall"
        return _operators_of(c.child) | {op}
    return frozenset()


# -- parsing and rendering

def test_parse_canonical_example():
    c = parse_concept("forall r.(A or B)")
    assert c == Forall("r", Or(Name("A"), Name("B")))
    assert render_concept(c) == "forall r.(A or B)"
    assert size(c) == 4
    assert quantifier_depth(c) == 1


def test_quantifier_body_extends_right():
    assert parse_concept("forall r.A or B") == parse_concept("forall r.(A or B)")


def test_and_binds_tighter_than_or():
    c = parse_concept("A or B and C")
    assert c == Or(Name("A"), And(Name("B"), Name("C")))
    assert render_concept(parse_concept("(A or B) and C")) == "(A or B) and C"


def test_fused_quantifier_size():
    assert size(parse_concept("exists r.top")) == 2
    assert size(parse_concept("exists r.exists s.A")) == 3


@pytest.mark.parametrize("bad", ["", "A and", "forall r.", "exists not.A",
                                 "Top(A)", "q(A", "not (", "A B"])
def test_parse_errors(bad):
    with pytest.raises(ConceptError):
        parse_concept(bad)


@given(concept_trees)
def test_render_parse_round_trip(c):
    assert parse_concept(render_concept(c)) == c


@given(concept_trees)
def test_size_counts_syntax_tree_nodes(c):
    def count(node):
        if isinstance(node, Not):
            return 1 + count(node.child)
        if isinstance(node, (And, Or)):
            return 1 + count(node.left) + count(node.right)
        if isinstance(node, (Exists, Forall)):
            return 1 + count(node.child)  # quantifier and role fuse
        return 1

    def depth(node):
        if isinstance(node, (Exists, Forall)):
            return 1 + depth(node.child)
        if isinstance(node, Not):
            return depth(node.child)
        if isinstance(node, (And, Or)):
            return max(depth(node.left), depth(node.right))
        return 0

    def names_and_roles(node):
        if isinstance(node, Name):
            return {node.name}, set()
        if isinstance(node, (Exists, Forall)):
            names, roles = names_and_roles(node.child)
            return names, roles | {node.role}
        if isinstance(node, Not):
            return names_and_roles(node.child)
        if isinstance(node, (And, Or)):
            (ln, lr), (rn, rr) = (names_and_roles(node.left),
                                  names_and_roles(node.right))
            return ln | rn, lr | rr
        return set(), set()

    assert size(c) == count(c)
    assert quantifier_depth(c) == depth(c)
    names, roles = names_and_roles(c)
    assert signature_of(c) == Signature(frozenset(names), frozenset(roles))


# -- fragments and operator sets

def test_parse_operators():
    assert parse_operators("neg,and,or,exists,forall") == O_ALL
    assert parse_operators("exists,and") == frozenset({"exists", "and"})
    with pytest.raises(ConceptError):
        parse_operators("neg,xor")
    # an empty entry is named, not reported as an unknown operator ""
    for text in ("neg,", "neg,,and", ",", " neg , "):
        with pytest.raises(ConceptError,
                           match=f"empty operator in {re.escape(repr(text))}"):
            parse_operators(text)


def test_format_operators_stable_order():
    assert format_operators(O_ALL) == "neg,and,or,exists,forall"


def test_dual_operators_swaps_pairs():
    assert dual_operators(frozenset({"and", "exists"})) == frozenset(
        {"or", "forall"})
    assert dual_operators(frozenset({"neg"})) == frozenset({"neg"})
    assert dual_operators(O_ALL) == O_ALL


@given(concept_trees)
def test_in_fragment_matches_operator_walk(c):
    ops = _operators_of(c)
    assert in_fragment(c, ops)
    for removed in ops:
        assert not in_fragment(c, ops - {removed})


# -- duality

@given(concept_trees)
def test_dualize_is_an_involution(c):
    assert dualize_concept(dualize_concept(c)) == c
    assert size(dualize_concept(c)) == size(c)
    # the duality on trees and the duality on operator sets agree
    assert (_operators_of(dualize_concept(c))
            == dual_operators(_operators_of(c)))


def test_dualize_example():
    assert render_concept(dualize_concept(parse_concept(
        "forall r.(A or B)"))) == "exists r.(A and B)"
    assert render_concept(dualize_concept(parse_concept("top"))) == "bot"


@settings(deadline=None, max_examples=60)
@given(concept_trees, st.integers(0, 19))
def test_duality_flips_membership_pointwise(c, pick):
    interp = corpus_samples(20)[pick].interp
    sigma = signature_of(c) | interpretation_signature(interp)
    dual = dualize_interpretation(interp, sigma)
    ext = evaluate(c, interp)
    dual_ext = evaluate(dualize_concept(c), dual)
    for e in interp.domain:
        assert (e in ext) == (e not in dual_ext)


# -- evaluation on the running example

def test_evaluate_on_running_example(fig1_sample):
    c = parse_concept("forall r.(A or B)")
    ext = evaluate(c, fig1_sample.interp)
    assert "f1:a1" in ext and "f1:a2" in ext
    assert "f2:b" not in ext
    assert verify(c, fig1_sample).fits
    assert not verify(parse_concept("top"), fig1_sample).fits


def test_signature_of():
    c = parse_concept("exists r.(A and forall s.B)")
    sigma = signature_of(c)
    assert sigma.concept_names == frozenset({"A", "B"})
    assert sigma.role_names == frozenset({"r", "s"})
    assert isinstance(sigma, Signature)
