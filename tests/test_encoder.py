from __future__ import annotations

import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alcfit.benchgen import gen_random, gen_type_grid
from alcfit.concepts import (And, Bot, Exists, Forall, Name, Not, O_ALL, Or,
                             Signature, Top, evaluate, in_fragment, size)
from alcfit.data import (Sample, compute_types, interpretation_signature,
                         quotient)
from alcfit.encoder import (EncodingError, VarMap, decode_model,
                            encode_coverage_at_least, encode_fitting,
                            encode_semantics_base, encode_semantics_typed,
                            encode_syntax, encode_templates,
                            pattern_bans_active)
from alcfit.fitter import encode_size, verify
from alcfit.oracle import enumerate_concepts, exact_fit_profile
from alcfit.solver import make_session

from helpers import (add_clauses, build_encoding, corpus_samples, encoding_sat,
                     quantifier_fragments, solve_encoding)

EL = frozenset({"exists", "and"})


# -- minimality on the running example

def test_minimality_steps_running_example(fig1_sample):
    for k in (1, 2, 3):
        assert not encoding_sat(fig1_sample, k, O_ALL)
    status, concept = solve_encoding(*build_encoding(fig1_sample, 4, O_ALL))
    assert status == "sat"
    assert size(concept) == 4
    assert verify(concept, fig1_sample).fits


@pytest.mark.parametrize("k", [5, 6])
def test_decoded_concept_has_exact_size(fig1_sample, k):
    status, concept = solve_encoding(*build_encoding(fig1_sample, k, O_ALL))
    assert status == "sat"
    assert size(concept) == k
    assert in_fragment(concept, O_ALL)
    assert verify(concept, fig1_sample).fits


def test_no_fit_in_existential_conjunctive_fragment(fig1_sample):
    for k in range(1, 8):
        assert not encoding_sat(fig1_sample, k, EL)


# -- typed vs base name semantics

def test_typed_and_base_agree_and_decode(fig1_sample):
    for sample in corpus_samples(12):
        for k in range(1, 6):
            results = {}
            for typed in (True, False):
                cnf, vm = build_encoding(sample, k, O_ALL, typed=typed)
                status, concept = solve_encoding(cnf, vm)
                results[typed] = status
                if status == "sat":
                    assert size(concept) == k
                    assert verify(concept, sample).fits
            assert results[True] == results[False], (sample, k)


def test_encodings_agree_with_oracle_on_seeded_grid():
    # 10 random samples x 24 quantifier fragments x k <= 5: the encoding
    # with its default refinements (pattern bans engage on full ALC) is
    # satisfiable exactly at the sizes where the brute-force oracle fits
    for seed in range(10):
        sample = gen_random(num_elements=3 + seed % 4, num_concept_names=2,
                            num_role_names=1 + seed % 2, edge_density=0.35,
                            num_pos=1 + seed % 2, num_neg=1, seed=seed)
        for ops in quantifier_fragments():
            got = tuple(encoding_sat(sample, k, ops) for k in range(1, 6))
            assert got == exact_fit_profile(sample, ops, 5), (seed, ops)


def test_root_extension_row_matches_evaluation(fig1_sample):
    for typed in (True, False):
        cnf, vm = build_encoding(fig1_sample, 4, O_ALL, typed=typed)
        session = make_session()
        try:
            session.add_cnf(cnf)
            out = session.solve()
            assert out.status == "sat"
            concept = decode_model(out.model, vm)
            row = {e for e in fig1_sample.interp.domain
                   if out.model[vm.z(1, e)]}
            assert row == evaluate(concept, fig1_sample.interp)
        finally:
            session.close()


def _node_concepts(model, vm) -> list:
    """The subconcept rooted at each node of a model's syntax tree, node i
    at index i - 1, read from the x / y1 / y2 variables."""
    sub = [None] * vm.k
    for i in range(vm.k, 0, -1):  # children follow their parent
        (lab,) = [lab for lab in vm.labels if model[vm.x(i, lab)]]
        kind = lab[0]
        if kind == "top":
            sub[i - 1] = Top()
        elif kind == "bot":
            sub[i - 1] = Bot()
        elif kind == "name":
            sub[i - 1] = Name(lab[1])
        elif kind in ("and", "or"):
            (j,) = [j for j in range(i + 1, vm.k) if model[vm.y2(i, j)]]
            ctor = And if kind == "and" else Or
            sub[i - 1] = ctor(sub[j - 1], sub[j])
        else:
            (j,) = [j for j in range(i + 1, vm.k + 1) if model[vm.y1(i, j)]]
            if kind == "not":
                sub[i - 1] = Not(sub[j - 1])
            else:
                ctor = Exists if kind == "exists" else Forall
                sub[i - 1] = ctor(lab[1], sub[j - 1])
    return sub


Z_ROW_OPS = (O_ALL, frozenset({"exists", "and"}),
             frozenset({"forall", "or", "neg"}),
             frozenset({"neg", "and", "or"}))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), elements=st.integers(1, 6),
       names=st.integers(1, 2), roles=st.integers(1, 2),
       density=st.sampled_from((0.2, 0.4, 0.7)), k=st.integers(1, 5),
       typed=st.booleans(), ops=st.sampled_from(Z_ROW_OPS))
def test_every_z_row_matches_evaluation(seed, elements, names, roles,
                                        density, k, typed, ops):
    # every node's z row, not only the root's, must be the extension of
    # the subconcept rooted there, in the interpretation that was encoded
    # (the sample's quotient): this checks each semantics block; and every
    # reachable element of the sample must read its class's bit
    sample = gen_random(elements, names, roles, density,
                        (elements + 1) // 2, elements // 2, seed)
    cnf, vm = encode_size(sample, k, ops, typed=typed)
    interp = vm.interp
    # with the fitting units if some size-k concept fits, else without
    for fitting in (encode_fitting(sample, vm), None):
        session = make_session()
        try:
            session.add_cnf(cnf)
            if fitting is not None:
                session.add_cnf(fitting)
            out = session.solve()
        finally:
            session.close()
        if out.status == "sat":
            break
    if ops != O_ALL:  # a fragment may have no tree of size k at all
        assume(out.status == "sat")
    assert out.status == "sat"
    sub = _node_concepts(out.model, vm)
    assert sub[0] == decode_model(out.model, vm)
    reachable = quotient(sample).row
    for i in range(1, k + 1):
        row = {e for e, v in zip(interp.domain, vm.z_row(i)) if out.model[v]}
        assert row == evaluate(sub[i - 1], interp), (i, sub[i - 1])
        ext = evaluate(sub[i - 1], sample.interp)
        assert all(bool(out.model[vm.z(i, e)]) == (e in ext)
                   for e in reachable), (i, sub[i - 1])
    # a unary node's child row is its child's z row
    quantified = any(lab[0] in ("exists", "forall") for lab in vm.labels)
    assert bool(vm.c_row(1)) == (quantified and k > 1)
    for i in range(1, k):
        kids = [j for j in range(i + 1, k + 1) if out.model[vm.y1(i, j)]]
        if kids and vm.c_row(i):
            (j,) = kids
            assert ([out.model[v] for v in vm.c_row(i)]
                    == [out.model[v] for v in vm.z_row(j)]), (i, j)


def test_name_semantics_clause_counts(fig1_sample):
    interp = fig1_sample.interp
    sigma = interpretation_signature(interp)
    k, n, names = 2, len(interp.domain), len(sigma.concept_names)
    types = compute_types(interp)

    _, vm = encode_syntax(k, O_ALL, sigma)
    vm.bind(interp)
    base = encode_semantics_base(vm)
    assert base.group_total("semantics.names") == k * n * names == 28
    assert base.group_total("semantics.namehood") == 0

    _, vm2 = encode_syntax(k, O_ALL, sigma)
    vm2.bind(interp, types)
    typed = encode_semantics_typed(vm2)
    assert typed.group_total("semantics.names") == (
        k * len(types) * names + 2 * k * n) == 40
    # namehood: per node, one long clause plus one per name
    assert typed.group_total("semantics.namehood") == k * (1 + names) == 6


def _syntax_clauses(k: int, leaves: int, unary: int, binary: int) -> int:
    """encode_syntax's clause count: per node, at least one label, the
    pairwise exclusions over the labels, the arity clauses of each label
    and the at-most-one successor slot; per non-root node, exactly one
    parent slot."""
    labels = leaves + unary + binary
    total = 0
    for i in range(1, k + 1):
        y1, y2 = k - i, max(k - i - 1, 0)
        total += 1 + labels * (labels - 1) // 2
        total += leaves * (y1 + y2) + unary * (1 + y2) + binary * (1 + y1)
        total += (y1 + y2) * (y1 + y2 - 1) // 2
    for j in range(2, k + 1):
        parents = (j - 1) + (j - 1 if j < k else 0) + (j - 2)
        total += 1 + parents * (parents - 1) // 2
    return total


def test_folded_alphabet_syntax_clause_count():
    # a role-free type grid: on the classes of 8 examples most of its 20
    # names are empty, full or equal to another, and the syntax group is
    # the pairwise formula over the labels that are left
    interp = gen_type_grid(300, 20, 12)
    picks = random.Random(1).sample(interp.domain, 8)
    sample = Sample(interp, tuple(picks[:4]), tuple(picks[4:]))
    classes = quotient(sample).interp
    rows = {frozenset(e for e in classes.domain if e in ext)
            for ext in interp.concept_ext.values()}
    distinct = len(rows - {frozenset(), frozenset(classes.domain)})
    assert distinct < len(interp.concept_ext)
    for k in range(1, 5):
        cnf, vm = encode_size(sample, k, O_ALL)
        names = [lab[1] for lab in vm.labels if lab[0] == "name"]
        assert len(names) == distinct
        # top, bot and the names; not; and, or
        assert cnf.groups["syntax"] == _syntax_clauses(k, 2 + distinct, 1,
                                                       2), k


def test_child_row_and_quantifier_clause_counts():
    # one child channel of 2n clauses per y1 edge, and one quantifier block
    # of n + |E_r| clauses per (node i < k, label)
    sample = gen_random(9, 2, 2, 0.3, 3, 3, seed=11)
    interp = sample.interp
    sigma = interpretation_signature(interp)
    n = len(interp.domain)
    edges = [len(pairs) for pairs in interp.role_ext.values()]
    assert len(edges) == 2
    quantifier = 2 * sum(n + e for e in edges)  # exists and forall per role
    k = 4
    top_bot = 2 * n * k
    negation = 2 * n * k * (k - 1) // 2
    and_or = 2 * 3 * n * (k - 1) * (k - 2) // 2
    for ops, semantics in ((O_ALL, top_bot + negation + and_or),
                           (frozenset({"exists", "forall"}), top_bot)):
        _, vm = encode_syntax(k, ops, sigma)
        vm.bind(interp)
        groups = encode_semantics_base(vm).groups
        assert groups["semantics.child"] == 2 * n * k * (k - 1) // 2
        assert groups["semantics"] == semantics + (k - 1) * quantifier

    # child rows exist only with a quantifier label: none for a role-free
    # sample, none for a role sample under {neg, and, or}
    no_roles = gen_random(9, 2, 0, 0.3, 3, 3, seed=11)
    for smp, ops, child_rows in ((no_roles, O_ALL, False),
                                 (sample, frozenset({"neg", "and", "or"}),
                                  False),
                                 (sample, O_ALL, True)):
        sig = interpretation_signature(smp.interp)
        _, vm = encode_syntax(k, ops, sig)
        vm.bind(smp.interp)
        cnf = encode_semantics_base(vm)
        without_child_rows = (k * len(vm.labels) + k * (k - 1) // 2
                              + (k - 1) * (k - 2) // 2 + k * n)
        if child_rows:
            assert vm.num_vars == without_child_rows + (k - 1) * n
            assert vm.describe(vm.c_row(2)[0]) == "child[2,e1]"
        else:
            assert vm.num_vars == without_child_rows
            assert vm.c_row(1) == []
            assert "semantics.child" not in cnf.groups


def test_var_map_guards(fig1_sample):
    sigma = interpretation_signature(fig1_sample.interp)
    vm = VarMap(2, O_ALL, sigma)
    with pytest.raises(EncodingError):
        vm.z(1, "f1:a1")
    with pytest.raises(EncodingError, match="no interpretation bound"):
        encode_semantics_base(vm)
    vm.bind(fig1_sample.interp)
    with pytest.raises(EncodingError, match="already bound"):
        vm.bind(fig1_sample.interp)  # a map is bound once
    with pytest.raises(EncodingError, match="without a type table"):
        encode_semantics_typed(vm)
    typed = VarMap(2, O_ALL, sigma)
    other = compute_types(corpus_samples(1)[0].interp)
    with pytest.raises(EncodingError, match="does not cover"):
        typed.bind(fig1_sample.interp, other)


def test_describe_names_each_variable_and_refuses_other_ids(fig1_sample):
    # ids are allocated row by row, one block each; an id outside
    # 1..num_vars names no variable, whichever end it lies beyond
    sample = fig1_sample
    _, vm = encode_syntax(3, O_ALL, interpretation_signature(sample.interp))
    vm.bind(sample.interp, compute_types(sample.interp))
    first = sample.interp.domain[0]
    assert vm.describe(1) == "x[1,top]"
    assert vm.describe(vm.y1(1, 3)) == "y1[1,3]"
    assert vm.describe(vm.y2(1, 2)) == "y2[1,2]"
    assert vm.describe(vm.z(3, first)) == f"z[3,{first}]"
    assert vm.describe(vm.c_row(2)[0]) == f"child[2,{first}]"
    assert vm.describe(vm.xt(2, 1)) == "xt[2,1]"
    assert vm.describe(vm.ell(3)) == "l[3]"
    n = vm.num_vars
    for bad in (-1, 0, n + 1):
        with pytest.raises(EncodingError, match=f"variable {bad} outside"):
            vm.describe(bad)
    encode_coverage_at_least(sample, 2, vm)
    assert vm.num_vars > n
    assert vm.describe(n + 1) == "s[1,1]"
    assert vm.describe(vm.num_vars) == f"s[{sample.num_examples},2]"
    assert list(vm.comment_lines()) == [f"c {v} = {vm.describe(v)}"
                                        for v in range(1, vm.num_vars + 1)]


def test_encoding_holds_few_bytes_per_variable():
    # the map keeps one block per row, not a tag per variable, and the
    # quantifier templates share one int object per position
    sample = gen_random(300, 3, 2, 0.02, 5, 5, seed=1)
    tracemalloc.start()
    try:
        cnf, vm = encode_size(sample, 7, O_ALL)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert vm.num_vars > 4000
    assert held <= 300 * vm.num_vars


# -- fitting units and coverage counter

def test_fitting_is_three_units(fig1_sample):
    _, vm = build_encoding(fig1_sample, 1, O_ALL)
    cnf = encode_fitting(fig1_sample, vm)
    assert cnf.num_clauses == 3
    assert cnf.group_total("fitting") == 3


def test_coverage_boundary_at_k1(fig1_sample):
    # only size-1 concept reaching coverage 2 is top; nothing reaches 3
    for m, expected in ((2, "sat"), (3, "unsat")):
        cnf, vm = encode_size(fig1_sample, 1)
        cnf.absorb(encode_coverage_at_least(fig1_sample, m, vm))
        session = make_session()
        try:
            session.add_cnf(cnf)
            assert session.solve().status == expected, m
        finally:
            session.close()


def test_coverage_raises_incrementally_in_one_session(contra_sample):
    cnf, vm = encode_size(contra_sample, 1)
    session = make_session()
    try:
        session.add_cnf(cnf)
        session.add_cnf(encode_coverage_at_least(contra_sample, 1, vm))
        assert session.solve().status == "sat"
        vars_before = vm.num_vars
        session.add_cnf(encode_coverage_at_least(contra_sample, 2, vm))
        assert vm.num_vars == vars_before + 1  # one lazy counter column
        assert session.solve().status == "unsat"
    finally:
        session.close()


def test_coverage_target_validation(fig1_sample):
    _, vm = build_encoding(fig1_sample, 1, O_ALL)
    with pytest.raises(ValueError):
        encode_coverage_at_least(fig1_sample, 0, vm)
    with pytest.raises(ValueError):
        encode_coverage_at_least(fig1_sample, 4, vm)


# -- level-order symmetry breaking

ROLE_SIGMA = Signature(frozenset({"A"}), frozenset({"r"}))


def _model_shapes(k, ops, sigma=ROLE_SIGMA) -> list[tuple[int, ...]]:
    """Arity sequences (node 1..k) of every model of the syntax and
    symmetry-breaking clauses, projected onto the y variables: each model
    found is blocked on its y values and the solver asked again."""
    cnf, vm = encode_syntax(k, ops, sigma)
    cnf.absorb(encode_templates(vm, bans=False))
    ys = list(vm._y1.values()) + list(vm._y2.values())
    shapes = []
    session = make_session()
    try:
        session.add_cnf(cnf)
        while (out := session.solve()).status == "sat":
            arity = [0] * k
            for n, yvars in ((1, vm._y1), (2, vm._y2)):
                for (i, _), v in yvars.items():
                    if out.model[v]:
                        arity[i - 1] = n
            shapes.append(tuple(arity))
            if not ys:
                break
            add_clauses(session,
                        [-v if out.model[v] else v for v in ys])
        assert out.status in ("sat", "unsat")
    finally:
        session.close()
    return shapes


def test_topology_counts_are_motzkin_numbers():
    # one numbering per unary-binary tree shape, nothing more
    counts = [len(_model_shapes(k, O_ALL)) for k in range(1, 9)]
    assert counts == [1, 1, 2, 4, 9, 21, 51, 127]


def _bfs_arities(concept):
    def kids(c):
        if isinstance(c, Not):
            return [c.child]
        if isinstance(c, (Exists, Forall)):
            return [c.child]
        if isinstance(c, (And, Or)):
            return [c.left, c.right]
        return []
    out = []
    queue = deque([concept])
    while queue:
        node = queue.popleft()
        children = kids(node)
        out.append(len(children))
        queue.extend(children)
    return tuple(out)


def test_model_shapes_match_real_concept_shapes():
    for k in range(1, 6):
        shapes = _model_shapes(k, O_ALL)
        assert len(shapes) == len(set(shapes)), k
        expected = {_bfs_arities(c)
                    for c in enumerate_concepts(O_ALL, ROLE_SIGMA, k)}
        assert set(shapes) == expected, k


def test_shape_counts_follow_the_operator_set():
    # the same clauses serve every fragment: binary-only trees are counted
    # by the Catalan numbers, negation-only trees are single chains
    binary = [len(_model_shapes(k, frozenset({"and", "or"})))
              for k in range(1, 12)]
    assert binary == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    chains = [len(_model_shapes(k, frozenset({"neg"}))) for k in range(1, 12)]
    assert chains == [1] * 11


def test_templates_preserve_satisfiability(fig1_sample):
    for sample in corpus_samples(8):
        for k in range(1, 6):
            on = encoding_sat(sample, k, O_ALL, templates=True)
            off = encoding_sat(sample, k, O_ALL, templates=False)
            assert on == off, (sample, k)
    status, concept = solve_encoding(
        *build_encoding(fig1_sample, 4, O_ALL, templates=True))
    assert status == "sat" and verify(concept, fig1_sample).fits


def test_large_k_solves_and_decodes(fig1_sample):
    for k in (11, 12):
        status, concept = solve_encoding(*build_encoding(fig1_sample, k,
                                                         O_ALL))
        assert status == "sat", k
        assert size(concept) == k
        assert verify(concept, fig1_sample).fits


def test_symmetry_breaking_stays_on_at_large_k(fig1_sample):
    sigma = interpretation_signature(fig1_sample.interp)
    for k in (12, 15):
        cnf, vm = encode_syntax(k, O_ALL, sigma)
        tpl = encode_templates(vm)
        y2 = (k - 1) * (k - 2) // 2
        y1 = k * (k - 1) // 2
        assert tpl.group_total("template") > 6 * y2 + y1, k
        # the symmetry-breaking part ignores the fragment and the signature
        counts = set()
        for ops, sig in ((O_ALL, sigma), (frozenset({"neg"}), sigma),
                         (EL, ROLE_SIGMA)):
            _, other = encode_syntax(k, ops, sig)
            counts.add(encode_templates(other, bans=False).num_clauses)
        assert len(counts) == 1, k


def test_pattern_ban_policy():
    with_role = Signature(frozenset({"A"}), frozenset({"r"}))
    role_free = Signature(frozenset({"A"}), frozenset())
    assert pattern_bans_active(O_ALL, with_role)
    assert not pattern_bans_active(O_ALL, role_free)
    assert not pattern_bans_active(EL, with_role)


def test_bans_preserve_satisfiability(fig1_sample):
    for k in range(1, 8):
        banned = encoding_sat(fig1_sample, k, O_ALL, bans=True)
        free = encoding_sat(fig1_sample, k, O_ALL, bans=False)
        assert banned == free, k
    for sample in corpus_samples(6):
        for k in range(1, 6):
            assert (encoding_sat(sample, k, O_ALL, bans=True)
                    == encoding_sat(sample, k, O_ALL, bans=False)), (sample, k)


# -- decoding guards

def test_decode_rejects_tampered_models(fig1_sample):
    cnf, vm = build_encoding(fig1_sample, 4, O_ALL)
    session = make_session()
    try:
        session.add_cnf(cnf)
        out = session.solve()
        assert out.status == "sat"
        model = list(out.model)
        for lab in vm.labels:
            model[vm.x(1, lab)] = False
        with pytest.raises(EncodingError):
            decode_model(model, vm)
        model2 = list(out.model)
        for lab in vm.labels:
            model2[vm.x(1, lab)] = True
        with pytest.raises(EncodingError):
            decode_model(model2, vm)
    finally:
        session.close()
