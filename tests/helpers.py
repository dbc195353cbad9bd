"""Shared test machinery: canonical tiny samples, encoding builders, the
seeded random corpus, and a mask-closure evaluator for depth-bounded
expressiveness checks."""

from __future__ import annotations

import itertools
from functools import cache

from alcfit.benchgen import gen_random
from alcfit.concepts import Concept, O_ALL, OperatorSet, Signature
from alcfit.data import Sample, load_facts, merge_blocks
from alcfit.encoder import Cnf, VarMap, decode_model, encode_fitting
from alcfit.fitter import encode_size
from alcfit.oracle import _MaskSpace
from alcfit.solver import make_session

FIG1_I = "r(a1,x1)\nA(x1)\nr(a2,x2)\nB(x2)\n"
FIG1_J = "r(b,y1)\nr(b,y2)\nB(y2)\n"


def fig1() -> Sample:
    return merge_blocks([(load_facts(FIG1_I), ["a1", "a2"], []),
                         (load_facts(FIG1_J), [], ["b"])])


def contradictory() -> Sample:
    interp = load_facts("element e1\nelement e2\n")
    return Sample(interp, ("e1",), ("e2",))


# ---------------------------------------------------------------------------
# encodings

def build_encoding(sample: Sample, k: int, ops: OperatorSet, *,
                   typed: bool = True, templates: bool = True,
                   bans: bool | None = None) -> tuple[Cnf, VarMap]:
    """The size-k encoding with the fitting units."""
    cnf, vm = encode_size(sample, k, ops, typed=typed, templates=templates,
                          bans=bans)
    return cnf.absorb(encode_fitting(sample, vm)), vm


def add_clauses(session, *clauses) -> None:
    """Add the clauses, lists of literals, to the session as one Cnf."""
    cnf = Cnf()
    for clause in clauses:
        cnf.add("clause", clause)
    session.add_cnf(cnf)


def solve_encoding(cnf: Cnf, vm: VarMap,
                   assumptions=()) -> tuple[str, Concept | None]:
    session = make_session()
    try:
        session.add_cnf(cnf)
        out = session.solve(assumptions=assumptions)
        if out.status == "sat":
            return "sat", decode_model(out.model, vm)
        return out.status, None
    finally:
        session.close()


def encoding_sat(sample: Sample, k: int, ops: OperatorSet, **kw) -> bool:
    status, _ = solve_encoding(*build_encoding(sample, k, ops, **kw))
    return status == "sat"


_OP_OF_LABEL = {"not": "neg", "and": "and", "or": "or",
                "exists": "exists", "forall": "forall"}


def fragment_assumptions(vm: VarMap, ops: OperatorSet) -> list[int]:
    """Literals restricting a full-alphabet encoding to a fragment: ban the
    label variables of every operator outside ops, at every node."""
    lits = []
    for i in range(1, vm.k + 1):
        for lab in vm.labels:
            op = _OP_OF_LABEL.get(lab[0])
            if op is not None and op not in ops:
                lits.append(-vm.x(i, lab))
    return lits


# ---------------------------------------------------------------------------
# the shared corpus

def quantifier_fragments() -> list[OperatorSet]:
    frags = []
    for bits in itertools.product((False, True), repeat=5):
        ops = frozenset(op for op, b in zip(sorted(O_ALL), bits) if b)
        if ops & {"exists", "forall"}:
            frags.append(ops)
    return sorted(frags, key=lambda o: (len(o), tuple(sorted(o))))


@cache
def corpus_samples(count: int = 200) -> tuple[Sample, ...]:
    """Seeded random samples, at most 6 elements / 2 names / 2 roles each."""
    out = []
    for seed in range(count):
        elements = 2 + seed % 5
        pos = 1 + (seed // 5) % 2
        neg = 1 + (seed // 7) % 2
        while pos + neg > elements:
            if neg > 1:
                neg -= 1
            else:
                pos -= 1
        out.append(gen_random(
            num_elements=elements,
            num_concept_names=1 + seed % 2,
            num_role_names=1 + (seed // 2) % 2,
            edge_density=(0.15, 0.3, 0.5, 0.8)[seed % 4],
            num_pos=pos, num_neg=neg, seed=seed))
    return tuple(out)


# ---------------------------------------------------------------------------
# depth-bounded expressiveness via mask closure

def _boolean_closure(masks: set[int], full: int) -> set[int]:
    out = set(masks) | {0, full}
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        candidates = [full & ~a]
        candidates += [a & b for b in out] + [a | b for b in out]
        for c in candidates:
            if c not in out:
                out.add(c)
                frontier.append(c)
    return out


def depth_bounded_masks(interp, roles, depth: int) -> set[int]:
    """Extensions of every concept of quantifier depth <= depth over the
    given roles and all of interp's concept names, as bitmasks."""
    sigma = Signature(frozenset(interp.concept_ext), frozenset(roles))
    space = _MaskSpace(interp, sigma)
    masks = _boolean_closure(set(space.name_mask.values()), space.full)
    for _ in range(depth):
        grown = set(masks)
        for role in roles:
            for mask in masks:
                grown.add(space.exists(role, mask))
                grown.add(space.forall(role, mask))
        masks = _boolean_closure(grown, space.full)
    return masks


def element_bit(interp, element: str) -> int:
    return 1 << interp.index[element]
