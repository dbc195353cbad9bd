"""Brute-force ground truth for fitting questions on small instances.

Enumeration composes concepts by size: the atoms at size 1, then each way
_shapes gives to build a larger node, one walk over the operator table
concepts._OPERATORS.  Fitting and coverage queries run the same walk over
extension bitmasks, keeping the first witness per mask and exact size,
which is sound because every operator's semantics depends only on the
extensions of its operands; the mask semantics (_MaskSpace) is the
oracle's own, independent of concepts.evaluate and of the encoder.
Intended for domains of at most ~8 elements and sizes up to ~7.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

from .concepts import (_ARITY, _OPERATORS, _TAKES_ROLE, And, Bot, Concept,
                       Exists, Forall, Name, Not, OperatorSet, Or, Signature,
                       Top)
from .data import Sample, interpretation_signature, Interpretation

__all__ = [
    "enumerate_concepts", "brute_force_fit", "max_coverage",
    "exact_fit_profile",
]


def _atoms(sigma: Signature) -> list[Concept]:
    out: list[Concept] = [Top(), Bot()]
    out.extend(Name(a) for a in sorted(sigma.concept_names))
    return out


def enumerate_concepts(ops: OperatorSet, sigma: Signature, k: int,
                       ) -> Iterator[Concept]:
    """Stream every size-k concept of the fragment over sigma.

    The enumeration is complete and ordered: And(A, B) and And(B, A) both
    appear.
    """
    if k < 1:
        raise ValueError("concept size is at least 1")
    roles = sorted(sigma.role_names)
    by_size: list[list[Concept]] = [[], _atoms(sigma)]  # 1-indexed
    for s in range(2, k + 1):
        by_size.append([
            ctor(*head, *children)
            for ctor, head, sizes in _shapes(ops, roles, s)
            for children in product(*(by_size[t] for t in sizes))])
    yield from by_size[k]


def _shapes(ops: OperatorSet, roles: list[str], s: int) -> Iterator[tuple]:
    """Each way to build a size-s node (s >= 2) of the fragment, in
    enumeration order: (constructor, role arguments, child sizes)."""
    for op, ctor in _OPERATORS.items():
        if op not in ops:
            continue
        if _ARITY[ctor] == 1:
            splits = [(s - 1,)]
        else:
            splits = [(s1, s - 1 - s1) for s1 in range(1, s - 1)]
        heads = [(r,) for r in roles] if ctor in _TAKES_ROLE else [()]
        for head in heads:
            for sizes in splits:
                yield ctor, head, sizes


# ---------------------------------------------------------------------------
# bitmask semantics

class _MaskSpace:
    """Extensions of concepts over one interpretation as integer bitmasks."""

    def __init__(self, interp: Interpretation, sigma: Signature):
        self.n = len(interp.domain)
        self.full = (1 << self.n) - 1
        self.bit = {e: 1 << i for i, e in enumerate(interp.domain)}
        self.name_mask = {
            a: self._mask(interp.concept_ext.get(a, frozenset()))
            for a in sorted(sigma.concept_names)}
        self.succ: dict[str, list[int]] = {}
        for r in sorted(sigma.role_names):
            succ = [0] * self.n
            for x, y in interp.role_ext.get(r, frozenset()):
                succ[interp.index[x]] |= self.bit[y]
            self.succ[r] = succ
        # each operator's semantics on masks, with its constructor's
        # arguments: the role first, then the children's masks
        self.apply: dict[type[Concept], Callable[..., int]] = {
            Not: self.full.__xor__, And: int.__and__, Or: int.__or__,
            Exists: self.exists, Forall: self.forall}

    def _mask(self, elems) -> int:
        m = 0
        for e in elems:
            m |= self.bit[e]
        return m

    def exists(self, role: str, body: int) -> int:
        succ = self.succ[role]
        m = 0
        for i in range(self.n):
            if succ[i] & body:
                m |= 1 << i
        return m

    def forall(self, role: str, body: int) -> int:
        succ = self.succ[role]
        co = ~body
        m = 0
        for i in range(self.n):
            if not (succ[i] & co):
                m |= 1 << i
        return m


def _reachable(space: _MaskSpace, ops: OperatorSet, k_max: int,
               ) -> list[dict[int, Concept]]:
    """reps[s]: extension mask -> first witness concept of exact size s."""
    roles = sorted(space.succ)
    reps: list[dict[int, Concept]] = [dict() for _ in range(k_max + 1)]
    level = reps[1]
    level.setdefault(space.full, Top())
    level.setdefault(0, Bot())
    for a, m in space.name_mask.items():
        level.setdefault(m, Name(a))
    for s in range(2, k_max + 1):
        level = reps[s]
        for ctor, head, sizes in _shapes(ops, roles, s):
            apply = space.apply[ctor]
            below = [reps[t] for t in sizes]
            for masks in product(*below):
                m = apply(*head, *masks)
                if m not in level:
                    level[m] = ctor(*head, *map(dict.__getitem__, below,
                                                masks))
    return reps


def _reps_and_examples(sample: Sample, ops: OperatorSet, k_max: int,
                       sigma: Signature | None,
                       ) -> tuple[list[dict[int, Concept]], int, int]:
    """_reachable's witnesses up to k_max over sigma (by default the
    sample's own signature), with the masks of the positive and the
    negative examples."""
    if sigma is None:
        sigma = interpretation_signature(sample.interp)
    space = _MaskSpace(sample.interp, sigma)
    return (_reachable(space, ops, k_max), space._mask(sample.positives),
            space._mask(sample.negatives))


def brute_force_fit(sample: Sample, ops: OperatorSet, k_max: int,
                    sigma: Signature | None = None,
                    ) -> tuple[Concept, int] | None:
    """Smallest size <= k_max admitting a fitting concept, with witness."""
    reps, pos, neg = _reps_and_examples(sample, ops, k_max, sigma)
    for k in range(1, k_max + 1):
        for m, c in reps[k].items():
            if (m & pos) == pos and not (m & neg):
                return c, k
    return None


def exact_fit_profile(sample: Sample, ops: OperatorSet, k_max: int,
                      sigma: Signature | None = None) -> tuple[bool, ...]:
    """For each size k = 1..k_max: does a fitting concept of exactly that
    size exist?  Entry k-1 of the result answers size k."""
    reps, pos, neg = _reps_and_examples(sample, ops, k_max, sigma)
    return tuple(
        any((m & pos) == pos and not (m & neg) for m in reps[k])
        for k in range(1, k_max + 1))


def max_coverage(sample: Sample, ops: OperatorSet, k: int,
                 sigma: Signature | None = None) -> tuple[int, Concept]:
    """Best number of correctly labeled examples over concepts of size <= k.

    Ties go to the smallest size, then to enumeration order.
    """
    reps, pos, neg = _reps_and_examples(sample, ops, k, sigma)
    best_cov = -1
    best: Concept | None = None
    for s in range(1, k + 1):
        for m, c in reps[s].items():
            cov = (m & pos).bit_count() + (neg & ~m).bit_count()
            if cov > best_cov:
                best_cov, best = cov, c
    assert best is not None
    return best_cov, best
