"""Brute-force ground truth for fitting questions on small instances.

Enumeration composes concepts by size recursively (arity-0 labels at size 1,
unary operators over size k-1, binary operators over size splits).  Fitting
and coverage queries never enumerate raw syntax trees: concepts are grouped
by extension bitmask per exact size, which is sound because every operator's
semantics depends only on the extensions of its operands.  Intended for
domains of at most ~8 elements and sizes up to ~7.
"""

from __future__ import annotations

from typing import Iterator

from .concepts import (And, Bot, Concept, Exists, Forall, Name, Not, Or,
                       OperatorSet, Signature, Top)
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
    by_size: list[list[Concept]] = [[]]  # 1-indexed
    for s in range(1, k + 1):
        level = list(_level(ops, sigma, roles, s, by_size))
        by_size.append(level)
    yield from by_size[k]


def _level(ops, sigma, roles, s, by_size):
    if s == 1:
        yield from _atoms(sigma)
        return
    if "neg" in ops:
        for c in by_size[s - 1]:
            yield Not(c)
    for kw, ctor in (("and", And), ("or", Or)):
        if kw not in ops:
            continue
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            for left in by_size[s1]:
                for right in by_size[s2]:
                    yield ctor(left, right)
    for kw, ctor in (("exists", Exists), ("forall", Forall)):
        if kw not in ops:
            continue
        for r in roles:
            for c in by_size[s - 1]:
                yield ctor(r, c)


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
        if "neg" in ops:
            for m, c in reps[s - 1].items():
                level.setdefault(space.full ^ m, Not(c))
        for kw in ("and", "or"):
            if kw not in ops:
                continue
            for s1 in range(1, s - 1):
                for m1, c1 in reps[s1].items():
                    for m2, c2 in reps[s - 1 - s1].items():
                        if kw == "and":
                            level.setdefault(m1 & m2, And(c1, c2))
                        else:
                            level.setdefault(m1 | m2, Or(c1, c2))
        for kw in ("exists", "forall"):
            if kw not in ops:
                continue
            for r in roles:
                for m, c in reps[s - 1].items():
                    if kw == "exists":
                        level.setdefault(space.exists(r, m), Exists(r, c))
                    else:
                        level.setdefault(space.forall(r, m), Forall(r, c))
    return reps


def _sample_masks(sample: Sample, space: _MaskSpace) -> tuple[int, int]:
    pos = 0
    for e in sample.positives:
        pos |= space.bit[e]
    neg = 0
    for e in sample.negatives:
        neg |= space.bit[e]
    return pos, neg


def brute_force_fit(sample: Sample, ops: OperatorSet, k_max: int,
                    sigma: Signature | None = None,
                    ) -> tuple[Concept, int] | None:
    """Smallest size <= k_max admitting a fitting concept, with witness."""
    if sigma is None:
        sigma = interpretation_signature(sample.interp)
    space = _MaskSpace(sample.interp, sigma)
    pos, neg = _sample_masks(sample, space)
    reps = _reachable(space, ops, k_max)
    for k in range(1, k_max + 1):
        for m, c in reps[k].items():
            if (m & pos) == pos and not (m & neg):
                return c, k
    return None


def exact_fit_profile(sample: Sample, ops: OperatorSet, k_max: int,
                      sigma: Signature | None = None) -> tuple[bool, ...]:
    """For each size k = 1..k_max: does a fitting concept of exactly that
    size exist?  Entry k-1 of the result answers size k."""
    if sigma is None:
        sigma = interpretation_signature(sample.interp)
    space = _MaskSpace(sample.interp, sigma)
    pos, neg = _sample_masks(sample, space)
    reps = _reachable(space, ops, k_max)
    return tuple(
        any((m & pos) == pos and not (m & neg) for m in reps[k])
        for k in range(1, k_max + 1))


def max_coverage(sample: Sample, ops: OperatorSet, k: int,
                 sigma: Signature | None = None) -> tuple[int, Concept]:
    """Best number of correctly labeled examples over concepts of size <= k.

    Ties go to the smallest size, then to enumeration order.
    """
    if sigma is None:
        sigma = interpretation_signature(sample.interp)
    space = _MaskSpace(sample.interp, sigma)
    pos, neg = _sample_masks(sample, space)
    reps = _reachable(space, ops, k)
    best_cov = -1
    best: Concept | None = None
    for s in range(1, k + 1):
        for m, c in reps[s].items():
            cov = (m & pos).bit_count() + (neg & ~m).bit_count()
            if cov > best_cov:
                best_cov, best = cov, c
    assert best is not None
    return best_cov, best
