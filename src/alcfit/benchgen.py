"""Deterministic benchmark generators with ground-truth annotations.

Three structured families (a hitting-set reduction, a quantifier-depth
family, and a most-general-fitting family) plus seeded random instances.
Multi-interpretation instances are produced as blocks — (file-stem suffix,
interpretation, positives, negatives) — merged into one Sample the same way
manifest loading merges fact files, so written instances reload to the
exact in-memory sample.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product
from pathlib import Path

from .concepts import Concept, Exists, Name, Top, render_concept
from .data import Interpretation, Sample, merge_blocks, save_facts

__all__ = [
    "gen_hitting_set_instance", "gen_depth_family", "gen_mostgeneral_family",
    "gen_random", "gen_type_grid",
    "hitting_set_blocks", "depth_family_blocks", "mostgeneral_blocks",
    "minimum_hitting_set", "chain_of_exists", "depth_family_target",
    "write_instance",
]

Block = tuple[str, Interpretation, tuple[str, ...], tuple[str, ...]]


def chain_of_exists(word: str, tail: Concept) -> Concept:
    """The concept 'some word-labeled path ends in tail': for word r s it is
    exists r.exists s.tail."""
    concept = tail
    for role in reversed(word.split() if " " in word else list(word)):
        concept = Exists(role, concept)
    return concept


def _merge(blocks: list[Block]) -> Sample:
    return merge_blocks([(interp, list(pos), list(neg))
                         for _, interp, pos, neg in blocks])


# ---------------------------------------------------------------------------
# hitting set reduction

def _validate_sets(sets) -> tuple[tuple[frozenset[int], ...], int]:
    fixed = tuple(frozenset(s) for s in sets)
    if not fixed:
        raise ValueError("need at least one set to hit")
    union: set[int] = set()
    for s in fixed:
        if not s:
            raise ValueError("sets to hit must be nonempty")
        for item in s:
            if not isinstance(item, int) or item < 1:
                raise ValueError(f"set elements must be integers >= 1: {item!r}")
        union |= s
    n = max(union)
    if union != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - union)
        raise ValueError(f"set union must be a full range 1..{n}; "
                         f"missing {missing}")
    return fixed, n


def minimum_hitting_set(sets) -> tuple[int, ...]:
    """Smallest set of elements meeting every given set (exhaustive; meant
    for the generator's desk-scale ground truth)."""
    fixed, n = _validate_sets(sets)
    universe = range(1, n + 1)
    for size in range(1, n + 1):
        for cand in combinations(universe, size):
            chosen = set(cand)
            if all(chosen & s for s in fixed):
                return cand
    raise AssertionError("the full universe always hits")  # unreachable


def _chain_gadget_facts(sets, n):
    """Facts shared by both interpretations: one doubly-linked chain per set
    with detours at non-members, all draining into the looped sink c."""
    m = len(sets)
    isolated: list[str] = []
    r_edges: list[tuple[str, str]] = []
    s_edges: list[tuple[str, str]] = []
    a_ext: list[str] = []
    for j in range(1, m + 1):
        a_ext.append(f"b{j}_{n}")
        for i in range(1, n + 1):
            r_edges.append((f"b{j}_{i-1}", f"b{j}_{i}"))
        r_edges.append((f"b{j}_{n}", "c"))
        s_edges.append((f"b{j}_{n}", "c"))
        for i in range(1, n + 1):
            if i in sets[j - 1]:
                s_edges.append((f"b{j}_{i-1}", "c"))
            else:
                r_edges.append((f"bp{j}_{i}", "c"))
                s_edges.append((f"b{j}_{i-1}", f"bp{j}_{i}"))
                s_edges.append((f"bp{j}_{i}", f"b{j}_{i}"))
        isolated.append(f"bp{j}_0")
    r_edges.append(("c", "c"))
    s_edges.append(("c", "c"))
    return isolated, a_ext, r_edges, s_edges


def _gadget_domain(sets, n, extra: list[str]) -> list[str]:
    m = len(sets)
    domain = list(extra)
    for j in range(1, m + 1):
        domain.extend(f"b{j}_{i}" for i in range(n + 1))
        domain.extend(f"bp{j}_{i}" for i in range(n + 1)
                      if i not in sets[j - 1])
    domain.append("c")
    return domain


def hitting_set_blocks(sets, k: int) -> tuple[list[Block], int, dict]:
    fixed, n = _validate_sets(sets)
    if k < 1:
        raise ValueError("target hitting set size must be at least 1")
    m = len(fixed)
    isolated, a_ext, r_shared, s_shared = _chain_gadget_facts(fixed, n)

    # positive side: chain a_0..a_n with s-detours, joined to every gadget
    pos_domain = (["a"] + [f"a{i}" for i in range(n + 1)]
                  + [f"ap{i}" for i in range(n + 1)]
                  + _gadget_domain(fixed, n, []))
    pos_r = [("a", "a0")]
    pos_r += [(f"a{i-1}", f"a{i}") for i in range(1, n + 1)]
    pos_r += r_shared
    pos_r += [("a", f"b{j}_0") for j in range(1, m + 1)]
    pos_r += [(f"ap{i}", "c") for i in range(1, n + 1)]
    pos_r.append((f"a{n}", "c"))
    pos_s = []
    for i in range(1, n + 1):
        pos_s.append((f"a{i-1}", f"ap{i}"))
        pos_s.append((f"ap{i}", f"a{i}"))
    pos_s.append((f"a{n}", "c"))
    pos_s += s_shared
    pos_interp = Interpretation(
        pos_domain,
        {"A": set(a_ext) | {f"a{n}"}},
        {"r": pos_r, "s": pos_s})

    # negative side: bare entry b into the same gadgets
    neg_domain = ["b"] + _gadget_domain(fixed, n, [])
    neg_r = [("b", f"b{j}_0") for j in range(1, m + 1)] + r_shared
    neg_interp = Interpretation(
        neg_domain, {"A": set(a_ext)}, {"r": neg_r, "s": s_shared})

    k_prime = k + n + 2
    hs = minimum_hitting_set(fixed)
    witness = None
    if len(hs) <= k <= n:
        padded = set(hs)
        for extra in range(1, n + 1):
            if len(padded) == k:
                break
            padded.add(extra)
        witness = render_concept(hitting_set_witness(sorted(padded), n))
    metadata = {
        "generator": "hitting_set",
        "sets": [sorted(s) for s in fixed],
        "n": n,
        "m": m,
        "k": k,
        "target_size": k_prime,
        "minimum_hitting_set": list(hs),
        "witness": witness,
    }
    blocks = [("I", pos_interp, ("a",), ()), ("J", neg_interp, (), ("b",))]
    return blocks, k_prime, metadata


def hitting_set_witness(hitting_set, n: int) -> Concept:
    """The fitting concept a hitting set H induces: an r/s quantifier chain
    reading positions n..1, doubled at members of H."""
    concept: Concept = Name("A")
    for i in range(1, n + 1):
        if n - i + 1 in hitting_set:
            concept = Exists("s", Exists("s", concept))
        else:
            concept = Exists("r", concept)
    return Exists("r", concept)


def gen_hitting_set_instance(sets, k: int) -> tuple[Sample, int, dict]:
    blocks, k_prime, metadata = hitting_set_blocks(sets, k)
    return _merge(blocks), k_prime, metadata


# ---------------------------------------------------------------------------
# quantifier depth family

def _word_path(word: str, label_end: bool) -> Interpretation:
    n = len(word)
    domain = [f"p{i}" for i in range(n + 1)]
    roles: dict[str, set[tuple[str, str]]] = {}
    for i, role in enumerate(word, start=1):
        roles.setdefault(role, set()).add((f"p{i-1}", f"p{i}"))
    concepts = {"A": {f"p{n}"}} if label_end else {}
    return Interpretation(domain, concepts, roles)


def _word_path_with_tail(word: str) -> Interpretation:
    base = _word_path(word, label_end=False)
    n = len(word)
    domain = list(base.domain) + [f"q{i}" for i in range(1, n + 2)]
    roles = {role: set(pairs) for role, pairs in base.role_ext.items()}
    tail = roles.setdefault("t", set())
    tail.add(("p0", "q1"))
    for i in range(1, n + 1):
        tail.add((f"q{i}", f"q{i+1}"))
    return Interpretation(domain, base.concept_ext, roles)


def depth_family_blocks(n: int) -> list[Block]:
    if n < 1:
        raise ValueError("depth parameter must be at least 1")
    words = ["".join(w) for w in product("rs", repeat=n)]
    blocks: list[Block] = []
    for w in words:
        blocks.append((f"pos_{w}", _word_path_with_tail(w), ("p0",), ()))
    for w in words:
        blocks.append((f"neg_{w}", _word_path(w, label_end=False), (), ("p0",)))
    return blocks


def depth_family_target(n: int) -> Concept:
    return chain_of_exists("t" * (n + 1), Top())


def gen_depth_family(n: int) -> Sample:
    return _merge(depth_family_blocks(n))


# ---------------------------------------------------------------------------
# most-general-fitting family

def mostgeneral_blocks(n: int, path_words=None) -> list[Block]:
    if n < 2:
        raise ValueError("chain length must be at least 2")
    chain_edges = {(f"a{i}", f"a{i+1}") for i in range(1, n)}
    pos_interp = Interpretation(
        [f"a{i}" for i in range(1, n + 1)],
        {"A": {"a1", f"a{n}"}},
        {"r": chain_edges, "s": chain_edges})

    neg_edges = {(f"b{i}", f"b{i+1}") for i in range(1, n + 1)}
    neg_edges.add((f"b{n+1}", f"b{n+1}"))
    neg_labels = {f"b{i}" for i in range(2, n)} | {f"b{n+1}"}
    neg_interp = Interpretation(
        [f"b{i}" for i in range(1, n + 2)],
        {"A": neg_labels},
        {"r": neg_edges, "s": neg_edges})

    if path_words is None:
        path_words = ["".join(w) for w in product("rs", repeat=n)]
    else:
        path_words = list(path_words)
        for w in path_words:
            if len(w) != n or set(w) - {"r", "s"}:
                raise ValueError(f"path word must be over r/s of length {n}: "
                                 f"{w!r}")
    blocks: list[Block] = [("I", pos_interp, ("a1",), ()),
                           ("J", neg_interp, (), ("b1",))]
    for w in path_words:
        blocks.append((f"path_{w}", _word_path(w, label_end=True),
                       (), ("p0",)))
    return blocks


def gen_mostgeneral_family(n: int, path_words=None) -> Sample:
    return _merge(mostgeneral_blocks(n, path_words))


# ---------------------------------------------------------------------------
# random and synthetic instances

def _concept_name(index: int) -> str:
    return chr(ord("A") + index) if index < 26 else f"N{index}"


def _role_name(index: int) -> str:
    return "rstuvw"[index] if index < 6 else f"r{index}"


def gen_random(num_elements: int, num_concept_names: int, num_role_names: int,
               edge_density: float, num_pos: int, num_neg: int,
               seed: int) -> Sample:
    """Seeded random interpretation with disjoint example picks; one seed,
    one byte-exact sample."""
    if num_elements < 1:
        raise ValueError("need at least one element")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge density must lie in [0, 1]")
    if num_pos < 0 or num_neg < 0:
        raise ValueError("example counts cannot be negative")
    if num_pos + num_neg > num_elements:
        raise ValueError("more examples requested than domain elements")
    rng = random.Random(seed)
    domain = [f"e{i}" for i in range(1, num_elements + 1)]
    concept_ext = {}
    for c in range(num_concept_names):
        ext = {e for e in domain if rng.random() < 0.5}
        concept_ext[_concept_name(c)] = ext
    role_ext = {}
    for r in range(num_role_names):
        pairs = {(x, y) for x in domain for y in domain
                 if rng.random() < edge_density}
        role_ext[_role_name(r)] = pairs
    interp = Interpretation(domain, concept_ext, role_ext)
    picks = rng.sample(domain, num_pos + num_neg)
    return Sample(interp, tuple(picks[:num_pos]), tuple(picks[num_pos:]))


def gen_type_grid(num_elements: int, num_concept_names: int,
                  num_types: int) -> Interpretation:
    """Role-free interpretation with an exact number of distinct element
    types, every concept name in use.  Each type carries its own marker name
    plus a binary fingerprint; leftover names are spread over the first
    types.  Sized for clause-count arithmetic, not for solving."""
    if num_types < 1 or num_elements < num_types:
        raise ValueError("need at least one element per type")
    bits = (num_types - 1).bit_length()
    spare = num_concept_names - bits - num_types
    if spare < 0:
        raise ValueError(f"need at least {bits + num_types} concept names "
                         f"for {num_types} types")
    if spare > num_types:
        raise ValueError("too many concept names: some would stay unused")
    names = [_type_grid_name(i) for i in range(num_concept_names)]
    members: list[list[str]] = []
    for t in range(num_types):
        row = [names[b] for b in range(bits) if t >> b & 1]
        row.append(names[bits + t])
        if t < spare:
            row.append(names[bits + num_types + t])
        members.append(row)
    concept_ext: dict[str, set[str]] = {a: set() for a in names}
    domain = [f"e{i}" for i in range(1, num_elements + 1)]
    for idx, e in enumerate(domain):
        for a in members[idx % num_types]:
            concept_ext[a].add(e)
    return Interpretation(domain, concept_ext, {})


def _type_grid_name(index: int) -> str:
    return f"T{index}"


# ---------------------------------------------------------------------------
# writing instances to disk

def write_instance(out_dir: str | Path, stem: str, blocks: list[Block],
                   metadata: dict | None = None) -> Path:
    """One fact file per block, a manifest tying them together, and an
    optional JSON ground-truth sidecar; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    for suffix, interp, pos, neg in blocks:
        facts_name = f"{stem}_{suffix}.facts"
        (out / facts_name).write_text(save_facts(interp), encoding="utf-8")
        lines.append(f"facts = {facts_name}")
        if pos:
            lines.append("positive = " + " ".join(pos))
        if neg:
            lines.append("negative = " + " ".join(neg))
        lines.append("")
    manifest = out / f"{stem}.manifest"
    manifest.write_text("\n".join(lines), encoding="utf-8")
    if metadata is not None:
        (out / f"{stem}.json").write_text(
            json.dumps(metadata, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return manifest
