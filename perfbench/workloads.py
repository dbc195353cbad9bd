"""Seeded inputs for the benchmark workloads.

A workload generates its instances in memory from the seed, writes them with
alcfit's own writers (``save_sample`` for single samples, ``write_instance``
for block instances), and only then is the program run, on the written
manifests.  Ground truth for the fit corpus comes from the brute-force
oracle and the hitting-set reduction, never from the fitter under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from alcfit import benchgen, oracle
from alcfit.concepts import O_ALL
from alcfit.data import Interpretation, Sample, merge_blocks, save_sample


@dataclass
class Instance:
    stem: str
    sample: Sample              # the benchmark's own copy, for checking
    blocks: list | None = None  # benchgen blocks; None: one plain sample
    minimum: int | None = None  # fit corpus: known minimum fitting size
    manifest: Path | None = None

    def write(self, out_dir: Path) -> None:
        if self.blocks is None:
            self.manifest = save_sample(self.sample, out_dir, self.stem)
        else:
            self.manifest = benchgen.write_instance(out_dir, self.stem,
                                                    self.blocks)


def _from_blocks(stem: str, blocks: list) -> Instance:
    sample = merge_blocks([(interp, list(pos), list(neg))
                           for _, interp, pos, neg in blocks])
    return Instance(stem, sample, blocks)


@dataclass(frozen=True)
class EncodeRoles:
    """``alcfit encode`` on a seeded random interpretation with roles."""

    elements: int = 2000
    names: int = 4
    roles: int = 2
    density: float = 0.002
    pos: int = 10
    neg: int = 10
    max_size: int = 8
    kind = "encode"

    def generate(self, seed: int) -> list[Instance]:
        sample = benchgen.gen_random(self.elements, self.names, self.roles,
                                     self.density, self.pos, self.neg, seed)
        return [Instance("roles", sample)]


@dataclass(frozen=True)
class EncodeNames:
    """``alcfit encode`` on the role-free type grid, examples drawn by seed."""

    elements: int = 19221
    names: int = 133
    types: int = 105
    pos: int = 20
    neg: int = 20
    max_size: int = 4
    kind = "encode"

    def generate(self, seed: int) -> list[Instance]:
        interp = benchgen.gen_type_grid(self.elements, self.names, self.types)
        picks = random.Random(seed).sample(interp.domain, self.pos + self.neg)
        sample = Sample(interp, tuple(picks[:self.pos]),
                        tuple(picks[self.pos:]))
        return [Instance("names", sample)]


def _fig1_blocks() -> list:
    i = Interpretation(["a1", "x1", "a2", "x2"], {"A": {"x1"}, "B": {"x2"}},
                       {"r": {("a1", "x1"), ("a2", "x2")}})
    j = Interpretation(["b", "y1", "y2"], {"B": {"y2"}},
                       {"r": {("b", "y1"), ("b", "y2")}})
    return [("I", i, ("a1", "a2"), ()), ("J", j, (), ("b",))]


def _hitting_sets(rng: random.Random, max_n: int, max_m: int) -> list:
    """Random nonempty subsets of 1..n whose union is all of 1..n."""
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(1, max_m)
        sets = [{x for x in range(1, n + 1) if rng.random() < 0.5} or {1}
                for _ in range(m)]
        if set().union(*sets) == set(range(1, n + 1)):
            return sets


@dataclass(frozen=True)
class FitExact:
    """``alcfit fit`` (exact mode, default operators) on a corpus with known
    minimum sizes: fig1, hitting-set reductions, depth, mostgeneral and
    small random samples."""

    hitting_sets: int = 2
    max_n: int = 5
    max_m: int = 3
    depth_n: int = 2
    mostgeneral_n: int = 3
    random_samples: int = 4
    random_elements: int = 8
    oracle_k: int = 7
    kind = "fit"

    def generate(self, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        out = [_from_blocks("fig1", _fig1_blocks())]
        for h in range(self.hitting_sets):
            sets = _hitting_sets(rng, self.max_n, self.max_m)
            k = len(benchgen.minimum_hitting_set(sets))
            blocks, k_prime, _ = benchgen.hitting_set_blocks(sets, k)
            inst = _from_blocks(f"hitting{h}", blocks)
            inst.minimum = k_prime  # the reduction's theorem
            out.append(inst)
        out.append(_from_blocks(
            "depth", benchgen.depth_family_blocks(self.depth_n)))
        out.append(_from_blocks(
            "mostgeneral", benchgen.mostgeneral_blocks(self.mostgeneral_n)))
        for r in range(self.random_samples):
            elements = rng.randint(3, self.random_elements)
            pos = rng.randint(1, 2)
            neg = rng.randint(1, min(2, elements - pos))
            sample = benchgen.gen_random(
                elements, rng.randint(1, 2), rng.randint(1, 2),
                rng.choice((0.2, 0.3, 0.5)), pos, neg, rng.randrange(1 << 30))
            out.append(Instance(f"random{r}", sample,
                                [("facts", sample.interp, sample.positives,
                                  sample.negatives)]))
        return out

    def ground_truth(self, instances: list[Instance]) -> list[Instance]:
        """Fill in oracle minima; drop instances with no fit up to oracle_k."""
        kept = []
        for inst in instances:
            if inst.minimum is None:
                found = oracle.brute_force_fit(inst.sample, O_ALL,
                                               self.oracle_k)
                if found is None:
                    continue
                inst.minimum = found[1]
            kept.append(inst)
        return kept


WORKLOADS = {
    "encode-roles": EncodeRoles(),
    "encode-names": EncodeNames(),
    "fit-exact": FitExact(),
}

# small variants with the same code paths, for the benchmark's self-tests
TOY = {
    "encode-roles": replace(WORKLOADS["encode-roles"], elements=60,
                            density=0.05, max_size=4),
    "encode-names": replace(WORKLOADS["encode-names"], elements=300,
                            names=20, types=12, max_size=3),
    "fit-exact": replace(WORKLOADS["fit-exact"], hitting_sets=1, max_n=3,
                         max_m=2, random_samples=2, random_elements=5),
}
