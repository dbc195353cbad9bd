from __future__ import annotations

from functools import reduce

import pytest

from alcfit.benchgen import (chain_of_exists, depth_family_blocks,
                             depth_family_target, gen_depth_family,
                             gen_hitting_set_instance, gen_mostgeneral_family,
                             gen_random, gen_type_grid, hitting_set_blocks,
                             minimum_hitting_set, mostgeneral_blocks,
                             write_instance)
from alcfit.concepts import (Exists, Name, Or, Top, parse_concept,
                             render_concept, size)
from alcfit.data import Sample, compute_types, load_sample, save_facts
from alcfit.fitter import FitConfig, bounded_fit, verify
from helpers import depth_bounded_masks, element_bit

FROZEN_WITNESS = ("exists r.exists s.exists s.exists s.exists s."
                  "exists r.exists r.A")


def test_chain_of_exists():
    c = chain_of_exists("rs", Name("A"))
    assert render_concept(c) == "exists r.exists s.A"
    assert render_concept(chain_of_exists("up down", Top())) == \
        "exists up.exists down.top"


def test_minimum_hitting_set():
    assert minimum_hitting_set([{1}]) == (1,)
    assert minimum_hitting_set([{1, 2}, {2, 3}]) == (2,)
    assert minimum_hitting_set([{1, 3}, {2, 4}]) == (1, 2)
    assert minimum_hitting_set([{1}, {2}, {3}]) == (1, 2, 3)


def test_set_validation():
    with pytest.raises(ValueError):
        minimum_hitting_set([])
    with pytest.raises(ValueError):
        minimum_hitting_set([set()])
    with pytest.raises(ValueError):
        minimum_hitting_set([{1, 3}])  # gap: 2 missing
    with pytest.raises(ValueError):
        minimum_hitting_set([{0, 1}])
    with pytest.raises(ValueError):
        hitting_set_blocks([{1}], 0)


def _gadget_size(sets, n):
    # one chain of n+1 elements per set, one detour element per non-member
    # (position 0 included), plus the sink
    return sum((n + 1) + (n + 1 - len(s)) for s in sets) + 1


def test_hitting_set_smallest_instance():
    sample, k_prime, meta = gen_hitting_set_instance([{1}], 1)
    assert k_prime == 4
    assert meta["minimum_hitting_set"] == [1]
    assert meta["witness"] == "exists r.exists s.exists s.A"
    assert len(sample.interp.domain) == 14
    witness = parse_concept(meta["witness"])
    assert size(witness) == k_prime
    assert verify(witness, sample).fits
    result = bounded_fit(sample, FitConfig(k_max=4))
    assert result.status == "fitted" and result.size == 4


def test_hitting_set_two_sets():
    blocks, k_prime, meta = hitting_set_blocks([{1, 3}, {2, 4}], 2)
    assert k_prime == 8
    assert meta["witness"] == FROZEN_WITNESS
    (pos_name, pos, _, _), (neg_name, neg, _, _) = blocks
    assert (pos_name, neg_name) == ("I", "J")
    gadget = _gadget_size([{1, 3}, {2, 4}], 4)
    assert gadget == 17
    assert len(pos.domain) == 2 * 4 + 3 + gadget == 28
    assert len(neg.domain) == 1 + gadget == 18
    sample, _, _ = gen_hitting_set_instance([{1, 3}, {2, 4}], 2)
    assert len(sample.interp.domain) == 46
    assert verify(parse_concept(FROZEN_WITNESS), sample).fits


def test_hitting_set_gadget_details():
    blocks, _, _ = hitting_set_blocks([{1, 3}, {2, 4}], 2)
    pos = blocks[0][1]
    # detour entry points carry no facts but are declared
    assert "ap0" in pos.domain and "bp1_0" in pos.domain
    touched = {e for pairs in pos.role_ext.values()
               for pair in pairs for e in pair}
    assert "ap0" not in touched and "bp1_0" not in touched
    # the chain end reaches the sink on both roles
    assert ("a4", "c") in pos.role_ext["r"]
    assert ("a4", "c") in pos.role_ext["s"]


def test_witness_padding_and_absence():
    # minimum hitting set is smaller than k: witness padded up to size k
    _, k_prime, meta = hitting_set_blocks([{1, 2}], 2)
    assert k_prime == 6
    assert meta["minimum_hitting_set"] == [1]
    witness = parse_concept(meta["witness"])
    assert size(witness) == 6
    sample, _, _ = gen_hitting_set_instance([{1, 2}], 2)
    assert verify(witness, sample).fits
    # no hitting set of size k <= n exists to render
    _, _, meta = hitting_set_blocks([{1}], 2)
    assert meta["witness"] is None


@pytest.mark.parametrize("sets", [[{1, 2}], [{1, 2}, {2, 3}],
                                  [{2}, {1, 3}]])
def test_minimal_fit_tracks_hitting_set(sets):
    hs = minimum_hitting_set(sets)
    n = max(max(s) for s in sets)
    sample, _, _ = gen_hitting_set_instance(sets, len(hs))
    result = bounded_fit(sample, FitConfig(k_max=len(hs) + n + 2))
    assert result.status == "fitted"
    assert result.size == len(hs) + n + 2


# ---------------------------------------------------------------------------
# quantifier depth family


def test_depth_family_shape():
    sample = gen_depth_family(1)
    assert sample.positives == ("f1:p0", "f2:p0")
    assert sample.negatives == ("f3:p0", "f4:p0")
    target = depth_family_target(1)
    assert render_concept(target) == "exists t.exists t.top"
    assert verify(target, sample).fits
    with pytest.raises(ValueError):
        depth_family_blocks(0)


def test_depth_family_minimal_fit_is_shallow():
    # the advertised target fits but is not minimal: a single t-probe
    # already separates, because only positives carry t-edges at all
    sample = gen_depth_family(1)
    assert verify(Exists("t", Top()), sample).fits
    result = bounded_fit(sample, FitConfig(k_max=3))
    assert result.size == 2


def test_depth_family_pairs_inseparable_without_t():
    # over r/s alone the paired examples look identical, so any separating
    # concept must spend quantifiers on t
    sample = gen_depth_family(1)
    masks = depth_bounded_masks(sample.interp, ("r", "s"), 3)
    for pos, neg in (("f1:p0", "f3:p0"), ("f2:p0", "f4:p0")):
        bp = element_bit(sample.interp, pos)
        bn = element_bit(sample.interp, neg)
        assert all(bool(m & bp) == bool(m & bn) for m in masks)


def test_depth_family_path_disjunction():
    # with one positive per retained word and the matching negatives dropped,
    # the union of the retained words' path probes fits at depth n
    sample = gen_depth_family(1)
    c0 = parse_concept("exists r.top")
    assert verify(c0, Sample(sample.interp, ("f1:p0",), ("f4:p0",))).fits
    assert not verify(c0, Sample(sample.interp, ("f1:p0",), ("f3:p0",))).fits


# ---------------------------------------------------------------------------
# most-general-fitting family


def _path_probe(word: str):
    return chain_of_exists(word, Name("A"))


def test_mostgeneral_core_pair():
    sample = gen_mostgeneral_family(2, path_words=[])
    assert sample.positives == ("f1:a1",)
    assert sample.negatives == ("f2:b1",)
    assert verify(Name("A"), sample).fits


def test_mostgeneral_full_family():
    sample = gen_mostgeneral_family(2)
    assert sample.positives == ("f1:a1",)
    assert len(sample.negatives) == 1 + 4  # chain entry plus all 2^2 paths
    # with every path negative no disjunct survives, leaving the bare name
    words = ["rr", "rs", "sr", "ss"]
    leftovers = [w for w in words if f"path_{w}" not in
                 {b[0] for b in mostgeneral_blocks(2)}]
    assert not leftovers
    assert verify(Name("A"), sample).fits


def test_mostgeneral_partial_disjunction_overreaches():
    # keeping only the rr path negative invites disjuncts for the other
    # words, but those probes also succeed at the negative chain entry
    sample = gen_mostgeneral_family(2, path_words=["rr"])
    assert sample.negatives == ("f2:b1", "f3:p0")
    c0 = reduce(Or, [_path_probe(w) for w in ("rs", "sr", "ss")], Name("A"))
    report = verify(c0, sample)
    assert not report.fits
    assert report.misclassified == ("f2:b1",)


def test_mostgeneral_validation():
    with pytest.raises(ValueError):
        mostgeneral_blocks(1)
    with pytest.raises(ValueError):
        gen_mostgeneral_family(2, path_words=["r"])
    with pytest.raises(ValueError):
        gen_mostgeneral_family(2, path_words=["rt"])


# ---------------------------------------------------------------------------
# random and synthetic instances


def test_gen_random_deterministic():
    a = gen_random(6, 2, 2, 0.4, 2, 1, seed=7)
    b = gen_random(6, 2, 2, 0.4, 2, 1, seed=7)
    assert save_facts(a.interp) == save_facts(b.interp)
    assert (a.positives, a.negatives) == (b.positives, b.negatives)
    c = gen_random(6, 2, 2, 0.4, 2, 1, seed=8)
    assert save_facts(a.interp) != save_facts(c.interp)


def test_gen_random_density_extremes():
    sparse = gen_random(5, 1, 2, 0.0, 1, 1, seed=3)
    assert all(not pairs for pairs in sparse.interp.role_ext.values())
    dense = gen_random(4, 1, 2, 1.0, 1, 1, seed=3)
    assert all(len(pairs) == 16 for pairs in dense.interp.role_ext.values())


def test_gen_random_naming_and_validation():
    s = gen_random(3, 3, 3, 0.5, 1, 1, seed=0)
    assert set(s.interp.concept_ext) == {"A", "B", "C"}
    assert set(s.interp.role_ext) == {"r", "s", "t"}
    with pytest.raises(ValueError):
        gen_random(0, 1, 1, 0.5, 0, 0, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 1, 1, 1.5, 1, 1, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 1, 1, 0.5, 2, 2, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 1, 1, 0.5, -1, 1, seed=0)


def test_type_grid_small():
    interp = gen_type_grid(50, 12, 8)
    assert len(interp.domain) == 50
    assert len(interp.concept_ext) == 12
    assert all(ext for ext in interp.concept_ext.values())
    assert len(compute_types(interp).types) == 8


def test_type_grid_degenerate():
    interp = gen_type_grid(3, 1, 1)
    assert interp.concept_ext == {"T0": {"e1", "e2", "e3"}}
    assert len(compute_types(interp).types) == 1


def test_type_grid_validation():
    with pytest.raises(ValueError):
        gen_type_grid(5, 12, 8)  # fewer elements than types
    with pytest.raises(ValueError):
        gen_type_grid(50, 10, 8)  # not enough names for 8 markers + 3 bits
    with pytest.raises(ValueError):
        gen_type_grid(50, 20, 8)  # more spares than types to absorb them


def test_type_grid_headline_shape():
    interp = gen_type_grid(19221, 133, 105)
    assert len(compute_types(interp).types) == 105
    assert all(ext for ext in interp.concept_ext.values())


# ---------------------------------------------------------------------------
# disk round-trips


def test_write_instance_round_trip(tmp_path):
    blocks, _, meta = hitting_set_blocks([{1, 3}, {2, 4}], 2)
    manifest = write_instance(tmp_path, "hs", blocks, meta)
    assert manifest.name == "hs.manifest"
    assert (tmp_path / "hs_I.facts").exists()
    assert (tmp_path / "hs_J.facts").exists()
    assert (tmp_path / "hs.json").exists()
    reloaded = load_sample(manifest)
    direct, _, _ = gen_hitting_set_instance([{1, 3}, {2, 4}], 2)
    assert reloaded.interp == direct.interp
    assert reloaded.positives == direct.positives
    assert reloaded.negatives == direct.negatives


def test_write_instance_other_families(tmp_path):
    for stem, blocks, direct in [
            ("depth", depth_family_blocks(1), gen_depth_family(1)),
            ("mg", mostgeneral_blocks(2), gen_mostgeneral_family(2))]:
        manifest = write_instance(tmp_path / stem, stem, blocks)
        reloaded = load_sample(manifest)
        assert reloaded.interp == direct.interp
        assert reloaded.positives == direct.positives
        assert reloaded.negatives == direct.negatives
        assert not (tmp_path / stem / f"{stem}.json").exists()
