from __future__ import annotations

import gc
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcfit import data
from alcfit.benchgen import (gen_depth_family, gen_mostgeneral_family,
                             gen_random, gen_type_grid)
from alcfit.concepts import Signature
from alcfit.data import (DataError, Interpretation, Sample,
                         compute_types, dualize_interpretation,
                         dualize_sample, interpretation_signature, load_facts,
                         load_sample, quotient, save_facts,
                         save_sample)

from helpers import FIG1_I, contradictory, fig1


def test_load_facts_first_appearance_order():
    interp = load_facts("r(a1,x)\nA(x)\n")
    assert interp.domain == ("a1", "x")
    assert interp.concept_ext == {"A": frozenset({"x"})}
    assert interp.role_ext == {"r": frozenset({("a1", "x")})}


def test_load_facts_element_declarations_and_comments():
    interp = load_facts("# header\nelement lonely\n\nA(e) # trailing\n")
    assert interp.domain == ("lonely", "e")


# bad line -> its message, which names the line's number; the same
# whether or not earlier lines made its names and elements known
_BAD = {
    "A(e": "cannot parse 'A(e'",
    "r(a)": "concept names start uppercase: 'r'",
    "1up(e)": "cannot parse '1up(e)'",
    "a(e)": "concept names start uppercase: 'a'",
    "R(a,b)": "role names start lowercase: 'R'",
    "not(e)": "concept names start uppercase: 'not'",
    "element ": "cannot parse 'element'",
    "A()": "cannot parse 'A()'",
    "junk": "cannot parse 'junk'",
    "A(a,b)": "role names start lowercase: 'A'",
    "r(a,b,c)": "cannot parse 'r(a,b,c)'",
    "r(,b)": "cannot parse 'r(,b)'",
    "A(a)x": "cannot parse 'A(a)x'",
    "A(a))": "cannot parse 'A(a))'",
    "element a b": "bad element identifier 'a b'",
}
# four lines that make A, r, a, b and c known, so that a bad line after
# them meets known names and elements
_KNOWN = "A(a)\nA(b)\nr(a,b)\nelement c\n"


@pytest.mark.parametrize("bad", list(_BAD))
def test_load_facts_rejects_malformed_lines(bad):
    for text, lineno in ((bad + "\n", 1), (_KNOWN + bad + "\n", 5)):
        with pytest.raises(DataError,
                           match=re.escape(f"line {lineno}: {_BAD[bad]}")):
            load_facts(text)


def test_load_facts_checks_names_per_kind():
    # a name is checked once per kind; the error keeps its line number
    cases = [("A(e)\nA(f)\na(g)\n", "line 3: concept names start uppercase"),
             ("r(a,b)\nr(b,c)\nr(c)\n", "line 3: concept names start"),
             ("A(e)\nA(e,f)\n", "line 2: role names start lowercase"),
             ("A(e)\nr(e,f)\nr(f,1x)\n", "line 3: bad element identifier"),
             ("r(a,b)\nr(a,b)\nelement 9z\n", "line 3: bad element")]
    for text, message in cases:
        with pytest.raises(DataError, match=message):
            load_facts(text)


def test_repeated_concept_facts_keep_the_language():
    # a fact on a known name and element is read as the first one was;
    # what it accepts and how it fails must not change
    interp = load_facts("A(e)\nA( e )\nA(f)\nA(\te)\n")
    assert interp.concept_ext == {"A": frozenset({"e", "f"})}
    # "#" starts a comment, also right after a known element
    assert load_facts("element a\nelement a#\nelement b#\n") == \
        load_facts("element a\nelement b\n")
    cases = [("A(e)\nA (e)\n", "line 2: cannot parse 'A (e)'"),
             ("A(e)\nA(e))\n", "line 2: cannot parse 'A(e))'"),
             ("A(e)\na(e)\n", "line 2: concept names start uppercase: 'a'"),
             ("A(e)\nA((e)\n", "line 2: cannot parse 'A((e)'"),
             ("A(e)\nA(e # c)\n", "line 2: cannot parse 'A(e # c)'")]
    for text, message in cases:
        with pytest.raises(DataError, match=re.escape(message)):
            load_facts(text)


def test_empty_fact_file_rejected():
    with pytest.raises(DataError):
        load_facts("# nothing here\n")


def test_save_load_identity_on_running_example():
    interp = load_facts(FIG1_I)
    assert load_facts(save_facts(interp)) == interp


def test_interpretation_validation():
    with pytest.raises(DataError):
        Interpretation([], {}, {})
    with pytest.raises(DataError):
        Interpretation(["e", "e"], {}, {})
    with pytest.raises(DataError):
        Interpretation(["e"], {"A": {"ghost"}}, {})
    with pytest.raises(DataError):
        Interpretation(["e"], {}, {"r": {("e", "ghost")}})


def test_empty_extension_equals_absent_extension():
    a = Interpretation(["e"], {"A": set()}, {"r": set()})
    b = Interpretation(["e"], {}, {})
    assert a == b and hash(a) == hash(b)


def test_sample_rejects_overlap_and_strays():
    interp = load_facts("element e1\nelement e2\n")
    with pytest.raises(DataError):
        Sample(interp, ("e1",), ("e1",))
    # an example listed twice would be counted twice
    with pytest.raises(DataError, match="listed twice as positive: e1$"):
        Sample(interp, ("e1", "e2", "e1"), ())
    with pytest.raises(DataError, match="listed twice as negative: e2$"):
        Sample(interp, ("e1",), ("e2", "e2"))
    with pytest.raises(DataError):
        Sample(interp, ("zz",), ())
    assert Sample(interp, ("e1",), ("e2",)).num_examples == 2


# -- manifests and merging

def test_manifest_merging_prefixes_elements(fig1_manifest):
    sample = load_sample(fig1_manifest)
    assert sample.positives == ("f1:a1", "f1:a2")
    assert sample.negatives == ("f2:b",)
    assert len(sample.interp.domain) == 7
    assert sample.interp.concept_ext["B"] == frozenset({"f1:x2", "f2:y2"})


def test_merging_shares_one_string_per_element(fig1_manifest):
    # the facts refer to the merged domain's own strings, not to copies
    interp = load_sample(fig1_manifest).interp
    own = {id(e) for e in interp.domain}
    assert all(id(e) in own
               for ext in interp.concept_ext.values() for e in ext)
    assert all(id(x) in own and id(y) in own
               for pairs in interp.role_ext.values() for x, y in pairs)


def test_single_block_keeps_element_names(tmp_path):
    (tmp_path / "one.facts").write_text(FIG1_I, encoding="utf-8")
    (tmp_path / "one.manifest").write_text(
        "facts = one.facts\npositive = a1\n", encoding="utf-8")
    sample = load_sample(tmp_path / "one.manifest")
    assert sample.positives == ("a1",)


def test_manifest_errors(tmp_path):
    man = tmp_path / "bad.manifest"
    man.write_text("positive = a\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_sample(man)  # example line before any facts line
    man.write_text("facts = missing.facts\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_sample(man)
    (tmp_path / "ok.facts").write_text("A(e)\n", encoding="utf-8")
    man.write_text("facts = ok.facts\npositive = ghost\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_sample(man)


def test_save_sample_round_trip(tmp_path, fig1_sample):
    manifest = save_sample(fig1_sample, tmp_path, stem="merged")
    again = load_sample(manifest)
    assert again.interp == fig1_sample.interp
    assert again.positives == fig1_sample.positives
    assert again.negatives == fig1_sample.negatives


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_random_sample_survives_disk_round_trip(tmp_path_factory, seed):
    sample = gen_random(5, 2, 2, 0.4, 2, 1, seed)
    out = tmp_path_factory.mktemp("rt")
    again = load_sample(save_sample(sample, out))
    assert again.interp == sample.interp
    assert (again.positives, again.negatives) == (sample.positives,
                                                  sample.negatives)


# lines of every kind, and every line end str.splitlines knows
_LINES = ["A(a)", "B(f1:x)", "r(a,b)", "s(b,a)", "element c", "element f2:y",
          "# comment", "A(b) # trailing", "", "   ", "\t", "  A( a )  ",
          "\tr( a , b )", "element  d ", "A(a", "a(b)", "R(a,b)",
          "element ", "junk", "not(a)", "A(1x)", "r(a,b", "A(a))",
          "A(a,b)", "r(a)", "r(a,b,c)", "r(,b)", "A()", "A(a)x",
          "element a b", "element a#"]
_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
         "\x85", "\u2028", "\u2029"]


def _outcome(load):
    try:
        return load()
    except DataError as exc:
        return str(exc)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(_LINES), st.sampled_from(_ENDS)),
                max_size=12),
       st.booleans(), st.integers(1, 24))
def test_streamed_loading_agrees_with_text_loading(tmp_path_factory, lines,
                                                   final_end, batch):
    text = "".join(line + end for line, end in lines)
    if lines and not final_end:
        text = text[:-len(lines[-1][1])]  # no line end after the last line
    out = tmp_path_factory.mktemp("stream")
    facts = out / "t.facts"
    facts.write_bytes(text.encode("utf-8"))
    (out / "t.manifest").write_text("facts = t.facts\n", encoding="utf-8")
    expected = _outcome(lambda: load_facts(text))
    if isinstance(expected, str):
        expected = f"{facts}: {expected}"
    # small batches put batch boundaries next to every kind of line
    with mock.patch.object(data, "_BATCH", batch):
        got = _outcome(lambda: load_sample(out / "t.manifest").interp)
    assert got == expected  # Interpretation equality compares domain order


_ELEMS = st.sampled_from(["a", "b", "c_1", "f1:x", "f2:y", "f10:a"])
# a canonical line: concept fact, role fact or element declaration
_CANONICAL = st.one_of(
    st.tuples(st.sampled_from(["A", "B"]), _ELEMS).map(
        lambda t: f"{t[0]}({t[1]})"),
    st.tuples(st.sampled_from(["r", "s"]), _ELEMS, _ELEMS).map(
        lambda t: f"{t[0]}({t[1]},{t[2]})"),
    _ELEMS.map(lambda e: f"element {e}"))


def _pad(line: str, how: int) -> str:
    """line in a form that only the general line parser reads: spaces
    inside the parentheses, whitespace around it, or a trailing comment."""
    if how == 0:
        return (line.replace("(", "( ").replace(",", " ,\t").replace(")", " )")
                if "(" in line else line.replace(" ", "  ") + " ")
    if how == 1:
        return " \t" + line + "  "
    return line + " # comment (with, parentheses)"


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(_CANONICAL, st.integers(0, 3)), min_size=1,
                max_size=16))
def test_padded_lines_parse_as_canonical_lines(lines):
    # the canonical forms are those runs read; the padded ones only the
    # general parser reads
    canonical = load_facts("\n".join(line for line, _ in lines))
    padded = "\n".join(line if how == 3 else _pad(line, how)
                       for line, how in lines)
    assert load_facts(padded) == canonical  # domain order included


# elements, plain and prefixed, of the random interpretations below
_POOL = ["a", "b", "c_1", "e9", "f1:x", "f2:y", "f10:a", "z"]


@st.composite
def _interpretations(draw):
    """An interpretation over some of _POOL, in random domain order, with
    extensions of any size, one fact or none included."""
    elems = draw(st.lists(st.sampled_from(_POOL), min_size=1, unique=True))
    subsets = st.sets(st.sampled_from(elems))
    pairs = st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)))
    return Interpretation(elems, {a: draw(subsets) for a in "ABC"},
                          {r: draw(pairs) for r in "rs"})


def _layouts(interp: Interpretation, rng: random.Random) -> dict:
    """interp's fact lines, element declarations included, in the order
    save_facts writes them, in subject order (each element's declaration,
    then the facts it is the subject of) and shuffled."""
    by_subject: dict[str, list[str]] = {e: [f"element {e}"]
                                        for e in interp.domain}
    for a, ext in interp.concept_ext.items():
        for e in sorted(ext):
            by_subject[e].append(f"{a}({e})")
    for r, edges in interp.role_ext.items():
        for x, y in sorted(edges):
            by_subject[x].append(f"{r}({x},{y})")
    subject = [line for lines in by_subject.values() for line in lines]
    shuffled = subject[:]
    rng.shuffle(shuffled)
    return {"save": save_facts(interp).splitlines(), "subject": subject,
            "shuffled": shuffled}


@settings(deadline=None, max_examples=150)
@given(_interpretations(), st.randoms(use_true_random=False),
       st.integers(1, 40))
def test_runs_read_every_layout_as_the_general_path(tmp_path_factory, interp,
                                                    rng, batch):
    out = tmp_path_factory.mktemp("layouts")
    facts = out / "t.facts"
    (out / "t.manifest").write_text("facts = t.facts\n", encoding="utf-8")
    for layout, lines in _layouts(interp, rng).items():
        for declared in (True, False):
            if not declared:
                lines = [line for line in lines
                         if not line.startswith("element ")]
            text = "".join(line + "\n" for line in lines)
            # padded, every line is read by the general parser
            expected = _outcome(lambda: load_facts(
                "".join(_pad(line, 1) + "\n" for line in lines)))
            assert _outcome(lambda: load_facts(text)) == expected
            facts.write_text(text, encoding="utf-8")
            # small batches cut runs across pieces
            with mock.patch.object(data, "_BATCH", batch):
                got = _outcome(lambda: load_sample(out / "t.manifest").interp)
            if isinstance(expected, str):
                expected = f"{facts}: {expected}"
            assert got == expected, (layout, declared)  # domain order too


# a run broken by a line the general parser rejects: the error, and its
# line number, are those of the general parser
_RUN_ERRORS = {
    "r(a,b)\nnot(a,b)\n": "line 2: role identifier 'not' is reserved",
    "r(a,b)\nr(b,c)\nnot(a,b)\nnot(b,a)\n":
        "line 3: role identifier 'not' is reserved",
    "A(a)\nA(b)\nA(1x)\nA(c)\n": "line 3: bad element identifier '1x'",
    "element a\nelement b\nelement 9z\nelement c\n":
        "line 3: bad element identifier '9z'",
    "r(a,b)\nr(b,1x)\nr(c,d)\n": "line 2: bad element identifier '1x'",
    "A(a)\nA(b)\nA(f1:x)\nA(f1:)\n": "line 4: bad element identifier 'f1:'",
}


@pytest.mark.parametrize("text", list(_RUN_ERRORS))
def test_a_line_that_breaks_a_run_fails_as_before(tmp_path, text):
    message = _RUN_ERRORS[text]
    with pytest.raises(DataError, match=re.escape(message)):
        load_facts(text)
    (tmp_path / "t.facts").write_text(text, encoding="utf-8")
    (tmp_path / "t.manifest").write_text("facts = t.facts\n",
                                         encoding="utf-8")
    for batch in (1, 7, 1 << 16):
        with mock.patch.object(data, "_BATCH", batch), \
                pytest.raises(DataError, match=re.escape(message)):
            load_sample(tmp_path / "t.manifest")


def test_saved_benchmark_samples_are_read_by_runs(tmp_path, monkeypatch):
    # the small instances of the encode-names and encode-roles benchmarks,
    # as save_facts writes them: every name has two facts or more, so the
    # general parser reads none of their lines
    read = []
    lines = data._Reader.lines
    monkeypatch.setattr(data._Reader, "lines",
                        lambda self, batch: lines(self, read.extend(batch)
                                                  or batch))
    for interp in (gen_type_grid(300, 20, 12),
                   gen_random(60, 4, 2, 0.05, 10, 10, 1).interp):
        manifest = save_sample(Sample(interp, (), ()), tmp_path)
        assert load_sample(manifest).interp == interp
    assert read == []
    assert load_facts("A(a)\n") == Interpretation(["a"], {"A": {"a"}}, {})
    assert read == ["A(a)"]  # the patch sees the general parser's lines


def test_full_size_benchmark_samples_are_read_by_runs(tmp_path, monkeypatch):
    # the encode-names type grid and the encode-roles interpretations of
    # seeds 0-3 at full size, as save_sample writes them: the general
    # parser reads none of their lines
    read = []
    lines = data._Reader.lines
    monkeypatch.setattr(data._Reader, "lines",
                        lambda self, batch: lines(self, read.extend(batch)
                                                  or batch))
    samples = [Sample(gen_type_grid(19221, 133, 105), (), ())]
    samples += [gen_random(2000, 4, 2, 0.002, 10, 10, s) for s in range(4)]
    for i, sample in enumerate(samples):
        manifest = save_sample(sample, tmp_path, f"s{i}")
        assert load_sample(manifest).interp == sample.interp
        assert read == [], i


def _traced_load(manifest):
    """load_sample(manifest) with the bytes it keeps and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        sample = load_sample(manifest)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sample, kept, peak


def test_loading_holds_no_copy_of_the_file(tmp_path):
    # the type grid of the encode-names benchmark: a 1.2 MB fact file
    manifest = save_sample(Sample(gen_type_grid(19221, 133, 105), (), ()),
                           tmp_path)
    sample, kept, peak = _traced_load(manifest)
    assert len(sample.interp.domain) == 19221
    assert peak <= 1.25 * kept, (peak, kept)
    # two blocks naming the file: each is merged before the next is read,
    # so the peak exceeds what the merged sample keeps by at most one
    # block's load
    two = tmp_path / "two.manifest"
    two.write_text("facts = sample.facts\nfacts = sample.facts\n",
                   encoding="utf-8")
    merged, merged_kept, merged_peak = _traced_load(two)
    assert len(merged.interp.domain) == 2 * 19221
    assert merged_peak <= merged_kept + peak, (merged_peak, merged_kept, peak)


# -- duality and types

def test_dualize_complements_named_extensions(fig1_sample):
    interp = fig1_sample.interp
    sigma = interpretation_signature(interp)
    dual = dualize_interpretation(interp, sigma)
    assert dual.concept_ext["A"] == interp.domain_set - interp.concept_ext["A"]
    assert dual.role_ext == interp.role_ext
    assert dualize_interpretation(dual, sigma) == interp


def test_dualize_covers_absent_names():
    interp = load_facts("element e\n")
    sigma = Signature(frozenset({"A"}), frozenset())
    dual = dualize_interpretation(interp, sigma)
    assert dual.concept_ext["A"] == frozenset({"e"})


def test_dualize_sample_swaps_labels(fig1_sample):
    dual = dualize_sample(fig1_sample, interpretation_signature(
        fig1_sample.interp))
    assert dual.positives == fig1_sample.negatives
    assert dual.negatives == fig1_sample.positives


def test_types_of_running_example(fig1_sample):
    table = compute_types(fig1_sample.interp)
    assert len(table) == 3
    assert table.types == (frozenset(), frozenset({"A"}), frozenset({"B"}))
    assert table.type_of["f1:x1"] == 1
    assert table.type_of["f2:b"] == 0


def test_signature_collects_nonempty_extensions(fig1_sample):
    sigma = interpretation_signature(fig1_sample.interp)
    assert sigma.concept_names == frozenset({"A", "B"})
    assert sigma.role_names == frozenset({"r"})


# -- bisimulation quotient

def test_quotient_class_counts():
    cases = [(fig1(), 7, 6), (contradictory(), 2, 1),
             (gen_depth_family(5), 576, 100),
             (gen_mostgeneral_family(5), 203, 73)]
    for sample, elements, classes in cases:
        q = quotient(sample)
        assert q.source is sample.interp
        assert (len(sample.interp.domain), len(q.interp.domain)) == \
            (elements, classes)
        assert set(q.row) <= sample.interp.domain_set
        assert sorted(set(q.row.values())) == list(range(classes))


def test_quotient_of_running_example():
    sample = fig1()
    q = quotient(sample)
    # the B-leaves x2 and y2 merge into the class of x2, first in order
    assert q.interp.domain == ("f1:a1", "f1:x1", "f1:a2", "f1:x2", "f2:b",
                               "f2:y1")
    assert q.row["f2:y2"] == q.row["f1:x2"] == 3
    assert q.interp.concept_ext == {"A": frozenset({"f1:x1"}),
                                    "B": frozenset({"f1:x2"})}
    assert q.interp.successors("r")["f2:b"] == frozenset({"f2:y1", "f1:x2"})


def test_quotient_drops_unreachable_elements():
    interp = load_facts("r(a,b)\nr(c,a)\nA(b)\nelement d\n")
    q = quotient(Sample(interp, ("a",), ()))
    assert q.interp.domain == ("a", "b")
    assert set(q.row) == {"a", "b"}
    # with no examples nothing is read, and nothing is cut
    assert quotient(Sample(interp, (), ())).interp is interp


def test_quotient_keeps_the_interpretation_when_nothing_shrinks():
    sample = gen_random(2000, 4, 2, 0.002, 10, 10, seed=1)
    q = quotient(sample)
    assert q.interp is sample.interp
    assert q.row is sample.interp.index
