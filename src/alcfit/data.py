"""Finite interpretations, samples, fact files, manifests, types, duality.

Fact file format (UTF-8, one item per line):

    A(e)            concept fact; A starts uppercase
    r(e,f)          role fact; r starts lowercase
    element e       domain declaration for an element with no facts
    # ...           comment; blank lines ignored

Lines are those of str.splitlines, so error line numbers count them that
way.  A fact file or manifest may start with a UTF-8 byte-order mark.
load_sample reads each fact file in pieces of whole lines, _BATCH
characters at a time: a piece ends after the last "\n" of its chunk and
the rest is carried into the next piece, so loading needs memory of the
order of the interpretation, not of the file; load_facts reads its text
as one piece.

A line is read one of two ways.  Two or more lines in a row in the exact
forms save_facts writes (`element e`, `A(e)`, `r(e,f)`: no whitespace, no
comment), all element declarations or all facts on one name, whose names
and elements pass the general parser's checks, are a run, added at once:
one split gives its elements in line order, those not seen before join
the domain in that order, and one set update adds its facts.  Every other
line, and every error, goes to the general parser, one line at a time;
from a piece's second such line on, the rest of the piece does, so a file
in subject order or shuffled costs a failed match or two a piece.

A sample manifest is structured text with repeatable blocks, one per fact
file; a new block starts at each `facts =` line:

    facts = fig1_I.facts
    positive = a1 a2

    facts = fig1_J.facts
    negative = b

Multiple blocks are merged into one interpretation by disjoint union, with
elements renamed apart using a file-index prefix ("f1:", "f2:", ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import filterfalse, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .concepts import _KEYWORDS, Signature

__all__ = [
    "DataError", "Interpretation", "Sample", "TypeTable",
    "load_facts", "save_facts", "load_sample", "save_sample", "merge_blocks",
    "dualize_interpretation", "dualize_sample", "compute_types",
    "interpretation_signature", "Quotient", "quotient",
]


class DataError(ValueError):
    """Raised on malformed fact files, manifests, or inconsistent samples."""


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
_PREFIXED_RE = re.compile(r"f\d+:" + _IDENT + r"\Z")
# a fact for the general parser: a role fact when it has a second argument
_FACT_RE = re.compile(rf"({_IDENT})\(\s*([A-Za-z0-9_:]+)\s*"
                      r"(?:,\s*([A-Za-z0-9_:]+)\s*)?\)\Z")
# the concept parser's keywords, and the fact files' own
_RESERVED = _KEYWORDS | {"element"}


class Interpretation:
    """A finite labeled directed graph.

    domain: element identifiers in first-appearance order.
    concept_ext: concept name -> frozenset of elements (nonempty only).
    role_ext: role name -> frozenset of (source, target) pairs (nonempty only).

    Equality is structural.  Immutable after construction.
    """

    __slots__ = ("domain", "concept_ext", "role_ext", "index", "domain_set",
                 "_succ", "_hash")

    def __init__(self, domain, concept_ext, role_ext):
        dom = tuple(domain)
        if not dom:
            raise DataError("empty domain")
        self.domain: tuple[str, ...] = dom
        self.domain_set: frozenset[str] = frozenset(dom)
        if len(self.domain_set) != len(dom):
            raise DataError("duplicate elements in domain")
        # drop empty extensions so that absent and empty are the same thing;
        # a frozenset extension is kept as it is, not copied
        self.concept_ext: dict[str, frozenset[str]] = {
            a: frozenset(ext) for a, ext in sorted(concept_ext.items()) if ext}
        self.role_ext: dict[str, frozenset[tuple[str, str]]] = {
            r: frozenset(ext) for r, ext in sorted(role_ext.items()) if ext}
        for a, ext in self.concept_ext.items():
            stray = ext - self.domain_set
            if stray:
                raise DataError(f"extension of {a} mentions unknown elements: "
                                f"{', '.join(sorted(stray))}")
        for r, pairs in self.role_ext.items():
            for x, y in pairs:
                if x not in self.domain_set or y not in self.domain_set:
                    raise DataError(f"edge {r}({x},{y}) leaves the domain")
        self.index: dict[str, int] = {e: i for i, e in enumerate(dom)}
        self._succ: dict[str, dict[str, frozenset[str]]] = {}
        self._hash: int | None = None

    def successors(self, role: str) -> dict[str, frozenset[str]]:
        """Map source element -> frozenset of role-successors (cached)."""
        cached = self._succ.get(role)
        if cached is None:
            acc: dict[str, set[str]] = {}
            for x, y in self.role_ext.get(role, ()):
                acc.setdefault(x, set()).add(y)
            cached = {x: frozenset(ys) for x, ys in acc.items()}
            self._succ[role] = cached
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (self.domain == other.domain
                and self.concept_ext == other.concept_ext
                and self.role_ext == other.role_ext)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.domain,
                               tuple(sorted(self.concept_ext.items())),
                               tuple(sorted(self.role_ext.items()))))
        return self._hash

    def __repr__(self) -> str:
        return (f"Interpretation(|domain|={len(self.domain)}, "
                f"names={len(self.concept_ext)}, roles={len(self.role_ext)})")


@dataclass(frozen=True, eq=False)
class Sample:
    """One shared interpretation with positive and negative elements: each
    listed once, none listed as both."""

    interp: Interpretation
    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self) -> None:
        pos, neg = set(self.positives), set(self.negatives)
        for kind, listed, distinct in (("positive", self.positives, pos),
                                       ("negative", self.negatives, neg)):
            if len(listed) != len(distinct):
                twice = {e for e in listed if listed.count(e) > 1}
                raise DataError(f"elements listed twice as {kind}: "
                                f"{', '.join(sorted(twice))}")
        both = pos & neg
        if both:
            raise DataError(
                f"elements listed positive and negative: {', '.join(sorted(both))}")
        stray = (pos | neg) - self.interp.domain_set
        if stray:
            raise DataError(f"examples not in domain: {', '.join(sorted(stray))}")

    @property
    def num_examples(self) -> int:
        return len(self.positives) + len(self.negatives)


@dataclass(frozen=True, eq=False)
class Quotient:
    """A sample's interpretation cut down to what a concept can tell apart.

    interp holds one element per bisimulation class of the elements an
    example reaches: the class's first element in source domain order,
    under its own name.  row maps every reachable source element to its
    class's index in interp.domain.  When nothing is dropped or merged,
    interp is the source itself and row its index.
    """

    source: Interpretation
    interp: Interpretation
    row: dict[str, int] = field(repr=False)


@dataclass(frozen=True, eq=False)
class TypeTable:
    """Distinct element types (sets of concept names) with a per-element index.

    Types are indexed lexicographically by their sorted member names, so the
    numbering is deterministic for a given interpretation.
    """

    types: tuple[frozenset[str], ...]
    type_of: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.types)


# ---------------------------------------------------------------------------
# fact files

# characters per chunk that load_sample reads from a fact file
_BATCH = 1 << 16

# a run: two or more lines in the forms save_facts writes, each ended by
# "\n", that are all element declarations or all facts on one name.  Its
# names and elements pass the checks of the general parser: a concept name
# starts uppercase, a role name lowercase and is not reserved, and an
# element is an identifier, prefixed or not (_IDENT_RE, _PREFIXED_RE)
_ELEM = rf"(?:{_IDENT}|f\d+:{_IDENT})"
_RUN_RE = re.compile(
    rf"element {_ELEM}\n(?:element {_ELEM}\n)+"
    rf"|([A-Z][A-Za-z0-9_]*)\({_ELEM}\)\n(?:\1\({_ELEM}\)\n)+"
    rf"|(?!(?:{'|'.join(sorted(_RESERVED))})\()"
    rf"([a-z][A-Za-z0-9_]*)\({_ELEM},{_ELEM}\)\n(?:\2\({_ELEM},{_ELEM}\)\n)+")


def _frozen(exts: dict[str, set]) -> dict[str, frozenset]:
    """exts frozen one extension at a time, each set dropped as it goes, so
    no second copy of every extension is alive at once; exts ends empty."""
    return {name: frozenset(exts.pop(name)) for name in list(exts)}


def load_facts(text: str) -> Interpretation:
    """Parse fact-file text; element order is first appearance."""
    return _Reader().read((text,))


def _pieces(fh) -> Iterator[str]:
    """The text of an open file as pieces of whole lines.

    Read in chunks of _BATCH characters; a piece ends after the last "\n"
    its chunk holds, and what follows is carried into the next piece.  The
    file is opened with universal newlines, so "\r\n" and "\r" arrive as
    "\n", and no line, however str.splitlines ends it, spans two pieces.
    """
    carry = ""
    for chunk in iter(partial(fh.read, _BATCH), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield carry + chunk[:cut]
            carry = chunk[cut:]
        else:
            carry += chunk
    if carry:
        yield carry


class _Reader:
    """The fact-file reader: one interpretation, read piece by piece.

    A line is read in a run (_RUN_RE, take), added at once with the rest
    of its run, or by the general parser (lines), which reads every other
    line and finds every error.  Both keep the same tables and count lines
    the same way, so a line reads the same whichever of them reads it.
    """

    __slots__ = ("domain", "seen", "concept_ext", "role_ext", "lineno")

    def __init__(self):
        self.domain: list[str] = []
        # element -> its first string object, which every later fact on the
        # element stores in place of the copy its own line made
        self.seen: dict[str, str] = {}
        # keyed by names that passed their check: no role name is a
        # concept name
        self.concept_ext: dict[str, set[str]] = {}
        self.role_ext: dict[str, set[tuple[str, str]]] = {}
        self.lineno = 0  # lines read so far

    def read(self, pieces: Iterable[str]) -> Interpretation:
        for piece in pieces:
            self.runs(piece)
        if not self.domain:
            raise DataError("empty domain: no facts or element declarations")
        return Interpretation(self.domain, _frozen(self.concept_ext),
                              _frozen(self.role_ext))

    def runs(self, piece: str) -> None:
        """Read a piece of whole lines run by run.  A line where no run
        starts goes to the general parser, up to the next "\n"; from the
        second such line on, the rest of the piece does, so a piece with
        few runs costs one or two failed matches."""
        match = _RUN_RE.match
        pos, end, missed = 0, len(piece), False
        while pos < end:
            m = match(piece, pos)
            if m is not None:
                self.take(m)
                pos = m.end()
            elif missed:
                self.lines(piece[pos:].splitlines())
                return
            else:
                missed = True
                stop = piece.find("\n", pos) + 1 or end
                self.lines(piece[pos:stop].splitlines())
                pos = stop

    def take(self, m: re.Match) -> None:
        """Add the run m matched: one split for its elements, in line order,
        and one update of the extension through the seen table."""
        kind, start, end = m.lastindex, m.start(), m.end()
        if kind is None:  # element declarations
            elems = m.string[start + 8:end - 1].split("\nelement ")
            self.register(elems)
            self.lineno += len(elems)
            return
        name = m[kind]
        # the elements lie between the first "name(" and the last ")\n"
        body, sep = m.string[start + len(name) + 1:end - 2], f")\n{name}("
        if kind == 1:
            elems = body.split(sep)
            got = self.known(elems, set)
            ext = self.concept_ext.setdefault(name, got)
            if ext is not got:
                ext |= got
            self.lineno += len(elems)
        else:
            elems = body.replace(sep, ",").split(",")
            ends = iter(self.known(elems, list))
            self.role_ext.setdefault(name, set()).update(zip(ends, ends))
            self.lineno += len(elems) // 2

    def known(self, elems: list[str], into):
        """into() over each element's first string object, in order, with
        the elements not seen before registered first."""
        got = into(map(self.seen.get, elems))
        if None in got:
            self.register(elems)
            got = into(map(self.seen.get, elems))
        return got

    def register(self, elems: list[str]) -> None:
        """Add the elements not seen before to the domain, in order of first
        appearance; the run pattern has checked them."""
        seen = self.seen
        new = [*filterfalse(seen.__contains__, dict.fromkeys(elems))]
        seen.update(zip(new, new))
        self.domain += new

    def lines(self, lines: list[str]) -> None:
        """The general parser, over whole lines without their ends, which
        follow the lineno lines read so far."""
        domain, seen = self.domain, self.seen
        concept_ext, role_ext = self.concept_ext, self.role_ext

        def touch(elem: str, lineno: int) -> str:
            known = seen.get(elem)
            if known is not None:
                return known
            if not _IDENT_RE.match(elem) and not _PREFIXED_RE.match(elem):
                raise DataError(
                    f"line {lineno}: bad element identifier {elem!r}")
            seen[elem] = elem
            domain.append(elem)
            return elem

        for lineno, raw in enumerate(lines, start=self.lineno + 1):
            line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
            if not line:
                continue
            if line.startswith("element "):
                touch(line[len("element "):].strip(), lineno)
                continue
            m = _FACT_RE.match(line)
            if m is None:
                raise DataError(f"line {lineno}: cannot parse {raw.strip()!r}")
            # the name matched _IDENT; a concept name is never reserved
            name, x, y = m.groups()
            if y is None:
                if not name[0].isupper():
                    raise DataError(f"line {lineno}: concept names start "
                                    f"uppercase: {name!r}")
                concept_ext.setdefault(name, set()).add(touch(x, lineno))
                continue
            if not name[0].islower():
                raise DataError(f"line {lineno}: role names start "
                                f"lowercase: {name!r}")
            if name in _RESERVED:
                raise DataError(
                    f"line {lineno}: role identifier {name!r} is reserved")
            role_ext.setdefault(name, set()).add(
                (touch(x, lineno), touch(y, lineno)))
        self.lineno += len(lines)


def save_facts(interp: Interpretation) -> str:
    """Canonical fact-file text; load_facts inverts it exactly.

    All elements are declared up front (preserving domain order), then
    concept facts sorted, then role facts sorted.
    """
    lines = [f"element {e}" for e in interp.domain]
    for name in sorted(interp.concept_ext):
        for e in sorted(interp.concept_ext[name]):
            lines.append(f"{name}({e})")
    for role in sorted(interp.role_ext):
        for x, y in sorted(interp.role_ext[role]):
            lines.append(f"{role}({x},{y})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifests and merging

def merge_blocks(blocks: list[tuple[Interpretation, list[str], list[str]]]) -> Sample:
    """Disjoint union of (interpretation, positives, negatives) blocks."""
    return Sample(*_merge(len(blocks), iter(blocks)))


def _merge(count: int,
           blocks: Iterator[tuple[Interpretation, list[str], list[str]]],
           ) -> tuple[Interpretation, tuple[str, ...], tuple[str, ...]]:
    """The fields of merge_blocks's Sample over `count` blocks that are made
    one at a time: each is merged before the next is asked for, and nothing
    here holds it after, so a block's interpretation can be freed before
    the next is read."""
    # single block keeps its element names; several get "f<i>:" prefixes
    if count == 1:
        interp, pos, neg = next(blocks)
        return interp, tuple(pos), tuple(neg)
    domain: list[str] = []
    concept_ext: dict[str, set[str]] = {}
    role_ext: dict[str, set[tuple[str, str]]] = {}
    positives: list[str] = []
    negatives: list[str] = []

    def add(idx: int, block) -> None:
        interp, pos, neg = block
        pre = f"f{idx}:"
        # one prefixed string per element, shared by every fact naming it
        named = {e: pre + e for e in interp.domain}
        domain.extend(named.values())
        for name, ext in interp.concept_ext.items():
            concept_ext.setdefault(name, set()).update(named[e] for e in ext)
        for role, pairs in interp.role_ext.items():
            role_ext.setdefault(role, set()).update(
                (named[x], named[y]) for x, y in pairs)
        positives.extend(pre + e for e in pos)
        negatives.extend(pre + e for e in neg)

    for idx in range(1, count + 1):
        add(idx, next(blocks))
    merged = Interpretation(domain, _frozen(concept_ext), _frozen(role_ext))
    return merged, tuple(positives), tuple(negatives)


def load_sample(manifest_path: str | Path) -> Sample:
    """Read a manifest and its fact files into one merged Sample."""
    path = Path(manifest_path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(_not_utf8("manifest", path, exc)) from exc
    base = path.parent

    blocks: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "facts":
            current = {"facts": value}
            blocks.append(current)
        elif key in ("positive", "negative"):
            if current is None:
                raise DataError(f"{path}:{lineno}: {key} before any facts entry")
            current[key] = (current.get(key, "") + " " + value).strip()
        else:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
    if not blocks:
        raise DataError(f"{path}: no facts entries")

    def read(block: dict[str, str]):
        facts_path = base / block["facts"]
        try:
            with open(facts_path, encoding="utf-8-sig") as fh:
                interp = _Reader().read(_pieces(fh))
        except OSError as exc:
            raise DataError(f"cannot read fact file {facts_path}: {exc}") from exc
        except UnicodeDecodeError as exc:  # raised partway through the file
            raise DataError(_not_utf8("fact file", facts_path, exc)) from exc
        except DataError as exc:
            raise DataError(f"{facts_path}: {exc}") from exc
        pos = block.get("positive", "").split()
        neg = block.get("negative", "").split()
        for e in pos + neg:
            if e not in interp.domain_set:
                raise DataError(
                    f"{path}: example element {e!r} not in {facts_path.name}")
        return interp, pos, neg

    # each block is read only when the one before it is merged
    fields = _merge(len(blocks), map(read, blocks))
    try:
        return Sample(*fields)
    except DataError as exc:  # the examples the manifest lists
        raise DataError(f"{path}: {exc}") from exc


def _not_utf8(what: str, path: Path, exc: UnicodeDecodeError) -> str:
    # the decoder's byte position counts from the chunk it was handed, not
    # from the start of the file, so leave it out
    return (f"cannot read {what} {path}: not UTF-8 "
            f"(byte {exc.object[exc.start:exc.start + 1]!r}: {exc.reason})")


def save_sample(sample: Sample, out_dir: str | Path, stem: str = "sample") -> Path:
    """Write sample as <stem>.facts plus <stem>.manifest; returns manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    facts_name = f"{stem}.facts"
    (out / facts_name).write_text(save_facts(sample.interp), encoding="utf-8")
    lines = [f"facts = {facts_name}"]
    if sample.positives:
        lines.append("positive = " + " ".join(sample.positives))
    if sample.negatives:
        lines.append("negative = " + " ".join(sample.negatives))
    manifest = out / f"{stem}.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# dualization and types

def interpretation_signature(interp: Interpretation) -> Signature:
    """Names and roles with nonempty extensions in interp."""
    return Signature(frozenset(interp.concept_ext), frozenset(interp.role_ext))


def dualize_interpretation(interp: Interpretation, sigma: Signature) -> Interpretation:
    """Complement the extensions of concept names in sigma; keep roles.

    Involution for a fixed sigma: dualizing twice returns an equal
    interpretation.  A name of sigma that is a role of interp or no
    concept name is a DataError: its facts would not load back.
    """
    concept_ext: dict[str, frozenset[str]] = {}
    touched = set(sigma.concept_names)
    for name in sorted(touched):
        if name in interp.role_ext:
            raise DataError(f"cannot dualize {name!r}: it is a role name")
        if not (_IDENT_RE.match(name) and name[0].isupper()):
            raise DataError(f"cannot dualize {name!r}: concept names are "
                            "identifiers that start uppercase")
    for name, ext in interp.concept_ext.items():
        if name in touched:
            concept_ext[name] = interp.domain_set - ext
        else:
            concept_ext[name] = ext
    for name in touched - set(interp.concept_ext):
        concept_ext[name] = interp.domain_set  # complement of empty
    return Interpretation(interp.domain, concept_ext, interp.role_ext)


def dualize_sample(sample: Sample, sigma: Signature) -> Sample:
    """Dualize the interpretation and swap the roles of P and N."""
    dual = dualize_interpretation(sample.interp, sigma)
    return Sample(dual, sample.negatives, sample.positives)


def compute_types(interp: Interpretation) -> TypeTable:
    """Group elements by the exact set of concept names they satisfy."""
    membership: dict[str, set[str]] = {e: set() for e in interp.domain}
    for name, ext in interp.concept_ext.items():
        for e in ext:
            membership[e].add(name)
    distinct = {frozenset(names) for names in membership.values()}
    types = tuple(sorted(distinct, key=lambda t: tuple(sorted(t))))
    position = {t: i for i, t in enumerate(types)}
    type_of = {e: position[frozenset(names)] for e, names in membership.items()}
    return TypeTable(types, type_of)


def quotient(sample: Sample) -> Quotient:
    """The sample's interpretation restricted to the elements its examples
    reach, with bisimilar elements merged.

    A concept evaluated at an example reads only elements the example
    reaches, and no ALC concept tells bisimilar elements apart, so a
    concept fits the sample exactly when it fits on the quotient.  The
    classes are those of the coarsest bisimulation over every concept name
    and role, found by signature refinement (Paige & Tarjan, SIAM J.
    Comput. 1987): start from each element's names, then split every class
    by its members' sets of (role, successor class) until a round splits
    nothing or every class is a singleton.  A sample without examples
    reaches nothing and is returned whole.
    """
    interp = sample.interp
    roles = tuple(interp.role_ext)
    succ = [interp.successors(role) for role in roles]
    none: frozenset[str] = frozenset()
    reached = {*sample.positives, *sample.negatives}
    if not reached:
        return Quotient(interp, interp, interp.index)
    frontier = reached  # breadth first over every role
    while frontier:
        step: set[str] = set()
        for by_source in succ:
            step.update(*map(by_source.get, frontier, repeat(none)))
        frontier = step - reached
        reached |= frontier
    kept = (interp.domain if len(reached) == len(interp.domain)
            else sorted(reached, key=interp.index.__getitem__))

    names: dict[str, list[str]] = {e: [] for e in kept}
    for name, ext in interp.concept_ext.items():  # sorted by name
        for e in ext & reached:
            names[e].append(name)
    # class ids per kept element: first by names, then by (own class,
    # successor classes per role) until a round splits nothing
    ids: dict = {}
    cls = [ids.setdefault(tuple(names[e]), len(ids)) for e in kept]
    count = len(ids)
    while count < len(kept):
        look = dict(zip(kept, cls)).__getitem__
        outs = [[frozenset(map(look, by_source.get(e, none))) for e in kept]
                for by_source in succ]
        ids = {}
        cls = [ids.setdefault(key, len(ids)) for key in zip(cls, *outs)]
        if len(ids) == count:
            break
        count = len(ids)

    first: dict[int, str] = {}  # class -> its first element
    for e, c in zip(kept, cls):
        first.setdefault(c, e)
    if len(first) == len(interp.domain):
        return Quotient(interp, interp, interp.index)
    reps = list(first.values())
    rank = {c: p for p, c in enumerate(first)}
    row = {e: rank[c] for e, c in zip(kept, cls)}
    if len(reps) == len(kept):
        # nothing merged (the usual case on random graphs): cut the
        # unreached elements' edges but share the source's pairs and
        # successor sets, rather than copy them
        cut = interp.domain_set - reached
        q_succ = [{x: ys for x, ys in by_source.items() if x in reached}
                  for by_source in succ]
        role_ext = {role: interp.role_ext[role].difference(
                        *[zip(repeat(x), by_source.get(x, none))
                          for x in cut])
                    for role, by_source in zip(roles, succ)}
    else:
        # bisimilar elements have the same successor classes: read the
        # representatives' own successors
        rep_of = {e: first[c] for e, c in zip(kept, cls)}.__getitem__
        q_succ = [{x: frozenset(map(rep_of, by_source[x]))
                   for x in reps if x in by_source} for by_source in succ]
        role_ext = {role: set().union(*map(zip, map(repeat, s), s.values()))
                    for role, s in zip(roles, q_succ)}
    rep_set = set(reps)
    quot = Interpretation(
        reps, {a: ext & rep_set for a, ext in interp.concept_ext.items()},
        role_ext)
    quot._succ.update(zip(roles, q_succ))  # the encoder reads these next
    return Quotient(interp, quot, row)
