"""CNF encoding of "some concept of exact size k fits the sample".

This module holds the pieces; fitter.encode_size assembles them into the
size-k encoding (syntax, semantics, templates), to which callers add the
fitting units or the coverage counter.

Propositional variables, with node indices i, j ranging over 1..k:

    x[i,v]    node i of the syntax tree carries label v
    y1[i,j]   unary node i has the single child j          (i < j <= k)
    y2[i,j]   binary node i has the children j and j+1     (i < j <= k-1)
    z[i,a]    element a satisfies the subconcept rooted at node i
    c[i,a]    element a satisfies node i's unary child          (i < k; only
              when the alphabet has an exists/forall label)
    xt[i,t]   typed mode: node i's label, read as a name, belongs to type t
    l[i]      typed mode: node i is labeled by some concept name
    s[q,m]    cardinality: at least m of the first q example literals hold

Node 1 is the root, children strictly follow their parent, and a binary
node's children sit at consecutive indices, so every syntax tree admits a
level-order numbering that the encoding accepts.  The "template" clauses
also require parent(j) <= parent(j+1) for 2 <= j < k, the numbering
constraints of Narodytska et al. (IJCAI 2018).  Parents then come in
non-decreasing order: the children of node 1 take the indices right after
it, then those of node 2, and so on, which is level order.  Level order is
fixed by the tree shape, so each shape keeps exactly one numbering.

The elements a are those of the interpretation bound to the variable map.
encode_syntax builds the map for size k; VarMap.bind then binds it, once,
to the interpretation and, in typed mode, its type table, and allocates
their rows.  The semantics and template builders take only the map and
read k, the elements and the type table from it.  fitter.encode_size binds
the sample's bisimulation quotient (data.quotient), so there is one z and
one c row entry per class of the elements an example reaches, named after
the class's first element; the variable map resolves each example to its
class (VarMap.z), and examples that share a class keep one literal each.

The label alphabet is {top, bot} + concept names + the operator labels
permitted by the operator set (quantifier and role fused into one label,
matching the size measure).  Its names are those of the signature given to
encode_syntax.  fitter.encode_size gives it fitter.folded_signature: one
name per distinct extension on the quotient's classes that is neither empty
nor full (the first such name in sorted order), and every role name.  An
empty name acts as bot, a full one as top, and equal names as one another,
so the fold keeps every size's answer; the syntax group, pairwise over the
labels, and the name semantics shrink with it.

Clause groups: "syntax", "semantics" (with subgroups "semantics.names" for
name-label semantics, "semantics.namehood" for the l[i] definitions and
"semantics.child" for the child rows), "fitting", "cardinality",
"template" (symmetry breaking and pattern bans).

The semantics clauses come in blocks: the same few clauses repeated for
every domain element.  Each block is kept in the Cnf as a recipe, one part
appended with Cnf.add_block, and no block is spelled out as literals until
a solver asks for it.  Blocks whose clauses have a fixed shape per element
(top, bot, names, negation, and, or, the child rows and the typed type
rows) are Rows recipes: a one-element pattern repeated n times, whose
element-dependent positions are filled from prebuilt z / c / xt rows
(_add_rows).  A node's typed name-to-type clauses are one such block
over the types: the name labels in the pattern, the signed xt row of each
label filling it.  Negation, and, or and the child rows come one block per
(node, child): the child row is tied to the child once per edge,
y1[i,j] -> (c[i,a] <-> z[j,a]).  Quantifier blocks then read the child row
and come one per (node, label), not one per (node, label, child).  They
depend on the role's successor lists and are Gather recipes: an index
template, built once per label, into the literal list [0, -x] + z_i +
(-z_i) + c_i + (-c_i), whose tail is shared by node i's quantifier blocks
(_quantifier_template).  A recipe lays its clauses out in one method,
lay(seq), over seq(lits) of each int array it reads: the ints themselves
for a solver, their tokens for DIMACS text, which export makes once per
row a rendering, however many blocks share it (solver.export_dimacs).
Building a recipe costs about what counting its clauses would, and its
memory is of the order of the rows it reads (the variable map's own), so
there is one kind of Cnf: encode --stats counts the same one that DIMACS
export renders.

Cnf.num_vars is the one variable count of the pipeline: a literal run
counts its own literals when it is closed, and a recipe reads only
variables declared beforehand (every builder declares the variable map's
count).  DIMACS export and the solver sessions take that count as it is.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import add, itemgetter, mul, neg

from .concepts import (_OPERATORS, Bot, Concept, Name, O_ALL, OperatorSet,
                       Signature, Top)
from .data import Interpretation, Quotient, Sample, TypeTable

__all__ = [
    "EncodingError", "Cnf", "Rows", "Gather", "VarMap",
    "encode_syntax", "encode_semantics_base", "encode_semantics_typed",
    "encode_fitting", "encode_coverage_at_least", "encode_templates",
    "decode_model", "pattern_bans_active",
]

Label = tuple  # ("top",) ("bot",) ("name", A) ("not",) ("and",) ("or",)
               # ("exists", r) ("forall", r)

_ARITY = {"top": 0, "bot": 0, "name": 0, "not": 1, "exists": 1, "forall": 1,
          "and": 2, "or": 2}
# a label's kind is its constructor's name in lower case; the constructor
# takes the label's name or role first, then the children
_CONSTRUCTOR = {ctor.__name__.lower(): ctor
                for ctor in (Top, Bot, Name, *_OPERATORS.values())}


class EncodingError(RuntimeError):
    """Internal inconsistency: bad model shape or misused variable map."""


def _ints(lits: array) -> array:  # lay's seq for a recipe's ints
    return lits


class Rows:
    """Recipe of an _add_rows block: `pattern`, one element's clauses, is
    repeated n times, and rows[r] fills position offsets[r] of the e-th
    repetition with rows[r][e]; it reads the pattern and the rows."""

    __slots__ = ("pattern", "offsets", "rows", "n", "reads")

    def __init__(self, pattern: array, offsets: array,
                 rows: tuple[array, ...], n: int):
        self.pattern = pattern
        self.offsets = offsets
        self.rows = rows
        self.n = n
        self.reads = (pattern, *rows)

    def lay(self, seq):
        """The block's literals laid out from seq(lits), a sequence for an
        int array of reads: the ints themselves, or their tokens."""
        period = len(self.pattern)
        block = seq(self.pattern) * self.n
        for offset, row in zip(self.offsets, self.rows):
            block[offset::period] = seq(row)
        return block


class Gather:
    """Recipe of a quantifier block: literal p is src[idx[p]], where src is
    `head` followed by `tail`.  `idx` is a label's index template
    (_quantifier_template) and `tail` the node's rows, shared by its
    quantifier blocks; it reads head and tail."""

    __slots__ = ("head", "tail", "idx", "reads")

    def __init__(self, head: array, tail: array, idx: tuple[int, ...]):
        self.head = head
        self.tail = tail
        self.idx = idx
        self.reads = (head, tail)

    def lay(self, seq) -> tuple:
        """The block's literals picked from seq(lits), a sequence for an int
        array of reads: the ints themselves, or their tokens.  itemgetter
        keeps a tuple template as it is, so the picker copies nothing."""
        return itemgetter(*self.idx)(seq(self.head) + seq(self.tail))


class Cnf:
    """Clause store: a list of parts, each a run of whole 0-terminated
    clauses, plus group counts.

    A part is a literal run (an int array of the clauses appended since
    the part before it: by add, one clause at a time, or by add_clauses,
    a count of 0-terminated clauses from one iterable of literals, as the
    syntax group's pairwise at-most-one constraints come) or a recipe of
    add_block: Rows, how the semantics encoding lays out a block repeated
    per domain element (or per type), or Gather, a quantifier block read
    through an index template.
    A recipe names the int arrays it reads (reads) and has one layout
    (lay), which makes its ints only when asked (arrays, clauses) and, over
    the tokens of those arrays, its DIMACS text (solver.export_dimacs).

    num_vars is the one variable count of a Cnf: the largest count given
    to declare_vars or the largest |literal| of a literal run, whichever
    is larger.  A literal run counts its own literals, once, when it is
    closed; a recipe is not scanned, so it may read only declared
    variables, as the encoding functions' recipes do (they declare the
    variable map's count).
    """

    __slots__ = ("_parts", "_run", "_num_vars", "num_clauses", "groups")

    def __init__(self):
        self._parts: list[array | Rows | Gather] = []
        self._run = array("i")  # the run add extends; _close_run closes it
        self._num_vars = 0
        self.num_clauses = 0
        self.groups: dict[str, int] = {}

    def add(self, tag: str, lits) -> None:
        if not lits:
            raise EncodingError("empty clause")
        if 0 in lits:  # a 0 would end the clause early in the run
            raise EncodingError(f"literal 0 in clause {list(lits)}")
        self._run.extend(lits)
        self._run.append(0)
        self.num_clauses += 1
        self.groups[tag] = self.groups.get(tag, 0) + 1

    def add_clauses(self, tag: str, count: int, lits) -> None:
        """Append `count` clauses given as one iterable of literals, each
        clause ended by a 0, to the literal run."""
        self._run.extend(lits)
        self.num_clauses += count
        self.groups[tag] = self.groups.get(tag, 0) + count

    def add_block(self, tag: str, count: int, part: Rows | Gather) -> None:
        """Append `count` clauses given as one recipe, whose literals are
        all declared (declare_vars)."""
        if not count:
            return
        self.parts.append(part)
        self.num_clauses += count
        self.groups[tag] = self.groups.get(tag, 0) + count

    def _close_run(self) -> None:
        """Move the run that add has been extending into the parts, so a
        part never grows, and count its variables."""
        run = self._run
        if run:
            self._parts.append(run)
            self._run = array("i")
            self.declare_vars(max(max(run), -min(run)))

    @property
    def parts(self) -> list[array | Rows | Gather]:
        """The clauses in order, one part each."""
        self._close_run()
        return self._parts

    @property
    def num_vars(self) -> int:
        self._close_run()
        return self._num_vars

    def declare_vars(self, n: int) -> None:
        if n > self._num_vars:
            self._num_vars = n

    def arrays(self):
        """Each part's clauses as one 0-terminated int array, a recipe's
        laid out when its turn comes: a Rows block's as it is, a Gather's
        picked literals as one array."""
        for part in self.parts:
            laid = part if isinstance(part, array) else part.lay(_ints)
            yield laid if isinstance(laid, array) else array("i", laid)

    def clauses(self):
        """Iterate clauses as lists of signed ints."""
        for buf in self.arrays():
            start, end = 0, len(buf)
            while start < end:
                stop = buf.index(0, start)
                yield buf[start:stop].tolist()
                start = stop + 1

    def group_total(self, prefix: str) -> int:
        dotted = prefix + "."
        return sum(n for tag, n in self.groups.items()
                   if tag == prefix or tag.startswith(dotted))

    def absorb(self, other: "Cnf") -> "Cnf":
        """Append the other's clauses: its parts, by reference."""
        self.parts.extend(other.parts)
        self.num_clauses += other.num_clauses
        self.declare_vars(other.num_vars)
        for tag, n in other.groups.items():
            self.groups[tag] = self.groups.get(tag, 0) + n
        return self


@dataclass
class _CoverageState:
    literals: tuple[int, ...]
    svar: dict[tuple[int, int], int] = field(default_factory=dict)
    built_columns: int = 0


class VarMap:
    """Bijection between solver variable ids and tagged encoding variables.

    Ids are allocated in blocks, each one contiguous id range: node i's x
    row over the labels, its y1 and y2 rows over the child indices, and,
    once bound, its z and child rows over the domain, its xt row over the
    types, the l row over the nodes and each coverage counter column.  A
    row is kept as its range, and a block as (prefix, items, suffix), one
    record however long the row: id start + p is the variable
    prefix + str(items[p]) + suffix.  describe and comment_lines read the
    blocks; a domain's rows share its element tuple.
    """

    def __init__(self, k: int, ops: OperatorSet, sigma: Signature):
        if k < 1:
            raise ValueError("size bound k must be at least 1")
        self.k = k
        self.ops = frozenset(ops)
        self.sigma = sigma
        labels: list[Label] = [("top",), ("bot",)]
        labels += [("name", a) for a in sorted(sigma.concept_names)]
        if "neg" in ops:
            labels.append(("not",))
        if "and" in ops:
            labels.append(("and",))
        if "or" in ops:
            labels.append(("or",))
        if "exists" in ops:
            labels += [("exists", r) for r in sorted(sigma.role_names)]
        if "forall" in ops:
            labels += [("forall", r) for r in sorted(sigma.role_names)]
        self.labels: tuple[Label, ...] = tuple(labels)
        self._label_pos = {lab: p for p, lab in enumerate(labels)}

        self._next = 1
        self._starts: list[int] = []  # the first id of each block
        self._blocks: list[tuple[str, Sequence, str]] = []
        names = [".".join(lab) for lab in labels]
        # lists, not ranges: the syntax clauses index them pairwise
        self._x = [list(self._alloc(f"x[{i},", names))
                   for i in range(1, k + 1)]
        self._y1 = self._alloc_edges("y1", k)
        self._y2 = self._alloc_edges("y2", k - 1)
        self.interp: Interpretation | None = None
        self.source: Interpretation | None = None
        self._row: dict[str, int] = {}
        self._z: list[range] = []
        self._c: list[range] = []
        self._xt: list[range] = []
        self._ell = range(0)
        self.types: TypeTable | None = None
        self._coverage: _CoverageState | None = None

    def _alloc(self, prefix: str, items: Sequence, suffix: str = "]",
               ) -> range:
        """One id per item, as one contiguous range, recorded as one
        block: id start + p stands for prefix + str(items[p]) + suffix."""
        ids = range(self._next, self._next + len(items))
        if ids:
            self._starts.append(ids.start)
            self._blocks.append((prefix, items, suffix))
            self._next = ids.stop
        return ids

    def _alloc_edges(self, kind: str, last: int,
                     ) -> dict[tuple[int, int], int]:
        """kind[i,j] for each node i and i < j <= last, one block per i."""
        edges = {}
        for i in range(1, self.k + 1):
            kids = range(i + 1, last + 1)
            edges.update(zip([(i, j) for j in kids],
                             self._alloc(f"{kind}[{i},", kids)))
        return edges

    @property
    def num_vars(self) -> int:
        return self._next - 1

    # -- variable lookups ---------------------------------------------------

    def x(self, i: int, label: Label) -> int:
        pos = self._label_pos.get(label)
        if pos is None:
            raise EncodingError(f"label {label!r} not in alphabet")
        return self._x[i - 1][pos]

    def y1(self, i: int, j: int) -> int:
        return self._y1[(i, j)]

    def y2(self, i: int, j: int) -> int:
        return self._y2[(i, j)]

    def bind(self, target: Interpretation | Quotient,
             types: TypeTable | None = None) -> None:
        """Attach the interpretation to encode, once, and allocate its rows:
        the z rows, the child rows of nodes 1..k-1 when the alphabet has a
        quantifier, and, given its type table, the xt and l rows of the
        typed name semantics.  Given a sample's quotient, the rows are its
        classes, and z() resolves the source's elements through its row
        map."""
        if self.interp is not None:
            raise EncodingError("variable map already bound")
        if isinstance(target, Interpretation):
            target = Quotient(target, target, target.index)
        interp = target.interp
        if types is not None and set(types.type_of) != interp.domain_set:
            raise EncodingError("type table does not cover the interpretation")
        self.interp = interp
        self.source = target.source
        self._row = target.row
        dom = interp.domain
        self._z = [self._alloc(f"z[{i},", dom) for i in range(1, self.k + 1)]
        if any(lab[0] in ("exists", "forall") for lab in self.labels):
            self._c = [self._alloc(f"child[{i},", dom)
                       for i in range(1, self.k)]
        if types is not None:
            self.types = types
            self._xt = [self._alloc(f"xt[{i},", range(len(types.types)))
                        for i in range(1, self.k + 1)]
            self._ell = self._alloc("l[", range(1, self.k + 1))

    def z(self, i: int, element: str) -> int:
        """z[i, row of element]; element belongs to the bound source."""
        if self.interp is None:
            raise EncodingError("no interpretation bound")
        row = self._row.get(element)
        if row is None:
            raise EncodingError(f"element {element!r} is not encoded")
        return self._z[i - 1][row]

    def z_row(self, i: int) -> range:
        return self._z[i - 1]

    def c_row(self, i: int) -> Sequence[int]:
        """Node i's child row; empty for node k, which has no child, and
        without quantifier labels."""
        return self._c[i - 1] if i <= len(self._c) else []

    def xt(self, i: int, type_index: int) -> int:
        return self._xt[i - 1][type_index]

    def ell(self, i: int) -> int:
        return self._ell[i - 1]

    # -- DIMACS commentary ---------------------------------------------------

    def describe(self, var: int) -> str:
        if not 1 <= var <= self.num_vars:
            raise EncodingError(
                f"variable {var} outside 1..{self.num_vars}")
        at = bisect_right(self._starts, var) - 1
        prefix, items, suffix = self._blocks[at]
        return f"{prefix}{items[var - self._starts[at]]}{suffix}"

    def comment_lines(self) -> Iterator[str]:
        """`c <id> = <describe(id)>` for every variable, in id order: one
        str.format map per block, over its ids and items."""
        for start, (prefix, items, suffix) in zip(self._starts, self._blocks):
            line = f"c {{}} = {prefix}{{}}{suffix}"  # brace-free affixes
            yield from map(line.format, range(start, start + len(items)),
                           items)


# ---------------------------------------------------------------------------
# syntax

def _parent_literals(vm: VarMap, i: int, j: int) -> list[int]:
    """Literals that each say "node i is the parent of node j" (i < j)."""
    k = vm.k
    lits = [vm.y1(i, j)]
    if j < k:
        lits.append(vm.y2(i, j))     # j is the left child of binary i
    if j - 1 > i:
        lits.append(vm.y2(i, j - 1))  # j is the right child of binary i
    return lits


def _at_most_one(cnf: Cnf, tag: str, lits: Sequence[int]) -> None:
    """The clause (-a, -b) for each pair a, b of lits, in the order of
    their positions."""
    n = len(lits)
    pairs = combinations([-v for v in lits], 2)
    cnf.add_clauses(tag, n * (n - 1) // 2,
                    chain.from_iterable(map(add, pairs, repeat((0,)))))


def encode_syntax(k: int, ops: OperatorSet, sigma: Signature,
                  ) -> tuple[Cnf, VarMap]:
    """Well-formed exact-size-k syntax trees over the fragment's alphabet."""
    vm = VarMap(k, ops, sigma)
    cnf = Cnf()
    add = cnf.add
    SYN = "syntax"

    for i in range(1, k + 1):
        xi = vm._x[i - 1]
        add(SYN, xi)  # some label
        _at_most_one(cnf, SYN, xi)

        y1_here = [vm._y1[(i, j)] for j in range(i + 1, k + 1)]
        y2_here = [vm._y2[(i, j)] for j in range(i + 1, k)]
        for pos, lab in enumerate(vm.labels):
            xv = xi[pos]
            arity = _ARITY[lab[0]]
            if arity == 0:
                for yv in y1_here:
                    add(SYN, (-xv, -yv))
                for yv in y2_here:
                    add(SYN, (-xv, -yv))
            elif arity == 1:
                add(SYN, [-xv] + y1_here)  # unit -xv when no slot remains
                for yv in y2_here:
                    add(SYN, (-xv, -yv))
            else:
                add(SYN, [-xv] + y2_here)
                for yv in y1_here:
                    add(SYN, (-xv, -yv))

        _at_most_one(cnf, SYN, y1_here + y2_here)

    # every node but the root has exactly one incoming edge slot
    for j in range(2, k + 1):
        parents = [lit for i in range(1, j)
                   for lit in _parent_literals(vm, i, j)]
        add(SYN, parents)
        _at_most_one(cnf, SYN, parents)

    cnf.declare_vars(vm.num_vars)
    return cnf, vm


# ---------------------------------------------------------------------------
# semantics

def _z_rows(vm: VarMap) -> tuple[list[array], list[array]]:
    """Each node's z row and its negation as int arrays, node i at i - 1."""
    if vm.interp is None:
        raise EncodingError("no interpretation bound")
    z = [array("i", vm.z_row(i)) for i in range(1, vm.k + 1)]
    return z, [array("i", map(neg, row)) for row in z]


def _add_rows(cnf: Cnf, tag: str, n: int, *shapes) -> None:
    """Append one clause per shape for each element e < n, element by
    element.  A shape's literals are ints, the same for every element, or
    rows (int arrays of length n) of which element e takes entry e.

    The block is kept as a Rows recipe: a one-element pattern repeated n
    times, each row filling its position.
    """
    pattern = array("i")
    offsets = array("i")
    rows = []
    for shape in shapes:
        for lit in shape:
            if isinstance(lit, array):
                offsets.append(len(pattern))
                rows.append(lit)
                pattern.append(0)
            else:
                pattern.append(lit)
        pattern.append(0)
    cnf.add_block(tag, n * len(shapes), Rows(pattern, offsets, tuple(rows), n))


def _quantifier_template(kind: str, targets: list[tuple[int, ...]],
                         positions: list[int]) -> tuple[int, ...]:
    """Layout of one exists/forall block as indices into the literal list
    [0, -x] + z_i + (-z_i) + c_i + (-c_i), where x is the label's variable,
    c_i node i's child row and targets[e] the successors of element e.  Per
    element e, with b ranging over its successors:

        exists: (-x, -z_i[e], c_i[b]...), then (-x, -c_i[b], z_i[e])
        forall: (-x, z_i[e], -c_i[b]...), then (-x, -z_i[e], c_i[b])

    Every index is taken from positions, list(range(2 + 4n)), which the
    templates share, so each position is one int object however many
    entries hold it.  The template is a tuple, which Gather.lay's picker
    shares rather than copies."""
    n = len(targets)
    z, nz = positions[2:2 + n], positions[2 + n:2 + 2 * n]
    c, nc = positions[2 + 2 * n:2 + 3 * n], positions[2 + 3 * n:]
    idx: list[int] = []
    for e, succ in enumerate(targets):
        if kind == "exists":
            idx += [1, nz[e], *map(c.__getitem__, succ), 0]
            for b in succ:
                idx += [1, nc[b], z[e], 0]
        else:
            idx += [1, z[e], *map(nc.__getitem__, succ), 0]
            for b in succ:
                idx += [1, nz[e], c[b], 0]
    return tuple(idx)


def _non_name_semantics(cnf: Cnf, vm: VarMap,
                        z: list[array], nz: list[array]) -> None:
    """Semantics clauses for top/bot and all operator labels (shared by the
    base and typed encodings): one block per (node, child) for negation,
    and, or and the child rows, one per (node, label) for the quantifiers;
    z and nz are the rows of _z_rows."""
    SEM = "semantics"
    CHILD = "semantics.child"
    k = vm.k
    interp = vm.interp
    n = len(interp.domain)
    dom = interp.domain

    succ_rows = {}  # role -> successor index tuple per element
    for lab in vm.labels:
        if lab[0] in ("exists", "forall") and lab[1] not in succ_rows:
            role = lab[1]
            succs = interp.successors(role)
            succ_rows[role] = [
                tuple(sorted(interp.index[b] for b in succs.get(dom[e], ())))
                for e in range(n)]
    # a quantifier block has one clause per element plus one per edge
    block_size = {role: n + sum(map(len, rows))
                  for role, rows in succ_rows.items()}
    templates: dict[Label, tuple[int, ...]] = {}
    positions = list(range(2 + 4 * n))  # the templates' one int per index

    for i in range(1, k + 1):
        zi, nzi = z[i - 1], nz[i - 1]
        xtop = vm.x(i, ("top",))
        xbot = vm.x(i, ("bot",))
        _add_rows(cnf, SEM, n, (-xtop, zi), (-xbot, nzi))

        ci = array("i", vm.c_row(i))
        if ci:
            # y1[i,j] -> (c[i,a] <-> z[j,a]): the quantifier blocks below
            # read node i's child through c_i, whichever j it is
            nci = array("i", map(neg, ci))
            for j in range(i + 1, k + 1):
                yv = vm.y1(i, j)
                _add_rows(cnf, CHILD, n, (-yv, nci, z[j - 1]),
                          (-yv, ci, nz[j - 1]))
            # the quantifier templates' literal list after [0, -x]
            src_rows = zi + nzi + ci + nci

        for lab in vm.labels:
            kind = lab[0]
            if kind in ("top", "bot", "name"):
                continue
            xv = vm.x(i, lab)
            if kind in ("and", "or"):
                for j in range(i + 1, k):
                    yv = vm.y2(i, j)
                    zj, zjj = z[j - 1], z[j]
                    nzj, nzjj = nz[j - 1], nz[j]
                    if kind == "and":
                        _add_rows(cnf, SEM, n, (-xv, -yv, nzi, zj),
                                  (-xv, -yv, nzi, zjj),
                                  (-xv, -yv, zi, nzj, nzjj))
                    else:
                        _add_rows(cnf, SEM, n, (-xv, -yv, zi, nzj),
                                  (-xv, -yv, zi, nzjj),
                                  (-xv, -yv, nzi, zj, zjj))
            elif kind == "not":
                for j in range(i + 1, k + 1):
                    yv = vm.y1(i, j)
                    _add_rows(cnf, SEM, n, (-xv, -yv, nzi, nz[j - 1]),
                              (-xv, -yv, zi, z[j - 1]))
            elif ci:  # no child row, no child: no quantifier block
                idx = templates.get(lab)
                if idx is None:
                    idx = templates[lab] = _quantifier_template(
                        kind, succ_rows[lab[1]], positions)
                cnf.add_block(SEM, block_size[lab[1]],
                              Gather(array("i", (0, -xv)), src_rows, idx))


def encode_semantics_base(vm: VarMap) -> Cnf:
    """Per-element name semantics: one clause per (node, name, element) of
    the interpretation bound to vm (VarMap.bind)."""
    z, nz = _z_rows(vm)
    k, interp = vm.k, vm.interp
    cnf = Cnf()
    NAMES = "semantics.names"
    n = len(interp.domain)
    name_labels = [lab for lab in vm.labels if lab[0] == "name"]
    sign = {}  # name label -> +1 inside its extension, -1 outside
    for lab in name_labels:
        row = sign[lab] = array("i", [-1]) * n
        for a in interp.concept_ext.get(lab[1], ()):
            row[interp.index[a]] = 1
    for i in range(1, k + 1):
        for lab in name_labels:
            # (-x, z) inside the extension, (-x, -z) outside
            signed = array("i", map(mul, z[i - 1], sign[lab]))
            _add_rows(cnf, NAMES, n, (-vm.x(i, lab), signed))
    _non_name_semantics(cnf, vm, z, nz)
    cnf.declare_vars(vm.num_vars)
    return cnf


def encode_semantics_typed(vm: VarMap) -> Cnf:
    """Name semantics through element types: k*|T|*|names| label-to-type
    clauses plus 2*k*|domain| type-row clauses, over the interpretation and
    type table bound to vm (VarMap.bind)."""
    z, nz = _z_rows(vm)
    k, interp, types = vm.k, vm.interp, vm.types
    if types is None:
        raise EncodingError("variable map bound without a type table")
    cnf = Cnf()
    add = cnf.add
    NAMES = "semantics.names"
    NAMEHOOD = "semantics.namehood"
    n = len(interp.domain)
    name_labels = [lab for lab in vm.labels if lab[0] == "name"]
    type_of = [types.type_of[a] for a in interp.domain]
    sign = {}  # name label -> +1 per type that holds the name, -1 per other
    for lab in name_labels:
        sign[lab] = array("i", [1 if lab[1] in members else -1
                                for members in types.types])

    for i in range(1, k + 1):
        xts = vm._xt[i - 1]
        # per type t, per name label: (-x, xt[i,t]) when t holds the name,
        # (-x, -xt[i,t]) when not
        _add_rows(cnf, NAMES, len(types), *[
            (-vm.x(i, lab), array("i", map(mul, xts, sign[lab])))
            for lab in name_labels])
        lv = vm.ell(i)
        # type rows: (-xt[i,type(e)], z[i,e]), (xt[i,type(e)], -z[i,e], -l[i])
        xt_row = array("i", map(xts.__getitem__, type_of))
        _add_rows(cnf, NAMES, n, (array("i", map(neg, xt_row)), z[i - 1]),
                  (xt_row, nz[i - 1], -lv))
        # l[i] <-> node i carries some concept name
        name_vars = [vm.x(i, lab) for lab in name_labels]
        add(NAMEHOOD, [-lv] + name_vars)
        for xv in name_vars:
            add(NAMEHOOD, (-xv, lv))
    _non_name_semantics(cnf, vm, z, nz)
    cnf.declare_vars(vm.num_vars)
    return cnf


# ---------------------------------------------------------------------------
# fitting and coverage

def _example_literals(sample: Sample, vm: VarMap) -> list[int]:
    """One root literal per example, so examples that share a class each
    keep their own literal (and count once each in the coverage counter)."""
    if vm.source is None or (vm.source is not sample.interp
                             and vm.source != sample.interp):
        raise EncodingError("fitting requires the sample's interpretation "
                            "(or its quotient) to be the bound one")
    return ([vm.z(1, a) for a in sample.positives]
            + [-vm.z(1, b) for b in sample.negatives])


def encode_fitting(sample: Sample, vm: VarMap) -> Cnf:
    """Unit clauses: root satisfied at positives, violated at negatives."""
    cnf = Cnf()
    for lit in _example_literals(sample, vm):
        cnf.add("fitting", (lit,))
    cnf.declare_vars(vm.num_vars)
    return cnf


def encode_coverage_at_least(sample: Sample, m: int, vm: VarMap) -> Cnf:
    """At least m example literals hold, via a sequential counter.

    The counter columns are built lazily and cached on the variable map, so
    raising m within one solver session only adds new clauses (column m plus
    one unit) — never retracts anything.
    """
    cnf = Cnf()
    add = cnf.add
    CARD = "cardinality"
    state = vm._coverage
    if state is None:
        state = vm._coverage = _CoverageState(
            tuple(_example_literals(sample, vm)))
    lits = state.literals
    q = len(lits)
    if not 1 <= m <= q:
        raise ValueError(f"coverage target {m} outside 1..{q}")
    svar = state.svar
    for col in range(state.built_columns + 1, m + 1):
        rows = range(col, q + 1)
        for i, sv in zip(rows, vm._alloc("s[", rows, f",{col}]")):
            svar[(i, col)] = sv
            below = svar.get((i - 1, col))
            if below is None:
                add(CARD, (-sv, lits[i - 1]))
            else:
                add(CARD, (-sv, below, lits[i - 1]))
            if col > 1:
                diag = svar[(i - 1, col - 1)]
                if below is None:
                    add(CARD, (-sv, diag))
                else:
                    add(CARD, (-sv, below, diag))
    state.built_columns = max(state.built_columns, m)
    add(CARD, (svar[(q, m)],))
    cnf.declare_vars(vm.num_vars)
    return cnf


# ---------------------------------------------------------------------------
# templates and pattern bans

def pattern_bans_active(ops: OperatorSet, sigma: Signature) -> bool:
    """Bans are proven satisfiability-preserving only for the full operator
    set over data with at least one role name (every banned pattern then has
    an equal-size rewrite); anywhere else they could cut off a size class."""
    return ops == O_ALL and bool(sigma.role_names)


def encode_templates(vm: VarMap, bans: bool | None = None) -> Cnf:
    """Level-order symmetry breaking plus pattern bans.

    Symmetry breaking asks parent(j) <= parent(j+1) for 2 <= j < k, as
    binary clauses "not (parent(j) = i and parent(j+1) = i')" for every
    i' < i < j.  Together with children following their parent and binary
    children sitting side by side, this admits exactly the level-order
    numbering of each tree shape, at every k and for every operator set:
    O(k^3) clauses over the y variables, no new variables.  Pattern bans
    forbid locally rewritable syntax where that is satisfiability-safe
    (see pattern_bans_active); bans=None applies that policy.
    """
    k = vm.k
    cnf = Cnf()
    add = cnf.add
    TMP = "template"

    for j in range(2, k):
        later = [_parent_literals(vm, i, j + 1) for i in range(1, j)]
        for i in range(2, j):
            for a in _parent_literals(vm, i, j):
                for lits in later[:i - 1]:  # parents i' < i of node j+1
                    for b in lits:
                        add(TMP, (-a, -b))

    if bans is None:
        bans = pattern_bans_active(vm.ops, vm.sigma)
    if bans:
        xof = vm.x
        for (i, j), yv in vm._y2.items():
            # y2 implies a binary label at i, so the constant ban needs no x
            for child in (j, j + 1):
                add(TMP, (-yv, -xof(child, ("top",))))
                add(TMP, (-yv, -xof(child, ("bot",))))
            for lab in (("and",), ("or",)):
                add(TMP, (-xof(i, lab), -yv, -xof(j, lab), -xof(j + 1, lab)))
        for (i, j), yv in vm._y1.items():
            # y1 parents are negation or quantifier nodes; a negation child
            # is always rewritable there
            add(TMP, (-yv, -xof(j, ("not",))))
    cnf.declare_vars(vm.num_vars)
    return cnf


# ---------------------------------------------------------------------------
# decoding

def decode_model(model, vm: VarMap) -> Concept:
    """Rebuild the concept from the x / y1 / y2 assignment of a model.

    `model` is indexable by variable id (index 0 unused) with truthy values
    for true variables.
    """
    k = vm.k
    node_label: list[Label] = []
    for i in range(1, k + 1):
        chosen = [lab for lab in vm.labels if model[vm.x(i, lab)]]
        if len(chosen) != 1:
            raise EncodingError(
                f"node {i} carries {len(chosen)} labels; expected exactly 1")
        node_label.append(chosen[0])

    seen: set[int] = set()

    def build(i: int) -> Concept:
        if i in seen:
            raise EncodingError(f"node {i} reached twice")
        seen.add(i)
        lab = node_label[i - 1]
        arity = _ARITY[lab[0]]
        if arity == 0:
            children = ()
        elif arity == 1:
            kids = [j for j in range(i + 1, k + 1) if model[vm.y1(i, j)]]
            if len(kids) != 1:
                raise EncodingError(f"unary node {i} has {len(kids)} children")
            children = (build(kids[0]),)
        else:
            kids = [j for j in range(i + 1, k) if model[vm.y2(i, j)]]
            if len(kids) != 1:
                raise EncodingError(
                    f"binary node {i} has {len(kids)} child pairs")
            children = (build(kids[0]), build(kids[0] + 1))
        return _CONSTRUCTOR[lab[0]](*lab[1:], *children)

    concept = build(1)
    if len(seen) != k:
        raise EncodingError(f"model tree uses {len(seen)} of {k} nodes")
    return concept
